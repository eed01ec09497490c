//! The warm-started rate-level search is exactly the bisection it replaced.
//!
//! `search_level` finds the straddling pair from a hint, replays the bisection's probe
//! sequence and applies its strict-`<` tie rule, so for every non-increasing size table,
//! every budget and every hint it must return the bisection's level and boundary. These
//! properties pin that on synthetic tables (flat runs at both ends and in the middle,
//! budgets on table values, cross-side ties, zero, negative and non-finite budgets) and
//! on real rate plans, check that a non-monotone rate model falls back to the bisection,
//! and check the in-program probe count of a warm conversation.

use aivchat::core::{Conversation, NetSessionOptions};
use aivchat::mllm::{Question, QuestionFormat};
use aivchat::netsim::PathConfig;
use aivchat::scene::templates::{basketball_game, lecture_slides};
use aivchat::scene::{Frame, SourceConfig, VideoSource};
use aivchat::sim::SimDuration;
use aivchat::videocodec::encoder::Preset;
use aivchat::videocodec::rate_plan::{bisect_level, search_level};
use aivchat::videocodec::{Encoder, EncoderConfig, Qp, QpMap, RatePlan, RdModel};
use proptest::prelude::*;

/// SplitMix64: the table generator's deterministic source.
fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A non-increasing size table of `len` entries: flat runs at both ends (QPs clamped at
/// 0/51) and scattered flat steps in between (blocks at their floors).
fn size_table(seed: u64, len: usize) -> Vec<u64> {
    let mut state = seed;
    let head = (splitmix(&mut state) % 12) as usize;
    let tail = (splitmix(&mut state) % 12) as usize;
    let mut size = 200 + splitmix(&mut state) % 1_000_000;
    (0..len)
        .map(|i| {
            let current = size;
            let flat = i < head || i + tail >= len || splitmix(&mut state).is_multiple_of(3);
            if !flat {
                let step = 1 + splitmix(&mut state) % (size / 8 + 1);
                size = size.saturating_sub(step).max(120);
            }
            current
        })
        .collect()
}

/// Budgets that exercise every branch: each table value's bits exactly, the midpoint
/// between consecutive distinct values (an exact cross-side tie), just off each value,
/// zero, negative and non-finite budgets.
fn budgets_for(table: &[u64]) -> Vec<f64> {
    let mut budgets = vec![
        0.0,
        -8.0,
        -1e300,
        f64::MAX,
        f64::INFINITY,
        f64::NEG_INFINITY,
        f64::NAN,
    ];
    for w in table.windows(2) {
        let (a, b) = ((w[0] * 8) as f64, (w[1] * 8) as f64);
        budgets.extend([a, b, (a + b) / 2.0, a + 1.0, b - 1.0]);
    }
    budgets
}

fn assert_search_matches(lo: i32, hi: i32, table: &[u64]) {
    let size = |level: i32| table[(level - lo) as usize];
    for budget in budgets_for(table) {
        let reference = bisect_level(lo, hi, budget, size);
        for hint in (lo - 2..=hi + 2).chain([i32::MIN, i32::MAX]) {
            let fast = search_level(lo, hi, budget, hint, true, size);
            assert_eq!(
                (fast.level, fast.boundary),
                (reference.level, reference.boundary),
                "budget {budget} hint {hint} table {table:?}"
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn search_matches_bisection_on_offset_tables(seed in 0u64..u64::MAX) {
        assert_search_matches(-51, 51, &size_table(seed, 103));
    }

    #[test]
    fn search_matches_bisection_on_uniform_tables(seed in 0u64..u64::MAX) {
        assert_search_matches(0, 51, &size_table(seed, 52));
    }
}

/// Per-level sizes of one real plan, for both probe kinds.
fn plan_tables(enc: &Encoder, plan: &RatePlan) -> (Vec<u64>, Vec<u64>) {
    let offset = (-51..=51)
        .map(|l| enc.predict_plan_offset_size(plan, l))
        .collect();
    let uniform = (0..=51)
        .map(|q| enc.predict_plan_uniform_size(plan, Qp::new(q)))
        .collect();
    (offset, uniform)
}

#[test]
fn search_matches_bisection_on_real_plans() {
    for (template, preset) in [
        (basketball_game(1), Preset::Medium),
        (lecture_slides(3), Preset::Slower),
    ] {
        let enc = Encoder::new(EncoderConfig {
            preset,
            ..EncoderConfig::default()
        });
        let source = VideoSource::new(template, SourceConfig::fps30(2.0));
        // Frame 0 is intra, frame 11 inter.
        for index in [0u64, 11] {
            let frame = source.frame(index);
            let dims = enc.grid_for(&frame);
            let values: Vec<Qp> = (0..dims.len()).map(|i| Qp::new(18 + (i % 23) as i32)).collect();
            let base = QpMap::from_values(dims, values);
            let mut plan = RatePlan::new();
            enc.prepare_rate_plan(&frame, Some(&base), &mut plan);
            let (offset, uniform) = plan_tables(&enc, &plan);
            assert!(
                offset.windows(2).all(|w| w[0] >= w[1]),
                "offset sizes are monotone"
            );
            // Every budget on a grid from below the all-floors size to above the
            // all-zero-QP size, plus the exact table values and midpoints.
            let top = (offset[0] * 8) as f64 * 1.05;
            let mut budgets: Vec<f64> = (0..=200).map(|k| top * k as f64 / 200.0).collect();
            budgets.extend(budgets_for(&offset));
            budgets.extend(budgets_for(&uniform));
            let mut hints = (-1, 1);
            for budget in budgets {
                let reference = bisect_level(-51, 51, budget, |l| offset[(l + 51) as usize]);
                let by_offset = enc.search_plan_offset(&plan, budget, hints.0);
                assert_eq!(
                    (by_offset.level, by_offset.boundary),
                    (reference.level, reference.boundary)
                );
                let reference = bisect_level(0, 51, budget, |q| uniform[q as usize]);
                let by_qp = enc.search_plan_uniform(&plan, budget, hints.1);
                assert_eq!(
                    (by_qp.level, by_qp.boundary),
                    (reference.level, reference.boundary)
                );
                // Carry the boundary along the grid, as a conversation does across
                // captures, and jump the hint now and then.
                hints = if (budget as u64).is_multiple_of(7) {
                    (51, -3)
                } else {
                    (by_offset.boundary, by_qp.boundary)
                };
            }
        }
    }
}

#[test]
fn non_monotone_rate_model_falls_back_to_the_bisection() {
    // A negative halving step makes coded size grow with QP: the search must not assume
    // the boundary structure and runs the bisection probe for probe.
    let rd = RdModel {
        qp_halving_step: -6.0,
        ..RdModel::default()
    };
    let enc = Encoder::with_rd_model(EncoderConfig::default(), rd);
    let source = VideoSource::new(basketball_game(1), SourceConfig::fps30(2.0));
    for index in [0u64, 11] {
        let frame = source.frame(index);
        let base = QpMap::uniform(enc.grid_for(&frame), Qp::new(30));
        let mut plan = RatePlan::new();
        enc.prepare_rate_plan(&frame, Some(&base), &mut plan);
        let (offset, uniform) = plan_tables(&enc, &plan);
        assert!(
            offset.windows(2).any(|w| w[0] < w[1]),
            "sizes really are non-monotone"
        );
        for budget in budgets_for(&offset).into_iter().step_by(7) {
            for hint in [-51, 0, 40] {
                let reference = bisect_level(-51, 51, budget, |l| offset[(l + 51) as usize]);
                assert_eq!(enc.search_plan_offset(&plan, budget, hint), reference);
                let reference = bisect_level(0, 51, budget, |q| uniform[q as usize]);
                assert_eq!(enc.search_plan_uniform(&plan, budget, hint), reference);
            }
        }
    }
}

/// A warm context-aware conversation at the benchmark's geometry (1080p
/// `basketball_game`, 1.5 s windows at 12 fps) runs at most four probes per capture on
/// average; the bisection ran 6.68.
#[test]
fn warm_conversation_probes_at_most_four_levels_per_capture() {
    let scene = basketball_game(1);
    let source = VideoSource::new(scene.clone(), SourceConfig::fps30(6.0));
    let mut options = NetSessionOptions::ai_oriented(21, PathConfig::paper_section_2_2(0.01));
    options.capture_fps = 12.0;
    let mut conversation = Conversation::with_defaults(options, SimDuration::from_millis(200));
    let window = |turn: usize| -> Vec<Frame> {
        let start = (turn % 8) as f64 * source.duration_secs() / 8.0;
        (0..18)
            .map(|i| source.frame_at((start + i as f64 / 12.0) % source.duration_secs()))
            .collect()
    };
    let question = |turn: usize| {
        Question::from_fact(
            &scene.facts[turn % scene.facts.len()],
            QuestionFormat::FreeResponse,
        )
    };
    for turn in 0..2 {
        conversation.run_turn(&window(turn), &question(turn));
    }
    let warm = conversation.metrics_snapshot();
    for turn in 2..10 {
        conversation.run_turn(&window(turn), &question(turn));
    }
    let end = conversation.metrics_snapshot();
    let searches = end.rate_searches - warm.rate_searches;
    let probes = end.rate_probes - warm.rate_probes;
    assert_eq!(searches, 8 * 18, "one search per capture");
    let mean = probes as f64 / searches as f64;
    eprintln!("warm context-aware conversation: {mean:.2} rate probes per capture");
    assert!(mean <= 4.0, "{mean:.2} probes per capture");
}
