//! Property-based tests of the core models' invariants across crates: Eq. 1 bounds, Eq. 2
//! monotonicity (and LUT ≡ `powf` equivalence), R-D monotonicity, accuracy monotonicity in
//! quality, incremental-correlation ≡ full-recompute equivalence, patch-memo ≡ naive
//! equivalence over arbitrary call sequences, and relatedness-table ≡ pairwise-relatedness
//! equivalence.

use aivchat::core::{
    ChatServer, ChatSession, Conversation, NetSessionOptions, QpAllocator, QpAllocatorConfig,
};
use aivchat::mllm::{MllmChat, Question, QuestionFormat};
use aivchat::netsim::PathConfig;
use aivchat::par::MiniPool;
use aivchat::scene::templates::{basketball_game, TemplateKind};
use aivchat::scene::Rect;
use aivchat::scene::{
    Concept, Frame, GridDims, Ontology, RegionContent, Scene, SceneObject, SourceConfig, VideoSource,
};
use aivchat::semantics::{ClipModel, ClipParScratch, ClipScratch, ImportanceMap, TextQuery};
use aivchat::sim::SimDuration;
use aivchat::videocodec::{
    Decoder, EncodeParScratch, EncodedFrame, Encoder, EncoderConfig, FrameType, Qp, QpMap, RdModel,
};
use proptest::prelude::*;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::collections::HashSet;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Eq. 2 output always lies in the legal QP range and is monotone in ρ, for any γ.
    #[test]
    fn eq2_is_bounded_and_monotone(gamma in 0.25f64..10.0, rho_a in -1.0f64..1.0, rho_b in -1.0f64..1.0) {
        let allocator = QpAllocator::new(QpAllocatorConfig::with_gamma(gamma));
        let qp_a = allocator.qp_for_rho(rho_a).value();
        let qp_b = allocator.qp_for_rho(rho_b).value();
        prop_assert!(qp_a <= 51 && qp_b <= 51);
        if rho_a < rho_b {
            prop_assert!(qp_a >= qp_b, "rho {rho_a}<{rho_b} but qp {qp_a}<{qp_b}");
        }
    }

    /// The Eq. 2 threshold-table allocator is bit-identical to the transcendental `powf`
    /// path for arbitrary ρ ∈ [−1, 1] (and out-of-range ρ), for the paper γ, every γ the
    /// ablation sweeps, and arbitrary temperatures — with and without clamping.
    #[test]
    fn eq2_lut_is_bit_identical_to_powf(
        rho in -1.0f64..=1.0,
        wild_rho in -5.0f64..5.0,
        gamma_ablation in [0.5f64, 1.0, 2.0, 3.0, 5.0, 8.0],
        gamma_arbitrary in 0.05f64..12.0,
        min_qp in 0u8..=26,
        max_qp in 26u8..=51,
    ) {
        for gamma in [gamma_ablation, gamma_arbitrary] {
            let plain = QpAllocator::new(QpAllocatorConfig::with_gamma(gamma));
            let clamped = QpAllocator::new(QpAllocatorConfig { gamma, min_qp, max_qp });
            for allocator in [&plain, &clamped] {
                for r in [rho, wild_rho, -1.0, 1.0] {
                    let lut = allocator.qp_for_rho(r);
                    let reference = allocator.qp_for_rho_reference(r);
                    prop_assert!(lut == reference, "gamma {gamma} rho {r}: {lut} != {reference}");
                }
            }
        }
    }

    /// Incremental correlation (arbitrary dirty supersets of the true dirty set, and the
    /// automatic coherent path) is bit-identical to a full recompute, for every template,
    /// frame step and question.
    #[test]
    fn incremental_correlation_matches_full_recompute(
        template_idx in 0usize..5,
        seed in 0u64..20,
        fact_idx in 0usize..4,
        start in 0u64..30,
        step in 1u64..40,
        extra_dirty in 0usize..600,
    ) {
        let scene = TemplateKind::ALL[template_idx].build(seed);
        let fact = &scene.facts[fact_idx % scene.facts.len()];
        let model = ClipModel::mobile_default();
        let query = TextQuery::from_words_and_concepts(&fact.question, model.ontology(), fact.query_concepts.clone());
        let source = VideoSource::new(scene.clone(), SourceConfig::fps30(3.0));
        let frame_a = source.frame(start);
        let frame_b = source.frame(start + step);
        let full_b = model.correlation_map_naive(&frame_b, &query);

        // The automatic coherent path: full on frame A, incremental onto frame B.
        let mut scratch = ClipScratch::new();
        let _ = model.correlation_map_coherent(&frame_a, &query, &mut scratch);
        let coherent = model.correlation_map_coherent(&frame_b, &query, &mut scratch);
        prop_assert_eq!(coherent, &full_b);

        // The explicit path: the true dirty set (patches whose value differs between the
        // two full maps) plus an arbitrary extra index must reproduce the full recompute.
        let full_a = model.correlation_map_naive(&frame_a, &query);
        let mut dirty: Vec<usize> = full_a
            .values()
            .iter()
            .zip(full_b.values())
            .enumerate()
            .filter(|(_, (a, b))| a.to_bits() != b.to_bits())
            .map(|(i, _)| i)
            .collect();
        dirty.push(extra_dirty % full_b.dims().len());
        let mut scratch = ClipScratch::new();
        let _ = model.correlation_map_with(&frame_a, &query, &mut scratch);
        let updated = model.correlation_map_update(&frame_b, &query, &dirty, &mut scratch);
        prop_assert_eq!(updated, &full_b);
    }

    /// Block bits are monotone non-increasing in QP and monotone non-decreasing in
    /// complexity, for any content.
    #[test]
    fn rd_model_monotonicity(
        complexity in 0.0f64..1.0,
        motion in 0.0f64..1.0,
        qp in 0i32..50,
    ) {
        let rd = RdModel::default();
        let bits = |q: i32, c: f64| rd.block_bits(Qp::new(q), 64 * 64, c, motion, FrameType::Inter);
        prop_assert!(bits(qp, complexity) >= bits(qp + 1, complexity));
        if complexity < 0.95 {
            prop_assert!(bits(qp, complexity + 0.05) >= bits(qp, complexity));
        }
        // Quality is monotone too.
        prop_assert!(rd.block_quality(Qp::new(qp), 0.5) >= rd.block_quality(Qp::new(qp + 1), 0.5));
    }
}

// The parallel-equivalence properties run whole turns and full-frame encodes per case, so
// they use fewer cases than the scalar properties above (each case already sweeps pool
// sizes 1, 2 and 8).
proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// The data-parallel correlation map is bit-identical to the naive recompute for every
    /// pool size, template, frame and question — where a patch runs must never change what
    /// it computes.
    #[test]
    fn parallel_correlation_is_pool_size_independent(
        template_idx in 0usize..5,
        seed in 0u64..20,
        fact_idx in 0usize..4,
        frame_idx in 0u64..60,
    ) {
        let scene = TemplateKind::ALL[template_idx].build(seed);
        let fact = &scene.facts[fact_idx % scene.facts.len()];
        let model = ClipModel::mobile_default();
        let query = TextQuery::from_words_and_concepts(&fact.question, model.ontology(), fact.query_concepts.clone());
        let frame = VideoSource::new(scene.clone(), SourceConfig::fps30(3.0)).frame(frame_idx);
        let reference = model.correlation_map_naive(&frame, &query);
        // 1, 2, 8 lanes always; plus the CI-pinned AIVC_POOL_SIZE configuration.
        for lanes in [1usize, 2, 8, MiniPool::env_lanes()] {
            let pool = MiniPool::new(lanes);
            let mut scratch = ClipParScratch::new();
            let par = model.correlation_map_par(&frame, &query, &pool, &mut scratch);
            prop_assert_eq!(par, &reference);
        }
    }

    /// The data-parallel ROI encode is bit-identical to the allocating reference for every
    /// pool size, frame and QP map — including byte offsets, which are a prefix sum the
    /// parallel path reassembles sequentially.
    #[test]
    fn parallel_encode_is_pool_size_independent(
        template_idx in 0usize..5,
        seed in 0u64..20,
        frame_idx in 0u64..60,
        low_qp in 0i32..30,
        high_qp in 30i32..=51,
        split in 1u32..8,
    ) {
        let scene = TemplateKind::ALL[template_idx].build(seed);
        let frame = VideoSource::new(scene, SourceConfig::fps30(3.0)).frame(frame_idx);
        let encoder = Encoder::new(EncoderConfig::default());
        let dims = encoder.grid_for(&frame);
        let mut map = QpMap::uniform(dims, Qp::new(high_qp));
        for row in 0..dims.rows {
            for col in 0..dims.cols * split / 8 {
                map.set(row, col, Qp::new(low_qp));
            }
        }
        let reference = encoder.encode_with_qp_map(&frame, &map);
        for lanes in [1usize, 2, 8, MiniPool::env_lanes()] {
            let pool = MiniPool::new(lanes);
            let mut scratch = EncodeParScratch::new();
            let mut out = EncodedFrame::placeholder();
            encoder.encode_into_par(&frame, &map, &pool, &mut scratch, &mut out);
            prop_assert_eq!(&out, &reference);
        }
    }

    /// ChatServer turns are bit-identical for any pool size and deterministic across runs:
    /// per-session reports equal the standalone sessions' reports no matter how many lanes
    /// the turns were spread over, across multiple (warm) turns.
    #[test]
    fn parallel_chat_server_is_pool_size_independent_and_deterministic(
        template_idx in 0usize..5,
        scene_seed in 0u64..10,
        fact_idx in 0usize..4,
        base_seed in 0u64..1000,
        session_count in 1usize..10,
    ) {
        let scene = TemplateKind::ALL[template_idx].build(scene_seed);
        let fact = &scene.facts[fact_idx % scene.facts.len()];
        let question = Question::from_fact(fact, QuestionFormat::MultipleChoice);
        let source = VideoSource::new(scene.clone(), SourceConfig::fps30(3.0));
        let frames: Vec<Frame> = (0..3).map(|i| source.frame(i * 10)).collect();
        let run = |pool_size: usize| {
            let mut server = ChatServer::new(pool_size, session_count, base_seed);
            server.run_turns(&frames, &question); // warmup turn
            server.run_turns(&frames, &question); // steady-state turn
            server.reports().cloned().collect::<Vec<_>>()
        };
        let sequential = run(1);
        prop_assert_eq!(&run(2), &sequential);
        prop_assert_eq!(&run(8), &sequential);
        prop_assert_eq!(&run(8), &sequential); // determinism across runs at equal pool size
        prop_assert_eq!(&run(MiniPool::env_lanes()), &sequential); // the CI-pinned config
        // And each report equals the standalone session's second turn.
        for (i, report) in sequential.iter().enumerate() {
            let mut session = ChatSession::with_defaults(base_seed.wrapping_add(i as u64));
            let _ = session.run_turn(&frames, &question);
            prop_assert_eq!(report, &session.run_turn(&frames, &question));
        }
    }
}

// Back at the scalar case count for the remaining model invariants.
proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Eq. 1 correlations stay in [-1, 1] for every template, seed and question.
    #[test]
    fn correlation_maps_respect_eq1_bounds(template_idx in 0usize..5, seed in 0u64..30, fact_idx in 0usize..4) {
        let scene = TemplateKind::ALL[template_idx].build(seed);
        let fact = &scene.facts[fact_idx % scene.facts.len()];
        let model = ClipModel::mobile_default();
        let query = TextQuery::from_words_and_concepts(&fact.question, model.ontology(), fact.query_concepts.clone());
        let frame = VideoSource::new(scene.clone(), SourceConfig::fps30(2.0)).frame(0);
        let map = model.correlation_map(&frame, &query);
        prop_assert!(map.values().iter().all(|v| (-1.0..=1.0).contains(v)));
        prop_assert_eq!(map.values().len(), map.dims().len());
    }

    /// MLLM answer probability is monotone non-increasing in QP (coarser video can never
    /// make the model more likely to answer correctly), and bounded by [floor, 1].
    #[test]
    fn answer_probability_monotone_in_qp(template_idx in 0usize..5, seed in 0u64..10, fact_idx in 0usize..4) {
        let scene = TemplateKind::ALL[template_idx].build(seed);
        let fact = &scene.facts[fact_idx % scene.facts.len()];
        let question = Question::from_fact(fact, QuestionFormat::MultipleChoice);
        let source = VideoSource::new(scene.clone(), SourceConfig::fps30(2.0));
        let encoder = Encoder::new(EncoderConfig::default());
        let decoder = Decoder::new();
        let chat = MllmChat::responder(seed);
        let mut previous = 1.1f64;
        for qp in [20, 30, 40, 50] {
            let frames: Vec<_> = (0..2)
                .map(|i| decoder.decode_complete(&encoder.encode_uniform(&source.frame(i * 30), Qp::new(qp)), None))
                .collect();
            let p = chat.answer_model().probability_correct(&question, &frames);
            prop_assert!(p <= previous + 1e-9, "p increased at qp {qp}");
            prop_assert!((0.0..=1.0).contains(&p));
            prop_assert!(p >= question.format.guess_floor() - 1e-9);
            previous = p;
        }
    }
}

/// Asserts `ontology.relatedness_table()` equals `relatedness` on every ordered pair, bit
/// for bit.
fn assert_table_matches_pairwise(ontology: &Ontology) -> Result<(), TestCaseError> {
    let concepts: Vec<&Concept> = ontology.concepts().collect();
    let table = ontology.relatedness_table();
    prop_assert_eq!(table.len(), concepts.len());
    for (row, a) in table.iter().zip(&concepts) {
        prop_assert_eq!(row.len(), concepts.len());
        for (&got, b) in row.iter().zip(&concepts) {
            let want = ontology.relatedness(a, b);
            prop_assert!(
                got.to_bits() == want.to_bits(),
                "{a} / {b}: table {got} != pairwise {want}"
            );
        }
    }
    Ok(())
}

#[test]
fn relatedness_table_is_bit_identical_on_the_standard_ontology() {
    assert_table_matches_pairwise(&Ontology::standard()).unwrap();
    assert_table_matches_pairwise(&Ontology::new()).unwrap();
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The index-keyed relatedness table equals the pairwise query bit for bit on random
    /// ontologies: weights drawn from a small palette (exact 1.0, repeated values that tie
    /// one-hop paths, values outside [0, 1] that `relate` clamps) or continuously,
    /// re-declared pairs, isolated concepts, and explicitly tied two-path triangles.
    #[test]
    fn relatedness_table_is_bit_identical_on_random_ontologies(
        seed in 0u64..1_000_000,
        concepts in 1usize..24,
        relations in 0usize..80,
        isolated in 0usize..4,
        ties in 0usize..4,
    ) {
        const PALETTE: [f64; 8] = [1.0, 0.5, 0.8, 0.8, 0.3, -0.4, 1.6, 0.0];
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let name = |i: usize| format!("c{:02}", (i * 37) % 97);
        let weight = |rng: &mut ChaCha8Rng| {
            if rng.gen_bool(0.5) {
                PALETTE[rng.gen_range(0..PALETTE.len())]
            } else {
                rng.gen_range(-0.5f64..1.5)
            }
        };
        let mut ontology = Ontology::new();
        for i in 0..concepts {
            ontology.add_concept(name(i).as_str());
        }
        for i in 0..isolated {
            ontology.add_concept(format!("isolated-{i}").as_str());
        }
        for _ in 0..relations {
            let (a, b) = (rng.gen_range(0..concepts), rng.gen_range(0..concepts));
            let w = weight(&mut rng);
            ontology.relate(name(a).as_str(), name(b).as_str(), w);
        }
        for t in 0..ties {
            // a — m1 — b and a — m2 — b with equal weights: two tied one-hop paths.
            let (w1, w2) = (weight(&mut rng), weight(&mut rng));
            let (a, b) = (format!("tie{t}-a"), format!("tie{t}-b"));
            for m in [format!("tie{t}-m1"), format!("tie{t}-m2")] {
                ontology.relate(a.as_str(), m.as_str(), w1);
                ontology.relate(m.as_str(), b.as_str(), w2);
            }
        }
        assert_table_matches_pairwise(&ontology)?;
    }
}

/// A small (640×384, 60-patch) scene of five objects drifting at odd speeds, carrying
/// out-of-ontology concepts next to ontology ones: it changes the patch geometry against
/// the 1080p templates, exercises the `extra` embedding table, and produces more distinct
/// patch inputs over a few dozen frames than the patch memo may hold (2 per patch).
fn drifting_gizmos() -> Scene {
    let mut scene = Scene::new("drifting-gizmos", 640, 384).with_background(
        0.3,
        0.1,
        vec![
            (Concept::new("mystery-backdrop"), 1.0),
            (Concept::new("grass"), 0.5),
        ],
    );
    let objects = [
        (1, "unheard-of-gizmo", Rect::new(37, 21, 149, 97), (41.3, 17.9)),
        (2, "scoreboard", Rect::new(250, 40, 90, 170), (-23.1, 31.7)),
        (3, "dog", Rect::new(400, 200, 201, 77), (13.7, -29.3)),
        (4, "another-novel-thing", Rect::new(90, 250, 61, 61), (57.1, 5.3)),
        (5, "jersey", Rect::new(500, 20, 113, 133), (-37.9, 19.1)),
    ];
    for (id, concept, rect, velocity) in objects {
        scene.add_object(
            SceneObject::new(id, concept, rect)
                .with_concept(concept, 0.9)
                .with_concept("mystery-backdrop", 0.2)
                .with_detail(0.5)
                .with_texture(0.5)
                .with_motion(0.5, velocity),
        );
    }
    scene
}

/// Every distinct patch input (coverage list + background fraction, bit for bit) over
/// `frames`, as the Eq. 1 kernel sees them.
fn distinct_patch_inputs(frames: &[Frame], patch_size: u32) -> usize {
    let mut content = RegionContent::empty();
    let mut inputs = HashSet::new();
    for frame in frames {
        let dims = GridDims::for_frame(frame.width, frame.height, patch_size);
        for idx in 0..dims.len() {
            let (row, col) = dims.position(idx);
            frame.region_content_into(&dims.cell_rect(row, col, frame.width, frame.height), &mut content);
            let coverage: Vec<(u32, u64)> = content
                .object_coverage
                .iter()
                .map(|&(id, f)| (id, f.to_bits()))
                .collect();
            inputs.insert((coverage, content.background_fraction.to_bits()));
        }
    }
    inputs.len()
}

/// One step of a memo-equivalence script: which scratch entry point computes the map.
#[derive(Debug, Clone, Copy)]
enum MapCall {
    With,
    Coherent,
    /// Caller-supplied dirty set: the patches whose value changed, plus one arbitrary patch.
    Update(usize),
    /// The data-parallel path on two lanes, through the same scratch.
    Par,
}

/// Runs `call` for `frame`/`query` on `scratch` and checks the map against the naive
/// per-patch reference, bit for bit. `held` is the naive map of whatever the scratch last
/// computed (the reference the caller-supplied dirty set is derived from), or `None` after
/// a `take_map`.
fn check_memoized_call(
    model: &ClipModel,
    scratch: &mut ClipParScratch,
    pool: &MiniPool,
    held: &mut Option<ImportanceMap>,
    frame: &Frame,
    query: &TextQuery,
    call: MapCall,
) -> Result<(), TestCaseError> {
    let naive = model.correlation_map_naive(frame, query);
    let map = match call {
        MapCall::With => model.correlation_map_with(frame, query, scratch.sequential()),
        MapCall::Coherent => model.correlation_map_coherent(frame, query, scratch.sequential()),
        MapCall::Update(extra) => {
            let mut dirty: Vec<usize> = match held.as_ref().filter(|h| h.dims() == naive.dims()) {
                Some(previous) => previous
                    .values()
                    .iter()
                    .zip(naive.values())
                    .enumerate()
                    .filter(|(_, (a, b))| a.to_bits() != b.to_bits())
                    .map(|(i, _)| i)
                    .collect(),
                None => (0..naive.dims().len()).collect(),
            };
            dirty.push(extra % naive.dims().len());
            model.correlation_map_update(frame, query, &dirty, scratch.sequential())
        }
        MapCall::Par => model.correlation_map_par(frame, query, pool, scratch),
    };
    prop_assert!(
        map == &naive,
        "{call:?} on frame {} ({}x{}) diverged from the naive map",
        frame.index,
        frame.width,
        frame.height
    );
    *held = Some(naive);
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// The patch memo is exact: every map the memoized paths produce equals the naive
    /// per-patch recompute bit for bit, whatever the order of calls. One scratch runs a
    /// script of forward steps, jumps and repeats; a query switch mid-sequence; a switch to
    /// another template (a new frame fingerprint) under the same query; the empty query;
    /// out-of-ontology concepts and a patch-geometry change; interleaved data-parallel and
    /// `take_map` calls; and a stretch with more distinct patch inputs than the memo holds.
    #[test]
    fn memoized_correlation_matches_naive_over_any_call_sequence(
        template_a in 0usize..5,
        template_b in 0usize..5,
        seed in 0u64..20,
        fact_idx in 0usize..4,
        start in 0u64..30,
        jump in 2u64..40,
        script_seed in 0u64..1_000_000,
    ) {
        let model = ClipModel::mobile_default();
        let scene_a = TemplateKind::ALL[template_a].build(seed);
        let scene_b = TemplateKind::ALL[template_b].build(seed + 1);
        let question = |scene: &Scene, k: usize| {
            let fact = &scene.facts[k % scene.facts.len()];
            TextQuery::from_words_and_concepts(&fact.question, model.ontology(), fact.query_concepts.clone())
        };
        let qa = question(&scene_a, fact_idx);
        let qb = question(&scene_a, fact_idx + 1);
        let empty = TextQuery::from_words("qqq zzz", model.ontology());
        let novel = TextQuery::from_concepts("find the gizmo", ["unheard-of-gizmo", "scoreboard", "grass"]);
        let source_a = VideoSource::new(scene_a, SourceConfig::fps30(3.0));
        let source_b = VideoSource::new(scene_b, SourceConfig::fps30(3.0));
        let gizmos = VideoSource::new(drifting_gizmos(), SourceConfig::fps30(3.0));

        let mut rng = ChaCha8Rng::seed_from_u64(script_seed);
        let pool = MiniPool::new(2);
        let mut scratch = ClipParScratch::new();
        let mut held = None;
        let mut run = |frame: &Frame, query: &TextQuery, rng: &mut ChaCha8Rng| {
            let call = match rng.gen_range(0..8u32) {
                0 | 1 => MapCall::With,
                2..=4 => MapCall::Coherent,
                5 | 6 => MapCall::Update(rng.gen_range(0..600usize)),
                _ => MapCall::Par,
            };
            check_memoized_call(&model, &mut scratch, &pool, &mut held, frame, query, call)?;
            if rng.gen_range(0..10u32) == 0 {
                let taken = scratch.take_map();
                prop_assert_eq!(Some(&taken), held.as_ref());
                held = None;
            }
            Ok(())
        };
        let script_a = [start, start + 1, start + 2, start + 2, start + 2 + jump, start + 3 + jump, start];
        // Steps, a repeat and a jump under the first question ...
        for &i in &script_a {
            run(&source_a.frame(i), &qa, &mut rng)?;
        }
        // ... a query switch mid-sequence, back and forth over the same frames ...
        for &i in &script_a[2..] {
            run(&source_a.frame(i), &qb, &mut rng)?;
        }
        run(&source_a.frame(start), &qa, &mut rng)?;
        // ... another template (a new fingerprint) under the same query ...
        for &i in &script_a[..4] {
            run(&source_b.frame(i), &qa, &mut rng)?;
        }
        // ... the empty query, and back ...
        run(&source_b.frame(start + 3), &empty, &mut rng)?;
        run(&source_b.frame(start + 4), &empty, &mut rng)?;
        run(&source_b.frame(start + 4), &qa, &mut rng)?;
        // ... out-of-ontology concepts on another patch geometry ...
        for i in 0..6 {
            run(&gizmos.frame(start + 3 * i), &novel, &mut rng)?;
        }
        // ... and back to the first template.
        run(&source_a.frame(start + 1), &qa, &mut rng)?;
        run(&source_a.frame(start + 2), &qa, &mut rng)?;
    }
}

/// The memo empties itself at 2 entries per patch; a long stretch under one query and one
/// fingerprint with far more distinct inputs than that must stay exact through every
/// emptying.
#[test]
fn memo_stays_exact_past_its_bound() {
    let model = ClipModel::mobile_default();
    let source = VideoSource::new(drifting_gizmos(), SourceConfig::fps30(3.0));
    let frames: Vec<Frame> = (0..48).map(|i| source.frame(i)).collect();
    let patches = GridDims::for_frame(640, 384, model.config().patch_size).len();
    let distinct = distinct_patch_inputs(&frames, model.config().patch_size);
    assert!(
        distinct > 4 * patches,
        "{distinct} distinct inputs do not overflow a {patches}-patch memo"
    );
    let queries = [
        TextQuery::from_concepts("find the gizmo", ["unheard-of-gizmo", "scoreboard"]),
        TextQuery::from_words("Is the dog on the grass?", model.ontology()),
    ];
    for query in &queries {
        let mut scratch = ClipScratch::new();
        for (i, frame) in frames.iter().enumerate() {
            let naive = model.correlation_map_naive(frame, query);
            let map = if i % 5 == 0 {
                model.correlation_map_with(frame, query, &mut scratch)
            } else {
                model.correlation_map_coherent(frame, query, &mut scratch)
            };
            assert_eq!(map, &naive, "frame {i} of {:?}", query.text);
        }
        let counts = scratch.take_patch_counts();
        assert!(
            counts.evals > 2 * patches as u64,
            "only {} evaluations: the memo never had to empty itself",
            counts.evals
        );
    }
}

/// A warm context-aware conversation at the benchmark's geometry (1080p
/// `basketball_game`, 1.5 s windows at 12 fps), asking a new question every turn, looks up
/// ~123 patches per capture and evaluates at most 24 of them on average through the
/// patch memo; without it every lookup was an evaluation.
#[test]
fn warm_conversation_evaluates_few_patches_per_capture() {
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
    let captures = end.rate_searches - warm.rate_searches;
    let lookups = end.clip_patch_lookups - warm.clip_patch_lookups;
    let evals = end.clip_patch_evals - warm.clip_patch_evals;
    assert_eq!(captures, 8 * 18, "one Eq. 1 map per capture");
    let per_capture = |n: u64| n as f64 / captures as f64;
    eprintln!(
        "warm context-aware conversation: {:.1} of {:.1} patch lookups per capture evaluated",
        per_capture(evals),
        per_capture(lookups)
    );
    // Every turn starts with a full map (510 patches) under its new question.
    assert!(lookups >= 8 * 510, "{lookups} lookups");
    assert!(evals <= lookups);
    assert!(
        per_capture(evals) <= 24.0,
        "{:.1} evaluations per capture",
        per_capture(evals)
    );
}
