//! The traced run that yields the per-layer metrics.
//!
//! Each traced turn runs the real turn through the public entry point (span
//! `core.run_turn`, untraced inside), then replays the same turn through the layers'
//! public functions (span `replay.turn`, a span around every layer call). Counts come
//! from the program itself (`metrics_snapshot`, `link_counters`); times come from the
//! replay. Definitions:
//!
//! * per-frame and per-turn layer times: Σ of that layer's spans over replayed captures
//!   or turns;
//! * `core.turn_self_us`: median over turns of the real turn's wall minus Σ of its
//!   replay's layer spans — time the real turn spends outside the layer calls (driver
//!   and orchestration). Fleet turns count per session-turn on one lane:
//!   round wall × lanes ÷ sessions;
//! * `trace.coverage`: Σ layer spans ÷ Σ traced (replay) turn walls;
//! * `trace.overhead_frac`: p50 traced turn wall ÷ p50 real turn wall − 1;
//! * `par.scaling_efficiency` (fleet only): round throughput at `lanes` lanes ÷
//!   (`lanes` × throughput at 1 lane), alternating rounds of two identical fleets.

use crate::alloc;
use crate::host::{check_outputs, golden_digest, Host, Tally};
use crate::replay::{Replay, ReplayCounts};
use crate::span::{empty_span_ns, Layer, Tracer, TurnTotals};
use crate::stats::median;
use crate::workload::{script, Scale, Turn, Workload, CAPTURE_FPS, DEFAULT_SEED, THINK_GAP};
use crate::Metric;
use aivc_semantics::ClipModel;
use aivchat_core::{Conversation, StreamerConfig};
use std::path::Path;
use std::time::{Duration, Instant};

/// Turns whose every span is written to the spans file.
const KEEP_TURNS: u32 = 16;
/// Share of a fleet run's time spent measuring lane scaling.
const SCALING_SHARE: f64 = 0.3;

/// Everything the traced run measured and checked.
#[derive(Debug, Clone)]
pub struct TraceResult {
    /// Session-turns run through the real entry point while tracing.
    pub attempted: u64,
    /// Of those, turns that decoded nothing, or all when an output check failed.
    pub failed: u64,
    /// Output-check failures; empty when the run is correct.
    pub problems: Vec<String>,
    /// The per-layer metrics.
    pub metrics: Vec<Metric>,
    /// Spans written to the spans file.
    pub spans_written: bool,
}

/// Per-turn wall times of a traced turn, in ns.
#[derive(Debug, Clone, Copy)]
struct TurnTimes {
    /// The real turn, per session-turn on one lane.
    real: f64,
    /// The replayed turn.
    replay: f64,
    /// Σ layer spans of the replay.
    layers: f64,
}

/// Runs the traced run of `workload` at `seed`, sized by `scale`, for about `seconds`,
/// with `lanes` pool lanes, writing the first turns' spans to `spans_path`.
pub fn run(
    workload: Workload,
    scale: Scale,
    seed: u64,
    seconds: f64,
    lanes: usize,
    spans_path: &Path,
) -> TraceResult {
    let turns = script(seed);
    let golden = golden_digest(workload, DEFAULT_SEED, lanes);

    // Set-up's dominant call on its own: building one CLIP model.
    let mut clip_ms: Vec<f64> = (0..5)
        .map(|_| {
            let start = Instant::now();
            std::hint::black_box(ClipModel::mobile_default());
            start.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    let clip_model_ms = median(&mut clip_ms);

    // One set-up, timed for `core.setup_clip_share`. `budgets` collects session 0's
    // per-frame budget of every real turn that runs before tracing starts.
    let mut tally = Tally::default();
    let mut budgets = Vec::new();
    let start = Instant::now();
    let mut host = Host::build(workload, seed, scale.sessions, lanes);
    for turn in turns.iter().cycle().take(scale.warmup_turns) {
        host.run(turn, |r| tally.add(r));
        budgets.push(frame_budget(&host));
    }
    let setup_s = start.elapsed().as_secs_f64();

    let scaling = workload.is_fleet().then(|| {
        let budget = Duration::from_secs_f64(seconds * SCALING_SHARE);
        lane_scaling(
            workload,
            scale,
            seed,
            &mut host,
            &turns,
            &mut budgets,
            &mut tally,
            lanes,
            budget,
        )
    });

    // Bring a replay to the real conversation's turn, untraced, so both timelines and
    // controllers stand at the same point when tracing starts.
    let mut replay = Replay::new(workload.options(seed), ClipModel::mobile_default());
    let mut scratch = Tracer::new(0);
    for (turn, &budget) in turns.iter().cycle().zip(&budgets) {
        replay.turn(&turn.frames, &turn.question, budget, THINK_GAP, &mut scratch);
        scratch.finish_turn();
    }
    let mut next = budgets.len();
    replay.counts = ReplayCounts::default();

    // Traced turns until the run's time is spent. Layer times are corrected by the
    // timer cost an empty span records, so many short spans do not inflate a layer.
    let span_ns = empty_span_ns();
    let corrected = |t: &TurnTotals, layer: Layer| t.nanos(layer) as f64 - t.spans(layer) as f64 * span_ns;
    let mut tracer = Tracer::new(KEEP_TURNS);
    let mut per_turn: Vec<TurnTotals> = Vec::new();
    let mut times: Vec<TurnTimes> = Vec::new();
    let (mut attempted, mut failed, mut ingested) = (0u64, 0u64, 0u64);
    let (mut allocs, mut growth) = (0u64, 0i64);
    let per_lane = lanes.min(scale.sessions).max(1) as f64 / scale.sessions as f64;
    let traced_share = if scaling.is_some() {
        1.0 - SCALING_SHARE
    } else {
        1.0
    };
    let deadline = Duration::from_secs_f64(seconds * traced_share);
    let traced_start = Instant::now();
    loop {
        let turn: &Turn = &turns[next % turns.len()];
        next += 1;
        tracer.open(Layer::Turn);
        tracer.open(Layer::RunTurn);
        let heap_before = alloc::stats();
        host.run(turn, |r| {
            tally.add(r);
            attempted += 1;
            failed += u64::from(r.frames_decoded == 0);
            ingested += r.answer.frames_ingested as u64;
        });
        let heap_after = alloc::stats();
        tracer.close();
        allocs += heap_after.allocs - heap_before.allocs;
        growth += heap_after.live_bytes as i64 - heap_before.live_bytes as i64;
        tracer.open(Layer::Replay);
        replay.turn(
            &turn.frames,
            &turn.question,
            frame_budget(&host),
            THINK_GAP,
            &mut tracer,
        );
        tracer.close();
        tracer.close();
        let turn_totals = tracer.finish_turn();
        let layers: f64 = Layer::ALL
            .iter()
            .filter(|l| l.is_layer_call())
            .map(|&l| corrected(&turn_totals, l))
            .sum();
        times.push(TurnTimes {
            real: turn_totals.nanos(Layer::RunTurn) as f64 * per_lane,
            replay: turn_totals.nanos(Layer::Replay) as f64,
            layers,
        });
        per_turn.push(turn_totals);
        if traced_start.elapsed() >= deadline {
            break;
        }
    }

    let spans_written = tracer.write_jsonl(spans_path).is_ok();
    let mut problems = check_outputs(workload, &host, &tally, &golden);
    if !spans_written {
        problems.push(format!("could not write {}", spans_path.display()));
    }
    let metrics = layer_metrics(&LayerInputs {
        workload,
        host: &host,
        tally: &tally,
        per_turn: &per_turn,
        times: &times,
        counts: &replay.counts,
        traced_session_turns: attempted,
        ingested,
        allocs,
        growth,
        clip_model_ms,
        setup_s,
        scaling,
        span_ns,
    });
    TraceResult {
        attempted,
        failed: if problems.is_empty() { failed } else { attempted },
        problems,
        metrics,
        spans_written,
    }
}

/// The per-frame coded-size budget of session 0's latest real turn.
fn frame_budget(host: &Host) -> f64 {
    host.first_report()
        .map_or(0.0, |r| r.mean_target_bitrate_bps / CAPTURE_FPS)
}

/// Alternates rounds of the fleet at `lanes` lanes with rounds of an identical fleet at
/// one lane (built from clones of one CLIP model) and returns the efficiency.
#[allow(clippy::too_many_arguments)]
fn lane_scaling(
    workload: Workload,
    scale: Scale,
    seed: u64,
    host: &mut Host,
    turns: &[Turn],
    budgets: &mut Vec<f64>,
    tally: &mut Tally,
    lanes: usize,
    budget: Duration,
) -> f64 {
    let model = ClipModel::mobile_default();
    let sessions = (0..scale.sessions)
        .map(|i| {
            let mut options = workload.options(seed);
            options.seed = seed.wrapping_add(i as u64);
            Conversation::new(options, StreamerConfig::default(), model.clone(), THINK_GAP)
        })
        .collect();
    let mut single = Host::fleet_of(sessions, 1);
    for turn in turns.iter().cycle().take(budgets.len()) {
        single.run(turn, |_| {});
    }
    let (mut multi_ms, mut single_ms) = (Vec::new(), Vec::new());
    let start = Instant::now();
    while start.elapsed() < budget || multi_ms.len() < 3 {
        let turn = &turns[budgets.len() % turns.len()];
        let t = Instant::now();
        host.run(turn, |r| tally.add(r));
        multi_ms.push(t.elapsed().as_secs_f64());
        budgets.push(frame_budget(host));
        let t = Instant::now();
        single.run(turn, |_| {});
        single_ms.push(t.elapsed().as_secs_f64());
    }
    median(&mut single_ms) / median(&mut multi_ms) / lanes as f64
}

struct LayerInputs<'a> {
    workload: Workload,
    host: &'a Host,
    tally: &'a Tally,
    per_turn: &'a [TurnTotals],
    times: &'a [TurnTimes],
    counts: &'a ReplayCounts,
    traced_session_turns: u64,
    ingested: u64,
    allocs: u64,
    growth: i64,
    clip_model_ms: f64,
    setup_s: f64,
    scaling: Option<f64>,
    span_ns: f64,
}

/// Assembles the per-layer metrics, in the order `BENCHMARK.json` lists them.
fn layer_metrics(x: &LayerInputs) -> Vec<Metric> {
    let turns = x.counts.turns.max(1) as f64;
    let frames = x.counts.frames.max(1) as f64;
    let frames_per_turn = frames / turns;
    // Layer times: the median over traced turns of the turn's span-corrected total, so
    // a rare preempted turn does not move them; per frame divides by captures per turn.
    let us = |layer: Layer| {
        let mut v: Vec<f64> = x
            .per_turn
            .iter()
            .map(|t| (t.nanos(layer) as f64 - t.spans(layer) as f64 * x.span_ns) / 1e3)
            .collect();
        median(&mut v)
    };
    let counters = x.host.counters();
    let link = x.host.link_counters();
    // Counters count every session-turn the instance ran (warm-up included).
    let session_turns = x.tally.turns.max(1) as f64;
    let traced = x.traced_session_turns.max(1) as f64;
    let context_aware = x.workload != Workload::ConvBaselineLossy;
    let mut self_us: Vec<f64> = x.times.iter().map(|t| (t.real - t.layers) / 1e3).collect();
    let mut real: Vec<f64> = x.times.iter().map(|t| t.real).collect();
    let mut replayed: Vec<f64> = x.times.iter().map(|t| t.replay).collect();
    let layer_ns: f64 = x.times.iter().map(|t| t.layers).sum();
    let replay_ns: f64 = x.times.iter().map(|t| t.replay).sum();
    let sessions = x.host.sessions() as f64;

    let m = |name, unit, value| Metric {
        name,
        unit,
        value,
        applicable: true,
        gated: true,
    };
    let only = |applicable: bool, metric: Metric| Metric { applicable, ..metric };
    vec![
        m("semantics.query_us_per_turn", "us", us(Layer::Query)),
        only(
            context_aware,
            m(
                "semantics.clip_us_per_frame",
                "us",
                us(Layer::Clip) / frames_per_turn,
            ),
        ),
        only(
            context_aware,
            m(
                "semantics.dirty_patch_frac",
                "ratio",
                x.counts.dirty_patch_sum / frames,
            ),
        ),
        only(
            context_aware,
            m(
                "allocator.eq2_us_per_frame",
                "us",
                us(Layer::Eq2) / frames_per_turn,
            ),
        ),
        m(
            "videocodec.rate_plan_us_per_frame",
            "us",
            us(Layer::RatePlan) / frames_per_turn,
        ),
        m(
            "videocodec.rate_probes_per_frame",
            "count",
            x.counts.probes as f64 / frames,
        ),
        m(
            "videocodec.rate_probe_us_per_frame",
            "us",
            us(Layer::RateProbe) / frames_per_turn,
        ),
        m(
            "videocodec.encode_us_per_frame",
            "us",
            us(Layer::Encode) / frames_per_turn,
        ),
        m(
            "videocodec.decode_us_per_frame",
            "us",
            us(Layer::Decode) / frames_per_turn,
        ),
        m(
            "videocodec.bytes_per_frame",
            "bytes",
            x.counts.bytes as f64 / frames,
        ),
        m("mllm.respond_us_per_turn", "us", us(Layer::Respond)),
        m(
            "mllm.frames_ingested_per_turn",
            "count",
            x.ingested as f64 / traced,
        ),
        m(
            "rtc.packets_sent_per_turn",
            "count",
            counters.packets_sent as f64 / session_turns,
        ),
        m(
            "rtc.retransmit_frac",
            "ratio",
            counters.retransmissions_sent as f64 / counters.packets_sent.max(1) as f64,
        ),
        m(
            "rtc.nacks_suppressed_per_turn",
            "count",
            counters.nacks_suppressed as f64 / session_turns,
        ),
        m(
            "rtc.fec_recovered_frames_per_turn",
            "count",
            counters.fec_recovered_frames as f64 / session_turns,
        ),
        m("rtc.packetize_us_per_turn", "us", us(Layer::Packetize)),
        m("rtc.fec_us_per_turn", "us", us(Layer::Fec)),
        m("rtc.pacer_us_per_turn", "us", us(Layer::Pacer)),
        m("rtc.nack_us_per_turn", "us", us(Layer::Nack)),
        m("rtc.gcc_us_per_turn", "us", us(Layer::Gcc)),
        m("netsim.link_send_us_per_turn", "us", us(Layer::LinkSend)),
        m(
            "netsim.delivered_frac",
            "ratio",
            link.delivered as f64 / link.offered.max(1) as f64,
        ),
        m(
            "netsim.dropped_queue_per_turn",
            "count",
            link.dropped_queue as f64 / session_turns,
        ),
        m(
            "netsim.outage_drops_per_turn",
            "count",
            link.outage_drops as f64 / session_turns,
        ),
        m("sim.events_per_turn", "count", x.counts.events as f64 / turns),
        m("sim.event_us_per_turn", "us", us(Layer::SimEvent)),
        only(
            x.scaling.is_some(),
            m("par.scaling_efficiency", "ratio", x.scaling.unwrap_or(0.0)),
        ),
        m("core.turn_self_us", "us", median(&mut self_us)),
        m("core.setup_clip_model_ms", "ms", x.clip_model_ms),
        m(
            "core.setup_clip_share",
            "ratio",
            sessions * x.clip_model_ms / (x.setup_s * 1e3),
        ),
        m("core.allocs_per_turn", "count", x.allocs as f64 / traced),
        m(
            "core.heap_growth_bytes_per_turn",
            "bytes",
            x.growth as f64 / traced,
        ),
        m("trace.coverage", "ratio", layer_ns / replay_ns.max(1.0)),
        m(
            "trace.overhead_frac",
            "ratio",
            median(&mut replayed) / median(&mut real).max(1.0) - 1.0,
        ),
        m("trace.span_ns", "ns", x.span_ns),
    ]
}
