//! The repository's benchmark: end-to-end and per-layer metrics of the conversation
//! layer on three seeded workloads. See `README.md` in this directory for the workloads,
//! the metrics, the predictions they are checked against and how the bounds were set.
//!
//! [`run_workload`] with `trace = false` runs the untraced timed run and returns the
//! end-to-end metrics; with `trace = true` it runs the traced run and returns the
//! per-layer metrics. Either way it checks the program's outputs.

pub mod alloc;
pub mod e2e;
pub mod host;
pub mod replay;
pub mod span;
pub mod stats;
pub mod traced;
pub mod workload;

use std::path::Path;
use workload::{Scale, Workload};

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name, as in `BENCHMARK.json`.
    pub name: &'static str,
    /// Unit, as in `BENCHMARK.json`.
    pub unit: &'static str,
    /// Value as measured.
    pub value: f64,
    /// False where the metric does not apply to the workload; the value is then the
    /// measured cost of the skipped step (or 0 for ratios) and is printed as n/a.
    pub applicable: bool,
    /// True for metrics the result line carries; false for printed-only context.
    pub gated: bool,
}

/// The result of one run of one workload.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// Operations (session-turns) attempted.
    pub attempted: u64,
    /// Operations failed.
    pub failed: u64,
    /// Output-check failures; empty when the outputs are correct.
    pub problems: Vec<String>,
    /// Metrics, gated ones first, in `BENCHMARK.json` order.
    pub metrics: Vec<Metric>,
    /// Free-form context lines (sample counts, digests).
    pub notes: Vec<String>,
}

/// Runs `workload` at `seed` for about `seconds`, traced or not, sized by `scale` on
/// `lanes` pool lanes. Traced runs write their spans to `spans_path`.
pub fn run_workload(
    workload: Workload,
    scale: Scale,
    seed: u64,
    seconds: f64,
    trace: bool,
    lanes: usize,
    spans_path: &Path,
) -> Outcome {
    if trace {
        let r = traced::run(workload, scale, seed, seconds, lanes, spans_path);
        Outcome {
            attempted: r.attempted,
            failed: r.failed,
            problems: r.problems,
            metrics: r.metrics,
            notes: vec![format!("spans: {}", spans_path.display())],
        }
    } else {
        let r = e2e::run(workload, scale, seed, seconds, lanes);
        let mut setup = r.setup_s.clone();
        let metric = |name, unit, value, gated| Metric {
            name,
            unit,
            value,
            applicable: true,
            gated,
        };
        let metrics = vec![
            metric("turn_wall_ms_p50", "ms", r.turn_wall_ms_p50(), true),
            metric("turn_wall_ms_p90", "ms", r.turn_wall_ms_p90(), true),
            metric("session_turns_per_s", "1/s", r.session_turns_per_s(), true),
            metric("setup_s", "s", stats::median(&mut setup), true),
            metric("peak_heap_mib", "MiB", r.peak_heap_mib, true),
            metric("answer_accuracy", "ratio", r.answer_accuracy, true),
            metric("frame_latency_ms_p95", "ms", r.frame_latency_ms_p95, true),
            metric("uplink_kbps", "kbps", r.uplink_kbps, true),
            metric("deadline_met_frac", "ratio", 1.0 - r.deadline_miss_frac(), true),
            metric("turn_wall_ms_p99", "ms", r.turn_wall_ms_p99(), false),
            metric("answer_correct_frac", "ratio", r.answer_correct_frac, false),
            metric("deadline_miss_frac", "ratio", r.deadline_miss_frac(), false),
        ];
        Outcome {
            attempted: r.attempted,
            failed: r.failed,
            problems: r.problems,
            metrics,
            notes: vec![
                format!(
                    "timed turns: {} ({} per turn), set-up repetitions: {}",
                    r.turn_wall_ms.len(),
                    if workload.is_fleet() {
                        "one round of every session"
                    } else {
                        "one session"
                    },
                    r.setup_s.len()
                ),
                format!("golden digest: {}", r.golden_digest),
            ],
        }
    }
}

impl Outcome {
    /// True when every output check passed and every gated value is a finite number.
    pub fn correct(&self) -> bool {
        self.problems.is_empty() && self.metrics.iter().all(|m| m.value.is_finite())
    }

    /// The result line: one JSON object with `correct`, `attempted`, `failed` and the
    /// gated metrics.
    pub fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .filter(|m| m.gated)
            .map(|m| {
                let value = if m.value.is_finite() { m.value } else { 0.0 };
                format!(
                    "\"{}\": {{\"value\": {value:?}, \"unit\": \"{}\"}}",
                    m.name, m.unit
                )
            })
            .collect();
        let correct = self.correct();
        format!(
            "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.attempted,
            if correct { self.failed } else { self.attempted },
            metrics.join(", ")
        )
    }
}
