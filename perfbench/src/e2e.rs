//! The untraced, timed run that yields the end-to-end metrics.
//!
//! One process, closed loop: one client (the fleet: 64 clients in lock-step) issues its
//! next turn only after the previous report is in hand. Phases, in order:
//!
//! 1. input generation — the seeded script (not timed);
//! 2. the golden check — a short fixed run at the default seed whose report digest must
//!    equal `digests.json` (not timed);
//! 3. set-up, repeated `setup_reps` times — construction plus warm-up turns, each
//!    repetition timed; `setup_s` is the median and the last instance is kept;
//! 4. the timed phase — turns back to back until `seconds` have passed;
//! 5. the output checks — counters against report sums, plus the golden digest.

use crate::alloc;
use crate::host::{check_outputs, golden_digest, Host, Tally};
use crate::stats::{median, percentile};
use crate::workload::{script, Scale, Workload, DEFAULT_SEED};
use std::time::{Duration, Instant};

/// Timed turns (fleet: rounds) after which the heap high-water mark is read, so that
/// `peak_heap_mib` does not depend on how many turns fit in the run.
const HEAP_TURNS: usize = 1024;
const HEAP_ROUNDS: usize = 8;
/// Per-turn records reserved up front, so the benchmark's own bookkeeping does not
/// allocate during the timed phase.
const RESERVED_TURNS: usize = 1 << 16;
/// A fleet's timed phase is cut into this many consecutive blocks of equal round count;
/// its tail and throughput are medians over blocks, so one block slowed by the host (the
/// cores are shared with other tenants) cannot move them.
pub const BLOCKS: usize = 5;

/// Everything the timed run measured and checked.
#[derive(Debug, Clone)]
pub struct E2eResult {
    /// Session-turns issued in the timed phase.
    pub attempted: u64,
    /// Session-turns that failed: no frame decoded by the deadline, or every turn when
    /// an output check failed.
    pub failed: u64,
    /// Output-check failures; empty when the run is correct.
    pub problems: Vec<String>,
    /// Wall time of each timed turn (fleet: round), in ms.
    pub turn_wall_ms: Vec<f64>,
    /// Session-turns each timed turn completes (fleet: every session).
    pub sessions_per_turn: usize,
    /// Turns in one script cycle, for a single conversation; `None` for the fleet. A
    /// single conversation's typical turn and throughput are taken per cycle, and every
    /// cycle serves the same content mix.
    pub cycle_turns: Option<usize>,
    /// Each set-up repetition, in seconds.
    pub setup_s: Vec<f64>,
    /// Heap high-water mark held by the program (set-up through the first timed turns).
    pub peak_heap_mib: f64,
    /// Expected share of timed session-turns answered correctly: the mean of the answer
    /// model's probability of a correct answer.
    pub answer_accuracy: f64,
    /// Realized share of timed session-turns answered correctly. For one conversation it
    /// moves in steps of 1/7 between seeds: the correctness draw is fixed by the
    /// session's context tag and the question, and the scene has seven questions.
    pub answer_correct_frac: f64,
    /// Mean over timed session-turns that delivered a frame of each turn's p95 frame
    /// latency, in ms. (The median repeats exactly between seeds: per-turn latencies sit
    /// on the simulator's microsecond grid.)
    pub frame_latency_ms_p95: f64,
    /// Mean achieved media bitrate over timed session-turns, in kbps.
    pub uplink_kbps: f64,
    /// Digest of the golden phase this run computed.
    pub golden_digest: String,
}

impl E2eResult {
    /// Failed session-turns over attempted ones.
    pub fn deadline_miss_frac(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }
}

/// Runs `workload` at `seed`, sized by `scale`, for `seconds` of timed turns with
/// `lanes` pool lanes.
pub fn run(workload: Workload, scale: Scale, seed: u64, seconds: f64, lanes: usize) -> E2eResult {
    let turns = script(seed);
    let golden = golden_digest(workload, DEFAULT_SEED, lanes);

    let per_round = scale.sessions;
    let mut walls: Vec<f64> = Vec::with_capacity(RESERVED_TURNS);

    // Set-up, repeated; each repetition drops the previous instance before building.
    let mut setup_s = Vec::with_capacity(scale.setup_reps);
    let mut host = None;
    let mut tally = Tally::default();
    let mut heap_base = 0;
    for rep in 0..scale.setup_reps {
        drop(host.take());
        tally = Tally::default();
        if rep + 1 == scale.setup_reps {
            heap_base = alloc::stats().live_bytes;
            alloc::reset_peak();
        }
        let start = Instant::now();
        let mut h = Host::build(workload, seed, scale.sessions, lanes);
        for turn in turns.iter().cycle().take(scale.warmup_turns) {
            h.run(turn, |r| tally.add(r));
        }
        setup_s.push(start.elapsed().as_secs_f64());
        host = Some(h);
    }
    let mut host = host.expect("at least one set-up repetition");

    // Timed phase.
    let heap_turns = if workload.is_fleet() {
        HEAP_ROUNDS
    } else {
        HEAP_TURNS
    };
    let mut peak_bytes = None;
    let (mut correct, mut p_correct, mut bitrate_sum, mut session_turns) = (0u64, 0.0f64, 0.0f64, 0u64);
    let (mut latency_sum, mut latency_turns, mut first_failures) = (0.0f64, 0u64, 0u64);
    let budget = Duration::from_secs_f64(seconds);
    let timed_start = Instant::now();
    for turn in turns.iter().cycle().skip(scale.warmup_turns) {
        let start = Instant::now();
        host.run(turn, |r| {
            tally.add(r);
            session_turns += 1;
            correct += u64::from(r.answer.correct);
            p_correct += r.answer.probability_correct;
            bitrate_sum += r.achieved_bitrate_bps;
            first_failures += u64::from(r.frames_decoded == 0);
            if r.frames_delivered > 0 {
                latency_sum += r.p95_frame_latency_ms;
                latency_turns += 1;
            }
        });
        walls.push(start.elapsed().as_secs_f64() * 1e3);
        if walls.len() == heap_turns {
            peak_bytes = Some(alloc::stats().peak_bytes);
        }
        if timed_start.elapsed() >= budget {
            break;
        }
    }
    let peak_bytes = peak_bytes.unwrap_or_else(|| alloc::stats().peak_bytes);

    // Output checks.
    let mut problems = check_outputs(workload, &host, &tally, &golden);
    let accuracy = p_correct / session_turns.max(1) as f64;
    let uplink_kbps = bitrate_sum / session_turns.max(1) as f64 / 1e3;
    let frame_latency = latency_sum / latency_turns.max(1) as f64;
    for (name, value) in [
        ("answer_accuracy", accuracy),
        ("uplink_kbps", uplink_kbps),
        ("frame_latency_ms_p95", frame_latency),
    ] {
        if !value.is_finite() || value <= 0.0 {
            problems.push(format!("{name} = {value} is not a positive number"));
        }
    }
    let failed = if problems.is_empty() {
        first_failures
    } else {
        session_turns
    };
    E2eResult {
        attempted: session_turns,
        failed,
        problems,
        sessions_per_turn: per_round,
        cycle_turns: (!workload.is_fleet()).then_some(turns.len()),
        turn_wall_ms: walls,
        setup_s,
        peak_heap_mib: peak_bytes.saturating_sub(heap_base) as f64 / (1024.0 * 1024.0),
        answer_accuracy: accuracy,
        answer_correct_frac: correct as f64 / session_turns.max(1) as f64,
        frame_latency_ms_p95: frame_latency,
        uplink_kbps,
        golden_digest: golden,
    }
}

impl E2eResult {
    /// The typical turn, in ms. For a single conversation: the median turn wall of the
    /// run's fastest script cycle. Its ~3 ms turns run on one core, which the host slows
    /// by up to ~1.5× for seconds at a time; the fastest cycle is the one it slowed least.
    /// For the fleet: the median round wall over the timed phase.
    pub fn turn_wall_ms_p50(&self) -> f64 {
        match self.cycle_turns {
            Some(n) => self
                .cycles(n)
                .map(|cycle| percentile(&mut cycle.to_vec(), 0.50))
                .fold(f64::INFINITY, f64::min),
            None => percentile(&mut self.turn_wall_ms.clone(), 0.50),
        }
    }

    /// The tail, in ms. For a single conversation: the p90 turn wall over the timed
    /// phase, host slow-downs included. For the fleet: the median over [`BLOCKS`] blocks
    /// of each block's p90 round wall.
    pub fn turn_wall_ms_p90(&self) -> f64 {
        if self.cycle_turns.is_some() {
            return percentile(&mut self.turn_wall_ms.clone(), 0.90);
        }
        let mut p90s: Vec<f64> = self
            .blocks()
            .map(|block| percentile(&mut block.to_vec(), 0.90))
            .collect();
        median(&mut p90s)
    }

    /// p99 turn wall over the timed phase, in ms (printed, not gated: it does not repeat).
    pub fn turn_wall_ms_p99(&self) -> f64 {
        percentile(&mut self.turn_wall_ms.clone(), 0.99)
    }

    /// Session-turns per second of turn wall. For a single conversation: the fastest
    /// script cycle's (see [`Self::turn_wall_ms_p50`]). For the fleet: the median over
    /// [`BLOCKS`] blocks.
    pub fn session_turns_per_s(&self) -> f64 {
        let rate =
            |block: &[f64]| (block.len() * self.sessions_per_turn) as f64 / (block.iter().sum::<f64>() / 1e3);
        match self.cycle_turns {
            Some(n) => self.cycles(n).map(rate).fold(0.0, f64::max),
            None => {
                let mut rates: Vec<f64> = self.blocks().map(rate).collect();
                median(&mut rates)
            }
        }
    }

    /// The timed phase's complete cycles of `n` turns; the whole phase if it holds none.
    fn cycles(&self, n: usize) -> std::slice::ChunksExact<'_, f64> {
        self.turn_wall_ms
            .chunks_exact(n.min(self.turn_wall_ms.len()).max(1))
    }

    fn blocks(&self) -> std::slice::Chunks<'_, f64> {
        self.turn_wall_ms
            .chunks(self.turn_wall_ms.len().div_ceil(BLOCKS).max(1))
    }
}
