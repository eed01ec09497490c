//! The program under test as the benchmark drives it, and the checks on its outputs.
//!
//! A [`Host`] is either one [`Conversation`] or one [`ConversationChatServer`]; turns go
//! through their public entry points only (`Conversation::run_turn`,
//! `ConversationChatServer::run_turns`). [`Tally`] sums the per-turn reports so the
//! always-on counters can be reconciled against them, and [`golden_digest`] hashes every
//! serialized report of a short fixed run for comparison with `digests.json`.

use crate::workload::{script, Turn, Workload, DEFAULT_SEED, THINK_GAP};
use aivc_metrics::SessionSnapshot;
use aivc_netsim::LinkCounters;
use aivc_par::MiniPool;
use aivchat_core::{Conversation, ConversationChatServer, NetTurnReport};

/// The golden-phase digests recorded at [`crate::workload::DEFAULT_SEED`].
const DIGESTS_JSON: &str = include_str!("../digests.json");

/// One running instance of a workload.
#[derive(Debug)]
pub enum Host {
    /// A single conversation.
    Conv(Box<Conversation>),
    /// A lane-sharded fleet.
    Fleet(ConversationChatServer),
}

impl Host {
    /// Builds the workload's program state for `seed`: a conversation, or a server of
    /// `sessions` conversations on `lanes` lanes. This is the set-up the benchmark times.
    pub fn build(workload: Workload, seed: u64, sessions: usize, lanes: usize) -> Self {
        let options = workload.options(seed);
        if workload.is_fleet() {
            Host::Fleet(ConversationChatServer::new(lanes, sessions, options, THINK_GAP))
        } else {
            Host::Conv(Box::new(Conversation::with_defaults(options, THINK_GAP)))
        }
    }

    /// Builds a fleet from explicit conversations on a pool of `lanes` lanes.
    pub fn fleet_of(sessions: Vec<Conversation>, lanes: usize) -> Self {
        Host::Fleet(ConversationChatServer::with_sessions(
            MiniPool::new(lanes),
            sessions,
        ))
    }

    /// Runs one turn (fleet: one round, a turn on every session) and hands each report
    /// to `sink` in session order.
    pub fn run(&mut self, turn: &Turn, mut sink: impl FnMut(&NetTurnReport)) {
        match self {
            Host::Conv(conv) => sink(&conv.run_turn(&turn.frames, &turn.question)),
            Host::Fleet(server) => {
                server.run_turns(&turn.frames, &turn.question);
                server.reports().for_each(sink);
            }
        }
    }

    /// The always-on counters, summed over every session.
    pub fn counters(&self) -> SessionSnapshot {
        match self {
            Host::Conv(conv) => conv.metrics_snapshot(),
            Host::Fleet(server) => server.fleet_metrics(),
        }
    }

    /// NACKs suppressed according to the conversation reports, summed over sessions.
    pub fn reported_nacks_suppressed(&self) -> u64 {
        match self {
            Host::Conv(conv) => conv.report().nacks_suppressed,
            Host::Fleet(server) => (0..server.session_count())
                .map(|i| server.conversation_report(i).nacks_suppressed)
                .sum(),
        }
    }

    /// Conversations served.
    pub fn sessions(&self) -> usize {
        match self {
            Host::Conv(_) => 1,
            Host::Fleet(server) => server.session_count(),
        }
    }

    /// The uplink counters, summed over every session.
    pub fn link_counters(&self) -> LinkCounters {
        match self {
            Host::Conv(conv) => conv.link_counters(),
            Host::Fleet(server) => server.serving_report().uplink,
        }
    }

    /// The latest report of session 0.
    pub fn first_report(&self) -> Option<&NetTurnReport> {
        match self {
            Host::Conv(conv) => conv.turns().last(),
            Host::Fleet(server) => (server.session_count() > 0).then(|| server.report(0)),
        }
    }
}

/// Sums over per-turn reports of the counters the program also keeps always on.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Tally {
    /// Session-turns summed.
    pub turns: u64,
    /// Σ `frames_sent`.
    pub frames_sent: u64,
    /// Σ `frames_delivered`.
    pub frames_delivered: u64,
    /// Σ `fec_recovered_frames`.
    pub fec_recovered_frames: u64,
    /// Σ `packets_lost`.
    pub packets_lost: u64,
    /// Σ `retransmissions_sent`.
    pub retransmissions_sent: u64,
    /// Σ `resilience.frames_shed`.
    pub frames_shed: u64,
    /// Σ `resilience.captures_suppressed`.
    pub captures_suppressed: u64,
    /// Σ `resilience.watchdog_fallbacks`.
    pub watchdog_fallbacks: u64,
    /// Turns that decoded no frame by the answer deadline.
    pub deadline_missed: u64,
}

impl Tally {
    /// Adds one report.
    pub fn add(&mut self, r: &NetTurnReport) {
        self.turns += 1;
        self.frames_sent += r.frames_sent as u64;
        self.frames_delivered += r.frames_delivered as u64;
        self.fec_recovered_frames += r.fec_recovered_frames;
        self.packets_lost += r.packets_lost;
        self.retransmissions_sent += r.retransmissions_sent;
        self.frames_shed += r.resilience.frames_shed;
        self.captures_suppressed += r.resilience.captures_suppressed;
        self.watchdog_fallbacks += r.resilience.watchdog_fallbacks;
        self.deadline_missed += u64::from(r.frames_decoded == 0);
    }

    /// The turn-committed counters that disagree with these sums, as messages.
    pub fn reconcile(&self, counters: &SessionSnapshot, reported_nacks_suppressed: u64) -> Vec<String> {
        let pairs = [
            ("frames_sent", counters.frames_sent, self.frames_sent),
            (
                "frames_delivered",
                counters.frames_delivered,
                self.frames_delivered,
            ),
            (
                "fec_recovered_frames",
                counters.fec_recovered_frames,
                self.fec_recovered_frames,
            ),
            ("packets_lost", counters.packets_lost, self.packets_lost),
            (
                "retransmissions_sent",
                counters.retransmissions_sent,
                self.retransmissions_sent,
            ),
            ("frames_shed", counters.frames_shed, self.frames_shed),
            (
                "captures_suppressed",
                counters.captures_suppressed,
                self.captures_suppressed,
            ),
            (
                "watchdog_fallbacks",
                counters.watchdog_fallbacks,
                self.watchdog_fallbacks,
            ),
            ("deadline_missed", counters.deadline_missed, self.deadline_missed),
            (
                "nacks_suppressed",
                counters.nacks_suppressed,
                reported_nacks_suppressed,
            ),
        ];
        pairs
            .into_iter()
            .filter(|(_, counted, summed)| counted != summed)
            .map(|(name, counted, summed)| {
                format!("counter {name} = {counted} but the reports sum to {summed}")
            })
            .collect()
    }
}

/// FNV-1a over every report's serialized JSON, one line per report, as 16 hex digits.
#[derive(Debug, Clone, Copy)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xCBF2_9CE4_8422_2325)
    }
}

impl Digest {
    /// Folds one report into the digest.
    pub fn add(&mut self, report: &NetTurnReport) {
        let line = serde_json::to_string(report).expect("a turn report always serializes");
        for byte in line.bytes().chain(std::iter::once(b'\n')) {
            self.0 = (self.0 ^ u64::from(byte)).wrapping_mul(0x0100_0000_01B3);
        }
    }

    /// The digest as 16 lower-case hex digits.
    pub fn hex(&self) -> String {
        format!("{:016x}", self.0)
    }
}

/// Digest of every report of the workload's golden phase at `seed`: a fresh instance of
/// [`Workload::golden_size`] conversations and turns of the script for `seed` (fleets on
/// `lanes` lanes; the reports do not depend on the lane count).
pub fn golden_digest(workload: Workload, seed: u64, lanes: usize) -> String {
    let (sessions, rounds) = workload.golden_size();
    let turns = script(seed);
    let mut host = Host::build(workload, seed, sessions, lanes);
    let mut digest = Digest::default();
    for turn in turns.iter().cycle().take(rounds) {
        host.run(turn, |r| digest.add(r));
    }
    digest.hex()
}

/// The output checks of a run: the always-on counters of `host` against `tally` (the
/// sums of every report the instance produced), and the golden-phase digest `golden`
/// against the one recorded for `workload`. Returns one message per failed check.
pub fn check_outputs(workload: Workload, host: &Host, tally: &Tally, golden: &str) -> Vec<String> {
    let mut problems = tally.reconcile(&host.counters(), host.reported_nacks_suppressed());
    match recorded_digest(workload) {
        Some(expected) if expected == golden => {}
        Some(expected) => problems.push(format!(
            "golden digest {golden} differs from the recorded {expected} (seed {DEFAULT_SEED})"
        )),
        None => problems.push(format!("no golden digest recorded for {}", workload.name())),
    }
    problems
}

/// The digest recorded for `workload` in `digests.json`.
pub fn recorded_digest(workload: Workload) -> Option<String> {
    let value: serde::Value = serde_json::from_str(DIGESTS_JSON).ok()?;
    match value.field(workload.name()).ok()? {
        serde::Value::Str(hex) => Some(hex.clone()),
        _ => None,
    }
}
