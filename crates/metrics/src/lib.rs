//! Always-on serving metrics: relaxed atomic counters, snapshots off the hot path.
//!
//! The fleet-observability layer follows the ZeroTier `Metrics.hpp` discipline: every
//! counter is an [`AtomicU64`] bumped with `Ordering::Relaxed` at the event site, so the
//! hot path pays one uncontended RMW per event — no locks, no branches on a "metrics
//! enabled" flag, no allocation, ever. Aggregation happens only when an operator asks
//! for a [`SessionSnapshot`]: snapshots read each counter once (again relaxed) and sum
//! plain `u64`s, entirely off the per-packet path.
//!
//! Relaxed ordering is sufficient because counters are *statistics*, not
//! synchronization: each counter is monotone, torn reads are impossible on `u64`
//! atomics, and nothing sequences on their values. Cross-counter skew (a snapshot taken
//! mid-turn may see `packets_sent` ahead of `packets_lost`) is acceptable by contract —
//! exact reconciliation is defined only at turn boundaries, where the committing thread
//! is the same thread that ran the turn, so even relaxed counters read back exactly.
//!
//! Two counter families live side by side in [`SessionCounters`]:
//!
//! * **turn-committed** counters are added in one batch when a turn concludes, from the
//!   same numbers the turn's `NetTurnReport` carries — these reconcile *exactly*
//!   against per-session report sums, at any pool size;
//! * **live** counters tick at the event site (packet sends, late-sequence drops, pacer
//!   clamps) and intentionally include work that never reaches a report (think-gap
//!   stragglers, drain-window sends) — they are diagnostics, not report mirrors.

use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};

/// One monotone event counter. `inc`/`add` are wait-free relaxed RMWs; `get` is a
/// relaxed load. Cheap enough to leave on unconditionally.
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// A counter at zero.
    pub const fn new() -> Self {
        Self(AtomicU64::new(0))
    }

    /// Adds one.
    #[inline]
    pub fn inc(&self) {
        self.0.fetch_add(1, Ordering::Relaxed);
    }

    /// Adds `n` (a no-op when `n == 0`, without branching).
    #[inline]
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    #[inline]
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

impl Clone for Counter {
    fn clone(&self) -> Self {
        Self(AtomicU64::new(self.get()))
    }
}

/// Per-session always-on counters. One instance lives behind an `Arc` owned by the
/// session (shared with its transport), so counters survive transport rebuilds and
/// snapshots never touch session internals.
#[derive(Debug, Default, Clone)]
pub struct SessionCounters {
    // -- turn-committed (reconcile exactly against NetTurnReport sums) --
    /// Frames captured and sent uplink.
    pub frames_sent: Counter,
    /// Frames fully delivered (all packets arrived or were recovered).
    pub frames_delivered: Counter,
    /// Frames reconstructed from FEC parity.
    pub fec_recovered_frames: Counter,
    /// Uplink packets lost in flight.
    pub packets_lost: Counter,
    /// Retransmissions sent in response to NACKs.
    pub retransmissions_sent: Counter,
    /// NACKs suppressed by the answer-deadline gate.
    pub nacks_suppressed: Counter,
    /// Frames shed by the degradation ladder.
    pub frames_shed: Counter,
    /// Captures suppressed during outage conservation.
    pub captures_suppressed: Counter,
    /// Turns whose answer missed the deadline (zero frames decoded in the window).
    pub deadline_missed: Counter,
    /// GCC watchdog fallback activations.
    pub watchdog_fallbacks: Counter,
    // -- live (event-site; includes think-gap/drain work no report ever sees) --
    /// Media + parity + RTX packets handed to the uplink.
    pub packets_sent: Counter,
    /// Below-retirement-bound sequence numbers dropped by ring/bitset stores.
    pub late_seq_drops: Counter,
    /// Pacer rate updates clamped up to the documented floor.
    pub pacer_rate_clamps: Counter,
    /// Captures the encoder rate-searched (one search per encoded capture).
    pub rate_searches: Counter,
    /// Coded-size probes those searches ran.
    pub rate_probes: Counter,
    /// Patches the context-aware captures' Eq. 1 maps looked up in the patch memo.
    pub clip_patch_lookups: Counter,
    /// Patches of those lookups the Eq. 1 kernel evaluated (memo misses).
    pub clip_patch_evals: Counter,
}

impl SessionCounters {
    /// A fresh set of counters, all zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// Reads every counter once (relaxed) into a plain-value snapshot.
    pub fn snapshot(&self) -> SessionSnapshot {
        SessionSnapshot {
            frames_sent: self.frames_sent.get(),
            frames_delivered: self.frames_delivered.get(),
            fec_recovered_frames: self.fec_recovered_frames.get(),
            packets_lost: self.packets_lost.get(),
            retransmissions_sent: self.retransmissions_sent.get(),
            nacks_suppressed: self.nacks_suppressed.get(),
            frames_shed: self.frames_shed.get(),
            captures_suppressed: self.captures_suppressed.get(),
            deadline_missed: self.deadline_missed.get(),
            watchdog_fallbacks: self.watchdog_fallbacks.get(),
            packets_sent: self.packets_sent.get(),
            late_seq_drops: self.late_seq_drops.get(),
            pacer_rate_clamps: self.pacer_rate_clamps.get(),
            rate_searches: self.rate_searches.get(),
            rate_probes: self.rate_probes.get(),
            clip_patch_lookups: self.clip_patch_lookups.get(),
            clip_patch_evals: self.clip_patch_evals.get(),
        }
    }
}

/// A point-in-time, plain-`u64` reading of a [`SessionCounters`] (or, summed, of a whole
/// fleet). Snapshots are value types: compare, diff, and sum them freely.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SessionSnapshot {
    /// See [`SessionCounters::frames_sent`].
    pub frames_sent: u64,
    /// See [`SessionCounters::frames_delivered`].
    pub frames_delivered: u64,
    /// See [`SessionCounters::fec_recovered_frames`].
    pub fec_recovered_frames: u64,
    /// See [`SessionCounters::packets_lost`].
    pub packets_lost: u64,
    /// See [`SessionCounters::retransmissions_sent`].
    pub retransmissions_sent: u64,
    /// See [`SessionCounters::nacks_suppressed`].
    pub nacks_suppressed: u64,
    /// See [`SessionCounters::frames_shed`].
    pub frames_shed: u64,
    /// See [`SessionCounters::captures_suppressed`].
    pub captures_suppressed: u64,
    /// See [`SessionCounters::deadline_missed`].
    pub deadline_missed: u64,
    /// See [`SessionCounters::watchdog_fallbacks`].
    pub watchdog_fallbacks: u64,
    /// See [`SessionCounters::packets_sent`].
    pub packets_sent: u64,
    /// See [`SessionCounters::late_seq_drops`].
    pub late_seq_drops: u64,
    /// See [`SessionCounters::pacer_rate_clamps`].
    pub pacer_rate_clamps: u64,
    /// See [`SessionCounters::rate_searches`].
    pub rate_searches: u64,
    /// See [`SessionCounters::rate_probes`].
    pub rate_probes: u64,
    /// See [`SessionCounters::clip_patch_lookups`].
    pub clip_patch_lookups: u64,
    /// See [`SessionCounters::clip_patch_evals`].
    pub clip_patch_evals: u64,
}

impl SessionSnapshot {
    /// Adds `other` into `self`, field by field — the fleet rollup primitive.
    pub fn accumulate(&mut self, other: &SessionSnapshot) {
        self.frames_sent += other.frames_sent;
        self.frames_delivered += other.frames_delivered;
        self.fec_recovered_frames += other.fec_recovered_frames;
        self.packets_lost += other.packets_lost;
        self.retransmissions_sent += other.retransmissions_sent;
        self.nacks_suppressed += other.nacks_suppressed;
        self.frames_shed += other.frames_shed;
        self.captures_suppressed += other.captures_suppressed;
        self.deadline_missed += other.deadline_missed;
        self.watchdog_fallbacks += other.watchdog_fallbacks;
        self.packets_sent += other.packets_sent;
        self.late_seq_drops += other.late_seq_drops;
        self.pacer_rate_clamps += other.pacer_rate_clamps;
        self.rate_searches += other.rate_searches;
        self.rate_probes += other.rate_probes;
        self.clip_patch_lookups += other.clip_patch_lookups;
        self.clip_patch_evals += other.clip_patch_evals;
    }
}

impl fmt::Display for SessionSnapshot {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "frames {}/{} | pkts {} sent, {} lost, {} rtx | fec {} | shed {} | \
             suppressed {} nacks, {} captures | missed {} deadlines | {} fallbacks | \
             {} late drops | {} pacer clamps | {} rate probes over {} searches | \
             {} of {} patch lookups evaluated",
            self.frames_delivered,
            self.frames_sent,
            self.packets_sent,
            self.packets_lost,
            self.retransmissions_sent,
            self.fec_recovered_frames,
            self.frames_shed,
            self.nacks_suppressed,
            self.captures_suppressed,
            self.deadline_missed,
            self.watchdog_fallbacks,
            self.late_seq_drops,
            self.pacer_rate_clamps,
            self.rate_probes,
            self.rate_searches,
            self.clip_patch_evals,
            self.clip_patch_lookups,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn counters_are_monotone_and_snapshot_exactly() {
        let c = SessionCounters::new();
        c.frames_sent.add(4);
        c.frames_sent.inc();
        c.packets_lost.add(0);
        c.late_seq_drops.inc();
        let snap = c.snapshot();
        assert_eq!(snap.frames_sent, 5);
        assert_eq!(snap.packets_lost, 0);
        assert_eq!(snap.late_seq_drops, 1);
    }

    #[test]
    fn snapshots_accumulate_field_by_field() {
        let a = SessionCounters::new();
        a.frames_sent.add(3);
        a.deadline_missed.inc();
        let b = SessionCounters::new();
        b.frames_sent.add(7);
        b.pacer_rate_clamps.add(2);
        a.clip_patch_lookups.add(510);
        a.clip_patch_evals.add(43);
        b.clip_patch_lookups.add(90);
        b.clip_patch_evals.add(12);
        let mut total = a.snapshot();
        total.accumulate(&b.snapshot());
        assert_eq!(total.frames_sent, 10);
        assert_eq!(total.deadline_missed, 1);
        assert_eq!(total.pacer_rate_clamps, 2);
        assert_eq!(total.clip_patch_lookups, 600);
        assert_eq!(total.clip_patch_evals, 55);
    }

    #[test]
    fn shared_handles_observe_the_same_counters() {
        let owner = Arc::new(SessionCounters::new());
        let transport_handle = Arc::clone(&owner);
        transport_handle.packets_sent.add(11);
        assert_eq!(owner.snapshot().packets_sent, 11);
    }

    #[test]
    fn counters_update_concurrently_without_losing_increments() {
        let shared = Arc::new(SessionCounters::new());
        let threads: Vec<_> = (0..4)
            .map(|_| {
                let c = Arc::clone(&shared);
                std::thread::spawn(move || {
                    for _ in 0..10_000 {
                        c.packets_sent.inc();
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        assert_eq!(shared.snapshot().packets_sent, 40_000);
    }

    #[test]
    fn snapshot_display_is_one_line() {
        let c = SessionCounters::new();
        c.frames_sent.add(8);
        c.frames_delivered.add(8);
        c.clip_patch_lookups.add(123);
        c.clip_patch_evals.add(17);
        let line = c.snapshot().to_string();
        assert!(line.contains("frames 8/8"), "{line}");
        assert!(line.contains("17 of 123 patch lookups evaluated"), "{line}");
        assert!(!line.contains('\n'));
    }
}
