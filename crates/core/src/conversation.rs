//! Continuous multi-turn conversations: [`Conversation`], the one member type every
//! turn driver runs.
//!
//! The paper's §2.2 loop is conversational — an MLLM chat is a *sequence* of turns over
//! one long-lived connection. A [`Conversation`] keeps **one timeline**: the `aivc-sim`
//! kernel's clock and event queue, the emulated link (and therefore the trace cursor and
//! bottleneck queue), the congestion controller, pacer, packetizer sequence space, RTX
//! store and FEC/NACK machinery all persist across turns. Turn `k + 1` starts at the
//! simulated time turn `k`'s answer deadline passed, plus the user's think time, during
//! which in-flight packets keep arriving and pending retransmissions keep flowing.
//!
//! **One host.** A conversation holds the compute half, the congestion controller, the
//! transport and the turn history; every driver runs it through the same three calls
//! (`begin_turn_on`, `handle_net`, `conclude_turn_on`), naming the uplink its packets
//! ride. The lockstep drain ([`Lockstep`]: think-drain → open every member's window →
//! drain to the common horizon → conclude) runs member-tagged events on one kernel, and
//! it is the only loop the non-contention drivers use:
//!
//! * a standalone [`Conversation`] is a one-member instance of it on its own timeline;
//! * a lane shard of [`crate::ConversationChatServer`] is a many-member instance;
//! * [`crate::NetworkedChatSession`] runs it on a fresh timeline and a fresh transport
//!   every turn.
//!
//! The contention engine ([`crate::contention`]) keeps its own event-driven turn
//! schedule, because its tenants really do turn at different times; each tenant is a
//! [`Conversation`] on a shared uplink.
//!
//! What the persistent timeline buys, measurably (the [`ConversationReport`] cross-turn
//! aggregates):
//!
//! * **warm vs cold GCC convergence** — turn 0 starts from the configured initial estimate
//!   and swings its ABR target while the controller converges; later turns start from the
//!   previous turn's final estimate and hold ([`ConversationReport::cold_target_swing_bps`]
//!   vs [`ConversationReport::warm_target_swing_bps`]);
//! * **carry-over queue delay** — a turn that overshot the link leaves a standing queue
//!   the next turn inherits ([`ConversationReport::carryover_queue_delay_ms`]);
//! * **per-conversation percentiles** — p50/p95 frame latency over *every* turn's frames,
//!   the number a service-level objective would actually track.
//!
//! Memory stays bounded by the live turn: once a turn is reported, its reassembly, FEC and
//! sequence-mapping state is retired, so a conversation can run indefinitely — the
//! steady-state benchmark (`conversation_turn_warm`) runs thousands of turns on one
//! instance.

use crate::context_aware::StreamerConfig;
use crate::net_session::{FaultTelemetry, NetSessionOptions, NetTurnReport};
use crate::net_turn::{
    begin_turn_window, conclude_turn_window, MemberEvent, MemberSink, NetCompute, NetEvent, NetEventSink,
    Transport, TurnMachine, TurnPlan, TurnWindow, UplinkPort,
};
use aivc_mllm::Question;
use aivc_netsim::{LatencyStats, LinkCounters};
use aivc_rtc::cc::GccController;
use aivc_scene::Frame;
use aivc_semantics::ClipModel;
use aivc_sim::{Actor, SimDuration, SimTime, Simulation};
use serde::{Deserialize, Serialize, Value};

/// The report of a whole conversation: every turn's [`NetTurnReport`] plus the cross-turn
/// aggregates only a shared timeline can produce.
#[derive(Debug, Clone, PartialEq)]
pub struct ConversationReport {
    /// Per-turn reports, in turn order.
    pub turns: Vec<NetTurnReport>,
    /// The GCC bandwidth estimate when each turn began. Index 0 is the cold start (the
    /// configured initial estimate); entry `k + 1` equals `turns[k].final_estimate_bps` —
    /// transport state persists across turns (asserted by tests).
    pub estimate_at_turn_start_bps: Vec<f64>,
    /// Uplink queueing backlog (ms) each turn inherited from its predecessor's traffic.
    pub carryover_queue_delay_ms: Vec<f64>,
    /// Within-turn spread (max − min) of the per-frame ABR target, per turn: a cold
    /// controller swings while it converges, a warm one holds near its operating point.
    pub turn_target_swing_bps: Vec<f64>,
    /// Median frame transmission latency across every turn's delivered frames.
    pub p50_frame_latency_ms: f64,
    /// 95th-percentile frame transmission latency across every turn's delivered frames —
    /// the per-conversation tail a service-level objective tracks.
    pub p95_frame_latency_ms: f64,
    /// Mean of the per-turn goodputs.
    pub mean_goodput_bps: f64,
    /// NACK requests dropped by deadline-aware suppression over the conversation.
    pub nacks_suppressed: u64,
    /// Conversation-level fault/resilience telemetry: counters summed over every turn,
    /// `outage_ms` accumulated across turn windows, and `time_to_recover_ms` from the first
    /// turn that observed a recovery. All-zero — and omitted from serialization, keeping
    /// fault-free fixtures byte-identical — when no faults or resilience features ran.
    pub resilience: FaultTelemetry,
}

// Serialized by hand (the derive emits every field unconditionally): the `resilience`
// object only appears when it carries information, so pre-existing conversation fixtures
// are unchanged byte-for-byte.
impl Serialize for ConversationReport {
    fn to_value(&self) -> Value {
        let mut fields = vec![
            ("turns".to_string(), self.turns.to_value()),
            (
                "estimate_at_turn_start_bps".to_string(),
                self.estimate_at_turn_start_bps.to_value(),
            ),
            (
                "carryover_queue_delay_ms".to_string(),
                self.carryover_queue_delay_ms.to_value(),
            ),
            (
                "turn_target_swing_bps".to_string(),
                self.turn_target_swing_bps.to_value(),
            ),
            (
                "p50_frame_latency_ms".to_string(),
                self.p50_frame_latency_ms.to_value(),
            ),
            (
                "p95_frame_latency_ms".to_string(),
                self.p95_frame_latency_ms.to_value(),
            ),
            ("mean_goodput_bps".to_string(), self.mean_goodput_bps.to_value()),
            ("nacks_suppressed".to_string(), self.nacks_suppressed.to_value()),
        ];
        if !self.resilience.is_quiet() {
            fields.push(("resilience".to_string(), self.resilience.to_value()));
        }
        Value::Object(fields)
    }
}

impl Deserialize for ConversationReport {
    fn from_value(v: &Value) -> Result<Self, serde::Error> {
        Ok(Self {
            turns: Deserialize::from_value(v.field("turns")?)?,
            estimate_at_turn_start_bps: Deserialize::from_value(v.field("estimate_at_turn_start_bps")?)?,
            carryover_queue_delay_ms: Deserialize::from_value(v.field("carryover_queue_delay_ms")?)?,
            turn_target_swing_bps: Deserialize::from_value(v.field("turn_target_swing_bps")?)?,
            p50_frame_latency_ms: Deserialize::from_value(v.field("p50_frame_latency_ms")?)?,
            p95_frame_latency_ms: Deserialize::from_value(v.field("p95_frame_latency_ms")?)?,
            mean_goodput_bps: Deserialize::from_value(v.field("mean_goodput_bps")?)?,
            nacks_suppressed: Deserialize::from_value(v.field("nacks_suppressed")?)?,
            resilience: match v.field("resilience")? {
                Value::Null => FaultTelemetry::default(),
                present => Deserialize::from_value(present)?,
            },
        })
    }
}

impl ConversationReport {
    /// The cold turn's ABR-target swing (turn 0: the controller converging from its
    /// configured initial estimate).
    pub fn cold_target_swing_bps(&self) -> f64 {
        self.turn_target_swing_bps.first().copied().unwrap_or(0.0)
    }

    /// Mean ABR-target swing of the warm turns (every turn after the first, which start
    /// from the previous turn's final estimate).
    pub fn warm_target_swing_bps(&self) -> f64 {
        if self.turn_target_swing_bps.len() < 2 {
            return 0.0;
        }
        let warm = &self.turn_target_swing_bps[1..];
        warm.iter().sum::<f64>() / warm.len() as f64
    }

    /// Fraction of turns answered correctly.
    pub fn correct_fraction(&self) -> f64 {
        if self.turns.is_empty() {
            return 0.0;
        }
        self.turns.iter().filter(|t| t.answer.correct).count() as f64 / self.turns.len() as f64
    }
}

/// One continuous multi-turn conversation over a persistent transport timeline. See the
/// module docs; construct with [`Conversation::with_defaults`], run turns with
/// [`Conversation::run_turn`] (the configured think gap is inserted automatically between
/// turns), and read the cross-turn aggregates with [`Conversation::report`].
#[derive(Debug)]
pub struct Conversation {
    compute: NetCompute,
    pub(crate) gcc: GccController,
    transport: Transport,
    /// The conversation's own timeline. A conversation run by a server shard or a
    /// contention cell rides that driver's timeline instead; its own stays idle at zero.
    timeline: Lockstep,
    think_gap: SimDuration,
    turns: Vec<NetTurnReport>,
    estimate_at_turn_start_bps: Vec<f64>,
    carryover_queue_delay_ms: Vec<f64>,
    turn_target_swing_bps: Vec<f64>,
    frame_latencies: Vec<SimDuration>,
}

impl Conversation {
    /// Creates a conversation with explicit compute configuration. `think_gap` is the
    /// user's think time inserted before every turn after the first (in-flight packets
    /// keep arriving and pending retransmissions keep flowing during it).
    pub fn new(
        options: NetSessionOptions,
        config: StreamerConfig,
        clip_model: ClipModel,
        think_gap: SimDuration,
    ) -> Self {
        let gcc = GccController::new(options.gcc);
        let transport = Transport::new(&options, gcc.estimate_bps());
        Self {
            compute: NetCompute::new(options, config, clip_model),
            gcc,
            transport,
            timeline: Lockstep::default(),
            think_gap,
            turns: Vec::new(),
            estimate_at_turn_start_bps: Vec::new(),
            carryover_queue_delay_ms: Vec::new(),
            turn_target_swing_bps: Vec::new(),
            frame_latencies: Vec::new(),
        }
    }

    /// A conversation with the paper's compute defaults (γ = 3 allocator, medium-preset
    /// encoder, Mobile-CLIP-class model).
    pub fn with_defaults(options: NetSessionOptions, think_gap: SimDuration) -> Self {
        Self::new(
            options,
            StreamerConfig::default(),
            ClipModel::mobile_default(),
            think_gap,
        )
    }

    /// The session options.
    pub fn options(&self) -> &NetSessionOptions {
        &self.compute.options
    }

    /// The current simulated time — the conversation's single monotonic clock.
    pub fn now(&self) -> SimTime {
        self.timeline.sim.now()
    }

    /// The congestion controller's current bandwidth estimate in bits per second.
    pub fn bandwidth_estimate_bps(&self) -> f64 {
        self.gcc.estimate_bps()
    }

    /// Number of turns run so far.
    pub fn turn_count(&self) -> usize {
        self.turns.len()
    }

    /// The per-turn reports so far.
    pub fn turns(&self) -> &[NetTurnReport] {
        &self.turns
    }

    /// A point-in-time reading of this conversation's always-on serving counters —
    /// relaxed atomics the transport ticks as it works, aggregated here entirely off the
    /// hot path (see the `aivc-metrics` crate docs for the ordering rationale).
    pub fn metrics_snapshot(&self) -> aivc_metrics::SessionSnapshot {
        self.transport.metrics_handle().snapshot()
    }

    /// Snapshot of the conversation's cumulative uplink [`LinkCounters`] — offered,
    /// delivered, queue-dropped, randomly lost, duplicated, reordered and outage-dropped
    /// packets since the conversation began. Reads the emulator's existing totals; the
    /// transport hot path keeps no extra bookkeeping for it.
    pub fn link_counters(&self) -> LinkCounters {
        self.transport.uplink_counters()
    }

    /// Roll-up of the fault telemetry across every turn run so far (same aggregation as
    /// [`Conversation::report`], available mid-conversation without assembling a report).
    pub fn fault_telemetry(&self) -> FaultTelemetry {
        let mut resilience = FaultTelemetry::default();
        for t in &self.turns {
            resilience.absorb(&t.resilience);
        }
        resilience
    }

    /// Number of idle pooled run buffers in the transport — the buffer-pool
    /// reuse/leak invariant tests read this.
    #[cfg(test)]
    pub(crate) fn run_pool_len(&self) -> usize {
        self.transport.run_pool_len()
    }

    /// Advances the timeline by `gap` without capturing frames: in-flight packets arrive,
    /// NACK polls fire, retransmissions flow. [`Conversation::run_turn`] already inserts
    /// the configured think gap between turns; use this for extra idle time.
    pub fn think(&mut self, gap: SimDuration) {
        self.on_own_timeline(|timeline, me| timeline.think(me, gap));
    }

    /// Runs the next turn of the conversation, starting at the current simulated time
    /// (plus the configured think gap, for every turn after the first). The transport —
    /// link, trace cursor, queue backlog, GCC, pacer, sequence space, recovery machinery —
    /// is exactly as the previous turn left it.
    ///
    /// # Panics
    ///
    /// Panics if `frames` is empty ("a chat turn needs at least one frame").
    pub fn run_turn(&mut self, frames: &[Frame], question: &Question) -> NetTurnReport {
        self.run_turn_in_place(frames, question).clone()
    }

    /// [`Conversation::run_turn`] without the returned-report clone: the report is pushed
    /// onto the history by move and handed back by reference. Combined with
    /// [`Conversation::reserve_turns`], a warmed conversation's turn is allocation-free
    /// end to end (the `zero_alloc` harness asserts exactly that).
    pub fn run_turn_in_place(&mut self, frames: &[Frame], question: &Question) -> &NetTurnReport {
        self.on_own_timeline(|timeline, me| timeline.run_turn(me, frames, question));
        self.turns.last().expect("the turn just concluded")
    }

    /// Runs `f` on this conversation's own timeline as its single member. The timeline is
    /// moved out for the call (an empty [`Lockstep`] allocates nothing) so the drain can
    /// borrow the conversation mutably alongside it.
    fn on_own_timeline(&mut self, f: impl FnOnce(&mut Lockstep, &mut [Conversation])) {
        let mut timeline = std::mem::take(&mut self.timeline);
        f(&mut timeline, std::slice::from_mut(self));
        self.timeline = timeline;
    }

    /// Restarts the transport and the timeline and clears the turn history, keeping the
    /// compute state, the congestion controller and the always-on counters: the next turn
    /// runs exactly like a first turn on a fresh connection (the single-turn contract of
    /// [`crate::NetworkedChatSession`]).
    pub(crate) fn restart_transport(&mut self) {
        self.transport = Transport::with_metrics(
            &self.compute.options,
            self.gcc.estimate_bps(),
            self.transport.metrics_handle(),
        );
        self.timeline = Lockstep::default();
        self.turns.clear();
        self.estimate_at_turn_start_bps.clear();
        self.carryover_queue_delay_ms.clear();
        self.turn_target_swing_bps.clear();
        self.frame_latencies.clear();
    }

    /// Pre-grows the per-turn history vectors for `additional_turns` more turns of
    /// `frames_per_turn` frames each, so the pushes inside those turns are guaranteed
    /// not to reallocate. Purely an optimization — capacity is a lower bound, never a cap.
    pub fn reserve_turns(&mut self, additional_turns: usize, frames_per_turn: usize) {
        self.turns.reserve(additional_turns);
        self.estimate_at_turn_start_bps.reserve(additional_turns);
        self.carryover_queue_delay_ms.reserve(additional_turns);
        self.turn_target_swing_bps.reserve(additional_turns);
        self.frame_latencies.reserve(additional_turns * frames_per_turn);
    }

    /// The configured think gap.
    pub(crate) fn think_gap(&self) -> SimDuration {
        self.think_gap
    }

    /// Opens this conversation's next turn window at `now` on whichever timeline `sink`
    /// feeds: records the turn-start estimate and the backlog the turn inherits on `port`,
    /// then schedules the captures. The caller drains the timeline to the returned plan's
    /// horizon (routing this member's events to [`Conversation::handle_net`]) and then
    /// calls [`Conversation::conclude_turn_on`] with the same port.
    pub(crate) fn begin_turn_on(
        &mut self,
        now: SimTime,
        port: &UplinkPort<'_>,
        sink: &mut impl NetEventSink,
        frame_count: usize,
        question: &Question,
    ) -> TurnPlan {
        let estimate_bps = self.gcc.estimate_bps();
        let backlog_ms = self.transport.uplink_backlog_ms(port, now);
        let plan = begin_turn_window(
            &mut self.compute,
            &mut self.transport,
            now,
            sink,
            frame_count,
            question,
        );
        self.estimate_at_turn_start_bps.push(estimate_bps);
        self.carryover_queue_delay_ms.push(backlog_ms);
        plan
    }

    /// Handles one of this conversation's transport events. `live` carries the frames and
    /// window of the open turn; `None` is think time (deliveries, polls, retransmissions
    /// only — no captures pending).
    pub(crate) fn handle_net(
        &mut self,
        now: SimTime,
        event: NetEvent,
        live: Option<(&[Frame], TurnWindow)>,
        port: UplinkPort<'_>,
        sink: &mut impl NetEventSink,
    ) {
        let mut machine = TurnMachine {
            compute: &mut self.compute,
            gcc: &mut self.gcc,
            t: &mut self.transport,
            live,
            port,
        };
        machine.handle(now, event, sink);
    }

    /// Concludes a turn opened by [`Conversation::begin_turn_on`] once its timeline has
    /// drained to the plan's horizon: decode + answer + report, then the history
    /// bookkeeping (swing, frame latencies, report). Returns the stored report.
    pub(crate) fn conclude_turn_on(
        &mut self,
        port: &UplinkPort<'_>,
        plan: &TurnPlan,
        frame_count: usize,
        question: &Question,
    ) -> &NetTurnReport {
        let report = conclude_turn_window(
            &mut self.compute,
            &mut self.gcc,
            &mut self.transport,
            port,
            plan,
            frame_count,
            question,
        );
        self.turn_target_swing_bps
            .push(self.transport.turn_target_swing_bps());
        self.frame_latencies
            .extend_from_slice(&self.transport.turn_frame_latencies);
        self.turns.push(report);
        self.turns.last().expect("just pushed")
    }

    /// Assembles the conversation-level report (per-turn reports + cross-turn aggregates).
    pub fn report(&self) -> ConversationReport {
        let mut latency = LatencyStats::new();
        for d in &self.frame_latencies {
            latency.record(*d);
        }
        let mean_goodput_bps = if self.turns.is_empty() {
            0.0
        } else {
            self.turns.iter().map(|t| t.goodput_bps).sum::<f64>() / self.turns.len() as f64
        };
        let resilience = self.fault_telemetry();
        ConversationReport {
            turns: self.turns.clone(),
            estimate_at_turn_start_bps: self.estimate_at_turn_start_bps.clone(),
            carryover_queue_delay_ms: self.carryover_queue_delay_ms.clone(),
            turn_target_swing_bps: self.turn_target_swing_bps.clone(),
            p50_frame_latency_ms: latency.percentile_ms(0.5),
            p95_frame_latency_ms: latency.p95_ms(),
            mean_goodput_bps,
            nacks_suppressed: self.transport.nacks_suppressed(),
            resilience,
        }
    }
}

/// The lockstep drain: one `aivc-sim` kernel shared by conversations that turn together,
/// each on its private uplink. Members' events are tagged ([`MemberEvent`]) and never
/// interact, so sharing the kernel changes *which heap* an event pops from, never what a
/// member computes: restricted to one member, the `(time, insertion-seq)` pop order is
/// exactly the order that member would see alone. The members must share their turn
/// geometry (think gap, capture fps, drain window) so their phase boundaries coincide —
/// [`crate::ConversationChatServer`] checks this at admission.
#[derive(Debug, Default)]
pub(crate) struct Lockstep {
    sim: Simulation<MemberEvent>,
    /// The open turn's plan of every member (reused across turns).
    plans: Vec<TurnPlan>,
}

impl Lockstep {
    /// Pre-grows the plan buffer for `members` members.
    pub(crate) fn reserve_members(&mut self, members: usize) {
        self.plans.reserve(members);
    }

    /// Drains `gap` of think time: in-flight packets arrive, polls fire, retransmissions
    /// flow — no captures pending.
    pub(crate) fn think(&mut self, members: &mut [Conversation], gap: SimDuration) {
        let horizon = self.sim.now() + gap;
        self.sim.run_until(
            horizon,
            &mut Drain {
                members,
                plans: &[],
                frames: &[],
            },
        );
    }

    /// Advances every member by one turn: the think gap (after a member's first turn),
    /// open every window at the common start time, drain to the common horizon, conclude
    /// in member order.
    pub(crate) fn run_turn(&mut self, members: &mut [Conversation], frames: &[Frame], question: &Question) {
        let Some(first) = members.first() else {
            return;
        };
        let think = first.think_gap;
        if first.turn_count() > 0 && think > SimDuration::ZERO {
            self.think(members, think);
        }
        let now = self.sim.now();
        self.plans.clear();
        for (m, member) in members.iter_mut().enumerate() {
            let plan = member.begin_turn_on(
                now,
                &UplinkPort::Private,
                &mut MemberSink {
                    member: m as u32,
                    sim: &mut self.sim,
                },
                frames.len(),
                question,
            );
            self.plans.push(plan);
        }
        let horizon = self.plans[0].horizon;
        debug_assert!(
            self.plans.iter().all(|p| p.horizon == horizon),
            "lockstep members must share the turn horizon"
        );
        self.sim.run_until(
            horizon,
            &mut Drain {
                members: &mut *members,
                plans: &self.plans,
                frames,
            },
        );
        for (member, plan) in members.iter_mut().zip(&self.plans) {
            member.conclude_turn_on(&UplinkPort::Private, plan, frames.len(), question);
        }
    }
}

/// Routes each tagged event to its member. During a turn every member has a plan (its
/// live window); during a think drain `plans` is empty.
struct Drain<'a> {
    members: &'a mut [Conversation],
    plans: &'a [TurnPlan],
    frames: &'a [Frame],
}

impl Actor for Drain<'_> {
    type Event = MemberEvent;

    fn on_event(&mut self, now: SimTime, event: MemberEvent, sim: &mut Simulation<MemberEvent>) {
        let m = event.member as usize;
        let live = self.plans.get(m).map(|plan| (self.frames, plan.window));
        self.members[m].handle_net(
            now,
            event.event,
            live,
            UplinkPort::Private,
            &mut MemberSink {
                member: event.member,
                sim,
            },
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aivc_mllm::QuestionFormat;
    use aivc_netsim::PathConfig;
    use aivc_scene::templates::basketball_game;
    use aivc_scene::{SourceConfig, VideoSource};

    fn window(offset: usize) -> Vec<Frame> {
        let source = VideoSource::new(basketball_game(1), SourceConfig::fps30(6.0));
        (0..4)
            .map(|i| source.frame(((offset + i) * 15 % 170) as u64))
            .collect()
    }

    fn question() -> Question {
        Question::from_fact(&basketball_game(1).facts[1], QuestionFormat::FreeResponse)
    }

    fn options(seed: u64) -> NetSessionOptions {
        let mut o = NetSessionOptions::ai_oriented(seed, PathConfig::paper_section_2_2(0.01));
        o.capture_fps = 8.0;
        o
    }

    #[test]
    fn timeline_is_continuous_across_turns() {
        let mut conv = Conversation::with_defaults(options(3), SimDuration::from_millis(500));
        let q = question();
        assert_eq!(conv.now(), SimTime::ZERO);
        conv.run_turn(&window(0), &q);
        let after_first = conv.now();
        // 4 frames at 8 fps + 300 ms drain: the deadline of turn 0.
        assert_eq!(after_first.as_micros(), (3.0 / 8.0 * 1e6) as u64 + 300_000);
        conv.run_turn(&window(4), &q);
        // Turn 1 started at turn 0's deadline + 500 ms think time.
        assert_eq!(
            conv.now().as_micros(),
            after_first.as_micros() + 500_000 + (3.0 / 8.0 * 1e6) as u64 + 300_000
        );
        assert_eq!(conv.turn_count(), 2);
    }

    #[test]
    fn transport_state_persists_estimate_at_turn_start_equals_previous_final() {
        let mut conv = Conversation::with_defaults(options(7), SimDuration::from_millis(800));
        let q = question();
        for t in 0..4 {
            conv.run_turn(&window(t * 4), &q);
        }
        let report = conv.report();
        assert_eq!(report.turns.len(), 4);
        // The acceptance contract: the GCC estimate at the start of turn k+1 equals its
        // value at the end of turn k — nothing was reset in between.
        for k in 0..3 {
            assert_eq!(
                report.estimate_at_turn_start_bps[k + 1],
                report.turns[k].final_estimate_bps,
                "turn {k}"
            );
        }
        // And the cold start really was the configured initial estimate.
        assert_eq!(
            report.estimate_at_turn_start_bps[0],
            options(7).gcc.initial_estimate_bps
        );
    }

    /// The coalesced-delivery buffer pool is bounded by the peak number of in-flight
    /// runs, not by how long the conversation lives: once warm, turns neither grow the
    /// pool (a leak — buffers allocated but never recycled back out) nor shrink it
    /// (runs completing without returning their buffer).
    #[test]
    fn run_buffer_pool_is_bounded_by_peak_in_flight_not_turn_count() {
        let mut conv = Conversation::with_defaults(options(13), SimDuration::from_millis(400));
        let q = question();
        let mut lens = Vec::new();
        for t in 0..12 {
            conv.run_turn(&window(t * 4), &q);
            conv.think(SimDuration::from_millis(600)); // let stragglers complete their runs
            lens.push(conv.run_pool_len());
        }
        let warm = lens[3];
        assert!(warm > 0, "pool never recycled a buffer: {lens:?}");
        assert!(
            lens[3..].iter().all(|&l| l == warm),
            "pool size kept moving after warmup (leak or lost buffer): {lens:?}"
        );
        assert!(warm <= 8, "pool larger than any plausible in-flight peak: {lens:?}");
    }

    #[test]
    fn conversations_are_deterministic() {
        let run = || {
            let mut conv = Conversation::with_defaults(options(11), SimDuration::from_millis(400));
            let q = question();
            for t in 0..3 {
                conv.run_turn(&window(t * 4), &q);
            }
            conv.report()
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn warm_turns_swing_less_than_the_cold_turn() {
        // Traditional ABR rides the estimate, so convergence is visible in the target: a
        // cold controller that believes 5 Mbps crashes down onto the 1.2 Mbps link within
        // turn 0 (huge swing); warm turns start from the converged estimate and hold.
        use aivc_netsim::{LinkConfig, LossModel};
        let path = PathConfig {
            uplink: LinkConfig::constant(1.2e6, SimDuration::from_millis(30), 300, LossModel::None),
            downlink: LinkConfig::constant(100e6, SimDuration::from_millis(30), 300, LossModel::None),
        };
        let mut o = NetSessionOptions::traditional(19, path);
        o.capture_fps = 12.0;
        o.gcc.initial_estimate_bps = 5_000_000.0;
        let mut conv = Conversation::with_defaults(o, SimDuration::from_millis(500));
        let q = question();
        let source = VideoSource::new(basketball_game(1), SourceConfig::fps30(6.0));
        for t in 0..4 {
            let frames: Vec<Frame> = (0..24).map(|i| source.frame((t * 24 + i) as u64)).collect();
            conv.run_turn(&frames, &q);
        }
        let report = conv.report();
        assert!(
            report.cold_target_swing_bps() > 2.0 * report.warm_target_swing_bps(),
            "cold swing {} should exceed warm swing {}",
            report.cold_target_swing_bps(),
            report.warm_target_swing_bps()
        );
    }

    #[test]
    fn memory_stays_bounded_by_the_live_turn() {
        let mut conv = Conversation::with_defaults(options(23), SimDuration::from_millis(100));
        let q = question();
        for t in 0..10 {
            conv.run_turn(&window(t), &q);
        }
        // Retirement pruned every reported turn: only in-flight remnants may remain.
        assert!(
            conv.transport.tracked_state_is_bounded(),
            "transport state grew unbounded"
        );
    }

    #[test]
    fn report_on_empty_conversation_is_well_behaved() {
        let conv = Conversation::with_defaults(options(1), SimDuration::ZERO);
        let report = conv.report();
        assert!(report.turns.is_empty());
        assert_eq!(report.correct_fraction(), 0.0);
        assert_eq!(report.cold_target_swing_bps(), 0.0);
        assert_eq!(report.warm_target_swing_bps(), 0.0);
    }

    /// Regression test for the retired-then-late sequence hazard: on a slow, high-latency
    /// link, packets still in flight when the answer deadline fires arrive during the
    /// think gap — *after* the turn's conclusion retired their sequence numbers. The
    /// ring/bitset stores must reject them as counted drops (`late_seq_drops`), not
    /// underflow `seq - base` and panic.
    #[test]
    fn retired_then_late_arrivals_are_counted_drops_across_turns() {
        use aivc_netsim::{LinkConfig, LossModel, PathConfig};
        let path = PathConfig {
            // 400 kbps with 150 ms one-way delay: the tail of every turn's window is
            // still in flight at the deadline and lands mid-think-gap.
            uplink: LinkConfig::constant(4e5, SimDuration::from_millis(150), 300, LossModel::None),
            downlink: LinkConfig::constant(100e6, SimDuration::from_millis(30), 300, LossModel::None),
        };
        let mut o = NetSessionOptions::ai_oriented(31, path);
        o.capture_fps = 8.0;
        let mut conv = Conversation::with_defaults(o, SimDuration::from_millis(500));
        let q = question();
        for t in 0..4 {
            conv.run_turn(&window(t * 4), &q);
        }
        assert_eq!(conv.turn_count(), 4);
        let snap = conv.metrics_snapshot();
        assert!(
            snap.late_seq_drops > 0,
            "expected retired-then-late arrivals on a 150 ms link; counters: {snap}"
        );
    }
}
