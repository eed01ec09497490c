//! Network-in-the-loop chat turns: [`NetworkedChatSession`].
//!
//! [`crate::ChatSession`] answers the paper's *compute* question — what one conversational
//! turn costs the client and the cloud. This module answers the *network* question of
//! §2.2 / Figure 3: what happens to a turn when its packets traverse a real (emulated)
//! uplink whose capacity varies over time. Every frame of a turn closes the loop
//!
//! ```text
//! BandwidthTrace ──► Link ──► per-packet feedback ──► GccController ──► AbrPolicy
//!       ▲                                                                  │
//!       └── FEC/NACK recovery ◄── packetize ◄── encode_at_bitrate ◄────────┘
//! ```
//!
//! so the target bitrate, per-frame transmission latency, the set of frames (and frame
//! *fractions*) that reach the decoder, and ultimately the MLLM's answer accuracy are all
//! functions of the network — which is exactly the regime in which the paper argues for
//! `AiOriented` over `Traditional` ABR.
//!
//! The event loop itself lives in the shared turn engine (`net_turn`), run by the one
//! conversation host ([`crate::Conversation`] and its lockstep drain). This type is the
//! *single-turn* driver: a conversation whose every [`NetworkedChatSession::run_turn`]
//! starts on a fresh transport timeline at `t = 0` with an empty bottleneck queue —
//! identical options and seeds reproduce bit-identical [`NetTurnReport`]s, which the
//! scenario engine ([`crate::scenarios`]) relies on for its golden regression fixtures.
//! The congestion controller ([`aivc_rtc::cc::GccController`]) still persists across
//! turns (a conversation keeps its bandwidth knowledge). For the *continuous* timeline —
//! one link, trace cursor, pacer backlog and in-flight packet set shared by every turn —
//! use [`crate::Conversation`] directly.

use crate::context_aware::StreamerConfig;
use crate::conversation::Conversation;
use crate::session::StreamingMode;
use aivc_mllm::{Answer, Question};
use aivc_netsim::PathConfig;
use aivc_rtc::cc::GccConfig;
use aivc_rtc::fec::{AdaptiveFecConfig, FecConfig};
use aivc_rtc::nack::NackConfig;
use aivc_rtc::AbrPolicy;
use aivc_scene::Frame;
use aivc_semantics::ClipModel;
use aivc_sim::SimDuration;
use serde::{Deserialize, Serialize, Value};

/// Options of one networked chat session.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct NetSessionOptions {
    /// Seed for every stochastic component (network loss, jitter, MLLM answer draws).
    pub seed: u64,
    /// The network path; the uplink's [`aivc_netsim::BandwidthTrace`] + loss model are what
    /// the turn adapts to.
    pub path: PathConfig,
    /// The sender's rate objective (the Figure 3 grey-vs-yellow-region choice).
    pub abr: AbrPolicy,
    /// The sender's encoding method: context-aware Eq. 2 QP allocation (the paper's
    /// system) or the uniform-QP WebRTC baseline.
    pub mode: StreamingMode,
    /// Congestion-controller parameters.
    pub gcc: GccConfig,
    /// Forward error correction on media packets.
    pub fec: FecConfig,
    /// NACK/retransmission behaviour.
    pub nack: NackConfig,
    /// Whether lost packets are retransmitted.
    pub enable_retransmission: bool,
    /// Deadline-aware NACK suppression: when true, the receiver drops (never sends) a
    /// retransmission request whose expected arrival — RTT estimate plus a pacing guard —
    /// lands past the turn's conversational deadline; such an RTX is wasted uplink that
    /// competes with the next frame's media. Off by default (the pre-kernel behaviour the
    /// single-turn golden fixtures pin); conversation scenarios enable it.
    pub deadline_aware_nack: bool,
    /// Capture rate of the turn window in frames per second.
    pub capture_fps: f64,
    /// How long after the last capture the receiver keeps collecting in-flight packets
    /// before the MLLM must answer (the conversational deadline).
    pub drain_secs: f64,
    /// Size of a feedback (NACK) packet on the wire, in bytes.
    pub feedback_packet_bytes: u32,
    /// Adaptive FEC: parity group size driven by the live loss estimate, with the media
    /// budget shaved so media + parity never exceeds the ABR target. Disabled by default
    /// (the static [`NetSessionOptions::fec`] group size rules, bit for bit).
    pub adaptive_fec: AdaptiveFecConfig,
    /// The graceful-degradation ladder (outage capture suppression, probing, frame
    /// shedding). Disabled by default.
    pub degradation: DegradationConfig,
    /// Coalesced delivery: a burst of back-to-back pacer departures (a capture's media +
    /// parity, a feedback event's retransmissions) rides **one** timeline event that
    /// re-fires per departure, instead of one slab slot per packet. Provably
    /// order-identical to per-packet scheduling (the run re-arms under its original
    /// insertion sequence; see `net_turn::NetEventSink::reschedule_net_run`) and pinned
    /// bit-for-bit by the equivalence property suite, so this is on by default; the flag
    /// exists so that suite can run both modes against each other.
    pub coalesce_delivery: bool,
}

impl NetSessionOptions {
    /// AI-oriented defaults: context-aware encoding with the ABR at the paper's ~430 Kbps
    /// accuracy floor, FEC protecting every 4-packet group, NACK recovery on.
    pub fn ai_oriented(seed: u64, path: PathConfig) -> Self {
        Self {
            seed,
            path,
            abr: AbrPolicy::ai_oriented(430_000.0),
            mode: StreamingMode::ContextAware,
            gcc: GccConfig::default(),
            fec: FecConfig::with_group_size(4),
            nack: NackConfig::default(),
            enable_retransmission: true,
            deadline_aware_nack: false,
            capture_fps: 12.0,
            // The conversational response budget (§1's 300 ms): frames still in flight
            // this long after the question was asked miss the answer.
            drain_secs: 0.3,
            feedback_packet_bytes: 80,
            adaptive_fec: AdaptiveFecConfig::disabled(),
            degradation: DegradationConfig::disabled(),
            coalesce_delivery: true,
        }
    }

    /// Turns the full outage-resilience stack on: the GCC feedback watchdog (200 ms
    /// timeout, 0.7 decay, 1.25× recovery ramp), loss-driven adaptive FEC, and the
    /// graceful-degradation ladder. Fault scenarios opt in through this; everything else
    /// keeps the off-by-default behaviour the golden fixtures pin.
    pub fn with_resilience(mut self) -> Self {
        self.gcc.watchdog_timeout = SimDuration::from_millis(200);
        self.gcc.watchdog_beta = 0.7;
        self.gcc.recovery_ramp_factor = 1.25;
        self.adaptive_fec.enabled = true;
        self.degradation.enabled = true;
        self
    }

    /// Traditional WebRTC-style defaults: uniform-QP encoding riding the bandwidth
    /// estimate at 85 % utilization, same recovery machinery as
    /// [`NetSessionOptions::ai_oriented`].
    pub fn traditional(seed: u64, path: PathConfig) -> Self {
        Self {
            abr: AbrPolicy::traditional(),
            mode: StreamingMode::Baseline,
            ..Self::ai_oriented(seed, path)
        }
    }
}

/// The graceful-degradation ladder's knobs. When enabled, the turn engine steps down
/// under stress instead of failing abruptly: a watchdog-declared outage suppresses
/// captures (sending tiny probes instead, so the first post-outage feedback can return);
/// a deep send backlog sheds whole late frames before their parity is even built; after
/// recovery the congestion controller's ramp stages the climb back. Disabled by default —
/// the ladder never engages and the pre-ladder behaviour is preserved bit for bit.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DegradationConfig {
    /// Master switch for the ladder.
    pub enabled: bool,
    /// Uplink backlog (ms of queueing) beyond which a newly captured frame is shed whole:
    /// encoding and sending it would only arrive after the conversational deadline while
    /// deepening the queue for its successors.
    pub shed_backlog_ms: f64,
    /// Wire size of the keep-alive probe sent on each suppressed capture tick.
    pub probe_packet_bytes: u32,
}

impl DegradationConfig {
    /// Ladder off (the default).
    pub fn disabled() -> Self {
        Self {
            enabled: false,
            shed_backlog_ms: 150.0,
            probe_packet_bytes: 200,
        }
    }
}

impl Default for DegradationConfig {
    fn default() -> Self {
        Self::disabled()
    }
}

/// Fault/resilience telemetry of one turn. All-zero (["quiet"](FaultTelemetry::is_quiet))
/// whenever fault injection and the resilience stack are off, in which case it is omitted
/// from the serialized report — the off-by-default contract that keeps the pre-fault
/// golden fixtures byte-for-byte identical.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct FaultTelemetry {
    /// Scheduled uplink outage time overlapping the turn window, in ms.
    pub outage_ms: f64,
    /// Time from the last outage-dropped send to the first frame completing after it, in
    /// ms — finite iff the session provably re-converged. `None` when no outage was seen
    /// or nothing completed afterwards (recovery may land in a later turn).
    pub time_to_recover_ms: Option<f64>,
    /// Degradation-ladder level changes during the turn.
    pub degradation_events: u64,
    /// Frames shed whole by the ladder (backlog past the shed threshold).
    pub frames_shed: u64,
    /// Capture ticks suppressed while the watchdog held the session silent.
    pub captures_suppressed: u64,
    /// Keep-alive probes sent on suppressed capture ticks.
    pub probes_sent: u64,
    /// Watchdog decay steps the congestion controller took during the turn.
    pub watchdog_fallbacks: u64,
    /// Uplink packets duplicated by a fault episode during the turn.
    pub packets_duplicated: u64,
    /// Uplink packets reordered by a fault episode during the turn.
    pub packets_reordered: u64,
    /// Uplink packets dropped by outage episodes during the turn.
    pub outage_drops: u64,
}

impl FaultTelemetry {
    /// True when nothing fault-related happened (every field at its default) — the
    /// serialization-omission condition.
    pub fn is_quiet(&self) -> bool {
        self == &Self::default()
    }

    /// Accumulates another telemetry snapshot into this one: counters and outage time
    /// add up; the first finite `time_to_recover_ms` wins (the earliest proof of
    /// re-convergence is the one a conversation- or fleet-level rollup reports).
    pub fn absorb(&mut self, other: &FaultTelemetry) {
        self.outage_ms += other.outage_ms;
        if self.time_to_recover_ms.is_none() {
            self.time_to_recover_ms = other.time_to_recover_ms;
        }
        self.degradation_events += other.degradation_events;
        self.frames_shed += other.frames_shed;
        self.captures_suppressed += other.captures_suppressed;
        self.probes_sent += other.probes_sent;
        self.watchdog_fallbacks += other.watchdog_fallbacks;
        self.packets_duplicated += other.packets_duplicated;
        self.packets_reordered += other.packets_reordered;
        self.outage_drops += other.outage_drops;
    }
}

/// The report of one networked chat turn — plain values only, so server slots can replace
/// reports in place.
///
/// Serialization note: `Serialize`/`Deserialize` are implemented by hand (not derived)
/// so the `resilience` block is **omitted** when quiet. The pre-fault golden fixtures
/// never contained the field; emitting an all-zero block would change every fixture byte
/// stream, and the vendored serde derive has no field-skipping attribute support.
#[derive(Debug, Clone, PartialEq)]
pub struct NetTurnReport {
    /// The MLLM's answer over everything the receiver could decode before the deadline.
    pub answer: Answer,
    /// Frames handed to the transport.
    pub frames_sent: usize,
    /// Frames completely received before the deadline.
    pub frames_delivered: usize,
    /// Frames the decoder produced output for (at least one packet arrived; incomplete
    /// frames decode with concealment on the missing blocks).
    pub frames_decoded: usize,
    /// Mean per-frame ABR target over the turn, in bits per second.
    pub mean_target_bitrate_bps: f64,
    /// Mean encoded media bitrate actually produced, in bits per second.
    pub achieved_bitrate_bps: f64,
    /// Unique media payload bits that reached the receiver, per second of turn window.
    pub goodput_bps: f64,
    /// Median per-frame transmission latency (send start → complete reception) in ms.
    pub p50_frame_latency_ms: f64,
    /// 95th-percentile per-frame transmission latency in ms.
    pub p95_frame_latency_ms: f64,
    /// Uplink packets that did not reach the receiver (random loss + queue drops).
    pub packets_lost: u64,
    /// Frames with at least one FEC-recovered packet.
    pub fec_recovered_frames: u64,
    /// Retransmission packets sent.
    pub retransmissions_sent: u64,
    /// The congestion controller's bandwidth estimate when the turn ended.
    pub final_estimate_bps: f64,
    /// Fault/resilience telemetry; all-zero (and unserialized) when faults and the
    /// resilience stack are off.
    pub resilience: FaultTelemetry,
}

impl Serialize for NetTurnReport {
    fn to_value(&self) -> Value {
        let mut fields = vec![
            ("answer".to_string(), self.answer.to_value()),
            ("frames_sent".to_string(), self.frames_sent.to_value()),
            ("frames_delivered".to_string(), self.frames_delivered.to_value()),
            ("frames_decoded".to_string(), self.frames_decoded.to_value()),
            (
                "mean_target_bitrate_bps".to_string(),
                self.mean_target_bitrate_bps.to_value(),
            ),
            (
                "achieved_bitrate_bps".to_string(),
                self.achieved_bitrate_bps.to_value(),
            ),
            ("goodput_bps".to_string(), self.goodput_bps.to_value()),
            (
                "p50_frame_latency_ms".to_string(),
                self.p50_frame_latency_ms.to_value(),
            ),
            (
                "p95_frame_latency_ms".to_string(),
                self.p95_frame_latency_ms.to_value(),
            ),
            ("packets_lost".to_string(), self.packets_lost.to_value()),
            (
                "fec_recovered_frames".to_string(),
                self.fec_recovered_frames.to_value(),
            ),
            (
                "retransmissions_sent".to_string(),
                self.retransmissions_sent.to_value(),
            ),
            (
                "final_estimate_bps".to_string(),
                self.final_estimate_bps.to_value(),
            ),
        ];
        if !self.resilience.is_quiet() {
            fields.push(("resilience".to_string(), self.resilience.to_value()));
        }
        Value::Object(fields)
    }
}

impl Deserialize for NetTurnReport {
    fn from_value(v: &Value) -> Result<Self, serde::Error> {
        Ok(Self {
            answer: Deserialize::from_value(v.field("answer")?)?,
            frames_sent: Deserialize::from_value(v.field("frames_sent")?)?,
            frames_delivered: Deserialize::from_value(v.field("frames_delivered")?)?,
            frames_decoded: Deserialize::from_value(v.field("frames_decoded")?)?,
            mean_target_bitrate_bps: Deserialize::from_value(v.field("mean_target_bitrate_bps")?)?,
            achieved_bitrate_bps: Deserialize::from_value(v.field("achieved_bitrate_bps")?)?,
            goodput_bps: Deserialize::from_value(v.field("goodput_bps")?)?,
            p50_frame_latency_ms: Deserialize::from_value(v.field("p50_frame_latency_ms")?)?,
            p95_frame_latency_ms: Deserialize::from_value(v.field("p95_frame_latency_ms")?)?,
            packets_lost: Deserialize::from_value(v.field("packets_lost")?)?,
            fec_recovered_frames: Deserialize::from_value(v.field("fec_recovered_frames")?)?,
            retransmissions_sent: Deserialize::from_value(v.field("retransmissions_sent")?)?,
            final_estimate_bps: Deserialize::from_value(v.field("final_estimate_bps")?)?,
            resilience: match v.field("resilience")? {
                Value::Null => FaultTelemetry::default(),
                present => Deserialize::from_value(present)?,
            },
        })
    }
}

impl NetTurnReport {
    /// The all-zero report server slots start from.
    pub fn placeholder() -> Self {
        Self {
            answer: Answer::default(),
            frames_sent: 0,
            frames_delivered: 0,
            frames_decoded: 0,
            mean_target_bitrate_bps: 0.0,
            achieved_bitrate_bps: 0.0,
            goodput_bps: 0.0,
            p50_frame_latency_ms: 0.0,
            p95_frame_latency_ms: 0.0,
            packets_lost: 0,
            fec_recovered_frames: 0,
            retransmissions_sent: 0,
            final_estimate_bps: 0.0,
            resilience: FaultTelemetry::default(),
        }
    }
}

/// One long-lived AI Video Chat session whose turns run through the emulated network.
///
/// The compute stages (CLIP → Eq. 2 → ROI encode → decode → MLLM) are the same ones
/// [`crate::ChatSession`] runs, with the same scratch-reuse structure; what changes is that
/// each frame's **bitrate target comes from the congestion controller** and each frame's
/// **decodable bytes come from the emulated link**. The congestion controller
/// ([`aivc_rtc::cc::GccController`]) persists across turns (a conversation keeps its
/// bandwidth knowledge); transport time restarts at zero each turn with an empty
/// bottleneck queue — use [`crate::Conversation`] when the transport itself should
/// persist.
#[derive(Debug)]
pub struct NetworkedChatSession {
    /// The conversation whose transport, timeline and history restart every turn. Its
    /// always-on counters survive the restarts, so they accumulate across the session's
    /// whole lifetime.
    conversation: Conversation,
}

impl NetworkedChatSession {
    /// Creates a session with explicit compute configuration.
    pub fn new(options: NetSessionOptions, config: StreamerConfig, clip_model: ClipModel) -> Self {
        Self {
            conversation: Conversation::new(options, config, clip_model, SimDuration::ZERO),
        }
    }

    /// A point-in-time reading of this session's always-on counters (off the hot path).
    pub fn metrics_snapshot(&self) -> aivc_metrics::SessionSnapshot {
        self.conversation.metrics_snapshot()
    }

    /// A session with the paper's compute defaults (γ = 3 allocator, medium-preset encoder,
    /// Mobile-CLIP-class model).
    pub fn with_defaults(options: NetSessionOptions) -> Self {
        Self::new(options, StreamerConfig::default(), ClipModel::mobile_default())
    }

    /// The session options.
    pub fn options(&self) -> &NetSessionOptions {
        self.conversation.options()
    }

    /// The congestion controller's current bandwidth estimate in bits per second.
    pub fn bandwidth_estimate_bps(&self) -> f64 {
        self.conversation.bandwidth_estimate_bps()
    }

    /// Runs one networked chat turn over a window of captured frames.
    ///
    /// Frame `i` is captured at simulated time `i / capture_fps`. At each capture the
    /// sender first ingests every feedback report that has had time to travel back, updates
    /// the GCC estimate, asks the ABR policy for a target and encodes the frame to that
    /// budget (QP-offset search on the Eq. 2 map); packets are FEC-protected, paced, and
    /// pushed through the emulated uplink, with NACK/RTX and FEC recovery racing the
    /// conversational deadline. After `drain_secs` past the last capture, whatever arrived
    /// is decoded (missing blocks conceal) and the MLLM answers.
    ///
    /// The transport timeline is fresh per call (clock at zero, empty queue, packets in
    /// flight at the deadline discarded) — the single-turn semantics the golden fixtures
    /// pin down.
    ///
    /// # Panics
    ///
    /// Panics if `frames` is empty ("a chat turn needs at least one frame").
    pub fn run_turn(&mut self, frames: &[Frame], question: &Question) -> NetTurnReport {
        self.conversation.restart_transport();
        self.conversation.run_turn(frames, question)
    }
}

/// A convenience used by the scenario engine: a queue sized to `queue_ms` of buffering at
/// `nominal_bps` — how testbeds provision the bottleneck buffer for a trace whose rates
/// vary around a nominal capacity.
pub fn queue_bytes_for(nominal_bps: f64, queue_ms: u64) -> u64 {
    ((nominal_bps / 8.0) * (queue_ms as f64 / 1_000.0)).max(3_000.0) as u64
}

#[cfg(test)]
mod tests {
    use super::*;
    use aivc_mllm::QuestionFormat;
    use aivc_netsim::{BandwidthTrace, LinkConfig, LossModel, SimDuration, SimTime};
    use aivc_scene::templates::basketball_game;
    use aivc_scene::{SourceConfig, VideoSource};

    fn window(fps: f64, secs: f64) -> Vec<Frame> {
        let source = VideoSource::new(basketball_game(1), SourceConfig::fps30(6.0));
        let start = source.duration_secs() - secs;
        let count = (secs * fps) as usize;
        (0..count)
            .map(|i| source.frame_at(start + i as f64 / fps))
            .collect()
    }

    fn question() -> Question {
        Question::from_fact(&basketball_game(1).facts[1], QuestionFormat::FreeResponse)
    }

    fn good_path() -> PathConfig {
        PathConfig::paper_section_2_2(0.01)
    }

    fn stepdown_path() -> PathConfig {
        PathConfig {
            uplink: LinkConfig {
                bandwidth: BandwidthTrace::step(8e6, 1.2e6, SimTime::from_secs_f64(1.5)),
                propagation_delay: SimDuration::from_millis(30),
                queue_capacity_bytes: queue_bytes_for(8e6, 300),
                loss: LossModel::Iid { rate: 0.01 },
                max_jitter: SimDuration::ZERO,
                faults: aivc_netsim::FaultSchedule::none(),
            },
            downlink: LinkConfig::constant(100e6, SimDuration::from_millis(30), 300, LossModel::None),
        }
    }

    #[test]
    fn degradation_ladder_sheds_late_frames_under_deep_backlog() {
        // A 400 kbps pipe with a cold controller that believes 4 Mbps: the pacer floods
        // the bottleneck queue far past `shed_backlog_ms`, so the SoftFallback rung must
        // shed whole late frames instead of encoding into a standing queue.
        let path = PathConfig {
            uplink: LinkConfig::constant(400e3, SimDuration::from_millis(30), 300, LossModel::None),
            downlink: LinkConfig::constant(100e6, SimDuration::from_millis(30), 300, LossModel::None),
        };
        let mut options = NetSessionOptions::traditional(11, path).with_resilience();
        options.capture_fps = 12.0;
        options.gcc.initial_estimate_bps = 4_000_000.0;
        let mut session = NetworkedChatSession::with_defaults(options);
        let frames = window(12.0, 2.0);
        let report = session.run_turn(&frames, &question());
        assert_eq!(report.frames_sent, frames.len(), "shed frames still occupy slots");
        assert!(
            report.resilience.frames_shed > 0,
            "deep backlog must shed frames: {:?}",
            report.resilience
        );
        assert!(report.resilience.degradation_events > 0);
        // No outage was injected, so no outage telemetry may appear.
        assert_eq!(report.resilience.outage_ms, 0.0);
        assert_eq!(report.resilience.outage_drops, 0);
        assert_eq!(report.resilience.time_to_recover_ms, None);
    }

    #[test]
    fn networked_turn_completes_and_answers_on_a_good_link() {
        let mut session = NetworkedChatSession::with_defaults(NetSessionOptions::ai_oriented(3, good_path()));
        let frames = window(12.0, 3.0);
        let report = session.run_turn(&frames, &question());
        assert_eq!(report.frames_sent, frames.len());
        assert!(report.frames_delivered > frames.len() * 9 / 10);
        assert!(
            report.answer.probability_correct > 0.7,
            "p {}",
            report.answer.probability_correct
        );
        // AI-oriented stays near the accuracy floor, far below the 10 Mbps capacity.
        assert!(report.mean_target_bitrate_bps < 1_000_000.0);
        assert!(report.p50_frame_latency_ms >= 30.0);
        assert!(
            report.p95_frame_latency_ms < 120.0,
            "p95 {}",
            report.p95_frame_latency_ms
        );
    }

    #[test]
    fn turns_are_deterministic() {
        let run = || {
            let mut session =
                NetworkedChatSession::with_defaults(NetSessionOptions::ai_oriented(7, stepdown_path()));
            session.run_turn(&window(12.0, 3.0), &question())
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn traditional_abr_rides_the_estimate_higher_than_ai_oriented() {
        let frames = window(12.0, 3.0);
        let mut trad = NetworkedChatSession::with_defaults(NetSessionOptions::traditional(5, good_path()));
        let mut ai = NetworkedChatSession::with_defaults(NetSessionOptions::ai_oriented(5, good_path()));
        let trad_report = trad.run_turn(&frames, &question());
        let ai_report = ai.run_turn(&frames, &question());
        assert!(
            trad_report.mean_target_bitrate_bps > ai_report.mean_target_bitrate_bps * 2.0,
            "trad {} vs ai {}",
            trad_report.mean_target_bitrate_bps,
            ai_report.mean_target_bitrate_bps
        );
    }

    #[test]
    fn step_down_punishes_traditional_more_than_ai_oriented() {
        let frames = window(12.0, 3.0);
        let q = question();
        let mut trad_opts = NetSessionOptions::traditional(11, stepdown_path());
        trad_opts.gcc.initial_estimate_bps = 2_500_000.0;
        let mut ai_opts = NetSessionOptions::ai_oriented(11, stepdown_path());
        ai_opts.gcc.initial_estimate_bps = 2_500_000.0;
        let trad_report = NetworkedChatSession::with_defaults(trad_opts).run_turn(&frames, &q);
        let ai_report = NetworkedChatSession::with_defaults(ai_opts).run_turn(&frames, &q);
        // The paper's §3.2 / Figure 3 contract: the accuracy floor *maintains* answer
        // accuracy while the estimate-rider loses frames to the collapsed link...
        assert!(u8::from(ai_report.answer.correct) >= u8::from(trad_report.answer.correct));
        assert!(
            ai_report.answer.probability_correct >= trad_report.answer.probability_correct - 0.005,
            "ai {} vs trad {}",
            ai_report.answer.probability_correct,
            trad_report.answer.probability_correct
        );
        assert!(ai_report.frames_delivered > trad_report.frames_delivered);
        // ...at an order of magnitude lower tail latency and less than half the bits.
        assert!(
            ai_report.p95_frame_latency_ms < trad_report.p95_frame_latency_ms / 3.0,
            "ai p95 {} vs trad p95 {}",
            ai_report.p95_frame_latency_ms,
            trad_report.p95_frame_latency_ms
        );
        assert!(ai_report.goodput_bps < trad_report.goodput_bps / 2.0);
    }

    #[test]
    fn gcc_estimate_persists_across_turns() {
        let mut session =
            NetworkedChatSession::with_defaults(NetSessionOptions::traditional(13, good_path()));
        let frames = window(12.0, 2.0);
        let q = question();
        let initial = session.bandwidth_estimate_bps();
        session.run_turn(&frames, &q);
        let after_one = session.bandwidth_estimate_bps();
        assert_ne!(initial, after_one);
        // A later turn starts from the learned estimate, not from the configured initial.
        let second = session.run_turn(&frames, &q);
        assert_eq!(second.final_estimate_bps, session.bandwidth_estimate_bps());
    }

    #[test]
    fn fec_recovers_frames_under_loss() {
        let mut path = good_path();
        path.uplink.loss = LossModel::Iid { rate: 0.06 };
        let mut session = NetworkedChatSession::with_defaults(NetSessionOptions::ai_oriented(17, path));
        let report = session.run_turn(&window(12.0, 3.0), &question());
        assert!(report.packets_lost > 0);
        assert!(
            report.fec_recovered_frames > 0 || report.retransmissions_sent > 0,
            "loss must engage a recovery mechanism"
        );
        assert!(report.frames_decoded > 0);
    }
}
