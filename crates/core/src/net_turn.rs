//! The shared network-turn engine: the transport event loop every conversation driver
//! runs, whatever timeline it runs on.
//!
//! The split is deliberate:
//!
//! * [`NetCompute`] owns everything the *chat pipeline* needs — CLIP model and scratch,
//!   Eq. 2 allocator, encoder/decoder and their per-slot scratches, the MLLM responder —
//!   exactly the scratch-reuse structure of [`crate::ChatSession`];
//! * [`Transport`] owns everything the *network* needs — the emulated path, packetizer,
//!   pacer, RTX store, FEC encode/recovery, reassembly, NACK generation, and the pending
//!   congestion feedback — plus the per-turn counters the report reads;
//! * [`TurnMachine`] borrows both for one event and handles it: the capture → encode →
//!   packetize → protect → pace → send → arrive → recover loop of §2.2;
//! * [`begin_turn_window`] / [`conclude_turn_window`] open and close a turn around the
//!   drain, with the window geometry fixed by [`TurnPlan::new`].
//!
//! The engine never owns a timeline. [`crate::Conversation`] holds the compute and
//! transport halves and is the one member type every driver runs; its events reach a
//! timeline through [`MemberSink`], which tags them with the member's index. The lockstep
//! drain (`conversation::Lockstep`) runs one conversation, a lane shard of a fleet, or a
//! fresh single-turn timeline; the contention engine puts tenants on its own timeline.
//! A fresh timeline per turn restarts the clock at zero and discards in-flight events at
//! the deadline (the single-turn contract the golden fixtures pin); a persistent one keeps
//! the clock, the queue backlog, the trace cursor and every in-flight packet across turn
//! boundaries (the conversation contract).

use crate::allocator::QpAllocator;
use crate::context_aware::StreamerConfig;
use crate::net_session::{FaultTelemetry, NetSessionOptions, NetTurnReport};
use crate::session::StreamingMode;
use aivc_metrics::SessionCounters;
use aivc_mllm::{MllmChat, MllmScratch, Question};
use aivc_netsim::emulator::Direction;
use aivc_netsim::link::LinkCounters;
use aivc_netsim::{DeliveryOutcome, LatencyStats, NetworkEmulator, Packet, SharedLink};
use aivc_rtc::cc::{FeedbackFold, GccController, PacketFeedback};
use aivc_rtc::fec::{group_of_index, FecEncoder, FecRecovery};
use aivc_rtc::nack::{NackGenerator, RtxQueue};
use aivc_rtc::pacer::{Pacer, PacerConfig};
use aivc_rtc::packetizer::{FrameAssembler, OutgoingFrame, Packetizer};
use aivc_rtc::rtp::{PayloadKind, RtpPacket};
use aivc_rtc::seq_ring::SeqRing;
use aivc_scene::Frame;
use aivc_semantics::{ClipModel, ClipScratch, PatchCounts, QueryBuilder, TextQuery};
use aivc_sim::{SimDuration, SimTime, Simulation};
use aivc_videocodec::{
    DecodeScratch, DecodedFrame, Decoder, EncodeScratch, EncodedFrame, Encoder, Qp, QpMap, RatePlan,
};
use std::sync::Arc;

/// Events of the networked turn's discrete-event loop. Frame indices are *global* across
/// the owning timeline (a conversation numbers its frames continuously; a single-turn
/// session always starts at zero).
#[derive(Debug)]
pub(crate) enum NetEvent {
    /// Frame `i` is captured: drain mature feedback into GCC, pick the ABR target, encode
    /// at that target, packetize + protect + pace onto the uplink.
    Capture(usize),
    /// A packet leaves the pacer and enters the uplink.
    SendUplink(RtpPacket),
    /// A packet arrives at the receiver.
    UplinkArrival(RtpPacket),
    /// The receiver checks for due NACKs.
    ReceiverPoll,
    /// A feedback packet (NACKed sequences) arrives back at the sender.
    FeedbackArrival(Vec<u64>),
    /// A coalesced run of pacer departures: **one** timeline event standing in for the
    /// back-to-back [`NetEvent::SendUplink`]s of a capture (or retransmission batch). The
    /// event fires at each distinct departure time, delivers every packet due, then
    /// re-arms itself at the next departure *under its original insertion sequence* — see
    /// [`NetEventSink::reschedule_net_run`] for why that preserves exact event ordering.
    UplinkRun(PacketRun),
}

/// A contiguous batch of pacer departures travelling as one timeline event. The pacer is
/// globally FIFO-monotone — [`Pacer::schedule_send`] returns nondecreasing times across
/// *all* calls — so the departures of one scheduling burst (a capture's media + parity,
/// or one feedback event's retransmissions) are contiguous in `(time, seq)` order and can
/// ride a single slab slot instead of one per packet.
#[derive(Debug)]
pub(crate) struct PacketRun {
    /// The run event's insertion sequence on its timeline. Assigned by
    /// [`NetEventSink::schedule_net_run`]; re-arms reuse it so the run keeps its
    /// tie-break position among same-time events across every firing.
    pub(crate) seq: u64,
    /// Index of the first not-yet-delivered departure in `items`.
    pub(crate) cursor: usize,
    /// `(departure time µs, packet)` in pacer order (departure times nondecreasing).
    /// The buffer is pooled in [`Transport::run_pool`] once the run completes.
    pub(crate) items: Vec<(u64, RtpPacket)>,
}

/// Where a [`TurnMachine`] schedules its follow-on events. Implemented once, by
/// [`MemberSink`]: every timeline carries member-tagged events.
pub(crate) trait NetEventSink {
    /// Schedules `event` at `when` on the owning timeline.
    fn schedule_net(&mut self, when: SimTime, event: NetEvent);

    /// Schedules a fresh packet run at `when` (its first departure). Implementations must
    /// record the event's insertion sequence in `run.seq` before scheduling — the seq a
    /// plain schedule call would assign, i.e. the timeline's `next_seq()`.
    fn schedule_net_run(&mut self, when: SimTime, run: PacketRun);

    /// Re-arms a partially delivered run at `when` (its next departure) **under its
    /// original insertion sequence** (`run.seq`, via the kernel's `schedule_at_with_seq`).
    ///
    /// Keeping the seq is what makes coalescing invisible to event ordering: in
    /// per-packet mode every departure of the burst carries a seq from the burst's
    /// scheduling instant, so at a shared firing time the whole burst sorts before any
    /// later-scheduled event (arrivals, polls) and after any earlier-scheduled one. A
    /// re-armed run with its original seq sorts exactly the same way; a fresh seq would
    /// instead sort the tail of the run *after* events scheduled since, reordering
    /// same-instant deliveries. Safe because the run's previous firing has already
    /// popped — no two live events ever share the seq.
    fn reschedule_net_run(&mut self, when: SimTime, run: PacketRun);
}

/// One member's transport event on a timeline shared by several members (the dslab
/// actor-tagging pattern): a lane shard's conversations, or a contention cell's tenants.
#[derive(Debug)]
pub(crate) struct MemberEvent {
    /// The member's index on the timeline.
    pub(crate) member: u32,
    /// The member's transport event.
    pub(crate) event: NetEvent,
}

/// Tags a member's [`NetEvent`]s on their way into a timeline whose event type `E` can
/// carry a [`MemberEvent`] — the lockstep drain's `Simulation<MemberEvent>` itself, or a
/// driver's own event enum with a member-event variant.
pub(crate) struct MemberSink<'a, E> {
    pub(crate) member: u32,
    pub(crate) sim: &'a mut Simulation<E>,
}

impl<E: From<MemberEvent>> MemberSink<'_, E> {
    fn tag(&self, event: NetEvent) -> E {
        E::from(MemberEvent {
            member: self.member,
            event,
        })
    }
}

impl<E: From<MemberEvent>> NetEventSink for MemberSink<'_, E> {
    fn schedule_net(&mut self, when: SimTime, event: NetEvent) {
        let event = self.tag(event);
        self.sim.schedule_at(when, event);
    }

    fn schedule_net_run(&mut self, when: SimTime, mut run: PacketRun) {
        // The run's seq lives on the shared timeline — the tagged event's insertion seq.
        run.seq = self.sim.next_seq();
        let event = self.tag(NetEvent::UplinkRun(run));
        self.sim.schedule_at(when, event);
    }

    fn reschedule_net_run(&mut self, when: SimTime, run: PacketRun) {
        let seq = run.seq;
        let event = self.tag(NetEvent::UplinkRun(run));
        self.sim.schedule_at_with_seq(when, seq, event);
    }
}

/// Which uplink a turn's packets ride. `Private` is the classic single-tenant path — the
/// transport's own emulated uplink, byte-for-byte the pre-contention behaviour. `Shared`
/// redirects every uplink operation to one flow of a [`SharedLink`] contended by other
/// tenants; the private uplink then sits idle (its RNG streams are never drawn from).
/// The downlink (feedback path) always stays private: the shared bottleneck models the
/// congested uplink/cell, not the return path.
pub(crate) enum UplinkPort<'a> {
    /// Use the transport's own emulator uplink.
    Private,
    /// Contend for a shared bottleneck as the given flow.
    Shared {
        /// The shared bottleneck link.
        link: &'a mut SharedLink,
        /// This tenant's flow index on it.
        flow: usize,
    },
}

impl UplinkPort<'_> {
    fn send(&mut self, emulator: &mut NetworkEmulator, packet: &Packet, now: SimTime) -> DeliveryOutcome {
        match self {
            UplinkPort::Private => emulator.send(Direction::Uplink, packet, now),
            UplinkPort::Shared { link, flow } => link.send(*flow, packet, now),
        }
    }

    fn take_duplicate(&mut self, emulator: &mut NetworkEmulator) -> Option<SimTime> {
        match self {
            UplinkPort::Private => emulator.take_uplink_duplicate(),
            UplinkPort::Shared { link, .. } => link.take_duplicate(),
        }
    }

    fn backlog_ms(&self, emulator: &NetworkEmulator, now: SimTime) -> f64 {
        match self {
            UplinkPort::Private => emulator.uplink().backlog(now).as_millis_f64(),
            UplinkPort::Shared { link, .. } => link.backlog(now).as_millis_f64(),
        }
    }

    fn counters(&self, emulator: &NetworkEmulator) -> LinkCounters {
        match self {
            UplinkPort::Private => emulator.uplink().counters(),
            UplinkPort::Shared { link, flow } => link.flow_counters(*flow),
        }
    }
}

/// Per-frame transport bookkeeping.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct NetFrameProgress {
    pub(crate) send_start: Option<SimTime>,
    pub(crate) fec_recovered: bool,
}

/// The graceful-degradation ladder's current rung. The ladder only moves when
/// [`crate::net_session::DegradationConfig::enabled`] — otherwise the transport stays
/// pinned at [`DegradationLevel::Normal`] and behaves exactly as before the ladder
/// existed.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
enum DegradationLevel {
    /// Full operation: every capture is encoded and sent.
    #[default]
    Normal,
    /// Stressed: recovering from a fallback, or the send backlog is deep — late frames
    /// are shed whole before their parity is built.
    SoftFallback,
    /// The watchdog declared the feedback channel dead: captures are suppressed and tiny
    /// probes go out instead, so the first post-outage feedback can find its way back.
    OutageSuppress,
}

/// The compute half of a networked session: the chat pipeline and every reusable scratch.
#[derive(Debug)]
pub(crate) struct NetCompute {
    pub(crate) options: NetSessionOptions,
    clip_model: ClipModel,
    allocator: QpAllocator,
    encoder: Encoder,
    decoder: Decoder,
    responder: MllmChat,
    clip: ClipScratch,
    qp_map: QpMap,
    /// Scratch map the rate-control search refills for the one real encode.
    probe_map: QpMap,
    /// Per-frame probe coefficients (grid raster + QP-independent rate terms), prepared
    /// once per capture so the rate search's probes never re-rasterize the frame.
    rate_plan: RatePlan,
    /// The previous capture's rate-search boundary: where the next search starts. It
    /// only decides which levels get probed, never the level chosen.
    rate_hint: i32,
    encode_scratches: Vec<EncodeScratch>,
    /// The committed encode of each turn slot (needed again at decode time). Slots are
    /// turn-local: a conversation reuses them every turn.
    encoded_slots: Vec<EncodedFrame>,
    decode_scratch: DecodeScratch,
    decoded: Vec<DecodedFrame>,
    mllm: MllmScratch,
    /// Derives [`NetCompute::query`] in place, and only when the question's words or
    /// concepts change.
    query_builder: QueryBuilder,
    query: TextQuery,
}

impl NetCompute {
    pub(crate) fn new(options: NetSessionOptions, config: StreamerConfig, clip_model: ClipModel) -> Self {
        Self {
            allocator: QpAllocator::new(config.allocator),
            encoder: Encoder::new(config.encoder),
            decoder: Decoder::new(),
            responder: MllmChat::responder(options.seed ^ 0x5EED),
            clip_model,
            options,
            clip: ClipScratch::new(),
            qp_map: QpMap::empty(),
            probe_map: QpMap::empty(),
            rate_plan: RatePlan::new(),
            rate_hint: 0,
            encode_scratches: Vec::new(),
            encoded_slots: Vec::new(),
            decode_scratch: DecodeScratch::new(),
            decoded: Vec::new(),
            mllm: MllmScratch::new(),
            query_builder: QueryBuilder::new(),
            query: TextQuery::from_concepts("", std::iter::empty::<String>()),
        }
    }

    /// Re-derives the text query only when the question's words or concepts change, in
    /// place, so a conversation asking a new question each turn allocates nothing for it.
    /// Baseline mode never reads the query, so it derives none.
    fn refresh_query(&mut self, question: &Question) {
        if self.options.mode == StreamingMode::ContextAware {
            self.query_builder.refill(
                &mut self.query,
                &question.text,
                self.clip_model.ontology(),
                &question.query_concepts,
            );
        }
    }

    /// Encodes `frame` into turn slot `slot` at the closest achievable size to
    /// `budget_bits`, returning the number of rate probes the search ran and the Eq. 1
    /// map's patch-memo counts (zero in baseline mode).
    ///
    /// Context-aware mode searches a uniform QP offset on top of the frame's Eq. 2 map
    /// (coded bits are monotone decreasing in the offset — the same §3.2 bitrate-matching
    /// procedure `ContextAwareStreamer::encode_at_bitrate` uses, but per frame and per
    /// target); baseline mode searches the single uniform QP a traditional WebRTC
    /// encoder's rate control would pick. Either search returns exactly the level a
    /// bisection over the range picks, but starts from the previous capture's boundary,
    /// so a warm conversation probes ~3–4 levels per capture instead of ~7.
    fn encode_slot_to_budget(&mut self, slot: usize, frame: &Frame, budget_bits: f64) -> (u32, PatchCounts) {
        if self.encode_scratches.len() <= slot {
            self.encode_scratches.resize_with(slot + 1, EncodeScratch::new);
        }
        if self.encoded_slots.len() <= slot {
            self.encoded_slots
                .resize_with(slot + 1, EncodedFrame::placeholder);
        }
        let grid = self.encoder.grid_for(frame);
        // One rate plan per capture: the grid raster and every QP-independent rate term
        // are folded into per-block coefficients once, so each probe is a tight
        // table-lookup pass instead of a full re-rasterization (this was ~90 % of a warm
        // turn before; see DESIGN.md §"Where the warm turn's microsecond goes"). Probes
        // are byte-exact with `predict_map_size` and therefore with a real encode
        // (test-asserted), so the chosen level is the one full encodes would pick.
        let (search, patches) = match self.options.mode {
            StreamingMode::ContextAware => {
                let importance = self
                    .clip_model
                    .correlation_map_coherent(frame, &self.query, &mut self.clip);
                self.allocator.allocate_into(importance, grid, &mut self.qp_map);
                self.encoder
                    .prepare_rate_plan(frame, Some(&self.qp_map), &mut self.rate_plan);
                let search = self
                    .encoder
                    .search_plan_offset(&self.rate_plan, budget_bits, self.rate_hint);
                (search, self.clip.take_patch_counts())
            }
            StreamingMode::Baseline => {
                self.encoder.prepare_rate_plan(frame, None, &mut self.rate_plan);
                let search = self
                    .encoder
                    .search_plan_uniform(&self.rate_plan, budget_bits, self.rate_hint);
                (search, PatchCounts::default())
            }
        };
        self.rate_hint = search.boundary;
        let best_level = search.level;
        // One real encode, at the level the search settled on.
        let mut probe_map = std::mem::replace(&mut self.probe_map, QpMap::empty());
        match self.options.mode {
            StreamingMode::ContextAware => self.qp_map.offset_all_into(best_level, &mut probe_map),
            StreamingMode::Baseline => probe_map.fill_uniform(grid, Qp::new(best_level)),
        }
        // `encode_into_planned` reuses the raster the plan just filled for this frame —
        // bit-identical to `encode_into`, one rasterization cheaper.
        self.encoder.encode_into_planned(
            frame,
            &probe_map,
            &self.rate_plan,
            &mut self.encode_scratches[slot],
            &mut self.encoded_slots[slot],
        );
        self.probe_map = probe_map;
        (search.probes, patches)
    }
}

/// The transport half: the emulated path and every sender/receiver machine, with frame
/// bookkeeping indexed by *global* frame id and per-turn counters the report reads.
#[derive(Debug)]
pub(crate) struct Transport {
    emulator: NetworkEmulator,
    packetizer: Packetizer,
    pacer: Pacer,
    rtx: RtxQueue,
    fec_encoder: FecEncoder,
    fec_recovery: FecRecovery,
    assembler: FrameAssembler,
    pub(crate) nack_gen: NackGenerator,
    /// Feedback the receiver has produced but the sender has not yet seen:
    /// (time the sender learns the packet's fate, the per-packet feedback).
    cc_pending: Vec<(u64, PacketFeedback)>,
    /// Reusable per-drain feedback fold: matured entries stream into this while
    /// `cc_pending` compacts in place, then the fold goes to GCC whole — no
    /// intermediate report vector.
    cc_fold: FeedbackFold,
    /// Free list of completed NACK-sequence buffers (the payload of
    /// [`NetEvent::FeedbackArrival`]), recycled like `run_pool`.
    nack_pool: Vec<Vec<u64>>,
    /// Reusable packetization buffer.
    media: Vec<RtpPacket>,
    /// Reusable FEC parity buffer.
    parity: Vec<RtpPacket>,
    /// Free list of completed [`PacketRun`] buffers. Bounded by the peak number of
    /// simultaneously in-flight runs (a buffer only enters the pool when its run
    /// completes, and every new run drains the pool first), so warm turns schedule
    /// coalesced departures without touching the allocator.
    run_pool: Vec<Vec<(u64, RtpPacket)>>,
    poll_outstanding: bool,
    next_net_packet_id: u64,
    up_prop_us: u64,
    down_prop_us: u64,
    max_payload: u64,
    // --- global frame bookkeeping (indexed by frame id) ---
    outgoing: Vec<OutgoingFrame>,
    media_first_seq: Vec<u64>,
    /// Parity group size each live frame was protected with — arrival-side FEC lookups
    /// must use the size *the frame was encoded under*, not the encoder's current size
    /// (adaptive FEC re-sizes between frames).
    media_group_size: Vec<u32>,
    /// Sequence → (frame index, media packet index) for FEC-group reconstruction.
    seq_to_media: SeqRing<(usize, usize)>,
    progress: Vec<NetFrameProgress>,
    /// Frames below this id are retired: their turn has been reported, so arrivals for
    /// them only feed sequence-continuity bookkeeping.
    retired_below: usize,
    // --- per-turn counters, reset by `begin_turn` ---
    turn_packets_lost: u64,
    turn_retransmissions_sent: u64,
    turn_target_sum: f64,
    turn_target_min: f64,
    turn_target_max: f64,
    /// Frame transmission latencies recorded at the current turn's deadline.
    pub(crate) turn_frame_latencies: Vec<SimDuration>,
    /// Reusable percentile scratch for the turn report (cleared each turn).
    latency_scratch: LatencyStats,
    // --- resilience bookkeeping ---
    /// Current degradation-ladder rung (always `Normal` when the ladder is disabled).
    degradation_level: DegradationLevel,
    /// Time of the most recent outage-dropped uplink send, awaiting the first frame
    /// completion after it (the `time_to_recover_ms` anchor). Survives turn boundaries:
    /// an outage at a turn's tail is recovered from — and measured — in the next turn.
    pending_outage_recovery: Option<SimTime>,
    /// Uplink link-counter snapshot at the last report, for per-turn deltas.
    counters_reported: LinkCounters,
    /// GCC watchdog-fallback count at the last report, for per-turn deltas.
    watchdog_fallbacks_reported: u64,
    turn_degradation_events: u64,
    turn_frames_shed: u64,
    turn_captures_suppressed: u64,
    turn_probes_sent: u64,
    // --- always-on serving metrics ---
    /// The session's always-on counters. Shared by `Arc`, so counters survive transport
    /// rebuilds: a `NetworkedChatSession` hands the same handle to the fresh transport it
    /// builds every turn.
    metrics: Arc<SessionCounters>,
    /// `nack_gen.nacks_suppressed()` at the last report — per-turn commit delta.
    nacks_suppressed_reported: u64,
}

impl Transport {
    /// A fresh transport on `options.path`, with the pacer tuned to the congestion
    /// controller's current estimate (exactly how a turn begins). Owns a fresh counter
    /// set; sessions that rebuild their transport per turn pass a persistent handle via
    /// [`Transport::with_metrics`] instead.
    pub(crate) fn new(options: &NetSessionOptions, initial_estimate_bps: f64) -> Self {
        Self::with_metrics(options, initial_estimate_bps, Arc::new(SessionCounters::new()))
    }

    /// Like [`Transport::new`], but ticking the caller-owned `metrics` counters.
    pub(crate) fn with_metrics(
        options: &NetSessionOptions,
        initial_estimate_bps: f64,
        metrics: Arc<SessionCounters>,
    ) -> Self {
        Self {
            emulator: NetworkEmulator::new(options.path.clone(), options.seed),
            packetizer: Packetizer::default(),
            pacer: Pacer::new(PacerConfig::from_target_bitrate(initial_estimate_bps, 2.5)),
            rtx: RtxQueue::new(),
            fec_encoder: FecEncoder::new(options.fec),
            fec_recovery: FecRecovery::new(),
            assembler: FrameAssembler::new(),
            nack_gen: NackGenerator::new(options.nack),
            cc_pending: Vec::new(),
            cc_fold: FeedbackFold::new(),
            nack_pool: Vec::new(),
            media: Vec::new(),
            parity: Vec::new(),
            run_pool: Vec::new(),
            poll_outstanding: false,
            next_net_packet_id: 0,
            up_prop_us: options.path.uplink.propagation_delay.as_micros(),
            down_prop_us: options.path.downlink.propagation_delay.as_micros(),
            max_payload: Packetizer::default().max_payload() as u64,
            outgoing: Vec::new(),
            media_first_seq: Vec::new(),
            media_group_size: Vec::new(),
            seq_to_media: SeqRing::new(),
            progress: Vec::new(),
            retired_below: 0,
            turn_packets_lost: 0,
            turn_retransmissions_sent: 0,
            turn_target_sum: 0.0,
            turn_target_min: f64::INFINITY,
            turn_target_max: f64::NEG_INFINITY,
            turn_frame_latencies: Vec::new(),
            latency_scratch: LatencyStats::new(),
            degradation_level: DegradationLevel::Normal,
            pending_outage_recovery: None,
            counters_reported: LinkCounters::default(),
            watchdog_fallbacks_reported: 0,
            turn_degradation_events: 0,
            turn_frames_shed: 0,
            turn_captures_suppressed: 0,
            turn_probes_sent: 0,
            metrics,
            nacks_suppressed_reported: 0,
        }
    }

    /// A handle to the session's always-on counters (snapshot off the hot path).
    pub(crate) fn metrics_handle(&self) -> Arc<SessionCounters> {
        Arc::clone(&self.metrics)
    }

    /// Number of frames handed to this transport so far (= the next global frame id).
    pub(crate) fn frames_sent(&self) -> usize {
        self.retired_below + self.outgoing.len()
    }

    /// The live-window slot of global frame `frame`, or `None` when the frame is retired
    /// (or unknown). The per-frame vectors (`outgoing`, `progress`, `media_first_seq`)
    /// slide with `retired_below`, so a conversation's memory stays bounded by its live
    /// turn — global ids translate through this offset.
    fn live_slot(&self, frame: usize) -> Option<usize> {
        frame
            .checked_sub(self.retired_below)
            .filter(|slot| *slot < self.outgoing.len())
    }

    /// The queueing backlog of the uplink `port` names, in milliseconds — what a new turn
    /// inherits from its predecessor on a persistent timeline.
    pub(crate) fn uplink_backlog_ms(&self, port: &UplinkPort<'_>, now: SimTime) -> f64 {
        port.backlog_ms(&self.emulator, now)
    }

    /// Snapshot of the private uplink's cumulative counters (reads existing totals; no
    /// hot-path bookkeeping).
    pub(crate) fn uplink_counters(&self) -> LinkCounters {
        self.emulator.uplink().counters()
    }

    /// Resets the per-turn counters.
    fn begin_turn(&mut self) {
        self.turn_packets_lost = 0;
        self.turn_retransmissions_sent = 0;
        self.turn_target_sum = 0.0;
        self.turn_target_min = f64::INFINITY;
        self.turn_target_max = f64::NEG_INFINITY;
        self.turn_frame_latencies.clear();
        self.turn_degradation_events = 0;
        self.turn_frames_shed = 0;
        self.turn_captures_suppressed = 0;
        self.turn_probes_sent = 0;
    }

    /// The spread between the largest and smallest ABR target of the current turn — the
    /// within-turn convergence signal (a cold controller swings, a warm one holds).
    pub(crate) fn turn_target_swing_bps(&self) -> f64 {
        if self.turn_target_max >= self.turn_target_min {
            self.turn_target_max - self.turn_target_min
        } else {
            0.0
        }
    }

    /// NACK requests dropped by deadline-aware suppression so far.
    pub(crate) fn nacks_suppressed(&self) -> u64 {
        self.nack_gen.nacks_suppressed()
    }

    /// A cleared run buffer, recycled from the pool when one is free.
    fn take_run_buf(&mut self) -> Vec<(u64, RtpPacket)> {
        self.run_pool.pop().unwrap_or_default()
    }

    /// Schedules `items` as one coalesced [`PacketRun`] at its first departure, or
    /// returns the buffer to the pool when the burst turned out empty.
    fn dispatch_run<S: NetEventSink>(&mut self, items: Vec<(u64, RtpPacket)>, sink: &mut S) {
        match items.first() {
            Some(&(first_us, _)) => sink.schedule_net_run(
                SimTime::from_micros(first_us),
                PacketRun {
                    seq: 0, // assigned by the sink
                    cursor: 0,
                    items,
                },
            ),
            None => self.recycle_run_buf(items),
        }
    }

    /// Returns a completed run's buffer to the pool (capacity kept).
    fn recycle_run_buf(&mut self, mut buf: Vec<(u64, RtpPacket)>) {
        buf.clear();
        self.run_pool.push(buf);
    }

    /// A cleared NACK-sequence buffer, recycled from the pool when one is free.
    fn take_nack_buf(&mut self) -> Vec<u64> {
        self.nack_pool.pop().unwrap_or_default()
    }

    /// Returns a consumed [`NetEvent::FeedbackArrival`] payload to the pool
    /// (capacity kept).
    fn recycle_nack_buf(&mut self, mut buf: Vec<u64>) {
        buf.clear();
        self.nack_pool.push(buf);
    }

    /// Number of pooled (idle) run buffers — the reuse/leak invariant tests read this.
    #[cfg(test)]
    pub(crate) fn run_pool_len(&self) -> usize {
        self.run_pool.len()
    }

    /// True when every retired turn's tracking state was actually dropped — the
    /// bounded-memory invariant of long conversations, checked right after a turn was
    /// retired (so nothing live should remain either).
    #[cfg(test)]
    pub(crate) fn tracked_state_is_bounded(&self) -> bool {
        self.assembler.tracked_frames() == 0
            && self.seq_to_media.is_empty()
            && self.fec_recovery.tracked_groups() == 0
            && self.rtx.stored() == 0
            && self.outgoing.is_empty()
            && self.progress.is_empty()
            && self.media_first_seq.is_empty()
            && self.media_group_size.is_empty()
    }

    /// Retires every frame below `frame` (all reported turns): reassembly, FEC-group,
    /// sequence-mapping and per-frame bookkeeping state for them is dropped, bounding a
    /// conversation's memory to the live turn regardless of how many turns it has run
    /// (the drained vectors keep their capacity, so steady-state turns stay
    /// allocation-stable too). Sequence-continuity state (`highest_seen`) survives, so
    /// gap detection across the boundary stays exact.
    fn retire_below(&mut self, frame: usize) {
        if frame <= self.retired_below {
            return;
        }
        let drop_n = (frame - self.retired_below).min(self.outgoing.len());
        self.outgoing.drain(..drop_n);
        self.progress.drain(..drop_n);
        self.media_first_seq.drain(..drop_n);
        self.media_group_size.drain(..drop_n);
        self.retired_below = frame;
        let bound_seq = self.packetizer.next_sequence();
        self.seq_to_media.retain(|_, (f, _)| *f >= frame);
        self.assembler.retire_before(frame as u64);
        self.fec_recovery.retire_before(frame as u64);
        self.rtx.forget_before(bound_seq);
        self.nack_gen.forget_below(bound_seq);
    }
}

/// One turn's window geometry on the shared timeline.
#[derive(Debug, Clone, Copy)]
pub(crate) struct TurnWindow {
    /// Global id of the turn's first frame.
    base: usize,
    /// Capture time of the turn's first frame, in absolute µs.
    start_us: u64,
    frame_interval_us: u64,
}

impl TurnWindow {
    fn capture_ts_us(&self, global: usize) -> u64 {
        self.start_us + (global - self.base) as u64 * self.frame_interval_us
    }
}

/// One planned turn window: its geometry on the timeline, its last capture and the answer
/// deadline the caller must drain to before concluding.
#[derive(Debug, Clone, Copy)]
pub(crate) struct TurnPlan {
    pub(crate) window: TurnWindow,
    /// Capture time of the turn's last frame.
    pub(crate) last_capture: SimTime,
    pub(crate) horizon: SimTime,
}

impl TurnPlan {
    /// The geometry of a `frame_count`-frame turn whose first frame (global id `base`) is
    /// captured at `start`: frames `1 / capture_fps` apart (rounded to the microsecond),
    /// answer deadline `drain_secs` after the last capture. The one place the capture
    /// interval and the horizon are derived — every driver plans its turns through it.
    ///
    /// # Panics
    ///
    /// Panics if `frame_count` is zero: a turn with no capture has no deadline.
    pub(crate) fn new(options: &NetSessionOptions, base: usize, start: SimTime, frame_count: usize) -> Self {
        assert!(frame_count > 0, "a chat turn needs at least one frame");
        let window = TurnWindow {
            base,
            start_us: start.as_micros(),
            frame_interval_us: (1e6 / options.capture_fps).round() as u64,
        };
        let last_capture_us = window.capture_ts_us(base + frame_count - 1);
        let drain_us = (options.drain_secs.max(0.0) * 1e6).round() as u64;
        Self {
            window,
            last_capture: SimTime::from_micros(last_capture_us),
            horizon: SimTime::from_micros(last_capture_us + drain_us),
        }
    }
}

/// Borrows the compute and transport halves for one event and handles it. `live` holds
/// the open turn's frames and window; it is `None` between turns (think time), when no
/// capture is pending — only deliveries, polls and feedback.
pub(crate) struct TurnMachine<'a> {
    pub(crate) compute: &'a mut NetCompute,
    pub(crate) gcc: &'a mut GccController,
    pub(crate) t: &'a mut Transport,
    pub(crate) live: Option<(&'a [Frame], TurnWindow)>,
    pub(crate) port: UplinkPort<'a>,
}

impl TurnMachine<'_> {
    /// Handles one event, scheduling follow-ons into `sink`.
    pub(crate) fn handle<S: NetEventSink>(&mut self, now: SimTime, event: NetEvent, sink: &mut S) {
        let t = &mut *self.t;
        match event {
            NetEvent::Capture(i) => {
                let (frames, window) = self.live.expect("capture event fired outside a turn window");
                // --- Close the loop: everything the sender has learned by now. Matured
                // entries fold straight into the GCC summary while the pending ring
                // compacts in place — maturity times are not monotone (a loss matures on
                // a fixed report delay, possibly before an earlier send's arrival), so
                // this must stay a full in-order scan, not a front-pop.
                t.cc_fold.clear();
                let fold = &mut t.cc_fold;
                t.cc_pending.retain(|(known_at, fb)| {
                    if *known_at <= now.as_micros() {
                        fold.push(fb);
                        false
                    } else {
                        true
                    }
                });
                if !t.cc_fold.is_empty() {
                    self.gcc.on_feedback_fold_at(now, &t.cc_fold);
                }
                self.gcc.poll_watchdog(now);

                // --- The degradation ladder decides what this capture tick does.
                let deg = self.compute.options.degradation;
                let backlog_ms = self.port.backlog_ms(&t.emulator, now);
                let level = if !deg.enabled {
                    DegradationLevel::Normal
                } else if self.gcc.is_silent() {
                    DegradationLevel::OutageSuppress
                } else if self.gcc.in_fallback() || backlog_ms > deg.shed_backlog_ms {
                    DegradationLevel::SoftFallback
                } else {
                    DegradationLevel::Normal
                };
                if level != t.degradation_level {
                    t.degradation_level = level;
                    t.turn_degradation_events += 1;
                }

                let fps = self.compute.options.capture_fps;
                let target_bps = self.compute.options.abr.target_bitrate(self.gcc.estimate_bps());
                t.turn_target_sum += target_bps;
                t.turn_target_min = t.turn_target_min.min(target_bps);
                t.turn_target_max = t.turn_target_max.max(target_bps);
                if t.pacer.set_rate(target_bps * 2.5, now) {
                    t.metrics.pacer_rate_clamps.inc();
                }

                let local = i - window.base;
                debug_assert_eq!(
                    t.retired_below + t.outgoing.len(),
                    i,
                    "captures must arrive in frame order"
                );
                let suppress = level == DegradationLevel::OutageSuppress;
                let shed = level == DegradationLevel::SoftFallback && backlog_ms > deg.shed_backlog_ms;
                if suppress || shed {
                    // Placeholder bookkeeping keeps the frame-order invariant and slot
                    // indexing intact: the frame's slot exists, but nothing is encoded,
                    // packetized or expected by the assembler — at the deadline the frame
                    // simply reads as never delivered (the decoder conceals the gap).
                    t.outgoing.push(OutgoingFrame {
                        frame_id: i as u64,
                        capture_ts_us: window.capture_ts_us(i),
                        size_bytes: 0,
                        is_keyframe: false,
                    });
                    t.progress.push(NetFrameProgress::default());
                    t.media_first_seq.push(u64::MAX);
                    t.media_group_size.push(0);
                    if shed {
                        t.turn_frames_shed += 1;
                        return;
                    }
                    t.turn_captures_suppressed += 1;
                    // The keep-alive probe rides the suppressed capture tick: a tiny
                    // uplink packet whose feedback (or continued silence) tells the
                    // watchdog whether the path is back.
                    let probe = Packet::new(t.next_net_packet_id, deg.probe_packet_bytes, now).with_flow(0);
                    t.next_net_packet_id += 1;
                    t.turn_probes_sent += 1;
                    t.metrics.packets_sent.inc();
                    let outcome = self.port.send(&mut t.emulator, &probe, now);
                    match outcome.arrival() {
                        Some(arrival) => t.cc_pending.push((
                            arrival.as_micros() + t.down_prop_us,
                            PacketFeedback {
                                sent_at: now,
                                arrived_at: Some(arrival),
                                size_bytes: deg.probe_packet_bytes,
                            },
                        )),
                        None => {
                            t.turn_packets_lost += 1;
                            if outcome == DeliveryOutcome::DroppedOutage {
                                // Blackout silence: no synthetic loss report (see the
                                // media-send loss path) — the watchdog keeps decaying
                                // until a probe actually makes it through.
                                t.pending_outage_recovery = Some(now);
                            } else {
                                t.cc_pending.push((
                                    now.as_micros() + t.up_prop_us + t.down_prop_us + 20_000,
                                    PacketFeedback {
                                        sent_at: now,
                                        arrived_at: None,
                                        size_bytes: deg.probe_packet_bytes,
                                    },
                                ));
                            }
                        }
                    }
                    return;
                }

                // --- Adaptive FEC: re-size the parity groups from the live loss estimate
                // and shave the parity overhead off the media budget, so media + parity
                // together never exceed the ABR target.
                let adaptive = self.compute.options.adaptive_fec;
                if adaptive.enabled && self.compute.options.fec.is_enabled() {
                    let g = adaptive
                        .group_for_loss(self.gcc.loss_estimate(), self.compute.options.fec.group_size);
                    t.fec_encoder.set_group_size(g);
                }
                let group_size = t.fec_encoder.group_size();
                let budget_bits = if adaptive.enabled && group_size > 0 {
                    (target_bps / fps) * group_size as f64 / (group_size as f64 + 1.0)
                } else {
                    target_bps / fps
                };

                // --- Encode frame i to the per-frame budget the target implies.
                let (probes, patches) =
                    self.compute
                        .encode_slot_to_budget(local, &frames[local], budget_bits);
                t.metrics.rate_searches.inc();
                t.metrics.rate_probes.add(probes.into());
                t.metrics.clip_patch_lookups.add(patches.lookups);
                t.metrics.clip_patch_evals.add(patches.evals);
                let encoded = &self.compute.encoded_slots[local];
                let frame_out = OutgoingFrame {
                    frame_id: i as u64,
                    capture_ts_us: window.capture_ts_us(i),
                    size_bytes: encoded.total_bytes(),
                    is_keyframe: encoded.frame_type == aivc_videocodec::FrameType::Intra,
                };
                t.outgoing.push(frame_out);
                t.progress.push(NetFrameProgress::default());
                t.assembler.expect_frame(&frame_out);

                // --- Packetize, protect, pace.
                t.packetizer.packetize_into(&frame_out, &mut t.media);
                if group_size > 0 {
                    for (pi, p) in t.media.iter_mut().enumerate() {
                        p.fec_group = group_of_index(group_size, pi);
                    }
                }
                let packetizer = &mut t.packetizer;
                let (fec_encoder, parity) = (&t.fec_encoder, &mut t.parity);
                fec_encoder.protect_into(&t.media, || packetizer.allocate_sequence(), parity);
                t.media_first_seq.push(t.media[0].header.sequence);
                t.media_group_size.push(group_size);
                // Coalesced mode rides the whole burst (media + parity) on one run event;
                // per-packet mode schedules one slab slot per departure (kept for the
                // equivalence property suite). Pacer state advances identically either way.
                let mut run_items = if self.compute.options.coalesce_delivery {
                    Some(t.take_run_buf())
                } else {
                    None
                };
                for (pi, p) in t.media.iter().enumerate() {
                    if !t.seq_to_media.insert(p.header.sequence, (i, pi)) {
                        t.metrics.late_seq_drops.inc();
                    }
                    let _ = t.rtx.remember(p);
                    let when = t.pacer.schedule_send(p.wire_size(), now);
                    match &mut run_items {
                        Some(items) => items.push((when.as_micros(), *p)),
                        None => sink.schedule_net(when, NetEvent::SendUplink(*p)),
                    }
                }
                for p in &t.parity {
                    let when = t.pacer.schedule_send(p.wire_size(), now);
                    match &mut run_items {
                        Some(items) => items.push((when.as_micros(), *p)),
                        None => sink.schedule_net(when, NetEvent::SendUplink(*p)),
                    }
                }
                if let Some(items) = run_items {
                    t.dispatch_run(items, sink);
                }
            }
            NetEvent::UplinkRun(mut run) => {
                // Deliver every departure due now (equal-time departures of one burst are
                // consecutive in per-packet pop order too — their seqs were consecutive),
                // then re-arm at the next departure under the run's original seq.
                let now_us = now.as_micros();
                while let Some(&(dep_us, packet)) = run.items.get(run.cursor) {
                    if dep_us > now_us {
                        break;
                    }
                    run.cursor += 1;
                    self.deliver_uplink(now, packet, sink);
                }
                match run.items.get(run.cursor) {
                    Some(&(next_us, _)) => sink.reschedule_net_run(SimTime::from_micros(next_us), run),
                    None => self.t.recycle_run_buf(run.items),
                }
            }
            NetEvent::SendUplink(packet) => self.deliver_uplink(now, packet, sink),
            NetEvent::UplinkArrival(packet) => {
                let late_before = t.nack_gen.late_drops();
                t.nack_gen.on_packet(packet.header.sequence, now);
                let late_now = t.nack_gen.late_drops();
                if late_now > late_before {
                    t.metrics.late_seq_drops.add(late_now - late_before);
                }
                let frame_idx = packet.header.frame_id as usize;
                if frame_idx >= t.retired_below {
                    // A group becomes XOR-recoverable when its *last-but-one* packet shows
                    // up — which can be the parity packet or a late media/RTX arrival — so
                    // every arrival nominates its group for a recovery check below.
                    let mut fec_candidate: Option<(usize, u32)> = None;
                    match packet.header.kind {
                        PayloadKind::Media | PayloadKind::Retransmission => {
                            t.assembler.on_packet(&packet, now);
                            // FEC bookkeeping keys off the group size the frame was
                            // *encoded* under (stored per frame), not the encoder's
                            // current size — adaptive FEC may have re-sized since.
                            if let Some((fi, media_idx)) = t.seq_to_media.get(packet.header.sequence).copied()
                            {
                                let group_size = t.live_slot(fi).map_or(0, |s| t.media_group_size[s]);
                                if let Some(group) = group_of_index(group_size, media_idx) {
                                    t.fec_recovery.on_media(fi as u64, group, media_idx);
                                    fec_candidate = Some((fi, group));
                                }
                            }
                        }
                        PayloadKind::Fec => {
                            if let (Some(group), Some(slot)) = (packet.fec_group, t.live_slot(frame_idx)) {
                                let frame = &t.outgoing[slot];
                                let group_size = t.media_group_size[slot];
                                let count = (frame.size_bytes.div_ceil(t.max_payload).max(1)) as usize;
                                for pi in 0..count {
                                    if group_of_index(group_size, pi) == Some(group) {
                                        t.fec_recovery.expect_media(frame.frame_id, group, pi);
                                    }
                                }
                                t.fec_recovery.on_parity(frame.frame_id, group);
                                fec_candidate = Some((frame_idx, group));
                            }
                        }
                        PayloadKind::Feedback => {}
                    }
                    if let Some((frame_idx, group)) = fec_candidate {
                        if let Some(slot) = t.live_slot(frame_idx) {
                            let frame = &t.outgoing[slot];
                            for recovered in t.fec_recovery.recoverable(frame.frame_id, group) {
                                let start = recovered as u64 * t.max_payload;
                                let end = ((recovered as u64 + 1) * t.max_payload).min(frame.size_bytes);
                                let synthetic = RtpPacket {
                                    header: packet.header,
                                    payload_start: start,
                                    payload_end: end,
                                    fec_group: Some(group),
                                };
                                t.assembler.on_packet(&synthetic, now);
                                // Mark the reconstructed packet received so the group is
                                // not re-recovered, and cancel its pending NACK — the
                                // receiver holds the bytes, retransmitting them would
                                // waste constrained uplink capacity.
                                t.fec_recovery.on_media(frame.frame_id, group, recovered);
                                t.nack_gen
                                    .on_packet(t.media_first_seq[slot] + recovered as u64, now);
                                t.progress[slot].fec_recovered = true;
                            }
                        }
                    }
                }
                let opts = &self.compute.options;
                if opts.enable_retransmission && t.nack_gen.pending_count() > 0 && !t.poll_outstanding {
                    t.poll_outstanding = true;
                    sink.schedule_net(now + opts.nack.reorder_guard, NetEvent::ReceiverPoll);
                }
            }
            NetEvent::ReceiverPoll => {
                let opts = &self.compute.options;
                t.poll_outstanding = false;
                if !opts.enable_retransmission {
                    return;
                }
                let mut due = t.take_nack_buf();
                t.nack_gen.due_nacks_into(now, &mut due);
                if due.is_empty() {
                    t.recycle_nack_buf(due);
                } else {
                    let fb_packet =
                        Packet::new(t.next_net_packet_id, opts.feedback_packet_bytes, now).with_flow(1);
                    t.next_net_packet_id += 1;
                    match t.emulator.send(Direction::Downlink, &fb_packet, now).arrival() {
                        Some(arrival) => sink.schedule_net(arrival, NetEvent::FeedbackArrival(due)),
                        None => t.recycle_nack_buf(due),
                    }
                }
                if t.nack_gen.pending_count() > 0 && !t.poll_outstanding {
                    t.poll_outstanding = true;
                    sink.schedule_net(now + opts.nack.retry_interval, NetEvent::ReceiverPoll);
                }
            }
            NetEvent::FeedbackArrival(sequences) => {
                // One retransmit call per NACKed sequence keeps the old→new sequence
                // pairing exact even when some sequences (e.g. lost parity packets) are
                // not in the retransmission store. The retransmission burst coalesces
                // into one run, exactly like a capture's media burst.
                let mut run_items = if self.compute.options.coalesce_delivery {
                    Some(t.take_run_buf())
                } else {
                    None
                };
                for &old_seq in &sequences {
                    let packetizer = &mut t.packetizer;
                    if let Some(p) = t.rtx.retransmit_one(old_seq, || packetizer.allocate_sequence()) {
                        if let Some(mapping) = t.seq_to_media.get(old_seq).copied() {
                            if !t.seq_to_media.insert(p.header.sequence, mapping) {
                                t.metrics.late_seq_drops.inc();
                            }
                        }
                        let when = t.pacer.schedule_send(p.wire_size(), now);
                        match &mut run_items {
                            Some(items) => items.push((when.as_micros(), p)),
                            None => sink.schedule_net(when, NetEvent::SendUplink(p)),
                        }
                    }
                }
                t.recycle_nack_buf(sequences);
                if let Some(items) = run_items {
                    t.dispatch_run(items, sink);
                }
            }
        }
    }

    /// One packet leaves the pacer and enters the uplink: the [`NetEvent::SendUplink`]
    /// body, shared verbatim by per-packet events and coalesced runs (a run calls this
    /// once per due departure, in departure order).
    fn deliver_uplink<S: NetEventSink>(&mut self, now: SimTime, packet: RtpPacket, sink: &mut S) {
        let t = &mut *self.t;
        t.metrics.packets_sent.inc();
        let frame_idx = packet.header.frame_id as usize;
        if let Some(entry) = t.live_slot(frame_idx).map(|s| &mut t.progress[s]) {
            if entry.send_start.is_none() && packet.header.kind == PayloadKind::Media {
                entry.send_start = Some(now);
            }
        }
        if packet.header.kind == PayloadKind::Retransmission {
            t.turn_retransmissions_sent += 1;
        }
        let net_packet = Packet::new(t.next_net_packet_id, packet.wire_size(), now)
            .with_flow(0)
            .with_tag(packet.header.sequence);
        t.next_net_packet_id += 1;
        let outcome = self.port.send(&mut t.emulator, &net_packet, now);
        match outcome.arrival() {
            Some(arrival) => {
                sink.schedule_net(arrival, NetEvent::UplinkArrival(packet));
                if let Some(dup_at) = self.port.take_duplicate(&mut t.emulator) {
                    // A Duplicate fault episode emitted a second copy one
                    // serialization time behind the original; reassembly and FEC
                    // bookkeeping absorb it idempotently.
                    sink.schedule_net(dup_at, NetEvent::UplinkArrival(packet));
                }
                // The receiver's next report reaches the sender one downlink
                // propagation after arrival.
                t.cc_pending.push((
                    arrival.as_micros() + t.down_prop_us,
                    PacketFeedback {
                        sent_at: now,
                        arrived_at: Some(arrival),
                        size_bytes: packet.wire_size(),
                    },
                ));
            }
            None => {
                t.turn_packets_lost += 1;
                if outcome == DeliveryOutcome::DroppedOutage {
                    // A blackout is *silence*, not a loss report: the receiver only
                    // discovers gaps from later arrivals, and during a full outage
                    // there are none. No synthetic feedback — this silence is
                    // exactly what the congestion controller's watchdog detects.
                    t.pending_outage_recovery = Some(now);
                    return;
                }
                // The sender infers the loss from the gap in the next report:
                // roughly one RTT plus a reporting guard after the send.
                t.cc_pending.push((
                    now.as_micros() + t.up_prop_us + t.down_prop_us + 20_000,
                    PacketFeedback {
                        sent_at: now,
                        arrived_at: None,
                        size_bytes: packet.wire_size(),
                    },
                ));
            }
        }
    }
}

/// Opens a turn window at `now`: refreshes the query, arms the deadline-aware NACK
/// budget, resets the per-turn counters and schedules the capture events into `sink`.
/// The caller then drains the timeline to the returned plan's horizon (handing the plan's
/// window to every capture) and calls [`conclude_turn_window`].
pub(crate) fn begin_turn_window(
    compute: &mut NetCompute,
    transport: &mut Transport,
    now: SimTime,
    sink: &mut impl NetEventSink,
    frame_count: usize,
    question: &Question,
) -> TurnPlan {
    let plan = TurnPlan::new(&compute.options, transport.frames_sent(), now, frame_count);
    compute.refresh_query(question);
    if compute.options.deadline_aware_nack {
        // Expected NACK → RTX arrival: the request rides the downlink, the retransmission
        // rides the uplink, plus a pacing/serialization guard.
        let recovery_estimate =
            SimDuration::from_micros(transport.down_prop_us + transport.up_prop_us + 10_000);
        transport
            .nack_gen
            .set_deadline(Some(plan.horizon), recovery_estimate);
    }
    transport.begin_turn();
    let window = plan.window;
    for i in window.base..window.base + frame_count {
        sink.schedule_net(
            SimTime::from_micros(window.capture_ts_us(i)),
            NetEvent::Capture(i),
        );
    }
    plan
}

/// Concludes a drained turn window: decodes what arrived, lets the MLLM answer, assembles
/// the report and retires the turn's transport state (memory stays bounded by the live
/// turn — see [`Transport::retire_below`]). `port` must be the same uplink the machine
/// sent on — it is only read here, for the per-turn fault-counter deltas.
pub(crate) fn conclude_turn_window(
    compute: &mut NetCompute,
    gcc: &mut GccController,
    transport: &mut Transport,
    port: &UplinkPort<'_>,
    plan: &TurnPlan,
    frame_count: usize,
    question: &Question,
) -> NetTurnReport {
    let window = plan.window;
    let horizon = plan.horizon;
    let fps = compute.options.capture_fps;

    // --- Deadline reached: decode whatever (partially) arrived, in capture order. The
    // per-frame vectors slide with retirement, so this turn's frames start at the slot
    // its global base translates to (callers retire all prior turns before a new one, so
    // in practice the slice is the whole live window).
    let base_slot = window.base - transport.retired_below;
    let mut decoded_count = 0usize;
    let mut frames_delivered = 0usize;
    let mut received_bits: u64 = 0;
    transport.latency_scratch.clear();
    // Time-to-recover anchor: the most recent outage-dropped send (possibly from a prior
    // turn or think gap); the first frame completing after it marks re-convergence.
    let outage_anchor = transport.pending_outage_recovery;
    let mut recovered_at: Option<SimTime> = None;
    for (local, frame_out) in transport.outgoing[base_slot..].iter().enumerate() {
        let Some(status) = transport.assembler.view(frame_out.frame_id) else {
            continue;
        };
        if status.complete {
            frames_delivered += 1;
            if let (Some(t0), Some(done)) = (outage_anchor, status.completed_at) {
                if done > t0 && recovered_at.is_none_or(|r| done < r) {
                    recovered_at = Some(done);
                }
            }
            if let (Some(done), Some(start)) = (
                status.completed_at,
                transport.progress[base_slot + local].send_start,
            ) {
                let elapsed = done.saturating_since(start);
                transport.latency_scratch.record(elapsed);
                transport.turn_frame_latencies.push(elapsed);
            }
        }
        received_bits += status.received_bytes * 8;
        if status.received_ranges.is_empty() {
            continue;
        }
        if compute.decoded.len() <= decoded_count {
            compute.decoded.push(DecodedFrame::placeholder());
        }
        compute.decoder.decode_into(
            &compute.encoded_slots[local],
            status.received_ranges,
            status.completed_at.map(|t| t.as_micros()),
            &mut compute.decode_scratch,
            &mut compute.decoded[decoded_count],
        );
        decoded_count += 1;
    }

    // --- The MLLM answers over everything that decoded before the deadline.
    let answer = compute.responder.respond_with(
        question,
        &compute.decoded[..decoded_count],
        compute.options.seed,
        &mut compute.mllm,
    );

    // --- Resilience telemetry: outage exposure, recovery time, ladder activity, and the
    // per-turn deltas of the always-on link fault counters. All-zero ("quiet") — and
    // omitted from serialization — whenever faults and the resilience stack are off.
    let time_to_recover_ms = match (transport.pending_outage_recovery, recovered_at) {
        (Some(t0), Some(done)) => {
            transport.pending_outage_recovery = None;
            Some(done.saturating_since(t0).as_millis_f64())
        }
        _ => None,
    };
    let uplink_counters = port.counters(&transport.emulator);
    let watchdog_fallbacks_now = gcc.watchdog_fallbacks();
    let resilience = FaultTelemetry {
        outage_ms: compute
            .options
            .path
            .uplink
            .faults
            .outage_overlap(SimTime::from_micros(window.start_us), horizon)
            .as_millis_f64(),
        time_to_recover_ms,
        degradation_events: transport.turn_degradation_events,
        frames_shed: transport.turn_frames_shed,
        captures_suppressed: transport.turn_captures_suppressed,
        probes_sent: transport.turn_probes_sent,
        watchdog_fallbacks: watchdog_fallbacks_now - transport.watchdog_fallbacks_reported,
        packets_duplicated: uplink_counters.duplicated - transport.counters_reported.duplicated,
        packets_reordered: uplink_counters.reordered - transport.counters_reported.reordered,
        outage_drops: uplink_counters.outage_drops - transport.counters_reported.outage_drops,
    };
    transport.counters_reported = uplink_counters;
    transport.watchdog_fallbacks_reported = watchdog_fallbacks_now;

    let window_secs = (frame_count as f64 / fps).max(1e-9);
    let encoded_bits: u64 = transport.outgoing[base_slot..]
        .iter()
        .map(|f| f.size_bytes * 8)
        .sum();
    let fec_recovered_frames = transport.progress[base_slot..]
        .iter()
        .filter(|p| p.fec_recovered)
        .count() as u64;

    // --- Commit the turn to the always-on counters, from the *same values the report
    // carries* — this is what makes the fleet rollup reconcile exactly against
    // per-session report sums at any pool size. Event-site commits would not: losses in
    // a think gap bump per-turn counters that `begin_turn` resets before any report
    // reads them. One batch of relaxed adds per turn, off the per-packet path.
    {
        let m = &transport.metrics;
        m.frames_sent.add(frame_count as u64);
        m.frames_delivered.add(frames_delivered as u64);
        m.fec_recovered_frames.add(fec_recovered_frames);
        m.packets_lost.add(transport.turn_packets_lost);
        m.retransmissions_sent.add(transport.turn_retransmissions_sent);
        m.frames_shed.add(transport.turn_frames_shed);
        m.captures_suppressed.add(transport.turn_captures_suppressed);
        m.watchdog_fallbacks.add(resilience.watchdog_fallbacks);
        let nacks_suppressed_now = transport.nack_gen.nacks_suppressed();
        m.nacks_suppressed
            .add(nacks_suppressed_now - transport.nacks_suppressed_reported);
        transport.nacks_suppressed_reported = nacks_suppressed_now;
        if decoded_count == 0 {
            // Nothing decoded by the answer deadline: the turn's answer shipped blind.
            m.deadline_missed.inc();
        }
    }
    let report = NetTurnReport {
        answer,
        frames_sent: frame_count,
        frames_delivered,
        frames_decoded: decoded_count,
        mean_target_bitrate_bps: transport.turn_target_sum / frame_count as f64,
        achieved_bitrate_bps: encoded_bits as f64 / window_secs,
        goodput_bps: received_bits as f64 / window_secs,
        p50_frame_latency_ms: transport.latency_scratch.percentile_ms(0.5),
        p95_frame_latency_ms: transport.latency_scratch.p95_ms(),
        packets_lost: transport.turn_packets_lost,
        fec_recovered_frames,
        retransmissions_sent: transport.turn_retransmissions_sent,
        final_estimate_bps: gcc.estimate_bps(),
        resilience,
    };
    transport.retire_below(transport.frames_sent());
    report
}
