//! The traced replay: one conversation's turns re-driven through the layers' public
//! functions, with a span around every call.
//!
//! The replay does what a networked turn does, in the same order, with the benchmark's
//! own glue between the calls: per capture, Eq. 1 → Eq. 2 → rate plan → probe loop →
//! encode, then packetize → FEC → pace onto an `aivc_sim::Simulation` timeline whose
//! events send over a `NetworkEmulator` (the workload's path and seed), reassemble,
//! recover, NACK and retransmit, and fold feedback into a `GccController`. At the answer
//! deadline it decodes what arrived and asks the MLLM. The per-frame coded-size budget is
//! the real turn's `mean_target_bitrate_bps / capture_fps`. The replay does not run the
//! degradation ladder (no shed or suppressed captures), so on faulty paths it sends
//! somewhat more than the real turn.

use crate::span::{Layer, Tracer};
use aivc_mllm::{MllmChat, MllmScratch, Question};
use aivc_netsim::emulator::Direction;
use aivc_netsim::{DeliveryOutcome, NetworkEmulator, Packet};
use aivc_rtc::pacer::{Pacer, PacerConfig};
use aivc_rtc::rtp::PayloadKind;
use aivc_rtc::seq_ring::SeqRing;
use aivc_rtc::{
    group_of_index, FecEncoder, FecRecovery, FeedbackFold, FrameAssembler, GccController, NackGenerator,
    OutgoingFrame, PacketFeedback, Packetizer, RtpPacket, RtxQueue,
};
use aivc_scene::{Frame, GridDims, Rect};
use aivc_semantics::{ClipModel, ClipScratch, TextQuery};
use aivc_sim::{Actor, SimDuration, SimTime, Simulation};
use aivc_videocodec::{
    DecodeScratch, DecodedFrame, Decoder, EncodeScratch, EncodedFrame, Encoder, FrameType, Qp, QpMap,
    RatePlan,
};
use aivchat_core::session::StreamingMode;
use aivchat_core::{NetSessionOptions, QpAllocator, StreamerConfig};

/// Timeline events of the replay.
#[derive(Debug)]
enum Ev {
    /// Capture of the turn's frame at this local index.
    Capture(usize),
    /// A burst of pacer departures `(µs, packet)`, delivered from `cursor` on.
    Run {
        cursor: usize,
        items: Vec<(u64, RtpPacket)>,
    },
    /// A packet reaches the receiver.
    Arrival(RtpPacket),
    /// The receiver checks for due NACKs.
    Poll,
    /// NACKed sequences reach the sender.
    Feedback(Vec<u64>),
}

/// An actor for advancing the clock once every due event has been handled.
struct Idle;

impl Actor for Idle {
    type Event = Ev;

    fn on_event(&mut self, _: SimTime, _: Ev, _: &mut Simulation<Ev>) {
        unreachable!("the replay handles every due event before advancing the clock");
    }
}

/// A frame of the current turn still tracked by the transport.
#[derive(Debug, Clone, Copy)]
struct LiveFrame {
    size_bytes: u64,
    first_seq: u64,
    group_size: u32,
}

/// Counts the replay accumulates across turns.
#[derive(Debug, Clone, Copy, Default)]
pub struct ReplayCounts {
    /// Turns replayed.
    pub turns: u64,
    /// Captures encoded.
    pub frames: u64,
    /// Rate-search probes across all captures.
    pub probes: u64,
    /// Coded bytes across all captures.
    pub bytes: u64,
    /// Σ over context-aware captures of the share of CLIP patches recomputed.
    pub dirty_patch_sum: f64,
    /// Timeline events handled.
    pub events: u64,
}

/// One conversation's compute and transport state, replayed turn by turn.
pub struct Replay {
    options: NetSessionOptions,
    context_aware: bool,
    // --- compute ---
    model: ClipModel,
    query: TextQuery,
    question: Option<Question>,
    clip: ClipScratch,
    prev_regions: Vec<(u32, Rect)>,
    allocator: QpAllocator,
    encoder: Encoder,
    decoder: Decoder,
    responder: MllmChat,
    mllm: MllmScratch,
    qp_map: QpMap,
    probe_map: QpMap,
    plan: RatePlan,
    encode_scratches: Vec<EncodeScratch>,
    encoded: Vec<EncodedFrame>,
    decode_scratch: DecodeScratch,
    decoded: Vec<DecodedFrame>,
    // --- transport ---
    sim: Simulation<Ev>,
    emulator: NetworkEmulator,
    packetizer: Packetizer,
    fec: FecEncoder,
    fec_rx: FecRecovery,
    pacer: Pacer,
    assembler: FrameAssembler,
    nack: NackGenerator,
    rtx: RtxQueue,
    gcc: GccController,
    cc_pending: Vec<(u64, PacketFeedback)>,
    fold: FeedbackFold,
    media: Vec<RtpPacket>,
    parity: Vec<RtpPacket>,
    sent: Vec<(RtpPacket, DeliveryOutcome, Option<SimTime>)>,
    /// Sequence → (frame id, media packet index), as the turn keeps it.
    seq_to_media: SeqRing<(u64, usize)>,
    /// Frames of the current turn, indexed by frame id − `turn_base`.
    live: Vec<LiveFrame>,
    turn_base: u64,
    next_frame: u64,
    next_packet_id: u64,
    poll_outstanding: bool,
    up_prop_us: u64,
    down_prop_us: u64,
    /// Counts so far.
    pub counts: ReplayCounts,
}

impl Replay {
    /// A fresh replay of a conversation with `options`, using `model` for Eq. 1.
    pub fn new(options: NetSessionOptions, model: ClipModel) -> Self {
        let config = StreamerConfig::default();
        let gcc = GccController::new(options.gcc);
        Self {
            context_aware: options.mode == StreamingMode::ContextAware,
            model,
            query: TextQuery::from_concepts("", std::iter::empty::<String>()),
            question: None,
            clip: ClipScratch::new(),
            prev_regions: Vec::new(),
            allocator: QpAllocator::new(config.allocator),
            encoder: Encoder::new(config.encoder),
            decoder: Decoder::new(),
            responder: MllmChat::responder(options.seed ^ 0x5EED),
            mllm: MllmScratch::new(),
            qp_map: QpMap::empty(),
            probe_map: QpMap::empty(),
            plan: RatePlan::new(),
            encode_scratches: Vec::new(),
            encoded: Vec::new(),
            decode_scratch: DecodeScratch::new(),
            decoded: Vec::new(),
            sim: Simulation::new(),
            emulator: NetworkEmulator::new(options.path.clone(), options.seed),
            packetizer: Packetizer::default(),
            fec: FecEncoder::new(options.fec),
            fec_rx: FecRecovery::new(),
            pacer: Pacer::new(PacerConfig::from_target_bitrate(gcc.estimate_bps(), 2.5)),
            assembler: FrameAssembler::new(),
            nack: NackGenerator::new(options.nack),
            rtx: RtxQueue::new(),
            gcc,
            cc_pending: Vec::new(),
            fold: FeedbackFold::new(),
            media: Vec::new(),
            parity: Vec::new(),
            sent: Vec::new(),
            seq_to_media: SeqRing::new(),
            live: Vec::new(),
            turn_base: 0,
            next_frame: 0,
            next_packet_id: 0,
            poll_outstanding: false,
            up_prop_us: options.path.uplink.propagation_delay.as_micros(),
            down_prop_us: options.path.downlink.propagation_delay.as_micros(),
            options,
            counts: ReplayCounts::default(),
        }
    }

    /// Replays one turn: the think gap (after the first turn), the capture window, the
    /// drain to the answer deadline, decode and answer. `budget_bits` is the per-frame
    /// coded-size budget; `think` the gap before this turn.
    pub fn turn(
        &mut self,
        frames: &[Frame],
        question: &Question,
        budget_bits: f64,
        think: SimDuration,
        tr: &mut Tracer,
    ) {
        if self.next_frame > 0 {
            let until = self.sim.now() + think;
            self.drain(until, &[], budget_bits, tr);
        }
        if self.question.as_ref() != Some(question) {
            tr.open(Layer::Query);
            self.query = TextQuery::from_words_and_concepts(
                &question.text,
                self.model.ontology(),
                question.query_concepts.iter().cloned(),
            );
            self.question = Some(question.clone());
            tr.close();
        }
        let start_us = self.sim.now().as_micros();
        let interval_us = (1e6 / self.options.capture_fps).round() as u64;
        let last_us = start_us + (frames.len() as u64 - 1) * interval_us;
        let horizon = SimTime::from_micros(last_us + (self.options.drain_secs.max(0.0) * 1e6).round() as u64);
        if self.options.deadline_aware_nack {
            let recovery = SimDuration::from_micros(self.down_prop_us + self.up_prop_us + 10_000);
            tr.span(Layer::Nack, || self.nack.set_deadline(Some(horizon), recovery));
        }
        let base = self.next_frame;
        self.turn_base = base;
        tr.open(Layer::SimEvent);
        for i in 0..frames.len() {
            self.sim.schedule_at(
                SimTime::from_micros(start_us + i as u64 * interval_us),
                Ev::Capture(i),
            );
        }
        tr.close();
        self.drain(horizon, frames, budget_bits, tr);

        // Answer deadline: decode whatever arrived, in capture order, then answer.
        let mut decoded = 0;
        for local in 0..frames.len() {
            let Some(view) = self.assembler.view(base + local as u64) else {
                continue;
            };
            if view.received_ranges.is_empty() {
                continue;
            }
            if self.decoded.len() <= decoded {
                self.decoded.push(DecodedFrame::placeholder());
            }
            tr.open(Layer::Decode);
            self.decoder.decode_into(
                &self.encoded[local],
                view.received_ranges,
                view.completed_at.map(|t| t.as_micros()),
                &mut self.decode_scratch,
                &mut self.decoded[decoded],
            );
            tr.close();
            decoded += 1;
        }
        tr.open(Layer::Respond);
        let answer = self.responder.respond_with(
            question,
            &self.decoded[..decoded],
            self.options.seed,
            &mut self.mllm,
        );
        tr.close();
        std::hint::black_box(answer);

        // Retire the reported frames, as a persistent timeline does.
        tr.open(Layer::Nack);
        let bound_seq = self.packetizer.next_sequence();
        let next_frame = self.next_frame;
        self.assembler.retire_before(next_frame);
        self.fec_rx.retire_before(next_frame);
        self.rtx.forget_before(bound_seq);
        self.nack.forget_below(bound_seq);
        self.seq_to_media.retain(|_, (f, _)| *f >= next_frame);
        self.turn_base = next_frame;
        self.live.clear();
        tr.close();
        self.counts.turns += 1;
    }

    /// Handles every event due by `until`, then advances the clock to it.
    fn drain(&mut self, until: SimTime, frames: &[Frame], budget_bits: f64, tr: &mut Tracer) {
        loop {
            tr.open(Layer::SimEvent);
            let next = self.sim.pop_due(until);
            tr.close();
            let Some((now, event)) = next else {
                break;
            };
            self.counts.events += 1;
            match event {
                Ev::Capture(local) => self.capture(now, local, &frames[local], budget_bits, tr),
                Ev::Run { cursor, items } => self.deliver(now, cursor, items, tr),
                Ev::Arrival(packet) => self.arrive(now, packet, tr),
                Ev::Poll => self.poll(now, tr),
                Ev::Feedback(sequences) => self.retransmit(now, sequences, tr),
            }
        }
        tr.span(Layer::SimEvent, || self.sim.run_until(until, &mut Idle));
    }

    fn capture(&mut self, now: SimTime, local: usize, frame: &Frame, budget_bits: f64, tr: &mut Tracer) {
        // Close the loop: fold every feedback entry the sender knows by now into GCC.
        tr.open(Layer::Gcc);
        let now_us = now.as_micros();
        self.fold.clear();
        let fold = &mut self.fold;
        self.cc_pending.retain(|(known_at, fb)| {
            let matured = *known_at <= now_us;
            if matured {
                fold.push(fb);
            }
            !matured
        });
        if !self.fold.is_empty() {
            self.gcc.on_feedback_fold_at(now, &self.fold);
        }
        self.gcc.poll_watchdog(now);
        let target_bps = self.options.abr.target_bitrate(self.gcc.estimate_bps());
        tr.close();
        tr.span(Layer::Pacer, || self.pacer.set_rate(target_bps * 2.5, now));

        self.encode(local, frame, budget_bits, tr);

        let encoded = &self.encoded[local];
        let frame_out = OutgoingFrame {
            frame_id: self.next_frame,
            capture_ts_us: now_us,
            size_bytes: encoded.total_bytes(),
            is_keyframe: encoded.frame_type == FrameType::Intra,
        };
        self.next_frame += 1;
        self.counts.bytes += frame_out.size_bytes;
        tr.span(Layer::Nack, || self.assembler.expect_frame(&frame_out));
        tr.span(Layer::Packetize, || {
            self.packetizer.packetize_into(&frame_out, &mut self.media)
        });

        tr.open(Layer::Fec);
        let adaptive = self.options.adaptive_fec;
        if adaptive.enabled && self.options.fec.is_enabled() {
            let group = adaptive.group_for_loss(self.gcc.loss_estimate(), self.options.fec.group_size);
            self.fec.set_group_size(group);
        }
        let group_size = self.fec.group_size();
        if group_size > 0 {
            for (i, p) in self.media.iter_mut().enumerate() {
                p.fec_group = group_of_index(group_size, i);
            }
        }
        let packetizer = &mut self.packetizer;
        self.fec
            .protect_into(&self.media, || packetizer.allocate_sequence(), &mut self.parity);
        tr.close();

        tr.open(Layer::Nack);
        self.live.push(LiveFrame {
            size_bytes: frame_out.size_bytes,
            first_seq: self.media[0].header.sequence,
            group_size,
        });
        for (i, p) in self.media.iter().enumerate() {
            let _ = self
                .seq_to_media
                .insert(p.header.sequence, (frame_out.frame_id, i));
            let _ = self.rtx.remember(p);
        }
        tr.close();

        tr.open(Layer::Pacer);
        let mut items = Vec::with_capacity(self.media.len() + self.parity.len());
        for p in self.media.iter().chain(&self.parity) {
            let when = self.pacer.schedule_send(p.wire_size(), now);
            items.push((when.as_micros(), *p));
        }
        tr.close();
        self.dispatch(items, tr);
    }

    /// Eq. 1 → Eq. 2 → rate plan → probe search → encode, as the turn's
    /// `encode_slot_to_budget` does. In baseline mode the Eq. 1 and Eq. 2 spans enclose
    /// only the mode check, since that mode skips both calls.
    fn encode(&mut self, slot: usize, frame: &Frame, budget_bits: f64, tr: &mut Tracer) {
        if self.encoded.len() <= slot {
            self.encode_scratches.resize_with(slot + 1, EncodeScratch::new);
            self.encoded.resize_with(slot + 1, EncodedFrame::placeholder);
        }
        let grid = self.encoder.grid_for(frame);
        if self.context_aware {
            self.counts.dirty_patch_sum +=
                dirty_patch_frac(&self.prev_regions, frame, self.model.config().patch_size);
            self.prev_regions.clear();
            self.prev_regions
                .extend(frame.placements.iter().map(|p| (p.object_id, p.region)));
        }
        tr.open(Layer::Clip);
        let importance = self.context_aware.then(|| {
            self.model
                .correlation_map_coherent(frame, &self.query, &mut self.clip)
        });
        tr.close();
        tr.open(Layer::Eq2);
        if let Some(importance) = importance {
            self.allocator.allocate_into(importance, grid, &mut self.qp_map);
        }
        tr.close();

        tr.open(Layer::RatePlan);
        let base = self.context_aware.then_some(&self.qp_map);
        self.encoder.prepare_rate_plan(frame, base, &mut self.plan);
        tr.close();

        tr.open(Layer::RateProbe);
        let (mut lo, mut hi) = if self.context_aware {
            (-51i32, 51i32)
        } else {
            (0, 51)
        };
        let mut best_level = lo;
        let mut best_err = f64::INFINITY;
        while lo <= hi {
            let mid = (lo + hi) / 2;
            let size = if self.context_aware {
                self.encoder.predict_plan_offset_size(&self.plan, mid)
            } else {
                self.encoder.predict_plan_uniform_size(&self.plan, Qp::new(mid))
            };
            self.counts.probes += 1;
            let bits = (size * 8) as f64;
            let err = (bits - budget_bits).abs();
            if err < best_err {
                best_err = err;
                best_level = mid;
            }
            if bits > budget_bits {
                lo = mid + 1;
            } else {
                hi = mid - 1;
            }
        }
        tr.close();

        tr.open(Layer::Encode);
        if self.context_aware {
            self.qp_map.offset_all_into(best_level, &mut self.probe_map);
        } else {
            self.probe_map.fill_uniform(grid, Qp::new(best_level));
        }
        self.encoder.encode_into_planned(
            frame,
            &self.probe_map,
            &self.plan,
            &mut self.encode_scratches[slot],
            &mut self.encoded[slot],
        );
        tr.close();
        self.counts.frames += 1;
    }

    /// Schedules a burst of departures as one timeline event at its first departure.
    fn dispatch(&mut self, items: Vec<(u64, RtpPacket)>, tr: &mut Tracer) {
        if let Some(&(first_us, _)) = items.first() {
            tr.span(Layer::SimEvent, || {
                self.sim
                    .schedule_at(SimTime::from_micros(first_us), Ev::Run { cursor: 0, items })
            });
        }
    }

    /// Sends every departure of a burst that is due, then re-arms the burst.
    fn deliver(&mut self, now: SimTime, mut cursor: usize, items: Vec<(u64, RtpPacket)>, tr: &mut Tracer) {
        let now_us = now.as_micros();
        tr.open(Layer::LinkSend);
        self.sent.clear();
        while let Some(&(departure_us, packet)) = items.get(cursor) {
            if departure_us > now_us {
                break;
            }
            cursor += 1;
            let net = Packet::new(self.next_packet_id, packet.wire_size(), now)
                .with_flow(0)
                .with_tag(packet.header.sequence);
            self.next_packet_id += 1;
            let outcome = self.emulator.send(Direction::Uplink, &net, now);
            let duplicate = outcome
                .arrival()
                .and_then(|_| self.emulator.take_uplink_duplicate());
            self.sent.push((packet, outcome, duplicate));
        }
        tr.close();

        tr.open(Layer::Gcc);
        for (packet, outcome, _) in &self.sent {
            let feedback = |known_at, arrived_at| {
                (
                    known_at,
                    PacketFeedback {
                        sent_at: now,
                        arrived_at,
                        size_bytes: packet.wire_size(),
                    },
                )
            };
            match outcome.arrival() {
                Some(arrival) => self
                    .cc_pending
                    .push(feedback(arrival.as_micros() + self.down_prop_us, Some(arrival))),
                // An outage is silence, not a loss report.
                None if *outcome == DeliveryOutcome::DroppedOutage => {}
                None => self.cc_pending.push(feedback(
                    now_us + self.up_prop_us + self.down_prop_us + 20_000,
                    None,
                )),
            }
        }
        tr.close();

        tr.open(Layer::SimEvent);
        for (packet, outcome, duplicate) in &self.sent {
            if let Some(arrival) = outcome.arrival() {
                self.sim.schedule_at(arrival, Ev::Arrival(*packet));
            }
            if let Some(at) = duplicate {
                self.sim.schedule_at(*at, Ev::Arrival(*packet));
            }
        }
        if let Some(&(next_us, _)) = items.get(cursor) {
            self.sim
                .schedule_at(SimTime::from_micros(next_us), Ev::Run { cursor, items });
        }
        tr.close();
    }

    fn arrive(&mut self, now: SimTime, packet: RtpPacket, tr: &mut Tracer) {
        let frame_id = packet.header.frame_id;
        let live = frame_id
            .checked_sub(self.turn_base)
            .and_then(|slot| self.live.get(slot as usize))
            .copied();
        tr.open(Layer::Nack);
        self.nack.on_packet(packet.header.sequence, now);
        let media = matches!(
            packet.header.kind,
            PayloadKind::Media | PayloadKind::Retransmission
        );
        if media && live.is_some() {
            self.assembler.on_packet(&packet, now);
        }
        tr.close();

        if let Some(frame) = live {
            tr.open(Layer::Fec);
            let mut candidate = None;
            if media {
                if let Some(&(_, index)) = self.seq_to_media.get(packet.header.sequence) {
                    if let Some(group) = group_of_index(frame.group_size, index) {
                        self.fec_rx.on_media(frame_id, group, index);
                        candidate = Some(group);
                    }
                }
            } else if let (PayloadKind::Fec, Some(group)) = (packet.header.kind, packet.fec_group) {
                let max_payload = u64::from(self.packetizer.max_payload());
                let count = frame.size_bytes.div_ceil(max_payload).max(1) as usize;
                for index in 0..count {
                    if group_of_index(frame.group_size, index) == Some(group) {
                        self.fec_rx.expect_media(frame_id, group, index);
                    }
                }
                self.fec_rx.on_parity(frame_id, group);
                candidate = Some(group);
            }
            if let Some(group) = candidate {
                let max_payload = u64::from(self.packetizer.max_payload());
                for recovered in self.fec_rx.recoverable(frame_id, group) {
                    let start = recovered as u64 * max_payload;
                    let synthetic = RtpPacket {
                        header: packet.header,
                        payload_start: start,
                        payload_end: (start + max_payload).min(frame.size_bytes),
                        fec_group: Some(group),
                    };
                    self.assembler.on_packet(&synthetic, now);
                    self.fec_rx.on_media(frame_id, group, recovered);
                    self.nack.on_packet(frame.first_seq + recovered as u64, now);
                }
            }
            tr.close();
        }

        if self.options.enable_retransmission && self.nack.pending_count() > 0 && !self.poll_outstanding {
            self.poll_outstanding = true;
            let at = now + self.options.nack.reorder_guard;
            tr.span(Layer::SimEvent, || self.sim.schedule_at(at, Ev::Poll));
        }
    }

    fn poll(&mut self, now: SimTime, tr: &mut Tracer) {
        self.poll_outstanding = false;
        if !self.options.enable_retransmission {
            return;
        }
        let mut due = Vec::new();
        tr.span(Layer::Nack, || self.nack.due_nacks_into(now, &mut due));
        if !due.is_empty() {
            let packet =
                Packet::new(self.next_packet_id, self.options.feedback_packet_bytes, now).with_flow(1);
            self.next_packet_id += 1;
            let outcome = tr.span(Layer::LinkSend, || {
                self.emulator.send(Direction::Downlink, &packet, now)
            });
            if let Some(arrival) = outcome.arrival() {
                tr.span(Layer::SimEvent, || {
                    self.sim.schedule_at(arrival, Ev::Feedback(due))
                });
            }
        }
        if self.nack.pending_count() > 0 && !self.poll_outstanding {
            self.poll_outstanding = true;
            let at = now + self.options.nack.retry_interval;
            tr.span(Layer::SimEvent, || self.sim.schedule_at(at, Ev::Poll));
        }
    }

    fn retransmit(&mut self, now: SimTime, sequences: Vec<u64>, tr: &mut Tracer) {
        tr.open(Layer::Nack);
        self.media.clear();
        for old_seq in sequences {
            let packetizer = &mut self.packetizer;
            if let Some(p) = self
                .rtx
                .retransmit_one(old_seq, || packetizer.allocate_sequence())
            {
                if let Some(mapping) = self.seq_to_media.get(old_seq).copied() {
                    let _ = self.seq_to_media.insert(p.header.sequence, mapping);
                }
                self.media.push(p);
            }
        }
        tr.close();
        tr.open(Layer::Pacer);
        let items: Vec<(u64, RtpPacket)> = self
            .media
            .iter()
            .map(|p| (self.pacer.schedule_send(p.wire_size(), now).as_micros(), *p))
            .collect();
        tr.close();
        self.dispatch(items, tr);
    }
}

/// Share of Eq. 1 patches the coherent path recomputes for `frame` after a frame whose
/// object placements were `prev`: every patch overlapping the old or new rectangle of an
/// object that moved, or every patch when there is no compatible previous frame.
fn dirty_patch_frac(prev: &[(u32, Rect)], frame: &Frame, patch: u32) -> f64 {
    let same_objects = prev.len() == frame.placements.len()
        && prev
            .iter()
            .zip(&frame.placements)
            .all(|((id, _), p)| *id == p.object_id);
    if !same_objects {
        return 1.0;
    }
    let dims = GridDims::for_frame(frame.width, frame.height, patch);
    let mut dirty = vec![false; dims.len()];
    for ((_, before), now) in prev.iter().zip(&frame.placements) {
        if *before == now.region {
            continue;
        }
        for rect in [before, &now.region] {
            for row in 0..dims.rows {
                for col in 0..dims.cols {
                    if dims
                        .cell_rect(row, col, frame.width, frame.height)
                        .coverage_by(rect)
                        > 0.0
                    {
                        dirty[dims.index(row, col)] = true;
                    }
                }
            }
        }
    }
    dirty.iter().filter(|d| **d).count() as f64 / dims.len() as f64
}
