//! In-memory spans recorded by the benchmark around its calls into each layer.
//!
//! A span has a layer name, a turn id, a parent and start/end times. Spans of the turn in
//! progress accumulate in a buffer; [`Tracer::finish_turn`] folds them into per-layer
//! totals and keeps the spans of the first few turns for [`Tracer::write_jsonl`], so memory
//! stays bounded however long the run.

use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// A span name: a turn root, or a call into one layer of the program.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    /// One traced turn: the real turn followed by its replay.
    Turn,
    /// The real, untraced turn through the conversation layer's public entry point.
    RunTurn,
    /// The replay of the same turn through the layers' public functions.
    Replay,
    /// Text-query derivation for Eq. 1 (`TextQuery::from_words_and_concepts`).
    Query,
    /// Eq. 1 CLIP relevance (`correlation_map_coherent`).
    Clip,
    /// Eq. 2 QP allocation (`allocate_into`).
    Eq2,
    /// Rate-plan preparation (`prepare_rate_plan`).
    RatePlan,
    /// The rate-search probe loop (`predict_plan_offset_size` / `_uniform_size`).
    RateProbe,
    /// The one real encode (`encode_into_planned`).
    Encode,
    /// Receiver decode (`Decoder::decode_into`).
    Decode,
    /// The MLLM answer (`MllmChat::respond_with`).
    Respond,
    /// RTP packetization (`Packetizer::packetize_into`).
    Packetize,
    /// FEC protection and recovery (`FecEncoder`, `FecRecovery`).
    Fec,
    /// Pacing (`Pacer::set_rate`, `Pacer::schedule_send`).
    Pacer,
    /// Reassembly, NACK and RTX bookkeeping (`FrameAssembler`, `NackGenerator`, `RtxQueue`).
    Nack,
    /// Congestion-control feedback (`GccController::on_feedback_fold_at`).
    Gcc,
    /// Link emulation (`NetworkEmulator::send`).
    LinkSend,
    /// Event-kernel operations (`Simulation` schedule and pop).
    SimEvent,
}

impl Layer {
    /// Every span name, in index order.
    pub const ALL: [Layer; 18] = [
        Layer::Turn,
        Layer::RunTurn,
        Layer::Replay,
        Layer::Query,
        Layer::Clip,
        Layer::Eq2,
        Layer::RatePlan,
        Layer::RateProbe,
        Layer::Encode,
        Layer::Decode,
        Layer::Respond,
        Layer::Packetize,
        Layer::Fec,
        Layer::Pacer,
        Layer::Nack,
        Layer::Gcc,
        Layer::LinkSend,
        Layer::SimEvent,
    ];

    /// The span's name in the spans file.
    pub fn name(self) -> &'static str {
        match self {
            Layer::Turn => "turn",
            Layer::RunTurn => "core.run_turn",
            Layer::Replay => "replay.turn",
            Layer::Query => "semantics.query",
            Layer::Clip => "semantics.clip",
            Layer::Eq2 => "allocator.eq2",
            Layer::RatePlan => "videocodec.rate_plan",
            Layer::RateProbe => "videocodec.rate_probe",
            Layer::Encode => "videocodec.encode",
            Layer::Decode => "videocodec.decode",
            Layer::Respond => "mllm.respond",
            Layer::Packetize => "rtc.packetize",
            Layer::Fec => "rtc.fec",
            Layer::Pacer => "rtc.pacer",
            Layer::Nack => "rtc.nack",
            Layer::Gcc => "rtc.gcc",
            Layer::LinkSend => "netsim.link_send",
            Layer::SimEvent => "sim.event",
        }
    }

    /// True for a call into a layer (not a turn root).
    pub fn is_layer_call(self) -> bool {
        !matches!(self, Layer::Turn | Layer::RunTurn | Layer::Replay)
    }

    fn index(self) -> usize {
        self as usize
    }
}

const NO_PARENT: u32 = u32::MAX;

#[derive(Debug, Clone, Copy)]
struct Span {
    layer: Layer,
    turn: u32,
    parent: u32,
    start_ns: u64,
    end_ns: u64,
}

/// Per-name totals of one turn's spans.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TurnTotals {
    nanos: [u64; Layer::ALL.len()],
    spans: [u64; Layer::ALL.len()],
}

impl TurnTotals {
    /// Nanoseconds inside `layer`'s spans (inclusive of child spans).
    pub fn nanos(&self, layer: Layer) -> u64 {
        self.nanos[layer.index()]
    }

    /// Number of `layer` spans.
    pub fn spans(&self, layer: Layer) -> u64 {
        self.spans[layer.index()]
    }
}

/// The duration an empty span records, in ns: the timer cost inside every recorded span,
/// as the median over batches of back-to-back empty spans.
pub fn empty_span_ns() -> f64 {
    const BATCH: u32 = 256;
    let mut tracer = Tracer::new(0);
    let mut per_span: Vec<f64> = (0..64)
        .map(|_| {
            for _ in 0..BATCH {
                tracer.open(Layer::SimEvent);
                tracer.close();
            }
            tracer.finish_turn().nanos(Layer::SimEvent) as f64 / f64::from(BATCH)
        })
        .collect();
    crate::stats::median(&mut per_span)
}

/// The span recorder.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    turn: u32,
    keep_turns: u32,
    spans: Vec<Span>,
    open: Vec<u32>,
    kept: Vec<Span>,
}

impl Tracer {
    /// A recorder that keeps every span of the first `keep_turns` turns for the file.
    pub fn new(keep_turns: u32) -> Self {
        Self {
            epoch: Instant::now(),
            turn: 0,
            keep_turns,
            spans: Vec::with_capacity(1 << 16),
            open: Vec::with_capacity(8),
            kept: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span as a child of the innermost open span.
    pub fn open(&mut self, layer: Layer) {
        let parent = self.open.last().copied().unwrap_or(NO_PARENT);
        self.open.push(self.spans.len() as u32);
        let start_ns = self.now_ns();
        self.spans.push(Span {
            layer,
            turn: self.turn,
            parent,
            start_ns,
            end_ns: start_ns,
        });
    }

    /// Closes the innermost open span.
    pub fn close(&mut self) {
        let end_ns = self.now_ns();
        let idx = self.open.pop().expect("close without a matching open") as usize;
        self.spans[idx].end_ns = end_ns;
    }

    /// Runs `f` inside a span.
    pub fn span<R>(&mut self, layer: Layer, f: impl FnOnce() -> R) -> R {
        self.open(layer);
        let out = f();
        self.close();
        out
    }

    /// Ends the current turn: returns its per-name totals, keeps its spans if it is one
    /// of the first `keep_turns`, and starts the next turn.
    pub fn finish_turn(&mut self) -> TurnTotals {
        assert!(self.open.is_empty(), "a turn ended with open spans");
        let mut totals = TurnTotals::default();
        for s in &self.spans {
            totals.nanos[s.layer.index()] += s.end_ns - s.start_ns;
            totals.spans[s.layer.index()] += 1;
        }
        if self.turn < self.keep_turns {
            let base = self.kept.len() as u32;
            self.kept.extend(self.spans.iter().map(|s| Span {
                parent: if s.parent == NO_PARENT {
                    NO_PARENT
                } else {
                    s.parent + base
                },
                ..*s
            }));
        }
        self.spans.clear();
        self.turn += 1;
        totals
    }

    /// Writes the kept spans as JSON lines: id, parent, turn, name, start and end (ns
    /// since the recorder was created), and self time (duration minus the time covered
    /// by child spans, which never overlap one another).
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut child_ns = vec![0u64; self.kept.len()];
        for s in &self.kept {
            if s.parent != NO_PARENT {
                child_ns[s.parent as usize] += s.end_ns - s.start_ns;
            }
        }
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, s) in self.kept.iter().enumerate() {
            let parent = if s.parent == NO_PARENT {
                "null".to_string()
            } else {
                s.parent.to_string()
            };
            let dur = s.end_ns - s.start_ns;
            writeln!(
                out,
                "{{\"id\":{id},\"parent\":{parent},\"turn\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"self_ns\":{}}}",
                s.turn,
                s.layer.name(),
                s.start_ns,
                s.end_ns,
                dur.saturating_sub(child_ns[id])
            )?;
        }
        out.flush()
    }
}
