//! [`ChatServer`] — the multi-session throughput engine.
//!
//! The paper's deployment story is not one user: a production AI-video-chat service runs
//! *many* concurrent conversations, and the ROADMAP's north star is serving heavy traffic
//! as fast as the hardware allows. [`ChatServer`] owns N independent [`ChatSession`]s and
//! runs each session's chat turn across a [`MiniPool`], one session per pool chunk, with a
//! **static** session→lane mapping (session `i` always executes on lane `i % lanes`):
//!
//! * **bit-identical results for any pool size** — a session's turn touches only the
//!   session's own state, so where it runs cannot change what it computes (proven by the
//!   pool-size-independence property tests);
//! * **allocation-free steady state** — every session owns its scratches, reports are
//!   plain values overwritten in place, and the pool dispatches without allocating, so
//!   post-warmup `run_turns` performs zero heap allocations (guarded by
//!   `crates/bench/tests/zero_alloc.rs`);
//! * **near-linear scaling** — sessions share nothing mutable (only the server's one
//!   immutable CLIP model, see [`ClipModel`]), so throughput scales with lanes up to the
//!   core count (the `pipeline_throughput_{1,8,64}_sessions` benchmarks).
//!
//! Sessions running on server lanes use the sequential stage paths internally — the pool
//! rejects nested parallel sections, and across-session parallelism already saturates the
//! cores at server scale (DESIGN.md §"Threading model").

use crate::context_aware::StreamerConfig;
use crate::conversation::{Conversation, ConversationReport, Lockstep};
use crate::net_session::{FaultTelemetry, NetSessionOptions, NetTurnReport, NetworkedChatSession};
use crate::session::{ChatSession, PipelineTurnReport};
use aivc_metrics::SessionSnapshot;
use aivc_mllm::{Answer, Question};
use aivc_netsim::LinkCounters;
use aivc_par::MiniPool;
use aivc_scene::Frame;
use aivc_semantics::ClipModel;
use aivc_sim::{SimDuration, SimTime};

/// Why a fleet of conversations was rejected at server admission
/// ([`ConversationChatServer::try_with_sessions`]). Lane shards merge member timelines
/// into one kernel, and that merge is only bit-identical to private timelines when every
/// member is fresh and shares the fleet's turn geometry — violations are structural
/// errors the caller can surface (rejecting one session, fixing its options) rather than
/// a process abort.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServerError {
    /// Conversation `index` has already run (turns recorded or its clock moved): lane
    /// shards need fresh timelines so every member's phase boundaries coincide from
    /// turn zero.
    SessionNotFresh {
        /// Position of the offending conversation in the submitted fleet.
        index: usize,
    },
    /// Conversation `index` differs from the fleet's first member in turn geometry
    /// (think gap, capture fps or drain window): members of a shard must share their
    /// phase boundaries or the pool-size bit-identity contract is lost.
    MixedGeometry {
        /// Position of the offending conversation in the submitted fleet.
        index: usize,
    },
}

impl std::fmt::Display for ServerError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServerError::SessionNotFresh { index } => write!(
                f,
                "conversation {index} has already run: lane shards need fresh timelines"
            ),
            ServerError::MixedGeometry { index } => write!(
                f,
                "conversation {index} differs in turn geometry (think gap / fps / drain): \
                 lane shards need a uniform fleet"
            ),
        }
    }
}

impl std::error::Error for ServerError {}

/// A session type a server can pool: one long-lived object per user whose turn produces a
/// plain-value report carrying the MLLM's [`Answer`]. Both server variants share the
/// pooling machinery ([`SessionPool`]) through this trait.
trait TurnSession: Send + std::fmt::Debug {
    /// The per-turn report type, overwritten in place in the session's slot.
    type Report: Clone + Send + std::fmt::Debug;

    /// The all-zero report a slot starts from.
    fn placeholder_report() -> Self::Report;

    /// Runs one turn and returns its report.
    fn turn_report(&mut self, frames: &[Frame], question: &Question) -> Self::Report;

    /// The answer inside a report (for the service-level quality aggregates).
    fn answer(report: &Self::Report) -> &Answer;
}

impl TurnSession for ChatSession {
    type Report = PipelineTurnReport;

    fn placeholder_report() -> PipelineTurnReport {
        PipelineTurnReport::placeholder()
    }

    fn turn_report(&mut self, frames: &[Frame], question: &Question) -> PipelineTurnReport {
        self.run_turn(frames, question)
    }

    fn answer(report: &PipelineTurnReport) -> &Answer {
        &report.answer
    }
}

impl TurnSession for NetworkedChatSession {
    type Report = NetTurnReport;

    fn placeholder_report() -> NetTurnReport {
        NetTurnReport::placeholder()
    }

    fn turn_report(&mut self, frames: &[Frame], question: &Question) -> NetTurnReport {
        self.run_turn(frames, question)
    }

    fn answer(report: &NetTurnReport) -> &Answer {
        &report.answer
    }
}

/// One session slot: the long-lived session plus the in-place report of its latest turn.
#[derive(Debug)]
struct ServerSlot<S: TurnSession> {
    session: S,
    report: S::Report,
}

/// The shared engine behind both server variants: N independent sessions of one type,
/// spread across a [`MiniPool`] with the static session→lane mapping the module docs
/// describe. Private — the public surface is [`ChatServer`] and [`NetworkedChatServer`].
#[derive(Debug)]
struct SessionPool<S: TurnSession> {
    pool: MiniPool,
    slots: Vec<ServerSlot<S>>,
    /// Per-lane scratch handed to the pool — the sessions own all real state, so the
    /// lanes need none; sized to the lane count once.
    lane_units: Vec<()>,
}

impl<S: TurnSession> SessionPool<S> {
    fn with_sessions(pool: MiniPool, sessions: Vec<S>) -> Self {
        let lane_units = vec![(); pool.lanes()];
        Self {
            pool,
            slots: sessions
                .into_iter()
                .map(|session| ServerSlot {
                    session,
                    report: S::placeholder_report(),
                })
                .collect(),
            lane_units,
        }
    }

    fn run_turns(&mut self, frames: &[Frame], question: &Question) {
        if self.slots.is_empty() {
            return;
        }
        let chunks = self.slots.len();
        self.pool
            .for_each_chunk(&mut self.slots, chunks, &mut self.lane_units, |_, slots, ()| {
                for slot in slots {
                    slot.report = slot.session.turn_report(frames, question);
                }
            });
    }

    fn reports(&self) -> impl Iterator<Item = &S::Report> {
        self.slots.iter().map(|slot| &slot.report)
    }

    fn correct_fraction(&self) -> f64 {
        if self.slots.is_empty() {
            return 0.0;
        }
        self.reports().filter(|r| S::answer(r).correct).count() as f64 / self.slots.len() as f64
    }

    fn mean_probability_correct(&self) -> f64 {
        if self.slots.is_empty() {
            return 0.0;
        }
        self.reports()
            .map(|r| S::answer(r).probability_correct)
            .sum::<f64>()
            / self.slots.len() as f64
    }
}

/// A pool of independent chat sessions executing turns in parallel. See the module docs.
#[derive(Debug)]
pub struct ChatServer {
    inner: SessionPool<ChatSession>,
}

impl ChatServer {
    /// Creates a server with `session_count` default sessions (seeds `base_seed + i`, so
    /// every session is an independent, reproducible conversation) on a pool of
    /// `pool_size` lanes. The sessions share one CLIP model, built here.
    pub fn new(pool_size: usize, session_count: usize, base_seed: u64) -> Self {
        let model = ClipModel::mobile_default();
        Self::with_sessions(
            MiniPool::new(pool_size),
            (0..session_count)
                .map(|i| {
                    ChatSession::new(
                        StreamerConfig::default(),
                        model.clone(),
                        base_seed.wrapping_add(i as u64),
                    )
                })
                .collect(),
        )
    }

    /// Creates a server from explicit sessions and a pool.
    pub fn with_sessions(pool: MiniPool, sessions: Vec<ChatSession>) -> Self {
        Self {
            inner: SessionPool::with_sessions(pool, sessions),
        }
    }

    /// Number of pool lanes turns are spread across.
    pub fn pool_size(&self) -> usize {
        self.inner.pool.lanes()
    }

    /// Number of sessions the server owns.
    pub fn session_count(&self) -> usize {
        self.inner.slots.len()
    }

    /// Runs one chat turn on **every** session — all users ask `question` about the same
    /// captured window — spreading sessions across the pool (session `i` on lane
    /// `i % lanes`, deterministically). Each session's report replaces its previous one in
    /// place; read them back with [`ChatServer::reports`] or [`ChatServer::report`].
    ///
    /// Per-session results are bit-identical to calling [`ChatSession::run_turn`] directly,
    /// for any pool size. After every session's warmup turn, the call performs no heap
    /// allocation.
    pub fn run_turns(&mut self, frames: &[Frame], question: &Question) {
        self.inner.run_turns(frames, question);
    }

    /// The latest report of every session, in session order.
    pub fn reports(&self) -> impl Iterator<Item = &PipelineTurnReport> {
        self.inner.reports()
    }

    /// The latest report of session `index`.
    pub fn report(&self, index: usize) -> &PipelineTurnReport {
        &self.inner.slots[index].report
    }

    /// Fraction of the latest turn's answers that were correct — the service-level quality
    /// signal a deployment would watch.
    pub fn correct_fraction(&self) -> f64 {
        self.inner.correct_fraction()
    }
}

impl PipelineTurnReport {
    /// The all-zero report sessions start from (every field is overwritten by the first
    /// turn). Plain values only, so slot initialization and replacement never allocate.
    pub fn placeholder() -> Self {
        Self {
            answer: Answer::default(),
            frames_processed: 0,
            encoded_bytes: 0,
            packets: 0,
            mean_encoded_quality: 0.0,
        }
    }
}

/// The network-in-the-loop counterpart of [`ChatServer`]: N independent
/// [`NetworkedChatSession`]s — each with its own emulated path, congestion controller and
/// MLLM — executing turns across a [`MiniPool`] with the same static session→lane mapping.
///
/// A networked session's turn touches only the session's own state (its emulator is seeded
/// per session and recreated per turn), so, exactly as for [`ChatServer`], **results are
/// bit-identical for any pool size** and deterministic across runs — the property the
/// scenario engine's golden fixtures and the pool-sweep tests pin down.
#[derive(Debug)]
pub struct NetworkedChatServer {
    inner: SessionPool<NetworkedChatSession>,
}

impl NetworkedChatServer {
    /// Creates a server of `session_count` sessions sharing `template`'s network and ABR
    /// configuration, with per-session seeds `template.seed + i` (independent loss/jitter
    /// streams and answer draws per user) on a pool of `pool_size` lanes. The sessions
    /// share one CLIP model, built here.
    pub fn new(pool_size: usize, session_count: usize, template: NetSessionOptions) -> Self {
        let model = ClipModel::mobile_default();
        Self::with_sessions(
            MiniPool::new(pool_size),
            (0..session_count)
                .map(|i| {
                    let mut options = template.clone();
                    options.seed = template.seed.wrapping_add(i as u64);
                    NetworkedChatSession::new(options, StreamerConfig::default(), model.clone())
                })
                .collect(),
        )
    }

    /// Creates a server from explicit sessions and a pool.
    pub fn with_sessions(pool: MiniPool, sessions: Vec<NetworkedChatSession>) -> Self {
        Self {
            inner: SessionPool::with_sessions(pool, sessions),
        }
    }

    /// Number of pool lanes turns are spread across.
    pub fn pool_size(&self) -> usize {
        self.inner.pool.lanes()
    }

    /// Number of sessions the server owns.
    pub fn session_count(&self) -> usize {
        self.inner.slots.len()
    }

    /// Runs one networked chat turn on every session (session `i` on lane `i % lanes`).
    /// Per-session results are bit-identical to calling
    /// [`NetworkedChatSession::run_turn`] directly, for any pool size.
    pub fn run_turns(&mut self, frames: &[Frame], question: &Question) {
        self.inner.run_turns(frames, question);
    }

    /// The latest report of every session, in session order.
    pub fn reports(&self) -> impl Iterator<Item = &NetTurnReport> {
        self.inner.reports()
    }

    /// The latest report of session `index`.
    pub fn report(&self, index: usize) -> &NetTurnReport {
        &self.inner.slots[index].report
    }

    /// Fraction of the latest turn's answers that were correct.
    pub fn correct_fraction(&self) -> f64 {
        self.inner.correct_fraction()
    }

    /// Mean model-assigned probability of a correct answer across sessions.
    pub fn mean_probability_correct(&self) -> f64 {
        self.inner.mean_probability_correct()
    }
}

/// One lane's shard: the conversations pinned to the lane on **one** lockstep timeline
/// ([`Lockstep`]) instead of one kernel per conversation, plus the in-place report of each
/// member's latest turn. Restricted to one member, the shared kernel's pop order is
/// exactly that member's private order — the induction behind the
/// bit-identical-for-any-pool-size contract. It needs the uniform turn geometry
/// [`ConversationChatServer::try_with_sessions`] checks.
#[derive(Debug)]
struct ConversationShard {
    timeline: Lockstep,
    members: Vec<Conversation>,
    reports: Vec<NetTurnReport>,
}

impl ConversationShard {
    /// Advances every member by one turn on the shard's timeline.
    fn run_turn(&mut self, frames: &[Frame], question: &Question) {
        self.timeline.run_turn(&mut self.members, frames, question);
        for (report, member) in self.reports.iter_mut().zip(&self.members) {
            report.clone_from(member.turns().last().expect("the turn just concluded"));
        }
    }
}

/// The conversational counterpart of [`NetworkedChatServer`]: N independent long-lived
/// [`Conversation`]s — each with its own persistent transport, congestion controller,
/// in-flight packet set and think-time rhythm — executing turns across a [`MiniPool`]
/// with the same static session→lane mapping.
///
/// Unlike the other servers, conversations here do **not** each run a private event
/// kernel: every lane runs *one* shared `aivc-sim` kernel ([`ConversationShard`], a
/// many-member instance of the lockstep drain a lone [`Conversation`] runs on its own
/// timeline) that multiplexes all of its pinned sessions' events — tens of thousands of sessions cost
/// lane-many kernels, not session-many. Session `i` is pinned to lane `i % lanes` (as
/// everywhere else) and sits at shard position `i / lanes`, so reports merge back into
/// global session order deterministically.
///
/// Each call to [`ConversationChatServer::run_turns`] advances *every* conversation by
/// one turn on its timeline (turn `k + 1` starts where turn `k`'s deadline left the
/// clock, plus the common think gap). Member events are tagged and never interact, so
/// **results are bit-identical for any pool size** and deterministic across runs —
/// property-tested at pool sizes 1/2/8.
#[derive(Debug)]
pub struct ConversationChatServer {
    pool: MiniPool,
    shards: Vec<ConversationShard>,
    /// Per-lane scratch handed to the pool — the shards own all real state.
    lane_units: Vec<()>,
    sessions: usize,
}

impl ConversationChatServer {
    /// Creates a server of `session_count` conversations sharing `template`'s network and
    /// ABR configuration, with per-session seeds `template.seed + i` and a common
    /// `think_gap`, on a pool of `pool_size` lanes. The conversations share one CLIP
    /// model, built here.
    pub fn new(
        pool_size: usize,
        session_count: usize,
        template: NetSessionOptions,
        think_gap: SimDuration,
    ) -> Self {
        let model = ClipModel::mobile_default();
        Self::with_sessions(
            MiniPool::new(pool_size),
            (0..session_count)
                .map(|i| {
                    let mut options = template.clone();
                    options.seed = template.seed.wrapping_add(i as u64);
                    Conversation::new(options, StreamerConfig::default(), model.clone(), think_gap)
                })
                .collect(),
        )
    }

    /// Creates a server from explicit conversations and a pool.
    ///
    /// # Panics
    ///
    /// Panics on the fleet-admission errors [`ConversationChatServer::try_with_sessions`]
    /// reports structurally — a convenience for callers constructing fleets from uniform
    /// templates, where admission cannot fail.
    pub fn with_sessions(pool: MiniPool, sessions: Vec<Conversation>) -> Self {
        match Self::try_with_sessions(pool, sessions) {
            Ok(server) => server,
            Err(e) => panic!("{e}"),
        }
    }

    /// Creates a server from explicit conversations and a pool, validating fleet
    /// admission.
    ///
    /// The lane-sharded kernels require every conversation to be fresh (no turns run, the
    /// clock at zero) and the fleet's turn geometry to be uniform — same think gap,
    /// capture fps and drain window — so that all members of a shard share their phase
    /// boundaries. Mixed-geometry fleets would interleave correctly but lose the
    /// bit-identity contract, so they are rejected with [`ServerError::MixedGeometry`]
    /// (or [`ServerError::SessionNotFresh`]) instead of being silently admitted.
    pub fn try_with_sessions(pool: MiniPool, sessions: Vec<Conversation>) -> Result<Self, ServerError> {
        if let Some(first) = sessions.first() {
            for (i, s) in sessions.iter().enumerate() {
                if s.turn_count() != 0 || s.now() != SimTime::ZERO {
                    return Err(ServerError::SessionNotFresh { index: i });
                }
                if s.think_gap() != first.think_gap()
                    || s.options().capture_fps != first.options().capture_fps
                    || s.options().drain_secs != first.options().drain_secs
                {
                    return Err(ServerError::MixedGeometry { index: i });
                }
            }
        }
        Ok(Self::admit_sessions(pool, sessions))
    }

    /// Shards validated sessions across the pool's lanes.
    fn admit_sessions(pool: MiniPool, sessions: Vec<Conversation>) -> Self {
        let lanes = pool.lanes();
        let mut shards: Vec<ConversationShard> = (0..lanes)
            .map(|_| ConversationShard {
                timeline: Lockstep::default(),
                members: Vec::new(),
                reports: Vec::new(),
            })
            .collect();
        let sessions_count = sessions.len();
        for (i, session) in sessions.into_iter().enumerate() {
            let shard = &mut shards[i % lanes];
            shard.members.push(session);
            shard.reports.push(NetTurnReport::placeholder());
        }
        Self {
            lane_units: vec![(); lanes],
            pool,
            shards,
            sessions: sessions_count,
        }
    }

    /// Number of pool lanes turns are spread across (= lane shards / kernels).
    pub fn pool_size(&self) -> usize {
        self.pool.lanes()
    }

    /// Number of conversations the server owns.
    pub fn session_count(&self) -> usize {
        self.sessions
    }

    /// Lane and shard position of global session `index` (lane `index % lanes`,
    /// position `index / lanes` — the static pinning, inverted).
    fn position(&self, index: usize) -> (&ConversationShard, usize) {
        let lanes = self.pool.lanes();
        (&self.shards[index % lanes], index / lanes)
    }

    fn conversation(&self, index: usize) -> &Conversation {
        let (shard, at) = self.position(index);
        &shard.members[at]
    }

    fn conversations(&self) -> impl Iterator<Item = &Conversation> {
        (0..self.sessions).map(|i| self.conversation(i))
    }

    /// Advances every conversation by one turn — each lane's kernel drains all of its
    /// pinned sessions' events in one merged chronological pass. Per-session results are
    /// bit-identical to calling [`Conversation::run_turn`] directly, for any pool size.
    ///
    /// # Panics
    ///
    /// Panics if `frames` is empty ("a chat turn needs at least one frame") and the fleet
    /// has a conversation — the same check, with the same message, as
    /// [`Conversation::run_turn`].
    pub fn run_turns(&mut self, frames: &[Frame], question: &Question) {
        if self.sessions == 0 {
            return;
        }
        let chunks = self.shards.len();
        self.pool
            .for_each_chunk(&mut self.shards, chunks, &mut self.lane_units, |_, shards, ()| {
                for shard in shards {
                    shard.run_turn(frames, question);
                }
            });
    }

    /// Pre-grows every conversation's history vectors (see
    /// [`Conversation::reserve_turns`]) so warmed steady-state turns never reallocate.
    pub fn reserve_turns(&mut self, additional_turns: usize, frames_per_turn: usize) {
        for shard in &mut self.shards {
            shard.timeline.reserve_members(shard.members.len());
            for session in &mut shard.members {
                session.reserve_turns(additional_turns, frames_per_turn);
            }
        }
    }

    /// The latest per-turn report of every conversation, in session order.
    pub fn reports(&self) -> impl Iterator<Item = &NetTurnReport> {
        (0..self.sessions).map(|i| self.report(i))
    }

    /// The latest per-turn report of conversation `index`.
    pub fn report(&self, index: usize) -> &NetTurnReport {
        let (shard, at) = self.position(index);
        &shard.reports[at]
    }

    /// The full cross-turn report of conversation `index`.
    pub fn conversation_report(&self, index: usize) -> ConversationReport {
        self.conversation(index).report()
    }

    /// A point-in-time reading of conversation `index`'s always-on counters.
    pub fn metrics_snapshot(&self, index: usize) -> SessionSnapshot {
        self.conversation(index).metrics_snapshot()
    }

    /// The whole fleet's always-on counters, summed across sessions. Relaxed-atomic
    /// reads plus plain adds — entirely off the turn hot path.
    pub fn fleet_metrics(&self) -> SessionSnapshot {
        let mut total = SessionSnapshot::default();
        for session in self.conversations() {
            total.accumulate(&session.metrics_snapshot());
        }
        total
    }

    /// Fraction of the latest turn's answers that were correct.
    pub fn correct_fraction(&self) -> f64 {
        if self.sessions == 0 {
            return 0.0;
        }
        self.reports().filter(|r| r.answer.correct).count() as f64 / self.sessions as f64
    }

    /// Mean model-assigned probability of a correct answer across conversations.
    pub fn mean_probability_correct(&self) -> f64 {
        if self.sessions == 0 {
            return 0.0;
        }
        self.reports().map(|r| r.answer.probability_correct).sum::<f64>() / self.sessions as f64
    }

    /// One fleet-level serving snapshot: session and turn counts, every conversation's
    /// uplink [`LinkCounters`] summed, the fault telemetry rolled up across sessions, the
    /// always-on counter rollup and the latest turn's answer quality. Assembled from
    /// per-session snapshots the transports already keep — the turn hot path pays
    /// nothing for it.
    pub fn serving_report(&self) -> ServingReport {
        let mut uplink = LinkCounters::default();
        let mut resilience = FaultTelemetry::default();
        let mut counters = SessionSnapshot::default();
        let mut turns_completed = 0;
        for session in self.conversations() {
            turns_completed += session.turn_count();
            let c = session.link_counters();
            uplink.offered += c.offered;
            uplink.delivered += c.delivered;
            uplink.delivered_bytes += c.delivered_bytes;
            uplink.dropped_queue += c.dropped_queue;
            uplink.lost_random += c.lost_random;
            uplink.duplicated += c.duplicated;
            uplink.reordered += c.reordered;
            uplink.outage_drops += c.outage_drops;
            resilience.absorb(&session.fault_telemetry());
            counters.accumulate(&session.metrics_snapshot());
        }
        ServingReport {
            sessions: self.session_count(),
            turns_completed,
            uplink,
            resilience,
            counters,
            correct_fraction: self.correct_fraction(),
        }
    }
}

/// A fleet-level snapshot of a [`ConversationChatServer`]: what operations would put on
/// one dashboard line. [`std::fmt::Display`] renders exactly that line.
#[derive(Debug, Clone, PartialEq)]
pub struct ServingReport {
    /// Conversations the server owns.
    pub sessions: usize,
    /// Turns completed across all conversations.
    pub turns_completed: usize,
    /// Sum of every conversation's uplink counters.
    pub uplink: LinkCounters,
    /// Fault telemetry rolled up across conversations (first finite recovery wins).
    pub resilience: FaultTelemetry,
    /// Always-on counter rollup: every session's [`SessionSnapshot`] summed.
    pub counters: SessionSnapshot,
    /// Fraction of the latest turn's answers that were correct.
    pub correct_fraction: f64,
}

impl ServingReport {
    /// Percentage of the latest turn's answers that were correct, or `None` on an empty
    /// fleet / before any turn ran — a 0-session server has no answer quality, and
    /// rendering it as `0%` (or `NaN%`) would misreport "no data" as "all wrong".
    pub fn percent_correct(&self) -> Option<f64> {
        (self.turns_completed > 0).then_some(self.correct_fraction * 100.0)
    }

    /// Mean uplink packets lost per completed turn, or `None` before any turn ran.
    pub fn packets_lost_per_turn(&self) -> Option<f64> {
        (self.turns_completed > 0).then(|| self.counters.packets_lost as f64 / self.turns_completed as f64)
    }

    /// Mean retransmissions per completed turn, or `None` before any turn ran.
    pub fn retransmissions_per_turn(&self) -> Option<f64> {
        (self.turns_completed > 0)
            .then(|| self.counters.retransmissions_sent as f64 / self.turns_completed as f64)
    }

    /// Mean turns completed per session, or `None` on an empty fleet.
    pub fn turns_per_session(&self) -> Option<f64> {
        (self.sessions > 0).then(|| self.turns_completed as f64 / self.sessions as f64)
    }
}

impl std::fmt::Display for ServingReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "serving {} sessions | {} turns | uplink {}/{} pkts ({} B, {} queue-drop, {} lost, {} outage-drop) | \
             {} fallbacks, {} shed, ttr {} | {} correct",
            self.sessions,
            self.turns_completed,
            self.uplink.delivered,
            self.uplink.offered,
            self.uplink.delivered_bytes,
            self.uplink.dropped_queue,
            self.uplink.lost_random,
            self.uplink.outage_drops,
            self.resilience.watchdog_fallbacks,
            self.resilience.frames_shed,
            match self.resilience.time_to_recover_ms {
                Some(ms) => format!("{ms:.0} ms"),
                None => "-".to_string(),
            },
            // An empty fleet renders "-%" instead of a number: see `percent_correct`.
            match self.percent_correct() {
                Some(pct) => format!("{pct:.0}%"),
                None => "-%".to_string(),
            },
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aivc_mllm::QuestionFormat;
    use aivc_scene::templates::basketball_game;
    use aivc_scene::{SourceConfig, VideoSource};

    fn window() -> Vec<Frame> {
        let source = VideoSource::new(basketball_game(1), SourceConfig::fps30(6.0));
        (0..4).map(|i| source.frame(i * 15)).collect()
    }

    fn question() -> Question {
        Question::from_fact(&basketball_game(1).facts[0], QuestionFormat::FreeResponse)
    }

    #[test]
    fn server_reports_match_standalone_sessions() {
        let frames = window();
        let q = question();
        let mut server = ChatServer::new(4, 6, 100);
        server.run_turns(&frames, &q);
        for i in 0..6 {
            let mut standalone = ChatSession::with_defaults(100 + i as u64);
            let expected = standalone.run_turn(&frames, &q);
            assert_eq!(server.report(i), &expected, "session {i}");
        }
    }

    #[test]
    fn results_are_independent_of_pool_size() {
        let frames = window();
        let q = question();
        let collect = |pool_size: usize| {
            let mut server = ChatServer::new(pool_size, 5, 7);
            // Two turns: the second exercises the warm, allocation-free steady state.
            server.run_turns(&frames, &q);
            server.run_turns(&frames, &q);
            server.reports().cloned().collect::<Vec<_>>()
        };
        let sequential = collect(1);
        assert_eq!(collect(2), sequential);
        assert_eq!(collect(8), sequential);
    }

    #[test]
    fn server_turns_are_deterministic_across_runs() {
        let frames = window();
        let q = question();
        let run = || {
            let mut server = ChatServer::new(2, 8, 42);
            server.run_turns(&frames, &q);
            server.reports().cloned().collect::<Vec<_>>()
        };
        assert_eq!(run(), run());
        // All sessions saw the same evidence, so aggregate quality is high.
        let mut server = ChatServer::new(2, 8, 42);
        server.run_turns(&frames, &q);
        assert!(server.correct_fraction() > 0.5);
        assert_eq!(server.session_count(), 8);
        assert_eq!(server.pool_size(), 2);
    }

    #[test]
    fn empty_server_and_empty_reports_are_well_behaved() {
        let mut server = ChatServer::new(2, 0, 1);
        server.run_turns(&window(), &question());
        assert_eq!(server.session_count(), 0);
        assert_eq!(server.correct_fraction(), 0.0);
        assert_eq!(server.reports().count(), 0);
    }

    #[test]
    fn more_sessions_than_lanes_all_get_served() {
        let frames = window();
        let q = question();
        let mut server = ChatServer::new(3, 11, 9);
        server.run_turns(&frames, &q);
        assert!(server.reports().all(|r| r.frames_processed == frames.len()));
    }

    fn net_template(seed: u64) -> NetSessionOptions {
        let mut options =
            NetSessionOptions::ai_oriented(seed, aivc_netsim::PathConfig::paper_section_2_2(0.01));
        options.capture_fps = 8.0;
        options
    }

    #[test]
    fn networked_server_reports_match_standalone_sessions() {
        let frames = window();
        let q = question();
        let mut server = NetworkedChatServer::new(2, 3, net_template(40));
        server.run_turns(&frames, &q);
        for i in 0..3 {
            let mut options = net_template(40);
            options.seed += i as u64;
            let mut standalone = NetworkedChatSession::with_defaults(options);
            assert_eq!(server.report(i), &standalone.run_turn(&frames, &q), "session {i}");
        }
        assert_eq!(server.session_count(), 3);
        assert_eq!(server.pool_size(), 2);
        assert!(server.mean_probability_correct() > 0.5);
    }

    /// Traditional ABR with the whole resilience stack (watchdog, adaptive FEC,
    /// degradation ladder) and deadline-aware NACK, on a 3 Mbps Gilbert–Elliott uplink
    /// that blacks out from 1.35 s to 1.85 s — across turn 1 of a conversation with a
    /// 600 ms think gap — starting from a 6 Mbps estimate that floods the queue.
    fn lossy_resilient_template(seed: u64) -> NetSessionOptions {
        let mut path = aivc_netsim::PathConfig::paper_section_2_2(0.0);
        path.uplink = aivc_netsim::LinkConfig::constant(
            3e6,
            SimDuration::from_millis(40),
            300,
            aivc_netsim::LossModel::GilbertElliott {
                p_good_to_bad: 0.05,
                p_bad_to_good: 0.3,
                loss_good: 0.02,
                loss_bad: 0.5,
            },
        );
        path.uplink.faults =
            aivc_netsim::FaultSchedule::blackout(SimTime::from_millis(1350), SimDuration::from_millis(500));
        let mut options = NetSessionOptions::traditional(seed, path).with_resilience();
        options.deadline_aware_nack = true;
        options.capture_fps = 8.0;
        options.gcc.initial_estimate_bps = 6e6;
        options
    }

    #[test]
    fn conversation_server_matches_standalone_conversations_across_turns() {
        let q = question();
        let think = SimDuration::from_millis(600);
        for (template, lossy) in [(net_template(70), false), (lossy_resilient_template(70), true)] {
            let mut server = ConversationChatServer::new(2, 3, template.clone(), think);
            for t in 0..3 {
                server.run_turns(&turn_window(t), &q);
            }
            for i in 0..3 {
                let mut options = template.clone();
                options.seed += i as u64;
                let mut standalone = Conversation::with_defaults(options, think);
                for t in 0..3 {
                    standalone.run_turn(&turn_window(t), &q);
                }
                assert_eq!(
                    server.conversation_report(i),
                    standalone.report(),
                    "lossy {lossy}, conversation {i}"
                );
            }
            assert!(server.mean_probability_correct() > 0.5);
            if lossy {
                // The lossy input really drives every recovery path through the drain.
                let fleet = server.serving_report();
                let c = fleet.counters;
                assert!(
                    c.retransmissions_sent > 0 && c.nacks_suppressed > 0 && c.fec_recovered_frames > 0,
                    "{c:?}"
                );
                assert!(c.frames_shed > 0 && c.captures_suppressed > 0, "{c:?}");
                assert!(
                    fleet.uplink.outage_drops > 0 && fleet.resilience.time_to_recover_ms.is_some(),
                    "{fleet}"
                );
            }
        }
    }

    /// An empty turn window is rejected by the one check every driver shares — never
    /// committed as a zero-frame turn with a wrapped horizon.
    #[test]
    #[should_panic(expected = "a chat turn needs at least one frame")]
    fn conversation_server_rejects_an_empty_turn_window() {
        let mut server = ConversationChatServer::new(2, 2, net_template(3), SimDuration::from_millis(100));
        server.run_turns(&[], &question());
    }

    fn turn_window(turn: usize) -> Vec<Frame> {
        let source = VideoSource::new(basketball_game(1), SourceConfig::fps30(6.0));
        (0..4)
            .map(|i| source.frame(((turn * 4 + i) * 11 % 170) as u64))
            .collect()
    }

    #[test]
    fn serving_report_rolls_the_fleet_into_one_line() {
        let q = question();
        let think = SimDuration::from_millis(400);
        let mut server = ConversationChatServer::new(2, 3, net_template(80), think);
        for t in 0..2 {
            server.run_turns(&turn_window(t), &q);
        }
        let report = server.serving_report();
        assert_eq!(report.sessions, 3);
        assert_eq!(report.turns_completed, 6);
        assert!(
            report.uplink.offered >= report.uplink.delivered && report.uplink.delivered > 0,
            "summed counters must reflect real traffic: {:?}",
            report.uplink
        );
        // The sum reconciles with per-session resilience rollups.
        let mut expected = FaultTelemetry::default();
        for i in 0..3 {
            expected.absorb(&server.conversation_report(i).resilience);
        }
        assert_eq!(report.resilience, expected);
        let line = report.to_string();
        assert!(line.contains("serving 3 sessions"), "{line}");
        assert!(line.contains("6 turns"), "{line}");
        assert!(line.contains("% correct"), "{line}");
    }

    #[test]
    fn conversation_server_is_pool_size_independent() {
        let q = question();
        let collect = |pool_size: usize| {
            let mut server =
                ConversationChatServer::new(pool_size, 4, net_template(90), SimDuration::from_millis(300));
            for t in 0..2 {
                server.run_turns(&turn_window(t), &q);
            }
            (0..4).map(|i| server.conversation_report(i)).collect::<Vec<_>>()
        };
        let sequential = collect(1);
        assert_eq!(collect(2), sequential);
        assert_eq!(collect(8), sequential);
    }

    #[test]
    fn empty_networked_server_is_well_behaved() {
        let mut server = NetworkedChatServer::new(2, 0, net_template(1));
        server.run_turns(&window(), &question());
        assert_eq!(server.session_count(), 0);
        assert_eq!(server.correct_fraction(), 0.0);
        assert_eq!(server.mean_probability_correct(), 0.0);
        assert_eq!(server.reports().count(), 0);
    }

    /// The always-on counter rollup reconciles *exactly* with per-session report sums —
    /// at every pool size. Turn-committed counters are batch-added at turn conclusion
    /// from the same numbers the `NetTurnReport` carries, so any drift here means an
    /// event site double-counts or a commit was skipped.
    #[test]
    fn fleet_metrics_reconcile_with_report_sums_at_any_pool_size() {
        let q = question();
        for pool_size in [1usize, 2, 8] {
            let mut server =
                ConversationChatServer::new(pool_size, 5, net_template(60), SimDuration::from_millis(350));
            for t in 0..3 {
                server.run_turns(&turn_window(t), &q);
            }
            let mut fleet = SessionSnapshot::default();
            for i in 0..5 {
                let snap = server.metrics_snapshot(i);
                let report = server.conversation_report(i);
                let sum = |f: fn(&NetTurnReport) -> u64| report.turns.iter().map(f).sum::<u64>();
                assert_eq!(
                    snap.frames_sent,
                    sum(|t| t.frames_sent as u64),
                    "pool {pool_size} session {i}"
                );
                assert_eq!(snap.frames_delivered, sum(|t| t.frames_delivered as u64));
                assert_eq!(snap.fec_recovered_frames, sum(|t| t.fec_recovered_frames));
                assert_eq!(snap.packets_lost, sum(|t| t.packets_lost));
                assert_eq!(snap.retransmissions_sent, sum(|t| t.retransmissions_sent));
                assert_eq!(snap.frames_shed, report.resilience.frames_shed);
                assert_eq!(snap.captures_suppressed, report.resilience.captures_suppressed);
                assert_eq!(snap.watchdog_fallbacks, report.resilience.watchdog_fallbacks);
                fleet.accumulate(&snap);
            }
            assert_eq!(server.fleet_metrics(), fleet, "pool {pool_size}");
            assert_eq!(server.serving_report().counters, fleet, "pool {pool_size}");
        }
    }

    /// An empty fleet (or one that has not run a turn) has *no* answer quality: the
    /// report must say "no data", not render `NaN%` or claim `0%` correct.
    #[test]
    fn empty_fleet_serving_report_renders_without_dividing_by_zero() {
        let server = ConversationChatServer::new(2, 0, net_template(1), SimDuration::from_millis(100));
        let report = server.serving_report();
        assert_eq!(report.sessions, 0);
        assert_eq!(report.turns_completed, 0);
        assert_eq!(report.percent_correct(), None);
        assert_eq!(report.packets_lost_per_turn(), None);
        assert_eq!(report.retransmissions_per_turn(), None);
        assert_eq!(report.turns_per_session(), None);
        let line = report.to_string();
        assert!(line.contains("serving 0 sessions"), "{line}");
        assert!(line.contains("-% correct"), "{line}");
        assert!(!line.contains("NaN"), "{line}");
    }

    /// Mixed-geometry fleets would silently break the shared-kernel bit-identity
    /// contract, so construction rejects them loudly.
    #[test]
    #[should_panic(expected = "uniform fleet")]
    fn sharded_server_rejects_mixed_turn_geometry() {
        let a = Conversation::with_defaults(net_template(5), SimDuration::from_millis(100));
        let mut other = net_template(6);
        other.capture_fps = 12.0;
        let b = Conversation::with_defaults(other, SimDuration::from_millis(100));
        let _ = ConversationChatServer::with_sessions(MiniPool::new(2), vec![a, b]);
    }

    /// The fallible constructor reports fleet-admission violations structurally —
    /// naming the offending session — so a caller can reject or fix one conversation
    /// instead of aborting the process.
    #[test]
    fn try_with_sessions_reports_the_offending_session() {
        // Geometry mismatch in any of the three fields names the divergent member.
        let a = Conversation::with_defaults(net_template(5), SimDuration::from_millis(100));
        let b = Conversation::with_defaults(net_template(6), SimDuration::from_millis(250));
        let err = ConversationChatServer::try_with_sessions(MiniPool::new(2), vec![a, b])
            .expect_err("mixed think gaps must be rejected");
        assert_eq!(err, ServerError::MixedGeometry { index: 1 });
        assert!(err.to_string().contains("uniform fleet"), "{err}");

        let a = Conversation::with_defaults(net_template(5), SimDuration::from_millis(100));
        let mut other = net_template(6);
        other.drain_secs = 9.0;
        let c = Conversation::with_defaults(other, SimDuration::from_millis(100));
        let err = ConversationChatServer::try_with_sessions(MiniPool::new(2), vec![a, c])
            .expect_err("mixed drain windows must be rejected");
        assert_eq!(err, ServerError::MixedGeometry { index: 1 });

        // A conversation that has already run carries history the shared kernel
        // cannot replay; admission rejects it as not fresh.
        let mut used = Conversation::with_defaults(net_template(5), SimDuration::from_millis(100));
        used.run_turn(&window(), &question());
        let fresh = Conversation::with_defaults(net_template(5), SimDuration::from_millis(100));
        let err = ConversationChatServer::try_with_sessions(MiniPool::new(2), vec![fresh, used])
            .expect_err("a used conversation must be rejected");
        assert_eq!(err, ServerError::SessionNotFresh { index: 1 });
        assert!(err.to_string().contains("fresh timelines"), "{err}");

        // A uniform, fresh fleet is admitted and shards as before.
        let fleet = (0..4)
            .map(|i| Conversation::with_defaults(net_template(i), SimDuration::from_millis(100)))
            .collect();
        let server = ConversationChatServer::try_with_sessions(MiniPool::new(2), fleet)
            .expect("uniform fresh fleet admits");
        assert_eq!(server.session_count(), 4);
        assert_eq!(server.pool_size(), 2);
    }
}
