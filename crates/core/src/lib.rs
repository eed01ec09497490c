//! # aivchat-core — Context-Aware Video Streaming and the AI Video Chat pipeline
//!
//! This crate is the paper's primary contribution, assembled from the substrate crates:
//!
//! * [`allocator`] — Eq. 2: mapping per-patch semantic correlation ρ (Eq. 1, from
//!   `aivc-semantics`) to per-CTU quantization parameters with temperature γ = 3;
//! * [`context_aware`] — the context-aware streamer: user words → CLIP correlation map →
//!   QP map → ROI encode, plus the trial-and-error bitrate matching used to compare against
//!   the baseline at equal actual bitrates (§3.2);
//! * [`baseline`] — the context-agnostic uniform-QP baseline;
//! * [`latency`] — the end-to-end response-latency budget (capture, CLIP, encode,
//!   transmission, decode, MLLM inference) against the 300 ms conversational bound (§1);
//! * [`session`] — the full AI Video Chat turn: capture → encode → RTC over the emulated
//!   uplink → decode → MLLM answer, with per-stage latency accounting;
//! * [`net_session`] — the network-in-the-loop turn: per-frame GCC feedback → ABR target →
//!   encode-at-bitrate → FEC/NACK recovery → decode, on a trace-driven emulated uplink
//!   (a conversation whose transport and timeline restart every turn);
//! * [`conversation`] — continuous multi-turn conversations: one persistent transport
//!   timeline (clock, link, trace cursor, GCC, pacer, in-flight packets) across every
//!   turn, with think-time gaps and cross-turn aggregates ([`ConversationReport`]).
//!   [`Conversation`] is the one member type every turn driver runs, and its lockstep
//!   drain is the one loop behind a standalone conversation, a fleet's lane shard and a
//!   single-turn session;
//! * [`contention`] — shared-bottleneck multi-tenant contention: K conversations plus
//!   cross-traffic contending for one [`aivc_netsim::SharedLink`] on one simulation
//!   timeline, with windowed Jain fairness, a per-tenant starvation watchdog, fair-share
//!   admission and tenant-isolated recovery ([`ContentionReport`]);
//! * [`server`] — the multi-session throughput engines ([`ChatServer`] for pure compute,
//!   [`NetworkedChatServer`] for network-in-the-loop turns, [`ConversationChatServer`]
//!   for continuous conversations): N independent sessions executing turns across a
//!   scoped thread pool, bit-identically for any pool size;
//! * [`scenarios`] — the registry of named, seeded network scenarios and the engine that
//!   reports traditional vs AI-oriented ABR on each (the golden-fixture substrate);
//! * [`eval`] — the Figure 9 experiment: DeViBench accuracy of ours vs the baseline across
//!   matched bitrates.

pub mod allocator;
pub mod baseline;
pub mod contention;
pub mod context_aware;
pub mod conversation;
pub mod eval;
pub mod latency;
pub mod net_session;
mod net_turn;
pub mod scenarios;
pub mod server;
pub mod session;

pub use aivc_metrics::{SessionCounters, SessionSnapshot};
pub use allocator::{QpAllocator, QpAllocatorConfig};
pub use baseline::ContextAgnosticBaseline;
pub use contention::{
    run_contention, AdmissionConfig, ContentionConfig, ContentionReport, CrossTrafficSpec, StarvationConfig,
    TenantReport, TenantSpec, TenantTurn,
};
pub use context_aware::{ContextAwareStreamer, StreamerConfig};
pub use conversation::{Conversation, ConversationReport};
pub use eval::{run_accuracy_vs_bitrate, AccuracyPoint, MethodKind};
pub use latency::{LatencyBudget, RESPONSE_LATENCY_TARGET_MS};
pub use net_session::{NetSessionOptions, NetTurnReport, NetworkedChatSession};
pub use scenarios::{
    ContentionScenario, ContentionScenarioReport, ConversationScenario, ConversationScenarioReport, Scenario,
    ScenarioReport,
};
pub use server::{
    ChatServer, ConversationChatServer, NetworkedChatServer, ServerError, ServingReport,
};
pub use session::{AiVideoChatSession, ChatSession, ChatTurnReport, PipelineTurnReport, SessionOptions};
