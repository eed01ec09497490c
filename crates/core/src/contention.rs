//! Multi-tenant contention: K conversations (plus cross-traffic) on one shared bottleneck.
//!
//! Single-tenant experiments ([`crate::Conversation`]) give every session a private link,
//! so outage resilience is only ever proven in isolation. Production serving is the
//! opposite: many users squeeze through one uplink/cell, and a blackout there hits every
//! tenant at once. This module multiplexes K persistent conversation timelines onto **one**
//! `aivc-sim` event queue and **one** [`SharedLink`]:
//!
//! * every tenant is a [`crate::Conversation`] — the one member type every driver runs —
//!   whose uplink packets ride a shared bottleneck as one flow among K (+ cross-traffic),
//!   via [`crate::net_turn::UplinkPort::Shared`], and whose events reach the global queue
//!   through the same member-tagged sink a lane shard uses;
//! * tenant turn lifecycles become events ([`MtEvent::TurnBegin`]/[`MtEvent::TurnEnd`])
//!   on the global timeline, because tenants join, think and turn on their own schedules;
//!   turns of different tenants interleave packet-by-packet in strict chronological order;
//! * a **starvation watchdog** samples per-tenant goodput every fairness window: a tenant
//!   whose share stays below a configured floor for consecutive windows gets its
//!   degradation ladder escalated ([`aivc_rtc::cc::GccController::force_fallback`]) and
//!   the event is *counted*, never silently absorbed;
//! * **fairness telemetry** records each window's per-tenant share and Jain's index, plus
//!   a post-recovery index over everything delivered after the last shared outage ends;
//! * **late-joiner admission** clamps a joining tenant's initial estimate to its fair
//!   share of the nominal rate, so it converges without stampeding incumbents.
//!
//! Determinism: one global event queue, one shared-link RNG, tie-break by insertion
//! order. With K = 1 and the shared link seeded like the tenant's private uplink, the
//! engine reproduces a [`crate::Conversation`] bit-for-bit (pinned by a test below). The
//! single measure-zero caveat: a packet left in flight by turn `k` that lands exactly one
//! microsecond after turn `k+1`'s answer deadline is processed before that turn concludes
//! here, whereas a `Conversation` would process it just after — both orders are
//! deterministic, and no integer-microsecond schedule in the registry exhibits the tie.

use crate::context_aware::StreamerConfig;
use crate::conversation::{Conversation, ConversationReport};
use crate::net_session::NetSessionOptions;
use crate::net_turn::{MemberEvent, MemberSink, TurnPlan, UplinkPort};
use aivc_mllm::Question;
use aivc_netsim::{jain_index, FaultKind, LinkConfig, LinkCounters, Packet, SharedLink};
use aivc_scene::Frame;
use aivc_semantics::ClipModel;
use aivc_sim::{Actor, SimDuration, SimTime, Simulation};
use serde::{Deserialize, Serialize};

/// One scripted turn of a tenant's conversation.
#[derive(Debug, Clone, PartialEq)]
pub struct TenantTurn {
    /// The turn's capture window.
    pub frames: Vec<Frame>,
    /// The user's question for the turn.
    pub question: Question,
}

/// One tenant: a full conversation (options + scripted turns) joining the shared
/// bottleneck at `join_at`.
#[derive(Debug, Clone)]
pub struct TenantSpec {
    /// Display label ("tenant-0", "joiner", ...).
    pub label: String,
    /// ABR-mode label for the report ("ai_oriented" / "traditional").
    pub mode: String,
    /// When the tenant's first turn begins on the global timeline.
    pub join_at: SimTime,
    /// Think time inserted between consecutive turns.
    pub think: SimDuration,
    /// Session options. `options.path.uplink` must equal the shared link's config so
    /// propagation delays and outage reporting see the bottleneck the packets really
    /// ride; the private uplink it configures sits idle (its RNG is never drawn from).
    pub options: NetSessionOptions,
    /// The scripted turns.
    pub turns: Vec<TenantTurn>,
}

/// Background cross-traffic: fixed-size packets offered at a constant rate over
/// `[start, stop)`, contending as one extra flow on the shared link.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct CrossTrafficSpec {
    /// Offered rate in bits per second.
    pub rate_bps: f64,
    /// Size of each packet.
    pub packet_bytes: u32,
    /// First send time.
    pub start: SimTime,
    /// Exclusive end of the sending window.
    pub stop: SimTime,
}

/// Starvation-watchdog configuration.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct StarvationConfig {
    /// Master switch.
    pub enabled: bool,
    /// Windowed-goodput floor (bits per second) below which a tenant counts as starving.
    pub floor_bps: f64,
    /// How many *consecutive* starving windows escalate the tenant's degradation ladder.
    pub consecutive_windows: u32,
}

impl StarvationConfig {
    /// Watchdog off.
    pub fn disabled() -> Self {
        Self {
            enabled: false,
            floor_bps: 0.0,
            consecutive_windows: u32::MAX,
        }
    }
}

/// Late-joiner admission configuration.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct AdmissionConfig {
    /// Master switch.
    pub enabled: bool,
    /// A joiner's initial estimate is clamped to
    /// `nominal_bps * fair_share_cap / active_tenants`.
    pub fair_share_cap: f64,
}

impl AdmissionConfig {
    /// Admission control off: joiners start from their configured initial estimate.
    pub fn disabled() -> Self {
        Self {
            enabled: false,
            fair_share_cap: 1.0,
        }
    }
}

/// Configuration of one contention run.
#[derive(Debug, Clone)]
pub struct ContentionConfig {
    /// The shared bottleneck every tenant (and cross-traffic source) contends for.
    pub shared_uplink: LinkConfig,
    /// Seed of the shared link's random processes.
    pub shared_seed: u64,
    /// Nominal bottleneck rate (bits per second) — the fair-share denominator for
    /// admission control.
    pub nominal_bps: f64,
    /// Width of the fairness-telemetry sampling window.
    pub fairness_window: SimDuration,
    /// Starvation-watchdog settings.
    pub starvation: StarvationConfig,
    /// Late-joiner admission settings.
    pub admission: AdmissionConfig,
    /// Background cross-traffic sources.
    pub cross_traffic: Vec<CrossTrafficSpec>,
}

/// One fairness-telemetry sample: shares over the window ending at `end_ms`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FairnessWindow {
    /// Window end, in milliseconds of global simulated time.
    pub end_ms: f64,
    /// Tenants mid-conversation during the window (the Jain population).
    pub active_tenants: u32,
    /// Jain's index over the active tenants' windowed goodput shares.
    pub jain: f64,
    /// Windowed goodput of every tenant (active or not), bits per second.
    pub shares_bps: Vec<f64>,
}

/// Fairness telemetry over a whole contention run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FairnessReport {
    /// Sampling window width in milliseconds.
    pub window_ms: f64,
    /// Jain's index over each tenant's total delivered bytes.
    pub jain_overall: f64,
    /// Jain's index over bytes delivered after the last shared outage ended — the
    /// "did everyone recover *together*" number. `None` when the shared link has no
    /// outage episodes.
    pub jain_post_recovery: Option<f64>,
    /// Every sampled window, in time order.
    pub windows: Vec<FairnessWindow>,
}

/// One tenant's slice of a [`ContentionReport`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TenantReport {
    /// The tenant's label.
    pub label: String,
    /// ABR-mode label.
    pub mode: String,
    /// Join time in milliseconds.
    pub join_ms: f64,
    /// Bytes the shared link delivered for this tenant.
    pub delivered_bytes: u64,
    /// This tenant's fraction of all tenant-delivered bytes.
    pub goodput_share: f64,
    /// Starvation-watchdog escalations charged to this tenant.
    pub starvation_events: u64,
    /// The tenant's full conversation report (same shape as a single-tenant run).
    pub conversation: ConversationReport,
}

/// The report of one multi-tenant contention run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ContentionReport {
    /// Per-tenant results, in tenant order.
    pub tenants: Vec<TenantReport>,
    /// Windowed fairness telemetry.
    pub fairness: FairnessReport,
    /// Aggregate counters of the shared link (tenants + cross-traffic).
    pub shared_link: LinkCounters,
    /// Bytes delivered for cross-traffic flows.
    pub cross_traffic_delivered_bytes: u64,
}

impl ContentionReport {
    /// Every tenant observed a finite outage recovery (`time_to_recover_ms`).
    pub fn all_tenants_recovered(&self) -> bool {
        self.tenants
            .iter()
            .all(|t| t.conversation.resilience.time_to_recover_ms.is_some())
    }

    /// Total starvation escalations across tenants.
    pub fn starvation_events_total(&self) -> u64 {
        self.tenants.iter().map(|t| t.starvation_events).sum()
    }
}

/// Events of the multi-tenant timeline.
#[derive(Debug)]
enum MtEvent {
    /// A tenant's transport event (capture, send, arrival, poll, feedback); the member
    /// index is the tenant index.
    Net(MemberEvent),
    /// A tenant's next turn window opens.
    TurnBegin { tenant: usize },
    /// A tenant's turn deadline passed: conclude and report.
    TurnEnd { tenant: usize },
    /// A cross-traffic source offers its next packet.
    Cross { source: usize },
    /// The fairness/starvation sampling tick.
    FairnessTick,
}

impl From<MemberEvent> for MtEvent {
    fn from(event: MemberEvent) -> Self {
        MtEvent::Net(event)
    }
}

/// Per-tenant engine state: the tenant's conversation plus the contention bookkeeping
/// around it.
struct TenantState {
    spec: TenantSpec,
    conversation: Conversation,
    /// The live turn's plan; `None` before the first turn and between turns.
    plan: Option<TurnPlan>,
    /// `[first capture, last capture]` of the live turn — the span inside which a
    /// fairness window is *eligible* for starvation accounting (a tenant thinking or
    /// draining is silent by design, not starved).
    capture_span: Option<(SimTime, SimTime)>,
    starve_streak: u32,
    starvation_events: u64,
    /// `delivered_bytes` of this tenant's flow at the last fairness tick.
    window_bytes_snapshot: u64,
}

impl TenantState {
    fn finished(&self) -> bool {
        self.conversation.turn_count() >= self.spec.turns.len()
    }

    /// Mid-conversation: the first window has opened and the last turn has not reported.
    fn mid_conversation(&self) -> bool {
        (self.plan.is_some() || self.conversation.turn_count() > 0) && !self.finished()
    }
}

struct CrossState {
    spec: CrossTrafficSpec,
    interval_us: u64,
    next_id: u64,
}

/// The multi-tenant actor over the global timeline.
struct ContentionMachine {
    tenants: Vec<TenantState>,
    cross: Vec<CrossState>,
    shared: SharedLink,
    starvation: StarvationConfig,
    admission: AdmissionConfig,
    nominal_bps: f64,
    fairness_window_us: u64,
    windows: Vec<FairnessWindow>,
    /// End of the last shared outage episode, if any — the post-recovery anchor.
    recovery_time: Option<SimTime>,
    /// Per-tenant `delivered_bytes` at the first tick past `recovery_time`.
    post_recovery_snapshot: Option<Vec<u64>>,
    global_end: SimTime,
}

impl Actor for ContentionMachine {
    type Event = MtEvent;

    fn on_event(&mut self, now: SimTime, event: MtEvent, sim: &mut Simulation<MtEvent>) {
        match event {
            MtEvent::TurnBegin { tenant } => self.on_turn_begin(tenant, now, sim),
            MtEvent::TurnEnd { tenant } => self.on_turn_end(tenant, sim),
            MtEvent::Net(event) => self.on_net(now, event, sim),
            MtEvent::Cross { source } => self.on_cross(source, now, sim),
            MtEvent::FairnessTick => self.on_fairness_tick(now, sim),
        }
    }
}

impl ContentionMachine {
    fn on_turn_begin(&mut self, tenant: usize, now: SimTime, sim: &mut Simulation<MtEvent>) {
        // Fair share is over tenants currently mid-conversation (incumbents), plus the
        // joiner itself opening its first window right now.
        let active = self
            .tenants
            .iter()
            .filter(|t| t.mid_conversation() || (t.spec.join_at <= now && !t.finished()))
            .count()
            .max(1);
        let t = &mut self.tenants[tenant];
        let idx = t.conversation.turn_count();
        debug_assert!(idx < t.spec.turns.len(), "turn begin past the script");
        if idx == 0 && self.admission.enabled {
            t.conversation
                .gcc
                .clamp_estimate(self.nominal_bps * self.admission.fair_share_cap / active as f64);
        }
        let turn = &t.spec.turns[idx];
        let plan = t.conversation.begin_turn_on(
            now,
            &UplinkPort::Shared {
                link: &mut self.shared,
                flow: tenant,
            },
            &mut MemberSink {
                member: tenant as u32,
                sim: &mut *sim,
            },
            turn.frames.len(),
            &turn.question,
        );
        t.capture_span = Some((now, plan.last_capture));
        t.plan = Some(plan);
        // One microsecond past the deadline: every event at the deadline itself (which a
        // lockstep `run_until(horizon)` drains inclusively) pops first, by time; the
        // integer-microsecond clock leaves nothing in between. See the module docs for the
        // one tie this leaves open.
        sim.schedule_at(
            plan.horizon + SimDuration::from_micros(1),
            MtEvent::TurnEnd { tenant },
        );
    }

    fn on_turn_end(&mut self, tenant: usize, sim: &mut Simulation<MtEvent>) {
        let t = &mut self.tenants[tenant];
        let plan = t.plan.take().expect("turn end without a live turn");
        let turn = &t.spec.turns[t.conversation.turn_count()];
        t.conversation.conclude_turn_on(
            &UplinkPort::Shared {
                link: &mut self.shared,
                flow: tenant,
            },
            &plan,
            turn.frames.len(),
            &turn.question,
        );
        t.capture_span = None;
        if !t.finished() {
            sim.schedule_at(
                plan.horizon + t.conversation.think_gap(),
                MtEvent::TurnBegin { tenant },
            );
        }
    }

    fn on_net(&mut self, now: SimTime, event: MemberEvent, sim: &mut Simulation<MtEvent>) {
        let tenant = event.member as usize;
        let t = &mut self.tenants[tenant];
        let live = t.plan.map(|plan| {
            let frames: &[Frame] = &t.spec.turns[t.conversation.turn_count()].frames;
            (frames, plan.window)
        });
        t.conversation.handle_net(
            now,
            event.event,
            live,
            UplinkPort::Shared {
                link: &mut self.shared,
                flow: tenant,
            },
            &mut MemberSink {
                member: event.member,
                sim,
            },
        );
    }

    fn on_cross(&mut self, source: usize, now: SimTime, sim: &mut Simulation<MtEvent>) {
        let flow = self.tenants.len() + source;
        let c = &mut self.cross[source];
        if now >= c.spec.stop {
            return;
        }
        let packet = Packet::new(c.next_id, c.spec.packet_bytes, now);
        c.next_id += 1;
        self.shared.send(flow, &packet, now);
        let next = now + SimDuration::from_micros(c.interval_us);
        if next < c.spec.stop {
            sim.schedule_at(next, MtEvent::Cross { source });
        }
    }

    fn on_fairness_tick(&mut self, now: SimTime, sim: &mut Simulation<MtEvent>) {
        let window_secs = self.fairness_window_us as f64 / 1e6;
        let k = self.tenants.len();
        let mut shares = Vec::with_capacity(k);
        for i in 0..k {
            let bytes = self.shared.flow_counters(i).delivered_bytes;
            let delta = bytes - self.tenants[i].window_bytes_snapshot;
            self.tenants[i].window_bytes_snapshot = bytes;
            shares.push(delta as f64 * 8.0 / window_secs);
        }
        let active: Vec<f64> = (0..k)
            .filter(|&i| self.tenants[i].mid_conversation())
            .map(|i| shares[i])
            .collect();
        self.windows.push(FairnessWindow {
            end_ms: now.as_micros() as f64 / 1e3,
            active_tenants: active.len() as u32,
            jain: jain_index(&active),
            shares_bps: shares.clone(),
        });

        if self.starvation.enabled {
            let window_start = SimTime::from_micros(now.as_micros().saturating_sub(self.fairness_window_us));
            let floor = self.starvation.floor_bps;
            let needed = self.starvation.consecutive_windows;
            for (i, t) in self.tenants.iter_mut().enumerate() {
                // Eligible only when the whole window sits inside the tenant's capture
                // phase: goodput during think time or the post-capture drain is low by
                // design, and flagging it would make the watchdog fire on every healthy
                // tenant. The streak is *held* (not reset) across ineligible windows —
                // "sustained while transmitting" semantics.
                let eligible = t.capture_span.is_some_and(|(s, e)| s <= window_start && now <= e);
                if !eligible {
                    continue;
                }
                if shares[i] < floor {
                    t.starve_streak += 1;
                } else {
                    t.starve_streak = 0;
                }
                if t.starve_streak >= needed {
                    t.starvation_events += 1;
                    t.starve_streak = 0;
                    // Escalate the tenant's own degradation ladder: force_fallback makes
                    // `in_fallback()` true, so its next capture rides the SoftFallback
                    // rung and its sending rate steps down toward survivability.
                    t.conversation.gcc.force_fallback();
                }
            }
        }

        if let Some(rt) = self.recovery_time {
            if now >= rt && self.post_recovery_snapshot.is_none() {
                self.post_recovery_snapshot = Some(
                    (0..k)
                        .map(|i| self.shared.flow_counters(i).delivered_bytes)
                        .collect(),
                );
            }
        }

        let next = now + SimDuration::from_micros(self.fairness_window_us);
        if next <= self.global_end {
            sim.schedule_at(next, MtEvent::FairnessTick);
        }
    }
}

/// Runs a full contention experiment: K tenant conversations plus cross-traffic on one
/// shared bottleneck, from time zero to the last tenant's final answer deadline.
///
/// # Panics
///
/// Panics if `tenants` is empty, or if a scripted turn has no frames ("a chat turn needs
/// at least one frame", the check every driver shares).
pub fn run_contention(config: &ContentionConfig, tenants: Vec<TenantSpec>) -> ContentionReport {
    assert!(!tenants.is_empty(), "a contention run needs at least one tenant");
    // The global horizon: every tenant's final answer deadline, plus the 1 µs TurnEnd
    // offset. Planning every scripted turn here also rejects an empty one before the run.
    let mut global_end = SimTime::ZERO;
    for t in &tenants {
        let mut begin = t.join_at;
        let mut horizon = begin;
        for turn in &t.turns {
            horizon = TurnPlan::new(&t.options, 0, begin, turn.frames.len()).horizon;
            begin = horizon + t.think;
        }
        global_end = global_end.max(horizon + SimDuration::from_micros(1));
    }
    let tenant_count = tenants.len();
    let flow_count = tenant_count + config.cross_traffic.len();
    let shared = SharedLink::new(config.shared_uplink.clone(), config.shared_seed, flow_count);
    let recovery_time = config
        .shared_uplink
        .faults
        .episodes()
        .iter()
        .filter(|e| matches!(e.kind, FaultKind::Outage))
        .map(|e| e.end())
        .max();

    // One immutable CLIP model for the whole cell; every tenant holds a clone.
    let model = ClipModel::mobile_default();
    let states: Vec<TenantState> = tenants
        .into_iter()
        .map(|spec| TenantState {
            conversation: Conversation::new(
                spec.options.clone(),
                StreamerConfig::default(),
                model.clone(),
                spec.think,
            ),
            spec,
            plan: None,
            capture_span: None,
            starve_streak: 0,
            starvation_events: 0,
            window_bytes_snapshot: 0,
        })
        .collect();

    let cross: Vec<CrossState> = config
        .cross_traffic
        .iter()
        .map(|spec| CrossState {
            spec: spec.clone(),
            interval_us: ((spec.packet_bytes as f64 * 8.0 / spec.rate_bps) * 1e6)
                .round()
                .max(1.0) as u64,
            next_id: 0,
        })
        .collect();

    let fairness_window_us = config.fairness_window.as_micros().max(1);
    let mut machine = ContentionMachine {
        tenants: states,
        cross,
        shared,
        starvation: config.starvation,
        admission: config.admission,
        nominal_bps: config.nominal_bps,
        fairness_window_us,
        windows: Vec::new(),
        recovery_time,
        post_recovery_snapshot: None,
        global_end,
    };

    let mut sim = Simulation::new();
    for (i, t) in machine.tenants.iter().enumerate() {
        if !t.spec.turns.is_empty() {
            sim.schedule_at(t.spec.join_at, MtEvent::TurnBegin { tenant: i });
        }
    }
    for (s, c) in machine.cross.iter().enumerate() {
        sim.schedule_at(c.spec.start, MtEvent::Cross { source: s });
    }
    sim.schedule_at(SimTime::from_micros(fairness_window_us), MtEvent::FairnessTick);
    sim.run_until(global_end, &mut machine);

    // --- Assemble the report.
    let tenant_bytes: Vec<u64> = (0..tenant_count)
        .map(|i| machine.shared.flow_counters(i).delivered_bytes)
        .collect();
    let total_tenant_bytes: u64 = tenant_bytes.iter().sum();
    let overall: Vec<f64> = tenant_bytes.iter().map(|&b| b as f64).collect();
    let jain_post_recovery = machine.post_recovery_snapshot.as_ref().map(|snap| {
        let deltas: Vec<f64> = (0..tenant_count)
            .map(|i| (tenant_bytes[i] - snap[i]) as f64)
            .collect();
        jain_index(&deltas)
    });
    let cross_traffic_delivered_bytes: u64 = (tenant_count..flow_count)
        .map(|f| machine.shared.flow_counters(f).delivered_bytes)
        .sum();
    let tenants: Vec<TenantReport> = machine
        .tenants
        .iter()
        .enumerate()
        .map(|(i, t)| TenantReport {
            label: t.spec.label.clone(),
            mode: t.spec.mode.clone(),
            join_ms: t.spec.join_at.as_micros() as f64 / 1e3,
            delivered_bytes: tenant_bytes[i],
            goodput_share: if total_tenant_bytes == 0 {
                0.0
            } else {
                tenant_bytes[i] as f64 / total_tenant_bytes as f64
            },
            starvation_events: t.starvation_events,
            conversation: t.conversation.report(),
        })
        .collect();
    ContentionReport {
        tenants,
        fairness: FairnessReport {
            window_ms: fairness_window_us as f64 / 1e3,
            jain_overall: jain_index(&overall),
            jain_post_recovery,
            windows: machine.windows,
        },
        shared_link: machine.shared.counters(),
        cross_traffic_delivered_bytes,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::conversation::Conversation;
    use aivc_mllm::QuestionFormat;
    use aivc_netsim::{FaultSchedule, LossModel, PathConfig};
    use aivc_scene::templates::basketball_game;
    use aivc_scene::{SourceConfig, VideoSource};

    fn clean_downlink() -> LinkConfig {
        LinkConfig::constant(100e6, SimDuration::from_millis(30), 300, LossModel::None)
    }

    fn turn_script(tenant: usize, turns: usize, frames_per_turn: usize, fps: f64) -> Vec<TenantTurn> {
        let scene = basketball_game(1);
        let source = VideoSource::new(scene.clone(), SourceConfig::fps30(6.0));
        (0..turns)
            .map(|turn| {
                let start = (turn * frames_per_turn + tenant * 3) % 150;
                TenantTurn {
                    frames: (0..frames_per_turn)
                        .map(|i| source.frame(((start + i) as f64 * 30.0 / fps) as u64 % 170))
                        .collect(),
                    question: Question::from_fact(
                        &scene.facts[(turn + tenant) % scene.facts.len()],
                        QuestionFormat::FreeResponse,
                    ),
                }
            })
            .collect()
    }

    fn tenant_options(seed: u64, uplink: &LinkConfig, fps: f64) -> NetSessionOptions {
        let mut o = NetSessionOptions::ai_oriented(
            seed,
            PathConfig {
                uplink: uplink.clone(),
                downlink: clean_downlink(),
            },
        );
        o.capture_fps = fps;
        o
    }

    fn base_config(uplink: LinkConfig, seed: u64, nominal_bps: f64) -> ContentionConfig {
        ContentionConfig {
            shared_uplink: uplink,
            shared_seed: seed,
            nominal_bps,
            fairness_window: SimDuration::from_millis(500),
            starvation: StarvationConfig::disabled(),
            admission: AdmissionConfig::disabled(),
            cross_traffic: Vec::new(),
        }
    }

    #[test]
    fn single_tenant_contention_matches_a_private_conversation_bit_for_bit() {
        // K = 1 with the shared link seeded exactly like the tenant's private uplink:
        // the engine must reproduce `Conversation` — same interleaving, same RNG draws,
        // same report — which pins that multi-tenancy changed nothing single-tenant.
        let seed = 42;
        let fps = 8.0;
        let think = SimDuration::from_millis(400);
        let iid = LinkConfig::constant(
            4e6,
            SimDuration::from_millis(30),
            300,
            LossModel::Iid { rate: 0.01 },
        );
        // Traditional ABR with the whole resilience stack and deadline-aware NACK, on a
        // bursty 3 Mbps uplink blacked out across turn 1, from a 6 Mbps cold estimate:
        // NACK/RTX, FEC recovery, the degradation ladder and outage recovery all run.
        let mut bursty = LinkConfig::constant(
            3e6,
            SimDuration::from_millis(40),
            300,
            LossModel::GilbertElliott {
                p_good_to_bad: 0.05,
                p_bad_to_good: 0.3,
                loss_good: 0.02,
                loss_bad: 0.5,
            },
        );
        bursty.faults = FaultSchedule::blackout(SimTime::from_millis(1100), SimDuration::from_millis(500));
        let mut resilient = NetSessionOptions::traditional(
            seed,
            PathConfig {
                uplink: bursty.clone(),
                downlink: clean_downlink(),
            },
        )
        .with_resilience();
        resilient.deadline_aware_nack = true;
        resilient.capture_fps = fps;
        resilient.gcc.initial_estimate_bps = 6e6;

        for (uplink, options, lossy) in [
            (iid.clone(), tenant_options(seed, &iid, fps), false),
            (bursty, resilient, true),
        ] {
            let script = turn_script(0, 3, 4, fps);
            let mut conv = Conversation::with_defaults(options.clone(), think);
            for turn in &script {
                conv.run_turn(&turn.frames, &turn.question);
            }
            let expected = conv.report();

            let config = base_config(uplink, seed, 4e6);
            let report = run_contention(
                &config,
                vec![TenantSpec {
                    label: "solo".into(),
                    mode: "ai_oriented".into(),
                    join_at: SimTime::ZERO,
                    think,
                    options,
                    turns: script,
                }],
            );
            assert_eq!(report.tenants[0].conversation, expected, "lossy {lossy}");
            if lossy {
                let turns = &expected.turns;
                assert!(turns.iter().map(|t| t.retransmissions_sent).sum::<u64>() > 0);
                assert!(turns.iter().map(|t| t.fec_recovered_frames).sum::<u64>() > 0);
                assert!(expected.nacks_suppressed > 0);
                let r = expected.resilience;
                assert!(r.frames_shed > 0 && r.captures_suppressed > 0, "{r:?}");
                assert!(r.outage_drops > 0 && r.time_to_recover_ms.is_some(), "{r:?}");
            }
        }
    }

    #[test]
    fn contention_runs_are_deterministic() {
        let uplink = LinkConfig::constant(
            6e6,
            SimDuration::from_millis(30),
            300,
            LossModel::Iid { rate: 0.01 },
        );
        let run = || {
            let config = base_config(uplink.clone(), 7, 6e6);
            let tenants = (0..3)
                .map(|i| TenantSpec {
                    label: format!("tenant-{i}"),
                    mode: "ai_oriented".into(),
                    join_at: SimTime::from_millis(i as u64 * 100),
                    think: SimDuration::from_millis(300),
                    options: tenant_options(7 + i as u64, &uplink, 8.0),
                    turns: turn_script(i, 2, 4, 8.0),
                })
                .collect();
            run_contention(&config, tenants)
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn per_tenant_flow_counters_reconcile_with_the_shared_link() {
        let uplink = LinkConfig::constant(5e6, SimDuration::from_millis(30), 300, LossModel::None);
        let config = base_config(uplink.clone(), 11, 5e6);
        let tenants = (0..2)
            .map(|i| TenantSpec {
                label: format!("tenant-{i}"),
                mode: "ai_oriented".into(),
                join_at: SimTime::ZERO,
                think: SimDuration::from_millis(200),
                options: tenant_options(20 + i as u64, &uplink, 8.0),
                turns: turn_script(i, 2, 4, 8.0),
            })
            .collect();
        let report = run_contention(&config, tenants);
        let tenant_bytes: u64 = report.tenants.iter().map(|t| t.delivered_bytes).sum();
        assert_eq!(
            tenant_bytes + report.cross_traffic_delivered_bytes,
            report.shared_link.delivered_bytes
        );
        assert!(report.tenants.iter().all(|t| t.delivered_bytes > 0));
        let share_sum: f64 = report.tenants.iter().map(|t| t.goodput_share).sum();
        assert!((share_sum - 1.0).abs() < 1e-9);
    }

    #[test]
    fn starvation_watchdog_stays_quiet_on_an_evenly_shared_clean_link() {
        // Ample fault-free bandwidth, identical tenants: nobody's windowed goodput dips
        // below a conservative floor, so the watchdog must never escalate.
        let uplink = LinkConfig::constant(16e6, SimDuration::from_millis(30), 300, LossModel::None);
        let mut config = base_config(uplink.clone(), 13, 16e6);
        config.starvation = StarvationConfig {
            enabled: true,
            floor_bps: 100_000.0,
            consecutive_windows: 2,
        };
        let tenants = (0..3)
            .map(|i| TenantSpec {
                label: format!("tenant-{i}"),
                mode: "ai_oriented".into(),
                join_at: SimTime::ZERO,
                think: SimDuration::from_millis(300),
                options: tenant_options(30 + i as u64, &uplink, 12.0),
                turns: turn_script(i, 3, 12, 12.0),
            })
            .collect();
        let report = run_contention(&config, tenants);
        assert_eq!(report.starvation_events_total(), 0);
        assert!(
            report.fairness.jain_overall > 0.9,
            "even tenants should share evenly"
        );
    }

    #[test]
    fn admission_clamps_a_late_joiner_to_its_fair_share() {
        let uplink = LinkConfig::constant(6e6, SimDuration::from_millis(30), 300, LossModel::None);
        let mut config = base_config(uplink.clone(), 17, 6e6);
        config.admission = AdmissionConfig {
            enabled: true,
            fair_share_cap: 1.0,
        };
        let mut joiner_options = tenant_options(50, &uplink, 8.0);
        joiner_options.gcc.initial_estimate_bps = 20e6; // wildly optimistic
        let tenants = vec![
            TenantSpec {
                label: "incumbent".into(),
                mode: "ai_oriented".into(),
                join_at: SimTime::ZERO,
                think: SimDuration::from_millis(300),
                options: tenant_options(51, &uplink, 8.0),
                turns: turn_script(0, 3, 6, 8.0),
            },
            TenantSpec {
                label: "joiner".into(),
                mode: "ai_oriented".into(),
                join_at: SimTime::from_millis(700),
                think: SimDuration::from_millis(300),
                options: joiner_options,
                turns: turn_script(1, 2, 6, 8.0),
            },
        ];
        let report = run_contention(&config, tenants);
        // Two active tenants at join time: the joiner starts from ≤ nominal/2, not 20 Mbps.
        let joiner = &report.tenants[1].conversation;
        assert!(
            joiner.estimate_at_turn_start_bps[0] <= 3e6 + 1.0,
            "admission must clamp the joiner's initial estimate, got {}",
            joiner.estimate_at_turn_start_bps[0]
        );
        // And the incumbent still completed all turns.
        assert_eq!(report.tenants[0].conversation.turns.len(), 3);
        assert_eq!(joiner.turns.len(), 2);
    }
}
