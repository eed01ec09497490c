//! The benchmark's workloads: their session options, paths, sizes and seeded scripts.
//!
//! Every workload serves the 1080p `basketball_game` scene. A turn is a 1.5 s window
//! captured at 12 fps (18 frames) plus a question. Successive turns rotate through the
//! scene's facts, as `ConversationScenario::turn` does, and through a fixed set of windows
//! spread evenly over the clip. The seed picks the first fact and the order of the
//! windows. The window count is coprime with the fact count, so one script cycle asks
//! every fact over every window once: every seed serves the same content mix, and seeds
//! differ in order, pairing sequence and network and sampler randomness. (With a seeded
//! phase instead, the seed decided which frames a run ever saw; measured answer accuracy
//! then read 0.86 or 1.00 by seed.) The script is generated before set-up, so the program
//! under test only ever receives frames and questions.

use aivc_mllm::{Question, QuestionFormat};
use aivc_netsim::{FaultEpisode, FaultKind, FaultSchedule, LinkConfig, LossModel, PathConfig};
use aivc_scene::templates::basketball_game;
use aivc_scene::{Frame, SourceConfig, VideoSource};
use aivc_sim::{SimDuration, SimTime};
use aivchat_core::NetSessionOptions;

/// The seed whose golden-phase digests are recorded in `digests.json`.
pub const DEFAULT_SEED: u64 = 1;
/// Length of one turn's captured window, in seconds.
pub const WINDOW_SECS: f64 = 1.5;
/// Capture rate of every turn window.
pub const CAPTURE_FPS: f64 = 12.0;
/// The user's think time between turns.
pub const THINK_GAP: SimDuration = SimDuration::from_millis(200);
/// The fewest clip windows a script spreads its turns over.
pub const MIN_WINDOWS: usize = 8;
/// Simulated span covered by the lossy workload's fault schedule. A turn advances the
/// timeline by ~1.9 s, so this covers ~18 800 turns, nearly three times what a 20 s run
/// completes on a 2-core x86-64 VM; later turns would run fault-free.
pub const FAULT_HORIZON_SECS: f64 = 10.0 * 3600.0;

/// A named benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// One warm context-aware conversation on the paper's §2.2 uplink.
    ConvContextAware,
    /// One warm baseline-mode conversation on a bursty-loss uplink with faults.
    ConvBaselineLossy,
    /// 64 context-aware conversations lane-sharded by `ConversationChatServer`.
    FleetContextAware,
}

/// How big a run of a workload is: sessions, set-up repetitions and warm-up turns.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Scale {
    /// Conversations served (1 for the single-client workloads).
    pub sessions: usize,
    /// Times set-up is repeated in one run; `setup_s` is their median.
    pub setup_reps: usize,
    /// Turns (fleet: rounds) run after construction and before timing starts.
    pub warmup_turns: usize,
}

impl Workload {
    /// Every workload, in the order `BENCHMARK.json` lists them.
    pub const ALL: [Workload; 3] = [
        Workload::ConvContextAware,
        Workload::ConvBaselineLossy,
        Workload::FleetContextAware,
    ];

    /// The workload's name on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::ConvContextAware => "conv_context_aware",
            Workload::ConvBaselineLossy => "conv_baseline_lossy",
            Workload::FleetContextAware => "fleet_context_aware",
        }
    }

    /// The workload called `name`, if any.
    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// True for the lane-sharded fleet.
    pub fn is_fleet(self) -> bool {
        self == Workload::FleetContextAware
    }

    /// The size of a benchmark run.
    pub fn scale(self) -> Scale {
        match self {
            Workload::ConvContextAware | Workload::ConvBaselineLossy => Scale {
                sessions: 1,
                setup_reps: 9,
                warmup_turns: 8,
            },
            Workload::FleetContextAware => Scale {
                sessions: 64,
                setup_reps: 3,
                warmup_turns: 2,
            },
        }
    }

    /// The golden phase checked against `digests.json`: (conversations, turns or rounds).
    pub fn golden_size(self) -> (usize, usize) {
        if self.is_fleet() {
            (4, 3)
        } else {
            (1, 12)
        }
    }

    /// Session options of the workload's (first) conversation for `seed`. Fleet member
    /// `i` uses `seed + i`, as `ConversationChatServer::new` assigns.
    pub fn options(self, seed: u64) -> NetSessionOptions {
        let mut options = match self {
            Workload::ConvContextAware | Workload::FleetContextAware => {
                NetSessionOptions::ai_oriented(seed, PathConfig::paper_section_2_2(0.01))
            }
            Workload::ConvBaselineLossy => {
                let mut o = NetSessionOptions::traditional(seed, lossy_path(seed)).with_resilience();
                o.deadline_aware_nack = true;
                o
            }
        };
        options.capture_fps = CAPTURE_FPS;
        options
    }
}

/// The lossy workload's path: a 20 Mbps, 30 ms uplink with Gilbert–Elliott loss (3 %
/// mean, ~8-packet bursts) and a seeded schedule of recurring burst-loss storms and short
/// outages across [`FAULT_HORIZON_SECS`]; the paper's clean 100 Mbps downlink.
fn lossy_path(seed: u64) -> PathConfig {
    let mut rng = SplitMix64::new(seed ^ 0xFA17_5EED);
    let mut episodes = Vec::new();
    let mut t = 0.0;
    loop {
        // One cycle every 300–600 s: an outage of 150–600 ms, then, half a cycle later,
        // a 1.5–4 s storm losing 20–50 % of packets.
        let gap = 300.0 + 300.0 * rng.next_f64();
        t += gap;
        if t + gap > FAULT_HORIZON_SECS {
            break;
        }
        episodes.push(FaultEpisode {
            start: SimTime::from_secs_f64(t),
            duration: SimDuration::from_millis(150 + (450.0 * rng.next_f64()) as u64),
            kind: FaultKind::Outage,
        });
        episodes.push(FaultEpisode {
            start: SimTime::from_secs_f64(t + gap / 2.0),
            duration: SimDuration::from_millis(1_500 + (2_500.0 * rng.next_f64()) as u64),
            kind: FaultKind::BurstLoss {
                loss_rate: 0.2 + 0.3 * rng.next_f64(),
            },
        });
    }
    let mut path = PathConfig::paper_section_2_2(0.0);
    path.uplink = LinkConfig::constant(
        20e6,
        SimDuration::from_millis(30),
        300,
        LossModel::bursty(0.03, 8.0),
    )
    .with_faults(FaultSchedule::new(episodes));
    path
}

/// One scripted turn: the captured window and the question asked over it.
#[derive(Debug, Clone)]
pub struct Turn {
    /// The 18 captures of the window.
    pub frames: Vec<Frame>,
    /// The question.
    pub question: Question,
}

/// One cycle of the script for `seed`: every (window, fact) pair once. Runs longer than
/// a cycle repeat it.
pub fn script(seed: u64) -> Vec<Turn> {
    let scene = basketball_game(1);
    let source = VideoSource::new(scene.clone(), SourceConfig::fps30(6.0));
    let duration = source.duration_secs();
    let facts = scene.facts.len();
    let windows = (MIN_WINDOWS..)
        .find(|&w| gcd(w, facts) == 1)
        .expect("a coprime count exists");
    let mut rng = SplitMix64::new(seed ^ 0x5C41_7000);
    let first_fact = (rng.next_u64() % facts as u64) as usize;
    let mut order: Vec<usize> = (0..windows).collect();
    for i in (1..windows).rev() {
        order.swap(i, (rng.next_u64() % (i as u64 + 1)) as usize);
    }
    let count = (WINDOW_SECS * CAPTURE_FPS).floor() as usize;
    (0..windows * facts)
        .map(|k| {
            let start = order[k % windows] as f64 * duration / windows as f64;
            Turn {
                frames: (0..count)
                    .map(|i| source.frame_at((start + i as f64 / CAPTURE_FPS) % duration))
                    .collect(),
                question: Question::from_fact(
                    &scene.facts[(first_fact + k) % facts],
                    QuestionFormat::FreeResponse,
                ),
            }
        })
        .collect()
}

fn gcd(a: usize, b: usize) -> usize {
    if b == 0 {
        a
    } else {
        gcd(b, a % b)
    }
}

/// SplitMix64: a small seeded generator for the benchmark's own inputs.
struct SplitMix64(u64);

impl SplitMix64 {
    fn new(seed: u64) -> Self {
        Self(seed)
    }

    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}
