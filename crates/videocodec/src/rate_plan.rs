//! Per-frame rate plan and the rate-level search: the QP-independent half of the rate
//! law, hoisted out of the rate-control probe loop, and the search that probes it.
//!
//! [`Encoder::predict_map_size`] re-rasterizes the frame's [`GridContent`] and re-derives
//! each block's content factors on **every** call — fine for a single prediction, ruinous
//! inside a search that probes the same frame several times per capture (the warm
//! conversational turn spent ~90 % of its time here before plans; see DESIGN.md §"Where
//! the warm turn's microsecond goes"). A [`RatePlan`] folds everything that does not
//! depend on QP into per-block coefficients once per frame:
//!
//! * `lead[b]  = intra_bpp_at_ref * content_factor(b)` — the rate law's first product,
//! * `tail[b]  = type_factor(b)` (exactly `1.0` on intra frames),
//! * `pixels[b]` as `f64`, and the frame's base QP per block when probing offsets.
//!
//! A probe then evaluates, per block, the *identical* IEEE-754 expression sequence the
//! encoder's rate kernel performs — `((lead · qp_factor) · tail).max(min_bpp)`, the same
//! `ceil`s, the same saturating casts and `max(1)` floor — so every predicted size is
//! bit-for-bit equal to [`Encoder::predict_map_size`] (and therefore to a real encode),
//! which the equivalence tests below pin for every probe level. Multiplying by a `tail`
//! of exactly `1.0` is an IEEE identity, so collapsing the intra/inter split into one
//! expression is lossless. The probe kernel runs eight blocks in lockstep entirely in
//! `f64`, with an exact branchless `ceil` instead of the libm call.
//!
//! [`Encoder::search_plan_offset`] / [`Encoder::search_plan_uniform`] pick the level whose
//! coded size is closest to a bit budget. They return exactly the level the plain
//! bisection ([`bisect_level`]) returns, but locate it from a warm-start hint in ~3–4
//! probes instead of ~7 ([`search_level`] explains how).

use crate::frame::FrameType;
use crate::qp::{Qp, QpMap};
use crate::rd::{bytes_of_bits, ceil_bits, RATE_LANES};
use aivc_scene::grid_content::GridContent;
use aivc_scene::{Frame, GridDims};

/// Reusable per-frame probe state for rate-control searches. Buffers retain capacity
/// across frames, so a warm conversation prepares plans without touching the allocator.
#[derive(Debug, Clone)]
pub struct RatePlan {
    dims: GridDims,
    /// `intra_bpp_at_ref * content_factor` per block (the rate law's first product).
    lead: Vec<f64>,
    /// `type_factor` per block — exactly `1.0` on intra frames.
    tail: Vec<f64>,
    /// Block pixel counts, pre-converted to `f64`.
    pixels: Vec<f64>,
    /// The base QP map snapshot offset probes apply their level to (empty when the plan
    /// was prepared without a base map, i.e. for uniform probes only).
    base_qp: Vec<u8>,
    /// `Some(f)` when every block's `(lead · f) · tail` is finite and not negative for the
    /// first (under a monotone table, largest) QP factor `f` of the preparing encoder:
    /// coded size is then non-increasing in the probe level (see [`search_level`]).
    monotone_under: Option<f64>,
    /// Private raster scratch (capacity reused across frames).
    grid: GridContent,
}

impl Default for RatePlan {
    fn default() -> Self {
        Self::new()
    }
}

impl RatePlan {
    /// Creates an empty plan.
    pub fn new() -> Self {
        Self {
            dims: GridDims {
                cols: 0,
                rows: 0,
                cell: 1,
            },
            lead: Vec::new(),
            tail: Vec::new(),
            pixels: Vec::new(),
            base_qp: Vec::new(),
            monotone_under: None,
            grid: GridContent::default(),
        }
    }

    /// Grid geometry of the prepared frame.
    pub fn dims(&self) -> GridDims {
        self.dims
    }

    pub(crate) fn grid_mut(&mut self) -> &mut GridContent {
        &mut self.grid
    }

    pub(crate) fn grid(&self) -> &GridContent {
        &self.grid
    }

    pub(crate) fn set_geometry(&mut self, dims: GridDims) {
        self.dims = dims;
        self.lead.clear();
        self.tail.clear();
        self.pixels.clear();
        self.base_qp.clear();
        self.monotone_under = None;
    }

    pub(crate) fn push_block(&mut self, lead: f64, tail: f64, pixels: f64) {
        self.lead.push(lead);
        self.tail.push(tail);
        self.pixels.push(pixels);
    }

    pub(crate) fn snapshot_base(&mut self, base: &QpMap) {
        assert_eq!(
            base.dims(),
            self.dims,
            "base QP map grid does not match plan grid"
        );
        self.base_qp.extend(base.values().iter().map(|q| q.value()));
    }
}

use crate::encoder::Encoder;

impl Encoder {
    /// Prepares `plan` for rate-control probes over `frame`: rasterizes the content grid
    /// once and folds every QP-independent term of the rate law into per-block
    /// coefficients. With `base` supplied, the plan also snapshots the per-block base QP
    /// so [`Encoder::predict_plan_offset_size`] can probe uniform offsets on top of it
    /// (the context-aware search); without it only
    /// [`Encoder::predict_plan_uniform_size`] is valid (the baseline search).
    pub fn prepare_rate_plan(&self, frame: &Frame, base: Option<&QpMap>, plan: &mut RatePlan) {
        let dims = self.grid_for(frame);
        let frame_type = self.config().gop.frame_type(frame.index);
        plan.set_geometry(dims);
        plan.grid_mut().fill(frame, self.config().block_size);
        let rd = self.rd_model();
        // Every QP factor a probe can read is at most the table's first entry once the
        // table is monotone, so one product per block bounds every probe's rate term.
        let peak_factor = self.qp_factor_table()[0];
        let mut monotone = true;
        let (intra_bpp, inter_base, inter_motion) = (
            rd.intra_bpp_at_ref,
            rd.inter_base_fraction,
            rd.inter_motion_fraction,
        );
        for idx in 0..dims.len() {
            let grid = plan.grid();
            // The identical clamp + content/type factor expressions of the encoder's rate
            // kernel (`block_bytes_one` / `block_bytes_batch`), evaluated once per frame.
            let content_factor = 0.08 + 0.92 * grid.complexity()[idx].clamp(0.0, 1.0);
            let tail = match frame_type {
                FrameType::Intra => 1.0,
                FrameType::Inter => inter_base + inter_motion * grid.motion()[idx].clamp(0.0, 1.0),
            };
            let pixels = grid.area()[idx] as f64;
            let lead = intra_bpp * content_factor;
            let peak = (lead * peak_factor) * tail;
            monotone &= peak.is_finite() && peak >= 0.0;
            plan.push_block(lead, tail, pixels);
        }
        plan.monotone_under = monotone.then_some(peak_factor);
        if let Some(base) = base {
            plan.snapshot_base(base);
        }
    }

    /// Predicted total size in bytes of encoding the planned frame with its base QP map
    /// offset uniformly by `level` — bit-identical to building the offset map with
    /// [`QpMap::offset_all_into`] and calling [`Encoder::predict_map_size`] on it.
    pub fn predict_plan_offset_size(&self, plan: &RatePlan, level: i32) -> u64 {
        let base_qp = &plan.base_qp;
        assert_eq!(
            base_qp.len(),
            plan.lead.len(),
            "offset probes need a plan prepared with a base QP map"
        );
        let factors = self.qp_factor_table();
        self.plan_size(plan, |b| {
            factors[(base_qp[b] as i32 + level).clamp(0, 51) as usize]
        })
    }

    /// Predicted total size in bytes of encoding the planned frame at a single uniform
    /// `qp` — bit-identical to [`Encoder::predict_uniform_size`].
    pub fn predict_plan_uniform_size(&self, plan: &RatePlan, qp: Qp) -> u64 {
        let factor = self.qp_factor_table()[qp.value() as usize];
        self.plan_size(plan, |_| factor)
    }

    /// The level of `plan`'s base QP map offset (over `-51..=51`) whose predicted coded
    /// size is closest to `budget_bits` — exactly [`bisect_level`]'s pick, found from the
    /// warm-start `hint` (normally the previous capture's [`RateSearch::boundary`]).
    pub fn search_plan_offset(&self, plan: &RatePlan, budget_bits: f64, hint: i32) -> RateSearch {
        search_level(-51, 51, budget_bits, hint, self.plan_is_monotone(plan), |level| {
            self.predict_plan_offset_size(plan, level)
        })
    }

    /// The uniform QP (over `0..=51`) whose predicted coded size is closest to
    /// `budget_bits` — exactly [`bisect_level`]'s pick; see [`Encoder::search_plan_offset`].
    pub fn search_plan_uniform(&self, plan: &RatePlan, budget_bits: f64, hint: i32) -> RateSearch {
        search_level(0, 51, budget_bits, hint, self.plan_is_monotone(plan), |qp| {
            self.predict_plan_uniform_size(plan, Qp::new(qp))
        })
    }

    /// Whether coded size is non-increasing in the probe level for `plan` under this
    /// encoder: the factor table is finite, non-negative and non-increasing, and the plan
    /// was checked against its peak. Evaluated once per search, not once per probe.
    fn plan_is_monotone(&self, plan: &RatePlan) -> bool {
        let factors = self.qp_factor_table();
        factors.iter().all(|f| f.is_finite() && *f >= 0.0)
            && factors.windows(2).all(|w| w[0] >= w[1])
            && plan.monotone_under == Some(factors[0])
    }

    /// Header plus every block's bytes, with block `b` read at QP factor `factor(b)`:
    /// eight lanes of [`block_bytes_lane`] in lockstep, summed per lane in `f64`. Each
    /// lane value is an integer below 2^32, so a lane sum stays exact below 2^53; spans of
    /// at most 2^20 chunks keep it there whatever the grid size.
    #[inline(always)]
    fn plan_size(&self, plan: &RatePlan, factor: impl Fn(usize) -> f64) -> u64 {
        const SPAN: usize = RATE_LANES << 20;
        let (lead, tail, pixels) = (&plan.lead, &plan.tail, &plan.pixels);
        let preset_factor = self.config().preset.rate_factor();
        let min_bpp = self.rd_model().min_bpp;
        let mut total = self.config().header_bytes as u64;
        for start in (0..lead.len()).step_by(SPAN) {
            let end = lead.len().min(start + SPAN);
            let (lead, tail, pixels) = (&lead[start..end], &tail[start..end], &pixels[start..end]);
            let mut sums = [0.0f64; RATE_LANES];
            let chunks = lead.len() / RATE_LANES;
            for c in 0..chunks {
                let base = c * RATE_LANES;
                let mut factors = [0.0f64; RATE_LANES];
                for (lane, f) in factors.iter_mut().enumerate() {
                    *f = factor(start + base + lane);
                }
                let lead = &lead[base..base + RATE_LANES];
                let tail = &tail[base..base + RATE_LANES];
                let pixels = &pixels[base..base + RATE_LANES];
                for lane in 0..RATE_LANES {
                    sums[lane] += block_bytes_lane(
                        lead[lane],
                        factors[lane],
                        tail[lane],
                        min_bpp,
                        pixels[lane],
                        preset_factor,
                    );
                }
            }
            for b in chunks * RATE_LANES..lead.len() {
                sums[0] += block_bytes_lane(
                    lead[b],
                    factor(start + b),
                    tail[b],
                    min_bpp,
                    pixels[b],
                    preset_factor,
                );
            }
            total += sums.iter().map(|&s| s as u64).sum::<u64>();
        }
        total
    }
}

/// One block's coded byte count as an exact integer-valued `f64`, equal to
/// [`plan_block_bytes`] for every input but with no libm call and no integer cast, so
/// eight lanes stay in vector registers end to end.
#[inline(always)]
fn block_bytes_lane(
    lead: f64,
    qp_factor: f64,
    tail: f64,
    min_bpp: f64,
    pixels: f64,
    preset_factor: f64,
) -> f64 {
    let bpp = ((lead * qp_factor) * tail).max(min_bpp);
    bytes_of_bits(ceil_bits(bpp * pixels), preset_factor)
}

/// The outcome of a rate-level search.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RateSearch {
    /// The chosen level: the probed level whose coded bits are closest to the budget, the
    /// earliest-probed one on a tie (the bisection's strict-`<` rule).
    pub level: i32,
    /// The first level whose coded bits do not exceed the budget (`hi + 1` when none
    /// does) — the next capture's warm-start hint.
    pub boundary: i32,
    /// Size evaluations the search ran.
    pub probes: u32,
}

/// The widest level range [`search_level`] memoizes: the 103 offsets of `-51..=51`.
const MAX_LEVELS: usize = 103;

/// The plain bisection over `lo..=hi`: probe the midpoint, keep the probe with the
/// smallest `|bits − budget|` (strict `<`, so the earliest probe wins a tie), step right
/// while the probe is over budget and left otherwise. The reference [`search_level`]
/// reproduces, and its fallback when size is not known to be monotone.
pub fn bisect_level(lo: i32, hi: i32, budget_bits: f64, mut size: impl FnMut(i32) -> u64) -> RateSearch {
    let (mut low, mut high) = (lo, hi);
    let (mut best_level, mut best_err, mut probes) = (lo, f64::INFINITY, 0);
    while low <= high {
        let mid = (low + high) / 2;
        let bits = (size(mid) * 8) as f64;
        probes += 1;
        let err = (bits - budget_bits).abs();
        if err < best_err {
            best_err = err;
            best_level = mid;
        }
        if bits > budget_bits {
            low = mid + 1;
        } else {
            high = mid - 1;
        }
    }
    RateSearch {
        level: best_level,
        boundary: low,
        probes,
    }
}

/// [`bisect_level`]'s answer in fewer probes, for a `size` that is non-increasing in the
/// level (`monotone`) and a finite budget; any other input runs the bisection itself.
///
/// Over budget (`bits > budget`) is then true below a boundary `L` and false from `L` on,
/// and the bisection's probe sequence is a pure function of `L`. So the search:
///
/// 1. gallops from `hint` (clamped into range) to the straddling pair `(L − 1, L)`,
///    memoizing every size it evaluates;
/// 2. replays the bisection's probe sequence from `L` in integer arithmetic — it ends
///    with `L − 1` as its last over-budget probe and `L` as its last other one;
/// 3. picks the winner as the bisection would. Error `|bits − budget|` falls towards `L`
///    on either side, so the minimum is at `L − 1` or `L`; but the bisection keeps the
///    *earliest* probe reaching it, so on each side the search walks that side's earlier
///    probes from nearest to farthest and stops at the first with a larger error (errors
///    are monotone, so equal-error runs — QPs clamped at 0/51, blocks at the `min_bpp`
///    and one-byte floors — are contiguous). On an exact tie between the sides, the side
///    whose candidate the bisection probed first wins.
///
/// # Panics
/// If `lo > hi` or the range is wider than the 103 levels of `-51..=51`.
pub fn search_level(
    lo: i32,
    hi: i32,
    budget_bits: f64,
    hint: i32,
    monotone: bool,
    mut size: impl FnMut(i32) -> u64,
) -> RateSearch {
    assert!(
        lo <= hi && ((hi - lo) as usize) < MAX_LEVELS,
        "level range {lo}..={hi} is empty or wider than the search memo"
    );
    if !monotone || !budget_bits.is_finite() {
        return bisect_level(lo, hi, budget_bits, size);
    }
    let mut memo = [None::<u64>; MAX_LEVELS];
    let mut probes = 0;
    let mut bits = |level: i32| -> f64 {
        let slot = &mut memo[(level - lo) as usize];
        let size = *slot.get_or_insert_with(|| {
            probes += 1;
            size(level)
        });
        (size * 8) as f64
    };
    let over = |bits: f64| bits > budget_bits;

    // 1. `low` is the highest level known over budget, `high` the lowest known not over;
    // `lo − 1` and `hi + 1` stand in for the ends of the range. Gallop away from the
    // hint (steps 1, 2, 4, …) until both sides are known, then bisect the gap.
    let (mut low, mut high) = (lo - 1, hi + 1);
    let (mut next, mut step) = (hint.clamp(lo, hi), 1);
    while high - low > 1 {
        if over(bits(next)) {
            low = next;
        } else {
            high = next;
        }
        next = if high > hi {
            (low + step).min(hi)
        } else if low < lo {
            (high - step).max(lo)
        } else {
            low + (high - low) / 2
        };
        step *= 2;
    }
    let boundary = high;

    // 2. The bisection's probe sequence for this boundary (at most 7 probes over 103).
    let mut path = [0i32; 8];
    let mut len = 0;
    let (mut a, mut b) = (lo, hi);
    while a <= b {
        let mid = (a + b) / 2;
        path[len] = mid;
        len += 1;
        if mid < boundary {
            a = mid + 1;
        } else {
            b = mid - 1;
        }
    }
    let path = &path[..len];

    // 3. The bisection keeps the earliest probe reaching the minimum error, which is at
    // `L − 1` or `L` (both probed above). Walking the sequence backwards, each side's
    // probes reach that minimum in an unbroken run from its nearest one; a side closes at
    // its first larger error, so only the winning side costs extra probes.
    let err = |bits: f64| (bits - budget_bits).abs();
    let min_err = path
        .iter()
        .filter(|&&l| l == boundary - 1 || l == boundary)
        .map(|&l| err(bits(l)))
        .fold(f64::INFINITY, f64::min);
    let mut open = [true; 2];
    let mut first = 0;
    for (i, &level) in path.iter().enumerate().rev() {
        let side = usize::from(level < boundary);
        if open[side] {
            if err(bits(level)) == min_err {
                first = i;
            } else {
                open[side] = false;
            }
        }
    }
    RateSearch {
        level: path[first],
        boundary,
        probes,
    }
}

/// One block's coded byte count from plan coefficients — the exact expression sequence of
/// the encoder's rate kernel: `bpp = ((lead·qp_factor)·tail).max(min_bpp)` (left-assoc,
/// matching `intra_bpp·content·qp_factor·type`), `bits = ceil(bpp·pixels)`, then the
/// preset/`ceil`/`max(1)` byte epilogue. The scalar reference [`block_bytes_lane`] is
/// tested against.
#[cfg(test)]
fn plan_block_bytes(
    lead: f64,
    qp_factor: f64,
    tail: f64,
    min_bpp: f64,
    pixels: f64,
    preset_factor: f64,
) -> u64 {
    let bpp = ((lead * qp_factor) * tail).max(min_bpp);
    let bits = (bpp * pixels).ceil() as u64;
    (((bits as f64 * preset_factor) / 8.0).ceil() as u32).max(1) as u64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::encoder::{EncodeScratch, EncoderConfig, Preset};
    use aivc_scene::templates::{basketball_game, lecture_slides};
    use aivc_scene::{SourceConfig, VideoSource};

    fn check_frame_all_levels(enc: &Encoder, frame: &Frame, base: &QpMap) {
        let mut plan = RatePlan::new();
        enc.prepare_rate_plan(frame, Some(base), &mut plan);
        let mut scratch = EncodeScratch::new();
        let mut probe = QpMap::empty();
        for level in -51..=51 {
            base.offset_all_into(level, &mut probe);
            let reference = enc.predict_map_size(frame, &probe, &mut scratch);
            assert_eq!(
                enc.predict_plan_offset_size(&plan, level),
                reference,
                "offset level {level} diverges for frame {}",
                frame.index
            );
        }
        for qp in 0..=51 {
            let reference = enc.predict_uniform_size(frame, Qp::new(qp));
            assert_eq!(
                enc.predict_plan_uniform_size(&plan, Qp::new(qp)),
                reference,
                "uniform qp {qp} diverges for frame {}",
                frame.index
            );
        }
    }

    #[test]
    fn plan_probes_match_predict_map_size_for_every_level() {
        for (template, preset) in [
            (basketball_game(1), Preset::Medium),
            (lecture_slides(3), Preset::Slower),
        ] {
            let enc = Encoder::new(EncoderConfig {
                preset,
                ..EncoderConfig::default()
            });
            let source = VideoSource::new(template, SourceConfig::fps30(5.0));
            // Frame 0 is intra, the others exercise the inter/motion path.
            for index in [0u64, 7, 31] {
                let frame = source.frame(index);
                let dims = enc.grid_for(&frame);
                // A non-trivial base map: QP varies across the grid.
                let values: Vec<Qp> = (0..dims.len()).map(|i| Qp::new((i % 52) as i32)).collect();
                let base = QpMap::from_values(dims, values);
                check_frame_all_levels(&enc, &frame, &base);
            }
        }
    }

    #[test]
    fn encode_into_planned_matches_encode_into() {
        let enc = Encoder::new(EncoderConfig::default());
        let source = VideoSource::new(basketball_game(4), SourceConfig::fps30(5.0));
        let mut plan = RatePlan::new();
        let mut planned_scratch = EncodeScratch::new();
        let mut plain_scratch = EncodeScratch::new();
        let mut planned = crate::frame::EncodedFrame::placeholder();
        let mut plain = crate::frame::EncodedFrame::placeholder();
        for index in [0u64, 5, 17] {
            let frame = source.frame(index);
            let dims = enc.grid_for(&frame);
            let base = QpMap::uniform(dims, Qp::new(28));
            enc.prepare_rate_plan(&frame, Some(&base), &mut plan);
            let mut map = QpMap::empty();
            base.offset_all_into(-6, &mut map);
            enc.encode_into_planned(&frame, &map, &plan, &mut planned_scratch, &mut planned);
            enc.encode_into(&frame, &map, &mut plain_scratch, &mut plain);
            assert_eq!(planned, plain, "planned encode diverges on frame {index}");
        }
    }

    #[test]
    fn plan_reuse_across_frames_is_exact() {
        let enc = Encoder::new(EncoderConfig::default());
        let source = VideoSource::new(basketball_game(2), SourceConfig::fps30(5.0));
        let mut plan = RatePlan::new();
        for index in [3u64, 12, 40] {
            let frame = source.frame(index);
            let dims = enc.grid_for(&frame);
            let base = QpMap::uniform(dims, Qp::new(30));
            enc.prepare_rate_plan(&frame, Some(&base), &mut plan);
            let mut scratch = EncodeScratch::new();
            let mut probe = QpMap::empty();
            for level in [-51, -13, 0, 9, 51] {
                base.offset_all_into(level, &mut probe);
                assert_eq!(
                    enc.predict_plan_offset_size(&plan, level),
                    enc.predict_map_size(&frame, &probe, &mut scratch),
                    "level {level} diverges after plan reuse on frame {index}"
                );
            }
        }
    }

    /// SplitMix64 — a tiny deterministic source for the randomized lane cases.
    fn splitmix(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    #[test]
    fn exact_ceil_matches_libm() {
        use crate::rd::ceil_non_negative;
        const TWO_POW_52: f64 = 4_503_599_627_370_496.0;
        const U64_SATURATED: f64 = 18_446_744_073_709_551_616.0;
        let mut cases = vec![0.0, -0.0, 0.5, 1.0, 1.5, 2.0, 255.999, 256.0, f64::INFINITY];
        for x in [
            1.0,
            2.0,
            1e9,
            TWO_POW_52 / 2.0,
            TWO_POW_52,
            2.0 * TWO_POW_52,
            1e19,
            U64_SATURATED,
        ] {
            cases.extend([
                x,
                f64::from_bits(x.to_bits() - 1),
                f64::from_bits(x.to_bits() + 1),
            ]);
        }
        let mut state = 7;
        for _ in 0..10_000 {
            let x = f64::from_bits(splitmix(&mut state) >> 2); // non-negative, finite
            cases.extend([x, x.floor(), (x * 1e-300).min(1e6)]);
        }
        for x in cases {
            // `==` equates the zeros: the kernel never feeds `-0.0`, and both cast to 0.
            assert_eq!(ceil_non_negative(x), x.ceil(), "ceil({x:e})");
        }
    }

    #[test]
    fn lane_kernel_matches_scalar_reference() {
        let leads = [
            0.0,
            -0.0,
            0.3 * 0.08,
            0.3,
            0.5,
            1.0,
            -0.4,
            1e12,
            1e17,
            1e300,
            f64::INFINITY,
            f64::NAN,
        ];
        let factors = [
            0.0,
            1.0,
            0.5,
            2f64.powf(22.0 / 6.0),
            2f64.powf(-29.0 / 6.0),
            1e-300,
        ];
        let tails = [1.0, 0.1, 0.65, 0.0, -1.0, 3.0];
        let min_bpps = [0.0015, 0.0, -1.0, 1e20, f64::NAN];
        let pixels = [0.0, 1.0, 64.0 * 64.0, 64.0 * 56.0, 3.0];
        let presets = [Preset::Fast, Preset::Medium, Preset::Slower].map(Preset::rate_factor);
        let mut checked = 0;
        let mut check = |lead: f64, f: f64, tail: f64, min_bpp: f64, px: f64, preset: f64| {
            let lane = block_bytes_lane(lead, f, tail, min_bpp, px, preset);
            let scalar = plan_block_bytes(lead, f, tail, min_bpp, px, preset);
            assert_eq!(
                lane as u64, scalar,
                "lead {lead:e} f {f:e} tail {tail} min {min_bpp} px {px}"
            );
            assert_eq!(lane, scalar as f64, "lane value must be the exact integer");
            checked += 1;
        };
        for &lead in &leads {
            for &f in &factors {
                for &tail in &tails {
                    for &min_bpp in &min_bpps {
                        for &px in &pixels {
                            for &preset in &presets {
                                check(lead, f, tail, min_bpp, px, preset);
                            }
                        }
                    }
                }
            }
        }
        // Exact integers at both ceilings (`bpp · pixels` and `bits · preset / 8`), the
        // products ≥ 2^52, the u64 and u32 saturation points, and random coefficients.
        for bits in [
            1.0,
            8.0,
            255.0,
            256.0,
            4096.0,
            2f64.powi(52),
            8.0 * (u32::MAX as f64),
            1e19,
            1e20,
        ] {
            for &preset in &presets {
                check(bits / 4096.0, 1.0, 1.0, 0.0015, 4096.0, preset);
                check(bits, 1.0, 1.0, 0.0, 1.0, preset);
            }
        }
        let mut state = 11;
        for _ in 0..20_000 {
            let unit = |s: &mut u64| (splitmix(s) >> 11) as f64 / (1u64 << 53) as f64;
            let lead = 0.3 * (0.08 + 0.92 * unit(&mut state));
            let f = 2f64.powf(-(((splitmix(&mut state) % 52) as f64) - 22.0) / 6.0);
            let tail = 0.1 + 0.55 * unit(&mut state);
            let px = [4096.0, 3584.0, 2048.0, 64.0][(splitmix(&mut state) % 4) as usize];
            check(
                lead,
                f,
                tail,
                0.0015,
                px,
                presets[(splitmix(&mut state) % 3) as usize],
            );
        }
        assert!(checked > 30_000);
    }

    /// The search over `table` (one size per level of `lo..=hi`) equals the bisection.
    fn assert_matches_bisection(lo: i32, hi: i32, table: &[u64], budget: f64, hint: i32) {
        let size = |level: i32| table[(level - lo) as usize];
        let reference = bisect_level(lo, hi, budget, size);
        let fast = search_level(lo, hi, budget, hint, true, size);
        assert_eq!(
            (fast.level, fast.boundary),
            (reference.level, reference.boundary),
            "budget {budget} hint {hint} table {table:?}"
        );
        assert!(fast.probes >= 1 && fast.probes as usize <= table.len());
    }

    #[test]
    fn search_matches_bisection_on_flat_and_strict_tables() {
        for (lo, hi) in [(-51, 51), (0, 51)] {
            let n = (hi - lo + 1) as usize;
            let strict: Vec<u64> = (0..n as u64).map(|i| 5_000 - 37 * i).collect();
            // Flat at both ends (clamped QPs) and in the middle (one-byte floors).
            let flat: Vec<u64> = (0..n)
                .map(|i| match i {
                    0..=9 => 9_000,
                    10..=40 => 9_000 - 100 * (i as u64 - 9),
                    41..=60 => 5_900,
                    _ if i + 8 >= n => 300,
                    _ => 5_900 - 50 * (i as u64 - 60).min(100),
                })
                .collect();
            let constant = vec![700u64; n];
            for table in [&strict, &flat, &constant] {
                assert!(table.windows(2).all(|w| w[0] >= w[1]));
                let mut budgets = vec![
                    0.0,
                    -1.0,
                    -1e300,
                    1e300,
                    f64::INFINITY,
                    f64::NEG_INFINITY,
                    f64::NAN,
                ];
                for w in table.windows(2) {
                    let (a, b) = ((w[0] * 8) as f64, (w[1] * 8) as f64);
                    budgets.extend([a, b, (a + b) / 2.0, a - 0.5, b + 0.5]);
                }
                for budget in budgets {
                    for hint in (lo - 3..=hi + 3)
                        .step_by(4)
                        .chain([lo, hi, 0, i32::MIN, i32::MAX])
                    {
                        assert_matches_bisection(lo, hi, table, budget, hint);
                    }
                }
            }
        }
    }

    #[test]
    fn warm_hint_finds_the_pair_in_two_probes() {
        let table: Vec<u64> = (0..103u64).map(|i| 10_000 - 50 * i).collect();
        let size = |level: i32| table[(level + 51) as usize];
        let budget = ((table[60] * 8) as f64 + (table[61] * 8) as f64) / 2.0 + 1.0;
        let cold = search_level(-51, 51, budget, 0, true, size);
        let warm = search_level(-51, 51, budget, cold.boundary, true, size);
        assert_eq!((warm.level, warm.boundary), (cold.level, cold.boundary));
        assert_eq!(warm.boundary, 10);
        // The pair (L − 1, L), plus at most the nearest earlier probe on the winning side.
        assert!(warm.probes <= 3, "{} probes", warm.probes);
        let bisection = bisect_level(-51, 51, budget, size);
        assert!(warm.probes < bisection.probes);
    }

    #[test]
    fn non_monotone_model_takes_the_bisection() {
        // A negative halving step makes the factor table increase with QP.
        let rd = crate::RdModel {
            qp_halving_step: -6.0,
            ..crate::RdModel::default()
        };
        let enc = Encoder::with_rd_model(EncoderConfig::default(), rd);
        let source = VideoSource::new(basketball_game(1), SourceConfig::fps30(2.0));
        let frame = source.frame(3);
        let base = QpMap::uniform(enc.grid_for(&frame), Qp::new(30));
        let mut plan = RatePlan::new();
        enc.prepare_rate_plan(&frame, Some(&base), &mut plan);
        assert!(!enc.plan_is_monotone(&plan));
        for budget in [0.0, 1e4, 2e5, 1e7] {
            let reference = bisect_level(-51, 51, budget, |l| enc.predict_plan_offset_size(&plan, l));
            assert_eq!(enc.search_plan_offset(&plan, budget, 17), reference);
            let reference = bisect_level(0, 51, budget, |q| {
                enc.predict_plan_uniform_size(&plan, Qp::new(q))
            });
            assert_eq!(enc.search_plan_uniform(&plan, budget, 17), reference);
        }
        // A plan with a NaN coefficient is excluded too, even under a monotone table.
        let enc = Encoder::new(EncoderConfig::default());
        enc.prepare_rate_plan(&frame, Some(&base), &mut plan);
        assert!(enc.plan_is_monotone(&plan));
        plan.monotone_under = None;
        plan.lead[0] = f64::NAN;
        assert!(!enc.plan_is_monotone(&plan));
    }
}
