//! The encoder: scene frame + QP map → [`EncodedFrame`].
//!
//! Mirrors the knobs the paper actually turns on Kvazaar: CTU size, GOP structure, a preset
//! efficiency factor (medium vs slower), and — crucially — an externally supplied per-CTU QP
//! map (Kvazaar's `--roi` style control) which is how Context-Aware Video Streaming injects
//! its CLIP-informed allocation (§3.2).

use crate::frame::{EncodedBlock, EncodedFrame, FrameType};
use crate::gop::GopStructure;
use crate::qp::{Qp, QpMap};
use crate::rd::{bytes_of_bits, RdModel, RATE_LANES};
use aivc_par::MiniPool;
use aivc_scene::grid_content::GridContent;
use aivc_scene::{Frame, GridDims};
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// Chunks handed to the pool per lane by [`Encoder::encode_into_par`] — a few per lane
/// smooth out CTU-row load imbalance (object-dense rows cost more) while keeping the
/// chunk→lane mapping deterministic, so each lane's coverage cache keeps seeing the same
/// block indices frame after frame.
const PAR_CHUNKS_PER_LANE: usize = 4;

/// Number of distinct QP values ([`Qp`] is clamped to `0..=51`), i.e. the size of the
/// per-encoder QP-factor lookup table.
const QP_TABLE: usize = 52;

/// Encoder speed preset. Slower presets squeeze more quality out of each bit, which the
/// paper's "Client-side computation" discussion proposes as a fairness ablation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Preset {
    /// Fast preset: ~15 % worse compression than medium.
    Fast,
    /// The default used in the paper's experiments.
    Medium,
    /// Slower preset: ~12 % better compression than medium.
    Slower,
}

impl Preset {
    /// Multiplier applied to every block's bit cost.
    pub fn rate_factor(self) -> f64 {
        match self {
            Preset::Fast => 1.15,
            Preset::Medium => 1.0,
            Preset::Slower => 0.88,
        }
    }

    /// Encoding compute cost relative to medium (used by the latency budget accounting).
    pub fn compute_factor(self) -> f64 {
        match self {
            Preset::Fast => 0.55,
            Preset::Medium => 1.0,
            Preset::Slower => 2.6,
        }
    }
}

/// Encoder configuration.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct EncoderConfig {
    /// CTU edge length in pixels (64 is HEVC's default).
    pub block_size: u32,
    /// GOP structure.
    pub gop: GopStructure,
    /// Speed preset.
    pub preset: Preset,
    /// Per-frame header overhead in bytes (SPS/PPS amortized + slice headers).
    pub header_bytes: u32,
    /// Per-frame encode latency on the reference device at medium preset, in microseconds
    /// (1080p hardware-assisted encode is a few milliseconds).
    pub base_encode_latency_us: u64,
}

impl Default for EncoderConfig {
    fn default() -> Self {
        Self {
            block_size: 64,
            gop: GopStructure::default(),
            preset: Preset::Medium,
            header_bytes: 120,
            base_encode_latency_us: 4_000,
        }
    }
}

/// Reusable buffers for [`Encoder::encode_into`].
///
/// One scratch per encoding session removes every per-frame heap allocation from the
/// encode hot path: the whole-frame [`GridContent`] raster is refilled in place each
/// encode, and the per-block object-coverage `Arc`s are cached per block index — when a
/// block's coverage is unchanged from the previous frame (the common case under temporal
/// coherence, and always the case when re-encoding the same frame), the cached `Arc` is
/// refcount-bumped instead of reallocated.
#[derive(Debug, Clone, Default)]
pub struct EncodeScratch {
    /// Per-CTU content descriptors for the whole frame, rasterized placement-by-placement
    /// (identical values to a cell-by-cell [`Frame::region_content_into`] walk at a
    /// fraction of the cost).
    grid: GridContent,
    /// Last-seen coverage list per block index; hit ⇒ `Arc::clone`, miss ⇒ fresh `Arc`.
    coverage_cache: Vec<Arc<[(u32, f64)]>>,
    /// Memo of the last `(qp, detail)` → quality evaluation. `block_quality` is a pure
    /// function and most of a frame is background (`detail` exactly 0.0) at one or two
    /// distinct QPs, so this one-entry memo removes the bulk of the per-block `exp` calls
    /// while returning the identical f64 (same inputs ⇒ the memoized same output).
    quality_memo: QualityMemo,
    /// The most recently allocated coverage `Arc`: runs of adjacent blocks fully covered
    /// by the same objects produce identical lists, which share one allocation.
    last_coverage: Option<Arc<[(u32, f64)]>>,
}

/// See [`EncodeScratch::quality_memo`].
#[derive(Debug, Clone, Copy)]
struct QualityMemo {
    /// `u16::MAX` marks the empty memo (no valid QP is above 51).
    qp: u16,
    detail_bits: u64,
    quality: f64,
}

impl Default for QualityMemo {
    fn default() -> Self {
        Self {
            qp: u16::MAX,
            detail_bits: 0,
            quality: 0.0,
        }
    }
}

impl EncodeScratch {
    /// Creates an empty scratch.
    pub fn new() -> Self {
        Self::default()
    }
}

/// Reusable buffers for [`Encoder::encode_into_par`]: one [`EncodeScratch`] per pool lane,
/// created on first use and owned by that lane ever after. Because the chunk→lane mapping
/// is static, each lane's coverage cache keeps tracking the same block indices across
/// frames, preserving both the hit rate and the zero-allocation steady state of the
/// sequential scratch. Lane 0's scratch doubles as the sequential scratch when the pool
/// has a single lane.
#[derive(Debug, Clone, Default)]
pub struct EncodeParScratch {
    /// One private scratch per pool lane.
    lanes: Vec<EncodeScratch>,
    /// The whole-frame raster, filled once sequentially before the lanes dispatch (the
    /// fill is a small fraction of the encode; sharing it read-only keeps every lane's
    /// per-block inputs — and therefore the output — bit-identical to the sequential walk).
    grid: GridContent,
}

impl EncodeParScratch {
    /// Creates an empty scratch.
    pub fn new() -> Self {
        Self::default()
    }
}

/// The encoder.
#[derive(Debug, Clone)]
pub struct Encoder {
    config: EncoderConfig,
    rd: RdModel,
    /// `qp_factors[qp] == rd.qp_factor(qp)` for every representable QP — the rate law's
    /// only transcendental, hoisted out of the per-block loop into a 52-entry table.
    qp_factors: [f64; QP_TABLE],
    /// Shared empty coverage list: background-only blocks (the majority of a 1080p frame)
    /// take a refcount bump instead of allocating an `Arc` header each.
    empty_coverage: Arc<[(u32, f64)]>,
}

impl Encoder {
    /// Creates an encoder with the default R-D model.
    pub fn new(config: EncoderConfig) -> Self {
        Self::with_rd_model(config, RdModel::default())
    }

    /// Creates an encoder with an explicit R-D model (used by calibration tests).
    pub fn with_rd_model(config: EncoderConfig, rd: RdModel) -> Self {
        let mut qp_factors = [0.0; QP_TABLE];
        for (qp, factor) in qp_factors.iter_mut().enumerate() {
            *factor = rd.qp_factor(Qp::new(qp as i32));
        }
        Self {
            config,
            rd,
            qp_factors,
            empty_coverage: Arc::from(&[][..]),
        }
    }

    /// The encoder configuration.
    pub fn config(&self) -> &EncoderConfig {
        &self.config
    }

    /// The R-D model in use.
    pub fn rd_model(&self) -> &RdModel {
        &self.rd
    }

    /// The hoisted 52-entry `qp_factors` table (`qp_factors[qp] == rd.qp_factor(qp)`),
    /// shared with the rate-plan probe loops so plan predictions read the same factors
    /// the encode kernels do.
    pub(crate) fn qp_factor_table(&self) -> &[f64; QP_TABLE] {
        &self.qp_factors
    }

    /// The CTU grid an encode of `frame` will use.
    pub fn grid_for(&self, frame: &Frame) -> GridDims {
        GridDims::for_frame(frame.width, frame.height, self.config.block_size)
    }

    /// Per-frame encode latency for this configuration, in microseconds.
    pub fn encode_latency_us(&self) -> u64 {
        (self.config.base_encode_latency_us as f64 * self.config.preset.compute_factor()).round() as u64
    }

    /// Encodes a frame with a per-CTU QP map. The map's grid must match [`Encoder::grid_for`].
    ///
    /// Allocates a fresh [`EncodedFrame`] per call; per-frame loops should hold an
    /// [`EncodeScratch`] and an output buffer and call [`Encoder::encode_into`] instead,
    /// which is allocation-free after warmup.
    pub fn encode_with_qp_map(&self, frame: &Frame, qp_map: &QpMap) -> EncodedFrame {
        let mut scratch = EncodeScratch::new();
        let mut out = EncodedFrame::placeholder();
        // A one-shot scratch can never hit its cache, so skip populating it (CACHE = false):
        // same output, none of the cache bookkeeping.
        self.encode_into_impl::<false>(frame, qp_map, &mut scratch, &mut out);
        out
    }

    /// [`Encoder::encode_with_qp_map`] into a caller-owned frame buffer.
    ///
    /// `out` is refilled in place (its block vector keeps its capacity) and per-block
    /// object-coverage lists are `Arc`-reused through the scratch's cache whenever a block's
    /// coverage is unchanged since the scratch last saw it. After warmup — one encode of
    /// each frame geometry — re-encoding a frame whose block coverage did not change
    /// performs zero heap allocations. Output is bit-identical to
    /// [`Encoder::encode_with_qp_map`] (see the equivalence tests).
    pub fn encode_into(
        &self,
        frame: &Frame,
        qp_map: &QpMap,
        scratch: &mut EncodeScratch,
        out: &mut EncodedFrame,
    ) {
        self.encode_into_impl::<true>(frame, qp_map, scratch, out);
    }

    /// [`Encoder::encode_into`] reusing the content raster a [`crate::RatePlan`] already
    /// holds for this frame, instead of re-filling the scratch's own grid. `grid.fill` is
    /// a pure function of `(frame, block_size)`, so reading the plan's raster — filled
    /// from the same frame by [`Encoder::prepare_rate_plan`] — produces bit-identical
    /// output (asserted by the equivalence tests); rate-control callers that just probed
    /// the frame save one full rasterization per encode.
    pub fn encode_into_planned(
        &self,
        frame: &Frame,
        qp_map: &QpMap,
        plan: &crate::RatePlan,
        scratch: &mut EncodeScratch,
        out: &mut EncodedFrame,
    ) {
        let dims = self.grid_for(frame);
        assert_eq!(
            plan.dims(),
            dims,
            "rate plan was prepared for a different frame grid"
        );
        let EncodeScratch {
            coverage_cache,
            quality_memo,
            last_coverage,
            ..
        } = scratch;
        self.encode_walk::<true>(
            frame,
            qp_map,
            plan.grid(),
            coverage_cache,
            quality_memo,
            last_coverage,
            out,
        );
    }

    /// The CTU walk behind [`Encoder::encode_into`]. `CACHE` selects at compile time
    /// whether coverage-`Arc` cache misses populate the scratch (long-lived scratches) or
    /// bypass it (the one-shot [`Encoder::encode_with_qp_map`] wrapper, which can never
    /// hit and would only pay the bookkeeping).
    fn encode_into_impl<const CACHE: bool>(
        &self,
        frame: &Frame,
        qp_map: &QpMap,
        scratch: &mut EncodeScratch,
        out: &mut EncodedFrame,
    ) {
        let EncodeScratch {
            grid,
            coverage_cache,
            quality_memo,
            last_coverage,
        } = scratch;
        grid.fill(frame, self.config.block_size);
        self.encode_walk::<CACHE>(
            frame,
            qp_map,
            grid,
            coverage_cache,
            quality_memo,
            last_coverage,
            out,
        );
    }

    /// The block walk shared by [`Encoder::encode_into_impl`] (own raster, freshly
    /// filled) and [`Encoder::encode_into_planned`] (a rate plan's raster for the same
    /// frame): identical walk, identical output.
    #[allow(clippy::too_many_arguments)]
    fn encode_walk<const CACHE: bool>(
        &self,
        frame: &Frame,
        qp_map: &QpMap,
        grid: &GridContent,
        coverage_cache: &mut Vec<Arc<[(u32, f64)]>>,
        quality_memo: &mut QualityMemo,
        last_coverage: &mut Option<Arc<[(u32, f64)]>>,
        out: &mut EncodedFrame,
    ) {
        let dims = self.grid_for(frame);
        assert_eq!(qp_map.dims(), dims, "QP map grid does not match frame grid");
        let frame_type = self.config.gop.frame_type(frame.index);
        let preset_factor = self.config.preset.rate_factor();

        out.blocks.clear();
        out.blocks.reserve(dims.len());
        let total = dims.len();
        let mut offset = self.config.header_bytes as u64;
        let mut bytes = [0u32; RATE_LANES];
        let mut idx = 0;
        while idx + RATE_LANES <= total {
            self.block_bytes_batch(grid, qp_map, idx, frame_type, preset_factor, &mut bytes);
            for (lane, &byte_len) in bytes.iter().enumerate() {
                let block_idx = idx + lane;
                let mut block = self.finish_block::<CACHE>(
                    grid,
                    coverage_cache,
                    quality_memo,
                    last_coverage,
                    block_idx,
                    qp_map.get_index(block_idx),
                    byte_len,
                );
                block.byte_offset = offset;
                offset += block.byte_len as u64;
                out.blocks.push(block);
            }
            idx += RATE_LANES;
        }
        while idx < total {
            let qp = qp_map.get_index(idx);
            let byte_len = self.block_bytes_one(grid, idx, qp, frame_type, preset_factor);
            let mut block = self.finish_block::<CACHE>(
                grid,
                coverage_cache,
                quality_memo,
                last_coverage,
                idx,
                qp,
                byte_len,
            );
            block.byte_offset = offset;
            offset += block.byte_len as u64;
            out.blocks.push(block);
            idx += 1;
        }
        self.fill_frame_header(out, frame, dims, frame_type);
    }

    /// Byte sizes of eight consecutive CTUs starting at `base`: gathers the per-block
    /// inputs out of the grid raster's structure-of-arrays columns, runs the eight rate-law
    /// evaluations in lockstep ([`RdModel::block_bits_batch`]), then applies the
    /// preset/ceil/floor epilogue element-wise. Each lane computes the exact scalar
    /// expression sequence of [`Encoder::block_bytes_one`] on the same inputs, so the
    /// results are bit-identical; the fixed-width loops are what LLVM turns into SIMD.
    fn block_bytes_batch(
        &self,
        grid: &GridContent,
        qp_map: &QpMap,
        base: usize,
        frame_type: FrameType,
        preset_factor: f64,
        out: &mut [u32; RATE_LANES],
    ) {
        let mut factors = [0.0f64; RATE_LANES];
        for (lane, factor) in factors.iter_mut().enumerate() {
            *factor = self.qp_factors[qp_map.get_index(base + lane).value() as usize];
        }
        let mut pixels = [0u64; RATE_LANES];
        pixels.copy_from_slice(&grid.area()[base..base + RATE_LANES]);
        let mut complexity = [0.0f64; RATE_LANES];
        complexity.copy_from_slice(&grid.complexity()[base..base + RATE_LANES]);
        let mut motion = [0.0f64; RATE_LANES];
        motion.copy_from_slice(&grid.motion()[base..base + RATE_LANES]);
        let mut bits = [0u64; RATE_LANES];
        self.rd
            .block_bits_batch(&factors, &pixels, &complexity, &motion, frame_type, &mut bits);
        for (byte_len, &b) in out.iter_mut().zip(&bits) {
            *byte_len = bytes_of_bits(b as f64, preset_factor) as u32;
        }
    }

    /// Byte size of the CTU at `idx` — the scalar form of [`Encoder::block_bytes_batch`],
    /// used for the sub-eight-block tail of the grid walk.
    fn block_bytes_one(
        &self,
        grid: &GridContent,
        idx: usize,
        qp: Qp,
        frame_type: FrameType,
        preset_factor: f64,
    ) -> u32 {
        let bits = self.rd.block_bits_with_factor(
            self.qp_factors[qp.value() as usize],
            grid.area()[idx],
            grid.complexity()[idx],
            grid.motion()[idx],
            frame_type,
        );
        (((bits as f64 * preset_factor) / 8.0).ceil() as u32).max(1)
    }

    /// Everything per-CTU that is not the vectorizable rate math: recognition quality
    /// (logistic, stays scalar), coverage-`Arc` reuse through the cache, and assembly of
    /// the block record. Shared by the sequential walk and the data-parallel path so both
    /// produce bit-identical blocks; `byte_offset` is left zero for the caller to assign
    /// (it is a prefix sum over preceding blocks).
    ///
    /// Cache policy: background blocks bypass the cache entirely (the shared empty Arc is
    /// already free), hits clone the cached Arc without touching the cache, and only misses
    /// write — so a warm re-encode mutates nothing. Stale entries under changed geometry
    /// are harmless: the content compare decides every reuse. Cold encodes (no warm cache)
    /// still coalesce runs of identical coverage through `last_coverage`.
    #[allow(clippy::too_many_arguments)]
    fn finish_block<const CACHE: bool>(
        &self,
        grid: &GridContent,
        coverage_cache: &mut Vec<Arc<[(u32, f64)]>>,
        quality_memo: &mut QualityMemo,
        last_coverage: &mut Option<Arc<[(u32, f64)]>>,
        idx: usize,
        qp: Qp,
        byte_len: u32,
    ) -> EncodedBlock {
        let detail = grid.detail()[idx];
        let quality = if quality_memo.qp == qp.value() as u16 && quality_memo.detail_bits == detail.to_bits()
        {
            quality_memo.quality
        } else {
            let quality = self.rd.block_quality(qp, detail);
            *quality_memo = QualityMemo {
                qp: qp.value() as u16,
                detail_bits: detail.to_bits(),
                quality,
            };
            quality
        };
        let coverage = grid.coverage(idx);
        let object_coverage = if coverage.is_empty() {
            Arc::clone(&self.empty_coverage)
        } else if let Some(cached) = coverage_cache.get(idx).filter(|cached| cached[..] == *coverage) {
            Arc::clone(cached)
        } else if let Some(last) = last_coverage.as_ref().filter(|last| last[..] == *coverage) {
            let shared = Arc::clone(last);
            if CACHE {
                while coverage_cache.len() <= idx {
                    coverage_cache.push(Arc::clone(&self.empty_coverage));
                }
                coverage_cache[idx] = Arc::clone(&shared);
            }
            shared
        } else {
            let fresh: Arc<[(u32, f64)]> = Arc::from(coverage);
            if CACHE {
                while coverage_cache.len() <= idx {
                    coverage_cache.push(Arc::clone(&self.empty_coverage));
                }
                coverage_cache[idx] = Arc::clone(&fresh);
            }
            *last_coverage = Some(Arc::clone(&fresh));
            fresh
        };
        EncodedBlock {
            index: idx,
            byte_offset: 0,
            byte_len,
            qp,
            encoded_quality: quality,
            detail,
            complexity: grid.complexity()[idx],
            motion: grid.motion()[idx],
            object_coverage,
        }
    }

    /// Fills the frame-level fields of an encode output (shared by every encode path).
    fn fill_frame_header(
        &self,
        out: &mut EncodedFrame,
        frame: &Frame,
        dims: GridDims,
        frame_type: FrameType,
    ) {
        out.frame_index = frame.index;
        out.capture_ts_us = frame.capture_ts_us;
        out.frame_type = frame_type;
        out.width = frame.width;
        out.height = frame.height;
        out.block_size = self.config.block_size;
        out.grid_cols = dims.cols;
        out.grid_rows = dims.rows;
        out.header_bytes = self.config.header_bytes;
    }

    /// Data-parallel form of [`Encoder::encode_into`]: the CTU grid is split into
    /// contiguous raster-order chunks (≈ groups of CTU rows) encoded across the pool's
    /// lanes, each lane writing its disjoint slice of the block list through its own
    /// [`EncodeScratch`]; byte offsets (a prefix sum over preceding blocks) are then
    /// assigned in one cheap sequential pass.
    ///
    /// Output is **bit-identical** to [`Encoder::encode_into`] and
    /// [`Encoder::encode_with_qp_map`] for any pool size: per-block bits, quality and
    /// coverage never depend on other blocks, and the offset pass reproduces the
    /// sequential accumulation exactly (see the equivalence tests). With a one-lane pool
    /// this delegates to the sequential path. The static chunk→lane mapping means each
    /// lane's coverage cache sees the same block indices every frame, so cache hit rates —
    /// and the zero-allocation steady state — survive parallelization.
    pub fn encode_into_par(
        &self,
        frame: &Frame,
        qp_map: &QpMap,
        pool: &MiniPool,
        scratch: &mut EncodeParScratch,
        out: &mut EncodedFrame,
    ) {
        while scratch.lanes.len() < pool.lanes() {
            scratch.lanes.push(EncodeScratch::new());
        }
        if pool.lanes() == 1 {
            self.encode_into(frame, qp_map, &mut scratch.lanes[0], out);
            return;
        }
        let dims = self.grid_for(frame);
        assert_eq!(qp_map.dims(), dims, "QP map grid does not match frame grid");
        let frame_type = self.config.gop.frame_type(frame.index);
        let preset_factor = self.config.preset.rate_factor();
        let EncodeParScratch { lanes, grid } = scratch;
        grid.fill(frame, self.config.block_size);
        let grid = &*grid;
        // Every slot is overwritten below; the placeholder only sizes the buffer (its Arc
        // clone is a refcount bump, so a warm re-encode stays allocation-free).
        let placeholder = EncodedBlock {
            index: 0,
            byte_offset: 0,
            byte_len: 0,
            qp: Qp::new(0),
            encoded_quality: 0.0,
            detail: 0.0,
            complexity: 0.0,
            motion: 0.0,
            object_coverage: Arc::clone(&self.empty_coverage),
        };
        out.blocks.clear();
        out.blocks.resize(dims.len(), placeholder);
        let chunks = (pool.lanes() * PAR_CHUNKS_PER_LANE).min(dims.len());
        pool.for_each_chunk(&mut out.blocks, chunks, lanes, |ctx, blocks, lane| {
            // Same batched walk as the sequential path, restarted per chunk: the chunk
            // boundary only changes where the sub-eight tail falls, and the batch and
            // scalar kernels are bit-identical, so chunking cannot change the output.
            let EncodeScratch {
                coverage_cache,
                quality_memo,
                last_coverage,
                ..
            } = lane;
            let mut bytes = [0u32; RATE_LANES];
            let mut offset = 0;
            while offset + RATE_LANES <= blocks.len() {
                let base = ctx.start + offset;
                self.block_bytes_batch(grid, qp_map, base, frame_type, preset_factor, &mut bytes);
                for (lane_idx, &byte_len) in bytes.iter().enumerate() {
                    let idx = base + lane_idx;
                    blocks[offset + lane_idx] = self.finish_block::<true>(
                        grid,
                        coverage_cache,
                        quality_memo,
                        last_coverage,
                        idx,
                        qp_map.get_index(idx),
                        byte_len,
                    );
                }
                offset += RATE_LANES;
            }
            while offset < blocks.len() {
                let idx = ctx.start + offset;
                let qp = qp_map.get_index(idx);
                let byte_len = self.block_bytes_one(grid, idx, qp, frame_type, preset_factor);
                blocks[offset] = self.finish_block::<true>(
                    grid,
                    coverage_cache,
                    quality_memo,
                    last_coverage,
                    idx,
                    qp,
                    byte_len,
                );
                offset += 1;
            }
        });
        let mut offset = self.config.header_bytes as u64;
        for block in &mut out.blocks {
            block.byte_offset = offset;
            offset += block.byte_len as u64;
        }
        self.fill_frame_header(out, frame, dims, frame_type);
    }

    /// Encodes a frame at a single, uniform QP (the context-agnostic baseline).
    pub fn encode_uniform(&self, frame: &Frame, qp: Qp) -> EncodedFrame {
        let dims = self.grid_for(frame);
        self.encode_with_qp_map(frame, &QpMap::uniform(dims, qp))
    }

    /// Predicted size in bytes of encoding `frame` at uniform `qp` — identical math to
    /// [`Encoder::encode_uniform`] but without building the block list. Used by rate control.
    pub fn predict_uniform_size(&self, frame: &Frame, qp: Qp) -> u64 {
        let dims = self.grid_for(frame);
        self.predict_map_size(frame, &QpMap::uniform(dims, qp), &mut EncodeScratch::new())
    }

    /// Predicted total size in bytes of encoding `frame` with `qp_map` — the exact byte
    /// accounting of [`Encoder::encode_into`] (same grid raster, same batched rate kernel,
    /// same per-block ceil/floor) without building the block list. Rate-control searches
    /// probe candidate QP maps with this instead of running full encodes; equality with the
    /// actual encode is asserted by tests, so a probe's winner is exactly the encode's size.
    pub fn predict_map_size(&self, frame: &Frame, qp_map: &QpMap, scratch: &mut EncodeScratch) -> u64 {
        let dims = self.grid_for(frame);
        assert_eq!(qp_map.dims(), dims, "QP map grid does not match frame grid");
        let frame_type = self.config.gop.frame_type(frame.index);
        let preset_factor = self.config.preset.rate_factor();
        let grid = &mut scratch.grid;
        grid.fill(frame, self.config.block_size);
        let total_blocks = dims.len();
        let mut total = self.config.header_bytes as u64;
        let mut bytes = [0u32; RATE_LANES];
        let mut idx = 0;
        while idx + RATE_LANES <= total_blocks {
            self.block_bytes_batch(grid, qp_map, idx, frame_type, preset_factor, &mut bytes);
            for &byte_len in &bytes {
                total += byte_len as u64;
            }
            idx += RATE_LANES;
        }
        while idx < total_blocks {
            let qp = qp_map.get_index(idx);
            total += self.block_bytes_one(grid, idx, qp, frame_type, preset_factor) as u64;
            idx += 1;
        }
        total
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::FrameType;
    use aivc_scene::templates::basketball_game;
    use aivc_scene::{SourceConfig, VideoSource};

    fn test_frame() -> Frame {
        let source = VideoSource::new(basketball_game(1), SourceConfig::fps30(10.0));
        source.frame(0)
    }

    #[test]
    fn encode_produces_one_block_per_grid_cell() {
        let enc = Encoder::new(EncoderConfig::default());
        let frame = test_frame();
        let dims = enc.grid_for(&frame);
        let encoded = enc.encode_uniform(&frame, Qp::new(32));
        assert_eq!(encoded.blocks.len(), dims.len());
        assert_eq!(encoded.grid_cols, dims.cols);
        assert_eq!(encoded.grid_rows, dims.rows);
    }

    #[test]
    fn block_offsets_are_contiguous() {
        let enc = Encoder::new(EncoderConfig::default());
        let encoded = enc.encode_uniform(&test_frame(), Qp::new(32));
        let mut expected = encoded.header_bytes as u64;
        for b in &encoded.blocks {
            assert_eq!(b.byte_offset, expected);
            expected += b.byte_len as u64;
        }
        assert_eq!(encoded.total_bytes(), expected);
    }

    #[test]
    fn higher_qp_means_smaller_frame_and_lower_quality() {
        let enc = Encoder::new(EncoderConfig::default());
        let frame = test_frame();
        let q20 = enc.encode_uniform(&frame, Qp::new(20));
        let q40 = enc.encode_uniform(&frame, Qp::new(40));
        assert!(q20.total_bytes() > q40.total_bytes() * 3);
        assert!(q20.mean_encoded_quality() > q40.mean_encoded_quality());
    }

    #[test]
    fn intra_frame_is_larger_than_inter_frame() {
        let enc = Encoder::new(EncoderConfig::default());
        let source = VideoSource::new(basketball_game(1), SourceConfig::fps30(10.0));
        let intra = enc.encode_uniform(&source.frame(0), Qp::new(32));
        let inter = enc.encode_uniform(&source.frame(1), Qp::new(32));
        assert_eq!(intra.frame_type, FrameType::Intra);
        assert_eq!(inter.frame_type, FrameType::Inter);
        assert!(intra.total_bytes() > inter.total_bytes() * 2);
    }

    #[test]
    fn roi_qp_map_shifts_bits_not_total() {
        let enc = Encoder::new(EncoderConfig::default());
        let frame = test_frame();
        let dims = enc.grid_for(&frame);
        // Build a map: left half QP 24 (good), right half QP 45 (poor).
        let mut map = QpMap::uniform(dims, Qp::new(45));
        for row in 0..dims.rows {
            for col in 0..dims.cols / 2 {
                map.set(row, col, Qp::new(24));
            }
        }
        let roi = enc.encode_with_qp_map(&frame, &map);
        let uniform = enc.encode_uniform(&frame, Qp::new(32));
        // Left-half blocks should hold far more bytes than right-half blocks.
        let left: u64 = roi
            .blocks
            .iter()
            .filter(|b| (b.index as u32 % dims.cols) < dims.cols / 2)
            .map(|b| b.byte_len as u64)
            .sum();
        let right: u64 = roi
            .blocks
            .iter()
            .filter(|b| (b.index as u32 % dims.cols) >= dims.cols / 2)
            .map(|b| b.byte_len as u64)
            .sum();
        assert!(left > right * 4, "left {left} right {right}");
        // And total size should land in the same order of magnitude as the uniform encode.
        let ratio = roi.total_bytes() as f64 / uniform.total_bytes() as f64;
        assert!(ratio > 0.4 && ratio < 2.5, "ratio {ratio}");
    }

    #[test]
    fn predict_uniform_size_matches_actual_encode() {
        let enc = Encoder::new(EncoderConfig::default());
        let frame = test_frame();
        for qp in [20, 32, 45] {
            let predicted = enc.predict_uniform_size(&frame, Qp::new(qp));
            let actual = enc.encode_uniform(&frame, Qp::new(qp)).total_bytes();
            assert_eq!(predicted, actual, "qp {qp}");
        }
    }

    #[test]
    fn slower_preset_is_smaller_and_costlier() {
        let medium = Encoder::new(EncoderConfig::default());
        let slower = Encoder::new(EncoderConfig {
            preset: Preset::Slower,
            ..EncoderConfig::default()
        });
        let frame = test_frame();
        assert!(
            slower.encode_uniform(&frame, Qp::new(32)).total_bytes()
                < medium.encode_uniform(&frame, Qp::new(32)).total_bytes()
        );
        assert!(slower.encode_latency_us() > medium.encode_latency_us());
    }

    #[test]
    fn capture_timestamp_is_propagated() {
        let enc = Encoder::new(EncoderConfig::default());
        let source = VideoSource::new(basketball_game(1), SourceConfig::fps30(10.0));
        let frame = source.frame(17);
        let encoded = enc.encode_uniform(&frame, Qp::new(32));
        assert_eq!(encoded.capture_ts_us, frame.capture_ts_us);
        assert_eq!(encoded.frame_index, 17);
    }

    #[test]
    fn encode_into_is_identical_to_encode_with_qp_map() {
        let enc = Encoder::new(EncoderConfig::default());
        let source = VideoSource::new(basketball_game(1), SourceConfig::fps30(10.0));
        let mut scratch = EncodeScratch::new();
        let mut out = EncodedFrame::placeholder();
        // Consecutive frames through the same scratch/buffer match the allocating path,
        // including the cached-coverage reuse on later frames.
        for i in [0u64, 1, 2, 30, 0] {
            let frame = source.frame(i);
            let dims = enc.grid_for(&frame);
            let map = QpMap::uniform(dims, Qp::new(31));
            enc.encode_into(&frame, &map, &mut scratch, &mut out);
            assert_eq!(out, enc.encode_with_qp_map(&frame, &map), "frame {i}");
        }
    }

    #[test]
    fn encode_into_survives_geometry_changes() {
        // The coverage cache is index-keyed; switching to a different frame size must still
        // produce correct output (cache misses, never stale hits).
        let enc = Encoder::new(EncoderConfig::default());
        let big = VideoSource::new(basketball_game(1), SourceConfig::fps30(5.0)).frame(0);
        let mut small_scene = aivc_scene::Scene::new("small", 256, 192).with_background(0.3, 0.1, vec![]);
        small_scene.add_object(
            aivc_scene::SceneObject::new(1, "thing", aivc_scene::Rect::new(10, 10, 100, 100))
                .with_concept("player", 1.0)
                .with_detail(0.5)
                .with_texture(0.5),
        );
        let small = Frame::sample(&small_scene, 0, 0, 0.0);
        let mut scratch = EncodeScratch::new();
        let mut out = EncodedFrame::placeholder();
        for frame in [&big, &small, &big] {
            let map = QpMap::uniform(enc.grid_for(frame), Qp::new(33));
            enc.encode_into(frame, &map, &mut scratch, &mut out);
            assert_eq!(out, enc.encode_with_qp_map(frame, &map));
        }
    }

    #[test]
    fn encode_into_par_is_bit_identical_for_every_pool_size() {
        let enc = Encoder::new(EncoderConfig::default());
        let source = VideoSource::new(basketball_game(1), SourceConfig::fps30(10.0));
        for lanes in [1usize, 2, 3, 8] {
            let pool = MiniPool::new(lanes);
            let mut scratch = EncodeParScratch::new();
            let mut out = EncodedFrame::placeholder();
            // Consecutive frames, a jump, a revisit, and a non-uniform ROI map — all must
            // match the allocating reference exactly, including offsets and coverage.
            for i in [0u64, 1, 2, 30, 0] {
                let frame = source.frame(i);
                let dims = enc.grid_for(&frame);
                let mut map = QpMap::uniform(dims, Qp::new(40));
                for row in 0..dims.rows {
                    for col in 0..dims.cols / 3 {
                        map.set(row, col, Qp::new(22));
                    }
                }
                enc.encode_into_par(&frame, &map, &pool, &mut scratch, &mut out);
                assert_eq!(
                    out,
                    enc.encode_with_qp_map(&frame, &map),
                    "lanes {lanes} frame {i}"
                );
            }
        }
    }

    #[test]
    fn encode_into_par_survives_geometry_changes() {
        let enc = Encoder::new(EncoderConfig::default());
        let big = VideoSource::new(basketball_game(1), SourceConfig::fps30(5.0)).frame(0);
        let mut small_scene = aivc_scene::Scene::new("small", 256, 192).with_background(0.3, 0.1, vec![]);
        small_scene.add_object(
            aivc_scene::SceneObject::new(1, "thing", aivc_scene::Rect::new(10, 10, 100, 100))
                .with_concept("player", 1.0)
                .with_detail(0.5)
                .with_texture(0.5),
        );
        let small = Frame::sample(&small_scene, 0, 0, 0.0);
        let pool = MiniPool::new(4);
        let mut scratch = EncodeParScratch::new();
        let mut out = EncodedFrame::placeholder();
        for frame in [&big, &small, &big] {
            let map = QpMap::uniform(enc.grid_for(frame), Qp::new(33));
            enc.encode_into_par(frame, &map, &pool, &mut scratch, &mut out);
            assert_eq!(out, enc.encode_with_qp_map(frame, &map));
        }
    }

    /// Recomputes every block of `encoded` the pre-vectorization way — a per-cell
    /// [`Frame::region_content_into`] walk feeding scalar R-D calls — and asserts exact
    /// equality of every field. This is the ground-truth check that the grid raster plus
    /// the batched rate kernel changed the encode's speed and nothing else.
    fn assert_blocks_match_scalar_walk(enc: &Encoder, frame: &Frame, map: &QpMap, encoded: &EncodedFrame) {
        let dims = enc.grid_for(frame);
        assert_eq!(encoded.blocks.len(), dims.len());
        let frame_type = enc.config().gop.frame_type(frame.index);
        let preset_factor = enc.config().preset.rate_factor();
        let mut content = aivc_scene::RegionContent::empty();
        let mut offset = enc.config().header_bytes as u64;
        for (idx, block) in encoded.blocks.iter().enumerate() {
            let (row, col) = dims.position(idx);
            let rect = dims.cell_rect(row, col, frame.width, frame.height);
            frame.region_content_into(&rect, &mut content);
            let qp = map.get_index(idx);
            let bits =
                enc.rd_model()
                    .block_bits(qp, rect.area(), content.complexity, content.motion, frame_type);
            let bytes = (((bits as f64 * preset_factor) / 8.0).ceil() as u32).max(1);
            assert_eq!(block.byte_len, bytes, "bytes {idx}");
            assert_eq!(block.byte_offset, offset, "offset {idx}");
            assert_eq!(block.qp, qp, "qp {idx}");
            assert_eq!(
                block.encoded_quality,
                enc.rd_model().block_quality(qp, content.detail),
                "quality {idx}"
            );
            assert_eq!(block.detail, content.detail, "detail {idx}");
            assert_eq!(block.complexity, content.complexity, "complexity {idx}");
            assert_eq!(block.motion, content.motion, "motion {idx}");
            assert_eq!(
                &block.object_coverage[..],
                &content.object_coverage[..],
                "coverage {idx}"
            );
            offset += bytes as u64;
        }
    }

    #[test]
    fn batched_encode_matches_scalar_walk_for_every_tail_length() {
        // Frame sizes chosen so the CTU-grid length sweeps every batch-tail case: below one
        // batch (1, 4, 6 blocks), exactly one (8), multiples (16), and non-multiples with
        // every partial-edge-cell flavour (510 blocks at 1080p, 12, 35).
        let cases = [
            (64u32, 64u32), // 1 block
            (256, 64),      // 4
            (130, 170),     // 3×2 = 6, partial edges both axes
            (512, 64),      // 8, exactly one batch
            (1024, 64),     // 16
            (256, 192),     // 4×3 = 12
            (448, 320),     // 7×5 = 35
            (1920, 1080),   // 30×17 = 510
        ];
        for (w, h) in cases {
            let mut scene = basketball_game(1);
            scene.width = w;
            scene.height = h;
            let source = VideoSource::new(scene, SourceConfig::fps30(2.0));
            let enc = Encoder::new(EncoderConfig::default());
            for i in [0u64, 1] {
                let frame = source.frame(i);
                let dims = enc.grid_for(&frame);
                let values: Vec<Qp> = (0..dims.len())
                    .map(|idx| Qp::new(20 + (idx as i32 * 7) % 28))
                    .collect();
                let map = QpMap::from_values(dims, values);
                let encoded = enc.encode_with_qp_map(&frame, &map);
                assert_blocks_match_scalar_walk(&enc, &frame, &map, &encoded);
            }
        }
    }

    #[test]
    fn predict_map_size_matches_actual_encode_for_roi_maps() {
        let enc = Encoder::new(EncoderConfig::default());
        let source = VideoSource::new(basketball_game(1), SourceConfig::fps30(10.0));
        let mut scratch = EncodeScratch::new();
        for i in [0u64, 1, 7] {
            let frame = source.frame(i);
            let dims = enc.grid_for(&frame);
            let mut map = QpMap::uniform(dims, Qp::new(42));
            for row in 0..dims.rows {
                for col in 0..dims.cols / 2 {
                    map.set(row, col, Qp::new(23));
                }
            }
            let predicted = enc.predict_map_size(&frame, &map, &mut scratch);
            let actual = enc.encode_with_qp_map(&frame, &map).total_bytes();
            assert_eq!(predicted, actual, "frame {i}");
        }
    }

    #[test]
    #[should_panic(expected = "does not match")]
    fn mismatched_qp_map_rejected() {
        let enc = Encoder::new(EncoderConfig::default());
        let frame = test_frame();
        let wrong = QpMap::uniform(GridDims::for_frame(64, 64, 64), Qp::new(30));
        let _ = enc.encode_with_qp_map(&frame, &wrong);
    }
}
