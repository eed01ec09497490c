//! Whole-frame rasterization of per-cell content descriptors.
//!
//! [`Frame::region_content_into`] answers "what is in this rectangle?" for one region at a
//! time by scanning every placement — fine for a handful of queries, quadratic in spirit
//! when a consumer walks an entire CTU/patch grid (hundreds of cells × every placement).
//! [`GridContent`] inverts the loop: each placement is rasterized once onto the range of
//! grid cells it overlaps, producing the exact per-cell descriptors of a cell-by-cell
//! `region_content_into` walk in O(placements × cells-touched) instead of
//! O(cells × placements).
//!
//! **Bit-identity.** For every cell, the placements contributing to it are visited in
//! placement order (the outer loop ascends placements, and a placement touches a cell at
//! most once), each contribution uses the same `coverage_by` value on the same operands,
//! and the background/clamp finalization applies the same expressions in the same order —
//! so every per-cell f64 accumulation sequence is *identical* to the scalar walk's, not
//! merely close (property-tested in this module and relied on by the encoder and CLIP
//! golden fixtures).

use crate::frame::Frame;
use crate::geometry::{GridDims, Rect};

/// Per-cell content descriptors for a whole frame grid, stored as structure-of-arrays so
/// downstream per-block kernels walk unit-stride memory.
#[derive(Debug, Clone)]
pub struct GridContent {
    dims: GridDims,
    /// Area-weighted spatial complexity per cell (same value as `RegionContent::complexity`).
    complexity: Vec<f64>,
    /// Area-weighted motion per cell.
    motion: Vec<f64>,
    /// Area-weighted detail per cell.
    detail: Vec<f64>,
    /// Background fraction per cell.
    background_fraction: Vec<f64>,
    /// Pixel area of each (possibly edge-clipped) cell.
    area: Vec<u64>,
    /// Prefix offsets into [`GridContent::cov_entries`]; cell `i`'s coverage list is
    /// `cov_entries[cov_offsets[i]..cov_offsets[i + 1]]`.
    cov_offsets: Vec<u32>,
    /// `(object_id, fraction)` coverage entries for all cells, concatenated in cell order,
    /// each cell's slice in placement order — exactly `RegionContent::object_coverage`.
    cov_entries: Vec<(u32, f64)>,
    /// Per-cell write cursor (pass 1: entry counts; pass 2: entries written so far).
    cursor: Vec<u32>,
    /// Per-cell running coverage total before the `min(1.0)` cap.
    covered: Vec<f64>,
}

impl Default for GridContent {
    fn default() -> Self {
        Self::new()
    }
}

/// Grid-cell range `(row0, col0, row1, col1)` (inclusive) overlapped by a non-empty rect
/// already clipped to the frame.
fn cell_range(dims: GridDims, clipped: &Rect) -> (u32, u32, u32, u32) {
    let cell = dims.cell as i64;
    let col0 = (clipped.x / cell) as u32;
    let row0 = (clipped.y / cell) as u32;
    let col1 = (((clipped.right() - 1) / cell) as u32).min(dims.cols - 1);
    let row1 = (((clipped.bottom() - 1) / cell) as u32).min(dims.rows - 1);
    (row0, col0, row1, col1)
}

impl GridContent {
    /// Creates an empty grid (refilled in place by [`GridContent::fill`]).
    pub fn new() -> Self {
        Self {
            dims: GridDims {
                cols: 0,
                rows: 0,
                cell: 1,
            },
            complexity: Vec::new(),
            motion: Vec::new(),
            detail: Vec::new(),
            background_fraction: Vec::new(),
            area: Vec::new(),
            cov_offsets: Vec::new(),
            cov_entries: Vec::new(),
            cursor: Vec::new(),
            covered: Vec::new(),
        }
    }

    /// Rasterizes `frame` onto the `cell`-sized grid, reusing every buffer. After the first
    /// fill of a given geometry, refills perform no heap allocation unless the total
    /// coverage-entry count grows past the retained capacity.
    pub fn fill(&mut self, frame: &Frame, cell: u32) {
        let dims = GridDims::for_frame(frame.width, frame.height, cell);
        self.dims = dims;
        let n = dims.len();
        for buf in [
            &mut self.complexity,
            &mut self.motion,
            &mut self.detail,
            &mut self.covered,
            &mut self.background_fraction,
        ] {
            buf.clear();
            buf.resize(n, 0.0);
        }
        self.cursor.clear();
        self.cursor.resize(n, 0);
        self.area.clear();
        self.area.reserve(n);
        for row in 0..dims.rows {
            for col in 0..dims.cols {
                self.area
                    .push(dims.cell_rect(row, col, frame.width, frame.height).area());
            }
        }
        let frame_rect = frame.rect();
        // Pass 1: per-cell entry counts plus the ordered scalar accumulations (coverage
        // totals and frac-weighted content), placement-outer so each cell sees its
        // contributors in placement order.
        for placement in &frame.placements {
            let Some(obj) = frame.object(placement.object_id) else {
                continue;
            };
            let clipped = placement.region.intersect(&frame_rect);
            if clipped.is_empty() {
                continue;
            }
            let (row0, col0, row1, col1) = cell_range(dims, &clipped);
            for row in row0..=row1 {
                for col in col0..=col1 {
                    let idx = dims.index(row, col);
                    let rect = dims.cell_rect(row, col, frame.width, frame.height);
                    let frac = rect.coverage_by(&placement.region);
                    if frac <= 0.0 {
                        continue;
                    }
                    self.cursor[idx] += 1;
                    self.covered[idx] += frac;
                    self.complexity[idx] += frac * obj.texture_complexity;
                    self.motion[idx] += frac * obj.motion;
                    self.detail[idx] += frac * obj.detail;
                }
            }
        }
        // Prefix-sum the counts into offsets, then replay the placements to fill entries.
        self.cov_offsets.clear();
        self.cov_offsets.reserve(n + 1);
        let mut total = 0u32;
        self.cov_offsets.push(0);
        for &count in &self.cursor {
            total += count;
            self.cov_offsets.push(total);
        }
        self.cov_entries.clear();
        self.cov_entries.resize(total as usize, (0, 0.0));
        self.cursor.fill(0);
        for placement in &frame.placements {
            if frame.object(placement.object_id).is_none() {
                continue;
            }
            let clipped = placement.region.intersect(&frame_rect);
            if clipped.is_empty() {
                continue;
            }
            let (row0, col0, row1, col1) = cell_range(dims, &clipped);
            for row in row0..=row1 {
                for col in col0..=col1 {
                    let idx = dims.index(row, col);
                    let rect = dims.cell_rect(row, col, frame.width, frame.height);
                    let frac = rect.coverage_by(&placement.region);
                    if frac <= 0.0 {
                        continue;
                    }
                    let slot = self.cov_offsets[idx] as usize + self.cursor[idx] as usize;
                    self.cov_entries[slot] = (placement.object_id, frac);
                    self.cursor[idx] += 1;
                }
            }
        }
        // Finalize: the exact background/clamp epilogue of `region_content_into`.
        for idx in 0..n {
            let covered = self.covered[idx].min(1.0);
            let background_fraction = (1.0 - covered).max(0.0);
            self.complexity[idx] =
                (self.complexity[idx] + background_fraction * frame.background_complexity).clamp(0.0, 1.0);
            self.motion[idx] =
                (self.motion[idx] + background_fraction * frame.background_motion).clamp(0.0, 1.0);
            self.detail[idx] = self.detail[idx].clamp(0.0, 1.0);
            self.background_fraction[idx] = background_fraction;
        }
    }

    /// The grid this content was rasterized for.
    pub fn dims(&self) -> GridDims {
        self.dims
    }

    /// Per-cell complexity, row-major.
    pub fn complexity(&self) -> &[f64] {
        &self.complexity
    }

    /// Per-cell motion, row-major.
    pub fn motion(&self) -> &[f64] {
        &self.motion
    }

    /// Per-cell detail, row-major.
    pub fn detail(&self) -> &[f64] {
        &self.detail
    }

    /// Per-cell background fraction, row-major.
    pub fn background_fraction(&self) -> &[f64] {
        &self.background_fraction
    }

    /// Per-cell pixel area, row-major.
    pub fn area(&self) -> &[u64] {
        &self.area
    }

    /// Cell `idx`'s `(object_id, fraction)` coverage list, in placement order — the same
    /// entries `region_content_into` would report for that cell's rectangle.
    pub fn coverage(&self, idx: usize) -> &[(u32, f64)] {
        let start = self.cov_offsets[idx] as usize;
        let end = self.cov_offsets[idx + 1] as usize;
        &self.cov_entries[start..end]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::concept::Concept;
    use crate::frame::{Frame, ObjectPlacement, RegionContent};
    use crate::object::SceneObject;
    use crate::scene::Scene;

    fn assert_matches_scalar_walk(frame: &Frame, cell: u32) {
        let mut grid = GridContent::new();
        grid.fill(frame, cell);
        let dims = grid.dims();
        assert_eq!(dims, GridDims::for_frame(frame.width, frame.height, cell));
        let mut content = RegionContent::empty();
        for row in 0..dims.rows {
            for col in 0..dims.cols {
                let idx = dims.index(row, col);
                let rect = dims.cell_rect(row, col, frame.width, frame.height);
                frame.region_content_into(&rect, &mut content);
                let at = |v: &[f64]| v[idx];
                assert_eq!(
                    at(grid.complexity()),
                    content.complexity,
                    "complexity {row},{col}"
                );
                assert_eq!(at(grid.motion()), content.motion, "motion {row},{col}");
                assert_eq!(at(grid.detail()), content.detail, "detail {row},{col}");
                assert_eq!(
                    at(grid.background_fraction()),
                    content.background_fraction,
                    "bg {row},{col}"
                );
                assert_eq!(
                    grid.coverage(idx),
                    &content.object_coverage[..],
                    "coverage {row},{col}"
                );
                assert_eq!(grid.area()[idx], rect.area(), "area {row},{col}");
            }
        }
    }

    fn busy_scene() -> Scene {
        let mut s =
            Scene::new("busy", 1920, 1080).with_background(0.25, 0.05, vec![(Concept::new("court"), 1.0)]);
        s.add_object(
            SceneObject::new(1, "scoreboard", Rect::new(100, 40, 320, 160))
                .with_concept("scoreboard", 1.0)
                .with_detail(0.9)
                .with_texture(0.8),
        );
        s.add_object(
            SceneObject::new(2, "player", Rect::new(600, 300, 400, 500))
                .with_concept("player", 1.0)
                .with_detail(0.4)
                .with_texture(0.6)
                .with_motion(0.7, (0.0, 0.0)),
        );
        // Overlapping the player, and hanging off the right/bottom frame edge.
        s.add_object(
            SceneObject::new(3, "banner", Rect::new(1800, 1000, 300, 300))
                .with_concept("logo", 1.0)
                .with_detail(0.6)
                .with_texture(0.5),
        );
        s.add_object(
            SceneObject::new(4, "ball", Rect::new(700, 400, 64, 64))
                .with_concept("ball", 1.0)
                .with_detail(0.3)
                .with_texture(0.4)
                .with_motion(0.9, (0.0, 0.0)),
        );
        s
    }

    #[test]
    fn rasterized_grid_is_bit_identical_to_the_scalar_walk() {
        let frame = Frame::sample(&busy_scene(), 0, 0, 0.0);
        for cell in [32, 64, 100] {
            assert_matches_scalar_walk(&frame, cell);
        }
    }

    #[test]
    fn rasterized_grid_matches_on_odd_geometries_and_moving_frames() {
        let mut scene = busy_scene();
        scene.width = 1000;
        scene.height = 700;
        for t in [0.0, 0.37, 1.9] {
            let frame = Frame::sample(&scene, 0, 0, t);
            assert_matches_scalar_walk(&frame, 64);
        }
    }

    #[test]
    fn rasterized_grid_handles_empty_frames_and_stray_placements() {
        // No objects at all: pure background everywhere.
        let empty = Frame::sample(
            &Scene::new("empty", 640, 384).with_background(0.3, 0.1, vec![]),
            0,
            0,
            0.0,
        );
        assert_matches_scalar_walk(&empty, 64);
        // A placement fully outside the frame, and one whose object is missing: both are
        // skipped by the scalar walk and must be skipped here too.
        let mut frame = Frame::sample(&busy_scene(), 0, 0, 0.0);
        frame.placements.push(ObjectPlacement {
            object_id: 1,
            region: Rect::new(5_000, 5_000, 64, 64),
        });
        frame.placements.push(ObjectPlacement {
            object_id: 999, // no such object
            region: Rect::new(10, 10, 500, 500),
        });
        assert_matches_scalar_walk(&frame, 64);
    }

    #[test]
    fn refill_reuses_buffers_across_geometries() {
        let big = Frame::sample(&busy_scene(), 0, 0, 0.0);
        let small = Frame::sample(
            &Scene::new("small", 256, 192).with_background(0.2, 0.0, vec![]),
            0,
            0,
            0.0,
        );
        let mut grid = GridContent::new();
        grid.fill(&big, 64);
        grid.fill(&small, 64);
        assert_eq!(grid.dims(), GridDims::for_frame(256, 192, 64));
        grid.fill(&big, 64);
        assert_matches_scalar_walk(&big, 64);
    }
}
