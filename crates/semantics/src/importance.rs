//! Importance maps: the per-patch semantic correlation ρ_mn of Eq. 1, as a grid.
//!
//! The map is produced by [`crate::ClipModel::correlation_map`] and consumed by the
//! context-aware QP allocator (Eq. 2 in `aivchat-core`). It also provides utilities used by
//! the Figure 5 harness (top regions, ASCII heat map) and by resampling onto the encoder's
//! CTU grid when the patch size and CTU size differ.

use aivc_scene::GridDims;
use serde::{Deserialize, Serialize};

/// A per-patch semantic correlation map with values in `[-1, 1]`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ImportanceMap {
    dims: GridDims,
    width: u32,
    height: u32,
    rho: Vec<f64>,
}

impl ImportanceMap {
    /// Builds a map; `rho` must be row-major and match the grid size.
    pub fn new(dims: GridDims, width: u32, height: u32, rho: Vec<f64>) -> Self {
        assert_eq!(rho.len(), dims.len(), "importance map size mismatch");
        assert!(rho.iter().all(|r| (-1.0..=1.0).contains(r)), "rho out of [-1, 1]");
        Self {
            dims,
            width,
            height,
            rho,
        }
    }

    /// A map with uniform correlation (used when no user words are available — the paper's
    /// "proactive context-aware" open question, §4).
    pub fn uniform(dims: GridDims, width: u32, height: u32, rho: f64) -> Self {
        Self::new(dims, width, height, vec![rho.clamp(-1.0, 1.0); dims.len()])
    }

    /// An empty placeholder map (used as the initial state of reusable scratch buffers).
    pub(crate) fn empty() -> Self {
        Self {
            dims: GridDims::for_frame(1, 1, 1),
            width: 0,
            height: 0,
            rho: Vec::new(),
        }
    }

    /// Finishes an in-place refill, enforcing the same size invariant as
    /// [`ImportanceMap::new`] (writers check the range as they compute each value).
    pub(crate) fn finish_refill(&self) {
        assert_eq!(self.rho.len(), self.dims.len(), "importance map size mismatch");
    }

    /// Starts an in-place refill: sets the geometry, sizes the value buffer (zero-filled)
    /// and exposes it for direct indexed writes, reusing the existing allocation. Callers
    /// write every value and then call [`ImportanceMap::finish_refill`].
    pub(crate) fn refill_values_mut(&mut self, dims: GridDims, width: u32, height: u32) -> &mut [f64] {
        self.dims = dims;
        self.width = width;
        self.height = height;
        self.rho.clear();
        self.rho.resize(dims.len(), 0.0);
        &mut self.rho
    }

    /// The values for in-place updates (the incremental paths overwrite dirty patches).
    pub(crate) fn values_mut(&mut self) -> &mut [f64] {
        &mut self.rho
    }

    /// The patch grid.
    pub fn dims(&self) -> GridDims {
        self.dims
    }

    /// Frame width in pixels.
    pub fn width(&self) -> u32 {
        self.width
    }

    /// Frame height in pixels.
    pub fn height(&self) -> u32 {
        self.height
    }

    /// Correlation of the patch at `(row, col)`.
    pub fn get(&self, row: u32, col: u32) -> f64 {
        self.rho[self.dims.index(row, col)]
    }

    /// All correlations in row-major order.
    pub fn values(&self) -> &[f64] {
        &self.rho
    }

    /// Maximum correlation in the map.
    pub fn max_rho(&self) -> f64 {
        self.rho.iter().copied().fold(-1.0, f64::max)
    }

    /// Minimum correlation in the map.
    pub fn min_rho(&self) -> f64 {
        self.rho.iter().copied().fold(1.0, f64::min)
    }

    /// Mean correlation.
    pub fn mean_rho(&self) -> f64 {
        if self.rho.is_empty() {
            return 0.0;
        }
        self.rho.iter().sum::<f64>() / self.rho.len() as f64
    }

    /// The `k` most important patches as `(row, col, rho)`, best first.
    pub fn top_k(&self, k: usize) -> Vec<(u32, u32, f64)> {
        let mut indexed: Vec<(usize, f64)> = self.rho.iter().copied().enumerate().collect();
        indexed.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap().then_with(|| a.0.cmp(&b.0)));
        indexed
            .into_iter()
            .take(k)
            .map(|(i, r)| {
                let (row, col) = self.dims.position(i);
                (row, col, r)
            })
            .collect()
    }

    /// Fraction of patches whose correlation is at least `threshold`.
    pub fn fraction_above(&self, threshold: f64) -> f64 {
        if self.rho.is_empty() {
            return 0.0;
        }
        self.rho.iter().filter(|r| **r >= threshold).count() as f64 / self.rho.len() as f64
    }

    /// The value a resample onto `target` would place at the target cell `(row, col)`
    /// (nearest-center sampling). Shared by [`ImportanceMap::resample`] and consumers that
    /// resample on the fly without materializing the intermediate map (the Eq. 2 allocator's
    /// `allocate_into` in `aivchat-core`).
    pub fn nearest_value_for_cell(&self, target: GridDims, row: u32, col: u32) -> f64 {
        let rect = target.cell_rect(row, col, self.width, self.height);
        let (cx, cy) = rect.center();
        let src_col = ((cx / self.dims.cell as f64) as u32).min(self.dims.cols - 1);
        let src_row = ((cy / self.dims.cell as f64) as u32).min(self.dims.rows - 1);
        self.get(src_row, src_col)
    }

    /// Resamples the map onto another grid over the same frame (nearest-center sampling).
    ///
    /// Needed when the CLIP patch size (e.g. 32 px) differs from the encoder CTU size (64 px).
    pub fn resample(&self, target: GridDims) -> ImportanceMap {
        let mut rho = Vec::with_capacity(target.len());
        for row in 0..target.rows {
            for col in 0..target.cols {
                rho.push(self.nearest_value_for_cell(target, row, col));
            }
        }
        ImportanceMap {
            dims: target,
            width: self.width,
            height: self.height,
            rho,
        }
    }

    /// Renders a coarse ASCII heat map (`.` low, `#` high) for terminal inspection
    /// (the Figure 5 visualization substitute).
    pub fn to_ascii(&self) -> String {
        const RAMP: &[u8] = b".:-=+*%#";
        let lo = self.min_rho();
        let hi = self.max_rho();
        let span = (hi - lo).max(1e-9);
        let mut out = String::new();
        for row in 0..self.dims.rows {
            for col in 0..self.dims.cols {
                let t = (self.get(row, col) - lo) / span;
                let idx = ((t * (RAMP.len() - 1) as f64).round() as usize).min(RAMP.len() - 1);
                out.push(RAMP[idx] as char);
            }
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn map() -> ImportanceMap {
        let dims = GridDims::for_frame(256, 128, 64); // 4 x 2
        ImportanceMap::new(dims, 256, 128, vec![0.9, 0.1, -0.2, 0.4, 0.0, 0.7, 0.3, -0.5])
    }

    #[test]
    fn statistics() {
        let m = map();
        assert_eq!(m.max_rho(), 0.9);
        assert_eq!(m.min_rho(), -0.5);
        assert!((m.mean_rho() - 0.2125).abs() < 1e-12);
        assert!((m.fraction_above(0.3) - 4.0 / 8.0).abs() < 1e-12);
    }

    #[test]
    fn top_k_sorted_descending() {
        let m = map();
        let top = m.top_k(3);
        assert_eq!(top.len(), 3);
        assert_eq!(top[0], (0, 0, 0.9));
        assert_eq!(top[1], (1, 1, 0.7));
        assert!(top[1].2 >= top[2].2);
    }

    #[test]
    fn resample_to_finer_grid_preserves_values() {
        let m = map();
        // The top-left 2x2 patch of the finer (8 x 4) grid falls inside the original (0,0) cell.
        let finer = m.resample(GridDims::for_frame(256, 128, 32));
        assert_eq!(finer.get(0, 0), 0.9);
        assert_eq!(finer.get(1, 1), 0.9);
        assert_eq!(finer.dims().cols, 8);
        // And overall bounds are preserved.
        assert!(finer.max_rho() <= m.max_rho() + 1e-12);
        assert!(finer.min_rho() >= m.min_rho() - 1e-12);
    }

    #[test]
    fn resample_to_same_grid_is_identity() {
        let m = map();
        let same = m.resample(m.dims());
        assert_eq!(same.values(), m.values());
    }

    #[test]
    fn ascii_has_row_per_line_and_marks_extremes() {
        let m = map();
        let art = m.to_ascii();
        assert_eq!(art.lines().count(), 2);
        assert!(art.contains('#'));
        assert!(art.contains('.'));
    }

    #[test]
    #[should_panic(expected = "out of [-1, 1]")]
    fn out_of_range_rho_rejected() {
        let dims = GridDims::for_frame(64, 64, 64);
        let _ = ImportanceMap::new(dims, 64, 64, vec![1.5]);
    }

    #[test]
    fn uniform_map() {
        let dims = GridDims::for_frame(128, 128, 64);
        let m = ImportanceMap::uniform(dims, 128, 128, 0.5);
        assert!(m.values().iter().all(|v| *v == 0.5));
    }
}
