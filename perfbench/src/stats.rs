//! Order statistics over samples.

/// The `q`-quantile of `values` (0 ≤ q ≤ 1), linearly interpolated between order
/// statistics; sorts `values` in place. Returns 0 for an empty sample.
pub fn percentile(values: &mut [f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.sort_unstable_by(f64::total_cmp);
    let rank = q.clamp(0.0, 1.0) * (values.len() - 1) as f64;
    let (lo, hi) = (rank.floor() as usize, rank.ceil() as usize);
    values[lo] + (values[hi] - values[lo]) * (rank - lo as f64)
}

/// The median of `values`; sorts `values` in place. Returns 0 for an empty sample.
pub fn median(values: &mut [f64]) -> f64 {
    percentile(values, 0.5)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_interpolate_between_order_statistics() {
        let mut v = vec![4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&mut v), 2.5);
        assert_eq!(percentile(&mut v, 0.0), 1.0);
        assert_eq!(percentile(&mut v, 1.0), 4.0);
        assert_eq!(median(&mut []), 0.0);
    }
}
