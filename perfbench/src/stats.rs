//! Order statistics used by every estimator in the benchmark.

/// The `q`-quantile (`0 <= q <= 1`) of `values` by linear interpolation
/// between the two nearest order statistics; `None` for an empty slice.
pub fn quantile(values: &[f64], q: f64) -> Option<f64> {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    quantile_sorted(&sorted, q)
}

/// [`quantile`] of a slice already sorted ascending, without copying it.
pub fn quantile_sorted(sorted: &[f64], q: f64) -> Option<f64> {
    if sorted.is_empty() {
        return None;
    }
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    Some(sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64))
}

/// The median of `values`; `None` for an empty slice.
pub fn median(values: &[f64]) -> Option<f64> {
    quantile(values, 0.5)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_ignores_one_slow_sample() {
        assert_eq!(median(&[1.0, 1.1, 9.0]), Some(1.1));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn quantile_interpolates() {
        let v = [0.0, 10.0, 20.0, 30.0, 40.0];
        assert_eq!(quantile(&v, 0.0), Some(0.0));
        assert_eq!(quantile(&v, 0.625), Some(25.0));
        assert_eq!(quantile(&v, 1.0), Some(40.0));
    }
}
