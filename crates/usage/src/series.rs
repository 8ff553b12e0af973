//! Time-series utilities for daily usage curves.
//!
//! Clustering operates on fixed-length vectors (one load value per sampling
//! slot). This module provides the vector operations the clustering and
//! prediction stages need: distances, normalisation, resampling and
//! smoothing.

/// Euclidean distance between two equal-length vectors.
///
/// # Panics
///
/// Panics if the lengths differ.
pub fn euclidean(a: &[f64], b: &[f64]) -> f64 {
    assert_eq!(a.len(), b.len(), "distance requires equal lengths");
    a.iter()
        .zip(b)
        .map(|(x, y)| (x - y) * (x - y))
        .sum::<f64>()
        .sqrt()
}

/// Manhattan (L1) distance between two equal-length vectors.
///
/// # Panics
///
/// Panics if the lengths differ.
pub fn manhattan(a: &[f64], b: &[f64]) -> f64 {
    assert_eq!(a.len(), b.len(), "distance requires equal lengths");
    a.iter().zip(b).map(|(x, y)| (x - y).abs()).sum()
}

/// Windowed dynamic-time-warping distance (Sakoe–Chiba band of `window`
/// slots). Tolerates small time shifts — a lunch break at 12:00 vs 12:30
/// still reads as the same shape.
///
/// # Panics
///
/// Panics if either input is empty.
pub fn dtw(a: &[f64], b: &[f64], window: usize) -> f64 {
    assert!(
        !a.is_empty() && !b.is_empty(),
        "dtw requires non-empty inputs"
    );
    let n = a.len();
    let m = b.len();
    let w = window.max(n.abs_diff(m));
    let mut prev = vec![f64::INFINITY; m + 1];
    let mut curr = vec![f64::INFINITY; m + 1];
    prev[0] = 0.0;
    for i in 1..=n {
        curr.fill(f64::INFINITY);
        let lo = i.saturating_sub(w).max(1);
        let hi = (i + w).min(m);
        for j in lo..=hi {
            let cost = (a[i - 1] - b[j - 1]).abs();
            let best = prev[j].min(curr[j - 1]).min(prev[j - 1]);
            curr[j] = cost + best;
        }
        std::mem::swap(&mut prev, &mut curr);
    }
    prev[m]
}

/// Component-wise mean of a set of equal-length vectors.
///
/// # Panics
///
/// Panics if `rows` is empty or rows have unequal lengths.
pub fn mean_vector(rows: &[Vec<f64>]) -> Vec<f64> {
    assert!(!rows.is_empty(), "mean of zero vectors is undefined");
    let len = rows[0].len();
    let mut out = vec![0.0; len];
    for row in rows {
        assert_eq!(row.len(), len, "mean requires equal lengths");
        for (o, v) in out.iter_mut().zip(row) {
            *o += v;
        }
    }
    for o in &mut out {
        *o /= rows.len() as f64;
    }
    out
}

/// Min–max normalises a vector into `[0, 1]`; constant vectors become zeros.
pub fn normalize(values: &[f64]) -> Vec<f64> {
    let (mut lo, mut hi) = (f64::INFINITY, f64::NEG_INFINITY);
    for &v in values {
        lo = lo.min(v);
        hi = hi.max(v);
    }
    if !lo.is_finite() || !hi.is_finite() || (hi - lo) < 1e-12 {
        return vec![0.0; values.len()];
    }
    values.iter().map(|v| (v - lo) / (hi - lo)).collect()
}

/// Resamples a vector to `target_len` points by averaging over equal bins
/// (downsampling) or linear interpolation (upsampling).
///
/// # Panics
///
/// Panics if either length is zero.
pub fn resample(values: &[f64], target_len: usize) -> Vec<f64> {
    assert!(
        !values.is_empty() && target_len > 0,
        "resample requires non-empty sizes"
    );
    (0..target_len)
        .map(|i| resampled_point(values.len(), target_len, i, |j| values[j]))
        .collect()
}

/// Point `i` of [`resample`]'s output for an `n`-point input read through
/// `value` — for callers that derive the input on the fly and do not want
/// it materialised.
///
/// # Panics
///
/// Panics if either length is zero or `i >= target_len`.
pub fn resampled_point(n: usize, target_len: usize, i: usize, value: impl Fn(usize) -> f64) -> f64 {
    assert!(
        n > 0 && i < target_len,
        "resample requires non-empty sizes and a point inside the output"
    );
    if n == target_len {
        value(i)
    } else if target_len < n {
        // Bin-average.
        let start = i * n / target_len;
        let end = (((i + 1) * n).div_ceil(target_len)).min(n).max(start + 1);
        (start..end).map(&value).sum::<f64>() / (end - start) as f64
    } else if n == 1 {
        value(0)
    } else {
        // Linear interpolation.
        let pos = i as f64 * (n - 1) as f64 / (target_len - 1) as f64;
        let base = pos.floor() as usize;
        let frac = pos - base as f64;
        if base + 1 < n {
            value(base) * (1.0 - frac) + value(base + 1) * frac
        } else {
            value(n - 1)
        }
    }
}

/// Centered moving-average smoothing with a window of `2*radius + 1` slots.
pub fn smooth(values: &[f64], radius: usize) -> Vec<f64> {
    if radius == 0 || values.is_empty() {
        return values.to_vec();
    }
    let n = values.len();
    (0..n)
        .map(|i| {
            let lo = i.saturating_sub(radius);
            let hi = (i + radius + 1).min(n);
            values[lo..hi].iter().sum::<f64>() / (hi - lo) as f64
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn euclidean_basics() {
        assert_eq!(euclidean(&[0.0, 0.0], &[3.0, 4.0]), 5.0);
        assert_eq!(euclidean(&[1.0], &[1.0]), 0.0);
    }

    #[test]
    fn manhattan_basics() {
        assert_eq!(manhattan(&[0.0, 0.0], &[3.0, 4.0]), 7.0);
    }

    #[test]
    #[should_panic(expected = "equal lengths")]
    fn mismatched_lengths_panic() {
        euclidean(&[1.0], &[1.0, 2.0]);
    }

    #[test]
    fn dtw_tolerates_shifts() {
        // A lunch-dip at slot 4 vs slot 5: DTW sees them as nearly identical,
        // Euclidean does not.
        let a = vec![1.0, 1.0, 1.0, 1.0, 0.0, 1.0, 1.0, 1.0];
        let b = vec![1.0, 1.0, 1.0, 1.0, 1.0, 0.0, 1.0, 1.0];
        assert!(dtw(&a, &b, 2) < 0.01);
        assert!(euclidean(&a, &b) > 1.0);
    }

    #[test]
    fn dtw_identical_is_zero() {
        let a = vec![0.2, 0.4, 0.9];
        assert_eq!(dtw(&a, &a, 1), 0.0);
    }

    #[test]
    fn dtw_handles_unequal_lengths() {
        let a = vec![0.0, 1.0, 0.0];
        let b = vec![0.0, 1.0, 1.0, 0.0];
        assert!(dtw(&a, &b, 1).is_finite());
    }

    #[test]
    fn mean_vector_averages() {
        let rows = vec![vec![0.0, 2.0], vec![2.0, 4.0]];
        assert_eq!(mean_vector(&rows), vec![1.0, 3.0]);
    }

    #[test]
    #[should_panic(expected = "zero vectors")]
    fn mean_of_nothing_panics() {
        mean_vector(&[]);
    }

    #[test]
    fn normalize_maps_to_unit_interval() {
        assert_eq!(normalize(&[2.0, 4.0, 6.0]), vec![0.0, 0.5, 1.0]);
        assert_eq!(normalize(&[3.0, 3.0]), vec![0.0, 0.0]);
        assert_eq!(normalize(&[]), Vec::<f64>::new());
    }

    #[test]
    fn resample_identity() {
        let v = vec![1.0, 2.0, 3.0];
        assert_eq!(resample(&v, 3), v);
    }

    #[test]
    fn resample_down_averages() {
        let v = vec![1.0, 1.0, 3.0, 3.0];
        assert_eq!(resample(&v, 2), vec![1.0, 3.0]);
    }

    #[test]
    fn resample_up_interpolates() {
        let v = vec![0.0, 1.0];
        let up = resample(&v, 3);
        assert_eq!(up, vec![0.0, 0.5, 1.0]);
    }

    #[test]
    fn resample_preserves_mean_roughly() {
        let v: Vec<f64> = (0..288).map(|i| i as f64 / 288.0).collect();
        let down = resample(&v, 48);
        let mean_orig = v.iter().sum::<f64>() / v.len() as f64;
        let mean_down = down.iter().sum::<f64>() / down.len() as f64;
        assert!((mean_orig - mean_down).abs() < 0.01);
    }

    #[test]
    fn smooth_flattens_spikes() {
        let v = vec![0.0, 0.0, 1.0, 0.0, 0.0];
        let s = smooth(&v, 1);
        assert!(s[2] < 1.0);
        assert!(s[1] > 0.0);
        assert_eq!(smooth(&v, 0), v);
    }
}
