//! K-means clustering with k-means++ seeding and silhouette model selection.
//!
//! The paper proposes applying "clustering algorithms \[JW83\]" to grouped
//! usage data "to extract behavioral categories". K-means over daily load
//! curves is the workhorse: [`fit`] runs Lloyd's algorithm from k-means++
//! seeds, [`silhouette_score`] rates a clustering, and [`select_k`] picks
//! the category count — matching the paper's observation that categories
//! "can appear" and "disappear" as data evolves.

use crate::series::euclidean;
use integrade_simnet::rng::DetRng;
use serde::{Deserialize, Serialize};

/// Parameters for one k-means fit.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct KMeansConfig {
    /// Number of clusters.
    pub k: usize,
    /// Maximum Lloyd iterations.
    pub max_iters: usize,
    /// Convergence threshold on total centroid movement.
    pub tolerance: f64,
    /// Seed for k-means++ initialisation.
    pub seed: u64,
}

impl KMeansConfig {
    /// Creates a config with sensible defaults for the other parameters.
    pub fn new(k: usize, seed: u64) -> Self {
        KMeansConfig {
            k,
            max_iters: 100,
            tolerance: 1e-6,
            seed,
        }
    }
}

/// A fitted clustering.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct KMeansModel {
    /// Cluster centers, `k` rows.
    pub centroids: Vec<Vec<f64>>,
    /// Cluster index per input row.
    pub assignments: Vec<usize>,
    /// Sum of squared distances to assigned centroids.
    pub inertia: f64,
    /// Lloyd iterations executed.
    pub iterations: usize,
}

impl KMeansModel {
    /// Index of the centroid nearest to `point`.
    ///
    /// # Panics
    ///
    /// Panics if the model is empty or dimensions mismatch.
    pub fn predict(&self, point: &[f64]) -> usize {
        nearest(&self.centroids, point).0
    }

    /// Number of points assigned to each cluster.
    pub fn cluster_sizes(&self) -> Vec<usize> {
        let mut sizes = vec![0; self.centroids.len()];
        for &a in &self.assignments {
            sizes[a] += 1;
        }
        sizes
    }
}

fn nearest(centroids: &[Vec<f64>], point: &[f64]) -> (usize, f64) {
    assert!(!centroids.is_empty(), "no centroids");
    let mut best = (0, f64::INFINITY);
    for (i, c) in centroids.iter().enumerate() {
        let d = euclidean(c, point);
        if d < best.1 {
            best = (i, d);
        }
    }
    best
}

/// K-means++ initial centroid selection.
fn init_plus_plus(data: &[Vec<f64>], k: usize, rng: &mut DetRng) -> Vec<Vec<f64>> {
    let mut centroids = Vec::with_capacity(k);
    centroids.push(data[rng.index(data.len())].clone());
    while centroids.len() < k {
        let weights: Vec<f64> = data
            .iter()
            .map(|p| {
                let (_, d) = nearest(&centroids, p);
                d * d
            })
            .collect();
        let idx = rng
            .choose_weighted(&weights)
            .unwrap_or_else(|| rng.index(data.len()));
        centroids.push(data[idx].clone());
    }
    centroids
}

/// Fits k-means to `data` (rows of equal length).
///
/// Empty clusters are repaired by re-seeding them with the point farthest
/// from its assigned centroid.
///
/// # Panics
///
/// Panics if `data` is empty, `k` is zero, or `k > data.len()`.
pub fn fit(data: &[Vec<f64>], config: KMeansConfig) -> KMeansModel {
    assert!(!data.is_empty(), "k-means requires data");
    assert!(
        config.k >= 1 && config.k <= data.len(),
        "k must be in 1..=len, got k={} len={}",
        config.k,
        data.len()
    );
    let dim = data[0].len();
    for row in data {
        assert_eq!(row.len(), dim, "all rows must share a dimension");
    }
    let mut rng = DetRng::with_stream(config.seed, 0x6B6D_6561 /* "kmea" */);
    let mut centroids = init_plus_plus(data, config.k, &mut rng);
    let mut assignments = vec![0usize; data.len()];
    let mut iterations = 0;

    for iter in 0..config.max_iters {
        iterations = iter + 1;
        // Assignment step.
        for (i, p) in data.iter().enumerate() {
            assignments[i] = nearest(&centroids, p).0;
        }
        // Update step.
        let mut sums = vec![vec![0.0; dim]; config.k];
        let mut counts = vec![0usize; config.k];
        for (p, &a) in data.iter().zip(&assignments) {
            counts[a] += 1;
            for (s, v) in sums[a].iter_mut().zip(p) {
                *s += v;
            }
        }
        // Repair empty clusters: steal the farthest point from a cluster
        // that can spare one (count > 1), so repairs never re-empty another
        // cluster.
        for c in 0..config.k {
            if counts[c] == 0 {
                let Some((far_idx, _)) = data
                    .iter()
                    .enumerate()
                    .filter(|(i, _)| counts[assignments[*i]] > 1)
                    .map(|(i, p)| (i, nearest(&centroids, p).1))
                    .max_by(|a, b| a.1.total_cmp(&b.1))
                else {
                    break; // fewer distinct points than k; leave as-is
                };
                let old = assignments[far_idx];
                counts[old] -= 1;
                for (s, v) in sums[old].iter_mut().zip(&data[far_idx]) {
                    *s -= v;
                }
                assignments[far_idx] = c;
                counts[c] = 1;
                sums[c] = data[far_idx].clone();
            }
        }
        let mut movement = 0.0;
        for c in 0..config.k {
            if counts[c] == 0 {
                continue; // unrepairable empty cluster keeps its centroid
            }
            let new: Vec<f64> = sums[c].iter().map(|s| s / counts[c] as f64).collect();
            movement += euclidean(&centroids[c], &new);
            centroids[c] = new;
        }
        if movement < config.tolerance {
            break;
        }
    }
    // Final assignment pass so assignments match the final centroids.
    let mut inertia = 0.0;
    for (i, p) in data.iter().enumerate() {
        let (a, d) = nearest(&centroids, p);
        assignments[i] = a;
        inertia += d * d;
    }
    KMeansModel {
        centroids,
        assignments,
        inertia,
        iterations,
    }
}

/// Mean silhouette coefficient of a clustering, in `[-1, 1]`; higher means
/// tighter, better-separated clusters. Returns 0 for degenerate inputs
/// (single cluster or singleton data).
pub fn silhouette_score(data: &[Vec<f64>], assignments: &[usize], k: usize) -> f64 {
    assert_eq!(data.len(), assignments.len(), "one assignment per row");
    silhouette_over(assignments, k, |i, j| euclidean(&data[i], &data[j]))
}

/// The silhouette body, over any source of the distance between rows `i`
/// and `j` — recomputed from the rows ([`silhouette_score`]) or read from a
/// precomputed matrix ([`select_k`]).
fn silhouette_over(assignments: &[usize], k: usize, distance: impl Fn(usize, usize) -> f64) -> f64 {
    let n = assignments.len();
    if k < 2 || n < 3 {
        return 0.0;
    }
    let mut total = 0.0;
    let mut counted = 0usize;
    let mut sums = vec![0.0; k];
    let mut counts = vec![0usize; k];
    for i in 0..n {
        let own = assignments[i];
        // Mean distance to own cluster (a) and nearest other cluster (b).
        sums.fill(0.0);
        counts.fill(0);
        for j in 0..n {
            if i == j {
                continue;
            }
            sums[assignments[j]] += distance(i, j);
            counts[assignments[j]] += 1;
        }
        if counts[own] == 0 {
            continue; // singleton cluster: silhouette undefined for i
        }
        let a = sums[own] / counts[own] as f64;
        let b = (0..k)
            .filter(|&c| c != own && counts[c] > 0)
            .map(|c| sums[c] / counts[c] as f64)
            .fold(f64::INFINITY, f64::min);
        if !b.is_finite() {
            continue;
        }
        total += (b - a) / a.max(b).max(1e-12);
        counted += 1;
    }
    if counted == 0 {
        0.0
    } else {
        total / counted as f64
    }
}

/// The symmetric `n × n` matrix of pairwise Euclidean distances, row-major.
/// Each unordered pair is computed once and mirrored: `(a − b)²` and
/// `(b − a)²` are the same `f64`, so `d(j, i)` read from the mirror has the
/// bits `euclidean(row j, row i)` would produce.
fn pairwise_distances(data: &[Vec<f64>]) -> Vec<f64> {
    let n = data.len();
    let mut matrix = vec![0.0; n * n];
    for i in 0..n {
        for j in (i + 1)..n {
            let d = euclidean(&data[i], &data[j]);
            matrix[i * n + j] = d;
            matrix[j * n + i] = d;
        }
    }
    matrix
}

/// Fits k-means for each `k` in `k_range` and returns the model with the
/// best silhouette score, along with its `k`.
///
/// The silhouette of every candidate reads the same pairwise distances
/// between rows — only the assignments differ from one `k` to the next — so
/// the matrix is computed once here and every `k` is scored from it. The
/// scores, and hence the selected model, are bit-identical to calling
/// [`silhouette_score`] per `k`.
///
/// # Panics
///
/// Panics if the range is empty or exceeds the data size.
pub fn select_k(
    data: &[Vec<f64>],
    k_range: std::ops::RangeInclusive<usize>,
    seed: u64,
) -> (usize, KMeansModel) {
    let n = data.len();
    let distances = pairwise_distances(data);
    let mut best: Option<(f64, usize, KMeansModel)> = None;
    for k in k_range {
        let model = fit(data, KMeansConfig::new(k, seed ^ k as u64));
        let score = silhouette_over(&model.assignments, k, |i, j| distances[i * n + j]);
        let better = match &best {
            None => true,
            Some((best_score, _, _)) => score > *best_score,
        };
        if better {
            best = Some((score, k, model));
        }
    }
    let (_, k, model) = best.expect("k_range must be non-empty");
    (k, model)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Three well-separated blobs in 2-D.
    fn blobs() -> (Vec<Vec<f64>>, Vec<usize>) {
        let mut rng = DetRng::new(99);
        let centers = [(0.0, 0.0), (10.0, 10.0), (0.0, 10.0)];
        let mut data = Vec::new();
        let mut labels = Vec::new();
        for (label, (cx, cy)) in centers.iter().enumerate() {
            for _ in 0..30 {
                data.push(vec![cx + rng.normal(0.0, 0.5), cy + rng.normal(0.0, 0.5)]);
                labels.push(label);
            }
        }
        (data, labels)
    }

    /// Fraction of pairs on which two labelings agree (Rand index).
    fn rand_index(a: &[usize], b: &[usize]) -> f64 {
        let n = a.len();
        let mut agree = 0usize;
        let mut total = 0usize;
        for i in 0..n {
            for j in (i + 1)..n {
                total += 1;
                if (a[i] == a[j]) == (b[i] == b[j]) {
                    agree += 1;
                }
            }
        }
        agree as f64 / total as f64
    }

    #[test]
    fn recovers_separated_blobs() {
        let (data, truth) = blobs();
        let model = fit(&data, KMeansConfig::new(3, 7));
        assert!(rand_index(&model.assignments, &truth) > 0.99);
        assert_eq!(model.cluster_sizes().iter().sum::<usize>(), 90);
    }

    #[test]
    fn deterministic_for_same_seed() {
        let (data, _) = blobs();
        let a = fit(&data, KMeansConfig::new(3, 5));
        let b = fit(&data, KMeansConfig::new(3, 5));
        assert_eq!(a.assignments, b.assignments);
        assert_eq!(a.centroids, b.centroids);
    }

    #[test]
    fn k_equals_one_gives_global_mean() {
        let data = vec![vec![0.0], vec![2.0], vec![4.0]];
        let model = fit(&data, KMeansConfig::new(1, 1));
        assert!((model.centroids[0][0] - 2.0).abs() < 1e-9);
        assert_eq!(model.assignments, vec![0, 0, 0]);
    }

    #[test]
    fn k_equals_n_gives_zero_inertia() {
        let data = vec![vec![0.0], vec![5.0], vec![9.0]];
        let model = fit(&data, KMeansConfig::new(3, 1));
        assert!(model.inertia < 1e-18);
    }

    #[test]
    #[should_panic(expected = "k must be in")]
    fn oversized_k_panics() {
        fit(&[vec![1.0]], KMeansConfig::new(2, 1));
    }

    #[test]
    fn predict_maps_to_nearest() {
        let (data, _) = blobs();
        let model = fit(&data, KMeansConfig::new(3, 7));
        let near_origin = model.predict(&[0.5, -0.5]);
        // All origin-blob points share that cluster.
        assert_eq!(model.assignments[0], near_origin);
    }

    #[test]
    fn silhouette_prefers_true_k() {
        let (data, _) = blobs();
        let m2 = fit(&data, KMeansConfig::new(2, 7));
        let m3 = fit(&data, KMeansConfig::new(3, 7));
        let s2 = silhouette_score(&data, &m2.assignments, 2);
        let s3 = silhouette_score(&data, &m3.assignments, 3);
        assert!(s3 > s2, "s3={s3} should beat s2={s2}");
    }

    #[test]
    fn select_k_finds_three() {
        let (data, _) = blobs();
        let (k, model) = select_k(&data, 2..=6, 11);
        assert_eq!(k, 3);
        assert_eq!(model.centroids.len(), 3);
    }

    #[test]
    fn silhouette_degenerate_cases() {
        let data = vec![vec![1.0], vec![2.0]];
        assert_eq!(silhouette_score(&data, &[0, 0], 1), 0.0);
        assert_eq!(silhouette_score(&data, &[0, 1], 2), 0.0); // n < 3
    }

    #[test]
    fn matrix_silhouette_is_bit_identical_to_recomputed_distances() {
        // 96-dimensional rows like the daily load curves `select_k` sees;
        // every (n, k) the LUPA trainer can ask for in its first weeks.
        let mut rng = DetRng::new(0x5349_4C48);
        for n in 3..=20usize {
            let data: Vec<Vec<f64>> = (0..n)
                .map(|_| (0..96).map(|_| rng.uniform_f64()).collect())
                .collect();
            let distances = pairwise_distances(&data);
            for k in 2..=6usize.min(n) {
                let model = fit(&data, KMeansConfig::new(k, 17 ^ k as u64));
                let direct = silhouette_score(&data, &model.assignments, k);
                let matrix = silhouette_over(&model.assignments, k, |i, j| distances[i * n + j]);
                assert_eq!(matrix.to_bits(), direct.to_bits(), "n={n} k={k}");
            }
        }
    }

    #[test]
    fn empty_cluster_repair_keeps_k_clusters() {
        // Identical points force would-be-empty clusters; repair must keep
        // all centroids populated.
        let data = vec![vec![1.0, 1.0]; 5];
        let model = fit(&data, KMeansConfig::new(3, 2));
        assert_eq!(model.centroids.len(), 3);
        assert_eq!(model.assignments.len(), 5);
    }
}
