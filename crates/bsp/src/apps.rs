//! Built-in BSP applications.
//!
//! Three representative parallel workloads used by the examples, tests and
//! benchmarks — the "broad range of parallel applications" the paper claims
//! InteGrade supports, at three communication intensities:
//!
//! * [`PrefixSum`] — logarithmic-round scan; light, structured traffic.
//! * [`PageRank`] — iterative sparse mat-vec on a partitioned graph;
//!   all-to-all traffic every superstep.
//! * [`Stencil1d`] — Jacobi relaxation with halo exchange; neighbour-only
//!   traffic (the cluster-friendly case for topology-aware scheduling).

use crate::program::{BspContext, BspProgram, StepOutcome};
use integrade_orb::impl_cdr;

/// Parallel prefix sum (Hillis–Steele): after ⌈log₂ n⌉ + 1 supersteps, each
/// process holds the inclusive prefix sum of the initial values.
#[derive(Debug, Clone, PartialEq)]
pub struct PrefixSum {
    /// Current partial value; after completion, the inclusive prefix sum.
    pub value: i64,
}

impl_cdr!(struct PrefixSum { value });

impl BspProgram for PrefixSum {
    type Message = i64;

    fn superstep(&mut self, ctx: &mut BspContext<i64>) -> StepOutcome {
        // Hillis–Steele: at round r, receive from pid - 2^r.
        let round = ctx.superstep();
        for &(_, v) in ctx.incoming() {
            self.value += v;
        }
        let offset = 1usize << round;
        if offset >= ctx.num_procs() {
            return StepOutcome::Halt;
        }
        let target = ctx.pid() + offset;
        if target < ctx.num_procs() {
            ctx.send(target, self.value);
        }
        StepOutcome::Continue
    }
}

/// One process of a partitioned PageRank iteration.
///
/// Each process owns a contiguous block of vertices; every superstep it
/// scatters rank/out-degree along edges and gathers into the damped update.
/// Runs a fixed number of iterations.
#[derive(Debug, Clone, PartialEq)]
pub struct PageRank {
    /// Global vertex count.
    pub total_vertices: u64,
    /// Vertex ids owned by this process (global ids).
    pub owned: Vec<u64>,
    /// Out-edges of each owned vertex (global target ids, aligned with `owned`).
    pub edges: Vec<Vec<u64>>,
    /// Current rank per owned vertex.
    pub ranks: Vec<f64>,
    /// Iterations remaining.
    pub remaining: u64,
    /// Damping factor (typically 0.85).
    pub damping: f64,
}

impl PageRank {
    /// Partitions a graph (edge list over `n` vertices) across `p` processes
    /// by contiguous blocks, seeding uniform ranks and `iterations` rounds.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0` or `p == 0`.
    pub fn partition(
        n: u64,
        edges: &[(u64, u64)],
        p: usize,
        iterations: u64,
        damping: f64,
    ) -> Vec<PageRank> {
        assert!(n > 0 && p > 0, "graph and process counts must be positive");
        let mut parts: Vec<PageRank> = (0..p)
            .map(|_| PageRank {
                total_vertices: n,
                owned: Vec::new(),
                edges: Vec::new(),
                ranks: Vec::new(),
                remaining: iterations,
                damping,
            })
            .collect();
        let owner = |v: u64| ((v as usize * p) / n as usize).min(p - 1);
        for v in 0..n {
            let part = &mut parts[owner(v)];
            part.owned.push(v);
            part.edges.push(Vec::new());
            part.ranks.push(1.0 / n as f64);
        }
        for &(src, dst) in edges {
            assert!(src < n && dst < n, "edge endpoint out of range");
            let part = &mut parts[owner(src)];
            let local = part.owned.binary_search(&src).expect("owner holds src");
            part.edges[local].push(dst);
        }
        parts
    }
}

impl_cdr!(struct PageRank { total_vertices, owned, edges, ranks, remaining, damping });

impl BspProgram for PageRank {
    /// (target vertex, contribution)
    type Message = (u64, f64);

    fn superstep(&mut self, ctx: &mut BspContext<(u64, f64)>) -> StepOutcome {
        let n = self.total_vertices as f64;
        let p = ctx.num_procs();
        let owner = |v: u64| ((v as usize * p) / self.total_vertices as usize).min(p - 1);
        // Gather contributions sent last superstep.
        if ctx.superstep() > 0 {
            let mut incoming_sum = vec![0.0; self.owned.len()];
            for &(_, (target, contribution)) in ctx.incoming() {
                let local = self
                    .owned
                    .binary_search(&target)
                    .expect("delivered to owner");
                incoming_sum[local] += contribution;
            }
            for (rank, inc) in self.ranks.iter_mut().zip(&incoming_sum) {
                *rank = (1.0 - self.damping) / n + self.damping * inc;
            }
            self.remaining -= 1;
            if self.remaining == 0 {
                return StepOutcome::Halt;
            }
        }
        // Scatter for the next round.
        for (local, targets) in self.edges.iter().enumerate() {
            if targets.is_empty() {
                continue;
            }
            let share = self.ranks[local] / targets.len() as f64;
            for &t in targets {
                ctx.send(owner(t), (t, share));
            }
        }
        StepOutcome::Continue
    }
}

/// 1-D Jacobi relaxation with halo exchange.
///
/// Each process owns a slab of the rod; every superstep it exchanges
/// boundary cells with its neighbours and averages. Fixed iteration count.
#[derive(Debug, Clone, PartialEq)]
pub struct Stencil1d {
    /// Owned cell values.
    pub cells: Vec<f64>,
    /// Left boundary condition (ghost value for process 0).
    pub left_boundary: f64,
    /// Right boundary condition (ghost value for the last process).
    pub right_boundary: f64,
    /// Iterations remaining.
    pub remaining: u64,
    /// Received halos (left, right) pending application.
    halo: (f64, f64),
}

impl Stencil1d {
    /// Splits `initial` cells across `p` processes with the given boundary
    /// conditions and iteration count.
    ///
    /// # Panics
    ///
    /// Panics if there are fewer cells than processes or `p == 0`.
    pub fn partition(
        initial: &[f64],
        p: usize,
        iterations: u64,
        left: f64,
        right: f64,
    ) -> Vec<Stencil1d> {
        assert!(
            p > 0 && initial.len() >= p,
            "need at least one cell per process"
        );
        let n = initial.len();
        (0..p)
            .map(|i| {
                let lo = i * n / p;
                let hi = (i + 1) * n / p;
                Stencil1d {
                    cells: initial[lo..hi].to_vec(),
                    left_boundary: left,
                    right_boundary: right,
                    remaining: iterations,
                    halo: (left, right),
                }
            })
            .collect()
    }
}

impl_cdr!(struct Stencil1d { cells, left_boundary, right_boundary, remaining, halo });

impl BspProgram for Stencil1d {
    /// (is_left_halo, value): halo cell from a neighbour.
    type Message = (bool, f64);

    fn superstep(&mut self, ctx: &mut BspContext<(bool, f64)>) -> StepOutcome {
        let pid = ctx.pid();
        let last = ctx.num_procs() - 1;
        // Apply halos received from the previous exchange.
        for &(from, (is_left, value)) in ctx.incoming() {
            debug_assert!(from == pid.wrapping_sub(1) || from == pid + 1);
            if is_left {
                self.halo.0 = value;
            } else {
                self.halo.1 = value;
            }
        }
        if ctx.superstep() > 0 {
            // Jacobi update using halos.
            let old = self.cells.clone();
            let len = old.len();
            for i in 0..len {
                let left = if i == 0 { self.halo.0 } else { old[i - 1] };
                let right = if i == len - 1 {
                    self.halo.1
                } else {
                    old[i + 1]
                };
                self.cells[i] = 0.5 * (left + right);
            }
            self.remaining -= 1;
            if self.remaining == 0 {
                return StepOutcome::Halt;
            }
        }
        // Exchange halos for the next update.
        if pid > 0 {
            ctx.send(pid - 1, (false, self.cells[0]));
        }
        if pid < last {
            ctx.send(pid + 1, (true, *self.cells.last().expect("nonempty slab")));
        }
        StepOutcome::Continue
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::checkpoint::{checkpoint, restore};
    use crate::runtime::{BspRuntime, RunResult};

    #[test]
    fn prefix_sum_matches_sequential() {
        let values: Vec<i64> = vec![3, 1, 4, 1, 5, 9, 2, 6, 5, 3];
        let mut rt = BspRuntime::new(
            values
                .iter()
                .map(|&value| PrefixSum { value })
                .collect::<Vec<_>>(),
        );
        assert!(matches!(rt.run(64), RunResult::Completed { .. }));
        let mut expected = 0;
        for (proc, &v) in rt.procs().iter().zip(&values) {
            expected += v;
            assert_eq!(proc.value, expected);
        }
    }

    #[test]
    fn prefix_sum_superstep_count_is_logarithmic() {
        let mut rt = BspRuntime::new((0..16).map(|value| PrefixSum { value }).collect::<Vec<_>>());
        let RunResult::Completed { supersteps } = rt.run(64) else {
            panic!()
        };
        assert_eq!(supersteps, 5); // ceil(log2(16)) + 1
    }

    fn sequential_pagerank(n: u64, edges: &[(u64, u64)], iters: u64, damping: f64) -> Vec<f64> {
        let mut out_deg = vec![0usize; n as usize];
        for &(s, _) in edges {
            out_deg[s as usize] += 1;
        }
        let mut ranks = vec![1.0 / n as f64; n as usize];
        for _ in 0..iters {
            let mut incoming = vec![0.0; n as usize];
            for &(s, d) in edges {
                incoming[d as usize] += ranks[s as usize] / out_deg[s as usize] as f64;
            }
            for v in 0..n as usize {
                ranks[v] = (1.0 - damping) / n as f64 + damping * incoming[v];
            }
        }
        ranks
    }

    fn ring_graph(n: u64) -> Vec<(u64, u64)> {
        let mut e = Vec::new();
        for v in 0..n {
            e.push((v, (v + 1) % n));
            e.push((v, (v + 2) % n));
        }
        e
    }

    #[test]
    fn pagerank_matches_sequential() {
        let n = 12;
        let edges = ring_graph(n);
        let expected = sequential_pagerank(n, &edges, 5, 0.85);
        let mut rt = BspRuntime::new(PageRank::partition(n, &edges, 3, 5, 0.85));
        assert!(matches!(rt.run(100), RunResult::Completed { .. }));
        let mut got = vec![0.0; n as usize];
        for proc in rt.procs() {
            for (v, r) in proc.owned.iter().zip(&proc.ranks) {
                got[*v as usize] = *r;
            }
        }
        for (g, e) in got.iter().zip(&expected) {
            assert!((g - e).abs() < 1e-12, "{g} vs {e}");
        }
    }

    #[test]
    fn pagerank_ranks_sum_to_one() {
        let n = 20;
        let edges = ring_graph(n);
        let mut rt = BspRuntime::new(PageRank::partition(n, &edges, 4, 8, 0.85));
        rt.run(100);
        let total: f64 = rt.procs().iter().flat_map(|p| &p.ranks).sum();
        assert!((total - 1.0).abs() < 1e-9, "total={total}");
    }

    fn sequential_stencil(initial: &[f64], iters: u64, left: f64, right: f64) -> Vec<f64> {
        let mut cells = initial.to_vec();
        for _ in 0..iters {
            let old = cells.clone();
            let n = old.len();
            for i in 0..n {
                let l = if i == 0 { left } else { old[i - 1] };
                let r = if i == n - 1 { right } else { old[i + 1] };
                cells[i] = 0.5 * (l + r);
            }
        }
        cells
    }

    #[test]
    fn stencil_matches_sequential() {
        let initial: Vec<f64> = (0..24).map(|i| (i % 7) as f64).collect();
        let expected = sequential_stencil(&initial, 10, 0.0, 1.0);
        let mut rt = BspRuntime::new(Stencil1d::partition(&initial, 4, 10, 0.0, 1.0));
        assert!(matches!(rt.run(100), RunResult::Completed { .. }));
        let got: Vec<f64> = rt.procs().iter().flat_map(|p| p.cells.clone()).collect();
        for (g, e) in got.iter().zip(&expected) {
            assert!((g - e).abs() < 1e-12, "{g} vs {e}");
        }
    }

    #[test]
    fn stencil_converges_to_linear_profile() {
        let initial = vec![0.0; 16];
        let mut rt = BspRuntime::new(Stencil1d::partition(&initial, 4, 2000, 0.0, 1.0));
        rt.run(3000);
        let got: Vec<f64> = rt.procs().iter().flat_map(|p| p.cells.clone()).collect();
        // Steady state of the discrete Laplace equation is linear in i.
        for (i, v) in got.iter().enumerate() {
            let expected = (i + 1) as f64 / 17.0;
            assert!((v - expected).abs() < 1e-6, "cell {i}: {v} vs {expected}");
        }
    }

    #[test]
    fn apps_checkpoint_mid_run_and_resume() {
        // The E7 core path: every app must survive checkpoint/restore with
        // identical results.
        let n = 12;
        let edges = ring_graph(n);

        let mut reference = BspRuntime::new(PageRank::partition(n, &edges, 3, 6, 0.85));
        reference.run(100);

        let mut rt = BspRuntime::new(PageRank::partition(n, &edges, 3, 6, 0.85));
        for _ in 0..3 {
            rt.step();
        }
        let ckpt = checkpoint(&rt);
        let mut resumed: BspRuntime<PageRank> = restore(&ckpt).unwrap();
        resumed.run(100);
        assert_eq!(resumed.procs(), reference.procs());
    }

    #[test]
    fn pagerank_partition_covers_all_vertices() {
        let parts = PageRank::partition(10, &ring_graph(10), 3, 1, 0.85);
        let owned: usize = parts.iter().map(|p| p.owned.len()).sum();
        assert_eq!(owned, 10);
        for part in &parts {
            assert_eq!(part.owned.len(), part.ranks.len());
            assert_eq!(part.owned.len(), part.edges.len());
        }
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn pagerank_bad_edge_panics() {
        PageRank::partition(4, &[(0, 99)], 2, 1, 0.85);
    }

    #[test]
    #[should_panic(expected = "one cell per process")]
    fn stencil_too_many_procs_panics() {
        Stencil1d::partition(&[1.0, 2.0], 3, 1, 0.0, 0.0);
    }

    #[test]
    fn single_process_apps_work() {
        let mut rt = BspRuntime::new(vec![PrefixSum { value: 7 }]);
        rt.run(10);
        assert_eq!(rt.procs()[0].value, 7);

        let initial = vec![1.0, 2.0, 3.0];
        let expected = sequential_stencil(&initial, 3, 0.0, 0.0);
        let mut rt = BspRuntime::new(Stencil1d::partition(&initial, 1, 3, 0.0, 0.0));
        rt.run(10);
        assert_eq!(rt.procs()[0].cells, expected);
    }
}
