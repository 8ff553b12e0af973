//! E19: sharded parallel tick engine — nodes × workers throughput.
//!
//! Measures what more `TickMode::Sharded` workers buy by spreading the
//! per-slot node walk, the lazy catch-up replay and the GUPA digestion
//! across worker threads. Every cell is the same deterministic scenario
//! (the parity oracle in `tests/tick_parity.rs` proves the widths
//! observably identical), so the sweep isolates pure engine throughput:
//!
//! * **sim/wall ratio** — virtual seconds simulated per wall second, over
//!   the run *plus* the report flush (the flush replays every node's
//!   deferred sampling — the O(population) term the shards parallelize);
//! * **events** — queue events dispatched (identical across widths for a
//!   given population: determinism makes the event stream width-invariant);
//! * **speedup vs one worker** — per population, each wider cell against
//!   the one-worker run (a single shard walked inline on the driver thread,
//!   no thread ever spawned — the default engine) at identical semantics.
//!
//! The work on the shards is load-bearing: `lupa_noise` is armed (two
//! jitter draws per node per slot, so *every* node leaves the bulk
//! fast path), traced nodes are spread evenly across the id space, each
//! arrives with six warmup days of GUPA history, and the 26-virtual-hour
//! horizon crosses one midnight — so inside the timed region every traced
//! node uploads its seventh day and retrains its pattern model on a shard
//! worker.
//!
//! The `BENCH_par.json` artifact includes the host's core count — speedups
//! are only meaningful relative to `host_cores`, and a one- or two-core
//! host legitimately shows none. Nothing gates these numbers: the only
//! reported comparison is the ratio between two cells of the same sweep,
//! and absolute wall-clock regressions are `perf/`'s job (`BENCHMARK.json`).

use crate::table::{f2, Table};
use integrade_core::asct::{JobSpec, JobState};
use integrade_core::grid::{Grid, GridBuilder, GridConfig, NodeSetup};
use integrade_simnet::time::{SimDuration, SimTime};
use integrade_usage::sample::{UsageSample, Weekday};
use std::time::Instant;

/// Node populations swept.
pub const SWEEP_NODES: [usize; 2] = [5_000, 50_000];

/// Worker widths swept. The first, one worker, is every other row's
/// baseline.
pub const WORKER_SWEEP: [usize; 4] = [1, 2, 4, 8];

/// The pinned seed (the simulation is deterministic per seed).
pub const SEED: u64 = 16;

/// One in this many nodes carries the office-hours owner trace.
pub const TRACED_DIVISOR: usize = 20;

/// Timed repeats per cell; the best is kept. The first cell of a
/// population otherwise absorbs one-off process costs (first-touch page
/// faults, allocator heap growth) that masquerade as mode differences —
/// a discarded warmup cell per population plus best-of-N keeps the sweep
/// comparing engines, not memory-subsystem history.
pub const REPEATS: usize = 2;

/// Virtual horizon of every cell: 26 hours, crossing one midnight so every
/// traced node completes a day period, uploads it, and — having arrived with
/// [`E19_WARMUP_DAYS`] of history — retrains its pattern model inside the
/// timed region, on a shard worker.
pub const E19_HORIZON_S: u64 = 26 * 3600;

/// Measurement-jitter amplitude: every node draws twice per slot from
/// its shard's stream, so no node rides the bulk-idle fast path.
pub const E19_NOISE: f64 = 0.05;

/// Warmup days of GUPA history each traced node starts with: one short of
/// the seven-day training threshold, so the first in-run upload is exactly
/// the one that triggers training.
pub const E19_WARMUP_DAYS: usize = 6;

/// One measured cell.
#[derive(Debug, Clone)]
pub struct ParCell {
    /// Node population of this cell.
    pub nodes: usize,
    /// Worker shards (1 = the inline single-shard baseline).
    pub workers: usize,
    /// Virtual seconds simulated per wall-clock second (run + flush).
    pub sim_per_wall: f64,
    /// Wall-clock seconds of the timed region.
    pub wall_s: f64,
    /// Total events dispatched.
    pub events: u64,
    /// Jobs that completed (sanity: the workload must actually run).
    pub completed: usize,
}

/// Office-hours owner trace: busy weekdays 9–18h, near-idle otherwise.
fn office_trace() -> Vec<UsageSample> {
    let slots_per_day = 288;
    let mut trace = Vec::with_capacity(slots_per_day * 7);
    for day in 0..7u64 {
        let weekday = Weekday::from_day_number(day);
        for slot in 0..slots_per_day {
            let hour = slot as f64 * 24.0 / slots_per_day as f64;
            let busy = !weekday.is_weekend() && (9.0..18.0).contains(&hour);
            trace.push(if busy {
                UsageSample::new(0.8, 0.5, 0.1, 0.05)
            } else {
                UsageSample::new(0.02, 0.05, 0.0, 0.0)
            });
        }
    }
    trace
}

/// The sweep grid: measurement jitter armed, warmup history one day short
/// of the training threshold, update traffic quieted so dispatch does not
/// dominate, and the traced nodes spread evenly across the id space (every
/// `TRACED_DIVISOR`-th node) — the distribution that makes occupancy
/// balancing matter, since a contiguous traced block would hand one shard
/// all the replay and retrain work.
fn e19_grid(nodes: usize, workers: usize) -> Grid {
    let config = GridConfig::builder()
        .seed(SEED)
        .gupa_warmup_days(E19_WARMUP_DAYS)
        .lupa_noise(E19_NOISE)
        .delta_suppression(true)
        .update_period(SimDuration::from_secs(E19_HORIZON_S * 4))
        .crash_silence(SimDuration::from_secs(E19_HORIZON_S * 4))
        .workers(workers)
        .build();
    let trace = office_trace();
    let mut builder = GridBuilder::new(config);
    builder.add_cluster(
        (0..nodes)
            .map(|i| {
                if i % TRACED_DIVISOR == 0 {
                    NodeSetup {
                        trace: trace.clone(),
                        ..NodeSetup::idle_desktop()
                    }
                } else {
                    NodeSetup::idle_desktop()
                }
            })
            .collect(),
    );
    builder.build()
}

/// Runs one cell: five small sequential jobs, [`E19_HORIZON_S`] virtual
/// seconds crossing one midnight rollover, and the full-population report
/// flush.
pub fn run_e19_cell(nodes: usize, workers: usize) -> ParCell {
    let mut grid = e19_grid(nodes, workers);
    for i in 0..5 {
        grid.submit(JobSpec::sequential(&format!("par-{i}"), 60_000));
    }
    let started = Instant::now();
    let (_, events) = grid.run_until_counting(SimTime::from_secs(E19_HORIZON_S));
    let report = grid.report();
    let wall = started.elapsed().as_secs_f64().max(1e-9);
    let completed = report
        .records
        .iter()
        .filter(|r| r.state == JobState::Completed)
        .count();
    ParCell {
        nodes,
        workers,
        sim_per_wall: E19_HORIZON_S as f64 / wall,
        wall_s: wall,
        events,
        completed,
    }
}

/// Best (highest sim/wall) of [`REPEATS`] timed runs of `cell`.
fn best_of(cell: impl Fn() -> ParCell) -> ParCell {
    (0..REPEATS.max(1))
        .map(|_| cell())
        .max_by(|a, b| a.sim_per_wall.total_cmp(&b.sim_per_wall))
        .expect("REPEATS >= 1")
}

/// The full sweep: per population a discarded warmup cell, then every
/// width of [`WORKER_SWEEP`] (the one-worker baseline first), best of
/// [`REPEATS`] each.
pub fn measure_e19() -> Vec<ParCell> {
    let mut cells = Vec::new();
    for &nodes in &SWEEP_NODES {
        let _warmup = run_e19_cell(nodes, 1);
        for &workers in &WORKER_SWEEP {
            cells.push(best_of(|| run_e19_cell(nodes, workers)));
        }
    }
    cells
}

/// Cores available to this process — speedups are bounded by it, and a
/// single-core host legitimately shows none.
pub fn host_cores() -> usize {
    std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
}

/// What ran in a cell: one worker is the single shard walked inline on the
/// driver thread; wider cells run shard 0 inline and the rest on threads.
fn mode_label(cell: &ParCell) -> String {
    match cell.workers {
        1 => "sharded/1 (inline)".to_owned(),
        w => format!("sharded/{w}"),
    }
}

/// Sim/wall ratio of the `workers`-wide cell over the one-worker cell at
/// `nodes`.
pub fn speedup_at(cells: &[ParCell], nodes: usize, workers: usize) -> Option<f64> {
    let at = |w: usize| cells.iter().find(|c| c.nodes == nodes && c.workers == w);
    Some(at(workers)?.sim_per_wall / at(1)?.sim_per_wall.max(1e-9))
}

/// Renders the sweep as `BENCH_par.json` content, one object per cell,
/// stamped with the host core count.
pub fn to_json(cells: &[ParCell]) -> String {
    let mut out = format!(
        "{{\n  \"experiment\": \"e19\",\n  \"host_cores\": {},\n  \"results\": [\n",
        host_cores()
    );
    for (i, c) in cells.iter().enumerate() {
        let sep = if i + 1 == cells.len() { "" } else { "," };
        out.push_str(&format!(
            "    {{\"nodes\": {}, \"mode\": \"{}\", \"workers\": {}, \
             \"sim_per_wall\": {:.1}, \"wall_s\": {:.3}, \"events\": {}, \
             \"completed\": {}}}{sep}\n",
            c.nodes,
            mode_label(c),
            c.workers,
            c.sim_per_wall,
            c.wall_s,
            c.events,
            c.completed,
        ));
    }
    out.push_str(&format!(
        "  ],\n  \"speedup_50k_w4\": {:.2}\n}}\n",
        speedup_at(cells, 50_000, 4).unwrap_or(0.0)
    ));
    out
}

/// E19: the load-bearing nodes × workers sweep — jitter draws on every
/// node, GUPA retrains inside the timed region; one row per cell, each
/// wider cell's speedup taken against its population's one-worker row.
/// Side effect: writes `BENCH_par.json`.
pub fn e19() -> Table {
    let cells = measure_e19();
    match std::fs::write("BENCH_par.json", to_json(&cells)) {
        Ok(()) => eprintln!("e19: wrote BENCH_par.json"),
        Err(e) => eprintln!("e19: could not write BENCH_par.json: {e}"),
    }
    let mut table = Table::new(
        format!(
            "E19: sharded engine under load-bearing per-node work, \
             nodes x workers (noise {E19_NOISE}, host_cores = {})",
            host_cores()
        ),
        &[
            "nodes",
            "mode",
            "sim_s_per_wall_s",
            "wall_s",
            "events",
            "completed",
            "speedup_vs_one_worker",
        ],
    );
    for c in &cells {
        let speedup = match c.workers {
            1 => "1.00 (baseline)".to_owned(),
            w => speedup_at(&cells, c.nodes, w).map(f2).unwrap_or_default(),
        };
        table.push_row(vec![
            c.nodes.to_string(),
            mode_label(c),
            f2(c.sim_per_wall),
            format!("{:.3}", c.wall_s),
            c.events.to_string(),
            format!("{}/5", c.completed),
            speedup,
        ]);
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The E19 cell at a small population: the workload completes, and the
    /// event stream stays width-invariant even with the jitter streams
    /// drawing and retrains landing inside the run.
    #[test]
    fn e19_cell_is_width_invariant_and_completes() {
        let baseline = run_e19_cell(200, 1);
        assert_eq!(baseline.completed, 5, "{baseline:?}");
        for workers in [2, 4] {
            let sharded = run_e19_cell(200, workers);
            assert_eq!(sharded.completed, 5, "{sharded:?}");
            assert_eq!(
                sharded.events, baseline.events,
                "event stream must be width-invariant: {sharded:?} vs {baseline:?}"
            );
        }
    }

    #[test]
    fn json_is_well_formed_enough() {
        let cells = vec![run_e19_cell(200, 1), run_e19_cell(200, 2)];
        let json = to_json(&cells);
        assert!(json.contains("\"experiment\": \"e19\""));
        assert!(json.contains("\"host_cores\":"));
        assert!(json.contains("\"mode\": \"sharded/1 (inline)\", \"workers\": 1"));
        assert!(json.contains("\"mode\": \"sharded/2\", \"workers\": 2"));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
    }

    #[test]
    fn speedup_lookup_uses_matching_population() {
        let cells = vec![
            ParCell {
                nodes: 50_000,
                workers: 1,
                sim_per_wall: 100.0,
                wall_s: 72.0,
                events: 10,
                completed: 5,
            },
            ParCell {
                nodes: 50_000,
                workers: 4,
                sim_per_wall: 300.0,
                wall_s: 24.0,
                events: 10,
                completed: 5,
            },
        ];
        let speedup = speedup_at(&cells, 50_000, 4).unwrap();
        assert!((speedup - 3.0).abs() < 1e-9, "{speedup}");
        assert!(speedup_at(&cells, 5_000, 4).is_none());
    }
}
