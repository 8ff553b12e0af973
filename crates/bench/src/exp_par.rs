//! E16/E19: sharded parallel tick engine — nodes × workers throughput.
//!
//! E14 scaled the hot loop to 50k nodes on one shard; these experiments
//! measure what more `TickMode::Sharded` workers buy on top by spreading
//! the per-slot node walk, the lazy catch-up replay and the GUPA digestion
//! across worker threads. Every cell is the same deterministic scenario
//! (the parity oracle in `tests/tick_parity.rs` proves the widths
//! observably identical), so the sweeps isolate pure engine throughput:
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
//! **E16** is the frame-overhead sweep: a quiet two-virtual-hour scenario
//! with noise off, where a fraction of the population carries a real
//! weekly owner trace and the rest rides the bulk-idle fast path. It
//! bounds what a sharded frame may *cost*.
//!
//! **E19** supersedes E16's measurement role and puts load-bearing work on
//! the shards: `lupa_noise` is armed (two jitter draws per node per slot,
//! so *every* node leaves the bulk fast path), traced nodes are spread
//! evenly across the id space, each arrives with six warmup days of GUPA
//! history, and the 26-virtual-hour horizon crosses one midnight — so
//! inside the timed region every traced node uploads its seventh day and
//! retrains its pattern model on a shard worker. This is the sweep whose
//! artifact (`BENCH_par.json`) and speedup floor CI enforces.
//!
//! The JSON artifact includes the host's core count — speedups are only
//! meaningful relative to `host_cores`, and a single-core CI runner
//! legitimately shows none. The committed `BENCH_par_floor.json` records
//! both a conservative 50k-node / 4-worker throughput floor calibrated on
//! such a single-core host (the overhead gate) and the parallel speedup
//! floor enforced on hosts with at least four cores; CI's `e16smoke`
//! fails if either regresses.

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

/// Virtual horizon of every cell, seconds.
pub const HORIZON_S: u64 = 7_200;

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

/// E19 virtual horizon: 26 hours, crossing one midnight so every traced
/// node completes a day period, uploads it, and — having arrived with
/// [`E19_WARMUP_DAYS`] of history — retrains its pattern model inside the
/// timed region, on a shard worker.
pub const E19_HORIZON_S: u64 = 26 * 3600;

/// E19 measurement-jitter amplitude: every node draws twice per slot from
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

/// The sweep grid: every `TRACED_DIVISOR`-th node traced (replay work for
/// the shards), the rest idle on the bulk catch-up fast path; update
/// traffic quieted so dispatch does not dominate.
fn par_grid(nodes: usize, workers: usize) -> Grid {
    let config = GridConfig::builder()
        .seed(SEED)
        .gupa_warmup_days(0)
        .delta_suppression(true)
        .update_period(SimDuration::from_secs(HORIZON_S * 4))
        .crash_silence(SimDuration::from_secs(HORIZON_S * 4))
        .workers(workers)
        .build();
    let traced = nodes / TRACED_DIVISOR;
    let trace = office_trace();
    let mut builder = GridBuilder::new(config);
    builder.add_cluster(
        (0..nodes)
            .map(|i| {
                if i < traced {
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

/// The E19 grid: like [`par_grid`] but with the measurement jitter armed,
/// warmup history one day short of the training threshold, and the traced
/// nodes spread evenly across the id space (every `TRACED_DIVISOR`-th node)
/// — the distribution that makes occupancy balancing matter, since a
/// contiguous traced block would hand one shard all the replay and retrain
/// work.
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

/// The shared timed region: five small sequential jobs, `horizon_s`
/// virtual seconds, and the full-population report flush.
fn timed_cell(mut grid: Grid, nodes: usize, workers: usize, horizon_s: u64) -> ParCell {
    for i in 0..5 {
        grid.submit(JobSpec::sequential(&format!("par-{i}"), 60_000));
    }
    let started = Instant::now();
    let (_, events) = grid.run_until_counting(SimTime::from_secs(horizon_s));
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
        sim_per_wall: horizon_s as f64 / wall,
        wall_s: wall,
        events,
        completed,
    }
}

/// Runs one E16 cell: quiet scenario, two virtual hours, noise off.
pub fn run_cell(nodes: usize, workers: usize) -> ParCell {
    timed_cell(par_grid(nodes, workers), nodes, workers, HORIZON_S)
}

/// Runs one E19 cell: noise on, warmup history, one midnight rollover.
pub fn run_e19_cell(nodes: usize, workers: usize) -> ParCell {
    timed_cell(e19_grid(nodes, workers), nodes, workers, E19_HORIZON_S)
}

/// Best (highest sim/wall) of [`REPEATS`] timed runs of `cell`.
fn best_of(cell: impl Fn() -> ParCell) -> ParCell {
    (0..REPEATS.max(1))
        .map(|_| cell())
        .max_by(|a, b| a.sim_per_wall.total_cmp(&b.sim_per_wall))
        .expect("REPEATS >= 1")
}

/// One full sweep of `cell(nodes, workers)`, the one-worker baseline first
/// within each population.
fn sweep(cell: impl Fn(usize, usize) -> ParCell) -> Vec<ParCell> {
    let mut cells = Vec::new();
    for &nodes in &SWEEP_NODES {
        let _warmup = cell(nodes, 1);
        for &workers in &WORKER_SWEEP {
            cells.push(best_of(|| cell(nodes, workers)));
        }
    }
    cells
}

/// The full E16 sweep: per population a discarded warmup cell, then every
/// width of [`WORKER_SWEEP`], best of [`REPEATS`] each.
pub fn measure() -> Vec<ParCell> {
    sweep(run_cell)
}

/// The full E19 sweep, same discipline as [`measure`] over the E19 cells.
pub fn measure_e19() -> Vec<ParCell> {
    sweep(run_e19_cell)
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

/// Renders a sweep as `BENCH_par.json` content, one object per cell,
/// stamped with the experiment id and the host core count.
pub fn to_json(experiment: &str, cells: &[ParCell]) -> String {
    let mut out = format!(
        "{{\n  \"experiment\": \"{experiment}\",\n  \"host_cores\": {},\n  \"results\": [\n",
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

/// Renders a sweep as a table, one row per cell, each wider cell's speedup
/// taken against its population's one-worker row.
fn sweep_table(title: String, cells: &[ParCell]) -> Table {
    let mut table = Table::new(
        title,
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
    for c in cells {
        let speedup = match c.workers {
            1 => "1.00 (baseline)".to_owned(),
            w => speedup_at(cells, c.nodes, w).map(f2).unwrap_or_default(),
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

/// E16: the quiet frame-overhead sweep (noise off). The committed
/// `BENCH_par.json` artifact now comes from [`e19`], which measures the
/// engine with load-bearing per-node work; E16 remains as the overhead
/// comparison table.
pub fn e16() -> Table {
    sweep_table(
        format!(
            "E16: sharded parallel tick engine, nodes x workers \
             (host_cores = {})",
            host_cores()
        ),
        &measure(),
    )
}

/// E19: the load-bearing nodes × workers sweep — jitter draws on every
/// node, GUPA retrains inside the timed region. Side effect: writes
/// `BENCH_par.json`.
pub fn e19() -> Table {
    let cells = measure_e19();
    match std::fs::write("BENCH_par.json", to_json("e19", &cells)) {
        Ok(()) => eprintln!("e19: wrote BENCH_par.json"),
        Err(e) => eprintln!("e19: could not write BENCH_par.json: {e}"),
    }
    sweep_table(
        format!(
            "E19: sharded engine under load-bearing per-node work, \
             nodes x workers (noise {E19_NOISE}, host_cores = {})",
            host_cores()
        ),
        &cells,
    )
}

/// A named numeric field from `BENCH_par_floor.json`.
fn committed_field(key_name: &str) -> Option<f64> {
    let text = std::fs::read_to_string("BENCH_par_floor.json").ok()?;
    let key = format!("\"{key_name}\":");
    let at = text.find(&key)? + key.len();
    text[at..]
        .trim_start()
        .split(|c: char| !(c.is_ascii_digit() || c == '.'))
        .next()?
        .parse()
        .ok()
}

/// The committed throughput floor for the 50k-node, 4-worker cell (sim
/// seconds per wall second), read from `BENCH_par_floor.json`.
pub(crate) fn committed_floor() -> Option<f64> {
    committed_field("sim_per_wall_floor_50k_w4")
}

/// The committed parallel-speedup floor for the 50k-node, 4-worker E19
/// cell over the one-worker baseline, enforced only on hosts with at
/// least four cores.
pub(crate) fn committed_speedup_floor() -> Option<f64> {
    committed_field("speedup_floor_50k_w4")
}

/// E16/E19 smoke — the CI gate, core-count-aware.
///
/// Always: the quiet (noise-off) 50k-node, 4-worker E16 cell against the
/// committed sim/wall floor in `BENCH_par_floor.json`. That floor is
/// calibrated on a single-core runner, so it guards the engine's
/// *overhead* — a sharded frame must never cost materially more than the
/// walk it replaces — not a parallel speedup the host cannot physically
/// deliver.
///
/// On hosts with at least four cores it additionally runs the E19 50k-node
/// cell (load-bearing per-node work: jitter draws everywhere, retrains in
/// the timed region) at one worker and at four and asserts the wider
/// engine actually delivers the committed parallel speedup.
///
/// # Panics
///
/// Panics when the measured sim/wall ratio falls below the committed
/// overhead floor, or — on a multicore host — when the E19 speedup falls
/// below the committed speedup floor.
pub fn e16smoke() -> Table {
    let _warmup = run_cell(50_000, 4);
    let cell = best_of(|| run_cell(50_000, 4));
    let floor = committed_floor().unwrap_or(0.0);
    let mut table = Table::new(
        format!(
            "E16/E19 smoke: 50k-node 4-worker gates (host_cores = {})",
            host_cores()
        ),
        &["gate", "mode", "sim_s_per_wall_s", "floor", "completed"],
    );
    table.push_row(vec![
        "e16 overhead".to_owned(),
        mode_label(&cell),
        f2(cell.sim_per_wall),
        f2(floor),
        format!("{}/5", cell.completed),
    ]);
    assert!(
        cell.completed > 0,
        "e16smoke: no job completed — the scenario exercised nothing"
    );
    assert!(
        cell.sim_per_wall >= floor,
        "e16smoke: throughput regression — {:.1} sim s/wall s is below the \
         committed floor of {floor:.1} (BENCH_par_floor.json)",
        cell.sim_per_wall
    );
    if host_cores() >= 4 {
        let base = best_of(|| run_e19_cell(50_000, 1));
        let sharded = best_of(|| run_e19_cell(50_000, 4));
        let speedup = sharded.sim_per_wall / base.sim_per_wall.max(1e-9);
        let speedup_floor = committed_speedup_floor().unwrap_or(0.0);
        table.push_row(vec![
            "e19 speedup".to_owned(),
            mode_label(&base),
            f2(base.sim_per_wall),
            "(baseline)".to_owned(),
            format!("{}/5", base.completed),
        ]);
        table.push_row(vec![
            "e19 speedup".to_owned(),
            mode_label(&sharded),
            f2(sharded.sim_per_wall),
            format!("{}x (got {speedup:.2}x)", f2(speedup_floor)),
            format!("{}/5", sharded.completed),
        ]);
        assert!(
            base.completed > 0 && sharded.completed > 0,
            "e16smoke: E19 cells completed nothing — the scenario is vacuous"
        );
        assert!(
            speedup >= speedup_floor,
            "e16smoke: parallel speedup regression — sharded/4 at {speedup:.2}x \
             the one-worker baseline is below the committed floor of \
             {speedup_floor:.2}x (BENCH_par_floor.json) on a {}-core host",
            host_cores()
        );
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A fast shape check (small population, debug build): a threaded
    /// cell completes its workload, and — determinism — dispatches exactly
    /// the event stream of the one-worker baseline.
    #[test]
    fn wider_cells_match_the_one_worker_event_stream() {
        let baseline = run_cell(300, 1);
        assert_eq!(baseline.completed, 5, "{baseline:?}");
        for workers in [2, 4] {
            let sharded = run_cell(300, workers);
            assert_eq!(sharded.completed, 5, "{sharded:?}");
            assert_eq!(
                sharded.events, baseline.events,
                "event stream must be width-invariant: {sharded:?} vs {baseline:?}"
            );
        }
    }

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
        let cells = vec![run_cell(200, 1), run_cell(200, 2)];
        let json = to_json("e19", &cells);
        assert!(json.contains("\"experiment\": \"e19\""));
        assert!(json.contains("\"host_cores\":"));
        assert!(json.contains("\"mode\": \"sharded/1 (inline)\", \"workers\": 1"));
        assert!(json.contains("\"mode\": \"sharded/2\", \"workers\": 2"));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
    }

    #[test]
    fn floor_parser_shape() {
        let sample = "{\n  \"sim_per_wall_floor_50k_w4\": 987.5\n}\n";
        let key = "\"sim_per_wall_floor_50k_w4\":";
        let at = sample.find(key).unwrap() + key.len();
        let parsed: f64 = sample[at..]
            .trim_start()
            .split(|c: char| !(c.is_ascii_digit() || c == '.'))
            .next()
            .unwrap()
            .parse()
            .unwrap();
        assert!((parsed - 987.5).abs() < 1e-9);
    }

    #[test]
    fn committed_floor_file_has_both_gates() {
        // The repo-root floor file must carry both the single-core
        // overhead floor and the multicore speedup floor; tests run with
        // the crate as cwd, so read it relative to the manifest.
        let text = std::fs::read_to_string(
            std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_par_floor.json"),
        )
        .expect("BENCH_par_floor.json at repo root");
        assert!(text.contains("\"sim_per_wall_floor_50k_w4\":"));
        assert!(text.contains("\"speedup_floor_50k_w4\":"));
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
