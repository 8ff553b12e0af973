//! E14: simulator hot-loop scaling — active-set ticking, timer-wheel
//! events and allocation-free messaging at desktop-grid population sizes.
//!
//! The paper's premise is a grid "leveraging the idle computing power" of
//! *large numbers* of desktop machines; simulating such populations is only
//! useful if the simulator itself scales. This experiment sweeps cluster
//! sizes from 1k to 50k mostly idle nodes (a small sequential workload keeps
//! grid utilization under 5%, the realistic regime for an opportunistic
//! grid) and measures wall-clock throughput of the event loop:
//!
//! * **sim/wall ratio** — virtual seconds simulated per wall second;
//! * **events/s** — queue events dispatched per wall second;
//! * **peak heap depth** — the high-water mark of pending entries across
//!   the due buffer and the far-future binary heap combined (the timer
//!   wheel should keep it shallow relative to the population);
//! * **active-set vs reference** — at 20k nodes the original O(all nodes)
//!   per-tick walk (`TickMode::Reference`) runs too, and the table reports
//!   the speedup the active-set path buys at identical observable behavior
//!   (see `tests/tick_parity.rs` for the bit-for-bit proof).
//!
//! Emits a machine-readable `BENCH_scale.json`. The committed
//! `BENCH_scale_floor.json` records a conservative throughput floor for the
//! 5k-node cell; CI's `e14smoke` run fails if a regression drops below it.

use crate::table::{f2, Table};
use integrade_core::asct::{JobSpec, JobState};
use integrade_core::grid::{Grid, GridBuilder, GridConfig, NodeSetup, TickMode};
use integrade_simnet::time::{SimDuration, SimTime};
use std::time::Instant;

/// The engine under test: the lazy active-set walk on its default single
/// shard, run inline on the driver thread.
pub const ACTIVE_SET: TickMode = TickMode::Sharded { workers: 1 };

/// Node populations swept in active-set mode.
pub const SWEEP_NODES: [usize; 4] = [1_000, 5_000, 20_000, 50_000];

/// Population at which the reference walk runs for the speedup comparison.
pub const REFERENCE_NODES: usize = 20_000;

/// Virtual horizon of every cell, seconds.
pub const HORIZON_S: u64 = 7_200;

/// The pinned seed (the simulation is deterministic per seed).
pub const SEED: u64 = 14;

/// One measured cell.
#[derive(Debug, Clone)]
pub struct ScaleCell {
    /// Node population of this cell.
    pub nodes: usize,
    /// Tick mode the cell ran under.
    pub mode: TickMode,
    /// Virtual seconds simulated per wall-clock second.
    pub sim_per_wall: f64,
    /// Queue events dispatched per wall-clock second.
    pub events_per_s: f64,
    /// Total events dispatched.
    pub events: u64,
    /// High-water mark of pending events (due buffer + far-future heap).
    pub peak_heap_depth: usize,
    /// Jobs that completed (sanity: the workload must actually run).
    pub completed: usize,
}

/// A 50k-node-capable grid: idle traceless nodes, delta suppression on
/// (idle status updates are suppressed after the first), and a crash-
/// detection window beyond the horizon so suppression is not mistaken for
/// death. Utilization stays under 5% by construction: five small
/// sequential jobs against thousands of providers.
fn scale_grid(nodes: usize, mode: TickMode) -> Grid {
    let config = GridConfig::builder()
        .seed(SEED)
        .gupa_warmup_days(0)
        .delta_suppression(true)
        .crash_silence(SimDuration::from_secs(HORIZON_S * 2))
        .tick_mode(mode)
        .build();
    let mut builder = GridBuilder::new(config);
    builder.add_cluster((0..nodes).map(|_| NodeSetup::idle_desktop()).collect());
    let mut grid = builder.build();
    grid.disable_trace();
    grid
}

/// Runs one cell: five small sequential jobs, two virtual hours.
pub fn run_cell(nodes: usize, mode: TickMode) -> ScaleCell {
    let mut grid = scale_grid(nodes, mode);
    for i in 0..5 {
        grid.submit(JobSpec::sequential(&format!("e14-{i}"), 60_000));
    }
    let started = Instant::now();
    let (_, events) = grid.run_until_counting(SimTime::from_secs(HORIZON_S));
    let wall = started.elapsed().as_secs_f64().max(1e-9);
    let stats = grid.queue_stats();
    let completed = grid
        .report()
        .records
        .iter()
        .filter(|r| r.state == JobState::Completed)
        .count();
    ScaleCell {
        nodes,
        mode,
        sim_per_wall: HORIZON_S as f64 / wall,
        events_per_s: events as f64 / wall,
        events,
        peak_heap_depth: stats.peak_heap_depth,
        completed,
    }
}

/// The full sweep: every population in active-set mode, plus the reference
/// walk at [`REFERENCE_NODES`].
pub fn measure() -> Vec<ScaleCell> {
    let mut cells: Vec<ScaleCell> = SWEEP_NODES
        .iter()
        .map(|&n| run_cell(n, ACTIVE_SET))
        .collect();
    cells.push(run_cell(REFERENCE_NODES, TickMode::Reference));
    cells
}

fn mode_name(mode: TickMode) -> &'static str {
    match mode {
        ACTIVE_SET => "active-set",
        TickMode::Reference => "reference",
        TickMode::Sharded { .. } => "sharded",
    }
}

/// Renders the sweep as `BENCH_scale.json`, one object per cell, plus the
/// 20k active-set/reference speedup.
pub fn to_json(cells: &[ScaleCell]) -> String {
    let mut out = String::from("{\n  \"experiment\": \"e14\",\n  \"results\": [\n");
    for (i, c) in cells.iter().enumerate() {
        let sep = if i + 1 == cells.len() { "" } else { "," };
        out.push_str(&format!(
            "    {{\"nodes\": {}, \"mode\": \"{}\", \"sim_per_wall\": {:.1}, \
             \"events_per_s\": {:.0}, \"events\": {}, \"peak_heap_depth\": {}, \
             \"completed\": {}}}{sep}\n",
            c.nodes,
            mode_name(c.mode),
            c.sim_per_wall,
            c.events_per_s,
            c.events,
            c.peak_heap_depth,
            c.completed,
        ));
    }
    out.push_str(&format!(
        "  ],\n  \"speedup_at_20k\": {:.1}\n}}\n",
        speedup_at_reference(cells).unwrap_or(0.0)
    ));
    out
}

/// Active-set over reference sim/wall ratio at [`REFERENCE_NODES`].
pub fn speedup_at_reference(cells: &[ScaleCell]) -> Option<f64> {
    let fast = cells
        .iter()
        .find(|c| c.nodes == REFERENCE_NODES && c.mode == ACTIVE_SET)?;
    let reference = cells
        .iter()
        .find(|c| c.nodes == REFERENCE_NODES && c.mode == TickMode::Reference)?;
    Some(fast.sim_per_wall / reference.sim_per_wall.max(1e-9))
}

/// E14: the scaling sweep. Side effect: writes `BENCH_scale.json`.
pub fn e14() -> Table {
    let cells = measure();
    match std::fs::write("BENCH_scale.json", to_json(&cells)) {
        Ok(()) => eprintln!("e14: wrote BENCH_scale.json"),
        Err(e) => eprintln!("e14: could not write BENCH_scale.json: {e}"),
    }
    let mut table = Table::new(
        "E14: simulator hot-loop scaling (idle desktop populations, <5% grid utilization)",
        &[
            "nodes",
            "mode",
            "sim_s_per_wall_s",
            "events_per_s",
            "events",
            "peak_heap_depth",
            "completed",
        ],
    );
    for c in &cells {
        table.push_row(vec![
            c.nodes.to_string(),
            mode_name(c.mode).to_owned(),
            f2(c.sim_per_wall),
            f2(c.events_per_s),
            c.events.to_string(),
            c.peak_heap_depth.to_string(),
            format!("{}/5", c.completed),
        ]);
    }
    if let Some(speedup) = speedup_at_reference(&cells) {
        table.push_row(vec![
            REFERENCE_NODES.to_string(),
            "speedup".to_owned(),
            f2(speedup),
            String::new(),
            String::new(),
            String::new(),
            String::new(),
        ]);
    }
    table
}

/// The committed throughput floor for the 5k-node cell (sim seconds per
/// wall second), read from `BENCH_scale_floor.json`.
pub(crate) fn committed_floor() -> Option<f64> {
    let text = std::fs::read_to_string("BENCH_scale_floor.json").ok()?;
    let key = "\"sim_per_wall_floor_5k\":";
    let at = text.find(key)? + key.len();
    text[at..]
        .trim_start()
        .split(|c: char| !(c.is_ascii_digit() || c == '.'))
        .next()?
        .parse()
        .ok()
}

/// E14 smoke: the 5k-node active-set cell alone, compared against the
/// committed floor in `BENCH_scale_floor.json`. CI runs this in release
/// mode and fails the build on a throughput regression.
///
/// # Panics
///
/// Panics when the measured sim/wall ratio falls below the committed floor.
pub fn e14smoke() -> Table {
    let cell = run_cell(5_000, ACTIVE_SET);
    let floor = committed_floor().unwrap_or(0.0);
    let mut table = Table::new(
        "E14 smoke: 5k-node active-set throughput vs committed floor",
        &[
            "nodes",
            "sim_s_per_wall_s",
            "floor",
            "events_per_s",
            "completed",
        ],
    );
    table.push_row(vec![
        cell.nodes.to_string(),
        f2(cell.sim_per_wall),
        f2(floor),
        f2(cell.events_per_s),
        format!("{}/5", cell.completed),
    ]);
    assert!(
        cell.completed > 0,
        "e14smoke: no job completed — the scenario exercised nothing"
    );
    assert!(
        cell.sim_per_wall >= floor,
        "e14smoke: throughput regression — {:.1} sim s/wall s is below the \
         committed floor of {floor:.1} (BENCH_scale_floor.json)",
        cell.sim_per_wall
    );
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A fast shape check (small population, debug build): the active-set
    /// cell completes its workload and keeps the far-future heap shallow
    /// relative to the population.
    #[test]
    fn small_cell_completes_and_keeps_heap_shallow() {
        let cell = run_cell(300, ACTIVE_SET);
        assert_eq!(cell.completed, 5, "{cell:?}");
        assert!(
            cell.peak_heap_depth < 300,
            "timer wheel should absorb near-term events: {cell:?}"
        );
        // A zero peak would mean the high-water mark is not being measured
        // at all (the pre-fix bug): any real cell drains events, and every
        // drain leaves pending timers behind.
        assert!(
            cell.peak_heap_depth > 0,
            "peak_heap_depth must report the true occupancy high-water mark: {cell:?}"
        );
        assert!(cell.events > 0);
    }

    /// The active-set path dispatches strictly fewer events than the
    /// reference walk on the same scenario (parked update timers), while
    /// completing the same workload.
    #[test]
    fn active_set_dispatches_fewer_events() {
        let fast = run_cell(400, ACTIVE_SET);
        let reference = run_cell(400, TickMode::Reference);
        assert_eq!(
            fast.completed, reference.completed,
            "{fast:?} {reference:?}"
        );
        assert!(
            fast.events < reference.events / 4,
            "parking must eliminate most idle update ticks: \
             {} active-set vs {} reference",
            fast.events,
            reference.events
        );
    }

    #[test]
    fn json_is_well_formed_enough() {
        let cells = vec![run_cell(200, ACTIVE_SET)];
        let json = to_json(&cells);
        assert!(json.contains("\"experiment\": \"e14\""));
        assert!(json.contains("\"mode\": \"active-set\""));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
    }

    #[test]
    fn floor_parser_reads_committed_file() {
        // The floor file is committed at the repo root; when the test runs
        // from the crate directory, fall back to parsing inline.
        let sample = "{\n  \"sim_per_wall_floor_5k\": 123.5\n}\n";
        let key = "\"sim_per_wall_floor_5k\":";
        let at = sample.find(key).unwrap() + key.len();
        let parsed: f64 = sample[at..]
            .trim_start()
            .split(|c: char| !(c.is_ascii_digit() || c == '.'))
            .next()
            .unwrap()
            .parse()
            .unwrap();
        assert!((parsed - 123.5).abs() < 1e-9);
    }
}
