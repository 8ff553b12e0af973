//! E15: observability overhead — the metrics registry, trace spans and
//! mirror sync must be free enough that nobody ever turns them off.
//!
//! The observability layer (`integrade-obs`) is wired through the grid hot
//! path: counters bump on retransmits and drops, histograms observe
//! negotiation and checkpoint round-trips, spans open and close around
//! every traced RPC. All of it is designed to be cheap — pre-resolved
//! handles (no name hashing after registration), `Cell` bumps, no
//! allocation on the update path — and *passive*: disabling it changes no
//! event, no message, no log line.
//!
//! This experiment prices that design at 5k nodes: eight independent
//! replicas of a quiet 5k-node cell run with metrics+spans enabled and
//! disabled (the replicas' run times sum into one few-hundred-ms timed
//! region per measurement; a discarded warmup, replica-by-replica off/on
//! interleaving and the median over four such pairs make the comparison
//! robust to host noise), and the guard asserts two relative properties:
//!
//! * the two configurations dispatch exactly the same events —
//!   instrumentation is passive — and
//! * the enabled/disabled sim-per-wall delta stays under the 10%
//!   regression budget (the measured cost is ~1–2%; the budget leaves
//!   headroom for the median's residual noise).
//!
//! Emits `BENCH_obs.json` plus `BENCH_obs.prom`, the Prometheus text dump
//! of the enabled run's final snapshot (the demo artifact for the export
//! API).

use crate::table::{f2, Table};
use integrade_core::asct::{JobSpec, JobState};
use integrade_core::grid::{Grid, GridBuilder, GridConfig, NodeSetup};
use integrade_obs::metrics::MetricsSnapshot;
use integrade_simnet::time::{SimDuration, SimTime};
use std::time::Instant;

/// Node population of the overhead cell.
pub const NODES: usize = 5_000;

/// The pinned seed (the simulation is deterministic per seed).
pub const SEED: u64 = 14;

/// Replica-interleaved measurement pairs; the median-overhead pair is
/// kept. The on-vs-off delta this experiment measures (a few percent)
/// is the same order as host throughput noise on a shared runner, so
/// the guard interleaves the configs replica-by-replica (noise lands in
/// both buckets) and takes the median pair (spikes discarded) — see
/// [`run_pairs`].
pub const RUNS: usize = 4;

/// Relative overhead budget for metrics-on vs metrics-off. This is a
/// regression tripwire, not the measured cost: the true instrumentation
/// cost is ~1–2 % (see EXPERIMENTS.md E15), but the median interleaved
/// pair still wanders ±5 % on a noisy single-core host, so the budget
/// sits at twice the worst observed noise excursion. A real hot-path
/// regression (say, string hashing back on the update path) shifts
/// *every* pair and blows well past this.
pub const MAX_OVERHEAD_FRAC: f64 = 0.10;

/// One measured cell.
#[derive(Debug, Clone)]
pub struct ObsCell {
    /// Whether metrics and span recording were enabled.
    pub metrics_on: bool,
    /// Virtual seconds simulated per wall-clock second, summed over the
    /// configuration's [`REPLICAS`] timed event loops.
    pub sim_per_wall: f64,
    /// Events dispatched (identical across configs — instrumentation is
    /// passive, so this doubles as a determinism check).
    pub events: u64,
    /// Jobs completed out of 5.
    pub completed: usize,
    /// Trace spans recorded (0 when disabled).
    pub spans: usize,
}

/// Replicas of the cell aggregated into one measurement. The
/// on-vs-off delta gated here is a few percent, and a single cell's timed
/// region is only tens of wall-ms — small enough for scheduler noise to
/// fake or mask a 5 % difference. Summing the run time of eight
/// independent replicas (grid construction stays untimed) grows the
/// region to a few hundred ms without changing what a cell *is*.
pub const REPLICAS: u64 = 8;

/// Virtual horizon of each replica, seconds.
pub const HORIZON_S: u64 = 7_200;

/// The overhead cell's grid with observability toggled: 5k idle nodes, delta
/// suppression, crash detection pushed past the horizon, trace log off so
/// only the metrics layer separates the two configs.
fn obs_grid(metrics_on: bool) -> Grid {
    let config = GridConfig::builder()
        .seed(SEED)
        .gupa_warmup_days(0)
        .delta_suppression(true)
        .crash_silence(SimDuration::from_secs(HORIZON_S * 2))
        .build();
    let mut builder = GridBuilder::new(config);
    builder.add_cluster((0..NODES).map(|_| NodeSetup::idle_desktop()).collect());
    let mut grid = builder.build();
    grid.disable_trace();
    grid.set_metrics_enabled(metrics_on);
    grid
}

/// One replica (five small sequential jobs, two virtual hours):
/// raw wall seconds of the event loop (grid construction untimed) plus
/// the outcome counters and the final metrics snapshot.
struct Replica {
    wall: f64,
    events: u64,
    completed: usize,
    spans: usize,
    snapshot: MetricsSnapshot,
}

fn run_replica(metrics_on: bool) -> Replica {
    let mut grid = obs_grid(metrics_on);
    for i in 0..5 {
        grid.submit(JobSpec::sequential(&format!("e15-{i}"), 60_000));
    }
    let started = Instant::now();
    let (_, events) = grid.run_until_counting(SimTime::from_secs(HORIZON_S));
    let wall = started.elapsed().as_secs_f64();
    Replica {
        wall,
        events,
        completed: grid
            .report()
            .records
            .iter()
            .filter(|r| r.state == JobState::Completed)
            .count(),
        spans: grid.spans().len(),
        snapshot: grid.metrics_snapshot(),
    }
}

/// Accumulates [`REPLICAS`] replicas of one configuration into an
/// [`ObsCell`]. Span count follows the last replica absorbed (all
/// replicas are identical), everything else sums.
#[derive(Default)]
struct Accum {
    wall: f64,
    events: u64,
    completed: usize,
    spans: usize,
}

impl Accum {
    fn absorb(&mut self, r: &Replica) {
        self.wall += r.wall;
        self.events += r.events;
        self.completed += r.completed;
        self.spans = r.spans;
    }

    fn cell(&self, metrics_on: bool) -> ObsCell {
        ObsCell {
            metrics_on,
            sim_per_wall: (REPLICAS * HORIZON_S) as f64 / self.wall.max(1e-9),
            events: self.events,
            completed: self.completed,
            spans: self.spans,
        }
    }
}

/// Runs [`REPLICAS`] replicas of one configuration back to back and
/// aggregates them. Used for the warmup; the gated measurement goes
/// through [`run_pairs`], which interleaves the configs instead.
fn run_once(metrics_on: bool) -> (ObsCell, MetricsSnapshot) {
    let mut acc = Accum::default();
    let mut snapshot = None;
    for _ in 0..REPLICAS {
        let r = run_replica(metrics_on);
        acc.absorb(&r);
        snapshot = Some(r.snapshot);
    }
    (acc.cell(metrics_on), snapshot.expect("REPLICAS >= 1"))
}

/// One measurement pair with the configs interleaved at *replica*
/// granularity: off-replica, on-replica, off-replica, ... for
/// [`REPLICAS`] rounds, each config's event-loop time accumulated into
/// its own bucket. A single replica's timed slice is a few wall-ms, so
/// host-throughput noise on any longer timescale — frequency scaling,
/// noisy neighbours, page-cache churn — lands in both buckets instead
/// of biasing whichever config ran as one contiguous block.
fn run_interleaved() -> (ObsCell, ObsCell, MetricsSnapshot) {
    let (mut off, mut on) = (Accum::default(), Accum::default());
    let mut snapshot = None;
    for _ in 0..REPLICAS {
        off.absorb(&run_replica(false));
        let r = run_replica(true);
        on.absorb(&r);
        snapshot = Some(r.snapshot);
    }
    (
        on.cell(true),
        off.cell(false),
        snapshot.expect("REPLICAS >= 1"),
    )
}

/// Median-overhead (on, off) pair out of [`RUNS`] replica-interleaved
/// measurements (`run_interleaved`). The interleaving cancels noise
/// *within* a pair; the median across pairs then discards the
/// occasional measurement where a one-sided spike survived anyway.
/// Best-of-N cannot do either: its two winners come from different
/// instants, so drift between those instants masquerades as overhead.
pub fn run_pairs() -> (ObsCell, ObsCell, MetricsSnapshot) {
    let mut pairs: Vec<(ObsCell, ObsCell, MetricsSnapshot)> =
        (0..RUNS.max(1)).map(|_| run_interleaved()).collect();
    pairs.sort_by(|a, b| overhead_frac(&a.0, &a.1).total_cmp(&overhead_frac(&b.0, &b.1)));
    pairs.swap_remove(pairs.len() / 2)
}

/// Relative slowdown of the enabled config: `(off - on) / off`. Negative
/// when the enabled run was faster (noise).
pub fn overhead_frac(on: &ObsCell, off: &ObsCell) -> f64 {
    (off.sim_per_wall - on.sim_per_wall) / off.sim_per_wall.max(1e-9)
}

/// Renders the pair as `BENCH_obs.json`.
pub fn to_json(on: &ObsCell, off: &ObsCell) -> String {
    let cell = |c: &ObsCell| {
        format!(
            "{{\"metrics_on\": {}, \"sim_per_wall\": {:.1}, \"events\": {}, \
             \"completed\": {}, \"spans\": {}}}",
            c.metrics_on, c.sim_per_wall, c.events, c.completed, c.spans
        )
    };
    format!(
        "{{\n  \"experiment\": \"e15\",\n  \"nodes\": {NODES},\n  \
         \"enabled\": {},\n  \"disabled\": {},\n  \
         \"overhead_pct\": {:.2}\n}}\n",
        cell(on),
        cell(off),
        overhead_frac(on, off) * 100.0
    )
}

/// E15: the overhead guard. Side effects: writes `BENCH_obs.json` and
/// `BENCH_obs.prom` (the enabled run's Prometheus dump).
///
/// # Panics
///
/// Panics when instrumentation perturbs the run (event counts differ)
/// or when the overhead exceeds [`MAX_OVERHEAD_FRAC`].
pub fn e15() -> Table {
    // Discarded warmup: the first cell of a process absorbs one-off costs
    // (first-touch page faults, allocator heap growth) that would bias
    // whichever configuration happens to run first.
    let _warmup = run_once(false);
    let (on, off, snapshot) = run_pairs();
    match std::fs::write("BENCH_obs.json", to_json(&on, &off)) {
        Ok(()) => eprintln!("e15: wrote BENCH_obs.json"),
        Err(e) => eprintln!("e15: could not write BENCH_obs.json: {e}"),
    }
    match std::fs::write("BENCH_obs.prom", snapshot.to_prometheus()) {
        Ok(()) => eprintln!("e15: wrote BENCH_obs.prom"),
        Err(e) => eprintln!("e15: could not write BENCH_obs.prom: {e}"),
    }
    let mut table = Table::new(
        "E15: observability overhead at 5k nodes (median of 4 interleaved pairs)",
        &[
            "metrics",
            "sim_s_per_wall_s",
            "events",
            "completed",
            "spans",
        ],
    );
    for c in [&on, &off] {
        table.push_row(vec![
            if c.metrics_on { "on" } else { "off" }.to_owned(),
            f2(c.sim_per_wall),
            c.events.to_string(),
            format!("{}/{}", c.completed, 5 * REPLICAS),
            c.spans.to_string(),
        ]);
    }
    table.push_row(vec![
        "overhead".to_owned(),
        format!("{:.2}%", overhead_frac(&on, &off) * 100.0),
        String::new(),
        String::new(),
        String::new(),
    ]);
    assert_eq!(
        on.events, off.events,
        "e15: instrumentation perturbed the simulation — event counts differ"
    );
    assert!(
        on.completed > 0,
        "e15: no job completed — the scenario exercised nothing"
    );
    assert!(on.spans > 0, "e15: the enabled run recorded no trace spans");
    assert!(
        overhead_frac(&on, &off) < MAX_OVERHEAD_FRAC,
        "e15: metrics overhead {:.2}% exceeds the {:.0}% budget \
         ({:.1} on vs {:.1} off sim s/wall s)",
        overhead_frac(&on, &off) * 100.0,
        MAX_OVERHEAD_FRAC * 100.0,
        on.sim_per_wall,
        off.sim_per_wall
    );
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Small-population shape check: toggling metrics changes neither the
    /// event stream nor the outcome, the enabled run carries a populated
    /// snapshot and spans, and the disabled run records nothing.
    #[test]
    fn instrumentation_is_passive_and_populated() {
        let run = |metrics_on: bool| {
            let config = GridConfig::builder()
                .seed(SEED)
                .gupa_warmup_days(0)
                .delta_suppression(true)
                .crash_silence(SimDuration::from_secs(HORIZON_S * 2))
                .build();
            let mut builder = GridBuilder::new(config);
            builder.add_cluster((0..200).map(|_| NodeSetup::idle_desktop()).collect());
            let mut grid = builder.build();
            grid.disable_trace();
            grid.set_metrics_enabled(metrics_on);
            for i in 0..3 {
                grid.submit(JobSpec::sequential(&format!("t-{i}"), 30_000));
            }
            let (_, events) = grid.run_until_counting(SimTime::from_secs(3600));
            let spans = grid.spans().len();
            let snap = grid.metrics_snapshot();
            (events, spans, snap)
        };
        let (events_on, spans_on, snap_on) = run(true);
        let (events_off, spans_off, snap_off) = run(false);
        assert_eq!(events_on, events_off, "instrumentation must be passive");
        assert!(spans_on > 0, "enabled run should trace negotiation RPCs");
        assert_eq!(spans_off, 0, "disabled run must record nothing");
        assert!(snap_on.counter_total("grm_updates") > 0);
        // Mirrors sync regardless of the enable flag (they shadow stats the
        // components keep anyway), so both snapshots see ORB traffic.
        assert!(snap_off.counter("orb_requests_sent").unwrap() > 0);
        // Live histograms only populate when enabled.
        let hist = snap_on
            .histogram("grid_negotiation_latency_seconds")
            .unwrap();
        assert!(hist.count > 0, "reserve/launch RPCs should be observed");
        assert_eq!(
            snap_off
                .histogram("grid_negotiation_latency_seconds")
                .unwrap()
                .count,
            0
        );
    }

    #[test]
    fn json_is_well_formed_enough() {
        let cell = |on: bool| ObsCell {
            metrics_on: on,
            sim_per_wall: 100.0,
            events: 42,
            completed: 5,
            spans: if on { 7 } else { 0 },
        };
        let json = to_json(&cell(true), &cell(false));
        assert!(json.contains("\"experiment\": \"e15\""));
        assert!(json.contains("\"overhead_pct\": 0.00"));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
    }
}
