//! The metric names, units and directions, and how each is computed from
//! a drive's outcome. Names are normative: later issues cite them as
//! `metric @ workload`, and `BENCHMARK.json` lists exactly these.

use crate::measure::{median, quantile};
use crate::workloads::Outcome;
use integrade_core::asct::JobState;
use integrade_obs::profile::Phase;

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better.
    Lower,
    /// Larger is better.
    Higher,
}

impl Better {
    /// The word `BENCHMARK.json` uses.
    pub fn word(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// A metric's name, unit and direction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MetricDef {
    /// Normative name.
    pub name: String,
    /// Unit, within the driver's unit alphabet.
    pub unit: &'static str,
    /// Direction of improvement.
    pub better: Better,
}

fn def(name: impl Into<String>, unit: &'static str, better: Better) -> MetricDef {
    MetricDef {
        name: name.into(),
        unit,
        better,
    }
}

/// The end-to-end metrics the driver bounds, with the default bound of
/// each (`calibrate` may widen a bound, never narrow it below this).
///
/// The driver gives every run another seed and bounds a metric by its
/// spread across those runs, so a metric qualifies only if it is defined
/// and non-zero on every workload and steady from seed to seed. The other
/// four end-to-end metrics ([`END_TO_END_UNBOUNDED`]) are printed with
/// these and ride in the per-layer list, which has no bounds.
pub const END_TO_END: [(&str, &str, Better, f64); 4] = [
    ("setup_s", "s", Better::Lower, 0.25),
    ("wall_s", "s", Better::Lower, 0.10),
    ("peak_rss_mb", "MB", Better::Lower, 0.05),
    ("jobs_completed_share", "ratio", Better::Higher, 0.05),
];

/// End-to-end metrics the driver cannot bound: the median makespan of
/// `churn5k`'s few hundred exponential jobs moves by a fifth from seed to
/// seed, and the other three are undefined or zero on some workload. All
/// four repeat bit for bit per seed, which is how two commits compare.
pub const END_TO_END_UNBOUNDED: [(&str, &str, Better); 4] = [
    ("makespan_p50_sim_s", "sim_s", Better::Lower),
    ("makespan_p95_sim_s", "sim_s", Better::Lower),
    ("wasted_work_share", "ratio", Better::Lower),
    ("wan_bytes_per_job", "bytes", Better::Lower),
];

/// Completed jobs below which a p95 has fewer than ten samples beyond it.
pub const P95_MIN_COMPLETED: usize = 200;

/// Harness spans and process counters of the traced run.
const SPAN_METRICS: [(&str, &str, Better); 17] = [
    ("workload.generate_s", "s", Better::Lower),
    ("core.grid.build_s", "s", Better::Lower),
    ("core.grid.submit_s", "s", Better::Lower),
    ("core.grid.run_s", "s", Better::Lower),
    ("core.grid.run_window_p50_ms", "ms", Better::Lower),
    ("core.grid.run_window_p95_ms", "ms", Better::Lower),
    ("core.grid.report_s", "s", Better::Lower),
    ("core.federation.build_s", "s", Better::Lower),
    ("core.federation.submit_s", "s", Better::Lower),
    ("core.federation.run_s", "s", Better::Lower),
    ("core.federation.refresh_s", "s", Better::Lower),
    ("process.cpu_user_s", "s", Better::Lower),
    ("process.cpu_sys_s", "s", Better::Lower),
    ("process.minor_faults", "count", Better::Lower),
    ("sim_s_per_wall_s", "sim_s/s", Better::Higher),
    ("events_per_wall_s", "1/s", Better::Higher),
    ("trace_overhead_share", "ratio", Better::Lower),
];

/// Exact counts: they repeat bit for bit per seed.
pub const COUNT_METRICS: [&str; 29] = [
    "simnet.event.fired",
    "simnet.event.peak_depth",
    "simnet.event.wheel_scheduled",
    "simnet.event.heap_scheduled",
    "simnet.event.compactions",
    "simnet.net.messages",
    "simnet.net.bytes",
    "simnet.net.drops",
    "orb.requests_sent",
    "orb.oneways_sent",
    "orb.replies_received",
    "orb.requests_dispatched",
    "orb.trading.queries",
    "core.grm.updates_accepted",
    "core.grm.updates_stale",
    "core.grid.evictions",
    "core.grid.negotiation_refusals",
    "core.grid.retransmits",
    "core.grid.timeouts",
    "core.repo.dedup_hits",
    "core.repo.gc_evictions",
    "core.repo.corrupt_detected",
    "core.gupa.models",
    "core.gupa.uploads",
    "core.federation.wan_messages",
    "core.federation.wan_bytes",
    "core.federation.forwards",
    "core.federation.spillover_queries",
    "core.federation.summary_updates",
];

/// Layers the probes attribute busy time to. A layer listed with a
/// parent is nested inside it, so only parentless rows add up to the
/// attributed share.
pub const ESTIMATE_LAYERS: [(&str, Option<&str>); 10] = [
    ("simnet.event", None),
    ("orb.giop", None),
    ("orb.cdr", None),
    ("core.grm", None),
    ("orb.trading", Some("core.grm")),
    ("core.scheduler", None),
    ("core.gupa", None),
    ("usage", Some("core.gupa")),
    ("core.repo", None),
    ("core.hierarchy", None),
];

/// Every per-layer metric, in the order `BENCHMARK.json` lists them.
pub fn per_layer_defs() -> Vec<MetricDef> {
    let mut defs: Vec<MetricDef> = SPAN_METRICS
        .iter()
        .map(|&(name, unit, better)| def(name, unit, better))
        .collect();
    for name in COUNT_METRICS {
        let unit = if name.ends_with("bytes") {
            "bytes"
        } else {
            "count"
        };
        defs.push(def(name, unit, Better::Lower));
    }
    for phase in Phase::ALL {
        defs.push(def(
            format!("obs.profile.{}_s", phase.name()),
            "s",
            Better::Lower,
        ));
        defs.push(def(
            format!("obs.profile.{}_entries", phase.name()),
            "count",
            Better::Lower,
        ));
    }
    for (name, _) in crate::probes::PROBES {
        defs.push(def(*name, "ns", Better::Lower));
    }
    for (layer, _) in ESTIMATE_LAYERS {
        defs.push(def(format!("{layer}.est_busy_s"), "s", Better::Lower));
        defs.push(def(format!("{layer}.est_share"), "ratio", Better::Lower));
    }
    defs.push(def("unattributed_share", "ratio", Better::Lower));
    for (name, unit, better) in END_TO_END_UNBOUNDED {
        defs.push(def(name, unit, better));
    }
    defs
}

/// The simulated outcome of one drive, reduced to what is reported.
#[derive(Debug, Clone, PartialEq)]
pub struct SimSummary {
    /// `sim_digest` of the drive.
    pub digest: u64,
    /// Jobs offered.
    pub submitted: usize,
    /// Job records the system holds.
    pub records: usize,
    /// Jobs `Completed` at the horizon.
    pub completed: usize,
    /// BSP jobs offered and completed (gangs are the hard case).
    pub bsp: (usize, usize),
    /// Completed / submitted; refused, failed and pending all count as
    /// missing.
    pub jobs_completed_share: f64,
    /// Median submission-to-completion time, simulated seconds.
    pub makespan_p50_sim_s: f64,
    /// p95 of the same, where at least [`P95_MIN_COMPLETED`] completed.
    pub makespan_p95_sim_s: Option<f64>,
    /// Work lost to evictions over nominal work.
    pub wasted_work_share: f64,
    /// WAN bytes per submitted job (`fed21` only).
    pub wan_bytes_per_job: Option<f64>,
    /// Completions per cluster, in cluster order.
    pub completed_per_cluster: Vec<usize>,
}

impl SimSummary {
    /// Reduces an outcome.
    pub fn of(outcome: &Outcome) -> SimSummary {
        let makespans: Vec<f64> = outcome
            .records()
            .filter(|r| r.state == JobState::Completed)
            .filter_map(|r| r.makespan())
            .map(|d| d.as_secs_f64())
            .collect();
        let completed = makespans.len();
        let is_bsp = |name: &str| name.starts_with("bsp-");
        let bsp = (
            outcome.records().filter(|r| is_bsp(&r.name)).count(),
            outcome
                .records()
                .filter(|r| is_bsp(&r.name) && r.state == JobState::Completed)
                .count(),
        );
        let wasted: u64 = outcome.records().map(|r| r.wasted_work_mips_s).sum();
        SimSummary {
            digest: crate::digest::sim_digest(outcome),
            submitted: outcome.submitted,
            records: outcome.records().count(),
            completed,
            bsp,
            jobs_completed_share: completed as f64 / outcome.submitted.max(1) as f64,
            makespan_p50_sim_s: median(&makespans),
            makespan_p95_sim_s: (completed >= P95_MIN_COMPLETED)
                .then(|| quantile(&makespans, 0.95)),
            wasted_work_share: wasted as f64 / outcome.nominal_work_mips_s.max(1) as f64,
            wan_bytes_per_job: outcome
                .wan
                .map(|wan| wan.bytes as f64 / outcome.submitted.max(1) as f64),
            completed_per_cluster: outcome.reports.iter().map(|(_, r)| r.completed()).collect(),
        }
    }
}

/// The exact counts of one drive, in [`COUNT_METRICS`] order.
pub fn counts(outcome: &Outcome) -> Vec<(&'static str, f64)> {
    let counter =
        |name: &str| -> u64 { outcome.metrics.iter().map(|m| m.counter_total(name)).sum() };
    let labeled = |name: &str, label: &str| -> u64 {
        outcome
            .metrics
            .iter()
            .flat_map(|m| m.counters.iter())
            .filter(|c| c.name == name && c.labels.iter().any(|(_, v)| v == label))
            .map(|c| c.value)
            .sum()
    };
    let queue = |f: fn(&integrade_simnet::event::QueueStats) -> u64| -> u64 {
        outcome.queues.iter().map(f).sum()
    };
    let wan = outcome.wan.unwrap_or_default();
    let values = [
        outcome.events_fired,
        // Members run one after the other, so the deepest queue, not the
        // sum, is the depth a pop works against.
        outcome
            .queues
            .iter()
            .map(|q| q.peak_heap_depth as u64)
            .max()
            .unwrap_or(0),
        queue(|q| q.wheel_scheduled),
        queue(|q| q.heap_scheduled),
        queue(|q| q.compactions),
        counter("net_messages"),
        counter("net_bytes"),
        counter("net_fault_drops"),
        counter("orb_requests_sent"),
        counter("orb_oneways_sent"),
        counter("orb_replies_received"),
        counter("orb_requests_dispatched"),
        counter("grm_trader_queries"),
        labeled("grm_updates", "accepted"),
        labeled("grm_updates", "stale"),
        outcome.records().map(|r| r.evictions).sum(),
        outcome.records().map(|r| r.negotiation_refusals).sum(),
        counter("grid_retransmits"),
        counter("grid_timeouts"),
        counter("repo_dedup_hits"),
        counter("repo_gc_evictions"),
        counter("repo_corrupt_detected"),
        outcome
            .reports
            .iter()
            .map(|(_, r)| r.gupa_models as u64)
            .sum(),
        outcome.gupa_uploads,
        wan.messages,
        wan.bytes,
        wan.forwards,
        wan.spillover_queries,
        wan.summary_updates,
    ];
    COUNT_METRICS
        .iter()
        .zip(values)
        .map(|(name, v)| (*name, v as f64))
        .collect()
}

/// Checkpoint stores acknowledged: the sample count of the store
/// round-trip histogram (the registry has no plain counter for it).
pub fn checkpoint_stores(outcome: &Outcome) -> u64 {
    outcome
        .metrics
        .iter()
        .filter_map(|m| m.histogram("grid_checkpoint_store_rtt_seconds"))
        .map(|h| h.count)
        .sum()
}

/// `obs.profile.<phase>_s` and `_entries`, summed over clusters.
pub fn profile_rows(outcome: &Outcome) -> Vec<(String, f64)> {
    let mut rows = Vec::new();
    for phase in Phase::ALL {
        let (mut ns, mut entries) = (0u64, 0u64);
        for report in &outcome.profiles {
            for row in report.phases.iter().filter(|r| r.phase == phase) {
                ns += row.total_ns;
                entries += row.entries;
            }
        }
        rows.push((format!("obs.profile.{}_s", phase.name()), ns as f64 / 1e9));
        rows.push((
            format!("obs.profile.{}_entries", phase.name()),
            entries as f64,
        ));
    }
    rows
}
