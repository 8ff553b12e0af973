//! One workload process: the warm-up, the timed repeats, the correctness
//! gate, and the two result shapes (end-to-end, per-layer) a run prints.

use crate::json::Value;
use crate::measure::{host_cores, median, quantile, ProcessStats};
use crate::metrics::{self, SimSummary, END_TO_END, END_TO_END_UNBOUNDED};
use crate::probes;
use crate::spans::Spans;
use crate::workloads::{self, Outcome, Workload};
use std::path::{Path, PathBuf};
use std::process::Command;
use std::time::Instant;

/// The seed `golden.json` pins.
pub const GOLDEN_SEED: u64 = 11;

/// Timed repeats an untraced run makes at least, whatever `--seconds`.
const MIN_TIMED_REPEATS: usize = 3;

/// What a run was asked to do.
#[derive(Debug, Clone, Copy)]
pub struct RunArgs {
    /// The workload.
    pub workload: Workload,
    /// The only source of randomness.
    pub seed: u64,
    /// How long to keep making timed repeats.
    pub seconds: f64,
    /// 1/50 population (tests).
    pub quick: bool,
}

/// `perf/`, where the golden file, the record and `out/` live.
pub fn perf_dir() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

/// Where a run leaves its detailed results and spans.
pub fn out_dir(quick: bool) -> PathBuf {
    let out = perf_dir().join("out");
    if quick {
        out.join("quick")
    } else {
        out
    }
}

fn write_out(quick: bool, file: &str, value: &Value) -> Result<(), String> {
    let dir = out_dir(quick);
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let path = dir.join(file);
    std::fs::write(&path, value.pretty()).map_err(|e| format!("{}: {e}", path.display()))
}

/// Timings of one repeat.
struct Repeat {
    generate_s: f64,
    build_s: f64,
    outcome: Outcome,
}

impl Repeat {
    fn setup_s(&self) -> f64 {
        self.generate_s + self.build_s
    }
}

/// One repeat: generate inputs, build, drive; the system is dropped
/// before returning so that the next repeat's does not add to the peak.
fn repeat(args: &RunArgs, windowed: bool, spans: &mut Spans) -> Repeat {
    spans.next_run();
    let started = Instant::now();
    let span = spans.enter("workload.generate");
    let inputs = workloads::generate(args.workload, args.seed, args.quick);
    spans.exit(span);
    let generate_s = started.elapsed().as_secs_f64();
    let span = spans.enter(match args.workload {
        Workload::Fed21 => "core.federation.build",
        _ => "core.grid.build",
    });
    let mut system = workloads::build(&inputs);
    spans.exit(span);
    let build_s = started.elapsed().as_secs_f64() - generate_s;
    let outcome = workloads::drive(&mut system, inputs, windowed, spans);
    Repeat {
        generate_s,
        build_s,
        outcome,
    }
}

/// The warm-up and the timed repeats of one process.
struct Repeats {
    setup_s: Vec<f64>,
    wall_s: Vec<f64>,
    /// The first repeat's summary; every other repeat must equal it.
    summary: SimSummary,
    /// Repeats checked (the warm-up too) and how many disagreed with the
    /// first or lost a job record.
    attempted: usize,
    failed: usize,
    /// The last timed repeat, for counts and windows.
    last: Outcome,
}

fn run_repeats(
    args: &RunArgs,
    seconds: f64,
    min_timed: usize,
    windowed: bool,
    spans: &mut Spans,
) -> Repeats {
    let broken = |s: &SimSummary| s.records != s.submitted;
    // Discarded warm-up: the first repeat pays the process's first-touch
    // page faults, which are the host's cost, not the program's.
    let warmup = repeat(args, windowed, spans);
    let summary = SimSummary::of(&warmup.outcome);
    let mut repeats = Repeats {
        setup_s: Vec::new(),
        wall_s: Vec::new(),
        attempted: 1,
        failed: usize::from(broken(&summary)),
        summary,
        last: warmup.outcome,
    };
    let started = Instant::now();
    while repeats.wall_s.len() < min_timed || started.elapsed().as_secs_f64() < seconds {
        let next = repeat(args, windowed, spans);
        let summary = SimSummary::of(&next.outcome);
        repeats.attempted += 1;
        if summary != repeats.summary || broken(&summary) {
            repeats.failed += 1;
        }
        repeats.setup_s.push(next.setup_s());
        repeats.wall_s.push(next.outcome.wall_s);
        repeats.last = next.outcome;
    }
    repeats
}

fn spread(values: &[f64]) -> Value {
    Value::object([
        ("median", Value::from(median(values))),
        ("min", Value::from(quantile(values, 0.0))),
        ("max", Value::from(quantile(values, 1.0))),
        ("n", Value::from(values.len())),
        (
            "values",
            Value::Array(values.iter().map(|v| Value::from(*v)).collect()),
        ),
    ])
}

fn golden_entry(workload: Workload) -> Option<Value> {
    let text = std::fs::read_to_string(perf_dir().join("golden.json")).ok()?;
    let golden = Value::parse(&text).ok()?;
    if golden.get("seed")?.as_f64()? != GOLDEN_SEED as f64 {
        return None;
    }
    golden.get("workloads")?.get(workload.name()).cloned()
}

fn summary_json(summary: &SimSummary) -> Value {
    Value::object([
        (
            "sim_digest",
            Value::from(crate::digest::hex(summary.digest)),
        ),
        ("submitted", Value::from(summary.submitted)),
        ("completed", Value::from(summary.completed)),
        ("bsp_submitted", Value::from(summary.bsp.0)),
        ("bsp_completed", Value::from(summary.bsp.1)),
        (
            "completed_per_cluster",
            Value::Array(
                summary
                    .completed_per_cluster
                    .iter()
                    .map(|n| Value::from(*n))
                    .collect(),
            ),
        ),
    ])
}

/// The four end-to-end metrics the driver does not bound, by name; `None`
/// where a metric is not defined on the workload.
fn unbounded_values(summary: &SimSummary) -> [(&'static str, Option<f64>); 4] {
    [
        ("makespan_p50_sim_s", Some(summary.makespan_p50_sim_s)),
        ("makespan_p95_sim_s", summary.makespan_p95_sim_s),
        ("wasted_work_share", Some(summary.wasted_work_share)),
        ("wan_bytes_per_job", summary.wan_bytes_per_job),
    ]
}

/// All eight end-to-end metrics by name.
fn end_to_end_values(
    summary: &SimSummary,
    setup_s: f64,
    wall_s: f64,
    peak_rss_mb: f64,
) -> Vec<(&'static str, Option<f64>)> {
    let mut values = vec![
        ("setup_s", Some(setup_s)),
        ("wall_s", Some(wall_s)),
        ("peak_rss_mb", Some(peak_rss_mb)),
        ("jobs_completed_share", Some(summary.jobs_completed_share)),
    ];
    values.extend(unbounded_values(summary));
    values
}

fn unit_of(name: &str) -> &'static str {
    END_TO_END
        .iter()
        .map(|&(n, unit, _, _)| (n, unit))
        .chain(END_TO_END_UNBOUNDED.iter().map(|&(n, unit, _)| (n, unit)))
        .find(|(n, _)| *n == name)
        .map(|(_, unit)| unit)
        .expect("a known end-to-end metric")
}

/// The driver's result line.
fn result_line(
    correct: bool,
    attempted: usize,
    failed: usize,
    metrics: Vec<(String, f64, &str)>,
) -> String {
    Value::object([
        ("correct", Value::from(correct)),
        ("attempted", Value::from(attempted)),
        ("failed", Value::from(failed)),
        (
            "metrics",
            Value::object(metrics.into_iter().map(|(name, value, unit)| {
                (
                    name,
                    Value::object([("value", Value::from(value)), ("unit", Value::from(unit))]),
                )
            })),
        ),
    ])
    .compact()
}

/// Checks a run's simulated outcome against the committed golden file
/// (seed 11 at full scale only). Returns `(sim_changed, floor_held)`.
fn against_golden(args: &RunArgs, summary: &SimSummary) -> (Option<bool>, bool) {
    if args.quick || args.seed != GOLDEN_SEED {
        return (None, true);
    }
    let Some(entry) = golden_entry(args.workload) else {
        return (None, true);
    };
    let changed = entry
        .get("sim_digest")
        .and_then(Value::as_str)
        .map(|golden| golden != crate::digest::hex(summary.digest));
    let floor = entry
        .get("jobs_completed_share")
        .and_then(Value::as_f64)
        .unwrap_or(0.0);
    (changed, summary.jobs_completed_share >= floor)
}

/// `--trace 0`: the end-to-end metrics, measured in this process with
/// tracing off. Returns the process exit code.
pub fn untraced(args: &RunArgs) -> i32 {
    let mut spans = Spans::disabled();
    let repeats = run_repeats(args, args.seconds, MIN_TIMED_REPEATS, false, &mut spans);
    let process = ProcessStats::read();
    let (sim_changed, floor_held) = against_golden(args, &repeats.summary);
    let correct = repeats.failed == 0 && floor_held && process.peak_rss_mb > 0.0;
    let values = end_to_end_values(
        &repeats.summary,
        median(&repeats.setup_s),
        median(&repeats.wall_s),
        process.peak_rss_mb,
    );

    println!(
        "{} seed {} untraced: {} timed repeats after 1 warm-up, host_cores {}",
        args.workload.name(),
        args.seed,
        repeats.wall_s.len(),
        host_cores()
    );
    for (name, value) in &values {
        match value {
            Some(v) => println!("  {name:<24} {v:>14.6} {}", unit_of(name)),
            None => println!("  {name:<24} {:>14} {}", "null", unit_of(name)),
        }
    }
    let s = &repeats.summary;
    println!(
        "  jobs {}/{} completed (bsp {}/{}), sim_digest {}, sim_changed: {}",
        s.completed,
        s.submitted,
        s.bsp.1,
        s.bsp.0,
        crate::digest::hex(s.digest),
        sim_changed.map_or(
            "n/a (golden.json pins seed 11 at full scale)".to_owned(),
            |c| c.to_string()
        ),
    );
    if repeats.failed > 0 {
        eprintln!(
            "FAILED: {} of {} repeats differ from the first or lost a job record",
            repeats.failed, repeats.attempted
        );
    }
    if !floor_held {
        eprintln!("FAILED: jobs_completed_share is below the committed floor");
    }

    let detail = Value::object([
        ("workload", Value::from(args.workload.name())),
        ("seed", Value::from(args.seed)),
        ("correct", Value::from(correct)),
        ("sim_changed", sim_changed.map_or(Value::Null, Value::from)),
        ("setup_s", spread(&repeats.setup_s)),
        ("wall_s", spread(&repeats.wall_s)),
        ("sim", summary_json(s)),
        (
            "end_to_end",
            Value::object(values.iter().map(|(n, v)| (*n, Value::from(*v)))),
        ),
    ]);
    if let Err(e) = write_out(
        args.quick,
        &format!("{}.e2e.json", args.workload.name()),
        &detail,
    ) {
        eprintln!("{e}");
        return 1;
    }
    let driver_metrics = values
        .iter()
        .filter(|(name, _)| END_TO_END.iter().any(|(n, ..)| n == name))
        .map(|(name, v)| ((*name).to_owned(), v.unwrap_or(0.0), unit_of(name)))
        .collect();
    println!(
        "{}",
        result_line(correct, repeats.attempted, repeats.failed, driver_metrics)
    );
    i32::from(!correct)
}

/// What the traced child prints for its parent, as one JSON line.
pub fn traced_child(args: &RunArgs) -> i32 {
    if !cfg!(feature = "profile") {
        eprintln!("traced-child needs a build with --features profile");
        return 2;
    }
    let mut spans = Spans::recording();
    let repeats = run_repeats(args, args.seconds, 1, true, &mut spans);
    let process = ProcessStats::read();
    let timed_runs = 2..=spans.run();
    let span_total = |name: &str| {
        let per_run: Vec<f64> = timed_runs
            .clone()
            .map(|run| spans.total_s(name, run))
            .collect();
        median(&per_run)
    };
    // A span called `x` is the metric `x_s`.
    let mut layer: Vec<(String, f64)> = [
        "workload.generate",
        "core.grid.build",
        "core.grid.submit",
        "core.grid.run",
        "core.grid.report",
        "core.federation.build",
        "core.federation.submit",
        "core.federation.run",
        "core.federation.refresh",
    ]
    .into_iter()
    .map(|span| (format!("{span}_s"), span_total(span)))
    .collect();
    let windows = &repeats.last.window_ms;
    layer.push(("core.grid.run_window_p50_ms".into(), median(windows)));
    layer.push((
        "core.grid.run_window_p95_ms".into(),
        quantile(windows, 0.95),
    ));
    layer.push(("process.cpu_user_s".into(), process.cpu_user_s));
    layer.push(("process.cpu_sys_s".into(), process.cpu_sys_s));
    layer.push(("process.minor_faults".into(), process.minor_faults as f64));
    layer.extend(
        metrics::counts(&repeats.last)
            .into_iter()
            .map(|(n, v)| (n.to_owned(), v)),
    );
    layer.extend(metrics::profile_rows(&repeats.last));

    let spans_file = format!("{}.spans.json", args.workload.name());
    if let Err(e) = write_out(args.quick, &spans_file, &spans.to_json()) {
        eprintln!("{e}");
        return 1;
    }
    let line = Value::object([
        (
            "sim_digest",
            Value::from(crate::digest::hex(repeats.summary.digest)),
        ),
        ("attempted", Value::from(repeats.attempted)),
        ("failed", Value::from(repeats.failed)),
        ("traced_wall_s", Value::from(median(&repeats.wall_s))),
        ("windows", Value::from(windows.len())),
        (
            "checkpoint_stores",
            Value::from(metrics::checkpoint_stores(&repeats.last)),
        ),
        (
            "layer",
            Value::object(layer.into_iter().map(|(n, v)| (n, Value::from(v)))),
        ),
    ]);
    println!("{}", line.compact());
    0
}

/// The binary built with `--features profile`, building it if need be
/// into `<target>/profiled` so that it never replaces the plain binary.
fn profiled_binary() -> Result<PathBuf, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    if cfg!(feature = "profile") {
        return Ok(exe);
    }
    let profile_dir = exe.parent().ok_or("the executable has no directory")?;
    let target = profile_dir
        .parent()
        .ok_or("the executable is not in a cargo target directory")?
        .join("profiled");
    let cargo = std::env::var_os("CARGO").unwrap_or_else(|| "cargo".into());
    let mut build = Command::new(cargo);
    build
        .args([
            "build",
            "--offline",
            "--quiet",
            "--features",
            "profile",
            "--bin",
            "perf",
        ])
        .arg("--manifest-path")
        .arg(perf_dir().join("Cargo.toml"))
        .arg("--target-dir")
        .arg(&target)
        // The child prints cargo's diagnostics where they do not mix with
        // the result line.
        .stdout(std::process::Stdio::null());
    let profile = if cfg!(debug_assertions) {
        "debug"
    } else {
        build.arg("--release");
        "release"
    };
    let status = build.status().map_err(|e| format!("cargo build: {e}"))?;
    if !status.success() {
        return Err(format!("cargo build --features profile failed: {status}"));
    }
    Ok(target.join(profile).join("perf"))
}

/// `--trace 1`: the per-layer metrics. Untraced repeats here give the
/// baseline, a child built with `profile` makes the traced, windowed run,
/// then the probes run at the operating point the run reported.
pub fn traced(args: &RunArgs) -> i32 {
    let binary = match profiled_binary() {
        Ok(binary) => binary,
        Err(e) => {
            eprintln!("{e}");
            return 1;
        }
    };
    let third = args.seconds / 3.0;
    let mut disabled = Spans::disabled();
    let baseline = run_repeats(args, third, 1, false, &mut disabled);
    let untraced_wall_s = median(&baseline.wall_s);
    let summary = baseline.summary.clone();
    let (attempted, failed) = (baseline.attempted, baseline.failed);
    // Free the baseline's heap before the child builds its own system.
    drop(baseline);

    let mut child = Command::new(&binary);
    child
        .arg("traced-child")
        .args(["--workload", args.workload.name()])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &third.to_string()]);
    if args.quick {
        child.arg("--quick");
    }
    let output = match child.output() {
        Ok(output) => output,
        Err(e) => {
            eprintln!("{}: {e}", binary.display());
            return 1;
        }
    };
    eprint!("{}", String::from_utf8_lossy(&output.stderr));
    let stdout = String::from_utf8_lossy(&output.stdout);
    let Some(child_line) = stdout.lines().last().and_then(|l| Value::parse(l).ok()) else {
        eprintln!("the traced child printed no result ({})", output.status);
        return 1;
    };
    let child_num = |key: &str| child_line.get(key).and_then(Value::as_f64).unwrap_or(0.0);
    let mut layer: Vec<(String, f64)> = child_line
        .get("layer")
        .and_then(Value::as_object)
        .map(|pairs| {
            pairs
                .iter()
                .map(|(n, v)| (n.clone(), v.as_f64().unwrap_or(0.0)))
                .collect()
        })
        .unwrap_or_default();
    let traced_wall_s = child_num("traced_wall_s");
    let digest_matches = child_line.get("sim_digest").and_then(Value::as_str)
        == Some(crate::digest::hex(summary.digest).as_str());

    let lookup = |layer: &[(String, f64)], name: &str| {
        layer
            .iter()
            .find(|(n, _)| n == name)
            .map_or(0.0, |(_, v)| *v)
    };
    let horizon_s = args.workload.horizon_s() as f64;
    layer.push(("sim_s_per_wall_s".into(), horizon_s / untraced_wall_s));
    layer.push((
        "events_per_wall_s".into(),
        lookup(&layer, "simnet.event.fired") / untraced_wall_s,
    ));
    layer.push((
        "trace_overhead_share".into(),
        traced_wall_s / untraced_wall_s - 1.0,
    ));

    let point = probes::fixture::Point {
        nodes: args.workload.cluster_nodes(args.quick).max(1),
        queue_depth: lookup(&layer, "simnet.event.peak_depth") as usize,
        seed: args.seed,
    };
    layer.extend(
        probes::run_all(&point)
            .into_iter()
            .map(|(n, v)| (n.to_owned(), v)),
    );
    let estimates = probes::estimates(
        &|name| lookup(&layer, name),
        child_num("checkpoint_stores"),
        args.workload.nodes(args.quick) as f64,
    );
    let mut attributed = 0.0;
    for ((name, busy_s), (_, parent)) in estimates.iter().zip(metrics::ESTIMATE_LAYERS) {
        let share = busy_s / untraced_wall_s;
        if parent.is_none() {
            attributed += share;
        }
        layer.push((format!("{name}.est_busy_s"), *busy_s));
        layer.push((format!("{name}.est_share"), share));
    }
    layer.push(("unattributed_share".into(), 1.0 - attributed));
    // 0 stands for "not defined on this workload".
    layer.extend(
        unbounded_values(&summary)
            .into_iter()
            .map(|(name, value)| (name.to_owned(), value.unwrap_or(0.0))),
    );

    // Report in the normative order, and exactly the normative names.
    let defs = metrics::per_layer_defs();
    let names_match = defs.len() == layer.len()
        && defs
            .iter()
            .all(|d| layer.iter().filter(|(n, _)| *n == d.name).count() == 1);
    let child_failed = child_num("failed") as usize;
    let windows_match = child_num("windows") == workloads::RUN_WINDOWS as f64;
    let correct = failed == 0
        && child_failed == 0
        && digest_matches
        && names_match
        && windows_match
        && output.status.success();

    println!(
        "{} seed {} traced: untraced wall_s {:.6}, traced wall_s {:.6} over {} windows",
        args.workload.name(),
        args.seed,
        untraced_wall_s,
        traced_wall_s,
        child_num("windows"),
    );
    for d in &defs {
        println!(
            "  {:<40} {:>18.6} {}",
            d.name,
            lookup(&layer, &d.name),
            d.unit
        );
    }
    if !digest_matches {
        eprintln!(
            "FAILED: the traced, windowed run simulated something else than the untraced run"
        );
    }
    if !names_match {
        eprintln!("FAILED: the emitted per-layer names are not the normative list");
    }
    if !windows_match {
        eprintln!(
            "FAILED: the traced run made {} windows, not {}",
            child_num("windows"),
            workloads::RUN_WINDOWS
        );
    }
    let detail = Value::object([
        ("workload", Value::from(args.workload.name())),
        ("seed", Value::from(args.seed)),
        ("correct", Value::from(correct)),
        ("untraced_wall_s", Value::from(untraced_wall_s)),
        ("traced_wall_s", Value::from(traced_wall_s)),
        (
            "per_layer",
            Value::object(
                defs.iter()
                    .map(|d| (d.name.clone(), Value::from(lookup(&layer, &d.name)))),
            ),
        ),
    ]);
    if let Err(e) = write_out(
        args.quick,
        &format!("{}.layers.json", args.workload.name()),
        &detail,
    ) {
        eprintln!("{e}");
        return 1;
    }
    let driver_metrics = defs
        .iter()
        .map(|d| (d.name.clone(), lookup(&layer, &d.name), d.unit))
        .collect();
    println!(
        "{}",
        result_line(
            correct,
            attempted + child_num("attempted") as usize,
            failed + child_failed,
            driver_metrics
        )
    );
    i32::from(!correct)
}
