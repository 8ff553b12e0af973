//! The commands that run every workload: `all` writes the perf record,
//! `calibrate` repeats the driver's spread test and writes the bounds.
//!
//! Both spawn this executable once per run, so that every workload is
//! measured in a process of its own (`peak_rss_mb` is the process's).

use crate::json::Value;
use crate::measure::{host_cores, iqr_share, median};
use crate::metrics::{per_layer_defs, END_TO_END, ESTIMATE_LAYERS};
use crate::run::{out_dir, perf_dir, GOLDEN_SEED};
use crate::workloads::Workload;
use crate::Cli;
use integrade_obs::profile::Phase;
use std::process::Command;

/// How long one run measures: the three timed repeats every workload
/// makes at its size (4 to 7 s each with its set-up). With four workloads
/// the driver makes 92 runs inside 3 420 s, and a run costs this plus its
/// cold warm-up repeat and the repeat in flight when the time is up.
pub const RUN_SECONDS: f64 = 12.0;

/// Runs per set of `calibrate`: the driver's count.
const CALIBRATE_RUNS: u64 = 10;

/// The largest bound the driver accepts.
const MAX_BOUND: f64 = 0.25;

fn why(workload: Workload) -> &'static str {
    match workload {
        Workload::Idle50k => {
            "50k mostly idle nodes over 6 sim-days: lazy catch-up replay, LUPA sampling, GUPA digest \
             and k-means retraining do the work, most of it in the report flush; event queue, GIOP \
             and trader almost none"
        }
        Workload::Update10k => {
            "Information Update Protocol at its defaults on 10k traced nodes: event queue, GIOP/CDR \
             decode, GRM handle_update and trader modify (writes); the tick path is idle"
        }
        Workload::Churn5k => {
            "720 Poisson jobs on 5k nodes their owners reclaim through a working day: reserve/launch \
             negotiation on stale hints, checkpoint traffic, trader query (reads), evictions, BSP \
             gangs; few status updates"
        }
        Workload::Fed21 => {
            "21-cluster linked-trader federation of 42k nodes: Federation::run_until drains its own \
             queue and ticks members one after the other; WAN forwarding and summaries"
        }
    }
}

/// `BENCHMARK.json` as the code defines it, with the given bound per
/// end-to-end metric.
fn benchmark_json(bound: &dyn Fn(&str) -> f64) -> Value {
    let command = [
        "cargo",
        "run",
        "--release",
        "--offline",
        "--quiet",
        "--manifest-path",
        "perf/Cargo.toml",
        "--",
    ];
    Value::object([
        (
            "command",
            Value::Array(command.into_iter().map(Value::from).collect()),
        ),
        ("paths", Value::Array(vec![Value::from("perf")])),
        ("run_seconds", Value::from(RUN_SECONDS)),
        (
            "workloads",
            Value::Array(
                Workload::ALL
                    .into_iter()
                    .map(|w| {
                        Value::object([
                            ("name", Value::from(w.name())),
                            ("why", Value::from(why(w))),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "end_to_end",
            Value::Array(
                END_TO_END
                    .iter()
                    .map(|&(name, unit, better, _)| {
                        Value::object([
                            ("name", Value::from(name)),
                            ("unit", Value::from(unit)),
                            ("better", Value::from(better.word())),
                            ("bound", Value::from(bound(name))),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "per_layer",
            Value::Array(
                per_layer_defs()
                    .into_iter()
                    .map(|d| {
                        Value::object([
                            ("name", Value::from(d.name)),
                            ("unit", Value::from(d.unit)),
                            ("better", Value::from(d.better.word())),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

/// Spawns this executable for one run and returns whether it succeeded;
/// its report goes straight to our stdout.
fn spawn_run(workload: Workload, seed: u64, seconds: f64, trace: bool, quick: bool) -> bool {
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("current_exe: {e}");
            return false;
        }
    };
    let mut run = Command::new(exe);
    run.args(["--workload", workload.name()])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }]);
    if quick {
        run.arg("--quick");
    }
    match run.status() {
        Ok(status) => status.success(),
        Err(e) => {
            eprintln!("spawning a run: {e}");
            false
        }
    }
}

fn read_out(quick: bool, workload: Workload, kind: &str) -> Option<Value> {
    let path = out_dir(quick).join(format!("{}.{kind}.json", workload.name()));
    Value::parse(&std::fs::read_to_string(path).ok()?).ok()
}

fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .current_dir(perf_dir())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_owned())
        .unwrap_or_else(|| "unknown".to_owned())
}

/// A copy of `object[key]`, `null` if either is missing.
fn member(object: Option<&Value>, key: &str) -> Value {
    object
        .and_then(|o| o.get(key))
        .cloned()
        .unwrap_or(Value::Null)
}

fn number(value: Option<&Value>) -> String {
    match value.and_then(Value::as_f64) {
        Some(v) => format!("{v:.6}"),
        None => "null".to_owned(),
    }
}

/// Prints the profile phases as the tree they nest in: `gupa_digest`
/// runs inside `catch_up_replay` or `slot_walk`, which run inside
/// `dispatch` or the report flush, so the rows are not a sum. Phases are
/// looked up by name, so that one a later change adds or removes costs
/// nothing here: an unknown phase prints at the top level, last.
fn print_profile_tree(per_layer: &Value) {
    const NESTING: [(&str, usize); 10] = [
        ("queue_pop", 0),
        ("dispatch", 0),
        ("slot_walk", 1),
        ("catch_up_replay", 1),
        ("gupa_digest", 2),
        ("giop_encode", 1),
        ("giop_decode", 1),
        ("shard_rebalance", 1),
        ("shard_walk", 1),
        ("shard_merge", 1),
    ];
    let place = |name: &str| {
        NESTING
            .iter()
            .position(|(n, _)| *n == name)
            .unwrap_or(NESTING.len())
    };
    let mut names: Vec<&str> = Phase::ALL.iter().map(|p| p.name()).collect();
    names.sort_by_key(|name| place(name));
    for name in names {
        let depth = NESTING.get(place(name)).map_or(0, |(_, depth)| *depth);
        println!(
            "    {:indent$}{:<18} {:>12} s {:>12} entries",
            "",
            name,
            number(per_layer.get(&format!("obs.profile.{name}_s"))),
            per_layer
                .get(&format!("obs.profile.{name}_entries"))
                .and_then(Value::as_f64)
                .unwrap_or(0.0),
            indent = depth * 2,
        );
    }
}

/// `perf all`: every workload untraced, then every workload traced; the
/// cross-workload tables; `record.json`.
pub fn all(cli: &Cli) -> i32 {
    let seconds = cli.seconds();
    let mut ok = true;
    for trace in [false, true] {
        for workload in Workload::ALL {
            ok &= spawn_run(workload, cli.seed, seconds, trace, cli.quick);
        }
    }
    // A run that died may have left an earlier run's result files behind.
    if !ok {
        eprintln!("a run failed: no tables, no record");
        return 1;
    }

    let mut workloads = Vec::new();
    let mut golden = Vec::new();
    println!("\nend-to-end (untraced build, median of timed repeats)");
    for workload in Workload::ALL {
        let (Some(e2e), Some(layers)) = (
            read_out(cli.quick, workload, "e2e"),
            read_out(cli.quick, workload, "layers"),
        ) else {
            eprintln!("{}: a run left no result file", workload.name());
            return 1;
        };
        println!("  {}", workload.name());
        if let Some(values) = e2e.get("end_to_end").and_then(Value::as_object) {
            for (name, value) in values {
                println!("    {name:<24} {:>16}", number(Some(value)));
            }
        }
        for key in ["setup_s", "wall_s"] {
            if let Some(s) = e2e.get(key) {
                println!(
                    "    {key:<24} min {} max {} n {}",
                    number(s.get("min")),
                    number(s.get("max")),
                    s.get("n").and_then(Value::as_f64).unwrap_or(0.0)
                );
            }
        }
        println!(
            "    sim_changed: {}",
            e2e.get("sim_changed").map_or("null".into(), Value::compact)
        );
        golden.push((
            workload.name(),
            Value::object([
                ("sim_digest", member(e2e.get("sim"), "sim_digest")),
                (
                    "jobs_completed_share",
                    member(e2e.get("end_to_end"), "jobs_completed_share"),
                ),
            ]),
        ));
        workloads.push((workload, e2e, layers));
    }

    println!("\nper layer (traced run; est_share = probe x count / untraced wall_s)");
    for (workload, _, layers) in &workloads {
        let Some(per_layer) = layers.get("per_layer") else {
            continue;
        };
        println!(
            "  {}  trace_overhead_share {}",
            workload.name(),
            number(per_layer.get("trace_overhead_share"))
        );
        for (layer, parent) in ESTIMATE_LAYERS {
            println!(
                "    {:<18} est_busy_s {:>12} est_share {:>10}{}",
                layer,
                number(per_layer.get(&format!("{layer}.est_busy_s"))),
                number(per_layer.get(&format!("{layer}.est_share"))),
                parent.map_or(String::new(), |p| format!("  (inside {p})")),
            );
        }
        println!(
            "    {:<18} {:>47}",
            "unattributed_share",
            number(per_layer.get("unattributed_share"))
        );
        println!("    obs.profile phases (nested, not a sum):");
        print_profile_tree(per_layer);
    }

    if cli.quick {
        return 0;
    }
    let record = Value::object([
        ("host_cores", Value::from(host_cores())),
        ("rustc", Value::from(command_line("rustc", &["--version"]))),
        (
            "commit",
            Value::from(command_line("git", &["rev-parse", "HEAD"])),
        ),
        ("seed", Value::from(cli.seed)),
        ("run_seconds", Value::from(seconds)),
        (
            "workloads",
            Value::object(workloads.into_iter().map(|(workload, e2e, layers)| {
                (
                    workload.name(),
                    Value::object(
                        ["end_to_end", "setup_s", "wall_s", "sim", "sim_changed"]
                            .into_iter()
                            .map(|key| (key, member(Some(&e2e), key)))
                            .chain([("per_layer", member(Some(&layers), "per_layer"))]),
                    ),
                )
            })),
        ),
    ]);
    let path = perf_dir().join("record.json");
    if let Err(e) = std::fs::write(&path, record.pretty()) {
        eprintln!("{}: {e}", path.display());
        return 1;
    }
    println!("\nwrote {}", path.display());
    if cli.write_golden {
        if cli.seed != GOLDEN_SEED {
            eprintln!("--write-golden needs a run at seed {GOLDEN_SEED}");
            return 1;
        }
        let golden = Value::object([
            ("seed", Value::from(GOLDEN_SEED)),
            ("workloads", Value::object(golden)),
        ]);
        let path = perf_dir().join("golden.json");
        if let Err(e) = std::fs::write(&path, golden.pretty()) {
            eprintln!("{}: {e}", path.display());
            return 1;
        }
        println!("wrote {}", path.display());
    }
    0
}

/// `perf calibrate`: the driver's acceptance test, run here. Two sets of
/// [`CALIBRATE_RUNS`] untraced runs per workload, each with another seed;
/// per metric the quartile distance as a share of the median within a
/// set, and the shift of the median between the sets. Writes
/// `BENCHMARK.json` with each bound at least three times the widest
/// spread and twice the widest shift, and never below the default.
pub fn calibrate(cli: &Cli) -> i32 {
    let seconds = cli.seconds();
    // values[set][workload][metric] = one value per run
    let mut sets: Vec<Vec<Vec<Vec<f64>>>> = Vec::new();
    for set in 0..2 {
        let mut per_workload = Vec::new();
        for workload in Workload::ALL {
            let mut per_metric = vec![Vec::new(); END_TO_END.len()];
            for seed in 1..=CALIBRATE_RUNS {
                if !spawn_run(workload, seed, seconds, false, false) {
                    eprintln!("calibrate: {} seed {seed} failed", workload.name());
                    return 1;
                }
                let Some(e2e) = read_out(false, workload, "e2e") else {
                    eprintln!("calibrate: {} left no result file", workload.name());
                    return 1;
                };
                for (values, (name, ..)) in per_metric.iter_mut().zip(END_TO_END) {
                    let value = e2e
                        .get("end_to_end")
                        .and_then(|v| v.get(name))
                        .and_then(Value::as_f64);
                    values.push(value.unwrap_or(0.0));
                }
            }
            println!("calibrate: set {set} {} done", workload.name());
            per_workload.push(per_metric);
        }
        sets.push(per_workload);
    }

    println!("\nmetric @ workload: IQR/median of set 1, of set 2, |shift of median|/median");
    let mut ok = true;
    let mut bounds = Vec::new();
    for (m, &(name, _, _, default)) in END_TO_END.iter().enumerate() {
        let (mut widest_spread, mut widest_shift) = (0.0f64, 0.0f64);
        for (w, workload) in Workload::ALL.into_iter().enumerate() {
            let (first, second) = (&sets[0][w][m], &sets[1][w][m]);
            let spreads = [iqr_share(first), iqr_share(second)];
            let shift = (median(second) - median(first)).abs() / median(first).abs();
            println!(
                "  {name:<22} @ {:<10} {:>8.4} {:>8.4} {:>8.4}",
                workload.name(),
                spreads[0],
                spreads[1],
                shift
            );
            // The driver exempts setup_s from the spread test only.
            if name != "setup_s" {
                widest_spread = widest_spread.max(spreads[0]).max(spreads[1]);
            }
            widest_shift = widest_shift.max(shift);
        }
        let wanted = default.max(3.0 * widest_spread).max(2.0 * widest_shift);
        if widest_spread > MAX_BOUND || widest_shift > MAX_BOUND {
            eprintln!("  {name}: spread or shift beyond the largest bound the driver accepts");
            ok = false;
        }
        let bound = (wanted.min(MAX_BOUND) * 1000.0).ceil() / 1000.0;
        println!("  {name:<22} bound {bound} (default {default})");
        bounds.push((name, bound));
    }
    let file = benchmark_json(&|name| {
        let (_, bound) = bounds
            .iter()
            .find(|(n, _)| *n == name)
            .expect("a bound was computed for every end-to-end metric");
        *bound
    });
    let path = perf_dir().join("../BENCHMARK.json");
    if let Err(e) = std::fs::write(&path, file.pretty()) {
        eprintln!("{}: {e}", path.display());
        return 1;
    }
    println!("wrote {}", path.display());
    i32::from(!ok)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `BENCHMARK.json` is generated; this is the check that the
    /// committed file still says what the code says, bounds aside.
    #[test]
    fn committed_benchmark_json_matches_the_code() {
        let text = std::fs::read_to_string(perf_dir().join("../BENCHMARK.json"))
            .expect("BENCHMARK.json at the repository root");
        let committed = Value::parse(&text).expect("BENCHMARK.json parses");
        let bound_of = |name: &str| {
            committed
                .get("end_to_end")
                .and_then(Value::as_array)
                .and_then(|metrics| {
                    metrics
                        .iter()
                        .find(|m| m.get("name").and_then(Value::as_str) == Some(name))
                })
                .and_then(|m| m.get("bound"))
                .and_then(Value::as_f64)
                .expect("every end-to-end metric has a bound")
        };
        assert_eq!(committed, benchmark_json(&bound_of));
        for (name, _, _, default) in END_TO_END {
            let bound = bound_of(name);
            assert!(
                (default..=MAX_BOUND).contains(&bound),
                "{name}: bound {bound} outside [{default}, {MAX_BOUND}]"
            );
        }
    }

    #[test]
    fn benchmark_json_is_within_the_contract() {
        let file = benchmark_json(&|_| MAX_BOUND);
        let names = |key: &str| -> Vec<String> {
            file.get(key)
                .and_then(Value::as_array)
                .expect("a list")
                .iter()
                .map(|m| {
                    m.get("name")
                        .and_then(Value::as_str)
                        .expect("a name")
                        .to_owned()
                })
                .collect()
        };
        let (e2e, layers, workloads) =
            (names("end_to_end"), names("per_layer"), names("workloads"));
        assert!((1..=16).contains(&e2e.len()));
        assert!((1..=128).contains(&layers.len()), "{}", layers.len());
        assert!((2..=8).contains(&workloads.len()));
        assert!(e2e.iter().any(|n| n == "setup_s"));
        let mut all: Vec<&String> = e2e.iter().chain(&layers).chain(&workloads).collect();
        for name in &all {
            assert!(
                name.len() <= 64
                    && name.starts_with(|c: char| c.is_ascii_alphanumeric())
                    && name
                        .chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)),
                "{name}"
            );
        }
        all.sort();
        let before = all.len();
        all.dedup();
        assert_eq!(all.len(), before, "a name is used twice");
        for w in Workload::ALL {
            assert!(why(w).len() <= 200 && !why(w).contains('\n'));
        }
        for def in per_layer_defs() {
            assert!(
                def.unit.len() <= 16
                    && def
                        .unit
                        .chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)),
                "{}",
                def.unit
            );
        }
        assert!(file.pretty().len() <= 64 * 1024);
    }
}
