//! Runs the benchmark at 1/50 population (`perf --quick`) and checks what
//! it emits against `BENCHMARK.json`: every metric name exactly once per
//! workload and way of running, well-formed names, parsable JSON, and
//! digests that repeat.

#[allow(dead_code)]
#[path = "../src/json.rs"]
mod json;

use json::Value;
use std::path::Path;
use std::process::Command;

const WORKLOADS: [&str; 4] = ["idle50k", "update10k", "churn5k", "fed21"];

fn perf(args: &[&str]) -> String {
    let output = Command::new(env!("CARGO_BIN_EXE_perf"))
        .args(args)
        .output()
        .expect("the perf binary runs");
    assert!(
        output.status.success(),
        "perf {args:?} failed: {}\n{}",
        output.status,
        String::from_utf8_lossy(&output.stderr)
    );
    String::from_utf8(output.stdout).expect("UTF-8 output")
}

fn read_json(path: &Path) -> Value {
    let text = std::fs::read_to_string(path).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
    Value::parse(&text).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

fn declared(benchmark: &Value, key: &str) -> Vec<String> {
    benchmark
        .get(key)
        .and_then(Value::as_array)
        .expect("a metric list")
        .iter()
        .map(|m| {
            m.get("name")
                .and_then(Value::as_str)
                .expect("a name")
                .to_owned()
        })
        .collect()
}

fn keys(value: &Value) -> Vec<String> {
    value
        .as_object()
        .expect("an object")
        .iter()
        .map(|(k, _)| k.clone())
        .collect()
}

#[test]
fn quick_run_emits_the_declared_metrics_once_each() {
    let perf_dir = Path::new(env!("CARGO_MANIFEST_DIR"));
    let benchmark = read_json(&perf_dir.join("../BENCHMARK.json"));
    let end_to_end = declared(&benchmark, "end_to_end");
    let per_layer = declared(&benchmark, "per_layer");
    assert_eq!(declared(&benchmark, "workloads"), WORKLOADS);

    let stdout = perf(&["--quick"]);
    let results: Vec<Value> = stdout
        .lines()
        .filter(|l| l.starts_with("{\"correct\""))
        .map(|l| Value::parse(l).expect("a result line parses"))
        .collect();
    // Every workload untraced, then every workload traced.
    assert_eq!(results.len(), 2 * WORKLOADS.len(), "{stdout}");
    for (i, result) in results.iter().enumerate() {
        assert_eq!(keys(result), ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(result.get("correct"), Some(&Value::Bool(true)), "run {i}");
        assert_eq!(result.get("failed").and_then(Value::as_f64), Some(0.0));
        assert!(result.get("attempted").and_then(Value::as_f64) >= Some(1.0));
        let metrics = result.get("metrics").expect("metrics");
        // An object's key list holding each declared name once, in order,
        // is "emitted exactly once".
        let expected = if i < WORKLOADS.len() {
            &end_to_end
        } else {
            &per_layer
        };
        assert_eq!(&keys(metrics), expected, "run {i}");
        for (name, metric) in metrics.as_object().expect("an object") {
            assert!(
                !name.is_empty()
                    && name
                        .chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)),
                "{name}"
            );
            assert_eq!(keys(metric), ["value", "unit"], "{name}");
            assert!(
                metric.get("value").and_then(Value::as_f64).is_some(),
                "{name}"
            );
        }
    }

    let out = perf_dir.join("out/quick");
    for workload in WORKLOADS {
        let spans = read_json(&out.join(format!("{workload}.spans.json")));
        let spans = spans.as_array().expect("a span list");
        assert!(!spans.is_empty(), "{workload}");
        for span in spans {
            assert_eq!(
                keys(span),
                ["id", "name", "start_s", "end_s", "parent", "run"]
            );
        }
        let layers = read_json(&out.join(format!("{workload}.layers.json")));
        assert_eq!(keys(layers.get("per_layer").expect("per_layer")), per_layer);
    }

    // A digest is a function of the workload and the seed alone: a second
    // process must reproduce the first's.
    let digest = |workload: &str| {
        read_json(&out.join(format!("{workload}.e2e.json")))
            .get("sim")
            .and_then(|s| s.get("sim_digest"))
            .and_then(Value::as_str)
            .expect("a digest")
            .to_owned()
    };
    let first = digest("churn5k");
    assert_eq!(first.len(), 16);
    perf(&["--quick", "--workload", "churn5k", "--trace", "0"]);
    assert_eq!(digest("churn5k"), first);
    perf(&[
        "--quick",
        "--workload",
        "churn5k",
        "--trace",
        "0",
        "--seed",
        "12",
    ]);
    assert_ne!(digest("churn5k"), first, "the seed reaches the simulator");
}

#[test]
fn a_bad_command_line_is_refused() {
    for args in [
        &["--workload", "nope"][..],
        &["--trace", "2"],
        &["--seconds"],
        &[],
    ] {
        let output = Command::new(env!("CARGO_BIN_EXE_perf"))
            .args(args)
            .output()
            .expect("the perf binary runs");
        assert_eq!(output.status.code(), Some(2), "{args:?}");
        assert!(output.stdout.is_empty(), "{args:?}");
    }
}
