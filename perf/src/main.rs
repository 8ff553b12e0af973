//! The repository's benchmark: four pinned workloads, measured end to
//! end and layer by layer. See `perf/README.md`.
//!
//! ```text
//! perf --workload W --seed N --seconds S --trace 0|1   one run, one result line (the driver's call)
//! perf all [--seed N]                                   every workload, both ways; writes record.json
//! perf calibrate                                        the driver's spread test; widens bounds
//! perf --quick                                          `all` at 1/50 population (the test's call)
//! ```

mod digest;
mod json;
mod measure;
mod metrics;
mod probes;
mod record;
mod run;
mod spans;
mod workloads;

use run::RunArgs;
use workloads::Workload;

/// Parsed command line.
#[derive(Debug)]
pub struct Cli {
    /// `all`, `calibrate`, `traced-child`, or none for one run.
    pub command: Option<String>,
    /// `--workload`.
    pub workload: Option<Workload>,
    /// `--seed` (default 11).
    pub seed: u64,
    /// `--seconds`; the default is `BENCHMARK.json`'s `run_seconds`.
    pub seconds: Option<f64>,
    /// `--trace` (default 0).
    pub trace: bool,
    /// `--quick`.
    pub quick: bool,
    /// `--write-golden`: `all` rewrites `golden.json` from its run.
    pub write_golden: bool,
}

impl Cli {
    /// How long a run measures: `--seconds`, else `BENCHMARK.json`'s
    /// `run_seconds`, else the minimum number of repeats under `--quick`.
    pub fn seconds(&self) -> f64 {
        self.seconds
            .unwrap_or(if self.quick { 0.0 } else { record::RUN_SECONDS })
    }
}

fn parse_cli(args: &[String]) -> Result<Cli, String> {
    let mut cli = Cli {
        command: None,
        workload: None,
        seed: run::GOLDEN_SEED,
        seconds: None,
        trace: false,
        quick: false,
        write_golden: false,
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = |flag: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs a value"))
        };
        match arg.as_str() {
            "--workload" => {
                let name = value("--workload")?;
                cli.workload =
                    Some(Workload::parse(&name).ok_or(format!("unknown workload {name}"))?);
            }
            "--seed" => {
                cli.seed = value("--seed")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                let seconds: f64 = value("--seconds")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(0.0..=3600.0).contains(&seconds) {
                    return Err("--seconds must be between 0 and 3600".into());
                }
                cli.seconds = Some(seconds);
            }
            "--trace" => {
                cli.trace = match value("--trace")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--quick" => cli.quick = true,
            "--write-golden" => cli.write_golden = true,
            "all" | "calibrate" | "traced-child" if cli.command.is_none() => {
                cli.command = Some(arg.clone());
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(cli)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cli = match parse_cli(&args) {
        Ok(cli) => cli,
        Err(e) => {
            eprintln!("perf: {e}");
            std::process::exit(2);
        }
    };
    let run_args = |workload| RunArgs {
        workload,
        seed: cli.seed,
        seconds: cli.seconds(),
        quick: cli.quick,
    };
    let code = match (cli.command.as_deref(), cli.workload) {
        (Some("traced-child"), Some(workload)) => run::traced_child(&run_args(workload)),
        (Some("calibrate"), None) => record::calibrate(&cli),
        (Some("all"), None) => record::all(&cli),
        (None, None) if cli.quick => record::all(&cli),
        (None, Some(workload)) if cli.trace => run::traced(&run_args(workload)),
        (None, Some(workload)) => run::untraced(&run_args(workload)),
        _ => {
            eprintln!(
                "usage: perf --workload <{}> --seed N --seconds S --trace 0|1\n       \
                 perf all [--seed N] [--quick] [--write-golden]\n       \
                 perf calibrate\n       perf --quick",
                Workload::ALL.map(Workload::name).join("|")
            );
            2
        }
    };
    std::process::exit(code);
}
