//! # integrade-bench
//!
//! The experiment harness that regenerates every table in EXPERIMENTS.md.
//! The InteGrade paper contains no quantitative evaluation (its single
//! figure is the architecture diagram), so the experiment suite is
//! *claim-driven*: every prose claim becomes a measurable table — see
//! DESIGN.md §5 for the full index.
//!
//! Each experiment is a pure function returning a [`table::Table`]; the
//! `experiments` binary prints them, and each module's tests assert the
//! expected *shape* of its results (who wins, where the boundaries fall).
//! Wall-clock cost is measured in one place only, the `perf/` crate
//! (`BENCHMARK.json`); nothing here compares a timing with a committed floor.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod exp_baselines;
pub mod exp_bsp;
pub mod exp_cert;
pub mod exp_faults;
pub mod exp_fed;
pub mod exp_info;
pub mod exp_obs;
pub mod exp_qos;
pub mod exp_repo;
pub mod exp_scale;
pub mod exp_sched;
pub mod exp_spec;
pub mod exp_trader;
pub mod exp_usage;
pub mod table;

use table::Table;

/// One registered experiment: `(id, description, runner)`.
pub type ExperimentEntry = (&'static str, &'static str, fn() -> Table);

/// All experiments, as `(id, description, runner)`.
pub fn experiments() -> Vec<ExperimentEntry> {
    vec![
        (
            "f1",
            "Figure-1 architecture inventory",
            exp_info::f1 as fn() -> Table,
        ),
        ("e1", "Information Update Protocol cost", exp_info::e1),
        ("e2", "stale hints vs negotiation repair", exp_info::e2),
        ("e2b", "ablation: next-candidate failover", exp_info::e2b),
        ("e3", "behavioural-category recovery", exp_usage::e3),
        ("e3b", "k-means archetype separation", exp_usage::e3_kmeans),
        (
            "e3c",
            "ablation: DTW vs euclidean under time jitter",
            exp_usage::e3c,
        ),
        ("e4", "idle-prediction accuracy", exp_usage::e4),
        ("e5", "scheduling-strategy comparison", exp_sched::e5),
        ("e6", "owner QoS under protection regimes", exp_qos::e6),
        ("e6b", "harvest vs protection frontier", exp_qos::e6_harvest),
        ("e7", "BSP checkpoint interval trade-off", exp_bsp::e7),
        ("e7b", "checkpoint size scaling", exp_bsp::e7_size),
        (
            "e7c",
            "grid crash recovery via the checkpoint repository",
            exp_bsp::e7c,
        ),
        ("e8", "virtual-topology request placement", exp_sched::e8),
        (
            "e8b",
            "inter-group bandwidth feasibility",
            exp_sched::e8_sweep,
        ),
        ("e9", "hierarchy scalability", exp_scale::e9),
        ("e10", "protocol wire sizes", exp_scale::e10),
        (
            "e10b",
            "trader query scaling: indexed vs seed scan",
            exp_trader::e10b,
        ),
        ("e11", "systems comparison", exp_baselines::e11),
        (
            "e12",
            "completion under chaos: faults vs the hardened protocol",
            exp_faults::e12,
        ),
        (
            "e13",
            "replicated checkpoint repository: wasted work vs k",
            exp_repo::e13,
        ),
        (
            "e15",
            "observability overhead: metrics on vs off at 5k nodes",
            exp_obs::e15,
        ),
        (
            "e17",
            "gray failures: speculation off vs on vs BOINC reissue",
            exp_spec::e17,
        ),
        (
            "e17smoke",
            "speculation speedup smoke at 20% slow nodes vs committed floor",
            exp_spec::e17smoke,
        ),
        (
            "e18",
            "result sabotage: certification policies vs a lying minority",
            exp_cert::e18,
        ),
        (
            "e18smoke",
            "adaptive-vs-r3 redundancy savings smoke vs committed floor",
            exp_cert::e18smoke,
        ),
        (
            "e20",
            "federated routing: linked traders vs flat directory vs hierarchy summaries (writes BENCH_fed.json)",
            exp_fed::e20,
        ),
        (
            "e20smoke",
            "linked-trader spillover dominates the flat directory at equal WAN budget vs committed floor",
            exp_fed::e20smoke,
        ),
    ]
}

/// Runs `ids` in order, handing each table to `emit`. An unknown id does
/// not stop the known ones from running; the unknown ids come back as the
/// error, so the caller can exit non-zero.
pub fn run_ids(ids: &[String], mut emit: impl FnMut(Table)) -> Result<(), Vec<String>> {
    let registered = experiments();
    let mut unknown = Vec::new();
    for id in ids {
        match registered.iter().find(|(eid, _, _)| eid == id) {
            Some((_, _, runner)) => emit(runner()),
            None => unknown.push(id.clone()),
        }
    }
    if unknown.is_empty() {
        Ok(())
    } else {
        Err(unknown)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn experiment_ids_are_unique() {
        let mut ids: Vec<&str> = experiments().iter().map(|(id, _, _)| *id).collect();
        ids.sort_unstable();
        let total = ids.len();
        ids.dedup();
        assert_eq!(ids.len(), total, "duplicate experiment id registered");
    }

    /// A CI step naming a retired id must not pass silently: every
    /// `experiments <id>...` line in the workflow names registered ids.
    #[test]
    fn every_experiment_ci_runs_is_registered() {
        let ci = include_str!("../../../.github/workflows/ci.yml");
        let registered = experiments();
        let mut seen = 0;
        for line in ci.lines() {
            let Some((_, ids)) = line.split_once("--bin experiments ") else {
                continue;
            };
            for id in ids.split_whitespace() {
                seen += 1;
                assert!(
                    registered.iter().any(|(eid, _, _)| *eid == id),
                    "ci.yml runs unregistered experiment '{id}'"
                );
            }
        }
        assert!(seen > 0, "ci.yml runs no experiment: the parse went stale");
    }

    #[test]
    fn run_ids_runs_the_known_and_reports_the_unknown() {
        let ids = ["nosuch".to_owned(), "e10".to_owned(), "e14smoke".to_owned()];
        let mut tables = 0;
        let result = run_ids(&ids, |_| tables += 1);
        assert_eq!(tables, 1, "the known id still runs");
        assert_eq!(
            result,
            Err(vec!["nosuch".to_owned(), "e14smoke".to_owned()])
        );
        assert_eq!(run_ids(&[], |_| unreachable!()), Ok(()));
    }
}
