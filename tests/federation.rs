//! Federation determinism and chaos: the wide-area layer must inherit the
//! simulator's bit-for-bit reproducibility — identical seeds give identical
//! federated placements, WAN traffic, and per-cluster reports under both
//! tick engines (the lazy walk and the reference walk) — and its
//! fault tolerance: an inter-cluster partition combined with an origin-GRM
//! crash must not lose forwarded jobs or their completion records.
//!
//! The seed matrix defaults to a small set for `cargo test`; CI widens it
//! via the `CHAOS_SEEDS` environment variable (comma-separated u64s).

use integrade::core::asct::{JobSpec, JobState};
use integrade::core::federation::{FederatedPlacement, Federation, RoutingPolicy, WanStats};
use integrade::core::grid::{Grid, GridBuilder, GridConfig, NodeSetup, TickMode};
use integrade::core::types::{ClusterId, ResourceVector};
use integrade::simnet::faults::{FaultPlan, Partition};
use integrade::simnet::time::{SimDuration, SimTime};
use integrade::simnet::topology::HostId;

fn chaos_seeds() -> Vec<u64> {
    match std::env::var("CHAOS_SEEDS") {
        Ok(spec) => {
            let seeds: Vec<u64> = spec
                .split(',')
                .filter_map(|t| t.trim().parse().ok())
                .collect();
            assert!(!seeds.is_empty(), "CHAOS_SEEDS set but empty: {spec:?}");
            seeds
        }
        Err(_) => vec![1, 2, 3],
    }
}

fn grid_of(mode: TickMode, seed: u64, n: usize, mips: u64) -> Grid {
    let config = GridConfig::builder()
        .seed(seed)
        .gupa_warmup_days(0)
        .tick_mode(mode)
        .build();
    let mut builder = GridBuilder::new(config);
    builder.add_cluster(
        (0..n)
            .map(|_| NodeSetup {
                resources: ResourceVector {
                    cpu_mips: mips,
                    ram_mb: 256,
                    disk_mb: 10_000,
                },
                ..NodeSetup::idle_desktop()
            })
            .collect(),
    );
    builder.build()
}

/// root(0): 2 slow; hub(1): 8 slow; hub(2): 6 fast; leaf(3) under hub(1):
/// 4 slow — deep enough that spillover crosses multiple WAN edges.
fn federation(mode: TickMode, seed: u64, routing: RoutingPolicy) -> Federation {
    Federation::builder()
        .seed(seed)
        .routing(routing)
        .update_period(SimDuration::from_secs(60))
        .root(ClusterId(0), grid_of(mode, seed, 2, 500))
        .child(ClusterId(1), ClusterId(0), grid_of(mode, seed ^ 1, 8, 500))
        .child(ClusterId(2), ClusterId(0), grid_of(mode, seed ^ 2, 6, 1500))
        .child(ClusterId(3), ClusterId(1), grid_of(mode, seed ^ 3, 4, 500))
        .build()
        .expect("valid federation spec")
}

/// A deterministic mixed workload: local fits, sibling spillover, a
/// fast-CPU constraint, and a multi-hop overflow from the leaf.
fn drive(fed: &mut Federation) -> (Vec<FederatedPlacement>, WanStats, Vec<String>) {
    fed.run_until(SimTime::from_secs(120));
    let mut placements = Vec::new();
    placements.push(
        fed.submit(ClusterId(0), JobSpec::sequential("local", 10_000))
            .expect("fits locally"),
    );
    placements.push(
        fed.submit(ClusterId(0), JobSpec::bag_of_tasks("spill", 6, 30_000))
            .expect("spills to a child"),
    );
    fed.run_until(SimTime::from_secs(300));
    let mut fast = JobSpec::sequential("fast", 50_000);
    fast.requirements.min_cpu_mips = 1000;
    placements.push(fed.submit(ClusterId(1), fast).expect("routes to cluster 2"));
    placements.push(
        fed.submit(
            ClusterId(3),
            JobSpec::bag_of_tasks("leaf-overflow", 6, 20_000),
        )
        .expect("leaf overflows upward"),
    );
    fed.run_until(SimTime::from_secs(4 * 3600));
    fed.refresh();
    let reports = fed
        .reports()
        .iter()
        .map(|(c, r)| format!("{c}: {r:?}"))
        .collect();
    (placements, fed.wan_stats(), reports)
}

#[test]
fn federated_placement_is_identical_across_tick_modes() {
    for seed in chaos_seeds() {
        let runs: Vec<_> = [TickMode::Lazy, TickMode::Reference]
            .into_iter()
            .map(|mode| {
                let mut fed = federation(mode, seed, RoutingPolicy::LinkedTraders);
                (mode, drive(&mut fed))
            })
            .collect();
        let (_, baseline) = &runs[0];
        for (mode, run) in &runs[1..] {
            assert_eq!(
                run.0, baseline.0,
                "seed {seed}: {mode:?} placed jobs differently"
            );
            assert_eq!(
                run.1, baseline.1,
                "seed {seed}: {mode:?} produced different WAN traffic"
            );
            assert_eq!(
                run.2, baseline.2,
                "seed {seed}: {mode:?} produced different per-cluster reports"
            );
        }
    }
}

#[test]
fn federation_reproduces_itself_bit_for_bit() {
    for seed in chaos_seeds() {
        for routing in [
            RoutingPolicy::LinkedTraders,
            RoutingPolicy::FlatDirectory,
            RoutingPolicy::HierarchySummaries,
        ] {
            let mut a = federation(TickMode::Lazy, seed, routing);
            let mut b = federation(TickMode::Lazy, seed, routing);
            let run_a = drive(&mut a);
            let run_b = drive(&mut b);
            assert_eq!(run_a.0, run_b.0, "seed {seed} {routing:?}: placements");
            assert_eq!(run_a.1, run_b.1, "seed {seed} {routing:?}: WAN stats");
            assert_eq!(run_a.2, run_b.2, "seed {seed} {routing:?}: reports");
        }
    }
}

#[test]
fn routing_policies_agree_on_the_workload() {
    // All three routing arms must find homes for the same mixed workload
    // (they may pick different clusters, but nothing is lost).
    for routing in [
        RoutingPolicy::LinkedTraders,
        RoutingPolicy::FlatDirectory,
        RoutingPolicy::HierarchySummaries,
    ] {
        let mut fed = federation(TickMode::Lazy, 11, routing);
        let (placements, _, _) = drive(&mut fed);
        assert_eq!(placements.len(), 4, "{routing:?}");
        for p in &placements {
            assert_eq!(
                fed.job_state(p.id),
                Some(JobState::Completed),
                "{routing:?}: {p:?}"
            );
        }
    }
}

#[test]
fn partition_plus_origin_crash_does_not_lose_forwarded_jobs() {
    for seed in chaos_seeds() {
        let mut fed = Federation::builder()
            .seed(seed)
            .update_period(SimDuration::from_secs(60))
            // Cluster c maps to HostId(c.0) on the WAN: isolate cluster 1
            // right after the submission window, until t=1600s — the job
            // completes remotely (~155s) while its origin is unreachable.
            .wan_faults(FaultPlan::new(seed).with_partition(Partition {
                island: vec![HostId(1)],
                start: SimTime::from_secs(130),
                heal: SimTime::from_secs(1600),
            }))
            .root(ClusterId(0), grid_of(TickMode::Lazy, seed, 2, 500))
            .child(
                ClusterId(1),
                ClusterId(0),
                grid_of(TickMode::Lazy, seed ^ 1, 4, 500),
            )
            .child(
                ClusterId(2),
                ClusterId(0),
                grid_of(TickMode::Lazy, seed ^ 2, 6, 1500),
            )
            .build()
            .unwrap();
        fed.run_until(SimTime::from_secs(120));

        // Forward a job from cluster 1 before the partition: needs fast
        // CPUs, so it lands on cluster 2.
        let mut fast = JobSpec::sequential("fast", 50_000);
        fast.requirements.min_cpu_mips = 1000;
        let placed = fed.submit(ClusterId(1), fast).unwrap();
        assert_eq!(placed.id.cluster, ClusterId(2));

        // Partition starts at 130s; crash the origin GRM inside it too.
        fed.run_until(SimTime::from_secs(500));
        fed.crash_grm(ClusterId(1)).unwrap();
        fed.run_until(SimTime::from_secs(1500));

        // The remote cluster kept computing through partition and crash.
        assert_eq!(fed.job_state(placed.id), Some(JobState::Completed));
        assert!(
            !fed.origin_knows_complete(placed.id),
            "seed {seed}: no status can have crossed the partition"
        );
        assert!(fed.wan_stats().partitioned > 0, "statuses were severed");

        // Heal + restart: the periodic status resend closes the loop.
        fed.restart_grm(ClusterId(1)).unwrap();
        fed.run_until(SimTime::from_secs(2400));
        assert!(
            fed.origin_knows_complete(placed.id),
            "seed {seed}: completion must survive partition + origin crash"
        );

        // New submissions from the healed origin work again.
        let placed2 = fed
            .submit(ClusterId(1), JobSpec::sequential("after-heal", 5_000))
            .unwrap();
        fed.run_until(SimTime::from_secs(4 * 3600));
        assert_eq!(fed.job_state(placed2.id), Some(JobState::Completed));
    }
}

#[test]
fn partition_makes_spillover_targets_unreachable() {
    let mut fed = Federation::builder()
        .seed(5)
        .wan_faults(FaultPlan::new(5).with_partition(Partition {
            island: vec![HostId(0)],
            start: SimTime::ZERO,
            heal: SimTime::from_secs(10_000),
        }))
        .root(ClusterId(0), grid_of(TickMode::Lazy, 5, 2, 500))
        .child(
            ClusterId(1),
            ClusterId(0),
            grid_of(TickMode::Lazy, 6, 8, 500),
        )
        .build()
        .unwrap();
    fed.run_until(SimTime::from_secs(120));
    // Cluster 0 cannot fit 6 tasks locally and its only WAN edge is
    // severed: the probe never reaches cluster 1.
    let err = fed
        .submit(ClusterId(0), JobSpec::bag_of_tasks("marooned", 6, 10_000))
        .unwrap_err();
    assert_eq!(
        err,
        integrade::core::federation::FederationError::Unsatisfiable
    );
    assert!(fed.wan_stats().partitioned > 0);
}
