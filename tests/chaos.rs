//! Chaos suite: the hardened negotiation protocol and GRM crash/recovery
//! under deterministic fault injection — message drops, latency jitter,
//! link partitions and host outages, all derived from the master seed.
//!
//! Every test asserts the same liveness invariant: **every submitted job
//! completes** despite the injected faults — no wedged `Running` jobs, no
//! leftover reservations, no double-reserved parts.
//!
//! The seed matrix defaults to a small set for `cargo test`; CI widens it
//! via the `CHAOS_SEEDS` environment variable (comma-separated u64s).

use integrade::core::asct::{JobSpec, JobState};
use integrade::core::grid::{Grid, GridBuilder, GridConfig, NodeSetup};
use integrade::core::types::NodeId;
use integrade::simnet::faults::{FaultPlan, HostOutage, Partition};
use integrade::simnet::time::{SimDuration, SimTime};

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
        Err(_) => vec![1, 2, 3, 4],
    }
}

fn chaos_grid(nodes: usize, seed: u64) -> Grid {
    let config = GridConfig::builder()
        .seed(seed)
        .gupa_warmup_days(0)
        .sequential_checkpoint_mips_s(30_000.0)
        .build();
    let mut builder = GridBuilder::new(config);
    builder.add_cluster((0..nodes).map(|_| NodeSetup::idle_desktop()).collect());
    builder.build()
}

/// A small mixed workload: one long sequential job and one bag of tasks.
fn submit_workload(grid: &mut Grid) -> Vec<integrade::core::types::JobId> {
    vec![
        grid.submit(JobSpec::sequential("chaos-seq", 400_000)),
        grid.submit(JobSpec::bag_of_tasks("chaos-bag", 4, 90_000)),
    ]
}

/// The liveness invariant every chaos run must satisfy.
fn assert_all_completed(grid: &Grid, jobs: &[integrade::core::types::JobId], ctx: &str) {
    for job in jobs {
        let record = grid.job_record(*job).unwrap();
        assert_eq!(
            record.state,
            JobState::Completed,
            "{ctx}: job {job} wedged: {record:?}"
        );
    }
    // Nothing left behind on any node: no orphaned running parts, no
    // leaked reservations (leases must have reclaimed any orphans).
    for n in 0..grid.node_count() as u32 {
        let lrm = grid.lrm(NodeId(n)).unwrap();
        assert!(
            lrm.running().is_empty(),
            "{ctx}: node {n} still runs parts after completion"
        );
        assert!(
            lrm.reservations().is_empty(),
            "{ctx}: node {n} leaked reservations"
        );
    }
}

#[test]
fn jobs_complete_under_default_chaos() {
    for seed in chaos_seeds() {
        let mut grid = chaos_grid(6, seed);
        grid.set_fault_plan(
            FaultPlan::new(seed)
                .with_drop_probability(0.05)
                .with_jitter(SimDuration::from_millis(50)),
        );
        let jobs = submit_workload(&mut grid);
        grid.run_until(SimTime::from_secs(12 * 3600));
        assert_all_completed(&grid, &jobs, &format!("seed {seed}, 5% drop"));
        assert!(
            grid.report().net.drops > 0,
            "seed {seed}: the fault plan injected no drops"
        );
    }
}

#[test]
fn heavy_loss_is_absorbed_by_retransmission_and_dedup() {
    let mut total_retransmits = 0u64;
    for seed in chaos_seeds() {
        let mut grid = chaos_grid(6, seed);
        grid.set_fault_plan(FaultPlan::new(seed).with_drop_probability(0.20));
        let jobs = submit_workload(&mut grid);
        grid.run_until(SimTime::from_secs(24 * 3600));
        assert_all_completed(&grid, &jobs, &format!("seed {seed}, 20% drop"));
        total_retransmits += grid.log().count("retransmits") as u64;
        // Dedup must hold the double-reserve invariant: a granted-but-lost
        // ReserveReply answered again from the cache, never re-executed.
        // (Asserted structurally by the leak check in assert_all_completed;
        // the counter shows the machinery actually engaged somewhere.)
    }
    assert!(
        total_retransmits > 0,
        "a 20% drop rate across the seed matrix must force retransmissions"
    );
}

#[test]
fn grm_crash_mid_run_recovers_every_job() {
    for seed in chaos_seeds() {
        let mut grid = chaos_grid(6, seed);
        grid.set_fault_plan(FaultPlan::new(seed).with_drop_probability(0.05));
        let jobs = submit_workload(&mut grid);
        // Crash the manager while jobs are mid-flight, restart 5 minutes
        // later (volatile GRM state is gone; LRMs re-announce via epoch).
        grid.run_until(SimTime::from_secs(900));
        grid.crash_grm();
        grid.run_until(SimTime::from_secs(1200));
        grid.restart_grm();
        grid.run_until(SimTime::from_secs(24 * 3600));
        assert_all_completed(&grid, &jobs, &format!("seed {seed}, GRM crash"));
        assert_eq!(grid.log().count("grm.crash"), 1);
        assert!(
            grid.log().count("grm.epoch") >= 1,
            "seed {seed}: the restart must be visible as an epoch change"
        );
    }
}

#[test]
fn partition_heals_and_jobs_finish() {
    for seed in chaos_seeds() {
        let mut grid = chaos_grid(6, seed);
        // Cut two nodes off from the manager (and everyone else) between
        // t=10min and t=25min.
        let island = vec![grid.host_of(NodeId(0)), grid.host_of(NodeId(1))];
        grid.set_fault_plan(
            FaultPlan::new(seed)
                .with_drop_probability(0.02)
                .with_partition(Partition {
                    island,
                    start: SimTime::from_secs(600),
                    heal: SimTime::from_secs(1500),
                }),
        );
        let jobs = submit_workload(&mut grid);
        grid.run_until(SimTime::from_secs(24 * 3600));
        assert_all_completed(&grid, &jobs, &format!("seed {seed}, partition"));
    }
}

#[test]
fn scheduled_outage_crashes_and_reboots_a_node() {
    for seed in chaos_seeds() {
        let mut grid = chaos_grid(4, seed);
        let victim = grid.host_of(NodeId(0));
        grid.set_fault_plan(FaultPlan::new(seed).with_outage(HostOutage {
            host: victim,
            down_at: SimTime::from_secs(900),
            up_at: SimTime::from_secs(2700),
        }));
        let jobs = submit_workload(&mut grid);
        grid.run_until(SimTime::from_secs(24 * 3600));
        assert_all_completed(&grid, &jobs, &format!("seed {seed}, outage"));
        assert_eq!(grid.log().count("node.crash"), 1, "seed {seed}");
        assert_eq!(grid.log().count("node.restore"), 1, "seed {seed}");
    }
}

#[test]
fn payload_corruption_is_detected_and_absorbed() {
    for seed in chaos_seeds() {
        let mut grid = chaos_grid(6, seed);
        // Bit flips in flight: the checkpoint digests (and, for damaged
        // control frames, CDR/GIOP validation plus retransmission) must
        // turn corruption into delay, never into wrong state.
        grid.set_fault_plan(FaultPlan::new(seed).with_corrupt_probability(0.10));
        let jobs = submit_workload(&mut grid);
        grid.run_until(SimTime::from_secs(24 * 3600));
        assert_all_completed(&grid, &jobs, &format!("seed {seed}, 10% corruption"));
        assert!(
            grid.log().count("net.corrupt") > 0,
            "seed {seed}: the fault plan injected no corruption"
        );
    }
}

/// Replica management under compound failure: kill k-1 = 1 of the default
/// two checkpoint replicas mid-run AND the GRM (losing its soft-state
/// placement map), and every job must still complete.
#[test]
fn killing_k_minus_one_replicas_and_the_grm_still_completes() {
    for seed in chaos_seeds() {
        let mut grid = chaos_grid(6, seed);
        let jobs = vec![grid.submit(JobSpec::sequential("chaos-repl", 600_000))];
        grid.run_until(SimTime::from_secs(1500));
        // The sequential job checkpoints every ~200 s; by now the GRM has
        // learned where the replicas live from status-update re-announces.
        let holders = grid.replica_holders(jobs[0], 0);
        assert!(
            !holders.is_empty(),
            "seed {seed}: no replicas announced after 25 min"
        );
        grid.crash_node(holders[0]);
        grid.run_until(SimTime::from_secs(2100));
        grid.crash_grm();
        grid.run_until(SimTime::from_secs(2400));
        grid.restart_grm();
        grid.run_until(SimTime::from_secs(24 * 3600));
        assert_all_completed(&grid, &jobs, &format!("seed {seed}, replica+GRM crash"));
    }
}

/// The acceptance scenario: with corruption faults active, crash one
/// checkpoint replica, then the node running the part, then the GRM — in
/// that order, mid-job. The part must resume from a digest-verified
/// surviving replica, and the repository machinery must be visible in the
/// event log: corruption detected, the lost replica re-replicated, and
/// superseded checkpoints garbage-collected.
#[test]
fn replica_then_executor_then_grm_crash_recovers_from_verified_replica() {
    // Fixed seed: the asserted counters are properties of this seeded
    // schedule, not of every seed in the CI matrix.
    let seed = 5;
    let mut grid = chaos_grid(6, seed);
    grid.set_fault_plan(FaultPlan::new(seed).with_corrupt_probability(0.10));
    let job = grid.submit(JobSpec::sequential("acceptance", 1_200_000));
    grid.run_until(SimTime::from_secs(1800));

    // 1. Crash one replica holder: re-replication must restore k.
    let holders = grid.replica_holders(job, 0);
    assert!(!holders.is_empty(), "replicas announced after 30 min");
    grid.crash_node(holders[0]);
    grid.run_until(SimTime::from_secs(3000));
    assert!(
        grid.log().count("repo.rereplicated") >= 1,
        "a dead holder must trigger re-replication"
    );

    // 2. Crash the executor: recovery reads a surviving, intact replica.
    let executor = (0..grid.node_count() as u32)
        .map(NodeId)
        .find(|&n| !grid.lrm(n).unwrap().running().is_empty())
        .expect("part is running somewhere");
    grid.crash_node(executor);
    grid.run_until(SimTime::from_secs(4500));
    assert!(
        grid.log().count("repo.fetch") >= 1,
        "recovery must read a digest-verified replica"
    );

    // 3. Crash and restart the GRM: the placement map is soft state and
    // must rebuild from LRM re-announces.
    grid.crash_grm();
    grid.run_until(SimTime::from_secs(4800));
    grid.restart_grm();
    grid.run_until(SimTime::from_secs(36 * 3600));

    let record = grid.job_record(job).unwrap();
    assert_eq!(record.state, JobState::Completed, "{record:?}");
    assert!(
        grid.log().count("corrupt_detected") >= 1,
        "in-flight corruption of checkpoint traffic must be caught by digests"
    );
    assert!(
        grid.log().count("repo.gc") >= 1,
        "superseded checkpoint versions must be garbage-collected"
    );
    assert!(
        grid.log().count("repo.purge") >= 1,
        "completion must purge the job's replicas"
    );
}

#[test]
fn identical_seeds_replay_identical_chaos() {
    let run = |seed: u64| {
        let mut grid = chaos_grid(6, seed);
        grid.set_fault_plan(
            FaultPlan::new(seed)
                .with_drop_probability(0.10)
                .with_jitter(SimDuration::from_millis(20)),
        );
        let jobs = submit_workload(&mut grid);
        grid.run_until(SimTime::from_secs(900));
        grid.crash_grm();
        grid.run_until(SimTime::from_secs(1200));
        grid.restart_grm();
        grid.run_until(SimTime::from_secs(24 * 3600));
        let report = grid.report();
        let completions: Vec<_> = jobs
            .iter()
            .map(|j| {
                let r = grid.job_record(*j).unwrap();
                (r.state, r.completed_at)
            })
            .collect();
        (
            report.net.messages,
            report.net.drops,
            grid.log().count("retransmits"),
            completions,
        )
    };
    let seed = chaos_seeds()[0];
    assert_eq!(run(seed), run(seed), "chaos must replay bit-for-bit");
}

/// The full threat model in one run: crash faults (mid-run GRM death and
/// restart), gray faults (a sustained CPU derate plus message drops) and
/// Byzantine faults (two always-on saboteurs, one of them also derated)
/// stacked together, with certification voting armed. Liveness must hold
/// — every job completes — and so must safety: the omniscient counter
/// must record **zero** wrong results delivered, across the seed matrix.
#[test]
fn saboteurs_derates_and_grm_crash_deliver_zero_wrong_results() {
    use integrade::simnet::faults::{DerateWindow, Saboteur};
    for seed in chaos_seeds() {
        let config = GridConfig::builder()
            .seed(seed)
            .gupa_warmup_days(0)
            .sequential_checkpoint_mips_s(30_000.0)
            .certification(true)
            .cert_replication(2)
            .build();
        let mut builder = GridBuilder::new(config);
        builder.add_cluster((0..6).map(|_| NodeSetup::idle_desktop()).collect());
        let mut grid = builder.build();
        let mut plan = FaultPlan::new(seed)
            .with_drop_probability(0.05)
            // Saboteur 0 is also derated: a slow liar exercises the
            // certification and straggler paths against the same part.
            .with_derate(DerateWindow {
                host: grid.host_of(NodeId(0)),
                start: SimTime::from_secs(0),
                end: SimTime::from_secs(24 * 3600),
                factor: 0.4,
            });
        for n in 0..2u32 {
            plan = plan.with_saboteur(Saboteur {
                host: grid.host_of(NodeId(n)),
                start: SimTime::from_secs(0),
                end: SimTime::from_secs(24 * 3600),
                probability: 0.7,
                collusion: None,
            });
        }
        grid.set_fault_plan(plan);
        let jobs = submit_workload(&mut grid);
        grid.run_until(SimTime::from_secs(900));
        grid.crash_grm();
        grid.run_until(SimTime::from_secs(1200));
        grid.restart_grm();
        grid.run_until(SimTime::from_secs(24 * 3600));
        assert_all_completed(
            &grid,
            &jobs,
            &format!("seed {seed}, saboteurs + derate + grm crash"),
        );
        assert_eq!(
            grid.metrics_snapshot()
                .counter("grid_cert_wrong_delivered")
                .unwrap_or(0),
            0,
            "seed {seed}: a wrong result was delivered despite certification"
        );
        assert_eq!(grid.log().count("grm.crash"), 1, "seed {seed}");
    }
}

/// Gray failures layered on hard ones: one host computes at 30% the whole
/// run (a sustained derate no heartbeat can see), another flaps through
/// three crash/reboot cycles, messages drop, and the GRM itself dies and
/// restarts mid-run — with speculative re-execution armed. The liveness
/// invariant must survive the full stack: detection and twin races must
/// never wedge a job, leak a reservation, or leave a duplicate executor.
#[test]
fn derate_flap_and_grm_crash_with_speculation_still_complete() {
    use integrade::simnet::faults::{DerateWindow, HostFlap};
    for seed in chaos_seeds() {
        let config = GridConfig::builder()
            .seed(seed)
            .gupa_warmup_days(0)
            .sequential_checkpoint_mips_s(30_000.0)
            .speculation(true)
            .build();
        let mut builder = GridBuilder::new(config);
        builder.add_cluster((0..6).map(|_| NodeSetup::idle_desktop()).collect());
        let mut grid = builder.build();
        grid.set_fault_plan(
            FaultPlan::new(seed)
                .with_drop_probability(0.05)
                .with_jitter(SimDuration::from_millis(20))
                .with_derate(DerateWindow {
                    host: grid.host_of(NodeId(0)),
                    start: SimTime::from_secs(0),
                    end: SimTime::from_secs(24 * 3600),
                    factor: 0.3,
                })
                .with_flap(HostFlap {
                    host: grid.host_of(NodeId(5)),
                    first_down: SimTime::from_secs(600),
                    down_for: SimDuration::from_secs(120),
                    up_for: SimDuration::from_secs(600),
                    cycles: 3,
                }),
        );
        let jobs = submit_workload(&mut grid);
        grid.run_until(SimTime::from_secs(900));
        grid.crash_grm();
        grid.run_until(SimTime::from_secs(1200));
        grid.restart_grm();
        grid.run_until(SimTime::from_secs(24 * 3600));
        assert_all_completed(
            &grid,
            &jobs,
            &format!("seed {seed}, derate + flap + grm crash + speculation"),
        );
        assert!(
            grid.log().count("node.crash") >= 3,
            "seed {seed}: the flap must actually crash its host"
        );
    }
}

/// A gang member's launch frame is lost and sits in its 30 s retransmit
/// window when another member is evicted: the teardown gives up on the
/// launch (the member's LRM answers the cancel "not found" and keeps its
/// reservation), the retransmission then arrives and is accepted. The GRM
/// no longer tracks that launch, so the accepted copy must be torn back
/// down — never left computing alone, never marked `Running` without a
/// node — and the gang must restart whole.
#[test]
fn a_launch_accepted_after_its_gang_was_torn_down_is_cancelled() {
    use integrade::usage::sample::UsageSample;
    let (idle, busy) = (
        UsageSample::new(0.02, 0.05, 0.0, 0.0),
        UsageSample::new(0.8, 0.5, 0.1, 0.05),
    );
    // Node 0's owner returns at the 300 s slot and node 2's leaves then,
    // both for longer than the run: the first gang can only be nodes
    // 0 + 1 and the second only 1 + 2.
    let from_300s = |first, then| [vec![first], vec![then; 60]].concat();
    let traces = [from_300s(idle, busy), vec![], from_300s(busy, idle)];
    let run = |partition_from: Option<SimTime>| {
        let config = GridConfig::builder().gupa_warmup_days(0).build();
        let mut builder = GridBuilder::new(config);
        builder.add_cluster(
            traces
                .iter()
                .map(|trace| NodeSetup {
                    trace: trace.clone(),
                    ..NodeSetup::idle_desktop()
                })
                .collect(),
        );
        let mut grid = builder.build();
        if let Some(start) = partition_from {
            grid.set_fault_plan(FaultPlan::new(1).with_partition(Partition {
                island: vec![grid.host_of(NodeId(1))],
                start,
                heal: start + SimDuration::from_secs(5),
            }));
        }
        grid.submit_at(
            JobSpec::bsp("gang", 2, 40, 3000, 10_000),
            SimTime::from_secs(290),
        );
        grid.run_until(SimTime::from_secs(4 * 3600));
        grid
    };
    // Fault-free, the gang launches a few ms after 290 s; cutting node 1
    // off from exactly that instant loses its launch frame and nothing
    // before it.
    let launched_at = run(None).log().first("job.gang_launch").unwrap().time;
    let grid = run(Some(launched_at));
    let log = grid.log();
    assert!(
        log.count("retransmits") >= 2,
        "the launch was retransmitted"
    );
    assert_eq!(log.count("job.rollback"), 1, "node 0's eviction tore down");
    let job = integrade::core::types::JobId(1);
    assert_all_completed(&grid, &[job], "launch orphan");
    let record = grid.job_record(job).unwrap();
    assert_eq!((record.parts_done, record.evictions), (2, 1), "{record:?}");
    assert_eq!(log.count("job.gang_launch"), 2, "the gang restarted whole");
    assert_eq!(log.count("grm.launch_orphan"), 1, "the launch outlived it");
    assert_eq!(log.count("grm.orphan_stopped"), 1, "and was found running");
    assert!(log.happens_before("grm.orphan_stopped", "job.part_done"));
}
