//! Node-crash recovery: §3's "resume the application in case of crashes",
//! driven by negotiation timeouts, GRM-side crash detection and the
//! checkpoint repository fed by status updates.

use integrade::core::asct::{JobSpec, JobState};
use integrade::core::grid::{GridBuilder, GridConfig, NodeSetup};
use integrade::core::types::NodeId;
use integrade::simnet::time::{SimDuration, SimTime};

/// The same seed matrix the chaos suite uses: a small default set for
/// `cargo test`, widened in CI via `CHAOS_SEEDS`.
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

fn grid_seeded(nodes: usize, seed: u64) -> integrade::core::grid::Grid {
    let config = GridConfig::builder()
        .seed(seed)
        .gupa_warmup_days(0)
        .sequential_checkpoint_mips_s(30_000.0) // checkpoint every ~200 s of grid CPU
        .build();
    let mut builder = GridBuilder::new(config);
    builder.add_cluster((0..nodes).map(|_| NodeSetup::idle_desktop()).collect());
    builder.build()
}

#[test]
fn crash_during_execution_recovers_from_repository() {
    for seed in chaos_seeds() {
        let mut grid = grid_seeded(3, seed);
        // A long sequential job (~2 h at the 150-MIPS grid share).
        let job = grid.submit(JobSpec::sequential("long", 1_000_000));
        grid.run_until(SimTime::from_secs(1800)); // 30 min of progress
        let record = grid.job_record(job).unwrap();
        assert_eq!(record.state, JobState::Running, "seed {seed}");

        // Find and crash the hosting node.
        let host_node = (0..grid.node_count() as u32)
            .map(NodeId)
            .find(|&n| !grid.lrm(n).unwrap().running().is_empty())
            .expect("job is running somewhere");
        grid.crash_node(host_node);

        grid.run_until(SimTime::from_secs(6 * 3600));
        let record = grid.job_record(job).unwrap();
        assert_eq!(record.state, JobState::Completed, "seed {seed}: {record:?}");
        assert!(grid.log().count("grm.node_dead") >= 1, "crash detected");
        assert_eq!(record.evictions, 1, "seed {seed}: one eviction");
        // Checkpoint repository limited the redo: the job finished well
        // before a from-scratch restart would allow (restart-at-detection
        // would need ~2 h after the ~32-min detection point; give slack
        // for negotiation).
        let makespan = record.makespan().unwrap();
        assert!(
            makespan < SimDuration::from_secs(2 * 3600 + 45 * 60),
            "seed {seed}: repository checkpoint avoided a full redo: {makespan}"
        );
    }
}

#[test]
fn crash_without_checkpointing_restarts_from_zero() {
    for seed in chaos_seeds() {
        let config = GridConfig::builder()
            .seed(seed)
            .gupa_warmup_days(0)
            .sequential_checkpoint_mips_s(0.0) // no checkpoints at all
            .build();
        let mut builder = GridBuilder::new(config);
        builder.add_cluster((0..2).map(|_| NodeSetup::idle_desktop()).collect());
        let mut grid = builder.build();
        let job = grid.submit(JobSpec::sequential("fragile", 400_000));
        grid.run_until(SimTime::from_secs(1200));
        let host_node = (0..2u32)
            .map(NodeId)
            .find(|&n| !grid.lrm(n).unwrap().running().is_empty())
            .expect("running");
        grid.crash_node(host_node);
        grid.run_until(SimTime::from_secs(4 * 3600));
        let record = grid.job_record(job).unwrap();
        assert_eq!(record.state, JobState::Completed, "seed {seed}: {record:?}");
        // Without checkpoints the repository holds nothing: full restart,
        // so the makespan exceeds crash time + full job duration (~45 min
        // at 150 MIPS).
        assert!(
            record.makespan().unwrap() > SimDuration::from_secs(1200 + 2400),
            "seed {seed}"
        );
    }
}

#[test]
fn crash_during_negotiation_times_out_and_fails_over() {
    for seed in chaos_seeds() {
        // Returns the node that ends up executing the probe.
        let place = |crash: Option<NodeId>| {
            let mut grid = grid_seeded(3, seed);
            grid.run_until(SimTime::from_secs(60)); // initial updates arrive
            if let Some(node) = crash {
                grid.crash_node(node);
            }
            let job = grid.submit(JobSpec::sequential("probe", 300_000));
            grid.run_until(SimTime::from_secs(700));
            let executor = grid.part_executors(job, 0).first().copied();
            grid.run_until(SimTime::from_secs(3600));
            (executor, job, grid)
        };
        // Crash the scheduler's first choice *before* submitting: the
        // GRM's trader view still offers it, so the reserve goes there,
        // exhausts its retransmissions, counts as a refusal, and the next
        // candidate of the same round is tried.
        let (first_choice, ..) = place(None);
        let (second_choice, job, grid) = place(first_choice);
        assert!(second_choice.is_some() && second_choice != first_choice);
        let record = grid.job_record(job).unwrap();
        assert_eq!(record.state, JobState::Completed, "seed {seed}: {record:?}");
        assert_eq!(record.negotiation_refusals, 1, "seed {seed}");
        assert!(grid.log().count("grm.timeout") >= 1, "seed {seed}");
        let refused = grid.log().first("grm.refused").unwrap();
        assert!(refused.detail.ends_with("transport error"), "{refused}");
    }
}

#[test]
fn bsp_gang_survives_a_member_crash() {
    for seed in chaos_seeds() {
        let config = GridConfig::builder().seed(seed).gupa_warmup_days(0).build();
        let mut builder = GridBuilder::new(config);
        builder.add_cluster((0..5).map(|_| NodeSetup::idle_desktop()).collect());
        let mut grid = builder.build();
        // Checkpoint every 10 supersteps (JobSpec::bsp default).
        let job = grid.submit(JobSpec::bsp("gang", 3, 200, 10_000, 8_192));
        grid.run_until(SimTime::from_secs(3600));
        let host_node = (0..5u32)
            .map(NodeId)
            .find(|&n| !grid.lrm(n).unwrap().running().is_empty())
            .expect("gang running");
        grid.crash_node(host_node);
        grid.run_until(SimTime::from_secs(30 * 3600));
        let record = grid.job_record(job).unwrap();
        assert_eq!(record.state, JobState::Completed, "seed {seed}: {record:?}");
        assert!(grid.log().count("job.rollback") >= 1, "seed {seed}");
    }
}

#[test]
fn restored_node_rejoins_the_grid() {
    for seed in chaos_seeds() {
        let mut grid = grid_seeded(2, seed);
        grid.run_until(SimTime::from_secs(60));
        grid.crash_node(NodeId(0));
        grid.run_until(SimTime::from_secs(600));
        assert!(grid.log().count("grm.node_dead") >= 1, "seed {seed}");
        grid.restore_node(NodeId(0));
        // After reboot its LRM resumes updates and it schedules work again.
        grid.run_until(SimTime::from_secs(1500));
        let job = grid.submit(JobSpec::bag_of_tasks("post-reboot", 4, 30_000));
        grid.run_until(SimTime::from_secs(3 * 3600));
        assert_eq!(
            grid.job_record(job).unwrap().state,
            JobState::Completed,
            "seed {seed}"
        );
    }
}

/// A crashed executor's part resumes from a *replica* LRM's copy: the
/// recovery fetch is visible in the log and the makespan shows the banked
/// checkpoint was actually honoured.
#[test]
fn recovery_reads_a_replica_not_the_dead_node() {
    for seed in chaos_seeds() {
        let mut grid = grid_seeded(4, seed);
        let job = grid.submit(JobSpec::sequential("replicated", 800_000));
        grid.run_until(SimTime::from_secs(1800));
        let holders = grid.replica_holders(job, 0);
        assert!(
            !holders.is_empty(),
            "seed {seed}: replicas must be announced to the GRM"
        );
        let executor = (0..grid.node_count() as u32)
            .map(NodeId)
            .find(|&n| !grid.lrm(n).unwrap().running().is_empty())
            .expect("running somewhere");
        assert!(
            !holders.contains(&executor),
            "seed {seed}: the executor must never hold its own replica"
        );
        grid.crash_node(executor);
        grid.run_until(SimTime::from_secs(8 * 3600));
        let record = grid.job_record(job).unwrap();
        assert_eq!(record.state, JobState::Completed, "seed {seed}: {record:?}");
        assert!(
            grid.log().count("repo.fetch") >= 1,
            "seed {seed}: recovery must read a digest-verified replica copy"
        );
        assert!(
            grid.log().count("repo.store") >= 1,
            "seed {seed}: interval boundaries must have shipped replicas"
        );
    }
}
