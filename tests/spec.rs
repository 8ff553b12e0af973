//! Gray failures and speculative re-execution: a derated host keeps
//! answering every protocol message on time while computing at a fraction
//! of its advertised MIPS, so crash detection never fires. These tests
//! pin the other half of the robustness story — the GRM's progress-based
//! straggler detector notices the rate gap, launches a checkpoint-resumed
//! twin on a healthy node, the first copy to finish wins, and the loser
//! is torn down without leaking executors or reservations.

use integrade::core::asct::{JobSpec, JobState};
use integrade::core::grid::{Grid, GridBuilder, GridConfig, NodeSetup, TickMode};
use integrade::core::types::{JobId, NodeId};
use integrade::simnet::faults::{DerateWindow, FaultPlan};
use integrade::simnet::time::SimTime;

fn spec_grid(nodes: usize, seed: u64, speculation: bool) -> Grid {
    let config = GridConfig::builder()
        .seed(seed)
        .gupa_warmup_days(0)
        .sequential_checkpoint_mips_s(30_000.0)
        .speculation(speculation)
        .build();
    let mut builder = GridBuilder::new(config);
    builder.add_cluster((0..nodes).map(|_| NodeSetup::idle_desktop()).collect());
    builder.build()
}

/// Derates the first `slow` nodes to `factor` for the whole run — a
/// sustained gray failure no heartbeat can see.
fn derate_first(grid: &mut Grid, seed: u64, slow: usize, factor: f64) {
    let mut plan = FaultPlan::new(seed);
    for n in 0..slow {
        plan = plan.with_derate(DerateWindow {
            host: grid.host_of(NodeId(n as u32)),
            start: SimTime::from_secs(0),
            end: SimTime::from_secs(48 * 3600),
            factor,
        });
    }
    grid.set_fault_plan(plan);
}

fn makespan_s(grid: &Grid, job: JobId) -> f64 {
    grid.job_record(job)
        .unwrap()
        .makespan()
        .expect("job completed")
        .as_secs_f64()
}

/// One run: six equal tasks on six nodes, one of them quietly computing
/// at a quarter speed. Returns (grid, job) after a 24h horizon.
fn run_one_straggler(seed: u64, speculation: bool) -> (Grid, JobId) {
    let mut grid = spec_grid(6, seed, speculation);
    derate_first(&mut grid, seed, 1, 0.25);
    let job = grid.submit(JobSpec::bag_of_tasks("spec-bag", 6, 300_000));
    grid.run_until(SimTime::from_secs(24 * 3600));
    (grid, job)
}

#[test]
fn straggler_is_detected_and_speculation_wins_the_race() {
    let (grid, job) = run_one_straggler(42, true);
    assert_eq!(
        grid.job_record(job).unwrap().state,
        JobState::Completed,
        "job must complete despite the gray failure"
    );
    assert!(grid.log().count("straggler.detected") >= 1);
    assert!(grid.log().count("spec.launched") >= 1);
    assert!(
        grid.log().count("spec.won") >= 1,
        "the healthy twin must outrun a 4x-derated primary"
    );
    assert!(
        grid.log().count("spec.cancelled") >= 1,
        "the losing primary must be torn down"
    );
    // The loser's computation is truthfully accounted as waste.
    assert!(grid.job_record(job).unwrap().wasted_work_mips_s > 0);
}

#[test]
fn speculation_strictly_improves_makespan_under_gray_failure() {
    let (off, job_off) = run_one_straggler(42, false);
    let (on, job_on) = run_one_straggler(42, true);
    let (m_off, m_on) = (makespan_s(&off, job_off), makespan_s(&on, job_on));
    assert!(
        m_on < m_off,
        "speculation on ({m_on}s) must beat speculation off ({m_off}s)"
    );
    assert_eq!(off.log().count("spec.launched"), 0);
}

#[test]
fn without_speculation_the_detector_stays_dark() {
    let (grid, job) = run_one_straggler(7, false);
    assert_eq!(grid.job_record(job).unwrap().state, JobState::Completed);
    assert_eq!(grid.log().count("straggler.detected"), 0);
    assert_eq!(grid.log().count("spec.launched"), 0);
}

/// Satellite: twin placement must consult the detector's evidence. With
/// two gray-failed hosts the trader still sees two healthy-looking
/// machines; placing either backup there would inherit the slowness.
#[test]
fn twins_avoid_other_suspected_stragglers() {
    let mut grid = spec_grid(6, 42, true);
    derate_first(&mut grid, 42, 2, 0.25);
    let job = grid.submit(JobSpec::bag_of_tasks("spec-bag2", 6, 300_000));
    grid.run_until(SimTime::from_secs(24 * 3600));
    assert_eq!(grid.job_record(job).unwrap().state, JobState::Completed);
    assert_eq!(grid.log().count("straggler.detected"), 2);
    assert_eq!(
        grid.log().count("spec.won"),
        2,
        "both backups must land on healthy nodes and win"
    );
}

/// Satellite regression: at every instant each part has at most one live
/// executor outside speculation and at most two (primary + twin) during
/// it, and after the race settles exactly zero copies survive anywhere —
/// the winner reported done, the loser was cancelled.
#[test]
fn at_most_two_executors_during_speculation_and_one_winner() {
    let mut grid = spec_grid(6, 42, true);
    derate_first(&mut grid, 42, 1, 0.25);
    let job = grid.submit(JobSpec::bag_of_tasks("spec-execs", 6, 300_000));
    let mut saw_two = false;
    for step in 1..=96 {
        grid.run_until(SimTime::from_secs(step * 600));
        for part in 0..6u32 {
            let execs = grid.part_executors(job, part);
            assert!(
                execs.len() <= 2,
                "part {part} has {execs:?} live executors at t={}s",
                step * 600
            );
            saw_two |= execs.len() == 2;
            // Cross-check the control plane against the nodes themselves:
            // every LRM running this part must be one of the two sanctioned
            // copies (no orphaned third execution anywhere).
            for n in 0..grid.node_count() as u32 {
                let lrm = grid.lrm(NodeId(n)).unwrap();
                let runs_it = lrm.running().iter().any(|p| p.job == job && p.part == part);
                if runs_it {
                    assert!(
                        execs.contains(&NodeId(n)),
                        "node {n} runs part {part} outside the sanctioned set {execs:?}"
                    );
                }
            }
        }
    }
    assert!(saw_two, "the scenario must actually exercise a twin race");
    assert_eq!(grid.job_record(job).unwrap().state, JobState::Completed);
    for part in 0..6u32 {
        assert!(
            grid.part_executors(job, part).is_empty(),
            "part {part} still has live executors after completion"
        );
    }
    for n in 0..grid.node_count() as u32 {
        let lrm = grid.lrm(NodeId(n)).unwrap();
        assert!(lrm.running().is_empty(), "node {n} still computing");
        assert!(lrm.reservations().is_empty(), "node {n} leaked a lease");
    }
}

/// The detector is rate-relative, not absolute: a uniformly slow cluster
/// has no straggler, and nothing should fire.
#[test]
fn uniform_derate_triggers_no_speculation() {
    let mut grid = spec_grid(6, 42, true);
    derate_first(&mut grid, 42, 6, 0.5);
    let job = grid.submit(JobSpec::bag_of_tasks("spec-uniform", 6, 150_000));
    grid.run_until(SimTime::from_secs(24 * 3600));
    assert_eq!(grid.job_record(job).unwrap().state, JobState::Completed);
    assert_eq!(
        grid.log().count("straggler.detected"),
        0,
        "uniform slowness is not straggling"
    );
}

/// Gray-failure handling must behave identically under the lazy walk — the
/// detector reads GRM state between slot frames, so the log stream must
/// match the reference walk exactly.
#[test]
fn speculation_is_identical_across_tick_modes() {
    let run = |mode: TickMode| {
        let config = GridConfig::builder()
            .seed(42)
            .gupa_warmup_days(0)
            .sequential_checkpoint_mips_s(30_000.0)
            .speculation(true)
            .tick_mode(mode)
            .build();
        let mut builder = GridBuilder::new(config);
        builder.add_cluster((0..6).map(|_| NodeSetup::idle_desktop()).collect());
        let mut grid = builder.build();
        derate_first(&mut grid, 42, 1, 0.25);
        let job = grid.submit(JobSpec::bag_of_tasks("spec-modes", 6, 300_000));
        grid.run_until(SimTime::from_secs(24 * 3600));
        (
            grid.log().count("straggler.detected"),
            grid.log().count("spec.launched"),
            grid.log().count("spec.won"),
            grid.log().count("spec.cancelled"),
            makespan_s(&grid, job),
        )
    };
    let reference = run(TickMode::Reference);
    assert_eq!(run(TickMode::Lazy), reference);
    assert!(reference.2 >= 1, "the scenario must exercise a win");
}
