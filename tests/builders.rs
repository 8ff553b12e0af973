//! Builder parity: the fluent `GridConfig::builder()` / `JobSpec::with_*`
//! front doors must be *pure sugar* — for every reachable combination of
//! settings they produce exactly the value the raw struct-literal path
//! produces, and a grid assembled from either config behaves identically.
//!
//! The structs keep their `pub` fields on purpose (existing literals
//! compile forever); these properties are the contract that the two
//! construction styles can never drift apart.

use integrade::core::asct::{JobRequirements, JobSpec, Requirement, SchedulingPreference};
use integrade::core::grid::{GridBuilder, GridConfig, NodeSetup, TickMode};
use integrade::core::types::Platform;
use integrade::simnet::time::{SimDuration, SimTime};
use proptest::prelude::*;

/// Tick values that satisfy the builder's divides-a-day invariant.
const VALID_TICK_MINS: [u32; 8] = [1, 2, 5, 10, 15, 30, 60, 120];

fn preference() -> impl Strategy<Value = SchedulingPreference> {
    prop_oneof![
        Just(SchedulingPreference::FastestCpu),
        Just(SchedulingPreference::MostFreeRam),
        Just(SchedulingPreference::LeastLoaded),
        Just(SchedulingPreference::LongestPredictedIdle),
        Just(SchedulingPreference::Random),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Every builder chain equals the struct literal carrying the same
    /// values (compared through `Debug`, which covers every field —
    /// `GridConfig` aggregates non-`PartialEq` sub-configs).
    #[test]
    fn grid_config_builder_matches_struct_literal(
        seed in any::<u64>(),
        tick_idx in 0usize..VALID_TICK_MINS.len(),
        max_candidates in 1usize..64,
        max_attempts in 1u32..8,
        delta in any::<bool>(),
        failover in any::<bool>(),
        checkpoint in prop_oneof![Just(0.0f64), Just(500.0), Just(30_000.0)],
        replication in 0usize..5,
        retransmits in 0u32..6,
        silence_s in 60u64..7_200,
        warmup in 0usize..3,
    ) {
        let tick_mins = VALID_TICK_MINS[tick_idx];
        let built = GridConfig::builder()
            .seed(seed)
            .tick_mins(tick_mins)
            .max_candidates(max_candidates)
            .max_attempts(max_attempts)
            .delta_suppression(delta)
            .candidate_failover(failover)
            .sequential_checkpoint_mips_s(checkpoint)
            .replication_factor(replication)
            .max_retransmits(retransmits)
            .crash_silence(SimDuration::from_secs(silence_s))
            .gupa_warmup_days(warmup)
            .tick_mode(TickMode::Reference)
            .build();

        let mut lrm = GridConfig::default().lrm;
        lrm.sampling.interval_mins = tick_mins;
        lrm.delta_suppression = delta;
        let literal = GridConfig {
            seed,
            tick: SimDuration::from_mins(u64::from(tick_mins)),
            lrm,
            max_candidates,
            max_attempts,
            candidate_failover: failover,
            sequential_checkpoint_mips_s: checkpoint,
            replication_factor: replication,
            max_retransmits: retransmits,
            crash_silence: SimDuration::from_secs(silence_s),
            gupa_warmup_days: warmup,
            tick_mode: TickMode::Reference,
            ..GridConfig::default()
        };

        prop_assert_eq!(format!("{built:?}"), format!("{literal:?}"));
    }

    /// The fluent `JobSpec` API equals hand-assembled requirements: the
    /// typed `Requirement` list folds to the same `JobRequirements`, the
    /// preference lands, and `with_requirement` layers on top rather than
    /// replacing.
    #[test]
    fn job_spec_fluent_api_matches_struct_assembly(
        ram in 0u64..4_096,
        mips in 0u64..10_000,
        want_platform in any::<bool>(),
        extra in prop_oneof![
            Just(None),
            Just(Some("free_cpu >= 0.5".to_owned())),
        ],
        pref in preference(),
        work in 1u64..1_000_000,
    ) {
        let mut reqs = vec![
            Requirement::MinRamMb(ram),
            Requirement::MinCpuMips(mips),
        ];
        if want_platform {
            reqs.push(Requirement::Platform(Platform::linux_x86()));
        }
        if let Some(clause) = &extra {
            reqs.push(Requirement::Constraint(clause.clone()));
        }
        let fluent = JobSpec::sequential("parity", work)
            .with_requirements(reqs.clone())
            .with_preference(pref);

        let mut manual = JobSpec::sequential("parity", work);
        manual.requirements = JobRequirements {
            platform: want_platform.then(Platform::linux_x86),
            min_ram_mb: ram,
            min_cpu_mips: mips,
            extra_constraint: extra,
        };
        manual.preference = pref;

        prop_assert_eq!(&fluent, &manual);

        // Layering: appending one requirement only touches its field.
        let layered = fluent.clone().with_requirement(Requirement::MinRamMb(ram + 1));
        prop_assert_eq!(layered.requirements.min_ram_mb, ram + 1);
        prop_assert_eq!(layered.requirements.min_cpu_mips, mips);
        prop_assert_eq!(layered.preference, pref);
    }
}

/// `default_5min()` is `default()` under its honest name, and a grid built
/// from either runs bit-for-bit identically.
#[test]
fn default_5min_is_default_at_runtime() {
    let run = |config: GridConfig| {
        let mut builder = GridBuilder::new(config);
        builder.add_cluster((0..3).map(|_| NodeSetup::idle_desktop()).collect());
        let mut grid = builder.build();
        grid.submit(JobSpec::sequential("probe", 20_000));
        grid.run_until(SimTime::from_secs(3_600));
        (grid.log().records().to_vec(), grid.report().records)
    };
    let named = run(GridConfig::default_5min());
    let default = run(GridConfig::default());
    let built = run(GridConfig::builder().build());
    assert_eq!(named, default, "default_5min diverged from default");
    assert_eq!(named, built, "builder defaults diverged from default");
}

/// The builder's validation actually gates `build()`: the exact invalid
/// combinations the docs promise to reject are rejected, and everything a
/// valid chain produces passes `try_build`.
#[test]
fn invalid_combinations_are_rejected() {
    assert!(GridConfig::builder().tick_mins(0).try_build().is_err());
    assert!(
        GridConfig::builder().tick_mins(7).try_build().is_err(),
        "7 does not divide 1440"
    );
    assert!(GridConfig::builder().max_candidates(0).try_build().is_err());
    assert!(GridConfig::builder().max_attempts(0).try_build().is_err());
    assert!(GridConfig::builder()
        .sequential_checkpoint_mips_s(-1.0)
        .try_build()
        .is_err());
    assert!(GridConfig::builder()
        .sequential_checkpoint_mips_s(f64::INFINITY)
        .try_build()
        .is_err());
}
