//! Federation tests, and the parity of the round loop with the lazy loop
//! it replaced.

use super::*;
use crate::asct::{GroupRequest, TopologyRequest};
use crate::grid::{GridBuilder, GridConfig, NodeSetup};
use crate::hierarchy::UsageSummary;
use crate::par::chaos_salts;
use crate::types::ResourceVector;
use integrade_simnet::faults::{HostFlap, HostOutage, Partition};
use integrade_simnet::topology::HostId;

fn grid_of(n: usize, mips: u64) -> Grid {
    let mut builder = GridBuilder::new(GridConfig {
        gupa_warmup_days: 0,
        ..Default::default()
    });
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

/// root(0): 2 slow nodes; child(1): 8 slow; child(2): 6 fast.
fn builder_3() -> FederationBuilder {
    Federation::builder()
        .root(ClusterId(0), grid_of(2, 500))
        .child(ClusterId(1), ClusterId(0), grid_of(8, 500))
        .child(ClusterId(2), ClusterId(0), grid_of(6, 1500))
}

fn federation() -> Federation {
    let mut fed = builder_3().build().unwrap();
    // Let the intra-cluster update protocols populate the GRM views.
    fed.run_until(SimTime::from_secs(120));
    fed
}

#[test]
fn builder_validates_configuration() {
    assert_eq!(
        Federation::builder().build().unwrap_err(),
        FederationError::NoRoot
    );
    assert_eq!(
        Federation::builder()
            .root(ClusterId(0), grid_of(1, 500))
            .update_period(SimDuration::ZERO)
            .build()
            .unwrap_err(),
        FederationError::ZeroUpdatePeriod
    );
    assert_eq!(
        Federation::builder()
            .root(ClusterId(0), grid_of(1, 500))
            .hop_budget(0)
            .build()
            .unwrap_err(),
        FederationError::ZeroHopBudget
    );
    assert_eq!(
        Federation::builder()
            .root(ClusterId(0), grid_of(1, 500))
            .staleness(SimDuration::ZERO)
            .build()
            .unwrap_err(),
        FederationError::ZeroStaleness
    );
    assert_eq!(
        Federation::builder()
            .root(ClusterId(0), grid_of(1, 500))
            .child(ClusterId(0), ClusterId(0), grid_of(1, 500))
            .build()
            .unwrap_err(),
        FederationError::DuplicateCluster(ClusterId(0))
    );
    assert_eq!(
        Federation::builder()
            .root(ClusterId(0), grid_of(1, 500))
            .child(ClusterId(1), ClusterId(9), grid_of(1, 500))
            .build()
            .unwrap_err(),
        FederationError::UnknownParent(ClusterId(9))
    );
}

#[test]
fn builder_installs_trader_links_along_edges() {
    let fed = builder_3().build().unwrap();
    let root_links = fed.trader_links(ClusterId(0));
    let names: Vec<&str> = root_links.iter().map(|l| l.name.as_str()).collect();
    assert_eq!(names, ["down:1", "down:2"]);
    let child_links = fed.trader_links(ClusterId(1));
    assert_eq!(child_links.len(), 1);
    assert_eq!(child_links[0].name, "up:0");
    assert_eq!(child_links[0].target, 0);
}

#[test]
fn local_jobs_stay_local() {
    let mut fed = federation();
    let placed = fed
        .submit(ClusterId(0), JobSpec::sequential("small", 10_000))
        .unwrap();
    assert_eq!(placed.id.cluster, ClusterId(0));
    assert_eq!(placed.hops, 0);
    assert_eq!(placed.wan_bytes, 0, "local placements touch no WAN");
    fed.run_until(SimTime::from_secs(3600));
    assert_eq!(fed.job_state(placed.id), Some(JobState::Completed));
    assert!(fed.origin_knows_complete(placed.id));
}

#[test]
fn oversized_jobs_spill_over_linked_traders() {
    let mut fed = federation();
    // 6 tasks: cluster 0 has only 2 nodes of live offers.
    let placed = fed
        .submit(ClusterId(0), JobSpec::bag_of_tasks("big", 6, 30_000))
        .unwrap();
    assert_eq!(placed.id.cluster, ClusterId(1), "first admitting child");
    assert_eq!(placed.hops, 1);
    assert!(placed.wan_bytes > 0, "queries and the forward cost bytes");
    assert!(fed.wan_stats().spillover_queries >= 1);
    assert!(fed.wan_stats().forwards == 1);
    let followed: u64 = fed
        .trader_links(ClusterId(0))
        .iter()
        .map(|l| l.followed)
        .sum();
    assert!(followed >= 1, "spillover is recorded on the trader link");
    fed.run_until(SimTime::from_secs(4 * 3600));
    assert_eq!(fed.job_state(placed.id), Some(JobState::Completed));
}

#[test]
fn fast_cpu_requirements_route_to_the_fast_cluster() {
    let mut fed = federation();
    let mut spec = JobSpec::sequential("fast-only", 50_000);
    spec.requirements.min_cpu_mips = 1000;
    let placed = fed.submit(ClusterId(1), spec).unwrap();
    assert_eq!(
        placed.id.cluster,
        ClusterId(2),
        "only cluster 2 has 1500-MIPS nodes"
    );
    assert_eq!(placed.hops, 2, "1 -> 0 -> 2");
    fed.run_until(SimTime::from_secs(3600));
    assert_eq!(fed.job_state(placed.id), Some(JobState::Completed));
}

#[test]
fn impossible_requests_are_unsatisfiable() {
    let mut fed = federation();
    let mut spec = JobSpec::sequential("impossible", 1000);
    spec.requirements.min_cpu_mips = 100_000;
    assert_eq!(
        fed.submit(ClusterId(0), spec).unwrap_err(),
        FederationError::Unsatisfiable
    );
}

#[test]
fn unknown_origin_rejected() {
    let mut fed = federation();
    assert_eq!(
        fed.submit(ClusterId(9), JobSpec::sequential("x", 1))
            .unwrap_err(),
        FederationError::UnknownCluster(ClusterId(9))
    );
}

#[test]
fn topology_jobs_do_not_forward() {
    let mut fed = federation();
    let mut spec = JobSpec::bsp("gang", 6, 10, 1_000, 1_000);
    spec.topology = Some(TopologyRequest {
        groups: vec![GroupRequest {
            nodes: 6,
            min_intra_bps: 1_000_000,
        }],
        min_inter_bps: 100_000,
    });
    assert_eq!(
        fed.submit(ClusterId(0), spec).unwrap_err(),
        FederationError::Unforwardable
    );
}

#[test]
fn hierarchy_summaries_route_via_soft_state() {
    let mut fed = builder_3()
        .routing(RoutingPolicy::HierarchySummaries)
        .build()
        .unwrap();
    fed.run_until(SimTime::from_secs(300));
    assert!(
        fed.wan_stats().summary_updates >= 3,
        "each cluster ticked at least once"
    );
    assert!(
        fed.hierarchy().stats().update_messages >= 2,
        "children reported to the root: {:?}",
        fed.hierarchy().stats()
    );
    let mut spec = JobSpec::sequential("fast-only", 50_000);
    spec.requirements.min_cpu_mips = 1000;
    let placed = fed.submit(ClusterId(1), spec).unwrap();
    assert_eq!(placed.id.cluster, ClusterId(2));
    assert!(fed.hierarchy().stats().routing_messages > 0);
    fed.run_until(SimTime::from_secs(3600));
    assert_eq!(fed.job_state(placed.id), Some(JobState::Completed));
}

#[test]
fn flat_directory_routes_via_root() {
    let mut fed = builder_3()
        .routing(RoutingPolicy::FlatDirectory)
        .build()
        .unwrap();
    fed.run_until(SimTime::from_secs(300));
    let mut spec = JobSpec::sequential("fast-only", 50_000);
    spec.requirements.min_cpu_mips = 1000;
    let placed = fed.submit(ClusterId(1), spec).unwrap();
    assert_eq!(placed.id.cluster, ClusterId(2));
    fed.run_until(SimTime::from_secs(3600));
    assert_eq!(fed.job_state(placed.id), Some(JobState::Completed));
}

#[test]
fn reordered_summaries_keep_the_newer_report() {
    for routing in [
        RoutingPolicy::FlatDirectory,
        RoutingPolicy::HierarchySummaries,
    ] {
        let mut fed = builder_3().routing(routing).build().unwrap();
        let summary = |epoch| {
            FedMsg::Summary(FedSummary {
                cluster: ClusterId(2),
                usage: UsageSummary {
                    epoch,
                    ..Default::default()
                },
            })
        };
        // Epoch 2 overtook epoch 1 on the WAN.
        fed.deliver(ClusterId(0), summary(2));
        fed.deliver(ClusterId(0), summary(1));
        let held = match routing {
            RoutingPolicy::FlatDirectory => fed.flat.held(ClusterId(2)),
            _ => fed.hierarchy.child_report(ClusterId(0), ClusterId(2)),
        };
        assert_eq!(held.map(|(usage, _)| usage.epoch), Some(2), "{routing:?}");
    }
}

#[test]
fn forwarded_jobs_report_status_to_origin() {
    let mut fed = federation();
    let placed = fed
        .submit(ClusterId(0), JobSpec::bag_of_tasks("big", 6, 30_000))
        .unwrap();
    assert!(placed.id.cluster != ClusterId(0));
    fed.run_until(SimTime::from_secs(4 * 3600));
    assert_eq!(fed.job_state(placed.id), Some(JobState::Completed));
    assert!(fed.wan_stats().status_messages > 0);
    assert!(fed.origin_knows_complete(placed.id));
    let rec = fed.placement(placed.id).unwrap();
    assert!(rec.forwarded);
    assert_eq!(rec.origin, ClusterId(0));
    let status = rec.last_status.expect("origin received a status");
    assert!(status.completed);
}

#[test]
fn origin_grm_crash_does_not_lose_completion() {
    let mut fed = federation();
    let mut spec = JobSpec::sequential("fast-only", 50_000);
    spec.requirements.min_cpu_mips = 1000;
    let placed = fed.submit(ClusterId(1), spec).unwrap();
    assert_eq!(placed.id.cluster, ClusterId(2));
    let epoch_before = fed.member(ClusterId(1)).unwrap().grm_epoch();
    // Crash the origin GRM while the job runs remotely; statuses sent
    // in the meantime are lost.
    fed.crash_grm(ClusterId(1)).unwrap();
    fed.run_until(SimTime::from_secs(1200));
    assert_eq!(
        fed.job_state(placed.id),
        Some(JobState::Completed),
        "the remote cluster is unaffected"
    );
    assert!(
        !fed.origin_knows_complete(placed.id),
        "origin GRM was down for every status so far"
    );
    // Restart: the next status tick re-delivers completion.
    fed.restart_grm(ClusterId(1)).unwrap();
    fed.run_until(SimTime::from_secs(2400));
    assert!(fed.origin_knows_complete(placed.id));
    assert!(fed.member(ClusterId(1)).unwrap().grm_epoch() > epoch_before);
}

#[test]
fn lossy_wan_retransmits_and_still_delivers() {
    let mut fed = builder_3()
        .routing(RoutingPolicy::HierarchySummaries)
        .wan_faults(FaultPlan::new(7).with_drop_probability(0.3))
        .seed(7)
        .build()
        .unwrap();
    fed.run_until(SimTime::from_secs(1800));
    let stats = fed.wan_stats();
    assert!(stats.drops > 0, "a 30% loss rate must show up: {stats:?}");
    assert!(stats.retransmits > 0);
    assert!(
        fed.hierarchy().stats().update_messages > 0,
        "summaries still get through via retransmission"
    );
}

#[test]
fn summaries_track_grid_state() {
    let fed = federation();
    let summary = fed.member(ClusterId(2)).unwrap().cluster_summary();
    assert_eq!(summary.nodes, 6);
    assert_eq!(summary.exporting_nodes, 6);
    assert_eq!(summary.max_cpu_mips, 1500);
    assert!(summary.max_free_ram_mb >= 64);
}

#[test]
fn usage_summaries_carry_availability_histograms() {
    let mut fed = builder_3()
        .routing(RoutingPolicy::HierarchySummaries)
        .build()
        .unwrap();
    fed.run_until(SimTime::from_secs(300));
    let own = fed.hierarchy().own_usage(ClusterId(2)).unwrap();
    assert!(own.epoch > 0, "summary ticks bump the epoch");
    assert_eq!(own.summary.nodes, 6);
}

#[test]
fn refresh_makes_totals_a_read_only_view() {
    let mut fed = federation();
    fed.submit(ClusterId(0), JobSpec::sequential("small", 10_000))
        .unwrap();
    fed.run_until(SimTime::from_secs(3600));
    fed.refresh();
    let fed = fed; // totals no longer need &mut
    assert_eq!(fed.total_completed(), 1);
    assert_eq!(fed.reports().len(), 3);
}

#[test]
fn metrics_snapshot_mirrors_wan_stats() {
    let mut fed = federation();
    fed.submit(ClusterId(0), JobSpec::bag_of_tasks("big", 6, 30_000))
        .unwrap();
    let snap = fed.metrics_snapshot();
    assert_eq!(snap.counter_total("fed_forwards"), 1);
    assert_eq!(snap.counter_total("fed_wan_bytes"), fed.wan_stats().bytes);
}

#[test]
fn lockstep_time_advances_all_members() {
    let mut fed = federation();
    fed.run_until(SimTime::from_secs(900));
    for id in [0u32, 1, 2] {
        let now = fed.member(ClusterId(id)).unwrap().now();
        assert!(now >= SimTime::from_secs(899), "{id}: {now}");
    }
}

impl Federation {
    /// The loop [`Federation::run_until`] replaced, kept as its oracle:
    /// handle every due event in order, running only the member it reads up
    /// to the event, then bring every member to the horizon.
    fn run_until_lazy(&mut self, horizon: SimTime) {
        while let Some((t, event)) = self.queue.pop_at_or_before(horizon) {
            self.now = self.now.max(t);
            self.handle(event);
        }
        self.now = self.now.max(horizon);
        for member in self.members.values_mut() {
            member.advance(horizon);
        }
    }
}

/// Everything a caller can observe of a federation run.
#[derive(Debug, PartialEq)]
struct Observed {
    placements: Vec<Result<FederatedPlacement, FederationError>>,
    /// After every step: WAN ledger, placement records, member clocks.
    steps: Vec<(
        WanStats,
        BTreeMap<GlobalJobId, PlacementRecord>,
        Vec<SimTime>,
    )>,
    origin_knows: Vec<bool>,
    /// The hierarchy's and the flat directory's soft state.
    soft_state: String,
    reports: Vec<String>,
    metrics: Vec<MetricsSnapshot>,
}

/// One generated scenario: a random tree of small members under a random
/// routing policy, WAN drops and a partition, member fault plans whose GRM
/// host outages begin and end within 60 ms of a status tick (so they
/// straddle `FedStatus` arrivals), and rounds of submissions with GRM
/// crashes and restarts between runs. `workers: None` drives the oracle.
fn play(seed: u64, workers: Option<usize>) -> Observed {
    let mut rng = DetRng::new(seed);
    let n = 2 + rng.index(4);
    let routing = [
        RoutingPolicy::LinkedTraders,
        RoutingPolicy::FlatDirectory,
        RoutingPolicy::HierarchySummaries,
    ][rng.index(3)];
    let period = SimDuration::from_secs(60);
    let period_us = period.as_micros();
    let secs = SimTime::from_secs;
    // Status ticks as the builder staggers them: cluster `i`'s `k`-th.
    let status_tick = |i: usize, k: u64| {
        secs(60 * (k + 1))
            + SimDuration::from_micros(period_us * i as u64 / n as u64 + period_us / 2)
    };
    let mut wan = FaultPlan::new(seed).with_drop_probability([0.0, 0.1, 0.3][rng.index(3)]);
    if rng.bernoulli(0.5) {
        let start = secs(rng.uniform_range(0, 3_000));
        wan = wan.with_partition(Partition {
            island: vec![HostId(rng.index(n) as u32)],
            start,
            heal: start + SimDuration::from_secs(rng.uniform_range(60, 1_200)),
        });
    }
    let mut builder = Federation::builder()
        .seed(seed)
        .routing(routing)
        .update_period(period)
        .wan_faults(wan);
    for i in 0..n {
        let mips = [500, 1500][rng.index(2)];
        let config = GridConfig {
            seed: seed ^ i as u64,
            gupa_warmup_days: 0,
            ..Default::default()
        };
        let mut grid = GridBuilder::new(config)
            .add_cluster(
                (0..2 + rng.index(5))
                    .map(|_| NodeSetup {
                        resources: ResourceVector {
                            cpu_mips: mips,
                            ram_mb: 256,
                            disk_mb: 10_000,
                        },
                        ..NodeSetup::idle_desktop()
                    })
                    .collect(),
            )
            .build();
        // The manager host flaps with a two-period cycle whose down edge
        // lands just after one cluster's status tick and whose up edge just
        // after another's: both edges fall among `FedStatus` arrivals.
        let (peer, peer2, k) = (rng.index(n), rng.index(n), rng.uniform_range(0, 20));
        let mut offset = || SimDuration::from_micros(rng.uniform_range(0, 60_000));
        let first_down = status_tick(peer, k) + offset();
        let down_for = (status_tick(peer2, k + 1) + offset()) - first_down;
        let plan = FaultPlan::new(seed).with_flap(HostFlap {
            host: grid.manager_host(),
            first_down,
            down_for,
            up_for: SimDuration::from_micros(2 * period_us) - down_for,
            cycles: 10 + rng.index(30) as u32,
        });
        grid.set_fault_plan(plan);
        let id = ClusterId(i as u32);
        builder = match i {
            0 => builder.root(id, grid),
            _ => {
                let parent = ClusterId(rng.index(i) as u32);
                let link = [LinkSpec::wan_metro(), LinkSpec::wan_regional()][rng.index(2)];
                builder.child_linked(id, parent, grid, link)
            }
        };
    }
    let mut fed = builder.build().expect("valid tree");
    if let Some(workers) = workers {
        fed.workers = workers;
    }
    let mut observed = Observed {
        placements: Vec::new(),
        steps: Vec::new(),
        origin_knows: Vec::new(),
        soft_state: String::new(),
        reports: Vec::new(),
        metrics: Vec::new(),
    };
    let mut t = 0;
    let rounds = 3 + rng.index(3);
    for round in 0..=rounds {
        t += if round == rounds {
            3_600
        } else {
            rng.uniform_range(100, 1_500)
        };
        match workers {
            Some(_) => fed.run_until(secs(t)),
            None => fed.run_until_lazy(secs(t)),
        }
        observed.steps.push((
            fed.wan_stats(),
            fed.placements.clone(),
            fed.members.values().map(|m| m.grid.now()).collect(),
        ));
        if round == rounds {
            break;
        }
        for _ in 0..rng.index(4) {
            let origin = ClusterId(rng.index(n) as u32);
            // Long enough that forwarded jobs report status for many
            // periods.
            let work = rng.uniform_range(100_000, 2_000_000);
            let mut spec = match rng.index(3) {
                0 => JobSpec::sequential("small", work / 10),
                1 => JobSpec::bag_of_tasks("wide", 3 + rng.index(6), work / 4),
                _ => JobSpec::sequential("fast", work),
            };
            if spec.name == "fast" {
                spec.requirements.min_cpu_mips = 1_000;
            }
            observed.placements.push(fed.submit(origin, spec));
        }
        if rng.bernoulli(0.4) {
            let cluster = ClusterId(rng.index(n) as u32);
            let grid = fed.member(cluster).expect("member");
            match grid.grm_up() {
                true => fed.crash_grm(cluster),
                false => fed.restart_grm(cluster),
            }
            .expect("member");
        }
    }
    fed.refresh();
    for placed in observed.placements.iter().flatten() {
        observed
            .origin_knows
            .push(fed.origin_knows_complete(placed.id));
    }
    observed.soft_state = format!("{:?} {:?}", fed.hierarchy, fed.flat);
    observed.reports = fed.reports().values().map(|r| format!("{r:?}")).collect();
    observed.metrics = fed
        .members
        .values()
        .map(|m| m.grid.metrics_snapshot())
        .chain([fed.metrics_snapshot()])
        .collect();
    observed
}

proptest::proptest! {
    #![proptest_config(proptest::test_runner::ProptestConfig::with_cases(12))]

    /// The round loop against the lazy loop, at several worker counts:
    /// placements, WAN ledger, origin knowledge, soft state, reports,
    /// records and metrics all equal.
    #[test]
    fn round_loop_matches_the_lazy_loop(seed in proptest::arbitrary::any::<u64>()) {
        for salt in chaos_salts() {
            let oracle = play(seed ^ salt, None);
            for workers in [1, 2, 3, 8] {
                let run = play(seed ^ salt, Some(workers));
                let case = format!("seed {:#x}, {workers} workers", seed ^ salt);
                proptest::prop_assert_eq!(&run.placements, &oracle.placements, "{}", case);
                for (step, (a, b)) in run.steps.iter().zip(&oracle.steps).enumerate() {
                    proptest::prop_assert_eq!(a, b, "{} step {}", case, step);
                }
                proptest::prop_assert_eq!(&run.origin_knows, &oracle.origin_knows, "{}", case);
                proptest::prop_assert_eq!(&run.soft_state, &oracle.soft_state, "{}", case);
                proptest::prop_assert_eq!(&run.reports, &oracle.reports, "{}", case);
                proptest::prop_assert_eq!(&run.metrics, &oracle.metrics, "{}", case);
            }
        }
    }
}

#[test]
fn grm_liveness_log_answers_for_instants_already_run_past() {
    let mut grid = grid_of(2, 500);
    let host = grid.manager_host();
    let at = SimTime::from_secs;
    grid.set_fault_plan(FaultPlan::new(1).with_outage(HostOutage {
        host,
        down_at: at(100),
        up_at: at(200),
    }));
    grid.run_until(at(300));
    grid.crash_grm();
    assert!(!grid.grm_up());
    for (t, up) in [
        (99, true),
        (100, false),
        (199, false),
        (200, true),
        (299, true),
    ] {
        assert_eq!(grid.grm_up_at(at(t)), up, "at {t} s");
    }
    assert!(
        !grid.grm_up_at(grid.now()),
        "the crash is stamped with the grid's clock"
    );
}
