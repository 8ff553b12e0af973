//! Property-based tests on the workspace's core invariants.

use integrade::bsp::apps::Stencil1d;
use integrade::bsp::checkpoint::{checkpoint, restore};
use integrade::bsp::runtime::BspRuntime;
use integrade::orb::any::AnyValue;
use integrade::orb::cdr::{CdrDecode, CdrEncode};
use integrade::orb::constraint;
use integrade::orb::giop::Message;
use integrade::orb::ior::{Endpoint, Ior, ObjectKey};
use integrade::simnet::event::EventQueue;
use integrade::simnet::time::{SimDuration, SimTime};
use integrade::usage::kmeans::{fit, silhouette_score, KMeansConfig};
use integrade::usage::series::{euclidean, normalize, resample};
use proptest::prelude::*;

fn any_value() -> impl Strategy<Value = AnyValue> {
    let leaf = prop_oneof![
        any::<bool>().prop_map(AnyValue::Bool),
        any::<i64>().prop_map(AnyValue::Long),
        // Finite doubles only: NaN breaks PartialEq round-trip checks.
        (-1e15f64..1e15).prop_map(AnyValue::Double),
        "[a-zA-Z0-9 _.-]{0,24}".prop_map(AnyValue::Str),
    ];
    leaf.prop_recursive(2, 16, 4, |inner| {
        prop::collection::vec(inner, 0..4).prop_map(AnyValue::Seq)
    })
}

proptest! {
    /// Every AnyValue survives CDR marshalling bit-exactly.
    #[test]
    fn any_value_cdr_round_trip(v in any_value()) {
        let bytes = v.to_cdr_bytes();
        let back = AnyValue::from_cdr_bytes(&bytes).unwrap();
        prop_assert_eq!(back, v);
    }

    /// Primitive tuples survive CDR round trips regardless of alignment
    /// interactions.
    #[test]
    fn mixed_tuple_cdr_round_trip(a in any::<u8>(), b in any::<u64>(), c in any::<i32>(),
                                   s in "[ -~]{0,32}") {
        let v = (a, b, c, s);
        let bytes = v.to_cdr_bytes();
        let back = <(u8, u64, i32, String)>::from_cdr_bytes(&bytes).unwrap();
        prop_assert_eq!(back, v);
    }

    /// The CDR decoder never panics on arbitrary bytes.
    #[test]
    fn cdr_decoder_is_total(bytes in prop::collection::vec(any::<u8>(), 0..256)) {
        let _ = AnyValue::from_cdr_bytes(&bytes);
        let _ = Ior::from_cdr_bytes(&bytes);
        let _ = String::from_cdr_bytes(&bytes);
        let _ = Vec::<u64>::from_cdr_bytes(&bytes);
    }

    /// GIOP frames round-trip and reject any single-byte corruption of the
    /// header's fixed fields.
    #[test]
    fn giop_round_trip(id in any::<u64>(), op in "[a-z_]{1,16}",
                       body in prop::collection::vec(any::<u8>(), 0..64)) {
        let msg = Message::Request {
            request_id: id,
            response_expected: true,
            object_key: ObjectKey::new("k"),
            operation: op,
            body: body.into(),
        };
        let wire = msg.to_wire();
        prop_assert_eq!(Message::from_wire(&wire).unwrap(), msg);
    }

    /// The GIOP parser never panics on arbitrary bytes.
    #[test]
    fn giop_parser_is_total(bytes in prop::collection::vec(any::<u8>(), 0..128)) {
        let _ = Message::from_wire(&bytes);
    }

    /// Stringified IORs round-trip for arbitrary components.
    #[test]
    fn ior_stringified_round_trip(host in any::<u32>(), port in any::<u16>(),
                                  type_id in "[A-Za-z/:.0-9]{1,32}",
                                  key in "[a-z/0-9]{1,24}") {
        let ior = Ior::new(type_id, Endpoint::new(host, port), ObjectKey::new(key));
        let s = ior.to_stringified();
        prop_assert_eq!(Ior::from_stringified(&s).unwrap(), ior);
    }

    /// The constraint parser never panics, and parseable inputs re-evaluate
    /// deterministically.
    #[test]
    fn constraint_parser_is_total(input in "[a-z0-9<>=!()'+*/ .-]{0,64}") {
        if let Ok(expr) = constraint::parse(&input) {
            let props = std::collections::BTreeMap::new();
            let a = constraint::matches(&expr, &props);
            let b = constraint::matches(&expr, &props);
            prop_assert_eq!(a, b);
        }
    }

    /// Comparison operators agree with integer semantics for all pairs.
    #[test]
    fn constraint_comparisons_match_rust(x in -1000i64..1000, y in -1000i64..1000) {
        let props: std::collections::BTreeMap<String, AnyValue> =
            [("x".to_owned(), AnyValue::Long(x)), ("y".to_owned(), AnyValue::Long(y))]
                .into_iter()
                .collect();
        let check = |expr: &str, expected: bool| -> Result<(), TestCaseError> {
            let parsed = constraint::parse(expr).unwrap();
            prop_assert_eq!(constraint::matches(&parsed, &props), expected, "{}", expr);
            Ok(())
        };
        check("x < y", x < y)?;
        check("x <= y", x <= y)?;
        check("x == y", x == y)?;
        check("x != y", x != y)?;
        check("x + y == y + x", true)?;
    }

    /// Event queue pops are globally ordered by (time, insertion).
    #[test]
    fn event_queue_is_ordered(times in prop::collection::vec(0u64..10_000, 1..64)) {
        let mut q = EventQueue::new();
        for (i, &t) in times.iter().enumerate() {
            q.schedule_at(SimTime::from_micros(t), i);
        }
        let mut last = SimTime::ZERO;
        let mut seen_at_time: Vec<usize> = Vec::new();
        let mut last_time = None;
        while let Some((t, idx)) = q.pop() {
            prop_assert!(t >= last);
            if Some(t) == last_time {
                // FIFO among equal timestamps: indices increase.
                prop_assert!(seen_at_time.last().map(|&p| p < idx).unwrap_or(true));
                seen_at_time.push(idx);
            } else {
                seen_at_time.clear();
                seen_at_time.push(idx);
            }
            last_time = Some(t);
            last = t;
        }
    }

    /// K-means invariants: every point is assigned to its nearest centroid
    /// at convergence, and inertia is non-negative.
    #[test]
    fn kmeans_assignment_optimality(points in prop::collection::vec(
        (0.0f64..10.0, 0.0f64..10.0), 6..40), k in 1usize..4) {
        let data: Vec<Vec<f64>> = points.iter().map(|(a, b)| vec![*a, *b]).collect();
        let k = k.min(data.len());
        let model = fit(&data, KMeansConfig::new(k, 99));
        prop_assert!(model.inertia >= 0.0);
        for (point, &assigned) in data.iter().zip(&model.assignments) {
            let own = euclidean(&model.centroids[assigned], point);
            for centroid in &model.centroids {
                prop_assert!(own <= euclidean(centroid, point) + 1e-9);
            }
        }
        let s = silhouette_score(&data, &model.assignments, k);
        prop_assert!((-1.0..=1.0).contains(&s));
    }

    /// Normalisation lands in [0,1]; resampling preserves length contracts.
    #[test]
    fn series_transforms_well_behaved(values in prop::collection::vec(-100.0f64..100.0, 1..128),
                                      target in 1usize..256) {
        let normalized = normalize(&values);
        prop_assert!(normalized.iter().all(|v| (0.0..=1.0).contains(v)));
        let resampled = resample(&values, target);
        prop_assert_eq!(resampled.len(), target);
    }

    /// Checkpoint/restore is the identity on BSP execution: finishing from
    /// a mid-run snapshot equals finishing uninterrupted.
    #[test]
    fn bsp_checkpoint_restore_identity(cells in prop::collection::vec(0.0f64..10.0, 4..24),
                                       procs in 1usize..4, cut in 1usize..6) {
        let procs = procs.min(cells.len());
        let iterations = 8u64;
        let mut reference = BspRuntime::new(Stencil1d::partition(&cells, procs, iterations, 0.0, 1.0));
        reference.run(100);

        let mut broken = BspRuntime::new(Stencil1d::partition(&cells, procs, iterations, 0.0, 1.0));
        for _ in 0..cut {
            if broken.is_halted() {
                break;
            }
            broken.step();
        }
        let snap = checkpoint(&broken);
        let mut resumed: BspRuntime<Stencil1d> = restore(&snap).unwrap();
        resumed.run(100);
        prop_assert_eq!(resumed.procs(), reference.procs());
    }
}

// === Service-level invariants ===

use integrade::core::hierarchy::{ClusterHierarchy, ClusterSummary, UsageSummary, WideAreaRequest};
use integrade::core::types::ClusterId;
use integrade::orb::naming::NamingService;
use integrade::orb::trading::Trader;

fn node_offer_props(
    mips: i64,
    ram: i64,
    exporting: bool,
) -> std::collections::BTreeMap<String, AnyValue> {
    [
        ("cpu_mips".to_owned(), AnyValue::Long(mips)),
        ("free_ram_mb".to_owned(), AnyValue::Long(ram)),
        ("exporting".to_owned(), AnyValue::Bool(exporting)),
    ]
    .into_iter()
    .collect()
}

proptest! {
    /// Every offer a trader query returns actually satisfies the constraint,
    /// and `max` preference really orders descending.
    #[test]
    fn trader_results_satisfy_constraint(
        offers in prop::collection::vec((0i64..2000, 0i64..512, any::<bool>()), 1..40),
        min_mips in 0i64..2000,
        min_ram in 0i64..512,
    ) {
        let mut trader = Trader::new(3);
        for (i, (mips, ram, exporting)) in offers.iter().enumerate() {
            trader
                .export(
                    "integrade::node",
                    &Ior::new("IDL:t/T:1.0", Endpoint::new(i as u32, 0), ObjectKey::new(format!("o{i}"))),
                    node_offer_props(*mips, *ram, *exporting),
                )
                .unwrap();
        }
        let constraint = format!(
            "exporting == true and cpu_mips >= {min_mips} and free_ram_mb >= {min_ram}"
        );
        let hits = trader.query("integrade::node", &constraint, "max cpu_mips", 100).unwrap();
        let expected = offers
            .iter()
            .filter(|(m, r, e)| *e && *m >= min_mips && *r >= min_ram)
            .count();
        prop_assert_eq!(hits.len(), expected);
        let mut last = i64::MAX;
        for offer in &hits {
            let mips = match offer.properties["cpu_mips"] {
                AnyValue::Long(m) => m,
                _ => unreachable!(),
            };
            prop_assert!(mips >= min_mips);
            prop_assert!(mips <= last, "descending by cpu_mips");
            last = mips;
        }
    }

    /// Naming bind → resolve is the identity; unbind removes exactly the
    /// bound name; list returns each bound child exactly once.
    #[test]
    fn naming_service_acts_like_a_map(
        names in prop::collection::btree_set("[a-z]{1,6}(/[a-z]{1,6}){0,2}", 1..16),
    ) {
        let mut ns = NamingService::new();
        let names: Vec<String> = names.into_iter().collect();
        for (i, name) in names.iter().enumerate() {
            let ior = Ior::new("IDL:t/T:1.0", Endpoint::new(i as u32, 0), ObjectKey::new(format!("k{i}")));
            ns.bind(name, ior.clone()).unwrap();
            prop_assert_eq!(ns.resolve(name).unwrap(), ior);
        }
        prop_assert_eq!(ns.len(), names.len());
        for name in &names {
            ns.unbind(name).unwrap();
            prop_assert!(ns.resolve(name).is_err());
        }
        prop_assert!(ns.is_empty());
    }

    /// Hierarchy aggregation: whatever the tree's shape, once every report of a
    /// period has landed the root's reported subtree merges every leaf summary.
    #[test]
    fn hierarchy_root_aggregates_all_leaves(
        fanout in 2usize..5,
        depth in 1usize..4,
        exportings in prop::collection::vec(0u32..100, 1..64),
    ) {
        let (mut h, leaves) = ClusterHierarchy::uniform(fanout, depth);
        let mut expected_exporting = 0u32;
        let mut expected_max_mips = 0u64;
        for (leaf, e) in leaves.iter().zip(exportings.iter().cycle()) {
            let mips = 100 + *e as u64 * 7;
            h.set_own_usage(*leaf, leaf_usage(*e, mips)).unwrap();
            expected_exporting += e;
            expected_max_mips = expected_max_mips.max(mips);
        }
        reporting_round(&mut h);
        let root = h.reported_subtree(ClusterId(0), SimTime::ZERO, STALENESS).unwrap().summary;
        prop_assert_eq!(root.exporting_nodes, expected_exporting);
        prop_assert_eq!(root.max_cpu_mips, expected_max_mips);
    }

    /// Routing soundness: whatever cluster route_soft returns really admits
    /// the request on its own usage, however old the reports it followed.
    /// Completeness: while every report is fresh, a request some cluster can
    /// serve is routed; once they have all aged out only the origin's own
    /// capacity is left.
    #[test]
    fn hierarchy_routing_is_sound(
        exportings in prop::collection::vec(0u32..50, 4..16),
        want in 1u32..60,
        report_age_s in 0u64..120,
    ) {
        let (mut h, leaves) = ClusterHierarchy::uniform(2, 3);
        for (leaf, e) in leaves.iter().zip(exportings.iter().cycle()) {
            h.set_own_usage(*leaf, leaf_usage(*e, 500)).unwrap();
        }
        reporting_round(&mut h);
        let request = WideAreaRequest { nodes: want, min_cpu_mips: 500, min_ram_mb: 64 };
        let now = SimTime::from_secs(report_age_s);
        let in_view = if now.duration_since(SimTime::ZERO) <= STALENESS { leaves.len() } else { 1 };
        let satisfiable = exportings.iter().cycle().take(in_view).any(|e| *e >= want);
        let route = h.route_soft(leaves[0], &request, now, STALENESS).unwrap();
        prop_assert_eq!(route.target.is_some(), satisfiable);
        if let Some(target) = route.target {
            prop_assert!(h.own_usage(target).unwrap().summary.admits(&request));
            prop_assert!(route.walked as usize >= h.tree_path(leaves[0], target).unwrap().len() - 1);
        }
    }
}

const STALENESS: SimDuration = SimDuration::from_secs(60);

fn leaf_usage(exporting: u32, mips: u64) -> UsageSummary {
    let summary = ClusterSummary {
        nodes: exporting + 1,
        exporting_nodes: exporting,
        max_cpu_mips: mips,
        max_free_ram_mb: 128,
        ..Default::default()
    };
    UsageSummary {
        summary,
        ..Default::default()
    }
}

/// One update period at time zero with nothing lost: every cluster sends its
/// reported subtree one edge up, children before parents (`uniform` numbers
/// clusters breadth-first, so descending id order is bottom-up).
fn reporting_round(h: &mut ClusterHierarchy) {
    for id in (1..h.len() as u32).rev().map(ClusterId) {
        let report = h.reported_subtree(id, SimTime::ZERO, STALENESS).unwrap();
        h.apply_child_report(h.parent(id).unwrap(), id, report, SimTime::ZERO)
            .unwrap();
    }
}

// === Checkpoint repository invariants ===

mod replica_store {
    use integrade::core::repo::{crc32, ReplicaStore, StoredCheckpoint};
    use integrade::core::types::JobId;
    use proptest::prelude::*;
    use std::collections::BTreeMap;

    /// One repository operation, generated with small id ranges so
    /// sequences collide on the same (job, part) slots often.
    #[derive(Debug, Clone)]
    enum Op {
        /// `valid` decides whether the digest matches the payload.
        Store {
            job: u64,
            part: u32,
            version: u64,
            work: u64,
            valid: bool,
        },
        Purge {
            job: u64,
            part: u32,
        },
    }

    fn op() -> impl Strategy<Value = Op> {
        // Purges are rarer than stores: an 8-valued selector keeps roughly
        // a 7:1 store:purge mix without weighted-oneof syntax.
        (
            0u64..3,
            0u32..3,
            0u64..20,
            0u64..10_000,
            any::<bool>(),
            0u8..8,
        )
            .prop_map(|(job, part, version, work, valid, pick)| {
                if pick == 0 {
                    Op::Purge { job, part }
                } else {
                    Op::Store {
                        job,
                        part,
                        version,
                        work,
                        valid,
                    }
                }
            })
    }

    proptest! {
        /// GC never deletes the newest *acked* checkpoint of a live part:
        /// after any operation sequence, every non-purged part still holds
        /// exactly its highest accepted version, with an intact digest —
        /// regardless of stale re-deliveries, corrupt writes, or the GC of
        /// superseded versions along the way.
        #[test]
        fn gc_never_drops_the_newest_acked_checkpoint(ops in prop::collection::vec(op(), 1..60)) {
            let mut store = ReplicaStore::new();
            // The model: highest version each live (job, part) slot acked.
            let mut acked: BTreeMap<(u64, u32), u64> = BTreeMap::new();
            for op in ops {
                match op {
                    Op::Store { job, part, version, work, valid } => {
                        let payload = format!("ckpt {job}/{part} v{version}").into_bytes();
                        let digest = if valid { crc32(&payload) } else { crc32(&payload) ^ 1 };
                        let outcome = store.store(JobId(job), part, StoredCheckpoint {
                            version,
                            work_mips_s: work,
                            digest,
                            payload: payload.into(),
                        });
                        let newest = acked.get(&(job, part)).copied();
                        let accepted = valid && newest.is_none_or(|held| version > held);
                        prop_assert_eq!(
                            matches!(outcome, integrade::core::repo::StoreOutcome::Accepted { .. }),
                            accepted,
                            "store {}/{} v{} valid={} against held {:?}",
                            job, part, version, valid, newest
                        );
                        if accepted {
                            acked.insert((job, part), version);
                        }
                    }
                    Op::Purge { job, part } => {
                        store.purge(JobId(job), part);
                        acked.remove(&(job, part));
                    }
                }
            }
            for (&(job, part), &version) in &acked {
                let held = store.get(JobId(job), part);
                prop_assert!(held.is_some(), "live part {}/{} lost its checkpoint", job, part);
                let held = held.unwrap();
                prop_assert_eq!(held.version, version, "part {}/{}", job, part);
                prop_assert_eq!(crc32(&held.payload), held.digest, "part {}/{}", job, part);
            }
        }
    }
}

// === Whole-grid determinism (few cases: each runs a full simulation) ===

mod grid_determinism {
    use integrade::core::asct::JobSpec;
    use integrade::core::grid::{GridBuilder, GridConfig, NodeSetup};
    use integrade::core::scheduler::Strategy;
    use integrade::simnet::time::{SimDuration, SimTime};
    use proptest::prelude::*;

    fn run_once(seed: u64, jobs: &[(u64, u8)], strategy_pick: u8) -> (u64, u64, Vec<String>) {
        let strategy = match strategy_pick % 3 {
            0 => Strategy::Random,
            1 => Strategy::AvailabilityOnly,
            _ => Strategy::PatternAware,
        };
        let config = GridConfig::builder()
            .seed(seed)
            .strategy(strategy)
            .gupa_warmup_days(0)
            .build();
        let mut builder = GridBuilder::new(config);
        builder.add_cluster((0..5).map(|_| NodeSetup::idle_desktop()).collect());
        let mut grid = builder.build();
        for (i, &(work, kind)) in jobs.iter().enumerate() {
            let work = 10_000 + work % 200_000;
            let spec = match kind % 3 {
                0 => JobSpec::sequential(&format!("s{i}"), work),
                1 => JobSpec::bag_of_tasks(&format!("b{i}"), 3, work / 3),
                _ => JobSpec::bsp(&format!("p{i}"), 2, 10, work / 20, 4096),
            };
            grid.submit_at(
                spec,
                SimTime::ZERO + SimDuration::from_mins(5 * i as u64 + 1),
            );
        }
        grid.run_until(SimTime::ZERO + SimDuration::from_hours(12));
        let report = grid.report();
        let states: Vec<String> = report.records.iter().map(|r| r.state.to_string()).collect();
        (report.net.messages, report.net.bytes, states)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(6))]
        /// Any workload replays bit-identically under the same seed: message
        /// counts, byte counts and every job outcome match.
        #[test]
        fn same_seed_same_universe(seed in any::<u64>(),
                                   jobs in prop::collection::vec((any::<u64>(), any::<u8>()), 1..5),
                                   strategy_pick in any::<u8>()) {
            let a = run_once(seed, &jobs, strategy_pick);
            let b = run_once(seed, &jobs, strategy_pick);
            prop_assert_eq!(a, b);
        }
    }
}

mod certification_votes {
    use integrade::core::grid::certification_verdict;
    use integrade::core::types::NodeId;
    use proptest::prelude::*;

    proptest! {
        /// The certification verdict is a pure function of the vote
        /// *multiset*: any arrival order — retransmissions, piggyback
        /// redelivery, shard interleaving — yields the identical outcome.
        #[test]
        fn verdict_is_arrival_order_independent(
            raw in prop::collection::vec(0u64..5, 1..12),
            needed in 1u32..5,
            rotation in 0usize..16,
            swaps in prop::collection::vec((0usize..12, 0usize..12), 0..8),
        ) {
            // Distinct voters, digests drawn from a small alphabet so
            // pluralities and ties actually occur.
            let votes: Vec<(NodeId, u64)> = raw
                .iter()
                .enumerate()
                .map(|(i, d)| (NodeId(i as u32), d.wrapping_mul(0x9E37) + 1))
                .collect();
            let baseline = certification_verdict(&votes, needed);
            // Permute by rotation, reversal and arbitrary transpositions —
            // together these generate the full symmetric group.
            let mut permuted = votes.clone();
            permuted.rotate_left(rotation % votes.len());
            prop_assert_eq!(certification_verdict(&permuted, needed), baseline);
            permuted.reverse();
            prop_assert_eq!(certification_verdict(&permuted, needed), baseline);
            for (a, b) in swaps {
                permuted.swap(a % votes.len(), b % votes.len());
            }
            prop_assert_eq!(certification_verdict(&permuted, needed), baseline);
        }

        /// A colluding minority strictly below the quorum size can never
        /// get its matching lie certified, however many honest votes have
        /// arrived — and once the honest bloc itself reaches the quorum,
        /// it always wins.
        #[test]
        fn colluding_minority_below_quorum_never_outvotes(
            needed in 2u32..5,
            honest in 1usize..8,
            colluders_wanted in 1usize..5,
        ) {
            const HONEST: u64 = 0xC0FFEE;
            const LIE: u64 = 0xBAD_BAD;
            let colluders = colluders_wanted.min(needed as usize - 1);
            let mut votes: Vec<(NodeId, u64)> = Vec::new();
            for i in 0..honest {
                votes.push((NodeId(i as u32), HONEST));
            }
            for i in 0..colluders {
                votes.push((NodeId((honest + i) as u32), LIE));
            }
            let verdict = certification_verdict(&votes, needed);
            prop_assert!(
                verdict != Some(LIE),
                "a below-quorum collusion was certified: {:?}",
                votes
            );
            if honest >= needed as usize {
                prop_assert_eq!(verdict, Some(HONEST));
            } else {
                prop_assert_eq!(verdict, None);
            }
        }
    }
}

mod speculation_progress {
    use integrade::core::asct::JobSpec;
    use integrade::core::grid::{GridBuilder, GridConfig, NodeSetup};
    use integrade::core::types::NodeId;
    use integrade::simnet::faults::{DerateWindow, FaultPlan};
    use integrade::simnet::time::SimTime;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(8))]
        /// Speculation never loses banked checkpoint progress: however the
        /// twin race resolves (win, cancel, promotion), each part's banked
        /// checkpoint version only ever climbs and its remaining work only
        /// ever shrinks. A regression here means a backup forked the
        /// checkpoint lineage or a teardown rolled a part backwards.
        #[test]
        fn banked_progress_is_monotone_under_speculation(
            seed in any::<u64>(),
            slow in 1usize..3,
            factor_pct in 15u32..40,
            parts in 4u32..7,
        ) {
            let config = GridConfig::builder()
                .seed(seed)
                .gupa_warmup_days(0)
                .sequential_checkpoint_mips_s(30_000.0)
                .speculation(true)
                .build();
            let mut builder = GridBuilder::new(config);
            builder.add_cluster((0..7).map(|_| NodeSetup::idle_desktop()).collect());
            let mut grid = builder.build();
            let mut plan = FaultPlan::new(seed);
            for n in 0..slow {
                plan = plan.with_derate(DerateWindow {
                    host: grid.host_of(NodeId(n as u32)),
                    start: SimTime::from_secs(0),
                    end: SimTime::from_secs(48 * 3600),
                    factor: factor_pct as f64 / 100.0,
                });
            }
            grid.set_fault_plan(plan);
            let job = grid.submit(JobSpec::bag_of_tasks("prop-spec", parts as usize, 250_000));
            let mut last: Vec<(u64, f64)> = (0..parts).map(|_| (0, f64::INFINITY)).collect();
            for step in 1..=48u64 {
                grid.run_until(SimTime::from_secs(step * 1200));
                for part in 0..parts {
                    // `None` once the part is done — progress can no longer
                    // regress after that, so skip it.
                    let Some((version, remaining)) = grid.part_progress(job, part) else {
                        continue;
                    };
                    let (prev_version, prev_remaining) = last[part as usize];
                    prop_assert!(
                        version >= prev_version,
                        "part {} banked version regressed {} -> {}",
                        part, prev_version, version
                    );
                    prop_assert!(
                        remaining <= prev_remaining,
                        "part {} remaining grew {} -> {}",
                        part, prev_remaining, remaining
                    );
                    last[part as usize] = (version, remaining);
                }
            }
        }
    }
}
