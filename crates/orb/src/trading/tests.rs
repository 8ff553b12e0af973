//! Unit tests of the trader: query semantics, updates, the plan cache and
//! the servant.

use super::*;
use crate::ior::{Endpoint, ObjectKey};
use crate::transport::LoopbackBus;

fn node_ior(n: u32) -> Ior {
    Ior::new(
        "IDL:integrade/Lrm:1.0",
        Endpoint::new(n, 0),
        ObjectKey::new(format!("lrm{n}")),
    )
}

fn node_props(mips: i64, mem: i64, idle: bool) -> BTreeMap<String, AnyValue> {
    [
        ("cpu_mips".to_owned(), AnyValue::Long(mips)),
        ("mem_mb".to_owned(), AnyValue::Long(mem)),
        ("idle".to_owned(), AnyValue::Bool(idle)),
    ]
    .into_iter()
    .collect()
}

fn seeded_trader() -> Trader {
    let mut t = Trader::new(7);
    t.export("integrade::node", &node_ior(1), node_props(300, 32, true))
        .unwrap();
    t.export("integrade::node", &node_ior(2), node_props(800, 64, true))
        .unwrap();
    t.export("integrade::node", &node_ior(3), node_props(1200, 16, false))
        .unwrap();
    t.export("other::service", &node_ior(4), node_props(9999, 999, true))
        .unwrap();
    t
}

#[test]
fn federation_links_follow_insertion_order() {
    let mut t = seeded_trader();
    t.add_link("child-2", 2, LinkFollowPolicy::IfNoLocal)
        .unwrap();
    t.add_link("parent-0", 0, LinkFollowPolicy::IfNoLocal)
        .unwrap();
    t.add_link("mirror", 9, LinkFollowPolicy::Never).unwrap();
    let order: Vec<u64> = t.links().iter().map(|l| l.target).collect();
    assert_eq!(order, vec![2, 0, 9]);
    assert_eq!(
        t.add_link("child-2", 5, LinkFollowPolicy::IfNoLocal),
        Err(TraderError::DuplicateLink("child-2".to_owned()))
    );
}

#[test]
fn link_follow_stats_accumulate_and_remove_works() {
    let mut t = seeded_trader();
    t.add_link("up", 0, LinkFollowPolicy::IfNoLocal).unwrap();
    t.record_link_followed("up").unwrap();
    t.record_link_followed("up").unwrap();
    assert_eq!(t.links()[0].followed, 2);
    assert_eq!(
        t.record_link_followed("down"),
        Err(TraderError::UnknownLink("down".to_owned()))
    );
    let removed = t.remove_link("up").unwrap();
    assert_eq!(removed.followed, 2);
    assert!(t.links().is_empty());
    assert_eq!(
        t.remove_link("up"),
        Err(TraderError::UnknownLink("up".to_owned()))
    );
}

#[test]
fn query_filters_by_type_and_constraint() {
    let mut t = seeded_trader();
    let hits = t
        .query("integrade::node", "cpu_mips >= 500", "first", 10)
        .unwrap();
    let ids: Vec<u64> = hits.iter().map(|o| o.id.0).collect();
    assert_eq!(ids, vec![2, 3]);
}

#[test]
fn count_matching_counts_what_query_returns() {
    let mut counted = seeded_trader();
    let mut queried = seeded_trader();
    for constraint in ["cpu_mips >= 500", "idle", "cpu_mips > 5000"] {
        let n = counted
            .count_matching("integrade::node", constraint, |o| o.id != OfferId(2))
            .unwrap();
        let hits = queried
            .query("integrade::node", constraint, "first", usize::MAX)
            .unwrap();
        assert_eq!(n, hits.iter().filter(|o| o.id != OfferId(2)).count());
    }
    assert_eq!(counted.query_count(), queried.query_count());
    assert_eq!(counted.plan_cache_stats(), queried.plan_cache_stats());
    assert!(matches!(
        counted.count_matching("integrade::node", "cpu_mips >=", |_| true),
        Err(TraderError::BadConstraint(_))
    ));
}

#[test]
fn preference_max_orders_descending() {
    let mut t = seeded_trader();
    let hits = t
        .query("integrade::node", "cpu_mips >= 0", "max cpu_mips", 10)
        .unwrap();
    let mips: Vec<i64> = hits
        .iter()
        .map(|o| o.properties["cpu_mips"].as_f64().unwrap() as i64)
        .collect();
    assert_eq!(mips, vec![1200, 800, 300]);
}

#[test]
fn preference_min_orders_ascending() {
    let mut t = seeded_trader();
    let hits = t
        .query("integrade::node", "idle == true", "min cpu_mips", 10)
        .unwrap();
    let ids: Vec<u64> = hits.iter().map(|o| o.id.0).collect();
    assert_eq!(ids, vec![1, 2]);
}

#[test]
fn preference_random_is_deterministic_per_seed() {
    let mut a = seeded_trader();
    let mut b = seeded_trader();
    let ha = a
        .query("integrade::node", "cpu_mips >= 0", "random", 10)
        .unwrap();
    let hb = b
        .query("integrade::node", "cpu_mips >= 0", "random", 10)
        .unwrap();
    assert_eq!(
        ha.iter().map(|o| o.id).collect::<Vec<_>>(),
        hb.iter().map(|o| o.id).collect::<Vec<_>>()
    );
    assert_eq!(ha.len(), 3);
}

#[test]
fn max_offers_truncates() {
    let mut t = seeded_trader();
    let hits = t
        .query("integrade::node", "cpu_mips >= 0", "max cpu_mips", 1)
        .unwrap();
    assert_eq!(hits.len(), 1);
    assert_eq!(hits[0].id.0, 3);
}

#[test]
fn undefined_preference_key_sorts_last() {
    let mut t = seeded_trader();
    t.export("integrade::node", &node_ior(5), BTreeMap::new())
        .unwrap();
    let hits = t
        .query("integrade::node", "true", "max cpu_mips", 10)
        .unwrap();
    assert_eq!(hits.last().unwrap().id.0, 5);
}

#[test]
fn modify_updates_visible_properties() {
    let mut t = Trader::new(1);
    let id = t
        .export("integrade::node", &node_ior(1), node_props(100, 8, true))
        .unwrap();
    assert!(t
        .query("integrade::node", "cpu_mips >= 500", "first", 10)
        .unwrap()
        .is_empty());
    t.modify(id, node_props(900, 8, true)).unwrap();
    assert_eq!(
        t.query("integrade::node", "cpu_mips >= 500", "first", 10)
            .unwrap()
            .len(),
        1
    );
}

#[test]
fn modify_values_updates_in_place() {
    let mut t = Trader::new(1);
    let id = t
        .export("integrade::node", &node_ior(1), node_props(100, 8, true))
        .unwrap();
    let mips = t.property_slot("cpu_mips");
    let idle = t.property_slot("idle");
    t.modify_values(
        id,
        [(mips, AnyValue::Long(900)), (idle, AnyValue::Bool(false))],
    )
    .unwrap();
    // The slot write shows both to the query path and in the built view.
    let hits = t
        .query("integrade::node", "cpu_mips >= 500", "first", 10)
        .unwrap();
    assert_eq!(hits.len(), 1);
    assert_eq!(hits[0].properties["cpu_mips"], AnyValue::Long(900));
    assert_eq!(hits[0].properties["idle"], AnyValue::Bool(false));
    assert!(t
        .query("integrade::node", "idle == true", "first", 10)
        .unwrap()
        .is_empty());
    assert!(matches!(
        t.modify_values(OfferId(99), [(mips, AnyValue::Long(1))]),
        Err(TraderError::UnknownOffer(OfferId(99)))
    ));
}

#[test]
fn offer_ref_reads_what_the_built_offer_holds() {
    let mut t = seeded_trader();
    let mips = t.property_slot("cpu_mips");
    t.modify_values(OfferId(2), [(mips, AnyValue::Long(850))])
        .unwrap();
    let built = t.offer(OfferId(2)).unwrap();
    assert_eq!(built.service_type, "integrade::node");
    assert_eq!(built.reference, node_ior(2));
    assert_eq!(built.properties, {
        let mut props = node_props(800, 64, true);
        props.insert("cpu_mips".to_owned(), AnyValue::Long(850));
        props
    });
    let borrowed = t.offer_ref(OfferId(2)).unwrap();
    assert_eq!(borrowed.id, OfferId(2));
    for name in ["cpu_mips", "mem_mb", "idle"] {
        assert_eq!(
            borrowed.property(name),
            built.properties.get(name),
            "{name}"
        );
    }
    assert_eq!(borrowed.property("gpu_count"), None, "never interned");
    t.property_slot("gpu_count");
    assert_eq!(t.offer_ref(OfferId(2)).unwrap().property("gpu_count"), None);
    assert!(t.offer_ref(OfferId(99)).is_none());
    assert_eq!(t.withdraw(OfferId(2)).unwrap(), built);
    assert!(t.offer_ref(OfferId(2)).is_none());
}

#[test]
fn modify_values_can_introduce_new_property() {
    let mut t = Trader::new(1);
    let id = t
        .export("integrade::node", &node_ior(1), node_props(100, 8, true))
        .unwrap();
    let gpu = t.property_slot("gpu_count");
    t.modify_values(id, [(gpu, AnyValue::Long(2))]).unwrap();
    let hits = t
        .query("integrade::node", "gpu_count >= 1", "first", 10)
        .unwrap();
    assert_eq!(hits.len(), 1);
    assert_eq!(
        t.offer(id).unwrap().properties["gpu_count"],
        AnyValue::Long(2)
    );
}

#[test]
fn withdraw_removes_offer() {
    let mut t = seeded_trader();
    let id = OfferId(2);
    t.withdraw(id).unwrap();
    assert_eq!(t.withdraw(id).unwrap_err(), TraderError::UnknownOffer(id));
    assert_eq!(t.offer_count(), 3);
    let hits = t
        .query("integrade::node", "cpu_mips >= 500", "first", 10)
        .unwrap();
    assert_eq!(hits.len(), 1);
}

#[test]
fn bad_constraint_and_preference_are_errors() {
    let mut t = seeded_trader();
    assert!(matches!(
        t.query("integrade::node", "cpu_mips >=", "first", 10),
        Err(TraderError::BadConstraint(_))
    ));
    assert!(matches!(
        t.query("integrade::node", "true", "best cpu", 10),
        Err(TraderError::BadPreference(_))
    ));
}

#[test]
fn preference_parse_variants() {
    assert_eq!(Preference::parse("").unwrap(), Preference::First);
    assert_eq!(Preference::parse("first").unwrap(), Preference::First);
    assert_eq!(Preference::parse("random").unwrap(), Preference::Random);
    assert!(matches!(
        Preference::parse("max cpu_mips").unwrap(),
        Preference::Max(_)
    ));
    assert!(matches!(
        Preference::parse("min 2 * load").unwrap(),
        Preference::Min(_)
    ));
    assert!(Preference::parse("max").is_err());
    assert!(Preference::parse("random stuff").is_err());
}

#[test]
fn plan_cache_hits_repeated_queries() {
    let mut t = seeded_trader();
    assert_eq!(t.plan_cache_stats(), (0, 0));
    for _ in 0..5 {
        t.query("integrade::node", "cpu_mips >= 500", "max cpu_mips", 10)
            .unwrap();
    }
    assert_eq!(t.plan_cache_stats(), (4, 1));
    t.clear_plan_cache();
    t.query("integrade::node", "cpu_mips >= 500", "max cpu_mips", 10)
        .unwrap();
    assert_eq!(t.plan_cache_stats(), (4, 2));
}

#[test]
fn prepared_plan_queries_directly() {
    let mut t = seeded_trader();
    let plan = t.prepare("cpu_mips >= 500", "min cpu_mips").unwrap();
    let hits = t.query_plan("integrade::node", &plan, 10);
    let ids: Vec<u64> = hits.iter().map(|o| o.id.0).collect();
    assert_eq!(ids, vec![2, 3]);
    // The plan survives store mutations.
    t.export("integrade::node", &node_ior(6), node_props(600, 8, true))
        .unwrap();
    let hits = t.query_plan("integrade::node", &plan, 10);
    let ids: Vec<u64> = hits.iter().map(|o| o.id.0).collect();
    assert_eq!(ids, vec![5, 2, 3]);
}

#[test]
fn indexed_and_scan_paths_agree() {
    // Same store twice: one answers through the indexes (or, for the
    // disjunction, which yields no prefilter, the bucket scan), the
    // other through the reference linear scan.
    let mut indexed = Trader::new(11);
    let mut reference = Trader::new(11);
    for i in 0..100u32 {
        let props = node_props(
            300 + (i as i64 * 13) % 1700,
            (i as i64 * 7) % 512,
            i % 5 != 0,
        );
        indexed
            .export("integrade::node", &node_ior(i), props.clone())
            .unwrap();
        reference
            .export("integrade::node", &node_ior(i), props)
            .unwrap();
    }
    for (constraint, pref) in [
        ("cpu_mips >= 500 and mem_mb >= 16", "max cpu_mips"),
        ("idle and cpu_mips < 900", "min mem_mb"),
        ("mem_mb == 0 or cpu_mips > 1500", "first"),
        ("cpu_mips >= 0", "random"),
    ] {
        let a = indexed
            .query("integrade::node", constraint, pref, 7)
            .unwrap();
        let b = reference
            .query_reference("integrade::node", constraint, pref, 7)
            .unwrap();
        assert_eq!(a, b, "constraint {constraint:?} pref {pref:?}");
    }
}

#[test]
fn query_matches_reference_implementation() {
    let mut indexed = seeded_trader();
    let mut reference = seeded_trader();
    for (constraint, pref) in [
        ("cpu_mips >= 500", "first"),
        ("cpu_mips >= 0", "max cpu_mips"),
        ("idle == true", "min cpu_mips"),
        ("cpu_mips >= 0", "random"),
        ("mem_mb > 10 and cpu_mips > 100", "max cpu_mips + mem_mb"),
    ] {
        let a = indexed
            .query("integrade::node", constraint, pref, 10)
            .unwrap();
        let b = reference
            .query_reference("integrade::node", constraint, pref, 10)
            .unwrap();
        assert_eq!(a, b, "constraint {constraint:?} pref {pref:?}");
    }
}

#[test]
fn servant_full_cycle_over_bus() {
    let mut bus = LoopbackBus::new();
    let ep = bus.add_orb(Endpoint::new(0, 1));
    let trader_ref = bus
        .activate(
            ep,
            ObjectKey::new("Trader"),
            Box::new(TraderServant::new(3)),
        )
        .unwrap();

    // Export two node offers remotely.
    let out = bus
        .invoke(&trader_ref, "export", |w| {
            (
                "integrade::node".to_owned(),
                node_ior(1),
                node_props(700, 32, true),
            )
                .encode(w)
        })
        .unwrap();
    let id1 = OfferId::from_cdr_bytes(&out).unwrap();
    bus.invoke(&trader_ref, "export", |w| {
        (
            "integrade::node".to_owned(),
            node_ior(2),
            node_props(200, 32, true),
        )
            .encode(w)
    })
    .unwrap();

    // Query remotely.
    let out = bus
        .invoke(&trader_ref, "query", |w| {
            (
                "integrade::node".to_owned(),
                "cpu_mips >= 500".to_owned(),
                "max cpu_mips".to_owned(),
                10u32,
            )
                .encode(w)
        })
        .unwrap();
    let offers = Vec::<ServiceOffer>::from_cdr_bytes(&out).unwrap();
    assert_eq!(offers.len(), 1);
    assert_eq!(offers[0].id, id1);

    // Withdraw remotely; second withdraw is a user exception.
    bus.invoke(&trader_ref, "withdraw", |w| id1.encode(w))
        .unwrap();
    let err = bus
        .invoke(&trader_ref, "withdraw", |w| id1.encode(w))
        .unwrap_err();
    assert!(err.to_string().contains("unknown"), "{err}");
}

#[test]
fn offer_cdr_round_trip() {
    crate::cdr::assert_wire_sound(&ServiceOffer {
        id: OfferId(9),
        service_type: "integrade::node".into(),
        reference: node_ior(9),
        properties: node_props(500, 16, true),
    });
}
