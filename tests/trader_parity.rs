//! Parity suite: the indexed trader must be observably identical to the
//! seed's linear-scan implementation.
//!
//! Two traders are built with the same RNG seed and fed the same offer
//! stream; one answers through the indexed [`Trader::query`] path and the
//! other through [`Trader::query_reference`], which is the seed
//! implementation kept verbatim as an oracle. Because `random` preference
//! shuffles the *full* match list in both paths, the deterministic RNG
//! streams stay in lockstep and even shuffled results must be
//! byte-identical.
//!
//! The trader stores each offer once, as a slot table, and builds the
//! public [`ServiceOffer`](integrade::orb::trading::ServiceOffer) only
//! where an offer leaves it. The last property holds the in-process reads
//! ([`Trader::offer_ref`], [`Trader::query_ids`]) to those built views.

use integrade::orb::any::AnyValue;
use integrade::orb::ior::{Endpoint, Ior, ObjectKey};
use integrade::orb::trading::{OfferId, Trader, TraderError};
use proptest::prelude::*;
use std::collections::BTreeMap;

const SERVICE: &str = "integrade::node";
const OSES: [&str; 3] = ["linux", "solaris", "windows"];

/// One generated node offer: (cpu_mips, free_ram_mb, exporting, has_load,
/// load, os index). `has_load = false` leaves the `load` property out so
/// queries exercise the undefined-property semantics.
type RawOffer = (i64, i64, bool, bool, f64, u8);

fn offer_props(raw: &RawOffer) -> BTreeMap<String, AnyValue> {
    let (cpu, ram, exporting, has_load, load, os) = *raw;
    let mut props: BTreeMap<String, AnyValue> = [
        ("cpu_mips".to_owned(), AnyValue::Long(cpu)),
        ("free_ram_mb".to_owned(), AnyValue::Long(ram)),
        ("exporting".to_owned(), AnyValue::Bool(exporting)),
        (
            "os".to_owned(),
            AnyValue::Str(OSES[os as usize % OSES.len()].to_owned()),
        ),
    ]
    .into_iter()
    .collect();
    if has_load {
        props.insert("load".to_owned(), AnyValue::Double(load));
    }
    props
}

fn node_ior(i: usize) -> Ior {
    Ior::new(
        "IDL:integrade/Lrm:1.0",
        Endpoint::new(i as u32, 0),
        ObjectKey::new(format!("lrm{i}")),
    )
}

fn raw_offer() -> impl Strategy<Value = RawOffer> {
    (
        0i64..2000,
        0i64..512,
        any::<bool>(),
        any::<bool>(),
        0.0f64..1.0,
        0u8..3,
    )
}

/// Builds the constraint string for form `which` with the generated
/// thresholds. Every form is valid; forms cover indexed range prefilters,
/// bare-property prefilters, string equality (never indexed), arithmetic
/// between two properties (no prefilter at all), `exist`, and `not`.
fn constraint_for(which: u8, min_cpu: i64, min_ram: i64, load_pct: i64) -> String {
    match which % 7 {
        0 => format!("exporting == true and cpu_mips >= {min_cpu} and free_ram_mb >= {min_ram}"),
        1 => format!("cpu_mips > {min_cpu} and cpu_mips < {}", min_cpu + 700),
        2 => format!("exist load and load <= 0.{load_pct:02}"),
        3 => format!("os == 'linux' and free_ram_mb >= {min_ram}"),
        4 => format!("not exporting or cpu_mips >= {min_cpu}"),
        5 => "free_ram_mb * 4 >= cpu_mips".to_owned(),
        _ => "exporting".to_owned(),
    }
}

fn preference_for(which: u8) -> &'static str {
    match which % 7 {
        0 => "first",
        1 => "random",
        2 => "max cpu_mips",
        3 => "min cpu_mips",
        4 => "max cpu_mips + free_ram_mb",
        5 => "min load",
        _ => "max load",
    }
}

fn twin_traders(seed: u64, offers: &[RawOffer]) -> (Trader, Trader) {
    let mut indexed = Trader::new(seed);
    let mut oracle = Trader::new(seed);
    for (i, raw) in offers.iter().enumerate() {
        let ior = node_ior(i);
        indexed.export(SERVICE, &ior, offer_props(raw)).unwrap();
        oracle.export(SERVICE, &ior, offer_props(raw)).unwrap();
    }
    (indexed, oracle)
}

proptest! {
    /// Indexed query ≡ seed linear scan for every constraint/preference
    /// form, including `random` (same RNG stream on both sides).
    #[test]
    fn indexed_query_matches_reference(
        offers in prop::collection::vec(raw_offer(), 0..40),
        queries in prop::collection::vec((0u8..7, 0u8..7, 0i64..2000, 0i64..512, 0i64..100), 1..6),
        max_offers in 0usize..80,
        seed in 0u64..1000,
    ) {
        let (mut indexed, mut oracle) = twin_traders(seed, &offers);
        for (cform, pform, min_cpu, min_ram, load_pct) in queries {
            let constraint = constraint_for(cform, min_cpu, min_ram, load_pct);
            let preference = preference_for(pform);
            let got = indexed
                .query(SERVICE, &constraint, preference, max_offers)
                .unwrap();
            let want = oracle
                .query_reference(SERVICE, &constraint, preference, max_offers)
                .unwrap();
            prop_assert_eq!(got, want);
        }
    }

    /// One query per store, over every constraint form: a prefilter picked
    /// from the secondary indexes, or (forms 4 and 5, which yield none) the
    /// plain bucket scan — prefilters are an optimisation, never a semantic.
    #[test]
    fn indexed_and_scan_modes_agree(
        offers in prop::collection::vec(raw_offer(), 0..40),
        cform in 0u8..7,
        pform in 0u8..7,
        min_cpu in 0i64..2000,
        min_ram in 0i64..512,
        max_offers in 0usize..80,
    ) {
        let (mut indexed, mut oracle) = twin_traders(11, &offers);
        let constraint = constraint_for(cform, min_cpu, min_ram, 50);
        let preference = preference_for(pform);
        let got = indexed
            .query(SERVICE, &constraint, preference, max_offers)
            .unwrap();
        let want = oracle
            .query_reference(SERVICE, &constraint, preference, max_offers)
            .unwrap();
        prop_assert_eq!(got, want);
    }

    /// The allocation-free `modify_values` path leaves the trader in the
    /// same observable state as a wholesale `modify`, and queries after a
    /// mix of updates, withdrawals and an export past the withdrawn holes
    /// still match the oracle.
    #[test]
    fn parity_survives_updates_and_withdrawals(
        offers in prop::collection::vec(raw_offer(), 1..30),
        updates in prop::collection::vec((0usize..30, 0i64..2000, 0i64..512, any::<bool>()), 0..20),
        withdraw_every in 2usize..9,
        cform in 0u8..7,
        pform in 0u8..7,
    ) {
        let (mut indexed, mut oracle) = twin_traders(23, &offers);
        // Sequential exports get ids 1..=n in both traders.
        let ids: Vec<_> = (0..offers.len()).map(|i| OfferId(i as u64 + 1)).collect();
        let cpu_slot = indexed.property_slot("cpu_mips");
        let ram_slot = indexed.property_slot("free_ram_mb");
        let exp_slot = indexed.property_slot("exporting");

        let mut current: Vec<RawOffer> = offers.clone();

        for (idx, cpu, ram, exporting) in updates {
            let i = idx % offers.len();
            let id = ids[i];
            current[i].0 = cpu;
            current[i].1 = ram;
            current[i].2 = exporting;
            // Indexed side: in-place typed writes. Oracle side: wholesale
            // property-map replacement (the seed API).
            indexed
                .modify_values(
                    id,
                    [
                        (cpu_slot, AnyValue::Long(cpu)),
                        (ram_slot, AnyValue::Long(ram)),
                        (exp_slot, AnyValue::Bool(exporting)),
                    ],
                )
                .unwrap();
            oracle.modify(id, offer_props(&current[i])).unwrap();
        }
        for i in (0..offers.len()).step_by(withdraw_every) {
            indexed.withdraw(ids[i]).unwrap();
            oracle.withdraw(ids[i]).unwrap();
        }

        // The withdrawn ids are holes in the offer table now. A hole, like
        // an id no export ever issued, is an unknown offer to every
        // operation, and the next export lands after the holes, not in one.
        let never_issued = OfferId(u64::MAX);
        let holes = (0..offers.len()).step_by(withdraw_every).map(|i| ids[i]);
        for id in holes.chain([never_issued, OfferId(0)]) {
            let unknown = TraderError::UnknownOffer(id);
            prop_assert!(indexed.offer(id).is_none());
            prop_assert_eq!(
                indexed.modify_values(id, [(cpu_slot, AnyValue::Long(1))]),
                Err(unknown.clone())
            );
            prop_assert_eq!(oracle.modify(id, BTreeMap::new()), Err(unknown.clone()));
            prop_assert_eq!(indexed.withdraw(id), Err(unknown.clone()));
            prop_assert_eq!(oracle.withdraw(id), Err(unknown));
        }
        let live = offers.len() - offers.len().div_ceil(withdraw_every);
        prop_assert_eq!(indexed.offer_count(), live);
        for trader in [&mut indexed, &mut oracle] {
            let fresh = trader
                .export(SERVICE, &node_ior(offers.len()), offer_props(&offers[0]))
                .unwrap();
            prop_assert_eq!(fresh, OfferId(offers.len() as u64 + 1));
            prop_assert_eq!(trader.offer_count(), live + 1);
        }

        let constraint = constraint_for(cform, 400, 64, 50);
        let preference = preference_for(pform);
        let got = indexed.query(SERVICE, &constraint, preference, 64).unwrap();
        let want = oracle
            .query_reference(SERVICE, &constraint, preference, 64)
            .unwrap();
        prop_assert_eq!(got, want);
    }

    /// After a random mix of exports, wholesale `modify`, in-place
    /// `modify_values` and withdrawals, every live offer reads the same
    /// through the borrowed [`Trader::offer_ref`] as through the built
    /// [`Trader::offer`], and [`Trader::query_ids`] returns the ids of
    /// [`Trader::query`], in order. The id side runs on a twin trader so
    /// `random` preferences draw the same shuffles on both.
    #[test]
    fn borrowed_reads_match_built_views(
        offers in prop::collection::vec(raw_offer(), 1..30),
        ops in prop::collection::vec((0u8..4, 0usize..40, raw_offer()), 0..30),
        queries in prop::collection::vec((0u8..7, 0u8..7, 0i64..2000, 0i64..512, 0i64..100), 1..6),
        max_offers in 0usize..80,
    ) {
        let (mut by_view, mut by_id) = twin_traders(31, &offers);
        let mut ids: Vec<OfferId> = (1..=offers.len() as u64).map(OfferId).collect();
        // Same names interned in the same order: the twins share slot ids.
        let slots = ["cpu_mips", "free_ram_mb", "load"].map(|name| by_view.property_slot(name));
        for name in ["cpu_mips", "free_ram_mb", "load"] {
            by_id.property_slot(name);
        }
        for (kind, at, raw) in ops {
            let target = (!ids.is_empty()).then(|| ids[at % ids.len()]);
            let mut exported = None;
            for trader in [&mut by_view, &mut by_id] {
                match (kind, target) {
                    (0, _) => {
                        exported = Some(trader.export(SERVICE, &node_ior(at), offer_props(&raw)).unwrap());
                    }
                    (1, Some(id)) => trader.modify(id, offer_props(&raw)).unwrap(),
                    (2, Some(id)) => trader
                        .modify_values(
                            id,
                            [
                                (slots[0], AnyValue::Long(raw.0)),
                                (slots[1], AnyValue::Long(raw.1)),
                                (slots[2], AnyValue::Double(raw.4)),
                            ],
                        )
                        .unwrap(),
                    (3, Some(id)) => {
                        trader.withdraw(id).unwrap();
                    }
                    _ => {}
                }
            }
            match (kind, target) {
                (0, _) => ids.extend(exported),
                (3, Some(id)) => ids.retain(|&live| live != id),
                _ => {}
            }
        }
        prop_assert_eq!(by_view.offer_count(), ids.len());
        for &id in &ids {
            let built = by_view.offer(id).unwrap();
            let borrowed = by_view.offer_ref(id).unwrap();
            prop_assert_eq!(borrowed.id, id);
            for name in ["cpu_mips", "free_ram_mb", "exporting", "os", "load", "gpu_count"] {
                prop_assert_eq!(borrowed.property(name), built.properties.get(name), "{} of {}", name, id);
            }
        }
        for (cform, pform, min_cpu, min_ram, load_pct) in queries {
            let constraint = constraint_for(cform, min_cpu, min_ram, load_pct);
            let preference = preference_for(pform);
            let views = by_view.query(SERVICE, &constraint, preference, max_offers).unwrap();
            let hits = by_id.query_ids(SERVICE, &constraint, preference, max_offers).unwrap();
            prop_assert_eq!(views.iter().map(|o| o.id).collect::<Vec<_>>(), hits);
        }
        prop_assert_eq!(by_view.query_count(), by_id.query_count());
    }
}
