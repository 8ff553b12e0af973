//! E10b: trader query scaling — indexed engine vs the seed linear scan.
//!
//! The GRM consults the trader on every scheduling pass, so query cost
//! bounds how large a cluster one manager can serve. This experiment times
//! the paper's example constraint at growing offer counts across three
//! variants and emits both a prose table and a machine-readable
//! `BENCH_trader.json` for tooling.

use crate::table::{f2, Table};
use integrade_orb::any::AnyValue;
use integrade_orb::ior::{Endpoint, Ior, ObjectKey};
use integrade_orb::trading::Trader;
use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

/// The paper's example constraint (§3.3's "machines with more than X MIPS").
pub const PAPER_CONSTRAINT: &str = "exporting == true and cpu_mips >= 500 and free_ram_mb >= 16";

/// The query variants measured, in the order they appear in the table.
pub const VARIANTS: [&str; 3] = ["seed_reference", "cold_plan", "warm_indexed"];

fn trader_with(offers: usize) -> Trader {
    let mut trader = Trader::new(7);
    for i in 0..offers {
        let properties: BTreeMap<String, AnyValue> = [
            (
                "cpu_mips".to_owned(),
                AnyValue::Long(300 + (i as i64 * 13) % 1700),
            ),
            (
                "free_ram_mb".to_owned(),
                AnyValue::Long((i as i64 * 7) % 512),
            ),
            ("exporting".to_owned(), AnyValue::Bool(i % 5 != 0)),
        ]
        .into_iter()
        .collect();
        trader
            .export(
                "integrade::node",
                &Ior::new(
                    "IDL:integrade/Lrm:1.0",
                    Endpoint::new(i as u32, 0),
                    ObjectKey::new(format!("lrm{i}")),
                ),
                properties,
            )
            .unwrap();
    }
    trader
}

/// Median ns/call of `f` over `samples` timed blocks of `iters` calls each,
/// after one untimed warm-up block.
fn time_ns(mut f: impl FnMut(), iters: usize, samples: usize) -> f64 {
    for _ in 0..iters {
        f();
    }
    let mut per_call: Vec<f64> = (0..samples)
        .map(|_| {
            let start = Instant::now();
            for _ in 0..iters {
                f();
            }
            start.elapsed().as_nanos() as f64 / iters as f64
        })
        .collect();
    per_call.sort_by(|a, b| a.partial_cmp(b).unwrap());
    per_call[per_call.len() / 2]
}

/// Times every variant at each offer count, returning
/// `(offers, variant, ns_per_query)` tuples.
pub fn measure(sizes: &[usize], iters: usize, samples: usize) -> Vec<(usize, &'static str, f64)> {
    let mut results = Vec::new();
    for &offers in sizes {
        let run = |trader: &mut Trader| {
            black_box(
                trader
                    .query("integrade::node", PAPER_CONSTRAINT, "max cpu_mips", 64)
                    .unwrap(),
            )
        };

        let mut trader = trader_with(offers);
        results.push((
            offers,
            "seed_reference",
            time_ns(
                || {
                    black_box(
                        trader
                            .query_reference(
                                "integrade::node",
                                PAPER_CONSTRAINT,
                                "max cpu_mips",
                                64,
                            )
                            .unwrap(),
                    );
                },
                iters,
                samples,
            ),
        ));

        let mut trader = trader_with(offers);
        results.push((
            offers,
            "cold_plan",
            time_ns(
                || {
                    trader.clear_plan_cache();
                    run(&mut trader);
                },
                iters,
                samples,
            ),
        ));

        let mut trader = trader_with(offers);
        results.push((
            offers,
            "warm_indexed",
            time_ns(
                || {
                    run(&mut trader);
                },
                iters,
                samples,
            ),
        ));
    }
    results
}

/// Renders the measurements as `BENCH_trader.json` (machine-readable, one
/// object per `(offers, variant)` cell).
pub fn to_json(results: &[(usize, &'static str, f64)]) -> String {
    let mut out = String::from(
        "{\n  \"experiment\": \"e10b\",\n  \"unit\": \"ns_per_query\",\n  \"constraint\": \"",
    );
    out.push_str(PAPER_CONSTRAINT);
    out.push_str("\",\n  \"results\": [\n");
    for (i, (offers, variant, ns)) in results.iter().enumerate() {
        let sep = if i + 1 == results.len() { "" } else { "," };
        out.push_str(&format!(
            "    {{\"offers\": {offers}, \"variant\": \"{variant}\", \"ns_per_query\": {ns:.1}}}{sep}\n"
        ));
    }
    out.push_str("  ]\n}\n");
    out
}

/// E10b: trader query cost by offer count and engine variant, with the
/// warm-indexed speedup over the seed implementation. Side effect: writes
/// `BENCH_trader.json` to the working directory.
pub fn e10b() -> Table {
    let sizes = [100usize, 1000, 5000];
    let results = measure(&sizes, 40, 5);
    match std::fs::write("BENCH_trader.json", to_json(&results)) {
        Ok(()) => eprintln!("e10b: wrote BENCH_trader.json"),
        Err(e) => eprintln!("e10b: could not write BENCH_trader.json: {e}"),
    }

    let mut table = Table::new(
        "E10b: trader query ns/call — indexed engine vs seed linear scan",
        &[
            "offers",
            "seed_reference",
            "cold_plan",
            "warm_indexed",
            "speedup_vs_seed",
        ],
    );
    for &offers in &sizes {
        let ns = |variant: &str| {
            results
                .iter()
                .find(|(o, v, _)| *o == offers && *v == variant)
                .map(|(_, _, ns)| *ns)
                .unwrap()
        };
        let seed = ns("seed_reference");
        let warm = ns("warm_indexed");
        table.push_row(vec![
            offers.to_string(),
            f2(seed),
            f2(ns("cold_plan")),
            f2(warm),
            format!("{:.1}x", seed / warm),
        ]);
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn measure_covers_every_variant_and_size() {
        let results = measure(&[50, 200], 3, 2);
        assert_eq!(results.len(), VARIANTS.len() * 2);
        for (_, _, ns) in &results {
            assert!(*ns > 0.0);
        }
    }

    #[test]
    fn json_is_well_formed_enough() {
        let json = to_json(&[(100, "warm_indexed", 123.45)]);
        assert!(json.contains("\"experiment\": \"e10b\""));
        assert!(json.contains("\"offers\": 100"));
        assert!(json.contains("\"ns_per_query\": 123.5"));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
    }

    #[test]
    fn warm_indexed_beats_seed_at_scale() {
        // Shape assertion, deliberately loose: at 2000 offers the indexed
        // engine with a warm plan must not be slower than the seed scan.
        let results = measure(&[2000], 20, 3);
        let ns = |variant: &str| {
            results
                .iter()
                .find(|(_, v, _)| *v == variant)
                .map(|(_, _, ns)| *ns)
                .unwrap()
        };
        assert!(
            ns("warm_indexed") <= ns("seed_reference"),
            "warm {} vs seed {}",
            ns("warm_indexed"),
            ns("seed_reference")
        );
    }
}
