//! E10: trader query cost vs offer count — the GRM consults the trader on
//! every scheduling pass, so its scaling bounds cluster size.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use integrade_orb::any::AnyValue;
use integrade_orb::ior::{Endpoint, Ior, ObjectKey};
use integrade_orb::trading::Trader;
use std::collections::BTreeMap;
use std::hint::black_box;

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

const PAPER_CONSTRAINT: &str = "exporting == true and cpu_mips >= 500 and free_ram_mb >= 16";

fn bench_query(c: &mut Criterion) {
    let mut group = c.benchmark_group("trader_query");
    for &offers in &[100usize, 1000, 5000] {
        // Warm path: plan compiled once, every iteration hits the plan
        // cache and the secondary indexes. This is the GRM steady state.
        let mut trader = trader_with(offers);
        group.bench_with_input(
            BenchmarkId::new("paper_constraint", offers),
            &offers,
            |b, _| {
                b.iter(|| {
                    trader
                        .query(
                            "integrade::node",
                            black_box(PAPER_CONSTRAINT),
                            "max cpu_mips",
                            64,
                        )
                        .unwrap()
                })
            },
        );

        // Cold path: drop the plan cache before every query so each
        // iteration pays parse + compile + prefilter extraction.
        let mut trader = trader_with(offers);
        group.bench_with_input(BenchmarkId::new("cold_plan", offers), &offers, |b, _| {
            b.iter(|| {
                trader.clear_plan_cache();
                trader
                    .query(
                        "integrade::node",
                        black_box(PAPER_CONSTRAINT),
                        "max cpu_mips",
                        64,
                    )
                    .unwrap()
            })
        });

        // Seed baseline: the original linear-scan implementation kept as
        // `query_reference` — re-parses and sorts every call.
        let mut trader = trader_with(offers);
        group.bench_with_input(
            BenchmarkId::new("seed_reference", offers),
            &offers,
            |b, _| {
                b.iter(|| {
                    trader
                        .query_reference(
                            "integrade::node",
                            black_box(PAPER_CONSTRAINT),
                            "max cpu_mips",
                            64,
                        )
                        .unwrap()
                })
            },
        );
    }
    group.finish();
}

fn bench_constraint_parse(c: &mut Criterion) {
    c.bench_function("constraint_parse_paper_example", |b| {
        b.iter(|| {
            integrade_orb::constraint::parse(black_box(
                "exporting == true and cpu_mips >= 500 and free_ram_mb >= 16",
            ))
            .unwrap()
        })
    });
}

criterion_group!(benches, bench_query, bench_constraint_parse);
criterion_main!(benches);
