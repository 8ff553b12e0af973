//! `orb.trading.modify_ns`: rewrite one offer's dynamic status values in
//! place, as every accepted update does.

use super::fixture::{lrm_ior, Point};
use crate::measure::ns_per_op;
use integrade_core::grm::GrmState;
use integrade_core::protocol::{node_props, NODE_SERVICE_TYPE};
use integrade_orb::any::AnyValue;
use integrade_orb::trading::Trader;

pub fn run(point: &Point, _: &mut GrmState) -> f64 {
    let mut trader = Trader::new(point.seed);
    let free_cpu = trader.property_slot(node_props::FREE_CPU);
    let free_ram = trader.property_slot(node_props::FREE_RAM_MB);
    let offers: Vec<_> = (0..point.nodes as u32)
        .map(|i| {
            let properties = [
                (node_props::CPU_MIPS.to_owned(), AnyValue::Long(500)),
                (node_props::FREE_CPU.to_owned(), AnyValue::Double(0.3)),
                (node_props::FREE_RAM_MB.to_owned(), AnyValue::Long(128)),
                (node_props::EXPORTING.to_owned(), AnyValue::Bool(true)),
            ]
            .into_iter()
            .collect();
            trader
                .export(NODE_SERVICE_TYPE, &lrm_ior(i), properties)
                .expect("export is infallible")
        })
        .collect();
    let mut round = 0usize;
    ns_per_op(|| {
        round += 1;
        let offer = offers[round % offers.len()];
        let step = (round / offers.len() % 5) as f64;
        trader.modify_values(
            offer,
            [
                (free_cpu, AnyValue::Double(0.3 - step * 0.01)),
                (free_ram, AnyValue::Long(128 - step as i64)),
            ],
        )
    })
}
