//! `orb.trading.export_ns`: register one more node offer in a trader that
//! already holds one per node (what `GridBuilder::build` pays per node).

use super::fixture::{lrm_ior, Point};
use crate::measure::ns_per_op;
use integrade_core::grm::GrmState;
use integrade_core::protocol::{node_props, NODE_SERVICE_TYPE};
use integrade_orb::any::AnyValue;
use integrade_orb::trading::Trader;
use std::collections::BTreeMap;

fn properties(i: u32) -> BTreeMap<String, AnyValue> {
    [
        (node_props::NODE_ID.to_owned(), AnyValue::Long(i64::from(i))),
        (node_props::CPU_MIPS.to_owned(), AnyValue::Long(500)),
        (node_props::FREE_CPU.to_owned(), AnyValue::Double(0.3)),
        (node_props::FREE_RAM_MB.to_owned(), AnyValue::Long(128)),
        (node_props::EXPORTING.to_owned(), AnyValue::Bool(true)),
    ]
    .into_iter()
    .collect()
}

pub fn run(point: &Point, _: &mut GrmState) -> f64 {
    let mut trader = Trader::new(point.seed);
    for i in 0..point.nodes as u32 {
        trader
            .export(NODE_SERVICE_TYPE, &lrm_ior(i), properties(i))
            .expect("export is infallible");
    }
    let reference = lrm_ior(u32::MAX);
    let mut next = point.nodes as u32;
    ns_per_op(|| {
        next += 1;
        let offer = trader
            .export(NODE_SERVICE_TYPE, &reference, properties(next))
            .expect("export is infallible");
        // Keep the offer count at the operating point.
        trader.withdraw(offer).is_ok()
    })
}
