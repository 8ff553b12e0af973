//! `orb.trading.query_ns`: one warm-plan query with the workload's
//! constraint over one offer per node.

use super::fixture::{constraint, Point};
use crate::measure::ns_per_op;
use integrade_core::grm::GrmState;
use integrade_core::protocol::NODE_SERVICE_TYPE;
use std::hint::black_box;

pub fn run(_: &Point, grm: &mut GrmState) -> f64 {
    let constraint = constraint();
    ns_per_op(|| {
        grm.trader_mut()
            .query(
                NODE_SERVICE_TYPE,
                black_box(&constraint),
                "max cpu_mips",
                64,
            )
            .expect("the constraint parses")
            .len()
    })
}
