//! `core.grm.handle_update_ns`: the GRM's receive side of one accepted
//! status update (sequence gate, trader write, liveness bookkeeping).

use super::fixture::{status_update, Point};
use crate::measure::ns_per_op;
use integrade_core::grm::GrmState;
use integrade_simnet::time::SimTime;

pub fn run(point: &Point, grm: &mut GrmState) -> f64 {
    let nodes = point.nodes as u64;
    let mut round = 0u64;
    ns_per_op(|| {
        round += 1;
        let update = status_update((round % nodes) as u32, 2 + round / nodes);
        grm.handle_update_at(&update, SimTime::from_secs(round / nodes * 30));
    })
}
