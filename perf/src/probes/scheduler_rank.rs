//! `core.scheduler.rank_ns`: rank one full candidate list (64, the
//! default cap) under the default strategy.

use super::fixture::{constraint, Point};
use crate::measure::ns_per_op;
use integrade_core::asct::SchedulingPreference;
use integrade_core::grm::GrmState;
use integrade_core::scheduler::{rank, Strategy};
use integrade_simnet::rng::DetRng;
use std::collections::BTreeMap;
use std::hint::black_box;

pub fn run(point: &Point, grm: &mut GrmState) -> f64 {
    let candidates = grm
        .candidates(&constraint(), "max cpu_mips", 64, &BTreeMap::new())
        .expect("the constraint parses");
    let mut rng = DetRng::new(point.seed);
    ns_per_op(|| {
        rank(
            black_box(&candidates),
            Strategy::AvailabilityOnly,
            SchedulingPreference::default(),
            &mut rng,
        )
        .len()
    })
}
