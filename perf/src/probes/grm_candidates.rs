//! `core.grm.candidates_ns`: one scheduling-pass candidate lookup: the
//! trader query plus the join against registrations and last statuses.

use super::fixture::{constraint, Point};
use crate::measure::ns_per_op;
use integrade_core::grm::GrmState;
use std::collections::BTreeMap;
use std::hint::black_box;

pub fn run(_: &Point, grm: &mut GrmState) -> f64 {
    let constraint = constraint();
    let predictions = BTreeMap::new();
    ns_per_op(|| {
        grm.candidates(black_box(&constraint), "max cpu_mips", 64, &predictions)
            .expect("the constraint parses")
            .len()
    })
}
