//! `orb.cdr.encode_status_ns`: CDR-marshal one `StatusUpdate`.

use super::fixture::{status_update, Point};
use crate::measure::ns_per_op;
use integrade_core::grm::GrmState;
use integrade_orb::cdr::CdrEncode;
use std::hint::black_box;

pub fn run(_: &Point, _: &mut GrmState) -> f64 {
    let update = status_update(42, 1234);
    ns_per_op(|| black_box(&update).to_cdr_bytes())
}
