//! `orb.cdr.decode_status_ns`: CDR-unmarshal one `StatusUpdate`.

use super::fixture::{status_update, Point};
use crate::measure::ns_per_op;
use integrade_core::grm::GrmState;
use integrade_core::protocol::StatusUpdate;
use integrade_orb::cdr::{CdrDecode, CdrEncode};
use std::hint::black_box;

pub fn run(_: &Point, _: &mut GrmState) -> f64 {
    let bytes = status_update(42, 1234).to_cdr_bytes();
    ns_per_op(|| StatusUpdate::from_cdr_bytes(black_box(&bytes)).expect("round trip"))
}
