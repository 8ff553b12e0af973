//! `orb.giop.frame_decode_ns`: parse one framed `update_status` request.

use super::fixture::Point;
use super::giop_frame_encode::request;
use crate::measure::ns_per_op;
use integrade_core::grm::GrmState;
use integrade_orb::giop::Message;
use std::hint::black_box;

pub fn run(_: &Point, _: &mut GrmState) -> f64 {
    let wire = request().to_wire();
    ns_per_op(|| {
        Message::from_wire(black_box(&wire))
            .expect("round trip")
            .wire_size()
    })
}
