//! `orb.giop.frame_encode_ns`: frame one oneway `update_status` request.

use super::fixture::{status_update, Point};
use crate::measure::ns_per_op;
use integrade_core::grm::GrmState;
use integrade_orb::cdr::CdrEncode;
use integrade_orb::giop::Message;
use integrade_orb::ior::ObjectKey;
use std::hint::black_box;

pub fn request() -> Message<'static> {
    Message::Request {
        request_id: 7,
        response_expected: false,
        object_key: ObjectKey::new("integrade/grm"),
        operation: "update_status".into(),
        body: status_update(42, 1234).to_cdr_bytes().into(),
    }
}

pub fn run(_: &Point, _: &mut GrmState) -> f64 {
    let message = request();
    ns_per_op(|| black_box(&message).to_wire())
}
