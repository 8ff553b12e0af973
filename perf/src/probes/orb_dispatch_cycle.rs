//! `orb.dispatch_cycle_ns`: request → servant dispatch → reply → client,
//! through two ORBs, with the request already on the wire.

use super::fixture::{status_update, Point};
use crate::measure::ns_per_op;
use integrade_core::grm::GrmState;
use integrade_core::protocol::StatusUpdate;
use integrade_orb::cdr::{CdrDecode, CdrEncode, CdrReader};
use integrade_orb::ior::{Endpoint, ObjectKey};
use integrade_orb::orb::{Incoming, Orb};
use integrade_orb::servant::{Servant, ServerException};

struct Sink {
    received: u64,
}

impl Servant for Sink {
    fn type_id(&self) -> &'static str {
        "IDL:perf/Sink:1.0"
    }

    fn dispatch(&mut self, op: &str, args: &mut CdrReader<'_>) -> Result<Vec<u8>, ServerException> {
        match op {
            "update_status" => {
                self.received += StatusUpdate::decode(args)?.seq;
                Ok(Vec::new())
            }
            other => Err(ServerException::BadOperation(other.to_owned())),
        }
    }
}

pub fn run(_: &Point, _: &mut GrmState) -> f64 {
    let mut server = Orb::new(Endpoint::new(1, 0));
    let ior = server.activate(ObjectKey::new("sink"), Box::new(Sink { received: 0 }));
    let mut client = Orb::new(Endpoint::new(2, 0));
    let update = status_update(42, 1234);
    ns_per_op(|| {
        let (_, wire) = client.make_request(&ior, "update_status", |w| update.encode(w));
        let Ok(Incoming::ReplyToSend(reply)) = server.handle_wire(&wire) else {
            panic!("the sink replies to every request");
        };
        client.handle_wire(&reply).is_ok()
    })
}
