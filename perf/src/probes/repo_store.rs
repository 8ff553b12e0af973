//! `core.repo.store_ns`: verify and store one 4 KiB checkpoint replica
//! (the default `checkpoint_state_bytes`), superseding the held version.

use super::fixture::Point;
use crate::measure::ns_per_op;
use integrade_core::grm::GrmState;
use integrade_core::repo::{crc32, ReplicaStore, StoredCheckpoint};
use integrade_core::types::JobId;

pub fn replica(version: u64) -> StoredCheckpoint {
    let payload: Vec<u8> = (0..4096u32).map(|i| (i % 251) as u8).collect();
    StoredCheckpoint {
        version,
        work_mips_s: version * 30_000,
        digest: crc32(&payload),
        payload: payload.into(),
    }
}

pub fn run(_: &Point, _: &mut GrmState) -> f64 {
    let mut store = ReplicaStore::new();
    let template = replica(0);
    let mut version = 0;
    ns_per_op(|| {
        version += 1;
        store.store(
            JobId(version % 64),
            0,
            StoredCheckpoint {
                version,
                ..template.clone()
            },
        )
    })
}
