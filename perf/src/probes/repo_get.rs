//! `core.repo.get_ns`: look one held replica up among 64 parts.

use super::fixture::Point;
use super::repo_store::replica;
use crate::measure::ns_per_op;
use integrade_core::grm::GrmState;
use integrade_core::repo::ReplicaStore;
use integrade_core::types::JobId;

pub fn run(_: &Point, _: &mut GrmState) -> f64 {
    let mut store = ReplicaStore::new();
    for job in 0..64 {
        store.store(JobId(job), 0, replica(1));
    }
    let mut job = 0;
    ns_per_op(|| {
        job = (job + 1) % 64;
        store.get(JobId(job), 0).map(|c| c.version)
    })
}
