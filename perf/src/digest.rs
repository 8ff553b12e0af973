//! `sim_digest`: a stable 64-bit hash of everything a run simulated.
//!
//! Two runs of one seed must agree bit for bit whatever the repeat, the
//! tracing or the windowing, so the digest is the correctness gate; it is
//! also what `golden.json` pins for seed 11.

use crate::workloads::Outcome;
use integrade_core::asct::JobState;

/// FNV-1a, 64 bit: dependency-free and stable across Rust releases,
/// which `std`'s `DefaultHasher` does not promise to be.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }
}

fn state_code(state: JobState) -> u64 {
    match state {
        JobState::Queued => 0,
        JobState::Negotiating => 1,
        JobState::Running => 2,
        JobState::Rescheduling => 3,
        JobState::Completed => 4,
        JobState::Failed => 5,
    }
}

/// Hashes the job records, the network, update, QoS and overhead
/// ledgers, trader queries and GUPA models of every cluster in cluster
/// order, then the WAN ledger and per-cluster completions if federated.
pub fn sim_digest(outcome: &Outcome) -> u64 {
    let mut h = Fnv::new();
    h.u64(outcome.submitted as u64);
    h.u64(outcome.refused as u64);
    for (cluster, report) in &outcome.reports {
        h.u64(u64::from(*cluster));
        let mut records: Vec<_> = report.records.iter().collect();
        records.sort_by_key(|r| r.id);
        h.u64(records.len() as u64);
        for r in records {
            h.u64(r.id.0);
            h.bytes(r.name.as_bytes());
            h.u64(state_code(r.state));
            h.u64(r.submitted_at.as_micros());
            h.u64(r.started_at.map_or(u64::MAX, |t| t.as_micros()));
            h.u64(r.completed_at.map_or(u64::MAX, |t| t.as_micros()));
            h.u64(r.parts_done as u64);
            h.u64(r.parts_total as u64);
            h.u64(r.evictions);
            h.u64(r.negotiation_refusals);
            h.u64(r.wasted_work_mips_s);
        }
        let net = &report.net;
        for v in [
            net.messages,
            net.bytes,
            net.failures,
            net.drops,
            net.corrupted,
        ] {
            h.u64(v);
        }
        let updates = &report.updates;
        for v in [
            updates.accepted,
            updates.stale_discarded,
            updates.unknown_node,
        ] {
            h.u64(v);
        }
        h.u64(report.trader_queries);
        let qos = &report.qos;
        h.u64(qos.samples() as u64);
        h.u64(qos.grid_active_slots);
        h.u64(qos.owner_active_slots);
        h.u64(qos.cap_violations);
        h.f64(qos.mean_slowdown());
        h.f64(qos.max_slowdown());
        h.f64(report.overhead.spec_wasted_mips_s);
        h.f64(report.overhead.cert_redundant_mips_s);
        h.u64(report.gupa_models as u64);
        h.u64(report.completed() as u64);
    }
    if let Some(wan) = &outcome.wan {
        for v in [
            wan.messages,
            wan.bytes,
            wan.drops,
            wan.retransmits,
            wan.partitioned,
            wan.summary_updates,
            wan.spillover_queries,
            wan.forwards,
            wan.status_messages,
        ] {
            h.u64(v);
        }
    }
    h.0
}

/// The digest as it is written to JSON: 16 hex digits.
pub fn hex(digest: u64) -> String {
    format!("{digest:016x}")
}
