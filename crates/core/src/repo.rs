//! The distributed checkpoint repository.
//!
//! The paper names checkpointing as the mechanism that lets applications
//! "resume their execution in the case of crashes" (§3). Early versions of
//! this reproduction kept a single volatile checkpoint index inside the GRM;
//! a GRM crash concurrent with a node crash lost every checkpoint. This
//! module provides the two durable halves of the replicated repository:
//!
//! * [`ReplicaStore`] — the per-LRM *disk*: a node's locally held replica
//!   blobs, keyed by `(job, part)`. It survives an LRM process crash (the
//!   host reboots with its disk intact) and keeps only the newest version
//!   per part, garbage-collecting superseded checkpoints on arrival.
//! * [`ReplicaMap`] — the GRM's *soft state*: which node claims to hold
//!   which version of which part's checkpoint. It is wiped by a GRM crash
//!   and rebuilt entirely from replica reports piggybacked on the periodic
//!   LRM status updates, so `restart_grm` needs no recovery protocol of its
//!   own.
//!
//! Integrity is end-to-end: every blob carries a CRC32 digest ([`crc32`])
//! computed over the marshalled `GlobalCheckpoint` bytes by the writer, and
//! verified both by the replica on store (a bit flipped in flight is
//! rejected and re-sent) and by the GRM on fetch during recovery (a bit
//! rotted at rest makes recovery fall back to the next replica).

use crate::protocol::SharedBytes;
use crate::types::{JobId, NodeId};
use std::collections::BTreeMap;

/// Slicing-by-16 lookup tables for the reflected IEEE 802.3 polynomial,
/// built at compile time so the crate needs no checksum dependency.
/// `CRC_TABLES[0]` is the classic bytewise table; `CRC_TABLES[k][b]` is the
/// CRC of byte `b` followed by `k` zero bytes, so sixteen lookups advance
/// the register over sixteen input bytes at once.
const CRC_TABLES: [[u32; 256]; 16] = build_crc_tables();

const fn build_crc_tables() -> [[u32; 256]; 16] {
    let mut tables = [[0u32; 256]; 16];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut bit = 0;
        while bit < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            bit += 1;
        }
        tables[0][i] = c;
        i += 1;
    }
    let mut k = 1;
    while k < 16 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[k - 1][i];
            tables[k][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    tables
}

/// CRC32 (IEEE 802.3, reflected) of `bytes` — the digest attached to every
/// replicated checkpoint blob. Sixteen bytes per step through sixteen
/// lookup tables (slicing-by-16), then the tail bytewise; the digest is the
/// classic one-byte-per-lookup CRC's for every input.
///
/// # Examples
///
/// ```
/// use integrade_core::repo::crc32;
/// assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
/// assert_eq!(crc32(b""), 0);
/// ```
pub fn crc32(bytes: &[u8]) -> u32 {
    let t = &CRC_TABLES;
    let mut c = 0xFFFF_FFFFu32;
    let mut chunks = bytes.chunks_exact(16);
    for chunk in &mut chunks {
        let word = |i: usize| u32::from_le_bytes(chunk[i..i + 4].try_into().expect("4 bytes"));
        // Byte j of the chunk still has 15 - j bytes to travel: table 15 - j.
        let lane = |w: u32, hi: usize| {
            t[hi][(w & 0xFF) as usize]
                ^ t[hi - 1][((w >> 8) & 0xFF) as usize]
                ^ t[hi - 2][((w >> 16) & 0xFF) as usize]
                ^ t[hi - 3][(w >> 24) as usize]
        };
        c = lane(word(0) ^ c, 15) ^ lane(word(4), 11) ^ lane(word(8), 7) ^ lane(word(12), 3);
    }
    for &b in chunks.remainder() {
        c = t[0][((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
    }
    c ^ 0xFFFF_FFFF
}

/// One replica of a part's checkpoint as held on an LRM's disk.
#[derive(Debug, Clone, PartialEq)]
pub struct StoredCheckpoint {
    /// Monotonic checkpoint version (superstep counter for BSP parts).
    pub version: u64,
    /// Checkpointed work in MIPS·s, under the accounting convention of the
    /// launch that wrote it (see `grid::on_part_evicted`).
    pub work_mips_s: u64,
    /// CRC32 over `payload`, computed by the writer.
    pub digest: u32,
    /// The marshalled `GlobalCheckpoint` CDR bytes, shared with the wire
    /// blob they arrived in (no per-store deep copy).
    pub payload: SharedBytes,
}

/// What [`ReplicaStore::store`] did with an incoming blob.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StoreOutcome {
    /// Stored. `superseded` is true when an older version of the same part
    /// was garbage-collected to make room.
    Accepted {
        /// An older checkpoint of this part was dropped.
        superseded: bool,
    },
    /// The incoming version is not newer than the held one; nothing changed.
    Stale {
        /// The version already on disk.
        held: u64,
    },
    /// The payload does not match its digest — corrupted in flight.
    Corrupt,
}

/// A node's local checkpoint replica storage. Disk semantics: the embedding
/// world must **not** clear this on an LRM crash — the host reboots with its
/// replicas intact and re-announces them on its next status update.
#[derive(Debug, Clone, Default)]
pub struct ReplicaStore {
    entries: BTreeMap<(JobId, u32), StoredCheckpoint>,
    gc_superseded: u64,
}

impl ReplicaStore {
    /// An empty store.
    pub fn new() -> Self {
        ReplicaStore::default()
    }

    /// Verifies the blob's digest and stores it if it is newer than the
    /// held version for the part. Storing a newer version drops the older
    /// one (superseded-superstep garbage collection).
    pub fn store(&mut self, job: JobId, part: u32, ckpt: StoredCheckpoint) -> StoreOutcome {
        if crc32(&ckpt.payload) != ckpt.digest {
            return StoreOutcome::Corrupt;
        }
        match self.entries.get(&(job, part)) {
            Some(held) if held.version >= ckpt.version => {
                StoreOutcome::Stale { held: held.version }
            }
            held => {
                let superseded = held.is_some();
                if superseded {
                    self.gc_superseded += 1;
                }
                self.entries.insert((job, part), ckpt);
                StoreOutcome::Accepted { superseded }
            }
        }
    }

    /// The held replica for a part, if any.
    pub fn get(&self, job: JobId, part: u32) -> Option<&StoredCheckpoint> {
        self.entries.get(&(job, part))
    }

    /// Drops a part's replica (on job completion). Returns true if one was
    /// held.
    pub fn purge(&mut self, job: JobId, part: u32) -> bool {
        self.entries.remove(&(job, part)).is_some()
    }

    /// Iterates all held replicas — the basis of the status-update
    /// re-announces that rebuild the GRM's soft-state map.
    pub fn entries(&self) -> impl Iterator<Item = (JobId, u32, &StoredCheckpoint)> {
        self.entries.iter().map(|(&(j, p), c)| (j, p, c))
    }

    /// Number of parts with a held replica.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when nothing is held.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Drains the count of superseded checkpoints garbage-collected since
    /// the last call, for the world's `repo.gc` event log counter.
    pub fn take_gc(&mut self) -> u64 {
        std::mem::take(&mut self.gc_superseded)
    }
}

/// What the GRM believes one node holds for one part.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReplicaInfo {
    /// Version the holder announced.
    pub version: u64,
    /// Checkpointed work the holder announced, MIPS·s.
    pub work_mips_s: u64,
}

/// The GRM's soft-state view of replica placement. Volatile: a GRM crash
/// clears it; periodic LRM replica reports rebuild it.
#[derive(Debug, Clone, Default)]
pub struct ReplicaMap {
    map: BTreeMap<(JobId, u32), BTreeMap<NodeId, ReplicaInfo>>,
}

impl ReplicaMap {
    /// An empty map.
    pub fn new() -> Self {
        ReplicaMap::default()
    }

    /// Records (or refreshes) that `node` holds `version` of the part.
    pub fn observe(&mut self, node: NodeId, job: JobId, part: u32, info: ReplicaInfo) {
        let holders = self.map.entry((job, part)).or_default();
        match holders.get(&node) {
            // Never regress a holder's version: a stale report (reordered
            // status update) must not hide a newer replica.
            Some(held) if held.version > info.version => {}
            _ => {
                holders.insert(node, info);
            }
        }
    }

    /// The known holders of a part, newest version first (ties broken by
    /// node id for determinism).
    pub fn holders(&self, job: JobId, part: u32) -> Vec<(NodeId, ReplicaInfo)> {
        let mut holders: Vec<(NodeId, ReplicaInfo)> = self
            .map
            .get(&(job, part))
            .map(|h| h.iter().map(|(&n, &i)| (n, i)).collect())
            .unwrap_or_default();
        holders.sort_by(|a, b| b.1.version.cmp(&a.1.version).then(a.0.cmp(&b.0)));
        holders
    }

    /// Forgets a part entirely (on completion), returning the nodes that
    /// held it so the caller can send purge notices.
    pub fn remove_part(&mut self, job: JobId, part: u32) -> Vec<NodeId> {
        self.map
            .remove(&(job, part))
            .map(|h| h.into_keys().collect())
            .unwrap_or_default()
    }

    /// Wipes everything — called on GRM crash; replica reports rebuild it.
    pub fn clear(&mut self) {
        self.map.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use integrade_simnet::rng::DetRng;

    /// The classic one-lookup-per-byte CRC32 that [`crc32`] must equal.
    fn crc32_bytewise(bytes: &[u8]) -> u32 {
        let mut c = 0xFFFF_FFFFu32;
        for &b in bytes {
            c = CRC_TABLES[0][((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
        }
        c ^ 0xFFFF_FFFF
    }

    #[test]
    fn crc32_equals_the_bytewise_crc_at_every_short_length_and_offset() {
        let bytes: Vec<u8> = (0..116u32).map(|i| (i * 37 + 11) as u8).collect();
        for start in 0..16 {
            for len in 0..=100 {
                let slice = &bytes[start..start + len];
                assert_eq!(
                    crc32(slice),
                    crc32_bytewise(slice),
                    "start {start} len {len}"
                );
            }
        }
    }

    #[test]
    fn crc32_equals_the_bytewise_crc_on_seeded_buffers_up_to_64_kib() {
        let mut rng = DetRng::new(26);
        let mut lens = vec![255, 4096, 4148, 65_521, 65_536];
        lens.extend((0..8).map(|_| rng.uniform_range(0, 65_537)));
        for len in lens {
            let bytes: Vec<u8> = (0..len).map(|_| rng.next_u64() as u8).collect();
            assert_eq!(crc32(&bytes), crc32_bytewise(&bytes), "len {len}");
        }
    }

    fn blob(version: u64, work: u64, payload: &[u8]) -> StoredCheckpoint {
        StoredCheckpoint {
            version,
            work_mips_s: work,
            digest: crc32(payload),
            payload: SharedBytes::from(payload),
        }
    }

    #[test]
    fn crc32_matches_known_vectors() {
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        assert_eq!(
            crc32(b"The quick brown fox jumps over the lazy dog"),
            0x414F_A339
        );
    }

    #[test]
    fn crc32_detects_single_bit_flips() {
        let mut bytes = b"checkpoint payload".to_vec();
        let clean = crc32(&bytes);
        for bit in 0..bytes.len() * 8 {
            bytes[bit / 8] ^= 1 << (bit % 8);
            assert_ne!(crc32(&bytes), clean, "bit {bit} undetected");
            bytes[bit / 8] ^= 1 << (bit % 8);
        }
    }

    #[test]
    fn store_keeps_only_the_newest_version_and_counts_gc() {
        let mut store = ReplicaStore::new();
        let job = JobId(1);
        assert_eq!(
            store.store(job, 0, blob(1, 100, b"v1")),
            StoreOutcome::Accepted { superseded: false }
        );
        assert_eq!(
            store.store(job, 0, blob(3, 300, b"v3")),
            StoreOutcome::Accepted { superseded: true }
        );
        // An older version arriving late is stale, not a downgrade.
        assert_eq!(
            store.store(job, 0, blob(2, 200, b"v2")),
            StoreOutcome::Stale { held: 3 }
        );
        assert_eq!(store.get(job, 0).unwrap().version, 3);
        assert_eq!(store.take_gc(), 1);
        assert_eq!(store.take_gc(), 0, "take_gc drains");
    }

    #[test]
    fn store_rejects_corrupt_payloads_without_touching_held_state() {
        let mut store = ReplicaStore::new();
        let job = JobId(7);
        store.store(job, 2, blob(5, 50, b"good"));
        let mut bad = blob(9, 90, b"tampered");
        let mut bytes = bad.payload.to_vec();
        bytes[0] ^= 0x40;
        bad.payload = bytes.into();
        assert_eq!(store.store(job, 2, bad), StoreOutcome::Corrupt);
        assert_eq!(store.get(job, 2).unwrap().version, 5);
    }

    #[test]
    fn purge_and_entries_cover_the_disk() {
        let mut store = ReplicaStore::new();
        store.store(JobId(1), 0, blob(1, 10, b"a"));
        store.store(JobId(2), 3, blob(4, 40, b"b"));
        assert_eq!(store.len(), 2);
        let listed: Vec<(JobId, u32, u64)> =
            store.entries().map(|(j, p, c)| (j, p, c.version)).collect();
        assert_eq!(listed, vec![(JobId(1), 0, 1), (JobId(2), 3, 4)]);
        assert!(store.purge(JobId(1), 0));
        assert!(!store.purge(JobId(1), 0));
        assert_eq!(store.len(), 1);
    }

    #[test]
    fn map_orders_holders_newest_first_and_never_regresses() {
        let mut map = ReplicaMap::new();
        let job = JobId(3);
        let info = |v| ReplicaInfo {
            version: v,
            work_mips_s: v * 10,
        };
        map.observe(NodeId(1), job, 0, info(2));
        map.observe(NodeId(2), job, 0, info(5));
        map.observe(NodeId(3), job, 0, info(5));
        // A stale report must not hide node2's newer replica.
        map.observe(NodeId(2), job, 0, info(1));
        let holders = map.holders(job, 0);
        assert_eq!(
            holders
                .iter()
                .map(|(n, i)| (n.0, i.version))
                .collect::<Vec<_>>(),
            vec![(2, 5), (3, 5), (1, 2)]
        );
    }

    #[test]
    fn map_is_soft_state() {
        let mut map = ReplicaMap::new();
        map.observe(
            NodeId(1),
            JobId(1),
            0,
            ReplicaInfo {
                version: 1,
                work_mips_s: 1,
            },
        );
        let held = map.remove_part(JobId(1), 0);
        assert_eq!(held, vec![NodeId(1)]);
        map.observe(
            NodeId(1),
            JobId(2),
            0,
            ReplicaInfo {
                version: 1,
                work_mips_s: 1,
            },
        );
        map.clear();
        assert!(map.holders(JobId(1), 0).is_empty());
        assert!(map.holders(JobId(2), 0).is_empty());
    }
}
