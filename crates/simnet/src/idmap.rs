//! A map for keys that are already dense array indices.
//!
//! Host ids are topology vertex indices, node ids run `0..n` per cluster and
//! offer ids come from a sequential counter, so a table keyed by one of them
//! is a vector with holes: [`IdMap`] is that vector. Lookups are one bounds
//! check, iteration is in id order, and nothing in it is seeded per process
//! the way `std`'s hashed containers are.

use std::marker::PhantomData;

/// A key that is a small non-negative integer.
pub trait DenseId: Copy {
    /// The key's position in the table. An id too large for `usize` maps to
    /// `usize::MAX`, which no table holds.
    fn index(self) -> usize;
}

/// A `Vec<Option<V>>` indexed by a [`DenseId`].
///
/// Memory is proportional to the largest id ever inserted, not to the number
/// of live entries; only insertion grows the table, so looking up an id that
/// arrived off the wire (however large) costs nothing.
///
/// # Examples
///
/// ```
/// use integrade_simnet::idmap::IdMap;
/// use integrade_simnet::topology::HostId;
///
/// let mut sent: IdMap<HostId, u64> = IdMap::new();
/// *sent.get_or_insert_with(HostId(3), || 0) += 1;
/// assert_eq!(sent.get(HostId(3)), Some(&1));
/// assert_eq!(sent.get(HostId(u32::MAX)), None);
/// assert_eq!(sent.len(), 1);
/// ```
#[derive(Debug, Clone)]
pub struct IdMap<K, V> {
    slots: Vec<Option<V>>,
    len: usize,
    _key: PhantomData<K>,
}

impl<K, V> Default for IdMap<K, V> {
    fn default() -> Self {
        IdMap {
            slots: Vec::new(),
            len: 0,
            _key: PhantomData,
        }
    }
}

impl<K: DenseId, V> IdMap<K, V> {
    /// Creates an empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Stores `value` under `key`, returning the entry it replaced.
    pub fn insert(&mut self, key: K, value: V) -> Option<V> {
        let index = key.index();
        if index >= self.slots.len() {
            self.slots.resize_with(index + 1, || None);
        }
        let previous = self.slots[index].replace(value);
        self.len += usize::from(previous.is_none());
        previous
    }

    /// The entry under `key`; `None` for a hole or an id beyond the table.
    pub fn get(&self, key: K) -> Option<&V> {
        self.slots.get(key.index())?.as_ref()
    }

    /// Mutable access to the entry under `key`.
    pub fn get_mut(&mut self, key: K) -> Option<&mut V> {
        self.slots.get_mut(key.index())?.as_mut()
    }

    /// The entry under `key`, created by `default` if absent.
    pub fn get_or_insert_with(&mut self, key: K, default: impl FnOnce() -> V) -> &mut V {
        let index = key.index();
        if index >= self.slots.len() {
            self.slots.resize_with(index + 1, || None);
        }
        let slot = &mut self.slots[index];
        self.len += usize::from(slot.is_none());
        slot.get_or_insert_with(default)
    }

    /// Removes and returns the entry under `key`, leaving a hole.
    pub fn remove(&mut self, key: K) -> Option<V> {
        let removed = self.slots.get_mut(key.index())?.take();
        self.len -= usize::from(removed.is_some());
        removed
    }

    /// Number of live entries.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when no entry is live.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Drops every entry. Costs nothing on a table that is already empty.
    pub fn clear(&mut self) {
        self.slots.clear();
        self.len = 0;
    }

    /// The live entries in ascending id order.
    pub fn values(&self) -> impl Iterator<Item = &V> {
        self.slots.iter().flatten()
    }
}

impl<K: DenseId, V> std::ops::Index<K> for IdMap<K, V> {
    type Output = V;

    /// # Panics
    ///
    /// Panics when no entry is stored under `key`.
    fn index(&self, key: K) -> &V {
        self.get(key).expect("no entry under this id")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::HostId;

    #[test]
    fn removal_leaves_a_hole_that_reads_as_absent() {
        let mut map: IdMap<HostId, &str> = IdMap::new();
        assert_eq!(map.insert(HostId(0), "a"), None);
        assert_eq!(map.insert(HostId(2), "c"), None);
        assert_eq!(map.insert(HostId(1), "b"), None);
        assert_eq!(map.len(), 3);
        assert_eq!(map.remove(HostId(1)), Some("b"));
        assert_eq!(map.remove(HostId(1)), None, "a hole is removed once");
        assert_eq!(map.len(), 2);
        assert_eq!(map.get(HostId(1)), None);
        assert_eq!(map.get_mut(HostId(1)), None);
        assert_eq!(map.get(HostId(2)), Some(&"c"), "later ids keep their slot");
        // The hole is reusable and replacing reports the old value.
        assert_eq!(map.insert(HostId(1), "b2"), None);
        assert_eq!(map.insert(HostId(1), "b3"), Some("b2"));
        assert_eq!(map.len(), 3);
        assert_eq!(map[HostId(1)], "b3");
    }

    #[test]
    fn out_of_range_ids_read_as_absent_and_grow_nothing() {
        let mut map: IdMap<HostId, u8> = IdMap::new();
        map.insert(HostId(4), 1);
        let slots = map.slots.len();
        assert_eq!(map.get(HostId(5)), None);
        assert_eq!(map.get(HostId(u32::MAX)), None);
        assert_eq!(map.get_mut(HostId(u32::MAX)), None);
        assert_eq!(map.remove(HostId(u32::MAX)), None);
        assert_eq!(map.slots.len(), slots, "only insertion grows the table");
        assert_eq!(map.len(), 1);
    }

    #[test]
    fn iteration_is_in_id_order_and_skips_holes() {
        let mut map: IdMap<HostId, u32> = IdMap::new();
        for id in [7u32, 1, 4, 9, 0] {
            map.insert(HostId(id), id * 10);
        }
        map.remove(HostId(4));
        assert_eq!(
            map.values().copied().collect::<Vec<_>>(),
            vec![0, 10, 70, 90]
        );
    }

    #[test]
    fn get_or_insert_with_creates_once() {
        let mut map: IdMap<HostId, u64> = IdMap::new();
        *map.get_or_insert_with(HostId(3), || 5) += 1;
        *map.get_or_insert_with(HostId(3), || unreachable!("entry exists")) += 1;
        assert_eq!(map.get(HostId(3)), Some(&7));
        assert_eq!(map.len(), 1);
    }

    #[test]
    fn clear_empties_and_the_table_is_reusable() {
        let mut map: IdMap<HostId, u8> = IdMap::new();
        map.insert(HostId(2), 1);
        map.clear();
        assert!(map.is_empty());
        assert_eq!(map.get(HostId(2)), None);
        map.insert(HostId(0), 9);
        assert_eq!(map.values().count(), 1);
    }

    #[test]
    #[should_panic(expected = "no entry under this id")]
    fn indexing_a_hole_panics() {
        let map: IdMap<HostId, u8> = IdMap::new();
        let _ = map[HostId(0)];
    }
}
