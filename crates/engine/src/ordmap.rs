//! An insertion-ordered hash map for aggregation state.
//!
//! [`InsertionMap`] keeps a dense `Vec` of `(key, value)` entries, whose
//! order is first-insertion order, and finds them through a *precomputed*
//! 64-bit hash. The index maps each hash to the newest entry slot carrying
//! it (the chain head); a parallel `next` vector links every slot to the
//! previous slot with the same hash, so a hash collision costs one more
//! key comparison and no allocation. The index stores no key clones and
//! does not hash its `u64` keys again ([`PassThrough`]). Draining is a
//! linear walk of the entry vector, and the `*_hashed` entry points let
//! callers that already know a key's hash (the aggBy combiner and merge
//! reuse the hash of the shuffle key) skip hashing entirely.

use std::collections::hash_map::{DefaultHasher, Entry};
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hash, Hasher};

/// End of a collision chain in [`InsertionMap::next`].
const NIL: usize = usize::MAX;

/// A [`Hasher`] for keys that already are well-mixed 64-bit hashes: it
/// does not hash them again, only swaps their halves. The swap matters
/// because the low bits of a key's hash also picked its shuffle partition
/// (`hash % parts`), so every key in one merge task's map shares them;
/// the table indexes by its hash's low bits, which after the swap are the
/// independent high half.
#[derive(Clone, Copy, Debug, Default)]
struct PassThrough(u64);

impl Hasher for PassThrough {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = self.0.rotate_left(8) ^ u64::from(b);
        }
    }

    fn write_u64(&mut self, h: u64) {
        self.0 = h.rotate_left(32);
    }
}

/// A hash map that iterates in first-insertion order.
#[derive(Clone, Debug, Default)]
pub struct InsertionMap<K, V> {
    entries: Vec<(K, V)>,
    /// `next[slot]`: the previous slot whose key has the same hash, or
    /// [`NIL`].
    next: Vec<usize>,
    /// Hash to the newest slot with that hash (the head of its chain).
    index: HashMap<u64, usize, BuildHasherDefault<PassThrough>>,
}

impl<K: Clone + Eq + Hash, V> InsertionMap<K, V> {
    /// An empty map.
    pub fn new() -> Self {
        InsertionMap {
            entries: Vec::new(),
            next: Vec::new(),
            index: HashMap::default(),
        }
    }

    /// The number of distinct keys.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when no key has been inserted.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The `DefaultHasher` hash the `*_hashed` entry points expect — the
    /// same function `dataset::value_hash` applies to shuffle keys.
    fn hash_of(key: &K) -> u64 {
        let mut h = DefaultHasher::new();
        key.hash(&mut h);
        h.finish()
    }

    /// The slot holding `key` in the chain starting at `slot`. Takes the
    /// fields, not `&self`, so it can run while an index entry is held.
    fn find_in_chain(
        entries: &[(K, V)],
        next: &[usize],
        mut slot: usize,
        key: &K,
    ) -> Option<usize> {
        while slot != NIL {
            if entries[slot].0 == *key {
                return Some(slot);
            }
            slot = next[slot];
        }
        None
    }

    /// The value slot for `key`, inserting `default()` on first sight.
    /// First sight fixes the key's position in iteration order.
    pub fn entry_or_insert_with(&mut self, key: &K, default: impl FnOnce() -> V) -> &mut V {
        self.insert_hashed(Self::hash_of(key), key, default)
    }

    /// Like [`entry_or_insert_with`](Self::entry_or_insert_with), but with a
    /// caller-supplied `hash`, which must equal `DefaultHasher` over `key`
    /// (for `Value` keys: `dataset::value_hash`).
    pub fn insert_hashed(&mut self, hash: u64, key: &K, default: impl FnOnce() -> V) -> &mut V {
        let slot = self.entries.len();
        let prev = match self.index.entry(hash) {
            Entry::Occupied(mut head) => {
                if let Some(found) =
                    Self::find_in_chain(&self.entries, &self.next, *head.get(), key)
                {
                    return &mut self.entries[found].1;
                }
                std::mem::replace(head.get_mut(), slot)
            }
            Entry::Vacant(head) => {
                head.insert(slot);
                NIL
            }
        };
        self.next.push(prev);
        self.entries.push((key.clone(), default()));
        &mut self.entries[slot].1
    }

    /// The value slot for an already-inserted `key`, or `None`.
    pub fn get_mut(&mut self, key: &K) -> Option<&mut V> {
        self.get_mut_hashed(Self::hash_of(key), key)
    }

    /// Like [`get_mut`](Self::get_mut), but with a caller-supplied `hash`
    /// (same contract as [`insert_hashed`](Self::insert_hashed)).
    pub fn get_mut_hashed(&mut self, hash: u64, key: &K) -> Option<&mut V> {
        let head = *self.index.get(&hash)?;
        let slot = Self::find_in_chain(&self.entries, &self.next, head, key)?;
        Some(&mut self.entries[slot].1)
    }

    /// Iterates `(key, value)` pairs in first-insertion order.
    pub fn iter(&self) -> impl Iterator<Item = (&K, &V)> {
        self.entries.iter().map(|(k, v)| (k, v))
    }
}

impl<K, V> IntoIterator for InsertionMap<K, V> {
    type Item = (K, V);
    type IntoIter = std::vec::IntoIter<(K, V)>;

    /// Consumes the map, yielding `(key, value)` pairs in first-insertion
    /// order.
    fn into_iter(self) -> Self::IntoIter {
        self.entries.into_iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn preserves_insertion_order() {
        let mut m: InsertionMap<&str, i64> = InsertionMap::new();
        for k in ["b", "a", "c", "a", "b", "d"] {
            *m.entry_or_insert_with(&k, || 0) += 1;
        }
        let drained: Vec<(&str, i64)> = m.into_iter().collect();
        assert_eq!(drained, vec![("b", 2), ("a", 2), ("c", 1), ("d", 1)]);
    }

    #[test]
    fn len_and_iter() {
        let mut m: InsertionMap<i64, String> = InsertionMap::new();
        assert!(m.is_empty());
        m.entry_or_insert_with(&7, || "seven".into());
        m.entry_or_insert_with(&3, || "three".into());
        *m.entry_or_insert_with(&7, || unreachable!()) = "SEVEN".into();
        assert_eq!(m.len(), 2);
        let keys: Vec<i64> = m.iter().map(|(k, _)| *k).collect();
        assert_eq!(keys, vec![7, 3]);
        assert_eq!(m.iter().next().unwrap().1, "SEVEN");
    }

    #[test]
    fn hashed_entry_points_agree_with_plain_ones() {
        let mut plain: InsertionMap<i64, i64> = InsertionMap::new();
        let mut hashed: InsertionMap<i64, i64> = InsertionMap::new();
        for k in [5i64, 9, 5, 1, 9, 9, 2] {
            *plain.entry_or_insert_with(&k, || 0) += 1;
            let h = InsertionMap::<i64, i64>::hash_of(&k);
            match hashed.get_mut_hashed(h, &k) {
                Some(v) => *v += 1,
                None => *hashed.insert_hashed(h, &k, || 0) += 1,
            }
        }
        let a: Vec<(i64, i64)> = plain.into_iter().collect();
        let b: Vec<(i64, i64)> = hashed.into_iter().collect();
        assert_eq!(a, b);
    }

    #[test]
    fn colliding_hashes_resolve_by_key_equality() {
        // Force every key into one chain by lying about the hash: the map
        // must still distinguish keys, find each one wherever it sits in
        // the chain, miss absent keys, and keep insertion order.
        let mut m: InsertionMap<i64, String> = InsertionMap::new();
        for (k, name) in [(1, "one"), (2, "two"), (3, "three"), (4, "four")] {
            assert_eq!(m.get_mut_hashed(42, &k), None);
            m.insert_hashed(42, &k, || name.to_string());
            // Every key inserted so far, oldest (chain tail) included.
            for seen in 1..=k {
                assert!(m.get_mut_hashed(42, &seen).is_some(), "lost key {seen}");
            }
            assert_eq!(m.get_mut_hashed(42, &(k + 1)), None);
            assert_eq!(m.get_mut_hashed(42, &-k), None);
        }
        // A re-insert finds the existing slot instead of appending.
        m.insert_hashed(42, &2, || unreachable!()).push('!');
        m.get_mut_hashed(42, &1).unwrap().push('?');
        // Another hash starts its own chain and cannot see these keys.
        m.insert_hashed(7, &5, || "five".to_string());
        assert_eq!(m.get_mut_hashed(7, &1), None);
        assert_eq!(m.get_mut_hashed(42, &5), None);
        m.insert_hashed(42, &6, || "six".to_string());
        assert_eq!(m.len(), 6);
        let drained: Vec<(i64, String)> = m.into_iter().collect();
        let expected = [
            (1, "one?"),
            (2, "two!"),
            (3, "three"),
            (4, "four"),
            (5, "five"),
            (6, "six"),
        ];
        assert_eq!(drained, expected.map(|(k, v)| (k, v.to_string())).to_vec());
    }
}
