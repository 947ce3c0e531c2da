//! A small, exact LRU cache for repeated top-K queries.
//!
//! Implemented as a slab of doubly-linked nodes plus a `HashMap` from key
//! to slab slot, so `get`/`put` are O(1) and eviction is the true
//! least-recently-used entry (no sampling). Capacity 0 disables the cache
//! entirely: `put` is a no-op and `get` always misses.

use std::collections::HashMap;
use std::hash::Hash;

const NIL: usize = usize::MAX;

#[derive(Debug)]
struct Node<K, V> {
    key: K,
    value: V,
    prev: usize,
    next: usize,
}

/// Fixed-capacity LRU map from `K` to `V`.
#[derive(Debug)]
pub(crate) struct LruCache<K, V> {
    map: HashMap<K, usize>,
    nodes: Vec<Node<K, V>>,
    head: usize,
    tail: usize,
    capacity: usize,
}

impl<K: Eq + Hash + Clone, V> LruCache<K, V> {
    /// Create a cache holding at most `capacity` entries.
    pub(crate) fn new(capacity: usize) -> Self {
        LruCache {
            map: HashMap::with_capacity(capacity),
            nodes: Vec::with_capacity(capacity),
            head: NIL,
            tail: NIL,
            capacity,
        }
    }

    /// Current entry count.
    #[cfg(test)]
    pub(crate) fn len(&self) -> usize {
        self.map.len()
    }

    /// True iff the cache holds no entries.
    #[cfg(test)]
    fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Look up `key`, promoting it to most-recently-used on a hit.
    pub(crate) fn get(&mut self, key: &K) -> Option<&V> {
        let slot = *self.map.get(key)?;
        self.unlink(slot);
        self.push_front(slot);
        Some(&self.nodes[slot].value)
    }

    /// Insert or overwrite `key`, evicting the least-recently-used entry
    /// if the cache is full. No-op when capacity is 0.
    pub(crate) fn put(&mut self, key: K, value: V) {
        if self.capacity == 0 {
            return;
        }
        if let Some(&slot) = self.map.get(&key) {
            self.nodes[slot].value = value;
            self.unlink(slot);
            self.push_front(slot);
            return;
        }
        let slot = if self.map.len() >= self.capacity {
            // Recycle the LRU slot in place.
            let victim = self.tail;
            self.unlink(victim);
            self.map.remove(&self.nodes[victim].key);
            self.nodes[victim].key = key.clone();
            self.nodes[victim].value = value;
            victim
        } else {
            self.nodes.push(Node { key: key.clone(), value, prev: NIL, next: NIL });
            self.nodes.len() - 1
        };
        self.map.insert(key, slot);
        self.push_front(slot);
    }

    fn unlink(&mut self, slot: usize) {
        let (prev, next) = (self.nodes[slot].prev, self.nodes[slot].next);
        if prev != NIL {
            self.nodes[prev].next = next;
        } else if self.head == slot {
            self.head = next;
        }
        if next != NIL {
            self.nodes[next].prev = prev;
        } else if self.tail == slot {
            self.tail = prev;
        }
        self.nodes[slot].prev = NIL;
        self.nodes[slot].next = NIL;
    }

    fn push_front(&mut self, slot: usize) {
        self.nodes[slot].prev = NIL;
        self.nodes[slot].next = self.head;
        if self.head != NIL {
            self.nodes[self.head].prev = slot;
        }
        self.head = slot;
        if self.tail == NIL {
            self.tail = slot;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn evicts_least_recently_used() {
        let mut c = LruCache::new(2);
        c.put("a", 1);
        c.put("b", 2);
        c.put("c", 3); // evicts "a"
        assert_eq!(c.get(&"a"), None);
        assert_eq!(c.get(&"b"), Some(&2));
        assert_eq!(c.get(&"c"), Some(&3));
        assert_eq!(c.len(), 2);
    }

    #[test]
    fn get_promotes_to_front() {
        let mut c = LruCache::new(2);
        c.put("a", 1);
        c.put("b", 2);
        assert_eq!(c.get(&"a"), Some(&1)); // "b" is now LRU
        c.put("c", 3); // evicts "b"
        assert_eq!(c.get(&"b"), None);
        assert_eq!(c.get(&"a"), Some(&1));
    }

    #[test]
    fn put_overwrites_and_promotes() {
        let mut c = LruCache::new(2);
        c.put("a", 1);
        c.put("b", 2);
        c.put("a", 10); // overwrite, "b" becomes LRU
        c.put("c", 3); // evicts "b"
        assert_eq!(c.get(&"a"), Some(&10));
        assert_eq!(c.get(&"b"), None);
    }

    #[test]
    fn zero_capacity_disables_caching() {
        let mut c = LruCache::new(0);
        c.put("a", 1);
        assert_eq!(c.get(&"a"), None);
        assert!(c.is_empty());
    }

    #[test]
    fn heavy_churn_stays_consistent() {
        let mut c = LruCache::new(8);
        for i in 0..1000usize {
            c.put(i % 13, i);
            assert!(c.len() <= 8);
        }
        // The 8 most recently inserted distinct keys must be present.
        let mut found = 0;
        for k in 0..13usize {
            if c.get(&k).is_some() {
                found += 1;
            }
        }
        assert_eq!(found, 8);
    }
}
