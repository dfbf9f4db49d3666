//! The answer cache: an LRU map keyed on *normalized* question text,
//! with every entry tagged by the warehouse revision it was computed
//! against. When the feedback ETL mutates the warehouse the pipeline
//! bumps its revision (see [`dwqa_core::ReadPath::revision`]); stale
//! entries are then dropped lazily on lookup or eagerly via
//! [`AnswerCache::purge_stale`].
//!
//! One mutex guards the whole map, so eviction is exact global LRU and
//! [`AnswerCache::len`] is the map's length under that lock. One lock is
//! enough: E16 measured no throughput gain from striping it eight ways.

use dwqa_qa::Answer;
use parking_lot::Mutex;
use std::collections::HashMap;

/// Canonicalizes a question for cache keying: accent/case folding,
/// whitespace collapsing, and trailing punctuation removal, so
/// `"  What is   the Temperature?"` and `"what is the temperature"`
/// share an entry.
pub fn normalize_question(question: &str) -> String {
    let folded = dwqa_common::text::fold(question);
    folded
        .split_whitespace()
        .collect::<Vec<_>>()
        .join(" ")
        .trim_end_matches(['?', '.', '!', ' '])
        .to_owned()
}

#[derive(Debug, Clone)]
struct Entry {
    revision: u64,
    answers: Vec<Answer>,
    last_used: u64,
}

#[derive(Debug, Default)]
struct Inner {
    map: HashMap<String, Entry>,
    tick: u64,
}

/// A bounded LRU answer cache behind one lock, safe to share across
/// worker threads.
#[derive(Debug)]
pub struct AnswerCache {
    capacity: usize,
    inner: Mutex<Inner>,
}

impl AnswerCache {
    /// Creates a cache holding at most `capacity` question entries. A
    /// zero capacity disables caching entirely.
    pub fn new(capacity: usize) -> AnswerCache {
        AnswerCache {
            capacity,
            inner: Mutex::new(Inner::default()),
        }
    }

    /// The configured capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Entries currently cached (fresh and stale alike).
    pub fn len(&self) -> usize {
        self.inner.lock().map.len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Looks up a normalized key. Returns the cached answers only when
    /// the entry was computed against `revision`; a stale entry is
    /// removed and reported as a miss.
    pub fn lookup(&self, key: &str, revision: u64) -> Option<Vec<Answer>> {
        let mut inner = self.inner.lock();
        inner.tick += 1;
        let tick = inner.tick;
        match inner.map.get_mut(key) {
            Some(entry) if entry.revision == revision => {
                entry.last_used = tick;
                Some(entry.answers.clone())
            }
            Some(_) => {
                inner.map.remove(key);
                None
            }
            None => None,
        }
    }

    /// Stores answers computed against `revision`, evicting the least
    /// recently used entry when the cache is full.
    pub fn store(&self, key: String, revision: u64, answers: Vec<Answer>) {
        if self.capacity == 0 {
            return;
        }
        let mut inner = self.inner.lock();
        inner.tick += 1;
        let tick = inner.tick;
        inner.map.insert(
            key,
            Entry {
                revision,
                answers,
                last_used: tick,
            },
        );
        while inner.map.len() > self.capacity {
            let lru = inner
                .map
                .iter()
                .min_by_key(|(_, e)| e.last_used)
                .map(|(k, _)| k.clone());
            match lru {
                Some(key) => inner.map.remove(&key),
                None => break,
            };
        }
    }

    /// Eagerly drops every entry not computed against `revision`,
    /// returning how many were removed.
    pub fn purge_stale(&self, revision: u64) -> usize {
        let mut inner = self.inner.lock();
        let before = inner.map.len();
        inner.map.retain(|_, e| e.revision == revision);
        before - inner.map.len()
    }

    /// Drops everything.
    pub fn clear(&self) {
        self.inner.lock().map.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn normalization_folds_case_space_and_punctuation() {
        assert_eq!(
            normalize_question("  What is   the Temperature?"),
            "what is the temperature"
        );
        assert_eq!(
            normalize_question("what is the temperature"),
            "what is the temperature"
        );
        assert_eq!(normalize_question("¿Dónde está?"), "¿donde esta");
    }

    #[test]
    fn lookup_respects_revision() {
        let cache = AnswerCache::new(8);
        cache.store("q".into(), 0, vec![]);
        assert!(cache.lookup("q", 0).is_some());
        // Same key at a newer revision: stale, dropped.
        assert!(cache.lookup("q", 1).is_none());
        assert!(cache.is_empty());
    }

    #[test]
    fn purge_drops_only_stale_entries() {
        let cache = AnswerCache::new(8);
        cache.store("old".into(), 0, vec![]);
        cache.store("new".into(), 3, vec![]);
        assert_eq!(cache.purge_stale(3), 1);
        assert!(cache.lookup("new", 3).is_some());
        assert!(cache.lookup("old", 3).is_none());
    }

    #[test]
    fn lru_eviction_keeps_recently_used_entries() {
        let cache = AnswerCache::new(2);
        cache.store("a".into(), 0, vec![]);
        cache.store("b".into(), 0, vec![]);
        // Touch "a" so "b" is the least recently used.
        assert!(cache.lookup("a", 0).is_some());
        cache.store("c".into(), 0, vec![]);
        assert_eq!(cache.len(), 2);
        assert!(cache.lookup("a", 0).is_some());
        assert!(cache.lookup("b", 0).is_none());
        assert!(cache.lookup("c", 0).is_some());
    }

    #[test]
    fn zero_capacity_disables_caching() {
        let cache = AnswerCache::new(0);
        cache.store("q".into(), 0, vec![]);
        assert!(cache.lookup("q", 0).is_none());
    }

    #[test]
    fn eviction_follows_exact_lru_order() {
        let cache = AnswerCache::new(3);
        cache.store("a".into(), 0, vec![]);
        cache.store("b".into(), 0, vec![]);
        cache.store("c".into(), 0, vec![]);
        // Recency, oldest first, is now a < b < c. Touch "a", making
        // "b" the LRU entry; then each overflow must evict exactly the
        // current LRU, never insertion order.
        assert!(cache.lookup("a", 0).is_some()); // b < c < a
        cache.store("d".into(), 0, vec![]); // evicts b
        assert!(cache.lookup("b", 0).is_none()); // c < a < d
        cache.store("e".into(), 0, vec![]); // evicts c
        assert!(cache.lookup("c", 0).is_none());
        for key in ["a", "d", "e"] {
            assert!(cache.lookup(key, 0).is_some(), "{key} must survive");
        }
    }

    #[test]
    fn re_store_refreshes_recency_and_revision() {
        let cache = AnswerCache::new(2);
        cache.store("a".into(), 0, vec![]);
        cache.store("b".into(), 0, vec![]);
        // Re-storing "a" at a newer revision refreshes both its recency
        // (so "b" is evicted next) and its revision tag.
        cache.store("a".into(), 1, vec![]);
        cache.store("c".into(), 1, vec![]); // evicts b
        assert!(cache.lookup("b", 1).is_none());
        assert!(cache.lookup("a", 1).is_some());
        assert!(cache.lookup("a", 0).is_none(), "old revision is gone");
    }

    #[test]
    fn stale_lookup_removes_the_entry_without_touching_others() {
        let cache = AnswerCache::new(4);
        cache.store("old".into(), 0, vec![]);
        cache.store("fresh".into(), 2, vec![]);
        assert_eq!(cache.len(), 2);
        // A stale hit is dropped eagerly on lookup…
        assert!(cache.lookup("old", 2).is_none());
        assert_eq!(cache.len(), 1);
        // …and purging afterwards finds nothing left to remove.
        assert_eq!(cache.purge_stale(2), 0);
        assert!(cache.lookup("fresh", 2).is_some());
    }

    #[test]
    fn len_counts_entries_through_store_lookup_purge_and_clear() {
        let cache = AnswerCache::new(64);
        for i in 0..40 {
            cache.store(format!("question {i}"), 0, vec![]);
        }
        assert_eq!(cache.len(), 40);
        // Re-storing existing keys must not double-count.
        for i in 0..40 {
            cache.store(format!("question {i}"), 0, vec![]);
        }
        assert_eq!(cache.len(), 40);
        // Lookups at a newer revision drop entries one by one.
        for i in 0..10 {
            assert!(cache.lookup(&format!("question {i}"), 1).is_none());
        }
        assert_eq!(cache.len(), 30);
        assert_eq!(cache.purge_stale(1), 30);
        assert!(cache.is_empty());
        cache.store("back".into(), 1, vec![]);
        assert_eq!(cache.len(), 1);
        cache.clear();
        assert!(cache.is_empty());
    }

    #[test]
    fn capacity_is_never_exceeded() {
        // Heavy overflow keeps exactly `capacity` entries: the cache is
        // full, never over.
        let cache = AnswerCache::new(16);
        for i in 0..200 {
            cache.store(format!("q{i}"), 0, vec![]);
        }
        assert_eq!(cache.len(), 16);
        // Exact LRU: the survivors are the 16 most recent stores.
        for i in 184..200 {
            assert!(cache.lookup(&format!("q{i}"), 0).is_some(), "q{i}");
        }
    }

    #[test]
    fn concurrent_store_lookup_and_len_stay_consistent() {
        let cache = std::sync::Arc::new(AnswerCache::new(256));
        let threads: Vec<_> = (0..4)
            .map(|t| {
                let cache = std::sync::Arc::clone(&cache);
                std::thread::spawn(move || {
                    for i in 0..200 {
                        let key = format!("thread {t} question {i}");
                        cache.store(key.clone(), 0, vec![]);
                        // Under contention another thread's stores may
                        // already have evicted the key, so only exercise
                        // the read path, don't assert a hit.
                        let _ = cache.lookup(&key, 0);
                        // len() must be callable concurrently without
                        // deadlock or panic.
                        let _ = cache.len();
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        // 800 distinct keys through a 256-entry cache leave it exactly
        // full; purging with the live revision touches nothing, and a
        // full clear empties it.
        assert_eq!(cache.len(), 256);
        assert_eq!(cache.purge_stale(0), 0);
        assert_eq!(cache.len(), 256);
        cache.clear();
        assert_eq!(cache.len(), 0);
    }
}
