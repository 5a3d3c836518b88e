//! Per-node block cache: parsed record vectors and loaded local trees,
//! keyed by path identity, bounded by a byte budget.
//!
//! The real system caches the local index that ships inside each block;
//! here the cache lives next to the namenode handle (one process stands
//! in for the cluster) and stores whatever the query layer parsed out of
//! a block or partition file — `Arc<dyn Any>` so the DFS stays ignorant
//! of record types. Entries are invalidated whenever the underlying
//! bytes could change: file delete/overwrite, and wholesale on node
//! kill/revive/re-replication so chaos runs stay byte-identical with an
//! uncached run.
//!
//! Hits, misses, and evictions are mirrored into the global `sh-trace`
//! registry under `dfs.cache.hits` / `dfs.cache.misses` /
//! `dfs.cache.evictions`, with the resident size in the
//! `dfs.cache.bytes` gauge.

use std::any::Any;
use std::collections::HashMap;
use std::sync::{Arc, Mutex, MutexGuard};

use sh_trace::sync::lock;

/// Default byte budget: 64 MiB.
pub const DEFAULT_CACHE_BUDGET: u64 = 64 * 1024 * 1024;

/// A cached value: the parsed payload plus its accounted size.
struct Entry {
    value: Arc<dyn Any + Send + Sync>,
    bytes: u64,
    /// Last-use tick for LRU eviction.
    tick: u64,
}

#[derive(Default)]
struct CacheInner {
    entries: HashMap<String, Entry>,
    total_bytes: u64,
    tick: u64,
    /// Tick of the last wholesale [`BlockCache::clear`].
    cleared_at: u64,
    /// Tick each key was last individually invalidated at.
    invalidated_at: HashMap<String, u64>,
}

/// Snapshot of cache effectiveness counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups that found a live entry.
    pub hits: u64,
    /// Lookups that found nothing.
    pub misses: u64,
    /// Entries dropped to stay under the byte budget.
    pub evictions: u64,
    /// [`BlockCache::put_at`] calls dropped because the key was
    /// invalidated (or the cache cleared) after the caller read the
    /// underlying bytes — stale parses that must not be installed.
    pub stale_puts: u64,
    /// Bytes currently resident.
    pub resident_bytes: u64,
    /// Entries currently resident.
    pub resident_entries: u64,
}

/// LRU cache with a byte budget (see module docs). Shared across all
/// clones of a [`crate::Dfs`] handle.
pub struct BlockCache {
    inner: Mutex<CacheInner>,
    budget: Mutex<u64>,
    stats: Mutex<CacheStats>,
}

impl Default for BlockCache {
    fn default() -> Self {
        BlockCache::new(DEFAULT_CACHE_BUDGET)
    }
}

impl BlockCache {
    /// Creates a cache with the given byte budget (0 disables caching).
    pub fn new(budget: u64) -> BlockCache {
        BlockCache {
            inner: Mutex::new(CacheInner::default()),
            budget: Mutex::new(budget),
            stats: Mutex::new(CacheStats::default()),
        }
    }

    /// The current byte budget.
    pub fn budget(&self) -> u64 {
        *lock(&self.budget)
    }

    /// Adjusts the byte budget; shrinking evicts immediately, 0 clears
    /// and disables.
    pub fn set_budget(&self, budget: u64) {
        *lock(&self.budget) = budget;
        let mut inner = lock(&self.inner);
        let evicted = evict_to(&mut inner, budget);
        drop(inner);
        self.count_evictions(evicted);
        self.publish_gauges();
    }

    /// Looks up `key`, bumping its recency. Counts a hit or a miss.
    pub fn get(&self, key: &str) -> Option<Arc<dyn Any + Send + Sync>> {
        let mut inner = lock(&self.inner);
        inner.tick += 1;
        let tick = inner.tick;
        let found = inner.entries.get_mut(key).map(|e| {
            e.tick = tick;
            Arc::clone(&e.value)
        });
        drop(inner);
        let mut stats = lock(&self.stats);
        if found.is_some() {
            stats.hits += 1;
            drop(stats);
            sh_trace::global().counter_add("dfs.cache.hits", 1);
        } else {
            stats.misses += 1;
            drop(stats);
            sh_trace::global().counter_add("dfs.cache.misses", 1);
        }
        found
    }

    /// Looks up `key` without counting a hit or a miss: for a caller
    /// fetching again an entry whose lookup was already counted.
    pub fn peek(&self, key: &str) -> Option<Arc<dyn Any + Send + Sync>> {
        let inner = lock(&self.inner);
        inner.entries.get(key).map(|e| Arc::clone(&e.value))
    }

    /// Logical clock for [`BlockCache::put_at`]: capture before reading
    /// the bytes a parse is derived from; any invalidation of the key
    /// (or wholesale clear) after this point makes the parse stale.
    pub fn epoch(&self) -> u64 {
        lock(&self.inner).tick
    }

    /// Race-safe insert for values parsed from bytes read at `epoch`
    /// (see [`BlockCache::epoch`]): the insert is dropped when the key
    /// was invalidated — or the whole cache cleared — after the capture,
    /// so a concurrent job's node kill or file overwrite can never be
    /// shadowed by a stale parse that was already in flight. The check
    /// and the insert happen under one lock.
    pub fn put_at(&self, key: &str, value: Arc<dyn Any + Send + Sync>, bytes: u64, epoch: u64) {
        let budget = *lock(&self.budget);
        if bytes > budget {
            return;
        }
        let inner = lock(&self.inner);
        let stale =
            inner.cleared_at > epoch || inner.invalidated_at.get(key).is_some_and(|&at| at > epoch);
        if stale {
            drop(inner);
            let mut stats = lock(&self.stats);
            stats.stale_puts += 1;
            drop(stats);
            sh_trace::global().counter_add("dfs.cache.stale_puts", 1);
            return;
        }
        self.insert_locked(inner, key, value, bytes, budget);
    }

    /// Inserts (or replaces) `key`, then evicts least-recently-used
    /// entries until the budget holds. Values larger than the whole
    /// budget are not cached.
    pub fn put(&self, key: &str, value: Arc<dyn Any + Send + Sync>, bytes: u64) {
        let budget = *lock(&self.budget);
        if bytes > budget {
            return;
        }
        let inner = lock(&self.inner);
        self.insert_locked(inner, key, value, bytes, budget);
    }

    fn insert_locked(
        &self,
        mut inner: MutexGuard<'_, CacheInner>,
        key: &str,
        value: Arc<dyn Any + Send + Sync>,
        bytes: u64,
        budget: u64,
    ) {
        inner.tick += 1;
        let tick = inner.tick;
        if let Some(old) = inner
            .entries
            .insert(key.to_string(), Entry { value, bytes, tick })
        {
            inner.total_bytes -= old.bytes;
        }
        inner.total_bytes += bytes;
        let evicted = evict_to(&mut inner, budget);
        drop(inner);
        self.count_evictions(evicted);
        self.publish_gauges();
    }

    /// Re-states the accounted size of the entry under `key` as `bytes`
    /// when that entry is `value` (the same allocation), then evicts
    /// least-recently-used entries until the budget holds: for a cached
    /// value that has since grown a derived structure. The entry's
    /// recency does not change; anything else under `key` is left alone.
    pub fn recharge(&self, key: &str, value: *const (), bytes: u64) {
        let budget = *lock(&self.budget);
        let mut inner = lock(&self.inner);
        let Some(entry) = inner.entries.get_mut(key) else {
            return;
        };
        if !std::ptr::addr_eq(Arc::as_ptr(&entry.value), value) {
            return;
        }
        let old = std::mem::replace(&mut entry.bytes, bytes);
        inner.total_bytes = inner.total_bytes - old + bytes;
        let evicted = evict_to(&mut inner, budget);
        drop(inner);
        self.count_evictions(evicted);
        self.publish_gauges();
    }

    fn count_evictions(&self, evicted: u64) {
        if evicted > 0 {
            let mut stats = lock(&self.stats);
            stats.evictions += evicted;
            drop(stats);
            sh_trace::global().counter_add("dfs.cache.evictions", evicted);
        }
    }

    /// Drops one key (file deleted or overwritten). Also advances the
    /// key's invalidation tick so in-flight [`BlockCache::put_at`] calls
    /// that read the old bytes are rejected.
    pub fn invalidate(&self, key: &str) {
        let mut inner = lock(&self.inner);
        inner.tick += 1;
        let tick = inner.tick;
        inner.invalidated_at.insert(key.to_string(), tick);
        sh_trace::events::emit(
            "cache.invalidate",
            vec![("key", key.to_string()), ("epoch", tick.to_string())],
        );
        if let Some(e) = inner.entries.remove(key) {
            inner.total_bytes -= e.bytes;
            drop(inner);
            self.publish_gauges();
        }
    }

    /// Drops everything (node membership or replica layout changed) and
    /// advances the clear tick, staling every in-flight
    /// [`BlockCache::put_at`].
    pub fn clear(&self) {
        let mut inner = lock(&self.inner);
        inner.tick += 1;
        inner.cleared_at = inner.tick;
        sh_trace::events::emit("cache.clear", vec![("epoch", inner.tick.to_string())]);
        // The wholesale tick supersedes all per-key records.
        inner.invalidated_at.clear();
        inner.entries.clear();
        inner.total_bytes = 0;
        drop(inner);
        self.publish_gauges();
    }

    /// Effectiveness counters since creation.
    pub fn stats(&self) -> CacheStats {
        let inner = lock(&self.inner);
        let mut stats = *lock(&self.stats);
        stats.resident_bytes = inner.total_bytes;
        stats.resident_entries = inner.entries.len() as u64;
        stats
    }

    fn publish_gauges(&self) {
        let inner = lock(&self.inner);
        sh_trace::global().gauge_set("dfs.cache.bytes", inner.total_bytes as i64);
        sh_trace::global().gauge_set("dfs.cache.entries", inner.entries.len() as i64);
    }
}

/// Evicts lowest-tick entries until `total_bytes <= budget`; returns the
/// eviction count. O(n) per eviction is fine at cache cardinalities
/// (hundreds of partitions).
fn evict_to(inner: &mut CacheInner, budget: u64) -> u64 {
    let mut evicted = 0;
    while inner.total_bytes > budget {
        let Some(victim) = inner
            .entries
            .iter()
            .min_by_key(|(_, e)| e.tick)
            .map(|(k, _)| k.clone())
        else {
            break;
        };
        let e = inner.entries.remove(&victim).expect("victim exists");
        inner.total_bytes -= e.bytes;
        evicted += 1;
    }
    evicted
}

#[cfg(test)]
mod tests {
    use super::*;

    fn arc(v: u32) -> Arc<dyn Any + Send + Sync> {
        Arc::new(v)
    }

    fn get_u32(c: &BlockCache, key: &str) -> Option<u32> {
        c.get(key).map(|v| *v.downcast::<u32>().unwrap())
    }

    #[test]
    fn hit_miss_roundtrip() {
        let c = BlockCache::new(1024);
        assert!(c.get("/a").is_none());
        c.put("/a", arc(7), 100);
        assert_eq!(get_u32(&c, "/a"), Some(7));
        let s = c.stats();
        assert_eq!((s.hits, s.misses), (1, 1));
        assert_eq!(s.resident_bytes, 100);
        assert_eq!(s.resident_entries, 1);
        // A peek finds what `get` finds but counts nothing.
        assert_eq!(c.peek("/a").map(|v| *v.downcast::<u32>().unwrap()), Some(7));
        assert!(c.peek("/b").is_none());
        let s = c.stats();
        assert_eq!((s.hits, s.misses), (1, 1));
    }

    #[test]
    fn lru_eviction_respects_budget() {
        let c = BlockCache::new(250);
        c.put("/a", arc(1), 100);
        c.put("/b", arc(2), 100);
        assert_eq!(get_u32(&c, "/a"), Some(1)); // /a now most recent
        c.put("/c", arc(3), 100); // over budget: evict LRU = /b
        assert_eq!(get_u32(&c, "/b"), None);
        assert_eq!(get_u32(&c, "/a"), Some(1));
        assert_eq!(get_u32(&c, "/c"), Some(3));
        assert_eq!(c.stats().evictions, 1);
    }

    #[test]
    fn oversized_values_are_not_cached() {
        let c = BlockCache::new(50);
        c.put("/big", arc(1), 100);
        assert!(c.get("/big").is_none());
        assert_eq!(c.stats().resident_bytes, 0);
    }

    #[test]
    fn replace_updates_accounting() {
        let c = BlockCache::new(1000);
        c.put("/a", arc(1), 100);
        c.put("/a", arc(2), 300);
        assert_eq!(c.stats().resident_bytes, 300);
        assert_eq!(get_u32(&c, "/a"), Some(2));
    }

    #[test]
    fn recharge_resizes_only_the_same_value_and_evicts_to_budget() {
        let c = BlockCache::new(250);
        let a = arc(1);
        c.put("/a", a.clone(), 100);
        c.put("/b", arc(2), 100);
        // Another value under the key is not re-stated.
        c.recharge("/a", Arc::as_ptr(&arc(1)) as *const (), 200);
        assert_eq!(c.stats().resident_bytes, 200);
        c.recharge("/missing", Arc::as_ptr(&a) as *const (), 200);
        assert_eq!(c.stats().resident_bytes, 200);
        // Growing `/a` past the budget evicts the least recent: `/a`
        // itself, whose recency the recharge left alone.
        c.recharge("/a", Arc::as_ptr(&a) as *const (), 160);
        assert_eq!(c.stats().resident_bytes, 100);
        assert_eq!(c.stats().evictions, 1);
        assert!(c.peek("/a").is_none());
        assert_eq!(get_u32(&c, "/b"), Some(2));
        // Within the budget it only re-states the size.
        c.put("/a", a.clone(), 100);
        c.recharge("/a", Arc::as_ptr(&a) as *const (), 120);
        assert_eq!(c.stats().resident_bytes, 220);
        assert_eq!(c.stats().evictions, 1);
    }

    #[test]
    fn invalidate_and_clear() {
        let c = BlockCache::new(1000);
        c.put("/a", arc(1), 100);
        c.put("/b", arc(2), 100);
        c.invalidate("/a");
        assert!(c.get("/a").is_none());
        assert_eq!(get_u32(&c, "/b"), Some(2));
        c.clear();
        assert!(c.get("/b").is_none());
        assert_eq!(c.stats().resident_bytes, 0);
    }

    #[test]
    fn stale_put_after_invalidate_is_dropped() {
        let c = BlockCache::new(1000);
        let epoch = c.epoch();
        // Another job overwrites the file after our bytes were read...
        c.invalidate("/a");
        // ...so the in-flight parse must not be installed.
        c.put_at("/a", arc(1), 100, epoch);
        assert!(c.get("/a").is_none());
        assert_eq!(c.stats().stale_puts, 1);
        // A parse started after the invalidation is fine.
        let epoch = c.epoch();
        c.put_at("/a", arc(2), 100, epoch);
        assert_eq!(get_u32(&c, "/a"), Some(2));
    }

    #[test]
    fn stale_put_after_clear_is_dropped() {
        let c = BlockCache::new(1000);
        let epoch = c.epoch();
        c.clear(); // node kill mid-read
        c.put_at("/a", arc(1), 100, epoch);
        assert!(c.get("/a").is_none());
        assert_eq!(c.stats().stale_puts, 1);
        // Unrelated keys invalidated before the capture don't stale it.
        c.invalidate("/other");
        let epoch = c.epoch();
        c.put_at("/a", arc(3), 100, epoch);
        assert_eq!(get_u32(&c, "/a"), Some(3));
    }

    #[test]
    fn zero_budget_disables() {
        let c = BlockCache::new(0);
        c.put("/a", arc(1), 1);
        assert!(c.get("/a").is_none());
        let c2 = BlockCache::new(1000);
        c2.put("/a", arc(1), 100);
        c2.set_budget(0);
        assert!(c2.get("/a").is_none());
        assert_eq!(c2.stats().resident_bytes, 0);
    }
}
