//! Job counters (Hadoop-style named accumulators).

use std::borrow::Cow;
use std::collections::BTreeMap;
use std::sync::Mutex;

use sh_trace::sync::lock;

/// Thread-safe named counters.
///
/// The engine maintains its own bookkeeping counters (`map.*`,
/// `shuffle.*`, `reduce.*`, `output.*`) and user code adds domain counters
/// through the task contexts (e.g. the operations layer counts pruned
/// partitions and early-flushed results — the quantities several of the
/// paper's figures plot).
///
/// Keys are interned as `Cow<'static, str>`: the engine's built-in
/// counters use [`Counters::inc_static`] and never allocate, and dynamic
/// names only allocate on first touch — every subsequent increment hits
/// the existing entry in place.
#[derive(Debug, Default)]
pub struct Counters {
    inner: Mutex<BTreeMap<Cow<'static, str>, u64>>,
}

impl Counters {
    /// Creates an empty counter set.
    pub fn new() -> Counters {
        Counters::default()
    }

    /// Adds `delta` to the named counter. Allocates only the first time a
    /// name is seen.
    pub fn inc(&self, name: &str, delta: u64) {
        let mut map = lock(&self.inner);
        if let Some(v) = map.get_mut(name) {
            *v += delta;
        } else {
            map.insert(Cow::Owned(name.to_string()), delta);
        }
    }

    /// Allocation-free increment for static names — the engine's own
    /// `map.*` / `shuffle.*` / `reduce.*` / `output.*` counters.
    pub fn inc_static(&self, name: &'static str, delta: u64) {
        let mut map = lock(&self.inner);
        if let Some(v) = map.get_mut(name) {
            *v += delta;
        } else {
            map.insert(Cow::Borrowed(name), delta);
        }
    }

    /// Current value (0 when never incremented).
    pub fn get(&self, name: &str) -> u64 {
        lock(&self.inner).get(name).copied().unwrap_or(0)
    }

    /// Merges another snapshot into this set.
    pub fn merge(&self, other: &BTreeMap<String, u64>) {
        let mut map = lock(&self.inner);
        for (k, v) in other {
            if let Some(slot) = map.get_mut(k.as_str()) {
                *slot += v;
            } else {
                map.insert(Cow::Owned(k.clone()), *v);
            }
        }
    }

    /// Copies all counters.
    pub fn snapshot(&self) -> BTreeMap<String, u64> {
        lock(&self.inner)
            .iter()
            .map(|(k, &v)| (k.clone().into_owned(), v))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inc_get_snapshot() {
        let c = Counters::new();
        c.inc("a", 2);
        c.inc("a", 3);
        c.inc("b", 1);
        assert_eq!(c.get("a"), 5);
        assert_eq!(c.get("missing"), 0);
        let snap = c.snapshot();
        assert_eq!(snap["a"], 5);
        assert_eq!(snap["b"], 1);
    }

    #[test]
    fn merge_adds() {
        let c = Counters::new();
        c.inc("a", 1);
        let mut other = BTreeMap::new();
        other.insert("a".to_string(), 4);
        other.insert("c".to_string(), 2);
        c.merge(&other);
        assert_eq!(c.get("a"), 5);
        assert_eq!(c.get("c"), 2);
    }

    #[test]
    fn static_and_dynamic_names_share_one_namespace() {
        let c = Counters::new();
        c.inc_static("map.tasks", 4);
        c.inc("map.tasks", 2); // dynamic spelling of the same key
        c.inc_static("map.tasks", 1);
        assert_eq!(c.get("map.tasks"), 7);
        assert_eq!(c.snapshot()["map.tasks"], 7);
    }
}
