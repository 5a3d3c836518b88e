//! Task-side contexts handed to map and reduce functions: one
//! [`TaskOutput`] per task, which a reduce function gets as is and a map
//! function gets inside a [`MapContext`] with its reducer buckets.

use std::collections::hash_map::DefaultHasher;
use std::collections::BTreeMap;
use std::hash::{Hash, Hasher};
use std::ops::{Deref, DerefMut};

/// Partition function of the shuffle: which reducer a key belongs to.
/// Uses a fixed-algorithm hasher so runs are deterministic.
pub(crate) fn bucket_of<K: Hash>(key: &K, buckets: usize) -> usize {
    let mut h = DefaultHasher::new();
    key.hash(&mut h);
    (h.finish() % buckets as u64) as usize
}

/// Handle to a job counter registered once per task with
/// [`TaskOutput::register_counter`].
/// Incrementing through a handle is an integer-indexed add — no string
/// allocation or map lookup in per-record loops.
#[derive(Clone, Copy, Debug)]
pub struct CounterHandle(usize);

/// Interned counters: names registered once, values addressed by index.
#[derive(Default)]
pub(crate) struct InternedCounters {
    names: Vec<&'static str>,
    values: Vec<u64>,
}

impl InternedCounters {
    fn register(&mut self, name: &'static str) -> CounterHandle {
        if let Some(i) = self.names.iter().position(|n| *n == name) {
            return CounterHandle(i);
        }
        self.names.push(name);
        self.values.push(0);
        CounterHandle(self.names.len() - 1)
    }

    #[inline]
    fn inc(&mut self, h: CounterHandle, delta: u64) {
        self.values[h.0] += delta;
    }

    /// Folds the interned values into the dynamic counter map (task end).
    fn fold_into(&self, counters: &mut BTreeMap<String, u64>) {
        for (name, v) in self.names.iter().zip(&self.values) {
            if *v > 0 {
                *counters.entry((*name).to_string()).or_insert(0) += v;
            }
        }
    }
}

/// What a task leaves behind besides its shuffle pairs: its final
/// output, its named side outputs and its counters. A reduce task's
/// context is exactly this ([`ReduceContext`]); a map task's
/// ([`MapContext`]) adds the reducer buckets and derefs to it. Each
/// destination — the job's rows and every side output — is one buffer,
/// every text line followed by its newline, so the executor hands them
/// over as they are.
pub struct TaskOutput {
    /// Final output so far: every line followed by its newline.
    pub(crate) output: String,
    /// Side outputs by name: text lines with their newlines, or binary
    /// chunks.
    pub(crate) side: BTreeMap<String, Vec<u8>>,
    pub(crate) counters: BTreeMap<String, u64>,
    interned: InternedCounters,
}

/// Context given to a reduce function: the task's [`TaskOutput`].
pub type ReduceContext = TaskOutput;

impl TaskOutput {
    pub(crate) fn new() -> Self {
        TaskOutput {
            output: String::new(),
            side: BTreeMap::new(),
            counters: BTreeMap::new(),
            interned: InternedCounters::default(),
        }
    }

    /// Writes one line of final output (from the map side: map-only jobs
    /// and the early-flush "pruning" steps of the enhanced operations; in
    /// Hadoop terms, a task-side output file committed with the job). The
    /// driver gets it in [`crate::JobOutcome::rows`].
    #[inline]
    pub fn output(&mut self, line: &str) {
        self.output.push_str(line);
        self.output.push('\n');
    }

    /// Writes one line into a *named side output*, which the driver gets
    /// in [`crate::JobOutcome::side`]. Lines from all tasks writing the
    /// same name are concatenated in task order, map tasks first — the
    /// mechanism the index builder uses to build one file per spatial
    /// partition.
    pub fn side_output(&mut self, name: &str, line: &str) {
        let buf = match self.side.get_mut(name) {
            Some(buf) => buf,
            None => self.side.entry(name.to_string()).or_default(),
        };
        buf.extend_from_slice(line.as_bytes());
        buf.push(b'\n');
    }

    /// Appends raw bytes to a *named binary side output*: the binary
    /// analogue of [`TaskOutput::side_output`]. A name must be either
    /// text or binary, never both.
    pub fn side_output_bytes(&mut self, name: &str, chunk: &[u8]) {
        self.side
            .entry(name.to_string())
            .or_default()
            .extend_from_slice(chunk);
    }

    /// Adds to a named job counter.
    pub fn counter(&mut self, name: &str, delta: u64) {
        *self.counters.entry(name.to_string()).or_insert(0) += delta;
    }

    /// Registers a counter once; increments through the returned handle
    /// are allocation-free (use in per-record loops).
    pub fn register_counter(&mut self, name: &'static str) -> CounterHandle {
        self.interned.register(name)
    }

    /// Adds to a counter registered with [`TaskOutput::register_counter`].
    #[inline]
    pub fn inc(&mut self, h: CounterHandle, delta: u64) {
        self.interned.inc(h, delta);
    }

    /// All counters (dynamic + interned), consumed at task end.
    pub(crate) fn take_counters(&mut self) -> BTreeMap<String, u64> {
        let mut counters = std::mem::take(&mut self.counters);
        self.interned.fold_into(&mut counters);
        counters
    }
}

/// Context given to a map function for one split: its [`TaskOutput`]
/// (which it derefs to) plus [`MapContext::emit`], which sends an
/// intermediate `(key, value)` pair into the shuffle toward the reducers.
///
/// Emitted pairs are bucketed by reducer *at emit time*: each task hands
/// the driver per-reducer vectors, so the shuffle is a concatenation
/// instead of a single-threaded rehash of every pair.
pub struct MapContext<K, V> {
    pub(crate) buckets: Vec<Vec<(K, V)>>,
    pub(crate) task: TaskOutput,
}

impl<K, V> MapContext<K, V> {
    /// `num_reducers` = 0 (map-only) still keeps one bucket so `emit`
    /// stays callable.
    pub(crate) fn new(num_reducers: usize) -> Self {
        MapContext {
            buckets: (0..num_reducers.max(1)).map(|_| Vec::new()).collect(),
            task: TaskOutput::new(),
        }
    }

    /// Emits an intermediate pair into the shuffle, routed to its
    /// reducer's bucket immediately.
    #[inline]
    pub fn emit(&mut self, key: K, value: V)
    where
        K: Hash,
    {
        let b = if self.buckets.len() == 1 {
            0
        } else {
            bucket_of(&key, self.buckets.len())
        };
        self.buckets[b].push((key, value));
    }

    /// Total pairs emitted so far (diagnostics/tests).
    #[cfg(test)]
    pub(crate) fn emitted_len(&self) -> usize {
        self.buckets.iter().map(Vec::len).sum()
    }
}

impl<K, V> Deref for MapContext<K, V> {
    type Target = TaskOutput;

    fn deref(&self) -> &TaskOutput {
        &self.task
    }
}

impl<K, V> DerefMut for MapContext<K, V> {
    fn deref_mut(&mut self) -> &mut TaskOutput {
        &mut self.task
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn map_context_collects() {
        let mut ctx: MapContext<u32, String> = MapContext::new(0);
        ctx.emit(1, "a".into());
        ctx.output("final");
        ctx.counter("c", 2);
        ctx.counter("c", 1);
        assert_eq!(ctx.emitted_len(), 1);
        assert_eq!(ctx.output, "final\n");
        assert_eq!(ctx.counters["c"], 3);
    }

    #[test]
    fn reduce_context_collects() {
        let mut ctx = ReduceContext::new();
        ctx.output("x");
        ctx.counter("k", 1);
        assert_eq!(ctx.output, "x\n");
        assert_eq!(ctx.counters["k"], 1);
    }

    #[test]
    fn emit_buckets_pairs_by_reducer_hash() {
        let mut ctx: MapContext<u64, u64> = MapContext::new(4);
        for k in 0..100u64 {
            ctx.emit(k, k);
        }
        assert_eq!(ctx.emitted_len(), 100);
        for (b, bucket) in ctx.buckets.iter().enumerate() {
            for (k, _) in bucket {
                assert_eq!(bucket_of(k, 4), b, "pair must sit in its hash bucket");
            }
        }
    }

    #[test]
    fn interned_counters_merge_with_dynamic_ones() {
        let mut ctx: MapContext<u32, u32> = MapContext::new(1);
        let h = ctx.register_counter("hot.records");
        let h2 = ctx.register_counter("hot.records"); // same name, same slot
        for _ in 0..1000 {
            ctx.inc(h, 1);
        }
        ctx.inc(h2, 1);
        ctx.counter("hot.records", 5);
        ctx.counter("other", 2);
        let counters = ctx.take_counters();
        assert_eq!(counters["hot.records"], 1006);
        assert_eq!(counters["other"], 2);

        let mut rctx = ReduceContext::new();
        let rh = rctx.register_counter("red.groups");
        rctx.inc(rh, 3);
        assert_eq!(rctx.take_counters()["red.groups"], 3);
    }
}
