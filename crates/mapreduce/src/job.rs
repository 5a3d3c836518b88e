//! Job definition: the mapper/reducer traits and the job builder.

use std::fmt;
use std::hash::Hash;
use std::sync::Arc;

use sh_dfs::{Dfs, DfsError};

use crate::context::{MapContext, ReduceContext};
use crate::executor::{self, JobOutcome};
use crate::split::{InputSplit, SplitInput};

/// A map function over one input split.
///
/// The engine calls one method, [`Mapper::map_split`], with a handle on
/// the split's blocks ([`SplitInput`]): the mapper pulls the blocks it
/// needs, so one whose answer is already in memory reads nothing and
/// one that holds part of the split reads only the rest. Decoding is the
/// mapper's job (SpatialHadoop's record readers live in `sh-core` and are
/// invoked from mapper implementations; a text-only mapper calls
/// [`text`]). This mirrors Hadoop, where the `RecordReader` runs inside
/// the map task, and keeps the measured compute cost honest.
///
/// A mapper implements either `map_split` or [`Mapper::map_bytes`]: the
/// provided `map_split` reads every block and hands their bytes to
/// `map_bytes`.
pub trait Mapper: Send + Sync {
    /// Intermediate key type.
    type K: Clone + Ord + Hash + Send + Sync + 'static;
    /// Intermediate value type.
    type V: Clone + Send + Sync + 'static;

    /// Processes one split, reading its blocks through `input`. A read
    /// error is returned as it is, and fails the attempt like any lost
    /// block. The task is charged the whole split's length whatever it
    /// read. The default reads every block and calls
    /// [`Mapper::map_bytes`] with them end to end (a one-block split
    /// borrows its block's payload).
    fn map_split(
        &self,
        split: &InputSplit,
        input: &mut SplitInput<'_>,
        ctx: &mut MapContext<Self::K, Self::V>,
    ) -> Result<(), DfsError> {
        match input.all()?.as_slice() {
            [one] => self.map_bytes(split, one, ctx),
            many => self.map_bytes(split, &many.concat(), ctx),
        }
        Ok(())
    }

    /// Processes one split from its raw bytes, in whichever layout (text
    /// lines or binary blocks) the split was stored. Only the provided
    /// [`Mapper::map_split`] calls it; a mapper that overrides that
    /// method need not implement this one.
    fn map_bytes(&self, split: &InputSplit, _data: &[u8], _ctx: &mut MapContext<Self::K, Self::V>) {
        panic!(
            "{}: the mapper implements neither map_split nor map_bytes",
            split.path
        )
    }

    /// Never called by the engine: forwards to [`Mapper::map_bytes`]. It
    /// stays only because `shbench`'s `NoopMapper` overrides it, and goes
    /// when `shbench` next changes.
    fn map(&self, split: &InputSplit, data: &str, ctx: &mut MapContext<Self::K, Self::V>) {
        self.map_bytes(split, data.as_bytes(), ctx);
    }
}

/// Panic payload marking a *data* error (corrupt input) rather than an
/// engine bug. The executor downcasts unwound payloads to this type and
/// converts them into [`JobError::CorruptInput`] — failing the job
/// immediately, with no retries (re-reading corrupt bytes cannot
/// succeed).
#[derive(Clone, Debug)]
pub struct CorruptInput(pub String);

/// Fails the current task with a corrupt-input error. Mappers/reducers
/// return `()`, so the error travels as a typed panic payload that the
/// executor's unwind boundary turns into a clean
/// [`JobError::CorruptInput`].
pub fn fail_corrupt(msg: impl Into<String>) -> ! {
    std::panic::panic_any(CorruptInput(msg.into()))
}

/// A text-only mapper's split as UTF-8 text; other bytes fail the task
/// as corrupt input ([`fail_corrupt`]) naming the split's path.
pub fn text<'a>(split: &InputSplit, data: &'a [u8]) -> &'a str {
    std::str::from_utf8(data)
        .unwrap_or_else(|e| fail_corrupt(format!("{}: input is not UTF-8 text: {e}", split.path)))
}

/// A reduce function over one key group.
pub trait Reducer: Send + Sync {
    /// Intermediate key type (matches the mapper's).
    type K: Clone + Ord + Hash + Send + Sync + 'static;
    /// Intermediate value type (matches the mapper's).
    type V: Clone + Send + Sync + 'static;

    /// Processes all values of one key.
    fn reduce(&self, key: &Self::K, values: Vec<Self::V>, ctx: &mut ReduceContext);
}

/// Placeholder reducer for map-only jobs; never invoked.
pub struct NoReducer<K, V>(std::marker::PhantomData<fn() -> (K, V)>);

impl<K, V> Default for NoReducer<K, V> {
    fn default() -> Self {
        NoReducer(std::marker::PhantomData)
    }
}

impl<K, V> Reducer for NoReducer<K, V>
where
    K: Clone + Ord + Hash + Send + Sync + 'static,
    V: Clone + Send + Sync + 'static,
{
    type K = K;
    type V = V;

    fn reduce(&self, _key: &K, _values: Vec<V>, _ctx: &mut ReduceContext) {
        unreachable!("NoReducer is only valid for map-only jobs")
    }
}

/// Combiner: runs on the map side per key before the shuffle.
pub type CombinerFn<K, V> = Arc<dyn Fn(&K, Vec<V>) -> Vec<V> + Send + Sync>;

/// Estimates the wire size of an intermediate pair for shuffle-byte
/// accounting.
pub type PairSizeFn<K, V> = Arc<dyn Fn(&K, &V) -> usize + Send + Sync>;

/// Errors from job configuration or execution.
#[derive(Debug)]
pub enum JobError {
    /// Underlying DFS failure (missing input, lost block, ...).
    Dfs(DfsError),
    /// A reducer was configured with zero reduce tasks, or vice versa.
    Config(String),
    /// A map or reduce task panicked (e.g. on corrupt records). The
    /// job fails cleanly instead of aborting the process — Hadoop's
    /// failed-task semantics.
    TaskFailed(String),
    /// A task hit corrupt input data ([`fail_corrupt`]). Deterministic:
    /// the job fails immediately without burning retry attempts.
    CorruptInput(String),
}

impl fmt::Display for JobError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            JobError::Dfs(e) => write!(f, "dfs error: {e}"),
            JobError::Config(m) => write!(f, "job configuration error: {m}"),
            JobError::TaskFailed(m) => write!(f, "task failed: {m}"),
            JobError::CorruptInput(m) => write!(f, "corrupt input: {m}"),
        }
    }
}

impl std::error::Error for JobError {}

impl From<DfsError> for JobError {
    fn from(e: DfsError) -> Self {
        JobError::Dfs(e)
    }
}

/// A fully-configured MapReduce job, ready to run.
pub struct Job<M: Mapper, R: Reducer<K = M::K, V = M::V>> {
    pub(crate) dfs: Dfs,
    pub(crate) name: String,
    pub(crate) splits: Vec<InputSplit>,
    pub(crate) mapper: M,
    pub(crate) reducer: Option<R>,
    pub(crate) combiner: Option<CombinerFn<M::K, M::V>>,
    pub(crate) num_reducers: usize,
    pub(crate) pair_size: PairSizeFn<M::K, M::V>,
}

impl<M: Mapper, R: Reducer<K = M::K, V = M::V>> Job<M, R> {
    /// Runs the job to completion. Its final output comes back as
    /// [`JobOutcome::rows`] and its side outputs as [`JobOutcome::side`];
    /// the job writes nothing to the DFS.
    pub fn run(self) -> Result<JobOutcome, JobError> {
        executor::run(self)
    }
}

/// Builder for [`Job`].
///
/// ```
/// # use sh_dfs::{Dfs, ClusterConfig};
/// # use sh_mapreduce::{text, JobBuilder, Mapper, Reducer, MapContext, ReduceContext, InputSplit};
/// struct Tokenize;
/// impl Mapper for Tokenize {
///     type K = String;
///     type V = u64;
///     fn map_bytes(&self, s: &InputSplit, data: &[u8], ctx: &mut MapContext<String, u64>) {
///         for w in text(s, data).split_whitespace() {
///             ctx.emit(w.to_string(), 1);
///         }
///     }
/// }
/// struct Sum;
/// impl Reducer for Sum {
///     type K = String;
///     type V = u64;
///     fn reduce(&self, k: &String, vs: Vec<u64>, ctx: &mut ReduceContext) {
///         ctx.output(&format!("{k} {}", vs.iter().sum::<u64>()));
///     }
/// }
/// let dfs = Dfs::new(ClusterConfig::small_for_tests());
/// dfs.write_string("/in", "a b a\n").unwrap();
/// let outcome = JobBuilder::new(&dfs, "wordcount")
///     .input_file("/in").unwrap()
///     .mapper(Tokenize)
///     .reducer(Sum, 2)
///     .build().unwrap()
///     .run().unwrap();
/// let mut text: Vec<&str> = outcome.rows.lines().collect();
/// text.sort();
/// assert_eq!(text, vec!["a 2", "b 1"]);
/// ```
pub struct JobBuilder<M: Mapper> {
    dfs: Dfs,
    name: String,
    splits: Vec<InputSplit>,
    mapper: Option<M>,
    combiner: Option<CombinerFn<M::K, M::V>>,
    pair_size: PairSizeFn<M::K, M::V>,
}

impl<M: Mapper> JobBuilder<M> {
    /// Starts a job description against `dfs`.
    pub fn new(dfs: &Dfs, name: &str) -> Self {
        JobBuilder {
            dfs: dfs.clone(),
            name: name.to_string(),
            splits: Vec::new(),
            mapper: None,
            combiner: None,
            pair_size: Arc::new(|_, _| std::mem::size_of::<M::K>() + std::mem::size_of::<M::V>()),
        }
    }

    /// Adds default per-block splits for a heap file.
    pub fn input_file(mut self, path: &str) -> Result<Self, JobError> {
        self.splits.extend(InputSplit::from_file(&self.dfs, path)?);
        Ok(self)
    }

    /// Adds pre-computed splits (the SpatialFileSplitter path).
    pub fn input_splits(mut self, splits: Vec<InputSplit>) -> Self {
        self.splits.extend(splits);
        self
    }

    /// Sets the mapper.
    pub fn mapper(mut self, mapper: M) -> Self {
        self.mapper = Some(mapper);
        self
    }

    /// Installs a map-side combiner.
    pub fn combiner(
        mut self,
        f: impl Fn(&M::K, Vec<M::V>) -> Vec<M::V> + Send + Sync + 'static,
    ) -> Self {
        self.combiner = Some(Arc::new(f));
        self
    }

    /// Overrides the shuffle pair-size estimator.
    pub fn pair_size(mut self, f: impl Fn(&M::K, &M::V) -> usize + Send + Sync + 'static) -> Self {
        self.pair_size = Arc::new(f);
        self
    }

    /// Ignored: a job writes nothing, so it has no output directory. It
    /// stays only because `shbench` calls it, and goes when `shbench`
    /// next changes.
    pub fn output(self, _path: &str) -> Self {
        self
    }

    /// Finishes a job with a reduce phase.
    pub fn reducer<R: Reducer<K = M::K, V = M::V>>(
        self,
        reducer: R,
        num_reducers: usize,
    ) -> JobBuilderWithReducer<M, R> {
        JobBuilderWithReducer {
            base: self,
            reducer,
            num_reducers,
        }
    }

    /// Finishes a map-only job (output comes from `MapContext::output`).
    #[allow(clippy::type_complexity)]
    pub fn map_only(self) -> Result<Job<M, NoReducer<M::K, M::V>>, JobError> {
        let mapper = self
            .mapper
            .ok_or_else(|| JobError::Config("mapper not set".into()))?;
        Ok(Job {
            dfs: self.dfs,
            name: self.name,
            splits: self.splits,
            mapper,
            reducer: None,
            combiner: self.combiner,
            num_reducers: 0,
            pair_size: self.pair_size,
        })
    }
}

/// Second-stage builder carrying the reducer.
pub struct JobBuilderWithReducer<M: Mapper, R: Reducer<K = M::K, V = M::V>> {
    base: JobBuilder<M>,
    reducer: R,
    num_reducers: usize,
}

impl<M: Mapper, R: Reducer<K = M::K, V = M::V>> JobBuilderWithReducer<M, R> {
    /// Validates and builds the job.
    pub fn build(self) -> Result<Job<M, R>, JobError> {
        if self.num_reducers == 0 {
            return Err(JobError::Config(
                "reduce job needs at least one reducer".into(),
            ));
        }
        let mapper = self
            .base
            .mapper
            .ok_or_else(|| JobError::Config("mapper not set".into()))?;
        Ok(Job {
            dfs: self.base.dfs,
            name: self.base.name,
            splits: self.base.splits,
            mapper,
            reducer: Some(self.reducer),
            combiner: self.base.combiner,
            num_reducers: self.num_reducers,
            pair_size: self.base.pair_size,
        })
    }
}
