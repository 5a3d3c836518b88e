//! # sh-mapreduce — simulated MapReduce engine
//!
//! An in-process MapReduce engine over the simulated HDFS of [`sh_dfs`],
//! faithful to the aspects of Hadoop that SpatialHadoop's evaluation
//! depends on:
//!
//! * **splits & locality** — one map task per input split (a partition's
//!   blocks), scheduled preferentially on a node holding a replica;
//! * **map → combine → shuffle → sort → reduce** — with byte-level
//!   accounting of input, shuffle, and output volume;
//! * **job startup overhead** — every job pays a fixed simulated cost,
//!   which is what makes multi-round algorithms lose to single-round
//!   designs in the experiments;
//! * **map-only jobs** — tasks may write final output directly, the
//!   mechanism behind the "early flush / pruning" steps of the enhanced
//!   operations.
//!
//! Execution is real (map/reduce functions run on a thread pool and their
//! compute time is measured) while *cluster time* is simulated by the
//! [`cost`] model from task byte counts, measured compute, and the slot
//! topology in [`sh_dfs::ClusterConfig`]. Experiments report simulated
//! cluster time; correctness tests only look at outputs, which are
//! deterministic.

#![forbid(unsafe_code)]

pub mod context;
pub mod cost;
pub mod counters;
pub mod executor;
pub mod job;
pub mod rows;
pub mod scheduler;
pub mod split;

pub use context::{CounterHandle, MapContext, ReduceContext, TaskOutput};
pub use cost::SimBreakdown;
pub use counters::Counters;
pub use executor::JobOutcome;
pub use job::{
    fail_corrupt, text, CorruptInput, Job, JobBuilder, JobError, Mapper, NoReducer, Reducer,
};
pub use rows::Rows;
pub use scheduler::{
    JobHandle, JobInfo, JobScheduler, JobState, SchedConfig, SchedError, SchedPolicy, Ticket,
};
pub use split::{InputSplit, SplitInput};
