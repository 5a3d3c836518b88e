//! # sh-dfs — simulated Hadoop Distributed File System
//!
//! SpatialHadoop's performance story is written in HDFS terms: files are
//! split into fixed-size *blocks* (64 MB by default), blocks are
//! replicated across *datanodes*, and MapReduce tasks are scheduled close
//! to their input block. This crate reproduces that model in-process:
//!
//! * [`ClusterConfig`] — cluster topology and the bandwidth/overhead
//!   figures that the cost model in `sh-mapreduce` converts byte counts
//!   into simulated cluster time with;
//! * [`Dfs`] — the namenode + datanodes: a namespace of files, each a
//!   sequence of record-aligned blocks with replicas placed across nodes;
//! * [`FileWriter`] — streaming, record-aligned block writer;
//! * [`DfsMetrics`] — byte-level accounting (local vs. remote reads),
//!   which is what the experiments measure.
//!
//! Blocks are *record aligned*: a block always ends at a record (line)
//! boundary, the standard simplification that lets record readers treat a
//! block as a self-contained split. Replica placement follows HDFS's
//! default policy shape (first replica on the writing node, remaining
//! replicas on distinct random nodes) with a seeded RNG for determinism.
//!
//! Failure injection: [`Dfs::kill_node`] removes a datanode; reads fall
//! back to surviving replicas and fail only when every replica is gone.
//! [`FaultPlan`] describes deterministic injected faults (task failures,
//! wave-boundary node kills, straggler delays) that the job executor in
//! `sh-mapreduce` applies, and [`FtOptions`] is the one record of the
//! retry/blacklist/speculation policy its executor follows and its cost
//! model charges.

#![forbid(unsafe_code)]

mod block;
mod cache;
mod config;
mod crc64;
mod fault;
mod metrics;
mod namespace;
mod slots;
mod writer;

pub use block::{BlockData, BlockId, BlockInfo};
pub use cache::{BlockCache, CacheStats, DEFAULT_CACHE_BUDGET};
pub use config::{ClusterConfig, NodeId};
pub use crc64::crc64;
pub use fault::{CorruptKind, FaultAction, FaultPlan, FtOptions};
pub use metrics::DfsMetrics;
pub use namespace::{Dfs, DfsError, FileStat, ScrubReport};
pub use slots::{SlotLease, SlotPool};
pub use writer::FileWriter;
