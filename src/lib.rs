//! # spatialhadoop — façade crate
//!
//! Re-exports the whole SpatialHadoop-rs workspace behind one dependency,
//! which is what the `examples/` and cross-crate integration `tests/` use.
//!
//! The layering mirrors the paper's architecture:
//!
//! * [`trace`] — cross-layer observability: spans, metrics, job profiles,
//! * [`geom`] — computational-geometry substrate,
//! * [`dfs`] — simulated HDFS (block-structured distributed file system),
//! * [`mapreduce`] — MapReduce engine with a cluster cost model,
//! * [`index`] — spatial partitioning techniques + local indexes,
//! * [`core`] — the SpatialHadoop layers: storage (index building jobs),
//!   spatial MapReduce components, and the operations layer,
//! * [`pigeon`] — the high-level query language,
//! * [`server`] — the TCP front door: sessions, streamed results,
//!   back-pressure over the job scheduler,
//! * [`workload`] — dataset generators used by tests and benchmarks.

#![forbid(unsafe_code)]

pub use sh_core as core;
pub use sh_dfs as dfs;
pub use sh_geom as geom;
pub use sh_index as index;
pub use sh_mapreduce as mapreduce;
pub use sh_pigeon as pigeon;
pub use sh_server as server;
pub use sh_trace as trace;
pub use sh_workload as workload;
