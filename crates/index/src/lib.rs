//! # sh-index — SpatialHadoop's indexing layer
//!
//! SpatialHadoop stores a spatial index *inside* the distributed file
//! system as two levels:
//!
//! * a **global index** partitions the file into spatial partitions (one
//!   partition ≈ one HDFS block), described by a small catalogue the
//!   master node keeps ([`GlobalPartitioning`] + per-partition
//!   [`PartitionMeta`]); the MapReduce layer prunes partitions against it;
//! * a **local index** organizes records inside each partition
//!   ([`LocalRTree`], an STR bulk-loaded R-tree) so map tasks can search a
//!   partition without scanning it.
//!
//! Seven partitioning techniques are provided, matching Table 1 of the
//! SpatialHadoop partitioning study: uniform grid, Quad-tree, K-d tree,
//! STR, STR+, Z-curve, and Hilbert-curve. They differ in whether the
//! resulting partitions are **disjoint** (records replicated to every
//! overlapping partition; required by the pruning-based operations) or
//! **overlapping** (each record in exactly one partition whose MBR then
//! grows), and in how well they handle skew:
//!
//! | technique | disjoint | skew-aware |
//! |-----------|----------|------------|
//! | grid      | yes      | no         |
//! | Quad-tree | yes      | yes        |
//! | K-d tree  | yes      | yes        |
//! | STR       | no       | yes        |
//! | STR+      | yes      | yes        |
//! | Z-curve   | no       | yes        |
//! | Hilbert   | no       | yes        |
//!
//! All sample-based techniques are built from a seeded random sample of
//! the input (the index-building MapReduce job in `sh-core` draws it),
//! reproducing SpatialHadoop's one-pass bulk loading.

#![forbid(unsafe_code)]

pub mod curve;
pub mod grid;
pub mod kdtree;
pub mod local;
pub mod partitioner;
pub mod quadtree;
pub mod quality;
pub mod sampler;
pub mod str;

pub use local::LocalRTree;
pub use partitioner::{owns_point, GlobalPartitioning, PartitionKind, PartitionMeta};
pub use quality::QualityReport;
