//! # sh-core — SpatialHadoop proper
//!
//! The paper's contribution, on top of the substrates:
//!
//! * [`storage`] — the **indexing layer**: loading heap files and bulk-
//!   building spatially-indexed files as MapReduce jobs (sample →
//!   partition boundaries → partition-and-write, with the master
//!   catalogue stored in the DFS like SpatialHadoop's `_master` file);
//! * [`catalog`] — the indexed-file handle ([`catalog::SpatialFile`]) and
//!   the text master-file format;
//! * [`mrlayer`] — the **MapReduce layer**: `SpatialFileSplitter` (prunes
//!   partitions with a filter function over the global index) and
//!   `SpatialRecordReader` (the one place that turns a split's stored
//!   bytes, text or columnar, into records or a partition with its local
//!   R-tree), `RecordMapper`/`ByRecords` (operations map records), plus
//!   the reference-point duplicate-avoidance rule;
//! * [`ops`] — the **operations layer**: range query, k-nearest-
//!   neighbours, spatial join (SJMR and the indexed distributed join),
//!   and the computational-geometry suite (polygon union, skyline,
//!   convex hull, closest pair, farthest pair, Voronoi diagram), each
//!   with a plain-Hadoop variant, a SpatialHadoop variant and — where
//!   the paper defines one — an enhanced/output-sensitive variant, all
//!   instances of the five-step skeleton *partition → filter → local
//!   process → prune → merge*.
//!
//! Every distributed operation is validated against its single-machine
//! baseline in `ops::single`; the experiments in `sh-bench` compare
//! their simulated cluster times.
//!
//! ```
//! use sh_core::ops::{knn, range};
//! use sh_core::storage::{build_index, upload};
//! use sh_dfs::{ClusterConfig, Dfs};
//! use sh_geom::{Point, Rect};
//! use sh_index::PartitionKind;
//!
//! // A simulated cluster with small blocks for this tiny example.
//! let dfs = Dfs::new(ClusterConfig::small_for_tests());
//! let pts: Vec<Point> = (0..500)
//!     .map(|i| Point::new((i % 25) as f64 * 4.0, (i / 25) as f64 * 5.0))
//!     .collect();
//! upload(&dfs, "/demo/points", &pts).unwrap();
//!
//! // Bulk-load the two-level index (runs real MapReduce jobs).
//! let file = build_index::<Point>(&dfs, "/demo/points", "/demo/idx", PartitionKind::StrPlus)
//!     .unwrap()
//!     .value;
//!
//! // Query through the SpatialHadoop plan.
//! let hits = range::range_spatial::<Point>(
//!     &dfs, &file, &Rect::new(0.0, 0.0, 20.0, 20.0), "/demo/out",
//! )
//! .unwrap();
//! assert_eq!(hits.value.len(), pts.iter()
//!     .filter(|p| p.x <= 20.0 && p.y <= 20.0).count());
//!
//! let nearest = knn::knn_spatial(&dfs, &file, &Point::new(50.0, 50.0), 3, "/demo/knn")
//!     .unwrap();
//! assert_eq!(nearest.value.len(), 3);
//! ```

#![forbid(unsafe_code)]

pub mod catalog;
pub mod codec;
pub mod colblock;
pub mod mrlayer;
pub mod opresult;
pub mod ops;
pub mod storage;

pub use catalog::SpatialFile;
pub use opresult::{OpError, OpResult};
