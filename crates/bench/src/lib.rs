//! # sh-bench — the experiment harness
//!
//! One runner per table/figure of the SpatialHadoop evaluation (see
//! DESIGN.md §4 for the experiment index). Each runner builds its
//! workload, executes every algorithm variant on the simulated 25-node
//! cluster, and returns a [`Table`] with the same rows/series the paper
//! reports — *simulated cluster seconds* (and derived throughput), plus
//! the pruning counters several figures plot.
//!
//! Regenerate everything with:
//!
//! ```text
//! cargo run -p sh-bench --release --bin experiments          # all
//! cargo run -p sh-bench --release --bin experiments -- E3 E5 # a subset
//! ```
//!
//! Scaling note (DESIGN.md §2): datasets are laptop-sized and the HDFS
//! block is shrunk proportionally, so partition counts — which drive
//! every effect under study — match cluster-scale shapes. Absolute
//! seconds are simulated from the cost model; comparisons between
//! variants are the reproduction target, not absolute magnitudes.

pub mod experiments;
pub mod table;

pub use table::Table;

use sh_dfs::{ClusterConfig, Dfs};

/// The paper-shaped cluster (25 nodes) with a laptop-scaled block size.
///
/// Bandwidths are scaled by `block_bytes / 64 MB` so that reading one
/// block costs the same simulated time as reading a real 64 MB block at
/// 100 MB/s (~0.64 s). This keeps every ratio of the original system —
/// task startup vs. block read, job startup vs. scan length — intact at
/// laptop data sizes (DESIGN.md §2).
pub fn cluster(block_bytes: u64) -> ClusterConfig {
    let scale = block_bytes as f64 / (64.0 * 1024.0 * 1024.0);
    let base = ClusterConfig::default();
    ClusterConfig {
        block_size: block_bytes,
        disk_bandwidth: base.disk_bandwidth * scale,
        network_bandwidth: base.network_bandwidth * scale,
        ..base
    }
}

/// Fresh DFS over the paper cluster.
pub fn fresh_dfs(block_bytes: u64) -> Dfs {
    Dfs::new(cluster(block_bytes))
}

/// Default experiment block size: 8 KiB. A 400k-point file then spans
/// ~700 blocks — the same blocks-per-cluster proportion as a few hundred
/// GB on the paper's 25-node testbed.
pub const BLOCK: u64 = 8 * 1024;
