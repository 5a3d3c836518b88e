//! The operations layer.
//!
//! Each operation follows the five-step skeleton — *partition* (done once
//! at index-build time), *filter* (SpatialFileSplitter + a filter
//! function), *local processing* (map), *pruning* (early flush of final
//! results from the map side), *merging* (reduce / driver post-process) —
//! and comes in the variants the paper evaluates:
//!
//! | op | Hadoop | SpatialHadoop | enhanced |
//! |----|--------|----------------|----------|
//! | range query | full scan | partition pruning + local index | — |
//! | kNN | full scan, one round | single-partition + correctness loop | — |
//! | spatial join | SJMR | distributed join over two indexes | — |
//! | skyline | local+global skyline | + partition filter | output-sensitive |
//! | convex hull | local+global hull | + four-skyline filter | Theorem-3 pruning |
//! | union | local union + merge | spatially-clustered local union | cell-clipped, no merge |
//! | closest pair | — (incorrect on heap) | buffer-pruned single round | — |
//! | farthest pair | hull-based | pair-pruning over partitions | — |
//! | Voronoi | x-strip + driver merge | safe-cell early flush + 2-level merge | — |
//! | Delaunay | x-strip + driver merge | circumcircle-in-cell triangle flush | — |

pub mod aggregate;
pub mod closest_pair;
pub mod convex_hull;
pub mod delaunay;
pub mod farthest_pair;
pub mod join;
pub mod knn;
pub mod range;
pub mod single;
pub mod skyline;
pub mod union;
pub mod voronoi;

/// A text side output's bytes ([`sh_mapreduce::TaskOutput::side_output`])
/// as text.
pub(crate) fn side_text<'a>(name: &str, buf: &'a [u8]) -> Result<&'a str, crate::OpError> {
    std::str::from_utf8(buf)
        .map_err(|e| crate::OpError::Corrupt(format!("side output {name}: {e}")))
}
