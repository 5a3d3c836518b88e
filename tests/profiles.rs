//! Cross-layer observability: every spatial operation must come back with
//! a usable `JobProfile` — splitter selectivity that adds up, DFS/shuffle
//! accounting, and sane phase histograms.

use spatialhadoop::core::ops::{join, knn, range};
use spatialhadoop::core::storage::{build_index, upload};
use spatialhadoop::dfs::{ClusterConfig, Dfs};
use spatialhadoop::geom::{Point, Rect};
use spatialhadoop::index::PartitionKind;
use spatialhadoop::workload::{points, rects, Distribution};

fn indexed_points(dfs: &Dfs) -> spatialhadoop::core::SpatialFile {
    let uni = Rect::new(0.0, 0.0, 1_000_000.0, 1_000_000.0);
    let pts = points(20_000, Distribution::Uniform, &uni, 7);
    upload(dfs, "/data/points", &pts).unwrap();
    build_index::<Point>(dfs, "/data/points", "/idx/points", PartitionKind::StrPlus)
        .unwrap()
        .value
}

#[test]
fn range_query_profile_shows_pruning() {
    let dfs = Dfs::new(ClusterConfig::small_for_tests());
    let file = indexed_points(&dfs);
    let query = Rect::new(100_000.0, 100_000.0, 200_000.0, 200_000.0);
    let r = range::range_spatial::<Point>(&dfs, &file, &query, "/out/range").unwrap();

    let sel = r.selectivity();
    assert!(sel.partitions_pruned > 0, "small query must prune: {sel:?}");
    assert_eq!(
        sel.partitions_scanned + sel.partitions_pruned,
        file.partitions.len() as u64,
        "scanned + pruned must cover the whole file"
    );
    assert_eq!(sel.records_emitted, r.value.len() as u64);
    assert!(sel.records_scanned >= sel.records_emitted);

    let p = r.profile("range");
    assert!(p.dfs_local_bytes + p.dfs_remote_bytes > 0, "maps read data");
    assert!(p.phases.iter().any(|ph| ph.name == "map" && ph.tasks > 0));
}

#[test]
fn spatial_join_profile_covers_all_partition_pairs() {
    let dfs = Dfs::new(ClusterConfig::small_for_tests());
    let uni = Rect::new(0.0, 0.0, 500.0, 500.0);
    upload(&dfs, "/l", &rects(800, &uni, 10.0, 1)).unwrap();
    upload(&dfs, "/r", &rects(800, &uni, 10.0, 2)).unwrap();
    let a = build_index::<Rect>(&dfs, "/l", "/ia", PartitionKind::Grid)
        .unwrap()
        .value;
    let b = build_index::<Rect>(&dfs, "/r", "/ib", PartitionKind::Grid)
        .unwrap()
        .value;
    let j = join::distributed_join(&dfs, &a, &b, "/out/join").unwrap();

    // The join's pruning unit is partition *pairs*.
    let sel = j.selectivity();
    assert_eq!(
        sel.partitions_total,
        (a.partitions.len() * b.partitions.len()) as u64
    );
    assert_eq!(
        sel.partitions_scanned + sel.partitions_pruned,
        sel.partitions_total
    );
    assert!(
        sel.partitions_pruned > 0,
        "grid cells far apart must be filtered: {sel:?}"
    );
    assert!(!j.value.is_empty());
}

#[test]
fn knn_profile_prunes_partitions() {
    let dfs = Dfs::new(ClusterConfig::small_for_tests());
    let file = indexed_points(&dfs);
    let q = Point::new(500_000.0, 500_000.0);
    let r = knn::knn_spatial(&dfs, &file, &q, 10, "/out/knn").unwrap();
    assert_eq!(r.value.len(), 10);

    let sel = r.selectivity();
    assert!(
        sel.partitions_pruned > 0,
        "kNN should not touch every partition: {sel:?}"
    );
    assert_eq!(
        sel.partitions_scanned + sel.partitions_pruned,
        file.partitions.len() as u64
    );
}

#[test]
fn phase_histogram_p99_is_sane() {
    let dfs = Dfs::new(ClusterConfig::small_for_tests());
    let file = indexed_points(&dfs);
    let query = Rect::new(100_000.0, 100_000.0, 200_000.0, 200_000.0);
    let r = range::range_spatial::<Point>(&dfs, &file, &query, "/out/range").unwrap();

    let p = r.profile("range");
    let map = p
        .phases
        .iter()
        .find(|ph| ph.name == "map" && ph.tasks > 0)
        .expect("the range job has a map phase");
    let h = &map.task_micros;
    assert!(h.count() > 0, "map phase must record task durations");
    let (p50, p99, max) = (h.quantile(0.5), h.quantile(0.99), h.max());
    assert!(
        p50 <= p99 && p99 <= max,
        "quantiles must be ordered: p50={p50} p99={p99} max={max}"
    );
    // Fewer than 100 map tasks means rank(0.99) == count, so the p99
    // estimate collapses to the exact max — pin that, it is what STATS
    // renders for small jobs.
    assert!(h.count() < 100, "test workload stays under 100 map tasks");
    assert_eq!(p99, max);
}
