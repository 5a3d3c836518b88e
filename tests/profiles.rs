//! Cross-layer observability: every spatial operation must come back with
//! a usable `JobProfile` — splitter selectivity that adds up, DFS/shuffle
//! accounting, and sane phase histograms.

use spatialhadoop::core::ops::{convex_hull, farthest_pair, join, knn, range, skyline};
use spatialhadoop::core::storage::{build_index, upload};
use spatialhadoop::core::OpResult;
use spatialhadoop::dfs::{ClusterConfig, Dfs};
use spatialhadoop::geom::{Point, Rect};
use spatialhadoop::index::PartitionKind;
use spatialhadoop::pigeon::run_script;
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

fn two_rect_files(dfs: &Dfs) {
    let uni = Rect::new(0.0, 0.0, 500.0, 500.0);
    upload(dfs, "/l", &rects(800, &uni, 10.0, 1)).unwrap();
    upload(dfs, "/r", &rects(800, &uni, 10.0, 2)).unwrap();
}

#[test]
fn spatial_join_profile_covers_all_partition_pairs() {
    let dfs = Dfs::new(ClusterConfig::small_for_tests());
    two_rect_files(&dfs);
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

/// The counters an op's driver adds after its job ran are part of the
/// job's profile, so `PROFILE` shows every counter `OpResult::counter`
/// sees.
fn assert_in_profile<T>(r: &OpResult<T>, op: &str, keys: &[&str]) {
    let p = r.profile(op);
    for &key in keys {
        assert_eq!(p.counters.get(key), Some(&r.counter(key)), "{op}: {key}");
    }
}

#[test]
fn driver_counters_reach_the_profile() {
    let dfs = Dfs::new(ClusterConfig::small_for_tests());
    let file = indexed_points(&dfs);
    let query = Rect::new(100_000.0, 100_000.0, 200_000.0, 200_000.0);
    let r = range::range_spatial::<Point>(&dfs, &file, &query, "/out/range").unwrap();
    assert_in_profile(&r, "range", &["range.partitions.pruned"]);
    let r = convex_hull::hull_spatial(&dfs, &file).unwrap();
    assert_in_profile(&r, "hull", &["hull.partitions.pruned"]);
    let r = skyline::skyline_spatial(&dfs, &file).unwrap();
    assert_in_profile(&r, "skyline", &["skyline.partitions.pruned"]);
    let r = farthest_pair::farthest_pair_spatial(&dfs, &file).unwrap();
    assert_in_profile(&r, "fp", &["fp.partitions.pruned"]);
    let r = farthest_pair::farthest_pair_pairs(&dfs, &file).unwrap();
    assert_in_profile(&r, "fp", &["fp.pairs.considered", "fp.pairs.processed"]);

    two_rect_files(&dfs);
    let a = build_index::<Rect>(&dfs, "/l", "/ia", PartitionKind::Grid)
        .unwrap()
        .value;
    let b = build_index::<Rect>(&dfs, "/r", "/ib", PartitionKind::Grid)
        .unwrap()
        .value;
    let j = join::distributed_join(&dfs, &a, &b, "/out/join").unwrap();
    assert_in_profile(
        &j,
        "join",
        &["join.pairs.considered", "join.pairs.processed"],
    );
}

#[test]
fn a_join_profile_shows_the_pairs_it_considered() {
    let dfs = Dfs::new(ClusterConfig::small_for_tests());
    two_rect_files(&dfs);
    let out = run_script(
        &dfs,
        "l = LOAD '/l' AS RECTANGLE;\n\
         r = LOAD '/r' AS RECTANGLE;\n\
         a = INDEX l AS grid INTO '/ia';\n\
         b = INDEX r AS grid INTO '/ib';\n\
         PROFILE j = JOIN a, b PREDICATE Overlaps;",
    )
    .unwrap();
    let text = out.join("\n");
    assert!(text.contains("join.pairs.considered"), "{text}");
    assert!(text.contains("join.pairs.processed"), "{text}");
}
