//! A warm query reads nothing: index-assisted map tasks (range, kNN,
//! distributed join) answer from the block cache before the DFS reads
//! and checksums their split, a cold partition is counted as exactly one
//! cache miss, and invalidation — not a re-read — is what keeps a cached
//! answer equal to the stored data.

use spatialhadoop::core::ops::{join, knn, range, single};
use spatialhadoop::core::storage::{build_index_fmt, delete_dir, upload, BlockFormat};
use spatialhadoop::core::{OpResult, SpatialFile};
use spatialhadoop::dfs::{ClusterConfig, CorruptKind, Dfs};
use spatialhadoop::geom::{Point, Rect};
use spatialhadoop::index::PartitionKind;
use spatialhadoop::workload::{points, rects, Distribution};

fn universe() -> Rect {
    Rect::new(0.0, 0.0, 1000.0, 1000.0)
}

fn query() -> Rect {
    Rect::new(180.0, 240.0, 520.0, 610.0)
}

/// Near a partition corner, so kNN usually needs a second round.
fn knn_point() -> Point {
    Point::new(500.0, 500.0)
}

const K: usize = 40;

/// Uploads `pts` to `/heap/points` and indexes them into `dir`.
fn index_points(dfs: &Dfs, pts: &[Point], dir: &str, format: BlockFormat) -> SpatialFile {
    dfs.delete("/heap/points");
    upload(dfs, "/heap/points", pts).unwrap();
    build_index_fmt::<Point>(dfs, "/heap/points", dir, PartitionKind::Grid, format)
        .unwrap()
        .value
}

fn index_rects(dfs: &Dfs, seed: u64, dir: &str, format: BlockFormat) -> SpatialFile {
    let heap = format!("/heap/rects-{seed}");
    upload(dfs, &heap, &rects(900, &universe(), 40.0, seed)).unwrap();
    build_index_fmt::<Rect>(dfs, &heap, dir, PartitionKind::Grid, format)
        .unwrap()
        .value
}

/// What one run of an operation cost the DFS and what it answered.
struct Run {
    /// Blocks the DFS served while the operation ran.
    blocks_read: u64,
    /// `TaskCost` input bytes summed over every map task.
    charged: u64,
    /// Every job's rows, in job order.
    raw: String,
}

fn measure<T>(dfs: &Dfs, out: &str, op: impl FnOnce(&str) -> OpResult<T>) -> Run {
    let before = dfs.metrics().snapshot();
    let r = op(out);
    let blocks_read = dfs.metrics().snapshot().since(&before).blocks_read;
    Run {
        blocks_read,
        charged: r.counter("map.input.bytes.local") + r.counter("map.input.bytes.remote"),
        raw: r.jobs.iter().map(|j| j.rows.text()).collect(),
    }
}

/// Points by the bits of their coordinates, sorted: an order-free answer.
type Answer = Vec<(u64, u64)>;

fn sorted_points(mut v: Vec<Point>) -> Answer {
    v.sort_by(Point::cmp_xy);
    v.iter().map(|p| (p.x.to_bits(), p.y.to_bits())).collect()
}

fn range_answer(dfs: &Dfs, file: &SpatialFile, out: &str) -> Answer {
    sorted_points(
        range::range_spatial::<Point>(dfs, file, &query(), out)
            .unwrap()
            .value,
    )
}

fn knn_answer(dfs: &Dfs, file: &SpatialFile, out: &str) -> Answer {
    sorted_points(
        knn::knn_spatial(dfs, file, &knn_point(), K, out)
            .unwrap()
            .value,
    )
}

/// The single-machine answers over `pts`.
fn oracle(pts: &[Point]) -> (Answer, Answer) {
    (
        sorted_points(single::range_query(pts, &query()).value),
        sorted_points(single::knn(pts, &knn_point(), K).value),
    )
}

fn dataset(seed: u64) -> Vec<Point> {
    points(6000, Distribution::Uniform, &universe(), seed)
}

#[test]
fn a_cold_partition_counts_one_miss_and_a_warm_one_one_hit() {
    type Op = fn(&Dfs, &SpatialFile, &str) -> usize;
    let ops: [(&str, Op); 2] = [
        ("range", |d, f, o| {
            range::range_spatial::<Point>(d, f, &query(), o)
                .unwrap()
                .map_tasks()
        }),
        ("knn", |d, f, o| {
            knn::knn_spatial(d, f, &knn_point(), K, o)
                .unwrap()
                .map_tasks()
        }),
    ];
    for format in [BlockFormat::Text, BlockFormat::Binary] {
        let dfs = Dfs::new(ClusterConfig::small_for_tests());
        let file = index_points(&dfs, &dataset(11), "/idx", format);
        let stats = || {
            let s = dfs.cache().stats();
            (s.hits, s.misses)
        };
        for (name, op) in ops {
            dfs.cache().clear();
            let (h0, m0) = stats();
            let opened = op(&dfs, &file, &format!("/out/{name}-{format:?}-cold"));
            assert!(opened > 0, "{name} {format:?}: opened nothing");
            let (h1, m1) = stats();
            assert_eq!(
                (h1 - h0, m1 - m0),
                (0, opened as u64),
                "{name} {format:?}: cold run must miss once per opened partition"
            );
            let warm = op(&dfs, &file, &format!("/out/{name}-{format:?}-warm"));
            assert_eq!(warm, opened, "{name} {format:?}: same partitions");
            let (h2, m2) = stats();
            assert_eq!(
                (h2 - h1, m2 - m1),
                (opened as u64, 0),
                "{name} {format:?}: warm run must hit once per opened partition"
            );
        }
    }
}

#[test]
fn a_warm_query_reads_only_its_own_output() {
    for format in [BlockFormat::Text, BlockFormat::Binary] {
        let dfs = Dfs::new(ClusterConfig::small_for_tests());
        let pts = index_points(&dfs, &dataset(12), "/idx/p", format);
        let a = index_rects(&dfs, 1, "/idx/a", format);
        let b = index_rects(&dfs, 2, "/idx/b", format);
        type Op<'a> = Box<dyn Fn(&str) -> Run + 'a>;
        let ops: [(&str, Op); 3] = [
            (
                "range",
                Box::new(|o: &str| {
                    measure(&dfs, o, |o| {
                        range::range_spatial::<Point>(&dfs, &pts, &query(), o).unwrap()
                    })
                }),
            ),
            (
                "knn",
                Box::new(|o: &str| {
                    measure(&dfs, o, |o| {
                        knn::knn_spatial(&dfs, &pts, &knn_point(), K, o).unwrap()
                    })
                }),
            ),
            (
                "join",
                Box::new(|o: &str| {
                    measure(&dfs, o, |o| {
                        join::distributed_join(&dfs, &a, &b, o).unwrap()
                    })
                }),
            ),
        ];
        for (name, op) in &ops {
            dfs.cache().clear();
            let cold = op(&format!("/out/{name}-{format:?}-cold"));
            let warm = op(&format!("/out/{name}-{format:?}-warm"));
            let what = format!("{name} {format:?}");
            assert!(!cold.raw.is_empty(), "{what}: empty answer");
            assert!(cold.blocks_read > 0, "{what}: a cold run reads its splits");
            assert_eq!(warm.blocks_read, 0, "{what}: a warm run reads nothing");
            assert_eq!(warm.raw, cold.raw, "{what}: answers differ");
            assert!(cold.charged > 0, "{what}: nothing charged");
            assert_eq!(warm.charged, cold.charged, "{what}: cost model moved");
        }
    }
}

#[test]
fn rebuilding_an_index_into_its_own_directory_serves_the_new_data() {
    let dfs = Dfs::new(ClusterConfig::small_for_tests());
    let old = dataset(13);
    let file = index_points(&dfs, &old, "/idx", BlockFormat::Text);
    range_answer(&dfs, &file, "/out/old-0");
    knn_answer(&dfs, &file, "/out/old-1");
    assert!(dfs.cache().stats().resident_entries > 0, "index is warm");

    // Same directory, same partition paths, different records.
    let new = dataset(14);
    delete_dir(&dfs, "/idx");
    let file = index_points(&dfs, &new, "/idx", BlockFormat::Binary);
    let (range_oracle, knn_oracle) = oracle(&new);
    assert_ne!(range_oracle, oracle(&old).0, "the datasets must differ");
    assert_eq!(range_answer(&dfs, &file, "/out/new-0"), range_oracle);
    assert_eq!(knn_answer(&dfs, &file, "/out/new-1"), knn_oracle);
}

#[test]
fn a_node_kill_drops_the_warm_index() {
    let dfs = Dfs::new(ClusterConfig::small_for_tests());
    let pts = dataset(15);
    let file = index_points(&dfs, &pts, "/idx", BlockFormat::Text);
    let (range_oracle, knn_oracle) = oracle(&pts);
    assert_eq!(range_answer(&dfs, &file, "/out/warm-0"), range_oracle);
    assert_eq!(knn_answer(&dfs, &file, "/out/warm-1"), knn_oracle);

    dfs.kill_node(0);
    assert_eq!(dfs.cache().stats().resident_entries, 0);
    let misses = dfs.cache().stats().misses;
    assert_eq!(range_answer(&dfs, &file, "/out/killed-0"), range_oracle);
    assert_eq!(knn_answer(&dfs, &file, "/out/killed-1"), knn_oracle);
    assert!(
        dfs.cache().stats().misses > misses,
        "reruns read the survivors"
    );
}

#[test]
fn rot_under_a_warm_partition_is_found_by_scrub_which_drops_the_entry() {
    let dfs = Dfs::new(ClusterConfig::small_for_tests());
    let pts = dataset(16);
    let file = index_points(&dfs, &pts, "/idx", BlockFormat::Binary);
    let (range_oracle, _) = oracle(&pts);
    assert_eq!(range_answer(&dfs, &file, "/out/cold"), range_oracle);
    let victim = &file
        .partitions
        .iter()
        .find(|m| m.mbr_rect().intersects(&query()))
        .expect("the query reads some partition")
        .path;
    assert!(dfs.cache().peek(victim).is_some(), "the victim is cached");
    let run = |out: &str| {
        measure(&dfs, out, |o| {
            range::range_spatial::<Point>(&dfs, &file, &query(), o).unwrap()
        })
    };
    let warm = run("/out/warm");

    // Silent rot: the cache, which holds a decode of the bytes verified
    // when they were read, keeps answering without a split read.
    assert!(dfs.corrupt_replica(victim, 0, CorruptKind::Flip) > 0);
    let before = dfs.metrics().snapshot();
    let rotten = run("/out/rotten");
    assert_eq!(
        dfs.metrics().snapshot().since(&before).corrupt_replicas,
        0,
        "no split read, so nothing checksummed the rot"
    );
    assert_eq!(rotten.blocks_read, 0);
    assert_eq!(rotten.raw, warm.raw);

    // SCRUB finds and heals it, and drops the cached partition.
    let report = dfs.scrub("/idx/");
    assert!(report.corrupt > 0 && report.repaired > 0, "{report}");
    assert!(dfs.cache().peek(victim).is_none(), "scrub drops the entry");
    let misses = dfs.cache().stats().misses;
    assert_eq!(range_answer(&dfs, &file, "/out/healed"), range_oracle);
    assert!(
        dfs.cache().stats().misses > misses,
        "the healed partition is reread"
    );
}
