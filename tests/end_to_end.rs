//! Cross-crate integration tests: full pipelines through the façade
//! crate, exercising workload generation → DFS loading → index building
//! → every operation, validated against single-machine baselines, plus
//! failure injection and the language layer.

use spatialhadoop::core::ops::{
    aggregate, closest_pair, convex_hull, delaunay, farthest_pair, join, knn, range, single,
    skyline, union, voronoi,
};
use spatialhadoop::core::storage::{build_index, build_index_with, upload};
use spatialhadoop::core::OpError;
use spatialhadoop::dfs::{ClusterConfig, Dfs};
use spatialhadoop::geom::algorithms::union::total_length;
use spatialhadoop::geom::point::sort_dedup;
use spatialhadoop::geom::{Point, Polygon, Record, Rect};
use spatialhadoop::index::{GlobalPartitioning, PartitionKind};
use spatialhadoop::pigeon;
use spatialhadoop::workload::{osm_like_points, osm_like_polygons, points, rects, Distribution};

fn test_cluster() -> Dfs {
    Dfs::new(ClusterConfig {
        num_nodes: 6,
        block_size: 16 * 1024,
        replication: 2,
        ..ClusterConfig::default()
    })
}

fn uni() -> Rect {
    Rect::new(0.0, 0.0, 10_000.0, 10_000.0)
}

fn canon_points(mut v: Vec<Point>) -> Vec<(i64, i64)> {
    v.sort_by(Point::cmp_xy);
    v.iter()
        .map(|p| ((p.x * 1e6) as i64, (p.y * 1e6) as i64))
        .collect()
}

#[test]
fn full_point_pipeline_all_operations() {
    let dfs = test_cluster();
    let pts = points(6_000, Distribution::Uniform, &uni(), 1001);
    upload(&dfs, "/pipe/points", &pts).unwrap();
    let file = build_index::<Point>(&dfs, "/pipe/points", "/pipe/idx", PartitionKind::StrPlus)
        .unwrap()
        .value;
    assert!(file.partitions.len() > 4);

    // Range.
    let query = Rect::new(2_000.0, 2_000.0, 3_500.0, 3_500.0);
    let got = range::range_spatial::<Point>(&dfs, &file, &query, "/pipe/range").unwrap();
    let expected = single::range_query(&pts, &query).value;
    assert_eq!(canon_points(got.value), canon_points(expected));

    // kNN.
    let q = Point::new(5_100.0, 4_900.0);
    let got = knn::knn_spatial(&dfs, &file, &q, 25, "/pipe/knn").unwrap();
    let expected = single::knn(&pts, &q, 25).value;
    assert_eq!(canon_points(got.value), canon_points(expected));

    // Skyline.
    let got = skyline::skyline_output_sensitive(&dfs, &file).unwrap();
    let expected = single::skyline_single(&pts).value;
    assert_eq!(canon_points(got.value), canon_points(expected));

    // Hull.
    let got = convex_hull::hull_enhanced(&dfs, &file).unwrap();
    let expected = single::convex_hull_single(&pts).value;
    assert_eq!(canon_points(got.value), canon_points(expected));

    // Closest pair.
    let got = closest_pair::closest_pair_spatial(&dfs, &file).unwrap();
    let expected = single::closest_pair_single(&pts).value.unwrap();
    assert!((got.value.unwrap().distance - expected.distance).abs() < 1e-9);

    // Farthest pair.
    let got = farthest_pair::farthest_pair_spatial(&dfs, &file).unwrap();
    let expected = single::farthest_pair_single(&pts).value.unwrap();
    assert!((got.value.unwrap().distance - expected.distance).abs() < 1e-9);
}

#[test]
fn voronoi_pipeline_is_exact() {
    let dfs = test_cluster();
    let mut pts = osm_like_points(2_000, &uni(), 5, 1002);
    sort_dedup(&mut pts);
    upload(&dfs, "/vd/points", &pts).unwrap();
    let file = build_index::<Point>(&dfs, "/vd/points", "/vd/idx", PartitionKind::Grid)
        .unwrap()
        .value;
    let got = voronoi::voronoi_spatial(&dfs, &file).unwrap();
    assert_eq!(got.value.len(), pts.len());
    let expected = single::voronoi_single(&pts).value;
    let mut got_fp: Vec<_> = got.value.iter().map(|c| c.fingerprint()).collect();
    let mut exp_fp: Vec<_> = expected
        .cells
        .iter()
        .map(|c| {
            voronoi::VCell {
                site: c.site,
                vertices: c.vertices.clone(),
                bounded: c.bounded,
            }
            .fingerprint()
        })
        .collect();
    got_fp.sort();
    exp_fp.sort();
    assert_eq!(got_fp, exp_fp);
}

#[test]
fn union_pipeline_matches_baseline() {
    let dfs = test_cluster();
    let polys = osm_like_polygons(250, &uni(), 120.0, 1003);
    upload(&dfs, "/u/polys", &polys).unwrap();
    let reference = total_length(&single::union_single(&polys).value);

    let h = union::union_hadoop(&dfs, "/u/polys").unwrap();
    assert!((total_length(&h.value) - reference).abs() / reference < 1e-3);

    let file = build_index::<Polygon>(&dfs, "/u/polys", "/u/idx", PartitionKind::StrPlus)
        .unwrap()
        .value;
    let e = union::union_enhanced(&dfs, &file).unwrap();
    assert!((total_length(&e.value) - reference).abs() / reference < 1e-3);
}

#[test]
fn co_partitioned_join_pipeline() {
    let dfs = test_cluster();
    let left = rects(1_500, &uni(), 300.0, 1004);
    let right = rects(1_500, &uni(), 300.0, 1005);
    upload(&dfs, "/j/l", &left).unwrap();
    upload(&dfs, "/j/r", &right).unwrap();
    let gp = std::sync::Arc::new(GlobalPartitioning::build(
        PartitionKind::Grid,
        &[],
        uni(),
        16,
    ));
    let fa = build_index_with::<Rect>(&dfs, "/j/l", "/j/ia", gp.clone())
        .unwrap()
        .value;
    let fb = build_index_with::<Rect>(&dfs, "/j/r", "/j/ib", gp)
        .unwrap()
        .value;
    let dj = join::distributed_join(&dfs, &fa, &fb, "/j/dj").unwrap();
    let sj = join::sjmr(&dfs, "/j/l", "/j/r", &uni(), 16, "/j/sj").unwrap();
    let expected = single::spatial_join(&left, &right).value.len();
    assert_eq!(dj.value.len(), expected);
    assert_eq!(sj.value.len(), expected);
    // Co-partitioned: near-linear pair count.
    assert!(
        dj.counter("join.pairs.processed") <= 2 * fa.partitions.len() as u64,
        "{} pairs for {} partitions",
        dj.counter("join.pairs.processed"),
        fa.partitions.len()
    );
}

/// The operations whose map tasks look partitions up in the global index
/// the driver holds, on grid indexes of clustered data: an empty grid
/// cell gets no partition file, so partition ids skip numbers and a
/// partition's id is not its position in `partitions`.
#[test]
fn index_lookups_by_partition_id_survive_skipped_ids() {
    let dfs = test_cluster();
    let skips_ids = |file: &spatialhadoop::core::SpatialFile| {
        file.partitions
            .iter()
            .enumerate()
            .any(|(pos, m)| m.id != pos)
    };
    // Three dense blobs in a 10 000-wide square, nothing in between.
    let blobs = |n: usize, seed: u64| -> Vec<Point> {
        [(0.0, 0.0), (8_500.0, 0.0), (4_000.0, 8_500.0)]
            .iter()
            .enumerate()
            .flat_map(|(k, &(x, y))| {
                let blob = Rect::new(x, y, x + 1_500.0, y + 1_500.0);
                points(n / 3, Distribution::Uniform, &blob, seed + k as u64)
            })
            .collect()
    };
    let pts = blobs(4_000, 1010);
    upload(&dfs, "/ids/points", &pts).unwrap();
    let file = build_index::<Point>(&dfs, "/ids/points", "/ids/pidx", PartitionKind::Grid)
        .unwrap()
        .value;
    assert!(skips_ids(&file), "empty cells leave gaps in the ids");
    // The same partitions numbered 0, 1, 2, ...: a task that finds a
    // partition by its position where it should use its id answers or
    // prunes differently on one of the two.
    let mut dense = file.clone();
    for (pos, m) in dense.partitions.iter_mut().enumerate() {
        m.id = pos;
    }
    let mut sites = pts.clone();
    sort_dedup(&mut sites);
    let mut pruned = Vec::new();
    for file in [&file, &dense] {
        let got = skyline::skyline_output_sensitive(&dfs, file).unwrap();
        let expected = single::skyline_single(&pts).value;
        pruned.push(got.counter("skyline.pruned.points"));
        assert_eq!(canon_points(got.value), canon_points(expected));

        let got = convex_hull::hull_enhanced(&dfs, file).unwrap();
        let expected = single::convex_hull_single(&pts).value;
        pruned.push(got.counter("hull.pruned.points"));
        assert_eq!(canon_points(got.value), canon_points(expected));

        let got = farthest_pair::farthest_pair_pairs(&dfs, file).unwrap();
        let expected = single::farthest_pair_single(&pts).value.unwrap();
        assert_eq!(got.value.unwrap().distance, expected.distance);

        let got = voronoi::voronoi_spatial(&dfs, file).unwrap();
        let mut got: Vec<_> = got.value.iter().map(|c| c.site).collect();
        got.sort_by(Point::cmp_xy);
        assert_eq!(got, sites);
    }
    assert_eq!(pruned[..2], pruned[2..], "skyline and hull prune alike");

    // Rects around blob points; two sizes, so the two indexes have
    // different partition counts.
    let blob_rects = |n, seed| -> Vec<Rect> {
        blobs(n, seed)
            .iter()
            .map(|p| Rect::new(p.x, p.y, p.x + 60.0, p.y + 40.0))
            .collect()
    };
    let (left, right) = (blob_rects(3_000, 1011), blob_rects(1_200, 1012));
    upload(&dfs, "/ids/l", &left).unwrap();
    upload(&dfs, "/ids/r", &right).unwrap();
    let fa = build_index::<Rect>(&dfs, "/ids/l", "/ids/ia", PartitionKind::Grid)
        .unwrap()
        .value;
    let fb = build_index::<Rect>(&dfs, "/ids/r", "/ids/ib", PartitionKind::Grid)
        .unwrap()
        .value;
    assert!(skips_ids(&fa) && skips_ids(&fb));
    assert_ne!(fa.partitions.len(), fb.partitions.len());
    let canon_pairs = |pairs: Vec<(Rect, Rect)>| {
        let mut lines: Vec<String> = pairs
            .iter()
            .map(|(a, b)| format!("{} {}", a.to_line(), b.to_line()))
            .collect();
        lines.sort();
        lines
    };
    for (a, b, l, r) in [(&fa, &fb, &left, &right), (&fa, &fa, &left, &left)] {
        let got = join::distributed_join(&dfs, a, b, "/ids/dj").unwrap();
        let expected = single::spatial_join(l, r)
            .value
            .into_iter()
            .map(|(i, j)| (l[i], r[j]))
            .collect();
        assert_eq!(canon_pairs(got.value), canon_pairs(expected));
    }
}

#[test]
fn pipeline_survives_node_failure() {
    let dfs = test_cluster();
    let pts = points(4_000, Distribution::Gaussian, &uni(), 1006);
    upload(&dfs, "/f/points", &pts).unwrap();
    let file = build_index::<Point>(&dfs, "/f/points", "/f/idx", PartitionKind::Grid)
        .unwrap()
        .value;
    // Kill one node after indexing: every partition still has a replica.
    dfs.kill_node(2);
    let query = Rect::new(4_000.0, 4_000.0, 6_000.0, 6_000.0);
    let got = range::range_spatial::<Point>(&dfs, &file, &query, "/f/out").unwrap();
    // Reads fell back to surviving replicas: traffic still flowed.
    assert!(got.counter("map.input.bytes.remote") > 0 || got.counter("map.input.bytes.local") > 0);
    let expected = single::range_query(&pts, &query).value;
    assert_eq!(canon_points(got.value), canon_points(expected.clone()));

    // Namenode re-replication restores the factor; subsequent jobs can
    // schedule locally again and answers stay correct.
    let created = dfs.rereplicate();
    assert!(created > 0, "lost replicas should be recreated");
    assert_eq!(dfs.unrecoverable_blocks(), 0);
    let again = range::range_spatial::<Point>(&dfs, &file, &query, "/f/out2").unwrap();
    assert_eq!(canon_points(again.value), canon_points(expected));
}

#[test]
fn pigeon_script_end_to_end_matches_api() {
    let dfs = test_cluster();
    let pts = points(3_000, Distribution::Uniform, &uni(), 1007);
    upload(&dfs, "/p/points", &pts).unwrap();
    let out = pigeon::run_script(
        &dfs,
        "pts = LOAD '/p/points' AS POINT;\n\
         idx = INDEX pts AS quadtree INTO '/p/idx';\n\
         sel = FILTER idx BY Overlaps(RECTANGLE(1000, 1000, 4000, 4000));\n\
         sky = SKYLINE idx;\n\
         DUMP sel;\n\
         DUMP sky;",
    )
    .unwrap();
    let query = Rect::new(1_000.0, 1_000.0, 4_000.0, 4_000.0);
    let expected_range = single::range_query(&pts, &query).value.len();
    let expected_sky = single::skyline_single(&pts).value.len();
    assert_eq!(out.len(), expected_range + expected_sky);
    // Each dumped line parses back as a point.
    for line in &out {
        Point::parse_line(line).unwrap();
    }
}

#[test]
fn reopened_index_answers_queries() {
    // An index built in one "session" is reopened from its master file.
    let dfs = test_cluster();
    let pts = points(2_500, Distribution::Uniform, &uni(), 1008);
    upload(&dfs, "/r/points", &pts).unwrap();
    build_index::<Point>(&dfs, "/r/points", "/r/idx", PartitionKind::Hilbert).unwrap();
    let reopened = spatialhadoop::core::SpatialFile::open(&dfs, "/r/idx").unwrap();
    assert_eq!(reopened.kind, PartitionKind::Hilbert);
    let query = Rect::new(0.0, 0.0, 2_000.0, 2_000.0);
    let got = range::range_spatial::<Point>(&dfs, &reopened, &query, "/r/out").unwrap();
    let expected = single::range_query(&pts, &query).value;
    assert_eq!(canon_points(got.value), canon_points(expected));
}

#[test]
fn polygon_join_pipeline() {
    let dfs = test_cluster();
    let lakes = osm_like_polygons(120, &uni(), 120.0, 1103);
    let parks = osm_like_polygons(120, &uni(), 120.0, 1104);
    upload(&dfs, "/pj/l", &lakes).unwrap();
    upload(&dfs, "/pj/p", &parks).unwrap();
    let fl = build_index::<Polygon>(&dfs, "/pj/l", "/pj/il", PartitionKind::Grid)
        .unwrap()
        .value;
    let fp = build_index::<Polygon>(&dfs, "/pj/p", "/pj/ip", PartitionKind::Grid)
        .unwrap()
        .value;
    let pj = join::polygon_join(&dfs, &fl, &fp).unwrap();
    let mut expected_pairs = 0usize;
    for l in &lakes {
        for p in &parks {
            if l.intersects(p) {
                expected_pairs += 1;
            }
        }
    }
    assert_eq!(pj.value.len(), expected_pairs);
}

#[test]
fn delaunay_and_stats_pipelines() {
    let dfs = test_cluster();
    let mut pts = osm_like_points(1_500, &uni(), 4, 1105);
    sort_dedup(&mut pts);
    upload(&dfs, "/m/points", &pts).unwrap();
    let file = build_index::<Point>(&dfs, "/m/points", "/m/idx", PartitionKind::Grid)
        .unwrap()
        .value;

    // Delaunay triangulation matches the kernel.
    let dt = delaunay::delaunay_spatial(&dfs, &file).unwrap();
    let kernel = spatialhadoop::geom::algorithms::delaunay::Triangulation::build(&pts);
    assert_eq!(dt.value.len(), kernel.triangles().len());

    // Catalogue statistics agree with the full scan.
    let quick = aggregate::stats_spatial(&file);
    let scanned = aggregate::stats_hadoop::<Point>(&dfs, "/m/points")
        .unwrap()
        .value;
    assert_eq!(quick.records, scanned.records);
}

#[test]
fn self_contained_pigeon_script_with_generate_describe_delaunay() {
    let dfs = test_cluster();
    let out = pigeon::run_script(
        &dfs,
        "pts = GENERATE 2000 POINT osm INTO '/sc/points';
         idx = INDEX pts AS str+ INTO '/sc/idx';
         DESCRIBE idx;
         t = DELAUNAY idx;
         DUMP t;",
    )
    .unwrap();
    assert!(out[0].contains("2000 records"), "{}", out[0]);
    let triangles = &out[1..];
    assert!(!triangles.is_empty());
    assert!(
        triangles.iter().all(|t| t.contains('|')),
        "{}",
        triangles[0]
    );
}

#[test]
fn shipped_pigeon_scripts_parse() {
    for script in ["scripts/demo.pigeon", "scripts/analysis.pigeon"] {
        let source = std::fs::read_to_string(script).expect("script file present");
        let parsed = spatialhadoop::pigeon::parser::parse(&source)
            .unwrap_or_else(|e| panic!("{script}: {e}"));
        assert!(parsed.stmts.len() >= 5, "{script} looks truncated");
    }
}

#[test]
fn unsupported_combinations_error_cleanly() {
    let dfs = test_cluster();
    let pts = points(800, Distribution::Uniform, &uni(), 1009);
    upload(&dfs, "/e/points", &pts).unwrap();
    let overlapping = build_index::<Point>(&dfs, "/e/points", "/e/idx", PartitionKind::ZCurve)
        .unwrap()
        .value;
    assert!(matches!(
        closest_pair::closest_pair_spatial(&dfs, &overlapping),
        Err(OpError::Unsupported(_))
    ));
    assert!(matches!(
        skyline::skyline_output_sensitive(&dfs, &overlapping),
        Err(OpError::Unsupported(_))
    ));
    assert!(matches!(
        voronoi::voronoi_spatial(&dfs, &overlapping),
        Err(OpError::Unsupported(_))
    ));
}
