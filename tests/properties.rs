//! Property-based tests (proptest) over the whole stack: for arbitrary
//! random inputs, distributed results must equal single-machine results,
//! and structural invariants of the substrates must hold.

use proptest::prelude::*;
use spatialhadoop::core::ops::{range, single, skyline};
use spatialhadoop::core::storage::{build_index, build_index_fmt, upload, BlockFormat};
use spatialhadoop::dfs::{ClusterConfig, CorruptKind, Dfs, DfsError};
use spatialhadoop::geom::algorithms::closest_pair::{closest_pair, closest_pair_naive};
use spatialhadoop::geom::algorithms::convex_hull::{convex_hull, hull_contains};
use spatialhadoop::geom::algorithms::delaunay::{in_circle, Triangulation};
use spatialhadoop::geom::algorithms::farthest_pair::{farthest_pair, farthest_pair_naive};
use spatialhadoop::geom::algorithms::skyline::{skyline as skyline_kernel, skyline_naive};
use spatialhadoop::geom::point::sort_dedup;
use spatialhadoop::geom::{Point, Record, Rect};
use spatialhadoop::index::curve::{hilbert_point, hilbert_value};
use spatialhadoop::index::{owns_point, GlobalPartitioning, LocalRTree, PartitionKind};

fn arb_point() -> impl Strategy<Value = Point> {
    (0.0..1000.0f64, 0.0..1000.0f64).prop_map(|(x, y)| Point::new(x, y))
}

fn arb_points(max: usize) -> impl Strategy<Value = Vec<Point>> {
    prop::collection::vec(arb_point(), 2..max)
}

fn arb_rect() -> impl Strategy<Value = Rect> {
    (0.0..900.0f64, 0.0..900.0f64, 1.0..100.0f64, 1.0..100.0f64)
        .prop_map(|(x, y, w, h)| Rect::new(x, y, x + w, y + h))
}

/// Every indexed operation answers the same over a text and a binary
/// index of the same points. One row per operation: a new operation is a
/// new row, a new block format a new column — not a new test.
#[test]
fn every_indexed_op_answers_the_same_over_text_and_binary() {
    use spatialhadoop::core::catalog::SpatialFile;
    use spatialhadoop::core::ops::{
        closest_pair as cp, convex_hull as hull, delaunay, farthest_pair as fp, knn_join, plot,
        voronoi,
    };
    use spatialhadoop::workload::{points, Distribution};

    /// An operation's answer as order-free lines.
    fn lines<T: std::fmt::Debug>(answer: impl IntoIterator<Item = T>) -> Vec<String> {
        let mut l: Vec<String> = answer.into_iter().map(|x| format!("{x:?}")).collect();
        l.sort();
        l
    }
    type Row = (&'static str, fn(&Dfs, &SpatialFile, &str) -> Vec<String>);
    let rows: [Row; 11] = [
        ("skyline_spatial", |d, f, _| {
            lines(skyline::skyline_spatial(d, f).unwrap().value)
        }),
        ("skyline_output_sensitive", |d, f, _| {
            lines(skyline::skyline_output_sensitive(d, f).unwrap().value)
        }),
        ("hull_spatial", |d, f, _| {
            lines(hull::hull_spatial(d, f).unwrap().value)
        }),
        ("hull_enhanced", |d, f, _| {
            lines(hull::hull_enhanced(d, f).unwrap().value)
        }),
        ("closest_pair_spatial", |d, f, _| {
            lines(cp::closest_pair_spatial(d, f).unwrap().value)
        }),
        ("farthest_pair_spatial", |d, f, _| {
            lines(fp::farthest_pair_spatial(d, f).unwrap().value)
        }),
        ("voronoi_spatial", |d, f, _| {
            lines(voronoi::voronoi_spatial(d, f).unwrap().value)
        }),
        ("delaunay_spatial", |d, f, _| {
            lines(delaunay::delaunay_spatial(d, f).unwrap().value)
        }),
        ("knn_join_spatial", |d, f, o| {
            lines(knn_join::knn_join_spatial(d, f, f, 3, o).unwrap().value)
        }),
        ("plot_spatial", |d, f, o| {
            lines([plot::plot_spatial::<Point>(d, f, 64, 48, o).unwrap().value])
        }),
        ("plot_pyramid", |d, f, o| {
            lines([plot::plot_pyramid::<Point>(d, f, 3, 16, o).unwrap().value])
        }),
    ];

    let pts = points(
        1200,
        Distribution::Uniform,
        &Rect::new(0.0, 0.0, 1000.0, 1000.0),
        77,
    );
    for kind in [PartitionKind::Grid, PartitionKind::StrPlus] {
        let dfs = Dfs::new(ClusterConfig::small_for_tests());
        upload(&dfs, "/eq/points", &pts).unwrap();
        let index = |dir, format| {
            build_index_fmt::<Point>(&dfs, "/eq/points", dir, kind, format)
                .unwrap()
                .value
        };
        let text = index("/eq/text", BlockFormat::Text);
        let binary = index("/eq/binary", BlockFormat::Binary);
        assert!(text.partitions.len() > 1, "{kind:?}: several partitions");
        let stored = dfs.read_bytes(&binary.partitions[0].path).unwrap();
        assert!(stored.starts_with(b"SHCB"), "{kind:?}: binary blocks");
        for (name, op) in rows {
            let over_text = op(&dfs, &text, &format!("/eq/out/{name}/text"));
            let over_binary = op(&dfs, &binary, &format!("/eq/out/{name}/binary"));
            assert!(!over_text.is_empty(), "{name} over {kind:?}: an answer");
            assert_eq!(over_text, over_binary, "{name} over {kind:?}");
        }
    }
}

/// `FILTER` binds the rows its job's mappers wrote, unparsed. They must
/// be, in order, what rendering the typed answer gives — for every
/// record type, partitioner and block format, indexed or heap.
#[test]
fn filter_binds_the_typed_answer_rendered_line_for_line() {
    use spatialhadoop::pigeon::{parser, Pigeon, RecordType, SessionCtx, Value};
    use spatialhadoop::workload::{osm_like_polygons, points, rects, Distribution};

    fn check<R: Record>(records: &[R], rtype: RecordType, formats: &[BlockFormat]) {
        let query = Rect::new(150.0, 200.0, 700.0, 650.0);
        let script =
            parser::parse("q = FILTER src BY Overlaps(RECTANGLE(150, 200, 700, 650));").unwrap();
        let bound = |dfs: &Dfs, src: Value| -> Vec<String> {
            let mut sess = SessionCtx::new();
            sess.vars.insert("src".to_string(), src);
            Pigeon::new(dfs).execute_with(&mut sess, &script).unwrap();
            match sess.get("q") {
                Some(Value::Result(rows)) => rows.lines().map(str::to_string).collect(),
                other => panic!("FILTER bound {other:?}"),
            }
        };
        let rendered = |typed: Vec<R>| -> Vec<String> {
            assert!(!typed.is_empty(), "{rtype:?}: an answer");
            typed.iter().map(Record::to_line).collect()
        };
        let dfs = Dfs::new(ClusterConfig::small_for_tests());
        upload(&dfs, "/f/heap", records).unwrap();
        let typed = range::range_hadoop::<R>(&dfs, "/f/heap", &query, "/f/out/heap").unwrap();
        let heap = Value::Heap {
            path: "/f/heap".to_string(),
            rtype,
        };
        assert_eq!(bound(&dfs, heap), rendered(typed.value), "{rtype:?} heap");
        for kind in [PartitionKind::Grid, PartitionKind::StrPlus] {
            for &format in formats {
                let dir = format!("/f/idx/{}/{format:?}", kind.name());
                let file = build_index_fmt::<R>(&dfs, "/f/heap", &dir, kind, format)
                    .unwrap()
                    .value;
                let out = format!("/f/out/{}/{format:?}", kind.name());
                let typed = range::range_spatial::<R>(&dfs, &file, &query, &out).unwrap();
                let indexed = Value::Indexed { file, rtype };
                assert_eq!(
                    bound(&dfs, indexed),
                    rendered(typed.value),
                    "{rtype:?} {kind:?} {format:?}"
                );
            }
        }
    }

    let uni = Rect::new(0.0, 0.0, 1000.0, 1000.0);
    let both = [BlockFormat::Text, BlockFormat::Binary];
    check(
        &points(2500, Distribution::Gaussian, &uni, 5),
        RecordType::Point,
        &both,
    );
    check(&rects(1500, &uni, 60.0, 6), RecordType::Rectangle, &both);
    // The binary block format stores points and rectangles only.
    check(
        &osm_like_polygons(400, &uni, 20.0, 7),
        RecordType::Polygon,
        &[BlockFormat::Text],
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn hull_contains_every_input_point(pts in arb_points(120)) {
        let hull = convex_hull(&pts);
        for p in &pts {
            prop_assert!(hull_contains(&hull, p), "{p} outside its own hull");
        }
    }

    #[test]
    fn skyline_fast_matches_naive(pts in arb_points(120)) {
        let mut fast = skyline_kernel(&pts);
        fast.sort_by(Point::cmp_xy);
        prop_assert_eq!(fast, skyline_naive(&pts));
    }

    #[test]
    fn closest_pair_matches_naive(pts in arb_points(100)) {
        let fast = closest_pair(&pts).unwrap();
        let slow = closest_pair_naive(&pts).unwrap();
        prop_assert!((fast.distance - slow.distance).abs() < 1e-9);
    }

    #[test]
    fn farthest_pair_matches_naive(pts in arb_points(100)) {
        let fast = farthest_pair(&pts);
        let slow = farthest_pair_naive(&pts);
        match (fast, slow) {
            (Some(f), Some(s)) => prop_assert!((f.distance - s.distance).abs() < 1e-9),
            (f, s) => prop_assert_eq!(f.is_some(), s.is_some()),
        }
    }

    #[test]
    fn delaunay_empty_circumcircle(pts in arb_points(60)) {
        let mut sites = pts;
        sort_dedup(&mut sites);
        prop_assume!(sites.len() >= 3);
        let tri = Triangulation::build(&sites);
        for t in tri.triangles() {
            let [a, b, c] = t.map(|i| sites[i]);
            for (k, p) in sites.iter().enumerate() {
                if !t.contains(&k) {
                    prop_assert!(!in_circle(&a, &b, &c, p));
                }
            }
        }
    }

    #[test]
    fn hilbert_curve_is_bijective(x in 0u32..65536, y in 0u32..65536) {
        prop_assert_eq!(hilbert_point(hilbert_value(x, y)), (x, y));
    }

    #[test]
    fn rtree_query_equals_linear_scan(rects in prop::collection::vec(arb_rect(), 1..150),
                                      q in arb_rect()) {
        let tree = LocalRTree::build(rects.clone());
        let expected: Vec<usize> = rects
            .iter()
            .enumerate()
            .filter(|(_, r)| r.intersects(&q))
            .map(|(i, _)| i)
            .collect();
        prop_assert_eq!(tree.query(&q), expected);
    }

    #[test]
    fn disjoint_partitionings_give_unique_owners(
        pts in arb_points(200),
        kind in prop::sample::select(vec![
            PartitionKind::Grid,
            PartitionKind::QuadTree,
            PartitionKind::KdTree,
            PartitionKind::StrPlus,
        ]),
        target in 2usize..20,
    ) {
        let universe = Rect::new(0.0, 0.0, 1000.0, 1000.0);
        let gp = GlobalPartitioning::build(kind, &pts, universe, target);
        for p in &pts {
            let owners: Vec<usize> = (0..gp.len())
                .filter(|&i| owns_point(&gp.cell(i), p, &universe))
                .collect();
            prop_assert_eq!(owners.len(), 1, "{} owners for {}", owners.len(), p);
        }
    }

    #[test]
    fn disjoint_rect_assignment_covers_every_overlapping_cell(
        pts in arb_points(150),
        rects in prop::collection::vec(arb_rect(), 1..40),
        kind in prop::sample::select(vec![
            PartitionKind::Grid,
            PartitionKind::QuadTree,
            PartitionKind::KdTree,
            PartitionKind::StrPlus,
        ]),
    ) {
        let universe = Rect::new(0.0, 0.0, 1000.0, 1000.0);
        let gp = GlobalPartitioning::build(kind, &pts, universe, 12);
        for r in &rects {
            let assigned: std::collections::HashSet<usize> =
                gp.assign(r).into_iter().collect();
            prop_assert!(!assigned.is_empty());
            for i in 0..gp.len() {
                let cell = gp.cell(i);
                // Positive-area overlap must be assigned (zero-area edge
                // touches may legitimately go either way).
                let pos_overlap = cell
                    .intersection(r)
                    .map(|x| x.area() > 0.0)
                    .unwrap_or(false);
                if pos_overlap {
                    prop_assert!(
                        assigned.contains(&i),
                        "{}: rect {r} overlaps cell {i} but was not assigned",
                        kind.name()
                    );
                }
                // And every assigned cell really intersects the record.
                if assigned.contains(&i) {
                    prop_assert!(cell.intersects(r));
                }
            }
        }
    }

    #[test]
    fn overlapping_assignment_is_singular(
        pts in arb_points(200),
        rects in prop::collection::vec(arb_rect(), 1..40),
        kind in prop::sample::select(vec![
            PartitionKind::Str,
            PartitionKind::ZCurve,
            PartitionKind::Hilbert,
        ]),
    ) {
        let universe = Rect::new(0.0, 0.0, 1000.0, 1000.0);
        let gp = GlobalPartitioning::build(kind, &pts, universe, 10);
        for r in &rects {
            let assigned = gp.assign(r);
            prop_assert_eq!(assigned.len(), 1, "{}", kind.name());
            prop_assert!(assigned[0] < gp.len());
        }
    }

    #[test]
    fn chunked_mbr_filter_matches_scalar_oracle(
        pts in prop::collection::vec(arb_point(), 0..300),
        rects in prop::collection::vec(arb_rect(), 0..300),
        q in arb_rect(),
    ) {
        // The chunked kernel behind `mbr_filter` must
        // agree with the short-circuiting scalar reference on every
        // block: empty blocks, odd-length tails (lengths 0..300 cover
        // every remainder mod the 8-wide lanes), and boundary-touching
        // queries whose edges pass exactly through record coordinates.
        use spatialhadoop::core::colblock;
        let pblock = colblock::decode(&colblock::encode(&pts).unwrap()).unwrap();
        prop_assert_eq!(pblock.mbr_filter(&q), pblock.mbr_filter_scalar(&q));
        let rblock = colblock::decode(&colblock::encode(&rects).unwrap()).unwrap();
        prop_assert_eq!(rblock.mbr_filter(&q), rblock.mbr_filter_scalar(&q));

        // On-edge semantics: a query rect built from two records'
        // coordinates puts those records exactly on the boundary, where
        // a >= / <= vs. > / < mismatch between kernels would show up.
        if pts.len() >= 2 {
            let (a, b) = (&pts[0], &pts[pts.len() / 2]);
            let edge = Rect::new(
                a.x.min(b.x), a.y.min(b.y), a.x.max(b.x), a.y.max(b.y),
            );
            prop_assert_eq!(pblock.mbr_filter(&edge), pblock.mbr_filter_scalar(&edge));
        }
        if let Some(r) = rects.first() {
            prop_assert_eq!(rblock.mbr_filter(r), rblock.mbr_filter_scalar(r));
        }
    }

    #[test]
    fn record_lines_roundtrip(pts in arb_points(30), rects in prop::collection::vec(arb_rect(), 1..30)) {
        for p in &pts {
            prop_assert_eq!(&Point::parse_line(&p.to_line()).unwrap(), p);
        }
        for r in &rects {
            prop_assert_eq!(&Rect::parse_line(&r.to_line()).unwrap(), r);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn disjoint_polygon_union_keeps_all_perimeter(
        centers in prop::collection::vec((0.0..900.0f64, 0.0..900.0f64), 1..12)
    ) {
        // Far-apart polygons (no overlap): boundary = every edge.
        use spatialhadoop::geom::algorithms::union::{boundary_union, total_length};
        use spatialhadoop::geom::Polygon;
        let polys: Vec<Polygon> = centers
            .iter()
            .enumerate()
            .map(|(i, &(_, _))| {
                // Lay them out on a coarse lattice so they never touch.
                let x = (i % 10) as f64 * 100.0;
                let y = (i / 10) as f64 * 100.0;
                Polygon::from_rect(&Rect::new(x, y, x + 10.0, y + 10.0))
            })
            .collect();
        let segs = boundary_union(&polys);
        let expected: f64 = polys.iter().map(Polygon::perimeter).sum();
        prop_assert!((total_length(&segs) - expected).abs() < 1e-6);
    }

    #[test]
    fn voronoi_safe_cells_survive_additions(
        pts in arb_points(80),
        extra in arb_points(20),
    ) {
        use spatialhadoop::geom::algorithms::voronoi::{cell_fingerprint, VoronoiDiagram};
        let partition = Rect::new(250.0, 250.0, 750.0, 750.0);
        let mut inside: Vec<Point> = pts
            .into_iter()
            .filter(|p| partition.contains_point(p))
            .collect();
        sort_dedup(&mut inside);
        prop_assume!(inside.len() >= 4);
        let local = VoronoiDiagram::build(&inside);
        let safe: Vec<_> = local.cells.iter().filter(|c| c.is_safe(&partition)).collect();
        // Add only points strictly outside the partition.
        let mut all = inside.clone();
        all.extend(extra.iter().filter(|p| !partition.contains_point(p)));
        sort_dedup(&mut all);
        let global = VoronoiDiagram::build(&all);
        for s in safe {
            let g = global
                .cells
                .iter()
                .find(|c| c.site.approx_eq(&s.site))
                .expect("site still present");
            prop_assert_eq!(cell_fingerprint(g), cell_fingerprint(s));
        }
    }

    #[test]
    fn reservoir_sampling_is_within_bounds(k in 0usize..50, n in 0usize..500, seed in 0u64..100) {
        use spatialhadoop::index::sampler::reservoir_sample;
        let s = reservoir_sample(0..n, k, seed);
        prop_assert_eq!(s.len(), k.min(n));
        for x in s {
            prop_assert!(x < n);
        }
    }

    #[test]
    fn segment_clipping_stays_inside(ax in 0.0..100.0f64, ay in 0.0..100.0f64,
                                     bx in 0.0..100.0f64, by in 0.0..100.0f64) {
        use spatialhadoop::geom::Segment;
        let s = Segment::new(Point::new(ax, ay), Point::new(bx, by));
        let clip = Rect::new(25.0, 25.0, 75.0, 75.0);
        if let Some(c) = s.clip(&clip) {
            let grown = clip.buffer(1e-9);
            prop_assert!(grown.contains_point(&c.a));
            prop_assert!(grown.contains_point(&c.b));
            prop_assert!(c.length() <= s.length() + 1e-9);
        }
    }
}

// Distributed-vs-baseline properties run fewer cases: each case spins up
// a DFS and runs MapReduce jobs.
proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn distributed_range_query_matches_scan(
        pts in arb_points(800),
        q in arb_rect(),
        kind in prop::sample::select(vec![
            PartitionKind::Grid,
            PartitionKind::StrPlus,
            PartitionKind::Str,
            PartitionKind::Hilbert,
        ]),
    ) {
        let dfs = Dfs::new(ClusterConfig::small_for_tests());
        upload(&dfs, "/pp/points", &pts).unwrap();
        let file = build_index::<Point>(&dfs, "/pp/points", "/pp/idx", kind).unwrap().value;
        let got = range::range_spatial::<Point>(&dfs, &file, &q, "/pp/out").unwrap();
        let mut got_pts = got.value;
        got_pts.sort_by(Point::cmp_xy);
        let mut expected = single::range_query(&pts, &q).value;
        expected.sort_by(Point::cmp_xy);
        prop_assert_eq!(got_pts, expected);
    }

    #[test]
    fn distributed_delaunay_matches_kernel(pts in arb_points(400)) {
        use spatialhadoop::core::ops::delaunay::{delaunay_spatial, Tri};
        use spatialhadoop::geom::algorithms::delaunay::Triangulation;
        let mut sites = pts;
        sort_dedup(&mut sites);
        prop_assume!(sites.len() >= 10);
        let dfs = Dfs::new(ClusterConfig::small_for_tests());
        upload(&dfs, "/pd/points", &sites).unwrap();
        let file = build_index::<Point>(&dfs, "/pd/points", "/pd/idx", PartitionKind::Grid)
            .unwrap()
            .value;
        let got = delaunay_spatial(&dfs, &file).unwrap();
        let tri = Triangulation::build(&sites);
        let mut expected: Vec<_> = tri
            .triangles()
            .into_iter()
            .map(|t| Tri(t.map(|i| sites[i])).fingerprint())
            .collect();
        expected.sort();
        let mut got_fp: Vec<_> = got.value.iter().map(Tri::fingerprint).collect();
        got_fp.sort();
        prop_assert_eq!(got_fp, expected);
    }

    #[test]
    fn distributed_hull_and_closest_pair_match_kernels(pts in arb_points(600)) {
        use spatialhadoop::core::ops::{closest_pair, convex_hull};
        let dfs = Dfs::new(ClusterConfig::small_for_tests());
        upload(&dfs, "/ph/points", &pts).unwrap();
        let file = build_index::<Point>(&dfs, "/ph/points", "/ph/idx", PartitionKind::StrPlus)
            .unwrap()
            .value;
        let hull = convex_hull::hull_enhanced(&dfs, &file).unwrap();
        let mut got: Vec<Point> = hull.value;
        got.sort_by(Point::cmp_xy);
        let mut expected = spatialhadoop::geom::algorithms::convex_hull::convex_hull(&pts);
        expected.sort_by(Point::cmp_xy);
        prop_assert_eq!(got, expected);

        let cp = closest_pair::closest_pair_spatial(&dfs, &file).unwrap();
        let truth = closest_pair(&pts).unwrap();
        prop_assert!((cp.value.unwrap().distance - truth.distance).abs() < 1e-9);
    }

    #[test]
    fn binary_index_answers_exactly_like_text(
        pts in arb_points(600),
        q in arb_rect(),
        kind in prop::sample::select(vec![
            PartitionKind::Grid,
            PartitionKind::StrPlus,
            PartitionKind::Hilbert,
        ]),
    ) {
        let dfs = Dfs::new(ClusterConfig::small_for_tests());
        upload(&dfs, "/pb/points", &pts).unwrap();
        let tf = build_index_fmt::<Point>(&dfs, "/pb/points", "/pb/it", kind, BlockFormat::Text)
            .unwrap()
            .value;
        let bf = build_index_fmt::<Point>(&dfs, "/pb/points", "/pb/ib", kind, BlockFormat::Binary)
            .unwrap()
            .value;
        let sorted = |file, out| {
            let mut v = range::range_spatial::<Point>(&dfs, file, &q, out).unwrap().value;
            v.sort_by(Point::cmp_xy);
            v
        };
        prop_assert_eq!(sorted(&tf, "/pb/ot"), sorted(&bf, "/pb/ob"));
    }

    #[test]
    fn pigeon_parser_never_panics(source in ".{0,120}") {
        // Arbitrary input must produce Ok or a structured error, never a
        // panic.
        let _ = spatialhadoop::pigeon::parser::parse(&source);
    }

    #[test]
    fn any_single_byte_of_rot_is_detected_and_healed(
        pts in arb_points(600),
        offset in 0u64..1_000_000,
        replica in 0usize..2,
        fmt in prop::sample::select(vec![BlockFormat::Text, BlockFormat::Binary]),
    ) {
        // One flipped byte at an arbitrary offset of an arbitrary
        // replica — in either the text or the SHCB columnar layout —
        // must be seen by the scrubber and healed from the sibling
        // replica, never silently served.
        let dfs = Dfs::new(ClusterConfig::small_for_tests());
        upload(&dfs, "/pr/points", &pts).unwrap();
        let file = build_index_fmt::<Point>(&dfs, "/pr/points", "/pr/idx", PartitionKind::Grid, fmt)
            .unwrap()
            .value;
        let victim = &file.partitions[offset as usize % file.partitions.len()].path;
        let healthy = dfs.read_bytes(victim).unwrap();
        prop_assert!(dfs.corrupt_replica_byte(victim, replica, offset));
        let report = dfs.scrub("/pr/");
        prop_assert_eq!(report.corrupt, 1, "exactly one replica rotted: {}", report);
        prop_assert_eq!(report.repaired, 1, "{}", report);
        prop_assert_eq!(report.unrecoverable, 0, "{}", report);
        prop_assert_eq!(dfs.read_bytes(victim).unwrap(), healthy);
        prop_assert_eq!(dfs.scrub("/pr/").corrupt, 0, "second scrub must run clean");
    }

    #[test]
    fn flip_and_truncate_are_healed_by_read_repair(
        pts in arb_points(600),
        replica in 0usize..2,
        kind in prop::sample::select(vec![CorruptKind::Flip, CorruptKind::Truncate]),
    ) {
        // Plain reads must always come back byte-identical, whichever
        // replica rotted. Reads walk candidates in preference order, so
        // rot on the first pick is detected and read-repaired on the
        // spot; rot on a later sibling is simply never served and is
        // the scrubber's job to find.
        let dfs = Dfs::new(ClusterConfig::small_for_tests());
        upload(&dfs, "/pt/points", &pts).unwrap();
        let healthy = dfs.read_to_string("/pt/points").unwrap();
        let hit = dfs.corrupt_replica("/pt/points", replica, kind);
        prop_assert!(hit > 0, "corruption must land on at least one block");
        let before = dfs.metrics().snapshot();
        prop_assert_eq!(dfs.read_to_string("/pt/points").unwrap(), healthy);
        let delta = dfs.metrics().snapshot().since(&before);
        if replica == 0 {
            prop_assert_eq!(delta.corrupt_replicas, hit as u64);
            prop_assert!(delta.repaired_replicas >= hit as u64);
            prop_assert_eq!(dfs.scrub("/pt/").corrupt, 0, "read-repair must have healed all");
        } else {
            let report = dfs.scrub("/pt/");
            prop_assert_eq!(report.corrupt, hit, "scrub must find what reads skipped");
            prop_assert_eq!(report.repaired, hit, "{}", report);
        }
        prop_assert_eq!(dfs.scrub("/pt/").corrupt, 0, "everything healed");
    }

    #[test]
    fn unreplicated_corruption_errors_instead_of_wrong_bytes(
        pts in arb_points(400),
        offset in 0u64..1_000_000,
        kind in prop::sample::select(vec![CorruptKind::Flip, CorruptKind::Truncate]),
    ) {
        // With a single replica there is nothing to heal from: the read
        // must fail with a structured error — a wrong answer is the one
        // unacceptable outcome.
        let mut cfg = ClusterConfig::small_for_tests();
        cfg.replication = 1;
        let dfs = Dfs::new(cfg);
        upload(&dfs, "/p1/points", &pts).unwrap();
        if kind == CorruptKind::Flip {
            prop_assert!(dfs.corrupt_replica_byte("/p1/points", 0, offset));
        } else {
            prop_assert!(dfs.corrupt_replica("/p1/points", 0, kind) > 0);
        }
        match dfs.read_to_string("/p1/points") {
            Err(DfsError::CorruptBlock(_)) => {}
            other => prop_assert!(false, "expected CorruptBlock, got {:?}", other.map(|s| s.len())),
        }
        let report = dfs.scrub("/p1/");
        prop_assert!(report.unrecoverable >= 1, "{}", report);
        prop_assert_eq!(report.repaired, 0, "{}", report);
    }

    #[test]
    fn distributed_skyline_matches_kernel(pts in arb_points(800)) {
        let dfs = Dfs::new(ClusterConfig::small_for_tests());
        upload(&dfs, "/ps/points", &pts).unwrap();
        let file = build_index::<Point>(&dfs, "/ps/points", "/ps/idx", PartitionKind::StrPlus)
            .unwrap()
            .value;
        let got = skyline::skyline_output_sensitive(&dfs, &file).unwrap();
        let mut got_pts = got.value;
        got_pts.sort_by(Point::cmp_xy);
        let mut expected = skyline_kernel(&pts);
        expected.sort_by(Point::cmp_xy);
        expected.dedup_by(|a, b| a.approx_eq(b));
        got_pts.dedup_by(|a, b| a.approx_eq(b));
        prop_assert_eq!(got_pts, expected);
    }
}
