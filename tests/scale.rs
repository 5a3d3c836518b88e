//! Opt-in scale tests — larger datasets than the default suite, still
//! asserting *exact* agreement with single-machine baselines.
//!
//! ```text
//! cargo test --release --test scale -- --ignored
//! ```

use spatialhadoop::core::ops::{closest_pair, range, single, skyline, voronoi};
use spatialhadoop::core::storage::{build_index, upload};
use spatialhadoop::dfs::{ClusterConfig, Dfs};
use spatialhadoop::geom::point::sort_dedup;
use spatialhadoop::geom::{Point, Rect};
use spatialhadoop::index::PartitionKind;
use spatialhadoop::workload::{default_universe, osm_like_points, points, Distribution};

fn cluster() -> Dfs {
    Dfs::new(ClusterConfig::paper_cluster(64 * 1024))
}

#[test]
#[ignore = "scale test: ~1M points, run with --ignored"]
fn million_point_range_and_skyline() {
    let dfs = cluster();
    let uni = default_universe();
    let pts = points(1_000_000, Distribution::Uniform, &uni, 9001);
    upload(&dfs, "/scale/points", &pts).unwrap();
    let file = build_index::<Point>(&dfs, "/scale/points", "/scale/idx", PartitionKind::StrPlus)
        .unwrap()
        .value;
    assert_eq!(file.total_records(), 1_000_000);

    let query = Rect::new(250_000.0, 250_000.0, 280_000.0, 280_000.0);
    let got = range::range_spatial::<Point>(&dfs, &file, &query, "/scale/r").unwrap();
    let expected = single::range_query(&pts, &query).value;
    assert_eq!(got.value.len(), expected.len());

    let sky = skyline::skyline_output_sensitive(&dfs, &file).unwrap();
    let mut expected = single::skyline_single(&pts).value;
    expected.sort_by(Point::cmp_xy);
    assert_eq!(sky.value.len(), expected.len());
}

#[test]
#[ignore = "scale test: 300k-site exact Voronoi, run with --ignored"]
fn large_voronoi_is_exact() {
    let dfs = cluster();
    let uni = default_universe();
    let mut sites = osm_like_points(300_000, &uni, 12, 9002);
    sort_dedup(&mut sites);
    upload(&dfs, "/scale/sites", &sites).unwrap();
    let file = build_index::<Point>(&dfs, "/scale/sites", "/scale/vidx", PartitionKind::Grid)
        .unwrap()
        .value;
    let got = voronoi::voronoi_spatial(&dfs, &file).unwrap();
    assert_eq!(got.value.len(), sites.len());
    // Spot-check exactness on a sample of cells against the global
    // diagram (full fingerprint comparison would dominate the runtime).
    let reference = single::voronoi_single(&sites).value;
    let mut ref_by_site: std::collections::HashMap<(i64, i64), _> = reference
        .cells
        .iter()
        .map(|c| (((c.site.x * 1e6) as i64, (c.site.y * 1e6) as i64), c))
        .collect();
    for cell in got.value.iter().step_by(997) {
        let key = ((cell.site.x * 1e6) as i64, (cell.site.y * 1e6) as i64);
        let r = ref_by_site.remove(&key).expect("site present");
        assert_eq!(cell.bounded, r.bounded);
        assert_eq!(cell.vertices.len(), r.vertices.len());
    }
    // The pruning claim at real partition sizes: the bulk of the cells
    // are final before any merge (the skewed OSM-like distribution keeps
    // sparse partitions boundary-heavy, so this is below the paper's 99%
    // for its uniform 64 MB partitions).
    let local = got.counter("voronoi.flushed.local") as f64;
    assert!(local / sites.len() as f64 > 0.80, "{local}");
}

#[test]
#[ignore = "scale test: 1M-point closest pair, run with --ignored"]
fn million_point_closest_pair() {
    let dfs = cluster();
    let uni = default_universe();
    let pts = points(1_000_000, Distribution::Gaussian, &uni, 9003);
    upload(&dfs, "/scale/cp", &pts).unwrap();
    let file = build_index::<Point>(&dfs, "/scale/cp", "/scale/cpidx", PartitionKind::StrPlus)
        .unwrap()
        .value;
    let got = closest_pair::closest_pair_spatial(&dfs, &file).unwrap();
    let expected = single::closest_pair_single(&pts).value.unwrap();
    assert!((got.value.unwrap().distance - expected.distance).abs() < 1e-9);
    // Pruning forwards only a few percent at these partition sizes
    // (shrinks further with larger partitions; Gaussian tails keep
    // sparse partitions buffer-heavy).
    let frac = got.counter("closestpair.candidates") as f64 / pts.len() as f64;
    assert!(frac < 0.05, "forwarded fraction {frac}");
}
