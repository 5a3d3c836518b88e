//! Facility coverage via distributed Voronoi diagrams: given facility
//! locations (clustered like real deployments), compute each facility's
//! service region and report coverage statistics — the paper's flagship
//! new operation, with its safe-region early flush at work.
//!
//! ```text
//! cargo run --release --example voronoi_facilities
//! ```

use spatialhadoop::core::ops::voronoi;
use spatialhadoop::core::storage::{build_index, upload};
use spatialhadoop::dfs::{ClusterConfig, Dfs};
use spatialhadoop::geom::point::sort_dedup;
use spatialhadoop::geom::{Point, Polygon};
use spatialhadoop::index::PartitionKind;
use spatialhadoop::workload::{default_universe, osm_like_points};

fn main() {
    let dfs = Dfs::new(ClusterConfig::paper_cluster(64 * 1024));
    let universe = default_universe();

    // 40k facility sites, clustered.
    let mut sites = osm_like_points(40_000, &universe, 10, 9);
    sort_dedup(&mut sites);
    upload(&dfs, "/net/facilities", &sites).expect("upload sites");

    let index = build_index::<Point>(&dfs, "/net/facilities", "/idx/fac", PartitionKind::Grid)
        .expect("grid index")
        .value;
    println!(
        "{} facilities across {} grid partitions",
        sites.len(),
        index.partitions.len()
    );

    let result = voronoi::voronoi_spatial(&dfs, &index).expect("voronoi");
    let cells = &result.value;
    assert_eq!(cells.len(), sites.len(), "one service region per facility");

    let local = result.counter("voronoi.flushed.local");
    let vmerge = result.counter("voronoi.flushed.vmerge");
    let hmerge = result.counter("voronoi.flushed.hmerge");
    println!(
        "service regions finalized: {:.1}% in the local step, {:.1}% in the vertical merge, \
         {:.1}% at the final merge",
        100.0 * local as f64 / cells.len() as f64,
        100.0 * vmerge as f64 / cells.len() as f64,
        100.0 * hmerge as f64 / cells.len() as f64,
    );
    println!("simulated cluster time: {:.1}s", result.sim().total());

    // Coverage statistics over service regions clipped to the universe
    // (boundary cells extend far outside it).
    let mut areas: Vec<f64> = cells
        .iter()
        .filter(|c| c.bounded && c.vertices.len() >= 3)
        .filter_map(|c| {
            Polygon::new(c.vertices.clone())
                .clip_to_rect(&universe)
                .map(|p| p.area())
        })
        .collect();
    areas.sort_by(f64::total_cmp);
    let covered: f64 = areas.iter().sum();
    println!(
        "bounded service regions: {} of {} | median area {:.0} | p95 {:.0} | covering {:.1}% of the universe",
        areas.len(),
        cells.len(),
        areas[areas.len() / 2],
        areas[areas.len() * 95 / 100],
        100.0 * covered / universe_area(),
    );

    // The largest clipped region is the worst-served area.
    let worst = areas.last().copied().unwrap_or(0.0);
    println!("largest in-universe service region: {worst:.0} square units");
}

fn universe_area() -> f64 {
    let u = default_universe();
    u.width() * u.height()
}
