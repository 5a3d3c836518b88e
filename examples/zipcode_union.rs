//! ZIP-code union — the paper's running polygon-union example (its
//! Fig. 1): dissolve a mosaic of area polygons into region boundaries.
//!
//! Compares all four plans on the same dataset: single machine, Hadoop
//! (random placement), SpatialHadoop (spatial clustering), and the
//! enhanced merge-free algorithm, verifying they produce the same
//! boundary.
//!
//! ```text
//! cargo run --release --example zipcode_union
//! ```

use spatialhadoop::core::ops::{single, union};
use spatialhadoop::core::storage::{build_index, upload};
use spatialhadoop::dfs::{ClusterConfig, Dfs};
use spatialhadoop::geom::algorithms::union::total_length;
use spatialhadoop::geom::Polygon;
use spatialhadoop::index::PartitionKind;
use spatialhadoop::workload::{default_universe, osm_like_polygons};

fn main() {
    let dfs = Dfs::new(ClusterConfig::paper_cluster(8 * 1024));
    let universe = default_universe();

    // ZIP-code-like mosaic: clusters of small adjacent polygons plus
    // scattered rural ones.
    let zips = osm_like_polygons(1_200, &universe, 8_000.0, 3);
    upload(&dfs, "/gis/zips", &zips).expect("upload polygons");
    println!("dissolving {} area polygons", zips.len());

    // Single machine baseline.
    let baseline = single::union_single(&zips);
    let reference = total_length(&baseline.value);
    println!(
        "single machine: boundary of {} segments, total length {:.0} ({:.2}s wall)",
        baseline.value.len(),
        reference,
        baseline.seconds
    );

    // Hadoop: random block placement.
    let hadoop = union::union_hadoop(&dfs, "/gis/zips").expect("hadoop union");
    report(
        "hadoop",
        reference,
        total_length(&hadoop.value),
        hadoop.sim().total(),
        hadoop.counter("union.segments.into.merge"),
    );

    // SpatialHadoop: STR clustering, one copy per polygon.
    let str_index = build_index::<Polygon>(&dfs, "/gis/zips", "/idx/str", PartitionKind::Str)
        .expect("str index")
        .value;
    let spatial = union::union_spatial(&dfs, &str_index).expect("spatial union");
    report(
        "spatialhadoop",
        reference,
        total_length(&spatial.value),
        spatial.sim().total(),
        spatial.counter("union.segments.into.merge"),
    );

    // Enhanced: disjoint STR+ cells, clip-to-cell, no merge step at all.
    let strp_index = build_index::<Polygon>(&dfs, "/gis/zips", "/idx/strp", PartitionKind::StrPlus)
        .expect("str+ index")
        .value;
    let enhanced = union::union_enhanced(&dfs, &strp_index).expect("enhanced");
    report(
        "enhanced",
        reference,
        total_length(&enhanced.value),
        enhanced.sim().total(),
        0,
    );
    println!(
        "enhanced ran map-only: {} reduce tasks, {} boundary segments flushed in place",
        enhanced.jobs[0].profile.phase_tasks("reduce"),
        enhanced.counter("union.segments.flushed")
    );
}

fn report(name: &str, reference: f64, got: f64, sim: f64, merge_segments: u64) {
    let drift = (got - reference).abs() / reference.max(1.0);
    assert!(
        drift < 1e-3,
        "{name}: boundary length {got:.0} deviates from reference {reference:.0}"
    );
    if merge_segments > 0 {
        println!("{name:>14}: {sim:>7.1} simulated s, {merge_segments} segments into the merge");
    } else {
        println!("{name:>14}: {sim:>7.1} simulated s, merge-free");
    }
}
