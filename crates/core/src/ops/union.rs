//! Polygon union.
//!
//! The union's boundary is represented as a bag of segments throughout
//! (see `sh_geom::algorithms::union`), which is what makes the enhanced
//! variant possible at all:
//!
//! * **Hadoop** — each split unions its (random) polygons locally; one
//!   reducer merges the per-task boundary *regions*. Random placement
//!   removes few interior edges locally, so the merge is heavy.
//! * **SpatialHadoop** — same plan over a spatially-partitioned file
//!   (overlapping technique, one copy per polygon): adjacent polygons
//!   meet in the same partition, local union removes most interior
//!   edges, the merge input shrinks dramatically.
//! * **Enhanced** — over a *disjoint* index with replication: each cell
//!   unions every polygon touching it and clips the result to the cell.
//!   Cells tile the plane, so the concatenated clipped boundaries *are*
//!   the final answer — no merge step at all, map-only.

use sh_dfs::Dfs;
use sh_geom::algorithms::union::{boundary_union, union_regions, SegmentRegion};
use sh_geom::float::EPS;
use sh_geom::{Polygon, Record, Segment};
use sh_mapreduce::{InputSplit, JobBuilder, MapContext, ReduceContext, Reducer};

use crate::catalog::SpatialFile;
use crate::mrlayer::{split_cell, ByRecords, RecordMapper, SpatialFileSplitter};
use crate::opresult::{OpError, OpResult};

struct LocalUnionMapper;

impl RecordMapper for LocalUnionMapper {
    type R = Polygon;
    type K = u8;
    /// `(region id, ax, ay, bx, by)` — the region id groups one map
    /// task's segments back into a coherent boundary at the reducer.
    type V = (u64, f64, f64, f64, f64);

    fn map_records(
        &self,
        split: &InputSplit,
        polys: Vec<Polygon>,
        ctx: &mut MapContext<u8, (u64, f64, f64, f64, f64)>,
    ) {
        let region_id = split.blocks.first().map(|b| b.id.0).unwrap_or(0);
        let edges_in: usize = polys.iter().map(Polygon::len).sum();
        let segments = boundary_union(&polys);
        ctx.counter("union.edges.in", edges_in as u64);
        ctx.counter("union.segments.into.merge", segments.len() as u64);
        for s in segments {
            ctx.emit(1, (region_id, s.a.x, s.a.y, s.b.x, s.b.y));
        }
    }
}

struct RegionMergeReducer;

impl Reducer for RegionMergeReducer {
    type K = u8;
    type V = (u64, f64, f64, f64, f64);

    fn reduce(&self, _key: &u8, values: Vec<(u64, f64, f64, f64, f64)>, ctx: &mut ReduceContext) {
        use std::collections::BTreeMap;
        let mut regions: BTreeMap<u64, Vec<Segment>> = BTreeMap::new();
        for (rid, ax, ay, bx, by) in values {
            regions.entry(rid).or_default().push(Segment::new(
                sh_geom::Point::new(ax, ay),
                sh_geom::Point::new(bx, by),
            ));
        }
        let regions: Vec<SegmentRegion> = regions.into_values().map(SegmentRegion::new).collect();
        for s in union_regions(&regions) {
            ctx.output(&s.to_line());
        }
    }
}

/// Hadoop polygon union over a heap file.
pub fn union_hadoop(dfs: &Dfs, heap: &str) -> Result<OpResult<Vec<Segment>>, OpError> {
    let job = JobBuilder::new(dfs, &format!("union-hadoop:{heap}"))
        .input_file(heap)?
        .mapper(ByRecords(LocalUnionMapper))
        .pair_size(|_, _| 40)
        .reducer(RegionMergeReducer, 1)
        .build()?
        .run()?;
    let value = crate::codec::parse_output_records(&job.rows)?;
    let sel = sh_trace::Selectivity::full_scan(job.map_tasks(), value.len() as u64);
    Ok(OpResult::new(value, vec![job]).with_selectivity(sel))
}

/// SpatialHadoop polygon union over a *non-disjoint* spatial index (one
/// copy per polygon, spatially clustered).
pub fn union_spatial(dfs: &Dfs, file: &SpatialFile) -> Result<OpResult<Vec<Segment>>, OpError> {
    if file.is_disjoint() {
        return Err(OpError::Unsupported(
            "union_spatial needs a non-replicating (overlapping) index; \
             use union_enhanced for disjoint indexes"
                .into(),
        ));
    }
    let splits = SpatialFileSplitter::all_splits(dfs, file)?;
    let mut sel = crate::mrlayer::splitter_selectivity(file, &splits);
    let job = JobBuilder::new(dfs, &format!("union-spatial:{}", file.dir))
        .input_splits(splits)
        .mapper(ByRecords(LocalUnionMapper))
        .pair_size(|_, _| 40)
        .reducer(RegionMergeReducer, 1)
        .build()?
        .run()?;
    let value = crate::codec::parse_output_records(&job.rows)?;
    sel.records_emitted = value.len() as u64;
    Ok(OpResult::new(value, vec![job]).with_selectivity(sel))
}

struct EnhancedUnionMapper;

impl RecordMapper for EnhancedUnionMapper {
    type R = Polygon;
    type K = u8;
    type V = u8;

    fn map_records(&self, split: &InputSplit, polys: Vec<Polygon>, ctx: &mut MapContext<u8, u8>) {
        let cell = split_cell(split);
        let segments = boundary_union(&polys);
        for s in segments {
            // Prune to the cell; drop pieces lying exactly on the cell's
            // upper boundaries so the neighbouring cell (which owns them
            // half-open) reports them instead.
            let Some(clipped) = s.clip(&cell) else {
                ctx.counter("union.segments.clipped", 1);
                continue;
            };
            let on_x2 = (clipped.a.x - cell.x2).abs() < EPS && (clipped.b.x - cell.x2).abs() < EPS;
            let on_y2 = (clipped.a.y - cell.y2).abs() < EPS && (clipped.b.y - cell.y2).abs() < EPS;
            if on_x2 || on_y2 {
                ctx.counter("union.segments.clipped", 1);
                continue;
            }
            ctx.output(&clipped.to_line());
            ctx.counter("union.segments.flushed", 1);
        }
    }
}

/// Enhanced union: disjoint index with replication, map-only, no merge.
pub fn union_enhanced(dfs: &Dfs, file: &SpatialFile) -> Result<OpResult<Vec<Segment>>, OpError> {
    if !file.is_disjoint() {
        return Err(OpError::Unsupported(
            "enhanced union requires a disjoint partitioning".into(),
        ));
    }
    let splits = SpatialFileSplitter::all_splits(dfs, file)?;
    let mut sel = crate::mrlayer::splitter_selectivity(file, &splits);
    let job = JobBuilder::new(dfs, &format!("union-enhanced:{}", file.dir))
        .input_splits(splits)
        .mapper(ByRecords(EnhancedUnionMapper))
        .map_only()?
        .run()?;
    let value = crate::codec::parse_output_records(&job.rows)?;
    sel.records_emitted = value.len() as u64;
    Ok(OpResult::new(value, vec![job]).with_selectivity(sel))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::single;
    use crate::storage::{build_index, upload};
    use sh_dfs::ClusterConfig;
    use sh_geom::algorithms::union::total_length;
    use sh_geom::Rect;
    use sh_index::PartitionKind;
    use sh_workload::osm_like_polygons;

    fn close(a: f64, b: f64) -> bool {
        (a - b).abs() < 1e-3 * a.abs().max(b.abs()).max(1.0)
    }

    fn setup(n: usize, seed: u64) -> (Dfs, Vec<Polygon>) {
        let dfs = Dfs::new(ClusterConfig::small_for_tests());
        let uni = Rect::new(0.0, 0.0, 1000.0, 1000.0);
        let polys = osm_like_polygons(n, &uni, 8.0, seed);
        upload(&dfs, "/polys", &polys).unwrap();
        (dfs, polys)
    }

    #[test]
    fn hadoop_union_matches_single_machine() {
        let (dfs, polys) = setup(300, 81);
        let expected = total_length(&single::union_single(&polys).value);
        let got = union_hadoop(&dfs, "/polys").unwrap();
        assert!(
            close(total_length(&got.value), expected),
            "{} vs {expected}",
            total_length(&got.value)
        );
    }

    #[test]
    fn spatial_union_matches_and_shrinks_merge_input() {
        let (dfs, polys) = setup(400, 82);
        let expected = total_length(&single::union_single(&polys).value);

        let h = union_hadoop(&dfs, "/polys").unwrap();
        let file = build_index::<Polygon>(&dfs, "/polys", "/idx", PartitionKind::Str)
            .unwrap()
            .value;
        let s = union_spatial(&dfs, &file).unwrap();
        assert!(close(total_length(&s.value), expected));
        // Spatial clustering removes more interior edges before the merge.
        assert!(
            s.counter("union.segments.into.merge") <= h.counter("union.segments.into.merge"),
            "spatial {} vs hadoop {}",
            s.counter("union.segments.into.merge"),
            h.counter("union.segments.into.merge")
        );
    }

    #[test]
    fn enhanced_union_matches_without_merge() {
        let (dfs, polys) = setup(400, 83);
        let expected = total_length(&single::union_single(&polys).value);
        let file = build_index::<Polygon>(&dfs, "/polys", "/idx", PartitionKind::StrPlus)
            .unwrap()
            .value;
        let e = union_enhanced(&dfs, &file).unwrap();
        assert!(
            close(total_length(&e.value), expected),
            "{} vs {expected}",
            total_length(&e.value)
        );
        assert_eq!(
            e.jobs[0].profile.phase_tasks("reduce"),
            0,
            "map-only by construction"
        );
    }

    #[test]
    fn variant_precondition_errors() {
        let (dfs, _) = setup(100, 84);
        let disjoint = build_index::<Polygon>(&dfs, "/polys", "/d", PartitionKind::Grid)
            .unwrap()
            .value;
        let overlapping = build_index::<Polygon>(&dfs, "/polys", "/o", PartitionKind::Hilbert)
            .unwrap()
            .value;
        assert!(matches!(
            union_spatial(&dfs, &disjoint),
            Err(OpError::Unsupported(_))
        ));
        assert!(matches!(
            union_enhanced(&dfs, &overlapping),
            Err(OpError::Unsupported(_))
        ));
    }
}
