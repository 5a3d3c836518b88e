//! Range query: all records intersecting a query rectangle.
//!
//! * **Hadoop** — map-only full scan of the heap file: every block is
//!   read, every record tested.
//! * **SpatialHadoop** — the SpatialFileSplitter prunes partitions whose
//!   data MBR misses the query; surviving partitions are searched through
//!   their local R-tree; replicated records (disjoint indexes) are
//!   deduplicated with the reference-point rule so each result is
//!   reported exactly once.

use std::marker::PhantomData;
use std::sync::Arc;

use sh_dfs::Dfs;
use sh_geom::{Record, Rect};
use sh_index::owns_point;
use sh_mapreduce::{InputSplit, JobBuilder, MapContext, Mapper, Rows};

use crate::catalog::SpatialFile;
use crate::codec::parse_output_records;
use crate::mrlayer::{
    split_cell, splitter_selectivity, task, task_cached, ByRecords, Partition, RecordMapper,
    SpatialFileSplitter, SpatialRecordReader,
};
use crate::opresult::{OpError, OpResult};
use sh_trace::Selectivity;

struct ScanMapper<R: Record> {
    query: Rect,
    _r: PhantomData<fn() -> R>,
}

impl<R: Record> RecordMapper for ScanMapper<R> {
    type R = R;
    type K = u8;
    type V = u8;

    fn map_records(&self, _split: &InputSplit, records: Vec<R>, ctx: &mut MapContext<u8, u8>) {
        let results = ctx.register_counter("range.results");
        let mut line = String::with_capacity(48);
        for r in records.iter().filter(|r| r.mbr().intersects(&self.query)) {
            line.clear();
            r.write_line(&mut line);
            ctx.output(&line);
            ctx.inc(results, 1);
        }
    }
}

struct IndexedMapper<R: Record> {
    dfs: Dfs,
    query: Rect,
    universe: Rect,
    dedup: bool,
    local_index: bool,
    _r: PhantomData<fn() -> R>,
}

impl<R: Record> Mapper for IndexedMapper<R> {
    type K = u8;
    type V = u8;

    // Cached path: decoded partition + persisted local tree, shared
    // across queries over the same partition, found before the engine
    // reads the split.
    fn map_cached(&self, split: &InputSplit, ctx: &mut MapContext<u8, u8>) -> bool {
        if !self.local_index {
            return false;
        }
        let Some(part) = task_cached::<R, _, _>(&self.dfs, &split.path, ctx) else {
            return false;
        };
        let hits = part.tree().query(&self.query);
        self.write_hits(split, &part, hits, ctx);
        true
    }

    fn map_bytes(&self, split: &InputSplit, data: &[u8], ctx: &mut MapContext<u8, u8>) {
        let (part, hits) = if self.local_index {
            // `map_cached` missed: decode, index and cache the partition.
            let part = task(
                &split.path,
                SpatialRecordReader::open_after_probe::<R>(
                    &self.dfs,
                    &split.path,
                    data,
                    ctx.input_blocks(),
                ),
            );
            let hits = part.tree().query(&self.query);
            (part, hits)
        } else {
            // Ablation: linear scan of the partition, no cache. Binary
            // blocks scan their coordinate columns directly.
            let part = Arc::new(task(
                &split.path,
                SpatialRecordReader::open_scan::<R>(data, ctx.input_blocks()),
            ));
            let hits = part.scan_filter(&self.query);
            (part, hits)
        };
        self.write_hits(split, &part, hits, ctx);
    }
}

impl<R: Record> IndexedMapper<R> {
    /// Writes the partition's `hits` that this split reports: all of
    /// them, or on a disjoint index those whose reference point it owns.
    fn write_hits(
        &self,
        split: &InputSplit,
        part: &Partition<R>,
        hits: Vec<usize>,
        ctx: &mut MapContext<u8, u8>,
    ) {
        let cell = split_cell(split);
        let results = ctx.register_counter("range.results");
        let dup_skipped = ctx.register_counter("range.duplicates.skipped");
        let mut line = String::with_capacity(48);
        for i in hits {
            let mbr = part.mbr_of(i);
            if self.dedup {
                // Reference point of record ∩ query: exactly one replica
                // holder owns it among the partitions overlapping both.
                let inter = mbr
                    .intersection(&self.query)
                    .expect("R-tree reported an intersecting record");
                let rp = inter.bottom_left();
                if !owns_point(&cell, &rp, &self.universe) {
                    ctx.inc(dup_skipped, 1);
                    continue;
                }
            }
            line.clear();
            part.write_record(i, &mut line);
            ctx.output(&line);
            ctx.inc(results, 1);
        }
    }
}

/// Full-scan range query over a heap file (the Hadoop baseline).
///
/// `_out_dir` is ignored; it goes when `shbench` next changes.
pub fn range_hadoop<R: Record>(
    dfs: &Dfs,
    heap: &str,
    query: &Rect,
    _out_dir: &str,
) -> Result<OpResult<Vec<R>>, OpError> {
    range_hadoop_rows::<R>(dfs, heap, query)?.try_map(|rows| parse_output_records(&rows))
}

/// [`range_hadoop`] with the answer left as the job wrote it: one
/// `to_line()` row per matching record, in task order.
pub fn range_hadoop_rows<R: Record>(
    dfs: &Dfs,
    heap: &str,
    query: &Rect,
) -> Result<OpResult<Rows>, OpError> {
    let job = JobBuilder::new(dfs, &format!("range-hadoop:{heap}"))
        .input_file(heap)?
        .mapper(ByRecords(ScanMapper::<R> {
            query: *query,
            _r: PhantomData,
        }))
        .map_only()?
        .run()?;
    let sel = Selectivity::full_scan(job.map_tasks(), job.rows.len() as u64);
    Ok(OpResult::new(job.rows.clone(), vec![job]).with_selectivity(sel))
}

/// Ablation switches for [`range_spatial_with`] (DESIGN.md §5).
#[derive(Clone, Copy, Debug)]
pub struct RangeOptions {
    /// Apply the SpatialFileSplitter filter step (partition pruning).
    pub filter: bool,
    /// Search each partition through its local R-tree instead of a
    /// linear scan of its records.
    pub local_index: bool,
}

impl Default for RangeOptions {
    fn default() -> Self {
        RangeOptions {
            filter: true,
            local_index: true,
        }
    }
}

/// Index-assisted range query (the SpatialHadoop operation).
///
/// `_out_dir` is ignored; it goes when `shbench` next changes.
pub fn range_spatial<R: Record>(
    dfs: &Dfs,
    file: &SpatialFile,
    query: &Rect,
    _out_dir: &str,
) -> Result<OpResult<Vec<R>>, OpError> {
    range_spatial_with::<R>(dfs, file, query, RangeOptions::default())
}

/// Range query with explicit ablation options.
pub fn range_spatial_with<R: Record>(
    dfs: &Dfs,
    file: &SpatialFile,
    query: &Rect,
    options: RangeOptions,
) -> Result<OpResult<Vec<R>>, OpError> {
    range_spatial_rows::<R>(dfs, file, query, options)?.try_map(|rows| parse_output_records(&rows))
}

/// [`range_spatial_with`] with the answer left as the job wrote it: one
/// `to_line()` row per result record, in task order.
pub fn range_spatial_rows<R: Record>(
    dfs: &Dfs,
    file: &SpatialFile,
    query: &Rect,
    options: RangeOptions,
) -> Result<OpResult<Rows>, OpError> {
    let splits = SpatialFileSplitter::splits(dfs, file, |m| {
        !options.filter || m.mbr_rect().intersects(query)
    })?;
    let pruned = file.partitions.len() - splits.len();
    let mut sel = splitter_selectivity(file, &splits);
    let mut job = JobBuilder::new(dfs, &format!("range-spatial:{}", file.dir))
        .input_splits(splits)
        .mapper(IndexedMapper::<R> {
            dfs: dfs.clone(),
            query: *query,
            universe: file.universe,
            dedup: file.is_disjoint(),
            local_index: options.local_index,
            _r: PhantomData,
        })
        .map_only()?
        .run()?;
    job.set_counter("range.partitions.pruned", pruned as u64);
    sel.records_emitted = job.rows.len() as u64;
    Ok(OpResult::new(job.rows.clone(), vec![job]).with_selectivity(sel))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::storage::{build_index, upload};
    use sh_dfs::ClusterConfig;
    use sh_geom::Point;
    use sh_index::PartitionKind;
    use sh_workload::{points, rects, Distribution};

    fn canon_points(mut v: Vec<Point>) -> Vec<(i64, i64)> {
        v.sort_by(Point::cmp_xy);
        v.iter()
            .map(|p| ((p.x * 1e6) as i64, (p.y * 1e6) as i64))
            .collect()
    }

    #[test]
    fn hadoop_and_spatial_agree_with_baseline_points() {
        let dfs = Dfs::new(ClusterConfig::small_for_tests());
        let uni = Rect::new(0.0, 0.0, 1000.0, 1000.0);
        let pts = points(4000, Distribution::Uniform, &uni, 21);
        upload(&dfs, "/heap", &pts).unwrap();
        let file = build_index::<Point>(&dfs, "/heap", "/idx", PartitionKind::StrPlus)
            .unwrap()
            .value;
        let query = Rect::new(200.0, 300.0, 340.0, 460.0);
        let expected = crate::ops::single::range_query(&pts, &query).value;
        assert!(!expected.is_empty());

        let h = range_hadoop::<Point>(&dfs, "/heap", &query, "/out-h").unwrap();
        assert_eq!(
            canon_points(h.value.clone()),
            canon_points(expected.clone())
        );

        let s = range_spatial::<Point>(&dfs, &file, &query, "/out-s").unwrap();
        assert_eq!(canon_points(s.value.clone()), canon_points(expected));

        // Pruning must have kicked in: fewer map tasks than partitions.
        assert!(s.map_tasks() < file.partitions.len());
        assert!(s.counter("range.partitions.pruned") > 0);
        // And the spatial job reads fewer bytes.
        assert!(
            s.counter("map.input.bytes.local") + s.counter("map.input.bytes.remote")
                < h.counter("map.input.bytes.local") + h.counter("map.input.bytes.remote")
        );
    }

    #[test]
    fn replicated_rects_are_deduplicated() {
        let dfs = Dfs::new(ClusterConfig::small_for_tests());
        let uni = Rect::new(0.0, 0.0, 1000.0, 1000.0);
        let rs = rects(1200, &uni, 80.0, 3);
        upload(&dfs, "/rects", &rs).unwrap();
        let file = build_index::<Rect>(&dfs, "/rects", "/ridx", PartitionKind::Grid)
            .unwrap()
            .value;
        assert!(file.total_records() > rs.len() as u64, "needs replication");
        let query = Rect::new(100.0, 100.0, 500.0, 500.0);
        let expected = crate::ops::single::range_query(&rs, &query).value;
        let got = range_spatial::<Rect>(&dfs, &file, &query, "/out").unwrap();
        let canon = |mut v: Vec<Rect>| {
            v.sort_by(|a, b| {
                a.x1.total_cmp(&b.x1)
                    .then(a.y1.total_cmp(&b.y1))
                    .then(a.x2.total_cmp(&b.x2))
                    .then(a.y2.total_cmp(&b.y2))
            });
            v
        };
        assert_eq!(canon(got.value.clone()), canon(expected));
        assert!(got.counter("range.duplicates.skipped") > 0);
    }

    #[test]
    fn empty_result_is_fine() {
        let dfs = Dfs::new(ClusterConfig::small_for_tests());
        let uni = Rect::new(0.0, 0.0, 1000.0, 1000.0);
        let pts = points(500, Distribution::Uniform, &uni, 4);
        upload(&dfs, "/heap", &pts).unwrap();
        let file = build_index::<Point>(&dfs, "/heap", "/idx", PartitionKind::Grid)
            .unwrap()
            .value;
        let query = Rect::new(5000.0, 5000.0, 6000.0, 6000.0);
        let got = range_spatial::<Point>(&dfs, &file, &query, "/out").unwrap();
        assert!(got.value.is_empty());
        assert_eq!(got.map_tasks(), 0, "all partitions pruned");
    }

    #[test]
    fn generic_records_segments_and_polygons() {
        use sh_geom::{Polygon, Segment};
        let dfs = Dfs::new(ClusterConfig::small_for_tests());
        let uni = Rect::new(0.0, 0.0, 1000.0, 1000.0);
        // Road-like segments.
        let segs: Vec<Segment> = points(600, Distribution::Uniform, &uni, 91)
            .chunks(2)
            .filter(|c| c.len() == 2)
            .map(|c| Segment::new(c[0], c[1]))
            .collect();
        upload(&dfs, "/segs", &segs).unwrap();
        let sfile = build_index::<Segment>(&dfs, "/segs", "/sidx", PartitionKind::Grid)
            .unwrap()
            .value;
        let query = Rect::new(200.0, 200.0, 400.0, 400.0);
        let got = range_spatial::<Segment>(&dfs, &sfile, &query, "/souts").unwrap();
        let expected = crate::ops::single::range_query(&segs, &query).value;
        assert_eq!(got.value.len(), expected.len());

        // Polygon records.
        let polys = sh_workload::osm_like_polygons(300, &uni, 15.0, 92);
        upload(&dfs, "/polys", &polys).unwrap();
        let pfile = build_index::<Polygon>(&dfs, "/polys", "/pidx", PartitionKind::StrPlus)
            .unwrap()
            .value;
        let got = range_spatial::<Polygon>(&dfs, &pfile, &query, "/poutp").unwrap();
        let expected = crate::ops::single::range_query(&polys, &query).value;
        assert_eq!(got.value.len(), expected.len());
    }

    #[test]
    fn ablation_options_do_not_change_results() {
        let dfs = Dfs::new(ClusterConfig::small_for_tests());
        let uni = Rect::new(0.0, 0.0, 1000.0, 1000.0);
        let pts = points(2000, Distribution::Uniform, &uni, 93);
        upload(&dfs, "/heap", &pts).unwrap();
        let file = build_index::<Point>(&dfs, "/heap", "/idx", PartitionKind::Grid)
            .unwrap()
            .value;
        let query = Rect::new(100.0, 100.0, 600.0, 600.0);
        let reference = range_spatial::<Point>(&dfs, &file, &query, "/o-ref").unwrap();
        for opts in [
            RangeOptions {
                filter: false,
                local_index: true,
            },
            RangeOptions {
                filter: true,
                local_index: false,
            },
            RangeOptions {
                filter: false,
                local_index: false,
            },
        ] {
            let got = range_spatial_with::<Point>(&dfs, &file, &query, opts).unwrap();
            assert_eq!(
                canon_points(got.value),
                canon_points(reference.value.clone()),
                "{opts:?}"
            );
        }
    }

    #[test]
    fn overlapping_index_works_without_dedup() {
        let dfs = Dfs::new(ClusterConfig::small_for_tests());
        let uni = Rect::new(0.0, 0.0, 1000.0, 1000.0);
        let pts = points(2000, Distribution::Gaussian, &uni, 8);
        upload(&dfs, "/heap", &pts).unwrap();
        let file = build_index::<Point>(&dfs, "/heap", "/idx", PartitionKind::Str)
            .unwrap()
            .value;
        let query = Rect::new(300.0, 300.0, 700.0, 700.0);
        let expected = crate::ops::single::range_query(&pts, &query).value;
        let got = range_spatial::<Point>(&dfs, &file, &query, "/out").unwrap();
        assert_eq!(canon_points(got.value), canon_points(expected));
    }
}
