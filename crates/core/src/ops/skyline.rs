//! Skyline (maximal points).
//!
//! * **Hadoop** — every split computes its local skyline (a massive
//!   reduction), one reducer merges.
//! * **SpatialHadoop** — adds the *filter* step: a partition whose MBR is
//!   dominated by another partition's MBR cannot contribute and is never
//!   read. Uniform data leaves only the handful of partitions along the
//!   top-right staircase.
//! * **Output-sensitive** — for disjoint indexes: the driver computes the
//!   global *dominance-power set* from partition MBR corners (top-left +
//!   bottom-right per partition); each mapper prunes its local skyline
//!   against it and writes surviving points straight to the output — no
//!   merge step, so the operation scales even when the skyline itself is
//!   huge (anti-correlated data).

use std::collections::{HashMap, HashSet};

use sh_dfs::Dfs;
use sh_geom::algorithms::skyline::{not_dominated, skyline};
use sh_geom::{Point, Record, Rect};
use sh_mapreduce::{InputSplit, JobBuilder, MapContext, ReduceContext, Reducer, Rows};

use crate::catalog::SpatialFile;
use crate::mrlayer::{ByRecords, RecordMapper, SpatialFileSplitter};
use crate::opresult::{OpError, OpResult};

struct LocalSkylineMapper;

impl RecordMapper for LocalSkylineMapper {
    type R = Point;
    type K = u8;
    type V = (f64, f64);

    fn map_records(
        &self,
        _split: &InputSplit,
        points: Vec<Point>,
        ctx: &mut MapContext<u8, (f64, f64)>,
    ) {
        let local = skyline(&points);
        ctx.counter("skyline.local.kept", local.len() as u64);
        for p in local {
            ctx.emit(1, (p.x, p.y));
        }
    }
}

struct GlobalSkylineReducer;

impl Reducer for GlobalSkylineReducer {
    type K = u8;
    type V = (f64, f64);

    fn reduce(&self, _key: &u8, values: Vec<(f64, f64)>, ctx: &mut ReduceContext) {
        let pts: Vec<Point> = values.iter().map(|&(x, y)| Point::new(x, y)).collect();
        for p in skyline(&pts) {
            ctx.output(&p.to_line());
        }
    }
}

struct IdentityPointMapper;

impl RecordMapper for IdentityPointMapper {
    type R = Point;
    type K = u8;
    type V = (f64, f64);

    fn map_records(
        &self,
        _split: &InputSplit,
        points: Vec<Point>,
        ctx: &mut MapContext<u8, (f64, f64)>,
    ) {
        for p in points {
            ctx.emit(1, (p.x, p.y));
        }
    }
}

/// Ablation: skyline *without* the map-side local-skyline reduction —
/// every input point is shuffled to the single reducer. Demonstrates
/// that the local pruning step is what makes the Hadoop skyline viable
/// at all (DESIGN.md §5).
pub fn skyline_hadoop_naive(dfs: &Dfs, heap: &str) -> Result<OpResult<Vec<Point>>, OpError> {
    let job = JobBuilder::new(dfs, &format!("skyline-naive:{heap}"))
        .input_file(heap)?
        .mapper(ByRecords(IdentityPointMapper))
        .reducer(GlobalSkylineReducer, 1)
        .build()?
        .run()?;
    let value = sorted_points(&job.rows)?;
    let sel = sh_trace::Selectivity::full_scan(job.map_tasks(), value.len() as u64);
    Ok(OpResult::new(value, vec![job]).with_selectivity(sel))
}

/// Hadoop skyline: full scan, local skyline per split, single-reducer
/// merge.
///
/// `_out_dir` is ignored; it goes when `shbench` next changes.
pub fn skyline_hadoop(
    dfs: &Dfs,
    heap: &str,
    _out_dir: &str,
) -> Result<OpResult<Vec<Point>>, OpError> {
    let job = JobBuilder::new(dfs, &format!("skyline-hadoop:{heap}"))
        .input_file(heap)?
        .mapper(ByRecords(LocalSkylineMapper))
        .reducer(GlobalSkylineReducer, 1)
        .build()?
        .run()?;
    let value = sorted_points(&job.rows)?;
    let sel = sh_trace::Selectivity::full_scan(job.map_tasks(), value.len() as u64);
    Ok(OpResult::new(value, vec![job]).with_selectivity(sel))
}

/// The partition filter: keeps only partitions whose MBR is not
/// dominated by any other partition's MBR.
pub fn non_dominated_partitions(file: &SpatialFile) -> Vec<usize> {
    let mbrs: Vec<Rect> = file.partitions.iter().map(|m| m.mbr_rect()).collect();
    (0..mbrs.len())
        .filter(|&i| {
            !mbrs
                .iter()
                .enumerate()
                .any(|(j, m)| j != i && m.dominates_rect(&mbrs[i]))
        })
        .map(|i| file.partitions[i].id)
        .collect()
}

/// SpatialHadoop skyline: partition filter + local/global skyline.
pub fn skyline_spatial(dfs: &Dfs, file: &SpatialFile) -> Result<OpResult<Vec<Point>>, OpError> {
    let keep: HashSet<usize> = non_dominated_partitions(file).into_iter().collect();
    let pruned = file.partitions.len() - keep.len();
    let splits = SpatialFileSplitter::splits(dfs, file, |m| keep.contains(&m.id))?;
    let mut sel = crate::mrlayer::splitter_selectivity(file, &splits);
    let mut job = JobBuilder::new(dfs, &format!("skyline-spatial:{}", file.dir))
        .input_splits(splits)
        .mapper(ByRecords(LocalSkylineMapper))
        .reducer(GlobalSkylineReducer, 1)
        .build()?
        .run()?;
    job.set_counter("skyline.partitions.pruned", pruned as u64);
    let value = sorted_points(&job.rows)?;
    sel.records_emitted = value.len() as u64;
    Ok(OpResult::new(value, vec![job]).with_selectivity(sel))
}

struct OutputSensitiveMapper {
    /// Each kept partition's dominance-power set: that of all *other*
    /// partitions, by partition id.
    dominance: HashMap<usize, Vec<Point>>,
}

impl RecordMapper for OutputSensitiveMapper {
    type R = Point;
    type K = u8;
    type V = u8;

    fn map_records(&self, split: &InputSplit, points: Vec<Point>, ctx: &mut MapContext<u8, u8>) {
        let sky_c = &self.dominance[&split.partition_id.expect("a kept partition's split")];
        let flushed = ctx.register_counter("skyline.flushed");
        let pruned = ctx.register_counter("skyline.pruned.points");
        let local = skyline(&points);
        for p in local {
            if not_dominated(&p, sky_c) {
                ctx.output(&p.to_line());
                ctx.inc(flushed, 1);
            } else {
                ctx.inc(pruned, 1);
            }
        }
    }
}

/// Output-sensitive skyline (disjoint indexes only): map-only, each
/// machine writes its part of the final skyline directly.
pub fn skyline_output_sensitive(
    dfs: &Dfs,
    file: &SpatialFile,
) -> Result<OpResult<Vec<Point>>, OpError> {
    if !file.is_disjoint() {
        return Err(OpError::Unsupported(
            "output-sensitive skyline requires a disjoint partitioning".into(),
        ));
    }
    let keep: HashSet<usize> = non_dominated_partitions(file).into_iter().collect();
    let splits = SpatialFileSplitter::splits(dfs, file, |m| keep.contains(&m.id))?;
    // Dominance-power set of every *other* partition: top-left and
    // bottom-right corners of their data MBRs, reduced to a skyline
    // (Theorem 4 caps the useful subset; the skyline is even smaller).
    let dominance = keep
        .iter()
        .map(|&id| {
            let dp: Vec<Point> = file
                .partitions
                .iter()
                .filter(|other| other.id != id)
                .flat_map(|other| {
                    let m = other.mbr_rect();
                    [m.top_left(), m.bottom_right()]
                })
                .collect();
            (id, skyline(&dp))
        })
        .collect();
    let mut sel = crate::mrlayer::splitter_selectivity(file, &splits);
    let job = JobBuilder::new(dfs, &format!("skyline-os:{}", file.dir))
        .input_splits(splits)
        .mapper(ByRecords(OutputSensitiveMapper { dominance }))
        .map_only()?
        .run()?;
    let value = sorted_points(&job.rows)?;
    sel.records_emitted = value.len() as u64;
    Ok(OpResult::new(value, vec![job]).with_selectivity(sel))
}

fn sorted_points(rows: &Rows) -> Result<Vec<Point>, OpError> {
    let mut pts: Vec<Point> = crate::codec::parse_output_records(rows)?;
    pts.sort_by(Point::cmp_xy);
    Ok(pts)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::single;
    use crate::storage::{build_index, upload};
    use sh_dfs::ClusterConfig;
    use sh_index::PartitionKind;
    use sh_workload::{points, Distribution};

    fn canon(v: &[Point]) -> Vec<(i64, i64)> {
        v.iter()
            .map(|p| ((p.x * 1e6) as i64, (p.y * 1e6) as i64))
            .collect()
    }

    fn run_all(dist: Distribution, seed: u64) {
        let dfs = Dfs::new(ClusterConfig::small_for_tests());
        let uni = Rect::new(0.0, 0.0, 1000.0, 1000.0);
        let pts = points(3000, dist, &uni, seed);
        upload(&dfs, "/heap", &pts).unwrap();
        let file = build_index::<Point>(&dfs, "/heap", "/idx", PartitionKind::StrPlus)
            .unwrap()
            .value;
        let mut expected = single::skyline_single(&pts).value;
        expected.sort_by(Point::cmp_xy);

        let h = skyline_hadoop(&dfs, "/heap", "/out-h").unwrap();
        assert_eq!(canon(&h.value), canon(&expected), "hadoop, {}", dist.name());

        let s = skyline_spatial(&dfs, &file).unwrap();
        assert_eq!(
            canon(&s.value),
            canon(&expected),
            "spatial, {}",
            dist.name()
        );

        let os = skyline_output_sensitive(&dfs, &file).unwrap();
        assert_eq!(canon(&os.value), canon(&expected), "os, {}", dist.name());
    }

    #[test]
    fn all_variants_match_baseline_uniform() {
        run_all(Distribution::Uniform, 41);
    }

    #[test]
    fn all_variants_match_baseline_gaussian() {
        run_all(Distribution::Gaussian, 42);
    }

    #[test]
    fn all_variants_match_baseline_correlated() {
        run_all(Distribution::Correlated, 43);
    }

    #[test]
    fn all_variants_match_baseline_anti_correlated() {
        run_all(Distribution::AntiCorrelated, 44);
    }

    #[test]
    fn spatial_prunes_partitions_on_uniform_data() {
        let dfs = Dfs::new(ClusterConfig::small_for_tests());
        let uni = Rect::new(0.0, 0.0, 1000.0, 1000.0);
        let pts = points(5000, Distribution::Uniform, &uni, 45);
        upload(&dfs, "/heap", &pts).unwrap();
        let file = build_index::<Point>(&dfs, "/heap", "/idx", PartitionKind::StrPlus)
            .unwrap()
            .value;
        let s = skyline_spatial(&dfs, &file).unwrap();
        assert!(
            s.counter("skyline.partitions.pruned") > 0,
            "uniform data must allow pruning ({} partitions)",
            file.partitions.len()
        );
        assert!(s.map_tasks() < file.partitions.len());
    }

    #[test]
    fn output_sensitive_rejects_overlapping_index() {
        let dfs = Dfs::new(ClusterConfig::small_for_tests());
        let uni = Rect::new(0.0, 0.0, 1000.0, 1000.0);
        let pts = points(1000, Distribution::Uniform, &uni, 46);
        upload(&dfs, "/heap", &pts).unwrap();
        let file = build_index::<Point>(&dfs, "/heap", "/idx", PartitionKind::Str)
            .unwrap()
            .value;
        assert!(matches!(
            skyline_output_sensitive(&dfs, &file),
            Err(OpError::Unsupported(_))
        ));
    }

    #[test]
    fn output_sensitive_never_merges() {
        let dfs = Dfs::new(ClusterConfig::small_for_tests());
        let uni = Rect::new(0.0, 0.0, 1000.0, 1000.0);
        let pts = points(4000, Distribution::AntiCorrelated, &uni, 47);
        upload(&dfs, "/heap", &pts).unwrap();
        let file = build_index::<Point>(&dfs, "/heap", "/idx", PartitionKind::Grid)
            .unwrap()
            .value;
        let os = skyline_output_sensitive(&dfs, &file).unwrap();
        assert_eq!(
            os.jobs[0].profile.phase_tasks("reduce"),
            0,
            "map-only by construction"
        );
        // Worst case: nearly everything is on the skyline, and it is all
        // written from the map side.
        assert!(os.value.len() > 3000);
    }
}
