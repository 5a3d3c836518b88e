//! k-nearest-neighbours query.
//!
//! * **Hadoop** — one full-scan round: every split reports its local
//!   top-k, a single reducer merges.
//! * **SpatialHadoop** — starts from the single partition containing the
//!   query point and answers from its local index; if the circle through
//!   the k-th neighbour pokes outside the processed partitions, further
//!   rounds fetch only the partitions the circle touches. Selective
//!   queries finish in one round over one partition — the source of the
//!   order-of-magnitude throughput gap in experiments E5/E6.

use std::collections::HashSet;
use std::marker::PhantomData;

use sh_dfs::Dfs;
use sh_geom::{Point, Record};
use sh_mapreduce::{
    InputSplit, JobBuilder, JobOutcome, MapContext, Mapper, ReduceContext, Reducer,
};

use crate::catalog::SpatialFile;
use crate::codec::parse_output_records;
use crate::mrlayer::{
    task, task_cached, ByRecords, Partition, RecordMapper, SpatialFileSplitter, SpatialRecordReader,
};
use crate::opresult::{OpError, OpResult};
use sh_trace::Selectivity;

/// Local top-k of a point set (ascending distance; ties by coordinates).
fn local_top_k(points: &[Point], q: &Point, k: usize) -> Vec<Point> {
    let mut with_d: Vec<(f64, Point)> = points.iter().map(|p| (p.distance_sq(q), *p)).collect();
    with_d.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp_xy(&b.1)));
    with_d.into_iter().take(k).map(|(_, p)| p).collect()
}

struct KnnScanMapper {
    q: Point,
    k: usize,
}

impl RecordMapper for KnnScanMapper {
    type R = Point;
    type K = u8;
    type V = (f64, f64);

    fn map_records(
        &self,
        _split: &InputSplit,
        points: Vec<Point>,
        ctx: &mut MapContext<u8, (f64, f64)>,
    ) {
        for p in local_top_k(&points, &self.q, self.k) {
            ctx.emit(1, (p.x, p.y));
        }
    }
}

struct KnnMergeReducer {
    q: Point,
    k: usize,
}

impl Reducer for KnnMergeReducer {
    type K = u8;
    type V = (f64, f64);

    fn reduce(&self, _key: &u8, values: Vec<(f64, f64)>, ctx: &mut ReduceContext) {
        let candidates: Vec<Point> = values.iter().map(|&(x, y)| Point::new(x, y)).collect();
        for p in local_top_k(&candidates, &self.q, self.k) {
            ctx.output(&p.to_line());
        }
    }
}

/// Full-scan kNN over a heap file (the Hadoop baseline, one round).
///
/// `_out_dir` is ignored; it goes when `shbench` next changes.
pub fn knn_hadoop(
    dfs: &Dfs,
    heap: &str,
    q: &Point,
    k: usize,
    _out_dir: &str,
) -> Result<OpResult<Vec<Point>>, OpError> {
    let job = JobBuilder::new(dfs, &format!("knn-hadoop:{heap}"))
        .input_file(heap)?
        .mapper(ByRecords(KnnScanMapper { q: *q, k }))
        .reducer(KnnMergeReducer { q: *q, k }, 1)
        .build()?
        .run()?;
    let value: Vec<Point> = parse_output_records(&job.rows)?;
    let sel = Selectivity::full_scan(job.map_tasks(), value.len() as u64);
    Ok(OpResult::new(value, vec![job]).with_selectivity(sel))
}

struct KnnIndexMapper<R: Record> {
    dfs: Dfs,
    q: Point,
    k: usize,
    _r: PhantomData<fn() -> R>,
}

impl<R: Record> Mapper for KnnIndexMapper<R> {
    type K = u8;
    type V = u8;

    // One cached partition gives both the records and the local tree,
    // text or binary alike, before the engine reads the split.
    fn map_cached(&self, split: &InputSplit, ctx: &mut MapContext<u8, u8>) -> bool {
        let Some(part) = task_cached::<Point, _, _>(&self.dfs, &split.path, ctx) else {
            return false;
        };
        self.search(&part, ctx);
        true
    }

    fn map_bytes(&self, split: &InputSplit, data: &[u8], ctx: &mut MapContext<u8, u8>) {
        // `map_cached` missed: decode, index and cache the partition.
        let part = task(
            &split.path,
            SpatialRecordReader::open_after_probe::<Point>(
                &self.dfs,
                &split.path,
                data,
                ctx.input_blocks(),
            ),
        );
        self.search(&part, ctx);
    }
}

impl<R: Record> KnnIndexMapper<R> {
    /// Writes the partition's local top-k.
    fn search(&self, part: &Partition<Point>, ctx: &mut MapContext<u8, u8>) {
        // The local index answers the kNN directly (best-first search).
        let mut line = String::with_capacity(48);
        for (i, _) in part.tree().knn(&self.q, self.k) {
            line.clear();
            part.write_record(i, &mut line);
            ctx.output(&line);
        }
    }
}

/// Index-assisted kNN with the correctness loop (the SpatialHadoop
/// operation). The result carries one [`JobOutcome`] per round; the
/// round count is what experiment E6 reports as k grows.
///
/// `_out_dir` is ignored; it goes when `shbench` next changes.
pub fn knn_spatial(
    dfs: &Dfs,
    file: &SpatialFile,
    q: &Point,
    k: usize,
    _out_dir: &str,
) -> Result<OpResult<Vec<Point>>, OpError> {
    let mut jobs: Vec<JobOutcome> = Vec::new();
    let mut processed: HashSet<usize> = HashSet::new();
    let mut candidates: Vec<Point> = Vec::new();
    let total_records = file.total_records();

    // Round 1: the partition containing (or nearest to) the query point.
    let first = file
        .partitions
        .iter()
        .min_by(|a, b| {
            a.cell_rect()
                .min_distance(q)
                .total_cmp(&b.cell_rect().min_distance(q))
        })
        .ok_or_else(|| OpError::Unsupported("knn over an empty index".into()))?
        .id;
    let mut frontier: Vec<usize> = vec![first];
    let mut round = 0usize;
    loop {
        round += 1;
        let frontier_set: HashSet<usize> = frontier.iter().copied().collect();
        let splits = SpatialFileSplitter::splits(dfs, file, |m| frontier_set.contains(&m.id))?;
        let job = JobBuilder::new(dfs, &format!("knn-spatial:{}:round{round}", file.dir))
            .input_splits(splits)
            .mapper(KnnIndexMapper::<Point> {
                dfs: dfs.clone(),
                q: *q,
                k,
                _r: PhantomData,
            })
            .map_only()?
            .run()?;
        candidates.extend(parse_output_records::<Point>(&job.rows)?);
        jobs.push(job);
        processed.extend(frontier_set.iter().copied());

        let best = local_top_k(&candidates, q, k);
        // Termination: either we already hold every record, or the circle
        // through the k-th neighbour is covered by processed partitions.
        let enough = best.len() as u64 >= k.min(total_records as usize) as u64;
        let radius = if best.len() < k {
            f64::INFINITY
        } else {
            best.last().map(|p| p.distance(q)).unwrap_or(f64::INFINITY)
        };
        let needs: Vec<usize> = if radius.is_finite() {
            file.partitions
                .iter()
                .filter(|m| !processed.contains(&m.id))
                .filter(|m| m.mbr_rect().min_distance(q) < radius)
                .map(|m| m.id)
                .collect()
        } else {
            // Fewer than k points seen: expand outward to the nearest
            // unprocessed partitions until they plausibly hold the
            // missing neighbours (2x safety factor), instead of scanning
            // everything. The loop re-checks coverage, so this stays
            // exact.
            let missing = 2 * (k - best.len()) as u64;
            let mut nearest: Vec<&sh_index::PartitionMeta> = file
                .partitions
                .iter()
                .filter(|m| !processed.contains(&m.id))
                .collect();
            nearest.sort_by(|a, b| {
                a.mbr_rect()
                    .min_distance(q)
                    .total_cmp(&b.mbr_rect().min_distance(q))
            });
            let mut picked = Vec::new();
            let mut expected = 0u64;
            for m in nearest {
                picked.push(m.id);
                expected += m.records;
                if expected >= missing {
                    break;
                }
            }
            picked
        };
        if (enough && needs.is_empty()) || (processed.len() == file.partitions.len()) {
            let mut result = best;
            result.truncate(k);
            let records_scanned = file
                .partitions
                .iter()
                .filter(|m| processed.contains(&m.id))
                .map(|m| m.records)
                .sum();
            let mut sel =
                Selectivity::of_split(file.partitions.len(), processed.len(), records_scanned);
            sel.records_emitted = result.len() as u64;
            return Ok(OpResult::new(result, jobs).with_selectivity(sel));
        }
        frontier = if needs.is_empty() {
            // Not enough points seen yet: widen to the nearest
            // unprocessed partition.
            file.partitions
                .iter()
                .filter(|m| !processed.contains(&m.id))
                .min_by(|a, b| {
                    a.cell_rect()
                        .min_distance(q)
                        .total_cmp(&b.cell_rect().min_distance(q))
                })
                .map(|m| vec![m.id])
                .unwrap_or_default()
        } else {
            needs
        };
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::single;
    use crate::storage::{build_index, upload};
    use sh_dfs::ClusterConfig;
    use sh_geom::Rect;
    use sh_index::PartitionKind;
    use sh_workload::{points, Distribution};

    fn canon(v: &[Point]) -> Vec<(i64, i64)> {
        v.iter()
            .map(|p| ((p.x * 1e6) as i64, (p.y * 1e6) as i64))
            .collect()
    }

    fn setup() -> (Dfs, Vec<Point>, SpatialFile) {
        let dfs = Dfs::new(ClusterConfig::small_for_tests());
        let uni = Rect::new(0.0, 0.0, 1000.0, 1000.0);
        let pts = points(3000, Distribution::Uniform, &uni, 31);
        upload(&dfs, "/heap", &pts).unwrap();
        let file = build_index::<Point>(&dfs, "/heap", "/idx", PartitionKind::StrPlus)
            .unwrap()
            .value;
        (dfs, pts, file)
    }

    #[test]
    fn hadoop_knn_matches_baseline() {
        let (dfs, pts, _) = setup();
        let q = Point::new(400.0, 400.0);
        let expected = single::knn(&pts, &q, 10).value;
        let got = knn_hadoop(&dfs, "/heap", &q, 10, "/out").unwrap();
        assert_eq!(canon(&got.value), canon(&expected));
    }

    #[test]
    fn spatial_knn_matches_baseline_and_prunes() {
        let (dfs, pts, file) = setup();
        let q = Point::new(400.0, 400.0);
        for k in [1usize, 10, 50] {
            let expected = single::knn(&pts, &q, k).value;
            let got = knn_spatial(&dfs, &file, &q, k, &format!("/out-{k}")).unwrap();
            assert_eq!(canon(&got.value), canon(&expected), "k={k}");
            assert!(
                got.map_tasks() < file.partitions.len(),
                "k={k}: knn must not scan everything"
            );
        }
    }

    #[test]
    fn spatial_knn_near_boundary_needs_more_rounds_but_stays_correct() {
        let (dfs, pts, file) = setup();
        // A query right at a partition boundary region.
        let q = Point::new(500.0, 500.0);
        let expected = single::knn(&pts, &q, 25).value;
        let got = knn_spatial(&dfs, &file, &q, 25, "/out-b").unwrap();
        assert_eq!(canon(&got.value), canon(&expected));
        assert!(got.rounds() >= 1);
    }

    #[test]
    fn k_larger_than_dataset_returns_everything() {
        let dfs = Dfs::new(ClusterConfig::small_for_tests());
        let uni = Rect::new(0.0, 0.0, 100.0, 100.0);
        let pts = points(40, Distribution::Uniform, &uni, 5);
        upload(&dfs, "/small", &pts).unwrap();
        let file = build_index::<Point>(&dfs, "/small", "/sidx", PartitionKind::Grid)
            .unwrap()
            .value;
        let q = Point::new(50.0, 50.0);
        let got = knn_spatial(&dfs, &file, &q, 1000, "/out").unwrap();
        assert_eq!(got.value.len(), 40);
    }

    #[test]
    fn results_are_deterministic_across_runs() {
        let run_once = || {
            let (dfs, _, file) = setup();
            let q = Point::new(123.0, 789.0);
            knn_spatial(&dfs, &file, &q, 15, "/det").unwrap().value
        };
        let a = run_once();
        let b = run_once();
        assert_eq!(canon(&a), canon(&b));
    }

    #[test]
    fn query_outside_universe_works() {
        let (dfs, pts, file) = setup();
        let q = Point::new(-500.0, -500.0);
        let expected = single::knn(&pts, &q, 5).value;
        let got = knn_spatial(&dfs, &file, &q, 5, "/out-o").unwrap();
        assert_eq!(canon(&got.value), canon(&expected));
    }
}
