//! Closest pair of points.
//!
//! SpatialHadoop-only: the Hadoop heap-file version is either incorrect
//! (random partitioning can split the true pair) or needs a full presort,
//! as the paper discusses — so the distributed variant requires a
//! *disjoint* spatial index. Each partition computes its local closest
//! pair (distance δ) and forwards only the pair plus the points within δ
//! of its cell boundary; a single reducer finishes on that tiny candidate
//! set.

use sh_dfs::Dfs;
use sh_geom::algorithms::closest_pair::{closest_pair, PointPair};
use sh_geom::Point;
use sh_mapreduce::{InputSplit, JobBuilder, MapContext, ReduceContext, Reducer};

use super::farthest_pair::parse_pair;
use crate::catalog::SpatialFile;
use crate::mrlayer::{split_cell, ByRecords, RecordMapper, SpatialFileSplitter};
use crate::opresult::{OpError, OpResult};

struct LocalClosestPairMapper;

impl RecordMapper for LocalClosestPairMapper {
    type R = Point;
    type K = u8;
    type V = (f64, f64);

    fn map_records(
        &self,
        split: &InputSplit,
        points: Vec<Point>,
        ctx: &mut MapContext<u8, (f64, f64)>,
    ) {
        let cell = split_cell(split);
        let local = closest_pair(&points);
        let delta = local.map(|p| p.distance).unwrap_or(f64::INFINITY);
        let mut forwarded = 0u64;
        for p in &points {
            // Forward the pair's endpoints and everything within δ of the
            // cell boundary — only those can pair with a neighbour cell.
            let near_boundary = p.x - cell.x1 < delta
                || cell.x2 - p.x < delta
                || p.y - cell.y1 < delta
                || cell.y2 - p.y < delta;
            let in_pair = local
                .map(|pair| pair.a.approx_eq(p) || pair.b.approx_eq(p))
                .unwrap_or(false);
            if near_boundary || in_pair {
                ctx.emit(1, (p.x, p.y));
                forwarded += 1;
            }
        }
        ctx.counter("closestpair.candidates", forwarded);
        ctx.counter("closestpair.points", points.len() as u64);
    }
}

struct GlobalClosestPairReducer;

impl Reducer for GlobalClosestPairReducer {
    type K = u8;
    type V = (f64, f64);

    fn reduce(&self, _key: &u8, values: Vec<(f64, f64)>, ctx: &mut ReduceContext) {
        let pts: Vec<Point> = values.iter().map(|&(x, y)| Point::new(x, y)).collect();
        if let Some(pair) = closest_pair(&pts) {
            ctx.output(&format!(
                "{} {} {} {}",
                pair.a.x, pair.a.y, pair.b.x, pair.b.y
            ));
        }
    }
}

/// The *unsound* Hadoop heap-file closest pair the paper warns against:
/// each random split reports its local closest pair, a reducer takes the
/// minimum. Random partitioning can place the true pair in different
/// splits, where neither machine ever compares them — so this can return
/// a non-optimal pair. Provided (and tested) as the paper's negative
/// demonstration of why the operation needs a spatial partitioning.
pub fn closest_pair_hadoop_unsound(
    dfs: &Dfs,
    heap: &str,
) -> Result<OpResult<Option<PointPair>>, OpError> {
    struct NaiveLocalMapper;
    impl RecordMapper for NaiveLocalMapper {
        type R = Point;
        type K = u8;
        type V = (f64, f64, f64, f64);
        fn map_records(
            &self,
            _split: &InputSplit,
            points: Vec<Point>,
            ctx: &mut MapContext<u8, (f64, f64, f64, f64)>,
        ) {
            if let Some(pair) = closest_pair(&points) {
                ctx.emit(1, (pair.a.x, pair.a.y, pair.b.x, pair.b.y));
            }
        }
    }
    struct MinReducer;
    impl Reducer for MinReducer {
        type K = u8;
        type V = (f64, f64, f64, f64);
        fn reduce(&self, _k: &u8, values: Vec<(f64, f64, f64, f64)>, ctx: &mut ReduceContext) {
            let best = values
                .into_iter()
                .map(|(ax, ay, bx, by)| PointPair::new(Point::new(ax, ay), Point::new(bx, by)))
                .min_by(|a, b| a.distance.total_cmp(&b.distance));
            if let Some(pair) = best {
                ctx.output(&format!(
                    "{} {} {} {}",
                    pair.a.x, pair.a.y, pair.b.x, pair.b.y
                ));
            }
        }
    }
    let job = JobBuilder::new(dfs, &format!("closest-pair-unsound:{heap}"))
        .input_file(heap)?
        .mapper(ByRecords(NaiveLocalMapper))
        .reducer(MinReducer, 1)
        .build()?
        .run()?;
    let value = parse_pair(&job.rows)?;
    let emitted = value.is_some() as u64 * 2;
    let sel = sh_trace::Selectivity::full_scan(job.map_tasks(), emitted);
    Ok(OpResult::new(value, vec![job]).with_selectivity(sel))
}

/// Distributed closest pair over a disjoint index.
pub fn closest_pair_spatial(
    dfs: &Dfs,
    file: &SpatialFile,
) -> Result<OpResult<Option<PointPair>>, OpError> {
    if !file.is_disjoint() {
        return Err(OpError::Unsupported(
            "closest pair requires a disjoint partitioning".into(),
        ));
    }
    let splits = SpatialFileSplitter::all_splits(dfs, file)?;
    let mut sel = crate::mrlayer::splitter_selectivity(file, &splits);
    let job = JobBuilder::new(dfs, &format!("closest-pair:{}", file.dir))
        .input_splits(splits)
        .mapper(ByRecords(LocalClosestPairMapper))
        .reducer(GlobalClosestPairReducer, 1)
        .build()?
        .run()?;
    let value = parse_pair(&job.rows)?;
    sel.records_emitted = value.is_some() as u64 * 2;
    Ok(OpResult::new(value, vec![job]).with_selectivity(sel))
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

    fn run(dist: Distribution, seed: u64, kind: PartitionKind) {
        let dfs = Dfs::new(ClusterConfig::small_for_tests());
        let uni = Rect::new(0.0, 0.0, 1000.0, 1000.0);
        let pts = points(3000, dist, &uni, seed);
        upload(&dfs, "/heap", &pts).unwrap();
        let file = build_index::<Point>(&dfs, "/heap", "/idx", kind)
            .unwrap()
            .value;
        let expected = single::closest_pair_single(&pts).value.unwrap();
        let got = closest_pair_spatial(&dfs, &file).unwrap();
        let pair = got.value.unwrap();
        assert!(
            (pair.distance - expected.distance).abs() < 1e-9,
            "{}: {} vs {}",
            dist.name(),
            pair.distance,
            expected.distance
        );
        // Pruning shipped only a fraction of the points to the reducer.
        assert!(
            got.counter("closestpair.candidates") < got.counter("closestpair.points"),
            "pruning must fire"
        );
    }

    #[test]
    fn matches_baseline_uniform_strplus() {
        run(Distribution::Uniform, 61, PartitionKind::StrPlus);
    }

    #[test]
    fn matches_baseline_gaussian_grid() {
        run(Distribution::Gaussian, 62, PartitionKind::Grid);
    }

    #[test]
    fn matches_baseline_osm_like_quadtree() {
        let dfs = Dfs::new(ClusterConfig::small_for_tests());
        let uni = Rect::new(0.0, 0.0, 1000.0, 1000.0);
        let pts = sh_workload::osm_like_points(2500, &uni, 5, 63);
        upload(&dfs, "/heap", &pts).unwrap();
        let file = build_index::<Point>(&dfs, "/heap", "/idx", PartitionKind::QuadTree)
            .unwrap()
            .value;
        let expected = single::closest_pair_single(&pts).value.unwrap();
        let got = closest_pair_spatial(&dfs, &file).unwrap();
        assert!((got.value.unwrap().distance - expected.distance).abs() < 1e-9);
    }

    #[test]
    fn pair_straddling_cells_is_found() {
        // Two points just across a partition boundary must win even when
        // each cell has its own closer-looking local pair.
        let dfs = Dfs::new(ClusterConfig::small_for_tests());
        let mut pts = points(
            1000,
            Distribution::Uniform,
            &Rect::new(0.0, 0.0, 1000.0, 1000.0),
            64,
        );
        pts.push(Point::new(499.9999, 500.0));
        pts.push(Point::new(500.0001, 500.0));
        upload(&dfs, "/heap", &pts).unwrap();
        let file = build_index::<Point>(&dfs, "/heap", "/idx", PartitionKind::Grid)
            .unwrap()
            .value;
        let got = closest_pair_spatial(&dfs, &file).unwrap();
        assert!(got.value.unwrap().distance <= 0.0002 + 1e-9);
    }

    #[test]
    fn heap_variant_is_demonstrably_unsound() {
        // Adversarial layout: the two true closest points are separated
        // by enough filler records that the default per-block splitter
        // puts them in different splits.
        let dfs = Dfs::new(ClusterConfig::small_for_tests()); // 8 KiB blocks
        let mut pts: Vec<Point> = Vec::new();
        pts.push(Point::new(500.0, 500.0));
        // Filler points, far apart from each other (grid spacing 50).
        for i in 0..2500u32 {
            let gx = (i % 50) as f64 * 50.0;
            let gy = (i / 50) as f64 * 50.0;
            pts.push(Point::new(5_000.0 + gx, 5_000.0 + gy));
        }
        pts.push(Point::new(500.05, 500.0)); // true partner, ~blocks away
        upload(&dfs, "/adv", &pts).unwrap();
        assert!(dfs.stat("/adv").unwrap().num_blocks > 1, "needs >1 split");
        let truth = single::closest_pair_single(&pts).value.unwrap();
        assert!((truth.distance - 0.05).abs() < 1e-9);
        let got = closest_pair_hadoop_unsound(&dfs, "/adv")
            .unwrap()
            .value
            .unwrap();
        assert!(
            got.distance > truth.distance + 1.0,
            "the heap variant must miss the cross-split pair ({} vs {})",
            got.distance,
            truth.distance
        );
        // The spatial variant gets it right on the same data.
        let file = build_index::<Point>(&dfs, "/adv", "/adv-idx", PartitionKind::Grid)
            .unwrap()
            .value;
        let fixed = closest_pair_spatial(&dfs, &file).unwrap().value.unwrap();
        assert!((fixed.distance - truth.distance).abs() < 1e-9);
    }

    #[test]
    fn rejects_overlapping_index() {
        let dfs = Dfs::new(ClusterConfig::small_for_tests());
        let uni = Rect::new(0.0, 0.0, 1000.0, 1000.0);
        let pts = points(500, Distribution::Uniform, &uni, 65);
        upload(&dfs, "/heap", &pts).unwrap();
        let file = build_index::<Point>(&dfs, "/heap", "/idx", PartitionKind::ZCurve)
            .unwrap()
            .value;
        assert!(matches!(
            closest_pair_spatial(&dfs, &file),
            Err(OpError::Unsupported(_))
        ));
    }
}
