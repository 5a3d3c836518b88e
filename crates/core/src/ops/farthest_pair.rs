//! Farthest pair (diameter).
//!
//! * **Hadoop** — hull-based: every split forwards its local convex hull,
//!   one reducer runs rotating calipers over the collected hull points
//!   (the merge is the bottleneck on circular data).
//! * **SpatialHadoop** ([`farthest_pair_spatial`]) — hull-based with the
//!   four-skyline partition filter: only hull-candidate partitions are
//!   read at all. The right plan when the hull is small (uniform,
//!   Gaussian, real map data).
//! * **Pair-pruning** ([`farthest_pair_pairs`]) — the paper's §8.2
//!   fallback for hull-heavy data (circular worst case): for every pair
//!   of partitions compute a guaranteed *lower* bound (farthest parallel
//!   sides of the two minimal MBRs) and an *upper* bound (max corner
//!   distance); any pair whose upper bound is below the greatest lower
//!   bound can never win and is never read. This avoids ever collecting
//!   the full hull on one machine.

use std::collections::HashSet;

use sh_dfs::Dfs;
use sh_geom::algorithms::closest_pair::PointPair;
use sh_geom::algorithms::convex_hull::convex_hull;
use sh_geom::algorithms::farthest_pair::farthest_pair_on_hull;
use sh_geom::Point;
use sh_mapreduce::{InputSplit, JobBuilder, MapContext, ReduceContext, Reducer, Rows};

use crate::catalog::SpatialFile;
use crate::mrlayer::{ByRecords, RecordMapper};
use crate::opresult::{OpError, OpResult};

struct HullForwardMapper;

impl RecordMapper for HullForwardMapper {
    type R = Point;
    type K = u8;
    type V = (f64, f64);

    fn map_records(
        &self,
        _split: &InputSplit,
        points: Vec<Point>,
        ctx: &mut MapContext<u8, (f64, f64)>,
    ) {
        for p in convex_hull(&points) {
            ctx.emit(1, (p.x, p.y));
        }
    }
}

struct CalipersReducer;

impl Reducer for CalipersReducer {
    type K = u8;
    type V = (f64, f64);

    fn reduce(&self, _key: &u8, values: Vec<(f64, f64)>, ctx: &mut ReduceContext) {
        let pts: Vec<Point> = values.iter().map(|&(x, y)| Point::new(x, y)).collect();
        let hull = convex_hull(&pts);
        if let Some(pair) = farthest_pair_on_hull(&hull) {
            ctx.output(&format!(
                "{} {} {} {}",
                pair.a.x, pair.a.y, pair.b.x, pair.b.y
            ));
        }
    }
}

/// Hadoop farthest pair: hull forwarding + single-reducer calipers.
pub fn farthest_pair_hadoop(dfs: &Dfs, heap: &str) -> Result<OpResult<Option<PointPair>>, OpError> {
    let job = JobBuilder::new(dfs, &format!("fp-hadoop:{heap}"))
        .input_file(heap)?
        .mapper(ByRecords(HullForwardMapper))
        .reducer(CalipersReducer, 1)
        .build()?
        .run()?;
    let value = parse_pair(&job.rows)?;
    let sel = sh_trace::Selectivity::full_scan(job.map_tasks(), value.is_some() as u64 * 2);
    Ok(OpResult::new(value, vec![job]).with_selectivity(sel))
}

struct PairFarthestMapper;

impl RecordMapper for PairFarthestMapper {
    type R = Point;
    type K = u8;
    type V = (f64, f64, f64, f64);

    // `points` holds both partitions of a pair split.
    fn map_records(
        &self,
        _split: &InputSplit,
        points: Vec<Point>,
        ctx: &mut MapContext<u8, (f64, f64, f64, f64)>,
    ) {
        let hull = convex_hull(&points);
        if let Some(pair) = farthest_pair_on_hull(&hull) {
            ctx.emit(1, (pair.a.x, pair.a.y, pair.b.x, pair.b.y));
        }
    }
}

struct MaxPairReducer;

impl Reducer for MaxPairReducer {
    type K = u8;
    type V = (f64, f64, f64, f64);

    fn reduce(&self, _key: &u8, values: Vec<(f64, f64, f64, f64)>, ctx: &mut ReduceContext) {
        let best = values
            .iter()
            .map(|&(ax, ay, bx, by)| PointPair::new(Point::new(ax, ay), Point::new(bx, by)))
            .max_by(|a, b| a.distance.total_cmp(&b.distance));
        if let Some(pair) = best {
            ctx.output(&format!(
                "{} {} {} {}",
                pair.a.x, pair.a.y, pair.b.x, pair.b.y
            ));
        }
    }
}

/// SpatialHadoop farthest pair: four-skyline partition filter + local
/// hulls + single-reducer rotating calipers. The default plan (hull is
/// small on most data).
pub fn farthest_pair_spatial(
    dfs: &Dfs,
    file: &SpatialFile,
) -> Result<OpResult<Option<PointPair>>, OpError> {
    let keep: std::collections::HashSet<usize> =
        crate::ops::convex_hull::hull_candidate_partitions(file)
            .into_iter()
            .collect();
    let pruned = file.partitions.len() - keep.len();
    let splits = crate::mrlayer::SpatialFileSplitter::splits(dfs, file, |m| keep.contains(&m.id))?;
    let mut sel = crate::mrlayer::splitter_selectivity(file, &splits);
    let mut job = JobBuilder::new(dfs, &format!("fp-spatial:{}", file.dir))
        .input_splits(splits)
        .mapper(ByRecords(HullForwardMapper))
        .reducer(CalipersReducer, 1)
        .build()?
        .run()?;
    job.set_counter("fp.partitions.pruned", pruned as u64);
    let value = parse_pair(&job.rows)?;
    sel.records_emitted = value.is_some() as u64 * 2;
    Ok(OpResult::new(value, vec![job]).with_selectivity(sel))
}

/// Pair-pruning farthest pair (the paper's fallback when the hull is too
/// large for a single-machine merge): two-pass lower/upper-bound filter
/// over partition pairs, then one map task per surviving pair.
pub fn farthest_pair_pairs(
    dfs: &Dfs,
    file: &SpatialFile,
) -> Result<OpResult<Option<PointPair>>, OpError> {
    let n = file.partitions.len();
    // Pass 1: greatest lower bound over all (unordered) partition pairs,
    // including a partition with itself.
    let mut glb = 0.0f64;
    for i in 0..n {
        for j in i..n {
            let a = file.partitions[i].mbr_rect();
            let b = file.partitions[j].mbr_rect();
            let lb = if i == j {
                // A minimal MBR guarantees points on opposite sides.
                a.width().max(a.height())
            } else {
                a.min_guaranteed_distance_rect(&b)
            };
            glb = glb.max(lb);
        }
    }
    // Pass 2: keep pairs whose upper bound can still reach the GLB.
    let mut pairs: Vec<(usize, usize)> = Vec::new();
    for i in 0..n {
        for j in i..n {
            let a = file.partitions[i].mbr_rect();
            let b = file.partitions[j].mbr_rect();
            if a.max_distance_rect(&b) >= glb - 1e-9 {
                pairs.push((i, j));
            }
        }
    }
    let total_pairs = n * (n + 1) / 2;

    // Build one two-partition split per surviving pair. A partition's
    // blocks may appear in several splits — that re-read is the price of
    // pairwise processing, as in the paper.
    let mut touched: HashSet<usize> = HashSet::new();
    let mut splits = Vec::with_capacity(pairs.len());
    for &(i, j) in &pairs {
        touched.insert(i);
        touched.insert(j);
        let pa = &file.partitions[i];
        let left = InputSplit::whole_file(dfs, &pa.path)?;
        if i == j {
            splits.push(left.with_partition(pa.id, pa.cell));
            continue;
        }
        let right = InputSplit::whole_file(dfs, &file.partitions[j].path)?;
        splits.push(InputSplit::pair(left, right).with_partition(i * n + j, pa.cell));
    }
    let mut job = JobBuilder::new(dfs, &format!("fp-spatial:{}", file.dir))
        .input_splits(splits)
        .mapper(ByRecords(PairFarthestMapper))
        .reducer(MaxPairReducer, 1)
        .build()?
        .run()?;
    job.set_counter("fp.pairs.considered", total_pairs as u64);
    job.set_counter("fp.pairs.processed", pairs.len() as u64);
    let value = parse_pair(&job.rows)?;
    // Selectivity counts partition *pairs*: the unit the two-pass
    // bound filter prunes.
    let mut sel = sh_trace::Selectivity::of_split(total_pairs, pairs.len(), 0);
    sel.records_emitted = value.is_some() as u64 * 2;
    Ok(OpResult::new(value, vec![job]).with_selectivity(sel))
}

/// The `x1 y1 x2 y2` row a closest- or farthest-pair job answers with,
/// if it found a pair.
pub(super) fn parse_pair(rows: &Rows) -> Result<Option<PointPair>, OpError> {
    match rows.lines().next() {
        None => Ok(None),
        Some(line) => {
            let v: Vec<f64> = line
                .split_ascii_whitespace()
                .map(|t| t.parse().map_err(|_| OpError::Corrupt(line.to_string())))
                .collect::<Result<_, _>>()?;
            Ok(Some(
                PointPair::new(Point::new(v[0], v[1]), Point::new(v[2], v[3])).canonical(),
            ))
        }
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

    fn run(dist: Distribution, seed: u64) {
        let dfs = Dfs::new(ClusterConfig::small_for_tests());
        let uni = Rect::new(0.0, 0.0, 1000.0, 1000.0);
        let pts = points(2500, dist, &uni, seed);
        upload(&dfs, "/heap", &pts).unwrap();
        let file = build_index::<Point>(&dfs, "/heap", "/idx", PartitionKind::StrPlus)
            .unwrap()
            .value;
        let expected = single::farthest_pair_single(&pts).value.unwrap();

        let h = farthest_pair_hadoop(&dfs, "/heap").unwrap();
        assert!(
            (h.value.unwrap().distance - expected.distance).abs() < 1e-9,
            "hadoop {}",
            dist.name()
        );

        let s = farthest_pair_spatial(&dfs, &file).unwrap();
        assert!(
            (s.value.unwrap().distance - expected.distance).abs() < 1e-9,
            "spatial {}",
            dist.name()
        );
        assert!(
            s.counter("fp.partitions.pruned") > 0,
            "{}: the four-skyline filter must prune interior partitions",
            dist.name()
        );

        let pp = farthest_pair_pairs(&dfs, &file).unwrap();
        assert!(
            (pp.value.unwrap().distance - expected.distance).abs() < 1e-9,
            "pairs {}",
            dist.name()
        );
        assert!(
            pp.counter("fp.pairs.processed") < pp.counter("fp.pairs.considered"),
            "{}: pair pruning must fire ({} of {})",
            dist.name(),
            pp.counter("fp.pairs.processed"),
            pp.counter("fp.pairs.considered")
        );
    }

    #[test]
    fn matches_baseline_uniform() {
        run(Distribution::Uniform, 71);
    }

    #[test]
    fn matches_baseline_gaussian() {
        run(Distribution::Gaussian, 72);
    }

    #[test]
    fn matches_baseline_circular_worst_case() {
        // Circular data maximizes the hull; correctness must hold even
        // though pruning is less effective.
        let dfs = Dfs::new(ClusterConfig::small_for_tests());
        let uni = Rect::new(0.0, 0.0, 1000.0, 1000.0);
        let pts = points(2000, Distribution::Circular, &uni, 73);
        upload(&dfs, "/heap", &pts).unwrap();
        let file = build_index::<Point>(&dfs, "/heap", "/idx", PartitionKind::Grid)
            .unwrap()
            .value;
        let expected = single::farthest_pair_single(&pts).value.unwrap();
        let s = farthest_pair_pairs(&dfs, &file).unwrap();
        assert!((s.value.unwrap().distance - expected.distance).abs() < 1e-9);
    }
}
