//! Convex hull.
//!
//! * **Hadoop** — local hull per split, single-reducer global hull.
//! * **SpatialHadoop** — the filter step keeps only partitions that can
//!   contribute to one of the *four skylines* (max-max, max-min, min-max,
//!   min-min); interior partitions are never read.
//! * **Enhanced** — the Theorem-3 direction test: a local hull vertex
//!   survives only if some direction exists in which it beats its own
//!   hull neighbours *and* every other partition's bounding box. Each
//!   machine prunes independently; the driver merges the few survivors.

use std::collections::HashSet;
use std::f64::consts::{PI, TAU};

use sh_dfs::Dfs;
use sh_geom::algorithms::convex_hull::convex_hull;
use sh_geom::{Point, Record, Rect};
use sh_mapreduce::{InputSplit, JobBuilder, MapContext, ReduceContext, Reducer, Rows};

use crate::catalog::SpatialFile;
use crate::mrlayer::{ByRecords, RecordMapper, SpatialFileSplitter};
use crate::opresult::{OpError, OpResult};

struct LocalHullMapper;

impl RecordMapper for LocalHullMapper {
    type R = Point;
    type K = u8;
    type V = (f64, f64);

    fn map_records(
        &self,
        _split: &InputSplit,
        points: Vec<Point>,
        ctx: &mut MapContext<u8, (f64, f64)>,
    ) {
        let hull = convex_hull(&points);
        ctx.counter("hull.local.kept", hull.len() as u64);
        for p in hull {
            ctx.emit(1, (p.x, p.y));
        }
    }
}

struct GlobalHullReducer;

impl Reducer for GlobalHullReducer {
    type K = u8;
    type V = (f64, f64);

    fn reduce(&self, _key: &u8, values: Vec<(f64, f64)>, ctx: &mut ReduceContext) {
        let pts: Vec<Point> = values.iter().map(|&(x, y)| Point::new(x, y)).collect();
        for p in convex_hull(&pts) {
            ctx.output(&p.to_line());
        }
    }
}

/// Hadoop convex hull: full scan + single-reducer merge.
///
/// `_out_dir` is ignored; it goes when `shbench` next changes.
pub fn hull_hadoop(dfs: &Dfs, heap: &str, _out_dir: &str) -> Result<OpResult<Vec<Point>>, OpError> {
    let job = JobBuilder::new(dfs, &format!("hull-hadoop:{heap}"))
        .input_file(heap)?
        .mapper(ByRecords(LocalHullMapper))
        .reducer(GlobalHullReducer, 1)
        .build()?
        .run()?;
    let value = hull_from_output(&job.rows)?;
    let sel = sh_trace::Selectivity::full_scan(job.map_tasks(), value.len() as u64);
    Ok(OpResult::new(value, vec![job]).with_selectivity(sel))
}

/// The four-skyline partition filter: a partition survives if its MBR is
/// non-dominated in at least one of the four corner orientations.
pub fn hull_candidate_partitions(file: &SpatialFile) -> Vec<usize> {
    let mbrs: Vec<Rect> = file.partitions.iter().map(|m| m.mbr_rect()).collect();
    let flip = |r: &Rect, sx: f64, sy: f64| Rect::new(r.x1 * sx, r.y1 * sy, r.x2 * sx, r.y2 * sy);
    let mut keep = vec![false; mbrs.len()];
    for (sx, sy) in [(1.0, 1.0), (1.0, -1.0), (-1.0, 1.0), (-1.0, -1.0)] {
        let flipped: Vec<Rect> = mbrs.iter().map(|r| flip(r, sx, sy)).collect();
        for i in 0..flipped.len() {
            if !flipped
                .iter()
                .enumerate()
                .any(|(j, m)| j != i && m.dominates_rect(&flipped[i]))
            {
                keep[i] = true;
            }
        }
    }
    (0..mbrs.len())
        .filter(|&i| keep[i])
        .map(|i| file.partitions[i].id)
        .collect()
}

/// SpatialHadoop convex hull: four-skyline filter + local/global hull.
pub fn hull_spatial(dfs: &Dfs, file: &SpatialFile) -> Result<OpResult<Vec<Point>>, OpError> {
    let keep: HashSet<usize> = hull_candidate_partitions(file).into_iter().collect();
    let pruned = file.partitions.len() - keep.len();
    let splits = SpatialFileSplitter::splits(dfs, file, |m| keep.contains(&m.id))?;
    let mut sel = crate::mrlayer::splitter_selectivity(file, &splits);
    let mut job = JobBuilder::new(dfs, &format!("hull-spatial:{}", file.dir))
        .input_splits(splits)
        .mapper(ByRecords(LocalHullMapper))
        .reducer(GlobalHullReducer, 1)
        .build()?
        .run()?;
    job.set_counter("hull.partitions.pruned", pruned as u64);
    let value = hull_from_output(&job.rows)?;
    sel.records_emitted = value.len() as u64;
    Ok(OpResult::new(value, vec![job]).with_selectivity(sel))
}

// ------------------------------------------------------------ enhanced

/// Arc on the direction circle, `[start, end]` with `end >= start`,
/// angles unnormalized (callers normalize to start ∈ [0, 2π)).
#[derive(Clone, Copy, Debug)]
struct Arc {
    start: f64,
    end: f64,
}

fn normalize(a: f64) -> f64 {
    let mut a = a % TAU;
    if a < 0.0 {
        a += TAU;
    }
    a
}

/// True when the arcs jointly cover the whole circle.
fn arcs_cover_circle(arcs: &[Arc]) -> bool {
    // Split wrapping arcs at 0 and merge intervals on [0, 2π].
    let mut ivs: Vec<(f64, f64)> = Vec::with_capacity(arcs.len() + 2);
    for arc in arcs {
        if arc.end - arc.start >= TAU {
            return true;
        }
        let s = normalize(arc.start);
        let e = s + (arc.end - arc.start);
        if e <= TAU {
            ivs.push((s, e));
        } else {
            ivs.push((s, TAU));
            ivs.push((0.0, e - TAU));
        }
    }
    ivs.sort_by(|a, b| a.0.total_cmp(&b.0));
    let mut covered_to = 0.0f64;
    for (s, e) in ivs {
        if s > covered_to + 1e-12 {
            return false;
        }
        covered_to = covered_to.max(e);
    }
    covered_to >= TAU - 1e-12
}

/// Infeasible directions of `t` w.r.t. a box `b`: directions in which
/// the *entire box* projects strictly ahead of `t` — only then is a real
/// record of that partition guaranteed to beat `t`, whatever its exact
/// position inside the box. (Using "some corner beats t" instead would
/// over-prune: corners are not data points.)
///
/// Geometrically: the intersection of the four corner half-circles, i.e.
/// the arc between the two directions perpendicular to the visibility
/// rays from `t` to the box (Fig. 16a of the paper).
fn infeasible_arc_for_box(t: &Point, b: &Rect) -> Option<Arc> {
    if b.contains_point(t) {
        // t inside the box: no direction has the whole box ahead, so
        // nothing is guaranteed — conservative empty arc.
        return None;
    }
    // Minimal enclosing arc of the four corner directions: sort, the
    // largest gap between consecutive angles delimits it.
    let mut sorted: Vec<f64> = b
        .corners()
        .iter()
        .map(|c| (c.y - t.y).atan2(c.x - t.x))
        .collect();
    sorted.sort_by(f64::total_cmp);
    let mut best_gap = TAU - (sorted[sorted.len() - 1] - sorted[0]);
    let mut start = sorted[sorted.len() - 1];
    for w in sorted.windows(2) {
        let gap = w[1] - w[0];
        if gap > best_gap {
            best_gap = gap;
            start = w[0];
        }
    }
    let extent = TAU - best_gap;
    if extent >= PI {
        return None; // degenerate: no direction sees the whole box ahead
    }
    // Corner directions span [span_start, span_start + extent]; the whole
    // box is ahead for directions within π/2 of *every* corner direction.
    let span_start = start + best_gap;
    let lo = span_start + extent - PI / 2.0;
    let hi = span_start + PI / 2.0;
    if hi <= lo {
        None
    } else {
        Some(Arc { start: lo, end: hi })
    }
}

/// Infeasible directions of hull vertex `t` w.r.t. its own partition:
/// everything outside the outward normal cone between its adjacent hull
/// edges.
fn infeasible_arc_own(prev: &Point, t: &Point, next: &Point) -> Arc {
    // Outward normal of ccw edge (a -> b) points right of the edge:
    // angle(b - a) - π/2.
    let n1 = (t.y - prev.y).atan2(t.x - prev.x) - PI / 2.0;
    let n2 = (next.y - t.y).atan2(next.x - t.x) - PI / 2.0;
    // Feasible cone: from n1 ccw to n2. Infeasible: from n2 ccw to n1.
    let n1 = normalize(n1);
    let mut n2 = normalize(n2);
    if n2 < n1 {
        n2 += TAU;
    }
    // Infeasible arc from n2 around to n1 + 2π.
    Arc {
        start: n2,
        end: n1 + TAU,
    }
}

struct EnhancedHullMapper {
    /// The kept partitions' ids and data MBRs; a task tests its vertices
    /// against every box but its own.
    boxes: Vec<(usize, Rect)>,
}

impl RecordMapper for EnhancedHullMapper {
    type R = Point;
    type K = u8;
    type V = u8;

    fn map_records(&self, split: &InputSplit, points: Vec<Point>, ctx: &mut MapContext<u8, u8>) {
        let pruned_points = ctx.register_counter("hull.pruned.points");
        let candidates = ctx.register_counter("hull.candidates");
        let hull = convex_hull(&points);
        let n = hull.len();
        if n < 3 {
            for p in &hull {
                ctx.output(&p.to_line());
            }
            return;
        }
        for i in 0..n {
            let t = hull[i];
            let prev = hull[(i + n - 1) % n];
            let next = hull[(i + 1) % n];
            let mut arcs = vec![infeasible_arc_own(&prev, &t, &next)];
            for (_, b) in self
                .boxes
                .iter()
                .filter(|(id, _)| Some(*id) != split.partition_id)
            {
                if let Some(a) = infeasible_arc_for_box(&t, b) {
                    arcs.push(a);
                }
            }
            if arcs_cover_circle(&arcs) {
                ctx.inc(pruned_points, 1);
            } else {
                ctx.output(&t.to_line());
                ctx.inc(candidates, 1);
            }
        }
    }
}

/// Enhanced convex hull: Theorem-3 local pruning, tiny driver-side merge.
pub fn hull_enhanced(dfs: &Dfs, file: &SpatialFile) -> Result<OpResult<Vec<Point>>, OpError> {
    let keep: HashSet<usize> = hull_candidate_partitions(file).into_iter().collect();
    let splits = SpatialFileSplitter::splits(dfs, file, |m| keep.contains(&m.id))?;
    let boxes = file
        .partitions
        .iter()
        .filter(|m| keep.contains(&m.id))
        .map(|m| (m.id, m.mbr_rect()))
        .collect();
    let mut sel = crate::mrlayer::splitter_selectivity(file, &splits);
    let job = JobBuilder::new(dfs, &format!("hull-enhanced:{}", file.dir))
        .input_splits(splits)
        .mapper(ByRecords(EnhancedHullMapper { boxes }))
        .map_only()?
        .run()?;
    // Driver merge over the few surviving candidates.
    let candidates: Vec<Point> = crate::codec::parse_output_records(&job.rows)?;
    let value = convex_hull(&candidates);
    sel.records_emitted = value.len() as u64;
    Ok(OpResult::new(value, vec![job]).with_selectivity(sel))
}

fn hull_from_output(rows: &Rows) -> Result<Vec<Point>, OpError> {
    let pts: Vec<Point> = crate::codec::parse_output_records(rows)?;
    // The reducer already emitted hull order, but several tasks' rows
    // may interleave it; recompute for a canonical result.
    Ok(convex_hull(&pts))
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
        let mut c: Vec<(i64, i64)> = v
            .iter()
            .map(|p| ((p.x * 1e6) as i64, (p.y * 1e6) as i64))
            .collect();
        c.sort_unstable();
        c
    }

    fn run_all(dist: Distribution, seed: u64, n: usize) {
        let dfs = Dfs::new(ClusterConfig::small_for_tests());
        let uni = Rect::new(0.0, 0.0, 1000.0, 1000.0);
        let pts = points(n, dist, &uni, seed);
        upload(&dfs, "/heap", &pts).unwrap();
        let file = build_index::<Point>(&dfs, "/heap", "/idx", PartitionKind::StrPlus)
            .unwrap()
            .value;
        let expected = single::convex_hull_single(&pts).value;

        let h = hull_hadoop(&dfs, "/heap", "/out-h").unwrap();
        assert_eq!(canon(&h.value), canon(&expected), "hadoop {}", dist.name());

        let s = hull_spatial(&dfs, &file).unwrap();
        assert_eq!(canon(&s.value), canon(&expected), "spatial {}", dist.name());

        let e = hull_enhanced(&dfs, &file).unwrap();
        assert_eq!(
            canon(&e.value),
            canon(&expected),
            "enhanced {}",
            dist.name()
        );
    }

    #[test]
    fn all_variants_match_baseline_uniform() {
        run_all(Distribution::Uniform, 51, 3000);
    }

    #[test]
    fn all_variants_match_baseline_gaussian() {
        run_all(Distribution::Gaussian, 52, 3000);
    }

    #[test]
    fn all_variants_match_baseline_circular_worst_case() {
        run_all(Distribution::Circular, 53, 2000);
    }

    #[test]
    fn spatial_prunes_interior_partitions() {
        let dfs = Dfs::new(ClusterConfig::small_for_tests());
        let uni = Rect::new(0.0, 0.0, 1000.0, 1000.0);
        let pts = points(6000, Distribution::Uniform, &uni, 54);
        upload(&dfs, "/heap", &pts).unwrap();
        let file = build_index::<Point>(&dfs, "/heap", "/idx", PartitionKind::StrPlus)
            .unwrap()
            .value;
        let s = hull_spatial(&dfs, &file).unwrap();
        assert!(
            s.counter("hull.partitions.pruned") > 0,
            "interior partitions should be pruned out of {}",
            file.partitions.len()
        );
    }

    #[test]
    fn enhanced_prunes_most_candidates() {
        let dfs = Dfs::new(ClusterConfig::small_for_tests());
        let uni = Rect::new(0.0, 0.0, 1000.0, 1000.0);
        let pts = points(4000, Distribution::Uniform, &uni, 55);
        upload(&dfs, "/heap", &pts).unwrap();
        let file = build_index::<Point>(&dfs, "/heap", "/idx", PartitionKind::StrPlus)
            .unwrap()
            .value;
        let e = hull_enhanced(&dfs, &file).unwrap();
        let survivors = e.counter("hull.candidates");
        let pruned = e.counter("hull.pruned.points");
        assert!(survivors >= e.value.len() as u64);
        assert!(pruned > 0, "theorem-3 pruning should fire");
    }

    #[test]
    fn arc_coverage_helper() {
        assert!(arcs_cover_circle(&[Arc {
            start: 0.0,
            end: TAU
        }]));
        assert!(arcs_cover_circle(&[
            Arc {
                start: 0.0,
                end: 4.0
            },
            Arc {
                start: 3.5,
                end: TAU + 0.1
            },
        ]));
        assert!(!arcs_cover_circle(&[
            Arc {
                start: 0.0,
                end: 3.0
            },
            Arc {
                start: 3.5,
                end: 6.0
            },
        ]));
        // Wrapping arc.
        assert!(arcs_cover_circle(&[
            Arc {
                start: 5.0,
                end: 5.0 + TAU * 0.75
            },
            Arc {
                start: 2.0,
                end: 5.5
            },
        ]));
    }

    #[test]
    fn box_arc_semantics() {
        let b = Rect::new(0.0, 0.0, 10.0, 10.0);
        // Interior point: nothing is guaranteed, no banned directions.
        assert!(infeasible_arc_for_box(&Point::new(5.0, 5.0), &b).is_none());
        // Point to the right of the box: directions pointing left (-x)
        // have the whole box ahead; +x stays feasible.
        let outside = infeasible_arc_for_box(&Point::new(20.0, 5.0), &b).unwrap();
        assert!(outside.end - outside.start < PI);
        let mid = normalize((outside.start + outside.end) / 2.0);
        assert!(
            (mid - PI).abs() < 0.5,
            "banned arc centred around -x, got {mid}"
        );
        assert!(!arcs_cover_circle(&[outside]));
    }
}
