//! Single-machine baselines.
//!
//! The "traditional algorithm" yardsticks of every experiment: the same
//! computational-geometry kernels the distributed operations use locally,
//! run over the whole dataset in one process, with wall-clock timing.
//! (The paper's baseline machine has 1 TB of RAM; ours has less, which
//! only strengthens the scalability contrast.)

use std::time::Instant;

use sh_geom::algorithms::closest_pair::{closest_pair, PointPair};
use sh_geom::algorithms::convex_hull::convex_hull;
use sh_geom::algorithms::farthest_pair::farthest_pair;
use sh_geom::algorithms::plane_sweep::plane_sweep_join;
use sh_geom::algorithms::skyline::skyline;
use sh_geom::algorithms::union::boundary_union;
use sh_geom::algorithms::voronoi::VoronoiDiagram;
use sh_geom::{Point, Polygon, Record, Rect, Segment};

/// A baseline result with its wall-clock duration.
#[derive(Clone, Debug)]
pub struct Timed<T> {
    /// The computed result.
    pub value: T,
    /// Wall-clock seconds spent.
    pub seconds: f64,
}

fn timed<T>(f: impl FnOnce() -> T) -> Timed<T> {
    let t0 = Instant::now();
    let value = f();
    Timed {
        value,
        seconds: t0.elapsed().as_secs_f64(),
    }
}

/// Full-scan range query.
pub fn range_query<R: Record>(records: &[R], query: &Rect) -> Timed<Vec<R>> {
    timed(|| {
        records
            .iter()
            .filter(|r| r.mbr().intersects(query))
            .cloned()
            .collect()
    })
}

/// Full-scan k-nearest-neighbours (sorted by distance).
pub fn knn(points: &[Point], q: &Point, k: usize) -> Timed<Vec<Point>> {
    timed(|| {
        let mut with_d: Vec<(f64, Point)> = points.iter().map(|p| (p.distance_sq(q), *p)).collect();
        with_d.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp_xy(&b.1)));
        with_d.into_iter().take(k).map(|(_, p)| p).collect()
    })
}

/// Plane-sweep rectangle join.
pub fn spatial_join(left: &[Rect], right: &[Rect]) -> Timed<Vec<(usize, usize)>> {
    timed(|| plane_sweep_join(left, right))
}

/// Max-max skyline.
pub fn skyline_single(points: &[Point]) -> Timed<Vec<Point>> {
    timed(|| skyline(points))
}

/// Convex hull.
pub fn convex_hull_single(points: &[Point]) -> Timed<Vec<Point>> {
    timed(|| convex_hull(points))
}

/// Closest pair.
pub fn closest_pair_single(points: &[Point]) -> Timed<Option<PointPair>> {
    timed(|| closest_pair(points))
}

/// Farthest pair.
pub fn farthest_pair_single(points: &[Point]) -> Timed<Option<PointPair>> {
    timed(|| farthest_pair(points))
}

/// Polygon union (boundary segments).
pub fn union_single(polys: &[Polygon]) -> Timed<Vec<Segment>> {
    timed(|| boundary_union(polys))
}

/// Voronoi diagram.
pub fn voronoi_single(sites: &[Point]) -> Timed<VoronoiDiagram> {
    timed(|| VoronoiDiagram::build(sites))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn baselines_agree_with_geom_kernels() {
        let pts = vec![
            Point::new(0.0, 0.0),
            Point::new(2.0, 3.0),
            Point::new(5.0, 1.0),
            Point::new(1.0, 4.0),
        ];
        assert_eq!(skyline_single(&pts).value.len(), 3);
        assert_eq!(convex_hull_single(&pts).value.len(), 3); // (2,3) is interior
        assert!(closest_pair_single(&pts).value.is_some());
        assert!(farthest_pair_single(&pts).value.is_some());
        let r = range_query(&pts, &Rect::new(0.0, 0.0, 2.5, 3.5));
        assert_eq!(r.value.len(), 2);
        assert!(r.seconds >= 0.0);
    }

    #[test]
    fn knn_orders_by_distance() {
        let pts: Vec<Point> = (0..10).map(|i| Point::new(i as f64, 0.0)).collect();
        let got = knn(&pts, &Point::new(3.2, 0.0), 3).value;
        assert_eq!(
            got,
            vec![
                Point::new(3.0, 0.0),
                Point::new(4.0, 0.0),
                Point::new(2.0, 0.0)
            ]
        );
    }
}
