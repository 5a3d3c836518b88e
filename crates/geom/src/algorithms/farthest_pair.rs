//! Farthest pair (diameter) via rotating calipers over the convex hull.

use crate::algorithms::closest_pair::PointPair;
use crate::algorithms::convex_hull::convex_hull;
use crate::point::Point;

/// Computes the farthest pair of `points`.
///
/// The diameter endpoints necessarily lie on the convex hull, so the
/// algorithm computes the hull (O(n log n)) and then walks antipodal
/// vertex pairs with rotating calipers (O(h)). Returns `None` for fewer
/// than two distinct points.
pub fn farthest_pair(points: &[Point]) -> Option<PointPair> {
    let hull = convex_hull(points);
    farthest_pair_on_hull(&hull)
}

/// Rotating calipers over an already-computed convex hull
/// (counter-clockwise vertex order, as [`convex_hull`] produces).
pub fn farthest_pair_on_hull(hull: &[Point]) -> Option<PointPair> {
    let n = hull.len();
    match n {
        0 | 1 => None,
        2 => Some(PointPair::new(hull[0], hull[1]).canonical()),
        _ => {
            let mut best = PointPair::new(hull[0], hull[1]);
            let mut j = 1;
            for i in 0..n {
                let next_i = (i + 1) % n;
                // Advance j while the triangle area (distance from edge
                // i->next_i) keeps growing: antipodal point for this edge.
                loop {
                    let next_j = (j + 1) % n;
                    let cur = Point::cross(&hull[i], &hull[next_i], &hull[j]).abs();
                    let nxt = Point::cross(&hull[i], &hull[next_i], &hull[next_j]).abs();
                    if nxt > cur {
                        j = next_j;
                    } else {
                        break;
                    }
                }
                for q in [hull[j], hull[(j + 1) % n]] {
                    let cand = PointPair::new(hull[i], q);
                    if cand.distance > best.distance {
                        best = cand;
                    }
                }
            }
            Some(best.canonical())
        }
    }
}

/// O(n²) reference implementation for tests.
pub fn farthest_pair_naive(points: &[Point]) -> Option<PointPair> {
    let mut best: Option<PointPair> = None;
    for i in 0..points.len() {
        for j in (i + 1)..points.len() {
            let cand = PointPair::new(points[i], points[j]);
            if best.is_none_or(|b| cand.distance > b.distance) {
                best = Some(cand);
            }
        }
    }
    best.map(|b| b.canonical())
}

#[cfg(test)]
mod tests {
    use super::*;
    use sh_rand::Rng;

    #[test]
    fn square_diagonal() {
        let pts = vec![
            Point::new(0.0, 0.0),
            Point::new(1.0, 0.0),
            Point::new(1.0, 1.0),
            Point::new(0.0, 1.0),
            Point::new(0.5, 0.5),
        ];
        let pair = farthest_pair(&pts).unwrap();
        assert!((pair.distance - 2.0f64.sqrt()).abs() < 1e-12);
    }

    #[test]
    fn collinear_points() {
        let pts: Vec<Point> = (0..5).map(|i| Point::new(i as f64, 0.0)).collect();
        let pair = farthest_pair(&pts).unwrap();
        assert_eq!(pair.distance, 4.0);
    }

    #[test]
    fn degenerate_inputs() {
        assert!(farthest_pair(&[]).is_none());
        assert!(farthest_pair(&[Point::new(1.0, 1.0)]).is_none());
        // All identical points collapse to a single hull vertex.
        assert!(farthest_pair(&[Point::new(1.0, 1.0); 4]).is_none());
    }

    #[test]
    fn matches_naive_on_random_sets() {
        let mut rng = Rng::seed(11);
        for n in [2usize, 3, 8, 50, 200] {
            let pts: Vec<Point> = (0..n)
                .map(|_| Point::new(rng.uniform(0.0..100.0), rng.uniform(0.0..100.0)))
                .collect();
            let fast = farthest_pair(&pts).unwrap();
            let slow = farthest_pair_naive(&pts).unwrap();
            assert!(
                (fast.distance - slow.distance).abs() < 1e-9,
                "n={n}: {} vs {}",
                fast.distance,
                slow.distance
            );
        }
    }

    #[test]
    fn circular_data_worst_case() {
        // Points on a circle: the hull is everything; diameter ~ 2r.
        let pts: Vec<Point> = (0..360)
            .map(|d| {
                let a = (d as f64).to_radians();
                Point::new(100.0 * a.cos(), 100.0 * a.sin())
            })
            .collect();
        let pair = farthest_pair(&pts).unwrap();
        assert!((pair.distance - 200.0).abs() < 0.1);
    }
}
