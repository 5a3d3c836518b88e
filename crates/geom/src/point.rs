//! Two-dimensional point.

use std::fmt;

use crate::float::{approx_eq, total_cmp};
use crate::rect::Rect;

/// A point in the Euclidean plane.
///
/// `Point` is the fundamental record type of most SpatialHadoop operations
/// (skyline, convex hull, closest/farthest pair, Voronoi, kNN). It is
/// `Copy` and 16 bytes, so algorithms pass it by value.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Point {
    /// Horizontal coordinate.
    pub x: f64,
    /// Vertical coordinate.
    pub y: f64,
}

impl Point {
    /// Creates a point from its coordinates.
    #[inline]
    pub const fn new(x: f64, y: f64) -> Self {
        Point { x, y }
    }

    /// Euclidean distance to `other`.
    #[inline]
    pub fn distance(&self, other: &Point) -> f64 {
        self.distance_sq(other).sqrt()
    }

    /// Squared Euclidean distance to `other` (avoids the `sqrt` when only
    /// comparisons are needed, e.g. in closest-pair and kNN inner loops).
    #[inline]
    pub fn distance_sq(&self, other: &Point) -> f64 {
        let dx = self.x - other.x;
        let dy = self.y - other.y;
        dx * dx + dy * dy
    }

    /// Skyline (max-max) dominance: `self` dominates `other` iff it is at
    /// least as large in both coordinates and strictly larger in one.
    #[inline]
    pub fn dominates(&self, other: &Point) -> bool {
        self.x >= other.x && self.y >= other.y && (self.x > other.x || self.y > other.y)
    }

    /// The degenerate rectangle covering exactly this point.
    #[inline]
    pub fn to_rect(&self) -> Rect {
        Rect::new(self.x, self.y, self.x, self.y)
    }

    /// Coordinate-wise approximate equality (see [`crate::float::EPS`]).
    #[inline]
    pub fn approx_eq(&self, other: &Point) -> bool {
        approx_eq(self.x, other.x) && approx_eq(self.y, other.y)
    }

    /// Lexicographic (x, then y) total order used to canonicalize point
    /// sets before comparisons in tests and merges.
    #[inline]
    pub fn cmp_xy(&self, other: &Point) -> std::cmp::Ordering {
        total_cmp(self.x, other.x).then(total_cmp(self.y, other.y))
    }

    /// Cross product of vectors `(b - a)` and `(c - a)`.
    ///
    /// Positive when `a -> b -> c` turns counter-clockwise, negative when
    /// clockwise, and zero when collinear. This is the orientation
    /// predicate underlying the hull, sweep, and triangulation code.
    #[inline]
    pub fn cross(a: &Point, b: &Point, c: &Point) -> f64 {
        (b.x - a.x) * (c.y - a.y) - (b.y - a.y) * (c.x - a.x)
    }

    /// Midpoint of `self` and `other`.
    #[inline]
    pub fn midpoint(&self, other: &Point) -> Point {
        Point::new((self.x + other.x) / 2.0, (self.y + other.y) / 2.0)
    }
}

impl fmt::Display for Point {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({}, {})", self.x, self.y)
    }
}

/// Sorts points lexicographically and removes approximate duplicates.
///
/// Duplicate sites break Delaunay triangulation and add no information to
/// any of the operations, so loaders dedup through this helper.
pub fn sort_dedup(points: &mut Vec<Point>) {
    points.sort_by(Point::cmp_xy);
    points.dedup_by(|a, b| a.approx_eq(b));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn distance_basics() {
        let a = Point::new(0.0, 0.0);
        let b = Point::new(3.0, 4.0);
        assert_eq!(a.distance(&b), 5.0);
        assert_eq!(a.distance_sq(&b), 25.0);
        assert_eq!(a.distance(&a), 0.0);
    }

    #[test]
    fn dominance_is_strict_somewhere() {
        let p = Point::new(2.0, 2.0);
        assert!(p.dominates(&Point::new(1.0, 1.0)));
        assert!(p.dominates(&Point::new(2.0, 1.0)));
        assert!(!p.dominates(&p));
        assert!(!p.dominates(&Point::new(3.0, 1.0)));
    }

    #[test]
    fn cross_orientation() {
        let a = Point::new(0.0, 0.0);
        let b = Point::new(1.0, 0.0);
        assert!(Point::cross(&a, &b, &Point::new(1.0, 1.0)) > 0.0); // ccw
        assert!(Point::cross(&a, &b, &Point::new(1.0, -1.0)) < 0.0); // cw
        assert_eq!(Point::cross(&a, &b, &Point::new(2.0, 0.0)), 0.0); // collinear
    }

    #[test]
    fn sort_dedup_removes_near_duplicates() {
        let mut pts = vec![
            Point::new(1.0, 1.0),
            Point::new(0.0, 0.0),
            Point::new(1.0 + 1e-9, 1.0),
        ];
        sort_dedup(&mut pts);
        assert_eq!(pts.len(), 2);
        assert_eq!(pts[0], Point::new(0.0, 0.0));
    }

    #[test]
    fn midpoint_is_halfway() {
        let m = Point::new(0.0, 0.0).midpoint(&Point::new(2.0, 4.0));
        assert_eq!(m, Point::new(1.0, 2.0));
    }
}
