//! Axis-aligned rectangle (minimum bounding rectangle).

use std::fmt;

use crate::point::Point;

/// An axis-aligned rectangle `[x1, x2] × [y1, y2]`.
///
/// Rectangles serve three roles throughout the system: as data records
/// (the spatial-join workloads), as minimum bounding rectangles of
/// polygons and index partitions, and as query ranges. Invariant:
/// `x1 <= x2 && y1 <= y2` (enforced by [`Rect::new`]).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Rect {
    /// Minimum x.
    pub x1: f64,
    /// Minimum y.
    pub y1: f64,
    /// Maximum x.
    pub x2: f64,
    /// Maximum y.
    pub y2: f64,
}

impl Rect {
    /// Creates a rectangle, swapping coordinates if given out of order.
    #[inline]
    pub fn new(x1: f64, y1: f64, x2: f64, y2: f64) -> Self {
        Rect {
            x1: x1.min(x2),
            y1: y1.min(y2),
            x2: x1.max(x2),
            y2: y1.max(y2),
        }
    }

    /// The "empty" rectangle: the identity element of [`Rect::expand`].
    #[inline]
    pub fn empty() -> Self {
        Rect {
            x1: f64::INFINITY,
            y1: f64::INFINITY,
            x2: f64::NEG_INFINITY,
            y2: f64::NEG_INFINITY,
        }
    }

    /// True if this is the [`Rect::empty`] rectangle.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.x1 > self.x2 || self.y1 > self.y2
    }

    /// Width (`x` extent).
    #[inline]
    pub fn width(&self) -> f64 {
        (self.x2 - self.x1).max(0.0)
    }

    /// Height (`y` extent).
    #[inline]
    pub fn height(&self) -> f64 {
        (self.y2 - self.y1).max(0.0)
    }

    /// Area; zero for empty or degenerate rectangles.
    #[inline]
    pub fn area(&self) -> f64 {
        if self.is_empty() {
            0.0
        } else {
            self.width() * self.height()
        }
    }

    /// Half-perimeter ("margin" in R-tree literature).
    #[inline]
    pub fn margin(&self) -> f64 {
        if self.is_empty() {
            0.0
        } else {
            self.width() + self.height()
        }
    }

    /// Center point.
    #[inline]
    pub fn center(&self) -> Point {
        Point::new((self.x1 + self.x2) / 2.0, (self.y1 + self.y2) / 2.0)
    }

    /// Containment of a point, inclusive of the boundary.
    #[inline]
    pub fn contains_point(&self, p: &Point) -> bool {
        p.x >= self.x1 && p.x <= self.x2 && p.y >= self.y1 && p.y <= self.y2
    }

    /// Containment of a point using the half-open convention
    /// `[x1, x2) × [y1, y2)` that disjoint partitioners use so that a point
    /// on a shared boundary belongs to exactly one partition.
    #[inline]
    pub fn contains_point_half_open(&self, p: &Point) -> bool {
        p.x >= self.x1 && p.x < self.x2 && p.y >= self.y1 && p.y < self.y2
    }

    /// True if `other` lies entirely inside `self` (boundaries allowed).
    #[inline]
    pub fn contains_rect(&self, other: &Rect) -> bool {
        !other.is_empty()
            && other.x1 >= self.x1
            && other.x2 <= self.x2
            && other.y1 >= self.y1
            && other.y2 <= self.y2
    }

    /// True if the two rectangles share at least one point (closed sense).
    #[inline]
    pub fn intersects(&self, other: &Rect) -> bool {
        !self.is_empty()
            && !other.is_empty()
            && self.x1 <= other.x2
            && other.x1 <= self.x2
            && self.y1 <= other.y2
            && other.y1 <= self.y2
    }

    /// The intersection rectangle, or `None` when disjoint.
    #[inline]
    pub fn intersection(&self, other: &Rect) -> Option<Rect> {
        if !self.intersects(other) {
            return None;
        }
        Some(Rect {
            x1: self.x1.max(other.x1),
            y1: self.y1.max(other.y1),
            x2: self.x2.min(other.x2),
            y2: self.y2.min(other.y2),
        })
    }

    /// Smallest rectangle covering both inputs.
    #[inline]
    pub fn union(&self, other: &Rect) -> Rect {
        Rect {
            x1: self.x1.min(other.x1),
            y1: self.y1.min(other.y1),
            x2: self.x2.max(other.x2),
            y2: self.y2.max(other.y2),
        }
    }

    /// Grows `self` in place to cover `other`.
    #[inline]
    pub fn expand(&mut self, other: &Rect) {
        self.x1 = self.x1.min(other.x1);
        self.y1 = self.y1.min(other.y1);
        self.x2 = self.x2.max(other.x2);
        self.y2 = self.y2.max(other.y2);
    }

    /// Grows `self` in place to cover the point `p`.
    #[inline]
    pub fn expand_point(&mut self, p: &Point) {
        self.x1 = self.x1.min(p.x);
        self.y1 = self.y1.min(p.y);
        self.x2 = self.x2.max(p.x);
        self.y2 = self.y2.max(p.y);
    }

    /// Rectangle enlarged by `delta` on every side.
    #[inline]
    pub fn buffer(&self, delta: f64) -> Rect {
        Rect::new(
            self.x1 - delta,
            self.y1 - delta,
            self.x2 + delta,
            self.y2 + delta,
        )
    }

    /// Minimum distance from `p` to any point of the rectangle
    /// (zero when `p` is inside).
    #[inline]
    pub fn min_distance(&self, p: &Point) -> f64 {
        let dx = (self.x1 - p.x).max(0.0).max(p.x - self.x2);
        let dy = (self.y1 - p.y).max(0.0).max(p.y - self.y2);
        (dx * dx + dy * dy).sqrt()
    }

    /// Maximum distance from `p` to any point of the rectangle.
    #[inline]
    pub fn max_distance(&self, p: &Point) -> f64 {
        let dx = (p.x - self.x1).abs().max((p.x - self.x2).abs());
        let dy = (p.y - self.y1).abs().max((p.y - self.y2).abs());
        (dx * dx + dy * dy).sqrt()
    }

    /// Maximum distance between any point of `self` and any point of
    /// `other` — the farthest-pair *upper bound* between two partitions.
    pub fn max_distance_rect(&self, other: &Rect) -> f64 {
        self.corners()
            .iter()
            .map(|c| other.max_distance(c))
            .fold(0.0, f64::max)
    }

    /// Farthest-pair *lower bound* between two partition MBRs.
    ///
    /// Because MBRs are minimal there is at least one record on each side,
    /// so a pair at distance `max(horizontal span, vertical span)` between
    /// the farthest parallel sides is guaranteed to exist.
    pub fn min_guaranteed_distance_rect(&self, other: &Rect) -> f64 {
        let d1 = (self.x1 - other.x2).abs().max((other.x1 - self.x2).abs());
        let d2 = (self.y1 - other.y2).abs().max((other.y1 - self.y2).abs());
        d1.max(d2)
    }

    /// The four corners in counter-clockwise order starting at `(x1, y1)`.
    #[inline]
    pub fn corners(&self) -> [Point; 4] {
        [
            Point::new(self.x1, self.y1),
            Point::new(self.x2, self.y1),
            Point::new(self.x2, self.y2),
            Point::new(self.x1, self.y2),
        ]
    }

    /// Top-left corner — the highest *dominance power* point of a partition
    /// to its left (output-sensitive skyline).
    #[inline]
    pub fn top_left(&self) -> Point {
        Point::new(self.x1, self.y2)
    }

    /// Bottom-right corner — the highest dominance power point of a
    /// partition below (output-sensitive skyline).
    #[inline]
    pub fn bottom_right(&self) -> Point {
        Point::new(self.x2, self.y1)
    }

    /// Top-right corner (dominance target in the skyline filter step).
    #[inline]
    pub fn top_right(&self) -> Point {
        Point::new(self.x2, self.y2)
    }

    /// Bottom-left corner.
    #[inline]
    pub fn bottom_left(&self) -> Point {
        Point::new(self.x1, self.y1)
    }

    /// Skyline partition dominance: this MBR is guaranteed to contain a
    /// record dominating *all* records of `other`.
    ///
    /// Because MBR edges are minimal there is at least one record on each
    /// edge; it suffices that the bottom-left, bottom-right or top-left
    /// corner of `self` dominates the top-right corner of `other`.
    pub fn dominates_rect(&self, other: &Rect) -> bool {
        let target = other.top_right();
        self.bottom_left().dominates(&target)
            || self.bottom_right().dominates(&target)
            || self.top_left().dominates(&target)
    }
}

impl fmt::Display for Rect {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{}, {}] x [{}, {}]", self.x1, self.x2, self.y1, self.y2)
    }
}

/// Computes the MBR of a point set (empty input yields [`Rect::empty`]).
pub fn mbr_of_points(points: &[Point]) -> Rect {
    let mut r = Rect::empty();
    for p in points {
        r.expand_point(p);
    }
    r
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_normalizes_corner_order() {
        let r = Rect::new(2.0, 3.0, 0.0, 1.0);
        assert_eq!(r, Rect::new(0.0, 1.0, 2.0, 3.0));
        assert_eq!(r.width(), 2.0);
        assert_eq!(r.height(), 2.0);
    }

    #[test]
    fn empty_behaves_as_identity() {
        let e = Rect::empty();
        assert!(e.is_empty());
        assert_eq!(e.area(), 0.0);
        let r = Rect::new(0.0, 0.0, 1.0, 1.0);
        assert_eq!(e.union(&r), r);
        assert!(!e.intersects(&r));
    }

    #[test]
    fn intersection_and_union() {
        let a = Rect::new(0.0, 0.0, 2.0, 2.0);
        let b = Rect::new(1.0, 1.0, 3.0, 3.0);
        assert_eq!(a.intersection(&b), Some(Rect::new(1.0, 1.0, 2.0, 2.0)));
        assert_eq!(a.union(&b), Rect::new(0.0, 0.0, 3.0, 3.0));
        let c = Rect::new(5.0, 5.0, 6.0, 6.0);
        assert_eq!(a.intersection(&c), None);
    }

    #[test]
    fn touching_rects_intersect_in_closed_sense() {
        let a = Rect::new(0.0, 0.0, 1.0, 1.0);
        let b = Rect::new(1.0, 0.0, 2.0, 1.0);
        assert!(a.intersects(&b));
        assert_eq!(a.intersection(&b).unwrap().area(), 0.0);
    }

    #[test]
    fn half_open_containment_partitions_space() {
        let left = Rect::new(0.0, 0.0, 1.0, 2.0);
        let right = Rect::new(1.0, 0.0, 2.0, 2.0);
        let boundary = Point::new(1.0, 0.5);
        assert!(!left.contains_point_half_open(&boundary));
        assert!(right.contains_point_half_open(&boundary));
    }

    #[test]
    fn min_max_distance_to_point() {
        let r = Rect::new(0.0, 0.0, 2.0, 2.0);
        assert_eq!(r.min_distance(&Point::new(1.0, 1.0)), 0.0);
        assert_eq!(r.min_distance(&Point::new(5.0, 1.0)), 3.0);
        assert_eq!(r.max_distance(&Point::new(0.0, 0.0)), 8.0_f64.sqrt());
    }

    #[test]
    fn farthest_pair_bounds_are_ordered() {
        let a = Rect::new(0.0, 0.0, 1.0, 1.0);
        let b = Rect::new(5.0, 0.0, 6.0, 1.0);
        let lower = a.min_guaranteed_distance_rect(&b);
        let upper = a.max_distance_rect(&b);
        assert!(lower <= upper);
        assert_eq!(lower, 6.0); // farthest vertical sides at x=0 and x=6
        assert_eq!(upper, (36.0f64 + 1.0).sqrt());
    }

    #[test]
    fn skyline_rect_dominance() {
        // c5 sits entirely above-right of c1.
        let c1 = Rect::new(0.0, 0.0, 1.0, 1.0);
        let c5 = Rect::new(2.0, 2.0, 3.0, 3.0);
        assert!(c5.dominates_rect(&c1));
        assert!(!c1.dominates_rect(&c5));
        // Overlapping rectangles dominate neither way.
        let c2 = Rect::new(0.5, 0.5, 2.5, 2.5);
        assert!(!c2.dominates_rect(&c5));
    }

    #[test]
    fn mbr_of_points_covers_all() {
        let pts = [
            Point::new(1.0, 5.0),
            Point::new(-2.0, 0.0),
            Point::new(3.0, 2.0),
        ];
        let r = mbr_of_points(&pts);
        assert_eq!(r, Rect::new(-2.0, 0.0, 3.0, 5.0));
        for p in &pts {
            assert!(r.contains_point(p));
        }
    }

    #[test]
    fn reference_point_assigns_exactly_one_owner() {
        // A 2x2 grid of partitions over [0,2]x[0,2]; interior boundary point
        // must belong to exactly one cell.
        let cells = [
            Rect::new(0.0, 0.0, 1.0, 1.0),
            Rect::new(1.0, 0.0, 2.0, 1.0),
            Rect::new(0.0, 1.0, 1.0, 2.0),
            Rect::new(1.0, 1.0, 2.0, 2.0),
        ];
        let p = Point::new(1.0, 1.0);
        let owners = cells
            .iter()
            .filter(|c| c.contains_point_half_open(&p))
            .count();
        assert_eq!(owners, 1);
    }
}
