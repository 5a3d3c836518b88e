//! Line segment with intersection and clipping predicates.

use std::fmt;

use crate::float::EPS;
use crate::point::Point;
use crate::rect::Rect;

/// A straight line segment between two endpoints.
///
/// Segments are the output unit of the (enhanced) polygon-union operation:
/// the union boundary is emitted as a bag of segments so that no single
/// machine ever has to stitch the full result polygon together.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Segment {
    /// First endpoint.
    pub a: Point,
    /// Second endpoint.
    pub b: Point,
}

impl Segment {
    /// Creates a segment between `a` and `b`.
    #[inline]
    pub const fn new(a: Point, b: Point) -> Self {
        Segment { a, b }
    }

    /// Segment length.
    #[inline]
    pub fn length(&self) -> f64 {
        self.a.distance(&self.b)
    }

    /// Midpoint.
    #[inline]
    pub fn midpoint(&self) -> Point {
        self.a.midpoint(&self.b)
    }

    /// Minimum bounding rectangle.
    #[inline]
    pub fn mbr(&self) -> Rect {
        Rect::new(self.a.x, self.a.y, self.b.x, self.b.y)
    }

    /// Unit normal vector `(nx, ny)`; `(0, 0)` for degenerate segments.
    pub fn unit_normal(&self) -> (f64, f64) {
        let dx = self.b.x - self.a.x;
        let dy = self.b.y - self.a.y;
        let len = (dx * dx + dy * dy).sqrt();
        if len < EPS {
            (0.0, 0.0)
        } else {
            (-dy / len, dx / len)
        }
    }

    /// A canonical form with endpoints in lexicographic order, so that the
    /// same geometric segment produced by two polygons compares equal.
    pub fn canonical(&self) -> Segment {
        if self.a.cmp_xy(&self.b) == std::cmp::Ordering::Greater {
            Segment::new(self.b, self.a)
        } else {
            *self
        }
    }

    /// Proper or touching intersection point with `other`, if any.
    ///
    /// Returns the intersection parameterized on `self`; collinear
    /// overlapping segments return `None` (the union algorithm handles
    /// collinear overlap through its canonical-duplicate rule instead).
    pub fn intersection(&self, other: &Segment) -> Option<Point> {
        let d1x = self.b.x - self.a.x;
        let d1y = self.b.y - self.a.y;
        let d2x = other.b.x - other.a.x;
        let d2y = other.b.y - other.a.y;
        let denom = d1x * d2y - d1y * d2x;
        if denom.abs() < EPS * EPS {
            return None; // parallel or collinear
        }
        let sx = other.a.x - self.a.x;
        let sy = other.a.y - self.a.y;
        let t = (sx * d2y - sy * d2x) / denom;
        let u = (sx * d1y - sy * d1x) / denom;
        if (-1e-12..=1.0 + 1e-12).contains(&t) && (-1e-12..=1.0 + 1e-12).contains(&u) {
            Some(Point::new(self.a.x + t * d1x, self.a.y + t * d1y))
        } else {
            None
        }
    }

    /// Parameter `t in [0, 1]` of the projection of `p` onto the segment's
    /// supporting line, clamped to the segment.
    pub fn project_clamped(&self, p: &Point) -> f64 {
        let dx = self.b.x - self.a.x;
        let dy = self.b.y - self.a.y;
        let len_sq = dx * dx + dy * dy;
        if len_sq < EPS * EPS {
            return 0.0;
        }
        (((p.x - self.a.x) * dx + (p.y - self.a.y) * dy) / len_sq).clamp(0.0, 1.0)
    }

    /// Point at parameter `t` along the segment.
    #[inline]
    pub fn at(&self, t: f64) -> Point {
        Point::new(
            self.a.x + t * (self.b.x - self.a.x),
            self.a.y + t * (self.b.y - self.a.y),
        )
    }

    /// Clips the segment to `rect` using the Liang–Barsky algorithm.
    ///
    /// Returns `None` when the segment lies entirely outside. This is the
    /// *pruning* primitive of the enhanced union operation: each machine
    /// keeps only the parts of the union boundary inside its own partition.
    pub fn clip(&self, rect: &Rect) -> Option<Segment> {
        let dx = self.b.x - self.a.x;
        let dy = self.b.y - self.a.y;
        let mut t0 = 0.0f64;
        let mut t1 = 1.0f64;
        let checks = [
            (-dx, self.a.x - rect.x1),
            (dx, rect.x2 - self.a.x),
            (-dy, self.a.y - rect.y1),
            (dy, rect.y2 - self.a.y),
        ];
        for (p, q) in checks {
            if p.abs() < EPS * EPS {
                if q < 0.0 {
                    return None; // parallel and outside
                }
            } else {
                let r = q / p;
                if p < 0.0 {
                    if r > t1 {
                        return None;
                    }
                    if r > t0 {
                        t0 = r;
                    }
                } else {
                    if r < t0 {
                        return None;
                    }
                    if r < t1 {
                        t1 = r;
                    }
                }
            }
        }
        if t0 > t1 {
            return None;
        }
        let clipped = Segment::new(self.at(t0), self.at(t1));
        if clipped.length() < EPS {
            None
        } else {
            Some(clipped)
        }
    }
}

impl fmt::Display for Segment {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} -> {}", self.a, self.b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn seg(ax: f64, ay: f64, bx: f64, by: f64) -> Segment {
        Segment::new(Point::new(ax, ay), Point::new(bx, by))
    }

    #[test]
    fn crossing_segments_intersect() {
        let s1 = seg(0.0, 0.0, 2.0, 2.0);
        let s2 = seg(0.0, 2.0, 2.0, 0.0);
        let p = s1.intersection(&s2).unwrap();
        assert!(p.approx_eq(&Point::new(1.0, 1.0)));
    }

    #[test]
    fn touching_at_endpoint_intersects() {
        let s1 = seg(0.0, 0.0, 1.0, 1.0);
        let s2 = seg(1.0, 1.0, 2.0, 0.0);
        let p = s1.intersection(&s2).unwrap();
        assert!(p.approx_eq(&Point::new(1.0, 1.0)));
    }

    #[test]
    fn parallel_segments_do_not_intersect() {
        let s1 = seg(0.0, 0.0, 1.0, 0.0);
        let s2 = seg(0.0, 1.0, 1.0, 1.0);
        assert_eq!(s1.intersection(&s2), None);
    }

    #[test]
    fn disjoint_segments_do_not_intersect() {
        let s1 = seg(0.0, 0.0, 1.0, 0.0);
        let s2 = seg(2.0, -1.0, 2.0, 1.0);
        assert_eq!(s1.intersection(&s2), None);
    }

    #[test]
    fn clip_inside_is_identity() {
        let r = Rect::new(0.0, 0.0, 10.0, 10.0);
        let s = seg(1.0, 1.0, 2.0, 3.0);
        assert_eq!(s.clip(&r), Some(s));
    }

    #[test]
    fn clip_crossing_cuts_at_boundary() {
        let r = Rect::new(0.0, 0.0, 10.0, 10.0);
        let s = seg(-5.0, 5.0, 15.0, 5.0);
        let c = s.clip(&r).unwrap();
        assert!(c.a.approx_eq(&Point::new(0.0, 5.0)));
        assert!(c.b.approx_eq(&Point::new(10.0, 5.0)));
    }

    #[test]
    fn clip_outside_is_none() {
        let r = Rect::new(0.0, 0.0, 1.0, 1.0);
        assert_eq!(seg(2.0, 2.0, 3.0, 3.0).clip(&r), None);
        // Degenerate sliver along the boundary is dropped too.
        assert_eq!(seg(1.0, 1.0, 2.0, 1.0).clip(&r), None);
    }

    #[test]
    fn canonical_is_order_independent() {
        let s1 = seg(1.0, 1.0, 0.0, 0.0);
        let s2 = seg(0.0, 0.0, 1.0, 1.0);
        assert_eq!(s1.canonical(), s2.canonical());
    }

    #[test]
    fn unit_normal_is_perpendicular_unit() {
        let s = seg(0.0, 0.0, 2.0, 0.0);
        let (nx, ny) = s.unit_normal();
        assert!((nx.hypot(ny) - 1.0).abs() < 1e-12);
        assert_eq!((nx, ny), (0.0, 1.0));
    }
}
