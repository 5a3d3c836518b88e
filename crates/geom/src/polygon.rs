//! Simple polygon: ring of vertices, area, containment, clipping.

use std::fmt;

use crate::float::EPS;
use crate::point::Point;
use crate::rect::{mbr_of_points, Rect};
use crate::segment::Segment;

/// A simple polygon stored as a ring of vertices (first vertex is *not*
/// repeated at the end).
///
/// Polygons are the record type of the union operation and of the
/// rectangle/polygon spatial-join workloads. The constructor normalizes
/// the ring to counter-clockwise orientation.
#[derive(Clone, Debug, PartialEq)]
pub struct Polygon {
    vertices: Vec<Point>,
}

impl Polygon {
    /// Creates a polygon from a vertex ring; panics on fewer than 3
    /// vertices (no such records are ever generated or parsed).
    pub fn new(mut vertices: Vec<Point>) -> Self {
        assert!(vertices.len() >= 3, "polygon needs at least 3 vertices");
        // Drop duplicated closing vertices if the caller included any:
        // all of them, so the ring `write_line` gives parses back to it.
        while vertices.len() > 3 && vertices[0].approx_eq(vertices.last().unwrap()) {
            vertices.pop();
        }
        let mut poly = Polygon { vertices };
        if poly.signed_area() < 0.0 {
            poly.vertices.reverse();
        }
        poly
    }

    /// Axis-aligned rectangle as a polygon.
    pub fn from_rect(r: &Rect) -> Self {
        Polygon::new(r.corners().to_vec())
    }

    /// Vertex ring (counter-clockwise).
    #[inline]
    pub fn vertices(&self) -> &[Point] {
        &self.vertices
    }

    /// Number of vertices.
    #[inline]
    pub fn len(&self) -> usize {
        self.vertices.len()
    }

    /// Always false: constructors require ≥ 3 vertices.
    #[inline]
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Signed area via the shoelace formula (positive = counter-clockwise).
    pub fn signed_area(&self) -> f64 {
        let n = self.vertices.len();
        let mut acc = 0.0;
        for i in 0..n {
            let p = &self.vertices[i];
            let q = &self.vertices[(i + 1) % n];
            acc += p.x * q.y - q.x * p.y;
        }
        acc / 2.0
    }

    /// Absolute area.
    #[inline]
    pub fn area(&self) -> f64 {
        self.signed_area().abs()
    }

    /// Perimeter length.
    pub fn perimeter(&self) -> f64 {
        self.edges().map(|e| e.length()).sum()
    }

    /// Minimum bounding rectangle.
    pub fn mbr(&self) -> Rect {
        mbr_of_points(&self.vertices)
    }

    /// Iterator over the boundary edges.
    pub fn edges(&self) -> impl Iterator<Item = Segment> + '_ {
        let n = self.vertices.len();
        (0..n).map(move |i| Segment::new(self.vertices[i], self.vertices[(i + 1) % n]))
    }

    /// Even-odd (ray casting) point-in-polygon test, strict interior.
    ///
    /// Points within [`EPS`] of the boundary report `false`; use
    /// [`Polygon::on_boundary`] to detect those.
    pub fn contains_point(&self, p: &Point) -> bool {
        if self.on_boundary(p) {
            return false;
        }
        let n = self.vertices.len();
        let mut inside = false;
        let mut j = n - 1;
        for i in 0..n {
            let vi = &self.vertices[i];
            let vj = &self.vertices[j];
            if (vi.y > p.y) != (vj.y > p.y) {
                let x_cross = vj.x + (p.y - vj.y) / (vi.y - vj.y) * (vi.x - vj.x);
                if p.x < x_cross {
                    inside = !inside;
                }
            }
            j = i;
        }
        inside
    }

    /// True if `p` lies within [`EPS`] of the polygon boundary.
    pub fn on_boundary(&self, p: &Point) -> bool {
        for e in self.edges() {
            let t = e.project_clamped(p);
            if e.at(t).distance(p) < EPS {
                return true;
            }
        }
        false
    }

    /// True if the two polygons overlap: boundaries intersect or one
    /// contains a vertex of the other.
    pub fn intersects(&self, other: &Polygon) -> bool {
        if !self.mbr().intersects(&other.mbr()) {
            return false;
        }
        for e1 in self.edges() {
            for e2 in other.edges() {
                if e1.intersection(&e2).is_some() {
                    return true;
                }
            }
        }
        self.contains_point(&other.vertices[0])
            || other.contains_point(&self.vertices[0])
            || self.on_boundary(&other.vertices[0])
            || other.on_boundary(&self.vertices[0])
    }

    /// Clips the polygon to a rectangle with Sutherland–Hodgman.
    ///
    /// Returns `None` when nothing (of positive area) remains. Only valid
    /// for convex clip regions, which a rectangle always is.
    pub fn clip_to_rect(&self, rect: &Rect) -> Option<Polygon> {
        #[derive(Clone, Copy)]
        enum Edge {
            Left(f64),
            Right(f64),
            Bottom(f64),
            Top(f64),
        }
        fn inside(e: Edge, p: &Point) -> bool {
            match e {
                Edge::Left(x) => p.x >= x,
                Edge::Right(x) => p.x <= x,
                Edge::Bottom(y) => p.y >= y,
                Edge::Top(y) => p.y <= y,
            }
        }
        fn cross_at(e: Edge, a: &Point, b: &Point) -> Point {
            match e {
                Edge::Left(x) | Edge::Right(x) => {
                    let t = (x - a.x) / (b.x - a.x);
                    Point::new(x, a.y + t * (b.y - a.y))
                }
                Edge::Bottom(y) | Edge::Top(y) => {
                    let t = (y - a.y) / (b.y - a.y);
                    Point::new(a.x + t * (b.x - a.x), y)
                }
            }
        }
        let mut ring = self.vertices.clone();
        for e in [
            Edge::Left(rect.x1),
            Edge::Right(rect.x2),
            Edge::Bottom(rect.y1),
            Edge::Top(rect.y2),
        ] {
            if ring.is_empty() {
                return None;
            }
            let mut out = Vec::with_capacity(ring.len() + 4);
            let n = ring.len();
            for i in 0..n {
                let cur = ring[i];
                let prev = ring[(i + n - 1) % n];
                let cur_in = inside(e, &cur);
                let prev_in = inside(e, &prev);
                if cur_in {
                    if !prev_in {
                        out.push(cross_at(e, &prev, &cur));
                    }
                    out.push(cur);
                } else if prev_in {
                    out.push(cross_at(e, &prev, &cur));
                }
            }
            ring = out;
        }
        // Remove consecutive duplicates introduced by clipping at corners.
        ring.dedup_by(|a, b| a.approx_eq(b));
        while ring.len() > 1 && ring[0].approx_eq(ring.last().unwrap()) {
            ring.pop();
        }
        if ring.len() < 3 {
            return None;
        }
        let poly = Polygon { vertices: ring };
        if poly.area() < EPS {
            None
        } else {
            Some(Polygon::new(poly.vertices))
        }
    }

    /// Convexity test (all turns the same way).
    pub fn is_convex(&self) -> bool {
        let n = self.vertices.len();
        let mut sign = 0i8;
        for i in 0..n {
            let c = Point::cross(
                &self.vertices[i],
                &self.vertices[(i + 1) % n],
                &self.vertices[(i + 2) % n],
            );
            if c.abs() < EPS {
                continue;
            }
            let s = if c > 0.0 { 1 } else { -1 };
            if sign == 0 {
                sign = s;
            } else if sign != s {
                return false;
            }
        }
        true
    }
}

impl fmt::Display for Polygon {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "POLYGON(")?;
        for (i, v) in self.vertices.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{} {}", v.x, v.y)?;
        }
        write!(f, ")")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Record;

    #[test]
    fn every_duplicated_closing_vertex_goes_so_the_line_round_trips() {
        let ring = [(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 0.0), (0.0, 0.0)];
        let p = Polygon::new(ring.iter().map(|&(x, y)| Point::new(x, y)).collect());
        assert_eq!(p.len(), 3);
        let line = p.to_line();
        assert_eq!(line, "P 3 0 0 1 0 1 1");
        assert_eq!(Polygon::parse_line(&line).unwrap().to_line(), line);
    }

    fn square(x: f64, y: f64, side: f64) -> Polygon {
        Polygon::from_rect(&Rect::new(x, y, x + side, y + side))
    }

    #[test]
    fn constructor_normalizes_to_ccw() {
        let cw = Polygon::new(vec![
            Point::new(0.0, 0.0),
            Point::new(0.0, 1.0),
            Point::new(1.0, 1.0),
            Point::new(1.0, 0.0),
        ]);
        assert!(cw.signed_area() > 0.0);
    }

    #[test]
    fn area_and_perimeter_of_square() {
        let s = square(0.0, 0.0, 2.0);
        assert!((s.area() - 4.0).abs() < 1e-12);
        assert!((s.perimeter() - 8.0).abs() < 1e-12);
    }

    #[test]
    fn point_containment() {
        let s = square(0.0, 0.0, 2.0);
        assert!(s.contains_point(&Point::new(1.0, 1.0)));
        assert!(!s.contains_point(&Point::new(3.0, 1.0)));
        // boundary is not interior
        assert!(!s.contains_point(&Point::new(0.0, 1.0)));
        assert!(s.on_boundary(&Point::new(0.0, 1.0)));
    }

    #[test]
    fn concave_containment() {
        // L-shape
        let l = Polygon::new(vec![
            Point::new(0.0, 0.0),
            Point::new(3.0, 0.0),
            Point::new(3.0, 1.0),
            Point::new(1.0, 1.0),
            Point::new(1.0, 3.0),
            Point::new(0.0, 3.0),
        ]);
        assert!(l.contains_point(&Point::new(0.5, 2.0)));
        assert!(!l.contains_point(&Point::new(2.0, 2.0)));
        assert!(!l.is_convex());
        assert!(square(0.0, 0.0, 1.0).is_convex());
    }

    #[test]
    fn overlap_detection() {
        let a = square(0.0, 0.0, 2.0);
        let b = square(1.0, 1.0, 2.0);
        let c = square(5.0, 5.0, 1.0);
        assert!(a.intersects(&b));
        assert!(!a.intersects(&c));
        // containment without boundary crossing
        let outer = square(0.0, 0.0, 10.0);
        let inner = square(4.0, 4.0, 1.0);
        assert!(outer.intersects(&inner));
    }

    #[test]
    fn clip_fully_inside_keeps_area() {
        let p = square(1.0, 1.0, 2.0);
        let clipped = p.clip_to_rect(&Rect::new(0.0, 0.0, 10.0, 10.0)).unwrap();
        assert!((clipped.area() - p.area()).abs() < 1e-9);
    }

    #[test]
    fn clip_partial_overlap() {
        let p = square(0.0, 0.0, 2.0);
        let clipped = p.clip_to_rect(&Rect::new(1.0, 1.0, 5.0, 5.0)).unwrap();
        assert!((clipped.area() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn clip_disjoint_is_none() {
        let p = square(0.0, 0.0, 1.0);
        assert!(p.clip_to_rect(&Rect::new(5.0, 5.0, 6.0, 6.0)).is_none());
    }

    #[test]
    fn clip_triangle_corner() {
        let tri = Polygon::new(vec![
            Point::new(0.0, 0.0),
            Point::new(4.0, 0.0),
            Point::new(0.0, 4.0),
        ]);
        // The [0,2]^2 square lies entirely under the hypotenuse x+y=4.
        let clipped = tri.clip_to_rect(&Rect::new(0.0, 0.0, 2.0, 2.0)).unwrap();
        assert!((clipped.area() - 4.0).abs() < 1e-9, "{}", clipped.area());
        // A [0,3]^2 window cuts the hypotenuse: 9 minus the corner
        // triangle with legs 2 gives area 7.
        let clipped = tri.clip_to_rect(&Rect::new(0.0, 0.0, 3.0, 3.0)).unwrap();
        assert!((clipped.area() - 7.0).abs() < 1e-9, "{}", clipped.area());
    }
}
