//! Delaunay triangulation via incremental Bowyer–Watson insertion.
//!
//! This powers the Voronoi-diagram operation: Voronoi cells are read off
//! as the dual of the triangulation, and the *one-ring* Delaunay
//! neighbours of a site bound the set of sites that can influence its
//! Voronoi cell — the property the distributed merge step exploits.
//!
//! Implementation notes:
//!
//! * three *super vertices* far outside the data bounding box close the
//!   triangulation so every real site has a full fan of incident
//!   triangles (sites on the data hull get fans through super triangles,
//!   which marks their cells unbounded);
//! * point location walks from the most recently created triangle and
//!   falls back to a linear scan if the walk degenerates, so insertion is
//!   near O(n) on Morton-ordered input and never incorrect;
//! * the in-circumcircle predicate evaluates the 3×3 determinant in
//!   coordinates relative to the query point for numerical headroom.

use crate::point::Point;
use crate::rect::mbr_of_points;

/// A triangle of the output triangulation, as indices into the site list.
pub type TriangleIx = [usize; 3];

#[derive(Clone, Debug)]
struct Tri {
    /// Vertex indices, counter-clockwise.
    v: [usize; 3],
    /// `n[i]` is the triangle across the edge opposite `v[i]`
    /// (i.e. the edge `v[i+1] -> v[i+2]`).
    n: [Option<usize>; 3],
    alive: bool,
}

/// Result of a Delaunay triangulation over a set of distinct sites.
#[derive(Clone, Debug)]
pub struct Triangulation {
    sites: Vec<Point>,
    /// All points: sites followed by the 3 super vertices.
    pts: Vec<Point>,
    tris: Vec<Tri>,
    /// Indices of alive triangles (including super triangles).
    alive: Vec<usize>,
}

impl Triangulation {
    /// Triangulates `sites`.
    ///
    /// Sites must be distinct ([`crate::point::sort_dedup`] upstream);
    /// fewer than 3 sites or fully collinear input yields a triangulation
    /// with no real triangles, which the Voronoi layer treats as
    /// "all cells unbounded".
    pub fn build(sites: &[Point]) -> Triangulation {
        let sites: Vec<Point> = sites.to_vec();
        let n = sites.len();
        let mut pts = sites.clone();
        // Super triangle: generous margin around the data MBR.
        let bbox = mbr_of_points(&sites);
        let (cx, cy, span) = if bbox.is_empty() {
            (0.0, 0.0, 1.0)
        } else {
            let c = bbox.center();
            (c.x, c.y, bbox.width().max(bbox.height()).max(1.0))
        };
        let m = span * 1e4;
        pts.push(Point::new(cx - 3.0 * m, cy - m));
        pts.push(Point::new(cx + 3.0 * m, cy - m));
        pts.push(Point::new(cx, cy + 3.0 * m));
        let mut t = Triangulation {
            sites,
            pts,
            tris: Vec::with_capacity(2 * n + 8),
            alive: Vec::new(),
        };
        t.tris.push(Tri {
            v: [n, n + 1, n + 2],
            n: [None, None, None],
            alive: true,
        });
        // Insert in Morton order for walk locality.
        let mut order: Vec<usize> = (0..n).collect();
        if !bbox.is_empty() && bbox.area() > 0.0 {
            order.sort_by_key(|&i| {
                let p = &t.pts[i];
                let qx = (((p.x - bbox.x1) / bbox.width().max(1e-12)) * 65535.0) as u32;
                let qy = (((p.y - bbox.y1) / bbox.height().max(1e-12)) * 65535.0) as u32;
                interleave(qx.min(65535), qy.min(65535))
            });
        }
        let mut last = 0usize;
        for i in order {
            last = t.insert(i, last);
        }
        t.alive = (0..t.tris.len()).filter(|&i| t.tris[i].alive).collect();
        t
    }

    /// The input sites.
    pub fn sites(&self) -> &[Point] {
        &self.sites
    }

    /// Number of real sites.
    pub fn num_sites(&self) -> usize {
        self.sites.len()
    }

    /// Real triangles (no super vertices), each counter-clockwise.
    pub fn triangles(&self) -> Vec<TriangleIx> {
        let n = self.num_sites();
        self.alive
            .iter()
            .map(|&t| self.tris[t].v)
            .filter(|v| v.iter().all(|&x| x < n))
            .collect()
    }

    /// All alive triangles including those touching super vertices;
    /// indices `>= num_sites()` denote super vertices. The Voronoi layer
    /// uses these to detect unbounded cells.
    pub fn triangles_with_super(&self) -> Vec<TriangleIx> {
        self.alive.iter().map(|&t| self.tris[t].v).collect()
    }

    /// Coordinates of any point index appearing in
    /// [`Triangulation::triangles_with_super`].
    pub fn coords(&self, ix: usize) -> Point {
        self.pts[ix]
    }

    /// One-ring Delaunay neighbours of every real site (real sites only).
    ///
    /// `result[i]` is sorted and deduplicated. The one-ring bounds which
    /// sites can share a Voronoi edge with site `i`, which is what the
    /// distributed Voronoi merge ships alongside non-final sites.
    pub fn neighbor_rings(&self) -> Vec<Vec<usize>> {
        let n = self.num_sites();
        let mut rings: Vec<Vec<usize>> = vec![Vec::new(); n];
        for &ti in &self.alive {
            let v = self.tris[ti].v;
            for i in 0..3 {
                let a = v[i];
                let b = v[(i + 1) % 3];
                if a < n && b < n {
                    rings[a].push(b);
                    rings[b].push(a);
                }
            }
        }
        for ring in &mut rings {
            ring.sort_unstable();
            ring.dedup();
        }
        rings
    }

    /// Inserts point index `pi`, returns a triangle index to start the
    /// next walk from.
    fn insert(&mut self, pi: usize, start: usize) -> usize {
        let p = self.pts[pi];
        let t0 = self.locate(&p, start);
        // Grow the cavity: all triangles whose circumcircle contains p.
        let mut cavity: Vec<usize> = Vec::new();
        let mut mark: std::collections::HashSet<usize> = std::collections::HashSet::new();
        let mut stack = vec![t0];
        mark.insert(t0);
        while let Some(t) = stack.pop() {
            cavity.push(t);
            for k in 0..3 {
                if let Some(nb) = self.tris[t].n[k] {
                    if !mark.contains(&nb) && self.in_circumcircle(nb, &p) {
                        mark.insert(nb);
                        stack.push(nb);
                    }
                }
            }
        }
        // Boundary edges of the cavity, directed CCW (interior on left).
        let mut boundary: Vec<(usize, usize, Option<usize>)> = Vec::new();
        for &t in &cavity {
            let v = self.tris[t].v;
            for k in 0..3 {
                let nb = self.tris[t].n[k];
                let is_inner = nb.is_some_and(|nb| mark.contains(&nb));
                if !is_inner {
                    boundary.push((v[(k + 1) % 3], v[(k + 2) % 3], nb));
                }
            }
        }
        for &t in &cavity {
            self.tris[t].alive = false;
        }
        // Re-triangulate: one new triangle per boundary edge.
        let first_new = self.tris.len();
        let mut edge_to_tri: std::collections::HashMap<usize, usize> =
            std::collections::HashMap::with_capacity(boundary.len());
        for (a, b, outer) in &boundary {
            let idx = self.tris.len();
            // Neighbor slots: opposite v[0]=a is edge (b, pi); opposite
            // v[1]=b is (pi, a); opposite v[2]=pi is (a, b) = outer.
            self.tris.push(Tri {
                v: [*a, *b, pi],
                n: [None, None, *outer],
                alive: true,
            });
            // Fix the outer triangle's back-pointer.
            if let Some(o) = *outer {
                let ot = &mut self.tris[o];
                for k in 0..3 {
                    let oa = ot.v[(k + 1) % 3];
                    let ob = ot.v[(k + 2) % 3];
                    if (oa == *b && ob == *a) || (oa == *a && ob == *b) {
                        ot.n[k] = Some(idx);
                    }
                }
            }
            edge_to_tri.insert(*a, idx); // keyed by the edge start vertex
            let _ = first_new;
        }
        // Link new triangles around pi: triangle with edge (a, b) has the
        // triangle starting at `b` across its (b, pi) edge, and the
        // triangle ending at `a` across its (pi, a) edge.
        let new_tris: Vec<(usize, usize, usize)> = boundary
            .iter()
            .enumerate()
            .map(|(i, (a, b, _))| (first_new + i, *a, *b))
            .collect();
        for (idx, _a, b) in &new_tris {
            if let Some(&next) = edge_to_tri.get(b) {
                // Edge (b, pi) of `idx` == edge (pi, b) of `next`.
                self.tris[*idx].n[0] = Some(next); // opposite v[0]=a is (b, pi)
                self.tris[next].n[1] = Some(*idx); // opposite v[1]=b' (=b) is (pi, a'=b)
            }
        }
        first_new
    }

    /// Walks toward `p` starting at triangle `start`.
    fn locate(&self, p: &Point, start: usize) -> usize {
        let mut t = start;
        if !self.tris[t].alive {
            t = match (0..self.tris.len()).rev().find(|&i| self.tris[i].alive) {
                Some(i) => i,
                None => unreachable!("triangulation always has alive triangles"),
            };
        }
        let mut steps = 0usize;
        let cap = 4 * self.tris.len() + 16;
        loop {
            steps += 1;
            if steps > cap {
                break; // degenerate walk; fall back to scan
            }
            let v = self.tris[t].v;
            let mut moved = false;
            for k in 0..3 {
                let a = self.pts[v[(k + 1) % 3]];
                let b = self.pts[v[(k + 2) % 3]];
                if Point::cross(&a, &b, p) < -1e-12 {
                    match self.tris[t].n[k] {
                        Some(nb) if self.tris[nb].alive => {
                            t = nb;
                            moved = true;
                            break;
                        }
                        _ => {}
                    }
                }
            }
            if !moved {
                return t;
            }
        }
        // Fallback: linear scan for a triangle containing p.
        for (i, tri) in self.tris.iter().enumerate() {
            if !tri.alive {
                continue;
            }
            let [a, b, c] = tri.v.map(|x| self.pts[x]);
            if Point::cross(&a, &b, p) >= -1e-12
                && Point::cross(&b, &c, p) >= -1e-12
                && Point::cross(&c, &a, p) >= -1e-12
            {
                return i;
            }
        }
        // Last resort: any alive triangle whose circumcircle contains p.
        (0..self.tris.len())
            .find(|&i| self.tris[i].alive && self.in_circumcircle(i, p))
            .expect("point lies in the super triangle by construction")
    }

    fn in_circumcircle(&self, t: usize, p: &Point) -> bool {
        let [a, b, c] = self.tris[t].v.map(|x| self.pts[x]);
        in_circle(&a, &b, &c, p)
    }
}

/// In-circumcircle predicate: is `p` strictly inside the circumcircle of
/// the counter-clockwise triangle `(a, b, c)`?
pub fn in_circle(a: &Point, b: &Point, c: &Point, p: &Point) -> bool {
    let ax = a.x - p.x;
    let ay = a.y - p.y;
    let bx = b.x - p.x;
    let by = b.y - p.y;
    let cx = c.x - p.x;
    let cy = c.y - p.y;
    let det = (ax * ax + ay * ay) * (bx * cy - cx * by) - (bx * bx + by * by) * (ax * cy - cx * ay)
        + (cx * cx + cy * cy) * (ax * by - bx * ay);
    det > 0.0
}

/// Circumcenter of the triangle `(a, b, c)`; `None` when degenerate.
pub fn circumcenter(a: &Point, b: &Point, c: &Point) -> Option<Point> {
    let d = 2.0 * (a.x * (b.y - c.y) + b.x * (c.y - a.y) + c.x * (a.y - b.y));
    if d.abs() < 1e-12 {
        return None;
    }
    let a2 = a.x * a.x + a.y * a.y;
    let b2 = b.x * b.x + b.y * b.y;
    let c2 = c.x * c.x + c.y * c.y;
    let ux = (a2 * (b.y - c.y) + b2 * (c.y - a.y) + c2 * (a.y - b.y)) / d;
    let uy = (a2 * (c.x - b.x) + b2 * (a.x - c.x) + c2 * (b.x - a.x)) / d;
    Some(Point::new(ux, uy))
}

fn interleave(x: u32, y: u32) -> u64 {
    fn spread(v: u32) -> u64 {
        let mut v = v as u64;
        v = (v | (v << 16)) & 0x0000_FFFF_0000_FFFF;
        v = (v | (v << 8)) & 0x00FF_00FF_00FF_00FF;
        v = (v | (v << 4)) & 0x0F0F_0F0F_0F0F_0F0F;
        v = (v | (v << 2)) & 0x3333_3333_3333_3333;
        v = (v | (v << 1)) & 0x5555_5555_5555_5555;
        v
    }
    spread(x) | (spread(y) << 1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::point::sort_dedup;
    use sh_rand::Rng;

    fn random_sites(n: usize, seed: u64) -> Vec<Point> {
        let mut rng = Rng::seed(seed);
        let mut pts: Vec<Point> = (0..n)
            .map(|_| Point::new(rng.uniform(0.0..1000.0), rng.uniform(0.0..1000.0)))
            .collect();
        sort_dedup(&mut pts);
        pts
    }

    #[test]
    fn single_triangle() {
        let sites = vec![
            Point::new(0.0, 0.0),
            Point::new(10.0, 0.0),
            Point::new(5.0, 8.0),
        ];
        let t = Triangulation::build(&sites);
        assert_eq!(t.triangles().len(), 1);
    }

    #[test]
    fn square_gives_two_triangles() {
        let sites = vec![
            Point::new(0.0, 0.0),
            Point::new(1.0, 0.0),
            Point::new(1.0, 1.0),
            Point::new(0.0, 1.0),
        ];
        let t = Triangulation::build(&sites);
        assert_eq!(t.triangles().len(), 2);
    }

    #[test]
    fn triangle_count_matches_euler() {
        // For n sites with h on the hull: triangles = 2n - h - 2.
        let sites = random_sites(200, 42);
        let t = Triangulation::build(&sites);
        let hull = crate::algorithms::convex_hull::convex_hull(&sites);
        assert_eq!(t.triangles().len(), 2 * sites.len() - hull.len() - 2);
    }

    #[test]
    fn empty_circumcircle_property() {
        let sites = random_sites(120, 7);
        let t = Triangulation::build(&sites);
        for tri in t.triangles() {
            let [a, b, c] = tri.map(|i| sites[i]);
            for (k, p) in sites.iter().enumerate() {
                if tri.contains(&k) {
                    continue;
                }
                assert!(
                    !in_circle(&a, &b, &c, p),
                    "site {k} inside circumcircle of {tri:?}"
                );
            }
        }
    }

    #[test]
    fn all_triangles_ccw() {
        let sites = random_sites(80, 3);
        let t = Triangulation::build(&sites);
        for tri in t.triangles() {
            let [a, b, c] = tri.map(|i| sites[i]);
            assert!(Point::cross(&a, &b, &c) > 0.0);
        }
    }

    #[test]
    fn neighbor_rings_are_symmetric() {
        let sites = random_sites(100, 9);
        let t = Triangulation::build(&sites);
        let rings = t.neighbor_rings();
        for (i, ring) in rings.iter().enumerate() {
            assert!(!ring.is_empty());
            for &j in ring {
                assert!(rings[j].contains(&i), "asymmetric ring {i} <-> {j}");
            }
        }
    }

    #[test]
    fn degenerate_inputs_yield_no_triangles() {
        assert!(Triangulation::build(&[]).triangles().is_empty());
        assert!(Triangulation::build(&[Point::new(1.0, 1.0)])
            .triangles()
            .is_empty());
        let collinear: Vec<Point> = (0..5).map(|i| Point::new(i as f64, 0.0)).collect();
        assert!(Triangulation::build(&collinear).triangles().is_empty());
    }

    #[test]
    fn circumcenter_equidistant() {
        let a = Point::new(0.0, 0.0);
        let b = Point::new(4.0, 0.0);
        let c = Point::new(0.0, 4.0);
        let cc = circumcenter(&a, &b, &c).unwrap();
        assert!(cc.approx_eq(&Point::new(2.0, 2.0)));
        let (da, db, dc) = (cc.distance(&a), cc.distance(&b), cc.distance(&c));
        assert!((da - db).abs() < 1e-9 && (db - dc).abs() < 1e-9);
    }
}
