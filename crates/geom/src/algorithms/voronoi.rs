//! Voronoi diagram as the dual of the Delaunay triangulation, with the
//! *safe region* (dangerous zone) test used by the distributed Voronoi
//! construction.
//!
//! A Voronoi cell is **safe** within a partition rectangle when no site
//! added *outside* the partition could ever change it. By the duality with
//! Delaunay triangulation, the cell of site `g` changes iff a new site
//! lands inside one of the circumcircles of `g`'s incident Delaunay
//! triangles — the union of those circles is the cell's *dangerous zone*.
//! If the dangerous zone lies entirely inside the partition rectangle (and
//! the partitioning is disjoint, so no new site can appear inside), the
//! cell is final and can be flushed to the output early.

use crate::algorithms::delaunay::{circumcenter, Triangulation};
use crate::point::Point;
use crate::rect::Rect;

/// One Voronoi cell.
#[derive(Clone, Debug)]
pub struct VoronoiCell {
    /// The generating site.
    pub site: Point,
    /// Index of the site in the input order of [`VoronoiDiagram::build`].
    pub site_ix: usize,
    /// Cell vertices (circumcenters of incident Delaunay triangles) in
    /// counter-clockwise order. Empty for unbounded cells.
    pub vertices: Vec<Point>,
    /// False when the cell extends to infinity (site on the data hull).
    pub bounded: bool,
}

impl VoronoiCell {
    /// Safe-region test: `true` iff the cell is bounded and its dangerous
    /// zone (one circle per cell vertex, centred at the vertex and passing
    /// through the site) lies entirely inside `partition`.
    pub fn is_safe(&self, partition: &Rect) -> bool {
        if !self.bounded {
            return false;
        }
        self.vertices.iter().all(|v| {
            let r = v.distance(&self.site);
            v.x - r >= partition.x1
                && v.x + r <= partition.x2
                && v.y - r >= partition.y1
                && v.y + r <= partition.y2
        })
    }

    /// Approximate area of a bounded cell (shoelace over its vertices).
    pub fn area(&self) -> f64 {
        let n = self.vertices.len();
        if !self.bounded || n < 3 {
            return f64::INFINITY;
        }
        let mut acc = 0.0;
        for i in 0..n {
            let p = &self.vertices[i];
            let q = &self.vertices[(i + 1) % n];
            acc += p.x * q.y - q.x * p.y;
        }
        (acc / 2.0).abs()
    }
}

/// The Voronoi diagram of a set of sites.
#[derive(Clone, Debug)]
pub struct VoronoiDiagram {
    /// One cell per input site, in input order.
    pub cells: Vec<VoronoiCell>,
}

impl VoronoiDiagram {
    /// Builds the diagram from distinct sites via Delaunay duality.
    pub fn build(sites: &[Point]) -> VoronoiDiagram {
        let tri = Triangulation::build(sites);
        Self::from_triangulation(&tri)
    }

    /// Builds the diagram from an existing triangulation (lets callers
    /// reuse the triangulation for neighbour rings).
    pub fn from_triangulation(tri: &Triangulation) -> VoronoiDiagram {
        let n = tri.num_sites();
        let sites = tri.sites();
        // Incident triangles per site, over *all* alive triangles so that
        // hull sites are detected through their super-vertex triangles.
        let all = tri.triangles_with_super();
        let mut incident: Vec<Vec<usize>> = vec![Vec::new(); n];
        let mut touches_super = vec![false; n];
        for (t, v) in all.iter().enumerate() {
            let has_super = v.iter().any(|&x| x >= n);
            for &x in v {
                if x < n {
                    if has_super {
                        touches_super[x] = true;
                    } else {
                        incident[x].push(t);
                    }
                }
            }
        }
        let mut cells = Vec::with_capacity(n);
        for i in 0..n {
            let site = sites[i];
            if touches_super[i] || incident[i].is_empty() {
                cells.push(VoronoiCell {
                    site,
                    site_ix: i,
                    vertices: Vec::new(),
                    bounded: false,
                });
                continue;
            }
            // Circumcenters of incident triangles, ordered by angle
            // around the site; interior sites have a full closed fan so
            // angular order equals fan order.
            let mut verts: Vec<Point> = incident[i]
                .iter()
                .filter_map(|&t| {
                    let [a, b, c] = all[t].map(|x| tri.coords(x));
                    circumcenter(&a, &b, &c)
                })
                .collect();
            if verts.len() < 3 {
                cells.push(VoronoiCell {
                    site,
                    site_ix: i,
                    vertices: Vec::new(),
                    bounded: false,
                });
                continue;
            }
            verts.sort_by(|p, q| {
                let ap = (p.y - site.y).atan2(p.x - site.x);
                let aq = (q.y - site.y).atan2(q.x - site.x);
                ap.total_cmp(&aq)
            });
            cells.push(VoronoiCell {
                site,
                site_ix: i,
                vertices: verts,
                bounded: true,
            });
        }
        VoronoiDiagram { cells }
    }

    /// Number of cells (= number of sites).
    pub fn len(&self) -> usize {
        self.cells.len()
    }

    /// True when built over no sites.
    pub fn is_empty(&self) -> bool {
        self.cells.is_empty()
    }
}

/// Canonical fingerprint of a cell for cross-implementation comparison:
/// the site plus the sorted multiset of vertex coordinates, quantized.
pub fn cell_fingerprint(cell: &VoronoiCell) -> (i64, i64, Vec<(i64, i64)>, bool) {
    let q = |v: f64| (v * 1e6).round() as i64;
    let mut verts: Vec<(i64, i64)> = cell.vertices.iter().map(|p| (q(p.x), q(p.y))).collect();
    verts.sort_unstable();
    verts.dedup();
    (q(cell.site.x), q(cell.site.y), verts, cell.bounded)
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
    fn five_point_plus() {
        // Four corner sites and one center site: the center cell is the
        // bounded square between them.
        let sites = vec![
            Point::new(0.0, 0.0),
            Point::new(2.0, 0.0),
            Point::new(2.0, 2.0),
            Point::new(0.0, 2.0),
            Point::new(1.0, 1.0),
        ];
        let vd = VoronoiDiagram::build(&sites);
        let center = vd.cells.iter().find(|c| c.site == sites[4]).unwrap();
        assert!(center.bounded);
        assert!((center.area() - 2.0).abs() < 1e-6, "{}", center.area());
        for c in &vd.cells {
            if c.site_ix != 4 {
                assert!(!c.bounded, "corner site must be unbounded");
            }
        }
    }

    #[test]
    fn hull_sites_are_unbounded() {
        let sites = random_sites(60, 21);
        let hull = crate::algorithms::convex_hull::convex_hull(&sites);
        let vd = VoronoiDiagram::build(&sites);
        for c in &vd.cells {
            if hull.iter().any(|h| h.approx_eq(&c.site)) {
                assert!(!c.bounded);
            }
        }
    }

    #[test]
    fn bounded_cells_contain_their_site_region() {
        // The centroid of a bounded cell must have its own site as the
        // nearest site (the defining property of a Voronoi cell).
        let sites = random_sites(150, 5);
        let vd = VoronoiDiagram::build(&sites);
        let mut bounded_seen = 0;
        for c in &vd.cells {
            if !c.bounded {
                continue;
            }
            bounded_seen += 1;
            let n = c.vertices.len() as f64;
            let cx = c.vertices.iter().map(|p| p.x).sum::<f64>() / n;
            let cy = c.vertices.iter().map(|p| p.y).sum::<f64>() / n;
            let centroid = Point::new(cx, cy);
            let nearest = sites
                .iter()
                .min_by(|a, b| {
                    a.distance_sq(&centroid)
                        .total_cmp(&b.distance_sq(&centroid))
                })
                .unwrap();
            assert!(
                nearest.approx_eq(&c.site),
                "centroid of cell {} closer to {} than to {}",
                c.site_ix,
                nearest,
                c.site
            );
        }
        assert!(bounded_seen > 50, "expected mostly bounded cells");
    }

    #[test]
    fn cell_vertices_equidistant_to_site_and_neighbors() {
        // Every cell vertex is a circumcenter: its distance to the cell's
        // site equals its distance to (at least) two other sites.
        let sites = random_sites(80, 13);
        let vd = VoronoiDiagram::build(&sites);
        for c in vd.cells.iter().filter(|c| c.bounded) {
            for v in &c.vertices {
                let d0 = v.distance(&c.site);
                let equal = sites
                    .iter()
                    .filter(|s| (v.distance(s) - d0).abs() < 1e-6)
                    .count();
                assert!(equal >= 3, "vertex {v} equidistant to only {equal} sites");
            }
        }
    }

    #[test]
    fn safety_requires_margin() {
        let sites = vec![
            Point::new(0.0, 0.0),
            Point::new(2.0, 0.0),
            Point::new(2.0, 2.0),
            Point::new(0.0, 2.0),
            Point::new(1.0, 1.0),
        ];
        let vd = VoronoiDiagram::build(&sites);
        let center = vd.cells.iter().find(|c| c.site_ix == 4).unwrap();
        // Dangerous zone of the center cell: circles of radius sqrt(2)
        // around (1,0),(2,1),(1,2),(0,1) — contained in a rect with margin.
        assert!(center.is_safe(&Rect::new(-2.0, -2.0, 4.0, 4.0)));
        // Tight partition: dangerous zone pokes outside.
        assert!(!center.is_safe(&Rect::new(0.0, 0.0, 2.0, 2.0)));
        // Unbounded cells are never safe.
        assert!(!vd.cells[0].is_safe(&Rect::new(-100.0, -100.0, 100.0, 100.0)));
    }

    #[test]
    fn safe_cells_survive_outside_additions() {
        // Adding sites outside the partition must not change safe cells.
        let sites = random_sites(120, 33);
        let partition = Rect::new(200.0, 200.0, 800.0, 800.0);
        let inside: Vec<Point> = sites
            .iter()
            .copied()
            .filter(|p| partition.contains_point(p))
            .collect();
        let vd_local = VoronoiDiagram::build(&inside);
        let safe: Vec<&VoronoiCell> = vd_local
            .cells
            .iter()
            .filter(|c| c.is_safe(&partition))
            .collect();
        assert!(!safe.is_empty(), "test needs at least one safe cell");
        // Global diagram over all sites.
        let vd_global = VoronoiDiagram::build(&sites);
        for s in &safe {
            let g = vd_global
                .cells
                .iter()
                .find(|c| c.site.approx_eq(&s.site))
                .unwrap();
            assert_eq!(
                cell_fingerprint(g),
                cell_fingerprint(s),
                "safe cell changed after adding outside sites"
            );
        }
    }
}
