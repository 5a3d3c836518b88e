//! Polygon generators for the union and polygon-join workloads.

use sh_geom::algorithms::convex_hull::convex_hull;
use sh_geom::{Point, Polygon, Rect};
use sh_rand::Rng;

/// A random convex polygon: the hull of `vertices` random points in a
/// disc of radius `radius` around `center`. Always has ≥ 3 vertices.
pub fn random_convex_polygon(
    center: Point,
    radius: f64,
    vertices: usize,
    rng: &mut Rng,
) -> Polygon {
    loop {
        let pts: Vec<Point> = (0..vertices.max(3) * 2)
            .map(|_| {
                let a = rng.unit() * std::f64::consts::TAU;
                let r = radius * rng.unit().sqrt();
                Point::new(center.x + a.cos() * r, center.y + a.sin() * r)
            })
            .collect();
        let hull = convex_hull(&pts);
        if hull.len() >= 3 {
            return Polygon::new(hull);
        }
    }
}

/// A random *star-shaped* (simple but concave) polygon: vertices at
/// jittered radii in increasing angular order around `center` — the
/// "complex polygon" shape of the union experiment (real lake/park
/// boundaries are concave).
pub fn random_star_polygon(center: Point, radius: f64, vertices: usize, rng: &mut Rng) -> Polygon {
    let n = vertices.max(4);
    let ring: Vec<Point> = (0..n)
        .map(|i| {
            let a =
                (i as f64 / n as f64) * std::f64::consts::TAU + rng.uniform(-0.3..0.3) / n as f64;
            let r = radius * rng.uniform(0.35..1.0);
            Point::new(center.x + a.cos() * r, center.y + a.sin() * r)
        })
        .collect();
    Polygon::new(ring)
}

/// OSM-like polygon dataset: ZIP-code-style mosaics. Polygons cluster in
/// "urban areas" (many small adjacent polygons) with scattered large
/// rural ones, mimicking the paper's OSM lakes/parks extract:
///
/// * ~80% small polygons (radius ≈ `scale`) packed inside cluster blobs —
///   heavy overlap within a cluster, so local union removes many edges;
/// * ~20% larger polygons spread uniformly.
///
/// `osm_like_polygons` emits convex ("simple") shapes; use
/// [`osm_like_polygons_complex`] for the concave variant.
pub fn osm_like_polygons(n: usize, universe: &Rect, scale: f64, seed: u64) -> Vec<Polygon> {
    let mut rng = Rng::seed(seed);
    let clusters = ((n as f64).sqrt() as usize).clamp(1, 64);
    let centers: Vec<Point> = (0..clusters)
        .map(|_| {
            Point::new(
                universe.x1 + rng.unit() * universe.width(),
                universe.y1 + rng.unit() * universe.height(),
            )
        })
        .collect();
    (0..n)
        .map(|i| {
            if i % 5 == 0 {
                // Rural: larger, anywhere.
                let c = Point::new(
                    universe.x1 + rng.unit() * universe.width(),
                    universe.y1 + rng.unit() * universe.height(),
                );
                random_convex_polygon(c, scale * rng.uniform(2.0..5.0), 8, &mut rng)
            } else {
                // Urban: small, near a cluster center.
                let base = centers[rng.below(centers.len())];
                let c = Point::new(
                    base.x + (rng.unit() - 0.5) * scale * 10.0,
                    base.y + (rng.unit() - 0.5) * scale * 10.0,
                );
                random_convex_polygon(c, scale * rng.uniform(0.5..1.5), 6, &mut rng)
            }
        })
        .collect()
}

/// The concave ("complex") variant of [`osm_like_polygons`]: same
/// clustering, star-shaped boundaries with `detail` vertices each.
pub fn osm_like_polygons_complex(
    n: usize,
    universe: &Rect,
    scale: f64,
    detail: usize,
    seed: u64,
) -> Vec<Polygon> {
    let mut rng = Rng::seed(seed);
    let clusters = ((n as f64).sqrt() as usize).clamp(1, 64);
    let centers: Vec<Point> = (0..clusters)
        .map(|_| {
            Point::new(
                universe.x1 + rng.unit() * universe.width(),
                universe.y1 + rng.unit() * universe.height(),
            )
        })
        .collect();
    (0..n)
        .map(|i| {
            let (c, r) = if i % 5 == 0 {
                (
                    Point::new(
                        universe.x1 + rng.unit() * universe.width(),
                        universe.y1 + rng.unit() * universe.height(),
                    ),
                    scale * rng.uniform(2.0..5.0),
                )
            } else {
                let base = centers[rng.below(centers.len())];
                (
                    Point::new(
                        base.x + (rng.unit() - 0.5) * scale * 10.0,
                        base.y + (rng.unit() - 0.5) * scale * 10.0,
                    ),
                    scale * rng.uniform(0.5..1.5),
                )
            };
            random_star_polygon(c, r, detail, &mut rng)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn convex_polygons_are_convex() {
        let mut rng = Rng::seed(1);
        for _ in 0..50 {
            let p = random_convex_polygon(Point::new(100.0, 100.0), 20.0, 8, &mut rng);
            assert!(p.is_convex());
            assert!(p.len() >= 3);
            assert!(p.area() > 0.0);
        }
    }

    #[test]
    fn polygons_stay_near_center() {
        let mut rng = Rng::seed(2);
        let c = Point::new(50.0, 50.0);
        let p = random_convex_polygon(c, 10.0, 8, &mut rng);
        for v in p.vertices() {
            assert!(v.distance(&c) <= 10.0 + 1e-9);
        }
    }

    #[test]
    fn osm_like_polygons_cluster() {
        let uni = Rect::new(0.0, 0.0, 1000.0, 1000.0);
        let polys = osm_like_polygons(500, &uni, 5.0, 3);
        assert_eq!(polys.len(), 500);
        // Urban polygons overlap heavily: count overlapping pairs by MBR.
        let mbrs: Vec<Rect> = polys.iter().map(Polygon::mbr).collect();
        let overlaps = sh_geom::algorithms::plane_sweep::plane_sweep_self_join(&mbrs).len();
        assert!(overlaps > 100, "expected clustered overlap, got {overlaps}");
    }

    #[test]
    fn star_polygons_are_simple_and_mostly_concave() {
        let mut rng = Rng::seed(5);
        let mut concave = 0;
        for _ in 0..30 {
            let p = random_star_polygon(Point::new(100.0, 100.0), 20.0, 12, &mut rng);
            assert!(p.len() >= 4);
            assert!(p.area() > 0.0);
            // No self-intersection: every pair of non-adjacent edges
            // misses each other.
            let edges: Vec<_> = p.edges().collect();
            for i in 0..edges.len() {
                for j in (i + 2)..edges.len() {
                    if i == 0 && j == edges.len() - 1 {
                        continue; // adjacent around the ring
                    }
                    assert!(
                        edges[i].intersection(&edges[j]).is_none(),
                        "self-intersection between edges {i} and {j}"
                    );
                }
            }
            if !p.is_convex() {
                concave += 1;
            }
        }
        assert!(
            concave > 20,
            "stars should usually be concave: {concave}/30"
        );
    }

    #[test]
    fn complex_variant_generates_concave_clusters() {
        let uni = Rect::new(0.0, 0.0, 1000.0, 1000.0);
        let polys = osm_like_polygons_complex(200, &uni, 5.0, 10, 6);
        assert_eq!(polys.len(), 200);
        let concave = polys.iter().filter(|p| !p.is_convex()).count();
        assert!(concave > 150, "{concave}");
    }

    #[test]
    fn deterministic_in_seed() {
        let uni = Rect::new(0.0, 0.0, 100.0, 100.0);
        let a = osm_like_polygons(50, &uni, 2.0, 9);
        let b = osm_like_polygons(50, &uni, 2.0, 9);
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.vertices(), y.vertices());
        }
    }
}
