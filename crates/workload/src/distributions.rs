//! Point and rectangle distributions.

use sh_geom::{Point, Rect};
use sh_rand::Rng;

/// The SYNTH distributions of the paper's evaluation.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Distribution {
    /// Uniform over the universe.
    Uniform,
    /// Gaussian cluster at the universe center (σ = 1/5 of each extent),
    /// clamped to the universe.
    Gaussian,
    /// Diagonal band `y ≈ x` — the skyline best case.
    Correlated,
    /// Anti-diagonal band `y ≈ max − x` — the skyline worst case (every
    /// point may be on the skyline).
    AntiCorrelated,
    /// Ring of radius 0.4·extent around the center — the convex-hull /
    /// farthest-pair worst case (hull size ≈ n).
    Circular,
}

impl Distribution {
    /// All distributions, in the order the experiments sweep them.
    pub const ALL: [Distribution; 5] = [
        Distribution::Uniform,
        Distribution::Gaussian,
        Distribution::Correlated,
        Distribution::AntiCorrelated,
        Distribution::Circular,
    ];

    /// Display name used in experiment tables.
    pub fn name(&self) -> &'static str {
        match self {
            Distribution::Uniform => "uniform",
            Distribution::Gaussian => "gaussian",
            Distribution::Correlated => "correlated",
            Distribution::AntiCorrelated => "anti-correlated",
            Distribution::Circular => "circular",
        }
    }
}

/// Generates `n` points with the given distribution inside `universe`.
pub fn points(n: usize, dist: Distribution, universe: &Rect, seed: u64) -> Vec<Point> {
    let mut rng = Rng::seed(seed);
    let w = universe.width();
    let h = universe.height();
    let cx = universe.center().x;
    let cy = universe.center().y;
    let clamp = |p: Point| {
        Point::new(
            p.x.clamp(universe.x1, universe.x2),
            p.y.clamp(universe.y1, universe.y2),
        )
    };
    (0..n)
        .map(|_| {
            let p = match dist {
                Distribution::Uniform => {
                    Point::new(universe.x1 + rng.unit() * w, universe.y1 + rng.unit() * h)
                }
                Distribution::Gaussian => Point::new(
                    cx + gaussian(&mut rng) * w / 5.0,
                    cy + gaussian(&mut rng) * h / 5.0,
                ),
                Distribution::Correlated => {
                    let x = universe.x1 + rng.unit() * w;
                    let t = (x - universe.x1) / w;
                    Point::new(x, universe.y1 + t * h + gaussian(&mut rng) * h / 20.0)
                }
                Distribution::AntiCorrelated => {
                    // Essentially on the anti-diagonal: the skyline worst
                    // case where (almost) every point is on the skyline.
                    let x = universe.x1 + rng.unit() * w;
                    let t = (x - universe.x1) / w;
                    Point::new(
                        x,
                        universe.y1 + (1.0 - t) * h + gaussian(&mut rng) * h * 1e-9,
                    )
                }
                Distribution::Circular => {
                    // Exactly on a ring: hull size ≈ n, the convex-hull /
                    // farthest-pair worst case.
                    let a = rng.unit() * std::f64::consts::TAU;
                    let r = 0.4;
                    Point::new(cx + a.cos() * r * w, cy + a.sin() * r * h)
                }
            };
            clamp(p)
        })
        .collect()
}

/// OSM-like clustered points: `clusters` Gaussian blobs of very different
/// densities plus a thin uniform background — the skew profile of
/// real-world map data.
pub fn osm_like_points(n: usize, universe: &Rect, clusters: usize, seed: u64) -> Vec<Point> {
    let mut rng = Rng::seed(seed);
    let clusters = clusters.max(1);
    let centers: Vec<(Point, f64, f64)> = (0..clusters)
        .map(|_| {
            let c = Point::new(
                universe.x1 + rng.unit() * universe.width(),
                universe.y1 + rng.unit() * universe.height(),
            );
            let sigma = universe.width() * rng.uniform(0.005..0.05);
            let weight = rng.uniform(0.5..4.0);
            (c, sigma, weight)
        })
        .collect();
    let total_weight: f64 = centers.iter().map(|(_, _, w)| w).sum();
    (0..n)
        .map(|_| {
            if rng.unit() < 0.1 {
                // Background noise.
                return Point::new(
                    universe.x1 + rng.unit() * universe.width(),
                    universe.y1 + rng.unit() * universe.height(),
                );
            }
            let mut pick = rng.unit() * total_weight;
            let mut chosen = &centers[0];
            for c in &centers {
                pick -= c.2;
                if pick <= 0.0 {
                    chosen = c;
                    break;
                }
            }
            let (c, sigma, _) = chosen;
            Point::new(
                (c.x + gaussian(&mut rng) * sigma).clamp(universe.x1, universe.x2),
                (c.y + gaussian(&mut rng) * sigma).clamp(universe.y1, universe.y2),
            )
        })
        .collect()
}

/// Random rectangles: uniform centers, edge lengths uniform in
/// `(0, max_side]`. The spatial-join workload.
pub fn rects(n: usize, universe: &Rect, max_side: f64, seed: u64) -> Vec<Rect> {
    let mut rng = Rng::seed(seed);
    (0..n)
        .map(|_| {
            let w = rng.unit() * max_side;
            let h = rng.unit() * max_side;
            let x = universe.x1 + rng.unit() * (universe.width() - w).max(0.0);
            let y = universe.y1 + rng.unit() * (universe.height() - h).max(0.0);
            Rect::new(x, y, x + w, y + h)
        })
        .collect()
}

/// Standard normal via Box–Muller.
fn gaussian(rng: &mut Rng) -> f64 {
    let u1: f64 = rng.uniform(f64::EPSILON..1.0);
    let u2: f64 = rng.unit();
    (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
}

#[cfg(test)]
mod tests {
    use super::*;
    use sh_geom::algorithms::convex_hull::convex_hull;
    use sh_geom::algorithms::skyline::skyline;

    fn uni() -> Rect {
        Rect::new(0.0, 0.0, 1000.0, 1000.0)
    }

    #[test]
    fn all_points_inside_universe() {
        for dist in Distribution::ALL {
            for p in points(2000, dist, &uni(), 1) {
                assert!(uni().contains_point(&p), "{} escaped: {p}", dist.name());
            }
        }
    }

    /// The first records of each generator, bit for bit, as drawn before
    /// the generator moved into this repository. Every dataset of the
    /// evaluation is defined by these streams.
    #[test]
    #[rustfmt::skip]
    fn golden_records() {
        let bits = |pts: Vec<Point>| -> Vec<_> {
            pts.iter().map(|p| [p.x, p.y].map(f64::to_bits)).collect()
        };
        assert_eq!(bits(points(3, Distribution::Uniform, &uni(), 42)), [
            [0x4054f73aeaf7e5a8, 0x4077afaf1b51a0b4],
            [0x40854058e7e19128, 0x408ce58b26eb33a5],
            [0x408efe6e6a9c735a, 0x40880dea6a3b6e0f],
        ]);
        assert_eq!(bits(osm_like_points(3, &uni(), 6, 42)), [
            [0x408969d763ad9de8, 0x407458994bca6920],
            [0x40899f3482120eff, 0x40740f6e50426ea0],
            [0x405fc117d357e8bc, 0x4076ede360b15cbd],
        ]);
        let rs: Vec<_> = rects(3, &uni(), 50.0, 42).iter()
            .map(|r| [r.x1, r.y1, r.x2, r.y2].map(f64::to_bits))
            .collect();
        assert_eq!(rs, [
            [0x40852988fc91232e, 0x408c595e0f090b69, 0x40854b148e091637, 0x408cf0f5a2eb15d4],
            [0x40855cb925da9b79, 0x40898a5a81434e60, 0x4086e971de626e0a, 0x408abe3fd35fe0ae],
            [0x408483c837ff0397, 0x4071a330db9a7c8e, 0x4085b454f491d064, 0x407375decbe4d199],
        ]);
    }

    #[test]
    fn deterministic_in_seed() {
        let a = points(100, Distribution::Uniform, &uni(), 42);
        let b = points(100, Distribution::Uniform, &uni(), 42);
        let c = points(100, Distribution::Uniform, &uni(), 43);
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn gaussian_clusters_centrally() {
        let pts = points(5000, Distribution::Gaussian, &uni(), 2);
        let center_count = pts
            .iter()
            .filter(|p| p.distance(&Point::new(500.0, 500.0)) < 300.0)
            .count();
        assert!(center_count > 3000, "{center_count}");
    }

    #[test]
    fn anti_correlated_has_huge_skyline() {
        let anti = points(5000, Distribution::AntiCorrelated, &uni(), 3);
        let unif = points(5000, Distribution::Uniform, &uni(), 3);
        let sky_anti = skyline(&anti).len();
        let sky_unif = skyline(&unif).len();
        assert!(
            sky_anti > 50 * sky_unif.max(1),
            "anti {sky_anti} vs uniform {sky_unif}"
        );
    }

    #[test]
    fn correlated_has_tiny_skyline() {
        let pts = points(5000, Distribution::Correlated, &uni(), 4);
        assert!(skyline(&pts).len() < 60);
    }

    #[test]
    fn circular_has_huge_hull() {
        let circ = points(3000, Distribution::Circular, &uni(), 5);
        let unif = points(3000, Distribution::Uniform, &uni(), 5);
        let hull_circ = convex_hull(&circ).len();
        let hull_unif = convex_hull(&unif).len();
        assert!(
            hull_circ > 10 * hull_unif,
            "circular {hull_circ} vs uniform {hull_unif}"
        );
    }

    #[test]
    fn osm_like_is_skewed() {
        let pts = osm_like_points(8000, &uni(), 6, 7);
        assert_eq!(pts.len(), 8000);
        // Measure skew: occupancy of a 10x10 grid is far from uniform.
        let mut counts = [0usize; 100];
        for p in &pts {
            let cx = ((p.x / 100.0) as usize).min(9);
            let cy = ((p.y / 100.0) as usize).min(9);
            counts[cy * 10 + cx] += 1;
        }
        let max = *counts.iter().max().unwrap();
        assert!(max > 800, "max cell {max} — expected heavy clustering");
    }

    #[test]
    fn rects_are_valid_and_bounded() {
        for r in rects(1000, &uni(), 50.0, 8) {
            assert!(r.x1 <= r.x2 && r.y1 <= r.y2);
            assert!(uni().contains_rect(&r));
            assert!(r.width() <= 50.0 && r.height() <= 50.0);
        }
    }
}
