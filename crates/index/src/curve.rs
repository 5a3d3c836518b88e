//! Space-filling-curve partitioning: Z-order (Morton) and Hilbert.

use sh_geom::{Point, Rect};

/// Resolution of the curve: coordinates are quantized to `2^ORDER` cells
/// per axis before computing curve positions.
pub const ORDER: u32 = 16;

/// Z-order (Morton) value of a quantized coordinate pair.
pub fn z_value(x: u32, y: u32) -> u64 {
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

/// Hilbert-curve distance of a quantized coordinate pair (order
/// [`ORDER`]); the classic xy→d bit-twiddling walk.
pub fn hilbert_value(mut x: u32, mut y: u32) -> u64 {
    let n: u32 = 1 << ORDER;
    let mut rx: u32;
    let mut ry: u32;
    let mut d: u64 = 0;
    let mut s = n / 2;
    while s > 0 {
        rx = u32::from((x & s) > 0);
        ry = u32::from((y & s) > 0);
        d += (s as u64) * (s as u64) * ((3 * rx) ^ ry) as u64;
        // Rotate the quadrant (reflection is within the full n-grid on
        // the encode side; the decode side reflects within s).
        if ry == 0 {
            if rx == 1 {
                x = (n - 1).wrapping_sub(x);
                y = (n - 1).wrapping_sub(y);
            }
            std::mem::swap(&mut x, &mut y);
        }
        s /= 2;
    }
    d
}

/// Inverse of [`hilbert_value`] (used by tests to check bijectivity).
pub fn hilbert_point(mut d: u64) -> (u32, u32) {
    let n: u64 = 1 << ORDER;
    let (mut x, mut y): (u64, u64) = (0, 0);
    let mut s: u64 = 1;
    while s < n {
        let rx = 1 & (d / 2);
        let ry = 1 & (d ^ rx);
        // Rotate.
        if ry == 0 {
            if rx == 1 {
                x = s - 1 - x;
                y = s - 1 - y;
            }
            std::mem::swap(&mut x, &mut y);
        }
        x += s * rx;
        y += s * ry;
        d /= 4;
        s *= 2;
    }
    (x as u32, y as u32)
}

/// Quantizes a point into the `2^ORDER` grid of the universe.
pub fn quantize(p: &Point, universe: &Rect) -> (u32, u32) {
    let max = ((1u64 << ORDER) - 1) as f64;
    let w = universe.width().max(1e-12);
    let h = universe.height().max(1e-12);
    let x = (((p.x - universe.x1) / w) * max).clamp(0.0, max) as u32;
    let y = (((p.y - universe.y1) / h) * max).clamp(0.0, max) as u32;
    (x, y)
}

/// Shared shape of both curve partitionings: sorted upper bounds of the
/// curve ranges plus the seed MBR of each range's sample chunk.
#[derive(Clone, Debug)]
pub struct CurvePartitioning {
    /// Universe coordinates are quantized within.
    pub universe: Rect,
    /// `bounds[i]` is the inclusive upper curve value of partition `i`;
    /// the last bound is `u64::MAX`.
    pub bounds: Vec<u64>,
    /// Sample MBR per range (reporting/quality only).
    pub seeds: Vec<Rect>,
}

impl CurvePartitioning {
    fn build(values: &mut [(u64, Point)], universe: Rect, target: usize) -> CurvePartitioning {
        values.sort_by_key(|(v, _)| *v);
        let n = values.len();
        if n == 0 {
            return CurvePartitioning {
                universe,
                bounds: vec![u64::MAX],
                seeds: vec![universe],
            };
        }
        let per = n.div_ceil(target.max(1)).max(1);
        let mut bounds = Vec::new();
        let mut seeds = Vec::new();
        for chunk in values.chunks(per) {
            bounds.push(chunk.last().unwrap().0);
            let mut r = Rect::empty();
            for (_, p) in chunk {
                r.expand_point(p);
            }
            seeds.push(r);
        }
        *bounds.last_mut().unwrap() = u64::MAX;
        CurvePartitioning {
            universe,
            bounds,
            seeds,
        }
    }

    fn choose_value(&self, v: u64) -> usize {
        match self.bounds.binary_search(&v) {
            Ok(i) | Err(i) => i.min(self.bounds.len() - 1),
        }
    }
}

/// Z-curve partitioning: equal-count ranges of Morton values.
#[derive(Clone, Debug)]
pub struct ZCurvePartitioning(pub CurvePartitioning);

impl ZCurvePartitioning {
    /// Builds `target` ranges from the sample.
    pub fn build(sample: &[Point], universe: Rect, target: usize) -> ZCurvePartitioning {
        let mut values: Vec<(u64, Point)> = sample
            .iter()
            .map(|p| {
                let (x, y) = quantize(p, &universe);
                (z_value(x, y), *p)
            })
            .collect();
        ZCurvePartitioning(CurvePartitioning::build(&mut values, universe, target))
    }

    /// Number of partitions.
    pub fn len(&self) -> usize {
        self.0.bounds.len()
    }

    /// Never empty.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// The universe.
    pub fn universe(&self) -> Rect {
        self.0.universe
    }

    /// Seed MBR of partition `i`.
    pub fn seed(&self, i: usize) -> Rect {
        self.0.seeds[i]
    }

    /// Partition of a point (by its Morton value).
    pub fn choose(&self, p: &Point) -> usize {
        let (x, y) = quantize(p, &self.0.universe);
        self.0.choose_value(z_value(x, y))
    }
}

/// Hilbert-curve partitioning: equal-count ranges of Hilbert distances.
/// Better locality than Z-order (no long diagonal jumps), which shows up
/// as lower partition margins in the quality experiment.
#[derive(Clone, Debug)]
pub struct HilbertPartitioning(pub CurvePartitioning);

impl HilbertPartitioning {
    /// Builds `target` ranges from the sample.
    pub fn build(sample: &[Point], universe: Rect, target: usize) -> HilbertPartitioning {
        let mut values: Vec<(u64, Point)> = sample
            .iter()
            .map(|p| {
                let (x, y) = quantize(p, &universe);
                (hilbert_value(x, y), *p)
            })
            .collect();
        HilbertPartitioning(CurvePartitioning::build(&mut values, universe, target))
    }

    /// Number of partitions.
    pub fn len(&self) -> usize {
        self.0.bounds.len()
    }

    /// Never empty.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// The universe.
    pub fn universe(&self) -> Rect {
        self.0.universe
    }

    /// Seed MBR of partition `i`.
    pub fn seed(&self, i: usize) -> Rect {
        self.0.seeds[i]
    }

    /// Partition of a point (by its Hilbert value).
    pub fn choose(&self, p: &Point) -> usize {
        let (x, y) = quantize(p, &self.0.universe);
        self.0.choose_value(hilbert_value(x, y))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sh_rand::Rng;

    #[test]
    fn z_value_interleaves() {
        assert_eq!(z_value(0, 0), 0);
        assert_eq!(z_value(1, 0), 1);
        assert_eq!(z_value(0, 1), 2);
        assert_eq!(z_value(1, 1), 3);
        assert_eq!(z_value(2, 0), 4);
    }

    #[test]
    fn hilbert_roundtrip_is_bijective() {
        let mut rng = Rng::seed(1);
        for _ in 0..1000 {
            let x = rng.below(1 << ORDER) as u32;
            let y = rng.below(1 << ORDER) as u32;
            let d = hilbert_value(x, y);
            assert_eq!(hilbert_point(d), (x, y), "x={x} y={y} d={d}");
        }
    }

    #[test]
    fn hilbert_neighbors_are_adjacent_cells() {
        // Consecutive curve positions differ by exactly one step in x or y
        // — the locality property that makes Hilbert better than Z.
        for d in 0..4096u64 {
            let (x1, y1) = hilbert_point(d);
            let (x2, y2) = hilbert_point(d + 1);
            let dist = (x1 as i64 - x2 as i64).abs() + (y1 as i64 - y2 as i64).abs();
            assert_eq!(dist, 1, "jump at d={d}");
        }
    }

    #[test]
    fn quantize_clamps_and_scales() {
        let uni = Rect::new(0.0, 0.0, 100.0, 100.0);
        assert_eq!(quantize(&Point::new(0.0, 0.0), &uni), (0, 0));
        let (x, y) = quantize(&Point::new(100.0, 100.0), &uni);
        assert_eq!((x, y), ((1 << ORDER) - 1, (1 << ORDER) - 1));
        let (x, _) = quantize(&Point::new(-5.0, 50.0), &uni);
        assert_eq!(x, 0);
    }

    #[test]
    fn partitions_balance_counts() {
        let mut rng = Rng::seed(2);
        let pts: Vec<Point> = (0..4000)
            .map(|_| Point::new(rng.uniform(0.0..100.0), rng.uniform(0.0..100.0)))
            .collect();
        let uni = Rect::new(0.0, 0.0, 100.0, 100.0);
        for build in [
            |s: &[Point], u, t| ZCurvePartitioning::build(s, u, t).0,
            |s: &[Point], u, t| HilbertPartitioning::build(s, u, t).0,
        ] {
            let cp = build(&pts, uni, 10);
            let z = ZCurvePartitioning(cp.clone());
            let mut counts = vec![0usize; z.len()];
            for p in &pts {
                counts[z.choose(p)] += 1;
            }
            let max = *counts.iter().max().unwrap();
            let min = *counts.iter().min().unwrap();
            assert!(max <= 2 * min.max(1), "counts {counts:?}");
        }
    }

    #[test]
    fn choose_is_consistent_with_build_chunks() {
        let mut rng = Rng::seed(3);
        let pts: Vec<Point> = (0..1000)
            .map(|_| Point::new(rng.uniform(0.0..50.0), rng.uniform(0.0..50.0)))
            .collect();
        let uni = Rect::new(0.0, 0.0, 50.0, 50.0);
        let h = HilbertPartitioning::build(&pts, uni, 8);
        // Every sample point must fall in the seed MBR of its chosen
        // partition (it was in that chunk during build).
        for p in &pts {
            let i = h.choose(p);
            assert!(
                h.seed(i).contains_point(p),
                "{p} not in seed {i} {:?}",
                h.seed(i)
            );
        }
    }

    #[test]
    fn empty_sample_single_partition() {
        let uni = Rect::new(0.0, 0.0, 1.0, 1.0);
        let z = ZCurvePartitioning::build(&[], uni, 4);
        assert_eq!(z.len(), 1);
        assert_eq!(z.choose(&Point::new(0.5, 0.5)), 0);
    }
}
