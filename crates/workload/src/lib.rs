//! # sh-workload — dataset generators
//!
//! Generates the datasets the SpatialHadoop evaluation uses:
//!
//! * the **SYNTH** point distributions (uniform, Gaussian, correlated,
//!   anti-correlated, circular) — anti-correlated is the skyline worst
//!   case, circular the farthest-pair/convex-hull worst case;
//! * **OSM-like** clustered points and polygons standing in for the
//!   OpenStreetMap extracts (see DESIGN.md §2: same skew structure at
//!   laptop scale);
//! * rectangle datasets for the spatial-join experiments.
//!
//! All generators are deterministic in `(n, seed)` and emit coordinates
//! inside a caller-provided universe.

#![forbid(unsafe_code)]

pub mod distributions;
pub mod polygons;

pub use distributions::{osm_like_points, points, rects, Distribution};
pub use polygons::{
    osm_like_polygons, osm_like_polygons_complex, random_convex_polygon, random_star_polygon,
};

use sh_geom::Rect;

/// The default `1M × 1M` universe the paper generates SYNTH data in.
pub fn default_universe() -> Rect {
    Rect::new(0.0, 0.0, 1_000_000.0, 1_000_000.0)
}
