//! # sh-geom — computational-geometry substrate for SpatialHadoop-rs
//!
//! This crate provides the geometric primitives (points, rectangles,
//! segments, simple polygons) and the classic single-machine computational
//! geometry algorithms that the SpatialHadoop operations layer builds on:
//!
//! * [`algorithms::convex_hull`] — Andrew's monotone chain,
//! * [`algorithms::skyline`] — max-max skyline (maximal points),
//! * [`algorithms::closest_pair`] — divide & conquer closest pair,
//! * [`algorithms::farthest_pair`] — rotating calipers over the hull,
//! * [`algorithms::delaunay`] / [`algorithms::voronoi`] — Bowyer–Watson
//!   Delaunay triangulation and its Voronoi dual with the *safe region*
//!   (dangerous zone) test used by the distributed Voronoi construction,
//! * [`algorithms::union`] — boundary union of simple polygons,
//! * [`algorithms::plane_sweep`] — rectangle/MBR spatial join.
//!
//! Everything is deterministic, allocation-conscious `f64` geometry with an
//! explicit epsilon policy (see [`float`]). All public types implement the
//! line-oriented [`text::Record`] encoding used by the simulated DFS, so
//! that the MapReduce record readers in `sh-core` can parse them back.

#![forbid(unsafe_code)]

pub mod algorithms;
pub mod dsu;
pub mod float;
pub mod point;
pub mod polygon;
pub mod rect;
pub mod segment;
pub mod text;

pub use point::Point;
pub use polygon::Polygon;
pub use rect::Rect;
pub use segment::Segment;
pub use text::{ParseError, Record};
