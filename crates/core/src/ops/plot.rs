//! Plot: render a dataset into a raster image as a MapReduce job —
//! SpatialHadoop's visualization operation (the single-level plot of its
//! HadoopViz companion system).
//!
//! Each map task rasterizes its partition into a density tile over the
//! global pixel grid (record counts per pixel); tiles are merged by
//! pixel-wise addition — first across reducers (each owns a horizontal
//! band of the image), then trivially concatenated. The distributed
//! raster is bit-for-bit identical to a single-machine rasterization.
//!
//! The output is a portable graymap (PGM, text variant): viewable
//! everywhere, no image dependency needed.

use sh_dfs::Dfs;
use sh_geom::{Record, Rect};
use sh_mapreduce::{InputSplit, JobBuilder, MapContext, ReduceContext, Reducer};

use crate::catalog::SpatialFile;
use crate::mrlayer::{ByRecords, RecordMapper, SpatialFileSplitter};
use crate::opresult::{OpError, OpResult};

/// A density raster: `width x height` pixel counts, row 0 at the top.
#[derive(Clone, Debug, PartialEq)]
pub struct Raster {
    /// Pixels per row.
    pub width: usize,
    /// Rows.
    pub height: usize,
    /// Row-major record counts.
    pub pixels: Vec<u32>,
}

impl Raster {
    /// All-zero raster.
    pub fn new(width: usize, height: usize) -> Raster {
        Raster {
            width,
            height,
            pixels: vec![0; width * height],
        }
    }

    /// Accumulates `other` pixel-wise.
    pub fn add(&mut self, other: &Raster) {
        assert_eq!(
            self.pixels.len(),
            other.pixels.len(),
            "raster shapes differ"
        );
        for (a, b) in self.pixels.iter_mut().zip(&other.pixels) {
            *a += *b;
        }
    }

    /// Total records plotted.
    pub fn total(&self) -> u64 {
        self.pixels.iter().map(|&v| v as u64).sum()
    }

    /// Renders as a text PGM (grayscale, log-scaled so sparse pixels stay
    /// visible, dense clusters saturate).
    pub fn to_pgm(&self) -> String {
        let max = self.pixels.iter().copied().max().unwrap_or(0).max(1);
        let scale = 255.0 / ((max as f64) + 1.0).ln();
        let mut out = format!("P2\n{} {}\n255\n", self.width, self.height);
        for row in self.pixels.chunks(self.width) {
            let mut line = String::with_capacity(self.width * 4);
            for (i, &v) in row.iter().enumerate() {
                if i > 0 {
                    line.push(' ');
                }
                let g = (((v as f64) + 1.0).ln() * scale).round() as u32;
                line.push_str(&g.min(255).to_string());
            }
            out.push_str(&line);
            out.push('\n');
        }
        out
    }
}

/// Rasterizes records into `raster` (each record brightens the pixel of
/// its MBR center).
fn rasterize<R: Record>(records: impl Iterator<Item = R>, universe: &Rect, raster: &mut Raster) {
    let w = universe.width().max(1e-12);
    let h = universe.height().max(1e-12);
    for r in records {
        let c = r.mbr().center();
        let px = (((c.x - universe.x1) / w) * raster.width as f64)
            .floor()
            .clamp(0.0, raster.width as f64 - 1.0) as usize;
        // Row 0 at the top: flip y.
        let py_up = (((c.y - universe.y1) / h) * raster.height as f64)
            .floor()
            .clamp(0.0, raster.height as f64 - 1.0) as usize;
        let py = raster.height - 1 - py_up;
        raster.pixels[py * raster.width + px] += 1;
    }
}

struct PlotMapper<R: Record> {
    universe: Rect,
    width: usize,
    height: usize,
    _r: std::marker::PhantomData<fn() -> R>,
}

impl<R: Record> RecordMapper for PlotMapper<R> {
    type R = R;
    type K = u32;
    /// `(row, x-offset, counts for the partition's pixel window)` — a
    /// partition only ships the span of columns it actually lit, like
    /// HadoopViz tiles.
    type V = (u32, Vec<u32>);

    fn map_records(
        &self,
        _split: &InputSplit,
        records: Vec<R>,
        ctx: &mut MapContext<u32, (u32, Vec<u32>)>,
    ) {
        let mut tile = Raster::new(self.width, self.height);
        rasterize(records.into_iter(), &self.universe, &mut tile);
        for (row_ix, row) in tile.pixels.chunks(self.width).enumerate() {
            let Some(first) = row.iter().position(|&v| v > 0) else {
                continue;
            };
            let last = row.iter().rposition(|&v| v > 0).unwrap_or(first);
            ctx.emit(row_ix as u32, (first as u32, row[first..=last].to_vec()));
        }
    }
}

struct RowMergeReducer {
    width: usize,
}

impl Reducer for RowMergeReducer {
    type K = u32;
    type V = (u32, Vec<u32>);

    fn reduce(&self, row: &u32, values: Vec<(u32, Vec<u32>)>, ctx: &mut ReduceContext) {
        let mut merged = vec![0u32; self.width];
        for (offset, span) in values {
            for (i, v) in span.into_iter().enumerate() {
                merged[offset as usize + i] += v;
            }
        }
        let mut line = format!("ROW {row}");
        for v in merged {
            line.push(' ');
            line.push_str(&v.to_string());
        }
        ctx.output(&line);
    }
}

/// Plots an indexed file into a `width x height` density raster and
/// writes the PGM image to `{out_dir}/image.pgm` in the DFS.
pub fn plot_spatial<R: Record>(
    dfs: &Dfs,
    file: &SpatialFile,
    width: usize,
    height: usize,
    out_dir: &str,
) -> Result<OpResult<Raster>, OpError> {
    let splits = SpatialFileSplitter::all_splits(dfs, file)?;
    let mut sel = crate::mrlayer::splitter_selectivity(file, &splits);
    let job = JobBuilder::new(dfs, &format!("plot:{}", file.dir))
        .input_splits(splits)
        .mapper(ByRecords(PlotMapper::<R> {
            universe: file.universe,
            width,
            height,
            _r: std::marker::PhantomData,
        }))
        .pair_size(move |_, (_, v): &(u32, Vec<u32>)| 8 + 4 * v.len())
        .reducer(
            RowMergeReducer { width },
            dfs.config().total_reduce_slots().clamp(1, height.max(1)),
        )
        .build()?
        .run()?;
    // Assemble the raster from the per-row outputs.
    let mut raster = Raster::new(width, height);
    for line in job.rows.lines() {
        let mut it = line.split_ascii_whitespace();
        match it.next() {
            Some("ROW") => {}
            other => return Err(OpError::Corrupt(format!("bad plot row tag {other:?}"))),
        }
        let row: usize = it
            .next()
            .and_then(|t| t.parse().ok())
            .ok_or_else(|| OpError::Corrupt("bad plot row index".into()))?;
        for (col, tok) in it.enumerate() {
            let v: u32 = tok
                .parse()
                .map_err(|_| OpError::Corrupt(format!("bad pixel {tok:?}")))?;
            raster.pixels[row * width + col] = v;
        }
    }
    dfs.write_string(&format!("{out_dir}/image.pgm"), &raster.to_pgm())?;
    sel.records_emitted = raster.total();
    Ok(OpResult::new(raster, vec![job]).with_selectivity(sel))
}

// ---------------------------------------------------------- tile pyramid

/// A multilevel tile pyramid (web-map style): level `l` covers the
/// universe with `2^l x 2^l` tiles of `tile_px x tile_px` pixels each.
/// Only non-empty tiles are materialized.
#[derive(Clone, Debug, PartialEq)]
pub struct TilePyramid {
    /// Number of levels (level ids `0..levels`).
    pub levels: usize,
    /// Pixels per tile side.
    pub tile_px: usize,
    /// Non-empty tiles keyed by `(level, tile_x, tile_y)`; `tile_y` 0 at
    /// the top.
    pub tiles: std::collections::BTreeMap<(u8, u32, u32), Raster>,
}

impl TilePyramid {
    /// Records plotted at a level (identical across levels).
    pub fn total_at(&self, level: u8) -> u64 {
        self.tiles
            .iter()
            .filter(|((l, _, _), _)| *l == level)
            .map(|(_, t)| t.total())
            .sum()
    }
}

struct PyramidMapper<R: Record> {
    universe: Rect,
    levels: usize,
    tile_px: usize,
    _r: std::marker::PhantomData<fn() -> R>,
}

impl<R: Record> RecordMapper for PyramidMapper<R> {
    type R = R;
    type K = (u8, u32, u32);
    type V = Vec<u32>;

    fn map_records(
        &self,
        _split: &InputSplit,
        records: Vec<R>,
        ctx: &mut MapContext<(u8, u32, u32), Vec<u32>>,
    ) {
        use std::collections::HashMap;
        let w = self.universe.width().max(1e-12);
        let h = self.universe.height().max(1e-12);
        let mut tiles: HashMap<(u8, u32, u32), Vec<u32>> = HashMap::new();
        for r in &records {
            let c = r.mbr().center();
            for level in 0..self.levels {
                let res = (1usize << level) * self.tile_px; // pixels per axis
                let px = (((c.x - self.universe.x1) / w) * res as f64)
                    .floor()
                    .clamp(0.0, res as f64 - 1.0) as usize;
                let py_up = (((c.y - self.universe.y1) / h) * res as f64)
                    .floor()
                    .clamp(0.0, res as f64 - 1.0) as usize;
                let py = res - 1 - py_up; // row 0 at the top
                let key = (
                    level as u8,
                    (px / self.tile_px) as u32,
                    (py / self.tile_px) as u32,
                );
                let tile = tiles
                    .entry(key)
                    .or_insert_with(|| vec![0; self.tile_px * self.tile_px]);
                tile[(py % self.tile_px) * self.tile_px + (px % self.tile_px)] += 1;
            }
        }
        for (key, tile) in tiles {
            ctx.emit(key, tile);
        }
    }
}

struct TileMergeReducer {
    tile_px: usize,
}

impl Reducer for TileMergeReducer {
    type K = (u8, u32, u32);
    type V = Vec<u32>;

    fn reduce(&self, key: &(u8, u32, u32), values: Vec<Vec<u32>>, ctx: &mut ReduceContext) {
        let mut merged = vec![0u32; self.tile_px * self.tile_px];
        for v in values {
            for (a, b) in merged.iter_mut().zip(&v) {
                *a += *b;
            }
        }
        let mut line = format!("TILE {} {} {}", key.0, key.1, key.2);
        for v in merged {
            line.push(' ');
            line.push_str(&v.to_string());
        }
        ctx.output(&line);
    }
}

/// Renders the multilevel tile pyramid of an indexed file; each tile is
/// also written as `{out_dir}/tile-{level}-{x}-{y}.pgm`.
pub fn plot_pyramid<R: Record>(
    dfs: &Dfs,
    file: &SpatialFile,
    levels: usize,
    tile_px: usize,
    out_dir: &str,
) -> Result<OpResult<TilePyramid>, OpError> {
    let splits = SpatialFileSplitter::all_splits(dfs, file)?;
    let mut sel = crate::mrlayer::splitter_selectivity(file, &splits);
    let job = JobBuilder::new(dfs, &format!("plot-pyramid:{}", file.dir))
        .input_splits(splits)
        .mapper(ByRecords(PyramidMapper::<R> {
            universe: file.universe,
            levels,
            tile_px,
            _r: std::marker::PhantomData,
        }))
        .pair_size(move |_, v: &Vec<u32>| 9 + 4 * v.len())
        .reducer(
            TileMergeReducer { tile_px },
            dfs.config().total_reduce_slots().max(1),
        )
        .build()?
        .run()?;
    let mut pyramid = TilePyramid {
        levels,
        tile_px,
        tiles: std::collections::BTreeMap::new(),
    };
    for line in job.rows.lines() {
        let mut it = line.split_ascii_whitespace();
        match it.next() {
            Some("TILE") => {}
            other => return Err(OpError::Corrupt(format!("bad tile tag {other:?}"))),
        }
        let parse = |t: Option<&str>| -> Result<u32, OpError> {
            t.and_then(|t| t.parse().ok())
                .ok_or_else(|| OpError::Corrupt(format!("bad tile header in {line:?}")))
        };
        let level = parse(it.next())? as u8;
        let tx = parse(it.next())?;
        let ty = parse(it.next())?;
        let mut raster = Raster::new(tile_px, tile_px);
        for (i, tok) in it.enumerate() {
            raster.pixels[i] = tok
                .parse()
                .map_err(|_| OpError::Corrupt(format!("bad tile pixel {tok:?}")))?;
        }
        dfs.write_string(
            &format!("{out_dir}/tile-{level}-{tx}-{ty}.pgm"),
            &raster.to_pgm(),
        )?;
        pyramid.tiles.insert((level, tx, ty), raster);
    }
    sel.records_emitted = pyramid.tiles.len() as u64;
    Ok(OpResult::new(pyramid, vec![job]).with_selectivity(sel))
}

/// Single-machine rasterization baseline.
pub fn plot_single<R: Record>(
    records: &[R],
    universe: &Rect,
    width: usize,
    height: usize,
) -> Raster {
    let mut raster = Raster::new(width, height);
    rasterize(records.iter().cloned(), universe, &mut raster);
    raster
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::storage::{build_index, upload};
    use sh_dfs::ClusterConfig;
    use sh_geom::Point;
    use sh_index::PartitionKind;
    use sh_workload::{osm_like_points, points, Distribution};

    #[test]
    fn distributed_raster_matches_single_machine_exactly() {
        let dfs = Dfs::new(ClusterConfig::small_for_tests());
        let uni = Rect::new(0.0, 0.0, 1000.0, 1000.0);
        let pts = osm_like_points(4000, &uni, 6, 501);
        upload(&dfs, "/heap", &pts).unwrap();
        let file = build_index::<Point>(&dfs, "/heap", "/idx", PartitionKind::Grid)
            .unwrap()
            .value;
        let got = plot_spatial::<Point>(&dfs, &file, 64, 48, "/plot").unwrap();
        // The distributed universe comes from the sample-derived index
        // universe; use the same for the baseline.
        let expected = plot_single(&pts, &file.universe, 64, 48);
        assert_eq!(got.value, expected, "bit-for-bit identical raster");
        assert_eq!(got.value.total(), pts.len() as u64);
        assert!(dfs.exists("/plot/image.pgm"));
    }

    #[test]
    fn pgm_is_well_formed() {
        let mut r = Raster::new(4, 2);
        r.pixels[0] = 10;
        r.pixels[7] = 1;
        let pgm = r.to_pgm();
        let mut lines = pgm.lines();
        assert_eq!(lines.next(), Some("P2"));
        assert_eq!(lines.next(), Some("4 2"));
        assert_eq!(lines.next(), Some("255"));
        let rows: Vec<&str> = lines.collect();
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].split_whitespace().count(), 4);
        // Brightest pixel maps near 255; empty pixels to 0.
        let first: Vec<u32> = rows[0]
            .split_whitespace()
            .map(|t| t.parse().unwrap())
            .collect();
        assert!(first[0] > 200);
        assert_eq!(first[1], 0);
    }

    #[test]
    fn raster_accumulation() {
        let mut a = Raster::new(2, 2);
        let mut b = Raster::new(2, 2);
        a.pixels[0] = 1;
        b.pixels[0] = 2;
        b.pixels[3] = 5;
        a.add(&b);
        assert_eq!(a.pixels, vec![3, 0, 0, 5]);
        assert_eq!(a.total(), 8);
    }

    #[test]
    fn rect_records_plot_by_center() {
        let dfs = Dfs::new(ClusterConfig::small_for_tests());
        let uni = Rect::new(0.0, 0.0, 1000.0, 1000.0);
        let rs = sh_workload::rects(800, &uni, 40.0, 502);
        upload(&dfs, "/rects", &rs).unwrap();
        let file = build_index::<Rect>(&dfs, "/rects", "/ridx", PartitionKind::Str)
            .unwrap()
            .value;
        let got = plot_spatial::<Rect>(&dfs, &file, 32, 32, "/plot").unwrap();
        // STR never replicates, so every record appears exactly once.
        assert_eq!(got.value.total(), rs.len() as u64);
        let expected = plot_single(&rs, &file.universe, 32, 32);
        assert_eq!(got.value, expected);
    }

    #[test]
    fn pyramid_levels_are_consistent() {
        let dfs = Dfs::new(ClusterConfig::small_for_tests());
        let uni = Rect::new(0.0, 0.0, 1000.0, 1000.0);
        let pts = osm_like_points(3000, &uni, 5, 504);
        upload(&dfs, "/heap", &pts).unwrap();
        let file = build_index::<Point>(&dfs, "/heap", "/idx", PartitionKind::StrPlus)
            .unwrap()
            .value;
        let levels = 3usize;
        let tile_px = 16usize;
        let got = plot_pyramid::<Point>(&dfs, &file, levels, tile_px, "/pyr").unwrap();
        // (1) Every level plots every record exactly once.
        for l in 0..levels as u8 {
            assert_eq!(got.value.total_at(l), pts.len() as u64, "level {l}");
        }
        // (2) Level 0 equals the flat plot at the same resolution.
        let flat = plot_single(&pts, &file.universe, tile_px, tile_px);
        assert_eq!(got.value.tiles[&(0, 0, 0)], flat);
        // (3) Parent pixels equal the sum of their 2x2 children: compose
        // full-resolution rasters per level and downsample.
        let full = |level: u8| -> Raster {
            let res = (1usize << level) * tile_px;
            let mut img = Raster::new(res, res);
            for ((l, tx, ty), tile) in &got.value.tiles {
                if *l != level {
                    continue;
                }
                for py in 0..tile_px {
                    for px in 0..tile_px {
                        let gx = *tx as usize * tile_px + px;
                        let gy = *ty as usize * tile_px + py;
                        img.pixels[gy * res + gx] = tile.pixels[py * tile_px + px];
                    }
                }
            }
            img
        };
        for level in 0..(levels as u8 - 1) {
            let parent = full(level);
            let child = full(level + 1);
            let res = parent.width;
            for y in 0..res {
                for x in 0..res {
                    let sum = child.pixels[(2 * y) * 2 * res + 2 * x]
                        + child.pixels[(2 * y) * 2 * res + 2 * x + 1]
                        + child.pixels[(2 * y + 1) * 2 * res + 2 * x]
                        + child.pixels[(2 * y + 1) * 2 * res + 2 * x + 1];
                    assert_eq!(
                        parent.pixels[y * res + x],
                        sum,
                        "level {level} pixel ({x},{y})"
                    );
                }
            }
        }
        // Tile files exist for non-empty tiles.
        assert!(dfs.exists("/pyr/tile-0-0-0.pgm"));
    }

    #[test]
    fn uniform_data_fills_the_canvas() {
        let dfs = Dfs::new(ClusterConfig::small_for_tests());
        let uni = Rect::new(0.0, 0.0, 1000.0, 1000.0);
        let pts = points(5000, Distribution::Uniform, &uni, 503);
        upload(&dfs, "/heap", &pts).unwrap();
        let file = build_index::<Point>(&dfs, "/heap", "/idx", PartitionKind::StrPlus)
            .unwrap()
            .value;
        let got = plot_spatial::<Point>(&dfs, &file, 16, 16, "/plot").unwrap();
        let occupied = got.value.pixels.iter().filter(|&&v| v > 0).count();
        assert_eq!(occupied, 256, "every pixel hit by uniform data");
    }
}
