//! Binary columnar block format (`SHCB`).
//!
//! The zero-copy counterpart of the text codec: a partition file holds a
//! small versioned header followed by columnar `f64` coordinate arrays
//! (`x y` for points, `x1 y1 x2 y2` for rects). Scans iterate the column
//! arrays directly — no per-record parse, no per-record branch — and the
//! block cache shares the decoded columns behind `Arc<[f64]>` handles, so
//! warm reads hand out views instead of re-parsed `Vec<Record>`s.
//!
//! Layout (all integers little-endian):
//!
//! ```text
//! offset  size      field
//! 0       4         magic  b"SHCB"
//! 4       2         format version (currently 1)
//! 6       1         record kind (0 = point, 1 = rect)
//! 7       1         number of columns
//! 8       8         record count (u64)
//! 16      8*ncols   absolute byte offset of each column
//! ...     8*count   column 0 (f64 array)
//! ...     8*count   column 1, ...
//! ```
//!
//! Decoding validates the magic, version, kind/column agreement, offset
//! table, and total length, and rejects non-finite coordinates — the
//! binary mirror of the text codec's checks. Every violation is an
//! [`OpError::Corrupt`], which fails the reading task and its job as
//! corrupt input: unlike an unusable `_lidx` sidecar, whose tree is
//! rebuilt from the records, nothing can stand in for the records.
//!
//! [`decode`] copies each column into an owned `Arc<[f64]>`, independent
//! of the target's endianness and of the input buffer's alignment.
//!
//! The MBR filter is a chunked, branch-light kernel: fixed-width lanes
//! are compared with non-short-circuiting `&` into a selection bitmask
//! (the compiler autovectorizes it; there is no hand-written SIMD path),
//! and match indices are extracted from the mask — no per-hit `Vec`
//! push inside the comparison loop.

use std::sync::Arc;

use sh_geom::{Record, Rect};

use crate::opresult::OpError;

/// File magic of a columnar block.
pub const MAGIC: [u8; 4] = *b"SHCB";

/// Current format version.
pub const VERSION: u16 = 1;

/// Lanes per chunk in the MBR filter kernel.
const LANES: usize = 8;

/// Header length for `ncols` columns.
fn header_len(ncols: usize) -> usize {
    16 + 8 * ncols
}

/// True when `data` starts with the columnar-block magic — the sniff the
/// record readers use to dispatch between text and binary partitions.
pub fn is_binary(data: &[u8]) -> bool {
    data.len() >= 4 && data[..4] == MAGIC
}

/// A decoded columnar block: record kind plus shared coordinate columns.
#[derive(Clone, Debug)]
pub struct ColumnarBlock {
    /// Record kind tag (see [`Record::BINARY_KIND`]).
    pub kind: u8,
    /// Records in the block.
    pub count: usize,
    /// Coordinate columns, each of length `count`; cloning bumps a
    /// refcount, never copies coordinates.
    pub cols: Vec<Arc<[f64]>>,
}

fn corrupt(msg: impl Into<String>) -> OpError {
    OpError::Corrupt(format!("columnar block: {}", msg.into()))
}

/// Encodes records as one columnar block. Fails with
/// [`OpError::Unsupported`] for record types without a columnar form
/// (segments, polygons, tagged records).
pub fn encode<R: Record>(records: &[R]) -> Result<Vec<u8>, OpError> {
    let kind = R::BINARY_KIND.ok_or_else(|| {
        OpError::Unsupported("record type has no binary columnar form".to_string())
    })?;
    let ncols = R::ncols();
    let mut cols: Vec<Vec<f64>> = (0..ncols)
        .map(|_| Vec::with_capacity(records.len()))
        .collect();
    for r in records {
        r.push_cols(&mut cols);
    }
    let mut out = Vec::with_capacity(header_len(ncols) + 8 * ncols * records.len());
    out.extend_from_slice(&MAGIC);
    out.extend_from_slice(&VERSION.to_le_bytes());
    out.push(kind);
    out.push(ncols as u8);
    out.extend_from_slice(&(records.len() as u64).to_le_bytes());
    let mut offset = header_len(ncols);
    for _ in 0..ncols {
        out.extend_from_slice(&(offset as u64).to_le_bytes());
        offset += 8 * records.len();
    }
    for col in &cols {
        for v in col {
            out.extend_from_slice(&v.to_le_bytes());
        }
    }
    Ok(out)
}

fn read_u64(data: &[u8], at: usize) -> u64 {
    u64::from_le_bytes(data[at..at + 8].try_into().unwrap())
}

/// Byte length the block at the head of `data` states in its header
/// (header + `count` x `ncols` coordinates) — where a reader cuts blocks
/// stored back to back. `None` when the header is truncated or the
/// arithmetic overflows; nothing else is validated here, [`decode`] does
/// that on the cut block.
pub fn stated_len(data: &[u8]) -> Option<usize> {
    let ncols = *data.get(7)? as usize;
    let count = usize::try_from(read_u64(data.get(..16)?, 8)).ok()?;
    count
        .checked_mul(8)?
        .checked_mul(ncols)?
        .checked_add(header_len(ncols))
}

/// Validated header facts.
struct Header {
    kind: u8,
    ncols: usize,
    count: usize,
    /// Byte offset of each column (validated contiguous, in order).
    col_offsets: Vec<usize>,
}

/// Validates everything about `data` except coordinate finiteness:
/// magic, version, kind/column agreement, count/length arithmetic, and
/// the offset table.
fn parse_header(data: &[u8]) -> Result<Header, OpError> {
    if data.len() < 16 {
        return Err(corrupt(format!("truncated header ({} bytes)", data.len())));
    }
    if data[..4] != MAGIC {
        return Err(corrupt("bad magic"));
    }
    let version = u16::from_le_bytes([data[4], data[5]]);
    if version != VERSION {
        return Err(corrupt(format!(
            "unsupported version {version} (expected {VERSION})"
        )));
    }
    let kind = data[6];
    let ncols = data[7] as usize;
    let expected_cols = match kind {
        0 => 2,
        1 => 4,
        k => return Err(corrupt(format!("unknown record kind {k}"))),
    };
    if ncols != expected_cols {
        return Err(corrupt(format!(
            "kind {kind} expects {expected_cols} columns, header says {ncols}"
        )));
    }
    let count = read_u64(data, 8) as usize;
    let hlen = header_len(ncols);
    let total = stated_len(data).ok_or_else(|| corrupt("size overflow"))?;
    let col_bytes = 8 * count;
    if data.len() != total {
        return Err(corrupt(format!(
            "length mismatch: {} bytes for {count} records x {ncols} columns (expected {total})",
            data.len()
        )));
    }
    let mut col_offsets = Vec::with_capacity(ncols);
    for c in 0..ncols {
        let off = read_u64(data, 16 + 8 * c) as usize;
        if off != hlen + c * col_bytes {
            return Err(corrupt(format!("bad offset for column {c}: {off}")));
        }
        col_offsets.push(off);
    }
    Ok(Header {
        kind,
        ncols,
        count,
        col_offsets,
    })
}

/// Decodes a columnar block into owned columns, validating every header
/// field and rejecting non-finite coordinates. Corrupt or truncated
/// input is [`OpError::Corrupt`]; the reader passes it on and the task
/// fails — there is no fallback for a partition's records, only for its
/// `_lidx` sidecar.
pub fn decode(data: &[u8]) -> Result<ColumnarBlock, OpError> {
    let h = parse_header(data)?;
    let mut cols = Vec::with_capacity(h.ncols);
    for (c, &off) in h.col_offsets.iter().enumerate() {
        let col: Arc<[f64]> = data[off..off + 8 * h.count]
            .chunks_exact(8)
            .map(|b| f64::from_le_bytes(b.try_into().unwrap()))
            .collect();
        if let Some(i) = col.iter().position(|v| !v.is_finite()) {
            return Err(corrupt(format!("non-finite value in column {c} row {i}")));
        }
        cols.push(col);
    }
    Ok(ColumnarBlock {
        kind: h.kind,
        count: h.count,
        cols,
    })
}

impl ColumnarBlock {
    /// MBR of record `i`, straight from the columns.
    #[inline]
    pub fn mbr(&self, i: usize) -> Rect {
        match self.kind {
            0 => Rect::new(
                self.cols[0][i],
                self.cols[1][i],
                self.cols[0][i],
                self.cols[1][i],
            ),
            _ => Rect::new(
                self.cols[0][i],
                self.cols[1][i],
                self.cols[2][i],
                self.cols[3][i],
            ),
        }
    }

    /// Materializes record `i` (boundary with record-typed callers).
    pub fn record<R: Record>(&self, i: usize) -> R {
        // `decode` admits 2 or 4 columns, so the views fit on the stack.
        let mut views: [&[f64]; 4] = [&[]; 4];
        for (v, c) in views.iter_mut().zip(&self.cols) {
            *v = c;
        }
        R::from_cols(&views[..self.cols.len().min(4)], i)
    }

    /// Indices of every record whose MBR intersects `q` — the hot inner
    /// loop, chunked (see module docs).
    pub fn mbr_filter(&self, q: &Rect) -> Vec<usize> {
        let mut hits = Vec::new();
        match self.kind {
            0 => {
                let xs = &self.cols[0][..self.count];
                let ys = &self.cols[1][..self.count];
                let n = xs.len();
                let mut base = 0;
                while base + LANES <= n {
                    let (cx, cy) = (&xs[base..base + LANES], &ys[base..base + LANES]);
                    let mut mask = 0u32;
                    for l in 0..LANES {
                        let inside =
                            (cx[l] >= q.x1) & (cx[l] <= q.x2) & (cy[l] >= q.y1) & (cy[l] <= q.y2);
                        mask |= (inside as u32) << l;
                    }
                    push_mask_hits(&mut hits, mask, base);
                    base += LANES;
                }
                for l in base..n {
                    if (xs[l] >= q.x1) & (xs[l] <= q.x2) & (ys[l] >= q.y1) & (ys[l] <= q.y2) {
                        hits.push(l);
                    }
                }
            }
            _ => {
                let x1 = &self.cols[0][..self.count];
                let y1 = &self.cols[1][..self.count];
                let x2 = &self.cols[2][..self.count];
                let y2 = &self.cols[3][..self.count];
                let n = x1.len();
                let mut base = 0;
                while base + LANES <= n {
                    let (cx1, cy1) = (&x1[base..base + LANES], &y1[base..base + LANES]);
                    let (cx2, cy2) = (&x2[base..base + LANES], &y2[base..base + LANES]);
                    let mut mask = 0u32;
                    for l in 0..LANES {
                        let hit = (cx1[l] <= q.x2)
                            & (cx2[l] >= q.x1)
                            & (cy1[l] <= q.y2)
                            & (cy2[l] >= q.y1);
                        mask |= (hit as u32) << l;
                    }
                    push_mask_hits(&mut hits, mask, base);
                    base += LANES;
                }
                for l in base..n {
                    if (x1[l] <= q.x2) & (x2[l] >= q.x1) & (y1[l] <= q.y2) & (y2[l] >= q.y1) {
                        hits.push(l);
                    }
                }
            }
        }
        hits
    }

    /// Reference scalar scan — the oracle the chunked kernel is
    /// property-tested against.
    pub fn mbr_filter_scalar(&self, q: &Rect) -> Vec<usize> {
        let mut hits = Vec::new();
        match self.kind {
            0 => {
                let (xs, ys) = (&self.cols[0], &self.cols[1]);
                for i in 0..self.count {
                    let inside = xs[i] >= q.x1 && xs[i] <= q.x2 && ys[i] >= q.y1 && ys[i] <= q.y2;
                    if inside {
                        hits.push(i);
                    }
                }
            }
            _ => {
                let (x1, y1, x2, y2) = (&self.cols[0], &self.cols[1], &self.cols[2], &self.cols[3]);
                for i in 0..self.count {
                    let hit = x1[i] <= q.x2 && x2[i] >= q.x1 && y1[i] <= q.y2 && y2[i] >= q.y1;
                    if hit {
                        hits.push(i);
                    }
                }
            }
        }
        hits
    }

    /// All records, materialized (interchange back to the text world).
    pub fn records<R: Record>(&self) -> Vec<R> {
        let views: Vec<&[f64]> = self.cols.iter().map(|c| &c[..]).collect();
        (0..self.count).map(|i| R::from_cols(&views, i)).collect()
    }

    /// Resident size in bytes (cache accounting).
    pub fn resident_bytes(&self) -> usize {
        self.cols.iter().map(|c| c.len() * 8).sum::<usize>() + 64
    }
}

/// Appends `base + bit` for every set bit in `mask` — the chunked
/// kernel's hit extraction.
#[inline]
fn push_mask_hits(hits: &mut Vec<usize>, mut mask: u32, base: usize) {
    while mask != 0 {
        let l = mask.trailing_zeros() as usize;
        hits.push(base + l);
        mask &= mask - 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sh_geom::Point;

    fn pts(n: usize) -> Vec<Point> {
        (0..n)
            .map(|i| Point::new(i as f64 * 1.5, (n - i) as f64 * 0.25))
            .collect()
    }

    fn rects(n: usize) -> Vec<Rect> {
        (0..n)
            .map(|i| {
                let x = (i % 13) as f64 * 3.0;
                let y = (i % 7) as f64 * 5.0;
                Rect::new(x, y, x + 2.0, y + 1.0)
            })
            .collect()
    }

    #[test]
    fn points_roundtrip_exactly() {
        let pts = pts(257);
        let blob = encode(&pts).unwrap();
        assert!(is_binary(&blob));
        let block = decode(&blob).unwrap();
        assert_eq!(block.kind, 0);
        assert_eq!(block.count, pts.len());
        assert_eq!(block.records::<Point>(), pts);
    }

    #[test]
    fn rects_roundtrip_exactly() {
        let rs = rects(100);
        let blob = encode(&rs).unwrap();
        let block = decode(&blob).unwrap();
        assert_eq!(block.kind, 1);
        assert_eq!(block.records::<Rect>(), rs);
        for (i, r) in rs.iter().enumerate() {
            assert_eq!(block.mbr(i), *r);
        }
    }

    #[test]
    fn empty_block_roundtrips() {
        let blob = encode::<Point>(&[]).unwrap();
        let block = decode(&blob).unwrap();
        assert_eq!(block.count, 0);
        assert!(block.records::<Point>().is_empty());
        assert!(block.mbr_filter(&Rect::new(0.0, 0.0, 1.0, 1.0)).is_empty());
    }

    #[test]
    fn mbr_filter_matches_linear_scan() {
        let rs = rects(500);
        let block = decode(&encode(&rs).unwrap()).unwrap();
        let q = Rect::new(5.0, 3.0, 20.0, 21.0);
        let expected: Vec<usize> = rs
            .iter()
            .enumerate()
            .filter(|(_, r)| r.intersects(&q))
            .map(|(i, _)| i)
            .collect();
        assert_eq!(block.mbr_filter(&q), expected);
        assert_eq!(block.mbr_filter_scalar(&q), expected);

        let pts = pts(500);
        let block = decode(&encode(&pts).unwrap()).unwrap();
        let expected: Vec<usize> = pts
            .iter()
            .enumerate()
            .filter(|(_, p)| q.contains_point(p))
            .map(|(i, _)| i)
            .collect();
        assert_eq!(block.mbr_filter(&q), expected);
        assert_eq!(block.mbr_filter_scalar(&q), expected);
    }

    #[test]
    fn corrupt_blocks_are_errors_not_panics() {
        let blob = encode(&pts(10)).unwrap();

        // Truncated header.
        assert!(matches!(decode(&blob[..8]), Err(OpError::Corrupt(_))));
        // Bad magic.
        let mut bad = blob.clone();
        bad[0] = b'X';
        assert!(matches!(decode(&bad), Err(OpError::Corrupt(_))));
        assert!(!is_binary(&bad));
        // Flipped version byte.
        let mut bad = blob.clone();
        bad[4] = 0x7f;
        assert!(matches!(decode(&bad), Err(OpError::Corrupt(_))));
        // Unknown kind.
        let mut bad = blob.clone();
        bad[6] = 9;
        assert!(matches!(decode(&bad), Err(OpError::Corrupt(_))));
        // Kind/ncols disagreement.
        let mut bad = blob.clone();
        bad[7] = 4;
        assert!(matches!(decode(&bad), Err(OpError::Corrupt(_))));
        // Truncated payload.
        assert!(matches!(
            decode(&blob[..blob.len() - 3]),
            Err(OpError::Corrupt(_))
        ));
        // Corrupt offset table.
        let mut bad = blob.clone();
        bad[16] ^= 0xff;
        assert!(matches!(decode(&bad), Err(OpError::Corrupt(_))));
        // Non-finite coordinate (mirror of the text codec's check).
        let mut bad = blob;
        let hlen = header_len(2);
        bad[hlen..hlen + 8].copy_from_slice(&f64::INFINITY.to_le_bytes());
        assert!(matches!(decode(&bad), Err(OpError::Corrupt(_))));
    }

    #[test]
    fn unsupported_record_types_refuse_encoding() {
        let polys = vec![sh_geom::Polygon::new(vec![
            Point::new(0.0, 0.0),
            Point::new(1.0, 0.0),
            Point::new(0.0, 1.0),
        ])];
        assert!(matches!(encode(&polys), Err(OpError::Unsupported(_))));
    }

    #[test]
    fn cloned_blocks_share_columns() {
        let block = decode(&encode(&pts(32)).unwrap()).unwrap();
        let clone = block.clone();
        assert!(std::ptr::eq(block.cols[0].as_ptr(), clone.cols[0].as_ptr()));
    }

    #[test]
    fn resident_bytes_charges_the_columns() {
        let block = decode(&encode(&pts(10_000)).unwrap()).unwrap();
        assert!(block.resident_bytes() > 10_000 * 2 * 8);
    }
}
