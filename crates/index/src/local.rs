//! Local index: an STR bulk-loaded R-tree over the records of one
//! partition.
//!
//! The `SpatialRecordReader` in `sh-core` builds one of these per
//! partition and hands it to the map function, so local processing can
//! search a partition (range query, kNN) without scanning every record —
//! the second level of SpatialHadoop's two-level index.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use sh_geom::{Point, Rect};

/// Maximum entries per node.
const NODE_CAPACITY: usize = 32;

/// `SHLX` sidecar framing (see [`LocalRTree::to_bytes`]).
const MAGIC: &[u8; 4] = b"SHLX";
const VERSION: u16 = 2;
/// Magic, version, record count, node count, root.
const HEADER_BYTES: usize = 4 + 2 + 8 + 8 + 8;
/// A node without its entries: leaf flag, MBR, entry count.
const NODE_BYTES: usize = 1 + 32 + 4;

#[derive(Clone, Debug)]
struct Node {
    mbr: Rect,
    /// Children node indices for internal nodes; record indices for
    /// leaves.
    entries: Vec<usize>,
    leaf: bool,
}

/// Immutable R-tree over `(Rect, record index)` entries, built with the
/// Sort-Tile-Recursive algorithm.
#[derive(Clone, Debug)]
pub struct LocalRTree {
    rects: Vec<Rect>,
    nodes: Vec<Node>,
    root: Option<usize>,
}

impl LocalRTree {
    /// Bulk-loads the tree; `rects[i]` is the MBR of record `i`.
    pub fn build(rects: Vec<Rect>) -> LocalRTree {
        let n = rects.len();
        if n == 0 {
            return LocalRTree {
                rects,
                nodes: Vec::new(),
                root: None,
            };
        }
        let mut nodes: Vec<Node> = Vec::new();
        // Leaf level: STR packing of record indices.
        let mut level: Vec<usize> = pack_level(
            &mut (0..n).collect::<Vec<_>>(),
            |i| rects[*i].center(),
            |ids| {
                let mut mbr = Rect::empty();
                for &i in ids.iter() {
                    mbr.expand(&rects[i]);
                }
                let node = Node {
                    mbr,
                    entries: ids.to_vec(),
                    leaf: true,
                };
                nodes.push(node);
                nodes.len() - 1
            },
        );
        // Internal levels until a single root remains.
        while level.len() > 1 {
            // Snapshot the MBRs of the current level to avoid borrowing
            // `nodes` both mutably and immutably inside pack_level.
            let mbrs: Vec<Rect> = level.iter().map(|&id| nodes[id].mbr).collect();
            let pairs: Vec<(usize, Rect)> = level.iter().copied().zip(mbrs).collect();
            level = pack_level(
                &mut pairs.clone(),
                |(_, r)| r.center(),
                |children| {
                    let mut mbr = Rect::empty();
                    for (_, r) in children.iter() {
                        mbr.expand(r);
                    }
                    let node = Node {
                        mbr,
                        entries: children.iter().map(|(id, _)| *id).collect(),
                        leaf: false,
                    };
                    nodes.push(node);
                    nodes.len() - 1
                },
            );
        }
        let root = level.first().copied();
        LocalRTree { rects, nodes, root }
    }

    /// Number of indexed records.
    pub fn len(&self) -> usize {
        self.rects.len()
    }

    /// True when no records are indexed.
    pub fn is_empty(&self) -> bool {
        self.rects.is_empty()
    }

    /// MBR of all records.
    pub fn mbr(&self) -> Rect {
        self.root
            .map(|r| self.nodes[r].mbr)
            .unwrap_or_else(Rect::empty)
    }

    /// Record indices whose MBR intersects `query`, in ascending order.
    /// Walks with an explicit stack: a loaded tree's depth is bounded by
    /// its node count, not by the call stack.
    pub fn query(&self, query: &Rect) -> Vec<usize> {
        let mut out = Vec::new();
        let mut stack: Vec<usize> = self.root.into_iter().collect();
        while let Some(id) = stack.pop() {
            let n = &self.nodes[id];
            if !n.mbr.intersects(query) {
                continue;
            }
            if n.leaf {
                out.extend(
                    n.entries
                        .iter()
                        .filter(|&&i| self.rects[i].intersects(query)),
                );
            } else {
                stack.extend(&n.entries);
            }
        }
        out.sort_unstable();
        out
    }

    /// Serializes the tree's *topology* as an `SHLX` blob — the
    /// `_lidx-NNNNN` sidecar the index builder writes next to each
    /// `part-NNNNN`, in either block format, so queries load the tree
    /// instead of re-running STR. The record rectangles are not stored:
    /// whoever loads the blob has just decoded the records and hands
    /// their MBRs to [`LocalRTree::from_bytes`]. Little-endian throughout:
    ///
    /// ```text
    /// 4  magic b"SHLX"      2  version (2)
    /// 8  num_rects (u64)    8  num_nodes (u64)    8  root (i64, -1 = none)
    /// per node: leaf (u8), 4 x f64 mbr, entry count (u32), entries (u32 each)
    /// ```
    pub fn to_bytes(&self) -> Vec<u8> {
        let entries: usize = self.nodes.iter().map(|n| n.entries.len()).sum();
        let mut out =
            Vec::with_capacity(HEADER_BYTES + self.nodes.len() * NODE_BYTES + entries * 4);
        out.extend_from_slice(MAGIC);
        out.extend_from_slice(&VERSION.to_le_bytes());
        out.extend_from_slice(&(self.rects.len() as u64).to_le_bytes());
        out.extend_from_slice(&(self.nodes.len() as u64).to_le_bytes());
        out.extend_from_slice(&self.root.map(|r| r as i64).unwrap_or(-1).to_le_bytes());
        for n in &self.nodes {
            out.push(u8::from(n.leaf));
            for v in [n.mbr.x1, n.mbr.y1, n.mbr.x2, n.mbr.y2] {
                out.extend_from_slice(&v.to_le_bytes());
            }
            out.extend_from_slice(&(n.entries.len() as u32).to_le_bytes());
            for &e in &n.entries {
                out.extend_from_slice(&(e as u32).to_le_bytes());
            }
        }
        out
    }

    /// Loads [`LocalRTree::to_bytes`] output over `rects`, the MBRs of
    /// the records the blob claims to index (`rects[i]` is record `i`).
    ///
    /// Nothing in `data` is trusted. Besides the framing (magic, version,
    /// counts bounded by the payload before anything is allocated, no
    /// truncation, no trailing bytes) one iterative walk from the root
    /// checks that the blob describes a tree over exactly these records:
    /// the stated record count is `rects.len()`, every node is reached
    /// exactly once, every record index sits in exactly one leaf, and
    /// every node's MBR covers the MBRs of its entries. A tree that
    /// passes answers `query` and `knn` like a linear scan of `rects`;
    /// anything else — a stale, foreign, older-version or tampered blob —
    /// is [`Rejected`], which hands `rects` back for [`LocalRTree::build`].
    pub fn from_bytes(data: &[u8], rects: Vec<Rect>) -> Result<LocalRTree, Rejected> {
        match parse_topology(data, &rects) {
            Ok((nodes, root)) => Ok(LocalRTree { rects, nodes, root }),
            Err(reason) => Err(Rejected { reason, rects }),
        }
    }

    /// The `k` records nearest to `p` (by MBR min-distance), best-first.
    /// Returns `(record index, distance)` sorted by ascending distance.
    pub fn knn(&self, p: &Point, k: usize) -> Vec<(usize, f64)> {
        let mut out: Vec<(usize, f64)> = Vec::with_capacity(k);
        let Some(root) = self.root else {
            return out;
        };
        // Best-first search over a min-heap of (distance, is_record, id).
        #[derive(PartialEq)]
        struct Entry(f64, bool, usize);
        impl Eq for Entry {}
        impl PartialOrd for Entry {
            fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
                Some(self.cmp(other))
            }
        }
        impl Ord for Entry {
            fn cmp(&self, other: &Self) -> std::cmp::Ordering {
                self.0
                    .total_cmp(&other.0)
                    .then_with(|| self.2.cmp(&other.2))
            }
        }
        let mut heap: BinaryHeap<Reverse<Entry>> = BinaryHeap::new();
        heap.push(Reverse(Entry(
            self.nodes[root].mbr.min_distance(p),
            false,
            root,
        )));
        while let Some(Reverse(Entry(dist, is_record, id))) = heap.pop() {
            if out.len() >= k {
                break;
            }
            if is_record {
                out.push((id, dist));
                continue;
            }
            let node = &self.nodes[id];
            if node.leaf {
                for &i in &node.entries {
                    heap.push(Reverse(Entry(self.rects[i].min_distance(p), true, i)));
                }
            } else {
                for &c in &node.entries {
                    heap.push(Reverse(Entry(self.nodes[c].mbr.min_distance(p), false, c)));
                }
            }
        }
        out
    }
}

/// A sidecar [`LocalRTree::from_bytes`] refused to load.
#[derive(Debug)]
pub struct Rejected {
    /// What was wrong with the blob.
    pub reason: String,
    /// The rectangles passed in, unchanged, to bulk-load from instead.
    pub rects: Vec<Rect>,
}

/// Decodes and validates an `SHLX` blob against the rectangles it must
/// index; the checks are listed at [`LocalRTree::from_bytes`].
fn parse_topology(mut data: &[u8], rects: &[Rect]) -> Result<(Vec<Node>, Option<usize>), String> {
    fn take<'a, const N: usize>(data: &mut &'a [u8]) -> Result<&'a [u8; N], String> {
        let (head, rest) = data
            .split_first_chunk::<N>()
            .ok_or("truncated local index")?;
        *data = rest;
        Ok(head)
    }
    if take::<4>(&mut data)? != MAGIC {
        return Err("bad local-index magic".to_string());
    }
    let version = u16::from_le_bytes(*take(&mut data)?);
    if version != VERSION {
        return Err(format!("unsupported local-index version {version}"));
    }
    let nr = u64::from_le_bytes(*take(&mut data)?);
    let nn = u64::from_le_bytes(*take(&mut data)?);
    let root = i64::from_le_bytes(*take(&mut data)?);
    if nr != rects.len() as u64 {
        return Err(format!("local index of {nr} records over {}", rects.len()));
    }
    // A corrupt header must not trigger a huge reservation.
    if nn > (data.len() / NODE_BYTES) as u64 {
        return Err("local-index node count exceeds payload".to_string());
    }
    let nn = nn as usize;
    let root = match usize::try_from(root) {
        Ok(r) if r < nn => Some(r),
        _ if root == -1 && nn == 0 && rects.is_empty() => None,
        _ => return Err(format!("root {root} does not fit {nn} nodes")),
    };

    let mut nodes = Vec::with_capacity(nn);
    for _ in 0..nn {
        let leaf = match take::<1>(&mut data)?[0] {
            0 => false,
            1 => true,
            b => return Err(format!("bad node leaf flag {b}")),
        };
        let mut m = [0f64; 4];
        for v in &mut m {
            *v = f64::from_le_bytes(*take(&mut data)?);
        }
        let count = u32::from_le_bytes(*take(&mut data)?) as usize;
        if count > data.len() / 4 {
            return Err("truncated local index".to_string());
        }
        let (raw, rest) = data.split_at(count * 4);
        data = rest;
        let entries = raw
            .chunks_exact(4)
            .map(|e| u32::from_le_bytes([e[0], e[1], e[2], e[3]]) as usize)
            .collect();
        nodes.push(Node {
            mbr: Rect::new(m[0], m[1], m[2], m[3]),
            entries,
            leaf,
        });
    }
    if !data.is_empty() {
        return Err("trailing bytes after local index".to_string());
    }

    // The walk: O(nodes + records), explicit stack. Marking a node when
    // it is first referenced makes a second reference — a cycle, a shared
    // child, the root as somebody's child — an error before it is
    // followed, so the walk terminates on any input.
    let mut node_seen = vec![false; nn];
    let mut rect_seen = vec![false; rects.len()];
    let (mut nodes_reached, mut rects_reached) = (0usize, 0usize);
    let mut stack = Vec::new();
    if let Some(r) = root {
        node_seen[r] = true;
        nodes_reached = 1;
        stack.push(r);
    }
    while let Some(id) = stack.pop() {
        let n = &nodes[id];
        let (seen, reached, limit) = if n.leaf {
            (&mut rect_seen, &mut rects_reached, rects.len())
        } else {
            (&mut node_seen, &mut nodes_reached, nn)
        };
        for &e in &n.entries {
            if e >= limit {
                return Err(format!("node entry {e} out of range (< {limit})"));
            }
            if std::mem::replace(&mut seen[e], true) {
                return Err(format!("node entry {e} is referenced twice"));
            }
            *reached += 1;
            let covered = if n.leaf { &rects[e] } else { &nodes[e].mbr };
            if !n.mbr.contains_rect(covered) {
                return Err(format!("node {id} does not cover its entry {e}"));
            }
        }
        if !n.leaf {
            stack.extend(&n.entries);
        }
    }
    if nodes_reached != nn || rects_reached != rects.len() {
        return Err(format!(
            "local index reaches {nodes_reached} of {nn} nodes, {rects_reached} of {} records",
            rects.len()
        ));
    }
    Ok((nodes, root))
}

/// STR-packs `items` into groups of [`NODE_CAPACITY`], calling `make`
/// per group and returning the created node ids.
fn pack_level<T: Clone, C, M>(items: &mut [T], center: C, mut make: M) -> Vec<usize>
where
    C: Fn(&T) -> Point,
    M: FnMut(&[T]) -> usize,
{
    let n = items.len();
    let num_nodes = n.div_ceil(NODE_CAPACITY);
    let slices = (num_nodes as f64).sqrt().ceil() as usize;
    items.sort_by(|a, b| center(a).x.total_cmp(&center(b).x));
    let per_slice = n.div_ceil(slices.max(1));
    let mut out = Vec::with_capacity(num_nodes);
    let mut start = 0;
    while start < n {
        let end = (start + per_slice).min(n);
        let slice = &mut items[start..end];
        slice.sort_by(|a, b| center(a).y.total_cmp(&center(b).y));
        let mut s = 0;
        while s < slice.len() {
            let e = (s + NODE_CAPACITY).min(slice.len());
            out.push(make(&slice[s..e]));
            s = e;
        }
        start = end;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use sh_rand::Rng;

    fn random_rects(n: usize, seed: u64) -> Vec<Rect> {
        let mut rng = Rng::seed(seed);
        (0..n)
            .map(|_| {
                let x = rng.uniform(0.0..1000.0);
                let y = rng.uniform(0.0..1000.0);
                Rect::new(x, y, x + rng.uniform(0.0..5.0), y + rng.uniform(0.0..5.0))
            })
            .collect()
    }

    #[test]
    fn query_matches_linear_scan() {
        let rects = random_rects(2000, 1);
        let tree = LocalRTree::build(rects.clone());
        let mut rng = Rng::seed(2);
        for _ in 0..50 {
            let x = rng.uniform(0.0..900.0);
            let y = rng.uniform(0.0..900.0);
            let q = Rect::new(
                x,
                y,
                x + rng.uniform(1.0..100.0),
                y + rng.uniform(1.0..100.0),
            );
            let expected: Vec<usize> = rects
                .iter()
                .enumerate()
                .filter(|(_, r)| r.intersects(&q))
                .map(|(i, _)| i)
                .collect();
            assert_eq!(tree.query(&q), expected);
        }
    }

    #[test]
    fn knn_matches_linear_scan() {
        let rects = random_rects(1000, 3);
        let tree = LocalRTree::build(rects.clone());
        let p = Point::new(500.0, 500.0);
        for k in [1usize, 5, 32, 100] {
            let got = tree.knn(&p, k);
            assert_eq!(got.len(), k);
            let mut dists: Vec<f64> = rects.iter().map(|r| r.min_distance(&p)).collect();
            dists.sort_by(f64::total_cmp);
            for (i, (_, d)) in got.iter().enumerate() {
                assert!((d - dists[i]).abs() < 1e-9, "k={k} rank {i}");
            }
            // Ascending order.
            for w in got.windows(2) {
                assert!(w[0].1 <= w[1].1);
            }
        }
    }

    #[test]
    fn empty_and_single() {
        let empty = LocalRTree::build(Vec::new());
        assert!(empty.is_empty());
        assert!(empty.query(&Rect::new(0.0, 0.0, 1.0, 1.0)).is_empty());
        assert!(empty.knn(&Point::new(0.0, 0.0), 3).is_empty());

        let one = LocalRTree::build(vec![Rect::new(1.0, 1.0, 2.0, 2.0)]);
        assert_eq!(one.len(), 1);
        assert_eq!(one.query(&Rect::new(0.0, 0.0, 3.0, 3.0)), vec![0]);
        assert_eq!(one.knn(&Point::new(0.0, 0.0), 5).len(), 1);
    }

    #[test]
    fn knn_with_k_larger_than_n() {
        let rects = random_rects(10, 4);
        let tree = LocalRTree::build(rects);
        assert_eq!(tree.knn(&Point::new(0.0, 0.0), 100).len(), 10);
    }

    #[test]
    fn tree_mbr_covers_everything() {
        let rects = random_rects(500, 5);
        let tree = LocalRTree::build(rects.clone());
        let mbr = tree.mbr();
        for r in &rects {
            assert!(mbr.contains_rect(r));
        }
    }

    /// `back` answers windows and kNN probes drawn from `seed` exactly
    /// like `tree`, distances bit for bit.
    fn assert_same_answers(tree: &LocalRTree, back: &LocalRTree, seed: u64) {
        let mut rng = Rng::seed(seed);
        for _ in 0..8 {
            let (x, y) = (rng.uniform(-50.0..1000.0), rng.uniform(-50.0..1000.0));
            let q = Rect::new(
                x,
                y,
                x + rng.uniform(0.0..400.0),
                y + rng.uniform(0.0..400.0),
            );
            assert_eq!(back.query(&q), tree.query(&q));
            let k = 1 + rng.below(39);
            let (a, b) = (
                tree.knn(&Point::new(x, y), k),
                back.knn(&Point::new(x, y), k),
            );
            assert_eq!(a.len(), b.len());
            for ((ia, da), (ib, db)) in a.iter().zip(&b) {
                assert_eq!((ia, da.to_bits()), (ib, db.to_bits()));
            }
        }
    }

    sh_rand::properties! {
        fn sidecar_roundtrip_answers_like_the_tree_it_was_written_from(rng, 24) {
            let n = [0usize, 1, 31, 32, 33, 1000][rng.below(6)];
            let (jitter, seed) = (rng.below(24), rng.next_u64());
            // "≈ 1 000": vary the large size so node boundaries move.
            let n = if n == 1000 { n + jitter } else { n };
            let rects = random_rects(n, seed);
            let tree = LocalRTree::build(rects.clone());
            let blob = tree.to_bytes();
            let back = LocalRTree::from_bytes(&blob, rects).unwrap();
            assert_eq!(back.len(), n);
            assert_same_answers(&tree, &back, seed ^ 0x51DE);
            // Re-serialization is byte-identical (determinism).
            assert_eq!(back.to_bytes(), blob);
        }

        fn damaged_sidecar_is_an_error_never_a_panic(rng, 24) {
            let n = [0usize, 1, 31, 32, 33, 200][rng.below(6)];
            let rects = random_rects(n, rng.next_u64());
            let blob = LocalRTree::build(rects.clone()).to_bytes();
            for cut in 0..blob.len() {
                assert!(
                    LocalRTree::from_bytes(&blob[..cut], rects.clone()).is_err(),
                    "prefix of {} bytes loaded", cut
                );
            }
            for bit in 0..HEADER_BYTES * 8 {
                let mut bad = blob.clone();
                bad[bit / 8] ^= 1 << (bit % 8);
                assert!(
                    LocalRTree::from_bytes(&bad, rects.clone()).is_err(),
                    "header bit {} flipped and loaded", bit
                );
            }
        }
    }

    #[test]
    fn sidecar_holds_topology_only() {
        // 1 800 records: 64 leaves, 2 internal nodes, a root.
        let tree = LocalRTree::build(random_rects(1800, 9));
        let blob = tree.to_bytes();
        assert_eq!(&blob[..6], b"SHLX\x02\x00");
        assert_eq!(
            blob.len(),
            HEADER_BYTES + 67 * NODE_BYTES + (1800 + 64 + 2) * 4
        );
        // The rectangles are the caller's: the same blob over other
        // rectangles is not this tree, and is refused with them returned.
        let other = random_rects(1800, 10);
        let rejected = LocalRTree::from_bytes(&blob, other.clone()).unwrap_err();
        assert_eq!(rejected.rects, other);
        assert!(
            rejected.reason.contains("does not cover"),
            "{}",
            rejected.reason
        );
        // So is a blob of another cardinality, and the v1 layout.
        assert!(LocalRTree::from_bytes(&blob, random_rects(1799, 9)).is_err());
        let mut v1 = blob;
        v1[4] = 1;
        assert!(LocalRTree::from_bytes(&v1, random_rects(1800, 9)).is_err());
    }

    #[test]
    fn chain_deeper_than_the_call_stack_loads_and_answers() {
        // A valid tree nobody would build: DEPTH internal nodes with one
        // child each over a single leaf. Recursing once per level would
        // need far more than a test thread's 2 MiB of stack.
        const DEPTH: usize = 300_000;
        let rects = vec![Rect::new(1.0, 1.0, 2.0, 2.0), Rect::new(5.0, 5.0, 6.0, 6.0)];
        let mbr = Rect::new(1.0, 1.0, 6.0, 6.0);
        let mut nodes: Vec<Node> = (1..=DEPTH)
            .map(|child| Node {
                mbr,
                entries: vec![child],
                leaf: false,
            })
            .collect();
        nodes.push(Node {
            mbr,
            entries: vec![0, 1],
            leaf: true,
        });
        let chain = LocalRTree {
            rects: rects.clone(),
            nodes,
            root: Some(0),
        };
        let q = Rect::new(4.0, 4.0, 7.0, 7.0);
        assert_eq!(chain.query(&q), vec![1]);
        let back = LocalRTree::from_bytes(&chain.to_bytes(), rects).unwrap();
        assert_eq!(back.query(&q), vec![1]);
        assert_eq!(back.knn(&Point::new(0.0, 0.0), 1)[0].0, 0);
    }

    #[test]
    fn disjoint_query_returns_nothing() {
        let tree = LocalRTree::build(random_rects(100, 6));
        assert!(tree
            .query(&Rect::new(5000.0, 5000.0, 6000.0, 6000.0))
            .is_empty());
    }
}
