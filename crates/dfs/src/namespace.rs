//! The namenode: file namespace, block store, and replica placement.

use std::collections::BTreeMap;
use std::fmt;
use std::sync::{Arc, Mutex};

use sh_rand::Rng;
use sh_trace::sync::lock;

use crate::block::{BlockData, BlockId, BlockInfo};
use crate::cache::BlockCache;
use crate::config::{ClusterConfig, NodeId};
use crate::crc64::crc64;
use crate::fault::{CorruptKind, FtOptions};
use crate::metrics::DfsMetrics;
use crate::slots::SlotPool;
use crate::writer::FileWriter;

/// Errors surfaced by the DFS API.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum DfsError {
    /// Path does not exist.
    NotFound(String),
    /// Path already exists (create without overwrite).
    AlreadyExists(String),
    /// Every replica of a block is on a dead node.
    BlockUnavailable(BlockId),
    /// Every live replica of a block failed its checksum — the data is
    /// detectably rotten and nothing healthy remains to repair from.
    CorruptBlock(BlockId),
    /// A text read hit non-UTF-8 bytes (binary file read as text).
    NotUtf8(String),
}

impl fmt::Display for DfsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DfsError::NotFound(p) => write!(f, "file not found: {p}"),
            DfsError::AlreadyExists(p) => write!(f, "file already exists: {p}"),
            DfsError::BlockUnavailable(b) => write!(f, "all replicas lost for block {b:?}"),
            DfsError::CorruptBlock(b) => {
                write!(f, "every live replica of block {b:?} failed its checksum")
            }
            DfsError::NotUtf8(p) => write!(f, "not valid UTF-8 text: {p}"),
        }
    }
}

impl std::error::Error for DfsError {}

#[derive(Clone, Debug, Default)]
struct FileMeta {
    blocks: Vec<BlockId>,
    len: u64,
}

/// What one scrubber pass saw and did. Replica counts are per-replica,
/// `unrecoverable` counts whole blocks with no healthy live replica left
/// (those are reported, not quarantined — rotten bytes beat no bytes).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ScrubReport {
    /// Files walked.
    pub files: usize,
    /// Blocks checked.
    pub blocks: usize,
    /// Live replicas whose bytes were checksummed.
    pub replicas: usize,
    /// Replicas that failed their checksum.
    pub corrupt: usize,
    /// Fresh replicas created to restore the replication factor.
    pub repaired: usize,
    /// Blocks where every live replica failed its checksum.
    pub unrecoverable: usize,
}

impl fmt::Display for ScrubReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "scrubbed {} files ({} blocks, {} replicas): {} corrupt, {} repaired, {} unrecoverable",
            self.files, self.blocks, self.replicas, self.corrupt, self.repaired, self.unrecoverable
        )
    }
}

/// File-level metadata returned by [`Dfs::stat`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FileStat {
    /// File path.
    pub path: String,
    /// Total bytes.
    pub len: u64,
    /// Number of blocks.
    pub num_blocks: usize,
}

struct Inner {
    files: BTreeMap<String, FileMeta>,
    blocks: BTreeMap<BlockId, BlockData>,
    next_block: u64,
    next_writer_node: usize,
    alive: Vec<bool>,
    rng: Rng,
}

/// The simulated distributed file system (namenode + datanodes).
///
/// `Dfs` is cheaply cloneable (`Arc` inside) and thread-safe; map and
/// reduce tasks running on executor threads read blocks through a shared
/// handle. All mutation goes through one mutex — namenode semantics — and
/// payload bytes are shared (`Arc<[u8]>`), so reads never copy.
#[derive(Clone)]
pub struct Dfs {
    config: Arc<ClusterConfig>,
    inner: Arc<Mutex<Inner>>,
    metrics: Arc<DfsMetrics>,
    ft: Arc<Mutex<FtOptions>>,
    cache: Arc<BlockCache>,
    slots: Arc<SlotPool>,
}

impl Dfs {
    /// Creates an empty DFS over the given cluster.
    pub fn new(config: ClusterConfig) -> Dfs {
        let alive = vec![true; config.num_nodes];
        let rng = Rng::seed(config.placement_seed);
        let slots = SlotPool::count_for(config.worker_threads);
        Dfs {
            config: Arc::new(config),
            inner: Arc::new(Mutex::new(Inner {
                files: BTreeMap::new(),
                blocks: BTreeMap::new(),
                next_block: 0,
                next_writer_node: 0,
                alive,
                rng,
            })),
            metrics: Arc::new(DfsMetrics::default()),
            ft: Arc::new(Mutex::new(FtOptions::default())),
            cache: Arc::new(BlockCache::default()),
            slots: Arc::new(SlotPool::new(slots)),
        }
    }

    /// The per-node block cache: parsed records and loaded local trees,
    /// keyed by path. Shared across all clones of this handle.
    pub fn cache(&self) -> &BlockCache {
        &self.cache
    }

    /// The cluster's global worker-slot pool: every task attempt of
    /// every concurrent job leases a slot here before it runs, so the
    /// cluster's concurrency is capped at the slot count no matter how
    /// many jobs are in flight.
    pub fn slots(&self) -> &Arc<SlotPool> {
        &self.slots
    }

    /// The cluster configuration.
    pub fn config(&self) -> &ClusterConfig {
        &self.config
    }

    /// Snapshot of the current fault-tolerance policy (the executor
    /// reads this once per job).
    pub fn ft_options(&self) -> FtOptions {
        lock(&self.ft).clone()
    }

    /// Adjusts the fault-tolerance policy in place (Pigeon `SET ...`,
    /// chaos tests installing a [`crate::FaultPlan`]). Attempt and
    /// blacklist limits are kept at least 1.
    pub fn update_ft_options(&self, f: impl FnOnce(&mut FtOptions)) {
        let mut ft = lock(&self.ft);
        f(&mut ft);
        ft.max_task_attempts = ft.max_task_attempts.max(1);
        ft.node_blacklist_threshold = ft.node_blacklist_threshold.max(1);
    }

    /// The I/O counters.
    pub fn metrics(&self) -> &DfsMetrics {
        &self.metrics
    }

    /// Opens a streaming writer; fails if `path` exists.
    pub fn create(&self, path: &str) -> Result<FileWriter, DfsError> {
        let mut inner = lock(&self.inner);
        if inner.files.contains_key(path) {
            return Err(DfsError::AlreadyExists(path.to_string()));
        }
        inner.files.insert(path.to_string(), FileMeta::default());
        // Round-robin "writing node" stands in for the client location.
        let node = inner.next_writer_node % self.config.num_nodes;
        inner.next_writer_node += 1;
        drop(inner);
        // A fresh file under an old path must not serve stale parses.
        self.cache.invalidate(path);
        Ok(FileWriter::new(self.clone(), path.to_string(), node))
    }

    /// Deletes a file and frees its blocks; idempotent.
    pub fn delete(&self, path: &str) {
        let mut inner = lock(&self.inner);
        if let Some(meta) = inner.files.remove(path) {
            for b in meta.blocks {
                inner.blocks.remove(&b);
            }
        }
        drop(inner);
        self.cache.invalidate(path);
    }

    /// True when `path` exists.
    pub fn exists(&self, path: &str) -> bool {
        lock(&self.inner).files.contains_key(path)
    }

    /// File metadata.
    pub fn stat(&self, path: &str) -> Result<FileStat, DfsError> {
        let inner = lock(&self.inner);
        let meta = inner
            .files
            .get(path)
            .ok_or_else(|| DfsError::NotFound(path.to_string()))?;
        Ok(FileStat {
            path: path.to_string(),
            len: meta.len,
            num_blocks: meta.blocks.len(),
        })
    }

    /// Paths with the given prefix, sorted (namespace listing).
    pub fn list(&self, prefix: &str) -> Vec<String> {
        lock(&self.inner)
            .files
            .keys()
            .filter(|k| k.starts_with(prefix))
            .cloned()
            .collect()
    }

    /// Block locations of a file, in order — the scheduler's input.
    pub fn block_locations(&self, path: &str) -> Result<Vec<BlockInfo>, DfsError> {
        let inner = lock(&self.inner);
        let meta = inner
            .files
            .get(path)
            .ok_or_else(|| DfsError::NotFound(path.to_string()))?;
        Ok(meta
            .blocks
            .iter()
            .map(|&id| {
                let b = &inner.blocks[&id];
                BlockInfo {
                    id,
                    len: b.data.len() as u64,
                    replicas: b.replicas.clone(),
                }
            })
            .collect())
    }

    /// Reads one block from the perspective of `reader`: served locally if
    /// `reader` holds a live replica, remotely from any live replica
    /// otherwise. Returns the payload and whether the read was local.
    ///
    /// Every candidate replica is verified against the block's write-time
    /// CRC-64 before it is served. A mismatch triggers *read-repair*: the
    /// read falls over to the next replica, the rotten replica is
    /// quarantined and the replication factor restored from a healthy
    /// copy, and the path's cache entries are invalidated so no stale parse
    /// of the corrupt bytes survives. Only when every live replica fails its
    /// checksum does the read error out — it never returns wrong bytes.
    pub fn read_block(&self, id: BlockId, reader: NodeId) -> Result<(Arc<[u8]>, bool), DfsError> {
        let mut inner = lock(&self.inner);
        let Some(block) = inner.blocks.get(&id) else {
            return Err(DfsError::BlockUnavailable(id));
        };
        let alive = &inner.alive;
        let mut candidates: Vec<NodeId> = block
            .replicas
            .iter()
            .copied()
            .filter(|&n| alive.get(n).copied().unwrap_or(false))
            .collect();
        if candidates.is_empty() {
            return Err(DfsError::BlockUnavailable(id));
        }
        // Locality first: a replica on the reading node is tried before
        // any remote one.
        if let Some(pos) = candidates.iter().position(|&n| n == reader) {
            candidates.swap(0, pos);
        }
        let mut served: Option<(Arc<[u8]>, bool)> = None;
        let mut quarantined: Vec<NodeId> = Vec::new();
        for node in candidates {
            let bytes = block.replica_bytes(node);
            if crc64(bytes) == block.crc {
                served = Some((bytes.clone(), node == reader));
                break;
            }
            quarantined.push(node);
        }
        let Some((data, local)) = served else {
            // Nothing healthy left: surface the corruption rather than
            // serving rotten bytes. Replicas stay put for post-mortems.
            let path = block.path.clone();
            drop(inner);
            self.metrics.record_integrity(quarantined.len() as u64, 0);
            for node in &quarantined {
                emit_corrupt_replica(&path, id, *node, "unrecoverable");
            }
            return Err(DfsError::CorruptBlock(id));
        };
        if quarantined.is_empty() {
            drop(inner);
            self.metrics.record_read(data.len() as u64, local);
            return Ok((data, local));
        }
        // ---- read-repair ------------------------------------------------
        let path = block.path.clone();
        if let Some(b) = inner.blocks.get_mut(&id) {
            b.replicas.retain(|n| !quarantined.contains(n));
            for n in &quarantined {
                b.corrupt.remove(n);
            }
        }
        let (created, len) =
            restore_replication_locked(&mut inner, self.config.effective_replication(), id);
        drop(inner);
        for _ in 0..created {
            // Each restored replica copies the block across the network.
            self.metrics.record_read(len, false);
        }
        self.metrics
            .record_integrity(quarantined.len() as u64, created as u64);
        for node in &quarantined {
            emit_corrupt_replica(&path, id, *node, "read");
        }
        sh_trace::events::emit(
            "storage.read_repair",
            vec![
                ("path", path.clone()),
                ("block", id.0.to_string()),
                ("quarantined", quarantined.len().to_string()),
                ("created", created.to_string()),
            ],
        );
        // A cached parse of the corrupt bytes must never be served after
        // the repair.
        self.cache.invalidate(&path);
        self.metrics.record_read(data.len() as u64, local);
        Ok((data, local))
    }

    /// Convenience: reads a whole file as one string (driver-side use —
    /// reading back small outputs; charged as remote reads from node 0).
    pub fn read_to_string(&self, path: &str) -> Result<String, DfsError> {
        let locations = self.block_locations(path)?;
        let mut out = String::with_capacity(locations.iter().map(|b| b.len as usize).sum());
        for info in locations {
            let (bytes, _) = self.read_block(info.id, usize::MAX)?;
            out.push_str(
                std::str::from_utf8(&bytes).map_err(|_| DfsError::NotUtf8(path.to_string()))?,
            );
        }
        Ok(out)
    }

    /// Reads a whole file as raw bytes (binary block formats; same
    /// driver-side cost accounting as [`Dfs::read_to_string`]).
    pub fn read_bytes(&self, path: &str) -> Result<Vec<u8>, DfsError> {
        let locations = self.block_locations(path)?;
        let mut out = Vec::with_capacity(locations.iter().map(|b| b.len as usize).sum());
        for info in locations {
            let (bytes, _) = self.read_block(info.id, usize::MAX)?;
            out.extend_from_slice(&bytes);
        }
        Ok(out)
    }

    /// Writes a complete string as a new file (driver-side convenience).
    pub fn write_string(&self, path: &str, contents: &str) -> Result<(), DfsError> {
        let mut w = self.create(path)?;
        w.write_str(contents);
        w.close()
    }

    /// True when `node` is alive (task trackers heartbeat through the
    /// namenode in this model, so the scheduler asks the DFS).
    pub fn node_alive(&self, node: NodeId) -> bool {
        lock(&self.inner).alive.get(node).copied().unwrap_or(false)
    }

    /// Ids of all live nodes, ascending.
    pub fn live_nodes(&self) -> Vec<NodeId> {
        let inner = lock(&self.inner);
        (0..inner.alive.len()).filter(|&n| inner.alive[n]).collect()
    }

    /// Marks a datanode dead: its replicas become unreadable. Drops the
    /// whole cache — the dead node's cached parses go with it, and what
    /// survives must be re-read so chaos runs match uncached runs.
    pub fn kill_node(&self, node: NodeId) {
        let mut inner = lock(&self.inner);
        if node < inner.alive.len() {
            inner.alive[node] = false;
        }
        let alive = inner.alive.iter().filter(|&&a| a).count();
        drop(inner);
        self.cache.clear();
        sh_trace::global().gauge_set("dfs.nodes.alive", alive as i64);
        sh_trace::events::emit(
            "node.kill",
            vec![("node", node.to_string()), ("alive", alive.to_string())],
        );
    }

    /// Revives a datanode (cache dropped; see [`Dfs::kill_node`]).
    pub fn revive_node(&self, node: NodeId) {
        let mut inner = lock(&self.inner);
        if node < inner.alive.len() {
            inner.alive[node] = true;
        }
        let alive = inner.alive.iter().filter(|&&a| a).count();
        drop(inner);
        self.cache.clear();
        sh_trace::global().gauge_set("dfs.nodes.alive", alive as i64);
        sh_trace::events::emit(
            "node.revive",
            vec![("node", node.to_string()), ("alive", alive.to_string())],
        );
    }

    /// Restores the replication factor of every block that lost replicas
    /// to dead nodes, copying from a surviving replica onto live nodes —
    /// the namenode's re-replication pass after failure detection.
    ///
    /// Returns the number of new replicas created. Blocks with no
    /// surviving replica are left unrecoverable (and counted in
    /// [`Dfs::unrecoverable_blocks`]).
    pub fn rereplicate(&self) -> usize {
        let mut inner = lock(&self.inner);
        let replication = self.config.effective_replication();
        let ids: Vec<BlockId> = inner.blocks.keys().copied().collect();
        let mut created = 0usize;
        let mut copied: Vec<u64> = Vec::new();
        for id in ids {
            let (made, len) = restore_replication_locked(&mut inner, replication, id);
            created += made;
            // Copying a block crosses the network once per new replica.
            copied.extend(std::iter::repeat_n(len, made));
        }
        drop(inner);
        for len in copied {
            self.metrics.record_read(len, false);
        }
        // Replica layout changed under the readers' feet: flush.
        self.cache.clear();
        sh_trace::events::emit("dfs.rereplicate", vec![("created", created.to_string())]);
        created
    }

    /// Test/chaos hook: installs a silent-corruption overlay on replica
    /// ordinal `replica` of every block of `path` — a flipped middle byte
    /// or a truncation to half length, depending on `kind`. Nothing else
    /// happens: no cache is invalidated and no event beyond `fault.inject`
    /// is emitted, because bit-rot does not announce itself. Returns the
    /// number of blocks corrupted (blocks without that ordinal or with an
    /// empty payload are skipped).
    pub fn corrupt_replica(&self, path: &str, replica: usize, kind: CorruptKind) -> usize {
        let mut inner = lock(&self.inner);
        let Some(meta) = inner.files.get(path) else {
            return 0;
        };
        let ids = meta.blocks.clone();
        let mut hit = 0usize;
        for id in ids {
            let Some(block) = inner.blocks.get_mut(&id) else {
                continue;
            };
            let Some(&node) = block.replicas.get(replica) else {
                continue;
            };
            if block.data.is_empty() {
                continue;
            }
            let mut bytes = block.data.to_vec();
            let mid = bytes.len() / 2;
            match kind {
                CorruptKind::Flip => bytes[mid] ^= 0x01,
                CorruptKind::Truncate => bytes.truncate(mid),
            }
            block.corrupt.insert(node, Arc::from(bytes));
            hit += 1;
        }
        drop(inner);
        if hit > 0 {
            sh_trace::events::emit(
                "fault.inject",
                vec![
                    ("action", kind.to_string()),
                    ("path", path.to_string()),
                    ("replica", replica.to_string()),
                    ("blocks", hit.to_string()),
                ],
            );
        }
        hit
    }

    /// Test hook for property tests: flips one bit of one byte at file
    /// offset `offset % len` in replica ordinal `replica` of `path`.
    /// Returns false when the file is missing/empty or the containing
    /// block has no such replica ordinal.
    pub fn corrupt_replica_byte(&self, path: &str, replica: usize, offset: u64) -> bool {
        let mut inner = lock(&self.inner);
        let Some(meta) = inner.files.get(path) else {
            return false;
        };
        if meta.len == 0 {
            return false;
        }
        let mut target = offset % meta.len;
        let ids = meta.blocks.clone();
        for id in ids {
            let Some(block) = inner.blocks.get_mut(&id) else {
                continue;
            };
            let len = block.data.len() as u64;
            if target >= len {
                target -= len;
                continue;
            }
            let Some(&node) = block.replicas.get(replica) else {
                return false;
            };
            let mut bytes = block.data.to_vec();
            bytes[target as usize] ^= 0x80;
            block.corrupt.insert(node, Arc::from(bytes));
            return true;
        }
        false
    }

    /// One scrubber pass over every file under `prefix`: checksums every
    /// live replica, quarantines and re-replicates the rotten ones, and
    /// invalidates the caches of any path it healed. Blocks whose every
    /// live replica is rotten are reported as unrecoverable but left in
    /// place — rotten bytes beat no bytes for post-mortems.
    ///
    /// The lock is taken per block, not for the whole pass, so a
    /// background scrub never stalls concurrent readers for long.
    pub fn scrub(&self, prefix: &str) -> ScrubReport {
        let mut report = ScrubReport::default();
        let replication = self.config.effective_replication();
        for path in self.list(prefix) {
            report.files += 1;
            let ids: Vec<BlockId> = {
                let inner = lock(&self.inner);
                match inner.files.get(&path) {
                    Some(meta) => meta.blocks.clone(),
                    None => continue, // deleted since listing
                }
            };
            let mut healed = false;
            for id in ids {
                report.blocks += 1;
                let mut inner = lock(&self.inner);
                let Some(block) = inner.blocks.get(&id) else {
                    continue;
                };
                let alive = &inner.alive;
                let live: Vec<NodeId> = block
                    .replicas
                    .iter()
                    .copied()
                    .filter(|&n| alive.get(n).copied().unwrap_or(false))
                    .collect();
                report.replicas += live.len();
                let bad: Vec<NodeId> = live
                    .iter()
                    .copied()
                    .filter(|&n| !block.replica_healthy(n))
                    .collect();
                if bad.is_empty() {
                    continue;
                }
                report.corrupt += bad.len();
                if bad.len() == live.len() {
                    report.unrecoverable += 1;
                    drop(inner);
                    self.metrics.record_integrity(bad.len() as u64, 0);
                    for node in &bad {
                        emit_corrupt_replica(&path, id, *node, "unrecoverable");
                    }
                    continue;
                }
                if let Some(b) = inner.blocks.get_mut(&id) {
                    b.replicas.retain(|n| !bad.contains(n));
                    for node in &bad {
                        b.corrupt.remove(node);
                    }
                }
                let (created, len) = restore_replication_locked(&mut inner, replication, id);
                drop(inner);
                healed = true;
                report.repaired += created;
                for _ in 0..created {
                    self.metrics.record_read(len, false);
                }
                self.metrics
                    .record_integrity(bad.len() as u64, created as u64);
                for node in &bad {
                    emit_corrupt_replica(&path, id, *node, "scrub");
                }
            }
            if healed {
                // As in read-repair: no cached parse of the pre-repair
                // bytes may survive.
                self.cache.invalidate(&path);
            }
        }
        sh_trace::global().counter_add("dfs.integrity.scrubbed_blocks", report.blocks as u64);
        sh_trace::events::emit(
            "scrub.done",
            vec![
                ("prefix", prefix.to_string()),
                ("files", report.files.to_string()),
                ("blocks", report.blocks.to_string()),
                ("corrupt", report.corrupt.to_string()),
                ("repaired", report.repaired.to_string()),
                ("unrecoverable", report.unrecoverable.to_string()),
            ],
        );
        report
    }

    /// Blocks whose every replica is on a dead node.
    pub fn unrecoverable_blocks(&self) -> usize {
        let inner = lock(&self.inner);
        inner
            .blocks
            .values()
            .filter(|b| !b.available(&inner.alive))
            .count()
    }

    /// Appends one sealed block to `path` (called by [`FileWriter`]).
    ///
    /// Fails with [`DfsError::NotFound`] when the file vanished under the
    /// writer (deleted mid-write, or an injected namespace fault) — the
    /// task fails cleanly instead of panicking a worker thread.
    pub(crate) fn append_block(
        &self,
        path: &str,
        data: Arc<[u8]>,
        writer_node: NodeId,
    ) -> Result<(), DfsError> {
        let len = data.len() as u64;
        let crc = crc64(&data);
        let mut inner = lock(&self.inner);
        if !inner.files.contains_key(path) {
            return Err(DfsError::NotFound(path.to_string()));
        }
        let id = BlockId(inner.next_block);
        inner.next_block += 1;
        let replicas = place_replicas(
            writer_node,
            self.config.num_nodes,
            self.config.effective_replication(),
            &mut inner.rng,
        );
        inner.blocks.insert(
            id,
            BlockData {
                data,
                crc,
                path: path.to_string(),
                replicas,
                corrupt: BTreeMap::new(),
            },
        );
        let Some(meta) = inner.files.get_mut(path) else {
            return Err(DfsError::NotFound(path.to_string()));
        };
        meta.blocks.push(id);
        meta.len += len;
        drop(inner);
        self.metrics.record_write(len);
        Ok(())
    }
}

/// Restores the replication factor of one block from its surviving live
/// replicas, picking targets at random among live nodes not already
/// holding a copy. Shared by [`Dfs::rereplicate`], read-repair, and the
/// scrubber. Returns `(replicas created, block length)`; blocks that are
/// missing, already at factor, or have no live replica are left alone.
fn restore_replication_locked(inner: &mut Inner, replication: usize, id: BlockId) -> (usize, u64) {
    let alive = inner.alive.clone();
    let live_nodes: Vec<NodeId> = (0..alive.len()).filter(|&n| alive[n]).collect();
    if live_nodes.is_empty() {
        return (0, 0);
    }
    // Compute the replacement plan without holding a mutable borrow on
    // the block (the rng shuffle below needs one on `inner`).
    let (mut live_replicas, len) = {
        let Some(block) = inner.blocks.get(&id) else {
            return (0, 0);
        };
        let live: Vec<NodeId> = block
            .replicas
            .iter()
            .copied()
            .filter(|&n| alive.get(n).copied().unwrap_or(false))
            .collect();
        (live, block.data.len() as u64)
    };
    let target = replication.min(live_nodes.len());
    if live_replicas.is_empty() || live_replicas.len() >= target {
        return (0, len);
    }
    let mut candidates: Vec<NodeId> = live_nodes
        .iter()
        .copied()
        .filter(|n| !live_replicas.contains(n))
        .collect();
    inner.rng.shuffle(&mut candidates);
    let mut created = 0usize;
    while live_replicas.len() < target {
        let Some(node) = candidates.pop() else {
            break;
        };
        live_replicas.push(node);
        created += 1;
    }
    if let Some(block) = inner.blocks.get_mut(&id) {
        block.replicas = live_replicas;
    }
    (created, len)
}

/// Journals one detected-rotten replica: `repair` says which path found
/// it ("read", "scrub") or that nothing healthy was left
/// ("unrecoverable").
fn emit_corrupt_replica(path: &str, id: BlockId, node: NodeId, repair: &str) {
    sh_trace::events::emit(
        "storage.corrupt_replica",
        vec![
            ("path", path.to_string()),
            ("block", id.0.to_string()),
            ("node", node.to_string()),
            ("repair", repair.to_string()),
        ],
    );
}

/// HDFS-shaped placement: first replica on the writer, the rest on
/// distinct random other nodes.
fn place_replicas(
    writer: NodeId,
    num_nodes: usize,
    replication: usize,
    rng: &mut Rng,
) -> Vec<NodeId> {
    let primary = writer % num_nodes;
    let mut replicas = vec![primary];
    let mut others: Vec<NodeId> = (0..num_nodes).filter(|&n| n != primary).collect();
    rng.shuffle(&mut others);
    replicas.extend(others.into_iter().take(replication.saturating_sub(1)));
    replicas
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dfs() -> Dfs {
        Dfs::new(ClusterConfig::small_for_tests())
    }

    #[test]
    fn create_write_read_roundtrip() {
        let fs = dfs();
        let mut w = fs.create("/data/points").unwrap();
        w.write_line("1 2");
        w.write_line("3 4");
        w.close().unwrap();
        assert_eq!(fs.read_to_string("/data/points").unwrap(), "1 2\n3 4\n");
        let stat = fs.stat("/data/points").unwrap();
        assert_eq!(stat.len, 8);
        assert_eq!(stat.num_blocks, 1);
    }

    #[test]
    fn create_existing_fails() {
        let fs = dfs();
        fs.write_string("/a", "x\n").unwrap();
        assert!(matches!(fs.create("/a"), Err(DfsError::AlreadyExists(_))));
    }

    #[test]
    fn blocks_are_record_aligned() {
        let fs = dfs(); // 8 KiB blocks
        let mut w = fs.create("/big").unwrap();
        let line = "x".repeat(100);
        for _ in 0..1000 {
            w.write_line(&line);
        }
        w.close().unwrap();
        let stat = fs.stat("/big").unwrap();
        assert!(stat.num_blocks > 1, "expected multiple blocks");
        for info in fs.block_locations("/big").unwrap() {
            let (bytes, _) = fs.read_block(info.id, 0).unwrap();
            assert_eq!(bytes.last(), Some(&b'\n'), "block must end at a record");
            assert!(bytes.len() as u64 <= fs.config().block_size);
        }
    }

    #[test]
    fn replica_placement_width() {
        let fs = dfs();
        fs.write_string("/f", &"line\n".repeat(10)).unwrap();
        for info in fs.block_locations("/f").unwrap() {
            assert_eq!(info.replicas.len(), fs.config().effective_replication());
            let mut uniq = info.replicas.clone();
            uniq.sort_unstable();
            uniq.dedup();
            assert_eq!(uniq.len(), info.replicas.len(), "replicas must be distinct");
        }
    }

    #[test]
    fn local_vs_remote_reads_are_accounted() {
        let fs = dfs();
        fs.write_string("/f", "hello\n").unwrap();
        let info = &fs.block_locations("/f").unwrap()[0];
        let holder = info.replicas[0];
        let non_holder = (0..fs.config().num_nodes)
            .find(|n| !info.replicas.contains(n))
            .unwrap();
        let before = fs.metrics().snapshot();
        let (_, local) = fs.read_block(info.id, holder).unwrap();
        assert!(local);
        let (_, local) = fs.read_block(info.id, non_holder).unwrap();
        assert!(!local);
        let delta = fs.metrics().snapshot().since(&before);
        assert_eq!(delta.local_bytes_read, 6);
        assert_eq!(delta.remote_bytes_read, 6);
    }

    #[test]
    fn node_failure_falls_back_to_replicas() {
        let fs = dfs();
        fs.write_string("/f", "payload\n").unwrap();
        let info = fs.block_locations("/f").unwrap()[0].clone();
        // Kill all but the last replica: still readable.
        for &n in &info.replicas[..info.replicas.len() - 1] {
            fs.kill_node(n);
        }
        assert!(fs.read_block(info.id, 0).is_ok());
        // Kill the last: unavailable.
        fs.kill_node(*info.replicas.last().unwrap());
        assert_eq!(
            fs.read_block(info.id, 0),
            Err(DfsError::BlockUnavailable(info.id))
        );
        // Revive: readable again.
        fs.revive_node(info.replicas[0]);
        assert!(fs.read_block(info.id, 0).is_ok());
    }

    #[test]
    fn rereplication_restores_the_factor() {
        let fs = dfs(); // replication = 2, 4 nodes
        fs.write_string("/f", &"data line\n".repeat(200)).unwrap();
        fs.kill_node(0);
        fs.kill_node(1);
        let lost_before = fs
            .block_locations("/f")
            .unwrap()
            .iter()
            .filter(|b| b.replicas.iter().all(|&n| n <= 1))
            .count();
        assert_eq!(fs.unrecoverable_blocks(), lost_before);
        let created = fs.rereplicate();
        if lost_before == 0 {
            // Every block still has a live replica; factor restored.
            assert!(
                created > 0
                    || fs
                        .block_locations("/f")
                        .unwrap()
                        .iter()
                        .all(|b| { b.replicas.iter().filter(|&&n| n > 1).count() >= 2 })
            );
        }
        for info in fs.block_locations("/f").unwrap() {
            let live = info.replicas.iter().filter(|&&n| n > 1).count();
            if info.replicas.iter().any(|&n| n > 1) {
                assert_eq!(live, 2, "factor restored on live nodes: {info:?}");
                // Readable from any node again.
                assert!(fs.read_block(info.id, 2).is_ok());
            }
        }
        // Idempotent once healthy.
        assert_eq!(fs.rereplicate(), 0);
    }

    #[test]
    fn delete_frees_blocks() {
        let fs = dfs();
        fs.write_string("/f", "data\n").unwrap();
        let info = fs.block_locations("/f").unwrap()[0].clone();
        fs.delete("/f");
        assert!(!fs.exists("/f"));
        assert_eq!(
            fs.read_block(info.id, 0),
            Err(DfsError::BlockUnavailable(info.id))
        );
        fs.delete("/f"); // idempotent
    }

    #[test]
    fn list_by_prefix() {
        let fs = dfs();
        fs.write_string("/x/a", "1\n").unwrap();
        fs.write_string("/x/b", "2\n").unwrap();
        fs.write_string("/y/c", "3\n").unwrap();
        assert_eq!(fs.list("/x/"), vec!["/x/a".to_string(), "/x/b".to_string()]);
        assert_eq!(fs.list("/"), vec!["/x/a", "/x/b", "/y/c"]);
    }

    #[test]
    fn cache_invalidated_by_namespace_and_node_events() {
        let fs = dfs();
        fs.write_string("/f", "1 2\n").unwrap();
        let put = |v: u32| fs.cache().put("/f", Arc::new(v), 8);
        let get = || fs.cache().get("/f").map(|v| *v.downcast::<u32>().unwrap());

        put(1);
        assert_eq!(get(), Some(1));
        fs.delete("/f");
        assert_eq!(get(), None, "delete must invalidate");

        fs.write_string("/f", "3 4\n").unwrap();
        put(2);
        fs.delete("/f");
        fs.write_string("/f", "5 6\n").unwrap();
        assert_eq!(get(), None, "overwrite via create must invalidate");

        put(6);
        fs.corrupt_replica("/f", 0, CorruptKind::Truncate);
        assert_eq!(get(), Some(6), "silent corruption is silent");
        let info = fs.block_locations("/f").unwrap()[0].clone();
        fs.read_block(info.id, info.replicas[0]).unwrap();
        assert_eq!(get(), None, "read-repair must invalidate");

        put(3);
        fs.kill_node(0);
        assert_eq!(get(), None, "kill_node must flush the cache");
        put(4);
        fs.rereplicate();
        assert_eq!(get(), None, "rereplicate must flush the cache");
        put(5);
        fs.revive_node(0);
        assert_eq!(get(), None, "revive_node must flush the cache");
    }

    #[test]
    fn read_repair_quarantines_and_heals() {
        let fs = dfs();
        fs.write_string("/f", "alpha\nbeta\n").unwrap();
        let before = fs.metrics().snapshot();
        assert_eq!(fs.corrupt_replica("/f", 0, CorruptKind::Flip), 1);
        let info = fs.block_locations("/f").unwrap()[0].clone();
        let primary = info.replicas[0];
        // Reading from the corrupt primary must serve the written bytes
        // from a healthy replica, never the rotten local copy.
        let (bytes, local) = fs.read_block(info.id, primary).unwrap();
        assert_eq!(&bytes[..], b"alpha\nbeta\n");
        assert!(!local, "the local replica was rotten; served remotely");
        let delta = fs.metrics().snapshot().since(&before);
        assert_eq!(delta.corrupt_replicas, 1);
        assert!(delta.repaired_replicas >= 1);
        // Factor restored, and the healed file reads clean from anywhere.
        let info = fs.block_locations("/f").unwrap()[0].clone();
        assert_eq!(info.replicas.len(), fs.config().effective_replication());
        for n in 0..fs.config().num_nodes {
            assert_eq!(&fs.read_block(info.id, n).unwrap().0[..], b"alpha\nbeta\n");
        }
    }

    #[test]
    fn all_replicas_corrupt_is_an_error_not_wrong_bytes() {
        let fs = dfs();
        fs.write_string("/f", "payload\n").unwrap();
        let rep = fs.config().effective_replication();
        for r in 0..rep {
            assert_eq!(fs.corrupt_replica("/f", r, CorruptKind::Flip), 1);
        }
        let info = fs.block_locations("/f").unwrap()[0].clone();
        assert_eq!(
            fs.read_block(info.id, 0),
            Err(DfsError::CorruptBlock(info.id))
        );
        // The scrubber reports it unrecoverable and leaves the replicas
        // in place for post-mortems.
        let report = fs.scrub("/f");
        assert_eq!(report.unrecoverable, 1);
        assert_eq!(fs.block_locations("/f").unwrap()[0].replicas.len(), rep);
    }

    #[test]
    fn scrub_heals_silent_corruption() {
        let fs = dfs();
        fs.write_string("/x/a", &"row one\n".repeat(100)).unwrap();
        fs.write_string("/x/b", "solo\n").unwrap();
        let hit = fs.corrupt_replica("/x/a", 0, CorruptKind::Flip)
            + fs.corrupt_replica("/x/b", 1, CorruptKind::Truncate);
        assert!(hit >= 2);
        let report = fs.scrub("/x/");
        assert_eq!(report.files, 2);
        assert_eq!(report.corrupt, hit);
        assert_eq!(report.repaired, hit);
        assert_eq!(report.unrecoverable, 0);
        assert_eq!(fs.read_to_string("/x/b").unwrap(), "solo\n");
        // Second pass finds nothing: the heal stuck.
        let clean = fs.scrub("/x/");
        assert_eq!(clean.corrupt, 0);
        assert_eq!(clean.repaired, 0);
    }

    #[test]
    fn single_byte_rot_at_any_offset_is_detected() {
        let fs = dfs();
        let content = "0123456789\n".repeat(50);
        fs.write_string("/f", &content).unwrap();
        for offset in [0u64, 7, 100, 549, 10_000] {
            assert!(fs.corrupt_replica_byte("/f", 0, offset));
            let report = fs.scrub("/f");
            assert_eq!(report.corrupt, 1, "offset {offset}");
            assert_eq!(fs.read_to_string("/f").unwrap(), content);
        }
    }

    #[test]
    fn empty_file_stat() {
        let fs = dfs();
        let w = fs.create("/empty").unwrap();
        w.close().unwrap();
        let stat = fs.stat("/empty").unwrap();
        assert_eq!(stat.len, 0);
        assert_eq!(stat.num_blocks, 0);
        assert_eq!(fs.read_to_string("/empty").unwrap(), "");
    }
}
