//! Byte-level I/O accounting.
//!
//! Besides the per-instance [`DfsMetrics`] snapshots, every read and write
//! is forwarded to the process-wide [`sh_trace`] registry under `dfs.*`
//! keys, so profiles and registry dumps see DFS traffic without holding a
//! reference to the `Dfs` that produced it.

use std::sync::atomic::{AtomicU64, Ordering};

/// Cumulative DFS counters.
///
/// Every read records whether it was served from a replica on the reading
/// node (local) or had to cross the network (remote); the cost model
/// charges them at disk vs. network bandwidth respectively. All counters
/// are monotonic; [`DfsMetrics::snapshot`] gives a consistent-enough view
/// for reporting (exactness across counters is not required).
#[derive(Debug, Default)]
pub struct DfsMetrics {
    local_bytes_read: AtomicU64,
    remote_bytes_read: AtomicU64,
    bytes_written: AtomicU64,
    blocks_read: AtomicU64,
    blocks_written: AtomicU64,
    corrupt_replicas: AtomicU64,
    repaired_replicas: AtomicU64,
}

/// Point-in-time copy of the counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct MetricsSnapshot {
    pub local_bytes_read: u64,
    pub remote_bytes_read: u64,
    pub bytes_written: u64,
    pub blocks_read: u64,
    pub blocks_written: u64,
    /// Replicas that failed their checksum on read or scrub.
    pub corrupt_replicas: u64,
    /// Fresh replicas created by read-repair or the scrubber.
    pub repaired_replicas: u64,
}

impl DfsMetrics {
    pub(crate) fn record_read(&self, bytes: u64, local: bool) {
        let registry = sh_trace::global();
        if local {
            self.local_bytes_read.fetch_add(bytes, Ordering::Relaxed);
            registry.counter_add("dfs.bytes.read.local", bytes);
        } else {
            self.remote_bytes_read.fetch_add(bytes, Ordering::Relaxed);
            registry.counter_add("dfs.bytes.read.remote", bytes);
        }
        self.blocks_read.fetch_add(1, Ordering::Relaxed);
        registry.counter_add("dfs.blocks.read", 1);
        registry.observe("dfs.block.read.bytes", bytes);
    }

    pub(crate) fn record_write(&self, bytes: u64) {
        self.bytes_written.fetch_add(bytes, Ordering::Relaxed);
        self.blocks_written.fetch_add(1, Ordering::Relaxed);
        let registry = sh_trace::global();
        registry.counter_add("dfs.bytes.written", bytes);
        registry.counter_add("dfs.blocks.written", 1);
        registry.observe("dfs.block.write.bytes", bytes);
    }

    /// Records one integrity incident: `corrupt` replicas detected rotten
    /// and `repaired` fresh replicas created to heal them. Mirrored to
    /// the global registry as `dfs.integrity.corrupt` /
    /// `dfs.integrity.repaired`.
    pub(crate) fn record_integrity(&self, corrupt: u64, repaired: u64) {
        self.corrupt_replicas.fetch_add(corrupt, Ordering::Relaxed);
        self.repaired_replicas
            .fetch_add(repaired, Ordering::Relaxed);
        let registry = sh_trace::global();
        if corrupt > 0 {
            registry.counter_add("dfs.integrity.corrupt", corrupt);
        }
        if repaired > 0 {
            registry.counter_add("dfs.integrity.repaired", repaired);
        }
    }

    /// Copies the current counter values.
    pub fn snapshot(&self) -> MetricsSnapshot {
        MetricsSnapshot {
            local_bytes_read: self.local_bytes_read.load(Ordering::Relaxed),
            remote_bytes_read: self.remote_bytes_read.load(Ordering::Relaxed),
            bytes_written: self.bytes_written.load(Ordering::Relaxed),
            blocks_read: self.blocks_read.load(Ordering::Relaxed),
            blocks_written: self.blocks_written.load(Ordering::Relaxed),
            corrupt_replicas: self.corrupt_replicas.load(Ordering::Relaxed),
            repaired_replicas: self.repaired_replicas.load(Ordering::Relaxed),
        }
    }
}

impl MetricsSnapshot {
    /// Total bytes read, local + remote.
    pub fn total_bytes_read(&self) -> u64 {
        self.local_bytes_read + self.remote_bytes_read
    }

    /// Counter-wise difference `self - earlier` (for measuring one job).
    /// Saturating: comparing snapshots from different `Dfs` instances (or
    /// out of order) yields zeros instead of a wrap-around panic.
    pub fn since(&self, earlier: &MetricsSnapshot) -> MetricsSnapshot {
        MetricsSnapshot {
            local_bytes_read: self
                .local_bytes_read
                .saturating_sub(earlier.local_bytes_read),
            remote_bytes_read: self
                .remote_bytes_read
                .saturating_sub(earlier.remote_bytes_read),
            bytes_written: self.bytes_written.saturating_sub(earlier.bytes_written),
            blocks_read: self.blocks_read.saturating_sub(earlier.blocks_read),
            blocks_written: self.blocks_written.saturating_sub(earlier.blocks_written),
            corrupt_replicas: self
                .corrupt_replicas
                .saturating_sub(earlier.corrupt_replicas),
            repaired_replicas: self
                .repaired_replicas
                .saturating_sub(earlier.repaired_replicas),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate() {
        let m = DfsMetrics::default();
        m.record_read(100, true);
        m.record_read(50, false);
        m.record_write(10);
        let s = m.snapshot();
        assert_eq!(s.local_bytes_read, 100);
        assert_eq!(s.remote_bytes_read, 50);
        assert_eq!(s.total_bytes_read(), 150);
        assert_eq!(s.bytes_written, 10);
        assert_eq!(s.blocks_read, 2);
        assert_eq!(s.blocks_written, 1);
    }

    #[test]
    fn since_subtracts() {
        let m = DfsMetrics::default();
        m.record_read(100, true);
        let before = m.snapshot();
        m.record_read(25, false);
        let delta = m.snapshot().since(&before);
        assert_eq!(delta.local_bytes_read, 0);
        assert_eq!(delta.remote_bytes_read, 25);
        assert_eq!(delta.blocks_read, 1);
    }

    #[test]
    fn since_saturates_instead_of_panicking() {
        let fresh = DfsMetrics::default().snapshot();
        let busy = MetricsSnapshot {
            local_bytes_read: 500,
            blocks_read: 3,
            ..MetricsSnapshot::default()
        };
        // "Earlier" snapshot from a busier instance: must clamp to zero.
        let delta = fresh.since(&busy);
        assert_eq!(delta, MetricsSnapshot::default());
    }

    #[test]
    fn reads_and_writes_reach_the_global_registry() {
        let before = sh_trace::global().snapshot();
        let m = DfsMetrics::default();
        m.record_read(64, true);
        m.record_read(32, false);
        m.record_write(16);
        let delta = sh_trace::global().snapshot().since(&before);
        assert!(delta.counter("dfs.bytes.read.local") >= 64);
        assert!(delta.counter("dfs.bytes.read.remote") >= 32);
        assert!(delta.counter("dfs.bytes.written") >= 16);
        assert!(delta.counter("dfs.blocks.read") >= 2);
    }
}
