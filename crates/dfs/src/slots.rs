//! Global worker-slot pool shared by every job on a cluster.
//!
//! Hadoop caps the cluster's concurrency at its slot count no matter how
//! many jobs the JobTracker is running; this pool reproduces that: N
//! concurrent jobs on a C-slot cluster execute C task attempts at a
//! time, not N×C. Each task attempt acquires a [`SlotLease`] before it
//! runs and releases it (RAII) when it settles, so speculative backups
//! and retries compete for the same capacity as first attempts.
//!
//! Acquisition blocks (back-pressure, not failure) and is serviced in
//! wake-up order. Wait time is observed into the global trace registry
//! as `sched.slot.wait.micros`; occupancy is mirrored into the
//! `sched.slots.in_use` gauge and the high-water mark is queryable via
//! [`SlotPool::peak`] so tests can assert the cap was never exceeded.

use std::sync::{Arc, Condvar, Mutex};
use std::time::Instant;

use sh_trace::sync::{lock, wait};

struct PoolState {
    total: usize,
    in_use: usize,
    /// High-water mark of `in_use` since creation.
    peak: usize,
}

/// Counting semaphore over the cluster's worker slots (see module docs).
///
/// Uses `std::sync` primitives: leases are held across task execution,
/// and the wait path needs a condition variable.
pub struct SlotPool {
    state: Mutex<PoolState>,
    cv: Condvar,
}

impl SlotPool {
    /// Creates a pool with `total` slots (clamped to at least 1 — a
    /// zero-slot cluster would deadlock every job).
    pub fn new(total: usize) -> SlotPool {
        SlotPool {
            state: Mutex::new(PoolState {
                total: total.max(1),
                in_use: 0,
                peak: 0,
            }),
            cv: Condvar::new(),
        }
    }

    /// Pool size for a `worker_threads` setting: the given count, or
    /// every core when `None`. Sizes the pool at [`Dfs::new`](crate::Dfs::new)
    /// and on Pigeon's `SET worker_threads`.
    pub fn count_for(worker_threads: Option<usize>) -> usize {
        worker_threads
            .unwrap_or_else(|| {
                std::thread::available_parallelism()
                    .map(|n| n.get())
                    .unwrap_or(4)
            })
            .max(1)
    }

    /// Blocks until a slot is free, then leases it. The lease returns
    /// the slot on drop.
    pub fn acquire(self: &Arc<Self>) -> SlotLease {
        let t0 = Instant::now();
        let mut st = lock(&self.state);
        if st.in_use >= st.total {
            sh_trace::events::emit(
                "slots.exhausted",
                vec![
                    ("in_use", st.in_use.to_string()),
                    ("total", st.total.to_string()),
                ],
            );
        }
        while st.in_use >= st.total {
            st = wait(&self.cv, st);
        }
        st.in_use += 1;
        st.peak = st.peak.max(st.in_use);
        let in_use = st.in_use;
        drop(st);
        let registry = sh_trace::global();
        registry.observe("sched.slot.wait.micros", t0.elapsed().as_micros() as u64);
        registry.gauge_set("sched.slots.in_use", in_use as i64);
        SlotLease {
            pool: Arc::clone(self),
        }
    }

    /// Resizes the pool (clamped to at least 1). Growing wakes waiters;
    /// shrinking lets in-flight leases drain naturally — `in_use` may
    /// exceed the new total until they release.
    pub fn set_total(&self, total: usize) {
        let mut st = lock(&self.state);
        st.total = total.max(1);
        self.cv.notify_all();
    }

    /// Configured slot count.
    pub fn total(&self) -> usize {
        lock(&self.state).total
    }

    /// Slots currently leased.
    pub fn in_use(&self) -> usize {
        lock(&self.state).in_use
    }

    /// High-water mark of concurrently leased slots since creation.
    pub fn peak(&self) -> usize {
        lock(&self.state).peak
    }
}

/// An acquired worker slot; returned to the pool on drop.
pub struct SlotLease {
    pool: Arc<SlotPool>,
}

impl Drop for SlotLease {
    fn drop(&mut self) {
        let mut st = lock(&self.pool.state);
        st.in_use -= 1;
        let in_use = st.in_use;
        drop(st);
        self.pool.cv.notify_one();
        sh_trace::global().gauge_set("sched.slots.in_use", in_use as i64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::time::Duration;

    #[test]
    fn lease_roundtrip_updates_occupancy_and_peak() {
        let pool = Arc::new(SlotPool::new(2));
        assert_eq!(pool.total(), 2);
        let a = pool.acquire();
        let b = pool.acquire();
        assert_eq!(pool.in_use(), 2);
        drop(a);
        assert_eq!(pool.in_use(), 1);
        drop(b);
        assert_eq!(pool.in_use(), 0);
        assert_eq!(pool.peak(), 2);
    }

    #[test]
    fn zero_slots_clamps_to_one() {
        let pool = Arc::new(SlotPool::new(0));
        assert_eq!(pool.total(), 1);
        let lease = pool.acquire();
        drop(lease);
        pool.set_total(0);
        assert_eq!(pool.total(), 1);
    }

    #[test]
    fn concurrent_holders_never_exceed_total() {
        let pool = Arc::new(SlotPool::new(3));
        let live = Arc::new(AtomicUsize::new(0));
        let max_seen = Arc::new(AtomicUsize::new(0));
        std::thread::scope(|scope| {
            for _ in 0..16 {
                let pool = Arc::clone(&pool);
                let live = Arc::clone(&live);
                let max_seen = Arc::clone(&max_seen);
                scope.spawn(move || {
                    for _ in 0..20 {
                        let _lease = pool.acquire();
                        let now = live.fetch_add(1, Ordering::SeqCst) + 1;
                        max_seen.fetch_max(now, Ordering::SeqCst);
                        std::thread::sleep(Duration::from_micros(200));
                        live.fetch_sub(1, Ordering::SeqCst);
                    }
                });
            }
        });
        assert!(max_seen.load(Ordering::SeqCst) <= 3);
        assert_eq!(pool.in_use(), 0);
        assert!(pool.peak() <= 3);
    }

    #[test]
    fn growing_the_pool_wakes_waiters() {
        let pool = Arc::new(SlotPool::new(1));
        let gate = pool.acquire();
        let pool2 = Arc::clone(&pool);
        let waiter = std::thread::spawn(move || {
            let _lease = pool2.acquire();
        });
        std::thread::sleep(Duration::from_millis(20));
        pool.set_total(2);
        waiter.join().expect("waiter must finish once pool grows");
        drop(gate);
    }
}
