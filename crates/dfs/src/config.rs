//! Cluster topology and performance parameters.

use crate::fault::{FaultPlan, FtOptions};

/// Identifier of a cluster node (datanode + task tracker), `0..num_nodes`.
pub type NodeId = usize;

/// Static description of the simulated cluster.
///
/// The defaults model the paper's testbed: a 25-node commodity cluster
/// with 64 MB HDFS blocks, 3-way replication, ~100 MB/s disks, ~1 GbE
/// network, and the multi-second MapReduce job startup overhead that
/// motivates single-round algorithm designs.
///
/// Tests and laptop-scale experiments shrink `block_size` so that the
/// *number of partitions* matches cluster-scale shapes at small data
/// sizes (see DESIGN.md §2).
#[derive(Clone, Debug)]
pub struct ClusterConfig {
    /// Number of worker nodes.
    pub num_nodes: usize,
    /// Concurrent map tasks per node.
    pub map_slots_per_node: usize,
    /// Concurrent reduce tasks per node.
    pub reduce_slots_per_node: usize,
    /// HDFS block size in bytes.
    pub block_size: u64,
    /// Replication factor (clamped to `num_nodes`).
    pub replication: usize,
    /// Sequential disk bandwidth per node, bytes/second.
    pub disk_bandwidth: f64,
    /// Point-to-point network bandwidth, bytes/second.
    pub network_bandwidth: f64,
    /// Network oversubscription: remote block reads by concurrent tasks
    /// share switch uplinks, so a task's effective remote bandwidth is
    /// `network_bandwidth / network_oversubscription`. (Shuffle traffic
    /// is already modelled cluster-wide and is not divided again.)
    pub network_oversubscription: f64,
    /// Fixed simulated overhead of starting a MapReduce job, seconds.
    /// Dominates short jobs; the reason multi-round algorithms lose.
    pub job_startup_overhead: f64,
    /// Fixed simulated overhead of launching one task attempt, seconds.
    pub task_startup_overhead: f64,
    /// Per-record CPU cost in seconds used by the simulated-time model
    /// (parse + process a record of typical size).
    pub cpu_cost_per_record: f64,
    /// Seed for deterministic replica placement.
    pub placement_seed: u64,
    /// Locality-aware map scheduling (the Hadoop default). When false the
    /// scheduler ignores replica locations — the ablation experiment A1
    /// measures what that costs in remote reads.
    pub locality_scheduling: bool,
    /// Number of straggler nodes (node ids `0..stragglers`) whose tasks
    /// run `straggler_slowdown`x slower in the simulated-time model.
    pub stragglers: usize,
    /// Slowdown factor applied to straggler nodes (>= 1).
    pub straggler_slowdown: f64,
    /// Speculative execution: when a straggler task falls behind, a
    /// backup attempt launches on a healthy node once the expected task
    /// time has elapsed, and the first finisher wins — Hadoop's
    /// straggler mitigation, modelled as
    /// `min(straggler time, 2x healthy time)` in the cost model and run
    /// for real by the executor (duplicate attempt, first finisher
    /// wins, loser cancelled).
    pub speculative_execution: bool,
    /// Attempts per task (first run + retries) before the job fails —
    /// Hadoop's `mapreduce.map.maxattempts`, default 4.
    pub max_task_attempts: usize,
    /// Failed attempts on one node before the scheduler blacklists the
    /// node for the rest of the job and asks the DFS to re-replicate.
    pub node_blacklist_threshold: usize,
    /// Executor worker threads; `None` uses `available_parallelism()`.
    pub worker_threads: Option<usize>,
    /// Deterministic retry backoff: attempt `a` waits `a * backoff` ms
    /// of wall time before re-running.
    pub retry_backoff_ms: u64,
    /// A running task becomes a speculation candidate once it has been
    /// in flight this long with the task queue empty.
    pub speculation_threshold_ms: u64,
    /// Injected faults for chaos testing (empty = no faults).
    pub fault_plan: FaultPlan,
}

impl Default for ClusterConfig {
    fn default() -> Self {
        ClusterConfig {
            num_nodes: 25,
            map_slots_per_node: 2,
            reduce_slots_per_node: 1,
            block_size: 64 * 1024 * 1024,
            replication: 3,
            disk_bandwidth: 100.0 * 1024.0 * 1024.0,
            network_bandwidth: 117.0 * 1024.0 * 1024.0,
            network_oversubscription: 4.0,
            job_startup_overhead: 6.0,
            task_startup_overhead: 0.5,
            cpu_cost_per_record: 2.0e-6,
            placement_seed: 0xC0FFEE,
            locality_scheduling: true,
            stragglers: 0,
            straggler_slowdown: 1.0,
            speculative_execution: false,
            max_task_attempts: 4,
            node_blacklist_threshold: 3,
            worker_threads: None,
            retry_backoff_ms: 5,
            speculation_threshold_ms: 30,
            fault_plan: FaultPlan::default(),
        }
    }
}

impl ClusterConfig {
    /// Laptop-scale configuration used by tests: a small cluster with
    /// tiny blocks so small datasets still produce many partitions.
    pub fn small_for_tests() -> Self {
        ClusterConfig {
            num_nodes: 4,
            map_slots_per_node: 2,
            reduce_slots_per_node: 1,
            block_size: 8 * 1024,
            replication: 2,
            ..ClusterConfig::default()
        }
    }

    /// The paper-shaped cluster with a custom block size — the standard
    /// configuration of the benchmark harness.
    pub fn paper_cluster(block_size: u64) -> Self {
        ClusterConfig {
            block_size,
            ..ClusterConfig::default()
        }
    }

    /// Effective replication (never more than the number of nodes).
    pub fn effective_replication(&self) -> usize {
        self.replication.clamp(1, self.num_nodes)
    }

    /// Total map slots in the cluster.
    pub fn total_map_slots(&self) -> usize {
        self.num_nodes * self.map_slots_per_node
    }

    /// Total reduce slots in the cluster.
    pub fn total_reduce_slots(&self) -> usize {
        self.num_nodes * self.reduce_slots_per_node
    }

    /// Initial fault-tolerance policy derived from the static config;
    /// the [`Dfs`](crate::Dfs) copies this into a mutable cell so it can
    /// be adjusted between jobs (Pigeon `SET ...`).
    pub fn ft_options(&self) -> FtOptions {
        FtOptions {
            max_task_attempts: self.max_task_attempts.max(1),
            node_blacklist_threshold: self.node_blacklist_threshold.max(1),
            worker_threads: self.worker_threads,
            retry_backoff_ms: self.retry_backoff_ms,
            speculative_execution: self.speculative_execution,
            speculation_threshold_ms: self.speculation_threshold_ms,
            fault_plan: self.fault_plan.clone(),
        }
    }

    /// Simulated speed factor of a node (stragglers are slower).
    pub fn node_slowdown(&self, node: usize) -> f64 {
        if node < self.stragglers {
            self.straggler_slowdown.max(1.0)
        } else {
            1.0
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_model_the_paper_testbed() {
        let c = ClusterConfig::default();
        assert_eq!(c.num_nodes, 25);
        assert_eq!(c.block_size, 64 * 1024 * 1024);
        assert_eq!(c.total_map_slots(), 50);
        assert_eq!(c.total_reduce_slots(), 25);
    }

    #[test]
    fn replication_is_clamped() {
        let mut c = ClusterConfig::small_for_tests();
        c.replication = 100;
        assert_eq!(c.effective_replication(), c.num_nodes);
        c.replication = 0;
        assert_eq!(c.effective_replication(), 1);
    }
}
