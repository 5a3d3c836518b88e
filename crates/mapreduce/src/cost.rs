//! Simulated cluster-time model.
//!
//! Converts per-task byte counts and measured compute time into the time
//! the job would take on the configured cluster. The model captures the
//! effects the paper's experiments are about:
//!
//! * per-**job** startup overhead (multi-round algorithms pay it per
//!   round — the reason CG_Hadoop-style designs insist on one round);
//! * per-**task** startup overhead (scanning every block of a large heap
//!   file costs many task launches; a pruned spatial job launches few);
//! * disk vs. network bandwidth for local vs. remote reads, shuffle
//!   traffic always at network bandwidth;
//! * slot-limited waves: with `m` map slots, `t` equal tasks take
//!   `ceil(t/m)` waves — modeled by greedy longest-processing-time list
//!   scheduling onto per-node slots.
//!
//! Shuffle and reduce are charged sequentially after the map phase
//! (Hadoop overlaps them partially; the additive model preserves ordering
//! between algorithm variants, which is all the experiments compare).

use sh_dfs::{ClusterConfig, FtOptions};
use sh_trace::JobProfile;

/// Cost inputs of one executed task.
#[derive(Clone, Copy, Debug, Default)]
pub struct TaskCost {
    /// Node the task was scheduled on.
    pub node: usize,
    /// Bytes read from replicas on the same node.
    pub local_bytes: u64,
    /// Bytes read over the network.
    pub remote_bytes: u64,
    /// Bytes written to the DFS (final output).
    pub output_bytes: u64,
    /// Measured compute seconds (map/reduce function wall time).
    pub compute_seconds: f64,
}

impl TaskCost {
    /// Simulated duration of this task on the cluster (stragglers run
    /// their I/O and compute proportionally slower; with speculative
    /// execution in the job's policy `ft` a backup attempt on a healthy
    /// node caps the damage at twice the healthy duration).
    pub fn duration(&self, cfg: &ClusterConfig, ft: &FtOptions) -> f64 {
        let remote_bw = cfg.network_bandwidth / cfg.network_oversubscription.max(1.0);
        let variable = self.local_bytes as f64 / cfg.disk_bandwidth
            + self.remote_bytes as f64 / remote_bw
            + self.output_bytes as f64 / cfg.disk_bandwidth
            + self.compute_seconds;
        let slow = cfg.node_slowdown(self.node);
        let effective = if ft.speculative_execution && slow > 1.0 {
            (slow * variable).min(2.0 * variable + cfg.task_startup_overhead)
        } else {
            slow * variable
        };
        cfg.task_startup_overhead + effective
    }
}

/// Simulated time of a whole job, by phase.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct SimBreakdown {
    /// Fixed job startup cost.
    pub startup: f64,
    /// Map-phase makespan (slot-limited).
    pub map: f64,
    /// Shuffle transfer time.
    pub shuffle: f64,
    /// Reduce-phase makespan (slot-limited).
    pub reduce: f64,
}

impl SimBreakdown {
    /// Total simulated job time.
    pub fn total(&self) -> f64 {
        self.startup + self.map + self.shuffle + self.reduce
    }

    /// A job's simulated time, read back from its profile's phases.
    pub fn of(profile: &JobProfile) -> SimBreakdown {
        let s = |phase| profile.phase_seconds(phase);
        SimBreakdown {
            startup: s("startup"),
            map: s("map"),
            shuffle: s("shuffle"),
            reduce: s("reduce"),
        }
    }

    /// Sums phase-wise (multi-job operations report the sum over jobs).
    pub fn add(&self, other: &SimBreakdown) -> SimBreakdown {
        SimBreakdown {
            startup: self.startup + other.startup,
            map: self.map + other.map,
            shuffle: self.shuffle + other.shuffle,
            reduce: self.reduce + other.reduce,
        }
    }
}

/// Makespan of `tasks` on `slots_per_node` slots across the nodes the
/// tasks are pinned to (tasks were already assigned to nodes by the
/// locality scheduler): greedy LPT onto each node's slot timelines.
/// `ft` is the policy snapshot the job ran under.
pub fn makespan(
    tasks: &[TaskCost],
    cfg: &ClusterConfig,
    ft: &FtOptions,
    slots_per_node: usize,
) -> f64 {
    if tasks.is_empty() {
        return 0.0;
    }
    let slots = slots_per_node.max(1);
    // Group durations by node.
    let n = cfg.num_nodes.max(1);
    let mut per_node: Vec<Vec<f64>> = vec![Vec::new(); n];
    for t in tasks {
        per_node[t.node % n].push(t.duration(cfg, ft));
    }
    let mut worst: f64 = 0.0;
    for durations in per_node.iter_mut() {
        if durations.is_empty() {
            continue;
        }
        durations.sort_by(|a, b| b.total_cmp(a)); // LPT
        let mut timeline = vec![0.0f64; slots];
        for d in durations.iter() {
            let slot = timeline
                .iter()
                .enumerate()
                .min_by(|a, b| a.1.total_cmp(b.1))
                .map(|(i, _)| i)
                .unwrap();
            timeline[slot] += d;
        }
        worst = worst.max(timeline.iter().copied().fold(0.0, f64::max));
    }
    worst
}

/// Shuffle transfer time: all intermediate bytes cross the network, with
/// up to `num_nodes` parallel streams.
pub fn shuffle_time(shuffle_bytes: u64, cfg: &ClusterConfig) -> f64 {
    if shuffle_bytes == 0 {
        return 0.0;
    }
    shuffle_bytes as f64 / (cfg.network_bandwidth * cfg.num_nodes as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> ClusterConfig {
        ClusterConfig {
            num_nodes: 2,
            map_slots_per_node: 2,
            disk_bandwidth: 100.0,
            network_bandwidth: 50.0,
            network_oversubscription: 1.0,
            task_startup_overhead: 1.0,
            ..ClusterConfig::small_for_tests()
        }
    }

    fn ft() -> FtOptions {
        FtOptions::default()
    }

    #[test]
    fn task_duration_charges_bandwidths() {
        let t = TaskCost {
            node: 0,
            local_bytes: 200,  // 2s at 100 B/s
            remote_bytes: 100, // 2s at 50 B/s
            output_bytes: 100, // 1s at 100 B/s
            compute_seconds: 0.5,
        };
        assert!((t.duration(&cfg(), &ft()) - (1.0 + 2.0 + 2.0 + 1.0 + 0.5)).abs() < 1e-12);
    }

    #[test]
    fn makespan_uses_slots() {
        // Four identical 1s-compute tasks on one node with 2 slots: two
        // waves.
        let t = TaskCost {
            node: 0,
            compute_seconds: 1.0,
            ..TaskCost::default()
        };
        let tasks = vec![t; 4];
        let m = makespan(&tasks, &cfg(), &ft(), 2);
        assert!((m - 2.0 * (1.0 + 1.0)).abs() < 1e-12); // 2 waves × (startup+compute)
    }

    #[test]
    fn makespan_is_max_over_nodes() {
        let mk = |node: usize, secs: f64| TaskCost {
            node,
            compute_seconds: secs,
            ..TaskCost::default()
        };
        let tasks = vec![mk(0, 1.0), mk(1, 5.0)];
        let m = makespan(&tasks, &cfg(), &ft(), 2);
        assert!((m - 6.0).abs() < 1e-12);
    }

    #[test]
    fn empty_job_costs_nothing_beyond_startup() {
        assert_eq!(makespan(&[], &cfg(), &ft(), 2), 0.0);
        assert_eq!(shuffle_time(0, &cfg()), 0.0);
    }

    #[test]
    fn oversubscription_slows_remote_reads() {
        let mut c = cfg();
        c.network_oversubscription = 4.0;
        let t = TaskCost {
            node: 0,
            remote_bytes: 100, // 2s at 50 B/s point-to-point, 8s shared
            ..TaskCost::default()
        };
        assert!((t.duration(&c, &ft()) - (1.0 + 8.0)).abs() < 1e-12);
    }

    #[test]
    fn speculative_execution_caps_straggler_damage() {
        let mut c = cfg();
        c.stragglers = 1;
        c.straggler_slowdown = 10.0;
        let t = TaskCost {
            node: 0,
            compute_seconds: 1.0,
            ..TaskCost::default()
        };
        let mut ft = ft();
        assert!(
            (t.duration(&c, &ft) - 11.0).abs() < 1e-12,
            "no speculation: 10x"
        );
        ft.speculative_execution = true;
        // Backup attempt: startup + min(10, 2 + startup) = 1 + 3.
        assert!(
            (t.duration(&c, &ft) - 4.0).abs() < 1e-12,
            "{}",
            t.duration(&c, &ft)
        );
    }

    #[test]
    fn stragglers_slow_their_tasks() {
        let mut c = cfg();
        c.stragglers = 1;
        c.straggler_slowdown = 4.0;
        let t = |node: usize| TaskCost {
            node,
            compute_seconds: 1.0,
            ..TaskCost::default()
        };
        // Same work, straggler node pays 4x the variable part.
        assert!((t(0).duration(&c, &ft()) - (1.0 + 4.0)).abs() < 1e-12);
        assert!((t(1).duration(&c, &ft()) - (1.0 + 1.0)).abs() < 1e-12);
    }

    #[test]
    fn breakdown_adds() {
        let a = SimBreakdown {
            startup: 1.0,
            map: 2.0,
            shuffle: 3.0,
            reduce: 4.0,
        };
        let b = a.add(&a);
        assert_eq!(b.total(), 20.0);
    }
}
