//! Per-job query profiles: one [`JobProfile`] per executed MapReduce job,
//! combining phase timings, DFS traffic, shuffle volume, splitter
//! selectivity, engine counters, and the span tree. Renders as an aligned
//! text table for humans.

use crate::metrics::Histogram;
use crate::span::{format_duration, SpanRecord, SpanTree};
use std::collections::BTreeMap;
use std::time::Duration;

/// How much of the input the splitter and filters let through.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Selectivity {
    /// Partitions in the indexed file (0 for heap inputs).
    pub partitions_total: u64,
    /// Partitions the splitter kept.
    pub partitions_scanned: u64,
    /// Partitions the splitter pruned via the global index.
    pub partitions_pruned: u64,
    /// Records read by map tasks.
    pub records_scanned: u64,
    /// Records that survived filtering (emitted or output).
    pub records_emitted: u64,
}

impl Selectivity {
    /// Selectivity of a splitter decision over an indexed file:
    /// `scanned` of `total` partitions survived the filter function and
    /// together hold `records_scanned` records. `records_emitted` is
    /// left at zero for the caller to fill once the answer size is
    /// known.
    pub fn of_split(total: usize, scanned: usize, records_scanned: u64) -> Selectivity {
        Selectivity {
            partitions_total: total as u64,
            partitions_scanned: scanned as u64,
            partitions_pruned: total.saturating_sub(scanned) as u64,
            records_scanned,
            records_emitted: 0,
        }
    }

    /// Selectivity of a full scan (heap inputs): every split is read,
    /// nothing is pruned, and the record count is unknown (zero).
    pub fn full_scan(splits: usize, records_emitted: u64) -> Selectivity {
        Selectivity {
            partitions_total: splits as u64,
            partitions_scanned: splits as u64,
            partitions_pruned: 0,
            records_scanned: 0,
            records_emitted,
        }
    }

    /// Adds another job's selectivity to this one, field by field.
    pub fn absorb(&mut self, other: &Selectivity) {
        self.partitions_total += other.partitions_total;
        self.partitions_scanned += other.partitions_scanned;
        self.partitions_pruned += other.partitions_pruned;
        self.records_scanned += other.records_scanned;
        self.records_emitted += other.records_emitted;
    }

    /// Fraction of partitions pruned without being read, in `[0, 1]`.
    pub fn pruning_ratio(&self) -> f64 {
        if self.partitions_total == 0 {
            0.0
        } else {
            self.partitions_pruned as f64 / self.partitions_total as f64
        }
    }
}

/// One engine phase (map, shuffle, reduce, or an index-build stage).
#[derive(Clone, Debug, Default, PartialEq)]
pub struct PhaseProfile {
    pub name: String,
    /// Simulated cluster time attributed to the phase.
    pub sim_seconds: f64,
    /// Tasks executed in the phase (0 for task-free phases like shuffle).
    pub tasks: u64,
    /// Wall-clock duration of each task, in microseconds.
    pub task_micros: Histogram,
}

impl PhaseProfile {
    pub fn new(name: impl Into<String>) -> PhaseProfile {
        PhaseProfile {
            name: name.into(),
            ..PhaseProfile::default()
        }
    }
}

/// Everything observed about one executed job.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct JobProfile {
    pub job: String,
    /// Wall-clock time of the in-process run.
    pub wall: Duration,
    /// The job's phases: the one record of its simulated time and tasks.
    pub phases: Vec<PhaseProfile>,
    /// DFS bytes served from a replica on the reading node.
    pub dfs_local_bytes: u64,
    /// DFS bytes that crossed the simulated network.
    pub dfs_remote_bytes: u64,
    pub dfs_bytes_written: u64,
    pub shuffle_pairs: u64,
    pub shuffle_bytes: u64,
    /// Task re-attempts launched after failed attempts (map + reduce).
    pub task_retries: u64,
    /// Speculative duplicate attempts launched for stragglers.
    pub speculative_launched: u64,
    /// Speculative attempts that finished first and won their task.
    pub speculative_won: u64,
    /// Nodes blacklisted by the job scheduler after repeated failures.
    pub nodes_blacklisted: u64,
    pub selectivity: Selectivity,
    /// Engine + user counters at job completion.
    pub counters: BTreeMap<String, u64>,
    /// Span tree of the run, when captured.
    pub spans: Option<SpanRecord>,
}

impl JobProfile {
    pub fn new(job: impl Into<String>) -> JobProfile {
        JobProfile {
            job: job.into(),
            ..JobProfile::default()
        }
    }

    pub fn phase(&self, name: &str) -> Option<&PhaseProfile> {
        self.phases.iter().find(|p| p.name == name)
    }

    /// Simulated seconds of the named phase (0 when there is none).
    pub fn phase_seconds(&self, name: &str) -> f64 {
        self.phase(name).map_or(0.0, |p| p.sim_seconds)
    }

    /// Tasks run in the named phase (0 when there is none).
    pub fn phase_tasks(&self, name: &str) -> u64 {
        self.phase(name).map_or(0, |p| p.tasks)
    }

    /// Simulated cluster makespan: the sum of the phases' seconds.
    pub fn sim_seconds(&self) -> f64 {
        self.phases.iter().map(|p| p.sim_seconds).sum()
    }

    fn phase_mut(&mut self, name: &str) -> &mut PhaseProfile {
        if let Some(i) = self.phases.iter().position(|p| p.name == name) {
            return &mut self.phases[i];
        }
        self.phases.push(PhaseProfile::new(name));
        self.phases.last_mut().unwrap()
    }

    /// Folds another profile into this one (multi-job operations such as
    /// iterative kNN report one combined profile). Phases merge by name;
    /// the span tree keeps the first capture.
    pub fn absorb(&mut self, other: &JobProfile) {
        self.wall += other.wall;
        for p in &other.phases {
            let mine = self.phase_mut(&p.name);
            mine.sim_seconds += p.sim_seconds;
            mine.tasks += p.tasks;
            mine.task_micros.merge(&p.task_micros);
        }
        self.dfs_local_bytes += other.dfs_local_bytes;
        self.dfs_remote_bytes += other.dfs_remote_bytes;
        self.dfs_bytes_written += other.dfs_bytes_written;
        self.shuffle_pairs += other.shuffle_pairs;
        self.shuffle_bytes += other.shuffle_bytes;
        self.task_retries += other.task_retries;
        self.speculative_launched += other.speculative_launched;
        self.speculative_won += other.speculative_won;
        self.nodes_blacklisted += other.nodes_blacklisted;
        self.selectivity.absorb(&other.selectivity);
        for (k, v) in &other.counters {
            *self.counters.entry(k.clone()).or_insert(0) += v;
        }
        if self.spans.is_none() {
            self.spans = other.spans.clone();
        }
    }

    /// Aligned, human-readable table (plus the span tree when captured).
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!("job profile: {}\n", self.job));
        out.push_str(&format!(
            "  wall {:<10} sim {:.3}s\n",
            format_duration(self.wall),
            self.sim_seconds()
        ));
        if !self.phases.is_empty() {
            out.push_str(&format!(
                "  {:<14} {:>9} {:>7} {:>10} {:>10} {:>10}\n",
                "phase", "sim(s)", "tasks", "p50", "p95", "max"
            ));
            for p in &self.phases {
                let h = &p.task_micros;
                let (p50, p95, max) = if h.count() == 0 {
                    ("-".to_string(), "-".to_string(), "-".to_string())
                } else {
                    (
                        format_duration(Duration::from_micros(h.quantile(0.5))),
                        format_duration(Duration::from_micros(h.quantile(0.95))),
                        format_duration(Duration::from_micros(h.max())),
                    )
                };
                out.push_str(&format!(
                    "  {:<14} {:>9.3} {:>7} {:>10} {:>10} {:>10}\n",
                    p.name, p.sim_seconds, p.tasks, p50, p95, max
                ));
            }
        }
        let sel = &self.selectivity;
        if sel.partitions_total > 0 {
            out.push_str(&format!(
                "  splitter: {} scanned / {} pruned of {} partitions ({:.0}% pruned)\n",
                sel.partitions_scanned,
                sel.partitions_pruned,
                sel.partitions_total,
                100.0 * sel.pruning_ratio()
            ));
        }
        if sel.records_scanned > 0 || sel.records_emitted > 0 {
            out.push_str(&format!(
                "  records:  {} scanned -> {} emitted\n",
                sel.records_scanned, sel.records_emitted
            ));
        }
        out.push_str(&format!(
            "  dfs:      {} local, {} remote, {} written\n",
            format_bytes(self.dfs_local_bytes),
            format_bytes(self.dfs_remote_bytes),
            format_bytes(self.dfs_bytes_written)
        ));
        if self.shuffle_pairs > 0 || self.shuffle_bytes > 0 {
            out.push_str(&format!(
                "  shuffle:  {} pairs, {}\n",
                self.shuffle_pairs,
                format_bytes(self.shuffle_bytes)
            ));
        }
        if self.task_retries > 0 || self.speculative_launched > 0 || self.nodes_blacklisted > 0 {
            out.push_str(&format!(
                "  faults:   {} retries, {} speculative ({} won), {} nodes blacklisted\n",
                self.task_retries,
                self.speculative_launched,
                self.speculative_won,
                self.nodes_blacklisted
            ));
        }
        if !self.counters.is_empty() {
            let width = self
                .counters
                .keys()
                .map(String::len)
                .max()
                .unwrap_or(0)
                .max(12);
            out.push_str("  counters:\n");
            for (k, v) in &self.counters {
                out.push_str(&format!("    {k:<width$}  {v:>12}\n"));
            }
        }
        if let Some(spans) = &self.spans {
            out.push_str("  spans:\n");
            for line in format!("{}", SpanTree(spans)).lines() {
                out.push_str(&format!("    {line}\n"));
            }
        }
        out
    }
}

/// Human-scale byte count: `982B`, `12.4KB`, `3.1MB`.
pub fn format_bytes(n: u64) -> String {
    if n < 1_024 {
        format!("{n}B")
    } else if n < 1_024 * 1_024 {
        format!("{:.1}KB", n as f64 / 1_024.0)
    } else if n < 1_024 * 1_024 * 1_024 {
        format!("{:.1}MB", n as f64 / (1_024.0 * 1_024.0))
    } else {
        format!("{:.2}GB", n as f64 / (1_024.0 * 1_024.0 * 1_024.0))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_profile() -> JobProfile {
        let mut p = JobProfile::new("range-spatial");
        p.wall = Duration::from_micros(15_700);
        let mut map = PhaseProfile::new("map");
        map.sim_seconds = 0.523;
        map.tasks = 8;
        for t in [120u64, 140, 150, 900, 210, 250, 180, 130] {
            map.task_micros.observe(t);
        }
        p.phases.push(map);
        p.phases.push(PhaseProfile::new("shuffle"));
        p.dfs_local_bytes = 64_000;
        p.dfs_remote_bytes = 8_000;
        p.dfs_bytes_written = 1_200;
        p.shuffle_pairs = 42;
        p.shuffle_bytes = 512;
        p.task_retries = 3;
        p.speculative_launched = 2;
        p.speculative_won = 1;
        p.nodes_blacklisted = 1;
        p.selectivity = Selectivity {
            partitions_total: 10,
            partitions_scanned: 2,
            partitions_pruned: 8,
            records_scanned: 20_000,
            records_emitted: 37,
        };
        p.counters.insert("range.results".to_string(), 37);
        p.spans = Some(SpanRecord {
            name: "job:range".to_string(),
            start: Duration::ZERO,
            duration: Duration::from_micros(15_700),
            attrs: vec![("op".to_string(), "range".to_string())],
            children: vec![SpanRecord {
                name: "map-wave".to_string(),
                start: Duration::from_micros(10),
                duration: Duration::from_micros(14_000),
                attrs: vec![],
                children: vec![],
            }],
        });
        p
    }

    #[test]
    fn render_mentions_the_interesting_numbers() {
        let text = sample_profile().render();
        assert!(text.contains("range-spatial"));
        assert!(text.contains("2 scanned / 8 pruned of 10"));
        assert!(text.contains("80% pruned"));
        assert!(text.contains("range.results"));
        assert!(text.contains("map-wave"));
        assert!(text.contains("shuffle"));
        assert!(text.contains("3 retries, 2 speculative (1 won), 1 nodes blacklisted"));
    }

    #[test]
    fn fault_free_profiles_omit_the_fault_line() {
        let mut p = sample_profile();
        p.task_retries = 0;
        p.speculative_launched = 0;
        p.speculative_won = 0;
        p.nodes_blacklisted = 0;
        assert!(!p.render().contains("retries"));
    }

    #[test]
    fn absorb_sums_and_merges_phases() {
        let mut a = sample_profile();
        let b = sample_profile();
        a.absorb(&b);
        assert_eq!(a.selectivity.partitions_pruned, 16);
        assert_eq!(a.phase("map").unwrap().tasks, 16);
        assert_eq!(a.counters["range.results"], 74);
        assert_eq!(a.phases.len(), 2); // merged by name, not duplicated
        assert!((a.sim_seconds() - 1.046).abs() < 1e-9);
    }

    #[test]
    fn pruning_ratio_handles_heap_inputs() {
        assert_eq!(Selectivity::default().pruning_ratio(), 0.0);
    }

    #[test]
    fn byte_formatting() {
        assert_eq!(format_bytes(10), "10B");
        assert_eq!(format_bytes(2_048), "2.0KB");
        assert_eq!(format_bytes(3 * 1024 * 1024), "3.0MB");
    }
}
