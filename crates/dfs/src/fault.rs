//! Deterministic fault injection and fault-tolerance policy.
//!
//! Chaos tests need *reproducible* failures: the same plan against the
//! same cluster seed must produce the same retries, blacklists, and
//! speculative attempts on every run. A [`FaultPlan`] is therefore a
//! fully explicit list of actions — no probabilistic coin flips — keyed
//! on task indices and attempt numbers, which the executor consults at
//! well-defined points (wave boundary, attempt start).
//!
//! [`FtOptions`] carries the execution policy itself (attempt limits,
//! blacklist threshold, speculation knobs). It is seeded from
//! [`ClusterConfig`](crate::ClusterConfig) but lives in a mutable cell
//! on the [`Dfs`](crate::Dfs) so a running session (e.g. a Pigeon
//! `SET retries 5;`) can adjust it between jobs.

use std::fmt;
use std::time::Duration;

/// How an injected silent corruption mangles a replica's bytes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CorruptKind {
    /// Flip one bit in the middle of each block — bit rot.
    Flip,
    /// Cut each block to half its length — a torn write.
    Truncate,
}

impl fmt::Display for CorruptKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CorruptKind::Flip => write!(f, "flip"),
            CorruptKind::Truncate => write!(f, "truncate"),
        }
    }
}

/// One injected fault, applied by the job executor.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum FaultAction {
    /// Fail attempt `attempt` (0-based) of map task `task` just before
    /// it would run — models a task crash on its node.
    FailTask { task: usize, attempt: usize },
    /// Kill datanode `node` at the map-wave boundary: after splits are
    /// scheduled but before the first attempt executes. Tasks placed on
    /// the node fail and must be rescheduled onto replica holders.
    KillNode { node: usize },
    /// Delay the *first* attempt of map task `task` by `millis`,
    /// making it a straggler. Later attempts (the speculative backup)
    /// run at full speed — the delay models a slow node, not slow data.
    DelayTask { task: usize, millis: u64 },
    /// Silently corrupt replica ordinal `replica` of every block of
    /// `path` at the map-wave boundary. Unlike a node kill nothing is
    /// announced — only the block checksums can catch it.
    CorruptReplica {
        path: String,
        replica: usize,
        kind: CorruptKind,
    },
}

/// A reproducible schedule of injected faults for one job.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct FaultPlan {
    /// Actions, applied in order where order matters (node kills).
    pub actions: Vec<FaultAction>,
}

impl FaultPlan {
    /// A plan with no faults.
    pub fn none() -> FaultPlan {
        FaultPlan::default()
    }

    /// True when the plan injects nothing.
    pub fn is_empty(&self) -> bool {
        self.actions.is_empty()
    }

    /// Adds a task-failure injection (builder style).
    pub fn fail_task(mut self, task: usize, attempt: usize) -> FaultPlan {
        self.actions.push(FaultAction::FailTask { task, attempt });
        self
    }

    /// Adds a wave-boundary node kill (builder style).
    pub fn kill_node(mut self, node: usize) -> FaultPlan {
        self.actions.push(FaultAction::KillNode { node });
        self
    }

    /// Adds a first-attempt straggler delay (builder style).
    pub fn delay_task(mut self, task: usize, millis: u64) -> FaultPlan {
        self.actions.push(FaultAction::DelayTask { task, millis });
        self
    }

    /// Adds a silent replica corruption (builder style).
    pub fn corrupt_replica(mut self, path: &str, replica: usize, kind: CorruptKind) -> FaultPlan {
        self.actions.push(FaultAction::CorruptReplica {
            path: path.to_string(),
            replica,
            kind,
        });
        self
    }

    /// Should attempt `attempt` of map task `task` fail? The executor
    /// consults this exactly once per attempt, so a hit is journaled as
    /// one `fault.inject` event — chaos runs stay auditable post-hoc.
    pub fn should_fail(&self, task: usize, attempt: usize) -> bool {
        let hit = self.actions.iter().any(|a| {
            matches!(a, FaultAction::FailTask { task: t, attempt: at }
                         if *t == task && *at == attempt)
        });
        if hit {
            sh_trace::events::emit(
                "fault.inject",
                vec![
                    ("action", "fail_task".to_string()),
                    ("task", task.to_string()),
                    ("attempt", attempt.to_string()),
                ],
            );
        }
        hit
    }

    /// Injected straggler delay for an attempt, if any (first attempts
    /// only; backups run at full speed).
    pub fn delay_for(&self, task: usize, attempt: usize) -> Option<Duration> {
        if attempt != 0 {
            return None;
        }
        self.actions.iter().find_map(|a| match a {
            FaultAction::DelayTask { task: t, millis } if *t == task => {
                Some(Duration::from_millis(*millis))
            }
            _ => None,
        })
    }

    /// Nodes the plan kills at the map-wave boundary.
    pub fn nodes_to_kill(&self) -> Vec<usize> {
        self.actions
            .iter()
            .filter_map(|a| match a {
                FaultAction::KillNode { node } => Some(*node),
                _ => None,
            })
            .collect()
    }

    /// Silent replica corruptions the plan applies at the map-wave
    /// boundary, as `(path, replica ordinal, kind)`.
    pub fn corruptions(&self) -> Vec<(String, usize, CorruptKind)> {
        self.actions
            .iter()
            .filter_map(|a| match a {
                FaultAction::CorruptReplica {
                    path,
                    replica,
                    kind,
                } => Some((path.clone(), *replica, *kind)),
                _ => None,
            })
            .collect()
    }

    /// Parses the compact text form used by Pigeon's `SET fault_plan`:
    /// semicolon-separated actions `fail:<task>@<attempt>`,
    /// `kill:<node>`, `delay:<task>x<millis>`,
    /// `flip:<path>@<replica>`, `truncate:<path>@<replica>`. Empty
    /// string or `none` clears the plan.
    pub fn parse(text: &str) -> Result<FaultPlan, String> {
        let mut plan = FaultPlan::default();
        let text = text.trim();
        if text.is_empty() || text.eq_ignore_ascii_case("none") {
            return Ok(plan);
        }
        for part in text.split(';').map(str::trim).filter(|p| !p.is_empty()) {
            let (kind, rest) = part
                .split_once(':')
                .ok_or_else(|| format!("fault action missing ':': {part}"))?;
            let num = |s: &str| {
                s.trim()
                    .parse::<usize>()
                    .map_err(|_| format!("bad number '{s}' in fault action {part}"))
            };
            match kind.trim().to_ascii_lowercase().as_str() {
                "fail" => {
                    let (t, a) = rest
                        .split_once('@')
                        .ok_or_else(|| format!("fail action needs <task>@<attempt>: {part}"))?;
                    plan = plan.fail_task(num(t)?, num(a)?);
                }
                "kill" => plan = plan.kill_node(num(rest)?),
                "delay" => {
                    let (t, ms) = rest
                        .split_once('x')
                        .ok_or_else(|| format!("delay action needs <task>x<millis>: {part}"))?;
                    plan = plan.delay_task(num(t)?, num(ms)? as u64);
                }
                k @ ("flip" | "truncate") => {
                    let (path, r) = rest
                        .rsplit_once('@')
                        .ok_or_else(|| format!("{k} action needs <path>@<replica>: {part}"))?;
                    let kind = if k == "flip" {
                        CorruptKind::Flip
                    } else {
                        CorruptKind::Truncate
                    };
                    plan = plan.corrupt_replica(path.trim(), num(r)?, kind);
                }
                other => return Err(format!("unknown fault action kind '{other}'")),
            }
        }
        Ok(plan)
    }
}

impl fmt::Display for FaultPlan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.actions.is_empty() {
            return write!(f, "none");
        }
        let mut first = true;
        for a in &self.actions {
            if !first {
                write!(f, ";")?;
            }
            first = false;
            match a {
                FaultAction::FailTask { task, attempt } => write!(f, "fail:{task}@{attempt}")?,
                FaultAction::KillNode { node } => write!(f, "kill:{node}")?,
                FaultAction::DelayTask { task, millis } => write!(f, "delay:{task}x{millis}")?,
                FaultAction::CorruptReplica {
                    path,
                    replica,
                    kind,
                } => write!(f, "{kind}:{path}@{replica}")?,
            }
        }
        Ok(())
    }
}

/// Fault-tolerance policy of the job executor. Initialized from
/// [`ClusterConfig`](crate::ClusterConfig), adjustable at runtime via
/// [`Dfs::update_ft_options`](crate::Dfs::update_ft_options).
#[derive(Clone, Debug, PartialEq)]
pub struct FtOptions {
    /// Attempts per task (first run + retries) before the job fails.
    pub max_task_attempts: usize,
    /// Failed attempts on one node before it is blacklisted for the job
    /// (and the DFS re-replicates blocks off dead nodes).
    pub node_blacklist_threshold: usize,
    /// Executor worker threads; `None` uses `available_parallelism()`.
    pub worker_threads: Option<usize>,
    /// Deterministic retry backoff: attempt `a` waits `a * backoff` ms
    /// before re-running.
    pub retry_backoff_ms: u64,
    /// Launch speculative duplicates of stragglers when idle.
    pub speculative_execution: bool,
    /// A running task becomes a speculation candidate once it has been
    /// in flight this long and the task queue is empty.
    pub speculation_threshold_ms: u64,
    /// Injected faults for the next jobs (chaos testing).
    pub fault_plan: FaultPlan,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plan_queries() {
        let plan = FaultPlan::none()
            .fail_task(3, 0)
            .fail_task(3, 1)
            .kill_node(2)
            .delay_task(1, 250);
        assert!(plan.should_fail(3, 0));
        assert!(plan.should_fail(3, 1));
        assert!(!plan.should_fail(3, 2));
        assert!(!plan.should_fail(2, 0));
        assert_eq!(plan.nodes_to_kill(), vec![2]);
        assert_eq!(plan.delay_for(1, 0), Some(Duration::from_millis(250)));
        assert_eq!(plan.delay_for(1, 1), None, "backups run at full speed");
        assert_eq!(plan.delay_for(0, 0), None);
    }

    #[test]
    fn text_form_roundtrips() {
        let plan = FaultPlan::none()
            .fail_task(3, 1)
            .kill_node(2)
            .delay_task(0, 100)
            .corrupt_replica("/idx/p/part-00000", 1, CorruptKind::Flip)
            .corrupt_replica("/idx/p/part-00001", 0, CorruptKind::Truncate);
        let text = plan.to_string();
        assert_eq!(
            text,
            "fail:3@1;kill:2;delay:0x100;flip:/idx/p/part-00000@1;\
             truncate:/idx/p/part-00001@0"
        );
        assert_eq!(FaultPlan::parse(&text).unwrap(), plan);
        assert_eq!(FaultPlan::parse("none").unwrap(), FaultPlan::none());
        assert_eq!(FaultPlan::parse("  ").unwrap(), FaultPlan::none());
        assert_eq!(FaultPlan::none().to_string(), "none");
    }

    #[test]
    fn corruption_queries() {
        let plan = FaultPlan::none()
            .kill_node(1)
            .corrupt_replica("/f", 1, CorruptKind::Flip);
        assert_eq!(
            plan.corruptions(),
            vec![("/f".to_string(), 1, CorruptKind::Flip)]
        );
        assert_eq!(plan.nodes_to_kill(), vec![1]);
    }

    #[test]
    fn parse_rejects_malformed_actions() {
        assert!(FaultPlan::parse("fail:3").is_err());
        assert!(FaultPlan::parse("delay:1").is_err());
        assert!(FaultPlan::parse("explode:1").is_err());
        assert!(FaultPlan::parse("kill:x").is_err());
        assert!(FaultPlan::parse("flip:/f").is_err());
        assert!(FaultPlan::parse("truncate:/f@x").is_err());
    }
}
