//! Job execution: locality scheduling, fault-tolerant task waves
//! (retries, node blacklisting, speculative execution), shuffle, and
//! cost aggregation.

use std::collections::btree_map::Entry;
use std::collections::{BTreeMap, VecDeque};
use std::hash::Hash;
use std::sync::{Condvar, Mutex};
use std::time::{Duration, Instant};

use sh_dfs::{ClusterConfig, Dfs, DfsError, FaultPlan, FtOptions};
use sh_trace::sync::{into_inner, lock, wait_timeout};
use sh_trace::{Histogram, JobProfile, PhaseProfile, Span};

use crate::context::{MapContext, ReduceContext, TaskOutput};
use crate::cost::{makespan, shuffle_time, TaskCost};
use crate::counters::Counters;
use crate::job::{Job, JobError, Mapper, Reducer};
use crate::rows::Rows;
use crate::split::SplitInput;

/// Result of a completed job: its rows, its side outputs, and its
/// profile, which is the job's one record of what it cost.
#[derive(Clone, Debug)]
pub struct JobOutcome {
    /// The job's final output: every map task's in task order, then every
    /// reduce task's. The driver shares the tasks' process, so it gets
    /// the rows directly; their bytes are still charged as DFS output.
    pub rows: Rows,
    /// The job's named side outputs ([`TaskOutput::side_output`]), each
    /// its tasks' contributions in task order, map wave first. Charged as
    /// DFS output like the rows; whether any becomes a file is the
    /// driver's decision.
    pub side: BTreeMap<String, Vec<u8>>,
    /// The job's name, wall time, counters (engine + user + driver),
    /// per-phase simulated seconds and task counts, DFS/shuffle traffic
    /// and span tree. The ops layer fills in `profile.selectivity` and
    /// its own counters after the run.
    pub profile: JobProfile,
}

impl JobOutcome {
    /// The record of a driver-side merge after a MapReduce round: the
    /// driver receives `bytes` over one network link and merges them on
    /// one machine in `elapsed`, charged as the job's one reduce task.
    pub fn driver_merge(
        name: impl Into<String>,
        counters: BTreeMap<String, u64>,
        bytes: u64,
        elapsed: Duration,
        cfg: &ClusterConfig,
    ) -> JobOutcome {
        let phase = |name: &str, sim_seconds: f64, tasks: u64| PhaseProfile {
            sim_seconds,
            tasks,
            ..PhaseProfile::new(name)
        };
        let profile = JobProfile {
            wall: elapsed,
            phases: vec![
                phase("startup", 0.0, 0),
                phase("map", 0.0, 0),
                phase("shuffle", bytes as f64 / cfg.network_bandwidth, 0),
                phase("reduce", elapsed.as_secs_f64(), 1),
            ],
            counters,
            ..JobProfile::new(name)
        };
        JobOutcome {
            rows: Rows::default(),
            side: BTreeMap::new(),
            profile,
        }
    }

    /// Records a counter the job's driver computed after the run (e.g.
    /// partitions its splitter pruned) in the job's profile, next to the
    /// engine's.
    pub fn set_counter(&mut self, key: &str, value: u64) {
        self.profile.counters.insert(key.to_string(), value);
    }

    /// Map tasks the job ran.
    pub fn map_tasks(&self) -> usize {
        self.profile.phase_tasks("map") as usize
    }
}

struct MapTaskResult<K, V> {
    cost: TaskCost,
    /// Emitted pairs, already partitioned per reducer at emit time. The
    /// driver's shuffle concatenates these bucket-wise in task order —
    /// no per-pair rehash on the single-threaded path.
    buckets: Vec<Vec<(K, V)>>,
    /// Post-combiner pair count/bytes, tallied task-side.
    shuffle_pairs: u64,
    shuffle_bytes: u64,
    out: TaskOutput,
}

/// A job's finished tasks, folded in task order, map wave first: the
/// one place a task's [`TaskOutput`] reaches the driver and the job's
/// counters. Final outputs are kept as their tasks are folded and joined
/// into the job's rows at the end; side outputs are merged by name.
struct TaskFold<'a> {
    counters: &'a Counters,
    outputs: Vec<String>,
    side: BTreeMap<String, Vec<u8>>,
}

impl TaskFold<'_> {
    /// Folds one finished task of either wave: keeps its final output
    /// for the job's rows, appends its side outputs to the job's, charges
    /// all of it to `cost.output_bytes`, and merges its counters. Both
    /// are charged as the DFS writes Hadoop's task commit makes, so
    /// simulated time does not depend on where the bytes go.
    fn task(&mut self, output_counter: &'static str, mut out: TaskOutput, cost: &mut TaskCost) {
        for (name, buf) in std::mem::take(&mut out.side) {
            cost.output_bytes += buf.len() as u64;
            self.counters
                .inc_static("output.side.bytes", buf.len() as u64);
            match self.side.entry(name) {
                Entry::Vacant(e) => {
                    e.insert(buf);
                }
                Entry::Occupied(mut e) => e.get_mut().extend_from_slice(&buf),
            }
        }
        if !out.output.is_empty() {
            let bytes = out.output.len() as u64;
            cost.output_bytes += bytes;
            self.counters.inc_static(output_counter, bytes);
            self.outputs.push(std::mem::take(&mut out.output));
        }
        self.counters.merge(&out.take_counters());
    }
}

// ---------------------------------------------------------------------
// Fault-tolerant wave scheduler
// ---------------------------------------------------------------------

/// Fault-tolerance tallies of one task wave.
#[derive(Clone, Copy, Debug, Default)]
struct FtStats {
    /// Attempts launched (first runs + retries + speculative backups).
    attempts: u64,
    /// Re-attempts queued after a failed attempt.
    retries: u64,
    /// Speculative backup attempts launched for stragglers.
    speculative_launched: u64,
    /// Speculative backups that finished first and won their task.
    speculative_won: u64,
    /// Nodes blacklisted after repeated failures.
    nodes_blacklisted: u64,
}

impl FtStats {
    fn absorb(&mut self, o: FtStats) {
        self.attempts += o.attempts;
        self.retries += o.retries;
        self.speculative_launched += o.speculative_launched;
        self.speculative_won += o.speculative_won;
        self.nodes_blacklisted += o.nodes_blacklisted;
    }
}

/// Per-task bookkeeping inside a wave.
#[derive(Clone, Debug, Default)]
struct TaskState {
    /// Attempts launched so far (also the next attempt's number).
    attempts: usize,
    /// Attempts currently in flight.
    running: usize,
    /// Nodes with an in-flight attempt of this task.
    active_nodes: Vec<usize>,
    /// Nodes where an attempt of this task failed (never reused).
    failed_nodes: Vec<usize>,
    /// First result installed — later finishers are discarded.
    done: bool,
    /// A speculative backup was already launched.
    speculated: bool,
    /// Launch time of the earliest attempt (straggler detection).
    first_started: Option<Instant>,
}

struct WaveState {
    /// Tasks awaiting a (re)attempt.
    queue: VecDeque<usize>,
    tasks: Vec<TaskState>,
    /// Failed attempts per node, across all tasks of the wave.
    node_failures: BTreeMap<usize, u64>,
    /// Nodes the wave no longer schedules onto.
    blacklist: Vec<usize>,
    /// Tasks without an installed result.
    remaining: usize,
    /// First task to exhaust its attempt budget fails the job; later
    /// failures never overwrite this.
    fatal: Option<JobError>,
    stats: FtStats,
}

enum Work {
    Run {
        task: usize,
        attempt: usize,
        node: usize,
        speculative: bool,
    },
    Wait,
    Exit,
}

/// Hadoop-shaped fault-tolerant execution of one wave of tasks: a failed
/// attempt is retried (with deterministic backoff) on another live
/// replica node, nodes that keep failing are blacklisted (triggering DFS
/// re-replication), and once the queue drains a straggling task gets a
/// speculative duplicate — first finisher wins, the loser is cancelled.
struct WaveRunner<'a, T> {
    dfs: &'a Dfs,
    opts: &'a FtOptions,
    /// Fault injection (map waves only — `None` disables).
    plan: Option<&'a FaultPlan>,
    wave_span: &'a Span,
    /// Task-name prefix in spans: `map` or `reduce`.
    phase: &'a str,
    /// Scheduler's preferred node per task (attempt 0).
    assignments: &'a [usize],
    /// Replica holders per task, in preference order for retries.
    replicas: Vec<Vec<usize>>,
    state: Mutex<WaveState>,
    cv: Condvar,
    results: Mutex<Vec<Option<T>>>,
    task_micros: Mutex<Histogram>,
}

impl<'a, T: Send> WaveRunner<'a, T> {
    fn new(
        dfs: &'a Dfs,
        opts: &'a FtOptions,
        plan: Option<&'a FaultPlan>,
        wave_span: &'a Span,
        phase: &'a str,
        assignments: &'a [usize],
        replicas: Vec<Vec<usize>>,
    ) -> WaveRunner<'a, T> {
        let n = assignments.len();
        WaveRunner {
            dfs,
            opts,
            plan,
            wave_span,
            phase,
            assignments,
            replicas,
            state: Mutex::new(WaveState {
                queue: (0..n).collect(),
                tasks: vec![TaskState::default(); n],
                node_failures: BTreeMap::new(),
                blacklist: Vec::new(),
                remaining: n,
                fatal: None,
                stats: FtStats::default(),
            }),
            cv: Condvar::new(),
            results: Mutex::new((0..n).map(|_| None).collect()),
            task_micros: Mutex::new(Histogram::new()),
        }
    }

    /// Runs the wave on `threads` workers: the calling thread, which
    /// drives the wave, plus `threads - 1` scoped helpers, so a one-task
    /// wave spawns nothing. Returns results in task order plus the wave's
    /// fault-tolerance tallies and task-duration histogram (winning
    /// attempts only).
    fn run<F>(self, threads: usize, run_task: F) -> Result<(Vec<T>, FtStats, Histogram), JobError>
    where
        F: Fn(usize, usize) -> Result<T, JobError> + Sync,
    {
        let run_task = &run_task;
        let me = &self;
        std::thread::scope(|scope| {
            for _ in 1..threads {
                scope.spawn(move || me.worker(run_task));
            }
            me.worker(run_task);
        });
        let state = into_inner(self.state);
        if let Some(e) = state.fatal {
            return Err(e);
        }
        let results = into_inner(self.results)
            .into_iter()
            .map(|r| r.expect("wave completed without a fatal error"))
            .collect();
        let micros = into_inner(self.task_micros);
        Ok((results, state.stats, micros))
    }

    fn worker<F>(&self, run_task: &F)
    where
        F: Fn(usize, usize) -> Result<T, JobError> + Sync,
    {
        loop {
            match self.next_work() {
                Work::Exit => break,
                Work::Wait => {
                    let st = lock(&self.state);
                    if st.fatal.is_some() || st.remaining == 0 {
                        break;
                    }
                    // Periodic wake keeps the straggler clock honest.
                    drop(wait_timeout(&self.cv, st, Duration::from_millis(2)));
                }
                Work::Run {
                    task,
                    attempt,
                    node,
                    speculative,
                } => self.execute(task, attempt, node, speculative, run_task),
            }
        }
    }

    /// Claims the next attempt. Workers stop claiming the moment a
    /// fatal failure is recorded.
    fn next_work(&self) -> Work {
        let mut st = lock(&self.state);
        if st.fatal.is_some() || st.remaining == 0 {
            return Work::Exit;
        }
        if let Some(task) = st.queue.pop_front() {
            let node = self.pick_node(&st, task);
            let ts = &mut st.tasks[task];
            let attempt = ts.attempts;
            ts.attempts += 1;
            ts.running += 1;
            ts.active_nodes.push(node);
            if ts.first_started.is_none() {
                ts.first_started = Some(Instant::now());
            }
            st.stats.attempts += 1;
            return Work::Run {
                task,
                attempt,
                node,
                speculative: false,
            };
        }
        if self.opts.speculative_execution {
            let threshold = Duration::from_millis(self.opts.speculation_threshold_ms);
            let now = Instant::now();
            for task in 0..st.tasks.len() {
                let ts = &st.tasks[task];
                let straggling = ts
                    .first_started
                    .is_some_and(|t0| now.duration_since(t0) >= threshold);
                if !ts.done
                    && ts.running > 0
                    && !ts.speculated
                    && ts.attempts < self.opts.max_task_attempts
                    && straggling
                {
                    let node = self.pick_node(&st, task);
                    let ts = &mut st.tasks[task];
                    let attempt = ts.attempts;
                    ts.attempts += 1;
                    ts.running += 1;
                    ts.active_nodes.push(node);
                    ts.speculated = true;
                    st.stats.attempts += 1;
                    st.stats.speculative_launched += 1;
                    sh_trace::events::emit(
                        "task.speculative.launched",
                        vec![
                            ("phase", self.phase.to_string()),
                            ("task", task.to_string()),
                            ("node", node.to_string()),
                        ],
                    );
                    return Work::Run {
                        task,
                        attempt,
                        node,
                        speculative: true,
                    };
                }
            }
        }
        Work::Wait
    }

    /// Node choice for an attempt: the scheduled node, then another live
    /// replica holder (data-local retry), then any live node (remote
    /// read) — always skipping blacklisted nodes, nodes this task
    /// already failed on, and nodes already running this task. With the
    /// whole cluster dead the scheduled node is returned so the DFS
    /// error surfaces naturally.
    fn pick_node(&self, st: &WaveState, task: usize) -> usize {
        let ts = &st.tasks[task];
        let excluded = |n: usize| {
            st.blacklist.contains(&n)
                || ts.failed_nodes.contains(&n)
                || ts.active_nodes.contains(&n)
        };
        let assigned = self.assignments[task];
        // A task's first attempt runs where it was scheduled even if the
        // node has died since (the scheduler only learns of the death
        // from the failed attempt, as from a missed heartbeat) — unless
        // a sibling task's failure already blacklisted the node.
        if ts.attempts == 0 && !st.blacklist.contains(&assigned) {
            return assigned;
        }
        if self.dfs.node_alive(assigned) && !excluded(assigned) {
            return assigned;
        }
        if let Some(&n) = self.replicas[task]
            .iter()
            .find(|&&n| self.dfs.node_alive(n) && !excluded(n))
        {
            return n;
        }
        let live = self.dfs.live_nodes();
        if let Some(&n) = live.iter().find(|&&n| !excluded(n)) {
            return n;
        }
        live.first().copied().unwrap_or(assigned)
    }

    fn execute<F>(&self, task: usize, attempt: usize, node: usize, speculative: bool, run_task: &F)
    where
        F: Fn(usize, usize) -> Result<T, JobError> + Sync,
    {
        let span = self
            .wave_span
            .child(format!("{}-{task}/attempt-{attempt}", self.phase));
        span.attr("node", node);
        if speculative {
            span.attr("speculative", true);
        }
        // Deterministic backoff before re-attempts: attempt `a` waits
        // `a * backoff` (speculative backups start immediately). The
        // backoff is queueing, not work — it runs before the slot lease
        // so a backing-off retry doesn't occupy cluster capacity.
        if attempt > 0 && !speculative && self.opts.retry_backoff_ms > 0 {
            std::thread::sleep(Duration::from_millis(
                self.opts.retry_backoff_ms.saturating_mul(attempt as u64),
            ));
        }
        // Every attempt — first runs, retries, speculative backups —
        // executes under a lease from the cluster-wide slot pool, so N
        // concurrent jobs never run more attempts than the cluster has
        // slots. A straggler serves its injected delay holding its slot
        // (a slow node's slot is busy, not free).
        let slot = self.dfs.slots().acquire();
        // Injected straggler delay, in cancellable slices: when the
        // speculative backup wins meanwhile, the delayed loser aborts
        // instead of sleeping out its full handicap.
        let mut cancelled = false;
        if let Some(delay) = self.plan.and_then(|p| p.delay_for(task, attempt)) {
            let deadline = Instant::now() + delay;
            loop {
                if lock(&self.state).tasks[task].done {
                    cancelled = true;
                    break;
                }
                let now = Instant::now();
                if now >= deadline {
                    break;
                }
                std::thread::sleep((deadline - now).min(Duration::from_millis(5)));
            }
        }
        let verdict: Option<Result<T, JobError>> = if cancelled {
            span.attr("cancelled", true);
            None
        } else if self.plan.is_some_and(|p| p.should_fail(task, attempt)) {
            Some(Err(JobError::TaskFailed(format!(
                "injected fault: {}-{task}/attempt-{attempt}",
                self.phase
            ))))
        } else if !self.dfs.node_alive(node) && !self.dfs.live_nodes().is_empty() {
            // The attempt's node died while the cluster is otherwise
            // up: the task dies with it and reschedules elsewhere.
            Some(Err(JobError::TaskFailed(format!(
                "{}-{task}/attempt-{attempt}: node {node} lost",
                self.phase
            ))))
        } else {
            // Hadoop semantics: a panicking task fails the attempt (and
            // eventually the job), never the process. A typed
            // `CorruptInput` payload is a data error, not a crash — it
            // becomes `JobError::CorruptInput` and skips retries.
            let attempt_result =
                std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| run_task(task, node)));
            Some(attempt_result.unwrap_or_else(|panic| {
                match panic.downcast::<crate::job::CorruptInput>() {
                    Ok(corrupt) => Err(JobError::CorruptInput(format!(
                        "{}-{task}/attempt-{attempt}: {}",
                        self.phase, corrupt.0
                    ))),
                    Err(panic) => Err(JobError::TaskFailed(format!(
                        "{}-{task}/attempt-{attempt}: {}",
                        self.phase,
                        panic_message(&panic)
                    ))),
                }
            }))
        };
        span.finish();
        // Release the slot before settling: settle is pure bookkeeping
        // and the freed slot may unblock another job's attempt.
        drop(slot);
        self.settle(task, node, speculative, verdict, span.elapsed());
    }

    /// Records an attempt's outcome; called exactly once per attempt.
    fn settle(
        &self,
        task: usize,
        node: usize,
        speculative: bool,
        verdict: Option<Result<T, JobError>>,
        elapsed: Duration,
    ) {
        let mut blacklisted_now = false;
        {
            let mut st = lock(&self.state);
            {
                let ts = &mut st.tasks[task];
                ts.running -= 1;
                ts.active_nodes.retain(|&n| n != node);
            }
            match verdict {
                Some(Ok(result)) if !st.tasks[task].done => {
                    st.tasks[task].done = true;
                    st.remaining -= 1;
                    if speculative {
                        st.stats.speculative_won += 1;
                        sh_trace::events::emit(
                            "task.speculative.won",
                            vec![
                                ("phase", self.phase.to_string()),
                                ("task", task.to_string()),
                                ("node", node.to_string()),
                            ],
                        );
                    }
                    lock(&self.results)[task] = Some(result);
                    // Only the winning attempt shapes the duration
                    // histogram: one entry per task.
                    let micros = elapsed.as_micros() as u64;
                    lock(&self.task_micros).observe(micros);
                }
                Some(Err(e)) if !st.tasks[task].done => {
                    st.tasks[task].failed_nodes.push(node);
                    let failures = st.node_failures.entry(node).or_insert(0);
                    *failures += 1;
                    if *failures >= self.opts.node_blacklist_threshold as u64
                        && !st.blacklist.contains(&node)
                    {
                        st.blacklist.push(node);
                        st.stats.nodes_blacklisted += 1;
                        blacklisted_now = true;
                        let node_failures = st.node_failures.get(&node).copied().unwrap_or(0);
                        sh_trace::events::emit(
                            "node.blacklist",
                            vec![
                                ("phase", self.phase.to_string()),
                                ("node", node.to_string()),
                                ("failures", node_failures.to_string()),
                            ],
                        );
                    }
                    let ts = &st.tasks[task];
                    let attempts = ts.attempts;
                    if matches!(e, JobError::CorruptInput(_)) {
                        // Deterministic data error: re-reading the same
                        // corrupt bytes cannot succeed, so retrying only
                        // burns attempts. Fail the job now (first error
                        // wins).
                        if st.fatal.is_none() {
                            st.fatal = Some(e);
                        }
                    } else if attempts < self.opts.max_task_attempts {
                        st.stats.retries += 1;
                        st.queue.push_back(task);
                        sh_trace::events::emit(
                            "task.retry",
                            vec![
                                ("phase", self.phase.to_string()),
                                ("task", task.to_string()),
                                ("node", node.to_string()),
                                ("attempt", attempts.to_string()),
                            ],
                        );
                    } else if ts.running == 0 {
                        // Attempt budget exhausted with nothing in
                        // flight: the job fails. Keep the FIRST
                        // error; workers stop claiming.
                        if st.fatal.is_none() {
                            st.fatal = Some(e);
                        }
                    }
                    // Otherwise a sibling attempt is still running
                    // and gets to decide the task's fate.
                }
                // Cancelled loser of a speculative race (`None`), or a
                // late finisher of an already-won task: not a failure.
                _ => {}
            }
            self.cv.notify_all();
        }
        if blacklisted_now {
            // A node the scheduler gave up on is likely dead: ask the
            // namenode to restore the replication factor so retries
            // find live replicas (no-op for healthy nodes).
            let created = self.dfs.rereplicate();
            self.wave_span.attr("rereplicated_blocks", created);
            sh_trace::global().counter_add("job.rereplicated.blocks", created as u64);
        }
    }
}

/// Worker-thread count for a wave: the cluster's global slot-pool size,
/// never more than the task count — plus one slot of headroom for
/// speculative backups. Threads beyond the pool would only block on
/// slot leases, so there is no point spawning them; attempts themselves
/// are additionally capped by the shared pool at execution time.
fn wave_threads(dfs: &Dfs, opts: &FtOptions, n_tasks: usize) -> usize {
    let pool = dfs.slots().total().max(1);
    let headroom = usize::from(opts.speculative_execution);
    pool.min(n_tasks.saturating_add(headroom).max(1))
}

/// Runs a configured job (called from [`Job::run`]).
pub(crate) fn run<M, R>(job: Job<M, R>) -> Result<JobOutcome, JobError>
where
    M: Mapper,
    R: Reducer<K = M::K, V = M::V>,
{
    let start = Instant::now();
    let dfs = job.dfs.clone();
    let cfg = dfs.config().clone();
    let opts = dfs.ft_options();
    let counters = Counters::new();
    let span = Span::root(format!("job:{}", job.name));
    span.attr("splits", job.splits.len());
    span.attr(
        "reducers",
        job.reducer.as_ref().map(|_| job.num_reducers).unwrap_or(0),
    );
    sh_trace::events::emit(
        "job.started",
        vec![
            ("job", job.name.clone()),
            ("splits", job.splits.len().to_string()),
        ],
    );

    // ---- schedule: assign each split to a live node, locality first ---
    let assignments = assign_nodes(&job, cfg.num_nodes);

    // ---- wave boundary: injected node kills strike here --------------
    // (after scheduling, before the first attempt runs — tasks placed
    // on a killed node must fail over to replica holders).
    for node in opts.fault_plan.nodes_to_kill() {
        dfs.kill_node(node);
        span.attr("injected_node_kill", node);
    }
    // Silent replica corruption strikes at the same boundary: the rotten
    // bytes sit there undetected until a map task's read checksums them.
    for (path, replica, kind) in opts.fault_plan.corruptions() {
        let hit = dfs.corrupt_replica(&path, replica, kind);
        span.attr(
            "injected_corruption",
            format!("{kind}:{path}@{replica}x{hit}"),
        );
    }

    // ---- map phase ----------------------------------------------------
    let n_tasks = job.splits.len();
    let map_span = span.child("map-wave");
    map_span.attr("tasks", n_tasks);
    let mut ft = FtStats::default();
    let replicas: Vec<Vec<usize>> = job
        .splits
        .iter()
        .map(|s| s.preferred_nodes().to_vec())
        .collect();
    let (mut map_results, map_ft, map_task_micros) = if n_tasks > 0 {
        let runner: WaveRunner<'_, MapTaskResult<M::K, M::V>> = WaveRunner::new(
            &dfs,
            &opts,
            Some(&opts.fault_plan),
            &map_span,
            "map",
            &assignments,
            replicas,
        );
        let outcome = runner.run(wave_threads(&dfs, &opts, n_tasks), |task, node| {
            run_map_task(&job, task, node).map_err(JobError::Dfs)
        });
        map_span.finish();
        outcome?
    } else {
        map_span.finish();
        (Vec::new(), FtStats::default(), Histogram::new())
    };
    ft.absorb(map_ft);

    // ---- map-side final output (map-only jobs & early flush) ----------
    let mut fold = TaskFold {
        counters: &counters,
        outputs: Vec::new(),
        side: BTreeMap::new(),
    };
    for res in map_results.iter_mut() {
        let out = std::mem::replace(&mut res.out, TaskOutput::new());
        fold.task("output.map.bytes", out, &mut res.cost);
        counters.inc_static("map.input.bytes.local", res.cost.local_bytes);
        counters.inc_static("map.input.bytes.remote", res.cost.remote_bytes);
    }
    counters.inc_static("map.tasks", n_tasks as u64);

    let map_costs: Vec<TaskCost> = map_results.iter().map(|r| r.cost).collect();
    let startup = PhaseProfile {
        sim_seconds: cfg.job_startup_overhead,
        ..PhaseProfile::new("startup")
    };
    let map = PhaseProfile {
        sim_seconds: makespan(&map_costs, &cfg, &opts, cfg.map_slots_per_node),
        tasks: n_tasks as u64,
        task_micros: map_task_micros,
        ..PhaseProfile::new("map")
    };

    // ---- shuffle -------------------------------------------------------
    let mut shuffle = PhaseProfile::new("shuffle");
    let mut reduce = PhaseProfile::new("reduce");
    let (mut shuffle_pairs, mut shuffle_bytes) = (0u64, 0u64);
    if let Some(reducer) = &job.reducer {
        let shuffle_span = span.child("shuffle");
        let r = job.num_reducers;
        // Pairs were hashed into per-reducer buckets at emit time inside
        // the (parallel) map tasks; the shuffle is now a bucket-wise
        // concatenation in task order — same order the per-pair
        // redistribution pass used to produce.
        let mut buckets: Vec<Vec<(M::K, M::V)>> = (0..r).map(|_| Vec::new()).collect();
        for res in map_results.iter_mut() {
            shuffle_pairs += res.shuffle_pairs;
            shuffle_bytes += res.shuffle_bytes;
            for (b, bucket) in res.buckets.drain(..).enumerate() {
                buckets[b].extend(bucket);
            }
        }
        counters.inc_static("shuffle.pairs", shuffle_pairs);
        counters.inc_static("shuffle.bytes", shuffle_bytes);
        shuffle.sim_seconds = shuffle_time(shuffle_bytes, &cfg);
        shuffle_span.attr("pairs", shuffle_pairs);
        shuffle_span.attr("bytes", shuffle_bytes);
        shuffle_span.finish();

        // ---- reduce phase ---------------------------------------------
        let reduce_span = span.child("reduce-wave");
        reduce_span.attr("tasks", r);
        // Reduce tasks are scheduled round-robin over *live* nodes: by
        // reduce time the scheduler has heard which nodes died during
        // the map wave (dead-cluster fallback keeps the error path).
        let live_nodes = {
            let live = dfs.live_nodes();
            if live.is_empty() {
                (0..cfg.num_nodes.max(1)).collect()
            } else {
                live
            }
        };
        let reduce_assignments: Vec<usize> =
            (0..r).map(|i| live_nodes[i % live_nodes.len()]).collect();
        let buckets_ref = &buckets;
        // Reduce retries reuse the wave machinery; fault injection and
        // replica-directed rescheduling only apply to map waves.
        let runner: WaveRunner<'_, (TaskCost, TaskOutput)> = WaveRunner::new(
            &dfs,
            &opts,
            None,
            &reduce_span,
            "reduce",
            &reduce_assignments,
            vec![Vec::new(); r],
        );
        let outcome = runner.run(wave_threads(&dfs, &opts, r), |task, _node| {
            Ok(run_reduce_task::<M, R>(
                reducer,
                &buckets_ref[task],
                task,
                &cfg,
            ))
        });
        reduce_span.finish();
        let (reduce_results, reduce_ft, micros) = outcome?;
        ft.absorb(reduce_ft);
        reduce.task_micros = micros;

        let mut reduce_costs: Vec<TaskCost> = Vec::with_capacity(r);
        for (mut cost, out) in reduce_results {
            fold.task("output.reduce.bytes", out, &mut cost);
            reduce_costs.push(cost);
        }
        reduce.sim_seconds = makespan(&reduce_costs, &cfg, &opts, cfg.reduce_slots_per_node);
        reduce.tasks = reduce_costs.len() as u64;
        counters.inc_static("reduce.tasks", reduce.tasks);
    }

    let profile = JobProfile {
        phases: vec![startup, map, shuffle, reduce],
        dfs_local_bytes: map_costs.iter().map(|c| c.local_bytes).sum(),
        dfs_remote_bytes: map_costs.iter().map(|c| c.remote_bytes).sum(),
        shuffle_pairs,
        shuffle_bytes,
        ..JobProfile::new(job.name)
    };
    Ok(finish(start, profile, ft, fold, &span))
}

/// Closes a job's record once its waves are done: adds its fault
/// tallies, final counters, bytes written, span tree and wall time (the
/// one clock read) to `profile`, and rolls it into the process-lifetime
/// totals. Not generic, so it is compiled once rather than per job type.
fn finish(
    start: Instant,
    mut profile: JobProfile,
    ft: FtStats,
    fold: TaskFold<'_>,
    span: &Span,
) -> JobOutcome {
    let counters = fold.counters;
    counters.inc_static("task.retries", ft.retries);
    counters.inc_static("task.speculative.launched", ft.speculative_launched);
    counters.inc_static("task.speculative.won", ft.speculative_won);
    counters.inc_static("nodes.blacklisted", ft.nodes_blacklisted);
    span.attr("task_retries", ft.retries);
    span.attr("speculative_launched", ft.speculative_launched);
    span.attr("nodes_blacklisted", ft.nodes_blacklisted);
    span.finish();

    profile.counters = counters.snapshot();
    let written = |k: &str| profile.counters.get(k).copied().unwrap_or(0);
    profile.dfs_bytes_written =
        written("output.map.bytes") + written("output.reduce.bytes") + written("output.side.bytes");
    profile.task_retries = ft.retries;
    profile.speculative_launched = ft.speculative_launched;
    profile.speculative_won = ft.speculative_won;
    profile.nodes_blacklisted = ft.nodes_blacklisted;
    profile.spans = Some(span.record());
    profile.wall = start.elapsed();
    record_totals(&profile);
    JobOutcome {
        rows: Rows::from_text(fold.outputs.concat()),
        side: fold.side,
        profile,
    }
}

/// Rolls a finished job's profile into the process-lifetime totals of
/// the global trace registry (`job.*` keys) and the event journal.
fn record_totals(p: &JobProfile) {
    let registry = sh_trace::global();
    let wall_micros = p.wall.as_micros() as u64;
    registry.counter_add("job.completed", 1);
    registry.counter_add("job.map.tasks", p.phase_tasks("map"));
    registry.counter_add("job.reduce.tasks", p.phase_tasks("reduce"));
    registry.counter_add("job.shuffle.pairs", p.shuffle_pairs);
    registry.counter_add("job.shuffle.bytes", p.shuffle_bytes);
    registry.counter_add("job.task_retries", p.task_retries);
    registry.counter_add("job.speculative_launched", p.speculative_launched);
    registry.counter_add("job.speculative_won", p.speculative_won);
    registry.counter_add("job.nodes_blacklisted", p.nodes_blacklisted);
    registry.observe("job.wall.micros", wall_micros);
    for (key, phase) in [
        ("job.map.task.micros", "map"),
        ("job.reduce.task.micros", "reduce"),
    ] {
        if let Some(phase) = p.phase(phase) {
            registry.observe_histogram(key, &phase.task_micros);
        }
    }
    sh_trace::events::emit(
        "job.finished",
        vec![
            ("job", p.job.clone()),
            ("wall_micros", wall_micros.to_string()),
            ("retries", p.task_retries.to_string()),
        ],
    );
}

/// Locality-aware greedy assignment of splits to nodes: each split goes
/// to its least-loaded *live* replica holder; load is balanced in bytes.
/// Dead nodes are skipped at schedule time (the namenode knows the
/// heartbeat state); nodes that die later are handled by attempt
/// rescheduling.
fn assign_nodes<M: Mapper, R: Reducer<K = M::K, V = M::V>>(
    job: &Job<M, R>,
    num_nodes: usize,
) -> Vec<usize> {
    let alive: Vec<bool> = (0..num_nodes.max(1))
        .map(|n| job.dfs.node_alive(n))
        .collect();
    let any_alive = alive.iter().any(|&a| a);
    let usable = |n: usize| !any_alive || alive.get(n).copied().unwrap_or(false);
    let mut load = vec![0u64; num_nodes.max(1)];
    let mut order: Vec<usize> = (0..job.splits.len()).collect();
    // Place big splits first (LPT-style) for better balance.
    order.sort_by_key(|&i| std::cmp::Reverse(job.splits[i].len()));
    let locality = job.dfs.config().locality_scheduling;
    let mut assignment = vec![0usize; job.splits.len()];
    for i in order {
        let split = &job.splits[i];
        let preferred = split.preferred_nodes();
        let fallback = |load: &[u64]| {
            (0..load.len())
                .filter(|&n| usable(n))
                .min_by_key(|&n| load[n])
                .unwrap_or(0)
        };
        let node = if locality {
            preferred
                .iter()
                .copied()
                .map(|n| n % load.len())
                .filter(|&n| usable(n))
                .min_by_key(|&n| load[n])
                .unwrap_or_else(|| fallback(&load))
        } else {
            // Locality-blind: pure load balancing, ignoring replicas.
            fallback(&load)
        };
        let node = node % load.len();
        load[node] += split.len().max(1);
        assignment[i] = node;
    }
    assignment
}

fn run_map_task<M, R>(
    job: &Job<M, R>,
    task: usize,
    node: usize,
) -> Result<MapTaskResult<M::K, M::V>, DfsError>
where
    M: Mapper,
    R: Reducer<K = M::K, V = M::V>,
{
    let split = &job.splits[task];
    let num_reducers = if job.reducer.is_some() {
        job.num_reducers
    } else {
        0
    };
    let mut ctx = MapContext::new(num_reducers);
    // The mapper pulls the blocks it needs; the ones it leaves are still
    // charged when the task ends (`SplitInput::charge`).
    let mut input = SplitInput::new(&job.dfs, split, node);
    let t0 = Instant::now();
    job.mapper.map_split(split, &mut input, &mut ctx)?;
    let mut buckets = ctx.buckets;
    if let Some(combiner) = &job.combiner {
        // Every pair of a key hashes to one bucket, so combining per
        // bucket sees exactly the key groups the whole-task combine saw.
        for bucket in buckets.iter_mut() {
            let pairs = std::mem::take(bucket);
            *bucket = apply_combiner(pairs, combiner);
        }
    }
    let compute = t0.elapsed().saturating_sub(input.read_time).as_secs_f64();
    let (local, remote) = input.charge();
    let mut shuffle_pairs = 0u64;
    let mut shuffle_bytes = 0u64;
    if job.reducer.is_some() {
        for (k, v) in buckets.iter().flatten() {
            shuffle_pairs += 1;
            shuffle_bytes += (job.pair_size)(k, v) as u64;
        }
    }
    Ok(MapTaskResult {
        cost: TaskCost {
            node,
            local_bytes: local,
            remote_bytes: remote,
            output_bytes: 0,
            compute_seconds: compute,
        },
        buckets,
        shuffle_pairs,
        shuffle_bytes,
        out: ctx.task,
    })
}

fn apply_combiner<K: Clone + Ord + Hash + Send, V: Clone + Send>(
    mut pairs: Vec<(K, V)>,
    combiner: &crate::job::CombinerFn<K, V>,
) -> Vec<(K, V)> {
    pairs.sort_by(|a, b| a.0.cmp(&b.0));
    let mut out: Vec<(K, V)> = Vec::new();
    let mut i = 0;
    while i < pairs.len() {
        let mut j = i + 1;
        while j < pairs.len() && pairs[j].0 == pairs[i].0 {
            j += 1;
        }
        let key = pairs[i].0.clone();
        let values: Vec<V> = pairs[i..j].iter().map(|(_, v)| v.clone()).collect();
        for v in combiner(&key, values) {
            out.push((key.clone(), v));
        }
        i = j;
    }
    out
}

fn run_reduce_task<M, R>(
    reducer: &R,
    bucket: &[(M::K, M::V)],
    task: usize,
    cfg: &sh_dfs::ClusterConfig,
) -> (TaskCost, TaskOutput)
where
    M: Mapper,
    R: Reducer<K = M::K, V = M::V>,
{
    let node = task % cfg.num_nodes.max(1);
    // Sort/group phase over references: the stable sort keeps map-task
    // emission order within a key, so results are deterministic, and the
    // bucket itself stays borrowed, so a retried attempt sees it again.
    // Each value is cloned once, into the `Vec` its `reduce` call owns.
    let mut pairs: Vec<&(M::K, M::V)> = bucket.iter().collect();
    let t0 = Instant::now();
    pairs.sort_by(|a, b| a.0.cmp(&b.0));
    let mut ctx = ReduceContext::new();
    for group in pairs.chunk_by(|a, b| a.0 == b.0) {
        let values: Vec<M::V> = group.iter().map(|(_, v)| v.clone()).collect();
        reducer.reduce(&group[0].0, values, &mut ctx);
    }
    let compute = t0.elapsed().as_secs_f64();
    let cost = TaskCost {
        node,
        local_bytes: 0,
        remote_bytes: 0,
        output_bytes: 0,
        compute_seconds: compute,
    };
    (cost, ctx)
}

/// Best-effort extraction of a panic payload message.
fn panic_message(panic: &Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = panic.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = panic.downcast_ref::<String>() {
        s.clone()
    } else {
        "panic with non-string payload".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::{text, JobBuilder};
    use crate::split::InputSplit;
    use sh_dfs::ClusterConfig;

    struct CountMapper;
    impl Mapper for CountMapper {
        type K = String;
        type V = u64;
        fn map_bytes(&self, s: &InputSplit, data: &[u8], ctx: &mut MapContext<String, u64>) {
            let data = text(s, data);
            for token in data.split_whitespace() {
                ctx.emit(token.to_string(), 1);
            }
            ctx.counter("user.records", data.lines().count() as u64);
        }
    }

    struct SumReducer;
    impl Reducer for SumReducer {
        type K = String;
        type V = u64;
        fn reduce(&self, k: &String, vs: Vec<u64>, ctx: &mut ReduceContext) {
            ctx.output(&format!("{k} {}", vs.iter().sum::<u64>()));
        }
    }

    fn dfs() -> Dfs {
        Dfs::new(ClusterConfig::small_for_tests())
    }

    fn lines(outcome: &JobOutcome) -> Vec<String> {
        outcome.rows.lines().map(str::to_string).collect()
    }

    fn wordcount_input(fs: &Dfs, lines: usize) {
        let mut w = fs.create("/in").unwrap();
        for i in 0..lines {
            w.write_line(&format!("w{} common", i % 10));
        }
        w.close().unwrap();
    }

    #[test]
    fn wordcount_end_to_end() {
        let fs = dfs();
        wordcount_input(&fs, 5000); // multiple blocks
        let outcome = JobBuilder::new(&fs, "wc")
            .input_file("/in")
            .unwrap()
            .mapper(CountMapper)
            .reducer(SumReducer, 3)
            .build()
            .unwrap()
            .run()
            .unwrap();
        assert!(outcome.map_tasks() > 1, "expected multiple splits");
        assert_eq!(outcome.profile.phase_tasks("reduce"), 3);
        let mut lines = lines(&outcome);
        lines.sort();
        assert_eq!(lines.len(), 11); // w0..w9 + common
        assert!(lines.contains(&"common 5000".to_string()));
        assert!(lines.contains(&"w0 500".to_string()));
        assert_eq!(outcome.rows.len(), 11);
        assert_eq!(outcome.profile.counters["user.records"], 5000);
        assert_eq!(outcome.profile.counters["shuffle.pairs"], 10_000);
        assert!(outcome.profile.sim_seconds() > 0.0);
        // Fault-free run: no retries, nothing blacklisted.
        assert_eq!(outcome.profile.task_retries, 0);
        assert_eq!(outcome.profile.nodes_blacklisted, 0);
    }

    #[test]
    fn combiner_reduces_shuffle_volume() {
        let fs = dfs();
        wordcount_input(&fs, 5000);
        let without = JobBuilder::new(&fs, "wc")
            .input_file("/in")
            .unwrap()
            .mapper(CountMapper)
            .reducer(SumReducer, 2)
            .build()
            .unwrap()
            .run()
            .unwrap();
        let with = JobBuilder::new(&fs, "wc-comb")
            .input_file("/in")
            .unwrap()
            .mapper(CountMapper)
            .combiner(|_k, vs: Vec<u64>| vec![vs.iter().sum()])
            .reducer(SumReducer, 2)
            .build()
            .unwrap()
            .run()
            .unwrap();
        assert!(with.profile.counters["shuffle.pairs"] < without.profile.counters["shuffle.pairs"]);
        let mut a = lines(&without);
        let mut b = lines(&with);
        a.sort();
        b.sort();
        assert_eq!(a, b, "combiner must not change results");
    }

    struct PassthroughMapper;
    impl Mapper for PassthroughMapper {
        type K = u32;
        type V = u32;
        fn map_bytes(&self, split: &InputSplit, data: &[u8], ctx: &mut MapContext<u32, u32>) {
            for line in text(split, data).lines() {
                ctx.output(&format!("{}:{}", split.tag, line));
            }
        }
    }

    #[test]
    fn map_only_job_writes_map_output() {
        let fs = dfs();
        fs.write_string("/in", "a\nb\n").unwrap();
        let outcome = JobBuilder::new(&fs, "identity")
            .input_file("/in")
            .unwrap()
            .mapper(PassthroughMapper)
            .map_only()
            .unwrap()
            .run()
            .unwrap();
        assert_eq!(outcome.profile.phase_tasks("reduce"), 0);
        let mut lines = lines(&outcome);
        lines.sort();
        assert_eq!(lines, vec!["0:a", "0:b"]);
    }

    #[test]
    fn deterministic_across_runs() {
        let run_once = || {
            let fs = dfs();
            wordcount_input(&fs, 3000);
            let outcome = JobBuilder::new(&fs, "wc")
                .input_file("/in")
                .unwrap()
                .mapper(CountMapper)
                .reducer(SumReducer, 4)
                .build()
                .unwrap()
                .run()
                .unwrap();
            lines(&outcome)
        };
        assert_eq!(run_once(), run_once());
    }

    #[test]
    fn input_byte_accounting_balances() {
        let fs = dfs();
        wordcount_input(&fs, 4000);
        let file_len = fs.stat("/in").unwrap().len;
        let outcome = JobBuilder::new(&fs, "account")
            .input_file("/in")
            .unwrap()
            .mapper(CountMapper)
            .reducer(SumReducer, 2)
            .build()
            .unwrap()
            .run()
            .unwrap();
        // A full scan reads every input byte exactly once (local +
        // remote partition of the same total).
        assert_eq!(
            outcome.profile.counters["map.input.bytes.local"]
                + outcome.profile.counters["map.input.bytes.remote"],
            file_len
        );
        // Shuffle pairs equal total tokens (2 per line).
        assert_eq!(outcome.profile.counters["shuffle.pairs"], 8000);
    }

    /// Reports each split's length: read from its bytes when cold, from
    /// the split metadata alone when `warm` (a stand-in for a cache hit).
    struct SplitLen {
        warm: bool,
    }
    impl Mapper for SplitLen {
        type K = u8;
        type V = u8;
        fn map_split(
            &self,
            s: &InputSplit,
            input: &mut SplitInput<'_>,
            ctx: &mut MapContext<u8, u8>,
        ) -> Result<(), DfsError> {
            let len = if self.warm {
                s.len()
            } else {
                input.all()?.iter().map(|b| b.len() as u64).sum()
            };
            ctx.output(&format!("{}@{} {len}", s.path, s.blocks[0].id.0));
            Ok(())
        }
    }

    #[test]
    fn a_task_answered_from_memory_reads_nothing_and_costs_the_same() {
        let fs = dfs();
        wordcount_input(&fs, 4000);
        let run = |warm: bool| {
            let before = fs.metrics().snapshot();
            let outcome = JobBuilder::new(&fs, "memo")
                .input_file("/in")
                .unwrap()
                .mapper(SplitLen { warm })
                .map_only()
                .unwrap()
                .run()
                .unwrap();
            let blocks_read = fs.metrics().snapshot().since(&before).blocks_read;
            (outcome, blocks_read)
        };
        let (cold, cold_blocks) = run(false);
        let (warm, warm_blocks) = run(true);
        assert!(cold.map_tasks() > 1, "expected multiple splits");
        assert_eq!(cold_blocks, cold.map_tasks() as u64, "one block per split");
        assert_eq!(warm_blocks, 0, "a cached task reads no block");
        assert_eq!(warm.rows, cold.rows);
        // Same placement, same charge: local and remote bytes both match
        // what the cold reads reported, so simulated time does not move.
        for key in ["map.input.bytes.local", "map.input.bytes.remote"] {
            assert_eq!(
                warm.profile.counters[key], cold.profile.counters[key],
                "{key}"
            );
        }
        assert_eq!(
            warm.profile.dfs_local_bytes + warm.profile.dfs_remote_bytes,
            fs.stat("/in").unwrap().len
        );
    }

    /// Asks for block 1 of its split twice and never for block 0. Its
    /// first call kills every holder of block 1 before the read; later
    /// calls revive them.
    struct SecondBlockTwice {
        dfs: Dfs,
        calls: std::sync::atomic::AtomicUsize,
    }
    impl Mapper for SecondBlockTwice {
        type K = u8;
        type V = u8;
        fn map_split(
            &self,
            s: &InputSplit,
            input: &mut SplitInput<'_>,
            ctx: &mut MapContext<u8, u8>,
        ) -> Result<(), DfsError> {
            let first = self.calls.fetch_add(1, std::sync::atomic::Ordering::SeqCst) == 0;
            for &n in &s.blocks[1].replicas {
                if first {
                    self.dfs.kill_node(n);
                } else {
                    self.dfs.revive_node(n);
                }
            }
            let (once, twice) = (input.block(1)?, input.block(1)?);
            assert!(std::sync::Arc::ptr_eq(&once, &twice));
            ctx.output(&once.len().to_string());
            Ok(())
        }
    }

    #[test]
    fn a_split_handle_reads_a_block_once_and_the_task_is_charged_its_whole_split() {
        let fs = chaos_dfs(ClusterConfig::small_for_tests(), |_| {});
        fs.write_string("/in", &"x y\n".repeat(5000)).unwrap();
        let split = InputSplit::whole_file(&fs, "/in").unwrap();
        assert!(split.blocks.len() > 2);
        let run = |attempts: usize| {
            fs.update_ft_options(|ft| ft.max_task_attempts = attempts);
            let before = fs.metrics().snapshot();
            let outcome = JobBuilder::new(&fs, "second-block")
                .input_splits(vec![split.clone()])
                .mapper(SecondBlockTwice {
                    dfs: fs.clone(),
                    calls: Default::default(),
                })
                .map_only()
                .unwrap()
                .run();
            (outcome, fs.metrics().snapshot().since(&before).blocks_read)
        };
        // The read on the killed holders fails the attempt with the DFS's
        // own error, not a panic: with one attempt, that is the job's.
        let (failed, _) = run(1);
        assert!(
            matches!(failed, Err(JobError::Dfs(DfsError::BlockUnavailable(_)))),
            "{failed:?}"
        );
        for &n in &split.blocks[1].replicas {
            fs.revive_node(n);
        }
        // With two, the failed attempt is retried elsewhere; the retry
        // reads block 1 once and the task is charged every block.
        let (outcome, blocks_read) = run(2);
        let outcome = outcome.unwrap();
        assert_eq!(outcome.profile.task_retries, 1);
        assert_eq!(blocks_read, 1);
        assert_eq!(lines(&outcome), [split.blocks[1].len.to_string()]);
        let counters = &outcome.profile.counters;
        assert_eq!(
            counters["map.input.bytes.local"] + counters["map.input.bytes.remote"],
            split.len()
        );
        assert_eq!(
            outcome.profile.dfs_local_bytes + outcome.profile.dfs_remote_bytes,
            split.len()
        );
    }

    #[test]
    fn concurrent_jobs_on_one_dfs_are_safe() {
        let fs = dfs();
        wordcount_input(&fs, 2000);
        let run = || {
            JobBuilder::new(&fs, "concurrent")
                .input_file("/in")
                .unwrap()
                .mapper(CountMapper)
                .reducer(SumReducer, 2)
                .build()
                .unwrap()
                .run()
                .unwrap()
        };
        let (a, b) = std::thread::scope(|scope| {
            let ha = scope.spawn(run);
            let hb = scope.spawn(run);
            (ha.join().unwrap(), hb.join().unwrap())
        });
        let mut la = lines(&a);
        let mut lb = lines(&b);
        la.sort();
        lb.sort();
        assert_eq!(la, lb);
        assert!(la.contains(&"common 2000".to_string()));
    }

    #[test]
    fn missing_input_is_an_error() {
        let fs = dfs();
        assert!(matches!(
            JobBuilder::<CountMapper>::new(&fs, "x").input_file("/nope"),
            Err(JobError::Config(_)) | Err(JobError::Dfs(_))
        ));
    }

    #[test]
    fn zero_reducers_rejected() {
        let fs = dfs();
        fs.write_string("/in", "a\n").unwrap();
        let err = JobBuilder::new(&fs, "x")
            .input_file("/in")
            .unwrap()
            .mapper(CountMapper)
            .reducer(SumReducer, 0)
            .build();
        assert!(matches!(err, Err(JobError::Config(_))));
    }

    #[test]
    fn sim_time_includes_startup_and_scales_with_input() {
        let fs = dfs();
        wordcount_input(&fs, 500);
        let small = JobBuilder::new(&fs, "s")
            .input_file("/in")
            .unwrap()
            .mapper(CountMapper)
            .reducer(SumReducer, 1)
            .build()
            .unwrap()
            .run()
            .unwrap();
        let fs2 = dfs();
        wordcount_input(&fs2, 50_000);
        let big = JobBuilder::new(&fs2, "b")
            .input_file("/in")
            .unwrap()
            .mapper(CountMapper)
            .reducer(SumReducer, 1)
            .build()
            .unwrap()
            .run()
            .unwrap();
        let cfg = ClusterConfig::small_for_tests();
        assert!(small.profile.phase_seconds("startup") == cfg.job_startup_overhead);
        assert!(big.profile.sim_seconds() > small.profile.sim_seconds());
    }

    struct PanickingMapper;
    impl Mapper for PanickingMapper {
        type K = u8;
        type V = u8;
        fn map_bytes(&self, s: &InputSplit, data: &[u8], _ctx: &mut MapContext<u8, u8>) {
            if text(s, data).contains("poison") {
                panic!("corrupt record encountered");
            }
        }
    }

    #[test]
    fn map_task_panic_fails_the_job_not_the_process() {
        let fs = dfs();
        fs.write_string("/in", "fine\npoison\n").unwrap();
        let err = JobBuilder::new(&fs, "poisoned")
            .input_file("/in")
            .unwrap()
            .mapper(PanickingMapper)
            .map_only()
            .unwrap()
            .run();
        match err {
            Err(JobError::TaskFailed(msg)) => {
                assert!(msg.contains("corrupt record"), "{msg}")
            }
            other => panic!("expected TaskFailed, got {other:?}"),
        }
    }

    #[test]
    fn non_utf8_input_fails_a_text_mapper_as_corrupt_without_retries() {
        let fs = dfs();
        let mut w = fs.create("/in").unwrap();
        w.write_chunk(b"1 2\n\xff\xfe\n");
        w.close().unwrap();
        let err = JobBuilder::new(&fs, "not-text")
            .input_file("/in")
            .unwrap()
            .mapper(CountMapper)
            .reducer(SumReducer, 1)
            .build()
            .unwrap()
            .run();
        // The first attempt failed the job: had it been retried, the
        // error would name the last attempt instead.
        match err {
            Err(JobError::CorruptInput(msg)) => assert!(
                msg.starts_with("map-0/attempt-0: /in: input is not UTF-8 text"),
                "{msg}"
            ),
            other => panic!("expected CorruptInput, got {other:?}"),
        }
    }

    struct PanickingReducer;
    impl Reducer for PanickingReducer {
        type K = u8;
        type V = u8;
        fn reduce(&self, _k: &u8, _vs: Vec<u8>, _ctx: &mut ReduceContext) {
            panic!("reducer exploded");
        }
    }

    struct EmitOneMapper;
    impl Mapper for EmitOneMapper {
        type K = u8;
        type V = u8;
        fn map_bytes(&self, _s: &InputSplit, _d: &[u8], ctx: &mut MapContext<u8, u8>) {
            ctx.emit(1, 1);
        }
    }

    #[test]
    fn reduce_task_panic_fails_the_job_not_the_process() {
        let fs = dfs();
        fs.write_string("/in", "x\n").unwrap();
        let err = JobBuilder::new(&fs, "boom")
            .input_file("/in")
            .unwrap()
            .mapper(EmitOneMapper)
            .reducer(PanickingReducer, 1)
            .build()
            .unwrap()
            .run();
        assert!(matches!(err, Err(JobError::TaskFailed(_))), "{err:?}");
    }

    /// Emits `(line % 3, "<first block id>:<line number>")`, so a key's
    /// values come from several map tasks and interleave with other keys'.
    struct ModKeyMapper;
    impl Mapper for ModKeyMapper {
        type K = u8;
        type V = String;
        fn map_bytes(&self, s: &InputSplit, data: &[u8], ctx: &mut MapContext<u8, String>) {
            let at = s.blocks.first().map_or(0, |b| b.id.0);
            for i in 0..text(s, data).lines().count() {
                ctx.emit((i % 3) as u8, format!("{at}:{i}"));
            }
        }
    }

    /// Writes each key's values in the order `reduce` received them;
    /// optionally panics on the very first call it ever gets.
    struct OrderReducer {
        panics_left: std::sync::atomic::AtomicUsize,
    }
    impl Reducer for OrderReducer {
        type K = u8;
        type V = String;
        fn reduce(&self, k: &u8, vs: Vec<String>, ctx: &mut ReduceContext) {
            use std::sync::atomic::Ordering::SeqCst;
            if self
                .panics_left
                .fetch_update(SeqCst, SeqCst, |n| n.checked_sub(1))
                .is_ok()
            {
                panic!("first reduce call fails");
            }
            ctx.output(&format!("{k} {}", vs.join(",")));
        }
    }

    #[test]
    fn values_reach_reduce_in_emission_order_also_on_attempt_two() {
        let run = |panics: usize| {
            let fs = chaos_dfs(ClusterConfig::small_for_tests(), |_| {});
            wordcount_input(&fs, 4000); // several blocks → several map tasks
            let outcome = JobBuilder::new(&fs, "order")
                .input_file("/in")
                .unwrap()
                .mapper(ModKeyMapper)
                .reducer(
                    OrderReducer {
                        panics_left: panics.into(),
                    },
                    1,
                )
                .build()
                .unwrap()
                .run()
                .unwrap();
            assert_eq!(outcome.profile.task_retries, panics as u64);
            lines(&outcome)
        };
        let clean = run(0);
        assert_eq!(clean.len(), 3, "one line per key, keys ascending");
        for (key, line) in clean.iter().enumerate() {
            let (k, values) = line.split_once(' ').unwrap();
            assert_eq!(k, key.to_string());
            // Map tasks in split (= block) order, lines in file order
            // within one, and more than one map task.
            let order: Vec<(u64, u64)> = values
                .split(',')
                .map(|v| v.split_once(':').unwrap())
                .map(|(at, i)| (at.parse().unwrap(), i.parse().unwrap()))
                .collect();
            assert!(order.windows(2).all(|w| w[0] < w[1]), "key {key}");
            assert!(order[0].0 < order[order.len() - 1].0, "one map task only");
            assert!(order.len() > 1000, "key {key}: {} values", order.len());
        }
        // The retried attempt sees the same bucket in the same order.
        assert_eq!(run(1), clean);
    }

    #[test]
    fn node_failure_fails_job_cleanly() {
        let fs = dfs();
        wordcount_input(&fs, 100);
        // Kill every node: reads must fail, job returns Dfs error.
        for n in 0..fs.config().num_nodes {
            fs.kill_node(n);
        }
        let err = JobBuilder::new(&fs, "dead")
            .input_file("/in")
            .unwrap()
            .mapper(CountMapper)
            .reducer(SumReducer, 1)
            .build()
            .unwrap()
            .run();
        assert!(matches!(err, Err(JobError::Dfs(_))));
    }

    struct PartitionEchoMapper;
    impl Mapper for PartitionEchoMapper {
        type K = u8;
        type V = u8;
        fn map_bytes(&self, split: &InputSplit, _data: &[u8], ctx: &mut MapContext<u8, u8>) {
            ctx.output(&format!(
                "{}:{:?}",
                split.partition_id.unwrap_or(999),
                split.mbr.unwrap_or_default()
            ));
        }
    }

    #[test]
    fn splits_carry_partition_metadata_to_mappers() {
        let fs = dfs();
        fs.write_string("/in", "x\n").unwrap();
        let split = crate::split::InputSplit::whole_file(&fs, "/in")
            .unwrap()
            .with_partition(7, [0.0, 0.0, 1.0, 1.5]);
        let outcome = JobBuilder::new(&fs, "partition")
            .input_splits(vec![split])
            .mapper(PartitionEchoMapper)
            .map_only()
            .unwrap()
            .run()
            .unwrap();
        assert_eq!(lines(&outcome), vec!["7:[0.0, 0.0, 1.0, 1.5]"]);
    }

    struct SideMapper;
    impl Mapper for SideMapper {
        type K = u8;
        type V = u64;
        fn map_bytes(&self, s: &InputSplit, data: &[u8], ctx: &mut MapContext<u8, u64>) {
            for line in text(s, data).lines() {
                ctx.side_output("spill", &format!("m:{line}"));
                ctx.emit(1, line.len() as u64);
            }
        }
    }

    struct SideReducer;
    impl Reducer for SideReducer {
        type K = u8;
        type V = u64;
        fn reduce(&self, _k: &u8, vs: Vec<u64>, ctx: &mut ReduceContext) {
            ctx.side_output("spill", &format!("r:{}", vs.len()));
            ctx.output(&format!("{}", vs.iter().sum::<u64>()));
        }
    }

    #[test]
    fn side_files_merge_map_and_reduce_contributions() {
        let fs = dfs();
        fs.write_string("/in", "aa\nbbb\n").unwrap();
        let before = fs.metrics().snapshot();
        let outcome = JobBuilder::new(&fs, "side")
            .input_file("/in")
            .unwrap()
            .mapper(SideMapper)
            .reducer(SideReducer, 1)
            .build()
            .unwrap()
            .run()
            .unwrap();
        assert_eq!(lines(&outcome), vec!["5"]);
        // Task order, map wave first; the driver gets it, no block does.
        assert_eq!(outcome.side.len(), 1);
        assert_eq!(outcome.side["spill"], b"m:aa\nm:bbb\nr:2\n");
        assert_eq!(fs.metrics().snapshot().since(&before).blocks_written, 0);
        assert_charged_not_written(&outcome, "output.reduce.bytes", 15);
        assert_eq!(outcome.profile.counters["output.side.bytes"], 15);
    }

    /// The rows' bytes are charged to `counter` and to the profile's DFS
    /// writes, next to `side` bytes of side outputs, yet never written.
    fn assert_charged_not_written(outcome: &JobOutcome, counter: &str, side: u64) {
        let bytes = outcome.rows.text().len() as u64;
        assert!(bytes > 0);
        assert_eq!(outcome.profile.counters[counter], bytes);
        assert_eq!(outcome.profile.dfs_bytes_written, bytes + side);
    }

    #[test]
    fn a_map_only_jobs_rows_are_charged_not_written() {
        let fs = dfs();
        wordcount_input(&fs, 3000);
        let before = fs.metrics().snapshot();
        let outcome = JobBuilder::new(&fs, "tokens")
            .input_file("/in")
            .unwrap()
            .mapper(PassthroughMapper)
            .map_only()
            .unwrap()
            .run()
            .unwrap();
        assert_charged_not_written(&outcome, "output.map.bytes", 0);
        let written = fs.metrics().snapshot().since(&before);
        assert_eq!(written.blocks_written, 0, "rows reach no DFS block");
    }

    #[test]
    fn a_reduce_jobs_rows_are_charged_not_written() {
        let fs = dfs();
        wordcount_input(&fs, 3000);
        let before = fs.metrics().snapshot();
        let outcome = JobBuilder::new(&fs, "wc")
            .input_file("/in")
            .unwrap()
            .mapper(CountMapper)
            .reducer(SumReducer, 2)
            .build()
            .unwrap()
            .run()
            .unwrap();
        assert_charged_not_written(&outcome, "output.reduce.bytes", 0);
        // Side outputs come back with the job too, charged like the rows.
        let outcome = JobBuilder::new(&fs, "side")
            .input_file("/in")
            .unwrap()
            .mapper(SideMapper)
            .reducer(SideReducer, 2)
            .build()
            .unwrap()
            .run()
            .unwrap();
        let side = outcome.side["spill"].len() as u64;
        assert_eq!(outcome.side.len(), 1);
        assert_eq!(
            side as usize,
            3000 * "m:w0 common\n".len() + "r:3000\n".len()
        );
        assert_charged_not_written(&outcome, "output.reduce.bytes", side);
        assert_eq!(outcome.profile.counters["output.side.bytes"], side);
        let written = fs.metrics().snapshot().since(&before);
        assert_eq!(written.blocks_written, 0, "no job writes a DFS block");
    }

    #[test]
    fn outcome_carries_a_complete_profile() {
        let fs = dfs();
        wordcount_input(&fs, 5000);
        let outcome = JobBuilder::new(&fs, "profiled")
            .input_file("/in")
            .unwrap()
            .mapper(CountMapper)
            .reducer(SumReducer, 3)
            .build()
            .unwrap()
            .run()
            .unwrap();
        let p = &outcome.profile;
        assert_eq!(p.job, "profiled");
        assert!(p.sim_seconds() > 0.0);
        let map = p.phase("map").unwrap();
        assert!(map.tasks > 1, "expected multiple splits");
        assert_eq!(map.tasks, p.counters["map.tasks"]);
        assert_eq!(map.task_micros.count(), map.tasks);
        let reduce = p.phase("reduce").unwrap();
        assert_eq!(reduce.tasks, 3);
        assert_eq!(reduce.tasks, p.counters["reduce.tasks"]);
        assert_eq!(reduce.task_micros.count(), 3);
        assert_eq!(
            p.dfs_local_bytes + p.dfs_remote_bytes,
            fs.stat("/in").unwrap().len
        );
        assert_eq!(p.shuffle_pairs, p.counters["shuffle.pairs"]);
        assert!(p.dfs_bytes_written > 0);
        // Span tree: root job span with map-wave/shuffle/reduce-wave
        // children, and one span per task attempt (fault-free run: one
        // attempt per task). The job's wall time is read once, after
        // its root span closed.
        let spans = p.spans.as_ref().unwrap();
        assert_eq!(spans.name, "job:profiled");
        assert!(p.wall >= spans.duration);
        let wave = spans.find("map-wave").unwrap();
        assert_eq!(wave.children.len() as u64, map.tasks);
        assert!(spans.find("map-0/attempt-0").is_some());
        assert!(spans.find("shuffle").is_some());
        assert_eq!(spans.find("reduce-wave").unwrap().children.len(), 3);
    }

    #[test]
    fn job_survives_single_node_failure() {
        let fs = dfs();
        wordcount_input(&fs, 2000);
        fs.kill_node(0);
        let outcome = JobBuilder::new(&fs, "one-dead")
            .input_file("/in")
            .unwrap()
            .mapper(CountMapper)
            .reducer(SumReducer, 2)
            .build()
            .unwrap()
            .run()
            .unwrap();
        let mut lines = lines(&outcome);
        lines.sort();
        assert!(lines.contains(&"common 2000".to_string()));
    }

    // ---- fault-tolerance unit tests ----------------------------------

    /// A DFS over `cfg` with fast retries for fault tests; `f` sets the
    /// rest of its fault-tolerance policy.
    fn chaos_dfs(cfg: ClusterConfig, f: impl FnOnce(&mut FtOptions)) -> Dfs {
        let fs = Dfs::new(cfg);
        fs.update_ft_options(|ft| {
            ft.retry_backoff_ms = 0;
            f(ft);
        });
        fs
    }

    #[test]
    fn injected_task_failure_is_retried_and_job_succeeds() {
        let fs = chaos_dfs(ClusterConfig::small_for_tests(), |ft| {
            ft.fault_plan = sh_dfs::FaultPlan::none().fail_task(0, 0).fail_task(0, 1);
        });
        wordcount_input(&fs, 1000);
        let outcome = JobBuilder::new(&fs, "retry")
            .input_file("/in")
            .unwrap()
            .mapper(CountMapper)
            .reducer(SumReducer, 2)
            .build()
            .unwrap()
            .run()
            .unwrap();
        assert_eq!(outcome.profile.task_retries, 2, "two injected failures");
        assert_eq!(outcome.profile.counters["task.retries"], 2);
        let mut lines = lines(&outcome);
        lines.sort();
        assert!(lines.contains(&"common 1000".to_string()));
        // Attempt spans exist for the failed and the winning attempt.
        let spans = outcome.profile.spans.as_ref().unwrap();
        assert!(spans.find("map-0/attempt-0").is_some());
        assert!(spans.find("map-0/attempt-2").is_some());
    }

    #[test]
    fn attempts_exhausted_keeps_first_error() {
        let fs = chaos_dfs(ClusterConfig::small_for_tests(), |ft| {
            ft.max_task_attempts = 2;
            ft.fault_plan = sh_dfs::FaultPlan::none()
                .fail_task(0, 0)
                .fail_task(0, 1)
                .fail_task(1, 0)
                .fail_task(1, 1);
        });
        wordcount_input(&fs, 2000);
        let err = JobBuilder::new(&fs, "doomed")
            .input_file("/in")
            .unwrap()
            .mapper(CountMapper)
            .reducer(SumReducer, 1)
            .build()
            .unwrap()
            .run();
        match err {
            Err(JobError::TaskFailed(msg)) => {
                assert!(msg.contains("injected fault"), "{msg}");
            }
            other => panic!("expected TaskFailed, got {other:?}"),
        }
    }

    #[test]
    fn repeated_failures_blacklist_the_node() {
        let fs = chaos_dfs(ClusterConfig::small_for_tests(), |ft| {
            ft.node_blacklist_threshold = 1;
            // Kill node 0 at the wave boundary: every task scheduled there
            // fails once, the node is blacklisted, the DFS re-replicates.
            ft.fault_plan = sh_dfs::FaultPlan::none().kill_node(0);
        });
        wordcount_input(&fs, 3000);
        let outcome = JobBuilder::new(&fs, "blacklist")
            .input_file("/in")
            .unwrap()
            .mapper(CountMapper)
            .reducer(SumReducer, 2)
            .build()
            .unwrap()
            .run()
            .unwrap();
        assert!(
            outcome.profile.task_retries >= 1,
            "tasks on the killed node must retry: {:?}",
            outcome.profile.task_retries
        );
        assert_eq!(outcome.profile.nodes_blacklisted, 1);
        // Re-replication restored the factor for every surviving block.
        assert_eq!(fs.rereplicate(), 0, "already re-replicated during job");
        let mut lines = lines(&outcome);
        lines.sort();
        assert!(lines.contains(&"common 3000".to_string()));
    }

    #[test]
    fn speculative_backup_beats_injected_straggler() {
        // Speculation needs an idle worker while the straggler runs, so
        // don't let a 1-core machine shrink the pool to a single thread.
        let cfg = ClusterConfig {
            worker_threads: Some(4),
            ..ClusterConfig::small_for_tests()
        };
        let fs = chaos_dfs(cfg, |ft| {
            ft.speculative_execution = true;
            ft.speculation_threshold_ms = 10;
            ft.fault_plan = sh_dfs::FaultPlan::none().delay_task(0, 2_000);
        });
        wordcount_input(&fs, 2000);
        let t0 = Instant::now();
        let outcome = JobBuilder::new(&fs, "speculate")
            .input_file("/in")
            .unwrap()
            .mapper(CountMapper)
            .reducer(SumReducer, 2)
            .build()
            .unwrap()
            .run()
            .unwrap();
        assert!(outcome.profile.speculative_launched >= 1);
        assert!(
            outcome.profile.speculative_won >= 1,
            "the undelayed backup must win: {:?}",
            outcome.profile
        );
        assert!(
            t0.elapsed() < Duration::from_millis(1_900),
            "cancelled straggler must not serve out its full delay"
        );
        let mut lines = lines(&outcome);
        lines.sort();
        assert!(lines.contains(&"common 2000".to_string()));
    }

    #[test]
    fn worker_pool_size_is_configurable() {
        let fs = Dfs::new(ClusterConfig {
            worker_threads: Some(1),
            ..ClusterConfig::small_for_tests()
        });
        wordcount_input(&fs, 1000);
        let outcome = JobBuilder::new(&fs, "single-threaded")
            .input_file("/in")
            .unwrap()
            .mapper(CountMapper)
            .reducer(SumReducer, 2)
            .build()
            .unwrap()
            .run()
            .unwrap();
        let mut lines = lines(&outcome);
        lines.sort();
        assert!(lines.contains(&"common 1000".to_string()));
        // The wave sizes its thread count from the global slot pool:
        // this Dfs was built with worker_threads = 1, so one worker.
        let opts = fs.ft_options();
        assert_eq!(wave_threads(&fs, &opts, 1_000), 1);
        // And the default is uncapped available_parallelism (regression:
        // the pool used to be hard-capped at 8 threads).
        let auto_fs = Dfs::new(ClusterConfig::small_for_tests());
        let auto = wave_threads(&auto_fs, &auto_fs.ft_options(), 1_000);
        let cores = std::thread::available_parallelism().unwrap().get();
        assert_eq!(auto, cores.min(1_000));
        // Resizing the pool at runtime resizes the waves.
        fs.slots().set_total(3);
        assert_eq!(wave_threads(&fs, &fs.ft_options(), 1_000), 3);
    }

    /// Records the thread each map task ran on.
    struct ThreadMapper(std::sync::Arc<Mutex<Vec<std::thread::ThreadId>>>);
    impl Mapper for ThreadMapper {
        type K = u8;
        type V = u8;
        fn map_bytes(&self, _s: &InputSplit, _d: &[u8], _ctx: &mut MapContext<u8, u8>) {
            lock(&self.0).push(std::thread::current().id());
            // Long enough that idle helpers would claim the next task.
            std::thread::sleep(Duration::from_millis(2));
        }
    }

    /// The threads a map-only job over `path` ran its tasks on, and how
    /// many tasks it ran.
    fn task_threads(fs: &Dfs, path: &str) -> (Vec<std::thread::ThreadId>, usize) {
        let seen = std::sync::Arc::new(Mutex::new(Vec::new()));
        let outcome = JobBuilder::new(fs, "threads")
            .input_file(path)
            .unwrap()
            .mapper(ThreadMapper(std::sync::Arc::clone(&seen)))
            .map_only()
            .unwrap()
            .run()
            .unwrap();
        let mut threads = lock(&seen).clone();
        threads.sort_by_key(|t| format!("{t:?}"));
        threads.dedup();
        (threads, outcome.map_tasks())
    }

    #[test]
    fn a_wave_runs_on_its_driver_and_at_most_one_thread_per_slot() {
        let caller = std::thread::current().id();
        let fs = dfs();
        fs.write_string("/one", "a\n").unwrap();
        let (threads, tasks) = task_threads(&fs, "/one");
        assert_eq!(tasks, 1);
        assert_eq!(threads, vec![caller], "a one-task wave runs on its driver");
        wordcount_input(&fs, 3000);
        for slots in [1, 2, 3] {
            fs.slots().set_total(slots);
            let (threads, tasks) = task_threads(&fs, "/in");
            assert!(tasks > slots, "{tasks} tasks");
            assert!(
                threads.len() <= slots.min(tasks),
                "{threads:?} on {slots} slots"
            );
            assert!(threads.contains(&caller), "the driver runs tasks too");
        }
    }
}
