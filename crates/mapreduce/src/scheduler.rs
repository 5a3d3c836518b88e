//! Multi-job scheduler: concurrent job submission over one shared DFS.
//!
//! The JobTracker half that [`crate::executor`] lacks. The scheduler
//! admits; it runs nothing. A caller queues a job and gets a [`Ticket`]:
//! a place in the queue that its holder redeems with [`Ticket::run`],
//! which waits for admission and then runs the job *on the holder's
//! thread*. The scheduler admits up to a configured number of jobs at a
//! time (FIFO or fair-share across tenants), wakes each admitted job's
//! holder, bounds its queue (admission control — submissions beyond the
//! cap are rejected, which is the back-pressure signal), and relies on
//! the cluster's global [`SlotPool`](sh_dfs::SlotPool) to cap *task*
//! concurrency: admitting four jobs on a four-slot cluster runs four
//! task attempts at a time, not 4 × slots. [`JobScheduler::submit`] is
//! the background form: one thread that holds the ticket and runs it,
//! joined through a [`JobHandle`].
//!
//! Observability: `sched.submitted` / `sched.admitted` /
//! `sched.rejected` / `sched.completed` / `sched.failed` counters, the
//! `sched.queue.depth` gauge, and the `sched.wait.micros` histogram
//! (enqueue → admission) in the global trace registry. Per-job profiles
//! stay per-job — each submitted closure returns its own result, so
//! nothing is aggregated across tenants.

use std::collections::{BTreeMap, VecDeque};
use std::fmt;
use std::sync::mpsc;
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use sh_dfs::Dfs;
use sh_trace::sync::{lock, wait, wait_timeout};

/// Queueing policy for admission order.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum SchedPolicy {
    /// Strict submission order.
    #[default]
    Fifo,
    /// Pick the queued job whose tenant has the fewest running jobs
    /// (ties broken by submission order) — one chatty tenant cannot
    /// starve the rest.
    FairShare,
}

impl SchedPolicy {
    /// Parses `fifo` / `fair` (`sh-server --policy`).
    pub fn parse(text: &str) -> Result<SchedPolicy, String> {
        match text.trim().to_ascii_lowercase().as_str() {
            "fifo" => Ok(SchedPolicy::Fifo),
            "fair" | "fairshare" | "fair-share" => Ok(SchedPolicy::FairShare),
            other => Err(format!("unknown scheduling policy '{other}' (fifo|fair)")),
        }
    }
}

impl fmt::Display for SchedPolicy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SchedPolicy::Fifo => write!(f, "fifo"),
            SchedPolicy::FairShare => write!(f, "fair"),
        }
    }
}

/// Admission-control knobs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SchedConfig {
    /// Jobs running concurrently (task concurrency is separately capped
    /// by the cluster slot pool).
    pub max_in_flight: usize,
    /// Queued (admitted-but-waiting) jobs before submissions are
    /// rejected with [`SchedError::QueueFull`].
    pub queue_cap: usize,
    /// Admission order.
    pub policy: SchedPolicy,
}

impl Default for SchedConfig {
    fn default() -> SchedConfig {
        SchedConfig {
            max_in_flight: 4,
            queue_cap: 64,
            policy: SchedPolicy::Fifo,
        }
    }
}

/// Submission/join errors.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SchedError {
    /// The queue is at its cap — back off and resubmit.
    QueueFull,
    /// The scheduler shut down before the job ran.
    Shutdown,
    /// The job's closure panicked (payload message attached).
    JobPanicked(String),
}

impl fmt::Display for SchedError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SchedError::QueueFull => write!(f, "scheduler queue is full"),
            SchedError::Shutdown => write!(f, "scheduler shut down before the job ran"),
            SchedError::JobPanicked(msg) => write!(f, "job panicked: {msg}"),
        }
    }
}

impl std::error::Error for SchedError {}

/// Lifecycle of a submitted job.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum JobState {
    Queued,
    Running,
    Done,
    Failed,
    /// Dequeued by [`Ticket::cancel`] before it ever ran, or admitted
    /// and dropped unrun.
    Cancelled,
}

impl fmt::Display for JobState {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            JobState::Queued => write!(f, "queued"),
            JobState::Running => write!(f, "running"),
            JobState::Done => write!(f, "done"),
            JobState::Failed => write!(f, "failed"),
            JobState::Cancelled => write!(f, "cancelled"),
        }
    }
}

/// One row of [`JobScheduler::jobs`].
#[derive(Clone, Debug)]
pub struct JobInfo {
    pub id: u64,
    pub name: String,
    pub tenant: String,
    pub state: JobState,
}

/// A queued job: who waits for it and since when. The job itself stays
/// with its [`Ticket`]'s holder, who runs it once admitted.
struct Pending {
    id: u64,
    tenant: String,
    enqueued: Instant,
    /// Wakes the holder on admission, cancellation or shutdown; shared
    /// with its ticket.
    wake: Arc<Condvar>,
}

#[derive(Clone)]
struct JobRecord {
    name: String,
    tenant: String,
    state: JobState,
}

/// Finished jobs the scheduler remembers (for `JOBS;` and
/// [`JobScheduler::job_state`]); older ones are forgotten so a long-lived
/// server's job table does not grow with every statement it ever served.
/// Same size as the event journal's ring.
const JOB_HISTORY: usize = 1024;

struct SchedState {
    queue: VecDeque<Pending>,
    running: usize,
    running_per_tenant: BTreeMap<String, usize>,
    /// Jobs ever admitted per tenant — fair-share's history term, so
    /// tenants round-robin even when nothing is running at pick time.
    admitted_per_tenant: BTreeMap<String, u64>,
    /// Queued and running jobs, plus the last [`JOB_HISTORY`] finished.
    jobs: BTreeMap<u64, JobRecord>,
    /// Ids of the finished jobs still in `jobs`, oldest first.
    finished: VecDeque<u64>,
    next_id: u64,
    shutdown: bool,
}

impl SchedState {
    /// State of job `id`, if it is live or still in the history.
    fn state(&self, id: u64) -> Option<JobState> {
        self.jobs.get(&id).map(|r| r.state)
    }

    /// Records a job's terminal state and evicts the oldest finished job
    /// once the history is over its bound.
    fn finish(&mut self, id: u64, state: JobState) {
        if let Some(r) = self.jobs.get_mut(&id) {
            r.state = state;
        }
        self.finished.push_back(id);
        if self.finished.len() > JOB_HISTORY {
            if let Some(oldest) = self.finished.pop_front() {
                self.jobs.remove(&oldest);
            }
        }
    }
}

struct Inner {
    dfs: Dfs,
    cfg: SchedConfig,
    state: Mutex<SchedState>,
    /// Signalled whenever a job leaves, for [`JobScheduler::drain`].
    cv: Condvar,
}

/// Handle to a submitted job; [`JobHandle::join`] blocks for the result.
pub struct JobHandle<T> {
    /// Scheduler-assigned job id (stable across the scheduler's life).
    pub id: u64,
    rx: mpsc::Receiver<Result<T, SchedError>>,
}

impl<T> JobHandle<T> {
    /// Blocks until the job finishes and returns its result, or
    /// [`SchedError::Shutdown`] for a job cancelled or shut down while
    /// queued.
    pub fn join(self) -> Result<T, SchedError> {
        self.rx.recv().unwrap_or(Err(SchedError::Shutdown))
    }
}

/// The scheduler (see module docs). Cheaply cloneable; all clones share
/// one queue.
#[derive(Clone)]
pub struct JobScheduler {
    inner: Arc<Inner>,
}

impl JobScheduler {
    /// Creates a scheduler over `dfs` with the given admission config.
    pub fn new(dfs: &Dfs, cfg: SchedConfig) -> JobScheduler {
        JobScheduler {
            inner: Arc::new(Inner {
                dfs: dfs.clone(),
                cfg,
                state: Mutex::new(SchedState {
                    queue: VecDeque::new(),
                    running: 0,
                    running_per_tenant: BTreeMap::new(),
                    admitted_per_tenant: BTreeMap::new(),
                    jobs: BTreeMap::new(),
                    finished: VecDeque::new(),
                    next_id: 0,
                    shutdown: false,
                }),
                cv: Condvar::new(),
            }),
        }
    }

    /// Submits a job under the default tenant to run in the
    /// background (see [`JobScheduler::submit_as`]).
    pub fn submit<T, F>(&self, name: &str, f: F) -> Result<JobHandle<T>, SchedError>
    where
        T: Send + 'static,
        F: FnOnce(&Dfs) -> T + Send + 'static,
    {
        self.submit_as("default", name, f)
    }

    /// Submits a job on behalf of `tenant` to run in the background: one
    /// thread holds its [`Ticket`] and runs the job once it is admitted,
    /// so the job runs whether or not its handle is ever joined.
    pub fn submit_as<T, F>(
        &self,
        tenant: &str,
        name: &str,
        f: F,
    ) -> Result<JobHandle<T>, SchedError>
    where
        T: Send + 'static,
        F: FnOnce(&Dfs) -> T + Send + 'static,
    {
        let ticket = self.enqueue_as(tenant, name)?;
        let id = ticket.id;
        let (tx, rx) = mpsc::channel();
        std::thread::spawn(move || {
            // A dropped handle is fine — the job still ran.
            let _ = tx.send(ticket.run(f));
        });
        Ok(JobHandle { id, rx })
    }

    /// Queues a job on behalf of `tenant` (fair-share balances across
    /// tenants; FIFO ignores them) and hands back the ticket its holder
    /// runs it with — the one admission path. Fails with
    /// [`SchedError::QueueFull`] at the queue's cap and
    /// [`SchedError::Shutdown`] after [`JobScheduler::shutdown`].
    pub fn enqueue_as(&self, tenant: &str, name: &str) -> Result<Ticket, SchedError> {
        let registry = sh_trace::global();
        registry.counter_add("sched.submitted", 1);
        let mut st = lock(&self.inner.state);
        let refused = if st.shutdown {
            Some(("shutdown", SchedError::Shutdown))
        } else if st.queue.len() >= self.inner.cfg.queue_cap {
            Some(("queue_full", SchedError::QueueFull))
        } else {
            None
        };
        if let Some((reason, e)) = refused {
            registry.counter_add("sched.rejected", 1);
            sh_trace::events::emit(
                "job.rejected",
                vec![("job", name.to_string()), ("reason", reason.to_string())],
            );
            return Err(e);
        }
        let id = st.next_id;
        st.next_id += 1;
        st.jobs.insert(
            id,
            JobRecord {
                name: name.to_string(),
                tenant: tenant.to_string(),
                state: JobState::Queued,
            },
        );
        sh_trace::events::emit(
            "job.submitted",
            vec![
                ("id", id.to_string()),
                ("job", name.to_string()),
                ("tenant", tenant.to_string()),
            ],
        );
        let wake = Arc::new(Condvar::new());
        st.queue.push_back(Pending {
            id,
            tenant: tenant.to_string(),
            enqueued: Instant::now(),
            wake: Arc::clone(&wake),
        });
        registry.gauge_set("sched.queue.depth", st.queue.len() as i64);
        // Admitted at once when there is room: its holder then runs it
        // without waiting.
        self.inner.admit(&mut st);
        Ok(Ticket {
            inner: Arc::clone(&self.inner),
            id,
            tenant: tenant.to_string(),
            wake,
        })
    }

    /// Snapshot of the job table, by id: every queued and running job
    /// and the most recently finished ones (a bounded history).
    pub fn jobs(&self) -> Vec<JobInfo> {
        let st = lock(&self.inner.state);
        st.jobs
            .iter()
            .map(|(&id, r)| JobInfo {
                id,
                name: r.name.clone(),
                tenant: r.tenant.clone(),
                state: r.state,
            })
            .collect()
    }

    /// State of one job, if it is live or still in the finished history.
    pub fn job_state(&self, id: u64) -> Option<JobState> {
        lock(&self.inner.state).state(id)
    }

    /// Jobs currently queued (not yet admitted).
    pub fn queue_depth(&self) -> usize {
        lock(&self.inner.state).queue.len()
    }

    /// Jobs currently running.
    pub fn running(&self) -> usize {
        lock(&self.inner.state).running
    }

    /// Blocks until every queued and running job has finished.
    pub fn drain(&self) {
        let mut st = lock(&self.inner.state);
        while st.running > 0 || !st.queue.is_empty() {
            st = wait(&self.inner.cv, st);
        }
    }

    /// Rejects future submissions and discards queued jobs (their
    /// holders observe [`SchedError::Shutdown`]); running jobs finish.
    pub fn shutdown(&self) {
        let mut st = lock(&self.inner.state);
        st.shutdown = true;
        for p in std::mem::take(&mut st.queue) {
            st.finish(p.id, JobState::Failed);
            p.wake.notify_one();
        }
        sh_trace::global().gauge_set("sched.queue.depth", 0);
        self.inner.cv.notify_all();
    }
}

/// A queued job's place in line, held by the thread that runs it:
/// [`Ticket::run`] waits for admission and runs the job on the calling
/// thread. A ticket dropped unrun gives its place back — a queued job is
/// dequeued, an admitted one frees its in-flight slot.
pub struct Ticket {
    inner: Arc<Inner>,
    id: u64,
    tenant: String,
    wake: Arc<Condvar>,
}

impl Ticket {
    /// Scheduler-assigned job id (stable across the scheduler's life).
    pub fn id(&self) -> u64 {
        self.id
    }

    /// Waits at most `timeout` while the job is queued; `false` if it
    /// still is. After `true`, [`Ticket::run`] does not wait: the job was
    /// admitted (and `run` runs it) or cancelled or shut down (and `run`
    /// reports [`SchedError::Shutdown`]). Admission wakes the caller at
    /// once.
    pub fn wait_queued(&self, timeout: Duration) -> bool {
        let mut st = lock(&self.inner.state);
        if st.state(self.id) == Some(JobState::Queued) {
            st = wait_timeout(&self.wake, st, timeout);
        }
        st.state(self.id) != Some(JobState::Queued)
    }

    /// Cancels the job while it is still queued: it is dequeued without
    /// running and [`Ticket::run`] reports [`SchedError::Shutdown`].
    /// Returns `false` if it was already admitted (an admitted job runs
    /// to completion — task waves own cluster state that must settle).
    /// This is the disconnect path for network sessions: a client that
    /// goes away while its statement waits in the queue must not hold a
    /// queue slot against live sessions.
    pub fn cancel(&self) -> bool {
        self.inner.dequeue(&mut lock(&self.inner.state), self.id)
    }

    /// Blocks until the job is admitted, then runs `f` on this thread
    /// against the shared DFS; its task waves lease worker slots from
    /// the cluster-wide pool like every other job's. A panic in `f` is
    /// caught and reported as [`SchedError::JobPanicked`]; a job
    /// cancelled or shut down while queued reports
    /// [`SchedError::Shutdown`] without running.
    pub fn run<T>(self, f: impl FnOnce(&Dfs) -> T) -> Result<T, SchedError> {
        let mut st = lock(&self.inner.state);
        while st.state(self.id) == Some(JobState::Queued) {
            st = wait(&self.wake, st);
        }
        if st.state(self.id) != Some(JobState::Running) {
            return Err(SchedError::Shutdown);
        }
        drop(st);
        let verdict = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| f(&self.inner.dfs)));
        let state = if verdict.is_ok() {
            JobState::Done
        } else {
            JobState::Failed
        };
        // The bookkeeping comes first: a caller that sees the result
        // also sees the final job state.
        self.inner.leave(self.id, &self.tenant, state);
        verdict.map_err(|panic| SchedError::JobPanicked(panic_text(&panic)))
    }
}

impl Drop for Ticket {
    fn drop(&mut self) {
        let mut st = lock(&self.inner.state);
        match st.state(self.id) {
            Some(JobState::Queued) => {
                self.inner.dequeue(&mut st, self.id);
            }
            Some(JobState::Running) => {
                // Admitted, never run: only this ticket can end it.
                drop(st);
                self.inner.leave(self.id, &self.tenant, JobState::Cancelled);
            }
            _ => {}
        }
    }
}

impl Inner {
    /// Admits queued jobs while capacity allows and wakes each one's
    /// holder; called with the state lock held.
    fn admit(&self, st: &mut SchedState) {
        let registry = sh_trace::global();
        while st.running < self.cfg.max_in_flight {
            let Some(idx) = pick_next(st, self.cfg.policy) else {
                break;
            };
            let pending = st.queue.remove(idx).expect("index from pick_next");
            st.running += 1;
            *st.running_per_tenant
                .entry(pending.tenant.clone())
                .or_insert(0) += 1;
            *st.admitted_per_tenant
                .entry(pending.tenant.clone())
                .or_insert(0) += 1;
            if let Some(r) = st.jobs.get_mut(&pending.id) {
                r.state = JobState::Running;
            }
            let wait_micros = pending.enqueued.elapsed().as_micros() as u64;
            registry.counter_add("sched.admitted", 1);
            registry.observe("sched.wait.micros", wait_micros);
            sh_trace::events::emit(
                "job.admitted",
                vec![
                    ("id", pending.id.to_string()),
                    ("tenant", pending.tenant),
                    ("wait_micros", wait_micros.to_string()),
                ],
            );
            pending.wake.notify_one();
        }
        registry.gauge_set("sched.queue.depth", st.queue.len() as i64);
    }

    /// Dequeues a still-queued job as cancelled and wakes its holder;
    /// `false` if it is not in the queue.
    fn dequeue(&self, st: &mut SchedState, id: u64) -> bool {
        let Some(pos) = st.queue.iter().position(|p| p.id == id) else {
            return false;
        };
        let pending = st.queue.remove(pos).expect("index from position");
        st.finish(id, JobState::Cancelled);
        let registry = sh_trace::global();
        registry.counter_add("sched.cancelled", 1);
        registry.gauge_set("sched.queue.depth", st.queue.len() as i64);
        sh_trace::events::emit(
            "job.cancelled",
            vec![("id", id.to_string()), ("tenant", pending.tenant)],
        );
        pending.wake.notify_one();
        self.cv.notify_all();
        true
    }

    /// Ends an admitted job in `state`, frees its in-flight slot and
    /// admits the next.
    fn leave(&self, id: u64, tenant: &str, state: JobState) {
        let (counter, event) = match state {
            JobState::Done => ("sched.completed", "job.completed"),
            JobState::Failed => ("sched.failed", "job.failed"),
            _ => ("sched.cancelled", "job.cancelled"),
        };
        sh_trace::global().counter_add(counter, 1);
        sh_trace::events::emit(
            event,
            vec![("id", id.to_string()), ("tenant", tenant.to_string())],
        );
        let mut st = lock(&self.state);
        st.running -= 1;
        if let Some(n) = st.running_per_tenant.get_mut(tenant) {
            *n = n.saturating_sub(1);
        }
        st.finish(id, state);
        self.admit(&mut st);
        self.cv.notify_all();
    }
}

/// Index of the next queue entry to admit under `policy`.
fn pick_next(st: &SchedState, policy: SchedPolicy) -> Option<usize> {
    if st.queue.is_empty() {
        return None;
    }
    match policy {
        SchedPolicy::Fifo => Some(0),
        SchedPolicy::FairShare => {
            // Fewest running jobs for the tenant, then least historical
            // usage (admissions so far), then submission order —
            // min_by_key keeps the first minimum, so ties are FIFO.
            st.queue
                .iter()
                .enumerate()
                .min_by_key(|(_, p)| {
                    let running = st.running_per_tenant.get(&p.tenant).copied().unwrap_or(0);
                    let admitted = st.admitted_per_tenant.get(&p.tenant).copied().unwrap_or(0);
                    (running, admitted)
                })
                .map(|(i, _)| i)
        }
    }
}

/// Best-effort extraction of a panic payload message.
fn panic_text(panic: &Box<dyn std::any::Any + Send>) -> String {
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
    use std::sync::atomic::{AtomicUsize, Ordering};

    fn dfs() -> Dfs {
        Dfs::new(sh_dfs::ClusterConfig::small_for_tests())
    }

    #[test]
    fn submit_and_join_returns_the_closure_result() {
        let fs = dfs();
        let sched = JobScheduler::new(&fs, SchedConfig::default());
        let h = sched
            .submit("write", |dfs| {
                dfs.write_string("/sched/a", "hello\n").unwrap();
                42u64
            })
            .unwrap();
        assert_eq!(h.join().unwrap(), 42);
        assert!(fs.exists("/sched/a"));
        assert_eq!(sched.job_state(0), Some(JobState::Done));
    }

    #[test]
    fn a_ticket_runs_its_job_on_the_waiting_thread() {
        let fs = dfs();
        let sched = JobScheduler::new(&fs, SchedConfig::default());
        let ticket = sched.enqueue_as("t", "here").unwrap();
        let id = ticket.id();
        let ran_on = ticket.run(|_| std::thread::current().id()).unwrap();
        assert_eq!(ran_on, std::thread::current().id());
        assert_eq!(sched.job_state(id), Some(JobState::Done));
    }

    #[test]
    fn a_queued_job_runs_on_its_own_waiter_once_admitted() {
        let fs = dfs();
        let cfg = SchedConfig {
            max_in_flight: 1,
            ..SchedConfig::default()
        };
        let sched = JobScheduler::new(&fs, cfg);
        let first = sched.enqueue_as("a", "first").unwrap();
        let waiter_sched = sched.clone();
        let waiter = std::thread::spawn(move || {
            let ticket = waiter_sched.enqueue_as("b", "second").unwrap();
            let ran_on = ticket.run(|_| std::thread::current().id()).unwrap();
            (ran_on, std::thread::current().id())
        });
        while sched.queue_depth() == 0 {
            std::thread::yield_now();
        }
        assert_eq!(sched.job_state(1), Some(JobState::Queued));
        // The running job ends on this thread; the queued one is then
        // admitted and run by the thread that queued it.
        let ran_here = first.run(|_| std::thread::current().id()).unwrap();
        assert_eq!(ran_here, std::thread::current().id());
        let (ran_on, waiter_id) = waiter.join().unwrap();
        assert_eq!(ran_on, waiter_id);
        assert_ne!(ran_on, ran_here);
    }

    #[test]
    fn a_ticket_dropped_unrun_gives_its_place_back() {
        let fs = dfs();
        let cfg = SchedConfig {
            max_in_flight: 1,
            ..SchedConfig::default()
        };
        let sched = JobScheduler::new(&fs, cfg);
        let admitted = sched.enqueue_as("t", "admitted").unwrap();
        let queued = sched.enqueue_as("t", "queued").unwrap();
        let last = sched.enqueue_as("t", "last").unwrap();
        assert!(!queued.wait_queued(Duration::from_millis(1)));
        drop(queued);
        assert_eq!(sched.job_state(1), Some(JobState::Cancelled));
        assert_eq!(sched.queue_depth(), 1);
        // An admitted ticket frees its in-flight slot for the next.
        drop(admitted);
        assert_eq!(sched.job_state(0), Some(JobState::Cancelled));
        assert!(last.wait_queued(Duration::ZERO));
        assert_eq!(last.run(|_| 5u8), Ok(5));
        sched.drain();
        assert_eq!(sched.running(), 0);
    }

    #[test]
    fn a_submit_never_joined_still_runs_and_drain_returns() {
        let fs = dfs();
        let sched = JobScheduler::new(&fs, SchedConfig::default());
        let done = Arc::new(AtomicUsize::new(0));
        for i in 0..3 {
            let done = Arc::clone(&done);
            drop(sched.submit(&format!("bg{i}"), move |_| {
                std::thread::sleep(Duration::from_millis(5));
                done.fetch_add(1, Ordering::SeqCst);
            }));
        }
        sched.drain();
        assert_eq!(done.load(Ordering::SeqCst), 3);
        assert!((0..3).all(|id| sched.job_state(id) == Some(JobState::Done)));
    }

    #[test]
    fn job_table_keeps_live_jobs_and_a_bounded_history() {
        let fs = dfs();
        let sched = JobScheduler::new(&fs, SchedConfig::default());
        let mut last = 0;
        for i in 0..5000u64 {
            let h = sched.submit("trivial", move |_| i).unwrap();
            last = h.id;
            assert_eq!(h.join().unwrap(), i);
        }
        let jobs = sched.jobs();
        assert!(jobs.len() <= JOB_HISTORY, "{} records kept", jobs.len());
        assert_eq!(sched.job_state(last), Some(JobState::Done));
        assert_eq!(sched.job_state(0), None, "oldest finished job is forgotten");
        // A job still running is live in the table.
        let (gate_tx, gate_rx) = mpsc::channel::<()>();
        let h = sched
            .submit("gated", move |_| gate_rx.recv().is_ok())
            .unwrap();
        assert!(matches!(
            sched.job_state(h.id),
            Some(JobState::Queued | JobState::Running)
        ));
        gate_tx.send(()).unwrap();
        assert_eq!(h.join(), Ok(true));
    }

    #[test]
    fn max_in_flight_bounds_concurrent_jobs() {
        let fs = dfs();
        let cfg = SchedConfig {
            max_in_flight: 2,
            ..SchedConfig::default()
        };
        let sched = JobScheduler::new(&fs, cfg);
        let live = Arc::new(AtomicUsize::new(0));
        let peak = Arc::new(AtomicUsize::new(0));
        let handles: Vec<_> = (0..8)
            .map(|i| {
                let live = Arc::clone(&live);
                let peak = Arc::clone(&peak);
                sched
                    .submit(&format!("j{i}"), move |_| {
                        let now = live.fetch_add(1, Ordering::SeqCst) + 1;
                        peak.fetch_max(now, Ordering::SeqCst);
                        std::thread::sleep(Duration::from_millis(10));
                        live.fetch_sub(1, Ordering::SeqCst);
                    })
                    .unwrap()
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert!(peak.load(Ordering::SeqCst) <= 2, "admission cap violated");
    }

    #[test]
    fn queue_cap_rejects_with_queue_full() {
        let fs = dfs();
        let cfg = SchedConfig {
            max_in_flight: 1,
            queue_cap: 1,
            ..SchedConfig::default()
        };
        let sched = JobScheduler::new(&fs, cfg);
        let (gate_tx, gate_rx) = mpsc::channel::<()>();
        let blocker = sched
            .submit("blocker", move |_| {
                gate_rx.recv().ok();
            })
            .unwrap();
        // Give the blocker time to be admitted, freeing the queue.
        while sched.running() == 0 {
            std::thread::yield_now();
        }
        let queued = sched.submit("queued", |_| {}).unwrap();
        assert!(matches!(
            sched.submit("overflow", |_| {}),
            Err(SchedError::QueueFull)
        ));
        gate_tx.send(()).unwrap();
        blocker.join().unwrap();
        queued.join().unwrap();
    }

    #[test]
    fn fair_share_interleaves_tenants() {
        let fs = dfs();
        let cfg = SchedConfig {
            max_in_flight: 1,
            queue_cap: 64,
            policy: SchedPolicy::FairShare,
        };
        let sched = JobScheduler::new(&fs, cfg);
        let order = Arc::new(Mutex::new(Vec::new()));
        let (gate_tx, gate_rx) = mpsc::channel::<()>();
        // Hold the single in-flight slot while the queue fills so
        // admission order is decided by the policy, not arrival timing.
        let blocker = sched
            .submit_as("x", "gate", move |_| {
                gate_rx.recv().ok();
            })
            .unwrap();
        let mut handles = Vec::new();
        for (tenant, name) in [("a", "a1"), ("a", "a2"), ("a", "a3"), ("b", "b1")] {
            let order = Arc::clone(&order);
            handles.push(
                sched
                    .submit_as(tenant, name, move |_| {
                        lock(&order).push(name.to_string());
                    })
                    .unwrap(),
            );
        }
        gate_tx.send(()).unwrap();
        blocker.join().unwrap();
        for h in handles {
            h.join().unwrap();
        }
        let order = lock(&order).clone();
        // With zero running for both tenants, ties go to submission
        // order (a1), then tenant b's b1 must not wait behind all of
        // tenant a's backlog.
        assert_eq!(order.len(), 4);
        let pos_b = order.iter().position(|n| n == "b1").unwrap();
        assert!(
            pos_b <= 1,
            "fair share must admit b1 before a's backlog drains: {order:?}"
        );
    }

    #[test]
    fn policy_names_parse_and_unknown_ones_are_rejected() {
        // `sh-server --policy` goes through this parser.
        assert_eq!(SchedPolicy::parse("fifo"), Ok(SchedPolicy::Fifo));
        assert_eq!(SchedPolicy::parse("Fair"), Ok(SchedPolicy::FairShare));
        assert!(SchedPolicy::parse("roundrobin").is_err());
    }

    #[test]
    fn panicking_job_reports_and_scheduler_survives() {
        let fs = dfs();
        let sched = JobScheduler::new(&fs, SchedConfig::default());
        let h = sched
            .submit("boom", |_| -> u32 { panic!("job exploded") })
            .unwrap();
        match h.join() {
            Err(SchedError::JobPanicked(msg)) => assert!(msg.contains("job exploded")),
            other => panic!("expected JobPanicked, got {other:?}"),
        }
        assert_eq!(sched.job_state(0), Some(JobState::Failed));
        // The scheduler still admits new work.
        let h = sched.submit("after", |_| 7u32).unwrap();
        assert_eq!(h.join().unwrap(), 7);
    }

    #[test]
    fn cancel_dequeues_queued_jobs_but_not_running_ones() {
        let fs = dfs();
        let cfg = SchedConfig {
            max_in_flight: 1,
            ..SchedConfig::default()
        };
        let sched = JobScheduler::new(&fs, cfg);
        let blocker = sched.enqueue_as("t", "blocker").unwrap();
        assert_eq!(sched.job_state(blocker.id()), Some(JobState::Running));
        let queued = sched.enqueue_as("t", "doomed").unwrap();
        // A running job cannot be cancelled; a queued one can, exactly once.
        assert!(!blocker.cancel());
        assert!(queued.cancel());
        assert!(!queued.cancel());
        assert_eq!(sched.job_state(queued.id()), Some(JobState::Cancelled));
        assert_eq!(queued.run(|_| 1u8), Err(SchedError::Shutdown));
        // The freed queue slot admits new work once the blocker is done.
        let after = sched.enqueue_as("t", "after").unwrap();
        assert_eq!(sched.job_state(after.id()), Some(JobState::Queued));
        blocker.run(|_| ()).unwrap();
        assert_eq!(after.run(|_| 7u32).unwrap(), 7);
    }

    #[test]
    fn shutdown_discards_queued_jobs() {
        let fs = dfs();
        let cfg = SchedConfig {
            max_in_flight: 1,
            ..SchedConfig::default()
        };
        let sched = JobScheduler::new(&fs, cfg);
        let (gate_tx, gate_rx) = mpsc::channel::<()>();
        let blocker = sched
            .submit("blocker", move |_| {
                gate_rx.recv().ok();
            })
            .unwrap();
        while sched.running() == 0 {
            std::thread::yield_now();
        }
        let queued = sched.submit("never-runs", |_| 1u8).unwrap();
        sched.shutdown();
        assert_eq!(queued.join(), Err(SchedError::Shutdown));
        assert!(matches!(
            sched.submit("late", |_| 2u8),
            Err(SchedError::Shutdown)
        ));
        gate_tx.send(()).unwrap();
        blocker.join().unwrap();
    }

    #[test]
    fn drain_waits_for_everything() {
        let fs = dfs();
        let sched = JobScheduler::new(&fs, SchedConfig::default());
        let done = Arc::new(AtomicUsize::new(0));
        for i in 0..6 {
            let done = Arc::clone(&done);
            sched
                .submit(&format!("d{i}"), move |_| {
                    std::thread::sleep(Duration::from_millis(5));
                    done.fetch_add(1, Ordering::SeqCst);
                })
                .unwrap();
        }
        sched.drain();
        assert_eq!(done.load(Ordering::SeqCst), 6);
        assert_eq!(sched.queue_depth(), 0);
        assert_eq!(sched.running(), 0);
    }

    #[test]
    fn real_mapreduce_jobs_share_the_slot_pool() {
        let mut cfg = sh_dfs::ClusterConfig::small_for_tests();
        cfg.worker_threads = Some(2);
        let fs = Dfs::new(cfg);
        let mut w = fs.create("/in").unwrap();
        for i in 0..2000 {
            w.write_line(&format!("w{} common", i % 10));
        }
        w.close().unwrap();
        let sched = JobScheduler::new(&fs, SchedConfig::default());
        let handles: Vec<_> = (0..3)
            .map(|i| {
                sched
                    .submit(&format!("wc{i}"), move |dfs| {
                        use crate::context::{MapContext, ReduceContext};
                        use crate::job::{text, JobBuilder, Mapper, Reducer};
                        use crate::split::InputSplit;
                        struct M;
                        impl Mapper for M {
                            type K = String;
                            type V = u64;
                            fn map_bytes(
                                &self,
                                s: &InputSplit,
                                data: &[u8],
                                ctx: &mut MapContext<String, u64>,
                            ) {
                                for t in text(s, data).split_whitespace() {
                                    ctx.emit(t.to_string(), 1);
                                }
                            }
                        }
                        struct R;
                        impl Reducer for R {
                            type K = String;
                            type V = u64;
                            fn reduce(&self, k: &String, vs: Vec<u64>, ctx: &mut ReduceContext) {
                                ctx.output(&format!("{k} {}", vs.iter().sum::<u64>()));
                            }
                        }
                        JobBuilder::new(dfs, "wc")
                            .input_file("/in")
                            .unwrap()
                            .mapper(M)
                            .reducer(R, 2)
                            .build()
                            .unwrap()
                            .run()
                            .unwrap()
                    })
                    .unwrap()
            })
            .collect();
        let mut outputs = Vec::new();
        for h in handles {
            let outcome = h.join().unwrap();
            let mut lines: Vec<String> = outcome.rows.lines().map(str::to_string).collect();
            lines.sort();
            outputs.push(lines);
        }
        assert!(outputs.windows(2).all(|w| w[0] == w[1]));
        assert!(outputs[0].contains(&"common 2000".to_string()));
        // Three concurrent jobs on a two-slot cluster never ran more
        // than two task attempts at once.
        assert!(
            fs.slots().peak() <= 2,
            "slot pool breached: peak {}",
            fs.slots().peak()
        );
    }
}
