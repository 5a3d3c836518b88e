//! Script execution: routing statements to the operations layer.
//!
//! A statement that runs cluster jobs is one function of the DFS and the
//! bindings it names, `run_job`, which returns the statement's effects as
//! a [`StmtOutput`]. Inline execution, the server's tickets and `SUBMIT`
//! all call it and differ only in the thread that runs it; every
//! statement's output reaches its session through [`SessionCtx::absorb`].

use std::collections::HashMap;
use std::fmt::{self, Write as _};
use std::sync::atomic::Ordering;

use sh_core::ops;
use sh_core::storage;
use sh_core::{OpError, OpResult, SpatialFile};
use sh_dfs::{Dfs, FaultPlan, SlotPool};
use sh_geom::algorithms::closest_pair::PointPair;
use sh_geom::{Point, Polygon, Record, Rect};
use sh_mapreduce::{JobHandle, JobScheduler, Rows, SchedConfig, Ticket};
use sh_trace::{Event, JobProfile, Sampler, Waterfall};

use crate::ast::{RecordType, Script, ScrubTarget, Stmt};

/// Largest `SET retry_backoff_ms` a client may set: one minute.
const MAX_RETRY_BACKOFF_MS: u64 = 60_000;

/// Evaluates `$body` with the type `$R` bound to the record type that
/// `$rtype` names: the one place a [`RecordType`] becomes a type
/// parameter.
macro_rules! with_record_type {
    ($rtype:expr, $R:ident => $body:expr) => {
        match $rtype {
            RecordType::Point => {
                type $R = Point;
                $body
            }
            RecordType::Rectangle => {
                type $R = Rect;
                $body
            }
            RecordType::Polygon => {
                type $R = Polygon;
                $body
            }
        }
    };
}

/// Errors from parsing or executing a script.
#[derive(Debug)]
pub enum PigeonError {
    /// Syntax error with its line number.
    Parse { message: String, line: usize },
    /// Reference to an unbound variable.
    Undefined(String),
    /// Statement applied to a value of the wrong kind.
    Type(String),
    /// Underlying operation failure.
    Op(OpError),
    /// A `SUBMIT`ted job failed (reported at `WAIT`).
    Job(String),
}

impl fmt::Display for PigeonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PigeonError::Parse { message, line } => {
                write!(f, "syntax error on line {line}: {message}")
            }
            PigeonError::Undefined(v) => write!(f, "undefined dataset: {v}"),
            PigeonError::Type(m) => write!(f, "type error: {m}"),
            PigeonError::Op(e) => write!(f, "execution error: {e}"),
            PigeonError::Job(m) => write!(f, "job error: {m}"),
        }
    }
}

impl std::error::Error for PigeonError {}

impl From<OpError> for PigeonError {
    fn from(e: OpError) -> Self {
        PigeonError::Op(e)
    }
}

impl From<sh_dfs::DfsError> for PigeonError {
    fn from(e: sh_dfs::DfsError) -> Self {
        PigeonError::Op(OpError::Dfs(e))
    }
}

/// A bound value in the script environment.
#[derive(Clone, Debug)]
pub enum Value {
    /// An unindexed file in the DFS.
    Heap { path: String, rtype: RecordType },
    /// A spatially-indexed file.
    Indexed {
        file: SpatialFile,
        rtype: RecordType,
    },
    /// A materialized result set (one record per row). Shared, not
    /// copied, by every binding, `DUMP` and scheduled statement holding
    /// it.
    Result(Rows),
}

/// The Pigeon execution engine: an environment of named datasets over a
/// simulated cluster.
pub struct Pigeon {
    dfs: Dfs,
    /// Engine-owned session backing the classic single-client entry
    /// points ([`Pigeon::execute`], [`crate::run_script`]); servers hand
    /// [`Pigeon::execute_with`] one [`SessionCtx`] per connection.
    session: SessionCtx,
    /// Multi-job scheduler, created with the default [`SchedConfig`] by
    /// the first scheduled statement (or shared across engines via
    /// [`Pigeon::with_scheduler`]).
    sched: Option<JobScheduler>,
    /// Time-series sampler over the global registry, started lazily by
    /// the first `STATS;`, so an engine that never asks runs no sampling
    /// thread.
    sampler: Option<Sampler>,
    /// Background integrity scrubber (`SET scrub_interval <ms>;`);
    /// stopped and joined when replaced, disabled, or the engine drops.
    scrubber: Option<Scrubber>,
}

/// Per-client execution state: variable bindings, in-flight `SUBMIT`s,
/// and the knobs `SET` scopes to a single session. Each server
/// connection owns one — so one client's `SET` never changes another's
/// answers — while the CLI driver uses the engine's default session.
#[derive(Default)]
pub struct SessionCtx {
    /// Named datasets bound by this session's statements.
    pub vars: HashMap<String, Value>,
    /// Submitted-but-unwaited jobs by scheduler job id.
    pending: HashMap<u64, JobHandle<Result<StmtOutput, String>>>,
    /// Slow-query threshold (`SET slow_query_ms <n>;`); 0 disables.
    slow_query_ms: u64,
    /// `SET result_limit <n>;`: cap on rows a single `DUMP` emits
    /// (0 = unlimited). Session-local by design — the observable proof
    /// that one connection's `SET` cannot leak into another's output.
    result_limit: usize,
}

impl SessionCtx {
    /// An empty session with default knobs.
    pub fn new() -> SessionCtx {
        SessionCtx::default()
    }

    /// A session seeded with this one's bindings and knobs but none of
    /// its in-flight state — what a new server connection starts from.
    pub fn fork(&self) -> SessionCtx {
        SessionCtx {
            vars: self.vars.clone(),
            slow_query_ms: self.slow_query_ms,
            result_limit: self.result_limit,
            ..SessionCtx::default()
        }
    }

    /// Looks up a bound value.
    pub fn get(&self, var: &str) -> Option<&Value> {
        self.vars.get(var)
    }

    /// Applies a finished statement's output to this session, whichever
    /// thread ran it, and returns what it dumped. Installs its binding;
    /// when its jobs took at least `SET slow_query_ms`, journals a
    /// `query.slow` event and appends the full rendered profile to the
    /// dump.
    pub fn absorb(&mut self, out: StmtOutput) -> Vec<Rows> {
        let StmtOutput {
            binding,
            mut dumped,
            profile,
        } = out;
        if let Some((var, val)) = binding {
            self.vars.insert(var, val);
        }
        if let Some(p) = profile.filter(|_| self.slow_query_ms > 0) {
            let wall_ms = p.wall.as_millis() as u64;
            if wall_ms >= self.slow_query_ms {
                sh_trace::events::emit(
                    "query.slow",
                    vec![("op", p.job.clone()), ("wall_ms", wall_ms.to_string())],
                );
                dumped.push(Rows::from_text(format!(
                    "slow query: {} took {wall_ms}ms (threshold {}ms)\n{}",
                    p.job,
                    self.slow_query_ms,
                    p.render()
                )));
            }
        }
        dumped
    }
}

/// What a statement hands back: the variable it bound (if any), whatever
/// it dumped, and the profile of the jobs it ran. Fed into its session
/// with [`SessionCtx::absorb`].
#[derive(Default)]
pub struct StmtOutput {
    binding: Option<(String, Value)>,
    dumped: Vec<Rows>,
    profile: Option<JobProfile>,
}

impl StmtOutput {
    fn dump(rows: Rows) -> StmtOutput {
        StmtOutput {
            dumped: vec![rows],
            ..StmtOutput::default()
        }
    }

    /// Binds `var` to the heap file at `path`.
    fn heap(var: &str, path: &str, rtype: RecordType) -> StmtOutput {
        let path = path.to_string();
        StmtOutput {
            binding: Some((var.to_string(), Value::Heap { path, rtype })),
            ..StmtOutput::default()
        }
    }

    /// Binds `var` to what an operation answered, with the profile of
    /// the jobs it ran.
    fn bind<T>(var: &str, op: &str, r: OpResult<T>, value: impl FnOnce(T) -> Value) -> StmtOutput {
        let profile = Some(r.profile(op));
        StmtOutput {
            binding: Some((var.to_string(), value(r.value))),
            dumped: Vec::new(),
            profile,
        }
    }
}

/// Outcome of [`Pigeon::admit_stmt`]: the statement either ran inline,
/// was queued behind a ticket, or was rejected by admission control.
pub enum Admission<'a> {
    /// Ran synchronously; here is what it dumped.
    Done(Vec<Rows>),
    /// The scheduler queue is full — back off and retry.
    Busy,
    /// Queued; the caller runs it with the ticket once it is admitted.
    Pending(StmtTicket<'a>),
}

/// A job statement's place in the scheduler's queue. Its holder runs the
/// statement, on its own thread, once the scheduler admits it.
pub struct StmtTicket<'a> {
    ticket: Ticket,
    stmt: &'a Stmt,
    vars: &'a HashMap<String, Value>,
}

impl StmtTicket<'_> {
    /// Scheduler job id of this statement.
    pub fn id(&self) -> u64 {
        self.ticket.id()
    }

    /// Waits at most `timeout` while the statement is queued; `false` if
    /// it still is. After `true`, [`StmtTicket::run`] does not wait.
    pub fn wait_queued(&self, timeout: std::time::Duration) -> bool {
        self.ticket.wait_queued(timeout)
    }

    /// Waits for admission, then runs the statement on this thread. A
    /// failure reports as [`PigeonError::Job`], as a `SUBMIT`ted
    /// statement's does at `WAIT`.
    pub fn run(self) -> Result<StmtOutput, PigeonError> {
        let StmtTicket { ticket, stmt, vars } = self;
        match ticket.run(|dfs| run_job(dfs, stmt, vars)) {
            Ok(Ok(out)) => Ok(out),
            Ok(Err(e)) => Err(PigeonError::Job(e.to_string())),
            Err(e) => Err(PigeonError::Job(e.to_string())),
        }
    }

    /// Dequeues the statement if it is still queued (an admitted one is
    /// run by its holder). True if the queue slot was reclaimed.
    pub fn cancel(&self) -> bool {
        self.ticket.cancel()
    }
}

impl Pigeon {
    /// Creates an engine over the given DFS.
    pub fn new(dfs: &Dfs) -> Pigeon {
        Pigeon {
            dfs: dfs.clone(),
            session: SessionCtx::default(),
            sched: None,
            sampler: None,
            scrubber: None,
        }
    }

    /// Creates an engine that shares an existing scheduler instead of
    /// lazily creating its own — how the server gives every connection
    /// one admission-controlled queue. A scheduler is configured where it
    /// is built ([`JobScheduler::new`]); to run with other admission
    /// settings, build one and pass it here.
    pub fn with_scheduler(dfs: &Dfs, sched: &JobScheduler) -> Pigeon {
        Pigeon {
            sched: Some(sched.clone()),
            ..Pigeon::new(dfs)
        }
    }

    /// The engine's scheduler, created on first use.
    fn scheduler(&mut self) -> &JobScheduler {
        self.sched
            .get_or_insert_with(|| JobScheduler::new(&self.dfs, SchedConfig::default()))
    }

    /// Looks up a bound value in the engine's own session.
    pub fn get(&self, var: &str) -> Option<&Value> {
        self.session.get(var)
    }

    /// Executes a script against the engine's own session; returns the
    /// concatenated lines of all `DUMP` statements in order.
    pub fn execute(&mut self, script: &Script) -> Result<Vec<String>, PigeonError> {
        let mut sess = std::mem::take(&mut self.session);
        let r = self.execute_with(&mut sess, script);
        self.session = sess;
        r
    }

    /// Executes a script against a caller-owned session (one per server
    /// connection).
    pub fn execute_with(
        &mut self,
        sess: &mut SessionCtx,
        script: &Script,
    ) -> Result<Vec<String>, PigeonError> {
        let mut dumped = Vec::new();
        for stmt in &script.stmts {
            dumped.extend(self.execute_stmt(sess, stmt)?);
        }
        Ok(dumped
            .iter()
            .flat_map(|rows| rows.lines().map(str::to_string))
            .collect())
    }

    /// Admits one statement for a session: statements that run cluster
    /// jobs are queued on the scheduler — so admission control applies,
    /// and the caller can watch the queue, cancel, or run the statement
    /// once admitted — while everything else runs inline. `QueueFull`
    /// surfaces as [`Admission::Busy`] rather than an error; it is the
    /// server's 429 path.
    pub fn admit_stmt<'a>(
        &mut self,
        sess: &'a mut SessionCtx,
        stmt: &'a Stmt,
        tenant: &str,
    ) -> Result<Admission<'a>, PigeonError> {
        if job_inputs(stmt).is_none() {
            return Ok(Admission::Done(self.execute_stmt(sess, stmt)?));
        }
        match self.scheduler().enqueue_as(tenant, stmt_verb(stmt)) {
            Ok(ticket) => Ok(Admission::Pending(StmtTicket {
                ticket,
                stmt,
                vars: &sess.vars,
            })),
            Err(sh_mapreduce::SchedError::QueueFull) => Ok(Admission::Busy),
            Err(e) => Err(PigeonError::Job(e.to_string())),
        }
    }

    /// Runs one statement on this thread and absorbs its output.
    fn execute_stmt(
        &mut self,
        sess: &mut SessionCtx,
        stmt: &Stmt,
    ) -> Result<Vec<Rows>, PigeonError> {
        let out = self.run(sess, stmt)?;
        Ok(sess.absorb(out))
    }

    /// One statement's output, not yet absorbed. Job statements go to
    /// `run_job`; the rest read or change the engine or the live session
    /// (`DUMP`, `SET`, `WAIT`, ...), which is why they run on the
    /// caller's thread.
    fn run(&mut self, sess: &mut SessionCtx, stmt: &Stmt) -> Result<StmtOutput, PigeonError> {
        Ok(match stmt {
            Stmt::Profile(inner) | Stmt::ExplainAnalyze(inner) => {
                decorate(stmt, self.run(sess, inner)?)
            }
            Stmt::Load { var, path, rtype } => {
                if !self.dfs.exists(path) {
                    return Err(PigeonError::Undefined(format!("no such file {path}")));
                }
                StmtOutput::heap(var, path, *rtype)
            }
            Stmt::Dump { src } => {
                let rows = match lookup(&sess.vars, src)? {
                    Value::Result(rows) => rows.clone(),
                    Value::Heap { path, .. } => Rows::from_text(self.dfs.read_to_string(path)?),
                    Value::Indexed { file, .. } => one_row(format!(
                        "indexed file {} ({}; {} partitions, {} records)",
                        file.dir,
                        file.kind.name(),
                        file.partitions.len(),
                        file.total_records()
                    )),
                };
                StmtOutput::dump(limit_rows(rows, sess.result_limit))
            }
            Stmt::Store { src, path } => {
                let Value::Result(rows) = lookup(&sess.vars, src)? else {
                    return Err(PigeonError::Type(
                        "STORE expects a computed result set".into(),
                    ));
                };
                let mut w = self.dfs.create(path)?;
                w.write_str(rows.text());
                w.close()?;
                StmtOutput::default()
            }
            Stmt::Stats => {
                let sampler = self.sampler.get_or_insert_with(|| {
                    Sampler::start(sh_trace::global(), std::time::Duration::from_millis(200))
                });
                // Force a fresh sample so STATS reflects the statements
                // that just ran, not the last background tick.
                sampler.tick();
                StmtOutput::dump(Rows::from_text(sampler.render()))
            }
            Stmt::Events { n, filter } => {
                let events = sh_trace::journal().recent(n.unwrap_or(20), filter.as_deref());
                StmtOutput::dump(if events.is_empty() {
                    one_row("events: none recorded")
                } else {
                    Rows::from_lines(events.iter().map(Event::render))
                })
            }
            Stmt::Set { key, value } => {
                self.apply_set(sess, key, value)?;
                StmtOutput::default()
            }
            Stmt::Submit(inner) => {
                forbid_nested_async(inner)?;
                let name = stmt_verb(inner);
                // A statement that runs no jobs runs now, against the
                // live session; its output waits for `WAIT` like a job's.
                let ran = job_inputs(inner)
                    .is_none()
                    .then(|| self.run(sess, inner).map_err(|e| e.to_string()));
                let sched = self.scheduler();
                let submitted = match ran {
                    Some(out) => sched.submit(name, move |_: &Dfs| out),
                    None => sched.submit(name, scheduled(inner, &sess.vars)),
                };
                let handle = submitted.map_err(|e| PigeonError::Job(e.to_string()))?;
                let id = handle.id;
                sess.pending.insert(id, handle);
                StmtOutput::dump(one_row(format!("submitted job {id} ({name})")))
            }
            Stmt::Jobs => StmtOutput::dump(match &self.sched {
                Some(sched) => Rows::from_lines(
                    sched
                        .jobs()
                        .iter()
                        .map(|j| format!("job {} {} [{}]: {}", j.id, j.name, j.tenant, j.state)),
                ),
                None => one_row("no jobs submitted"),
            }),
            Stmt::Wait { id } => {
                let handle = sess
                    .pending
                    .remove(id)
                    .ok_or_else(|| PigeonError::Type(format!("WAIT {id}: no such pending job")))?;
                match handle.join() {
                    Ok(Ok(out)) => out,
                    Ok(Err(msg)) => return Err(PigeonError::Job(format!("job {id}: {msg}"))),
                    Err(e) => return Err(PigeonError::Job(format!("job {id}: {e}"))),
                }
            }
            _ => run_job(&self.dfs, stmt, &sess.vars)?,
        })
    }

    /// Applies a `SET <option> <value>;`. Most knobs configure the
    /// cluster (shared by every session); `slow_query_ms` and
    /// `result_limit` are session-local.
    fn apply_set(
        &mut self,
        sess: &mut SessionCtx,
        key: &str,
        value: &str,
    ) -> Result<(), PigeonError> {
        let num = |v: &str| {
            v.parse::<u64>().map_err(|_| {
                PigeonError::Type(format!(
                    "SET {key} expects a non-negative integer, got {v:?}"
                ))
            })
        };
        let flag = |v: &str| match v.to_ascii_lowercase().as_str() {
            "true" | "on" | "1" => Ok(true),
            "false" | "off" | "0" => Ok(false),
            _ => Err(PigeonError::Type(format!(
                "SET {key} expects true/false, got {v:?}"
            ))),
        };
        match key.to_ascii_lowercase().as_str() {
            "retries" => {
                let n = num(value)? as usize;
                self.dfs.update_ft_options(|ft| ft.max_task_attempts = n);
            }
            "blacklist_threshold" => {
                let n = num(value)? as usize;
                self.dfs
                    .update_ft_options(|ft| ft.node_blacklist_threshold = n);
            }
            "worker_threads" => {
                // Resizes the cluster's slot pool; 0 means every core.
                let n = num(value)? as usize;
                let count = SlotPool::count_for((n > 0).then_some(n));
                self.dfs.slots().set_total(count);
            }
            "retry_backoff_ms" => {
                // Bounded: a retrying attempt sleeps `attempt x backoff`
                // while its job holds one of the scheduler's in-flight
                // slots, so one client must not park that slot for years.
                let ms = num(value)?;
                if ms > MAX_RETRY_BACKOFF_MS {
                    return Err(PigeonError::Type(format!(
                        "SET retry_backoff_ms {ms} exceeds the bound of \
                         {MAX_RETRY_BACKOFF_MS} ms"
                    )));
                }
                self.dfs.update_ft_options(|ft| ft.retry_backoff_ms = ms);
            }
            "speculative" => {
                let on = flag(value)?;
                self.dfs
                    .update_ft_options(|ft| ft.speculative_execution = on);
            }
            "speculation_threshold_ms" => {
                let ms = num(value)?;
                self.dfs
                    .update_ft_options(|ft| ft.speculation_threshold_ms = ms);
            }
            "fault_plan" => {
                let plan = FaultPlan::parse(value).map_err(PigeonError::Type)?;
                self.dfs.update_ft_options(|ft| ft.fault_plan = plan);
            }
            "cache_budget" => {
                // Byte budget of the per-node block cache; 0 disables it.
                self.dfs.cache().set_budget(num(value)?);
            }
            "telemetry_log" => {
                // JSONL sink for the event journal; `none`/`off` detaches.
                let path = match value.to_ascii_lowercase().as_str() {
                    "none" | "off" => None,
                    _ => Some(value),
                };
                sh_trace::journal()
                    .set_log_path(path)
                    .map_err(PigeonError::Type)?;
            }
            "slow_query_ms" => {
                // Statements slower than this auto-dump their profile;
                // 0 disables the slow-query log. Session-local.
                sess.slow_query_ms = num(value)?;
            }
            "result_limit" => {
                // Per-session cap on rows a DUMP emits; 0 is unlimited.
                sess.result_limit = num(value)? as usize;
            }
            "scrub_interval" => {
                // Background integrity scrubber period; 0 stops it.
                let ms = num(value)?;
                self.scrubber = None; // stop and join any previous one
                if ms > 0 {
                    let sched = self.scheduler().clone();
                    self.scrubber =
                        Some(Scrubber::start(sched, std::time::Duration::from_millis(ms)));
                }
            }
            other => {
                return Err(PigeonError::Type(format!(
                    "unknown SET option {other} (expected retries, blacklist_threshold, \
                     worker_threads, retry_backoff_ms, speculative, \
                     speculation_threshold_ms, fault_plan, cache_budget, \
                     telemetry_log, slow_query_ms, result_limit, or scrub_interval)"
                )))
            }
        }
        Ok(())
    }
}

/// Runs a job statement: the one runner, on the caller's thread inline
/// and for tickets (once admitted), and on a `SUBMIT`'s background
/// thread. It sees only `vars`, borrows the inputs it names from them,
/// and returns its effects for
/// [`SessionCtx::absorb`]. Its jobs return what they computed and write
/// nothing: the only files it writes are the ones the statement names,
/// `IMPORT`'s and `GENERATE`'s targets and `INDEX`'s directory.
fn run_job(
    dfs: &Dfs,
    stmt: &Stmt,
    vars: &HashMap<String, Value>,
) -> Result<StmtOutput, PigeonError> {
    if let Stmt::Profile(inner) | Stmt::ExplainAnalyze(inner) = stmt {
        return Ok(decorate(stmt, run_job(dfs, inner, vars)?));
    }
    Ok(match stmt {
        Stmt::Import {
            var,
            host_path,
            rtype,
            path,
        } => {
            let text = std::fs::read_to_string(host_path).map_err(|e| {
                PigeonError::Type(format!("cannot read host file {host_path}: {e}"))
            })?;
            // Every line is validated before the target exists, so a
            // failed import leaves nothing behind to block a retry.
            let mut records = String::new();
            for (lineno, raw) in text.lines().enumerate() {
                let line = raw
                    .trim()
                    .replace(',', " ")
                    .split_whitespace()
                    .collect::<Vec<_>>()
                    .join(" ");
                if line.is_empty() || line.starts_with('#') {
                    continue;
                }
                // Parse as the declared type and store the record's
                // canonical line, as every other writer of a heap does.
                let stored = with_record_type!(*rtype, R => {
                    R::parse_line(&line).map(|r| r.write_line(&mut records))
                });
                if stored.is_err() {
                    return Err(PigeonError::Type(format!(
                        "{host_path}:{}: not a valid {rtype:?} record: {raw:?}",
                        lineno + 1
                    )));
                }
                records.push('\n');
            }
            if records.is_empty() {
                return Err(PigeonError::Type(format!("{host_path}: no records")));
            }
            dfs.write_string(path, &records)?;
            StmtOutput::heap(var, path, *rtype)
        }
        Stmt::Generate {
            var,
            n,
            rtype,
            distribution,
            path,
        } => {
            use sh_workload::Distribution as D;
            let universe = sh_workload::default_universe();
            let seed = 0xBEEF ^ (*n as u64);
            match rtype {
                RecordType::Point => {
                    let dist = match distribution.as_str() {
                        "uniform" => Some(D::Uniform),
                        "gaussian" => Some(D::Gaussian),
                        "correlated" => Some(D::Correlated),
                        "anticorrelated" | "anti" => Some(D::AntiCorrelated),
                        "circular" => Some(D::Circular),
                        "osm" | "osmlike" => None,
                        other => {
                            return Err(PigeonError::Type(format!("unknown distribution {other}")))
                        }
                    };
                    let pts = match dist {
                        Some(d) => sh_workload::points(*n, d, &universe, seed),
                        None => sh_workload::osm_like_points(*n, &universe, 8, seed),
                    };
                    storage::upload(dfs, path, &pts)?;
                }
                RecordType::Rectangle => {
                    let rs = sh_workload::rects(*n, &universe, universe.width() * 0.005, seed);
                    storage::upload(dfs, path, &rs)?;
                }
                RecordType::Polygon => {
                    let ps = sh_workload::osm_like_polygons(
                        *n,
                        &universe,
                        universe.width() * 0.008,
                        seed,
                    );
                    storage::upload(dfs, path, &ps)?;
                }
            }
            StmtOutput::heap(var, path, *rtype)
        }
        Stmt::Delaunay { var, src } => {
            let r = match points(vars, "DELAUNAY", src)? {
                Input::Indexed(file) => ops::delaunay::delaunay_spatial(dfs, file)?,
                Input::Heap(path) => {
                    let uni = heap_mbr::<Point>(dfs, path)?;
                    ops::delaunay::delaunay_hadoop(dfs, path, &uni)?
                }
            };
            StmtOutput::bind(var, "delaunay", r, |tris| {
                Value::Result(Rows::from_lines(tris.iter().map(|t| {
                    format!(
                        "{} {} | {} {} | {} {}",
                        t.0[0].x, t.0[0].y, t.0[1].x, t.0[1].y, t.0[2].x, t.0[2].y
                    )
                })))
            })
        }
        Stmt::Index {
            var,
            src,
            kind,
            path,
            format,
        } => {
            let Value::Heap { path: heap, rtype } = lookup(vars, src)? else {
                return Err(PigeonError::Type(format!(
                    "INDEX expects a loaded heap file, {src} is not one"
                )));
            };
            let r = with_record_type!(*rtype, R => {
                storage::build_index_fmt::<R>(dfs, heap, path, *kind, *format)
            })?;
            StmtOutput::bind(var, "index", r, |file| Value::Indexed {
                file,
                rtype: *rtype,
            })
        }
        Stmt::RangeFilter { var, src, query } => {
            // The job's rows are bound as its mappers wrote them:
            // every row is a record's `to_line()` already.
            let (input, rtype) = dataset(vars, "FILTER", src)?;
            let r = with_record_type!(rtype, R => match input {
                Input::Indexed(file) => {
                    ops::range::range_spatial_rows::<R>(dfs, file, query, Default::default())
                }
                Input::Heap(path) => ops::range::range_hadoop_rows::<R>(dfs, path, query),
            })?;
            StmtOutput::bind(var, "range", r, Value::Result)
        }
        Stmt::Knn { var, src, q, k } => {
            let r = match points(vars, "KNN", src)? {
                Input::Indexed(file) => ops::knn::knn_spatial(dfs, file, q, *k, "")?,
                Input::Heap(path) => ops::knn::knn_hadoop(dfs, path, q, *k, "")?,
            };
            StmtOutput::bind(var, "knn", r, |pts| Value::Result(to_rows(&pts)))
        }
        Stmt::Join { var, left, right } => {
            // The job's rows are bound as it wrote them: every row is
            // already `a | b`, each side a record's `to_line()`.
            let r = match (
                lookup(vars, left)?.as_input(),
                lookup(vars, right)?.as_input(),
            ) {
                (Some((Input::Indexed(fa), ta)), Some((Input::Indexed(fb), tb))) => {
                    expect_rects(left, ta)?;
                    expect_rects(right, tb)?;
                    ops::join::distributed_join_rows(dfs, fa, fb)?
                }
                (Some((Input::Heap(pa), ta)), Some((Input::Heap(pb), tb))) => {
                    expect_rects(left, ta)?;
                    expect_rects(right, tb)?;
                    // Universe for the SJMR grid: union of both MBRs.
                    let mut uni = heap_mbr::<Rect>(dfs, pa)?;
                    uni.expand(&heap_mbr::<Rect>(dfs, pb)?);
                    ops::join::sjmr_rows(dfs, pa, pb, &uni, 16)?
                }
                _ => {
                    return Err(PigeonError::Type(
                        "JOIN needs two heap files or two indexed files".into(),
                    ))
                }
            };
            StmtOutput::bind(var, "join", r, Value::Result)
        }
        Stmt::Skyline { var, src } => {
            let r = match points(vars, "SKYLINE", src)? {
                Input::Indexed(file) => ops::skyline::skyline_spatial(dfs, file)?,
                Input::Heap(path) => ops::skyline::skyline_hadoop(dfs, path, "")?,
            };
            StmtOutput::bind(var, "skyline", r, |pts| Value::Result(to_rows(&pts)))
        }
        Stmt::ConvexHull { var, src } => {
            let r = match points(vars, "CONVEXHULL", src)? {
                Input::Indexed(file) => ops::convex_hull::hull_spatial(dfs, file)?,
                Input::Heap(path) => ops::convex_hull::hull_hadoop(dfs, path, "")?,
            };
            StmtOutput::bind(var, "convexhull", r, |pts| Value::Result(to_rows(&pts)))
        }
        Stmt::ClosestPair { var, src } => {
            let Value::Indexed { file, rtype } = lookup(vars, src)? else {
                return Err(PigeonError::Type(
                    "CLOSESTPAIR requires an indexed dataset".into(),
                ));
            };
            expect_points(src, *rtype)?;
            let r = ops::closest_pair::closest_pair_spatial(dfs, file)?;
            StmtOutput::bind(var, "closestpair", r, pair_result)
        }
        Stmt::FarthestPair { var, src } => {
            let r = match points(vars, "FARTHESTPAIR", src)? {
                Input::Indexed(file) => ops::farthest_pair::farthest_pair_spatial(dfs, file)?,
                Input::Heap(path) => ops::farthest_pair::farthest_pair_hadoop(dfs, path)?,
            };
            StmtOutput::bind(var, "farthestpair", r, pair_result)
        }
        Stmt::Union { var, src } => {
            let (input, rtype) = dataset(vars, "UNION", src)?;
            if rtype != RecordType::Polygon {
                return Err(PigeonError::Type(format!(
                    "UNION expects polygons, {src} is not"
                )));
            }
            let r = match input {
                Input::Indexed(file) if file.is_disjoint() => {
                    ops::union::union_enhanced(dfs, file)?
                }
                Input::Indexed(file) => ops::union::union_spatial(dfs, file)?,
                Input::Heap(path) => ops::union::union_hadoop(dfs, path)?,
            };
            StmtOutput::bind(var, "union", r, |segs| Value::Result(to_rows(&segs)))
        }
        Stmt::Voronoi { var, src } => {
            let r = match points(vars, "VORONOI", src)? {
                Input::Indexed(file) => ops::voronoi::voronoi_spatial(dfs, file)?,
                Input::Heap(path) => {
                    let uni = heap_mbr::<Point>(dfs, path)?;
                    ops::voronoi::voronoi_hadoop(dfs, path, &uni)?
                }
            };
            StmtOutput::bind(var, "voronoi", r, |cells| {
                Value::Result(Rows::from_lines(cells.iter().map(|c| {
                    format!(
                        "{} {} cell[{} vertices]",
                        c.site.x,
                        c.site.y,
                        c.vertices.len()
                    )
                })))
            })
        }
        Stmt::Describe { src } => {
            let (stats, profile) = match lookup(vars, src)? {
                Value::Indexed { file, .. } => (ops::aggregate::stats_spatial(file), None),
                Value::Heap { path, rtype } => {
                    let r = with_record_type!(*rtype, R => {
                        ops::aggregate::stats_hadoop::<R>(dfs, path)
                    })?;
                    let profile = Some(r.profile("describe"));
                    (r.value, profile)
                }
                Value::Result(rows) => {
                    return Ok(StmtOutput::dump(one_row(format!(
                        "result set: {} rows",
                        rows.len()
                    ))))
                }
            };
            StmtOutput {
                profile,
                ..StmtOutput::dump(one_row(format!(
                    "{src}: {} records, {} bytes, mbr [{}, {}] x [{}, {}]",
                    stats.records,
                    stats.bytes,
                    stats.mbr.x1,
                    stats.mbr.x2,
                    stats.mbr.y1,
                    stats.mbr.y2
                )))
            }
        }
        Stmt::Scrub { target } => {
            let prefix: &str = match target {
                None => "",
                Some(ScrubTarget::Path(p)) => p,
                Some(ScrubTarget::Var(v)) => match lookup(vars, v)? {
                    Value::Heap { path, .. } => path,
                    Value::Indexed { file, .. } => &file.dir,
                    Value::Result(_) => {
                        return Err(PigeonError::Type(format!(
                            "SCRUB {v}: result sets have no storage to scrub"
                        )))
                    }
                },
            };
            StmtOutput::dump(one_row(dfs.scrub(prefix).to_string()))
        }
        _ => unreachable!("{} runs no jobs", stmt_verb(stmt)),
    })
}

fn lookup<'a>(vars: &'a HashMap<String, Value>, var: &str) -> Result<&'a Value, PigeonError> {
    vars.get(var)
        .ok_or_else(|| PigeonError::Undefined(var.to_string()))
}

/// A dataset a job statement reads, borrowed from the bindings.
enum Input<'a> {
    Heap(&'a str),
    Indexed(&'a SpatialFile),
}

impl Value {
    /// The dataset this value names, with its record type; `None` for a
    /// result set.
    fn as_input(&self) -> Option<(Input<'_>, RecordType)> {
        match self {
            Value::Heap { path, rtype } => Some((Input::Heap(path), *rtype)),
            Value::Indexed { file, rtype } => Some((Input::Indexed(file), *rtype)),
            Value::Result(_) => None,
        }
    }
}

/// Resolves the dataset `verb` reads from `var`, with its record type.
fn dataset<'a>(
    vars: &'a HashMap<String, Value>,
    verb: &str,
    var: &str,
) -> Result<(Input<'a>, RecordType), PigeonError> {
    lookup(vars, var)?
        .as_input()
        .ok_or_else(|| PigeonError::Type(format!("{verb} over a result set")))
}

/// [`dataset`] for the operations over points.
fn points<'a>(
    vars: &'a HashMap<String, Value>,
    verb: &str,
    var: &str,
) -> Result<Input<'a>, PigeonError> {
    let (input, rtype) = dataset(vars, verb, var)?;
    expect_points(var, rtype)?;
    Ok(input)
}

/// The MBR of a heap file, from one driver-side read (cheap relative to
/// jobs): the universe the heap-file fallbacks grid over.
fn heap_mbr<R: Record>(dfs: &Dfs, path: &str) -> Result<Rect, PigeonError> {
    let text = dfs.read_to_string(path)?;
    let mut mbr = Rect::empty();
    sh_geom::text::scan::<R>(&text, |_, r| mbr.expand(&r.mbr()))
        .map_err(|e| OpError::from(e.error))?;
    Ok(mbr)
}

/// `PROFILE` and `EXPLAIN ANALYZE`: the wrapped statement's output with
/// the profile it returned rendered after it — as a table or as a
/// waterfall. The profile stays in the output for the slow-query log.
fn decorate(stmt: &Stmt, mut out: StmtOutput) -> StmtOutput {
    let explain = matches!(stmt, Stmt::ExplainAnalyze(_));
    let rendered = match (&out.profile, explain) {
        (None, false) => one_row("profile: statement ran no jobs"),
        (None, true) => one_row("explain analyze: statement ran no jobs"),
        (Some(p), false) => Rows::from_text(p.render()),
        (Some(p), true) => match &p.spans {
            Some(root) => {
                Rows::from_text(format!("explain analyze: {}\n{}", p.job, Waterfall(root)))
            }
            None => one_row("explain analyze: statement recorded no spans"),
        },
    };
    out.dumped.push(rendered);
    out
}

/// Renders typed records as a result set, one `to_line()` row each.
fn to_rows<R: Record>(records: &[R]) -> Rows {
    let mut text = String::new();
    for r in records {
        r.write_line(&mut text);
        text.push('\n');
    }
    Rows::from_text(text)
}

/// The answer of `CLOSESTPAIR` / `FARTHESTPAIR`: one row, if any.
fn pair_result(pair: Option<PointPair>) -> Value {
    Value::Result(Rows::from_lines(pair.map(|p| {
        format!("{} | {} | {}", p.a.to_line(), p.b.to_line(), p.distance)
    })))
}

/// A one-row result set (status lines such as `DESCRIBE`'s).
fn one_row(line: impl AsRef<str>) -> Rows {
    Rows::from_lines([line])
}

/// Applies `SET result_limit <n>;` to what a `DUMP` is about to emit:
/// the first `limit` rows and a marker row counting the rest (0 is
/// unlimited, and a result within the limit is passed on untouched).
fn limit_rows(rows: Rows, limit: usize) -> Rows {
    if limit == 0 || rows.len() <= limit {
        return rows;
    }
    let mut text = String::from(rows.head(limit));
    let _ = writeln!(
        text,
        "... ({} rows truncated by result_limit {limit})",
        rows.len() - limit
    );
    Rows::from_text(text)
}

/// Scheduler jobs run whole statements; letting them submit or wait on
/// further jobs would deadlock a full queue on itself.
fn forbid_nested_async(stmt: &Stmt) -> Result<(), PigeonError> {
    match stmt {
        Stmt::Submit(_) | Stmt::Jobs | Stmt::Wait { .. } => Err(PigeonError::Type(
            "SUBMIT cannot wrap SUBMIT, JOBS, or WAIT".into(),
        )),
        Stmt::Profile(inner) | Stmt::ExplainAnalyze(inner) => forbid_nested_async(inner),
        _ => Ok(()),
    }
}

/// Short scheduler-facing name for a submitted statement.
fn stmt_verb(stmt: &Stmt) -> &'static str {
    match stmt {
        Stmt::Load { .. } => "load",
        Stmt::Import { .. } => "import",
        Stmt::Generate { .. } => "generate",
        Stmt::Delaunay { .. } => "delaunay",
        Stmt::Index { .. } => "index",
        Stmt::RangeFilter { .. } => "range",
        Stmt::Knn { .. } => "knn",
        Stmt::Join { .. } => "join",
        Stmt::Skyline { .. } => "skyline",
        Stmt::ConvexHull { .. } => "convexhull",
        Stmt::ClosestPair { .. } => "closestpair",
        Stmt::FarthestPair { .. } => "farthestpair",
        Stmt::Union { .. } => "union",
        Stmt::Voronoi { .. } => "voronoi",
        Stmt::Dump { .. } => "dump",
        Stmt::Describe { .. } => "describe",
        Stmt::Store { .. } => "store",
        Stmt::Profile(inner) => stmt_verb(inner),
        Stmt::ExplainAnalyze(inner) => stmt_verb(inner),
        Stmt::Set { .. } => "set",
        Stmt::Submit(_) => "submit",
        Stmt::Jobs => "jobs",
        Stmt::Wait { .. } => "wait",
        Stmt::Stats => "stats",
        Stmt::Events { .. } => "events",
        Stmt::Scrub { .. } => "scrub",
    }
}

/// The bindings a job statement reads, or `None` for a statement that
/// runs no jobs. Job statements run in `run_job`, through the scheduler
/// on a server so that admission control applies to them; the rest
/// (`LOAD`, `SET`, `DUMP`, `WAIT`, ...) finish in microseconds and need
/// the live session, so they run on the caller's thread.
fn job_inputs(stmt: &Stmt) -> Option<Vec<&String>> {
    Some(match stmt {
        Stmt::Import { .. } | Stmt::Generate { .. } => vec![],
        Stmt::Delaunay { src, .. }
        | Stmt::Index { src, .. }
        | Stmt::RangeFilter { src, .. }
        | Stmt::Knn { src, .. }
        | Stmt::Skyline { src, .. }
        | Stmt::ConvexHull { src, .. }
        | Stmt::ClosestPair { src, .. }
        | Stmt::FarthestPair { src, .. }
        | Stmt::Union { src, .. }
        | Stmt::Voronoi { src, .. }
        | Stmt::Describe { src } => vec![src],
        Stmt::Join { left, right, .. } => vec![left, right],
        Stmt::Scrub { target } => match target {
            Some(ScrubTarget::Var(v)) => vec![v],
            None | Some(ScrubTarget::Path(_)) => vec![],
        },
        Stmt::Profile(inner) | Stmt::ExplainAnalyze(inner) => return job_inputs(inner),
        Stmt::Load { .. }
        | Stmt::Dump { .. }
        | Stmt::Store { .. }
        | Stmt::Set { .. }
        | Stmt::Submit(_)
        | Stmt::Jobs
        | Stmt::Wait { .. }
        | Stmt::Stats
        | Stmt::Events { .. } => return None,
    })
}

/// A job statement packaged for the scheduler. The closure carries the
/// statement and those of the bindings it names that exist — a missing
/// one fails inside the job, as it would inline — and nothing else.
fn scheduled(
    stmt: &Stmt,
    vars: &HashMap<String, Value>,
) -> impl FnOnce(&Dfs) -> Result<StmtOutput, String> + Send + 'static {
    let named: HashMap<String, Value> = job_inputs(stmt)
        .into_iter()
        .flatten()
        .filter_map(|var| vars.get_key_value(var))
        .map(|(var, value)| (var.clone(), value.clone()))
        .collect();
    let stmt = stmt.clone();
    move |dfs| run_job(dfs, &stmt, &named).map_err(|e| e.to_string())
}

/// Background integrity scrubber: one thread that periodically queues a
/// whole-namespace scrub on the job scheduler under the "scrub" tenant
/// and runs it once admitted. The tenant has no priority: under the
/// default FIFO policy a scrub queues behind every job submitted before
/// it, and fair share applies only to a scheduler built with
/// [`SchedPolicy::FairShare`](sh_mapreduce::SchedPolicy::FairShare)
/// (`sh-server --policy fair`). A full queue just skips that round.
/// Dropping the handle stops and joins the thread.
struct Scrubber {
    stop: std::sync::Arc<std::sync::atomic::AtomicBool>,
    handle: Option<std::thread::JoinHandle<()>>,
}

impl Scrubber {
    fn start(sched: JobScheduler, interval: std::time::Duration) -> Scrubber {
        use std::sync::atomic::AtomicBool;
        let stop = std::sync::Arc::new(AtomicBool::new(false));
        let watch = std::sync::Arc::clone(&stop);
        let handle = std::thread::spawn(move || loop {
            // Sleep in short slices so `SET scrub_interval 0;` (or the
            // engine dropping) stops the thread promptly.
            let mut slept = std::time::Duration::ZERO;
            while slept < interval {
                if watch.load(Ordering::Relaxed) {
                    return;
                }
                let slice = std::time::Duration::from_millis(10).min(interval - slept);
                std::thread::sleep(slice);
                slept += slice;
            }
            if watch.load(Ordering::Relaxed) {
                return;
            }
            // This thread holds the ticket and runs the scrub itself; a
            // full queue or a shut-down scheduler skips this round.
            if let Ok(ticket) = sched.enqueue_as("scrub", "scrub") {
                let _ = ticket.run(|dfs| dfs.scrub(""));
            }
        });
        Scrubber {
            stop,
            handle: Some(handle),
        }
    }
}

impl Drop for Scrubber {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
    }
}

fn expect_points(var: &str, rtype: RecordType) -> Result<(), PigeonError> {
    if rtype == RecordType::Point {
        Ok(())
    } else {
        Err(PigeonError::Type(format!("{var} must be a POINT dataset")))
    }
}

fn expect_rects(var: &str, rtype: RecordType) -> Result<(), PigeonError> {
    if rtype == RecordType::Rectangle {
        Ok(())
    } else {
        Err(PigeonError::Type(format!(
            "{var} must be a RECTANGLE dataset"
        )))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::run_script;
    use sh_core::storage::upload;
    use sh_dfs::ClusterConfig;
    use sh_workload::{osm_like_polygons, points, rects, Distribution};

    fn dfs_with_points() -> (Dfs, Vec<Point>) {
        let dfs = Dfs::new(ClusterConfig::small_for_tests());
        let uni = Rect::new(0.0, 0.0, 1000.0, 1000.0);
        let pts = points(1500, Distribution::Uniform, &uni, 101);
        upload(&dfs, "/data/points", &pts).unwrap();
        (dfs, pts)
    }

    #[test]
    fn end_to_end_range_query() {
        let (dfs, pts) = dfs_with_points();
        let out = run_script(
            &dfs,
            "p = LOAD '/data/points' AS POINT;\n\
             i = INDEX p AS grid INTO '/idx/p';\n\
             r = FILTER i BY Overlaps(RECTANGLE(100, 100, 300, 300));\n\
             DUMP r;",
        )
        .unwrap();
        let expected = pts
            .iter()
            .filter(|p| Rect::new(100.0, 100.0, 300.0, 300.0).contains_point(p))
            .count();
        assert_eq!(out.len(), expected);
    }

    #[test]
    fn index_format_binary_matches_text_results() {
        let (dfs, _) = dfs_with_points();
        let text = run_script(
            &dfs,
            "p = LOAD '/data/points' AS POINT;\n\
             i = INDEX p AS str+ INTO '/idx/t' FORMAT text;\n\
             r = FILTER i BY Overlaps(RECTANGLE(100, 100, 300, 300));\n\
             DUMP r;",
        )
        .unwrap();
        let bin = run_script(
            &dfs,
            "p = LOAD '/data/points' AS POINT;\n\
             i = INDEX p AS str+ INTO '/idx/b' FORMAT binary;\n\
             r = FILTER i BY Overlaps(RECTANGLE(100, 100, 300, 300));\n\
             DUMP r;",
        )
        .unwrap();
        let sorted = |mut v: Vec<String>| {
            v.sort();
            v
        };
        assert!(!text.is_empty());
        assert_eq!(sorted(text), sorted(bin));
        // The binary partition files really are columnar blocks.
        let part = dfs
            .list("/idx/b/")
            .into_iter()
            .find(|p| p.contains("/part-"))
            .expect("binary index has partitions");
        let raw = dfs.read_bytes(&part).unwrap();
        assert!(sh_core::colblock::is_binary(&raw));
    }

    #[test]
    fn ops_over_binary_index_match_text() {
        // KNN and SKYLINE read partitions through the generic mapper path,
        // so they must transparently decode columnar blocks.
        let (dfs, _) = dfs_with_points();
        let script = |idx: &str, fmt: &str| {
            format!(
                "p = LOAD '/data/points' AS POINT;\n\
                 i = INDEX p AS str+ INTO '{idx}' FORMAT {fmt};\n\
                 n = KNN i POINT(500, 500) K 7;\n\
                 s = SKYLINE i;\n\
                 DUMP n;\n\
                 DUMP s;"
            )
        };
        let text = run_script(&dfs, &script("/ops/t", "text")).unwrap();
        let bin = run_script(&dfs, &script("/ops/b", "binary")).unwrap();
        let sorted = |mut v: Vec<String>| {
            v.sort();
            v
        };
        assert!(!text.is_empty());
        assert_eq!(sorted(text), sorted(bin));
    }

    #[test]
    fn binary_format_rejects_polygons() {
        let dfs = Dfs::new(ClusterConfig::small_for_tests());
        let uni = Rect::new(0.0, 0.0, 100.0, 100.0);
        let polys = sh_workload::osm_like_polygons(50, &uni, 10.0, 7);
        upload(&dfs, "/polys", &polys).unwrap();
        let err = run_script(
            &dfs,
            "p = LOAD '/polys' AS POLYGON;\n\
             i = INDEX p AS grid INTO '/idx' FORMAT binary;",
        )
        .unwrap_err();
        assert!(
            err.to_string().contains("binary block format"),
            "unexpected error: {err}"
        );
    }

    #[test]
    fn end_to_end_knn_and_store() {
        let (dfs, _) = dfs_with_points();
        let out = run_script(
            &dfs,
            "p = LOAD '/data/points' AS POINT;\n\
             i = INDEX p AS str+ INTO '/idx/p';\n\
             n = KNN i POINT(500, 500) K 7;\n\
             STORE n INTO '/out/nn';\n\
             DUMP n;",
        )
        .unwrap();
        assert_eq!(out.len(), 7);
        assert_eq!(dfs.read_to_string("/out/nn").unwrap().lines().count(), 7);
    }

    #[test]
    fn end_to_end_join() {
        let dfs = Dfs::new(ClusterConfig::small_for_tests());
        let uni = Rect::new(0.0, 0.0, 500.0, 500.0);
        upload(&dfs, "/l", &rects(200, &uni, 30.0, 1)).unwrap();
        upload(&dfs, "/r", &rects(200, &uni, 30.0, 2)).unwrap();
        let indexed = run_script(
            &dfs,
            "a = LOAD '/l' AS RECTANGLE;\n\
             b = LOAD '/r' AS RECTANGLE;\n\
             ia = INDEX a AS grid INTO '/ia';\n\
             ib = INDEX b AS grid INTO '/ib';\n\
             j = JOIN ia, ib PREDICATE Overlaps;\n\
             DUMP j;",
        )
        .unwrap();
        let heap = run_script(
            &dfs,
            "a = LOAD '/l' AS RECTANGLE;\n\
             b = LOAD '/r' AS RECTANGLE;\n\
             j = JOIN a, b PREDICATE Overlaps;\n\
             DUMP j;",
        )
        .unwrap();
        let mut a = indexed;
        let mut b = heap;
        a.sort();
        b.sort();
        assert_eq!(a, b, "DJ and SJMR must agree");
        assert!(!a.is_empty());
    }

    #[test]
    fn cg_operations_run() {
        let (dfs, pts) = dfs_with_points();
        let out = run_script(
            &dfs,
            "p = LOAD '/data/points' AS POINT;\n\
             i = INDEX p AS grid INTO '/idx/p';\n\
             s = SKYLINE i;\n\
             h = CONVEXHULL i;\n\
             c = CLOSESTPAIR i;\n\
             f = FARTHESTPAIR i;\n\
             DUMP c;\n\
             DUMP f;",
        )
        .unwrap();
        assert_eq!(out.len(), 2);
        let _ = pts;
    }

    #[test]
    fn profile_statement_dumps_rendered_profile() {
        let (dfs, _) = dfs_with_points();
        let out = run_script(
            &dfs,
            "p = LOAD '/data/points' AS POINT;\n\
             i = INDEX p AS grid INTO '/idx/p';\n\
             PROFILE r = FILTER i BY Overlaps(RECTANGLE(100, 100, 300, 300));",
        )
        .unwrap();
        let text = out.join("\n");
        assert!(text.contains("job profile: range"), "{text}");
        assert!(text.contains("splitter:"), "{text}");
        assert!(text.contains("dfs:"), "{text}");

        // A statement that runs no jobs still reports something sensible.
        let out = run_script(&dfs, "p = LOAD '/data/points' AS POINT;\nPROFILE DUMP p;").unwrap();
        assert!(
            out.last().unwrap().contains("ran no jobs"),
            "{:?}",
            out.last()
        );
    }

    #[test]
    fn set_statements_adjust_fault_tolerance_options() {
        let (dfs, _) = dfs_with_points();
        run_script(
            &dfs,
            "SET retries 6;\n\
             SET blacklist_threshold 2;\n\
             SET worker_threads 3;\n\
             SET speculative true;\n\
             SET speculation_threshold_ms 99;\n\
             SET retry_backoff_ms 0;\n\
             SET cache_budget 1048576;\n\
             SET fault_plan 'fail:0@0;kill:1';",
        )
        .unwrap();
        assert_eq!(dfs.cache().budget(), 1_048_576);
        let ft = dfs.ft_options();
        assert_eq!(ft.max_task_attempts, 6);
        assert_eq!(ft.node_blacklist_threshold, 2);
        assert_eq!(dfs.slots().total(), 3);
        assert!(ft.speculative_execution);
        assert_eq!(ft.speculation_threshold_ms, 99);
        assert_eq!(ft.retry_backoff_ms, 0);
        assert_eq!(ft.fault_plan.to_string(), "fail:0@0;kill:1");
        // `worker_threads 0` restores every core; `fault_plan none`
        // clears; attempt and blacklist limits stay at least 1.
        run_script(
            &dfs,
            "SET worker_threads 0;\n\
             SET fault_plan none;\n\
             SET retries 0;\n\
             SET blacklist_threshold 0;",
        )
        .unwrap();
        let cores = std::thread::available_parallelism().unwrap().get();
        assert_eq!(dfs.slots().total(), cores);
        let ft = dfs.ft_options();
        assert!(ft.fault_plan.is_empty());
        assert_eq!(ft.max_task_attempts, 1);
        assert_eq!(ft.node_blacklist_threshold, 1);
        // Unknown options and malformed values are type errors.
        assert!(matches!(
            run_script(&dfs, "SET frobnicate 1;"),
            Err(PigeonError::Type(_))
        ));
        assert!(matches!(
            run_script(&dfs, "SET mmap on;"),
            Err(PigeonError::Type(_))
        ));
        assert!(matches!(
            run_script(&dfs, "SET retries many;"),
            Err(PigeonError::Type(_))
        ));
        assert!(matches!(
            run_script(&dfs, "SET fault_plan 'explode:7';"),
            Err(PigeonError::Type(_))
        ));
    }

    #[test]
    fn injected_faults_show_up_in_profiles() {
        let (dfs, _) = dfs_with_points();
        let out = run_script(
            &dfs,
            "p = LOAD '/data/points' AS POINT;\n\
             i = INDEX p AS grid INTO '/idx/p';\n\
             SET retry_backoff_ms 0;\n\
             SET fault_plan 'fail:0@0';\n\
             PROFILE r = FILTER i BY Overlaps(RECTANGLE(100, 100, 300, 300));",
        )
        .unwrap();
        let text = out.join("\n");
        assert!(text.contains("faults:"), "{text}");
        assert!(text.contains("1 retries"), "{text}");
    }

    #[test]
    fn submit_wait_runs_statements_asynchronously() {
        let (dfs, pts) = dfs_with_points();
        let out = run_script(
            &dfs,
            "p = LOAD '/data/points' AS POINT;\n\
             i = INDEX p AS grid INTO '/idx/p';\n\
             SUBMIT r = FILTER i BY Overlaps(RECTANGLE(100, 100, 300, 300));\n\
             SUBMIT n = KNN i POINT(500, 500) K 5;\n\
             WAIT 0;\n\
             WAIT 1;\n\
             JOBS;\n\
             DUMP r;\n\
             DUMP n;",
        )
        .unwrap();
        let text = out.join("\n");
        assert!(text.contains("submitted job 0 (range)"), "{text}");
        assert!(text.contains("submitted job 1 (knn)"), "{text}");
        assert!(text.contains("job 0 range [default]: done"), "{text}");
        assert!(text.contains("job 1 knn [default]: done"), "{text}");
        // The async range result matches the serial expectation exactly.
        let expected = pts
            .iter()
            .filter(|p| Rect::new(100.0, 100.0, 300.0, 300.0).contains_point(p))
            .count();
        // 2 submit lines + 2 JOBS lines + range rows + 5 knn rows.
        assert_eq!(out.len(), 4 + expected + 5);
    }

    #[test]
    fn wait_surfaces_the_jobs_profile_and_errors() {
        let (dfs, _) = dfs_with_points();
        // PROFILE WAIT renders the profile the submitted job produced.
        let out = run_script(
            &dfs,
            "p = LOAD '/data/points' AS POINT;\n\
             i = INDEX p AS grid INTO '/idx/p';\n\
             SUBMIT r = FILTER i BY Overlaps(RECTANGLE(100, 100, 300, 300));\n\
             PROFILE WAIT 0;",
        )
        .unwrap();
        let text = out.join("\n");
        assert!(text.contains("job profile: range"), "{text}");
        // A failing submitted statement reports at WAIT, not SUBMIT.
        let err = run_script(&dfs, "SUBMIT x = SKYLINE missing;\nWAIT 0;").unwrap_err();
        assert!(matches!(err, PigeonError::Job(_)), "{err}");
        assert!(err.to_string().contains("missing"), "{err}");
        // Waiting twice (or for an unknown id) is a type error.
        let err = run_script(&dfs, "WAIT 99;").unwrap_err();
        assert!(matches!(err, PigeonError::Type(_)), "{err}");
    }

    #[test]
    fn submit_cannot_nest_async_statements() {
        let (dfs, _) = dfs_with_points();
        for script in [
            "SUBMIT SUBMIT s = SKYLINE p;",
            "SUBMIT JOBS;",
            "SUBMIT WAIT 0;",
            "SUBMIT PROFILE WAIT 0;",
        ] {
            let err = run_script(&dfs, script).unwrap_err();
            assert!(matches!(err, PigeonError::Type(_)), "{script}: {err}");
        }
    }

    #[test]
    fn removed_set_keys_are_unknown_options() {
        // A scheduler is configured where it is built, the pool size has
        // one key (`worker_threads`), and every key has one spelling.
        let (dfs, _) = dfs_with_points();
        for set in [
            "SET sched_slots 3;",
            "SET sched_policy fair;",
            "SET sched_max_inflight 2;",
            "SET sched_queue_cap 8;",
            "SET max_task_attempts 2;",
            "SET node_blacklist_threshold 2;",
            "SET speculative_execution true;",
            "SET cache_budget_bytes 1024;",
            "SET result_limit_rows 10;",
            "SET scrub_interval_ms 20;",
        ] {
            let err = run_script(&dfs, set).unwrap_err();
            assert!(
                matches!(&err, PigeonError::Type(m) if m.starts_with("unknown SET option")),
                "{set}: {err}"
            );
        }
    }

    #[test]
    fn retry_backoff_is_bounded() {
        // A retrying attempt sleeps `attempt x backoff` holding one of
        // the scheduler's in-flight slots: an unbounded backoff would let
        // one client park that slot for years.
        let (dfs, _) = dfs_with_points();
        let mut engine = Pigeon::new(&dfs);
        let mut run = |script: &str| engine.execute(&crate::parser::parse(script).unwrap());
        run("p = LOAD '/data/points' AS POINT;\n\
             i = INDEX p AS grid INTO '/idx/p';")
        .unwrap();
        let query = "r = FILTER i BY Overlaps(RECTANGLE(100, 100, 300, 300));\nDUMP r;";
        let clean = run(query).unwrap();
        let err = run("SET retry_backoff_ms 100000000000;").unwrap_err();
        assert!(
            matches!(&err, PigeonError::Type(m) if m.contains(&MAX_RETRY_BACKOFF_MS.to_string())),
            "{err}"
        );
        assert_eq!(
            dfs.ft_options().retry_backoff_ms,
            sh_dfs::FtOptions::default().retry_backoff_ms
        );
        run("SET fault_plan 'fail:0@0';").unwrap();
        assert_eq!(run(query).unwrap(), clean);
    }

    #[test]
    fn jobs_without_scheduler_reports_empty() {
        let (dfs, _) = dfs_with_points();
        let out = run_script(&dfs, "JOBS;").unwrap();
        assert_eq!(out, vec!["no jobs submitted".to_string()]);
    }

    #[test]
    fn type_errors_are_reported() {
        let (dfs, _) = dfs_with_points();
        let err = run_script(
            &dfs,
            "p = LOAD '/data/points' AS RECTANGLE;\n\
             n = KNN p POINT(1, 1) K 2;",
        )
        .unwrap_err();
        assert!(matches!(err, PigeonError::Type(_)), "{err}");
        let err = run_script(&dfs, "DUMP nothing;").unwrap_err();
        assert!(matches!(err, PigeonError::Undefined(_)));
        let err = run_script(&dfs, "x = LOAD '/missing' AS POINT;").unwrap_err();
        assert!(matches!(err, PigeonError::Undefined(_)));
    }

    #[test]
    fn import_statement_reads_host_files() {
        let dfs = Dfs::new(ClusterConfig::small_for_tests());
        let tmp = std::env::temp_dir().join("pigeon-import-test.csv");
        std::fs::write(&tmp, "# comment\n1.5, 2.5\n3.0, 4.0\n\n5.0 6.0\n").unwrap();
        let script = format!(
            "p = IMPORT '{}' AS POINT INTO '/imp/points';\nDUMP p;",
            tmp.display()
        );
        let out = run_script(&dfs, &script).unwrap();
        assert_eq!(out.len(), 3);
        assert_eq!(out[0], "1.5 2.5");
        std::fs::remove_file(&tmp).ok();

        // Bad rows are rejected with a line number.
        std::fs::write(&tmp, "1.0 2.0\nnot a point\n").unwrap();
        let script = format!("p = IMPORT '{}' AS POINT INTO '/imp/bad';", tmp.display());
        let err = run_script(&dfs, &script).unwrap_err();
        assert!(err.to_string().contains(":2:"), "{err}");
        std::fs::remove_file(&tmp).ok();
    }

    #[test]
    fn a_failed_import_leaves_nothing_and_a_retry_succeeds() {
        let dfs = Dfs::new(ClusterConfig::small_for_tests());
        let tmp =
            std::env::temp_dir().join(format!("pigeon-import-retry-{}.csv", std::process::id()));
        let script = format!(
            "p = IMPORT '{}' AS POINT INTO '/imp/p';\nDUMP p;",
            tmp.display()
        );
        let before = dfs.list("/");
        // A bad line after good ones, then a file with no records.
        for bad in ["1.0 2.0\n3.0 4.0\nnot a point\n", "# only\n\n# comments\n"] {
            std::fs::write(&tmp, bad).unwrap();
            let err = run_script(&dfs, &script).unwrap_err();
            assert!(matches!(err, PigeonError::Type(_)), "{err}");
            assert_eq!(dfs.list("/"), before, "{bad:?} left a file behind");
        }
        std::fs::write(&tmp, "1.0 2.0\n3.0, 4.0\n").unwrap();
        let out = run_script(&dfs, &script).unwrap();
        std::fs::remove_file(&tmp).ok();
        assert_eq!(out, ["1 2", "3 4"]);
        assert_eq!(dfs.list("/"), ["/imp/p"]);
    }

    #[test]
    fn an_import_answers_canonical_lines_from_the_heap_and_every_index() {
        let dfs = Dfs::new(ClusterConfig::small_for_tests());
        let tmp = std::env::temp_dir().join(format!(
            "pigeon-import-canonical-{}.csv",
            std::process::id()
        ));
        std::fs::write(&tmp, "1.50, 2.0\n3.25 4.750\n05.125,6\n").unwrap();
        let all = "BY Overlaps(RECTANGLE(0, 0, 10, 10))";
        let script = format!(
            "p = IMPORT '{}' AS POINT INTO '/imp/p';\n\
             t = INDEX p AS grid INTO '/imp/t';\n\
             b = INDEX p AS grid INTO '/imp/b' FORMAT binary;\n\
             DUMP p;\n\
             hp = FILTER p {all};\nDUMP hp;\n\
             ht = FILTER t {all};\nDUMP ht;\n\
             hb = FILTER b {all};\nDUMP hb;",
            tmp.display()
        );
        let out = run_script(&dfs, &script).unwrap();
        std::fs::remove_file(&tmp).ok();
        // The heap, then a filter of the heap, the text index and the
        // binary index; an index answers in its partitions' order.
        assert_eq!(out.len(), 12, "{out:?}");
        for answer in out.chunks(3) {
            let mut lines = answer.to_vec();
            lines.sort();
            assert_eq!(lines, ["1.5 2", "3.25 4.75", "5.125 6"]);
        }
    }

    #[test]
    fn describe_statement() {
        let dfs = Dfs::new(ClusterConfig::small_for_tests());
        let out = run_script(
            &dfs,
            "p = GENERATE 500 POINT uniform INTO '/d/p';\n\
             i = INDEX p AS grid INTO '/d/idx';\n\
             DESCRIBE p;\n\
             DESCRIBE i;",
        )
        .unwrap();
        assert_eq!(out.len(), 2);
        assert!(out[0].contains("500 records"), "{}", out[0]);
        assert!(out[1].contains("500 records"), "{}", out[1]);
    }

    #[test]
    fn generate_and_delaunay_end_to_end() {
        let dfs = Dfs::new(ClusterConfig::small_for_tests());
        let out = run_script(
            &dfs,
            "p = GENERATE 400 POINT uniform INTO '/gen/p';\n\
             i = INDEX p AS grid INTO '/gen/idx';\n\
             t = DELAUNAY i;\n\
             DUMP t;",
        )
        .unwrap();
        // 2n - h - 2 triangles; just check plausibility and format.
        assert!(out.len() > 500, "{} triangles", out.len());
        assert!(out[0].contains('|'));
        assert!(dfs.exists("/gen/p"));
    }

    #[test]
    fn dump_indexed_shows_catalogue_summary() {
        let (dfs, _) = dfs_with_points();
        let out = run_script(
            &dfs,
            "p = LOAD '/data/points' AS POINT;\n\
             i = INDEX p AS quadtree INTO '/idx/q';\n\
             DUMP i;",
        )
        .unwrap();
        assert_eq!(out.len(), 1);
        assert!(out[0].contains("quadtree"), "{}", out[0]);
    }

    #[test]
    fn explain_analyze_renders_a_waterfall_with_critical_path() {
        let (dfs, _) = dfs_with_points();
        let out = run_script(
            &dfs,
            "p = LOAD '/data/points' AS POINT;\n\
             i = INDEX p AS grid INTO '/idx/p';\n\
             EXPLAIN ANALYZE r = FILTER i BY Overlaps(RECTANGLE(100, 100, 300, 300));",
        )
        .unwrap();
        let text = out.join("\n");
        assert!(text.contains("explain analyze:"), "{text}");
        assert!(text.contains("waterfall"), "{text}");
        assert!(text.contains('█'), "bars must be drawn: {text}");
        assert!(text.contains("critical path (◆):"), "{text}");
        assert!(text.contains("dominant phase:"), "{text}");
        // The range query's map wave must appear as a span row.
        assert!(text.contains("map-wave"), "{text}");
        // The binding still happened even though the statement was wrapped.
        let err = run_script(&dfs, "EXPLAIN ANALYZE STATS;");
        assert!(
            err.unwrap().join("\n").contains("ran no jobs"),
            "job-less statements explain to a notice"
        );
    }

    #[test]
    fn stats_and_events_return_live_data_after_a_workload() {
        let (dfs, _) = dfs_with_points();
        let out = run_script(
            &dfs,
            "p = LOAD '/data/points' AS POINT;\n\
             i = INDEX p AS grid INTO '/idx/p';\n\
             r = FILTER i BY Overlaps(RECTANGLE(100, 100, 300, 300));\n\
             STATS;\n\
             EVENTS 50;\n\
             EVENTS 50 FILTER job;",
        )
        .unwrap();
        let text = out.join("\n");
        // STATS reports the registry the jobs above just fed.
        assert!(text.contains("stats: "), "{text}");
        assert!(text.contains("job.wall.micros"), "{text}");
        assert!(text.contains("p99"), "{text}");
        // EVENTS shows journaled engine events, newest runs included.
        assert!(text.contains("job.started"), "{text}");
        assert!(text.contains("job.finished"), "{text}");
        // The filtered view drops non-job kinds.
        let filtered: Vec<&str> = out
            .iter()
            .filter(|l| l.starts_with('#'))
            .map(String::as_str)
            .collect();
        assert!(!filtered.is_empty(), "{text}");
    }

    #[test]
    fn events_filter_restricts_kinds() {
        let (dfs, _) = dfs_with_points();
        let out = run_script(
            &dfs,
            "p = LOAD '/data/points' AS POINT;\n\
             i = INDEX p AS grid INTO '/idx/p';\n\
             EVENTS 100 FILTER cache;",
        )
        .unwrap();
        assert!(!out.is_empty());
        for line in out.iter().filter(|l| l.starts_with('#')) {
            assert!(line.contains(" cache."), "non-cache event leaked: {line}");
        }
    }

    #[test]
    fn slow_query_log_auto_dumps_profiles() {
        let (dfs, _) = dfs_with_points();
        // Threshold 0ms is disabled; 1ms-threshold with a real index
        // build (which takes more than a millisecond) must trip.
        let out = run_script(
            &dfs,
            "SET slow_query_ms 10000;\n\
             p = LOAD '/data/points' AS POINT;\n\
             i = INDEX p AS grid INTO '/idx/slowoff';",
        )
        .unwrap();
        assert!(
            !out.iter().any(|l| l.starts_with("slow query:")),
            "10s threshold must not trip: {out:?}"
        );
        let out = run_script(
            &dfs,
            "SET slow_query_ms 1;\n\
             p = LOAD '/data/points' AS POINT;\n\
             i = INDEX p AS grid INTO '/idx/slowon';\n\
             r = FILTER i BY Overlaps(RECTANGLE(100, 100, 300, 300));",
        )
        .unwrap();
        let slow: Vec<&String> = out
            .iter()
            .filter(|l| l.starts_with("slow query:"))
            .collect();
        assert!(!slow.is_empty(), "1ms threshold must trip: {out:?}");
        // The full rendered profile follows the slow-query header.
        assert!(out.iter().any(|l| l.starts_with("job profile:")), "{out:?}");
        // The journal records the slow query too.
        assert!(sh_trace::journal().count("query.slow") >= 1);
    }

    #[test]
    fn telemetry_log_sink_streams_jsonl() {
        let (dfs, _) = dfs_with_points();
        let path =
            std::env::temp_dir().join(format!("sh-pigeon-telemetry-{}.jsonl", std::process::id()));
        let path_s = path.to_string_lossy().to_string();
        let _ = std::fs::remove_file(&path);
        run_script(
            &dfs,
            &format!(
                "SET telemetry_log '{path_s}';\n\
                 p = LOAD '/data/points' AS POINT;\n\
                 i = INDEX p AS grid INTO '/idx/tl';\n\
                 SET telemetry_log none;"
            ),
        )
        .unwrap();
        assert_eq!(sh_trace::journal().log_path(), None, "sink detached");
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(!text.is_empty());
        for line in text.lines() {
            let v = sh_trace::json::parse(line).expect("every JSONL line parses");
            assert!(v.get("kind").is_some());
        }
        assert!(text.contains("job.started"), "jobs were journaled");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn unknown_set_option_lists_telemetry_keys() {
        let (dfs, _) = dfs_with_points();
        let err = run_script(&dfs, "SET frobnicate 1;").unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("telemetry_log"), "{msg}");
        assert!(msg.contains("slow_query_ms"), "{msg}");
        assert!(msg.contains("cache_budget"), "{msg}");
        assert!(msg.contains("scrub_interval"), "{msg}");
    }

    #[test]
    fn scrub_statement_reports_and_heals() {
        let (dfs, _) = dfs_with_points();
        let mut engine = Pigeon::new(&dfs);
        let run = |engine: &mut Pigeon, src: &str| {
            engine.execute(&crate::parser::parse(src).unwrap()).unwrap()
        };
        let baseline = run(
            &mut engine,
            "p = LOAD '/data/points' AS POINT;\n\
             i = INDEX p AS grid INTO '/idx/scrub';\n\
             r = FILTER i BY Overlaps(RECTANGLE(100, 100, 300, 300));\n\
             DUMP r;",
        );
        // Rot the primary replica of every partition, then scrub by path.
        let mut hit = 0;
        for part in dfs.list("/idx/scrub/") {
            hit += dfs.corrupt_replica(&part, 0, sh_dfs::CorruptKind::Flip);
        }
        assert!(hit > 0);
        let out = run(&mut engine, "SCRUB '/idx/scrub';\nSCRUB '/idx/scrub';");
        assert_eq!(out.len(), 2);
        assert!(
            out[0].contains(&format!("{hit} corrupt, {hit} repaired, 0 unrecoverable")),
            "first pass heals every fault: {}",
            out[0]
        );
        assert!(
            out[1].contains("0 corrupt, 0 repaired, 0 unrecoverable"),
            "second pass is clean: {}",
            out[1]
        );
        // Var-form scrub resolves the indexed binding to its directory.
        let via_var = run(&mut engine, "SCRUB i;");
        assert!(via_var[0].contains("0 corrupt"), "{}", via_var[0]);
        // The healed index answers exactly like before the corruption.
        let mut after = run(
            &mut engine,
            "r2 = FILTER i BY Overlaps(RECTANGLE(100, 100, 300, 300));\nDUMP r2;",
        );
        let mut base = baseline;
        after.sort();
        base.sort();
        assert_eq!(after, base);
    }

    #[test]
    fn background_scrubber_heals_without_queries() {
        let (dfs, _) = dfs_with_points();
        run_script(
            &dfs,
            "p = LOAD '/data/points' AS POINT;\n\
             i = INDEX p AS grid INTO '/idx/bg';",
        )
        .unwrap();
        let mut hit = 0;
        for part in dfs.list("/idx/bg/") {
            hit += dfs.corrupt_replica(&part, 0, sh_dfs::CorruptKind::Truncate);
        }
        assert!(hit > 0);
        let before = dfs.metrics().snapshot();
        let script = crate::parser::parse("SET scrub_interval 20;").unwrap();
        let mut engine = Pigeon::new(&dfs);
        engine.execute(&script).unwrap();
        // Wait for at least one scrub round to find and heal the rot.
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
        loop {
            let delta = dfs.metrics().snapshot().since(&before);
            if delta.repaired_replicas >= hit as u64 {
                break;
            }
            assert!(
                std::time::Instant::now() < deadline,
                "background scrubber never healed the corruption"
            );
            std::thread::sleep(std::time::Duration::from_millis(10));
        }
        // Disabling stops the thread (and Drop would too).
        let off = crate::parser::parse("SET scrub_interval 0;").unwrap();
        engine.execute(&off).unwrap();
        let report = dfs.scrub("/idx/bg/");
        assert_eq!(report.corrupt, 0, "nothing left to heal");
    }
    #[test]
    fn result_limit_truncates_like_the_line_based_dump() {
        // `DUMP` as it was specified over separate lines.
        fn dump_by_line(lines: &[String], limit: usize) -> Vec<String> {
            let mut dumped = lines.to_vec();
            if limit > 0 && dumped.len() > limit {
                dumped.truncate(limit);
                dumped.push(format!(
                    "... ({} rows truncated by result_limit {limit})",
                    lines.len() - limit
                ));
            }
            dumped
        }
        let n = 7;
        let lines: Vec<String> = (0..n).map(|i| format!("{i} {}", i * i)).collect();
        let rows = Rows::from_lines(&lines);
        for limit in [0, 1, n - 1, n, n + 1] {
            let got = limit_rows(rows.clone(), limit);
            assert!(
                got.lines().eq(dump_by_line(&lines, limit)),
                "limit {limit}: {:?}",
                got.text()
            );
        }
        assert_eq!(limit_rows(Rows::default(), 3), Rows::default());
    }

    #[test]
    fn a_statement_writes_only_the_files_it_names() {
        let dfs = Dfs::new(ClusterConfig::small_for_tests());
        let uni = Rect::new(0.0, 0.0, 1000.0, 1000.0);
        let pts = points(1500, Distribution::Uniform, &uni, 31);
        upload(&dfs, "/leak/p", &pts).unwrap();
        upload(&dfs, "/leak/l", &rects(200, &uni, 30.0, 1)).unwrap();
        upload(&dfs, "/leak/r", &rects(200, &uni, 30.0, 2)).unwrap();
        upload(&dfs, "/leak/g", &osm_like_polygons(60, &uni, 20.0, 3)).unwrap();
        let script = crate::parser::parse(
            "p = LOAD '/leak/p' AS POINT;\n\
             i = INDEX p AS grid INTO '/leak/ip';\n\
             a = LOAD '/leak/l' AS RECTANGLE;\n\
             b = LOAD '/leak/r' AS RECTANGLE;\n\
             ia = INDEX a AS grid INTO '/leak/ia';\n\
             ib = INDEX b AS grid INTO '/leak/ib';\n\
             g = LOAD '/leak/g' AS POLYGON;\n\
             ig = INDEX g AS grid INTO '/leak/ig';\n\
             q = FILTER i BY Overlaps(RECTANGLE(100, 100, 600, 600));\n\
             qh = FILTER p BY Overlaps(RECTANGLE(100, 100, 600, 600));\n\
             k = KNN i POINT(500, 500) K 7;\n\
             kh = KNN p POINT(500, 500) K 7;\n\
             j = JOIN ia, ib PREDICATE Overlaps;\n\
             h = JOIN a, b PREDICATE Overlaps;\n\
             d = DELAUNAY p;\n\
             v = VORONOI i;\n\
             sk = SKYLINE i;\n\
             ch = CONVEXHULL i;\n\
             cp = CLOSESTPAIR i;\n\
             fp = FARTHESTPAIR i;\n\
             u = UNION g;\n\
             ui = UNION ig;\n\
             DESCRIBE p;\n\
             STORE k INTO '/leak/stored';\n\
             DUMP q;",
        )
        .unwrap();
        // One statement at a time: `INDEX ... INTO` and `STORE ... INTO`
        // write the files they name, and every other statement writes no
        // block and leaves the namespace as it was.
        let mut engine = Pigeon::new(&dfs);
        let mut dumped = Vec::new();
        for stmt in script.stmts {
            let verb = stmt_verb(&stmt);
            let files = dfs.list("/");
            let before = dfs.metrics().snapshot();
            let out = engine.execute(&Script { stmts: vec![stmt] }).unwrap();
            if verb == "dump" {
                dumped.extend(out);
            }
            let written = dfs.metrics().snapshot().since(&before).blocks_written;
            match verb {
                "index" | "store" => assert!(written > 0, "{verb}"),
                _ => {
                    assert_eq!(written, 0, "{verb}");
                    assert_eq!(dfs.list("/"), files, "{verb}");
                }
            }
        }
        // The answer outlives its job, and user-named paths are kept.
        let query = Rect::new(100.0, 100.0, 600.0, 600.0);
        let mut expected: Vec<String> = pts
            .iter()
            .filter(|p| query.contains_point(p))
            .map(Record::to_line)
            .collect();
        let mut got = dumped;
        expected.sort();
        got.sort();
        assert_eq!(got, expected);
        assert_eq!(
            dfs.read_to_string("/leak/stored").unwrap().lines().count(),
            7
        );
        assert!(!dfs.list("/leak/ip/").is_empty());

        // A statement that fails after one of its jobs succeeded leaves
        // nothing behind either: with every partition but the query's own
        // replaced by garbage, kNN's first round succeeds and its second
        // fails.
        let mut engine = Pigeon::new(&dfs);
        let load = "p = LOAD '/leak/p' AS POINT; i = INDEX p AS grid INTO '/leak/ip2';";
        engine
            .execute(&crate::parser::parse(load).unwrap())
            .unwrap();
        let Some(Value::Indexed { file, .. }) = engine.get("i") else {
            panic!("INDEX binds an indexed file");
        };
        let q = Point::new(500.0, 500.0);
        for m in &file.partitions {
            if !m.cell_rect().contains_point(&q) {
                dfs.delete(&m.path);
                dfs.write_string(&m.path, "not a point\n").unwrap();
            }
        }
        let files = dfs.list("/");
        let knn = crate::parser::parse("n = KNN i POINT(500, 500) K 400;").unwrap();
        let err = engine.execute(&knn).unwrap_err();
        assert!(err.to_string().contains("corrupt"), "{err}");
        assert_eq!(dfs.list("/"), files);
    }

    #[test]
    fn indexing_into_a_live_index_fails_and_leaves_it_as_it_was() {
        let dfs = Dfs::new(ClusterConfig::small_for_tests());
        let uni = Rect::new(0.0, 0.0, 1000.0, 1000.0);
        upload(&dfs, "/x/p", &points(2000, Distribution::Uniform, &uni, 41)).unwrap();
        let mut engine = Pigeon::new(&dfs);
        let run = |engine: &mut Pigeon, src: &str| engine.execute(&crate::parser::parse(src)?);
        let index = "p = LOAD '/x/p' AS POINT; i = INDEX p AS grid INTO '/x/idx';";
        let filter = "r = FILTER i BY Overlaps(RECTANGLE(100, 100, 600, 600)); DUMP r;";
        run(&mut engine, index).unwrap();
        let answer = run(&mut engine, filter).unwrap();
        assert!(!answer.is_empty());
        let files = || -> Vec<(String, Vec<u8>)> {
            let paths = dfs.list("/x/idx/");
            paths
                .into_iter()
                .map(|p| (p.clone(), dfs.read_bytes(&p).unwrap().to_vec()))
                .collect()
        };
        let before = files();
        assert!(before.iter().any(|(p, _)| p.contains("/part-")));

        let again = "j = INDEX p AS grid INTO '/x/idx';";
        let err = run(&mut engine, again).unwrap_err().to_string();
        assert!(err.contains("/x/idx"), "{err}");
        assert_eq!(files(), before, "the live index was touched");
        assert_eq!(run(&mut engine, filter).unwrap(), answer);
    }
}
