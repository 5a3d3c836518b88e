//! Script execution: routing statements to the operations layer.

use std::collections::HashMap;
use std::fmt::{self, Write as _};

use sh_core::ops;
use sh_core::storage;
use sh_core::{OpError, OpResult, SpatialFile};
use sh_dfs::{Dfs, FaultPlan};
use sh_geom::{Point, Polygon, Record, Rect};
use sh_mapreduce::{JobHandle, JobScheduler, Rows, SchedConfig, SchedPolicy};
use sh_trace::{Event, JobProfile, Sampler, Waterfall};

use crate::ast::{RecordType, Script, ScrubTarget, Stmt};

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
    /// copied, by every binding, `DUMP` and session snapshot holding it.
    Result(Rows),
}

/// The Pigeon execution engine: an environment of named datasets over a
/// simulated cluster.
static OUT_SEQ: std::sync::atomic::AtomicUsize = std::sync::atomic::AtomicUsize::new(0);

pub struct Pigeon {
    dfs: Dfs,
    /// Engine-owned session backing the classic single-client entry
    /// points ([`Pigeon::execute`], [`crate::run_script`]); servers hand
    /// [`Pigeon::execute_with`] one [`SessionCtx`] per connection.
    session: SessionCtx,
    /// Multi-job scheduler, created by the first `SUBMIT` (or shared
    /// across engines via [`Pigeon::with_scheduler`]).
    sched: Option<JobScheduler>,
    /// Admission config the scheduler is created with (`SET sched_*`
    /// before the first `SUBMIT`).
    sched_cfg: SchedConfig,
    /// Time-series sampler over the global registry, started lazily by
    /// the first `STATS;` (so short-lived engines — e.g. the per-job
    /// engines `SUBMIT` spawns — never pay for a sampling thread).
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
    /// Aggregated profile of the most recent statement that ran jobs;
    /// consumed by `PROFILE <statement>`.
    last_profile: Option<JobProfile>,
    /// Submitted-but-unwaited jobs by scheduler job id.
    pending: HashMap<u64, JobHandle<Result<StmtOutput, String>>>,
    /// Slow-query threshold (`SET slow_query_ms <n>;`); 0 disables.
    slow_query_ms: u64,
    /// Rendered profiles of statements that tripped the slow-query
    /// threshold, drained into the dump output after each statement.
    slow_log: Vec<String>,
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

    fn lookup(&self, var: &str) -> Result<&Value, PigeonError> {
        self.vars
            .get(var)
            .ok_or_else(|| PigeonError::Undefined(var.to_string()))
    }

    /// Unwraps an operation result, stashing its aggregated profile so a
    /// surrounding `PROFILE` statement can report it. Statements whose
    /// wall-clock exceeds `SET slow_query_ms` land their full rendered
    /// profile in the slow-query log and journal a `query.slow` event.
    fn take<T>(&mut self, op: &str, r: OpResult<T>) -> T {
        let profile = r.profile(op);
        if self.slow_query_ms > 0 {
            let wall_ms = profile.wall.as_millis() as u64;
            if wall_ms >= self.slow_query_ms {
                sh_trace::events::emit(
                    "query.slow",
                    vec![("op", op.to_string()), ("wall_ms", wall_ms.to_string())],
                );
                self.slow_log.push(format!(
                    "slow query: {op} took {wall_ms}ms (threshold {}ms)",
                    self.slow_query_ms
                ));
                self.slow_log
                    .extend(profile.render().lines().map(str::to_string));
            }
        }
        self.last_profile = Some(profile);
        r.value
    }

    /// Moves the slow-query log into a statement's dump output.
    fn drain_slow_log(&mut self, dumped: &mut Vec<Rows>) {
        if !self.slow_log.is_empty() {
            dumped.push(Rows::from_lines(self.slow_log.drain(..)));
        }
    }

    /// Applies a finished statement's outcome to this session: installs
    /// the binding, stashes the profile, and returns what it dumped.
    pub fn absorb(&mut self, out: StmtOutput) -> Vec<Rows> {
        if let Some((var, val)) = out.binding {
            self.vars.insert(var, val);
        }
        self.last_profile = out.profile;
        out.dumped
    }
}

/// What a statement run off-thread hands back: the variable it bound
/// (if any), whatever it dumped, and the profile of the jobs it ran.
/// Fed back into its session with [`SessionCtx::absorb`].
pub struct StmtOutput {
    binding: Option<(String, Value)>,
    dumped: Vec<Rows>,
    profile: Option<JobProfile>,
}

/// Outcome of [`Pigeon::admit_stmt`]: the statement either ran inline,
/// was queued behind a ticket, or was rejected by admission control.
pub enum Admission {
    /// Ran synchronously; here is what it dumped.
    Done(Vec<Rows>),
    /// The scheduler queue is full — back off and retry.
    Busy,
    /// Queued or running; redeem the ticket for the outcome.
    Pending(StmtTicket),
}

/// A claim on a statement executing through the scheduler.
pub struct StmtTicket {
    sched: JobScheduler,
    handle: JobHandle<Result<StmtOutput, String>>,
}

impl StmtTicket {
    /// Scheduler job id running this statement.
    pub fn id(&self) -> u64 {
        self.handle.id
    }

    /// Blocks for at most `timeout`; `None` if the statement is still
    /// queued or running when it elapses.
    pub fn wait_timeout(
        &self,
        timeout: std::time::Duration,
    ) -> Option<Result<StmtOutput, PigeonError>> {
        self.handle.join_timeout(timeout).map(flatten_job)
    }

    /// Blocks until the statement finishes.
    pub fn wait(self) -> Result<StmtOutput, PigeonError> {
        flatten_job(self.handle.join())
    }

    /// Best-effort cancellation: dequeues the statement if it has not
    /// started yet (a running statement completes normally — its result
    /// is simply never absorbed). True if the queue slot was reclaimed.
    pub fn cancel(&self) -> bool {
        self.sched.cancel(self.handle.id)
    }
}

fn flatten_job(
    r: Result<Result<StmtOutput, String>, sh_mapreduce::SchedError>,
) -> Result<StmtOutput, PigeonError> {
    match r {
        Ok(Ok(out)) => Ok(out),
        Ok(Err(msg)) => Err(PigeonError::Job(msg)),
        Err(e) => Err(PigeonError::Job(e.to_string())),
    }
}

impl Pigeon {
    /// Creates an engine over the given DFS.
    pub fn new(dfs: &Dfs) -> Pigeon {
        Pigeon {
            dfs: dfs.clone(),
            session: SessionCtx::default(),
            sched: None,
            sched_cfg: SchedConfig::default(),
            sampler: None,
            scrubber: None,
        }
    }

    /// Creates an engine that shares an existing scheduler instead of
    /// lazily creating its own — how the server gives every connection
    /// one admission-controlled queue. `SET sched_*` knobs are rejected
    /// on such engines (the scheduler already exists).
    pub fn with_scheduler(dfs: &Dfs, sched: &JobScheduler) -> Pigeon {
        let mut engine = Pigeon::new(dfs);
        engine.sched = Some(sched.clone());
        engine
    }

    /// The engine's scheduler, created on first use.
    fn scheduler(&mut self) -> &JobScheduler {
        if self.sched.is_none() {
            self.sched = Some(JobScheduler::new(&self.dfs, self.sched_cfg));
        }
        self.sched.as_ref().expect("scheduler just created")
    }

    /// Profile of the last statement that ran jobs, if any.
    pub fn last_profile(&self) -> Option<&JobProfile> {
        self.session.last_profile.as_ref()
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
            self.execute_stmt(sess, stmt, &mut dumped)?;
            // Auto-dump profiles that tripped `SET slow_query_ms`.
            sess.drain_slow_log(&mut dumped);
        }
        Ok(dumped
            .iter()
            .flat_map(|rows| rows.lines().map(str::to_string))
            .collect())
    }

    /// Admits one statement for a session: statements that run cluster
    /// jobs go through the scheduler — so admission control applies and
    /// the caller can poll, stream, or cancel — while everything else
    /// runs inline. `QueueFull` surfaces as [`Admission::Busy`] rather
    /// than an error; it is the server's 429 path.
    pub fn admit_stmt(
        &mut self,
        sess: &mut SessionCtx,
        stmt: &Stmt,
        tenant: &str,
    ) -> Result<Admission, PigeonError> {
        if !stmt_runs_jobs(stmt) {
            let mut dumped = Vec::new();
            self.execute_stmt(sess, stmt, &mut dumped)?;
            sess.drain_slow_log(&mut dumped);
            return Ok(Admission::Done(dumped));
        }
        let name = stmt_verb(stmt);
        let closure = job_closure(stmt.clone(), sess.vars.clone(), sess.slow_query_ms);
        let sched = self.scheduler().clone();
        match sched.submit_as(tenant, name, closure) {
            Ok(handle) => Ok(Admission::Pending(StmtTicket { sched, handle })),
            Err(sh_mapreduce::SchedError::QueueFull) => Ok(Admission::Busy),
            Err(e) => Err(PigeonError::Job(e.to_string())),
        }
    }

    /// The universe of a points dataset (needed by heap-file fallbacks);
    /// derived from the index when available.
    fn universe_of(&self, value: &Value) -> Result<Rect, PigeonError> {
        match value {
            Value::Indexed { file, .. } => Ok(file.universe),
            Value::Heap { path, .. } => {
                // Driver-side scan for the MBR (cheap relative to jobs).
                let text = self.dfs.read_to_string(path)?;
                let mut mbr = Rect::empty();
                for line in text.lines().filter(|l| !l.trim().is_empty()) {
                    let p = Point::parse_line(line).map_err(OpError::from)?;
                    mbr.expand_point(&p);
                }
                Ok(mbr)
            }
            Value::Result(_) => Err(PigeonError::Type(
                "expected a dataset, found a result set".into(),
            )),
        }
    }

    /// Runs one statement. Its jobs write under a scratch directory of
    /// its own, which is gone again when the statement returns: by then
    /// the rows are bound to the session (or the statement failed), and
    /// nothing refers to the files. `STORE ... INTO` targets and index
    /// directories are user-named and live elsewhere.
    fn execute_stmt(
        &mut self,
        sess: &mut SessionCtx,
        stmt: &Stmt,
        dumped: &mut Vec<Rows>,
    ) -> Result<(), PigeonError> {
        let seq = OUT_SEQ.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        let out = format!("/pigeon/{}-{seq}", stmt_verb(stmt));
        let result = self.run_stmt(sess, stmt, &out, dumped);
        storage::delete_dir(&self.dfs, &out);
        result
    }

    fn run_stmt(
        &mut self,
        sess: &mut SessionCtx,
        stmt: &Stmt,
        out: &str,
        dumped: &mut Vec<Rows>,
    ) -> Result<(), PigeonError> {
        match stmt {
            Stmt::Load { var, path, rtype } => {
                if !self.dfs.exists(path) {
                    return Err(PigeonError::Undefined(format!("no such file {path}")));
                }
                sess.vars.insert(
                    var.clone(),
                    Value::Heap {
                        path: path.clone(),
                        rtype: *rtype,
                    },
                );
            }
            Stmt::Import {
                var,
                host_path,
                rtype,
                path,
            } => {
                let text = std::fs::read_to_string(host_path).map_err(|e| {
                    PigeonError::Type(format!("cannot read host file {host_path}: {e}"))
                })?;
                let mut writer = self.dfs.create(path)?;
                let mut imported = 0usize;
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
                    // Validate against the declared type before storing.
                    let ok = match rtype {
                        RecordType::Point => Point::parse_line(&line).is_ok(),
                        RecordType::Rectangle => Rect::parse_line(&line).is_ok(),
                        RecordType::Polygon => Polygon::parse_line(&line).is_ok(),
                    };
                    if !ok {
                        return Err(PigeonError::Type(format!(
                            "{host_path}:{}: not a valid {rtype:?} record: {raw:?}",
                            lineno + 1
                        )));
                    }
                    writer.write_line(&line);
                    imported += 1;
                }
                writer.close()?;
                if imported == 0 {
                    return Err(PigeonError::Type(format!("{host_path}: no records")));
                }
                sess.vars.insert(
                    var.clone(),
                    Value::Heap {
                        path: path.clone(),
                        rtype: *rtype,
                    },
                );
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
                                return Err(PigeonError::Type(format!(
                                    "unknown distribution {other}"
                                )))
                            }
                        };
                        let pts = match dist {
                            Some(d) => sh_workload::points(*n, d, &universe, seed),
                            None => sh_workload::osm_like_points(*n, &universe, 8, seed),
                        };
                        storage::upload(&self.dfs, path, &pts)?;
                    }
                    RecordType::Rectangle => {
                        let rs = sh_workload::rects(*n, &universe, universe.width() * 0.005, seed);
                        storage::upload(&self.dfs, path, &rs)?;
                    }
                    RecordType::Polygon => {
                        let ps = sh_workload::osm_like_polygons(
                            *n,
                            &universe,
                            universe.width() * 0.008,
                            seed,
                        );
                        storage::upload(&self.dfs, path, &ps)?;
                    }
                }
                sess.vars.insert(
                    var.clone(),
                    Value::Heap {
                        path: path.clone(),
                        rtype: *rtype,
                    },
                );
            }
            Stmt::Delaunay { var, src } => {
                let tris = match sess.lookup(src)?.clone() {
                    Value::Indexed { file, rtype } => {
                        expect_points(src, rtype)?;
                        let r = ops::delaunay::delaunay_spatial(&self.dfs, &file, out)?;
                        sess.take("delaunay", r)
                    }
                    Value::Heap { path, rtype } => {
                        expect_points(src, rtype)?;
                        let uni = self.universe_of(&Value::Heap {
                            path: path.clone(),
                            rtype,
                        })?;
                        let r = ops::delaunay::delaunay_hadoop(&self.dfs, &path, &uni, out)?;
                        sess.take("delaunay", r)
                    }
                    Value::Result(_) => {
                        return Err(PigeonError::Type("DELAUNAY over a result set".into()))
                    }
                };
                let rows = Rows::from_lines(tris.iter().map(|t| {
                    format!(
                        "{} {} | {} {} | {} {}",
                        t.0[0].x, t.0[0].y, t.0[1].x, t.0[1].y, t.0[2].x, t.0[2].y
                    )
                }));
                sess.vars.insert(var.clone(), Value::Result(rows));
            }
            Stmt::Index {
                var,
                src,
                kind,
                path,
                format,
            } => {
                let (heap, rtype) = match sess.lookup(src)? {
                    Value::Heap { path, rtype } => (path.clone(), *rtype),
                    _ => {
                        return Err(PigeonError::Type(format!(
                            "INDEX expects a loaded heap file, {src} is not one"
                        )))
                    }
                };
                let r = match rtype {
                    RecordType::Point => {
                        storage::build_index_fmt::<Point>(&self.dfs, &heap, path, *kind, *format)?
                    }
                    RecordType::Rectangle => {
                        storage::build_index_fmt::<Rect>(&self.dfs, &heap, path, *kind, *format)?
                    }
                    RecordType::Polygon => {
                        storage::build_index_fmt::<Polygon>(&self.dfs, &heap, path, *kind, *format)?
                    }
                };
                let file = sess.take("index", r);
                sess.vars
                    .insert(var.clone(), Value::Indexed { file, rtype });
            }
            Stmt::RangeFilter { var, src, query } => {
                // The job's rows are bound as its mappers wrote them:
                // every row is a record's `to_line()` already.
                let dfs = &self.dfs;
                let r = match sess.lookup(src)?.clone() {
                    Value::Indexed { file, rtype } => {
                        let opts = ops::range::RangeOptions::default();
                        match rtype {
                            RecordType::Point => ops::range::range_spatial_rows::<Point>(
                                dfs, &file, query, out, opts,
                            ),
                            RecordType::Rectangle => {
                                ops::range::range_spatial_rows::<Rect>(dfs, &file, query, out, opts)
                            }
                            RecordType::Polygon => ops::range::range_spatial_rows::<Polygon>(
                                dfs, &file, query, out, opts,
                            ),
                        }
                    }
                    Value::Heap { path, rtype } => match rtype {
                        RecordType::Point => {
                            ops::range::range_hadoop_rows::<Point>(dfs, &path, query, out)
                        }
                        RecordType::Rectangle => {
                            ops::range::range_hadoop_rows::<Rect>(dfs, &path, query, out)
                        }
                        RecordType::Polygon => {
                            ops::range::range_hadoop_rows::<Polygon>(dfs, &path, query, out)
                        }
                    },
                    Value::Result(_) => {
                        return Err(PigeonError::Type("FILTER over a result set".into()))
                    }
                }?;
                let rows = sess.take("range", r);
                sess.vars.insert(var.clone(), Value::Result(rows));
            }
            Stmt::Knn { var, src, q, k } => {
                let pts = match sess.lookup(src)?.clone() {
                    Value::Indexed { file, rtype } => {
                        expect_points(src, rtype)?;
                        let r = ops::knn::knn_spatial(&self.dfs, &file, q, *k, out)?;
                        sess.take("knn", r)
                    }
                    Value::Heap { path, rtype } => {
                        expect_points(src, rtype)?;
                        let r = ops::knn::knn_hadoop(&self.dfs, &path, q, *k, out)?;
                        sess.take("knn", r)
                    }
                    Value::Result(_) => {
                        return Err(PigeonError::Type("KNN over a result set".into()))
                    }
                };
                sess.vars.insert(var.clone(), Value::Result(to_rows(&pts)));
            }
            Stmt::Join { var, left, right } => {
                let l = sess.lookup(left)?.clone();
                let r = sess.lookup(right)?.clone();
                let pairs = match (l, r) {
                    (
                        Value::Indexed {
                            file: fa,
                            rtype: ta,
                        },
                        Value::Indexed {
                            file: fb,
                            rtype: tb,
                        },
                    ) => {
                        expect_rects(left, ta)?;
                        expect_rects(right, tb)?;
                        let r = ops::join::distributed_join(&self.dfs, &fa, &fb, out)?;
                        sess.take("join", r)
                    }
                    (
                        Value::Heap {
                            path: pa,
                            rtype: ta,
                        },
                        Value::Heap {
                            path: pb,
                            rtype: tb,
                        },
                    ) => {
                        expect_rects(left, ta)?;
                        expect_rects(right, tb)?;
                        // Universe for the SJMR grid: union of both MBRs,
                        // from one driver-side read of each heap file.
                        let mut uni = Rect::empty();
                        for path in [&pa, &pb] {
                            let text = self.dfs.read_to_string(path)?;
                            for line in text.lines().filter(|l| !l.trim().is_empty()) {
                                uni.expand(&Rect::parse_line(line).map_err(OpError::from)?);
                            }
                        }
                        let r = ops::join::sjmr(&self.dfs, &pa, &pb, &uni, 16, out)?;
                        sess.take("join", r)
                    }
                    _ => {
                        return Err(PigeonError::Type(
                            "JOIN needs two heap files or two indexed files".into(),
                        ))
                    }
                };
                let mut text = String::with_capacity(pairs.len() * 80);
                for (a, b) in &pairs {
                    a.write_line(&mut text);
                    text.push_str(" | ");
                    b.write_line(&mut text);
                    text.push('\n');
                }
                sess.vars
                    .insert(var.clone(), Value::Result(Rows::from_text(text)));
            }
            Stmt::KnnJoin {
                var,
                left,
                right,
                k,
            } => {
                let (l, r) = (sess.lookup(left)?.clone(), sess.lookup(right)?.clone());
                let rows = match (l, r) {
                    (
                        Value::Indexed {
                            file: fa,
                            rtype: ta,
                        },
                        Value::Indexed {
                            file: fb,
                            rtype: tb,
                        },
                    ) => {
                        expect_points(left, ta)?;
                        expect_points(right, tb)?;
                        let r = ops::knn_join::knn_join_spatial(&self.dfs, &fa, &fb, *k, out)?;
                        sess.take("knnjoin", r)
                    }
                    _ => {
                        return Err(PigeonError::Type(
                            "KNNJOIN needs two indexed POINT datasets".into(),
                        ))
                    }
                };
                let rows = Rows::from_lines(rows.iter().map(|row| {
                    let mut s = format!("{} {} |", row.r.x, row.r.y);
                    for n in &row.neighbors {
                        let _ = write!(s, " {} {}", n.x, n.y);
                    }
                    s
                }));
                sess.vars.insert(var.clone(), Value::Result(rows));
            }
            Stmt::Skyline { var, src } => {
                let pts = match sess.lookup(src)?.clone() {
                    Value::Indexed { file, rtype } => {
                        expect_points(src, rtype)?;
                        let r = ops::skyline::skyline_spatial(&self.dfs, &file, out)?;
                        sess.take("skyline", r)
                    }
                    Value::Heap { path, rtype } => {
                        expect_points(src, rtype)?;
                        let r = ops::skyline::skyline_hadoop(&self.dfs, &path, out)?;
                        sess.take("skyline", r)
                    }
                    Value::Result(_) => {
                        return Err(PigeonError::Type("SKYLINE over a result set".into()))
                    }
                };
                sess.vars.insert(var.clone(), Value::Result(to_rows(&pts)));
            }
            Stmt::ConvexHull { var, src } => {
                let pts = match sess.lookup(src)?.clone() {
                    Value::Indexed { file, rtype } => {
                        expect_points(src, rtype)?;
                        let r = ops::convex_hull::hull_spatial(&self.dfs, &file, out)?;
                        sess.take("convexhull", r)
                    }
                    Value::Heap { path, rtype } => {
                        expect_points(src, rtype)?;
                        let r = ops::convex_hull::hull_hadoop(&self.dfs, &path, out)?;
                        sess.take("convexhull", r)
                    }
                    Value::Result(_) => {
                        return Err(PigeonError::Type("CONVEXHULL over a result set".into()))
                    }
                };
                sess.vars.insert(var.clone(), Value::Result(to_rows(&pts)));
            }
            Stmt::ClosestPair { var, src } => {
                let pair = match sess.lookup(src)?.clone() {
                    Value::Indexed { file, rtype } => {
                        expect_points(src, rtype)?;
                        let r = ops::closest_pair::closest_pair_spatial(&self.dfs, &file, out)?;
                        sess.take("closestpair", r)
                    }
                    _ => {
                        return Err(PigeonError::Type(
                            "CLOSESTPAIR requires an indexed dataset".into(),
                        ))
                    }
                };
                let rows =
                    Rows::from_lines(pair.map(|p| {
                        format!("{} | {} | {}", p.a.to_line(), p.b.to_line(), p.distance)
                    }));
                sess.vars.insert(var.clone(), Value::Result(rows));
            }
            Stmt::FarthestPair { var, src } => {
                let pair = match sess.lookup(src)?.clone() {
                    Value::Indexed { file, rtype } => {
                        expect_points(src, rtype)?;
                        let r = ops::farthest_pair::farthest_pair_spatial(&self.dfs, &file, out)?;
                        sess.take("farthestpair", r)
                    }
                    Value::Heap { path, rtype } => {
                        expect_points(src, rtype)?;
                        let r = ops::farthest_pair::farthest_pair_hadoop(&self.dfs, &path, out)?;
                        sess.take("farthestpair", r)
                    }
                    Value::Result(_) => {
                        return Err(PigeonError::Type("FARTHESTPAIR over a result set".into()))
                    }
                };
                let rows =
                    Rows::from_lines(pair.map(|p| {
                        format!("{} | {} | {}", p.a.to_line(), p.b.to_line(), p.distance)
                    }));
                sess.vars.insert(var.clone(), Value::Result(rows));
            }
            Stmt::Union { var, src } => {
                let segs = match sess.lookup(src)?.clone() {
                    Value::Indexed { file, rtype } => {
                        if rtype != RecordType::Polygon {
                            return Err(PigeonError::Type(format!(
                                "UNION expects polygons, {src} is not"
                            )));
                        }
                        if file.is_disjoint() {
                            let r = ops::union::union_enhanced(&self.dfs, &file, out)?;
                            sess.take("union", r)
                        } else {
                            let r = ops::union::union_spatial(&self.dfs, &file, out)?;
                            sess.take("union", r)
                        }
                    }
                    Value::Heap { path, rtype } => {
                        if rtype != RecordType::Polygon {
                            return Err(PigeonError::Type(format!(
                                "UNION expects polygons, {src} is not"
                            )));
                        }
                        let r = ops::union::union_hadoop(&self.dfs, &path, out)?;
                        sess.take("union", r)
                    }
                    Value::Result(_) => {
                        return Err(PigeonError::Type("UNION over a result set".into()))
                    }
                };
                sess.vars.insert(var.clone(), Value::Result(to_rows(&segs)));
            }
            Stmt::Voronoi { var, src } => {
                let cells = match sess.lookup(src)?.clone() {
                    Value::Indexed { file, rtype } => {
                        expect_points(src, rtype)?;
                        let r = ops::voronoi::voronoi_spatial(&self.dfs, &file, out)?;
                        sess.take("voronoi", r)
                    }
                    Value::Heap { path, rtype } => {
                        expect_points(src, rtype)?;
                        let uni = self.universe_of(&Value::Heap {
                            path: path.clone(),
                            rtype,
                        })?;
                        let r = ops::voronoi::voronoi_hadoop(&self.dfs, &path, &uni, out)?;
                        sess.take("voronoi", r)
                    }
                    Value::Result(_) => {
                        return Err(PigeonError::Type("VORONOI over a result set".into()))
                    }
                };
                let rows = Rows::from_lines(cells.iter().map(|c| {
                    format!(
                        "{} {} cell[{} vertices]",
                        c.site.x,
                        c.site.y,
                        c.vertices.len()
                    )
                }));
                sess.vars.insert(var.clone(), Value::Result(rows));
            }
            Stmt::Describe { src } => {
                let stats = match sess.lookup(src)?.clone() {
                    Value::Indexed { file, .. } => ops::aggregate::stats_spatial(&file),
                    Value::Heap { path, rtype } => {
                        let r = match rtype {
                            RecordType::Point => {
                                ops::aggregate::stats_hadoop::<Point>(&self.dfs, &path, out)?
                            }
                            RecordType::Rectangle => {
                                ops::aggregate::stats_hadoop::<Rect>(&self.dfs, &path, out)?
                            }
                            RecordType::Polygon => {
                                ops::aggregate::stats_hadoop::<Polygon>(&self.dfs, &path, out)?
                            }
                        };
                        sess.take("describe", r)
                    }
                    Value::Result(rows) => {
                        dumped.push(one_row(format!("result set: {} rows", rows.len())));
                        return Ok(());
                    }
                };
                dumped.push(one_row(format!(
                    "{src}: {} records, {} bytes, mbr [{}, {}] x [{}, {}]",
                    stats.records,
                    stats.bytes,
                    stats.mbr.x1,
                    stats.mbr.x2,
                    stats.mbr.y1,
                    stats.mbr.y2
                )));
            }
            Stmt::Plot {
                src,
                width,
                height,
                path,
            } => {
                let (file, rtype) = match sess.lookup(src)?.clone() {
                    Value::Indexed { file, rtype } => (file, rtype),
                    _ => return Err(PigeonError::Type("PLOT requires an indexed dataset".into())),
                };
                let r = match rtype {
                    RecordType::Point => {
                        ops::plot::plot_spatial::<Point>(&self.dfs, &file, *width, *height, path)?
                    }
                    RecordType::Rectangle => {
                        ops::plot::plot_spatial::<Rect>(&self.dfs, &file, *width, *height, path)?
                    }
                    RecordType::Polygon => {
                        ops::plot::plot_spatial::<Polygon>(&self.dfs, &file, *width, *height, path)?
                    }
                };
                sess.take("plot", r);
            }
            Stmt::PlotPyramid {
                src,
                levels,
                tile_px,
                path,
            } => {
                let (file, rtype) = match sess.lookup(src)?.clone() {
                    Value::Indexed { file, rtype } => (file, rtype),
                    _ => {
                        return Err(PigeonError::Type(
                            "PLOTPYRAMID requires an indexed dataset".into(),
                        ))
                    }
                };
                let r = match rtype {
                    RecordType::Point => {
                        ops::plot::plot_pyramid::<Point>(&self.dfs, &file, *levels, *tile_px, path)?
                    }
                    RecordType::Rectangle => {
                        ops::plot::plot_pyramid::<Rect>(&self.dfs, &file, *levels, *tile_px, path)?
                    }
                    RecordType::Polygon => ops::plot::plot_pyramid::<Polygon>(
                        &self.dfs, &file, *levels, *tile_px, path,
                    )?,
                };
                sess.take("plotpyramid", r);
            }
            Stmt::Dump { src } => {
                let rows = match sess.lookup(src)? {
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
                dumped.push(limit_rows(rows, sess.result_limit));
            }
            Stmt::Profile(inner) => {
                sess.last_profile = None;
                self.execute_stmt(sess, inner, dumped)?;
                match sess.last_profile.take() {
                    Some(p) => dumped.push(Rows::from_text(p.render())),
                    None => dumped.push(one_row("profile: statement ran no jobs")),
                }
            }
            Stmt::ExplainAnalyze(inner) => {
                sess.last_profile = None;
                self.execute_stmt(sess, inner, dumped)?;
                match sess.last_profile.take() {
                    Some(p) => match &p.spans {
                        Some(root) => dumped.push(Rows::from_text(format!(
                            "explain analyze: {}\n{}",
                            p.job,
                            Waterfall(root)
                        ))),
                        None => {
                            dumped.push(one_row("explain analyze: statement recorded no spans"))
                        }
                    },
                    None => dumped.push(one_row("explain analyze: statement ran no jobs")),
                }
            }
            Stmt::Stats => {
                let sampler = self.sampler.get_or_insert_with(|| {
                    Sampler::start(sh_trace::global(), std::time::Duration::from_millis(200))
                });
                // Force a fresh sample so STATS reflects the statements
                // that just ran, not the last background tick.
                sampler.tick();
                dumped.push(Rows::from_text(sampler.render()));
            }
            Stmt::Events { n, filter } => {
                let events = sh_trace::journal().recent(n.unwrap_or(20), filter.as_deref());
                if events.is_empty() {
                    dumped.push(one_row("events: none recorded"));
                } else {
                    dumped.push(Rows::from_lines(events.iter().map(Event::render)));
                }
            }
            Stmt::Set { key, value } => self.apply_set(sess, key, value)?,
            Stmt::Submit(inner) => {
                forbid_nested_async(inner)?;
                let stmt = (**inner).clone();
                let name = stmt_verb(&stmt).to_string();
                // The job sees a snapshot of the environment; its own
                // bindings come back at WAIT, so concurrent jobs cannot
                // race on the variable table.
                let closure = job_closure(stmt, sess.vars.clone(), sess.slow_query_ms);
                let handle = self
                    .scheduler()
                    .submit(&name, closure)
                    .map_err(|e| PigeonError::Job(e.to_string()))?;
                dumped.push(one_row(format!("submitted job {} ({name})", handle.id)));
                sess.pending.insert(handle.id, handle);
            }
            Stmt::Jobs => match &self.sched {
                Some(sched) => {
                    dumped.push(Rows::from_lines(sched.jobs().iter().map(|j| {
                        format!("job {} {} [{}]: {}", j.id, j.name, j.tenant, j.state)
                    })))
                }
                None => dumped.push(one_row("no jobs submitted")),
            },
            Stmt::Wait { id } => {
                let handle = sess
                    .pending
                    .remove(id)
                    .ok_or_else(|| PigeonError::Type(format!("WAIT {id}: no such pending job")))?;
                match handle.join() {
                    Ok(Ok(outcome)) => dumped.extend(sess.absorb(outcome)),
                    Ok(Err(msg)) => return Err(PigeonError::Job(format!("job {id}: {msg}"))),
                    Err(e) => return Err(PigeonError::Job(format!("job {id}: {e}"))),
                }
            }
            Stmt::Scrub { target } => {
                let prefix = match target {
                    None => String::new(),
                    Some(ScrubTarget::Path(p)) => p.clone(),
                    Some(ScrubTarget::Var(v)) => match sess.lookup(v)? {
                        Value::Heap { path, .. } => path.clone(),
                        Value::Indexed { file, .. } => file.dir.clone(),
                        Value::Result(_) => {
                            return Err(PigeonError::Type(format!(
                                "SCRUB {v}: result sets have no storage to scrub"
                            )))
                        }
                    },
                };
                dumped.push(one_row(self.dfs.scrub(&prefix).to_string()));
            }
            Stmt::Store { src, path } => {
                let Value::Result(rows) = sess.lookup(src)? else {
                    return Err(PigeonError::Type(
                        "STORE expects a computed result set".into(),
                    ));
                };
                let mut w = self.dfs.create(path)?;
                w.write_str(rows.text());
                w.close()?;
            }
        }
        Ok(())
    }

    /// Admission knobs configure the scheduler at creation; changing
    /// them afterwards would silently not apply.
    fn require_no_scheduler(&self, key: &str) -> Result<(), PigeonError> {
        if self.sched.is_some() {
            return Err(PigeonError::Type(format!(
                "SET {key} must precede the first SUBMIT"
            )));
        }
        Ok(())
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
            "retries" | "max_task_attempts" => {
                let n = num(value)?.max(1) as usize;
                self.dfs.update_ft_options(|ft| ft.max_task_attempts = n);
            }
            "blacklist_threshold" | "node_blacklist_threshold" => {
                let n = num(value)?.max(1) as usize;
                self.dfs
                    .update_ft_options(|ft| ft.node_blacklist_threshold = n);
            }
            "worker_threads" => {
                // 0 restores the default (available parallelism).
                let n = num(value)? as usize;
                let threads = if n == 0 { None } else { Some(n) };
                self.dfs.update_ft_options(|ft| ft.worker_threads = threads);
            }
            "retry_backoff_ms" => {
                let ms = num(value)?;
                self.dfs.update_ft_options(|ft| ft.retry_backoff_ms = ms);
            }
            "speculative" | "speculative_execution" => {
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
            "cache_budget" | "cache_budget_bytes" => {
                // Byte budget of the per-node block cache; 0 disables it.
                self.dfs.cache().set_budget(num(value)?);
            }
            "sched_slots" => {
                // Cluster-wide worker-slot pool; shared by every job.
                self.dfs.slots().set_total(num(value)?.max(1) as usize);
            }
            "sched_policy" => {
                self.require_no_scheduler(key)?;
                self.sched_cfg.policy = SchedPolicy::parse(value).map_err(PigeonError::Type)?;
            }
            "sched_max_inflight" => {
                self.require_no_scheduler(key)?;
                self.sched_cfg.max_in_flight = num(value)?.max(1) as usize;
            }
            "sched_queue_cap" => {
                self.require_no_scheduler(key)?;
                self.sched_cfg.queue_cap = num(value)?.max(1) as usize;
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
            "result_limit" | "result_limit_rows" => {
                // Per-session cap on rows a DUMP emits; 0 is unlimited.
                sess.result_limit = num(value)? as usize;
            }
            "scrub_interval" | "scrub_interval_ms" => {
                // Background integrity scrubber period; 0 stops it. Runs
                // through the job scheduler as the low-priority "scrub"
                // tenant so fair-share keeps it from starving queries.
                let ms = num(value)?;
                self.scrubber = None; // stop and join any previous one
                if ms > 0 {
                    if self.sched.is_none() {
                        self.sched = Some(JobScheduler::new(&self.dfs, self.sched_cfg));
                    }
                    let sched = self.sched.as_ref().expect("scheduler just created").clone();
                    self.scrubber =
                        Some(Scrubber::start(sched, std::time::Duration::from_millis(ms)));
                }
            }
            other => {
                return Err(PigeonError::Type(format!(
                    "unknown SET option {other} (expected retries, blacklist_threshold, \
                     worker_threads, retry_backoff_ms, speculative, \
                     speculation_threshold_ms, cache_budget, fault_plan, \
                     sched_slots, sched_policy, sched_max_inflight, sched_queue_cap, \
                     telemetry_log, slow_query_ms, result_limit, or scrub_interval)"
                )))
            }
        }
        Ok(())
    }
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

/// The variable a statement binds, if any.
fn target_var(stmt: &Stmt) -> Option<&str> {
    match stmt {
        Stmt::Load { var, .. }
        | Stmt::Import { var, .. }
        | Stmt::Generate { var, .. }
        | Stmt::Delaunay { var, .. }
        | Stmt::Index { var, .. }
        | Stmt::RangeFilter { var, .. }
        | Stmt::Knn { var, .. }
        | Stmt::Join { var, .. }
        | Stmt::KnnJoin { var, .. }
        | Stmt::Skyline { var, .. }
        | Stmt::ConvexHull { var, .. }
        | Stmt::ClosestPair { var, .. }
        | Stmt::FarthestPair { var, .. }
        | Stmt::Union { var, .. }
        | Stmt::Voronoi { var, .. } => Some(var),
        Stmt::Profile(inner) | Stmt::ExplainAnalyze(inner) => target_var(inner),
        _ => None,
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
        Stmt::KnnJoin { .. } => "knnjoin",
        Stmt::Skyline { .. } => "skyline",
        Stmt::ConvexHull { .. } => "convexhull",
        Stmt::ClosestPair { .. } => "closestpair",
        Stmt::FarthestPair { .. } => "farthestpair",
        Stmt::Union { .. } => "union",
        Stmt::Voronoi { .. } => "voronoi",
        Stmt::Dump { .. } => "dump",
        Stmt::Describe { .. } => "describe",
        Stmt::Plot { .. } => "plot",
        Stmt::PlotPyramid { .. } => "plotpyramid",
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

/// Whether a statement launches cluster jobs — the test
/// [`Pigeon::admit_stmt`] uses to route it through the scheduler so
/// admission control (and thus server back-pressure) applies to it.
/// Bookkeeping statements (`LOAD`, `SET`, `DUMP`, `WAIT`, ...) run
/// inline: they finish in microseconds and `DUMP`/`WAIT` need the live
/// session state a snapshot could not provide.
pub fn stmt_runs_jobs(stmt: &Stmt) -> bool {
    match stmt {
        Stmt::Import { .. }
        | Stmt::Generate { .. }
        | Stmt::Delaunay { .. }
        | Stmt::Index { .. }
        | Stmt::RangeFilter { .. }
        | Stmt::Knn { .. }
        | Stmt::Join { .. }
        | Stmt::KnnJoin { .. }
        | Stmt::Skyline { .. }
        | Stmt::ConvexHull { .. }
        | Stmt::ClosestPair { .. }
        | Stmt::FarthestPair { .. }
        | Stmt::Union { .. }
        | Stmt::Voronoi { .. }
        | Stmt::Describe { .. }
        | Stmt::Plot { .. }
        | Stmt::PlotPyramid { .. }
        | Stmt::Scrub { .. } => true,
        Stmt::Profile(inner) | Stmt::ExplainAnalyze(inner) => stmt_runs_jobs(inner),
        Stmt::Load { .. }
        | Stmt::Dump { .. }
        | Stmt::Store { .. }
        | Stmt::Set { .. }
        | Stmt::Submit(_)
        | Stmt::Jobs
        | Stmt::Wait { .. }
        | Stmt::Stats
        | Stmt::Events { .. } => false,
    }
}

/// Packages a statement for scheduler execution: the closure builds a
/// throwaway engine over a snapshot of the session's bindings and
/// returns the statement's outcome for later [`SessionCtx::absorb`].
fn job_closure(
    stmt: Stmt,
    vars: HashMap<String, Value>,
    slow_query_ms: u64,
) -> impl FnOnce(&Dfs) -> Result<StmtOutput, String> + Send + 'static {
    move |dfs| {
        let mut engine = Pigeon::new(dfs);
        let mut sess = SessionCtx {
            vars,
            slow_query_ms,
            ..SessionCtx::default()
        };
        let mut dumped = Vec::new();
        engine
            .execute_stmt(&mut sess, &stmt, &mut dumped)
            .map_err(|e| e.to_string())?;
        // Slow-query profiles travel with the job's dump output.
        sess.drain_slow_log(&mut dumped);
        let binding = target_var(&stmt)
            .and_then(|v| sess.vars.get(v).map(|val| (v.to_string(), val.clone())));
        Ok(StmtOutput {
            binding,
            dumped,
            profile: sess.last_profile.take(),
        })
    }
}

/// Background integrity scrubber: one thread that periodically submits a
/// whole-namespace scrub through the job scheduler under the "scrub"
/// tenant. Fair-share admission keeps it from starving query jobs; a
/// full queue just skips that round. Dropping the handle stops and joins
/// the thread.
struct Scrubber {
    stop: std::sync::Arc<std::sync::atomic::AtomicBool>,
    handle: Option<std::thread::JoinHandle<()>>,
}

impl Scrubber {
    fn start(sched: JobScheduler, interval: std::time::Duration) -> Scrubber {
        use std::sync::atomic::{AtomicBool, Ordering};
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
            match sched.submit_as("scrub", "scrub", |dfs| dfs.scrub("")) {
                Ok(handle) => {
                    let _ = handle.join();
                }
                Err(_) => {
                    // Queue full or scheduler shut down: skip this round.
                }
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
        self.stop.store(true, std::sync::atomic::Ordering::Relaxed);
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
    use sh_workload::{points, rects, Distribution};

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
        let mut a = indexed.clone();
        let mut b = heap.clone();
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
        assert_eq!(ft.worker_threads, Some(3));
        assert!(ft.speculative_execution);
        assert_eq!(ft.speculation_threshold_ms, 99);
        assert_eq!(ft.retry_backoff_ms, 0);
        assert_eq!(ft.fault_plan.to_string(), "fail:0@0;kill:1");
        // `worker_threads 0` restores auto; `fault_plan none` clears.
        run_script(&dfs, "SET worker_threads 0;\nSET fault_plan none;").unwrap();
        let ft = dfs.ft_options();
        assert_eq!(ft.worker_threads, None);
        assert!(ft.fault_plan.is_empty());
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
    fn sched_set_options_configure_scheduler_and_slots() {
        let (dfs, _) = dfs_with_points();
        run_script(&dfs, "SET sched_slots 3;").unwrap();
        assert_eq!(dfs.slots().total(), 3);
        // Admission knobs must precede the first SUBMIT.
        let err = run_script(
            &dfs,
            "p = LOAD '/data/points' AS POINT;\n\
             SET sched_policy fair;\n\
             SET sched_max_inflight 2;\n\
             SET sched_queue_cap 8;\n\
             SUBMIT s = SKYLINE p;\n\
             WAIT 0;\n\
             SET sched_policy fifo;",
        )
        .unwrap_err();
        assert!(
            err.to_string().contains("must precede the first SUBMIT"),
            "{err}"
        );
        assert!(matches!(
            run_script(&dfs, "SET sched_policy roundrobin;"),
            Err(PigeonError::Type(_))
        ));
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
    fn plot_statement_writes_pgm() {
        let dfs = Dfs::new(ClusterConfig::small_for_tests());
        run_script(
            &dfs,
            "p = GENERATE 1000 POINT gaussian INTO '/pl/p';\n\
             i = INDEX p AS grid INTO '/pl/idx';\n\
             PLOT i WIDTH 32 HEIGHT 32 INTO '/pl/img';",
        )
        .unwrap();
        let pgm = dfs.read_to_string("/pl/img/image.pgm").unwrap();
        assert!(pgm.starts_with("P2\n32 32\n255\n"));
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
    fn plot_pyramid_statement_writes_tiles() {
        let dfs = Dfs::new(ClusterConfig::small_for_tests());
        run_script(
            &dfs,
            "p = GENERATE 800 POINT osm INTO '/py/p';\n\
             i = INDEX p AS grid INTO '/py/idx';\n\
             PLOTPYRAMID i LEVELS 2 TILE 16 INTO '/py/tiles';",
        )
        .unwrap();
        assert!(dfs.exists("/py/tiles/tile-0-0-0.pgm"));
        // Level 1 has up to 4 tiles; at least one exists.
        assert!(!dfs.list("/py/tiles/tile-1-").is_empty());
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
    fn knnjoin_statement_end_to_end() {
        let dfs = Dfs::new(ClusterConfig::small_for_tests());
        let out = run_script(
            &dfs,
            "a = GENERATE 300 POINT uniform INTO '/kj/a';\n\
             b = GENERATE 500 POINT gaussian INTO '/kj/b';\n\
             ia = INDEX a AS grid INTO '/kj/ia';\n\
             ib = INDEX b AS grid INTO '/kj/ib';\n\
             j = KNNJOIN ia, ib K 3;\n\
             DUMP j;",
        )
        .unwrap();
        assert_eq!(out.len(), 300, "one row per left point");
        assert!(out[0].contains('|'));
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
    fn a_statements_scratch_directory_is_gone_when_it_returns() {
        let dfs = Dfs::new(ClusterConfig::small_for_tests());
        let uni = Rect::new(0.0, 0.0, 1000.0, 1000.0);
        let pts = points(1500, Distribution::Uniform, &uni, 31);
        upload(&dfs, "/leak/p", &pts).unwrap();
        upload(&dfs, "/leak/l", &rects(200, &uni, 30.0, 1)).unwrap();
        upload(&dfs, "/leak/r", &rects(200, &uni, 30.0, 2)).unwrap();
        let dumped = run_script(
            &dfs,
            "p = LOAD '/leak/p' AS POINT;\n\
             i = INDEX p AS grid INTO '/leak/ip';\n\
             a = LOAD '/leak/l' AS RECTANGLE;\n\
             b = LOAD '/leak/r' AS RECTANGLE;\n\
             ia = INDEX a AS grid INTO '/leak/ia';\n\
             ib = INDEX b AS grid INTO '/leak/ib';\n\
             q = FILTER i BY Overlaps(RECTANGLE(100, 100, 600, 600));\n\
             k = KNN i POINT(500, 500) K 7;\n\
             j = JOIN ia, ib PREDICATE Overlaps;\n\
             h = JOIN a, b PREDICATE Overlaps;\n\
             d = DELAUNAY p;\n\
             STORE k INTO '/leak/stored';\n\
             DUMP q;",
        )
        .unwrap();
        assert_eq!(dfs.list("/pigeon/"), Vec::<String>::new());
        // The answer outlives its files, and user-named paths are kept.
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

        // A statement that fails after a job of its wrote output cleans
        // up as well: with every partition but the query's own replaced
        // by garbage, kNN's first round succeeds and its second fails.
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
        let knn = crate::parser::parse("n = KNN i POINT(500, 500) K 400;").unwrap();
        let err = engine.execute(&knn).unwrap_err();
        assert!(err.to_string().contains("corrupt"), "{err}");
        assert_eq!(dfs.list("/pigeon/"), Vec::<String>::new());
    }
}
