//! The four workloads: how each generates its inputs from the seed, sets
//! the system up, and measures it. BENCHMARK.md says why each exists.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use sh_core::catalog::SpatialFile;
use sh_core::storage::{self, BlockFormat};
use sh_dfs::{ClusterConfig, Dfs};
use sh_geom::{Point, Rect};
use sh_index::PartitionKind;
use sh_pigeon::{parser, Pigeon, RecordType, SessionCtx, Value};
use sh_server::{Server, ServerConfig};

use crate::client::ShClient;
use crate::load::{self, Sample};
use crate::ops::{side_for_rows, window, Args, Expect, Kind, Op, Rng, RowSet};
use crate::stats::{self, RungOutcome};

/// The shipped default block size of `sh-server` and `shadoop`.
const BLOCK_BYTES: u64 = 64 * 1024;

/// `serve-mixed` offers load at these rates, one rung each: a quarter
/// and a half of the closed-loop capacity measured at the commit that
/// added the benchmark (about 480 ops/s with two clients on two cores),
/// then twice that capacity, which no rung is expected to hold and whose
/// completions per second are therefore the capacity itself. Frozen:
/// rates that follow the code would hide a regression.
pub const RUNGS_QPS: [f64; 3] = [120.0, 240.0, 960.0];
/// Share of the run each rung gets. The middle rung carries the latency
/// metrics, so it gets the most samples.
const RUNG_SHARE: [f64; 3] = [0.15, 0.5, 0.35];
/// Turns each rung takes.
const SLICES: usize = 6;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    ServeMixed,
    ServeScan,
    IngestIndex,
    HeapBatch,
}

/// Input sizes. `full` is what the benchmark runs; the unit tests run
/// the same code on `tiny` inputs.
#[derive(Clone, Copy, Debug)]
pub struct Sizes {
    pub points: usize,
    pub rects: usize,
    /// Distinct range windows and kNN query points the run cycles over.
    pub ranges: usize,
    pub knns: usize,
}

/// The records a workload runs on.
pub struct Data {
    pub universe: Rect,
    pub points: Vec<Point>,
    pub left: Vec<Rect>,
    pub right: Vec<Rect>,
}

/// The ops a run cycles over: `order` indexes `ops` and is walked round
/// and round. Every `round` consecutive entries hold the same mix of op
/// kinds, so rounds can be compared with each other.
pub struct Plan {
    pub ops: Vec<Op>,
    pub order: Vec<usize>,
    pub round: usize,
}

/// A system that is set up and warm.
pub struct Env {
    pub dfs: Dfs,
    /// The front door of the `serve-*` workloads, with its persistent
    /// connections.
    pub server: Option<Server>,
    pub clients: Vec<ShClient>,
    /// In-process engine and session: the front door of the session
    /// workloads, and depth d1 of the ladder on all four.
    pub engine: Pigeon,
    pub sess: SessionCtx,
}

/// What the untraced run measured.
pub struct Measured {
    /// Every attempted op.
    pub samples: Vec<Sample>,
    /// The part of `samples` that latency is reported on: all of them in
    /// a closed loop, the middle rung's in the open loop.
    pub latency_of: std::ops::Range<usize>,
    /// Completed ops per second, round by round.
    pub ops_per_s: Vec<f64>,
    /// Median and largest latency, round by round.
    pub p50_ms: Vec<f64>,
    pub max_ms: Vec<f64>,
    /// End-to-end numbers that only this workload defines.
    pub extras: BTreeMap<&'static str, f64>,
}

impl Measured {
    /// Reduces `samples` round by round. A round's rate is its completed
    /// ops over the time its `clients` spent serving them (from send to
    /// reply, plus `other_s[round]` of work that is not an op); its
    /// latencies count from when each op was due. Rounds the run did not
    /// finish are left out.
    fn of(
        samples: Vec<Sample>,
        latency_of: std::ops::Range<usize>,
        rate_of: std::ops::Range<usize>,
        round: usize,
        clients: usize,
        other_s: &[f64],
        extras: BTreeMap<&'static str, f64>,
    ) -> Measured {
        let mut m = Measured {
            ops_per_s: Vec::new(),
            p50_ms: Vec::new(),
            max_ms: Vec::new(),
            extras,
            latency_of: latency_of.clone(),
            samples: Vec::new(),
        };
        fn by_round(part: &[Sample], round: usize) -> BTreeMap<usize, Vec<&Sample>> {
            let mut rounds: BTreeMap<usize, Vec<&Sample>> = BTreeMap::new();
            for s in part {
                rounds.entry(s.seq / round).or_default().push(s);
            }
            rounds.retain(|_, ops| ops.len() == round);
            rounds
        }
        for (r, ops) in by_round(&samples[rate_of], round) {
            let busy_s =
                ops.iter().map(|s| s.latency_ms - s.lag_ms).sum::<f64>() / 1e3 / clients as f64
                    + other_s.get(r).copied().unwrap_or(0.0);
            let done = ops.iter().filter(|s| s.failure.is_none()).count();
            m.ops_per_s.push(done as f64 / busy_s);
        }
        for ops in by_round(&samples[latency_of], round).values() {
            let mut lat: Vec<f64> = ops.iter().map(|s| s.latency_ms).collect();
            stats::sort(&mut lat);
            m.p50_ms.push(stats::median_sorted(&lat));
            m.max_ms.push(lat[lat.len() - 1]);
        }
        m.samples = samples;
        m
    }
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::ServeMixed,
        Workload::ServeScan,
        Workload::IngestIndex,
        Workload::HeapBatch,
    ];

    /// The name `BENCHMARK.json` lists the workload under ([`Self::ALL`]
    /// is in the order of the spec).
    pub fn name(self) -> &'static str {
        crate::spec::WORKLOADS[self as usize].name
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    pub fn full(self) -> Sizes {
        match self {
            Workload::ServeMixed => Sizes {
                points: 200_000,
                rects: 4_000,
                ranges: 210,
                knns: 60,
            },
            Workload::ServeScan => Sizes {
                points: 200_000,
                rects: 10_000,
                ranges: 9,
                knns: 0,
            },
            Workload::IngestIndex => Sizes {
                points: 25_000,
                rects: 25_000,
                ranges: 0,
                knns: 0,
            },
            Workload::HeapBatch => Sizes {
                points: 100_000,
                rects: 10_000,
                ranges: 40,
                knns: 20,
            },
        }
    }

    #[cfg(test)]
    pub fn tiny(self) -> Sizes {
        Sizes {
            points: 6_000,
            rects: 600,
            ranges: match self {
                Workload::IngestIndex => 0,
                Workload::ServeScan => 9,
                _ => 7,
            },
            knns: match self {
                Workload::ServeMixed | Workload::HeapBatch => 2,
                _ => 0,
            },
        }
    }

    /// Whether the front door is the TCP server.
    pub fn served(self) -> bool {
        matches!(self, Workload::ServeMixed | Workload::ServeScan)
    }

    /// The inputs, a function of the seed alone.
    pub fn generate(self, seed: u64, sizes: Sizes) -> Data {
        let universe = sh_workload::default_universe();
        let points = match self {
            // Clustered, so partitions are skewed.
            Workload::ServeScan => sh_workload::osm_like_points(sizes.points, &universe, 32, seed),
            _ => sh_workload::points(
                sizes.points,
                sh_workload::Distribution::Uniform,
                &universe,
                seed,
            ),
        };
        let max_side = universe.width() * 0.005;
        Data {
            universe,
            points,
            left: sh_workload::rects(sizes.rects, &universe, max_side, seed ^ 0xA),
            right: sh_workload::rects(sizes.rects, &universe, max_side, seed ^ 0xB),
        }
    }

    /// The ops of a run with the oracle's answer to each.
    pub fn plan(self, seed: u64, sizes: Sizes, data: &Data) -> Plan {
        let mut rng = Rng::new(seed ^ 0x5eed);
        let pts = &data.points;
        let mut ops;
        let mut order = Vec::new();
        match self {
            Workload::ServeMixed => {
                // ~0.2 % of the universe per window, ~400 rows.
                let side = data.universe.width() * 0.002f64.sqrt();
                ops = scattered("ip", side, sizes, data, &mut rng);
                ops.push(Op::join("ra", "rb", &data.left, &data.right));
                // 70 % FILTER, 20 % KNN, 10 % JOIN, evenly interleaved.
                let join = ops.len() - 1;
                let (mut r, mut k) = (0, 0);
                let cycles = sizes.ranges.div_ceil(7).max(sizes.knns.div_ceil(2));
                for _ in 0..cycles {
                    for slot in ['r', 'r', 'k', 'r', 'r', 'j', 'r', 'k', 'r', 'r'] {
                        order.push(match slot {
                            'r' => {
                                r += 1;
                                (r - 1) % sizes.ranges
                            }
                            'k' => {
                                k += 1;
                                sizes.ranges + (k - 1) % sizes.knns
                            }
                            _ => join,
                        });
                    }
                }
            }
            Workload::ServeScan => {
                ops = Vec::new();
                // Windows centred on records and sized to return ~2 % of
                // them. Where the data is sparse such a window is wide,
                // crosses many partitions and costs several times more,
                // so a handful of windows drawn blindly would make one
                // seed's run unlike another's: of four times as many
                // candidates, keep those of the most typical width.
                let rows = sizes.points / 50;
                let mut candidates: Vec<(f64, Point)> = (0..4 * sizes.ranges)
                    .map(|_| {
                        let c = pts[rng.below(pts.len())];
                        (side_for_rows(&c, rows, pts), c)
                    })
                    .collect();
                candidates.sort_by(|a, b| a.0.total_cmp(&b.0));
                let typical = &candidates[candidates.len() * 3 / 8..][..sizes.ranges];
                let mut binary = Vec::new();
                for (side, c) in typical {
                    let text = Op::range("pt", window(c, *side, &data.universe), pts);
                    let Args::Range { q, .. } = text.args else {
                        unreachable!("a range op")
                    };
                    // Same window on the binary index, same answer.
                    binary.push(Op::range_expecting("pb", q, text.expect.clone()));
                    ops.push(text);
                }
                ops.extend(binary);
                ops.push(Op::join("ra", "rb", &data.left, &data.right));
                // One round: every window once on each index, text and
                // binary alternating, and every tenth op the join.
                let n = sizes.ranges;
                let join = 2 * n;
                for half in 0..2 {
                    for w in 0..n {
                        order.push(if (w + half) % 2 == 0 { w } else { n + w });
                    }
                    order.push(join);
                }
            }
            Workload::HeapBatch => {
                // ~1 % of the universe per window.
                let side = data.universe.width() * 0.1;
                ops = scattered("p", side, sizes, data, &mut rng);
                let fixed = ops.len();
                ops.push(Op::join("a", "b", &data.left, &data.right));
                ops.push(Op::skyline("p", pts));
                ops.push(Op::hull("p", pts));
                for i in 0..sizes.ranges.max(sizes.knns) {
                    order.extend([
                        i % sizes.ranges,
                        sizes.ranges + i % sizes.knns,
                        fixed,
                        fixed + 1,
                        fixed + 2,
                    ]);
                }
            }
            Workload::IngestIndex => {
                ops = Vec::new();
                // One cycle; the run rewrites the target directory of
                // each op with the cycle's number.
                let n_points = data.points.len() as u64;
                for (kind, format) in [
                    (PartitionKind::Grid, BlockFormat::Text),
                    (PartitionKind::StrPlus, BlockFormat::Text),
                    (PartitionKind::Grid, BlockFormat::Binary),
                    (PartitionKind::StrPlus, BlockFormat::Binary),
                ] {
                    ops.push(Op::index(
                        "hp",
                        false,
                        kind,
                        format,
                        String::new(),
                        n_points,
                    ));
                }
                ops.push(Op::index(
                    "hr",
                    true,
                    PartitionKind::Grid,
                    BlockFormat::Text,
                    String::new(),
                    data.left.len() as u64,
                ));
                order.extend(0..ops.len());
            }
        }
        let round = match self {
            Workload::ServeMixed => 10,
            Workload::ServeScan => order.len(),
            Workload::HeapBatch | Workload::IngestIndex => 5,
        };
        debug_assert_eq!(order.len() % round, 0, "whole rounds only");
        Plan { ops, order, round }
    }

    /// Uploads the inputs, builds what the workload queries, opens the
    /// front door and warms it. Timed by the caller as part of set-up.
    /// `workers` overrides the executor's thread count (the traced pass
    /// runs on one worker so that its counts repeat exactly).
    pub fn setup(
        self,
        data: &Data,
        plan: &Plan,
        clients: usize,
        workers: Option<usize>,
    ) -> Result<Env, String> {
        let dfs = Dfs::new(ClusterConfig {
            block_size: BLOCK_BYTES,
            worker_threads: workers,
            ..ClusterConfig::default()
        });
        let mut env = Env {
            engine: Pigeon::new(&dfs),
            sess: SessionCtx::new(),
            server: None,
            clients: Vec::new(),
            dfs,
        };
        if self == Workload::IngestIndex {
            // Warm-up is one whole cycle, which uploads its own inputs.
            let mut warm = Ingest::default();
            warm.cycle(&mut env, data, plan, None);
            return match warm.samples.iter().find_map(|s| s.failure.clone()) {
                Some(why) => Err(format!("warm-up cycle: {why}")),
                None => Ok(env),
            };
        }
        for (path, uploaded) in [
            ("/b/p", storage::upload(&env.dfs, "/b/p", &data.points)),
            ("/b/a", storage::upload(&env.dfs, "/b/a", &data.left)),
            ("/b/b", storage::upload(&env.dfs, "/b/b", &data.right)),
        ] {
            uploaded.map_err(|e| format!("upload {path}: {e}"))?;
        }
        let load = "p = LOAD '/b/p' AS POINT; a = LOAD '/b/a' AS RECTANGLE; \
                    b = LOAD '/b/b' AS RECTANGLE;";
        run_lines(&mut env.engine, &mut env.sess, load)?;
        if self == Workload::HeapBatch {
            // Nothing to build. Warm-up is one op of each kind.
            for i in first_of_each_kind(plan) {
                let sample = session_op(&mut env, 0, &plan.ops[i]);
                if let Some(why) = sample.failure {
                    return Err(format!("warm-up `{}`: {why}", plan.ops[i].line));
                }
            }
            load::sweep_outputs(&env.dfs);
            return Ok(env);
        }
        let index = match self {
            Workload::ServeMixed => "ip = INDEX p AS str+ INTO '/b/ip';".to_string(),
            _ => {
                // The text index's resident form is about 100 bytes a
                // record and the binary one's about 50; an eighth of the
                // smaller keeps the LRU churning on both.
                let budget = data.points.len() * 50 / 8;
                format!(
                    "pt = INDEX p AS str+ INTO '/b/pt'; \
                     pb = INDEX p AS str+ INTO '/b/pb' FORMAT binary; \
                     SET cache_budget {budget};"
                )
            }
        };
        let init = format!(
            "{load} {index} ra = INDEX a AS grid INTO '/b/ra'; rb = INDEX b AS grid INTO '/b/rb';"
        );
        let server = Server::start(
            &env.dfs,
            ServerConfig {
                init_script: Some(init),
                ..ServerConfig::default()
            },
        )
        .map_err(|e| format!("server start: {e}"))?;
        // The ladder's in-process session sees what every connection's
        // session sees: the indexes the init script built, opened from
        // their catalogues.
        for (var, rtype) in [
            ("ip", RecordType::Point),
            ("pt", RecordType::Point),
            ("pb", RecordType::Point),
            ("ra", RecordType::Rectangle),
            ("rb", RecordType::Rectangle),
        ] {
            let dir = format!("/b/{var}");
            if env.dfs.exists(&SpatialFile::master_path(&dir)) {
                let file = SpatialFile::open(&env.dfs, &dir).map_err(|e| format!("{dir}: {e}"))?;
                env.sess
                    .vars
                    .insert(var.to_string(), Value::Indexed { file, rtype });
            }
        }
        for _ in 0..clients {
            let conn = ShClient::connect(&server.addr()).map_err(|e| format!("connect: {e}"))?;
            env.clients.push(conn);
        }
        env.server = Some(server);
        // Warm-up: the connections share the first ops of the run, which
        // also fills the block cache as far as its budget goes; where
        // everything fits, one window over the whole universe first
        // brings every partition in.
        if self == Workload::ServeMixed {
            let u = data.universe;
            let all = format!(
                "q = FILTER ip BY Overlaps(RECTANGLE({}, {}, {}, {}));",
                u.x1, u.y1, u.x2, u.y2
            );
            env.clients[0]
                .request(&all)
                .map_err(|e| format!("warm-up: {e}"))?;
        }
        for (n, &i) in plan.order.iter().take(WARM_UP_OPS).enumerate() {
            let op = &plan.ops[i];
            let reply = env.clients[n % clients]
                .request(&op.line)
                .map_err(|e| format!("warm-up: {e}"))?;
            op.check(reply.payload.lines())
                .map_err(|e| format!("warm-up `{}`: {e}", op.line))?;
        }
        load::sweep_outputs(&env.dfs);
        Ok(env)
    }

    /// The measured phase of the untraced run.
    pub fn measure(self, env: &mut Env, data: &Data, plan: &Plan, seconds: f64) -> Measured {
        match self {
            Workload::ServeMixed => measure_rungs(env, plan, seconds),
            Workload::ServeScan => {
                let phase =
                    load::closed_loop(&env.dfs, &mut env.clients, &plan.ops, &plan.order, seconds);
                let mut extras = BTreeMap::new();
                served_extras(&mut extras, &phase.samples, phase.wall_s);
                let all = 0..phase.samples.len();
                let clients = env.clients.len();
                let round = plan.round;
                Measured::of(phase.samples, all.clone(), all, round, clients, &[], extras)
            }
            Workload::HeapBatch => {
                let mut samples = Vec::new();
                let end = Instant::now() + Duration::from_secs_f64(seconds);
                for (seq, &i) in plan.order.iter().cycle().enumerate() {
                    if Instant::now() >= end {
                        break;
                    }
                    samples.push(session_op(env, seq, &plan.ops[i]));
                    load::sweep_outputs(&env.dfs);
                }
                let all = 0..samples.len();
                Measured::of(
                    samples,
                    all.clone(),
                    all,
                    plan.round,
                    1,
                    &[],
                    BTreeMap::new(),
                )
            }
            Workload::IngestIndex => {
                let mut run = Ingest::default();
                let end = Instant::now() + Duration::from_secs_f64(seconds);
                while Instant::now() < end {
                    run.cycle(env, data, plan, Some(end));
                }
                let all = 0..run.samples.len();
                let extras = BTreeMap::from([
                    ("index_krec_per_s", run.indexed as f64 / 1e3 / run.index_s),
                    ("stored_bytes_per_user_byte", run.stored_ratio),
                ]);
                let (round, other_s) = (plan.round, &run.other_s);
                Measured::of(run.samples, all.clone(), all, round, 1, other_s, extras)
            }
        }
    }
}

/// `sizes.ranges` square windows of one side and then `sizes.knns` kNN
/// query points, scattered evenly over the universe.
fn scattered(src: &'static str, side: f64, sizes: Sizes, data: &Data, rng: &mut Rng) -> Vec<Op> {
    let u = data.universe;
    let mut anywhere = || {
        Point::new(
            (rng.unit() * u.width()).round(),
            (rng.unit() * u.height()).round(),
        )
    };
    let mut ops = Vec::new();
    for _ in 0..sizes.ranges {
        ops.push(Op::range(src, window(&anywhere(), side, &u), &data.points));
    }
    for _ in 0..sizes.knns {
        ops.push(Op::knn(src, anywhere(), 10, &data.points));
    }
    ops
}

/// Requests the served workloads answer before timing starts.
const WARM_UP_OPS: usize = 24;

/// One op of each kind present in the plan, in plan order: the warm-up
/// of `heap-batch`.
fn first_of_each_kind(plan: &Plan) -> Vec<usize> {
    let mut seen = Vec::new();
    let mut picks = Vec::new();
    for &i in &plan.order {
        let key = std::mem::discriminant(&plan.ops[i].args);
        if !seen.contains(&key) {
            seen.push(key);
            picks.push(i);
        }
    }
    picks
}

/// Parses and runs Pigeon source on the in-process session.
pub fn run_lines(
    engine: &mut Pigeon,
    sess: &mut SessionCtx,
    src: &str,
) -> Result<Vec<String>, String> {
    let script = parser::parse(src).map_err(|e| format!("`{src}`: {e}"))?;
    engine
        .execute_with(sess, &script)
        .map_err(|e| format!("`{src}`: {e}"))
}

/// Runs one op on the in-process session, timed from parse to the last
/// dumped row, and checks its answer.
pub fn session_op(env: &mut Env, seq: usize, op: &Op) -> Sample {
    let t0 = Instant::now();
    let outcome = run_lines(&mut env.engine, &mut env.sess, &op.line);
    let latency_ms = t0.elapsed().as_secs_f64() * 1e3;
    let (rows, failure) = match outcome {
        Ok(rows) => (rows.len(), op.check(rows.iter().map(String::as_str)).err()),
        Err(e) => (0, Some(e)),
    };
    Sample {
        seq,
        kind: op.kind,
        latency_ms,
        ttfb_ms: None,
        lag_ms: 0.0,
        rows,
        retries: 0,
        failure,
    }
}

fn correct(samples: &[Sample]) -> usize {
    samples.iter().filter(|s| s.failure.is_none()).count()
}

fn served_extras(extras: &mut BTreeMap<&'static str, f64>, samples: &[Sample], wall_s: f64) {
    let rows: usize = samples.iter().map(|s| s.rows).sum();
    extras.insert("rows_per_s", rows as f64 / wall_s);
    let ttfb: Vec<f64> = samples.iter().filter_map(|s| s.ttfb_ms).collect();
    extras.insert("ttfb_p50_ms", stats::median(ttfb));
    let retries: usize = samples.iter().map(|s| s.retries).sum();
    extras.insert("busy_retries", retries as f64);
}

/// `serve-mixed`: three open-loop rungs. Latency is reported on the
/// middle rung, throughput on the saturating one. The rungs take turns in
/// [`SLICES`] short slices each rather than one long stretch each, so
/// that every rung sees the whole run's share of the host's slow seconds.
fn measure_rungs(env: &mut Env, plan: &Plan, seconds: f64) -> Measured {
    let mut samples: [Vec<Sample>; 3] = Default::default();
    let mut scheduled = [0usize; 3];
    let mut backlog_s = [0.0f64; 3];
    for _ in 0..SLICES {
        for (r, (&rate, share)) in RUNGS_QPS.iter().zip(RUNG_SHARE).enumerate() {
            // Whole rounds only, so that rounds never straddle slices.
            let arrivals = (rate * seconds * share / SLICES as f64) as usize;
            let arrivals = (arrivals / plan.round).max(1) * plan.round;
            let phase = load::open_loop(
                &env.dfs,
                &mut env.clients,
                &plan.ops,
                &plan.order,
                rate,
                scheduled[r]..scheduled[r] + arrivals,
            );
            scheduled[r] += arrivals;
            backlog_s[r] = backlog_s[r].max(phase.backlog_s);
            samples[r].extend(phase.samples);
        }
    }
    let mut extras = BTreeMap::new();
    let mut rungs = Vec::new();
    for (r, (&rate_qps, part)) in RUNGS_QPS.iter().zip(&samples).enumerate() {
        let mut lat: Vec<f64> = part.iter().map(|s| s.latency_ms).collect();
        stats::sort(&mut lat);
        rungs.push(RungOutcome {
            rate_qps,
            tail_ms: stats::tail_sorted(&lat).1,
            failed: part.len() - correct(part),
            backlog_s: backlog_s[r],
        });
        let mut lag: Vec<f64> = part.iter().map(|s| s.lag_ms).collect();
        stats::sort(&mut lag);
        let key = [
            "gen_lag_ms_p99.low",
            "gen_lag_ms_p99.mid",
            "gen_lag_ms_p99.sat",
        ][r];
        extras.insert(key, stats::percentile_sorted(&lag, 99.0));
    }
    extras.insert("max_rate_qps", stats::max_rate(&rungs));
    let [low, mid, sat] = samples;
    served_extras(&mut extras, &mid, seconds * RUNG_SHARE[1]);
    let mid_of = low.len()..low.len() + mid.len();
    let sat_of = mid_of.end..mid_of.end + sat.len();
    let all = [low, mid, sat].concat();
    let clients = env.clients.len();
    Measured::of(all, mid_of, sat_of, plan.round, clients, &[], extras)
}

/// `ingest-index`: upload → five `INDEX` builds → `SCRUB` → delete,
/// round and round. One op is one `INDEX`; each build is checked by its
/// record count and by a `FILTER` over the whole universe.
#[derive(Default)]
pub struct Ingest {
    pub samples: Vec<Sample>,
    /// Seconds inside uploads, scrubs and deletes, cycle by cycle.
    pub other_s: Vec<f64>,
    /// Seconds inside `INDEX`, and the records those builds took in.
    pub index_s: f64,
    pub indexed: u64,
    /// Bytes stored, replicas and sidecars included, per heap byte
    /// uploaded, after the first whole cycle.
    pub stored_ratio: f64,
    cycles: usize,
    /// The point and rectangle inputs as row sets, for the whole-universe
    /// check.
    inputs: Option<[RowSet; 2]>,
}

impl Ingest {
    /// One cycle; past `end` it starts no further `INDEX`.
    pub fn cycle(&mut self, env: &mut Env, data: &Data, plan: &Plan, end: Option<Instant>) {
        let t0 = Instant::now();
        let uploaded = storage::upload(&env.dfs, "/in/p", &data.points)
            .and_then(|()| storage::upload(&env.dfs, "/in/r", &data.left))
            .map_err(|e| e.to_string())
            .and_then(|()| {
                run_lines(
                    &mut env.engine,
                    &mut env.sess,
                    "hp = LOAD '/in/p' AS POINT; hr = LOAD '/in/r' AS RECTANGLE;",
                )
            });
        let mut other_s = t0.elapsed().as_secs_f64();
        let first_seq = self.cycles * plan.round;
        if let Err(e) = uploaded {
            self.samples
                .push(failed_sample(first_seq, format!("upload: {e}")));
            self.cycles += 1;
            return;
        }
        let u = data.universe;
        let whole_universe = format!(
            "v = FILTER i BY Overlaps(RECTANGLE({}, {}, {}, {})); DUMP v;",
            u.x1, u.y1, u.x2, u.y2
        );
        let inputs = *self.inputs.get_or_insert_with(|| {
            [
                RowSet::of_records(&data.points),
                RowSet::of_records(&data.left),
            ]
        });
        let dir = format!("/ix/{}", self.cycles);
        let mut whole_cycle = true;
        for (n, template) in plan.ops.iter().enumerate() {
            if end.is_some_and(|end| Instant::now() >= end) {
                whole_cycle = false;
                break;
            }
            let op = template.index_into(format!("{dir}/{n}"));
            let mut sample = session_op(env, first_seq + n, &op);
            self.index_s += sample.latency_ms / 1e3;
            if sample.failure.is_none() {
                let Expect::Index { records, exact } = op.expect else {
                    unreachable!("ingest-index plans hold INDEX ops only")
                };
                self.indexed += records;
                // Points are indexed exactly; rectangles are the other input.
                let input = inputs[usize::from(!exact)];
                sample.failure = match run_lines(&mut env.engine, &mut env.sess, &whole_universe) {
                    Ok(rows) if RowSet::of(rows.iter().map(String::as_str)) == input => None,
                    Ok(rows) => Some(format!(
                        "`{}`: a FILTER over the whole universe returns {} rows that are not the input",
                        op.line,
                        rows.len()
                    )),
                    Err(e) => Some(e),
                };
                load::sweep_outputs(&env.dfs);
            }
            self.samples.push(sample);
        }
        let t0 = Instant::now();
        let scrubbed = run_lines(&mut env.engine, &mut env.sess, "SCRUB;");
        other_s += t0.elapsed().as_secs_f64();
        match scrubbed {
            Ok(report)
                if report
                    .iter()
                    .any(|l| l.ends_with(": 0 corrupt, 0 repaired, 0 unrecoverable")) => {}
            Ok(report) => self
                .samples
                .push(failed_sample(first_seq, format!("SCRUB: {report:?}"))),
            Err(e) => self.samples.push(failed_sample(first_seq, e)),
        }
        if whole_cycle && self.stored_ratio == 0.0 {
            self.stored_ratio = stored_bytes(&env.dfs) as f64 / heap_bytes(&env.dfs) as f64;
        }
        let t0 = Instant::now();
        storage::delete_dir(&env.dfs, &dir);
        env.dfs.delete("/in/p");
        env.dfs.delete("/in/r");
        self.other_s.push(other_s + t0.elapsed().as_secs_f64());
        self.cycles += 1;
    }
}

/// A step of the ingest cycle that is not an `INDEX` failed.
fn failed_sample(seq: usize, why: String) -> Sample {
    Sample {
        seq,
        kind: Kind::Index,
        latency_ms: 0.0,
        ttfb_ms: None,
        lag_ms: 0.0,
        rows: 0,
        retries: 0,
        failure: Some(why),
    }
}

/// Bytes the DFS holds, replicas included.
pub fn stored_bytes(dfs: &Dfs) -> u64 {
    dfs.list("/")
        .iter()
        .filter_map(|path| dfs.block_locations(path).ok())
        .flatten()
        .map(|b| b.len * b.replicas.len() as u64)
        .sum()
}

/// Bytes of the heap files a workload uploaded, one copy.
pub fn heap_bytes(dfs: &Dfs) -> u64 {
    ["/in/p", "/in/r", "/b/p", "/b/a", "/b/b"]
        .iter()
        .filter_map(|p| dfs.stat(p).ok())
        .map(|s| s.len)
        .sum()
}
