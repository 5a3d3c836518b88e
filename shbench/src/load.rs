//! Load generation over TCP: at most `nproc` client threads, each owning
//! one persistent connection, driven either closed loop (the next
//! request leaves when the previous one is answered) or open loop
//! (requests are due on a fixed schedule whether or not earlier ones
//! finished, and latency counts from the instant a request was due).

use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use sh_dfs::Dfs;

use crate::client::{ShClient, Status};
use crate::ops::{Kind, Op};

/// One attempted operation.
#[derive(Clone, Debug)]
pub struct Sample {
    /// Position in the run's op sequence; `seq / round` is the round.
    pub seq: usize,
    pub kind: Kind,
    /// Due (open loop) or send (closed loop) instant → terminator read.
    pub latency_ms: f64,
    /// Same origin → first `DATA` header read; `None` without rows.
    pub ttfb_ms: Option<f64>,
    /// Open loop only: how late the generator sent the request.
    pub lag_ms: f64,
    pub rows: usize,
    /// `429 BUSY` answers the request was resent after.
    pub retries: usize,
    /// Why the op counts as failed (error, refusal, wrong answer).
    pub failure: Option<String>,
}

/// Everything under this prefix is a finished query's result file: the
/// engine writes one per statement and never removes it.
pub const OUTPUT_PREFIX: &str = "/pigeon/";

/// Deletes every query output. Only safe while no query is in flight.
pub fn sweep_outputs(dfs: &Dfs) {
    for path in dfs.list(OUTPUT_PREFIX) {
        dfs.delete(&path);
    }
}

/// Removes finished queries' result files while clients keep sending, so
/// that memory at the end of a run does not grow with the number of ops
/// the run happened to complete. A file listed at one instant may belong
/// to a query still in flight; once every client has completed one more
/// request than it had at that instant, it cannot.
fn janitor(dfs: &Dfs, done: &[AtomicU64], stop: &AtomicBool) {
    while !stop.load(Ordering::SeqCst) {
        let seen: Vec<u64> = done.iter().map(|d| d.load(Ordering::SeqCst)).collect();
        let listed = dfs.list(OUTPUT_PREFIX);
        while !done
            .iter()
            .zip(&seen)
            .all(|(d, s)| d.load(Ordering::SeqCst) > *s)
        {
            if stop.load(Ordering::SeqCst) {
                return;
            }
            std::thread::sleep(Duration::from_millis(2));
        }
        for path in listed {
            dfs.delete(&path);
        }
        std::thread::sleep(Duration::from_millis(20));
    }
}

/// Sends `op` and turns the reply into a sample; `origin` is the instant
/// latency counts from.
fn attempt(client: &mut ShClient, seq: usize, op: &Op, origin: Instant, sent: Instant) -> Sample {
    let ms = |t: Instant| t.saturating_duration_since(origin).as_secs_f64() * 1e3;
    let lag_ms = ms(sent);
    match client.request(&op.line) {
        Ok(reply) => {
            let failure = match &reply.status {
                Status::Ok => op.check(reply.payload.lines()).err(),
                Status::Err(msg) => Some(format!("ERR {msg}")),
                Status::Busy => Some("429 BUSY after the retry budget".to_string()),
            };
            Sample {
                seq,
                kind: op.kind,
                latency_ms: ms(reply.done),
                ttfb_ms: reply.first_data.map(ms),
                lag_ms,
                rows: reply.payload.lines().count(),
                retries: reply.retries,
                failure,
            }
        }
        Err(e) => Sample {
            seq,
            kind: op.kind,
            latency_ms: ms(Instant::now()),
            ttfb_ms: None,
            lag_ms,
            rows: 0,
            retries: 0,
            failure: Some(format!("i/o: {e}")),
        },
    }
}

/// What a load phase produced.
pub struct Phase {
    pub samples: Vec<Sample>,
    /// Phase start → last reply.
    pub wall_s: f64,
    /// Open loop: how far behind schedule the generator was at the end.
    pub backlog_s: f64,
}

/// Closed loop: every client sends the next op of the shared sequence
/// (`order` indexes `ops`, cycled) as soon as its previous one is
/// answered, until `seconds` have passed.
pub fn closed_loop(
    dfs: &Dfs,
    clients: &mut [ShClient],
    ops: &[Op],
    order: &[usize],
    seconds: f64,
) -> Phase {
    let next = AtomicUsize::new(0);
    let t0 = Instant::now();
    let end = t0 + Duration::from_secs_f64(seconds);
    let (samples, last_reply) = drive(dfs, clients, |client, done| {
        let mut samples = Vec::new();
        while Instant::now() < end {
            let i = next.fetch_add(1, Ordering::Relaxed);
            let sent = Instant::now();
            samples.push(attempt(client, i, &ops[order[i % order.len()]], sent, sent));
            done.fetch_add(1, Ordering::SeqCst);
        }
        samples
    });
    Phase {
        samples,
        wall_s: (last_reply - t0).as_secs_f64(),
        backlog_s: 0.0,
    }
}

/// Open loop over the arrivals `seqs` of a schedule: they are due one
/// every `1 / rate` seconds from now, and arrival `i` takes op
/// `order[i]` (cycled). Clients pull arrivals from the one schedule; a
/// client that is free early sleeps until its arrival is due, one that is
/// late sends at once and the delay counts as latency. Arrivals still
/// unsent when the last one was due are not attempted; how overdue the
/// first of them was is the backlog.
pub fn open_loop(
    dfs: &Dfs,
    clients: &mut [ShClient],
    ops: &[Op],
    order: &[usize],
    rate_qps: f64,
    seqs: std::ops::Range<usize>,
) -> Phase {
    let arrivals = seqs.len();
    let next = AtomicUsize::new(0);
    let t0 = Instant::now();
    let due_of = |i: usize| t0 + Duration::from_secs_f64(i as f64 / rate_qps);
    let end = due_of(arrivals);
    let (samples, last_reply) = drive(dfs, clients, |client, done| {
        let mut samples = Vec::new();
        loop {
            let i = next.fetch_add(1, Ordering::Relaxed);
            if i >= arrivals {
                break;
            }
            let due = due_of(i);
            let now = Instant::now();
            if due > now {
                std::thread::sleep(due - now);
            } else if now >= end {
                // Put the arrival back so the backlog sees it.
                next.fetch_sub(1, Ordering::Relaxed);
                break;
            }
            let seq = seqs.start + i;
            let op = &ops[order[seq % order.len()]];
            samples.push(attempt(client, seq, op, due, Instant::now()));
            done.fetch_add(1, Ordering::SeqCst);
        }
        samples
    });
    let unsent = next.load(Ordering::Relaxed).min(arrivals);
    let backlog_s = if unsent < arrivals {
        end.saturating_duration_since(due_of(unsent)).as_secs_f64()
    } else {
        0.0
    };
    Phase {
        samples,
        wall_s: (last_reply - t0).as_secs_f64(),
        backlog_s,
    }
}

/// Runs `work` on one thread per client, with the janitor beside them,
/// and gathers their samples, and the instant of the last reply, once all
/// have joined.
fn drive<F>(dfs: &Dfs, clients: &mut [ShClient], work: F) -> (Vec<Sample>, Instant)
where
    F: Fn(&mut ShClient, &AtomicU64) -> Vec<Sample> + Sync,
{
    let done: Vec<AtomicU64> = clients.iter().map(|_| AtomicU64::new(0)).collect();
    let stop = AtomicBool::new(false);
    let mut samples = Vec::new();
    let mut last_reply = Instant::now();
    std::thread::scope(|s| {
        let sweeper = s.spawn(|| janitor(dfs, &done, &stop));
        let workers: Vec<_> = clients
            .iter_mut()
            .zip(&done)
            .map(|(client, done)| {
                let work = &work;
                s.spawn(move || (work(client, done), Instant::now()))
            })
            .collect();
        for w in workers {
            let (mut part, ended) = w.join().expect("client thread panicked");
            samples.append(&mut part);
            last_reply = last_reply.max(ended);
        }
        stop.store(true, Ordering::SeqCst);
        sweeper.join().expect("janitor panicked");
    });
    sweep_outputs(dfs);
    (samples, last_reply)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::fake::{serve, Step};
    use sh_dfs::ClusterConfig;
    use sh_geom::{Point, Rect};

    /// An open loop must charge a server stall to the arrivals that were
    /// due during it, not only to the request that happened to hit it.
    #[test]
    fn a_stall_shows_in_the_latency_of_later_arrivals() {
        const STALLED: usize = 5;
        let stall = Duration::from_millis(300);
        let (addr, server) = serve(move |n| {
            let mut steps = Vec::new();
            if n == STALLED {
                steps.push(Step::Stall(stall));
            }
            steps.push(Step::Send("DATA 4\n1 1\nOK 1\n"));
            steps
        });
        let op = Op::range("p", Rect::new(0.0, 0.0, 2.0, 2.0), &[Point::new(1.0, 1.0)]);
        let dfs = Dfs::new(ClusterConfig::small_for_tests());
        let mut clients = vec![ShClient::connect(&addr).unwrap()];
        // 100 arrivals a second for half a second: one every 10 ms.
        let phase = open_loop(&dfs, &mut clients, &[op], &[0], 100.0, 0..50);
        drop(clients);
        server.join().unwrap();
        assert!(phase.samples.iter().all(|s| s.failure.is_none()));
        let hit = &phase.samples[STALLED];
        assert!(hit.latency_ms >= 300.0 && hit.lag_ms < 50.0, "{hit:?}");
        // The next arrival was due 10 ms after the stalled one was sent
        // and could only leave when the stall ended.
        let next = &phase.samples[STALLED + 1];
        assert!(next.lag_ms >= 250.0, "{next:?}");
        assert!(next.latency_ms >= next.lag_ms);
        // Every arrival due inside the stall is late by what was left of it.
        let late = phase.samples.iter().filter(|s| s.lag_ms >= 50.0).count();
        assert!(late >= 20, "only {late} arrivals saw the stall");
        // A closed loop would have seen one slow request and no more.
        let slow = phase
            .samples
            .iter()
            .filter(|s| s.latency_ms >= 50.0)
            .count();
        assert!(slow >= late);
    }
}
