//! The server proper: listener, per-connection sessions, admission.

use std::collections::HashMap;
use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread;
use std::time::{Duration, Instant};

use sh_dfs::Dfs;
use sh_mapreduce::{JobScheduler, SchedConfig};
use sh_pigeon::{parser, Admission, Pigeon, PigeonError, SessionCtx};
use sh_trace::sync::lock;

use crate::protocol::{
    write_busy, write_err, write_ok, write_rows_frames, BANNER, BYE, DEFAULT_CHUNK_BYTES,
    MAX_REQUEST_BYTES,
};

/// How long a connection thread waits for its queued statement's
/// admission between looks at the socket and the stop flag. Admission
/// wakes it at once; a vanished client or a shutdown is noticed within
/// one slice.
const LIVENESS_SLICE: Duration = Duration::from_millis(10);

/// How a [`Server`] is stood up.
#[derive(Clone)]
pub struct ServerConfig {
    /// Bind address; port 0 picks an ephemeral port (read it back from
    /// [`Server::addr`]).
    pub addr: String,
    /// Admission config for the shared scheduler: `max_in_flight` jobs
    /// run concurrently, `queue_cap` wait, the rest get `429 BUSY`.
    pub sched: SchedConfig,
    /// Bound on a `DATA` frame's payload.
    pub chunk_bytes: usize,
    /// Back-off hint carried in `429 BUSY` responses.
    pub retry_ms: u64,
    /// Pigeon source executed once at startup; the bindings it creates
    /// become the base session every connection forks (e.g. a shared
    /// indexed dataset).
    pub init_script: Option<String>,
}

impl Default for ServerConfig {
    fn default() -> ServerConfig {
        ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            sched: SchedConfig::default(),
            chunk_bytes: DEFAULT_CHUNK_BYTES,
            retry_ms: 100,
            init_script: None,
        }
    }
}

/// A running query server. Dropping it (or calling [`Server::stop`])
/// shuts the listener down, hangs up every connection, and joins all
/// service threads.
pub struct Server {
    inner: Arc<Inner>,
    accept_thread: Option<thread::JoinHandle<()>>,
}

struct Inner {
    dfs: Dfs,
    sched: JobScheduler,
    cfg: ServerConfig,
    addr: SocketAddr,
    /// Session every connection forks: the init script's bindings.
    /// (Mutex only for `Sync`: forks are read-only and momentary.)
    base: Mutex<SessionCtx>,
    stop: AtomicBool,
    conn_seq: AtomicU64,
    /// Live connection streams, for hang-up on shutdown.
    conns: Mutex<HashMap<u64, TcpStream>>,
    /// Connection service threads, joined on shutdown.
    threads: Mutex<Vec<thread::JoinHandle<()>>>,
}

impl Server {
    /// Binds, runs the init script, and starts accepting connections.
    pub fn start(dfs: &Dfs, cfg: ServerConfig) -> io::Result<Server> {
        let sched = JobScheduler::new(dfs, cfg.sched);
        let mut base = SessionCtx::new();
        if let Some(src) = &cfg.init_script {
            let mut engine = Pigeon::with_scheduler(dfs, &sched);
            let script = parser::parse(src)
                .map_err(|e| io::Error::new(io::ErrorKind::InvalidInput, e.to_string()))?;
            engine
                .execute_with(&mut base, &script)
                .map_err(|e| io::Error::other(format!("init script failed: {e}")))?;
        }
        let listener = TcpListener::bind(&cfg.addr)?;
        let addr = listener.local_addr()?;
        let inner = Arc::new(Inner {
            dfs: dfs.clone(),
            sched,
            cfg,
            addr,
            base: Mutex::new(base),
            stop: AtomicBool::new(false),
            conn_seq: AtomicU64::new(0),
            conns: Mutex::new(HashMap::new()),
            threads: Mutex::new(Vec::new()),
        });
        sh_trace::events::emit("server.start", vec![("addr", addr.to_string())]);
        let accept_inner = Arc::clone(&inner);
        let accept_thread = thread::Builder::new()
            .name("sh-server-accept".into())
            .spawn(move || accept_loop(accept_inner, listener))?;
        Ok(Server {
            inner,
            accept_thread: Some(accept_thread),
        })
    }

    /// The bound address (resolves port 0).
    pub fn addr(&self) -> SocketAddr {
        self.inner.addr
    }

    /// The scheduler every connection shares — exposed so tests can
    /// observe queue depth and in-flight counts.
    pub fn scheduler(&self) -> &JobScheduler {
        &self.inner.sched
    }

    /// Stops accepting, hangs up every live connection, and joins all
    /// service threads. Idempotent.
    pub fn stop(&mut self) {
        if self.inner.stop.swap(true, Ordering::SeqCst) {
            return;
        }
        // Unblock accept() with a throwaway connection.
        let _ = TcpStream::connect_timeout(&self.inner.addr, Duration::from_millis(200));
        for (_, stream) in lock(&self.inner.conns).drain() {
            let _ = stream.shutdown(Shutdown::Both);
        }
        if let Some(h) = self.accept_thread.take() {
            let _ = h.join();
        }
        let threads = std::mem::take(&mut *lock(&self.inner.threads));
        for h in threads {
            let _ = h.join();
        }
        sh_trace::events::emit("server.stop", vec![("addr", self.inner.addr.to_string())]);
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.stop();
    }
}

fn accept_loop(inner: Arc<Inner>, listener: TcpListener) {
    for stream in listener.incoming() {
        if inner.stop.load(Ordering::SeqCst) {
            break;
        }
        let stream = match stream {
            Ok(s) => s,
            Err(_) => continue,
        };
        let id = inner.conn_seq.fetch_add(1, Ordering::Relaxed);
        let registry = sh_trace::global();
        registry.counter_add("server.conn.accepted", 1);
        {
            let mut conns = lock(&inner.conns);
            if let Ok(clone) = stream.try_clone() {
                conns.insert(id, clone);
            }
            registry.gauge_set("server.conn.active", conns.len() as i64);
        }
        let conn_inner = Arc::clone(&inner);
        let handle = thread::Builder::new()
            .name(format!("sh-server-conn-{id}"))
            .spawn(move || {
                serve_conn(&conn_inner, stream, id);
                let mut conns = lock(&conn_inner.conns);
                conns.remove(&id);
                let registry = sh_trace::global();
                registry.gauge_set("server.conn.active", conns.len() as i64);
                registry.counter_add("server.conn.closed", 1);
            });
        if let Ok(handle) = handle {
            // Reap finished connections, so a long-lived server holds
            // handles for live connections only.
            let mut threads = lock(&inner.threads);
            threads.retain(|h| !h.is_finished());
            threads.push(handle);
        }
    }
}

fn serve_conn(inner: &Inner, stream: TcpStream, id: u64) {
    let peer = stream
        .peer_addr()
        .map(|a| a.to_string())
        .unwrap_or_else(|_| "?".to_string());
    sh_trace::events::emit(
        "server.conn.open",
        vec![("conn", id.to_string()), ("peer", peer)],
    );
    let _ = stream.set_nodelay(true);
    let mut queries = 0u64;
    // Reader and writer are clones of one socket; `stream` itself stays
    // free for liveness peeks while a statement is in flight.
    let served = (|| -> io::Result<()> {
        let mut reader = BufReader::new(stream.try_clone()?);
        let mut writer = stream.try_clone()?;
        writer.write_all(format!("{BANNER}\n").as_bytes())?;
        writer.flush()?;
        let mut engine = Pigeon::with_scheduler(&inner.dfs, &inner.sched);
        let mut sess = lock(&inner.base).fork();
        let tenant = format!("conn-{id}");
        let mut line = Vec::new();
        loop {
            line.clear();
            let cap = MAX_REQUEST_BYTES as u64 + 1;
            if reader.by_ref().take(cap).read_until(b'\n', &mut line)? == 0 {
                break;
            }
            if inner.stop.load(Ordering::SeqCst) {
                break;
            }
            if line.len() > MAX_REQUEST_BYTES && !line.ends_with(b"\n") {
                // The rest of the line is still unread: nothing after it
                // can be framed, so the connection ends here.
                let message = format!("request line exceeds {MAX_REQUEST_BYTES} bytes");
                fail(&mut writer, &tenant, &bad_request(message))?;
                break;
            }
            let Ok(line) = std::str::from_utf8(&line) else {
                let message = "request line is not UTF-8 text".to_string();
                fail(&mut writer, &tenant, &bad_request(message))?;
                continue;
            };
            let request = line.trim();
            if request.is_empty() || request.starts_with('#') {
                continue;
            }
            if request.eq_ignore_ascii_case("quit") || request.eq_ignore_ascii_case("exit") {
                writer.write_all(format!("{BYE}\n").as_bytes())?;
                writer.flush()?;
                break;
            }
            queries += 1;
            if !handle_request(
                inner,
                &mut engine,
                &mut sess,
                &tenant,
                request,
                &stream,
                &mut writer,
            )? {
                break;
            }
        }
        Ok(())
    })();
    if served.is_err() {
        // Broken pipe / reset mid-request: the client is gone, which is
        // a normal way for a connection to end.
        sh_trace::global().counter_add("server.conn.io_error", 1);
    }
    sh_trace::events::emit(
        "server.conn.close",
        vec![("conn", id.to_string()), ("queries", queries.to_string())],
    );
}

/// Executes one request line. Returns `Ok(false)` when the connection
/// should close (client vanished mid-statement).
fn handle_request(
    inner: &Inner,
    engine: &mut Pigeon,
    sess: &mut SessionCtx,
    tenant: &str,
    request: &str,
    stream: &TcpStream,
    writer: &mut TcpStream,
) -> io::Result<bool> {
    let registry = sh_trace::global();
    let started = Instant::now();
    let script = match parser::parse(request) {
        Ok(s) => s,
        Err(e) => return fail(writer, tenant, &e),
    };
    let mut rows = 0u64;
    for stmt in &script.stmts {
        let dumped = match engine.admit_stmt(sess, stmt, tenant) {
            Ok(Admission::Done(dumped)) => dumped,
            Ok(Admission::Busy) => {
                registry.counter_add("server.query.busy", 1);
                sh_trace::events::emit("server.query.busy", vec![("tenant", tenant.to_string())]);
                write_busy(writer, inner.cfg.retry_ms)?;
                return Ok(true);
            }
            Ok(Admission::Pending(ticket)) => {
                // Wait in slices while the statement is queued: the wait
                // doubles as a liveness watch on the socket, so an
                // abandoned statement is cancelled out of the queue.
                while !ticket.wait_queued(LIVENESS_SLICE) {
                    if inner.stop.load(Ordering::SeqCst) || client_gone(stream) {
                        let dequeued = ticket.cancel();
                        registry.counter_add("server.query.cancelled", 1);
                        sh_trace::events::emit(
                            "server.query.cancelled",
                            vec![
                                ("tenant", tenant.to_string()),
                                ("job", ticket.id().to_string()),
                                ("dequeued", dequeued.to_string()),
                            ],
                        );
                        return Ok(false);
                    }
                }
                // Admitted, the statement runs on this thread; shut down
                // meanwhile, `run` reports it.
                match ticket.run() {
                    Ok(out) => sess.absorb(out),
                    Err(e) => return fail(writer, tenant, &e),
                }
            }
            Err(e) => return fail(writer, tenant, &e),
        };
        for set in &dumped {
            rows += set.len() as u64;
            let frames = write_rows_frames(writer, set, inner.cfg.chunk_bytes)?;
            registry.counter_add("server.frames.sent", frames as u64);
            registry.counter_add("server.rows.streamed", set.len() as u64);
        }
    }
    registry.counter_add("server.query.ok", 1);
    registry.observe(
        "server.query.micros",
        started.elapsed().as_micros().min(u128::from(u64::MAX)) as u64,
    );
    write_ok(writer, rows)?;
    Ok(true)
}

/// Answers a failed request — whether it failed to parse, inline, or on
/// the scheduler — with the `server.query.err` counter, its journal
/// event and an `ERR` frame. Every Pigeon error leaves the session
/// usable, so the connection survives its failed statement.
fn fail(writer: &mut TcpStream, tenant: &str, e: &PigeonError) -> io::Result<bool> {
    sh_trace::global().counter_add("server.query.err", 1);
    sh_trace::events::emit(
        "server.query.err",
        vec![
            ("tenant", tenant.to_string()),
            ("kind", e_kind(e).to_string()),
        ],
    );
    write_err(writer, &e.to_string())?;
    Ok(true)
}

/// A request line the server refuses before parsing it.
fn bad_request(message: String) -> PigeonError {
    PigeonError::Parse { message, line: 1 }
}

fn e_kind(e: &PigeonError) -> &'static str {
    match e {
        PigeonError::Parse { .. } => "parse",
        PigeonError::Undefined(_) => "undefined",
        PigeonError::Type(_) => "type",
        PigeonError::Op(_) => "op",
        PigeonError::Job(_) => "job",
    }
}

/// Whether the peer hung up: a zero-byte peek means FIN arrived, a
/// `WouldBlock` means the socket is idle but alive, pending bytes mean
/// a pipelined request is waiting.
fn client_gone(stream: &TcpStream) -> bool {
    let mut probe = [0u8; 1];
    if stream.set_nonblocking(true).is_err() {
        return true;
    }
    let gone = match stream.peek(&mut probe) {
        Ok(0) => true,
        Ok(_) => false,
        Err(e) if e.kind() == io::ErrorKind::WouldBlock => false,
        Err(_) => true,
    };
    let _ = stream.set_nonblocking(false);
    gone
}

#[cfg(test)]
mod tests {
    use super::*;
    use sh_dfs::ClusterConfig;

    #[test]
    fn finished_connection_threads_are_reaped() {
        let dfs = Dfs::new(ClusterConfig::small_for_tests());
        let server = Server::start(&dfs, ServerConfig::default()).expect("start server");
        for _ in 0..1_000 {
            let mut stream = TcpStream::connect(server.addr()).expect("connect");
            let mut reader = BufReader::new(stream.try_clone().expect("clone"));
            let mut line = String::new();
            reader.read_line(&mut line).expect("banner");
            assert_eq!(line.trim_end(), BANNER);
            stream.write_all(b"QUIT\n").expect("quit");
            line.clear();
            reader.read_line(&mut line).expect("bye");
            assert_eq!(line.trim_end(), BYE);
        }
        // The last connection's thread may still be on its way out.
        let deadline = Instant::now() + Duration::from_secs(10);
        while !lock(&server.inner.conns).is_empty() && Instant::now() < deadline {
            thread::sleep(Duration::from_millis(1));
        }
        assert!(lock(&server.inner.conns).is_empty());
        assert_eq!(sh_trace::global().snapshot().gauge("server.conn.active"), 0);
        let kept = lock(&server.inner.threads).len();
        assert!(kept <= 8, "{kept} handles kept after 1000 connections");
    }
}
