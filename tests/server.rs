//! Integration suite for the `sh-server` network front door: streamed
//! frames must reassemble byte-identical to the CLI driver's output,
//! sessions must be isolated (conflicting `SET`s answer independently),
//! a mid-stream client disconnect must not wedge a scheduler slot,
//! admission-control push-back must surface as a retryable `429 BUSY`,
//! and the `sh-server` binary must parse its flags and announce its
//! address.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use client::{Response, ShClient};
use spatialhadoop::dfs::{ClusterConfig, Dfs};
use spatialhadoop::mapreduce::SchedConfig;
use spatialhadoop::pigeon::run_script;
use spatialhadoop::server::{Server, ServerConfig};

fn dfs() -> Dfs {
    Dfs::new(ClusterConfig::small_for_tests())
}

/// One statement list, used both over the wire and through the CLI
/// driver. `GENERATE` is seed-deterministic, so two fresh clusters
/// produce identical data and the outputs must match byte for byte.
const SCRIPT: &str = "p = GENERATE 3000 POINT uniform INTO '/t/p'; \
     ip = INDEX p AS str+ INTO '/t/ip'; \
     r = FILTER ip BY Overlaps(RECTANGLE(200000, 200000, 700000, 700000)); \
     DUMP r; \
     k = KNN ip POINT(444444, 333333) K 25; \
     DUMP k;";

#[test]
fn streamed_frames_match_cli_driver_byte_for_byte() {
    // Tiny chunk size so the range result spans many DATA frames —
    // reassembly, not just single-frame transport, is under test.
    let server = Server::start(
        &dfs(),
        ServerConfig {
            chunk_bytes: 64,
            ..ServerConfig::default()
        },
    )
    .expect("start server");
    let mut client = ShClient::connect(&server.addr()).expect("connect");
    let streamed = client
        .request(SCRIPT)
        .expect("request")
        .expect_rows("script");
    client.quit().ok();

    let driver = run_script(&dfs(), SCRIPT).expect("cli driver");
    assert!(
        streamed.len() > 25,
        "expected a multi-frame result, got {} rows",
        streamed.len()
    );
    assert_eq!(streamed, driver, "wire rows diverge from CLI driver rows");
}

/// The shape `shbench` serves: thousands of rows framed at the default
/// 8 KiB chunk must reassemble to exactly the CLI driver's rows, and a
/// binding dumped twice is sent twice (the rows are shared, not moved).
#[test]
fn large_result_at_default_chunk_matches_cli_driver() {
    const BIG: &str = "p = GENERATE 9000 POINT uniform INTO '/big/p'; \
         ip = INDEX p AS str+ INTO '/big/ip'; \
         r = FILTER ip BY Overlaps(RECTANGLE(100000, 100000, 900000, 900000)); \
         DUMP r;";
    let server = Server::start(&dfs(), ServerConfig::default()).expect("start server");
    let mut client = ShClient::connect(&server.addr()).expect("connect");
    let streamed = client.request(BIG).expect("request").expect_rows("big");
    let driver = run_script(&dfs(), BIG).expect("cli driver");
    assert!(streamed.len() >= 5000, "only {} rows", streamed.len());
    assert_eq!(streamed, driver, "wire rows diverge from CLI driver rows");

    let twice = client
        .request("DUMP r; DUMP r;")
        .expect("dump twice")
        .expect_rows("dump twice");
    assert_eq!(twice, [driver.clone(), driver].concat());
    client.quit().ok();
}

#[test]
fn sessions_answer_conflicting_sets_independently() {
    let server = Server::start(&dfs(), ServerConfig::default()).expect("start server");
    let mut c1 = ShClient::connect(&server.addr()).expect("c1");
    let mut c2 = ShClient::connect(&server.addr()).expect("c2");

    // Conflicting SETs: c1 caps dumps at 4 rows, c2 stays unlimited.
    c1.request("SET result_limit 4;")
        .expect("c1 set")
        .expect_rows("c1 set");
    c2.request("SET result_limit 0;")
        .expect("c2 set")
        .expect_rows("c2 set");

    let gen = |path: &str| format!("g = GENERATE 100 POINT uniform INTO '{path}'; DUMP g;");
    let r1 = c1
        .request(&gen("/iso/a"))
        .expect("c1 dump")
        .expect_rows("c1 dump");
    let r2 = c2
        .request(&gen("/iso/b"))
        .expect("c2 dump")
        .expect_rows("c2 dump");

    assert_eq!(r1.len(), 5, "c1: 4 rows + truncation marker, got {r1:?}");
    assert!(
        r1[4].contains("truncated by result_limit 4"),
        "c1 marker missing: {:?}",
        r1[4]
    );
    assert_eq!(r2.len(), 100, "c2 must not inherit c1's result_limit");

    // Vars are session-local too: c2 never bound c1's `g`? It did bind
    // its own; a third fresh session must see neither.
    let mut c3 = ShClient::connect(&server.addr()).expect("c3");
    match c3.request("DUMP g;").expect("c3 dump") {
        Response::Err(msg) => assert!(msg.contains("undefined"), "got {msg:?}"),
        other => panic!("c3 saw another session's binding: {other:?}"),
    }
    c1.quit().ok();
    c2.quit().ok();
    c3.quit().ok();
}

/// Builds shared bindings in the base session so every connection —
/// including ones we abandon mid-query — can run the same statements.
fn busy_server(queue_cap: usize) -> Server {
    Server::start(
        &dfs(),
        ServerConfig {
            init_script: Some(
                "p = GENERATE 2000 POINT uniform INTO '/w/p'; \
                 ip = INDEX p AS grid INTO '/w/ip';"
                    .to_string(),
            ),
            sched: SchedConfig {
                max_in_flight: 1,
                queue_cap,
                ..SchedConfig::default()
            },
            retry_ms: 5,
            ..ServerConfig::default()
        },
    )
    .expect("start server")
}

const SLOW_QUERY: &str = "s = KNN ip POINT(500000, 500000) K 5; DUMP s;";

#[test]
fn mid_stream_disconnect_does_not_wedge_a_scheduler_slot() {
    let server = busy_server(4);
    // Arm a fault-plan delay so queries hold the single slot ~1.5s.
    let mut ctl = ShClient::connect(&server.addr()).expect("ctl");
    ctl.request("SET retry_backoff_ms 0; SET fault_plan 'delay:0x1500';")
        .expect("arm")
        .expect_rows("arm");

    // Occupy the slot.
    let addr = server.addr();
    let runner = std::thread::spawn(move || {
        let mut c = ShClient::connect(&addr).expect("runner connect");
        let rows = c.request(SLOW_QUERY).expect("runner").expect_rows("runner");
        c.quit().ok();
        rows.len()
    });
    let deadline = Instant::now() + Duration::from_secs(10);
    while server.scheduler().running() == 0 {
        assert!(Instant::now() < deadline, "slow query never started");
        std::thread::sleep(Duration::from_millis(5));
    }

    // A raw client queues a second query, then vanishes mid-stream
    // without reading a single response byte.
    {
        let mut raw = TcpStream::connect(server.addr()).expect("raw connect");
        let mut banner = String::new();
        BufReader::new(raw.try_clone().expect("clone"))
            .read_line(&mut banner)
            .expect("banner");
        raw.write_all(SLOW_QUERY.as_bytes()).expect("raw send");
        raw.write_all(b"\n").expect("raw send");
        let deadline = Instant::now() + Duration::from_secs(10);
        while server.scheduler().queue_depth() == 0 {
            assert!(Instant::now() < deadline, "abandoned query never queued");
            std::thread::sleep(Duration::from_millis(5));
        }
        // Dropping the stream here sends FIN with the statement queued.
    }

    // The server must notice, cancel the queued statement, and leave the
    // scheduler drainable: once the slow query finishes, a fresh client
    // gets a slot without waiting behind a ghost.
    let deadline = Instant::now() + Duration::from_secs(20);
    while server.scheduler().queue_depth() > 0 {
        assert!(
            Instant::now() < deadline,
            "abandoned statement still queued — disconnect wedged the scheduler"
        );
        std::thread::sleep(Duration::from_millis(10));
    }
    assert_eq!(runner.join().expect("runner thread"), 5);

    ctl.request("SET fault_plan none;")
        .expect("disarm")
        .expect_rows("disarm");
    let mut fresh = ShClient::connect(&server.addr()).expect("fresh");
    let (resp, _retries) = fresh
        .request_with_retry(SLOW_QUERY, 100)
        .expect("fresh query");
    assert_eq!(resp.expect_rows("fresh query").len(), 5);
    fresh.quit().ok();
    ctl.quit().ok();
    // Dropping the server joins every connection thread — a wedged
    // handler would hang the test here rather than pass silently.
}

#[test]
fn saturated_scheduler_maps_queue_full_to_429_busy() {
    let server = busy_server(1);
    let mut ctl = ShClient::connect(&server.addr()).expect("ctl");
    ctl.request("SET retry_backoff_ms 0; SET fault_plan 'delay:0x1200';")
        .expect("arm")
        .expect_rows("arm");

    // Fill the slot and the 1-deep queue.
    let mut held = Vec::new();
    for _ in 0..2 {
        let addr = server.addr();
        held.push(std::thread::spawn(move || {
            let mut c = ShClient::connect(&addr).expect("held connect");
            let rows = c.request(SLOW_QUERY).expect("held").expect_rows("held");
            c.quit().ok();
            rows.len()
        }));
        std::thread::sleep(Duration::from_millis(150));
    }
    let deadline = Instant::now() + Duration::from_secs(10);
    while server.scheduler().running() == 0 || server.scheduler().queue_depth() == 0 {
        assert!(Instant::now() < deadline, "saturation never established");
        std::thread::sleep(Duration::from_millis(5));
    }

    let mut probe = ShClient::connect(&server.addr()).expect("probe");
    match probe.request(SLOW_QUERY).expect("probe") {
        Response::Busy { retry_ms } => assert_eq!(retry_ms, 5, "retry hint echoes config"),
        other => panic!("expected 429 BUSY from a saturated scheduler, got {other:?}"),
    }

    // The same request succeeds once capacity frees up — BUSY is
    // retryable, not fatal, and the connection stays usable.
    let (resp, retries) = probe
        .request_with_retry(SLOW_QUERY, 1000)
        .expect("probe retry");
    assert_eq!(resp.expect_rows("probe retry").len(), 5);
    assert!(
        retries > 0,
        "expected at least one 429 retry before success"
    );
    for h in held {
        assert_eq!(h.join().expect("held thread"), 5);
    }
    probe.quit().ok();
    ctl.quit().ok();
}

#[test]
fn quit_closes_the_session_politely() {
    let server = Server::start(&dfs(), ServerConfig::default()).expect("start server");
    let mut raw = TcpStream::connect(server.addr()).expect("connect");
    let mut reader = BufReader::new(raw.try_clone().expect("clone"));
    let mut line = String::new();
    reader.read_line(&mut line).expect("banner");
    assert_eq!(line.trim_end(), "SHADOOP 1 READY");
    raw.write_all(b"QUIT\n").expect("quit");
    line.clear();
    reader.read_line(&mut line).expect("bye");
    assert_eq!(line.trim_end(), "BYE");
    let mut rest = Vec::new();
    reader.read_to_end(&mut rest).expect("eof");
    assert!(rest.is_empty(), "server kept talking after BYE: {rest:?}");
}

/// Kills the spawned server however the test ends.
struct KillOnDrop(Child);

impl Drop for KillOnDrop {
    fn drop(&mut self) {
        self.0.kill().ok();
        self.0.wait().ok();
    }
}

/// The `sh-server` binary itself: its flags are parsed, it prints
/// `LISTENING <addr>` once bound, and a session over that address
/// honours `SET result_limit`. A malformed flag exits non-zero with the
/// usage text.
#[test]
fn sh_server_binary_announces_its_address_and_serves_a_session() {
    let exe = env!("CARGO_BIN_EXE_sh-server");
    let mut child = Command::new(exe)
        .args(["--port", "0", "--max-inflight", "1", "--queue-cap", "1"])
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn sh-server");
    let stdout = child.stdout.take().expect("piped stdout");
    let _server = KillOnDrop(child);
    let mut line = String::new();
    BufReader::new(stdout)
        .read_line(&mut line)
        .expect("read LISTENING line");
    let addr: SocketAddr = line
        .strip_prefix("LISTENING ")
        .unwrap_or_else(|| panic!("expected LISTENING <addr>, got {line:?}"))
        .trim_end()
        .parse()
        .expect("LISTENING carries a socket address");

    let mut client = ShClient::connect(&addr).expect("connect");
    let set = client
        .request("SET result_limit 5;")
        .expect("set")
        .expect_rows("set");
    assert!(set.is_empty(), "SET answers no rows, got {set:?}");
    let rows = client
        .request(
            "p = GENERATE 2000 POINT uniform INTO '/bin/p'; \
             ip = INDEX p AS str+ INTO '/bin/ip'; \
             r = FILTER ip BY Overlaps(RECTANGLE(100000, 100000, 900000, 900000)); \
             DUMP r;",
        )
        .expect("query")
        .expect_rows("query");
    assert_eq!(rows.len(), 6, "5 rows + truncation marker, got {rows:?}");
    assert!(
        rows[5].contains("truncated by result_limit 5"),
        "marker missing: {:?}",
        rows[5]
    );
    client.quit().expect("quit");

    let bad = Command::new(exe)
        .args(["--port", "x"])
        .output()
        .expect("run sh-server with a bad flag");
    assert!(!bad.status.success(), "a bad --port must fail");
    let stderr = String::from_utf8_lossy(&bad.stderr);
    assert!(
        stderr.contains("--port needs a number") && stderr.contains("usage: sh-server"),
        "expected the usage text, got {stderr:?}"
    );
}

mod client {
    //! A blocking client for the `sh-server` line protocol. One
    //! [`ShClient`] is one connection, i.e. one server session: its `SET`s
    //! and bindings are invisible to every other client.

    use std::io::{self, BufRead, BufReader, Write};
    use std::net::{SocketAddr, TcpStream};
    use std::time::Duration;

    use spatialhadoop::server::protocol::{parse_header, read_payload, Header};

    /// Outcome of one request line.
    #[derive(Debug)]
    pub enum Response {
        /// Success: every streamed result row, reassembled in order.
        Ok(Vec<String>),
        /// The server rejected or failed the request.
        Err(String),
        /// Admission control pushed back; retry after the hinted delay.
        Busy { retry_ms: u64 },
    }

    impl Response {
        /// Unwraps the rows of a success, panicking otherwise.
        pub fn expect_rows(self, context: &str) -> Vec<String> {
            match self {
                Response::Ok(rows) => rows,
                other => panic!("{context}: expected OK, got {other:?}"),
            }
        }
    }

    /// A connected Pigeon-protocol client.
    pub struct ShClient {
        reader: BufReader<TcpStream>,
        writer: TcpStream,
    }

    impl ShClient {
        /// Connects and consumes the server banner.
        pub fn connect(addr: &SocketAddr) -> io::Result<ShClient> {
            let stream = TcpStream::connect_timeout(addr, Duration::from_secs(5))?;
            stream.set_nodelay(true).ok();
            let writer = stream.try_clone()?;
            let mut reader = BufReader::new(stream);
            let mut banner = String::new();
            reader.read_line(&mut banner)?;
            if !banner.starts_with("SHADOOP ") {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!("unexpected banner: {banner:?}"),
                ));
            }
            Ok(ShClient { reader, writer })
        }

        /// Sends one request line (Pigeon source; `;`-separated statements)
        /// and reads the full response, reassembling streamed frames.
        pub fn request(&mut self, line: &str) -> io::Result<Response> {
            if line.contains('\n') {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidInput,
                    "a request is a single line; join statements with ';'",
                ));
            }
            self.writer.write_all(line.as_bytes())?;
            self.writer.write_all(b"\n")?;
            self.writer.flush()?;
            let mut rows = Vec::new();
            loop {
                let mut header = String::new();
                if self.reader.read_line(&mut header)? == 0 {
                    return Err(io::Error::new(
                        io::ErrorKind::UnexpectedEof,
                        "server closed mid-response",
                    ));
                }
                match parse_header(&header)
                    .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))?
                {
                    Header::Data(n) => {
                        let payload = read_payload(&mut self.reader, n)?;
                        rows.extend(payload.lines().map(str::to_string));
                    }
                    Header::Ok(n) => {
                        debug_assert_eq!(n as usize, rows.len(), "row count vs frames");
                        return Ok(Response::Ok(rows));
                    }
                    Header::Err(n) => {
                        let msg = read_payload(&mut self.reader, n)?;
                        return Ok(Response::Err(msg));
                    }
                    Header::Busy(retry_ms) => return Ok(Response::Busy { retry_ms }),
                    Header::Bye => {
                        return Err(io::Error::new(
                            io::ErrorKind::InvalidData,
                            "unexpected BYE mid-request",
                        ))
                    }
                }
            }
        }

        /// [`ShClient::request`], retrying `429 BUSY` responses up to
        /// `max_retries` times with the server's suggested back-off.
        /// Returns the terminal response and how many retries it took.
        pub fn request_with_retry(
            &mut self,
            line: &str,
            max_retries: usize,
        ) -> io::Result<(Response, usize)> {
            let mut retries = 0;
            loop {
                match self.request(line)? {
                    Response::Busy { retry_ms } if retries < max_retries => {
                        retries += 1;
                        std::thread::sleep(Duration::from_millis(retry_ms.clamp(1, 1000)));
                    }
                    other => return Ok((other, retries)),
                }
            }
        }

        /// Polite hang-up: sends `QUIT` and waits for `BYE`.
        pub fn quit(mut self) -> io::Result<()> {
            self.writer.write_all(b"QUIT\n")?;
            self.writer.flush()?;
            let mut line = String::new();
            self.reader.read_line(&mut line)?;
            Ok(())
        }
    }
}
