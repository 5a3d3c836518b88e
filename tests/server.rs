//! Integration suite for the `sh-server` network front door: streamed
//! frames must reassemble byte-identical to the CLI driver's output,
//! sessions must be isolated (conflicting `SET`s answer independently),
//! a mid-stream client disconnect must not wedge a scheduler slot, and
//! admission-control push-back must surface as a retryable `429 BUSY`.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

use sh_bench::client::{Response, ShClient};
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
