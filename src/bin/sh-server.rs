//! `sh-server` — network front door for the simulated cluster.
//!
//! Starts a TCP query server speaking the Pigeon line protocol and
//! prints `LISTENING <addr>` once it is accepting:
//!
//! ```text
//! cargo run --release --bin sh-server -- --port 0
//! printf "p = GENERATE 1000 POINT uniform INTO '/p';\nDUMP p;\nQUIT\n" | nc 127.0.0.1 <port>
//! ```
//!
//! `--init <script>` runs a Pigeon script at startup; the datasets it
//! binds are visible to every connection (each gets its own copy of the
//! bindings, so `SET` and new bindings stay per-session).

#![forbid(unsafe_code)]

use std::process::ExitCode;

use spatialhadoop::dfs::{ClusterConfig, Dfs};
use spatialhadoop::mapreduce::SchedPolicy;
use spatialhadoop::server::{Server, ServerConfig};

fn main() -> ExitCode {
    let mut port = 0u16;
    let mut host = "127.0.0.1".to_string();
    let mut nodes = 25usize;
    let mut block_kb = 64u64;
    let mut cfg = ServerConfig::default();
    let mut init_path: Option<String> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        macro_rules! value {
            ($what:expr) => {
                match args.next() {
                    Some(v) => v,
                    None => return usage(concat!($what, " needs a value")),
                }
            };
        }
        match arg.as_str() {
            "--port" => match value!("--port").parse() {
                Ok(v) => port = v,
                Err(_) => return usage("--port needs a number"),
            },
            "--host" => host = value!("--host"),
            "--nodes" => match value!("--nodes").parse() {
                Ok(v) => nodes = v,
                Err(_) => return usage("--nodes needs a number"),
            },
            "--block-kb" => match value!("--block-kb").parse() {
                Ok(v) => block_kb = v,
                Err(_) => return usage("--block-kb needs a number"),
            },
            "--max-inflight" => match value!("--max-inflight").parse::<usize>() {
                Ok(v) if v > 0 => cfg.sched.max_in_flight = v,
                _ => return usage("--max-inflight needs a positive number"),
            },
            "--queue-cap" => match value!("--queue-cap").parse::<usize>() {
                Ok(v) if v > 0 => cfg.sched.queue_cap = v,
                _ => return usage("--queue-cap needs a positive number"),
            },
            "--policy" => match SchedPolicy::parse(&value!("--policy")) {
                Ok(p) => cfg.sched.policy = p,
                Err(e) => return usage(&e),
            },
            "--chunk-bytes" => match value!("--chunk-bytes").parse::<usize>() {
                Ok(v) if v > 0 => cfg.chunk_bytes = v,
                _ => return usage("--chunk-bytes needs a positive number"),
            },
            "--retry-ms" => match value!("--retry-ms").parse() {
                Ok(v) => cfg.retry_ms = v,
                Err(_) => return usage("--retry-ms needs a number"),
            },
            "--init" => init_path = Some(value!("--init")),
            "--help" | "-h" => return usage(""),
            other => return usage(&format!("unexpected argument {other:?}")),
        }
    }
    if let Some(path) = init_path {
        match std::fs::read_to_string(&path) {
            Ok(src) => cfg.init_script = Some(src),
            Err(e) => {
                eprintln!("sh-server: cannot read {path}: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    cfg.addr = format!("{host}:{port}");
    let dfs = Dfs::new(ClusterConfig {
        num_nodes: nodes,
        block_size: block_kb * 1024,
        ..ClusterConfig::default()
    });
    let server = match Server::start(&dfs, cfg) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("sh-server: {e}");
            return ExitCode::FAILURE;
        }
    };
    eprintln!("sh-server: simulated cluster with {nodes} nodes, {block_kb} KiB blocks");
    // Callers (tests/server.rs) parse this exact line for the bound port.
    println!("LISTENING {}", server.addr());
    use std::io::Write;
    let _ = std::io::stdout().flush();
    // Serve until killed.
    loop {
        std::thread::sleep(std::time::Duration::from_secs(3600));
    }
}

fn usage(err: &str) -> ExitCode {
    if !err.is_empty() {
        eprintln!("sh-server: {err}");
    }
    eprintln!(
        "usage: sh-server [--host H] [--port P] [--nodes N] [--block-kb K] \
         [--max-inflight N] [--queue-cap N] [--policy fifo|fair] \
         [--chunk-bytes N] [--retry-ms N] [--init script.pigeon]"
    );
    if err.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
