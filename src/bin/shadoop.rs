//! `shadoop` — command-line Pigeon driver over a simulated cluster.
//!
//! Runs a Pigeon script against a fresh simulated SpatialHadoop cluster
//! and prints the `DUMP`ed results:
//!
//! ```text
//! cargo run --release --bin shadoop -- script.pigeon
//! cargo run --release --bin shadoop -- --nodes 10 --block-kb 32 script.pigeon
//! echo "p = GENERATE 1000 POINT uniform INTO '/p'; DUMP p;" | cargo run --bin shadoop -- -
//! ```
//!
//! The `GENERATE` statement makes scripts self-contained:
//!
//! ```text
//! pts  = GENERATE 100000 POINT osm INTO '/data/points';
//! idx  = INDEX pts AS str+ INTO '/idx/points';
//! near = KNN idx POINT(500000, 500000) K 10;
//! sky  = SKYLINE idx;
//! DUMP near;
//! DUMP sky;
//! ```

#![forbid(unsafe_code)]

use std::io::Read;
use std::process::ExitCode;

use spatialhadoop::dfs::{ClusterConfig, Dfs};
use spatialhadoop::pigeon;

fn main() -> ExitCode {
    let mut nodes = 25usize;
    let mut block_kb = 64u64;
    let mut script_path: Option<String> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--nodes" => match args.next().and_then(|v| v.parse().ok()) {
                Some(v) => nodes = v,
                None => return usage("--nodes needs a number"),
            },
            "--block-kb" => match args.next().and_then(|v| v.parse().ok()) {
                Some(v) => block_kb = v,
                None => return usage("--block-kb needs a number"),
            },
            "--help" | "-h" => return usage(""),
            other if script_path.is_none() => script_path = Some(other.to_string()),
            other => return usage(&format!("unexpected argument {other:?}")),
        }
    }
    let Some(path) = script_path else {
        return usage("missing script path (or '-' for stdin)");
    };
    let source = if path == "-" {
        let mut buf = String::new();
        if std::io::stdin().read_to_string(&mut buf).is_err() {
            eprintln!("shadoop: failed to read stdin");
            return ExitCode::FAILURE;
        }
        buf
    } else {
        match std::fs::read_to_string(&path) {
            Ok(s) => s,
            Err(e) => {
                eprintln!("shadoop: cannot read {path}: {e}");
                return ExitCode::FAILURE;
            }
        }
    };

    let dfs = Dfs::new(ClusterConfig {
        num_nodes: nodes,
        block_size: block_kb * 1024,
        ..ClusterConfig::default()
    });
    eprintln!("shadoop: simulated cluster with {nodes} nodes, {block_kb} KiB blocks");
    match pigeon::run_script(&dfs, &source) {
        Ok(lines) => {
            for line in lines {
                println!("{line}");
            }
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("shadoop: {e}");
            ExitCode::FAILURE
        }
    }
}

fn usage(err: &str) -> ExitCode {
    if !err.is_empty() {
        eprintln!("shadoop: {err}");
    }
    eprintln!("usage: shadoop [--nodes N] [--block-kb K] <script.pigeon | ->");
    if err.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
