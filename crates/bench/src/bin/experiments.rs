//! Experiment driver: regenerates every table/figure of the evaluation.
//!
//! ```text
//! cargo run -p sh-bench --release --bin experiments            # all
//! cargo run -p sh-bench --release --bin experiments -- E3 E13  # subset
//! ```
//!
//! An unknown id fails the run (exit status 1) before any experiment
//! starts.

#![forbid(unsafe_code)]

use std::process::ExitCode;
use std::time::Instant;

use sh_bench::experiments;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let ids: Vec<&str> = if args.is_empty() {
        experiments::ALL.to_vec()
    } else {
        args.iter().map(String::as_str).collect()
    };
    if let Some(id) = ids.iter().find(|id| !experiments::ALL.contains(id)) {
        eprintln!(
            "unknown experiment id: {id} (known: {:?})",
            experiments::ALL
        );
        return ExitCode::FAILURE;
    }
    println!("# SpatialHadoop-rs experiment results");
    println!();
    println!(
        "Simulated cluster: 25 nodes, 2 map + 1 reduce slot each, {} KiB blocks.",
        sh_bench::BLOCK / 1024
    );
    println!();
    println!(
        "Counts (partitions, rounds, rows, pairs, bytes) are exact and repeat \
         run to run. Simulated seconds still contain the host wall time of map \
         and reduce tasks, and `single(wall)` and harness times are host wall \
         time: those cells are a snapshot of the host that generated the file."
    );
    println!();
    let total = Instant::now();
    for id in ids {
        let t0 = Instant::now();
        let table = experiments::run(id).expect("id checked against ALL");
        println!("{table}");
        println!("_(harness wall time: {:.1}s)_", t0.elapsed().as_secs_f64());
        println!();
    }
    eprintln!("total harness time: {:.1}s", total.elapsed().as_secs_f64());
    ExitCode::SUCCESS
}
