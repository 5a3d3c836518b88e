//! Experiment driver: regenerates every table/figure of the evaluation.
//!
//! ```text
//! cargo run -p sh-bench --release --bin experiments            # all
//! cargo run -p sh-bench --release --bin experiments -- E3 E13  # subset
//! ```

#![forbid(unsafe_code)]

use std::time::Instant;

use sh_bench::experiments;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let ids: Vec<&str> = if args.is_empty() {
        experiments::ALL.to_vec()
    } else {
        args.iter().map(String::as_str).collect()
    };
    println!("# SpatialHadoop-rs experiment results");
    println!();
    println!(
        "Simulated cluster: 25 nodes, 2 map + 1 reduce slot each, {} KiB blocks.",
        sh_bench::BLOCK / 1024
    );
    println!();
    let total = Instant::now();
    for id in ids {
        let t0 = Instant::now();
        match experiments::run(id) {
            Some(table) => {
                println!("{table}");
                println!("_(harness wall time: {:.1}s)_", t0.elapsed().as_secs_f64());
                println!();
            }
            None => eprintln!(
                "unknown experiment id: {id} (known: {:?})",
                experiments::ALL
            ),
        }
    }
    eprintln!("total harness time: {:.1}s", total.elapsed().as_secs_f64());
}
