//! The dwqa end-to-end benchmark.
//!
//! ```text
//! cargo run --release --manifest-path e2ebench/Cargo.toml -- \
//!     --workload <interactive|feedback_etl|bi_analysis> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Builds the seeded inputs, starts the real `dwqa-server` (a durable
//! primary plus one sync standby) or the in-process analyst loop, runs
//! the workload for `--seconds`, checks every output, and prints one JSON
//! line: end-to-end metrics with `--trace 0`, per-layer metrics with
//! `--trace 1`. A failed check exits with code 1 and prints no numbers.
//! Scratch files (stores, spans, server traces) go to `.bench_out/` in
//! the working directory. See `README.md` for workloads and metrics.

mod bi;
mod cluster;
mod common;
mod etl;
mod interactive;
mod load;
mod report;
mod rng;
mod spans;
mod stats;

use common::Params;
use std::path::PathBuf;
use std::process::ExitCode;

const WORKLOADS: [&str; 3] = ["interactive", "feedback_etl", "bi_analysis"];

fn usage(problem: &str) -> ExitCode {
    eprintln!("error: {problem}");
    eprintln!(
        "usage: dwqa-e2ebench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
        WORKLOADS.join("|")
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let value = |flag: &str| -> Option<&str> {
        args.iter()
            .position(|a| a == flag)
            .and_then(|i| args.get(i + 1))
            .map(String::as_str)
    };
    let Some(workload) = value("--workload").filter(|w| WORKLOADS.contains(w)) else {
        return usage("--workload names no workload");
    };
    let Some(seed) = value("--seed").and_then(|s| s.parse::<u64>().ok()) else {
        return usage("--seed must be a whole number");
    };
    let Some(seconds) = value("--seconds")
        .and_then(|s| s.parse::<u64>().ok())
        .filter(|&s| s > 0)
    else {
        return usage("--seconds must be a positive whole number");
    };
    let trace = match value("--trace") {
        Some("0") | None => false,
        Some("1") => true,
        Some(_) => return usage("--trace must be 0 or 1"),
    };
    let out_dir = PathBuf::from(".bench_out");
    if let Err(e) = std::fs::create_dir_all(&out_dir) {
        eprintln!("error: cannot create {}: {e}", out_dir.display());
        return ExitCode::FAILURE;
    }
    let params = Params {
        seed,
        seconds,
        trace,
        out_dir,
        tag: format!("{workload}-seed{seed}-{}", std::process::id()),
    };
    let result = match workload {
        "interactive" => interactive::run(&params),
        "feedback_etl" => etl::run(&params),
        _ => bi::run(&params),
    };
    match result {
        Ok(outcome) => {
            eprintln!("workload {workload}, seed {seed}, {seconds} s, trace {trace}");
            for note in &outcome.notes {
                eprintln!("  {note}");
            }
            for (name, value) in &outcome.values {
                eprintln!("  {name:<36} {value:.6}");
            }
            println!("{}", outcome.json(trace));
            ExitCode::SUCCESS
        }
        Err(check) => {
            eprintln!("CHECK FAILED ({workload}, seed {seed}): {check}");
            ExitCode::FAILURE
        }
    }
}
