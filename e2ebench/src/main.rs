//! End-to-end and per-layer benchmark of the MOAS pipeline.
//!
//! ```sh
//! cargo run --release --manifest-path e2ebench/Cargo.toml -- \
//!     --workload live-query --seed 1 --seconds 30 --trace 0
//! ```
//!
//! Prints informational lines, then as its last line one JSON object
//! with `correct`, `attempted`, `failed` and `metrics`. See README.md
//! for the workloads and every metric.

mod client;
mod gen;
mod reference;
mod run;
mod stats;
mod sys;
mod trace;
mod workload;

use std::path::PathBuf;
use std::process::ExitCode;

/// Where a run keeps its archive and store, relative to the working
/// directory (the checkout root).
const DATA_DIR: &str = ".bench_data";

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 1u64;
    let mut seconds = 30.0;
    let mut trace = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = value.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => seconds = value.parse().map_err(|e| format!("--seconds: {e}"))?,
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("e2ebench: {e}");
            return ExitCode::from(2);
        }
    };
    let Some(w) = workload::by_name(&args.workload) else {
        eprintln!("e2ebench: unknown workload {}", args.workload);
        return ExitCode::from(2);
    };
    let root = PathBuf::from(DATA_DIR);
    std::fs::remove_dir_all(&root).ok();
    if let Err(e) = std::fs::create_dir_all(&root) {
        eprintln!("e2ebench: cannot create {}: {e}", root.display());
        return ExitCode::FAILURE;
    }
    println!("machine: {}", sys::fingerprint(&root));
    println!(
        "workload: {} seed={} {}",
        w.name,
        args.seed,
        w.shape.describe()
    );
    println!(
        "schedule: slot_period_ms={} freshness_days={} base_rate_qps={} ladder_qps={}..{} (16 rungs per octave) step_ms={} p99_limit_us={} shards={} workers={} connections={}",
        w.slot_period.as_millis(),
        w.freshness_days(),
        w.base_rate,
        workload::rung(0),
        workload::rung(workload::LADDER_TOP),
        workload::STEP.as_millis(),
        workload::P99_LIMIT_US,
        workload::SHARDS,
        workload::WORKERS,
        workload::CONNECTIONS
    );
    let result = if args.trace {
        trace::traced(&w, args.seed, &root)
    } else {
        run::untraced(&w, args.seed, args.seconds, &root)
    };
    std::fs::remove_dir_all(&root).ok();
    let (metrics, tally) = match result {
        Ok(r) => r,
        Err(e) => {
            eprintln!("e2ebench: run failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    for note in &tally.notes {
        println!("check: {note}");
    }
    if let Some((name, value, _)) = metrics.iter().find(|(_, v, _)| !v.is_finite()) {
        eprintln!("e2ebench: metric {name} is {value}");
        return ExitCode::FAILURE;
    }
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        tally.correct,
        tally.attempted,
        tally.failed,
        body.join(", ")
    );
    ExitCode::SUCCESS
}
