//! fillvoid benchmark: one command per workload.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload recon-paper --seed 1 --seconds 40 --trace 0
//! ```
//!
//! `--trace 0` prints the end-to-end metrics; `--trace 1` runs the
//! workload with spans around each public call into each layer and prints
//! the per-layer metrics. Either way every output is checked, and the last
//! line of standard output is the result object
//! `{"correct", "attempted", "failed", "metrics"}`. See `README.md`.

mod common;
mod model;
mod probes;
mod recon;
mod serve;
mod stats;
mod trace;

use fv_runtime::alloc::CountingAllocator;

#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator;

/// Worker threads for every pool the benchmark drives.
pub const THREADS: usize = 2;

fn main() {
    let args = match common::Args::parse() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: --workload recon-paper|serve-interactive --seed N --seconds S --trace 0|1"
            );
            std::process::exit(2);
        }
    };
    // Pin the execution configuration before any pool or kernel is
    // touched, so the environment the benchmark is launched from cannot
    // change what it measures.
    std::env::set_var("FV_THREADS", THREADS.to_string());
    for var in [
        "FV_GEMM_KERNEL",
        "FV_PAR_MIN_WORK",
        "FV_DETERMINISTIC",
        "FV_TELEMETRY",
    ] {
        std::env::remove_var(var);
    }
    fv_runtime::telemetry::set_enabled(false);

    let run = match args.workload.as_str() {
        "recon-paper" => recon::run,
        "serve-interactive" => serve::run,
        other => {
            eprintln!("perfbench: unknown workload {other:?}");
            std::process::exit(2);
        }
    };
    let report = run(&args);
    report.finish(&format!(
        "workload {} seed {} seconds {} trace {} threads {}",
        args.workload, args.seed, args.seconds, args.trace as u8, THREADS
    ));
}
