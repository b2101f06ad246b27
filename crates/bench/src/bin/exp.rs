//! `exp` — regenerate the paper's figures and tables, the ablation and
//! extension studies, and the system benches; see the `fv_bench` crate
//! docs and EXPERIMENTS.md.
//!
//! ```text
//! cargo run --release -p fv-bench --bin exp -- [--tiny|--small|--medium|--full] [--seed N] <section…|all>
//! ```

use fv_bench::{Command, ExpOpts, UsageError, SECTIONS};
use std::time::Instant;

// Counting allocator: the `runtime` section reports per-phase heap
// allocation counts.
#[global_allocator]
static ALLOC: fv_runtime::alloc::CountingAllocator = fv_runtime::alloc::CountingAllocator;

fn main() {
    match ExpOpts::parse(std::env::args().skip(1)) {
        Ok(Command::Run(opts, sections)) => {
            let wall = Instant::now();
            fv_bench::run(&opts, &sections);
            eprintln!("[exp] total wall time {:.1}s", wall.elapsed().as_secs_f64());
        }
        Ok(Command::List) => {
            for s in SECTIONS {
                println!("{}", s.name);
            }
        }
        Ok(Command::Help) => eprintln!("{}", fv_bench::usage()),
        Err(e) => {
            eprintln!("exp: {}", e.0);
            std::process::exit(UsageError::EXIT_CODE);
        }
    }
}
