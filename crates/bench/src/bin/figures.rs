//! The figure/table regeneration harness.
//!
//! ```text
//! cargo run --release -p semtm-bench --bin figures -- all
//! cargo run --release -p semtm-bench --bin figures -- fig1-hashtable fig2-vacation
//! cargo run --release -p semtm-bench --bin figures -- --smoke all
//! ```
//!
//! Prints each experiment as a markdown table (paper-style series) and a
//! semantic-vs-base speedup digest, and writes its files under
//! `results/`. The experiments are the rows of
//! [`semtm_bench::cli::EXPERIMENTS`].

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    std::process::exit(semtm_bench::cli::main(&args));
}
