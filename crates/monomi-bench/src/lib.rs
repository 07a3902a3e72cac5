#![forbid(unsafe_code)]
//! # monomi-bench
//!
//! The `paper` bench target regenerates every table and figure of the MONOMI
//! paper's evaluation (§8) from measured time, at the paper's key size, over
//! a scale ladder. Four microbenchmarks measure what the end-to-end benchmark
//! (`e2ebench/`) cannot isolate: crypto primitives, scan kernels, index
//! probes and thread scaling. See EXPERIMENTS.md for the paper-vs-measured
//! record.

/// Prints a standard experiment header.
pub fn print_header(title: &str, paper_ref: &str) {
    println!("==============================================================");
    println!("{title}");
    println!("(reproduces {paper_ref} of Tu et al., VLDB 2013)");
    println!("==============================================================");
}
