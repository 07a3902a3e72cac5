#![forbid(unsafe_code)]
//! # monomi-bench
//!
//! The `paper` bench target regenerates every table and figure of the MONOMI
//! paper's evaluation (§8) from measured time, at the paper's key size, over
//! a scale ladder. Four microbenchmarks measure what the end-to-end benchmark
//! (`e2ebench/`) cannot isolate: crypto primitives, scan kernels, index
//! probes and thread scaling. See EXPERIMENTS.md for the paper-vs-measured
//! record.

use monomi_store::env_knob;

/// Prints a standard experiment header.
pub fn print_header(title: &str, paper_ref: &str) {
    println!("==============================================================");
    println!("{title}");
    println!("(reproduces {paper_ref} of Tu et al., VLDB 2013)");
    println!("==============================================================");
}

/// The TPC-H scale factor `MONOMI_SCALE` asks for, `None` when it is unset.
/// A value that is not a positive number warns and gives `fallback`.
pub fn scale(fallback: f64) -> Option<f64> {
    std::env::var_os("MONOMI_SCALE")?;
    let positive = |s: &f64| s.is_finite() && *s > 0.0;
    Some(env_knob("MONOMI_SCALE", fallback, positive))
}

/// Timed repetitions per measurement: `MONOMI_BENCH_ITERS`, or `default`.
pub fn bench_iters(default: usize) -> usize {
    env_knob("MONOMI_BENCH_ITERS", default, |&n| n >= 1)
}
