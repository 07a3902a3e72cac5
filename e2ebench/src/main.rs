//! `e2e`: one workload through client → TCP → `monomi-server` on disk.
//!
//! `e2e --workload <name> --seed <n> --seconds <s> --trace <0|1>
//!      [--out <dir>] [--smoke] [--server-cpus <list>]`
//!
//! With `--trace 0` the run measures the end-to-end metrics with tracing off;
//! with `--trace 1` it measures the per-layer metrics from traced passes and
//! outside-timed calls into each layer. Either way every answer of one pass
//! is checked against the plaintext engine, every metric is printed by name,
//! and the last line of standard output is the result as one JSON object.
//! See README.md beside this package for what each metric means.

mod deploy;
mod micro;
mod ops;
mod oracle;
mod pass;
mod procfs;
mod report;
mod run;
mod server;
mod spans;
mod stats;

use std::path::PathBuf;
use std::process::ExitCode;

/// The four workloads; README.md says why each exists.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    TpchS2,
    TpchHom,
    PointLookup,
    IngestMix,
}

impl Workload {
    const ALL: [(&'static str, Workload); 4] = [
        ("tpch_s2", Workload::TpchS2),
        ("tpch_hom", Workload::TpchHom),
        ("point_lookup", Workload::PointLookup),
        ("ingest_mix", Workload::IngestMix),
    ];

    pub fn name(self) -> &'static str {
        Self::ALL
            .iter()
            .find(|(_, w)| *w == self)
            .map(|(name, _)| *name)
            .expect("every workload is listed")
    }

    /// True for the two workloads whose operations are lookups.
    pub fn is_lookup(self) -> bool {
        matches!(self, Workload::PointLookup | Workload::IngestMix)
    }
}

/// Command-line arguments.
#[derive(Clone, Debug)]
pub struct Args {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub out: Option<PathBuf>,
    pub smoke: bool,
    /// CPUs the server is confined to (`taskset` list); `run.py` passes the
    /// upper half of the CPUs and confines this process to the lower half.
    pub server_cpus: Option<String>,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut out = None;
    let mut smoke = false;
    let mut server_cpus = None;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        if flag == "--smoke" {
            smoke = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::ALL
                        .iter()
                        .find(|(name, _)| name == value)
                        .map(|(_, w)| *w)
                        .ok_or_else(|| format!("unknown workload {value:?}"))?,
                )
            }
            "--seed" => {
                seed = Some(
                    value
                        .parse()
                        .map_err(|e| format!("--seed {value:?}: {e}"))?,
                )
            }
            "--seconds" => {
                let s: f64 = value
                    .parse()
                    .map_err(|e| format!("--seconds {value:?}: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("--seconds {s} is outside (0, 600]"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                })
            }
            "--out" => out = Some(PathBuf::from(value)),
            "--server-cpus" => server_cpus = Some(value.clone()),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        out,
        smoke,
        server_cpus,
    })
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(message) => {
            eprintln!("e2e: {message}");
            eprintln!(
                "usage: e2e --workload <tpch_s2|tpch_hom|point_lookup|ingest_mix> --seed <n> \
                 --seconds <s> --trace <0|1> [--out <dir>] [--smoke] [--server-cpus <list>]"
            );
            return ExitCode::from(2);
        }
    };
    // The benchmark fixes every knob itself: no ambient MONOMI_* variable may
    // change what is measured. Nothing else runs in this process yet.
    for (key, _) in std::env::vars_os() {
        if key.to_string_lossy().starts_with("MONOMI_") {
            std::env::remove_var(key);
        }
    }
    let report = run::run(&args);
    report.print();
    if let Some(dir) = &args.out {
        report.write(dir, &args);
    }
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(words: &[&str]) -> Vec<String> {
        words.iter().map(|w| w.to_string()).collect()
    }

    #[test]
    fn the_drivers_command_line_parses() {
        let args = parse_args(&argv(&[
            "--workload",
            "ingest_mix",
            "--seed",
            "7",
            "--seconds",
            "12",
            "--trace",
            "1",
        ]))
        .expect("parses");
        assert_eq!(args.workload, Workload::IngestMix);
        assert_eq!((args.seed, args.seconds, args.trace), (7, 12.0, true));
        assert!(args.out.is_none() && !args.smoke && args.server_cpus.is_none());
        for (name, workload) in Workload::ALL {
            assert_eq!(workload.name(), name);
        }
    }

    #[test]
    fn malformed_command_lines_are_refused() {
        assert!(parse_args(&argv(&["--workload", "tpch"])).is_err());
        assert!(parse_args(&argv(&[
            "--workload",
            "tpch_s2",
            "--seed",
            "1",
            "--seconds",
            "5"
        ]))
        .is_err());
        assert!(parse_args(&argv(&[
            "--workload",
            "tpch_s2",
            "--seed",
            "1",
            "--seconds",
            "0",
            "--trace",
            "0"
        ]))
        .is_err());
        assert!(parse_args(&argv(&[
            "--workload",
            "tpch_s2",
            "--seed",
            "x",
            "--seconds",
            "5",
            "--trace",
            "0"
        ]))
        .is_err());
        assert!(parse_args(&argv(&["--seed"])).is_err());
    }
}
