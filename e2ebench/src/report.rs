//! What a run prints and writes: notes for a human reader, every metric by
//! name with its unit, and the result object the driver reads.

use crate::Args;
use std::path::Path;

/// The end-to-end metrics (name, unit) in the order BENCHMARK.json lists
/// them: what a `--trace 0` run reports, every one of them on every workload.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("pass_wall_s", "s"),
    ("query_wall_geomean_ms", "ms"),
    ("op_ms_p99", "ms"),
    ("wire_mb_per_pass", "MB"),
    ("server_peak_rss_mb", "MB"),
    ("space_overhead_x", "ratio"),
];

/// The per-layer metrics (name, unit) in the order BENCHMARK.json lists
/// them: what a `--trace 1` run reports.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("client.cpu_s", "s"),
    ("sql.parse_us", "us"),
    ("core.plan_ms", "ms"),
    ("core.decrypt_s", "s"),
    ("core.decrypt_rows", "count"),
    ("core.decrypt_share", "ratio"),
    ("core.residual_s", "s"),
    ("core.setup_s", "s"),
    ("core.designer_s", "s"),
    ("core.encrypt_db_s", "s"),
    ("core.load_s", "s"),
    ("crypto.det_dec_ns", "ns"),
    ("crypto.rnd_dec_ns", "ns"),
    ("crypto.ope_enc_us", "us"),
    ("crypto.paillier_dec_us", "us"),
    ("crypto.paillier_add_ns", "ns"),
    ("server.exec_s", "s"),
    ("server.other_s", "s"),
    ("server.cpu_s", "s"),
    ("server.queries", "count"),
    ("server.rows_scanned", "count"),
    ("server.lock_stall_ms_p99", "ms"),
    ("engine.scan_s", "s"),
    ("engine.join_s", "s"),
    ("engine.agg_s", "s"),
    ("engine.sort_s", "s"),
    ("engine.bytes_materialized", "B"),
    ("store.bytes_scanned", "B"),
    ("store.segments_read", "count"),
    ("store.segments_pruned", "count"),
    ("store.index_probes", "count"),
    ("store.index_rows_fetched", "count"),
    ("store.postings_bytes", "B"),
    ("store.stored_bytes", "B"),
    ("store.write_mb_s", "MB/s"),
    ("store.cold_scan_mb_s", "MB/s"),
    ("store.warm_scan_mb_s", "MB/s"),
    ("wire.seconds", "s"),
    ("wire.bytes_sent", "B"),
    ("wire.bytes_received", "B"),
    ("wire.retries", "count"),
    ("wire.reconnects", "count"),
    ("wire.rtt_us", "us"),
    ("ingest.rows_per_s", "1/s"),
    ("op_ms_p50", "ms"),
    ("op_ms_tail", "ms"),
    ("op_tail_percentile", "%"),
    ("plain.pass_wall_s", "s"),
    ("plain.overhead_median_x", "ratio"),
    ("oracle.known_mismatches", "count"),
    ("trace.unattributed_share", "ratio"),
    ("trace.overhead_share", "ratio"),
    ("trace.counters_repeat", "count"),
    ("host.nproc", "count"),
];

/// One named number.
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

/// Everything a run reports, kept in memory until the run has ended.
#[derive(Default)]
pub struct Report {
    /// Operations attempted, warm-up included.
    pub attempted: u64,
    /// Operations that returned an error or an answer unlike the oracle's.
    pub failed: u64,
    /// Conditions other than failed operations that make the run incorrect.
    pub violations: Vec<String>,
    pub metrics: Vec<Metric>,
    /// Context for a human reader: host, parameters, sample counts.
    pub notes: Vec<String>,
    /// One JSON object per span of the traced passes.
    pub span_lines: Vec<String>,
}

impl Report {
    /// Records a metric. Its name must be in one of the two tables, whose
    /// unit it takes.
    pub fn push(&mut self, name: &str, value: f64) {
        assert!(
            value.is_finite(),
            "metric {name} is not a finite number: {value}"
        );
        let (name, unit) = END_TO_END
            .iter()
            .chain(PER_LAYER)
            .find(|(listed, _)| *listed == name)
            .unwrap_or_else(|| panic!("metric {name} is in neither table"));
        assert!(
            self.metrics.iter().all(|m| m.name != *name),
            "metric {name} is reported twice"
        );
        self.metrics.push(Metric { name, value, unit });
    }

    /// Puts the metrics in the order of `table` and checks that they are
    /// exactly the metrics it lists.
    pub fn finish(&mut self, table: &[(&str, &str)]) {
        let position = |m: &Metric| table.iter().position(|(name, _)| *name == m.name);
        let strays: Vec<&str> = self
            .metrics
            .iter()
            .filter(|m| position(m).is_none())
            .map(|m| m.name)
            .collect();
        assert!(
            strays.is_empty(),
            "metrics outside the table of this mode: {strays:?}"
        );
        self.metrics.sort_by_key(|m| position(m));
        let missing: Vec<&str> = table
            .iter()
            .map(|(name, _)| *name)
            .filter(|name| self.metrics.iter().all(|m| m.name != *name))
            .collect();
        assert!(missing.is_empty(), "metrics never reported: {missing:?}");
    }

    pub fn note(&mut self, line: String) {
        self.notes.push(line);
    }

    /// Records a reason the run counts as incorrect.
    pub fn violation(&mut self, line: String) {
        eprintln!("e2e: {line}");
        self.violations.push(line);
    }

    fn correct(&self) -> bool {
        self.failed == 0 && self.violations.is_empty()
    }

    /// The result object: exactly `correct`, `attempted`, `failed`, `metrics`.
    fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {:?}, \"unit\": \"{}\"}}",
                    m.name, m.value, m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }

    /// Notes, every metric by name with its unit, then the result object as
    /// the last line of standard output.
    pub fn print(&self) {
        for note in &self.notes {
            println!("# {note}");
        }
        for violation in &self.violations {
            println!("# INCORRECT: {violation}");
        }
        for m in &self.metrics {
            println!("{:<28} {:>18.6} {}", m.name, m.value, m.unit);
        }
        println!("{}", self.json());
    }

    /// Writes `<workload>.seed<n>.trace<t>.metrics.json` (and `.spans.json`
    /// for a traced run) into `dir`, once, after the run.
    pub fn write(&self, dir: &Path, args: &Args) {
        std::fs::create_dir_all(dir).expect("create --out directory");
        let stem = format!(
            "{}.seed{}.trace{}",
            args.workload.name(),
            args.seed,
            u8::from(args.trace)
        );
        let notes: Vec<String> = self
            .notes
            .iter()
            .chain(&self.violations)
            .map(|n| format!("\"{}\"", n.replace(['"', '\\'], "_")))
            .collect();
        let document = format!(
            "{{\"workload\": \"{}\", \"seed\": {}, \"trace\": {}, \"notes\": [{}],\n \"result\": {}}}\n",
            args.workload.name(),
            args.seed,
            u8::from(args.trace),
            notes.join(", "),
            self.json()
        );
        std::fs::write(dir.join(format!("{stem}.metrics.json")), document)
            .expect("write metrics.json");
        if args.trace {
            let spans = format!("[\n{}\n]\n", self.span_lines.join(",\n"));
            std::fs::write(dir.join(format!("{stem}.spans.json")), spans)
                .expect("write spans.json");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_result_object_has_exactly_the_four_keys() {
        let mut report = Report {
            attempted: 24,
            ..Default::default()
        };
        report.push("setup_s", 1.25);
        report.push("wire.rtt_us", 80.0);
        assert_eq!(
            report.json(),
            "{\"correct\": true, \"attempted\": 24, \"failed\": 0, \"metrics\": \
             {\"setup_s\": {\"value\": 1.25, \"unit\": \"s\"}, \
             \"wire.rtt_us\": {\"value\": 80.0, \"unit\": \"us\"}}}"
        );
        report.failed = 1;
        assert!(report
            .json()
            .starts_with("{\"correct\": false, \"attempted\": 24, \"failed\": 1,"));
    }

    #[test]
    fn a_finished_report_holds_exactly_its_table_in_order() {
        let mut report = Report::default();
        for (i, (name, _)) in END_TO_END.iter().enumerate().rev() {
            report.push(name, i as f64);
        }
        report.finish(END_TO_END);
        let names: Vec<&str> = report.metrics.iter().map(|m| m.name).collect();
        let listed: Vec<&str> = END_TO_END.iter().map(|(name, _)| *name).collect();
        assert_eq!(names, listed);
    }

    #[test]
    #[should_panic(expected = "never reported")]
    fn a_missing_metric_is_caught() {
        let mut report = Report::default();
        report.push("setup_s", 1.0);
        report.finish(END_TO_END);
    }

    /// BENCHMARK.json at the root of the repository names every metric and
    /// workload: it must list what this program reports, with the same units.
    #[test]
    fn benchmark_json_lists_these_metrics_and_workloads() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        // From one key to the next one, or to the end of the file.
        let section = |key: &str, next: Option<&str>| {
            let start = text
                .find(&format!("\"{key}\""))
                .unwrap_or_else(|| panic!("no {key}"));
            let end = next
                .and_then(|next| text[start..].find(&format!("\"{next}\"")))
                .map_or(text.len(), |e| start + e);
            &text[start..end]
        };
        for (key, next, table) in [
            ("end_to_end", Some("per_layer"), END_TO_END),
            ("per_layer", None, PER_LAYER),
        ] {
            let listed = section(key, next);
            assert_eq!(
                listed.matches("\"name\":").count(),
                table.len(),
                "{key} length"
            );
            let mut from = 0;
            for (name, unit) in table {
                let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
                let at = listed[from..]
                    .find(&entry)
                    .unwrap_or_else(|| panic!("{key} lacks {entry} (in this order)"));
                from += at + entry.len();
            }
        }
        let workloads = section("workloads", Some("end_to_end"));
        assert_eq!(
            workloads.matches("\"name\":").count(),
            crate::Workload::ALL.len()
        );
        for (name, _) in crate::Workload::ALL {
            assert!(
                workloads.contains(&format!("\"name\": \"{name}\"")),
                "workload {name}"
            );
        }
    }
}
