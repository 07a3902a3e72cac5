//! One pass of a workload: its operations through the client, timed one by
//! one, and for `ingest_mix` a second connection bulk-loading beside them.

use crate::deploy::exec_options;
use crate::ops::{Op, OpKind};
use crate::oracle;
use crate::spans::{flatten_json, LayerSeconds};
use crate::stats::percentile;
use monomi_core::{MonomiClient, QueryTimings, ServerTransport, TcpTransport, TransportOptions};
use monomi_engine::{ColumnDef, ColumnType, TableSchema, Value};
use monomi_obs::Stopwatch;
use monomi_sql::parse_query;
use std::sync::atomic::{AtomicBool, Ordering};

/// Rows in one `bulk_load` of `ingest_mix`.
pub const INGEST_BATCH_ROWS: usize = 1_000;
/// Batches one `ingest_mix` pass loads into a table of its own: sized once
/// so that a pass takes about half a second at the commit that added this
/// file.
pub const INGEST_BATCHES_PER_PASS: usize = 24;
/// Distinct pre-encrypted batches, re-sent in rotation.
const INGEST_DISTINCT_BATCHES: usize = 4;

/// Work counters of one pass, summed over its operations' `QueryTimings`.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Counters {
    pub bytes_scanned: u64,
    pub segments_read: u64,
    pub segments_pruned: u64,
    pub index_probes: u64,
    pub index_rows_fetched: u64,
    pub postings_bytes: u64,
    pub bytes_materialized: u64,
    pub wire_bytes_sent: u64,
    pub wire_bytes_received: u64,
    pub retries: u64,
    pub reconnects: u64,
}

impl Counters {
    fn add(&mut self, t: &QueryTimings) {
        self.bytes_scanned += t.server_bytes_scanned;
        self.segments_read += t.server_segments_read;
        self.segments_pruned += t.server_segments_pruned;
        self.index_probes += t.server_index_probes;
        self.index_rows_fetched += t.server_index_rows_fetched;
        self.postings_bytes += t.server_postings_bytes_read;
        self.bytes_materialized += t.server_bytes_materialized;
        self.wire_bytes_sent += t.wire_bytes_sent;
        self.wire_bytes_received += t.wire_bytes_received;
        self.retries += t.retries;
        self.reconnects += t.reconnects;
    }
}

/// What one pass measured.
#[derive(Default)]
pub struct PassSample {
    /// Sum of the operations' walls; for `ingest_mix` the wall of the ingest.
    pub wall_s: f64,
    /// (kind, wall in ms) of every operation, in order.
    pub op_ms: Vec<(usize, f64)>,
    pub attempted: u64,
    pub failed: u64,
    pub counters: Counters,
    pub wire_s: f64,
    /// Filled by traced passes.
    pub layers: LayerSeconds,
    /// Point lookups whose execution probed no index.
    pub unprobed_points: u64,
}

impl PassSample {
    /// Nearest-rank percentile of this pass's operation latencies, in ms.
    pub fn percentile_ms(&self, fraction: f64) -> f64 {
        let ms: Vec<f64> = self.op_ms.iter().map(|(_, ms)| *ms).collect();
        percentile(&ms, fraction)
    }

    /// Sum of the operations' walls in seconds: `wall_s`, except for
    /// `ingest_mix`, whose pass is timed by its ingest.
    pub fn op_wall_s(&self) -> f64 {
        self.op_ms.iter().map(|(_, ms)| ms / 1e3).sum()
    }
}

/// How a pass runs its operations.
pub struct PassPlan<'a> {
    pub kinds: &'a [OpKind],
    pub ops: &'a [Op],
    /// Oracle rows of the first operations; checked when present.
    pub expected: &'a [Vec<Vec<Value>>],
    /// TPC-H answers are compared in their `ORDER BY` order, lookups sorted.
    pub ordered: bool,
    pub traced: bool,
    /// Span lines are collected for `--out` under this pass number.
    pub span_sink: Option<(usize, &'a mut Vec<String>)>,
    /// Cycle through `ops` until this is set, instead of running each once.
    pub until: Option<&'a AtomicBool>,
}

pub fn run_ops(client: &MonomiClient, mut plan: PassPlan<'_>) -> PassSample {
    let mut sample = PassSample::default();
    let mut index = 0usize;
    loop {
        match plan.until {
            Some(stop) if stop.load(Ordering::SeqCst) => break,
            None if index == plan.ops.len() => break,
            _ => {}
        }
        let op = &plan.ops[index % plan.ops.len()];
        let kind = &plan.kinds[op.kind];
        let watch = Stopwatch::start();
        let outcome = if plan.traced {
            client
                .execute_traced(&kind.sql, &op.params)
                .map(|(rows, timings, _, spans)| (rows, timings, spans))
        } else {
            client
                .execute(&kind.sql, &op.params)
                .map(|(rows, timings)| (rows, timings, Vec::new()))
        };
        let wall_s = watch.seconds();
        sample.wall_s += wall_s;
        sample.op_ms.push((op.kind, wall_s * 1e3));
        sample.attempted += 1;
        match outcome {
            Ok((rows, timings, spans)) => {
                sample.counters.add(&timings);
                sample.wire_s += timings.wire_seconds;
                sample.layers.add_forest(&spans);
                if kind.point && timings.server_index_probes == 0 {
                    sample.unprobed_points += 1;
                }
                if let Some((pass, sink)) = plan.span_sink.as_mut() {
                    flatten_json(&spans, *pass, &kind.name, sink);
                }
                if let Some(expected) = plan.expected.get(index) {
                    let matches = if plan.ordered {
                        oracle::rows_match(expected, &rows.rows)
                    } else {
                        oracle::rows_match(expected, &oracle::sorted_rows(rows.rows))
                    };
                    if !matches {
                        eprintln!(
                            "e2e: {} {:?} differs from the plaintext answer",
                            kind.name, op.params
                        );
                        sample.failed += 1;
                    }
                }
            }
            Err(e) => {
                eprintln!("e2e: {} {:?} failed: {e:?}", kind.name, op.params);
                sample.failed += 1;
            }
        }
        index += 1;
    }
    sample
}

/// The second connection of `ingest_mix`: a bare transport that creates a
/// table per pass and bulk-loads pre-encrypted `lineitem` rows into it.
pub struct Ingest {
    pub transport: TcpTransport,
    columns: Vec<ColumnDef>,
    batches: Vec<Vec<Vec<Value>>>,
    tables_made: usize,
}

/// Sets the flag when dropped, so a panicking ingest thread still releases
/// the lookup loop that waits for it.
struct SetOnDrop<'a>(&'a AtomicBool);

impl Drop for SetOnDrop<'_> {
    fn drop(&mut self) {
        self.0.store(true, Ordering::SeqCst);
    }
}

impl Ingest {
    /// Connects and reads back, still encrypted, the rows that will be
    /// re-sent: the server is the only holder of the ciphertext.
    pub fn prepare(addr: &str) -> Ingest {
        let transport = TcpTransport::connect_with(addr, TransportOptions::default())
            .unwrap_or_else(|e| panic!("second connection to {addr} failed: {e:?}"));
        let wanted = INGEST_DISTINCT_BATCHES * INGEST_BATCH_ROWS;
        let query = parse_query(&format!("SELECT * FROM lineitem LIMIT {wanted}"))
            .expect("row fetch parses");
        let fetched = transport
            .execute(&query, &exec_options())
            .unwrap_or_else(|e| panic!("fetching encrypted lineitem rows failed: {e:?}"))
            .result;
        assert!(
            fetched.rows.len() == wanted,
            "lineitem has {} rows, ingest needs {wanted}",
            fetched.rows.len()
        );
        let columns = fetched
            .columns
            .iter()
            .enumerate()
            .map(|(i, name)| {
                let ty = fetched
                    .rows
                    .iter()
                    .find_map(|row| match &row[i] {
                        Value::Int(_) => Some(ColumnType::Int),
                        Value::Bytes(_) => Some(ColumnType::Bytes),
                        Value::Str(_) => Some(ColumnType::Str),
                        Value::Date(_) => Some(ColumnType::Date),
                        Value::Float(_) => Some(ColumnType::Float),
                        _ => None,
                    })
                    .unwrap_or(ColumnType::Bytes);
                ColumnDef::new(name.clone(), ty)
            })
            .collect();
        let batches = fetched
            .rows
            .chunks(INGEST_BATCH_ROWS)
            .map(<[Vec<Value>]>::to_vec)
            .collect();
        Ingest {
            transport,
            columns,
            batches,
            tables_made: 0,
        }
    }

    /// One pass of ingest: a new table and `INGEST_BATCHES_PER_PASS` loads.
    /// Returns (wall seconds, operations attempted, operations failed).
    fn run_pass(&mut self) -> (f64, u64, u64) {
        let table = format!("ingest_{}", self.tables_made);
        self.tables_made += 1;
        let payload: Vec<Vec<Vec<Value>>> = (0..INGEST_BATCHES_PER_PASS)
            .map(|i| self.batches[i % self.batches.len()].clone())
            .collect();
        let mut failed = 0;
        let watch = Stopwatch::start();
        let schema = TableSchema::new(table.clone(), self.columns.clone());
        if let Err(e) = self.transport.create_table(&schema, &[]) {
            eprintln!("e2e: create {table} failed: {e:?}");
            failed += 1;
        }
        for rows in payload {
            if let Err(e) = self.transport.bulk_load(&table, rows) {
                eprintln!("e2e: bulk load into {table} failed: {e:?}");
                failed += 1;
            }
        }
        (watch.seconds(), INGEST_BATCHES_PER_PASS as u64 + 1, failed)
    }
}

/// One pass of a workload: its operations once, or for `ingest_mix` the
/// lookups in a loop on this thread for as long as the ingest runs on another.
pub fn run_pass(
    client: &MonomiClient,
    plan: PassPlan<'_>,
    ingest: Option<&mut Ingest>,
) -> PassSample {
    let Some(ingest) = ingest else {
        return run_ops(client, plan);
    };
    let done = AtomicBool::new(false);
    std::thread::scope(|scope| {
        let handle = scope.spawn(|| {
            let _release = SetOnDrop(&done);
            ingest.run_pass()
        });
        let mut sample = run_ops(
            client,
            PassPlan {
                until: Some(&done),
                ..plan
            },
        );
        let (wall_s, attempted, failed) = handle.join().expect("ingest thread panicked");
        sample.wall_s = wall_s;
        sample.attempted += attempted;
        sample.failed += failed;
        sample
    })
}
