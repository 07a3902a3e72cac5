//! LocalDecrypt as a compiled, column-major pipeline.
//!
//! Decryption of a RemoteSQL result is the cost the paper's planner trades
//! server work against (§5–§6), so it is organised to pay per value only what
//! depends on the value. [`DecryptPipeline::compile`] resolves, once per
//! `RemotePlan` execution, everything that depends only on the output column:
//! the design entry, the keyed cipher (cached on the [`Encryptor`]), the
//! plaintext type to decode to, the HOM slot. [`DecryptPipeline::run`] then
//! walks the result one column at a time, so each cipher runs in a tight loop
//! over its own ciphertexts, and
//!
//! * DET is deterministic, so a column's distinct ciphertexts are decrypted
//!   once and repeats are served from a per-column memo. Flags, quantities,
//!   discounts, ship modes and dates repeat thousands of times; keys do not,
//!   so a memo that sees fewer than one hit in eight over a window of
//!   [`MEMO_WINDOW`] values switches itself off for the rest of the column.
//! * the `HomGroupSum` outputs of a row are slots of the same packed Paillier
//!   plaintext whenever they carry the same ciphertext: each distinct
//!   ciphertext of a row is decrypted once for all its slots.
//! * `GroupValues` lists are walked where they lie, through the same memo,
//!   and folded by the engine's own aggregate state
//!   ([`monomi_engine::AggState`]), the one the server and the residual's
//!   GROUP BY fold with.
//!
//! The startup profiler ([`crate::cost::DecryptProfile::measure`]) times this
//! pipeline, not the ciphers beside it: what the planner prices is what the
//! executor pays.
//!
//! Everything read here was sent by the untrusted server. A row of the wrong
//! width, a value of the wrong kind or a ciphertext no cipher of ours
//! produced is a [`CoreError`], never a panic.

use crate::design::{hom_group_slot, Encryptor, ValueDecryptor};
use crate::plan::{DecryptSpec, OutputColumn};
use crate::schemes::EncScheme;
use crate::CoreError;
use monomi_engine::{AggState, ColumnType, ResultSet, Value};
use monomi_math::BigUint;
use monomi_obs::{Span, Stopwatch};
use monomi_sql::ast::AggFunc;
use std::collections::HashMap;

/// Values between two looks at a memo's hit rate. Long enough for a domain of
/// a few thousand values (TPC-H's ~2 500 dates) to start repeating: under a
/// tenth of the first 256 dates of a result are repeats, a fifth of the first
/// 1 024, four fifths of 12 000.
pub(crate) const MEMO_WINDOW: u32 = 1024;
/// Hits a window needs for the memo to stay on. A hit saves a decryption
/// (0.3–0.7 µs) and a miss costs a hash insert (under 0.1 µs), so the memo
/// pays from a much lower rate than this; one in eight leaves a margin.
const MEMO_MIN_HITS: u32 = MEMO_WINDOW / 8;

/// How one output column of a RemoteSQL result becomes plaintext.
enum ColumnPlan<'a> {
    /// The server returned plaintext.
    Plain,
    /// One ciphertext per row (`DecryptSpec::Column` and `HomSum`).
    Value(ValueDecryptor<'a>),
    /// One slot of the row's packed HOM group sum.
    HomGroupSlot { slot: usize, ty: ColumnType },
    /// A `group_concat` list of DET ciphertexts per row, folded after
    /// decryption.
    GroupValues {
        items: ValueDecryptor<'a>,
        agg: AggFunc,
        distinct: bool,
    },
}

/// The decryptors for the output columns of one RemoteSQL operator.
pub(crate) struct DecryptPipeline<'a> {
    encryptor: &'a Encryptor,
    outputs: &'a [OutputColumn],
    /// One plan per output column.
    columns: Vec<ColumnPlan<'a>>,
}

impl<'a> DecryptPipeline<'a> {
    /// Resolves every output column's decryptor against the encryptor's
    /// design. Fails if the plan names a column the design does not have.
    pub(crate) fn compile(
        encryptor: &'a Encryptor,
        outputs: &'a [OutputColumn],
    ) -> Result<Self, CoreError> {
        let decryptor = |table: &str, base: &str, scheme: EncScheme| {
            encryptor
                .column(table, base)
                .ok_or_else(|| CoreError::new(format!("missing design for {table}.{base}")))?
                .decryptor(scheme)
        };
        let columns = outputs
            .iter()
            .map(|out| {
                Ok(match &out.decrypt {
                    DecryptSpec::Plain => ColumnPlan::Plain,
                    DecryptSpec::Column {
                        table,
                        base,
                        scheme,
                        ..
                    } => ColumnPlan::Value(decryptor(table, base, *scheme)?),
                    DecryptSpec::HomSum { table, base, .. } => {
                        ColumnPlan::Value(decryptor(table, base, EncScheme::Hom)?)
                    }
                    DecryptSpec::HomGroupSum { table, base, ty } => {
                        let slot = encryptor
                            .design()
                            .table(table)
                            .ok_or_else(|| CoreError::new(format!("missing design for {table}")))?
                            .hom_slot_index(base)
                            .ok_or_else(|| CoreError::new(format!("{base} is not a HOM slot")))?;
                        ColumnPlan::HomGroupSlot { slot, ty: *ty }
                    }
                    DecryptSpec::GroupValues {
                        table,
                        base,
                        agg,
                        distinct,
                        ..
                    } => ColumnPlan::GroupValues {
                        items: decryptor(table, base, EncScheme::Det)?,
                        agg: *agg,
                        distinct: *distinct,
                    },
                })
            })
            .collect::<Result<_, CoreError>>()?;
        Ok(DecryptPipeline {
            encryptor,
            outputs,
            columns,
        })
    }

    /// Decrypts a RemoteSQL result into plaintext rows. With `traced`, also
    /// returns one `Decrypt(<scheme>)` span per decrypted column (one for all
    /// the HOM group slots together): seconds, the number of non-NULL values
    /// turned into plaintext, and in the label how many of those reused an
    /// earlier decryption instead of running the cipher. Untraced, no clock
    /// is read.
    pub(crate) fn run(
        &self,
        enc_rs: &ResultSet,
        traced: bool,
    ) -> Result<(Vec<Vec<Value>>, Vec<Span>), CoreError> {
        let nrows = enc_rs.rows.len();
        if let Some(row) = enc_rs.rows.iter().find(|r| r.len() != self.columns.len()) {
            return Err(CoreError::new(format!(
                "server returned a row of {} columns where the plan has {}",
                row.len(),
                self.columns.len()
            )));
        }
        let mut spans = Vec::new();
        let mut plain_columns: Vec<Vec<Value>> = Vec::with_capacity(self.columns.len());
        for (c, plan) in self.columns.iter().enumerate() {
            let watch = traced.then(Stopwatch::start);
            let cells = enc_rs.rows.iter().map(|row| &row[c]);
            let mut column = Vec::with_capacity(nrows);
            let memo = match plan {
                ColumnPlan::Plain => {
                    column.extend(cells.cloned());
                    None
                }
                // Filled in row order below, all slots together.
                ColumnPlan::HomGroupSlot { .. } => None,
                ColumnPlan::Value(decryptor) => {
                    let mut memo = Memo::new(*decryptor);
                    for cell in cells {
                        column.push(memo.decrypt(cell)?);
                    }
                    Some(memo)
                }
                ColumnPlan::GroupValues {
                    items,
                    agg,
                    distinct,
                } => {
                    let mut memo = Memo::new(*items);
                    for cell in cells {
                        let list = match cell {
                            Value::List(list) => list.as_slice(),
                            Value::Null => &[],
                            scalar => std::slice::from_ref(scalar),
                        };
                        let mut state = AggState::new(*agg, *distinct);
                        for item in list {
                            state.update(Some(memo.decrypt(item)?));
                        }
                        column.push(state.finish());
                    }
                    Some(memo)
                }
            };
            plain_columns.push(column);
            if let (Some(watch), Some(memo)) = (watch, memo) {
                let source = match &self.outputs[c].decrypt {
                    DecryptSpec::Column { table, base, .. }
                    | DecryptSpec::HomSum { table, base, .. }
                    | DecryptSpec::GroupValues { table, base, .. } => format!("{table}.{base}"),
                    DecryptSpec::Plain | DecryptSpec::HomGroupSum { .. } => String::new(),
                };
                spans.push(Span::leaf(
                    format!(
                        "Decrypt({}) {source} reused={}",
                        memo.decryptor.scheme(),
                        memo.hits
                    ),
                    watch.seconds(),
                    memo.values,
                ));
            }
        }
        if let Some(span) = self.decrypt_hom_group_slots(enc_rs, &mut plain_columns, traced)? {
            spans.push(span);
        }

        let mut plain_columns: Vec<_> = plain_columns.into_iter().map(Vec::into_iter).collect();
        let rows = (0..nrows)
            .map(|_| {
                plain_columns
                    .iter_mut()
                    .map(|column| column.next().expect("every column has one value per row"))
                    .collect()
            })
            .collect();
        Ok((rows, spans))
    }

    /// Fills the `HomGroupSlot` columns: per row, every distinct ciphertext
    /// among them is decrypted once and serves all the slots that carry it.
    fn decrypt_hom_group_slots(
        &self,
        enc_rs: &ResultSet,
        plain_columns: &mut [Vec<Value>],
        traced: bool,
    ) -> Result<Option<Span>, CoreError> {
        let slots: Vec<(usize, usize, ColumnType)> = self
            .columns
            .iter()
            .enumerate()
            .filter_map(|(c, plan)| match plan {
                ColumnPlan::HomGroupSlot { slot, ty } => Some((c, *slot, *ty)),
                _ => None,
            })
            .collect();
        if slots.is_empty() {
            return Ok(None);
        }
        let watch = traced.then(Stopwatch::start);
        let (mut values, mut shared) = (0u64, 0u64);
        let mut decrypted: Vec<(&[u8], BigUint)> = Vec::with_capacity(slots.len());
        for row in &enc_rs.rows {
            decrypted.clear();
            for &(c, slot, ty) in &slots {
                let cell = &row[c];
                if cell.is_null() {
                    plain_columns[c].push(Value::Null);
                    continue;
                }
                let ciphertext = cell
                    .as_bytes()
                    .ok_or_else(|| CoreError::new("HOM ciphertext must be bytes"))?;
                values += 1;
                let packed = match decrypted.iter().position(|(seen, _)| *seen == ciphertext) {
                    Some(i) => {
                        shared += 1;
                        &decrypted[i].1
                    }
                    None => {
                        let packed = self.encryptor.decrypt_hom_group(ciphertext)?;
                        decrypted.push((ciphertext, packed));
                        &decrypted.last().expect("just pushed").1
                    }
                };
                plain_columns[c].push(hom_group_slot(packed, slot, ty)?);
            }
        }
        Ok(watch.map(|watch| {
            Span::leaf(
                format!(
                    "Decrypt({}) {} group slots reused={shared}",
                    EncScheme::Hom,
                    slots.len()
                ),
                watch.seconds(),
                values,
            )
        }))
    }
}

/// A ciphertext as a memo key, borrowed from the result set.
#[derive(PartialEq, Eq, Hash)]
enum MemoKey<'v> {
    Int(i64),
    Bytes(&'v [u8]),
}

/// A column's decryptor with the plaintexts of the distinct ciphertexts it
/// has seen. Only DET repeats; the other schemes go straight to the cipher.
struct Memo<'a, 'v> {
    decryptor: ValueDecryptor<'a>,
    /// `None` once switched off (or for a scheme that never repeats).
    seen: Option<HashMap<MemoKey<'v>, Value>>,
    /// Lookups and hits of the current window.
    window_lookups: u32,
    window_hits: u32,
    /// Non-NULL values decrypted, and how many of them the memo served.
    values: u64,
    hits: u64,
}

impl<'a, 'v> Memo<'a, 'v> {
    fn new(decryptor: ValueDecryptor<'a>) -> Self {
        // The keys are the untrusted server's bytes: the map keeps std's
        // keyed hasher.
        let seen = (decryptor.scheme() == EncScheme::Det).then(HashMap::new);
        Memo {
            decryptor,
            seen,
            window_lookups: 0,
            window_hits: 0,
            values: 0,
            hits: 0,
        }
    }

    fn decrypt(&mut self, v: &'v Value) -> Result<Value, CoreError> {
        let key = match v {
            Value::Null => return Ok(Value::Null),
            Value::Int(i) => MemoKey::Int(*i),
            Value::Bytes(b) => MemoKey::Bytes(b),
            // Not a ciphertext of any scheme: the decryptor says so.
            _ => return self.decryptor.decrypt(v),
        };
        self.values += 1;
        let Some(seen) = &mut self.seen else {
            return self.decryptor.decrypt(v);
        };
        self.window_lookups += 1;
        let plain = match seen.get(&key) {
            Some(plain) => {
                self.window_hits += 1;
                self.hits += 1;
                plain.clone()
            }
            None => {
                let plain = self.decryptor.decrypt(v)?;
                seen.insert(key, plain.clone());
                plain
            }
        };
        if self.window_lookups == MEMO_WINDOW {
            if self.window_hits < MEMO_MIN_HITS {
                self.seen = None;
            }
            self.window_lookups = 0;
            self.window_hits = 0;
        }
        Ok(plain)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::design::PhysicalDesign;
    use monomi_crypto::MasterKey;
    use monomi_sql::ast::Expr;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// LocalDecrypt as it was before the pipeline: row at a time, every value
    /// through a by-name column lookup and `decrypt_value`, every HOM slot
    /// through its own Paillier decryption, every list cloned. The pipeline
    /// must agree with it on every result.
    fn decrypt_row_at_a_time(
        encryptor: &Encryptor,
        outputs: &[OutputColumn],
        enc_rs: &ResultSet,
    ) -> Result<Vec<Vec<Value>>, CoreError> {
        let column = |table: &str, base: &str| {
            encryptor
                .column(table, base)
                .ok_or_else(|| CoreError::new(format!("missing design for {table}.{base}")))
        };
        let mut rows = Vec::new();
        for enc_row in &enc_rs.rows {
            let mut out_row = Vec::new();
            for (i, out) in outputs.iter().enumerate() {
                let v = &enc_row[i];
                out_row.push(match &out.decrypt {
                    DecryptSpec::Plain => v.clone(),
                    DecryptSpec::Column {
                        table,
                        base,
                        scheme,
                        ..
                    } => column(table, base)?.decrypt_value(*scheme, v)?,
                    DecryptSpec::HomSum { table, base, .. } => {
                        column(table, base)?.decrypt_value(EncScheme::Hom, v)?
                    }
                    DecryptSpec::HomGroupSum { table, base, ty } => {
                        let slot = encryptor
                            .design()
                            .table(table)
                            .and_then(|td| td.hom_slot_index(base))
                            .ok_or_else(|| CoreError::new("not a HOM slot"))?;
                        match v.as_bytes() {
                            None => Value::Null,
                            Some(ct) => {
                                hom_group_slot(&encryptor.decrypt_hom_group(ct)?, slot, *ty)?
                            }
                        }
                    }
                    DecryptSpec::GroupValues {
                        table,
                        base,
                        agg,
                        distinct,
                        ..
                    } => {
                        let list = match v {
                            Value::List(items) => items.clone(),
                            Value::Null => Vec::new(),
                            other => vec![other.clone()],
                        };
                        let mut state = AggState::new(*agg, *distinct);
                        for item in &list {
                            state.update(Some(
                                column(table, base)?.decrypt_value(EncScheme::Det, item)?,
                            ));
                        }
                        state.finish()
                    }
                });
            }
            rows.push(out_row);
        }
        Ok(rows)
    }

    /// A table with one source per (type, scheme) the client can decrypt and
    /// three HOM slots packed into a group column.
    fn encryptor() -> Encryptor {
        // 256 bits hold the three 64-bit slots of the packed group.
        let mut design = PhysicalDesign::new(256);
        let td = design.table_mut("t");
        for (name, ty, scheme) in [
            ("k", ColumnType::Int, EncScheme::Det),
            ("d", ColumnType::Date, EncScheme::Det),
            ("f", ColumnType::Float, EncScheme::Det),
            ("s", ColumnType::Str, EncScheme::Det),
            ("r", ColumnType::Str, EncScheme::Rnd),
            ("a", ColumnType::Int, EncScheme::Hom),
            ("b", ColumnType::Int, EncScheme::Hom),
            ("c", ColumnType::Float, EncScheme::Hom),
        ] {
            td.add(Expr::col(name), ty, scheme);
        }
        td.add(Expr::col("a"), ColumnType::Int, EncScheme::Rnd);
        td.col_packing = true;
        Encryptor::new(MasterKey::from_bytes([5; 32]), design, 9)
    }

    fn output(decrypt: DecryptSpec) -> OutputColumn {
        OutputColumn {
            source: Expr::col("x"),
            server_expr: Expr::col("x"),
            decrypt,
        }
    }

    fn column_spec(base: &str, scheme: EncScheme, ty: ColumnType) -> DecryptSpec {
        DecryptSpec::Column {
            table: "t".into(),
            base: base.into(),
            scheme,
            ty,
        }
    }

    /// One output column of every `DecryptSpec` variant (GroupValues over
    /// every column type, `distinct` on and off; three HOM group slots, two
    /// of which share a ciphertext per row and one of which does not).
    fn outputs() -> Vec<OutputColumn> {
        let group = |base: &str, ty, agg, distinct| DecryptSpec::GroupValues {
            table: "t".into(),
            base: base.into(),
            ty,
            agg,
            distinct,
        };
        let slot = |base: &str, ty| DecryptSpec::HomGroupSum {
            table: "t".into(),
            base: base.into(),
            ty,
        };
        [
            DecryptSpec::Plain,
            column_spec("k", EncScheme::Det, ColumnType::Int),
            column_spec("d", EncScheme::Det, ColumnType::Date),
            column_spec("f", EncScheme::Det, ColumnType::Float),
            column_spec("s", EncScheme::Det, ColumnType::Str),
            column_spec("r", EncScheme::Rnd, ColumnType::Str),
            column_spec("a", EncScheme::Rnd, ColumnType::Int),
            slot("a", ColumnType::Int),
            DecryptSpec::HomSum {
                table: "t".into(),
                base: "b".into(),
                ty: ColumnType::Int,
            },
            slot("c", ColumnType::Float),
            slot("b", ColumnType::Int),
            group("k", ColumnType::Int, AggFunc::Sum, false),
            group("s", ColumnType::Str, AggFunc::Min, true),
            group("d", ColumnType::Date, AggFunc::Count, true),
            group("f", ColumnType::Float, AggFunc::Max, false),
        ]
        .into_iter()
        .map(output)
        .collect()
    }

    /// Generates an encrypted result set for [`outputs`]: `rows` rows whose
    /// DET plaintexts are drawn from `distinct` values (1 = all hits, large =
    /// all misses), with NULLs, empty lists, NULL lists and bare scalars in
    /// the list columns.
    fn result_set(enc: &Encryptor, rows: usize, distinct: u64, seed: u64) -> ResultSet {
        let mut rng = StdRng::seed_from_u64(seed);
        let pick = |rng: &mut StdRng| rng.gen_range(0..distinct);
        let plain = |base: &str, n: u64| match base {
            "k" | "a" | "b" => Value::Int(n as i64 * 7 - 3),
            "d" => Value::Date(8000 + n as i32),
            "f" | "c" => Value::Float(n as f64 / 4.0),
            "s" | "r" => Value::Str(format!("value {n} {}", "x".repeat((n % 40) as usize))),
            other => unreachable!("{other}"),
        };
        let cell = |rng: &mut StdRng, base: &str, scheme| {
            if rng.gen_range(0..10) == 0 {
                return Value::Null;
            }
            let n = pick(rng);
            enc.column("t", base)
                .unwrap()
                .encrypt_value(scheme, &plain(base, n), rng)
                .unwrap()
        };
        let list = |rng: &mut StdRng, base: &str| match rng.gen_range(0..8) {
            0 => Value::Null,
            1 => Value::List(Vec::new()),
            2 => cell(rng, base, EncScheme::Det),
            _ => {
                let len = rng.gen_range(1..12);
                Value::List((0..len).map(|_| cell(rng, base, EncScheme::Det)).collect())
            }
        };
        let rows = (0..rows)
            .map(|_| {
                // Two group sums of a row come from the same aggregate (one
                // ciphertext), the third from another.
                let group = |rng: &mut StdRng| {
                    if rng.gen_range(0..10) == 0 {
                        return Value::Null;
                    }
                    let slots = [pick(rng), pick(rng), pick(rng)].map(|n| n % (1 << 36));
                    enc.encrypt_hom_group(&slots, rng)
                };
                let shared = group(&mut rng);
                vec![
                    Value::Int(pick(&mut rng) as i64),
                    cell(&mut rng, "k", EncScheme::Det),
                    cell(&mut rng, "d", EncScheme::Det),
                    cell(&mut rng, "f", EncScheme::Det),
                    cell(&mut rng, "s", EncScheme::Det),
                    cell(&mut rng, "r", EncScheme::Rnd),
                    cell(&mut rng, "a", EncScheme::Rnd),
                    shared.clone(),
                    cell(&mut rng, "b", EncScheme::Hom),
                    shared,
                    group(&mut rng),
                    list(&mut rng, "k"),
                    list(&mut rng, "s"),
                    list(&mut rng, "d"),
                    list(&mut rng, "f"),
                ]
            })
            .collect();
        ResultSet {
            columns: (0..15).map(|i| format!("c{i}")).collect(),
            rows,
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(12))]

        #[test]
        fn pipeline_equals_row_at_a_time(
            // Row counts around the memo's windows, where it decides to stay
            // on or not; plaintext domains from all-hits to all-misses.
            rows_near in 0usize..3,
            rows_past in 0usize..12,
            domain in 0usize..4,
            seed in any::<u64>(),
        ) {
            let rows = [0, MEMO_WINDOW as usize - 6, 2 * MEMO_WINDOW as usize - 6][rows_near] + rows_past;
            let distinct = [1, 7, 300, 1 << 40][domain];
            let enc = encryptor();
            let outputs = outputs();
            let enc_rs = result_set(&enc, rows, distinct, seed);
            let expected = decrypt_row_at_a_time(&enc, &outputs, &enc_rs).unwrap();
            let pipeline = DecryptPipeline::compile(&enc, &outputs).unwrap();
            let (plain, spans) = pipeline.run(&enc_rs, false).unwrap();
            prop_assert!(spans.is_empty());
            // Debug equality: bit-identical floats, and -0.0 is not 0.0.
            prop_assert_eq!(format!("{plain:?}"), format!("{expected:?}"));
            let (traced, spans) = pipeline.run(&enc_rs, true).unwrap();
            prop_assert_eq!(format!("{traced:?}"), format!("{expected:?}"));
            // Every decrypted column but the HOM slots has a span of its own;
            // the three slots share one.
            prop_assert_eq!(spans.len(), outputs.len() - 1 - 3 + 1);
        }
    }

    fn det_ints(enc: &Encryptor, plain: impl Iterator<Item = i64>) -> ResultSet {
        let mut rng = StdRng::seed_from_u64(1);
        let k = enc.column("t", "k").unwrap();
        ResultSet {
            columns: vec!["k".into()],
            rows: plain
                .map(|i| {
                    vec![k
                        .encrypt_value(EncScheme::Det, &Value::Int(i), &mut rng)
                        .unwrap()]
                })
                .collect(),
        }
    }

    fn reused(span: &Span) -> u64 {
        let (_, n) = span
            .label
            .rsplit_once("reused=")
            .expect("label counts reuse");
        n.parse().unwrap()
    }

    #[test]
    fn memo_serves_repeats_and_backs_off_on_keys() {
        let enc = encryptor();
        let outputs = vec![output(column_spec("k", EncScheme::Det, ColumnType::Int))];
        let pipeline = DecryptPipeline::compile(&enc, &outputs).unwrap();
        let n = 4 * MEMO_WINDOW as i64;

        // Five distinct values: everything after their first sight is a hit.
        let (_, spans) = pipeline
            .run(&det_ints(&enc, (0..n).map(|i| i % 5)), true)
            .unwrap();
        assert_eq!(spans[0].label, format!("Decrypt(DET) t.k reused={}", n - 5));
        assert_eq!(spans[0].rows, n as u64);

        // A key column: no hit in the first window, so no memo after it.
        let (rows, spans) = pipeline.run(&det_ints(&enc, 0..n), true).unwrap();
        assert_eq!(reused(&spans[0]), 0);
        assert_eq!(rows[n as usize - 1], vec![Value::Int(n - 1)]);

        // Keys first, repeats later: switched off stays off, and is right.
        let window = MEMO_WINDOW as i64;
        let (rows, spans) = pipeline
            .run(
                &det_ints(&enc, (0..window).chain((0..window).map(|_| 7))),
                true,
            )
            .unwrap();
        assert_eq!(reused(&spans[0]), 0);
        assert!(rows[window as usize..]
            .iter()
            .all(|r| r == &[Value::Int(7)]));

        // Repeats first, keys later: on through the first window, off after
        // the second.
        let (_, spans) = pipeline
            .run(
                &det_ints(&enc, (0..window).map(|_| 7).chain(0..3 * window)),
                true,
            )
            .unwrap();
        assert_eq!(reused(&spans[0]), window as u64 - 1 + 1);
    }

    #[test]
    fn each_distinct_group_ciphertext_of_a_row_is_decrypted_once() {
        let enc = encryptor();
        let outputs = outputs();
        let enc_rs = result_set(&enc, 40, 1 << 20, 3);
        let non_null = |c: usize| enc_rs.rows.iter().filter(|r| !r[c].is_null()).count() as u64;
        let (_, spans) = DecryptPipeline::compile(&enc, &outputs)
            .unwrap()
            .run(&enc_rs, true)
            .unwrap();
        let hom = spans.last().unwrap();
        assert!(
            hom.label.starts_with("Decrypt(HOM) 3 group slots"),
            "{}",
            hom.label
        );
        // Columns 7 and 9 carry the same ciphertext, column 10 another.
        assert_eq!(hom.rows, non_null(7) + non_null(9) + non_null(10));
        assert_eq!(reused(hom), non_null(9));
    }

    #[test]
    fn what_the_server_sends_is_checked() {
        let enc = encryptor();
        let outputs = vec![
            output(column_spec("k", EncScheme::Det, ColumnType::Int)),
            output(column_spec("s", EncScheme::Det, ColumnType::Str)),
        ];
        let pipeline = DecryptPipeline::compile(&enc, &outputs).unwrap();
        let run = |row: Vec<Value>| {
            pipeline.run(
                &ResultSet {
                    columns: vec!["k".into(), "s".into()],
                    rows: vec![row],
                },
                false,
            )
        };
        // A short row, a long row, values of the wrong kind, a bad ciphertext.
        assert!(run(vec![Value::Int(1)]).is_err());
        assert!(run(vec![Value::Int(1), Value::Null, Value::Null]).is_err());
        assert!(run(vec![Value::Str("1".into()), Value::Null]).is_err());
        assert!(run(vec![Value::Int(1), Value::Int(2)]).is_err());
        assert!(run(vec![Value::Int(1), Value::Bytes(vec![0; 15])]).is_err());
        assert!(run(vec![Value::Int(1), Value::Null]).is_ok());

        // A plan the design cannot serve fails to compile.
        for bad in [
            column_spec("nope", EncScheme::Det, ColumnType::Int),
            column_spec("k", EncScheme::Ope, ColumnType::Int),
            DecryptSpec::HomGroupSum {
                table: "t".into(),
                base: "k".into(),
                ty: ColumnType::Int,
            },
        ] {
            assert!(DecryptPipeline::compile(&enc, &[output(bad)]).is_err());
        }
    }
}
