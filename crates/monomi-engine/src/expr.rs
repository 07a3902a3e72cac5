//! SQL expression semantics: the value-level operations every evaluation
//! shares, and the vectorized scan predicate.
//!
//! The operations implement SQL semantics for the subset MONOMI needs:
//! arithmetic with integer/float coercion, date ± interval arithmetic,
//! three-valued comparisons, LIKE patterns, IN / BETWEEN / CASE / EXTRACT,
//! and the engine's encrypted-data scalar functions (e.g. `search_match`).
//! Rows are evaluated by [`BoundExpr`](crate::BoundExpr), which binds an
//! expression once to row positions; [`compile_predicate`] turns a scan's
//! conjunct into column-slice comparisons and falls back to a bound
//! expression for the rest. The by-name interpreter `eval` the engine once
//! ran per row survives only in tests, as the oracle both are checked
//! against.

use crate::bound::{fold_constant, BoundExpr, NoSubqueries};
use crate::value::{date, Value};
use crate::EngineError;
use monomi_sql::ast::*;
use std::collections::HashSet;
use std::sync::OnceLock;

/// Describes the columns of the rows an expression is evaluated against.
#[derive(Clone, Debug, Default)]
pub struct RowSchema {
    /// `(binding, column_name)` pairs; `binding` is the table name or alias the
    /// column came from, if any.
    pub columns: Vec<(Option<String>, String)>,
}

impl RowSchema {
    /// Creates a schema from `(binding, name)` pairs.
    pub fn new(columns: Vec<(Option<String>, String)>) -> Self {
        RowSchema { columns }
    }

    /// Resolves a column reference to an index.
    pub fn resolve(&self, col: &ColumnRef) -> Option<usize> {
        // Qualified reference: match binding and name.
        if let Some(table) = &col.table {
            return self.columns.iter().position(|(b, n)| {
                n.eq_ignore_ascii_case(&col.column)
                    && b.as_deref().is_some_and(|b| b.eq_ignore_ascii_case(table))
            });
        }
        // Unqualified: name must be unambiguous (first match wins, mirroring
        // the permissive behaviour of most engines for our workloads).
        self.columns
            .iter()
            .position(|(_, n)| n.eq_ignore_ascii_case(&col.column))
    }

    /// Appends another schema's columns (used when joining).
    pub fn concat(&self, other: &RowSchema) -> RowSchema {
        let mut columns = self.columns.clone();
        columns.extend(other.columns.clone());
        RowSchema { columns }
    }

    /// Number of columns.
    pub fn len(&self) -> usize {
        self.columns.len()
    }

    /// True if there are no columns.
    pub fn is_empty(&self) -> bool {
        self.columns.is_empty()
    }
}

/// The rows one subquery execution returned, as every evaluation that reads
/// them sees them: `EXISTS` asks whether there are any, a scalar subquery
/// reads the first, and `IN` probes a set of the first column's values, built
/// on the first probe.
///
/// The set is only probed, never iterated. Its membership is exactly that of
/// a linear `equals` scan of the first column: `Value`'s `Hash`/`Eq` contract
/// (see [`Value::compare`]) makes `equals` an equivalence its hash respects,
/// NULL included — a NULL probe finds a NULL row, as the scan did.
#[derive(Debug)]
pub struct SubqueryResult {
    rows: Vec<Vec<Value>>,
    first_column: OnceLock<HashSet<Value>>,
}

impl SubqueryResult {
    /// Wraps the rows a subquery returned.
    pub fn new(rows: Vec<Vec<Value>>) -> Self {
        SubqueryResult {
            rows,
            first_column: OnceLock::new(),
        }
    }

    /// True if the subquery returned no row (`EXISTS` is its negation).
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// `v IN (subquery)`: some row's first column equals `v`.
    pub fn contains(&self, v: &Value) -> bool {
        self.first_column
            .get_or_init(|| {
                self.rows
                    .iter()
                    .filter_map(|r| r.first().cloned())
                    .collect()
            })
            .contains(v)
    }

    /// The value of a scalar subquery: the first row's first column, NULL
    /// when there is none.
    pub fn scalar(&self) -> Value {
        self.rows
            .first()
            .and_then(|r| r.first().cloned())
            .unwrap_or(Value::Null)
    }
}

/// A subquery runner for the test oracle [`eval`].
#[cfg(test)]
pub(crate) type OracleSubquery<'a> =
    Option<&'a dyn Fn(&Query) -> Result<std::sync::Arc<SubqueryResult>, EngineError>>;

/// The by-name interpreter, kept as a test oracle: it resolves every column
/// of `expr` in `schema` on every call, reads `:n` from `params`, and runs
/// each subquery through `subquery`. Production code evaluates
/// [`BoundExpr`]s; tests check them, and the vectorized scan, against this
/// independent reading of the same semantics.
#[cfg(test)]
pub(crate) fn eval(
    expr: &Expr,
    schema: &RowSchema,
    row: &[Value],
    params: &[Value],
    subquery: OracleSubquery<'_>,
) -> Result<Value, EngineError> {
    let eval = |e: &Expr| eval(e, schema, row, params, subquery);
    let run = |q: &Query| {
        subquery.ok_or_else(|| EngineError::new("subquery evaluation not available"))?(q)
    };
    match expr {
        Expr::Column(c) => schema
            .resolve(c)
            .map(|idx| row[idx].clone())
            .ok_or_else(|| EngineError::new(format!("unknown column {c}"))),
        Expr::Literal(l) => literal_value(l),
        Expr::Param(n) => params
            .get(n - 1)
            .cloned()
            .ok_or_else(|| EngineError::new(format!("missing parameter :{n}"))),
        Expr::BinaryOp { left, op, right } => eval_binop(&eval(left)?, *op, &eval(right)?),
        Expr::UnaryOp { op, expr } => eval_unary(*op, eval(expr)?),
        Expr::Aggregate { .. } => Err(aggregate_outside_aggregation(expr)),
        Expr::Function { name, args } => {
            let vals: Vec<Value> = args.iter().map(eval).collect::<Result<_, _>>()?;
            apply_function(name, &vals)
        }
        Expr::Case {
            operand,
            when_then,
            else_expr,
        } => {
            for (when, then) in when_then {
                let matched = match operand {
                    Some(op_expr) => eval(op_expr)?.equals(&eval(when)?),
                    None => eval(when)?.as_bool().unwrap_or(false),
                };
                if matched {
                    return eval(then);
                }
            }
            else_expr.as_deref().map_or(Ok(Value::Null), eval)
        }
        Expr::Like {
            expr,
            pattern,
            negated,
        } => eval_like(eval(expr)?, eval(pattern)?, *negated),
        Expr::InList {
            expr,
            list,
            negated,
        } => {
            let v = eval(expr)?;
            if v.is_null() {
                return Ok(Value::Null);
            }
            let mut found = false;
            for item in list {
                if v.equals(&eval(item)?) {
                    found = true;
                    break;
                }
            }
            Ok(truth(found ^ negated))
        }
        Expr::InSubquery {
            expr,
            subquery,
            negated,
        } => {
            let v = eval(expr)?;
            Ok(truth(run(subquery)?.contains(&v) ^ negated))
        }
        Expr::Exists { subquery, negated } => Ok(truth(!run(subquery)?.is_empty() ^ negated)),
        Expr::ScalarSubquery(subquery) => Ok(run(subquery)?.scalar()),
        Expr::Between {
            expr,
            low,
            high,
            negated,
        } => Ok(eval_between(
            &eval(expr)?,
            &eval(low)?,
            &eval(high)?,
            *negated,
        )),
        Expr::Extract { field, expr } => eval_extract(*field, eval(expr)?),
        Expr::IsNull { expr, negated } => Ok(truth(eval(expr)?.is_null() ^ negated)),
    }
}

// Value-level semantics, shared by `BoundExpr::eval`, the scan's fast paths
// and the test oracle `eval`.

/// A SQL truth value as the engine represents it.
pub(crate) fn truth(b: bool) -> Value {
    Value::Int(b as i64)
}

/// The error an aggregate raises where no aggregation computed it.
pub(crate) fn aggregate_outside_aggregation(expr: &Expr) -> EngineError {
    EngineError::new(format!(
        "aggregate {expr} used outside of an aggregation context"
    ))
}

/// `NOT v` (three-valued) and `-v`.
pub(crate) fn eval_unary(op: UnaryOp, v: Value) -> Result<Value, EngineError> {
    match op {
        UnaryOp::Not => Ok(v.as_bool().map_or(Value::Null, |b| truth(!b))),
        UnaryOp::Neg => match v {
            Value::Null => Ok(Value::Null),
            Value::Int(i) => Ok(Value::Int(-i)),
            Value::Float(f) => Ok(Value::Float(-f)),
            other => Err(EngineError::new(format!("cannot negate {other:?}"))),
        },
    }
}

/// `v [NOT] LIKE p`.
pub(crate) fn eval_like(v: Value, p: Value, negated: bool) -> Result<Value, EngineError> {
    match (v, p) {
        (Value::Null, _) | (_, Value::Null) => Ok(Value::Null),
        (Value::Str(s), Value::Str(pat)) => Ok(truth(like_match(&s, &pat) ^ negated)),
        (v, p) => Err(EngineError::new(format!(
            "LIKE requires strings, got {v:?} LIKE {p:?}"
        ))),
    }
}

/// `v [NOT] BETWEEN lo AND hi`.
pub(crate) fn eval_between(v: &Value, lo: &Value, hi: &Value, negated: bool) -> Value {
    if v.is_null() || lo.is_null() || hi.is_null() {
        return Value::Null;
    }
    truth((v >= lo && v <= hi) ^ negated)
}

/// `EXTRACT(field FROM v)`.
pub(crate) fn eval_extract(field: DateField, v: Value) -> Result<Value, EngineError> {
    match v {
        Value::Null => Ok(Value::Null),
        Value::Date(d) => Ok(Value::Int(match field {
            DateField::Year => date::year_of(d) as i64,
            DateField::Month => date::month_of(d) as i64,
            DateField::Day => date::day_of(d) as i64,
        })),
        other => Err(EngineError::new(format!("EXTRACT from non-date {other:?}"))),
    }
}

/// Converts a literal AST node into a runtime value.
pub fn literal_value(l: &Literal) -> Result<Value, EngineError> {
    match l {
        Literal::Number(s) => {
            if let Ok(i) = s.parse::<i64>() {
                Ok(Value::Int(i))
            } else {
                s.parse::<f64>()
                    .map(Value::Float)
                    .map_err(|_| EngineError::new(format!("bad numeric literal {s}")))
            }
        }
        Literal::String(s) => Ok(Value::Str(s.clone())),
        Literal::Date(s) => date::parse_date(s)
            .map(Value::Date)
            .ok_or_else(|| EngineError::new(format!("bad date literal {s}"))),
        Literal::Interval { value, unit } => {
            // Represent intervals as (days, months) packed into an Int pair:
            // days in the low 32 bits, months in the high 32 bits.
            let n: i64 = value
                .parse()
                .map_err(|_| EngineError::new(format!("bad interval value {value}")))?;
            let (days, months) = match unit {
                IntervalUnit::Day => (n, 0i64),
                IntervalUnit::Month => (0, n),
                IntervalUnit::Year => (0, n * 12),
            };
            Ok(Value::Int((months << 32) | (days & 0xffff_ffff)))
        }
        Literal::Null => Ok(Value::Null),
        Literal::Boolean(b) => Ok(Value::Int(*b as i64)),
    }
}

/// True if an expression is an interval literal (needed to give `date + X`
/// interval semantics).
fn interval_parts(v: i64) -> (i64, i64) {
    let days = (v & 0xffff_ffff) as i32 as i64;
    let months = v >> 32;
    (days, months)
}

pub(crate) fn eval_binop(l: &Value, op: BinaryOp, r: &Value) -> Result<Value, EngineError> {
    use BinaryOp::*;
    if matches!(op, And | Or) {
        let lb = l.as_bool();
        let rb = r.as_bool();
        return Ok(match (op, lb, rb) {
            (And, Some(false), _) | (And, _, Some(false)) => Value::Int(0),
            (And, Some(true), Some(true)) => Value::Int(1),
            (Or, Some(true), _) | (Or, _, Some(true)) => Value::Int(1),
            (Or, Some(false), Some(false)) => Value::Int(0),
            _ => Value::Null,
        });
    }
    if l.is_null() || r.is_null() {
        return Ok(Value::Null);
    }
    if op.is_comparison() {
        let ord = l.compare(r);
        return Ok(Value::Int(comparison_holds(op, ord) as i64));
    }
    // Arithmetic.
    match (l, r) {
        // Date arithmetic with intervals and day counts.
        (Value::Date(d), Value::Int(i)) => {
            let (days, months) = interval_parts(*i);
            let base = if months != 0 {
                date::add_months(*d, months as i32)
            } else {
                *d
            };
            match op {
                Add => Ok(Value::Date(base + days as i32)),
                Sub => {
                    let base = if months != 0 {
                        date::add_months(*d, -(months as i32))
                    } else {
                        *d
                    };
                    Ok(Value::Date(base - days as i32))
                }
                _ => Err(EngineError::new("unsupported date arithmetic")),
            }
        }
        (Value::Date(a), Value::Date(b)) if op == Sub => Ok(Value::Int((*a - *b) as i64)),
        (Value::Int(a), Value::Int(b)) => match op {
            Add => Ok(Value::Int(a.wrapping_add(*b))),
            Sub => Ok(Value::Int(a.wrapping_sub(*b))),
            Mul => Ok(Value::Int(a.wrapping_mul(*b))),
            Div => {
                if *b == 0 {
                    Ok(Value::Null)
                } else {
                    // Integer division would silently change TPC-H ratio
                    // results; use float division like the plaintext baseline.
                    Ok(Value::Float(*a as f64 / *b as f64))
                }
            }
            Mod => {
                if *b == 0 {
                    Ok(Value::Null)
                } else {
                    Ok(Value::Int(a % b))
                }
            }
            _ => unreachable!(),
        },
        _ => {
            let (a, b) = (
                l.as_float()
                    .ok_or_else(|| EngineError::new(format!("non-numeric operand {l:?}")))?,
                r.as_float()
                    .ok_or_else(|| EngineError::new(format!("non-numeric operand {r:?}")))?,
            );
            let out = match op {
                Add => a + b,
                Sub => a - b,
                Mul => a * b,
                Div => {
                    if b == 0.0 {
                        return Ok(Value::Null);
                    }
                    a / b
                }
                Mod => a % b,
                _ => unreachable!(),
            };
            Ok(Value::Float(out))
        }
    }
}

/// A scalar function applied to its evaluated arguments.
pub(crate) fn apply_function(name: &str, vals: &[Value]) -> Result<Value, EngineError> {
    match name {
        "substring" | "substr" => {
            let s = vals
                .first()
                .and_then(|v| v.as_str())
                .ok_or_else(|| EngineError::new("substring: first argument must be a string"))?;
            let start = vals.get(1).and_then(Value::as_int).unwrap_or(1).max(1) as usize;
            let len = vals.get(2).and_then(Value::as_int);
            let chars: Vec<char> = s.chars().collect();
            let begin = (start - 1).min(chars.len());
            let end = match len {
                Some(l) => (begin + l.max(0) as usize).min(chars.len()),
                None => chars.len(),
            };
            Ok(Value::Str(chars[begin..end].iter().collect()))
        }
        "year" => match vals.first() {
            Some(Value::Date(d)) => Ok(Value::Int(date::year_of(*d) as i64)),
            _ => Err(EngineError::new("year() expects a date")),
        },
        // search_match(search_ciphertext, hex_token): server-side evaluation of
        // an encrypted LIKE '%kw%' predicate.
        "search_match" => {
            let ct = vals
                .first()
                .and_then(Value::as_bytes)
                .ok_or_else(|| EngineError::new("search_match: first arg must be bytes"))?;
            let token_hex = vals
                .get(1)
                .and_then(|v| v.as_str())
                .ok_or_else(|| EngineError::new("search_match: second arg must be a hex token"))?;
            let token = decode_hex(token_hex)
                .ok_or_else(|| EngineError::new("search_match: bad hex token"))?;
            if token.len() != 16 {
                return Err(EngineError::new("search_match: token must be 16 bytes"));
            }
            let mut t = [0u8; 16];
            t.copy_from_slice(&token);
            let ct = monomi_crypto::SearchCiphertext::from_bytes(ct);
            Ok(Value::Int(ct.matches(&monomi_crypto::SearchToken(t)) as i64))
        }
        // hex_bytes('deadbeef'): literal byte strings in rewritten queries.
        "hex_bytes" => {
            let s = vals
                .first()
                .and_then(|v| v.as_str())
                .ok_or_else(|| EngineError::new("hex_bytes expects a hex string"))?;
            decode_hex(s)
                .map(Value::Bytes)
                .ok_or_else(|| EngineError::new("hex_bytes: invalid hex"))
        }
        other => Err(EngineError::new(format!("unknown function {other}"))),
    }
}

/// A single-table predicate compiled for vectorized evaluation over the
/// column slices of a [`ColumnBatch`](crate::storage::ColumnBatch).
///
/// Compilation recognizes the conjunct shapes that dominate analytical WHERE
/// clauses (column-vs-constant comparisons, BETWEEN, IN lists, LIKE, IS NULL,
/// and AND/OR combinations of those) and constant-folds the literal side once,
/// so the per-row work is a borrowed `Value` comparison — no cloning, no
/// re-evaluation of the constant expression. Anything else falls back to
/// [`ColumnarPredicate::General`], which still avoids materializing rows: it
/// clones only the columns the predicate references into a reused scratch row
/// and evaluates a [`BoundExpr`] bound to that row's positions.
///
/// Selection semantics are SQL's WHERE semantics: a row is selected iff the
/// predicate evaluates to *true* (NULL and false both drop the row). AND/OR
/// over "is-true" bits agrees with three-valued logic for this purpose because
/// `x AND y` / `x OR y` is true iff the corresponding boolean combination of
/// "is true" holds; predicates whose NULL-ness matters deeper down (e.g. under
/// NOT) are compiled as `General` and evaluated with full 3VL.
#[derive(Clone, Debug)]
pub enum ColumnarPredicate {
    /// Every sub-predicate must select the row; applied as successive
    /// narrowing passes over the selection vector.
    And(Vec<ColumnarPredicate>),
    /// Any sub-predicate may select the row; branch selections are unioned.
    Or(Vec<ColumnarPredicate>),
    /// `column <op> constant` with a pre-folded constant.
    CmpConst {
        col: usize,
        op: BinaryOp,
        value: Value,
    },
    /// `column [NOT] BETWEEN low AND high` with pre-folded bounds.
    BetweenConst {
        col: usize,
        low: Value,
        high: Value,
        negated: bool,
    },
    /// `column [NOT] IN (constants…)`.
    InListConst {
        col: usize,
        values: Vec<Value>,
        negated: bool,
    },
    /// `column [NOT] LIKE 'pattern'`.
    LikeConst {
        col: usize,
        pattern: String,
        negated: bool,
    },
    /// `column IS [NOT] NULL`.
    IsNullTest { col: usize, negated: bool },
    /// A predicate folded to a constant truth value at compile time.
    Const(bool),
    /// Fallback: row-at-a-time evaluation of `expr`, bound to a scratch row
    /// holding only the referenced columns: position `i` is batch column
    /// `referenced[i]`.
    General {
        expr: BoundExpr,
        referenced: Vec<usize>,
    },
}

/// Compiles a single-relation predicate for vectorized evaluation.
///
/// The caller must guarantee the predicate contains no subqueries or
/// aggregates and that every column reference resolves in `schema` (the
/// executor's scan path checks this before compiling). `:n` reads
/// `params`. Only sub-expressions with no column reference are folded.
pub fn compile_predicate(expr: &Expr, schema: &RowSchema, params: &[Value]) -> ColumnarPredicate {
    let fold = |e: &Expr| fold_constant(e, params);
    let as_column = |e: &Expr| -> Option<usize> {
        match e {
            Expr::Column(c) => schema.resolve(c),
            _ => None,
        }
    };
    let general = || {
        let mut referenced: Vec<usize> = expr
            .column_refs()
            .iter()
            .filter_map(|c| schema.resolve(c))
            .collect();
        referenced.sort_unstable();
        referenced.dedup();
        let resolve = |e: &Expr| match e {
            Expr::Column(c) => schema
                .resolve(c)
                .and_then(|col| referenced.iter().position(|&r| r == col))
                .map(BoundExpr::Column),
            Expr::Param(n) => params.get(n - 1).cloned().map(BoundExpr::Const),
            _ => None,
        };
        ColumnarPredicate::General {
            expr: BoundExpr::bind(expr, &resolve, &|_| None),
            referenced,
        }
    };

    match expr {
        Expr::BinaryOp {
            left,
            op: BinaryOp::And,
            right,
        } => ColumnarPredicate::And(vec![
            compile_predicate(left, schema, params),
            compile_predicate(right, schema, params),
        ]),
        Expr::BinaryOp {
            left,
            op: BinaryOp::Or,
            right,
        } => ColumnarPredicate::Or(vec![
            compile_predicate(left, schema, params),
            compile_predicate(right, schema, params),
        ]),
        Expr::BinaryOp { left, op, right } if op.is_comparison() => {
            // Orient as column <op> constant, flipping the operator if the
            // column is on the right.
            let oriented = match (as_column(left), as_column(right)) {
                (Some(col), None) => fold(right).map(|v| (col, *op, v)),
                (None, Some(col)) => fold(left).map(|v| (col, flip_comparison(*op), v)),
                _ => None,
            };
            match oriented {
                // Comparing against NULL is never true.
                Some((_, _, Value::Null)) => ColumnarPredicate::Const(false),
                Some((col, op, value)) => ColumnarPredicate::CmpConst { col, op, value },
                None => general(),
            }
        }
        Expr::Between {
            expr: target,
            low,
            high,
            negated,
        } => match (as_column(target), fold(low), fold(high)) {
            (Some(_), Some(Value::Null), _) | (Some(_), _, Some(Value::Null)) => {
                ColumnarPredicate::Const(false)
            }
            (Some(col), Some(low), Some(high)) => ColumnarPredicate::BetweenConst {
                col,
                low,
                high,
                negated: *negated,
            },
            _ => general(),
        },
        Expr::InList {
            expr: target,
            list,
            negated,
        } => {
            let folded: Option<Vec<Value>> = list.iter().map(fold).collect();
            match (as_column(target), folded) {
                (Some(col), Some(values)) => ColumnarPredicate::InListConst {
                    col,
                    values,
                    negated: *negated,
                },
                _ => general(),
            }
        }
        Expr::Like {
            expr: target,
            pattern,
            negated,
        } => match (as_column(target), fold(pattern)) {
            (Some(_), Some(Value::Null)) => ColumnarPredicate::Const(false),
            (Some(col), Some(Value::Str(pattern))) => ColumnarPredicate::LikeConst {
                col,
                pattern,
                negated: *negated,
            },
            _ => general(),
        },
        Expr::IsNull {
            expr: target,
            negated,
        } => match as_column(target) {
            Some(col) => ColumnarPredicate::IsNullTest {
                col,
                negated: *negated,
            },
            None => general(),
        },
        _ => match fold(expr) {
            Some(v) => ColumnarPredicate::Const(v.as_bool().unwrap_or(false)),
            None => general(),
        },
    }
}

/// Mirror of a comparison operator across `=` (for `const <op> column`).
fn flip_comparison(op: BinaryOp) -> BinaryOp {
    match op {
        BinaryOp::Lt => BinaryOp::Gt,
        BinaryOp::LtEq => BinaryOp::GtEq,
        BinaryOp::Gt => BinaryOp::Lt,
        BinaryOp::GtEq => BinaryOp::LtEq,
        other => other,
    }
}

/// True iff `ord` satisfies the comparison operator.
fn comparison_holds(op: BinaryOp, ord: std::cmp::Ordering) -> bool {
    use std::cmp::Ordering;
    match op {
        BinaryOp::Eq => ord == Ordering::Equal,
        BinaryOp::NotEq => ord != Ordering::Equal,
        BinaryOp::Lt => ord == Ordering::Less,
        BinaryOp::LtEq => ord != Ordering::Greater,
        BinaryOp::Gt => ord == Ordering::Greater,
        BinaryOp::GtEq => ord != Ordering::Less,
        _ => false,
    }
}

/// Applies a compiled predicate over a column batch, narrowing `input` to the
/// rows on which the predicate is true. Rows are never materialized; the
/// `General` fallback clones only the referenced columns into a scratch row.
pub fn apply_predicate(
    pred: &ColumnarPredicate,
    batch: &crate::storage::ColumnBatch<'_>,
    input: &crate::storage::SelectionVector,
) -> Result<crate::storage::SelectionVector, EngineError> {
    use crate::storage::SelectionVector;
    match pred {
        ColumnarPredicate::And(parts) => {
            let mut sel = input.clone();
            for p in parts {
                if sel.is_empty() {
                    break;
                }
                sel = apply_predicate(p, batch, &sel)?;
            }
            Ok(sel)
        }
        ColumnarPredicate::Or(parts) => {
            let mut merged = SelectionVector::empty();
            for p in parts {
                let sel = apply_predicate(p, batch, input)?;
                merged = union_selections(&merged, &sel);
            }
            Ok(merged)
        }
        ColumnarPredicate::CmpConst { col, op, value } => {
            let column = batch.column(*col);
            let mut out = SelectionVector::empty();
            for ridx in input.iter() {
                let v = &column[ridx];
                if !v.is_null() && comparison_holds(*op, v.compare(value)) {
                    out.push(ridx);
                }
            }
            Ok(out)
        }
        ColumnarPredicate::BetweenConst {
            col,
            low,
            high,
            negated,
        } => {
            let column = batch.column(*col);
            let mut out = SelectionVector::empty();
            for ridx in input.iter() {
                let v = &column[ridx];
                if v.is_null() {
                    continue;
                }
                let within = v >= low && v <= high;
                if within ^ negated {
                    out.push(ridx);
                }
            }
            Ok(out)
        }
        ColumnarPredicate::InListConst {
            col,
            values,
            negated,
        } => {
            let column = batch.column(*col);
            let mut out = SelectionVector::empty();
            for ridx in input.iter() {
                let v = &column[ridx];
                if v.is_null() {
                    continue;
                }
                let found = values.iter().any(|item| v.equals(item));
                if found ^ negated {
                    out.push(ridx);
                }
            }
            Ok(out)
        }
        ColumnarPredicate::LikeConst {
            col,
            pattern,
            negated,
        } => {
            let column = batch.column(*col);
            let mut out = SelectionVector::empty();
            for ridx in input.iter() {
                match &column[ridx] {
                    Value::Null => {}
                    Value::Str(s) => {
                        if like_match(s, pattern) ^ negated {
                            out.push(ridx);
                        }
                    }
                    other => {
                        return Err(EngineError::new(format!(
                            "LIKE requires strings, got {other:?} LIKE Str({pattern:?})"
                        )))
                    }
                }
            }
            Ok(out)
        }
        ColumnarPredicate::IsNullTest { col, negated } => {
            let column = batch.column(*col);
            let mut out = SelectionVector::empty();
            for ridx in input.iter() {
                if column[ridx].is_null() ^ negated {
                    out.push(ridx);
                }
            }
            Ok(out)
        }
        ColumnarPredicate::Const(true) => Ok(input.clone()),
        ColumnarPredicate::Const(false) => Ok(SelectionVector::empty()),
        ColumnarPredicate::General { expr, referenced } => {
            let mut scratch = vec![Value::Null; referenced.len()];
            let mut out = SelectionVector::empty();
            for ridx in input.iter() {
                for (slot, &c) in scratch.iter_mut().zip(referenced) {
                    *slot = batch.column(c)[ridx].clone();
                }
                if expr
                    .eval(&scratch, &NoSubqueries)?
                    .as_bool()
                    .unwrap_or(false)
                {
                    out.push(ridx);
                }
            }
            Ok(out)
        }
    }
}

/// Zone-map pruning: decides whether a segment whose per-column statistics
/// are `zones` (over `rows` rows) could contain *any* row satisfying `pred`.
/// Returning `false` lets the scan skip the segment without decoding it;
/// returning `true` is always safe.
///
/// The decision mirrors [`apply_predicate`]'s semantics exactly: comparisons
/// use [`Value::compare`]'s total order — the same order the zone maps'
/// min/max were computed under at load time — NULL rows never satisfy a
/// comparison, and anything the fast paths cannot reason about
/// (`General`) conservatively answers `true`.
pub fn zone_may_match(
    pred: &ColumnarPredicate,
    zones: &[monomi_store::ColumnZone],
    rows: u64,
) -> bool {
    if rows == 0 {
        return false;
    }
    let non_null = |col: usize| rows.saturating_sub(zones[col].null_count);
    let bounds = |col: usize| zones[col].min.as_ref().zip(zones[col].max.as_ref());
    match pred {
        ColumnarPredicate::And(parts) => parts.iter().all(|p| zone_may_match(p, zones, rows)),
        ColumnarPredicate::Or(parts) => parts.iter().any(|p| zone_may_match(p, zones, rows)),
        ColumnarPredicate::Const(b) => *b,
        ColumnarPredicate::CmpConst { col, op, value } => {
            // All-NULL column: no row can satisfy any comparison.
            let Some((min, max)) = bounds(*col) else {
                return false;
            };
            match op {
                BinaryOp::Eq => min <= value && value <= max,
                // Only an all-equal segment rules NotEq out entirely.
                BinaryOp::NotEq => !(min == max && min == value),
                BinaryOp::Lt => min < value,
                BinaryOp::LtEq => min <= value,
                BinaryOp::Gt => max > value,
                BinaryOp::GtEq => max >= value,
                _ => true,
            }
        }
        ColumnarPredicate::BetweenConst {
            col,
            low,
            high,
            negated,
        } => {
            let Some((min, max)) = bounds(*col) else {
                return false;
            };
            if *negated {
                // Matches values outside [low, high]: impossible only when
                // the whole segment sits inside the range.
                !(low <= min && max <= high)
            } else {
                !(max < low || min > high)
            }
        }
        ColumnarPredicate::InListConst {
            col,
            values,
            negated,
        } => {
            let Some((min, max)) = bounds(*col) else {
                return false;
            };
            if *negated {
                // `NOT IN` is never *true* when the list has a NULL item
                // (three-valued logic: `x != NULL` is NULL, and a single
                // NULL conjunct poisons the whole AND); without one, only an
                // all-equal segment whose value appears in the list is ruled
                // out entirely.
                if values.iter().any(Value::is_null) {
                    false
                } else {
                    !(min == max && values.iter().any(|v| v == min))
                }
            } else {
                // NULL list items never equal a non-null value.
                values.iter().any(|v| !v.is_null() && min <= v && v <= max)
            }
        }
        ColumnarPredicate::LikeConst { col, .. } => non_null(*col) > 0,
        ColumnarPredicate::IsNullTest { col, negated } => {
            if *negated {
                non_null(*col) > 0
            } else {
                zones[*col].null_count > 0
            }
        }
        ColumnarPredicate::General { .. } => true,
    }
}

/// Merges two ascending selection vectors into their sorted union.
fn union_selections(
    a: &crate::storage::SelectionVector,
    b: &crate::storage::SelectionVector,
) -> crate::storage::SelectionVector {
    let (xs, ys) = (a.indices(), b.indices());
    let mut out = Vec::with_capacity(xs.len() + ys.len());
    let (mut i, mut j) = (0, 0);
    while i < xs.len() && j < ys.len() {
        match xs[i].cmp(&ys[j]) {
            std::cmp::Ordering::Less => {
                out.push(xs[i]);
                i += 1;
            }
            std::cmp::Ordering::Greater => {
                out.push(ys[j]);
                j += 1;
            }
            std::cmp::Ordering::Equal => {
                out.push(xs[i]);
                i += 1;
                j += 1;
            }
        }
    }
    out.extend_from_slice(&xs[i..]);
    out.extend_from_slice(&ys[j..]);
    crate::storage::SelectionVector::from_indices(out)
}

/// SQL LIKE matching with `%` and `_` wildcards.
pub fn like_match(s: &str, pattern: &str) -> bool {
    fn rec(s: &[char], p: &[char]) -> bool {
        if p.is_empty() {
            return s.is_empty();
        }
        match p[0] {
            '%' => {
                // Match zero or more characters.
                (0..=s.len()).any(|k| rec(&s[k..], &p[1..]))
            }
            '_' => !s.is_empty() && rec(&s[1..], &p[1..]),
            c => !s.is_empty() && s[0] == c && rec(&s[1..], &p[1..]),
        }
    }
    let s: Vec<char> = s.chars().collect();
    let p: Vec<char> = pattern.chars().collect();
    rec(&s, &p)
}

/// Decodes a lowercase/uppercase hex string.
pub fn decode_hex(s: &str) -> Option<Vec<u8>> {
    if !s.len().is_multiple_of(2) {
        return None;
    }
    (0..s.len())
        .step_by(2)
        .map(|i| u8::from_str_radix(&s[i..i + 2], 16).ok())
        .collect()
}

/// Encodes bytes as lowercase hex.
pub fn encode_hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use monomi_sql::parse_query;

    fn schema() -> RowSchema {
        RowSchema::new(vec![
            (Some("t".into()), "a".into()),
            (Some("t".into()), "b".into()),
            (Some("t".into()), "ship".into()),
            (Some("t".into()), "d".into()),
        ])
    }

    fn row() -> Vec<Value> {
        vec![
            Value::Int(10),
            Value::Int(4),
            Value::Str("AIR".into()),
            Value::Date(date::parse_date("1995-09-17").unwrap()),
        ]
    }

    fn eval_str(expr_sql: &str) -> Value {
        // Parse by wrapping into a SELECT.
        let q = parse_query(&format!("SELECT {expr_sql} FROM t")).unwrap();
        eval(
            &q.projections[0].expr,
            &schema(),
            &row(),
            &[Value::Int(7)],
            None,
        )
        .unwrap()
    }

    #[test]
    fn arithmetic_and_precedence() {
        assert_eq!(eval_str("a + b * 2"), Value::Int(18));
        assert_eq!(eval_str("(a + b) * 2"), Value::Int(28));
        assert_eq!(eval_str("a / b"), Value::Float(2.5));
        assert_eq!(eval_str("a % b"), Value::Int(2));
        assert_eq!(eval_str("-a + 3"), Value::Int(-7));
    }

    #[test]
    fn comparisons_and_boolean_logic() {
        assert_eq!(eval_str("a > b"), Value::Int(1));
        assert_eq!(eval_str("a = 10 AND b = 4"), Value::Int(1));
        assert_eq!(eval_str("a < b OR b = 4"), Value::Int(1));
        assert_eq!(eval_str("NOT (a = 10)"), Value::Int(0));
        assert_eq!(eval_str("a BETWEEN 5 AND 15"), Value::Int(1));
        assert_eq!(eval_str("a BETWEEN 11 AND 15"), Value::Int(0));
    }

    #[test]
    fn null_propagation() {
        assert_eq!(eval_str("NULL + 1"), Value::Null);
        assert_eq!(eval_str("a > NULL"), Value::Null);
        assert_eq!(eval_str("NULL IS NULL"), Value::Int(1));
        assert_eq!(eval_str("a IS NOT NULL"), Value::Int(1));
        // AND short-circuits on false even with NULL.
        assert_eq!(eval_str("1 = 0 AND NULL"), Value::Int(0));
    }

    #[test]
    fn strings_like_in_case() {
        assert_eq!(eval_str("ship LIKE 'A%'"), Value::Int(1));
        assert_eq!(eval_str("ship LIKE '%I_'"), Value::Int(1));
        assert_eq!(eval_str("ship NOT LIKE 'R%'"), Value::Int(1));
        assert_eq!(eval_str("ship IN ('AIR', 'RAIL')"), Value::Int(1));
        assert_eq!(eval_str("ship IN ('TRUCK', 'RAIL')"), Value::Int(0));
        assert_eq!(
            eval_str("CASE WHEN ship = 'AIR' THEN 1 ELSE 2 END"),
            Value::Int(1)
        );
        assert_eq!(
            eval_str("CASE ship WHEN 'RAIL' THEN 1 WHEN 'AIR' THEN 5 END"),
            Value::Int(5)
        );
        assert_eq!(eval_str("substring(ship, 1, 2)"), Value::Str("AI".into()));
    }

    fn zone(min: Option<Value>, max: Option<Value>, null_count: u64) -> monomi_store::ColumnZone {
        monomi_store::ColumnZone {
            null_count,
            logical_bytes: 0,
            min,
            max,
        }
    }

    #[test]
    fn zone_pruning_in_list() {
        let zones = [zone(Some(Value::Int(10)), Some(Value::Int(20)), 0)];
        let in_list = |values: Vec<Value>, negated: bool| ColumnarPredicate::InListConst {
            col: 0,
            values,
            negated,
        };
        // A list value inside [min, max] keeps the segment.
        assert!(zone_may_match(
            &in_list(vec![Value::Int(1), Value::Int(15)], false),
            &zones,
            100
        ));
        // Every list value outside the range prunes it.
        assert!(!zone_may_match(
            &in_list(vec![Value::Int(1), Value::Int(30)], false),
            &zones,
            100
        ));
        // NULL list items never equal anything; alone they prune too.
        assert!(!zone_may_match(
            &in_list(vec![Value::Null, Value::Int(30)], false),
            &zones,
            100
        ));
        assert!(!zone_may_match(
            &in_list(vec![Value::Null], false),
            &zones,
            100
        ));
        // An all-NULL column cannot satisfy IN at all.
        assert!(!zone_may_match(
            &in_list(vec![Value::Int(15)], false),
            &[zone(None, None, 100)],
            100
        ));
    }

    #[test]
    fn zone_pruning_not_in() {
        let spread = [zone(Some(Value::Int(10)), Some(Value::Int(20)), 0)];
        let single = [zone(Some(Value::Int(7)), Some(Value::Int(7)), 0)];
        let in_list = |values: Vec<Value>| ColumnarPredicate::InListConst {
            col: 0,
            values,
            negated: true,
        };
        // A NULL list item makes NOT IN unsatisfiable (3VL): prune.
        assert!(!zone_may_match(
            &in_list(vec![Value::Null, Value::Int(1)]),
            &spread,
            100
        ));
        // All-equal segment whose value is listed: prune.
        assert!(!zone_may_match(&in_list(vec![Value::Int(7)]), &single, 100));
        // All-equal segment whose value is NOT listed: keep.
        assert!(zone_may_match(&in_list(vec![Value::Int(8)]), &single, 100));
        // A spread segment may always contain unlisted values: keep.
        assert!(zone_may_match(&in_list(vec![Value::Int(10)]), &spread, 100));
        // All-NULL column never satisfies NOT IN either.
        assert!(!zone_may_match(
            &in_list(vec![Value::Int(1)]),
            &[zone(None, None, 100)],
            100
        ));
    }

    #[test]
    fn zone_pruning_null_tests() {
        let no_nulls = [zone(Some(Value::Int(1)), Some(Value::Int(9)), 0)];
        let some_nulls = [zone(Some(Value::Int(1)), Some(Value::Int(9)), 3)];
        let all_nulls = [zone(None, None, 100)];
        let is_null = ColumnarPredicate::IsNullTest {
            col: 0,
            negated: false,
        };
        let is_not_null = ColumnarPredicate::IsNullTest {
            col: 0,
            negated: true,
        };
        // IS NULL prunes exactly when the zone counted zero NULLs.
        assert!(!zone_may_match(&is_null, &no_nulls, 100));
        assert!(zone_may_match(&is_null, &some_nulls, 100));
        assert!(zone_may_match(&is_null, &all_nulls, 100));
        // IS NOT NULL prunes exactly when every row is NULL.
        assert!(zone_may_match(&is_not_null, &no_nulls, 100));
        assert!(zone_may_match(&is_not_null, &some_nulls, 100));
        assert!(!zone_may_match(&is_not_null, &all_nulls, 100));
        // Empty segments never match anything.
        assert!(!zone_may_match(&is_null, &all_nulls, 0));
    }

    #[test]
    fn date_arithmetic_and_extract() {
        assert_eq!(eval_str("EXTRACT(YEAR FROM d)"), Value::Int(1995));
        assert_eq!(eval_str("EXTRACT(MONTH FROM d)"), Value::Int(9));
        assert_eq!(eval_str("d < DATE '1996-01-01'"), Value::Int(1));
        assert_eq!(
            eval_str("d + INTERVAL '3' MONTH >= DATE '1995-12-17'"),
            Value::Int(1)
        );
        assert_eq!(
            eval_str("DATE '1995-09-20' - 3"),
            Value::Date(date::parse_date("1995-09-17").unwrap())
        );
    }

    #[test]
    fn params_resolve() {
        assert_eq!(eval_str(":1 + 1"), Value::Int(8));
    }

    #[test]
    fn like_matcher_edge_cases() {
        assert!(like_match("", ""));
        assert!(like_match("", "%"));
        assert!(!like_match("", "_"));
        assert!(like_match("promo burnished", "%promo%"));
        assert!(!like_match("standard", "%promo%"));
        assert!(like_match("MEDIUM POLISHED BRASS", "MEDIUM POLISHED%"));
    }

    #[test]
    fn hex_helpers() {
        assert_eq!(decode_hex("00ff10"), Some(vec![0, 255, 16]));
        assert_eq!(decode_hex("xyz"), None);
        assert_eq!(encode_hex(&[0, 255, 16]), "00ff10");
    }

    mod columnar {
        use super::super::*;
        use crate::schema::{ColumnDef, ColumnType, TableSchema};
        use crate::storage::{SelectionVector, Table};
        use monomi_sql::parse_query;

        fn table() -> Table {
            let schema = TableSchema::new(
                "t",
                vec![
                    ColumnDef::new("a", ColumnType::Int),
                    ColumnDef::new("ship", ColumnType::Str),
                    ColumnDef::new("d", ColumnType::Date),
                ],
            );
            let mut t = Table::new(schema);
            for i in 0..100i64 {
                t.insert(vec![
                    if i == 7 { Value::Null } else { Value::Int(i) },
                    Value::Str(if i % 3 == 0 { "AIR" } else { "RAIL" }.into()),
                    Value::Date(i as i32 * 10),
                ])
                .unwrap();
            }
            t
        }

        fn row_schema() -> RowSchema {
            RowSchema::new(vec![
                (Some("t".into()), "a".into()),
                (Some("t".into()), "ship".into()),
                (Some("t".into()), "d".into()),
            ])
        }

        fn select(where_sql: &str, params: &[Value]) -> Vec<usize> {
            let q = parse_query(&format!("SELECT a FROM t WHERE {where_sql}")).unwrap();
            let pred = q.where_clause.unwrap();
            let compiled = compile_predicate(&pred, &row_schema(), params);
            let t = table();
            let sel = apply_predicate(
                &compiled,
                &t.tail_batch(),
                &SelectionVector::all(t.row_count()),
            )
            .unwrap();
            sel.iter().collect()
        }

        /// Reference: the old row-materializing filter.
        fn select_by_rows(where_sql: &str, params: &[Value]) -> Vec<usize> {
            let q = parse_query(&format!("SELECT a FROM t WHERE {where_sql}")).unwrap();
            let pred = q.where_clause.unwrap();
            let schema = row_schema();
            let t = table();
            (0..t.row_count())
                .filter(|&i| {
                    eval(&pred, &schema, &t.row(i), params, None)
                        .unwrap()
                        .as_bool()
                        .unwrap_or(false)
                })
                .collect()
        }

        #[test]
        fn fast_paths_compile_away_from_general() {
            let schema = row_schema();
            let compiled_of = |sql: &str| {
                let q = parse_query(&format!("SELECT a FROM t WHERE {sql}")).unwrap();
                compile_predicate(&q.where_clause.unwrap(), &schema, &[Value::Int(50)])
            };
            assert!(matches!(
                compiled_of("a < 10 + 2"),
                ColumnarPredicate::CmpConst { .. }
            ));
            assert!(matches!(
                compiled_of(":1 <= a"),
                ColumnarPredicate::CmpConst {
                    op: BinaryOp::GtEq,
                    ..
                }
            ));
            assert!(matches!(
                compiled_of("a BETWEEN 2 AND 4"),
                ColumnarPredicate::BetweenConst { .. }
            ));
            assert!(matches!(
                compiled_of("ship IN ('AIR', 'TRUCK')"),
                ColumnarPredicate::InListConst { .. }
            ));
            assert!(matches!(
                compiled_of("ship LIKE 'A%'"),
                ColumnarPredicate::LikeConst { .. }
            ));
            assert!(matches!(
                compiled_of("a IS NOT NULL"),
                ColumnarPredicate::IsNullTest { negated: true, .. }
            ));
            assert!(matches!(
                compiled_of("a = NULL"),
                ColumnarPredicate::Const(false)
            ));
            assert!(matches!(
                compiled_of("a < 10 AND ship = 'AIR'"),
                ColumnarPredicate::And(_)
            ));
            // Computed column side falls back to a bound expression.
            assert!(matches!(
                compiled_of("a + 1 < 10"),
                ColumnarPredicate::General { .. }
            ));
        }

        #[test]
        fn columnar_selection_matches_row_at_a_time_filtering() {
            let cases = [
                "a < 10",
                "a >= 90",
                "10 > a",
                "a = 7",     // row 7 is NULL: no match
                "a <> 7",    // NULL row dropped too
                "a IS NULL", // only row 7
                "a IS NOT NULL",
                "a BETWEEN 20 AND 25",
                "a NOT BETWEEN 10 AND 89",
                "ship IN ('AIR', 'TRUCK')",
                "ship NOT IN ('AIR', 'TRUCK')",
                "ship LIKE 'R%'",
                "ship NOT LIKE '%I%'",
                "a < 5 OR a > 95",
                "a < 20 AND ship = 'AIR'",
                "(a < 10 OR a > 90) AND ship = 'RAIL'",
                "d < DATE '1970-04-11'",
                "a + 1 < 10",
                "EXTRACT(YEAR FROM d) = 1971",
                "1 = 1",
                "1 = 0",
                "NOT (a < 50)",
                "a < :1",
            ];
            for case in cases {
                assert_eq!(
                    select(case, &[Value::Int(42)]),
                    select_by_rows(case, &[Value::Int(42)]),
                    "vectorized and row-at-a-time scans disagree on {case}"
                );
            }
        }

        #[test]
        fn like_on_non_string_column_errors_like_the_row_path() {
            let q = parse_query("SELECT a FROM t WHERE a LIKE 'A%'").unwrap();
            let compiled = compile_predicate(&q.where_clause.unwrap(), &row_schema(), &[]);
            let t = table();
            let err = apply_predicate(
                &compiled,
                &t.tail_batch(),
                &SelectionVector::all(t.row_count()),
            );
            assert!(err.is_err());
        }

        /// A random table of four columns (nullable int, int, categorical
        /// string, date) in a storeless database: the scan reads its tail
        /// batch, the memory columns the direct check borrows.
        fn random_table(rows: &[(i64, i64, u8, i16)]) -> crate::Database {
            let mut db = crate::Database::in_memory();
            db.create_table(TableSchema::new(
                "t",
                vec![
                    ColumnDef::new("a", ColumnType::Int),
                    ColumnDef::new("b", ColumnType::Int),
                    ColumnDef::new("s", ColumnType::Str),
                    ColumnDef::new("d", ColumnType::Date),
                ],
            ));
            let cats = ["AIR", "RAIL", "TRUCK", "SHIP"];
            for &(a, b, c, d) in rows {
                db.insert(
                    "t",
                    vec![
                        // a % 7 == 0 injects NULLs so predicates see them.
                        if a % 7 == 0 {
                            Value::Null
                        } else {
                            Value::Int(a)
                        },
                        Value::Int(b),
                        Value::Str(cats[(c % 4) as usize].into()),
                        Value::Date(d as i32),
                    ],
                )
                .expect("insert");
            }
            db
        }

        /// Predicate templates stitched together by the generator.
        fn predicate_sql(template: u8, c1: i64, c2: i64) -> String {
            let (lo, hi) = (c1.min(c2), c1.max(c2));
            match template % 12 {
                0 => format!("a < {c1}"),
                1 => format!("a = {c1}"),
                2 => format!("{c1} >= b"),
                3 => format!("b BETWEEN {lo} AND {hi}"),
                4 => format!("b NOT BETWEEN {lo} AND {hi}"),
                5 => "s IN ('AIR', 'TRUCK')".to_string(),
                6 => "s LIKE 'R%'".to_string(),
                7 => "a IS NULL".to_string(),
                8 => "a IS NOT NULL".to_string(),
                9 => format!("a + b < {c1}"),
                10 => format!("NOT (a < {c1})"),
                _ => format!("d < DATE '{}'", date::format_date(c1 as i32)),
            }
        }

        use proptest::prelude::*;

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(128))]

            /// Full query execution through the vectorized scan, and the
            /// compiled predicate applied directly over the column batch,
            /// both select exactly the rows the oracle `eval` keeps when it
            /// filters every materialized row.
            #[test]
            fn vectorized_scan_agrees_with_row_materializing_scan(
                rows in proptest::collection::vec(
                    (-40i64..40, -40i64..40, any::<u8>(), -200i16..200), 0..60),
                t1 in any::<u8>(), t2 in any::<u8>(), t3 in any::<u8>(),
                c1 in -50i64..50, c2 in -50i64..50,
                connective in 0u8..3,
            ) {
                let db = random_table(&rows);
                let p1 = predicate_sql(t1, c1, c2);
                let p2 = predicate_sql(t2, c2, c1);
                let p3 = predicate_sql(t3, c1.wrapping_mul(2), c2);
                let pred = match connective {
                    0 => p1,
                    1 => format!("({p1}) AND ({p2})"),
                    _ => format!("(({p1}) OR ({p2})) AND ({p3})"),
                };

                let (got, stats) = db
                    .execute_sql(&format!("SELECT a, b, s, d FROM t WHERE {pred}"), &[])
                    .expect("vectorized execution");

                let table = db.table("t").unwrap();
                let schema = RowSchema::new(
                    ["a", "b", "s", "d"]
                        .iter()
                        .map(|c| (Some("t".to_string()), c.to_string()))
                        .collect(),
                );
                let parsed = parse_query(&format!("SELECT a FROM t WHERE {pred}")).unwrap();
                let where_clause = parsed.where_clause.unwrap();
                let expected: Vec<Vec<Value>> = (0..table.row_count())
                    .map(|i| table.row(i))
                    .filter(|row| {
                        eval(&where_clause, &schema, row, &[], None)
                            .expect("row evaluation")
                            .as_bool()
                            .unwrap_or(false)
                    })
                    .collect();

                prop_assert_eq!(&got.rows, &expected, "predicate: {}", pred);
                prop_assert_eq!(stats.rows_materialized as usize, expected.len());
                prop_assert_eq!(stats.rows_scanned as usize, rows.len());

                let compiled = compile_predicate(&where_clause, &schema, &[]);
                let sel = apply_predicate(
                    &compiled,
                    &table.tail_batch(),
                    &SelectionVector::all(table.row_count()),
                )
                .expect("columnar filter");
                let direct: Vec<Vec<Value>> = sel.iter().map(|i| table.row(i)).collect();
                prop_assert_eq!(&direct, &expected, "predicate: {}", pred);
            }
        }
    }
}
