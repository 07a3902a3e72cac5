//! REWRITESERVER: translating plaintext expressions into expressions the
//! untrusted server can evaluate over encrypted columns (§4 of the paper).
//!
//! The rewriter never sends plaintext to the server: constants appearing in
//! predicates are encrypted under the corresponding column's key, and column
//! references are replaced by encrypted column names. When no rewriting is
//! possible the caller falls back to fetching the underlying encrypted columns
//! and evaluating the expression on the trusted client.

use crate::design::{Encryptor, PhysicalDesign, TableDesign};
use crate::schemes::EncScheme;
use monomi_engine::{encode_hex, fold_constant, ColumnType, Database, Value};
use monomi_sql::ast::*;

/// Resolves unqualified column references to their tables and types for one
/// query's FROM scope.
#[derive(Clone, Debug, Default)]
pub struct QueryScope {
    /// `(binding, table, column, type)` for every visible column.
    entries: Vec<(String, String, String, ColumnType)>,
}

impl QueryScope {
    /// Builds the scope for a query whose FROM clause references only base
    /// tables. Returns `None` if a derived table is present (those are planned
    /// recursively by the caller).
    pub fn for_query(query: &Query, plain: &Database) -> Option<QueryScope> {
        let mut entries = Vec::new();
        for table_ref in &query.from {
            match table_ref {
                TableRef::Table { name, alias } => {
                    let schema = plain.catalog().get(name)?;
                    let binding = alias.clone().unwrap_or_else(|| name.clone());
                    for col in &schema.columns {
                        entries.push((
                            binding.to_lowercase(),
                            name.to_lowercase(),
                            col.name.to_lowercase(),
                            col.ty,
                        ));
                    }
                }
                TableRef::Subquery { .. } => return None,
            }
        }
        Some(QueryScope { entries })
    }

    /// Resolves a column reference to `(table, column, type)`.
    pub fn resolve(&self, col: &ColumnRef) -> Option<(String, String, ColumnType)> {
        let cname = col.column.to_lowercase();
        match &col.table {
            Some(t) => {
                let t = t.to_lowercase();
                self.entries
                    .iter()
                    .find(|(b, _, c, _)| *b == t && *c == cname)
                    .map(|(_, table, c, ty)| (table.clone(), c.clone(), *ty))
            }
            None => self
                .entries
                .iter()
                .find(|(_, _, c, _)| *c == cname)
                .map(|(_, table, c, ty)| (table.clone(), c.clone(), *ty)),
        }
    }

    /// The single table all columns of `expr` belong to, if any.
    pub fn single_table(&self, expr: &Expr) -> Option<String> {
        let mut table: Option<String> = None;
        for c in expr.column_refs() {
            let (t, _, _) = self.resolve(&c)?;
            match &table {
                None => table = Some(t),
                Some(existing) if *existing == t => {}
                _ => return None,
            }
        }
        table
    }

    /// Infers the logical type of an expression.
    pub fn infer_type(&self, expr: &Expr) -> ColumnType {
        match expr {
            Expr::Column(c) => self
                .resolve(c)
                .map(|(_, _, t)| t)
                .unwrap_or(ColumnType::Int),
            Expr::Literal(Literal::Number(n)) => {
                if n.contains('.') {
                    ColumnType::Float
                } else {
                    ColumnType::Int
                }
            }
            Expr::Literal(Literal::String(_)) => ColumnType::Str,
            Expr::Literal(Literal::Date(_)) => ColumnType::Date,
            Expr::BinaryOp { left, op, right } => {
                if op.is_comparison() || matches!(op, BinaryOp::And | BinaryOp::Or) {
                    ColumnType::Int
                } else {
                    let lt = self.infer_type(left);
                    let rt = self.infer_type(right);
                    if lt == ColumnType::Date || rt == ColumnType::Date {
                        ColumnType::Date
                    } else if lt == ColumnType::Float || rt == ColumnType::Float {
                        ColumnType::Float
                    } else {
                        ColumnType::Int
                    }
                }
            }
            Expr::Aggregate { func, arg, .. } => match func {
                AggFunc::Count => ColumnType::Int,
                AggFunc::Avg => ColumnType::Float,
                _ => arg
                    .as_ref()
                    .map(|a| self.infer_type(a))
                    .unwrap_or(ColumnType::Int),
            },
            Expr::Extract { .. } => ColumnType::Int,
            Expr::Case {
                when_then,
                else_expr,
                ..
            } => when_then
                .first()
                .map(|(_, t)| self.infer_type(t))
                .or_else(|| else_expr.as_ref().map(|e| self.infer_type(e)))
                .unwrap_or(ColumnType::Int),
            Expr::Function { name, .. } if name == "substring" || name == "substr" => {
                ColumnType::Str
            }
            Expr::UnaryOp { expr, .. } => self.infer_type(expr),
            _ => ColumnType::Int,
        }
    }
}

/// Context for rewriting one query against a physical design.
pub struct Rewriter<'a> {
    pub design: &'a PhysicalDesign,
    pub encryptor: &'a Encryptor,
    pub scope: &'a QueryScope,
}

/// A column the rewriter chose to fetch and how the client must decrypt it.
#[derive(Clone, Debug, PartialEq)]
pub struct FetchSpec {
    /// Encrypted column name to project in the server query.
    pub enc_column: String,
    /// Table holding the column.
    pub table: String,
    /// Base (design) name of the source.
    pub base: String,
    /// Scheme to decrypt with.
    pub scheme: EncScheme,
    /// Logical type of the plaintext.
    pub ty: ColumnType,
}

impl<'a> Rewriter<'a> {
    fn table_design(&self, table: &str) -> Option<&TableDesign> {
        self.design.table(table)
    }

    /// Finds a design source matching `expr` (a column reference or a
    /// precomputed expression) and the schemes materialized for it.
    pub fn find_source(&self, expr: &Expr) -> Option<(String, &crate::design::ColumnDesign)> {
        // Bare column: resolve through the scope.
        if let Expr::Column(c) = expr {
            let (table, column, _) = self.scope.resolve(c)?;
            let td = self.table_design(&table)?;
            let cd = td.find_source(&Expr::Column(ColumnRef::new(column)))?;
            return Some((table, cd));
        }
        // Precomputed expression: must live in the single table it references.
        let table = self.scope.single_table(expr)?;
        let td = self.table_design(&table)?;
        // Normalize qualified column refs to unqualified for matching.
        let normalized = normalize_expr(expr);
        let cd = td.find_source(&normalized)?;
        Some((table, cd))
    }

    /// Picks a decryptable encrypted column for `expr` (DET preferred over RND
    /// because its ciphertexts are smaller).
    pub fn fetch_source(&self, expr: &Expr) -> Option<FetchSpec> {
        let (table, cd) = self.find_source(expr)?;
        let scheme = if cd.schemes.contains(&EncScheme::Det) {
            EncScheme::Det
        } else if cd.schemes.contains(&EncScheme::Rnd) {
            EncScheme::Rnd
        } else {
            return None;
        };
        Some(FetchSpec {
            enc_column: cd.enc_name(scheme),
            table,
            base: cd.base_name.clone(),
            scheme,
            ty: cd.ty,
        })
    }

    /// The encrypted column carrying a specific scheme of `expr`, if present.
    pub fn scheme_column(&self, expr: &Expr, scheme: EncScheme) -> Option<FetchSpec> {
        let (table, cd) = self.find_source(expr)?;
        if !cd.schemes.contains(&scheme) {
            return None;
        }
        Some(FetchSpec {
            enc_column: cd.enc_name(scheme),
            table,
            base: cd.base_name.clone(),
            scheme,
            ty: cd.ty,
        })
    }

    fn encrypt_constant(
        &self,
        spec: &FetchSpecLike<'_>,
        scheme: EncScheme,
        v: &Value,
    ) -> Option<Expr> {
        let ct = self
            .encryptor
            .column(spec.table, spec.base)?
            .encrypt_constant(scheme, v)
            .ok()?;
        Some(match ct {
            Value::Int(i) => Expr::Literal(Literal::Number(i.to_string())),
            Value::Bytes(b) => Expr::Function {
                name: "hex_bytes".into(),
                args: vec![Expr::Literal(Literal::String(encode_hex(&b)))],
            },
            Value::Str(s) => Expr::Literal(Literal::String(s)),
            _ => return None,
        })
    }

    /// REWRITESERVER with `enctype = PLAIN`: produce an expression computing
    /// the same (boolean/plain) value over encrypted columns, or `None`.
    pub fn rewrite_plain(&self, expr: &Expr) -> Option<Expr> {
        match expr {
            Expr::BinaryOp {
                left,
                op: op @ (BinaryOp::And | BinaryOp::Or),
                right,
            } => {
                let l = self.rewrite_plain(left)?;
                let r = self.rewrite_plain(right)?;
                Some(l.binop(*op, r))
            }
            Expr::UnaryOp {
                op: UnaryOp::Not,
                expr,
            } => Some(Expr::UnaryOp {
                op: UnaryOp::Not,
                expr: Box::new(self.rewrite_plain(expr)?),
            }),
            Expr::BinaryOp { left, op, right } if op.is_comparison() => {
                self.rewrite_comparison(expr, left, *op, right)
            }
            Expr::Between {
                expr: inner,
                low,
                high,
                negated,
            } => {
                let ge = self.rewrite_comparison(expr, inner, BinaryOp::GtEq, low)?;
                let le = self.rewrite_comparison(expr, inner, BinaryOp::LtEq, high)?;
                let both = ge.binop(BinaryOp::And, le);
                Some(if *negated {
                    Expr::UnaryOp {
                        op: UnaryOp::Not,
                        expr: Box::new(both),
                    }
                } else {
                    both
                })
            }
            Expr::InList {
                expr: inner,
                list,
                negated,
            } => {
                let spec = self.scheme_column(inner, EncScheme::Det)?;
                let mut enc_list = Vec::with_capacity(list.len());
                for item in list {
                    let v = fold_constant(item, &[])?;
                    enc_list.push(self.encrypt_constant(
                        &FetchSpecLike {
                            table: &spec.table,
                            base: &spec.base,
                        },
                        EncScheme::Det,
                        &v,
                    )?);
                }
                Some(Expr::InList {
                    expr: Box::new(Expr::col(spec.enc_column)),
                    list: enc_list,
                    negated: *negated,
                })
            }
            Expr::Like {
                expr: inner,
                pattern,
                negated,
            } => {
                let spec = self.scheme_column(inner, EncScheme::Search)?;
                let pattern_value = fold_constant(pattern, &[])?;
                let pattern_str = pattern_value.as_str()?.to_string();
                let keywords: Vec<&str> = pattern_str
                    .split(|c: char| !c.is_alphanumeric())
                    .filter(|w| !w.is_empty())
                    .collect();
                // Single-keyword patterns only (matching the paper's prototype).
                if keywords.len() != 1 {
                    return None;
                }
                let search = self
                    .encryptor
                    .column(&spec.table, &spec.base)?
                    .search()
                    .trapdoor(keywords[0]);
                let call = Expr::Function {
                    name: "search_match".into(),
                    args: vec![
                        Expr::col(spec.enc_column),
                        Expr::Literal(Literal::String(encode_hex(&search.0))),
                    ],
                };
                Some(if *negated {
                    Expr::UnaryOp {
                        op: UnaryOp::Not,
                        expr: Box::new(call),
                    }
                } else {
                    call
                })
            }
            Expr::IsNull {
                expr: inner,
                negated,
            } => {
                let spec = self.fetch_source(inner)?;
                Some(Expr::IsNull {
                    expr: Box::new(Expr::col(spec.enc_column)),
                    negated: *negated,
                })
            }
            // Constant-only expressions pass through unchanged.
            e if e.column_refs().is_empty() && !e.contains_subquery() => Some(e.clone()),
            _ => None,
        }
    }

    fn rewrite_comparison(
        &self,
        whole: &Expr,
        left: &Expr,
        op: BinaryOp,
        right: &Expr,
    ) -> Option<Expr> {
        let left_const = fold_constant(left, &[]);
        let right_const = fold_constant(right, &[]);
        match (left_const, right_const) {
            // column-ish <op> constant
            (None, Some(v)) => self.rewrite_col_vs_const(whole, left, op, &v),
            // constant <op> column-ish: flip the operator.
            (Some(v), None) => {
                let flipped = match op {
                    BinaryOp::Lt => BinaryOp::Gt,
                    BinaryOp::LtEq => BinaryOp::GtEq,
                    BinaryOp::Gt => BinaryOp::Lt,
                    BinaryOp::GtEq => BinaryOp::LtEq,
                    other => other,
                };
                self.rewrite_col_vs_const(whole, right, flipped, &v)
            }
            // column <op> column.
            (None, None) => {
                if op == BinaryOp::Eq {
                    // Equi-join through DET. Equality of DET ciphertexts is
                    // only meaningful when both sides are encrypted under the
                    // same key; key/foreign-key columns share a derivation
                    // label (see `Encryptor::det_label`), which is what makes
                    // encrypted equi-joins work.
                    let l = self.scheme_column(left, EncScheme::Det)?;
                    let r = self.scheme_column(right, EncScheme::Det)?;
                    let shared = Encryptor::det_label(&l.table, &l.base)
                        == Encryptor::det_label(&r.table, &r.base);
                    if !shared {
                        return None;
                    }
                    return Some(
                        Expr::col(l.enc_column).binop(BinaryOp::Eq, Expr::col(r.enc_column)),
                    );
                }
                // Same-table comparisons can be answered by a precomputed
                // boolean expression encrypted with DET.
                let (table, cd) = self.find_source(whole)?;
                if cd.schemes.contains(&EncScheme::Det) {
                    let ct = self.encrypt_constant(
                        &FetchSpecLike {
                            table: &table,
                            base: &cd.base_name,
                        },
                        EncScheme::Det,
                        &Value::Int(1),
                    )?;
                    return Some(Expr::col(cd.enc_name(EncScheme::Det)).binop(BinaryOp::Eq, ct));
                }
                None
            }
            // constant <op> constant: fold later.
            (Some(_), Some(_)) => Some(whole.clone()),
        }
    }

    fn rewrite_col_vs_const(
        &self,
        whole: &Expr,
        col_side: &Expr,
        op: BinaryOp,
        v: &Value,
    ) -> Option<Expr> {
        match op {
            BinaryOp::Eq | BinaryOp::NotEq => {
                let spec = self.scheme_column(col_side, EncScheme::Det)?;
                let ct = self.encrypt_constant(
                    &FetchSpecLike {
                        table: &spec.table,
                        base: &spec.base,
                    },
                    EncScheme::Det,
                    v,
                )?;
                Some(Expr::col(spec.enc_column).binop(op, ct))
            }
            BinaryOp::Lt | BinaryOp::LtEq | BinaryOp::Gt | BinaryOp::GtEq => {
                let spec = self.scheme_column(col_side, EncScheme::Ope)?;
                let ct = self.encrypt_constant(
                    &FetchSpecLike {
                        table: &spec.table,
                        base: &spec.base,
                    },
                    EncScheme::Ope,
                    v,
                )?;
                Some(Expr::col(spec.enc_column).binop(op, ct))
            }
            _ => {
                let _ = whole;
                None
            }
        }
    }

    /// REWRITESERVER with `enctype = DET`: the server-side expression whose
    /// value is the DET ciphertext of `expr` (used for GROUP BY keys).
    pub fn rewrite_det(&self, expr: &Expr) -> Option<Expr> {
        let spec = self.scheme_column(expr, EncScheme::Det)?;
        Some(Expr::col(spec.enc_column))
    }
}

/// Lightweight (table, base) pair used internally when encrypting constants.
struct FetchSpecLike<'a> {
    table: &'a str,
    base: &'a str,
}

/// Strips table qualifiers from column references so expressions can be
/// matched against design sources (which are stored unqualified).
pub fn normalize_expr(expr: &Expr) -> Expr {
    let mut out = expr.clone();
    normalize_in_place(&mut out);
    out
}

fn normalize_in_place(expr: &mut Expr) {
    match expr {
        Expr::Column(c) => {
            c.table = None;
            c.column = c.column.to_lowercase();
        }
        Expr::BinaryOp { left, right, .. } => {
            normalize_in_place(left);
            normalize_in_place(right);
        }
        Expr::UnaryOp { expr, .. } => normalize_in_place(expr),
        Expr::Aggregate { arg: Some(a), .. } => normalize_in_place(a),
        Expr::Function { args, .. } => {
            for a in args {
                normalize_in_place(a);
            }
        }
        Expr::Case {
            operand,
            when_then,
            else_expr,
        } => {
            if let Some(o) = operand {
                normalize_in_place(o);
            }
            for (w, t) in when_then {
                normalize_in_place(w);
                normalize_in_place(t);
            }
            if let Some(e) = else_expr {
                normalize_in_place(e);
            }
        }
        Expr::Like { expr, pattern, .. } => {
            normalize_in_place(expr);
            normalize_in_place(pattern);
        }
        Expr::InList { expr, list, .. } => {
            normalize_in_place(expr);
            for e in list {
                normalize_in_place(e);
            }
        }
        Expr::Between {
            expr, low, high, ..
        } => {
            normalize_in_place(expr);
            normalize_in_place(low);
            normalize_in_place(high);
        }
        Expr::Extract { expr, .. } => normalize_in_place(expr),
        Expr::IsNull { expr, .. } => normalize_in_place(expr),
        _ => {}
    }
}
