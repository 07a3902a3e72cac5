//! Expressions bound once to the rows they run over: the engine's one
//! evaluator, on the server and in the client's residual alike.
//!
//! A [`BoundExpr`] does the by-name work once, when it is bound: what the row
//! carries (a column, or a whole expression computed upstream) becomes a
//! position in the row, literals, parameters and a correlated subquery's
//! outer references become values, and each subquery becomes a slot. What
//! is left per row is the evaluation itself, with SQL semantics: the
//! value-level operations live in [`crate::expr`]. A subquery slot is
//! answered per row by a [`Subqueries`] source, so one interface serves
//! results computed before any row (the client's) and correlated subqueries
//! run with the current row as their outer row (the engine's).

use crate::expr::{
    aggregate_outside_aggregation, apply_function, eval_between, eval_binop, eval_extract,
    eval_like, eval_unary, literal_value, truth, SubqueryResult,
};
use crate::value::Value;
use crate::EngineError;
use monomi_sql::ast::*;
use std::sync::Arc;

/// An expression bound to the positions of the rows it is evaluated over.
#[derive(Clone, Debug)]
pub enum BoundExpr {
    /// The value at a row position.
    Column(usize),
    /// A literal or parameter, evaluated at bind time.
    Const(Value),
    /// A node that cannot be evaluated (an unknown column, a missing
    /// parameter, an aggregate outside an aggregation, a subquery with no
    /// slot): the error is raised when a row reaches the node, so a node no
    /// row reaches fails nothing.
    Fail(EngineError),
    BinaryOp {
        left: Box<BoundExpr>,
        op: BinaryOp,
        right: Box<BoundExpr>,
    },
    UnaryOp {
        op: UnaryOp,
        expr: Box<BoundExpr>,
    },
    Function {
        name: String,
        args: Vec<BoundExpr>,
    },
    Case {
        operand: Option<Box<BoundExpr>>,
        when_then: Vec<(BoundExpr, BoundExpr)>,
        else_expr: Option<Box<BoundExpr>>,
    },
    Like {
        expr: Box<BoundExpr>,
        pattern: Box<BoundExpr>,
        negated: bool,
    },
    InList {
        expr: Box<BoundExpr>,
        list: Vec<BoundExpr>,
        negated: bool,
    },
    /// `expr [NOT] IN` the subquery result at index `subquery`.
    InSubquery {
        expr: Box<BoundExpr>,
        subquery: usize,
        negated: bool,
    },
    Exists {
        subquery: usize,
        negated: bool,
    },
    ScalarSubquery(usize),
    Between {
        expr: Box<BoundExpr>,
        low: Box<BoundExpr>,
        high: Box<BoundExpr>,
        negated: bool,
    },
    Extract {
        field: DateField,
        expr: Box<BoundExpr>,
    },
    IsNull {
        expr: Box<BoundExpr>,
        negated: bool,
    },
}

impl BoundExpr {
    /// Binds `expr`. At every node `resolve` is asked first: `Some` is that
    /// node's bound form (typically a [`Column`](Self::Column) of a value the
    /// row carries), `None` binds the node structurally. A column reference
    /// or parameter nothing resolves, and any aggregate, fails when a row
    /// reaches it. Each subquery is bound to the slot `subquery` assigns it:
    /// the slot [`eval`](Self::eval) asks its [`Subqueries`] for.
    pub fn bind<'e>(
        expr: &'e Expr,
        resolve: &dyn Fn(&'e Expr) -> Option<BoundExpr>,
        subquery: &dyn Fn(&'e Query) -> Option<usize>,
    ) -> BoundExpr {
        if let Some(bound) = resolve(expr) {
            return bound;
        }
        let bind = |e: &'e Expr| Self::bind(e, resolve, subquery);
        let boxed = |e: &'e Expr| Box::new(bind(e));
        let slot = |q: &'e Query| {
            subquery(q).ok_or_else(|| EngineError::new("subquery result not precomputed"))
        };
        match expr {
            Expr::Column(c) => BoundExpr::Fail(EngineError::new(format!("unknown column {c}"))),
            Expr::Literal(l) => literal_value(l).map_or_else(BoundExpr::Fail, BoundExpr::Const),
            Expr::Param(n) => BoundExpr::Fail(EngineError::new(format!("missing parameter :{n}"))),
            Expr::BinaryOp { left, op, right } => BoundExpr::BinaryOp {
                left: boxed(left),
                op: *op,
                right: boxed(right),
            },
            Expr::UnaryOp { op, expr } => BoundExpr::UnaryOp {
                op: *op,
                expr: boxed(expr),
            },
            Expr::Aggregate { .. } => BoundExpr::Fail(aggregate_outside_aggregation(expr)),
            Expr::Function { name, args } => BoundExpr::Function {
                name: name.clone(),
                args: args.iter().map(bind).collect(),
            },
            Expr::Case {
                operand,
                when_then,
                else_expr,
            } => BoundExpr::Case {
                operand: operand.as_deref().map(boxed),
                when_then: when_then.iter().map(|(w, t)| (bind(w), bind(t))).collect(),
                else_expr: else_expr.as_deref().map(boxed),
            },
            Expr::Like {
                expr,
                pattern,
                negated,
            } => BoundExpr::Like {
                expr: boxed(expr),
                pattern: boxed(pattern),
                negated: *negated,
            },
            Expr::InList {
                expr,
                list,
                negated,
            } => BoundExpr::InList {
                expr: boxed(expr),
                list: list.iter().map(bind).collect(),
                negated: *negated,
            },
            Expr::InSubquery {
                expr,
                subquery,
                negated,
            } => match slot(subquery) {
                Ok(subquery) => BoundExpr::InSubquery {
                    expr: boxed(expr),
                    subquery,
                    negated: *negated,
                },
                Err(e) => BoundExpr::Fail(e),
            },
            Expr::Exists { subquery, negated } => match slot(subquery) {
                Ok(subquery) => BoundExpr::Exists {
                    subquery,
                    negated: *negated,
                },
                Err(e) => BoundExpr::Fail(e),
            },
            Expr::ScalarSubquery(subquery) => {
                slot(subquery).map_or_else(BoundExpr::Fail, BoundExpr::ScalarSubquery)
            }
            Expr::Between {
                expr,
                low,
                high,
                negated,
            } => BoundExpr::Between {
                expr: boxed(expr),
                low: boxed(low),
                high: boxed(high),
                negated: *negated,
            },
            Expr::Extract { field, expr } => BoundExpr::Extract {
                field: *field,
                expr: boxed(expr),
            },
            Expr::IsNull { expr, negated } => BoundExpr::IsNull {
                expr: boxed(expr),
                negated: *negated,
            },
        }
    }

    /// Evaluates the expression over `row`, asking `subqueries` for the
    /// result of each subquery slot a row reaches.
    pub fn eval(&self, row: &[Value], subqueries: &dyn Subqueries) -> Result<Value, EngineError> {
        let eval = |e: &BoundExpr| e.eval(row, subqueries);
        let result = |slot: usize| subqueries.result(slot, row);
        match self {
            BoundExpr::Column(idx) => row
                .get(*idx)
                .cloned()
                .ok_or_else(|| EngineError::new(format!("row has no column {idx}"))),
            BoundExpr::Const(v) => Ok(v.clone()),
            BoundExpr::Fail(e) => Err(e.clone()),
            BoundExpr::BinaryOp { left, op, right } => eval_binop(&eval(left)?, *op, &eval(right)?),
            BoundExpr::UnaryOp { op, expr } => eval_unary(*op, eval(expr)?),
            BoundExpr::Function { name, args } => {
                let vals: Vec<Value> = args.iter().map(eval).collect::<Result<_, _>>()?;
                apply_function(name, &vals)
            }
            BoundExpr::Case {
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
            BoundExpr::Like {
                expr,
                pattern,
                negated,
            } => eval_like(eval(expr)?, eval(pattern)?, *negated),
            BoundExpr::InList {
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
            BoundExpr::InSubquery {
                expr,
                subquery,
                negated,
            } => {
                let v = eval(expr)?;
                Ok(truth(result(*subquery)?.contains(&v) ^ negated))
            }
            BoundExpr::Exists { subquery, negated } => {
                Ok(truth(!result(*subquery)?.is_empty() ^ negated))
            }
            BoundExpr::ScalarSubquery(subquery) => Ok(result(*subquery)?.scalar()),
            BoundExpr::Between {
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
            BoundExpr::Extract { field, expr } => eval_extract(*field, eval(expr)?),
            BoundExpr::IsNull { expr, negated } => Ok(truth(eval(expr)?.is_null() ^ negated)),
        }
    }
}

/// Where a bound expression's subquery results come from: the result of
/// slot `slot` for the row being evaluated.
pub trait Subqueries {
    fn result(&self, slot: usize, row: &[Value]) -> Result<Arc<SubqueryResult>, EngineError>;
}

/// Results computed before any row is evaluated: slot `i` is `self[i]`,
/// whatever the row.
impl Subqueries for Vec<Arc<SubqueryResult>> {
    fn result(&self, slot: usize, _row: &[Value]) -> Result<Arc<SubqueryResult>, EngineError> {
        self.get(slot)
            .cloned()
            .ok_or_else(|| EngineError::new("subquery result not precomputed"))
    }
}

/// The source of expressions that bind no subquery: every slot fails.
pub struct NoSubqueries;

impl Subqueries for NoSubqueries {
    fn result(&self, _slot: usize, _row: &[Value]) -> Result<Arc<SubqueryResult>, EngineError> {
        Err(EngineError::new(
            "subquery evaluation not available in this context",
        ))
    }
}

/// The value of an expression with no column reference, subquery or
/// aggregate, with `:n` read from `params`; `None` for any other expression
/// and for one whose evaluation fails.
pub fn fold_constant(expr: &Expr, params: &[Value]) -> Option<Value> {
    if !expr.column_refs().is_empty() || expr.contains_subquery() || expr.contains_aggregate() {
        return None;
    }
    let resolve = |e: &Expr| match e {
        Expr::Param(n) => params.get(n - 1).cloned().map(BoundExpr::Const),
        _ => None,
    };
    BoundExpr::bind(expr, &resolve, &|_| None)
        .eval(&[], &NoSubqueries)
        .ok()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::{eval, RowSchema};
    use monomi_sql::parse_query;

    /// Binds against `schema`'s columns and `params`, as `eval` resolves them.
    fn bind<'e>(
        expr: &'e Expr,
        params: &[Value],
        subquery: &dyn Fn(&'e Query) -> Option<usize>,
    ) -> BoundExpr {
        let resolve = |e: &Expr| match e {
            Expr::Column(c) => schema().resolve(c).map(BoundExpr::Column),
            Expr::Param(n) => params.get(n - 1).cloned().map(BoundExpr::Const),
            _ => None,
        };
        BoundExpr::bind(expr, &resolve, subquery)
    }

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
            Value::Null,
            Value::Str("AIR".into()),
            Value::Date(crate::value::date::parse_date("1995-09-17").unwrap()),
        ]
    }

    /// The bound evaluator agrees with `eval` — values and errors alike —
    /// on every expression shape, NULLs and subqueries included.
    #[test]
    fn bound_evaluation_matches_eval() {
        let sub_rows = vec![vec![Value::Int(3)], vec![Value::Null], vec![Value::Int(10)]];
        let subqueries = vec![
            Arc::new(SubqueryResult::new(sub_rows.clone())),
            Arc::new(SubqueryResult::new(Vec::new())),
        ];
        let cases = [
            "a + 2 * 3",
            "a / 4",
            "-a",
            "NOT (a = 10)",
            "NOT (b = 1)",
            "b + 1",
            "a > 5 AND b = 1",
            "a > 5 OR b = 1",
            "ship LIKE 'A%'",
            "b LIKE 'A%'",
            "ship IN ('AIR', 'RAIL')",
            "b IN (1, 2)",
            "a BETWEEN 5 AND 15",
            "a NOT BETWEEN b AND 15",
            "EXTRACT(YEAR FROM d)",
            "d + INTERVAL '3' MONTH",
            "a IS NULL",
            "b IS NOT NULL",
            "CASE WHEN a > 5 THEN 'big' ELSE 'small' END",
            "CASE ship WHEN 'RAIL' THEN 1 WHEN 'AIR' THEN 2 END",
            "CASE WHEN b = 1 THEN 1 END",
            "substring(ship, 1, 2)",
            ":1 * a",
            "a IN (SELECT x FROM s)",
            "a NOT IN (SELECT x FROM s)",
            "b IN (SELECT x FROM s)",
            "EXISTS (SELECT x FROM s)",
            "NOT EXISTS (SELECT y FROM s)",
            "(SELECT x FROM s) + 1",
            "(SELECT y FROM s)",
            "missing + 1",
            "SUM(a)",
            "a LIKE 'A%'",
            ":2",
            "nosuchfn(a)",
        ];
        let params = [Value::Int(7)];
        let sub_fn = |q: &Query| {
            Ok(if q.projections[0].output_name(0) == "x" {
                subqueries[0].clone()
            } else {
                subqueries[1].clone()
            })
        };
        let slot = |q: &Query| Some(usize::from(q.projections[0].output_name(0) != "x"));
        for case in cases {
            let q = parse_query(&format!("SELECT {case} FROM t")).unwrap();
            let expr = &q.projections[0].expr;
            let interpreted = eval(expr, &schema(), &row(), &params, Some(&sub_fn));
            let bound = bind(expr, &params, &slot).eval(&row(), &subqueries);
            assert_eq!(
                format!("{interpreted:?}"),
                format!("{bound:?}"),
                "bound and interpreted evaluation disagree on {case}"
            );
        }
    }

    /// A subquery the binder has no result for fails only the rows that
    /// reach it.
    #[test]
    fn unbound_subquery_fails_only_when_reached() {
        let q =
            parse_query("SELECT CASE WHEN a > 100 THEN a IN (SELECT x FROM s) END FROM t").unwrap();
        let bound = bind(&q.projections[0].expr, &[], &|_| None);
        assert_eq!(bound.eval(&row(), &NoSubqueries).unwrap(), Value::Null);
        let reached = vec![Value::Int(200), Value::Null, Value::Null, Value::Null];
        assert!(bound.eval(&reached, &NoSubqueries).is_err());
    }
}
