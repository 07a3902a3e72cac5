//! Abstract syntax tree for the analytical SQL subset MONOMI supports.
//!
//! The AST is shared by the plaintext execution engine (`monomi-engine`) and by
//! MONOMI's split-execution rewriter (`monomi-core`), which transforms a query
//! over plaintext columns into one or more queries over encrypted columns plus
//! a tree of client-side operators.
//!
//! All nodes implement `Eq` + `Hash` so the designer can treat expressions as
//! set elements (the paper's `EncSet` is a set of ⟨expression, scheme⟩ pairs).
//! Numeric literals keep their source text to stay hashable.

use serde::{Deserialize, Serialize};
use std::fmt;

/// A literal value appearing in a query.
#[derive(Clone, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Literal {
    /// Integer or decimal literal, kept as written (e.g. `"0.0001"`).
    Number(String),
    /// String literal.
    String(String),
    /// Date literal `DATE 'YYYY-MM-DD'` (or a plain string in date position).
    Date(String),
    /// Interval literal, e.g. `INTERVAL '3' MONTH`.
    Interval { value: String, unit: IntervalUnit },
    /// NULL.
    Null,
    /// TRUE / FALSE.
    Boolean(bool),
}

impl Literal {
    /// Parses the numeric literal as `f64` (panics if not a number).
    pub fn as_f64(&self) -> f64 {
        match self {
            Literal::Number(s) => s.parse().expect("invalid numeric literal"),
            _ => panic!("literal is not numeric: {self:?}"),
        }
    }

    /// Integer value if this literal is an integer.
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Literal::Number(s) => s.parse().ok(),
            _ => None,
        }
    }
}

/// Units for interval literals.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum IntervalUnit {
    Day,
    Month,
    Year,
}

/// Fields that can be EXTRACTed from a date.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum DateField {
    Year,
    Month,
    Day,
}

/// Binary operators.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum BinaryOp {
    Add,
    Sub,
    Mul,
    Div,
    Mod,
    Eq,
    NotEq,
    Lt,
    LtEq,
    Gt,
    GtEq,
    And,
    Or,
}

impl BinaryOp {
    /// True for comparison operators producing booleans.
    pub fn is_comparison(&self) -> bool {
        matches!(
            self,
            BinaryOp::Eq
                | BinaryOp::NotEq
                | BinaryOp::Lt
                | BinaryOp::LtEq
                | BinaryOp::Gt
                | BinaryOp::GtEq
        )
    }

    /// True for arithmetic operators.
    pub fn is_arithmetic(&self) -> bool {
        matches!(
            self,
            BinaryOp::Add | BinaryOp::Sub | BinaryOp::Mul | BinaryOp::Div | BinaryOp::Mod
        )
    }
}

/// Unary operators.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum UnaryOp {
    Not,
    Neg,
}

/// Aggregate functions.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum AggFunc {
    Sum,
    Avg,
    Count,
    Min,
    Max,
}

impl fmt::Display for AggFunc {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            AggFunc::Sum => "SUM",
            AggFunc::Avg => "AVG",
            AggFunc::Count => "COUNT",
            AggFunc::Min => "MIN",
            AggFunc::Max => "MAX",
        };
        write!(f, "{s}")
    }
}

/// A reference to a column, optionally qualified with a table name or alias.
#[derive(Clone, Debug, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct ColumnRef {
    pub table: Option<String>,
    pub column: String,
}

impl ColumnRef {
    /// Unqualified column reference.
    pub fn new(column: impl Into<String>) -> Self {
        ColumnRef {
            table: None,
            column: column.into(),
        }
    }

    /// Qualified column reference.
    pub fn qualified(table: impl Into<String>, column: impl Into<String>) -> Self {
        ColumnRef {
            table: Some(table.into()),
            column: column.into(),
        }
    }
}

impl fmt::Display for ColumnRef {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.table {
            Some(t) => write!(f, "{t}.{}", self.column),
            None => write!(f, "{}", self.column),
        }
    }
}

/// An expression.
#[derive(Clone, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Expr {
    /// Column reference.
    Column(ColumnRef),
    /// Literal constant.
    Literal(Literal),
    /// Positional query parameter `:1`.
    Param(usize),
    /// Binary operation.
    BinaryOp {
        left: Box<Expr>,
        op: BinaryOp,
        right: Box<Expr>,
    },
    /// Unary operation.
    UnaryOp { op: UnaryOp, expr: Box<Expr> },
    /// Aggregate function call.
    Aggregate {
        func: AggFunc,
        /// `None` means `COUNT(*)`.
        arg: Option<Box<Expr>>,
        distinct: bool,
    },
    /// Scalar function call (non-aggregate), e.g. `SUBSTRING(...)`.
    Function { name: String, args: Vec<Expr> },
    /// `CASE [operand] WHEN .. THEN .. [ELSE ..] END`.
    Case {
        operand: Option<Box<Expr>>,
        when_then: Vec<(Expr, Expr)>,
        else_expr: Option<Box<Expr>>,
    },
    /// `expr [NOT] LIKE pattern`.
    Like {
        expr: Box<Expr>,
        pattern: Box<Expr>,
        negated: bool,
    },
    /// `expr [NOT] IN (a, b, c)`.
    InList {
        expr: Box<Expr>,
        list: Vec<Expr>,
        negated: bool,
    },
    /// `expr [NOT] IN (SELECT ...)`.
    InSubquery {
        expr: Box<Expr>,
        subquery: Box<Query>,
        negated: bool,
    },
    /// `[NOT] EXISTS (SELECT ...)`.
    Exists { subquery: Box<Query>, negated: bool },
    /// Scalar subquery `(SELECT ...)` used as a value.
    ScalarSubquery(Box<Query>),
    /// `expr [NOT] BETWEEN low AND high`.
    Between {
        expr: Box<Expr>,
        low: Box<Expr>,
        high: Box<Expr>,
        negated: bool,
    },
    /// `EXTRACT(field FROM expr)`.
    Extract { field: DateField, expr: Box<Expr> },
    /// `expr IS [NOT] NULL`.
    IsNull { expr: Box<Expr>, negated: bool },
}

impl Expr {
    /// Column reference shortcut.
    pub fn col(name: impl Into<String>) -> Expr {
        Expr::Column(ColumnRef::new(name))
    }

    /// Integer literal shortcut.
    pub fn int(v: i64) -> Expr {
        Expr::Literal(Literal::Number(v.to_string()))
    }

    /// String literal shortcut.
    pub fn str(s: impl Into<String>) -> Expr {
        Expr::Literal(Literal::String(s.into()))
    }

    /// Builds `self op other`.
    pub fn binop(self, op: BinaryOp, other: Expr) -> Expr {
        Expr::BinaryOp {
            left: Box::new(self),
            op,
            right: Box::new(other),
        }
    }

    /// True if this expression (at any depth, not descending into subqueries)
    /// contains an aggregate function.
    pub fn contains_aggregate(&self) -> bool {
        let mut found = false;
        self.walk(&mut |e| {
            if matches!(e, Expr::Aggregate { .. }) {
                found = true;
            }
        });
        found
    }

    /// Collects all column references in this expression (not descending into
    /// subqueries).
    pub fn column_refs(&self) -> Vec<ColumnRef> {
        let mut out = Vec::new();
        self.walk(&mut |e| {
            if let Expr::Column(c) = e {
                out.push(c.clone());
            }
        });
        out
    }

    /// True if the expression references any subquery.
    pub fn contains_subquery(&self) -> bool {
        let mut found = false;
        self.walk(&mut |e| {
            if matches!(
                e,
                Expr::ScalarSubquery(_) | Expr::InSubquery { .. } | Expr::Exists { .. }
            ) {
                found = true;
            }
        });
        found
    }

    /// Pre-order traversal of this expression's nodes (not descending into
    /// subqueries). The visitor borrows each node for as long as the tree.
    pub fn walk<'a, F: FnMut(&'a Expr)>(&'a self, f: &mut F) {
        f(self);
        match self {
            Expr::BinaryOp { left, right, .. } => {
                left.walk(f);
                right.walk(f);
            }
            Expr::UnaryOp { expr, .. } => expr.walk(f),
            Expr::Aggregate { arg, .. } => {
                if let Some(a) = arg {
                    a.walk(f);
                }
            }
            Expr::Function { args, .. } => {
                for a in args {
                    a.walk(f);
                }
            }
            Expr::Case {
                operand,
                when_then,
                else_expr,
            } => {
                if let Some(o) = operand {
                    o.walk(f);
                }
                for (w, t) in when_then {
                    w.walk(f);
                    t.walk(f);
                }
                if let Some(e) = else_expr {
                    e.walk(f);
                }
            }
            Expr::Like { expr, pattern, .. } => {
                expr.walk(f);
                pattern.walk(f);
            }
            Expr::InList { expr, list, .. } => {
                expr.walk(f);
                for e in list {
                    e.walk(f);
                }
            }
            Expr::InSubquery { expr, .. } => expr.walk(f),
            Expr::Between {
                expr, low, high, ..
            } => {
                expr.walk(f);
                low.walk(f);
                high.walk(f);
            }
            Expr::Extract { expr, .. } => expr.walk(f),
            Expr::IsNull { expr, .. } => expr.walk(f),
            Expr::Exists { .. }
            | Expr::ScalarSubquery(_)
            | Expr::Column(_)
            | Expr::Literal(_)
            | Expr::Param(_) => {}
        }
    }

    /// Splits a boolean expression into its top-level AND conjuncts, borrowed
    /// from the expression.
    pub fn split_conjuncts(&self) -> Vec<&Expr> {
        match self {
            Expr::BinaryOp {
                left,
                op: BinaryOp::And,
                right,
            } => {
                let mut out = left.split_conjuncts();
                out.extend(right.split_conjuncts());
                out
            }
            other => vec![other],
        }
    }

    /// Joins conjuncts back into a single expression with ANDs.
    pub fn join_conjuncts(conjuncts: &[Expr]) -> Option<Expr> {
        let mut iter = conjuncts.iter().cloned();
        let first = iter.next()?;
        Some(iter.fold(first, |acc, c| acc.binop(BinaryOp::And, c)))
    }
}

/// One item in the SELECT list.
#[derive(Clone, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct SelectItem {
    pub expr: Expr,
    pub alias: Option<String>,
}

impl SelectItem {
    /// Item without an alias.
    pub fn new(expr: Expr) -> Self {
        SelectItem { expr, alias: None }
    }

    /// Item with an alias.
    pub fn aliased(expr: Expr, alias: impl Into<String>) -> Self {
        SelectItem {
            expr,
            alias: Some(alias.into()),
        }
    }

    /// The output name of this item: the alias, the column name for bare
    /// column references, or a generated name otherwise.
    pub fn output_name(&self, index: usize) -> String {
        if let Some(a) = &self.alias {
            return a.clone();
        }
        if let Expr::Column(c) = &self.expr {
            return c.column.clone();
        }
        format!("col{index}")
    }
}

/// A table reference in the FROM clause.
#[derive(Clone, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum TableRef {
    /// A base table, optionally aliased.
    Table { name: String, alias: Option<String> },
    /// A derived table (subquery in FROM), which must be aliased.
    Subquery { query: Box<Query>, alias: String },
}

impl TableRef {
    /// The name this relation is referred to by (alias if present).
    pub fn binding_name(&self) -> &str {
        match self {
            TableRef::Table { name, alias } => alias.as_deref().unwrap_or(name),
            TableRef::Subquery { alias, .. } => alias,
        }
    }
}

/// One ORDER BY key.
#[derive(Clone, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct OrderByItem {
    pub expr: Expr,
    pub desc: bool,
}

/// A SELECT query.
#[derive(Clone, Debug, PartialEq, Eq, Hash, Default, Serialize, Deserialize)]
pub struct Query {
    pub distinct: bool,
    pub projections: Vec<SelectItem>,
    pub from: Vec<TableRef>,
    pub where_clause: Option<Expr>,
    pub group_by: Vec<Expr>,
    pub having: Option<Expr>,
    pub order_by: Vec<OrderByItem>,
    pub limit: Option<u64>,
}

impl Query {
    /// All base table names referenced in the FROM clause (not recursing into
    /// derived tables or subqueries in expressions).
    pub fn base_tables(&self) -> Vec<String> {
        self.from
            .iter()
            .filter_map(|t| match t {
                TableRef::Table { name, .. } => Some(name.clone()),
                TableRef::Subquery { .. } => None,
            })
            .collect()
    }

    /// True if any projection contains an aggregate or a GROUP BY is present.
    pub fn is_aggregate_query(&self) -> bool {
        !self.group_by.is_empty()
            || self.projections.iter().any(|p| p.expr.contains_aggregate())
            || self.having.is_some()
    }
}
