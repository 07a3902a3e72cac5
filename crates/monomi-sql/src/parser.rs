//! Recursive-descent parser for the analytical SQL subset used by MONOMI.
//!
//! The grammar covers the TPC-H query shapes: SELECT with optional DISTINCT,
//! comma-joined FROM lists with aliases and derived tables, WHERE, GROUP BY,
//! HAVING, ORDER BY (ASC/DESC), LIMIT, and a rich expression language
//! (arithmetic, comparisons, AND/OR/NOT, LIKE, IN lists and subqueries,
//! EXISTS, BETWEEN, CASE, EXTRACT, date and interval literals, aggregates,
//! positional parameters).

use crate::ast::*;
use crate::lexer::{tokenize, LexError, Token};
use std::fmt;

/// Parse error with a human-readable message.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ParseError {
    pub message: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "parse error: {}", self.message)
    }
}

impl std::error::Error for ParseError {}

impl From<LexError> for ParseError {
    fn from(e: LexError) -> Self {
        ParseError {
            message: e.to_string(),
        }
    }
}

/// Parses one SELECT statement.
pub fn parse_query(sql: &str) -> Result<Query, ParseError> {
    let tokens = tokenize(sql)?;
    let mut parser = Parser { tokens, pos: 0 };
    let query = parser.parse_select()?;
    // Allow a trailing semicolon.
    if parser.peek_is_punct(&Token::Semicolon) {
        parser.advance();
    }
    if parser.pos != parser.tokens.len() {
        return Err(parser.error(&format!(
            "unexpected trailing tokens starting at '{}'",
            parser.tokens[parser.pos]
        )));
    }
    Ok(query)
}

struct Parser {
    tokens: Vec<Token>,
    pos: usize,
}

impl Parser {
    fn error(&self, msg: &str) -> ParseError {
        ParseError {
            message: format!("{msg} (at token {})", self.pos),
        }
    }

    fn peek(&self) -> Option<&Token> {
        self.tokens.get(self.pos)
    }

    fn advance(&mut self) -> Option<Token> {
        let t = self.tokens.get(self.pos).cloned();
        if t.is_some() {
            self.pos += 1;
        }
        t
    }

    /// True if the next token is the given keyword (case-insensitive).
    fn peek_keyword(&self, kw: &str) -> bool {
        matches!(self.peek(), Some(Token::Ident(s)) if s.eq_ignore_ascii_case(kw))
    }

    fn peek_is_punct(&self, tok: &Token) -> bool {
        self.peek() == Some(tok)
    }

    /// Consumes a keyword if it is next; returns whether it was consumed.
    fn eat_keyword(&mut self, kw: &str) -> bool {
        if self.peek_keyword(kw) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn expect_keyword(&mut self, kw: &str) -> Result<(), ParseError> {
        if self.eat_keyword(kw) {
            Ok(())
        } else {
            Err(self.error(&format!("expected keyword {kw}")))
        }
    }

    fn eat_punct(&mut self, tok: &Token) -> bool {
        if self.peek_is_punct(tok) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn expect_punct(&mut self, tok: &Token) -> Result<(), ParseError> {
        if self.eat_punct(tok) {
            Ok(())
        } else {
            Err(self.error(&format!("expected '{tok}'")))
        }
    }

    fn parse_ident(&mut self) -> Result<String, ParseError> {
        match self.advance() {
            Some(Token::Ident(s)) => Ok(s),
            other => Err(self.error(&format!("expected identifier, found {other:?}"))),
        }
    }

    fn parse_select(&mut self) -> Result<Query, ParseError> {
        self.expect_keyword("SELECT")?;
        let distinct = self.eat_keyword("DISTINCT");
        let mut projections = Vec::new();
        loop {
            let expr = self.parse_expr()?;
            let alias = if self.eat_keyword("AS") {
                Some(self.parse_ident()?)
            } else if let Some(Token::Ident(s)) = self.peek() {
                // Bare alias, as long as it is not a clause keyword.
                if !is_clause_keyword(s) {
                    Some(self.parse_ident()?)
                } else {
                    None
                }
            } else {
                None
            };
            projections.push(SelectItem { expr, alias });
            if !self.eat_punct(&Token::Comma) {
                break;
            }
        }

        let mut from = Vec::new();
        if self.eat_keyword("FROM") {
            loop {
                from.push(self.parse_table_ref()?);
                if !self.eat_punct(&Token::Comma) {
                    break;
                }
            }
        }

        let where_clause = if self.eat_keyword("WHERE") {
            Some(self.parse_expr()?)
        } else {
            None
        };

        let mut group_by = Vec::new();
        if self.eat_keyword("GROUP") {
            self.expect_keyword("BY")?;
            loop {
                group_by.push(self.parse_expr()?);
                if !self.eat_punct(&Token::Comma) {
                    break;
                }
            }
        }

        let having = if self.eat_keyword("HAVING") {
            Some(self.parse_expr()?)
        } else {
            None
        };

        let mut order_by = Vec::new();
        if self.eat_keyword("ORDER") {
            self.expect_keyword("BY")?;
            loop {
                let expr = self.parse_expr()?;
                let desc = if self.eat_keyword("DESC") {
                    true
                } else {
                    self.eat_keyword("ASC");
                    false
                };
                order_by.push(OrderByItem { expr, desc });
                if !self.eat_punct(&Token::Comma) {
                    break;
                }
            }
        }

        let limit = if self.eat_keyword("LIMIT") {
            match self.advance() {
                Some(Token::Number(n)) => Some(n.parse().map_err(|_| self.error("bad LIMIT"))?),
                _ => return Err(self.error("expected number after LIMIT")),
            }
        } else {
            None
        };

        Ok(Query {
            distinct,
            projections,
            from,
            where_clause,
            group_by,
            having,
            order_by,
            limit,
        })
    }

    fn parse_table_ref(&mut self) -> Result<TableRef, ParseError> {
        if self.eat_punct(&Token::LParen) {
            let query = self.parse_select()?;
            self.expect_punct(&Token::RParen)?;
            self.eat_keyword("AS");
            let alias = self.parse_ident()?;
            return Ok(TableRef::Subquery {
                query: Box::new(query),
                alias,
            });
        }
        let name = self.parse_ident()?;
        let alias = if self.eat_keyword("AS") {
            Some(self.parse_ident()?)
        } else if let Some(Token::Ident(s)) = self.peek() {
            if !is_clause_keyword(s) {
                Some(self.parse_ident()?)
            } else {
                None
            }
        } else {
            None
        };
        Ok(TableRef::Table { name, alias })
    }

    // Expression parsing: OR < AND < NOT < comparison-ish < additive <
    // multiplicative < unary < primary.
    fn parse_expr(&mut self) -> Result<Expr, ParseError> {
        self.parse_or()
    }

    fn parse_or(&mut self) -> Result<Expr, ParseError> {
        let mut left = self.parse_and()?;
        while self.eat_keyword("OR") {
            let right = self.parse_and()?;
            left = left.binop(BinaryOp::Or, right);
        }
        Ok(left)
    }

    fn parse_and(&mut self) -> Result<Expr, ParseError> {
        let mut left = self.parse_not()?;
        while self.eat_keyword("AND") {
            let right = self.parse_not()?;
            left = left.binop(BinaryOp::And, right);
        }
        Ok(left)
    }

    fn parse_not(&mut self) -> Result<Expr, ParseError> {
        if self.eat_keyword("NOT") {
            // NOT EXISTS is handled in primary via negated flag; generic NOT here.
            if self.peek_keyword("EXISTS") {
                let e = self.parse_comparison()?;
                if let Expr::Exists { subquery, .. } = e {
                    return Ok(Expr::Exists {
                        subquery,
                        negated: true,
                    });
                }
                unreachable!("EXISTS parse returned non-Exists expression");
            }
            let expr = self.parse_not()?;
            return Ok(Expr::UnaryOp {
                op: UnaryOp::Not,
                expr: Box::new(expr),
            });
        }
        self.parse_comparison()
    }

    fn parse_comparison(&mut self) -> Result<Expr, ParseError> {
        let left = self.parse_additive()?;

        // Postfix predicates: IS [NOT] NULL, [NOT] LIKE / IN / BETWEEN.
        if self.eat_keyword("IS") {
            let negated = self.eat_keyword("NOT");
            self.expect_keyword("NULL")?;
            return Ok(Expr::IsNull {
                expr: Box::new(left),
                negated,
            });
        }

        let negated = if self.peek_keyword("NOT") {
            // Only treat as negation if followed by LIKE / IN / BETWEEN.
            let next = self.tokens.get(self.pos + 1);
            matches!(next, Some(Token::Ident(s))
                if s.eq_ignore_ascii_case("LIKE")
                    || s.eq_ignore_ascii_case("IN")
                    || s.eq_ignore_ascii_case("BETWEEN"))
        } else {
            false
        };
        if negated {
            self.advance(); // consume NOT
        }

        if self.eat_keyword("LIKE") {
            let pattern = self.parse_additive()?;
            return Ok(Expr::Like {
                expr: Box::new(left),
                pattern: Box::new(pattern),
                negated,
            });
        }
        if self.eat_keyword("BETWEEN") {
            let low = self.parse_additive()?;
            self.expect_keyword("AND")?;
            let high = self.parse_additive()?;
            return Ok(Expr::Between {
                expr: Box::new(left),
                low: Box::new(low),
                high: Box::new(high),
                negated,
            });
        }
        if self.eat_keyword("IN") {
            self.expect_punct(&Token::LParen)?;
            if self.peek_keyword("SELECT") {
                let sub = self.parse_select()?;
                self.expect_punct(&Token::RParen)?;
                return Ok(Expr::InSubquery {
                    expr: Box::new(left),
                    subquery: Box::new(sub),
                    negated,
                });
            }
            let mut list = Vec::new();
            loop {
                list.push(self.parse_expr()?);
                if !self.eat_punct(&Token::Comma) {
                    break;
                }
            }
            self.expect_punct(&Token::RParen)?;
            return Ok(Expr::InList {
                expr: Box::new(left),
                list,
                negated,
            });
        }

        let op = match self.peek() {
            Some(Token::Eq) => Some(BinaryOp::Eq),
            Some(Token::NotEq) => Some(BinaryOp::NotEq),
            Some(Token::Lt) => Some(BinaryOp::Lt),
            Some(Token::LtEq) => Some(BinaryOp::LtEq),
            Some(Token::Gt) => Some(BinaryOp::Gt),
            Some(Token::GtEq) => Some(BinaryOp::GtEq),
            _ => None,
        };
        if let Some(op) = op {
            self.advance();
            let right = self.parse_additive()?;
            return Ok(left.binop(op, right));
        }
        Ok(left)
    }

    fn parse_additive(&mut self) -> Result<Expr, ParseError> {
        let mut left = self.parse_multiplicative()?;
        loop {
            let op = match self.peek() {
                Some(Token::Plus) => BinaryOp::Add,
                Some(Token::Minus) => BinaryOp::Sub,
                _ => break,
            };
            self.advance();
            let right = self.parse_multiplicative()?;
            left = left.binop(op, right);
        }
        Ok(left)
    }

    fn parse_multiplicative(&mut self) -> Result<Expr, ParseError> {
        let mut left = self.parse_unary()?;
        loop {
            let op = match self.peek() {
                Some(Token::Star) => BinaryOp::Mul,
                Some(Token::Slash) => BinaryOp::Div,
                Some(Token::Percent) => BinaryOp::Mod,
                _ => break,
            };
            self.advance();
            let right = self.parse_unary()?;
            left = left.binop(op, right);
        }
        Ok(left)
    }

    fn parse_unary(&mut self) -> Result<Expr, ParseError> {
        if self.eat_punct(&Token::Minus) {
            let expr = self.parse_unary()?;
            return Ok(Expr::UnaryOp {
                op: UnaryOp::Neg,
                expr: Box::new(expr),
            });
        }
        if self.eat_punct(&Token::Plus) {
            return self.parse_unary();
        }
        self.parse_primary()
    }

    fn parse_primary(&mut self) -> Result<Expr, ParseError> {
        match self.peek().cloned() {
            Some(Token::Number(n)) => {
                self.advance();
                Ok(Expr::Literal(Literal::Number(n)))
            }
            Some(Token::String(s)) => {
                self.advance();
                Ok(Expr::Literal(Literal::String(s)))
            }
            Some(Token::Param(n)) => {
                self.advance();
                Ok(Expr::Param(n))
            }
            Some(Token::LParen) => {
                self.advance();
                if self.peek_keyword("SELECT") {
                    let sub = self.parse_select()?;
                    self.expect_punct(&Token::RParen)?;
                    Ok(Expr::ScalarSubquery(Box::new(sub)))
                } else {
                    let e = self.parse_expr()?;
                    self.expect_punct(&Token::RParen)?;
                    Ok(e)
                }
            }
            Some(Token::Star) => {
                // `*` only valid inside COUNT(*), which is handled in the
                // function path, or as SELECT * which we expand as a column.
                self.advance();
                Ok(Expr::Column(ColumnRef::new("*")))
            }
            Some(Token::Ident(ident)) => self.parse_ident_expr(&ident),
            other => Err(self.error(&format!("unexpected token {other:?} in expression"))),
        }
    }

    fn parse_ident_expr(&mut self, ident: &str) -> Result<Expr, ParseError> {
        let upper = ident.to_ascii_uppercase();
        match upper.as_str() {
            "NULL" => {
                self.advance();
                return Ok(Expr::Literal(Literal::Null));
            }
            "TRUE" => {
                self.advance();
                return Ok(Expr::Literal(Literal::Boolean(true)));
            }
            "FALSE" => {
                self.advance();
                return Ok(Expr::Literal(Literal::Boolean(false)));
            }
            "DATE" => {
                // DATE 'YYYY-MM-DD'
                if let Some(Token::String(_)) = self.tokens.get(self.pos + 1) {
                    self.advance();
                    if let Some(Token::String(s)) = self.advance() {
                        return Ok(Expr::Literal(Literal::Date(s)));
                    }
                }
            }
            "INTERVAL" => {
                // INTERVAL '3' MONTH
                self.advance();
                let value = match self.advance() {
                    Some(Token::String(s)) => s,
                    Some(Token::Number(s)) => s,
                    _ => return Err(self.error("expected interval value")),
                };
                let unit_ident = self.parse_ident()?.to_ascii_uppercase();
                let unit = match unit_ident.as_str() {
                    "DAY" | "DAYS" => IntervalUnit::Day,
                    "MONTH" | "MONTHS" => IntervalUnit::Month,
                    "YEAR" | "YEARS" => IntervalUnit::Year,
                    other => return Err(self.error(&format!("unknown interval unit {other}"))),
                };
                return Ok(Expr::Literal(Literal::Interval { value, unit }));
            }
            "CASE" => {
                self.advance();
                let operand = if !self.peek_keyword("WHEN") {
                    Some(Box::new(self.parse_expr()?))
                } else {
                    None
                };
                let mut when_then = Vec::new();
                while self.eat_keyword("WHEN") {
                    let w = self.parse_expr()?;
                    self.expect_keyword("THEN")?;
                    let t = self.parse_expr()?;
                    when_then.push((w, t));
                }
                let else_expr = if self.eat_keyword("ELSE") {
                    Some(Box::new(self.parse_expr()?))
                } else {
                    None
                };
                self.expect_keyword("END")?;
                return Ok(Expr::Case {
                    operand,
                    when_then,
                    else_expr,
                });
            }
            "EXTRACT" => {
                self.advance();
                self.expect_punct(&Token::LParen)?;
                let field_ident = self.parse_ident()?.to_ascii_uppercase();
                let field = match field_ident.as_str() {
                    "YEAR" => DateField::Year,
                    "MONTH" => DateField::Month,
                    "DAY" => DateField::Day,
                    other => return Err(self.error(&format!("unknown EXTRACT field {other}"))),
                };
                self.expect_keyword("FROM")?;
                let expr = self.parse_expr()?;
                self.expect_punct(&Token::RParen)?;
                return Ok(Expr::Extract {
                    field,
                    expr: Box::new(expr),
                });
            }
            "EXISTS" => {
                self.advance();
                self.expect_punct(&Token::LParen)?;
                let sub = self.parse_select()?;
                self.expect_punct(&Token::RParen)?;
                return Ok(Expr::Exists {
                    subquery: Box::new(sub),
                    negated: false,
                });
            }
            "SUM" | "AVG" | "COUNT" | "MIN" | "MAX"
                if self.tokens.get(self.pos + 1) == Some(&Token::LParen) =>
            {
                self.advance();
                self.advance(); // (
                let func = match upper.as_str() {
                    "SUM" => AggFunc::Sum,
                    "AVG" => AggFunc::Avg,
                    "COUNT" => AggFunc::Count,
                    "MIN" => AggFunc::Min,
                    "MAX" => AggFunc::Max,
                    _ => unreachable!(),
                };
                let distinct = self.eat_keyword("DISTINCT");
                let arg = if self.peek_is_punct(&Token::Star) {
                    self.advance();
                    None
                } else {
                    Some(Box::new(self.parse_expr()?))
                };
                self.expect_punct(&Token::RParen)?;
                return Ok(Expr::Aggregate {
                    func,
                    arg,
                    distinct,
                });
            }
            _ => {}
        }

        // Generic function call, qualified column, or bare column.
        self.advance(); // consume the identifier
        if self.peek_is_punct(&Token::LParen) {
            self.advance();
            let mut args = Vec::new();
            if !self.peek_is_punct(&Token::RParen) {
                loop {
                    args.push(self.parse_expr()?);
                    if !self.eat_punct(&Token::Comma) {
                        break;
                    }
                }
            }
            self.expect_punct(&Token::RParen)?;
            return Ok(Expr::Function {
                name: ident.to_lowercase(),
                args,
            });
        }
        if self.eat_punct(&Token::Dot) {
            let column = self.parse_ident()?;
            return Ok(Expr::Column(ColumnRef::qualified(ident, column)));
        }
        Ok(Expr::Column(ColumnRef::new(ident)))
    }
}

/// Keywords that terminate an implicit alias.
fn is_clause_keyword(s: &str) -> bool {
    const CLAUSES: &[&str] = &[
        "FROM", "WHERE", "GROUP", "HAVING", "ORDER", "LIMIT", "ON", "AND", "OR", "NOT", "AS",
        "JOIN", "INNER", "LEFT", "RIGHT", "UNION", "SELECT", "BY", "ASC", "DESC", "LIKE", "IN",
        "BETWEEN", "IS", "CASE", "WHEN", "THEN", "ELSE", "END", "EXISTS", "DISTINCT",
    ];
    CLAUSES.iter().any(|kw| s.eq_ignore_ascii_case(kw))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_simple_select() {
        let q = parse_query("SELECT a, b AS total FROM t WHERE a > 10 ORDER BY b DESC LIMIT 5")
            .unwrap();
        assert_eq!(q.projections.len(), 2);
        assert_eq!(q.projections[1].alias.as_deref(), Some("total"));
        assert_eq!(q.from.len(), 1);
        assert!(q.where_clause.is_some());
        assert_eq!(q.order_by.len(), 1);
        assert!(q.order_by[0].desc);
        assert_eq!(q.limit, Some(5));
    }

    #[test]
    fn parses_aggregates_and_group_by() {
        let q = parse_query(
            "SELECT l_returnflag, SUM(l_quantity), AVG(l_extendedprice), COUNT(*) \
             FROM lineitem GROUP BY l_returnflag HAVING SUM(l_quantity) > 100",
        )
        .unwrap();
        assert!(q.is_aggregate_query());
        assert_eq!(q.group_by.len(), 1);
        assert!(q.having.is_some());
        assert!(matches!(
            q.projections[3].expr,
            Expr::Aggregate {
                func: AggFunc::Count,
                arg: None,
                ..
            }
        ));
    }

    #[test]
    fn parses_tpch_q11_shape() {
        let q = parse_query(
            "SELECT ps_partkey, SUM(ps_supplycost * ps_availqty) AS value \
             FROM partsupp, supplier, nation \
             WHERE ps_suppkey = s_suppkey AND s_nationkey = n_nationkey AND n_name = :1 \
             GROUP BY ps_partkey \
             HAVING SUM(ps_supplycost * ps_availqty) > ( \
               SELECT SUM(ps_supplycost * ps_availqty) * 0.0001 \
               FROM partsupp, supplier, nation \
               WHERE ps_suppkey = s_suppkey AND s_nationkey = n_nationkey AND n_name = :1) \
             ORDER BY value DESC",
        )
        .unwrap();
        assert_eq!(q.from.len(), 3);
        assert!(q.having.as_ref().unwrap().contains_subquery());
        let conjuncts = q.where_clause.as_ref().unwrap().split_conjuncts();
        assert_eq!(conjuncts.len(), 3);
    }

    #[test]
    fn parses_date_interval_extract() {
        let q = parse_query(
            "SELECT EXTRACT(YEAR FROM o_orderdate) AS o_year FROM orders \
             WHERE o_orderdate >= DATE '1994-01-01' \
               AND o_orderdate < DATE '1994-01-01' + INTERVAL '1' YEAR",
        )
        .unwrap();
        assert!(matches!(
            q.projections[0].expr,
            Expr::Extract {
                field: DateField::Year,
                ..
            }
        ));
    }

    #[test]
    fn parses_case_when() {
        let q = parse_query(
            "SELECT SUM(CASE WHEN p_type LIKE 'PROMO%' THEN l_extendedprice ELSE 0 END) FROM x",
        )
        .unwrap();
        match &q.projections[0].expr {
            Expr::Aggregate { arg: Some(arg), .. } => {
                assert!(matches!(**arg, Expr::Case { .. }));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn parses_in_and_exists_subqueries() {
        let q = parse_query(
            "SELECT o_orderkey FROM orders WHERE o_orderkey IN (SELECT l_orderkey FROM lineitem) \
             AND EXISTS (SELECT * FROM customer WHERE c_custkey = o_custkey) \
             AND NOT EXISTS (SELECT * FROM supplier WHERE s_suppkey = 1) \
             AND o_orderpriority IN ('1-URGENT', '2-HIGH')",
        )
        .unwrap();
        let conjuncts = q.where_clause.as_ref().unwrap().split_conjuncts();
        assert_eq!(conjuncts.len(), 4);
        assert!(matches!(conjuncts[0], Expr::InSubquery { .. }));
        assert!(matches!(conjuncts[1], Expr::Exists { negated: false, .. }));
        assert!(matches!(conjuncts[2], Expr::Exists { negated: true, .. }));
        assert!(matches!(conjuncts[3], Expr::InList { .. }));
    }

    #[test]
    fn parses_derived_table() {
        let q = parse_query(
            "SELECT avg_qty FROM (SELECT AVG(l_quantity) AS avg_qty FROM lineitem) AS sub",
        )
        .unwrap();
        assert!(matches!(q.from[0], TableRef::Subquery { .. }));
    }

    #[test]
    fn parses_between_and_not_like() {
        let q = parse_query(
            "SELECT * FROM part WHERE p_size BETWEEN 1 AND 15 AND p_type NOT LIKE 'MEDIUM%'",
        )
        .unwrap();
        let conj = q.where_clause.as_ref().unwrap().split_conjuncts();
        assert!(matches!(conj[0], Expr::Between { negated: false, .. }));
        assert!(matches!(conj[1], Expr::Like { negated: true, .. }));
    }

    #[test]
    fn parses_params_and_arithmetic_precedence() {
        let q = parse_query("SELECT a + b * 2 - :1 / 4 FROM t").unwrap();
        // a + (b*2) - (:1/4) => ((a + (b*2)) - (:1/4))
        match &q.projections[0].expr {
            Expr::BinaryOp {
                op: BinaryOp::Sub, ..
            } => {}
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn rejects_garbage() {
        assert!(parse_query("SELECT FROM WHERE").is_err());
        assert!(parse_query("banana").is_err());
        assert!(parse_query("SELECT a FROM t WHERE").is_err());
    }

    #[test]
    fn table_aliases() {
        let q = parse_query("SELECT n1.n_name FROM nation n1, nation AS n2").unwrap();
        assert_eq!(q.from[0].binding_name(), "n1");
        assert_eq!(q.from[1].binding_name(), "n2");
    }

    #[test]
    fn count_distinct() {
        let q = parse_query("SELECT COUNT(DISTINCT ps_suppkey) FROM partsupp").unwrap();
        assert!(matches!(
            q.projections[0].expr,
            Expr::Aggregate {
                func: AggFunc::Count,
                distinct: true,
                ..
            }
        ));
    }
}
