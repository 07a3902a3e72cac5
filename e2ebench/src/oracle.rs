//! The correctness oracle: the plaintext engine, in this process, on the
//! generated data. The encrypted stack's answers are compared with its rows.

use monomi_engine::{Database, Value};
use std::cmp::Ordering;

fn values_close(a: &Value, b: &Value) -> bool {
    match (a.as_float(), b.as_float()) {
        (Some(x), Some(y)) => {
            let denom = x.abs().max(y.abs()).max(1.0);
            (x - y).abs() / denom < 1e-6
        }
        _ => a == b,
    }
}

/// Row-for-row equality in the order given, numbers within 1e-6 relative
/// (client-side averages and ratios are floats on both sides).
pub fn rows_match(expected: &[Vec<Value>], got: &[Vec<Value>]) -> bool {
    expected.len() == got.len()
        && expected
            .iter()
            .zip(got)
            .all(|(e, g)| e.len() == g.len() && e.iter().zip(g).all(|(a, b)| values_close(a, b)))
}

/// Rows in a canonical order, for statements without an `ORDER BY`.
pub fn sorted_rows(mut rows: Vec<Vec<Value>>) -> Vec<Vec<Value>> {
    rows.sort_by(|a, b| {
        a.iter()
            .zip(b)
            .map(|(x, y)| x.compare(y))
            .find(|o| *o != Ordering::Equal)
            .unwrap_or(Ordering::Equal)
    });
    rows
}

/// The plaintext answer to one statement.
///
/// Q18 is evaluated in two statements: its `IN` sub-select first, then the
/// outer query with the keys bound as a literal list. The plaintext engine
/// re-evaluates an `IN` sub-select per outer row, which for Q18's grouped
/// sub-select takes minutes even at this scale.
pub fn plaintext_rows(
    plain: &Database,
    name: &str,
    sql: &str,
    params: &[Value],
) -> Vec<Vec<Value>> {
    let run = |sql: &str| {
        plain
            .execute_sql(sql, params)
            .unwrap_or_else(|e| panic!("plaintext {name} failed: {e}"))
            .0
            .rows
    };
    if name != "Q18" {
        return run(sql);
    }
    let open = sql.find("IN (").expect("Q18 has an IN sub-select") + 3;
    let close = open + matching_paren(&sql[open..]).expect("Q18's sub-select is parenthesised");
    let keys: Vec<String> = run(&sql[open + 1..close])
        .iter()
        .map(|row| match &row[0] {
            Value::Int(k) => k.to_string(),
            other => panic!("Q18 sub-select returned a non-integer key {other:?}"),
        })
        .collect();
    // An empty list is not valid SQL; no order has a negative key.
    let list = if keys.is_empty() {
        "-1".to_string()
    } else {
        keys.join(", ")
    };
    run(&format!("{}({list}){}", &sql[..open], &sql[close + 1..]))
}

/// Offset of the `)` that closes the `(` at the start of `text`.
fn matching_paren(text: &str) -> Option<usize> {
    let mut depth = 0usize;
    for (i, c) in text.char_indices() {
        match c {
            '(' => depth += 1,
            ')' => {
                depth -= 1;
                if depth == 0 {
                    return Some(i);
                }
            }
            _ => {}
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use monomi_tpch::{datagen, queries};

    #[test]
    fn rows_compare_in_order_with_float_tolerance() {
        let a = vec![vec![Value::Int(1), Value::Float(0.1 + 0.2)]];
        let b = vec![vec![Value::Int(1), Value::Float(0.3)]];
        assert!(rows_match(&a, &b));
        assert!(!rows_match(&a, &[]));
        assert!(!rows_match(&a, &[vec![Value::Int(2), Value::Float(0.3)]]));
        let swapped = vec![vec![Value::Int(2)], vec![Value::Int(1)]];
        let ordered = vec![vec![Value::Int(1)], vec![Value::Int(2)]];
        assert!(!rows_match(&ordered, &swapped));
        assert!(rows_match(&ordered, &sorted_rows(swapped)));
    }

    #[test]
    fn q18_in_two_statements_equals_q18_in_one() {
        let plain = datagen::generate(&datagen::GeneratorConfig {
            scale_factor: 0.0002,
            seed: 1,
        });
        let q18 = queries::query(18).expect("Q18 exists");
        // A lower threshold, so the tiny data set has qualifying orders.
        let sql = q18.sql.replace("> 250", "> 150");
        let (whole, _) = plain.execute_sql(&sql, &[]).expect("single-statement Q18");
        assert!(!whole.rows.is_empty(), "threshold leaves no order");
        assert!(rows_match(
            &whole.rows,
            &plaintext_rows(&plain, "Q18", &sql, &[])
        ));
        let none = q18.sql.replace("> 250", "> 100000");
        assert!(plaintext_rows(&plain, "Q18", &none, &[]).is_empty());
    }
}
