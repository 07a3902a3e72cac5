//! Attribution of a traced query's span tree to layers.

use monomi_obs::Span;

/// A span's self time: its duration minus the part of it its children cover.
/// Children of one span run one after another, so together they cover the sum
/// of their durations, and never more than the parent itself.
pub fn self_seconds(span: &Span) -> f64 {
    let covered: f64 = span.children.iter().map(|c| c.seconds).sum();
    (span.seconds - covered.min(span.seconds)).max(0.0)
}

/// Seconds of one or more span trees, by layer.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct LayerSeconds {
    /// `RemoteSQL`: server execution wall as the server measured it,
    /// operators included.
    pub server_exec: f64,
    /// Self time of `RemoteSQL`: server work outside any operator span.
    pub server_other: f64,
    /// `Wire`: round trip minus server execution.
    pub wire: f64,
    /// `LocalDecrypt`.
    pub decrypt: f64,
    /// Rows out of `LocalDecrypt`.
    pub decrypt_rows: u64,
    /// `ClientResidual`.
    pub residual: f64,
    /// Self time of the server's `ScanFilter(..)` operators.
    pub scan: f64,
    /// Self time of `HashJoin`.
    pub join: f64,
    /// Self time of `MorselAggregate`.
    pub agg: f64,
    /// Self time of `Sort`.
    pub sort: f64,
}

impl LayerSeconds {
    /// Adds every span of the forest to its layer.
    pub fn add_forest(&mut self, spans: &[Span]) {
        for span in spans {
            self.add_span(span);
        }
    }

    fn add_span(&mut self, span: &Span) {
        let own = self_seconds(span);
        match span.label.as_str() {
            "RemoteSQL" => {
                self.server_exec += span.seconds;
                self.server_other += own;
            }
            "Wire" => self.wire += span.seconds,
            "LocalDecrypt" => {
                self.decrypt += span.seconds;
                self.decrypt_rows += span.rows;
            }
            "ClientResidual" => self.residual += span.seconds,
            "HashJoin" => self.join += own,
            "MorselAggregate" => self.agg += own,
            "Sort" => self.sort += own,
            label if label.starts_with("ScanFilter(") => self.scan += own,
            // `Plan` is a zero-duration placeholder and `Child(..)` carries a
            // modeled total, not a wall time: only their children count.
            _ => {}
        }
        self.add_forest(&span.children);
    }

    /// Wall seconds the client-visible phases account for (the server's
    /// operators are inside `server_exec`).
    pub fn attributed(&self) -> f64 {
        self.server_exec + self.wire + self.decrypt + self.residual
    }
}

/// One line of `spans.json` per span: pre-order, with the index of the span
/// that caused it (`-1` for a root).
pub fn flatten_json(spans: &[Span], pass: usize, op: &str, out: &mut Vec<String>) {
    fn walk(
        span: &Span,
        parent: i64,
        pass: usize,
        op: &str,
        next: &mut i64,
        out: &mut Vec<String>,
    ) {
        let id = *next;
        *next += 1;
        out.push(format!(
            "{{\"pass\": {pass}, \"op\": \"{op}\", \"id\": {id}, \"parent\": {parent}, \
             \"label\": \"{}\", \"seconds\": {:e}, \"self_seconds\": {:e}, \"rows\": {}}}",
            span.label.replace(['"', '\\'], "_"),
            span.seconds,
            self_seconds(span),
            span.rows
        ));
        for child in &span.children {
            walk(child, id, pass, op, next, out);
        }
    }
    let mut next = 0;
    for span in spans {
        walk(span, -1, pass, op, &mut next, out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_is_duration_minus_child_coverage() {
        let leaf = Span::leaf("Sort", 0.25, 10);
        assert_eq!(self_seconds(&leaf), 0.25);
        let node = Span::node(
            "RemoteSQL",
            1.0,
            5,
            vec![
                Span::leaf("ScanFilter(t)", 0.5, 9),
                Span::leaf("HashJoin", 0.25, 5),
            ],
        );
        assert!((self_seconds(&node) - 0.25).abs() < 1e-12);
        // Children timed on another clock can add up to more than the
        // parent: the self time is zero, never negative.
        let over = Span::node("RemoteSQL", 0.5, 1, vec![Span::leaf("Sort", 0.75, 1)]);
        assert_eq!(self_seconds(&over), 0.0);
    }

    #[test]
    fn layers_take_self_time_of_operators_and_walk_wrappers() {
        let tree = vec![
            Span::leaf("Plan", 0.0, 0),
            Span::node(
                "Child(sub)",
                99.0,
                3,
                vec![
                    Span::node(
                        "RemoteSQL",
                        0.5,
                        3,
                        vec![
                            Span::leaf("ScanFilter(lineitem)", 0.25, 100),
                            Span::leaf("MorselAggregate", 0.125, 3),
                        ],
                    ),
                    Span::leaf("Wire", 0.0625, 3),
                    Span::leaf("LocalDecrypt", 0.25, 3),
                    Span::leaf("ClientResidual", 0.125, 3),
                ],
            ),
            Span::leaf("ClientResidual", 0.5, 1),
        ];
        let mut layers = LayerSeconds::default();
        layers.add_forest(&tree);
        assert_eq!(layers.server_exec, 0.5);
        assert_eq!(layers.server_other, 0.125);
        assert_eq!(layers.scan, 0.25);
        assert_eq!(layers.agg, 0.125);
        assert_eq!(layers.wire, 0.0625);
        assert_eq!(layers.decrypt, 0.25);
        assert_eq!(layers.decrypt_rows, 3);
        assert_eq!(layers.residual, 0.625);
        assert_eq!(layers.attributed(), 0.5 + 0.0625 + 0.25 + 0.625);
        let mut lines = Vec::new();
        flatten_json(&tree, 0, "Q1", &mut lines);
        assert_eq!(lines.len(), 9);
        assert!(lines[2].contains("\"parent\": 1"));
    }
}
