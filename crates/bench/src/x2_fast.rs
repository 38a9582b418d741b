//! Experiment X2 — Proposition 2.2: `Fast` has time ≤ (4⌊log(L−1)⌋+9)E
//! and cost ≤ twice that.
//!
//! Expected shape: both metrics grow logarithmically in `L`.

use crate::common::{
    all_label_pairs, measure_worst, ring_setup, standard_delays, standard_label_pairs,
};
use rendezvous_core::{Fast, LabelSpace, RendezvousAlgorithm};
use rendezvous_runner::Runner;
use serde::Serialize;

/// One row of the X2 table.
#[derive(Debug, Clone, Serialize)]
pub struct Row {
    /// Ring size.
    pub n: usize,
    /// Label-space size.
    pub l: u64,
    /// Exploration bound.
    pub e: u64,
    /// Measured worst time.
    pub time: u64,
    /// Paper bound `(4⌊log(L−1)⌋+9)E`.
    pub time_bound: u64,
    /// Measured worst cost.
    pub cost: u64,
    /// Paper bound `(8⌊log(L−1)⌋+18)E`.
    pub cost_bound: u64,
}

/// Runs the sweep (see [`crate::x1_cheap::run`] for the flags).
#[must_use]
pub fn run(n: usize, ls: &[u64], exhaustive_labels: bool, runner: &Runner) -> Vec<Row> {
    let (g, ex) = ring_setup(n);
    let e = (n - 1) as u64;
    let delays = standard_delays(e);
    ls.iter()
        .map(|&l| {
            let space = LabelSpace::new(l).expect("l >= 2");
            let pairs = if exhaustive_labels {
                all_label_pairs(l)
            } else {
                standard_label_pairs(l)
            };
            let alg = Fast::new(g.clone(), ex.clone(), space);
            let m = measure_worst(&alg, &pairs, &delays, 4 * alg.time_bound(), runner);
            Row {
                n,
                l,
                e,
                time: m.time,
                time_bound: alg.time_bound(),
                cost: m.cost,
                cost_bound: alg.cost_bound(),
            }
        })
        .collect()
}

/// Renders the table.
#[must_use]
pub fn render(rows: &[Row]) -> String {
    let header = [
        "n",
        "L",
        "E",
        "time",
        "bound (4logL+9)E",
        "cost",
        "bound 2x",
    ];
    let body: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.n.to_string(),
                r.l.to_string(),
                r.e.to_string(),
                r.time.to_string(),
                r.time_bound.to_string(),
                r.cost.to_string(),
                r.cost_bound.to_string(),
            ]
        })
        .collect();
    crate::common::markdown_table(&header, &body)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn x2_bounds_hold_and_growth_is_logarithmic() {
        let rows = run(8, &[2, 8, 64], false, &Runner::sequential());
        for r in &rows {
            assert!(r.time <= r.time_bound, "time {} > {}", r.time, r.time_bound);
            assert!(r.cost <= r.cost_bound);
        }
        // Shape: going from L=8 to L=64 (8x) increases time by far less
        // than 8x (logarithmic growth).
        let growth = rows[2].time as f64 / rows[1].time as f64;
        assert!(growth < 4.0, "growth {growth} not logarithmic");
    }
}
