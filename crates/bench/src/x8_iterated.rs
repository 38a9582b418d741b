//! Experiment X8 — Conclusion: iterating the algorithms over a doubling
//! exploration family preserves their complexities (telescoping), so no
//! upper bound on the network size needs to be known.
//!
//! For each ring size: compare the iterated algorithm (which does *not*
//! know `n`) against the plain algorithm (which does). Expected shape: the
//! iterated versions pay a small constant factor, not an asymptotic one.

use crate::common::{measure_worst, ring_setup, standard_delays, standard_label_pairs};
use rendezvous_core::{BaseAlgorithm, Cheap, Fast, Iterated, LabelSpace, RendezvousAlgorithm};
use rendezvous_explore::{ExplorationFamily, RingDoublingFamily};
use rendezvous_runner::Runner;
use serde::Serialize;
use std::sync::Arc;

/// One row of the X8 table.
#[derive(Debug, Clone, Serialize)]
pub struct Row {
    /// Ring size (unknown to the iterated agents).
    pub n: usize,
    /// Base algorithm iterated.
    pub base: &'static str,
    /// Measured worst time of the iterated version.
    pub iter_time: u64,
    /// Measured worst cost of the iterated version.
    pub iter_cost: u64,
    /// Measured worst time of the known-`E` version.
    pub plain_time: u64,
    /// Measured worst cost of the known-`E` version.
    pub plain_cost: u64,
    /// time ratio iterated / plain.
    // analyze: allow(d3) — display-only ratio column; the table sorts and the suite
    // asserts on the exact integer fields
    pub time_ratio: f64,
    /// cost ratio iterated / plain.
    // analyze: allow(d3) — display-only ratio column, as `time_ratio`
    pub cost_ratio: f64,
}

/// Runs the comparison on an `n`-ring with label space `L`.
#[must_use]
pub fn run(ns: &[usize], l: u64, runner: &Runner) -> Vec<Row> {
    let space = LabelSpace::new(l).expect("l >= 2");
    let pairs = standard_label_pairs(l);
    let mut rows = Vec::new();
    for &n in ns {
        let (g, ex) = ring_setup(n);
        let e = (n - 1) as u64;
        let delays = standard_delays(e);
        let fam = Arc::new(RingDoublingFamily::new());
        let top = fam.level_for(n);
        for (base, name) in [
            (BaseAlgorithm::Fast, "fast"),
            (BaseAlgorithm::Cheap, "cheap"),
        ] {
            let iter =
                Iterated::new(g.clone(), fam.clone(), space, base, 1..=top).expect("valid levels");
            let mi = measure_worst(&iter, &pairs, &delays, 8 * iter.time_bound(), runner);
            let (plain_time, plain_cost) = match base {
                BaseAlgorithm::Fast => {
                    let plain = Fast::new(g.clone(), ex.clone(), space);
                    let m = measure_worst(&plain, &pairs, &delays, 4 * plain.time_bound(), runner);
                    (m.time, m.cost)
                }
                _ => {
                    let plain = Cheap::new(g.clone(), ex.clone(), space);
                    let m = measure_worst(&plain, &pairs, &delays, 4 * plain.time_bound(), runner);
                    (m.time, m.cost)
                }
            };
            rows.push(Row {
                n,
                base: name,
                iter_time: mi.time,
                iter_cost: mi.cost,
                plain_time,
                plain_cost,
                // analyze: allow(d3) — display-only ratio from exact integer measurements
                time_ratio: mi.time as f64 / plain_time as f64,
                // analyze: allow(d3) — display-only ratio from exact integer measurements
                cost_ratio: mi.cost as f64 / plain_cost.max(1) as f64,
            });
        }
    }
    rows
}

/// Renders the table.
#[must_use]
pub fn render(rows: &[Row]) -> String {
    let header = [
        "n",
        "base",
        "iterated time",
        "plain time",
        "ratio",
        "iterated cost",
        "plain cost",
        "ratio",
    ];
    let body = rows
        .iter()
        .map(|r| {
            vec![
                r.n.to_string(),
                r.base.to_string(),
                r.iter_time.to_string(),
                r.plain_time.to_string(),
                format!("{:.2}", r.time_ratio),
                r.iter_cost.to_string(),
                r.plain_cost.to_string(),
                format!("{:.2}", r.cost_ratio),
            ]
        })
        .collect::<Vec<_>>();
    crate::common::markdown_table(&header, &body)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn x8_iterated_pays_only_a_constant_factor() {
        let rows = run(&[6, 12], 4, &Runner::sequential());
        for r in &rows {
            // Telescoping: a modest constant factor, not an n- or L-factor.
            assert!(
                r.time_ratio <= 16.0,
                "n={} base={}: time ratio {}",
                r.n,
                r.base,
                r.time_ratio
            );
            assert!(r.cost_ratio <= 16.0);
        }
    }
}
