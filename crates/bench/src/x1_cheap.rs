//! Experiment X1 — Proposition 2.1: `Cheap` has cost ≤ 3E and time
//! ≤ (2L+1)E; the simultaneous-start variant has cost ≤ E and time
//! ≤ (L−1)E.
//!
//! Sweep `L` at fixed ring size; the expected *shape* is time growing
//! linearly in `L` while cost stays pinned at ≤ 3E (≤ E simultaneous).

use crate::common::{
    all_label_pairs, measure_worst, ring_setup, standard_delays, standard_label_pairs,
};
use rendezvous_core::{Cheap, CheapSimultaneous, LabelSpace, RendezvousAlgorithm};
use rendezvous_runner::Runner;
use serde::Serialize;

/// One row of the X1 table.
#[derive(Debug, Clone, Serialize)]
pub struct Row {
    /// Ring size.
    pub n: usize,
    /// Label-space size.
    pub l: u64,
    /// Exploration bound `E = n − 1`.
    pub e: u64,
    /// Measured worst time of `Cheap` (sampled adversary).
    pub cheap_time: u64,
    /// Paper bound `(2L+1)E`.
    pub cheap_time_bound: u64,
    /// Measured worst cost of `Cheap`.
    pub cheap_cost: u64,
    /// Paper bound `3E`.
    pub cheap_cost_bound: u64,
    /// Measured worst time of `CheapSimultaneous` (delay 0 only).
    pub sim_time: u64,
    /// Paper bound `(L−1)E`.
    pub sim_time_bound: u64,
    /// Measured worst cost of `CheapSimultaneous`.
    pub sim_cost: u64,
    /// Paper bound `E` ("cost exactly E" in the worst case).
    pub sim_cost_bound: u64,
}

/// Runs the sweep. `exhaustive_labels` switches between all `C(L,2)` label
/// pairs (slow, small `L`) and the standard adversarial sample.
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
            let cheap = Cheap::new(g.clone(), ex.clone(), space);
            let mc = measure_worst(&cheap, &pairs, &delays, 4 * cheap.time_bound(), runner);
            let sim = CheapSimultaneous::new(g.clone(), ex.clone(), space);
            let ms = measure_worst(&sim, &pairs, &[0], 4 * sim.time_bound() + e, runner);
            Row {
                n,
                l,
                e,
                cheap_time: mc.time,
                cheap_time_bound: cheap.time_bound(),
                cheap_cost: mc.cost,
                cheap_cost_bound: cheap.cost_bound(),
                sim_time: ms.time,
                sim_time_bound: sim.time_bound(),
                sim_cost: ms.cost,
                sim_cost_bound: sim.cost_bound(),
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
        "cheap time",
        "bound (2L+1)E",
        "cheap cost",
        "bound 3E",
        "sim time",
        "bound (L-1)E",
        "sim cost",
        "bound E",
    ];
    let body: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.n.to_string(),
                r.l.to_string(),
                r.e.to_string(),
                r.cheap_time.to_string(),
                r.cheap_time_bound.to_string(),
                r.cheap_cost.to_string(),
                r.cheap_cost_bound.to_string(),
                r.sim_time.to_string(),
                r.sim_time_bound.to_string(),
                r.sim_cost.to_string(),
                r.sim_cost_bound.to_string(),
            ]
        })
        .collect();
    crate::common::markdown_table(&header, &body)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn x1_bounds_hold_and_shape_is_linear_in_l() {
        let rows = run(8, &[2, 4, 8], true, &Runner::sequential());
        for r in &rows {
            assert!(r.cheap_time <= r.cheap_time_bound);
            assert!(r.cheap_cost <= r.cheap_cost_bound);
            assert!(r.sim_time <= r.sim_time_bound);
            assert!(r.sim_cost <= r.sim_cost_bound);
            // the simultaneous variant really costs at most one exploration
            assert!(r.sim_cost <= r.e);
        }
        // Shape: worst time grows with L (linearly for Cheap).
        assert!(rows[2].cheap_time > rows[0].cheap_time);
        assert!(rows[2].sim_time > rows[0].sim_time);
        // Cost does NOT grow with L.
        assert!(rows[2].cheap_cost <= rows[0].cheap_cost_bound);
        let t = render(&rows);
        assert!(t.contains("bound 3E"));
    }
}
