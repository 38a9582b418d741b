//! Experiment X5 — Theorem 3.1, numerically: any algorithm of cost
//! `E + o(E)` needs time `Ω(EL)`.
//!
//! We run the paper's own construction (trim → eager tournament → Rédei
//! path → execution chain) against `CheapSimultaneous` (cost exactly ≤ E,
//! so `φ = 0`) and report, per `L`: the Fact 3.8 witness
//! `(⌊L/2⌋−1)(F−3φ)/2`, the measured final chain time, and the paper's
//! matching upper bound — the time really does grow linearly in `L`.
//!
//! Per `L` the trim is one recorded sweep (`common::sweep_trim`); the
//! chain's executions then run as one batch on the same engine.

use crate::common::{ring_setup, sweep_trim};
use rendezvous_core::{CheapSimultaneous, LabelSpace, RendezvousAlgorithm};
use rendezvous_lower_bounds::eager_chain;
use rendezvous_runner::Runner;
use serde::Serialize;

/// One row of the X5 table.
#[derive(Debug, Clone, Serialize)]
pub struct Row {
    /// Ring size.
    pub n: usize,
    /// Label-space size.
    pub l: u64,
    /// `F = ⌈E/2⌉`.
    pub f: u64,
    /// Measured cost slack `φ` (0 for the cheap variant).
    pub phi: u64,
    /// Number of heavy-side agents in the tournament.
    pub heavy: usize,
    /// Fact 3.8 witness `(⌊L/2⌋−1)(F−3φ)/2`.
    pub witness: u64,
    /// Measured final chain execution time.
    pub chain_time: u64,
    /// Fact 3.7: chain strictly increasing.
    pub increasing: bool,
    /// Algorithm's own worst-case time bound `(L−1)E` for context.
    pub upper_bound: u64,
}

/// Runs the audit for each `L` on an `n`-ring, in order — the session
/// numbers its sweeps by walk position. An `L` whose trim report is
/// partial (`--plan`, a fabric worker) yields no row.
///
/// # Panics
///
/// Panics if the audit fails (it cannot, for `CheapSimultaneous`).
#[must_use]
pub fn run(n: usize, ls: &[u64], runner: &Runner) -> Vec<Row> {
    ls.iter()
        .filter_map(|&l| {
            let (g, ex) = ring_setup(n);
            let alg = CheapSimultaneous::new(g, ex, LabelSpace::new(l).expect("l >= 2"));
            let trimmed = sweep_trim(&alg, 20 * alg.time_bound(), runner)?;
            // The chain is no sweep unit, so its executor carries no
            // telemetry sink: the sidecar's scenario counts stay equal
            // across direct, fabric and store runs.
            let chain = crate::engine::current().executor(&alg, None, &Runner::sequential());
            let report = eager_chain(&alg, trimmed, &*chain, runner).expect("audit must succeed");
            Some(Row {
                n,
                l,
                f: report.f,
                phi: report.phi,
                heavy: report.heavy.len(),
                witness: report.witness,
                chain_time: report.chain_final_time(),
                increasing: report.strictly_increasing,
                upper_bound: alg.time_bound(),
            })
        })
        .collect()
}

/// Renders the table.
#[must_use]
pub fn render(rows: &[Row]) -> String {
    let header = [
        "n",
        "L",
        "F",
        "phi",
        "heavy",
        "witness (L/2-1)(F-3phi)/2",
        "measured chain time",
        "increasing",
        "upper bound (L-1)E",
    ];
    let body = rows
        .iter()
        .map(|r| {
            vec![
                r.n.to_string(),
                r.l.to_string(),
                r.f.to_string(),
                r.phi.to_string(),
                r.heavy.to_string(),
                r.witness.to_string(),
                r.chain_time.to_string(),
                r.increasing.to_string(),
                r.upper_bound.to_string(),
            ]
        })
        .collect::<Vec<_>>();
    crate::common::markdown_table(&header, &body)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn x5_witness_grows_linearly_and_holds() {
        let rows = run(12, &[4, 8, 12], &Runner::sequential());
        for r in &rows {
            assert_eq!(r.phi, 0);
            assert!(r.increasing, "Fact 3.7 violated at L={}", r.l);
            assert!(
                r.chain_time >= r.witness,
                "L={}: chain {} < witness {}",
                r.l,
                r.chain_time,
                r.witness
            );
            assert!(r.chain_time <= r.upper_bound);
        }
        // Linear growth of the witness in L (the Ω(EL) shape).
        assert!(rows[2].witness >= 2 * rows[0].witness);
        assert!(rows[2].chain_time > rows[0].chain_time);
    }
}
