//! Experiment X6 — Theorem 3.2, numerically: any algorithm with time
//! `O(E log L)` has cost `Ω(E log L)`.
//!
//! We run the sector/block construction (aggregate vectors →
//! `DefineProgress` → pigeonhole group → Fact 3.17 witnesses) against
//! `Fast` and report, per `L`: the maximum progress-vector weight in the
//! group and the induced cost witness `k · n/6`. The expected shape is the
//! witness growing with `log L` while `Fast`'s time bound also grows with
//! `log L` — you cannot be fast and cheap at once.
//!
//! Per `L` the trim is one recorded sweep (`common::sweep_trim`); the
//! rest of the construction runs solo executions only.

use crate::common::{ring_setup, sweep_trim};
use rendezvous_core::{Fast, LabelSpace, RendezvousAlgorithm};
use rendezvous_lower_bounds::progress;
use rendezvous_runner::Runner;
use serde::Serialize;

/// One row of the X6 table.
#[derive(Debug, Clone, Serialize)]
pub struct Row {
    /// Ring size (divisible by 6).
    pub n: usize,
    /// Label-space size.
    pub l: u64,
    /// `⌈log₂ L⌉`, the growth driver.
    pub log2_l: u32,
    /// Size of the pigeonhole group analyzed.
    pub group_size: usize,
    /// The group's shared final block index `M`.
    pub m_blocks: usize,
    /// All progress vectors distinct (Fact 3.15 requirement)?
    pub distinct: bool,
    /// Maximum non-zero entries over the group's progress vectors.
    pub max_nonzero: usize,
    /// Fact 3.17 cost witness `(max_nonzero/2) · (n/6)`.
    pub cost_witness: u64,
    /// Per-agent Fact 3.17 checks all passed?
    pub witnesses_hold: bool,
    /// Measured worst cost across the trim executions, for context.
    pub measured_cost: u64,
}

/// Runs the audit for each `L` on an `n`-ring (`6 | n`), in order — the
/// session numbers its sweeps by walk position. An `L` whose trim report
/// is partial (`--plan`, a fabric worker) yields no row.
///
/// # Panics
///
/// Panics if the audit fails (wrong ring size or a non-meeting execution).
#[must_use]
pub fn run(n: usize, ls: &[u64], runner: &Runner) -> Vec<Row> {
    assert_eq!(n % 6, 0, "X6 needs 6 | n");
    ls.iter()
        .filter_map(|&l| {
            let (g, ex) = ring_setup(n);
            let alg = Fast::new(g, ex, LabelSpace::new(l).expect("l >= 2"));
            let trimmed = sweep_trim(&alg, 4 * alg.time_bound(), runner)?;
            let report = progress(&alg, trimmed).expect("audit must succeed");
            Some(Row {
                n,
                l,
                log2_l: l.next_power_of_two().trailing_zeros(),
                group_size: report.group.len(),
                m_blocks: report.m_blocks,
                distinct: report.all_distinct,
                max_nonzero: report.max_nonzero,
                cost_witness: report.cost_witness,
                witnesses_hold: report.witnesses_hold,
                measured_cost: report.trimmed.max_cost,
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
        "log2 L",
        "group",
        "M",
        "distinct",
        "max nonzero",
        "cost witness k*n/6",
        "fact 3.17 holds",
        "measured cost",
    ];
    let body = rows
        .iter()
        .map(|r| {
            vec![
                r.n.to_string(),
                r.l.to_string(),
                r.log2_l.to_string(),
                r.group_size.to_string(),
                r.m_blocks.to_string(),
                r.distinct.to_string(),
                r.max_nonzero.to_string(),
                r.cost_witness.to_string(),
                r.witnesses_hold.to_string(),
                r.measured_cost.to_string(),
            ]
        })
        .collect::<Vec<_>>();
    crate::common::markdown_table(&header, &body)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn x6_witnesses_hold_and_cost_tracks_log_l() {
        let rows = run(12, &[4, 16], &Runner::with_threads(2));
        for r in &rows {
            assert!(r.witnesses_hold, "Fact 3.17 violated at L={}", r.l);
            assert!(r.max_nonzero >= 1);
            assert!(r.measured_cost >= r.cost_witness);
        }
        // More labels -> Fast schedules get longer -> measured cost grows.
        assert!(rows[1].measured_cost >= rows[0].measured_cost);
    }
}
