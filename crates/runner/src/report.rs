//! The one fold: order-independent, keyed aggregation of scenario
//! outcomes into a mergeable [`SweepReport`].
//!
//! Every sweep — pair grids, gathering fleets, topology sweeps — folds
//! into the same report type. Grouping is by a string *fold key*
//! supplied by the workload: plain grids use the empty key (one group),
//! topology sweeps use the graph family (one group per family). Within a
//! group the aggregates are sums, maxima and worst-case witnesses; the
//! witnesses tie-break toward the **lowest global index**, and bound
//! ratios compare by exact `u128` cross-multiplication — never floats —
//! so neither execution order, nor chunking, nor the fabric's lease
//! split and merge order can perturb a single field.

use crate::{Scenario, ScenarioOutcome};
use rendezvous_graph::GraphSpec;
use serde::{Deserialize, Serialize};
use std::cmp::Ordering;

/// The paper bounds a sweep (or one piece of it) is checked against.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Bounds {
    /// Worst-case time bound (rounds from the earlier agent's start).
    pub time: u64,
    /// Worst-case cost bound (total edge traversals).
    pub cost: u64,
}

/// A worst-case witness: which unit of the workload achieved an extreme
/// value, with everything needed to replay it — the scenario is a full
/// configuration, and `spec` (when the workload swept topologies) is a
/// buildable graph recipe.
///
/// Ties break toward the smallest global `index`, which makes the
/// witness independent of execution order, of chunking, and of
/// sharding.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Witness {
    /// Global index of the unit in the swept workload.
    pub index: usize,
    /// The graph recipe the unit ran on, for topology workloads (`None`
    /// when the whole sweep shares one graph).
    pub spec: Option<GraphSpec>,
    /// The adversarial configuration.
    pub scenario: Scenario,
    /// Measured time.
    pub time: u64,
    /// Measured cost.
    pub cost: u64,
    /// The time bound this outcome was judged against: the outcome's own
    /// per-scenario bound (gathering's merge-and-restart bound) when it
    /// carried one, else the piece-level bound, else `None`.
    pub time_bound: Option<u64>,
    /// The cost bound this outcome was judged against, if any.
    pub cost_bound: Option<u64>,
}

impl Witness {
    /// The `time/bound` cell experiments render for a ratio witness —
    /// the bound varies per scenario (or per spec), so a single number
    /// would lie.
    ///
    /// # Panics
    ///
    /// Panics on a witness without a bound; only witnesses with one ever
    /// enter the [`GroupStats::worst_ratio`] slot.
    #[must_use]
    pub fn ratio_label(&self) -> String {
        format!(
            "{}/{}",
            self.time,
            self.time_bound.expect("ratio witnesses carry a bound")
        )
    }
}

/// Orders `a.0/a.1` against `b.0/b.1` by `u128` cross-multiplication —
/// exact, so merge order can never flip a comparison the way float
/// rounding could.
fn ratio_cmp(a: (u64, u64), b: (u64, u64)) -> Ordering {
    (u128::from(a.0) * u128::from(b.1)).cmp(&(u128::from(b.0) * u128::from(a.1)))
}

/// The ratio key of a witness: `(time, time_bound)`. Only witnesses with
/// a bound ever enter the ratio slot.
fn ratio_of(w: &Witness) -> (u64, u64) {
    (w.time, w.time_bound.expect("ratio witnesses carry a bound"))
}

/// Aggregate statistics of one fold group — one graph family of a
/// topology sweep, or the single (empty-key) group of a plain grid
/// sweep.
#[derive(Debug, Clone, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct GroupStats {
    /// The group's fold key (empty for single-group sweeps).
    pub key: String,
    /// Scenarios executed.
    pub executed: usize,
    /// Scenarios in which the agents met (gathered) within the horizon.
    pub meetings: usize,
    /// Scenarios in which they did not — for the paper's algorithms under
    /// a sufficient horizon this must be 0, and callers assert so.
    pub failures: usize,
    /// Maximum time over meeting scenarios.
    pub max_time: u64,
    /// Maximum cost over meeting scenarios.
    pub max_cost: u64,
    /// Sum of times over meeting scenarios.
    pub total_time: u128,
    /// Sum of costs over meeting scenarios.
    pub total_cost: u128,
    /// Total edge crossings observed across all scenarios.
    pub crossings: u64,
    /// Total cluster-merge events across all scenarios (gathering
    /// sweeps; 0 for pair sweeps).
    pub merges: u64,
    /// Meeting scenarios whose time exceeded their bound — the outcome's
    /// own per-scenario bound when it carried one, else the piece-level
    /// [`Bounds::time`].
    pub time_violations: usize,
    /// Meeting scenarios whose cost exceeded the piece-level
    /// [`Bounds::cost`].
    pub cost_violations: usize,
    /// Witness of `max_time` (lowest global index on ties).
    pub worst_time: Option<Witness>,
    /// Witness of `max_cost` (lowest global index on ties).
    pub worst_cost: Option<Witness>,
    /// Witness of the largest `time / time bound` ratio over outcomes
    /// that had a bound to be judged against — the scenario that came
    /// closest to (or past) the guarantee. Exact `u128`
    /// cross-multiplication; lowest global index on ties. `None` when no
    /// outcome carried a bound.
    pub worst_ratio: Option<Witness>,
}

impl GroupStats {
    fn new(key: &str) -> GroupStats {
        GroupStats {
            key: key.to_string(),
            ..GroupStats::default()
        }
    }

    /// Returns `true` if every scenario met and stayed within its bounds.
    #[must_use]
    pub fn clean(&self) -> bool {
        self.failures == 0 && self.time_violations == 0 && self.cost_violations == 0
    }

    /// Folds one indexed outcome into the group. Folding is pure and
    /// index-deterministic: folding the same outcomes always yields the
    /// same stats, in whatever order they arrive.
    pub fn absorb(
        &mut self,
        index: usize,
        spec: Option<&GraphSpec>,
        outcome: &ScenarioOutcome,
        bounds: Option<Bounds>,
    ) {
        self.executed += 1;
        self.crossings += outcome.crossings;
        self.merges += outcome.merges;
        let Some(time) = outcome.time else {
            self.failures += 1;
            return;
        };
        self.meetings += 1;
        self.total_time += u128::from(time);
        self.total_cost += u128::from(outcome.cost);
        self.max_time = self.max_time.max(time);
        self.max_cost = self.max_cost.max(outcome.cost);
        // A per-scenario bound overrides the piece-level time bound:
        // gathering's merge-and-restart bound depends on the fleet, so
        // each outcome is judged against its own.
        let time_bound = outcome.time_bound.or(bounds.map(|b| b.time));
        let cost_bound = bounds.map(|b| b.cost);
        if time_bound.is_some_and(|b| time > b) {
            self.time_violations += 1;
        }
        if cost_bound.is_some_and(|b| outcome.cost > b) {
            self.cost_violations += 1;
        }
        // Decide every slot on plain integers first: ~10 of a sweep's
        // hundreds of thousands of outcomes ever win one, and only those
        // pay for a witness (a scenario and spec clone). The tie-break is
        // explicit lowest-index (not first-absorbed-wins) so the
        // documented witness contract survives folds that absorb
        // outcomes out of index order, e.g. shard merges.
        let cost = outcome.cost;
        let takes_time = takes(&self.worst_time, index, |w| time.cmp(&w.time));
        let takes_cost = takes(&self.worst_cost, index, |w| cost.cmp(&w.cost));
        let takes_ratio = time_bound.is_some_and(|bound| {
            takes(&self.worst_ratio, index, |w| {
                ratio_cmp((time, bound), ratio_of(w))
            })
        });
        if !(takes_time || takes_cost || takes_ratio) {
            return;
        }
        let witness = Witness {
            index,
            spec: spec.cloned(),
            scenario: outcome.scenario.clone(),
            time,
            cost,
            time_bound,
            cost_bound,
        };
        if takes_time {
            self.worst_time = Some(witness.clone());
        }
        if takes_cost {
            self.worst_cost = Some(witness.clone());
        }
        if takes_ratio {
            self.worst_ratio = Some(witness);
        }
    }

    #[must_use]
    fn merge(&self, other: &GroupStats) -> GroupStats {
        assert_eq!(self.key, other.key, "merging different fold groups");
        GroupStats {
            key: self.key.clone(),
            executed: self.executed + other.executed,
            meetings: self.meetings + other.meetings,
            failures: self.failures + other.failures,
            max_time: self.max_time.max(other.max_time),
            max_cost: self.max_cost.max(other.max_cost),
            total_time: self.total_time + other.total_time,
            total_cost: self.total_cost + other.total_cost,
            crossings: self.crossings + other.crossings,
            merges: self.merges + other.merges,
            time_violations: self.time_violations + other.time_violations,
            cost_violations: self.cost_violations + other.cost_violations,
            worst_time: merge_witness(&self.worst_time, &other.worst_time, |a, b| {
                a.time.cmp(&b.time)
            }),
            worst_cost: merge_witness(&self.worst_cost, &other.worst_cost, |a, b| {
                a.cost.cmp(&b.cost)
            }),
            worst_ratio: merge_witness(&self.worst_ratio, &other.worst_ratio, |a, b| {
                ratio_cmp(ratio_of(a), ratio_of(b))
            }),
        }
    }
}

/// Whether a candidate at global `index` takes `slot`: `cmp` orders it
/// against the incumbent, and it wins when greater, or equal at a
/// smaller index.
fn takes(slot: &Option<Witness>, index: usize, cmp: impl Fn(&Witness) -> Ordering) -> bool {
    slot.as_ref().is_none_or(|w| match cmp(w) {
        Ordering::Greater => true,
        Ordering::Equal => index < w.index,
        Ordering::Less => false,
    })
}

/// Lowest-index-on-ties winner between two optional witnesses, ordered
/// by `cmp`: `b` wins exactly when it would take `a`'s slot.
fn merge_witness(
    a: &Option<Witness>,
    b: &Option<Witness>,
    cmp: impl Fn(&Witness, &Witness) -> Ordering,
) -> Option<Witness> {
    match b {
        Some(y) if takes(a, y.index, |x| cmp(y, x)) => b.clone(),
        _ => a.clone(),
    }
}

/// The result of one [`Runner::sweep`](crate::Runner::sweep): per-key
/// aggregates, kept **sorted by key** — so two reports folded from the
/// same outcomes are structurally equal and their JSON is byte-equal.
///
/// Reports are **mergeable**: split a workload into contiguous ranges
/// (see [`Workload::lease_ranges`](crate::Workload::lease_ranges)), sweep
/// each in its own process, serialize, [`SweepReport::merge`] — the
/// result equals the whole-workload sweep field for field, witnesses
/// and their lowest-global-index tie-breaks included (property-tested
/// in `tests/` and CI-diffed end-to-end against the `experiments`
/// binary).
#[derive(Debug, Clone, PartialEq, Eq, Default, Serialize, Deserialize)]
#[must_use = "a sweep report is the sweep's only output; dropping it discards the fold"]
pub struct SweepReport {
    /// Per-key aggregates, sorted by key.
    pub groups: Vec<GroupStats>,
}

impl SweepReport {
    /// The group of `key`, inserted (empty, in key order) if the report
    /// has none yet.
    fn group_mut(&mut self, key: &str) -> &mut GroupStats {
        let slot = match self.groups.binary_search_by(|g| g.key.as_str().cmp(key)) {
            Ok(i) => i,
            Err(i) => {
                self.groups.insert(i, GroupStats::new(key));
                i
            }
        };
        &mut self.groups[slot]
    }

    /// Folds one globally-indexed outcome into its key's group — the
    /// per-outcome reference that [`SweepReport::absorb_piece`] must
    /// agree with.
    pub fn absorb(
        &mut self,
        key: &str,
        index: usize,
        spec: Option<&GraphSpec>,
        outcome: &ScenarioOutcome,
        bounds: Option<Bounds>,
    ) {
        self.group_mut(key).absorb(index, spec, outcome, bounds);
    }

    /// Folds a piece's outcomes, at global indices `offset..`, into
    /// their key's group with **one** group lookup for the whole piece.
    /// Equal to calling [`SweepReport::absorb`] per outcome; an empty
    /// piece leaves the report untouched (no empty group appears).
    pub fn absorb_piece(
        &mut self,
        key: &str,
        offset: usize,
        spec: Option<&GraphSpec>,
        outcomes: &[ScenarioOutcome],
        bounds: Option<Bounds>,
    ) {
        if outcomes.is_empty() {
            return;
        }
        let group = self.group_mut(key);
        for (k, outcome) in outcomes.iter().enumerate() {
            group.absorb(offset + k, spec, outcome, bounds);
        }
    }

    /// Combines the reports of two disjoint index ranges of one sweep —
    /// associative and commutative, since every field is a sum, a max, or
    /// an index-tie-broken witness, and groups stay sorted by key.
    pub fn merge(&self, other: &SweepReport) -> SweepReport {
        let mut groups = Vec::with_capacity(self.groups.len().max(other.groups.len()));
        let (mut i, mut j) = (0, 0);
        while i < self.groups.len() && j < other.groups.len() {
            let (a, b) = (&self.groups[i], &other.groups[j]);
            match a.key.cmp(&b.key) {
                Ordering::Less => {
                    groups.push(a.clone());
                    i += 1;
                }
                Ordering::Greater => {
                    groups.push(b.clone());
                    j += 1;
                }
                Ordering::Equal => {
                    groups.push(a.merge(b));
                    i += 1;
                    j += 1;
                }
            }
        }
        groups.extend_from_slice(&self.groups[i..]);
        groups.extend_from_slice(&other.groups[j..]);
        SweepReport { groups }
    }

    /// The aggregate of one key's group, if that key was swept.
    #[must_use]
    pub fn group(&self, key: &str) -> Option<&GroupStats> {
        self.groups
            .binary_search_by(|g| g.key.as_str().cmp(key))
            .ok()
            .map(|i| &self.groups[i])
    }

    /// The single group of an ungrouped (empty-key) sweep — or an empty
    /// default when the report folded nothing (a shard of a tiny workload
    /// may legitimately execute zero units).
    ///
    /// # Panics
    ///
    /// Panics if the report holds more than one group: a grouped report
    /// has no single "the" stats, ask for a [`SweepReport::group`].
    #[must_use]
    pub fn solo(&self) -> GroupStats {
        assert!(
            self.groups.len() <= 1,
            "solo() on a report with {} groups — use group(key)",
            self.groups.len()
        );
        self.groups.first().cloned().unwrap_or_default()
    }

    /// Total scenarios executed across all groups.
    #[must_use]
    pub fn executed(&self) -> usize {
        self.groups.iter().map(|g| g.executed).sum()
    }

    /// Total non-meeting scenarios across all groups.
    #[must_use]
    pub fn failures(&self) -> usize {
        self.groups.iter().map(|g| g.failures).sum()
    }

    /// Total bound violations (time + cost) across all groups.
    #[must_use]
    pub fn violations(&self) -> usize {
        self.groups
            .iter()
            .map(|g| g.time_violations + g.cost_violations)
            .sum()
    }

    /// `true` when every scenario met and stayed within its bounds.
    #[must_use]
    pub fn clean(&self) -> bool {
        self.failures() == 0 && self.violations() == 0
    }
}

/// Folds outcomes (at their slice positions, under the empty key) into
/// a [`SweepReport`] — the reference fold that chunked and sharded
/// sweeps must agree with.
pub fn fold_outcomes(outcomes: &[ScenarioOutcome], bounds: Option<Bounds>) -> SweepReport {
    let mut report = SweepReport::default();
    for (index, outcome) in outcomes.iter().enumerate() {
        report.absorb("", index, None, outcome, bounds);
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rendezvous_graph::NodeId;

    fn outcome(time: Option<u64>, cost: u64, crossings: u64) -> ScenarioOutcome {
        ScenarioOutcome::pairwise(
            Scenario::pair(1, 2, NodeId::new(0), NodeId::new(1), 0, 10),
            time,
            cost,
            crossings,
        )
    }

    /// A gathering-style outcome: carries its own merge-and-restart bound
    /// and a merge-event count.
    fn fleet_outcome(time: Option<u64>, cost: u64, bound: u64, merges: u64) -> ScenarioOutcome {
        let mut o = outcome(time, cost, 0);
        o.time_bound = Some(bound);
        o.merges = merges;
        o
    }

    #[test]
    fn fold_tracks_extremes_means_and_failures() {
        let outcomes = vec![
            outcome(Some(4), 2, 0),
            outcome(None, 9, 1),
            outcome(Some(10), 1, 0),
            outcome(Some(10), 8, 2),
        ];
        let bounds = Some(Bounds { time: 9, cost: 100 });
        let stats = fold_outcomes(&outcomes, bounds).solo();
        assert_eq!(stats.executed, 4);
        assert_eq!(stats.meetings, 3);
        assert_eq!(stats.failures, 1);
        assert_eq!(stats.max_time, 10);
        assert_eq!(stats.max_cost, 8);
        assert_eq!(stats.crossings, 3);
        // First scenario reaching the max wins ties.
        assert_eq!(stats.worst_time.as_ref().unwrap().index, 2);
        assert_eq!(stats.worst_cost.as_ref().unwrap().index, 3);
        // Only times 10, 10 exceeded the time bound of 9.
        assert_eq!(stats.time_violations, 2);
        assert_eq!(stats.cost_violations, 0);
        assert!(!stats.clean());
        assert_eq!((stats.total_time, stats.total_cost), (24, 11));
        // With sweep-level bounds every meeting has a ratio witness; the
        // worst is 10/9 at index 2 (lowest index of the tie).
        let w = stats.worst_ratio.as_ref().unwrap();
        assert_eq!((w.index, w.time, w.time_bound), (2, 10, Some(9)));
    }

    #[test]
    fn tie_break_picks_lowest_index_even_when_absorbed_out_of_order() {
        // Simulates a shard merge: the higher-index shard folds first.
        // The witness contract (lowest index on ties) must still hold.
        let a = outcome(Some(10), 5, 0);
        let b = outcome(Some(10), 5, 0);
        let mut report = SweepReport::default();
        report.absorb("", 7, None, &b, None);
        report.absorb("", 2, None, &a, None);
        let stats = report.solo();
        assert_eq!(stats.worst_time.as_ref().unwrap().index, 2);
        assert_eq!(stats.worst_cost.as_ref().unwrap().index, 2);
        // In-order folding agrees.
        let ordered = fold_outcomes(&[a, b], None).solo();
        assert_eq!(ordered.worst_time.as_ref().unwrap().index, 0);
        assert_eq!(stats.max_time, ordered.max_time);
    }

    #[test]
    fn merge_equals_one_pass_fold_and_is_associative() {
        let outcomes = vec![
            outcome(Some(4), 2, 0),
            outcome(None, 9, 1),
            outcome(Some(10), 1, 0),
            outcome(Some(10), 8, 2),
            outcome(Some(3), 8, 0),
        ];
        let bounds = Some(Bounds { time: 9, cost: 7 });
        let whole = fold_outcomes(&outcomes, bounds);
        // Split at every point: left ++ right must merge back to `whole`.
        for split in 0..=outcomes.len() {
            let mut left = SweepReport::default();
            let mut right = SweepReport::default();
            for (i, o) in outcomes.iter().enumerate() {
                if i < split {
                    left.absorb("", i, None, o, bounds);
                } else {
                    right.absorb("", i, None, o, bounds);
                }
            }
            assert_eq!(left.merge(&right), whole, "split at {split}");
            // Commutes, because indices carry the order.
            assert_eq!(right.merge(&left), whole, "swapped split at {split}");
        }
        // Associativity over a three-way split.
        let mut parts: [SweepReport; 3] = Default::default();
        for (i, o) in outcomes.iter().enumerate() {
            parts[i % 3].absorb("", i, None, o, bounds);
        }
        let ab_c = parts[0].merge(&parts[1]).merge(&parts[2]);
        let a_bc = parts[0].merge(&parts[1].merge(&parts[2]));
        assert_eq!(ab_c, a_bc);
        assert_eq!(ab_c, whole);
    }

    #[test]
    fn merge_tie_breaks_witnesses_by_lowest_global_index() {
        let w = outcome(Some(10), 5, 0);
        let mut low = SweepReport::default();
        low.absorb("", 3, None, &w, None);
        let mut high = SweepReport::default();
        high.absorb("", 11, None, &w, None);
        // Either merge order: the index-3 witness must win both extremes.
        assert_eq!(low.merge(&high).solo().worst_time.unwrap().index, 3);
        assert_eq!(high.merge(&low).solo().worst_time.unwrap().index, 3);
        assert_eq!(high.merge(&low).solo().worst_cost.unwrap().index, 3);
    }

    #[test]
    fn merge_with_empty_is_identity() {
        let mut report = SweepReport::default();
        report.absorb("", 0, None, &outcome(Some(7), 4, 1), None);
        let empty = SweepReport::default();
        assert_eq!(report.merge(&empty), report);
        assert_eq!(empty.merge(&report), report);
    }

    #[test]
    fn keyed_groups_stay_sorted_and_merge_by_key() {
        let bounds = Some(Bounds { time: 50, cost: 50 });
        let mut whole = SweepReport::default();
        let mut parts = [
            SweepReport::default(),
            SweepReport::default(),
            SweepReport::default(),
        ];
        let samples = [
            ("ring", 0, outcome(Some(4), 2, 0)),
            ("tree", 1, outcome(Some(9), 9, 0)),
            ("ring", 2, outcome(Some(4), 1, 0)),
            ("tree", 3, outcome(None, 0, 0)),
            ("ring", 4, outcome(Some(2), 8, 0)),
        ];
        for (k, (key, idx, o)) in samples.iter().enumerate() {
            whole.absorb(key, *idx, None, o, bounds);
            parts[k % 3].absorb(key, *idx, None, o, bounds);
        }
        let ab_c = parts[0].merge(&parts[1]).merge(&parts[2]);
        let a_bc = parts[0].merge(&parts[1].merge(&parts[2]));
        let cba = parts[2].merge(&parts[1]).merge(&parts[0]);
        assert_eq!(ab_c, whole);
        assert_eq!(a_bc, whole);
        assert_eq!(cba, whole);
        // Groups stay sorted, so JSON is byte-stable.
        let keys: Vec<&str> = whole.groups.iter().map(|g| g.key.as_str()).collect();
        assert_eq!(keys, ["ring", "tree"]);
        assert_eq!(whole.merge(&SweepReport::default()), whole);
        assert_eq!(whole.executed(), 5);
        assert_eq!(whole.failures(), 1);
        assert_eq!(whole.group("ring").unwrap().executed, 3);
        assert!(whole.group("torus").is_none());
        assert!(!whole.clean());
    }

    #[test]
    #[should_panic(expected = "use group(key)")]
    fn solo_rejects_grouped_reports() {
        let mut report = SweepReport::default();
        report.absorb("a", 0, None, &outcome(Some(1), 1, 0), None);
        report.absorb("b", 1, None, &outcome(Some(1), 1, 0), None);
        let _ = report.solo();
    }

    /// Per-scenario bounds (gathering): violations are judged against
    /// each outcome's own bound, merge events accumulate, and the
    /// worst-ratio witness is ranked by exact cross-multiplication.
    #[test]
    fn per_scenario_bounds_drive_violations_ratio_and_merges() {
        let outcomes = vec![
            fleet_outcome(Some(10), 4, 40, 1), // ratio 1/4
            fleet_outcome(Some(9), 2, 27, 2),  // ratio 1/3 — the worst
            fleet_outcome(Some(50), 9, 45, 3), // violation! ratio 10/9
            fleet_outcome(None, 0, 45, 0),     // failure, no ratio
        ];
        let stats = fold_outcomes(&outcomes, None).solo();
        assert_eq!(stats.merges, 6);
        assert_eq!(stats.time_violations, 1, "only 50 > 45");
        assert_eq!(stats.failures, 1);
        let w = stats.worst_ratio.as_ref().unwrap();
        assert_eq!((w.index, w.time, w.time_bound), (2, 50, Some(45)));
        // Without the violating outcome, the exact comparison must pick
        // 9/27 == 1/3 over 10/40 == 1/4.
        let stats = fold_outcomes(&outcomes[..2], None).solo();
        assert_eq!(stats.time_violations, 0);
        let w = stats.worst_ratio.as_ref().unwrap();
        assert_eq!((w.index, w.time, w.time_bound), (1, 9, Some(27)));
    }

    /// Exact ratio ties (7/21 == 9/27) break toward the lowest index —
    /// floats would have rounded — and the rule survives merges in both
    /// orders.
    #[test]
    fn ratio_ties_break_by_lowest_index_across_merges() {
        let x = fleet_outcome(Some(7), 1, 21, 0);
        let y = fleet_outcome(Some(9), 1, 27, 0);
        let mut low = SweepReport::default();
        low.absorb("", 3, None, &x, None);
        let mut high = SweepReport::default();
        high.absorb("", 11, None, &y, None);
        for merged in [low.merge(&high), high.merge(&low)] {
            assert_eq!(merged.solo().worst_ratio.as_ref().unwrap().index, 3);
        }
        // In-order folding agrees with the merge.
        let mut folded = SweepReport::default();
        folded.absorb("", 3, None, &x, None);
        folded.absorb("", 11, None, &y, None);
        assert_eq!(
            folded.solo().worst_ratio,
            low.merge(&high).solo().worst_ratio
        );
    }

    /// A per-scenario bound overrides the piece-level one for the time
    /// violation check and the ratio witness; the piece-level cost bound
    /// still applies.
    #[test]
    fn per_scenario_bounds_override_piece_bounds() {
        let bounds = Some(Bounds {
            time: 100,
            cost: 100,
        });
        let mut report = SweepReport::default();
        let mut violating = outcome(Some(30), 5, 0);
        violating.time_bound = Some(25); // beyond its own bound…
        violating.merges = 2;
        let mut clean = outcome(Some(10), 5, 0);
        clean.time_bound = Some(40); // …this one within its own
        clean.merges = 1;
        report.absorb("", 0, None, &violating, bounds);
        report.absorb("", 1, None, &clean, bounds);
        let stats = report.solo();
        assert_eq!(
            stats.time_violations, 1,
            "30 > 25 violates even though 30 < 100"
        );
        assert_eq!(stats.merges, 3);
        let w = stats.worst_ratio.as_ref().unwrap();
        assert_eq!((w.time, w.time_bound), (30, Some(25)), "30/25 > 10/40");
        assert!(!stats.clean());
    }

    #[test]
    fn report_serde_round_trip_is_byte_identical() {
        let bounds = Some(Bounds { time: 9, cost: 7 });
        let mut report = fold_outcomes(
            &[
                outcome(Some(4), 2, 0),
                outcome(None, 9, 1),
                outcome(Some(10), 8, 2),
            ],
            bounds,
        );
        // A topology-style group with a spec-carrying witness.
        let spec = GraphSpec::permuted(GraphSpec::Ring(rendezvous_graph::RingSpec { n: 5 }), 9);
        report.absorb(
            "permuted-ring",
            12,
            Some(&spec),
            &outcome(Some(12), 7, 0),
            Some(Bounds { time: 40, cost: 60 }),
        );
        // Exercise the u128 string fallback path too.
        report.groups[0].total_time += u128::from(u64::MAX) * 3;
        let text = serde_json::to_string(&report).unwrap();
        let back: SweepReport = serde_json::from_str(&text).unwrap();
        assert_eq!(back, report);
        // Byte-identical re-serialization: what fabric replays rely on.
        assert_eq!(serde_json::to_string(&back).unwrap(), text);
        // The witness's spec survives as a buildable recipe.
        let w = back
            .group("permuted-ring")
            .unwrap()
            .worst_time
            .clone()
            .unwrap();
        assert_eq!(w.spec.unwrap().build().unwrap().node_count(), 5);
        // And an all-default (witness-free) report round-trips as well.
        let empty = SweepReport::default();
        let back: SweepReport =
            serde_json::from_str(&serde_json::to_string(&empty).unwrap()).unwrap();
        assert_eq!(back, empty);
    }

    /// `Some(value)` unless `flag` is 0 — the vendored proptest has no
    /// option strategy.
    fn some_unless_zero(flag: u8, value: u64) -> Option<u64> {
        (flag != 0).then_some(value)
    }

    /// One generated outcome: time (`None` = no meeting), cost,
    /// crossings, per-outcome time bound, merges. Small ranges force
    /// equal-time, equal-cost and equal-ratio ties at different indices.
    fn arb_outcome() -> impl Strategy<Value = ScenarioOutcome> {
        (
            (0u8..6, 0u64..6),
            0u64..6,
            0u64..3,
            (0u8..2, 1u64..8),
            0u64..3,
        )
            .prop_map(|((met, time), cost, crossings, (own, bound), merges)| {
                let mut o = outcome(some_unless_zero(met, time), cost, crossings);
                o.time_bound = some_unless_zero(own, bound);
                o.merges = merges;
                o
            })
    }

    fn arb_bounds() -> impl Strategy<Value = Option<Bounds>> {
        (0u8..3, 1u64..8, 1u64..8)
            .prop_map(|(flag, time, cost)| (flag != 0).then_some(Bounds { time, cost }))
    }

    const KEYS: [&str; 3] = ["", "ring", "tree"];

    /// A piece: fold key, its outcomes and its piece-level bounds.
    type Piece = (&'static str, Vec<ScenarioOutcome>, Option<Bounds>);

    fn arb_pieces() -> impl Strategy<Value = Vec<Piece>> {
        collection::vec(
            (
                0usize..KEYS.len(),
                collection::vec(arb_outcome(), 0..12),
                arb_bounds(),
            )
                .prop_map(|(key, outcomes, bounds)| (KEYS[key], outcomes, bounds)),
            0..10,
        )
    }

    /// The graph recipe a key's witnesses carry (`None` for the empty
    /// key, like a plain grid).
    fn spec_of(key: &str) -> Option<GraphSpec> {
        (!key.is_empty()).then(|| GraphSpec::Ring(rendezvous_graph::RingSpec { n: 3 + key.len() }))
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Folding piece by piece (one group lookup per piece, witnesses
        /// built only on a win) equals the per-outcome fold, and both
        /// equal the eager reference: every outcome as its own report,
        /// merged in reverse index order through the witness-to-witness
        /// comparisons of `merge`. Folding the pieces in reverse order
        /// (as a shard merge may) exercises the lowest-index tie-break.
        #[test]
        fn piece_fold_equals_per_outcome_and_eager_folds(pieces in arb_pieces()) {
            let mut by_piece = SweepReport::default();
            let mut by_outcome = SweepReport::default();
            let mut singles = Vec::new();
            let mut placed = Vec::new();
            let mut offset = 0;
            for (key, outcomes, bounds) in &pieces {
                let spec = spec_of(key);
                by_piece.absorb_piece(key, offset, spec.as_ref(), outcomes, *bounds);
                placed.push((offset, spec.clone()));
                for (k, o) in outcomes.iter().enumerate() {
                    by_outcome.absorb(key, offset + k, spec.as_ref(), o, *bounds);
                    let mut single = SweepReport::default();
                    single.absorb(key, offset + k, spec.as_ref(), o, *bounds);
                    singles.push(single);
                }
                offset += outcomes.len();
            }
            let eager = singles
                .iter()
                .rev()
                .fold(SweepReport::default(), |acc, single| acc.merge(single));
            let mut reversed = SweepReport::default();
            for ((key, outcomes, bounds), (offset, spec)) in pieces.iter().zip(&placed).rev() {
                reversed.absorb_piece(key, *offset, spec.as_ref(), outcomes, *bounds);
            }
            prop_assert_eq!(&by_piece, &by_outcome);
            prop_assert_eq!(&by_piece, &eager);
            prop_assert_eq!(&by_piece, &reversed);
        }

        /// Under one key and one bound, any split of an outcome vector
        /// into pieces folds to `fold_outcomes`, field for field.
        #[test]
        fn split_piece_fold_equals_fold_outcomes(
            outcomes in collection::vec(arb_outcome(), 0..60),
            bounds in arb_bounds(),
            mut cuts in collection::vec(0usize..60, 0..6),
        ) {
            cuts.push(outcomes.len());
            cuts.iter_mut().for_each(|c| *c = (*c).min(outcomes.len()));
            cuts.sort_unstable();
            let mut report = SweepReport::default();
            let mut lo = 0;
            for hi in cuts {
                report.absorb_piece("", lo, None, &outcomes[lo..hi], bounds);
                lo = hi;
            }
            prop_assert_eq!(report, fold_outcomes(&outcomes, bounds));
        }
    }

    #[test]
    fn empty_fold_is_clean_zero() {
        let report = fold_outcomes(&[], None);
        let stats = report.solo();
        assert_eq!(stats.executed, 0);
        assert!(stats.clean());
        assert!(report.clean());
        assert_eq!((stats.total_time, stats.total_cost), (0, 0));
        assert!(stats.worst_time.is_none());
    }
}
