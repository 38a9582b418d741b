//! Declarative enumeration of adversarial sweeps.

use crate::workload::{WorkPiece, Workload, WorkloadKind, WorkloadMeta};
use crate::{Placement, Scenario};
use rendezvous_core::{rotation_equivariant, RendezvousAlgorithm};
use rendezvous_graph::{NodeId, PortLabeledGraph};

/// The deterministic placement-spreading rule of a fleet sweep: given a
/// fleet size `k`, a start rotation and a delay phase, it lays `k` agents
/// out over the graph — labels spread evenly across `{1, …, L}`, starts
/// spread evenly over the `n` nodes (rotated by the rotation axis), and
/// wake-up delays staggered by the linear congruence
/// `(7 · i + phase) mod 13`.
///
/// The rule is what turns the [`Grid`]'s scalar fleet axes (sizes ×
/// rotations × delay phases) into full k-agent [`Scenario`]s while
/// keeping enumeration index-stable: the same `(k, rotation, phase)`
/// always produces the same placements.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FleetRule {
    /// Node count of the graph the placements spread over.
    nodes: usize,
    /// Size of the label space placements draw from (labels `1..=L`).
    label_space: u64,
}

/// Delay stagger stride: agent `i` sleeps `(DELAY_STRIDE·i + phase) mod
/// DELAY_MODULUS` rounds.
const DELAY_STRIDE: u64 = 7;
/// Delay stagger modulus.
const DELAY_MODULUS: u64 = 13;

impl FleetRule {
    /// The standard spreading rule over `graph` with label space `L` and
    /// the X9 stagger `(7·i) mod 13`.
    ///
    /// # Panics
    ///
    /// Panics if `label_space < 2` — a fleet needs two distinct labels.
    #[must_use]
    pub fn spread(graph: &PortLabeledGraph, label_space: u64) -> Self {
        assert!(
            label_space >= 2,
            "label space of size {label_space} cannot hold two distinct labels"
        );
        FleetRule {
            nodes: graph.node_count(),
            label_space,
        }
    }

    /// Folds the rule's parameters into a workload digest — fleet grids
    /// with different spreads enumerate different placement lists even
    /// at equal sizes, so the rule is part of the space's identity.
    pub(crate) fn digest_into(&self, h: &mut crate::workload::Fnv1a) {
        h.write_usize(self.nodes);
        h.write_u64(self.label_space);
        h.write_u64(DELAY_STRIDE);
        h.write_u64(DELAY_MODULUS);
    }

    /// The largest fleet this rule can place: every agent needs its own
    /// start node and its own label.
    #[must_use]
    pub fn max_fleet(&self) -> usize {
        let by_labels = usize::try_from(self.label_space).unwrap_or(usize::MAX);
        self.nodes.min(by_labels)
    }

    /// The largest wake-up delay this rule's stagger can ever produce
    /// (`DELAY_MODULUS − 1`, that is 12) — what horizon and loosest-bound
    /// calculations should be sized against.
    #[must_use]
    pub fn max_delay(&self) -> u64 {
        DELAY_MODULUS - 1
    }

    /// Lays out a `k`-agent fleet: distinct labels spread over
    /// `{1, …, L}`, distinct starts spread over the nodes (shifted by
    /// `rotation`), staggered delays shifted by `phase`.
    ///
    /// # Panics
    ///
    /// Panics if `k < 2` or `k > self.max_fleet()` (the spread cannot
    /// keep labels and starts distinct beyond that).
    #[must_use]
    pub fn placements(&self, k: usize, rotation: usize, phase: u64) -> Vec<Placement> {
        assert!(
            k >= 2 && k <= self.max_fleet(),
            "fleet of {k} does not fit {} nodes / {} labels",
            self.nodes,
            self.label_space
        );
        let l = self.label_space;
        (0..k)
            .map(|i| Placement {
                // Evenly spread over {1, …, L}: agent 0 gets 1, the last
                // agent gets L, intermediate agents interpolate. Strictly
                // increasing because k ≤ L.
                label: 1 + (i as u64 * (l - 1)) / (k as u64 - 1).max(1),
                // Evenly spread over the n nodes, rotated; ⌊i·n/k⌋ takes k
                // distinct values in 0..n because k ≤ n, and the rotation
                // is a bijection mod n, so starts stay pairwise distinct.
                start: NodeId::new((i * self.nodes / k + rotation) % self.nodes),
                delay: (DELAY_STRIDE * i as u64 + phase) % DELAY_MODULUS,
            })
            .collect()
    }
}

/// Builder for an adversarial configuration sweep, in one of two modes:
///
/// * **pair mode** (the default): ordered label pairs × ordered distinct
///   start pairs × wake-up delays, each combination becoming one
///   two-agent [`Scenario`];
/// * **fleet mode** ([`Grid::fleet_sizes`]): fleet sizes × start
///   rotations × delay phases, each combination expanded into a k-agent
///   [`Scenario`] by the grid's [`FleetRule`].
///
/// The two modes are mutually exclusive; pair-mode enumeration, the
/// sampling cap and range enumeration are bit-for-bit unchanged by the
/// existence of fleet mode (regression-tested below), so pair sweeps
/// produce byte-identical outputs either way.
///
/// For spaces too large to exhaust, [`Grid::sample_cap`] keeps a
/// deterministic evenly-strided subsample — the same cap always selects
/// the same scenarios, so capped sweeps stay reproducible.
#[derive(Debug, Clone)]
pub struct Grid {
    horizon: u64,
    /// Ordered (first, second) label pairs.
    label_pairs: Vec<(u64, u64)>,
    /// Ordered (start_a, start_b) pairs, `a != b`.
    start_pairs: Vec<(NodeId, NodeId)>,
    delays: Vec<u64>,
    cap: Option<usize>,
    /// Fleet mode: the `k` axis (empty = pair mode).
    fleet_sizes: Vec<usize>,
    /// Fleet mode: how placements spread for a given `(k, rotation, phase)`.
    fleet_rule: Option<FleetRule>,
    /// Fleet mode: the start-rotation axis (default `[0]`).
    rotations: Vec<usize>,
}

impl Grid {
    /// Creates an empty grid whose scenarios get round budget `horizon`.
    #[must_use]
    pub fn new(horizon: u64) -> Self {
        Grid {
            horizon,
            label_pairs: Vec::new(),
            start_pairs: Vec::new(),
            delays: vec![0],
            cap: None,
            fleet_sizes: Vec::new(),
            fleet_rule: None,
            rotations: vec![0],
        }
    }

    /// Adds ordered label pairs exactly as given (first agent gets `.0`).
    #[must_use]
    pub fn label_pairs_ordered(mut self, pairs: &[(u64, u64)]) -> Self {
        assert!(
            self.fleet_sizes.is_empty(),
            "label pairs are a pair-mode axis; this grid sweeps fleets"
        );
        self.label_pairs.extend_from_slice(pairs);
        self
    }

    /// Adds each unordered label pair in both role orders — the adversary
    /// also chooses *which* agent is woken first.
    #[must_use]
    pub fn label_pairs_both_orders(mut self, pairs: &[(u64, u64)]) -> Self {
        assert!(
            self.fleet_sizes.is_empty(),
            "label pairs are a pair-mode axis; this grid sweeps fleets"
        );
        for &(a, b) in pairs {
            self.label_pairs.push((a, b));
            self.label_pairs.push((b, a));
        }
        self
    }

    /// Sweeps all ordered pairs of distinct start nodes of `graph`.
    #[must_use]
    pub fn all_start_pairs(mut self, graph: &PortLabeledGraph) -> Self {
        assert!(
            self.fleet_sizes.is_empty(),
            "start pairs are a pair-mode axis; this grid sweeps fleets"
        );
        let n = graph.node_count();
        self.start_pairs.reserve(n * n.saturating_sub(1));
        for a in 0..n {
            for b in 0..n {
                if a != b {
                    self.start_pairs.push((NodeId::new(a), NodeId::new(b)));
                }
            }
        }
        self
    }

    /// Sweeps every ordered pair of distinct start nodes **up to
    /// rotation** when that is exact, and all of them otherwise: the one
    /// place a pair sweep chooses its start axis.
    ///
    /// If [`rotation_equivariant`] certifies `algorithm` for the labels
    /// of the grid's label pairs (so set those first), the axis is the
    /// orbit representatives (0, d) for d = 1…n−1. Rotating both starts
    /// then changes no execution's meeting round, cost or crossings,
    /// and the rotation v ↦ v + k acts freely on distinct ordered pairs,
    /// so each orbit holds exactly n of the n(n−1) pairs and contains
    /// (0, b − a mod n). Hence:
    ///
    /// * maxima, failures and bound violations equal the full axis's;
    /// * the full axis's lowest-index witness and first failure are
    ///   always some (0, d) (for a fixed label pair and delay, the pairs
    ///   with a = 0 come first and cover every orbit), so the same
    ///   scenarios are named, in the same order;
    /// * counts (executed, meetings, total time) are those of the
    ///   executions that ran, 1/n of the full axis's.
    ///
    /// Otherwise (a map-based explorer such as `DfsMapExplorer` on a
    /// grid or tree fails the certificate) it is
    /// [`Grid::all_start_pairs`]. Capped grids should
    /// keep [`Grid::all_start_pairs`]: a stride sample over the reduced
    /// axis picks other scenarios than one over the full axis.
    ///
    /// # Panics
    ///
    /// Panics in fleet mode or when no label pair is set yet.
    #[must_use]
    pub fn start_orbits(mut self, algorithm: &dyn RendezvousAlgorithm) -> Self {
        assert!(
            !self.label_pairs.is_empty(),
            "start orbits are certified for the grid's label pairs: set them first"
        );
        let labels: Vec<u64> = self.label_pairs.iter().flat_map(|&(a, b)| [a, b]).collect();
        if !rotation_equivariant(algorithm, &labels) {
            return self.all_start_pairs(algorithm.graph());
        }
        let n = algorithm.graph().node_count();
        self.start_pairs
            .extend((1..n).map(|d| (NodeId::new(0), NodeId::new(d))));
        self
    }

    /// Number of entries of the start-pair axis.
    #[must_use]
    pub fn start_pair_count(&self) -> usize {
        self.start_pairs.len()
    }

    /// Sweeps the given ordered start pairs, **skipping** any pair whose
    /// two nodes coincide: a [`Scenario`] places two distinct agents, and
    /// `start_a == start_b` would be an immediate zero-time "meeting" that
    /// silently deflates worst-case sweeps. Rejecting at this boundary
    /// keeps the invariant out of every caller's hands (regression-tested
    /// below).
    #[must_use]
    pub fn start_pairs(mut self, pairs: &[(NodeId, NodeId)]) -> Self {
        assert!(
            self.fleet_sizes.is_empty(),
            "start pairs are a pair-mode axis; this grid sweeps fleets"
        );
        self.start_pairs
            .extend(pairs.iter().copied().filter(|(a, b)| a != b));
        self
    }

    /// Sets the wake-up delays applied to the second agent (default
    /// `[0]`). In fleet mode the same axis supplies the delay *phases*
    /// fed to the [`FleetRule`]'s stagger.
    ///
    /// The axis is sorted and deduplicated: a repeated delay is the same
    /// adversary choice, and enumeration order (hence witness tie-breaks)
    /// should not depend on how the caller happened to list the values.
    #[must_use]
    pub fn delays(mut self, delays: &[u64]) -> Self {
        self.delays = delays.to_vec();
        self.delays.sort_unstable();
        self.delays.dedup();
        self
    }

    /// Switches the grid into **fleet mode**, sweeping the given fleet
    /// sizes `k`. Requires a [`Grid::fleet_rule`] before enumeration and
    /// excludes the pair-mode axes.
    ///
    /// # Panics
    ///
    /// Panics if pair-mode axes were already configured, or any `k < 2`.
    #[must_use]
    pub fn fleet_sizes(mut self, sizes: &[usize]) -> Self {
        assert!(
            self.label_pairs.is_empty() && self.start_pairs.is_empty(),
            "fleet sizes are a fleet-mode axis; this grid sweeps label/start pairs"
        );
        assert!(
            sizes.iter().all(|&k| k >= 2),
            "fleets place at least two agents: {sizes:?}"
        );
        self.fleet_sizes.extend_from_slice(sizes);
        self
    }

    /// Sets the fleet placement-spreading rule (fleet mode only).
    #[must_use]
    pub fn fleet_rule(mut self, rule: FleetRule) -> Self {
        self.fleet_rule = Some(rule);
        self
    }

    /// Sets the start-rotation axis of fleet mode (default `[0]`): each
    /// rotation shifts every spread start by that many nodes, so
    /// asymmetric graphs contribute genuinely different placements.
    ///
    /// # Panics
    ///
    /// Panics if `rotations` is empty.
    #[must_use]
    pub fn fleet_rotations(mut self, rotations: &[usize]) -> Self {
        assert!(!rotations.is_empty(), "rotation axis cannot be empty");
        self.rotations = rotations.to_vec();
        self
    }

    /// Caps the sweep at `max` scenarios via deterministic even striding.
    #[must_use]
    pub fn sample_cap(mut self, max: usize) -> Self {
        assert!(max > 0, "sample cap must be positive");
        self.cap = Some(max);
        self
    }

    /// Content digest of everything that defines this grid's scenario
    /// list — sizes alone are not a sound identity (two grids with
    /// different horizons or label values can enumerate equally many
    /// units), so the [`WorkloadMeta`] fingerprint folds the actual
    /// axes. Each axis is prefixed with its length so adjacent
    /// variable-length axes cannot alias.
    pub(crate) fn digest(&self) -> u64 {
        let mut h = crate::workload::Fnv1a::new();
        h.write_u64(self.horizon);
        h.write_usize(self.label_pairs.len());
        for &(a, b) in &self.label_pairs {
            h.write_u64(a);
            h.write_u64(b);
        }
        h.write_usize(self.start_pairs.len());
        for &(a, b) in &self.start_pairs {
            h.write_usize(a.index());
            h.write_usize(b.index());
        }
        h.write_usize(self.delays.len());
        for &d in &self.delays {
            h.write_u64(d);
        }
        match self.cap {
            Some(cap) => {
                h.write_u64(1);
                h.write_usize(cap);
            }
            None => h.write_u64(0),
        }
        h.write_usize(self.fleet_sizes.len());
        for &k in &self.fleet_sizes {
            h.write_usize(k);
        }
        h.write_usize(self.rotations.len());
        for &r in &self.rotations {
            h.write_usize(r);
        }
        match &self.fleet_rule {
            Some(rule) => {
                h.write_u64(1);
                rule.digest_into(&mut h);
            }
            None => h.write_u64(0),
        }
        h.finish()
    }

    /// Number of scenarios before any sampling cap, saturating at
    /// `usize::MAX` for product spaces too large to index (a grid that big
    /// can only ever be swept through [`Grid::sample_cap`] anyway, and the
    /// capped stride stays exact below the saturation point).
    #[must_use]
    pub fn full_size(&self) -> usize {
        if self.fleet_sizes.is_empty() {
            product_size(
                self.label_pairs.len(),
                self.start_pairs.len(),
                self.delays.len(),
            )
        } else {
            product_size(
                self.fleet_sizes.len(),
                self.rotations.len(),
                self.delays.len(),
            )
        }
    }

    /// Number of scenarios [`Grid::scenarios`] will actually yield: the
    /// full product space clipped to the sampling cap.
    #[must_use]
    pub fn size(&self) -> usize {
        match self.cap {
            Some(cap) => self.full_size().min(cap),
            None => self.full_size(),
        }
    }

    /// The scenario at flat index `index` of the **full** (pre-cap) space.
    ///
    /// Pair mode decomposes exactly as it always has (label pair outer →
    /// start pair → delay inner), so the fleet generalization cannot
    /// perturb existing sweeps; fleet mode decomposes fleet size outer →
    /// rotation → delay phase inner, through the same arithmetic.
    fn nth(&self, index: usize) -> Scenario {
        let delay_i = index % self.delays.len();
        let rest = index / self.delays.len();
        if let Some(rule) = &self.fleet_rule {
            if !self.fleet_sizes.is_empty() {
                let rot_i = rest % self.rotations.len();
                let fleet_i = rest / self.rotations.len();
                let placements = rule.placements(
                    self.fleet_sizes[fleet_i],
                    self.rotations[rot_i],
                    self.delays[delay_i],
                );
                return Scenario::fleet(placements, self.horizon);
            }
        }
        assert!(
            self.fleet_sizes.is_empty(),
            "fleet sizes configured without a fleet rule"
        );
        let start_i = rest % self.start_pairs.len();
        let label_i = rest / self.start_pairs.len();
        self.pair_at(label_i, start_i, delay_i)
    }

    /// The pair scenario at the given axis indices.
    fn pair_at(&self, label_i: usize, start_i: usize, delay_i: usize) -> Scenario {
        let (first_label, second_label) = self.label_pairs[label_i];
        let (start_a, start_b) = self.start_pairs[start_i];
        Scenario::pair(
            first_label,
            second_label,
            start_a,
            start_b,
            self.delays[delay_i],
            self.horizon,
        )
    }

    /// The scenario at post-cap index `i` — identical to
    /// `self.scenarios()[i]` without materializing the list. The
    /// definition of the capped-index → scenario mapping:
    /// [`Grid::scenarios_in`] calls it per index on capped and fleet
    /// grids, and on the rest steps the axes from `lo` instead, which a
    /// proptest pins to this mapping.
    fn capped_nth(&self, i: usize) -> Scenario {
        match self.stride() {
            Some((total, cap)) => self.nth(strided(i, total, cap)),
            None => self.nth(i),
        }
    }

    /// `(full size, cap)` when the cap samples the space, `None` when
    /// every index is kept.
    fn stride(&self) -> Option<(usize, usize)> {
        let total = self.full_size();
        self.cap.filter(|&cap| total > cap).map(|cap| (total, cap))
    }

    /// Enumerates the scenarios of this grid, applying the sampling cap.
    ///
    /// Enumeration order is label pair (outer) → start pair → delay
    /// (inner); the order is part of the contract, since
    /// [`SweepReport`](crate::SweepReport) tie-breaks worst-case witnesses
    /// by scenario index.
    #[must_use]
    pub fn scenarios(&self) -> Vec<Scenario> {
        self.scenarios_in(0, self.size())
    }

    /// Materializes the half-open capped-index range `[lo, hi)` of
    /// [`Grid::scenarios`] without building the whole list — the slice a
    /// topology sweep executes when a range boundary falls inside this
    /// grid (see [`TopoGrid`](crate::TopoGrid)).
    ///
    /// # Panics
    ///
    /// Panics if `lo > hi` or `hi > self.size()`.
    #[must_use]
    pub fn scenarios_in(&self, lo: usize, hi: usize) -> Vec<Scenario> {
        assert!(
            lo <= hi && hi <= self.size(),
            "scenario range {lo}..{hi} out of bounds for a grid of {}",
            self.size()
        );
        if lo == hi || self.stride().is_some() || !self.fleet_sizes.is_empty() {
            return (lo..hi).map(|i| self.capped_nth(i)).collect();
        }
        // Every index kept, pair mode: unrank `lo` once, then step the
        // axes as a mixed-radix counter, delay fastest (as `nth` orders).
        let (ds, ss) = (self.delays.len(), self.start_pairs.len());
        let (mut delay_i, mut start_i, mut label_i) = (lo % ds, lo / ds % ss, lo / ds / ss);
        let mut scenarios = Vec::with_capacity(hi - lo);
        for _ in lo..hi {
            scenarios.push(self.pair_at(label_i, start_i, delay_i));
            delay_i += 1;
            if delay_i == ds {
                delay_i = 0;
                start_i += 1;
                if start_i == ss {
                    start_i = 0;
                    label_i += 1;
                }
            }
        }
        scenarios
    }
}

/// A [`Grid`] is the elementary [`Workload`]: one graph, an index-stable
/// capped scenario list, and a single piece per range (every scenario
/// shares the grid's one context, so the fold key is empty and the
/// report has one group).
///
/// The sampling cap is applied *before* indexing — so merging the range
/// sweeps of a capped grid reproduces the capped single-process sweep
/// bit for bit.
impl Workload for Grid {
    fn size(&self) -> usize {
        Grid::size(self)
    }

    fn meta(&self) -> WorkloadMeta {
        WorkloadMeta {
            kind: WorkloadKind::Grid,
            digest: self.digest(),
            full_size: self.full_size(),
            size: self.size(),
        }
    }

    fn pieces(&self, lo: usize, hi: usize) -> Vec<WorkPiece<'_>> {
        // Validate even the empty range, like scenarios_in (and the
        // TopoGrid impl) would — a silent empty sweep from an
        // out-of-bounds range is exactly the bug the contract forbids.
        assert!(
            lo <= hi && hi <= self.size(),
            "scenario range {lo}..{hi} out of bounds for a grid of {}",
            self.size()
        );
        if lo == hi {
            return Vec::new();
        }
        vec![WorkPiece {
            offset: lo,
            key: "",
            entry: None,
            scenarios: self.scenarios_in(lo, hi),
        }]
    }

    fn piece_count(&self, lo: usize, hi: usize) -> usize {
        usize::from(lo < hi)
    }
}

/// The saturating three-way product backing [`Grid::full_size`]: grids
/// whose dimensions multiply past `usize::MAX` clamp instead of wrapping
/// (the old unchecked product wrapped to a small number, making capped
/// sampling enumerate a tiny, wrong slice of the space).
fn product_size(a: usize, b: usize, c: usize) -> usize {
    a.saturating_mul(b).saturating_mul(c)
}

/// Balanced-partition stride: the start of slice `i` when `total` items
/// are divided into `cap` contiguous near-equal slices — the sampling
/// stride of [`Grid::sample_cap`].
pub(crate) fn strided(i: usize, total: usize, cap: usize) -> usize {
    usize::try_from(i as u128 * total as u128 / cap as u128)
        .expect("stride result is below `total`, which fits usize")
}

#[cfg(test)]
mod tests {
    use super::*;
    use rendezvous_graph::generators;

    fn small_grid() -> Grid {
        let g = generators::oriented_ring(4).unwrap();
        Grid::new(100)
            .label_pairs_both_orders(&[(1, 2)])
            .delays(&[0, 3])
            .all_start_pairs(&g)
    }

    #[test]
    fn full_enumeration_covers_the_product_space() {
        let grid = small_grid();
        let scenarios = grid.scenarios();
        // 2 label orders × 12 ordered start pairs × 2 delays.
        assert_eq!(scenarios.len(), 48);
        assert_eq!(grid.full_size(), 48);
        // All distinct.
        let mut seen = std::collections::HashSet::new();
        for s in &scenarios {
            assert!(s.start_a() != s.start_b());
            assert_eq!(s.horizon, 100);
            assert!(seen.insert(s.clone()));
        }
        // Both label orders present.
        assert!(scenarios.iter().any(|s| s.first_label() == 1));
        assert!(scenarios.iter().any(|s| s.first_label() == 2));
    }

    #[test]
    fn sampling_cap_is_deterministic_and_within_space() {
        let grid = small_grid().sample_cap(10);
        let a = grid.scenarios();
        let b = grid.scenarios();
        assert_eq!(a.len(), 10);
        assert_eq!(a, b, "capped enumeration must be reproducible");
        let full: std::collections::HashSet<_> = small_grid().scenarios().into_iter().collect();
        for s in &a {
            assert!(full.contains(s), "sampled scenario outside the space");
        }
        // No duplicates in the sample.
        let dedup: std::collections::HashSet<_> = a.iter().cloned().collect();
        assert_eq!(dedup.len(), a.len());
    }

    #[test]
    fn cap_larger_than_space_is_a_no_op() {
        let grid = small_grid().sample_cap(1_000);
        assert_eq!(grid.scenarios().len(), 48);
    }

    #[test]
    fn delays_are_sorted_and_deduplicated() {
        let g = generators::oriented_ring(4).unwrap();
        let messy = Grid::new(100)
            .label_pairs_both_orders(&[(1, 2)])
            .delays(&[3, 0, 3, 7, 0, 7, 7])
            .all_start_pairs(&g);
        let clean = Grid::new(100)
            .label_pairs_both_orders(&[(1, 2)])
            .delays(&[0, 3, 7])
            .all_start_pairs(&g);
        // Same index space, same enumeration order — a repeated delay is
        // the same adversary choice, not extra scenarios.
        assert_eq!(messy.full_size(), clean.full_size());
        assert_eq!(messy.scenarios(), clean.scenarios());
    }

    #[test]
    fn lease_ranges_partition_the_scenario_list_exactly() {
        for grid in [small_grid(), small_grid().sample_cap(17)] {
            let whole = grid.scenarios();
            for chunk in [1usize, 2, 3, 5, 48, 100] {
                let mut rebuilt: Vec<Scenario> = Vec::new();
                for (lo, hi) in grid.lease_ranges(chunk) {
                    assert_eq!(lo, rebuilt.len(), "ranges must be contiguous");
                    assert!(hi - lo <= chunk);
                    rebuilt.extend(grid.scenarios_in(lo, hi));
                }
                assert_eq!(rebuilt, whole, "concatenated ranges ({chunk}) != full list");
            }
        }
    }

    /// The Workload view of a grid: one piece per range, empty fold key,
    /// no topology context, scenarios identical to `scenarios_in`.
    #[test]
    fn grid_workload_yields_one_piece_per_range() {
        let grid = small_grid().sample_cap(17);
        let meta = grid.meta();
        assert_eq!(meta.kind, WorkloadKind::Grid);
        assert_eq!((meta.full_size, meta.size), (48, 17));
        let pieces = grid.pieces(3, 11);
        assert_eq!(pieces.len(), 1);
        assert_eq!(pieces[0].offset, 3);
        assert_eq!(pieces[0].key, "");
        assert!(pieces[0].entry.is_none());
        assert_eq!(pieces[0].scenarios, grid.scenarios_in(3, 11));
        assert!(grid.pieces(5, 5).is_empty());
    }

    /// Regression: `start_pairs` used to append whatever it was given, so
    /// a caller-supplied `start_a == start_b` pair produced a degenerate
    /// "two agents on one node" scenario that met at time 0 and silently
    /// deflated worst-case sweeps. The boundary now skips such pairs.
    #[test]
    fn coincident_start_pairs_are_skipped_at_the_boundary() {
        let grid = Grid::new(10).label_pairs_ordered(&[(1, 2)]).start_pairs(&[
            (NodeId::new(0), NodeId::new(0)),
            (NodeId::new(0), NodeId::new(1)),
            (NodeId::new(2), NodeId::new(2)),
            (NodeId::new(1), NodeId::new(0)),
        ]);
        let scenarios = grid.scenarios();
        assert_eq!(scenarios.len(), 2, "both degenerate pairs dropped");
        assert!(scenarios.iter().all(|s| s.start_a() != s.start_b()));
        // The all-degenerate case leaves an empty (zero-scenario) grid.
        let empty = Grid::new(10)
            .label_pairs_ordered(&[(1, 2)])
            .start_pairs(&[(NodeId::new(3), NodeId::new(3))]);
        assert_eq!(empty.size(), 0);
    }

    #[test]
    fn scenarios_in_matches_the_full_enumeration() {
        for grid in [small_grid(), small_grid().sample_cap(17)] {
            let whole = grid.scenarios();
            let n = grid.size();
            assert_eq!(grid.scenarios_in(0, n), whole);
            assert_eq!(grid.scenarios_in(3, 11), whole[3..11].to_vec());
            assert!(grid.scenarios_in(5, 5).is_empty());
        }
    }

    /// A pair or fleet grid with the given axis lengths (each ≥ 1) and
    /// cap mode: 0 uncapped, 1 capped below its full size, 2 capped at
    /// or above it (`extra` picks the cap within the mode).
    fn axis_grid(fleet: bool, lens: [usize; 3], cap_mode: u8, extra: usize) -> Grid {
        let g = generators::oriented_ring(12).unwrap();
        let [outer, middle, inner] = lens;
        let delays: Vec<u64> = (0..inner as u64).map(|d| 3 * d + 1).collect();
        let grid = if fleet {
            let sizes: Vec<usize> = (0..outer).map(|i| 2 + (i * 3) % 5).collect();
            let rotations: Vec<usize> = (0..middle).map(|r| 5 * r).collect();
            Grid::new(50)
                .fleet_sizes(&sizes)
                .fleet_rule(FleetRule::spread(&g, 8))
                .fleet_rotations(&rotations)
                .delays(&delays)
        } else {
            let labels: Vec<(u64, u64)> = (0..outer as u64).map(|i| (i + 1, 9 - i)).collect();
            let starts: Vec<(NodeId, NodeId)> = (0..middle)
                .map(|i| (NodeId::new(i), NodeId::new(11 - i)))
                .collect();
            Grid::new(50)
                .label_pairs_ordered(&labels)
                .start_pairs(&starts)
                .delays(&delays)
        };
        let full = grid.full_size();
        match cap_mode {
            0 => grid,
            1 if full > 1 => grid.sample_cap(1 + extra % (full - 1)),
            _ => grid.sample_cap(full + extra % 3),
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(48))]

        /// `scenarios_in` steps the axes on pair grids whose cap keeps
        /// every index and maps `capped_nth` on the rest; either way
        /// every range `lo ≤ hi` equals `capped_nth` per index.
        #[test]
        fn scenarios_in_equals_capped_nth_on_every_range(
            fleet in 0u8..2,
            outer in 1usize..6,
            middle in 1usize..6,
            inner in 1usize..6,
            cap_mode in 0u8..3,
            extra in 0usize..1000,
        ) {
            let grid = axis_grid(fleet == 1, [outer, middle, inner], cap_mode, extra);
            let size = grid.size();
            let nth: Vec<Scenario> = (0..size).map(|i| grid.capped_nth(i)).collect();
            for lo in 0..=size {
                for hi in lo..=size {
                    proptest::prop_assert_eq!(
                        grid.scenarios_in(lo, hi),
                        nth[lo..hi].to_vec(),
                        "{:?} {}..{}", (fleet, outer, middle, inner, cap_mode), lo, hi
                    );
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn scenarios_in_rejects_ranges_past_the_end() {
        let _ = small_grid().scenarios_in(0, 49);
    }

    /// Regression: the sampling stride used to compute `i * total / cap`
    /// in `usize`, which wraps once `i * total` exceeds `2^64` — silently
    /// sampling wrong (and duplicate) scenarios on billion-scenario grids
    /// with large caps. This grid has `2^17 × 2^17 × 2^15 = 2^49`
    /// scenarios and a `2^16` cap, so the old product reached `2^65`.
    #[test]
    fn capped_sampling_survives_huge_index_spaces() {
        let labels: Vec<(u64, u64)> = (0..1u64 << 17).map(|i| (i + 1, i + 2)).collect();
        let starts: Vec<(NodeId, NodeId)> = (0..1usize << 17)
            .map(|i| (NodeId::new(i), NodeId::new(i + 1)))
            .collect();
        let delays: Vec<u64> = (0..1u64 << 15).collect();
        let cap = 1usize << 16;
        let grid = Grid::new(10)
            .label_pairs_ordered(&labels)
            .start_pairs(&starts)
            .delays(&delays)
            .sample_cap(cap);
        assert_eq!(grid.full_size(), 1usize << 49);
        assert_eq!(grid.size(), cap);
        let sampled = grid.scenarios();
        assert_eq!(sampled.len(), cap);
        // The stride must stay strictly increasing (the wrap broke this),
        // which also proves every sampled index is distinct and in space.
        let mut last_label = 0;
        for s in &sampled {
            assert!(s.first_label() >= last_label, "stride went backwards");
            last_label = s.first_label();
        }
        assert_eq!(sampled[0].first_label(), 1, "index 0 must be included");
        // Strides spread over the whole space, not just a wrapped prefix.
        assert!(sampled.last().unwrap().first_label() > (1 << 17) - 2);
    }

    fn fleet_grid(ks: &[usize]) -> Grid {
        let g = generators::oriented_ring(12).unwrap();
        Grid::new(400)
            .fleet_sizes(ks)
            .fleet_rule(FleetRule::spread(&g, 32))
            .fleet_rotations(&[0, 3])
            .delays(&[0, 5])
    }

    #[test]
    fn fleet_mode_enumerates_sizes_by_rotations_by_phases() {
        let grid = fleet_grid(&[2, 3, 5]);
        let scenarios = grid.scenarios();
        assert_eq!(grid.full_size(), 3 * 2 * 2);
        assert_eq!(scenarios.len(), 12);
        // Fleet size is the outer axis, phases the inner one.
        assert_eq!(scenarios[0].k(), 2);
        assert_eq!(scenarios[4].k(), 3);
        assert_eq!(scenarios[8].k(), 5);
        // All placements valid: distinct starts, distinct labels, k >= 2.
        for s in &scenarios {
            let mut starts: Vec<_> = s.placements.iter().map(|p| p.start).collect();
            starts.sort_unstable();
            starts.dedup();
            assert_eq!(starts.len(), s.k(), "starts must be pairwise distinct");
            let mut labels: Vec<_> = s.placements.iter().map(|p| p.label).collect();
            labels.sort_unstable();
            labels.dedup();
            assert_eq!(labels.len(), s.k(), "labels must be pairwise distinct");
            assert_eq!(s.horizon, 400);
        }
        // The zero-rotation, zero-phase placements reproduce the classic
        // X9 spread exactly: label 1 + i(L-1)/(k-1), start ⌊i·n/k⌋,
        // delay (7i) mod 13.
        let s = &scenarios[0];
        assert_eq!(s.placements[0].label, 1);
        assert_eq!(s.placements[1].label, 32);
        assert_eq!(s.placements[1].start.index(), 6);
        assert_eq!(s.placements[1].delay, 7);
        // Rotation shifts every start by the same offset, mod n.
        let rotated = &scenarios[2];
        assert_eq!(rotated.placements[0].start.index(), 3);
        assert_eq!(rotated.placements[1].start.index(), 9);
        // Phase shifts every delay through the stagger modulus.
        let phased = &scenarios[1];
        assert_eq!(phased.placements[0].delay, 5);
        assert_eq!(phased.placements[1].delay, 12);
    }

    #[test]
    fn fleet_ranges_partition_exactly_like_pair_ranges() {
        let grid = fleet_grid(&[2, 3, 4, 5, 6]).sample_cap(13);
        let whole = grid.scenarios();
        assert_eq!(whole.len(), 13);
        for chunk in [1usize, 2, 3, 7] {
            let mut rebuilt: Vec<Scenario> = Vec::new();
            for (lo, hi) in grid.lease_ranges(chunk) {
                assert_eq!(lo, rebuilt.len());
                rebuilt.extend(grid.scenarios_in(lo, hi));
            }
            assert_eq!(rebuilt, whole, "fleet ranges ({chunk}) != full list");
        }
    }

    #[test]
    #[should_panic(expected = "pair-mode axis")]
    fn fleet_and_pair_axes_are_mutually_exclusive() {
        let g = generators::oriented_ring(6).unwrap();
        let _ = Grid::new(10).fleet_sizes(&[2]).all_start_pairs(&g);
    }

    #[test]
    #[should_panic(expected = "fleet-mode axis")]
    fn pair_axes_reject_fleet_grids_symmetrically() {
        let _ = Grid::new(10)
            .label_pairs_ordered(&[(1, 2)])
            .fleet_sizes(&[2]);
    }

    #[test]
    #[should_panic(expected = "does not fit")]
    fn fleet_rule_rejects_fleets_larger_than_the_graph() {
        let g = generators::oriented_ring(4).unwrap();
        let _ = FleetRule::spread(&g, 32).placements(5, 0, 0);
    }

    /// Regression: the product space size saturates instead of wrapping
    /// when the dimensions multiply past `usize::MAX` — the old unchecked
    /// `a * b * c` wrapped (e.g. `2^22 × 2^21 × 2^21` wrapped to 0),
    /// collapsing capped sweeps of such grids to garbage.
    #[test]
    fn full_size_saturates_instead_of_wrapping() {
        assert_eq!(product_size(1 << 22, 1 << 21, 1 << 21), usize::MAX);
        assert_eq!(product_size(usize::MAX, usize::MAX, 2), usize::MAX);
        assert_eq!(product_size(usize::MAX, 1, 1), usize::MAX);
        // Non-overflowing products stay exact.
        assert_eq!(product_size(3, 5, 7), 105);
        assert_eq!(product_size(1 << 20, 1 << 20, 1 << 20), 1 << 60);
        assert_eq!(product_size(0, usize::MAX, usize::MAX), 0);
    }
}
