//! Algorithm `FastWithRelabeling(w)` (§2): interior points of the
//! time/cost tradeoff curve.
//!
//! Agents are re-labelled with fixed-weight bit strings: agent `ℓ` receives
//! the lexicographically `ℓ`-th smallest `w`-subset of `{1, …, t}` (as a
//! characteristic bit string), where `t` is the smallest integer with
//! `C(t, w) ≥ L`. Running `Fast`'s block pattern on these strings caps the
//! number of explorations at `w` per agent (cost `O(wE)`) while keeping
//! time `O(tE)` — for constant `w`, time `O(L^{1/w} E)` (Corollary 2.1),
//! strictly between `Cheap`'s `Θ(LE)` and `Fast`'s `Θ(E log L)`.

use crate::fast::{doubled_pattern, pattern_schedule};
use crate::{CoreError, Label, LabelSpace, RendezvousAlgorithm, Schedule};
use rendezvous_explore::Explorer;
use rendezvous_graph::PortLabeledGraph;
use std::sync::Arc;

/// `C(n, k)` with saturating `u128` arithmetic (monotone overflow-safe:
/// anything that would overflow is clamped to `u128::MAX`, which only ever
/// makes the computed `t` smaller — and such `t` are astronomically far
/// from any usable label space anyway).
#[must_use]
pub fn binomial(n: u64, k: u64) -> u128 {
    if k > n {
        return 0;
    }
    let k = k.min(n - k);
    let mut acc: u128 = 1;
    for i in 0..k {
        // acc * (n - i) / (i + 1) is exact at every step
        acc = acc
            .saturating_mul(u128::from(n - i))
            .checked_div(u128::from(i + 1))
            .expect("i + 1 > 0");
    }
    acc
}

/// The smallest `t` such that `C(t, w) ≥ l`.
///
/// # Panics
///
/// Panics if `w == 0` or `l == 0` (validated upstream by
/// [`FastWithRelabeling::new`]).
#[must_use]
pub fn smallest_t(w: u64, l: u64) -> u64 {
    assert!(w > 0 && l > 0, "w and l must be positive");
    (w..)
        .find(|&t| binomial(t, w) >= u128::from(l))
        .expect("binomial(t, w) is unbounded in t for fixed w >= 1")
}

/// `t' = ⌈w · L^{1/w}⌉`, the Corollary 2.1 string length, computed
/// exactly in integers: the smallest `t` with `t^w ≥ w^w · L` (take
/// `w`-th roots of both sides — they are monotone in `t`). The float
/// rendering `(w as f64 * (l as f64).powf(1.0 / w as f64)).ceil()`
/// depends on platform libm rounding at exact-power boundaries; this
/// one never does.
///
/// # Panics
///
/// Panics if `w == 0` or `l == 0` (validated upstream by
/// [`FastWithRelabeling::new`]).
#[must_use]
pub fn corollary_t_prime(w: u64, l: u64) -> u64 {
    assert!(w > 0 && l > 0, "w and l must be positive");
    // Upper bracket: with r the integer ceiling of L^{1/w}, the value
    // w·r satisfies (w·r)^w = w^w · r^w ≥ w^w · L. Binary search on
    // r ∈ [1, L] (L^{1/w} ≤ L always).
    let target = vec![l];
    let (mut rlo, mut rhi) = (1u64, l);
    while rlo < rhi {
        let mid = rlo + (rhi - rlo) / 2;
        if big_cmp(&big_pow(mid, w), &target) != std::cmp::Ordering::Less {
            rhi = mid;
        } else {
            rlo = mid + 1;
        }
    }
    let r = rlo;
    let rhs = big_pow_times(w, w, l);
    let (mut lo, mut hi) = (w, w.saturating_mul(r));
    // Invariant: hi satisfies hi^w ≥ w^w·L, lo-1 does not (t' ≥ w since
    // L ≥ 1). Shrink to the smallest satisfying t.
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        if big_cmp(&big_pow(mid, w), &rhs) != std::cmp::Ordering::Less {
            hi = mid;
        } else {
            lo = mid + 1;
        }
    }
    lo
}

/// Little-endian base-2^64 magnitude of `base^exp` — `t^w` overflows
/// `u128` for moderate `w`, so the Corollary 2.1 comparison runs on
/// limb vectors.
fn big_pow(base: u64, exp: u64) -> Vec<u64> {
    let mut acc = vec![1u64];
    for _ in 0..exp {
        big_mul_u64(&mut acc, base);
    }
    acc
}

/// `base^exp · m` as limbs (`big_pow` with a final scalar multiply).
fn big_pow_times(base: u64, exp: u64, m: u64) -> Vec<u64> {
    let mut acc = big_pow(base, exp);
    big_mul_u64(&mut acc, m);
    acc
}

/// In-place `acc *= m` on little-endian limbs.
fn big_mul_u64(acc: &mut Vec<u64>, m: u64) {
    let mut carry: u128 = 0;
    for limb in acc.iter_mut() {
        let prod = u128::from(*limb) * u128::from(m) + carry;
        *limb = prod as u64;
        carry = prod >> 64;
    }
    if carry > 0 {
        acc.push(carry as u64);
    }
}

/// Compares two little-endian limb magnitudes.
fn big_cmp(a: &[u64], b: &[u64]) -> std::cmp::Ordering {
    let len = |v: &[u64]| v.iter().rposition(|&l| l != 0).map_or(0, |i| i + 1);
    let (la, lb) = (len(a), len(b));
    la.cmp(&lb)
        .then_with(|| a[..la].iter().rev().cmp(b[..lb].iter().rev()))
}

/// The characteristic bit string (length `t`, weight `w`) of the
/// lexicographically `rank`-th smallest `w`-subset of `{1, …, t}`
/// (0-based rank; order is lexicographic on the bit strings, so rank 0 is
/// `0…01…1`).
///
/// # Panics
///
/// Panics if `rank >= C(t, w)` or `w > t`.
#[must_use]
pub fn lex_subset_bits(t: u64, w: u64, rank: u128) -> Vec<bool> {
    assert!(w <= t, "weight exceeds length");
    assert!(rank < binomial(t, w), "rank out of range");
    let mut bits = Vec::with_capacity(t as usize);
    let mut remaining_rank = rank;
    let mut ones_left = w;
    for pos in 0..t {
        let rest = t - pos - 1;
        let with_zero = binomial(rest, ones_left);
        if remaining_rank < with_zero {
            bits.push(false);
        } else {
            remaining_rank -= with_zero;
            bits.push(true);
            ones_left -= 1;
        }
    }
    debug_assert_eq!(ones_left, 0);
    bits
}

/// Algorithm `FastWithRelabeling(w)`.
///
/// Guarantees (Proposition 2.3):
///
/// * time at most `(4t + 5)E` where `t = min{t : C(t, w) ≥ L}`,
/// * cost: the paper states `2wE` (counting only the relabelled bits); the
///   schedule itself proves the slightly larger `(4w + 2)E` — each agent
///   has exactly `2w + 1` explore phases (including the leading `1` block
///   and bit doubling). Both are `O(wE)`; [`RendezvousAlgorithm::cost_bound`]
///   returns the provable `(4w + 2)E` and
///   [`FastWithRelabeling::paper_cost_bound`] the paper's figure.
///
/// # Examples
///
/// ```
/// use rendezvous_core::{FastWithRelabeling, Label, LabelSpace, RendezvousAlgorithm};
/// use rendezvous_explore::OrientedRingExplorer;
/// use rendezvous_graph::generators;
/// use std::sync::Arc;
///
/// let g = Arc::new(generators::oriented_ring(8).unwrap());
/// let explore = Arc::new(OrientedRingExplorer::new(g.clone()).unwrap());
/// // L = 10, w = 2: t = 5 since C(5,2) = 10.
/// let alg = FastWithRelabeling::new(g, explore, LabelSpace::new(10).unwrap(), 2).unwrap();
/// assert_eq!(alg.t(), 5);
/// assert_eq!(alg.time_bound(), (4 * 5 + 5) * 7);
/// ```
#[derive(Debug, Clone)]
pub struct FastWithRelabeling {
    graph: Arc<PortLabeledGraph>,
    explorer: Arc<dyn Explorer>,
    space: LabelSpace,
    weight: u64,
    t: u64,
}

impl FastWithRelabeling {
    /// Creates the algorithm with relabeling weight `w`.
    ///
    /// # Errors
    ///
    /// [`CoreError::InvalidWeight`] if `w == 0` or `w > L` (the paper
    /// requires `w(L) ≤ L`).
    pub fn new(
        graph: Arc<PortLabeledGraph>,
        explorer: Arc<dyn Explorer>,
        space: LabelSpace,
        weight: u64,
    ) -> Result<Self, CoreError> {
        if weight == 0 || weight > space.size() {
            return Err(CoreError::InvalidWeight {
                weight,
                space: space.size(),
            });
        }
        let t = smallest_t(weight, space.size());
        Ok(FastWithRelabeling {
            graph,
            explorer,
            space,
            weight,
            t,
        })
    }

    /// The relabeling weight `w`.
    #[must_use]
    pub fn weight(&self) -> u64 {
        self.weight
    }

    /// The string length `t = min{t : C(t, w) ≥ L}`.
    #[must_use]
    pub fn t(&self) -> u64 {
        self.t
    }

    /// The new label of agent `ℓ`: a `t`-bit string of weight `w`.
    ///
    /// # Errors
    ///
    /// [`CoreError::LabelOutOfRange`] for labels outside the space.
    pub fn relabel(&self, label: Label) -> Result<Vec<bool>, CoreError> {
        self.space.check(label)?;
        Ok(lex_subset_bits(
            self.t,
            self.weight,
            u128::from(label.get() - 1),
        ))
    }

    /// The paper's stated cost bound `2wE` (Proposition 2.3).
    #[must_use]
    pub fn paper_cost_bound(&self) -> u64 {
        2 * self.weight * self.exploration_bound()
    }

    /// Corollary 2.1's asymptotic time for constant `w = c`:
    /// `(4c·L^{1/c} + 5)E`, an upper bound on [`Self::time_bound`].
    #[must_use]
    pub fn corollary_time_bound(&self) -> u64 {
        let t_prime = corollary_t_prime(self.weight, self.space.size());
        (4 * t_prime + 5) * self.exploration_bound()
    }
}

impl RendezvousAlgorithm for FastWithRelabeling {
    fn name(&self) -> &'static str {
        "fast-with-relabeling"
    }

    fn label_space(&self) -> LabelSpace {
        self.space
    }

    fn graph(&self) -> &Arc<PortLabeledGraph> {
        &self.graph
    }

    fn exploration_bound(&self) -> u64 {
        self.explorer.bound() as u64
    }

    fn schedule(&self, label: Label) -> Result<Schedule, CoreError> {
        let bits = self.relabel(label)?;
        let pattern = doubled_pattern(&bits);
        let schedule = pattern_schedule(&pattern, &self.explorer);
        // All schedules have identical length (2t+1 blocks); no padding
        // needed — noted here because Cheap/Fast schedules differ by label.
        debug_assert_eq!(schedule.phases().len() as u64, 2 * self.t + 1);
        Ok(schedule)
    }

    /// `(4t + 5) · E` (Proposition 2.3).
    fn time_bound(&self) -> u64 {
        (4 * self.t + 5) * self.exploration_bound()
    }

    /// The provable `(4w + 2) · E`: each agent explores in exactly
    /// `2w + 1` blocks.
    fn cost_bound(&self) -> u64 {
        (4 * self.weight + 2) * self.exploration_bound()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rendezvous_explore::OrientedRingExplorer;
    use rendezvous_graph::{generators, NodeId};
    use rendezvous_sim::{AgentSpec, Simulation};
    use std::collections::HashSet;

    #[test]
    fn binomial_values() {
        assert_eq!(binomial(5, 2), 10);
        assert_eq!(binomial(10, 0), 1);
        assert_eq!(binomial(10, 10), 1);
        assert_eq!(binomial(4, 7), 0);
        assert_eq!(binomial(52, 5), 2_598_960);
    }

    #[test]
    fn smallest_t_matches_definition() {
        assert_eq!(smallest_t(2, 10), 5); // C(5,2)=10
        assert_eq!(smallest_t(2, 11), 6); // C(5,2)=10 < 11 <= C(6,2)=15
        assert_eq!(smallest_t(1, 7), 7); // C(7,1)=7
        assert_eq!(smallest_t(3, 2), 4); // C(3,3)=1 < 2 <= C(4,3)=4
    }

    #[test]
    fn lex_unranking_is_ordered_and_complete() {
        let (t, w) = (6u64, 3u64);
        let total = binomial(t, w);
        let mut all: Vec<Vec<bool>> = (0..total).map(|r| lex_subset_bits(t, w, r)).collect();
        // each has weight w
        for bits in &all {
            assert_eq!(bits.iter().filter(|&&b| b).count() as u64, w);
            assert_eq!(bits.len(), t as usize);
        }
        // strictly increasing lexicographically
        for win in all.windows(2) {
            assert!(win[0] < win[1], "{:?} !< {:?}", win[0], win[1]);
        }
        // all distinct
        let set: HashSet<_> = all.drain(..).collect();
        assert_eq!(set.len() as u128, total);
    }

    #[test]
    fn rank_zero_is_trailing_ones() {
        assert_eq!(
            lex_subset_bits(5, 2, 0),
            vec![false, false, false, true, true]
        );
    }

    proptest! {
        #[test]
        fn relabeling_is_injective(l in 2u64..200, w in 1u64..5) {
            let w = w.min(l);
            let t = smallest_t(w, l);
            let mut seen = HashSet::new();
            for rank in 0..l {
                let bits = lex_subset_bits(t, w, u128::from(rank));
                prop_assert!(seen.insert(bits), "collision at rank {rank}");
            }
        }

        #[test]
        fn smallest_t_is_minimal(l in 2u64..10_000, w in 1u64..6) {
            let t = smallest_t(w, l);
            prop_assert!(binomial(t, w) >= u128::from(l));
            if t > w {
                prop_assert!(binomial(t - 1, w) < u128::from(l));
            }
        }
    }

    fn ring_alg(n: usize, l: u64, w: u64) -> FastWithRelabeling {
        let g = Arc::new(generators::oriented_ring(n).unwrap());
        let ex: Arc<dyn Explorer> = Arc::new(OrientedRingExplorer::new(g.clone()).unwrap());
        FastWithRelabeling::new(g, ex, LabelSpace::new(l).unwrap(), w).unwrap()
    }

    #[test]
    fn fwr_meets_exhaustively() {
        let alg = ring_alg(5, 10, 2);
        let e = alg.exploration_bound();
        for la in 1..=10u64 {
            for lb in (la + 1)..=10u64 {
                for pa in 0..5 {
                    for pb in 0..5 {
                        if pa == pb {
                            continue;
                        }
                        for delay in [0u64, e] {
                            let a = alg.agent(Label::new(la).unwrap(), NodeId::new(pa)).unwrap();
                            let b = alg.agent(Label::new(lb).unwrap(), NodeId::new(pb)).unwrap();
                            let out = Simulation::new(alg.graph())
                                .agent(Box::new(a), AgentSpec::immediate(NodeId::new(pa)))
                                .agent(Box::new(b), AgentSpec::delayed(NodeId::new(pb), delay))
                                .max_rounds(4 * alg.time_bound())
                                .run()
                                .unwrap();
                            let t = out.time().unwrap_or_else(|| {
                                panic!("no meeting: ℓ=({la},{lb}), p=({pa},{pb}), τ={delay}")
                            });
                            assert!(t <= alg.time_bound());
                            assert!(out.cost() <= alg.cost_bound());
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn fwr_rejects_bad_weights() {
        let g = Arc::new(generators::oriented_ring(5).unwrap());
        let ex: Arc<dyn Explorer> = Arc::new(OrientedRingExplorer::new(g.clone()).unwrap());
        let space = LabelSpace::new(4).unwrap();
        assert!(FastWithRelabeling::new(g.clone(), ex.clone(), space, 0).is_err());
        assert!(FastWithRelabeling::new(g, ex, space, 5).is_err());
    }

    #[test]
    fn fwr_schedule_has_fixed_length_and_weight() {
        let alg = ring_alg(5, 20, 3);
        let lens: HashSet<u64> = (1..=20)
            .map(|l| {
                let s = alg.schedule(Label::new(l).unwrap()).unwrap();
                assert_eq!(s.explore_phases(), 2 * 3 + 1);
                s.total_rounds()
            })
            .collect();
        assert_eq!(lens.len(), 1, "all schedules equally long");
    }

    #[test]
    fn corollary_t_prime_is_exact_ceil() {
        // Exact powers: w · L^{1/w} is an integer, no rounding slack.
        assert_eq!(corollary_t_prime(2, 16), 8); // 2·4
        assert_eq!(corollary_t_prime(2, 100), 20); // 2·10
        assert_eq!(corollary_t_prime(3, 1000), 30); // 3·10
        assert_eq!(corollary_t_prime(4, 4096), 32); // 4·8
        assert_eq!(corollary_t_prime(1, 7), 7); // w=1 degenerates to L
        assert_eq!(corollary_t_prime(5, 1), 5); // L=1 degenerates to w
                                                // Non-exact: 2·sqrt(10) = 6.32…, so t' = 7 (and 7² = 49 ≥ 40 > 36 = 6²).
        assert_eq!(corollary_t_prime(2, 10), 7);
        // Agrees with the float rendering away from libm edge cases.
        for w in 1u64..6 {
            for l in 1u64..500 {
                let float = (w as f64 * (l as f64).powf(1.0 / w as f64)).ceil() as u64;
                let exact = corollary_t_prime(w, l);
                assert!(
                    exact.abs_diff(float) <= 1,
                    "w={w} l={l}: exact {exact} vs float {float}"
                );
                // Definitionally minimal: t'^w ≥ w^w·L and (t'-1)^w < w^w·L.
                let pow = |b: u64, e: u64| (0..e).fold(1u128, |a, _| a * u128::from(b));
                assert!(pow(exact, w) >= pow(w, w) * u128::from(l));
                assert!(exact == 1 || pow(exact - 1, w) < pow(w, w) * u128::from(l));
            }
        }
        // Wide inputs where both sides of the comparison overflow u128.
        assert_eq!(corollary_t_prime(30, 1 << 60), 120); // 30·2^2 = 120; 2^60 = (2^2)^30
        assert_eq!(corollary_t_prime(64, u64::MAX), 128); // 64·2, since 2^64 > u64::MAX
    }

    #[test]
    fn corollary_bound_dominates_exact_bound() {
        for (l, w) in [(16u64, 2u64), (100, 2), (1000, 3), (4096, 4)] {
            let alg = ring_alg(6, l, w);
            assert!(alg.time_bound() <= alg.corollary_time_bound());
        }
    }

    #[test]
    fn tradeoff_position_between_cheap_and_fast() {
        // For large L and w = 2: cheaper than Fast, faster than Cheap.
        let g = Arc::new(generators::oriented_ring(8).unwrap());
        let ex: Arc<dyn Explorer> = Arc::new(OrientedRingExplorer::new(g.clone()).unwrap());
        let space = LabelSpace::new(10_000).unwrap();
        let fwr = FastWithRelabeling::new(g.clone(), ex.clone(), space, 2).unwrap();
        let cheap = crate::Cheap::new(g.clone(), ex.clone(), space);
        let fast = crate::Fast::new(g, ex, space);
        assert!(fwr.time_bound() < cheap.time_bound());
        assert!(fwr.cost_bound() < fast.cost_bound());
    }
}
