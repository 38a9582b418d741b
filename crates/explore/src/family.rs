//! Families of exploration procedures for agents that know **no** bound on
//! the network size.
//!
//! Paper, Conclusion: "Let `EXPLORE_i` be the UXS-based exploration procedure
//! for the class of graphs of size at most `2^i`, and let `E_i` be the time
//! of `EXPLORE_i`. Each of our algorithms can be modified by iterating the
//! original algorithm using `EXPLORE = EXPLORE_i` and `E = E_i` in the i-th
//! iteration … Due to telescoping, the time and cost complexities will not
//! change."

use crate::{BoundedWalkExplorer, Explorer};
use std::sync::Arc;

/// An indexed family `EXPLORE_1, EXPLORE_2, …` where level `i` explores
/// every graph of the intended class with at most `2^i` nodes, with bound
/// `E_i` non-decreasing in `i`.
///
/// The `Send + Sync` bound stays although every sweep runs on one
/// thread: families are shared as `Arc`s, and without the bound clippy's
/// `arc_with_non_send_sync` lint rejects them.
pub trait ExplorationFamily: std::fmt::Debug + Send + Sync {
    /// The procedure for graphs of size at most `2^level`.
    fn level(&self, level: u32) -> Arc<dyn Explorer>;

    /// `E_level`, without materializing the explorer.
    fn bound(&self, level: u32) -> usize {
        self.level(level).bound()
    }

    /// Smallest level whose class contains an `n`-node graph.
    fn level_for(&self, n: usize) -> u32 {
        (usize::BITS - n.saturating_sub(1).leading_zeros()).max(1)
    }
}

/// The doubling family for **oriented rings** of unknown size: level `i`
/// walks `2^i − 1` steps clockwise, which explores every oriented ring with
/// at most `2^i` nodes. `E_i = 2^i − 1` telescopes exactly as the paper's
/// Conclusion requires.
///
/// # Examples
///
/// ```
/// use rendezvous_explore::{ExplorationFamily, RingDoublingFamily};
///
/// let fam = RingDoublingFamily::new();
/// assert_eq!(fam.bound(3), 7);
/// assert_eq!(fam.level_for(5), 3);  // 2^3 = 8 >= 5
/// assert_eq!(fam.level_for(8), 3);
/// assert_eq!(fam.level_for(9), 4);
/// ```
#[derive(Debug, Clone, Copy, Default)]
pub struct RingDoublingFamily;

impl RingDoublingFamily {
    /// Creates the family.
    #[must_use]
    pub fn new() -> Self {
        RingDoublingFamily
    }
}

impl ExplorationFamily for RingDoublingFamily {
    fn level(&self, level: u32) -> Arc<dyn Explorer> {
        let steps = (1usize << level) - 1;
        Arc::new(BoundedWalkExplorer::new(steps))
    }

    fn bound(&self, level: u32) -> usize {
        (1usize << level) - 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::verify_explorer;
    use rendezvous_graph::generators;

    #[test]
    fn doubling_bound_matches_level() {
        let fam = RingDoublingFamily::new();
        for i in 1..10 {
            assert_eq!(fam.bound(i), (1 << i) - 1);
            assert_eq!(fam.level(i).bound(), fam.bound(i));
        }
    }

    #[test]
    fn level_for_is_minimal() {
        let fam = RingDoublingFamily::new();
        for n in 2..100usize {
            let lvl = fam.level_for(n);
            assert!((1usize << lvl) >= n, "level {lvl} too small for {n}");
            assert!(
                lvl == 1 || (1usize << (lvl - 1)) < n,
                "level {lvl} not minimal for {n}"
            );
        }
    }

    #[test]
    fn level_explores_rings_up_to_its_class_size() {
        let fam = RingDoublingFamily::new();
        let ex = fam.level(4); // covers rings up to 16 nodes
        for n in [3usize, 9, 16] {
            let g = generators::oriented_ring(n).unwrap();
            assert!(verify_explorer(&g, ex.as_ref()).is_ok(), "ring {n}");
        }
    }

    #[test]
    fn level_too_small_fails_on_large_ring() {
        let fam = RingDoublingFamily::new();
        let ex = fam.level(3); // 7 steps: covers up to 8 nodes
        let g = generators::oriented_ring(12).unwrap();
        assert!(verify_explorer(&g, ex.as_ref()).is_err());
    }
}
