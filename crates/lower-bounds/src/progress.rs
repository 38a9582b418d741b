//! The Theorem 3.2 pipeline, executable: any algorithm with time
//! `O(E log L)` has cost `Ω(E log L)`.
//!
//! The ring is cut into 6 sectors and time into blocks of `n/6` rounds.
//! Each agent's solo run is summarized as an **aggregate behaviour vector**
//! (its per-block sector drift, Fact 3.9), which `DefineProgress`
//! (Algorithm 3 of the paper, implemented verbatim below) compresses into a
//! **progress vector** retaining only the block pairs in which the agent
//! decisively crossed a sector. The paper shows correct algorithms give
//! distinct agents distinct progress vectors (Fact 3.15), that few-block
//! schedules force Ω(log L) non-zero entries on some agent (Fact 3.16,
//! pigeonhole), and that `2k` non-zero entries force `k·E/6` cost
//! (Fact 3.17).

use crate::{oriented_ring_size, trim, BehaviorVector, LowerBoundError, TrimmedAlgorithm};
use rendezvous_core::{Label, RendezvousAlgorithm};
use std::collections::BTreeMap;

/// Sum of a slice of aggregate entries (the paper's `surplus`).
#[must_use]
pub fn surplus(entries: &[i8]) -> i64 {
    entries.iter().map(|&e| i64::from(e)).sum()
}

/// Algorithm 3, `DefineProgress`, verbatim (0-based indices).
///
/// Scans the aggregate vector; whenever a window accumulates a surplus of
/// absolute value 2, the two "significant" entries `a` (last entry that
/// established the persistent ±1 surplus) and `b` (entry that pushed it to
/// ±2) are preserved and everything else in the window is zeroed.
///
/// # Examples
///
/// ```
/// use rendezvous_lower_bounds::define_progress;
///
/// // Oscillation without progress is zeroed entirely:
/// assert_eq!(define_progress(&[1, -1, 1, -1]), vec![0, 0, 0, 0]);
/// // Two decisive clockwise crossings are kept:
/// assert_eq!(define_progress(&[1, 0, 1, 0]), vec![1, 0, 1, 0]);
/// ```
#[must_use]
pub fn define_progress(agg: &[i8]) -> Vec<i8> {
    let m = agg.len();
    let mut prog = vec![0i8; m];
    let mut s = 0usize; // paper's s - 1
    loop {
        if s >= m {
            return prog;
        }
        // Case 1: no prefix of agg[s..] reaches |surplus| = 2.
        let mut b = None;
        let mut acc = 0i64;
        for (i, &e) in agg.iter().enumerate().skip(s) {
            acc += i64::from(e);
            if acc.abs() == 2 {
                b = Some(i);
                break;
            }
        }
        let Some(b) = b else {
            return prog;
        };
        // a = smallest index in {s..=b} with |surplus(agg[s..=i])| >= 1 for
        // all i in {a..=b}.
        let mut a = b;
        {
            // walk backwards while the prefix surplus stays >= 1 in absolute
            // value; the smallest such start is the paper's a.
            let mut acc = 0i64;
            let mut prefix = vec![0i64; b - s + 1];
            for (k, &e) in agg[s..=b].iter().enumerate() {
                acc += i64::from(e);
                prefix[k] = acc;
            }
            for k in (0..=(b - s)).rev() {
                if prefix[k].abs() >= 1 {
                    a = s + k;
                } else {
                    break;
                }
            }
        }
        prog[a] = agg[b];
        prog[b] = agg[b];
        s = b + 1;
    }
}

/// The aggregate behaviour vector `Agg_{x,0}` over `blocks` blocks of
/// `block_len` rounds: entry `i` is the sector drift (−1, 0 or +1) of the
/// agent between the beginnings of blocks `i` and `i+1` (Fact 3.9
/// guarantees the drift fits in one sector per block).
///
/// # Errors
///
/// The errors of [`behavior_vector`](crate::behavior_vector), whose solo
/// walk this reads.
///
/// # Panics
///
/// Panics if a block drift exceeds one sector — impossible when
/// `block_len == n/6` (that is Fact 3.9), so a violation means the caller
/// passed inconsistent parameters.
pub fn aggregate_vector(
    algorithm: &dyn RendezvousAlgorithm,
    label: Label,
    blocks: usize,
    block_len: usize,
) -> Result<Vec<i8>, LowerBoundError> {
    let n = algorithm.graph().node_count();
    let rounds = blocks as u64 * block_len as u64;
    let vector = crate::behavior_vector(algorithm, label, rounds)?;
    Ok(aggregate_of(&vector, n, blocks, block_len))
}

/// [`aggregate_vector`] read off a behaviour vector of at least
/// `blocks · block_len` rounds: from start 0 on the oriented `n`-ring,
/// the agent stands on node `displacement_prefix(t) mod n` after round
/// `t`.
fn aggregate_of(vector: &BehaviorVector, n: usize, blocks: usize, block_len: usize) -> Vec<i8> {
    let sectors = 6usize;
    assert_eq!(n % sectors, 0, "caller must ensure 6 | n");
    let sector = |t: usize| {
        let node = vector.displacement_prefix(t).rem_euclid(n as i64) as usize;
        node / block_len
    };
    (0..blocks)
        .map(|i| {
            let before = sector(i * block_len);
            let after = sector((i + 1) * block_len);
            match (after + sectors - before) % sectors {
                0 => 0,
                1 => 1,
                5 => -1,
                other => panic!(
                    "Fact 3.9 violated: drift of {other} sectors in one block \
                     (block_len {block_len}, n {n})"
                ),
            }
        })
        .collect()
}

/// The Theorem 3.2 construction's output on a concrete algorithm.
#[derive(Debug, Clone)]
pub struct ProgressReport {
    /// Ring size (divisible by 6).
    pub n: usize,
    /// Rounds per block = nodes per sector = `n/6`.
    pub block_len: usize,
    /// Index `M` of the block shared by the analyzed group (1-based).
    pub m_blocks: usize,
    /// The pigeonhole group: labels whose `m_x` falls in block `M`.
    pub group: Vec<Label>,
    /// `(label, aggregate vector, progress vector)` per group member.
    pub vectors: Vec<(Label, Vec<i8>, Vec<i8>)>,
    /// Fact 3.15's requirement: all progress vectors distinct.
    pub all_distinct: bool,
    /// Max non-zero entries over the group's progress vectors.
    pub max_nonzero: usize,
    /// Fact 3.17's cost witness: `(max_nonzero / 2) · (E/6)` — some agent
    /// must traverse at least this many edges in a solo run.
    pub cost_witness: u64,
    /// Whether every group member's measured solo cost dominates its own
    /// Fact 3.17 witness.
    pub witnesses_hold: bool,
    /// The trimming data.
    pub trimmed: TrimmedAlgorithm,
}

/// Runs the Theorem 3.2 construction: [`trim`], then [`progress`].
///
/// # Errors
///
/// * [`LowerBoundError::RingNotDivisibleBySix`] unless `6 | n` (checked
///   before the trim runs),
/// * ring/meeting errors as in [`trim`].
pub fn progress_audit(
    algorithm: &dyn RendezvousAlgorithm,
    horizon: u64,
) -> Result<ProgressReport, LowerBoundError> {
    sector_len(algorithm)?;
    progress(algorithm, trim(algorithm, horizon)?)
}

/// The Theorem 3.2 construction on `trimmed`, the trim of `algorithm`:
/// pigeonhole agents by the block containing `m_x`, build aggregate and
/// progress vectors for the largest group, and evaluate the cost
/// witnesses. Runs only solo executions.
///
/// # Errors
///
/// * [`LowerBoundError::NotAnOrientedRing`] for non-ring graphs,
/// * [`LowerBoundError::RingNotDivisibleBySix`] unless `6 | n`,
/// * simulation errors of the solo runs.
pub fn progress(
    algorithm: &dyn RendezvousAlgorithm,
    trimmed: TrimmedAlgorithm,
) -> Result<ProgressReport, LowerBoundError> {
    let (n, block_len) = sector_len(algorithm)?;
    let l = algorithm.label_space().size();

    // Pigeonhole: group agents by the block containing m_x.
    let block_of = |m: u64| -> usize { (m as usize).div_ceil(block_len).max(1) };
    let mut groups: BTreeMap<usize, Vec<Label>> = BTreeMap::new();
    for v in 1..=l {
        let label = Label::new(v).expect(">0");
        groups
            .entry(block_of(trimmed.horizon(label)))
            .or_default()
            .push(label);
    }
    let (&m_blocks, _) = groups
        .iter()
        .max_by_key(|(block, members)| (members.len(), usize::MAX - **block))
        .expect("label space is nonempty");
    let group = groups.remove(&m_blocks).expect("chosen key exists");

    let mut vectors = Vec::with_capacity(group.len());
    let mut max_nonzero = 0usize;
    let mut witnesses_hold = true;
    for &label in &group {
        let solo = crate::behavior_vector(algorithm, label, m_blocks as u64 * block_len as u64)?;
        let agg = aggregate_of(&solo, n, m_blocks, block_len);
        let prog = define_progress(&agg);
        let nz = prog.iter().filter(|&&e| e != 0).count();
        max_nonzero = max_nonzero.max(nz);
        // Fact 3.17: k pairs of non-zero entries force k * (n/6) cost in
        // the solo execution over the analyzed window.
        let k = (nz / 2) as u64;
        if solo.weight() < k * (block_len as u64) {
            witnesses_hold = false;
        }
        vectors.push((label, agg, prog));
    }
    let mut seen = std::collections::BTreeSet::new();
    let all_distinct = vectors.iter().all(|(_, _, p)| seen.insert(p.clone()));
    let cost_witness = ((max_nonzero / 2) as u64) * (block_len as u64);

    Ok(ProgressReport {
        n,
        block_len,
        m_blocks,
        group,
        vectors,
        all_distinct,
        max_nonzero,
        cost_witness,
        witnesses_hold,
        trimmed,
    })
}

/// The ring size `n` and the sector (and block) length `n/6`.
fn sector_len(algorithm: &dyn RendezvousAlgorithm) -> Result<(usize, usize), LowerBoundError> {
    let n = oriented_ring_size(algorithm.graph())?;
    if n % 6 != 0 {
        return Err(LowerBoundError::RingNotDivisibleBySix { n });
    }
    Ok((n, n / 6))
}

#[cfg(test)]
mod tests {
    use super::*;
    use rendezvous_core::{Fast, LabelSpace};
    use rendezvous_explore::OrientedRingExplorer;
    use rendezvous_graph::generators;
    use std::sync::Arc;

    #[test]
    fn surplus_sums() {
        assert_eq!(surplus(&[1, -1, 1, 1]), 2);
        assert_eq!(surplus(&[]), 0);
    }

    #[test]
    fn define_progress_zeroes_oscillation() {
        assert_eq!(define_progress(&[1, -1, 1, -1, 0]), vec![0; 5]);
        assert_eq!(define_progress(&[0, 0, 0]), vec![0; 3]);
    }

    #[test]
    fn define_progress_keeps_decisive_crossings() {
        // +1, +1 reaches surplus 2: both kept.
        assert_eq!(define_progress(&[1, 1]), vec![1, 1]);
        // oscillate, then two decisive: a is the *last* entry establishing
        // the persistent surplus.
        assert_eq!(define_progress(&[1, -1, 1, 1]), vec![0, 0, 1, 1]);
        // negative direction symmetric:
        assert_eq!(define_progress(&[-1, 0, -1]), vec![-1, 0, -1]);
    }

    #[test]
    fn define_progress_fact_3_13() {
        // Prog[a] == Prog[b] == Agg[b] != 0 for each preserved pair.
        let agg = [1, 1, -1, -1, -1, 1, 0, 1, 1];
        let prog = define_progress(&agg);
        // first window: [1,1] -> a=0, b=1; restart at 2: [-1,-1] -> a=2,b=3;
        // restart at 4: [-1,1,0,1,1]: prefix sums -1,0,0,1,2 -> b=8;
        // backwards from 8: |1|>=1 at 7 (sum 1), at 6 sum 0 -> stop: a=7.
        assert_eq!(prog, vec![1, 1, -1, -1, 0, 0, 0, 1, 1]);
    }

    #[test]
    fn define_progress_maximal_zero_runs_have_zero_surplus() {
        // Fact 3.14(2) spot-check on a busy vector.
        let agg = [1, -1, 1, 1, 0, -1, 1, -1, -1, -1];
        let prog = define_progress(&agg);
        // find maximal zero runs of prog not touching the end:
        let mut i = 0;
        while i < prog.len() {
            if prog[i] == 0 {
                let start = i;
                while i < prog.len() && prog[i] == 0 {
                    i += 1;
                }
                if i < prog.len() {
                    assert_eq!(
                        surplus(&agg[start..i]),
                        0,
                        "interior zero run {start}..{i} must have zero surplus"
                    );
                }
            } else {
                i += 1;
            }
        }
    }

    #[test]
    fn aggregate_vector_of_fast_on_ring() {
        let g = Arc::new(generators::oriented_ring(12).unwrap());
        let ex = Arc::new(OrientedRingExplorer::new(g.clone()).unwrap());
        let alg = Fast::new(g, ex, LabelSpace::new(4).unwrap());
        let agg = aggregate_vector(&alg, Label::new(3).unwrap(), 12, 2).unwrap();
        assert_eq!(agg.len(), 12);
        assert!(agg.iter().all(|&z| (-1..=1).contains(&z)));
        // Fast on an oriented ring only moves clockwise: no -1 drifts.
        assert!(agg.iter().all(|&z| z >= 0));
    }

    #[test]
    fn progress_audit_on_fast() {
        let g = Arc::new(generators::oriented_ring(12).unwrap());
        let ex = Arc::new(OrientedRingExplorer::new(g.clone()).unwrap());
        let alg = Fast::new(g.clone(), ex, LabelSpace::new(8).unwrap());
        let report = progress_audit(&alg, 20 * alg.time_bound()).unwrap();
        assert_eq!(report.n, 12);
        assert_eq!(report.block_len, 2);
        assert!(!report.group.is_empty());
        // Fact 3.17 must hold for a correct algorithm.
        assert!(report.witnesses_hold);
        // Fast moves a lot: some agent shows non-trivial progress weight.
        assert!(report.max_nonzero >= 2);
        assert!(report.cost_witness >= report.block_len as u64);
    }

    #[test]
    fn progress_audit_rejects_non_multiple_of_six() {
        let g = Arc::new(generators::oriented_ring(8).unwrap());
        let ex = Arc::new(OrientedRingExplorer::new(g.clone()).unwrap());
        let alg = Fast::new(g, ex, LabelSpace::new(4).unwrap());
        assert!(matches!(
            progress_audit(&alg, 10_000),
            Err(LowerBoundError::RingNotDivisibleBySix { n: 8 })
        ));
    }
}
