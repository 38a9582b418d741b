//! The one sweep abstraction: a [`Workload`] is any index-stable, capped,
//! splittable source of scenarios.
//!
//! Every experiment in this workspace has the same shape — enumerate an
//! adversarial configuration space, run each configuration, fold
//! worst-case witnesses, compare against the paper's time–cost bounds.
//! The spaces differ (label/start/delay grids, k-agent fleets, hundreds
//! of seeded topologies), but the pipeline does not, so the pipeline is
//! defined **once** over this trait:
//!
//! ```text
//! enumerate (Workload::pieces) → run (PieceExecutor) → fold (SweepReport)
//!     → split (Workload::lease_ranges) → merge (SweepReport::merge)
//! ```
//!
//! A workload exposes its units as a virtual list indexed `0..size()`:
//! unit `i` is always the same `(key, context, Scenario)` triple, no
//! matter which process enumerates it or which contiguous range it lands
//! in. That index stability is what makes everything downstream
//! deterministic: [`Runner::sweep`](crate::Runner::sweep) folds outcomes
//! at their global indices, worst-case witnesses tie-break toward the
//! lowest global index, and [`SweepReport::merge`](crate::SweepReport::merge)
//! reassembles split sweeps byte-identically.
//!
//! Two implementations ship here:
//!
//! * [`Grid`](crate::Grid) — one graph, scenarios enumerated from label
//!   pairs × start pairs × delays (pair mode) or fleet sizes × rotations ×
//!   delay phases (fleet mode). One piece, empty fold key.
//! * [`TopoGrid`](crate::TopoGrid) — many graphs: the concatenation of
//!   per-[`GraphSpec`](rendezvous_graph::GraphSpec) grids, each built
//!   once. One piece per spec a range touches; the fold key is the spec's
//!   graph family, so the report groups per family.

use crate::topo::TopoEntry;
use crate::{Bounds, Runner, RunnerError, Scenario, ScenarioOutcome};
use serde::{Deserialize, Serialize};

/// A contiguous run of one workload's units sharing a single context —
/// what [`Runner::sweep`](crate::Runner::sweep) hands to the executor.
///
/// A [`Grid`](crate::Grid) range is always one piece; a
/// [`TopoGrid`](crate::TopoGrid) range yields one piece per spec it
/// touches (range boundaries may fall inside a spec's scenario list).
#[derive(Debug)]
pub struct WorkPiece<'w> {
    /// Global workload index of `scenarios[0]`.
    pub offset: usize,
    /// Fold key of every unit in the piece: the empty string for
    /// single-group workloads, the graph family for topology sweeps.
    /// [`SweepReport`](crate::SweepReport) groups its aggregates by this.
    pub key: &'w str,
    /// The topology context — the built graph, its spec, its grid — when
    /// the workload sweeps many graphs; `None` for plain grids.
    pub entry: Option<&'w TopoEntry>,
    /// The piece's scenarios, in global index order.
    pub scenarios: Vec<Scenario>,
}

/// Which kind of workload produced a sweep — the discriminant fabric
/// checkpoints and replays store so a replay can detect a report that
/// came from a different sweep sequence. Serializable: the fabric's lease protocol
/// sends it over the wire so coordinator and workers can agree they are
/// sweeping the same space.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum WorkloadKind {
    /// A scenario [`Grid`](crate::Grid) on one graph (pair or fleet mode).
    Grid,
    /// A [`TopoGrid`](crate::TopoGrid) over many graphs.
    Topo,
}

impl std::fmt::Display for WorkloadKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WorkloadKind::Grid => write!(f, "grid"),
            WorkloadKind::Topo => write!(f, "topo"),
        }
    }
}

/// A workload's self-description: its kind, a content digest of the
/// parameters that define the swept space, and the two sizes (pre-cap
/// and post-cap). Fabric checkpoints and replays record this next to
/// each fold so a resume or replay against a *different* sweep sequence
/// fails loudly
/// instead of folding garbage; the fabric's lease protocol carries it in
/// every work request so a coordinator never hands out ranges of a space
/// the worker is not actually enumerating; the result store keys cached
/// reports by it.
///
/// The sizes alone are *not* a sound identity — two grids on the same
/// graph with different horizons or label values can enumerate the same
/// number of units — which is why the `digest` folds the actual
/// defining content (horizon, labels, starts, delays, caps, fleet axes;
/// per-spec identities for topology sweeps).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct WorkloadMeta {
    /// What kind of workload this is.
    pub kind: WorkloadKind,
    /// FNV-1a fold of the workload's defining parameters (see
    /// [`Fnv1a`]); equal spaces hash equal in every process.
    pub digest: u64,
    /// Size of the space before any sampling cap (saturating).
    pub full_size: usize,
    /// Units the workload actually yields (caps applied) — equals
    /// [`Workload::size`].
    pub size: usize,
}

impl WorkloadMeta {
    /// The canonical printable fingerprint of this workload — the one
    /// spelling shared by the fabric checkpoint diagnostics, the
    /// `--plan` preview and the result store's content addresses, so a
    /// regression in any one of them is a disagreement with the others.
    ///
    /// Format: `{kind}-{digest:016x}-f{full_size}-s{size}`.
    #[must_use]
    pub fn fingerprint(&self) -> String {
        format!(
            "{}-{:016x}-f{}-s{}",
            self.kind, self.digest, self.full_size, self.size
        )
    }
}

/// A streaming FNV-1a 64-bit hasher — the workspace's canonical content
/// digest. Chosen over `std`'s `DefaultHasher` because its output is
/// pinned by the algorithm, not by the standard library version: every
/// process (and every future build) folds the same parameters to the
/// same `u64`, which is what lets digests serve as cross-process cache
/// keys and wire fingerprints.
#[derive(Debug, Clone)]
pub struct Fnv1a(u64);

impl Fnv1a {
    /// Starts a digest at the FNV-1a offset basis.
    #[must_use]
    pub fn new() -> Fnv1a {
        Fnv1a(0xcbf2_9ce4_8422_2325)
    }

    /// Folds raw bytes into the digest.
    pub fn write_bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x100_0000_01b3);
        }
    }

    /// Folds one `u64`, big-endian.
    pub fn write_u64(&mut self, v: u64) {
        self.write_bytes(&v.to_be_bytes());
    }

    /// Folds one `usize` (widened — never truncates).
    pub fn write_usize(&mut self, v: usize) {
        self.write_u64(u64::try_from(v).expect("usize fits in u64"));
    }

    /// The digest of everything written so far.
    #[must_use]
    pub fn finish(&self) -> u64 {
        self.0
    }
}

impl Default for Fnv1a {
    fn default() -> Fnv1a {
        Fnv1a::new()
    }
}

/// An index-stable, capped, splittable source of `(global index, context,
/// Scenario)` units — the single abstraction behind every sweep.
///
/// # Contract
///
/// * **Index stability.** Unit `i` of `0..size()` is always the same
///   scenario with the same key and context; enumeration applies any
///   sampling cap *before* indexing, so every process that builds the
///   same workload sees the same list.
/// * **Pieces partition.** `pieces(lo, hi)` covers exactly `[lo, hi)` in
///   global order with disjoint contiguous pieces (`piece.offset` rises,
///   scenarios concatenate to the range).
/// * **Lease ranges partition.** `lease_ranges(chunk)` tiles
///   `[0, size())` in order with contiguous ranges of at most `chunk`
///   units.
///
/// Under that contract, [`Runner::sweep_range`](crate::Runner::sweep_range)
/// over any split of the index space merges back to the whole-workload
/// [`SweepReport`](crate::SweepReport) field for field — witnesses and
/// their lowest-global-index tie-breaks included.
pub trait Workload {
    /// Total units the workload yields (sampling caps applied).
    fn size(&self) -> usize;

    /// The workload's fingerprint.
    fn meta(&self) -> WorkloadMeta;

    /// Cuts the global index range `[lo, hi)` into contiguous pieces, in
    /// global order.
    ///
    /// # Panics
    ///
    /// Panics if `lo > hi` or `hi > self.size()`.
    fn pieces(&self, lo: usize, hi: usize) -> Vec<WorkPiece<'_>>;

    /// The number of pieces `pieces(lo, hi)` yields. The default
    /// enumerates them; implementations override it to count without
    /// materializing scenarios, which is all live progress needs to plan
    /// a sweep.
    ///
    /// # Panics
    ///
    /// See [`Workload::pieces`].
    fn piece_count(&self, lo: usize, hi: usize) -> usize {
        self.pieces(lo, hi).len()
    }

    /// Cuts the global index space `[0, size())` into contiguous lease
    /// ranges of at most `chunk` units — the fabric coordinator's
    /// dispatch granularity. These small ranges are handed out dynamically, so
    /// wildly uneven pieces (a topology sweep mixing tiny rings with
    /// dense tori) balance themselves across however many workers pull
    /// them. Any contiguous ordered partition merges back byte-identically
    /// ([`SweepReport::merge`](crate::SweepReport::merge) is associative),
    /// so the chunk size is purely a scheduling knob.
    ///
    /// # Panics
    ///
    /// Panics if `chunk == 0`.
    fn lease_ranges(&self, chunk: usize) -> Vec<(usize, usize)> {
        assert!(chunk > 0, "lease chunks must hold at least one unit");
        let len = self.size();
        (0..len.div_ceil(chunk))
            .map(|i| (i * chunk, ((i + 1) * chunk).min(len)))
            .collect()
    }
}

/// Executes the pieces of a [`Workload`] — the seam between the generic
/// sweep pipeline and the algorithm under test.
///
/// Per-scenario [`Executor`](crate::Executor)s get this for free via the
/// blanket impl (no sweep-level bounds; per-outcome bounds still apply).
/// Wrap one in [`Bounded`](crate::Bounded) to attach sweep-level
/// [`Bounds`]; implement the trait directly when each piece needs its own
/// machinery (topology sweeps build the algorithm per entry on the
/// piece's cached graph).
pub trait PieceExecutor {
    /// Runs `piece.scenarios` (in order) and returns the outcomes **in
    /// input order**, together with the bounds the piece's outcomes are
    /// judged against (`None` when only per-outcome bounds apply).
    ///
    /// `runner` is the sweep's own runner, for executors that run their
    /// batch through [`Runner::outcomes`] or read its telemetry sink.
    ///
    /// # Errors
    ///
    /// Any configuration or simulation error, which aborts the sweep.
    fn run_piece(
        &self,
        runner: &Runner,
        piece: &WorkPiece<'_>,
    ) -> Result<(Vec<ScenarioOutcome>, Option<Bounds>), RunnerError>;
}

impl<E: crate::Executor> PieceExecutor for E {
    fn run_piece(
        &self,
        runner: &Runner,
        piece: &WorkPiece<'_>,
    ) -> Result<(Vec<ScenarioOutcome>, Option<Bounds>), RunnerError> {
        runner.outcomes(self, &piece.scenarios).map(|o| (o, None))
    }
}

/// Attaches sweep-level [`Bounds`] to a per-scenario
/// [`Executor`](crate::Executor): every outcome of every piece is judged
/// against the same pair — the shape of the paper's two-agent sweeps,
/// where one algorithm (hence one `E`, one bound pair) covers the whole
/// grid.
pub struct Bounded<'a> {
    executor: &'a dyn crate::Executor,
    bounds: Option<Bounds>,
}

impl<'a> Bounded<'a> {
    /// Wraps `executor`, judging every outcome against `bounds`.
    #[must_use]
    pub fn new(executor: &'a dyn crate::Executor, bounds: Option<Bounds>) -> Self {
        Bounded { executor, bounds }
    }
}

impl PieceExecutor for Bounded<'_> {
    fn run_piece(
        &self,
        runner: &Runner,
        piece: &WorkPiece<'_>,
    ) -> Result<(Vec<ScenarioOutcome>, Option<Bounds>), RunnerError> {
        runner
            .outcomes(self.executor, &piece.scenarios)
            .map(|o| (o, self.bounds))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Index-space-only stand-in: `lease_ranges` touches nothing but
    /// `size()`.
    struct Sized(usize);

    impl Workload for Sized {
        fn size(&self) -> usize {
            self.0
        }
        fn meta(&self) -> WorkloadMeta {
            WorkloadMeta {
                kind: WorkloadKind::Grid,
                digest: 0,
                full_size: self.0,
                size: self.0,
            }
        }
        fn pieces(&self, _lo: usize, _hi: usize) -> Vec<WorkPiece<'_>> {
            unreachable!("lease_ranges never enumerates pieces")
        }
    }

    #[test]
    fn lease_ranges_tile_the_index_space_in_order() {
        assert_eq!(
            Sized(10).lease_ranges(3),
            vec![(0, 3), (3, 6), (6, 9), (9, 10)]
        );
        assert_eq!(Sized(9).lease_ranges(3), vec![(0, 3), (3, 6), (6, 9)]);
        assert_eq!(Sized(4).lease_ranges(100), vec![(0, 4)]);
        assert_eq!(Sized(0).lease_ranges(5), Vec::<(usize, usize)>::new());
        // Contiguity and coverage, the property `SweepReport::merge`
        // relies on.
        let ranges = Sized(173).lease_ranges(7);
        assert_eq!(ranges[0].0, 0);
        assert_eq!(ranges.last().unwrap().1, 173);
        for pair in ranges.windows(2) {
            assert_eq!(pair[0].1, pair[1].0);
        }
    }

    #[test]
    #[should_panic(expected = "at least one unit")]
    fn zero_sized_lease_chunks_are_refused() {
        let _ = Sized(10).lease_ranges(0);
    }

    #[test]
    fn fingerprint_spells_kind_digest_and_sizes() {
        let meta = WorkloadMeta {
            kind: WorkloadKind::Topo,
            digest: 0xabc,
            full_size: 48,
            size: 17,
        };
        assert_eq!(meta.fingerprint(), "topo-0000000000000abc-f48-s17");
    }

    #[test]
    fn fnv1a_matches_the_published_reference_vectors() {
        // The digest must be pinned by the algorithm, not by the stdlib:
        // these are the standard FNV-1a 64 test vectors.
        let empty = Fnv1a::new();
        assert_eq!(empty.finish(), 0xcbf2_9ce4_8422_2325);
        let mut h = Fnv1a::new();
        h.write_bytes(b"a");
        assert_eq!(h.finish(), 0xaf63_dc4c_8601_ec8c);
        let mut h = Fnv1a::new();
        h.write_bytes(b"foobar");
        assert_eq!(h.finish(), 0x8594_4171_f739_67e8);
    }
}
