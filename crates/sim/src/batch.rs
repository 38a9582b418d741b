//! The delay-batched solver: rendezvous outcomes for **every** wake-up
//! delay of one (trajectory, trajectory) pair in a single pass.
//!
//! A deterministic agent's whole walk is a fixed position array (a
//! [`Trajectory`], compiled by `SegmentMemo` in `rendezvous-core`). For a
//! fixed pair of trajectories on a fixed graph, the stepped engine's
//! round loop reduces to offset-shifted array comparisons: delaying the
//! second agent by `d` rounds shifts its position array `d` places to the
//! right, and the meeting round is the first index where the shifted
//! arrays agree. [`BatchSolver`] resolves meeting round, meeting node,
//! cost and edge crossings for each delay from the two arrays alone —
//! O(T + D) for a D-delay sweep instead of the engine's O(D·T) — with
//! semantics equal to [`Simulation`](crate::Simulation) by definition:
//!
//! * both agents occupy their starts from round 0; the second wakes in
//!   round `d + 1`, so its position at the end of round `r` is
//!   `positions[r − d]` (clamped to the array: asleep at `[0]`, idle at
//!   the end after exhaustion);
//! * rendezvous ⇔ equal positions at the end of a round — the first `r`
//!   with `posᴬ(r) = posᴮ(r − d)`;
//! * a crossing is a round where both moved and swapped nodes; it is
//!   counted, never a meeting;
//! * cost is both agents' edge traversals up to the meeting round (or the
//!   horizon).
//!
//! Two structural shortcuts carry the speedup. Once the second agent's
//! array is exhausted (or not yet started) its position is a constant, so
//! the scan windows clamp to O(T) total work; and if the first agent
//! visits the second's start node at round `f`, every delay `d ≥ f` has
//! the **same** O(1) outcome — the sleeper is found at round `f` — which
//! is the paper's `τ > E` observation (Propositions 2.1/2.2) turned into
//! code. The first visit `f` is found on the first solve with a delay of
//! at least 1 (a delay-0 solve can never use it), so building a solver
//! costs nothing. The inner loops scan dense `u32` arrays so the compiler
//! can vectorize them: the meeting search compares aligned position
//! windows in 16-lane chunks, and the crossing count is one branch-free
//! pass, in 8-round chunks, over the aligned position and prefix-move
//! windows.

use std::cell::OnceCell;

/// One agent's precomputed walk as a structure of arrays: the node index
/// occupied after each round plus a running count of edge traversals.
///
/// `positions[r]` is the node at the end of round `r` of the walk's own
/// clock (`positions[0]` is the start); `prefix_moves[r]` counts the
/// traversals among the first `r` steps, so any cost window is a
/// subtraction and "moved in round `r`" is a prefix difference — no
/// separate action array needed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Trajectory {
    positions: Vec<u32>,
    prefix_moves: Vec<u32>,
}

impl Trajectory {
    /// An empty trajectory standing at `start` (node index) forever.
    #[must_use]
    pub fn new(start: u32) -> Self {
        Trajectory {
            positions: vec![start],
            prefix_moves: vec![0],
        }
    }

    /// Like [`Trajectory::new`], with room reserved for `steps` rounds.
    #[must_use]
    pub fn with_capacity(start: u32, steps: usize) -> Self {
        let mut positions = Vec::with_capacity(steps + 1);
        let mut prefix_moves = Vec::with_capacity(steps + 1);
        positions.push(start);
        prefix_moves.push(0);
        Trajectory {
            positions,
            prefix_moves,
        }
    }

    /// Appends one round: the position at the end of the round and
    /// whether the round traversed an edge.
    pub fn push(&mut self, position: u32, moved: bool) {
        let moves = self.prefix_moves.last().copied().unwrap_or(0) + u32::from(moved);
        self.positions.push(position);
        self.prefix_moves.push(moves);
    }

    /// Appends `rounds` idle rounds at once: the position repeats and no
    /// edge is traversed — `rounds` calls of `push(end, false)` in bulk.
    pub fn idle(&mut self, rounds: u64) {
        let rounds = usize::try_from(rounds).expect("idle rounds fit in memory");
        let (end, moves) = (
            self.end(),
            *self.prefix_moves.last().expect("at least the start"),
        );
        self.positions.resize(self.positions.len() + rounds, end);
        self.prefix_moves
            .resize(self.prefix_moves.len() + rounds, moves);
    }

    /// Appends a whole walk `tail` that starts where this one ends: its
    /// positions are copied and its traversal counts offset by this
    /// walk's — `tail.steps()` calls of `push` in bulk.
    ///
    /// # Panics
    ///
    /// Panics if `tail` does not start at this walk's end position.
    pub fn append(&mut self, tail: &Trajectory) {
        assert_eq!(
            tail.start(),
            self.end(),
            "appended walk must continue this one"
        );
        let moves = *self.prefix_moves.last().expect("at least the start");
        self.positions.extend_from_slice(&tail.positions[1..]);
        self.prefix_moves
            .extend(tail.prefix_moves[1..].iter().map(|m| moves + m));
    }

    /// Number of recorded rounds `T` (the walk idles at its end position
    /// afterwards).
    #[must_use]
    pub fn steps(&self) -> u64 {
        (self.positions.len() - 1) as u64
    }

    /// The start node index (`positions[0]`).
    #[must_use]
    pub fn start(&self) -> u32 {
        self.positions[0]
    }

    /// The node index occupied once the walk is exhausted.
    #[must_use]
    pub fn end(&self) -> u32 {
        *self.positions.last().expect("at least the start")
    }

    /// The node index at the end of round `round` of the walk's own
    /// clock, clamped: past the end the agent idles at [`Trajectory::end`].
    #[must_use]
    pub fn position_at(&self, round: u64) -> u32 {
        self.positions[usize::try_from(round.min(self.steps())).expect("clamped to length")]
    }

    /// Edge traversals in rounds `1..=round` of the walk's own clock
    /// (clamped past the end — idling is free).
    #[must_use]
    pub fn moves_through(&self, round: u64) -> u64 {
        u64::from(self.prefix_moves[usize::try_from(round.min(self.steps())).expect("clamped")])
    }

    /// Returns `true` if round `round` (1-based, on the walk's own
    /// clock) traversed an edge; rounds past the end never move.
    #[must_use]
    pub fn moved_in(&self, round: u64) -> bool {
        round >= 1 && round <= self.steps() && {
            let r = usize::try_from(round).expect("within length");
            self.prefix_moves[r] > self.prefix_moves[r - 1]
        }
    }

    /// The dense position array (`positions[r]` = node after round `r`).
    #[must_use]
    pub fn positions(&self) -> &[u32] {
        &self.positions
    }
}

/// Comparison lanes per scan chunk: equality over fixed 16-wide `u32`
/// arrays compiles to vector compares with a movemask-style reduction
/// and no per-element bounds check.
const LANES: usize = 16;

/// The lanes of one chunk where `eq` holds, as a bit mask (bit `i` for
/// lane `i`).
fn lane_mask(chunk: &[u32; LANES], mut eq: impl FnMut(usize, u32) -> bool) -> u32 {
    chunk
        .iter()
        .enumerate()
        .rev()
        .fold(0, |mask, (lane, &x)| (mask << 1) | u32::from(eq(lane, x)))
}

/// Index of the first equal pair of two equal-length slices.
fn first_equal(a: &[u32], b: &[u32]) -> Option<usize> {
    debug_assert_eq!(a.len(), b.len());
    let (a_chunks, b_chunks) = (a.chunks_exact(LANES), b.chunks_exact(LANES));
    let (a_rest, b_rest) = (a_chunks.remainder(), b_chunks.remainder());
    let mut base = 0;
    for (ca, cb) in a_chunks.zip(b_chunks) {
        let cb: &[u32; LANES] = cb.try_into().expect("exact chunk");
        let mask = lane_mask(ca.try_into().expect("exact chunk"), |lane, x| x == cb[lane]);
        if mask != 0 {
            return Some(base + mask.trailing_zeros() as usize);
        }
        base += LANES;
    }
    a_rest
        .iter()
        .zip(b_rest)
        .position(|(x, y)| x == y)
        .map(|k| base + k)
}

/// Index of the first element of `a` equal to the constant `v`.
fn first_equal_to(a: &[u32], v: u32) -> Option<usize> {
    let chunks = a.chunks_exact(LANES);
    let rest = chunks.remainder();
    let mut base = 0;
    for chunk in chunks {
        let mask = lane_mask(chunk.try_into().expect("exact chunk"), |_, x| x == v);
        if mask != 0 {
            return Some(base + mask.trailing_zeros() as usize);
        }
        base += LANES;
    }
    rest.iter().position(|&x| x == v).map(|k| base + k)
}

/// What one delay's execution would have measured: the fields of the
/// engine's [`Outcome`](crate::Outcome) that a pair sweep folds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DelayOutcome {
    /// Global round (1-based) at whose end the agents met, `None` if they
    /// did not within the horizon. With an undelayed first agent this is
    /// exactly the paper's **time**.
    pub round: Option<u64>,
    /// Node index where they met.
    pub node: Option<u32>,
    /// Total edge traversals of both agents up to the meeting round (or
    /// the horizon).
    pub cost: u64,
    /// Rounds in which the agents crossed inside an edge (both moved and
    /// swapped nodes — never a meeting).
    pub crossings: u64,
}

/// Solves one (first trajectory, second trajectory, horizon) pair for
/// any number of second-agent delays, each in (amortized) O(T/D + 1).
///
/// The first agent wakes in round 1 and follows `a`; the second sleeps
/// through `delay` rounds at `b.start()` and then follows `b`. Equal to
/// running [`Simulation`](crate::Simulation) with the same two walks —
/// the equivalence tests below and the byte-identical experiment outputs
/// of the `--engine batched` pipeline rest on this.
#[derive(Debug)]
pub struct BatchSolver<'a> {
    a: &'a Trajectory,
    b: &'a Trajectory,
    horizon: u64,
    /// First round `1..=min(Tᴬ, horizon)` in which the first agent stands
    /// on the second's start node: every `delay ≥ first_visit` meets
    /// there, at that round, with the second agent still asleep. Found
    /// on first use: a delay-0 solve never reads it.
    first_visit: OnceCell<Option<u64>>,
}

impl<'a> BatchSolver<'a> {
    /// Prepares the solver for one trajectory pair under `horizon`, in
    /// O(1): nothing is scanned until a solve needs it.
    #[must_use]
    pub fn new(a: &'a Trajectory, b: &'a Trajectory, horizon: u64) -> Self {
        BatchSolver {
            a,
            b,
            horizon,
            first_visit: OnceCell::new(),
        }
    }

    /// The sleeping-partner round, if any: the first round in which the
    /// first agent stands on the second's start node (one scan of the
    /// first walk, on the first call).
    #[must_use]
    pub fn first_visit(&self) -> Option<u64> {
        *self.first_visit.get_or_init(|| {
            let upper =
                usize::try_from(self.a.steps().min(self.horizon)).expect("trajectory length fits");
            first_equal_to(&self.a.positions()[1..=upper], self.b.start()).map(|k| k as u64 + 1)
        })
    }

    /// The outcome of the execution in which the second agent sleeps
    /// through `delay` rounds.
    #[must_use]
    pub fn solve(&self, delay: u64) -> DelayOutcome {
        let h = self.horizon;
        // Sleeping partner: the first agent reaches the second's start
        // before it wakes — constant outcome for every such delay. A
        // first visit is at round 1 or later, so delay 0 skips the scan.
        if delay > 0 {
            if let Some(f) = self.first_visit().filter(|&f| f <= delay) {
                return DelayOutcome {
                    round: Some(f),
                    node: Some(self.b.start()),
                    cost: self.a.moves_through(f),
                    crossings: 0,
                };
            }
        }
        // The second agent never wakes within the horizon (and the first
        // never finds it asleep, or the shortcut above would have fired).
        if delay >= h {
            return DelayOutcome {
                round: None,
                node: None,
                cost: self.a.moves_through(h),
                crossings: 0,
            };
        }
        let ta = self.a.steps();
        let bd = self.b.steps().saturating_add(delay);
        // No meeting can happen in rounds 1..=delay (that would be a
        // first-visit), and past round max(Tᴬ, Tᴮ + delay) both walks are
        // exhausted and the configuration is frozen.
        let lo = delay + 1;
        let rmax = h.min(ta.max(bd));
        let ap = self.a.positions();
        let bp = self.b.positions();
        let mut meeting: Option<u64> = None;
        // Both walks live: positions[r] against positions[r − delay].
        let live_hi = rmax.min(ta).min(bd);
        if lo <= live_hi {
            let len = usize::try_from(live_hi - lo + 1).expect("window fits");
            let ao = usize::try_from(lo).expect("round fits");
            let bo = usize::try_from(lo - delay).expect("round fits");
            meeting = first_equal(&ap[ao..ao + len], &bp[bo..bo + len]).map(|k| lo + k as u64);
        }
        // Second exhausted first: scan the first's tail against the
        // second's frozen end position (or vice versa). At most one of
        // these windows is non-empty.
        if meeting.is_none() && bd < rmax.min(ta) {
            let from = lo.max(bd + 1);
            let hi = rmax.min(ta);
            let len = usize::try_from(hi - from + 1).expect("window fits");
            let off = usize::try_from(from).expect("round fits");
            meeting = first_equal_to(&ap[off..off + len], self.b.end()).map(|k| from + k as u64);
        }
        if meeting.is_none() && ta < rmax.min(bd) {
            let from = lo.max(ta + 1);
            let hi = rmax.min(bd);
            let len = usize::try_from(hi - from + 1).expect("window fits");
            let off = usize::try_from(from - delay).expect("round fits");
            meeting = first_equal_to(&bp[off..off + len], self.a.end()).map(|k| from + k as u64);
        }
        let crossings = self.crossings_through(delay, meeting.unwrap_or(h));
        match meeting {
            Some(m) => DelayOutcome {
                round: Some(m),
                node: Some(self.a.position_at(m)),
                cost: self.a.moves_through(m) + self.b.moves_through(m - delay),
                crossings,
            },
            None => DelayOutcome {
                round: None,
                node: None,
                cost: self.a.moves_through(h) + self.b.moves_through(h - delay),
                crossings,
            },
        }
    }

    /// Crossings in rounds `delay + 1 ..= end` (the engine counts the
    /// meeting round too, before its meeting check): both agents moved
    /// and swapped nodes. Rounds where either walk is exhausted cannot
    /// cross, so the window clamps to both arrays; the count is one
    /// [`count_swaps`] lane scan over the aligned windows.
    fn crossings_through(&self, delay: u64, end: u64) -> u64 {
        let hi = end
            .min(self.a.steps())
            .min(self.b.steps().saturating_add(delay));
        if hi <= delay {
            return 0;
        }
        // Round `delay + 1 + k` is index `delay + 1 + k` of the first
        // walk and `1 + k` of the second; each window also holds the
        // round before its first.
        let rounds = usize::try_from(hi - delay).expect("window fits");
        let a0 = usize::try_from(delay).expect("round fits");
        let a = a0..=a0 + rounds;
        count_swaps(
            &self.a.positions[a.clone()],
            &self.a.prefix_moves[a],
            &self.b.positions[..=rounds],
            &self.b.prefix_moves[..=rounds],
        )
    }

    /// The per-round reference scan [`BatchSolver::crossings_through`]
    /// replaced, kept as its oracle.
    #[cfg(test)]
    fn crossings_through_scalar(&self, delay: u64, end: u64) -> u64 {
        let hi = end
            .min(self.a.steps())
            .min(self.b.steps().saturating_add(delay));
        let ap = self.a.positions();
        let bp = self.b.positions();
        let mut crossings = 0;
        for r in delay + 1..=hi {
            let i = usize::try_from(r).expect("round fits");
            let j = usize::try_from(r - delay).expect("round fits");
            if self.a.moved_in(r)
                && self.b.moved_in(r - delay)
                && ap[i] == bp[j - 1]
                && ap[i - 1] == bp[j]
            {
                crossings += 1;
            }
        }
        crossings
    }
}

/// Rounds per [`count_swaps`] chunk. Each chunk sums its rounds in a
/// `u32` that provably cannot overflow, so the loop vectorizes in builds
/// with overflow checks too; one plain loop over all rounds keeps a
/// checked `u64` running sum there and measured about 2× slower on
/// `batch/crossings_scan`, and no faster in release builds.
const SWAP_LANES: usize = 8;

/// Rounds in which two aligned walks swap nodes while both traverse an
/// edge. The four windows have one length `n + 1`, and step `k < n` is the
/// round from index `k` to `k + 1`: it counts when `a[k + 1] = b[k]`,
/// `a[k] = b[k + 1]` and both prefix-move counts step. Branch-free, over
/// eight windows cut to length `n`, in [`SWAP_LANES`]-round chunks.
fn count_swaps(a_pos: &[u32], a_moves: &[u32], b_pos: &[u32], b_moves: &[u32]) -> u64 {
    let n = a_pos.len() - 1;
    assert!(
        a_moves.len() == n + 1 && b_pos.len() == n + 1 && b_moves.len() == n + 1,
        "aligned windows"
    );
    let (a_from, a_to) = (&a_pos[..n], &a_pos[1..=n]);
    let (b_from, b_to) = (&b_pos[..n], &b_pos[1..=n]);
    let (am_from, am_to) = (&a_moves[..n], &a_moves[1..=n]);
    let (bm_from, bm_to) = (&b_moves[..n], &b_moves[1..=n]);
    let swap = |k: usize| {
        u32::from(a_to[k] == b_from[k])
            & u32::from(a_from[k] == b_to[k])
            & u32::from(am_to[k] != am_from[k])
            & u32::from(bm_to[k] != bm_from[k])
    };
    let chunks = n / SWAP_LANES;
    let mut total = 0u64;
    for c in 0..chunks {
        let base = c * SWAP_LANES;
        let mut lanes: u32 = 0;
        for lane in 0..SWAP_LANES {
            lanes += swap(base + lane);
        }
        total += u64::from(lanes);
    }
    total
        + (chunks * SWAP_LANES..n)
            .map(|k| u64::from(swap(k)))
            .sum::<u64>()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{run_solo, Action, AgentBehavior, AgentSpec, Simulation};
    use proptest::prelude::*;
    use rendezvous_graph::{generators, NodeId, Port, PortLabeledGraph};

    /// Replays a recorded solo walk — the scripted oracle counterpart of
    /// the trajectories under test.
    struct Replay {
        ports: Vec<Option<Port>>,
        cursor: usize,
    }

    impl AgentBehavior for Replay {
        fn next_action(&mut self, _o: crate::Observation) -> Action {
            let action = match self.ports.get(self.cursor) {
                Some(Some(p)) => Action::Move(*p),
                _ => Action::Stay,
            };
            self.cursor += 1;
            action
        }
    }

    /// Builds the trajectory of a port script from `start` by running it
    /// solo, so trajectory and oracle walk are the same by construction.
    fn trajectory_of(g: &PortLabeledGraph, start: NodeId, ports: &[Option<Port>]) -> Trajectory {
        let mut walker = Replay {
            ports: ports.to_vec(),
            cursor: 0,
        };
        let trace = run_solo(g, &mut walker, start, ports.len() as u64).unwrap();
        let mut t = Trajectory::new(trace.positions[0].index() as u32);
        for (r, a) in trace.actions.iter().enumerate() {
            t.push(trace.positions[r + 1].index() as u32, a.is_move());
        }
        t
    }

    /// Exhaustive oracle: for every delay in `0..=max_delay`, the solver
    /// must agree with the stepped engine on meeting round, meeting node,
    /// cost and crossings.
    fn assert_matches_engine(
        g: &PortLabeledGraph,
        start_a: NodeId,
        ports_a: &[Option<Port>],
        start_b: NodeId,
        ports_b: &[Option<Port>],
        horizon: u64,
        max_delay: u64,
    ) {
        let ta = trajectory_of(g, start_a, ports_a);
        let tb = trajectory_of(g, start_b, ports_b);
        let solver = BatchSolver::new(&ta, &tb, horizon);
        for delay in 0..=max_delay {
            let engine = Simulation::new(g)
                .agent(
                    Box::new(Replay {
                        ports: ports_a.to_vec(),
                        cursor: 0,
                    }),
                    AgentSpec::immediate(start_a),
                )
                .agent(
                    Box::new(Replay {
                        ports: ports_b.to_vec(),
                        cursor: 0,
                    }),
                    AgentSpec::delayed(start_b, delay),
                )
                .max_rounds(horizon)
                .run()
                .unwrap();
            let batched = solver.solve(delay);
            assert_eq!(
                batched.round,
                engine.meeting().map(|m| m.round),
                "meeting round diverged at delay {delay}"
            );
            assert_eq!(
                batched.node,
                engine.meeting().map(|m| m.node.index() as u32),
                "meeting node diverged at delay {delay}"
            );
            assert_eq!(
                batched.cost,
                engine.cost(),
                "cost diverged at delay {delay}"
            );
            assert_eq!(
                batched.crossings,
                engine.crossings(),
                "crossings diverged at delay {delay}"
            );
        }
    }

    fn cw(steps: usize) -> Vec<Option<Port>> {
        vec![Some(Port::new(0)); steps]
    }

    fn ccw(steps: usize) -> Vec<Option<Port>> {
        vec![Some(Port::new(1)); steps]
    }

    #[test]
    fn walker_vs_sitter_matches_engine_for_all_delays() {
        let g = generators::oriented_ring(7).unwrap();
        // Sitter: delays beyond the first visit all hit the O(1) path.
        assert_matches_engine(&g, NodeId::new(0), &cw(6), NodeId::new(4), &[], 40, 45);
    }

    #[test]
    fn opposing_walkers_match_engine_including_crossings() {
        let g = generators::oriented_ring(6).unwrap();
        // cw vs ccw from adjacent nodes: crossings guaranteed.
        assert_matches_engine(
            &g,
            NodeId::new(0),
            &cw(12),
            NodeId::new(1),
            &ccw(12),
            30,
            32,
        );
        // And from opposite nodes, where they meet head-on.
        assert_matches_engine(
            &g,
            NodeId::new(0),
            &cw(12),
            NodeId::new(3),
            &ccw(12),
            30,
            32,
        );
    }

    #[test]
    fn stop_and_go_scripts_match_engine() {
        let g = generators::oriented_ring(8).unwrap();
        // Irregular scripts: moves interleaved with stays, different
        // lengths, so every clamping window gets exercised.
        let a: Vec<Option<Port>> = vec![
            Some(Port::new(0)),
            None,
            Some(Port::new(0)),
            Some(Port::new(0)),
            None,
            None,
            Some(Port::new(1)),
            Some(Port::new(0)),
            Some(Port::new(0)),
        ];
        let b: Vec<Option<Port>> = vec![
            None,
            Some(Port::new(1)),
            None,
            Some(Port::new(1)),
            Some(Port::new(1)),
        ];
        assert_matches_engine(&g, NodeId::new(2), &a, NodeId::new(6), &b, 25, 30);
    }

    #[test]
    fn delays_past_the_horizon_freeze_the_second_agent() {
        let g = generators::oriented_ring(5).unwrap();
        // Horizon tighter than both scripts, delays far beyond it.
        assert_matches_engine(&g, NodeId::new(0), &cw(3), NodeId::new(3), &ccw(9), 4, 12);
    }

    #[test]
    fn zero_horizon_executes_nothing() {
        let g = generators::oriented_ring(4).unwrap();
        let ta = trajectory_of(&g, NodeId::new(0), &cw(3));
        let tb = trajectory_of(&g, NodeId::new(2), &cw(3));
        let solver = BatchSolver::new(&ta, &tb, 0);
        for delay in [0, 1, 7] {
            let out = solver.solve(delay);
            assert_eq!(out.round, None);
            assert_eq!(out.cost, 0);
            assert_eq!(out.crossings, 0);
        }
    }

    #[test]
    fn trajectory_accounting() {
        let g = generators::oriented_ring(5).unwrap();
        let t = trajectory_of(
            &g,
            NodeId::new(1),
            &[Some(Port::new(0)), None, Some(Port::new(0))],
        );
        assert_eq!(t.steps(), 3);
        assert_eq!(t.start(), 1);
        assert_eq!(t.end(), 3);
        assert_eq!(t.positions(), &[1, 2, 2, 3]);
        assert_eq!(t.moves_through(0), 0);
        assert_eq!(t.moves_through(2), 1);
        assert_eq!(t.moves_through(99), 2, "clamped past the end");
        assert!(t.moved_in(1) && !t.moved_in(2) && t.moved_in(3));
        assert!(!t.moved_in(0) && !t.moved_in(4));
        assert_eq!(t.position_at(2), 2);
        assert_eq!(t.position_at(50), 3, "idles at the end");
    }

    #[test]
    fn word_scan_agrees_with_the_naive_scan() {
        // Lengths across three 16-lane chunks and their remainders, match
        // positions in every lane, plus the no-match case.
        for len in 0..=50usize {
            for hit in 0..=len {
                let a: Vec<u32> = (0..len as u32).collect();
                let mut b: Vec<u32> = (100..100 + len as u32).collect();
                if hit < len {
                    b[hit] = hit as u32;
                }
                let expected = (hit < len).then_some(hit);
                assert_eq!(first_equal(&a, &b), expected, "len {len}, hit {hit}");
                let mut c = vec![77u32; len];
                if hit < len {
                    c[hit] = 5;
                }
                assert_eq!(first_equal_to(&c, 5), expected, "len {len}, hit {hit}");
            }
        }
    }

    /// A walk of arbitrary steps over three node indices, with move flags
    /// drawn independently of positions, so swaps with and without moves
    /// are both common. Lengths straddle several 16-lane chunks.
    fn arbitrary_trajectory() -> impl Strategy<Value = Trajectory> {
        (0u32..3, collection::vec((0u32..3, 0u8..2), 0..70)).prop_map(|(start, steps)| {
            let mut t = Trajectory::new(start);
            for (position, moved) in steps {
                t.push(position, moved == 1);
            }
            t
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(1024))]

        #[test]
        fn lane_scan_crossings_equal_the_scalar_oracle(
            a in arbitrary_trajectory(),
            b in arbitrary_trajectory(),
            delay in 0u64..50,
            horizon in 0u64..60,
        ) {
            let solver = BatchSolver::new(&a, &b, horizon);
            prop_assert_eq!(
                solver.crossings_through(delay, horizon),
                solver.crossings_through_scalar(delay, horizon),
                "delay {delay}, horizon {horizon}"
            );
        }

        /// The first visit is found on demand, so one solver's answers
        /// must not depend on which delays it was asked before: any
        /// sequence (delay 0 first, descending, repeated, past the
        /// horizon) gives what a fresh solver gives per delay, and
        /// `first_visit` is the naive scan's round.
        #[test]
        fn one_solver_answers_any_delay_sequence_like_fresh_solvers(
            a in arbitrary_trajectory(),
            b in arbitrary_trajectory(),
            delays in collection::vec(0u64..90, 0..12),
            zero_first in 0u8..2,
            horizon in 0u64..80,
        ) {
            let mut delays = delays;
            if zero_first == 1 {
                delays.insert(0, 0);
            }
            let reused = BatchSolver::new(&a, &b, horizon);
            for (i, &delay) in delays.iter().chain(delays.iter().rev()).enumerate() {
                prop_assert_eq!(
                    reused.solve(delay),
                    BatchSolver::new(&a, &b, horizon).solve(delay),
                    "call {i}, delay {delay}, horizon {horizon}"
                );
            }
            let naive = (1..=a.steps().min(horizon)).find(|&r| a.position_at(r) == b.start());
            prop_assert_eq!(reused.first_visit(), naive);
            prop_assert_eq!(BatchSolver::new(&a, &b, horizon).first_visit(), naive);
        }
    }

    #[test]
    fn appended_walks_equal_pushed_rounds() {
        let mut pushed = Trajectory::new(2);
        let mut appended = Trajectory::new(2);
        let mut tail = Trajectory::new(2);
        for (position, moved) in [(3, true), (3, false), (1, true)] {
            pushed.push(position, moved);
            tail.push(position, moved);
        }
        appended.append(&tail);
        assert_eq!(appended, pushed);
        // A second append offsets its moves by the walk so far.
        let mut second = Trajectory::with_capacity(1, 2);
        second.push(0, true);
        second.push(0, false);
        pushed.push(0, true);
        pushed.push(0, false);
        appended.append(&second);
        assert_eq!(appended, pushed);
        assert_eq!(appended.moves_through(5), 3);
    }
}
