//! The fabric driver's replay, end to end in one process: a sweep
//! sequence mixing all three workload shapes — a pair grid, a gathering
//! fleet grid, and a topology sweep — run direct, turned into the
//! `(meta, report)` list a fabric coordinator hands its driver, and
//! replayed. The replayed reports must equal the direct run **byte for
//! byte** as JSON: the single replay cursor has to keep grid and topo
//! sweeps in call order, or every x1–x11 `--fabric` run would come
//! apart.
//!
//! Replay diagnostics live here too: each test installs its own
//! thread's session.

use rendezvous_bench::common::sweep_recorded;
use rendezvous_bench::engine::Engine;
use rendezvous_bench::fabric::Replay;
use rendezvous_bench::session::{self, Mode, Session};
use rendezvous_core::{Cheap, Fast, LabelSpace, RendezvousAlgorithm};
use rendezvous_explore::{spec_explorer, OrientedRingExplorer};
use rendezvous_graph::{generators, GraphSpec, RingSpec, SeededSpec};
use rendezvous_runner::{
    AlgorithmExecutor, Bounds, FleetRule, GatheringExecutor, Grid, PieceExecutor, Runner,
    RunnerError, ScenarioOutcome, SweepReport, TopoGrid, WorkPiece, Workload, WorkloadKind,
    WorkloadMeta,
};
use std::sync::Arc;

/// Installs a replay of `sweeps` from `source` (a fresh cursor).
fn begin_replay(sweeps: Vec<(WorkloadMeta, SweepReport)>, source: &str) {
    let replay = Replay::new(sweeps, source.into());
    session::install(Session::new(Engine::default(), None, Mode::Replay(replay)));
}

/// Minimal topology piece executor (the x10 shape): build `Cheap` on the
/// piece's cached graph, report its paper bounds.
struct CheapTopo {
    l: u64,
}

impl PieceExecutor for CheapTopo {
    fn run_piece(
        &self,
        runner: &Runner,
        piece: &WorkPiece<'_>,
    ) -> Result<(Vec<ScenarioOutcome>, Option<Bounds>), RunnerError> {
        let entry = piece.entry.expect("topology pieces carry their entry");
        let explorer = spec_explorer(&entry.spec, entry.graph.clone())
            .map_err(|e| RunnerError::new(e.to_string()))?;
        let alg = Cheap::new(
            entry.graph.clone(),
            explorer,
            LabelSpace::new(self.l).expect("l >= 2"),
        );
        let bounds = Bounds {
            time: rendezvous_core::RendezvousAlgorithm::time_bound(&alg),
            cost: rendezvous_core::RendezvousAlgorithm::cost_bound(&alg),
        };
        let outcomes = runner.outcomes(&AlgorithmExecutor::new(&alg), &piece.scenarios)?;
        Ok((outcomes, Some(bounds)))
    }
}

/// One deterministic sweep sequence through the recorded path: pair grid,
/// fleet grid, topology grid — every workload shape the experiments run —
/// each report next to its workload's fingerprint.
fn run_sequence(runner: &Runner) -> Vec<(WorkloadMeta, SweepReport)> {
    let mut reports = Vec::new();

    // 1. A pair sweep with executor bounds (the x1–x8 shape).
    let g = Arc::new(generators::oriented_ring(6).unwrap());
    let ex = Arc::new(OrientedRingExplorer::new(g.clone()).unwrap());
    let cheap = Cheap::new(g.clone(), ex.clone(), LabelSpace::new(4).unwrap());
    let bounds = Some(Bounds {
        time: cheap.time_bound(),
        cost: cheap.cost_bound(),
    });
    let pair_grid = Grid::new(4 * cheap.time_bound())
        .label_pairs_both_orders(&[(1, 4), (2, 3)])
        .delays(&[0, 2])
        .all_start_pairs(&g);
    let executor = AlgorithmExecutor::new(&cheap).with_bounds(bounds);
    reports.push((
        pair_grid.meta(),
        sweep_recorded("replay pair", &pair_grid, &executor, runner),
    ));

    // 2. A gathering fleet sweep with per-outcome bounds (the x9 shape).
    let g8 = Arc::new(generators::oriented_ring(8).unwrap());
    let ex8 = Arc::new(OrientedRingExplorer::new(g8.clone()).unwrap());
    let fast: Arc<dyn RendezvousAlgorithm> =
        Arc::new(Fast::new(g8.clone(), ex8, LabelSpace::new(8).unwrap()));
    let rule = FleetRule::spread(&g8, 8);
    let horizon = 4 * 2 * (fast.time_bound() + rule.max_delay());
    let fleet_grid = Grid::new(horizon)
        .fleet_sizes(&[2, 3])
        .fleet_rule(rule)
        .fleet_rotations(&[0, 1])
        .delays(&[0, 5]);
    reports.push((
        fleet_grid.meta(),
        sweep_recorded(
            "replay fleet",
            &fleet_grid,
            &GatheringExecutor::new(fast),
            runner,
        ),
    ));

    // 3. A topology sweep (the x10 shape), small but multi-family.
    let specs = vec![
        GraphSpec::Ring(RingSpec { n: 5 }),
        GraphSpec::ScrambledRing(SeededSpec { n: 5, seed: 3 }),
        GraphSpec::Tree(SeededSpec { n: 6, seed: 4 }),
        GraphSpec::Ring(RingSpec { n: 6 }),
    ];
    let topo = TopoGrid::build(specs, |_, g| {
        Grid::new(400)
            .label_pairs_both_orders(&[(1, 3)])
            .delays(&[0, 2])
            .all_start_pairs(g)
            .sample_cap(9)
    })
    .expect("specs build");
    reports.push((
        topo.meta(),
        sweep_recorded("replay topo", &topo, &CheapTopo { l: 3 }, runner),
    ));

    reports
}

fn to_json(reports: &[(WorkloadMeta, SweepReport)]) -> Vec<String> {
    reports
        .iter()
        .map(|(_, r)| serde_json::to_string(r).expect("serializable report"))
        .collect()
}

/// Runs `run` expecting a replay diagnostic and returns its message.
fn caught(run: impl FnOnce()) -> String {
    let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(run))
        .expect_err("diagnostic must panic");
    err.downcast_ref::<String>()
        .cloned()
        .expect("diagnostics panic with a formatted message")
}

#[test]
fn mixed_sequence_replays_byte_identically() {
    let runner = Runner::sequential();
    // Direct run.
    session::install(Session::default());
    let direct = run_sequence(&runner);
    let direct_json = to_json(&direct);
    assert!(direct.iter().all(|(_, r)| r.clean()));
    let kinds: Vec<WorkloadKind> = direct.iter().map(|(meta, _)| meta.kind).collect();
    assert_eq!(
        kinds,
        [WorkloadKind::Grid, WorkloadKind::Grid, WorkloadKind::Topo]
    );

    // The coordinator's list crosses the process boundary as JSON (its
    // checkpoint and wire frames carry exactly these pairs).
    let sweeps: Vec<(WorkloadMeta, SweepReport)> =
        serde_json::from_str(&serde_json::to_string(&direct).expect("serializable"))
            .expect("round trip");

    // Replay pass: the sequence consumes the merged reports instead of
    // executing, and must reproduce the direct reports byte for byte.
    begin_replay(sweeps, "fabric coordinator (test)");
    let replayed = run_sequence(&runner);
    session::finish(&runner);
    assert_eq!(to_json(&replayed), direct_json, "replayed reports differ");
}

/// The replay diagnostics: exhaustion and sweep-kind mismatches must
/// name the sweep's position in the sequence, the expected versus found
/// sweep kind, and the report source — through the real
/// `sweep_recorded` path, not a fabricated plan.
#[test]
fn replay_diagnostics_name_position_kind_and_source() {
    let runner = Runner::sequential();
    // Genuine reports of the mixed sequence: one Grid, one Grid (fleet),
    // one Topo sweep, fingerprints intact.
    session::install(Session::default());
    let sweeps = run_sequence(&runner);
    assert_eq!(sweeps.len(), 3);

    // Exhaustion: the replay holds only the first report, but the
    // sequence asks for three sweeps.
    begin_replay(vec![sweeps[0].clone()], "coordinator A");
    let msg = caught(|| {
        let _ = run_sequence(&runner);
    });
    assert!(
        msg.contains("sweep #1") && msg.contains("holds only 1") && msg.contains("coordinator A"),
        "exhaustion must name the position, ledger length and source: {msg}"
    );

    // Kind mismatch: the first sweep of the sequence is a grid sweep,
    // but the replay leads with the topo report.
    begin_replay(vec![sweeps[2].clone()], "coordinator C");
    let msg = caught(|| {
        let _ = run_sequence(&runner);
    });
    assert!(
        msg.contains("sweep #0")
            && msg.contains("expected a grid sweep")
            && msg.contains("recorded a topo sweep")
            && msg.contains("coordinator C"),
        "mismatch must name position, both kinds and the source: {msg}"
    );

    // Leftovers: a replay with one report too many fails at finish.
    let mut extra = sweeps.clone();
    extra.push(sweeps[0].clone());
    begin_replay(extra, "coordinator L");
    let _ = run_sequence(&runner);
    let msg = caught(|| session::finish(&runner));
    assert!(
        msg.contains("consumed 3 of 4") && msg.contains("coordinator L"),
        "leftovers must name the consumed count and the source: {msg}"
    );
}
