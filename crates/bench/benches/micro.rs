//! Micro-benchmarks of the substrates: engine round throughput, walk
//! computation, label machinery. These measure the *simulator's* speed
//! (the paper makes no wall-clock claims); the X-benches measure the
//! paper's round/cost metrics.
//!
//! Besides the stdout report, the run writes every `(name, median
//! ns/iter)` pair to `BENCH_micro.json` at the repo root, so the perf
//! trajectory is tracked across changes. Every bench runs in
//! `PASSES` in-process passes, and the file keeps the minimum of its
//! per-pass medians.
//!
//! `cargo bench` builds under `[profile.bench]`, which keeps overflow
//! checks on, so `BENCH_micro.json` times checked arithmetic: a loop
//! with a running sum may not vectorize there as it does in the shipped
//! binary. To time the release build instead, run
//! `cargo bench --profile release -p rendezvous-bench --bench micro`.

use criterion::{criterion_group, BatchSize, Criterion};
use rendezvous_core::{lex_subset_bits, Fast, Label, LabelSpace, RendezvousAlgorithm};
use rendezvous_explore::{dfs_walk, DfsMapExplorer, Explorer, OrientedRingExplorer};
use rendezvous_graph::{generators, NodeId, Port};
use rendezvous_sim::{Action, AgentSpec, ScriptedAgent, Simulation};
use std::hint::black_box;
use std::sync::Arc;

fn engine_throughput(c: &mut Criterion) {
    let g = Arc::new(generators::oriented_ring(64).unwrap());
    let ex: Arc<dyn Explorer> = Arc::new(OrientedRingExplorer::new(g.clone()).unwrap());
    let alg = Fast::new(g.clone(), ex, LabelSpace::new(64).unwrap());
    c.bench_function("engine/fast_pair_on_ring64", |b| {
        b.iter_batched(
            || {
                let a = alg.agent(Label::new(17).unwrap(), NodeId::new(0)).unwrap();
                let bb = alg.agent(Label::new(42).unwrap(), NodeId::new(31)).unwrap();
                (a, bb)
            },
            |(a, bb)| {
                let out = Simulation::new(&g)
                    .agent(Box::new(a), AgentSpec::immediate(NodeId::new(0)))
                    .agent(Box::new(bb), AgentSpec::immediate(NodeId::new(31)))
                    .max_rounds(alg.time_bound())
                    .run()
                    .unwrap();
                black_box(out.met())
            },
            BatchSize::SmallInput,
        );
    });
}

/// Round throughput with many agents, where the per-round meeting scan
/// and crossing detection dominate. A fleet of `k` clockwise walkers
/// spread over a large ring never meets, so every round pays the full
/// pairwise occupancy check, O(k²) per round. No experiment runs more
/// than 6 agents; k = 32 and 128 only chart the quadratic growth.
fn engine_occupancy(c: &mut Criterion) {
    let g = Arc::new(generators::oriented_ring(4096).unwrap());
    for k in [2usize, 8, 32, 128] {
        c.bench_function(&format!("engine/occupancy_scan_k{k}"), |b| {
            b.iter_batched(
                || {
                    // The meeting check is the quadratic scan.
                    let mut sim = Simulation::new(&g).max_rounds(256);
                    for i in 0..k {
                        // Same direction, same speed: the fleet rotates
                        // rigidly and never meets.
                        sim = sim.agent(
                            Box::new(ScriptedAgent::new(vec![Action::Move(Port::new(0)); 256])),
                            AgentSpec::immediate(NodeId::new(i * (4096 / k))),
                        );
                    }
                    sim
                },
                |sim| {
                    let out = sim.run().unwrap();
                    assert!(!out.met());
                    black_box(out.rounds_executed())
                },
                BatchSize::SmallInput,
            );
        });
    }
}

/// Plans and stepped schedules. The compile cases price the one-off
/// trajectory compile the executor's `(label, start)` cache amortizes
/// across every delay and partner configuration of a sweep; the step
/// cases drive the `ScheduleBehavior` the stepped engine runs, round by
/// round, through its decisions alone and through a full solo run.
fn engine_plan(c: &mut Criterion) {
    use rendezvous_core::{Label, ScheduleBehavior, SegmentMemo};
    use rendezvous_sim::run_solo;
    let g = Arc::new(generators::oriented_ring(64).unwrap());
    let ex: Arc<dyn Explorer> = Arc::new(OrientedRingExplorer::new(g.clone()).unwrap());
    let alg = Fast::new(g.clone(), ex, LabelSpace::new(64).unwrap());
    let schedule = Arc::new(alg.schedule(Label::new(42).unwrap()).unwrap());
    let rounds = schedule.total_rounds();
    let start = NodeId::new(0);
    c.bench_function("engine/plan_compile", |b| {
        b.iter(|| {
            black_box(
                SegmentMemo::new(g.clone())
                    .trajectory(&schedule, start)
                    .steps(),
            );
        });
    });
    // Every (label, start) plan of Cheap and Fast on one 12-node DfsMap
    // spec, through one fresh executor per algorithm: the cold plan
    // cache of a sweep, where explore segments are shared across plans.
    {
        use rendezvous_core::Cheap;
        use rendezvous_explore::spec_explorer;
        use rendezvous_graph::GraphSpec;
        use rendezvous_runner::AlgorithmExecutor;
        let spec: GraphSpec =
            serde_json::from_str(r#"{"ErdosRenyi":{"n":12,"edge_permille":400,"seed":5}}"#)
                .unwrap();
        let g = Arc::new(spec.build().unwrap());
        assert_eq!(g.node_count(), 12);
        let ex = spec_explorer(&spec, g.clone()).unwrap();
        assert_eq!(ex.name(), DfsMapExplorer::new(g.clone()).name());
        let space = LabelSpace::new(8).unwrap();
        let algs: Vec<Box<dyn RendezvousAlgorithm>> = vec![
            Box::new(Cheap::new(g.clone(), ex.clone(), space)),
            Box::new(Fast::new(g.clone(), ex, space)),
        ];
        c.bench_function("engine/plan_compile_dfs", |b| {
            b.iter(|| {
                let mut rounds = 0;
                for alg in &algs {
                    let executor = AlgorithmExecutor::new(alg.as_ref());
                    for label in 1..=space.size() {
                        for start in g.nodes() {
                            rounds += executor.plan(label, start).unwrap().steps();
                        }
                    }
                }
                black_box(rounds)
            });
        });
    }
    // Decision phase in isolation: next_action round by round, without
    // the simulator around it (the ring's degree is uniformly 2, which
    // is all the stepped behavior reads from its observation).
    use rendezvous_sim::{AgentBehavior, Observation};
    c.bench_function("engine/schedule_step_decisions", |b| {
        b.iter(|| {
            let mut stepped =
                ScheduleBehavior::with_shared(g.clone(), Arc::clone(&schedule), start);
            let mut moves = 0u64;
            for r in 0..rounds {
                let action = stepped.next_action(Observation {
                    local_round: r,
                    degree: 2,
                    entry_port: None,
                });
                moves += u64::from(action.is_move());
            }
            black_box(moves)
        });
    });
    // End-to-end through the solo harness, for the per-run cost a
    // stepped sweep scenario sees.
    c.bench_function("engine/schedule_step_solo_run", |b| {
        b.iter(|| {
            let mut stepped =
                ScheduleBehavior::with_shared(g.clone(), Arc::clone(&schedule), start);
            black_box(run_solo(&g, &mut stepped, start, rounds).unwrap().cost())
        });
    });
}

fn walk_computation(c: &mut Criterion) {
    let grid = generators::grid(16, 16).unwrap();
    c.bench_function("explore/dfs_walk_grid256", |b| {
        b.iter(|| black_box(dfs_walk(&grid, NodeId::new(0)).len()));
    });
    c.bench_function("explore/dfs_explorer_build_grid256", |b| {
        let g = Arc::new(grid.clone());
        b.iter(|| black_box(DfsMapExplorer::new(g.clone()).bound()));
    });
}

fn label_machinery(c: &mut Criterion) {
    c.bench_function("core/modified_label_large", |b| {
        b.iter(|| {
            black_box(rendezvous_core::ModifiedLabel::of(
                Label::new(black_box(0xDEAD_BEEF)).unwrap(),
            ))
        });
    });
    c.bench_function("core/lex_subset_unrank", |b| {
        b.iter(|| black_box(lex_subset_bits(64, 8, black_box(123_456_789))));
    });
    let g = Arc::new(generators::oriented_ring(32).unwrap());
    let ex: Arc<dyn Explorer> = Arc::new(OrientedRingExplorer::new(g.clone()).unwrap());
    let alg = Fast::new(g, ex, LabelSpace::new(1 << 20).unwrap());
    // The per-scenario recompile baseline: what every scenario of a sweep
    // paid before `AlgorithmExecutor` memoized compiled schedules.
    c.bench_function("core/fast_schedule_compile", |b| {
        b.iter(|| {
            black_box(
                alg.schedule(Label::new(black_box(987_654)).unwrap())
                    .unwrap()
                    .total_rounds(),
            )
        });
    });
    // The memoized path: after the first compile, a sweep's remaining
    // scenarios with the same label are a shared-`Arc` cache hit. Labels
    // repeat across thousands of start pairs, so this ratio is the
    // per-scenario saving of the executor's schedule cache.
    let executor = rendezvous_runner::AlgorithmExecutor::new(&alg);
    c.bench_function("core/fast_schedule_compile_cached", |b| {
        b.iter(|| {
            black_box(
                executor
                    .schedule(black_box(987_654))
                    .unwrap()
                    .total_rounds(),
            )
        });
    });
}

fn graph_generation(c: &mut Criterion) {
    use rand::{rngs::StdRng, SeedableRng};
    c.bench_function("graph/erdos_renyi_100", |b| {
        b.iter(|| {
            let mut rng = StdRng::seed_from_u64(7);
            black_box(
                generators::erdos_renyi_connected(100, 0.1, &mut rng)
                    .unwrap()
                    .edge_count(),
            )
        });
    });
    c.bench_function("graph/hypercube_10", |b| {
        b.iter(|| black_box(generators::hypercube(10).unwrap().edge_count()));
    });
}

/// The topology-sweep graph cache: a `TopoGrid` builds each spec's graph
/// once and shares the `Arc` across all of that spec's scenarios. The
/// baseline is what a naive sweep would pay instead — rebuilding the
/// graph from its spec for every scenario (an X10 spec runs dozens of
/// scenarios, so the per-scenario saving multiplies out).
fn topo_graph_build(c: &mut Criterion) {
    use rendezvous_graph::{ErdosRenyiSpec, GraphSpec, TorusSpec};
    let spec = GraphSpec::ErdosRenyi(ErdosRenyiSpec {
        n: 24,
        edge_permille: 300,
        seed: 7,
    });
    // Per-scenario rebuild baseline: spec → graph on every iteration.
    c.bench_function("topo/graph_build_per_scenario", |b| {
        b.iter(|| black_box(spec.build().unwrap().edge_count()));
    });
    // The cached path: scenarios share the entry's Arc — per scenario
    // that is one refcount bump (what `TopoEntry.graph.clone()` costs).
    let cached = Arc::new(spec.build().unwrap());
    c.bench_function("topo/graph_build_cached", |b| {
        b.iter(|| black_box(Arc::clone(&cached).edge_count()));
    });
    // The permuted-wrapper variant, the most expensive spec kind in the
    // standard X10 list (inner build + full port re-labelling).
    let permuted = GraphSpec::permuted(GraphSpec::Torus(TorusSpec { w: 4, h: 4 }), 9);
    c.bench_function("topo/graph_build_permuted_torus", |b| {
        b.iter(|| black_box(permuted.build().unwrap().edge_count()));
    });
}

/// The delay-batched solver against the stepped engine on the same
/// delay sweep — the O(D·T) → O(T+D) tentpole measurement. Both variants
/// start from what the production executors cache: compiled schedules,
/// stepped by `ScheduleBehavior`s, and precompiled trajectories, which
/// the `(label, start)` plan cache makes a one-off, so the ratio
/// isolates solve time. D = 24 delays ≥ the 16 the acceptance threshold
/// is defined at.
fn batch_solving(c: &mut Criterion) {
    use rendezvous_core::{ScheduleBehavior, SegmentMemo};
    use rendezvous_sim::BatchSolver;
    let g = Arc::new(generators::oriented_ring(64).unwrap());
    let ex: Arc<dyn Explorer> = Arc::new(OrientedRingExplorer::new(g.clone()).unwrap());
    let alg = Fast::new(g.clone(), ex, LabelSpace::new(64).unwrap());
    let schedule_a = Arc::new(alg.schedule(Label::new(17).unwrap()).unwrap());
    let schedule_b = Arc::new(alg.schedule(Label::new(42).unwrap()).unwrap());
    let (start_a, start_b) = (NodeId::new(0), NodeId::new(31));
    let plan_a = SegmentMemo::new(g.clone()).trajectory(&schedule_a, start_a);
    let plan_b = SegmentMemo::new(g.clone()).trajectory(&schedule_b, start_b);
    let behavior = |schedule: &Arc<_>, start| {
        Box::new(ScheduleBehavior::with_shared(
            g.clone(),
            Arc::clone(schedule),
            start,
        ))
    };
    let horizon = alg.time_bound();
    let delays: Vec<u64> = (0..24).collect();
    c.bench_function("batch/delay_sweep_stepped", |b| {
        b.iter(|| {
            let mut met = 0u64;
            for &d in &delays {
                let out = Simulation::new(&g)
                    .agent(
                        behavior(&schedule_a, start_a),
                        AgentSpec::immediate(start_a),
                    )
                    .agent(
                        behavior(&schedule_b, start_b),
                        AgentSpec::delayed(start_b, d),
                    )
                    .max_rounds(horizon)
                    .run()
                    .unwrap();
                met += u64::from(out.met());
            }
            black_box(met)
        });
    });
    c.bench_function("batch/delay_sweep_batched", |b| {
        b.iter(|| {
            let solver = BatchSolver::new(&plan_a, &plan_b, horizon);
            let mut met = 0u64;
            for &d in &delays {
                met += u64::from(solver.solve(d).round.is_some());
            }
            black_box(met)
        });
    });
    // Crossing counts in isolation: two walkers circling an even ring in
    // opposite directions from adjacent nodes swap nodes every n/2
    // rounds and, at even delays below n − 1 (before the first walker
    // can find the second asleep), never meet — so each solve scans its
    // whole window for a meeting and counts crossings over all of it.
    {
        use rendezvous_sim::Trajectory;
        let n = 64u32;
        let steps = 4096u32;
        let mut cw = Trajectory::new(0);
        let mut ccw = Trajectory::new(n - 1);
        for r in 1..=steps {
            cw.push(r % n, true);
            ccw.push((2 * n - 1 - r % n) % n, true);
        }
        let horizon = u64::from(steps);
        let even: Vec<u64> = (0..24).map(|d| 2 * d).collect();
        c.bench_function("batch/crossings_scan", |b| {
            b.iter(|| {
                let solver = BatchSolver::new(&cw, &ccw, horizon);
                let mut crossings = 0u64;
                for &d in &even {
                    let out = solver.solve(d);
                    assert_eq!(out.round, None, "opposite walkers never meet");
                    crossings += out.crossings;
                }
                black_box(crossings)
            });
        });
    }
    // The one-off cost the batched path adds on a plan-cache miss:
    // compiling the plan's trajectory.
    c.bench_function("batch/trajectory_compile", |b| {
        b.iter(|| {
            black_box(
                SegmentMemo::new(g.clone())
                    .trajectory(&schedule_a, start_a)
                    .steps(),
            )
        });
    });
}

/// The result store's economics: what a full report costs to push
/// through a store entry and back (serialize, atomic write, read,
/// parse, fingerprint check), and what a cache *hit* costs against the
/// sweep computation it replaces — the ratio that makes `--store` a
/// win on every warm rerun.
fn store_paths(c: &mut Criterion) {
    use rendezvous_bench::common::{standard_delays, standard_label_pairs};
    use rendezvous_core::Cheap;
    use rendezvous_runner::{AlgorithmExecutor, Bounds, Grid, Runner, Workload};
    use rendezvous_store::{Store, StoreKey};
    let g = Arc::new(generators::oriented_ring(12).unwrap());
    let ex: Arc<dyn Explorer> = Arc::new(OrientedRingExplorer::new(g.clone()).unwrap());
    let e = ex.bound() as u64;
    let alg = Cheap::new(g.clone(), ex, LabelSpace::new(8).unwrap());
    let grid = Grid::new(alg.time_bound())
        .label_pairs_both_orders(&standard_label_pairs(8))
        .delays(&standard_delays(e))
        .all_start_pairs(&g);
    let bounds = Some(Bounds {
        time: alg.time_bound(),
        cost: alg.cost_bound(),
    });
    let runner = Runner::sequential();
    let executor = AlgorithmExecutor::new(&alg).with_bounds(bounds);
    let report = runner.sweep(&grid, &executor).unwrap();
    let dir = std::env::temp_dir().join(format!("rendezvous-store-bench-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let store = Store::open(&dir).unwrap();
    let meta = grid.meta();
    let key = StoreKey::new("bench cheap", &meta, "stepped");
    c.bench_function("store/report_roundtrip", |b| {
        b.iter(|| {
            store
                .save(&key, "bench cheap", "stepped", &meta, &report)
                .unwrap();
            black_box(store.load(&key).unwrap().executed())
        });
    });
    // The warm-rerun path `--store` takes per sweep...
    c.bench_function("store/cache_hit_vs_compute", |b| {
        b.iter(|| black_box(store.load(&key).unwrap().executed()));
    });
    // ...and the cold computation it replaces.
    c.bench_function("store/sweep_compute_baseline", |b| {
        b.iter(|| black_box(runner.sweep(&grid, &executor).unwrap().executed()));
    });
    let _ = std::fs::remove_dir_all(&dir);
}

/// The sweep fold's fixed per-scenario cost: 432 000 outcomes (x3's
/// execution sweep) folded the way the `Runner` folds them, one
/// 4096-outcome chunk piece at a time, under the empty key plain grids
/// and `Trim` audits use and under a topology family key. The two
/// medians should stay close: the group is looked up once per piece, so
/// the key's comparison cost must not show up per outcome.
fn runner_fold(c: &mut Criterion) {
    use rendezvous_runner::{Bounds, Scenario, ScenarioOutcome, SweepReport};
    const TOTAL: usize = 432_000;
    const PIECE: usize = 4096;
    let outcomes: Vec<ScenarioOutcome> = (0..PIECE as u64)
        .map(|i| {
            let scenario = Scenario::pair(1, 2, NodeId::new(0), NodeId::new(1), i % 97, 1000);
            ScenarioOutcome::pairwise(scenario, Some(i * 7 % 61), i * 13 % 53, i % 3)
        })
        .collect();
    let bounds = Some(Bounds {
        time: 60,
        cost: 100,
    });
    for (name, key) in [
        ("runner/fold_piece_empty_key", ""),
        ("runner/fold_piece_ring_key", "ring"),
    ] {
        c.bench_function(name, |b| {
            b.iter(|| {
                let mut report = SweepReport::default();
                for offset in (0..TOTAL).step_by(PIECE) {
                    let len = PIECE.min(TOTAL - offset);
                    report.absorb_piece(key, offset, None, &outcomes[..len], bounds);
                }
                black_box(report.executed())
            });
        });
    }
}

/// The whole batched pair sweep, end to end: X3's exhaustive grid at
/// w = 2 (`FastWithRelabeling` on the 10-ring, L = 16: 240 label orders
/// × 90 start pairs × 5 delays = 108 000 scenarios) through
/// `Runner::sweep` and the `BatchExecutor` — enumeration, plan lookups,
/// solves and the fold together. `runner/fold_piece_*` (prebuilt
/// outcomes) and `batch/delay_sweep_batched` (the solver alone) cannot
/// see the per-scenario enumeration and fold costs this one includes.
/// X3 itself sweeps the 9 rotation representatives of the start axis
/// (`Grid::start_orbits`); this bench keeps all 90 pairs, so it times
/// the same per-scenario work on the same 108 000 scenarios as before.
fn runner_sweep(c: &mut Criterion) {
    use rendezvous_bench::common::{all_label_pairs, ring_setup, standard_delays};
    use rendezvous_core::FastWithRelabeling;
    use rendezvous_runner::{BatchExecutor, Bounds, Grid, Runner};
    let (g, ex) = ring_setup(10);
    let alg = FastWithRelabeling::new(g, ex, LabelSpace::new(16).unwrap(), 2).unwrap();
    let grid = Grid::new(4 * alg.time_bound())
        .label_pairs_both_orders(&all_label_pairs(16))
        .delays(&standard_delays(9))
        .all_start_pairs(alg.graph());
    assert_eq!(grid.size(), 108_000);
    let executor = BatchExecutor::new(&alg).with_bounds(Some(Bounds {
        time: alg.time_bound(),
        cost: alg.cost_bound(),
    }));
    let runner = Runner::sequential();
    c.bench_function("runner/batched_pair_sweep", |b| {
        b.iter(|| black_box(runner.sweep(&grid, &executor).unwrap().executed()));
    });
}

/// One x6 trim sweep: every label pair x < y of `Fast` with L = 16 × the
/// 11 rotation representatives (0, d) of the 132 ordered start pairs of
/// the oriented 12-ring, delay 0, through `Runner::sweep` and the
/// `BatchExecutor` — 1,320 one-scenario runs, so each run's fixed work
/// (plan lookups, checks, solver setup) is paid per scenario. The
/// executor is built once, so its plans are warm after the first
/// iteration.
fn runner_trim(c: &mut Criterion) {
    use rendezvous_bench::common::ring_setup;
    use rendezvous_lower_bounds::TrimSweep;
    use rendezvous_runner::{BatchExecutor, Runner, Workload};
    let (g, ex) = ring_setup(12);
    let alg = Fast::new(g, ex, LabelSpace::new(16).unwrap());
    let sweep = TrimSweep::new(&alg, 4 * alg.time_bound()).unwrap();
    assert_eq!(sweep.size(), 1_320);
    let executor = BatchExecutor::new(&alg);
    let runner = Runner::sequential();
    c.bench_function("runner/trim_sweep", |b| {
        b.iter(|| black_box(runner.sweep(&sweep, &executor).unwrap().executed()));
    });
}

/// The x11 gathering sweep on a fixed slice of its specs: the first
/// entry of each of the six families (`standard_topo_specs` cycles the
/// families), at x11's paper parameters (L = 6, k ∈ {2, 3, 4}, phases
/// {0, 3, 9}, 8 fleets per entry). Each entry gets a fresh executor, as
/// in the experiment, so plan compiles are included. `x11_fleet_sweep`
/// replays compiled walks through the fleet solver;
/// `x11_fleet_sweep_stepped` steps `GatheringAgent`s, the oracle.
fn gathering_sweep(c: &mut Criterion) {
    use rendezvous_bench::x10_topologies::standard_topo_specs;
    use rendezvous_bench::x11_gathering_topo::{
        build_gathering_topo_grid, standard_fleet_sizes, standard_phases,
    };
    use rendezvous_explore::spec_explorer;
    use rendezvous_runner::{GatheringExecutor, Runner};
    let specs: Vec<_> = standard_topo_specs(false).into_iter().take(6).collect();
    let (topo, _) = build_gathering_topo_grid(
        specs,
        6,
        &standard_fleet_sizes(false),
        &standard_phases(false),
        8,
    );
    let families: std::collections::BTreeSet<&str> =
        topo.entries().iter().map(|e| e.family.as_str()).collect();
    assert_eq!(families.len(), 6, "one entry per family");
    let space = LabelSpace::new(6).unwrap();
    let entries: Vec<_> = topo
        .entries()
        .iter()
        .map(|entry| {
            let explorer = spec_explorer(&entry.spec, entry.graph.clone()).unwrap();
            (entry.graph.clone(), explorer, entry.grid.scenarios())
        })
        .collect();
    let runner = Runner::sequential();
    for (name, stepped) in [
        ("gathering/x11_fleet_sweep", false),
        ("gathering/x11_fleet_sweep_stepped", true),
    ] {
        c.bench_function(name, |b| {
            b.iter(|| {
                let mut cost = 0;
                for (graph, explorer, scenarios) in &entries {
                    let alg: Arc<dyn RendezvousAlgorithm> =
                        Arc::new(Fast::new(graph.clone(), explorer.clone(), space));
                    let executor = if stepped {
                        GatheringExecutor::stepped(alg)
                    } else {
                        GatheringExecutor::new(alg)
                    };
                    for outcome in runner.outcomes(&executor, scenarios).unwrap() {
                        assert!(outcome.met());
                        cost += outcome.cost;
                    }
                }
                black_box(cost)
            });
        });
    }
}

/// Samples per bench — recorded in the sidecar `meta` so the medians'
/// stability is interpretable.
const SAMPLE_SIZE: usize = 20;

/// In-process passes over every bench. The persisted figure is the
/// minimum of a bench's per-pass medians: one pass's medians moved up to
/// 2× between runs of the same binary on a shared 2-core box, and the
/// minimum is the pass least disturbed by other load.
const PASSES: usize = 3;

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(SAMPLE_SIZE);
    targets = engine_throughput, engine_occupancy, engine_plan, walk_computation, label_machinery, graph_generation, topo_graph_build, batch_solving, runner_fold, runner_sweep, runner_trim, gathering_sweep, store_paths
}

/// Runs every group `PASSES` times, then persists each bench's
/// minimum median as `BENCH_micro.json` at the repo root (bench names
/// are `[a-z0-9_/]`, so plain string formatting is valid JSON), under a
/// `meta` section recording the harness provenance — wall-clock numbers
/// are only interpretable next to the thread count, build profile,
/// sweep-engine selection, sample size and pass count that produced
/// them.
fn main() {
    let mut results: Vec<(String, u128)> = Vec::new();
    for _ in 0..PASSES {
        benches();
        for (name, median) in criterion::take_results() {
            match results.iter_mut().find(|(known, _)| *known == name) {
                Some((_, best)) => *best = (*best).min(median),
                None => results.push((name, median)),
            }
        }
    }
    let threads = std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1);
    let profile = if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    };
    let mut doc = String::from("{\n  \"meta\": {\n");
    doc.push_str("    \"harness\": \"criterion-lite\",\n");
    doc.push_str(&format!(
        "    \"engine\": \"{}\",\n",
        rendezvous_bench::engine::current().name()
    ));
    doc.push_str(&format!("    \"profile\": \"{profile}\",\n"));
    doc.push_str(&format!("    \"sample_size\": {SAMPLE_SIZE},\n"));
    doc.push_str(&format!("    \"passes\": {PASSES},\n"));
    doc.push_str(&format!("    \"threads\": {threads}\n"));
    doc.push_str("  },\n  \"results\": {\n");
    for (i, (name, ns)) in results.iter().enumerate() {
        let comma = if i + 1 == results.len() { "" } else { "," };
        doc.push_str(&format!("    \"{name}\": {ns}{comma}\n"));
    }
    doc.push_str("  }\n}\n");
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_micro.json");
    std::fs::write(path, &doc).expect("write BENCH_micro.json");
    println!(
        "\nwrote {} minimum medians over {PASSES} passes to BENCH_micro.json",
        results.len()
    );
}
