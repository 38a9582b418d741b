//! The three stepped engines play the same §1.2 round: on arbitrary
//! scripted walks (out-of-range ports included), random wake-ups and
//! small connected graphs, a two-agent `Simulation`, a two-agent
//! `run_gathering` whose agents ignore each other's labels, and a
//! `run_solo` of an agent awake from round 1 all see the same walk and
//! hand their agents the same observations.

use proptest::prelude::*;
use rendezvous_graph::{generators, NodeId, Port, PortLabeledGraph};
use rendezvous_sim::gathering::{run_gathering, GatheringBehavior};
use rendezvous_sim::{
    run_solo, Action, AgentBehavior, AgentSpec, Observation, ScriptedAgent, SimError, Simulation,
};
use std::cell::RefCell;
use std::rc::Rc;

/// A small connected graph: `kind` picks the family, `size` (3..8) its
/// node count or nearly so.
fn graph(kind: u8, size: usize) -> PortLabeledGraph {
    match kind {
        0 => generators::oriented_ring(size),
        1 => generators::path(size),
        2 => generators::star(size - 1),
        3 => generators::complete(size),
        4 => generators::wheel(size),
        _ => generators::lollipop(3, size - 2),
    }
    .unwrap()
}

/// Mostly ports 0 and 1, some stays, and now and then a port that few
/// (2, 3) or no (9) nodes of these graphs have.
fn action(code: u8) -> Action {
    match code {
        0..=4 => Action::Stay,
        5..=16 => Action::Move(Port::new(usize::from(code % 2))),
        17 | 18 => Action::Move(Port::new(usize::from(code - 15))),
        _ => Action::Move(Port::new(9)),
    }
}

/// Every observation one agent was handed, in order.
type Log = Rc<RefCell<Vec<Observation>>>;

/// A scripted agent that logs what it observes and decides without
/// looking at who stands with it.
struct Logged(ScriptedAgent, Log);

impl Logged {
    fn new(script: &[Action]) -> (Self, Log) {
        let log = Log::default();
        (
            Logged(ScriptedAgent::new(script.to_vec()), Rc::clone(&log)),
            log,
        )
    }
}

impl AgentBehavior for Logged {
    fn next_action(&mut self, observation: Observation) -> Action {
        self.1.borrow_mut().push(observation);
        self.0.next_action(observation)
    }
}

impl GatheringBehavior for Logged {
    fn next_action(&mut self, observation: Observation, _co_located: &[u64]) -> Action {
        AgentBehavior::next_action(self, observation)
    }
}

fn script() -> impl Strategy<Value = Vec<Action>> {
    proptest::collection::vec(0u8..20, 0..25)
        .prop_map(|codes| codes.into_iter().map(action).collect())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn stepped_engines_share_the_round(
        (kind, size) in (0u8..6, 3usize..8),
        (start_a, offset) in (0usize..64, 0usize..64),
        scripts in (script(), script()),
        wakes in (1u64..5, 1u64..5),
        max_rounds in 1u64..40,
    ) {
        let g = graph(kind, size);
        let n = g.node_count();
        let a = start_a % n;
        let b = (a + 1 + offset % (n - 1)) % n;
        let specs = [
            AgentSpec { start: NodeId::new(a), wake_round: wakes.0 },
            AgentSpec { start: NodeId::new(b), wake_round: wakes.1 },
        ];
        let scripts = [scripts.0, scripts.1];

        let (sim_a, sim_log_a) = Logged::new(&scripts[0]);
        let (sim_b, sim_log_b) = Logged::new(&scripts[1]);
        let simulated = Simulation::new(&g)
            .agent(Box::new(sim_a), specs[0])
            .agent(Box::new(sim_b), specs[1])
            .max_rounds(max_rounds)
            .record_trace(true)
            .run();
        let sim_logs = [sim_log_a, sim_log_b];
        let mut gat_logs = Vec::new();
        let fleet: Vec<(u64, Box<dyn GatheringBehavior>, AgentSpec)> = (0..2)
            .map(|i| {
                let (agent, log) = Logged::new(&scripts[i]);
                gat_logs.push(log);
                (i as u64 + 1, Box::new(agent) as Box<dyn GatheringBehavior>, specs[i])
            })
            .collect();
        let gathered = run_gathering(&g, fleet, max_rounds);
        for i in 0..2 {
            prop_assert_eq!(&*sim_logs[i].borrow(), &*gat_logs[i].borrow());
        }
        // Alone for `rounds` rounds, an agent awake from round 1 is handed
        // what it was handed beside the other.
        let solo = |i: usize, rounds: u64| {
            let (mut alone, log) = Logged::new(&scripts[i]);
            let walk = run_solo(&g, &mut alone, specs[i].start, rounds);
            let same_observations = *log.borrow() == *sim_logs[i].borrow();
            (walk, same_observations)
        };

        match (&simulated, &gathered) {
            (Ok(sim), Ok(gat)) => {
                prop_assert_eq!(sim.meeting(), gat.gathered);
                prop_assert_eq!(sim.rounds_executed(), gat.rounds_executed);
                prop_assert_eq!(sim.per_agent_cost(), &gat.per_agent_cost[..]);
                // An agent awake from round 1 walks its solo walk until
                // the meeting round.
                let trace = sim.trace().expect("traced");
                for i in (0..2).filter(|&i| specs[i].wake_round == 1) {
                    let (walk, same_observations) = solo(i, sim.rounds_executed());
                    let walk = walk.expect("the two-agent run accepted every move");
                    prop_assert_eq!(&walk.positions, &trace.positions[i]);
                    prop_assert_eq!(&walk.actions, &trace.actions[i]);
                    prop_assert!(same_observations);
                }
            }
            (Err(sim), Err(gat)) => {
                prop_assert_eq!(sim, gat);
                let SimError::InvalidMove { agent, round, port, degree } = *sim else {
                    return Err(format!("unexpected error {sim}"));
                };
                // The same bad move, made alone, is refused the same way.
                if specs[agent].wake_round == 1 {
                    let (walk, same_observations) = solo(agent, round);
                    prop_assert_eq!(
                        walk.unwrap_err(),
                        SimError::InvalidMove { agent: 0, round, port, degree }
                    );
                    prop_assert!(same_observations);
                }
            }
            _ => {
                return Err(format!(
                    "engines disagree: simulation {:?}, gathering {:?}",
                    simulated.as_ref().map(|o| o.meeting()),
                    gathered.as_ref().map(|o| o.gathered)
                ));
            }
        }
    }
}
