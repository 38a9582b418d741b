//! Experiment harness regenerating every claim of Miller & Pelc (PODC
//! 2014). The paper is pure theory (no numeric tables), so each
//! proposition/theorem/corollary is reproduced as a measured table; the
//! index below maps each experiment to the claim it checks.
//!
//! | experiment | claim |
//! |---|---|
//! | [`x1_cheap`] | Prop 2.1 (and the simultaneous-start variant) |
//! | [`x2_fast`] | Prop 2.2 |
//! | [`x3_relabel`] | Prop 2.3 + Corollary 2.1 |
//! | [`x4_tradeoff`] | the time/cost frontier |
//! | [`x5_lb_time`] | Theorem 3.1 (Ω(EL) chain) |
//! | [`x6_lb_cost`] | Theorem 3.2 (Ω(E log L) progress weight) |
//! | [`x7_families`] | generality over graph families / explorers |
//! | [`x8_iterated`] | Conclusion (unknown `E`, telescoping) |
//! | [`x9_gathering`] | extension: k-agent gathering by merge-and-restart |
//! | [`x10_topologies`] | topology sweep: 100+ seeded graphs per family |
//! | [`x11_gathering_topo`] | gathering fleets × the topology grid |
//!
//! Run `cargo run -p rendezvous-bench --release --bin experiments -- all`
//! to regenerate everything, or pass experiment ids (`x1 x5 …`). `x10`
//! and `x11` are opt-in: they sweep hundreds of seeded topologies and
//! are the heaviest tables.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod common;
pub mod engine;
pub mod fabric;
pub mod serve;
pub mod session;
pub mod store;
pub mod x10_topologies;
pub mod x11_gathering_topo;
pub mod x1_cheap;
pub mod x2_fast;
pub mod x3_relabel;
pub mod x4_tradeoff;
pub mod x5_lb_time;
pub mod x6_lb_cost;
pub mod x7_families;
pub mod x8_iterated;
pub mod x9_gathering;
