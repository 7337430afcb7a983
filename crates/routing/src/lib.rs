//! # pamr-routing — power-aware Manhattan routing (the paper's core)
//!
//! This crate implements the central contribution of *Power-aware Manhattan
//! routing on chip multiprocessors* (Benoit, Melhem, Renaud-Goud, Robert;
//! INRIA RR-7752 / IPDPS 2012):
//!
//! * the problem instance ([`Comm`], [`CommSet`]) — a set of communications
//!   `γ_i = (src_i, snk_i, δ_i)` to route on a mesh CMP (§3.2);
//! * routings ([`Routing`]) — one or several weighted Manhattan paths per
//!   communication, their bandwidth validity and their power (§3.4);
//! * the baseline rules XY and YX (§3.3);
//! * the five single-path heuristics of §5 — [`SimpleGreedy`] (SG),
//!   [`ImprovedGreedy`] (IG), [`TwoBend`] (TB), [`XyImprover`] (XYI) and
//!   [`PathRemover`] (PR) — plus [`Best`], the best of all six policies
//!   (XY included);
//! * the ideal fractional sharing of Figure 3 ([`fractional`]): IG's
//!   virtual pre-routing, and the whole-diagonal power lower bound of the
//!   proofs of Theorems 1 and 2;
//! * a Frank–Wolfe convex multi-commodity-flow solver ([`frank_wolfe`])
//!   approximating the optimal **max-MP** routing under continuous
//!   frequency scaling (the paper's future-work item on bounding the
//!   optimum);
//! * an exact branch-and-bound optimal **1-MP** solver for small instances
//!   ([`exact`]).
//!
//! ## Quick example
//!
//! ```
//! use pamr_mesh::{Coord, Mesh};
//! use pamr_power::PowerModel;
//! use pamr_routing::{Best, CommSet, Comm, Heuristic, PathRemover, xy_routing};
//!
//! let mesh = Mesh::new(8, 8);
//! let cs = CommSet::new(mesh, vec![
//!     Comm::new(Coord::new(0, 0), Coord::new(5, 6), 1200.0),
//!     Comm::new(Coord::new(3, 1), Coord::new(0, 7), 800.0),
//! ]);
//! let model = PowerModel::kim_horowitz();
//! let p_xy = xy_routing(&cs).power(&cs, &model).unwrap().total();
//! let pr = PathRemover.route(&cs, &model);
//! assert!(pr.is_feasible(&cs, &model));
//! // BEST never loses to XY (XY is one of its six policies).
//! let best = Best.route(&cs, &model);
//! assert!(best.power.expect("XY is feasible here") <= p_xy);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod comm;
pub mod csr;
pub mod engine;
pub mod exact;
pub mod fractional;
pub mod frontier;
pub mod fw;
pub mod greedy;
pub mod heuristic;
pub mod ig;
pub mod loadq;
pub mod multipath;
pub mod pr;
pub mod precompute;
pub mod routing;
pub mod rules;
pub mod scratch;
pub mod session;
pub mod tables;
pub mod two_bend;
pub mod xyi;

pub use comm::{Comm, CommSet, SortOrder};
pub use csr::CrossingIndex;
pub use engine::EngineConfig;
pub use exact::optimal_single_path;
pub use fractional::ideal_power_lower_bound;
pub use frontier::{frontier_points, FrontierPoint, FrontierProblem, Segment};
pub use fw::{frank_wolfe, FrankWolfeResult};
pub use greedy::SimpleGreedy;
pub use heuristic::{
    surrogate_link_cost, Best, BestRoute, Heuristic, HeuristicKind, SURROGATE_PENALTY,
};
pub use ig::ImprovedGreedy;
pub use loadq::MaxTree;
pub use multipath::{FwMp, SplitMp};
pub use pr::{PathRemover, PrError};
pub use precompute::{CostLadder, CustomizedInstance, MeshPrecompute};
pub use routing::Routing;
pub use rules::{xy_routing, yx_routing};
pub use scratch::RouteScratch;
pub use session::{RepairMode, RoutingSession, SessionConfig, SessionStats, SlotId};
pub use tables::{FlowId, RoutingTables};
pub use two_bend::TwoBend;
pub use xyi::XyImprover;
