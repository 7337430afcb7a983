//! # pamr — Power-Aware Manhattan Routing on chip multiprocessors
//!
//! A full reproduction of *Power-aware Manhattan routing on chip
//! multiprocessors* (Anne Benoit, Rami Melhem, Paul Renaud-Goud, Yves
//! Robert; INRIA RR-7752, IPDPS 2012) as a Rust workspace. This facade
//! crate re-exports every sub-crate under one roof:
//!
//! * [`mesh`] — the `p × q` CMP mesh substrate (coordinates, links,
//!   diagonals, Manhattan paths, bands, load maps);
//! * [`power`] — the static + dynamic link power model with continuous or
//!   discrete frequency scaling (Kim–Horowitz constants);
//! * [`routing`] — the core: problem instances, routings, the XY baseline
//!   and the five heuristics (SG, IG, TB, XYI, PR) plus BEST, the
//!   Frank–Wolfe multi-path bound and an exact 1-MP solver;
//! * [`workload`] — instance generators (uniform, length-targeted,
//!   application task graphs);
//! * [`theory`] — executable constructions for Lemma 1, Theorem 1,
//!   Lemma 2 and the Theorem 3 NP-completeness reduction;
//! * [`nocsim`] — a packet-level discrete-event NoC simulator that
//!   executes routings and reports latency/energy/backlog;
//! * [`sim`] — the paper's §6 simulation campaign (Figures 7–9, §6.4
//!   summary statistics), rayon-parallel and seeded.
//!
//! ## Quickstart
//!
//! ```
//! use pamr::prelude::*;
//!
//! // Two applications mapped on an 8×8 CMP…
//! let mesh = Mesh::new(8, 8);
//! let cs = CommSet::new(mesh, vec![
//!     Comm::new(Coord::new(0, 0), Coord::new(4, 6), 1400.0),
//!     Comm::new(Coord::new(0, 0), Coord::new(4, 6), 900.0),
//!     Comm::new(Coord::new(7, 2), Coord::new(1, 3), 2200.0),
//! ]);
//! // …the paper's discrete link model…
//! let model = PowerModel::kim_horowitz();
//! // …and the best heuristic routing.
//! let best = Best.route(&cs, &model);
//! let power = best.power.expect("this instance is routable");
//! println!("{} found a {power:.1} mW routing", best.kind);
//! assert!(best.routing.is_feasible(&cs, &model));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// The full architecture tour — crate map, the precompute → customize →
// route pipeline, the engine/reference-oracle pattern — rendered into
// this crate's front page straight from the repository's ARCHITECTURE.md.
#![doc = ""]
#![doc = "---"]
#![doc = ""]
#![doc = include_str!("../ARCHITECTURE.md")]

pub use pamr_mesh as mesh;
pub use pamr_nocsim as nocsim;
pub use pamr_power as power;
pub use pamr_routing as routing;
pub use pamr_sim as sim;
pub use pamr_theory as theory;
pub use pamr_workload as workload;

/// The most common imports, in one place.
pub mod prelude {
    pub use pamr_mesh::{Band, Coord, LinkId, LoadMap, Mesh, Path, Quadrant, Step};
    pub use pamr_power::{FrequencyScale, PowerBreakdown, PowerModel};
    pub use pamr_routing::{
        frank_wolfe, frontier_points, optimal_single_path, xy_routing, yx_routing, Best, BestRoute,
        Comm, CommSet, EngineConfig, FlowId, FrontierPoint, FrontierProblem, FwMp, Heuristic,
        HeuristicKind, ImprovedGreedy, PathRemover, RouteScratch, Routing, RoutingTables, Segment,
        SimpleGreedy, SortOrder, SplitMp, TwoBend, XyImprover,
    };
    pub use pamr_workload::{LengthTargetedWorkload, Mapping, TaskGraph, UniformWorkload};
}
