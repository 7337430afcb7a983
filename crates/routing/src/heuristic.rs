//! The heuristic interface, the surrogate cost used during construction,
//! and BEST, the best of the six policies (§5–§6).

use crate::comm::CommSet;
use crate::greedy::SimpleGreedy;
use crate::ig::ImprovedGreedy;
use crate::pr::PathRemover;
use crate::routing::Routing;
use crate::rules::xy_routing;
use crate::scratch::RouteScratch;
use crate::two_bend::TwoBend;
use crate::xyi::XyImprover;
use pamr_power::PowerModel;
use serde::{Deserialize, Serialize};

/// Cost assigned to one unit of capacity overflow by
/// [`surrogate_link_cost`]. Chosen so that any overloaded link dominates
/// every feasible configuration's power, while still ranking "less
/// overloaded" below "more overloaded" (which lets XYI repair instances on
/// which plain XY routing fails).
pub const SURROGATE_PENALTY: f64 = 1e12;

/// The cost a heuristic sees for a link carrying `load`: the model's power
/// when feasible, and a huge load-increasing penalty when the load exceeds
/// the maximum bandwidth.
///
/// Heuristics minimise this surrogate so that (a) among feasible solutions
/// they minimise true power, and (b) when forced into infeasibility they
/// still reduce the amount of overflow, maximising the chance that later
/// repair steps (XYI) find a feasible solution.
pub fn surrogate_link_cost(model: &PowerModel, load: f64) -> f64 {
    // Hypothetical loads can dip epsilon-below zero through floating-point
    // cancellation (e.g. XYI evaluating "this link without that flow").
    let load = load.max(0.0);
    match model.link_power(load) {
        Ok(p) => p,
        Err(_) => SURROGATE_PENALTY * (1.0 + load / model.capacity),
    }
}

/// One surrogate cost query, answered from the precomputed per-level
/// [`CostLadder`](crate::precompute::CostLadder) when the model is
/// discrete (bit-identical by construction), and by evaluating the power
/// fit through [`surrogate_link_cost`] when it is continuous.
#[inline]
pub(crate) fn link_cost(
    model: &PowerModel,
    ladder: Option<&crate::precompute::CostLadder>,
    load: f64,
) -> f64 {
    match ladder {
        Some(l) => l.cost(load),
        None => surrogate_link_cost(model, load),
    }
}

/// A single-path routing heuristic (§5). All heuristics are deterministic;
/// given the same instance and model they produce the same routing.
pub trait Heuristic {
    /// Short display name used in tables ("XY", "SG", ...).
    fn name(&self) -> &'static str;

    /// Routes the instance. The returned routing is always structurally
    /// valid; it may still be *infeasible* (some link over capacity), in
    /// which case the heuristic is counted as failed on this instance.
    fn route(&self, cs: &CommSet, model: &PowerModel) -> Routing {
        self.route_with(cs, model, &mut RouteScratch::new())
    }

    /// Routes the instance reusing `scratch`'s buffers. The result is
    /// bit-identical to [`Heuristic::route`]; campaign workers call this to
    /// keep the per-trial hot path allocation-free.
    fn route_with(&self, cs: &CommSet, model: &PowerModel, scratch: &mut RouteScratch) -> Routing;
}

/// Identifier for the six routing policies compared in §6.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum HeuristicKind {
    /// Baseline XY routing.
    Xy,
    /// Simple greedy (§5.1).
    Sg,
    /// Improved greedy (§5.2).
    Ig,
    /// Two-bend (§5.3).
    Tb,
    /// XY improver (§5.4).
    Xyi,
    /// Path remover (§5.5).
    Pr,
}

impl HeuristicKind {
    /// The six policies in the paper's presentation order.
    pub const ALL: [HeuristicKind; 6] = [
        HeuristicKind::Xy,
        HeuristicKind::Sg,
        HeuristicKind::Ig,
        HeuristicKind::Tb,
        HeuristicKind::Xyi,
        HeuristicKind::Pr,
    ];

    /// Display name.
    pub fn name(&self) -> &'static str {
        match self {
            HeuristicKind::Xy => "XY",
            HeuristicKind::Sg => "SG",
            HeuristicKind::Ig => "IG",
            HeuristicKind::Tb => "TB",
            HeuristicKind::Xyi => "XYI",
            HeuristicKind::Pr => "PR",
        }
    }

    /// Runs this policy on an instance.
    pub fn route(&self, cs: &CommSet, model: &PowerModel) -> Routing {
        self.route_with(cs, model, &mut RouteScratch::new())
    }

    /// Runs this policy reusing `scratch`'s buffers (same result as
    /// [`HeuristicKind::route`], without the per-call allocations).
    pub fn route_with(
        &self,
        cs: &CommSet,
        model: &PowerModel,
        scratch: &mut RouteScratch,
    ) -> Routing {
        match self {
            HeuristicKind::Xy => xy_routing(cs),
            HeuristicKind::Sg => SimpleGreedy.route_with(cs, model, scratch),
            HeuristicKind::Ig => ImprovedGreedy.route_with(cs, model, scratch),
            HeuristicKind::Tb => TwoBend::default().route_with(cs, model, scratch),
            HeuristicKind::Xyi => XyImprover.route_with(cs, model, scratch),
            HeuristicKind::Pr => PathRemover.route_with(cs, model, scratch),
        }
    }
}

impl std::fmt::Display for HeuristicKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// The outcome of one [`Best::route`] call: which policy won, its
/// routing, and its power.
///
/// The winner is the feasible policy of smallest power. When *no* policy
/// is feasible, `kind`/`routing` are XY's attempt and `power` is `None` —
/// so callers always get a structurally valid routing to display, and
/// feasibility is one `power.is_some()` check instead of an `unwrap` on
/// the whole result.
#[derive(Debug, Clone)]
pub struct BestRoute {
    /// The winning policy (XY when every policy failed).
    pub kind: HeuristicKind,
    /// The winner's routing (always structurally valid, infeasible iff
    /// `power` is `None`).
    pub routing: Routing,
    /// Total power of the winning routing; `None` when every policy
    /// produced an infeasible routing.
    pub power: Option<f64>,
}

impl BestRoute {
    /// True iff some policy produced a feasible routing.
    #[inline]
    pub fn is_feasible(&self) -> bool {
        self.power.is_some()
    }
}

/// The virtual **BEST** heuristic of §6: run all six policies
/// ([`HeuristicKind::ALL`], XY included) and keep the feasible routing of
/// smallest power.
#[derive(Debug, Clone, Copy, Default)]
pub struct Best;

impl Best {
    /// Runs every policy and returns the winner (see [`BestRoute`]).
    pub fn route(&self, cs: &CommSet, model: &PowerModel) -> BestRoute {
        self.route_with(cs, model, &mut RouteScratch::new())
    }

    /// [`Best::route`] reusing `scratch`'s buffers (and dispatching on its
    /// [`EngineConfig`](crate::engine::EngineConfig)).
    pub fn route_with(
        &self,
        cs: &CommSet,
        model: &PowerModel,
        scratch: &mut RouteScratch,
    ) -> BestRoute {
        let best = pick_best(HeuristicKind::ALL.into_iter().map(|kind| {
            let routing = kind.route_with(cs, model, scratch);
            let power = routing.power(cs, model).ok().map(|p| p.total());
            (power, (kind, routing))
        }));
        match best {
            Some((power, (kind, routing))) => BestRoute {
                kind,
                routing,
                power: Some(power),
            },
            // Every policy failed: show XY's attempt.
            None => BestRoute {
                kind: HeuristicKind::Xy,
                routing: xy_routing(cs),
                power: None,
            },
        }
    }
}

/// §6's BEST rule, written once for [`Best`] and the campaign runner:
/// given each policy's total power (`None` when its routing is
/// infeasible) in [`HeuristicKind::ALL`] order, the feasible policy of
/// least power wins, and on a tie the first. Each power carries its
/// caller's payload (the policy, and perhaps its routing) to the winner.
pub fn pick_best<T>(candidates: impl IntoIterator<Item = (Option<f64>, T)>) -> Option<(f64, T)> {
    let mut best: Option<(f64, T)> = None;
    for (power, payload) in candidates {
        if let Some(p) = power {
            if best.as_ref().is_none_or(|(bp, _)| p < *bp) {
                best = Some((p, payload));
            }
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::comm::Comm;
    use pamr_mesh::{Coord, Mesh};

    #[test]
    fn surrogate_matches_power_when_feasible() {
        let model = PowerModel::fig2();
        assert_eq!(surrogate_link_cost(&model, 0.0), 0.0);
        assert!((surrogate_link_cost(&model, 2.0) - 8.0).abs() < 1e-12);
    }

    #[test]
    fn surrogate_penalises_overflow_increasingly() {
        let model = PowerModel::fig2(); // BW = 4
        let a = surrogate_link_cost(&model, 4.5);
        let b = surrogate_link_cost(&model, 6.0);
        assert!(a >= SURROGATE_PENALTY);
        assert!(b > a, "more overflow must cost more");
        // Any overflow dominates any feasible power.
        assert!(a > surrogate_link_cost(&model, 4.0));
    }

    #[test]
    fn kind_names() {
        let names: Vec<_> = HeuristicKind::ALL.iter().map(|k| k.name()).collect();
        assert_eq!(names, ["XY", "SG", "IG", "TB", "XYI", "PR"]);
    }

    #[test]
    fn best_picks_minimum_power_member() {
        // On the Fig. 2 instance XY is feasible (exactly at capacity) but
        // Manhattan heuristics find strictly better routings.
        let mesh = Mesh::new(2, 2);
        let cs = CommSet::new(
            mesh,
            vec![
                Comm::new(Coord::new(0, 0), Coord::new(1, 1), 1.0),
                Comm::new(Coord::new(0, 0), Coord::new(1, 1), 3.0),
            ],
        );
        let model = PowerModel::fig2();
        let best = Best.route(&cs, &model);
        assert!(best.routing.is_structurally_valid(&cs, 1));
        // Best single-path power on this instance is 56 (Fig. 2b).
        let power = best.power.expect("Fig. 2 instance is feasible");
        assert!(
            (power - 56.0).abs() < 1e-9,
            "got {power} from {}",
            best.kind
        );
        // SG, IG, TB, XYI and PR all reach 56: the tie goes to the first
        // of them in `HeuristicKind::ALL`.
        assert_eq!(best.kind, HeuristicKind::Sg);
    }

    #[test]
    fn best_reports_infeasible_with_a_displayable_fallback() {
        // BW = 2 and one weight-3 communication: every single path (and
        // hence every policy) overloads some link. The result still
        // carries XY's attempt for display.
        let mesh = Mesh::new(2, 2);
        let cs = CommSet::new(
            mesh,
            vec![Comm::new(Coord::new(0, 0), Coord::new(1, 1), 3.0)],
        );
        let model = PowerModel::continuous(0.0, 1.0, 3.0, 2.0);
        let best = Best.route(&cs, &model);
        assert!(!best.is_feasible());
        assert_eq!(best.power, None);
        assert_eq!(best.kind, HeuristicKind::Xy, "the fallback is XY's attempt");
        assert!(best.routing.is_structurally_valid(&cs, 1));
    }
}
