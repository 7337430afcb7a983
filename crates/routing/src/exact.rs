//! Exact optimal single-path (1-MP) routing by branch-and-bound.
//!
//! The problem is NP-complete (Theorem 3), so this solver only targets
//! small instances — the paper's future-work item "compute the optimal
//! solution for small problem instances, so that we could give an insight
//! on the absolute performance of our heuristics". It enumerates the
//! Manhattan paths of each communication depth-first (largest weight
//! first), prunes on the monotone surrogate cost, and respects link
//! capacities exactly.

use crate::comm::CommSet;
use crate::heuristic::surrogate_link_cost;
use crate::routing::Routing;
use pamr_mesh::{LoadMap, Path};
use pamr_power::PowerModel;

/// The search budget was exhausted before the search space was covered.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BudgetExceeded;

impl std::fmt::Display for BudgetExceeded {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "branch-and-bound node budget exceeded")
    }
}

impl std::error::Error for BudgetExceeded {}

struct Search<'a> {
    cs: &'a CommSet,
    model: &'a PowerModel,
    order: Vec<usize>,
    /// Pre-enumerated Manhattan paths per communication (in `order`).
    paths: Vec<Vec<Path>>,
    loads: LoadMap,
    cost: f64,
    best_cost: f64,
    best: Option<Vec<Path>>,
    chosen: Vec<usize>,
    nodes: u64,
    budget: u64,
}

impl Search<'_> {
    fn dfs(&mut self, depth: usize) -> Result<(), BudgetExceeded> {
        if depth == self.order.len() {
            // All communications placed; feasibility is implied because the
            // surrogate cost of any overloaded link exceeds any feasible
            // total, and we only record strictly better costs.
            if self.cost < self.best_cost {
                self.best_cost = self.cost;
                let mut paths: Vec<Path> =
                    vec![Path::from_moves(pamr_mesh::Coord::new(0, 0), vec![]); self.order.len()];
                for (d, &i) in self.order.iter().enumerate() {
                    paths[i] = self.paths[d][self.chosen[d]].clone();
                }
                self.best = Some(paths);
            }
            return Ok(());
        }
        let mesh = self.cs.mesh();
        let weight = self.cs.comms()[self.order[depth]].weight;
        for pi in 0..self.paths[depth].len() {
            self.nodes += 1;
            if self.nodes > self.budget {
                return Err(BudgetExceeded);
            }
            // Apply the path, tracking the surrogate-cost delta.
            let mut delta = 0.0;
            let path = self.paths[depth][pi].clone();
            for l in path.links(mesh) {
                let load = self.loads.get(l);
                delta += surrogate_link_cost(self.model, load + weight)
                    - surrogate_link_cost(self.model, load);
                self.loads.add(l, weight);
            }
            self.cost += delta;
            self.chosen[depth] = pi;
            // Adding traffic never lowers any link's cost, so the current
            // cost is a valid lower bound for the subtree.
            if self.cost < self.best_cost {
                self.dfs(depth + 1)?;
            }
            // Undo.
            self.cost -= delta;
            for l in path.links(mesh) {
                self.loads.add(l, -weight);
            }
        }
        Ok(())
    }
}

/// Finds the optimal single-path routing (minimum total power subject to
/// the link bandwidths), or `None` when no feasible 1-MP routing exists.
///
/// `node_budget` bounds the number of branch-and-bound nodes explored;
/// exceeding it returns `Err(BudgetExceeded)`.
pub fn optimal_single_path(
    cs: &CommSet,
    model: &PowerModel,
    node_budget: u64,
) -> Result<Option<(Routing, f64)>, BudgetExceeded> {
    let order = cs.by_decreasing_weight();
    let paths: Vec<Vec<Path>> = order
        .iter()
        .map(|&i| {
            let c = &cs.comms()[i];
            Path::enumerate_all(cs.mesh(), c.src, c.snk)
        })
        .collect();
    let mut search = Search {
        cs,
        model,
        chosen: vec![0; order.len()],
        paths,
        order,
        loads: LoadMap::new(cs.mesh()),
        cost: 0.0,
        // Any feasible routing costs less than one overloaded link.
        best_cost: crate::heuristic::SURROGATE_PENALTY,
        best: None,
        nodes: 0,
        budget: node_budget,
    };
    search.dfs(0)?;
    Ok(search.best.map(|paths| {
        let routing = Routing::single(cs, paths);
        let power = routing
            .power(cs, model)
            .expect("optimal routing must be feasible")
            .total();
        (routing, power)
    }))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::comm::Comm;
    use crate::heuristic::Best;
    use pamr_mesh::{Coord, Mesh};

    #[test]
    fn exact_matches_fig2_single_path_optimum() {
        let mesh = Mesh::new(2, 2);
        let cs = CommSet::new(
            mesh,
            vec![
                Comm::new(Coord::new(0, 0), Coord::new(1, 1), 1.0),
                Comm::new(Coord::new(0, 0), Coord::new(1, 1), 3.0),
            ],
        );
        let model = PowerModel::fig2();
        let (routing, power) = optimal_single_path(&cs, &model, 1 << 20).unwrap().unwrap();
        assert!((power - 56.0).abs() < 1e-9);
        assert!(routing.is_structurally_valid(&cs, 1));
    }

    #[test]
    fn exact_detects_infeasible_instances() {
        let mesh = Mesh::new(2, 2);
        let cs = CommSet::new(
            mesh,
            vec![Comm::new(Coord::new(0, 0), Coord::new(1, 1), 5.0)],
        );
        let model = PowerModel::fig2(); // BW = 4 < 5
        assert!(optimal_single_path(&cs, &model, 1 << 20).unwrap().is_none());
    }

    #[test]
    fn exact_budget_is_enforced() {
        let mesh = Mesh::new(4, 4);
        let comms = (0..6)
            .map(|_| Comm::new(Coord::new(0, 0), Coord::new(3, 3), 1.0))
            .collect();
        let cs = CommSet::new(mesh, comms);
        let model = PowerModel::theory(3.0);
        assert_eq!(
            optimal_single_path(&cs, &model, 10),
            Err(BudgetExceeded).map(|_: ()| None)
        );
    }

    #[test]
    fn heuristics_never_beat_exact() {
        let mesh = Mesh::new(3, 3);
        let cs = CommSet::new(
            mesh,
            vec![
                Comm::new(Coord::new(0, 0), Coord::new(2, 2), 2.0),
                Comm::new(Coord::new(0, 2), Coord::new(2, 0), 1.5),
                Comm::new(Coord::new(1, 0), Coord::new(1, 2), 1.0),
            ],
        );
        let model = PowerModel::theory(3.0);
        let (_, opt) = optimal_single_path(&cs, &model, 1 << 22).unwrap().unwrap();
        for kind in crate::heuristic::HeuristicKind::ALL {
            let r = kind.route(&cs, &model);
            if let Ok(p) = r.power(&cs, &model) {
                assert!(
                    p.total() + 1e-9 >= opt,
                    "{kind} ({}) beat the optimum ({opt})",
                    p.total()
                );
            }
        }
        // And BEST is bounded below by the optimum too.
        if let Some(p) = Best.route(&cs, &model).power {
            assert!(p + 1e-9 >= opt);
        }
    }

    #[test]
    fn exact_uses_capacity_to_force_separation() {
        // Two weight-3 flows, BW 4: stacked they overload, so the optimum
        // must separate them; power = 2·(3³+3³)... = 108? Each path has 2
        // links at load 3 → 4·27 = 108.
        let mesh = Mesh::new(2, 2);
        let cs = CommSet::new(
            mesh,
            vec![
                Comm::new(Coord::new(0, 0), Coord::new(1, 1), 3.0),
                Comm::new(Coord::new(0, 0), Coord::new(1, 1), 3.0),
            ],
        );
        let model = PowerModel::fig2();
        let (routing, power) = optimal_single_path(&cs, &model, 1 << 16).unwrap().unwrap();
        assert!((power - 108.0).abs() < 1e-9);
        assert!(routing.is_feasible(&cs, &model));
    }
}
