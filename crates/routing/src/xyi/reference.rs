//! The full-scan XY improver: the differential oracle for the pending-link
//! implementation in [`crate::xyi`].
//!
//! This is the §5.4 algorithm in its most literal form: on every iteration
//! of the improvement loop the loaded-link list is rebuilt from the load
//! map and each examined link is selected with the naive
//! [`select_max`] scan, then **every** communication is probed for the
//! corner flip (non-crossing ones structurally decline). It is deliberately
//! kept simple and independent of the pending-link fast path so that
//! `tests/xyi_differential.rs` can pin the two implementations against
//! each other: identical routings, bit-identical load maps, byte-identical
//! campaign reports. Both implementations are compiled unconditionally (no
//! `#[cfg]`), so the oracle is always available to tests, benchmarks and
//! [`EngineConfig::REFERENCE`](crate::EngineConfig::REFERENCE).

use super::{flip_candidate, IMPROVE_EPS, MAX_MOVES};
use crate::comm::CommSet;
use crate::heuristic::{surrogate_link_cost, Heuristic};
use crate::loadq::select_max;
use crate::routing::Routing;
use crate::scratch::RouteScratch;
use pamr_mesh::{LinkId, Path};
use pamr_power::PowerModel;

/// **XYI (reference)** — the full-scan XY-improver oracle.
///
/// Produces bit-identical routings to [`crate::XyImprover`] (the
/// pending-link implementation) at a higher per-link selection cost; see
/// the module docs.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct ReferenceXyImprover;

impl Heuristic for ReferenceXyImprover {
    fn name(&self) -> &'static str {
        "XYI-ref"
    }

    fn route_with(&self, cs: &CommSet, model: &PowerModel, scratch: &mut RouteScratch) -> Routing {
        let mesh = cs.mesh();
        let mut paths: Vec<Path> = cs.comms().iter().map(|c| Path::xy(c.src, c.snk)).collect();
        scratch.loads.fit(mesh);
        let loads = &mut scratch.loads;
        for (c, p) in cs.comms().iter().zip(&paths) {
            loads.add_path(mesh, p, c.weight);
        }
        let mut moves_done = 0;
        'outer: while moves_done < MAX_MOVES {
            // Loaded links examined in decreasing-load order, selected
            // lazily: an improving modification is usually found within the
            // first few links, so the full sort is almost never needed.
            scratch.active.clear();
            scratch.active.extend(loads.iter_active());
            let mut next = 0;
            while let Some((link, _)) = select_max(&mut scratch.active, next) {
                next += 1;
                // Best modification among the communications on this link:
                // (delta, comm index, swap position, removed, added links).
                type Candidate = (f64, usize, usize, [LinkId; 2], [LinkId; 2]);
                let mut best: Option<Candidate> = None;
                for (i, c) in cs.comms().iter().enumerate() {
                    if let Some((swap_at, rem, add)) = flip_candidate(mesh, &paths[i], link) {
                        let mut delta = 0.0;
                        // Cost after removing the comm from `rem` and adding
                        // it to `add`, minus current cost, over the affected
                        // links only.
                        for l in rem {
                            let load = loads.get(l);
                            delta += surrogate_link_cost(model, load - c.weight)
                                - surrogate_link_cost(model, load);
                        }
                        for l in add {
                            let load = loads.get(l);
                            delta += surrogate_link_cost(model, load + c.weight)
                                - surrogate_link_cost(model, load);
                        }
                        if delta < -IMPROVE_EPS && best.as_ref().is_none_or(|(b, ..)| delta < *b) {
                            best = Some((delta, i, swap_at, rem, add));
                        }
                    }
                }
                if let Some((_, i, swap_at, rem, add)) = best {
                    let w = cs.comms()[i].weight;
                    for l in rem {
                        loads.add(l, -w);
                    }
                    for l in add {
                        loads.add(l, w);
                    }
                    // Only now build the accepted path (one allocation per
                    // applied move instead of one per evaluated candidate).
                    let mut new_moves = paths[i].moves().to_vec();
                    new_moves.swap(swap_at, swap_at + 1);
                    paths[i] = Path::from_moves(paths[i].src(), new_moves);
                    moves_done += 1;
                    continue 'outer; // re-sort and restart from the top
                }
                // No improvement through this link: drop it and try the next
                // one (the paper removes it from the list).
            }
            break; // no link admits an improving modification
        }
        Routing::single(cs, paths)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::comm::Comm;
    use crate::rules::xy_routing;
    use pamr_mesh::{Coord, Mesh};

    #[test]
    fn reference_reaches_fig2_optimum() {
        let mesh = Mesh::new(2, 2);
        let cs = CommSet::new(
            mesh,
            vec![
                Comm::new(Coord::new(0, 0), Coord::new(1, 1), 1.0),
                Comm::new(Coord::new(0, 0), Coord::new(1, 1), 3.0),
            ],
        );
        let model = PowerModel::fig2();
        let r = ReferenceXyImprover.route(&cs, &model);
        let p = r.power(&cs, &model).unwrap().total();
        let p_xy = xy_routing(&cs).power(&cs, &model).unwrap().total();
        assert!(p < p_xy);
        assert!(
            (p - 56.0).abs() < 1e-9,
            "reference XYI should reach the 1-MP optimum 56, got {p}"
        );
    }
}
