//! The full-scan Improved greedy: the differential oracle for the indexed
//! implementation in [`crate::ig`].
//!
//! This is the §5.2 algorithm in its most literal form: every tail-bound
//! term re-scans the whole diagonal group for its cheapest in-box link, on
//! every candidate hop. It is deliberately kept simple and independent of
//! the indexed fast path so that `tests/xyi_differential.rs` can pin the
//! two implementations against each other: identical routings,
//! bit-identical load maps, byte-identical campaign reports. Both
//! implementations are compiled unconditionally (no `#[cfg]`), so the
//! oracle is always available to tests, benchmarks and
//! [`EngineConfig::REFERENCE`](crate::EngineConfig::REFERENCE).

use crate::comm::{Comm, CommSet};
use crate::fractional::apply_ideal;
use crate::heuristic::{surrogate_link_cost, Heuristic};
use crate::routing::Routing;
use crate::scratch::RouteScratch;
use pamr_mesh::{Band, LoadMap, Mesh, Path, Rect, Step};
use pamr_power::PowerModel;

/// **IG (reference)** — the full-scan Improved-greedy oracle.
///
/// Produces bit-identical routings to [`crate::ImprovedGreedy`] (the
/// indexed implementation) at a higher per-hop cost; see the module docs.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct ReferenceImprovedGreedy;

/// Lower bound on the power to go from `from` to `snk` assuming for each
/// remaining diagonal crossing the least-loaded reachable link can be used.
///
/// `band` is the *communication's* full band, `t_from` the diagonal
/// crossings already taken and `rect` the bounding box of the remaining
/// sub-path: the links of the `from → snk` sub-band are exactly the band
/// links of the remaining groups whose endpoints lie in `rect`, so no
/// sub-band needs to be built.
pub(super) fn ig_tail_bound(
    mesh: &Mesh,
    loads: &LoadMap,
    model: &PowerModel,
    band: &Band,
    t_from: usize,
    rect: Rect,
    weight: f64,
) -> f64 {
    let mut total = 0.0;
    for g in band.groups().skip(t_from) {
        let mut cheapest = f64::INFINITY;
        for &l in g {
            let (a, b) = mesh.link_endpoints(l);
            if rect.contains(a) && rect.contains(b) {
                let cost = surrogate_link_cost(model, loads.get(l) + weight);
                cheapest = cheapest.min(cost);
            }
        }
        total += cheapest;
    }
    total
}

/// Hop-by-hop path construction with full tail-bound scans.
fn ig_route_one(mesh: &Mesh, loads: &LoadMap, model: &PowerModel, c: &Comm, band: &Band) -> Path {
    let (sv, sh) = c.quadrant().steps();
    let mut cur = c.src;
    let mut moves = Vec::with_capacity(c.len());
    while cur != c.snk {
        let step = match (cur.u != c.snk.u, cur.v != c.snk.v) {
            (true, false) => sv,
            (false, true) => sh,
            (true, true) => {
                let mut best = (f64::INFINITY, sv);
                for s in [sv, sh] {
                    // pamr-lint: allow(P001, reason = "cur stays inside the src–snk bounding box and both axes still differ, so stepping towards the sink cannot leave the mesh")
                    let link = mesh.link_id(cur, s).unwrap();
                    // pamr-lint: allow(P001, reason = "same bounding-box invariant as the link lookup above")
                    let next = mesh.step(cur, s).unwrap();
                    let tail = if next == c.snk {
                        0.0
                    } else {
                        ig_tail_bound(
                            mesh,
                            loads,
                            model,
                            band,
                            moves.len() + 1,
                            Rect::spanning(next, c.snk),
                            c.weight,
                        )
                    };
                    let bound = surrogate_link_cost(model, loads.get(link) + c.weight) + tail;
                    // Strict `<` keeps the vertical move on ties (sv first).
                    if bound < best.0 {
                        best = (bound, s);
                    }
                }
                best.1
            }
            (false, false) => unreachable!(),
        };
        moves.push(step);
        // pamr-lint: allow(P001, reason = "step was chosen towards the sink from inside the bounding box, so it stays on the mesh")
        cur = mesh.step(cur, step).unwrap();
    }
    debug_assert!(moves.iter().all(|&s: &Step| c.quadrant().allows(s)));
    Path::from_moves(c.src, moves)
}

impl Heuristic for ReferenceImprovedGreedy {
    fn name(&self) -> &'static str {
        "IG-ref"
    }

    fn route_with(&self, cs: &CommSet, model: &PowerModel, scratch: &mut RouteScratch) -> Routing {
        let mesh = cs.mesh();
        scratch.loads.fit(mesh);
        let loads = &mut scratch.loads;
        // One band per communication, computed once and reused both for the
        // virtual pre-routing (Figure 3 ideal sharing) and for the per-hop
        // tail bound below — the tail bound used to rebuild a `Band` for
        // every candidate hop, which dominated IG's runtime.
        let bands: Vec<Band> = cs.comms().iter().map(|c| c.band(mesh)).collect();
        for (c, band) in cs.comms().iter().zip(&bands) {
            apply_ideal(loads, band, c.weight, 1.0);
        }
        let mut paths: Vec<Option<Path>> = vec![None; cs.len()];
        for &i in &cs.by_decreasing_weight() {
            let c = &cs.comms()[i];
            // Remove this communication's own pre-routing before choosing
            // its real path.
            apply_ideal(loads, &bands[i], c.weight, -1.0);
            let path = ig_route_one(mesh, loads, model, c, &bands[i]);
            loads.add_path(mesh, &path, c.weight);
            paths[i] = Some(path);
        }
        Routing::single(cs, paths.into_iter().map(Option::unwrap).collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::comm::Comm;
    use pamr_mesh::Coord;

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
        let r = ReferenceImprovedGreedy.route(&cs, &model);
        let p = r.power(&cs, &model).unwrap().total();
        assert!(
            (p - 56.0).abs() < 1e-9,
            "reference IG should reach the Fig. 2 1-MP optimum, got {p}"
        );
    }
}
