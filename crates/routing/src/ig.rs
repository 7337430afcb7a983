//! The Improved-greedy heuristic (§5.2), with an indexed candidate
//! selection.
//!
//! IG routes each communication hop by hop, scoring every candidate link by
//! a lower bound on the power to reach the sink through it: the candidate's
//! own cost plus, for every remaining diagonal of the communication's band,
//! the cost of the cheapest link still reachable inside the shrinking
//! bounding box. The literal formulation (kept verbatim in the private
//! `reference` module) recomputes each group's cheapest link with a full
//! scan — `O(band links)` *per candidate hop*, the same rescan-everything
//! pattern PR 4 profiled as the improvement loops' real bottleneck.
//!
//! The engine here exploits that the load map is **frozen** while one
//! communication routes (its own ideal share is removed up front, and its
//! real path is only committed afterwards): before the hop loop it builds a
//! per-group min-load index — each band group's links sorted ascending by
//! the same `(load bits, link id)` key the shared
//! [`loadq`](crate::loadq) module orders its max-load indexes by — and each
//! tail-bound term then walks a group's index in ascending-load order and
//! stops at the **first** link inside the bounding box. The link-power
//! model is monotone in load, so that first hit is exactly the full scan's
//! `min` — same value, same bits — at a fraction of the probes.
//!
//! Both engines produce **bit-identical** routings, and
//! `tests/xyi_differential.rs` enforces it with a differential oracle
//! over randomized §6 workloads plus a byte-identical seeded campaign
//! report, swapping the engine behind
//! [`HeuristicKind::Ig`](crate::HeuristicKind) via
//! [`EngineConfig::REFERENCE`](crate::EngineConfig::REFERENCE).

use crate::comm::{Comm, CommSet};
use crate::fractional::apply_ideal;
use crate::heuristic::{link_cost, Heuristic};
use crate::precompute::CostLadder;
use crate::routing::Routing;
use crate::scratch::RouteScratch;
use pamr_mesh::{Band, LinkId, LoadMap, Mesh, Path, Rect, Step};
use pamr_power::PowerModel;

mod reference;

use reference::ReferenceImprovedGreedy;

/// **IG — Improved greedy** (§5.2).
///
/// All communications are first virtually pre-routed with the ideal
/// fractional sharing of Figure 3. Processing them by decreasing weight,
/// IG removes the current communication's fractional contribution and then
/// builds its single path hop by hop: each candidate next link is scored by
/// a lower bound on the power to reach the sink through it (the candidate
/// link's own power plus, for every remaining diagonal, the power of the
/// least loaded link that remains reachable), and the cheaper candidate is
/// taken.
///
/// This is the indexed implementation (see the module docs);
/// its bit-identical full-scan oracle runs in its place on
/// [`EngineConfig::REFERENCE`](crate::EngineConfig::REFERENCE).
#[derive(Debug, Clone, Copy, Default)]
pub struct ImprovedGreedy;

/// The reused min-index buffers of [`RouteScratch`], borrowed together:
/// `ig_keys` (each band group's `(load bits, link id)` keys), `ig_off`
/// (group offsets into them) and `ig_info` (each key's cost and link
/// endpoints).
type MinIndexBufs<'a> = (
    &'a mut Vec<(u64, u32)>,
    &'a mut Vec<usize>,
    &'a mut Vec<(f64, pamr_mesh::Coord, pamr_mesh::Coord)>,
);

/// Builds the per-group min-load index of one communication's band into the
/// reused `keys`/`off`/`info` buffers: `keys[off[t]..off[t + 1]]` holds
/// [`Band::group`]`(t)`'s links as `(load bits, link id)` pairs sorted
/// ascending, and `info` carries, in the same order, each entry's
/// surrogate cost at `load + weight` plus its link endpoints. Loads are
/// non-negative, so the key order is the load order with ties towards the
/// smaller link id — the exact mirror of the max-load queue's key.
///
/// Precomputing the costs here is what moves the expensive power-model
/// evaluation out of the hop loop: the load map is frozen while the
/// communication routes, so each band link's cost is the same at every
/// hop — `O(band links)` model calls per communication instead of
/// `O(path length × band links)`.
fn build_min_index(
    mesh: &Mesh,
    loads: &LoadMap,
    model: &PowerModel,
    ladder: Option<&CostLadder>,
    band: &Band,
    weight: f64,
    (keys, off, info): MinIndexBufs<'_>,
) {
    keys.clear();
    off.clear();
    info.clear();
    off.push(0);
    for g in band.groups() {
        let start = keys.len();
        keys.extend(g.iter().map(|&l| (loads.get(l).to_bits(), l.0 as u32)));
        keys[start..].sort_unstable();
        off.push(keys.len());
    }
    info.extend(keys.iter().map(|&(bits, id)| {
        let (a, b) = mesh.link_endpoints(LinkId(id as usize));
        (
            link_cost(model, ladder, f64::from_bits(bits) + weight),
            a,
            b,
        )
    }));
}

/// Lower bound on the power to go from the current core to `snk` assuming
/// for each remaining diagonal crossing the least-loaded reachable link can
/// be used — the indexed twin of the oracle's
/// [`reference::ig_tail_bound`]: each group contributes the precomputed
/// cost of its first index entry whose endpoints lie in `rect`, which
/// monotonicity of the link-power model makes bit-identical to the full
/// scan's `min`.
fn tail_bound_indexed(
    off: &[usize],
    info: &[(f64, pamr_mesh::Coord, pamr_mesh::Coord)],
    t_from: usize,
    rect: Rect,
) -> f64 {
    let mut total = 0.0;
    for t in t_from..off.len() - 1 {
        let mut cheapest = f64::INFINITY;
        for &(cost, a, b) in &info[off[t]..off[t + 1]] {
            if rect.contains(a) && rect.contains(b) {
                cheapest = cost;
                break;
            }
        }
        total += cheapest;
    }
    total
}

/// Hop-by-hop path construction over the prebuilt min-load index. The load
/// map is frozen for the whole call, so the index stays valid across hops.
fn ig_route_one_indexed(
    mesh: &Mesh,
    loads: &LoadMap,
    model: &PowerModel,
    ladder: Option<&CostLadder>,
    c: &Comm,
    off: &[usize],
    info: &[(f64, pamr_mesh::Coord, pamr_mesh::Coord)],
) -> Path {
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
                        tail_bound_indexed(off, info, moves.len() + 1, Rect::spanning(next, c.snk))
                    };
                    let bound = link_cost(model, ladder, loads.get(link) + c.weight) + tail;
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

impl ImprovedGreedy {
    /// The indexed engine.
    fn route_indexed_with(
        &self,
        cs: &CommSet,
        model: &PowerModel,
        scratch: &mut RouteScratch,
    ) -> Routing {
        scratch.ensure_ladder(model);
        // One interned band per communication, used both for the virtual
        // pre-routing (Figure 3 ideal sharing) and for the per-hop tail
        // bound below.
        let cust = scratch.ensure_customized(cs);
        let mesh = cs.mesh();
        let RouteScratch {
            loads,
            ig_keys,
            ig_off,
            ig_info,
            ladder,
            ..
        } = scratch;
        let ladder = ladder.as_ref();
        loads.fit(mesh);
        for (c, band) in cs.comms().iter().zip(cust.bands()) {
            apply_ideal(loads, band, c.weight, 1.0);
        }
        let mut paths: Vec<Option<Path>> = vec![None; cs.len()];
        // The decreasing-weight order, cached by the customize phase.
        for &i in cust.by_weight() {
            let c = &cs.comms()[i];
            // Remove this communication's own pre-routing before choosing
            // its real path; the load map is then frozen until the path
            // commits, which is what keeps the min-load index valid.
            apply_ideal(loads, cust.band(i), c.weight, -1.0);
            // Straight and local communications never branch, so their hop
            // loop consults no tail bound: skip the index build outright.
            if c.src.u != c.snk.u && c.src.v != c.snk.v {
                build_min_index(
                    mesh,
                    loads,
                    model,
                    ladder,
                    cust.band(i),
                    c.weight,
                    (&mut *ig_keys, &mut *ig_off, &mut *ig_info),
                );
            } else {
                ig_keys.clear();
                ig_off.clear();
                ig_info.clear();
                ig_off.push(0);
            }
            let path = ig_route_one_indexed(mesh, loads, model, ladder, c, ig_off, ig_info);
            loads.add_path(mesh, &path, c.weight);
            paths[i] = Some(path);
        }
        // pamr-lint: allow(P001, reason = "by_weight is a permutation of 0..len, so every slot was filled by the loop above")
        Routing::single(cs, paths.into_iter().map(Option::unwrap).collect())
    }
}

impl Heuristic for ImprovedGreedy {
    fn name(&self) -> &'static str {
        "IG"
    }

    fn route_with(&self, cs: &CommSet, model: &PowerModel, scratch: &mut RouteScratch) -> Routing {
        if scratch.engine().is_reference() {
            ReferenceImprovedGreedy.route_with(cs, model, scratch)
        } else {
            self.route_indexed_with(cs, model, scratch)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::comm::Comm;
    use pamr_mesh::Coord;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn ig_beats_or_matches_xy_on_crossing_traffic() {
        let mesh = Mesh::new(4, 4);
        let cs = CommSet::new(
            mesh,
            vec![
                Comm::new(Coord::new(0, 0), Coord::new(3, 3), 2.0),
                Comm::new(Coord::new(0, 0), Coord::new(3, 3), 2.0),
                Comm::new(Coord::new(0, 3), Coord::new(3, 0), 1.0),
            ],
        );
        let model = PowerModel::theory(3.0);
        let ig = ImprovedGreedy.route(&cs, &model);
        assert!(ig.is_structurally_valid(&cs, 1));
        let xy = crate::rules::xy_routing(&cs);
        let p_ig = ig.power(&cs, &model).unwrap().total();
        let p_xy = xy.power(&cs, &model).unwrap().total();
        assert!(p_ig <= p_xy + 1e-9, "IG {p_ig} worse than XY {p_xy}");
    }

    #[test]
    fn ig_processes_heaviest_first() {
        // The heavy flow should get the contention-free diagonal spread
        // benefit: with one heavy and one light comm sharing poles, both
        // must end feasible and the heavy one's path must avoid sharing all
        // of its links with the light one.
        let mesh = Mesh::new(2, 2);
        let cs = CommSet::new(
            mesh,
            vec![
                Comm::new(Coord::new(0, 0), Coord::new(1, 1), 1.0),
                Comm::new(Coord::new(0, 0), Coord::new(1, 1), 3.0),
            ],
        );
        let model = PowerModel::fig2();
        let r = ImprovedGreedy.route(&cs, &model);
        // Optimal 1-MP on Fig. 2 is 56: one comm on XY, the other on YX.
        let p = r.power(&cs, &model).unwrap().total();
        assert!(
            (p - 56.0).abs() < 1e-9,
            "IG should find the Fig. 2 1-MP optimum, got {p}"
        );
    }

    #[test]
    fn indexed_matches_reference_on_random_instances() {
        // A compact in-crate differential check (the full oracle lives in
        // tests/xyi_differential.rs): identical routings on random
        // instances covering all four quadrants, straight lines and local
        // traffic.
        let model = PowerModel::kim_horowitz();
        let mut scratch = crate::RouteScratch::new();
        for seed in 0..24u64 {
            let mut rng = SmallRng::seed_from_u64(seed);
            let (p, q) = (rng.gen_range(2..=7), rng.gen_range(2..=7));
            let mesh = Mesh::new(p, q);
            let n = rng.gen_range(1..=16);
            let comms = (0..n)
                .map(|_| {
                    Comm::new(
                        Coord::new(rng.gen_range(0..p), rng.gen_range(0..q)),
                        Coord::new(rng.gen_range(0..p), rng.gen_range(0..q)),
                        rng.gen_range(1.0..2500.0),
                    )
                })
                .collect();
            let cs = CommSet::new(mesh, comms);
            let indexed = ImprovedGreedy.route_with(&cs, &model, &mut scratch);
            let reference = ReferenceImprovedGreedy.route_with(&cs, &model, &mut scratch);
            assert_eq!(
                indexed, reference,
                "seed {seed}: indexed IG diverged from the full-scan oracle"
            );
        }
    }

    #[test]
    fn engine_config_swaps_the_engine() {
        // Both engine selections must produce identical routings through
        // the public dispatch (the differential contract), with no shared
        // process state: each scratch pins its own config.
        use crate::engine::EngineConfig;
        let mesh = Mesh::new(4, 4);
        let cs = CommSet::new(
            mesh,
            vec![
                Comm::new(Coord::new(0, 0), Coord::new(3, 3), 2.0),
                Comm::new(Coord::new(3, 0), Coord::new(0, 3), 1.0),
            ],
        );
        let model = PowerModel::theory(3.0);
        let mut live = RouteScratch::with_engine(EngineConfig::LIVE);
        let mut oracle = RouteScratch::with_engine(EngineConfig::REFERENCE);
        let indexed = ImprovedGreedy.route_with(&cs, &model, &mut live);
        let reference = ImprovedGreedy.route_with(&cs, &model, &mut oracle);
        assert_eq!(indexed, reference);
    }
}
