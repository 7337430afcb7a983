//! The XY-improver heuristic (§5.4), with a queue-driven improvement loop.
//!
//! XYI's §5.4 description examines loaded links in decreasing-load order
//! and, for every examined link, offers each communication crossing it a
//! corner flip. The literal formulation (kept verbatim in the private
//! `reference` module) rebuilds the loaded-link list and re-runs an
//! `O(links)` selection scan per examined link on every iteration of the
//! improvement loop, and probes **all** communications per link — the same
//! `O(links²)` selection bottleneck PR 4 removed from the Path-Remover.
//!
//! The engine here removes it the way the Path-Remover did, with a
//! [`LoadQueue`](crate::loadq::LoadQueue):
//!
//! * the loaded links live in an incrementally-maintained max-load index;
//!   an accepted move re-keys only the four affected links (lazy
//!   invalidation + one batched refresh) instead of rebuilding the list;
//! * a descending [`Cursor`] walks the index in
//!   exactly the `select_max` order, resuming below rejected links;
//! * a per-link *crossing index* (`LinkId → sorted comm indices`, the same
//!   `users` scratch table PR keys by band membership) restricts the
//!   candidate scan to the communications whose current path actually
//!   crosses the examined link — every other communication's flip
//!   candidate is structurally `None` and contributed nothing but a
//!   wasted path walk.
//!
//! Both engines produce **bit-identical** routings: they evaluate the same
//! flips in the same order with the same floating-point operations (the
//! skipped communications perform none), accept the same moves, and
//! `tests/xyi_differential.rs` enforces it with a differential oracle
//! over randomized §6 workloads plus a byte-identical seeded campaign
//! report, swapping the engine behind
//! [`HeuristicKind::Xyi`](crate::HeuristicKind) via
//! [`EngineConfig::REFERENCE`](crate::EngineConfig::REFERENCE).

use crate::comm::CommSet;
use crate::heuristic::{link_cost, Heuristic};
use crate::loadq::Cursor;
use crate::routing::Routing;
use crate::scratch::RouteScratch;
use pamr_mesh::{LinkId, Mesh, Path};
use pamr_power::PowerModel;

mod reference;

use reference::ReferenceXyImprover;

/// Relative improvement below which a modification is not considered an
/// improvement (guards termination against floating-point noise). Shared
/// with the session's bounded repair pass ([`crate::session`]).
pub(crate) const IMPROVE_EPS: f64 = 1e-9;

/// **XYI — XY improver** (§5.4).
///
/// Starts from the XY routing and iteratively relieves the most loaded
/// links. For the most loaded link, every communication crossing it is
/// offered the paper's *move*:
///
/// * **vertical link** `a → b`: replace the corner `…→H a →V b` with
///   `…→V b' →H b` — the horizontal link now goes *to the same core* `b`
///   *from the core closest to the source* (requires the move before the
///   link to be horizontal);
/// * **horizontal link** `a → b`: replace `a →H b →V c` with
///   `a →V b'' →H c` — the vertical link now goes *from the same core* `a`
///   *towards the core closest to the sink* (requires the move after the
///   link to be vertical).
///
/// If some modification lowers the (surrogate) power, the best one is
/// applied, loads are updated and the scan restarts from the most loaded
/// link; otherwise the link is dropped from the list and the next most
/// loaded link is examined. Because XYI minimises the *surrogate* cost, it
/// can also repair instances on which XY exceeds link bandwidths — the
/// paper's campaign counts on this (XYI succeeds on ~46% of instances vs
/// ~15% for XY).
///
/// This is the queue-driven implementation (see the module docs);
/// its bit-identical full-scan oracle runs in its place on
/// [`EngineConfig::REFERENCE`](crate::EngineConfig::REFERENCE).
#[derive(Debug, Clone, Copy)]
pub struct XyImprover {
    /// Safety bound on accepted modifications (the surrogate strictly
    /// decreases at every step, so this is virtually never reached).
    pub max_moves: usize,
}

impl Default for XyImprover {
    fn default() -> Self {
        XyImprover {
            max_moves: 1_000_000,
        }
    }
}

/// The paper's single candidate modification of `path` to avoid `link`,
/// without building the new path: the position of the move swap plus the
/// two removed and two added links. `None` when the move would violate the
/// Manhattan-path constraint.
///
/// Only the two links at `swap_at` / `swap_at + 1` differ between the old
/// and new paths, so the candidate is fully described — and its surrogate
/// delta evaluable — with zero allocations.
pub(crate) fn flip_candidate(
    mesh: &Mesh,
    path: &Path,
    link: LinkId,
) -> Option<(usize, [LinkId; 2], [LinkId; 2])> {
    let moves = path.moves();
    // Walk the path to find the link's position and the cores around it.
    let mut cur = path.src();
    let mut prev = cur;
    let mut j = usize::MAX;
    for (idx, &m) in moves.iter().enumerate() {
        if mesh.link_id(cur, m) == Some(link) {
            j = idx;
            break;
        }
        prev = cur;
        cur = mesh.step(cur, m)?;
    }
    if j == usize::MAX {
        return None; // path does not cross the link
    }
    let vertical = mesh.link_step(link).is_vertical();
    // Pick the adjacent orthogonal move to swap with.
    let (swap_at, corner) = if vertical {
        // Need the preceding move to be horizontal: swap (j-1, j).
        if j == 0 || !moves[j - 1].is_horizontal() {
            return None;
        }
        (j - 1, prev)
    } else {
        // Need the following move to be vertical: swap (j, j+1).
        if j + 1 >= moves.len() || !moves[j + 1].is_vertical() {
            return None;
        }
        (j, cur)
    };
    let (a, b) = (moves[swap_at], moves[swap_at + 1]);
    // Swapping orthogonal moves a,b around `corner` stays in the path's
    // bounding box, so every link id below exists.
    // pamr-lint: allow(P001, reason = "corner lies on a Manhattan path whose moves a and b both start there, so both steps stay inside the path's bounding box")
    let via_a = mesh.step(corner, a).expect("path stays on the mesh");
    // pamr-lint: allow(P001, reason = "same bounding-box invariant: the swapped corner is a lattice point of the a×b rectangle")
    let via_b = mesh.step(corner, b).expect("swapped corner on mesh");
    let removed = [
        // pamr-lint: allow(P001, reason = "links of the current path: both endpoints were just shown to be on the mesh")
        mesh.link_id(corner, a).expect("removed links exist"),
        // pamr-lint: allow(P001, reason = "links of the current path: both endpoints were just shown to be on the mesh")
        mesh.link_id(via_a, b).expect("removed links exist"),
    ];
    let added = [
        // pamr-lint: allow(P001, reason = "the swapped rectangle sides: endpoints are the same four lattice points")
        mesh.link_id(corner, b).expect("added links exist"),
        // pamr-lint: allow(P001, reason = "the swapped rectangle sides: endpoints are the same four lattice points")
        mesh.link_id(via_b, a).expect("added links exist"),
    ];
    debug_assert!(removed.contains(&link));
    debug_assert!(!added.contains(&link));
    Some((swap_at, removed, added))
}

/// [`flip_candidate`] for a path **known to cross** `link`, in `O(1)`.
///
/// The walking locator above scans the path from its source to find the
/// link's position — an `O(ℓ)` cost per probed candidate that the crossing
/// index makes redundant: every Manhattan move advances the communication's
/// diagonal index by exactly one, so a crossed link's position *is* the
/// diagonal distance from the source to the link's tail, and the preceding
/// corner core is one reverse step away. Same return value as
/// [`flip_candidate`] whenever the path crosses the link (debug-asserted);
/// the reference oracle keeps the walking version because it probes
/// non-crossing communications too (their walk returns `None`).
pub(crate) fn flip_candidate_at(
    mesh: &Mesh,
    path: &Path,
    link: LinkId,
) -> Option<(usize, [LinkId; 2], [LinkId; 2])> {
    let moves = path.moves();
    let (tail, _) = mesh.link_endpoints(link);
    let quadrant = pamr_mesh::Quadrant::of(path.src(), path.snk());
    let j = mesh.diag_index(tail, quadrant) - mesh.diag_index(path.src(), quadrant);
    debug_assert!(
        j < moves.len() && mesh.link_id(tail, moves[j]) == Some(link),
        "flip_candidate_at requires a path crossing the link"
    );
    let vertical = mesh.link_step(link).is_vertical();
    let (swap_at, corner) = if vertical {
        // Need the preceding move to be horizontal: swap (j-1, j). The
        // corner is the core the path occupied before `tail`.
        if j == 0 || !moves[j - 1].is_horizontal() {
            return None;
        }
        (j - 1, mesh.step(tail, moves[j - 1].opposite())?)
    } else {
        // Need the following move to be vertical: swap (j, j+1).
        if j + 1 >= moves.len() || !moves[j + 1].is_vertical() {
            return None;
        }
        (j, tail)
    };
    let (a, b) = (moves[swap_at], moves[swap_at + 1]);
    // Swapping orthogonal moves a,b around `corner` stays in the path's
    // bounding box, so every link id below exists.
    // pamr-lint: allow(P001, reason = "corner lies on a Manhattan path whose moves a and b both start there, so both steps stay inside the path's bounding box")
    let via_a = mesh.step(corner, a).expect("path stays on the mesh");
    // pamr-lint: allow(P001, reason = "same bounding-box invariant: the swapped corner is a lattice point of the a×b rectangle")
    let via_b = mesh.step(corner, b).expect("swapped corner on mesh");
    let removed = [
        // pamr-lint: allow(P001, reason = "links of the current path: both endpoints were just shown to be on the mesh")
        mesh.link_id(corner, a).expect("removed links exist"),
        // pamr-lint: allow(P001, reason = "links of the current path: both endpoints were just shown to be on the mesh")
        mesh.link_id(via_a, b).expect("removed links exist"),
    ];
    let added = [
        // pamr-lint: allow(P001, reason = "the swapped rectangle sides: endpoints are the same four lattice points")
        mesh.link_id(corner, b).expect("added links exist"),
        // pamr-lint: allow(P001, reason = "the swapped rectangle sides: endpoints are the same four lattice points")
        mesh.link_id(via_b, a).expect("added links exist"),
    ];
    debug_assert!(removed.contains(&link));
    debug_assert!(!added.contains(&link));
    debug_assert_eq!(
        flip_candidate(mesh, path, link),
        Some((swap_at, removed, added))
    );
    Some((swap_at, removed, added))
}

/// [`flip_candidate`] plus the rebuilt path (test-only convenience; the
/// improvement loop builds the path lazily on acceptance).
#[cfg(test)]
fn flip_move(mesh: &Mesh, path: &Path, link: LinkId) -> Option<(Path, [LinkId; 2], [LinkId; 2])> {
    let (swap_at, removed, added) = flip_candidate(mesh, path, link)?;
    let mut new_moves = path.moves().to_vec();
    new_moves.swap(swap_at, swap_at + 1);
    Some((Path::from_moves(path.src(), new_moves), removed, added))
}

impl XyImprover {
    /// The queue-driven engine.
    fn route_queued_with(
        &self,
        cs: &CommSet,
        model: &PowerModel,
        scratch: &mut RouteScratch,
    ) -> Routing {
        let mesh = cs.mesh();
        scratch.ensure_ladder(model);
        let cust = scratch.ensure_customized(cs);
        let mut paths: Vec<Path> = cust.tables().iter().map(|t| t.xy().clone()).collect();
        scratch.loads.fit(mesh);
        for (c, p) in cs.comms().iter().zip(&paths) {
            scratch.loads.add_path(mesh, p, c.weight);
        }
        // Crossing index: which communications' *current* paths cross each
        // link, kept sorted ascending so the candidate scan visits them in
        // the same order as the oracle's all-comms sweep (non-crossing
        // communications flip to `None` there and contribute nothing).
        // Flat CSR ([`crate::csr::CrossingIndex`]): the two-pass rebuild
        // replaces the historical per-slot `Vec<Vec<usize>>` clear + push.
        let nslots = mesh.num_link_slots();
        scratch.xusers.rebuild(nslots, |push| {
            for (i, p) in paths.iter().enumerate() {
                for l in p.links(mesh) {
                    push(l.index(), i as u32);
                }
            }
        });
        // Max-load index over every loaded link; an accepted move re-keys
        // only the four links it touched.
        scratch.queue.rebuild(nslots, scratch.loads.iter_active());
        // The tabulated per-level costs (None for a continuous model: the
        // power fit is evaluated per query).
        let ladder = scratch.ladder.as_ref();
        let mut moves_done = 0;
        'outer: while moves_done < self.max_moves {
            // Loaded links examined in decreasing-load order straight off
            // the shared queue — the exact `select_max` order the oracle
            // re-derives by scanning.
            let mut cursor = Cursor::default();
            while let Some((link, _)) = cursor.next(&scratch.queue) {
                // Best modification among the communications on this link:
                // (delta, comm index, swap position, removed, added links).
                type Candidate = (f64, usize, usize, [LinkId; 2], [LinkId; 2]);
                let mut best: Option<Candidate> = None;
                for &i in scratch.xusers.row(link.index()) {
                    let i = i as usize;
                    let c = &cs.comms()[i];
                    if let Some((swap_at, rem, add)) = flip_candidate_at(mesh, &paths[i], link) {
                        let mut delta = 0.0;
                        // Cost after removing the comm from `rem` and adding
                        // it to `add`, minus current cost, over the affected
                        // links only.
                        for l in rem {
                            let load = scratch.loads.get(l);
                            delta += link_cost(model, ladder, load - c.weight)
                                - link_cost(model, ladder, load);
                        }
                        for l in add {
                            let load = scratch.loads.get(l);
                            delta += link_cost(model, ladder, load + c.weight)
                                - link_cost(model, ladder, load);
                        }
                        if delta < -IMPROVE_EPS && best.as_ref().is_none_or(|(b, ..)| delta < *b) {
                            best = Some((delta, i, swap_at, rem, add));
                        }
                    }
                }
                if let Some((_, i, swap_at, rem, add)) = best {
                    let w = cs.comms()[i].weight;
                    // Lazy invalidation: the `LoadMap` clamps cancellation
                    // residue, so the queue re-keys from the map's final
                    // values in one batched refresh.
                    for l in rem {
                        scratch.loads.add(l, -w);
                        scratch.queue.mark_dirty(l);
                    }
                    for l in add {
                        scratch.loads.add(l, w);
                        scratch.queue.mark_dirty(l);
                    }
                    scratch.queue.refresh(&scratch.loads);
                    // Only now build the accepted path (one allocation per
                    // applied move instead of one per evaluated candidate).
                    let mut new_moves = paths[i].moves().to_vec();
                    new_moves.swap(swap_at, swap_at + 1);
                    paths[i] = Path::from_moves(paths[i].src(), new_moves);
                    // Re-home the comm in the crossing index: its new path
                    // differs from the old one in exactly `rem` → `add`
                    // (sorted insert/remove panics inside `CrossingIndex`
                    // document the same crossing invariants the old
                    // binary-search expects asserted here).
                    for l in rem {
                        scratch.xusers.remove_sorted(l.index(), i as u32);
                    }
                    for l in add {
                        scratch.xusers.insert_sorted(l.index(), i as u32);
                    }
                    moves_done += 1;
                    continue 'outer; // restart from the most loaded link
                }
                // No improvement through this link: leave it queued (its
                // key is unchanged) and let the cursor move on (the paper
                // removes it from the list).
            }
            break; // no link admits an improving modification
        }
        Routing::single(cs, paths)
    }
}

impl Heuristic for XyImprover {
    fn name(&self) -> &'static str {
        "XYI"
    }

    fn route_with(&self, cs: &CommSet, model: &PowerModel, scratch: &mut RouteScratch) -> Routing {
        if scratch.engine().is_reference() {
            let oracle = ReferenceXyImprover {
                max_moves: self.max_moves,
            };
            oracle.route_with(cs, model, scratch)
        } else {
            self.route_queued_with(cs, model, scratch)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::comm::Comm;
    use crate::rules::xy_routing;
    use pamr_mesh::{Coord, Step};
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn flip_vertical_link_moves_corner_towards_source() {
        let mesh = Mesh::new(3, 3);
        // XY path (0,0) → R R D D; flip the first vertical link (0,2)→(1,2).
        let p = Path::xy(Coord::new(0, 0), Coord::new(2, 2));
        let link = mesh.link_id(Coord::new(0, 2), Step::Down).unwrap();
        let (np, rem, add) = flip_move(&mesh, &p, link).unwrap();
        assert_eq!(
            np.moves(),
            &[Step::Right, Step::Down, Step::Right, Step::Down]
        );
        assert!(rem.contains(&link));
        assert!(!np.crosses(&mesh, link));
        assert!(np.is_manhattan(&mesh));
        // The replacement horizontal link enters the same core (1,2).
        let entering = add
            .iter()
            .find(|&&l| mesh.link_step(l).is_horizontal())
            .unwrap();
        assert_eq!(mesh.link_endpoints(*entering).1, Coord::new(1, 2));
    }

    #[test]
    fn flip_horizontal_link_moves_corner_towards_sink() {
        let mesh = Mesh::new(3, 3);
        // Path R R D D: flip the first horizontal link (0,0)→(0,1): requires
        // following move vertical — here it's R, so not movable. Second
        // horizontal (0,1)→(0,2) is followed by D: movable.
        let p = Path::xy(Coord::new(0, 0), Coord::new(2, 2));
        let l1 = mesh.link_id(Coord::new(0, 0), Step::Right).unwrap();
        assert!(flip_move(&mesh, &p, l1).is_none());
        let l2 = mesh.link_id(Coord::new(0, 1), Step::Right).unwrap();
        let (np, _, add) = flip_move(&mesh, &p, l2).unwrap();
        assert_eq!(
            np.moves(),
            &[Step::Right, Step::Down, Step::Right, Step::Down]
        );
        // The replacement vertical link leaves the same core (0,1).
        let leaving = add
            .iter()
            .find(|&&l| mesh.link_step(l).is_vertical())
            .unwrap();
        assert_eq!(mesh.link_endpoints(*leaving).0, Coord::new(0, 1));
    }

    #[test]
    fn flip_requires_adjacent_orthogonal_move() {
        let mesh = Mesh::new(4, 4);
        // Straight vertical path: nothing can move.
        let p = Path::xy(Coord::new(0, 1), Coord::new(3, 1));
        for l in p.links(&mesh).collect::<Vec<_>>() {
            assert!(flip_move(&mesh, &p, l).is_none());
        }
    }

    #[test]
    fn xyi_improves_two_identical_flows() {
        let mesh = Mesh::new(2, 2);
        let cs = CommSet::new(
            mesh,
            vec![
                Comm::new(Coord::new(0, 0), Coord::new(1, 1), 1.0),
                Comm::new(Coord::new(0, 0), Coord::new(1, 1), 3.0),
            ],
        );
        let model = PowerModel::fig2();
        let r = XyImprover::default().route(&cs, &model);
        assert!(r.is_structurally_valid(&cs, 1));
        let p = r.power(&cs, &model).unwrap().total();
        let p_xy = xy_routing(&cs).power(&cs, &model).unwrap().total();
        assert!(p < p_xy, "XYI ({p}) must beat XY ({p_xy})");
        assert!(
            (p - 56.0).abs() < 1e-9,
            "XYI should reach the 1-MP optimum 56, got {p}"
        );
    }

    #[test]
    fn xyi_repairs_infeasible_xy_start() {
        // Two weight-3 flows with BW=4: XY stacks 6.0 > BW on both shared
        // links, but XY + YX separation is feasible.
        let mesh = Mesh::new(2, 2);
        let cs = CommSet::new(
            mesh,
            vec![
                Comm::new(Coord::new(0, 0), Coord::new(1, 1), 3.0),
                Comm::new(Coord::new(0, 0), Coord::new(1, 1), 3.0),
            ],
        );
        let model = PowerModel::fig2();
        assert!(!xy_routing(&cs).is_feasible(&cs, &model));
        let r = XyImprover::default().route(&cs, &model);
        assert!(r.is_feasible(&cs, &model), "XYI must repair the overload");
    }

    #[test]
    fn xyi_never_worse_than_xy_when_xy_feasible() {
        let mesh = Mesh::new(5, 5);
        let cs = CommSet::new(
            mesh,
            vec![
                Comm::new(Coord::new(0, 0), Coord::new(4, 4), 1.0),
                Comm::new(Coord::new(0, 4), Coord::new(4, 0), 1.0),
                Comm::new(Coord::new(2, 0), Coord::new(2, 4), 1.0),
                Comm::new(Coord::new(0, 2), Coord::new(4, 2), 1.0),
            ],
        );
        let model = PowerModel::theory(2.5);
        let p_xy = xy_routing(&cs).power(&cs, &model).unwrap().total();
        let p = XyImprover::default()
            .route(&cs, &model)
            .power(&cs, &model)
            .unwrap()
            .total();
        assert!(p <= p_xy + 1e-9);
    }

    #[test]
    fn queued_matches_reference_on_random_instances() {
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
            let queued = XyImprover::default().route_with(&cs, &model, &mut scratch);
            let reference = ReferenceXyImprover::default().route_with(&cs, &model, &mut scratch);
            assert_eq!(
                queued, reference,
                "seed {seed}: queued XYI diverged from the full-scan oracle"
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
        let queued = XyImprover::default().route_with(&cs, &model, &mut live);
        let reference = XyImprover::default().route_with(&cs, &model, &mut oracle);
        assert_eq!(queued, reference);
    }
}
