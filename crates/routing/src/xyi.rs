//! The XY-improver heuristic (§5.4), evaluating only links a flip could
//! have changed.
//!
//! XYI's §5.4 description examines loaded links in decreasing-load order
//! and, for every examined link, offers each communication crossing it a
//! corner flip; after every accepted flip it restarts from the most loaded
//! link. The literal formulation (kept verbatim in the private `reference`
//! module) rebuilds the loaded-link list and re-runs an `O(links)`
//! selection scan per examined link, probes **all** communications per
//! link, and re-evaluates after every flip links that nothing has touched.
//!
//! The engine here keeps one [`MaxTree`](crate::loadq::MaxTree) of
//! *pending* links, keyed by load under the `select_max` tie rule (the
//! "don't-look bits" of local search, Bentley 1992):
//!
//! * **start:** every loaded link is pending;
//! * **step:** evaluate the tree's top link. On rejection, `set(top, 0.0)`
//!   drops it. On acceptance, apply the flip, then re-key at its current
//!   load every directed link of the flipped unit square and of that
//!   square's four edge-neighbour squares (`flip_neighbourhood`);
//! * **stop** when the tree is empty or `MAX_MOVES` flips were accepted.
//!
//! A per-link *crossing index* (`LinkId → sorted comm indices`, the same
//! `xusers` scratch table banded PR uses) restricts each evaluation to the
//! communications whose current path crosses the link; every other
//! communication's flip candidate is structurally `None`.
//!
//! The move itself is written once, in the private `flip_at`: the oracle
//! reaches it through `flip_candidate`, which walks the path to the link,
//! and the engine and the session's bounded repair through
//! `flip_candidate_at`, which finds the link's position in `O(1)`. The
//! engine and the session also price a flip in one place, `best_flip`,
//! through `link_cost` over the scratch's [`CostLadder`]; the oracle
//! evaluates the power fit per query.
//!
//! **Why dropping rejected links is exact.** Evaluating link `L` reads
//! three things: the communications crossing `L`, each one's moves next to
//! `L`, and the loads of the four sides of the unit square its flip would
//! turn, a square `L` is a side of. A flip changes crossing sets and loads
//! only on its own square's sides, and one path's moves only at the two
//! swapped positions, whose links are that square's sides too. An
//! evaluation that reads any of these therefore turns the flipped square
//! or a square sharing a side with it, and `L` is a side of that square.
//! Every link left out of the tree would be rejected again, so the top
//! pending improving link is the first improving link in `select_max`
//! order: the oracle's flips, in the oracle's order, with the same bits.
//!
//! Both engines produce **bit-identical** routings: they evaluate the same
//! flips in the same order with the same floating-point operations (the
//! skipped communications and links perform none), accept the same moves,
//! and `tests/xyi_differential.rs` enforces it with a differential oracle
//! over randomized §6 workloads plus a byte-identical seeded campaign
//! report, swapping the engine behind
//! [`HeuristicKind::Xyi`](crate::HeuristicKind) via
//! [`EngineConfig::REFERENCE`](crate::EngineConfig::REFERENCE).

use crate::comm::CommSet;
use crate::heuristic::{link_cost, Heuristic};
use crate::precompute::CostLadder;
use crate::routing::Routing;
use crate::scratch::RouteScratch;
use pamr_mesh::{Coord, LinkId, Mesh, Path, Step};
use pamr_power::PowerModel;

mod reference;

use reference::ReferenceXyImprover;

/// Relative improvement below which a modification is not considered an
/// improvement (guards termination against floating-point noise). Shared
/// with the session's bounded repair pass ([`crate::session`]).
pub(crate) const IMPROVE_EPS: f64 = 1e-9;

/// Safety bound on accepted modifications, shared with the oracle (the
/// surrogate strictly decreases at every step, so this is virtually never
/// reached).
const MAX_MOVES: usize = 1_000_000;

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
/// This is the pending-link implementation (see the module docs);
/// its bit-identical full-scan oracle runs in its place on
/// [`EngineConfig::REFERENCE`](crate::EngineConfig::REFERENCE).
#[derive(Debug, Clone, Copy, Default)]
pub struct XyImprover;

/// The paper's single candidate modification of `path` to avoid `link`,
/// without building the new path: the position of the move swap plus the
/// two removed and two added links. `None` when the path does not cross
/// the link or the move would violate the Manhattan-path constraint.
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
    // Walk the path to find the link's position and its tail core.
    let mut cur = path.src();
    for (j, &m) in moves.iter().enumerate() {
        if mesh.link_id(cur, m) == Some(link) {
            return flip_at(mesh, moves, link, j, cur);
        }
        cur = mesh.step(cur, m)?;
    }
    None // path does not cross the link
}

/// [`flip_candidate`] for a path **known to cross** `link`, in `O(1)`.
///
/// The walking locator above scans the path from its source to find the
/// link's position — an `O(ℓ)` cost per probed candidate that the crossing
/// index makes redundant: every Manhattan move advances the communication's
/// diagonal index by exactly one, so a crossed link's position *is* the
/// diagonal distance from the source to the link's tail. Same return value
/// as [`flip_candidate`] whenever the path crosses the link
/// (debug-asserted); the reference oracle keeps the walking version
/// because it probes non-crossing communications too (their walk returns
/// `None`).
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
    let flip = flip_at(mesh, moves, link, j, tail);
    debug_assert_eq!(flip, flip_candidate(mesh, path, link));
    flip
}

/// §5.4's move, the one body both locators share: `moves[j]` crosses
/// `link` from core `tail`; swap it with the adjacent orthogonal move —
/// the one before a vertical link, the one after a horizontal link — or
/// return `None` when that move is missing or parallel.
fn flip_at(
    mesh: &Mesh,
    moves: &[Step],
    link: LinkId,
    j: usize,
    tail: Coord,
) -> Option<(usize, [LinkId; 2], [LinkId; 2])> {
    let (swap_at, corner) = if mesh.link_step(link).is_vertical() {
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
    Some((swap_at, removed, added))
}

/// One corner flip: communication `comm` swaps its moves at `swap_at` and
/// `swap_at + 1`, which moves it off the links `rem` and onto the links
/// `add`. The four links are the sides of one unit square.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Flip {
    pub(crate) comm: usize,
    pub(crate) swap_at: usize,
    pub(crate) rem: [LinkId; 2],
    pub(crate) add: [LinkId; 2],
}

impl Flip {
    /// `path` with this flip applied.
    pub(crate) fn apply(&self, path: &Path) -> Path {
        let mut moves = path.moves().to_vec();
        moves.swap(self.swap_at, self.swap_at + 1);
        Path::from_moves(path.src(), moves)
    }
}

/// The evaluation of `link`, shared by the batch engine and the session's
/// bounded repair: the flip through `link` that lowers the surrogate cost
/// the most, over the communications `crossing` it (ascending, each looked
/// up by `comm` as its current path and weight), or `None` when no flip
/// improves by more than [`IMPROVE_EPS`]. `load` reads a link's current
/// load; each hypothetical load is priced by `link_cost` over the caller's
/// [`CostLadder`] (bit-identical to the oracle's `surrogate_link_cost`).
/// Ties keep the earlier communication, as the oracle's all-comms sweep
/// does.
pub(crate) fn best_flip<'p>(
    mesh: &Mesh,
    link: LinkId,
    crossing: &[u32],
    comm: impl Fn(usize) -> (&'p Path, f64),
    load: impl Fn(LinkId) -> f64,
    (model, ladder): (&PowerModel, Option<&CostLadder>),
) -> Option<Flip> {
    let cost = |load| link_cost(model, ladder, load);
    let mut best: Option<(f64, Flip)> = None;
    for &i in crossing {
        let i = i as usize;
        let (path, w) = comm(i);
        let Some((swap_at, rem, add)) = flip_candidate_at(mesh, path, link) else {
            continue;
        };
        // Cost after removing the comm from `rem` and adding it to `add`,
        // minus the current cost, over the affected links only.
        let mut delta = 0.0;
        for l in rem {
            let now = load(l);
            delta += cost(now - w) - cost(now);
        }
        for l in add {
            let now = load(l);
            delta += cost(now + w) - cost(now);
        }
        if delta < -IMPROVE_EPS && best.as_ref().is_none_or(|(b, _)| delta < *b) {
            let flip = Flip {
                comm: i,
                swap_at,
                rem,
                add,
            };
            best = Some((delta, flip));
        }
    }
    best.map(|(_, flip)| flip)
}

/// The eight directed sides of the unit square whose top-left core is
/// `(0, 0)`, as `(row offset, column offset, step)` from that core.
const SQUARE_SIDES: [(usize, usize, Step); 8] = [
    (0, 0, Step::Right),
    (0, 0, Step::Down),
    (0, 1, Step::Left),
    (0, 1, Step::Down),
    (1, 0, Step::Right),
    (1, 0, Step::Up),
    (1, 1, Step::Left),
    (1, 1, Step::Up),
];

/// Visits every directed link whose evaluation `flip` can have changed:
/// the sides of the flipped unit square and of its (up to four)
/// edge-neighbour squares, 40 visits at most, shared sides twice. See the
/// [module docs](self) for why no other evaluation changes.
pub(crate) fn flip_neighbourhood(mesh: &Mesh, flip: &Flip, mut visit: impl FnMut(LinkId)) {
    // The first removed and the first added link both leave the flip's
    // corner core, along the square's two axes, so their far ends span the
    // square.
    let ([rem, _], [add, _]) = (flip.rem, flip.add);
    let (corner, via_a) = mesh.link_endpoints(rem);
    let (_, via_b) = mesh.link_endpoints(add);
    let (u, v) = (
        corner.u.min(via_a.u).min(via_b.u),
        corner.v.min(via_a.v).min(via_b.v),
    );
    let squares = [
        Some((u, v)),
        u.checked_sub(1).map(|up| (up, v)),
        Some((u + 1, v)),
        v.checked_sub(1).map(|left| (u, left)),
        Some((u, v + 1)),
    ];
    for (su, sv) in squares.into_iter().flatten() {
        if su + 1 < mesh.rows() && sv + 1 < mesh.cols() {
            for (du, dv, step) in SQUARE_SIDES {
                if let Some(l) = mesh.link_id(Coord::new(su + du, sv + dv), step) {
                    visit(l);
                }
            }
        }
    }
}

/// [`flip_candidate`] plus the rebuilt path (test-only convenience; the
/// improvement loop builds the path lazily on acceptance).
#[cfg(test)]
fn flip_move(mesh: &Mesh, path: &Path, link: LinkId) -> Option<(Path, [LinkId; 2], [LinkId; 2])> {
    let (swap_at, rem, add) = flip_candidate(mesh, path, link)?;
    let flip = Flip {
        comm: 0,
        swap_at,
        rem,
        add,
    };
    Some((flip.apply(path), rem, add))
}

impl XyImprover {
    /// The pending-link engine (see the module docs).
    fn route_pending_with(
        &self,
        cs: &CommSet,
        model: &PowerModel,
        scratch: &mut RouteScratch,
    ) -> Routing {
        let mesh = cs.mesh();
        scratch.ensure_ladder(model);
        let mut paths: Vec<Path> = cs.comms().iter().map(|c| Path::xy(c.src, c.snk)).collect();
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
        // Every loaded link starts pending.
        scratch.top.rebuild(nslots, scratch.loads.iter_active());
        // The tabulated per-level costs (None for a continuous model: the
        // power fit is evaluated per query).
        let ladder = scratch.ladder.as_ref();
        let mut moves_done = 0;
        while moves_done < MAX_MOVES {
            let Some((link, _)) = scratch.top.peek_max() else {
                break; // no link admits an improving modification
            };
            let loads = &scratch.loads;
            let flip = best_flip(
                mesh,
                link,
                scratch.xusers.row(link.index()),
                |i| (&paths[i], cs.comms()[i].weight),
                |l| loads.get(l),
                (model, ladder),
            );
            let Some(flip) = flip else {
                // No improvement through this link, and none until a flip
                // changes its neighbourhood (the paper drops it from the
                // list).
                scratch.top.set(link, 0.0);
                continue;
            };
            let (i, w) = (flip.comm, cs.comms()[flip.comm].weight);
            for l in flip.rem {
                scratch.loads.add(l, -w);
            }
            for l in flip.add {
                scratch.loads.add(l, w);
            }
            // Only now build the accepted path (one allocation per applied
            // move instead of one per evaluated candidate).
            paths[i] = flip.apply(&paths[i]);
            // Re-home the comm in the crossing index: its new path differs
            // from the old one in exactly `rem` → `add` (sorted
            // insert/remove panics inside `CrossingIndex` document the
            // crossing invariants).
            for l in flip.rem {
                scratch.xusers.remove_sorted(l.index(), i as u32);
            }
            for l in flip.add {
                scratch.xusers.insert_sorted(l.index(), i as u32);
            }
            // Re-pend the links whose evaluation the flip may have changed,
            // at their current loads: the `LoadMap` clamps cancellation
            // residue, so the tree keys from the map's final values.
            let (top, loads) = (&mut scratch.top, &scratch.loads);
            flip_neighbourhood(mesh, &flip, |l| top.set(l, loads.get(l)));
            moves_done += 1;
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
            ReferenceXyImprover.route_with(cs, model, scratch)
        } else {
            self.route_pending_with(cs, model, scratch)
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
    fn flip_neighbourhood_covers_the_square_and_its_edge_neighbours() {
        // The flip of `from → to`'s first corner turns the unit square with
        // top-left core `from`; every visited link is a side of it or of a
        // square sharing a side with it.
        let distinct = |mesh: &Mesh, from: Coord, to: Coord| {
            let path = Path::xy(from, to);
            let link = mesh.link_id(Coord::new(from.u, to.v), Step::Down).unwrap();
            let (swap_at, rem, add) = flip_candidate(mesh, &path, link).unwrap();
            let flip = Flip {
                comm: 0,
                swap_at,
                rem,
                add,
            };
            let mut seen = std::collections::BTreeSet::new();
            flip_neighbourhood(mesh, &flip, |l| {
                seen.insert(l);
            });
            assert!(rem.iter().chain(&add).all(|l| seen.contains(l)));
            seen
        };
        let mesh = Mesh::new(5, 5);
        // Mid-mesh: five squares, 16 undirected sides, 32 links.
        assert_eq!(
            distinct(&mesh, Coord::new(1, 1), Coord::new(2, 2)).len(),
            32
        );
        // Mesh corner: the square and its two on-mesh neighbours, 10 sides.
        let corner = distinct(&mesh, Coord::new(0, 0), Coord::new(1, 1));
        assert_eq!(corner.len(), 20);
        assert!(corner.iter().all(|&l| {
            let (a, b) = mesh.link_endpoints(l);
            a.u.max(b.u) <= 2 && a.v.max(b.v) <= 2 && a.u.min(b.u) + a.v.min(b.v) <= 2
        }));
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
        let r = XyImprover.route(&cs, &model);
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
        let r = XyImprover.route(&cs, &model);
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
        let p = XyImprover
            .route(&cs, &model)
            .power(&cs, &model)
            .unwrap()
            .total();
        assert!(p <= p_xy + 1e-9);
    }

    #[test]
    fn pending_matches_reference_on_random_instances() {
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
            let pending = XyImprover.route_with(&cs, &model, &mut scratch);
            let reference = ReferenceXyImprover.route_with(&cs, &model, &mut scratch);
            assert_eq!(
                pending, reference,
                "seed {seed}: pending-link XYI diverged from the full-scan oracle"
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
        let pending = XyImprover.route_with(&cs, &model, &mut live);
        let reference = XyImprover.route_with(&cs, &model, &mut oracle);
        assert_eq!(pending, reference);
    }
}
