//! The Simple-greedy heuristic (§5.1).
//!
//! Its sibling, Improved greedy (§5.2), lives in [`crate::ig`] — it starts
//! from Figure 3's fractional sharing ([`crate::fractional`]) and got its
//! own module when the candidate selection was rewritten on the shared
//! load index.

use crate::comm::{Comm, CommSet};
use crate::heuristic::Heuristic;
use crate::routing::Routing;
use crate::scratch::RouteScratch;
use pamr_mesh::{Coord, LoadMap, Mesh, Path};
use pamr_power::PowerModel;

/// **SG — Simple greedy** (§5.1).
///
/// Communications are processed by decreasing weight. Each path is built
/// hop by hop: among the (at most two) next links that stay on a Manhattan
/// path, take the least loaded one; break ties by moving closer to the
/// straight source–sink diagonal.
#[derive(Debug, Clone, Copy, Default)]
pub struct SimpleGreedy;

impl Heuristic for SimpleGreedy {
    fn name(&self) -> &'static str {
        "SG"
    }

    fn route_with(&self, cs: &CommSet, _model: &PowerModel, scratch: &mut RouteScratch) -> Routing {
        let mesh = cs.mesh();
        let cust = scratch.ensure_customized(cs);
        scratch.loads.fit(mesh);
        let loads = &mut scratch.loads;
        let mut paths: Vec<Option<Path>> = vec![None; cs.len()];
        // The decreasing-weight order, cached by the customize phase.
        for &i in cust.by_weight() {
            let c = &cs.comms()[i];
            let path = sg_route_one(mesh, loads, c);
            loads.add_path(mesh, &path, c.weight);
            paths[i] = Some(path);
        }
        Routing::single(cs, paths.into_iter().map(Option::unwrap).collect())
    }
}

/// Twice the (unsigned) area of the triangle (src, snk, c): zero when `c`
/// is exactly on the straight src–snk segment, growing as `c` drifts away.
/// SG's tie-break picks the next core minimising this.
fn dist_to_diagonal(src: Coord, snk: Coord, c: Coord) -> i64 {
    let (au, av) = (snk.u as i64 - src.u as i64, snk.v as i64 - src.v as i64);
    let (bu, bv) = (c.u as i64 - src.u as i64, c.v as i64 - src.v as i64);
    (au * bv - av * bu).abs()
}

fn sg_route_one(mesh: &Mesh, loads: &LoadMap, c: &Comm) -> Path {
    let (sv, sh) = c.quadrant().steps();
    let mut cur = c.src;
    let mut moves = Vec::with_capacity(c.len());
    while cur != c.snk {
        let step = match (cur.u != c.snk.u, cur.v != c.snk.v) {
            (true, false) => sv,
            (false, true) => sh,
            (true, true) => {
                let lv = loads.get(mesh.link_id(cur, sv).unwrap());
                let lh = loads.get(mesh.link_id(cur, sh).unwrap());
                if lv < lh {
                    sv
                } else if lh < lv {
                    sh
                } else {
                    // Tie: pick the link getting closer to the source–sink
                    // diagonal; if still tied, prefer the vertical move
                    // (deterministic).
                    let nv = mesh.step(cur, sv).unwrap();
                    let nh = mesh.step(cur, sh).unwrap();
                    if dist_to_diagonal(c.src, c.snk, nv) <= dist_to_diagonal(c.src, c.snk, nh) {
                        sv
                    } else {
                        sh
                    }
                }
            }
            (false, false) => unreachable!(),
        };
        moves.push(step);
        cur = mesh.step(cur, step).unwrap();
    }
    Path::from_moves(c.src, moves)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ig::ImprovedGreedy;
    use pamr_mesh::Mesh;

    fn check_valid(h: &dyn Heuristic, cs: &CommSet, model: &PowerModel) -> Routing {
        let r = h.route(cs, model);
        assert!(
            r.is_structurally_valid(cs, 1),
            "{} produced an invalid routing",
            h.name()
        );
        r
    }

    #[test]
    fn sg_separates_two_equal_flows() {
        // Two identical communications: the second must avoid the first's
        // links wherever possible.
        let mesh = Mesh::new(3, 3);
        let cs = CommSet::new(
            mesh,
            vec![
                Comm::new(Coord::new(0, 0), Coord::new(2, 2), 1.0),
                Comm::new(Coord::new(0, 0), Coord::new(2, 2), 1.0),
            ],
        );
        let model = PowerModel::theory(3.0);
        let r = check_valid(&SimpleGreedy, &cs, &model);
        let loads = r.loads(&cs);
        // A perfect separation yields max load 1.0 (XY would give 2.0).
        assert!(loads.max_load() <= 1.0 + 1e-9, "max = {}", loads.max_load());
    }

    #[test]
    fn sg_tie_break_follows_diagonal() {
        // A single comm on an empty mesh: all loads are 0, so every hop is a
        // tie broken towards the diagonal — the path must stay within one
        // unit of the straight line.
        let mesh = Mesh::new(6, 6);
        let cs = CommSet::new(
            mesh,
            vec![Comm::new(Coord::new(0, 0), Coord::new(5, 5), 1.0)],
        );
        let model = PowerModel::theory(3.0);
        let r = SimpleGreedy.route(&cs, &model);
        for core in r.path(0).cores() {
            assert!(
                dist_to_diagonal(Coord::new(0, 0), Coord::new(5, 5), core) <= 5,
                "core {core} strays from the diagonal"
            );
        }
    }

    #[test]
    fn greedy_handles_local_and_straight_comms() {
        let mesh = Mesh::new(3, 4);
        let cs = CommSet::new(
            mesh,
            vec![
                Comm::new(Coord::new(1, 1), Coord::new(1, 1), 5.0), // local
                Comm::new(Coord::new(0, 0), Coord::new(0, 3), 2.0), // straight
                Comm::new(Coord::new(2, 3), Coord::new(0, 3), 2.0), // straight up
            ],
        );
        let model = PowerModel::kim_horowitz();
        for h in [&SimpleGreedy as &dyn Heuristic, &ImprovedGreedy] {
            let r = check_valid(h, &cs, &model);
            assert!(r.path(0).is_empty());
            assert_eq!(r.path(1).len(), 3);
            assert_eq!(r.path(2).len(), 2);
        }
    }

    #[test]
    fn dist_to_diagonal_zero_on_segment() {
        let src = Coord::new(0, 0);
        let snk = Coord::new(4, 4);
        assert_eq!(dist_to_diagonal(src, snk, Coord::new(2, 2)), 0);
        assert!(dist_to_diagonal(src, snk, Coord::new(2, 3)) > 0);
        assert_eq!(
            dist_to_diagonal(src, snk, Coord::new(1, 3)),
            dist_to_diagonal(src, snk, Coord::new(3, 1))
        );
    }
}
