//! The full-sweep Path-Remover: the differential oracle for the banded
//! implementation in [`crate::pr`].
//!
//! This is the §5.5 algorithm in its most literal form: after every link
//! removal the whole band is re-swept — forward reachability from the
//! source, backward reachability from the sink, one pass over every
//! diagonal group. It is deliberately kept simple and independent of the
//! banded fast path so that `tests/pr_differential.rs` can pin the two
//! implementations against each other: identical routings, identical
//! [`PrError`]s, byte-identical campaign reports. Both implementations are
//! compiled unconditionally (no `#[cfg]`), so the oracle is always
//! available to tests, benchmarks and
//! [`EngineConfig::REFERENCE`](crate::EngineConfig::REFERENCE).

use super::PrError;
use crate::comm::CommSet;
use crate::heuristic::Heuristic;
use crate::loadq::select_max;
use crate::routing::Routing;
use crate::scratch::{reset_flags, RouteScratch};
use pamr_mesh::{Band, Coord, LinkId, LoadMap, Mesh, Path, Step};
use pamr_power::PowerModel;

/// **PR (reference)** — the full-sweep Path-Remover oracle.
///
/// Produces bit-identical routings to [`crate::PathRemover`] (the banded
/// implementation) at a higher per-removal cost; see the module docs.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct ReferencePathRemover;

/// Per-communication removal state of the full-sweep implementation.
pub(super) struct RefComm {
    pub(super) band: Band,
    weight: f64,
    /// Aliveness aligned with `band.groups()`.
    pub(super) alive: Vec<Vec<bool>>,
    /// Current equal share per alive link, per group (`δ / alive_count`).
    share: Vec<f64>,
    /// True when every group retains exactly one link.
    pub(super) resolved: bool,
}

impl RefComm {
    pub(super) fn new(mesh: &Mesh, src: Coord, snk: Coord, weight: f64) -> Self {
        let band = Band::new(mesh, src, snk);
        let alive: Vec<Vec<bool>> = band.groups().map(|g| vec![true; g.len()]).collect();
        let share: Vec<f64> = band.groups().map(|g| weight / g.len() as f64).collect();
        let resolved = band.groups().all(|g| g.len() == 1);
        RefComm {
            band,
            weight,
            alive,
            share,
            resolved,
        }
    }

    /// Applies this communication's fractional load with sign `sign`.
    pub(super) fn apply_loads(&self, loads: &mut LoadMap, sign: f64) {
        for (t, g) in self.band.groups().enumerate() {
            let s = self.share[t] * sign;
            for (j, &l) in g.iter().enumerate() {
                if self.alive[t][j] {
                    loads.add(l, s);
                }
            }
        }
    }

    /// Removes link `(t_rm, j_rm)` and performs the paper's "path cleaning"
    /// and re-sharing with **full** forward/backward sweeps over the whole
    /// band, updating `loads` incrementally: only the links whose fractional
    /// contribution actually changed are touched (the removed link,
    /// newly-unreachable links, and the survivors of groups whose alive
    /// count shrank).
    ///
    /// `fwd` / `bwd` are reusable per-core reachability buffers; `ci` is
    /// the communication's index, used only to label [`PrError`]s.
    pub(super) fn remove_and_reshare(
        &mut self,
        mesh: &Mesh,
        ci: usize,
        (t_rm, j_rm): (usize, usize),
        loads: &mut LoadMap,
        fwd: &mut Vec<bool>,
        bwd: &mut Vec<bool>,
    ) -> Result<(), PrError> {
        // Subtract the removed link's current share and kill it.
        loads.add(self.band.group(t_rm)[j_rm], -self.share[t_rm]);
        self.alive[t_rm][j_rm] = false;

        // Forward reachability from the source, diagonal by diagonal.
        let n = mesh.num_cores();
        reset_flags(fwd, n);
        fwd[mesh.core_index(self.band.src())] = true;
        for (t, g) in self.band.groups().enumerate() {
            for (j, &l) in g.iter().enumerate() {
                if self.alive[t][j] {
                    let (from, to) = mesh.link_endpoints(l);
                    if fwd[mesh.core_index(from)] {
                        fwd[mesh.core_index(to)] = true;
                    }
                }
            }
        }
        // Backward reachability from the sink.
        reset_flags(bwd, n);
        bwd[mesh.core_index(self.band.snk())] = true;
        for (t, g) in self.band.groups().enumerate().rev() {
            for (j, &l) in g.iter().enumerate() {
                if self.alive[t][j] {
                    let (from, to) = mesh.link_endpoints(l);
                    if bwd[mesh.core_index(to)] {
                        bwd[mesh.core_index(from)] = true;
                    }
                }
            }
        }
        // A link is useful iff it is alive and joins a forward-reachable
        // core to a backward-reachable one. Re-share each changed group.
        self.resolved = true;
        for (t, g) in self.band.groups().enumerate() {
            let old_share = self.share[t];
            let mut count = 0usize;
            for (j, &l) in g.iter().enumerate() {
                if self.alive[t][j] {
                    let (from, to) = mesh.link_endpoints(l);
                    if fwd[mesh.core_index(from)] && bwd[mesh.core_index(to)] {
                        count += 1;
                    } else {
                        self.alive[t][j] = false;
                        loads.add(l, -old_share);
                    }
                }
            }
            // Checked in release too: dividing by a zero count would poison
            // the load map with NaN shares instead of failing loudly.
            if count == 0 {
                return Err(PrError::EmptiedGroup { comm: ci, group: t });
            }
            let new_share = self.weight / count as f64;
            // Exact comparison: an unchanged count reproduces the identical
            // quotient, so untouched groups skip the load updates entirely.
            if new_share != old_share {
                for (j, &l) in g.iter().enumerate() {
                    if self.alive[t][j] {
                        loads.add(l, new_share - old_share);
                    }
                }
                self.share[t] = new_share;
            }
            if count > 1 {
                self.resolved = false;
            }
        }
        Ok(())
    }

    /// Number of alive links in the group containing `link` and the link's
    /// position, if it is alive.
    fn locate(&self, mesh: &Mesh, link: LinkId) -> Option<(usize, usize, usize)> {
        if self.band.is_empty() {
            return None;
        }
        let (from, _) = mesh.link_endpoints(link);
        let k = mesh.diag_index(from, self.band.quadrant());
        let t = k.checked_sub(self.band.k_src())?;
        if t >= self.band.len() {
            return None;
        }
        let g = self.band.group(t);
        let j = g.iter().position(|&l| l == link)?;
        if !self.alive[t][j] {
            return None;
        }
        let count = self.alive[t].iter().filter(|&&a| a).count();
        Some((t, j, count))
    }

    /// Extracts the unique remaining path; `ci` labels errors. Fails with
    /// [`PrError::BrokenChain`] when the communication is not resolved or
    /// its surviving links do not connect source to sink.
    pub(super) fn final_path(&self, mesh: &Mesh, ci: usize) -> Result<Path, PrError> {
        if !self.resolved {
            return Err(PrError::BrokenChain { comm: ci });
        }
        let mut cur = self.band.src();
        let mut moves: Vec<Step> = Vec::with_capacity(self.band.len());
        for (t, g) in self.band.groups().enumerate() {
            let Some(j) = self.alive[t].iter().position(|&a| a) else {
                return Err(PrError::EmptiedGroup { comm: ci, group: t });
            };
            let link = g[j];
            let (from, to) = mesh.link_endpoints(link);
            if from != cur {
                return Err(PrError::BrokenChain { comm: ci });
            }
            moves.push(mesh.link_step(link));
            cur = to;
        }
        if cur != self.band.snk() {
            return Err(PrError::BrokenChain { comm: ci });
        }
        Ok(Path::from_moves(self.band.src(), moves))
    }
}

impl ReferencePathRemover {
    /// [`Heuristic::route_with`], but surfacing violated invariants as a
    /// structured [`PrError`] instead of panicking. The checks run in
    /// debug and release builds alike.
    pub fn try_route_with(
        &self,
        cs: &CommSet,
        _model: &PowerModel,
        scratch: &mut RouteScratch,
    ) -> Result<Routing, PrError> {
        let mesh = cs.mesh();
        let mut comms: Vec<RefComm> = cs
            .comms()
            .iter()
            .map(|c| RefComm::new(mesh, c.src, c.snk, c.weight))
            .collect();
        scratch.loads.fit(mesh);
        for c in &comms {
            c.apply_loads(&mut scratch.loads, 1.0);
        }
        // Which communications' bands contain each link (static superset,
        // built in reused buffers).
        let nslots = mesh.num_link_slots();
        scratch.users_fit(nslots);
        for (i, c) in comms.iter().enumerate() {
            for l in c.band.links() {
                scratch.users[l.index()].push(i);
            }
        }

        // Iteratively remove the most loaded link from the largest
        // removable communication crossing it.
        let mut unresolved = comms.iter().filter(|c| !c.resolved).count();
        while unresolved > 0 {
            scratch.active.clear();
            scratch.active.extend(scratch.loads.iter_active());
            let mut removed = false;
            let mut next = 0;
            // Lazily select links in decreasing-load order: a removal
            // usually happens within the first few, so the full sort the
            // paper's description implies is almost never needed.
            'links: while let Some((link, _)) = select_max(&mut scratch.active, next) {
                next += 1;
                // Candidate communications by decreasing weight.
                scratch.cands.clear();
                scratch.cands.extend(
                    scratch.users[link.index()]
                        .iter()
                        .copied()
                        .filter(|&i| !comms[i].resolved),
                );
                // total_cmp: same order as partial_cmp for these finite
                // positive weights, without the NaN panic path.
                scratch
                    .cands
                    .sort_by(|&a, &b| comms[b].weight.total_cmp(&comms[a].weight).then(a.cmp(&b)));
                for &i in &scratch.cands {
                    // Removable iff the link is alive for the communication
                    // and its group keeps another alive link (every alive
                    // link lies on some path after cleaning, so a sibling
                    // link guarantees a surviving path).
                    if let Some((t, j, count)) = comms[i].locate(mesh, link) {
                        if count >= 2 {
                            comms[i].remove_and_reshare(
                                mesh,
                                i,
                                (t, j),
                                &mut scratch.loads,
                                &mut scratch.fwd,
                                &mut scratch.bwd,
                            )?;
                            if comms[i].resolved {
                                unresolved -= 1;
                            }
                            removed = true;
                            break 'links;
                        }
                    }
                }
            }
            // An unresolved communication always has a removable link;
            // failing that is a structural error in both builds.
            if !removed {
                return Err(PrError::Stuck { unresolved });
            }
        }

        let paths = comms
            .iter()
            .enumerate()
            .map(|(i, c)| c.final_path(mesh, i))
            .collect::<Result<Vec<_>, _>>()?;
        Ok(Routing::single(cs, paths))
    }
}

impl Heuristic for ReferencePathRemover {
    fn name(&self) -> &'static str {
        "PR-ref"
    }

    fn route_with(&self, cs: &CommSet, model: &PowerModel, scratch: &mut RouteScratch) -> Routing {
        self.try_route_with(cs, model, scratch)
            // pamr-lint: allow(P001, reason = "documented escalation policy: a PrError here is an engine bug, and the infallible Heuristic interface has no error channel — callers wanting Result use try_route_with")
            .unwrap_or_else(|e| panic!("PR invariant violated: {e}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::comm::Comm;
    use pamr_mesh::Mesh;
    use pamr_power::PowerModel;

    #[test]
    fn emptied_group_is_a_structured_error_not_a_division() {
        // Regression: `remove_and_reshare` used to guard `weight / count`
        // with only a `debug_assert!`, so a release build would compute
        // `weight / 0` and spread NaN over the load map. Force the
        // condition by killing one of a group's two links behind the
        // cleaner's back, then removing the other.
        let mesh = Mesh::new(2, 2);
        let mut comm = RefComm::new(&mesh, Coord::new(0, 0), Coord::new(1, 1), 2.0);
        let mut loads = pamr_mesh::LoadMap::new(&mesh);
        comm.apply_loads(&mut loads, 1.0);
        comm.alive[1][1] = false;
        let (mut fwd, mut bwd) = (Vec::new(), Vec::new());
        let err = comm
            .remove_and_reshare(&mesh, 7, (1, 0), &mut loads, &mut fwd, &mut bwd)
            .unwrap_err();
        assert_eq!(err, PrError::EmptiedGroup { comm: 7, group: 0 });
        // The load map never saw a NaN share.
        assert!(loads.iter_active().all(|(_, l)| l.is_finite()));
    }

    #[test]
    fn unresolved_final_path_is_a_structured_error() {
        // Regression: `final_path` used to `unwrap` on an unresolved band
        // (both links of a group still alive), which the `!removed` early
        // break of the outer loop could reach in release builds.
        let mesh = Mesh::new(2, 2);
        let comm = RefComm::new(&mesh, Coord::new(0, 0), Coord::new(1, 1), 1.0);
        assert!(!comm.resolved);
        let err = comm.final_path(&mesh, 3).unwrap_err();
        assert_eq!(err, PrError::BrokenChain { comm: 3 });
    }

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
        let r = ReferencePathRemover.route(&cs, &model);
        let p = r.power(&cs, &model).unwrap().total();
        assert!(
            (p - 56.0).abs() < 1e-9,
            "reference PR should reach the 1-MP optimum 56, got {p}"
        );
    }
}
