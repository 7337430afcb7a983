//! Reusable buffers for the heuristics' hot paths.
//!
//! One §6 campaign trial routes the same instance with all six policies,
//! and a full campaign runs hundreds of thousands of trials. Before this
//! module every `route` call allocated its own [`LoadMap`], sorted-link
//! lists, reachability flags and per-link user tables; a [`RouteScratch`]
//! owns those buffers instead, so a worker thread allocates once and reuses
//! them for every subsequent trial ([`Heuristic::route_with`]).
//!
//! [`Heuristic::route_with`]: crate::heuristic::Heuristic::route_with

use crate::comm::CommSet;
use crate::csr::CrossingIndex;
use crate::engine::EngineConfig;
use crate::loadq::LoadQueue;
use crate::precompute::{CostLadder, CustomizedInstance, MeshPrecompute};
use pamr_mesh::{LinkId, LoadMap};
use pamr_power::PowerModel;
use std::sync::Arc;

/// Reusable working memory for [`Heuristic::route_with`].
///
/// Buffers grow to the largest mesh/instance seen and stay allocated. A
/// scratch carries **no result-bearing state between calls** — every
/// heuristic fully re-initialises what it uses, so routing through a
/// reused scratch is bit-identical to routing through a fresh one. The one
/// thing deliberately carried across calls is the attached
/// [`MeshPrecompute`] and its per-instance [`CustomizedInstance`]: those
/// cache pure functions of `(mesh, src, snk)` — values the oracles rebuild
/// to the same bits on every call — so reuse affects speed only (pinned by
/// `tests/precompute_differential.rs`).
///
/// [`Heuristic::route_with`]: crate::heuristic::Heuristic::route_with
#[derive(Debug, Default)]
pub struct RouteScratch {
    /// Link-load accumulator (sized per mesh by `LoadMap::fit`).
    pub(crate) loads: LoadMap,
    /// Sorted `(link, load)` working list (the reference oracles'
    /// `select_max` loaded-link scan).
    pub(crate) active: Vec<(LinkId, f64)>,
    /// Forward-reachability flags, one per core (PR's path cleaning).
    pub(crate) fwd: Vec<bool>,
    /// Backward-reachability flags, one per core (PR's path cleaning).
    pub(crate) bwd: Vec<bool>,
    /// Per-link list of communications whose band contains the link —
    /// the PR oracle's table. The optimized engines use the flat
    /// [`CrossingIndex`] in `xusers` instead; the oracle keeps its own
    /// Vec-of-Vec representation so it shares no index with the engine it
    /// checks.
    pub(crate) users: Vec<Vec<usize>>,
    /// Flat CSR crossing-comms index — the optimized engines' counterpart
    /// of `users` (banded PR, queued XYI), rebuilt per route in two
    /// counting passes with no per-link allocations.
    pub(crate) xusers: CrossingIndex,
    /// Candidate-communication index buffer (PR's per-link scan).
    pub(crate) cands: Vec<usize>,
    /// Per-link count of *unresolved* communications whose band contains
    /// the link (banded PR): links with no unresolved user can never host a
    /// removal, so the loaded-link scan skips them wholesale.
    pub(crate) live_users: Vec<u32>,
    /// Shared loaded-link priority queue ([`LoadQueue`]): the banded PR
    /// keys it to the links with unresolved users, queue-driven XYI to
    /// every loaded link. Its descending order is exactly the
    /// [`select_max`](crate::loadq::select_max) order.
    pub(crate) queue: LoadQueue,
    /// Per-diagonal forward reachable-interval run (banded PR): the row
    /// intervals recomputed downstream of a removed link.
    pub(crate) fwd_iv: Vec<(usize, usize)>,
    /// Per-diagonal backward reachable-interval run (banded PR).
    pub(crate) bwd_iv: Vec<(usize, usize)>,
    /// Row-coverage marks for one diagonal (banded PR's contiguity check).
    pub(crate) rows: Vec<bool>,
    /// Flat per-group `(load bits, link)` keys of one communication's band,
    /// each group sorted ascending (indexed IG's min-load tail bound).
    pub(crate) ig_keys: Vec<(u64, u32)>,
    /// Group offsets into `ig_keys` (`len + 1` entries).
    pub(crate) ig_off: Vec<usize>,
    /// Aligned with `ig_keys`: each entry's precomputed surrogate cost at
    /// `load + weight` and its link endpoints (indexed IG).
    pub(crate) ig_info: Vec<(f64, pamr_mesh::Coord, pamr_mesh::Coord)>,
    /// The attached phase-one precompute (shared across trials /
    /// sessions); lazily created for the mesh in use when absent.
    pub(crate) pre: Option<Arc<MeshPrecompute>>,
    /// The phase-two customization of the most recent instance, revalidated
    /// (and rebuilt when stale) by [`ensure_customized`](Self::ensure_customized).
    pub(crate) cust: Option<Arc<CustomizedInstance>>,
    /// The metric-dependent customization: the per-level [`CostLadder`] of
    /// the most recent (discrete) power model, revalidated by
    /// [`ensure_ladder`](Self::ensure_ladder).
    pub(crate) ladder: Option<CostLadder>,
    /// The engine selection every `route_with` call through this scratch
    /// dispatches on ([`EngineConfig::LIVE`] by default).
    pub(crate) engine: EngineConfig,
}

impl RouteScratch {
    /// A new, empty scratch on the optimized engines
    /// ([`EngineConfig::LIVE`]). Buffers are grown on first use; use
    /// [`RouteScratch::with_engine`] to select another [`EngineConfig`].
    pub fn new() -> Self {
        RouteScratch::default()
    }

    /// A new, empty scratch pinned to an explicit engine selection.
    pub fn with_engine(engine: EngineConfig) -> Self {
        RouteScratch {
            engine,
            ..RouteScratch::default()
        }
    }

    /// The engine selection `route_with` calls through this scratch use.
    pub fn engine(&self) -> EngineConfig {
        self.engine
    }

    /// Attaches a shared phase-one precompute, replacing any previously
    /// attached one (and invalidating its customization). Campaign workers
    /// and [`crate::session::RoutingSession`]s call this so every trial /
    /// request shares one interner; a scratch without an attachment builds
    /// its own on first use.
    pub fn attach_precompute(&mut self, pre: Arc<MeshPrecompute>) {
        if self.pre.as_ref().is_none_or(|p| !Arc::ptr_eq(p, &pre)) {
            self.pre = Some(pre);
            self.cust = None;
        }
    }

    /// The customization of exactly `cs`, building the precompute and/or
    /// customization as needed. Shared, so an engine can hold it while it
    /// mutates this scratch's buffers.
    pub(crate) fn ensure_customized(&mut self, cs: &CommSet) -> Arc<CustomizedInstance> {
        if self.pre.as_ref().is_none_or(|p| p.mesh() != cs.mesh()) {
            // Unattached scratch, or one recycled onto a different mesh:
            // build a private precompute for the mesh actually in use.
            self.pre = Some(Arc::new(MeshPrecompute::new(*cs.mesh())));
            self.cust = None;
        }
        let pre = self.pre.as_ref().expect("attached above");
        match &self.cust {
            Some(c) if c.matches(cs) => Arc::clone(c),
            _ => Arc::clone(self.cust.insert(Arc::new(pre.customize(cs)))),
        }
    }

    /// Ensures `self.ladder` tabulates exactly `model`, rebuilding it when
    /// the model changed. It is `None` for a continuous model (nothing to
    /// tabulate): the engines then evaluate the power fit per query.
    pub(crate) fn ensure_ladder(&mut self, model: &PowerModel) {
        if !self.ladder.as_ref().is_some_and(|l| l.matches(model)) {
            self.ladder = CostLadder::new(model);
        }
    }

    /// Resets the per-link `users` table to `n_slots` empty lists, keeping
    /// every inner allocation (the PR oracle re-keys it on every route).
    pub(crate) fn users_fit(&mut self, n_slots: usize) {
        for v in self.users.iter_mut() {
            v.clear();
        }
        if self.users.len() < n_slots {
            self.users.resize_with(n_slots, Vec::new);
        }
    }
}

/// Resets a flag buffer to `n` `false` entries, keeping its allocation.
pub(crate) fn reset_flags(buf: &mut Vec<bool>, n: usize) {
    buf.clear();
    buf.resize(n, false);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::comm::{Comm, CommSet};
    use crate::heuristic::{Heuristic, HeuristicKind};
    use pamr_mesh::{Coord, Mesh};
    use pamr_power::PowerModel;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    fn random_instance(mesh: Mesh, n: usize, seed: u64) -> CommSet {
        let mut rng = SmallRng::seed_from_u64(seed);
        let (p, q) = (mesh.rows(), mesh.cols());
        let comms = (0..n)
            .map(|_| {
                let a = Coord::new(rng.gen_range(0..p), rng.gen_range(0..q));
                let b = Coord::new(rng.gen_range(0..p), rng.gen_range(0..q));
                Comm::new(a, b, rng.gen_range(100.0..2500.0))
            })
            .collect();
        CommSet::new(mesh, comms)
    }

    #[test]
    fn reused_scratch_is_bit_identical_to_fresh() {
        let model = PowerModel::kim_horowitz();
        let mut scratch = RouteScratch::new();
        for seed in 0..8u64 {
            // Alternate mesh sizes so buffers must re-fit between calls.
            let mesh = if seed % 2 == 0 {
                Mesh::new(8, 8)
            } else {
                Mesh::new(5, 6)
            };
            let cs = random_instance(mesh, 12 + seed as usize, seed);
            for kind in HeuristicKind::ALL {
                let fresh = kind.route(&cs, &model);
                let reused = kind.route_with(&cs, &model, &mut scratch);
                assert_eq!(
                    fresh.loads(&cs),
                    reused.loads(&cs),
                    "seed {seed}: {kind} differs between fresh and reused scratch"
                );
            }
        }
    }

    #[test]
    fn scratch_usable_across_heuristics_interleaved() {
        let mesh = Mesh::new(6, 6);
        let model = PowerModel::kim_horowitz();
        let mut scratch = RouteScratch::new();
        let a = random_instance(mesh, 20, 3);
        let b = random_instance(mesh, 4, 4);
        // PR (uses every buffer) then SG (uses only loads) then PR again.
        let pr1 = crate::pr::PathRemover.route_with(&a, &model, &mut scratch);
        let _sg = crate::greedy::SimpleGreedy::default().route_with(&b, &model, &mut scratch);
        let pr2 = crate::pr::PathRemover.route_with(&a, &model, &mut scratch);
        assert_eq!(pr1.loads(&a), pr2.loads(&a));
    }

    #[test]
    fn reset_flags_clears_previous_state() {
        let mut buf = vec![true; 10];
        reset_flags(&mut buf, 4);
        assert_eq!(buf, vec![false; 4]);
        reset_flags(&mut buf, 12);
        assert_eq!(buf.len(), 12);
        assert!(buf.iter().all(|&b| !b));
    }
}
