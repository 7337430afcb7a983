//! The engines' reusable working memory.
//!
//! One §6 campaign trial routes the same instance with all six policies,
//! and a full campaign runs hundreds of thousands of trials. A
//! [`RouteScratch`] owns the live engines' buffers (the load accumulator,
//! crossing rows, selection indexes, per-link cursors and costs, PR's
//! per-route arenas) plus the attached precompute and cost ladder, so a
//! worker thread allocates once and reuses them for every subsequent trial
//! ([`Heuristic::route_with`]). The reference oracles keep their working
//! lists as locals and share only the load accumulator, which
//! [`RouteScratch::loads`] exposes for the differential suites to compare.
//!
//! [`Heuristic::route_with`]: crate::heuristic::Heuristic::route_with

use crate::comm::CommSet;
use crate::csr::CrossingIndex;
use crate::engine::EngineConfig;
use crate::loadq::MaxTree;
use crate::pr::PrArena;
use crate::precompute::{CostLadder, CustomizedInstance, MeshPrecompute};
use pamr_mesh::LoadMap;
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
    /// Link-load accumulator (sized per mesh by `LoadMap::fit`), the one
    /// buffer the reference oracles share with the engines.
    pub(crate) loads: LoadMap,
    /// Flat CSR crossing-comms index (banded PR, XYI), rebuilt per route
    /// in two counting passes with no per-link allocations.
    pub(crate) xusers: CrossingIndex,
    /// Per-link selection cursor into the link's `xusers` row (banded PR),
    /// reset on every route: the candidates before it were rejected, and a
    /// rejection lasts for the rest of the route.
    pub(crate) cursor: Vec<u32>,
    /// Per-link count of the communications that could give the link up
    /// (banded PR): the link is still alive for them and its diagonal group
    /// keeps at least one other alive link. A link whose count is 0 can
    /// never host a removal, so it is kept out of `top`.
    pub(crate) removable: Vec<u32>,
    /// The improvement loop's link index ([`MaxTree`]), rebuilt by every
    /// route call that uses it. Banded PR keys the loaded links with a
    /// non-zero `removable` count, so its top is the next removal's link.
    /// XYI keys its *pending* links, the loaded links a flip may still
    /// improve, so its top is the next link to evaluate.
    pub(crate) top: MaxTree,
    /// Banded PR's per-route arenas: the forward and backward row sets of
    /// one removal, and every communication's alive row masks, useful row
    /// sets, shares and alive counts, carved per route instead of
    /// allocated per communication.
    pub(crate) pr: PrArena,
    /// Flat per-group `(load bits, link)` keys of one communication's band,
    /// each group sorted ascending (indexed IG's min-load tail bound).
    pub(crate) ig_keys: Vec<(u64, u32)>,
    /// Group offsets into `ig_keys` (`len + 1` entries).
    pub(crate) ig_off: Vec<usize>,
    /// Aligned with `ig_keys`: each entry's precomputed surrogate cost at
    /// `load + weight` and its link endpoints (indexed IG).
    pub(crate) ig_info: Vec<(f64, pamr_mesh::Coord, pamr_mesh::Coord)>,
    /// Per link slot: the marginal surrogate cost of the communication TB
    /// is routing, written for its band links before its candidates are
    /// priced.
    pub(crate) marginals: Vec<f64>,
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

    /// The link-load accumulator as the last load-tracking `route_with`
    /// call through this scratch (SG, IG, TB, XYI, PR) left it: the loads
    /// the engine itself summed while it routed — for PR, the fractional
    /// loads after the final removal — not a recount from the returned
    /// [`Routing`](crate::Routing). It is the float state the engine's
    /// choices read, so comparing two scratches' accumulators bit for bit
    /// checks more than comparing their routings. The next such call
    /// overwrites it.
    pub fn loads(&self) -> &LoadMap {
        &self.loads
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
        let _sg = crate::greedy::SimpleGreedy.route_with(&b, &model, &mut scratch);
        let pr2 = crate::pr::PathRemover.route_with(&a, &model, &mut scratch);
        assert_eq!(pr1.loads(&a), pr2.loads(&a));
    }
}
