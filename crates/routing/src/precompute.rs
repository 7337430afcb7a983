//! The two-phase **precompute / customize** split (beyond the paper).
//!
//! Every §6 campaign trial used to rebuild the §3.3 [`Band`] of each
//! communication: its diagonal link groups (IG's ideal-sharing pass and
//! tail bound, PR's staircase) and its per-diagonal row ranges (the bit
//! offsets of PR's reachability row sets). A band depends only on the mesh
//! and the `(src, snk)` endpoint pair, not on the communication *weights*,
//! so — following the metric-independent / metric-customization split of
//! customizable contraction hierarchies — the engines now consume it from
//! two phases:
//!
//! 1. **Precompute** ([`MeshPrecompute`]): per-mesh state built once and
//!    shared — an interner mapping each `(src, snk)` pair to one
//!    `Arc<Band>`, so every trial, heuristic and
//!    [`crate::session::RoutingSession`] touching the same endpoint pair
//!    shares one allocation.
//! 2. **Customize** ([`MeshPrecompute::customize`]): a cheap
//!    weight-dependent pass per [`CommSet`] that resolves each
//!    communication's band and the decreasing-weight processing order
//!    into a [`CustomizedInstance`].
//!
//! The engines reach both through their [`crate::RouteScratch`], so the
//! `Heuristic::route_with` signature is unchanged; a scratch with no
//! attached precompute lazily builds one for the mesh it sees.
//!
//! **Bit-identity.** An interned band is [`Band::new`] of its pair, and the
//! engines have no other input path. The reference oracles
//! (`EngineConfig::REFERENCE`) rebuild every band and evaluate the power
//! fit on every query, so the PR, XYI and scaling differential suites
//! meet every cached value with a literal rebuild: identical routings,
//! bit-identical loads, and byte-identical seeded §6.4 campaign reports.
//! `tests/precompute_differential.rs` routes warm scratches and campaigns
//! against cold ones.
//!
//! ```
//! use pamr_routing::{MeshPrecompute, Comm, CommSet};
//! use pamr_mesh::{Coord, Mesh};
//! use std::sync::Arc;
//!
//! let mesh = Mesh::new(4, 4);
//! let pre = MeshPrecompute::new(mesh);
//!
//! // Interned bands: same (src, snk) ⇒ same allocation.
//! let a = pre.band(Coord::new(0, 0), Coord::new(2, 3));
//! let b = pre.band(Coord::new(0, 0), Coord::new(2, 3));
//! assert!(Arc::ptr_eq(&a, &b));
//! assert_eq!(a.len(), 5);
//!
//! // The cheap weight-dependent phase: per-comm bands + processing order.
//! let cs = CommSet::new(
//!     mesh,
//!     vec![
//!         Comm::new(Coord::new(0, 0), Coord::new(2, 3), 1.0),
//!         Comm::new(Coord::new(3, 0), Coord::new(0, 3), 2.0),
//!     ],
//! );
//! let cust = pre.customize(&cs);
//! assert!(Arc::ptr_eq(cust.band(0), &a));
//! assert_eq!(cust.by_weight(), [1, 0]); // heaviest first
//! ```

use crate::comm::{Comm, CommSet, SortOrder};
use crate::heuristic::SURROGATE_PENALTY;
use pamr_mesh::{Band, Coord, Mesh};
use pamr_power::model::CAPACITY_EPS;
use pamr_power::{FrequencyScale, PowerModel};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, PoisonError, RwLock};

/// Phase-one state of one mesh: the band interner. Built once per mesh
/// (per sweep point, per server) and shared via `Arc` clones; all methods
/// take `&self`, so one instance serves every campaign worker thread
/// concurrently.
#[derive(Debug)]
pub struct MeshPrecompute {
    mesh: Mesh,
    /// The `(src, snk) → band` interner. Ordered map: never iterated on
    /// a report path today, but the interner is shared across sessions and
    /// an ordered debug dump costs nothing here (lookups dominate).
    bands: RwLock<BTreeMap<(Coord, Coord), Arc<Band>>>,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl MeshPrecompute {
    /// An empty interner for `mesh`: bands are built lazily on first use.
    pub fn new(mesh: Mesh) -> MeshPrecompute {
        MeshPrecompute {
            mesh,
            bands: RwLock::new(BTreeMap::new()),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        }
    }

    /// The mesh this precompute describes.
    pub fn mesh(&self) -> &Mesh {
        &self.mesh
    }

    /// The interned band of one endpoint pair: returns the shared
    /// allocation, building it on first request.
    ///
    /// Concurrent callers of a fresh pair may race to build it; the first
    /// insert wins and the content is deterministic either way.
    pub fn band(&self, src: Coord, snk: Coord) -> Arc<Band> {
        // A poisoned interner lock is recoverable: the map only ever holds
        // fully-built immutable bands (the insert below is the sole write,
        // and it cannot leave a partial entry), so a panic elsewhere does
        // not invalidate the cache.
        let bands = self.bands.read().unwrap_or_else(PoisonError::into_inner);
        if let Some(b) = bands.get(&(src, snk)) {
            self.hits.fetch_add(1, Ordering::Relaxed);
            return Arc::clone(b);
        }
        drop(bands);
        self.misses.fetch_add(1, Ordering::Relaxed);
        let built = Arc::new(Band::new(&self.mesh, src, snk));
        let mut map = self.bands.write().unwrap_or_else(PoisonError::into_inner);
        Arc::clone(map.entry((src, snk)).or_insert(built))
    }

    /// Phase two: resolves a weighted instance against the interner —
    /// per-communication bands plus the decreasing-weight processing
    /// order. Cheap relative to routing: one interner lookup per
    /// communication and one sort.
    pub fn customize(&self, cs: &CommSet) -> CustomizedInstance {
        assert_eq!(
            *cs.mesh(),
            self.mesh,
            "customize called with a CommSet from a different mesh"
        );
        // One read-lock pass resolves every already-interned pair (the
        // steady state of a campaign), with the hit counter batched;
        // only absent pairs fall back to the per-pair build path.
        let mut bands: Vec<Option<Arc<Band>>> = Vec::with_capacity(cs.len());
        {
            let map = self.bands.read().unwrap_or_else(PoisonError::into_inner);
            bands.extend(cs.comms().iter().map(|c| map.get(&(c.src, c.snk)).cloned()));
        }
        let hits = bands.iter().filter(|b| b.is_some()).count() as u64;
        if hits > 0 {
            self.hits.fetch_add(hits, Ordering::Relaxed);
        }
        let bands = bands
            .into_iter()
            .zip(cs.comms())
            .map(|(b, c)| b.unwrap_or_else(|| self.band(c.src, c.snk)))
            .collect();
        CustomizedInstance {
            mesh: self.mesh,
            comms: cs.comms().to_vec(),
            bands,
            by_weight: cs.by_order(SortOrder::DecreasingWeight),
        }
    }

    /// Interner statistics: `(hits, misses)` of [`band`](Self::band) so
    /// far. Misses bound the number of distinct pairs seen.
    pub fn cache_stats(&self) -> (u64, u64) {
        (
            self.hits.load(Ordering::Relaxed),
            self.misses.load(Ordering::Relaxed),
        )
    }
}

/// The metric-dependent half of customization: under a **discrete**
/// frequency-scaled model the surrogate link cost takes only one value per
/// frequency level, so the engines and the session's bounded repair
/// evaluate the power fit once per level up front and answer each cost
/// query with a level lookup instead of a `powf`.
///
/// Every stored power is [`surrogate_link_cost`]'s own expression evaluated
/// once, and the level search replicates the model's capacity slack, so
/// [`cost`](Self::cost) is **bit-identical** to calling the model — the
/// reference oracles never consult the ladder, and the differential oracle
/// pins the equivalence.
///
/// ```
/// use pamr_power::PowerModel;
/// use pamr_routing::{surrogate_link_cost, CostLadder};
///
/// let model = PowerModel::kim_horowitz();
/// let ladder = CostLadder::new(&model).expect("kim-horowitz is discrete");
/// // Bit-identical across idle, in-level, boundary and overload loads.
/// for load in [0.0, 1.0, 999.9, 1000.0, 2600.0, 3500.0, 9000.0] {
///     assert_eq!(
///         ladder.cost(load).to_bits(),
///         surrogate_link_cost(&model, load).to_bits(),
///     );
/// }
/// // Continuous models have no finite level set to tabulate.
/// assert!(CostLadder::new(&PowerModel::theory(3.0)).is_none());
/// ```
///
/// [`surrogate_link_cost`]: crate::heuristic::surrogate_link_cost
#[derive(Debug, Clone)]
pub struct CostLadder {
    /// The tabulated model — kept whole both as the validity fingerprint
    /// ([`matches`](Self::matches)) and for the overload penalty's
    /// capacity term.
    model: PowerModel,
    /// Ascending `(level, power)` pairs: the precomputed
    /// `P_leak + P_0 · (level · load_unit)^α` of each frequency level.
    steps: Vec<(f64, f64)>,
    /// The capacity slack of the model's level search
    /// (`capacity · CAPACITY_EPS`).
    slack: f64,
}

impl CostLadder {
    /// Tabulates `model`'s per-level link powers; `None` for continuous
    /// scaling, where the cost is a genuine function of the load and the
    /// callers keep evaluating the fit per query.
    pub fn new(model: &PowerModel) -> Option<CostLadder> {
        let FrequencyScale::Discrete(levels) = &model.scale else {
            return None;
        };
        let steps = levels
            .iter()
            .map(|&lv| {
                let p = model.p_leak + model.p0 * (lv * model.load_unit).powf(model.alpha);
                (lv, p)
            })
            .collect();
        Some(CostLadder {
            slack: model.capacity * CAPACITY_EPS,
            steps,
            model: model.clone(),
        })
    }

    /// Does the ladder tabulate exactly `model`?
    pub fn matches(&self, model: &PowerModel) -> bool {
        self.model == *model
    }

    /// The surrogate cost of one link carrying `load` — bit-identical to
    /// [`surrogate_link_cost`](crate::heuristic::surrogate_link_cost) on
    /// the tabulated model.
    #[inline]
    pub fn cost(&self, load: f64) -> f64 {
        // Mirrors surrogate_link_cost exactly: clamp the epsilon-negative
        // hypothetical loads, idle links are free, then the model's own
        // smallest-level-that-fits search with its capacity slack.
        let load = load.max(0.0);
        if load == 0.0 {
            return 0.0;
        }
        for &(lv, p) in &self.steps {
            if load <= lv + self.slack {
                return p;
            }
        }
        SURROGATE_PENALTY * (1.0 + load / self.model.capacity)
    }
}

/// The output of the weight-dependent customize phase: one routed
/// instance's bands and its decreasing-weight processing order (the one
/// order cached; TB sorts the ablation's other orders itself), ready for
/// the engines. Validated
/// against the `CommSet` it was built from (see [`matches`](Self::matches)),
/// so a stale instance is never consumed.
#[derive(Debug, Clone)]
pub struct CustomizedInstance {
    mesh: Mesh,
    comms: Vec<Comm>,
    bands: Vec<Arc<Band>>,
    by_weight: Vec<usize>,
}

impl CustomizedInstance {
    /// Does this instance describe exactly `cs`? (Same mesh, same
    /// communications in the same order.)
    pub fn matches(&self, cs: &CommSet) -> bool {
        self.mesh == *cs.mesh() && self.comms.as_slice() == cs.comms()
    }

    /// Number of communications.
    pub fn len(&self) -> usize {
        self.comms.len()
    }

    /// Is the instance empty?
    pub fn is_empty(&self) -> bool {
        self.comms.is_empty()
    }

    /// The band of communication `i` (same indexing as the `CommSet`).
    pub fn band(&self, i: usize) -> &Arc<Band> {
        &self.bands[i]
    }

    /// All per-communication bands, in `CommSet` order.
    pub fn bands(&self) -> &[Arc<Band>] {
        &self.bands
    }

    /// Communication indices in decreasing-weight order (ties by index) —
    /// bit-identical to [`CommSet::by_order`] with
    /// [`SortOrder::DecreasingWeight`], because it *is* that call's
    /// cached result.
    pub fn by_weight(&self) -> &[usize] {
        &self.by_weight
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mesh() -> Mesh {
        Mesh::new(5, 6)
    }

    #[test]
    fn bands_are_interned() {
        let pre = MeshPrecompute::new(mesh());
        let (src, snk) = (Coord::new(0, 1), Coord::new(3, 4));
        let a = pre.band(src, snk);
        let b = pre.band(src, snk);
        assert!(Arc::ptr_eq(&a, &b), "same pair must share one allocation");
        // The reverse pair is a different band.
        let c = pre.band(snk, src);
        assert!(!Arc::ptr_eq(&a, &c));
        let (hits, misses) = pre.cache_stats();
        assert_eq!((hits, misses), (1, 2));
    }

    #[test]
    fn tables_equal_the_rebuilt_values() {
        let m = mesh();
        let pre = MeshPrecompute::new(m);
        for (src, snk) in [
            (Coord::new(0, 0), Coord::new(4, 5)), // corner to corner
            (Coord::new(2, 3), Coord::new(2, 3)), // local
            (Coord::new(1, 4), Coord::new(1, 0)), // straight, leftwards
            (Coord::new(4, 0), Coord::new(0, 5)), // up-right quadrant
        ] {
            let cached = pre.band(src, snk);
            let fresh = Band::new(&m, src, snk);
            assert_eq!((cached.src(), cached.snk()), (src, snk));
            assert_eq!(cached.quadrant(), fresh.quadrant());
            assert_eq!(cached.k_src(), fresh.k_src());
            assert_eq!(cached.len(), fresh.len());
            for t in 0..fresh.len() {
                assert_eq!(cached.group(t), fresh.group(t), "({src},{snk}) t={t}");
                assert_eq!(
                    cached.row_offsets(t),
                    fresh.row_offsets(t),
                    "({src},{snk}) t={t}"
                );
            }
            for t in 0..=fresh.len() {
                assert_eq!(
                    cached.diag_rows(t),
                    fresh.diag_rows(t),
                    "({src},{snk}) t={t}"
                );
            }
        }
    }

    #[test]
    fn customize_resolves_tables_and_order() {
        let m = mesh();
        let pre = MeshPrecompute::new(m);
        let cs = CommSet::new(
            m,
            vec![
                Comm::new(Coord::new(0, 0), Coord::new(2, 2), 1.0),
                Comm::new(Coord::new(0, 0), Coord::new(2, 2), 3.0),
                Comm::new(Coord::new(4, 4), Coord::new(0, 1), 2.0),
            ],
        );
        let cust = pre.customize(&cs);
        assert!(cust.matches(&cs));
        assert_eq!(cust.len(), 3);
        // Identical endpoints intern to the same allocation even within
        // one instance.
        assert!(Arc::ptr_eq(cust.band(0), cust.band(1)));
        assert!(!Arc::ptr_eq(cust.band(0), cust.band(2)));
        // The cached order is CommSet::by_order's result, verbatim.
        assert_eq!(cust.by_weight(), cs.by_order(SortOrder::DecreasingWeight));
        // A different instance does not match.
        let other = CommSet::new(m, vec![Comm::new(Coord::new(0, 0), Coord::new(2, 2), 1.0)]);
        assert!(!cust.matches(&other));
    }

    #[test]
    fn cost_ladder_is_bit_identical_to_the_power_fit() {
        use crate::heuristic::surrogate_link_cost;
        let model = PowerModel::kim_horowitz();
        let ladder = CostLadder::new(&model).expect("discrete model");
        assert!(ladder.matches(&model));
        // Dense sweep over the feasible range, the level boundaries (and
        // their epsilon neighbourhoods), zero and overloads.
        let mut loads: Vec<f64> = (0..=40_000).map(|i| i as f64 * 0.1).collect();
        for lv in [1000.0, 2500.0, 3500.0] {
            loads.extend([lv - 1e-9, lv, lv + 1e-9, lv + 1e-3]);
        }
        loads.extend([-1e-12, 0.0, f64::MIN_POSITIVE]);
        for load in loads {
            assert_eq!(
                ladder.cost(load).to_bits(),
                surrogate_link_cost(&model, load).to_bits(),
                "ladder diverged from the model at load {load}"
            );
        }
        // A different model is rejected by the fingerprint, and continuous
        // scaling has no ladder.
        assert!(!ladder.matches(&PowerModel::kim_horowitz_continuous()));
        assert!(CostLadder::new(&PowerModel::fig2()).is_none());
    }
}
