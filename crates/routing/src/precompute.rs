//! The two-phase **precompute / customize** split (beyond the paper).
//!
//! Every §6 campaign trial used to rebuild structures that depend only on
//! the mesh topology and the `(src, snk)` endpoint pair: [`Band`] geometry
//! (IG's ideal-sharing pass, PR's staircase), the per-diagonal row ranges
//! PR's banded reachability row sets are laid over, and the XY seed paths
//! XYI improves. None of that depends on the communication *weights*, so —
//! following the metric-independent / metric-customization split of
//! customizable contraction hierarchies — the engines now consume it from
//! two phases:
//!
//! 1. **Precompute** ([`MeshPrecompute`]): per-mesh state built once and
//!    shared — a flat CSR-style out-link adjacency, plus an interner of
//!    per-`(src, snk)` [`EndpointTables`] (band, diagonal row ranges, XY
//!    seed path) behind `Arc`s, so every trial, heuristic and
//!    [`crate::session::RoutingSession`] touching the same endpoint pair
//!    shares one allocation.
//! 2. **Customize** ([`MeshPrecompute::customize`]): a cheap
//!    weight-dependent pass per [`CommSet`] that resolves each
//!    communication's tables and the decreasing-weight processing order
//!    into a [`CustomizedInstance`].
//!
//! The engines reach both through their [`crate::RouteScratch`], so the
//! `Heuristic::route_with` signature is unchanged; a scratch with no
//! attached precompute lazily builds one for the mesh it sees.
//!
//! **Bit-identity.** Cached tables are pure functions of `(mesh, src,
//! snk)`, and the engines have no other input path. The reference oracles
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
//! // Interned endpoint tables: same (src, snk) ⇒ same allocation.
//! let a = pre.endpoint_tables(Coord::new(0, 0), Coord::new(2, 3));
//! let b = pre.endpoint_tables(Coord::new(0, 0), Coord::new(2, 3));
//! assert!(Arc::ptr_eq(&a, &b));
//!
//! // The cheap weight-dependent phase: per-comm tables + processing order.
//! let cs = CommSet::new(
//!     mesh,
//!     vec![
//!         Comm::new(Coord::new(0, 0), Coord::new(2, 3), 1.0),
//!         Comm::new(Coord::new(3, 0), Coord::new(0, 3), 2.0),
//!     ],
//! );
//! let cust = pre.customize(&cs);
//! assert!(Arc::ptr_eq(cust.table(0), &a));
//! assert_eq!(cust.by_weight(), [1, 0]); // heaviest first
//! ```

use crate::comm::{Comm, CommSet, SortOrder};
use crate::heuristic::SURROGATE_PENALTY;
use pamr_mesh::{Band, Coord, LinkId, Mesh, Path, Step};
use pamr_power::model::CAPACITY_EPS;
use pamr_power::{FrequencyScale, PowerModel};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, PoisonError, RwLock};

/// The metric-independent tables of one `(src, snk)` endpoint pair:
/// everything the engines need that does not depend on communication
/// weights.
///
/// Interned by [`MeshPrecompute::endpoint_tables`] behind an `Arc`, so
/// the thousands of trials of a campaign sweep point (and the requests of
/// a `pamr serve` session) share one allocation per distinct pair.
#[derive(Debug, Clone)]
pub struct EndpointTables {
    src: Coord,
    snk: Coord,
    /// The staircase band (§3.3): per-diagonal useful-link groups.
    band: Arc<Band>,
    /// Per-diagonal inclusive row ranges, indexed by the band-relative
    /// diagonal `t ∈ 0..=band.len()` — the bit offsets of PR's banded
    /// reachability row sets ([`Band::diag_rows`] values).
    diag_rows: Arc<Vec<(usize, usize)>>,
    /// The XY (row-first) seed path XYI starts from.
    xy: Path,
    /// Flat IG support: every band link as `(link, endpoint, endpoint)`,
    /// group-major with links **id-ascending within each group**, so the
    /// flat position is a drop-in tie-breaker for the `(load bits, link
    /// id)` sort key and the endpoints need no per-trial mesh lookups.
    ig_flat: Vec<(LinkId, Coord, Coord)>,
    /// Group offsets into `ig_flat` (`band.len() + 1` entries).
    ig_off: Vec<u32>,
    /// Per-group `group.len() as f64` — the Figure 3 ideal-share divisor,
    /// converted once.
    ig_div: Vec<f64>,
}

impl EndpointTables {
    /// Computes the tables from scratch — exactly the values the reference
    /// oracles rebuild per call, which is what makes caching them
    /// bit-transparent.
    pub fn build(mesh: &Mesh, src: Coord, snk: Coord) -> EndpointTables {
        let band = Band::new(mesh, src, snk);
        let diag_rows = (0..=band.len()).map(|t| band.diag_rows(t)).collect();
        let mut ig_flat = Vec::new();
        let mut ig_off = Vec::with_capacity(band.len() + 1);
        let mut ig_div = Vec::with_capacity(band.len());
        ig_off.push(0u32);
        for g in band.groups() {
            let mut ids = g.to_vec();
            ids.sort_unstable();
            ig_flat.extend(ids.into_iter().map(|l| {
                let (a, b) = mesh.link_endpoints(l);
                (l, a, b)
            }));
            ig_off.push(ig_flat.len() as u32);
            ig_div.push(g.len() as f64);
        }
        EndpointTables {
            src,
            snk,
            band: Arc::new(band),
            diag_rows: Arc::new(diag_rows),
            xy: Path::xy(src, snk),
            ig_flat,
            ig_off,
            ig_div,
        }
    }

    /// The source core.
    pub fn src(&self) -> Coord {
        self.src
    }

    /// The sink core.
    pub fn snk(&self) -> Coord {
        self.snk
    }

    /// The staircase band of the pair.
    pub fn band(&self) -> &Band {
        &self.band
    }

    /// The band behind its shared handle (cloned by PR's per-comm state).
    pub fn band_arc(&self) -> &Arc<Band> {
        &self.band
    }

    /// Per-diagonal inclusive `(low, high)` row ranges,
    /// `diag_rows()[t]` = [`Band::diag_rows`]`(t)`.
    pub fn diag_rows(&self) -> &[(usize, usize)] {
        &self.diag_rows
    }

    /// The row ranges behind their shared handle.
    pub fn diag_rows_arc(&self) -> &Arc<Vec<(usize, usize)>> {
        &self.diag_rows
    }

    /// The XY (row-first) path of the pair — the seed every improvement
    /// engine starts from.
    pub fn xy(&self) -> &Path {
        &self.xy
    }

    /// Group `t`'s links as flat `(link, endpoint, endpoint)` entries,
    /// **id-ascending** (the [`Band::group`] slice re-sorted once at build
    /// time; same set of links, different order).
    pub fn ig_group(&self, t: usize) -> &[(LinkId, Coord, Coord)] {
        &self.ig_flat[self.ig_off[t] as usize..self.ig_off[t + 1] as usize]
    }

    /// Flat offset of group `t`'s first [`ig_group`](Self::ig_group) entry.
    pub fn ig_group_start(&self, t: usize) -> u32 {
        self.ig_off[t]
    }

    /// The whole flat link array, group-major ([`ig_group`](Self::ig_group)
    /// concatenated).
    pub fn ig_flat(&self) -> &[(LinkId, Coord, Coord)] {
        &self.ig_flat
    }

    /// Group `t`'s size as `f64` — exactly `band.group(t).len() as f64`,
    /// the ideal-share divisor of Figure 3.
    pub fn ig_div(&self, t: usize) -> f64 {
        self.ig_div[t]
    }
}

/// Phase-one state of one mesh: flat CSR link adjacency plus the
/// endpoint-tables interner. Built once per mesh (per sweep point, per
/// server) and shared via `Arc` clones; all methods take `&self`, so one
/// instance serves every campaign worker thread concurrently.
#[derive(Debug)]
pub struct MeshPrecompute {
    mesh: Mesh,
    /// CSR offsets: core `i`'s outgoing links are
    /// `out_links[first_out[i] .. first_out[i + 1]]`.
    first_out: Vec<u32>,
    /// Flat outgoing-link array, cores in [`Mesh::core_index`] order,
    /// links in [`Step::ALL`] order.
    out_links: Vec<LinkId>,
    /// Aligned with `out_links`: the head core (destination index) of each
    /// outgoing link — the `first_out`/`head` pair of a classic CSR graph,
    /// so neighbourhood walks read the next core straight from the arrays
    /// instead of re-deriving it from coordinates per step.
    heads: Vec<u32>,
    /// The `(src, snk) → tables` interner. Ordered map: never iterated on
    /// a report path today, but the interner is shared across sessions and
    /// an ordered debug dump costs nothing here (lookups dominate).
    tables: RwLock<BTreeMap<(Coord, Coord), Arc<EndpointTables>>>,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl MeshPrecompute {
    /// Builds the per-mesh state (adjacency only — endpoint tables are
    /// interned lazily on first use).
    ///
    /// ```
    /// use pamr_mesh::Mesh;
    /// use pamr_routing::MeshPrecompute;
    ///
    /// let mesh = Mesh::new(3, 3);
    /// let pre = MeshPrecompute::new(mesh);
    /// // A corner core has 2 outgoing links, an interior core 4.
    /// assert_eq!(pre.out_links(pamr_mesh::Coord::new(0, 0)).len(), 2);
    /// assert_eq!(pre.out_links(pamr_mesh::Coord::new(1, 1)).len(), 4);
    /// // The flat arrays cover every directed link exactly once.
    /// let total: usize = mesh.cores().map(|c| pre.out_links(c).len()).sum();
    /// assert_eq!(total, mesh.num_links());
    /// ```
    pub fn new(mesh: Mesh) -> MeshPrecompute {
        let mut first_out = Vec::with_capacity(mesh.num_cores() + 1);
        let mut out_links = Vec::with_capacity(mesh.num_links());
        let mut heads = Vec::with_capacity(mesh.num_links());
        first_out.push(0u32);
        for c in mesh.cores() {
            for s in Step::ALL {
                if let Some(l) = mesh.link_id(c, s) {
                    out_links.push(l);
                    heads.push(mesh.core_index(mesh.link_endpoints(l).1) as u32);
                }
            }
            first_out.push(out_links.len() as u32);
        }
        MeshPrecompute {
            mesh,
            first_out,
            out_links,
            heads,
            tables: RwLock::new(BTreeMap::new()),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        }
    }

    /// The mesh this precompute describes.
    pub fn mesh(&self) -> &Mesh {
        &self.mesh
    }

    /// The outgoing links of `core`, in [`Step::ALL`] order (CSR slice —
    /// no per-call allocation, the groundwork for large-mesh adjacency
    /// scans).
    pub fn out_links(&self, core: Coord) -> &[LinkId] {
        let i = self.mesh.core_index(core);
        let (lo, hi) = (self.first_out[i] as usize, self.first_out[i + 1] as usize);
        &self.out_links[lo..hi]
    }

    /// The head cores (as [`Mesh::core_index`] indices) of `core`'s
    /// outgoing links, aligned entry-for-entry with
    /// [`out_links`](Self::out_links) — `(link, head)` pairs come from
    /// zipping the two slices.
    ///
    /// ```
    /// use pamr_mesh::{Coord, Mesh};
    /// use pamr_routing::MeshPrecompute;
    ///
    /// let mesh = Mesh::new(3, 3);
    /// let pre = MeshPrecompute::new(mesh);
    /// for (l, &h) in pre.out_links(Coord::new(1, 1)).iter().zip(pre.out_heads(Coord::new(1, 1))) {
    ///     assert_eq!(mesh.core_index(mesh.link_endpoints(*l).1), h as usize);
    /// }
    /// ```
    pub fn out_heads(&self, core: Coord) -> &[u32] {
        let i = self.mesh.core_index(core);
        let (lo, hi) = (self.first_out[i] as usize, self.first_out[i + 1] as usize);
        &self.heads[lo..hi]
    }

    /// The interned tables of one endpoint pair: returns the shared
    /// allocation, building it on first request.
    ///
    /// Concurrent callers of a fresh pair may race to build it; the first
    /// insert wins and the content is deterministic either way.
    pub fn endpoint_tables(&self, src: Coord, snk: Coord) -> Arc<EndpointTables> {
        // A poisoned interner lock is recoverable: the map only ever holds
        // fully-built immutable tables (the insert below is the sole write,
        // and it cannot leave a partial entry), so a panic elsewhere does
        // not invalidate the cache.
        let tables = self.tables.read().unwrap_or_else(PoisonError::into_inner);
        if let Some(t) = tables.get(&(src, snk)) {
            self.hits.fetch_add(1, Ordering::Relaxed);
            return Arc::clone(t);
        }
        drop(tables);
        self.misses.fetch_add(1, Ordering::Relaxed);
        let built = Arc::new(EndpointTables::build(&self.mesh, src, snk));
        let mut map = self.tables.write().unwrap_or_else(PoisonError::into_inner);
        Arc::clone(map.entry((src, snk)).or_insert(built))
    }

    /// Phase two: resolves a weighted instance against the interner —
    /// per-communication tables plus the decreasing-weight processing
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
        let mut tables: Vec<Option<Arc<EndpointTables>>> = Vec::with_capacity(cs.len());
        {
            let map = self.tables.read().unwrap_or_else(PoisonError::into_inner);
            tables.extend(cs.comms().iter().map(|c| map.get(&(c.src, c.snk)).cloned()));
        }
        let hits = tables.iter().filter(|t| t.is_some()).count() as u64;
        if hits > 0 {
            self.hits.fetch_add(hits, Ordering::Relaxed);
        }
        let tables = tables
            .into_iter()
            .zip(cs.comms())
            .map(|(t, c)| t.unwrap_or_else(|| self.endpoint_tables(c.src, c.snk)))
            .collect();
        CustomizedInstance {
            mesh: self.mesh,
            comms: cs.comms().to_vec(),
            tables,
            by_weight: cs.by_order(SortOrder::DecreasingWeight),
        }
    }

    /// Interner statistics: `(hits, misses)` of
    /// [`endpoint_tables`](Self::endpoint_tables) so far. Misses bound
    /// the number of distinct pairs seen.
    pub fn cache_stats(&self) -> (u64, u64) {
        (
            self.hits.load(Ordering::Relaxed),
            self.misses.load(Ordering::Relaxed),
        )
    }
}

/// The metric-dependent half of customization: under a **discrete**
/// frequency-scaled model the surrogate link cost takes only one value per
/// frequency level, so the engines evaluate the power fit once per level
/// up front and answer each per-hop cost query with a level lookup instead
/// of a `powf`.
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
/// instance's endpoint tables and processing order, ready for the
/// engines. Validated against the `CommSet` it was built from (see
/// [`matches`](Self::matches)), so a stale instance is never consumed.
#[derive(Debug, Clone)]
pub struct CustomizedInstance {
    mesh: Mesh,
    comms: Vec<Comm>,
    tables: Vec<Arc<EndpointTables>>,
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

    /// Tables of communication `i` (same indexing as the `CommSet`).
    pub fn table(&self, i: usize) -> &Arc<EndpointTables> {
        &self.tables[i]
    }

    /// All per-communication tables, in `CommSet` order.
    pub fn tables(&self) -> &[Arc<EndpointTables>] {
        &self.tables
    }

    /// Communication indices in decreasing-weight order (ties by index) —
    /// bit-identical to [`CommSet::by_order`] with
    /// [`SortOrder::DecreasingWeight`], because it *is* that call's
    /// cached result.
    pub fn by_weight(&self) -> &[usize] {
        &self.by_weight
    }

    /// The cached processing order for `order`, when one is cached
    /// (only the decreasing-weight order is; other orders return `None`
    /// and the caller sorts as before).
    pub fn order(&self, order: SortOrder) -> Option<&[usize]> {
        match order {
            SortOrder::DecreasingWeight => Some(&self.by_weight),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mesh() -> Mesh {
        Mesh::new(5, 6)
    }

    #[test]
    fn csr_adjacency_matches_the_mesh() {
        let m = mesh();
        let pre = MeshPrecompute::new(m);
        let mut seen = Vec::new();
        for c in m.cores() {
            let out = pre.out_links(c);
            // Same links, same order, as querying the mesh directly.
            let direct: Vec<LinkId> = Step::ALL
                .into_iter()
                .filter_map(|s| m.link_id(c, s))
                .collect();
            assert_eq!(out, direct.as_slice(), "core {c}");
            for &l in out {
                let (from, _) = m.link_endpoints(l);
                assert_eq!(from, c);
            }
            seen.extend_from_slice(out);
        }
        seen.sort();
        seen.dedup();
        assert_eq!(seen.len(), m.num_links());
    }

    #[test]
    fn endpoint_tables_are_interned() {
        let pre = MeshPrecompute::new(mesh());
        let (src, snk) = (Coord::new(0, 1), Coord::new(3, 4));
        let a = pre.endpoint_tables(src, snk);
        let b = pre.endpoint_tables(src, snk);
        assert!(Arc::ptr_eq(&a, &b), "same pair must share one allocation");
        // The reverse pair is a different band.
        let c = pre.endpoint_tables(snk, src);
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
            let cached = pre.endpoint_tables(src, snk);
            let fresh = EndpointTables::build(&m, src, snk);
            let band = Band::new(&m, src, snk);
            assert_eq!(cached.band().len(), band.len());
            for t in 0..band.len() {
                assert_eq!(cached.band().group(t), band.group(t), "({src},{snk}) t={t}");
            }
            for t in 0..=band.len() {
                assert_eq!(cached.diag_rows()[t], band.diag_rows(t));
                assert_eq!(fresh.diag_rows()[t], cached.diag_rows()[t]);
            }
            assert_eq!(cached.xy(), &Path::xy(src, snk));
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
        assert!(Arc::ptr_eq(cust.table(0), cust.table(1)));
        assert!(!Arc::ptr_eq(cust.table(0), cust.table(2)));
        // The cached order is CommSet::by_order's result, verbatim.
        assert_eq!(cust.by_weight(), cs.by_order(SortOrder::DecreasingWeight));
        assert_eq!(
            cust.order(SortOrder::DecreasingWeight),
            Some(cust.by_weight())
        );
        assert_eq!(cust.order(SortOrder::DecreasingLength), None);
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
