//! A long-lived **routing session**: the state behind `pamr serve`.
//!
//! The batch heuristics of §5 route a full [`CommSet`] from scratch. The
//! paper's own motivating scenario (§6.4, dynamic leakage observation) is
//! traffic that *arrives and departs over time*, and ROADMAP item 1 asks for
//! routing-as-a-service: a resident process that answers
//! `add_comm`/`remove_comm` requests without re-running a whole heuristic
//! per request.
//!
//! [`RoutingSession`] keeps the mesh, the live communications and their
//! current paths, the per-link [`LoadMap`] and a [`MaxTree`] max-load
//! index **resident across requests**, together with two crossing
//! indices:
//!
//! * `users` — for every link, the live communications whose *current path*
//!   crosses it (the index batch XYI keys per route call);
//! * `band_users` — for every link, the live communications whose
//!   [`Band`] *could* use it (the index the banded PR keys
//!   per route call).
//!
//! Mutations are **incremental**. An added communication is routed alone
//! (its XY path) and then locally repaired with a *bounded* XYI improvement
//! pass restricted to a scope seeded from its band links; a removal
//! decrements loads through [`MaxTree::set`] and repairs the scope seeded
//! from the current paths of the communications whose band overlaps the
//! freed links. Accepted moves extend the scope to the four links they
//! touch, so relief propagates exactly as far as it is earned. If the
//! bounded pass ends on an infeasible load map the session **escalates**
//! to a full re-route of the surviving set — the session is never less
//! feasible than the batch heuristic on the same instance.
//!
//! The bounded pass is batch XYI's pending-link loop ([`crate::xyi`])
//! restricted to the scope. The scope is a set of flags plus the list of
//! the flagged links, so a pass resets it in time proportional to the
//! scope, not to the mesh. A second [`MaxTree`] keys the *pending* scoped
//! links: every scoped link starts pending; the pass evaluates the top,
//! drops it on rejection, and after an accepted flip re-keys the scoped
//! links of `xyi::flip_neighbourhood`. It therefore accepts exactly the
//! flips a scan of the whole scope in decreasing load would, in the same
//! order; `crates/sim/tests/session_churn.rs` pins them under long churn.
//!
//! With [`RepairMode::Full`] every mutation instead re-routes the whole
//! surviving set through the configured batch heuristic, making the session
//! state *bit-identical by construction* to a from-scratch batch route of
//! the same communications in slot order. `tests/session_differential.rs`
//! pins both modes: full repair reproduces the batch power report bit for
//! bit over randomized add/remove scripts, and bounded repair stays within a
//! gated power bound of it while `pamr-bench serve` shows the incremental
//! latency win.
//!
//! Load accounting is *recomputed, not accumulated*: after every mutation
//! the loads of the touched links are re-summed over `users` in ascending
//! slot order ([`LoadMap::set`]), so the resident map is bit-identical to a
//! naive recomputation from the live paths at every step — the invariant
//! `crates/sim/tests/session_prop.rs` drives scripts against.
//!
//! Feasibility and power are read off resident state, never by sweeping
//! the link slots:
//!
//! * **Feasibility** is the largest load's. Both [`FrequencyScale`]
//!   variants refuse exactly the loads above their top level plus the
//!   [`CAPACITY_EPS`] slack, so every link fits iff the most loaded one
//!   does. [`RoutingSession::is_feasible`] reads that load off the root of
//!   the resident [`MaxTree`] in `O(1)` and always equals
//!   `power().is_ok()`; bounded repair's escalation check and the
//!   `feasible` field of the serve responses use it.
//! * **Power cache.** Wherever a link's load is re-derived (after every
//!   mutation and in the full re-route rebuild) its
//!   [`PowerModel::link_dynamic_power`] is recomputed from that load, never
//!   accumulated, and its bit in an ascending-order bitset of the loaded
//!   links is set or cleared. [`RoutingSession::power`] and
//!   [`RoutingSession::total_load`] left-fold the cached powers and the
//!   loads over that set from `+0.0` in ascending link order: the folds
//!   [`PowerModel::power`] and [`LoadMap::total`] run over the same values
//!   in the same order, minus the idle links' `+0.0`s. Adding `+0.0`
//!   changes no partial sum except the `-0.0` that Rust's `f64` sum starts
//!   from, which the first link slot (a mesh has at least four) turns into
//!   the session fold's `+0.0`. Both are therefore bit-identical to those
//!   sweeps, at `O(slots / 64 + active links)` with no `powf`;
//!   `crates/routing/tests/session_cache_prop.rs` pins this under
//!   arbitrary churn.
//!
//! [`FrequencyScale`]: pamr_power::FrequencyScale
//! [`CAPACITY_EPS`]: pamr_power::model::CAPACITY_EPS

use crate::comm::{Comm, CommSet};
use crate::csr::CrossingIndex;
use crate::heuristic::{surrogate_link_cost, HeuristicKind};
use crate::loadq::MaxTree;
use crate::precompute::MeshPrecompute;
use crate::routing::Routing;
use crate::scratch::RouteScratch;
use crate::xyi::{self, Flip};
use pamr_mesh::{Band, LinkId, LoadMap, Mesh, Path};
use pamr_power::{Infeasible, PowerBreakdown, PowerModel};
use std::sync::Arc;

/// How the session restores routing quality after a mutation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RepairMode {
    /// Bounded local repair (the default): an XYI improvement pass
    /// restricted to a band-seeded link scope, capped at `max_moves`
    /// accepted flips per mutation, escalating to a full re-route only when
    /// the bounded result is infeasible.
    Bounded {
        /// Cap on accepted flips per mutation.
        max_moves: usize,
    },
    /// Full (unbounded) repair: every mutation re-routes the surviving set
    /// through the configured batch heuristic. Bit-identical to batch
    /// routing by construction — the differential oracle's reference mode.
    Full,
}

impl Default for RepairMode {
    /// Bounded repair with a generous flip budget.
    fn default() -> Self {
        RepairMode::Bounded { max_moves: 10_000 }
    }
}

/// Session configuration: which batch heuristic backs full re-routes and
/// how mutations are repaired. Full re-routes run on the optimized
/// engines.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SessionConfig {
    /// Heuristic used by full re-routes ([`RoutingSession::reroute`],
    /// [`RepairMode::Full`] and bounded-mode escalation).
    pub heuristic: HeuristicKind,
    /// Repair policy applied after every `add_comm`/`remove_comm`.
    pub repair: RepairMode,
}

impl Default for SessionConfig {
    /// XYI-backed full re-routes with bounded local repair.
    fn default() -> Self {
        SessionConfig {
            heuristic: HeuristicKind::Xyi,
            repair: RepairMode::default(),
        }
    }
}

/// Stable handle of a communication within one session.
///
/// Handles of removed communications are invalidated and their slots may be
/// reused by later additions; the session answers queries on dead handles
/// with `None`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SlotId(usize);

impl SlotId {
    /// The underlying slot index (dense, reused after removals).
    #[inline]
    pub fn index(&self) -> usize {
        self.0
    }
}

/// Counters describing the work a session has performed.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SessionStats {
    /// Communications added.
    pub adds: u64,
    /// Communications removed.
    pub removes: u64,
    /// Accepted flips across all bounded repair passes.
    pub repair_moves: u64,
    /// Full re-routes (explicit, [`RepairMode::Full`], or escalations).
    pub full_reroutes: u64,
    /// Bounded passes that ended infeasible and escalated to a full
    /// re-route.
    pub escalations: u64,
}

/// One live communication: the request plus its current path.
#[derive(Debug, Clone)]
struct LiveComm {
    comm: Comm,
    path: Path,
}

/// Per-link dynamic power of the resident loads, plus the loaded links as
/// an ascending-order bitset: what [`RoutingSession::power`] and
/// [`RoutingSession::total_load`] fold (see the [module docs](self)).
#[derive(Debug)]
struct PowerCache {
    /// [`PowerModel::link_dynamic_power`] of each link slot's load; `NaN`
    /// for an over-capacity load, which no fold reads (`power()` refuses
    /// infeasible states first).
    dynamic: Vec<f64>,
    /// Bit `i % 64` of word `i / 64` is set iff link slot `i` carries load.
    loaded: Vec<u64>,
}

impl PowerCache {
    fn new(n_slots: usize) -> Self {
        PowerCache {
            dynamic: vec![0.0; n_slots],
            loaded: vec![0; n_slots.div_ceil(64)],
        }
    }

    /// Re-derives `link`'s entry from its current `load`.
    fn set(&mut self, model: &PowerModel, link: LinkId, load: f64) {
        let i = link.index();
        self.dynamic[i] = model.link_dynamic_power(load).unwrap_or(f64::NAN);
        let bit = 1u64 << (i % 64);
        if load > 0.0 {
            self.loaded[i / 64] |= bit;
        } else {
            self.loaded[i / 64] &= !bit;
        }
    }

    /// Re-derives every entry from `loads`.
    fn rebuild(&mut self, model: &PowerModel, loads: &LoadMap) {
        self.dynamic.fill(0.0);
        self.loaded.fill(0);
        for (l, load) in loads.iter_active() {
            self.set(model, l, load);
        }
    }

    /// The loaded link slots, ascending.
    fn loaded_links(&self) -> impl Iterator<Item = usize> + '_ {
        self.loaded.iter().enumerate().flat_map(|(w, &word)| {
            let mut bits = word;
            std::iter::from_fn(move || {
                (bits != 0).then(|| {
                    let i = w * 64 + bits.trailing_zeros() as usize;
                    bits &= bits - 1;
                    i
                })
            })
        })
    }
}

/// A resident incremental routing session (see the [module docs](self)).
#[derive(Debug)]
pub struct RoutingSession {
    mesh: Mesh,
    model: PowerModel,
    config: SessionConfig,
    /// Shared per-mesh precompute: the interned per-endpoint bands,
    /// reused across requests (and across sessions when constructed via
    /// [`RoutingSession::with_precompute`]).
    pre: Arc<MeshPrecompute>,
    /// Slot-indexed live communications; `None` marks a dead slot.
    slots: Vec<Option<LiveComm>>,
    /// Dead slots available for reuse (LIFO).
    free: Vec<usize>,
    n_live: usize,
    /// Authoritative per-link loads, always equal to the ascending-slot sum
    /// of the weights in `users` (bit-exactly; see the module docs).
    loads: LoadMap,
    /// Resident max-load index, always keyed to `loads`' positive entries;
    /// only its top is read.
    queue: MaxTree,
    /// Per-link dynamic power and loaded-link set, always derived from
    /// `loads` (see the module docs).
    power_cache: PowerCache,
    /// Per-link sorted slots whose **current path** crosses the link
    /// (flat-CSR [`CrossingIndex`]; a 256×256 mesh has 262 144 link slots,
    /// which the former `Vec<Vec<usize>>` paid one heap allocation each).
    users: CrossingIndex,
    /// Per-link sorted slots whose **band** contains the link.
    band_users: CrossingIndex,
    /// The links of the current bounded repair pass's scope, each once.
    scope: Vec<LinkId>,
    /// Per link slot: is the link in `scope`?
    in_scope: Vec<bool>,
    /// The scoped links a flip may still improve, keyed by load (see the
    /// module docs). Empty between passes.
    pending: MaxTree,
    /// Working memory for full re-routes through the batch heuristics.
    scratch: RouteScratch,
    stats: SessionStats,
}

impl RoutingSession {
    /// An empty session on `mesh` under `model`, owning a fresh
    /// [`MeshPrecompute`]. Use [`RoutingSession::with_precompute`] to share
    /// one precompute across sessions (what `pamr serve` does).
    pub fn new(mesh: Mesh, model: PowerModel, config: SessionConfig) -> Self {
        Self::with_precompute(Arc::new(MeshPrecompute::new(mesh)), model, config)
    }

    /// An empty session on `pre`'s mesh under `model`, reusing the shared
    /// precompute: a band built for one request (or one batch trial) is a
    /// hit for every later request on the same `(src, snk)`.
    pub fn with_precompute(
        pre: Arc<MeshPrecompute>,
        model: PowerModel,
        config: SessionConfig,
    ) -> Self {
        let mesh = *pre.mesh();
        let n_slots = mesh.num_link_slots();
        let mut queue = MaxTree::default();
        queue.rebuild(n_slots, []);
        let mut pending = MaxTree::default();
        pending.rebuild(n_slots, []);
        let mut scratch = RouteScratch::new();
        scratch.attach_precompute(Arc::clone(&pre));
        let mut users = CrossingIndex::new();
        users.clear(n_slots);
        let mut band_users = CrossingIndex::new();
        band_users.clear(n_slots);
        RoutingSession {
            mesh,
            model,
            config,
            pre,
            slots: Vec::new(),
            free: Vec::new(),
            n_live: 0,
            loads: LoadMap::new(&mesh),
            queue,
            power_cache: PowerCache::new(n_slots),
            users,
            band_users,
            scope: Vec::new(),
            in_scope: vec![false; n_slots],
            pending,
            scratch,
            stats: SessionStats::default(),
        }
    }

    /// The shared per-mesh precompute backing this session.
    #[inline]
    pub fn precompute(&self) -> &Arc<MeshPrecompute> {
        &self.pre
    }

    /// The band of `comm`, interned by the shared precompute.
    fn comm_band(&self, comm: &Comm) -> Arc<Band> {
        self.pre.band(comm.src, comm.snk)
    }

    /// The mesh.
    #[inline]
    pub fn mesh(&self) -> &Mesh {
        &self.mesh
    }

    /// The power model.
    #[inline]
    pub fn model(&self) -> &PowerModel {
        &self.model
    }

    /// The configuration.
    #[inline]
    pub fn config(&self) -> &SessionConfig {
        &self.config
    }

    /// Number of live communications.
    #[inline]
    pub fn len(&self) -> usize {
        self.n_live
    }

    /// True iff no communication is live.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.n_live == 0
    }

    /// Work counters.
    #[inline]
    pub fn stats(&self) -> SessionStats {
        self.stats
    }

    /// The resident per-link loads.
    #[inline]
    pub fn loads(&self) -> &LoadMap {
        &self.loads
    }

    /// The resident max-load index: a top-only [`MaxTree`], always keyed
    /// to the strictly positive entries of [`RoutingSession::loads`].
    #[inline]
    pub fn load_index(&self) -> &MaxTree {
        &self.queue
    }

    /// Largest single-link load, off the resident index in `O(1)`.
    pub fn max_load(&self) -> f64 {
        self.queue.peek_max().map_or(0.0, |(_, v)| v)
    }

    /// True iff `slot` refers to a live communication.
    pub fn contains(&self, slot: SlotId) -> bool {
        self.slots.get(slot.0).is_some_and(Option::is_some)
    }

    /// The live communication behind `slot`, if any.
    pub fn comm(&self, slot: SlotId) -> Option<&Comm> {
        self.slots.get(slot.0)?.as_ref().map(|lc| &lc.comm)
    }

    /// The current path of `slot`, if live.
    pub fn path(&self, slot: SlotId) -> Option<&Path> {
        self.slots.get(slot.0)?.as_ref().map(|lc| &lc.path)
    }

    /// Iterates over the live communications in ascending slot order.
    pub fn live(&self) -> impl Iterator<Item = (SlotId, &Comm, &Path)> {
        self.slots
            .iter()
            .enumerate()
            .filter_map(|(s, e)| e.as_ref().map(|lc| (SlotId(s), &lc.comm, &lc.path)))
    }

    /// True iff every link load fits the top frequency level, in `O(1)`
    /// off the largest load. Always equals `power().is_ok()` (see the
    /// [module docs](self)).
    pub fn is_feasible(&self) -> bool {
        self.model.is_feasible(self.max_load())
    }

    /// The power report of the current state, or `Err(Infeasible)` when
    /// some link is over capacity. Bit-identical to [`PowerModel::power`]
    /// over [`RoutingSession::loads`], folded from the per-link power cache
    /// over the loaded links only.
    pub fn power(&self) -> Result<PowerBreakdown, Infeasible> {
        if !self.is_feasible() {
            return Err(Infeasible);
        }
        let mut out = PowerBreakdown::default();
        for i in self.power_cache.loaded_links() {
            out.dynamic += self.power_cache.dynamic[i];
            out.leakage += self.model.p_leak;
            out.active_links += 1;
        }
        Ok(out)
    }

    /// Sum of all link loads, bit-identical to `loads().total()`, folded
    /// over the loaded links only.
    pub fn total_load(&self) -> f64 {
        self.power_cache
            .loaded_links()
            .fold(0.0, |total, i| total + self.loads.get(LinkId(i)))
    }

    /// The surviving communications as a batch instance, in ascending slot
    /// order — exactly what a from-scratch batch route (the differential
    /// oracle) sees.
    pub fn live_comm_set(&self) -> CommSet {
        self.live_comm_set_with_slots().0
    }

    /// The current state as `(instance, routing)` — the session-side
    /// counterpart of a batch [`Heuristic::route`] result.
    ///
    /// [`Heuristic::route`]: crate::heuristic::Heuristic::route
    pub fn live_routing(&self) -> (CommSet, Routing) {
        let (cs, slots) = self.live_comm_set_with_slots();
        let paths = slots
            .iter()
            // pamr-lint: allow(P001, reason = "slots came from live_comm_set_with_slots, which only lists occupied entries")
            .map(|&s| self.slots[s].as_ref().expect("slot is live").path.clone())
            .collect();
        let routing = Routing::single(&cs, paths);
        (cs, routing)
    }

    fn live_comm_set_with_slots(&self) -> (CommSet, Vec<usize>) {
        let mut comms = Vec::with_capacity(self.n_live);
        let mut slots = Vec::with_capacity(self.n_live);
        for (s, e) in self.slots.iter().enumerate() {
            if let Some(lc) = e {
                comms.push(lc.comm);
                slots.push(s);
            }
        }
        (CommSet::new(self.mesh, comms), slots)
    }

    /// Adds a communication: routes it alone (its XY path) and repairs per
    /// the configured [`RepairMode`]. Returns the stable handle.
    ///
    /// ```
    /// use pamr_mesh::{Coord, Mesh};
    /// use pamr_power::PowerModel;
    /// use pamr_routing::{Comm, RoutingSession, SessionConfig};
    ///
    /// let mut session = RoutingSession::new(
    ///     Mesh::new(4, 4),
    ///     PowerModel::kim_horowitz(),
    ///     SessionConfig::default(),
    /// );
    /// let slot = session.add_comm(Comm::new(Coord::new(0, 0), Coord::new(3, 3), 10.0));
    /// assert_eq!(session.len(), 1);
    /// assert!(session.max_load() >= 10.0);
    /// session.remove_comm(slot);
    /// assert!(session.is_empty());
    /// ```
    ///
    /// # Panics
    /// Panics if an endpoint is off-mesh (validate first — `Comm::new`
    /// already rejects non-positive weights). The serve layer turns both
    /// conditions into structured protocol errors before constructing the
    /// `Comm`.
    pub fn add_comm(&mut self, comm: Comm) -> SlotId {
        assert!(
            self.mesh.contains(comm.src) && self.mesh.contains(comm.snk),
            "communication {comm} leaves the {}×{} mesh",
            self.mesh.rows(),
            self.mesh.cols()
        );
        let slot = self.free.pop().unwrap_or_else(|| {
            self.slots.push(None);
            self.slots.len() - 1
        });
        let path = Path::xy(comm.src, comm.snk);
        let band = self.comm_band(&comm);
        for l in band.links() {
            self.band_users.insert_sorted(l.index(), slot as u32);
        }
        self.slots[slot] = Some(LiveComm { comm, path });
        self.n_live += 1;
        self.attach_path(slot);
        self.stats.adds += 1;
        match self.config.repair {
            RepairMode::Full => self.full_reroute(),
            RepairMode::Bounded { max_moves } => {
                // Scope: the new communication's band — every link its own
                // flips can reach, and where it just raised the pressure on
                // whatever was already routed there.
                for l in band.links() {
                    self.scope_link(l);
                }
                self.bounded_repair(max_moves);
            }
        }
        SlotId(slot)
    }

    /// Removes a live communication, decrementing the freed links through
    /// the resident index and repairing per the configured [`RepairMode`].
    /// Returns the removed communication, or `None` for a dead handle.
    pub fn remove_comm(&mut self, slot: SlotId) -> Option<Comm> {
        let s = slot.0;
        let live = self.slots.get(s)?.clone()?;
        self.detach_path(s);
        let band = self.comm_band(&live.comm);
        for l in band.links() {
            self.band_users.remove_sorted(l.index(), s as u32);
        }
        self.slots[s] = None;
        self.free.push(s);
        self.n_live -= 1;
        self.stats.removes += 1;
        match self.config.repair {
            RepairMode::Full => self.full_reroute(),
            RepairMode::Bounded { max_moves } => {
                // Scope: the current paths of every communication whose band
                // overlaps the freed links — the ones that could flip into
                // the capacity the removal just released.
                let mesh = self.mesh;
                for l in live.path.links(&mesh) {
                    for i in 0..self.band_users.len_of(l.index()) {
                        let u = self.band_users.get(l.index(), i) as usize;
                        let path = self.slots[u]
                            .as_ref()
                            // pamr-lint: allow(P001, reason = "remove_comm prunes the band index before repair, so every u it yields is an occupied slot")
                            .expect("band index only holds live slots")
                            .path
                            .clone();
                        for pl in path.links(&mesh) {
                            self.scope_link(pl);
                        }
                    }
                }
                self.bounded_repair(max_moves);
            }
        }
        Some(live.comm)
    }

    /// Full re-route of the surviving set through the configured batch
    /// heuristic (also what [`RepairMode::Full`] runs after every mutation
    /// and what bounded repair escalates to on infeasibility).
    pub fn reroute(&mut self) {
        self.full_reroute();
    }

    /// Adds `link` to the repair scope, pending at its current load (the
    /// tree holds only strictly positive loads, so an idle link joins the
    /// scope without pending). No-op for a link already scoped.
    fn scope_link(&mut self, link: LinkId) {
        if !std::mem::replace(&mut self.in_scope[link.index()], true) {
            self.scope.push(link);
            self.pending.set(link, self.loads.get(link));
        }
    }

    /// Empties the scope in `O(scope)`. The tree walks are skipped when the
    /// pass already drained every pending link.
    fn reset_scope(&mut self) {
        let drained = self.pending.is_empty();
        for l in self.scope.drain(..) {
            self.in_scope[l.index()] = false;
            if !drained {
                self.pending.set(l, 0.0);
            }
        }
    }

    /// Inserts `slot`'s current path into `users` and re-derives the loads
    /// of the crossed links.
    fn attach_path(&mut self, slot: usize) {
        let mesh = self.mesh;
        let path = self.slots[slot]
            .as_ref()
            // pamr-lint: allow(P001, reason = "attach_path is only called for a slot the caller just filled")
            .expect("slot is live")
            .path
            .clone();
        for l in path.links(&mesh) {
            self.users.insert_sorted(l.index(), slot as u32);
            self.recompute_link(l);
        }
    }

    /// Removes `slot`'s current path from `users` and re-derives the loads
    /// of the freed links.
    fn detach_path(&mut self, slot: usize) {
        let mesh = self.mesh;
        let path = self.slots[slot]
            .as_ref()
            // pamr-lint: allow(P001, reason = "detach_path is only called while the slot is still occupied (removal empties it afterwards)")
            .expect("slot is live")
            .path
            .clone();
        for l in path.links(&mesh) {
            self.users.remove_sorted(l.index(), slot as u32);
            self.recompute_link(l);
        }
    }

    /// Re-derives `link`'s load as the ascending-slot sum over its crossing
    /// communications, re-keys the resident index ([`MaxTree::set`]) and
    /// recomputes its cached power. Exact by construction: no incremental
    /// accumulation residue.
    fn recompute_link(&mut self, link: LinkId) {
        let mut sum = 0.0;
        for &s in self.users.row(link.index()) {
            sum += self.slots[s as usize]
                .as_ref()
                // pamr-lint: allow(P001, reason = "detach_path removes a dying slot from every user list before the slot empties")
                .expect("users index only holds live slots")
                .comm
                .weight;
        }
        self.loads.set(link, sum);
        self.queue.set(link, sum);
        self.power_cache.set(&self.model, link, sum);
    }

    /// The bounded XYI improvement pass over the current repair scope (see
    /// the [module docs](self)); escalates to a full re-route when the
    /// repaired state is still infeasible.
    fn bounded_repair(&mut self, max_moves: usize) {
        let mut moves = 0;
        while moves < max_moves {
            let Some((link, _)) = self.pending.peek_max() else {
                break; // no scoped link admits an improving flip
            };
            let slots = &self.slots;
            let flip = xyi::best_flip(
                &self.mesh,
                link,
                self.users.row(link.index()),
                |i| {
                    let lc = slots[i]
                        .as_ref()
                        // pamr-lint: allow(P001, reason = "detach_path removes a dying slot from every user list before the slot empties")
                        .expect("users index only holds live slots");
                    (&lc.path, lc.comm.weight)
                },
                |l| self.loads.get(l),
                |load| surrogate_link_cost(&self.model, load),
            );
            match flip {
                Some(flip) => {
                    self.apply_flip(&flip);
                    moves += 1;
                    self.stats.repair_moves += 1;
                }
                None => self.pending.set(link, 0.0),
            }
        }
        self.reset_scope();
        // Escape hatch: a locally-repaired state that is still over
        // capacity falls back to the batch heuristic, so the session is
        // feasible whenever a from-scratch route of the same set would be.
        if !self.is_feasible() {
            self.stats.escalations += 1;
            self.full_reroute();
        }
    }

    /// Applies one accepted flip: rebuilds the path, re-homes the crossing
    /// index on the two removed/two added links and re-derives their loads.
    /// The four links join the scope, and every scoped link of the flip's
    /// neighbourhood is re-keyed at its current load.
    fn apply_flip(&mut self, flip: &Flip) {
        let slot = flip.comm;
        // pamr-lint: allow(P001, reason = "slot came from the users index of a scoped link, which only holds live slots")
        let lc = self.slots[slot].as_mut().expect("slot is live");
        lc.path = flip.apply(&lc.path);
        for l in flip.rem {
            self.users.remove_sorted(l.index(), slot as u32);
        }
        for l in flip.add {
            self.users.insert_sorted(l.index(), slot as u32);
        }
        for l in flip.rem.into_iter().chain(flip.add) {
            self.recompute_link(l);
            self.scope_link(l);
        }
        let (pending, in_scope, loads) = (&mut self.pending, &self.in_scope, &self.loads);
        xyi::flip_neighbourhood(&self.mesh, flip, |l| {
            if in_scope[l.index()] {
                pending.set(l, loads.get(l));
            }
        });
    }

    /// Re-routes the surviving set from scratch with the configured batch
    /// heuristic and rebuilds every resident structure from the result.
    fn full_reroute(&mut self) {
        self.stats.full_reroutes += 1;
        let (cs, slots) = self.live_comm_set_with_slots();
        let routing = self
            .config
            .heuristic
            .route_with(&cs, &self.model, &mut self.scratch);
        for (pos, &s) in slots.iter().enumerate() {
            // pamr-lint: allow(P001, reason = "slots came from live_comm_set_with_slots, which only lists occupied entries")
            self.slots[s].as_mut().expect("slot is live").path = routing.path(pos).clone();
        }
        // Rebuild users and loads in ascending slot order: per link this
        // accumulates weights in exactly the order `recompute_link` sums
        // them, so incremental and rebuilt states are bit-identical. The
        // CSR rebuild also compacts away any arena slack the incremental
        // inserts accumulated — a bulk two-pass layout instead of the old
        // `O(link slots)` per-Vec clear.
        let (users, live_slots, mesh) = (&mut self.users, &self.slots, &self.mesh);
        users.rebuild(mesh.num_link_slots(), |push| {
            for &s in &slots {
                // pamr-lint: allow(P001, reason = "slots came from live_comm_set_with_slots, which only lists occupied entries")
                let lc = live_slots[s].as_ref().expect("slot is live");
                for l in lc.path.links(mesh) {
                    push(l.index(), s as u32);
                }
            }
        });
        self.loads.clear();
        for &s in &slots {
            // pamr-lint: allow(P001, reason = "slots came from live_comm_set_with_slots, which only lists occupied entries")
            let lc = self.slots[s].as_ref().expect("slot is live");
            self.loads.add_path(&self.mesh, &lc.path, lc.comm.weight);
        }
        self.queue
            .rebuild(self.mesh.num_link_slots(), self.loads.iter_active());
        self.power_cache.rebuild(&self.model, &self.loads);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::heuristic::Heuristic;
    use crate::XyImprover;
    use pamr_mesh::Coord;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    fn kh_session(config: SessionConfig) -> RoutingSession {
        RoutingSession::new(Mesh::new(4, 4), PowerModel::kim_horowitz(), config)
    }

    /// Recomputes the load map naively from the live paths, in ascending
    /// slot order — the invariant oracle.
    fn naive_loads(s: &RoutingSession) -> LoadMap {
        let mut lm = LoadMap::new(s.mesh());
        for (_, c, p) in s.live() {
            lm.add_path(s.mesh(), p, c.weight);
        }
        lm
    }

    fn assert_consistent(s: &RoutingSession) {
        let naive = naive_loads(s);
        for l in s.mesh().links() {
            assert_eq!(
                s.loads().get(l).to_bits(),
                naive.get(l).to_bits(),
                "resident load of {l} desynced from the naive recomputation"
            );
            assert_eq!(
                s.load_index().get(l).to_bits(),
                if naive.get(l) > 0.0 {
                    naive.get(l)
                } else {
                    0.0
                }
                .to_bits(),
                "resident index key of {l} desynced"
            );
        }
        assert_eq!(s.max_load().to_bits(), naive.max_load().to_bits());
    }

    #[test]
    fn add_remove_keeps_indices_consistent() {
        let mut rng = SmallRng::seed_from_u64(42);
        for &repair in &[RepairMode::Bounded { max_moves: 10_000 }, RepairMode::Full] {
            let mut s = kh_session(SessionConfig {
                heuristic: HeuristicKind::Xyi,
                repair,
            });
            let mut handles = Vec::new();
            for step in 0..60 {
                if handles.is_empty() || rng.gen_range(0..100) < 65 {
                    let c = Comm::new(
                        Coord::new(rng.gen_range(0..4), rng.gen_range(0..4)),
                        Coord::new(rng.gen_range(0..4), rng.gen_range(0..4)),
                        rng.gen_range(100.0..2500.0),
                    );
                    handles.push(s.add_comm(c));
                } else {
                    let h = handles.swap_remove(rng.gen_range(0..handles.len()));
                    assert!(s.remove_comm(h).is_some(), "step {step}: live handle");
                }
                assert_consistent(&s);
                let (cs, routing) = s.live_routing();
                assert!(routing.is_structurally_valid(&cs, 1));
            }
        }
    }

    #[test]
    fn full_mode_is_bit_identical_to_batch() {
        let mut s = kh_session(SessionConfig {
            heuristic: HeuristicKind::Xyi,
            repair: RepairMode::Full,
        });
        let mut rng = SmallRng::seed_from_u64(7);
        let mut handles = Vec::new();
        for _ in 0..30 {
            if handles.is_empty() || rng.gen_range(0..100) < 70 {
                handles.push(s.add_comm(Comm::new(
                    Coord::new(rng.gen_range(0..4), rng.gen_range(0..4)),
                    Coord::new(rng.gen_range(0..4), rng.gen_range(0..4)),
                    rng.gen_range(100.0..2500.0),
                )));
            } else {
                let h = handles.swap_remove(rng.gen_range(0..handles.len()));
                s.remove_comm(h);
            }
            let (cs, routing) = s.live_routing();
            let batch = XyImprover.route(&cs, s.model());
            assert_eq!(
                routing, batch,
                "full-repair session diverged from batch XYI"
            );
        }
    }

    #[test]
    fn dead_handles_answer_none() {
        let mut s = kh_session(SessionConfig::default());
        let h = s.add_comm(Comm::new(Coord::new(0, 0), Coord::new(2, 2), 5.0));
        assert!(s.contains(h));
        assert_eq!(s.remove_comm(h).map(|c| c.weight), Some(5.0));
        assert!(!s.contains(h));
        assert!(s.remove_comm(h).is_none());
        assert!(s.comm(h).is_none());
        assert!(s.path(h).is_none());
        assert!(s.is_empty());
        assert_eq!(s.max_load(), 0.0);
    }

    #[test]
    fn slots_are_reused_after_removal() {
        let mut s = kh_session(SessionConfig::default());
        let a = s.add_comm(Comm::new(Coord::new(0, 0), Coord::new(1, 1), 1.0));
        let b = s.add_comm(Comm::new(Coord::new(3, 3), Coord::new(2, 2), 1.0));
        s.remove_comm(a);
        let c = s.add_comm(Comm::new(Coord::new(0, 3), Coord::new(3, 0), 1.0));
        assert_eq!(c.index(), a.index(), "freed slot is reused");
        assert_ne!(b.index(), c.index());
        assert_eq!(s.len(), 2);
    }

    #[test]
    fn local_comm_is_a_no_op_on_loads() {
        let mut s = kh_session(SessionConfig::default());
        let h = s.add_comm(Comm::new(Coord::new(1, 1), Coord::new(1, 1), 9.0));
        assert_eq!(s.max_load(), 0.0);
        assert_eq!(s.power().unwrap().total(), 0.0);
        s.remove_comm(h);
        assert!(s.is_empty());
    }

    #[test]
    fn bounded_repair_relieves_a_stacked_link() {
        // Two heavy same-pole flows on a 2×2: XY stacks both on the same
        // two links; the bounded pass must separate them like batch XYI.
        let mesh = Mesh::new(2, 2);
        let mut s = RoutingSession::new(mesh, PowerModel::fig2(), SessionConfig::default());
        s.add_comm(Comm::new(Coord::new(0, 0), Coord::new(1, 1), 1.0));
        s.add_comm(Comm::new(Coord::new(0, 0), Coord::new(1, 1), 3.0));
        let p = s.power().unwrap().total();
        assert!(
            (p - 56.0).abs() < 1e-9,
            "expected the 1-MP optimum 56, got {p}"
        );
        assert!(s.stats().repair_moves > 0, "repair must have moved a flow");
        assert_eq!(s.stats().full_reroutes, 0, "no escalation was needed");
    }

    #[test]
    fn infeasible_bounded_result_escalates_to_batch() {
        // A session whose bounded pass cannot fix the overload must end in
        // exactly the batch heuristic's state.
        let mesh = Mesh::new(2, 2);
        let model = PowerModel::fig2(); // BW = 4
        let mut s = RoutingSession::new(mesh, model, SessionConfig::default());
        s.add_comm(Comm::new(Coord::new(0, 0), Coord::new(1, 1), 3.0));
        s.add_comm(Comm::new(Coord::new(0, 0), Coord::new(1, 1), 3.0));
        // XY stacks 6.0 > 4; XYI (bounded or batch) separates XY + YX.
        assert!(s.power().is_ok(), "the session must repair the overload");
        let (cs, routing) = s.live_routing();
        let batch = XyImprover.route(&cs, s.model());
        assert_eq!(
            routing
                .power(&cs, s.model())
                .map(|b| b.total().to_bits())
                .ok(),
            batch
                .power(&cs, s.model())
                .map(|b| b.total().to_bits())
                .ok(),
        );
    }

    #[test]
    fn explicit_reroute_matches_batch() {
        let mut s = kh_session(SessionConfig {
            heuristic: HeuristicKind::Pr,
            repair: RepairMode::Bounded { max_moves: 4 },
        });
        let mut rng = SmallRng::seed_from_u64(11);
        for _ in 0..12 {
            s.add_comm(Comm::new(
                Coord::new(rng.gen_range(0..4), rng.gen_range(0..4)),
                Coord::new(rng.gen_range(0..4), rng.gen_range(0..4)),
                rng.gen_range(100.0..2500.0),
            ));
        }
        s.reroute();
        let (cs, routing) = s.live_routing();
        let batch = HeuristicKind::Pr.route(&cs, s.model());
        assert_eq!(routing, batch, "explicit reroute diverged from batch PR");
        assert_consistent(&s);
    }
}
