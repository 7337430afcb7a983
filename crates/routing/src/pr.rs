//! The Path-remover heuristic (§5.5), with a diagonal-banded incremental
//! reachability engine.
//!
//! PR dominates the per-instance runtime of the §6 campaign because every
//! link removal re-validates the communication's remaining paths. The
//! original formulation (kept verbatim in [`mod@reference`]) re-sweeps the
//! whole band — forward reachability from the source, backward from the
//! sink, one pass over every diagonal group — on **every** removal. But a
//! removal in diagonal group `t_rm` can only change forward reachability on
//! diagonals *downstream* of `t_rm` and backward reachability *upstream* of
//! it, and in practice the change dies out after one or two diagonals.
//!
//! The banded implementation here exploits the §3.3 band structure: the
//! cores of one diagonal `D_k^{(d)}` inside a bounding box occupy
//! consecutive rows, so the set of *useful* cores per diagonal (those on at
//! least one surviving source→sink path) is stored as a row interval
//! ([`Band::diag_rows`]). On each removal only the affected diagonals are
//! recomputed, stopping as soon as the recomputed interval matches the
//! stored one; path cleaning then re-examines only the touched groups. When
//! a recomputed reachable set is not contiguous (an interval *fragments*),
//! the communication permanently falls back to the full sweep — a rare,
//! always-correct escape hatch.
//!
//! Both implementations produce **bit-identical** routings, errors and load
//! maps: they kill the same links in the same order and perform the same
//! floating-point operations per link. `tests/pr_differential.rs` enforces
//! this with a differential oracle over randomized §6 workloads. Tests and
//! benchmarks swap the engine behind
//! [`HeuristicKind::Pr`](crate::HeuristicKind) by threading an explicit
//! [`EngineConfig`](crate::EngineConfig) (e.g.
//! `EngineConfig::LIVE.with_pr(EngineSel::Reference)`) through their
//! scratch, session or campaign state.

use crate::comm::CommSet;
use crate::engine::EngineSel;
use crate::heuristic::Heuristic;
use crate::loadq::LoadQueue;
use crate::precompute::EndpointTables;
use crate::routing::Routing;
use crate::scratch::{reset_flags, RouteScratch};
use pamr_mesh::{Band, Coord, LinkId, LoadMap, Mesh, Path, Step};
use pamr_power::PowerModel;
use std::sync::Arc;

pub mod reference;

pub use reference::ReferencePathRemover;

/// **PR — Path remover** (§5.5).
///
/// Every communication starts (virtually) pre-routed over *all* its
/// Manhattan paths with the ideal fractional sharing of Figure 3. Links are
/// then removed iteratively: take the most loaded link and the largest
/// communication using it, and delete that link from the communication's
/// allowed set unless this would break its last remaining path (in which
/// case the next communication on the link is considered, then the next
/// link). After each deletion the allowed-link set is *cleaned* — links no
/// longer on any remaining source→sink path are dropped too — and the
/// communication's fractional load is re-spread over the surviving links of
/// each diagonal crossing. The process ends when every communication has
/// exactly one remaining path.
///
/// This is the banded incremental implementation (see the module docs);
/// [`ReferencePathRemover`] is the bit-identical full-sweep oracle.
#[derive(Debug, Clone, Copy, Default)]
pub struct PathRemover;

/// A violated structural invariant inside the PR heuristic.
///
/// These conditions cannot occur on well-formed Manhattan bands (path
/// cleaning preserves at least one source→sink path, and a resolved band's
/// surviving links chain by construction), so any occurrence is a bug — but
/// they were previously guarded only by `debug_assert!`/`unwrap`, which in
/// release builds silently divided by zero (NaN shares poisoning the load
/// map) or panicked with a bare `Option::unwrap` message. They are now
/// checked identically in debug and release and reported as a structured
/// error by [`PathRemover::try_route_with`]. The banded and reference
/// engines report bit-identical errors — part of the differential contract.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PrError {
    /// Path cleaning left diagonal group `group` of communication `comm`
    /// with no alive link (the re-share would divide by zero).
    EmptiedGroup {
        /// Index of the communication in the instance.
        comm: usize,
        /// Diagonal-group index within the communication's band.
        group: usize,
    },
    /// Some communications remain unresolved but no link can be removed
    /// from any of them (the outer loop would spin or, previously,
    /// `final_path` would `unwrap` on a multi-link group).
    Stuck {
        /// Number of still-unresolved communications.
        unresolved: usize,
    },
    /// A resolved communication's surviving links do not chain from its
    /// source to its sink.
    BrokenChain {
        /// Index of the communication in the instance.
        comm: usize,
    },
}

impl std::fmt::Display for PrError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PrError::EmptiedGroup { comm, group } => write!(
                f,
                "PR path cleaning emptied diagonal group {group} of communication {comm}"
            ),
            PrError::Stuck { unresolved } => write!(
                f,
                "PR found no removable link although {unresolved} communication(s) remain unresolved"
            ),
            PrError::BrokenChain { comm } => write!(
                f,
                "PR resolved communication {comm} to links that do not chain into a path"
            ),
        }
    }
}

impl std::error::Error for PrError {}

/// A row interval on one diagonal: inclusive `(lo, hi)` in mesh rows.
type Iv = (usize, usize);

/// The canonical empty interval.
const IV_EMPTY: Iv = (usize::MAX, 0);

#[inline]
fn iv_is_empty(iv: Iv) -> bool {
    iv.0 > iv.1
}

#[inline]
fn iv_contains(iv: Iv, u: usize) -> bool {
    iv.0 <= u && u <= iv.1
}

#[inline]
fn iv_intersect(a: Iv, b: Iv) -> Iv {
    let lo = a.0.max(b.0);
    let hi = a.1.min(b.1);
    if lo > hi {
        IV_EMPTY
    } else {
        (lo, hi)
    }
}

/// The reusable per-removal buffers the banded engine borrows from
/// [`RouteScratch`], split out so the candidate scan can keep reading
/// `scratch.xusers` while a removal mutates these.
struct BandBufs<'a> {
    loads: &'a mut LoadMap,
    queue: &'a mut LoadQueue,
    live: &'a [u32],
    fwd_iv: &'a mut Vec<Iv>,
    bwd_iv: &'a mut Vec<Iv>,
    rows: &'a mut Vec<bool>,
    fwd: &'a mut Vec<bool>,
    bwd: &'a mut Vec<bool>,
}

impl BandBufs<'_> {
    /// [`LoadMap::add`] that also keeps the shared [`LoadQueue`] in sync:
    /// the queue holds exactly the links with strictly positive load and at
    /// least one unresolved user. The load *values* are bit-identical to
    /// the full-sweep oracle's (same operations per link in the same
    /// order), so the queue's descending iteration reproduces its
    /// loaded-link scan order exactly.
    fn add_load(&mut self, l: LinkId, delta: f64) {
        self.loads.add(l, delta);
        if self.live[l.index()] > 0 {
            self.queue.set(l, self.loads.get(l));
        }
    }
}

/// Per-communication removal state of the banded engine.
///
/// `band` and `base_rows` are metric-independent and therefore shareable:
/// with the precompute cache active they are `Arc` clones of the interned
/// [`EndpointTables`]; on the rebuild path they are freshly computed —
/// identical values either way. (They stay plain struct fields, not
/// accessor calls, so `remove_and_reshare`'s disjoint field borrows keep
/// compiling.)
struct BandedComm {
    band: Arc<Band>,
    /// The pristine per-diagonal useful-row intervals
    /// ([`Band::diag_rows`] for `t ∈ 0..=len`) — the start state `reach`
    /// is seeded from and `rebuild_reach` clamps against.
    base_rows: Arc<Vec<Iv>>,
    weight: f64,
    /// Aliveness aligned with `band.groups()`.
    alive: Vec<Vec<bool>>,
    /// Current equal share per alive link, per group (`δ / alive_count`).
    share: Vec<f64>,
    /// Alive-link count per group (kept in lock-step with `alive`).
    counts: Vec<usize>,
    /// Useful-core row interval per diagonal `0 ..= len`: the cores lying
    /// on at least one surviving source→sink path. Invariant between
    /// removals (unless `fragmented`): forward and backward reachability
    /// over the alive links both equal exactly this set, because path
    /// cleaning prunes the alive set down to the union of surviving paths.
    reach: Vec<Iv>,
    /// Number of groups with more than one alive link.
    multi: usize,
    /// Set while a reachable set is not a contiguous row interval: the next
    /// removal of this communication full-sweeps instead of propagating
    /// incrementally. The full sweep rebuilds the `reach` intervals from
    /// its own reachability flags, so the flag clears again as soon as
    /// every diagonal's useful set is back to one contiguous run —
    /// fragmentation no longer pins a communication to the slow path for
    /// good.
    fragmented: bool,
}

impl BandedComm {
    /// Builds the removal state. `tables` supplies the interned band and
    /// row intervals when the precompute cache is active; `None` rebuilds
    /// both from the mesh (the literal pre-split path — same values).
    fn new(
        mesh: &Mesh,
        src: Coord,
        snk: Coord,
        weight: f64,
        tables: Option<&EndpointTables>,
    ) -> Self {
        let (band, base_rows) = match tables {
            Some(t) => (Arc::clone(t.band_arc()), Arc::clone(t.diag_rows_arc())),
            None => {
                let band = Band::new(mesh, src, snk);
                let rows: Vec<Iv> = (0..=band.len()).map(|t| band.diag_rows(mesh, t)).collect();
                (Arc::new(band), Arc::new(rows))
            }
        };
        let alive: Vec<Vec<bool>> = band.groups().map(|g| vec![true; g.len()]).collect();
        let share: Vec<f64> = band.groups().map(|g| weight / g.len() as f64).collect();
        let counts: Vec<usize> = band.groups().map(|g| g.len()).collect();
        let multi = counts.iter().filter(|&&c| c > 1).count();
        let reach: Vec<Iv> = base_rows.as_ref().clone();
        BandedComm {
            band,
            base_rows,
            weight,
            alive,
            share,
            counts,
            reach,
            multi,
            fragmented: false,
        }
    }

    /// True when every group retains exactly one link.
    #[inline]
    fn resolved(&self) -> bool {
        self.multi == 0
    }

    /// Applies this communication's fractional load with sign `sign`.
    fn apply_loads(&self, loads: &mut LoadMap, sign: f64) {
        for (t, g) in self.band.groups().enumerate() {
            let s = self.share[t] * sign;
            for (j, &l) in g.iter().enumerate() {
                if self.alive[t][j] {
                    loads.add(l, s);
                }
            }
        }
    }

    /// One reachability step across diagonal group `g`: the rows of the
    /// next (forward) or previous (backward) diagonal reached from the row
    /// interval `prev` through the group's alive links. Returns `None` when
    /// the reached set is not contiguous (the caller must fall back to the
    /// full sweep), `Some(IV_EMPTY)` when nothing is reached.
    fn propagate(
        &self,
        mesh: &Mesh,
        g: usize,
        prev: Iv,
        rows: &mut [bool],
        forward: bool,
    ) -> Option<Iv> {
        if iv_is_empty(prev) {
            return Some(IV_EMPTY);
        }
        let (mut lo, mut hi) = (usize::MAX, 0usize);
        for (j, &l) in self.band.group(g).iter().enumerate() {
            if self.alive[g][j] {
                let (from, to) = mesh.link_endpoints(l);
                let (key, dst) = if forward {
                    (from.u, to.u)
                } else {
                    (to.u, from.u)
                };
                if iv_contains(prev, key) {
                    rows[dst] = true;
                    lo = lo.min(dst);
                    hi = hi.max(dst);
                }
            }
        }
        if lo == usize::MAX {
            return Some(IV_EMPTY);
        }
        let mut contiguous = true;
        for r in rows.iter_mut().take(hi + 1).skip(lo) {
            contiguous &= *r;
            *r = false;
        }
        contiguous.then_some((lo, hi))
    }

    /// Removes link `(t_rm, j_rm)` and performs the paper's "path cleaning"
    /// and re-sharing, recomputing reachability only on the diagonals the
    /// removal can affect: forward intervals downstream of `t_rm` and
    /// backward intervals upstream, each propagation stopping as soon as it
    /// re-matches the stored `reach` interval. Cleaning then touches only
    /// the groups adjacent to a changed diagonal (plus `t_rm` itself) — the
    /// bit-identical subset of the operations the full sweep performs,
    /// because unchanged groups reproduce the identical share quotient and
    /// skip their load updates entirely.
    fn remove_and_reshare(
        &mut self,
        mesh: &Mesh,
        ci: usize,
        (t_rm, j_rm): (usize, usize),
        bufs: &mut BandBufs<'_>,
    ) -> Result<(), PrError> {
        // Subtract the removed link's current share and kill it.
        bufs.add_load(self.band.group(t_rm)[j_rm], -self.share[t_rm]);
        self.alive[t_rm][j_rm] = false;

        if self.fragmented {
            return self.full_reshare(mesh, ci, bufs);
        }
        let len = self.band.len();
        if bufs.fwd_iv.len() < len + 1 {
            bufs.fwd_iv.resize(len + 1, IV_EMPTY);
            bufs.bwd_iv.resize(len + 1, IV_EMPTY);
        }
        if bufs.rows.len() < mesh.rows() {
            bufs.rows.resize(mesh.rows(), false);
        }

        // Forward reachability, recomputed downstream of the removed group
        // until it re-matches the stored useful interval. `f_stop` is the
        // first diagonal ≥ t_rm+1 whose forward set did not change.
        let mut f_stop = len + 1;
        let mut prev = self.reach[t_rm];
        for t in t_rm + 1..=len {
            let Some(next) = self.propagate(mesh, t - 1, prev, bufs.rows, true) else {
                self.fragmented = true;
                return self.full_reshare(mesh, ci, bufs);
            };
            if next == self.reach[t] {
                f_stop = t;
                break;
            }
            bufs.fwd_iv[t] = next;
            prev = next;
        }
        // Backward reachability upstream. `b_start` is the first (lowest)
        // diagonal whose backward set changed.
        let mut b_start = 0;
        let mut prev = self.reach[t_rm + 1];
        let mut matched = false;
        for t in (0..=t_rm).rev() {
            let Some(next) = self.propagate(mesh, t, prev, bufs.rows, false) else {
                self.fragmented = true;
                return self.full_reshare(mesh, ci, bufs);
            };
            if next == self.reach[t] {
                b_start = t + 1;
                matched = true;
                break;
            }
            bufs.bwd_iv[t] = next;
            prev = next;
        }
        if !matched {
            b_start = 0;
        }

        // Clean and re-share the affected groups, in increasing order so a
        // structural error names the same group as the full sweep. Group t
        // is affected iff its source diagonal's forward set changed
        // (t_rm < t < f_stop), its sink diagonal's backward set changed
        // (b_start ≤ t+1 ≤ t_rm), or it lost the removed link (t = t_rm).
        let g_lo = b_start.saturating_sub(1);
        let g_hi = (f_stop - 1).min(len - 1);
        for t in g_lo..=g_hi {
            let fwd_t = if t > t_rm && t < f_stop {
                bufs.fwd_iv[t]
            } else {
                self.reach[t]
            };
            let bwd_t1 = if t + 1 >= b_start && t < t_rm {
                bufs.bwd_iv[t + 1]
            } else {
                self.reach[t + 1]
            };
            let g = self.band.group(t);
            let old_share = self.share[t];
            let old_count = self.counts[t];
            let mut count = 0usize;
            for (j, &l) in g.iter().enumerate() {
                if self.alive[t][j] {
                    let (from, to) = mesh.link_endpoints(l);
                    if iv_contains(fwd_t, from.u) && iv_contains(bwd_t1, to.u) {
                        count += 1;
                    } else {
                        self.alive[t][j] = false;
                        bufs.add_load(l, -old_share);
                    }
                }
            }
            if count == 0 {
                return Err(PrError::EmptiedGroup { comm: ci, group: t });
            }
            let new_share = self.weight / count as f64;
            // Exact comparison: an unchanged count reproduces the identical
            // quotient, so untouched groups skip the load updates entirely.
            if new_share != old_share {
                for (j, &l) in g.iter().enumerate() {
                    if self.alive[t][j] {
                        bufs.add_load(l, new_share - old_share);
                    }
                }
                self.share[t] = new_share;
            }
            self.counts[t] = count;
            if old_count > 1 && count == 1 {
                self.multi -= 1;
            }
        }

        // Fold the recomputed reachability into the stored useful sets:
        // after cleaning, the useful cores of a diagonal are exactly the
        // forward-reachable ∩ backward-reachable ones, and an empty
        // intersection would have surfaced above as an emptied group.
        for t in b_start..=t_rm {
            self.reach[t] = iv_intersect(self.reach[t], bufs.bwd_iv[t]);
            debug_assert!(!iv_is_empty(self.reach[t]));
        }
        for t in t_rm + 1..f_stop {
            self.reach[t] = iv_intersect(bufs.fwd_iv[t], self.reach[t]);
            debug_assert!(!iv_is_empty(self.reach[t]));
        }
        Ok(())
    }

    /// The full-sweep fallback: identical to the reference engine's
    /// cleaning pass (same operations on the load map, in the same order),
    /// plus the banded bookkeeping of `counts` and `multi`. Afterwards the
    /// `reach` intervals are rebuilt from the sweep's reachability flags
    /// ([`BandedComm::rebuild_reach`]); when every diagonal's useful set is
    /// a contiguous run again, `fragmented` clears and later removals
    /// re-enter the fast banded path.
    fn full_reshare(
        &mut self,
        mesh: &Mesh,
        ci: usize,
        bufs: &mut BandBufs<'_>,
    ) -> Result<(), PrError> {
        let n = mesh.num_cores();
        reset_flags(bufs.fwd, n);
        bufs.fwd[mesh.core_index(self.band.src())] = true;
        for (t, g) in self.band.groups().enumerate() {
            for (j, &l) in g.iter().enumerate() {
                if self.alive[t][j] {
                    let (from, to) = mesh.link_endpoints(l);
                    if bufs.fwd[mesh.core_index(from)] {
                        bufs.fwd[mesh.core_index(to)] = true;
                    }
                }
            }
        }
        reset_flags(bufs.bwd, n);
        bufs.bwd[mesh.core_index(self.band.snk())] = true;
        for (t, g) in self.band.groups().enumerate().rev() {
            for (j, &l) in g.iter().enumerate() {
                if self.alive[t][j] {
                    let (from, to) = mesh.link_endpoints(l);
                    if bufs.bwd[mesh.core_index(to)] {
                        bufs.bwd[mesh.core_index(from)] = true;
                    }
                }
            }
        }
        self.multi = 0;
        for (t, g) in self.band.groups().enumerate() {
            let old_share = self.share[t];
            let mut count = 0usize;
            for (j, &l) in g.iter().enumerate() {
                if self.alive[t][j] {
                    let (from, to) = mesh.link_endpoints(l);
                    if bufs.fwd[mesh.core_index(from)] && bufs.bwd[mesh.core_index(to)] {
                        count += 1;
                    } else {
                        self.alive[t][j] = false;
                        bufs.add_load(l, -old_share);
                    }
                }
            }
            if count == 0 {
                return Err(PrError::EmptiedGroup { comm: ci, group: t });
            }
            let new_share = self.weight / count as f64;
            if new_share != old_share {
                for (j, &l) in g.iter().enumerate() {
                    if self.alive[t][j] {
                        bufs.add_load(l, new_share - old_share);
                    }
                }
                self.share[t] = new_share;
            }
            self.counts[t] = count;
            if count > 1 {
                self.multi += 1;
            }
        }
        self.fragmented = !self.rebuild_reach(mesh, bufs.fwd, bufs.bwd);
        Ok(())
    }

    /// Rebuilds the per-diagonal useful-core intervals from a full sweep's
    /// reachability flags, returning `true` when every diagonal's useful
    /// set is one contiguous row run (the banded invariant) and `false`
    /// when any set is still fragmented.
    ///
    /// The flags were computed *before* path cleaning, but `fwd ∩ bwd` is
    /// the same set either way: a core that is forward- and
    /// backward-reachable lies on a full source→sink path, and every link
    /// of that path survives cleaning. On `false` the partially-rewritten
    /// intervals are left stale, which is safe because the caller keeps
    /// `fragmented` set and the next removal full-sweeps again.
    fn rebuild_reach(&mut self, mesh: &Mesh, fwd: &[bool], bwd: &[bool]) -> bool {
        for t in 0..=self.band.len() {
            let (b_lo, b_hi) = self.base_rows[t];
            let mut iv = IV_EMPTY;
            for u in b_lo..=b_hi {
                let c = self
                    .band
                    .core_on_diag(mesh, t, u)
                    // pamr-lint: allow(P001, reason = "base_rows stores per-diagonal row ranges computed from this band's geometry, so every (t, u) it yields is a band core")
                    .expect("diag_rows rows hold a band core");
                let i = mesh.core_index(c);
                if fwd[i] && bwd[i] {
                    if iv_is_empty(iv) {
                        iv = (u, u);
                    } else if u == iv.1 + 1 {
                        iv.1 = u;
                    } else {
                        return false; // still fragmented
                    }
                }
            }
            // Path cleaning already errored on an emptied group, so every
            // diagonal keeps at least one useful core here.
            debug_assert!(!iv_is_empty(iv));
            self.reach[t] = iv;
        }
        true
    }

    /// Number of alive links in the group containing `link` and the link's
    /// position, if it is alive. O(1) in the group size thanks to `counts`.
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
        Some((t, j, self.counts[t]))
    }

    /// Extracts the unique remaining path; `ci` labels errors. Fails with
    /// [`PrError::BrokenChain`] when the communication is not resolved or
    /// its surviving links do not connect source to sink.
    fn final_path(&self, mesh: &Mesh, ci: usize) -> Result<Path, PrError> {
        if !self.resolved() {
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

impl PathRemover {
    /// [`Heuristic::route_with`], but surfacing violated invariants as a
    /// structured [`PrError`] instead of panicking. The checks run in
    /// debug and release builds alike. Dispatches on the
    /// [`EngineConfig`](crate::engine::EngineConfig) carried by `scratch`
    /// (banded by default).
    pub fn try_route_with(
        &self,
        cs: &CommSet,
        model: &PowerModel,
        scratch: &mut RouteScratch,
    ) -> Result<Routing, PrError> {
        match scratch.engine().pr {
            EngineSel::Live => self.try_route_banded_with(cs, model, scratch),
            EngineSel::Reference => ReferencePathRemover.try_route_with(cs, model, scratch),
        }
    }

    /// The banded engine, unconditionally — what the differential suite
    /// compares against [`ReferencePathRemover::try_route_with`] regardless
    /// of the scratch's engine config.
    pub fn try_route_banded_with(
        &self,
        cs: &CommSet,
        _model: &PowerModel,
        scratch: &mut RouteScratch,
    ) -> Result<Routing, PrError> {
        let mesh = cs.mesh();
        // Per-comm removal state — band geometry and pristine row
        // intervals come from the interned endpoint tables when the
        // precompute cache is active (Arc clones, no Band::new), and are
        // rebuilt from the mesh otherwise.
        let use_cache = scratch.ensure_customized(cs);
        let mut comms: Vec<BandedComm> = match scratch.cust.as_ref().filter(|_| use_cache) {
            Some(cust) => cs
                .comms()
                .iter()
                .enumerate()
                .map(|(i, c)| BandedComm::new(mesh, c.src, c.snk, c.weight, Some(cust.table(i))))
                .collect(),
            None => cs
                .comms()
                .iter()
                .map(|c| BandedComm::new(mesh, c.src, c.snk, c.weight, None))
                .collect(),
        };
        scratch.loads.fit(mesh);
        for c in &comms {
            c.apply_loads(&mut scratch.loads, 1.0);
        }
        // Which communications' bands contain each link (static superset,
        // built flat-CSR in two counting passes over the bands).
        let nslots = mesh.num_link_slots();
        scratch.xusers.rebuild(nslots, |push| {
            for (i, c) in comms.iter().enumerate() {
                for l in c.band.links() {
                    push(l.index(), i as u32);
                }
            }
        });
        // Presort each occupied link's users by decreasing weight (ties
        // towards the smaller index) once: the weights are static, so this
        // yields exactly the candidate order the full-sweep oracle re-sorts
        // per examined link. `sort_rows_by` visits only the rows the
        // rebuild populated — sorting the empty slots was a no-op anyway.
        // total_cmp orders these finite positive weights identically to
        // partial_cmp and removes the NaN panic path.
        scratch.xusers.sort_rows_by(|a, b| {
            let (a, b) = (a as usize, b as usize);
            comms[b].weight.total_cmp(&comms[a].weight).then(a.cmp(&b))
        });
        // Per-link unresolved-user counts: a link none of whose users is
        // unresolved is rejected by the candidate scan without effect, so
        // skipping it up front cannot change which link hosts the next
        // removal — it only spares the scan. Decremented for a comm's whole
        // band when the comm resolves.
        scratch.live_users.clear();
        scratch.live_users.resize(nslots, 0);
        for c in &comms {
            if !c.resolved() {
                for l in c.band.links() {
                    scratch.live_users[l.index()] += 1;
                }
            }
        }

        // Shared loaded-link priority queue ([`LoadQueue`]): exactly the
        // links with positive load and at least one unresolved user, whose
        // descending iteration yields decreasing load with ties towards the
        // smaller link id — the full-sweep oracle's scan order. Maintained
        // incrementally by [`BandBufs::add_load`] instead of being rebuilt
        // (and re-scanned, O(links²)) on every removal.
        {
            let live = &scratch.live_users;
            scratch.queue.rebuild(
                nslots,
                scratch
                    .loads
                    .iter_active()
                    .filter(|(l, _)| live[l.index()] > 0),
            );
        }

        // Iteratively remove the most loaded link from the largest
        // removable communication crossing it.
        let mut unresolved = comms.iter().filter(|c| !c.resolved()).count();
        while unresolved > 0 {
            let mut removed = false;
            // Examine queued links in decreasing-load order; rejected links
            // keep their key, so the scan resumes strictly below the
            // cursor.
            let mut cursor = scratch.queue.cursor();
            'links: while let Some((link, _)) = cursor.next(&scratch.queue) {
                // Candidates in presorted decreasing-weight order.
                for &i in scratch.xusers.row(link.index()) {
                    let i = i as usize;
                    if comms[i].resolved() {
                        continue;
                    }
                    // Removable iff the link is alive for the communication
                    // and its group keeps another alive link (every alive
                    // link lies on some path after cleaning, so a sibling
                    // link guarantees a surviving path).
                    if let Some((t, j, count)) = comms[i].locate(mesh, link) {
                        if count >= 2 {
                            let mut bufs = BandBufs {
                                loads: &mut scratch.loads,
                                queue: &mut scratch.queue,
                                live: &scratch.live_users,
                                fwd_iv: &mut scratch.fwd_iv,
                                bwd_iv: &mut scratch.bwd_iv,
                                rows: &mut scratch.rows,
                                fwd: &mut scratch.fwd,
                                bwd: &mut scratch.bwd,
                            };
                            comms[i].remove_and_reshare(mesh, i, (t, j), &mut bufs)?;
                            if comms[i].resolved() {
                                unresolved -= 1;
                                for l in comms[i].band.links() {
                                    let slot = l.index();
                                    scratch.live_users[slot] -= 1;
                                    if scratch.live_users[slot] == 0 {
                                        scratch.queue.set(l, 0.0);
                                    }
                                }
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

impl Heuristic for PathRemover {
    fn name(&self) -> &'static str {
        "PR"
    }

    fn route_with(&self, cs: &CommSet, model: &PowerModel, scratch: &mut RouteScratch) -> Routing {
        // A PrError is a routing-engine bug, not an infeasible instance:
        // escalate to a hard panic with the structured diagnosis, the same
        // way in debug and release builds.
        self.try_route_with(cs, model, scratch)
            // pamr-lint: allow(P001, reason = "documented escalation policy: a PrError here is an engine bug, and the infallible Heuristic interface has no error channel — callers wanting Result use try_route_with")
            .unwrap_or_else(|e| panic!("PR invariant violated: {e}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::comm::Comm;
    use crate::rules::xy_routing;
    use pamr_mesh::Mesh;
    use pamr_power::PowerModel;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn pr_resolves_to_single_paths() {
        let mesh = Mesh::new(5, 5);
        let cs = CommSet::new(
            mesh,
            vec![
                Comm::new(Coord::new(0, 0), Coord::new(4, 4), 3.0),
                Comm::new(Coord::new(4, 0), Coord::new(0, 4), 2.0),
                Comm::new(Coord::new(0, 4), Coord::new(4, 0), 1.5),
                Comm::new(Coord::new(2, 2), Coord::new(2, 2), 1.0), // local
            ],
        );
        let model = PowerModel::theory(3.0);
        let r = PathRemover.route(&cs, &model);
        assert!(r.is_structurally_valid(&cs, 1));
        assert_eq!(r.max_paths_per_comm(), 1);
        assert!(r.path(3).is_empty());
    }

    #[test]
    fn pr_separates_two_identical_flows() {
        let mesh = Mesh::new(2, 2);
        let cs = CommSet::new(
            mesh,
            vec![
                Comm::new(Coord::new(0, 0), Coord::new(1, 1), 1.0),
                Comm::new(Coord::new(0, 0), Coord::new(1, 1), 3.0),
            ],
        );
        let model = PowerModel::fig2();
        let r = PathRemover.route(&cs, &model);
        let p = r.power(&cs, &model).unwrap().total();
        assert!(
            (p - 56.0).abs() < 1e-9,
            "PR should reach the 1-MP optimum 56, got {p}"
        );
    }

    #[test]
    fn pr_balances_heavy_parallel_traffic() {
        // Four equal flows corner to corner on a 3×3: best single-path max
        // load keeps pairs separated.
        let mesh = Mesh::new(3, 3);
        let comms = (0..4)
            .map(|_| Comm::new(Coord::new(0, 0), Coord::new(2, 2), 1.0))
            .collect();
        let cs = CommSet::new(mesh, comms);
        let model = PowerModel::theory(3.0);
        let r = PathRemover.route(&cs, &model);
        let loads = r.loads(&cs);
        // The two links out of the corner must carry 2.0 each (perfect
        // split); interior spread keeps the maximum at 2.0.
        assert!(
            loads.max_load() <= 2.0 + 1e-9,
            "max load {}",
            loads.max_load()
        );
        let p_xy = xy_routing(&cs).power(&cs, &model).unwrap().total();
        let p_pr = r.power(&cs, &model).unwrap().total();
        assert!(p_pr < p_xy);
    }

    #[test]
    fn pr_handles_straight_lines() {
        let mesh = Mesh::new(4, 4);
        let cs = CommSet::new(
            mesh,
            vec![
                Comm::new(Coord::new(1, 0), Coord::new(1, 3), 2.0),
                Comm::new(Coord::new(0, 2), Coord::new(3, 2), 2.0),
            ],
        );
        let model = PowerModel::theory(3.0);
        let r = PathRemover.route(&cs, &model);
        assert_eq!(r.path(0).len(), 3);
        assert_eq!(r.path(1).len(), 3);
        assert!(r.path(0).bends() == 0 && r.path(1).bends() == 0);
    }

    #[test]
    fn try_route_with_succeeds_on_normal_instances() {
        let mesh = Mesh::new(5, 5);
        let cs = CommSet::new(
            mesh,
            vec![
                Comm::new(Coord::new(0, 0), Coord::new(4, 4), 3.0),
                Comm::new(Coord::new(4, 0), Coord::new(0, 4), 2.0),
            ],
        );
        let model = PowerModel::theory(3.0);
        let r = PathRemover
            .try_route_with(&cs, &model, &mut crate::RouteScratch::new())
            .expect("well-formed instance must not trip PR invariants");
        assert!(r.is_structurally_valid(&cs, 1));
        assert_eq!(
            PrError::Stuck { unresolved: 2 }.to_string(),
            "PR found no removable link although 2 communication(s) remain unresolved"
        );
    }

    #[test]
    fn pr_loads_match_final_paths() {
        // After resolution the internal fractional loads must equal the
        // loads recomputed from the final single paths.
        let mesh = Mesh::new(6, 6);
        let cs = CommSet::new(
            mesh,
            vec![
                Comm::new(Coord::new(0, 1), Coord::new(5, 4), 2.0),
                Comm::new(Coord::new(3, 0), Coord::new(1, 5), 1.0),
                Comm::new(Coord::new(5, 5), Coord::new(0, 0), 3.0),
            ],
        );
        let model = PowerModel::theory(3.0);
        let r = PathRemover.route(&cs, &model);
        // Re-derive loads from returned paths and check conservation:
        // each comm contributes weight × length.
        let loads = r.loads(&cs);
        let expected: f64 = cs.comms().iter().map(|c| c.weight * c.len() as f64).sum();
        assert!((loads.total() - expected).abs() < 1e-6);
    }

    #[test]
    fn banded_matches_reference_on_random_instances() {
        // A compact in-crate differential check (the full oracle lives in
        // tests/pr_differential.rs): identical routings on random instances
        // covering all four quadrants, straight lines and local traffic.
        let model = PowerModel::theory(3.0);
        let mut scratch = crate::RouteScratch::new();
        for seed in 0..24u64 {
            let mut rng = SmallRng::seed_from_u64(seed);
            let (p, q) = (rng.gen_range(2..=7), rng.gen_range(2..=7));
            let mesh = Mesh::new(p, q);
            let n = rng.gen_range(1..=12);
            let comms = (0..n)
                .map(|_| {
                    Comm::new(
                        Coord::new(rng.gen_range(0..p), rng.gen_range(0..q)),
                        Coord::new(rng.gen_range(0..p), rng.gen_range(0..q)),
                        rng.gen_range(1.0..100.0),
                    )
                })
                .collect();
            let cs = CommSet::new(mesh, comms);
            let banded = PathRemover.try_route_banded_with(&cs, &model, &mut scratch);
            let reference = ReferencePathRemover.try_route_with(&cs, &model, &mut scratch);
            assert_eq!(
                banded.unwrap(),
                reference.unwrap(),
                "seed {seed}: banded PR diverged from the full-sweep oracle"
            );
        }
    }

    #[test]
    fn fragmentation_falls_back_to_the_full_sweep() {
        // Drive a banded comm and a reference comm through the identical
        // removal sequence, picking removals that disconnect the middle of
        // a diagonal: the diagonal-2 reachable rows of a 4×4 corner-to-
        // corner band become {0, 2} (not contiguous), which must flip the
        // banded comm to its full-sweep fallback and keep the states
        // bit-identical throughout.
        let mesh = Mesh::new(4, 4);
        let (src, snk) = (Coord::new(0, 0), Coord::new(3, 3));
        let mut banded = BandedComm::new(&mesh, src, snk, 2.0, None);
        let mut reference = reference::RefComm::new(&mesh, src, snk, 2.0);
        let mut loads_b = pamr_mesh::LoadMap::new(&mesh);
        let mut loads_r = pamr_mesh::LoadMap::new(&mesh);
        banded.apply_loads(&mut loads_b, 1.0);
        reference.apply_loads(&mut loads_r, 1.0);
        let mut scratch = crate::RouteScratch::new();
        let (mut fwd, mut bwd) = (Vec::new(), Vec::new());
        // Not testing queue maintenance here: an all-zero live-user table
        // keeps `add_load` from touching the (unused) queue.
        let live = vec![0u32; mesh.num_link_slots()];

        // Group 1 holds the four links leaving diagonal 1; find the two
        // links entering the middle core (1,1) of diagonal 2.
        let into_middle: Vec<usize> = banded
            .band
            .group(1)
            .iter()
            .enumerate()
            .filter(|(_, &l)| mesh.link_endpoints(l).1 == Coord::new(1, 1))
            .map(|(j, _)| j)
            .collect();
        assert_eq!(into_middle.len(), 2);
        for (step, &j) in into_middle.iter().enumerate() {
            let mut bufs = BandBufs {
                loads: &mut loads_b,
                queue: &mut scratch.queue,
                live: &live,
                fwd_iv: &mut scratch.fwd_iv,
                bwd_iv: &mut scratch.bwd_iv,
                rows: &mut scratch.rows,
                fwd: &mut scratch.fwd,
                bwd: &mut scratch.bwd,
            };
            banded
                .remove_and_reshare(&mesh, 0, (1, j), &mut bufs)
                .unwrap();
            reference
                .remove_and_reshare(&mesh, 0, (1, j), &mut loads_r, &mut fwd, &mut bwd)
                .unwrap();
            assert_eq!(
                banded.fragmented,
                step == 1,
                "fragmentation must trigger exactly on the second removal"
            );
            assert_eq!(banded.alive, reference.alive, "alive sets diverged");
            for l in mesh.links() {
                assert_eq!(
                    loads_b.get(l).to_bits(),
                    loads_r.get(l).to_bits(),
                    "load of {l} diverged"
                );
            }
        }
        // The fragmented comm keeps matching the oracle on later removals —
        // and the fallback is no longer sticky: each full sweep rebuilds
        // the per-diagonal intervals, so the communication re-enters the
        // fast banded path as soon as every useful set is contiguous again.
        // Drive the removal sequence to full resolution, checking
        // bit-identity after every step and recording the fragmented flag.
        let mut flag_history = vec![banded.fragmented];
        while !banded.resolved() {
            let (t, j) = banded
                .counts
                .iter()
                .enumerate()
                .find(|&(_, &c)| c >= 2)
                .map(|(t, _)| (t, banded.alive[t].iter().position(|&a| a).unwrap()))
                .expect("unresolved comm has a multi-link group");
            let mut bufs = BandBufs {
                loads: &mut loads_b,
                queue: &mut scratch.queue,
                live: &live,
                fwd_iv: &mut scratch.fwd_iv,
                bwd_iv: &mut scratch.bwd_iv,
                rows: &mut scratch.rows,
                fwd: &mut scratch.fwd,
                bwd: &mut scratch.bwd,
            };
            banded
                .remove_and_reshare(&mesh, 0, (t, j), &mut bufs)
                .unwrap();
            reference
                .remove_and_reshare(&mesh, 0, (t, j), &mut loads_r, &mut fwd, &mut bwd)
                .unwrap();
            assert_eq!(banded.alive, reference.alive, "alive sets diverged");
            for l in mesh.links() {
                assert_eq!(
                    loads_b.get(l).to_bits(),
                    loads_r.get(l).to_bits(),
                    "load of {l} diverged"
                );
            }
            flag_history.push(banded.fragmented);
        }
        assert_eq!(banded.resolved(), reference.resolved);
        // The workload fragmented the band mid-run…
        assert!(flag_history.iter().any(|&f| f), "workload never fragmented");
        // …and the rebuilt intervals un-stuck it before resolution: the
        // final removals run through the banded fast path again.
        assert!(
            !flag_history.last().unwrap(),
            "fragmentation fallback stayed sticky to the end"
        );
        let first_frag = flag_history.iter().position(|&f| f).unwrap();
        let unstuck_at = first_frag
            + flag_history[first_frag..]
                .iter()
                .position(|&f| !f)
                .expect("flag must clear after fragmenting");
        assert!(
            unstuck_at < flag_history.len() - 1,
            "un-sticking must happen before the final removal so later \
             removals exercise the banded path (history: {flag_history:?})"
        );
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
        assert_eq!(live.engine().pr, EngineSel::Live);
        assert_eq!(oracle.engine().pr, EngineSel::Reference);
        let banded = PathRemover.route_with(&cs, &model, &mut live);
        let reference = PathRemover.route_with(&cs, &model, &mut oracle);
        assert_eq!(banded, reference);
    }
}
