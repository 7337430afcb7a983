//! The Path-remover heuristic (§5.5), with a diagonal-banded incremental
//! reachability engine.
//!
//! PR dominates the per-instance runtime of the §6 campaign because every
//! link removal re-validates the communication's remaining paths. The
//! original formulation (kept verbatim in the private `reference` module)
//! re-sweeps the whole band — forward reachability from the source,
//! backward from the sink, one pass over every diagonal group — on
//! **every** removal. But a removal in diagonal group `t_rm` can only
//! change forward reachability on diagonals *downstream* of `t_rm` and
//! backward reachability *upstream* of it, and in practice the change dies
//! out after one or two diagonals.
//!
//! The banded implementation here exploits the §3.3 band structure: the
//! cores of one diagonal `D_k^{(d)}` inside a bounding box occupy
//! consecutive rows ([`Band::diag_rows`]), so the set of *useful* cores per
//! diagonal (those on at least one surviving source→sink path) is stored
//! as a row bitset over that range. On each removal only the affected
//! diagonals are recomputed, stopping as soon as a recomputed set equals
//! the stored one; path cleaning then re-examines only the touched groups.
//! A removal may split a diagonal's useful rows into several runs; a
//! bitset holds any subset, so every removal takes the same banded path.
//! Each link's bit positions in those sets are fixed by the band, so they
//! are read from [`Band::row_offsets`] instead of decoding the link's
//! endpoints, and every communication's alive flags are one flat array
//! aligned with the band's links ([`Band::group_range`]).
//!
//! Choosing each removal is cheap too. The oracle scans loaded links in
//! decreasing load and, per link, its users in decreasing weight, until
//! one user can give the link up: the link is still alive for it and its
//! diagonal group keeps another alive link. The banded engine counts those
//! *removable* users per link and keeps a [`MaxTree`] to exactly the
//! loaded links with a non-zero count, updating both wherever a removal or
//! a cleaned group kills a link or leaves a group with one link. Every link
//! the oracle's scan would reject is therefore absent, and the removal is
//! always taken from the tree's root, the `(load bits, smaller link id)`
//! maximum. Only that top is ever read, so each load change costs one walk
//! up from the link's leaf instead of an ordered-set re-key. The users of
//! each link are listed in decreasing weight once per route, by emitting
//! the bands in the customized weight order, and the scan of a link's
//! users resumes at a per-link cursor: every reason to reject a user
//! lasts for the rest of the route (a resolved communication stays
//! resolved, a dead link never comes back, a group's alive count never
//! rises), so a user rejected once is never examined again. On the seed-7
//! §6 campaign that cuts the users examined per instance from 2 610 to 721
//! for the same 234 removals.
//!
//! Both implementations produce **bit-identical** routings, errors and load
//! maps: they kill the same links in the same order and perform the same
//! floating-point operations per link. `tests/pr_differential.rs`
//! enforces this with a differential oracle over randomized §6 workloads.
//! Tests and benchmarks swap the engine behind
//! [`HeuristicKind::Pr`](crate::HeuristicKind) by threading
//! [`EngineConfig::REFERENCE`](crate::EngineConfig::REFERENCE) through
//! their scratch or campaign state.

use crate::comm::CommSet;
use crate::heuristic::Heuristic;
use crate::loadq::MaxTree;
use crate::precompute::CustomizedInstance;
use crate::routing::Routing;
use crate::scratch::RouteScratch;
use pamr_mesh::{Band, LinkId, LoadMap, Mesh, Path, Step};
use pamr_power::PowerModel;
use std::ops::Range;

mod reference;

use reference::ReferencePathRemover;

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
/// its bit-identical full-sweep oracle runs in its place on
/// [`EngineConfig::REFERENCE`](crate::EngineConfig::REFERENCE).
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

/// The per-link state every removal updates, kept in sync: the load map,
/// the per-link removable-user counts and the [`MaxTree`] `queue`, which
/// holds exactly the links with strictly positive load and a non-zero
/// removable count. The load *values* are bit-identical to the full-sweep
/// oracle's (same operations per link in the same order), so the tree's
/// root is the first link of the oracle's loaded-link scan that the scan
/// does not reject.
struct QueuedLoads<'a> {
    loads: &'a mut LoadMap,
    queue: &'a mut MaxTree,
    /// Per link slot: how many communications could give the link up (it
    /// is alive for them and its group keeps another alive link).
    removable: &'a mut [u32],
}

impl QueuedLoads<'_> {
    /// [`LoadMap::add`] that re-keys `l` in the tree while it is
    /// removable.
    fn add_load(&mut self, l: LinkId, delta: f64) {
        self.loads.add(l, delta);
        if self.removable[l.index()] > 0 {
            self.queue.set(l, self.loads.get(l));
        }
    }

    /// One communication can no longer give `l` up (the link died for it,
    /// or its group is down to this one link); the last such communication
    /// takes the link out of the tree.
    fn drop_removable(&mut self, l: LinkId) {
        let n = &mut self.removable[l.index()];
        *n -= 1;
        if *n == 0 {
            self.queue.set(l, 0.0);
        }
    }
}

/// The reusable per-removal buffers the banded engine borrows from
/// [`RouteScratch`]: the shared per-link state, plus the forward and
/// backward row sets of one removal, laid out like [`BandedComm::reach`]
/// and split off so path cleaning can read them while it updates `links`.
struct BandBufs<'a> {
    links: QueuedLoads<'a>,
    fwd: &'a mut Vec<u64>,
    bwd: &'a mut Vec<u64>,
}

/// Whether bit `r` of a row set is set.
#[inline]
fn has_row(set: &[u64], r: usize) -> bool {
    set[r / 64] >> (r % 64) & 1 != 0
}

/// Per-communication removal state of the banded engine.
///
/// `band` is the pair's interned [`Band`], borrowed from the route's
/// [`CustomizedInstance`], so building the state writes no shared
/// reference count. Bit `r` of diagonal `t`'s row set stands
/// for row `band.diag_rows(t).0 + r`, so a link of group `t` joins bit
/// `band.row_offsets(t)[j].0` of diagonal `t` to bit
/// `band.row_offsets(t)[j].1` of diagonal `t + 1`.
struct BandedComm<'b> {
    band: &'b Band,
    weight: f64,
    /// Aliveness aligned with the band's flat link array: group `t`'s
    /// flags are `alive[band.group_range(t)]`.
    alive: Vec<bool>,
    /// Current equal share per alive link, per group (`δ / alive_count`).
    share: Vec<f64>,
    /// Alive-link count per group (kept in lock-step with `alive`).
    counts: Vec<usize>,
    /// Words per row set: `⌈widest diagonal / 64⌉`.
    words: usize,
    /// Useful-core row set per diagonal `0 ..= len`, `words` words each:
    /// the cores lying on at least one surviving source→sink path.
    /// Invariant between removals: forward and backward reachability over
    /// the alive links both equal exactly this set, because path cleaning
    /// prunes the alive set down to the union of surviving paths.
    reach: Vec<u64>,
    /// Number of groups with more than one alive link.
    multi: usize,
}

impl<'b> BandedComm<'b> {
    /// Builds the removal state from the pair's interned band.
    fn new(weight: f64, band: &'b Band) -> Self {
        let alive = vec![true; band.num_links()];
        let share: Vec<f64> = band.groups().map(|g| weight / g.len() as f64).collect();
        let counts: Vec<usize> = band.groups().map(|g| g.len()).collect();
        let multi = counts.iter().filter(|&&c| c > 1).count();
        let rows = || (0..=band.len()).map(|t| band.diag_rows(t));
        let widest = rows().map(|(lo, hi)| hi - lo + 1).max();
        let words = widest.unwrap_or(1).div_ceil(64);
        // Every row of every diagonal starts useful.
        let mut reach = vec![0u64; (band.len() + 1) * words];
        for (set, (lo, hi)) in reach.chunks_exact_mut(words).zip(rows()) {
            for r in 0..=hi - lo {
                set[r / 64] |= 1 << (r % 64);
            }
        }
        BandedComm {
            band,
            weight,
            alive,
            share,
            counts,
            words,
            reach,
            multi,
        }
    }

    /// True when every group retains exactly one link.
    #[inline]
    fn resolved(&self) -> bool {
        self.multi == 0
    }

    /// The alive flags of group `t`, aligned with `band.group(t)`.
    #[inline]
    fn alive_in(&self, t: usize) -> &[bool] {
        &self.alive[self.band.group_range(t)]
    }

    /// Applies this communication's fractional load with sign `sign`.
    fn apply_loads(&self, loads: &mut LoadMap, sign: f64) {
        for (t, g) in self.band.groups().enumerate() {
            let s = self.share[t] * sign;
            for (&l, &alive) in g.iter().zip(self.alive_in(t)) {
                if alive {
                    loads.add(l, s);
                }
            }
        }
    }

    /// The words of diagonals `range` in a buffer laid out like `reach`.
    #[inline]
    fn span(&self, range: Range<usize>) -> Range<usize> {
        range.start * self.words..range.end * self.words
    }

    /// Copies the stored useful sets of diagonals `range` into `sets`.
    fn copy_reach(&self, sets: &mut [u64], range: Range<usize>) {
        let span = self.span(range);
        sets[span.clone()].copy_from_slice(&self.reach[span]);
    }

    /// One reachability step across diagonal group `g` inside `sets`, a
    /// buffer laid out like `reach`. Forward, diagonal `g + 1`'s set
    /// becomes the rows reached from diagonal `g`'s set through the
    /// group's alive links; backward, diagonal `g`'s set becomes the rows
    /// reaching diagonal `g + 1`'s set. Returns whether the written set
    /// equals the stored useful set (the stop rule). A link's bit positions
    /// are the band's stored [`Band::row_offsets`].
    fn propagate(&self, g: usize, sets: &mut [u64], forward: bool) -> bool {
        let (head, tail) = sets.split_at_mut((g + 1) * self.words);
        let (prev, next, dst) = if forward {
            (&head[self.span(g..g + 1)], &mut tail[..self.words], g + 1)
        } else {
            (&tail[..self.words], &mut head[self.span(g..g + 1)], g)
        };
        next.fill(0);
        for (&alive, &(from, to)) in self.alive_in(g).iter().zip(self.band.row_offsets(g)) {
            if alive {
                let (key, r) = if forward { (from, to) } else { (to, from) };
                let (key, r) = (key as usize, r as usize);
                if has_row(prev, key) {
                    next[r / 64] |= 1 << (r % 64);
                }
            }
        }
        *next == self.reach[self.span(dst..dst + 1)]
    }

    /// Removes link `(t_rm, j_rm)` and performs the paper's "path cleaning"
    /// and re-sharing, recomputing reachability only on the diagonals the
    /// removal can affect: forward sets downstream of `t_rm` and backward
    /// sets upstream, each propagation stopping as soon as it re-matches
    /// the stored `reach` set. Cleaning then touches only the groups
    /// adjacent to a changed diagonal (plus `t_rm` itself) — the
    /// bit-identical subset of the operations the full sweep performs,
    /// because unchanged groups reproduce the identical share quotient and
    /// skip their load updates entirely.
    fn remove_and_reshare(
        &mut self,
        ci: usize,
        (t_rm, j_rm): (usize, usize),
        bufs: &mut BandBufs<'_>,
    ) -> Result<(), PrError> {
        // Kill the removed link and subtract its current share. The caller
        // picked it from a group with another alive link, so until now this
        // communication could give it up.
        debug_assert!(self.counts[t_rm] > 1, "removal from a one-link group");
        let l_rm = self.band.group(t_rm)[j_rm];
        self.alive[self.band.group_range(t_rm).start + j_rm] = false;
        bufs.links.drop_removable(l_rm);
        bufs.links.add_load(l_rm, -self.share[t_rm]);

        let len = self.band.len();
        if bufs.fwd.len() < self.reach.len() {
            bufs.fwd.resize(self.reach.len(), 0);
            bufs.bwd.resize(self.reach.len(), 0);
        }
        // Forward reachability, recomputed downstream of the removed group
        // until it re-matches the stored useful set. `f_stop` is the first
        // diagonal ≥ t_rm+1 whose forward set did not change.
        self.copy_reach(bufs.fwd, t_rm..t_rm + 1);
        let f_stop = (t_rm + 1..=len)
            .find(|&t| self.propagate(t - 1, bufs.fwd, true))
            .unwrap_or(len + 1);
        // Backward reachability upstream. `b_start` is the first (lowest)
        // diagonal whose backward set changed.
        self.copy_reach(bufs.bwd, t_rm + 1..t_rm + 2);
        let b_start = (0..=t_rm)
            .rev()
            .find(|&t| self.propagate(t, bufs.bwd, false))
            .map_or(0, |t| t + 1);

        // Clean and re-share the affected groups, in increasing order so a
        // structural error names the same group as the full sweep. Group t
        // is affected iff its source diagonal's forward set changed
        // (t_rm < t < f_stop), its sink diagonal's backward set changed
        // (b_start ≤ t+1 ≤ t_rm), or it lost the removed link (t = t_rm).
        // The range's unchanged sets are copied in beside the recomputed
        // ones, so cleaning reads both sides from the buffers.
        let (g_lo, g_hi) = (b_start.saturating_sub(1), (f_stop - 1).min(len - 1));
        self.copy_reach(bufs.fwd, g_lo..t_rm);
        self.copy_reach(bufs.bwd, t_rm + 2..g_hi + 2);
        for t in g_lo..=g_hi {
            let fwd_t = &bufs.fwd[self.span(t..t + 1)];
            let bwd_t1 = &bufs.bwd[self.span(t + 1..t + 2)];
            self.clean_group(ci, t, &mut bufs.links, fwd_t, bwd_t1)?;
        }

        // Fold the recomputed reachability into the stored useful sets:
        // after cleaning, the useful cores of a diagonal are exactly the
        // forward-reachable ∩ backward-reachable ones, and an empty
        // intersection would have surfaced above as an emptied group.
        let upstream = (self.span(b_start..t_rm + 1), bufs.bwd.as_slice());
        let downstream = (self.span(t_rm + 1..f_stop), bufs.fwd.as_slice());
        for (span, sets) in [upstream, downstream] {
            for (r, s) in self.reach[span.clone()].iter_mut().zip(&sets[span]) {
                *r &= s;
            }
        }
        Ok(())
    }

    /// Path cleaning and re-sharing of diagonal group `t`: kills every
    /// alive link that does not join a core of `fwd_t` (diagonal `t`'s
    /// forward set) to a core of `bwd_t1` (diagonal `t + 1`'s backward
    /// set), spreads the weight equally over the survivors, and updates
    /// `counts`, `multi` and the removable counts — a killed link of a
    /// multi-link group loses this communication as a removable user, and
    /// so does the survivor of a group cleaned down to one link. The load
    /// operations are the full-sweep oracle's, in its order; `ci` labels
    /// the error of an emptied group.
    fn clean_group(
        &mut self,
        ci: usize,
        t: usize,
        links: &mut QueuedLoads<'_>,
        fwd_t: &[u64],
        bwd_t1: &[u64],
    ) -> Result<(), PrError> {
        let g = self.band.group(t);
        let offsets = self.band.row_offsets(t);
        let range = self.band.group_range(t);
        let alive = &mut self.alive[range.clone()];
        let old_share = self.share[t];
        let was_multi = self.counts[t] > 1;
        let (mut count, mut last) = (0usize, 0usize);
        for (j, (&l, &(from, to))) in g.iter().zip(offsets).enumerate() {
            if alive[j] {
                if has_row(fwd_t, from as usize) && has_row(bwd_t1, to as usize) {
                    count += 1;
                    last = j;
                } else {
                    alive[j] = false;
                    if was_multi {
                        links.drop_removable(l);
                    }
                    links.add_load(l, -old_share);
                }
            }
        }
        if count == 0 {
            return Err(PrError::EmptiedGroup { comm: ci, group: t });
        }
        if was_multi && count == 1 {
            self.multi -= 1;
            links.drop_removable(g[last]);
        }
        let new_share = self.weight / count as f64;
        // Exact comparison: an unchanged count reproduces the identical
        // quotient, so untouched groups skip the load updates entirely.
        if new_share != old_share {
            for (&l, &alive) in g.iter().zip(&self.alive[range]) {
                if alive {
                    links.add_load(l, new_share - old_share);
                }
            }
            self.share[t] = new_share;
        }
        self.counts[t] = count;
        Ok(())
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
        if !self.alive_in(t)[j] {
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
            let Some(j) = self.alive_in(t).iter().position(|&a| a) else {
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
        if scratch.engine().is_reference() {
            ReferencePathRemover.try_route_with(cs, model, scratch)
        } else {
            self.try_route_banded_with(cs, scratch)
        }
    }

    /// The banded engine.
    fn try_route_banded_with(
        &self,
        cs: &CommSet,
        scratch: &mut RouteScratch,
    ) -> Result<Routing, PrError> {
        let mesh = cs.mesh();
        let cust = scratch.ensure_customized(cs);
        let mut comms = seed_route(cs, &cust, scratch);

        // Iteratively remove the most loaded link from the largest
        // communication that can give it up. The oracle's scan settles on
        // the first loaded link some communication can give up, which is
        // the top of the tree. An empty tree means no unresolved
        // communication can lose any link (as would a top no candidate
        // can give up, which the counts rule out): a structural error in
        // both builds.
        let mut unresolved = comms.iter().filter(|c| !c.resolved()).count();
        while unresolved > 0 {
            let top = scratch.top.peek_max().and_then(|(link, _)| {
                let cursor = &mut scratch.cursor[link.index()];
                select(mesh, &comms, scratch.xusers.row(link.index()), cursor, link)
            });
            let Some((i, t, j)) = top else {
                return Err(PrError::Stuck { unresolved });
            };
            comms[i].remove_and_reshare(i, (t, j), &mut scratch.band_bufs())?;
            if comms[i].resolved() {
                unresolved -= 1;
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

impl RouteScratch {
    /// The shared per-link state and row-set buffers one removal updates.
    fn band_bufs(&mut self) -> BandBufs<'_> {
        BandBufs {
            links: QueuedLoads {
                loads: &mut self.loads,
                queue: &mut self.top,
                removable: &mut self.removable,
            },
            fwd: &mut self.fwd_rows,
            bwd: &mut self.bwd_rows,
        }
    }
}

/// Seeds one banded route: builds every communication's removal state
/// over `cust`'s bands, applies the fractional loads, and resets the
/// scratch's crossing rows, removable counts, removal tree and selection
/// cursors for `cs`.
fn seed_route<'c>(
    cs: &CommSet,
    cust: &'c CustomizedInstance,
    scratch: &mut RouteScratch,
) -> Vec<BandedComm<'c>> {
    let mesh = cs.mesh();
    let comms: Vec<BandedComm> = (cs.comms().iter().zip(cust.bands()))
        .map(|(c, band)| BandedComm::new(c.weight, band))
        .collect();
    scratch.loads.fit(mesh);
    for c in &comms {
        c.apply_loads(&mut scratch.loads, 1.0);
    }
    // Which communications' bands contain each link (static superset,
    // built flat-CSR in two counting passes over the bands). The bands
    // are emitted in the customized decreasing-weight order (ties towards
    // the smaller index), and a rebuilt row keeps emission order, so each
    // row already lists its users in the order the full-sweep oracle
    // re-sorts them per examined link.
    let nslots = mesh.num_link_slots();
    scratch.xusers.rebuild(nslots, |push| {
        for &i in cust.by_weight() {
            for l in comms[i].band.links() {
                push(l.index(), i as u32);
            }
        }
    });
    scratch.cursor.clear();
    scratch.cursor.resize(nslots, 0);
    // Per-link removable-user counts: a communication can give a link
    // up while the link is alive for it and its group keeps another
    // alive link. Every removal and every cleaned group keeps them
    // current ([`BandedComm::clean_group`]).
    scratch.removable.clear();
    scratch.removable.resize(nslots, 0);
    for c in &comms {
        for g in c.band.groups().filter(|g| g.len() > 1) {
            for l in g {
                scratch.removable[l.index()] += 1;
            }
        }
    }
    // The removal index ([`MaxTree`]): exactly the links with positive
    // load and a non-zero removable count, topped by the most loaded
    // one with ties towards the smaller link id — the first link of the
    // full-sweep oracle's scan order that the scan does not reject.
    // Maintained incrementally by [`QueuedLoads`] instead of being
    // rebuilt (and re-scanned, O(links²)) on every removal.
    let removable = &scratch.removable;
    scratch.top.rebuild(
        nslots,
        scratch
            .loads
            .iter_active()
            .filter(|(l, _)| removable[l.index()] > 0),
    );
    comms
}

/// Whether communication `i` can give `link` up: it is unresolved and
/// still holds the link in a group with another alive link (every alive
/// link lies on some path after cleaning, so a sibling link guarantees a
/// surviving path). Returns the link's group and its position there.
fn qualifies(mesh: &Mesh, comms: &[BandedComm], i: u32, link: LinkId) -> Option<(usize, usize)> {
    let c = &comms[i as usize];
    if c.resolved() {
        return None;
    }
    match c.locate(mesh, link) {
        Some((t, j, count)) if count >= 2 => Some((t, j)),
        _ => None,
    }
}

/// Picks the communication that gives `link` up: the first of `row` (the
/// link's users in decreasing weight) that [`qualifies`], scanning from
/// `cursor` and moving the cursor past each candidate it rejects. This is
/// the oracle's full scan of the row: every rejection lasts for the rest
/// of the route (a resolved communication stays resolved, a dead link
/// never comes back, and a group's alive count never rises), so the
/// candidates before the cursor would all be rejected again.
fn select(
    mesh: &Mesh,
    comms: &[BandedComm],
    row: &[u32],
    cursor: &mut u32,
    link: LinkId,
) -> Option<(usize, usize, usize)> {
    while let Some(&i) = row.get(*cursor as usize) {
        if let Some((t, j)) = qualifies(mesh, comms, i, link) {
            return Some((i as usize, t, j));
        }
        *cursor += 1;
    }
    None
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
    use pamr_mesh::{Coord, Mesh};
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
        // tests/pr_differential.rs): identical routings on random
        // instances covering all four quadrants, straight lines and local
        // traffic.
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
            let banded = PathRemover.try_route_with(&cs, &model, &mut scratch);
            let reference = ReferencePathRemover.try_route_with(&cs, &model, &mut scratch);
            assert_eq!(
                banded.unwrap(),
                reference.unwrap(),
                "seed {seed}: banded PR diverged from the full-sweep oracle"
            );
        }
    }

    #[test]
    fn cursor_picks_the_first_qualifying_candidate_of_the_whole_row() {
        // Drive the engine's own seeding, selection and removal on random
        // 8×8 instances through one scratch (a cursor left over from the
        // previous route would show), checking every pick against a scan
        // of the link's whole row.
        let mesh = Mesh::new(8, 8);
        let mut scratch = RouteScratch::new();
        let mut removals = 0;
        for seed in 0..16u64 {
            let mut rng = SmallRng::seed_from_u64(seed);
            let n = rng.gen_range(8..=40);
            let comms = (0..n)
                .map(|_| {
                    Comm::new(
                        Coord::new(rng.gen_range(0..8), rng.gen_range(0..8)),
                        Coord::new(rng.gen_range(0..8), rng.gen_range(0..8)),
                        rng.gen_range(100.0..2500.0),
                    )
                })
                .collect();
            let cs = CommSet::new(mesh, comms);
            let cust = scratch.ensure_customized(&cs);
            let mut comms = seed_route(&cs, &cust, &mut scratch);
            while comms.iter().any(|c| !c.resolved()) {
                let (link, _) = scratch.top.peek_max().expect("a removable link");
                let row = scratch.xusers.row(link.index());
                let cursor = &mut scratch.cursor[link.index()];
                let picked = select(&mesh, &comms, row, cursor, link);
                let first = row.iter().find_map(|&i| {
                    qualifies(&mesh, &comms, i, link).map(|(t, j)| (i as usize, t, j))
                });
                assert_eq!(picked, first, "seed {seed}, removal {removals}: {link}");
                // The cursor never passes a candidate that still
                // qualifies: it rests on the one it picked.
                let (i, t, j) = picked.expect("the top link has a removable user");
                assert_eq!(row[*cursor as usize] as usize, i, "seed {seed}: cursor");
                comms[i]
                    .remove_and_reshare(i, (t, j), &mut scratch.band_bufs())
                    .unwrap();
                removals += 1;
            }
        }
        assert!(removals > 200, "only {removals} removals");
    }

    /// A fresh recount of every link slot's removable users among
    /// `comms`: the communications the link is alive for whose group keeps
    /// at least two alive links.
    fn recount_removable(mesh: &Mesh, comms: &[&BandedComm]) -> Vec<u32> {
        let mut n = vec![0u32; mesh.num_link_slots()];
        for c in comms {
            for (t, g) in c.band.groups().enumerate() {
                if c.alive_in(t).iter().filter(|&&a| a).count() >= 2 {
                    for (&l, &alive) in g.iter().zip(c.alive_in(t)) {
                        if alive {
                            n[l.index()] += 1;
                        }
                    }
                }
            }
        }
        n
    }

    /// The mesh rows of diagonal `t`'s stored useful set.
    fn stored_rows(c: &BandedComm, t: usize) -> Vec<usize> {
        let (lo, hi) = c.band.diag_rows(t);
        let set = &c.reach[c.span(t..t + 1)];
        (lo..=hi).filter(|&u| has_row(set, u - lo)).collect()
    }

    #[test]
    fn split_useful_sets_stay_on_the_banded_path() {
        // Drive a banded comm and a reference comm through the identical
        // removal sequence, picking removals that disconnect the middle of
        // a diagonal: the diagonal-2 useful rows of a 4×4 corner-to-corner
        // band become {0, 2} (two runs), which the banded path must store
        // and keep bit-identical to the full sweep throughout. A second,
        // smaller comm shares part of
        // the band and is never removed from, so some links keep a
        // removable user (and their tree entry) after the first comm
        // gives them up, and others leave the tree.
        let mesh = Mesh::new(4, 4);
        let (src, snk) = (Coord::new(0, 0), Coord::new(3, 3));
        let (src2, snk2) = (Coord::new(0, 1), Coord::new(2, 3));
        let (band, other_band) = (Band::new(&mesh, src, snk), Band::new(&mesh, src2, snk2));
        let mut banded = BandedComm::new(2.0, &band);
        let mut reference = reference::RefComm::new(&mesh, src, snk, 2.0);
        let other = BandedComm::new(1.0, &other_band);
        let other_ref = reference::RefComm::new(&mesh, src2, snk2, 1.0);
        let mut loads_b = pamr_mesh::LoadMap::new(&mesh);
        let mut loads_r = pamr_mesh::LoadMap::new(&mesh);
        banded.apply_loads(&mut loads_b, 1.0);
        other.apply_loads(&mut loads_b, 1.0);
        reference.apply_loads(&mut loads_r, 1.0);
        other_ref.apply_loads(&mut loads_r, 1.0);
        // Real removable counts, and the tree the engine seeds from them.
        let mut removable = recount_removable(&mesh, &[&banded, &other]);
        assert!(removable.contains(&2), "the bands must overlap");
        let mut scratch = crate::RouteScratch::new();
        scratch.top.rebuild(
            mesh.num_link_slots(),
            loads_b
                .iter_active()
                .filter(|(l, _)| removable[l.index()] > 0),
        );
        let (mut fwd, mut bwd) = (Vec::new(), Vec::new());

        // Group 1 holds the four links leaving diagonal 1; the first two
        // removals take the two links entering the middle core (1,1) of
        // diagonal 2. Later removals take the first alive link of the
        // first multi-link group until the comm resolves.
        let mut into_middle = banded
            .band
            .group(1)
            .iter()
            .enumerate()
            .filter(|(_, &l)| mesh.link_endpoints(l).1 == Coord::new(1, 1))
            .map(|(j, _)| (1, j))
            .collect::<Vec<_>>()
            .into_iter();
        assert_eq!(into_middle.len(), 2);
        let mut step = 0;
        while !banded.resolved() {
            let (t, j) = into_middle.next().unwrap_or_else(|| {
                let t = banded.counts.iter().position(|&c| c >= 2).unwrap();
                (t, banded.alive_in(t).iter().position(|&a| a).unwrap())
            });
            let mut bufs = BandBufs {
                links: QueuedLoads {
                    loads: &mut loads_b,
                    queue: &mut scratch.top,
                    removable: &mut removable,
                },
                fwd: &mut scratch.fwd_rows,
                bwd: &mut scratch.bwd_rows,
            };
            banded.remove_and_reshare(0, (t, j), &mut bufs).unwrap();
            reference
                .remove_and_reshare(&mesh, 0, (t, j), &mut loads_r, &mut fwd, &mut bwd)
                .unwrap();
            step += 1;
            assert_eq!(
                banded.alive,
                reference.alive.concat(),
                "alive sets diverged"
            );
            for l in mesh.links() {
                assert_eq!(
                    loads_b.get(l).to_bits(),
                    loads_r.get(l).to_bits(),
                    "load of {l} diverged"
                );
            }
            if step == 2 {
                assert_eq!(stored_rows(&banded, 2), [0, 2], "diagonal 2 did not split");
            }
            // The stored sets are the cores the oracle's sweep found both
            // forward- and backward-reachable…
            for c in banded.band.rect().cores() {
                let t = mesh.diag_index(c, banded.band.quadrant()) - banded.band.k_src();
                let i = mesh.core_index(c);
                assert_eq!(
                    stored_rows(&banded, t).contains(&c.u),
                    fwd[i] && bwd[i],
                    "removal {step}: useful set of diagonal {t} at {c}"
                );
            }
            // …the maintained counts equal a fresh recount…
            assert_eq!(
                removable,
                recount_removable(&mesh, &[&banded, &other]),
                "removal {step}: removable counts drifted"
            );
            // …and the tree holds exactly the loaded links with a
            // non-zero count, keyed by their load, topped by their
            // select_max maximum.
            let mut queued = Vec::new();
            for l in mesh.links() {
                let load = loads_b.get(l);
                let want = if load > 0.0 && removable[l.index()] > 0 {
                    queued.push((l, load));
                    load
                } else {
                    0.0
                };
                assert_eq!(
                    scratch.top.get(l).to_bits(),
                    want.to_bits(),
                    "removal {step}: tree entry of {l}"
                );
            }
            assert_eq!(scratch.top.len(), queued.len(), "removal {step}: tree size");
            assert_eq!(
                scratch.top.peek_max(),
                crate::loadq::select_max(&mut queued, 0),
                "removal {step}: tree top"
            );
        }
        assert_eq!(banded.resolved(), reference.resolved);
        // The first comm gave up links the second never held: they left
        // the tree while still loaded by the first comm's final path.
        assert!(
            mesh.links()
                .any(|l| loads_b.get(l) > 0.0 && scratch.top.get(l) == 0.0),
            "no link left the tree"
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
        let banded = PathRemover.route_with(&cs, &model, &mut live);
        let reference = PathRemover.route_with(&cs, &model, &mut oracle);
        assert_eq!(banded, reference);
    }
}
