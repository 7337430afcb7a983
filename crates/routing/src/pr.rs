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
//!
//! A communication's alive links are row sets too: per diagonal group, a
//! vertical and a horizontal mask over the group's source diagonal, seeded
//! from the band's own [`Band::group_masks`]. A link from row `r` ends on
//! row `r + shift` of the next diagonal, with one shift per group and axis
//! ([`Band::shifts`]), so both halves of a removal are a few word
//! operations per group with any number of 64-row words:
//!
//! * a forward reachability step is `shift(prev & V) | shift(prev & H)`,
//!   a backward one `(unshift(next) & V) | (unshift(next) & H)`;
//! * cleaning keeps `V & fwd_t & unshift(bwd_t+1)` (and the same for
//!   `H`), and only the killed bits, and the survivors when the group's
//!   share changes, are walked for their load updates, each link id
//!   computed from its row ([`Band::link_at`]);
//! * finding a link for a removal is one bit test, and reading a resolved
//!   communication's path one trailing-zeros count per group.
//!
//! Every communication's masks, useful sets, shares and counts live in flat
//! arenas of the [`RouteScratch`], carved per route, so a route allocates
//! no per-communication state.
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
//! maps: they make the same removals, kill the same links at each, and
//! perform the same floating-point operations on each link in the same
//! order (the order *across* links within one cleaning differs, and no
//! value depends on it). `tests/pr_differential.rs`
//! enforces this with a differential oracle over randomized §6 workloads.
//! Tests and benchmarks swap the engine behind
//! [`HeuristicKind::Pr`](crate::HeuristicKind) by threading
//! [`EngineConfig::REFERENCE`](crate::EngineConfig::REFERENCE) through
//! their scratch or campaign state.

use crate::comm::CommSet;
use crate::csr::CrossingIndex;
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
    fwd: &'a mut [u64],
    bwd: &'a mut [u64],
}

/// A band link's place in its communication's masks: its group, its axis
/// (`0` vertical, `1` horizontal, as in [`Band::group_masks`]) and its row
/// on the group's source diagonal.
type Place = (usize, usize, usize);

/// Whether bit `r` of a row set is set.
#[inline]
fn has_row(set: &[u64], r: usize) -> bool {
    set[r / 64] >> (r % 64) & 1 != 0
}

/// Word `i` of an `n`-word row set moved by `s` rows (−1, 0 or +1): bit
/// `r` goes to bit `r + s`, carried across word boundaries, and a bit moved
/// past either end drops out. `set(k)` yields word `k` of the set, so a
/// step can shift an expression such as `prev & mask` without storing it.
#[inline]
fn shifted(set: impl Fn(usize) -> u64, n: usize, i: usize, s: i8) -> u64 {
    match s {
        1 if i > 0 => set(i) << 1 | set(i - 1) >> 63,
        1 => set(i) << 1,
        -1 if i + 1 < n => set(i) >> 1 | set(i + 1) << 63,
        -1 => set(i) >> 1,
        _ => set(i),
    }
}

/// Calls `f` with the row of each set bit of `word`, word `i` of a row
/// set, in increasing order.
#[inline]
fn each_row(mut word: u64, i: usize, mut f: impl FnMut(usize)) {
    while word != 0 {
        f(64 * i + word.trailing_zeros() as usize);
        word &= word - 1;
    }
}

/// Banded PR's per-route arenas, kept in [`RouteScratch`] and reused
/// across routes: the row-set buffers of one removal and each
/// communication's removal state, carved out by [`PrArena::seed`].
#[derive(Debug, Default)]
pub(crate) struct PrArena {
    /// The forward and the backward row sets of one removal, then per
    /// communication its alive masks, laid out like [`Band::masks`], and its
    /// useful row set per diagonal, [`Band::words`] words each.
    words: Vec<u64>,
    /// Per group of every communication: its share and alive count.
    groups: Vec<GroupState>,
}

/// One diagonal group's share of its communication and alive-link count.
#[derive(Debug, Default, Clone, Copy)]
struct GroupState {
    /// Current equal share per alive link (`δ / count`).
    share: f64,
    /// Alive-link count (kept in lock-step with the alive masks).
    count: u32,
}

impl PrArena {
    /// Carves each communication's initial removal state, in `comms`
    /// order, out of the arenas: every band link alive, every row useful and
    /// the weight shared equally within each group. Also returns the
    /// forward and backward row-set buffers of one removal, each as long
    /// as the longest band's row sets.
    fn seed<'a, I>(&'a mut self, comms: I) -> (Vec<BandedComm<'a>>, [&'a mut [u64]; 2])
    where
        I: Iterator<Item = (f64, &'a Band)> + Clone,
    {
        let (mut sets, mut nwords, mut ngroups) = (0, 0, 0);
        for (_, band) in comms.clone() {
            let reach = (band.len() + 1) * band.words();
            sets = sets.max(reach);
            nwords += 2 * band.len() * band.words() + reach;
            ngroups += band.len();
        }
        // Every word and entry is written before it is read, so a resize is
        // enough.
        self.words.resize(2 * sets + nwords, 0);
        self.groups.resize(ngroups, GroupState::default());
        let (fwd, rest) = self.words.split_at_mut(sets);
        let (bwd, mut words) = rest.split_at_mut(sets);
        let mut groups = &mut self.groups[..];
        let comms = comms
            .map(|(weight, band)| {
                let (w, len) = (band.words(), band.len());
                let (alive, rest) = std::mem::take(&mut words).split_at_mut(2 * len * w);
                let (reach, rest) = rest.split_at_mut((len + 1) * w);
                words = rest;
                let (g, rest) = std::mem::take(&mut groups).split_at_mut(len);
                groups = rest;
                BandedComm::new(weight, band, alive, reach, g)
            })
            .collect();
        (comms, [fwd, bwd])
    }
}

/// Per-communication removal state of the banded engine, borrowed from
/// [`PrArena`].
///
/// `band` is the pair's interned [`Band`], borrowed from the route's
/// [`CustomizedInstance`], so building the state writes no shared
/// reference count. Bit `r` of diagonal `t`'s row set stands for row
/// `band.diag_rows(t).0 + r`, and group `t`'s alive links are two such
/// sets over diagonal `t`, laid out like the band's own
/// [`Band::group_masks`]: a link of axis `a` from row `r` ends on row
/// `r + band.shifts(t)[a]` of diagonal `t + 1`.
struct BandedComm<'a> {
    band: &'a Band,
    weight: f64,
    /// Words per row set ([`Band::words`]).
    words: usize,
    /// The band's masks less the links removed or cleaned so far.
    alive: &'a mut [u64],
    /// Useful-core row set per diagonal `0 ..= len`, `words` words each:
    /// the cores lying on at least one surviving source→sink path.
    /// Invariant between removals: forward and backward reachability over
    /// the alive links both equal exactly this set, because path cleaning
    /// prunes the alive set down to the union of surviving paths.
    reach: &'a mut [u64],
    /// Per group: the share of each alive link and their count.
    groups: &'a mut [GroupState],
    /// Number of groups with more than one alive link.
    multi: usize,
}

impl<'a> BandedComm<'a> {
    /// Writes the initial removal state into the carved slices.
    fn new(
        weight: f64,
        band: &'a Band,
        alive: &'a mut [u64],
        reach: &'a mut [u64],
        groups: &'a mut [GroupState],
    ) -> Self {
        let words = band.words();
        alive.copy_from_slice(band.masks());
        // Every row of every diagonal starts useful.
        for (t, set) in reach.chunks_exact_mut(words).enumerate() {
            let (lo, hi) = band.diag_rows(t);
            let rows = hi - lo + 1;
            for (i, word) in set.iter_mut().enumerate() {
                *word = match rows.saturating_sub(64 * i) {
                    0 => 0,
                    n if n >= 64 => u64::MAX,
                    n => (1 << n) - 1,
                };
            }
        }
        for (group, links) in groups.iter_mut().zip(band.groups()) {
            *group = GroupState {
                share: weight / links.len() as f64,
                count: links.len() as u32,
            };
        }
        let multi = groups.iter().filter(|g| g.count > 1).count();
        BandedComm {
            band,
            weight,
            words,
            alive,
            reach,
            groups,
            multi,
        }
    }

    /// True when every group retains exactly one link.
    #[inline]
    fn resolved(&self) -> bool {
        self.multi == 0
    }

    /// Group `t`'s alive masks, vertical then horizontal.
    #[inline]
    fn alive_in(&self, t: usize) -> [&[u64]; 2] {
        let w = self.words;
        let (v, h) = self.alive[2 * t * w..2 * (t + 1) * w].split_at(w);
        [v, h]
    }

    /// Calls `f` on every alive link of group `t`.
    fn for_alive(&self, t: usize, mut f: impl FnMut(LinkId)) {
        for (axis, set) in self.alive_in(t).into_iter().enumerate() {
            for (i, &word) in set.iter().enumerate() {
                each_row(word, i, |r| f(self.band.link_at(t, axis, r)));
            }
        }
    }

    /// Group `t`'s alive link on its lowest alive row, vertical first (the
    /// band's link order): one trailing-zeros count per axis.
    fn first_alive(&self, t: usize) -> Option<LinkId> {
        let lowest = |set: &[u64]| {
            let i = set.iter().position(|&word| word != 0)?;
            Some(64 * i + set[i].trailing_zeros() as usize)
        };
        let (r, axis) = (self.alive_in(t).into_iter().enumerate())
            .filter_map(|(axis, set)| Some((lowest(set)?, axis)))
            .min()?;
        Some(self.band.link_at(t, axis, r))
    }

    /// Applies this communication's fractional load with sign `sign`.
    fn apply_loads(&self, loads: &mut LoadMap, sign: f64) {
        for t in 0..self.band.len() {
            let s = self.groups[t].share * sign;
            self.for_alive(t, |l| loads.add(l, s));
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
    /// buffer laid out like `reach`, as word operations on the group's
    /// alive masks `V` and `H`. Forward, diagonal `g + 1`'s set becomes
    /// `shift(prev & V) | shift(prev & H)`, the rows reached from diagonal
    /// `g`'s set; backward, diagonal `g`'s set becomes
    /// `(unshift(next) & V) | (unshift(next) & H)`, the rows reaching
    /// diagonal `g + 1`'s set. Returns whether the written set equals the
    /// stored useful set (the stop rule).
    fn propagate(&self, g: usize, sets: &mut [u64], forward: bool) -> bool {
        let w = self.words;
        let [v, h] = self.alive_in(g);
        let [sv, sh] = self.band.shifts(g);
        let (head, tail) = sets.split_at_mut((g + 1) * w);
        let dst = if forward {
            let (prev, next) = (&head[g * w..], &mut tail[..w]);
            for (i, word) in next.iter_mut().enumerate() {
                *word =
                    shifted(|k| prev[k] & v[k], w, i, sv) | shifted(|k| prev[k] & h[k], w, i, sh);
            }
            g + 1
        } else {
            let (next, prev) = (&tail[..w], &mut head[g * w..]);
            for (i, word) in prev.iter_mut().enumerate() {
                *word =
                    shifted(|k| next[k], w, i, -sv) & v[i] | shifted(|k| next[k], w, i, -sh) & h[i];
            }
            g
        };
        let span = self.span(dst..dst + 1);
        sets[span.clone()] == self.reach[span]
    }

    /// Removes the link at `(t_rm, axis, r)` and performs the paper's "path
    /// cleaning" and re-sharing, recomputing reachability only on the
    /// diagonals the removal can affect: forward sets downstream of `t_rm`
    /// and backward sets upstream, each propagation stopping as soon as it
    /// re-matches the stored `reach` set. Cleaning then touches only the
    /// groups adjacent to a changed diagonal (plus `t_rm` itself) — the
    /// bit-identical subset of the operations the full sweep performs,
    /// because unchanged groups reproduce the identical share quotient and
    /// skip their load updates entirely.
    fn remove_and_reshare(
        &mut self,
        ci: usize,
        (t_rm, axis, r): Place,
        bufs: &mut BandBufs<'_>,
    ) -> Result<(), PrError> {
        // Kill the removed link and subtract its current share. The caller
        // picked it from a group with another alive link, so until now this
        // communication could give it up.
        debug_assert!(self.groups[t_rm].count > 1, "removal from a one-link group");
        let l_rm = self.band.link_at(t_rm, axis, r);
        self.alive[(2 * t_rm + axis) * self.words + r / 64] &= !(1 << (r % 64));
        bufs.links.drop_removable(l_rm);
        bufs.links.add_load(l_rm, -self.groups[t_rm].share);

        // Forward reachability, recomputed downstream of the removed group
        // until it re-matches the stored useful set. `f_stop` is the first
        // diagonal ≥ t_rm+1 whose forward set did not change.
        let len = self.band.len();
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
        let upstream = (self.span(b_start..t_rm + 1), &*bufs.bwd);
        let downstream = (self.span(t_rm + 1..f_stop), &*bufs.fwd);
        for (span, sets) in [upstream, downstream] {
            for (r, s) in self.reach[span.clone()].iter_mut().zip(&sets[span]) {
                *r &= s;
            }
        }
        Ok(())
    }

    /// Path cleaning and re-sharing of diagonal group `t`: keeps the alive
    /// links that join a core of `fwd_t` (diagonal `t`'s forward set) to a
    /// core of `bwd_t1` (diagonal `t + 1`'s backward set), `V & fwd_t &
    /// unshift(bwd_t1)` per axis, spreads the weight equally over the
    /// survivors, and updates `counts`, `multi` and the removable counts —
    /// a killed link of a multi-link group loses this communication as a
    /// removable user, and so does the survivor of a group cleaned down to
    /// one link. Only the killed bits, and the survivors when the share
    /// changes, are walked; each such link gets the full-sweep oracle's
    /// one load operation. `ci` labels the error of an emptied group.
    fn clean_group(
        &mut self,
        ci: usize,
        t: usize,
        links: &mut QueuedLoads<'_>,
        fwd_t: &[u64],
        bwd_t1: &[u64],
    ) -> Result<(), PrError> {
        let (w, band) = (self.words, self.band);
        let shifts = band.shifts(t);
        let old_share = self.groups[t].share;
        let was_multi = self.groups[t].count > 1;
        let mut count = 0;
        let masks = &mut self.alive[2 * t * w..2 * (t + 1) * w];
        for (axis, mask) in masks.chunks_exact_mut(w).enumerate() {
            let s = shifts[axis];
            for (i, word) in mask.iter_mut().enumerate() {
                let keep = *word & fwd_t[i] & shifted(|k| bwd_t1[k], w, i, -s);
                let killed = *word & !keep;
                *word = keep;
                count += keep.count_ones();
                each_row(killed, i, |r| {
                    let l = band.link_at(t, axis, r);
                    if was_multi {
                        links.drop_removable(l);
                    }
                    links.add_load(l, -old_share);
                });
            }
        }
        if count == 0 {
            return Err(PrError::EmptiedGroup { comm: ci, group: t });
        }
        if was_multi && count == 1 {
            self.multi -= 1;
            // Exactly one bit is left: the group's survivor.
            if let Some(survivor) = self.first_alive(t) {
                links.drop_removable(survivor);
            }
        }
        let new_share = self.weight / count as f64;
        // Exact comparison: an unchanged count reproduces the identical
        // quotient, so untouched groups skip the load updates entirely.
        if new_share != old_share {
            self.for_alive(t, |l| links.add_load(l, new_share - old_share));
        }
        self.groups[t] = GroupState {
            share: new_share,
            count,
        };
        Ok(())
    }

    /// The place of `link` and its group's alive-link count, if the link is
    /// alive for this communication: one bit test, no scan of the group.
    fn locate(&self, mesh: &Mesh, link: LinkId) -> Option<(Place, u32)> {
        if self.band.is_empty() {
            return None;
        }
        let (from, _) = mesh.link_endpoints(link);
        let k = mesh.diag_index(from, self.band.quadrant());
        let t = k.checked_sub(self.band.k_src())?;
        if t >= self.band.len() {
            return None;
        }
        let r = from.u.checked_sub(self.band.diag_rows(t).0)?;
        let axis = usize::from(mesh.link_step(link).is_horizontal());
        let alive = r < 64 * self.words
            && has_row(self.alive_in(t)[axis], r)
            && self.band.link_at(t, axis, r) == link;
        alive.then_some(((t, axis, r), self.groups[t].count))
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
        for t in 0..self.band.len() {
            let Some(link) = self.first_alive(t) else {
                return Err(PrError::EmptiedGroup { comm: ci, group: t });
            };
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
        let mut route = seed_route(cs, &cust, scratch);

        // Iteratively remove the most loaded link from the largest
        // communication that can give it up. The oracle's scan settles on
        // the first loaded link some communication can give up, which is
        // the top of the tree. An empty tree means no unresolved
        // communication can lose any link (as would a top no candidate
        // can give up, which the counts rule out): a structural error in
        // both builds.
        let mut unresolved = route.comms.iter().filter(|c| !c.resolved()).count();
        while unresolved > 0 {
            let Some((i, place)) = route.next_removal(mesh) else {
                return Err(PrError::Stuck { unresolved });
            };
            route.comms[i].remove_and_reshare(i, place, &mut route.bufs)?;
            if route.comms[i].resolved() {
                unresolved -= 1;
            }
        }

        let paths = (route.comms.iter().enumerate())
            .map(|(i, c)| c.final_path(mesh, i))
            .collect::<Result<Vec<_>, _>>()?;
        Ok(Routing::single(cs, paths))
    }
}

/// One banded route's working state, split out of [`RouteScratch`]: the
/// communications' removal state, carved from the scratch's
/// [`PrArena`], beside the shared per-link state each removal updates
/// and the selection rows and cursors it reads.
struct Route<'s> {
    comms: Vec<BandedComm<'s>>,
    bufs: BandBufs<'s>,
    /// Per link: its users in decreasing weight.
    xusers: &'s CrossingIndex,
    /// Per link: the selection cursor into its `xusers` row.
    cursor: &'s mut [u32],
}

impl Route<'_> {
    /// The next removal: the top link of the tree and the communication
    /// that gives it up ([`select`]), or `None` when the tree is empty.
    fn next_removal(&mut self, mesh: &Mesh) -> Option<(usize, Place)> {
        let (link, _) = self.bufs.links.queue.peek_max()?;
        let row = self.xusers.row(link.index());
        select(mesh, &self.comms, row, &mut self.cursor[link.index()], link)
    }
}

/// Seeds one banded route: carves every communication's removal state
/// over `cust`'s bands from the scratch's arenas, applies the fractional
/// loads, and resets the scratch's crossing rows, removable counts, removal
/// tree, selection cursors and row-set buffers for `cs`.
fn seed_route<'s>(
    cs: &CommSet,
    cust: &'s CustomizedInstance,
    scratch: &'s mut RouteScratch,
) -> Route<'s> {
    let mesh = cs.mesh();
    let RouteScratch {
        loads,
        xusers,
        cursor,
        removable,
        top,
        pr,
        ..
    } = scratch;
    let weights = cs.comms().iter().map(|c| c.weight);
    let (comms, [fwd, bwd]) = pr.seed(weights.zip(cust.bands().iter().map(|b| &**b)));
    loads.fit(mesh);
    for c in &comms {
        c.apply_loads(loads, 1.0);
    }
    // Which communications' bands contain each link (static superset,
    // built flat-CSR in two counting passes over the bands). The bands
    // are emitted in the customized decreasing-weight order (ties towards
    // the smaller index), and a rebuilt row keeps emission order, so each
    // row already lists its users in the order the full-sweep oracle
    // re-sorts them per examined link.
    let nslots = mesh.num_link_slots();
    xusers.rebuild(nslots, |push| {
        for &i in cust.by_weight() {
            for l in comms[i].band.links() {
                push(l.index(), i as u32);
            }
        }
    });
    cursor.clear();
    cursor.resize(nslots, 0);
    // Per-link removable-user counts: a communication can give a link
    // up while the link is alive for it and its group keeps another
    // alive link. Every removal and every cleaned group keeps them
    // current ([`BandedComm::clean_group`]).
    removable.clear();
    removable.resize(nslots, 0);
    for c in &comms {
        for g in c.band.groups().filter(|g| g.len() > 1) {
            for l in g {
                removable[l.index()] += 1;
            }
        }
    }
    // The removal index ([`MaxTree`]): exactly the links with positive
    // load and a non-zero removable count, topped by the most loaded
    // one with ties towards the smaller link id — the first link of the
    // full-sweep oracle's scan order that the scan does not reject.
    // Maintained incrementally by [`QueuedLoads`] instead of being
    // rebuilt (and re-scanned, O(links²)) on every removal.
    let active = loads
        .iter_active()
        .filter(|(l, _)| removable[l.index()] > 0);
    top.rebuild(nslots, active);
    Route {
        comms,
        bufs: BandBufs {
            links: QueuedLoads {
                loads,
                queue: top,
                removable,
            },
            fwd,
            bwd,
        },
        xusers,
        cursor,
    }
}

/// Whether communication `i` can give `link` up: it is unresolved and
/// still holds the link in a group with another alive link (every alive
/// link lies on some path after cleaning, so a sibling link guarantees a
/// surviving path). Returns the link's place in its masks.
fn qualifies(mesh: &Mesh, comms: &[BandedComm], i: u32, link: LinkId) -> Option<Place> {
    let c = &comms[i as usize];
    if c.resolved() {
        return None;
    }
    match c.locate(mesh, link) {
        Some((place, count)) if count >= 2 => Some(place),
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
) -> Option<(usize, Place)> {
    while let Some(&i) = row.get(*cursor as usize) {
        if let Some(place) = qualifies(mesh, comms, i, link) {
            return Some((i as usize, place));
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
    use rand::{Rng, RngCore, SeedableRng};

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
            let mut route = seed_route(&cs, &cust, &mut scratch);
            while route.comms.iter().any(|c| !c.resolved()) {
                let (link, _) = route.bufs.links.queue.peek_max().expect("a removable link");
                let row = route.xusers.row(link.index());
                let cursor = &mut route.cursor[link.index()];
                let picked = select(&mesh, &route.comms, row, cursor, link);
                let first = row.iter().find_map(|&i| {
                    qualifies(&mesh, &route.comms, i, link).map(|place| (i as usize, place))
                });
                assert_eq!(picked, first, "seed {seed}, removal {removals}: {link}");
                // The cursor never passes a candidate that still
                // qualifies: it rests on the one it picked.
                let (i, place) = picked.expect("the top link has a removable user");
                assert_eq!(row[*cursor as usize] as usize, i, "seed {seed}: cursor");
                route.comms[i]
                    .remove_and_reshare(i, place, &mut route.bufs)
                    .unwrap();
                removals += 1;
            }
        }
        assert!(removals > 200, "only {removals} removals");
    }

    #[test]
    fn shifted_moves_every_bit_across_word_edges() {
        // Against a bit-by-bit shift: every single-bit set (so both edges
        // of every word) and random sets, on one to three words.
        let mut rng = SmallRng::seed_from_u64(11);
        for n in 1..=3 {
            let singles = (0..64 * n).map(|r| {
                let mut set = vec![0u64; n];
                set[r / 64] = 1 << (r % 64);
                set
            });
            let random = (0..64).map(|_| (0..n).map(|_| rng.next_u64() & rng.next_u64()).collect());
            for set in singles.chain(random).collect::<Vec<Vec<u64>>>() {
                for s in [-1i8, 0, 1] {
                    let got: Vec<u64> = (0..n).map(|i| shifted(|k| set[k], n, i, s)).collect();
                    let mut want = vec![0u64; n];
                    for r in (0..64 * n).filter(|&r| has_row(&set, r)) {
                        if let Some(to) = r.checked_add_signed(s as isize).filter(|&to| to < 64 * n)
                        {
                            want[to / 64] |= 1 << (to % 64);
                        }
                    }
                    assert_eq!(got, want, "{n} words, shift {s}, set {set:x?}");
                }
            }
        }
    }

    /// The alive flags of `c`'s masks expanded to the band's link order:
    /// each link reads the bit of its axis on its from-row.
    fn alive_flags(mesh: &Mesh, c: &BandedComm) -> Vec<Vec<bool>> {
        (c.band.groups().enumerate())
            .map(|(t, g)| {
                let lo = c.band.diag_rows(t).0;
                g.iter()
                    .map(|&l| {
                        let axis = usize::from(mesh.link_step(l).is_horizontal());
                        has_row(c.alive_in(t)[axis], mesh.link_endpoints(l).0.u - lo)
                    })
                    .collect()
            })
            .collect()
    }

    /// A fresh recount of every link slot's removable users among
    /// `comms`: the communications the link is alive for whose group keeps
    /// at least two alive links.
    fn recount_removable(mesh: &Mesh, comms: &[&BandedComm]) -> Vec<u32> {
        let mut n = vec![0u32; mesh.num_link_slots()];
        for c in comms {
            for (g, alive) in c.band.groups().zip(alive_flags(mesh, c)) {
                if alive.iter().filter(|&&a| a).count() >= 2 {
                    for (&l, &alive) in g.iter().zip(&alive) {
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

    /// Drives a banded comm `src → snk` of weight 2 and its full-sweep
    /// oracle through the identical removals, beside a comm `src2 → snk2`
    /// of weight 1 that shares part of the band and is never removed from,
    /// so some links keep a removable user (and their tree entry) after the
    /// first comm gives them up, and others leave the tree. `pick` chooses
    /// each removal from the banded comm's state, or ends the run; `seen`
    /// looks at the comm after each removal. After every removal the
    /// expanded alive flags, every load bit and the useful rows must match
    /// the oracle's, the maintained removable counts a fresh recount, and
    /// the tree the loaded removable links. Returns the removal count.
    fn drive_against_the_oracle(
        mesh: &Mesh,
        (src, snk): (Coord, Coord),
        (src2, snk2): (Coord, Coord),
        mut pick: impl FnMut(usize, &BandedComm) -> Option<Place>,
        mut seen: impl FnMut(usize, &BandedComm),
    ) -> usize {
        let (band, other_band) = (Band::new(mesh, src, snk), Band::new(mesh, src2, snk2));
        let mut arena = PrArena::default();
        let (mut comms, [fwd_rows, bwd_rows]) =
            arena.seed([(2.0, &band), (1.0, &other_band)].into_iter());
        let (first, rest) = comms.split_at_mut(1);
        let (banded, other) = (&mut first[0], &rest[0]);
        let mut reference = reference::RefComm::new(mesh, src, snk, 2.0);
        let other_ref = reference::RefComm::new(mesh, src2, snk2, 1.0);
        let mut loads_b = pamr_mesh::LoadMap::new(mesh);
        let mut loads_r = pamr_mesh::LoadMap::new(mesh);
        banded.apply_loads(&mut loads_b, 1.0);
        other.apply_loads(&mut loads_b, 1.0);
        reference.apply_loads(&mut loads_r, 1.0);
        other_ref.apply_loads(&mut loads_r, 1.0);
        // Real removable counts, and the tree the engine seeds from them.
        let mut removable = recount_removable(mesh, &[banded, other]);
        assert!(removable.contains(&2), "the bands must overlap");
        let mut top = MaxTree::default();
        top.rebuild(
            mesh.num_link_slots(),
            loads_b
                .iter_active()
                .filter(|(l, _)| removable[l.index()] > 0),
        );
        let (mut fwd, mut bwd) = (Vec::new(), Vec::new());
        // The band's cores per diagonal, in increasing row order.
        let mut diag_cores = vec![Vec::new(); band.len() + 1];
        for c in band.rect().cores() {
            diag_cores[mesh.diag_index(c, band.quadrant()) - band.k_src()].push(c);
        }
        let mut step = 0;
        while let Some((t, axis, r)) = pick(step, banded) {
            let l = band.link_at(t, axis, r);
            let j = band.group(t).iter().position(|&g| g == l).unwrap();
            let mut bufs = BandBufs {
                links: QueuedLoads {
                    loads: &mut loads_b,
                    queue: &mut top,
                    removable: &mut removable,
                },
                fwd: &mut *fwd_rows,
                bwd: &mut *bwd_rows,
            };
            banded
                .remove_and_reshare(0, (t, axis, r), &mut bufs)
                .unwrap();
            reference
                .remove_and_reshare(mesh, 0, (t, j), &mut loads_r, &mut fwd, &mut bwd)
                .unwrap();
            step += 1;
            assert_eq!(
                alive_flags(mesh, banded),
                reference.alive,
                "removal {step}: alive sets diverged"
            );
            for l in mesh.links() {
                assert_eq!(
                    loads_b.get(l).to_bits(),
                    loads_r.get(l).to_bits(),
                    "removal {step}: load of {l} diverged"
                );
            }
            // The stored sets are the cores the oracle's sweep found both
            // forward- and backward-reachable…
            for (t, cores) in diag_cores.iter().enumerate() {
                let want: Vec<usize> = (cores.iter())
                    .filter(|&&c| fwd[mesh.core_index(c)] && bwd[mesh.core_index(c)])
                    .map(|c| c.u)
                    .collect();
                assert_eq!(
                    stored_rows(banded, t),
                    want,
                    "removal {step}: useful set of diagonal {t}"
                );
            }
            // …the maintained counts equal a fresh recount…
            assert_eq!(
                removable,
                recount_removable(mesh, &[banded, other]),
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
                    top.get(l).to_bits(),
                    want.to_bits(),
                    "removal {step}: tree entry of {l}"
                );
            }
            assert_eq!(top.len(), queued.len(), "removal {step}: tree size");
            assert_eq!(
                top.peek_max(),
                crate::loadq::select_max(&mut queued, 0),
                "removal {step}: tree top"
            );
            seen(step, banded);
        }
        assert_eq!(banded.resolved(), reference.resolved);
        if banded.resolved() {
            // The first comm gave up links the second never held: they
            // left the tree while still loaded by the first comm's path.
            assert!(
                mesh.links()
                    .any(|l| loads_b.get(l) > 0.0 && top.get(l) == 0.0),
                "no link left the tree"
            );
        }
        step
    }

    /// The place of every alive link of group `t` of `c` that ends on
    /// core `to`.
    fn into_core(mesh: &Mesh, c: &BandedComm, t: usize, to: Coord) -> Vec<Place> {
        (c.band.group(t).iter())
            .filter(|&&l| mesh.link_endpoints(l).1 == to)
            .filter_map(|&l| c.locate(mesh, l).map(|(place, _)| place))
            .collect()
    }

    #[test]
    fn split_useful_sets_stay_on_the_banded_path() {
        // Removals that disconnect the middle of a diagonal: the first two
        // take the two links of group 1 entering the middle core (1,1) of
        // diagonal 2 of a 4×4 corner-to-corner band, so its useful rows
        // become {0, 2} (two runs), which the banded path must store and
        // keep bit-identical to the full sweep throughout. Later removals
        // take the first alive link of the first multi-link group until
        // the comm resolves.
        let mesh = Mesh::new(4, 4);
        let ends = (Coord::new(0, 0), Coord::new(3, 3));
        let other = (Coord::new(0, 1), Coord::new(2, 3));
        let mut into_middle = Vec::new();
        let removals = drive_against_the_oracle(
            &mesh,
            ends,
            other,
            |step, c| {
                if step == 0 {
                    into_middle = into_core(&mesh, c, 1, Coord::new(1, 1));
                    assert_eq!(into_middle.len(), 2);
                }
                if step < 2 {
                    return Some(into_middle[step]);
                }
                let t = (0..c.band.len()).find(|&t| c.groups[t].count >= 2)?;
                let l = c.first_alive(t)?;
                c.locate(&mesh, l).map(|(place, _)| place)
            },
            |step, c| {
                if step == 2 {
                    assert_eq!(stored_rows(c, 2), [0, 2], "diagonal 2 did not split");
                }
            },
        );
        assert!(removals > 2);
    }

    #[test]
    fn split_useful_sets_stay_on_the_banded_path_across_two_words() {
        // The twin of the test above on a 66×66 corner-to-corner band,
        // whose middle diagonals are 65 and 66 rows wide, so every row set
        // takes two words. The first two removals take the links of group
        // 64 entering core (64, 1) of diagonal 65, from rows 63 and 64: one
        // on each side of the word boundary, and the vertical one carried
        // across it. Diagonal 65's useful rows then lose row 64 alone.
        // Then groups 56 to 72 take turns, each giving up its alive link
        // nearest the boundary while it keeps another, the unshifted one
        // first, for 80 removals in all: a row next to the boundary is then
        // often reached only by a link that crosses it, vertically (shift
        // +1) before the middle diagonal and horizontally (shift −1) after.
        let mesh = Mesh::new(66, 66);
        let ends = (Coord::new(0, 0), Coord::new(65, 65));
        let other = (Coord::new(40, 20), Coord::new(65, 50));
        let mut first = Vec::new();
        let removals = drive_against_the_oracle(
            &mesh,
            ends,
            other,
            |step, c| {
                assert_eq!(c.words, 2);
                if step == 0 {
                    first = into_core(&mesh, c, 64, Coord::new(64, 1));
                    assert_eq!(
                        first.iter().map(|p| (p.1, p.2)).collect::<Vec<_>>(),
                        [(0, 63), (1, 64)]
                    );
                }
                if step < 2 {
                    return Some(first[step]);
                }
                if step == 80 {
                    return None;
                }
                let t = (0..17)
                    .map(|d| 56 + (step + d) % 17)
                    .find(|&t| c.groups[t].count >= 2)?;
                let (masks, shifts) = (c.alive_in(t), c.band.shifts(t));
                (0..128)
                    .flat_map(|r| [(0, r), (1, r)])
                    .filter(|&(axis, r)| has_row(masks[axis], r))
                    .min_by_key(|&(axis, r)| ((2 * r).abs_diff(127), shifts[axis] != 0))
                    .map(|(axis, r)| (t, axis, r))
            },
            |step, c| {
                if step == 2 {
                    let want: Vec<usize> = (0..66).filter(|&u| u != 64).collect();
                    assert_eq!(stored_rows(c, 65), want, "diagonal 65 did not split");
                }
            },
        );
        assert_eq!(removals, 80);
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
