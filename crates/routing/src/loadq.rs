//! Shared incremental **max-load link indexes** for the improvement loops.
//!
//! PR, XYI and the serve session repeatedly ask the link-load map which
//! loaded link comes next in decreasing-load order, ties towards the
//! smaller link id. The historical answer was [`select_max`], an
//! `O(links)` selection scan per examined link, re-run after every
//! accepted modification. This module keeps two incrementally-maintained
//! indexes over `LinkId → f64` instead, one per kind of question:
//!
//! * [`LoadQueue`], an ordered set, answers *every* rank: its [`Cursor`]
//!   walks the links in the full [`select_max`] order, resuming strictly
//!   below the last yielded key so rejected links are never re-examined.
//!   It re-keys eagerly ([`LoadQueue::set`], `O(log links)`) or lazily
//!   ([`LoadQueue::mark_dirty`] + [`LoadQueue::refresh`], for callers whose
//!   mutations clamp or cancel and whose final values only the [`LoadMap`]
//!   knows). Queue-driven XYI and the session's repair scope walk below the
//!   top, so they use it.
//! * [`MaxTree`], a flat tournament tree, answers only *the top*: the
//!   maximum in `O(1)`, a re-key in one array walk up from the link's leaf
//!   (`O(log links)`). Banded PR takes every removal from the top of its
//!   removable links, and the session reads only its largest load, so both
//!   use it.
//!
//! The tie rule is bit-exact and the same in both: a link's key is
//! `(load.to_bits(), smaller link id first)`. The IEEE-754 bit patterns of
//! strictly positive floats sort like the floats themselves, so descending
//! key order is descending load with ties towards the smaller link id,
//! which is exactly the order `select_max` yields for `k = 0, 1, …`; the
//! [`MaxTree`] root is its `k = 0` entry. Both indexes hold only strictly
//! positive loads. `crates/routing/tests/loadq_prop.rs` pins both against
//! `select_max` over a plain shadow of the loads.

use pamr_mesh::{LinkId, LoadMap};
use std::cmp::Reverse;
use std::collections::BTreeSet;

/// Ordering key of one queued link: `(load bits, Reverse(link index))`.
type Key = (u64, Reverse<usize>);

#[inline]
fn key(link: usize, load: f64) -> Key {
    (load.to_bits(), Reverse(link))
}

/// An incrementally-maintained max-load index over `LinkId → f64`.
///
/// Holds exactly the links whose tracked load is strictly positive. See the
/// [module docs](self) for the ordering contract and maintenance modes.
///
/// ```
/// use pamr_mesh::LinkId;
/// use pamr_routing::LoadQueue;
///
/// let mut q = LoadQueue::new();
/// q.rebuild(4, [(LinkId(0), 700.0), (LinkId(1), 1200.0), (LinkId(3), 700.0)]);
///
/// // Descending load, ties towards the smaller link id — bit-exactly the
/// // order the historical `select_max` scan yields for k = 0, 1, …
/// assert_eq!(q.kth_max(0), Some((LinkId(1), 1200.0)));
/// assert_eq!(q.kth_max(1), Some((LinkId(0), 700.0)));
///
/// // Eager O(log n) re-key: link 1 drains to zero and leaves the index.
/// q.set(LinkId(1), 0.0);
/// let mut cursor = q.cursor();
/// assert_eq!(cursor.next(&q), Some((LinkId(0), 700.0)));
/// assert_eq!(cursor.next(&q), Some((LinkId(3), 700.0)));
/// assert_eq!(cursor.next(&q), None);
/// ```
#[derive(Debug, Default)]
pub struct LoadQueue {
    /// The ordered index; greatest key = most loaded link.
    set: BTreeSet<Key>,
    /// Per-link value currently keyed in `set` (`0.0` = absent). Lets
    /// callers re-key a link without knowing its previous load.
    shadow: Vec<f64>,
    /// Links whose shadow entry may be stale (lazy invalidation); resolved
    /// against the authoritative loads by [`LoadQueue::refresh`].
    dirty: Vec<usize>,
}

impl LoadQueue {
    /// A new, empty index. Size it with [`LoadQueue::fit`] or
    /// [`LoadQueue::rebuild`] before use.
    pub fn new() -> Self {
        LoadQueue::default()
    }

    /// Empties the index and resizes it to `n_slots` link slots, keeping
    /// allocations (scratch-buffer reuse).
    pub fn fit(&mut self, n_slots: usize) {
        self.set.clear();
        self.dirty.clear();
        self.shadow.clear();
        self.shadow.resize(n_slots, 0.0);
    }

    /// Empties the index in time proportional to its **occupancy**,
    /// zeroing only the keyed shadow entries. Same post-state as
    /// [`LoadQueue::fit`] at the current slot count, without its
    /// `O(n_slots)` shadow memset — the session's per-mutation repair-scope
    /// reset touches a band's worth of links on a mesh with hundreds of
    /// thousands of slots.
    pub fn drain_keyed(&mut self) {
        self.dirty.clear();
        while let Some((_, Reverse(slot))) = self.set.pop_first() {
            self.shadow[slot] = 0.0;
        }
    }

    /// Bulk rebuild: [`LoadQueue::fit`] to `n_slots`, then key every
    /// `(link, load)` of `entries` with a strictly positive load.
    pub fn rebuild<I>(&mut self, n_slots: usize, entries: I)
    where
        I: IntoIterator<Item = (LinkId, f64)>,
    {
        self.fit(n_slots);
        for (l, v) in entries {
            if v > 0.0 {
                self.set.insert(key(l.index(), v));
                self.shadow[l.index()] = v;
            }
        }
    }

    /// Number of indexed links.
    pub fn len(&self) -> usize {
        self.set.len()
    }

    /// True when no link is indexed.
    pub fn is_empty(&self) -> bool {
        self.set.is_empty()
    }

    /// The load currently keyed for `link` (`0.0` when absent). Reflects
    /// the last [`LoadQueue::set`]/[`LoadQueue::refresh`], not any pending
    /// [`LoadQueue::mark_dirty`].
    pub fn get(&self, link: LinkId) -> f64 {
        self.shadow[link.index()]
    }

    /// Eagerly re-keys `link` to load `v`: removes the stale key (if any)
    /// and inserts the new one when `v` is strictly positive. `O(log n)`.
    pub fn set(&mut self, link: LinkId, v: f64) {
        let slot = link.index();
        let old = self.shadow[slot];
        if old == v {
            return;
        }
        if old > 0.0 {
            self.set.remove(&key(slot, old));
        }
        if v > 0.0 {
            self.set.insert(key(slot, v));
        }
        self.shadow[slot] = v;
    }

    /// Lazy invalidation: records that `link`'s load may have changed
    /// without touching the index. The stale key stays in place — and
    /// iteration keeps reflecting the last refresh — until
    /// [`LoadQueue::refresh`] re-keys every marked link in one batch.
    /// Marking a link more than once is harmless.
    pub fn mark_dirty(&mut self, link: LinkId) {
        self.dirty.push(link.index());
    }

    /// Resolves every pending [`LoadQueue::mark_dirty`] against the
    /// authoritative `loads`, re-keying each marked link to its current
    /// value.
    pub fn refresh(&mut self, loads: &LoadMap) {
        self.refresh_with(|l| loads.get(l));
    }

    /// [`LoadQueue::refresh`] with an arbitrary load lookup.
    pub fn refresh_with(&mut self, mut load_of: impl FnMut(LinkId) -> f64) {
        while let Some(slot) = self.dirty.pop() {
            let v = load_of(LinkId(slot));
            self.set(LinkId(slot), v);
        }
    }

    /// The `k`-th entry (0-based) of the descending [`select_max`] order:
    /// `kth_max(0)` is the maximum. `O(k log n)`; for a full walk use a
    /// [`Cursor`].
    pub fn kth_max(&self, k: usize) -> Option<(LinkId, f64)> {
        let mut cursor = Cursor::default();
        (0..k).try_for_each(|_| cursor.next(self).map(drop))?;
        cursor.next(self)
    }

    /// A descending cursor starting at the maximum.
    pub fn cursor(&self) -> Cursor {
        Cursor::default()
    }
}

/// A resumable descending iterator over a [`LoadQueue`].
///
/// Each [`Cursor::next`] yields the greatest key strictly below the last
/// yielded one, so consuming a cursor walks the exact [`select_max`] order
/// and a scan over rejected links resumes where it stopped. The cursor
/// holds no borrow; pass the queue to every call. If the queue is mutated
/// mid-walk the cursor stays valid: it simply continues below its last key,
/// which is why the improvement loops restart with a fresh cursor after
/// every accepted modification.
#[derive(Debug, Default, Clone, Copy)]
pub struct Cursor {
    last: Option<Key>,
}

impl Cursor {
    /// Restarts the walk from the maximum.
    pub fn reset(&mut self) {
        self.last = None;
    }

    /// The next link in descending `(load, Reverse(id))` order, or `None`
    /// when the walk is exhausted.
    pub fn next(&mut self, q: &LoadQueue) -> Option<(LinkId, f64)> {
        let k = match self.last {
            None => q.set.iter().next_back().copied(),
            Some(c) => q.set.range(..c).next_back().copied(),
        }?;
        self.last = Some(k);
        Some((LinkId(k.1 .0), f64::from_bits(k.0)))
    }
}

/// A top-only max-load index over `LinkId → f64`: a flat tournament tree.
///
/// Holds exactly the links whose tracked load is strictly positive and
/// answers only one question, the most loaded link, with the
/// [`LoadQueue`] tie rule (see the [module docs](self)).
///
/// An update is one array walk up from a leaf. `bits` holds one leaf per link
/// slot, the load's bit pattern with `0` for an absent link, padded with
/// absent leaves to a power of two. `win` is the implicit binary tree over
/// those leaves: node `1` is the root, node `i` has children `2i` and
/// `2i + 1`, and the leaves sit at `cap..2 * cap`. Every node holds the
/// slot id that wins its subtree. The left child covers the smaller ids,
/// so letting it win equal bits makes the root the `(load bits, smaller
/// link id)` maximum, bit for bit the [`LoadQueue`] top.
///
/// ```
/// use pamr_mesh::LinkId;
/// use pamr_routing::MaxTree;
///
/// let mut t = MaxTree::default();
/// t.rebuild(5, [(LinkId(0), 700.0), (LinkId(1), 1200.0), (LinkId(3), 700.0)]);
/// assert_eq!(t.peek_max(), Some((LinkId(1), 1200.0)));
///
/// // Link 1 drains to zero and leaves; links 0 and 3 tie, the smaller id wins.
/// t.set(LinkId(1), 0.0);
/// assert_eq!(t.peek_max(), Some((LinkId(0), 700.0)));
/// assert_eq!((t.len(), t.get(LinkId(1))), (2, 0.0));
/// ```
#[derive(Debug, Default, Clone)]
pub struct MaxTree {
    /// Leaf per slot: the keyed load's bits, `0` when absent. Its length
    /// `cap` is a power of two; slots past the fitted count stay `0`.
    bits: Vec<u64>,
    /// Winning slot id per tree node (`2 * cap` entries, index 0 unused).
    win: Vec<u32>,
    /// Number of leaves with non-zero bits.
    len: usize,
}

impl MaxTree {
    /// Bulk rebuild in `O(n_slots)`: resizes the tree to `n_slots` link
    /// slots, keys every `(link, load)` of `entries` with a strictly
    /// positive load and plays every match bottom-up. Keeps allocations.
    pub fn rebuild<I>(&mut self, n_slots: usize, entries: I)
    where
        I: IntoIterator<Item = (LinkId, f64)>,
    {
        let cap = n_slots.next_power_of_two();
        assert!(
            cap - 1 <= u32::MAX as usize,
            "{n_slots} link slots do not fit u32 ids"
        );
        self.bits.clear();
        self.bits.resize(cap, 0);
        self.len = 0;
        for (l, v) in entries {
            if v > 0.0 {
                let leaf = &mut self.bits[l.index()];
                self.len += usize::from(*leaf == 0);
                *leaf = v.to_bits();
            }
        }
        self.win.clear();
        self.win.resize(cap, 0);
        self.win.extend((0..cap).map(|slot| slot as u32));
        for node in (1..cap).rev() {
            self.win[node] = self.play(2 * node);
        }
    }

    /// The winner of the match between the siblings `left` and `left + 1`:
    /// the right child only on strictly greater bits.
    #[inline]
    fn play(&self, left: usize) -> u32 {
        let (a, b) = (self.win[left], self.win[left + 1]);
        if self.bits[b as usize] > self.bits[a as usize] {
            b
        } else {
            a
        }
    }

    /// Re-keys `link` to load `v` (absent unless strictly positive) and
    /// replays the matches on its leaf's path towards the root. The walk
    /// stops at a node that keeps a winner other than `link`: that winner's
    /// key did not change, so no match above it can. `O(log slots)`.
    pub fn set(&mut self, link: LinkId, v: f64) {
        let slot = link.index();
        let new = if v > 0.0 { v.to_bits() } else { 0 };
        let old = std::mem::replace(&mut self.bits[slot], new);
        if old == new {
            return;
        }
        self.len = self.len + usize::from(new != 0) - usize::from(old != 0);
        let mut node = (self.bits.len() + slot) / 2;
        while node > 0 {
            let w = self.play(2 * node);
            let kept = std::mem::replace(&mut self.win[node], w) == w;
            if kept && w as usize != slot {
                break;
            }
            node /= 2;
        }
    }

    /// The most loaded link (smallest link id on ties), if any. `O(1)`.
    pub fn peek_max(&self) -> Option<(LinkId, f64)> {
        let &top = self.win.get(1)?;
        let bits = self.bits[top as usize];
        (bits != 0).then(|| (LinkId(top as usize), f64::from_bits(bits)))
    }

    /// The load currently keyed for `link` (`0.0` when absent).
    pub fn get(&self, link: LinkId) -> f64 {
        f64::from_bits(self.bits[link.index()])
    }

    /// Number of indexed links.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when no link is indexed.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }
}

/// Selection-scan: moves the entry of `active[k..]` with the highest load
/// (ties broken towards the smallest link id) into `active[k]` and returns
/// it; `None` when `k` is past the end. Consuming `k = 0, 1, …` yields
/// exactly the fully-sorted order.
///
/// This is the naive `O(n)`-per-examined-link scan the [`LoadQueue`]
/// replaces. It survives as the ordering *specification*: the reference
/// oracles (`pr::reference`, `xyi::reference`) still select with it, and
/// the `loadq` property tests pin the queue's iteration order against it.
pub fn select_max(active: &mut [(LinkId, f64)], k: usize) -> Option<(LinkId, f64)> {
    if k >= active.len() {
        return None;
    }
    let mut best = k;
    for i in k + 1..active.len() {
        let (bl, bv) = active[best];
        let (il, iv) = active[i];
        if iv > bv || (iv == bv && il < bl) {
            best = i;
        }
    }
    active.swap(k, best);
    Some(active[k])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mk(i: usize) -> LinkId {
        LinkId(i)
    }

    /// Drains a fresh cursor into a vector.
    fn drain(q: &LoadQueue) -> Vec<(LinkId, f64)> {
        let mut cursor = q.cursor();
        let mut out = Vec::new();
        while let Some(e) = cursor.next(q) {
            out.push(e);
        }
        out
    }

    #[test]
    fn rebuild_yields_select_max_order() {
        let mut q = LoadQueue::new();
        let entries = vec![(mk(3), 1.0), (mk(1), 5.0), (mk(0), 5.0), (mk(2), 3.0)];
        q.rebuild(8, entries.clone());
        // Decreasing load, ties towards the smaller link id.
        assert_eq!(
            drain(&q),
            vec![(mk(0), 5.0), (mk(1), 5.0), (mk(2), 3.0), (mk(3), 1.0)]
        );
        // The same order as the naive selection scan.
        let mut active = entries;
        let mut k = 0;
        while let Some(e) = select_max(&mut active, k) {
            assert_eq!(q.kth_max(k), Some(e));
            k += 1;
        }
        assert_eq!(q.kth_max(k), None);
    }

    #[test]
    fn set_rekeys_and_zero_removes() {
        let mut q = LoadQueue::new();
        q.rebuild(4, vec![(mk(0), 2.0), (mk(1), 1.0)]);
        q.set(mk(1), 3.0);
        assert_eq!(q.kth_max(0), Some((mk(1), 3.0)));
        assert_eq!(q.get(mk(1)), 3.0);
        q.set(mk(1), 0.0);
        assert_eq!(drain(&q), vec![(mk(0), 2.0)]);
        // Setting an untracked link to zero is a no-op.
        q.set(mk(3), 0.0);
        assert_eq!(q.len(), 1);
    }

    #[test]
    fn lazy_refresh_applies_marked_links_only() {
        let loads = [0.0, 7.0, 2.0, 0.5];
        let mut q = LoadQueue::new();
        q.rebuild(4, vec![(mk(1), 1.0), (mk(2), 2.0)]);
        q.mark_dirty(mk(1));
        q.mark_dirty(mk(3));
        q.mark_dirty(mk(1)); // duplicate marks are harmless
                             // Until the refresh, iteration reflects the stale keys.
        assert_eq!(q.kth_max(0), Some((mk(2), 2.0)));
        q.refresh_with(|l| loads[l.index()]);
        assert_eq!(drain(&q), vec![(mk(1), 7.0), (mk(2), 2.0), (mk(3), 0.5)]);
    }

    #[test]
    fn cursor_resumes_strictly_below_last_key() {
        let mut q = LoadQueue::new();
        q.rebuild(8, (0..6).map(|i| (mk(i), (i + 1) as f64)));
        let mut cursor = q.cursor();
        assert_eq!(cursor.next(&q), Some((mk(5), 6.0)));
        assert_eq!(cursor.next(&q), Some((mk(4), 5.0)));
        // A mutation above the cursor does not disturb the resume point.
        q.set(mk(0), 100.0);
        assert_eq!(cursor.next(&q), Some((mk(3), 4.0)));
        cursor.reset();
        assert_eq!(cursor.next(&q), Some((mk(0), 100.0)));
    }

    #[test]
    fn drain_keyed_matches_fit_at_same_size() {
        let mut q = LoadQueue::new();
        q.rebuild(8, vec![(mk(0), 1.0), (mk(5), 4.0)]);
        q.mark_dirty(mk(5));
        q.drain_keyed();
        assert!(q.is_empty());
        assert_eq!(q.get(mk(0)), 0.0);
        assert_eq!(q.get(mk(5)), 0.0);
        q.refresh_with(|_| unreachable!("drain_keyed drops pending dirty marks"));
        // The queue stays sized: slot 7 is still addressable.
        q.set(mk(7), 2.0);
        assert_eq!(q.kth_max(0), Some((mk(7), 2.0)));
    }

    #[test]
    fn fit_clears_everything() {
        let mut q = LoadQueue::new();
        q.rebuild(4, vec![(mk(0), 1.0)]);
        q.mark_dirty(mk(0));
        q.fit(2);
        assert!(q.is_empty());
        assert_eq!(q.get(mk(0)), 0.0);
        q.refresh_with(|_| unreachable!("fit drops pending dirty marks"));
    }
}
