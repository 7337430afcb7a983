//! The shared **max-load link index** of the improvement loops.
//!
//! PR, XYI and the serve session repeatedly ask which loaded link comes
//! first in decreasing-load order, ties towards the smaller link id. The
//! literal answer is [`select_max`], an `O(links)` selection scan per
//! examined link. This module keeps one incrementally-maintained index over
//! `LinkId → f64` instead, [`MaxTree`], a flat tournament tree: the maximum
//! in `O(1)`, a re-key in one array walk up from the link's leaf
//! (`O(log links)`). Every loop reads only the top:
//!
//! * banded PR keys its removable links and takes every removal from the
//!   top;
//! * XYI and the session's bounded repair key their *pending* links and
//!   evaluate the top, dropping it (`set(top, 0.0)`) when it admits no
//!   improving flip ([`crate::xyi`] explains why that is exact);
//! * the session keys every loaded link and reads its largest load.
//!
//! The tie rule is bit-exact: a link's key is `(load.to_bits(), smaller
//! link id first)`. The IEEE-754 bit patterns of strictly positive floats
//! sort like the floats themselves, so the root is the `k = 0` entry of
//! the `select_max` order, and draining the tree by repeatedly dropping
//! its root yields that order for `k = 0, 1, …`. The tree holds only
//! strictly positive loads. `crates/routing/tests/loadq_prop.rs` pins its
//! top and its drain order against `select_max` over a plain shadow of the
//! loads.

use pamr_mesh::LinkId;

/// A top-only max-load index over `LinkId → f64`: a flat tournament tree.
///
/// Holds exactly the links whose tracked load is strictly positive and
/// answers only one question, the most loaded link, under the
/// [`select_max`] tie rule (see the [module docs](self)).
///
/// An update is one array walk up from a leaf. `bits` holds one leaf per link
/// slot, the load's bit pattern with `0` for an absent link, padded with
/// absent leaves to a power of two. `win` is the implicit binary tree over
/// those leaves: node `1` is the root, node `i` has children `2i` and
/// `2i + 1`, and the leaves sit at `cap..2 * cap`. Every node holds the
/// slot id that wins its subtree. The left child covers the smaller ids,
/// so letting it win equal bits makes the root the `(load bits, smaller
/// link id)` maximum, bit for bit the first entry [`select_max`] yields.
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
/// This is the naive `O(n)`-per-examined-link scan the [`MaxTree`]
/// replaces. It survives as the ordering *specification*: the reference
/// oracles (`pr::reference`, `xyi::reference`) still select with it, and
/// the `loadq` property tests pin the tree's top and drain order against
/// it.
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
