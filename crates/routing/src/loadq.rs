//! The shared **max-load link index** of the improvement loops.
//!
//! PR, XYI and the serve session repeatedly ask which loaded link comes
//! first in decreasing-load order, ties towards the smaller link id. The
//! literal answer is [`select_max`], an `O(links)` selection scan per
//! examined link. This module keeps one incrementally-maintained index over
//! `LinkId → f64` instead, [`MaxTree`]: the link slots in blocks of
//! [`BLOCK`], each block keeping its winner as the loops re-key, and a
//! tournament over the blocks that is settled lazily, when the top is
//! next read. A re-key is `O(1)`; a read replays only the matches above
//! the blocks whose winner changed since the last read. Every loop reads
//! only the top:
//!
//! * banded PR keys its removable links and takes every removal from the
//!   top, a dozen re-keys per removal;
//! * XYI and the session's bounded repair key their *pending* links and
//!   evaluate the top, dropping it (`set(top, 0.0)`) when it admits no
//!   improving flip ([`crate::xyi`] explains why that is exact);
//! * the session keys every loaded link and reads its largest load, once
//!   per mutation.
//!
//! The tie rule is bit-exact: a link's key is `(load.to_bits(), smaller
//! link id first)`. The IEEE-754 bit patterns of strictly positive floats
//! sort like the floats themselves, so the settled root is the `k = 0`
//! entry of the `select_max` order, and draining the tree by repeatedly
//! dropping its root yields that order for `k = 0, 1, …`. The settled root
//! is a pure function of the keyed loads, whatever re-keys led there. The
//! tree holds only strictly positive loads.
//! `crates/routing/tests/loadq_prop.rs` pins its top and its drain order
//! against `select_max` over a plain shadow of the loads, with batches of
//! re-keys between two reads.

use pamr_mesh::LinkId;

/// Link slots per block of a [`MaxTree`].
///
/// A re-key touches its block's winner key only; a rescan, when a block's
/// winner drops, reads the block's `BLOCK` leaves (128 bytes at 16). 8
/// doubles the tournament above the blocks and 32 doubles each rescan.
/// Measured against both on a 2-vCPU x86-64 host, with each run scaled by
/// a host-speed probe: on the §6 campaign's 8×8 mesh (256 link slots) PR
/// read about 7% slower at 8 and no faster at 32, and XYI about 4% slower
/// at 32; on a 64×64 session under churn (16 384 slots) the three read
/// within the run-to-run spread.
pub const BLOCK: usize = 16;

/// A block's state since the last settle: its winner key is exact.
const CLEAN: u8 = 0;
/// Listed for a walk: its winner key changed and is exact.
const LISTED: u8 = 1;
/// Listed for a walk after a rescan: its winner dropped, so the stored
/// key is stale and only the block's leaves know the new winner.
const RESCAN: u8 = 2;

/// The tournament key of `slot` at load bits `bits`: the bits above the
/// complemented id, so one integer `max` prefers the larger load and then
/// the smaller id. An absent slot keys `0`, below every present one.
#[inline]
fn key(slot: usize, bits: u64) -> u128 {
    if bits == 0 {
        0
    } else {
        u128::from(bits) << 32 | u128::from(!(slot as u32))
    }
}

/// The winner key of block `block` over its leaves in `bits`: one pass,
/// a later leaf winning only on strictly greater bits.
#[inline]
fn block_winner(bits: &[u64], block: usize) -> u128 {
    let base = block * BLOCK;
    let leaves = &bits[base..base + BLOCK];
    let mut best = 0;
    for (i, &b) in leaves.iter().enumerate() {
        if b > leaves[best] {
            best = i;
        }
    }
    key(base + best, leaves[best])
}

/// A top-only max-load index over `LinkId → f64`: blocked leaves under a
/// lazily settled tournament.
///
/// Holds exactly the links whose tracked load is strictly positive and
/// answers only one question, the most loaded link, under the
/// [`select_max`] tie rule (see the [module docs](self)).
///
/// `bits` holds one leaf per link slot, the load's bit pattern with `0`
/// for an absent link, padded with absent leaves to whole blocks of
/// [`BLOCK`] slots. `keys` is the implicit binary tree over the blocks:
/// node `1` is the root, node `i` has children `2i` and `2i + 1`, and
/// block `b`'s winner key sits at leaf `cap + b`, `cap` the block count
/// rounded up to a power of two. A key is `(load bits << 32) | (u32::MAX −
/// slot)`, so a match is one `max` and the root's key names
/// the `(load bits, smaller link id)` maximum, bit for bit the first entry
/// [`select_max`] yields.
///
/// [`MaxTree::set`] is `O(1)`. It writes the leaf, and keeps the block's
/// winner key as it goes: a key that beats the winner replaces it, a drop
/// of the winner marks the block for a rescan, and any other re-key leaves
/// it alone. Each block whose winner key changed or went stale is listed
/// once. [`MaxTree::peek_max`] settles first: it rescans the marked
/// blocks, then walks up from each listed block, replaying matches while
/// a node changes. A node that keeps its key cannot change any node above
/// it, and a walk that changes a node goes on to its parent, so after the
/// last walk every node is the `max` of its children again.
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
    /// is a whole number of blocks; slots past the fitted count stay `0`.
    bits: Vec<u64>,
    /// Key per tournament node (`2 * cap` entries, index 0 unused); the
    /// block leaves sit at `cap..2 * cap`.
    keys: Vec<u128>,
    /// Per block: [`CLEAN`], [`LISTED`] or [`RESCAN`].
    marks: Vec<u8>,
    /// The blocks listed since the last settle, each once.
    listed: Vec<u32>,
    /// Number of leaves with non-zero bits.
    len: usize,
}

impl MaxTree {
    /// Bulk rebuild in `O(n_slots)`: resizes the tree to `n_slots` link
    /// slots, keys every `(link, load)` of `entries` with a strictly
    /// positive load and plays every match bottom-up. The result is
    /// settled. Keeps allocations.
    pub fn rebuild<I>(&mut self, n_slots: usize, entries: I)
    where
        I: IntoIterator<Item = (LinkId, f64)>,
    {
        let blocks = n_slots.div_ceil(BLOCK);
        assert!(
            blocks * BLOCK <= u32::MAX as usize,
            "{n_slots} link slots do not fit u32 ids"
        );
        self.bits.clear();
        self.bits.resize(blocks * BLOCK, 0);
        self.len = 0;
        for (l, v) in entries {
            if v > 0.0 {
                let leaf = &mut self.bits[l.index()];
                self.len += usize::from(*leaf == 0);
                *leaf = v.to_bits();
            }
        }
        let cap = blocks.next_power_of_two();
        self.keys.clear();
        self.keys.resize(cap, 0);
        self.keys
            .extend((0..blocks).map(|b| block_winner(&self.bits, b)));
        self.keys.resize(2 * cap, 0);
        for node in (1..cap).rev() {
            self.keys[node] = self.keys[2 * node].max(self.keys[2 * node + 1]);
        }
        self.marks.clear();
        self.marks.resize(blocks, CLEAN);
        self.listed.clear();
    }

    /// Re-keys `link` to load `v` (absent unless strictly positive) in
    /// `O(1)`: writes its leaf and keeps its block's winner key, listing
    /// the block when that key changes or goes stale. The tournament above
    /// the blocks waits for the next [`MaxTree::peek_max`].
    pub fn set(&mut self, link: LinkId, v: f64) {
        let slot = link.index();
        let new = if v > 0.0 { v.to_bits() } else { 0 };
        let old = std::mem::replace(&mut self.bits[slot], new);
        if old == new {
            return;
        }
        self.len = self.len + usize::from(new != 0) - usize::from(old != 0);
        let block = slot / BLOCK;
        let leaf = self.keys.len() / 2 + block;
        let (winner, rekeyed) = (self.keys[leaf], key(slot, new));
        if rekeyed > winner {
            self.keys[leaf] = rekeyed;
            self.mark(block, LISTED);
        } else if winner == key(slot, old) {
            // The winner dropped: only a rescan finds the block's new one.
            self.mark(block, RESCAN);
        }
    }

    /// Lists `block` once and raises its mark to `mark`.
    #[inline]
    fn mark(&mut self, block: usize, mark: u8) {
        let m = &mut self.marks[block];
        if *m == CLEAN {
            self.listed.push(block as u32);
        }
        *m = (*m).max(mark);
    }

    /// Settles the tournament: rescans the blocks marked for it, then
    /// walks up from every listed block while a node changes. Idempotent;
    /// `O(1)` when nothing is listed.
    pub fn settle(&mut self) {
        if self.listed.is_empty() {
            return;
        }
        let cap = self.keys.len() / 2;
        for &block in &self.listed {
            let b = block as usize;
            if std::mem::replace(&mut self.marks[b], CLEAN) == RESCAN {
                self.keys[cap + b] = block_winner(&self.bits, b);
            }
        }
        for &block in &self.listed {
            let mut node = (cap + block as usize) / 2;
            while node > 0 {
                let k = self.keys[2 * node].max(self.keys[2 * node + 1]);
                if std::mem::replace(&mut self.keys[node], k) == k {
                    break;
                }
                node /= 2;
            }
        }
        self.listed.clear();
    }

    /// The most loaded link (smallest link id on ties), if any. Settles
    /// the re-keys made since the last read first.
    pub fn peek_max(&mut self) -> Option<(LinkId, f64)> {
        self.settle();
        self.root()
    }

    /// [`MaxTree::peek_max`] on a tree already settled, for a reader that
    /// holds it shared: the session settles its resident index once per
    /// mutation and reads it through `&self`. `O(1)`.
    ///
    /// # Panics
    /// If a re-key since the last [`MaxTree::settle`] is not settled yet.
    pub fn settled_max(&self) -> Option<(LinkId, f64)> {
        assert!(
            self.listed.is_empty(),
            "the max-load index was read unsettled"
        );
        self.root()
    }

    /// The root's link and load, as of the last settle.
    #[inline]
    fn root(&self) -> Option<(LinkId, f64)> {
        let &root = self.keys.get(1)?;
        let bits = (root >> 32) as u64;
        (bits != 0).then(|| (LinkId(!(root as u32) as usize), f64::from_bits(bits)))
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
