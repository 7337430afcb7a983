//! Property tests pinning both max-load indexes, [`pamr_routing::LoadQueue`]
//! and [`pamr_routing::MaxTree`], against the naive selection scan they
//! replace.
//!
//! The queue's contract is *order-exact*: after any interleaving of bulk
//! rebuilds, eager updates, lazy invalidations (+ refresh) and partial
//! descending pops, its iteration must reproduce the
//! [`select_max`](pamr_routing::loadq::select_max) order over the current
//! positive loads — decreasing load, ties towards the smaller link id,
//! bit-for-bit. PR, XYI and their reference oracles rely on this exact
//! equivalence for their differential contracts, so the model here *is*
//! `select_max` run over a plain `Vec` shadow of the loads. The tree's
//! contract is the queue's top only: after any interleaving of rebuilds
//! (at slot counts that are not powers of two too) and re-keys, its root,
//! per-link keys and size must match `select_max(…, 0)` over the shadow.
//! Shrinking is enabled (the vendored proptest records the choice tape),
//! so failures report minimal operation sequences; replay with
//! `PAMR_PROPTEST_SEED=<seed>`.

use pamr_mesh::LinkId;
use pamr_routing::loadq::select_max;
use pamr_routing::{LoadQueue, MaxTree};
use proptest::prelude::*;

/// Number of link slots the modelled queue operates over.
const SLOTS: usize = 24;

/// One step of the modelled interleaving.
#[derive(Debug, Clone, Copy)]
enum Op {
    /// Eagerly re-key one link to a new load (`0` removes it).
    Set(usize, u32),
    /// Update the authoritative load and lazily mark the link dirty; the
    /// queue must keep iterating on the stale key until the next refresh.
    LazySet(usize, u32),
    /// Resolve all pending lazy marks against the authoritative loads.
    Refresh,
    /// Walk the first `k` entries of a fresh descending cursor and check
    /// them against the naive order (stale keys included — pops between a
    /// lazy update and its refresh must still see the *previous* synced
    /// state).
    Pop(usize),
}

/// Strategy over [`Op`] (the stand-in proptest has no `prop_oneof!`; a
/// discriminant + payload tuple shrinks just as well).
fn op() -> impl Strategy<Value = Op> {
    (0u8..4, 0..SLOTS, 0u32..=6).prop_map(|(kind, l, v)| match kind {
        0 => Op::Set(l, v),
        1 => Op::LazySet(l, v),
        2 => Op::Refresh,
        _ => Op::Pop(l + v as usize),
    })
}

/// The full `select_max` order over the model's positive entries.
fn naive_order(model: &[f64]) -> Vec<(LinkId, f64)> {
    let mut active: Vec<(LinkId, f64)> = model
        .iter()
        .enumerate()
        .filter(|(_, &v)| v > 0.0)
        .map(|(i, &v)| (LinkId(i), v))
        .collect();
    let mut out = Vec::with_capacity(active.len());
    let mut k = 0;
    while let Some(e) = select_max(&mut active, k) {
        out.push(e);
        k += 1;
    }
    out
}

/// Drains a fresh cursor and asserts it equals the naive order over the
/// queue's *synced* state (the loads as of the last refresh/eager set),
/// ties and bit patterns included.
fn assert_matches(q: &LoadQueue, synced: &[f64]) {
    let expected = naive_order(synced);
    let mut cursor = q.cursor();
    for (k, &(l, v)) in expected.iter().enumerate() {
        let got = cursor.next(q);
        assert_eq!(got, Some((l, v)), "entry {k} diverged");
        assert_eq!(got.unwrap().1.to_bits(), v.to_bits());
        // k-th-max random access agrees with sequential iteration.
        assert_eq!(q.kth_max(k), Some((l, v)));
    }
    assert_eq!(cursor.next(q), None, "queue held extra entries");
    assert_eq!(q.len(), expected.len());
}

/// Largest slot count the tree is rebuilt at: past two powers of two, so
/// most drawn counts leave padding leaves.
const TREE_SLOTS: usize = 37;

/// The loads the tree is keyed with. A handful of values, so equal loads
/// (ties) are common; the non-positive ones must leave a link absent.
const TREE_LOADS: [f64; 6] = [0.0, -1.0, 0.5, 1.0, 2.0, 3.0];

/// One step of the tree's modelled interleaving.
#[derive(Debug, Clone)]
enum TreeOp {
    /// Re-key link `slot % n_slots` to `TREE_LOADS[load]`.
    Set(usize, usize),
    /// Rebuild at `n_slots`, seeding link `i` with `TREE_LOADS[loads[i]]`
    /// for every `i` below both lengths.
    Rebuild(usize, Vec<usize>),
}

fn tree_op() -> impl Strategy<Value = TreeOp> {
    (
        0u8..4,
        0..TREE_SLOTS,
        0..TREE_LOADS.len(),
        prop::collection::vec(0..TREE_LOADS.len(), 0..=TREE_SLOTS),
    )
        .prop_map(|(kind, slot, load, loads)| match kind {
            // Re-keys outnumber rebuilds three to one.
            0 => TreeOp::Rebuild(slot + 1, loads),
            _ => TreeOp::Set(slot, load),
        })
}

/// Asserts that `tree` indexes exactly the strictly positive entries of
/// `shadow`: each link's key and the count, and the root equal to the
/// first entry of the `select_max` order, bit for bit.
fn assert_tree_matches(tree: &MaxTree, shadow: &[f64], step: usize) -> Result<(), String> {
    let mut active: Vec<(LinkId, f64)> = Vec::new();
    for (i, &v) in shadow.iter().enumerate() {
        let want: f64 = if v > 0.0 { v } else { 0.0 };
        prop_assert_eq!(
            tree.get(LinkId(i)).to_bits(),
            want.to_bits(),
            "step {}: key of link {}",
            step,
            i
        );
        if v > 0.0 {
            active.push((LinkId(i), v));
        }
    }
    prop_assert_eq!(tree.len(), active.len(), "step {}: size", step);
    prop_assert_eq!(
        tree.is_empty(),
        active.is_empty(),
        "step {}: emptiness",
        step
    );
    let want = select_max(&mut active, 0);
    let got = tree.peek_max();
    prop_assert_eq!(got, want, "step {}: top", step);
    prop_assert_eq!(
        got.map(|(_, v)| v.to_bits()),
        want.map(|(_, v)| v.to_bits()),
        "step {}: top bits",
        step
    );
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn tree_top_matches_select_max_under_rebuilds_and_sets(
        n_slots in 1..=TREE_SLOTS,
        ops in prop::collection::vec(tree_op(), 0..=48),
    ) {
        let mut shadow = vec![0.0f64; n_slots];
        let mut tree = MaxTree::default();
        tree.rebuild(n_slots, []);
        assert_tree_matches(&tree, &shadow, 0)?;
        for (step, op) in ops.iter().enumerate() {
            match op {
                TreeOp::Set(slot, load) => {
                    let l = slot % shadow.len();
                    shadow[l] = TREE_LOADS[*load];
                    tree.set(LinkId(l), TREE_LOADS[*load]);
                }
                TreeOp::Rebuild(n, loads) => {
                    shadow = (0..*n)
                        .map(|i| loads.get(i).map_or(0.0, |&k| TREE_LOADS[k]))
                        .collect();
                    tree.rebuild(
                        *n,
                        shadow.iter().enumerate().map(|(i, &v)| (LinkId(i), v)),
                    );
                }
            }
            assert_tree_matches(&tree, &shadow, step + 1)?;
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn queue_reproduces_select_max_under_arbitrary_interleavings(
        init in prop::collection::vec(0u32..=6, 0..=SLOTS),
        ops in prop::collection::vec(op(), 0..=48),
    ) {
        // `loads` is the authoritative map; `synced` is what the queue has
        // been told about (diverges between a LazySet and the Refresh).
        let mut loads = vec![0.0f64; SLOTS];
        for (i, &v) in init.iter().enumerate() {
            loads[i] = v as f64;
        }
        let mut synced = loads.clone();
        let mut q = LoadQueue::new();
        q.rebuild(
            SLOTS,
            loads.iter().enumerate().map(|(i, &v)| (LinkId(i), v)),
        );
        assert_matches(&q, &synced);
        for op in &ops {
            match *op {
                Op::Set(l, v) => {
                    loads[l] = v as f64;
                    synced[l] = v as f64;
                    q.set(LinkId(l), v as f64);
                }
                Op::LazySet(l, v) => {
                    loads[l] = v as f64;
                    q.mark_dirty(LinkId(l));
                }
                Op::Refresh => {
                    q.refresh_with(|l| loads[l.index()]);
                    synced.copy_from_slice(&loads);
                }
                Op::Pop(k) => {
                    // Partial descending walk against the synced state: the
                    // first k entries of the naive order; past the end the
                    // cursor must be exhausted.
                    let expected = naive_order(&synced);
                    let mut cursor = q.cursor();
                    for e in expected.iter().take(k) {
                        prop_assert_eq!(cursor.next(&q), Some(*e));
                    }
                    if k >= expected.len() {
                        prop_assert_eq!(cursor.next(&q), None);
                    }
                }
            }
        }
        // Final full drain after resolving any pending marks.
        q.refresh_with(|l| loads[l.index()]);
        synced.copy_from_slice(&loads);
        assert_matches(&q, &synced);
    }

    #[test]
    fn rebuild_equals_incremental_construction(
        entries in prop::collection::vec((0..SLOTS, 0u32..=9), 0..=40),
    ) {
        // Building by rebuild and building by per-link sets from empty must
        // agree (last write per link wins).
        let mut loads = vec![0.0f64; SLOTS];
        for &(l, v) in &entries {
            loads[l] = v as f64;
        }
        let mut by_rebuild = LoadQueue::new();
        by_rebuild.rebuild(
            SLOTS,
            loads.iter().enumerate().map(|(i, &v)| (LinkId(i), v)),
        );
        let mut by_sets = LoadQueue::new();
        by_sets.fit(SLOTS);
        for &(l, v) in &entries {
            by_sets.set(LinkId(l), v as f64);
        }
        let drain = |q: &LoadQueue| {
            let mut cursor = q.cursor();
            let mut out = Vec::new();
            while let Some(e) = cursor.next(q) {
                out.push(e);
            }
            out
        };
        prop_assert_eq!(drain(&by_rebuild), drain(&by_sets));
        prop_assert_eq!(drain(&by_rebuild), naive_order(&loads));
    }
}
