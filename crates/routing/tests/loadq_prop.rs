//! Property tests pinning the max-load index, [`pamr_routing::MaxTree`],
//! against the naive selection scan it replaces.
//!
//! The tree's contract is order-exact. After any interleaving of rebuilds
//! (at slot counts that are not powers of two too) and re-keys, its root,
//! per-link keys and size must match `select_max(…, 0)` over a plain
//! shadow of the loads. The improvement loops also *drain* it: XYI and the
//! session's bounded repair read the top and drop it (`set(top, 0.0)`)
//! when it admits no flip, re-keying other links in between. So the
//! drained prefix, under any interleaving of re-keys and partial drains,
//! must be the [`select_max`](pamr_routing::loadq::select_max) order over
//! the shadow, decreasing load with ties towards the smaller link id, bit
//! for bit. PR, XYI and their reference oracles rely on this equivalence
//! for their differential contracts. Shrinking is enabled (the vendored
//! proptest records the choice tape), so failures report minimal operation
//! sequences; replay with `PAMR_PROPTEST_SEED=<seed>`.

use pamr_mesh::LinkId;
use pamr_routing::loadq::select_max;
use pamr_routing::MaxTree;
use proptest::prelude::*;

/// Number of link slots the modelled pending loop operates over.
const SLOTS: usize = 24;

/// One step of the modelled pending loop.
#[derive(Debug, Clone, Copy)]
enum Op {
    /// Re-key one link to a new load (`0` removes it).
    Set(usize, u32),
    /// Drain up to `k` entries: read the top, check it against the naive
    /// order, drop it with `set(top, 0.0)`.
    Drain(usize),
}

/// Strategy over [`Op`] (the stand-in proptest has no `prop_oneof!`; a
/// discriminant + payload tuple shrinks just as well). Re-keys outnumber
/// drains two to one.
fn op() -> impl Strategy<Value = Op> {
    (0u8..3, 0..SLOTS, 0u32..=6).prop_map(|(kind, l, v)| match kind {
        0 | 1 => Op::Set(l, v),
        _ => Op::Drain(l + v as usize),
    })
}

/// The full `select_max` order over the shadow's positive entries.
fn naive_order(shadow: &[f64]) -> Vec<(LinkId, f64)> {
    let mut active: Vec<(LinkId, f64)> = shadow
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

/// Drains up to `k` entries the way the pending loops do, top first, and
/// returns them with their load bits; each drained link leaves the shadow
/// too.
fn drain(tree: &mut MaxTree, shadow: &mut [f64], k: usize) -> Vec<(LinkId, u64)> {
    let mut out = Vec::new();
    while out.len() < k {
        let Some((l, v)) = tree.peek_max() else {
            break;
        };
        out.push((l, v.to_bits()));
        tree.set(l, 0.0);
        shadow[l.index()] = 0.0;
    }
    out
}

/// The first `k` entries of the naive order, with their load bits.
fn naive_prefix(shadow: &[f64], k: usize) -> Vec<(LinkId, u64)> {
    naive_order(shadow)
        .into_iter()
        .take(k)
        .map(|(l, v)| (l, v.to_bits()))
        .collect()
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
        // `shadow` is the authoritative map the tree is keyed to; a drained
        // link leaves both, as a rejected link leaves the pending set.
        let mut shadow = vec![0.0f64; SLOTS];
        for (i, &v) in init.iter().enumerate() {
            shadow[i] = v as f64;
        }
        let mut tree = MaxTree::default();
        tree.rebuild(
            SLOTS,
            shadow.iter().enumerate().map(|(i, &v)| (LinkId(i), v)),
        );
        for op in &ops {
            match *op {
                Op::Set(l, v) => {
                    shadow[l] = v as f64;
                    tree.set(LinkId(l), v as f64);
                }
                Op::Drain(k) => {
                    // The drained prefix is the naive order's first k
                    // entries; past the end the tree must be empty.
                    let expected = naive_prefix(&shadow, k);
                    prop_assert_eq!(drain(&mut tree, &mut shadow, k), expected);
                    prop_assert_eq!(tree.len(), naive_order(&shadow).len());
                }
            }
        }
        // A final full drain empties the tree in the naive order.
        let expected = naive_prefix(&shadow, SLOTS);
        prop_assert_eq!(drain(&mut tree, &mut shadow, SLOTS), expected);
        prop_assert!(tree.is_empty(), "tree held extra entries");
        prop_assert_eq!(tree.peek_max(), None);
    }

    #[test]
    fn rebuild_equals_incremental_construction(
        entries in prop::collection::vec((0..SLOTS, 0u32..=9), 0..=40),
    ) {
        // Building by rebuild and building by per-link sets from empty must
        // drain identically (last write per link wins).
        let mut loads = vec![0.0f64; SLOTS];
        for &(l, v) in &entries {
            loads[l] = v as f64;
        }
        let mut by_rebuild = MaxTree::default();
        by_rebuild.rebuild(
            SLOTS,
            loads.iter().enumerate().map(|(i, &v)| (LinkId(i), v)),
        );
        let mut by_sets = MaxTree::default();
        by_sets.rebuild(SLOTS, []);
        for &(l, v) in &entries {
            by_sets.set(LinkId(l), v as f64);
        }
        let expected = naive_prefix(&loads, SLOTS);
        prop_assert_eq!(by_rebuild.len(), by_sets.len());
        prop_assert_eq!(drain(&mut by_rebuild, &mut loads.clone(), SLOTS), expected.clone());
        prop_assert_eq!(drain(&mut by_sets, &mut loads.clone(), SLOTS), expected);
    }
}
