//! Property tests pinning the flat-CSR crossing index against the naive
//! multimap it replaces.
//!
//! Two contracts, both *order-exact*:
//!
//! 1. [`CrossingIndex`] — the shared link→users arena behind the PR
//!    presort, the pending-link XY improver and the routing session —
//!    must hold exactly the rows a plain `Vec<Vec<u32>>` multimap would
//!    under any interleaving of bulk rebuilds, sorted inserts (including
//!    the slab-doubling relocation path), sorted removals and clears;
//! 2. a crossing index rebuilt from routed paths must match a naive
//!    per-link recount on arbitrary mesh shapes, degenerate 1×N and N×1
//!    paths included, even with duplicate-endpoint and core-local
//!    communications.
//!
//! Shrinking is enabled (the vendored proptest records the choice tape);
//! replay failures with `PAMR_PROPTEST_SEED=<seed>`.

use pamr_mesh::{Coord, Mesh};
use pamr_routing::{xy_routing, Comm, CommSet, CrossingIndex, Routing};
use proptest::prelude::*;

/// Number of rows the modelled index operates over.
const ROWS: usize = 12;

/// One step of the modelled interleaving.
#[derive(Debug, Clone, Copy)]
enum Op {
    /// Insert `value` into `row`'s sorted run (skipped when present — the
    /// index treats double-insertion as a caller bug).
    Insert(usize, u32),
    /// Remove `value` from `row` (skipped when absent, same reason).
    Remove(usize, u32),
    /// Bulk-rebuild the arena from the model (exact-fit, compacting any
    /// slabs abandoned by grown rows).
    Rebuild,
    /// Drop every row and re-dimension.
    Clear,
}

/// Strategy over [`Op`] (the stand-in proptest has no `prop_oneof!`; a
/// discriminant + payload tuple shrinks just as well). Inserts dominate
/// so runs regularly outgrow a row's slab and exercise the relocation
/// path in [`CrossingIndex::insert_sorted`].
fn op() -> impl Strategy<Value = Op> {
    (0u8..8, 0..ROWS, 0u32..32).prop_map(|(kind, r, v)| match kind {
        0..=4 => Op::Insert(r, v),
        5 => Op::Remove(r, v),
        6 => Op::Rebuild,
        _ => Op::Clear,
    })
}

/// Asserts every row of `index` equals the model, contents and order.
fn assert_rows_match(index: &CrossingIndex, model: &[Vec<u32>]) {
    assert_eq!(index.num_rows(), model.len());
    for (r, want) in model.iter().enumerate() {
        assert_eq!(index.row(r), &want[..], "row {r} diverged");
        assert_eq!(index.len_of(r), want.len());
        for (i, &v) in want.iter().enumerate() {
            assert_eq!(index.get(r, i), v, "row {r} entry {i} diverged");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn crossing_index_matches_vec_of_vec_model(
        init in prop::collection::vec((0..ROWS, 0u32..32), 0..=24),
        ops in prop::collection::vec(op(), 0..=64),
    ) {
        let mut model: Vec<Vec<u32>> = vec![Vec::new(); ROWS];
        for &(r, v) in &init {
            if !model[r].contains(&v) {
                model[r].push(v);
            }
        }
        // Rebuild preserves emit order within a row; sorted mutations
        // require sorted rows, so the model seeds the arena sorted.
        for row in &mut model {
            row.sort_unstable();
        }
        let mut index = CrossingIndex::new();
        index.rebuild(ROWS, |push| {
            for (r, row) in model.iter().enumerate() {
                for &v in row {
                    push(r, v);
                }
            }
        });
        assert_rows_match(&index, &model);
        for op in &ops {
            match *op {
                Op::Insert(r, v) => {
                    if !model[r].contains(&v) {
                        let at = model[r].partition_point(|&x| x < v);
                        model[r].insert(at, v);
                        index.insert_sorted(r, v);
                    }
                }
                Op::Remove(r, v) => {
                    if let Ok(at) = model[r].binary_search(&v) {
                        model[r].remove(at);
                        index.remove_sorted(r, v);
                    }
                }
                Op::Rebuild => {
                    index.rebuild(ROWS, |push| {
                        for (r, row) in model.iter().enumerate() {
                            for &v in row {
                                push(r, v);
                            }
                        }
                    });
                }
                Op::Clear => {
                    for row in &mut model {
                        row.clear();
                    }
                    index.clear(ROWS);
                }
            }
            assert_rows_match(&index, &model);
        }
    }

    #[test]
    fn crossing_index_of_routed_paths_matches_naive_recount(
        (p, q) in (1usize..=8, 1usize..=8),
        raw in prop::collection::vec(((0usize..8, 0usize..8), (0usize..8, 0usize..8)), 1..=20),
        dup in 0usize..4,
    ) {
        // Clamp draws into the mesh, then force duplicate-endpoint pairs
        // by repeating a prefix of the instance `dup` times — the index
        // must keep one entry per communication even when several share
        // every link of their path.
        let clamp = |(a, b): (usize, usize)| Coord::new(a.min(p - 1), b.min(q - 1));
        let mesh = Mesh::new(p, q);
        let mut comms: Vec<Comm> = raw
            .iter()
            .map(|&(s, t)| Comm::new(clamp(s), clamp(t), 100.0))
            .collect();
        for i in 0..dup.min(comms.len()) {
            comms.push(comms[i]);
        }
        let cs = CommSet::new(mesh, comms);
        assert_crossings_match_recount(&mesh, &xy_routing(&cs));
    }
}

/// Rebuilds a crossing index from `routing`'s paths and asserts it equals
/// a naive per-link recount of the same paths.
fn assert_crossings_match_recount(mesh: &Mesh, routing: &Routing) {
    let mut naive: Vec<Vec<u32>> = vec![Vec::new(); mesh.num_link_slots()];
    for i in 0..routing.len() {
        for l in routing.path(i).links(mesh) {
            naive[l.index()].push(i as u32);
        }
    }
    let mut index = CrossingIndex::new();
    index.rebuild(mesh.num_link_slots(), |push| {
        for i in 0..routing.len() {
            for l in routing.path(i).links(mesh) {
                push(l.index(), i as u32);
            }
        }
    });
    assert_rows_match(&index, &naive);
}

/// The degenerate meshes spelled out: a 1×N path has no vertical links
/// at all and every band is the path itself. Every ordered core pair
/// routes once, so each link's row lists every pair whose span covers it.
#[test]
fn adjacency_and_crossings_on_degenerate_1xn() {
    for (p, q) in [(1, 8), (8, 1), (1, 1)] {
        let mesh = Mesh::new(p, q);
        let comms: Vec<Comm> = mesh
            .cores()
            .flat_map(|a| mesh.cores().map(move |b| Comm::new(a, b, 100.0)))
            .collect();
        let cs = CommSet::new(mesh, comms);
        let routing = xy_routing(&cs);
        assert_crossings_match_recount(&mesh, &routing);
        // On a path every link is crossed by the pairs it separates:
        // k·(n−k) of them for the link leaving core k−1 in either direction.
        let n = p * q;
        for l in mesh.links() {
            let (a, b) = mesh.link_endpoints(l);
            let k = mesh.core_index(a).max(mesh.core_index(b));
            let crossing = (0..routing.len())
                .filter(|&i| routing.path(i).crosses(&mesh, l))
                .count();
            assert_eq!(crossing, k * (n - k), "{p}x{q} link {l}");
        }
    }
}

/// Duplicate-endpoint and core-local communications spelled out: three
/// copies of one comm plus a zero-length comm — rows triple-count by
/// communication index, never by endpoint identity.
#[test]
fn crossing_index_keeps_duplicate_endpoint_comms_distinct() {
    let mesh = Mesh::new(4, 4);
    let c = Comm::new(Coord::new(0, 0), Coord::new(3, 2), 500.0);
    let local = Comm::new(Coord::new(2, 2), Coord::new(2, 2), 100.0);
    let cs = CommSet::new(mesh, vec![c, c, local, c]);
    let routing = xy_routing(&cs);
    let mut index = CrossingIndex::new();
    index.rebuild(mesh.num_link_slots(), |push| {
        for i in 0..routing.len() {
            for l in routing.path(i).links(&mesh) {
                push(l.index(), i as u32);
            }
        }
    });
    for l in routing.path(0).links(&mesh) {
        assert_eq!(index.row(l.index()), &[0, 1, 3], "link {l}");
    }
    let occupied: usize = (0..mesh.num_link_slots()).map(|r| index.len_of(r)).sum();
    assert_eq!(
        occupied,
        3 * routing.path(0).len(),
        "local comm must index nothing"
    );
}
