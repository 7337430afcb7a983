//! Regression and property tests for the band interner.
//!
//! `MeshPrecompute` promises two things the engines lean on: identical
//! `(src, snk)` pairs share **one** allocation (the interning regression
//! below), and an interned band is **bit-identical** to a band built
//! from scratch for the same pair (the shrinking property test — caching
//! may only ever change speed, never values).

use pamr_mesh::{Band, Coord, Mesh};
use pamr_routing::{Comm, CommSet, MeshPrecompute};
use proptest::prelude::*;
use std::sync::Arc;

#[test]
fn duplicate_endpoint_pairs_share_one_table_allocation() {
    // Two communications with the same endpoints (different weights —
    // weights play no part in the band) resolve to the same Arc, both
    // through the raw interner and through the customize phase.
    let mesh = Mesh::new(6, 6);
    let pre = MeshPrecompute::new(mesh);
    let (src, snk) = (Coord::new(0, 2), Coord::new(5, 4));
    let cs = CommSet::new(
        mesh,
        vec![
            Comm::new(src, snk, 120.0),
            Comm::new(Coord::new(3, 3), Coord::new(1, 0), 55.0),
            Comm::new(src, snk, 990.0),
        ],
    );
    let cust = pre.customize(&cs);
    assert!(
        Arc::ptr_eq(cust.band(0), cust.band(2)),
        "identical (src, snk) pairs must share one Band allocation"
    );
    assert!(!Arc::ptr_eq(cust.band(0), cust.band(1)));
    assert!(
        Arc::ptr_eq(cust.band(0), &pre.band(src, snk)),
        "customize must resolve through the same interner as direct lookups"
    );
    // Re-customizing a different instance over the same pairs allocates
    // nothing new.
    let (_, misses_before) = pre.cache_stats();
    let cust2 = pre.customize(&cs);
    let (_, misses_after) = pre.cache_stats();
    assert_eq!(misses_before, misses_after, "re-customize must be all hits");
    assert!(Arc::ptr_eq(cust.band(0), cust2.band(0)));
    assert!(Arc::ptr_eq(&cust.bands()[2], cust2.band(2)));
}

/// Asserts an interned band equals a from-scratch [`Band::new`]: every
/// group, every diagonal's row range and the pair's geometry.
fn assert_tables_bit_identical(mesh: &Mesh, cached: &Band, src: Coord, snk: Coord) {
    let fresh = Band::new(mesh, src, snk);
    assert_eq!((cached.src(), cached.snk()), (src, snk));
    assert_eq!(cached.quadrant(), fresh.quadrant());
    assert_eq!(cached.k_src(), fresh.k_src());
    assert_eq!(cached.len(), fresh.len());
    for t in 0..fresh.len() {
        assert_eq!(cached.group(t), fresh.group(t), "group {t}");
        assert_eq!(cached.row_offsets(t), fresh.row_offsets(t), "offsets {t}");
    }
    for t in 0..=fresh.len() {
        assert_eq!(cached.diag_rows(t), fresh.diag_rows(t), "rows {t}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn cached_tables_equal_fresh_builds_on_any_endpoints(
        (p, q, endpoints) in (2usize..=9, 2usize..=9).prop_flat_map(|(p, q)| {
            let pair = ((0..p, 0..q), (0..p, 0..q));
            (Just(p), Just(q), prop::collection::vec(pair, 1..=12))
        })
    ) {
        let mesh = Mesh::new(p, q);
        let pre = MeshPrecompute::new(mesh);
        for &((a, b), (c, d)) in &endpoints {
            let (src, snk) = (Coord::new(a, b), Coord::new(c, d));
            // Look up twice: the second hit must return the same Arc.
            let first = pre.band(src, snk);
            let second = pre.band(src, snk);
            prop_assert!(Arc::ptr_eq(&first, &second));
            assert_tables_bit_identical(&mesh, &first, src, snk);
        }
        let (_, misses) = pre.cache_stats();
        let distinct = endpoints
            .iter()
            .collect::<std::collections::HashSet<_>>()
            .len();
        prop_assert_eq!(misses as usize, distinct, "one build per distinct pair");
    }
}
