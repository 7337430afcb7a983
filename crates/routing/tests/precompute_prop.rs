//! Regression and property tests for the band interner.
//!
//! `MeshPrecompute` promises two things the engines lean on: identical
//! `(src, snk)` pairs share **one** allocation (the interning regression
//! below), and an interned band is **bit-identical** to a band built
//! from scratch for the same pair (the shrinking property test — caching
//! may only ever change speed, never values). Both checks also pin the
//! band's row masks, shifts and link-id rule to its link groups, on
//! meshes up to 70×70, where a mask takes two words.

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

/// Asserts an interned band equals a from-scratch [`Band::new`] (every
/// group, diagonal row range, row mask and shift, and the pair's
/// geometry), and that its masks describe its groups.
fn assert_tables_bit_identical(mesh: &Mesh, cached: &Band, src: Coord, snk: Coord) {
    let fresh = Band::new(mesh, src, snk);
    assert_eq!((cached.src(), cached.snk()), (src, snk));
    assert_eq!(cached.quadrant(), fresh.quadrant());
    assert_eq!(cached.k_src(), fresh.k_src());
    assert_eq!(cached.len(), fresh.len());
    assert_eq!(cached.words(), fresh.words());
    assert_eq!(cached.masks(), fresh.masks());
    for t in 0..fresh.len() {
        assert_eq!(cached.group(t), fresh.group(t), "group {t}");
        assert_eq!(cached.shifts(t), fresh.shifts(t), "shifts {t}");
        for band in [cached, &fresh] {
            assert_masks_describe_group(mesh, band, t);
        }
    }
    for t in 0..=fresh.len() {
        assert_eq!(cached.diag_rows(t), fresh.diag_rows(t), "rows {t}");
    }
}

/// Asserts that expanding group `t`'s masks row by row, vertical first,
/// through the link-id rule ([`Band::link_at`]) gives exactly
/// [`Band::group`]`(t)`, and that each link's shift carries its from-row
/// bit to its to-row bit.
fn assert_masks_describe_group(mesh: &Mesh, band: &Band, t: usize) {
    let (lo_from, lo_to) = (band.diag_rows(t).0, band.diag_rows(t + 1).0);
    let ends = (band.src(), band.snk());
    let masks = band.group_masks(t);
    let mut expanded = Vec::new();
    for r in 0..64 * band.words() {
        for (axis, mask) in masks.iter().enumerate() {
            if mask[r / 64] >> (r % 64) & 1 == 1 {
                let l = band.link_at(t, axis, r);
                let (from, to) = mesh.link_endpoints(l);
                assert_eq!(
                    mesh.link_step(l).is_vertical(),
                    axis == 0,
                    "{ends:?} t={t} {l}"
                );
                assert_eq!(from.u, lo_from + r, "{ends:?} t={t} {l}: from-row");
                let to_row = r as isize + band.shifts(t)[axis] as isize;
                assert_eq!(
                    to.u as isize - lo_to as isize,
                    to_row,
                    "{ends:?} t={t} {l}: to-row"
                );
                expanded.push(l);
            }
        }
    }
    assert_eq!(expanded, band.group(t), "{ends:?} t={t}");
}

#[test]
fn masks_describe_the_groups_across_word_boundaries() {
    // Corner-to-corner pairs in all four quadrants: on the larger meshes
    // the middle diagonals pass 64 rows, so each mask takes two words and
    // the links on rows 63 and 64 sit on either side of the boundary.
    for (p, q) in [
        (1, 1),
        (1, 70),
        (70, 1),
        (64, 64),
        (65, 65),
        (66, 66),
        (70, 66),
        (65, 70),
        (70, 70),
    ] {
        let mesh = Mesh::new(p, q);
        let pre = MeshPrecompute::new(mesh);
        let corners = [
            Coord::new(0, 0),
            Coord::new(0, q - 1),
            Coord::new(p - 1, q - 1),
            Coord::new(p - 1, 0),
        ];
        for src in corners {
            for snk in corners {
                let band = pre.band(src, snk);
                let widest = (0..=band.len())
                    .map(|t| band.diag_rows(t))
                    .map(|(lo, hi)| hi - lo + 1)
                    .max();
                assert_eq!(
                    band.words(),
                    widest.unwrap().div_ceil(64),
                    "{p}x{q} {src}->{snk}"
                );
                assert_tables_bit_identical(&mesh, &band, src, snk);
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn cached_tables_equal_fresh_builds_on_any_endpoints(
        (p, q, endpoints) in (1usize..=70, 1usize..=70).prop_flat_map(|(p, q)| {
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
