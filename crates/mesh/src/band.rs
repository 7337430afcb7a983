//! The staircase *band* of a communication: every link usable by at least
//! one of its Manhattan paths, grouped by diagonal crossing.
//!
//! The "ideal sharing" of Figure 3 of the paper distributes a
//! communication's traffic equally over all the links between two successive
//! diagonals that its Manhattan paths can use. Both the IG and PR heuristics
//! build on this fractional pre-routing, so the band is computed here once
//! and shared.

use crate::coord::{Coord, Rect};
use crate::diag::Quadrant;
use crate::link::LinkId;
use crate::Mesh;

/// All links reachable by Manhattan paths of a communication, grouped by
/// the (relative) diagonal they cross.
///
/// For a communication of length `ℓ` the band has `ℓ` groups; group `t`
/// holds the links leading from relative diagonal `t` to `t + 1` inside the
/// bounding box. Every link of a group lies on at least one Manhattan path
/// (monotone staircase connectivity inside a rectangle), and every Manhattan
/// path crosses exactly one link of each group.
///
/// ## Storage
///
/// Groups live in a flat CSR layout (`group_off` + `links`, the
/// `first_out`/`head` idiom of `rust_road_router`'s `FirstOutGraph`): one
/// allocation per band instead of one `Vec` per diagonal, and group access
/// is a slice into the shared array. The per-diagonal row ranges
/// ([`Band::diag_rows`]) are tabulated at construction, so PR's
/// reachability row sets read their bit offsets in `O(1)` instead of
/// re-scanning the bounding box's rows per query. Aligned with the link
/// array, each link's endpoint rows relative to those ranges
/// ([`Band::row_offsets`]) are stored too: PR's reachability steps read a
/// link's bit positions directly instead of decoding its endpoints.
#[derive(Debug, Clone)]
pub struct Band {
    src: Coord,
    snk: Coord,
    quadrant: Quadrant,
    rect: Rect,
    k_src: usize,
    /// CSR offsets: group `t`'s links are
    /// `links[group_off[t] .. group_off[t + 1]]` (`len + 1` entries).
    group_off: Vec<u32>,
    /// Flat group-major link array. Within a group, links keep the
    /// historical per-core construction order (bounding-box cores row-major,
    /// vertical move before horizontal per core).
    links: Vec<LinkId>,
    /// Inclusive row range `(u_lo, u_hi)` of relative diagonal
    /// `t ∈ 0..=len` — the [`Band::diag_rows`] values, tabulated once.
    rows: Vec<(u32, u32)>,
    /// Aligned with `links`: the link's from-row and to-row, each relative
    /// to the low row of its diagonal (`t` and `t + 1`).
    offsets: Vec<(u32, u32)>,
}

impl Band {
    /// Computes the band of the communication `src → snk` on `mesh`.
    pub fn new(mesh: &Mesh, src: Coord, snk: Coord) -> Self {
        assert!(mesh.contains(src) && mesh.contains(snk));
        let quadrant = Quadrant::of(src, snk);
        let rect = Rect::spanning(src, snk);
        let k_src = mesh.diag_index(src, quadrant);
        let len = mesh.manhattan(src, snk);
        let (sv, sh) = quadrant.steps();
        // Counting pass: group sizes and per-diagonal row extents in one
        // sweep over the bounding box (rows on a diagonal are contiguous,
        // so min/max is the whole interval).
        let mut group_off = vec![0u32; len + 1];
        let mut rows = vec![(u32::MAX, 0u32); len + 1];
        for c in rect.cores() {
            let t = mesh.diag_index(c, quadrant) - k_src;
            let r = &mut rows[t];
            r.0 = r.0.min(c.u as u32);
            r.1 = r.1.max(c.u as u32);
            // `t` can equal `len` (the sink's diagonal); no group for it.
            if t >= len {
                continue;
            }
            for s in [sv, sh] {
                if let Some(n) = mesh.step(c, s) {
                    if rect.contains(n) {
                        group_off[t + 1] += 1;
                    }
                }
            }
        }
        debug_assert!(group_off[1..].iter().all(|&n| n > 0));
        debug_assert!(rows.iter().all(|r| r.0 != u32::MAX));
        for t in 0..len {
            group_off[t + 1] += group_off[t];
        }
        // Fill pass: identical iteration, so the flat array holds exactly
        // the link sequence the historical Vec-of-Vec build pushed.
        let mut links = vec![LinkId(0); group_off[len] as usize];
        let mut offsets = vec![(0u32, 0u32); links.len()];
        let mut cursor: Vec<u32> = group_off[..len].to_vec();
        for c in rect.cores() {
            let t = mesh.diag_index(c, quadrant) - k_src;
            if t >= len {
                continue;
            }
            for s in [sv, sh] {
                if let Some(n) = mesh.step(c, s) {
                    if rect.contains(n) {
                        let at = cursor[t] as usize;
                        links[at] = mesh.link_id(c, s).unwrap();
                        offsets[at] = (c.u as u32 - rows[t].0, n.u as u32 - rows[t + 1].0);
                        cursor[t] += 1;
                    }
                }
            }
        }
        Band {
            src,
            snk,
            quadrant,
            rect,
            k_src,
            group_off,
            links,
            rows,
            offsets,
        }
    }

    /// Source core of the communication.
    #[inline]
    pub fn src(&self) -> Coord {
        self.src
    }

    /// Sink core of the communication.
    #[inline]
    pub fn snk(&self) -> Coord {
        self.snk
    }

    /// The communication's quadrant (direction `d`).
    #[inline]
    pub fn quadrant(&self) -> Quadrant {
        self.quadrant
    }

    /// Bounding box of the communication.
    #[inline]
    pub fn rect(&self) -> Rect {
        self.rect
    }

    /// Absolute diagonal index (direction `d`) of the source.
    #[inline]
    pub fn k_src(&self) -> usize {
        self.k_src
    }

    /// Path length `ℓ` = number of diagonal crossings = number of groups.
    #[inline]
    pub fn len(&self) -> usize {
        self.group_off.len() - 1
    }

    /// True for a zero-length communication (source == sink).
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.group_off.len() == 1
    }

    /// The links crossing from relative diagonal `t` to `t + 1` (a slice
    /// into the band's flat CSR link array).
    #[inline]
    pub fn group(&self, t: usize) -> &[LinkId] {
        &self.links[self.group_off[t] as usize..self.group_off[t + 1] as usize]
    }

    /// The positions of group `t`'s links in the band's flat link array
    /// ([`Band::links`] order): per-link data kept aligned with that array
    /// is indexed by this range.
    #[inline]
    pub fn group_range(&self, t: usize) -> std::ops::Range<usize> {
        self.group_off[t] as usize..self.group_off[t + 1] as usize
    }

    /// Aligned with [`Band::group`]`(t)`: each link's `(from, to)` rows
    /// relative to the low rows of diagonals `t` and `t + 1`, i.e.
    /// `from.u − diag_rows(t).0` and `to.u − diag_rows(t + 1).0` — the bit
    /// positions of the link's endpoints in row sets over those ranges.
    #[inline]
    pub fn row_offsets(&self, t: usize) -> &[(u32, u32)] {
        &self.offsets[self.group_range(t)]
    }

    /// All groups, in diagonal order, as slices into the flat link array.
    #[inline]
    pub fn groups(&self) -> impl DoubleEndedIterator<Item = &[LinkId]> + ExactSizeIterator + '_ {
        self.group_off
            .windows(2)
            .map(move |w| &self.links[w[0] as usize..w[1] as usize])
    }

    /// Iterates over every link of the band (the flat CSR array, group-major
    /// — identical order to flattening [`Band::groups`]).
    pub fn links(&self) -> impl Iterator<Item = LinkId> + '_ {
        self.links.iter().copied()
    }

    /// Total number of band links across all groups, in `O(1)`.
    #[inline]
    pub fn num_links(&self) -> usize {
        self.links.len()
    }

    /// Relative diagonal (group index) a band link belongs to.
    pub fn group_of(&self, mesh: &Mesh, link: LinkId) -> usize {
        let (from, _) = mesh.link_endpoints(link);
        mesh.diag_index(from, self.quadrant) - self.k_src
    }

    /// The inclusive row range `(u_lo, u_hi)` of the band's cores on
    /// relative diagonal `t` (0 ..= `len`). Every row in between holds
    /// exactly one band core of that diagonal, so a set of those cores is a
    /// set of rows: the banded Path-Remover stores each diagonal's useful
    /// cores as a bitset over this range.
    ///
    /// `O(1)`: the ranges are tabulated by [`Band::new`]'s single sweep
    /// over the bounding box.
    ///
    /// # Panics
    /// Panics if `t` exceeds the number of diagonals (`len`).
    pub fn diag_rows(&self, t: usize) -> (usize, usize) {
        assert!(
            t <= self.len(),
            "diagonal {t} outside band 0..={}",
            self.len()
        );
        let (lo, hi) = self.rows[t];
        (lo as usize, hi as usize)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::path::Path;

    #[test]
    fn band_of_square_box() {
        let mesh = Mesh::new(4, 4);
        let band = Band::new(&mesh, Coord::new(0, 0), Coord::new(2, 2));
        assert_eq!(band.len(), 4);
        // Group sizes inside a 3×3 box: diag 0 has 1 core × 2 links; diag 1
        // has 2 cores × 2 links; on later diagonals the border cores lose
        // their out-of-box move. Total 2+4+4+2 = 12 = a(b−1) + (a−1)b.
        assert_eq!(band.group(0).len(), 2);
        assert_eq!(band.group(1).len(), 4);
        assert_eq!(band.group(2).len(), 4);
        assert_eq!(band.group(3).len(), 2);
    }

    #[test]
    fn band_of_straight_line() {
        let mesh = Mesh::new(4, 4);
        let band = Band::new(&mesh, Coord::new(1, 0), Coord::new(1, 3));
        assert_eq!(band.len(), 3);
        for t in 0..3 {
            assert_eq!(
                band.group(t).len(),
                1,
                "straight band groups are singletons"
            );
        }
    }

    #[test]
    fn band_degenerate() {
        let mesh = Mesh::new(3, 3);
        let band = Band::new(&mesh, Coord::new(1, 1), Coord::new(1, 1));
        assert!(band.is_empty());
        assert_eq!(band.links().count(), 0);
    }

    #[test]
    fn every_manhattan_path_crosses_one_link_per_group() {
        let mesh = Mesh::new(4, 5);
        let src = Coord::new(3, 4);
        let snk = Coord::new(1, 1); // up-left
        let band = Band::new(&mesh, src, snk);
        for path in Path::enumerate_all(&mesh, src, snk) {
            let links: Vec<_> = path.links(&mesh).collect();
            assert_eq!(links.len(), band.len());
            for (t, l) in links.iter().enumerate() {
                assert!(
                    band.group(t).contains(l),
                    "path {path} link {l} not in group {t}"
                );
                assert_eq!(band.group_of(&mesh, *l), t);
            }
        }
    }

    #[test]
    fn band_links_all_lie_on_some_path() {
        let mesh = Mesh::new(5, 5);
        let src = Coord::new(0, 4);
        let snk = Coord::new(3, 1); // down-left
        let band = Band::new(&mesh, src, snk);
        let paths = Path::enumerate_all(&mesh, src, snk);
        for l in band.links() {
            assert!(
                paths.iter().any(|p| p.crosses(&mesh, l)),
                "band link {l} unused by every Manhattan path"
            );
        }
        // Conversely no path uses a non-band link.
        let band_set: std::collections::HashSet<_> = band.links().collect();
        for p in &paths {
            for l in p.links(&mesh) {
                assert!(band_set.contains(&l));
            }
        }
    }

    #[test]
    fn diag_rows_cover_exactly_the_band_cores() {
        let mesh = Mesh::new(5, 6);
        for (src, snk) in [
            (Coord::new(0, 0), Coord::new(4, 5)), // down-right
            (Coord::new(1, 5), Coord::new(4, 1)), // down-left
            (Coord::new(4, 4), Coord::new(1, 0)), // up-left
            (Coord::new(3, 1), Coord::new(0, 4)), // up-right
            (Coord::new(2, 0), Coord::new(2, 5)), // straight
        ] {
            let band = Band::new(&mesh, src, snk);
            for t in 0..=band.len() {
                let (lo, hi) = band.diag_rows(t);
                // The rectangle scan's cores on the diagonal occupy exactly
                // rows lo..=hi, one core per row.
                let mut rows: Vec<usize> = band
                    .rect()
                    .cores()
                    .filter(|&c| mesh.diag_index(c, band.quadrant()) == band.k_src() + t)
                    .map(|c| c.u)
                    .collect();
                rows.sort_unstable();
                assert_eq!(rows, (lo..=hi).collect::<Vec<_>>(), "{src}->{snk} t={t}");
            }
            // The first and last diagonals are the source and sink alone.
            assert_eq!(band.diag_rows(0), (src.u, src.u));
            assert_eq!(band.diag_rows(band.len()), (snk.u, snk.u));
        }
    }

    #[test]
    fn row_offsets_are_the_endpoint_rows_minus_the_diagonal_lows() {
        let check = |mesh: &Mesh, src: Coord, snk: Coord| {
            let band = Band::new(mesh, src, snk);
            for t in 0..band.len() {
                let (lo_from, lo_to) = (band.diag_rows(t).0, band.diag_rows(t + 1).0);
                let want: Vec<(u32, u32)> = band
                    .group(t)
                    .iter()
                    .map(|&l| {
                        let (from, to) = mesh.link_endpoints(l);
                        ((from.u - lo_from) as u32, (to.u - lo_to) as u32)
                    })
                    .collect();
                assert_eq!(band.row_offsets(t), want, "{src}->{snk} t={t}");
                assert_eq!(band.group_range(t).len(), band.group(t).len());
            }
        };
        // The five direction cases of `diag_rows_cover_exactly_the_band_cores`.
        let mesh = Mesh::new(5, 6);
        for (src, snk) in [
            (Coord::new(0, 0), Coord::new(4, 5)), // down-right
            (Coord::new(1, 5), Coord::new(4, 1)), // down-left
            (Coord::new(4, 4), Coord::new(1, 0)), // up-left
            (Coord::new(3, 1), Coord::new(0, 4)), // up-right
            (Coord::new(2, 0), Coord::new(2, 5)), // straight
        ] {
            check(&mesh, src, snk);
        }
        // One-row and one-column meshes, both ways along the line.
        let (row, col) = (Mesh::new(1, 8), Mesh::new(8, 1));
        check(&row, Coord::new(0, 1), Coord::new(0, 7));
        check(&row, Coord::new(0, 6), Coord::new(0, 0));
        check(&col, Coord::new(0, 0), Coord::new(7, 0));
        check(&col, Coord::new(5, 0), Coord::new(2, 0));
    }

    #[test]
    fn group_sizes_sum_to_band_size() {
        let mesh = Mesh::new(6, 6);
        let band = Band::new(&mesh, Coord::new(5, 0), Coord::new(2, 3)); // up-right
        let total: usize = band.groups().map(|g| g.len()).sum();
        assert_eq!(total, band.links().count());
        assert_eq!(total, band.num_links());
        // In-box link count: for an a×b box there are a*(b-1) horizontal and
        // (a-1)*b vertical monotone links.
        let (a, b) = (band.rect().height(), band.rect().width());
        assert_eq!(total, a * (b - 1) + (a - 1) * b);
    }
}
