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
use crate::link::{LinkId, Step};
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
/// ([`Band::diag_rows`]) are tabulated at construction.
///
/// Beside the link array, each group is also stored as two **row masks**
/// over its diagonal's rows, [`Band::words`] `u64` words each: bit `r` of
/// the vertical (horizontal) mask is set when the core on row
/// `diag_rows(t).0 + r` has its vertical (horizontal) move in the box
/// ([`Band::group_masks`]). A link's to-row on diagonal `t + 1` is its
/// from-row plus the group's vertical or horizontal shift, −1, 0 or +1
/// ([`Band::shifts`]), and its id follows from the row
/// ([`Band::link_at`]): successive rows of a diagonal are `q ∓ 1` core
/// indices apart. PR's reachability steps and path cleaning are word
/// operations on these masks, with no per-link table.
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
    /// Words per row mask: `⌈widest diagonal / 64⌉`.
    words: usize,
    /// Group-major row masks, `2 · words` per group: group `t`'s vertical
    /// mask, then its horizontal one ([`Band::group_masks`]).
    masks: Vec<u64>,
    /// Per group: where its link ids start and how its rows move on.
    steps: Vec<GroupStep>,
    /// Core-index distance between successive rows of one diagonal.
    stride: u32,
    /// Port (the [`Step`] discriminant) of the vertical and the horizontal
    /// move.
    ports: [u8; 2],
}

/// The per-group constants behind [`Band::shifts`] and [`Band::link_at`].
#[derive(Debug, Clone, Copy)]
struct GroupStep {
    /// Core index of the group's lowest row (on its source diagonal).
    base: u32,
    /// Vertical and horizontal shift from a from-row to its to-row.
    shift: [i8; 2],
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
        let (down, right) = (sv == Step::Down, sh == Step::Right);
        let (height, width) = (rect.height(), rect.width());
        // The core `a` rows and `b` columns from the source lies on relative
        // diagonal `a + b`, so diagonal `t` holds `a` in `span(t)`. Going
        // down, the mesh row grows with `a`; going up, it shrinks.
        let span = |t: usize| (t.saturating_sub(width - 1), t.min(height - 1));
        let rows: Vec<(u32, u32)> = (0..=len)
            .map(|t| {
                let (a_lo, a_hi) = span(t);
                let (lo, hi) = if down {
                    (src.u + a_lo, src.u + a_hi)
                } else {
                    (src.u - a_hi, src.u - a_lo)
                };
                (lo as u32, hi as u32)
            })
            .collect();
        let core = |a: usize, b: usize| {
            let u = if down { src.u + a } else { src.u - a };
            let v = if right { src.v + b } else { src.v - b };
            mesh.core_index(Coord::new(u, v))
        };
        // Down a diagonal, the column moves against the horizontal step
        // when the vertical one goes down, and with it when it goes up.
        let q = mesh.cols();
        let stride = if down == right { q - 1 } else { q + 1 };
        let ports = [sv as usize, sh as usize];
        let dv = if down { 1 } else { -1 };
        let words = height.min(width).div_ceil(64);
        // One pass per group, row by row from the lowest, vertical move
        // before horizontal: the order of a row-major scan of the box. A
        // core keeps its vertical move unless it is on the box's last row
        // of travel, and its horizontal one unless on the last column.
        let mut group_off = Vec::with_capacity(len + 1);
        group_off.push(0u32);
        let mut links = Vec::with_capacity(height * (width - 1) + (height - 1) * width);
        let mut masks = vec![0u64; 2 * words * len];
        let mut steps = Vec::with_capacity(len);
        for t in 0..len {
            let (a_lo, a_hi) = span(t);
            let a_first = if down { a_lo } else { a_hi };
            let base = core(a_first, t - a_first);
            for r in 0..=a_hi - a_lo {
                let a = if down { a_lo + r } else { a_hi - r };
                let inside = [a + 1 < height, t - a + 1 < width];
                for axis in (0..2).filter(|&axis| inside[axis]) {
                    masks[(2 * t + axis) * words + r / 64] |= 1 << (r % 64);
                    links.push(LinkId(4 * (base + r * stride) + ports[axis]));
                }
            }
            group_off.push(links.len() as u32);
            // A vertical move changes the row by ±1 and a horizontal one
            // keeps it, so each shift is that change less the rise of the
            // lowest row from diagonal `t` to `t + 1`.
            let rise = rows[t + 1].0 as i64 - rows[t].0 as i64;
            steps.push(GroupStep {
                base: u32::try_from(base).expect("core index fits u32"),
                shift: [(dv - rise) as i8, -rise as i8],
            });
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
            words,
            masks,
            steps,
            stride: stride as u32,
            ports: [sv as u8, sh as u8],
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

    /// Words per row mask: `⌈r / 64⌉` for the widest diagonal's row count
    /// `r`, the same for every diagonal of the band.
    #[inline]
    pub fn words(&self) -> usize {
        self.words
    }

    /// Every group's row masks, group-major: group `t`'s vertical mask is
    /// `masks()[2t · w .. (2t + 1) · w]` and its horizontal mask the next
    /// `w` words, for `w` = [`Band::words`].
    #[inline]
    pub fn masks(&self) -> &[u64] {
        &self.masks
    }

    /// Group `t`'s vertical and horizontal row masks: bit `r` is set when
    /// the core on row `diag_rows(t).0 + r` has that move in the box. The
    /// axis index `0` (vertical) or `1` (horizontal) also selects
    /// [`Band::shifts`] and [`Band::link_at`].
    #[inline]
    pub fn group_masks(&self, t: usize) -> [&[u64]; 2] {
        let w = self.words;
        let (v, h) = self.masks[2 * t * w..2 * (t + 1) * w].split_at(w);
        [v, h]
    }

    /// Group `t`'s vertical and horizontal shifts, each −1, 0 or +1: a link
    /// from row `r` of diagonal `t` (relative to `diag_rows(t).0`) ends on
    /// row `r + shift` of diagonal `t + 1` (relative to
    /// `diag_rows(t + 1).0`).
    #[inline]
    pub fn shifts(&self, t: usize) -> [i8; 2] {
        self.steps[t].shift
    }

    /// The link of group `t` on `axis` (`0` vertical, `1` horizontal) from
    /// row `r` of diagonal `t`: `4 · (lowest row's core + r · (q ∓ 1)) +
    /// port`. Meaningful only where that axis's mask has bit `r` set.
    #[inline]
    pub fn link_at(&self, t: usize, axis: usize, r: usize) -> LinkId {
        let core = self.steps[t].base as usize + r * self.stride as usize;
        LinkId(4 * core + self.ports[axis] as usize)
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
    fn groups_keep_the_row_major_scan_order() {
        // Each group lists its links as a row-major scan of the bounding
        // box meets them, vertical move before horizontal per core.
        let scan = |mesh: &Mesh, src: Coord, snk: Coord| {
            let quadrant = Quadrant::of(src, snk);
            let (sv, sh) = quadrant.steps();
            let rect = Rect::spanning(src, snk);
            let k_src = mesh.diag_index(src, quadrant);
            let mut groups = vec![Vec::new(); mesh.manhattan(src, snk)];
            for c in rect.cores() {
                for s in [sv, sh] {
                    if mesh.step(c, s).is_some_and(|n| rect.contains(n)) {
                        let t = mesh.diag_index(c, quadrant) - k_src;
                        groups[t].push(mesh.link_id(c, s).unwrap());
                    }
                }
            }
            groups
        };
        for (p, q) in [(5, 6), (1, 8), (8, 1), (3, 3)] {
            let mesh = Mesh::new(p, q);
            for src in mesh.cores() {
                for snk in mesh.cores() {
                    let band = Band::new(&mesh, src, snk);
                    let groups: Vec<&[LinkId]> = band.groups().collect();
                    assert_eq!(groups, scan(&mesh, src, snk), "{src}->{snk}");
                }
            }
        }
    }

    #[test]
    fn masks_expand_to_the_groups_and_shifts_carry_each_link() {
        let check = |mesh: &Mesh, src: Coord, snk: Coord| {
            let band = Band::new(mesh, src, snk);
            let w = band.words();
            assert_eq!(band.masks().len(), 2 * w * band.len());
            for t in 0..band.len() {
                let (lo_from, lo_to) = (band.diag_rows(t).0, band.diag_rows(t + 1).0);
                let masks = band.group_masks(t);
                // Row by row, vertical first: the group in its link order.
                let mut expanded = Vec::new();
                for r in 0..64 * w {
                    for (axis, mask) in masks.iter().enumerate() {
                        if mask[r / 64] >> (r % 64) & 1 == 1 {
                            expanded.push((axis, r, band.link_at(t, axis, r)));
                        }
                    }
                }
                let links: Vec<LinkId> = expanded.iter().map(|e| e.2).collect();
                assert_eq!(links, band.group(t), "{src}->{snk} t={t}");
                for (axis, r, l) in expanded {
                    let (from, to) = mesh.link_endpoints(l);
                    assert_eq!(mesh.link_step(l).is_vertical(), axis == 0);
                    assert_eq!(from.u - lo_from, r, "{src}->{snk} t={t} {l}");
                    let to_row = r as isize + band.shifts(t)[axis] as isize;
                    assert_eq!(
                        to.u as isize - lo_to as isize,
                        to_row,
                        "{src}->{snk} t={t} {l}"
                    );
                }
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
