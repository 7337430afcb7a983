//! # pamr-mesh — CMP mesh topology substrate
//!
//! This crate models the platform of the paper *Power-aware Manhattan routing
//! on chip multiprocessors* (Benoit, Melhem, Renaud-Goud, Robert; INRIA
//! RR-7752): a `p × q` rectangular grid of homogeneous cores with **two
//! unidirectional links** between each pair of neighbouring cores.
//!
//! It provides:
//!
//! * [`Coord`] / [`Mesh`] — core coordinates and the grid itself;
//! * [`Step`] / [`LinkId`] — unit moves and dense link identifiers enabling
//!   O(1) per-link bookkeeping;
//! * [`Quadrant`] and diagonals ([`Mesh::diag_index`]) — the four diagonal
//!   families `D_k^{(d)}` of Section 3.3 of the paper;
//! * [`Path`] — Manhattan (shortest) paths, their enumeration
//!   ([`Path::enumerate_all`], counting per Lemma 1) and the two-bend subset
//!   used by the TB heuristic;
//! * [`Band`] — the "staircase band" of links usable by at least one
//!   Manhattan path of a given communication, with the per-diagonal link
//!   groups used by the ideal fractional sharing of Figure 3;
//! * [`LoadMap`] — a dense per-link load accumulator.
//!
//! ## Coordinate convention
//!
//! The paper indexes cores `C_{u,v}` with `1 ≤ u ≤ p` (row) and `1 ≤ v ≤ q`
//! (column). This crate is 0-based: `u ∈ [0, p)`, `v ∈ [0, q)`; `u` grows
//! *downwards*, `v` grows *rightwards*. Direction/quadrant numbering follows
//! the paper exactly (d = 1 is down-right).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod band;
pub mod coord;
pub mod diag;
pub mod link;
pub mod load;
pub mod path;

pub use band::Band;
pub use coord::{Coord, Rect};
pub use diag::Quadrant;
pub use link::{LinkId, Step};
pub use load::LoadMap;
pub use path::Path;

use serde::{Deserialize, Serialize};

/// The most cores a mesh read from input (an instance file, a `--mesh`
/// flag) may have: 2²⁰, a 1024×1024 mesh. Every per-link table is sized by
/// the mesh, so a larger declared mesh would ask for gigabytes before any
/// routing starts.
pub const MAX_CORES: usize = 1 << 20;

/// A `p × q` rectangular mesh of cores.
///
/// `p` is the number of rows, `q` the number of columns. Each pair of
/// neighbouring cores is connected by two unidirectional links (one per
/// direction), as in Section 3.1 of the paper.
///
/// Deserializing checks what [`Mesh::checked`] checks, so a mesh read from
/// a file has positive dimensions and at most [`MAX_CORES`] cores.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize)]
pub struct Mesh {
    p: usize,
    q: usize,
}

/// Serde's view of a [`Mesh`], before [`Mesh::checked`] admits it.
#[derive(Deserialize)]
struct MeshFields {
    p: usize,
    q: usize,
}

impl Deserialize for Mesh {
    fn from_value(v: &serde::Value) -> Result<Self, serde::Error> {
        let MeshFields { p, q } = MeshFields::from_value(v)?;
        Mesh::checked(p, q).map_err(serde::Error::custom)
    }
}

impl Mesh {
    /// Creates a `p × q` mesh.
    ///
    /// # Panics
    /// Panics if `p == 0` or `q == 0`.
    pub fn new(p: usize, q: usize) -> Self {
        assert!(p >= 1 && q >= 1, "mesh dimensions must be positive");
        Mesh { p, q }
    }

    /// A `p × q` mesh read from input: an error unless both dimensions are
    /// positive and the mesh has at most [`MAX_CORES`] cores.
    pub fn checked(p: usize, q: usize) -> Result<Self, String> {
        if p == 0 || q == 0 {
            return Err(format!("mesh dimensions must be positive, got {p}x{q}"));
        }
        match p.checked_mul(q) {
            Some(cores) if cores <= MAX_CORES => Ok(Mesh { p, q }),
            _ => Err(format!(
                "a {p}x{q} mesh exceeds the {MAX_CORES}-core limit on input meshes"
            )),
        }
    }

    /// Number of rows `p`.
    #[inline]
    pub fn rows(&self) -> usize {
        self.p
    }

    /// Number of columns `q`.
    #[inline]
    pub fn cols(&self) -> usize {
        self.q
    }

    /// Total number of cores, `p · q`.
    #[inline]
    pub fn num_cores(&self) -> usize {
        self.p * self.q
    }

    /// Number of unidirectional links: `2·(p·(q−1) + (p−1)·q)`.
    #[inline]
    pub fn num_links(&self) -> usize {
        2 * (self.p * (self.q - 1) + (self.p - 1) * self.q)
    }

    /// Size of the dense link-id space (4 outgoing port slots per core, some
    /// of which are off-mesh and never correspond to a valid [`LinkId`]).
    #[inline]
    pub fn num_link_slots(&self) -> usize {
        self.p * self.q * 4
    }

    /// True iff `c` lies on the mesh.
    #[inline]
    pub fn contains(&self, c: Coord) -> bool {
        c.u < self.p && c.v < self.q
    }

    /// Dense index of a core (row-major).
    #[inline]
    pub fn core_index(&self, c: Coord) -> usize {
        debug_assert!(self.contains(c));
        c.u * self.q + c.v
    }

    /// Core at dense index `i` (inverse of [`Mesh::core_index`]).
    #[inline]
    pub fn core_at(&self, i: usize) -> Coord {
        debug_assert!(i < self.num_cores());
        Coord::new(i / self.q, i % self.q)
    }

    /// The neighbour of `c` in direction `s`, or `None` at the mesh edge.
    #[inline]
    pub fn step(&self, c: Coord, s: Step) -> Option<Coord> {
        let n = match s {
            Step::Down => {
                if c.u + 1 >= self.p {
                    return None;
                }
                Coord::new(c.u + 1, c.v)
            }
            Step::Up => {
                if c.u == 0 {
                    return None;
                }
                Coord::new(c.u - 1, c.v)
            }
            Step::Right => {
                if c.v + 1 >= self.q {
                    return None;
                }
                Coord::new(c.u, c.v + 1)
            }
            Step::Left => {
                if c.v == 0 {
                    return None;
                }
                Coord::new(c.u, c.v - 1)
            }
        };
        Some(n)
    }

    /// Dense id of the outgoing link of `from` in direction `s`, or `None`
    /// if that link would leave the mesh.
    #[inline]
    pub fn link_id(&self, from: Coord, s: Step) -> Option<LinkId> {
        self.step(from, s)?;
        Some(LinkId(self.core_index(from) * 4 + s as usize))
    }

    /// The `(source, destination)` cores of a link.
    #[inline]
    pub fn link_endpoints(&self, id: LinkId) -> (Coord, Coord) {
        let from = self.core_at(id.0 / 4);
        let s = Step::from_index(id.0 % 4);
        let to = self
            .step(from, s)
            .expect("LinkId does not denote a valid on-mesh link");
        (from, to)
    }

    /// The direction of travel of a link.
    #[inline]
    pub fn link_step(&self, id: LinkId) -> Step {
        Step::from_index(id.0 % 4)
    }

    /// Iterates over all valid links of the mesh.
    pub fn links(&self) -> impl Iterator<Item = LinkId> + '_ {
        let m = *self;
        (0..self.num_cores()).flat_map(move |i| {
            let c = m.core_at(i);
            Step::ALL.into_iter().filter_map(move |s| m.link_id(c, s))
        })
    }

    /// Iterates over all cores of the mesh in row-major order.
    pub fn cores(&self) -> impl Iterator<Item = Coord> + '_ {
        let m = *self;
        (0..self.num_cores()).map(move |i| m.core_at(i))
    }

    /// Manhattan distance `|u_a − u_b| + |v_a − v_b|`; this is the length of
    /// every Manhattan path between `a` and `b` (Section 3.3).
    #[inline]
    pub fn manhattan(&self, a: Coord, b: Coord) -> usize {
        a.u.abs_diff(b.u) + a.v.abs_diff(b.v)
    }

    /// The diagonal index (0-based) of core `c` in direction `d`.
    ///
    /// Paper definition (1-based): `C_{u,v} ∈ D_k^{(1)} ⇔ u + v − 1 = k`,
    /// etc. Our 0-based equivalents range over `0 ..= p+q−2`:
    ///
    /// * d=1 (down-right): `k = u + v`
    /// * d=2 (down-left):  `k = u + (q−1−v)`
    /// * d=3 (up-left):    `k = (p−1−u) + (q−1−v)`
    /// * d=4 (up-right):   `k = (p−1−u) + v`
    ///
    /// Any unit move allowed by quadrant `d` advances the index by exactly 1.
    #[inline]
    pub fn diag_index(&self, c: Coord, d: Quadrant) -> usize {
        debug_assert!(self.contains(c));
        match d {
            Quadrant::DownRight => c.u + c.v,
            Quadrant::DownLeft => c.u + (self.q - 1 - c.v),
            Quadrant::UpLeft => (self.p - 1 - c.u) + (self.q - 1 - c.v),
            Quadrant::UpRight => (self.p - 1 - c.u) + c.v,
        }
    }

    /// Number of diagonals per direction: `p + q − 1`.
    #[inline]
    pub fn num_diagonals(&self) -> usize {
        self.p + self.q - 1
    }

    /// All cores lying on diagonal `k` of direction `d`, in ascending-row
    /// order (the order a row-major filter over [`Mesh::cores`] yields).
    ///
    /// `O(p)` instead of a full `O(p·q)` core scan: a diagonal meets each
    /// row at most once, so [`Quadrant::col_on_diag`] pins down the sole
    /// candidate column per row.
    pub fn diagonal(&self, d: Quadrant, k: usize) -> Vec<Coord> {
        (0..self.p)
            .filter_map(|u| {
                d.col_on_diag(self.p, self.q, k, u)
                    .map(|v| Coord::new(u, v))
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn checked_refuses_empty_and_oversized_meshes() {
        assert_eq!(Mesh::checked(8, 8), Ok(Mesh::new(8, 8)));
        assert_eq!(Mesh::checked(1024, 1024), Ok(Mesh::new(1024, 1024)));
        assert!(Mesh::checked(0, 4).is_err());
        assert!(Mesh::checked(4, 0).is_err());
        assert!(Mesh::checked(1024, 1025).is_err());
        assert!(Mesh::checked(usize::MAX, 2).is_err());
        let fields = |p, q| {
            serde::Value::Object(vec![
                ("p".into(), serde::Value::UInt(p)),
                ("q".into(), serde::Value::UInt(q)),
            ])
        };
        assert_eq!(Mesh::from_value(&fields(3, 5)).ok(), Some(Mesh::new(3, 5)));
        assert!(Mesh::from_value(&fields(0, 4)).is_err());
        assert!(Mesh::from_value(&fields(100_000, 100_000)).is_err());
    }

    #[test]
    fn mesh_counts() {
        let m = Mesh::new(8, 8);
        assert_eq!(m.num_cores(), 64);
        // 2*(8*7 + 7*8) = 224 unidirectional links.
        assert_eq!(m.num_links(), 224);
        assert_eq!(m.links().count(), 224);
        assert_eq!(m.num_diagonals(), 15);
    }

    #[test]
    fn mesh_1xn() {
        let m = Mesh::new(1, 5);
        assert_eq!(m.num_links(), 2 * 4);
        assert_eq!(m.links().count(), 8);
        assert_eq!(m.num_diagonals(), 5);
    }

    #[test]
    fn step_edges() {
        let m = Mesh::new(3, 3);
        assert_eq!(m.step(Coord::new(0, 0), Step::Up), None);
        assert_eq!(m.step(Coord::new(0, 0), Step::Left), None);
        assert_eq!(m.step(Coord::new(2, 2), Step::Down), None);
        assert_eq!(m.step(Coord::new(2, 2), Step::Right), None);
        assert_eq!(m.step(Coord::new(1, 1), Step::Down), Some(Coord::new(2, 1)));
        assert_eq!(m.step(Coord::new(1, 1), Step::Up), Some(Coord::new(0, 1)));
        assert_eq!(
            m.step(Coord::new(1, 1), Step::Right),
            Some(Coord::new(1, 2))
        );
        assert_eq!(m.step(Coord::new(1, 1), Step::Left), Some(Coord::new(1, 0)));
    }

    #[test]
    fn link_roundtrip() {
        let m = Mesh::new(4, 5);
        for id in m.links() {
            let (from, to) = m.link_endpoints(id);
            assert_eq!(m.manhattan(from, to), 1);
            let s = m.link_step(id);
            assert_eq!(m.link_id(from, s), Some(id));
            assert_eq!(m.step(from, s), Some(to));
        }
    }

    #[test]
    fn link_ids_unique_and_dense() {
        let m = Mesh::new(3, 4);
        let mut seen = vec![false; m.num_link_slots()];
        for id in m.links() {
            assert!(!seen[id.0], "duplicate link id {id:?}");
            seen[id.0] = true;
        }
        assert_eq!(seen.iter().filter(|&&b| b).count(), m.num_links());
    }

    #[test]
    fn diag_indices_match_paper_examples() {
        // Paper (1-based): C_{u,v} ∈ D^{(1)}_{u+v-1}. 0-based: k = u+v.
        let m = Mesh::new(4, 6);
        let c = Coord::new(1, 2); // paper's C_{2,3}
        assert_eq!(m.diag_index(c, Quadrant::DownRight), 3);
        assert_eq!(m.diag_index(c, Quadrant::DownLeft), 1 + 3);
        assert_eq!(m.diag_index(c, Quadrant::UpLeft), 2 + 3);
        assert_eq!(m.diag_index(c, Quadrant::UpRight), 2 + 2);
    }

    #[test]
    fn every_core_on_exactly_one_diagonal_per_direction() {
        let m = Mesh::new(3, 5);
        for d in Quadrant::ALL {
            let mut count = 0;
            for k in 0..m.num_diagonals() {
                count += m.diagonal(d, k).len();
            }
            assert_eq!(count, m.num_cores());
        }
    }

    #[test]
    fn moves_advance_diagonals_by_one() {
        let m = Mesh::new(5, 7);
        for d in Quadrant::ALL {
            let (sv, sh) = d.steps();
            for c in m.cores() {
                for s in [sv, sh] {
                    if let Some(n) = m.step(c, s) {
                        assert_eq!(m.diag_index(n, d), m.diag_index(c, d) + 1);
                    }
                }
            }
        }
    }

    #[test]
    #[should_panic]
    fn zero_mesh_panics() {
        let _ = Mesh::new(0, 3);
    }
}
