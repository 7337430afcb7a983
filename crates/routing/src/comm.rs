//! Problem instances: communications and communication sets (§3.2).

use pamr_mesh::{Band, Coord, Mesh, Quadrant};
use serde::{Deserialize, Serialize};
use std::fmt;

/// One communication `γ = (C_src, C_snk, δ)`: `δ` bytes per second must be
/// routed from the source core to the sink core.
///
/// Weights are in the same unit as the power model's `capacity` (Mb/s in
/// the paper's simulation campaign). Deserializing checks the weight as
/// [`Comm::new`] does.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct Comm {
    /// Source core.
    pub src: Coord,
    /// Destination (sink) core.
    pub snk: Coord,
    /// Requested bandwidth `δ` (bytes/s; Mb/s in the campaign).
    pub weight: f64,
}

impl Comm {
    /// Creates a communication.
    ///
    /// # Panics
    /// Panics if the weight is not strictly positive and finite.
    pub fn new(src: Coord, snk: Coord, weight: f64) -> Self {
        match Comm::checked(src, snk, weight) {
            Ok(comm) => comm,
            // pamr-lint: allow(P001, reason = "the documented constructor contract; input reaches a Comm through Comm::checked (deserialization, the serve wire)")
            Err(e) => panic!("{e}"),
        }
    }

    /// [`Comm::new`] for input: an error instead of a panic.
    fn checked(src: Coord, snk: Coord, weight: f64) -> Result<Self, String> {
        if weight > 0.0 && weight.is_finite() {
            Ok(Comm { src, snk, weight })
        } else {
            Err(format!(
                "communication weight must be positive and finite, got {weight}"
            ))
        }
    }

    /// Manhattan length `ℓ = |u_src − u_snk| + |v_src − v_snk|` of every
    /// path of this communication.
    ///
    /// A zero-length (core-local) communication is what [`Comm::is_local`]
    /// reports; `is_empty` would be a misnomer here.
    #[inline]
    #[allow(clippy::len_without_is_empty)]
    pub fn len(&self) -> usize {
        self.src.manhattan(self.snk)
    }

    /// True iff source and sink coincide (nothing to route).
    #[inline]
    pub fn is_local(&self) -> bool {
        self.src == self.snk
    }

    /// The communication's direction `d ∈ {1,2,3,4}` (§3.3).
    #[inline]
    pub fn quadrant(&self) -> Quadrant {
        Quadrant::of(self.src, self.snk)
    }

    /// The staircase band of links its Manhattan paths may use.
    pub fn band(&self, mesh: &Mesh) -> Band {
        Band::new(mesh, self.src, self.snk)
    }
}

/// Serde's view of a [`Comm`], before [`Comm::checked`] admits it.
#[derive(Deserialize)]
struct CommFields {
    src: Coord,
    snk: Coord,
    weight: f64,
}

impl Deserialize for Comm {
    fn from_value(v: &serde::Value) -> Result<Self, serde::Error> {
        let CommFields { src, snk, weight } = CommFields::from_value(v)?;
        Comm::checked(src, snk, weight).map_err(serde::Error::custom)
    }
}

impl fmt::Display for Comm {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}→{} @{}", self.src, self.snk, self.weight)
    }
}

/// Processing order for the greedy-style heuristics (§5 discusses the
/// variants; decreasing weight won and is the default everywhere).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default, Serialize, Deserialize)]
pub enum SortOrder {
    /// Heaviest communications first (the paper's choice).
    #[default]
    DecreasingWeight,
    /// Longest communications first.
    DecreasingLength,
    /// Largest weight-per-hop first.
    DecreasingDensity,
}

/// A routing problem instance: the mesh plus the communications to route.
///
/// Deserializing checks what [`CommSet::new`] checks, on top of the mesh's
/// and each communication's own checks ([`Mesh::checked`], [`Comm::new`]),
/// so an instance read from a file can be routed without panicking.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct CommSet {
    mesh: Mesh,
    comms: Vec<Comm>,
}

/// Serde's view of a [`CommSet`], before [`CommSet::checked`] admits it.
#[derive(Deserialize)]
struct CommSetFields {
    mesh: Mesh,
    comms: Vec<Comm>,
}

impl Deserialize for CommSet {
    fn from_value(v: &serde::Value) -> Result<Self, serde::Error> {
        let CommSetFields { mesh, comms } = CommSetFields::from_value(v)?;
        CommSet::checked(mesh, comms).map_err(serde::Error::custom)
    }
}

impl CommSet {
    /// Builds an instance; all endpoints must lie on the mesh.
    ///
    /// # Panics
    /// Panics if a communication's source or sink is off-mesh.
    pub fn new(mesh: Mesh, comms: Vec<Comm>) -> Self {
        match CommSet::checked(mesh, comms) {
            Ok(cs) => cs,
            // pamr-lint: allow(P001, reason = "the documented constructor contract; an instance file reaches a CommSet through CommSet::checked")
            Err(e) => panic!("{e}"),
        }
    }

    /// [`CommSet::new`] for input: an error instead of a panic.
    fn checked(mesh: Mesh, comms: Vec<Comm>) -> Result<Self, String> {
        let off_mesh = |c: &Comm| !(mesh.contains(c.src) && mesh.contains(c.snk));
        match comms.iter().position(off_mesh) {
            Some(i) => Err(format!(
                "communication {i} ({}) leaves the {}×{} mesh",
                comms[i],
                mesh.rows(),
                mesh.cols()
            )),
            None => Ok(CommSet { mesh, comms }),
        }
    }

    /// The mesh.
    #[inline]
    pub fn mesh(&self) -> &Mesh {
        &self.mesh
    }

    /// The communications, in instance order.
    #[inline]
    pub fn comms(&self) -> &[Comm] {
        &self.comms
    }

    /// Number of communications `n_c`.
    #[inline]
    pub fn len(&self) -> usize {
        self.comms.len()
    }

    /// True iff there is nothing to route.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.comms.is_empty()
    }

    /// Total requested bandwidth `K = Σ δ_i`.
    pub fn total_weight(&self) -> f64 {
        self.comms.iter().map(|c| c.weight).sum()
    }

    /// Communication indices sorted by **decreasing weight** (the processing
    /// order used by every heuristic of §5), ties broken by instance order
    /// for determinism.
    pub fn by_decreasing_weight(&self) -> Vec<usize> {
        self.by_order(SortOrder::DecreasingWeight)
    }

    /// Communication indices under one of the processing orders the paper
    /// compared (§5: "we have considered variants of the heuristics, where
    /// communications are sorted according to another criterion (as for
    /// instance their length, or the ratio of their weight over their
    /// length). It turns out that decreasing weights gives the best
    /// results"). Ties break by instance order.
    pub fn by_order(&self, order: SortOrder) -> Vec<usize> {
        let key = |c: &Comm| -> f64 {
            match order {
                SortOrder::DecreasingWeight => c.weight,
                SortOrder::DecreasingLength => c.len() as f64,
                SortOrder::DecreasingDensity => {
                    // Weight per hop; local communications sort last.
                    if c.len() == 0 {
                        0.0
                    } else {
                        c.weight / c.len() as f64
                    }
                }
            }
        };
        let mut idx: Vec<usize> = (0..self.comms.len()).collect();
        // total_cmp, not partial_cmp().unwrap(): identical order for the
        // finite positive keys `Comm::new` admits, but a `CommSet` built
        // from untrusted JSON (serde derives bypass the constructor's
        // weight assertions) must sort, not panic, on a NaN weight.
        idx.sort_by(|&a, &b| {
            key(&self.comms[b])
                .total_cmp(&key(&self.comms[a]))
                .then(a.cmp(&b))
        });
        idx
    }

    /// Mean Manhattan length of the communications (0 for an empty set).
    pub fn mean_length(&self) -> f64 {
        if self.comms.is_empty() {
            return 0.0;
        }
        self.comms.iter().map(|c| c.len() as f64).sum::<f64>() / self.comms.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn comm_basic_properties() {
        let c = Comm::new(Coord::new(0, 0), Coord::new(2, 3), 10.0);
        assert_eq!(c.len(), 5);
        assert!(!c.is_local());
        assert_eq!(c.quadrant(), Quadrant::DownRight);
        let local = Comm::new(Coord::new(1, 1), Coord::new(1, 1), 1.0);
        assert!(local.is_local());
        assert_eq!(local.len(), 0);
    }

    #[test]
    #[should_panic]
    fn zero_weight_rejected() {
        let _ = Comm::new(Coord::new(0, 0), Coord::new(1, 1), 0.0);
    }

    #[test]
    #[should_panic]
    fn nan_weight_rejected() {
        let _ = Comm::new(Coord::new(0, 0), Coord::new(1, 1), f64::NAN);
    }

    #[test]
    #[should_panic]
    fn off_mesh_comm_rejected() {
        let mesh = Mesh::new(2, 2);
        let _ = CommSet::new(
            mesh,
            vec![Comm::new(Coord::new(0, 0), Coord::new(2, 2), 1.0)],
        );
    }

    #[test]
    fn decreasing_weight_order_with_stable_ties() {
        let mesh = Mesh::new(4, 4);
        let cs = CommSet::new(
            mesh,
            vec![
                Comm::new(Coord::new(0, 0), Coord::new(1, 1), 5.0),
                Comm::new(Coord::new(0, 1), Coord::new(1, 2), 9.0),
                Comm::new(Coord::new(0, 2), Coord::new(1, 3), 5.0),
                Comm::new(Coord::new(1, 0), Coord::new(2, 1), 7.0),
            ],
        );
        assert_eq!(cs.by_decreasing_weight(), vec![1, 3, 0, 2]);
        assert_eq!(cs.total_weight(), 26.0);
        assert_eq!(cs.len(), 4);
        assert!((cs.mean_length() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn nan_weight_sorts_instead_of_panicking() {
        // Regression: `Comm`'s fields are public and its `Deserialize` is
        // derived, so a NaN weight can reach `by_order` without ever
        // passing `Comm::new`'s assertion. The sort used to be
        // `partial_cmp().unwrap()`, which panicked on exactly this input;
        // `total_cmp` must produce a permutation instead.
        let mesh = Mesh::new(2, 2);
        let rogue = Comm {
            src: Coord::new(0, 0),
            snk: Coord::new(1, 1),
            weight: f64::NAN,
        };
        let cs = CommSet::new(
            mesh,
            vec![
                Comm::new(Coord::new(0, 0), Coord::new(1, 0), 2.0),
                rogue,
                Comm::new(Coord::new(0, 1), Coord::new(1, 1), 5.0),
            ],
        );
        for order in [
            SortOrder::DecreasingWeight,
            SortOrder::DecreasingLength,
            SortOrder::DecreasingDensity,
        ] {
            let mut idx = cs.by_order(order);
            idx.sort_unstable();
            assert_eq!(idx, vec![0, 1, 2], "{order:?} must yield a permutation");
        }
        // And the well-formed communications still sort heaviest-first
        // relative to each other (NaN sorts above +inf under total_cmp).
        let idx = cs.by_decreasing_weight();
        let pos = |i: usize| idx.iter().position(|&x| x == i).unwrap();
        assert!(pos(2) < pos(0), "5.0 must precede 2.0");
    }

    #[test]
    fn empty_set() {
        let cs = CommSet::new(Mesh::new(2, 2), vec![]);
        assert!(cs.is_empty());
        assert_eq!(cs.total_weight(), 0.0);
        assert_eq!(cs.mean_length(), 0.0);
        assert!(cs.by_decreasing_weight().is_empty());
    }
}
