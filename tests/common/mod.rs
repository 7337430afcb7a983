//! Helpers shared by the root integration suites (`mod common;`).

use pamr::prelude::*;
use proptest::prelude::*;

/// Random instances mixing all quadrants, straight lines, duplicates and
/// core-local (zero-length) communications: a mesh of 1 to `side` rows and
/// columns carrying 1 to `comms` communications of weight 1–3500.
///
/// The vendored proptest seeds each test from its name, so a suite draws
/// the same cases whichever file defines the strategy.
pub fn any_instance(side: usize, comms: usize) -> impl Strategy<Value = CommSet> {
    (1usize..=side, 1usize..=side)
        .prop_flat_map(move |(p, q)| {
            let comms = prop::collection::vec(((0..p, 0..q), (0..p, 0..q), 1u32..=3500), 1..=comms);
            (Just((p, q)), comms)
        })
        .prop_map(|((p, q), comms)| {
            CommSet::new(
                Mesh::new(p, q),
                comms
                    .into_iter()
                    .map(|((a, b), (c, d), w)| {
                        Comm::new(Coord::new(a, b), Coord::new(c, d), w as f64)
                    })
                    .collect(),
            )
        })
}
