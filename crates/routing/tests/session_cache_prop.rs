//! Shrinking property test pinning [`RoutingSession`]'s `O(1)` feasibility
//! answer and its per-link power cache against the sweeps they replace.
//!
//! Arbitrary `add_comm`/`remove_comm`/`reroute` churn runs under the
//! discrete and continuous Kim–Horowitz models and the Figure 2 model, on
//! meshes down to 1×1, with weights up to 1.6× the link capacity so that
//! infeasible states really occur (exact-capacity loads included). After
//! every step:
//!
//! * `is_feasible()` equals `PowerModel::power(mesh, loads()).is_ok()`;
//! * the cached `power()` equals that sweep bit for bit in `dynamic`,
//!   `leakage` and `active_links` (or both refuse);
//! * `total_load()` equals `loads().total()` bit for bit, which is `+0.0`
//!   on an empty session.
//!
//! Replay any failure with `PAMR_PROPTEST_SEED=<seed>`.

use pamr_mesh::{Coord, Mesh};
use pamr_power::PowerModel;
use pamr_routing::{Comm, HeuristicKind, RepairMode, RoutingSession, SessionConfig};
use proptest::prelude::*;

/// One churn step as plain integers, so the shrinker minimises scripts:
/// `(kind, src, snk, weight in 40ths of the capacity)`. Kinds 0–1 add,
/// 2 removes the live handle `src.0 * 4 + src.1` (mod live count) and 3
/// re-routes, as does 2 when nothing is live.
type Step = (u8, (usize, usize), (usize, usize), u32);

fn script() -> impl Strategy<Value = Vec<Step>> {
    prop::collection::vec(
        (
            0u8..=3,
            (0usize..4, 0usize..4),
            (0usize..4, 0usize..4),
            1u32..=64,
        ),
        0..40,
    )
}

/// The three models: discrete and continuous Kim–Horowitz, Figure 2.
fn model(pick: u8) -> PowerModel {
    match pick {
        0 => PowerModel::kim_horowitz(),
        1 => PowerModel::kim_horowitz_continuous(),
        _ => PowerModel::fig2(),
    }
}

/// The cache contract of the module docs, against the full sweeps.
fn check(s: &RoutingSession) -> Result<(), String> {
    let swept = s.model().power(s.mesh(), s.loads());
    prop_assert_eq!(s.is_feasible(), swept.is_ok());
    match (s.power(), swept) {
        (Ok(cached), Ok(swept)) => {
            prop_assert_eq!(cached.dynamic.to_bits(), swept.dynamic.to_bits());
            prop_assert_eq!(cached.leakage.to_bits(), swept.leakage.to_bits());
            prop_assert_eq!(cached.active_links, swept.active_links);
        }
        (Err(_), Err(_)) => {}
        (cached, swept) => {
            return Err(format!("cached {cached:?} but swept {swept:?}"));
        }
    }
    prop_assert_eq!(s.total_load().to_bits(), s.loads().total().to_bits());
    if s.is_empty() {
        prop_assert_eq!(s.total_load().to_bits(), 0.0f64.to_bits());
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn cache_and_feasibility_match_the_sweeps_under_churn(
        (rows, cols) in (1usize..=4, 1usize..=4),
        (pick, repair) in (0u8..=2, 0u8..=2),
        steps in script(),
    ) {
        let model = model(pick);
        let capacity = model.capacity;
        let repair = match repair {
            0 => RepairMode::default(),
            1 => RepairMode::Bounded { max_moves: 1 },
            _ => RepairMode::Full,
        };
        let mut s = RoutingSession::new(
            Mesh::new(rows, cols),
            model,
            SessionConfig { heuristic: HeuristicKind::Xyi, repair },
        );
        let mut handles = Vec::new();
        check(&s)?;
        for &(kind, (u1, v1), (u2, v2), w) in &steps {
            match kind {
                0 | 1 => {
                    let comm = Comm::new(
                        Coord::new(u1 % rows, v1 % cols),
                        Coord::new(u2 % rows, v2 % cols),
                        capacity * f64::from(w) / 40.0,
                    );
                    handles.push(s.add_comm(comm));
                }
                2 if !handles.is_empty() => {
                    let h = handles.swap_remove((u1 * 4 + v1) % handles.len());
                    prop_assert!(s.remove_comm(h).is_some());
                }
                _ => s.reroute(),
            }
            check(&s)?;
        }
    }
}
