//! Golden pin of `pamr serve` under long seeded churn: the bounded repair's
//! choices, flip for flip.
//!
//! `session_golden.rs` pins the wire bytes of a short hand-written script,
//! and `session_prop.rs` / `tests/session_differential.rs` pin invariants
//! (consistent indices, the power gate) that any reasonable repair
//! satisfies. Neither notices a repair pass that picks *different* flips:
//! a pass that skips a link it should have re-examined still ends in a
//! consistent, feasible state. This test replays two seeded churns of
//! [`MUTATIONS`] add/remove requests each through a [`Server`] and compares
//! what they leave behind against `fixtures/session_churn_golden.jsonl`:
//!
//! * a feasible 8×8 regime, moderate weights, where the bounded pass does
//!   all the work;
//! * an overloaded 8×8 regime, more and heavier communications, where
//!   about two mutations in five end infeasible and escalate to a full
//!   re-route.
//!
//! Every [`CHECKPOINT`] mutations the fixture holds one `power_report`
//! response and one line of the session's work counters; each regime ends
//! with a `snapshot` of every live path. To accept an intentional change,
//! regenerate with:
//!
//! ```text
//! PAMR_BLESS=1 cargo test -p pamr-sim --test session_churn
//! ```
//!
//! and review the fixture diff like any other code change.

use pamr_power::PowerModel;
use pamr_routing::SessionConfig;
use pamr_sim::serve::Server;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::path::PathBuf;

/// Add/remove requests per regime.
const MUTATIONS: usize = 1_200;

/// Mutations between two recorded checkpoints.
const CHECKPOINT: usize = 100;

/// One churn regime: the seed, the number of live communications the churn
/// hovers around, and the weight range it draws from.
struct Regime {
    name: &'static str,
    seed: u64,
    live: usize,
    weights: (f64, f64),
}

const REGIMES: [Regime; 2] = [
    Regime {
        name: "feasible",
        seed: 2_001,
        live: 40,
        weights: (100.0, 1_200.0),
    },
    Regime {
        name: "overloaded",
        seed: 2_002,
        live: 45,
        weights: (200.0, 1_600.0),
    },
];

/// Replays `regime` and returns its checkpoint lines.
fn churn(regime: &Regime) -> String {
    let mesh = pamr_sim::paper_mesh();
    let mut server = Server::new(mesh, PowerModel::kim_horowitz(), SessionConfig::default());
    let mut rng = SmallRng::seed_from_u64(regime.seed);
    let (rows, cols) = (mesh.rows(), mesh.cols());
    let mut live: Vec<String> = Vec::new();
    let mut next_id = 0;
    let mut out = String::new();
    for step in 1..=MUTATIONS {
        // Grow to the target, then hover just above it.
        let add =
            live.len() < regime.live || (live.len() < regime.live + 10 && rng.gen_range(0..2) == 0);
        let request = if add {
            let id = format!("c{next_id}");
            next_id += 1;
            let line = format!(
                "{{\"op\":\"add_comm\",\"id\":\"{id}\",\"src\":{{\"u\":{},\"v\":{}}},\
                 \"snk\":{{\"u\":{},\"v\":{}}},\"weight\":{}}}",
                rng.gen_range(0..rows),
                rng.gen_range(0..cols),
                rng.gen_range(0..rows),
                rng.gen_range(0..cols),
                rng.gen_range(regime.weights.0..regime.weights.1),
            );
            live.push(id);
            line
        } else {
            let id = live.swap_remove(rng.gen_range(0..live.len()));
            format!("{{\"op\":\"remove_comm\",\"id\":\"{id}\"}}")
        };
        let response = server.handle_line(&request);
        assert!(
            response.starts_with("{\"ok\":true"),
            "{} step {step}: {request} -> {response}",
            regime.name
        );
        if step % CHECKPOINT == 0 {
            let stats = server.session().stats();
            out.push_str(&format!(
                "{{\"regime\":\"{}\",\"step\":{step},\"repair_moves\":{},\
                 \"full_reroutes\":{},\"escalations\":{}}}\n",
                regime.name, stats.repair_moves, stats.full_reroutes, stats.escalations
            ));
            out.push_str(&server.handle_line("{\"op\":\"power_report\"}"));
            out.push('\n');
        }
    }
    out.push_str(&server.handle_line("{\"op\":\"snapshot\"}"));
    out.push('\n');
    out
}

#[test]
fn seeded_churn_matches_golden_fixture() {
    let produced: String = REGIMES.iter().map(churn).collect();
    let golden_path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join("session_churn_golden.jsonl");
    if std::env::var_os("PAMR_BLESS").is_some() {
        std::fs::write(&golden_path, &produced).expect("write golden fixture");
        eprintln!("blessed {}", golden_path.display());
        return;
    }
    let golden = std::fs::read_to_string(&golden_path).unwrap_or_else(|e| {
        panic!(
            "cannot read {} ({e}); regenerate with PAMR_BLESS=1",
            golden_path.display()
        )
    });
    for (k, (got, want)) in produced.lines().zip(golden.lines()).enumerate() {
        assert_eq!(
            got,
            want,
            "line {} of the churn fixture drifted; if intentional, \
             regenerate with PAMR_BLESS=1 and review the diff",
            k + 1
        );
    }
    assert_eq!(
        produced.lines().count(),
        golden.lines().count(),
        "the churn fixture has a different number of lines"
    );
}
