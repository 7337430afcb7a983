//! Shrinking property tests for the `pamr serve` protocol: arbitrary
//! request scripts — duplicate ids, removals of absent communications,
//! off-mesh endpoints, non-positive weights, garbage lines, 1×1 meshes —
//! must never panic the server, never desync its resident load indices
//! from a naive recomputation, and always answer structured JSON. Every
//! `feasible` field a response carries must equal the full power sweep's
//! verdict on the resident loads.
//!
//! Replay any failure with `PAMR_PROPTEST_SEED=<seed>`.

use pamr_mesh::LoadMap;
use pamr_power::PowerModel;
use pamr_routing::SessionConfig;
use pamr_sim::serve::Server;
use proptest::prelude::*;
use serde::Value;
use std::collections::HashMap;

/// One raw script step, encoded as plain integers so the shrinker can
/// minimise scripts without a bespoke `Arbitrary` impl.
type Step = (u8, u8, (usize, usize), (usize, usize), i32);

/// Renders a step as a request line. Selector 5 produces garbage that is
/// not JSON at all.
fn render(step: &Step) -> String {
    let (sel, id, (u1, v1), (u2, v2), w) = *step;
    let id = format!("c{}", id % 6);
    match sel % 6 {
        0 => format!(
            "{{\"op\":\"add_comm\",\"id\":\"{id}\",\"src\":{{\"u\":{u1},\"v\":{v1}}},\
             \"snk\":{{\"u\":{u2},\"v\":{v2}}},\"weight\":{w}}}"
        ),
        1 => format!("{{\"op\":\"remove_comm\",\"id\":\"{id}\"}}"),
        2 => "{\"op\":\"reroute\"}".to_string(),
        3 => "{\"op\":\"power_report\"}".to_string(),
        4 => "{\"op\":\"snapshot\"}".to_string(),
        _ => format!("op=add id={id} w={w}"),
    }
}

/// What a correct server must answer for this step, given the set of live
/// ids: `true` = success, `false` = structured error. Also updates the
/// mirror.
fn expect(step: &Step, rows: usize, cols: usize, live: &mut HashMap<String, ()>) -> bool {
    let (sel, id, (u1, v1), (u2, v2), w) = *step;
    let id = format!("c{}", id % 6);
    match sel % 6 {
        0 => {
            let ok = !live.contains_key(&id)
                && w > 0
                && u1 < rows
                && v1 < cols
                && u2 < rows
                && v2 < cols;
            if ok {
                live.insert(id, ());
            }
            ok
        }
        1 => live.remove(&id).is_some(),
        2..=4 => true,
        _ => false,
    }
}

fn script() -> impl Strategy<Value = Vec<Step>> {
    prop::collection::vec(
        (
            0u8..=5,
            0u8..=7,
            ((0usize..8), (0usize..8)),
            ((0usize..8), (0usize..8)),
            // Up to 10/7 of the Kim–Horowitz capacity, so infeasible states
            // (and their `"feasible":false` answers) really occur.
            -50i32..=5000,
        ),
        0..40,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn arbitrary_scripts_never_panic_or_desync(
        (rows, cols) in (1usize..=5, 1usize..=5),
        steps in script(),
    ) {
        let mesh = pamr_mesh::Mesh::new(rows, cols);
        let mut server = Server::new(mesh, PowerModel::kim_horowitz(), SessionConfig::default());
        let mut live: HashMap<String, ()> = HashMap::new();
        for step in &steps {
            let line = render(step);
            let should_succeed = expect(step, rows, cols, &mut live);
            let resp = server.handle_line(&line);
            // Structured JSON, never process death: the response parses and
            // carries a boolean `ok` matching the mirror's prediction.
            let value: Value = serde_json::from_str(&resp)
                .unwrap_or_else(|e| panic!("unparseable response {resp:?}: {e}"));
            let ok = match value.get("ok") {
                Some(Value::Bool(b)) => *b,
                other => panic!("response {resp:?} has no boolean ok: {other:?}"),
            };
            prop_assert_eq!(ok, should_succeed, "{} -> {}", line, resp);
            if !ok {
                let is_err_shape = matches!(value.get("error"), Some(Value::Str(_)));
                prop_assert!(is_err_shape, "error response without message: {}", resp);
            }
            if let Some(feasible) = value.get("feasible") {
                let session = server.session();
                let swept = session.model().power(session.loads()).is_ok();
                prop_assert_eq!(feasible, &Value::Bool(swept), "{} -> {}", line, resp);
            }
        }
        // The resident indices survived the whole script bit-exactly.
        let session = server.session();
        prop_assert_eq!(session.len(), live.len());
        let mut naive = LoadMap::new(session.mesh());
        for (_, c, p) in session.live() {
            naive.add_path(session.mesh(), p, c.weight);
        }
        for l in session.mesh().links() {
            prop_assert_eq!(
                session.loads().get(l).to_bits(),
                naive.get(l).to_bits(),
                "resident load of {} desynced", l
            );
        }
        prop_assert_eq!(session.max_load().to_bits(), naive.max_load().to_bits());
    }

    #[test]
    fn empty_and_local_comms_are_harmless(
        n in 0usize..10,
    ) {
        // Core-local communications on a 1×1 mesh: the only legal adds.
        let mesh = pamr_mesh::Mesh::new(1, 1);
        let mut server = Server::new(mesh, PowerModel::kim_horowitz(), SessionConfig::default());
        for i in 0..n {
            let resp = server.handle_line(&format!(
                "{{\"op\":\"add_comm\",\"id\":\"c{i}\",\"src\":{{\"u\":0,\"v\":0}},\
                 \"snk\":{{\"u\":0,\"v\":0}},\"weight\":10}}"
            ));
            prop_assert!(resp.starts_with("{\"ok\":true"), "{}", resp);
        }
        let report = server.handle_line("{\"op\":\"power_report\"}");
        prop_assert!(report.contains("\"feasible\":true"), "{}", report);
        prop_assert!(report.contains("\"max_load\":0.0"), "{}", report);
        prop_assert_eq!(server.session().len(), n);
    }
}

#[test]
fn coord_field_rejects_scalars() {
    let mesh = pamr_mesh::Mesh::new(3, 3);
    let mut server = Server::new(mesh, PowerModel::kim_horowitz(), SessionConfig::default());
    let resp =
        server.handle_line(r#"{"op":"add_comm","id":"a","src":7,"snk":{"u":0,"v":0},"weight":1}"#);
    assert!(resp.contains(r#""ok":false"#), "{resp}");
    assert!(resp.contains("must be a"), "{resp}");
}
