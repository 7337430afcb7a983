//! Golden-fixture pin of the `pamr serve` wire protocol, byte for byte.
//!
//! `fixtures/session_script.jsonl` is a hand-written request script (CI's
//! stdin smoke test also pipes it whole into the release binary) and
//! `fixtures/session_golden.jsonl` holds the expected response lines.
//! Any change to the response schema — field names, field order, number
//! formatting, error wording — shows up here as a byte diff. To accept an
//! intentional change, regenerate with:
//!
//! ```text
//! PAMR_BLESS=1 cargo test -p pamr-sim --test session_golden
//! ```
//!
//! and review the fixture diff like any other code change.

use pamr_power::PowerModel;
use pamr_routing::SessionConfig;
use pamr_sim::serve::Server;
use std::path::PathBuf;

fn fixture(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name)
}

#[test]
fn wire_protocol_matches_golden_fixture() {
    // The CI smoke test and the README example both run this exact
    // configuration: the paper's 8×8 mesh, Kim–Horowitz model, default
    // (bounded XYI) repair.
    let mut server = Server::new(
        pamr_sim::paper_mesh(),
        PowerModel::kim_horowitz(),
        SessionConfig::default(),
    );
    let script = std::fs::read_to_string(fixture("session_script.jsonl"))
        .expect("fixtures/session_script.jsonl is checked in");
    let mut produced = String::new();
    for line in script.lines().filter(|l| !l.trim().is_empty()) {
        produced.push_str(&server.handle_line(line));
        produced.push('\n');
    }

    let golden_path = fixture("session_golden.jsonl");
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
    assert_eq!(
        produced, golden,
        "serve responses drifted from the golden fixture; if intentional, \
         regenerate with PAMR_BLESS=1 and review the diff"
    );
}

#[test]
fn golden_responses_line_up_with_script_requests() {
    // Structural sanity independent of exact bytes: one response per
    // request, every response is parseable JSON with a boolean `ok`, and
    // responses echo the request `op` they answer (parse errors echo null).
    let script = std::fs::read_to_string(fixture("session_script.jsonl")).unwrap();
    let golden = std::fs::read_to_string(fixture("session_golden.jsonl")).unwrap();
    let requests: Vec<&str> = script.lines().filter(|l| !l.trim().is_empty()).collect();
    let responses: Vec<&str> = golden.lines().collect();
    assert_eq!(requests.len(), responses.len());
    for (req, resp) in requests.iter().zip(&responses) {
        let r: serde::Value = serde_json::from_str(resp).expect("golden line parses");
        assert!(
            matches!(r.get("ok"), Some(serde::Value::Bool(_))),
            "{resp}: missing boolean ok"
        );
        if let Ok(rq) = serde_json::from_str::<serde::Value>(req) {
            let req_op = rq.get("op").cloned().unwrap_or(serde::Value::Null);
            if let serde::Value::Str(_) = req_op {
                assert_eq!(r.get("op"), Some(&req_op), "{resp}: op echo");
            }
        }
    }
}
