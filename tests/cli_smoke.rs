//! Smoke test for the `pamr` command-line front end: generate a random
//! instance on a tiny mesh, route it with every heuristic name the CLI
//! accepts, and check the JSON report parses.

use std::process::Command;

fn pamr(args: &[&str]) -> (String, String, bool) {
    let out = Command::new(env!("CARGO_BIN_EXE_pamr"))
        .args(args)
        .output()
        .expect("failed to spawn pamr");
    (
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
        out.status.success(),
    )
}

#[test]
fn random_then_route_round_trip() {
    let dir = std::env::temp_dir().join("pamr_cli_smoke");
    std::fs::create_dir_all(&dir).unwrap();
    let inst = dir.join("inst.json");

    let (json, stderr, ok) = pamr(&[
        "random", "--mesh", "4x4", "--n", "6", "--wmin", "100", "--wmax", "900", "--seed", "11",
    ]);
    assert!(ok, "pamr random failed: {stderr}");
    std::fs::write(&inst, &json).unwrap();

    // The generated instance is valid JSON for a 4×4 CommSet.
    let cs: pamr::routing::CommSet = serde_json::from_str(&json).expect("instance parses");
    assert_eq!(cs.len(), 6);

    for heuristic in ["BEST", "XY", "SG", "IG", "TB", "XYI", "PR"] {
        let (out, stderr, ok) = pamr(&[
            "route",
            "--instance",
            inst.to_str().unwrap(),
            "--heuristic",
            heuristic,
        ]);
        assert!(ok, "pamr route --heuristic {heuristic} failed: {stderr}");
        assert!(!out.is_empty(), "route {heuristic} printed nothing");
    }

    // Machine-readable report.
    let (out, stderr, ok) = pamr(&["route", "--instance", inst.to_str().unwrap(), "--json"]);
    assert!(ok, "pamr route --json failed: {stderr}");
    assert!(
        out.trim_start().starts_with('{'),
        "--json must print a JSON object, got:\n{out}"
    );

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn shard_merge_round_trip_matches_single_process() {
    let dir = std::env::temp_dir().join("pamr_cli_shard_smoke");
    std::fs::create_dir_all(&dir).unwrap();
    let part = |i: usize| dir.join(format!("part{i}.json"));

    // Two shards of a tiny campaign...
    for i in 0..2 {
        let (_, stderr, ok) = pamr(&[
            "shard",
            "--shard",
            &format!("{i}/2"),
            "--trials",
            "1",
            "--seed",
            "9",
            "--out",
            part(i).to_str().unwrap(),
        ]);
        assert!(ok, "pamr shard {i}/2 failed: {stderr}");
    }
    // ...merge to the single-process report.
    let (merged, stderr, ok) = pamr(&[
        "merge",
        part(0).to_str().unwrap(),
        part(1).to_str().unwrap(),
    ]);
    assert!(ok, "pamr merge failed: {stderr}");
    // One shard alone must be rejected with a structured message.
    let (single, one_shard_ok) = {
        let (_, stderr, ok) = pamr(&["merge", part(0).to_str().unwrap()]);
        (stderr, ok)
    };
    assert!(!one_shard_ok, "merging an incomplete shard set must fail");
    assert!(
        single.contains("missing shard partial"),
        "unexpected merge error: {single}"
    );
    // The merged report is the §6.4 summary.
    assert!(merged.contains("§6.4 summary statistics"), "{merged}");
    assert!(merged.contains("BEST inv-power ratio"), "{merged}");
    assert!(merged.contains("pooled over"), "{merged}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn demo_runs() {
    let (out, stderr, ok) = pamr(&["demo"]);
    assert!(ok, "pamr demo failed: {stderr}");
    assert!(
        out.contains("BEST"),
        "demo output missing BEST line:\n{out}"
    );
}

#[test]
fn shard_rejects_bad_flags_with_exit_2() {
    for args in [
        &["shard", "--shard", "0/2", "--trials", "x"][..],
        &[
            "shard", "--shard", "0/2", "--trials", "0", "--out", "p.json",
        ],
        &["shard", "--shard", "2/2", "--out", "p.json"],
        &["shard", "--bogus"],
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_pamr"))
            .args(args)
            .output()
            .expect("failed to spawn pamr");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "pamr {args:?}:\n{stderr}");
        assert!(
            stderr.starts_with("pamr shard: ") && !stderr.contains("panicked"),
            "pamr {args:?} must print one structured error, got:\n{stderr}"
        );
    }
}
