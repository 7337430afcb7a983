//! Command-line contract of `pamr-bench`: bad flags and unusable reports
//! get one `pamr-bench: <message>` line and a nonzero exit (2 for bad
//! input), never a panic; a lane run merges into an existing report.

use std::path::PathBuf;
use std::process::Command;

/// Runs `pamr-bench` with `args`: (exit code, stdout, stderr).
fn bench(args: &[&str]) -> (Option<i32>, String, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_pamr-bench"))
        .args(args)
        .output()
        .expect("spawn pamr-bench");
    (
        out.status.code(),
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

/// A fresh scratch directory for one test.
fn scratch_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("pamr_bench_cli_{}_{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

fn assert_refused(args: &[&str], code: i32) {
    let (status, _, stderr) = bench(args);
    assert_eq!(
        status,
        Some(code),
        "{args:?} exit status; stderr:\n{stderr}"
    );
    assert!(
        stderr.starts_with("pamr-bench: ") && stderr.lines().count() == 1,
        "{args:?} must print one `pamr-bench:` line, got:\n{stderr}"
    );
    assert!(!stderr.contains("panicked"), "{args:?} panicked:\n{stderr}");
}

/// A lane run small enough for a debug build, writing into `out`.
fn tiny_lane(lane: &str, out: &str) {
    let mut args = vec![lane, "--out", out];
    args.extend("--instances 2 --comms 6 --repeats 1".split(' '));
    let (status, _, stderr) = bench(&args);
    assert_eq!(status, Some(0), "{lane} lane failed:\n{stderr}");
}

#[test]
fn bad_flags_exit_2_with_one_message() {
    for cmd in [
        "check --baseline a --current b --max-ratio x",
        "check --current b",
        "pr --instance 2",
        "pr --comms",
        "xyi --comms x",
        "ig --repeats 0",
        "frontier --segments -1",
        "scaling --profile bogus",
        "scaling --profile serve --check-only",
        "shard --trials 0",
        "run --trials x",
        // Sizes above the shared u32::MAX bound.
        "pr --instances 18446744073709551615",
        "ig --comms 18446744073709551615 --instances 1",
        "bogus",
        "",
    ] {
        assert_refused(&cmd.split_whitespace().collect::<Vec<_>>(), 2);
    }
}

#[test]
fn check_refuses_reports_it_cannot_compare() {
    let dir = scratch_dir("check");
    let path = |name: &str| dir.join(name).display().to_string();
    // Two lane-only reports have no campaign figures: their wall-time
    // ratio is 0/0, which must not pass as "no regression".
    tiny_lane("pr", &path("a.json"));
    tiny_lane("pr", &path("b.json"));
    std::fs::write(path("garbage.json"), "not json").unwrap();
    std::fs::write(path("old.json"), r#"{"schema": 7}"#).unwrap();
    for (baseline, current) in [
        ("a.json", "b.json"),
        ("missing.json", "b.json"),
        ("garbage.json", "b.json"),
        ("old.json", "b.json"),
    ] {
        let (b, c) = (path(baseline), path(current));
        assert_refused(&["check", "--baseline", &b, "--current", &c], 2);
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn lane_run_merges_into_an_existing_report() {
    let dir = scratch_dir("merge");
    let out = dir.join("BENCH_summary.json").display().to_string();
    let read = || -> serde::Value {
        serde_json::from_str(&std::fs::read_to_string(&out).unwrap()).unwrap()
    };
    tiny_lane("pr", &out);
    let before = read();
    tiny_lane("ig", &out);
    let after = read();
    let entries = |v: &serde::Value| v.as_object().unwrap().to_vec();
    for (key, value) in entries(&before) {
        if key != "lanes" {
            assert_eq!(after.get(&key), Some(&value), "top-level {key} changed");
        }
    }
    let lanes = |v: &serde::Value| v.get("lanes").unwrap().clone();
    assert_eq!(lanes(&after).get("pr"), lanes(&before).get("pr"));
    let ig = lanes(&after).get("ig").cloned().expect("ig section merged");
    for field in ["params", "per", "optimized_ms", "baseline_ms", "speedup"] {
        assert!(ig.get(field).is_some(), "ig section lacks {field}");
    }
    assert_eq!(ig.get("crosschecked"), Some(&serde::Value::Bool(true)));
    let _ = std::fs::remove_dir_all(&dir);
}
