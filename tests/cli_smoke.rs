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
    // `--figures` prints the fig7–fig9 tables instead: one header per
    // sub-figure, with the trial budget.
    let (figures, stderr, ok) = pamr(&[
        "merge",
        "--figures",
        part(0).to_str().unwrap(),
        part(1).to_str().unwrap(),
    ]);
    assert!(ok, "pamr merge --figures failed: {stderr}");
    assert_eq!(figures.matches(", 1 trials/point)").count(), 9, "{figures}");
    assert!(figures.starts_with("== fig7a — "), "{figures}");
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

/// Runs `pamr` on the whitespace-separated `line` and asserts it exits
/// with `code` after printing exactly one `pamr <cmd>: ` line and no panic.
fn assert_one_message(line: &str, code: i32) {
    let args: Vec<&str> = line.split_whitespace().collect();
    let out = Command::new(env!("CARGO_BIN_EXE_pamr"))
        .args(&args)
        .output()
        .expect("failed to spawn pamr");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(code), "pamr {line}:\n{stderr}");
    assert!(
        stderr.starts_with(&format!("pamr {}: ", args[0]))
            && stderr.lines().count() == 1
            && !stderr.contains("panicked"),
        "pamr {line} must print one structured error, got:\n{stderr}"
    );
}

#[test]
fn malformed_instances_and_oversized_meshes_get_one_message() {
    // Instance files that deserialize structurally but break what the
    // constructors check: exit 1, like any unreadable file. Oversized
    // `--mesh` flags: exit 2, like any bad flag.
    let dir = std::env::temp_dir().join(format!("pamr_cli_instances_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let instance = |name: &str, mesh: &str, comm: &str| {
        let path = dir.join(name);
        let comms = if comm.is_empty() {
            String::new()
        } else {
            format!("{{{comm},\"snk\":{{\"u\":0,\"v\":0}}}}")
        };
        let json = format!("{{\"mesh\":{mesh},\"comms\":[{comms}]}}");
        std::fs::write(&path, json).unwrap();
        path.display().to_string()
    };
    let empty_mesh = instance("empty_mesh.json", r#"{"p":0,"q":4}"#, "");
    let off_mesh = instance(
        "off_mesh.json",
        r#"{"p":4,"q":4}"#,
        r#""src":{"u":9,"v":0},"weight":5"#,
    );
    let negative = instance(
        "negative.json",
        r#"{"p":4,"q":4}"#,
        r#""src":{"u":1,"v":3},"weight":-5"#,
    );
    let huge = instance("huge.json", r#"{"p":100000,"q":100000}"#, "");
    for (line, code) in [
        (format!("route --instance {empty_mesh}"), 1),
        (format!("route --instance {off_mesh}"), 1),
        (format!("frontier --instance {off_mesh}"), 1),
        (format!("route --instance {negative}"), 1),
        (format!("route --instance {huge}"), 1),
        ("serve --mesh 100000x100000 --stdin".into(), 2),
        ("frontier --mesh 100000x100000 --n 2".into(), 2),
    ] {
        assert_one_message(&line, code);
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn bad_input_gets_one_message_and_no_panic() {
    // A regular file where a directory should go: every read or write
    // beneath it fails.
    let blocker = std::env::temp_dir().join(format!("pamr_cli_blocker_{}", std::process::id()));
    std::fs::write(&blocker, "").unwrap();
    let unusable = blocker.join("part.json").display().to_string();
    // A valid instance, so `route` reaches its `--split` expansion.
    let inst = std::env::temp_dir().join(format!("pamr_cli_split_{}.json", std::process::id()));
    let json = r#"{"mesh":{"p":2,"q":2},"comms":[{"src":{"u":0,"v":0},"snk":{"u":1,"v":1},"weight":100}]}"#;
    std::fs::write(&inst, json).unwrap();
    let inst = inst.display().to_string();
    // Sizes above the bound every size flag shares (u32::MAX): each used
    // to reach an allocation and panic with "capacity overflow".
    let huge = u64::MAX;
    for (line, code) in [
        ("random --mesh 0x4".to_string(), 2),
        ("random --mesh 1x1".into(), 2),
        ("serve --stdin --mesh 0x4".into(), 2),
        ("random --mesh 3x3 --n 2 --wmin 5000 --wmax 10".into(), 2),
        ("random --mesh 4x4 --n 3 --bogus 1".into(), 2),
        (
            "frontier --mesh 4x4 --n 3 --segments x --check-only".into(),
            2,
        ),
        ("frontier --mesh 4x4 --shard 0/2".into(), 2),
        ("serve --stdin --max-moves abc --bogus".into(), 2),
        ("route --heuristic XY".into(), 2),
        ("merge --figures".into(), 2),
        ("demo extra".into(), 2),
        (format!("route --instance {unusable}"), 1),
        (format!("frontier --n 3 --shard 0/2 --out {unusable}"), 1),
        // Refused while parsing (cli::MAX_THREADS), before any thread starts.
        (
            format!("shard --shard 0/1 --trials 1 --threads 257 --out {unusable}"),
            2,
        ),
        (
            format!("route --instance {inst} --heuristic PR --split {huge}"),
            2,
        ),
        (format!("random --mesh 4x4 --n {huge}"), 2),
        (
            format!("frontier --mesh 4x4 --n 3 --segments {huge} --check-only"),
            2,
        ),
    ] {
        assert_one_message(&line, code);
    }
    let _ = std::fs::remove_file(&blocker);
    let _ = std::fs::remove_file(&inst);
}

#[test]
fn closed_stdout_ends_quietly() {
    // The read end of the child's stdout is closed before the child
    // starts, so its first write always meets a broken pipe: the command
    // must end quietly with status 0, not panic in a print.
    for args in [
        &["random", "--mesh", "8x8", "--n", "4000", "--seed", "3"][..],
        &["demo"][..],
    ] {
        let (reader, writer) = std::io::pipe().expect("pipe");
        drop(reader);
        let out = Command::new(env!("CARGO_BIN_EXE_pamr"))
            .args(args)
            .stdout(writer)
            .output()
            .expect("failed to spawn pamr");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(!stderr.contains("panicked"), "{args:?} panicked:\n{stderr}");
        assert_eq!(out.status.code(), Some(0), "{args:?}: {stderr}");
    }
    // Any other write error is one line and status 1.
    if let Ok(full) = std::fs::OpenOptions::new().write(true).open("/dev/full") {
        let out = Command::new(env!("CARGO_BIN_EXE_pamr"))
            .arg("demo")
            .stdout(full)
            .output()
            .expect("failed to spawn pamr");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{stderr}");
        assert!(
            stderr.starts_with("pamr: writing to standard output:") && stderr.lines().count() == 1,
            "{stderr}"
        );
    }
}
