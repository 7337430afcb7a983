//! Smoke tests: every figure/summary binary must run end to end on a tiny
//! budget (few trials, fixed seed) without panicking, so the figure
//! pipeline is exercised by `cargo test`, not only by hand or in benches.

use std::path::Path;
use std::process::Command;

fn run(bin: &str, args: &[&str]) -> String {
    let out = Command::new(bin)
        .args(args)
        .output()
        .unwrap_or_else(|e| panic!("failed to spawn {bin}: {e}"));
    assert!(
        out.status.success(),
        "{bin} {args:?} exited with {:?}\nstderr:\n{}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout).expect("binary output is UTF-8")
}

#[test]
fn fig2_matches_paper_values() {
    let out = run(env!("CARGO_BIN_EXE_fig2"), &[]);
    assert!(out.contains("128.00"), "XY power missing:\n{out}");
    assert!(out.contains("32.00"), "2-MP power missing:\n{out}");
    assert!(out.contains("match the paper exactly"), "{out}");
}

#[test]
fn fig7_runs_and_writes_csv() {
    let dir = std::env::temp_dir().join("pamr_smoke_fig7");
    let _ = std::fs::remove_dir_all(&dir);
    let out = run(
        env!("CARGO_BIN_EXE_fig7"),
        &[
            "--trials",
            "2",
            "--seed",
            "7",
            "--csv",
            dir.to_str().unwrap(),
        ],
    );
    assert!(out.contains("fig7"), "{out}");
    assert!(out.contains("failure ratio"), "{out}");
    let csvs: Vec<_> = std::fs::read_dir(&dir)
        .expect("--csv directory was created")
        .filter_map(|e| e.ok())
        .filter(|e| {
            Path::new(&e.file_name())
                .extension()
                .is_some_and(|x| x == "csv")
        })
        .collect();
    assert!(!csvs.is_empty(), "fig7 --csv wrote no CSV files");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn fig8_runs() {
    let out = run(
        env!("CARGO_BIN_EXE_fig8"),
        &["--trials", "2", "--seed", "8"],
    );
    assert!(out.contains("fig8"), "{out}");
}

#[test]
fn fig9_runs() {
    let out = run(
        env!("CARGO_BIN_EXE_fig9"),
        &["--trials", "2", "--seed", "9"],
    );
    assert!(out.contains("fig9"), "{out}");
}

#[test]
fn summary_runs() {
    let out = run(
        env!("CARGO_BIN_EXE_summary"),
        &["--trials", "1", "--seed", "64"],
    );
    assert!(out.contains("success rate"), "{out}");
    assert!(out.contains("pooled over"), "{out}");
}

#[test]
fn summary_shard_mode_writes_partial_json() {
    let dir = std::env::temp_dir().join("pamr_smoke_summary_shard");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let out_file = dir.join("part0.json");
    let stdout = run(
        env!("CARGO_BIN_EXE_summary"),
        &[
            "--trials",
            "1",
            "--seed",
            "64",
            "--shard",
            "0/3",
            "--out",
            out_file.to_str().unwrap(),
        ],
    );
    // Shard mode prints nothing deterministic to stdout; the partial
    // lands in the output file instead.
    assert!(stdout.is_empty(), "shard mode wrote to stdout: {stdout}");
    let text = std::fs::read_to_string(&out_file).expect("partial written");
    assert!(text.contains("\"shard_index\": 0"), "{text}");
    assert!(text.contains("\"shard_count\": 3"), "{text}");
    assert!(text.contains("\"exp_id\": \"fig7a\""), "{text}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn fig7_shard_renders_only_owned_points() {
    let all = run(
        env!("CARGO_BIN_EXE_fig7"),
        &["--trials", "1", "--seed", "7"],
    );
    let owned = run(
        env!("CARGO_BIN_EXE_fig7"),
        &["--trials", "1", "--seed", "7", "--shard", "1/2"],
    );
    // Shard 1/2 of fig7a owns the even x-rows 20, 40, ... (indices 1, 3,
    // ...) — fewer lines than the full sweep, drawn from the same table.
    assert!(owned.len() < all.len(), "sharded output not smaller");
    assert!(owned.contains("fig7a"), "{owned}");
}

#[test]
fn ablation_runs() {
    let out = run(
        env!("CARGO_BIN_EXE_ablation"),
        &["--trials", "2", "--seed", "3"],
    );
    assert!(out.contains("leakage ablation"), "{out}");
}

#[test]
fn theory_runs() {
    let out = run(env!("CARGO_BIN_EXE_theory"), &[]);
    assert!(out.contains("Lemma 1"), "{out}");
    assert!(out.contains("Theorem 1"), "{out}");
}

#[test]
fn seeds_are_reproducible() {
    let a = run(
        env!("CARGO_BIN_EXE_fig8"),
        &["--trials", "2", "--seed", "5"],
    );
    let b = run(
        env!("CARGO_BIN_EXE_fig8"),
        &["--trials", "2", "--seed", "5"],
    );
    assert_eq!(a, b, "same seed must reproduce identical output");
}

#[test]
fn bad_arguments_exit_2_with_one_message() {
    for (bin, args) in [
        (env!("CARGO_BIN_EXE_fig7"), &["--bogus"][..]),
        (env!("CARGO_BIN_EXE_summary"), &["--trials", "0"]),
        (env!("CARGO_BIN_EXE_fig8"), &["--seed", "x"]),
        (env!("CARGO_BIN_EXE_fig9"), &["--shard", "2/2"]),
        (env!("CARGO_BIN_EXE_ablation"), &["--trials"]),
        (env!("CARGO_BIN_EXE_fig2"), &["--bogus"]),
        (env!("CARGO_BIN_EXE_theory"), &["--trials", "3"]),
    ] {
        let out = Command::new(bin).args(args).output().expect("spawn");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{bin} {args:?}:\n{stderr}");
        assert!(
            stderr.lines().count() == 1 && !stderr.contains("panicked"),
            "{bin} {args:?} must print one message, got:\n{stderr}"
        );
    }
}
