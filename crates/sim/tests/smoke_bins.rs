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

/// Runs `bin` on bad input: it must exit with `code` after one stderr
/// line, without a panic.
fn assert_one_message(bin: &str, args: &[&str], code: i32) {
    let out = Command::new(bin).args(args).output().expect("spawn");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(code), "{bin} {args:?}:\n{stderr}");
    assert!(
        stderr.lines().count() == 1 && !stderr.contains("panicked"),
        "{bin} {args:?} must print one message, got:\n{stderr}"
    );
}

#[test]
fn bad_arguments_exit_2_with_one_message() {
    for (bin, args) in [
        (env!("CARGO_BIN_EXE_fig7"), &["--bogus"][..]),
        (env!("CARGO_BIN_EXE_summary"), &["--trials", "0"]),
        (
            env!("CARGO_BIN_EXE_summary"),
            &["--trials", "1", "--threads", "257"],
        ),
        (env!("CARGO_BIN_EXE_fig8"), &["--seed", "x"]),
        (env!("CARGO_BIN_EXE_fig9"), &["--shard", "0/2"]),
        (env!("CARGO_BIN_EXE_fig7"), &["--out", "part.json"]),
        (
            env!("CARGO_BIN_EXE_summary"),
            &["--shard", "0/2", "--out", "part.json"],
        ),
        (env!("CARGO_BIN_EXE_ablation"), &["--trials"]),
        (env!("CARGO_BIN_EXE_fig2"), &["--bogus"]),
        (env!("CARGO_BIN_EXE_theory"), &["--trials", "3"]),
    ] {
        assert_one_message(bin, args, 2);
    }
}

#[test]
fn failed_csv_write_exits_1_with_one_message() {
    // A regular file where the CSV directory should go: no directory can
    // be created beneath it, on any platform and as any user.
    let blocker = std::env::temp_dir().join(format!("pamr_smoke_blocker_{}", std::process::id()));
    std::fs::write(&blocker, "").unwrap();
    let dir = blocker.join("csv");
    let args = [
        "--trials",
        "1",
        "--seed",
        "1",
        "--csv",
        dir.to_str().unwrap(),
    ];
    assert_one_message(env!("CARGO_BIN_EXE_fig7"), &args, 1);
    let _ = std::fs::remove_file(&blocker);
}
