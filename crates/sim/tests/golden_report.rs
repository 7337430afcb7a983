//! Golden-report regression gate for the §6.4 summary pipeline.
//!
//! A committed fixture pins the **byte-exact** summary report and the
//! bit-exact pooled accumulator of a small seeded campaign. Statistics
//! regressions — like the pre-shard-PR BEST pooling bug, where the §6.4
//! BEST ratio silently degraded to a max-of-means lower bound — change
//! these bytes and fail here instead of landing unnoticed.
//!
//! When a change *intentionally* alters the statistics (new pooling rule,
//! different seeding), regenerate the fixture and review the diff:
//!
//! ```text
//! PAMR_BLESS=1 cargo test -p pamr-sim --test golden_report
//! ```

use pamr_sim::summary::Summary;
use serde::{Deserialize, Serialize};

/// The campaign the fixture pins: small enough for CI, big enough to pool
/// every §6 sub-figure.
const TRIALS: usize = 2;
const SEED: u64 = 0x6011D;

/// Schema of `fixtures/summary_golden.json`.
#[derive(Debug, Serialize, Deserialize)]
struct Golden {
    schema: u32,
    trials: usize,
    seed: u64,
    /// Every deterministic field of the pooled accumulator, bit for bit
    /// (wall-clock `sum_micros` excluded).
    fingerprint: Vec<u64>,
    /// The full `render_report()` stdout, byte for byte.
    report: String,
}

fn fixture_path() -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/summary_golden.json")
}

#[test]
fn summary_pipeline_reproduces_the_committed_golden_report() {
    let mesh = pamr_sim::paper_mesh();
    let model = pamr_sim::paper_model();
    let summary = Summary::run(&mesh, &model, TRIALS, SEED);
    let current = Golden {
        schema: 1,
        trials: TRIALS,
        seed: SEED,
        fingerprint: summary.pooled.fingerprint(),
        report: summary.render_report(),
    };

    let path = fixture_path();
    if std::env::var_os("PAMR_BLESS").is_some() {
        let json = serde_json::to_string_pretty(&current).expect("fixture serialises");
        std::fs::write(&path, json + "\n").expect("write fixture");
        eprintln!("blessed {}", path.display());
        return;
    }

    let text = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "cannot read {} ({e}); run with PAMR_BLESS=1 to create it",
            path.display()
        )
    });
    let golden: Golden = serde_json::from_str(&text).expect("fixture parses");
    assert_eq!(golden.schema, 1, "unknown fixture schema");
    assert_eq!(golden.trials, TRIALS, "fixture from a different campaign");
    assert_eq!(golden.seed, SEED, "fixture from a different campaign");
    assert_eq!(
        golden.fingerprint, current.fingerprint,
        "pooled §6.4 statistics diverged bit-exactly from the committed fixture \
         (if intentional: PAMR_BLESS=1 cargo test -p pamr-sim --test golden_report)"
    );
    assert_eq!(
        golden.report, current.report,
        "rendered §6.4 report diverged byte-for-byte from the committed fixture"
    );
}

#[test]
fn golden_report_has_the_expected_shape() {
    // Guard the fixture itself against accidental hand edits: it must
    // parse, carry the pinned campaign parameters, and contain the §6.4
    // table headline.
    if std::env::var_os("PAMR_BLESS").is_some() {
        // The sibling test is rewriting the fixture concurrently.
        return;
    }
    let text = std::fs::read_to_string(fixture_path()).expect("fixture exists");
    let golden: Golden = serde_json::from_str(&text).expect("fixture parses");
    assert_eq!((golden.trials, golden.seed), (TRIALS, SEED));
    assert!(golden.report.contains("§6.4 summary statistics"));
    assert!(golden.report.contains("BEST inv-power ratio"));
    assert!(golden.report.contains("pooled over"));
    // 4 pooled fields + 4 per policy × 6 policies.
    assert_eq!(golden.fingerprint.len(), 4 + 4 * 6);
}
