//! `pamr-perfbench`: the repository benchmark.
//!
//! ```text
//! pamr-perfbench --workload paper_campaign|serve_churn
//!                --seed N --seconds S --trace 0|1 [--pamr-bin PATH]
//! ```
//!
//! Every workload derives its inputs from `--seed`, runs its correctness
//! gates, measures for `--seconds`, and prints one line per metric
//! followed by a JSON result object as the last line of standard output.
//! `--trace 0` prints the end-to-end metrics, `--trace 1` the per-layer
//! ones (see `perfbench/BENCHMARK.md` for the metric table). A bad or missing
//! flag is answered with one JSON error object on standard error and exit
//! code 2; a failed correctness gate still prints the result (with
//! `"correct": false`) and exits 1.

mod campaign;
mod report;
mod serve;
mod speed;

use report::Report;
use std::collections::BTreeMap;
use std::path::PathBuf;

/// The workloads, in the order `BENCHMARK.json` lists them.
const WORKLOADS: [&str; 2] = ["paper_campaign", "serve_churn"];

/// The end-to-end metrics every workload reports with `--trace 0`.
pub const END_TO_END: [(&str, &str); 6] = [
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("ops_per_s_1t", "1/s"),
    ("op_us_p50", "us"),
    ("read_us_p50", "us"),
    ("quality_ratio", "1"),
];

/// The per-layer metrics every workload reports with `--trace 1`; a layer
/// that does no work on a workload reports 0.
pub const PER_LAYER: [(&str, &str); 37] = [
    ("workload.generate_us", "us"),
    ("precompute.build_ms", "ms"),
    ("precompute.customize_us", "us"),
    ("precompute.interner_hit_frac", "1"),
    ("route.xy.us", "us"),
    ("route.xy.share", "1"),
    ("route.xy.feasible_frac", "1"),
    ("route.sg.us", "us"),
    ("route.sg.share", "1"),
    ("route.sg.feasible_frac", "1"),
    ("route.ig.us", "us"),
    ("route.ig.share", "1"),
    ("route.ig.feasible_frac", "1"),
    ("route.tb.us", "us"),
    ("route.tb.share", "1"),
    ("route.tb.feasible_frac", "1"),
    ("route.xyi.us", "us"),
    ("route.xyi.share", "1"),
    ("route.xyi.feasible_frac", "1"),
    ("route.pr.us", "us"),
    ("route.pr.share", "1"),
    ("route.pr.feasible_frac", "1"),
    ("power.eval_us", "us"),
    ("stats.add_us", "us"),
    ("stats.merge_us", "us"),
    ("campaign.parallel_eff", "1"),
    ("campaign.run_point_ms", "ms"),
    ("session.add_us", "us"),
    ("session.remove_us", "us"),
    ("session.power_us", "us"),
    ("session.repair_moves_per_mutation", "1"),
    ("session.escalation_frac", "1"),
    ("serve.handle_line_us", "us"),
    ("serve.report_us", "us"),
    ("serve.wire_us", "us"),
    ("trace.coverage", "1"),
    ("trace.overhead", "1"),
];

/// Metric values a workload measured, by name: `(value, samples)`.
pub type Measured = BTreeMap<&'static str, (f64, usize)>;

/// Parsed command line.
#[derive(Debug, PartialEq)]
struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    pamr_bin: Option<PathBuf>,
}

/// Parses the flags; every problem comes back as a message, never a panic.
fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut pamr_bin = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .cloned()
                .ok_or_else(|| format!("flag {flag} needs a value"))
        };
        match flag.as_str() {
            "--workload" => {
                let w = value()?;
                if !WORKLOADS.contains(&w.as_str()) {
                    return Err(format!(
                        "unknown workload {w:?} (expected one of {})",
                        WORKLOADS.join(", ")
                    ));
                }
                workload = Some(w);
            }
            "--seed" => {
                let v = value()?;
                seed = Some(
                    v.parse::<u64>()
                        .map_err(|_| format!("--seed needs a non-negative integer, got {v:?}"))?,
                );
            }
            "--seconds" => {
                let v = value()?;
                match v.parse::<f64>() {
                    Ok(s) if s > 0.0 && s <= 3600.0 => seconds = Some(s),
                    _ => return Err(format!("--seconds needs a number in (0, 3600], got {v:?}")),
                }
            }
            "--trace" => {
                let v = value()?;
                trace = Some(match v.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace needs 0 or 1, got {v:?}")),
                });
            }
            "--pamr-bin" => pamr_bin = Some(PathBuf::from(value()?)),
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    let missing = |name: &str| format!("missing required flag {name}");
    Ok(Args {
        workload: workload.ok_or_else(|| missing("--workload"))?,
        seed: seed.ok_or_else(|| missing("--seed"))?,
        seconds: seconds.ok_or_else(|| missing("--seconds"))?,
        trace: trace.ok_or_else(|| missing("--trace"))?,
        pamr_bin,
    })
}

/// Escapes `s` as the body of a JSON string.
fn json_escape(s: &str) -> String {
    s.chars()
        .flat_map(|c| match c {
            '"' => vec!['\\', '"'],
            '\\' => vec!['\\', '\\'],
            c if (c as u32) < 0x20 => format!("\\u{:04x}", c as u32).chars().collect(),
            c => vec![c],
        })
        .collect()
}

/// Prints a structured error on standard error and exits with `code`.
fn fail(code: i32, error: &str) -> ! {
    eprintln!(
        "{{\"error\": \"{}\", \"usage\": \"pamr-perfbench --workload {} --seed N --seconds S --trace 0|1 [--pamr-bin PATH]\"}}",
        json_escape(error),
        WORKLOADS.join("|")
    );
    std::process::exit(code)
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = parse_args(&argv).unwrap_or_else(|e| fail(2, &e));
    let outcome = std::panic::catch_unwind(|| {
        let mut report = Report::default();
        let measured = match args.workload.as_str() {
            "paper_campaign" => campaign::Spec::paper(args.seed).run(&args, &mut report),
            _ => {
                let bin = args
                    .pamr_bin
                    .clone()
                    .unwrap_or_else(|| PathBuf::from("pamr"));
                serve::Churn::new(args.seed, bin).run(&args, &mut report)
            }
        };
        (report, measured)
    });
    let Ok((mut report, measured)) = outcome else {
        fail(1, "the workload panicked (see the message above)");
    };
    let wanted: &[(&str, &str)] = if args.trace { &PER_LAYER } else { &END_TO_END };
    for &(name, unit) in wanted {
        let (value, samples) = measured.get(name).copied().unwrap_or((0.0, 0));
        report.metric(name, value, unit, samples);
    }
    report.print(&args.workload);
    if !report.correct() {
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_string).collect()
    }

    #[test]
    fn parses_a_full_command_line() {
        let a = parse_args(&argv(
            "--workload serve_churn --seed 7 --seconds 10 --trace 1 --pamr-bin x/pamr",
        ))
        .expect("valid flags");
        assert_eq!(
            a,
            Args {
                workload: "serve_churn".into(),
                seed: 7,
                seconds: 10.0,
                trace: true,
                pamr_bin: Some(PathBuf::from("x/pamr")),
            }
        );
    }

    #[test]
    fn bad_flags_are_errors_not_panics() {
        for (line, expect) in [
            ("", "missing required flag --workload"),
            (
                "--workload nope --seed 1 --seconds 1 --trace 0",
                "unknown workload",
            ),
            (
                "--workload paper_campaign --seed -1 --seconds 1 --trace 0",
                "--seed needs",
            ),
            (
                "--workload paper_campaign --seed 1 --seconds 0 --trace 0",
                "--seconds needs",
            ),
            (
                "--workload paper_campaign --seed 1 --seconds x --trace 0",
                "--seconds needs",
            ),
            (
                "--workload paper_campaign --seed 1 --seconds 1 --trace 2",
                "--trace needs",
            ),
            (
                "--workload paper_campaign --seed 1 --seconds 1",
                "missing required flag --trace",
            ),
            ("--workload paper_campaign --seed", "needs a value"),
            ("--bogus 1", "unknown flag"),
        ] {
            let err = parse_args(&argv(line)).expect_err(line);
            assert!(err.contains(expect), "{line:?} -> {err}");
        }
    }

    #[test]
    fn metric_names_are_unique() {
        let mut names: Vec<&str> = END_TO_END.iter().chain(&PER_LAYER).map(|m| m.0).collect();
        let n = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), n);
    }

    #[test]
    fn errors_escape_as_json() {
        assert_eq!(json_escape("a\"b\\c\n"), "a\\\"b\\\\c\\u000a");
    }
}
