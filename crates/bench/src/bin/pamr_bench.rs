//! `pamr-bench` — the benchmark runner behind the CI `bench` job.
//!
//! ```text
//! pamr-bench run [--profile smoke|full] [--trials N] [--seed S] [--out FILE]
//! pamr-bench check --baseline FILE --current FILE [--max-ratio R]
//! pamr-bench pr|xyi|ig|tb|serve|precompute|frontier [lane flags] [--seed S] [--out FILE]
//! pamr-bench scaling [--profile smoke|full|serve] [--seed S] [--out FILE] [--check-only]
//! pamr-bench shard [--shards N] [--trials T] [--seed S] [--pamr PATH] [--out FILE]
//! pamr-bench help
//! ```
//!
//! `run` times each §6 figure campaign on one worker thread and on the full
//! work-pool, [`GROUP_REPEATS`] times each, alternating, and records the
//! median of each; then it times every paired lane of [`LANES`] at its
//! default sizes, and writes `BENCH_summary.json`. A paired lane times an
//! optimized code path against the baseline it replaced, after
//! cross-checking that both give the same answer; it refuses to time a
//! disagreement. Every lane writes the same [`LaneSection`]:
//!
//! | lane | optimized | baseline | one timed call |
//! |---|---|---|---|
//! | `pr` | banded Path-Remover | full-sweep oracle | instance |
//! | `xyi` | pending-link XY improver | full-scan oracle | instance |
//! | `ig` | indexed Improved greedy | full-scan oracle | instance |
//! | `tb` | in-place ladder-priced Two-bend | enumerate-and-price oracle | instance |
//! | `serve` | resident `RoutingSession` | XYI re-route of the live set | request |
//! | `precompute` | one shared precompute (SG + IG) | fresh scratch per trial | trial |
//! | `frontier` | pooled ε-constraint sweep | sequential `frontier_points` | sweep |
//!
//! `pamr-bench <lane>` reruns one lane with flag overrides and merges its
//! section into an existing report, leaving every other section as it was.
//! The engine lanes time one `pamr_sim::testutil` engine on a `LIVE` and
//! on a `REFERENCE` scratch once `testutil::engines_agree` passed on every
//! instance. They time §6.2 mixed-weight 8×8 instances, so their
//! `optimized_ms` is this machine's answer to the §6.4 runtime claim
//! (XYI ≈ 24 ms, PR ≈ 38 ms on the authors' hardware).
//!
//! `scaling` times each optimized engine over a mesh-size × comm-count grid
//! of *length-targeted* local traffic (8×8/80 up to 256×256/10⁵ under
//! `--profile full`), cross-checked against the full-scan oracles on the
//! small points first, fits a log–log exponent per engine and records a
//! large-mesh `pamr serve` mutation-latency probe; `--profile serve` runs
//! only the 256×256/10⁴ probe, `--check-only` only the cross-checks (so it
//! refuses `--profile serve`, which has nothing to cross-check).
//! `shard` times one `pamr shard 0/1` process against N concurrent
//! `pamr shard i/N` processes plus `pamr merge`, requiring byte-identical
//! §6.4 reports, and writes `BENCH_shard.json`.
//!
//! `check` compares a fresh report against a committed baseline and exits
//! 1 when the parallel campaign wall time grew by more than `--max-ratio`
//! (default 2.0). Bad flags and unusable reports print
//! `pamr-bench: <message>` and exit 2; a failed cross-check exits 1.

use pamr_mesh::Mesh;
use pamr_routing::{
    frontier_points, CommSet, EngineConfig, FrontierProblem, Heuristic as _, HeuristicKind,
    ImprovedGreedy, MeshPrecompute, RouteScratch, RoutingSession, SessionConfig, SimpleGreedy,
};
use pamr_sim::cli::{self, Failure, Flag, Flags, Kind, Outcome, Unset};
use pamr_sim::experiments::campaign_figures;
use pamr_sim::testutil::{self, RouteFn, IG, PR, TB, XYI};
use pamr_sim::{Campaign, FrontierReport};
use pamr_workload::{LengthTargetedWorkload, UniformWorkload};
use rand::rngs::SmallRng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, BTreeSet};
use std::process::Command;
use std::sync::Arc;
use std::time::Instant;

/// Format version of `BENCH_summary.json`.
const SCHEMA: u64 = 8;

/// Default master seed (`0xC0FFEE`).
const SEED: &str = "12648430";

/// Default report file of `run`, `check`, the lanes and `scaling`.
const SUMMARY: &str = "BENCH_summary.json";

// ---------------------------------------------------------------------------
// Flags

/// The shared flag parser, its messages prefixed with the command.
fn parse(cmd: &str, specs: &[&[Flag]], args: &[String]) -> Outcome<Flags> {
    cli::parse(specs, args).map_err(|msg| Failure::Usage(format!("{cmd}: {msg}")))
}

/// The integer flags, named without their `--` (a lane's `params`).
fn params(flags: &Flags) -> Params {
    (flags.ints())
        .map(|(name, n)| (name.trim_start_matches("--").to_string(), n))
        .collect()
}

const RUN_FLAGS: &[Flag] = &[
    (
        "--profile",
        Kind::OneOf(&["smoke", "full"]),
        Unset::Default("smoke"),
    ),
    ("--trials", Kind::Count, Unset::Optional),
    ("--seed", Kind::Seed, Unset::Default(SEED)),
    ("--out", Kind::Text, Unset::Default(SUMMARY)),
];

const CHECK_FLAGS: &[Flag] = &[
    ("--baseline", Kind::Text, Unset::Required),
    ("--current", Kind::Text, Unset::Required),
    ("--max-ratio", Kind::Ratio, Unset::Default("2.0")),
];

const SCALING_FLAGS: &[Flag] = &[
    (
        "--profile",
        Kind::OneOf(&["smoke", "full", "serve"]),
        Unset::Default("smoke"),
    ),
    ("--seed", Kind::Seed, Unset::Default(SEED)),
    ("--out", Kind::Text, Unset::Default(SUMMARY)),
    ("--check-only", Kind::Switch, Unset::Optional),
];

const SHARD_FLAGS: &[Flag] = &[
    ("--shards", Kind::Count, Unset::Default("2")),
    ("--trials", Kind::Count, Unset::Default("10")),
    ("--seed", Kind::Seed, Unset::Default(SEED)),
    ("--pamr", Kind::Text, Unset::Optional),
    ("--out", Kind::Text, Unset::Default("BENCH_shard.json")),
];

/// The flags every paired lane takes besides its own.
const LANE_FLAGS: &[Flag] = &[
    ("--seed", Kind::Seed, Unset::Default(SEED)),
    ("--out", Kind::Text, Unset::Default(SUMMARY)),
];

fn usage() -> String {
    let line = |cmd: &str, specs: &[&[Flag]]| {
        let mut s = format!("  pamr-bench {cmd}");
        for &(name, kind, unset) in specs.iter().flat_map(|s| s.iter()) {
            let value = match (kind, unset) {
                (Kind::Switch, _) => String::new(),
                (Kind::OneOf(names), _) => format!(" {}", names.join("|")),
                (_, Unset::Default(d)) => format!(" {d}"),
                (Kind::Text, _) => " FILE".into(),
                _ => " N".into(),
            };
            s += &match unset {
                Unset::Required => format!(" {name}{value}"),
                _ => format!(" [{name}{value}]"),
            };
        }
        s
    };
    let mut lines = vec![line("run", &[RUN_FLAGS]), line("check", &[CHECK_FLAGS])];
    lines.extend(LANES.iter().map(|l| line(l.name, &[l.flags, LANE_FLAGS])));
    lines.push(line("scaling", &[SCALING_FLAGS]));
    lines.push(line("shard", &[SHARD_FLAGS]));
    format!("usage (defaults shown):\n{}", lines.join("\n"))
}

// ---------------------------------------------------------------------------
// Outcomes, timing and reports

/// The one timing helper: `f`'s result and its wall time in milliseconds.
fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let start = Instant::now();
    let value = f();
    (value, start.elapsed().as_secs_f64() * 1e3)
}

/// Mean wall time of one call of `f` over `calls` timed calls, after one
/// untimed warm-up call (which grows buffers and fills caches), in ms.
fn mean_ms(calls: usize, mut f: impl FnMut()) -> f64 {
    f();
    timed(|| (0..calls).for_each(|_| f())).1 / calls as f64
}

/// The one report writer: `report` as pretty JSON into `out`, echoed on
/// stdout.
fn write_report(out: &str, report: &impl Serialize) -> Outcome {
    let json = serde_json::to_string_pretty(report)
        .map_err(|e| Failure::Failed(format!("serialising {out}: {e}")))?;
    std::fs::write(out, &json).map_err(|e| Failure::Failed(format!("writing {out}: {e}")))?;
    println!("{json}");
    Ok(())
}

/// Per-figure measurement.
#[derive(Debug, Clone, Serialize, Deserialize)]
struct FigureBench {
    /// Figure id (`fig7` / `fig8` / `fig9`).
    id: String,
    /// Total instances routed per pass (sweep points × trials).
    instances: usize,
    /// Median wall time of the 1-thread passes, milliseconds.
    wall_ms_seq: f64,
    /// Median wall time of the N-thread passes, milliseconds.
    wall_ms_par: f64,
    /// `wall_ms_seq / wall_ms_par`.
    speedup: f64,
    /// Instances per second of the parallel pass.
    trials_per_sec: f64,
}

/// A paired lane's flag values, named without their `--`, seed included.
type Params = BTreeMap<String, u64>;

/// One paired lane's section of `BENCH_summary.json`.
#[derive(Debug, Clone, Serialize, Deserialize)]
struct LaneSection {
    /// The flag values the lane ran with.
    params: Params,
    /// What one timed call covers (`instance`, `request`, `trial`, `sweep`).
    per: String,
    /// Mean time of the optimized path per call, milliseconds.
    optimized_ms: f64,
    /// Mean time of the baseline path per call, milliseconds.
    baseline_ms: f64,
    /// `baseline_ms / optimized_ms`.
    speedup: f64,
    /// Both paths gave the same answer before either was timed.
    crosschecked: bool,
}

/// The whole report (`BENCH_summary.json`).
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
struct BenchReport {
    /// Report format version ([`SCHEMA`]).
    schema: u64,
    /// Profile name (`smoke` / `full`), or the lane that started a
    /// lane-only report.
    profile: String,
    /// Worker threads of the parallel pass.
    threads: usize,
    /// Hardware threads the recording machine advertises
    /// (`available_parallelism`), so a baseline from a small container is
    /// recognisable at a glance.
    nproc: usize,
    /// Trials per sweep point (0 in a lane-only report).
    trials: usize,
    /// Master seed.
    seed: u64,
    /// Per-figure measurements (empty in a lane-only report, which `check`
    /// refuses).
    figures: Vec<FigureBench>,
    /// Sum of the figures' `wall_ms_seq`, milliseconds.
    total_wall_ms_seq: f64,
    /// Sum of the figures' `wall_ms_par`, milliseconds.
    total_wall_ms_par: f64,
    /// Overall sequential/parallel speedup.
    speedup: f64,
    /// The paired lanes, by name.
    lanes: BTreeMap<String, LaneSection>,
    /// The large-mesh grid lane (`scaling` only).
    scaling: Option<ScalingBench>,
}

impl BenchReport {
    /// A report with no figures and no sections yet.
    fn new(profile: &str, trials: usize, seed: u64) -> BenchReport {
        BenchReport {
            schema: SCHEMA,
            profile: profile.into(),
            threads: rayon::current_num_threads(),
            nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
            trials,
            seed,
            ..BenchReport::default()
        }
    }

    /// Reads a report, refusing other schemas with a message naming both.
    fn load(path: &str) -> Outcome<BenchReport> {
        let bad = |msg: String| Failure::Usage(format!("{path}: {msg}"));
        let text = std::fs::read_to_string(path).map_err(|e| bad(e.to_string()))?;
        let value: serde::Value = serde_json::from_str(&text).map_err(|e| bad(e.to_string()))?;
        match value.get("schema") {
            Some(serde::Value::UInt(SCHEMA)) => {}
            Some(serde::Value::UInt(n)) => {
                return Err(bad(format!(
                    "report schema {n}, but this pamr-bench reads schema {SCHEMA} (re-record it)"
                )))
            }
            _ => return Err(bad("not a bench report (no schema field)".into())),
        }
        BenchReport::from_value(&value).map_err(|e| bad(e.to_string()))
    }
}

/// Writes one update into the report at `out`, keeping the figures and
/// every other section; starts a fresh report when `out` holds none.
fn merge_into(
    out: &str,
    profile: &str,
    seed: u64,
    update: impl FnOnce(&mut BenchReport),
) -> Outcome {
    let mut report = if std::path::Path::new(out).exists() {
        BenchReport::load(out).unwrap_or_else(|f| {
            let (Failure::Usage(msg) | Failure::Failed(msg)) = f;
            eprintln!("pamr-bench: {msg}; replacing it with a fresh report");
            BenchReport::new(profile, 0, seed)
        })
    } else {
        BenchReport::new(profile, 0, seed)
    };
    update(&mut report);
    write_report(out, &report)
}

// ---------------------------------------------------------------------------
// Commands

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if let Err(failure) = dispatch(&args) {
        cli::exit("pamr-bench", failure);
    }
}

fn dispatch(args: &[String]) -> Outcome {
    let (cmd, rest) = match args.split_first() {
        Some((cmd, rest)) => (cmd.as_str(), rest),
        None => return Err(Failure::Usage("missing command (`pamr-bench help`)".into())),
    };
    if let Some(lane) = LANES.iter().find(|l| l.name == cmd) {
        let flags = parse(cmd, &[lane.flags, LANE_FLAGS], rest)?;
        let section = run_lane(lane, &flags)?;
        return merge_into(flags.text("--out"), cmd, flags.num("--seed"), |r| {
            r.lanes.insert(cmd.into(), section);
        });
    }
    match cmd {
        "run" => cmd_run(&parse(cmd, &[RUN_FLAGS], rest)?),
        "check" => cmd_check(&parse(cmd, &[CHECK_FLAGS], rest)?),
        "scaling" => cmd_scaling(&parse(cmd, &[SCALING_FLAGS], rest)?),
        "shard" => cmd_shard(&parse(cmd, &[SHARD_FLAGS], rest)?),
        "help" | "--help" | "-h" => {
            println!("{}", usage());
            Ok(())
        }
        other => Err(Failure::Usage(format!(
            "unknown command {other:?} (`pamr-bench help` lists them)"
        ))),
    }
}

/// Timed runs of each figure group per thread count in `run`, which
/// records their median, so one slow run on a shared host does not move
/// the gated wall time.
const GROUP_REPEATS: usize = 3;

/// The median wall times of figure group `figure` on 1 thread and on the
/// full pool over [`GROUP_REPEATS`] runs each, the two alternating so a
/// drift in host speed falls on both alike.
fn median_group_ms(figure: usize, trials: usize, seed: u64) -> Outcome<(f64, f64)> {
    let (mut seq, mut par) = (Vec::new(), Vec::new());
    for _ in 0..GROUP_REPEATS {
        seq.push(time_group(figure, trials, seed, 1)?);
        par.push(time_group(figure, trials, seed, 0)?);
    }
    let median = |mut ms: Vec<f64>| {
        ms.sort_by(f64::total_cmp);
        ms[ms.len() / 2]
    };
    Ok((median(seq), median(par)))
}

/// Runs figure group `figure` (0 = fig7) through the campaign runner at a
/// fixed thread count, returning the wall time.
fn time_group(figure: usize, trials: usize, seed: u64, threads: usize) -> Outcome<f64> {
    rayon::set_num_threads(threads);
    let mesh = pamr_sim::paper_mesh();
    let model = pamr_sim::paper_model();
    let campaign = Campaign::new(&mesh, &model, trials, seed);
    let (points, ms) = timed(|| campaign.run_grid(Some(figure)));
    rayon::set_num_threads(0);
    if points.iter().all(|p| p.stats.trials == trials) {
        Ok(ms)
    } else {
        Err(Failure::Failed("the campaign dropped trials".into()))
    }
}

fn cmd_run(flags: &Flags) -> Outcome {
    let profile = flags.text("--profile");
    let trials = match (flags.given("--trials"), profile) {
        (true, _) => flags.num("--trials") as usize,
        (false, "full") => 200,
        (false, _) => 10,
    };
    let seed = flags.num("--seed");
    let mut report = BenchReport::new(profile, trials, seed);
    eprintln!(
        "pamr-bench: profile {profile}, {trials} trials/point, seq (1 thread) vs par ({} threads)",
        report.threads
    );
    for (figure, exps) in campaign_figures().iter().enumerate() {
        let instances: usize = exps.iter().map(|e| e.points.len() * trials).sum();
        let (wall_ms_seq, wall_ms_par) = median_group_ms(figure, trials, seed)?;
        let fig = FigureBench {
            id: format!("fig{}", figure + 7),
            instances,
            wall_ms_seq,
            wall_ms_par,
            speedup: wall_ms_seq / wall_ms_par,
            trials_per_sec: instances as f64 / (wall_ms_par / 1e3),
        };
        eprintln!(
            "  {}: seq {:.0} ms, par {:.0} ms, speedup {:.2}x, {:.0} instances/s",
            fig.id, fig.wall_ms_seq, fig.wall_ms_par, fig.speedup, fig.trials_per_sec
        );
        report.figures.push(fig);
    }
    report.total_wall_ms_seq = report.figures.iter().map(|f| f.wall_ms_seq).sum();
    report.total_wall_ms_par = report.figures.iter().map(|f| f.wall_ms_par).sum();
    report.speedup = report.total_wall_ms_seq / report.total_wall_ms_par;
    let seed_arg = ["--seed".to_string(), seed.to_string()];
    for lane in LANES {
        let lane_flags = parse(lane.name, &[lane.flags, LANE_FLAGS], &seed_arg)?;
        report
            .lanes
            .insert(lane.name.into(), run_lane(lane, &lane_flags)?);
    }
    let out = flags.text("--out");
    write_report(out, &report)?;
    eprintln!(
        "pamr-bench: total seq {:.0} ms, par {:.0} ms, speedup {:.2}x → {out}",
        report.total_wall_ms_seq, report.total_wall_ms_par, report.speedup
    );
    Ok(())
}

fn cmd_check(flags: &Flags) -> Outcome {
    let max_ratio = flags.real("--max-ratio");
    let load = |path: &str| {
        let report = BenchReport::load(path)?;
        if report.figures.is_empty() {
            return Err(Failure::Usage(format!(
                "{path} has no campaign figures (a lane-only report); record one with \
                 `pamr-bench run`"
            )));
        }
        Ok(report)
    };
    let baseline = load(flags.text("--baseline"))?;
    let current = load(flags.text("--current"))?;
    let ids = |r: &BenchReport| r.figures.iter().map(|f| f.id.clone()).collect::<Vec<_>>();
    for (differs, what) in [
        (baseline.profile != current.profile, "profiles"),
        (baseline.trials != current.trials, "trial budgets"),
        (ids(&baseline) != ids(&current), "figure sets"),
    ] {
        if differs {
            return Err(Failure::Usage(format!(
                "baseline and current measure different {what} (re-record the baseline \
                 after changing the profile)"
            )));
        }
    }
    let ratio = current.total_wall_ms_par / baseline.total_wall_ms_par;
    println!(
        "bench check: baseline {:.0} ms, current {:.0} ms, ratio {ratio:.2} (limit {max_ratio:.2})",
        baseline.total_wall_ms_par, current.total_wall_ms_par
    );
    for (b, c) in baseline.figures.iter().zip(&current.figures) {
        println!(
            "  {}: {:.0} ms → {:.0} ms ({:.2}x)",
            c.id,
            b.wall_ms_par,
            c.wall_ms_par,
            c.wall_ms_par / b.wall_ms_par
        );
    }
    let names: BTreeSet<&String> = baseline.lanes.keys().chain(current.lanes.keys()).collect();
    let speedup =
        |s: Option<&LaneSection>| s.map_or("none".into(), |s| format!("{:.2}x", s.speedup));
    for name in names {
        let (b, c) = (baseline.lanes.get(name), current.lanes.get(name));
        println!("  {name} lane: speedup {} → {}", speedup(b), speedup(c));
    }
    if let (Some(b), Some(c)) = (&baseline.scaling, &current.scaling) {
        for (bf, cf) in b.fits.iter().zip(&c.fits) {
            println!(
                "  scaling {}: exponent {:.2} → {:.2}",
                cf.engine, bf.exponent, cf.exponent
            );
        }
        println!(
            "  scaling serve: max mutation {:.2} ms → {:.2} ms",
            b.serve.max_mutation_ms, c.serve.max_mutation_ms
        );
    }
    if !ratio.is_finite() || ratio > max_ratio {
        return Err(Failure::Failed(format!(
            "REGRESSION: parallel campaign wall time grew {ratio:.2}x over the committed \
             baseline (limit {max_ratio:.2}x)"
        )));
    }
    println!("bench check: OK");
    Ok(())
}

// ---------------------------------------------------------------------------
// The paired lanes

/// One paired lane: an optimized path timed against its baseline.
struct Lane {
    /// Command and section name.
    name: &'static str,
    /// What one timed call covers.
    per: &'static str,
    /// The lane's own flags; their defaults are the sizes `run` records.
    flags: &'static [Flag],
    /// Cross-checks both paths, then times them: `(optimized, baseline)`
    /// milliseconds per call. An `Err` is a disagreement, never timed.
    measure: fn(&Params) -> Result<(f64, f64), String>,
}

const ENGINE_FLAGS: &[Flag] = &[
    ("--instances", Kind::Count, Unset::Default("40")),
    ("--comms", Kind::Count, Unset::Default("80")),
    ("--repeats", Kind::Count, Unset::Default("3")),
];

/// The paired lanes, in the order `run` records them.
const LANES: &[Lane] = &[
    Lane {
        name: "pr",
        per: "instance",
        flags: ENGINE_FLAGS,
        measure: |p| measure_engine(p, PR),
    },
    Lane {
        name: "xyi",
        per: "instance",
        flags: ENGINE_FLAGS,
        measure: |p| measure_engine(p, XYI),
    },
    Lane {
        name: "ig",
        per: "instance",
        flags: ENGINE_FLAGS,
        measure: |p| measure_engine(p, IG),
    },
    Lane {
        name: "tb",
        per: "instance",
        flags: ENGINE_FLAGS,
        measure: |p| measure_engine(p, TB),
    },
    Lane {
        name: "serve",
        per: "request",
        flags: &[
            ("--comms", Kind::Count, Unset::Default("80")),
            ("--repeats", Kind::Count, Unset::Default("5")),
        ],
        measure: measure_serve,
    },
    Lane {
        name: "precompute",
        per: "trial",
        flags: &[
            ("--instances", Kind::Count, Unset::Default("40")),
            ("--comms", Kind::Count, Unset::Default("80")),
            ("--repeats", Kind::Count, Unset::Default("8")),
        ],
        measure: measure_precompute,
    },
    Lane {
        name: "frontier",
        per: "sweep",
        flags: &[
            ("--comms", Kind::Count, Unset::Default("80")),
            ("--segments", Kind::Count, Unset::Default("32")),
            ("--split", Kind::Int, Unset::Default("2")),
            ("--repeats", Kind::Count, Unset::Default("5")),
        ],
        measure: measure_frontier,
    },
];

/// Measures one lane and wraps the result in its section.
fn run_lane(lane: &Lane, flags: &Flags) -> Outcome<LaneSection> {
    let params = params(flags);
    let shown: Vec<String> = params.iter().map(|(k, v)| format!("{k}={v}")).collect();
    eprintln!("pamr-bench {}: {}", lane.name, shown.join(" "));
    let (optimized_ms, baseline_ms) = (lane.measure)(&params)
        .map_err(|e| Failure::Failed(format!("{} lane refuses to time: {e}", lane.name)))?;
    let section = LaneSection {
        params,
        per: lane.per.into(),
        optimized_ms,
        baseline_ms,
        speedup: baseline_ms / optimized_ms,
        crosschecked: true,
    };
    eprintln!(
        "  {}: optimized {optimized_ms:.3} ms/{per}, baseline {baseline_ms:.3} ms/{per}, \
         speedup {:.2}x, cross-checked",
        lane.name,
        section.speedup,
        per = lane.per
    );
    Ok(section)
}

/// A lane parameter as a size.
fn param(p: &Params, name: &str) -> usize {
    p[name] as usize
}

/// A deterministic uniform-workload instance.
fn uniform_instance(mesh: &Mesh, n: usize, w_min: f64, w_max: f64, seed: u64) -> CommSet {
    let mut rng = SmallRng::seed_from_u64(seed);
    UniformWorkload::new(n, w_min, w_max).generate(mesh, &mut rng)
}

/// A deterministic length-targeted instance.
fn length_instance(
    mesh: &Mesh,
    n: usize,
    w_min: f64,
    w_max: f64,
    len: usize,
    seed: u64,
) -> CommSet {
    let mut rng = SmallRng::seed_from_u64(seed);
    LengthTargetedWorkload::new(n, w_min, w_max, len).generate(mesh, &mut rng)
}

/// `params.instances` §6.2-style uniform 8×8 instances of `params.comms`
/// communications with weights in `[100, w_max]`.
fn draw_instances(p: &Params, w_max: f64) -> Vec<CommSet> {
    let mesh = pamr_sim::paper_mesh();
    (0..param(p, "instances"))
        .map(|i| {
            let seed = p["seed"] ^ (i as u64).wrapping_mul(0x9E37_79B9);
            uniform_instance(&mesh, param(p, "comms"), 100.0, w_max, seed)
        })
        .collect()
}

/// The engine lanes: one rewritten engine on a `LIVE` scratch against
/// its full-scan oracle on a `REFERENCE` scratch, over §6.2 mixed-weight
/// instances, every one compared through [`testutil::engines_agree`]
/// before timing. Each instance is routed once untimed and then `repeats`
/// times back to back, so the live engine's per-instance customization
/// is paid outside the timing, as the campaign pays it once for all six
/// policies; the lane reports the mean over the instances.
fn measure_engine(p: &Params, engine: (&str, RouteFn)) -> Result<(f64, f64), String> {
    let model = pamr_sim::paper_model();
    let sets = draw_instances(p, 2500.0);
    for (i, cs) in sets.iter().enumerate() {
        testutil::engines_agree(&[engine], cs, &model, &format!("instance {i}"))?;
    }
    let repeats = param(p, "repeats");
    let per_instance = |config| {
        let mut scratch = RouteScratch::with_engine(config);
        let total: f64 = sets
            .iter()
            .map(|cs| {
                mean_ms(repeats, || {
                    let _ = (engine.1)(cs, &model, &mut scratch);
                })
            })
            .sum();
        total / sets.len() as f64
    };
    Ok((
        per_instance(EngineConfig::LIVE),
        per_instance(EngineConfig::REFERENCE),
    ))
}

/// The serve lane: a `comms`-long `add_comm` script answered by a resident
/// [`RoutingSession`] (the `pamr serve` implementation) against re-routing
/// the live prefix from scratch on every request.
///
/// The 100–800 weight regime keeps the 8×8 platform feasible at 80
/// communications (max link load ≈ 2700 of 3500), the operating point a
/// daemon serves; the §6.2 mixed regime is infeasible at this count and
/// would time the session's escalation path instead of incremental repair.
fn measure_serve(p: &Params) -> Result<(f64, f64), String> {
    let requests = param(p, "comms");
    let (mesh, model) = (pamr_sim::paper_mesh(), pamr_sim::paper_model());
    let cs = uniform_instance(&mesh, requests, 100.0, 800.0, p["seed"]);
    let resident = || {
        let mut session = RoutingSession::new(mesh, model.clone(), SessionConfig::default());
        for c in cs.comms() {
            session.add_comm(*c);
        }
        session
    };
    // Cross-check: the session ends holding a valid routing of the whole
    // script, feasible wherever a from-scratch route of it is.
    let session = resident();
    let (live, routing) = session.live_routing();
    if live.len() != requests || !routing.is_structurally_valid(&live, 1) {
        return Err(format!(
            "the session holds an invalid routing of {} of {requests} requests",
            live.len()
        ));
    }
    let mut scratch = RouteScratch::new();
    let batch = HeuristicKind::Xyi.route_with(&cs, &model, &mut scratch);
    if !session.is_feasible() && batch.is_feasible(&cs, &model) {
        return Err("the session is infeasible where a from-scratch route is not".into());
    }
    let repeats = param(p, "repeats");
    let incremental = mean_ms(repeats, || drop(resident()));
    let from_scratch = mean_ms(repeats, || {
        for i in 1..=requests {
            let prefix = CommSet::new(mesh, cs.comms()[..i].to_vec());
            let _ = HeuristicKind::Xyi.route_with(&prefix, &model, &mut scratch);
        }
    });
    Ok((
        incremental / requests as f64,
        from_scratch / requests as f64,
    ))
}

/// The precompute lane: the IG-heavy campaign trial — SG then indexed IG
/// over §6.2 uniform instances — on one scratch holding a shared
/// precompute, against a fresh `RouteScratch` per trial, which builds a
/// private precompute and interns every endpoint pair again. Routings are
/// compared first.
///
/// The greedy family is the precompute's best customer: SG consumes the
/// cached decreasing-weight order, and IG the interned bands and the
/// tabulated per-level cost ladder. One shared precompute is what
/// `Summary::run` builds for a whole campaign: on the 8×8 mesh it saturates
/// after a few trials (≤ 4096 distinct pairs), and the warm-up call of
/// [`mean_ms`] reaches that steady state before timing.
fn measure_precompute(p: &Params) -> Result<(f64, f64), String> {
    let model = pamr_sim::paper_model();
    let sets = draw_instances(p, 2500.0);
    let trial = |cs: &CommSet, scratch: &mut RouteScratch| {
        (
            SimpleGreedy.route_with(cs, &model, scratch),
            ImprovedGreedy.route_with(cs, &model, scratch),
        )
    };
    let mut shared = RouteScratch::new();
    shared.attach_precompute(Arc::new(MeshPrecompute::new(pamr_sim::paper_mesh())));
    if let Some(i) = sets
        .iter()
        .position(|cs| trial(cs, &mut shared) != trial(cs, &mut RouteScratch::new()))
    {
        return Err(format!(
            "instance {i}: the shared precompute changed a routing"
        ));
    }
    let repeats = param(p, "repeats");
    let warm = mean_ms(repeats, || {
        for cs in &sets {
            let _ = trial(cs, &mut shared);
        }
    });
    let fresh = mean_ms(repeats, || {
        for cs in &sets {
            let _ = trial(cs, &mut RouteScratch::new());
        }
    });
    Ok((warm / sets.len() as f64, fresh / sets.len() as f64))
}

/// The frontier lane: the ε-constraint power × latency sweep over an 8×8
/// instance through the pooled partial/merge pipeline behind
/// `pamr frontier`, against the sequential reference solver, Pareto sets
/// compared first. The 100–800 weight regime keeps the instance feasible
/// (an infeasible one has an empty frontier, and nothing to time).
fn measure_frontier(p: &Params) -> Result<(f64, f64), String> {
    let (mesh, model) = (pamr_sim::paper_mesh(), pamr_sim::paper_model());
    let cs = uniform_instance(&mesh, param(p, "comms"), 100.0, 800.0, p["seed"]);
    let (segments, split) = (param(p, "segments"), param(p, "split"));
    let problem = FrontierProblem {
        cs: &cs,
        model: &model,
        segments,
        split,
    };
    let reference = frontier_points(&problem);
    if reference.is_empty() {
        return Err("the instance is infeasible, so its frontier is empty".into());
    }
    if FrontierReport::compute(&cs, &model, segments, split).pareto != reference {
        return Err("the pooled sweep diverged from the sequential solver".into());
    }
    let repeats = param(p, "repeats");
    let pooled = mean_ms(repeats, || {
        let _ = FrontierReport::compute(&cs, &model, segments, split);
    });
    let sequential = mean_ms(repeats, || {
        let _ = frontier_points(&problem);
    });
    Ok((pooled, sequential))
}

// ---------------------------------------------------------------------------
// The scaling lane

/// One grid point of the `scaling` lane: every optimized engine timed on
/// one mesh-size × comm-count instance of length-targeted local traffic.
#[derive(Debug, Clone, Serialize, Deserialize)]
struct ScalingPoint {
    /// Mesh rows.
    rows: usize,
    /// Mesh columns.
    cols: usize,
    /// Communications in the instance.
    comms: usize,
    /// The optimized engines were cross-checked bit-identical against the
    /// full-scan oracles at this point (skipped above the oracle cutoff,
    /// where the references' `O(p·q)` scans are prohibitively slow).
    crosschecked: bool,
    /// Timing repetitions (more on the small points to damp noise).
    repeats: usize,
    /// Mean banded-PR runtime, milliseconds. `None` above
    /// [`SCALING_PR_MAX_COMMS`] — PR is the most superlinear engine, and
    /// timing it at the top of the full grid costs hours, not minutes.
    pr_ms: Option<f64>,
    /// Mean pending-link XYI runtime, milliseconds. `None` above
    /// [`SCALING_XYI_MAX_COMMS`], same reason at a milder exponent.
    xyi_ms: Option<f64>,
    /// Mean indexed-IG runtime, milliseconds (near-linear; timed at every
    /// grid point).
    ig_ms: f64,
}

/// Least-squares log–log fit of one engine's runtime over the grid: the
/// measured asymptotic exponent of runtime vs communication count (mesh
/// area scales proportionally along the grid, so one scale parameter
/// suffices).
#[derive(Debug, Clone, Serialize, Deserialize)]
struct ScalingFit {
    /// Engine name (`pr` / `xyi` / `ig`).
    engine: String,
    /// Slope of `ln(runtime)` vs `ln(comms)` — 1.0 is linear scaling, 2.0
    /// quadratic.
    exponent: f64,
    /// Coefficient of determination of the fit.
    r2: f64,
}

/// The large-mesh `pamr serve` probe of the `scaling` lane: per-mutation
/// latency of incremental re-routing against a resident session.
#[derive(Debug, Clone, Serialize, Deserialize)]
struct ScalingServe {
    /// Mesh rows.
    rows: usize,
    /// Mesh columns.
    cols: usize,
    /// Live communications in the resident session.
    comms: usize,
    /// Target Manhattan length of the local traffic.
    path_len: usize,
    /// Timed mutations (each a `remove_comm` + `add_comm` pair; both ops
    /// are measured individually).
    mutations: usize,
    /// Mean per-operation latency, milliseconds.
    mean_mutation_ms: f64,
    /// Worst per-operation latency, milliseconds — the interactive-budget
    /// figure (target: < 100 ms on a 256×256 mesh with 10⁴ communications).
    max_mutation_ms: f64,
    /// Bounded repairs that escalated to a full re-route during the timed
    /// window (escalations measure the batch path, not incremental repair).
    escalations: u64,
}

/// The whole `scaling` section of `BENCH_summary.json`.
#[derive(Debug, Clone, Serialize, Deserialize)]
struct ScalingBench {
    /// Grid profile (`smoke` / `full` / `serve` — the last has no grid
    /// points and no fits, only the 256×256 serve probe).
    profile: String,
    /// Master seed of the instance draws.
    seed: u64,
    /// Target Manhattan length of the grid's local traffic. Uniform
    /// endpoint draws would make every band's link count — and the crossing
    /// indices — grow quadratically with the mesh side; fixed-radius
    /// traffic is the regime where `O(band)` per-operation costs are
    /// independent of mesh size, which is exactly what the lane measures.
    path_len: usize,
    /// The grid, smallest point first.
    points: Vec<ScalingPoint>,
    /// Per-engine asymptotic fits over the grid.
    fits: Vec<ScalingFit>,
    /// The large-mesh incremental-serve probe.
    serve: ScalingServe,
}

/// Target Manhattan length of the scaling lane's local traffic (see
/// [`ScalingBench::path_len`]).
const SCALING_PATH_LEN: usize = 8;

/// Oracle cutoff of the scaling lane: grid points with at most this many
/// cores are cross-checked against the full-scan references before timing.
/// Above it the references' `O(p·q)`-per-step scans dominate the whole run
/// (they are the very cost the optimized engines shed), so the big points
/// ride on the equivalence the small points — and the differential test
/// suite — establish.
const SCALING_ORACLE_CUTOFF: usize = 32 * 32;

/// Largest communication count at which the scaling lane times the banded
/// PR. Its measured exponent is ≈1.9 in the grid's joint comms×area scale,
/// so the 256×256/10⁵ point would take hours per pass; the cap keeps the
/// full profile interactive and is *logged*, never silent — capped points
/// record `None` and the fit uses the sub-grid the engine actually ran.
const SCALING_PR_MAX_COMMS: usize = 20_480;

/// Largest communication count at which the scaling lane times the
/// pending-link XYI (exponent ≈2.0 in the joint scale; same reasoning as
/// [`SCALING_PR_MAX_COMMS`] one notch later).
const SCALING_XYI_MAX_COMMS: usize = 20_480;

/// Measures one grid point: builds the length-targeted instance,
/// cross-checks the optimized engines against their oracles below the
/// cutoff, then (unless `check_only`) times each optimized engine.
fn measure_scaling_point(
    (rows, cols, comms): (usize, usize, usize),
    seed: u64,
    check_only: bool,
) -> Result<ScalingPoint, String> {
    let mesh = Mesh::new(rows, cols);
    let model = pamr_sim::paper_model();
    let cs = length_instance(&mesh, comms, 100.0, 800.0, SCALING_PATH_LEN, seed);
    let crosschecked = rows * cols <= SCALING_ORACLE_CUTOFF;
    if crosschecked {
        let label = format!("{rows}×{cols}/{comms}");
        testutil::engines_agree(&[PR, XYI, IG], &cs, &model, &label)?;
    }
    // More repetitions on the small points, where a single route is noise.
    let repeats = if check_only { 0 } else { (2560 / comms).max(1) };
    let mut scratch = RouteScratch::new();
    let [pr_ms, xyi_ms, ig_ms] = [
        (PR, SCALING_PR_MAX_COMMS),
        (XYI, SCALING_XYI_MAX_COMMS),
        (IG, usize::MAX),
    ]
    .map(|((_, route), max_comms)| {
        (!check_only && comms <= max_comms).then(|| {
            mean_ms(repeats, || {
                let _ = route(&cs, &model, &mut scratch);
            })
        })
    });
    Ok(ScalingPoint {
        rows,
        cols,
        comms,
        crosschecked,
        repeats,
        pr_ms,
        xyi_ms,
        ig_ms: ig_ms.unwrap_or(0.0),
    })
}

/// Least-squares slope (and r²) of `ln(ms)` vs `ln(comms)` over the grid.
fn scaling_fit(
    engine: &str,
    points: &[ScalingPoint],
    ms_of: fn(&ScalingPoint) -> Option<f64>,
) -> ScalingFit {
    let xy: Vec<(f64, f64)> = points
        .iter()
        .filter_map(|p| ms_of(p).map(|ms| ((p.comms as f64).ln(), ms.ln())))
        .collect();
    let n = xy.len() as f64;
    let (mx, my) = (
        xy.iter().map(|(x, _)| x).sum::<f64>() / n,
        xy.iter().map(|(_, y)| y).sum::<f64>() / n,
    );
    let sxy: f64 = xy.iter().map(|(x, y)| (x - mx) * (y - my)).sum();
    let sxx: f64 = xy.iter().map(|(x, _)| (x - mx) * (x - mx)).sum();
    let syy: f64 = xy.iter().map(|(_, y)| (y - my) * (y - my)).sum();
    ScalingFit {
        engine: engine.into(),
        exponent: sxy / sxx,
        r2: if syy == 0.0 {
            1.0
        } else {
            sxy * sxy / (sxx * syy)
        },
    }
}

/// Times the large-mesh incremental-serve probe: a resident session loaded
/// with `comms` local communications, then `mutations` remove/re-add pairs
/// timed per operation.
fn measure_scaling_serve(
    (rows, cols, comms): (usize, usize, usize),
    mutations: usize,
    seed: u64,
) -> Result<ScalingServe, String> {
    let mesh = Mesh::new(rows, cols);
    let model = pamr_sim::paper_model();
    let cs = length_instance(&mesh, comms, 100.0, 800.0, SCALING_PATH_LEN, seed);
    let mut session = RoutingSession::new(mesh, model, SessionConfig::default());
    let mut handles: Vec<_> = cs.comms().iter().map(|c| session.add_comm(*c)).collect();
    let escalations_before = session.stats().escalations;
    let (mut total_ms, mut max_ms) = (0.0f64, 0.0f64);
    for k in 0..mutations {
        // Deterministic rotation through the live set (coprime stride).
        let idx = (k * 7919) % handles.len();
        let (removed, remove_ms) = timed(|| session.remove_comm(handles[idx]));
        let comm = removed.ok_or("a live handle was not found")?;
        let (slot, add_ms) = timed(|| session.add_comm(comm));
        handles[idx] = slot;
        total_ms += remove_ms + add_ms;
        max_ms = max_ms.max(remove_ms).max(add_ms);
    }
    Ok(ScalingServe {
        rows,
        cols,
        comms,
        path_len: SCALING_PATH_LEN,
        mutations,
        mean_mutation_ms: total_ms / (2 * mutations) as f64,
        max_mutation_ms: max_ms,
        escalations: session.stats().escalations - escalations_before,
    })
}

/// The `scaling` lane: the mesh-size × comm-count grid, per-engine fits and
/// the large-mesh serve probe, merged into `BENCH_summary.json`.
/// `--check-only` runs only the oracle cross-checks on the sub-cutoff
/// points and writes nothing — the CI determinism job's scaling gate.
fn cmd_scaling(flags: &Flags) -> Outcome {
    let profile = flags.text("--profile");
    let seed = flags.num("--seed");
    let check_only = flags.given("--check-only");
    // Mesh area and comm count scale together (×4 per step): one scale
    // parameter for the log–log fits.
    let grid: &[(usize, usize, usize)] = match profile {
        "smoke" => &[(8, 8, 80), (16, 16, 320), (32, 32, 1280)],
        "full" => &[
            (8, 8, 80),
            (16, 16, 320),
            (32, 32, 1280),
            (64, 64, 5120),
            (128, 128, 20480),
            (256, 256, 100_000),
        ],
        // Serve probe only — the 256×256/10⁴ incremental re-route figure
        // without the multi-minute engine grid in front of it.
        _ => &[],
    };
    if check_only && grid.is_empty() {
        return Err(Failure::Usage(format!(
            "scaling: --check-only cross-checks the grid, and --profile {profile} has none"
        )));
    }
    let serve_point = if profile == "smoke" {
        (64, 64, 1_000)
    } else {
        (256, 256, 10_000)
    };
    let lane_failed = |e: String| Failure::Failed(format!("scaling lane: {e}"));
    eprintln!(
        "pamr-bench scaling: profile {profile}, {} grid points, len-{SCALING_PATH_LEN} local \
         traffic{}",
        grid.len(),
        if check_only { ", cross-check only" } else { "" }
    );
    let mut points = Vec::new();
    for &point in grid {
        let p = measure_scaling_point(point, seed, check_only).map_err(lane_failed)?;
        let ms = |v: Option<f64>| v.map_or("-".to_string(), |ms| format!("{ms:.2} ms"));
        eprintln!(
            "  {}×{}/{}: {}; PR {}, XYI {}, IG {}",
            p.rows,
            p.cols,
            p.comms,
            if p.crosschecked {
                "bit-identical to the oracles"
            } else {
                "above the oracle cutoff"
            },
            ms(p.pr_ms),
            ms(p.xyi_ms),
            ms(Some(p.ig_ms).filter(|_| !check_only)),
        );
        points.push(p);
    }
    if check_only {
        println!(
            "scaling check: OK ({} points bit-identical to the reference engines)",
            points.iter().filter(|p| p.crosschecked).count()
        );
        return Ok(());
    }
    // A slope needs at least two grid points; the serve profile has none.
    let fits = if points.len() >= 2 {
        vec![
            scaling_fit("pr", &points, |p| p.pr_ms),
            scaling_fit("xyi", &points, |p| p.xyi_ms),
            scaling_fit("ig", &points, |p| Some(p.ig_ms)),
        ]
    } else {
        Vec::new()
    };
    for f in &fits {
        eprintln!(
            "  fit {}: exponent {:.2} (r² {:.3})",
            f.engine, f.exponent, f.r2
        );
    }
    let serve = measure_scaling_serve(serve_point, 200, seed).map_err(lane_failed)?;
    eprintln!(
        "  serve {}×{}/{}: mean {:.3} ms, max {:.3} ms per mutation, {} escalations",
        serve.rows,
        serve.cols,
        serve.comms,
        serve.mean_mutation_ms,
        serve.max_mutation_ms,
        serve.escalations
    );
    let bench = ScalingBench {
        profile: profile.into(),
        seed,
        path_len: SCALING_PATH_LEN,
        points,
        fits,
        serve,
    };
    merge_into(flags.text("--out"), "scaling", seed, |r| {
        r.scaling = Some(bench)
    })
}

// ---------------------------------------------------------------------------
// The shard lane

/// The multi-process shard lane's report (`BENCH_shard.json`).
#[derive(Debug, Clone, Serialize, Deserialize)]
struct ShardBenchReport {
    /// Report format version.
    schema: u32,
    /// Number of concurrent shard processes in the sharded pass.
    shards: usize,
    /// Trials per sweep point.
    trials: usize,
    /// Master seed.
    seed: u64,
    /// Wall time of one process running the whole campaign + merge, ms.
    wall_ms_single: f64,
    /// Wall time of N concurrent shard processes + merge, ms.
    wall_ms_sharded: f64,
    /// Of which, the merge step alone (sharded pass), ms.
    merge_ms: f64,
    /// `wall_ms_single / wall_ms_sharded`.
    speedup: f64,
    /// Both pipelines printed byte-identical §6.4 reports.
    reports_identical: bool,
}

/// Times the 1-process vs N-process sharded campaign by driving the `pamr`
/// binary (`shard` + `merge` subcommands) as real child processes, and
/// requires both pipelines to print the same §6.4 report.
fn cmd_shard(flags: &Flags) -> Outcome {
    let (shards, trials, seed) = (
        flags.num("--shards") as usize,
        flags.num("--trials"),
        flags.num("--seed"),
    );
    let pamr = if flags.given("--pamr") {
        std::path::PathBuf::from(flags.text("--pamr"))
    } else {
        // Default: the `pamr` binary next to this one in the target dir.
        let exe = std::env::current_exe().map_err(|e| Failure::Failed(e.to_string()))?;
        exe.with_file_name("pamr")
    };
    if !pamr.exists() {
        return Err(Failure::Usage(format!(
            "shard: pamr binary not found at {} (pass --pamr PATH)",
            pamr.display()
        )));
    }
    let failed = |what: String| Failure::Failed(format!("shard: {what}"));
    let dir = std::env::temp_dir().join(format!("pamr_bench_shard_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).map_err(|e| failed(format!("{}: {e}", dir.display())))?;
    let part = |i: usize, n: usize| dir.join(format!("part_{i}_of_{n}.json"));
    let spawn = |i: usize, n: usize| {
        Command::new(&pamr)
            .arg("shard")
            .args(["--shard", &format!("{i}/{n}")])
            .args(["--trials", &trials.to_string(), "--seed", &seed.to_string()])
            .arg("--out")
            .arg(part(i, n))
            .spawn()
            .map_err(|e| failed(format!("spawning pamr shard {i}/{n}: {e}")))
    };
    // Runs shard processes 0..n concurrently, then `pamr merge` over their
    // partials: the merged report and the merge step's own time.
    let pipeline = |n: usize| -> Outcome<(String, f64)> {
        let children = (0..n).map(|i| spawn(i, n)).collect::<Outcome<Vec<_>>>()?;
        for (i, mut child) in children.into_iter().enumerate() {
            match child.wait() {
                Ok(status) if status.success() => {}
                _ => return Err(failed(format!("pamr shard {i}/{n} failed"))),
            }
        }
        let (merged, merge_ms) = timed(|| {
            Command::new(&pamr)
                .arg("merge")
                .args((0..n).map(|i| part(i, n)))
                .output()
        });
        match merged {
            Ok(out) if out.status.success() => {
                Ok((String::from_utf8_lossy(&out.stdout).into_owned(), merge_ms))
            }
            Ok(out) => Err(failed(format!(
                "pamr merge failed:\n{}",
                String::from_utf8_lossy(&out.stderr)
            ))),
            Err(e) => Err(failed(format!("spawning pamr merge: {e}"))),
        }
    };
    eprintln!("pamr-bench shard: {trials} trials/point, 1 process vs {shards} processes");
    let (single, wall_ms_single) = timed(|| pipeline(1));
    let (sharded, wall_ms_sharded) = timed(|| pipeline(shards));
    let _ = std::fs::remove_dir_all(&dir);
    let ((report_single, _), (report_sharded, merge_ms)) = (single?, sharded?);
    if report_single != report_sharded {
        return Err(failed(format!(
            "the sharded report diverged from the single-process report:\n--- single\n\
             {report_single}\n--- sharded\n{report_sharded}"
        )));
    }
    let out = flags.text("--out");
    let report = ShardBenchReport {
        schema: 1,
        shards,
        trials: trials as usize,
        seed,
        wall_ms_single,
        wall_ms_sharded,
        merge_ms,
        speedup: wall_ms_single / wall_ms_sharded,
        reports_identical: true,
    };
    write_report(out, &report)?;
    eprintln!(
        "pamr-bench shard: single {wall_ms_single:.0} ms, {shards}-process {wall_ms_sharded:.0} ms \
         (merge {merge_ms:.0} ms), speedup {:.2}x, reports identical → {out}",
        report.speedup
    );
    Ok(())
}
