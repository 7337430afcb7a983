//! `pamr` — command-line front end for power-aware Manhattan routing.
//!
//! ```text
//! pamr random --mesh 8x8 --n 20 --wmin 100 --wmax 2500 [--seed S] > inst.json
//! pamr route  --instance inst.json [--heuristic BEST|XY|SG|IG|TB|XYI|PR]
//!             [--model kim-horowitz|continuous] [--split S] [--json]
//! pamr frontier [--instance inst.json | --mesh PxQ --n N [--seed S]]
//!             [--model NAME] [--segments K] [--split S]
//!             [--shard i/N --out part_i.json] [--merge part_0.json ...]
//!             [--csv] [--json] [--check-only]
//! pamr shard  --shard i/N --out part_i.json [--trials T] [--seed S] [--threads K]
//! pamr merge  [--figures] part_0.json part_1.json ...
//! pamr serve  [--mesh PxQ] [--model NAME] [--heuristic NAME]
//!             [--repair bounded|full] [--max-moves N] [--stdin | --tcp ADDR]
//! pamr demo
//! ```
//!
//! Every subcommand reads its flags through the shared table-driven parser
//! (`pamr::sim::cli::parse`): a bad flag prints `pamr <cmd>: <message>` and
//! exits 2, a failed read, write or merge prints one message and exits 1.
//!
//! Instances are JSON (`{"mesh": {"p":8,"q":8}, "comms": [{"src":…}]}` —
//! exactly serde's view of [`CommSet`]); `route` prints per-communication
//! paths, the power breakdown and the link heatmap, or a machine-readable
//! JSON report with `--json`.
//!
//! `shard` runs one process's slice of the §6 campaign (sweep points `p`
//! with `p % N == i`) and writes the per-point statistics as JSON; `merge`
//! recombines the N partials and prints the §6.4 summary — byte-identical
//! to a single-process `summary` run with the same trials and seed. With
//! `--figures` it prints the Figure 7–9 tables instead, exactly what
//! `fig7`, `fig8` and `fig9` print at the same trials and seed.
//!
//! `frontier` sweeps the bi-objective power × max-hop-latency plane of one
//! instance (ε-constraint over latency budgets) and prints the
//! dominance-filtered Pareto set. `--shard i/N --out F` solves only the
//! segments `s` with `s % N == i` and writes a partial; `--merge` recombines
//! the partials into the byte-identical single-process report.
//!
//! `serve` keeps a [`RoutingSession`] resident and answers newline-delimited
//! JSON requests (`add_comm`, `remove_comm`, `reroute`, `power_report`,
//! `snapshot`) over stdin/stdout (`--stdin`, the default) or a TCP socket
//! (`--tcp 127.0.0.1:9667`); see `pamr::sim::serve` for the wire schema.
//!
//! [`RoutingSession`]: pamr::routing::RoutingSession

use pamr::prelude::*;
use pamr::sim::cli::{self, Failure, Flag, Flags, Kind, Outcome, Unset};
use pamr::sim::frontier::{merge_frontier, FrontierPartial, FrontierReport};
use pamr::sim::shard::{merge_figures, merge_partials, MergeError, ShardPartial};
use pamr::sim::table::render_figure;
use pamr::sim::viz::render_heatmap;
use pamr::sim::ShardSpec;
use pamr::sim::{out, outln};
use rand::rngs::SmallRng;
use rand::SeedableRng;
use serde::Serialize;

fn usage() -> ! {
    eprintln!(
        "usage:\n  pamr random --mesh PxQ --n N [--wmin W] [--wmax W] [--seed S]\n  \
         pamr route --instance FILE [--heuristic NAME] [--model NAME] [--split S] [--json]\n  \
         pamr frontier [--instance FILE | --mesh PxQ --n N [--seed S]] [--model NAME] \
         [--segments K] [--split S] [--shard i/N --out FILE] [--merge FILE...] \
         [--csv] [--json] [--check-only]\n  \
         pamr shard --shard i/N --out FILE [--trials T] [--seed S] [--threads K]\n  \
         pamr merge [--figures] FILE...\n  \
         pamr serve [--mesh PxQ] [--model NAME] [--heuristic NAME] \
         [--repair bounded|full] [--max-moves N] [--stdin | --tcp ADDR]\n  \
         pamr demo"
    );
    std::process::exit(2);
}

const MESH: Flag = ("--mesh", Kind::Text, Unset::Default("8x8"));
const MODEL: Flag = (
    "--model",
    Kind::OneOf(&["kim-horowitz", "kh", "continuous", "fig2", "theory"]),
    Unset::Default("kim-horowitz"),
);

const RANDOM_FLAGS: &[Flag] = &[
    MESH,
    ("--n", Kind::Int, Unset::Default("20")),
    ("--wmin", Kind::Ratio, Unset::Default("100")),
    ("--wmax", Kind::Ratio, Unset::Default("2500")),
    ("--seed", Kind::Seed, Unset::Default("1")),
];

const ROUTE_FLAGS: &[Flag] = &[
    ("--instance", Kind::Text, Unset::Required),
    ("--heuristic", Kind::Text, Unset::Default("BEST")),
    MODEL,
    ("--split", Kind::Int, Unset::Default("1")),
    ("--json", Kind::Switch, Unset::Optional),
];

const FRONTIER_FLAGS: &[Flag] = &[
    ("--instance", Kind::Text, Unset::Optional),
    MESH,
    ("--n", Kind::Int, Unset::Default("20")),
    ("--seed", Kind::Seed, Unset::Default("1")),
    MODEL,
    ("--segments", Kind::Count, Unset::Default("16")),
    ("--split", Kind::Int, Unset::Default("2")),
    ("--shard", Kind::Text, Unset::Optional),
    ("--out", Kind::Text, Unset::Optional),
    ("--merge", Kind::Switch, Unset::Optional),
    ("FILE", Kind::Files, Unset::Optional),
    ("--csv", Kind::Switch, Unset::Optional),
    ("--json", Kind::Switch, Unset::Optional),
    ("--check-only", Kind::Switch, Unset::Optional),
];

const SHARD_FLAGS: &[Flag] = &[
    ("--shard", Kind::Text, Unset::Required),
    ("--out", Kind::Text, Unset::Required),
];

const MERGE_FLAGS: &[Flag] = &[
    ("--figures", Kind::Switch, Unset::Optional),
    ("FILE", Kind::Files, Unset::Required),
];

const SERVE_FLAGS: &[Flag] = &[
    MESH,
    MODEL,
    ("--heuristic", Kind::Text, Unset::Default("XYI")),
    (
        "--repair",
        Kind::OneOf(&["bounded", "full"]),
        Unset::Default("bounded"),
    ),
    ("--max-moves", Kind::Int, Unset::Default("10000")),
    ("--stdin", Kind::Switch, Unset::Optional),
    ("--tcp", Kind::Text, Unset::Optional),
];

/// One subcommand: its name, its flag tables and what it runs.
type Command = (
    &'static str,
    &'static [&'static [Flag]],
    fn(&Flags) -> Outcome,
);

const COMMANDS: &[Command] = &[
    ("random", &[RANDOM_FLAGS], cmd_random),
    ("route", &[ROUTE_FLAGS], cmd_route),
    ("frontier", &[FRONTIER_FLAGS], cmd_frontier),
    ("shard", &[cli::CAMPAIGN_FLAGS, SHARD_FLAGS], cmd_shard),
    ("merge", &[MERGE_FLAGS], cmd_merge),
    ("serve", &[SERVE_FLAGS], cmd_serve),
    ("demo", &[], cmd_demo),
];

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some((cmd, rest)) = args.split_first() else {
        usage()
    };
    let Some(&(name, specs, run)) = COMMANDS.iter().find(|c| c.0 == cmd) else {
        usage()
    };
    let outcome = cli::parse(specs, rest).map_err(Failure::Usage);
    if let Err(failure) = outcome.and_then(|flags| run(&flags)) {
        cli::exit(&format!("pamr {name}"), failure);
    }
}

/// The one `--mesh PxQ` reader: from two cores up to the
/// [`MAX_CORES`](pamr::mesh::MAX_CORES) an instance file may declare.
fn mesh(flags: &Flags) -> Outcome<Mesh> {
    let spec = flags.text("--mesh");
    let mesh = (spec.split_once('x'))
        .and_then(|(p, q)| Mesh::checked(p.parse().ok()?, q.parse().ok()?).ok());
    match mesh {
        Some(mesh) if mesh.num_cores() >= 2 => Ok(mesh),
        _ => Err(Failure::Usage(format!(
            "--mesh needs PxQ with 2 to {} cores, got {spec:?}",
            pamr::mesh::MAX_CORES
        ))),
    }
}

fn model(flags: &Flags) -> PowerModel {
    match flags.text("--model") {
        "continuous" => PowerModel::kim_horowitz_continuous(),
        "fig2" => PowerModel::fig2(),
        "theory" => PowerModel::theory(3.0),
        _ => PowerModel::kim_horowitz(),
    }
}

fn policy(name: &str) -> Outcome<HeuristicKind> {
    (HeuristicKind::ALL.into_iter())
        .find(|k| k.name().eq_ignore_ascii_case(name))
        .ok_or_else(|| Failure::Usage(format!("unknown heuristic {name:?} (XY SG IG TB XYI PR)")))
}

/// A seeded uniform instance on `--mesh` with `--n` communications.
fn draw(flags: &Flags, w_min: f64, w_max: f64) -> Outcome<CommSet> {
    let mesh = mesh(flags)?;
    let mut rng = SmallRng::seed_from_u64(flags.num("--seed"));
    let n = flags.num("--n") as usize;
    Ok(UniformWorkload::new(n, w_min, w_max).generate(&mesh, &mut rng))
}

/// The one file loader: an instance or a shard partial.
fn load<T, E: std::fmt::Display>(path: &str, parse: impl Fn(&str) -> Result<T, E>) -> Outcome<T> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| Failure::Failed(format!("cannot read {path}: {e}")))?;
    parse(&text).map_err(|e| Failure::Failed(format!("{path}: {e}")))
}

/// Writes `text` to `path`.
fn write(path: &str, text: &str) -> Outcome {
    std::fs::write(path, text).map_err(|e| Failure::Failed(format!("writing {path}: {e}")))
}

fn cannot_merge(e: MergeError) -> Failure {
    Failure::Failed(format!("cannot merge: {e}"))
}

fn cmd_random(flags: &Flags) -> Outcome {
    let (w_min, w_max) = (flags.real("--wmin"), flags.real("--wmax"));
    if w_min > w_max {
        return Err(Failure::Usage(format!(
            "--wmin {w_min} exceeds --wmax {w_max}"
        )));
    }
    let cs = draw(flags, w_min, w_max)?;
    outln!("{}", serde_json::to_string_pretty(&cs).expect("serialise"));
    Ok(())
}

#[derive(Serialize)]
struct RouteReport {
    heuristic: String,
    feasible: bool,
    power_mw: Option<f64>,
    leakage_mw: Option<f64>,
    dynamic_mw: Option<f64>,
    active_links: Option<usize>,
    max_link_load: f64,
    paths: Vec<Vec<String>>,
}

fn cmd_route(flags: &Flags) -> Outcome {
    let cs = load(flags.text("--instance"), serde_json::from_str::<CommSet>)?;
    let model = model(flags);
    let name = flags.text("--heuristic");
    let split = flags.num("--split");
    // The s-MP lift routes `--split` parts of every communication as one
    // instance, which the size bound covers too.
    let parts = format!("--split {split} × {} communications", cs.len());
    cli::size(&parts, (cs.len() as u64).saturating_mul(split)).map_err(Failure::Usage)?;
    let split = split as usize;

    let (label, routing): (String, Routing) = if name.eq_ignore_ascii_case("best") {
        let best = Best.route(&cs, &model);
        if best.is_feasible() {
            (format!("BEST={}", best.kind), best.routing)
        } else {
            // Report the fallback attempt so the user still sees loads.
            (format!("BEST=none({} shown)", best.kind), best.routing)
        }
    } else {
        let kind = policy(name)?;
        if split > 1 {
            // s-MP lift of the chosen single-path heuristic.
            struct ByKind(HeuristicKind);
            impl Heuristic for ByKind {
                fn name(&self) -> &'static str {
                    self.0.name()
                }
                fn route_with(
                    &self,
                    cs: &CommSet,
                    model: &PowerModel,
                    scratch: &mut RouteScratch,
                ) -> Routing {
                    self.0.route_with(cs, model, scratch)
                }
            }
            (
                format!("{}-{}MP", kind.name(), split),
                SplitMp::new(ByKind(kind), split).route(&cs, &model),
            )
        } else {
            (kind.name().into(), kind.route(&cs, &model))
        }
    };

    let loads = routing.loads(&cs);
    let breakdown = routing.power(&cs, &model).ok();
    let report = RouteReport {
        heuristic: label.clone(),
        feasible: breakdown.is_some(),
        power_mw: breakdown.map(|b| b.total()),
        leakage_mw: breakdown.map(|b| b.leakage),
        dynamic_mw: breakdown.map(|b| b.dynamic),
        active_links: breakdown.map(|b| b.active_links),
        max_link_load: loads.max_load(),
        paths: (0..cs.len())
            .map(|i| {
                routing
                    .flows(i)
                    .iter()
                    .map(|(p, r)| format!("{p} @{r:.1}"))
                    .collect()
            })
            .collect(),
    };

    if flags.given("--json") {
        outln!(
            "{}",
            serde_json::to_string_pretty(&report).expect("serialise")
        );
        return Ok(());
    }
    outln!("routed {} communications with {label}", cs.len());
    match breakdown {
        Some(b) => outln!(
            "power: {:.1} mW ({} active links, {:.1} leakage + {:.1} dynamic)",
            b.total(),
            b.active_links,
            b.leakage,
            b.dynamic
        ),
        None => outln!(
            "INFEASIBLE: max link load {:.0} exceeds capacity",
            loads.max_load()
        ),
    }
    outln!("\nall policies:");
    print_policies(&cs, &model);
    outln!("\nutilisation heatmap:");
    out!("{}", render_heatmap(cs.mesh(), &loads, model.capacity));
    Ok(())
}

fn cmd_frontier(flags: &Flags) -> Outcome {
    let report = if flags.given("--merge") {
        if flags.files().is_empty() {
            return Err(Failure::Usage("--merge needs partial files".into()));
        }
        let partials: Vec<FrontierPartial> = (flags.files().iter())
            .map(|path| load(path, FrontierPartial::from_json))
            .collect::<Outcome<_>>()?;
        merge_frontier(&partials).map_err(cannot_merge)?
    } else {
        if let Some(file) = flags.files().first() {
            return Err(Failure::Usage(format!(
                "unexpected argument {file:?} (partials need --merge)"
            )));
        }
        // The instance: a file, or a seeded uniform draw (as `pamr random`).
        let cs = match flags.opt_text("--instance") {
            Some(path) => load(path, serde_json::from_str::<CommSet>)?,
            None => draw(flags, 100.0, 2500.0)?,
        };
        let model = model(flags);
        let (segments, split) = (
            flags.num("--segments") as usize,
            flags.num("--split") as usize,
        );
        match (flags.opt_text("--shard"), flags.opt_text("--out")) {
            (None, None) => FrontierReport::compute(&cs, &model, segments, split),
            (Some(spec), Some(out)) => {
                // Shard mode: solve the owned segments and write the partial.
                let shard = ShardSpec::parse(spec).map_err(Failure::Usage)?;
                let partial = FrontierPartial::run(&cs, &model, segments, split, shard);
                write(out, &partial.to_json())?;
                eprintln!(
                    "wrote {} segment(s) to {out} (recombine with `pamr frontier --merge`)",
                    partial.owned.len()
                );
                return Ok(());
            }
            _ => return Err(Failure::Usage("--shard and --out go together".into())),
        }
    };

    report
        .check()
        .map_err(|e| Failure::Failed(format!("frontier check failed: {e}")))?;
    if flags.given("--check-only") {
        eprintln!(
            "frontier check ok ({} Pareto point(s), {} segments)",
            report.pareto.len(),
            report.segments
        );
    } else if flags.given("--json") {
        outln!("{}", report.to_json());
    } else if flags.given("--csv") {
        out!("{}", report.to_csv());
    } else {
        out!("{}", report.render());
    }
    Ok(())
}

fn cmd_shard(flags: &Flags) -> Outcome {
    let opts = cli::Options::from_flags(flags);
    let shard = ShardSpec::parse(flags.text("--shard")).map_err(Failure::Usage)?;
    let out = flags.text("--out");
    let mesh = pamr::sim::paper_mesh();
    let model = pamr::sim::paper_model();
    let partial = opts.install(|| {
        eprintln!(
            "running shard {shard} of the §6 campaign ({} trials per sweep point, {} worker thread(s)) ...",
            opts.trials,
            rayon::current_num_threads()
        );
        ShardPartial::run(&mesh, &model, opts.trials, opts.seed, shard)
    });
    write(out, &partial.to_json())?;
    eprintln!(
        "wrote {} sweep points to {out} (recombine with `pamr merge`)",
        partial.points.len()
    );
    Ok(())
}

fn cmd_merge(flags: &Flags) -> Outcome {
    let partials: Vec<ShardPartial> = (flags.files().iter())
        .map(|path| load(path, ShardPartial::from_json))
        .collect::<Outcome<_>>()?;
    if flags.given("--figures") {
        // The Figure 7–9 tables instead of the pooled summary.
        let figures = merge_figures(&partials).map_err(cannot_merge)?;
        for (figure, results) in figures.iter().enumerate() {
            out!("{}", render_figure(figure, results, partials[0].trials));
        }
        return Ok(());
    }
    let merged = merge_partials(&partials).map_err(cannot_merge)?;
    eprintln!(
        "merged {} shard(s), {} trials per sweep point, seed {}",
        merged.shard_count, merged.trials, merged.seed
    );
    out!("{}", merged.summary().render_report());
    Ok(())
}

fn cmd_serve(flags: &Flags) -> Outcome {
    let mesh = mesh(flags)?;
    let heuristic = policy(flags.text("--heuristic"))?;
    let repair = match flags.text("--repair") {
        "full" => pamr::routing::RepairMode::Full,
        _ => pamr::routing::RepairMode::Bounded {
            max_moves: flags.num("--max-moves") as usize,
        },
    };
    let config = pamr::routing::SessionConfig { heuristic, repair };
    let mut server = pamr::sim::serve::Server::new(mesh, model(flags), config);
    let result = match flags.opt_text("--tcp") {
        Some(addr) if !flags.given("--stdin") => pamr::sim::serve::serve_tcp(&mut server, addr),
        _ => {
            let stdin = std::io::stdin();
            let stdout = std::io::stdout();
            pamr::sim::serve::serve_lines(&mut server, stdin.lock(), stdout.lock())
        }
    };
    result.map_err(|e| Failure::Failed(e.to_string()))
}

fn cmd_demo(_: &Flags) -> Outcome {
    let mesh = Mesh::new(8, 8);
    let mut rng = SmallRng::seed_from_u64(7);
    let cs = UniformWorkload::new(25, 100.0, 2500.0).generate(&mesh, &mut rng);
    let model = PowerModel::kim_horowitz();
    outln!("demo: 25 random communications on an 8×8 CMP\n");
    print_policies(&cs, &model);
    let best = Best.route(&cs, &model);
    if let Some(power) = best.power {
        outln!("\nBEST = {} at {power:.1} mW", best.kind);
        outln!(
            "{}",
            render_heatmap(&mesh, &best.routing.loads(&cs), model.capacity)
        );
    }
    Ok(())
}

/// One line per policy: its power, or `failed`.
fn print_policies(cs: &CommSet, model: &PowerModel) {
    for kind in HeuristicKind::ALL {
        match kind.route(cs, model).power(cs, model) {
            Ok(b) => outln!("  {:<4} {:>10.1} mW", kind.name(), b.total()),
            Err(_) => outln!("  {:<4} {:>10}", kind.name(), "failed"),
        }
    }
}
