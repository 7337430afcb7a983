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
//! Instances are JSON (`{"mesh": {"p":8,"q":8}, "comms": [{"src":…}]}` —
//! exactly serde's view of [`CommSet`]); `route` prints per-communication
//! paths, the power breakdown and the link heatmap, or a machine-readable
//! JSON report with `--json`.
//!
//! `shard` runs one process's slice of the §6 campaign (sweep points `p`
//! with `p % N == i`) and writes the per-point statistics as JSON; `merge`
//! recombines the N partials and prints the §6.4 summary — byte-identical
//! to a single-process `summary` run with the same trials and seed. With
//! `--figures` it instead renders the recombined Figure 7–9 tables (the
//! per-point statistics are bit-equal to the unsharded campaign's, so the
//! tables are byte-identical too).
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
use pamr::sim::shard::{merge_figures, merge_partials, ShardPartial};
use pamr::sim::table::{failure_table, norm_inv_table};
use pamr::sim::viz::render_heatmap;
use rand::rngs::SmallRng;
use rand::SeedableRng;
use serde::Serialize;
use std::collections::HashMap;
use std::process::exit;

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
    exit(2);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("random") => cmd_random(&args[1..]),
        Some("route") => cmd_route(&args[1..]),
        Some("frontier") => cmd_frontier(&args[1..]),
        Some("shard") => cmd_shard(&args[1..]),
        Some("merge") => cmd_merge(&args[1..]),
        Some("serve") => cmd_serve(&args[1..]),
        Some("demo") => cmd_demo(),
        _ => usage(),
    }
}

fn opt(args: &[String], name: &str) -> Option<String> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .cloned()
}

fn flag(args: &[String], name: &str) -> bool {
    args.iter().any(|a| a == name)
}

fn cmd_random(args: &[String]) {
    let mesh_spec = opt(args, "--mesh").unwrap_or_else(|| "8x8".into());
    let (p, q) = mesh_spec
        .split_once('x')
        .and_then(|(a, b)| Some((a.parse().ok()?, b.parse().ok()?)))
        .unwrap_or_else(|| usage());
    let n: usize = opt(args, "--n").and_then(|v| v.parse().ok()).unwrap_or(20);
    let w_min: f64 = opt(args, "--wmin")
        .and_then(|v| v.parse().ok())
        .unwrap_or(100.0);
    let w_max: f64 = opt(args, "--wmax")
        .and_then(|v| v.parse().ok())
        .unwrap_or(2500.0);
    let seed: u64 = opt(args, "--seed")
        .and_then(|v| v.parse().ok())
        .unwrap_or(1);
    let mesh = Mesh::new(p, q);
    let mut rng = SmallRng::seed_from_u64(seed);
    let cs = UniformWorkload::new(n, w_min, w_max).generate(&mesh, &mut rng);
    println!("{}", serde_json::to_string_pretty(&cs).expect("serialise"));
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

fn build_model(name: &str, mesh_capacity_hint: f64) -> PowerModel {
    match name {
        "kim-horowitz" | "kh" => PowerModel::kim_horowitz(),
        "continuous" => PowerModel::kim_horowitz_continuous(),
        "fig2" => PowerModel::fig2(),
        "theory" => PowerModel::theory(3.0),
        other => {
            let _ = mesh_capacity_hint;
            eprintln!("unknown model {other:?} (kim-horowitz | continuous | fig2 | theory)");
            exit(2);
        }
    }
}

fn cmd_route(args: &[String]) {
    let path = opt(args, "--instance").unwrap_or_else(|| usage());
    let data = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        eprintln!("cannot read {path}: {e}");
        exit(1);
    });
    let cs: CommSet = serde_json::from_str(&data).unwrap_or_else(|e| {
        eprintln!("cannot parse {path}: {e}");
        exit(1);
    });
    let model = build_model(
        &opt(args, "--model").unwrap_or_else(|| "kim-horowitz".into()),
        0.0,
    );
    let name = opt(args, "--heuristic").unwrap_or_else(|| "BEST".into());
    let split: usize = opt(args, "--split")
        .and_then(|v| v.parse().ok())
        .unwrap_or(1);

    let (label, routing): (String, Routing) = if name.eq_ignore_ascii_case("best") {
        let best = Best::default().route(&cs, &model);
        if best.is_feasible() {
            (format!("BEST={}", best.kind), best.routing)
        } else {
            // Report the fallback attempt so the user still sees loads.
            (format!("BEST=none({} shown)", best.kind), best.routing)
        }
    } else {
        let kind = HeuristicKind::ALL
            .into_iter()
            .find(|k| k.name().eq_ignore_ascii_case(&name))
            .unwrap_or_else(|| {
                eprintln!("unknown heuristic {name:?} (XY SG IG TB XYI PR BEST)");
                exit(2);
            });
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

    if flag(args, "--json") {
        println!(
            "{}",
            serde_json::to_string_pretty(&report).expect("serialise")
        );
        return;
    }
    println!("routed {} communications with {label}", cs.len());
    match breakdown {
        Some(b) => println!(
            "power: {:.1} mW ({} active links, {:.1} leakage + {:.1} dynamic)",
            b.total(),
            b.active_links,
            b.leakage,
            b.dynamic
        ),
        None => println!(
            "INFEASIBLE: max link load {:.0} exceeds capacity",
            loads.max_load()
        ),
    }
    // Per-heuristic comparison footer.
    let mut comparison: HashMap<&str, Option<f64>> = HashMap::new();
    for kind in HeuristicKind::ALL {
        let r = kind.route(&cs, &model);
        comparison.insert(kind.name(), r.power(&cs, &model).ok().map(|b| b.total()));
    }
    println!("\nall policies:");
    for kind in HeuristicKind::ALL {
        match comparison[kind.name()] {
            Some(p) => println!("  {:<4} {p:>10.1} mW", kind.name()),
            None => println!("  {:<4} {:>10}", kind.name(), "failed"),
        }
    }
    println!("\nutilisation heatmap:");
    print!("{}", render_heatmap(cs.mesh(), &loads, model.capacity));
}

fn cmd_frontier(args: &[String]) {
    use pamr::sim::frontier::{merge_frontier, FrontierPartial, FrontierReport};

    // Merge mode: recombine shard partials into the 1-process report.
    let merge_files: Vec<&String> = args
        .iter()
        .position(|a| a == "--merge")
        .map(|i| {
            args[i + 1..]
                .iter()
                .take_while(|a| !a.starts_with("--"))
                .collect()
        })
        .unwrap_or_default();
    if args.iter().any(|a| a == "--merge") && merge_files.is_empty() {
        usage();
    }

    let segments: usize = opt(args, "--segments")
        .and_then(|v| v.parse().ok())
        .unwrap_or(16);
    let split: usize = opt(args, "--split")
        .and_then(|v| v.parse().ok())
        .unwrap_or(2);

    let report = if !merge_files.is_empty() {
        let partials: Vec<FrontierPartial> = merge_files
            .iter()
            .map(|path| {
                let text = std::fs::read_to_string(path).unwrap_or_else(|e| {
                    eprintln!("cannot read {path}: {e}");
                    exit(1);
                });
                FrontierPartial::from_json(&text).unwrap_or_else(|e| {
                    eprintln!("{path}: {e}");
                    exit(1);
                })
            })
            .collect();
        merge_frontier(&partials).unwrap_or_else(|e| {
            eprintln!("cannot merge: {e}");
            exit(1);
        })
    } else {
        // The instance: a file, or a seeded uniform draw (as `pamr random`).
        let cs: CommSet = if let Some(path) = opt(args, "--instance") {
            let data = std::fs::read_to_string(&path).unwrap_or_else(|e| {
                eprintln!("cannot read {path}: {e}");
                exit(1);
            });
            serde_json::from_str(&data).unwrap_or_else(|e| {
                eprintln!("cannot parse {path}: {e}");
                exit(1);
            })
        } else {
            let mesh_spec = opt(args, "--mesh").unwrap_or_else(|| "8x8".into());
            let (p, q) = mesh_spec
                .split_once('x')
                .and_then(|(a, b)| Some((a.parse().ok()?, b.parse().ok()?)))
                .unwrap_or_else(|| usage());
            let n: usize = opt(args, "--n").and_then(|v| v.parse().ok()).unwrap_or(20);
            let seed: u64 = opt(args, "--seed")
                .and_then(|v| v.parse().ok())
                .unwrap_or(1);
            let mut rng = SmallRng::seed_from_u64(seed);
            UniformWorkload::new(n, 100.0, 2500.0).generate(&Mesh::new(p, q), &mut rng)
        };
        let model = build_model(
            &opt(args, "--model").unwrap_or_else(|| "kim-horowitz".into()),
            0.0,
        );

        // Shard mode: solve the owned segments and write the partial.
        if let Some(spec) = opt(args, "--shard") {
            let shard = pamr::sim::ShardSpec::parse(&spec).unwrap_or_else(|e| {
                eprintln!("{e}");
                exit(2);
            });
            let Some(out) = opt(args, "--out") else {
                usage();
            };
            let partial = FrontierPartial::run(&cs, &model, segments, split, shard);
            std::fs::write(&out, partial.to_json()).unwrap_or_else(|e| {
                eprintln!("writing {out}: {e}");
                exit(1);
            });
            eprintln!(
                "wrote {} segment(s) to {out} (recombine with `pamr frontier --merge`)",
                partial.owned.len()
            );
            return;
        }
        FrontierReport::compute(&cs, &model, segments, split)
    };

    if let Err(e) = report.check() {
        eprintln!("frontier check failed: {e}");
        exit(1);
    }
    if flag(args, "--check-only") {
        eprintln!(
            "frontier check ok ({} Pareto point(s), {} segments)",
            report.pareto.len(),
            report.segments
        );
        return;
    }
    if flag(args, "--json") {
        println!("{}", report.to_json());
    } else if flag(args, "--csv") {
        print!("{}", report.to_csv());
    } else {
        print!("{}", report.render());
    }
}

fn cmd_shard(args: &[String]) {
    // Same strict parsing as the sim binaries: malformed --trials/--seed
    // must fail here, not surface as a mismatch at merge time.
    let opts = pamr::sim::cli::Options::parse_from(args.iter().cloned()).unwrap_or_else(|e| {
        eprintln!("pamr shard: {e}");
        exit(2);
    });
    let Some(out) = opts.out.as_deref() else {
        usage()
    };
    let mesh = pamr::sim::paper_mesh();
    let model = pamr::sim::paper_model();
    eprintln!(
        "running shard {} of the §6 campaign ({} trials per sweep point, {} worker thread(s)) ...",
        opts.shard,
        opts.trials,
        rayon::current_num_threads()
    );
    let partial = ShardPartial::run(&mesh, &model, opts.trials, opts.seed, opts.shard);
    std::fs::write(out, partial.to_json()).unwrap_or_else(|e| {
        eprintln!("writing {}: {e}", out.display());
        exit(1);
    });
    eprintln!(
        "wrote {} sweep points to {} (recombine with `pamr merge`)",
        partial.points.len(),
        out.display()
    );
}

fn cmd_merge(args: &[String]) {
    let files: Vec<&String> = args.iter().filter(|a| !a.starts_with("--")).collect();
    if files.is_empty() {
        usage();
    }
    let partials: Vec<ShardPartial> = files
        .iter()
        .map(|path| {
            let text = std::fs::read_to_string(path).unwrap_or_else(|e| {
                eprintln!("cannot read {path}: {e}");
                exit(1);
            });
            ShardPartial::from_json(&text).unwrap_or_else(|e| {
                eprintln!("{path}: {e}");
                exit(1);
            })
        })
        .collect();
    if flag(args, "--figures") {
        // Recombine the per-figure tables instead of the pooled summary.
        let figures = merge_figures(&partials).unwrap_or_else(|e| {
            eprintln!("cannot merge: {e}");
            exit(1);
        });
        for res in figures.iter().flatten() {
            println!("== {} ==", res.id);
            println!("normalised power inverse");
            print!("{}", norm_inv_table(res));
            println!("failure ratio");
            print!("{}", failure_table(res));
            println!();
        }
        return;
    }
    let merged = merge_partials(&partials).unwrap_or_else(|e| {
        eprintln!("cannot merge: {e}");
        exit(1);
    });
    eprintln!(
        "merged {} shard(s), {} trials per sweep point, seed {}",
        merged.shard_count, merged.trials, merged.seed
    );
    print!("{}", merged.summary().render_report());
}

fn cmd_serve(args: &[String]) {
    let mesh_spec = opt(args, "--mesh").unwrap_or_else(|| "8x8".into());
    let (p, q) = mesh_spec
        .split_once('x')
        .and_then(|(a, b)| Some((a.parse().ok()?, b.parse().ok()?)))
        .unwrap_or_else(|| usage());
    let mesh = Mesh::new(p, q);
    let model = build_model(
        &opt(args, "--model").unwrap_or_else(|| "kim-horowitz".into()),
        0.0,
    );
    let heur_name = opt(args, "--heuristic").unwrap_or_else(|| "XYI".into());
    let heuristic = HeuristicKind::ALL
        .into_iter()
        .find(|k| k.name().eq_ignore_ascii_case(&heur_name))
        .unwrap_or_else(|| {
            eprintln!("unknown heuristic {heur_name:?} (XY SG IG TB XYI PR)");
            exit(2);
        });
    let repair = match opt(args, "--repair").as_deref().unwrap_or("bounded") {
        "full" => pamr::routing::RepairMode::Full,
        "bounded" => {
            let max_moves = opt(args, "--max-moves")
                .and_then(|v| v.parse().ok())
                .unwrap_or(10_000);
            pamr::routing::RepairMode::Bounded { max_moves }
        }
        other => {
            eprintln!("unknown repair mode {other:?} (bounded | full)");
            exit(2);
        }
    };
    let config = pamr::routing::SessionConfig {
        heuristic,
        repair,
        ..Default::default()
    };
    let mut server = pamr::sim::serve::Server::new(mesh, model, config);
    let result = match opt(args, "--tcp") {
        Some(addr) if !flag(args, "--stdin") => pamr::sim::serve::serve_tcp(&mut server, &addr),
        _ => {
            let stdin = std::io::stdin();
            let stdout = std::io::stdout();
            pamr::sim::serve::serve_lines(&mut server, stdin.lock(), stdout.lock())
        }
    };
    if let Err(e) = result {
        eprintln!("pamr serve: {e}");
        exit(1);
    }
}

fn cmd_demo() {
    let mesh = Mesh::new(8, 8);
    let mut rng = SmallRng::seed_from_u64(7);
    let cs = UniformWorkload::new(25, 100.0, 2500.0).generate(&mesh, &mut rng);
    let model = PowerModel::kim_horowitz();
    println!("demo: 25 random communications on an 8×8 CMP\n");
    for kind in HeuristicKind::ALL {
        let r = kind.route(&cs, &model);
        match r.power(&cs, &model) {
            Ok(b) => println!("  {:<4} {:>10.1} mW", kind.name(), b.total()),
            Err(_) => println!("  {:<4} {:>10}", kind.name(), "failed"),
        }
    }
    let best = Best::default().route(&cs, &model);
    if let Some(power) = best.power {
        println!("\nBEST = {} at {power:.1} mW", best.kind);
        println!(
            "{}",
            render_heatmap(&mesh, &best.routing.loads(&cs), model.capacity)
        );
    }
}
