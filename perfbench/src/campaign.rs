//! The `paper_campaign` workload: the pooled §6 campaign (all nine
//! sub-figures, 122 sweep points, 10 trials per point, 8×8 mesh,
//! Kim–Horowitz model).
//!
//! The run is made of rounds. A round visits every sweep point in campaign
//! order and, for each, takes one host-speed probe reading, then:
//!
//! 1. replays the point stepwise at one thread (generate → route each
//!    policy → power → `PointStats::add`, chunked and merged exactly as the
//!    work-pool does), timed instance by instance;
//! 2. runs `Campaign::run_point` at 1 thread and at `nproc` threads
//!    (alternating which goes first), each timed as a whole.
//!    `Campaign::run_pooled` is exactly the loop of `run_point` over these
//!    points.
//!
//! Every round builds fresh precomputes, as one campaign process does. The
//! first round's replay gives each point's reference statistics; every later
//! replay and every `run_point` call must reproduce them bit for bit.
//!
//! End-to-end timings are scaled to the reference host speed by the probe
//! readings around them (see [`crate::speed`]); each point and each instance
//! then reports its median over the rounds, and the campaign figures sum
//! over the points. Per-layer figures are raw wall times.

use crate::report::{median, ratio, secs, Report};
use crate::speed::Probe;
use crate::{Args, Measured};
use pamr_mesh::Mesh;
use pamr_power::PowerModel;
use pamr_routing::{EngineConfig, HeuristicKind, MeshPrecompute, RouteScratch, Routing};
use pamr_sim::experiments::campaign_figures;
use pamr_sim::{
    experiment_seed, trial_seed, Campaign, Experiment, HeurResult, InstanceOutcome, PointStats,
    ShardSpec, SweepPoint,
};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

/// Trials per work-pool chunk in the vendored rayon (`CHUNK` there). The
/// replay folds trials in the same chunks so its floating-point sums are
/// bit-identical to the pooled run's.
const POOL_CHUNK: usize = 8;

/// Trials per sweep point. Ten trials split 8+2 into pool chunks, so
/// pool scheduling shows at `nproc` threads.
const TRIALS: usize = 10;

/// Rounds a run makes at least, whatever `--seconds` says: the fewest
/// readings per unit a median is taken over.
const MIN_ROUNDS: usize = 3;

/// A reading is scaled by the median of the probe readings up to this
/// many point visits before and after it (a visit takes about 60 ms).
const PROBE_SPAN: usize = 2;

/// Set-up repetitions per round (`setup_s` is the median of all of them).
const SETUP_REPS: usize = 31;

/// Instances in the LIVE-vs-REFERENCE gate sample.
const ENGINE_SAMPLE: usize = 24;

/// The share of the traced replay's wall time the layer spans must cover.
/// Everything outside them is loop bookkeeping (seeding, scratch set-up,
/// result assembly), so a lower figure means a layer call went untimed.
const COVERAGE_TOLERANCE: std::ops::RangeInclusive<f64> = 0.95..=1.0;

/// Metric-name stems of the six policies, in [`HeuristicKind::ALL`] order.
const ROUTE_NAMES: [[&str; 3]; 6] = [
    ["route.xy.us", "route.xy.share", "route.xy.feasible_frac"],
    ["route.sg.us", "route.sg.share", "route.sg.feasible_frac"],
    ["route.ig.us", "route.ig.share", "route.ig.feasible_frac"],
    ["route.tb.us", "route.tb.share", "route.tb.feasible_frac"],
    ["route.xyi.us", "route.xyi.share", "route.xyi.feasible_frac"],
    ["route.pr.us", "route.pr.share", "route.pr.feasible_frac"],
];

/// The campaign workload: the platform, the sweep and the master seed.
pub struct Spec {
    mesh: Mesh,
    model: PowerModel,
    figures: Vec<Vec<Experiment>>,
    seed: u64,
}

/// One sweep point with the seed its trials derive from.
struct PointRef<'a> {
    exp_seed: u64,
    index: usize,
    point: &'a SweepPoint,
}

/// Self times (seconds) and counts collected by the stepwise replays.
#[derive(Default)]
struct Spans {
    instances: usize,
    generate: f64,
    customize: f64,
    route: [f64; 6],
    feasible: [usize; 6],
    power: f64,
    power_calls: usize,
    add: f64,
    merge: f64,
    merges: usize,
    /// Replay wall time, without the side-by-side customize timing.
    wall: f64,
    interner: (u64, u64),
}

/// What the stepwise replay of one sweep point produced.
struct PointReplay {
    stats: PointStats,
    /// Replay wall time (s), without the side-by-side customize timing.
    wall: f64,
    /// Per-instance wall time (µs): generate, route and evaluate.
    instance_us: Vec<f64>,
    /// Per-instance evaluate time (µs): six `Routing::power` calls and the
    /// `PointStats::add` fold.
    read_us: Vec<f64>,
}

/// Every reading of every unit (a point or an instance), each with the
/// index of the host-speed probe reading taken beside it.
struct Readings(Vec<Vec<(f64, usize)>>);

impl Readings {
    fn new(units: usize) -> Readings {
        Readings(vec![Vec::new(); units])
    }

    fn record(&mut self, unit: usize, value: f64, probe_at: usize) {
        self.0[unit].push((value, probe_at));
    }

    /// Each unit's median reading; with a probe, every reading is first
    /// scaled to the reference host speed by the probe readings around it.
    fn medians(&self, probe: Option<&Probe>) -> Vec<f64> {
        self.0
            .iter()
            .map(|rs| {
                let xs: Vec<f64> = rs
                    .iter()
                    .map(|&(v, k)| {
                        probe.map_or(v, |p| {
                            v * p.scale(k.saturating_sub(PROBE_SPAN), k + PROBE_SPAN + 1)
                        })
                    })
                    .collect();
                median(&xs)
            })
            .collect()
    }
}

/// The pooled statistics' bits, `sum_micros` (a wall-clock reading)
/// excluded.
fn fingerprint(stats: &PointStats) -> Vec<u64> {
    let mut f = vec![
        stats.trials as u64,
        stats.best_successes as u64,
        stats.sum_best_inv.to_bits(),
        stats.sum_best_static_frac.to_bits(),
    ];
    for agg in &stats.per_heur {
        f.extend([
            agg.successes as u64,
            agg.sum_norm_inv.to_bits(),
            agg.sum_inv.to_bits(),
            agg.sum_static_frac.to_bits(),
        ]);
    }
    f
}

/// Reduces per-chunk accumulators the way the vendored work-pool does:
/// groups of [`POOL_CHUNK`] folded from the identity, then the groups.
fn pool_reduce(chunks: Vec<PointStats>) -> PointStats {
    let mut parts = Vec::new();
    let mut it = chunks.into_iter().peekable();
    while it.peek().is_some() {
        parts.push(
            it.by_ref()
                .take(POOL_CHUNK)
                .fold(PointStats::default(), PointStats::merge),
        );
    }
    parts
        .into_iter()
        .fold(PointStats::default(), PointStats::merge)
}

impl Spec {
    /// `paper_campaign`: the seed picks the campaign master seed.
    pub fn paper(seed: u64) -> Spec {
        Spec {
            mesh: pamr_sim::paper_mesh(),
            model: pamr_sim::paper_model(),
            figures: campaign_figures().into_iter().collect(),
            seed: SmallRng::seed_from_u64(seed ^ 0x5EC6).gen_range(0..u64::MAX),
        }
    }

    fn points(&self) -> Vec<PointRef<'_>> {
        let mut out = Vec::new();
        for (fi, fig) in self.figures.iter().enumerate() {
            for (ei, exp) in fig.iter().enumerate() {
                let exp_seed = experiment_seed(self.seed, fi, ei);
                for (index, point) in exp.points.iter().enumerate() {
                    out.push(PointRef {
                        exp_seed,
                        index,
                        point,
                    });
                }
            }
        }
        out
    }

    fn instance(&self, p: &PointRef, trial: usize) -> pamr_routing::CommSet {
        let mut rng = SmallRng::seed_from_u64(trial_seed(p.exp_seed, p.index, trial));
        p.point.workload.generate(&self.mesh, &mut rng)
    }

    /// Set-up before the first trial: the per-mesh precompute and a
    /// worker scratch attached to it (`run_pooled` builds the sweep
    /// definitions itself, inside the timed pass).
    fn setup_once(&self) -> f64 {
        let t = Instant::now();
        let pre = Arc::new(MeshPrecompute::new(self.mesh));
        let mut scratch = RouteScratch::with_engine(EngineConfig::LIVE);
        scratch.attach_precompute(pre);
        black_box(&scratch);
        secs(t)
    }

    /// `Campaign::run_point` on one point at `threads` threads, timed.
    fn run_point(
        &self,
        p: &PointRef,
        pre: &Arc<MeshPrecompute>,
        threads: usize,
    ) -> (PointStats, f64) {
        rayon::set_num_threads(threads);
        let campaign = Campaign {
            mesh: &self.mesh,
            model: &self.model,
            trials: TRIALS,
            seed: p.exp_seed,
            shard: ShardSpec::FULL,
            pre: Some(pre),
            engine: EngineConfig::LIVE,
        };
        let t = Instant::now();
        let stats = campaign.run_point(p.index, p.point);
        let wall = secs(t);
        rayon::set_num_threads(0);
        (black_box(stats), wall)
    }

    /// The stepwise replay of one point at one thread. With a `shadow`
    /// precompute that sees the same instance sequence,
    /// `MeshPrecompute::customize` is timed beside the pipeline; that time
    /// is kept out of the replay's wall.
    fn replay_point(
        &self,
        p: &PointRef,
        pre: &Arc<MeshPrecompute>,
        shadow: Option<&MeshPrecompute>,
        spans: &mut Spans,
    ) -> PointReplay {
        let start = Instant::now();
        let mut customize = 0.0;
        let mut instance_us = Vec::with_capacity(TRIALS);
        let mut read_us = Vec::with_capacity(TRIALS);
        let mut chunks = Vec::new();
        for chunk_start in (0..TRIALS).step_by(POOL_CHUNK) {
            let mut acc = PointStats::default();
            let mut scratch = RouteScratch::with_engine(EngineConfig::LIVE);
            scratch.attach_precompute(Arc::clone(pre));
            for trial in chunk_start..(chunk_start + POOL_CHUNK).min(TRIALS) {
                let t0 = Instant::now();
                let cs = self.instance(p, trial);
                let t1 = Instant::now();
                spans.generate += (t1 - t0).as_secs_f64();
                if let Some(shadow) = shadow {
                    let c = Instant::now();
                    black_box(shadow.customize(&cs));
                    customize += secs(c);
                }
                let t1 = Instant::now();
                let mut results = Vec::with_capacity(HeuristicKind::ALL.len());
                let mut best: Option<(HeuristicKind, f64)> = None;
                let mut read = 0.0;
                for (k, kind) in HeuristicKind::ALL.into_iter().enumerate() {
                    let a = Instant::now();
                    let routing: Routing = kind.route_with(&cs, &self.model, &mut scratch);
                    let b = Instant::now();
                    let power = routing.power(&cs, &self.model);
                    let c = Instant::now();
                    spans.route[k] += (b - a).as_secs_f64();
                    spans.power += (c - b).as_secs_f64();
                    read += (c - b).as_secs_f64();
                    spans.power_calls += 1;
                    let (feasible, power, breakdown) = match power {
                        Ok(br) => (true, br.total(), Some(br)),
                        Err(_) => (false, f64::INFINITY, None),
                    };
                    if feasible {
                        spans.feasible[k] += 1;
                    }
                    if feasible && best.is_none_or(|(_, bp)| power < bp) {
                        best = Some((kind, power));
                    }
                    results.push(HeurResult {
                        kind,
                        feasible,
                        power,
                        breakdown,
                        micros: (b - a).as_micros() as u64,
                    });
                }
                let outcome = InstanceOutcome {
                    results,
                    best_power: best.map(|(_, p)| p),
                    best_kind: best.map(|(k, _)| k),
                };
                let a = Instant::now();
                acc.add(&outcome);
                let add = secs(a);
                spans.add += add;
                read += add;
                spans.instances += 1;
                instance_us.push(((t1 - t0).as_secs_f64() + secs(t1)) * 1e6);
                read_us.push(read * 1e6);
            }
            chunks.push(acc);
        }
        let m = Instant::now();
        let stats = pool_reduce(chunks);
        spans.merge += secs(m);
        spans.merges += 1;
        let wall = secs(start) - customize;
        spans.customize += customize;
        spans.wall += wall;
        PointReplay {
            stats,
            wall,
            instance_us,
            read_us,
        }
    }

    /// Routes a seeded sample of instances under the live and the
    /// reference engines; returns how many instances disagreed.
    fn engine_gate(&self, seed: u64) -> usize {
        let points = self.points();
        let mut rng = SmallRng::seed_from_u64(seed ^ 0xE6_61E5);
        let mut live = RouteScratch::with_engine(EngineConfig::LIVE);
        let mut reference = RouteScratch::with_engine(EngineConfig::REFERENCE);
        let mut mismatches = 0;
        for _ in 0..ENGINE_SAMPLE {
            let p = &points[rng.gen_range(0..points.len())];
            let cs = self.instance(p, rng.gen_range(0..TRIALS));
            let differs = HeuristicKind::ALL.into_iter().any(|kind| {
                kind.route_with(&cs, &self.model, &mut live)
                    != kind.route_with(&cs, &self.model, &mut reference)
            });
            mismatches += usize::from(differs);
        }
        mismatches
    }

    /// Runs the workload: the engine gate, then rounds over the points
    /// until `--seconds` have passed and every point has been timed at
    /// least [`MIN_ROUNDS`] times.
    pub fn run(&self, args: &Args, report: &mut Report) -> Measured {
        let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
        let points = self.points();
        let n = points.len() * TRIALS;
        let mut probe = Probe::default();
        let mut setups = Readings::new(1);
        let set_up = |probe: &mut Probe, setups: &mut Readings| {
            let at = probe.len();
            probe.sample();
            for _ in 0..SETUP_REPS {
                setups.record(0, self.setup_once(), at);
            }
        };
        set_up(&mut probe, &mut setups);

        let mismatches = self.engine_gate(args.seed);
        report.ops(
            ENGINE_SAMPLE as u64,
            mismatches as u64,
            "LIVE and REFERENCE engines disagree",
        );

        let mut spans = Spans::default();
        let mut reference: Vec<Vec<u64>> = Vec::new();
        let mut pooled = PointStats::default();
        let (mut t_1t, mut t_nt, mut t_replay) = (
            Readings::new(points.len()),
            Readings::new(points.len()),
            Readings::new(points.len()),
        );
        let (mut instance_us, mut read_us) = (Readings::new(n), Readings::new(n));
        let mut rounds = 0;
        let started = Instant::now();
        'rounds: loop {
            // Fresh precomputes per round and per path, so each sees the
            // instance sequence of one whole campaign process.
            let fresh = || Arc::new(MeshPrecompute::new(self.mesh));
            let (pre_replay, pre_1t, pre_nt) = (fresh(), fresh(), fresh());
            let shadow = args.trace.then(|| MeshPrecompute::new(self.mesh));
            let order = if rounds % 2 == 0 {
                [1, nproc]
            } else {
                [nproc, 1]
            };
            for (i, p) in points.iter().enumerate() {
                if rounds >= MIN_ROUNDS && secs(started) >= args.seconds {
                    break 'rounds;
                }
                let at = probe.len();
                probe.sample();
                let r = self.replay_point(p, &pre_replay, shadow.as_ref(), &mut spans);
                let print = fingerprint(&r.stats);
                if rounds == 0 {
                    let m = Instant::now();
                    pooled = pooled.merge(r.stats);
                    spans.merge += secs(m);
                    reference.push(print);
                    report.ops(TRIALS as u64, 0, "stepwise replay");
                } else {
                    let bad = print != reference[i];
                    report.ops(
                        TRIALS as u64,
                        if bad { TRIALS as u64 } else { 0 },
                        "replay repeat differs",
                    );
                }
                t_replay.record(i, r.wall, at);
                for (t, (inst, read)) in r.instance_us.iter().zip(&r.read_us).enumerate() {
                    instance_us.record(i * TRIALS + t, *inst, at);
                    read_us.record(i * TRIALS + t, *read, at);
                }
                for threads in order {
                    let pre = if threads == 1 { &pre_1t } else { &pre_nt };
                    let (stats, wall) = self.run_point(p, pre, threads);
                    let bad = fingerprint(&stats) != reference[i];
                    report.ops(
                        TRIALS as u64,
                        if bad { TRIALS as u64 } else { 0 },
                        "run_point statistics differ from the replay",
                    );
                    if threads == 1 {
                        t_1t.record(i, wall, at);
                    }
                    if threads == nproc {
                        t_nt.record(i, wall, at);
                    }
                }
            }
            let (hits, misses) = pre_replay.cache_stats();
            spans.interner = (spans.interner.0 + hits, spans.interner.1 + misses);
            set_up(&mut probe, &mut setups);
            rounds += 1;
        }
        // One more reading closes the last visit's neighbourhood.
        probe.sample();

        let scaled = Some(&probe);
        let sum = |xs: Vec<f64>| xs.iter().sum::<f64>();
        let (instance, read) = (instance_us.medians(scaled), read_us.medians(scaled));
        let mut m = Measured::new();
        let setup = setups.medians(scaled)[0];
        m.insert("setup_s", (setup, setups.0[0].len()));
        m.insert("ops_per_s", (n as f64 / sum(t_nt.medians(scaled)), rounds));
        m.insert(
            "ops_per_s_1t",
            (n as f64 / sum(t_1t.medians(scaled)), rounds),
        );
        m.insert("op_us_p50", (median(&instance), n));
        m.insert("read_us_p50", (median(&read), n));
        m.insert(
            "quality_ratio",
            (
                ratio(pooled.best_mean_inv(), pooled.mean_inv(HeuristicKind::Xy)),
                n,
            ),
        );
        if args.trace {
            // The per-layer figures are raw wall times.
            let (raw_1t, raw_nt) = (sum(t_1t.medians(None)), sum(t_nt.medians(None)));
            self.layers(
                &mut m,
                &spans,
                nproc,
                n as f64 / raw_1t,
                n as f64 / raw_nt,
                rounds,
            );
            let coverage = m["trace.coverage"].0;
            report.ops(
                1,
                u64::from(!COVERAGE_TOLERANCE.contains(&coverage)),
                &format!("trace.coverage {coverage} outside {COVERAGE_TOLERANCE:?}"),
            );
            m.insert(
                "campaign.run_point_ms",
                (raw_nt * 1e3 / points.len() as f64, points.len()),
            );
            m.insert(
                "trace.overhead",
                (sum(t_replay.medians(None)) / raw_1t - 1.0, rounds),
            );
        }
        m
    }

    /// Per-layer metrics from the accumulated replay spans.
    fn layers(
        &self,
        m: &mut Measured,
        s: &Spans,
        nproc: usize,
        tput_1t: f64,
        tput_nt: f64,
        rounds: usize,
    ) {
        let n = s.instances;
        let per = |t: f64, count: usize| ratio(t * 1e6, count as f64);
        let builds: Vec<f64> = (0..SETUP_REPS)
            .map(|_| {
                let t = Instant::now();
                black_box(MeshPrecompute::new(self.mesh));
                secs(t) * 1e3
            })
            .collect();
        m.insert("workload.generate_us", (per(s.generate, n), n));
        m.insert("precompute.build_ms", (median(&builds), builds.len()));
        m.insert("precompute.customize_us", (per(s.customize, n), n));
        let (hits, misses) = s.interner;
        m.insert(
            "precompute.interner_hit_frac",
            (
                ratio(hits as f64, (hits + misses) as f64),
                (hits + misses) as usize,
            ),
        );
        for (k, names) in ROUTE_NAMES.iter().enumerate() {
            m.insert(names[0], (per(s.route[k], n), n));
            m.insert(names[1], (ratio(s.route[k], s.wall), n));
            m.insert(names[2], (ratio(s.feasible[k] as f64, n as f64), n));
        }
        m.insert(
            "power.eval_us",
            (per(s.power, s.power_calls), s.power_calls),
        );
        m.insert("stats.add_us", (per(s.add, n), n));
        m.insert("stats.merge_us", (per(s.merge, s.merges), s.merges));
        m.insert(
            "campaign.parallel_eff",
            (ratio(tput_nt, nproc as f64 * tput_1t), rounds),
        );
        let layered = s.generate + s.route.iter().sum::<f64>() + s.power + s.add + s.merge;
        m.insert("trace.coverage", (ratio(layered, s.wall), rounds));
    }
}
