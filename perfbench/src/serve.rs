//! The `serve_churn` workload: a `pamr serve --stdin --mesh 64x64`
//! subprocess preloaded with 1 000 length-8 communications, then driven by
//! one closed-loop client sending `remove_comm`/`add_comm` pairs along a
//! seeded rotation, with one `power_report` every 16 mutations.
//!
//! Every response is checked byte for byte against an in-process
//! `Server::handle_line` oracle that processes the same line right after
//! the round trip, outside the timed window; every response must also be
//! `"ok":true`. At fixed mutation counts the session's power is compared
//! with a from-scratch batch XYI routing of the same live set.
//!
//! The client and the server share one CPU. The churn is cut into windows
//! of [`WINDOW`] mutations; every window's end-to-end samples are scaled to
//! the reference host speed by the probe readings around it (see
//! [`crate::speed`]). Per-layer figures are raw wall times.

use crate::report::{median, ratio, secs, Report};
use crate::speed::Probe;
use crate::{Args, Measured};
use pamr_mesh::Mesh;
use pamr_power::PowerModel;
use pamr_routing::{
    Comm, EngineConfig, HeuristicKind, MeshPrecompute, RouteScratch, RoutingSession, SessionConfig,
    SlotId,
};
use pamr_sim::serve::Server;
use pamr_workload::length::sample_pair_at;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::hint::black_box;
use std::io::{BufRead, BufReader, Write};
use std::ops::Range;
use std::path::PathBuf;
use std::process::{Child, ChildStdin, ChildStdout, Command, Stdio};
use std::sync::Arc;
use std::time::Instant;

const MESH: (usize, usize) = (64, 64);
/// Resident communications.
const RESIDENT: usize = 1000;
/// Mutations between two `power_report` reads.
const REPORT_EVERY: usize = 16;
/// Server start-ups per run (`setup_s` is their median): one before the
/// churn, the rest spread over it.
const SETUP_REPS: usize = 9;
/// Mutations per timing window: about a tenth of a second of churn. One
/// host-speed probe reading is taken as each window begins.
const WINDOW: usize = 128;
/// Windows a run makes at least, whatever `--seconds` says.
const MIN_WINDOWS: usize = 96;
/// A window's samples are scaled by the median of the probe readings up to
/// this many windows before and after it.
const PROBE_SPAN: usize = 2;
/// The session is compared with batch XYI every this many mutations...
const QUALITY_EVERY: usize = 512;
/// ...this many times; the churn runs at least until the last of them.
const QUALITY_POINTS: usize = 8;

/// One scripted request.
#[derive(Clone, Copy)]
enum Req {
    Add { id: usize, comm: Comm },
    Remove { id: usize },
    Report,
}

impl Req {
    fn line(&self) -> String {
        match self {
            Req::Add { id, comm } => format!(
                "{{\"op\":\"add_comm\",\"id\":\"c{id}\",\"src\":{{\"u\":{},\"v\":{}}},\
                 \"snk\":{{\"u\":{},\"v\":{}}},\"weight\":{}}}",
                comm.src.u, comm.src.v, comm.snk.u, comm.snk.v, comm.weight
            ),
            Req::Remove { id } => format!("{{\"op\":\"remove_comm\",\"id\":\"c{id}\"}}"),
            Req::Report => "{\"op\":\"power_report\"}".to_string(),
        }
    }
}

/// The seeded request stream: the preload, then the endless churn.
struct Script {
    mesh: Mesh,
    rng: SmallRng,
    rotation: Vec<usize>,
    mutations: usize,
    reported: bool,
    pending: Option<Req>,
}

impl Script {
    fn new(mesh: Mesh, seed: u64) -> Script {
        let mut rng = SmallRng::seed_from_u64(seed ^ 0x5E_2BE);
        let mut rotation: Vec<usize> = (0..RESIDENT).collect();
        for i in (1..RESIDENT).rev() {
            rotation.swap(i, rng.gen_range(0..=i));
        }
        Script {
            mesh,
            rng,
            rotation,
            mutations: 0,
            reported: false,
            pending: None,
        }
    }

    /// A length-8 (±1) communication, U\[100, 800\] Mb/s.
    fn comm(&mut self) -> Comm {
        let len = self.rng.gen_range(7..=9usize);
        let (src, snk) = sample_pair_at(&self.mesh, len, &mut self.rng);
        let weight = (self.rng.gen_range(1000..=8000u32) as f64) / 10.0;
        Comm::new(src, snk, weight)
    }

    fn preload(&mut self) -> Vec<Req> {
        (0..RESIDENT)
            .map(|id| Req::Add {
                id,
                comm: self.comm(),
            })
            .collect()
    }

    fn next_req(&mut self) -> Req {
        if let Some(req) = self.pending.take() {
            return req;
        }
        if self.mutations > 0 && self.mutations.is_multiple_of(REPORT_EVERY) && !self.reported {
            self.reported = true;
            return Req::Report;
        }
        self.reported = false;
        let id = self.rotation[(self.mutations / 2) % RESIDENT];
        let comm = self.comm();
        self.pending = Some(Req::Add { id, comm });
        self.mutations += 2;
        Req::Remove { id }
    }
}

/// Pins this thread, and every process it spawns from then on, to the last
/// CPU it may run on.
///
/// The client and the server then hand the CPU to each other at every
/// round trip. Unpinned, each waits for the other on a CPU that went idle,
/// and on a virtual machine waking an idle CPU can take milliseconds: the
/// 99th percentile then measures the hypervisor, not the program.
#[cfg(target_os = "linux")]
fn pin_to_one_cpu() -> bool {
    // A `cpu_set_t`: 1024 bits.
    type CpuSet = [u64; 16];
    extern "C" {
        fn sched_getaffinity(pid: i32, size: usize, mask: *mut CpuSet) -> i32;
        fn sched_setaffinity(pid: i32, size: usize, mask: *const CpuSet) -> i32;
    }
    let size = std::mem::size_of::<CpuSet>();
    let mut allowed: CpuSet = [0; 16];
    // SAFETY: `allowed` is a writable `cpu_set_t` of `size` bytes, and pid
    // 0 names the calling thread.
    if unsafe { sched_getaffinity(0, size, &mut allowed) } != 0 {
        return false;
    }
    let Some(word) = allowed.iter().rposition(|&w| w != 0) else {
        return false;
    };
    let mut one: CpuSet = [0; 16];
    one[word] = 1 << (63 - allowed[word].leading_zeros());
    // SAFETY: as above; `one` is a readable `cpu_set_t` of `size` bytes.
    unsafe { sched_setaffinity(0, size, &one) == 0 }
}

#[cfg(not(target_os = "linux"))]
fn pin_to_one_cpu() -> bool {
    false
}

/// A running `pamr serve --stdin` child; killed and reaped on drop.
struct ServeProc {
    child: Child,
    stdin: Option<ChildStdin>,
    stdout: BufReader<ChildStdout>,
    line: String,
}

impl ServeProc {
    fn spawn(bin: &PathBuf) -> std::io::Result<ServeProc> {
        let mut child = Command::new(bin)
            .args([
                "serve",
                "--stdin",
                "--mesh",
                &format!("{}x{}", MESH.0, MESH.1),
            ])
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()?;
        let stdin = child.stdin.take();
        let stdout = BufReader::new(child.stdout.take().expect("stdout was piped"));
        Ok(ServeProc {
            child,
            stdin,
            stdout,
            line: String::new(),
        })
    }

    /// One closed-loop round trip: the response line without its newline.
    fn request(&mut self, line: &str) -> std::io::Result<&str> {
        let stdin = self.stdin.as_mut().expect("stdin open until drop");
        stdin.write_all(line.as_bytes())?;
        stdin.write_all(b"\n")?;
        stdin.flush()?;
        self.line.clear();
        if self.stdout.read_line(&mut self.line)? == 0 {
            return Err(std::io::Error::new(
                std::io::ErrorKind::UnexpectedEof,
                "pamr serve closed its output",
            ));
        }
        Ok(self.line.trim_end_matches('\n'))
    }
}

impl Drop for ServeProc {
    fn drop(&mut self) {
        // Closing stdin ends the serve loop; kill covers a wedged child.
        drop(self.stdin.take());
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// The workload definition.
pub struct Churn {
    seed: u64,
    bin: PathBuf,
    mesh: Mesh,
    model: PowerModel,
}

/// Round-trip and handler samples (seconds) of the churn phase.
#[derive(Default)]
struct Samples {
    mutation_rtt: Vec<f64>,
    mutation_handler: Vec<f64>,
    report_rtt: Vec<f64>,
    report_handler: Vec<f64>,
    quality: Vec<f64>,
}

/// One timing window of the churn: its samples and the host-speed probe
/// reading taken as it began.
struct Window {
    mutations: Range<usize>,
    reports: Range<usize>,
    probe_at: usize,
}

impl Samples {
    /// The samples of every window, each scaled to the reference host
    /// speed by the probe readings around its window: mutation round trips,
    /// report round trips, and their handler times.
    fn scaled(&self, windows: &[Window], probe: &Probe) -> [Vec<f64>; 4] {
        let mut out: [Vec<f64>; 4] = Default::default();
        for w in windows {
            let k = w.probe_at;
            let f = probe.scale(k.saturating_sub(PROBE_SPAN), k + PROBE_SPAN + 1);
            let scale = |xs: &[f64]| xs.iter().map(|x| x * f).collect::<Vec<f64>>();
            out[0].extend(scale(&self.mutation_rtt[w.mutations.clone()]));
            out[1].extend(scale(&self.report_rtt[w.reports.clone()]));
            out[2].extend(scale(&self.mutation_handler[w.mutations.clone()]));
            out[3].extend(scale(&self.report_handler[w.reports.clone()]));
        }
        out
    }
}

impl Churn {
    pub fn new(seed: u64, bin: PathBuf) -> Churn {
        Churn {
            seed,
            bin,
            mesh: Mesh::new(MESH.0, MESH.1),
            model: PowerModel::kim_horowitz(),
        }
    }

    fn oracle(&self) -> Server {
        Server::new(self.mesh, self.model.clone(), SessionConfig::default())
    }

    /// Starts a server and loads the resident set; returns the process and
    /// the time from spawn to the last preload response.
    fn start(
        &self,
        preload: &[String],
        expected: &[String],
        report: &mut Report,
    ) -> (ServeProc, f64) {
        let t = Instant::now();
        let mut proc = ServeProc::spawn(&self.bin)
            .unwrap_or_else(|e| panic!("cannot start {}: {e}", self.bin.display()));
        let mut failed = 0;
        for (line, want) in preload.iter().zip(expected) {
            let got = proc
                .request(line)
                .expect("pamr serve answers every request");
            failed += u64::from(got != want || !got.starts_with("{\"ok\":true"));
        }
        let setup = secs(t);
        report.ops(
            preload.len() as u64,
            failed,
            "preload responses differ from the oracle",
        );
        (proc, setup)
    }

    /// Session power over batch XYI power on the oracle's live set.
    fn batch_ratio(&self, oracle: &Server, scratch: &mut RouteScratch) -> Option<f64> {
        let session = oracle.session().power().ok()?.total();
        let cs = oracle.session().live_comm_set();
        let routing = HeuristicKind::Xyi.route_with(&cs, &self.model, scratch);
        let batch = routing.power(&cs, &self.model).ok()?.total();
        Some(batch / session)
    }

    pub fn run(&self, args: &Args, report: &mut Report) -> Measured {
        if !pin_to_one_cpu() {
            eprintln!(
                "perfbench: could not pin serve_churn to one CPU; round trips will be noisier"
            );
        }
        let mut m = Measured::new();
        let mut script = Script::new(self.mesh, self.seed);
        let preload_reqs = script.preload();
        let preload: Vec<String> = preload_reqs.iter().map(Req::line).collect();
        let mut oracle = self.oracle();
        let expected: Vec<String> = preload.iter().map(|l| oracle.handle_line(l)).collect();

        let mut probe = Probe::default();
        let mut setups = Vec::new();
        let start = |probe: &mut Probe, setups: &mut Vec<f64>, report: &mut Report| {
            let at = probe.len();
            probe.sample();
            let (proc, setup) = self.start(&preload, &expected, report);
            probe.sample();
            setups.push(setup * probe.scale(at, at + 2));
            proc
        };
        let mut proc = start(&mut probe, &mut setups, report);

        let mut batch_scratch = RouteScratch::with_engine(EngineConfig::LIVE);
        batch_scratch.attach_precompute(Arc::new(MeshPrecompute::new(self.mesh)));
        let mut s = Samples::default();
        let mut windows: Vec<Window> = Vec::new();
        let mut window_from = (0, 0, probe.len());
        probe.sample();
        let mut sent = Vec::new();
        let (mut attempted, mut failed) = (0u64, 0u64);
        let started = Instant::now();
        loop {
            let req = script.next_req();
            let line = req.line();
            let t = Instant::now();
            let got = proc
                .request(&line)
                .expect("pamr serve answers every request");
            let rtt = secs(t);
            let h = Instant::now();
            let want = oracle.handle_line(&line);
            let handler = secs(h);
            attempted += 1;
            failed += u64::from(got != want || !got.starts_with("{\"ok\":true"));
            sent.push(req);
            if let Req::Report = req {
                s.report_rtt.push(rtt);
                s.report_handler.push(handler);
                continue;
            }
            s.mutation_rtt.push(rtt);
            s.mutation_handler.push(handler);
            let done = s.mutation_rtt.len();
            if done.is_multiple_of(QUALITY_EVERY) && s.quality.len() < QUALITY_POINTS {
                match self.batch_ratio(&oracle, &mut batch_scratch) {
                    Some(q) => s.quality.push(q),
                    None => {
                        failed += 1;
                        s.quality.push(0.0);
                    }
                }
            }
            if done - window_from.0 < WINDOW {
                continue;
            }
            windows.push(Window {
                mutations: window_from.0..done,
                reports: window_from.1..s.report_rtt.len(),
                probe_at: window_from.2,
            });
            // A throwaway start-up every few seconds spreads the set-up
            // samples over the run.
            let progress = secs(started) / args.seconds;
            if setups.len() < SETUP_REPS && progress * (SETUP_REPS as f64) >= setups.len() as f64 {
                drop(start(&mut probe, &mut setups, report));
            }
            if progress >= 1.0
                && s.quality.len() >= QUALITY_POINTS
                && windows.len() >= MIN_WINDOWS
                && setups.len() >= SETUP_REPS
            {
                break;
            }
            window_from = (done, s.report_rtt.len(), probe.len());
            probe.sample();
        }
        drop(proc);
        report.ops(attempted, failed, "churn responses differ from the oracle");
        // Readings after the last window close its neighbourhood.
        for _ in 0..PROBE_SPAN {
            probe.sample();
        }

        let [mutation_rtt, report_rtt, mutation_handler, report_handler] =
            s.scaled(&windows, &probe);
        let us = |xs: &[f64]| xs.iter().map(|x| x * 1e6).collect::<Vec<f64>>();
        let (mutation_us, report_us) = (us(&mutation_rtt), us(&report_rtt));
        let requests = (mutation_rtt.len() + report_rtt.len()) as f64;
        let rtt: f64 = mutation_rtt.iter().chain(&report_rtt).sum();
        let handler: f64 = mutation_handler.iter().chain(&report_handler).sum();
        m.insert("setup_s", (median(&setups), setups.len()));
        m.insert("ops_per_s", (requests / rtt, requests as usize));
        m.insert("ops_per_s_1t", (requests / handler, requests as usize));
        m.insert("op_us_p50", (median(&mutation_us), mutation_us.len()));
        m.insert("read_us_p50", (median(&report_us), report_us.len()));
        m.insert("quality_ratio", (median(&s.quality), s.quality.len()));

        if args.trace {
            self.layers(&mut m, report, &oracle, &s, &preload_reqs, &sent);
        }
        m
    }

    /// Per-layer metrics: the serve handler from the lockstep oracle, the
    /// session from an in-process `RoutingSession` replay of the script.
    fn layers(
        &self,
        m: &mut Measured,
        report: &mut Report,
        oracle: &Server,
        s: &Samples,
        preload: &[Req],
        sent: &[Req],
    ) {
        let mean_us = |xs: &[f64]| ratio(xs.iter().sum::<f64>() * 1e6, xs.len() as f64);
        let builds: Vec<f64> = (0..5)
            .map(|_| {
                let t = Instant::now();
                black_box(MeshPrecompute::new(self.mesh));
                secs(t) * 1e3
            })
            .collect();
        m.insert("precompute.build_ms", (median(&builds), builds.len()));
        let (hits, misses) = oracle.session().precompute().cache_stats();
        m.insert(
            "precompute.interner_hit_frac",
            (
                ratio(hits as f64, (hits + misses) as f64),
                (hits + misses) as usize,
            ),
        );

        let mut session =
            RoutingSession::new(self.mesh, self.model.clone(), SessionConfig::default());
        let mut slots: Vec<Option<SlotId>> = vec![None; RESIDENT];
        let apply =
            |session: &mut RoutingSession, slots: &mut Vec<Option<SlotId>>, req: &Req| match *req {
                Req::Add { id, comm } => slots[id] = Some(session.add_comm(comm)),
                Req::Remove { id } => {
                    let slot = slots[id].take().expect("the script removes live ids");
                    black_box(session.remove_comm(slot));
                }
                Req::Report => {}
            };
        for req in preload {
            apply(&mut session, &mut slots, req);
        }
        let before = session.stats();
        let (mut add, mut remove, mut power) = (Vec::new(), Vec::new(), Vec::new());
        for req in sent {
            let t = Instant::now();
            apply(&mut session, &mut slots, req);
            let d = secs(t);
            match req {
                Req::Add { .. } => add.push(d),
                Req::Remove { .. } => remove.push(d),
                Req::Report => {}
            }
            // The server evaluates the session's power after every
            // mutation and for every report.
            let t = Instant::now();
            black_box(session.power().is_ok());
            power.push(secs(t));
        }
        let after = session.stats();
        let (ours, theirs) = (session.power(), oracle.session().power());
        let same = match (&ours, &theirs) {
            (Ok(a), Ok(b)) => a.total().to_bits() == b.total().to_bits(),
            _ => false,
        };
        report.ops(
            1,
            u64::from(!same),
            "session replay ends in another state than the server",
        );
        let mutations = (add.len() + remove.len()) as f64;
        m.insert("session.add_us", (mean_us(&add), add.len()));
        m.insert("session.remove_us", (mean_us(&remove), remove.len()));
        m.insert("session.power_us", (mean_us(&power), power.len()));
        m.insert(
            "session.repair_moves_per_mutation",
            (
                ratio((after.repair_moves - before.repair_moves) as f64, mutations),
                mutations as usize,
            ),
        );
        m.insert(
            "session.escalation_frac",
            (
                ratio((after.escalations - before.escalations) as f64, mutations),
                mutations as usize,
            ),
        );

        let handler = mean_us(&s.mutation_handler);
        m.insert("serve.handle_line_us", (handler, s.mutation_handler.len()));
        m.insert(
            "serve.report_us",
            (mean_us(&s.report_handler), s.report_handler.len()),
        );
        m.insert(
            "serve.wire_us",
            (mean_us(&s.mutation_rtt) - handler, s.mutation_rtt.len()),
        );
        let session_time: f64 = add.iter().chain(&remove).sum::<f64>() + power.iter().sum::<f64>();
        let handler_time: f64 = s
            .mutation_handler
            .iter()
            .chain(&s.report_handler)
            .sum::<f64>();
        m.insert(
            "trace.coverage",
            (ratio(session_time, handler_time), sent.len()),
        );
    }
}
