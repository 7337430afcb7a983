//! The `pamr serve` wire protocol: newline-delimited JSON requests over
//! stdin/stdout (or a TCP socket) against a resident
//! [`RoutingSession`].
//!
//! One request per line, one response per line, in order. Requests are
//! JSON objects dispatched on their `"op"` field:
//!
//! | op             | request fields                          |
//! |----------------|-----------------------------------------|
//! | `add_comm`     | `id`, `src {u,v}`, `snk {u,v}`, `weight`|
//! | `remove_comm`  | `id`                                    |
//! | `reroute`      | —                                       |
//! | `power_report` | —                                       |
//! | `snapshot`     | —                                       |
//!
//! An `add_comm` weight must be positive and below 1e250, which keeps every
//! link load and the total load finite. An `add_comm` that could make the
//! power report overflow is refused too, before the session changes: the
//! check bounds every link load by the sum of the live weights, and the
//! number of loaded links by the sum of the live path lengths. Only a model
//! without a top bandwidth (`--model theory`) can reach it; under the
//! others a link's power is capped. The three mutations answer the
//! session's `n_comms`, `max_load` and `feasible`; `power_report` adds the
//! power breakdown and `total_load`. `feasible` is true iff every link load
//! fits the power model's top frequency level, give or take its
//! `CAPACITY_EPS` slack: exactly when the model can price the routing, so
//! an infeasible `power_report` carries `null` power fields. It is read off
//! the largest link load, and costs no sweep of the links.
//!
//! Every response carries `"ok"` and echoes `"op"`; failures are
//! **structured errors** (`{"ok":false,"op":…,"error":"…"}`), never a
//! process death — malformed JSON, unknown ops, duplicate or unknown ids,
//! off-mesh endpoints and invalid weights all come back as error lines
//! while the session keeps serving. The exact bytes of the protocol are
//! pinned by `crates/sim/tests/fixtures/session_golden.jsonl`
//! (`PAMR_BLESS=1` regenerates) and the shrinking scripts of
//! `crates/sim/tests/session_prop.rs`.

use pamr_mesh::Coord;
use pamr_power::{FrequencyScale, PowerModel};
use pamr_routing::{Comm, MeshPrecompute, RoutingSession, SessionConfig, SlotId};
use serde::Value;
use std::collections::BTreeMap;
use std::io::{BufRead, Write};
use std::sync::Arc;

/// Exclusive upper bound on an `add_comm` weight. A session holds at most
/// 2³² communications (its slot ids are `u32`), each crossing fewer than
/// 2⁶⁰ link slots (more would not fit one `f64` load per slot in memory),
/// so no link load reaches 2³² · 1e250 and the total load stays below
/// 2⁹² · 1e250 ≈ 5e277: finite, with room to spare for rounding.
const MAX_WEIGHT: f64 = 1e250;

/// A protocol server: a [`RoutingSession`] plus the wire-level id space
/// (client-chosen string ids mapped to session slots).
#[derive(Debug)]
pub struct Server {
    session: RoutingSession,
    /// Live wire ids → session handles.
    ids: BTreeMap<String, SlotId>,
    /// Slot-indexed wire ids of the live communications (for snapshots).
    names: Vec<Option<String>>,
    /// Running sum of the live weights, over the communications that cross
    /// at least one link: a bound on every link load.
    live_weight: f64,
    /// Sum of the live communications' path lengths in hops: a bound on the
    /// number of loaded links.
    live_hops: usize,
}

impl Server {
    /// A server over an empty session, sharing one [`MeshPrecompute`]
    /// across every request it will serve: the band an `add_comm` builds
    /// is a cache hit for all later requests on the same `(src, snk)`
    /// pair.
    pub fn new(mesh: pamr_mesh::Mesh, model: PowerModel, config: SessionConfig) -> Self {
        let pre = Arc::new(MeshPrecompute::new(mesh));
        Server {
            session: RoutingSession::with_precompute(pre, model, config),
            ids: BTreeMap::new(),
            names: Vec::new(),
            live_weight: 0.0,
            live_hops: 0,
        }
    }

    /// The underlying session (tests inspect its resident indices).
    pub fn session(&self) -> &RoutingSession {
        &self.session
    }

    /// Handles one request line and returns the response line (no trailing
    /// newline). Never panics on untrusted input: every failure is a
    /// structured `{"ok":false,…}` response.
    pub fn handle_line(&mut self, line: &str) -> String {
        let (op, result) = match serde_json::from_str::<Value>(line) {
            Err(e) => (None, Err(format!("invalid JSON: {e}"))),
            Ok(req) => {
                let op = req.get("op").and_then(|v| match v {
                    Value::Str(s) => Some(s.clone()),
                    _ => None,
                });
                let result = match op.as_deref() {
                    None => Err("missing string field `op`".to_string()),
                    Some("add_comm") => self.op_add_comm(&req),
                    Some("remove_comm") => self.op_remove_comm(&req),
                    Some("reroute") => Ok(self.op_reroute()),
                    Some("power_report") => Ok(self.op_power_report()),
                    Some("snapshot") => Ok(self.op_snapshot()),
                    Some(other) => Err(format!(
                        "unknown op {other:?} (add_comm | remove_comm | reroute | \
                         power_report | snapshot)"
                    )),
                };
                (op, result)
            }
        };
        let value = match result {
            Ok(v) => v,
            Err(error) => obj(vec![
                ("ok", Value::Bool(false)),
                ("op", op.map_or(Value::Null, Value::Str)),
                ("error", Value::Str(error)),
            ]),
        };
        serde_json::to_string(&value).expect("responses are plain JSON values")
    }

    fn op_add_comm(&mut self, req: &Value) -> Result<Value, String> {
        let id = str_field(req, "id")?;
        if self.ids.contains_key(&id) {
            return Err(format!("duplicate id {id:?}"));
        }
        let src = coord_field(req, "src")?;
        let snk = coord_field(req, "snk")?;
        let weight = f64_field(req, "weight")?;
        if !(weight > 0.0 && weight.is_finite()) {
            return Err(format!(
                "weight must be strictly positive and finite, got {weight}"
            ));
        }
        if weight >= MAX_WEIGHT {
            return Err(format!(
                "weight must be below {MAX_WEIGHT:e}, got {weight:e}"
            ));
        }
        let mesh = *self.session.mesh();
        for (name, c) in [("src", src), ("snk", snk)] {
            if !mesh.contains(c) {
                return Err(format!(
                    "{name} ({},{}) is outside the {}x{} mesh",
                    c.u,
                    c.v,
                    mesh.rows(),
                    mesh.cols()
                ));
            }
        }
        let hops = src.manhattan(snk);
        if hops > 0 {
            // The true sum is at least `weight`, whatever the running sum's
            // rounding left behind.
            let weight_sum = (self.live_weight + weight).max(weight);
            let links = (self.live_hops + hops).min(mesh.num_link_slots());
            if !power_fold_bound(self.session.model(), weight_sum, links).is_finite() {
                return Err(format!(
                    "weight {weight:e} could overflow the power report: the live \
                     weights would sum to {weight_sum:e}"
                ));
            }
            self.live_weight = weight_sum;
            self.live_hops += hops;
        }
        let slot = self.session.add_comm(Comm::new(src, snk, weight));
        if self.names.len() <= slot.index() {
            self.names.resize(slot.index() + 1, None);
        }
        self.names[slot.index()] = Some(id.clone());
        self.ids.insert(id.clone(), slot);
        let path_len = self.session.path(slot).expect("slot is live").len();
        Ok(obj(vec![
            ("ok", Value::Bool(true)),
            ("op", s("add_comm")),
            ("id", Value::Str(id)),
            ("path_len", u(path_len)),
            ("n_comms", u(self.session.len())),
            ("max_load", Value::Float(self.session.max_load())),
            ("feasible", Value::Bool(self.session.is_feasible())),
        ]))
    }

    fn op_remove_comm(&mut self, req: &Value) -> Result<Value, String> {
        let id = str_field(req, "id")?;
        let slot = self
            .ids
            .remove(&id)
            .ok_or_else(|| format!("unknown id {id:?}"))?;
        self.names[slot.index()] = None;
        let comm = self
            .session
            .remove_comm(slot)
            .expect("the id map only holds live slots");
        let hops = comm.src.manhattan(comm.snk);
        if hops > 0 {
            self.live_weight -= comm.weight;
            self.live_hops -= hops;
        }
        Ok(obj(vec![
            ("ok", Value::Bool(true)),
            ("op", s("remove_comm")),
            ("id", Value::Str(id)),
            ("n_comms", u(self.session.len())),
            ("max_load", Value::Float(self.session.max_load())),
            ("feasible", Value::Bool(self.session.is_feasible())),
        ]))
    }

    fn op_reroute(&mut self) -> Value {
        self.session.reroute();
        obj(vec![
            ("ok", Value::Bool(true)),
            ("op", s("reroute")),
            ("n_comms", u(self.session.len())),
            ("max_load", Value::Float(self.session.max_load())),
            ("feasible", Value::Bool(self.session.is_feasible())),
        ])
    }

    fn op_power_report(&self) -> Value {
        let power = self.session.power();
        let (total, leakage, dynamic, active) = match &power {
            Ok(b) => (
                Value::Float(b.total()),
                Value::Float(b.leakage),
                Value::Float(b.dynamic),
                u(b.active_links),
            ),
            Err(_) => (Value::Null, Value::Null, Value::Null, Value::Null),
        };
        obj(vec![
            ("ok", Value::Bool(true)),
            ("op", s("power_report")),
            ("n_comms", u(self.session.len())),
            ("feasible", Value::Bool(power.is_ok())),
            ("total_mw", total),
            ("leakage_mw", leakage),
            ("dynamic_mw", dynamic),
            ("active_links", active),
            ("max_load", Value::Float(self.session.max_load())),
            ("total_load", Value::Float(self.session.total_load())),
        ])
    }

    fn op_snapshot(&self) -> Value {
        let mesh = self.session.mesh();
        let comms: Vec<Value> = self
            .session
            .live()
            .map(|(slot, c, p)| {
                let id = self.names[slot.index()]
                    .clone()
                    .expect("live slots carry a wire id");
                obj(vec![
                    ("id", Value::Str(id)),
                    ("src", coord_value(c.src)),
                    ("snk", coord_value(c.snk)),
                    ("weight", Value::Float(c.weight)),
                    ("path", Value::Str(p.to_string())),
                ])
            })
            .collect();
        obj(vec![
            ("ok", Value::Bool(true)),
            ("op", s("snapshot")),
            (
                "mesh",
                obj(vec![("rows", u(mesh.rows())), ("cols", u(mesh.cols()))]),
            ),
            ("n_comms", u(self.session.len())),
            ("comms", Value::Array(comms)),
        ])
    }
}

/// Serves requests line by line from `input` to `out`, one response per
/// request, flushing after each (a piped client sees its answer
/// immediately). Blank lines are ignored.
pub fn serve_lines<R: BufRead, W: Write>(
    server: &mut Server,
    input: R,
    mut out: W,
) -> std::io::Result<()> {
    for line in input.lines() {
        let line = line?;
        if line.trim().is_empty() {
            continue;
        }
        writeln!(out, "{}", server.handle_line(&line))?;
        out.flush()?;
    }
    Ok(())
}

/// Binds `addr` and serves clients sequentially, the session persisting
/// across connections. A client I/O error drops that client and keeps the
/// listener alive; runs until the process is killed.
pub fn serve_tcp(server: &mut Server, addr: &str) -> std::io::Result<()> {
    let listener = std::net::TcpListener::bind(addr)?;
    eprintln!(
        "pamr serve: listening on {}",
        listener
            .local_addr()
            .map_or(addr.to_string(), |a| a.to_string())
    );
    for stream in listener.incoming() {
        let result = stream.and_then(|stream| {
            let reader = std::io::BufReader::new(stream.try_clone()?);
            serve_lines(server, reader, stream)
        });
        if let Err(e) = result {
            eprintln!("pamr serve: client error: {e}");
        }
    }
    Ok(())
}

/// An upper bound, twice over, on the power report of any feasible state
/// whose link loads are all at most `max_load` and of which at most
/// `links` links are loaded. A link's power never falls as its load grows,
/// so each loaded link draws at most the power at `max_load`, or at the
/// top bandwidth when `max_load` is infeasible. The factor of two absorbs
/// the rounding of the running weight sum. Non-finite when the report
/// could overflow.
fn power_fold_bound(model: &PowerModel, max_load: f64, links: usize) -> f64 {
    let top = match &model.scale {
        FrequencyScale::Continuous => model.capacity,
        FrequencyScale::Discrete(levels) => levels.last().copied().unwrap_or(0.0),
    };
    let bandwidth = model.effective_bandwidth(max_load).unwrap_or(top);
    let link = model.p_leak + model.p0 * (bandwidth * model.load_unit).powf(model.alpha);
    2.0 * links as f64 * link
}

// ---------------------------------------------------------------------------
// Wire-value helpers
// ---------------------------------------------------------------------------

fn obj(entries: Vec<(&str, Value)>) -> Value {
    Value::Object(
        entries
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

fn s(text: &str) -> Value {
    Value::Str(text.to_string())
}

fn u(n: usize) -> Value {
    Value::UInt(n as u64)
}

fn coord_value(c: Coord) -> Value {
    obj(vec![("u", u(c.u)), ("v", u(c.v))])
}

fn field<'a>(req: &'a Value, key: &str) -> Result<&'a Value, String> {
    req.get(key).ok_or_else(|| format!("missing field `{key}`"))
}

fn str_field(req: &Value, key: &str) -> Result<String, String> {
    match field(req, key)? {
        Value::Str(text) => Ok(text.clone()),
        other => Err(format!(
            "field `{key}` must be a string, got {}",
            other.kind()
        )),
    }
}

fn f64_field(req: &Value, key: &str) -> Result<f64, String> {
    match field(req, key)? {
        Value::Float(x) => Ok(*x),
        Value::Int(n) => Ok(*n as f64),
        Value::UInt(n) => Ok(*n as f64),
        other => Err(format!(
            "field `{key}` must be a number, got {}",
            other.kind()
        )),
    }
}

fn usize_field(req: &Value, key: &str) -> Result<usize, String> {
    match field(req, key)? {
        Value::UInt(n) => usize::try_from(*n).map_err(|_| format!("field `{key}` out of range")),
        Value::Int(n) if *n >= 0 => {
            usize::try_from(*n).map_err(|_| format!("field `{key}` out of range"))
        }
        other => Err(format!(
            "field `{key}` must be a non-negative integer, got {}",
            other.kind()
        )),
    }
}

fn coord_field(req: &Value, key: &str) -> Result<Coord, String> {
    let v = field(req, key)?;
    if v.as_object().is_none() {
        return Err(format!(
            "field `{key}` must be a {{\"u\":…,\"v\":…}} object, got {}",
            v.kind()
        ));
    }
    Ok(Coord::new(usize_field(v, "u")?, usize_field(v, "v")?))
}

#[cfg(test)]
mod tests {
    use super::*;
    use pamr_mesh::Mesh;

    fn server() -> Server {
        Server::new(
            Mesh::new(4, 4),
            PowerModel::kim_horowitz(),
            SessionConfig::default(),
        )
    }

    #[test]
    fn add_report_remove_round_trip() {
        let mut srv = server();
        let add = srv.handle_line(
            r#"{"op":"add_comm","id":"a","src":{"u":0,"v":0},"snk":{"u":2,"v":3},"weight":100}"#,
        );
        assert!(
            add.starts_with(r#"{"ok":true,"op":"add_comm","id":"a","path_len":5"#),
            "{add}"
        );
        let report = srv.handle_line(r#"{"op":"power_report"}"#);
        assert!(report.contains(r#""feasible":true"#), "{report}");
        assert!(report.contains(r#""n_comms":1"#), "{report}");
        let remove = srv.handle_line(r#"{"op":"remove_comm","id":"a"}"#);
        assert!(remove.contains(r#""ok":true"#), "{remove}");
        assert!(remove.contains(r#""n_comms":0"#), "{remove}");
    }

    #[test]
    fn corner_to_corner_on_70x70_is_answered() {
        // C(138, 69) Manhattan paths do not fit a u128, so nothing on the
        // add path may count them.
        let mut srv = Server::new(
            Mesh::new(70, 70),
            PowerModel::kim_horowitz(),
            SessionConfig::default(),
        );
        let add = srv.handle_line(
            r#"{"op":"add_comm","id":"a","src":{"u":0,"v":0},"snk":{"u":69,"v":69},"weight":100}"#,
        );
        assert!(
            add.starts_with(r#"{"ok":true,"op":"add_comm","id":"a","path_len":138"#),
            "{add}"
        );
    }

    #[test]
    fn errors_are_structured_not_fatal() {
        let mut srv = server();
        for (line, expect) in [
            ("{not json", "invalid JSON"),
            (r#"{"id":"a"}"#, "missing string field `op`"),
            (r#"{"op":"warp"}"#, "unknown op"),
            (r#"{"op":"add_comm","id":"a"}"#, "missing field `src`"),
            (
                r#"{"op":"add_comm","id":"a","src":{"u":0,"v":0},"snk":{"u":9,"v":0},"weight":1}"#,
                "outside the 4x4 mesh",
            ),
            (
                r#"{"op":"add_comm","id":"a","src":{"u":0,"v":0},"snk":{"u":1,"v":0},"weight":-3}"#,
                "strictly positive",
            ),
            (r#"{"op":"remove_comm","id":"ghost"}"#, "unknown id"),
        ] {
            let resp = srv.handle_line(line);
            assert!(resp.starts_with(r#"{"ok":false"#), "{line} -> {resp}");
            assert!(resp.contains(expect), "{line} -> {resp}");
        }
        // The session survived every error and still serves.
        let ok = srv.handle_line(
            r#"{"op":"add_comm","id":"a","src":{"u":0,"v":0},"snk":{"u":1,"v":1},"weight":5.5}"#,
        );
        assert!(ok.starts_with(r#"{"ok":true"#), "{ok}");
        let dup = srv.handle_line(
            r#"{"op":"add_comm","id":"a","src":{"u":0,"v":0},"snk":{"u":1,"v":1},"weight":5.5}"#,
        );
        assert!(dup.contains("duplicate id"), "{dup}");
    }

    #[test]
    fn snapshot_lists_live_comms_with_paths() {
        let mut srv = server();
        srv.handle_line(
            r#"{"op":"add_comm","id":"x","src":{"u":0,"v":0},"snk":{"u":1,"v":1},"weight":10}"#,
        );
        srv.handle_line(
            r#"{"op":"add_comm","id":"y","src":{"u":3,"v":3},"snk":{"u":3,"v":3},"weight":1}"#,
        );
        let snap = srv.handle_line(r#"{"op":"snapshot"}"#);
        assert!(snap.contains(r#""mesh":{"rows":4,"cols":4}"#), "{snap}");
        assert!(
            snap.contains(r#""id":"x""#) && snap.contains(r#""id":"y""#),
            "{snap}"
        );
        assert!(snap.contains(r#""n_comms":2"#), "{snap}");
    }

    #[test]
    fn infeasible_states_answer_feasible_false_and_null_power() {
        // A load is feasible iff it passes the top Kim–Horowitz level's
        // slack test in `FrequencyScale::effective_bandwidth`: at most
        // `limit`. "edge" sits on it, "over" one ulp above it. The expected
        // lines were recorded when `feasible` still came from a full power
        // sweep, so they pin the O(1) answer to the sweep's.
        let limit: f64 = 3500.0 + 3500.0 * pamr_power::model::CAPACITY_EPS;
        assert_eq!(limit, 3500.0035);
        assert_eq!(f64::from_bits(limit.to_bits() + 1), 3500.0035000000003);
        let add = |id: &str, weight: &str| {
            format!(
                r#"{{"op":"add_comm","id":"{id}","src":{{"u":0,"v":0}},"snk":{{"u":0,"v":1}},"weight":{weight}}}"#
            )
        };
        let report = r#"{"op":"power_report"}"#;
        let mut srv = server();
        for (request, response) in [
            (
                add("big", "4000"),
                r#"{"ok":true,"op":"add_comm","id":"big","path_len":1,"n_comms":1,"max_load":4000.0,"feasible":false}"#,
            ),
            (
                r#"{"op":"reroute"}"#.to_string(),
                r#"{"ok":true,"op":"reroute","n_comms":1,"max_load":4000.0,"feasible":false}"#,
            ),
            (
                report.to_string(),
                r#"{"ok":true,"op":"power_report","n_comms":1,"feasible":false,"total_mw":null,"leakage_mw":null,"dynamic_mw":null,"active_links":null,"max_load":4000.0,"total_load":4000.0}"#,
            ),
            (
                r#"{"op":"remove_comm","id":"big"}"#.to_string(),
                r#"{"ok":true,"op":"remove_comm","id":"big","n_comms":0,"max_load":0.0,"feasible":true}"#,
            ),
            (
                add("edge", "3500.0035"),
                r#"{"ok":true,"op":"add_comm","id":"edge","path_len":1,"n_comms":1,"max_load":3500.0035,"feasible":true}"#,
            ),
            (
                report.to_string(),
                r#"{"ok":true,"op":"power_report","n_comms":1,"feasible":true,"total_mw":234.77028220315958,"leakage_mw":16.9,"dynamic_mw":217.87028220315958,"active_links":1,"max_load":3500.0035,"total_load":3500.0035}"#,
            ),
            (
                r#"{"op":"remove_comm","id":"edge"}"#.to_string(),
                r#"{"ok":true,"op":"remove_comm","id":"edge","n_comms":0,"max_load":0.0,"feasible":true}"#,
            ),
            (
                add("over", "3500.0035000000003"),
                r#"{"ok":true,"op":"add_comm","id":"over","path_len":1,"n_comms":1,"max_load":3500.0035000000003,"feasible":false}"#,
            ),
            (
                report.to_string(),
                r#"{"ok":true,"op":"power_report","n_comms":1,"feasible":false,"total_mw":null,"leakage_mw":null,"dynamic_mw":null,"active_links":null,"max_load":3500.0035000000003,"total_load":3500.0035000000003}"#,
            ),
            (
                add("tiny", "1"),
                r#"{"ok":true,"op":"add_comm","id":"tiny","path_len":1,"n_comms":2,"max_load":3501.0035000000003,"feasible":false}"#,
            ),
            (
                r#"{"op":"remove_comm","id":"tiny"}"#.to_string(),
                r#"{"ok":true,"op":"remove_comm","id":"tiny","n_comms":1,"max_load":3500.0035000000003,"feasible":false}"#,
            ),
            (
                r#"{"op":"remove_comm","id":"over"}"#.to_string(),
                r#"{"ok":true,"op":"remove_comm","id":"over","n_comms":0,"max_load":0.0,"feasible":true}"#,
            ),
        ] {
            assert_eq!(srv.handle_line(&request), response, "{request}");
        }
    }

    #[test]
    fn weights_at_or_above_the_bound_are_refused() {
        // Two 1e308 weights on one 3-hop path would overflow the link loads
        // to +inf, which the wire prints as `"max_load":null` inside an
        // `"ok":true` response.
        let add = |id: &str, weight: &str| {
            format!(
                r#"{{"op":"add_comm","id":"{id}","src":{{"u":0,"v":0}},"snk":{{"u":0,"v":3}},"weight":{weight}}}"#
            )
        };
        let mut srv = server();
        for id in ["a", "b"] {
            assert_eq!(
                srv.handle_line(&add(id, "1e308")),
                r#"{"ok":false,"op":"add_comm","error":"weight must be below 1e250, got 1e308"}"#
            );
        }
        assert_eq!(
            srv.handle_line(&add("a", "1e250")),
            r#"{"ok":false,"op":"add_comm","error":"weight must be below 1e250, got 1e250"}"#
        );
        // The largest accepted weight, twice on the same path: every load
        // stays a finite number on the wire.
        let under = f64::from_bits(MAX_WEIGHT.to_bits() - 1);
        for id in ["a", "b"] {
            let resp = srv.handle_line(&add(id, &under.to_string()));
            assert!(resp.starts_with(r#"{"ok":true"#), "{resp}");
            assert!(resp.ends_with(r#""feasible":false}"#), "{resp}");
        }
        let report = srv.handle_line(r#"{"op":"power_report"}"#);
        assert!(
            report.starts_with(
                r#"{"ok":true,"op":"power_report","n_comms":2,"feasible":false,"total_mw":null,"#
            ),
            "{report}"
        );
        let report: Value = serde_json::from_str(&report).unwrap();
        let float = |key: &str| match report.get(key) {
            Some(Value::Float(x)) => *x,
            other => panic!("{key} is not a number: {other:?}"),
        };
        assert_eq!(float("max_load"), 2.0 * under);
        assert_eq!(float("total_load"), 6.0 * under);
    }

    #[test]
    fn adds_that_could_overflow_the_power_report_are_refused() {
        // `theory` has no top bandwidth, so finite loads can overflow
        // `load³`: two 4e102 weights on one link used to answer
        // `"feasible":true` and then `"total_mw":null` inside `"ok":true`.
        let mut srv = Server::new(
            Mesh::new(4, 4),
            PowerModel::theory(3.0),
            SessionConfig::default(),
        );
        let add = |id: &str, snk_v: usize, weight: &str| {
            format!(
                r#"{{"op":"add_comm","id":"{id}","src":{{"u":0,"v":0}},"snk":{{"u":0,"v":{snk_v}}},"weight":{weight}}}"#
            )
        };
        let total_mw = |srv: &mut Server| {
            let report = srv.handle_line(r#"{"op":"power_report"}"#);
            match serde_json::from_str::<Value>(&report)
                .unwrap()
                .get("total_mw")
            {
                Some(Value::Float(x)) => *x,
                other => panic!("total_mw is not a number: {other:?} in {report}"),
            }
        };
        let a = srv.handle_line(&add("a", 1, "4e102"));
        assert!(a.starts_with(r#"{"ok":true"#), "{a}");
        assert!(a.ends_with(r#""feasible":true}"#), "{a}");
        assert_eq!(
            srv.handle_line(&add("b", 1, "4e102")),
            r#"{"ok":false,"op":"add_comm","error":"weight 4e102 could overflow the power report: the live weights would sum to 8e102"}"#
        );
        assert_eq!(total_mw(&mut srv), 4e102f64.powf(3.0));
        // Removing "a" frees its weight. One 5e102 weight over three hops
        // still could overflow (3 × 1.25e308); 3e102 over three cannot.
        let removed = srv.handle_line(r#"{"op":"remove_comm","id":"a"}"#);
        assert!(removed.starts_with(r#"{"ok":true"#), "{removed}");
        let c = srv.handle_line(&add("c", 3, "5e102"));
        assert!(c.contains("could overflow the power report"), "{c}");
        let c = srv.handle_line(&add("c", 3, "3e102"));
        assert!(c.starts_with(r#"{"ok":true"#), "{c}");
        assert_eq!(total_mw(&mut srv), 3.0 * 3e102f64.powf(3.0));
        // A communication that crosses no link adds no load.
        let local = srv.handle_line(
            r#"{"op":"add_comm","id":"d","src":{"u":2,"v":2},"snk":{"u":2,"v":2},"weight":1e249}"#,
        );
        assert!(local.starts_with(r#"{"ok":true"#), "{local}");
    }

    #[test]
    fn serve_lines_answers_every_request_in_order() {
        let mut srv = server();
        let input = "\
{\"op\":\"add_comm\",\"id\":\"a\",\"src\":{\"u\":0,\"v\":0},\"snk\":{\"u\":2,\"v\":2},\"weight\":7}\n\
\n\
{\"op\":\"power_report\"}\n";
        let mut out = Vec::new();
        serve_lines(&mut srv, input.as_bytes(), &mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2, "blank request lines are skipped: {text}");
        assert!(lines[0].contains("add_comm"));
        assert!(lines[1].contains("power_report"));
    }
}
