//! `pamr-lint`: the workspace-native static-analysis pass.
//!
//! The workspace's core promise is that §6.4 campaign reports are
//! byte-identical across thread counts, shard splits, engines, and
//! precompute modes, and that the routing hot paths degrade into structured
//! errors instead of panics. Those invariants are enforced at runtime by
//! differential oracles and golden fixtures — but runtime checks only catch
//! violations the test inputs happen to exercise. `pamr-lint` closes the
//! gap at the source level: a hand-rolled token pass (no rustc plumbing, no
//! external parser — the tree builds offline) that flags the *constructs*
//! that erode the invariants before an input ever reaches them.
//!
//! Module map:
//! * [`lexer`] — a small Rust lexer: comments, strings, raw strings, char
//!   literals and lifetimes handled, so rules never fire inside text.
//! * [`rules`] — the registry and the five passes (D001, D002, P001,
//!   U001, V001) plus waiver-hygiene pseudo-rules (W000, W001).
//! * [`waivers`] — `// pamr-lint: allow(RULE, reason = "…")` parsing;
//!   a waiver without a reason is itself a diagnostic.
//! * [`config`] — per-rule severities (`--set RULE=off|warn|error`).
//! * [`report`] — canonical ordering, human and JSON renderings.
//! * [`driver`] — the workspace walker and whole-tree entry point.

#![forbid(unsafe_code)]

pub mod config;
pub mod driver;
pub mod lexer;
pub mod report;
pub mod rules;
pub mod waivers;
