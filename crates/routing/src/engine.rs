//! Engine selection: one explicit [`EngineConfig`] per call site.
//!
//! Every optimized data structure in the routing hot path ships with its
//! literal full-scan twin (see ARCHITECTURE.md § "The engine /
//! reference-oracle pattern"). Which side of each pair runs is chosen per
//! call site, never process-wide: a process-global switch flipped from one
//! test leaks into every other test in the binary.
//!
//! The selection is *data, not ambient state*: an [`EngineConfig`]
//! value selecting [`EngineSel::Live`] or [`EngineSel::Reference`] per
//! subsystem, carried by the [`RouteScratch`](crate::RouteScratch) each
//! `route_with` call receives (`RouteScratch::with_engine`), by the
//! campaign (`pamr_sim::campaign::Campaign::engine`) and by the resident
//! session (`SessionConfig::engine`). Two call sites can use different
//! engines concurrently with no coordination:
//!
//! ```
//! use pamr_routing::{engine::EngineConfig, Heuristic, PathRemover, RouteScratch};
//! use pamr_mesh::{Coord, Mesh};
//! use pamr_power::PowerModel;
//!
//! let cs = pamr_routing::CommSet::new(
//!     Mesh::new(4, 4),
//!     vec![pamr_routing::Comm::new(Coord::new(0, 0), Coord::new(3, 3), 2.0)],
//! );
//! let model = PowerModel::theory(3.0);
//! let mut live = RouteScratch::with_engine(EngineConfig::LIVE);
//! let mut oracle = RouteScratch::with_engine(EngineConfig::REFERENCE);
//! let a = PathRemover.route_with(&cs, &model, &mut live);
//! let b = PathRemover.route_with(&cs, &model, &mut oracle);
//! assert_eq!(a, b); // the differential contract
//! ```

/// Which side of an engine/reference pair a subsystem dispatches to.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub enum EngineSel {
    /// The optimized production engine (banded PR, queued XYI, indexed IG,
    /// interned precompute tables) — the default everywhere.
    #[default]
    Live,
    /// The literal full-scan reference oracle the engine is differentially
    /// pinned against.
    Reference,
}

impl EngineSel {
    /// True iff this selects the reference oracle.
    #[inline]
    pub fn is_reference(self) -> bool {
        self == EngineSel::Reference
    }
}

/// Per-subsystem engine selection, threaded explicitly through
/// [`RouteScratch`](crate::RouteScratch), the campaign and the session.
///
/// `Default` (and [`EngineConfig::LIVE`]) selects every production engine;
/// [`EngineConfig::REFERENCE`] selects every oracle. Mixed configs are
/// built with the `with_*` combinators.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub struct EngineConfig {
    /// Path-Remover engine (banded reachability vs full re-sweep).
    pub pr: EngineSel,
    /// XY-improver engine (queued link scan vs full link scan).
    pub xyi: EngineSel,
    /// Improved-greedy engine (per-group min-load index vs full band scan).
    pub ig: EngineSel,
    /// Table sourcing (interned per-endpoint precompute vs rebuild per
    /// trial, direct `powf` instead of the cost ladder).
    pub precompute: EngineSel,
}

impl EngineConfig {
    /// Every subsystem on its optimized engine (the default).
    pub const LIVE: EngineConfig = EngineConfig::all(EngineSel::Live);

    /// Every subsystem on its reference oracle.
    pub const REFERENCE: EngineConfig = EngineConfig::all(EngineSel::Reference);

    /// The same selection for every subsystem.
    pub const fn all(sel: EngineSel) -> EngineConfig {
        EngineConfig {
            pr: sel,
            xyi: sel,
            ig: sel,
            precompute: sel,
        }
    }

    /// This config with the Path-Remover selection replaced.
    pub const fn with_pr(mut self, sel: EngineSel) -> EngineConfig {
        self.pr = sel;
        self
    }

    /// This config with the XY-improver selection replaced.
    pub const fn with_xyi(mut self, sel: EngineSel) -> EngineConfig {
        self.xyi = sel;
        self
    }

    /// This config with the Improved-greedy selection replaced.
    pub const fn with_ig(mut self, sel: EngineSel) -> EngineConfig {
        self.ig = sel;
        self
    }

    /// This config with the precompute selection replaced.
    pub const fn with_precompute(mut self, sel: EngineSel) -> EngineConfig {
        self.precompute = sel;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_all_live() {
        let cfg = EngineConfig::default();
        assert_eq!(cfg, EngineConfig::LIVE);
        assert!(!cfg.pr.is_reference());
        assert!(!cfg.precompute.is_reference());
    }

    #[test]
    fn combinators_replace_one_subsystem() {
        let cfg = EngineConfig::LIVE.with_ig(EngineSel::Reference);
        assert_eq!(cfg.ig, EngineSel::Reference);
        assert_eq!(cfg.pr, EngineSel::Live);
        assert_eq!(cfg.xyi, EngineSel::Live);
        assert_eq!(cfg.precompute, EngineSel::Live);
    }
}
