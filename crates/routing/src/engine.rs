//! Engine selection: one explicit [`EngineConfig`] per call site.
//!
//! Each of the four rewritten heuristics (banded PR, pending-link XYI, indexed
//! IG, in-place TB) ships with its literal oracle (see ARCHITECTURE.md § "The
//! engine / reference-oracle pattern"). Which side runs is chosen per call
//! site, never process-wide: a process-global switch flipped from one test
//! leaks into every other test in the binary.
//!
//! The selection is *data, not ambient state*: an [`EngineConfig`] value,
//! either [`EngineConfig::LIVE`] or [`EngineConfig::REFERENCE`], carried by
//! the [`RouteScratch`](crate::RouteScratch) each `route_with` call
//! receives (`RouteScratch::with_engine`) and by the campaign
//! (`pamr_sim::campaign::Campaign::engine`). Two call sites can use
//! different engines concurrently with no coordination:
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

/// The engine selection threaded explicitly through
/// [`RouteScratch`](crate::RouteScratch) and the campaign: every optimized
/// engine, or every full-scan oracle.
///
/// `Default` is [`EngineConfig::LIVE`]:
///
/// ```
/// use pamr_routing::EngineConfig;
///
/// assert_eq!(EngineConfig::default(), EngineConfig::LIVE);
/// assert!(!EngineConfig::LIVE.is_reference());
/// assert!(EngineConfig::REFERENCE.is_reference());
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub struct EngineConfig {
    reference: bool,
}

impl EngineConfig {
    /// The optimized engines (banded PR, pending-link XYI, indexed IG,
    /// in-place TB), fed from the interned bands — the default everywhere.
    pub const LIVE: EngineConfig = EngineConfig { reference: false };

    /// The literal full-scan oracles the engines are differentially pinned
    /// against; they rebuild every band and evaluate the power fit on
    /// every query.
    pub const REFERENCE: EngineConfig = EngineConfig { reference: true };

    /// True iff this selects the reference oracles.
    #[inline]
    pub const fn is_reference(self) -> bool {
        self.reference
    }
}
