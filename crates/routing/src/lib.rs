//! # wsdf-routing — routing algorithms and virtual-channel disciplines
//!
//! Implements Sec. IV of the paper:
//!
//! * [`mesh`] — XY dimension-order routing for standalone meshes and the
//!   trivial single-switch oracle (the Fig. 10(a,b) pair).
//! * [`switchless`] — minimal (Algorithm 1) and non-minimal (Valiant)
//!   routing on the switch-less Dragonfly with two VC disciplines:
//!   * **Baseline** (Sec. IV-A): one VC per C-group visited — 4 VCs
//!     minimal, 6 VCs non-minimal.
//!   * **Reduced** (Sec. IV-B): up*/down*-merged VCs — 3 VCs minimal,
//!     4 VCs non-minimal ("only one additional VC against the traditional
//!     Dragonfly"). Legality rests on the Property-1/2 labeling and the
//!     perimeter converter chain; see DESIGN.md for the interpretation.
//! * [`switchbased`] — Kim et al. minimal (2 VCs) and Valiant (3 VCs)
//!   routing for the switch-based baseline.
//! * [`walk`] — a pure route walker over a built network: used by tests to
//!   verify reachability, hop counts (Eq. 7 diameters), up*/down* legality
//!   and VC monotonicity without running the simulator.

#![deny(missing_docs)]

pub mod fault;
pub mod mesh;
pub mod switchbased;
pub mod switchless;
pub mod walk;

pub use fault::{DetourOracle, PathVerdict, ReachMap};
pub use mesh::{MeshOracle, SwitchNodeOracle};
pub use switchbased::SwOracle;
pub use switchless::{SlOracle, VcScheme};
pub use walk::{DependencyGraph, PortMap, RouteTrace, VcChannel, Walker};

/// Minimal vs non-minimal (Valiant) routing mode.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RouteMode {
    /// Shortest paths only (Algorithm 1 in the paper).
    Minimal,
    /// Valiant misrouting through a uniformly random intermediate
    /// W-group/group for every inter-group packet.
    Valiant,
}

wsdf_sim::json_names!(RouteMode; Minimal = "minimal", Valiant = "valiant");

#[cfg(test)]
mod tests {
    use super::{RouteMode, VcScheme};

    #[test]
    fn mode_and_scheme_names_round_trip() {
        for m in [RouteMode::Minimal, RouteMode::Valiant] {
            assert_eq!(RouteMode::from_name(m.name()), Some(m));
        }
        for s in [VcScheme::Baseline, VcScheme::Reduced] {
            assert_eq!(VcScheme::from_name(s.name()), Some(s));
        }
        assert_eq!(RouteMode::from_name("Minimal"), None);
        assert_eq!(VcScheme::from_name(""), None);
    }
}
