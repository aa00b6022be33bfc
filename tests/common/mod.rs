//! Helpers shared by the integration tests.

use wsdf::routing::{RouteMode, VcScheme};
use wsdf::topo::{SlParams, SwParams};
use wsdf::Bench;

/// Both evaluated topology families at the smallest scale the paper
/// evaluates them: one radix-16 W-group switch-less and one radix-16
/// group switch-based, each with minimal routing.
pub fn families() -> Vec<(&'static str, Bench)> {
    vec![
        (
            "switchless",
            Bench::switchless(
                &SlParams::radix16().with_wgroups(1),
                RouteMode::Minimal,
                VcScheme::Baseline,
            ),
        ),
        (
            "switchbased",
            Bench::switchbased(&SwParams::radix16().with_groups(1), RouteMode::Minimal),
        ),
    ]
}
