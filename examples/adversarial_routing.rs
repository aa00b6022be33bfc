//! Adversarial traffic and non-minimal routing (the paper's Fig. 13
//! experiment at reduced scale): when all traffic funnels into a few
//! global links, minimal routing collapses and Valiant misrouting buys it
//! back.
//!
//! ```text
//! cargo run --release --example adversarial_routing
//! ```

use wsdf::routing::{RouteMode, VcScheme};
use wsdf::sim::SimConfig;
use wsdf::topo::{SlParams, SwParams};
use wsdf::{AdaptiveConfig, Bench, PatternSpec, Session};

fn main() {
    // 9 W-groups keep the example under a minute; the full repro harness
    // runs the paper's 41-group system (`repro fig13`).
    let swp = SwParams::radix16().with_groups(9);
    let slp = SlParams::radix16().with_wgroups(9);
    // Adaptive saturation search: no per-(bench, pattern) rate grids to
    // hand-tune — the driver brackets and bisects each knee itself. Start
    // low: adversarial patterns saturate an order of magnitude below
    // uniform traffic.
    let cfg = AdaptiveConfig {
        start_chip: 0.05,
        ..Default::default()
    };
    let sim = SimConfig {
        partitions: 0,
        ..SimConfig::default()
    }
    .scaled(0.3);

    for (spec, name) in [
        (PatternSpec::Hotspot, "hotspot (4 active W-groups)"),
        (PatternSpec::WorstCase, "worst-case (Wi -> Wi+1)"),
    ] {
        println!("== {name} ==");
        for bench in [
            Bench::switchbased(&swp, RouteMode::Minimal),
            Bench::switchless(&slp, RouteMode::Minimal, VcScheme::Baseline),
            Bench::switchbased(&swp, RouteMode::Valiant),
            Bench::switchless(&slp, RouteMode::Valiant, VcScheme::Baseline),
        ] {
            let mode = if bench.label.contains("Mis") {
                "valiant"
            } else {
                "minimal"
            };
            let report = Session::bench(&bench)
                .sim(sim.clone())
                .adaptive(&cfg, spec)
                .unwrap()
                .report;
            let knee = report.points.iter().rev().find(|p| !p.saturated);
            let p99 = knee.map(|p| p.p99).unwrap_or(f64::NAN);
            println!(
                "  {:<10} {:<8} saturation {:>5.2} flits/cycle/chip \
                 ({} sims, p99 at knee {:>6.1} cyc)",
                bench.label.replace("-Mis", ""),
                mode,
                report.sat_chip,
                report.points.len(),
                p99
            );
        }
        println!();
    }
    println!(
        "Minimal routing can only use the direct W-group-to-W-group links\n\
         (1/W of the global links under worst-case traffic); Valiant spreads\n\
         the load over a random intermediate W-group, trading path length\n\
         for an order of magnitude in throughput — with one extra VC."
    );
}
