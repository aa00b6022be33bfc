//! AI-training collective bandwidth: ring AllReduce on the switch-less
//! Dragonfly vs the switch-based baseline (the paper's Fig. 14 workload
//! and the HammingMesh motivation it cites).
//!
//! A data-parallel training step streams gradient segments around a ring.
//! On a switch, every chip owns exactly one injection link: 1 flit/cycle.
//! A wafer chip with four NoC nodes runs four parallel rings and can use
//! both ring directions — 2× and 4× the per-chip bandwidth.
//!
//! ```text
//! cargo run --release --example allreduce_training
//! ```

use wsdf::routing::{RouteMode, VcScheme};
use wsdf::sim::SimConfig;
use wsdf::topo::{SlParams, SwParams};
use wsdf::traffic::RingDirection;
use wsdf::{saturation_rate, Bench, PatternSpec, Session, SweepPoint};

fn sweep(bench: &Bench, spec: PatternSpec, rates: &[f64]) -> Vec<SweepPoint> {
    Session::bench(bench)
        .sim(SimConfig::default().scaled(0.5))
        .sweep(spec, rates)
        .unwrap()
        .report
}

fn main() {
    let rates: Vec<f64> = (1..=11).map(|i| i as f64 * 0.4).collect();

    println!("Ring AllReduce saturation bandwidth (flits/cycle/chip)\n");
    println!("— within one C-group (16 chips on a switch vs 4 chips on a 4×4 mesh) —");
    for (dir, name) in [
        (RingDirection::Unidirectional, "unidirectional"),
        (RingDirection::Bidirectional, "bidirectional "),
    ] {
        let sw = Bench::single_switch(16);
        let sat_sw = saturation_rate(&sweep(&sw, PatternSpec::RingCGroup(dir), &rates));
        let mesh = Bench::single_mesh(4, 2, 1);
        let sat_sl = saturation_rate(&sweep(&mesh, PatternSpec::RingCGroup(dir), &rates));
        println!(
            "  {name}:  switch-based {sat_sw:.2}   switch-less {sat_sl:.2}   ({:.1}x)",
            sat_sl / sat_sw
        );
    }

    println!("\n— within one W-group (32 chips, 8 switches / 8 C-groups) —");
    let swp = SwParams::radix16().with_groups(1);
    let slp = SlParams::radix16().with_wgroups(1);
    let slp2 = slp.with_mesh_width(2);
    for (dir, name) in [
        (RingDirection::Unidirectional, "unidirectional"),
        (RingDirection::Bidirectional, "bidirectional "),
    ] {
        let sw = Bench::switchbased(&swp, RouteMode::Minimal);
        let sat_sw = saturation_rate(&sweep(&sw, PatternSpec::RingWGroup(dir), &rates));
        let sl = Bench::switchless(&slp, RouteMode::Minimal, VcScheme::Baseline);
        let sat_sl = saturation_rate(&sweep(&sl, PatternSpec::RingWGroup(dir), &rates));
        let sl2 = Bench::switchless(&slp2, RouteMode::Minimal, VcScheme::Baseline);
        let sat_sl2 = saturation_rate(&sweep(&sl2, PatternSpec::RingWGroup(dir), &rates));
        println!(
            "  {name}:  switch-based {sat_sw:.2}   switch-less {sat_sl:.2}   switch-less-2B {sat_sl2:.2}"
        );
    }

    println!(
        "\nThroughput is bottleneck-chip throughput: a ring collective\n\
         advances at the pace of its slowest link, so that is the number a\n\
         training framework would observe."
    );
}
