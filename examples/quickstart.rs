//! Quickstart: build a switch-less Dragonfly W-group, let the adaptive
//! sweep find its saturation point, and read the numbers the paper cares
//! about — including tail latency.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use wsdf::routing::{RouteMode, VcScheme};
use wsdf::topo::SlParams;
use wsdf::{AdaptiveConfig, Bench, PatternSpec, Session, TraceConfig};

fn main() {
    // The paper's radix-16-equivalent configuration, one W-group:
    // 8 C-groups of 4×4 on-chip routers, fully connected by long-reach
    // links; 32 chips, 128 network endpoints, zero switches.
    let params = SlParams::radix16().with_wgroups(1);
    let bench = Bench::switchless(&params, RouteMode::Minimal, VcScheme::Baseline);

    println!("fabric: {}", bench.label);
    println!("  routers:   {}", bench.fabric.net().num_routers());
    println!("  endpoints: {}", bench.endpoints());
    println!("  chips:     {}", bench.chips());
    println!("  VCs:       {}", bench.num_vcs());

    // No hand-tuned rate grid: the adaptive driver coarse-scans with
    // geometric steps, then bisects the saturation knee to within 2%.
    // Every point reports mean and p50/p95/p99 latency from the engine's
    // streaming histogram.
    // Streaming telemetry rides along: every probe's link utilization,
    // queue depths and per-class ejection latencies land in a JSONL
    // stream whose bytes are deterministic — same digest at any
    // partition or worker count.
    let cfg = AdaptiveConfig::default();
    let out = Session::bench(&bench)
        .trace(TraceConfig::default())
        .adaptive(&cfg, PatternSpec::Uniform)
        .expect("adaptive session failed");
    let report = out.report;
    let trace = out.trace.expect("telemetry was enabled");
    println!("\n{}", report.render(&bench.label));
    println!(
        "trace: {} JSONL records, digest {}",
        trace.jsonl.lines().count(),
        trace.digest
    );
    println!(
        "saturation: {:.2} flits/cycle/chip ({} simulations, zero-load {:.1} cycles)",
        report.sat_chip,
        report.points.len(),
        report.zero_load_latency
    );

    println!(
        "\nA switch-based chip tops out at 1 flit/cycle/chip (one terminal\n\
         link); the C-group mesh keeps accepting well past that — the\n\
         paper's headline local-throughput result. Watch p99 pull away from\n\
         the mean as the offered load closes in on the knee."
    );
}
