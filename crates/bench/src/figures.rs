//! Figure regeneration: one function per evaluation figure (Fig. 10–15).
//!
//! Rates mirror the paper's x-axes (flits/cycle/chip). Each function
//! returns [`wsdf::report::Figure`]s ready to render or serialize.

use crate::Effort;
use wsdf::report::{Curve, Figure};
use wsdf::routing::{RouteMode, VcScheme};
use wsdf::{AdaptiveConfig, Bench, PatternSpec, SaturationReport, Session, SweepPoint};
use wsdf_analysis::EnergyModel;
use wsdf_sim::SimConfig;
use wsdf_topo::{SlParams, SwParams};
use wsdf_traffic::{PermKind, RingDirection};

fn rates(max: f64, steps: usize) -> Vec<f64> {
    (1..=steps).map(|i| max * i as f64 / steps as f64).collect()
}

/// The sim config of every figure sweep and saturation search.
fn sim(scale: f64) -> SimConfig {
    SimConfig {
        partitions: 0,
        ..SimConfig::default()
    }
    .scaled(scale)
}

// All figure sweeps route through the unified Session frontend; the
// trace-free paths below cannot fail, so the unwraps never fire.
fn sweep(bench: &Bench, scale: f64, spec: PatternSpec, rates: &[f64]) -> Vec<SweepPoint> {
    Session::bench(bench)
        .sim(sim(scale))
        .sweep(spec, rates)
        .unwrap()
        .report
}

/// Fig. 10(a,b): intra-C-group (intra-switch) latency, uniform and
/// bit-reverse, 4×4-core mesh C-group vs radix-16 ideal switch.
pub fn fig10ab(effort: Effort) -> Vec<Figure> {
    let s = effort.small();
    let mut figs = Vec::new();
    for (id, title, spec, max_rate) in [
        (
            "fig10a",
            "Intra-C-group: Uniform",
            PatternSpec::Uniform,
            3.6,
        ),
        (
            "fig10b",
            "Intra-C-group: Bit-reverse",
            PatternSpec::Permutation(PermKind::BitReverse),
            2.6,
        ),
    ] {
        let mut fig = Figure::new(id, title);
        let sw = Bench::single_switch(16);
        fig.push(Curve::new("Switch", sweep(&sw, s, spec, &rates(1.4, 7))));
        let mesh = Bench::single_mesh(4, 2, 1);
        fig.push(Curve::new(
            "2D-Mesh",
            sweep(&mesh, s, spec, &rates(max_rate, 9)),
        ));
        figs.push(fig);
    }
    figs
}

/// The three local-scale benches of Fig. 10(c–f) and Fig. 14(b):
/// one W-group of the radix-16 configuration.
fn local_benches() -> Vec<Bench> {
    let sw = SwParams::radix16().with_groups(1);
    let sl = SlParams::radix16().with_wgroups(1);
    let sl2 = sl.with_mesh_width(2);
    vec![
        Bench::switchbased(&sw, RouteMode::Minimal),
        Bench::switchless(&sl, RouteMode::Minimal, VcScheme::Baseline),
        Bench::switchless(&sl2, RouteMode::Minimal, VcScheme::Baseline),
    ]
}

/// Fig. 10(c–f): local (intra-W-group) latency under uniform, bit-reverse,
/// bit-shuffle and bit-transpose.
pub fn fig10cf(effort: Effort) -> Vec<Figure> {
    let s = effort.small();
    let cases: [(&str, &str, PatternSpec, f64); 4] = [
        ("fig10c", "Local: Uniform", PatternSpec::Uniform, 2.4),
        (
            "fig10d",
            "Local: Bit-reverse",
            PatternSpec::Permutation(PermKind::BitReverse),
            2.0,
        ),
        (
            "fig10e",
            "Local: Bit-shuffle",
            PatternSpec::Permutation(PermKind::BitShuffle),
            0.7,
        ),
        (
            "fig10f",
            "Local: Bit-transpose",
            PatternSpec::Permutation(PermKind::BitTranspose),
            2.0,
        ),
    ];
    let mut figs = Vec::new();
    for (id, title, spec, max_rate) in cases {
        let mut fig = Figure::new(id, title);
        for bench in local_benches() {
            // The switch-based baseline caps at 1 flit/cycle/chip; don't
            // waste points far beyond it.
            let max = if bench.label == "SW-based" {
                max_rate.min(1.4)
            } else {
                max_rate
            };
            fig.push(Curve::new(
                bench.label.clone(),
                sweep(&bench, s, spec, &rates(max, 8)),
            ));
        }
        figs.push(fig);
    }
    figs
}

/// Fig. 11(a,b): global performance of the full radix-16 system
/// (41 groups, 1312 chips) under uniform and bit-reverse.
pub fn fig11(effort: Effort) -> Vec<Figure> {
    let s = effort.medium();
    let sw = SwParams::radix16();
    let sl = SlParams::radix16();
    let sl2 = sl.with_mesh_width(2);
    let mut figs = Vec::new();
    for (id, title, spec, max_rate) in [
        ("fig11a", "Global: Uniform", PatternSpec::Uniform, 1.1),
        (
            "fig11b",
            "Global: Bit-reverse",
            PatternSpec::Permutation(PermKind::BitReverse),
            0.7,
        ),
    ] {
        let mut fig = Figure::new(id, title);
        for bench in [
            Bench::switchbased(&sw, RouteMode::Minimal),
            Bench::switchless(&sl, RouteMode::Minimal, VcScheme::Baseline),
            Bench::switchless(&sl2, RouteMode::Minimal, VcScheme::Baseline),
        ] {
            fig.push(Curve::new(
                bench.label.clone(),
                sweep(&bench, s, spec, &rates(max_rate, 7)),
            ));
        }
        figs.push(fig);
    }
    figs
}

/// Fig. 12(a,b): scalability at radix-32 (145 groups, 18560 chips):
/// local (single W-group) and global (full system) uniform performance,
/// the global panel adding 4× intra-C-group bandwidth.
pub fn fig12(effort: Effort) -> Vec<Figure> {
    let mut figs = Vec::new();
    // (a) Local: one W-group of the radix-32 config.
    {
        let s = effort.small();
        let sw = SwParams::radix32().with_groups(1);
        let sl = SlParams::radix32().with_wgroups(1);
        let sl2 = sl.with_mesh_width(2);
        let mut fig = Figure::new("fig12a", "Radix-32 Local: Uniform");
        for bench in [
            Bench::switchbased(&sw, RouteMode::Minimal),
            Bench::switchless(&sl, RouteMode::Minimal, VcScheme::Baseline),
            Bench::switchless(&sl2, RouteMode::Minimal, VcScheme::Baseline),
        ] {
            let max = if bench.label == "SW-based" { 1.4 } else { 1.8 };
            fig.push(Curve::new(
                bench.label.clone(),
                sweep(&bench, s, PatternSpec::Uniform, &rates(max, 7)),
            ));
        }
        figs.push(fig);
    }
    // (b) Global: the full system.
    {
        let s = effort.large();
        let sw = SwParams::radix32();
        let sl = SlParams::radix32();
        let sl2 = sl.with_mesh_width(2);
        let sl4 = sl.with_mesh_width(4);
        let mut fig = Figure::new("fig12b", "Radix-32 Global: Uniform");
        for bench in [
            Bench::switchbased(&sw, RouteMode::Minimal),
            Bench::switchless(&sl, RouteMode::Minimal, VcScheme::Baseline),
            Bench::switchless(&sl2, RouteMode::Minimal, VcScheme::Baseline),
            Bench::switchless(&sl4, RouteMode::Minimal, VcScheme::Baseline),
        ] {
            fig.push(Curve::new(
                bench.label.clone(),
                sweep(&bench, s, PatternSpec::Uniform, &rates(0.9, 6)),
            ));
        }
        figs.push(fig);
    }
    figs
}

/// Fig. 13(a,b): adversarial traffic at radix-16 scale — hotspot (four
/// active W-groups) and worst-case (Wi → Wi+1), minimal vs Valiant.
pub fn fig13(effort: Effort) -> Vec<Figure> {
    let s = effort.medium();
    let sw = SwParams::radix16();
    let sl = SlParams::radix16();
    let sl2 = sl.with_mesh_width(2);
    let mut figs = Vec::new();
    for (id, title, spec, max_min, max_mis) in [
        ("fig13a", "Hotspot", PatternSpec::Hotspot, 0.25, 0.9),
        ("fig13b", "Worst-case", PatternSpec::WorstCase, 0.12, 0.5),
    ] {
        let mut fig = Figure::new(id, title);
        for (bench, max) in [
            (Bench::switchbased(&sw, RouteMode::Minimal), max_min),
            (
                Bench::switchless(&sl, RouteMode::Minimal, VcScheme::Baseline),
                max_min,
            ),
            (Bench::switchbased(&sw, RouteMode::Valiant), max_mis),
            (
                Bench::switchless(&sl, RouteMode::Valiant, VcScheme::Baseline),
                max_mis,
            ),
            (
                Bench::switchless(&sl2, RouteMode::Valiant, VcScheme::Baseline),
                max_mis,
            ),
        ] {
            let label = if bench.label.contains("-Mis") {
                bench.label.clone()
            } else {
                format!("{}-Min", bench.label)
            };
            fig.push(Curve::new(label, sweep(&bench, s, spec, &rates(max, 6))));
        }
        figs.push(fig);
    }
    figs
}

/// Fig. 14(a,b): ring AllReduce — intra-C-group (mesh vs single switch)
/// and intra-W-group (one radix-16 W-group), uni/bidirectional.
pub fn fig14(effort: Effort) -> Vec<Figure> {
    let s = effort.small();
    let mut figs = Vec::new();
    // (a) Intra-C-group.
    {
        let mut fig = Figure::new("fig14a", "AllReduce: Intra-C-group");
        for (dir, tag) in [
            (RingDirection::Unidirectional, "Uni"),
            (RingDirection::Bidirectional, "Bi"),
        ] {
            let sw = Bench::single_switch(16);
            fig.push(Curve::new(
                format!("SW-based-{tag}"),
                sweep(&sw, s, PatternSpec::RingCGroup(dir), &rates(1.6, 8)),
            ));
            let mesh = Bench::single_mesh(4, 2, 1);
            let max = if dir == RingDirection::Bidirectional {
                4.4
            } else {
                2.4
            };
            fig.push(Curve::new(
                format!("SW-less-{tag}"),
                sweep(&mesh, s, PatternSpec::RingCGroup(dir), &rates(max, 8)),
            ));
        }
        figs.push(fig);
    }
    // (b) Intra-W-group.
    {
        let mut fig = Figure::new("fig14b", "AllReduce: Intra-W-group");
        let sw = SwParams::radix16().with_groups(1);
        let sl = SlParams::radix16().with_wgroups(1);
        let sl2 = sl.with_mesh_width(2);
        for (dir, tag) in [
            (RingDirection::Unidirectional, "Uni"),
            (RingDirection::Bidirectional, "Bi"),
        ] {
            let b = Bench::switchbased(&sw, RouteMode::Minimal);
            fig.push(Curve::new(
                format!("SW-based-{tag}"),
                sweep(&b, s, PatternSpec::RingWGroup(dir), &rates(1.5, 8)),
            ));
            let b = Bench::switchless(&sl, RouteMode::Minimal, VcScheme::Baseline);
            fig.push(Curve::new(
                format!("SW-less-{tag}"),
                sweep(&b, s, PatternSpec::RingWGroup(dir), &rates(2.0, 8)),
            ));
            if dir == RingDirection::Bidirectional {
                let b = Bench::switchless(&sl2, RouteMode::Minimal, VcScheme::Baseline);
                fig.push(Curve::new(
                    "SW-less-Bi-2B",
                    sweep(&b, s, PatternSpec::RingWGroup(dir), &rates(2.6, 8)),
                ));
            }
        }
        figs.push(fig);
    }
    figs
}

/// Saturation-throughput table: adaptive knee search over the headline
/// comparisons (intra-C-group mesh vs switch, then the local W-group
/// benches), no hand-tuned rate grids. Each entry carries the full
/// measured point set with p50/p95/p99 latency.
pub fn saturation_scan(effort: Effort) -> Vec<(String, SaturationReport)> {
    let s = effort.small();
    let adaptive = |bench: &Bench, start_chip: f64| {
        let cfg = AdaptiveConfig {
            start_chip,
            ..Default::default()
        };
        Session::bench(bench)
            .sim(sim(s))
            .adaptive(&cfg, PatternSpec::Uniform)
            .unwrap()
            .report
    };
    let mut out = Vec::new();
    for (bench, start) in [
        (Bench::single_switch(16), 0.2),
        (Bench::single_mesh(4, 2, 1), 0.2),
    ] {
        let report = adaptive(&bench, start);
        out.push((format!("intra-cgroup/{}", bench.label), report));
    }
    for bench in local_benches() {
        let report = adaptive(&bench, 0.15);
        out.push((format!("local/{}", bench.label), report));
    }
    out
}

/// Render [`saturation_scan`] results as text.
pub fn render_saturation(scan: &[(String, SaturationReport)]) -> String {
    let mut s = String::from("== saturation — adaptive knee search: Uniform ==\n");
    for (label, report) in scan {
        s.push_str(&report.render(label));
    }
    s
}

/// One bar of Fig. 15.
#[derive(Debug, Clone)]
pub struct EnergyBar {
    /// Network + routing label.
    pub label: String,
    /// Inter-C-group energy (pJ/bit).
    pub inter_cgroup: f64,
    /// Intra-C-group energy (pJ/bit).
    pub intra_cgroup: f64,
}

impl EnergyBar {
    /// Total energy per bit.
    pub fn total(&self) -> f64 {
        self.inter_cgroup + self.intra_cgroup
    }
}

/// Fig. 15: average energy per transmitted bit under uniform traffic,
/// minimal vs misrouting, for the small (radix-16, 4×4 mesh) and large
/// (radix-32, 7×7 mesh) configurations. Uses per-class hop counts
/// collected by the simulator and the Table II energy model.
pub fn fig15(effort: Effort) -> Vec<(String, Vec<EnergyBar>)> {
    let mut out = Vec::new();
    for (scale_name, sw, sl, wscale, rate) in [
        (
            "fig15a (4x4 mesh)",
            SwParams::radix16().with_groups(9),
            SlParams::radix16().with_wgroups(9),
            effort.small(),
            0.3,
        ),
        (
            "fig15b (7x7 mesh)",
            SwParams::radix32().with_groups(9),
            SlParams::radix32().with_wgroups(9),
            effort.medium(),
            0.2,
        ),
    ] {
        let sim = SimConfig::default().scaled(wscale);
        let mut bars = Vec::new();
        for (bench, model, label) in [
            (
                Bench::switchbased(&sw, RouteMode::Minimal),
                EnergyModel::switchbased_paper(),
                "SW-based",
            ),
            (
                Bench::switchless(&sl, RouteMode::Minimal, VcScheme::Baseline),
                EnergyModel::switchless_paper(),
                "SW-less",
            ),
            (
                Bench::switchbased(&sw, RouteMode::Valiant),
                EnergyModel::switchbased_paper(),
                "SW-based Misrouting",
            ),
            (
                Bench::switchless(&sl, RouteMode::Valiant, VcScheme::Baseline),
                EnergyModel::switchless_paper(),
                "SW-less Misrouting",
            ),
        ] {
            let pattern = bench.pattern(PatternSpec::Uniform, rate / bench.nodes_per_chip);
            let m = Session::bench(&bench)
                .sim(sim.clone())
                .metrics(pattern.as_ref())
                .unwrap_or_else(|e| panic!("fig15 {label}: {e}"))
                .report;
            let hops = m.avg_hops_per_flit();
            let (inter, intra) = model.energy_split(&hops);
            bars.push(EnergyBar {
                label: label.to_string(),
                inter_cgroup: inter,
                intra_cgroup: intra,
            });
        }
        out.push((scale_name.to_string(), bars));
    }
    out
}

/// Serialize Fig. 15 bar groups as pretty JSON (hand-rolled; see
/// `wsdf::json` for why there is no serde in this workspace).
pub fn fig15_json(groups: &[(String, Vec<EnergyBar>)]) -> String {
    use wsdf::json::{escape, num};
    let mut s = String::from("[\n");
    for (gi, (name, bars)) in groups.iter().enumerate() {
        s.push_str(&format!(
            "  {{\n    \"group\": \"{}\",\n    \"bars\": [\n",
            escape(name)
        ));
        for (bi, b) in bars.iter().enumerate() {
            s.push_str(&format!(
                "      {{\"label\": \"{}\", \"inter_cgroup\": {}, \"intra_cgroup\": {}, \
                 \"total\": {}}}{}\n",
                escape(&b.label),
                num(b.inter_cgroup),
                num(b.intra_cgroup),
                num(b.total()),
                if bi + 1 < bars.len() { "," } else { "" }
            ));
        }
        s.push_str(&format!(
            "    ]\n  }}{}\n",
            if gi + 1 < groups.len() { "," } else { "" }
        ));
    }
    s.push_str("]\n");
    s
}

/// Render Fig. 15 bars as text.
pub fn render_fig15(groups: &[(String, Vec<EnergyBar>)]) -> String {
    let mut s = String::new();
    for (name, bars) in groups {
        s.push_str(&format!("== {name} — Average energy (pJ/bit) ==\n"));
        for b in bars {
            s.push_str(&format!(
                "  {:<22} inter-C-group {:>7.1}  intra-C-group {:>6.1}  total {:>7.1}\n",
                b.label,
                b.inter_cgroup,
                b.intra_cgroup,
                b.total()
            ));
        }
    }
    s
}

/// VC-scheme ablation (Sec. IV-B): the Reduced discipline (3 VCs minimal /
/// 4 Valiant, chain-walk up*/down* routing in shared-VC W-groups) against
/// the Baseline discipline (4/6 VCs, XY everywhere). The paper claims the
/// VC reduction; this experiment quantifies what its legality constraints
/// cost in latency and saturation throughput under our interpretation of
/// the Property-1/2 interconnect (see DESIGN.md).
pub fn vc_ablation(effort: Effort) -> Vec<Figure> {
    let s = effort.small();
    let sm = effort.medium();
    let mut figs = Vec::new();
    // Local scale: one W-group.
    {
        let p = SlParams::radix16().with_wgroups(1);
        let mut fig = Figure::new("ablation-local", "VC schemes, 1 W-group: Uniform");
        for (scheme, label) in [
            (VcScheme::Baseline, "Baseline-4VC"),
            (VcScheme::Reduced, "Reduced-3VC"),
        ] {
            let bench = Bench::switchless(&p, RouteMode::Minimal, scheme);
            fig.push(Curve::new(
                label,
                sweep(&bench, s, PatternSpec::Uniform, &rates(2.0, 8)),
            ));
        }
        figs.push(fig);
    }
    // Global scale with Valiant misrouting under worst-case traffic, where
    // the intermediate-W-group VC matters most.
    {
        let p = SlParams::radix16().with_wgroups(9);
        let mut fig = Figure::new(
            "ablation-global",
            "VC schemes, 9 W-groups: Worst-case + Valiant",
        );
        for (scheme, label) in [
            (VcScheme::Baseline, "Baseline-6VC"),
            (VcScheme::Reduced, "Reduced-4VC"),
        ] {
            let bench = Bench::switchless(&p, RouteMode::Valiant, scheme);
            fig.push(Curve::new(
                label,
                sweep(&bench, sm, PatternSpec::WorstCase, &rates(0.5, 6)),
            ));
        }
        figs.push(fig);
    }
    figs
}
