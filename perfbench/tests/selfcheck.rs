//! Tiny-window self-check of every workload: the traced replay's spans
//! nest, no self time is negative, and the replay reproduces the
//! untraced run's simulated counts exactly. Also checks that the metric
//! names the two modes print are the ones `BENCHMARK.json` declares.

use wsdf::json::Value;
use wsdf::sim::BspPool;
use wsdf_perfbench::replay::{fingerprint, replay, Until};
use wsdf_perfbench::runner::{self, session_run, Options, PARTITIONS, WORKERS};
use wsdf_perfbench::sys::Manifest;
use wsdf_perfbench::workloads::{Size, Workload};

/// The layer spans each simulation of a workload is expected to hold.
fn expected_layers(w: Workload) -> &'static [&'static str] {
    match w {
        Workload::GlobalUniform => &["topo.build", "routing.oracle_build", "topo.partition"],
        Workload::ServingMix => &["workload.build", "workload.driver"],
        Workload::FaultSweep => &["topo.fault_sample", "routing.oracle_build"],
    }
}

fn self_check(w: Workload) {
    let pool = BspPool::new(WORKERS);
    let text = w.scenario_json(5, Size::Tiny);
    let untraced = session_run(&text, &pool).expect("untraced run");
    let r = replay(w.name(), &text, &pool, Until::End, Some(&untraced)).expect("replay");

    r.rec.check_nesting().expect("spans nest");
    assert!(r.rec.self_times_ns().iter().all(|&t| t >= 0));
    assert_eq!(r.fingerprint, fingerprint(&untraced).unwrap());
    assert!(!r.fingerprint.is_empty());

    // Nesting by name: workload > simulation > layer calls, with driver
    // callbacks under sim.step; core.report follows the workload span.
    let spans = r.rec.spans();
    let parent_name = |i: usize| spans[i].parent.map(|p| spans[p].name);
    for (i, s) in spans.iter().enumerate() {
        let want: &[Option<&str>] = match s.name {
            "workload" | "core.report" => &[None],
            "core.parse" | "simulation" => &[Some("workload")],
            "workload.driver" => &[Some("sim.step")],
            _ => &[Some("simulation")],
        };
        assert!(
            want.contains(&parent_name(i)),
            "{}: span {} under {:?}",
            w.name(),
            s.name,
            parent_name(i)
        );
    }
    for layer in ["core.parse", "sim.compile", "sim.step", "core.report"]
        .iter()
        .chain(expected_layers(w))
    {
        assert!(r.rec.count(layer) > 0, "{}: no {layer} span", w.name());
    }
    assert_eq!(r.rec.count("simulation") as usize, r.sims.len());
    assert!(r.total(|s| s.busy_cycles) > 0);
    assert!(r.total(|s| s.route_calls) > 0);

    // Set-up stops at the first compiled simulation.
    let setup = replay(w.name(), &text, &pool, Until::FirstCompile, None).expect("set-up");
    assert!(setup.sims.is_empty());
    assert_eq!(setup.rec.count("sim.compile"), 1);
    assert_eq!(setup.rec.count("sim.step"), 0);
}

#[test]
fn global_uniform_replay_matches() {
    self_check(Workload::GlobalUniform);
}

#[test]
fn serving_mix_replay_matches() {
    self_check(Workload::ServingMix);
}

#[test]
fn fault_sweep_replay_matches() {
    self_check(Workload::FaultSweep);
}

/// `(name, unit)` pairs of one metric list of `BENCHMARK.json`.
fn declared(key: &str) -> Vec<(String, String)> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark");
    let v = Value::parse(&text).unwrap();
    v.get(key)
        .and_then(|l| l.as_arr())
        .expect("metric list")
        .iter()
        .map(|m| {
            let field = |k: &str| m.get(k).and_then(|x| x.as_str()).unwrap().to_string();
            (field("name"), field("unit"))
        })
        .collect()
}

#[test]
fn both_modes_print_the_declared_metrics() {
    let pool = BspPool::new(WORKERS);
    let manifest = Manifest::collect(WORKERS, PARTITIONS);
    let o = Options {
        workload: Workload::ServingMix,
        seed: 5,
        seconds: 0.01,
        size: Size::Tiny,
    };
    for (key, rep) in [
        ("end_to_end", runner::end_to_end(&o, &pool, &manifest)),
        ("per_layer", runner::traced(&o, &pool, &manifest)),
    ] {
        assert!(rep.correct, "{key}: {:?}", rep.problems);
        assert_eq!(rep.failed, 0);
        let printed: Vec<(String, String)> = rep
            .metrics
            .iter()
            .map(|m| (m.name.to_string(), m.unit.to_string()))
            .collect();
        assert_eq!(printed, declared(key), "{key}");
    }
}
