//! The benchmark's workloads: each is a declarative `wsdf::Scenario`
//! generated from the benchmark seed, so the program only ever sees the
//! scenario text.

/// Seed whose report digests are pinned in [`Workload::pinned_digest`].
pub const DEFAULT_SEED: u64 = 1;

/// Seeds above this would not survive the scenario JSON number path
/// (numbers are read as `f64`).
pub const MAX_SEED: u64 = 1 << 40;

/// A named benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Open-loop uniform traffic on the full radix-16 switch-less fabric,
    /// one rate below and one above saturation.
    GlobalUniform,
    /// Closed-loop multi-tenant serving on the full radix-16
    /// switch-based fabric.
    ServingMix,
    /// Link-fault resilience sweep on a 10-W-group switch-less fabric.
    FaultSweep,
}

/// Window sizes: `Full` is what the benchmark measures; `Tiny` keeps the
/// same fabrics and run kinds with windows small enough for a self-check.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    /// Benchmark windows.
    Full,
    /// Self-check windows.
    Tiny,
}

impl Workload {
    /// Every workload, in the order `--workload all` runs them.
    pub const ALL: [Workload; 3] = [
        Workload::GlobalUniform,
        Workload::ServingMix,
        Workload::FaultSweep,
    ];

    /// Command-line and report name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::GlobalUniform => "global_uniform",
            Workload::ServingMix => "serving_mix",
            Workload::FaultSweep => "fault_sweep",
        }
    }

    /// Inverse of [`Workload::name`].
    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Report digest of the full-size scenario at [`DEFAULT_SEED`].
    pub fn pinned_digest(self) -> &'static str {
        match self {
            Workload::GlobalUniform => "fnv64:0bd086be38206391",
            Workload::ServingMix => "fnv64:c23760c670dcfdba",
            Workload::FaultSweep => "fnv64:e3abd6f5368e074e",
        }
    }

    /// The scenario document for `seed`. The seed feeds the engine seed
    /// and, where the run kind has one, the fault or arrival seed.
    pub fn scenario_json(self, seed: u64, size: Size) -> String {
        assert!(seed < MAX_SEED, "seed {seed} too large");
        let tiny = size == Size::Tiny;
        let sim_seed = seed.wrapping_mul(7919) % MAX_SEED;
        let run_seed = seed.wrapping_mul(104_729).wrapping_add(17) % MAX_SEED;
        let common = "\"stepping\": \"event\",\n  \
                      \"partitioning\": {\"partitions\": 2, \"partitioner\": \"locality\"}";
        match self {
            Workload::GlobalUniform => {
                let (warmup, measure) = if tiny { (20, 40) } else { (30, 60) };
                format!(
                    "{{\n  \"name\": \"global_uniform\",\n  \
                     \"topology\": {{\"family\": \"switchless\", \"params\": {{\"preset\": \"radix16\"}}}},\n  \
                     \"oracle\": {{\"route\": \"minimal\", \"vcs\": \"baseline\"}},\n  \
                     \"sim\": {{\"warmup_cycles\": {warmup}, \"measure_cycles\": {measure}, \"seed\": {sim_seed}}},\n  \
                     {common},\n  \
                     \"traffic\": {{\"pattern\": \"uniform\"}},\n  \
                     \"run\": {{\"kind\": \"open_loop\", \"rates_chip\": [0.3, 0.9]}}\n}}\n"
                )
            }
            Workload::ServingMix => {
                // A fixed arrival trace (one job every `gap` cycles) and three
                // classes of 1920 payload flits per job each, so the seed moves
                // the class mix and placements but hardly the amount of work:
                // with Poisson arrivals and unequal classes, one seed's run
                // did 25% more flit-hops than another's.
                let (jobs, gap) = if tiny { (4, 500) } else { (200, 50) };
                let cycles: Vec<String> = (0..jobs).map(|j| (j * gap).to_string()).collect();
                let cycles = cycles.join(", ");
                format!(
                    "{{\n  \"name\": \"serving_mix\",\n  \
                     \"topology\": {{\"family\": \"switchbased\", \"params\": {{\"preset\": \"radix16\"}}}},\n  \
                     \"oracle\": {{\"route\": \"minimal\"}},\n  \
                     \"sim\": {{\"seed\": {sim_seed}}},\n  \
                     {common},\n  \
                     \"run\": {{\n    \"kind\": \"serving\", \"seed\": {run_seed}, \"max_jobs\": {jobs},\n    \
                     \"arrivals\": {{\"process\": \"trace\", \"cycles\": [{cycles}]}},\n    \
                     \"classes\": [\n      \
                     {{\"name\": \"allreduce\", \"collective\": \"ring_allreduce\", \"flits\": 64, \
                     \"participants\": 16, \"placement\": \"block\", \"weight\": 1}},\n      \
                     {{\"name\": \"pipeline\", \"collective\": \"pipeline\", \"flits\": 32, \"microbatches\": 4, \
                     \"participants\": 16, \"placement\": \"strided\", \"weight\": 1}},\n      \
                     {{\"name\": \"shuffle\", \"collective\": \"all_to_all\", \"flits\": 8, \
                     \"participants\": 16, \"placement\": \"overlapping\", \"weight\": 1}}\n    ]\n  }}\n}}\n"
                )
            }
            Workload::FaultSweep => {
                let (warmup, measure) = if tiny { (20, 40) } else { (50, 100) };
                format!(
                    "{{\n  \"name\": \"fault_sweep\",\n  \
                     \"topology\": {{\"family\": \"switchless\", \"params\": {{\"preset\": \"radix16\", \"wgroups\": 10}}}},\n  \
                     \"oracle\": {{\"route\": \"minimal\", \"vcs\": \"baseline\"}},\n  \
                     \"sim\": {{\"warmup_cycles\": {warmup}, \"measure_cycles\": {measure}, \"seed\": {sim_seed}}},\n  \
                     {common},\n  \
                     \"traffic\": {{\"pattern\": \"uniform\"}},\n  \
                     \"run\": {{\"kind\": \"resilience\", \"rate_chip\": 0.3, \
                     \"fractions\": [0, 0.02, 0.05, 0.1, 0.2], \"router_ratio\": 0.5, \
                     \"seed\": {run_seed}, \"collective_flits\": 0}}\n}}\n"
                )
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_round_trip() {
        for w in Workload::ALL {
            assert_eq!(Workload::from_name(w.name()), Some(w));
        }
        assert_eq!(Workload::from_name("nope"), None);
    }

    #[test]
    fn scenarios_parse_and_follow_the_seed() {
        for w in Workload::ALL {
            for size in [Size::Full, Size::Tiny] {
                let a = wsdf::Scenario::from_json_str(&w.scenario_json(3, size)).unwrap();
                let b = wsdf::Scenario::from_json_str(&w.scenario_json(4, size)).unwrap();
                assert_eq!(a.name, w.name());
                assert_ne!(a.sim.seed, b.sim.seed);
                if w != Workload::GlobalUniform {
                    assert_ne!(a.run, b.run, "{}: run seed must follow the seed", w.name());
                }
            }
        }
    }
}
