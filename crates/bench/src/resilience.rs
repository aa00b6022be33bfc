//! The `repro resilience` target: fault-injection degradation curves on
//! both topology families.
//!
//! For each family (one radix-16 W-group switch-less, one radix-16 group
//! switch-based — the same fabrics as `repro collectives`) the suite runs
//! a [`wsdf::Session::resilience`] sweep over link/router fault fractions
//! at BSP partition counts {1, 2, 4} and *verifies the reports are
//! bit-identical* before emitting one. A mismatch is a determinism bug and
//! panics. The zero-fault point uses the pristine oracle, so the suite
//! doubles as a regression guard for the pristine sweep path.

use crate::collectives::family_benches;
use crate::Effort;
use wsdf::{PatternSpec, ResilienceConfig, ResilienceReport, Session};

/// Partition counts every fraction is verified over.
pub const PARTITIONS: &[usize] = &[1, 2, 4];

/// Link-fault fractions of the suite (router faults ride along at half the
/// link fraction — see [`ResilienceConfig::router_ratio`]).
pub const FRACTIONS: &[f64] = &[0.0, 0.05, 0.10, 0.20];

/// Suite configuration for one [`Effort`] level and partition count.
fn config(effort: Effort, partitions: usize) -> ResilienceConfig {
    let scale = effort.small();
    let mut cfg = ResilienceConfig {
        fractions: FRACTIONS.to_vec(),
        collective_flits: match effort {
            Effort::Smoke => 16,
            Effort::Standard => 128,
            Effort::Full => 512,
        },
        ..Default::default()
    }
    .scaled(scale);
    cfg.sim.partitions = partitions;
    cfg
}

/// Run the full suite: both families × [`FRACTIONS`], verified
/// bit-identical across [`PARTITIONS`], reported once per family.
///
/// # Panics
/// If any partition count changes any field of a report — that would be a
/// BSP determinism regression, not a measurement.
pub fn resilience(effort: Effort) -> Vec<ResilienceReport> {
    let mut out = Vec::new();
    for bench in family_benches() {
        let mut reports: Vec<ResilienceReport> = PARTITIONS
            .iter()
            .map(|&parts| {
                Session::bench(&bench)
                    .resilience(&config(effort, parts), PatternSpec::Uniform)
                    .unwrap()
                    .report
            })
            .collect();
        let base = reports.remove(0);
        for (r, &parts) in reports.iter().zip(&PARTITIONS[1..]) {
            assert_eq!(
                *r, base,
                "[{}] partitions={parts} diverged from partitions=1",
                bench.label
            );
        }
        out.push(base);
    }
    out
}

/// Render [`resilience`] results as text.
pub fn render_resilience(reports: &[ResilienceReport]) -> String {
    let mut s = format!(
        "== resilience — degradation under link/router faults (seeded, \
         bit-identical over partitions {PARTITIONS:?}) ==\n"
    );
    for r in reports {
        s.push_str(&r.render());
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn suite_covers_both_families_and_degrades_gracefully() {
        let reports = resilience(Effort::Smoke);
        assert_eq!(reports.len(), 2);
        let labels: Vec<&str> = reports.iter().map(|r| r.label.as_str()).collect();
        assert!(labels.contains(&"SW-less"));
        assert!(labels.contains(&"SW-based"));
        for r in &reports {
            assert_eq!(r.points.len(), FRACTIONS.len());
            // Pristine reference point first.
            assert_eq!(r.points[0].dead_links, 0);
            assert_eq!(r.points[0].unreachable_pairs, 0);
            assert!(r.points[0].completion_cycles > 0);
            // Non-zero fractions actually fail hardware on the switch-less
            // family (the switch-based group has 28 local links too).
            for p in &r.points[1..] {
                assert!(p.dead_links > 0 || p.dead_routers > 0, "{}: {p:?}", r.label);
                assert!(p.delivered > 0.0, "{}: {p:?}", r.label);
            }
        }
        // Round-trip through JSON.
        let json = crate::json_array(&reports, ResilienceReport::to_json);
        let arr = wsdf::json::Value::parse(&json).unwrap();
        assert_eq!(arr.as_arr().unwrap().len(), reports.len());
    }
}
