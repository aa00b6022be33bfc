//! The target registry behind the `repro` binary.
//!
//! Every runnable target is one [`Target`] entry: name, description, and a
//! runner producing a [`TargetOutput`] (rendered text plus named JSON
//! artifacts). The binary, the `--list` output, the unknown-target error,
//! and the coverage test in `tests/targets.rs` all read this one table, so
//! a target cannot be registered without a working runner or vice versa.
//!
//! Aggregate targets (`tables`, `figures`, `all`) are member lists over
//! the same table ([`aggregate_members`]), not separate code paths.

use crate::{
    collectives, figures, json_array, partition_stats, resilience, serving, tables, Effort,
};
use wsdf::{ResilienceReport, ServingReport, WorkloadReport};

/// Output of one target run: human-readable text plus `(id, json)` pairs
/// for `--json DIR` serialization.
#[derive(Debug, Clone, Default)]
pub struct TargetOutput {
    /// Rendered text (what the binary prints to stdout).
    pub text: String,
    /// JSON artifacts, written to `DIR/<id>.json` under `--json`.
    pub json: Vec<(String, String)>,
}

impl TargetOutput {
    fn text(text: String) -> Self {
        TargetOutput {
            text,
            json: Vec::new(),
        }
    }

    fn merge(&mut self, other: TargetOutput) {
        self.text.push_str(&other.text);
        self.json.extend(other.json);
    }
}

/// Listing group for a leaf target: `--list` prints targets under these
/// headings instead of one flat block.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Category {
    /// Closed-form tables and parameter dumps.
    Tables,
    /// Paper figures (open-loop load-latency sweeps, energy).
    Figures,
    /// Saturation-seeking and other adaptive sweeps.
    Sweeps,
    /// Closed-loop collective and multi-tenant serving workloads.
    Workloads,
    /// Partition quality, fault injection, and other diagnostics.
    Diagnostics,
}

impl Category {
    /// The `--list` heading.
    pub fn heading(self) -> &'static str {
        match self {
            Category::Tables => "tables",
            Category::Figures => "figures",
            Category::Sweeps => "sweeps",
            Category::Workloads => "workloads",
            Category::Diagnostics => "diagnostics",
        }
    }
}

/// Heading display order in [`listing`].
const CATEGORIES: &[Category] = &[
    Category::Tables,
    Category::Figures,
    Category::Sweeps,
    Category::Workloads,
    Category::Diagnostics,
];

/// One runnable target.
pub struct Target {
    /// CLI name.
    pub name: &'static str,
    /// One-line description (`--list`).
    pub desc: &'static str,
    /// Listing group (`--list` heading).
    pub category: Category,
    /// Full-system scale (radix-16/32 at 41/145 groups): minutes-long
    /// even in release builds (fig11 alone is ~2.5 CPU-minutes at
    /// `--smoke`), so neither the dev-profile coverage test nor CI runs
    /// them; the coverage test asserts they resolve to runners, and they
    /// stay runnable on demand via `repro <target> --smoke`.
    pub full_scale: bool,
    /// The runner.
    pub run: fn(Effort) -> TargetOutput,
}

fn figs(figs: Vec<wsdf::Figure>) -> TargetOutput {
    let mut out = TargetOutput::default();
    for f in figs {
        out.text.push_str(&f.render());
        out.text.push('\n');
        out.json.push((f.id.clone(), f.to_json()));
    }
    out
}

/// Every *leaf* target (aggregates are separate; see
/// [`aggregate_members`]).
pub const TARGETS: &[Target] = &[
    Target {
        name: "table1",
        desc: "Table I: topology comparison (closed form)",
        category: Category::Tables,
        full_scale: false,
        run: |_| TargetOutput::text(tables::table_i()),
    },
    Target {
        name: "table2",
        desc: "Table II: network cost model",
        category: Category::Tables,
        full_scale: false,
        run: |_| TargetOutput::text(tables::table_ii()),
    },
    Target {
        name: "table3",
        desc: "Table III: wafer/system scale parameters",
        category: Category::Tables,
        full_scale: false,
        run: |_| TargetOutput::text(tables::table_iii_text()),
    },
    Target {
        name: "table4",
        desc: "Table IV: simulation parameters",
        category: Category::Tables,
        full_scale: false,
        run: |_| TargetOutput::text(tables::table_iv()),
    },
    Target {
        name: "equations",
        desc: "Closed-form equation summary (diameter, cost)",
        category: Category::Tables,
        full_scale: false,
        run: |_| TargetOutput::text(tables::equations_summary()),
    },
    Target {
        name: "fig9",
        desc: "Fig. 9: wafer layout and bandwidth budget",
        category: Category::Tables,
        full_scale: false,
        run: |_| TargetOutput::text(tables::fig9()),
    },
    Target {
        name: "fig10ab",
        desc: "Fig. 10(a,b): intra-C-group latency, mesh vs switch",
        category: Category::Figures,
        full_scale: false,
        run: |e| figs(figures::fig10ab(e)),
    },
    Target {
        name: "fig10cf",
        desc: "Fig. 10(c-f): intra-W-group latency, four patterns",
        category: Category::Figures,
        full_scale: false,
        run: |e| figs(figures::fig10cf(e)),
    },
    Target {
        name: "fig11",
        desc: "Fig. 11: full radix-16 system, uniform + bit-reverse",
        category: Category::Figures,
        full_scale: true,
        run: |e| figs(figures::fig11(e)),
    },
    Target {
        name: "fig12",
        desc: "Fig. 12: radix-32 system latency",
        category: Category::Figures,
        full_scale: true,
        run: |e| figs(figures::fig12(e)),
    },
    Target {
        name: "fig13",
        desc: "Fig. 13: adversarial patterns, minimal vs Valiant",
        category: Category::Figures,
        full_scale: true,
        run: |e| figs(figures::fig13(e)),
    },
    Target {
        name: "fig14",
        desc: "Fig. 14: ring-allreduce collectives (open-loop sweeps)",
        category: Category::Figures,
        full_scale: false,
        run: |e| figs(figures::fig14(e)),
    },
    Target {
        name: "fig15",
        desc: "Fig. 15: energy per bit by channel class",
        category: Category::Figures,
        full_scale: true,
        run: |e| {
            let groups = figures::fig15(e);
            TargetOutput {
                text: figures::render_fig15(&groups),
                json: vec![("fig15".into(), figures::fig15_json(&groups))],
            }
        },
    },
    Target {
        name: "ablation",
        desc: "VC-scheme ablation (Baseline vs Reduced)",
        category: Category::Figures,
        full_scale: false,
        run: |e| figs(figures::vc_ablation(e)),
    },
    Target {
        name: "saturation",
        desc: "Adaptive saturation knee search, headline benches",
        category: Category::Sweeps,
        full_scale: false,
        run: |e| {
            let scan = figures::saturation_scan(e);
            TargetOutput {
                text: figures::render_saturation(&scan),
                json: vec![(
                    "saturation".into(),
                    json_array(&scan, |(label, report)| report.to_json(label)),
                )],
            }
        },
    },
    Target {
        name: "collectives",
        desc: "Closed-loop collectives: completion cycles on both families, \
               verified over partitions {1,2,4}",
        category: Category::Workloads,
        full_scale: false,
        run: |e| {
            let reports = collectives::collectives(e);
            TargetOutput {
                text: collectives::render_collectives(&reports),
                json: vec![(
                    "collectives".into(),
                    json_array(&reports, WorkloadReport::to_json),
                )],
            }
        },
    },
    Target {
        name: "serving",
        desc: "Multi-tenant serving: concurrent job mix on both families, \
               SLO percentiles + fairness, verified over partitions {1,2,4}",
        category: Category::Workloads,
        full_scale: false,
        run: |e| {
            let reports = serving::serving(e);
            TargetOutput {
                text: serving::render_serving(&reports),
                json: vec![(
                    "serving".into(),
                    json_array(&reports, ServingReport::to_json),
                )],
            }
        },
    },
    Target {
        name: "partition-stats",
        desc: "Partition quality: locality partitioner vs contiguous blocks \
               (cut channels, balance, boundary flit traffic)",
        category: Category::Diagnostics,
        full_scale: false,
        run: |e| {
            let reports = partition_stats::partition_stats_suite(e);
            TargetOutput {
                text: partition_stats::render_partition_stats(&reports),
                json: vec![(
                    "partition-stats".into(),
                    partition_stats::partition_stats_json(&reports),
                )],
            }
        },
    },
    Target {
        name: "resilience",
        desc: "Fault-injection degradation: throughput/latency/allreduce vs \
               fault fraction, verified over partitions {1,2,4}",
        category: Category::Diagnostics,
        full_scale: false,
        run: |e| {
            let reports = resilience::resilience(e);
            TargetOutput {
                text: resilience::render_resilience(&reports),
                json: vec![(
                    "resilience".into(),
                    json_array(&reports, ResilienceReport::to_json),
                )],
            }
        },
    },
];

/// Members of an aggregate target, or `None` if `name` is not an
/// aggregate. Member names always resolve in [`TARGETS`] (the coverage
/// test pins this down).
pub fn aggregate_members(name: &str) -> Option<&'static [&'static str]> {
    match name {
        "tables" => Some(&["table1", "table2", "table3", "table4", "equations", "fig9"]),
        "figures" => Some(&[
            "fig10ab", "fig10cf", "fig11", "fig12", "fig13", "fig14", "ablation", "fig15",
        ]),
        "all" => Some(&[
            "table1",
            "table2",
            "table3",
            "table4",
            "equations",
            "fig9",
            "fig10ab",
            "fig10cf",
            "fig11",
            "fig12",
            "fig13",
            "fig14",
            "ablation",
            "fig15",
            "saturation",
            "collectives",
            "serving",
            "partition-stats",
            "resilience",
        ]),
        _ => None,
    }
}

/// The aggregates, with descriptions (for `--list`).
pub const AGGREGATES: &[(&str, &str)] = &[
    ("tables", "All tables and closed-form outputs"),
    ("figures", "All simulated figures"),
    ("all", "Everything above"),
];

/// Targets that take their own arguments, dispatched by the binary
/// outside the `fn(Effort)` table (see [`crate::scenario`]).
pub const PARAM_TARGETS: &[(&str, &str)] = &[
    (
        "scenario",
        "Run one scenario file: repro scenario <file> [--check]",
    ),
    (
        "corpus",
        "Golden scenario corpus digests: repro corpus [--update]",
    ),
    (
        "trace",
        "Streaming telemetry smoke: repro trace [--smoke] [--json DIR]",
    ),
];

/// Look up a leaf target by name.
pub fn find(name: &str) -> Option<&'static Target> {
    TARGETS.iter().find(|t| t.name == name)
}

/// Run a target (leaf or aggregate) at `effort`. `None` for unknown names.
pub fn run_target(name: &str, effort: Effort) -> Option<TargetOutput> {
    if let Some(members) = aggregate_members(name) {
        let mut out = TargetOutput::default();
        for m in members {
            out.merge(run_target(m, effort).expect("aggregate member must be registered"));
        }
        return Some(out);
    }
    find(name).map(|t| (t.run)(effort))
}

/// The `--list` output: every leaf target grouped under its
/// [`Category`] heading, then the aggregates and parameterized targets.
/// Multi-line descriptions continue indented under the name column.
pub fn listing() -> String {
    let mut s = String::from("targets:\n");
    for cat in CATEGORIES {
        s.push_str(&format!("\n{}:\n", cat.heading()));
        for t in TARGETS.iter().filter(|t| t.category == *cat) {
            s.push_str(&format!("  {:<16} {}\n", t.name, t.desc));
        }
    }
    s.push_str("\naggregates:\n");
    for (name, desc) in AGGREGATES {
        s.push_str(&format!("  {name:<16} {desc}\n"));
    }
    s.push_str("\nparameterized:\n");
    for (name, desc) in PARAM_TARGETS {
        s.push_str(&format!("  {name:<16} {desc}\n"));
    }
    s
}

/// Levenshtein edit distance; small inputs only (target names).
fn edit_distance(a: &str, b: &str) -> usize {
    let a: Vec<char> = a.chars().collect();
    let b: Vec<char> = b.chars().collect();
    let mut prev: Vec<usize> = (0..=b.len()).collect();
    for (i, ca) in a.iter().enumerate() {
        let mut row = vec![i + 1];
        for (j, cb) in b.iter().enumerate() {
            let sub = prev[j] + usize::from(ca != cb);
            row.push(sub.min(prev[j + 1] + 1).min(row[j] + 1));
        }
        prev = row;
    }
    prev[b.len()]
}

/// The nearest registered target name (leaf, aggregate, or
/// parameterized) within edit distance 2, for "did you mean" hints on
/// unknown targets. Ties resolve to the first registered name.
pub fn suggest(name: &str) -> Option<&'static str> {
    let candidates = TARGETS
        .iter()
        .map(|t| t.name)
        .chain(AGGREGATES.iter().map(|(n, _)| *n))
        .chain(PARAM_TARGETS.iter().map(|(n, _)| *n));
    candidates
        .map(|n| (edit_distance(name, n), n))
        .min_by_key(|(d, _)| *d)
        .filter(|(d, _)| *d <= 2 && *d < name.len())
        .map(|(_, n)| n)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn edit_distance_is_levenshtein() {
        assert_eq!(edit_distance("", ""), 0);
        assert_eq!(edit_distance("fig11", "fig11"), 0);
        assert_eq!(edit_distance("fig11", "fig12"), 1);
        assert_eq!(edit_distance("kitten", "sitting"), 3);
        assert_eq!(edit_distance("corpus", ""), 6);
    }

    #[test]
    fn listing_groups_targets_under_category_headings() {
        let s = listing();
        // Every heading appears exactly once, in declaration order.
        let mut pos = 0;
        for cat in CATEGORIES {
            let heading = format!("\n{}:\n", cat.heading());
            let at = s[pos..]
                .find(&heading)
                .unwrap_or_else(|| panic!("heading {:?} missing or out of order", cat.heading()));
            pos += at + heading.len();
            assert!(
                !s[pos..].contains(&heading),
                "heading {:?} repeated",
                cat.heading()
            );
        }
        // Each leaf target is listed inside its own category's section.
        let section_of = |name: &str| {
            let at = s.find(&format!("  {name} ")).unwrap_or_else(|| {
                panic!("target {name:?} missing from listing");
            });
            CATEGORIES
                .iter()
                .rfind(|c| s.find(&format!("\n{}:\n", c.heading())).unwrap() < at)
                .copied()
        };
        for t in TARGETS {
            assert_eq!(
                section_of(t.name),
                Some(t.category),
                "{} listed under the wrong heading",
                t.name
            );
        }
        // Aggregates and parameterized targets keep their own sections.
        assert!(s.contains("\naggregates:\n"));
        assert!(s.contains("\nparameterized:\n"));
        assert!(s.contains("  scenario "));
        assert!(s.contains("  corpus "));
    }

    #[test]
    fn unknown_targets_get_a_nearby_suggestion() {
        assert_eq!(suggest("scenaro"), Some("scenario"));
        assert_eq!(suggest("corpse"), Some("corpus"));
        assert_eq!(suggest("talbe1"), Some("table1"));
        assert_eq!(suggest("resilence"), Some("resilience"));
        assert_eq!(suggest("figures"), Some("figures"));
        // Nothing close: stay silent rather than mislead.
        assert_eq!(suggest("zzzzzzzz"), None);
        assert_eq!(suggest("x"), None);
    }
}
