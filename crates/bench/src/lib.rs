//! # wsdf-bench — the reproduction harness
//!
//! One function per paper table/figure, shared between the `repro` binary
//! (full regeneration, text + JSON output) and the Criterion benches
//! (reduced-scale timing). See DESIGN.md for the experiment index and
//! EXPERIMENTS.md for recorded paper-vs-measured results.

pub mod collectives;
pub mod figures;
pub mod partition_stats;
pub mod resilience;
pub mod scenario;
pub mod serving;
pub mod tables;
pub mod targets;
pub mod trace;

/// A JSON array artifact of report documents, one per item (`doc` writes
/// an item's document): `[`, the documents separated by `,` lines, `]`.
pub fn json_array<T>(items: &[T], doc: impl Fn(&T) -> String) -> String {
    let mut s = String::from("[\n");
    for (i, item) in items.iter().enumerate() {
        s.push_str(doc(item).trim_end());
        s.push_str(if i + 1 < items.len() { ",\n" } else { "\n" });
    }
    s.push_str("]\n");
    s
}

/// Scale factor presets for simulation windows.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Effort {
    /// Tiny windows for smoke tests and Criterion.
    Smoke,
    /// Default: full windows for small fabrics, reduced for the largest.
    Standard,
    /// Table-IV-exact windows everywhere (slow at radix-32 scale).
    Full,
}

impl Effort {
    /// Window scale for a small fabric (≤ a few thousand routers).
    pub fn small(self) -> f64 {
        match self {
            Effort::Smoke => 0.08,
            Effort::Standard => 1.0,
            Effort::Full => 1.0,
        }
    }

    /// Window scale for mid-size fabrics (radix-16 full system).
    pub fn medium(self) -> f64 {
        match self {
            Effort::Smoke => 0.06,
            Effort::Standard => 0.3,
            Effort::Full => 1.0,
        }
    }

    /// Window scale for the radix-32 full system.
    pub fn large(self) -> f64 {
        match self {
            Effort::Smoke => 0.03,
            Effort::Standard => 0.1,
            Effort::Full => 1.0,
        }
    }
}
