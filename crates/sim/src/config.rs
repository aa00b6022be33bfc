//! Simulation parameters (Table IV of the paper).

/// Engine configuration. `Default` reproduces Table IV exactly.
#[derive(Debug, Clone)]
pub struct SimConfig {
    /// Packet length in flits (Table IV: 4).
    pub packet_len: u8,
    /// Input buffer capacity per (port, VC) in flits (Table IV: 32).
    pub buffer_flits: u16,
    /// Number of virtual channels per port. Must cover the routing policy's
    /// maximum VC index + 1.
    pub num_vcs: u8,
    /// Measured cycles after warm-up (Table IV: 10000 total incl. 5000 warm-up
    /// — i.e. 5000 measured).
    pub measure_cycles: u64,
    /// Warm-up cycles excluded from statistics (Table IV: 5000).
    pub warmup_cycles: u64,
    /// Extra cycles after measurement in which injection stops and in-flight
    /// measured packets may drain (latency of measured packets is recorded
    /// whenever they arrive). 0 = open-loop snapshot only.
    pub drain_cycles: u64,
    /// Abort if no flit moves anywhere for this many consecutive cycles while
    /// flits are in flight or, in a closed-loop run, while the workload
    /// driver names no future release (deadlock detector). 0 disables.
    pub watchdog_cycles: u64,
    /// Global RNG seed.
    pub seed: u64,
    /// Number of BSP partitions; 1 = sequential. `0` = auto (executor
    /// workers).
    pub partitions: usize,
    /// Explicit router→partition assignment (length = `num_routers`,
    /// partition ids dense in `0..P`, every partition non-empty). When set
    /// it overrides [`SimConfig::partitions`] and the engine's contiguous
    /// block scheme — `wsdf_topo::locality_partition` produces cut-minimizing
    /// maps. `None` keeps the legacy contiguous blocks. Results are
    /// bit-identical for *any* valid assignment; only barrier traffic and
    /// parallel balance change.
    pub partition_map: Option<std::sync::Arc<Vec<u32>>>,
    /// Collect per-endpoint ejected-flit counts (bottleneck analysis for
    /// collectives; small memory/time overhead).
    pub per_endpoint_stats: bool,
    /// Collect per-channel flit counts (link utilization heatmaps).
    pub per_channel_stats: bool,
    /// Event-driven stepping: only routers/endpoints with pending work run
    /// each cycle, and fully idle stretches are fast-forwarded. Results
    /// are bit-identical to the dense loop (covered by
    /// `tests/event_equivalence.rs`); `false` forces the dense loop. The
    /// default honors the `WSDF_EVENT_DRIVEN` env var (`0` disables).
    pub event_driven: bool,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            packet_len: 4,
            buffer_flits: 32,
            num_vcs: 4,
            measure_cycles: 5_000,
            warmup_cycles: 5_000,
            drain_cycles: 0,
            watchdog_cycles: 2_000,
            seed: 0xD5A6_0F17,
            partitions: 1,
            partition_map: None,
            per_endpoint_stats: false,
            per_channel_stats: false,
            event_driven: event_driven_default(),
        }
    }
}

/// Process-wide default for [`SimConfig::event_driven`]: the
/// `WSDF_EVENT_DRIVEN` env var, where only the literal `0` opts out.
/// Cached so repeated `SimConfig::default()` calls cannot race a test
/// harness mutating the environment mid-run.
#[allow(clippy::disallowed_methods)] // the one WSDF_EVENT_DRIVEN reader
fn event_driven_default() -> bool {
    use std::sync::OnceLock;
    static DEFAULT: OnceLock<bool> = OnceLock::new();
    *DEFAULT.get_or_init(|| resolve_event_driven(|k| std::env::var(k).ok()))
}

/// The pure resolution rule behind [`event_driven_default`]: only the
/// literal `0` in `WSDF_EVENT_DRIVEN` selects dense stepping; anything
/// else (or unset) selects event-driven. Split out so the precedence
/// table is testable without mutating the process environment.
fn resolve_event_driven(get: impl Fn(&str) -> Option<String>) -> bool {
    get("WSDF_EVENT_DRIVEN").is_none_or(|v| v != "0")
}

impl SimConfig {
    /// Total simulated cycles (excluding drain).
    pub fn total_cycles(&self) -> u64 {
        self.warmup_cycles + self.measure_cycles
    }

    /// Scale warm-up and measurement windows by `f` (used by the harness's
    /// quick modes and by Criterion benches).
    pub fn scaled(mut self, f: f64) -> Self {
        self.warmup_cycles = ((self.warmup_cycles as f64 * f) as u64).max(1);
        self.measure_cycles = ((self.measure_cycles as f64 * f) as u64).max(1);
        self
    }

    /// Basic sanity checks.
    pub fn validate(&self) -> Result<(), String> {
        if self.packet_len == 0 {
            return Err("packet_len must be >= 1".into());
        }
        if self.buffer_flits < self.packet_len as u16 {
            return Err(format!(
                "buffer_flits ({}) must hold at least one packet ({})",
                self.buffer_flits, self.packet_len
            ));
        }
        if self.num_vcs == 0 {
            return Err("num_vcs must be >= 1".into());
        }
        if self.num_vcs > 64 {
            return Err("num_vcs must be <= 64 (router occupancy bitmaps)".into());
        }
        if self.measure_cycles == 0 {
            return Err("measure_cycles must be >= 1".into());
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_matches_table_iv() {
        let c = SimConfig::default();
        assert_eq!(c.packet_len, 4);
        assert_eq!(c.buffer_flits, 32);
        assert_eq!(c.total_cycles(), 10_000);
        assert_eq!(c.warmup_cycles, 5_000);
        c.validate().unwrap();
    }

    #[test]
    fn precedence_table_stepping() {
        let driven = |value: Option<&str>| {
            resolve_event_driven(|k| {
                assert_eq!(k, "WSDF_EVENT_DRIVEN");
                value.map(str::to_string)
            })
        };
        assert!(driven(None));
        assert!(!driven(Some("0")));
        assert!(driven(Some("1")));
        // Only the literal "0" opts out — anything else is event-driven.
        assert!(driven(Some("false")));
        assert!(driven(Some("")));
    }

    #[test]
    fn rejects_buffer_smaller_than_packet() {
        let c = SimConfig {
            buffer_flits: 2,
            ..Default::default()
        };
        assert!(c.validate().is_err());
    }

    #[test]
    fn scaled_shrinks_windows() {
        let c = SimConfig::default().scaled(0.1);
        assert_eq!(c.warmup_cycles, 500);
        assert_eq!(c.measure_cycles, 500);
    }

    #[test]
    fn rejects_degenerate() {
        assert!(SimConfig {
            packet_len: 0,
            ..Default::default()
        }
        .validate()
        .is_err());
        assert!(SimConfig {
            num_vcs: 0,
            ..Default::default()
        }
        .validate()
        .is_err());
        assert!(SimConfig {
            measure_cycles: 0,
            ..Default::default()
        }
        .validate()
        .is_err());
    }
}
