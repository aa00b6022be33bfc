//! The reference pass: a fixed kernel, independent of the simulator, that
//! measures how fast the host runs at the moment.
//!
//! On a shared virtual machine the speed of the whole host drifts by up
//! to ±15% over a minute or two (other tenants change the core clock and
//! share the last-level cache), and every timing moves with it in
//! proportion: set-up, stepping and a plain loop alike. End-to-end mode
//! times this pass beside the workload runs and divides by it, which
//! cancels that drift. The pass is benchmark code that uses nothing from
//! the simulator, so a change to the simulator cannot move it.

use std::hint::black_box;
use std::time::Instant;

/// Words in the table: 8 MiB, beyond a core's private caches, as the
/// simulator's fabric state is.
const WORDS: usize = 1 << 21;
/// Independent walks, interleaved so several loads are in flight at once.
const WALKS: usize = 8;
/// Steps of each walk in one pass.
const STEPS: usize = 1 << 18;

/// SplitMix64 finaliser: a fixed, well-mixed function of `x`.
fn mix(mut x: u64) -> u64 {
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// The reference table, built once per process.
pub struct Reference {
    table: Vec<u32>,
}

impl Default for Reference {
    fn default() -> Self {
        Reference::new()
    }
}

impl Reference {
    /// Build the table (pseudo-random successors, the same every time).
    pub fn new() -> Reference {
        Reference {
            table: (0..WORDS as u64).map(|i| mix(i) as u32).collect(),
        }
    }

    /// One pass: `WALKS` random walks of `STEPS` dependent loads each,
    /// every load feeding a few integer operations. Returns the checksum,
    /// which is the same on every pass.
    pub fn pass(&self) -> u64 {
        let mask = WORDS - 1;
        let mut at = [0usize; WALKS];
        for (w, a) in at.iter_mut().enumerate() {
            *a = w * (WORDS / WALKS);
        }
        let mut sum = 0u64;
        for step in 0..STEPS {
            for a in at.iter_mut() {
                let v = self.table[*a];
                // Adding the step keeps a walk off the short cycles a
                // random successor table has.
                *a = (v as usize).wrapping_add(step) & mask;
                sum = sum.rotate_left(5) ^ u64::from(v).wrapping_mul(0x9e37_79b9_7f4a_7c15);
            }
        }
        black_box(sum)
    }

    /// Time one pass; returns the seconds and the checksum.
    pub fn timed_pass(&self) -> (f64, u64) {
        let t = Instant::now();
        let sum = self.pass();
        (t.elapsed().as_secs_f64(), sum)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn passes_repeat() {
        let r = Reference::new();
        let (t, a) = r.timed_pass();
        assert!(t > 0.0);
        assert_eq!(a, r.pass());
        assert_ne!(a, 0);
    }
}
