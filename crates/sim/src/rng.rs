//! Deterministic, splittable pseudo-random number generation.
//!
//! Every endpoint (and every other stochastic agent) owns an independent
//! [`SplitMix64`] stream derived from the global seed and its own id, so the
//! generated traffic is identical whether the engine runs sequentially or
//! BSP-parallel, and regardless of partition count. SplitMix64 is the
//! standard seeding/splitting generator (Steele et al., OOPSLA'14); it is
//! statistically solid for workload generation and extremely cheap.

/// A 64-bit SplitMix PRNG. `Copy` on purpose: streams are tiny and freely
/// duplicated into per-partition state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// Create a stream from a raw seed.
    pub fn new(seed: u64) -> Self {
        Self { state: seed }
    }

    /// Derive an independent stream for agent `id` under global `seed`.
    ///
    /// The golden-ratio stride guarantees distinct, well-separated state
    /// trajectories for consecutive ids.
    pub fn for_agent(seed: u64, id: u64) -> Self {
        let mut s = Self::new(seed ^ id.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        // Burn a few outputs so nearby seeds decorrelate immediately.
        s.next_u64();
        s.next_u64();
        s
    }

    /// Derive a stream keyed on `(seed, id, cycle)`: the same key always
    /// yields the same stream, regardless of any draws made at other
    /// cycles. This is what makes idle fast-forward sound for open-loop
    /// traffic — an endpoint's draws at cycle `c` are a pure function of
    /// the key, not of how many earlier cycles were simulated densely.
    #[inline]
    pub fn for_event(seed: u64, id: u64, cycle: u64) -> Self {
        let mut s = Self::new(
            seed ^ id.wrapping_mul(0x9E37_79B9_7F4A_7C15)
                ^ cycle.wrapping_mul(0x2545_F491_4F6C_DD1D),
        );
        // Burn a few outputs so nearby keys decorrelate immediately.
        s.next_u64();
        s.next_u64();
        s
    }

    /// Next raw 64-bit output.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform float in `[0, 1)`.
    #[inline]
    pub fn next_f64(&mut self) -> f64 {
        // 53 random mantissa bits.
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform integer in `[0, bound)`. `bound` must be non-zero.
    ///
    /// Lemire's multiply-shift method with rejection for exact uniformity.
    #[inline]
    pub fn next_below(&mut self, bound: u64) -> u64 {
        debug_assert!(bound > 0);
        loop {
            let x = self.next_u64();
            let m = (x as u128) * (bound as u128);
            let lo = m as u64;
            if lo >= bound || lo >= (u64::MAX - bound + 1) % bound {
                return (m >> 64) as u64;
            }
        }
    }

    /// Bernoulli trial with probability `p`.
    #[inline]
    pub fn chance(&mut self, p: f64) -> bool {
        self.next_f64() < p
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_across_instances() {
        let mut a = SplitMix64::for_agent(42, 7);
        let mut b = SplitMix64::for_agent(42, 7);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn distinct_agents_diverge() {
        let mut a = SplitMix64::for_agent(42, 7);
        let mut b = SplitMix64::for_agent(42, 8);
        let same = (0..32).filter(|_| a.next_u64() == b.next_u64()).count();
        assert_eq!(same, 0);
    }

    #[test]
    fn event_key_is_history_independent() {
        // The stream at (seed, id, cycle) must not depend on draws made at
        // any other cycle — the property fast-forward relies on.
        let mut a = SplitMix64::for_event(42, 7, 1000);
        let mut warm = SplitMix64::for_event(42, 7, 999);
        for _ in 0..17 {
            warm.next_u64(); // unrelated draws at another cycle
        }
        let mut b = SplitMix64::for_event(42, 7, 1000);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn event_keys_diverge_across_cycles() {
        let mut a = SplitMix64::for_event(42, 7, 1000);
        let mut b = SplitMix64::for_event(42, 7, 1001);
        let same = (0..32).filter(|_| a.next_u64() == b.next_u64()).count();
        assert_eq!(same, 0);
    }

    #[test]
    fn event_keys_diverge_across_agents() {
        let mut a = SplitMix64::for_event(42, 7, 1000);
        let mut b = SplitMix64::for_event(42, 8, 1000);
        let same = (0..32).filter(|_| a.next_u64() == b.next_u64()).count();
        assert_eq!(same, 0);
    }

    #[test]
    fn f64_in_unit_interval() {
        let mut r = SplitMix64::new(1);
        for _ in 0..10_000 {
            let x = r.next_f64();
            assert!((0.0..1.0).contains(&x));
        }
    }

    #[test]
    fn below_bound_is_uniform_enough() {
        let mut r = SplitMix64::new(99);
        let mut counts = [0usize; 10];
        let n = 100_000;
        for _ in 0..n {
            counts[r.next_below(10) as usize] += 1;
        }
        for &c in &counts {
            // Each bucket should land near n/10 (chi-square would be stricter;
            // a 10% tolerance catches gross bias and stays flake-free).
            assert!((c as f64 - n as f64 / 10.0).abs() < n as f64 * 0.01);
        }
    }

    #[test]
    fn below_one_is_zero() {
        let mut r = SplitMix64::new(3);
        for _ in 0..100 {
            assert_eq!(r.next_below(1), 0);
        }
    }

    #[test]
    fn chance_extremes() {
        let mut r = SplitMix64::new(5);
        for _ in 0..100 {
            assert!(!r.chance(0.0));
            assert!(r.chance(1.0));
        }
    }
}
