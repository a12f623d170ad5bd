//! Seeded input generation: SplitMix64, so the same `--seed` always yields
//! the same inputs.

pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x9E37_79B9_7F4A_7C15)
    }

    /// An independent stream for `(seed, label)`.
    pub fn stream(seed: u64, label: &str) -> Rng {
        let mut rng = Rng::new(seed);
        for byte in label.bytes() {
            rng.0 ^= u64::from(byte);
            rng.next_u64();
        }
        rng
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// A failure-rate scale in `[0.9, 1.1]`, rounded to four decimals and
    /// never exactly 1, so the scaled spec is a distinct registry key.
    pub fn rate_scale(&mut self) -> f64 {
        loop {
            let scale = (0.9 + 0.2 * self.unit()) * 1e4;
            let scale = scale.round() / 1e4;
            if scale != 1.0 {
                return scale;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream_and_streams_differ() {
        let a: Vec<u64> = (0..4).map(|_| Rng::stream(7, "x").next_u64()).collect();
        assert!(a.windows(2).all(|w| w[0] == w[1]));
        assert_ne!(
            Rng::stream(7, "x").next_u64(),
            Rng::stream(8, "x").next_u64()
        );
        assert_ne!(
            Rng::stream(7, "x").next_u64(),
            Rng::stream(7, "y").next_u64()
        );
    }

    #[test]
    fn rate_scales_stay_in_range() {
        let mut rng = Rng::new(3);
        for _ in 0..1000 {
            let s = rng.rate_scale();
            assert!((0.9..=1.1).contains(&s) && s != 1.0);
        }
    }
}
