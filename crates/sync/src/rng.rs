//! The workspace's one seeded random source: xoshiro256++ ([`Rng`]) seeded
//! through splitmix64, plus the stateless [`mix_unit`] hash that fault and
//! crash schedules key by `(seed, ordinal, stream)`. Graphs, splits, samples
//! and weights all draw from here, so a seed means the same in every crate.

use std::ops::Range;

/// The splitmix64 output function (Steele, Lea & Flood).
fn finalise(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Top 53 bits of `word` as a uniform `f64` in `[0, 1)`.
fn unit(word: u64) -> f64 {
    (word >> 11) as f64 / (1u64 << 53) as f64
}

/// Advance a splitmix64 `state` and return its next output.
pub fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    finalise(*state)
}

/// Stateless uniform in `[0, 1)` for one `(seed, ordinal, stream)` triple:
/// the n-th decision of a schedule does not depend on how many draws other
/// streams made before it.
pub fn mix_unit(seed: u64, ordinal: u64, stream: u64) -> f64 {
    unit(finalise(
        seed.wrapping_add(stream.wrapping_mul(0x9E37_79B9_7F4A_7C15))
            .wrapping_add(ordinal.wrapping_mul(0xBF58_476D_1CE4_E5B9)),
    ))
}

/// xoshiro256++ (Blackman & Vigna), state expanded from a 64-bit seed with
/// splitmix64 as its authors recommend.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Rng {
    s: [u64; 4],
}

impl Rng {
    pub fn seed_from_u64(seed: u64) -> Rng {
        let mut sm = seed;
        Rng {
            s: std::array::from_fn(|_| splitmix64(&mut sm)),
        }
    }

    pub fn next_u64(&mut self) -> u64 {
        let s = &mut self.s;
        let out = s[0].wrapping_add(s[3]).rotate_left(23).wrapping_add(s[0]);
        let t = s[1] << 17;
        s[2] ^= s[0];
        s[3] ^= s[1];
        s[1] ^= s[2];
        s[0] ^= s[3];
        s[2] ^= t;
        s[3] = s[3].rotate_left(45);
        out
    }

    /// Unbiased uniform in `[0, n)` (Lemire's multiply-shift with
    /// rejection). Panics on `n == 0`.
    pub fn below(&mut self, n: usize) -> usize {
        assert!(n > 0, "Rng::below: empty range");
        let n = n as u64;
        let threshold = n.wrapping_neg() % n;
        loop {
            let m = (self.next_u64() as u128) * (n as u128);
            if (m as u64) >= threshold {
                return (m >> 64) as usize;
            }
        }
    }

    /// Uniform `f64` in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        unit(self.next_u64())
    }

    /// Uniform `f32` in the half-open `range`.
    pub fn f32(&mut self, range: Range<f32>) -> f32 {
        assert!(range.start < range.end, "Rng::f32: empty range");
        loop {
            let v = range.start + (range.end - range.start) * self.unit() as f32;
            // Rounding can land exactly on `end`; redraw to stay half-open.
            if v < range.end {
                return v;
            }
        }
    }

    /// `true` with probability `p`.
    pub fn bool(&mut self, p: f64) -> bool {
        assert!((0.0..=1.0).contains(&p), "Rng::bool: p={p} outside [0, 1]");
        self.unit() < p
    }

    /// Fisher–Yates shuffle, drawing `below(i + 1)` for `i` from the back.
    pub fn shuffle<T>(&mut self, xs: &mut [T]) {
        for i in (1..xs.len()).rev() {
            xs.swap(i, self.below(i + 1));
        }
    }
}

/// Seeded-case loop for property tests: run `body` once per seed in
/// `0..n`, each with its own [`Rng`]. A failing case prints its seed before
/// the panic propagates, so it can be replayed alone.
pub fn cases(n: u64, mut body: impl FnMut(&mut Rng)) {
    for seed in 0..n {
        let case = std::panic::AssertUnwindSafe(|| body(&mut Rng::seed_from_u64(seed)));
        if let Err(panic) = std::panic::catch_unwind(case) {
            eprintln!("property failed at case seed {seed}");
            std::panic::resume_unwind(panic);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::array::from_fn;

    /// Literals are what `benchmark/vendor/rand` (the generator every
    /// earlier benchmark build linked) draws for the same calls from
    /// `StdRng::seed_from_u64(7)`: seeded artifacts do not move.
    #[test]
    fn stream_is_identical_to_the_benchmark_builds_generator() {
        let mut r = Rng::seed_from_u64(7);
        let words = [r.next_u64(), r.next_u64()];
        assert_eq!(words, [0x0e2c_1a00_2aae_913d, 0x2c0f_c8dd_fa4e_9e14]);
        r = Rng::seed_from_u64(7);
        assert_eq!(from_fn(|_| r.below(10)), [0, 1, 7, 4, 9, 4, 7, 3]);
        // `gen_range(0..=i)` for i = 8..=1, i.e. one nine-element shuffle.
        let mut shuffled: [usize; 9] = from_fn(|i| i);
        let mut by_hand = shuffled;
        r.clone().shuffle(&mut shuffled);
        for (i, j) in (1..9).rev().zip([8, 0, 0, 1, 3, 0, 1, 0]) {
            assert_eq!(r.below(i + 1), j);
            by_hand.swap(i, j);
        }
        assert_eq!(shuffled, by_hand);
        assert_eq!(from_fn(|_| 3 + r.below(4)), [3, 3, 3, 6]);
        let floats: [u32; 4] = from_fn(|_| r.f32(-0.5..0.5).to_bits());
        assert_eq!(floats, [0x3e33_d5ac, 0xbdaa_b30c, 0x3e95_c9c2, 0x3cfc_dac0]);
        let units: [u64; 2] = from_fn(|_| r.unit().to_bits());
        assert_eq!(units, [0x3fea_f8ff_8bab_b55f, 0x3f77_b70b_eb6f_8180]);
        let hits: Vec<usize> = (0..18).filter(|_| r.bool(0.3)).collect();
        assert_eq!(hits, [0, 1, 3, 5, 10, 16]);
        assert_eq!(r.next_u64(), 0x2495_f392_bb18_ce79);
    }

    #[test]
    fn draws_stay_in_bounds_cover_them_and_honour_certain_bools() {
        cases(4, |r| {
            let mut seen = [false; 5];
            for _ in 0..500 {
                seen[r.below(5)] = true;
                assert!((-1.0..1.0).contains(&r.f32(-1.0..1.0)));
                assert!((0.0..1.0).contains(&r.unit()));
                assert!(!r.bool(0.0) && r.bool(1.0));
            }
            assert!(seen.iter().all(|&s| s), "some bucket of 0..5 never drawn");
        });
        assert_ne!(Rng::seed_from_u64(1), Rng::seed_from_u64(2));
        assert!((0..64).all(|i| (0.0..1.0).contains(&mix_unit(9, i, 3))));
        assert_ne!(mix_unit(9, 0, 3), mix_unit(9, 1, 3));
    }
}
