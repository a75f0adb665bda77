//! Offline stand-in for the `rand` crate.
//!
//! Implements only the surface this workspace uses: [`rngs::SmallRng`]
//! seeded via [`SeedableRng::seed_from_u64`], [`Rng::gen_range`] over
//! half-open integer ranges, and [`seq::SliceRandom::shuffle`].
//!
//! The generator is xorshift64\* with a splitmix64 seed expansion: fast,
//! `Clone`-able, small enough to live inside every LP's state (so a stream
//! follows its LP's event order under every scheduler), and
//! platform-independent. Streams are **not** compatible
//! with upstream `rand`; the workspace only relies on determinism for a
//! fixed seed, never on specific stream values.

/// A source of 64-bit randomness.
pub trait RngCore {
    fn next_u64(&mut self) -> u64;

    fn next_u32(&mut self) -> u32 {
        (self.next_u64() >> 32) as u32
    }
}

/// Construction from a 64-bit seed (the only constructor the workspace
/// uses; full `from_seed` byte-array seeding is deliberately omitted).
pub trait SeedableRng: Sized {
    fn seed_from_u64(seed: u64) -> Self;
}

/// splitmix64: expands a (possibly tiny) seed into a well-mixed state.
#[inline]
fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Integer types usable with [`Rng::gen_range`].
pub trait SampleUniform: Copy + PartialOrd {
    /// Width of `lo..hi` as a `u64` (caller guarantees `lo < hi`).
    fn span(lo: Self, hi: Self) -> u64;
    /// `lo + idx` (caller guarantees the result is below `hi`).
    fn offset(lo: Self, idx: u64) -> Self;
}

macro_rules! impl_sample_uniform_unsigned {
    ($($t:ty),*) => {$(
        impl SampleUniform for $t {
            #[inline]
            fn span(lo: Self, hi: Self) -> u64 {
                (hi - lo) as u64
            }
            #[inline]
            fn offset(lo: Self, idx: u64) -> Self {
                lo + idx as $t
            }
        }
    )*};
}
impl_sample_uniform_unsigned!(u8, u16, u32, u64, usize);

macro_rules! impl_sample_uniform_signed {
    ($($t:ty),*) => {$(
        impl SampleUniform for $t {
            #[inline]
            fn span(lo: Self, hi: Self) -> u64 {
                hi.wrapping_sub(lo) as u64
            }
            #[inline]
            fn offset(lo: Self, idx: u64) -> Self {
                lo.wrapping_add(idx as $t)
            }
        }
    )*};
}
impl_sample_uniform_signed!(i8, i16, i32, i64, isize);

/// Convenience sampling methods, blanket-implemented for every
/// [`RngCore`].
pub trait Rng: RngCore {
    /// Uniform sample from `range` (modulo reduction; the negligible bias
    /// is irrelevant here — we need determinism, not cryptography).
    #[inline]
    fn gen_range<T: SampleUniform>(&mut self, range: core::ops::Range<T>) -> T {
        assert!(range.start < range.end, "gen_range called with empty range");
        let span = T::span(range.start, range.end);
        T::offset(range.start, self.next_u64() % span)
    }

    /// `true` with probability `p`.
    #[inline]
    fn gen_bool(&mut self, p: f64) -> bool {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64) < p
    }
}

impl<R: RngCore + ?Sized> Rng for R {}

pub mod rngs {
    use super::{splitmix64, RngCore, SeedableRng};

    /// A small, fast, cloneable PRNG (xorshift64\*).
    #[derive(Clone, Debug, PartialEq, Eq)]
    pub struct SmallRng {
        state: u64,
    }

    impl SeedableRng for SmallRng {
        fn seed_from_u64(seed: u64) -> Self {
            let mut state = splitmix64(seed);
            if state == 0 {
                state = 0x9E37_79B9_7F4A_7C15; // xorshift state must be nonzero
            }
            SmallRng { state }
        }
    }

    impl RngCore for SmallRng {
        #[inline]
        fn next_u64(&mut self) -> u64 {
            let mut x = self.state;
            x ^= x >> 12;
            x ^= x << 25;
            x ^= x >> 27;
            self.state = x;
            x.wrapping_mul(0x2545_F491_4F6C_DD1D)
        }
    }
}

pub mod seq {
    use super::Rng;

    /// Slice shuffling (Fisher–Yates).
    pub trait SliceRandom {
        fn shuffle<R: Rng + ?Sized>(&mut self, rng: &mut R);
    }

    impl<T> SliceRandom for [T] {
        fn shuffle<R: Rng + ?Sized>(&mut self, rng: &mut R) {
            for i in (1..self.len()).rev() {
                let j = rng.gen_range(0..i + 1);
                self.swap(i, j);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::rngs::SmallRng;
    use super::seq::SliceRandom;
    use super::{Rng, SeedableRng};

    #[test]
    fn deterministic_for_fixed_seed() {
        let mut a = SmallRng::seed_from_u64(42);
        let mut b = SmallRng::seed_from_u64(42);
        for _ in 0..100 {
            assert_eq!(a.gen_range(0u64..1_000_000), b.gen_range(0u64..1_000_000));
        }
    }

    #[test]
    fn clone_preserves_stream() {
        let mut a = SmallRng::seed_from_u64(7);
        let _ = a.gen_range(0u32..100);
        let mut b = a.clone();
        assert_eq!(a.gen_range(0u32..100), b.gen_range(0u32..100));
    }

    #[test]
    fn ranges_stay_in_bounds() {
        let mut rng = SmallRng::seed_from_u64(3);
        for _ in 0..1000 {
            let v = rng.gen_range(5u32..17);
            assert!((5..17).contains(&v));
            let w = rng.gen_range(-4i64..9);
            assert!((-4..9).contains(&w));
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = SmallRng::seed_from_u64(1);
        let mut b = SmallRng::seed_from_u64(2);
        let va: Vec<u64> = (0..8).map(|_| a.gen_range(0u64..u64::MAX / 2)).collect();
        let vb: Vec<u64> = (0..8).map(|_| b.gen_range(0u64..u64::MAX / 2)).collect();
        assert_ne!(va, vb);
    }

    #[test]
    fn shuffle_is_a_permutation() {
        let mut rng = SmallRng::seed_from_u64(11);
        let mut v: Vec<u32> = (0..50).collect();
        v.shuffle(&mut rng);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<u32>>());
        assert_ne!(v, sorted, "shuffle left the identity permutation");
    }
}
