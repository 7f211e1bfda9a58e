//! Offline stand-in for `rand`, used only by the benchmark's build. Only
//! the AMR generator of `otm-workloads` draws random numbers (the two
//! traces the benchmark replays, LULESH and BigFFT, are seed-independent),
//! so a splitmix64 `SmallRng` with `gen_range`/`gen_bool` is enough.

use std::ops::Range;

pub trait SeedableRng: Sized {
    fn seed_from_u64(seed: u64) -> Self;
}

pub trait RngCore {
    fn next_u64(&mut self) -> u64;
}

/// Integer types `gen_range` can sample.
pub trait SampleUniform: Copy {
    fn sample(range: Range<Self>, word: u64) -> Self;
}

macro_rules! impl_sample_uniform {
    ($($t:ty),*) => {$(
        impl SampleUniform for $t {
            fn sample(range: Range<Self>, word: u64) -> Self {
                assert!(range.start < range.end, "cannot sample empty range");
                let span = (range.end as i128 - range.start as i128) as u128;
                (range.start as i128 + (word as u128 % span) as i128) as $t
            }
        }
    )*};
}
impl_sample_uniform!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

pub trait Rng: RngCore {
    fn gen_range<T: SampleUniform>(&mut self, range: Range<T>) -> T {
        T::sample(range, self.next_u64())
    }

    fn gen_bool(&mut self, p: f64) -> bool {
        assert!((0.0..=1.0).contains(&p), "probability out of range");
        ((self.next_u64() >> 11) as f64) < p * (1u64 << 53) as f64
    }
}

impl<R: RngCore + ?Sized> Rng for R {}

pub mod rngs {
    use super::{RngCore, SeedableRng};

    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct SmallRng(u64);

    impl SeedableRng for SmallRng {
        fn seed_from_u64(seed: u64) -> Self {
            SmallRng(seed)
        }
    }

    impl RngCore for SmallRng {
        fn next_u64(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        }
    }
}
