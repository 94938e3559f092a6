//! Offline stand-in for the `rand` crate.
//!
//! The reproduction container has no network access to crates.io, so the
//! workspace vendors the small slice of the `rand 0.8` API it actually
//! uses: the [`Rng`] extension trait (`gen`, `gen_range`, `gen_bool`),
//! [`SeedableRng::seed_from_u64`], and a deterministic [`rngs::StdRng`].
//!
//! The generator is xoshiro256** seeded through SplitMix64 — not the
//! ChaCha12 generator real `rand` uses, so streams differ from upstream
//! `rand`, but every consumer in this workspace only relies on
//! *determinism for a fixed seed*, never on a specific stream.

/// A source of random 64-bit words. The object-safe core trait; all
/// convenience methods live on [`Rng`].
pub trait RngCore {
    /// Returns the next 64 random bits.
    fn next_u64(&mut self) -> u64;
}

impl<R: RngCore + ?Sized> RngCore for &mut R {
    fn next_u64(&mut self) -> u64 {
        (**self).next_u64()
    }
}

/// Types that can be sampled uniformly by [`Rng::gen`].
pub trait Standard: Sized {
    /// Draws one value from the standard distribution for `Self`.
    fn sample_standard<R: RngCore + ?Sized>(rng: &mut R) -> Self;
}

impl Standard for u64 {
    fn sample_standard<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        rng.next_u64()
    }
}

impl Standard for u32 {
    fn sample_standard<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        (rng.next_u64() >> 32) as u32
    }
}

impl Standard for bool {
    fn sample_standard<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        rng.next_u64() & 1 == 1
    }
}

impl Standard for f64 {
    /// Uniform in `[0, 1)` with 53 bits of precision.
    fn sample_standard<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

impl Standard for f32 {
    fn sample_standard<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        (rng.next_u64() >> 40) as f32 * (1.0 / (1u32 << 24) as f32)
    }
}

/// Types [`Rng::gen_range`] can sample uniformly from a range.
///
/// Mirroring real `rand`, [`SampleRange`] is implemented *blanket* over
/// this trait (one impl per range shape, not per element type) so that
/// integer-literal ranges like `0..n` unify with the surrounding usage
/// instead of falling back to `i32`.
pub trait SampleUniform: PartialOrd + Copy {
    /// Draws uniformly from `[lo, hi)` (`inclusive = false`) or
    /// `[lo, hi]` (`inclusive = true`).
    fn sample_uniform<R: RngCore + ?Sized>(
        lo: Self,
        hi: Self,
        inclusive: bool,
        rng: &mut R,
    ) -> Self;
}

/// Range types accepted by [`Rng::gen_range`].
pub trait SampleRange<T> {
    /// Draws one value uniformly from the range.
    fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> T;
}

impl<T: SampleUniform> SampleRange<T> for core::ops::Range<T> {
    fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> T {
        assert!(self.start < self.end, "empty range in gen_range");
        T::sample_uniform(self.start, self.end, false, rng)
    }
}

impl<T: SampleUniform> SampleRange<T> for core::ops::RangeInclusive<T> {
    fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> T {
        let (lo, hi) = self.into_inner();
        assert!(lo <= hi, "empty range in gen_range");
        T::sample_uniform(lo, hi, true, rng)
    }
}

/// Draws uniformly from `[0, span)` using a widening multiply.
///
/// The modulo bias of this method is at most `span / 2^64`, which is
/// negligible for every span used in the workspace.
#[inline]
fn uniform_below<R: RngCore + ?Sized>(rng: &mut R, span: u64) -> u64 {
    ((u128::from(rng.next_u64()) * u128::from(span)) >> 64) as u64
}

macro_rules! impl_int_uniform {
    ($($t:ty),*) => {$(
        impl SampleUniform for $t {
            fn sample_uniform<R: RngCore + ?Sized>(
                lo: Self,
                hi: Self,
                inclusive: bool,
                rng: &mut R,
            ) -> Self {
                let span = (hi as i128 - lo as i128) as u64;
                if inclusive && span == u64::MAX {
                    return rng.next_u64() as $t;
                }
                let span = if inclusive { span + 1 } else { span };
                lo.wrapping_add(uniform_below(rng, span) as $t)
            }
        }
    )*};
}

impl_int_uniform!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

macro_rules! impl_float_uniform {
    ($($t:ty),*) => {$(
        impl SampleUniform for $t {
            fn sample_uniform<R: RngCore + ?Sized>(
                lo: Self,
                hi: Self,
                _inclusive: bool,
                rng: &mut R,
            ) -> Self {
                lo + (hi - lo) * (f64::sample_standard(rng) as $t)
            }
        }
    )*};
}

impl_float_uniform!(f32, f64);

/// Convenience sampling methods, mirroring `rand::Rng`.
pub trait Rng: RngCore {
    /// Samples a value from the standard distribution for `T`
    /// (`f64`/`f32` in `[0, 1)`, uniform bits for integers and `bool`).
    fn gen<T: Standard>(&mut self) -> T {
        T::sample_standard(self)
    }

    /// Samples uniformly from a half-open or inclusive range.
    fn gen_range<T, Rg: SampleRange<T>>(&mut self, range: Rg) -> T {
        range.sample_single(self)
    }

    /// Returns `true` with probability `p`.
    ///
    /// Draws one word and answers whether the `f64` sample `gen` would
    /// return from it is below `p`, but compares integers: the sample is
    /// `u·2⁻⁵³` with `u = next_u64() >> 11`, so `u·2⁻⁵³ < p` exactly when
    /// `u < ⌈p·2⁵³⌉` (both products are exact in `f64`).
    ///
    /// # Panics
    ///
    /// Panics if `p` is not in `[0, 1]`.
    fn gen_bool(&mut self, p: f64) -> bool {
        assert!(
            (0.0..=1.0).contains(&p),
            "gen_bool probability out of range: {p}"
        );
        self.next_u64() >> 11 < bool_threshold(p)
    }
}

impl<R: RngCore + ?Sized> Rng for R {}

/// `⌈p·2⁵³⌉` for `p ∈ [0, 1]`: the number of 53-bit samples `u` with
/// `u·2⁻⁵³ < p`.
#[inline]
fn bool_threshold(p: f64) -> u64 {
    let scaled = p * (1u64 << 53) as f64;
    let floor = scaled as u64;
    floor + u64::from((floor as f64) < scaled)
}

/// RNGs constructible from a seed, mirroring `rand::SeedableRng`.
pub trait SeedableRng: Sized {
    /// Builds the generator from a 64-bit seed (deterministically).
    fn seed_from_u64(seed: u64) -> Self;
}

/// Named generators, mirroring `rand::rngs`.
pub mod rngs {
    use super::{RngCore, SeedableRng};

    /// The workspace's standard deterministic generator (xoshiro256**).
    #[derive(Clone, Debug, PartialEq, Eq)]
    pub struct StdRng {
        s: [u64; 4],
    }

    impl SeedableRng for StdRng {
        fn seed_from_u64(seed: u64) -> Self {
            // Expand the seed with SplitMix64, per the xoshiro authors'
            // recommendation, so low-entropy seeds still give a good state.
            let mut z = seed;
            let mut next = move || {
                z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
                let mut w = z;
                w = (w ^ (w >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
                w = (w ^ (w >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
                w ^ (w >> 31)
            };
            StdRng {
                s: [next(), next(), next(), next()],
            }
        }
    }

    impl RngCore for StdRng {
        fn next_u64(&mut self) -> u64 {
            // xoshiro256** by Blackman & Vigna (public domain).
            let result = self.s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
            let t = self.s[1] << 17;
            self.s[2] ^= self.s[0];
            self.s[3] ^= self.s[1];
            self.s[1] ^= self.s[2];
            self.s[0] ^= self.s[3];
            self.s[2] ^= t;
            self.s[3] = self.s[3].rotate_left(45);
            result
        }
    }
}

#[cfg(test)]
mod tests {
    use super::rngs::StdRng;
    use super::{Rng, SeedableRng};

    #[test]
    fn deterministic_for_fixed_seed() {
        let mut a = StdRng::seed_from_u64(42);
        let mut b = StdRng::seed_from_u64(42);
        for _ in 0..100 {
            assert_eq!(a.gen::<u64>(), b.gen::<u64>());
        }
    }

    #[test]
    fn distinct_seeds_distinct_streams() {
        let mut a = StdRng::seed_from_u64(1);
        let mut b = StdRng::seed_from_u64(2);
        let same = (0..64).filter(|_| a.gen::<u64>() == b.gen::<u64>()).count();
        assert_eq!(same, 0);
    }

    #[test]
    fn unit_interval_and_bounds() {
        let mut rng = StdRng::seed_from_u64(7);
        for _ in 0..10_000 {
            let x: f64 = rng.gen();
            assert!((0.0..1.0).contains(&x));
            let k = rng.gen_range(3..9usize);
            assert!((3..9).contains(&k));
            let v = rng.gen_range(0..=3u8);
            assert!(v <= 3);
            let f = rng.gen_range(-2.0..5.0f64);
            assert!((-2.0..5.0).contains(&f));
        }
    }

    #[test]
    fn gen_range_hits_every_value() {
        let mut rng = StdRng::seed_from_u64(11);
        let mut seen = [false; 7];
        for _ in 0..1_000 {
            seen[rng.gen_range(0..7usize)] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn gen_bool_tracks_probability() {
        let mut rng = StdRng::seed_from_u64(3);
        let hits = (0..20_000).filter(|_| rng.gen_bool(0.25)).count();
        let frac = hits as f64 / 20_000.0;
        assert!((frac - 0.25).abs() < 0.02, "{frac}");
    }

    #[test]
    fn gen_bool_threshold_agrees_with_the_float_compare() {
        // The integer threshold must answer exactly what `gen::<f64>() < p`
        // answers: on random draws, and on the two samples either side of
        // the threshold `t`, for probabilities at and near the ends.
        let float = |u: u64, p: f64| (u as f64) * (1.0 / (1u64 << 53) as f64) < p;
        let tiny = 2f64.powi(-60);
        let ulp = 2f64.powi(-53);
        let mut rng = StdRng::seed_from_u64(17);
        for p in [0.0, tiny, ulp, 0.05, 0.3, 0.5, 1.0 - ulp, 1.0] {
            let t = super::bool_threshold(p);
            assert!(t <= 1 << 53, "{p}");
            for u in [t.wrapping_sub(1), t] {
                if u < 1 << 53 {
                    assert_eq!(u < t, float(u, p), "p {p}, u {u}");
                }
            }
            for _ in 0..10_000 {
                let u = rng.gen::<u64>() >> 11;
                assert_eq!(u < t, float(u, p), "p {p}, u {u}");
            }
            let (mut a, mut b) = (StdRng::seed_from_u64(5), StdRng::seed_from_u64(5));
            for _ in 0..1_000 {
                assert_eq!(a.gen_bool(p), b.gen::<f64>() < p, "p {p}");
            }
        }
        assert_eq!(super::bool_threshold(0.0), 0);
        assert_eq!(super::bool_threshold(tiny), 1);
        assert_eq!(super::bool_threshold(ulp), 1);
        assert_eq!(super::bool_threshold(1.0), 1 << 53);
    }

    #[test]
    fn works_through_mut_reference() {
        fn draw<R: Rng + ?Sized>(rng: &mut R) -> f64 {
            rng.gen()
        }
        let mut rng = StdRng::seed_from_u64(5);
        let _ = draw(&mut rng);
        let by_ref = &mut rng;
        let _ = draw(by_ref);
    }
}
