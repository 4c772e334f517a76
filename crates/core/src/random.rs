//! The NPB pseudo-random number generator.
//!
//! All NPB benchmarks draw their input data from the same linear
//! congruential generator
//!
//! ```text
//! x_{k+1} = a * x_k  mod 2^46,        a = 5^13 = 1220703125
//! ```
//!
//! returning uniform deviates `x_k * 2^-46` in `(0, 1)`. Reproducing that
//! exact sequence is what makes our FT checksums, CG eigenvalue
//! estimates, EP tallies and IS keys comparable with the published
//! verification values.
//!
//! The reference Fortran (and the paper's Java port of it) computes the
//! modular product in double precision, splitting both operands into
//! 23-bit halves, because Fortran 77 had no 64-bit integers. Here the
//! product is one wrapping `u64` multiply and a 46-bit mask: the low 46
//! bits of `a * x mod 2^64` are `a * x mod 2^46`, so the states, and
//! therefore the deviates, are the same integers. The split form is not
//! only longer but slow in Rust on the default x86-64 target, whose
//! baseline SSE2 has no rounding instruction: each of its three
//! `f64::trunc` calls per draw is an out-of-line libm call on the serial
//! dependency chain, about 37 ns a draw against about 1 ns for the
//! integer step. The split form survives only as the test oracle below.
//!
//! The public functions keep the NPB signatures: the state is an integer
//! held in an `f64`, `0 <= x < 2^46`. Conversions go through `i64`, which
//! is exact below 2^46 and one instruction each way on x86-64. The hot
//! streams ([`vranlc`] and callers of [`mul46`]) keep the state in a
//! `u64` for the whole loop, so no conversion sits on the dependency
//! chain.

/// Default multiplier `a = 5^13`.
pub const A_DEFAULT: f64 = 1_220_703_125.0;
/// Default seed used by most benchmarks.
pub const SEED_DEFAULT: f64 = 314_159_265.0;

/// `2^46 - 1`: reducing modulo `2^46` keeps these bits.
pub(crate) const MASK46: u64 = (1 << 46) - 1;
/// `2^-46`, exactly.
const R46: f64 = 1.0 / (1u64 << 46) as f64;

/// One step of the recurrence on integer state: `a * x mod 2^46`.
#[inline(always)]
pub fn mul46(x: u64, a: u64) -> u64 {
    x.wrapping_mul(a) & MASK46
}

/// The uniform deviate `x * 2^-46` of an integer state `x < 2^46`.
#[inline(always)]
pub fn deviate(x: u64) -> f64 {
    to_f64(x) * R46
}

#[inline(always)]
fn to_u64(x: f64) -> u64 {
    x as i64 as u64
}

#[inline(always)]
fn to_f64(x: u64) -> f64 {
    x as i64 as f64
}

/// Advance `x := a*x mod 2^46` and return the uniform deviate `x * 2^-46`.
/// Port of NPB `randlc`.
#[inline]
pub fn randlc(x: &mut f64, a: f64) -> f64 {
    let s = mul46(to_u64(*x), to_u64(a));
    *x = to_f64(s);
    deviate(s)
}

/// Fill `y` with `y.len()` consecutive deviates of the sequence, advancing
/// `x`. Port of NPB `vranlc`.
#[inline]
pub fn vranlc(x: &mut f64, a: f64, y: &mut [f64]) {
    let a = to_u64(a);
    let mut s = to_u64(*x);
    for out in y.iter_mut() {
        s = mul46(s, a);
        *out = deviate(s);
    }
    *x = to_f64(s);
}

/// Compute `a^exponent mod 2^46` by binary exponentiation. Port of the
/// `ipow46` routine EP and FT use to jump the seed to an arbitrary offset
/// in the stream.
pub fn ipow46(a: f64, exponent: u64) -> f64 {
    let (mut q, mut r, mut n) = (to_u64(a), 1u64, exponent);
    while n > 0 {
        if n & 1 == 1 {
            r = mul46(r, q);
        }
        q = mul46(q, q);
        n >>= 1;
    }
    to_f64(r)
}

/// Stateful wrapper over [`randlc`] carrying the current seed.
#[derive(Debug, Clone, Copy)]
pub struct Randlc {
    /// Current state `x` (an integer value stored in an f64, `0 <= x < 2^46`).
    pub seed: f64,
    /// Multiplier `a`.
    pub a: f64,
}

impl Randlc {
    /// New generator with the given seed and the default multiplier.
    pub fn new(seed: f64) -> Self {
        Randlc { seed, a: A_DEFAULT }
    }

    /// New generator with explicit seed and multiplier.
    pub fn with_multiplier(seed: f64, a: f64) -> Self {
        Randlc { seed, a }
    }

    /// Next uniform deviate in `(0, 1)`.
    #[inline]
    pub fn next_f64(&mut self) -> f64 {
        randlc(&mut self.seed, self.a)
    }

    /// Fill a slice with consecutive deviates.
    #[inline]
    pub fn fill(&mut self, y: &mut [f64]) {
        vranlc(&mut self.seed, self.a, y);
    }

    /// Jump the generator forward by `n` steps in O(log n).
    pub fn jump(&mut self, n: u64) {
        let mult = ipow46(self.a, n);
        let mut s = self.seed;
        randlc(&mut s, mult);
        self.seed = s;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const T23: f64 = (1u64 << 23) as f64;
    const R23: f64 = 1.0 / T23;
    const T46: f64 = T23 * T23;

    /// The reference: NPB `randdp.f`'s double-precision split-multiply.
    /// Both `a` and `x` are broken into 23-bit halves so every
    /// intermediate product is exactly representable in an f64.
    fn split_randlc(x: &mut f64, a: f64) -> f64 {
        let a1 = (R23 * a).trunc();
        let a2 = a - T23 * a1;
        let x1 = (R23 * *x).trunc();
        let x2 = *x - T23 * x1;
        // z = a1*x2 + a2*x1 (mod 2^23), then x = 2^23*z + a2*x2 (mod 2^46).
        let t1 = a1 * x2 + a2 * x1;
        let z = t1 - T23 * (R23 * t1).trunc();
        let t3 = T23 * z + a2 * x2;
        *x = t3 - T46 * (R46 * t3).trunc();
        R46 * *x
    }

    /// Seeded integers below 2^46 (splitmix64, masked).
    fn sample46(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        (z ^ (z >> 31)) & MASK46
    }

    /// The multipliers the kernels jump with: EP's batch multiplier
    /// `a^(2^17)`, FT's plane multiplier `a^(2 nx ny)` and MG's row and
    /// plane multipliers `a^nx`, `a^(nx^2)`, over every class's grid.
    fn kernel_exponents() -> Vec<u64> {
        let mut e = vec![1u64 << 17, 2 * 512 * 256];
        for n in [32u64, 64, 128, 256, 512, 1024] {
            e.extend([n, n * n, 2 * n * n]);
        }
        e
    }

    fn special_values() -> Vec<u64> {
        let mut v = vec![0, 1, 2, MASK46 - 1, MASK46, A_DEFAULT as u64, SEED_DEFAULT as u64];
        v.extend(kernel_exponents().into_iter().map(|e| ipow46(A_DEFAULT, e) as u64));
        v
    }

    fn assert_step_matches_oracle(x: u64, a: u64) {
        let (mut xi, mut xf) = (x as f64, x as f64);
        let vi = randlc(&mut xi, a as f64);
        let vf = split_randlc(&mut xf, a as f64);
        assert_eq!(xi.to_bits(), xf.to_bits(), "state, x={x} a={a}");
        assert_eq!(vi.to_bits(), vf.to_bits(), "deviate, x={x} a={a}");
        assert_eq!(xi as u64, mul46(x, a), "mul46, x={x} a={a}");
    }

    #[test]
    fn integer_randlc_matches_split_multiply_oracle() {
        let specials = special_values();
        for &x in &specials {
            for &a in &specials {
                assert_step_matches_oracle(x, a);
            }
        }
        let mut s = 0x6e70_625f_7261_6e64;
        for _ in 0..100_000 {
            let (x, a) = (sample46(&mut s), sample46(&mut s));
            assert_step_matches_oracle(x, a);
            assert_step_matches_oracle(x, specials[(a % specials.len() as u64) as usize]);
        }
    }

    #[test]
    fn vranlc_matches_oracle_stream() {
        for len in [0usize, 1, 3, 1 << 17] {
            for (seed, a) in [(SEED_DEFAULT, A_DEFAULT), (271_828_183.0, A_DEFAULT), (1.0, 3.0)] {
                let (mut xi, mut xf) = (seed, seed);
                let mut buf = vec![0.0; len];
                vranlc(&mut xi, a, &mut buf);
                for (i, v) in buf.iter().enumerate() {
                    let r = split_randlc(&mut xf, a);
                    assert_eq!(r.to_bits(), v.to_bits(), "len {len}, draw {i}");
                }
                assert_eq!(xi.to_bits(), xf.to_bits(), "len {len}: final state");
            }
        }
    }

    #[test]
    fn ipow46_matches_repeated_randlc() {
        let mut exps = kernel_exponents();
        exps.extend([0, 1, 2, 3, 17, 100, 12345]);
        for e in exps {
            let mut r = 1.0;
            for _ in 0..e {
                randlc(&mut r, A_DEFAULT);
            }
            assert_eq!(ipow46(A_DEFAULT, e).to_bits(), r.to_bits(), "a^{e}");
        }
    }

    #[test]
    fn first_deviates_match_known_prefix() {
        // x1 = 5^13 * 314159265 mod 2^46 computed independently with
        // 128-bit arithmetic.
        let mut x = SEED_DEFAULT;
        let v = randlc(&mut x, A_DEFAULT);
        let expect = (1_220_703_125u128 * 314_159_265u128 % (1u128 << 46)) as u64;
        assert_eq!(x as u64, expect);
        assert!((v - expect as f64 / (1u64 << 46) as f64).abs() < 1e-18);
    }

    #[test]
    fn jump_equals_stepping() {
        for n in [0u64, 1, 2, 3, 17, 100, 12345] {
            let mut a = Randlc::new(SEED_DEFAULT);
            a.jump(n);
            let mut b = Randlc::new(SEED_DEFAULT);
            for _ in 0..n {
                b.next_f64();
            }
            assert_eq!(a.seed.to_bits(), b.seed.to_bits(), "jump({n})");
        }
    }

    #[test]
    fn ipow46_zero_is_one() {
        assert_eq!(ipow46(A_DEFAULT, 0), 1.0);
    }

    #[test]
    fn deviates_are_in_unit_interval_and_look_uniform() {
        let mut g = Randlc::new(SEED_DEFAULT);
        let n = 100_000;
        let mut sum = 0.0;
        for _ in 0..n {
            let v = g.next_f64();
            assert!(v > 0.0 && v < 1.0);
            sum += v;
        }
        let mean = sum / n as f64;
        // Mean of U(0,1) is 0.5 with sd ~ 1/sqrt(12 n) ~ 0.0009.
        assert!((mean - 0.5).abs() < 0.005, "mean = {mean}");
    }

    #[test]
    fn period_does_not_collapse() {
        // The low-order structure of an LCG mod 2^46 with odd multiplier
        // has period 2^44 on this seed; verify no short cycle over 1e6.
        let a = A_DEFAULT as u64;
        let start = SEED_DEFAULT as u64;
        let mut x = start;
        for _ in 0..1_000_000u32 {
            x = mul46(x, a);
            assert_ne!(x, start);
        }
    }
}
