//! Self-contained deterministic RNG (xorshift64*).
//!
//! Every stochastic component of the workspace — Monte Carlo fallout,
//! random test vectors, ATPG don't-care fill — draws from this one
//! generator so the whole pipeline is reproducible from a single `u64`
//! seed with no external dependency. The multiplier is Vigna's
//! xorshift64* constant; the low 53 bits of the scrambled state map to a
//! uniform `f64` in `[0, 1)`.
//!
//! The xorshift state update is linear over GF(2), so `n` steps are one
//! 64×64 bit-matrix product: `Jump::steps` precomputes it and
//! `Xorshift64Star::jump` applies it, which lets the Monte-Carlo kernel
//! start several interleaved lanes at their exact positions in one stream.

/// A deterministic xorshift64* pseudo-random generator.
///
/// # Example
///
/// ```
/// use dlp_core::rng::Xorshift64Star;
///
/// let mut a = Xorshift64Star::new(42);
/// let mut b = Xorshift64Star::new(42);
/// assert_eq!(a.next_u64(), b.next_u64());
/// let u = a.next_f64();
/// assert!((0.0..1.0).contains(&u));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Xorshift64Star {
    state: u64,
}

impl Xorshift64Star {
    /// Creates a generator from a seed. Any seed is accepted; a zero
    /// state (which would be a fixed point) is avoided by forcing the
    /// low bit.
    pub fn new(seed: u64) -> Self {
        Xorshift64Star { state: seed | 1 }
    }

    /// Derives stream `stream` of a family of decorrelated generators
    /// from one master seed (SplitMix64 finalisation of the pair).
    ///
    /// Used by the sharded Monte-Carlo path: shard `s` always draws from
    /// `split(master, s)`, so the decomposition into streams — and hence
    /// every result — is independent of how many worker threads consume
    /// the shards.
    ///
    /// # Example
    ///
    /// ```
    /// use dlp_core::rng::Xorshift64Star;
    ///
    /// let mut a = Xorshift64Star::split(7, 0);
    /// let mut b = Xorshift64Star::split(7, 1);
    /// assert_ne!(a.next_u64(), b.next_u64());
    /// assert_eq!(Xorshift64Star::split(7, 1), Xorshift64Star::split(7, 1));
    /// ```
    pub fn split(master: u64, stream: u64) -> Self {
        let mut z = master ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        Xorshift64Star::new(z ^ (z >> 31))
    }

    /// Advances the state by a precomputed number of steps: afterwards the
    /// generator yields exactly what it would have yielded after `n`
    /// calls to [`Xorshift64Star::next_u64`], where `j = Jump::steps(n)`.
    pub(crate) fn jump(&mut self, j: &Jump) {
        self.state = j.apply(self.state);
    }

    /// Advances the state and returns the next scrambled 64-bit word.
    pub fn next_u64(&mut self) -> u64 {
        self.state ^= self.state << 13;
        self.state ^= self.state >> 7;
        self.state ^= self.state << 17;
        self.state.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    /// A uniform `f64` in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// A fair coin flip.
    pub fn next_bool(&mut self) -> bool {
        self.next_u64() & (1 << 32) != 0
    }

    /// A uniform integer in `[0, bound)`; returns 0 for `bound == 0`.
    pub fn next_below(&mut self, bound: usize) -> usize {
        if bound == 0 {
            return 0;
        }
        (self.next_f64() * bound as f64) as usize % bound
    }
}

/// The xorshift64 state update `T` raised to a fixed power, as a 64×64
/// matrix over GF(2): `cols[i]` is the image of the state with only bit
/// `i` set, so applying it XORs the columns of the state's set bits.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct Jump {
    cols: [u64; 64],
}

impl Jump {
    /// `T^n`, by left-to-right square-and-multiply: `log2(n)` squarings,
    /// and a multiplication by `T` itself is one xorshift step per
    /// column. Tens of microseconds at most.
    pub(crate) fn steps(n: u64) -> Jump {
        let mut acc = Jump {
            cols: std::array::from_fn(|i| 1u64 << i),
        };
        for bit in (0..u64::BITS - n.leading_zeros()).rev() {
            acc = acc.then(&acc);
            if n >> bit & 1 == 1 {
                acc.cols = acc.cols.map(|col| {
                    let mut r = Xorshift64Star { state: col };
                    r.next_u64();
                    r.state
                });
            }
        }
        acc
    }

    /// The matrix applied to one state.
    fn apply(&self, state: u64) -> u64 {
        let mut out = 0;
        let mut bits = state;
        while bits != 0 {
            out ^= self.cols[bits.trailing_zeros() as usize];
            bits &= bits - 1;
        }
        out
    }

    /// The product `other · self`: first `self`, then `other`. `other` is
    /// tabulated per byte of its input (8 tables of 256 column sums), so
    /// each of the 64 columns costs 8 lookups.
    fn then(&self, other: &Jump) -> Jump {
        let mut table = [[0u64; 256]; 8];
        for (row, cols) in table.iter_mut().zip(other.cols.chunks_exact(8)) {
            // Entries `[2^k, 2^(k+1))` are entries `[0, 2^k)` plus column `k`.
            for (k, &col) in cols.iter().enumerate() {
                let (low, high) = row.split_at_mut(1 << k);
                for (h, &l) in high.iter_mut().zip(low.iter()) {
                    *h = l ^ col;
                }
            }
        }
        Jump {
            cols: self.cols.map(|col| {
                table.iter().enumerate().fold(0, |out, (b, row)| {
                    out ^ row[(col >> (8 * b)) as u8 as usize]
                })
            }),
        }
    }
}

/// The integer form of the comparison `u < p` for a draw
/// `u = next_f64()`: `next_f64() < p` holds exactly when
/// `next_u64() >> 11 < unit_threshold(p)`.
///
/// Both sides of `k / 2^53 < p` scaled by `2^53` are exact in `f64`, and
/// for an integer `k`, `k < x ⇔ k < ⌈x⌉`. Clamping keeps the equivalence
/// at the edges and the threshold at most `2^53`: `p ≤ 0` and NaN give 0
/// (never true), `p ≥ 1` gives `2^53`, above every 53-bit `k` (always
/// true).
pub(crate) fn unit_threshold(p: f64) -> u64 {
    let scale = (1u64 << 53) as f64;
    (p * scale).ceil().clamp(0.0, scale) as u64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_and_seed_sensitive() {
        let a: Vec<u64> = {
            let mut r = Xorshift64Star::new(7);
            (0..8).map(|_| r.next_u64()).collect()
        };
        let b: Vec<u64> = {
            let mut r = Xorshift64Star::new(7);
            (0..8).map(|_| r.next_u64()).collect()
        };
        let c: Vec<u64> = {
            let mut r = Xorshift64Star::new(8);
            (0..8).map(|_| r.next_u64()).collect()
        };
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn split_streams_are_decorrelated_and_deterministic() {
        let take = |mut r: Xorshift64Star| -> Vec<u64> { (0..16).map(|_| r.next_u64()).collect() };
        let s0 = take(Xorshift64Star::split(42, 0));
        let s1 = take(Xorshift64Star::split(42, 1));
        assert_ne!(s0, s1, "adjacent streams must differ");
        assert_eq!(s0, take(Xorshift64Star::split(42, 0)));
        // A different master seed moves every stream.
        assert_ne!(s0, take(Xorshift64Star::split(43, 0)));
        // No overlap in a short window (the birthday bound makes a
        // collision here astronomically unlikely for a good mix).
        assert!(s0.iter().all(|x| !s1.contains(x)));
    }

    #[test]
    fn zero_seed_is_usable() {
        let mut r = Xorshift64Star::new(0);
        assert_ne!(r.next_u64(), r.next_u64());
    }

    #[test]
    fn unit_floats_stay_in_range_and_fill_it() {
        let mut r = Xorshift64Star::new(123);
        let xs: Vec<f64> = (0..10_000).map(|_| r.next_f64()).collect();
        assert!(xs.iter().all(|&x| (0.0..1.0).contains(&x)));
        let mean = xs.iter().sum::<f64>() / xs.len() as f64;
        assert!((mean - 0.5).abs() < 0.02, "mean {mean}");
    }

    #[test]
    fn bools_are_roughly_fair() {
        let mut r = Xorshift64Star::new(99);
        let trues = (0..10_000).filter(|_| r.next_bool()).count();
        assert!((4_500..5_500).contains(&trues), "{trues} / 10000");
    }

    #[test]
    fn bounded_draws_cover_the_range() {
        let mut r = Xorshift64Star::new(5);
        let mut seen = [false; 7];
        for _ in 0..1000 {
            let k = r.next_below(7);
            assert!(k < 7);
            seen[k] = true;
        }
        assert!(seen.iter().all(|&s| s));
        assert_eq!(r.next_below(0), 0);
    }

    #[test]
    fn jumped_stream_equals_stepped_stream() {
        for seed in [0u64, 1, 42, 0xDEAD_BEEF, u64::MAX] {
            for n in [0u64, 1, 63, 64, 65, 1024 * 150] {
                let mut stepped = Xorshift64Star::new(seed);
                for _ in 0..n {
                    stepped.next_u64();
                }
                let mut jumped = Xorshift64Star::new(seed);
                jumped.jump(&Jump::steps(n));
                assert_eq!(jumped, stepped, "seed={seed} n={n}");
                let tail =
                    |mut r: Xorshift64Star| -> Vec<u64> { (0..8).map(|_| r.next_u64()).collect() };
                assert_eq!(tail(jumped), tail(stepped), "seed={seed} n={n}");
            }
        }
        // Jumps compose: J(a) then J(b) is J(a + b).
        let mut twice = Xorshift64Star::split(3, 4);
        twice.jump(&Jump::steps(1000));
        twice.jump(&Jump::steps(24));
        let mut once = Xorshift64Star::split(3, 4);
        once.jump(&Jump::steps(1024));
        assert_eq!(twice, once);
    }

    #[test]
    fn integer_threshold_is_exact() {
        let scale = (1u64 << 53) as f64;
        let check = |p: f64| {
            let x = p * scale;
            let t = unit_threshold(p);
            let mut ks = vec![0u64, (1 << 53) - 1];
            for edge in [x.floor(), x.ceil()] {
                let e = edge.clamp(0.0, scale) as u64;
                ks.extend([e.saturating_sub(1), e, e + 1]);
            }
            for k in ks.into_iter().filter(|&k| k < 1 << 53) {
                assert_eq!(k < t, (k as f64) / scale < p, "p={p:e} k={k} t={t}");
            }
        };
        let eps = f64::EPSILON / 2.0; // 2^-53
        for p in [0.0, f64::from_bits(1), eps, 0.5, 1.0 - eps, 1.0] {
            check(p);
        }
        let mut r = Xorshift64Star::new(0x7E57);
        for _ in 0..10_000 {
            check(r.next_f64());
            // Probabilities from tiny weights: 1 − e^(−w) spans many octaves.
            check(1.0 - (-(r.next_f64() * 1e-9)).exp());
        }
        // The edges named in the contract.
        assert_eq!(unit_threshold(0.0), 0);
        assert_eq!(unit_threshold(f64::NAN), 0);
        assert_eq!(unit_threshold(-1.0), 0);
        assert_eq!(unit_threshold(1.0), 1 << 53);
        assert_eq!(unit_threshold(2.0), 1 << 53);
        assert_eq!(unit_threshold(f64::INFINITY), 1 << 53);
        assert_eq!(unit_threshold(f64::from_bits(1)), 1);
    }
}
