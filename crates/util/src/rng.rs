//! Seedable pseudo-random generators and 64-bit mixing functions.
//!
//! The simulation must be *bit-for-bit deterministic* for a given scenario
//! seed, across platforms and across parallel sweep execution. We therefore
//! avoid process-global entropy and implement two tiny, well-known PRNGs:
//!
//! * `SplitMix64` — used to expand a single `u64` seed into independent
//!   seed streams (one per node, one per sampler, ...). Its output is a
//!   bijective mix of a Weyl sequence, so distinct seeds can never collide.
//! * [`Xoshiro256StarStar`] — the general-purpose generator carried by every
//!   simulated node.
//!
//! [`mix64`] is the finalizer of SplitMix64 used on its own as a cheap,
//! statistically strong keyed hash for the min-wise-independent permutation
//! family of the Brahms sampler (see `raptee-sampler`).

/// SplitMix64 generator (Steele, Lea & Flood, 2014).
///
/// Primarily used for seeding: it turns one `u64` into a stream of
/// decorrelated `u64`s. It is also the recommended seeder for xoshiro
/// generators.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// Creates a generator from a raw seed. Any value, including zero, is a
    /// valid seed.
    fn new(seed: u64) -> Self {
        Self { state: seed }
    }

    /// Returns the next value in the sequence.
    fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        mix64(self.state)
    }
}

/// The 64-bit finalizer of SplitMix64: a fast bijective mixer with full
/// avalanche behaviour.
///
/// Used directly as the keyed hash `h_k(x) = mix64(k ^ mix64(x))` in the
/// sampler hash family; a bijective finalizer over distinct inputs gives a
/// family that is close enough to min-wise independent for simulation
/// purposes (the Brahms paper itself only requires approximate min-wise
/// independence).
#[inline]
pub fn mix64(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// xoshiro256** 1.0 (Blackman & Vigna, 2018).
///
/// The workhorse generator of the simulation: every node owns one, seeded
/// from the scenario seed through `SplitMix64`, which keeps node behaviour
/// independent of iteration order.
///
/// # Examples
///
/// ```
/// use raptee_util::rng::Xoshiro256StarStar;
/// let mut a = Xoshiro256StarStar::seed_from_u64(1);
/// let mut b = Xoshiro256StarStar::seed_from_u64(1);
/// assert_eq!(a.next_u64(), b.next_u64()); // deterministic
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Xoshiro256StarStar {
    s: [u64; 4],
}

impl Xoshiro256StarStar {
    /// Seeds the 256-bit state from a single `u64` through SplitMix64, as
    /// recommended by the xoshiro authors.
    pub fn seed_from_u64(seed: u64) -> Self {
        let mut sm = SplitMix64::new(seed);
        let s = [sm.next_u64(), sm.next_u64(), sm.next_u64(), sm.next_u64()];
        // SplitMix64 output of four consecutive values cannot be all zero.
        Self { s }
    }

    /// Returns the next 64 bits.
    pub fn next_u64(&mut self) -> u64 {
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

    /// Returns a uniformly distributed value in `[0, bound)` using Lemire's
    /// unbiased multiply-shift rejection method.
    ///
    /// # Panics
    ///
    /// Panics if `bound` is zero.
    pub fn next_below(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "next_below bound must be positive");
        let mut x = self.next_u64();
        let mut m = (x as u128) * (bound as u128);
        let mut low = m as u64;
        if low < bound {
            let threshold = bound.wrapping_neg() % bound;
            while low < threshold {
                x = self.next_u64();
                m = (x as u128) * (bound as u128);
                low = m as u64;
            }
        }
        (m >> 64) as u64
    }

    /// Returns a uniformly distributed `usize` index in `[0, len)`.
    ///
    /// # Panics
    ///
    /// Panics if `len` is zero.
    pub fn index(&mut self, len: usize) -> usize {
        self.next_below(len as u64) as usize
    }

    /// Returns a uniform `f64` in `[0, 1)` with 53 bits of precision.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Returns `true` with probability `p` (clamped to `[0, 1]`).
    pub fn chance(&mut self, p: f64) -> bool {
        self.next_f64() < p
    }

    /// Fisher–Yates shuffles a slice in place.
    pub fn shuffle<T>(&mut self, slice: &mut [T]) {
        for i in (1..slice.len()).rev() {
            let j = self.index(i + 1);
            slice.swap(i, j);
        }
    }

    /// Draws `k` distinct elements from `slice` by partial Fisher–Yates
    /// over an index table; order of the sample is random.
    ///
    /// If `k >= slice.len()`, returns a shuffled copy of the whole slice.
    ///
    /// Convenience wrapper over [`Xoshiro256StarStar::sample_into`] that
    /// builds a fresh [`IndexScratch`] per call, so it costs
    /// O(`slice.len()`) whatever `k` is. Anything that samples more than
    /// once keeps a scratch and calls `sample_into`.
    pub fn sample<T: Clone>(&mut self, slice: &[T], k: usize) -> Vec<T> {
        let mut out = Vec::with_capacity(k.min(slice.len()));
        self.sample_into(slice, k, &mut IndexScratch::default(), &mut out);
        out
    }

    /// Exactly [`Xoshiro256StarStar::sample`], but over a caller-owned
    /// [`IndexScratch`] and output buffer (cleared first): O(`k`) once the
    /// scratch has seen a slice this long, and no allocation. The picks
    /// are those of [`Xoshiro256StarStar::sample_indices_into`] over
    /// `slice.len()`, mapped through `slice`.
    pub fn sample_into<T: Clone>(
        &mut self,
        slice: &[T],
        k: usize,
        scratch: &mut IndexScratch,
        out: &mut Vec<T>,
    ) {
        let mut picked = std::mem::take(&mut scratch.picked);
        self.sample_indices_into(slice.len(), k, scratch, &mut picked);
        out.clear();
        out.extend(picked.iter().map(|&i| slice[i].clone()));
        scratch.picked = picked;
    }

    /// The indices into `0..n` that [`Xoshiro256StarStar::sample_into`]
    /// picks from a slice of `n` elements, in pick order, into `out`
    /// (cleared first), with exactly its draws.
    ///
    /// For `k < n` the draws are `j = i + index(n − i)` for `i` in `0..k`,
    /// each followed by swapping table entries `i` and `j`; pick `i` is
    /// the entry left at `i`. That sequence is pinned by every golden
    /// result of the simulation, so the *algorithm* is fixed — what the
    /// scratch removes is only the O(n) refill of the table: it is the
    /// identity between calls, and a call puts back the at most `2k`
    /// entries it moved. Pick `i` is fixed by the first `i + 1` draws,
    /// and each draw's bound depends on `i` alone, so a `k′ < k` call
    /// from the same state returns the first `k′` picks, and
    /// [`Xoshiro256StarStar::skip_sample_from`] then takes the generator
    /// to where the `k` call leaves it.
    ///
    /// For `k >= n` the result is a shuffle of `0..n` (the draws of
    /// [`Xoshiro256StarStar::shuffle`]), which fixes no prefix early.
    pub fn sample_indices_into(
        &mut self,
        n: usize,
        k: usize,
        scratch: &mut IndexScratch,
        out: &mut Vec<usize>,
    ) {
        out.clear();
        if k >= n {
            out.extend(0..n);
            self.shuffle(out);
            return;
        }
        let mut moved = scratch.borrow(n);
        for i in 0..k {
            let j = i + self.index(n - i);
            moved.table.swap(i, j);
            moved.prefix = i + 1;
            out.push(moved.table[i] as usize);
        }
    }

    /// Advances the generator exactly as
    /// [`Xoshiro256StarStar::sample_into`] does for a slice of `n` elements
    /// and this `k`, and picks nothing — for a caller that only needs the
    /// generator to end up where a sample it regenerates later left it.
    pub fn skip_sample(&mut self, n: usize, k: usize) {
        if k >= n {
            for i in (1..n).rev() {
                self.index(i + 1);
            }
        } else {
            self.skip_sample_from(n, 0, k);
        }
    }

    /// Advances the generator past draws `done..k` of a `k`-of-`n`
    /// sample (`k < n`) whose first `done` draws were made — by a
    /// `done`-of-`n` [`Xoshiro256StarStar::sample_indices_into`] from the
    /// same state — leaving it where the whole `k`-of-`n` sample does.
    pub fn skip_sample_from(&mut self, n: usize, done: usize, k: usize) {
        debug_assert!(k < n || done >= k, "only a partial draw has a prefix");
        for i in done..k {
            self.index(n - i);
        }
    }

    /// Splits off an independent child generator; used to derive per-node
    /// generators from the scenario generator without sharing state.
    pub fn split(&mut self) -> Self {
        Self::seed_from_u64(self.next_u64())
    }
}

/// The index table [`Xoshiro256StarStar::sample_indices_into`] runs its
/// partial Fisher–Yates over, kept between calls so that drawing `k` of `n` costs
/// `k`, not `n`.
///
/// Invariant: `table[i] == i` whenever no call is in progress. The table
/// only grows — 4 bytes × the longest slice this scratch has been used
/// with — so a scratch belongs with one call site (or one thread), not
/// with each sampled object.
///
/// # Examples
///
/// ```
/// use raptee_util::rng::{IndexScratch, Xoshiro256StarStar};
/// let population: Vec<u32> = (0..100_000).collect();
/// let mut rng = Xoshiro256StarStar::seed_from_u64(1);
/// let (mut scratch, mut out) = (IndexScratch::default(), Vec::new());
/// for _ in 0..1000 {
///     rng.sample_into(&population, 16, &mut scratch, &mut out); // O(16) after the first
///     assert_eq!(out.len(), 16);
/// }
/// ```
#[derive(Debug, Clone, Default)]
pub struct IndexScratch {
    table: Vec<u32>,
    /// The picked indices [`Xoshiro256StarStar::sample_into`] maps
    /// through its slice, kept for reuse.
    picked: Vec<usize>,
}

impl IndexScratch {
    /// The table over `0..n`, grown if this is the longest slice so far,
    /// behind the guard that makes it the identity again.
    #[inline]
    fn borrow(&mut self, n: usize) -> Moved<'_> {
        if self.table.len() < n {
            let end = u32::try_from(n).expect("sampled slices are indexed by u32");
            self.table.extend(self.table.len() as u32..end);
        }
        Moved {
            table: &mut self.table,
            prefix: 0,
        }
    }
}

/// The table of a partial Fisher–Yates in progress: `prefix` steps are
/// done, and dropping it undoes them.
struct Moved<'a> {
    table: &'a mut [u32],
    prefix: usize,
}

impl Drop for Moved<'_> {
    #[inline]
    fn drop(&mut self) {
        // An entry at or beyond the prefix is first moved by the swap that
        // carries its own index into the prefix, where no later step
        // reaches: the moved entries are the prefix and the positions the
        // prefix names. Slot `i` is read before it is rewritten, and the
        // second store lands beyond the prefix or on `i` again — a select,
        // not a branch: whether a pick came from inside the prefix is a
        // coin the predictor loses (at 100 of 500 that branch cost more
        // than refilling the table did).
        for i in 0..self.prefix {
            let p = self.table[i] as usize;
            self.table[i] = i as u32;
            let moved = if p >= self.prefix { p } else { i };
            self.table[moved] = moved as u32;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splitmix_reference_vector() {
        // Reference values for seed 1234567 from the public-domain
        // splitmix64.c by Sebastiano Vigna.
        let mut sm = SplitMix64::new(1234567);
        let expect = [
            6457827717110365317u64,
            3203168211198807973,
            9817491932198370423,
            4593380528125082431,
            16408922859458223821,
        ];
        for &e in &expect {
            assert_eq!(sm.next_u64(), e);
        }
    }

    #[test]
    fn xoshiro_is_deterministic_and_differs_by_seed() {
        let mut a = Xoshiro256StarStar::seed_from_u64(99);
        let mut b = Xoshiro256StarStar::seed_from_u64(99);
        let mut c = Xoshiro256StarStar::seed_from_u64(100);
        let va: Vec<u64> = (0..32).map(|_| a.next_u64()).collect();
        let vb: Vec<u64> = (0..32).map(|_| b.next_u64()).collect();
        let vc: Vec<u64> = (0..32).map(|_| c.next_u64()).collect();
        assert_eq!(va, vb);
        assert_ne!(va, vc);
    }

    #[test]
    fn xoshiro_reference_vector() {
        // First outputs for the all-ones state, cross-checked against the
        // public-domain xoshiro256starstar.c reference implementation.
        let mut x = Xoshiro256StarStar { s: [1, 1, 1, 1] };
        assert_eq!(x.next_u64(), 5760);
        assert_eq!(x.next_u64(), 5760);
        assert_eq!(x.next_u64(), 754974720);
        assert_eq!(x.next_u64(), 754980480);
    }

    #[test]
    fn next_below_is_in_range_and_covers() {
        let mut rng = Xoshiro256StarStar::seed_from_u64(7);
        let mut seen = [false; 10];
        for _ in 0..1000 {
            let v = rng.next_below(10) as usize;
            assert!(v < 10);
            seen[v] = true;
        }
        assert!(
            seen.iter().all(|&s| s),
            "all residues should appear in 1000 draws"
        );
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn next_below_zero_panics() {
        Xoshiro256StarStar::seed_from_u64(1).next_below(0);
    }

    #[test]
    fn next_f64_unit_interval() {
        let mut rng = Xoshiro256StarStar::seed_from_u64(3);
        for _ in 0..1000 {
            let f = rng.next_f64();
            assert!((0.0..1.0).contains(&f));
        }
    }

    #[test]
    fn shuffle_is_a_permutation() {
        let mut rng = Xoshiro256StarStar::seed_from_u64(5);
        let mut v: Vec<u32> = (0..100).collect();
        rng.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn sample_without_replacement() {
        let mut rng = Xoshiro256StarStar::seed_from_u64(5);
        let v: Vec<u32> = (0..50).collect();
        let s = rng.sample(&v, 20);
        assert_eq!(s.len(), 20);
        let mut dedup = s.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), 20, "sample must not repeat elements");
    }

    #[test]
    fn sample_more_than_len_returns_all() {
        let mut rng = Xoshiro256StarStar::seed_from_u64(5);
        let v: Vec<u32> = (0..10).collect();
        let mut s = rng.sample(&v, 25);
        s.sort_unstable();
        assert_eq!(s, v);
    }

    impl IndexScratch {
        /// Asserts the between-calls invariant.
        pub(super) fn check(&self) {
            for (i, &entry) in self.table.iter().enumerate() {
                assert_eq!(entry as usize, i, "table entry {i} not restored");
            }
        }
    }

    /// The historical `sample_into`: a dense index table refilled on every
    /// call. The reference `sample_into` is held to, draw for draw.
    pub(super) fn sample_into_dense<T: Clone>(
        rng: &mut Xoshiro256StarStar,
        slice: &[T],
        k: usize,
        out: &mut Vec<T>,
    ) {
        out.clear();
        let n = slice.len();
        if k >= n {
            out.extend_from_slice(slice);
            rng.shuffle(out);
            return;
        }
        let mut idx: Vec<u32> = (0..n as u32).collect();
        for i in 0..k {
            let j = i + rng.index(n - i);
            idx.swap(i, j);
            out.push(slice[idx[i] as usize].clone());
        }
    }

    #[test]
    fn sample_into_matches_sample() {
        let v: Vec<u32> = (0..200).collect();
        let mut scratch = IndexScratch::default();
        for k in [0usize, 1, 50, 199, 200, 500] {
            let mut a = Xoshiro256StarStar::seed_from_u64(77);
            let mut b = Xoshiro256StarStar::seed_from_u64(77);
            let plain = a.sample(&v, k);
            let mut out = vec![999]; // stale content must be cleared
            b.sample_into(&v, k, &mut scratch, &mut out);
            assert_eq!(plain, out, "k={k}");
            assert_eq!(a.next_u64(), b.next_u64(), "identical draw count, k={k}");
            scratch.check();
        }
    }

    #[test]
    fn a_panicking_clone_leaves_the_table_restored() {
        #[derive(Debug, PartialEq)]
        struct Fragile(u32);
        impl Clone for Fragile {
            fn clone(&self) -> Self {
                assert!(self.0 != 13, "unlucky");
                Fragile(self.0)
            }
        }
        let v: Vec<Fragile> = (0..40).map(Fragile).collect();
        let mut scratch = IndexScratch::default();
        let mut rng = Xoshiro256StarStar::seed_from_u64(3);
        let mut panics = 0;
        for _ in 0..50 {
            let mut reference = rng.clone();
            let mut out = Vec::new();
            let call =
                std::panic::AssertUnwindSafe(|| rng.sample_into(&v, 10, &mut scratch, &mut out));
            let panicked = std::panic::catch_unwind(call).is_err();
            panics += usize::from(panicked);
            scratch.check();
            if !panicked {
                let mut expect = Vec::new();
                sample_into_dense(&mut reference, &v, 10, &mut expect);
                assert_eq!(
                    out, expect,
                    "the call after a panic draws from the identity"
                );
            }
        }
        assert!(
            (1..50).contains(&panics),
            "both outcomes exercised: {panics}"
        );
    }

    #[test]
    fn chance_extremes() {
        let mut rng = Xoshiro256StarStar::seed_from_u64(1);
        assert!(!rng.chance(0.0));
        assert!(rng.chance(1.0));
    }

    #[test]
    fn split_children_are_independent() {
        let mut parent = Xoshiro256StarStar::seed_from_u64(11);
        let mut c1 = parent.split();
        let mut c2 = parent.split();
        let v1: Vec<u64> = (0..8).map(|_| c1.next_u64()).collect();
        let v2: Vec<u64> = (0..8).map(|_| c2.next_u64()).collect();
        assert_ne!(v1, v2);
    }

    #[test]
    fn mix64_bijective_on_sample() {
        // Spot-check injectivity over a contiguous range.
        let mut outs: Vec<u64> = (0..10_000u64).map(mix64).collect();
        outs.sort_unstable();
        outs.dedup();
        assert_eq!(outs.len(), 10_000);
    }

    #[test]
    fn seed_zero_is_a_valid_seed() {
        // The all-zero state is xoshiro's one fixed point; seeding through
        // SplitMix64 never reaches it, zero seed included.
        let mut rng = Xoshiro256StarStar::seed_from_u64(0);
        assert_eq!(
            rng.s[0], 0xE220_A839_7B1D_CDAF,
            "SplitMix64(0)'s first output"
        );
        assert!(rng.s.iter().all(|&w| w != 0));
        let outs: Vec<u64> = (0..4).map(|_| rng.next_u64()).collect();
        assert!(outs.windows(2).all(|w| w[0] != w[1]), "{outs:?}");
    }

    #[test]
    fn index_of_one_is_always_zero() {
        let mut rng = Xoshiro256StarStar::seed_from_u64(8);
        assert!((0..100).all(|_| rng.index(1) == 0));
    }

    #[test]
    fn a_power_of_two_bound_takes_the_top_bits() {
        // Lemire's threshold is 2⁶⁴ mod 2ᵏ = 0, so nothing is rejected and
        // the draw is the high k bits of one output — the mapping every
        // golden result was recorded with.
        for k in [1u32, 5, 32, 63] {
            let mut rng = Xoshiro256StarStar::seed_from_u64(u64::from(k));
            let mut raw = rng.clone();
            for _ in 0..50 {
                assert_eq!(rng.next_below(1 << k), raw.next_u64() >> (64 - k));
            }
        }
    }

    #[test]
    fn next_f64_keeps_the_top_53_bits() {
        let mut rng = Xoshiro256StarStar::seed_from_u64(12);
        let mut raw = rng.clone();
        for _ in 0..100 {
            let f = rng.next_f64();
            let scaled = f * (1u64 << 53) as f64;
            assert_eq!(scaled, scaled.trunc(), "a multiple of 2^-53");
            assert_eq!(scaled as u64, raw.next_u64() >> 11);
        }
    }

    #[test]
    fn drawing_nothing_leaves_the_generator_untouched() {
        let fresh = Xoshiro256StarStar::seed_from_u64(4);
        let mut rng = fresh.clone();
        let v: Vec<u32> = (0..10).collect();
        let mut out = vec![1];
        rng.sample_into(&v, 0, &mut IndexScratch::default(), &mut out);
        assert!(out.is_empty());
        rng.skip_sample(10, 0);
        rng.shuffle(&mut [7u8]);
        rng.skip_sample(1, 5);
        assert_eq!(rng, fresh);
    }
}

#[cfg(test)]
mod prop_tests {
    use super::tests::sample_into_dense;
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// Differential oracle: one scratch, reused over calls whose `n`
        /// goes up and down and whose `k` sits on every edge, draws what
        /// the dense table drew, leaves the generator where it left it
        /// (which is also where `skip_sample` leaves it) and is the
        /// identity again after every call — for a `Copy` element and for
        /// one whose `Clone` allocates.
        #[test]
        fn sample_into_matches_the_dense_reference(
            seed in 0u64..10_000,
            calls in proptest::collection::vec((0usize..6, 0usize..5), 1..40),
        ) {
            const SIZES: [usize; 6] = [0, 1, 2, 17, 500, 5_000];
            let numbers: Vec<u32> = (0..5_000).collect();
            let names: Vec<String> = numbers.iter().map(|i| format!("node-{i}")).collect();
            let mut rng = Xoshiro256StarStar::seed_from_u64(seed);
            let (mut rng_ref, mut rng_skip) = (rng.clone(), rng.clone());
            let mut scratch = IndexScratch::default();
            let (mut out_n, mut expect_n) = (vec![7u32], Vec::new());
            let (mut out_s, mut expect_s) = (vec![String::from("stale")], Vec::new());
            for &(size, edge) in &calls {
                let n = SIZES[size];
                let k = [0, 1, n.saturating_sub(1), n, n + 3][edge];
                rng.sample_into(&numbers[..n], k, &mut scratch, &mut out_n);
                sample_into_dense(&mut rng_ref, &numbers[..n], k, &mut expect_n);
                prop_assert_eq!(&out_n, &expect_n);
                scratch.check();
                rng.sample_into(&names[..n], k, &mut scratch, &mut out_s);
                sample_into_dense(&mut rng_ref, &names[..n], k, &mut expect_s);
                prop_assert_eq!(&out_s, &expect_s);
                scratch.check();
                prop_assert_eq!(&rng, &rng_ref);
                rng_skip.skip_sample(n, k);
                rng_skip.skip_sample(n, k);
                prop_assert_eq!(&rng, &rng_skip);
            }
        }

        /// The picked indices, mapped through the slice, are what
        /// `sample_into` picks from it, with the same draws.
        #[test]
        fn sample_indices_map_to_sample_into(
            seed in 0u64..10_000,
            n in 0usize..300,
            k in 0usize..320,
        ) {
            let slice: Vec<u64> = (0..n as u64).map(|i| i * 7 + 3).collect();
            let mut by_value = Xoshiro256StarStar::seed_from_u64(seed);
            let mut by_index = by_value.clone();
            let (mut scratch, mut values, mut picked) =
                (IndexScratch::default(), Vec::new(), vec![9]);
            by_value.sample_into(&slice, k, &mut scratch, &mut values);
            by_index.sample_indices_into(n, k, &mut scratch, &mut picked);
            scratch.check();
            let mapped: Vec<u64> = picked.iter().map(|&i| slice[i]).collect();
            prop_assert_eq!(mapped, values);
            prop_assert_eq!(by_index, by_value);
        }

        /// A partial draw fixes its picks in order: `k′ ≤ k` draws from
        /// the same state give the first `k′` picks, and skipping the
        /// other `k − k′` draws leaves the generator where all `k` leave
        /// it.
        #[test]
        fn a_sample_prefix_replays_and_skips_to_the_full_draw(
            seed in 0u64..10_000,
            n in 1usize..600,
            k_frac in 0.0f64..1.0,
            prefix_frac in 0.0f64..=1.0,
        ) {
            let k = ((n as f64) * k_frac) as usize;
            let prefix = ((k as f64) * prefix_frac) as usize;
            prop_assert!(k < n && prefix <= k);
            let mut full = Xoshiro256StarStar::seed_from_u64(seed);
            let mut part = full.clone();
            let mut scratch = IndexScratch::default();
            let (mut all, mut head) = (Vec::new(), Vec::new());
            full.sample_indices_into(n, k, &mut scratch, &mut all);
            part.sample_indices_into(n, prefix, &mut scratch, &mut head);
            scratch.check();
            prop_assert_eq!(&head[..], &all[..prefix]);
            part.skip_sample_from(n, prefix, k);
            prop_assert_eq!(part, full);
        }
    }
}
