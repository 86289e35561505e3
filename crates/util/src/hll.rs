//! Fixed-size HyperLogLog cardinality sketches.
//!
//! The simulation's discovery metric asks, per node, "how many distinct
//! correct peers has this node ever seen?". Below the exact-mode
//! threshold that is a bitset row; at million-node scale an exact row
//! costs N bits per node (O(N²) total), so the sketch mode replaces each
//! row with a [`REGISTERS`]-byte HyperLogLog and reports an *estimate*
//! of the distinct count instead.
//!
//! Design constraints, in order:
//!
//! * **Deterministic.** The hash is a fixed-seed [`mix64`] of the item;
//!   the same insert sequence always produces the same registers, and
//!   register updates are a commutative, idempotent `max` — so the
//!   estimate is independent of insert order and of how parallel phases
//!   interleave their inserts. This is what lets sketch-mode runs stay
//!   bit-identical across 1/4/8 worker threads.
//! * **Flat storage.** A sketch is a `[u8; REGISTERS]`; the caller owns
//!   one `Vec` of them for all rows and hands out disjoint row handles,
//!   exactly like the exact-mode bitset matrix. No per-row allocation.
//! * **Known accuracy.** With `m = 256` registers the standard error is
//!   `1.04 / sqrt(256)` = 6.5 %. The small-range regime uses linear
//!   counting, which is much tighter — and discovery fractions are
//!   ratios of estimates, so systematic bias largely cancels.
//!
//! The register layout is classic HLL (Flajolet et al. 2007): the low
//! 8 hash bits pick a register, the rank (position of the first set bit)
//! of the remaining 56 bits is `max`-ed into it.
//!
//! # The estimate's sum is exact
//!
//! [`estimate`] needs `Σ 2^-r` over the registers; summed in `f64` one
//! register after another, that is one `powi` call per register, and the
//! sketch-scale round estimates every node's row once a round. While
//! every rank is at most `EXACT_RANK` = 45, every term is a multiple of
//! 2⁻⁴⁵ and every partial sum is at most 256 = 2⁵³ · 2⁻⁴⁵, so every
//! partial sum is an `f64` and that loop rounds nothing: it returns
//! exactly `Σ 2^(45−r)`, an integer of at most 2⁵³, times 2⁻⁴⁵. The
//! estimate sums that integer in a `u64` from a table, which gives the
//! loop's bits by construction. A sketch holding a higher rank (an
//! insert reaches 46 with probability 2⁻⁴⁵) takes the `f64` loop itself.
//! The tests hold both paths to the loop bit for bit.

use crate::rng::mix64;

/// Registers per sketch. 256 gives a 6.5 % standard error at 256 bytes
/// per tracked node — 256 MB for a million rows, versus 125 GB for the
/// exact bitset matrix.
pub const REGISTERS: usize = 256;

/// Fixed hash seed. Changing it changes every sketch-mode estimate (and
/// the sketch-mode determinism golden); it exists only to decorrelate
/// the HLL hash from the engine's other `mix64` uses of raw indices.
const HASH_SEED: u64 = 0xC0DE_5EED_57E7_C4B1;

/// The highest rank [`estimate`] sums in integers: [`REGISTERS`] terms of
/// at most 2⁴⁵ sum to at most 2⁵³, which an `f64` holds exactly.
const EXACT_RANK: u8 = 45;

/// `2^(EXACT_RANK − r)` at every rank `r` up to [`EXACT_RANK`].
const SCALED_TERM: [u64; 64] = {
    let mut table = [0; 64];
    let mut r = 0;
    while r <= EXACT_RANK as usize {
        table[r] = 1 << (EXACT_RANK as usize - r);
        r += 1;
    }
    table
};

/// Folds `item` into the sketch. Returns `true` when a register grew
/// (i.e. the sketch changed; while it returns `false` the estimate
/// cannot move).
pub fn update(regs: &mut [u8; REGISTERS], item: u64) -> bool {
    let h = mix64(item ^ HASH_SEED);
    let idx = (h & 0xFF) as usize;
    let w = h >> 8; // 56 significant bits
                    // leading_zeros of a <2^56 value is >= 8; rank in 1..=57 (< u8::MAX).
    let rank = if w == 0 {
        57
    } else {
        (w.leading_zeros() - 8 + 1) as u8
    };
    if rank > regs[idx] {
        regs[idx] = rank;
        true
    } else {
        false
    }
}

/// Estimated distinct count, with the standard small-range linear
///-counting correction.
pub fn estimate(regs: &[u8; REGISTERS]) -> f64 {
    let m = REGISTERS as f64;
    let max = regs.iter().fold(0, |max, &r| max.max(r));
    let zeros = regs.iter().filter(|&&r| r == 0).count();
    let sum = if max <= EXACT_RANK {
        let scaled: u64 = regs.iter().map(|&r| SCALED_TERM[usize::from(r)]).sum();
        scaled as f64 * f64::powi(2.0, -i32::from(EXACT_RANK))
    } else {
        regs.iter()
            .fold(0.0, |sum, &r| sum + f64::powi(2.0, -i32::from(r)))
    };
    let alpha = 0.7213 / (1.0 + 1.079 / m);
    let raw = alpha * m * m / sum;
    if raw <= 2.5 * m && zeros > 0 {
        // Linear counting: much tighter than raw HLL at small
        // cardinalities, and exact-ish in the near-empty regime.
        m * (m / zeros as f64).ln()
    } else {
        raw
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The estimate before its integer path: one `powi` per register,
    /// zeros counted in the same loop. What the tests hold
    /// [`estimate`] to, bit for bit.
    pub(super) fn estimate_reference(regs: &[u8; REGISTERS]) -> f64 {
        let m = REGISTERS as f64;
        let mut sum = 0.0_f64;
        let mut zeros = 0usize;
        for &r in regs {
            sum += f64::powi(2.0, -i32::from(r));
            if r == 0 {
                zeros += 1;
            }
        }
        let alpha = 0.7213 / (1.0 + 1.079 / m);
        let raw = alpha * m * m / sum;
        if raw <= 2.5 * m && zeros > 0 {
            m * (m / zeros as f64).ln()
        } else {
            raw
        }
    }

    /// [`estimate`], asserted bit-equal to [`estimate_reference`].
    fn exact_estimate(regs: &[u8; REGISTERS]) -> f64 {
        let (est, reference) = (estimate(regs), estimate_reference(regs));
        assert_eq!(est.to_bits(), reference.to_bits(), "{est} vs {reference}");
        est
    }

    fn sketch_of(items: impl Iterator<Item = u64>) -> [u8; REGISTERS] {
        let mut regs = [0u8; REGISTERS];
        for item in items {
            update(&mut regs, item);
        }
        regs
    }

    #[test]
    fn empty_sketch_estimates_zero() {
        assert_eq!(exact_estimate(&[0u8; REGISTERS]), 0.0);
    }

    #[test]
    fn scaled_terms_are_the_loop_terms_times_2_to_the_45() {
        let unit = f64::powi(2.0, -i32::from(EXACT_RANK));
        for r in 0..=EXACT_RANK {
            let term = SCALED_TERM[usize::from(r)];
            assert_eq!(term.count_ones(), 1, "rank {r}");
            let loop_term = f64::powi(2.0, -i32::from(r));
            assert_eq!(
                (term as f64 * unit).to_bits(),
                loop_term.to_bits(),
                "rank {r}"
            );
        }
        assert!(SCALED_TERM[usize::from(EXACT_RANK) + 1..]
            .iter()
            .all(|&t| t == 0));
        // The largest integer sum is still an exact `f64`.
        assert!(REGISTERS as u64 * SCALED_TERM[0] <= 1 << f64::MANTISSA_DIGITS);
    }

    #[test]
    fn max_rank_45_takes_the_integer_path_bit_for_bit() {
        // Every register at 45: the integer sum's smallest terms, 256 of
        // them. One 45 among low ranks: its widest spread of terms.
        exact_estimate(&[EXACT_RANK; REGISTERS]);
        let mut regs = sketch_of(0..3_000);
        assert!(regs.iter().all(|&r| r < EXACT_RANK));
        regs[17] = EXACT_RANK;
        exact_estimate(&regs);
    }

    #[test]
    fn max_rank_46_takes_the_loop_bit_for_bit() {
        let mut regs = sketch_of(0..3_000);
        regs[200] = EXACT_RANK + 1;
        exact_estimate(&regs);
        exact_estimate(&[EXACT_RANK + 1; REGISTERS]);
    }

    #[test]
    fn a_sketch_of_rank_57_everywhere_matches_the_loop() {
        // The highest rank an insert makes, in every register.
        let est = exact_estimate(&[57; REGISTERS]);
        assert!(est > 1e18, "{est}");
    }

    #[test]
    fn update_is_idempotent() {
        let mut regs = [0u8; REGISTERS];
        assert!(update(&mut regs, 42));
        let snapshot = regs;
        assert!(!update(&mut regs, 42));
        assert_eq!(regs, snapshot);
    }

    #[test]
    fn estimate_is_insert_order_independent() {
        let fwd = sketch_of(0..5_000);
        let rev = sketch_of((0..5_000).rev());
        assert_eq!(fwd, rev);
    }

    #[test]
    fn small_cardinalities_are_near_exact() {
        // Linear-counting regime: a handful of items should estimate
        // within a register's worth of error.
        for n in [1u64, 5, 20, 100] {
            let regs = sketch_of(0..n);
            let est = estimate(&regs);
            let err = (est - n as f64).abs() / n as f64;
            assert!(
                err < 0.15,
                "n={n} estimated {est:.1} (relative error {err:.3})"
            );
        }
    }

    #[test]
    fn large_cardinalities_are_within_the_stated_error() {
        // 6.5 % standard error; allow 3 sigma.
        for n in [2_000u64, 10_000, 100_000] {
            let regs = sketch_of(0..n);
            let est = estimate(&regs);
            let err = (est - n as f64).abs() / n as f64;
            assert!(
                err < 0.20,
                "n={n} estimated {est:.1} (relative error {err:.3})"
            );
        }
    }

    #[test]
    fn estimate_never_falls_as_items_arrive() {
        let mut regs = [0u8; REGISTERS];
        let mut prev = estimate(&regs);
        for item in 0..3_000u64 {
            let grew = update(&mut regs, item);
            let est = estimate(&regs);
            assert!(est >= prev, "item {item}: {prev} -> {est}");
            // A grown register need not move the estimate (linear counting
            // reads only the empty registers), but an unchanged sketch
            // never does.
            assert!(grew || est == prev, "item {item}");
            prev = est;
        }
    }

    #[test]
    fn registers_hold_ranks_up_to_57() {
        let regs = sketch_of(0..50_000);
        assert!(regs.iter().all(|&r| r <= 57));
        assert!(regs.iter().all(|&r| r > 0), "every register is hit");
    }
}

#[cfg(test)]
mod prop_tests {
    use super::tests::estimate_reference;
    use super::*;
    use crate::rng::Xoshiro256StarStar;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// Exactness oracle: whatever share of the registers is set and
        /// whatever rank caps them — on either side of [`EXACT_RANK`], up
        /// to the 57 no insert exceeds — the estimate has the `powi`
        /// loop's bits.
        #[test]
        fn estimate_has_the_bits_of_the_powi_loop(
            seed in 0u64..1 << 32,
            density in 0u64..=256,
            cap in 1u8..=57,
        ) {
            let mut rng = Xoshiro256StarStar::seed_from_u64(seed);
            let mut regs = [0u8; REGISTERS];
            for r in &mut regs {
                if rng.next_below(256) < density {
                    *r = 1 + rng.next_below(u64::from(cap)) as u8;
                }
            }
            if density > 0 {
                // Reach the cap, so the cap picks the path.
                regs[rng.index(REGISTERS)] = cap;
            }
            prop_assert_eq!(estimate(&regs).to_bits(), estimate_reference(&regs).to_bits());
        }
    }
}
