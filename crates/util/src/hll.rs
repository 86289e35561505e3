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
//! * **Flat storage.** A sketch is any `[u8]` slice of [`REGISTERS`]
//!   bytes; the caller owns a single `Vec<u8>` for all rows and hands
//!   out disjoint `chunks_mut` handles, exactly like the exact-mode
//!   bitset matrix. No per-row allocation.
//! * **Known accuracy.** With `m = 256` registers the standard error is
//!   `1.04 / sqrt(256)` = 6.5 %. The small-range regime uses linear
//!   counting, which is much tighter — and discovery fractions are
//!   ratios of estimates, so systematic bias largely cancels.
//!
//! The register layout is classic HLL (Flajolet et al. 2007): the low
//! 8 hash bits pick a register, the rank (position of the first set bit)
//! of the remaining 56 bits is `max`-ed into it.

use crate::rng::mix64;

/// Registers per sketch. 256 gives a 6.5 % standard error at 256 bytes
/// per tracked node — 256 MB for a million rows, versus 125 GB for the
/// exact bitset matrix.
pub const REGISTERS: usize = 256;

/// Fixed hash seed. Changing it changes every sketch-mode estimate (and
/// the sketch-mode determinism golden); it exists only to decorrelate
/// the HLL hash from the engine's other `mix64` uses of raw indices.
const HASH_SEED: u64 = 0xC0DE_5EED_57E7_C4B1;

/// Folds `item` into the sketch. Returns `true` when a register grew
/// (i.e. the sketch changed; while it returns `false` the estimate
/// cannot move).
///
/// # Panics
///
/// Panics if `regs.len() != REGISTERS`.
pub fn update(regs: &mut [u8], item: u64) -> bool {
    assert_eq!(
        regs.len(),
        REGISTERS,
        "sketch must have {REGISTERS} registers"
    );
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

/// Merges `src` into `dst` (register-wise max). The result sketches the
/// union of the two insert sets.
///
/// # Panics
///
/// Panics if either slice is not `REGISTERS` long.
pub fn merge(dst: &mut [u8], src: &[u8]) {
    assert_eq!(
        dst.len(),
        REGISTERS,
        "sketch must have {REGISTERS} registers"
    );
    assert_eq!(
        src.len(),
        REGISTERS,
        "sketch must have {REGISTERS} registers"
    );
    for (d, s) in dst.iter_mut().zip(src) {
        *d = (*d).max(*s);
    }
}

/// Estimated distinct count, with the standard small-range linear
///-counting correction.
///
/// # Panics
///
/// Panics if `regs.len() != REGISTERS`.
pub fn estimate(regs: &[u8]) -> f64 {
    assert_eq!(
        regs.len(),
        REGISTERS,
        "sketch must have {REGISTERS} registers"
    );
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

    fn sketch_of(items: impl Iterator<Item = u64>) -> Vec<u8> {
        let mut regs = vec![0u8; REGISTERS];
        for item in items {
            update(&mut regs, item);
        }
        regs
    }

    #[test]
    fn empty_sketch_estimates_zero() {
        let regs = vec![0u8; REGISTERS];
        assert_eq!(estimate(&regs), 0.0);
    }

    #[test]
    fn update_is_idempotent() {
        let mut regs = vec![0u8; REGISTERS];
        assert!(update(&mut regs, 42));
        let snapshot = regs.clone();
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
    fn merge_equals_union() {
        let a = sketch_of(0..1_000);
        let b = sketch_of(500..1_500);
        let mut merged = a.clone();
        merge(&mut merged, &b);
        assert_eq!(merged, sketch_of(0..1_500));
    }

    #[test]
    fn merge_is_commutative() {
        let a = sketch_of((0..800).map(|x| x * 3));
        let b = sketch_of((0..800).map(|x| x * 7 + 1));
        let mut ab = a.clone();
        merge(&mut ab, &b);
        let mut ba = b.clone();
        merge(&mut ba, &a);
        assert_eq!(ab, ba);
    }

    #[test]
    fn merge_with_an_empty_sketch_or_itself_changes_nothing() {
        let a = sketch_of(0..300);
        let mut merged = a.clone();
        merge(&mut merged, &[0u8; REGISTERS]);
        assert_eq!(merged, a);
        merge(&mut merged, &a);
        assert_eq!(merged, a);
    }

    #[test]
    fn estimate_never_falls_as_items_arrive() {
        let mut regs = vec![0u8; REGISTERS];
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

    #[test]
    #[should_panic(expected = "registers")]
    fn merge_rejects_a_short_source() {
        merge(&mut [0u8; REGISTERS], &[0u8; 8]);
    }

    #[test]
    #[should_panic(expected = "registers")]
    fn wrong_register_count_is_rejected() {
        let mut regs = vec![0u8; REGISTERS - 1];
        update(&mut regs, 1);
    }
}
