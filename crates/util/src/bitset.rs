//! A dense bitset for O(1) membership over node-ID spaces.
//!
//! [`IdSet`] is a *growable* set used as an O(1) membership index by the
//! view structures and the sampler's seen-cache, where IDs are dense
//! small integers but no universe bound is known up front. Inserting
//! grows the word vector; querying beyond it is simply `false`.
//!
//! Callers that may encounter adversarially large IDs should gate on
//! [`DENSE_ID_LIMIT`] and fall back to a linear scan beyond it, so a
//! single huge ID cannot balloon memory.

/// Largest ID index the growable [`IdSet`] is allowed to track densely
/// (2²¹ bits = 256 KiB fully grown). IDs at or above this limit must be
/// handled by a caller-side fallback (they are vanishingly rare: the
/// simulation numbers nodes contiguously from zero).
pub const DENSE_ID_LIMIT: usize = 1 << 21;

/// A growable bitset keyed by dense ID index.
///
/// There is no fixed universe: [`IdSet::insert`] grows
/// the backing words on demand and [`IdSet::contains`] answers `false`
/// beyond the grown range instead of panicking. Used as the O(1)
/// membership index of the gossip/BASALT views and the sampler's
/// seen-cache.
///
/// # Examples
///
/// ```
/// use raptee_util::bitset::IdSet;
/// let mut s = IdSet::new();
/// assert!(!s.contains(9000));
/// assert!(s.insert(9000));
/// assert!(!s.insert(9000), "second insert is a no-op");
/// assert!(s.remove(9000));
/// assert!(s.is_empty());
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct IdSet {
    words: Vec<u64>,
    count: usize,
}

impl IdSet {
    /// Creates an empty set (no backing storage until the first insert).
    pub fn new() -> Self {
        Self::default()
    }

    /// Membership test — `false` beyond the grown range, O(1).
    #[inline]
    pub fn contains(&self, idx: usize) -> bool {
        match self.words.get(idx / 64) {
            Some(w) => w & (1u64 << (idx % 64)) != 0,
            None => false,
        }
    }

    /// Whether every index of `range` is in the set (`true` for an
    /// empty range) — a word at a time.
    pub fn contains_range(&self, range: std::ops::Range<usize>) -> bool {
        if range.is_empty() {
            return true;
        }
        let (first, last) = (range.start / 64, (range.end - 1) / 64);
        if last >= self.words.len() {
            return false;
        }
        (first..=last).all(|w| {
            let lo = if w == first { range.start % 64 } else { 0 };
            let hi = if w == last { (range.end - 1) % 64 } else { 63 };
            let mask = (u64::MAX >> (63 - hi)) & (u64::MAX << lo);
            self.words[w] & mask == mask
        })
    }

    /// Inserts `idx`, growing the backing storage if needed; returns
    /// `true` if it was newly set.
    #[inline]
    pub fn insert(&mut self, idx: usize) -> bool {
        let w = idx / 64;
        if w >= self.words.len() {
            self.words.resize(w + 1, 0);
        }
        let mask = 1u64 << (idx % 64);
        if self.words[w] & mask == 0 {
            self.words[w] |= mask;
            self.count += 1;
            true
        } else {
            false
        }
    }

    /// Removes `idx`; returns `true` if it was set.
    #[inline]
    pub fn remove(&mut self, idx: usize) -> bool {
        if let Some(w) = self.words.get_mut(idx / 64) {
            let mask = 1u64 << (idx % 64);
            if *w & mask != 0 {
                *w &= !mask;
                self.count -= 1;
                return true;
            }
        }
        false
    }

    /// Clears every bit, keeping the grown storage for reuse.
    pub fn clear(&mut self) {
        self.words.iter_mut().for_each(|w| *w = 0);
        self.count = 0;
    }

    /// Number of set bits (maintained incrementally — O(1)).
    pub fn count(&self) -> usize {
        self.count
    }

    /// True when no bit is set.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Backing words grown so far — what the set costs in memory, which
    /// [`IdSet::clear`] keeps.
    pub fn words(&self) -> usize {
        self.words.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn idset_grows_on_demand() {
        let mut s = IdSet::new();
        assert!(!s.contains(0));
        assert!(s.insert(3));
        assert!(s.insert(200));
        assert!(!s.insert(200));
        assert_eq!(s.count(), 2);
        assert!(s.contains(3) && s.contains(200));
        assert!(!s.contains(199));
        assert!(!s.contains(1_000_000), "beyond growth is false, not panic");
    }

    #[test]
    fn idset_remove_and_clear() {
        let mut s = IdSet::new();
        s.insert(7);
        s.insert(70);
        assert!(s.remove(7));
        assert!(!s.remove(7), "double remove is a no-op");
        assert!(!s.remove(9999), "never-grown remove is a no-op");
        assert_eq!(s.count(), 1);
        s.clear();
        assert!(s.is_empty());
        assert!(!s.contains(70));
        // Storage survives the clear: re-insert without regrowth.
        assert!(s.insert(70));
    }

    #[test]
    fn idset_word_boundaries() {
        let mut s = IdSet::new();
        for idx in [0usize, 63, 64, 127, 128] {
            assert!(s.insert(idx));
            assert!(s.contains(idx));
        }
        assert_eq!(s.count(), 5);
        for idx in [0usize, 63, 64, 127, 128] {
            assert!(s.remove(idx));
        }
        assert!(s.is_empty());
    }

    #[test]
    fn idset_grows_to_its_largest_index_and_clear_keeps_the_words() {
        let mut s = IdSet::new();
        assert_eq!(s.words(), 0, "nothing allocated before the first insert");
        s.insert(200);
        assert_eq!(s.words(), 4);
        s.insert(5);
        assert_eq!(s.words(), 4, "a smaller index does not grow");
        s.clear();
        assert_eq!(s.words(), 4);
    }

    #[test]
    fn idset_queries_never_grow() {
        let mut s = IdSet::new();
        s.insert(1);
        assert!(!s.contains(DENSE_ID_LIMIT));
        assert!(!s.remove(DENSE_ID_LIMIT));
        assert_eq!(s.words(), 1);
    }

    #[test]
    fn idset_range_queries_match_one_query_per_index() {
        let mut s = IdSet::new();
        for idx in (0..300).filter(|i| i % 97 != 5) {
            s.insert(idx);
        }
        for start in [0, 1, 5, 6, 63, 64, 65, 101, 102, 127, 128, 199, 200] {
            for end in [
                start,
                start + 1,
                start + 63,
                start + 64,
                start + 65,
                299,
                300,
                301,
                400,
            ] {
                let want = (start..end).all(|i| s.contains(i));
                assert_eq!(s.contains_range(start..end), want, "{start}..{end}");
            }
        }
    }

    #[test]
    fn idset_matches_a_hash_set_model() {
        let mut rng = crate::rng::Xoshiro256StarStar::seed_from_u64(17);
        let mut s = IdSet::new();
        let mut model = std::collections::HashSet::new();
        for step in 0..5_000 {
            let idx = rng.index(700);
            if rng.chance(0.6) {
                assert_eq!(s.insert(idx), model.insert(idx), "step {step}");
            } else {
                assert_eq!(s.remove(idx), model.remove(&idx), "step {step}");
            }
            assert_eq!(s.count(), model.len());
        }
        for idx in 0..800 {
            assert_eq!(s.contains(idx), model.contains(&idx), "index {idx}");
        }
    }

    #[test]
    fn idset_neighbouring_bits_are_independent() {
        let mut s = IdSet::new();
        s.insert(64);
        assert!(!s.contains(63) && !s.contains(65) && !s.contains(0));
        s.insert(63);
        s.remove(64);
        assert!(s.contains(63) && !s.contains(64));
        assert_eq!(s.count(), 1);
    }
}
