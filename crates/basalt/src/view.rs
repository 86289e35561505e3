//! The BASALT ranked view: per-slot seeded ranking functions with hit
//! counters.
//!
//! Each of the `v` view slots owns a secret *ranking seed* and holds the
//! candidate ID that ranks **closest to that seed** among every ID the
//! node has observed so far (pushes, pull answers, bootstrap). Closeness
//! is measured by a keyed hash distance, so:
//!
//! * the adversary cannot predict which of its IDs rank well for a given
//!   node (seeds are derived from node-local secrets, never revealed);
//! * repeating an ID buys nothing — a slot is replaced only when a
//!   candidate ranks *strictly closer* than the current sample, and a
//!   re-observed sample merely increments the slot's **hit counter**;
//! * the sampling decision is order-invariant: the slot converges to the
//!   distance-minimising ID of the observed set however the stream is
//!   interleaved.
//!
//! Hit counters drive exchange-partner selection (probe the *least
//! confirmed* samples first) and make force-push floods visible without
//! letting them displace anything. Periodic [`BasaltView::rotate`]
//! replaces the seeds of a few slots round-robin, which re-ranks the
//! whole candidate pool and defeats the slow adaptive bias an adversary
//! could otherwise accumulate against long-lived seeds.

use raptee_crypto::SecretKey;
use raptee_net::NodeId;
use raptee_util::bitset::{IdSet, DENSE_ID_LIMIT};
use raptee_util::rng::mix64;

/// One view slot: a ranking seed plus the closest candidate seen so far.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Slot {
    seed: u64,
    generation: u32,
    sample: Option<NodeId>,
    distance: u64,
    hits: u64,
}

impl Slot {
    fn new(seed: u64, generation: u32) -> Self {
        Self {
            seed,
            generation,
            sample: None,
            distance: u64::MAX,
            hits: 0,
        }
    }

    /// The keyed distance between `id` and this slot's seed (smaller is
    /// closer): the same SplitMix64-finalizer family the Brahms sampler
    /// uses for its min-wise permutations.
    #[inline]
    pub(crate) fn distance_to(&self, id: NodeId) -> u64 {
        mix64(self.seed ^ mix64(id.0.wrapping_add(0x9E37_79B9_7F4A_7C15)))
    }

    /// Considers one candidate: replaces the sample when strictly closer
    /// to the seed, counts a hit when the candidate *is* the sample.
    /// Returns `true` on replacement.
    fn consider(&mut self, id: NodeId) -> bool {
        if self.sample == Some(id) {
            self.hits = self.hits.saturating_add(1);
            return false;
        }
        let d = self.distance_to(id);
        if d < self.distance {
            self.sample = Some(id);
            self.distance = d;
            self.hits = 1;
            return true;
        }
        false
    }

    /// The current sample, if any candidate was observed.
    pub(crate) fn sample(&self) -> Option<NodeId> {
        self.sample
    }
}

/// The full ranked view: `v` slots plus the rotation cursor.
///
/// # Examples
///
/// ```
/// use raptee_basalt::BasaltView;
/// use raptee_crypto::SecretKey;
/// use raptee_net::NodeId;
///
/// let mut v = BasaltView::new(NodeId(0), 8, SecretKey::from_seed(7));
/// for id in 1..100 {
///     v.observe(NodeId(id));
/// }
/// assert_eq!(v.sample_ids().len(), 8);
/// // Flooding one ID cannot displace anything.
/// let before = v.sample_ids();
/// for _ in 0..1000 {
///     v.observe(NodeId(50));
/// }
/// assert_eq!(v.sample_ids(), before);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BasaltView {
    owner: NodeId,
    ranking_key: SecretKey,
    slots: Vec<Slot>,
    rotation_cursor: usize,
}

/// Views with at most this many slots skip the dense dedup scratch: a
/// scan over ≤ 64 slots is faster than maintaining an [`IdSet`] whose
/// backing words grow with the largest sampled ID — per-node memory
/// that forbids very large populations. Matches the gossip view's
/// linear-scan gate.
pub(crate) const LINEAR_SCAN_SLOTS: usize = 64;

impl BasaltView {
    /// Creates an empty view of `slots` ranking slots whose seeds are
    /// derived from `ranking_key` (HMAC-SHA-256 through
    /// [`SecretKey::derive`], so seeds are unpredictable to anyone not
    /// holding the key).
    ///
    /// # Panics
    ///
    /// Panics when `slots` is zero.
    pub fn new(owner: NodeId, slots: usize, ranking_key: SecretKey) -> Self {
        assert!(slots > 0, "BASALT view needs at least one slot");
        let mut view = Self {
            owner,
            ranking_key,
            slots: Vec::with_capacity(slots),
            rotation_cursor: 0,
        };
        for i in 0..slots {
            let seed = view.derive_seed(i, 0);
            view.slots.push(Slot::new(seed, 0));
        }
        view
    }

    /// Derives the ranking seed for `(slot, generation)` from the secret
    /// ranking key.
    fn derive_seed(&self, slot: usize, generation: u32) -> u64 {
        let mut ctx = [0u8; 20];
        ctx[..8].copy_from_slice(&self.owner.to_bytes());
        ctx[8..16].copy_from_slice(&(slot as u64).to_le_bytes());
        ctx[16..].copy_from_slice(&generation.to_le_bytes());
        let derived = self.ranking_key.derive("basalt-slot-seed", &ctx);
        u64::from_le_bytes(derived.as_bytes()[..8].try_into().expect("8 bytes"))
    }

    /// Number of slots `v`.
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// Number of slots currently holding a sample.
    pub(crate) fn filled(&self) -> usize {
        self.slots.iter().filter(|s| s.sample.is_some()).count()
    }

    /// True when no slot holds a sample yet.
    pub fn is_empty(&self) -> bool {
        self.filled() == 0
    }

    /// Feeds one candidate to every slot. Returns how many slots
    /// replaced their sample.
    pub fn observe(&mut self, id: NodeId) -> usize {
        if id == self.owner {
            return 0;
        }
        self.slots
            .iter_mut()
            .map(|s| usize::from(s.consider(id)))
            .sum()
    }

    /// Feeds a batch of candidates.
    pub(crate) fn observe_all<I: IntoIterator<Item = NodeId>>(&mut self, ids: I) {
        for id in ids {
            self.observe(id);
        }
    }

    /// Feeds candidates to the given slots only — used to refill freshly
    /// rotated slots from the surviving view without touching the hit
    /// counters of the others.
    pub(crate) fn observe_into(&mut self, slots: &[usize], ids: &[NodeId]) {
        for &i in slots {
            if let Some(slot) = self.slots.get_mut(i) {
                for &id in ids {
                    if id != self.owner {
                        slot.consider(id);
                    }
                }
            }
        }
    }

    /// The per-slot samples in slot order (a multiset: distinct slots can
    /// converge to the same ID, though rarely in large populations).
    pub fn sample_ids(&self) -> Vec<NodeId> {
        self.sample_iter().collect()
    }

    /// Iterator form of [`BasaltView::sample_ids`] (no allocation — used
    /// by the per-round metric bookkeeping).
    pub fn sample_iter(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.slots.iter().filter_map(Slot::sample)
    }

    /// The distinct sampled IDs, in first-slot order.
    pub fn distinct_ids(&self) -> Vec<NodeId> {
        let mut out = Vec::with_capacity(self.slots.len());
        let mut seen = IdSet::new();
        self.distinct_into(&mut out, &mut seen);
        out
    }

    /// [`BasaltView::distinct_ids`] into caller-owned buffers: `out` is
    /// cleared and refilled in first-slot order, `seen` is the dedup
    /// scratch. O(v) instead of the O(v²) scan — the planning, answer
    /// and rotation paths of a node reuse one scratch pair.
    pub(crate) fn distinct_into(&self, out: &mut Vec<NodeId>, seen: &mut IdSet) {
        out.clear();
        seen.clear();
        // Small views dedup by scanning `out` (≤ v entries) so `seen`
        // never grows — see [`LINEAR_SCAN_SLOTS`].
        let scan = self.slots.len() <= LINEAR_SCAN_SLOTS;
        for s in &self.slots {
            if let Some(id) = s.sample {
                let idx = id.0 as usize;
                let fresh = if !scan && idx < DENSE_ID_LIMIT {
                    seen.insert(idx)
                } else {
                    !out.contains(&id)
                };
                if fresh {
                    out.push(id);
                }
            }
        }
    }

    /// Fraction of filled slots whose sample satisfies `pred` (the
    /// Byzantine in-view share of the experiment metrics).
    pub fn fraction_matching<F: Fn(NodeId) -> bool>(&self, pred: F) -> f64 {
        let filled: Vec<NodeId> = self.sample_ids();
        if filled.is_empty() {
            return 0.0;
        }
        filled.iter().filter(|&&id| pred(id)).count() as f64 / filled.len() as f64
    }

    /// Up to `k` distinct sampled IDs ordered by ascending hit counter
    /// (ties by slot index) into caller-owned buffers (`order` is index
    /// scratch, `out` is cleared and refilled): the least-confirmed
    /// samples, probed first by the exchange loop so stale or fabricated
    /// entries are validated or refreshed soonest. The per-round
    /// exchange planning allocates nothing.
    pub(crate) fn least_confirmed_into(
        &self,
        k: usize,
        order: &mut Vec<u32>,
        out: &mut Vec<NodeId>,
    ) {
        order.clear();
        order.extend(
            (0..self.slots.len() as u32).filter(|&i| self.slots[i as usize].sample.is_some()),
        );
        order.sort_by_key(|&i| (self.slots[i as usize].hits, i));
        out.clear();
        for &i in order.iter() {
            let id = self.slots[i as usize]
                .sample
                .expect("filtered to filled slots");
            if !out.contains(&id) {
                out.push(id);
                if out.len() == k {
                    break;
                }
            }
        }
    }

    /// Rotates the next `k` slots (round-robin over the view): each gets
    /// a freshly derived seed, an empty sample and a zeroed hit counter.
    /// Every other slot is left bit-identical. Returns the rotated slot
    /// indices.
    pub(crate) fn rotate(&mut self, k: usize) -> Vec<usize> {
        let v = self.slots.len();
        let k = k.min(v);
        let mut rotated = Vec::with_capacity(k);
        for _ in 0..k {
            let i = self.rotation_cursor;
            self.rotation_cursor = (self.rotation_cursor + 1) % v;
            let generation = self.slots[i].generation + 1;
            let seed = self.derive_seed(i, generation);
            self.slots[i] = Slot::new(seed, generation);
            rotated.push(i);
        }
        rotated
    }

    /// Evicts `id` from the view: every slot currently sampling it is
    /// reset with a freshly derived seed (new generation, empty sample,
    /// zeroed hit counter), exactly like a [`BasaltView::rotate`] of
    /// those slots — so the evicted ID only wins a slot back if it is
    /// re-observed *and* ranks closest under the fresh seed. All other
    /// slots stay bit-identical. Returns the number of slots reset.
    pub(crate) fn evict(&mut self, id: NodeId) -> usize {
        let mut reset = 0;
        for i in 0..self.slots.len() {
            if self.slots[i].sample == Some(id) {
                let generation = self.slots[i].generation + 1;
                let seed = self.derive_seed(i, generation);
                self.slots[i] = Slot::new(seed, generation);
                reset += 1;
            }
        }
        reset
    }

    /// Checks the structural invariants: the owner is never sampled and
    /// every stored distance matches its sample.
    pub fn invariants_hold(&self) -> bool {
        self.slots.iter().all(|s| match s.sample {
            None => s.distance == u64::MAX && s.hits == 0,
            Some(id) => id != self.owner && s.distance_to(id) == s.distance && s.hits >= 1,
        })
    }
}

#[cfg(test)]
impl Slot {
    pub(crate) fn hits(&self) -> u64 {
        self.hits
    }

    pub(crate) fn generation(&self) -> u32 {
        self.generation
    }
}

#[cfg(test)]
impl BasaltView {
    pub(crate) fn slots(&self) -> &[Slot] {
        &self.slots
    }

    pub(crate) fn contains(&self, id: NodeId) -> bool {
        self.sample_iter().any(|s| s == id)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn view(owner: u64, slots: usize) -> BasaltView {
        BasaltView::new(NodeId(owner), slots, SecretKey::from_seed(42))
    }

    #[test]
    fn slots_converge_to_distance_minimum() {
        let mut v = view(0, 4);
        v.observe_all((1..200).map(NodeId));
        for s in v.slots() {
            let argmin = (1..200)
                .map(NodeId)
                .min_by_key(|&id| s.distance_to(id))
                .unwrap();
            assert_eq!(s.sample(), Some(argmin));
        }
        assert!(v.invariants_hold());
    }

    #[test]
    fn owner_is_never_sampled() {
        let mut v = view(7, 8);
        for _ in 0..100 {
            v.observe(NodeId(7));
        }
        assert!(v.is_empty());
        v.observe(NodeId(1));
        assert!(!v.contains(NodeId(7)));
        assert!(v.invariants_hold());
    }

    #[test]
    fn repetition_only_counts_hits() {
        let mut v = view(0, 4);
        v.observe_all((1..50).map(NodeId));
        let before = v.sample_ids();
        let winner = before[0];
        let hits_before = v.slots()[0].hits();
        for _ in 0..1000 {
            v.observe(winner);
        }
        assert_eq!(v.sample_ids(), before, "repetition must not displace");
        assert!(
            v.slots()[0].hits() > hits_before,
            "re-observing the sample must count hits"
        );
    }

    #[test]
    fn observation_order_is_irrelevant() {
        let ids: Vec<NodeId> = (1..100).map(NodeId).collect();
        let mut forward = view(0, 8);
        forward.observe_all(ids.iter().copied());
        let mut backward = view(0, 8);
        backward.observe_all(ids.iter().rev().copied());
        assert_eq!(forward.sample_ids(), backward.sample_ids());
    }

    #[test]
    fn distinct_ids_deduplicate() {
        let mut v = view(0, 16);
        // Two candidates only: slots collapse onto them.
        v.observe(NodeId(1));
        v.observe(NodeId(2));
        assert_eq!(v.sample_ids().len(), 16);
        let distinct = v.distinct_ids();
        assert!(distinct.len() <= 2);
        assert!(distinct.contains(&NodeId(1)) || distinct.contains(&NodeId(2)));
    }

    #[test]
    fn least_confirmed_orders_by_hits() {
        let mut v = view(0, 3);
        v.observe_all((1..100).map(NodeId));
        let samples = v.sample_ids();
        // Confirm slot 0's sample many times.
        for _ in 0..10 {
            v.observe(samples[0]);
        }
        let (mut order, mut probes) = (Vec::new(), Vec::new());
        v.least_confirmed_into(3, &mut order, &mut probes);
        assert_eq!(
            probes.last(),
            Some(&samples[0]),
            "the most-confirmed sample is probed last"
        );
        v.least_confirmed_into(1, &mut order, &mut probes);
        assert!(probes.len() == 1);
    }

    #[test]
    fn rotation_resets_round_robin() {
        let mut v = view(0, 4);
        v.observe_all((1..100).map(NodeId));
        let before = v.slots().to_vec();
        let rotated = v.rotate(2);
        assert_eq!(rotated, vec![0, 1]);
        for (i, slot) in v.slots().iter().enumerate() {
            if rotated.contains(&i) {
                assert_eq!(slot.sample(), None);
                assert_eq!(slot.hits(), 0);
                assert_eq!(slot.generation(), before[i].generation() + 1);
            } else {
                assert_eq!(slot, &before[i], "untouched slots stay bit-identical");
            }
        }
        // The cursor wraps.
        assert_eq!(v.rotate(3), vec![2, 3, 0]);
    }

    #[test]
    fn rotation_changes_the_seed() {
        let mut v = view(0, 2);
        v.observe_all((1..100).map(NodeId));
        let old = v.slots()[0].sample();
        v.rotate(1);
        v.observe_all((1..100).map(NodeId));
        // With a fresh seed over 99 candidates, the new argmin is almost
        // surely different; at minimum the slot must be filled again.
        assert!(v.slots()[0].sample().is_some());
        let _ = old; // the re-ranking may or may not pick the same ID
        assert!(v.invariants_hold());
    }

    #[test]
    fn observe_into_fills_only_target_slots() {
        let mut v = view(0, 4);
        v.observe_all((1..50).map(NodeId));
        let rotated = v.rotate(1);
        let untouched = v.slots()[1];
        v.observe_into(&rotated, &(1..50).map(NodeId).collect::<Vec<_>>());
        assert!(v.slots()[0].sample().is_some(), "rotated slot refilled");
        assert_eq!(v.slots()[1], untouched, "other slots' hits untouched");
    }

    #[test]
    fn fraction_matching_counts_filled_slots() {
        let mut v = view(0, 8);
        assert_eq!(v.fraction_matching(|_| true), 0.0);
        v.observe_all((1..100).map(NodeId));
        let f = v.fraction_matching(|id| id.0 < 50);
        assert!((0.0..=1.0).contains(&f));
        assert_eq!(v.fraction_matching(|_| true), 1.0);
    }

    #[test]
    #[should_panic(expected = "at least one slot")]
    fn zero_slots_panics() {
        BasaltView::new(NodeId(0), 0, SecretKey::from_seed(1));
    }

    #[test]
    fn scratch_variants_match_allocating_ones() {
        let mut v = view(3, 16);
        v.observe_all((1..40).map(NodeId));
        let mut out = vec![NodeId(999)];
        let mut seen = IdSet::new();
        v.distinct_into(&mut out, &mut seen);
        assert_eq!(out, v.distinct_ids());
    }

    /// The distinct samples by the quadratic scan, in first-slot order.
    fn distinct_by_scan(v: &BasaltView) -> Vec<NodeId> {
        let mut out = Vec::new();
        for id in v.sample_iter() {
            if !out.contains(&id) {
                out.push(id);
            }
        }
        out
    }

    #[test]
    fn distinct_ids_keep_first_slot_order() {
        let mut v = view(0, 16);
        v.observe_all((1..6).map(NodeId));
        assert_eq!(v.distinct_ids(), distinct_by_scan(&v));
    }

    #[test]
    fn only_large_views_dedup_through_the_id_set() {
        let mut seen = IdSet::new();
        let mut out = Vec::new();
        let mut small = view(0, LINEAR_SCAN_SLOTS);
        small.observe_all((1..300).map(NodeId));
        small.distinct_into(&mut out, &mut seen);
        assert_eq!(out, distinct_by_scan(&small));
        assert_eq!(seen.words(), 0, "a small view never grows the scratch");

        let mut large = view(0, LINEAR_SCAN_SLOTS + 1);
        large.observe_all((1..300).map(NodeId));
        large.observe(NodeId(u64::MAX));
        large.distinct_into(&mut out, &mut seen);
        assert_eq!(out, distinct_by_scan(&large));
        assert!(seen.words() > 0);
        assert!(
            !seen.contains(DENSE_ID_LIMIT),
            "huge IDs are scanned, not set"
        );
    }

    #[test]
    fn evict_resets_exactly_the_slots_sampling_the_id() {
        let mut v = view(0, 16);
        v.observe_all((1..4).map(NodeId));
        let target = v.sample_ids()[0];
        let before = v.slots().to_vec();
        let holding = before.iter().filter(|s| s.sample() == Some(target)).count();
        assert_eq!(v.evict(target), holding);
        assert!(!v.contains(target));
        for (slot, old) in v.slots().iter().zip(&before) {
            if old.sample() == Some(target) {
                assert_eq!(slot.sample(), None);
                assert_eq!(slot.generation(), old.generation() + 1);
            } else {
                assert_eq!(slot, old, "other slots stay bit-identical");
            }
        }
        assert_eq!(v.evict(target), 0, "nothing left to evict");
        assert!(v.invariants_hold());
    }

    #[test]
    fn the_ranking_key_decides_the_samples() {
        let ids = (1..500).map(NodeId);
        let mut a = view(0, 16);
        a.observe_all(ids.clone());
        let mut same = view(0, 16);
        same.observe_all(ids.clone());
        let mut other = BasaltView::new(NodeId(0), 16, SecretKey::from_seed(43));
        other.observe_all(ids);
        assert_eq!(a, same);
        assert_ne!(a.sample_ids(), other.sample_ids());
    }
}
