//! The Brahms sampling component.
//!
//! Brahms maintains, next to its gossip-fed dynamic view, a *sample list*
//! `S` of `l2` entries that converges to a uniform random sample of all
//! IDs ever streamed through the node — regardless of how biased the
//! stream is. The trick is min-wise independent permutations (Broder et
//! al., JCSS 2000): each sampler draws a random hash function at
//! initialisation and remembers the ID with the smallest hash seen so
//! far. Because the hash is fixed *before* the stream arrives, every
//! distinct ID has the same chance of being the minimum, no matter how
//! often the adversary repeats its own IDs — over-representation in the
//! stream buys the adversary nothing.
//!
//! The sample list's *history sample* is what lets Brahms self-heal from
//! targeted attacks (defence (iv) in the paper), and RAPTEE additionally
//! protects it at trusted nodes by filtering what enters the stream
//! (Byzantine eviction).
//!
//! [`SamplerArray`] packages `l2` independent samplers with the probe
//! based *validation* of the original Brahms paper: sampled nodes are
//! periodically pinged and a dead sample causes its sampler to re-draw a
//! fresh hash function, so departed nodes eventually leave `S`. It keeps
//! its samplers as three flat lanes in one allocation, hashed eight at a
//! time where the CPU can; its tests compare it with a plain `Vec` of
//! one-function samplers.

#![warn(unreachable_pub)]

use raptee_net::NodeId;
use raptee_util::bitset::{IdSet, DENSE_ID_LIMIT};
use raptee_util::rng::{mix64, Xoshiro256StarStar};

/// The ID pre-mix shared by every sampler hash: `h_seed(id) =
/// mix64(seed ^ premix(id))`. Computing it once per observed ID halves
/// the work of feeding an ID through all `l2` samplers.
#[inline]
fn premix(id: NodeId) -> u64 {
    mix64(id.0.wrapping_add(0x9E37_79B9_7F4A_7C15))
}

/// Samplers one 512-bit vector instruction covers; the lanes are padded
/// to a multiple of it so the vectorised kernel has no scalar tail.
const LANE_BLOCK: usize = 8;

/// IDs one call into the hash kernel covers: the cache filter fills an
/// on-stack batch of this many (ID, pre-mix) pairs, so the kernel's call
/// and feature check are paid once per batch, not once per ID.
const BATCH: usize = 64;

/// The cold path, and its only body: hashes one ID (pre-mixed to `pre`)
/// under every lane's seed and keeps it wherever it beats the lane's best
/// hash. Branch-free selects over three slices, so LLVM vectorises it as
/// far as the target features of the function it is inlined into allow.
#[inline(always)]
fn observe_lanes(seeds: &[u64], best: &mut [u64], ids: &mut [u64], id: u64, pre: u64) {
    for ((&seed, best), slot) in seeds.iter().zip(best).zip(ids) {
        let h = mix64(seed ^ pre);
        let wins = h < *best;
        *best = if wins { h } else { *best };
        *slot = if wins { id } else { *slot };
    }
}

/// [`observe_lanes`] for each `(id, pre)` of `batch` in turn.
#[inline(always)]
fn observe_batch(seeds: &[u64], best: &mut [u64], ids: &mut [u64], batch: &[(u64, u64)]) {
    for &(id, pre) in batch {
        observe_lanes(seeds, best, ids, id, pre);
    }
}

/// [`observe_batch`] on the widest compiled copy this CPU runs; returns
/// whether that was the AVX-512 one — a 64-bit vector multiply
/// (`vpmullq`, AVX-512DQ), an unsigned compare into a mask and masked
/// stores, eight samplers per instruction. Out of line so the seen-cache
/// filter in front of it stays a tight loop over the stream.
#[inline(never)]
fn observe_batch_widest(
    seeds: &[u64],
    best: &mut [u64],
    ids: &mut [u64],
    batch: &[(u64, u64)],
) -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        #[target_feature(enable = "avx512f,avx512dq")]
        fn wide(seeds: &[u64], best: &mut [u64], ids: &mut [u64], batch: &[(u64, u64)]) {
            observe_batch(seeds, best, ids, batch)
        }
        if is_x86_feature_detected!("avx512f") && is_x86_feature_detected!("avx512dq") {
            // SAFETY: `wide` is a safe function whose only requirement is
            // the two CPU features its attribute enables, and the run-time
            // detection on the line above has just confirmed both.
            unsafe { wide(seeds, best, ids, batch) };
            return true;
        }
    }
    observe_batch(seeds, best, ids, batch);
    false
}

/// The full sampling component: `l2` independent samplers.
///
/// # Layout
///
/// Three flat `u64` lanes — hash seeds, best hashes, sampled IDs — not an
/// array of per-sampler structs, so the cold path (a new ID is hashed under all
/// `l2` seeds: N × l2 hashes per node and run) is one vectorisable loop.
/// The lanes sit end to end in one allocation, split three ways per call.
/// A lane holds no sample exactly when its best hash is `u64::MAX`: a
/// fresh function starts there and an update needs a strictly smaller
/// hash. The lanes are padded to a multiple of eight with inert lanes
/// (best hash 0, unbeatable) so the loop has no scalar tail; only the
/// first `l2` are read back. `x ↦ mix64(seed ^ premix(x))` is a
/// bijection, so distinct IDs never tie and each sample is the argmin
/// over the *set* streamed, whatever the order, batching or kernel copy.
///
/// # Examples
///
/// ```
/// use raptee_sampler::SamplerArray;
/// use raptee_net::NodeId;
/// use raptee_util::rng::Xoshiro256StarStar;
///
/// let mut rng = Xoshiro256StarStar::seed_from_u64(1);
/// let mut s = SamplerArray::new(16, &mut rng);
/// for i in 0..100 {
///     s.observe(NodeId(i));
/// }
/// assert_eq!(s.samples().len(), 16);
/// ```
#[derive(Debug, Clone)]
pub struct SamplerArray {
    /// `l2`; each lane is this rounded up to a multiple of [`LANE_BLOCK`].
    len: usize,
    /// The three lanes, end to end (see [`SamplerArray::lanes`]): hash
    /// seeds; the smallest hash so far (`u64::MAX` = no sample yet, 0 in
    /// the padding); and the raw ID that hashed to it (unspecified while
    /// there is none).
    lanes: Vec<u64>,
    /// Dense IDs every sampler has already observed since its last
    /// (re-)initialisation. Min-wise sampling is invariant under
    /// repetition, so a cached ID can skip the whole hash loop — after
    /// the gossip stream converges this eliminates nearly all sampler
    /// work. Any sampler reset ([`SamplerArray::validate`]) clears the
    /// cache, restoring the conservative invariant that a cached ID has
    /// been seen by *every* live hash function.
    seen: IdSet,
    /// IDs at or above this bound bypass the seen-cache (they take the
    /// full hash loop, which is always correct — just slower on
    /// repeats): [`DENSE_ID_LIMIT`], or 0 once
    /// [`SamplerArray::disable_seen_cache`] ran, which large populations
    /// call because a per-node cache of `max_id/64` words is an
    /// O(N²/64) memory bill at that scale.
    seen_limit: usize,
}

impl SamplerArray {
    /// Creates `l2` samplers with independent hash functions.
    ///
    /// # Panics
    ///
    /// Panics if `l2` is zero.
    pub fn new(l2: usize, rng: &mut Xoshiro256StarStar) -> Self {
        assert!(l2 > 0, "sampler array needs at least one sampler");
        let padded = l2.next_multiple_of(LANE_BLOCK);
        let mut array = Self {
            len: l2,
            lanes: vec![0; 3 * padded],
            seen: IdSet::new(),
            seen_limit: DENSE_ID_LIMIT,
        };
        array.reinit(rng);
        array
    }

    /// Re-draws every hash function from `rng` — the draws of
    /// [`SamplerArray::new`] — and forgets every sample, keeping the lane
    /// allocations and whether the seen-cache is on: a node restarted
    /// cold in a population that runs uncached must stay uncached.
    pub fn reinit(&mut self, rng: &mut Xoshiro256StarStar) {
        let len = self.len;
        let (seeds, best, _) = self.lanes_mut();
        for (seed, best) in seeds.iter_mut().zip(best).take(len) {
            *seed = rng.next_u64();
            *best = u64::MAX;
        }
        self.seen.clear();
    }

    /// The seed, best-hash and ID lanes, each padded to a whole number of
    /// [`LANE_BLOCK`]s.
    fn lanes(&self) -> (&[u64], &[u64], &[u64]) {
        let padded = self.lanes.len() / 3;
        let (seeds, rest) = self.lanes.split_at(padded);
        let (best, ids) = rest.split_at(padded);
        (seeds, best, ids)
    }

    /// [`SamplerArray::lanes`], with the seeds writable too.
    fn lanes_mut(&mut self) -> (&mut [u64], &mut [u64], &mut [u64]) {
        let padded = self.lanes.len() / 3;
        let (seeds, rest) = self.lanes.split_at_mut(padded);
        let (best, ids) = rest.split_at_mut(padded);
        (seeds, best, ids)
    }

    /// Hashes every `(id, pre)` of `batch` under every lane's seed: the
    /// cold path.
    fn observe_cold(&mut self, batch: &[(u64, u64)]) {
        let (seeds, best, ids) = self.lanes_mut();
        observe_batch_widest(seeds, best, ids, batch);
    }

    /// Feeds `ids` through a [`Feed`], consulting and filling the
    /// seen-cache when `cached` is set.
    fn observe_stream<I: IntoIterator<Item = NodeId>>(&mut self, ids: I, cached: bool) {
        let mut feed = self.feed();
        if !cached {
            feed.cache_below = 0;
        }
        for id in ids {
            feed.push(id);
        }
    }

    /// A [`Feed`] into this array: [`SamplerArray::observe_all`] one ID
    /// at a time, for a caller that walks its stream in pieces.
    pub fn feed(&mut self) -> Feed<'_> {
        Feed {
            cache_below: self.seen_limit,
            array: self,
            batch: [(0, 0); BATCH],
            len: 0,
        }
    }

    /// Whether the seen-cache holds every ID of `ids` — so that observing
    /// any of them changes nothing — checked a word at a time. `false`
    /// when part of the range lies at or above the cache limit, `true`
    /// for an empty range.
    pub fn has_seen_all(&self, ids: std::ops::Range<usize>) -> bool {
        ids.is_empty() || (ids.end <= self.seen_limit && self.seen.contains_range(ids))
    }

    /// Turns the seen-cache off for good and *frees* its backing storage
    /// (the bitset words may already span `max_id_seen / 8` bytes by the
    /// time a caller can disable a freshly-bootstrapped node's cache —
    /// `clear` alone would keep that allocation alive). The cache is a
    /// pure optimisation — min-wise sampling is idempotent under
    /// repetition — so every sample stays unchanged. Large populations
    /// disable it to keep per-node memory O(l2) instead of O(max_id).
    pub fn disable_seen_cache(&mut self) {
        self.seen_limit = 0;
        self.seen = IdSet::new();
    }

    /// Number of IDs the seen-cache holds (0 while it is disabled).
    pub fn seen_cached(&self) -> usize {
        self.seen.count()
    }

    /// Number of samplers (`l2`).
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when the array holds no samplers (never, by construction).
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Feeds one ID to every sampler. Repeats of an already-seen ID are
    /// O(1): min-wise sampling cannot change on repetition, so the
    /// seen-cache short-circuits the hash loop.
    #[inline]
    pub fn observe(&mut self, id: NodeId) {
        let idx = id.0 as usize;
        if idx < self.seen_limit && !self.seen.insert(idx) {
            return;
        }
        self.observe_cold(&[(id.0, premix(id))]);
    }

    /// Feeds a batch of IDs: the same samples as [`SamplerArray::observe`]
    /// on each in turn, with one hash-kernel call per fixed-size batch of
    /// uncached IDs.
    pub fn observe_all<I: IntoIterator<Item = NodeId>>(&mut self, ids: I) {
        self.observe_stream(ids, true);
    }

    /// Feeds a batch of IDs to every sampler without consulting or
    /// filling the seen-cache. Same samples as
    /// [`SamplerArray::observe_all`] (the cache only ever skips work); a
    /// later repeat of one of these IDs is hashed once more. For a stream
    /// observed before the owner of the array could disable the cache — a
    /// node's bootstrap list — so that a population that runs uncached
    /// never allocates `max_id / 8` bytes per node just to free them.
    pub fn observe_all_uncached<I: IntoIterator<Item = NodeId>>(&mut self, ids: I) {
        self.observe_stream(ids, false);
    }

    /// Words of backing storage the seen-cache holds (0 until it first
    /// caches an ID, and again after [`SamplerArray::disable_seen_cache`]).
    pub fn seen_cache_words(&self) -> usize {
        self.seen.words()
    }

    /// The sampled IDs in lane order, skipping lanes that hold none.
    fn sampled(&self) -> impl Iterator<Item = NodeId> + '_ {
        let (_, best, ids) = self.lanes();
        let live = best[..self.len].iter().zip(ids);
        live.filter(|(&best, _)| best != u64::MAX)
            .map(|(_, &id)| NodeId(id))
    }

    /// The current sample list (one entry per sampler that has observed at
    /// least one ID). May contain duplicates across samplers — Brahms uses
    /// it as a multiset.
    pub fn samples(&self) -> Vec<NodeId> {
        self.sampled().collect()
    }

    /// [`SamplerArray::samples`] into a caller-owned buffer (cleared
    /// first) — the per-round history-sample path allocates nothing.
    pub fn samples_into(&self, out: &mut Vec<NodeId>) {
        out.clear();
        out.extend(self.sampled());
    }

    /// Brahms validation: probes each current sample with `is_alive` and
    /// re-initialises the samplers whose sampled node is dead. Returns how
    /// many samplers were reset.
    pub fn validate<F: FnMut(NodeId) -> bool>(
        &mut self,
        mut is_alive: F,
        rng: &mut Xoshiro256StarStar,
    ) -> usize {
        let mut reset = 0;
        let len = self.len;
        let (seeds, best, ids) = self.lanes_mut();
        for k in 0..len {
            if best[k] != u64::MAX && !is_alive(NodeId(ids[k])) {
                seeds[k] = rng.next_u64();
                best[k] = u64::MAX;
                reset += 1;
            }
        }
        if reset > 0 {
            // A fresh hash function has seen nothing: drop the seen-cache
            // so future streams reach it (repeats stay idempotent for the
            // untouched samplers).
            self.seen.clear();
        }
        reset
    }

    /// Fraction of samplers currently holding an ID for which `pred` is
    /// true — used by the experiment metrics (e.g. "how Byzantine is the
    /// sample list").
    pub fn fraction_matching<F: Fn(NodeId) -> bool>(&self, pred: F) -> f64 {
        match self.sampled().count() {
            0 => 0.0,
            live => self.sampled().filter(|&id| pred(id)).count() as f64 / live as f64,
        }
    }
}

/// A stream on its way into a [`SamplerArray`]: each [`Feed::push`]
/// is [`SamplerArray::observe`], except that the IDs the seen-cache lets
/// through wait in an on-stack batch of 64 for one hash-kernel
/// call. The batch is flushed when full and when the feed drops. The
/// seen-cache is updated at `push` time, so [`SamplerArray::has_seen_all`]
/// through [`Feed::array`] already counts the IDs still waiting.
pub struct Feed<'a> {
    array: &'a mut SamplerArray,
    /// IDs below this bound go through the seen-cache: the array's
    /// limit, or 0 for a feed that bypasses the cache.
    cache_below: usize,
    batch: [(u64, u64); BATCH],
    len: usize,
}

impl Feed<'_> {
    /// Feeds one ID to every sampler.
    #[inline]
    pub fn push(&mut self, id: NodeId) {
        let idx = id.0 as usize;
        if idx < self.cache_below && !self.array.seen.insert(idx) {
            return;
        }
        self.batch[self.len] = (id.0, premix(id));
        self.len += 1;
        if self.len == BATCH {
            self.array.observe_cold(&self.batch);
            self.len = 0;
        }
    }

    /// The array being fed (its samples lag by the waiting batch).
    pub fn array(&self) -> &SamplerArray {
        self.array
    }
}

impl Drop for Feed<'_> {
    fn drop(&mut self) {
        if self.len > 0 {
            self.array.observe_cold(&self.batch[..self.len]);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A single min-wise sampler: remembers the streamed ID minimising a
    /// randomly drawn hash function. The public sampler before the lanes,
    /// kept as the one-function reference [`Reference`] is built from.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub(super) struct Sampler {
        seed: u64,
        best_hash: u64,
        sample: Option<NodeId>,
    }

    impl Sampler {
        /// Creates a sampler with a hash function drawn from `seed`.
        pub(super) fn new(seed: u64) -> Self {
            Self {
                seed,
                best_hash: u64::MAX,
                sample: None,
            }
        }

        /// The keyed hash `h_seed(id)` — a SplitMix64-finalizer construction
        /// approximating a min-wise independent family.
        #[inline]
        pub(super) fn hash(&self, id: NodeId) -> u64 {
            mix64(self.seed ^ premix(id))
        }

        /// Feeds one ID through the sampler.
        pub(super) fn observe(&mut self, id: NodeId) {
            let h = self.hash(id);
            if h < self.best_hash {
                self.best_hash = h;
                self.sample = Some(id);
            }
        }

        /// The current sample, if any ID was observed.
        pub(super) fn sample(&self) -> Option<NodeId> {
            self.sample
        }

        /// Re-initialises with a fresh hash function, forgetting the current
        /// sample (Brahms' reaction to a failed validation probe).
        pub(super) fn reinit(&mut self, new_seed: u64) {
            *self = Sampler::new(new_seed);
        }
    }

    /// The array as it was before the lanes, and what they are checked
    /// against: one [`Sampler`] per hash function, no cache, no padding.
    pub(super) struct Reference(Vec<Sampler>);

    impl Reference {
        /// Draws the seeds [`SamplerArray::new`] draws from an equal RNG.
        pub(super) fn new(l2: usize, rng: &mut Xoshiro256StarStar) -> Self {
            Self((0..l2).map(|_| Sampler::new(rng.next_u64())).collect())
        }

        pub(super) fn observe(&mut self, id: NodeId) {
            self.0.iter_mut().for_each(|s| s.observe(id));
        }

        pub(super) fn validate<F: FnMut(NodeId) -> bool>(
            &mut self,
            mut is_alive: F,
            rng: &mut Xoshiro256StarStar,
        ) -> usize {
            let mut reset = 0;
            for s in &mut self.0 {
                if s.sample().is_some_and(|id| !is_alive(id)) {
                    s.reinit(rng.next_u64());
                    reset += 1;
                }
            }
            reset
        }

        pub(super) fn samples(&self) -> Vec<NodeId> {
            self.0.iter().filter_map(Sampler::sample).collect()
        }
    }

    /// Every read accessor of `arr` against the formula over the
    /// reference's sample list.
    pub(super) fn assert_matches(arr: &SamplerArray, reference: &Reference) {
        let expect = reference.samples();
        assert_eq!(arr.len(), reference.0.len());
        assert_eq!(arr.samples(), expect);
        let mut into = vec![NodeId(7)];
        arr.samples_into(&mut into);
        assert_eq!(into, expect);

        let low_bit = |id: NodeId| id.0 & 1 == 0;
        let fraction = match expect.len() {
            0 => 0.0,
            n => expect.iter().filter(|&&id| low_bit(id)).count() as f64 / n as f64,
        };
        assert_eq!(arr.fraction_matching(low_bit), fraction);
    }

    /// `mix64` backwards (it is a bijection: two odd multiplies and three
    /// xor-shifts).
    fn unmix64(mut z: u64) -> u64 {
        // Newton's iteration doubles the correct low bits of an inverse
        // modulo 2⁶⁴; an odd `a` is its own inverse to three bits.
        let inverse = |a: u64| {
            (0..5).fold(a, |x, _| {
                x.wrapping_mul(2u64.wrapping_sub(a.wrapping_mul(x)))
            })
        };
        z ^= (z >> 31) ^ (z >> 62);
        z = z.wrapping_mul(inverse(0x94D0_49BB_1331_11EB));
        z ^= (z >> 27) ^ (z >> 54);
        z = z.wrapping_mul(inverse(0xBF58_476D_1CE4_E5B9));
        z ^ (z >> 30) ^ (z >> 60)
    }

    #[test]
    fn sampler_keeps_minimum() {
        let s0 = Sampler::new(42);
        // Find the argmin by brute force and check observe() agrees for
        // every prefix order.
        let ids: Vec<NodeId> = (0..50).map(NodeId).collect();
        let argmin = *ids.iter().min_by_key(|id| s0.hash(**id)).unwrap();
        let mut s = s0;
        for &id in &ids {
            s.observe(id);
        }
        assert_eq!(s.sample(), Some(argmin));
    }

    #[test]
    fn sampler_empty_is_none() {
        assert_eq!(Sampler::new(1).sample(), None);
    }

    #[test]
    fn repetition_does_not_bias() {
        // Adversary floods its ID a million times; an honest ID with a
        // smaller hash still wins.
        let s0 = Sampler::new(7);
        let honest = NodeId(1);
        let byz = NodeId(2);
        let (winner, loser) = if s0.hash(honest) < s0.hash(byz) {
            (honest, byz)
        } else {
            (byz, honest)
        };
        let mut s = s0;
        for _ in 0..1000 {
            s.observe(loser);
        }
        s.observe(winner);
        for _ in 0..1000 {
            s.observe(loser);
        }
        assert_eq!(s.sample(), Some(winner));
    }

    #[test]
    fn reinit_forgets() {
        let mut s = Sampler::new(1);
        s.observe(NodeId(5));
        s.reinit(2);
        assert_eq!(s.sample(), None);
    }

    #[test]
    fn array_basic_flow() {
        let mut rng = Xoshiro256StarStar::seed_from_u64(3);
        let mut arr = SamplerArray::new(8, &mut rng);
        assert_eq!(arr.len(), 8);
        assert!(arr.samples().is_empty());
        arr.observe_all((0..20).map(NodeId));
        assert_eq!(arr.samples().len(), 8);
    }

    #[test]
    fn lanes_are_padded_to_whole_blocks_at_exact_capacity() {
        let mut rng = Xoshiro256StarStar::seed_from_u64(3);
        for (l2, padded) in [(1, 8), (7, 8), (8, 8), (9, 16), (16, 16), (100, 104)] {
            let mut arr = SamplerArray::new(l2, &mut rng);
            arr.observe_all((0..50).map(NodeId));
            assert_eq!(arr.len(), l2);
            assert_eq!(arr.samples().len(), l2, "padding is never read back");
            assert_eq!(
                (arr.lanes.len(), arr.lanes.capacity()),
                (3 * padded, 3 * padded)
            );
            let (seeds, best, ids) = arr.lanes();
            assert_eq!(
                (seeds.len(), best.len(), ids.len()),
                (padded, padded, padded)
            );
            assert!(best[l2..].iter().all(|&b| b == 0), "padding stays inert");
        }
    }

    #[test]
    fn both_compiled_kernels_agree() {
        // 100 real lanes and 4 inert ones, as at the paper's l2; batches
        // at the edges of the filter's batch size, each ending in a repeat.
        let mut rng = Xoshiro256StarStar::seed_from_u64(17);
        const PAD: u64 = 0xDEAD;
        let seeds: Vec<u64> = (0..104).map(|_| rng.next_u64()).collect();
        let mut best = vec![u64::MAX; 104];
        best[100..].fill(0);
        let mut ids = vec![PAD; 104];
        let (mut best_wide, mut ids_wide) = (best.clone(), ids.clone());
        let mut reference: Vec<Sampler> = seeds[..100].iter().map(|&s| Sampler::new(s)).collect();

        let mut ran_wide = true;
        for round in 0..200 {
            let len = [0, 1, BATCH - 1, BATCH, BATCH + 1][round % 5];
            let mut batch: Vec<(u64, u64)> = (0..len)
                .map(|_| {
                    let id = NodeId(rng.next_u64() >> rng.next_below(64));
                    (id.0, premix(id))
                })
                .collect();
            if let Some(&first) = batch.first() {
                batch.push(first);
            }
            observe_batch(&seeds, &mut best, &mut ids, &batch);
            ran_wide &= observe_batch_widest(&seeds, &mut best_wide, &mut ids_wide, &batch);
            for &(id, _) in &batch {
                reference.iter_mut().for_each(|s| s.observe(NodeId(id)));
            }
        }

        let expect: Vec<u64> = reference.iter().map(|s| s.sample().unwrap().0).collect();
        assert_eq!(&ids[..100], &expect[..]);
        assert_eq!((&best[100..], &ids[100..]), (&[0; 4][..], &[PAD; 4][..]));
        if ran_wide {
            assert_eq!((best_wide, ids_wide), (best, ids));
        } else {
            eprintln!("both_compiled_kernels_agree: AVX-512 copy SKIPPED (this CPU cannot run it)");
        }
    }

    #[test]
    fn streams_at_the_batch_edges_equal_one_observe_per_id() {
        // Each stream repeats its first ID at its end, and, once longer
        // than a batch, an ID from the batch before.
        for len in [0, 1, BATCH - 1, BATCH, BATCH + 1, 2 * BATCH + 1] {
            let mut stream: Vec<NodeId> = (0..len as u64).map(|k| NodeId(k * 37 + 5)).collect();
            stream.extend(stream.first().copied());
            if len > BATCH {
                stream.push(stream[BATCH / 2]);
            }
            for uncached in [false, true] {
                let case = format!("len {len}, uncached {uncached}");
                let mut rng = Xoshiro256StarStar::seed_from_u64(len as u64);
                let mut one_by_one = SamplerArray::new(24, &mut rng);
                if uncached {
                    one_by_one.disable_seen_cache();
                }
                let (mut all, mut bypass) = (one_by_one.clone(), one_by_one.clone());
                stream.iter().for_each(|&id| one_by_one.observe(id));
                all.observe_all(stream.iter().copied());
                bypass.observe_all_uncached(stream.iter().copied());
                assert_eq!(all.samples(), one_by_one.samples(), "{case}");
                assert_eq!(bypass.samples(), one_by_one.samples(), "{case}");
                assert_eq!(all.seen_cached(), one_by_one.seen_cached(), "{case}");
            }
        }
    }

    #[test]
    fn a_feed_pushed_in_pieces_is_one_observe_all() {
        let stream: Vec<NodeId> = (0..3 * BATCH as u64 + 7).map(|k| NodeId(k % 150)).collect();
        let mut rng = Xoshiro256StarStar::seed_from_u64(6);
        let mut all = SamplerArray::new(24, &mut rng);
        let mut pieces = all.clone();
        all.observe_all(stream.iter().copied());
        let mut feed = pieces.feed();
        for piece in stream.chunks(10) {
            piece.iter().for_each(|&id| feed.push(id));
            // The cache already holds what waits in the batch.
            let cached = |id: &NodeId| feed.array().has_seen_all(id.index()..id.index() + 1);
            assert!(piece.iter().all(cached));
        }
        drop(feed);
        assert_eq!(pieces.samples(), all.samples());
        assert_eq!(pieces.seen_cached(), all.seen_cached());
    }

    #[test]
    fn has_seen_all_is_true_only_for_cached_ranges_below_the_limit() {
        let mut arr = SamplerArray::new(8, &mut Xoshiro256StarStar::seed_from_u64(2));
        arr.observe_all((10..200).map(NodeId));
        assert!(arr.has_seen_all(10..200) && arr.has_seen_all(64..128));
        assert!(arr.has_seen_all(5..5), "an empty range");
        assert!(!arr.has_seen_all(9..20) && !arr.has_seen_all(150..201));
        let top = DENSE_ID_LIMIT as u64;
        arr.observe_all((top - 2..top + 2).map(NodeId));
        assert!(arr.has_seen_all(DENSE_ID_LIMIT - 2..DENSE_ID_LIMIT));
        assert!(
            !arr.has_seen_all(DENSE_ID_LIMIT - 2..DENSE_ID_LIMIT + 1),
            "IDs at the limit are never cached"
        );
        arr.disable_seen_cache();
        arr.observe_all((10..200).map(NodeId));
        assert!(!arr.has_seen_all(10..11));
        assert!(arr.has_seen_all(5..5), "an empty range, still");
    }

    #[test]
    fn an_id_hashing_to_u64_max_is_never_sampled() {
        // `best == u64::MAX` means "no sample", so the one ID per seed
        // whose hash is exactly that must lose even to nothing — as it
        // did when the sample was an `Option` behind `h < best_hash`.
        let mut rng = Xoshiro256StarStar::seed_from_u64(23);
        let mut arr = SamplerArray::new(9, &mut rng.clone());
        let mut reference = Reference::new(9, &mut rng);
        let seed = arr.lanes().0[4];
        let pre = unmix64(u64::MAX) ^ seed;
        let unlucky = NodeId(unmix64(pre).wrapping_sub(0x9E37_79B9_7F4A_7C15));
        assert_eq!(Sampler::new(seed).hash(unlucky), u64::MAX);

        arr.observe(unlucky);
        reference.observe(unlucky);
        assert_eq!(arr.samples(), vec![unlucky; 8], "every lane but one");
        assert_matches(&arr, &reference);
        arr.observe(NodeId(1));
        reference.observe(NodeId(1));
        assert_eq!(arr.samples().len(), 9);
        assert_matches(&arr, &reference);
    }

    #[test]
    fn validation_resets_dead_samples() {
        let mut rng = Xoshiro256StarStar::seed_from_u64(9);
        let mut arr = SamplerArray::new(32, &mut rng);
        arr.observe_all((0..100).map(NodeId));
        // Declare even IDs dead.
        let reset = arr.validate(|id| id.0 % 2 == 1, &mut rng);
        assert!(reset > 0, "some samples must have been even");
        // After re-observing only odd IDs, all samples are odd.
        arr.observe_all((0..100).filter(|i| i % 2 == 1).map(NodeId));
        assert!(arr.samples().iter().all(|id| id.0 % 2 == 1));
        assert_eq!(arr.samples().len(), 32);
    }

    #[test]
    fn seen_cache_is_observationally_invisible() {
        // A stream with heavy repetition must leave the array in exactly
        // the state of the deduplicated stream fed element-wise to
        // uncached samplers with the same hash functions.
        let mut rng = Xoshiro256StarStar::seed_from_u64(21);
        let mut cached = SamplerArray::new(16, &mut rng.clone());
        let mut reference = Reference::new(16, &mut rng);
        for rep in 0..5 {
            for id in (0..200).map(NodeId) {
                cached.observe(id);
                if rep == 0 {
                    reference.observe(id);
                }
            }
        }
        assert_eq!(cached.seen.count(), 200);
        assert_matches(&cached, &reference);
    }

    #[test]
    fn huge_ids_bypass_the_cache() {
        let mut rng = Xoshiro256StarStar::seed_from_u64(4);
        let mut arr = SamplerArray::new(8, &mut rng);
        let huge = NodeId(u64::MAX - 3);
        arr.observe(huge);
        arr.observe(huge); // repeat takes the uncached path; still idempotent
        assert!(arr.samples().iter().all(|&id| id == huge));
        assert!(
            arr.seen.is_empty(),
            "IDs beyond DENSE_ID_LIMIT must not grow the cache"
        );
    }

    #[test]
    fn validation_reset_clears_seen_cache() {
        let mut rng = Xoshiro256StarStar::seed_from_u64(9);
        let mut arr = SamplerArray::new(8, &mut rng);
        arr.observe_all((0..50).map(NodeId));
        assert!(!arr.seen.is_empty());
        // Kill everything: every sampler resets, the cache must drop so
        // re-observed IDs reach the fresh hash functions.
        let reset = arr.validate(|_| false, &mut rng);
        assert_eq!(reset, 8);
        assert!(arr.seen.is_empty());
        arr.observe_all((0..50).map(NodeId));
        assert_eq!(arr.samples().len(), 8, "fresh samplers re-filled");
    }

    #[test]
    fn validating_live_samples_resets_nothing() {
        let mut rng = Xoshiro256StarStar::seed_from_u64(9);
        let mut arr = SamplerArray::new(8, &mut rng);
        arr.observe_all((0..50).map(NodeId));
        let (samples, cached) = (arr.samples(), arr.seen_cached());
        let before = rng.clone();
        assert_eq!(arr.validate(|_| true, &mut rng), 0);
        assert_eq!(arr.samples(), samples);
        assert_eq!(arr.seen_cached(), cached, "the cache survives");
        assert_eq!(rng, before, "no fresh seed was drawn");
    }

    #[test]
    fn validation_skips_samplers_that_hold_nothing() {
        let mut rng = Xoshiro256StarStar::seed_from_u64(10);
        let mut arr = SamplerArray::new(8, &mut rng);
        let before = rng.clone();
        let mut probes = 0;
        let reset = arr.validate(
            |_| {
                probes += 1;
                false
            },
            &mut rng,
        );
        assert_eq!((reset, probes), (0, 0));
        assert_eq!(rng, before);
    }

    #[test]
    fn disabling_the_cache_frees_it_and_caches_nothing_after() {
        let mut rng = Xoshiro256StarStar::seed_from_u64(12);
        let mut arr = SamplerArray::new(4, &mut rng);
        arr.observe(NodeId(200));
        assert_eq!((arr.seen_cached(), arr.seen_cache_words()), (1, 4));
        arr.disable_seen_cache();
        assert_eq!(
            (arr.seen_cached(), arr.seen_cache_words()),
            (0, 0),
            "disabling drops the cache"
        );
        arr.observe_all([NodeId(200), NodeId(99)]);
        arr.observe(NodeId(5));
        assert_eq!((arr.seen_cached(), arr.seen_cache_words()), (0, 0));
    }

    #[test]
    fn disabled_seen_cache_is_observationally_invisible() {
        // With the cache disabled every observe takes the full hash
        // loop; samples must match the cached array exactly, and the
        // cache must never allocate.
        let mut rng = Xoshiro256StarStar::seed_from_u64(33);
        let mut cached = SamplerArray::new(16, &mut rng);
        let mut uncached = cached.clone();
        uncached.disable_seen_cache();
        for rep in 0..3 {
            for id in 0..300u64 {
                let id = NodeId(id * (rep + 1) % 257);
                cached.observe(id);
                uncached.observe(id);
            }
        }
        assert_eq!(cached.samples(), uncached.samples());
        assert!(uncached.seen.is_empty());
        assert!(!cached.seen.is_empty());
    }

    #[test]
    fn reinit_equals_new_and_keeps_the_cache_limit_and_the_lanes() {
        let mut rng = Xoshiro256StarStar::seed_from_u64(41);
        let mut arr = SamplerArray::new(100, &mut rng);
        arr.observe_all((0..300).map(NodeId));
        arr.disable_seen_cache();
        let lanes = arr.lanes.as_ptr();

        arr.reinit(&mut Xoshiro256StarStar::seed_from_u64(42));
        assert!(arr.samples().is_empty());
        arr.observe_all((0..1000).map(NodeId));

        assert_eq!(arr.seen_cached(), 0, "an uncached array stays uncached");
        assert_eq!(lanes, arr.lanes.as_ptr(), "the lane allocation is reused");
        let mut fresh = SamplerArray::new(100, &mut Xoshiro256StarStar::seed_from_u64(42));
        fresh.observe_all((0..1000).map(NodeId));
        assert_eq!(arr.samples(), fresh.samples());
    }

    #[test]
    fn fraction_matching() {
        let mut rng = Xoshiro256StarStar::seed_from_u64(5);
        let mut arr = SamplerArray::new(64, &mut rng);
        arr.observe_all((0..1000).map(NodeId));
        let frac = arr.fraction_matching(|id| id.0 < 500);
        assert!(frac > 0.3 && frac < 0.7, "roughly half: {frac}");
        let none = SamplerArray::new(4, &mut rng);
        assert_eq!(none.fraction_matching(|_| true), 0.0);
    }

    #[test]
    fn samples_are_uniform_chi_square() {
        // The headline Brahms property: across many independent samplers,
        // the sampled ID is uniform over the distinct stream content, even
        // when the stream itself is heavily biased.
        let mut rng = Xoshiro256StarStar::seed_from_u64(11);
        let universe = 50u64;
        let mut counts = vec![0u64; universe as usize];
        for _ in 0..200 {
            let mut arr = SamplerArray::new(50, &mut rng);
            // Biased stream: ID 0 appears 100x more often.
            for _ in 0..100 {
                arr.observe(NodeId(0));
            }
            arr.observe_all((0..universe).map(NodeId));
            for id in arr.samples() {
                counts[id.index()] += 1;
            }
        }
        let test = raptee_util::chi::chi_square_uniform(&counts);
        assert!(
            test.is_uniform(),
            "sample distribution not uniform: chi2 {} vs critical {}",
            test.statistic,
            test.critical_1pct
        );
    }

    #[test]
    #[should_panic(expected = "at least one")]
    fn zero_samplers_panics() {
        let mut rng = Xoshiro256StarStar::seed_from_u64(1);
        SamplerArray::new(0, &mut rng);
    }
}

#[cfg(test)]
mod prop_tests {
    use super::tests::{assert_matches, Reference, Sampler};
    use super::*;
    use proptest::prelude::*;

    /// Small IDs (heavy repetition, cached), IDs past the cache's reach,
    /// and the top of the ID space.
    fn id_of(x: u64) -> NodeId {
        let k = (x >> 2) % 40;
        NodeId(match x % 4 {
            0 | 1 => k,
            2 => DENSE_ID_LIMIT as u64 + k,
            _ => u64::MAX - k,
        })
    }

    proptest! {
        /// Stream order never affects the final sample.
        #[test]
        fn order_invariance(
            mut ids in proptest::collection::vec(0u64..1000, 1..100),
            seed in 0u64..10_000,
        ) {
            let mut forward = Sampler::new(seed);
            for &id in &ids {
                forward.observe(NodeId(id));
            }
            ids.reverse();
            let mut backward = Sampler::new(seed);
            for &id in &ids {
                backward.observe(NodeId(id));
            }
            prop_assert_eq!(forward.sample(), backward.sample());
        }

        /// The sample is always an element of the stream.
        #[test]
        fn sample_from_stream(
            ids in proptest::collection::vec(0u64..1000, 1..100),
            seed in 0u64..10_000,
        ) {
            let mut s = Sampler::new(seed);
            for &id in &ids {
                s.observe(NodeId(id));
            }
            let sample = s.sample().unwrap();
            prop_assert!(ids.contains(&sample.0));
        }

        /// Observing more IDs can only change the sample to a smaller hash.
        #[test]
        fn monotone_in_hash(
            first in proptest::collection::vec(0u64..1000, 1..50),
            second in proptest::collection::vec(0u64..1000, 1..50),
            seed in 0u64..10_000,
        ) {
            let mut s = Sampler::new(seed);
            for &id in &first {
                s.observe(NodeId(id));
            }
            let h1 = s.hash(s.sample().unwrap());
            for &id in &second {
                s.observe(NodeId(id));
            }
            let h2 = s.hash(s.sample().unwrap());
            prop_assert!(h2 <= h1);
        }

        /// Differential oracle: the lanes (cache, padding, batching,
        /// whichever kernel copy this CPU runs) and a plain
        /// `Vec<Sampler>` on the same seeds, driven by the same arbitrary
        /// interleaving of every mutating operation, agree on every read
        /// after every step. Streams run to three batches and then some;
        /// their IDs come from 160 values, so longer ones repeat IDs
        /// within a batch.
        #[test]
        fn lanes_match_the_sampler_reference(
            l2 in prop_oneof![Just(1usize), Just(7), Just(8), Just(9), Just(16), Just(100)],
            seed in 0u64..10_000,
            uncached in any::<bool>(),
            ops in proptest::collection::vec((0u8..16, 0u64..1 << 20, 0u64..1 << 20), 1..200),
        ) {
            let mut rng = Xoshiro256StarStar::seed_from_u64(seed);
            let mut rng_ref = rng.clone();
            let mut arr = SamplerArray::new(l2, &mut rng);
            if uncached {
                arr.disable_seen_cache();
            }
            let mut reference = Reference::new(l2, &mut rng_ref);
            assert_matches(&arr, &reference);
            for &(op, a, b) in &ops {
                match op {
                    0..=6 => {
                        arr.observe(id_of(a));
                        reference.observe(id_of(a));
                    }
                    7..=11 => {
                        let len = b % (3 * BATCH as u64 + 6);
                        let batch: Vec<NodeId> = (0..len).map(|k| id_of(a + k * (b | 1))).collect();
                        if op == 11 {
                            arr.observe_all_uncached(batch.iter().copied());
                        } else {
                            arr.observe_all(batch.iter().copied());
                        }
                        batch.iter().for_each(|&id| reference.observe(id));
                    }
                    12..=14 => {
                        // All dead, none dead, or an arbitrary third.
                        let is_alive = |id: NodeId| match b % 4 {
                            0 => false,
                            1 => true,
                            _ => !mix64(id.0 ^ a).is_multiple_of(3),
                        };
                        prop_assert_eq!(
                            arr.validate(is_alive, &mut rng),
                            reference.validate(is_alive, &mut rng_ref)
                        );
                    }
                    _ => arr.disable_seen_cache(),
                }
                assert_matches(&arr, &reference);
            }
            prop_assert_eq!(rng.next_u64(), rng_ref.next_u64());
        }
    }
}
