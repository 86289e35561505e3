//! Partial views: the ID-only Brahms view and RAPTEE's aged trusted
//! directory.
//!
//! A [`View`] is the local, partial knowledge a node has of the global
//! membership: a bounded, ordered list of entries. One generic body
//! serves two entry types:
//!
//! - [`ViewEntry`], the peer's ID alone (8 bytes): the Brahms dynamic
//!   view, which nothing ever ages;
//! - [`AgedEntry`], the ID and the rounds since the link was made:
//!   RAPTEE's trusted [`Directory`], which trusted nodes probe
//!   oldest-first (the framework's partner selection) and expire by TTL.
//!
//! Ages exist only in the directory, so only it has
//! [`View::increase_age`], [`View::oldest`] and [`View::expire`], and
//! only its duplicate arrivals do any work (the present entry keeps the
//! younger age); in the ID-only view a duplicate is simply dropped. Both
//! keep two invariants at all times: no duplicate IDs, and never the
//! owner's own ID.

use raptee_net::NodeId;
use raptee_util::bitset::{IdSet, DENSE_ID_LIMIT};
use raptee_util::rng::Xoshiro256StarStar;
use std::fmt::Debug;

/// What a [`View`] holds: one entry per known peer.
pub trait Entry: Copy + Eq + Debug {
    /// A new link to `id`.
    fn fresh(id: NodeId) -> Self;

    /// The peer this entry names.
    fn id(&self) -> NodeId;

    /// Folds `dup` into `entries`, which already hold an entry with its
    /// ID. Nothing to fold by default.
    #[inline]
    fn merge_duplicate(_entries: &mut [Self], _dup: Self) {}
}

/// One entry of the Brahms view: a known peer, nothing else.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(transparent)]
pub struct ViewEntry {
    /// The peer's identifier.
    pub id: NodeId,
}

impl ViewEntry {
    /// A link to `id`.
    pub fn fresh(id: NodeId) -> Self {
        Self { id }
    }
}

impl Entry for ViewEntry {
    #[inline]
    fn fresh(id: NodeId) -> Self {
        Self { id }
    }

    #[inline]
    fn id(&self) -> NodeId {
        self.id
    }
}

/// One trusted-directory entry: a known trusted peer and how many rounds
/// it has been known.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct AgedEntry {
    /// The peer's identifier.
    pub id: NodeId,
    /// Rounds since this link was created (0 = fresh).
    age: u32,
}

impl Entry for AgedEntry {
    #[inline]
    fn fresh(id: NodeId) -> Self {
        Self { id, age: 0 }
    }

    #[inline]
    fn id(&self) -> NodeId {
        self.id
    }

    /// The present entry keeps the younger of the two ages.
    fn merge_duplicate(entries: &mut [Self], dup: Self) {
        let existing = entries
            .iter_mut()
            .find(|e| e.id == dup.id)
            .expect("membership index in sync with entries");
        existing.age = existing.age.min(dup.age);
    }
}

/// RAPTEE's trusted directory: a view whose entries age.
pub type Directory = View<AgedEntry>;

/// A bounded partial view owned by one node.
///
/// # Examples
///
/// ```
/// use raptee_gossip::view::View;
/// use raptee_net::NodeId;
///
/// let mut v = View::new(NodeId(0), 4);
/// v.insert_fresh(NodeId(1));
/// v.insert_fresh(NodeId(2));
/// assert_eq!(v.len(), 2);
/// assert!(v.contains(NodeId(1)));
/// assert!(!v.contains(NodeId(0)), "own ID is never stored");
/// ```
#[derive(Debug, Clone)]
pub struct View<E = ViewEntry> {
    owner: NodeId,
    capacity: usize,
    entries: Vec<E>,
    /// O(1) membership index over the dense ID range (IDs at or above
    /// [`DENSE_ID_LIMIT`] fall back to a linear scan — they only occur in
    /// adversarial corner cases, never in the contiguous simulation
    /// numbering). Kept in lock-step with `entries` by every mutator.
    ///
    /// Views at or below [`LINEAR_SCAN_CAPACITY`] skip the index entirely
    /// and always scan: a scan over ≤ 64 entries beats the index, and the
    /// index's backing words grow with the *largest ID seen* — per-node
    /// cost that forbids million-node populations. Small views therefore
    /// keep this set permanently empty.
    present: IdSet,
}

/// Views with at most this many slots use a pure linear scan for
/// membership instead of the dense ID index. Chosen so the scan stays
/// within a few cache lines while large paper-scale views (e.g. 200
/// slots at N=10,000) keep their O(1) index.
pub(crate) const LINEAR_SCAN_CAPACITY: usize = 64;

/// Equality is defined by owner, capacity and entry sequence; the
/// membership index is derived state (its grown size depends on insert
/// history, not content).
impl<E: Entry> PartialEq for View<E> {
    fn eq(&self, other: &Self) -> bool {
        self.owner == other.owner
            && self.capacity == other.capacity
            && self.entries == other.entries
    }
}

impl<E: Entry> Eq for View<E> {}

impl View {
    /// Creates an empty Brahms view (see [`View::empty`]).
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(owner: NodeId, capacity: usize) -> Self {
        Self::empty(owner, capacity)
    }
}

impl<E: Entry> View<E> {
    /// Creates an empty view for `owner` with the given capacity. Nothing
    /// is allocated until the first entry arrives, which reserves exactly
    /// `capacity` slots — a view that is never written (the trusted
    /// directory of an untrusted RAPTEE node) costs no heap at all.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn empty(owner: NodeId, capacity: usize) -> Self {
        assert!(capacity > 0, "view capacity must be positive");
        Self {
            owner,
            capacity,
            entries: Vec::new(),
            present: IdSet::new(),
        }
    }

    /// Appends a new entry, reserving the full capacity on the first one.
    #[inline]
    fn push_entry(&mut self, entry: E) {
        if self.entries.capacity() == 0 {
            self.entries.reserve_exact(self.capacity);
        }
        self.entries.push(entry);
        self.index_insert(entry.id());
    }

    /// Whether this view maintains the O(1) membership index (large
    /// views only — see [`LINEAR_SCAN_CAPACITY`]).
    #[inline]
    fn indexed(&self) -> bool {
        self.capacity > LINEAR_SCAN_CAPACITY
    }

    /// Records `id` in the O(1) membership index (indexed views, dense
    /// range only).
    #[inline]
    fn index_insert(&mut self, id: NodeId) {
        let idx = id.0 as usize;
        if self.indexed() && idx < DENSE_ID_LIMIT {
            self.present.insert(idx);
        }
    }

    /// Drops `id` from the O(1) membership index (indexed views, dense
    /// range only).
    #[inline]
    fn index_remove(&mut self, id: NodeId) {
        let idx = id.0 as usize;
        if self.indexed() && idx < DENSE_ID_LIMIT {
            self.present.remove(idx);
        }
    }

    /// The view owner (whose ID is excluded from the entries).
    pub fn owner(&self) -> NodeId {
        self.owner
    }

    /// Maximum number of entries.
    pub(crate) fn capacity(&self) -> usize {
        self.capacity
    }

    /// Current number of entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when no entries are held.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The entries, in current (order-significant) sequence.
    pub fn entries(&self) -> &[E] {
        &self.entries
    }

    /// Iterator over the IDs in the view.
    pub fn ids(&self) -> impl ExactSizeIterator<Item = NodeId> + '_ {
        self.entries.iter().map(E::id)
    }

    /// Collects the IDs into a vector (convenience for message building).
    pub fn id_vec(&self) -> Vec<NodeId> {
        self.ids().collect()
    }

    /// Whether `id` is present — O(1) through the membership index for
    /// dense IDs in indexed views; a linear scan for small views and for
    /// IDs beyond [`DENSE_ID_LIMIT`].
    pub fn contains(&self, id: NodeId) -> bool {
        let idx = id.0 as usize;
        if self.indexed() && idx < DENSE_ID_LIMIT {
            self.present.contains(idx)
        } else {
            self.entries.iter().any(|e| e.id() == id)
        }
    }

    /// Inserts a fresh entry if `id` is neither the owner nor a
    /// duplicate and capacity remains. Returns `true` on insertion.
    pub fn insert_fresh(&mut self, id: NodeId) -> bool {
        self.insert(E::fresh(id))
    }

    /// Inserts an entry under the same rules as [`View::insert_fresh`]; a
    /// duplicate ID is folded into the present entry
    /// ([`Entry::merge_duplicate`]).
    pub(crate) fn insert(&mut self, entry: E) -> bool {
        if entry.id() == self.owner {
            return false;
        }
        if self.contains(entry.id()) {
            E::merge_duplicate(&mut self.entries, entry);
            return false;
        }
        if self.entries.len() >= self.capacity {
            return false;
        }
        self.push_entry(entry);
        true
    }

    /// Removes and returns the entry for `id`, if present.
    pub fn remove(&mut self, id: NodeId) -> Option<E> {
        if !self.contains(id) {
            return None;
        }
        let pos = self.entries.iter().position(|e| e.id() == id)?;
        let removed = self.entries.remove(pos);
        self.index_remove(id);
        Some(removed)
    }

    /// Uniformly permutes the entry order.
    pub(crate) fn permute(&mut self, rng: &mut Xoshiro256StarStar) {
        rng.shuffle(&mut self.entries);
    }

    /// The first `n` entries in current order (the "head" the exchange
    /// sends to the partner).
    pub(crate) fn head_slice(&self, n: usize) -> &[E] {
        &self.entries[..n.min(self.entries.len())]
    }

    /// Appends entries without enforcing capacity (used mid-exchange; the
    /// follow-up `shrink_to_capacity` pipeline restores it).
    /// Duplicates are folded as on insert; the owner ID is still excluded.
    pub fn append_dedup(&mut self, incoming: &[E]) {
        for &e in incoming {
            if e.id() == self.owner {
                continue;
            }
            if self.contains(e.id()) {
                E::merge_duplicate(&mut self.entries, e);
            } else {
                self.push_entry(e);
            }
        }
    }

    /// Removes up to `n` entries from the head, but never below `floor`.
    /// Returns how many were removed.
    pub(crate) fn remove_head(&mut self, n: usize, floor: usize) -> usize {
        let removable = self.entries.len().saturating_sub(floor).min(n);
        for i in 0..removable {
            let id = self.entries[i].id();
            self.index_remove(id);
        }
        self.entries.drain(..removable);
        removable
    }

    /// Removes random entries until `len() <= capacity`.
    pub(crate) fn shrink_to_capacity(&mut self, rng: &mut Xoshiro256StarStar) {
        while self.entries.len() > self.capacity {
            let i = rng.index(self.entries.len());
            let removed = self.entries.swap_remove(i);
            self.index_remove(removed.id());
        }
    }

    /// Replaces the content with `entries` (applying owner/duplicate
    /// rules), used when renewing the dynamic view in Brahms.
    pub fn replace_with(&mut self, entries: impl IntoIterator<Item = E>) {
        self.entries.clear();
        self.present.clear();
        for e in entries {
            self.insert(e);
        }
    }

    /// Selects a uniformly random entry.
    pub fn random(&self, rng: &mut Xoshiro256StarStar) -> Option<E> {
        if self.entries.is_empty() {
            None
        } else {
            Some(self.entries[rng.index(self.entries.len())])
        }
    }

    /// Keeps only the entries satisfying the predicate; returns how many
    /// were removed.
    pub fn retain<F: FnMut(&E) -> bool>(&mut self, mut pred: F) -> usize {
        let before = self.entries.len();
        let indexed = self.indexed();
        let present = &mut self.present;
        self.entries.retain(|e| {
            let keep = pred(e);
            if !keep && indexed {
                let idx = e.id().0 as usize;
                if idx < DENSE_ID_LIMIT {
                    present.remove(idx);
                }
            }
            keep
        });
        before - self.entries.len()
    }

    /// Checks the two structural invariants (unique IDs, no owner entry)
    /// plus the consistency of the O(1) membership index; used by tests
    /// and debug assertions.
    pub fn invariants_hold(&self) -> bool {
        self.invariants_hold_using(&mut Vec::new())
    }

    /// [`View::invariants_hold`] with a caller-owned sort buffer for
    /// indexed views, so a checker run over every node each round
    /// allocates nothing once the buffer has grown to the largest view.
    pub fn invariants_hold_using(&self, ids: &mut Vec<NodeId>) -> bool {
        let e = &self.entries;
        if e.iter().any(|x| x.id() == self.owner) {
            return false;
        }
        if !self.indexed() {
            // Small views never touch the index: it must stay empty; a
            // pairwise scan of at most 64 entries finds any duplicate.
            return self.present.is_empty()
                && (1..e.len()).all(|i| e[..i].iter().all(|x| x.id() != e[i].id()));
        }
        ids.clear();
        ids.extend(self.ids());
        ids.sort_unstable();
        if !ids.windows(2).all(|w| w[0] != w[1]) {
            return false;
        }
        let dense = ids.iter().filter(|id| (id.0 as usize) < DENSE_ID_LIMIT);
        dense.clone().count() == self.present.count()
            && dense.clone().all(|id| self.present.contains(id.0 as usize))
    }
}

/// The age-only operations: they exist for the trusted directory alone.
impl Directory {
    /// Increments every entry's age by one round.
    pub fn increase_age(&mut self) {
        for e in &mut self.entries {
            e.age = e.age.saturating_add(1);
        }
    }

    /// Drops every entry older than `ttl` rounds; returns how many left.
    pub fn expire(&mut self, ttl: u32) -> usize {
        self.retain(|e| e.age <= ttl)
    }

    /// The entry that has been in the view the longest (ties broken by
    /// position), or `None` when empty.
    pub fn oldest(&self) -> Option<AgedEntry> {
        self.entries.iter().copied().max_by_key(|e| e.age)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn view_with(owner: u64, cap: usize, ids: &[u64]) -> View {
        let mut v = View::new(NodeId(owner), cap);
        for &i in ids {
            v.insert_fresh(NodeId(i));
        }
        v
    }

    fn dir_with(owner: u64, cap: usize, ids: &[u64]) -> Directory {
        let mut v = Directory::empty(NodeId(owner), cap);
        for &i in ids {
            v.insert_fresh(NodeId(i));
        }
        v
    }

    fn aged(id: u64, age: u32) -> AgedEntry {
        AgedEntry {
            id: NodeId(id),
            age,
        }
    }

    #[test]
    fn a_view_entry_is_its_id() {
        assert_eq!(std::mem::size_of::<ViewEntry>(), 8);
        assert_eq!(std::mem::size_of::<AgedEntry>(), 16);
    }

    #[test]
    fn rejects_owner_and_duplicates() {
        let mut v = View::new(NodeId(0), 4);
        assert!(!v.insert_fresh(NodeId(0)), "own ID rejected");
        assert!(v.insert_fresh(NodeId(1)));
        assert!(!v.insert_fresh(NodeId(1)), "duplicate rejected");
        assert_eq!(v.len(), 1);
        assert!(v.invariants_hold());
    }

    #[test]
    fn duplicate_insert_keeps_younger_age() {
        let mut v = Directory::empty(NodeId(0), 4);
        v.insert(aged(1, 5));
        v.insert(aged(1, 2));
        assert_eq!(v.entries()[0].age, 2);
        v.insert(aged(1, 9));
        assert_eq!(
            v.entries()[0].age,
            2,
            "older duplicate must not regress age"
        );
    }

    #[test]
    fn capacity_enforced() {
        let mut v = view_with(0, 2, &[1, 2]);
        assert!(!v.insert_fresh(NodeId(3)));
        assert_eq!(v.len(), 2);
    }

    #[test]
    fn aging_and_oldest() {
        let mut v = dir_with(0, 4, &[1, 2]);
        v.increase_age();
        v.insert_fresh(NodeId(3));
        let oldest = v.oldest().unwrap();
        assert_eq!(oldest.age, 1);
        assert!(oldest.id == NodeId(1) || oldest.id == NodeId(2));
    }

    #[test]
    fn append_dedup_respects_owner_and_duplicates() {
        let mut v = view_with(0, 2, &[1]);
        v.append_dedup(&[
            ViewEntry::fresh(NodeId(0)), // owner: skipped
            ViewEntry::fresh(NodeId(1)),
            ViewEntry::fresh(NodeId(2)),
            ViewEntry::fresh(NodeId(3)),
        ]);
        assert_eq!(v.len(), 3, "append may exceed capacity temporarily");
        assert!(!v.contains(NodeId(0)));
        assert!(v.invariants_hold());
    }

    #[test]
    fn remove_head_respects_floor() {
        let mut v = view_with(0, 8, &[1, 2, 3, 4]);
        let removed = v.remove_head(3, 2);
        assert_eq!(removed, 2);
        assert_eq!(v.id_vec(), vec![NodeId(3), NodeId(4)]);
    }

    #[test]
    fn shrink_to_capacity() {
        let mut rng = Xoshiro256StarStar::seed_from_u64(1);
        let mut v = View::new(NodeId(0), 3);
        v.append_dedup(
            &(1..=10)
                .map(|i| ViewEntry::fresh(NodeId(i)))
                .collect::<Vec<_>>(),
        );
        assert_eq!(v.len(), 10);
        v.shrink_to_capacity(&mut rng);
        assert_eq!(v.len(), 3);
        assert!(v.invariants_hold());
    }

    #[test]
    fn replace_with_applies_rules() {
        let mut v = View::new(NodeId(0), 3);
        v.insert_fresh(NodeId(9));
        v.replace_with([
            ViewEntry::fresh(NodeId(0)),
            ViewEntry::fresh(NodeId(1)),
            ViewEntry::fresh(NodeId(1)),
            ViewEntry::fresh(NodeId(2)),
        ]);
        assert_eq!(v.len(), 2);
        assert!(!v.contains(NodeId(9)));
        assert!(v.invariants_hold());
    }

    #[test]
    fn random_draws_an_entry() {
        let mut rng = Xoshiro256StarStar::seed_from_u64(1);
        let v = view_with(0, 8, &[1, 2, 3, 4, 5]);
        assert!(v.random(&mut rng).is_some_and(|e| v.contains(e.id)));
        let empty = View::new(NodeId(0), 2);
        assert!(empty.random(&mut rng).is_none());
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_capacity_panics() {
        View::new(NodeId(0), 0);
    }

    #[test]
    fn membership_index_survives_every_mutator() {
        let mut rng = Xoshiro256StarStar::seed_from_u64(12);
        let mut v = View::new(NodeId(0), 6);
        for i in 1..=6 {
            v.insert_fresh(NodeId(i));
        }
        assert!(v.invariants_hold());
        v.remove(NodeId(1));
        assert!(v.invariants_hold() && !v.contains(NodeId(1)));
        v.remove_head(1, 0);
        assert!(v.invariants_hold());
        v.append_dedup(&[ViewEntry::fresh(NodeId(20)), ViewEntry::fresh(NodeId(21))]);
        v.retain(|e| e.id != NodeId(20));
        assert!(v.invariants_hold() && !v.contains(NodeId(20)));
        v.append_dedup(
            &(30..45)
                .map(|i| ViewEntry::fresh(NodeId(i)))
                .collect::<Vec<_>>(),
        );
        v.shrink_to_capacity(&mut rng);
        assert!(v.invariants_hold());
        v.replace_with([ViewEntry::fresh(NodeId(50)), ViewEntry::fresh(NodeId(51))]);
        assert!(v.invariants_hold());
        assert!(v.contains(NodeId(50)) && !v.contains(NodeId(30)));
    }

    #[test]
    fn ids_beyond_dense_limit_use_the_fallback() {
        let huge = NodeId(u64::MAX - 1);
        let mut v = View::new(NodeId(0), 4);
        assert!(v.insert_fresh(huge));
        assert!(v.contains(huge));
        assert!(!v.insert_fresh(huge), "duplicate detected via scan");
        assert!(v.invariants_hold());
        v.remove(huge);
        assert!(!v.contains(huge));
        assert!(v.invariants_hold());
    }

    #[test]
    fn small_views_never_grow_the_membership_index() {
        // Capacity ≤ LINEAR_SCAN_CAPACITY → pure linear scan; the index
        // must stay empty no matter how large the inserted IDs are.
        let mut v = View::new(NodeId(0), LINEAR_SCAN_CAPACITY);
        for i in 1..=LINEAR_SCAN_CAPACITY as u64 {
            assert!(v.insert_fresh(NodeId(i * 1_000_003)));
        }
        assert!(v.present.is_empty());
        assert!(v.contains(NodeId(1_000_003)));
        assert!(!v.contains(NodeId(2)));
        assert!(v.invariants_hold());
        v.remove(NodeId(1_000_003));
        assert!(!v.contains(NodeId(1_000_003)));
        assert!(v.invariants_hold());
    }

    #[test]
    fn large_views_maintain_the_membership_index() {
        let mut v = View::new(NodeId(0), LINEAR_SCAN_CAPACITY + 1);
        for i in 1..=10u64 {
            v.insert_fresh(NodeId(i));
        }
        assert_eq!(v.present.count(), 10);
        assert!(v.contains(NodeId(5)));
        assert!(v.invariants_hold());
        v.remove(NodeId(5));
        assert_eq!(v.present.count(), 9);
        assert!(v.invariants_hold());
    }

    #[test]
    fn indexed_and_scanned_views_behave_identically() {
        // The same mutation sequence on a just-below-gate and a
        // just-above-gate view must agree on membership at every step.
        let caps = [LINEAR_SCAN_CAPACITY, LINEAR_SCAN_CAPACITY + 1];
        let [mut small, mut big] = caps.map(|c| View::new(NodeId(0), c));
        for i in 1..=40u64 {
            small.insert_fresh(NodeId(i));
            big.insert_fresh(NodeId(i));
        }
        for v in [&mut small, &mut big] {
            v.remove(NodeId(3));
            v.remove_head(2, 0);
            v.retain(|e| e.id.0 % 5 != 0);
            assert!(v.invariants_hold());
        }
        assert_eq!(small.id_vec(), big.id_vec());
        for i in 0..=45u64 {
            assert_eq!(small.contains(NodeId(i)), big.contains(NodeId(i)), "id {i}");
        }
    }

    #[test]
    fn storage_is_reserved_by_the_first_entry_only() {
        let mut v = View::new(NodeId(0), 16);
        assert_eq!(v.entries.capacity(), 0, "an unwritten view owns no buffer");
        v.insert_fresh(NodeId(0));
        assert_eq!(
            v.entries.capacity(),
            0,
            "a rejected insert reserves nothing"
        );
        v.insert_fresh(NodeId(1));
        assert_eq!(
            v.entries.capacity(),
            16,
            "the first entry reserves exactly capacity"
        );
        v.append_dedup(
            &(2..=16)
                .map(|i| ViewEntry::fresh(NodeId(i)))
                .collect::<Vec<_>>(),
        );
        assert_eq!(v.entries.capacity(), 16);
    }

    #[test]
    fn head_slice_borrows_the_prefix() {
        let v = view_with(0, 8, &[1, 2, 3, 4]);
        assert_eq!(v.head_slice(2), &v.entries()[..2]);
        assert_eq!(v.head_slice(99).len(), 4);
    }

    #[test]
    fn ids_follow_entry_order() {
        let mut v = view_with(0, 8, &[4, 2, 9]);
        assert_eq!(v.id_vec(), vec![NodeId(4), NodeId(2), NodeId(9)]);
        assert!(v.ids().eq(v.entries().iter().map(|e| e.id)));
        assert_eq!((v.len(), v.is_empty()), (3, false));
        v.retain(|_| false);
        assert_eq!((v.len(), v.is_empty()), (0, true));
        assert_eq!(v.owner(), NodeId(0));
        assert_eq!(v.capacity(), 8);
    }

    #[test]
    fn remove_returns_the_entry_or_none() {
        let mut v = Directory::empty(NodeId(0), 4);
        v.insert(aged(3, 7));
        assert_eq!(v.remove(NodeId(9)), None);
        assert_eq!(v.remove(NodeId(3)), Some(aged(3, 7)));
        assert_eq!(v.remove(NodeId(3)), None, "second remove finds nothing");
        assert!(v.is_empty());
    }

    #[test]
    fn retain_reports_how_many_left() {
        let mut v = view_with(0, 8, &[1, 2, 3, 4, 5, 6]);
        assert_eq!(v.retain(|e| e.id.0 % 2 == 0), 3);
        assert_eq!(v.id_vec(), vec![NodeId(2), NodeId(4), NodeId(6)]);
        assert_eq!(v.retain(|_| true), 0);
    }

    #[test]
    fn ages_saturate_instead_of_wrapping() {
        let mut v = Directory::empty(NodeId(0), 2);
        v.insert(aged(1, u32::MAX));
        v.insert_fresh(NodeId(2));
        v.increase_age();
        assert_eq!(v.entries(), [aged(1, u32::MAX), aged(2, 1)]);
    }

    #[test]
    fn expire_drops_the_entries_past_the_ttl() {
        let mut v = Directory::empty(NodeId(0), 4);
        v.insert(aged(1, 3));
        v.insert(aged(2, 4));
        v.insert_fresh(NodeId(3));
        assert_eq!(v.expire(3), 1);
        assert_eq!(v.id_vec(), [NodeId(1), NodeId(3)]);
        assert_eq!(v.expire(3), 0);
        assert!(v.invariants_hold());
    }

    #[test]
    fn oldest_of_an_empty_view_is_none_and_ties_go_to_the_later_entry() {
        assert_eq!(Directory::empty(NodeId(0), 4).oldest(), None);
        let v = dir_with(0, 4, &[1, 2, 3]);
        assert_eq!(v.oldest(), Some(aged(3, 0)));
    }

    #[test]
    fn permute_keeps_the_entries() {
        let mut rng = Xoshiro256StarStar::seed_from_u64(3);
        let mut v = view_with(0, 16, &(1..=16).collect::<Vec<_>>());
        let before = v.id_vec();
        v.permute(&mut rng);
        let mut after = v.id_vec();
        assert_ne!(after, before, "sixteen entries are reordered");
        after.sort();
        assert_eq!(after, before);
        assert!(v.invariants_hold());
    }

    #[test]
    fn invariant_check_catches_the_owner_and_duplicates() {
        for cap in [4, LINEAR_SCAN_CAPACITY + 1] {
            let clean = view_with(0, cap, &[1, 2]);
            let mut with_owner = clean.clone();
            with_owner.entries.push(ViewEntry::fresh(NodeId(0)));
            assert!(!with_owner.invariants_hold(), "owner, capacity {cap}");
            let mut with_dup = clean.clone();
            with_dup.entries.push(ViewEntry::fresh(NodeId(2)));
            assert!(!with_dup.invariants_hold(), "duplicate, capacity {cap}");
        }
    }

    #[test]
    fn invariant_check_catches_a_stale_index() {
        let mut v = view_with(0, LINEAR_SCAN_CAPACITY + 1, &[1, 2, 3]);
        v.present.remove(2);
        assert!(!v.invariants_hold(), "entry missing from the index");
        let mut w = view_with(0, LINEAR_SCAN_CAPACITY + 1, &[1, 2, 3]);
        w.present.insert(9);
        assert!(!w.invariants_hold(), "index holds an absent ID");
        let mut small = view_with(0, 4, &[1]);
        small.present.insert(1);
        assert!(!small.invariants_hold(), "small views keep no index");
    }

    #[test]
    fn invariant_check_reuses_its_buffer() {
        let v = view_with(0, LINEAR_SCAN_CAPACITY + 1, &(1..=40).collect::<Vec<_>>());
        let mut ids = Vec::new();
        assert!(v.invariants_hold_using(&mut ids));
        let grown = ids.capacity();
        assert!(grown >= 40);
        assert!(v.invariants_hold_using(&mut ids));
        assert_eq!(ids.capacity(), grown, "the second check does not regrow");
    }

    #[test]
    fn equality_ignores_the_membership_index() {
        // Same entries, different insert histories: the index of `a` grew
        // to ID 1000, that of `b` did not.
        let cap = LINEAR_SCAN_CAPACITY + 1;
        let mut a = view_with(0, cap, &[1000, 1, 2]);
        a.remove(NodeId(1000));
        let b = view_with(0, cap, &[1, 2]);
        assert_ne!(a.present, b.present);
        assert_eq!(a, b);
        assert_ne!(a, view_with(0, cap + 1, &[1, 2]), "capacity counts");
        assert_ne!(a, view_with(5, cap, &[1, 2]), "owner counts");
    }
}

#[cfg(test)]
mod prop_tests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// Any sequence of inserts preserves the structural invariants.
        #[test]
        fn inserts_preserve_invariants(ids in proptest::collection::vec(0u64..50, 0..100)) {
            let mut v = View::new(NodeId(7), 10);
            for id in ids {
                v.insert_fresh(NodeId(id));
                prop_assert!(v.invariants_hold());
                prop_assert!(v.len() <= v.capacity());
            }
        }

        /// append_dedup + shrink restores capacity and invariants.
        #[test]
        fn exchange_pipeline_preserves_invariants(
            base in proptest::collection::vec(0u64..50, 0..10),
            incoming in proptest::collection::vec((0u64..50, 0u32..20), 0..30),
            seed in 0u64..1000,
        ) {
            let mut rng = Xoshiro256StarStar::seed_from_u64(seed);
            let mut v = Directory::empty(NodeId(7), 8);
            for id in base {
                v.insert_fresh(NodeId(id));
            }
            let entries: Vec<AgedEntry> = incoming
                .into_iter()
                .map(|(id, age)| AgedEntry { id: NodeId(id), age })
                .collect();
            v.append_dedup(&entries);
            prop_assert!(v.invariants_hold());
            v.shrink_to_capacity(&mut rng);
            prop_assert!(v.len() <= 8);
            prop_assert!(v.invariants_hold());
        }

        /// The ID-only view and the aged directory share one body: driven
        /// through the same operations from one seed (the directory aging
        /// a round after each), they hold the same IDs in the same order
        /// and leave their RNGs in the same state.
        #[test]
        fn id_only_and_aged_views_agree(
            cap in 1usize..80,
            ops in proptest::collection::vec((0u8..8, 0u64..120, 0usize..12), 0..80),
            seed in any::<u64>(),
        ) {
            let mut plain = View::new(NodeId(0), cap);
            let mut dir = Directory::empty(NodeId(0), cap);
            let mut plain_rng = Xoshiro256StarStar::seed_from_u64(seed);
            let mut dir_rng = plain_rng.clone();
            for (op, id, n) in ops {
                apply(&mut plain, &mut plain_rng, op, id, n);
                apply(&mut dir, &mut dir_rng, op, id, n);
                dir.increase_age();
                prop_assert_eq!(plain.id_vec(), dir.id_vec());
                prop_assert!(plain.invariants_hold() && dir.invariants_hold());
            }
            prop_assert_eq!(plain_rng, dir_rng);
        }
    }

    /// One operation of the differential test, chosen by `op`; `id` and
    /// `n` parameterise it (IDs wrap at 50 so batches repeat known peers,
    /// and ID 0 is the owner).
    fn apply<E: Entry>(v: &mut View<E>, rng: &mut Xoshiro256StarStar, op: u8, id: u64, n: usize) {
        let batch = || (id..id + n as u64).map(|i| E::fresh(NodeId(i % 50)));
        match op {
            0 => {
                v.insert_fresh(NodeId(id));
            }
            1 => v.append_dedup(&batch().collect::<Vec<_>>()),
            2 => {
                v.remove_head(n, id as usize % 8);
            }
            3 => v.shrink_to_capacity(rng),
            4 => v.permute(rng),
            5 => {
                v.retain(|e| e.id().0 % (n as u64 + 2) != id % (n as u64 + 2));
            }
            6 => v.replace_with(batch()),
            _ => {
                v.remove(NodeId(id));
            }
        }
    }
}
