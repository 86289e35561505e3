//! LIFT's hub-score table: the view with each member's score beside its
//! slot, the off-view counters in a binary min-heap on `(score, id)`,
//! and one hashed index over every tracked ID.
//!
//! Every tracked ID is in exactly one place. A **view member** lives in
//! a slot (`view[s]`, `view_scores[s]`), so the pull ordering reads two
//! short dense arrays and nothing else. An **off-view counter** is one
//! 12-byte [`Counter`] in the heap, whose root is the coldest counter —
//! the victim when a new ID arrives at a full table, which may not evict
//! itself, so the root is taken before the newcomer is filed: the
//! newcomer overwrites it and sinks to its place.
//!
//! The **index** is open-addressed with linear probing, a Fibonacci hash
//! and at least twice as many slots as the table holds IDs. An entry
//! names a view slot ([`MEMBER`] set) or a heap position, so one probe
//! tells a member from an off-view counter from a new ID; `home[p]` is
//! the index slot naming heap position `p`, so a counter the heap moves
//! is re-filed without a probe. Deletion shifts the probe run back
//! rather than leaving tombstones. The hubbiest member's slot is cached
//! and kept by the mention and `admit` that can raise a member past it.
//!
//! Costs, with `v` the view size and `c` the capacity: a mention is one
//! expected-`O(1)` probe plus, off-view, `O(log c)` heap steps; `admit`
//! is a probe and a heap removal; `replace` adds a `v`-element rescan
//! for the hub; removing a member (`quarantine`) and a fade re-file the
//! whole table, `O(v + c)` and `O(c log c)`. Storage is
//! `12·v + 14·(c + 1 − v)` bytes plus two bytes per index slot
//! (`2·(c + 1)` rounded up to a power of two), allocated once: 3,678
//! bytes at view 24, 30,206 at view 200.

use raptee_net::NodeId;

/// One off-view hub-score counter. The ID is split so the struct packs
/// into 12 bytes at 4-byte alignment, and the fields are declared so
/// that the derived order *is* the `(score, id)` order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct Counter {
    score: u32,
    id_hi: u32,
    id_lo: u32,
}

impl Counter {
    fn new(score: u32, id: NodeId) -> Self {
        Self {
            score,
            id_hi: (id.0 >> 32) as u32,
            id_lo: id.0 as u32,
        }
    }

    fn id(&self) -> NodeId {
        NodeId(u64::from(self.id_hi) << 32 | u64::from(self.id_lo))
    }
}

/// One index slot: [`EMPTY`], [`MEMBER`] `|` a view slot, or a heap
/// position.
type Entry = u16;

/// An index slot naming no ID.
const EMPTY: Entry = Entry::MAX;

/// The tag bit of an entry naming a view slot.
const MEMBER: Entry = 1 << 15;

/// The most index slots an [`Entry`] addresses below its tag bit; see
/// [`index_slots`].
pub(crate) const MAX_INDEX_SLOTS: usize = MEMBER as usize;

/// The index slots a table of `capacity` IDs gets: `2·(capacity + 1)`
/// rounded up to a power of two, so probe runs stay short.
pub(crate) fn index_slots(capacity: usize) -> usize {
    (2 * (capacity + 1)).next_power_of_two()
}

/// The view and every hub-score counter of one LIFT node, at most
/// `capacity` IDs in all. Scores are `u32` and saturate.
#[derive(Debug, Clone)]
pub(crate) struct ScoreTable {
    capacity: usize,
    /// View members in admission order, all distinct.
    view: Vec<NodeId>,
    /// `view_scores[s]` is the hub score of `view[s]`.
    view_scores: Vec<u32>,
    /// Off-view counters, a binary min-heap on `(score, id)`; every
    /// score is at least 1.
    heap: Vec<Counter>,
    /// `home[p]` is the index slot naming heap position `p`.
    home: Vec<Entry>,
    /// The hashed index over every tracked ID (a power of two long).
    index: Box<[Entry]>,
    /// `64 − log2(index.len())`: the hash keeps the product's top bits.
    shift: u32,
    /// The slot of the member with the maximal `(score, id)`, while the
    /// view is not empty.
    hub: usize,
}

impl ScoreTable {
    /// An empty table for `view_size` slots and `capacity` tracked IDs
    /// (`capacity > view_size`, and at most [`MAX_INDEX_SLOTS`] index
    /// slots, which `LiftConfig::validate` enforces).
    pub(crate) fn new(view_size: usize, capacity: usize) -> Self {
        let off_view = capacity + 1 - view_size;
        let slots = index_slots(capacity);
        Self {
            capacity,
            view: Vec::with_capacity(view_size),
            view_scores: Vec::with_capacity(view_size),
            heap: Vec::with_capacity(off_view),
            home: Vec::with_capacity(off_view),
            index: vec![EMPTY; slots].into_boxed_slice(),
            shift: 64 - slots.trailing_zeros(),
            hub: 0,
        }
    }

    /// The view, in admission order.
    pub(crate) fn view(&self) -> &[NodeId] {
        &self.view
    }

    /// The view members' scores, slot for slot.
    pub(crate) fn view_scores(&self) -> &[u32] {
        &self.view_scores
    }

    /// IDs tracked, in view or off it.
    pub(crate) fn len(&self) -> usize {
        self.view.len() + self.heap.len()
    }

    /// Counts one mention of `id`. A view member's score is bumped in
    /// its slot and `None` returned. Any other ID is bumped (or starts
    /// at 1) off-view and its new score returned; a start that finds
    /// the table full evicts the coldest off-view counter other than
    /// `id` — minimal `(score, id)`.
    pub(crate) fn mention(&mut self, id: NodeId) -> Option<u32> {
        let (slot, entry) = self.probe(id);
        if entry == EMPTY {
            let new = Counter::new(1, id);
            if self.len() < self.capacity {
                self.heap.push(new);
                self.home.push(0);
                let p = self.heap.len() - 1;
                self.place(p, new, slot);
                self.sift_up(p);
            } else {
                // The root is the coldest counter before `id` is filed:
                // the newcomer takes its position, then its index slot
                // goes.
                let victim = usize::from(self.home[0]);
                self.place(0, new, slot);
                self.unfile(victim);
                self.sift_down(0);
            }
            Some(1)
        } else if entry & MEMBER != 0 {
            let s = usize::from(entry & !MEMBER);
            self.view_scores[s] = self.view_scores[s].saturating_add(1);
            if self.outranks(s, self.hub) {
                self.hub = s;
            }
            None
        } else {
            let p = usize::from(entry);
            let counter = &mut self.heap[p];
            counter.score = counter.score.saturating_add(1);
            let score = counter.score;
            // The key only grew, so the counter sinks.
            self.sift_down(p);
            Some(score)
        }
    }

    /// The view member with the maximal `(score, id)`: its slot and
    /// score.
    ///
    /// # Panics
    ///
    /// Panics on an empty view.
    pub(crate) fn hubbiest(&self) -> (usize, u32) {
        assert!(
            !self.view.is_empty(),
            "hubbiest() requires a non-empty view"
        );
        (self.hub, self.view_scores[self.hub])
    }

    /// Moves the off-view `id` into a new view slot.
    pub(crate) fn admit(&mut self, id: NodeId) {
        let (slot, p) = self.off_view(id).expect("admitted ID is tracked");
        let score = self.heap_remove(p).score;
        let s = self.view.len();
        self.index[slot] = MEMBER | s as Entry;
        self.view.push(id);
        self.view_scores.push(score);
        if s == 0 || self.outranks(s, self.hub) {
            self.hub = s;
        }
    }

    /// Gives `slot` to the off-view `id`; the member it held goes
    /// off-view with its score.
    pub(crate) fn replace(&mut self, slot: usize, id: NodeId) {
        let (candidate, p) = self.off_view(id).expect("candidate ID is tracked");
        let (member, _) = self.probe(self.view[slot]);
        let demoted = Counter::new(self.view_scores[slot], self.view[slot]);
        self.index[candidate] = MEMBER | slot as Entry;
        self.view_scores[slot] = self.heap[p].score;
        self.view[slot] = id;
        // The demoted member takes the candidate's heap position.
        self.place(p, demoted, member);
        self.settle(p);
        self.rescan_hub();
    }

    /// Forgets `id` wherever it is; returns the view slots vacated.
    pub(crate) fn quarantine(&mut self, id: NodeId) -> usize {
        let (slot, entry) = self.probe(id);
        if entry == EMPTY {
            0
        } else if entry & MEMBER != 0 {
            let s = usize::from(entry & !MEMBER);
            self.view.remove(s);
            self.view_scores.remove(s);
            // The later members moved down a slot.
            self.reindex();
            1
        } else {
            self.heap_remove(usize::from(entry));
            self.unfile(slot);
            0
        }
    }

    /// Halves every score and drops the off-view counters that reach
    /// zero; returns how many nonzero scores were halved.
    pub(crate) fn fade(&mut self) -> usize {
        let mut faded = self.heap.len();
        for score in &mut self.view_scores {
            if *score > 0 {
                faded += 1;
                *score >>= 1;
            }
        }
        self.heap.retain_mut(|c| {
            c.score >>= 1;
            c.score > 0
        });
        // Halving merges neighbouring scores, so ties re-order by ID;
        // a sorted array is a heap.
        self.heap.sort_unstable();
        self.reindex();
        faded
    }

    /// Empties the table.
    pub(crate) fn clear(&mut self) {
        self.view.clear();
        self.view_scores.clear();
        self.heap.clear();
        self.home.clear();
        self.index.fill(EMPTY);
        self.hub = 0;
    }

    /// `id`'s preferred index slot.
    fn bucket(&self, id: NodeId) -> usize {
        (id.0.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> self.shift) as usize
    }

    /// The ID `entry` names.
    fn id_at(&self, entry: Entry) -> NodeId {
        if entry & MEMBER != 0 {
            self.view[usize::from(entry & !MEMBER)]
        } else {
            self.heap[usize::from(entry)].id()
        }
    }

    /// The index slot naming `id` and its entry, or the empty slot
    /// where `id` would be filed and [`EMPTY`].
    fn probe(&self, id: NodeId) -> (usize, Entry) {
        let mask = self.index.len() - 1;
        let mut slot = self.bucket(id);
        loop {
            let entry = self.index[slot];
            if entry == EMPTY || self.id_at(entry) == id {
                return (slot, entry);
            }
            slot = (slot + 1) & mask;
        }
    }

    /// `id`'s index slot and heap position, if it is an off-view
    /// counter.
    fn off_view(&self, id: NodeId) -> Option<(usize, usize)> {
        let (slot, entry) = self.probe(id);
        (entry & MEMBER == 0).then_some((slot, usize::from(entry)))
    }

    /// Empties index slot `hole`, shifting back the probe run behind it
    /// so every later ID stays reachable from its bucket.
    fn unfile(&mut self, mut hole: usize) {
        let mask = self.index.len() - 1;
        let mut slot = hole;
        loop {
            slot = (slot + 1) & mask;
            let entry = self.index[slot];
            if entry == EMPTY {
                break;
            }
            // The entry may fill the hole iff the hole lies between its
            // bucket and where it sits.
            let bucket = self.bucket(self.id_at(entry));
            if slot.wrapping_sub(bucket) & mask >= slot.wrapping_sub(hole) & mask {
                self.index[hole] = entry;
                if entry & MEMBER == 0 {
                    self.home[usize::from(entry)] = hole as Entry;
                }
                hole = slot;
            }
        }
        self.index[hole] = EMPTY;
    }

    /// Files `counter`, named by index slot `slot`, at heap position `p`.
    fn place(&mut self, p: usize, counter: Counter, slot: usize) {
        self.heap[p] = counter;
        self.home[p] = slot as Entry;
        self.index[slot] = p as Entry;
    }

    fn sift_up(&mut self, mut p: usize) {
        let (counter, slot) = (self.heap[p], usize::from(self.home[p]));
        while p > 0 {
            let parent = (p - 1) / 2;
            if self.heap[parent] <= counter {
                break;
            }
            self.place(p, self.heap[parent], usize::from(self.home[parent]));
            p = parent;
        }
        self.place(p, counter, slot);
    }

    fn sift_down(&mut self, mut p: usize) {
        let (counter, slot) = (self.heap[p], usize::from(self.home[p]));
        let n = self.heap.len();
        loop {
            let mut child = 2 * p + 1;
            if child >= n {
                break;
            }
            if child + 1 < n && self.heap[child + 1] < self.heap[child] {
                child += 1;
            }
            if counter <= self.heap[child] {
                break;
            }
            self.place(p, self.heap[child], usize::from(self.home[child]));
            p = child;
        }
        self.place(p, counter, slot);
    }

    /// Restores the heap order around position `p`, whose key changed
    /// either way.
    fn settle(&mut self, p: usize) {
        if p > 0 && self.heap[p] < self.heap[(p - 1) / 2] {
            self.sift_up(p);
        } else {
            self.sift_down(p);
        }
    }

    /// Takes the counter at heap position `p` out of the heap; its
    /// index slot is left to the caller.
    fn heap_remove(&mut self, p: usize) -> Counter {
        let removed = self.heap[p];
        let last = self.heap.pop().expect("position is in the heap");
        let slot = usize::from(self.home.pop().expect("home matches the heap"));
        if p < self.heap.len() {
            self.place(p, last, slot);
            self.settle(p);
        }
        removed
    }

    /// Whether member `a` has a greater `(score, id)` than member `b`.
    fn outranks(&self, a: usize, b: usize) -> bool {
        (self.view_scores[a], self.view[a]) > (self.view_scores[b], self.view[b])
    }

    fn rescan_hub(&mut self) {
        self.hub = (0..self.view.len())
            .max_by_key(|&s| (self.view_scores[s], self.view[s]))
            .unwrap_or(0);
    }

    /// Re-files every view slot and heap position from scratch.
    fn reindex(&mut self) {
        self.index.fill(EMPTY);
        self.home.clear();
        for s in 0..self.view.len() {
            let (slot, _) = self.probe(self.view[s]);
            self.index[slot] = MEMBER | s as Entry;
        }
        for p in 0..self.heap.len() {
            let (slot, _) = self.probe(self.heap[p].id());
            self.index[slot] = p as Entry;
            self.home.push(slot as Entry);
        }
        self.rescan_hub();
    }

    /// Asserts every invariant the fast paths rely on: the heap order,
    /// every ID reachable through the index at the place that holds
    /// it, `home` mirroring the index, and the cached hub.
    #[cfg(test)]
    pub(crate) fn check_index(&self) {
        assert_eq!(self.view.len(), self.view_scores.len());
        assert_eq!(self.heap.len(), self.home.len());
        assert!(self.len() <= self.capacity, "table over capacity");
        assert!(self.heap.iter().all(|c| c.score > 0), "zero off-view");
        for p in 1..self.heap.len() {
            assert!(self.heap[(p - 1) / 2] < self.heap[p], "heap out of order");
        }
        let filed = self.index.iter().filter(|&&e| e != EMPTY).count();
        assert_eq!(filed, self.len(), "index holds a stale entry");
        for (s, &member) in self.view.iter().enumerate() {
            let (_, entry) = self.probe(member);
            assert_eq!(entry, MEMBER | s as Entry, "member misfiled");
        }
        for (p, counter) in self.heap.iter().enumerate() {
            let (slot, entry) = self.probe(counter.id());
            assert_eq!((slot, entry), (usize::from(self.home[p]), p as Entry));
        }
        if !self.view.is_empty() {
            let scan = (0..self.view.len())
                .max_by_key(|&s| (self.view_scores[s], self.view[s]))
                .expect("non-empty view");
            assert_eq!(self.hub, scan, "stale hub cache");
        }
    }
}

#[cfg(test)]
impl ScoreTable {
    /// The score of `id` (0 when untracked).
    pub(crate) fn score(&self, id: NodeId) -> u32 {
        match self.probe(id) {
            (_, EMPTY) => 0,
            (_, entry) if entry & MEMBER != 0 => self.view_scores[usize::from(entry & !MEMBER)],
            (_, entry) => self.heap[usize::from(entry)].score,
        }
    }

    /// Bytes the table holds on the heap.
    fn held_bytes(&self) -> usize {
        self.view.capacity() * std::mem::size_of::<NodeId>()
            + self.view_scores.capacity() * 4
            + self.heap.capacity() * std::mem::size_of::<Counter>()
            + (self.home.capacity() + self.index.len()) * std::mem::size_of::<Entry>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::LiftConfig;

    #[test]
    fn counter_is_twelve_bytes_ordered_by_score_then_id() {
        assert_eq!(std::mem::size_of::<Counter>(), 12);
        let wide = NodeId(u64::MAX - 1);
        assert_eq!(Counter::new(3, wide).id(), wide);
        assert!(Counter::new(2, NodeId(1)) > Counter::new(1, wide));
        assert!(Counter::new(2, NodeId(1 << 32)) > Counter::new(2, NodeId(u64::from(u32::MAX))));
    }

    /// The table never holds more bytes than the two sorted counter
    /// arrays it replaced, `12·v + 24·(c + 1 − v)` bytes, at any view
    /// `LiftConfig` admits.
    #[test]
    fn holds_fewer_bytes_than_the_sorted_arrays() {
        for view in 1..=LiftConfig::MAX_VIEW_SIZE {
            let c = LiftConfig::for_view(view, 0).score_capacity;
            let t = ScoreTable::new(view, c);
            let sorted_arrays = 12 * view + 24 * (c + 1 - view);
            assert!(t.held_bytes() <= sorted_arrays, "view {view}");
            if view == 24 || view == 200 {
                let expected = if view == 24 { 3_678 } else { 30_206 };
                assert_eq!(t.held_bytes(), expected, "view {view}");
            }
        }
    }

    #[test]
    fn eviction_takes_the_coldest_counter_but_never_the_newcomer() {
        let mut t = ScoreTable::new(1, 3);
        assert_eq!(t.mention(NodeId(9)), Some(1));
        t.admit(NodeId(9));
        assert_eq!(t.mention(NodeId(5)), Some(1));
        assert_eq!(t.mention(NodeId(7)), Some(1));
        assert_eq!(t.mention(NodeId(7)), Some(2));
        // 3 is the minimal (score, id) but is protected: 5 goes.
        assert_eq!(t.mention(NodeId(3)), Some(1));
        t.check_index();
        assert_eq!((t.score(NodeId(5)), t.score(NodeId(3))), (0, 1));
        // 4 is not minimal: 3 goes.
        assert_eq!(t.mention(NodeId(4)), Some(1));
        t.check_index();
        assert_eq!((t.score(NodeId(3)), t.score(NodeId(7))), (0, 2));
        assert_eq!(t.len(), 3);
    }

    #[test]
    fn replace_swaps_member_and_candidate_with_their_scores() {
        let mut t = ScoreTable::new(1, 4);
        for _ in 0..3 {
            t.mention(NodeId(9));
        }
        t.admit(NodeId(9));
        assert_eq!(t.mention(NodeId(9)), None);
        t.mention(NodeId(2));
        assert_eq!(t.hubbiest(), (0, 4));
        t.replace(0, NodeId(2));
        t.check_index();
        assert_eq!(t.view(), &[NodeId(2)]);
        assert_eq!((t.score(NodeId(2)), t.score(NodeId(9))), (1, 4));
    }

    /// Every event that can move the hubbiest member, each followed by
    /// `check_index`, which holds the cache to a scan of the view.
    #[test]
    fn hub_cache_follows_every_event_that_moves_it() {
        let mut t = ScoreTable::new(4, 16);
        let mention = |t: &mut ScoreTable, id: u64, times: usize| {
            for _ in 0..times {
                t.mention(NodeId(id));
            }
        };
        for (id, times) in [(5, 3), (9, 2), (7, 1)] {
            mention(&mut t, id, times);
            t.admit(NodeId(id));
            t.check_index();
        }
        assert_eq!(t.hubbiest(), (0, 3));
        // A member bumped past the hub: 9 reaches 4.
        mention(&mut t, 9, 2);
        t.check_index();
        assert_eq!(t.hubbiest(), (1, 4));
        // `admit` of a new top score.
        mention(&mut t, 11, 6);
        t.admit(NodeId(11));
        t.check_index();
        assert_eq!(t.hubbiest(), (3, 6));
        // `replace` of the hub: 9 (score 4) is the hubbiest left.
        mention(&mut t, 2, 1);
        t.replace(3, NodeId(2));
        t.check_index();
        assert_eq!(t.view(), &[NodeId(5), NodeId(9), NodeId(7), NodeId(2)]);
        assert_eq!(t.hubbiest(), (1, 4));
        // `quarantine` of the hub: 9 goes and the later slots shift down.
        assert_eq!(t.quarantine(NodeId(9)), 1);
        t.check_index();
        assert_eq!(t.view(), &[NodeId(5), NodeId(7), NodeId(2)]);
        assert_eq!(t.hubbiest(), (0, 3));
        // A fade turns 5's lead (3 vs 2) into a 1–1 tie that 7 wins by ID.
        mention(&mut t, 7, 1);
        assert_eq!(t.hubbiest(), (0, 3));
        t.fade();
        t.check_index();
        assert_eq!((t.score(NodeId(5)), t.score(NodeId(7))), (1, 1));
        assert_eq!(t.hubbiest(), (1, 1));
    }

    #[test]
    fn scores_saturate() {
        let mut t = ScoreTable::new(1, 2);
        t.mention(NodeId(1));
        t.admit(NodeId(1));
        t.view_scores[0] = u32::MAX;
        assert_eq!(t.mention(NodeId(1)), None);
        assert_eq!(t.score(NodeId(1)), u32::MAX);
        assert_eq!(t.hubbiest(), (0, u32::MAX));
        t.mention(NodeId(2));
        // The one off-view counter is the heap's root.
        t.heap[0].score = u32::MAX;
        assert_eq!(t.mention(NodeId(2)), Some(u32::MAX));
        assert_eq!(t.score(NodeId(2)), u32::MAX);
        t.check_index();
    }
}
