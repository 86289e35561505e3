//! LIFT's hub-score table: the view with each member's score beside its
//! slot, and the off-view counters kept twice in flat sorted arrays —
//! by ID for look-up, by `(score, id)` for eviction.
//!
//! Every tracked ID is in exactly one place. A **view member** lives in
//! a slot (`view[s]`, `view_scores[s]`), so the in-view test, the
//! hubbiest-member scan and the pull ordering read two short dense
//! arrays and nothing else. An **off-view counter** is one 12-byte
//! [`Counter`] present in both `by_id` (ascending ID) and `by_score`
//! (descending `(score, id)`), so the coldest counter — the victim
//! when a new ID arrives at a full table, which may not evict itself —
//! is the last element of `by_score` before the newcomer is filed.
//!
//! Costs, with `v` the view size and `c` the capacity: a mention is one
//! `v`-element scan plus `O(log c)` comparisons and a `memmove` of at
//! most `c` counters (a few hundred bytes at the arena's view 24, under
//! 17 KiB at the paper's view 200); a fade is `O(c log c)`. Storage is
//! `12·v + 24·(c + 1 − v)` bytes, allocated once.

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

/// The view and every hub-score counter of one LIFT node, at most
/// `capacity` IDs in all. Scores are `u32` and saturate.
#[derive(Debug, Clone)]
pub(crate) struct ScoreTable {
    capacity: usize,
    /// View members in admission order, all distinct.
    view: Vec<NodeId>,
    /// `view_scores[s]` is the hub score of `view[s]`.
    view_scores: Vec<u32>,
    /// Off-view counters by ascending ID; every score is at least 1.
    by_id: Vec<Counter>,
    /// The same counters by descending `(score, id)`: coldest last.
    by_score: Vec<Counter>,
}

impl ScoreTable {
    /// An empty table for `view_size` slots and `capacity` tracked IDs
    /// (`capacity > view_size`, which `LiftConfig::validate` enforces).
    pub(crate) fn new(view_size: usize, capacity: usize) -> Self {
        let off_view = capacity + 1 - view_size;
        Self {
            capacity,
            view: Vec::with_capacity(view_size),
            view_scores: Vec::with_capacity(view_size),
            by_id: Vec::with_capacity(off_view),
            by_score: Vec::with_capacity(off_view),
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
        self.view.len() + self.by_id.len()
    }

    /// Counts one mention of `id`. A view member's score is bumped in
    /// its slot and `None` returned. Any other ID is bumped (or starts
    /// at 1) off-view and its new score returned; a start that finds
    /// the table full evicts the coldest off-view counter other than
    /// `id` — minimal `(score, id)`.
    pub(crate) fn mention(&mut self, id: NodeId) -> Option<u32> {
        if let Some(slot) = self.slot_of(id) {
            self.view_scores[slot] = self.view_scores[slot].saturating_add(1);
            return None;
        }
        match self.find(id) {
            Ok(i) => {
                let old = self.by_id[i];
                let new = Counter::new(old.score.saturating_add(1), id);
                self.by_id[i] = new;
                // The key only grew, so the counter moves toward the front.
                let from = self.rank_of(old);
                let to = self.by_score[..from].partition_point(|c| *c > new);
                self.by_score[to..=from].rotate_right(1);
                self.by_score[to] = new;
                Some(new.score)
            }
            Err(i) => {
                let new = Counter::new(1, id);
                // On a full table the coldest counter other than `id`
                // goes: the coldest there is before `id` is filed.
                let victim = if self.len() < self.capacity {
                    None
                } else {
                    self.by_score.pop()
                };
                match victim {
                    Some(victim) => {
                        let gone = self.find(victim.id()).expect("indexed counter is mapped");
                        // One shift of the counters between the two
                        // places, not a removal and an insertion.
                        if gone < i {
                            self.by_id[gone..i].rotate_left(1);
                            self.by_id[i - 1] = new;
                        } else {
                            self.by_id[i..=gone].rotate_right(1);
                            self.by_id[i] = new;
                        }
                    }
                    None => self.by_id.insert(i, new),
                }
                self.by_score.insert(self.rank_of(new), new);
                Some(1)
            }
        }
    }

    /// The view member with the maximal `(score, id)`: its slot and
    /// score.
    ///
    /// # Panics
    ///
    /// Panics on an empty view.
    pub(crate) fn hubbiest(&self) -> (usize, u32) {
        let (slot, (&score, _)) = self
            .view_scores
            .iter()
            .zip(&self.view)
            .enumerate()
            .max_by_key(|&(_, (&score, &id))| (score, id))
            .expect("hubbiest() requires a non-empty view");
        (slot, score)
    }

    /// Moves the off-view `id` into a new view slot.
    pub(crate) fn admit(&mut self, id: NodeId) {
        let score = self.remove_off_view(id).expect("admitted ID is tracked");
        self.view.push(id);
        self.view_scores.push(score);
    }

    /// Gives `slot` to the off-view `id`; the member it held goes
    /// off-view with its score.
    pub(crate) fn replace(&mut self, slot: usize, id: NodeId) {
        let score = self.remove_off_view(id).expect("candidate ID is tracked");
        let demoted = Counter::new(self.view_scores[slot], self.view[slot]);
        let i = self
            .find(demoted.id())
            .expect_err("members are not off-view");
        self.by_id.insert(i, demoted);
        self.by_score.insert(self.rank_of(demoted), demoted);
        self.view[slot] = id;
        self.view_scores[slot] = score;
    }

    /// Forgets `id` wherever it is; returns the view slots vacated.
    pub(crate) fn quarantine(&mut self, id: NodeId) -> usize {
        match self.slot_of(id) {
            Some(slot) => {
                self.view.remove(slot);
                self.view_scores.remove(slot);
                1
            }
            None => {
                self.remove_off_view(id);
                0
            }
        }
    }

    /// Halves every score and drops the off-view counters that reach
    /// zero; returns how many nonzero scores were halved.
    pub(crate) fn fade(&mut self) -> usize {
        let mut faded = self.by_id.len();
        for score in &mut self.view_scores {
            if *score > 0 {
                faded += 1;
                *score >>= 1;
            }
        }
        self.by_id.retain_mut(|c| {
            c.score >>= 1;
            c.score > 0
        });
        // Halving merges neighbouring scores, so ties re-order by ID.
        self.by_score.clear();
        self.by_score.extend_from_slice(&self.by_id);
        self.by_score.sort_unstable_by(|a, b| b.cmp(a));
        faded
    }

    /// Empties the table.
    pub(crate) fn clear(&mut self) {
        self.view.clear();
        self.view_scores.clear();
        self.by_id.clear();
        self.by_score.clear();
    }

    fn slot_of(&self, id: NodeId) -> Option<usize> {
        self.view.iter().position(|&member| member == id)
    }

    /// `id`'s index in `by_id`, or where it would be inserted.
    fn find(&self, id: NodeId) -> Result<usize, usize> {
        self.by_id.binary_search_by_key(&id, Counter::id)
    }

    /// `counter`'s index in `by_score`, or where it would be inserted.
    fn rank_of(&self, counter: Counter) -> usize {
        self.by_score.partition_point(|c| *c > counter)
    }

    fn remove_off_view(&mut self, id: NodeId) -> Option<u32> {
        let counter = self.by_id.remove(self.find(id).ok()?);
        self.by_score.remove(self.rank_of(counter));
        Some(counter.score)
    }

    /// Asserts every invariant the fast paths rely on, recomputing the
    /// `(score, id)` order from the by-ID map.
    #[cfg(test)]
    pub(crate) fn check_index(&self) {
        assert_eq!(self.view.len(), self.view_scores.len());
        assert!(self.len() <= self.capacity, "table over capacity");
        assert!(
            self.by_id.windows(2).all(|w| w[0].id() < w[1].id()),
            "by_id not strictly ascending"
        );
        assert!(self.by_id.iter().all(|c| c.score > 0), "zero off-view");
        let mut recomputed = self.by_id.clone();
        recomputed.sort_unstable_by(|a, b| b.cmp(a));
        assert_eq!(self.by_score, recomputed, "by_score out of order");
        for (slot, &member) in self.view.iter().enumerate() {
            assert_eq!(self.slot_of(member), Some(slot), "duplicate member");
            assert!(self.find(member).is_err(), "member also off-view");
        }
    }
}

#[cfg(test)]
impl ScoreTable {
    /// The score of `id` (0 when untracked).
    pub(crate) fn score(&self, id: NodeId) -> u32 {
        match self.slot_of(id) {
            Some(slot) => self.view_scores[slot],
            None => self.find(id).map_or(0, |i| self.by_id[i].score),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_is_twelve_bytes_ordered_by_score_then_id() {
        assert_eq!(std::mem::size_of::<Counter>(), 12);
        let wide = NodeId(u64::MAX - 1);
        assert_eq!(Counter::new(3, wide).id(), wide);
        assert!(Counter::new(2, NodeId(1)) > Counter::new(1, wide));
        assert!(Counter::new(2, NodeId(1 << 32)) > Counter::new(2, NodeId(u64::from(u32::MAX))));
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

    #[test]
    fn scores_saturate() {
        let mut t = ScoreTable::new(1, 2);
        t.mention(NodeId(1));
        t.admit(NodeId(1));
        t.view_scores[0] = u32::MAX;
        assert_eq!(t.mention(NodeId(1)), None);
        assert_eq!(t.score(NodeId(1)), u32::MAX);
        t.mention(NodeId(2));
        t.by_id[0].score = u32::MAX;
        t.by_score[0].score = u32::MAX;
        assert_eq!(t.mention(NodeId(2)), Some(u32::MAX));
        t.check_index();
    }
}
