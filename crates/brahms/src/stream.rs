//! The pulled stream a round reads, where it lies.
//!
//! A node's pulled stream is its round's pull answers end to end (under
//! RAPTEE, followed by its trusted-swap IDs). A round needs three things
//! from it: how many IDs it holds besides the node's own, the IDs at the
//! `β·l1` positions the view renewal draws, and one visit of every ID
//! for the samplers. None of the three needs the stream in one buffer,
//! so a [`Rope`] reads each answer where the caller keeps it — a slice
//! of identities, a slice of dense arena indices, or an answer an
//! [`AnswerSource`] draws on demand — and draws such an answer only as
//! far as a renewal pick reaches into it, and for the samplers only
//! while their seen-cache may lack one of its IDs.

use crate::node::FinishScratch;
use raptee_net::{NodeId, NodeIdx};
use raptee_sampler::{Feed, SamplerArray};
use raptee_util::rng::IndexScratch;
use std::iter::Once;
use std::ops::Range;

/// One stretch of a pulled stream, in place.
#[derive(Debug, Clone, Copy)]
pub enum Segment<'a> {
    /// Wire identities: a recorded stream, trusted-swap IDs, eviction
    /// survivors.
    Ids(&'a [NodeId]),
    /// Dense arena indices, each the identity of the same number: a
    /// view-snapshot row or an answer-arena slice.
    Dense(&'a [NodeIdx]),
    /// Answer `slot` of the rope's [`AnswerSource`], drawn only where it
    /// is read.
    Drawn(u32),
}

/// What draws the [`Segment::Drawn`] answers of a [`Rope`]. Every answer
/// has [`AnswerSource::answer_len`] IDs, and an answer's output `i` must
/// be fixed by its first `i + 1` draws, so drawing a prefix is exact.
pub trait AnswerSource {
    /// IDs in every answer.
    fn answer_len(&self) -> usize;

    /// Every ID an answer can contain, as runs of consecutive indices.
    fn id_runs(&self) -> &[Range<usize>];

    /// The offset of `me` in answer `slot`, if the answer holds it (an
    /// answer holds it at most once).
    fn offset_of(&self, slot: u32, me: NodeId) -> Option<usize>;

    /// At least the first `depth` IDs of answer `slot` into `out`
    /// (cleared first); `depth` = [`AnswerSource::answer_len`] draws the
    /// whole answer.
    fn draw(&self, slot: u32, depth: usize, idx: &mut IndexScratch, out: &mut Vec<NodeId>);
}

/// The source of a rope that holds no drawn answers.
#[derive(Debug, Clone, Copy, Default)]
pub struct NoAnswers;

impl AnswerSource for NoAnswers {
    fn answer_len(&self) -> usize {
        0
    }

    fn id_runs(&self) -> &[Range<usize>] {
        &[]
    }

    fn offset_of(&self, _: u32, _: NodeId) -> Option<usize> {
        None
    }

    fn draw(&self, _: u32, _: usize, _: &mut IndexScratch, _: &mut Vec<NodeId>) {
        unreachable!("a rope without an answer source holds no drawn answer")
    }
}

/// A pulled stream as a sequence of [`Segment`]s, read in place, and an
/// optional tail of identities after them. The segments are an iterator
/// the rope clones for each pass, so a caller maps its own answer
/// records to segments without collecting them; the tail may live
/// shorter than they do (RAPTEE's trusted-swap IDs, borrowed from the
/// node the round finishes).
#[derive(Debug)]
pub struct Rope<'a, A, I> {
    answers: &'a A,
    segments: I,
    tail: &'a [NodeId],
}

impl<A, I: Clone> Clone for Rope<'_, A, I> {
    fn clone(&self) -> Self {
        Self {
            answers: self.answers,
            segments: self.segments.clone(),
            tail: self.tail,
        }
    }
}

/// A stream of one slice of identities.
pub type SliceRope<'a> = Rope<'a, NoAnswers, Once<Segment<'a>>>;

impl<'a> SliceRope<'a> {
    /// The stream `ids`.
    pub fn slice(ids: &'a [NodeId]) -> Self {
        Rope::new(&NoAnswers, std::iter::once(Segment::Ids(ids)))
    }
}

/// Buffers a [`Rope`] works in, kept in the [`FinishScratch`] that
/// finishes the round.
#[derive(Debug, Clone, Default)]
pub(crate) struct RopeScratch {
    /// Index table of the answer draws.
    idx: IndexScratch,
    /// Stream positions holding the node's own ID, ascending.
    own: Vec<usize>,
    /// The renewal picks, each its stream position above its pick
    /// number (see [`PICK_BITS`]), so that they sort as one word.
    picks: Vec<u64>,
    /// One drawn answer (or its prefix).
    drawn: Vec<NodeId>,
}

impl<'a, 's: 'a, A: AnswerSource, I: Iterator<Item = Segment<'s>> + Clone> Rope<'a, A, I> {
    /// The stream of `segments`, in order; `answers` draws their
    /// [`Segment::Drawn`] answers.
    pub fn new(answers: &'a A, segments: I) -> Self {
        Self {
            answers,
            segments,
            tail: &[],
        }
    }

    /// This stream followed by `tail` instead of its own tail.
    pub fn with_tail<'t>(self, tail: &'t [NodeId]) -> Rope<'t, A, I>
    where
        'a: 't,
    {
        Rope {
            answers: self.answers,
            segments: self.segments,
            tail,
        }
    }

    /// The segments, then the tail.
    fn pieces(&self) -> impl Iterator<Item = Segment<'a>> + use<'_, 'a, 's, A, I> {
        let shorten = |s: Segment<'s>| -> Segment<'a> { s };
        self.segments
            .clone()
            .map(shorten)
            .chain(std::iter::once(Segment::Ids(self.tail)))
    }

    fn segment_len(&self, segment: Segment<'_>) -> usize {
        match segment {
            Segment::Ids(ids) => ids.len(),
            Segment::Dense(ids) => ids.len(),
            Segment::Drawn(_) => self.answers.answer_len(),
        }
    }

    /// Whether `sampler` can skip this stream's drawn answers: its
    /// seen-cache holds every ID other than `me` that one can carry, so
    /// [`BrahmsNode::finish_round_with`](crate::BrahmsNode::finish_round_with)
    /// draws them only as far as its renewal picks reach.
    pub fn skips_answers(&self, sampler: &SamplerArray, me: NodeId) -> bool {
        answers_seen(self.answers, sampler, me)
    }

    /// IDs in the stream, the node's own included.
    pub fn len(&self) -> usize {
        self.pieces().map(|s| self.segment_len(s)).sum()
    }

    /// Whether the stream holds no ID.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Every ID of the stream into `out` (cleared first), in order, each
    /// drawn answer drawn whole — for a filter that must visit each ID.
    pub fn flatten_into(&self, scratch: &mut FinishScratch, out: &mut Vec<NodeId>) {
        let st = &mut scratch.rope;
        out.clear();
        for segment in self.pieces() {
            match segment {
                Segment::Ids(ids) => out.extend_from_slice(ids),
                Segment::Dense(ids) => out.extend(ids.iter().map(|&i| i.id())),
                Segment::Drawn(slot) => {
                    let len = self.answers.answer_len();
                    self.answers.draw(slot, len, &mut st.idx, &mut st.drawn);
                    out.extend_from_slice(&st.drawn[..len]);
                }
            }
        }
    }

    /// The round's one pass over the stream: pushes every ID other than
    /// `me` into `feed` and notes where `me` lies, for
    /// [`Rope::pick_into`]. A drawn answer is drawn only while the
    /// sampler's seen-cache may lack one of its IDs. Returns how many IDs
    /// the stream holds besides `me`.
    pub(crate) fn observe(&self, me: NodeId, feed: &mut Feed<'_>, st: &mut RopeScratch) -> usize {
        st.own.clear();
        let mut at = 0;
        // Whether drawn answers can be skipped; asked again after each
        // drawn answer, which may have completed the cache.
        let mut seen = None;
        for segment in self.pieces() {
            match segment {
                Segment::Ids(ids) => visit(me, at, ids.iter().copied(), feed, &mut st.own),
                Segment::Dense(ids) => {
                    visit(me, at, ids.iter().map(|&i| i.id()), feed, &mut st.own)
                }
                Segment::Drawn(slot) => {
                    let answers = self.answers;
                    if *seen.get_or_insert_with(|| answers_seen(answers, feed.array(), me)) {
                        st.own.extend(answers.offset_of(slot, me).map(|o| at + o));
                    } else {
                        answers.draw(slot, answers.answer_len(), &mut st.idx, &mut st.drawn);
                        let drawn = &st.drawn[..answers.answer_len()];
                        visit(me, at, drawn.iter().copied(), feed, &mut st.own);
                        seen = None;
                    }
                }
            }
            at += self.segment_len(segment);
        }
        at - st.own.len()
    }

    /// The IDs at `positions` of the stream without `me` — positions
    /// below what the [`Rope::observe`] that went before returned — into
    /// `out` (cleared first), in the order of `positions`. A drawn answer
    /// is drawn only up to the deepest position read from it.
    pub(crate) fn pick_into(
        &self,
        positions: &[usize],
        st: &mut RopeScratch,
        out: &mut Vec<NodeId>,
    ) {
        let RopeScratch {
            idx,
            own,
            picks,
            drawn,
        } = st;
        // Stream positions in ascending order, each packed above its pick
        // number: a position without `me` skips every `me` at or before
        // it.
        picks.clear();
        picks.extend(positions.iter().enumerate().map(|(k, &f)| {
            let mut at = f;
            for &p in own.iter() {
                if p > at {
                    break;
                }
                at += 1;
            }
            (at as u64) << PICK_BITS | k as u64
        }));
        picks.sort_unstable();
        out.clear();
        out.resize(positions.len(), NodeId(0));
        let unpack = |pick: u64| ((pick >> PICK_BITS) as usize, (pick & PICK_MASK) as usize);
        let (mut next, mut start) = (0, 0);
        for segment in self.pieces() {
            let Some(&first) = picks.get(next) else {
                break;
            };
            let end = start + self.segment_len(segment);
            if unpack(first).0 < end {
                let here = picks[next..].partition_point(|&p| unpack(p).0 < end);
                let inside = &picks[next..next + here];
                next += here;
                match segment {
                    Segment::Ids(ids) => {
                        for (at, k) in inside.iter().map(|&p| unpack(p)) {
                            out[k] = ids[at - start];
                        }
                    }
                    Segment::Dense(ids) => {
                        for (at, k) in inside.iter().map(|&p| unpack(p)) {
                            out[k] = ids[at - start].id();
                        }
                    }
                    Segment::Drawn(slot) => {
                        let deepest = unpack(inside[here - 1]).0;
                        self.answers.draw(slot, deepest - start + 1, idx, drawn);
                        for (at, k) in inside.iter().map(|&p| unpack(p)) {
                            out[k] = drawn[at - start];
                        }
                    }
                }
            }
            start = end;
        }
    }
}

/// Low bits of a packed renewal pick that hold its pick number.
const PICK_BITS: u32 = 32;
/// The mask of those bits.
const PICK_MASK: u64 = (1 << PICK_BITS) - 1;

/// Whether `sampler`'s seen-cache holds every ID other than `me` that
/// an answer of `answers` can contain, so that feeding it any of them
/// changes nothing.
fn answers_seen(answers: &impl AnswerSource, sampler: &SamplerArray, me: NodeId) -> bool {
    let me = me.index();
    answers.id_runs().iter().all(|run| {
        if run.contains(&me) {
            sampler.has_seen_all(run.start..me) && sampler.has_seen_all(me + 1..run.end)
        } else {
            sampler.has_seen_all(run.clone())
        }
    })
}

/// Feeds `ids`, which start at stream position `at`, into `feed`,
/// noting in `own` the positions of `me` instead.
#[inline]
fn visit(
    me: NodeId,
    at: usize,
    ids: impl Iterator<Item = NodeId>,
    feed: &mut Feed<'_>,
    own: &mut Vec<usize>,
) {
    for (o, id) in ids.enumerate() {
        if id == me {
            own.push(at + o);
        } else {
            feed.push(id);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{BrahmsConfig, BrahmsNode};

    /// Answers whose output `i` is a hash of `(slot, i)` within the pool
    /// `0..pool` other than `me`, which takes one slot of every third
    /// answer instead: prefixes are exact by construction.
    struct Toy {
        pool: u64,
        len: usize,
        me: NodeId,
        runs: Vec<Range<usize>>,
    }

    impl Toy {
        fn id(&self, slot: u32, i: usize) -> NodeId {
            if slot.is_multiple_of(3) && i == slot as usize % self.len {
                return self.me;
            }
            let id = raptee_util::rng::mix64(u64::from(slot) << 20 | i as u64) % self.pool;
            NodeId(if id == self.me.0 { id + 1 } else { id })
        }
    }

    impl AnswerSource for Toy {
        fn answer_len(&self) -> usize {
            self.len
        }

        fn id_runs(&self) -> &[Range<usize>] {
            &self.runs
        }

        fn offset_of(&self, slot: u32, me: NodeId) -> Option<usize> {
            (0..self.len).find(|&i| self.id(slot, i) == me)
        }

        fn draw(&self, slot: u32, depth: usize, _: &mut IndexScratch, out: &mut Vec<NodeId>) {
            out.clear();
            out.extend((0..depth.min(self.len)).map(|i| self.id(slot, i)));
        }
    }

    /// A rope of rows and drawn answers finishes a round exactly as the
    /// same stream flattened into one slice does: same view, samples,
    /// seen-cache and RNG, whether the samplers must see the drawn
    /// answers (a cold cache) or can skip them (a warm one), with the
    /// node's own ID in rows, answers and the tail.
    #[test]
    fn a_rope_finishes_like_its_flattened_stream() {
        let me = NodeId(7);
        let toy = Toy {
            pool: 40,
            len: 12,
            me,
            runs: vec![0..7, 8..40],
        };
        let rows: Vec<Vec<NodeIdx>> = (0..6u32)
            .map(|r| {
                (0..10)
                    .map(|i| NodeIdx(40 + (r * 13 + i * 7) % 60))
                    .chain([NodeIdx(7)])
                    .collect()
            })
            .collect();
        let tail = [NodeId(99), me, NodeId(41)];
        for warm in [false, true] {
            for mix in 0..16u32 {
                let segments: Vec<Segment<'_>> = (0..8u32)
                    .map(|k| match (k + mix) % 3 {
                        0 => Segment::Drawn(k * 5 + mix),
                        _ => Segment::Dense(&rows[((k + mix) % 6) as usize]),
                    })
                    .take(1 + (mix % 8) as usize)
                    .collect();
                let rope = Rope::new(&toy, segments.iter().copied()).with_tail(&tail);
                let mut flat = Vec::new();
                let mut scratch = FinishScratch::default();
                rope.flatten_into(&mut scratch, &mut flat);
                assert_eq!(flat.len(), rope.len());

                let config = BrahmsConfig::paper_defaults(10, 10);
                let boot: Vec<NodeId> = (50..60).map(NodeId).collect();
                let mut a = BrahmsNode::new(me, config, &boot, u64::from(mix));
                if warm {
                    a.sampler_mut()
                        .observe_all((0..40).filter(|&i| i != 7).map(NodeId));
                }
                assert_eq!(rope.skips_answers(a.sampler(), me), warm);
                let mut b = a.clone();
                let pushed = [NodeId(61), NodeId(62)];
                let ra = a.finish_round_with(&pushed, rope.clone(), &mut FinishScratch::default());
                let rb = b.finish_round_with(&pushed, SliceRope::slice(&flat), &mut scratch);
                assert_eq!(ra, rb, "warm {warm}, mix {mix}");
                assert_eq!(
                    a.view().id_vec(),
                    b.view().id_vec(),
                    "warm {warm}, mix {mix}"
                );
                assert_eq!(a.sampler().samples(), b.sampler().samples());
                assert_eq!(a.sampler().seen_cached(), b.sampler().seen_cached());
                assert_eq!(a.rng_mut().clone(), b.rng_mut().clone());
            }
        }
    }
}
