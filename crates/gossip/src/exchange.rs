//! The half-view exchange RAPTEE's trusted nodes run.
//!
//! Jelasity et al. factor every gossip peer-sampling protocol into peer
//! selection, view propagation and view selection, the last governed by
//! `H` (*healer*: prefer dropping the oldest links) and `S` (*swapper*:
//! prefer dropping the links just sent). RAPTEE fixes one point of that
//! space (paper Section II): push–pull, `H = 0` and `S = c/2` for a view
//! of capacity `c`, with the initiator inserting a fresh link to itself.
//! Both halves are pure functions over one [`View`], so each side of an
//! exchange calls [`prepare_buffer`] and then, with the partner's buffer,
//! [`integrate`].
//!
//! ```
//! use raptee_gossip::exchange::{integrate, prepare_buffer};
//! use raptee_gossip::view::View;
//! use raptee_net::NodeId;
//! use raptee_util::rng::Xoshiro256StarStar;
//!
//! let mut rng = Xoshiro256StarStar::seed_from_u64(1);
//! let [mut a, mut b] = [(0, 1..5), (10, 11..15)].map(|(owner, ids)| {
//!     let mut v = View::new(NodeId(owner), 4);
//!     ids.for_each(|i| assert!(v.insert_fresh(NodeId(i))));
//!     v
//! });
//! let (to_b, to_a) = (prepare_buffer(&mut a, &mut rng), prepare_buffer(&mut b, &mut rng));
//! integrate(&mut a, &to_a, &mut rng);
//! integrate(&mut b, &to_b, &mut rng);
//! assert!(a.contains(NodeId(10)) && b.contains(NodeId(0)));
//! assert_eq!((a.len(), b.len()), (4, 4));
//! ```

use crate::view::{Entry, View};
use raptee_util::rng::Xoshiro256StarStar;

/// Builds the buffer a node sends to its partner and reorders the local
/// view so the *sent* entries sit at its head (which is what the swap
/// rule in [`integrate`] later drops).
///
/// Framework steps with `H = 0`: buffer ← {(self, 0)}; permute view;
/// append the first `max(c/2, 1) - 1` entries.
pub fn prepare_buffer<E: Entry>(view: &mut View<E>, rng: &mut Xoshiro256StarStar) -> Vec<E> {
    let len = (view.capacity() / 2).max(1);
    let mut buffer = Vec::with_capacity(len);
    buffer.push(E::fresh(view.owner()));
    view.permute(rng);
    buffer.extend_from_slice(view.head_slice(len - 1));
    buffer
}

/// Merges a received buffer into the view (the framework's
/// `select(c, H = 0, S = c/2, buffer)`):
///
/// 1. append the buffer, dropping the owner's own ID and duplicates (a
///    directory's present entry keeps the younger age);
/// 2. remove `min(c/2, len - c)` entries from the *head* (the ones just
///    sent — swap semantics, criterion (3) of the paper);
/// 3. remove random entries until the view is back at capacity `c`.
pub fn integrate<E: Entry>(view: &mut View<E>, received: &[E], rng: &mut Xoshiro256StarStar) {
    let c = view.capacity();
    view.append_dedup(received);
    view.remove_head(c / 2, c);
    view.shrink_to_capacity(rng);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::view::{AgedEntry, Directory, ViewEntry};
    use raptee_net::NodeId;

    fn full_view(owner: u64, ids: std::ops::Range<u64>, cap: usize) -> View {
        let mut v = View::new(NodeId(owner), cap);
        for i in ids {
            v.insert_fresh(NodeId(i));
        }
        v
    }

    #[test]
    fn buffer_contains_self_first_and_half_view() {
        let mut rng = Xoshiro256StarStar::seed_from_u64(2);
        let mut v = full_view(7, 10..20, 10);
        let buf = prepare_buffer(&mut v, &mut rng);
        assert_eq!(buf.len(), 5, "c/2 entries");
        assert_eq!(
            buf[0],
            ViewEntry::fresh(NodeId(7)),
            "self link first, age 0"
        );
        assert_eq!(&buf[1..], v.head_slice(4), "the sent entries head the view");
    }

    #[test]
    fn integrate_restores_capacity_and_invariants() {
        let mut rng = Xoshiro256StarStar::seed_from_u64(4);
        let mut v = full_view(0, 1..9, 8);
        let incoming: Vec<ViewEntry> = (20..30).map(|i| ViewEntry::fresh(NodeId(i))).collect();
        integrate(&mut v, &incoming, &mut rng);
        assert_eq!(v.len(), 8);
        assert!(v.invariants_hold());
    }

    #[test]
    fn swap_semantics_drop_sent_entries() {
        // Both buffers are prepared before either is integrated, as in the
        // trusted swap. With disjoint full views each side keeps exactly
        // the partner's buffer in place of its own head.
        let mut rng = Xoshiro256StarStar::seed_from_u64(5);
        let mut a = full_view(0, 1..9, 8);
        let mut b = full_view(100, 101..109, 8);
        let buf_a = prepare_buffer(&mut a, &mut rng);
        let buf_b = prepare_buffer(&mut b, &mut rng);
        integrate(&mut a, &buf_b, &mut rng);
        integrate(&mut b, &buf_a, &mut rng);
        for (view, sent, received) in [(&a, &buf_a, &buf_b), (&b, &buf_b, &buf_a)] {
            assert!(view.invariants_hold());
            assert_eq!(view.len(), 8);
            assert!(
                sent[1..].iter().all(|e| !view.contains(e.id)),
                "sent links are kept only by the partner"
            );
            assert!(received.iter().all(|e| view.contains(e.id)));
        }
        // The initiator's own ID travelled to the responder.
        assert!(b.contains(NodeId(0)));
    }

    #[test]
    fn one_slot_view_sends_only_itself_and_drops_nothing_from_its_head() {
        // c = 1 is the one size where the buffer length max(c/2, 1) and the
        // swap count c/2 differ: the buffer is the self link alone, and the
        // overflow is settled by the random shrink, not by the head.
        let mut rng = Xoshiro256StarStar::seed_from_u64(6);
        let mut v = full_view(0, 1..2, 1);
        assert_eq!(
            prepare_buffer(&mut v, &mut rng),
            [ViewEntry::fresh(NodeId(0))]
        );
        let received = [ViewEntry::fresh(NodeId(9))];
        let mut expected = v.clone();
        let mut expected_rng = rng.clone();
        expected.append_dedup(&received);
        expected.shrink_to_capacity(&mut expected_rng);
        integrate(&mut v, &received, &mut rng);
        assert_eq!(v, expected);
        assert_eq!(rng.next_u64(), expected_rng.next_u64(), "same RNG draws");
    }

    #[test]
    fn empty_view_sends_only_itself() {
        let mut rng = Xoshiro256StarStar::seed_from_u64(7);
        let mut v = View::new(NodeId(3), 8);
        assert_eq!(
            prepare_buffer(&mut v, &mut rng),
            [ViewEntry::fresh(NodeId(3))]
        );
        assert!(v.is_empty());
    }

    #[test]
    fn prepare_buffer_reorders_but_keeps_the_view() {
        let mut rng = Xoshiro256StarStar::seed_from_u64(8);
        let mut v = full_view(0, 1..11, 10);
        let before = v.clone();
        prepare_buffer(&mut v, &mut rng);
        let mut kept = v.entries().to_vec();
        let mut orig = before.entries().to_vec();
        kept.sort_by_key(|e| e.id);
        orig.sort_by_key(|e| e.id);
        assert_eq!(kept, orig, "only the order changes");
        assert!(v.invariants_hold());
    }

    #[test]
    fn prepare_buffer_draws_exactly_one_permutation() {
        // The only randomness in building a buffer is the view shuffle, so
        // the RNG stream continues exactly as after a bare `permute`.
        let mut rng = Xoshiro256StarStar::seed_from_u64(9);
        let mut v = full_view(0, 1..9, 8);
        let mut expected = v.clone();
        let mut expected_rng = rng.clone();
        expected.permute(&mut expected_rng);
        prepare_buffer(&mut v, &mut rng);
        assert_eq!(v, expected);
        assert_eq!(rng.next_u64(), expected_rng.next_u64());
    }

    #[test]
    fn full_view_swaps_its_head_for_new_links_without_drawing() {
        // Four new links into a full view of eight: exactly the four head
        // entries leave (c/2 = len - c = 4), so the random shrink has
        // nothing to do and draws nothing.
        let mut rng = Xoshiro256StarStar::seed_from_u64(10);
        let mut v = full_view(0, 1..9, 8);
        let received: Vec<ViewEntry> = (20..24).map(|i| ViewEntry::fresh(NodeId(i))).collect();
        let mut expected: Vec<ViewEntry> = v.entries()[4..].to_vec();
        expected.extend_from_slice(&received);
        let untouched = rng.clone();
        integrate(&mut v, &received, &mut rng);
        assert_eq!(v.entries(), expected.as_slice());
        assert_eq!(rng, untouched, "no RNG draw");
    }

    #[test]
    fn integrate_below_capacity_keeps_everything() {
        let mut rng = Xoshiro256StarStar::seed_from_u64(11);
        let mut v = full_view(0, 1..4, 8);
        let received: Vec<ViewEntry> = (20..23).map(|i| ViewEntry::fresh(NodeId(i))).collect();
        integrate(&mut v, &received, &mut rng);
        assert_eq!(v.len(), 6);
        assert!((1..4).chain(20..23).all(|i| v.contains(NodeId(i))));
    }

    #[test]
    fn integrate_skips_the_owner_and_keeps_the_younger_duplicate() {
        let mut rng = Xoshiro256StarStar::seed_from_u64(12);
        let mut v = Directory::empty(NodeId(0), 8);
        v.insert_fresh(NodeId(5));
        for _ in 0..6 {
            v.increase_age();
        }
        let mut sent = Directory::empty(NodeId(9), 8);
        sent.insert_fresh(NodeId(5));
        sent.increase_age();
        sent.increase_age();
        let received = [AgedEntry::fresh(NodeId(0)), sent.entries()[0]];
        integrate(&mut v, &received, &mut rng);
        assert_eq!(v.entries(), &sent.entries()[..1]);
    }

    #[test]
    fn exchange_is_a_function_of_the_seed() {
        let run = |seed: u64| {
            let mut rng = Xoshiro256StarStar::seed_from_u64(seed);
            let mut a = full_view(0, 1..13, 12);
            let mut b = full_view(50, 60..72, 12);
            let buf_a = prepare_buffer(&mut a, &mut rng);
            let buf_b = prepare_buffer(&mut b, &mut rng);
            integrate(&mut a, &buf_b, &mut rng);
            integrate(&mut b, &buf_a, &mut rng);
            (a, b)
        };
        assert_eq!(run(13), run(13));
        assert_ne!(run(13), run(14));
    }
}
