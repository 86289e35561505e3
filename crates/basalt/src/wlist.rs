//! The waiting-list quarantine for hearsay candidates.
//!
//! BASALT's anti-poisoning refinement (PR 2) keeps IDs merely *heard
//! about* — pull-answer contents, as opposed to directly contacted
//! peers — out of the ranked view until a verification contact succeeds.
//! Candidates queue FIFO with a TTL; each round a bounded probe budget
//! verifies the oldest entries, admitting reachable candidates and
//! dropping unreachable or expired ones.
//!
//! The machinery is protocol-agnostic (a queue, a dedup index and a
//! probe loop), so it is exported as [`WaitingList`] and shared by the
//! BASALT+TEE hybrid ([`crate::BasaltNode`]) and the Honeybee
//! verifiable-random-walk sampler (`raptee-honeybee`), whose walk
//! endpoints pass through the same quarantine before admission.

use raptee_net::NodeId;
use raptee_util::bitset::{IdSet, DENSE_ID_LIMIT};
use std::collections::VecDeque;

/// Outcome of one waiting-list drain (see [`WaitingList::drain`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WlistReport {
    /// Hearsay candidates verified and admitted to the ranking.
    pub(crate) admitted: usize,
    /// Candidates dropped: TTL expired before verification, or the
    /// verification contact failed (the candidate was unreachable).
    pub(crate) dropped: usize,
}

/// One waiting-list entry: a hearsay candidate and the round at which
/// its TTL expires.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct WlistEntry {
    id: NodeId,
    expires: u64,
}

/// A FIFO quarantine of hearsay candidates with TTL expiry, a dense
/// dedup index and a per-drain probe budget.
///
/// `ttl == 0` disables the list entirely: enqueues are rejected and
/// drains are no-ops, so the disabled configuration carries (and
/// mutates) no state.
#[derive(Debug, Clone, Default)]
pub struct WaitingList {
    ttl: usize,
    probe: usize,
    queue: VecDeque<WlistEntry>,
    members: IdSet,
}

impl WaitingList {
    /// A waiting list quarantining candidates for `ttl` rounds and
    /// probing up to `probe` of them per [`WaitingList::drain`]. A zero
    /// `ttl` disables the list.
    pub fn new(ttl: usize, probe: usize) -> Self {
        Self {
            ttl,
            probe,
            queue: VecDeque::new(),
            members: IdSet::new(),
        }
    }

    /// Whether the quarantine is active (`ttl > 0`).
    fn is_enabled(&self) -> bool {
        self.ttl > 0
    }

    /// Candidates currently quarantined.
    pub fn len(&self) -> usize {
        self.queue.len()
    }

    /// Whether the list holds no candidates.
    pub fn is_empty(&self) -> bool {
        self.queue.is_empty()
    }

    /// Enqueues one hearsay candidate at round `now` (deduplicated;
    /// `own` — the holder's identity — is ignored). Returns whether the
    /// candidate was freshly queued.
    pub fn enqueue(&mut self, own: NodeId, id: NodeId, now: u64) -> bool {
        if !self.is_enabled() || id == own {
            return false;
        }
        let idx = id.0 as usize;
        let fresh = if idx < DENSE_ID_LIMIT {
            self.members.insert(idx)
        } else {
            !self.queue.iter().any(|e| e.id == id)
        };
        if !fresh {
            return false;
        }
        self.queue.push_back(WlistEntry {
            id,
            expires: now + self.ttl as u64,
        });
        true
    }

    /// Purges any pending entry for `id` (quarantine-time blacklisting:
    /// a convicted peer must not re-enter via queued hearsay). Returns
    /// whether an entry was removed.
    pub fn purge(&mut self, id: NodeId) -> bool {
        if !self.queue.iter().any(|e| e.id == id) {
            return false;
        }
        self.queue.retain(|e| e.id != id);
        self.forget_member(id);
        true
    }

    /// Discards every queued candidate (crash–restart paths: stale
    /// unverified hearsay does not survive a rejoin).
    pub fn clear(&mut self) {
        self.queue.clear();
        self.members = IdSet::new();
    }

    /// Verifies queued candidates (oldest first) at round `now`: up to
    /// the probe budget of *contact attempts*, where `is_alive` decides
    /// whether the connection succeeds. Reachable candidates are passed
    /// to `admit`; unreachable ones are dropped (the probe is still
    /// spent). Entries whose TTL expired are discarded without
    /// consuming probe budget. No-op while the list is disabled.
    pub fn drain(
        &mut self,
        now: u64,
        mut is_alive: impl FnMut(NodeId) -> bool,
        mut admit: impl FnMut(NodeId),
    ) -> WlistReport {
        let mut report = WlistReport::default();
        if !self.is_enabled() {
            return report;
        }
        let mut probes = 0;
        while probes < self.probe {
            let Some(entry) = self.queue.front().copied() else {
                break;
            };
            self.queue.pop_front();
            self.forget_member(entry.id);
            if entry.expires <= now {
                report.dropped += 1;
                continue; // expired without a probe — free to discard
            }
            probes += 1;
            if is_alive(entry.id) {
                admit(entry.id);
                report.admitted += 1;
            } else {
                report.dropped += 1;
            }
        }
        report
    }

    fn forget_member(&mut self, id: NodeId) {
        let idx = id.0 as usize;
        if idx < DENSE_ID_LIMIT {
            self.members.remove(idx);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_list_rejects_everything() {
        let mut w = WaitingList::new(0, 4);
        assert!(!w.is_enabled());
        assert!(!w.enqueue(NodeId(0), NodeId(1), 0));
        assert!(w.is_empty());
        assert_eq!(w.drain(0, |_| true, |_| panic!()), WlistReport::default());
    }

    #[test]
    fn enqueue_dedupes_and_skips_owner() {
        let mut w = WaitingList::new(5, 4);
        assert!(!w.enqueue(NodeId(7), NodeId(7), 0), "own ID skipped");
        assert!(w.enqueue(NodeId(7), NodeId(1), 0));
        assert!(!w.enqueue(NodeId(7), NodeId(1), 0), "duplicate collapsed");
        assert_eq!(w.len(), 1);
    }

    #[test]
    fn drain_respects_probe_budget_and_ttl() {
        let mut w = WaitingList::new(2, 3);
        for i in 1..=10u64 {
            w.enqueue(NodeId(0), NodeId(i), 0);
        }
        let mut admitted = Vec::new();
        let r = w.drain(0, |_| true, |id| admitted.push(id));
        assert_eq!(r.admitted, 3, "probe-rate-limited");
        assert_eq!(admitted, vec![NodeId(1), NodeId(2), NodeId(3)]);
        assert_eq!(w.len(), 7);
        // Past the TTL the rest expire without consuming probes.
        let r = w.drain(2, |_| true, |_| panic!("expired entries never admit"));
        assert_eq!(r.dropped, 7);
        assert!(w.is_empty());
    }

    #[test]
    fn drain_drops_unreachable() {
        let mut w = WaitingList::new(5, 4);
        for i in 1..=4u64 {
            w.enqueue(NodeId(0), NodeId(i), 0);
        }
        let r = w.drain(0, |id| id.0 % 2 == 0, |_| {});
        assert_eq!(r.admitted, 2);
        assert_eq!(r.dropped, 2);
    }

    #[test]
    fn purge_removes_pending_entries() {
        let mut w = WaitingList::new(5, 4);
        w.enqueue(NodeId(0), NodeId(1), 0);
        w.enqueue(NodeId(0), NodeId(2), 0);
        assert!(w.purge(NodeId(1)));
        assert!(!w.purge(NodeId(1)));
        assert_eq!(w.len(), 1);
        // A purged ID may be re-queued afterwards (fresh hearsay).
        assert!(w.enqueue(NodeId(0), NodeId(1), 0));
    }

    #[test]
    fn clear_discards_everything() {
        let mut w = WaitingList::new(5, 4);
        for i in 1..=10u64 {
            w.enqueue(NodeId(0), NodeId(i), 0);
        }
        w.clear();
        assert!(w.is_empty());
        assert!(w.enqueue(NodeId(0), NodeId(1), 0), "dedup index cleared");
    }
}
