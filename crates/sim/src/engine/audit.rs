//! The audit pass: view commitments, beacon-drawn challenges, verdicts,
//! and the purge of convicted identities from every honest view.

use super::population::Node;
use super::Simulation;
use crate::audit::{AuditResponse, Verdict};
use raptee_net::NodeId;

impl Simulation {
    /// The audit pass of one round: every live effective-trusted node
    /// commits its view onto its chain, the challenger draws its
    /// beacon targets and audits each, convictions are purged from all
    /// honest views, and standing suspicions decay. A strict no-op —
    /// zero beacon draws, zero state — when `Scenario::audit` is off.
    pub(super) fn audit_round(&mut self) {
        let Some(mut aud) = self.audit.take() else {
            return;
        };
        let round = self.round as u32;
        let total = self.total_actors();
        // Commit phase: commitments ride the attested exchange path, so
        // a dead node or a degraded (expired) certificate suspends them.
        let mut view_buf: Vec<NodeId> = Vec::new();
        for abs in self.byz_count..total {
            if self.alive[abs] && self.effective_trusted(abs) {
                self.view_ids_into(abs, &mut view_buf);
                aud.commit_view(round, abs, &view_buf);
            }
        }
        // Challenge phase: beacon-drawn targets answer — or fail to.
        let mut targets = Vec::new();
        aud.draw_targets(total, &mut targets);
        let mut convicted: Vec<usize> = Vec::new();
        for t in targets {
            // The challenger observes from the high end of the index
            // space; a partition window separating it from the target
            // makes the opening undeliverable (a pure schedule lookup —
            // no latency or loss draws are consumed).
            let partitioned = self.net.separated(self.round, t, total - 1);
            let response = if t < self.byz_count {
                // Byzantine responders answer, but recorded traffic and
                // chained commitment cannot both hold — the replay
                // exposes the equivocation.
                AuditResponse::Equivocation
            } else if !self.alive[t]
                || partitioned
                || (self.trusted[t] && !self.effective_trusted(t))
            {
                // Dead, churned-out or partitioned targets cannot
                // answer; an expired certificate makes the commitment
                // inadmissible (`raptee_tee::Certificate::valid_at`).
                AuditResponse::Unavailable
            } else {
                self.view_ids_into(t, &mut view_buf);
                AuditResponse::Opening { view: &view_buf }
            };
            if aud.audit(round, t, response) == Verdict::Convicted {
                convicted.push(t);
            }
        }
        if !convicted.is_empty() {
            self.purge_quarantined(&convicted);
        }
        aud.end_round(round);
        self.audit = Some(aud);
    }

    /// Copies the current view of correct actor `abs` into `out` (slot
    /// order — the leaf order of its merkle commitment).
    fn view_ids_into(&self, abs: usize, out: &mut Vec<NodeId>) {
        out.clear();
        // `extend` sizes the round's reused buffer to a view at once.
        match &self.nodes[abs - self.byz_count] {
            Node::Raptee(node) => out.extend(node.brahms().view().ids()),
            node => node.for_each_view_id(|id| out.push(id)),
        }
    }

    /// Conviction-time purge: every honest node drops the freshly
    /// convicted identities from its view, waiting list and trusted
    /// directory, and so does the proactive trusted directory. The
    /// pull-path blacklist keeps re-learned entries out afterwards.
    fn purge_quarantined(&mut self, convicted: &[usize]) {
        for node in &mut self.nodes {
            for &c in convicted {
                node.drop_peer(NodeId(c as u64), true);
            }
        }
        self.trusted_dir
            .retain(|&a| !convicted.contains(&(a as usize)));
    }
}
