//! The sequential fold: each round's stat slots become the run's series
//! and counters in node-index order (so every float sum is
//! schedule-independent), the adaptive bandit is rewarded, and the run
//! ends in a [`RunResult`].

use super::arena::{RoundStat, SMOOTHING_WINDOW};
use super::Simulation;
use crate::adversary::AdaptiveCoordinator;
use crate::audit::Challenger;
use crate::metrics::{
    fractional_crossing, series_stability_round, RunResult, SegmentResult, DISCOVERY_TARGET_SHARE,
    STABILITY_SPREAD,
};
use crate::scenario::NetworkModel;

/// The run-long series and counters the fold builds. Fully streaming: no
/// per-node buffer survives a round's fold.
#[derive(Default)]
pub(super) struct RunTally {
    /// Per-round mean Byzantine view share (the pollution curve).
    byz_share_series: Vec<f64>,
    /// Per-round mean discovered fraction.
    mean_discovered_series: Vec<f64>,
    /// Per-segment mean Byzantine-share series.
    seg_series: Vec<Vec<f64>>,
    /// Per-segment mean discovered-fraction series — feeds the
    /// per-segment discovery-round metric.
    seg_discovered_series: Vec<Vec<f64>>,
    /// Non-Byzantine IDs every node must have discovered for the
    /// all-nodes discovery round.
    discovery_target: usize,
    discovery_round: Option<usize>,
    spread_stability_round: Option<usize>,
    /// The last fold's mean smoothed share over participating nodes —
    /// the centre of the spread-stability and recovery bands.
    pub(super) smoothed_mean: f64,
    floods_detected: u64,
    total_evicted: u64,
    seed_rotations: u64,
}

impl RunTally {
    /// An empty tally for `rounds` rounds of a population of `pop`
    /// correct nodes in `segments` segments.
    pub(super) fn new(rounds: usize, segments: usize, pop: usize) -> Self {
        Self {
            byz_share_series: Vec::with_capacity(rounds),
            mean_discovered_series: Vec::with_capacity(rounds),
            seg_series: vec![Vec::with_capacity(rounds); segments],
            seg_discovered_series: vec![Vec::with_capacity(rounds); segments],
            discovery_target: (DISCOVERY_TARGET_SHARE * pop as f64).ceil() as usize,
            ..Self::default()
        }
    }
}

/// `sum / n`, or 0 for an empty sum.
fn mean(sum: f64, n: usize) -> f64 {
    if n == 0 {
        0.0
    } else {
        sum / n as f64
    }
}

/// Mean of the last `tail_window` entries of a share series — the
/// resilience metric.
fn tail_mean(series: &[f64], tail_window: usize) -> f64 {
    let tail = tail_window.min(series.len());
    mean(series[series.len() - tail..].iter().sum::<f64>(), tail)
}

impl Simulation {
    /// Folds the apply phase's per-node stat slots, in node-index order,
    /// into the run counters and series: each segment's mean raw share
    /// and mean discovered fraction, the population's pollution curve,
    /// discovery round, mean-discovery series and the spread-stability
    /// detector. Every float sum accumulates in node-index order — the
    /// addition sequence of the historical per-actor loop.
    pub(super) fn fold_round(&mut self, stats: &[RoundStat]) {
        let (round, t) = (self.round, &mut self.tally);
        let pool = (self.non_byz_total as f64).max(1.0);
        let (mut share_sum, mut smoothed_sum, mut share_n) = (0.0, 0.0, 0usize);
        let (mut disc_sum, mut disc_n, mut all_discovered) = (0usize, 0usize, true);
        for (si, seg) in self.segs.iter().enumerate() {
            let (mut seg_sum, mut seg_n, mut seg_disc, mut seg_disc_n) = (0.0, 0, 0, 0);
            for stat in stats[seg.range()].iter().filter(|st| st.participated) {
                t.total_evicted += u64::from(stat.evicted);
                t.floods_detected += u64::from(stat.flood);
                t.seed_rotations += u64::from(stat.rotated);
                all_discovered &= stat.discovered as usize >= t.discovery_target;
                seg_disc += stat.discovered as usize;
                seg_disc_n += 1;
                if stat.has_share {
                    smoothed_sum += stat.smoothed;
                    share_sum += stat.share;
                    seg_sum += stat.share;
                    seg_n += 1;
                }
            }
            (share_n, disc_sum, disc_n) =
                (share_n + seg_n, disc_sum + seg_disc, disc_n + seg_disc_n);
            t.seg_series[si].push(mean(seg_sum, seg_n));
            t.seg_discovered_series[si].push(mean(seg_disc as f64, seg_disc_n) / pool);
        }
        t.byz_share_series.push(mean(share_sum, share_n));
        if t.discovery_round.is_none() && all_discovered {
            t.discovery_round = Some(round);
        }
        if disc_n > 0 {
            t.mean_discovered_series
                .push(disc_sum as f64 / disc_n as f64 / pool);
        }
        // Spread stability (the paper's criterion): every non-Byzantine
        // node's pollution within STABILITY_SPREAD of the average. Each
        // node's share is smoothed over SMOOTHING_WINDOW rounds first —
        // at reduced view sizes a single view entry moves the raw share
        // by 5-10 points of pure quantisation noise, which would make the
        // criterion unreachable regardless of convergence. The smoothed
        // criterion stays gated by laggard nodes, like the original.
        t.smoothed_mean = mean(smoothed_sum, share_n);
        if t.spread_stability_round.is_none()
            && round + 1 >= SMOOTHING_WINDOW
            && share_n > 0
            && stats
                .iter()
                .filter(|st| st.participated && st.has_share)
                .all(|st| (st.smoothed - t.smoothed_mean).abs() <= STABILITY_SPREAD)
        {
            t.spread_stability_round = Some(round);
        }
    }

    /// Feeds the adaptive bandit the observed pollution yield of the arm
    /// it played this round: the mean Byzantine view share over the
    /// attacked segment. No-op when the adversary is static.
    pub(super) fn bandit_reward(&mut self, stats: &[RoundStat], arm: Option<usize>) {
        let (Some(bandit), Some(arm)) = (self.bandit.as_mut(), arm) else {
            return;
        };
        let seg = &self.segs[AdaptiveCoordinator::play(arm).0];
        let (mut sum, mut count) = (0.0, 0);
        for st in &stats[seg.range()] {
            if st.participated && st.has_share {
                sum += st.share;
                count += 1;
            }
        }
        bandit.reward(arm, mean(sum, count));
    }

    pub(super) fn into_result(self) -> RunResult {
        let (t, tail) = (self.tally, self.scenario.tail_window);
        let resilience = tail_mean(&t.byz_share_series, tail);
        let stability_round = t
            .spread_stability_round
            .or_else(|| series_stability_round(&t.byz_share_series, resilience));
        let mean_discovery_round =
            fractional_crossing(&t.mean_discovered_series, DISCOVERY_TARGET_SHARE);
        // Per-segment pollution, discovery and stability: one entry per
        // population segment, from the per-segment series.
        let mut segments: Vec<SegmentResult> = self
            .segs
            .iter()
            .zip(t.seg_series)
            .zip(&t.seg_discovered_series)
            .map(|((seg, series), disc_series)| {
                let seg_resilience = tail_mean(&series, tail);
                SegmentResult {
                    protocol: seg.protocol,
                    nodes: seg.len,
                    resilience: seg_resilience,
                    mean_discovery_round: fractional_crossing(disc_series, DISCOVERY_TARGET_SHARE),
                    stability_round: series_stability_round(&series, seg_resilience),
                    byz_share_series: series,
                }
            })
            .collect();
        // A lone segment *is* the population, so however it was spelled
        // it reports the combined metrics: the spread criterion before
        // the series-only stability fallback, and a discovery series
        // that skips rounds nobody took part in. (Its share series and
        // resilience already equal the combined ones bit for bit — same
        // additions in the same order.)
        if let [only] = &mut segments[..] {
            only.mean_discovery_round = mean_discovery_round;
            only.stability_round = stability_round;
        }
        // The two reporting rules of the one net: an event run measures
        // ticks and reports its counters (`finish` counts the messages
        // still in flight); a round run counts one tick per round and
        // reports none.
        let (virtual_ticks, net) = match self.scenario.network {
            NetworkModel::Rounds => (self.round as u64, None),
            NetworkModel::Events(_) => (
                self.round as u64 * self.net.round_ticks(),
                Some(self.net.finish()),
            ),
        };
        RunResult {
            resilience,
            discovery_round: t.discovery_round,
            mean_discovery_round,
            stability_round,
            spread_stability_round: t.spread_stability_round,
            byz_share_series: t.byz_share_series,
            identification: self.best_identification,
            rounds: self.round,
            floods_detected: t.floods_detected,
            total_evicted: t.total_evicted,
            seed_rotations: t.seed_rotations,
            segments,
            virtual_ticks,
            net,
            // Recovery and audit stats exist only when their subsystem
            // ran — `None` otherwise, so all-off results compare (and
            // hash) unchanged.
            recovery: self.recovery.map(|rec| rec.into_stats()),
            audit: self.audit.map(Challenger::into_stats),
        }
    }
}
