//! The round's flat storage: per-simulation scratch arenas, per-worker
//! arenas, the block handles the parallel phases shard over, and the
//! index helpers every phase shares. Nothing here decides protocol
//! behaviour; it only holds what the phases write and read.

use super::population::Node;
use crate::adversary::PushPlan;
use crate::bitset::DiscoveryRows;
use raptee_brahms::FinishScratch;
use raptee_net::{NodeId, NodeIdx, RoundPlan};
use raptee_util::rng::Xoshiro256StarStar;

/// Rounds of per-node share smoothing for the spread-stability check.
pub(super) const SMOOTHING_WINDOW: usize = 10;

/// Consecutive population indices one block handle covers in the
/// parallel phases: a worker claims a block from the cursor and walks
/// its rows in index order. Large enough that a round builds a few
/// thousand handles at N = 150,000 rather than one per node, small
/// enough that two workers stay balanced at N = 4,500.
pub(super) const BLOCK: usize = 64;

/// One deferred pull answer, recorded by the sequential exchange pass
/// and read in place by the parallel apply phase: each event is one
/// [`Segment`](raptee_brahms::Segment) of its requester's pulled
/// stream.
pub(super) enum PullEvent {
    /// The responder's view had not mutated yet at pull time: the answer
    /// is the responder's row of the post-plan view-snapshot arena.
    Snapshot {
        /// Dense population index of the responder.
        responder: u32,
    },
    /// The responder's view had already mutated (trusted swap or churn
    /// removal): the answer was copied into the answer arena.
    Arena {
        /// Start offset in the answer arena.
        start: u32,
        /// Number of IDs.
        len: u32,
    },
    /// A Byzantine answer: regenerated from a snapshot of the
    /// adversary's RNG (see
    /// [`Adversary::replay_pull_answer`](crate::adversary::Adversary::replay_pull_answer)),
    /// kept beside the events so each event stays 12 bytes — and only
    /// as far as a renewal pick reads into it, or whole while the
    /// requester's seen-cache may lack one of its IDs.
    ByzReplay {
        /// Index into `Scratch::byz_rngs` of the coordinator RNG state
        /// just before the answer was drawn.
        slot: u32,
    },
}

/// Per-node round outcome slot, written by the parallel apply phase and
/// folded sequentially in node-index order.
#[derive(Debug, Clone, Default)]
pub(super) struct RoundStat {
    /// Whether the node was alive and finalised this round.
    pub(super) participated: bool,
    /// IDs evicted by the Byzantine-eviction filter (RAPTEE).
    pub(super) evicted: u32,
    /// Whether the push-flood detector fired (Brahms/RAPTEE).
    pub(super) flood: bool,
    /// Seed rotations performed (BASALT).
    pub(super) rotated: u32,
    /// Whether the view was non-empty (a pollution share exists).
    pub(super) has_share: bool,
    /// This round's raw Byzantine view share.
    pub(super) share: f64,
    /// The share smoothed over [`SMOOTHING_WINDOW`] rounds.
    pub(super) smoothed: f64,
    /// Discovery-bitset population after this round's observation.
    pub(super) discovered: u32,
}

/// The per-node share-smoothing windows in struct-of-arrays form: one
/// flat ring-buffer arena (stride [`SMOOTHING_WINDOW`]) instead of
/// 10,000 tiny `Vec<f64>`s. Ring iteration order is oldest→newest, so
/// the smoothed mean sums in exactly the order the historical
/// `Vec::push`/`remove(0)` window did.
pub(super) struct ShareRings {
    buf: Vec<f64>,
    start: Vec<u8>,
    len: Vec<u8>,
}

/// Exclusive access to [`BLOCK`] consecutive nodes' smoothing windows.
pub(super) struct ShareRingBlock<'a> {
    buf: &'a mut [f64],
    start: &'a mut [u8],
    len: &'a mut [u8],
}

impl ShareRings {
    pub(super) fn new(rows: usize) -> Self {
        Self {
            buf: vec![0.0; rows * SMOOTHING_WINDOW],
            start: vec![0; rows],
            len: vec![0; rows],
        }
    }

    /// Splits into disjoint [`BLOCK`]-row handles, in row order.
    pub(super) fn blocks_mut(&mut self) -> impl ExactSizeIterator<Item = ShareRingBlock<'_>> {
        self.buf
            .chunks_mut(BLOCK * SMOOTHING_WINDOW)
            .zip(self.start.chunks_mut(BLOCK))
            .zip(self.len.chunks_mut(BLOCK))
            .map(|((buf, start), len)| ShareRingBlock { buf, start, len })
    }
}

impl ShareRingBlock<'_> {
    /// Appends this round's share to the block's `k`-th window (evicting
    /// the oldest entry once the window is full) and returns the window
    /// mean, summed oldest-first — bit-identical to the historical
    /// `Vec<f64>` window.
    pub(super) fn push_and_mean(&mut self, k: usize, share: f64) -> f64 {
        let w = SMOOTHING_WINDOW;
        let buf = &mut self.buf[k * w..(k + 1) * w];
        let (start, len) = (&mut self.start[k], &mut self.len[k]);
        if usize::from(*len) == w {
            buf[usize::from(*start)] = share;
            *start = ((usize::from(*start) + 1) % w) as u8;
        } else {
            buf[(usize::from(*start) + usize::from(*len)) % w] = share;
            *len += 1;
        }
        let len = usize::from(*len);
        let mut sum = 0.0;
        for j in 0..len {
            sum += buf[(usize::from(*start) + j) % w];
        }
        sum / len as f64
    }
}

/// Per-worker arenas for the parallel apply phase: every buffer a
/// node-finalisation needs is owned by the worker (not the node), so
/// peak memory scales with the thread count instead of the population.
/// A node's untrusted pull stream is not among them: it is read where
/// the exchange pass left it (see [`PullEvent`]).
#[derive(Default)]
pub(super) struct WorkerScratch {
    /// Reconstructed push-sender stream (self-filtered).
    pub(super) pushed: Vec<NodeId>,
    /// The untrusted pull stream of a node that does not read it in
    /// place (see `RapteeNode::finish_round_streamed`), flattened.
    pub(super) flat: Vec<NodeId>,
    /// Brahms finalisation scratch (renewal draws, and the buffers the
    /// pulled stream is read and Byzantine answers are drawn with).
    pub(super) finish: FinishScratch,
    /// The plan a node draws into before it is copied to the plan rows.
    pub(super) plan: RoundPlan,
}

/// One fixed-stride row of dense IDs per population index plus each
/// row's occupied length: a round's push targets and pull targets
/// (stride: the largest fanout in play — every family plans at most its
/// fanout of pushes and as many pulls: α = β for the Brahms family, one
/// `fanout` for the ranked ones) and its post-plan view snapshots
/// (stride: `view_size`).
#[derive(Default)]
pub(super) struct IdRows {
    stride: usize,
    ids: Vec<NodeIdx>,
    len: Vec<u32>,
}

/// Exclusive access to [`BLOCK`] consecutive rows of an [`IdRows`].
pub(super) struct IdBlock<'a> {
    stride: usize,
    ids: &'a mut [NodeIdx],
    len: &'a mut [u32],
}

impl IdRows {
    fn resize(&mut self, rows: usize, stride: usize) {
        self.stride = stride;
        self.ids.resize(rows * stride, NodeIdx(0));
        self.len.resize(rows, 0);
    }

    /// Row `ci`'s IDs.
    #[inline]
    pub(super) fn row(&self, ci: usize) -> &[NodeIdx] {
        &self.ids[ci * self.stride..][..self.len[ci] as usize]
    }

    /// Disjoint [`BLOCK`]-row handles, in population-index order.
    pub(super) fn blocks_mut(&mut self) -> impl ExactSizeIterator<Item = IdBlock<'_>> {
        let stride = self.stride;
        self.ids
            .chunks_mut(BLOCK * stride)
            .zip(self.len.chunks_mut(BLOCK))
            .map(move |(ids, len)| IdBlock { stride, ids, len })
    }
}

impl IdBlock<'_> {
    /// Stores `ids` as the block's `k`-th row.
    ///
    /// # Panics
    ///
    /// Panics when `ids` is longer than the stride.
    #[inline]
    pub(super) fn store(&mut self, k: usize, ids: impl ExactSizeIterator<Item = NodeId>) {
        let len = ids.len();
        let row = &mut self.ids[k * self.stride..(k + 1) * self.stride];
        for (slot, id) in row[..len].iter_mut().zip(ids) {
            *slot = NodeIdx::of(id);
        }
        self.len[k] = len as u32;
    }
}

/// One lane of a round's pushes — the honest ones or the adversary's:
/// the survivors of the limiter, liveness, loss and the net as
/// `(receiver, advertised)` pairs (dense [`NodeIdx`]es, halving the pair
/// width at paper scale+), then counting-sorted by receiver so the
/// phases read per-receiver runs instead of per-message dispatch.
#[derive(Default)]
pub(super) struct PushLane {
    /// This round's survivors in arrival order: due late pushes first,
    /// then the lane's own.
    pub(super) survivors: Vec<(u32, NodeIdx)>,
    /// The advertised IDs of `survivors`, in receiver order.
    sorted: Vec<NodeIdx>,
    /// After [`PushLane::sort`], `counts[t]` is the *end* of receiver
    /// `t`'s run in `sorted` (its start is `counts[t-1]`, `0` for `t = 0`).
    counts: Vec<u32>,
}

impl PushLane {
    /// Stable counting sort of the survivors by receiver over the
    /// universe `0..total`, keeping only the advertised IDs. Stability
    /// preserves each receiver's arrival order, so streaming over the
    /// runs is observationally identical to per-message dispatch.
    pub(super) fn sort(&mut self, total: usize) {
        let counts = &mut self.counts;
        counts.clear();
        counts.resize(total + 1, 0);
        for &(t, _) in &self.survivors {
            counts[t as usize + 1] += 1;
        }
        for i in 1..counts.len() {
            counts[i] += counts[i - 1];
        }
        self.sorted.clear();
        self.sorted.resize(self.survivors.len(), NodeIdx(0));
        for &(t, advertised) in &self.survivors {
            let pos = &mut counts[t as usize];
            self.sorted[*pos as usize] = advertised;
            *pos += 1;
        }
    }

    /// Receiver `t`'s run after [`PushLane::sort`], as the advertised
    /// wire identities in arrival order.
    #[inline]
    pub(super) fn run(&self, t: usize) -> impl Iterator<Item = NodeId> + '_ {
        let start = t
            .checked_sub(1)
            .map_or(0, |prev| self.counts[prev] as usize);
        self.sorted[start..self.counts[t] as usize]
            .iter()
            .map(|&advertised| advertised.id())
    }
}

/// Per-simulation scratch arenas: every buffer the round loop needs is
/// allocated once and reused for all rounds, so the steady-state hot
/// path is allocation-free. Taken out of the
/// [`Simulation`](super::Simulation) at the top of each round (so
/// `&mut self` methods stay callable) and put back at the end.
#[derive(Default)]
pub(super) struct Scratch {
    /// Both families' push targets (see [`IdRows`]).
    pub(super) pushes: IdRows,
    /// Both families' pull targets.
    pub(super) pulls: IdRows,
    /// Post-plan view snapshots of the Brahms-family nodes, one
    /// `view_size`-stride row per population index.
    pub(super) snaps: IdRows,
    /// Whether population index `ci` produced a plan this round.
    pub(super) live: Vec<bool>,
    /// The adversary's push plan for the segment being attacked.
    pub(super) byz_plan: PushPlan,
    /// Each segment's share of the adversary's push budget this round.
    pub(super) byz_budgets: Vec<usize>,
    /// Honest pushes surviving limiter, liveness, loss and the net, in
    /// sender-major order.
    pub(super) honest: PushLane,
    /// Adversary pushes surviving the same filters, in plan order.
    pub(super) byz: PushLane,
    /// Reusable sequential-phase answer buffer (ranked-family pulls,
    /// trusted ablation answers, Byzantine answers held by the event
    /// network).
    pub(super) reply: Vec<NodeId>,
    /// Reusable observation-target buffer (identification attack).
    pub(super) observed: Vec<NodeId>,
    /// Deferred pull answers, requester-major.
    pub(super) events: Vec<PullEvent>,
    /// The adversary-RNG snapshots `PullEvent::ByzReplay` events name.
    pub(super) byz_rngs: Vec<Xoshiro256StarStar>,
    /// Event range per population index (`events[start[ci]..start[ci+1]]`).
    pub(super) event_start: Vec<u32>,
    /// Materialised answers for responders whose view had already
    /// mutated at pull time, as dense indices.
    pub(super) arena: Vec<NodeIdx>,
    /// Whether a node's view has mutated during the current exchange
    /// phase (trusted swap or churn removal) — after the first mutation,
    /// answers from it must be materialised instead of snapshot-deferred.
    pub(super) view_mutated: Vec<bool>,
    /// Per-node round outcomes, folded sequentially after the apply
    /// phase.
    pub(super) stats: Vec<RoundStat>,
}

impl Scratch {
    /// Sizes the per-node arrays once (no-op afterwards).
    pub(super) fn ensure_capacity(&mut self, pop: usize, plan_stride: usize, view_size: usize) {
        if self.live.len() != pop {
            self.pushes.resize(pop, plan_stride);
            self.pulls.resize(pop, plan_stride);
            self.snaps.resize(pop, view_size);
            self.live.resize(pop, false);
            self.view_mutated.resize(pop, false);
            self.stats.resize_with(pop, RoundStat::default);
            self.event_start.resize(pop + 1, 0);
        }
    }
}

/// [`BLOCK`] consecutive nodes' state in the parallel plan phase: the
/// `chunks_mut` of every per-node array the phase writes. The
/// view-snapshot rows and mutation flags serve Brahms-family nodes,
/// whose untrusted answers are deferred by reference to the snapshot.
pub(super) struct PlanBlock<'a> {
    pub(super) nodes: &'a mut [Node],
    pub(super) pushes: IdBlock<'a>,
    pub(super) pulls: IdBlock<'a>,
    pub(super) snaps: IdBlock<'a>,
    pub(super) live: &'a mut [bool],
    pub(super) mutated: &'a mut [bool],
}

/// [`BLOCK`] consecutive nodes' state in the parallel apply phase.
pub(super) struct FinishBlock<'a> {
    pub(super) nodes: &'a mut [Node],
    pub(super) stats: &'a mut [RoundStat],
    pub(super) disc: DiscoveryRows<'a>,
    pub(super) rings: ShareRingBlock<'a>,
}

/// Split-borrows two distinct population entries.
pub(super) fn two_nodes<N>(nodes: &mut [N], a: usize, b: usize) -> (&mut N, &mut N) {
    assert_ne!(a, b, "cannot borrow the same node twice");
    let (x, y, swapped) = if a < b { (a, b, false) } else { (b, a, true) };
    let (lo, hi) = nodes.split_at_mut(y);
    if swapped {
        (&mut hi[0], &mut lo[x])
    } else {
        (&mut lo[x], &mut hi[0])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bitset::Discovery;

    /// Population sizes at the block edges: one node, either side of one
    /// full block, and a ragged last block.
    const EDGES: [usize; 5] = [1, BLOCK - 1, BLOCK, BLOCK + 1, 3 * BLOCK + 7];

    #[test]
    fn share_ring_blocks_hand_out_every_row_once_in_order() {
        for pop in EDGES {
            let mut rings = ShareRings::new(pop);
            let mut next = 0;
            for (bi, mut block) in rings.blocks_mut().enumerate() {
                let rows = block.start.len();
                assert_eq!(rows, BLOCK.min(pop - bi * BLOCK), "N = {pop}");
                for k in 0..rows {
                    assert_eq!(bi * BLOCK + k, next, "N = {pop}: rows in order");
                    let share = next as f64;
                    assert_eq!(block.push_and_mean(k, share), share, "row {next}");
                    next += 1;
                }
            }
            assert_eq!(next, pop);
            assert_eq!(rings.len, vec![1; pop], "N = {pop}: each row once");
            for ci in 0..pop {
                assert_eq!(rings.buf[ci * SMOOTHING_WINDOW], ci as f64);
            }
        }
    }

    #[test]
    fn plan_blocks_hand_out_every_row_once_in_order() {
        // A plan stride and a snapshot stride; row `ci` holds
        // `ci % (stride + 1)` IDs, so rows run from empty to full.
        for stride in [3, 16] {
            for pop in EDGES {
                let mut rows = IdRows::default();
                rows.resize(pop, stride);
                let ids = |ci: usize| (0..ci % (stride + 1)).map(move |j| NodeId((ci + j) as u64));
                let mut next = 0;
                for (bi, mut block) in rows.blocks_mut().enumerate() {
                    let len = block.len.len();
                    assert_eq!(len, BLOCK.min(pop - bi * BLOCK), "N = {pop}");
                    for k in 0..len {
                        assert_eq!(bi * BLOCK + k, next, "N = {pop}: rows in order");
                        block.store(k, ids(next));
                        next += 1;
                    }
                }
                assert_eq!(next, pop);
                for ci in 0..pop {
                    let want: Vec<NodeIdx> = ids(ci).map(NodeIdx::of).collect();
                    assert_eq!(rows.row(ci), &want[..], "stride {stride}, row {ci}");
                }
                if pop > stride {
                    assert!(rows.row(0).is_empty() && rows.row(stride).len() == stride);
                }
            }
        }
    }

    #[test]
    fn push_lane_runs_keep_each_receivers_arrival_order() {
        let total = 6;
        let runs = |lane: &PushLane| -> Vec<Vec<u64>> {
            (0..total)
                .map(|t| lane.run(t).map(|id| id.0).collect())
                .collect()
        };
        let mut lane = PushLane::default();
        lane.sort(total);
        assert_eq!(runs(&lane), vec![Vec::<u64>::new(); total], "empty lane");
        // Receivers 0 and `total - 1` at the universe's edges, receiver 3
        // fed in descending ID order, and 1, 2 and 4 fed nothing.
        lane.survivors = vec![
            (5, NodeIdx(40)),
            (0, NodeIdx(10)),
            (3, NodeIdx(31)),
            (0, NodeIdx(11)),
            (5, NodeIdx(41)),
            (3, NodeIdx(30)),
            (0, NodeIdx(12)),
        ];
        lane.sort(total);
        let want: Vec<Vec<u64>> = vec![
            vec![10, 11, 12],
            vec![],
            vec![],
            vec![31, 30],
            vec![],
            vec![40, 41],
        ];
        assert_eq!(runs(&lane), want, "stable: arrival order per receiver");
        // The next round's sort replaces every run.
        lane.survivors = vec![(2, NodeIdx(7))];
        lane.sort(total);
        let want: Vec<Vec<u64>> = vec![vec![], vec![], vec![7], vec![], vec![], vec![]];
        assert_eq!(runs(&lane), want);
    }

    #[test]
    fn every_block_splitter_knows_its_block_count_up_front() {
        // `collect`ing a phase's handles allocates exactly once only if
        // the splitter reports its length before it is consumed.
        for pop in [0].into_iter().chain(EDGES) {
            let blocks = pop.div_ceil(BLOCK);
            let mut ids = IdRows::default();
            ids.resize(pop, 3);
            assert_eq!(ids.blocks_mut().len(), blocks, "IdRows, N = {pop}");
            let mut rings = ShareRings::new(pop);
            assert_eq!(rings.blocks_mut().len(), blocks, "ShareRings, N = {pop}");
            for sketch in [false, true] {
                let mut d = Discovery::new(pop, pop + 1, sketch);
                for start in [0, pop / 2] {
                    let it = d.blocks_mut(start..pop, BLOCK);
                    let want = (pop - start).div_ceil(BLOCK);
                    assert_eq!(it.len(), want, "sketch {sketch}, rows {start}..{pop}");
                    assert_eq!(it.count(), want, "sketch {sketch}, rows {start}..{pop}");
                }
            }
        }
    }
}
