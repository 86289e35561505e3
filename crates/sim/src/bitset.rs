//! Discovery tracking: exact bitsets below a node-count threshold, HLL
//! sketches above it.
//!
//! The bitset implementation lives in [`raptee_util::bitset`] so the view
//! structures in `raptee-gossip`/`raptee-basalt` can share it without a
//! dependency cycle; this module re-exports it for source compatibility.
//!
//! Every non-Byzantine node tracks which non-Byzantine IDs it has learned
//! so far (system-discovery metric). At the paper's scale that is
//! 10,000 × 10,000 bits ≈ 12 MB total — cheap as bitsets, prohibitive as
//! hash sets. At a million nodes the same matrix is ~125 GB, which is
//! why [`Discovery`] switches to per-node HyperLogLog sketches
//! ([`raptee_util::hll`], 256 bytes/node ≈ 256 MB total) above
//! [`EXACT_DISCOVERY_THRESHOLD`] actors: the *estimated* distinct count
//! replaces the exact one, trading a stated ~6.5 % relative error for
//! O(N) memory. Below the threshold the exact matrix runs the identical
//! pre-existing code path, so every golden fingerprint is byte-for-byte
//! unchanged.

use raptee_util::hll;
use std::ops::Range;

/// Actor-count bound (inclusive) under which discovery defaults to the
/// exact bitset matrix. 16,384 keeps every committed scenario — tiny
/// through paper scale (10,000 nodes) — on the exact path, while the
/// 100,000-node smoke and million-node profiles default to sketches.
pub(crate) const EXACT_DISCOVERY_THRESHOLD: usize = 1 << 14;

/// The discovery matrix in struct-of-arrays form: one flat word arena
/// holding every tracked node's discovery bitset as a fixed-stride row,
/// plus one popcount per row. Replaces the former
/// `Vec<Option<BitSet>>` (10,000 separately boxed bitsets at paper
/// scale) with two allocations, and hands out disjoint blocks of rows
/// so the parallel phases can update discovery sharded by node.
#[derive(Debug, Clone)]
pub struct DiscoveryMatrix {
    words: Vec<u64>,
    counts: Vec<u32>,
    stride: usize,
    universe: usize,
}

/// Exclusive access to one row of a [`DiscoveryMatrix`] — safe to use
/// from a worker thread while other workers hold other rows.
#[derive(Debug)]
pub(crate) struct DiscoveryRow<'a> {
    words: &'a mut [u64],
    count: &'a mut u32,
    universe: usize,
}

impl DiscoveryMatrix {
    /// Creates `rows` empty bitsets over the universe `0..universe`.
    pub(crate) fn new(rows: usize, universe: usize) -> Self {
        let stride = universe.div_ceil(64);
        Self {
            words: vec![0; rows * stride],
            counts: vec![0; rows],
            stride,
            universe,
        }
    }

    /// Inserts `idx` into `row`; returns `true` if it was newly set.
    ///
    /// # Panics
    ///
    /// Panics when `row` or `idx` is out of range.
    #[inline]
    pub(crate) fn insert(&mut self, row: usize, idx: usize) -> bool {
        // Unreachable from the engine: `Simulation::new` seeds only
        // bootstrap IDs, which are actors, and `note_discovered` checks
        // `id < total_actors()`, the universe.
        assert!(idx < self.universe, "discovery index {idx} out of range");
        let word = &mut self.words[row * self.stride + idx / 64];
        let mask = 1u64 << (idx % 64);
        if *word & mask == 0 {
            *word |= mask;
            self.counts[row] += 1;
            true
        } else {
            false
        }
    }

    /// Number of set bits in `row` (maintained incrementally — O(1)).
    #[inline]
    pub(crate) fn count(&self, row: usize) -> usize {
        self.counts[row] as usize
    }

    /// Splits the rows `rows` into disjoint handles of `block`
    /// consecutive rows each (the last may hold fewer), in row order —
    /// the shape a parallel phase hands its workers.
    ///
    /// # Panics
    ///
    /// Panics when `rows` reaches past the last row or `block` is zero.
    pub(crate) fn blocks_mut(
        &mut self,
        rows: Range<usize>,
        block: usize,
    ) -> impl ExactSizeIterator<Item = ExactBlock<'_>> {
        let (stride, universe) = (self.stride, self.universe);
        self.words[rows.start * stride..rows.end * stride]
            .chunks_mut(block * stride.max(1))
            .zip(self.counts[rows].chunks_mut(block))
            .map(move |(words, counts)| ExactBlock {
                words,
                counts,
                stride,
                universe,
            })
    }
}

/// Exclusive access to a run of consecutive rows of a
/// [`DiscoveryMatrix`] (see [`DiscoveryMatrix::blocks_mut`]).
#[derive(Debug)]
pub(crate) struct ExactBlock<'a> {
    words: &'a mut [u64],
    counts: &'a mut [u32],
    stride: usize,
    universe: usize,
}

impl ExactBlock<'_> {
    /// The block's `k`-th row.
    #[inline]
    pub(crate) fn row(&mut self, k: usize) -> DiscoveryRow<'_> {
        DiscoveryRow {
            words: &mut self.words[k * self.stride..(k + 1) * self.stride],
            count: &mut self.counts[k],
            universe: self.universe,
        }
    }
}

impl DiscoveryRow<'_> {
    /// Inserts `idx`; returns `true` if it was newly set.
    ///
    /// # Panics
    ///
    /// Panics when `idx` is outside the universe.
    #[inline]
    pub(crate) fn insert(&mut self, idx: usize) -> bool {
        // Unreachable from the engine: the apply phase's `ViewTally::see`
        // and the ranked push ranking insert only IDs below
        // `total_actors()`, the universe.
        assert!(idx < self.universe, "discovery index {idx} out of range");
        let word = &mut self.words[idx / 64];
        let mask = 1u64 << (idx % 64);
        if *word & mask == 0 {
            *word |= mask;
            *self.count += 1;
            true
        } else {
            false
        }
    }

    /// Number of set bits in this row (O(1)).
    #[inline]
    pub(crate) fn count(&self) -> usize {
        *self.count as usize
    }
}

/// The sketch-mode counterpart of [`DiscoveryMatrix`]: one flat register
/// arena holding a [`hll::REGISTERS`]-byte HyperLogLog per row.
/// Identical access shape — `insert`/`count` by row, plus disjoint
/// per-row handles for the phase-parallel fold — but
/// [`SketchMatrix::count`] is an *estimate* (~6.5 % relative standard
/// error) and memory is O(rows) instead of O(rows × universe).
#[derive(Debug, Clone)]
pub struct SketchMatrix {
    regs: Vec<u8>,
    universe: usize,
}

/// Exclusive access to one row of a [`SketchMatrix`].
#[derive(Debug)]
pub(crate) struct SketchRow<'a> {
    regs: &'a mut [u8; hll::REGISTERS],
    universe: usize,
}

impl SketchMatrix {
    /// Creates `rows` empty sketches over the universe `0..universe`
    /// (the universe bound is kept only for insert-range parity with the
    /// exact matrix).
    pub(crate) fn new(rows: usize, universe: usize) -> Self {
        Self {
            regs: vec![0; rows * hll::REGISTERS],
            universe,
        }
    }

    /// Every row's sketch, in row order.
    fn sketches_mut(&mut self) -> &mut [[u8; hll::REGISTERS]] {
        self.regs.as_chunks_mut().0
    }

    /// Folds `idx` into `row`'s sketch; returns `true` when the sketch
    /// changed (unlike the exact matrix, a `false` does *not* prove the
    /// index was seen before — only that it left no new evidence).
    ///
    /// # Panics
    ///
    /// Panics when `row` or `idx` is out of range.
    #[inline]
    pub(crate) fn insert(&mut self, row: usize, idx: usize) -> bool {
        // Unreachable from the engine, by the checks named at
        // `DiscoveryMatrix::insert`.
        assert!(idx < self.universe, "discovery index {idx} out of range");
        hll::update(&mut self.sketches_mut()[row], idx as u64)
    }

    /// Estimated number of distinct indices folded into `row`, rounded
    /// to the nearest integer.
    #[inline]
    pub(crate) fn count(&self, row: usize) -> usize {
        hll::estimate(&self.regs.as_chunks().0[row]).round() as usize
    }

    /// Splits the rows `rows` into disjoint handles of `block`
    /// consecutive rows each (the last may hold fewer), in row order.
    ///
    /// # Panics
    ///
    /// Panics when `rows` reaches past the last row or `block` is zero.
    pub(crate) fn blocks_mut(
        &mut self,
        rows: Range<usize>,
        block: usize,
    ) -> impl ExactSizeIterator<Item = SketchBlock<'_>> {
        let universe = self.universe;
        self.sketches_mut()[rows]
            .chunks_mut(block)
            .map(move |regs| SketchBlock { regs, universe })
    }
}

/// Exclusive access to a run of consecutive rows of a [`SketchMatrix`]
/// (see [`SketchMatrix::blocks_mut`]).
#[derive(Debug)]
pub(crate) struct SketchBlock<'a> {
    regs: &'a mut [[u8; hll::REGISTERS]],
    universe: usize,
}

impl SketchBlock<'_> {
    /// The block's `k`-th row.
    #[inline]
    pub(crate) fn row(&mut self, k: usize) -> SketchRow<'_> {
        SketchRow {
            regs: &mut self.regs[k],
            universe: self.universe,
        }
    }
}

impl SketchRow<'_> {
    /// Folds `idx` into this row's sketch; returns `true` when a
    /// register grew.
    ///
    /// # Panics
    ///
    /// Panics when `idx` is outside the universe.
    #[inline]
    pub(crate) fn insert(&mut self, idx: usize) -> bool {
        // Unreachable from the engine, by the checks named at
        // `DiscoveryRow::insert`.
        assert!(idx < self.universe, "discovery index {idx} out of range");
        hll::update(self.regs, idx as u64)
    }

    /// Estimated distinct count of this row, rounded.
    #[inline]
    pub(crate) fn count(&self) -> usize {
        hll::estimate(self.regs).round() as usize
    }
}

/// Per-node discovery tracking in one of two representations, chosen per
/// run: exact bitset rows (the historic code path — every pre-existing
/// golden runs through it unchanged) or HLL sketch rows (O(N) memory for
/// million-node populations, estimated counts).
#[derive(Debug, Clone)]
pub enum Discovery {
    /// Exact per-node bitsets: O(rows × universe) bits, exact counts.
    Exact(DiscoveryMatrix),
    /// Per-node HLL sketches: O(rows) bytes, estimated counts.
    Sketch(SketchMatrix),
}

impl Discovery {
    /// Creates `rows` empty trackers over `0..universe`, sketched when
    /// `sketch` is set.
    pub fn new(rows: usize, universe: usize, sketch: bool) -> Self {
        if sketch {
            Discovery::Sketch(SketchMatrix::new(rows, universe))
        } else {
            Discovery::Exact(DiscoveryMatrix::new(rows, universe))
        }
    }

    /// Whether this tracker uses sketches (estimated counts).
    pub fn is_sketch(&self) -> bool {
        matches!(self, Discovery::Sketch(_))
    }

    /// Inserts `idx` into `row`; returns `true` if an exact row newly
    /// set it, or a sketch row's register grew (a sketch cannot tell
    /// whether the index was seen before).
    #[inline]
    pub fn insert(&mut self, row: usize, idx: usize) -> bool {
        match self {
            Discovery::Exact(m) => m.insert(row, idx),
            Discovery::Sketch(m) => m.insert(row, idx),
        }
    }

    /// Distinct count of `row` — exact or estimated by representation.
    #[inline]
    pub fn count(&self, row: usize) -> usize {
        match self {
            Discovery::Exact(m) => m.count(row),
            Discovery::Sketch(m) => m.count(row),
        }
    }

    /// Splits the rows `rows` into disjoint handles of `block`
    /// consecutive rows each (the last may hold fewer), in row order:
    /// the engine's parallel phases hand one handle per claim to a
    /// worker, which walks its rows in order.
    ///
    /// # Panics
    ///
    /// Panics when `rows` reaches past the last row or `block` is zero.
    pub(crate) fn blocks_mut(
        &mut self,
        rows: Range<usize>,
        block: usize,
    ) -> impl ExactSizeIterator<Item = DiscoveryBlock<'_>> {
        match self {
            Discovery::Exact(m) => Blocks::Exact(m.blocks_mut(rows, block)),
            Discovery::Sketch(m) => Blocks::Sketch(m.blocks_mut(rows, block)),
        }
    }
}

/// [`Discovery::blocks_mut`]'s iterator over either representation.
enum Blocks<E, S> {
    Exact(E),
    Sketch(S),
}

impl<'a, E, S> Iterator for Blocks<E, S>
where
    E: Iterator<Item = ExactBlock<'a>>,
    S: Iterator<Item = SketchBlock<'a>>,
{
    type Item = DiscoveryBlock<'a>;

    fn next(&mut self) -> Option<Self::Item> {
        match self {
            Blocks::Exact(it) => it.next().map(DiscoveryBlock::Exact),
            Blocks::Sketch(it) => it.next().map(DiscoveryBlock::Sketch),
        }
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        match self {
            Blocks::Exact(it) => it.size_hint(),
            Blocks::Sketch(it) => it.size_hint(),
        }
    }
}

impl<'a, E, S> ExactSizeIterator for Blocks<E, S>
where
    E: ExactSizeIterator<Item = ExactBlock<'a>>,
    S: ExactSizeIterator<Item = SketchBlock<'a>>,
{
}

/// Exclusive access to a run of consecutive rows of a [`Discovery`]
/// (see [`Discovery::blocks_mut`]).
#[derive(Debug)]
pub(crate) enum DiscoveryBlock<'a> {
    /// Rows of an exact matrix.
    Exact(ExactBlock<'a>),
    /// Rows of a sketch matrix.
    Sketch(SketchBlock<'a>),
}

impl DiscoveryBlock<'_> {
    /// The block's `k`-th row.
    #[inline]
    pub(crate) fn row(&mut self, k: usize) -> DiscoveryLane<'_> {
        match self {
            DiscoveryBlock::Exact(b) => DiscoveryLane::Exact(b.row(k)),
            DiscoveryBlock::Sketch(b) => DiscoveryLane::Sketch(b.row(k)),
        }
    }
}

/// Exclusive access to one row of a [`Discovery`] — safe to use from a
/// worker thread while other workers hold other rows.
#[derive(Debug)]
pub(crate) enum DiscoveryLane<'a> {
    /// An exact bitset row.
    Exact(DiscoveryRow<'a>),
    /// A sketch row.
    Sketch(SketchRow<'a>),
}

impl DiscoveryLane<'_> {
    /// Inserts `idx` into this row.
    #[inline]
    pub(crate) fn insert(&mut self, idx: usize) -> bool {
        match self {
            DiscoveryLane::Exact(row) => row.insert(idx),
            DiscoveryLane::Sketch(row) => row.insert(idx),
        }
    }

    /// Distinct count of this row — exact or estimated.
    #[inline]
    pub(crate) fn count(&self) -> usize {
        match self {
            DiscoveryLane::Exact(row) => row.count(),
            DiscoveryLane::Sketch(row) => row.count(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::{Discovery, DiscoveryBlock, DiscoveryMatrix, SketchMatrix};

    #[test]
    fn block_splitters_hand_out_every_row_once_in_order() {
        // Row counts at the edges of the engine's 64-row blocks, each
        // split from the first row and from the middle (a segment).
        const BLOCK: usize = 64;
        for sketch in [false, true] {
            for rows in [1, BLOCK - 1, BLOCK, BLOCK + 1, 3 * BLOCK + 7] {
                for start in [0, rows / 2] {
                    let case = format!("sketch {sketch}, rows {start}..{rows}");
                    let mut d = Discovery::new(rows, rows + 10, sketch);
                    let mut next = start;
                    for (bi, mut block) in d.blocks_mut(start..rows, BLOCK).enumerate() {
                        let len = match &block {
                            DiscoveryBlock::Exact(b) => b.counts.len(),
                            DiscoveryBlock::Sketch(b) => b.regs.len(),
                        };
                        assert_eq!(len, BLOCK.min(rows - start - bi * BLOCK), "{case}");
                        for k in 0..len {
                            assert_eq!(start + bi * BLOCK + k, next, "{case}: in order");
                            assert!(block.row(k).insert(next), "{case}: row {next} twice");
                            next += 1;
                        }
                    }
                    assert_eq!(next, rows, "{case}");
                    for row in 0..rows {
                        let (count, mine) = (d.count(row), !d.insert(row, row));
                        let expect = if row < start { (0, false) } else { (1, true) };
                        assert_eq!((count, mine), expect, "{case}: row {row}");
                    }
                }
            }
        }
    }

    #[test]
    fn matrix_insert_count_and_rows() {
        let mut m = DiscoveryMatrix::new(3, 130);
        assert!(m.insert(0, 0));
        assert!(m.insert(0, 129));
        assert!(!m.insert(0, 129), "second insert is a no-op");
        assert!(m.insert(2, 64));
        assert_eq!(m.count(0), 2);
        assert_eq!(m.count(1), 0);
        assert_eq!(m.count(2), 1);

        let mut rows = m.blocks_mut(0..3, 3).next().expect("one block");
        assert!(rows.row(1).insert(7));
        assert!(!rows.row(0).insert(129));
        assert_eq!(rows.row(0).count(), 2);
        assert_eq!(m.count(1), 1);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn matrix_out_of_range_panics() {
        DiscoveryMatrix::new(1, 10).insert(0, 10);
    }

    #[test]
    fn sketch_counts_track_distinct_inserts() {
        let mut m = SketchMatrix::new(2, 100_000);
        for idx in 0..50usize {
            m.insert(0, idx);
            m.insert(0, idx); // repeats leave the sketch unchanged
        }
        let est = m.count(0);
        assert!(
            (35..=65).contains(&est),
            "row 0 estimated {est} for 50 distinct"
        );
        assert_eq!(m.count(1), 0, "rows are disjoint");
    }

    #[test]
    fn sketch_row_handles_match_whole_matrix_access() {
        let mut direct = SketchMatrix::new(3, 1000);
        let mut laned = SketchMatrix::new(3, 1000);
        for idx in 0..200usize {
            direct.insert(idx % 3, idx);
        }
        for (row, mut block) in laned.blocks_mut(0..3, 1).enumerate() {
            for idx in 0..200usize {
                if idx % 3 == row {
                    block.row(0).insert(idx);
                }
            }
        }
        for row in 0..3 {
            assert_eq!(direct.count(row), laned.count(row));
        }
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn sketch_out_of_range_panics() {
        SketchMatrix::new(1, 10).insert(0, 10);
    }

    #[test]
    fn discovery_enum_dispatches_both_representations() {
        for sketch in [false, true] {
            let mut d = Discovery::new(2, 5000, sketch);
            assert_eq!(d.is_sketch(), sketch);
            for idx in 0..100usize {
                d.insert(0, idx);
            }
            let c = d.count(0);
            if sketch {
                assert!((80..=120).contains(&c), "estimate {c} for 100 distinct");
            } else {
                assert_eq!(c, 100);
            }
            assert_eq!(d.count(1), 0);
            // Lane access agrees with whole-matrix access.
            let mut rows = d.blocks_mut(0..2, 2).next().expect("one block");
            let lanes: Vec<usize> = (0..2).map(|k| rows.row(k).count()).collect();
            assert_eq!(lanes, vec![d.count(0), d.count(1)]);
        }
    }
}
