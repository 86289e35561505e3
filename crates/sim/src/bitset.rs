//! Discovery tracking: exact bitsets below a node-count threshold, HLL
//! sketches above it.
//!
//! Every non-Byzantine node tracks which non-Byzantine IDs it has learned
//! so far (system-discovery metric). At the paper's scale that is
//! 10,000 × 10,000 bits ≈ 12 MB total — cheap as bitsets, prohibitive as
//! hash sets. At a million nodes the same matrix is ~125 GB, which is
//! why [`Discovery`] switches to per-node HyperLogLog sketches
//! ([`raptee_util::hll`], 256 bytes/node ≈ 256 MB total) above
//! [`EXACT_DISCOVERY_THRESHOLD`] actors: the *estimated* distinct count
//! replaces the exact one, trading a stated ~6.5 % relative error for
//! O(N) memory. Below the threshold the exact rows run the identical
//! pre-existing code path, so every golden fingerprint is byte-for-byte
//! unchanged.

use raptee_util::hll;
use std::ops::Range;

/// Actor-count bound (inclusive) under which discovery defaults to the
/// exact bitset matrix. 16,384 keeps every committed scenario — tiny
/// through paper scale (10,000 nodes) — on the exact path, while the
/// 100,000-node smoke and million-node profiles default to sketches.
pub(crate) const EXACT_DISCOVERY_THRESHOLD: usize = 1 << 14;

/// Per-node discovery tracking in one of two representations, chosen per
/// run, each one flat arena of fixed-stride rows:
///
/// * exact bitset rows (the historic code path — every pre-existing
///   golden runs through it unchanged): O(rows × universe) bits, plus
///   one popcount per row kept incrementally, so counts are exact and
///   O(1);
/// * HLL sketch rows, one [`hll::REGISTERS`]-byte sketch per row: O(rows)
///   bytes for million-node populations, and counts that are *estimates*
///   (~6.5 % relative standard error).
///
/// The arena of the other representation stays empty. The parallel
/// phases update it sharded by node through disjoint block handles.
#[derive(Debug, Clone)]
pub struct Discovery {
    /// Exact rows, `stride` words each.
    words: Vec<u64>,
    /// Exact rows' popcounts.
    counts: Vec<u32>,
    /// Sketch rows, [`hll::REGISTERS`] bytes each.
    regs: Vec<u8>,
    stride: usize,
    universe: usize,
    sketch: bool,
}

impl Discovery {
    /// Creates `rows` empty trackers over `0..universe`, sketched when
    /// `sketch` is set.
    pub fn new(rows: usize, universe: usize, sketch: bool) -> Self {
        let (exact_rows, sketch_rows) = if sketch { (0, rows) } else { (rows, 0) };
        let stride = universe.div_ceil(64);
        Self {
            words: vec![0; exact_rows * stride],
            counts: vec![0; exact_rows],
            regs: vec![0; sketch_rows * hll::REGISTERS],
            stride,
            universe,
            sketch,
        }
    }

    /// Whether this tracker uses sketches (estimated counts).
    pub fn is_sketch(&self) -> bool {
        self.sketch
    }

    /// Inserts `idx` into `row`; returns `true` if an exact row newly
    /// set it, or a sketch row's register grew (a sketch cannot tell
    /// whether the index was seen before).
    ///
    /// # Panics
    ///
    /// Panics when `row` or `idx` is out of range.
    #[inline]
    pub fn insert(&mut self, row: usize, idx: usize) -> bool {
        self.rows_mut(row..row + 1).insert(0, idx)
    }

    /// Distinct count of `row` — exact or estimated by representation.
    #[inline]
    pub fn count(&self, row: usize) -> usize {
        if self.sketch {
            estimate(&self.regs.as_chunks().0[row])
        } else {
            self.counts[row] as usize
        }
    }

    /// One handle over the rows `rows`.
    fn rows_mut(&mut self, rows: Range<usize>) -> DiscoveryRows<'_> {
        let universe = self.universe;
        if self.sketch {
            DiscoveryRows::Sketch {
                regs: &mut self.regs.as_chunks_mut().0[rows],
                universe,
            }
        } else {
            let stride = self.stride;
            DiscoveryRows::Exact {
                words: &mut self.words[rows.start * stride..rows.end * stride],
                counts: &mut self.counts[rows],
                stride,
                universe,
            }
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
    ) -> impl ExactSizeIterator<Item = DiscoveryRows<'_>> {
        let blocks = rows.len().div_ceil(block);
        let mut rest = self.rows_mut(rows);
        (0..blocks).map(move |_| rest.split_front(block))
    }
}

/// Exclusive access to a run of consecutive rows of a [`Discovery`]
/// (see [`Discovery::blocks_mut`]) — safe to use from a worker thread
/// while other workers hold other rows. Row `k` is the run's `k`-th.
#[derive(Debug)]
pub(crate) enum DiscoveryRows<'a> {
    /// Exact bitset rows.
    Exact {
        words: &'a mut [u64],
        counts: &'a mut [u32],
        stride: usize,
        universe: usize,
    },
    /// Sketch rows.
    Sketch {
        regs: &'a mut [[u8; hll::REGISTERS]],
        universe: usize,
    },
}

impl<'a> DiscoveryRows<'a> {
    /// Inserts `idx` into row `k` (see [`Discovery::insert`]).
    ///
    /// # Panics
    ///
    /// Panics when `k` or `idx` is out of range.
    #[inline]
    pub(crate) fn insert(&mut self, k: usize, idx: usize) -> bool {
        let (Self::Exact { universe, .. } | Self::Sketch { universe, .. }) = self;
        // Unreachable from the engine: `Simulation::new` seeds only
        // bootstrap IDs, which are actors, and `note_discovered`, the
        // apply phase's view census and the ranked push ranking insert
        // only IDs below `total_actors()`, the universe.
        assert!(idx < *universe, "discovery index {idx} out of range");
        match self {
            Self::Exact {
                words,
                counts,
                stride,
                ..
            } => {
                let word = &mut words[k * *stride + idx / 64];
                let mask = 1u64 << (idx % 64);
                if *word & mask == 0 {
                    *word |= mask;
                    counts[k] += 1;
                    true
                } else {
                    false
                }
            }
            Self::Sketch { regs, .. } => hll::update(&mut regs[k], idx as u64),
        }
    }

    /// Distinct count of row `k` — exact or estimated.
    #[inline]
    pub(crate) fn count(&self, k: usize) -> usize {
        match self {
            Self::Exact { counts, .. } => counts[k] as usize,
            Self::Sketch { regs, .. } => estimate(&regs[k]),
        }
    }

    /// Number of rows in the run.
    fn len(&self) -> usize {
        match self {
            Self::Exact { counts, .. } => counts.len(),
            Self::Sketch { regs, .. } => regs.len(),
        }
    }

    /// Moves the first `n` rows (all, if fewer remain) into a handle of
    /// their own.
    fn split_front(&mut self, n: usize) -> Self {
        let n = n.min(self.len());
        match self {
            Self::Exact {
                words,
                counts,
                stride,
                universe,
            } => Self::Exact {
                words: front(words, n * *stride),
                counts: front(counts, n),
                stride: *stride,
                universe: *universe,
            },
            Self::Sketch { regs, universe } => Self::Sketch {
                regs: front(regs, n),
                universe: *universe,
            },
        }
    }
}

/// Splits the first `n` elements off `rows`.
fn front<'a, T>(rows: &mut &'a mut [T], n: usize) -> &'a mut [T] {
    rows.split_off_mut(..n).expect("a run holds its rows")
}

/// A sketch row's estimated distinct count, rounded to the nearest
/// integer.
#[inline]
fn estimate(regs: &[u8; hll::REGISTERS]) -> usize {
    hll::estimate(regs).round() as usize
}

#[cfg(test)]
mod tests {
    use super::{Discovery, DiscoveryRows};

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
                            DiscoveryRows::Exact { counts, .. } => counts.len(),
                            DiscoveryRows::Sketch { regs, .. } => regs.len(),
                        };
                        assert_eq!(len, BLOCK.min(rows - start - bi * BLOCK), "{case}");
                        for k in 0..len {
                            assert_eq!(start + bi * BLOCK + k, next, "{case}: in order");
                            assert!(block.insert(k, next), "{case}: row {next} twice");
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
        let mut m = Discovery::new(3, 130, false);
        assert!(m.insert(0, 0));
        assert!(m.insert(0, 129));
        assert!(!m.insert(0, 129), "second insert is a no-op");
        assert!(m.insert(2, 64));
        assert_eq!(m.count(0), 2);
        assert_eq!(m.count(1), 0);
        assert_eq!(m.count(2), 1);

        let mut rows = m.blocks_mut(0..3, 3).next().expect("one block");
        assert!(rows.insert(1, 7));
        assert!(!rows.insert(0, 129));
        assert_eq!(rows.count(0), 2);
        assert_eq!(m.count(1), 1);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn matrix_out_of_range_panics() {
        Discovery::new(1, 10, false).insert(0, 10);
    }

    #[test]
    fn sketch_counts_track_distinct_inserts() {
        let mut m = Discovery::new(2, 100_000, true);
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
        let mut direct = Discovery::new(3, 1000, true);
        let mut laned = Discovery::new(3, 1000, true);
        for idx in 0..200usize {
            direct.insert(idx % 3, idx);
        }
        for (row, mut block) in laned.blocks_mut(0..3, 1).enumerate() {
            for idx in 0..200usize {
                if idx % 3 == row {
                    block.insert(0, idx);
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
        Discovery::new(1, 10, true).insert(0, 10);
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
            // Handle access agrees with whole-tracker access.
            let rows = d.blocks_mut(0..2, 2).next().expect("one block");
            let counts: Vec<usize> = (0..2).map(|k| rows.count(k)).collect();
            assert_eq!(counts, vec![d.count(0), d.count(1)]);
        }
    }
}
