//! Exact memory gate: what a correct RAPTEE node costs, counted by the
//! allocator instead of read from RSS.
//!
//! This binary installs a counting `#[global_allocator]` (it delegates
//! every call to `System`) and runs RAPTEE at N = 20,000, view 16, on one
//! worker thread. That population is above `EXACT_DISCOVERY_THRESHOLD`,
//! so it runs the scale regime: sketched discovery and uncached
//! samplers. Only allocations made on the test's own thread are counted,
//! and with one worker the whole simulation runs there, so every count
//! is exact and the same on every run — unlike RSS. Besides calls and
//! live bytes, the allocator keeps the high-water mark of live bytes, so
//! a round's transient (its peak over what it leaves live) is exact too.
//!
//! Measured (18,000 correct nodes). "Lanes" is the engine that built
//! one lane struct per node in every parallel phase and whose nodes
//! were 568 B; "blocks" shards the phases in 64-node block handles and
//! fits a RAPTEE node in the ranked node's 432-byte slot; "ID-only
//! views" is today's engine, whose Brahms view entry is the 8-byte ID
//! alone (ages live only in the trusted directory; 1,819 B per node
//! with 16-byte entries):
//!
//! | quantity | lanes | blocks | ID-only views | gate |
//! |---|---|---|---|---|
//! | allocator calls in `Simulation::new` | 72,039 | 36,039 | 36,042 | ≤ 2 per correct node + 100 |
//! | allocator calls in the first `run_round` | 409 | 418 | 421 | ≤ 1,000 |
//! | largest round peak − end-of-round live | 2,621,440 B | 36,096 B | 36,096 B | ≤ 64 KiB |
//! | live heap after three rounds, per correct node | 2,040 B | 1,877 B | 1,690 B | ≤ 1,765 B |
//! | `size_of::<RapteeNode>()` | 568 B | 424 B | 368 B | ≤ 432 B |
//!
//! Every gate but the first-round one fails with lanes, and the
//! per-node one fails with 16-byte view entries. Debug and
//! release builds count the same: the debug build's
//! `Simulation::check_invariants` after every round allocates nothing
//! at view 16.

use raptee::RapteeNode;
use raptee_sim::{Protocol, Scenario, Simulation};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};

/// Counts allocator calls and live bytes made on threads that opted in.
struct Counting;

thread_local! {
    static COUNTED: Cell<bool> = const { Cell::new(false) };
}

static CALLS: AtomicU64 = AtomicU64::new(0);
static LIVE: AtomicI64 = AtomicI64::new(0);
/// The largest `LIVE` since [`measure`] last reset it.
static PEAK: AtomicI64 = AtomicI64::new(0);

fn counted() -> bool {
    COUNTED.with(Cell::get)
}

fn book(calls: u64, bytes: i64) {
    if counted() {
        CALLS.fetch_add(calls, Ordering::Relaxed);
        let live = LIVE.fetch_add(bytes, Ordering::Relaxed) + bytes;
        PEAK.fetch_max(live, Ordering::Relaxed);
    }
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the bookkeeping touches only
// atomics and a `const` thread-local without a destructor, neither of
// which allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        book(1, layout.size() as i64);
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        book(1, layout.size() as i64);
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        book(1, new_size as i64 - layout.size() as i64);
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        book(0, -(layout.size() as i64));
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// What [`measure`] saw while its closure ran.
struct Measured {
    /// Allocator calls.
    calls: u64,
    /// Net bytes allocated.
    bytes: i64,
    /// How far live bytes rose above where they ended.
    transient: i64,
}

/// Allocator calls, net bytes and transient bytes on this thread while
/// `f` runs.
fn measure<R>(f: impl FnOnce() -> R) -> (R, Measured) {
    let (calls, live) = (CALLS.load(Ordering::Relaxed), LIVE.load(Ordering::Relaxed));
    PEAK.store(live, Ordering::Relaxed);
    COUNTED.with(|c| c.set(true));
    let out = f();
    COUNTED.with(|c| c.set(false));
    let end = LIVE.load(Ordering::Relaxed);
    let measured = Measured {
        calls: CALLS.load(Ordering::Relaxed) - calls,
        bytes: end - live,
        transient: PEAK.load(Ordering::Relaxed) - end,
    };
    (out, measured)
}

#[test]
fn a_correct_node_costs_what_it_holds() {
    let scenario = Scenario {
        n: 20_000,
        view_size: 16,
        sample_size: 16,
        rounds: 3,
        tail_window: 3,
        protocol: Protocol::Raptee,
        ..Scenario::default()
    };
    assert!(
        scenario.sketch_discovery(),
        "the scale regime: sketched discovery"
    );
    let correct = (scenario.n - scenario.byzantine_count()) as u64;

    rayon::with_num_threads(1, || {
        let (mut sim, new) = measure(|| Simulation::new(scenario.clone()));
        let mut live = new.bytes;
        let (mut round_calls, mut transients) = (Vec::new(), Vec::new());
        for _ in 0..3 {
            let ((), round) = measure(|| sim.run_round());
            round_calls.push(round.calls);
            transients.push(round.transient);
            live += round.bytes;
            assert_eq!(sim.check_invariants(), Ok(()));
        }
        let per_node = live as u64 / correct;
        println!(
            "footprint: Simulation::new {} calls, rounds {round_calls:?} calls, \
             round peak over end-of-round live {transients:?} B, \
             live {per_node} B per correct node, RapteeNode {} B",
            new.calls,
            std::mem::size_of::<RapteeNode>()
        );
        assert!(
            new.calls <= 2 * correct + 100,
            "Simulation::new made {} allocator calls for {correct} correct nodes",
            new.calls
        );
        assert!(
            round_calls[0] <= 1_000,
            "the first round made {} allocator calls",
            round_calls[0]
        );
        assert!(
            transients.iter().all(|&t| t <= 64 << 10),
            "a round's live heap peaked {transients:?} B above where it ended"
        );
        assert!(
            per_node <= 1_765,
            "{per_node} B of live heap per correct node after three rounds"
        );
    });
    assert!(std::mem::size_of::<RapteeNode>() <= 432);
}
