//! Exact memory gate: what a correct RAPTEE node costs, counted by the
//! allocator instead of read from RSS.
//!
//! This binary installs a counting `#[global_allocator]` (it delegates
//! every call to `System`) and runs RAPTEE at N = 20,000, view 16, on one
//! worker thread. That population is above `EXACT_DISCOVERY_THRESHOLD`,
//! so it runs the scale regime: sketched discovery and uncached
//! samplers. Only allocations made on the test's own thread are counted,
//! and with one worker the whole simulation runs there, so every count
//! is exact and the same on every run — unlike RSS.
//!
//! Measured (18,000 correct nodes; parent of PR 25 → PR 25):
//!
//! | quantity | parent | PR 25 | gate |
//! |---|---|---|---|
//! | allocator calls in `Simulation::new` | 90,040 | 72,038 | ≤ 4 per correct node + 100 |
//! | allocator calls in the first `run_round` | 72,367 | 408 | ≤ 1,000 |
//! | live heap after three rounds, per correct node | 2,797 B | 2,044 B | ≤ 2,150 B |
//! | `size_of::<RapteeNode>()` | 712 B | 568 B | ≤ 568 B |
//!
//! Every gate fails at the parent. Debug and release builds count the
//! same: the debug build's `Simulation::check_invariants` after every
//! round allocates nothing at view 16.

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

fn counted() -> bool {
    COUNTED.with(Cell::get)
}

fn book(calls: u64, bytes: i64) {
    if counted() {
        CALLS.fetch_add(calls, Ordering::Relaxed);
        LIVE.fetch_add(bytes, Ordering::Relaxed);
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

/// Allocator calls and net bytes allocated on this thread while `f` runs.
fn measure<R>(f: impl FnOnce() -> R) -> (R, u64, i64) {
    let (calls, live) = (CALLS.load(Ordering::Relaxed), LIVE.load(Ordering::Relaxed));
    COUNTED.with(|c| c.set(true));
    let out = f();
    COUNTED.with(|c| c.set(false));
    (
        out,
        CALLS.load(Ordering::Relaxed) - calls,
        LIVE.load(Ordering::Relaxed) - live,
    )
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
        let (mut sim, new_calls, mut live) = measure(|| Simulation::new(scenario.clone()));
        let mut round_calls = Vec::new();
        for _ in 0..3 {
            let ((), calls, bytes) = measure(|| sim.run_round());
            round_calls.push(calls);
            live += bytes;
            assert_eq!(sim.check_invariants(), Ok(()));
        }
        let per_node = live as u64 / correct;
        println!(
            "footprint: Simulation::new {new_calls} calls, rounds {round_calls:?} calls, \
             live {per_node} B per correct node, RapteeNode {} B",
            std::mem::size_of::<RapteeNode>()
        );
        assert!(
            new_calls <= 4 * correct + 100,
            "Simulation::new made {new_calls} allocator calls for {correct} correct nodes"
        );
        assert!(
            round_calls[0] <= 1_000,
            "the first round made {} allocator calls",
            round_calls[0]
        );
        assert!(
            per_node <= 2_150,
            "{per_node} B of live heap per correct node after three rounds"
        );
    });
    assert!(std::mem::size_of::<RapteeNode>() <= 568);
}
