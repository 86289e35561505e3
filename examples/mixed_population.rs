//! Mixed-protocol populations and the BASALT+TEE hybrid.
//!
//! PR 2 added BASALT as a third protocol, but each scenario still ran
//! one protocol for its whole correct population. This example shows the
//! generalisation: a `Scenario::population` spec splits the correct
//! nodes into contiguous per-protocol segments sharing one engine, one
//! adversary (which aims each segment's *matching* attack at it —
//! random-ID balanced pushes against the Brahms family, distinct-ID
//! force pushes against the BASALT family), one rate limiter and one
//! metrics pass; `RunResult::segments` then reports pollution per
//! segment next to the combined number.
//!
//! The hybrid itself: `Protocol::BasaltTee` runs BASALT's ranked
//! hit-counter views hardened with the waiting-list/TTL refinement
//! (hearsay IDs from pull answers are quarantined and admitted at a
//! rate-limited probe budget) plus a `t·N` trusted tier attested through
//! the same `raptee-tee` enclave/attestation flow RAPTEE uses — trusted
//! pairs swap full views past each other's waiting lists.
//!
//! Run with: `cargo run --release --example mixed_population`

use raptee_sim::{Protocol, Scenario, Simulation};
use raptee_tee::SgxOverheadModel;

fn main() {
    let base = Scenario {
        n: 600,
        byzantine_fraction: 0.15,
        trusted_fraction: 0.10,
        view_size: 16,
        sample_size: 16,
        rounds: 150,
        tail_window: 20,
        seed: 0x111ED,
        ..Scenario::default()
    };

    println!("=== single-protocol reference points (f = 15 %) ===");
    let brahms = Simulation::new(base.brahms_baseline()).run();
    println!(
        "Brahms          : {:5.2} % pollution",
        brahms.resilience * 100.0
    );
    let raptee = Simulation::new(base.clone()).run();
    println!(
        "RAPTEE  (t=10 %): {:5.2} % pollution",
        raptee.resilience * 100.0
    );
    let basalt = Simulation::new(base.basalt_variant(30)).run();
    println!(
        "BASALT          : {:5.2} % pollution",
        basalt.resilience * 100.0
    );
    let hybrid = Simulation::new(base.basalt_tee_variant(30, 10)).run();
    println!(
        "BASALT+TEE (t=10 %, wlist TTL 10): {:5.2} % pollution",
        hybrid.resilience * 100.0
    );

    println!();
    println!("=== one mixed run: 50 % RAPTEE / 50 % BASALT+TEE ===");
    let mixed = base.half_and_half(
        Protocol::Raptee,
        Protocol::BasaltTee {
            view_size: base.view_size,
            rotation_interval: 30,
            wlist_ttl: 10,
        },
    );
    let trusted = mixed.segment_trusted_counts();
    let result = Simulation::new(mixed.clone()).run();
    println!(
        "combined over {} correct nodes: {:5.2} % pollution",
        mixed.n - mixed.byzantine_count(),
        result.resilience * 100.0
    );
    for (seg, t) in result.segments.iter().zip(&trusted) {
        println!(
            "  {:10} segment: {:3} nodes ({t} trusted) → {:5.2} % pollution",
            seg.protocol.label(),
            seg.nodes,
            seg.resilience * 100.0
        );
    }

    // What the trusted tier costs: the Table I enclave-overhead model,
    // applied to the hybrid's per-round message budget.
    let model = SgxOverheadModel::paper_table1();
    let fanout = raptee_net::parity_fanout(base.view_size);
    let cycles = model.expected_round_overhead(fanout, fanout, 1);
    println!();
    println!(
        "enclave price per trusted node and round (Table I means, {fanout} pulls + {fanout} \
         pushes + 1 trusted exchange): ~{cycles} cycles"
    );
}
