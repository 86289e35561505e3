//! BASALT+TEE hybrid comparison — the protocol-diversity axis PR 5
//! opened, with no published counterpart (the RAPTEE paper hardens
//! Brahms only; the BASALT paper has no TEE treatment).
//!
//! Sweeping the Byzantine proportion under the balanced/force-push
//! attack at an equal per-identity message budget:
//!
//! * **BASALT** — plain ranked hit-counter views (the PR 2 protocol);
//! * **BASALT+TEE** — BASALT plus the waiting-list/TTL anti-poisoning
//!   refinement (hearsay quarantined, admitted at the push-budget rate)
//!   and a `t = 10 %` enclave-attested trusted tier whose mutual
//!   exchanges bypass the waiting lists;
//! * **RAPTEE** — the paper's Brahms+TEE hybrid at the same `t`;
//! * **mixed 50/50** — one run, half RAPTEE / half BASALT+TEE, the
//!   engine's mixed-population mode: panel (b) reports the pollution
//!   *per segment* next to the combined population mean, so the two
//!   hybrids can be compared while coexisting under one adversary
//!   (which force-pushes the BASALT half and balanced-pushes the RAPTEE
//!   half out of one lawful budget).
//!
//! Expected shape: BASALT-family pollution stays near the adversary's
//! population share while Brahms-family pollution grows well past it;
//! the waiting list trades some discovery speed for bounded
//! pull-poisoning, so BASALT+TEE tracks BASALT within a few points
//! (crossing below it as `f` grows and free pull-answer poison
//! dominates), and each half of the mixed run lands near its uniform
//! counterpart. Every trusted node pays the Table I enclave overhead —
//! printed in the header via `SgxOverheadModel::expected_round_overhead`.

use raptee::RapteeConfig;
use raptee_bench::{byzantine_fractions, emit, header, Scale};
use raptee_sim::{runner, Protocol};
use raptee_tee::SgxOverheadModel;
use raptee_util::series::SeriesTable;

/// Seed-rotation interval for the BASALT-family runs (rounds).
const ROTATION_INTERVAL: usize = 30;
/// Waiting-list TTL of the hybrid (rounds of hearsay quarantine).
const WLIST_TTL: usize = 10;
/// Trusted share of the TEE-equipped runs.
const TRUSTED_FRACTION: f64 = 0.10;

fn main() {
    let scale = Scale::from_env();
    header(
        "fig_hybrid_comparison",
        "BASALT vs BASALT+TEE vs RAPTEE, plus a mixed 50/50 population",
        &scale,
    );
    let model = SgxOverheadModel::paper_table1();
    // Every family matches Brahms' α·l1 pushes and β·l1 pulls.
    let brahms = RapteeConfig::paper_defaults(scale.view).brahms;
    let fanout = brahms.alpha_count();
    println!(
        "    trusted nodes pay ~{} cycles/round of enclave overhead (Table I means: {fanout} pulls + {fanout} pushes + 1 trusted exchange)",
        model.expected_round_overhead(fanout, fanout, 1)
    );
    println!();

    let mut resilience = SeriesTable::new("f(%)");
    let mut mixed_panel = SeriesTable::new("f(%)");
    for &f in &byzantine_fractions(&scale) {
        let mut template = scale.scenario();
        template.byzantine_fraction = f;
        template.trusted_fraction = TRUSTED_FRACTION;

        let basalt = runner::run_repeated(&template.basalt_variant(ROTATION_INTERVAL), scale.reps);
        let hybrid = runner::run_repeated(
            &template.basalt_tee_variant(ROTATION_INTERVAL, WLIST_TTL),
            scale.reps,
        );
        let raptee = runner::run_repeated(&template, scale.reps);
        let mixed_scenario = template.half_and_half(
            Protocol::Raptee,
            Protocol::BasaltTee {
                view_size: template.view_size,
                rotation_interval: ROTATION_INTERVAL,
                wlist_ttl: WLIST_TTL,
            },
        );
        let mixed = runner::run_repeated(&mixed_scenario, scale.reps);

        let x = f * 100.0;
        resilience.insert("BASALT", x, basalt.resilience * 100.0);
        resilience.insert("BASALT+TEE t=10%", x, hybrid.resilience * 100.0);
        resilience.insert("RAPTEE t=10%", x, raptee.resilience * 100.0);
        mixed_panel.insert("mixed combined", x, mixed.resilience * 100.0);
        for seg in &mixed.segments {
            mixed_panel.insert(
                format!("mixed {} half", seg.protocol.label()),
                x,
                seg.resilience * 100.0,
            );
        }
    }
    emit(
        "fig_hybrid_comparisona",
        "(a) Converged Byzantine IDs in correct views (%), uniform populations",
        &resilience,
    );
    emit(
        "fig_hybrid_comparisonb",
        "(b) The 50% RAPTEE / 50% BASALT+TEE mixed run: per-segment and combined pollution (%)",
        &mixed_panel,
    );
}
