//! Integration tests for the verifiable audit layer (PR 9): merkle view
//! commitments, challenger replay, conviction and quarantine.
//!
//! The structural guarantee under test: a conviction requires a merkle
//! opening *inconsistent with the target's own chained commitment*.
//! Unavailability — crash, churn, partition, certificate expiry — only
//! ever yields a decaying `Suspected`, so correct nodes are never
//! convicted, no matter how hostile the substrate.

use raptee_net::NodeId;
use raptee_sim::{
    run_scenario, AuditConfig, ChurnSchedule, EventNetConfig, LatencyModel, PartitionWindow,
    Protocol, RejoinPolicy, Scenario, Simulation,
};

fn base() -> Scenario {
    Scenario {
        n: 200,
        byzantine_fraction: 0.10,
        trusted_fraction: 0.10,
        view_size: 14,
        sample_size: 14,
        rounds: 100,
        tail_window: 12,
        seed: 0xAD17,
        audit: Some(AuditConfig::with_budget(6)),
        ..Scenario::default()
    }
}

#[test]
fn audit_detects_byzantine_nodes() {
    let s = base();
    let byz = s.byzantine_count() as u64;
    let rounds = s.rounds;
    let r = run_scenario(s);
    let a = r
        .audit
        .expect("audit stats must be reported when audits are on");
    // Draws that land on already-quarantined targets are skipped (the
    // beacon slot is still consumed), so issuance is capped by, not
    // equal to, budget x rounds.
    assert!(a.audits_issued > 0 && a.audits_issued <= 6 * rounds as u64);
    assert!(a.audits_answered <= a.audits_issued);
    assert!(
        a.detected_byzantine > 0,
        "a 6-audits/round challenger must catch equivocators over 100 rounds"
    );
    assert!(
        a.detected_byzantine <= byz,
        "cannot detect more Byzantine nodes than exist"
    );
    assert_eq!(
        a.false_accusations, 0,
        "convictions require proof inconsistency; correct nodes always verify"
    );
    assert_eq!(a.convictions, a.detected_byzantine);
    assert!(
        a.mean_detection_latency.is_some(),
        "detections happened, so the latency average must be reported"
    );
    assert!(
        a.commitments_recorded > 0,
        "the trusted tier commits every round"
    );
    assert_eq!(a.quarantine_series.len(), rounds);
    assert!(
        a.quarantine_series.windows(2).all(|w| w[0] <= w[1]),
        "quarantine only grows: convictions are permanent"
    );
    assert_eq!(
        u64::from(*a.quarantine_series.last().unwrap()),
        a.convictions,
        "final quarantine size equals total convictions"
    );
}

#[test]
fn audit_off_reports_nothing_and_never_draws_the_beacon() {
    let mut s = base();
    s.audit = None;
    let rounds = s.rounds;
    let mut sim = Simulation::new(s);
    for _ in 0..rounds {
        sim.run_round();
    }
    assert_eq!(
        sim.audit_beacon_draws(),
        0,
        "audit-off runs must never touch the beacon stream (goldens depend on it)"
    );
}

#[test]
fn correct_nodes_are_never_convicted_under_churn_partitions_and_loss() {
    // The nastiest availability mix the substrate can produce: steady
    // crash/restart churn, a mid-run partition, latency spread, message
    // loss and duplicates. Every honest node that goes dark mid-audit is
    // at worst Suspected — and suspicion decays after the grace window.
    let mut s = base();
    s.message_loss = 0.10;
    s.churn = ChurnSchedule::steady(0.01, 0.3);
    s.churn.rejoin = RejoinPolicy::Warm;
    let mut s = s.with_network(EventNetConfig {
        latency: LatencyModel::Uniform { min: 50, max: 600 },
        round_ticks: 1000,
        jitter: 150,
        partitions: vec![PartitionWindow {
            start: 25,
            end: 45,
            boundary: 100,
        }],
        duplicate_rate: 0.05,
        ..EventNetConfig::default()
    });
    s.audit = Some(AuditConfig {
        budget: 8,
        grace: 6,
    });
    let byz = s.byzantine_count();
    let rounds = s.rounds;
    let mut sim = Simulation::new(s.clone());
    for _ in 0..rounds {
        sim.run_round();
    }
    for i in byz..s.n {
        assert!(
            !sim.is_quarantined(NodeId(i as u64)),
            "correct node {i} was convicted under churn + partition + loss"
        );
    }
    let a = run_scenario(s).audit.unwrap();
    assert_eq!(a.false_accusations, 0);
    assert!(
        a.suspected > 0,
        "with crashes and a partition some audits must have gone unanswered"
    );
}

#[test]
fn detection_latency_decreases_with_budget() {
    let latency_at = |budget: usize| {
        let mut s = base();
        s.audit = Some(AuditConfig::with_budget(budget));
        let a = run_scenario(s).audit.unwrap();
        (
            a.mean_detection_latency.expect("detections must happen"),
            a.detected_byzantine,
        )
    };
    let (slow, found_slow) = latency_at(2);
    let (fast, found_fast) = latency_at(12);
    assert!(
        fast < slow,
        "a 6x audit budget must find equivocators sooner: {fast:.1} vs {slow:.1} rounds"
    );
    assert!(found_fast >= found_slow);
}

#[test]
fn quarantine_cleans_views_relative_to_audit_off() {
    // Convicted Byzantine identities are purged from every honest view
    // and blocked from re-entering via pulls and pushes, so the polluted
    // view share can only improve on the audit-off run of the same seed.
    let mut off = base();
    off.audit = None;
    let audited = run_scenario(base());
    let unaudited = run_scenario(off);
    assert!(
        audited.resilience < unaudited.resilience,
        "quarantine must lower view pollution: {} (audited) vs {} (off)",
        audited.resilience,
        unaudited.resilience
    );
}

#[test]
fn cold_rejoin_restarts_commitment_chains_warm_keeps_them() {
    let chains_restarted = |rejoin: RejoinPolicy| {
        let mut s = base();
        s.rounds = 120;
        s.churn = ChurnSchedule::steady(0.03, 0.5);
        s.churn.rejoin = rejoin;
        run_scenario(s).audit.unwrap().chain_restarts
    };
    assert!(
        chains_restarted(RejoinPolicy::Cold) > 0,
        "cold rejoin wipes state, so a recommitting trusted node restarts its chain"
    );
    assert_eq!(
        chains_restarted(RejoinPolicy::Warm),
        0,
        "warm rejoin resumes the kept state and extends the existing chain"
    );
}

#[test]
fn hybrid_and_basalt_tee_populations_support_audits() {
    // BasaltTee uniform population.
    let mut s = base();
    s.protocol = Protocol::BasaltTee {
        view_size: 14,
        rotation_interval: 15,
        wlist_ttl: 8,
    };
    let a = run_scenario(s).audit.unwrap();
    assert!(a.detected_byzantine > 0);
    assert_eq!(a.false_accusations, 0);

    // Mixed RAPTEE / BasaltTee split, with the proactive trusted
    // directory refresh exercising the cross-segment trusted exchange.
    let mut s = base().half_and_half(
        Protocol::Raptee,
        Protocol::BasaltTee {
            view_size: 14,
            rotation_interval: 15,
            wlist_ttl: 8,
        },
    );
    s.audit = Some(AuditConfig::with_budget(6));
    s.trusted_directory_refresh = 5;
    let first = run_scenario(s.clone());
    let second = run_scenario(s);
    let a = first.audit.as_ref().unwrap();
    assert!(a.detected_byzantine > 0);
    assert_eq!(a.false_accusations, 0);
    assert_eq!(first, second, "audited mixed runs must stay deterministic");
}

#[test]
fn audit_requires_a_trusted_tier() {
    let mut s = base();
    s.protocol = Protocol::Brahms;
    s.trusted_fraction = 0.0;
    let err = s.validate().unwrap_err();
    assert_eq!(err.knob, "audit");
    assert!(err.reason.contains("trusted tier"), "{err}");
}

#[test]
fn audit_grace_must_fit_inside_the_attestation_ttl() {
    let mut s = base();
    s.attest_ttl = 5;
    s.audit = Some(AuditConfig {
        budget: 4,
        grace: 10,
    });
    let err = s.validate().unwrap_err();
    assert_eq!(err.knob, "audit");
    assert!(err.reason.contains("attest_ttl >= grace"), "{err}");
}
