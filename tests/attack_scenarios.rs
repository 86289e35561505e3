//! Integration tests for the paper's Section VI attack analyses, plus
//! the BASALT head-to-head the paper only discusses qualitatively.

use raptee::EvictionPolicy;
use raptee_net::NodeId;
use raptee_sim::{run_scenario, runner, AttackStrategy, Scenario, Simulation};

fn base() -> Scenario {
    Scenario {
        n: 250,
        byzantine_fraction: 0.20,
        trusted_fraction: 0.10,
        view_size: 14,
        sample_size: 14,
        rounds: 100,
        tail_window: 12,
        seed: 555,
        ..Scenario::default()
    }
}

#[test]
fn identification_attack_yields_bounded_quality() {
    let mut s = base();
    s.identification_attack = true;
    let rounds = s.rounds;
    let r = run_scenario(s);
    let ident = r.identification.expect("attack enabled");
    assert!((0.0..=1.0).contains(&ident.precision));
    assert!((0.0..=1.0).contains(&ident.recall));
    assert!((0.0..=1.0).contains(&ident.f1));
    assert!(ident.round < rounds);
}

#[test]
fn higher_eviction_is_more_detectable() {
    // Section VI-A: eviction is the statistical shadow the adversary
    // hunts. Aggregated over repetitions, ER-100% must expose trusted
    // nodes at least as much as ER-0%.
    let run = |er: f64| {
        let mut s = base();
        s.identification_attack = true;
        s.trusted_fraction = 0.20;
        s.eviction = EvictionPolicy::Fixed(er);
        runner::run_repeated(&s, 3)
    };
    let low = run(0.0);
    let high = run(1.0);
    assert!(
        high.ident_f1 >= low.ident_f1,
        "ER-100% should be at least as detectable as ER-0%: {} vs {}",
        high.ident_f1,
        low.ident_f1
    );
}

#[test]
fn adaptive_eviction_is_not_trivially_detectable() {
    let mut s = base();
    s.identification_attack = true;
    s.trusted_fraction = 0.01;
    s.eviction = EvictionPolicy::adaptive();
    let agg = runner::run_repeated(&s, 3);
    // Paper Section VII: with t = 1% the attacker identifies less than
    // 10% of trusted nodes with low precision. Our reduced scale keeps
    // the same character: low precision at tiny t.
    assert!(
        agg.ident_precision < 0.5,
        "adaptive at t=1% must not be precisely identifiable: {}",
        agg.ident_precision
    );
}

#[test]
fn injection_attack_does_not_destroy_resilience() {
    // Section VI-B: view-poisoned trusted nodes run correct code and
    // self-heal; the attack has "little to no impact".
    let clean = runner::run_repeated(&base(), 2);
    let mut attacked_scenario = base();
    attacked_scenario.injected_poisoned_fraction = 0.05;
    let attacked = runner::run_repeated(&attacked_scenario, 2);
    // Allow a modest degradation margin, but rule out collapse.
    assert!(
        attacked.resilience < clean.resilience + 0.08,
        "5% poisoned trusted nodes must not collapse resilience: clean {:.3}, attacked {:.3}",
        clean.resilience,
        attacked.resilience
    );
}

#[test]
fn injected_nodes_self_heal() {
    use raptee_net::NodeId;
    use raptee_sim::Simulation;
    let mut s = base();
    s.injected_poisoned_fraction = 0.04;
    let byz = s.byzantine_count();
    let mut sim = Simulation::new(s.clone());
    // At round 0 the injected nodes' views are 100% Byzantine.
    let injected_id = NodeId(s.n as u64);
    let poisoned_share = |sim: &Simulation| {
        let node = sim.node(injected_id).unwrap();
        let v = node.brahms().view();
        v.ids().filter(|id| id.index() < byz).count() as f64 / v.len().max(1) as f64
    };
    assert!(
        poisoned_share(&sim) > 0.99,
        "bootstrap must be fully poisoned"
    );
    for _ in 0..s.rounds {
        sim.run_round();
    }
    let healed = poisoned_share(&sim);
    assert!(
        healed < 0.8,
        "the injected node must shed most of its poison: still {healed:.2} Byzantine"
    );
}

#[test]
fn small_injection_can_even_help_at_small_t() {
    // Fig. 13a: with t = 1% and moderate f, added (genuine, if poisoned)
    // trusted nodes reinforce the trusted tier. We assert the weaker,
    // robust form: injection at low f does not hurt by more than noise.
    let mut clean = base();
    clean.trusted_fraction = 0.01;
    clean.byzantine_fraction = 0.10;
    let c = runner::run_repeated(&clean, 3);
    let mut attacked = clean.clone();
    attacked.injected_poisoned_fraction = 0.05;
    let a = runner::run_repeated(&attacked, 3);
    assert!(
        a.resilience < c.resilience + 0.05,
        "low-f injection must not meaningfully hurt: clean {:.3}, attacked {:.3}",
        c.resilience,
        a.resilience
    );
}

#[test]
fn basalt_undercuts_brahms_under_balanced_attack_at_f10() {
    // The fig_basalt_comparison headline at the paper's smallest f: with
    // 10 % Byzantine nodes running the balanced push attack and fully
    // poisoned pull answers, BASALT's ranked hit-counter views hold the
    // steady-state Byzantine in-view share measurably below plain Brahms
    // — no trusted hardware involved.
    let mut brahms_scenario = base().brahms_baseline();
    brahms_scenario.byzantine_fraction = 0.10;
    let basalt_scenario = brahms_scenario.basalt_variant(30);
    let brahms = runner::run_repeated(&brahms_scenario, 2);
    let basalt = runner::run_repeated(&basalt_scenario, 2);
    assert!(
        basalt.resilience < brahms.resilience - 0.05,
        "BASALT must measurably undercut Brahms at f=10%: basalt {:.3} vs brahms {:.3}",
        basalt.resilience,
        brahms.resilience
    );
    // And it stays in the vicinity of the adversary's population share —
    // the BASALT bound — rather than merely below Brahms.
    assert!(
        basalt.resilience < 0.25,
        "BASALT must hold near the f=10% fair share: {:.3}",
        basalt.resilience
    );
}

/// Mean Byzantine share in the victim prefix's views at the end of a
/// targeted-attack run (victims are the first `victim_fraction` of the
/// correct nodes, matching the engine's deterministic victim set).
fn targeted_victim_share(s: &Scenario, victim_fraction: f64) -> f64 {
    let byz = s.byzantine_count();
    let mut sim = Simulation::new(s.clone());
    for _ in 0..s.rounds {
        sim.run_round();
    }
    let victims_end = byz + (((s.n - byz) as f64) * victim_fraction).round() as usize;
    let shares: Vec<f64> = (byz..victims_end)
        .map(|i| {
            let id = NodeId(i as u64);
            if let Some(node) = sim.node(id) {
                let v = node.brahms().view();
                v.ids().filter(|id| id.index() < byz).count() as f64 / v.len().max(1) as f64
            } else if let Some(node) = sim.basalt(id) {
                node.view().fraction_matching(|id| id.index() < byz)
            } else {
                panic!("victim {id} is not a correct node");
            }
        })
        .collect();
    shares.iter().sum::<f64>() / shares.len() as f64
}

#[test]
fn basalt_resists_targeted_attack_better_than_brahms() {
    // Satellite criterion: under the Targeted strategy the victim
    // subset's Byzantine in-view share stays below the plain-Brahms
    // baseline measured in the same test. Brahms protects victims with
    // history sampling and the flood detector; BASALT's seeded ranking
    // makes the focused budget outright worthless, which must show as a
    // strictly lower victim pollution.
    let mut s = base().brahms_baseline();
    s.byzantine_fraction = 0.15;
    s.attack = AttackStrategy::Targeted {
        victim_fraction: 0.05,
        focus: 0.8,
    };
    let brahms_victims = targeted_victim_share(&s, 0.05);
    let basalt_victims = targeted_victim_share(&s.basalt_variant(30), 0.05);
    assert!(
        basalt_victims < brahms_victims,
        "targeted victims must fare better under BASALT: basalt {basalt_victims:.3} vs \
         brahms {brahms_victims:.3}"
    );
    assert!(
        basalt_victims < 0.5,
        "BASALT victims must stay far from isolation: {basalt_victims:.3}"
    );
}

#[test]
fn identification_without_trusted_nodes_finds_nothing() {
    let mut s = base().brahms_baseline();
    s.identification_attack = true;
    let r = run_scenario(s);
    if let Some(ident) = r.identification {
        assert_eq!(ident.recall, 0.0, "no trusted nodes exist to find");
        assert_eq!(ident.precision, 0.0);
    }
}

#[test]
fn force_push_and_balanced_are_one_play_against_ranked_families() {
    // `Adversary::plan_attack` advertises round-robin distinct
    // identities to a ranked segment under both attacks, so the two
    // `fig_tournament` columns of BASALT, LIFT and Honeybee are the same
    // run by construction; Brahms, whose balanced play draws random IDs,
    // is the control.
    let mut small = base();
    small.n = 120;
    small.rounds = 30;
    let run = |s: &Scenario, attack| {
        run_scenario(Scenario {
            attack,
            ..s.clone()
        })
    };
    for ranked in [
        small.basalt_variant(15),
        small.lift_variant(8),
        small.honeybee_variant(4),
    ] {
        assert_eq!(
            run(&ranked, AttackStrategy::Balanced),
            run(&ranked, AttackStrategy::ForcePush),
            "{:?}",
            ranked.protocol
        );
    }
    let brahms = small.brahms_baseline();
    assert_ne!(
        run(&brahms, AttackStrategy::Balanced),
        run(&brahms, AttackStrategy::ForcePush)
    );
}
