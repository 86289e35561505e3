//! Repetition, aggregation and parameter sweeps.
//!
//! The paper repeats every setup 10 times and reports means; its figures
//! sweep `f` (Byzantine share), `t` (trusted share) and the eviction
//! rate. This module provides those loops — rayon-parallel across
//! repetitions and grid points, deterministic per (scenario, repetition)
//! pair — plus the derived quantities the figures actually plot:
//! resilience improvement (%) and round overhead (%) relative to the
//! Brahms baseline at the same workload.

use crate::engine::Simulation;
use crate::metrics::RunResult;
use crate::scenario::Scenario;
use rayon::prelude::*;

/// Mean per-segment resilience across repetitions of one scenario (the
/// segment layout is identical in every repetition).
#[derive(Debug, Clone, PartialEq)]
pub struct SegmentAggregate {
    /// The protocol the segment ran.
    pub protocol: crate::scenario::Protocol,
    /// Correct nodes in the segment.
    pub nodes: usize,
    /// Mean converged Byzantine share in the segment's views.
    pub resilience: f64,
    /// Mean per-segment mean-discovery round among repetitions that
    /// reached it; `None` when none did.
    pub discovery_round: Option<f64>,
    /// Mean per-segment stability round among repetitions that reached
    /// it; `None` when none did.
    pub stability_round: Option<f64>,
}

/// Mean results across repetitions of one scenario.
#[derive(Debug, Clone, PartialEq)]
pub struct AggregatedResult {
    /// Mean converged Byzantine share in non-Byzantine views (`[0, 1]`).
    pub resilience: f64,
    /// Mean per-segment resilience (one entry per population segment;
    /// exactly one, equal to `resilience`, for uniform scenarios).
    pub segments: Vec<SegmentAggregate>,
    /// Mean discovery round among repetitions that reached discovery;
    /// `None` when none did.
    pub discovery_round: Option<f64>,
    /// Mean stability round among repetitions that reached stability.
    pub stability_round: Option<f64>,
    /// Mean best-identification precision/recall/F1 (0 when the attack
    /// was disabled).
    pub ident_precision: f64,
    /// See [`AggregatedResult::ident_precision`].
    pub ident_recall: f64,
    /// See [`AggregatedResult::ident_precision`].
    pub ident_f1: f64,
    /// Number of repetitions aggregated.
    pub repetitions: usize,
    /// Fraction of repetitions that reached discovery within the run.
    pub discovery_success: f64,
    /// Fraction of repetitions that reached stability within the run.
    pub stability_success: f64,
    /// Mean node availability (live node-rounds over scheduled
    /// node-rounds) across repetitions that tracked recovery metrics;
    /// `None` when churn and attestation expiry were both off.
    pub availability: Option<f64>,
    /// Mean time-to-recover in rounds across repetitions in which at
    /// least one restarted node re-stabilised; `None` when none did (or
    /// recovery tracking was off).
    pub time_to_recover: Option<f64>,
    /// Mean Byzantine detection latency (rounds from first activity to
    /// conviction) across repetitions in which the challenger convicted
    /// at least one Byzantine node; `None` when none did (or the audit
    /// layer was off).
    pub audit_detection_latency: Option<f64>,
    /// Mean convictions per repetition across repetitions that ran the
    /// audit layer; `None` when it was off.
    pub audit_convictions: Option<f64>,
    /// Mean false accusations (convictions of correct nodes — expected
    /// zero) per repetition across repetitions that ran the audit
    /// layer; `None` when it was off.
    pub audit_false_accusations: Option<f64>,
}

/// Runs one scenario once. Takes the scenario by value — repetition
/// loops and benches hand over their per-repetition copy instead of
/// cloning it again behind the call.
pub fn run_scenario(scenario: Scenario) -> RunResult {
    Simulation::new(scenario).run()
}

/// The stride between the seeds of consecutive repetitions.
const REP_SEED_STRIDE: u64 = 0x9E37_79B9;

/// The most repetitions [`run_repeated`] derives distinct seeds for:
/// beyond it `REP_SEED_STRIDE · (k + 1)` overflows a `u64`.
pub const MAX_REPETITIONS: usize = (u64::MAX / REP_SEED_STRIDE) as usize;

/// Runs `repetitions` independent repetitions (seeds derived from the
/// scenario seed) in parallel and aggregates their means, without
/// holding more than a few results per worker at a time (see
/// [`run_repeated_with`]).
///
/// # Panics
///
/// Panics if `repetitions` is zero or above [`MAX_REPETITIONS`].
pub fn run_repeated(scenario: &Scenario, repetitions: usize) -> AggregatedResult {
    run_repeated_with(scenario, repetitions, |_, _| {})
}

/// Repetitions one worker runs per chunk of [`run_repeated_with`]: enough
/// that a chunk keeps every worker busy while its slowest repetition
/// finishes, few enough that a chunk's results stay small.
const REPETITIONS_PER_WORKER: usize = 4;

/// [`run_repeated`], handing each repetition's result to `visit` with its
/// repetition number before folding it in. The repetitions run in
/// parallel in chunks of `REPETITIONS_PER_WORKER` per worker and fold
/// in repetition order, so the aggregate is the one of all results
/// collected first, bit for bit, and memory does not grow with
/// `repetitions`.
///
/// # Panics
///
/// Panics if `repetitions` is zero or above [`MAX_REPETITIONS`].
pub fn run_repeated_with(
    scenario: &Scenario,
    repetitions: usize,
    mut visit: impl FnMut(usize, &RunResult),
) -> AggregatedResult {
    check_repetitions(repetitions);
    let chunk = REPETITIONS_PER_WORKER * rayon::current_num_threads().max(1);
    let mut tally: Option<Tally> = None;
    for first in (0..repetitions).step_by(chunk) {
        let runs: Vec<RunResult> = (first..repetitions.min(first + chunk))
            .into_par_iter()
            .map(|k| run_scenario(repetition(scenario, k)))
            .collect();
        for (k, run) in (first..).zip(&runs) {
            visit(k, run);
            tally.get_or_insert_with(|| Tally::new(run)).add(run);
        }
    }
    tally.expect("at least one repetition ran").finish()
}

/// The documented contract: `raptee-cli` rejects `--reps 0` and `--reps`
/// above the bound, and every `raptee_bench::Scale` profile runs at
/// least one repetition.
fn check_repetitions(repetitions: usize) {
    assert!(repetitions > 0, "need at least one repetition");
    assert!(
        repetitions <= MAX_REPETITIONS,
        "{repetitions} repetitions: seeds stay distinct up to {MAX_REPETITIONS}"
    );
}

/// Repetition `k` of `scenario`: the scenario at the seed
/// `seed + stride · (k + 1)`.
fn repetition(scenario: &Scenario, k: usize) -> Scenario {
    let mut s = scenario.clone();
    s.seed = scenario.seed.wrapping_add(REP_SEED_STRIDE * (k as u64 + 1));
    s
}

/// A running sum and count: the mean of what was added, `None` for
/// nothing.
#[derive(Default)]
struct Mean {
    sum: f64,
    count: usize,
}

impl Mean {
    fn add(&mut self, x: Option<f64>) {
        if let Some(x) = x {
            self.sum += x;
            self.count += 1;
        }
    }

    fn mean(&self) -> Option<f64> {
        (self.count > 0).then(|| self.sum / self.count as f64)
    }
}

/// One segment's running sums across repetitions.
struct SegmentTally {
    protocol: crate::scenario::Protocol,
    nodes: usize,
    resilience: f64,
    discovery_round: Mean,
    stability_round: Mean,
}

/// [`aggregate`]'s running sums, folded one result at a time in
/// repetition order — the order the sums of the slice version ran in,
/// so both give the same bits.
struct Tally {
    runs: usize,
    resilience: f64,
    /// Laid out by the first result: every repetition runs the same
    /// population spec, so segment `k` lines up across results.
    segments: Vec<SegmentTally>,
    /// The paper-literal all-nodes round when reached, else the
    /// scale-robust mean-based round.
    discovery: Mean,
    stability: Mean,
    /// Best-identification precision, recall and F1.
    identification: [Mean; 3],
    availability: Mean,
    time_to_recover: Mean,
    audit_detection_latency: Mean,
    audit_convictions: Mean,
    audit_false_accusations: Mean,
}

impl Tally {
    fn new(first: &RunResult) -> Self {
        Self {
            runs: 0,
            resilience: 0.0,
            segments: first
                .segments
                .iter()
                .map(|seg| SegmentTally {
                    protocol: seg.protocol,
                    nodes: seg.nodes,
                    resilience: 0.0,
                    discovery_round: Mean::default(),
                    stability_round: Mean::default(),
                })
                .collect(),
            discovery: Mean::default(),
            stability: Mean::default(),
            identification: Default::default(),
            availability: Mean::default(),
            time_to_recover: Mean::default(),
            audit_detection_latency: Mean::default(),
            audit_convictions: Mean::default(),
            audit_false_accusations: Mean::default(),
        }
    }

    fn add(&mut self, r: &RunResult) {
        self.runs += 1;
        self.resilience += r.resilience;
        for (tally, seg) in self.segments.iter_mut().zip(&r.segments) {
            tally.resilience += seg.resilience;
            tally.discovery_round.add(seg.mean_discovery_round);
            tally
                .stability_round
                .add(seg.stability_round.map(|x| x as f64));
        }
        let discovery = r
            .discovery_round
            .map(|x| x as f64)
            .or(r.mean_discovery_round);
        self.discovery.add(discovery);
        self.stability.add(r.stability_round.map(|x| x as f64));
        if let Some(i) = r.identification {
            for (mean, x) in self
                .identification
                .iter_mut()
                .zip([i.precision, i.recall, i.f1])
            {
                mean.add(Some(x));
            }
        }
        let recovery = r.recovery.as_ref();
        self.availability.add(recovery.map(|rec| rec.availability));
        self.time_to_recover
            .add(recovery.and_then(|rec| rec.mean_time_to_recover));
        let audit = r.audit.as_ref();
        self.audit_detection_latency
            .add(audit.and_then(|a| a.mean_detection_latency));
        self.audit_convictions
            .add(audit.map(|a| a.convictions as f64));
        self.audit_false_accusations
            .add(audit.map(|a| a.false_accusations as f64));
    }

    fn finish(self) -> AggregatedResult {
        let n = self.runs as f64;
        let [precision, recall, f1] = self.identification.map(|m| m.mean().unwrap_or(0.0));
        AggregatedResult {
            resilience: self.resilience / n,
            segments: self
                .segments
                .into_iter()
                .map(|seg| SegmentAggregate {
                    protocol: seg.protocol,
                    nodes: seg.nodes,
                    resilience: seg.resilience / n,
                    discovery_round: seg.discovery_round.mean(),
                    stability_round: seg.stability_round.mean(),
                })
                .collect(),
            discovery_round: self.discovery.mean(),
            stability_round: self.stability.mean(),
            ident_precision: precision,
            ident_recall: recall,
            ident_f1: f1,
            repetitions: self.runs,
            discovery_success: self.discovery.count as f64 / n,
            stability_success: self.stability.count as f64 / n,
            availability: self.availability.mean(),
            time_to_recover: self.time_to_recover.mean(),
            audit_detection_latency: self.audit_detection_latency.mean(),
            audit_convictions: self.audit_convictions.mean(),
            audit_false_accusations: self.audit_false_accusations.mean(),
        }
    }
}

/// Resilience improvement (%) of `raptee` over `baseline` — "the
/// percentage drop in the number of Byzantine identifiers in the views of
/// correct nodes".
pub fn resilience_improvement_pct(baseline: &AggregatedResult, raptee: &AggregatedResult) -> f64 {
    if baseline.resilience <= 0.0 {
        return 0.0;
    }
    (baseline.resilience - raptee.resilience) / baseline.resilience * 100.0
}

/// Round overhead (%) of `raptee` relative to `baseline` for a metric
/// expressed in rounds (discovery or stability). `None` when either side
/// never reached the metric.
pub fn round_overhead_pct(baseline: Option<f64>, raptee: Option<f64>) -> Option<f64> {
    match (baseline, raptee) {
        (Some(b), Some(r)) if b > 0.0 => Some((r - b) / b * 100.0),
        _ => None,
    }
}

/// Runs a full (f, t) grid for one eviction policy — the shape of
/// Figs. 5–9 — in parallel. Returns `(f, t, raptee_result)` triples plus
/// a baseline per `f` value.
pub fn sweep_grid(
    template: &Scenario,
    byzantine_fractions: &[f64],
    trusted_fractions: &[f64],
    repetitions: usize,
) -> SweepResults {
    let cells = sweep_cells(template, byzantine_fractions, trusted_fractions);
    let baselines = cells
        .baselines
        .into_par_iter()
        .map(|(f, s)| (f, run_repeated(&s, repetitions)))
        .collect();
    let grid = cells
        .grid
        .into_par_iter()
        .map(|(f, t, s)| (f, t, run_repeated(&s, repetitions)))
        .collect();
    SweepResults { baselines, grid }
}

/// The scenarios [`sweep_grid`] runs: a Brahms baseline per Byzantine
/// fraction `f`, then the RAPTEE `(f, t)` grid row by row.
pub fn sweep_cells(
    template: &Scenario,
    byzantine_fractions: &[f64],
    trusted_fractions: &[f64],
) -> SweepResults<Scenario> {
    let baselines = byzantine_fractions
        .iter()
        .map(|&f| {
            let mut s = template.brahms_baseline();
            s.byzantine_fraction = f;
            (f, s)
        })
        .collect();
    let grid = byzantine_fractions
        .iter()
        .flat_map(|&f| {
            trusted_fractions.iter().map(move |&t| {
                let mut s = template.clone();
                s.byzantine_fraction = f;
                s.trusted_fraction = t;
                (f, t, s)
            })
        })
        .collect();
    SweepResults { baselines, grid }
}

/// Output of [`sweep_grid`]; with `T = Scenario`, its input
/// ([`sweep_cells`]).
#[derive(Debug, Clone)]
pub struct SweepResults<T = AggregatedResult> {
    /// Brahms baseline per Byzantine fraction.
    pub baselines: Vec<(f64, T)>,
    /// RAPTEE cell per (f, t) grid point.
    pub grid: Vec<(f64, f64, T)>,
}

impl<T> SweepResults<T> {
    /// The baseline for Byzantine fraction `f`.
    pub fn baseline(&self, f: f64) -> Option<&T> {
        self.baselines
            .iter()
            .find(|(bf, _)| (bf - f).abs() < 1e-12)
            .map(|(_, r)| r)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::IdentificationResult;
    use crate::scenario::Protocol;

    /// Runs repetitions `0..repetitions` of `scenario` in parallel, all
    /// results held at once and in repetition order: the reference
    /// [`run_repeated`] folds chunk by chunk.
    fn run_repetitions(scenario: &Scenario, repetitions: usize) -> Vec<RunResult> {
        check_repetitions(repetitions);
        (0..repetitions)
            .into_par_iter()
            .map(|k| run_scenario(repetition(scenario, k)))
            .collect()
    }

    /// Aggregates a set of run results into means, in one fold.
    ///
    /// # Panics
    ///
    /// Panics on an empty slice.
    fn aggregate(results: &[RunResult]) -> AggregatedResult {
        assert!(!results.is_empty(), "cannot aggregate zero results");
        let mut tally = Tally::new(&results[0]);
        results.iter().for_each(|r| tally.add(r));
        tally.finish()
    }

    fn tiny() -> Scenario {
        Scenario {
            n: 80,
            byzantine_fraction: 0.1,
            trusted_fraction: 0.05,
            view_size: 10,
            sample_size: 10,
            rounds: 25,
            tail_window: 5,
            seed: 7,
            ..Scenario::default()
        }
    }

    fn fake_result(resilience: f64, discovery: Option<usize>) -> RunResult {
        RunResult {
            resilience,
            discovery_round: discovery,
            mean_discovery_round: discovery.map(|d| d as f64),
            stability_round: discovery.map(|d| d + 5),
            spread_stability_round: None,
            byz_share_series: vec![resilience],
            identification: Some(IdentificationResult {
                precision: 0.5,
                recall: 0.25,
                f1: 1.0 / 3.0,
                round: 3,
            }),
            rounds: 10,
            floods_detected: 0,
            total_evicted: 0,
            seed_rotations: 0,
            segments: vec![crate::metrics::SegmentResult {
                protocol: Protocol::Raptee,
                nodes: 72,
                resilience,
                mean_discovery_round: discovery.map(|d| d as f64),
                stability_round: discovery.map(|d| d + 5),
                byz_share_series: vec![resilience],
            }],
            virtual_ticks: 10,
            net: None,
            recovery: None,
            audit: None,
        }
    }

    #[test]
    fn aggregate_means() {
        let agg = aggregate(&[fake_result(0.2, Some(10)), fake_result(0.4, None)]);
        assert!((agg.resilience - 0.3).abs() < 1e-12);
        assert_eq!(agg.discovery_round, Some(10.0));
        assert_eq!(agg.discovery_success, 0.5);
        assert_eq!(agg.repetitions, 2);
        assert!((agg.ident_precision - 0.5).abs() < 1e-12);
    }

    #[test]
    fn aggregate_folds_recovery_metrics() {
        let quiet = fake_result(0.2, Some(10));
        let mut churned = fake_result(0.4, None);
        churned.recovery = Some(crate::metrics::RecoveryStats {
            availability: 0.9,
            crashes: 4,
            restarts: 3,
            recovered: 2,
            mean_time_to_recover: Some(12.0),
            trusted_live_fraction: Vec::new(),
        });
        let agg = aggregate(&[quiet.clone(), churned.clone()]);
        // Only repetitions that tracked recovery contribute to the mean.
        assert_eq!(agg.availability, Some(0.9));
        assert_eq!(agg.time_to_recover, Some(12.0));
        let off = aggregate(&[quiet]);
        assert_eq!(off.availability, None);
        assert_eq!(off.time_to_recover, None);
        // A tracked repetition where nothing re-stabilised yields an
        // availability mean but no TTR.
        churned.recovery.as_mut().unwrap().mean_time_to_recover = None;
        let agg = aggregate(&[churned]);
        assert_eq!(agg.availability, Some(0.9));
        assert_eq!(agg.time_to_recover, None);
    }

    #[test]
    fn aggregate_folds_audit_metrics() {
        let plain = fake_result(0.2, Some(10));
        let mut audited = fake_result(0.4, None);
        audited.audit = Some(crate::metrics::AuditStats {
            audits_issued: 40,
            audits_answered: 30,
            cleared: 25,
            suspected: 5,
            convictions: 10,
            false_accusations: 0,
            detected_byzantine: 10,
            mean_detection_latency: Some(8.0),
            quarantine_series: vec![0, 4, 10],
            commitments_recorded: 100,
            chain_restarts: 1,
        });
        let agg = aggregate(&[plain.clone(), audited.clone()]);
        // Only repetitions that ran the challenger contribute.
        assert_eq!(agg.audit_detection_latency, Some(8.0));
        assert_eq!(agg.audit_convictions, Some(10.0));
        assert_eq!(agg.audit_false_accusations, Some(0.0));
        let off = aggregate(&[plain]);
        assert_eq!(off.audit_detection_latency, None);
        assert_eq!(off.audit_convictions, None);
        assert_eq!(off.audit_false_accusations, None);
        // An audited repetition that convicted nothing still reports
        // conviction counts, just no latency.
        audited.audit.as_mut().unwrap().mean_detection_latency = None;
        audited.audit.as_mut().unwrap().convictions = 0;
        audited.audit.as_mut().unwrap().detected_byzantine = 0;
        let agg = aggregate(&[audited]);
        assert_eq!(agg.audit_detection_latency, None);
        assert_eq!(agg.audit_convictions, Some(0.0));
    }

    #[test]
    fn improvement_and_overhead_formulas() {
        let base = aggregate(&[fake_result(0.4, Some(100))]);
        let new = aggregate(&[fake_result(0.3, Some(110))]);
        let imp = resilience_improvement_pct(&base, &new);
        assert!((imp - 25.0).abs() < 1e-9);
        let ovh = round_overhead_pct(base.discovery_round, new.discovery_round).unwrap();
        assert!((ovh - 10.0).abs() < 1e-9);
        assert_eq!(round_overhead_pct(None, Some(1.0)), None);
        assert_eq!(round_overhead_pct(Some(0.0), Some(1.0)), None);
    }

    #[test]
    fn repeated_runs_aggregate() {
        let agg = run_repeated(&tiny(), 2);
        assert_eq!(agg.repetitions, 2);
        assert!(agg.resilience > 0.0 && agg.resilience < 1.0);
    }

    #[test]
    fn repeated_churn_runs_surface_availability() {
        let mut s = tiny();
        s.churn = crate::scenario::ChurnSchedule::steady(0.02, 0.4);
        let agg = run_repeated(&s, 2);
        let availability = agg.availability.expect("churn runs track availability");
        assert!(availability > 0.0 && availability < 1.0);
    }

    #[test]
    fn repeated_is_the_aggregate_of_the_repetitions() {
        let runs = run_repetitions(&tiny(), 3);
        assert_eq!(runs.len(), 3);
        assert_eq!(runs[0], run_scenario(repetition(&tiny(), 0)));
        assert_eq!(aggregate(&runs), run_repeated(&tiny(), 3));
    }

    #[test]
    fn repeated_runs_are_reproducible() {
        let a = run_repeated(&tiny(), 2);
        let b = run_repeated(&tiny(), 2);
        assert_eq!(a, b);
    }

    #[test]
    fn sweep_covers_grid() {
        let mut template = tiny();
        template.protocol = Protocol::Raptee;
        let sweep = sweep_grid(&template, &[0.1, 0.2], &[0.01, 0.1], 1);
        assert_eq!(sweep.baselines.len(), 2);
        assert_eq!(sweep.grid.len(), 4);
        assert!(sweep.baseline(0.1).is_some());
        assert!(sweep.baseline(0.15).is_none());
    }

    #[test]
    #[should_panic(expected = "at least one repetition")]
    fn zero_repetitions_rejected() {
        run_repeated(&tiny(), 0);
    }

    #[test]
    #[should_panic(expected = "zero results")]
    fn aggregate_empty_rejected() {
        aggregate(&[]);
    }
}
