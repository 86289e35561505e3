//! The correctness gate: result fingerprints, the invariants that hold
//! at any seed, and the exact work counts read from `RunResult`.
//!
//! A faster run is only a gain if it simulated the same thing. Results
//! are bit-identical per seed at any thread count, so one `u64` folded
//! over every simulated statistic is enough to tell.

use raptee_sim::runner::{AggregatedResult, SweepResults};
use raptee_sim::RunResult;
use raptee_util::mix64;

/// An order-sensitive fold of `u64` words.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fold(u64);

impl Fold {
    pub fn new() -> Self {
        Fold(0x5EED_F01D)
    }

    pub fn word(&mut self, x: u64) {
        self.0 = mix64(self.0.rotate_left(7) ^ x);
    }

    pub fn float(&mut self, x: f64) {
        self.word(x.to_bits());
    }

    /// `None` and `Some(0)` must differ, so the tag is folded too.
    pub fn option(&mut self, x: Option<u64>) {
        self.word(u64::from(x.is_some()));
        self.word(x.unwrap_or(0));
    }

    /// Rotate-xor of the bits of a series, then its length: one word
    /// per series however long the run.
    pub fn series(&mut self, values: &[f64]) {
        let bits = values
            .iter()
            .fold(0u64, |acc, v| acc.rotate_left(1) ^ v.to_bits());
        self.word(bits);
        self.word(values.len() as u64);
    }

    pub fn finish(self) -> u64 {
        self.0
    }
}

/// Fingerprint of one simulation's result.
pub fn fingerprint_run(r: &RunResult) -> u64 {
    let mut f = Fold::new();
    f.float(r.resilience);
    f.series(&r.byz_share_series);
    f.option(r.discovery_round.map(|x| x as u64));
    f.option(r.mean_discovery_round.map(f64::to_bits));
    f.option(r.stability_round.map(|x| x as u64));
    f.option(r.spread_stability_round.map(|x| x as u64));
    f.word(r.rounds as u64);
    f.word(r.floods_detected);
    f.word(r.total_evicted);
    f.word(r.seed_rotations);
    f.word(r.virtual_ticks);
    f.word(u64::from(r.net.is_some()));
    if let Some(n) = &r.net {
        for x in [
            n.late_deliveries,
            n.partition_held,
            n.partition_released,
            n.nat_blocked,
            n.refused_pulls,
            n.in_flight_at_end,
            n.retries_issued,
            n.duplicates_suppressed,
            n.nonce_evictions,
        ] {
            f.word(x);
        }
    }
    f.word(u64::from(r.audit.is_some()));
    if let Some(a) = &r.audit {
        for x in [
            a.audits_issued,
            a.audits_answered,
            a.cleared,
            a.suspected,
            a.convictions,
            a.false_accusations,
            a.detected_byzantine,
            a.commitments_recorded,
            a.chain_restarts,
        ] {
            f.word(x);
        }
        f.option(a.mean_detection_latency.map(f64::to_bits));
        f.word(a.quarantine_series.len() as u64);
        f.word(a.quarantine_series.last().map_or(0, |&q| u64::from(q)));
    }
    f.word(u64::from(r.recovery.is_some()));
    if let Some(rec) = &r.recovery {
        f.float(rec.availability);
        f.word(rec.crashes);
        f.word(rec.restarts);
        f.word(rec.recovered);
        f.option(rec.mean_time_to_recover.map(f64::to_bits));
        f.series(&rec.trusted_live_fraction);
    }
    f.word(r.segments.len() as u64);
    for seg in &r.segments {
        f.word(seg.nodes as u64);
        f.float(seg.resilience);
    }
    f.finish()
}

fn fold_cell(f: &mut Fold, cell: &AggregatedResult) {
    f.float(cell.resilience);
    f.option(cell.discovery_round.map(f64::to_bits));
    f.option(cell.stability_round.map(f64::to_bits));
    f.float(cell.discovery_success);
    f.float(cell.stability_success);
    f.word(cell.repetitions as u64);
    for seg in &cell.segments {
        f.float(seg.resilience);
    }
}

/// Every cell of a sweep in `sweep_grid`'s order: baselines, then grid.
pub fn sweep_cells(sweep: &SweepResults) -> impl Iterator<Item = &AggregatedResult> {
    sweep
        .baselines
        .iter()
        .map(|(_, cell)| cell)
        .chain(sweep.grid.iter().map(|(_, _, cell)| cell))
}

/// Fingerprint of a whole sweep, folded in grid order.
pub fn fingerprint_sweep(sweep: &SweepResults) -> u64 {
    let mut f = Fold::new();
    for cell in sweep_cells(sweep) {
        fold_cell(&mut f, cell);
    }
    f.finish()
}

/// What must hold for one simulation at any seed; the empty list means
/// the result passes.
pub fn run_violations(r: &RunResult, rounds: usize) -> Vec<String> {
    let mut broken = Vec::new();
    let mut check = |ok: bool, what: String| {
        if !ok {
            broken.push(what);
        }
    };
    check(
        r.rounds == rounds,
        format!("completed {} of {rounds} rounds", r.rounds),
    );
    check(
        r.byz_share_series.len() == rounds,
        format!(
            "byz_share_series has {} entries for {rounds} rounds",
            r.byz_share_series.len()
        ),
    );
    let shares = std::iter::once(r.resilience).chain(r.segments.iter().map(|s| s.resilience));
    for share in shares {
        check(
            (0.0..=1.0).contains(&share),
            format!("resilience {share} outside [0, 1]"),
        );
    }
    if let Some(a) = &r.audit {
        check(
            a.false_accusations == 0,
            format!("{} correct nodes were convicted", a.false_accusations),
        );
    }
    if let Some(n) = &r.net {
        check(
            n.partition_released <= n.partition_held,
            format!(
                "released {} messages but held {}",
                n.partition_released, n.partition_held
            ),
        );
    }
    broken
}

/// The any-seed invariants of one sweep cell.
pub fn cell_violations(cell: &AggregatedResult, repetitions: usize) -> Vec<String> {
    let mut broken = Vec::new();
    if cell.repetitions != repetitions {
        broken.push(format!(
            "cell aggregated {} of {repetitions} repetitions",
            cell.repetitions
        ));
    }
    if !(0.0..=1.0).contains(&cell.resilience) {
        broken.push(format!("resilience {} outside [0, 1]", cell.resilience));
    }
    broken
}

/// Name and unit of every work count, in the order [`work_counts`]
/// returns them.
pub const WORK_COUNTS: [(&str, &str); 16] = [
    ("sim.event.late_deliveries", "count"),
    ("sim.event.retries_issued", "count"),
    ("sim.event.duplicates_suppressed", "count"),
    ("sim.event.partition_held", "count"),
    ("sim.event.nonce_evictions", "count"),
    ("sim.event.in_flight_at_end", "count"),
    ("sim.audit.audits_issued", "count"),
    ("sim.audit.convictions", "count"),
    ("sim.audit.commitments_recorded", "count"),
    ("sim.audit.false_accusations", "count"),
    ("sim.engine.crashes", "count"),
    ("sim.engine.restarts", "count"),
    ("brahms.floods_detected", "count"),
    ("raptee.total_evicted", "count"),
    ("basalt.seed_rotations", "count"),
    ("sim.metrics.resilience", "share"),
];

/// The work counts of one run: exact and thread-invariant, so two
/// commits compare digit for digit. A subsystem that is off did no
/// work, which is a count of 0.
pub fn work_counts(r: &RunResult) -> [f64; 16] {
    let net = r.net.unwrap_or_default();
    let (issued, convictions, commitments, false_accusations) =
        r.audit.as_ref().map_or((0, 0, 0, 0), |a| {
            (
                a.audits_issued,
                a.convictions,
                a.commitments_recorded,
                a.false_accusations,
            )
        });
    let (crashes, restarts) = r
        .recovery
        .as_ref()
        .map_or((0, 0), |rec| (rec.crashes, rec.restarts));
    [
        net.late_deliveries as f64,
        net.retries_issued as f64,
        net.duplicates_suppressed as f64,
        net.partition_held as f64,
        net.nonce_evictions as f64,
        net.in_flight_at_end as f64,
        issued as f64,
        convictions as f64,
        commitments as f64,
        false_accusations as f64,
        crashes as f64,
        restarts as f64,
        r.floods_detected as f64,
        r.total_evicted as f64,
        r.seed_rotations as f64,
        r.resilience,
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fold_depends_on_order_value_and_presence() {
        let of = |words: &[u64]| {
            let mut f = Fold::new();
            words.iter().for_each(|&w| f.word(w));
            f.finish()
        };
        assert_eq!(of(&[1, 2, 3]), of(&[1, 2, 3]));
        assert_ne!(of(&[1, 2, 3]), of(&[3, 2, 1]));
        assert_ne!(of(&[1, 2]), of(&[1, 2, 0]));
        assert_ne!(of(&[]), of(&[0]));

        let option = |x| {
            let mut f = Fold::new();
            f.option(x);
            f.finish()
        };
        assert_ne!(option(None), option(Some(0)));
        assert_ne!(option(Some(1)), option(Some(2)));
    }

    #[test]
    fn series_fold_sees_every_bit_order_and_length() {
        let series = |v: &[f64]| {
            let mut f = Fold::new();
            f.series(v);
            f.finish()
        };
        let base = [0.25, 0.5, 0.125];
        assert_eq!(series(&base), series(&base));
        assert_ne!(series(&base), series(&[0.5, 0.25, 0.125]));
        assert_ne!(
            series(&base),
            series(&[0.25, 0.5, f64::from_bits(0.125f64.to_bits() + 1)])
        );
        // A rotate-xor alone cannot tell trailing zeros apart; the length can.
        assert_ne!(series(&[0.0]), series(&[0.0, 0.0]));
        assert_ne!(series(&[]), series(&[0.0]));
    }
}
