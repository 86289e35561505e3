//! SGX cycle-overhead model (paper Table I).
//!
//! The paper instruments the five peer-sampling functions of the trusted
//! node, measures their CPU-cycle cost on real SGX NUCs vs an emulated
//! build, and then calibrates the 10,000-node emulation by adding "a
//! random delay that depends on the mean CPU-cycle overhead and follows
//! its standard deviation". This module encodes Table I verbatim, and
//! [`SgxOverheadModel::expected_round_overhead`] prices one trusted
//! round from its means. The simulation never applies the model; the
//! unit tests hold the table to the paper's figures and the Gaussian
//! calibration draw to the measured means and deviations.

/// The five instrumented peer-sampling functions of Table I.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub(crate) enum PeerSamplingFunction {
    /// Answering/issuing a pull request.
    PullRequest,
    /// Sending a push message.
    PushMessage,
    /// The trusted view-swap exchange.
    TrustedCommunications,
    /// Recomputing the sample list (the `l2` samplers).
    SampleListComputation,
    /// Renewing the dynamic view from pushes/pulls/history.
    DynamicViewComputation,
}

/// One row of Table I, in CPU cycles.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct OverheadRow {
    /// Cost outside SGX ("Standard" column).
    pub(crate) standard_cycles: u64,
    /// Cost inside SGX ("SGX" column).
    pub(crate) sgx_cycles: u64,
    /// Mean overhead (`sgx - standard`).
    pub(crate) mean_overhead: u64,
    /// Relative standard deviation of the overhead (e.g. `0.03` for 3 %).
    pub(crate) rel_std_dev: f64,
}

/// The Table I calibration model.
///
/// # Examples
///
/// ```
/// use raptee_tee::SgxOverheadModel;
///
/// let model = SgxOverheadModel::paper_table1();
/// // One pull, one push and one trusted exchange, plus the round's
/// // sample-list and dynamic-view recomputations.
/// let cycles = 2_970 + 1_661 + 1_671 + 2_340 + 2_619;
/// assert_eq!(model.expected_round_overhead(1, 1, 1), cycles);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct SgxOverheadModel {
    rows: [OverheadRow; 5],
}

impl SgxOverheadModel {
    /// The published Table I values.
    pub fn paper_table1() -> Self {
        let row = |standard: u64, sgx: u64, mean: u64, rel: f64| OverheadRow {
            standard_cycles: standard,
            sgx_cycles: sgx,
            mean_overhead: mean,
            rel_std_dev: rel,
        };
        Self {
            rows: [
                row(15_623, 18_593, 2_970, 0.03), // Pull request
                row(7_521, 9_182, 1_661, 0.03),   // Push message
                row(9_845, 11_516, 1_671, 0.03),  // Trusted communications
                row(13_024, 15_364, 2_340, 0.04), // Sample list comput.
                row(12_457, 15_076, 2_619, 0.02), // Dynamic view comput.
            ],
        }
    }

    /// Returns one Table I row.
    pub(crate) fn row(&self, func: PeerSamplingFunction) -> OverheadRow {
        self.rows[Self::index(func)]
    }

    /// Expected enclave cycle overhead of one protocol round for a
    /// trusted node issuing `pulls` pull exchanges, `pushes` push
    /// messages and `swaps` trusted communications (mean overheads, no
    /// sampling — the deterministic budget number the hybrid
    /// BASALT+TEE comparison reports next to its resilience figures).
    /// The per-round view and sample recomputations are charged once
    /// each.
    pub fn expected_round_overhead(&self, pulls: usize, pushes: usize, swaps: usize) -> u64 {
        let mean = |f: PeerSamplingFunction| self.row(f).mean_overhead;
        mean(PeerSamplingFunction::PullRequest) * pulls as u64
            + mean(PeerSamplingFunction::PushMessage) * pushes as u64
            + mean(PeerSamplingFunction::TrustedCommunications) * swaps as u64
            + mean(PeerSamplingFunction::SampleListComputation)
            + mean(PeerSamplingFunction::DynamicViewComputation)
    }

    fn index(func: PeerSamplingFunction) -> usize {
        match func {
            PeerSamplingFunction::PullRequest => 0,
            PeerSamplingFunction::PushMessage => 1,
            PeerSamplingFunction::TrustedCommunications => 2,
            PeerSamplingFunction::SampleListComputation => 3,
            PeerSamplingFunction::DynamicViewComputation => 4,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use raptee_util::rng::Xoshiro256StarStar;
    use raptee_util::stats::OnlineStats;

    /// All five functions in Table I row order.
    const ALL: [PeerSamplingFunction; 5] = [
        PeerSamplingFunction::PullRequest,
        PeerSamplingFunction::PushMessage,
        PeerSamplingFunction::TrustedCommunications,
        PeerSamplingFunction::SampleListComputation,
        PeerSamplingFunction::DynamicViewComputation,
    ];

    /// The row label used in Table I.
    fn label(func: PeerSamplingFunction) -> &'static str {
        match func {
            PeerSamplingFunction::PullRequest => "Pull request",
            PeerSamplingFunction::PushMessage => "Push message",
            PeerSamplingFunction::TrustedCommunications => "Trusted communications",
            PeerSamplingFunction::SampleListComputation => "Sample list comput.",
            PeerSamplingFunction::DynamicViewComputation => "Dynamic view comput.",
        }
    }

    /// The paper's calibration draw for one invocation of `func`: a
    /// Gaussian with the measured mean and relative standard deviation,
    /// truncated at zero (cycle counts cannot be negative).
    fn sample_overhead(
        m: &SgxOverheadModel,
        func: PeerSamplingFunction,
        rng: &mut Xoshiro256StarStar,
    ) -> u64 {
        let row = m.row(func);
        let mean = row.mean_overhead as f64;
        let sd = mean * row.rel_std_dev;
        let draw = mean + sd * gaussian(rng);
        draw.max(0.0).round() as u64
    }

    /// Standard normal draw via the Box–Muller transform.
    fn gaussian(rng: &mut Xoshiro256StarStar) -> f64 {
        // Avoid u1 == 0 exactly (log of zero).
        let u1 = (rng.next_f64()).max(f64::MIN_POSITIVE);
        let u2 = rng.next_f64();
        (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
    }

    #[test]
    fn table1_rows_match_paper() {
        let m = SgxOverheadModel::paper_table1();
        let expect = [
            (15_623u64, 18_593u64, 2_970u64, 0.03),
            (7_521, 9_182, 1_661, 0.03),
            (9_845, 11_516, 1_671, 0.03),
            (13_024, 15_364, 2_340, 0.04),
            (12_457, 15_076, 2_619, 0.02),
        ];
        for (func, (std_c, sgx, mean, rel)) in ALL.into_iter().zip(expect) {
            let r = m.row(func);
            assert_eq!(r.standard_cycles, std_c, "{}", label(func));
            assert_eq!(r.sgx_cycles, sgx);
            assert_eq!(r.mean_overhead, mean);
            assert!((r.rel_std_dev - rel).abs() < 1e-12);
        }
    }

    #[test]
    fn sampled_overheads_match_calibration() {
        let m = SgxOverheadModel::paper_table1();
        let mut rng = Xoshiro256StarStar::seed_from_u64(7);
        for func in ALL {
            let row = m.row(func);
            let stats: OnlineStats = (0..20_000)
                .map(|_| sample_overhead(&m, func, &mut rng) as f64)
                .collect();
            let mean = row.mean_overhead as f64;
            assert!(
                (stats.mean() - mean).abs() / mean < 0.01,
                "{}: sampled mean {} vs calibrated {}",
                label(func),
                stats.mean(),
                mean
            );
            let sd = mean * row.rel_std_dev;
            assert!(
                (stats.sample_std_dev() - sd).abs() / sd < 0.05,
                "{}: sampled sd {} vs calibrated {}",
                label(func),
                stats.sample_std_dev(),
                sd
            );
        }
    }

    #[test]
    fn mean_overhead_consistent_with_columns() {
        // Table I's "mean overhead" column should be close to sgx-standard
        // (the published table rounds independently; allow small slack).
        let m = SgxOverheadModel::paper_table1();
        for func in ALL {
            let r = m.row(func);
            let diff = r.sgx_cycles - r.standard_cycles;
            assert!(
                (diff as i64 - r.mean_overhead as i64).abs() <= 10,
                "{}: {} vs {}",
                label(func),
                diff,
                r.mean_overhead
            );
        }
    }

    #[test]
    fn expected_round_overhead_sums_table_means() {
        let m = SgxOverheadModel::paper_table1();
        // 4 pulls + 4 pushes + 1 swap + the two per-round recomputations.
        let expected = 4 * 2_970 + 4 * 1_661 + 1_671 + 2_340 + 2_619;
        assert_eq!(m.expected_round_overhead(4, 4, 1), expected);
        // A node doing nothing still pays the round recomputations.
        assert_eq!(m.expected_round_overhead(0, 0, 0), 2_340 + 2_619);
    }

    #[test]
    fn each_message_kind_is_priced_by_its_own_row() {
        // The marginal cost of one more pull, push or swap is that row's
        // mean overhead: a model that mixed up the pull and push rows
        // would still price (4, 4, 1) right.
        let m = SgxOverheadModel::paper_table1();
        let base = m.expected_round_overhead(0, 0, 0);
        assert_eq!(m.expected_round_overhead(1, 0, 0) - base, 2_970);
        assert_eq!(m.expected_round_overhead(0, 1, 0) - base, 1_661);
        assert_eq!(m.expected_round_overhead(0, 0, 1) - base, 1_671);
    }

    #[test]
    fn round_overhead_is_linear_in_each_count() {
        let m = SgxOverheadModel::paper_table1();
        let base = m.expected_round_overhead(0, 0, 0);
        for (pulls, pushes, swaps) in [(3, 0, 0), (0, 7, 0), (0, 0, 2), (5, 2, 9)] {
            let cost = m.expected_round_overhead(pulls, pushes, swaps) - base;
            let parts = [(pulls, 0, 0), (0, pushes, 0), (0, 0, swaps)]
                .map(|(p, q, s)| m.expected_round_overhead(p, q, s) - base);
            assert_eq!(
                cost,
                parts.iter().sum::<u64>(),
                "({pulls}, {pushes}, {swaps})"
            );
        }
    }

    #[test]
    fn sgx_costs_more_than_standard_in_every_row() {
        let m = SgxOverheadModel::paper_table1();
        for func in ALL {
            let r = m.row(func);
            assert!(r.sgx_cycles > r.standard_cycles, "{}", label(func));
            assert!(
                r.mean_overhead > 0 && r.rel_std_dev > 0.0,
                "{}",
                label(func)
            );
        }
    }

    #[test]
    fn gaussian_moments() {
        let mut rng = Xoshiro256StarStar::seed_from_u64(3);
        let stats: OnlineStats = (0..100_000).map(|_| gaussian(&mut rng)).collect();
        assert!(stats.mean().abs() < 0.02, "mean {}", stats.mean());
        assert!((stats.sample_std_dev() - 1.0).abs() < 0.02);
    }
}
