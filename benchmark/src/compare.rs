//! `compare A.json B.json`: is B no worse than A, metric by metric and
//! workload by workload, within the bounds `BENCHMARK.json` fixes?

use crate::json::Json;
use crate::report::{best, Better, END_TO_END};
use crate::stats::quartiles;
use std::fmt;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Ok,
    Regressed,
    /// The run-to-run spread is wider than the bound, so the two sides
    /// cannot be told apart: not "unchanged".
    Unresolved,
}

impl fmt::Display for Verdict {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.pad(match self {
            Verdict::Ok => "ok",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
        })
    }
}

/// By what share of `a` is `b` worse (negative when it is better).
fn worse_by(better: Better, a: f64, b: f64) -> f64 {
    match better {
        Better::Lower => (b - a) / a,
        Better::Higher => (a - b) / a,
    }
}

/// The verdict on one metric of one workload from the repetitions of
/// each side. Each side reads as its best repetition. Within the bound
/// is `Ok` and beyond it `Regressed`, unless either side's own spread
/// (quartile distance over median) exceeds the bound: then only a clean
/// separation counts, every repetition of one side beyond every
/// repetition of the other, and anything else is `Unresolved`.
pub fn verdict(better: Better, bound: f64, a: &[f64], b: &[f64]) -> Verdict {
    let worse = worse_by(better, best(better, a), best(better, b));
    let spread = |v: &[f64]| quartiles(v).map_or(0.0, |q| q.spread());
    if spread(a).max(spread(b)) <= bound {
        return if worse > bound {
            Verdict::Regressed
        } else {
            Verdict::Ok
        };
    }
    let all_b_beat_all_a = b
        .iter()
        .all(|&y| a.iter().all(|&x| worse_by(better, x, y) < 0.0));
    let all_b_trail_all_a = b
        .iter()
        .all(|&y| a.iter().all(|&x| worse_by(better, x, y) > 0.0));
    if all_b_beat_all_a {
        Verdict::Ok
    } else if all_b_trail_all_a && worse > bound {
        Verdict::Regressed
    } else {
        Verdict::Unresolved
    }
}

fn workload<'a>(results: &'a Json, name: &str) -> Option<&'a Json> {
    results
        .get("workloads")?
        .as_arr()
        .iter()
        .find(|w| w.get("name").and_then(Json::as_str) == Some(name))
}

fn samples(workload: &Json, metric: &str) -> Vec<f64> {
    workload
        .get("end_to_end")
        .and_then(|e| e.get(metric))
        .and_then(|m| m.get("samples"))
        .map(|s| s.as_arr().iter().filter_map(Json::as_f64).collect())
        .unwrap_or_default()
}

/// The end-to-end bounds of `BENCHMARK.json`, by metric name.
fn bounds(benchmark: &Json) -> Result<Vec<(String, f64)>, String> {
    benchmark
        .get("end_to_end")
        .ok_or("BENCHMARK.json has no end_to_end list")?
        .as_arr()
        .iter()
        .map(|m| {
            let name = m.get("name").and_then(Json::as_str);
            let bound = m.get("bound").and_then(Json::as_f64);
            Some((name?.to_string(), bound?))
        })
        .collect::<Option<_>>()
        .ok_or_else(|| "a BENCHMARK.json metric lacks its name or bound".to_string())
}

/// Prints one row per workload and returns whether B holds up: no
/// metric regressed, no operation newly failed, and every fingerprint
/// and work count identical.
pub fn compare(a: &Json, b: &Json, benchmark: &Json) -> Result<bool, String> {
    let bounds = bounds(benchmark)?;
    let mut holds = true;
    print!("{:<22}", "workload");
    for metric in &END_TO_END {
        print!(" {:<18}", metric.name);
    }
    println!(" {:<12} simulated", "failed_share");
    for wa in a.get("workloads").map(Json::as_arr).unwrap_or_default() {
        let name = wa
            .get("name")
            .and_then(Json::as_str)
            .ok_or("a workload without a name")?;
        let Some(wb) = workload(b, name) else {
            println!("{name:<22} missing from B");
            holds = false;
            continue;
        };
        let skipped = |w: &Json| w.get("status").and_then(Json::as_str) == Some("skipped");
        if skipped(wa) || skipped(wb) {
            println!("{name:<22} skipped");
            continue;
        }
        print!("{name:<22}");
        for metric in &END_TO_END {
            let bound = bounds
                .iter()
                .find(|(n, _)| n == metric.name)
                .map(|&(_, bound)| bound)
                .ok_or_else(|| format!("BENCHMARK.json sets no bound for {}", metric.name))?;
            let (sa, sb) = (samples(wa, metric.name), samples(wb, metric.name));
            if sa.is_empty() || sb.is_empty() {
                print!(" {:<18}", "missing");
                holds = false;
                continue;
            }
            let v = verdict(metric.better, bound, &sa, &sb);
            let (va, vb) = (best(metric.better, &sa), best(metric.better, &sb));
            let change = (vb - va) / va * 100.0;
            print!(" {:<18}", format!("{v} ({change:+.1}%)"));
            holds &= v != Verdict::Regressed;
        }
        // Any rise in failures is a regression: there is no bound.
        let failed_share = |w: &Json| {
            w.get("end_to_end")
                .and_then(|e| e.get("failed_share"))
                .and_then(|m| m.get("value"))
                .and_then(Json::as_f64)
                .unwrap_or(1.0)
        };
        let failures = if failed_share(wb) > failed_share(wa) {
            Verdict::Regressed
        } else {
            Verdict::Ok
        };
        holds &= failures == Verdict::Ok;
        let same = wa.get("fingerprint") == wb.get("fingerprint")
            && wa.get("fingerprint") != Some(&Json::Null)
            && wa.get("counts") == wb.get("counts");
        holds &= same;
        println!(
            " {failures:<12} {}",
            if same { "identical" } else { "DIFFERS" }
        );
    }
    Ok(holds)
}

#[cfg(test)]
mod tests {
    use super::*;
    use Better::{Higher, Lower};
    use Verdict::{Ok, Regressed, Unresolved};

    #[test]
    fn single_runs_compare_against_the_bound() {
        assert_eq!(verdict(Lower, 0.05, &[10.0], &[10.4]), Ok);
        assert_eq!(verdict(Lower, 0.05, &[10.0], &[10.6]), Regressed);
        assert_eq!(verdict(Lower, 0.05, &[10.0], &[7.0]), Ok);
        assert_eq!(verdict(Higher, 0.05, &[100.0], &[96.0]), Ok);
        assert_eq!(verdict(Higher, 0.05, &[100.0], &[94.0]), Regressed);
        assert_eq!(verdict(Higher, 0.05, &[100.0], &[130.0]), Ok);
    }

    #[test]
    fn each_side_reads_as_its_best_repetition() {
        // One slow repetition of B is interference, not a regression.
        assert_eq!(
            verdict(Lower, 0.05, &[10.0, 10.1, 10.2], &[10.1, 10.2, 10.3]),
            Ok
        );
        let a = [10.0, 10.1, 10.2, 10.1];
        assert_eq!(
            verdict(Lower, 0.05, &a, &[10.8, 10.9, 10.7, 10.8]),
            Regressed
        );
    }

    #[test]
    fn a_spread_wider_than_the_bound_needs_clean_separation() {
        let noisy = [10.0, 12.0, 14.0, 16.0];
        // Overlapping sides cannot be told apart.
        assert_eq!(
            verdict(Lower, 0.05, &noisy, &[10.2, 11.0, 15.0, 13.0]),
            Unresolved
        );
        assert_eq!(
            verdict(Lower, 0.05, &noisy, &[11.0, 13.0, 15.0, 17.0]),
            Unresolved
        );
        // Every run of B better than every run of A: resolved as ok.
        assert_eq!(verdict(Lower, 0.05, &noisy, &[9.0, 9.5, 9.9, 8.0]), Ok);
        // Every run of B worse than every run of A, beyond the bound.
        assert_eq!(
            verdict(Lower, 0.05, &noisy, &[17.0, 18.0, 19.0, 25.0]),
            Regressed
        );
        assert_eq!(
            verdict(Higher, 0.05, &[5.0, 6.0, 7.0, 8.0], &[1.0, 2.0, 3.0, 4.0]),
            Regressed
        );
    }

    fn results(run_s: &[f64], fingerprint: &str, failed: f64) -> Json {
        let metric = |values: &[f64]| {
            Json::obj([(
                "samples",
                Json::Arr(values.iter().map(|&v| Json::num(v)).collect()),
            )])
        };
        Json::obj([(
            "workloads",
            Json::Arr(vec![Json::obj([
                ("name", Json::str("w")),
                ("status", Json::str("ok")),
                ("fingerprint", Json::str(fingerprint)),
                ("counts", Json::obj([("c", Json::num(3.0))])),
                (
                    "end_to_end",
                    Json::obj([
                        ("setup_s", metric(&[1.0])),
                        ("run_s", metric(run_s)),
                        ("node_rounds_per_s", metric(&[50.0])),
                        ("peak_rss_mib", metric(&[64.0])),
                        ("failed_share", Json::obj([("value", Json::num(failed))])),
                    ]),
                ),
            ])]),
        )])
    }

    #[test]
    fn compare_holds_only_without_regression_failure_or_difference() {
        let benchmark = Json::obj([(
            "end_to_end",
            Json::Arr(
                END_TO_END
                    .iter()
                    .map(|m| Json::obj([("name", Json::str(m.name)), ("bound", Json::num(0.1))]))
                    .collect(),
            ),
        )]);
        let base = results(&[10.0], "0x1", 0.0);
        let holds = |b: &Json| compare(&base, b, &benchmark).unwrap();
        assert!(holds(&results(&[10.5], "0x1", 0.0)));
        assert!(!holds(&results(&[11.5], "0x1", 0.0)), "run_s regressed");
        assert!(!holds(&results(&[10.0], "0x2", 0.0)), "fingerprint differs");
        assert!(!holds(&results(&[10.0], "0x1", 0.5)), "new failures");
        assert!(compare(&base, &base, &Json::obj::<&str>([])).is_err());
    }
}
