//! Shared harness for the figure/table reproduction benches.
//!
//! Every bench target regenerates one table or figure of the paper and
//! prints (a) a human-readable aligned table with the same series the
//! paper plots and (b) machine-readable CSV, and writes the CSV under
//! `target/raptee-bench/` relative to the bench working directory
//! (`crates/bench/target/raptee-bench/` under `cargo bench`).
//! EXPERIMENTS.md records paper-vs-measured for
//! each target.
//!
//! ## Scale profiles
//!
//! The paper runs 10,000 nodes × 200 rounds × 10 repetitions per grid
//! point on Grid'5000. That grid is ~700 runs per figure — out of reach
//! for a laptop-class `cargo bench`. The benches therefore default to a
//! reduced profile that preserves every *ratio* the protocol depends on
//! (f, t, α/β/γ, adversary budget per identity) and shrinks `N`, the
//! view size and the repetition count. Select with `RAPTEE_SCALE`:
//!
//! | profile | N | view | rounds | reps | use |
//! |---|---|---|---|---|---|
//! | `tiny` | 150 | 12 | 250 | 1 | smoke test (~seconds/figure) |
//! | `small` (default) | 400 | 16 | 600 | 2 | shape reproduction |
//! | `medium` | 1000 | 24 | 600 | 3 | tighter curves |
//! | `paper` | 10000 | 200 | 200 | 10 | the published setup |
//! | `million` | 1000000 | 16 | 12 | 1 | memory-scaling run (sketched discovery) |
//!
//! The `million` profile drives `perf_paper_scale` and
//! `raptee-cli run --scale million`, never a figure sweep (those would
//! take days at that population); discovery metrics run on the HLL
//! sketches — see the "Scale profiles" section of README.md for the
//! accuracy caveat and memory budget.

use raptee_sim::{runner, AggregatedResult, Scenario};
use raptee_util::series::SeriesTable;
use std::io::Write as _;

/// One scale profile; see the crate docs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Scale {
    /// Profile name.
    pub name: &'static str,
    /// Population size.
    pub n: usize,
    /// View (and sample-list) size.
    pub view: usize,
    /// Rounds per run.
    pub rounds: usize,
    /// Repetitions per grid point.
    pub reps: usize,
}

impl Scale {
    /// Looks up one profile by name (the `RAPTEE_SCALE` values).
    pub fn named(name: &str) -> Option<Self> {
        match name {
            "tiny" => Some(Scale {
                name: "tiny",
                n: 150,
                view: 12,
                rounds: 250,
                reps: 1,
            }),
            "small" => Some(Scale {
                name: "small",
                n: 400,
                view: 16,
                rounds: 600,
                reps: 2,
            }),
            "medium" => Some(Scale {
                name: "medium",
                n: 1000,
                view: 24,
                rounds: 600,
                reps: 3,
            }),
            "paper" => Some(Scale {
                name: "paper",
                n: 10_000,
                view: 200,
                rounds: 200,
                reps: 10,
            }),
            "million" => Some(Scale {
                name: "million",
                n: 1_000_000,
                view: 16,
                rounds: 12,
                reps: 1,
            }),
            _ => None,
        }
    }

    /// Reads `RAPTEE_SCALE` (default `small`).
    ///
    /// # Panics
    ///
    /// Panics on an unknown profile name.
    pub fn from_env() -> Self {
        match std::env::var("RAPTEE_SCALE") {
            Err(_) => Scale::named("small").expect("small profile exists"),
            Ok(name) => Scale::named(&name).unwrap_or_else(|| {
                panic!("unknown RAPTEE_SCALE {name:?} (tiny|small|medium|paper|million)")
            }),
        }
    }

    /// A scenario template at this scale. The `paper` profile is
    /// [`Scenario::paper_scale`], the published setup down to its
    /// paper-literal flood threshold; the others start from
    /// [`Scenario::default`].
    pub fn scenario(&self) -> Scenario {
        let base = if self.name == "paper" {
            Scenario::paper_scale()
        } else {
            Scenario::default()
        };
        Scenario {
            n: self.n,
            view_size: self.view,
            sample_size: self.view,
            rounds: self.rounds,
            tail_window: tail_window(self.rounds),
            ..base
        }
    }
}

/// The resilience tail a run of `rounds` averages: the last tenth of
/// the run, at least five rounds.
pub fn tail_window(rounds: usize) -> usize {
    (rounds / 10).max(5)
}

/// The Byzantine proportions of the figures' x axes (paper: 10 %–30 %,
/// step 2; the reduced profiles step 4 to bound the grid).
pub fn byzantine_fractions(scale: &Scale) -> Vec<f64> {
    if scale.name == "paper" {
        (0..=10).map(|i| 0.10 + 0.02 * i as f64).collect()
    } else {
        (0..=5).map(|i| 0.10 + 0.04 * i as f64).collect()
    }
}

/// The trusted proportions of Figs. 5–12: {1, 5, 10, 20, 30, 50} %.
pub fn trusted_fractions() -> Vec<f64> {
    vec![0.01, 0.05, 0.10, 0.20, 0.30, 0.50]
}

/// Prints a figure section header.
pub fn header(id: &str, caption: &str, scale: &Scale) {
    println!();
    println!("=== {id} — {caption} ===");
    println!(
        "    scale {}: N={}, view={}, rounds={}, reps={}  (set RAPTEE_SCALE=paper for the published setup)",
        scale.name, scale.n, scale.view, scale.rounds, scale.reps
    );
    println!();
}

/// Prints a table and writes its CSV under `target/raptee-bench/<id>.csv`.
pub fn emit(id: &str, subtitle: &str, table: &SeriesTable) {
    println!("--- {subtitle} ---");
    print!("{table}");
    println!();
    let dir = std::path::Path::new("target").join("raptee-bench");
    if std::fs::create_dir_all(&dir).is_ok() {
        let path = dir.join(format!("{id}.csv"));
        if let Ok(mut f) = std::fs::File::create(&path) {
            let _ = f.write_all(table.to_csv().as_bytes());
        }
    }
}

/// Runs the three-panel comparison of Figs. 5–9 for one eviction policy:
/// (a) resilience improvement %, (b) discovery-round overhead %,
/// (c) stability-round overhead %, one series per trusted fraction.
pub fn run_resilience_figure(id: &str, caption: &str, eviction: raptee::EvictionPolicy) {
    let scale = Scale::from_env();
    header(id, caption, &scale);
    let mut template = scale.scenario();
    template.eviction = eviction;
    let fs = byzantine_fractions(&scale);
    let ts = trusted_fractions();
    let sweep = runner::sweep_grid(&template, &fs, &ts, scale.reps);

    let mut resilience = SeriesTable::new("f(%)");
    let mut discovery = SeriesTable::new("f(%)");
    let mut stability = SeriesTable::new("f(%)");
    for (f, t, result) in &sweep.grid {
        let base = sweep.baseline(*f).expect("baseline exists for every f");
        let series = format!("t={}%", (t * 100.0).round());
        resilience.insert(
            series.clone(),
            f * 100.0,
            runner::resilience_improvement_pct(base, result),
        );
        if let Some(o) = runner::round_overhead_pct(base.discovery_round, result.discovery_round) {
            discovery.insert(series.clone(), f * 100.0, o);
        }
        if let Some(o) = runner::round_overhead_pct(base.stability_round, result.stability_round) {
            stability.insert(series, f * 100.0, o);
        }
    }
    emit(
        &format!("{id}a"),
        "(a) Byzantine resilience gain (%)",
        &resilience,
    );
    emit(
        &format!("{id}b"),
        "(b) Round overhead for system discovery (%)",
        &discovery,
    );
    emit(
        &format!("{id}c"),
        "(c) Round overhead to reach view stability (%)",
        &stability,
    );
}

/// Runs an identification-attack figure (Figs. 10–11): recall, precision
/// and F1 versus the trusted proportion, one series per eviction rate.
pub fn run_identification_figure(id: &str, caption: &str, byzantine_fraction: f64) {
    let scale = Scale::from_env();
    header(id, caption, &scale);
    let ers = [0.0, 0.2, 0.4, 0.6, 0.8, 1.0];
    let mut recall = SeriesTable::new("t(%)");
    let mut precision = SeriesTable::new("t(%)");
    let mut f1 = SeriesTable::new("t(%)");
    for &er in &ers {
        for &t in &trusted_fractions() {
            let mut s = scale.scenario();
            s.byzantine_fraction = byzantine_fraction;
            s.trusted_fraction = t;
            s.eviction = raptee::EvictionPolicy::Fixed(er);
            s.identification_attack = true;
            let agg = runner::run_repeated(&s, scale.reps);
            let series = format!("ER-{}%", (er * 100.0).round());
            recall.insert(series.clone(), t * 100.0, agg.ident_recall);
            precision.insert(series.clone(), t * 100.0, agg.ident_precision);
            f1.insert(series, t * 100.0, agg.ident_f1);
        }
    }
    emit(&format!("{id}a"), "(a) Recall", &recall);
    emit(&format!("{id}b"), "(b) Precision", &precision);
    emit(&format!("{id}c"), "(c) F1-score", &f1);
}

/// Formats an aggregated result row for free-form prints.
pub fn describe(result: &AggregatedResult) -> String {
    format!(
        "resilience={:.3} discovery={} stability={}",
        result.resilience,
        result
            .discovery_round
            .map_or_else(|| "-".to_string(), |r| format!("{r:.0}")),
        result
            .stability_round
            .map_or_else(|| "-".to_string(), |r| format!("{r:.0}")),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_paper_profile_is_the_published_setup() {
        let paper = Scale::named("paper").expect("paper profile exists");
        assert_eq!(paper.scenario(), Scenario::paper_scale());
        assert_eq!(paper.scenario().flood_slack_sigmas, 0.0);
        // The reduced profiles keep the reduced-scale flood slack.
        let small = Scale::named("small").expect("small profile exists");
        assert_eq!(
            small.scenario().flood_slack_sigmas,
            Scenario::default().flood_slack_sigmas
        );
    }
}
