//! What a child process does. Every pass runs in a fresh child of the
//! same binary, one at a time, so that its peak RSS is its own and a
//! panic cannot take the report down with it. The child's answer is
//! one JSON object, the last line of its standard output.

use crate::gate;
use crate::json::Json;
use crate::trace::{spans_to_json, workload_id, Tracer};
use crate::workloads::{Job, SweepSpec, Workload};
use raptee_net::NodeId;
use raptee_sim::{runner, Scenario, Simulation};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

/// The process's peak resident set, from `/proc/self/status`.
fn peak_rss_kib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find_map(|l| l.strip_prefix("VmHWM:"))?;
    line.trim().trim_end_matches("kB").trim().parse().ok()
}

/// What the gate found in one pass.
struct Checked {
    violations: Vec<String>,
    fingerprint: u64,
    counts: Vec<Option<f64>>,
}

fn run_single(scenario: Scenario) -> (f64, f64, Checked) {
    let rounds = scenario.rounds;
    let start = Instant::now();
    let sim = Simulation::new(scenario);
    let setup_s = start.elapsed().as_secs_f64();
    let start = Instant::now();
    let result = sim.run();
    let run_s = start.elapsed().as_secs_f64();
    let checked = Checked {
        violations: gate::run_violations(&result, rounds),
        fingerprint: gate::fingerprint_run(&result),
        counts: gate::work_counts(&result).map(Some).to_vec(),
    };
    (setup_s, run_s, checked)
}

fn run_sweep(spec: SweepSpec) -> (f64, f64, Checked) {
    // `sweep_grid` builds its populations itself, so set-up is timed
    // apart from it: every cell's scenario validated and constructed
    // once, which is what the sweep then pays 42 times inside `run_s`.
    let start = Instant::now();
    let cells = spec.cells();
    for cell in &cells {
        std::hint::black_box(Simulation::new(cell.clone()));
    }
    let setup_s = start.elapsed().as_secs_f64();
    let start = Instant::now();
    let sweep = runner::sweep_grid(
        &spec.template,
        &spec.byzantine_fractions,
        &spec.trusted_fractions,
        1,
    );
    let run_s = start.elapsed().as_secs_f64();
    let mut violations = Vec::new();
    let mut resilience = 0.0;
    for (i, cell) in gate::sweep_cells(&sweep).enumerate() {
        resilience += cell.resilience;
        violations.extend(
            gate::cell_violations(cell, 1)
                .into_iter()
                .map(|v| format!("cell {i}: {v}")),
        );
    }
    // Aggregated cells expose no counters: only the mean resilience
    // over the grid is a work count here.
    let counts = gate::WORK_COUNTS
        .iter()
        .map(|&(name, _)| {
            (name == "sim.metrics.resilience").then_some(resilience / cells.len() as f64)
        })
        .collect();
    let checked = Checked {
        violations,
        fingerprint: gate::fingerprint_sweep(&sweep),
        counts,
    };
    (setup_s, run_s, checked)
}

fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    payload
        .downcast_ref::<&str>()
        .map(|s| s.to_string())
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "panic with a non-string payload".to_string())
}

/// The untraced pass: the end-to-end times, the peak RSS and the gate.
pub fn untraced(workload: &Workload, seed: u64) -> Json {
    let job = workload.job(seed);
    let outcome = catch_unwind(AssertUnwindSafe(|| match job {
        Job::Single(scenario) => run_single(scenario),
        Job::Sweep(spec) => run_sweep(spec),
    }));
    match outcome {
        Ok((setup_s, run_s, checked)) => Json::obj([
            ("setup_s", Json::num(setup_s)),
            ("run_s", Json::num(run_s)),
            ("peak_rss_kib", Json::opt(peak_rss_kib())),
            (
                "violations",
                Json::Arr(checked.violations.into_iter().map(Json::Str).collect()),
            ),
            (
                "fingerprint",
                Json::str(format!("{:#018x}", checked.fingerprint)),
            ),
            (
                "counts",
                Json::Arr(checked.counts.into_iter().map(Json::opt).collect()),
            ),
        ]),
        // A panic fails every operation of the pass.
        Err(payload) => Json::obj([(
            "violations",
            Json::Arr(vec![Json::Str(format!(
                "panicked: {}",
                panic_message(payload)
            ))]),
        )]),
    }
}

/// The traced pass: the benchmark drives the simulation itself and
/// records one span per call into the engine. `Simulation::into_result`
/// is private, so this pass yields timings only.
pub fn traced(workload: &Workload, seed: u64) -> Json {
    let (spans, live_correct) = match workload.job(seed) {
        Job::Single(scenario) => {
            let rounds = scenario.rounds;
            let (first, total) = (scenario.byzantine_count(), scenario.total_actors());
            let mut tracer = Tracer::with_capacity(rounds + 2);
            let root = tracer.open("workload", None);
            let span = tracer.open("sim.engine.new", Some(root));
            let mut sim = Simulation::new(scenario);
            tracer.close(span);
            for _ in 0..rounds {
                let span = tracer.open("sim.engine.run_round", Some(root));
                sim.run_round();
                tracer.close(span);
            }
            tracer.close(root);
            let live = (first..total)
                .filter(|&i| sim.is_alive(NodeId(i as u64)))
                .count();
            (tracer.into_spans(), Some(live as f64))
        }
        Job::Sweep(spec) => {
            let cells = spec.cells();
            let mut tracer = Tracer::with_capacity(cells.len() + 1);
            let root = tracer.open("workload", None);
            for cell in &cells {
                let span = tracer.open("sim.runner.cell", Some(root));
                std::hint::black_box(runner::run_repeated(cell, 1));
                tracer.close(span);
            }
            tracer.close(root);
            (tracer.into_spans(), None)
        }
    };
    Json::obj([
        (
            "spans",
            spans_to_json(&spans, &workload_id(workload.name, seed)),
        ),
        ("live_correct", Json::opt(live_correct)),
    ])
}
