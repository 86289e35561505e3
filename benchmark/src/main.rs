//! The RAPTEE reproduction's benchmark: six named workloads, the
//! end-to-end metrics a user of the simulator pays for, and outside-in
//! probes of every layer. See README.md.
//!
//! ```text
//! raptee-benchmark run [--seed S] [--workload W] [--trace] [--reps K | --seconds T]
//! raptee-benchmark compare A.json B.json
//! ```

mod child;
mod compare;
mod gate;
mod json;
mod probes;
mod report;
mod stats;
mod trace;
mod workloads;

use json::Json;
use report::{Layer, Report, Samples, Status, WorkloadReport, END_TO_END};
use stats::{median, tail_percentile};
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};
use std::time::{Instant, SystemTime, UNIX_EPOCH};
use trace::{durations_ms, overhead_pct, spans_from_json};
use workloads::{Job, Workload, DEFAULT_SEED, WORKLOADS};

const USAGE: &str = "usage:
  raptee-benchmark run [--seed S] [--workload W] [--trace [0|1]] [--reps K | --seconds T]
  raptee-benchmark compare A.json B.json";

/// `benchmark/`, where `out/` lives and beside which `BENCHMARK.json` sits.
fn package_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
}

fn parse_seed(text: &str) -> Result<u64, String> {
    let parsed = match text.strip_prefix("0x") {
        Some(hex) => u64::from_str_radix(hex, 16),
        None => text.parse(),
    };
    parsed.map_err(|_| format!("--seed takes a whole number, not {text:?}"))
}

/// How long to keep repeating a workload.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Budget {
    Reps(usize),
    /// What the driver's `--seconds T` buys. Repetitions count as if
    /// each had been as fast as the fastest, so that their number does
    /// not shrink exactly when the host is busy and more are needed.
    /// At least two; stop once `T` seconds are measured and a second
    /// repetition has come within [`CONFIRMED`] of the fastest, which
    /// is then taken for the quiet host's reading. Unconfirmed, go on
    /// until `2T` are measured or `2T` of wall have passed.
    Seconds(f64),
}

/// How close the second-fastest repetition must come to the fastest.
const CONFIRMED: f64 = 1.05;

impl Budget {
    /// Whether to stop after repetitions that took `rep_s` seconds
    /// each, `elapsed_s` after the first began.
    fn spent(self, rep_s: &[f64], elapsed_s: f64) -> bool {
        let t = match self {
            Budget::Reps(k) => return rep_s.len() >= k,
            Budget::Seconds(t) => t,
        };
        let mut sorted = rep_s.to_vec();
        sorted.sort_by(f64::total_cmp);
        let [fastest, second, ..] = sorted[..] else {
            return false;
        };
        let measured = rep_s.len() as f64 * fastest;
        let confirmed = second <= fastest * CONFIRMED;
        (measured >= t && confirmed) || measured >= 2.0 * t || elapsed_s >= 2.0 * t
    }
}

#[derive(Debug, PartialEq)]
struct RunArgs {
    seed: u64,
    workload: Option<String>,
    trace: bool,
    budget: Budget,
}

fn parse_run(args: &[String]) -> Result<RunArgs, String> {
    let mut parsed = RunArgs {
        seed: DEFAULT_SEED,
        workload: None,
        trace: false,
        budget: Budget::Reps(1),
    };
    let mut it = args.iter().peekable();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .ok_or_else(|| format!("{flag} needs a value\n{USAGE}"))
        };
        match flag.as_str() {
            "--seed" => parsed.seed = parse_seed(value()?)?,
            "--workload" => {
                let name = value()?;
                workloads::find(name).ok_or_else(|| format!("no workload called {name:?}"))?;
                parsed.workload = Some(name.clone());
            }
            "--reps" => {
                let reps = value()?.parse().ok().filter(|&k| k >= 1);
                parsed.budget = Budget::Reps(reps.ok_or("--reps takes a count of at least 1")?);
            }
            "--seconds" => {
                let seconds = value()?.parse().ok().filter(|&s| s > 0.0);
                parsed.budget =
                    Budget::Seconds(seconds.ok_or("--seconds takes a positive number")?);
            }
            // Bare `--trace` switches tracing on; the driver writes `--trace 0|1`.
            "--trace" => match it.next_if(|v| matches!(v.as_str(), "0" | "1")) {
                Some(v) => parsed.trace = v == "1",
                None => parsed.trace = true,
            },
            other => return Err(format!("unknown argument {other:?}\n{USAGE}")),
        }
    }
    Ok(parsed)
}

/// Runs one pass in a fresh child of this binary and waits for it; the
/// answer is the last line of its standard output.
fn spawn_child(pass: &str, workload: &str, seed: u64, threads: usize) -> Result<Json, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find my own binary: {e}"))?;
    let output = Command::new(exe)
        .args(["child", pass, workload, &seed.to_string()])
        .env("RAYON_NUM_THREADS", threads.to_string())
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot start the {pass} child: {e}"))?;
    if !output.status.success() {
        return Err(format!("the {pass} child ended with {}", output.status));
    }
    let stdout = String::from_utf8_lossy(&output.stdout);
    let answer = stdout.lines().rev().find(|l| !l.trim().is_empty());
    Json::parse(answer.ok_or_else(|| format!("the {pass} child printed nothing"))?)
}

fn child_main(args: &[String]) -> Result<(), String> {
    let [pass, workload, seed] = args else {
        return Err("child takes a pass, a workload and a seed".to_string());
    };
    let seed = parse_seed(seed)?;
    let answer = if pass == "probes" {
        let probes = probes::all(seed)?;
        Json::Arr(
            probes
                .iter()
                .map(|p| Json::Arr(vec![Json::num(p.value), Json::num(p.samples as f64)]))
                .collect(),
        )
    } else {
        let workload =
            workloads::find(workload).ok_or_else(|| format!("no workload called {workload:?}"))?;
        match pass.as_str() {
            "untraced" => child::untraced(workload, seed),
            "traced" => child::traced(workload, seed),
            other => return Err(format!("no pass called {other:?}")),
        }
    };
    println!("{}", answer.compact());
    Ok(())
}

fn command_line(program: &str, args: &[&str], dir: &Path) -> Option<String> {
    let out = Command::new(program)
        .args(args)
        .current_dir(dir)
        .stderr(Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())?;
    let text = String::from_utf8(out.stdout).ok()?.trim().to_string();
    (!text.is_empty()).then_some(text)
}

/// What a reader needs to place a result: revision, seed, machine,
/// toolchain, build profile and start time.
fn manifest(args: &RunArgs, selected: &[&Workload], cores: usize) -> Json {
    let dir = package_dir();
    let unknown = || "unknown".to_string();
    let started = SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map_or(0.0, |d| d.as_secs() as f64);
    let budget = match args.budget {
        Budget::Reps(k) => ("reps", k as f64),
        Budget::Seconds(s) => ("seconds", s),
    };
    Json::obj([
        (
            "git_revision",
            Json::str(
                command_line(
                    "git",
                    &["describe", "--always", "--dirty", "--abbrev=9"],
                    &dir,
                )
                .unwrap_or_else(unknown),
            ),
        ),
        ("seed", Json::str(format!("{:#x}", args.seed))),
        ("nproc", Json::num(cores as f64)),
        (
            "threads",
            Json::obj(
                selected
                    .iter()
                    .map(|w| (w.name, Json::num(w.threads as f64))),
            ),
        ),
        (
            "rustc",
            Json::str(command_line("rustc", &["--version"], &dir).unwrap_or_else(unknown)),
        ),
        (
            "profile",
            Json::str(if cfg!(debug_assertions) {
                "debug"
            } else {
                "release"
            }),
        ),
        ("started_unix", Json::num(started)),
        ("traced", Json::Bool(args.trace)),
        (budget.0, Json::num(budget.1)),
        (
            "rounds_divisor",
            Json::num(workloads::ROUNDS_DIVISOR as f64),
        ),
    ])
}

/// One untraced repetition, as the child reported it.
struct Rep {
    setup_s: f64,
    run_s: f64,
    peak_rss_mib: f64,
    fingerprint: String,
    counts: Vec<Option<f64>>,
}

/// Reads a child's untraced answer: the repetition, or why it failed.
fn read_rep(answer: &Json) -> Result<Rep, Vec<String>> {
    let violations: Vec<String> = answer
        .get("violations")
        .map(Json::as_arr)
        .unwrap_or_default()
        .iter()
        .filter_map(|v| v.as_str().map(str::to_string))
        .collect();
    if !violations.is_empty() {
        return Err(violations);
    }
    let number = |key: &str| answer.get(key).and_then(Json::as_f64);
    let rep = (|| {
        Some(Rep {
            setup_s: number("setup_s")?,
            run_s: number("run_s")?,
            peak_rss_mib: number("peak_rss_kib")? / 1024.0,
            fingerprint: answer.get("fingerprint")?.as_str()?.to_string(),
            counts: answer
                .get("counts")?
                .as_arr()
                .iter()
                .map(Json::as_f64)
                .collect(),
        })
    })();
    rep.ok_or_else(|| vec!["the child's answer lacks a field (is /proc mounted?)".to_string()])
}

/// The untraced pass of one workload: repetitions in fresh children
/// until the budget is spent, each through the correctness gate.
fn measure(w: &'static Workload, args: &RunArgs, twin: Option<&Rep>) -> (WorkloadReport, Vec<Rep>) {
    let mut report = WorkloadReport::new(w.name, w.threads);
    let job = w.job(args.seed);
    let operations = job.scenarios().len() as u64;
    let node_rounds = job.node_rounds() as f64;
    let mut reps: Vec<Rep> = Vec::new();
    let mut failures = Vec::new();
    let started = Instant::now();
    loop {
        report.attempted += operations;
        let rep = spawn_child("untraced", w.name, args.seed, w.threads)
            .map_err(|e| vec![e])
            .and_then(|answer| read_rep(&answer))
            .and_then(|rep| {
                let mut wrong = Vec::new();
                if args.seed == DEFAULT_SEED && rep.fingerprint != format!("{:#018x}", w.pinned) {
                    wrong.push(format!(
                        "fingerprint {} is not the pinned {:#018x}",
                        rep.fingerprint, w.pinned
                    ));
                }
                if let Some(twin) = twin.filter(|t| t.fingerprint != rep.fingerprint) {
                    wrong.push(format!(
                        "fingerprint {} differs from its twin's {}",
                        rep.fingerprint, twin.fingerprint
                    ));
                }
                if let Some(first) = reps.first().filter(|f| f.fingerprint != rep.fingerprint) {
                    wrong.push(format!(
                        "fingerprint {} differs from the first repetition's {}",
                        rep.fingerprint, first.fingerprint
                    ));
                }
                if wrong.is_empty() {
                    Ok(rep)
                } else {
                    Err(wrong)
                }
            });
        match rep {
            Ok(rep) => reps.push(rep),
            Err(reasons) => {
                // One wrong answer fails every operation of the repetition.
                report.failed += operations;
                failures.extend(reasons);
            }
        }
        let rep_s: Vec<f64> = reps.iter().map(|r| r.setup_s + r.run_s).collect();
        if !failures.is_empty() || args.budget.spent(&rep_s, started.elapsed().as_secs_f64()) {
            break;
        }
    }
    if !failures.is_empty() {
        report.status = Status::Failed(failures);
        return (report, reps);
    }
    // In the order of `END_TO_END`.
    let columns: [fn(&Rep, f64) -> f64; 4] = [
        |r, _| r.setup_s,
        |r, _| r.run_s,
        |r, node_rounds| node_rounds / r.run_s,
        |r, _| r.peak_rss_mib,
    ];
    report.end_to_end = END_TO_END
        .iter()
        .zip(columns)
        .map(|(metric, column)| Samples {
            metric,
            values: reps.iter().map(|r| column(r, node_rounds)).collect(),
        })
        .collect();
    report.fingerprint = Some(reps[0].fingerprint.clone());
    report.counts = gate::WORK_COUNTS
        .iter()
        .zip(&reps[0].counts)
        .map(|(&(name, unit), &value)| Layer::new(name, unit, value, 1))
        .collect();
    (report, reps)
}

/// Name and unit of the timings read off a traced pass's spans, in the
/// order [`trace_workload`] fills them in. Each is undefined on some
/// workload (round times on the sweep, cell times off it, a p90 under
/// 100 rounds), so they are printed and written to `results.json` but
/// are not in `BENCHMARK.json`: the driver's summary carries only what
/// every workload measures.
const SPAN_TIMINGS: [(&str, &str); 8] = [
    ("sim.engine.new_s", "s"),
    ("sim.engine.round_ms_first", "ms"),
    ("sim.engine.round_ms_p50", "ms"),
    ("sim.engine.round_ms_p90", "ms"),
    ("sim.engine.round_ms_max", "ms"),
    ("sim.engine.node_round_us", "us"),
    ("sim.runner.cell_ms_p50", "ms"),
    ("sim.runner.cell_ms_p75", "ms"),
];

/// The ratios derived from the traced and untraced passes together.
const SPAN_RATIOS: [(&str, &str); 3] = [
    ("bench.trace_overhead_pct", "%"),
    ("sim.engine.mt_speedup", "ratio"),
    ("sim.runner.parallel_speedup", "ratio"),
];

/// The traced pass of one workload and the per-layer metrics its spans
/// give. The sweep's cells run serially on one thread, so that their
/// sum over the parallel `run_s` is the sweep's speed-up.
fn trace_workload(
    w: &Workload,
    seed: u64,
    twin_run_s: Option<f64>,
    report: &mut WorkloadReport,
) -> Result<(), String> {
    let sweep = matches!(w.job(seed), Job::Sweep(_));
    let threads = if sweep { 1 } else { w.threads };
    let answer = spawn_child("traced", w.name, seed, threads)?;
    let spans = answer
        .get("spans")
        .and_then(spans_from_json)
        .ok_or("the traced child's spans do not parse")?;
    let root = spans.first().ok_or("the traced child recorded no span")?;
    let root_s = root.duration_ns() as f64 / 1e9;
    let rounds = durations_ms(&spans, "sim.engine.run_round");
    let cells = durations_ms(&spans, "sim.runner.cell");
    let new_s = durations_ms(&spans, "sim.engine.new")
        .first()
        .map(|ms| ms / 1e3);
    let live = answer.get("live_correct").and_then(Json::as_f64);
    let p50 = median(&rounds);
    let (n_rounds, n_cells) = (rounds.len() as u64, cells.len() as u64);
    let run_s = report.samples("run_s").map(Samples::value);
    let typical = |metric: &str| median(&report.samples(metric)?.values);
    let untraced_s = typical("setup_s").zip(typical("run_s")).map(|(a, b)| a + b);
    let layers = |names: &[(&'static str, &'static str)], values: &[(Option<f64>, u64)]| {
        names
            .iter()
            .zip(values)
            .map(|(&(name, unit), &(value, samples))| Layer::new(name, unit, value, samples))
            .collect()
    };
    report.timings = layers(
        &SPAN_TIMINGS,
        &[
            (new_s, u64::from(new_s.is_some())),
            (rounds.first().copied(), n_rounds.min(1)),
            (p50, n_rounds),
            (tail_percentile(&rounds, 90.0), n_rounds),
            (rounds.iter().copied().reduce(f64::max), n_rounds),
            (p50.zip(live).map(|(ms, live)| ms * 1e3 / live), n_rounds),
            (median(&cells), n_cells),
            (tail_percentile(&cells, 75.0), n_cells),
        ],
    );
    // Serial cells against a parallel sweep is a speed-up, not an overhead.
    let overhead = untraced_s
        .filter(|_| !sweep)
        .map(|s| overhead_pct(root_s, s));
    let parallel = run_s
        .filter(|_| sweep)
        .map(|run_s| cells.iter().sum::<f64>() / 1e3 / run_s);
    report.ratios = layers(
        &SPAN_RATIOS,
        &[
            (overhead, 1),
            (twin_run_s.zip(run_s).map(|(twin, own)| twin / own), 1),
            (parallel, n_cells),
        ],
    );
    report.spans = spans;
    Ok(())
}

fn run(args: &RunArgs) -> Result<bool, String> {
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let selected: Vec<&'static Workload> = match &args.workload {
        Some(name) => vec![workloads::find(name).expect("checked when parsed")],
        None => WORKLOADS.iter().collect(),
    };
    let mut report = Report {
        seed: args.seed,
        manifest: manifest(args, &selected, cores),
        workloads: Vec::new(),
        probes: Vec::new(),
    };
    // The fastest untraced repetition of every workload measured so
    // far, for the twin check and `mt_speedup`.
    let mut measured: Vec<(&str, Rep)> = Vec::new();
    for w in selected {
        if cores < w.threads {
            let mut skipped = WorkloadReport::new(w.name, w.threads);
            skipped.status = Status::Skipped(format!(
                "needs {} cores and this box has {cores}",
                w.threads
            ));
            report.workloads.push(skipped);
            continue;
        }
        // A twin asked for on its own still has to meet its partner.
        if let Some(partner) = w.twin.filter(|p| !measured.iter().any(|(n, _)| n == p)) {
            let partner = workloads::find(partner).expect("twins are in the table");
            let answer = spawn_child("untraced", partner.name, args.seed, partner.threads)?;
            let rep = read_rep(&answer).map_err(|why| why.join("; "))?;
            measured.push((partner.name, rep));
        }
        let twin = w
            .twin
            .and_then(|p| measured.iter().find(|(n, _)| *n == p))
            .map(|(_, rep)| rep);
        eprintln!("{} on {} thread(s): {}", w.name, w.threads, w.why);
        let (mut workload, reps) = measure(w, args, twin);
        if args.trace && matches!(workload.status, Status::Ok) {
            trace_workload(w, args.seed, twin.map(|t| t.run_s), &mut workload)?;
        }
        if let Some(fastest) = reps.into_iter().min_by(|a, b| a.run_s.total_cmp(&b.run_s)) {
            measured.push((w.name, fastest));
        }
        report.workloads.push(workload);
    }
    if args.trace {
        let probes = spawn_child("probes", "-", args.seed, 1)?;
        report.probes = probes
            .as_arr()
            .iter()
            .zip(probes::NAMES)
            .map(|(p, (name, unit))| {
                let number = |i: usize| p.as_arr().get(i).and_then(Json::as_f64);
                Layer::new(name, unit, number(0), number(1).unwrap_or(0.0) as u64)
            })
            .collect();
    }
    report.print();
    report
        .write(&package_dir().join("out"))
        .map_err(|e| format!("cannot write benchmark/out: {e}"))?;
    let correct = report
        .workloads
        .iter()
        .all(|w| !matches!(w.status, Status::Failed(_)));
    // One workload asked for by name is the driver's way of calling:
    // it reads the summary as the last line, and a workload that could
    // not be timed has none.
    if args.workload.is_some() {
        match report.workloads[0].status {
            Status::Ok => println!("{}", report.driver_line(args.trace)),
            _ => return Ok(false),
        }
    }
    Ok(correct)
}

fn read_json(path: &str) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    Json::parse(&text).map_err(|e| format!("{path}: {e}"))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.split_first() {
        Some((cmd, rest)) if cmd == "run" => parse_run(rest).and_then(|a| run(&a)),
        Some((cmd, rest)) if cmd == "child" => child_main(rest).map(|()| true),
        Some((cmd, [a, b])) if cmd == "compare" => {
            let benchmark = package_dir().join("../BENCHMARK.json");
            read_json(&benchmark.to_string_lossy())
                .and_then(|benchmark| compare::compare(&read_json(a)?, &read_json(b)?, &benchmark))
        }
        _ => Err(USAGE.to_string()),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(message) => {
            eprintln!("{message}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn strings(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn run_arguments_parse_as_a_person_and_as_the_driver_write_them() {
        let person = parse_run(&strings(&["--trace", "--seed", "0x10", "--reps", "3"])).unwrap();
        assert_eq!(
            person,
            RunArgs {
                seed: 16,
                workload: None,
                trace: true,
                budget: Budget::Reps(3)
            }
        );
        let driver = parse_run(&strings(&[
            "--workload",
            "arena_mixed5",
            "--seed",
            "7",
            "--seconds",
            "10",
            "--trace",
            "0",
        ]))
        .unwrap();
        assert_eq!(
            driver,
            RunArgs {
                seed: 7,
                workload: Some("arena_mixed5".to_string()),
                trace: false,
                budget: Budget::Seconds(10.0)
            }
        );
        assert!(parse_run(&strings(&["--trace", "1"])).unwrap().trace);
        assert_eq!(parse_run(&[]).unwrap().seed, DEFAULT_SEED);
        for bad in [
            &["--workload", "nope"][..],
            &["--reps", "0"],
            &["--seconds", "-1"],
            &["--seed"],
            &["--verbose"],
        ] {
            assert!(
                parse_run(&strings(bad)).is_err(),
                "{bad:?} should be refused"
            );
        }
    }

    #[test]
    fn a_seconds_budget_counts_by_the_fastest_and_wants_it_confirmed() {
        assert!(Budget::Reps(1).spent(&[9.0], 9.0));
        assert!(!Budget::Reps(3).spent(&[9.0, 9.0], 18.0));
        let budget = Budget::Seconds(7.0);
        assert!(!budget.spent(&[30.0], 30.0), "never fewer than two");
        // 2 x 6.0 covers 7 s and the two agree within 5 %.
        assert!(budget.spent(&[6.2, 6.0], 12.2));
        // A slow first repetition does not count for more than a fast one.
        assert!(!budget.spent(&[5.0, 3.4], 8.4));
        assert!(budget.spent(&[5.0, 3.4, 3.5], 11.9));
        // Unconfirmed, it goes on: to twice the measure, or twice the wall.
        assert!(!budget.spent(&[4.7, 4.0, 4.4], 13.1));
        assert!(budget.spent(&[4.7, 4.0, 4.4, 4.3], 17.4));
        assert!(budget.spent(&[2.9, 2.4, 2.6, 2.7, 2.8, 2.9], 13.9));
    }

    /// `BENCHMARK.json` is what the driver holds the benchmark to, so
    /// it must name exactly what this program emits.
    #[test]
    fn benchmark_json_names_what_this_program_emits() {
        let path = package_dir().join("../BENCHMARK.json");
        let benchmark = read_json(&path.to_string_lossy()).unwrap();
        let names = |key: &str, field: &str| -> Vec<String> {
            benchmark
                .get(key)
                .unwrap()
                .as_arr()
                .iter()
                .map(|m| m.get(field).unwrap().as_str().unwrap().to_string())
                .collect()
        };
        let workloads: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        assert_eq!(names("workloads", "name"), workloads);
        let why: Vec<&str> = WORKLOADS.iter().map(|w| w.why).collect();
        assert_eq!(names("workloads", "why"), why);
        let end_to_end: Vec<&str> = END_TO_END.iter().map(|m| m.name).collect();
        assert_eq!(names("end_to_end", "name"), end_to_end);
        let units: Vec<&str> = END_TO_END.iter().map(|m| m.unit).collect();
        assert_eq!(names("end_to_end", "unit"), units);

        let per_layer: Vec<(String, String)> = SPAN_RATIOS
            .iter()
            .chain(&gate::WORK_COUNTS)
            .chain(&probes::NAMES)
            .map(|&(name, unit)| (name.to_string(), unit.to_string()))
            .collect();
        let listed: Vec<(String, String)> = names("per_layer", "name")
            .into_iter()
            .zip(names("per_layer", "unit"))
            .collect();
        assert_eq!(listed, per_layer);
    }
}
