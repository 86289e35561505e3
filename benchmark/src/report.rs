//! What a set of runs produced: the metric tables, `results.json`, the
//! trace files and the one-line summary the driver reads.

use crate::json::Json;
use crate::stats::quartiles;
use crate::trace::{spans_to_json, workload_id, Span};
use std::path::Path;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

/// An end-to-end metric, measured once per repetition with tracing off.
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
}

/// The metrics a user of the simulator pays for. `failed_share` is the
/// fifth; it must be 0, so it has no bound to be a share of and the
/// driver reads it as `failed` over `attempted`.
pub const END_TO_END: [EndToEnd; 4] = [
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
    },
    EndToEnd {
        name: "run_s",
        unit: "s",
        better: Better::Lower,
    },
    EndToEnd {
        name: "node_rounds_per_s",
        unit: "1/s",
        better: Better::Higher,
    },
    EndToEnd {
        name: "peak_rss_mib",
        unit: "MiB",
        better: Better::Lower,
    },
];

/// The repetitions of one end-to-end metric on one workload.
pub struct Samples {
    pub metric: &'static EndToEnd,
    pub values: Vec<f64>,
}

impl Samples {
    /// The best repetition. Interference from the host only ever adds
    /// time, so on a machine whose speed wanders the fastest repetition
    /// is the reading that repeats (README.md, "Noise").
    pub fn value(&self) -> f64 {
        best(self.metric.better, &self.values)
    }
}

pub fn best(better: Better, values: &[f64]) -> f64 {
    let pick = match better {
        Better::Lower => f64::min,
        Better::Higher => f64::max,
    };
    values.iter().copied().reduce(pick).unwrap_or(f64::NAN)
}

/// A per-layer reading; `value` is `None` where the metric does not
/// exist on the workload (a cell time outside the sweep, a p90 over
/// fewer than 100 rounds).
pub struct Layer {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: Option<f64>,
    pub samples: u64,
}

impl Layer {
    pub fn new(name: &'static str, unit: &'static str, value: Option<f64>, samples: u64) -> Self {
        Layer {
            name,
            unit,
            value: value.filter(|v| v.is_finite()),
            samples,
        }
    }

    fn to_json(&self) -> (&'static str, Json) {
        (
            self.name,
            Json::obj([
                ("value", Json::opt(self.value)),
                ("unit", Json::str(self.unit)),
                ("samples", Json::num(self.samples as f64)),
            ]),
        )
    }
}

pub enum Status {
    Ok,
    /// Fewer cores than the workload's threads: not timed at all, so
    /// a 2-thread figure is never silently a 1-thread one.
    Skipped(String),
    /// The gate failed; no time is reported for a wrong answer.
    Failed(Vec<String>),
}

/// Everything measured on one workload.
pub struct WorkloadReport {
    pub name: &'static str,
    pub threads: usize,
    pub status: Status,
    pub attempted: u64,
    pub failed: u64,
    pub fingerprint: Option<String>,
    pub end_to_end: Vec<Samples>,
    pub counts: Vec<Layer>,
    /// Span timings: undefined on some workloads, so not in the
    /// driver's summary.
    pub timings: Vec<Layer>,
    pub ratios: Vec<Layer>,
    pub spans: Vec<Span>,
}

impl WorkloadReport {
    pub fn new(name: &'static str, threads: usize) -> Self {
        WorkloadReport {
            name,
            threads,
            status: Status::Ok,
            attempted: 0,
            failed: 0,
            fingerprint: None,
            end_to_end: Vec::new(),
            counts: Vec::new(),
            timings: Vec::new(),
            ratios: Vec::new(),
            spans: Vec::new(),
        }
    }

    pub fn samples(&self, metric: &str) -> Option<&Samples> {
        self.end_to_end.iter().find(|s| s.metric.name == metric)
    }

    pub fn failed_share(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }

    fn print(&self) {
        let name = self.name;
        match &self.status {
            Status::Skipped(why) => return println!("{name} skipped {why}"),
            Status::Failed(reasons) => {
                for reason in reasons {
                    eprintln!("{name} FAILED {reason}");
                }
            }
            Status::Ok => {
                for s in &self.end_to_end {
                    let q = quartiles(&s.values).expect("a timed workload has samples");
                    println!(
                        "{name} {} {} {} n={} median={} spread={:.1}%",
                        s.metric.name,
                        s.value(),
                        s.metric.unit,
                        s.values.len(),
                        q.median,
                        q.spread() * 100.0
                    );
                }
            }
        }
        println!(
            "{name} failed_share {} share n={}",
            self.failed_share(),
            self.attempted
        );
        for layer in self.timings.iter().chain(&self.ratios).chain(&self.counts) {
            print_layer(name, layer);
        }
    }

    fn to_json(&self) -> Json {
        let (status, detail) = match &self.status {
            Status::Ok => ("ok", Vec::new()),
            Status::Skipped(why) => ("skipped", vec![Json::str(why)]),
            Status::Failed(reasons) => ("failed", reasons.iter().map(Json::str).collect()),
        };
        let end_to_end = self.end_to_end.iter().map(|s| {
            let q = quartiles(&s.values);
            (
                s.metric.name,
                Json::obj([
                    ("value", Json::num(s.value())),
                    ("unit", Json::str(s.metric.unit)),
                    ("median", Json::opt(q.map(|q| q.median))),
                    ("spread", Json::opt(q.map(|q| q.spread()))),
                    (
                        "samples",
                        Json::Arr(s.values.iter().map(|&v| Json::num(v)).collect()),
                    ),
                ]),
            )
        });
        let failed_share = (
            "failed_share",
            Json::obj([
                ("value", Json::num(self.failed_share())),
                ("unit", Json::str("share")),
                ("attempted", Json::num(self.attempted as f64)),
                ("failed", Json::num(self.failed as f64)),
            ]),
        );
        Json::obj([
            ("name", Json::str(self.name)),
            ("status", Json::str(status)),
            ("detail", Json::Arr(detail)),
            ("threads", Json::num(self.threads as f64)),
            (
                "fingerprint",
                self.fingerprint.as_ref().map_or(Json::Null, Json::str),
            ),
            (
                "end_to_end",
                Json::obj(end_to_end.chain(std::iter::once(failed_share))),
            ),
            (
                "per_layer",
                Json::obj(self.timings.iter().chain(&self.ratios).map(Layer::to_json)),
            ),
            ("counts", Json::obj(self.counts.iter().map(Layer::to_json))),
        ])
    }
}

fn print_layer(owner: &str, layer: &Layer) {
    match layer.value {
        Some(v) => println!(
            "{owner} {} {v} {} n={}",
            layer.name, layer.unit, layer.samples
        ),
        None => println!("{owner} {} n/a {}", layer.name, layer.unit),
    }
}

/// One invocation's output.
pub struct Report {
    pub seed: u64,
    pub manifest: Json,
    pub workloads: Vec<WorkloadReport>,
    pub probes: Vec<Layer>,
}

impl Report {
    pub fn print(&self) {
        for w in &self.workloads {
            w.print();
        }
        for probe in &self.probes {
            print_layer("probes", probe);
        }
    }

    /// Writes `results.json` and one trace file per traced workload
    /// into `out_dir`, each carrying the run manifest.
    pub fn write(&self, out_dir: &Path) -> std::io::Result<()> {
        std::fs::create_dir_all(out_dir)?;
        let results = Json::obj([
            ("manifest", self.manifest.clone()),
            (
                "workloads",
                Json::Arr(self.workloads.iter().map(WorkloadReport::to_json).collect()),
            ),
            ("probes", Json::obj(self.probes.iter().map(Layer::to_json))),
        ]);
        std::fs::write(out_dir.join("results.json"), results.pretty())?;
        for w in self.workloads.iter().filter(|w| !w.spans.is_empty()) {
            let trace = Json::obj([
                ("manifest", self.manifest.clone()),
                ("workload", Json::str(w.name)),
                ("span_count", Json::num(w.spans.len() as f64)),
                (
                    "spans",
                    spans_to_json(&w.spans, &workload_id(w.name, self.seed)),
                ),
            ]);
            std::fs::write(
                out_dir.join(format!("trace-{}.json", w.name)),
                trace.pretty(),
            )?;
        }
        Ok(())
    }

    /// The summary the driver reads as the last line of standard
    /// output: the end-to-end metrics of the one workload run, or with
    /// tracing on the per-layer metrics every workload measures. The
    /// driver takes numbers only, so a ratio or count that does not
    /// exist on this workload reads 0 there (`null` in `results.json`).
    pub fn driver_line(&self, traced: bool) -> String {
        let w = &self.workloads[0];
        let entry = |value: f64, unit: &str| {
            Json::obj([("value", Json::num(value)), ("unit", Json::str(unit))])
        };
        let metrics: Vec<(&str, Json)> = if traced {
            w.ratios
                .iter()
                .chain(&w.counts)
                .chain(&self.probes)
                .map(|l| (l.name, entry(l.value.unwrap_or(0.0), l.unit)))
                .collect()
        } else {
            w.end_to_end
                .iter()
                .map(|s| (s.metric.name, entry(s.value(), s.metric.unit)))
                .collect()
        };
        Json::obj([
            ("correct", Json::Bool(w.failed == 0)),
            ("attempted", Json::num(w.attempted as f64)),
            ("failed", Json::num(w.failed as f64)),
            ("metrics", Json::obj(metrics)),
        ])
        .compact()
    }
}
