//! Argument parsing and command execution for the `raptee-cli` binary.
//!
//! Dependency-free by design (no clap offline). Each option is declared
//! once, as a row of the option table (flag, value placeholder, help
//! section, default, help text): [`usage`], the known-option check of
//! [`Args::parse`], every absent-flag default and the events-only rule
//! all read it. The parser checks only what the library cannot know —
//! syntax, unknown options, network options without `--network events`,
//! `--rejoin` without a churn process, percent shares that miss 100 % —
//! and leaves every range and consistency rule to [`Scenario::validate`],
//! whose error comes back as [`CliError::Invalid`]. The binary prints
//! any [`CliError`] as `error: …` and exits 2.

use raptee::EvictionPolicy;
use raptee_bench::{byzantine_fractions, tail_window, trusted_fractions, Scale};
use raptee_sim::{
    runner, AdversaryMode, AttackStrategy, AuditConfig, ChurnBurst, ChurnSchedule, DiscoveryMode,
    EventNetConfig, LatencyModel, NetworkModel, PartitionWindow, Protocol, Reachability,
    RejoinPolicy, RetryConfig, Scenario, ScenarioError, SegmentSpec,
};
use std::collections::BTreeMap;
use Section::{Audit, Commands, Common, Fault, Network};
use Value::{OneOf, Pair, Text};

/// One option, `--flag <value>`. `default` is what an absent flag reads,
/// as a user would type it, or `None` for an option off unless given.
struct Opt {
    flag: &'static str,
    value: Value,
    section: Section,
    default: Option<&'static str>,
    help: &'static str,
}

const fn opt(
    flag: &'static str,
    value: Value,
    section: Section,
    default: Option<&'static str>,
    help: &'static str,
) -> Opt {
    Opt {
        flag,
        value,
        section,
        default,
        help,
    }
}

/// An option's value, as [`usage`] shows it.
#[derive(Clone, Copy)]
enum Value {
    /// Text the option's own grammar reads, e.g. `usize` or `windows`.
    Text(&'static str),
    /// One of these names.
    OneOf(&'static [&'static str]),
    /// `first[:second]`; an omitted second part reads the third field.
    Pair(&'static str, &'static str, &'static str),
}

impl std::fmt::Display for Value {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Text(text) => f.write_str(text),
            OneOf(names) => f.write_str(&names.join("|")),
            Pair(first, second, _) => write!(f, "{first}[:{second}]"),
        }
    }
}

/// A help section; every [`Network`] option but `--network` itself
/// needs `--network events`.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Section {
    Common,
    Network,
    Fault,
    Audit,
    Commands,
}

/// The sections in [`usage`] order, with their headings.
const SECTIONS: [(Section, &str); 5] = [
    (Common, "COMMON OPTIONS"),
    (
        Network,
        "NETWORK OPTIONS (all but --network require --network events)",
    ),
    (Fault, "FAULT OPTIONS (round and event network alike)"),
    (Audit, "AUDIT OPTIONS (require a trusted tier)"),
    (Commands, "SUBCOMMAND OPTIONS"),
];

/// Every option `raptee-cli` accepts, in [`usage`] order.
#[rustfmt::skip]
const OPTIONS: [Opt; 35] = [
    opt("n", Text("usize"), Common, Some("400"), "population size"),
    opt("f", Text("f64"), Common, Some("0.1"), "Byzantine fraction"),
    opt("t", Text("f64"), Common, Some("0.01"), "trusted fraction"),
    opt("view", Text("usize"), Common, Some("16"), "view/sample size"),
    opt("rounds", Text("usize"), Common, Some("200"), "rounds per run"),
    opt("scale", Text("name"), Common, None, "tiny | small | medium | paper | million: preset \
        n/view/rounds (explicit flags still win) and sweep axes (small's when absent)"),
    opt("discovery", OneOf(&["auto", "exact", "sketch"]), Common, Some("auto"), "auto = exact \
        bitsets up to 16384 actors, HLL cardinality sketches (~6.5% std error) above"),
    opt("seed", Text("u64"), Common, Some("5937134"), "master seed"),
    opt("reps", Text("usize"), Common, Some("1"), "repetitions"),
    opt("eviction", Text("policy"), Common, Some("adaptive"), "none | adaptive | 0.0..1.0"),
    opt("protocol", Text("name"), Common, Some("raptee"),
        "raptee | brahms | basalt | basalt-tee | lift | honeybee"),
    opt("rotation", Text("usize"), Common, Some("30"), "BASALT seed-rotation interval in rounds"),
    opt("wlist-ttl", Text("usize"), Common, Some("10"), "basalt-tee quarantine TTL in rounds"),
    opt("fade", Text("usize"), Common, Some("20"), "LIFT hub-score fade interval in rounds"),
    opt("walk-length", Text("usize"), Common, Some("5"), "Honeybee verified-walk hop budget"),
    opt("attack", Text("strategy"), Common, Some("balanced"), "balanced | force-push | \
        targeted:fraction,focus: the adversary's static push strategy"),
    opt("adversary", OneOf(&["static", "adaptive"]), Common, Some("static"), "adaptive re-aims \
        the lawful budget each round with a UCB bandit over (segment, strategy) arms"),
    opt("population", Text("spec"), Common, None, "mixed population: comma-separated \
        protocol:count or protocol:share% entries over the correct nodes, e.g. \
        raptee:50%,basalt-tee:50% (overrides --protocol; each segment is reported)"),
    opt("network", OneOf(&["rounds", "events"]), Network, Some("rounds"), "events = \
        discrete-event delivery: per-link latency, partitions and NAT, not lockstep rounds"),
    opt("latency", Text("model"), Network, Some("const:0"), "const:T | uniform:LO..HI | \
        lognormal:MU,SIGMA[,CAP] in ticks (CAP defaults to ten rounds)"),
    opt("round-ticks", Text("u64"), Network, Some("1000"), "virtual ticks per round"),
    opt("jitter", Text("u64"), Network, Some("0"), "max per-node round-timer offset in ticks"),
    opt("partition", Text("windows"), Network, None, "cut windows start..end@boundary[;...], \
        e.g. 10..25@75: rounds start..end cut before actor index boundary; held messages \
        release at the heal"),
    opt("nat", Pair("fraction", "ttl", "3"), Network, None, "share of correct nodes behind \
        NAT-like reachability; inbound traffic needs a hole punched within ttl rounds"),
    opt("retry", Pair("max", "backoff", "250"), Network, None, "extra pull attempts after a \
        missed deadline, exponential backoff base in ticks"),
    opt("duplicate", Text("f64"), Network, Some("0"), "probability that a pull answer is \
        delivered twice (nonce dedup suppresses the copy)"),
    opt("reorder", Text("u64"), Network, Some("0"), "extra hash-derived delay in [0, N] ticks \
        on duplicate copies (reorders them)"),
    opt("churn", Pair("rate", "restart-rate", "0"), Fault, None, "steady per-round crash \
        probability of live correct nodes and restart probability of crashed ones"),
    opt("catastrophe", Text("windows"), Fault, None, "burst windows start..end@rate[;...], \
        e.g. 20..25@0.4: a raised crash rate inside the window (correlated failures)"),
    opt("rejoin", OneOf(&["cold", "warm"]), Fault, Some("cold"), "restarted nodes rebootstrap \
        (cold) or keep their view with a staleness penalty (warm); needs --churn or \
        --catastrophe"),
    opt("attest-ttl", Text("usize"), Fault, Some("0"), "attestation-certificate lifetime in \
        rounds; expired trusted nodes act untrusted until re-attested (0 = never expire)"),
    opt("audit", Pair("budget", "grace", "10"), Audit, None, "verifiable audit layer: budget \
        merkle-opening challenges per round; unanswered audits decay after grace rounds; an \
        inconsistent proof convicts and quarantines the node"),
    opt("trusted-refresh", Text("usize"), Audit, Some("0"), "rounds between proactive \
        trusted-directory exchanges on the trusted tier (0 = off)"),
    opt("series", Text("bool"), Commands, Some("false"), "run: print repetition 0's \
        pollution curve as CSV"),
    opt("injected", Text("f64"), Commands, Some("0"), "inject: poisoned trusted nodes, share of n"),
];

/// The row declaring `--flag`.
fn row(flag: &str) -> Option<&'static Opt> {
    OPTIONS.iter().find(|o| o.flag == flag)
}

/// A subcommand's runner.
type Command = fn(&Args) -> Result<String, CliError>;

/// The subcommands: name, runner and help line.
#[rustfmt::skip]
const COMMANDS: [(&str, Command, &str); 5] = [
    ("run", cmd_run, "one scenario"),
    ("sweep", cmd_sweep, "f × t grid vs the Brahms baseline (fig 5-9 shape)"),
    ("ident", cmd_ident, "trusted-node identification attack (fig 10-12 shape)"),
    ("inject", cmd_inject, "view-poisoned trusted node injection (fig 13 shape)"),
    ("help", |_| Ok(usage()), "print this text"),
];

/// The help text printed on error or `help`, rendered from the option
/// and subcommand tables.
pub fn usage() -> String {
    let names: Vec<&str> = COMMANDS.iter().map(|c| c.0).collect();
    let mut out = format!(
        "raptee-cli — drive the RAPTEE reproduction from the command line\n\n\
         USAGE:\n    raptee-cli <{}> [--<option> <value>]...\n",
        names.join("|")
    );
    for (section, heading) in SECTIONS {
        out.push_str(&format!("\n{heading}:\n"));
        for o in OPTIONS.iter().filter(|o| o.section == section) {
            let pair = match o.value {
                Pair(_, second, default) => Some(format!("[default {second}: {default}]")),
                _ => None,
            };
            let default = o.default.map(|d| format!("[default: {d}]"));
            let help = o.help.split(' ').map(String::from);
            // Help wraps into a column from 30 to 80 characters.
            let mut line = format!("    --{} <{}>", o.flag, o.value);
            for word in help.chain(pair).chain(default) {
                let used = line.chars().count();
                if used >= 30 && used + 1 + word.chars().count() > 80 {
                    out.push_str(&format!("{line}\n"));
                    line = " ".repeat(30);
                } else {
                    line.push_str(&" ".repeat(30usize.saturating_sub(used).max(1)));
                }
                line.push_str(&word);
            }
            out.push_str(&format!("{line}\n"));
        }
    }
    out.push_str("\nSUBCOMMANDS:\n");
    for (name, _, help) in COMMANDS {
        out.push_str(&format!("    {name:<8} {help}\n"));
    }
    out
}

/// A parsed command line: a subcommand plus `--key value` options.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Args {
    /// The subcommand (first positional argument).
    pub command: String,
    /// `--key value` pairs.
    pub options: BTreeMap<String, String>,
}

/// Parsing errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CliError {
    /// No subcommand given.
    MissingCommand,
    /// A `--key` had no value.
    MissingValue(String),
    /// A positional argument appeared where an option was expected.
    UnexpectedArgument(String),
    /// A `--key` that is not one of [`usage`]'s options.
    UnknownOption(String),
    /// A value failed to parse for its option.
    BadValue {
        /// Option name.
        key: String,
        /// Offending value.
        value: String,
    },
    /// Unknown subcommand.
    UnknownCommand(String),
    /// The options parsed into a scenario [`Scenario::validate`] rejects.
    Invalid(ScenarioError),
}

impl std::fmt::Display for CliError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CliError::MissingCommand => write!(f, "missing subcommand (run|sweep|ident|inject)"),
            CliError::MissingValue(k) => write!(f, "option --{k} expects a value"),
            CliError::UnexpectedArgument(a) => write!(f, "unexpected argument {a:?}"),
            CliError::UnknownOption(k) => write!(f, "unknown option --{k}"),
            CliError::BadValue { key, value } => {
                write!(f, "invalid value {value:?} for --{key}")
            }
            CliError::UnknownCommand(c) => write!(f, "unknown subcommand {c:?}"),
            CliError::Invalid(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for CliError {}

impl Args {
    /// Parses raw arguments (without the program name).
    ///
    /// # Errors
    ///
    /// Returns a [`CliError`] when the grammar is violated or an option
    /// is not one [`usage`] lists.
    pub fn parse<I: IntoIterator<Item = String>>(raw: I) -> Result<Args, CliError> {
        let mut iter = raw.into_iter();
        let command = iter.next().ok_or(CliError::MissingCommand)?;
        if command.starts_with('-') {
            return Err(CliError::MissingCommand);
        }
        let mut options = BTreeMap::new();
        while let Some(arg) = iter.next() {
            let key = arg
                .strip_prefix("--")
                .ok_or_else(|| CliError::UnexpectedArgument(arg.clone()))?
                .to_string();
            if row(&key).is_none() {
                return Err(CliError::UnknownOption(key));
            }
            let value = iter
                .next()
                .ok_or_else(|| CliError::MissingValue(key.clone()))?;
            options.insert(key, value);
        }
        Ok(Args { command, options })
    }

    /// `--key`'s value as given, else its row's default; `None` for an
    /// absent option that is off unless given.
    fn value(&self, key: &str) -> Option<&str> {
        match self.options.get(key) {
            Some(v) => Some(v),
            None => row(key).and_then(|o| o.default),
        }
    }

    /// `--key`'s value or default, parsed; an absent option without a
    /// default reads as empty text.
    fn get<T: std::str::FromStr>(&self, key: &str) -> Result<T, CliError> {
        let v = self.value(key).unwrap_or_default();
        v.parse().map_err(|_| bad_value(key, v))
    }

    /// The entry of `values` at the position of `--key`'s value in the
    /// option's list of names.
    fn choice<T: Copy, const N: usize>(&self, key: &str, values: [T; N]) -> Result<T, CliError> {
        let v = self.value(key).unwrap_or_default();
        let names = match row(key).map(|o| o.value) {
            Some(OneOf(names)) => names,
            _ => &[],
        };
        names
            .iter()
            .position(|&name| name == v)
            .and_then(|i| values.get(i).copied())
            .ok_or_else(|| bad_value(key, v))
    }

    /// Whether a boolean flag (`--series true` / presence with any value
    /// other than "false") is set.
    fn flag(&self, key: &str) -> bool {
        self.value(key).is_some_and(|v| v != "false" && v != "0")
    }

    /// Parses `--eviction`: `none`, `adaptive`, or a fixed rate like
    /// `0.6`.
    fn eviction(&self) -> Result<EvictionPolicy, CliError> {
        match self.value("eviction") {
            Some("adaptive") => Ok(EvictionPolicy::adaptive()),
            Some("none") => Ok(EvictionPolicy::none()),
            _ => self.get("eviction").map(EvictionPolicy::Fixed),
        }
    }

    /// Parses `--protocol`. The BASALT family reads `--rotation` and runs
    /// `view_size` ranked slots; the BASALT+TEE hybrid also reads
    /// `--wlist-ttl` and takes its trusted tier from `--t`. LIFT reads
    /// `--fade` and Honeybee reads `--walk-length`.
    fn protocol(&self, view_size: usize) -> Result<Protocol, CliError> {
        self.named_protocol(self.value("protocol").unwrap_or_default(), view_size)
    }

    /// Resolves one protocol name (shared by `--protocol` and the
    /// `--population` entries).
    fn named_protocol(&self, name: &str, view_size: usize) -> Result<Protocol, CliError> {
        match name {
            "raptee" => Ok(Protocol::Raptee),
            "brahms" => Ok(Protocol::Brahms),
            "basalt" => Ok(Protocol::Basalt {
                view_size,
                rotation_interval: self.get("rotation")?,
            }),
            "basalt-tee" => Ok(Protocol::BasaltTee {
                view_size,
                rotation_interval: self.get("rotation")?,
                wlist_ttl: self.get("wlist-ttl")?,
            }),
            "lift" => Ok(Protocol::Lift {
                view_size,
                fade_interval: self.get("fade")?,
            }),
            "honeybee" => Ok(Protocol::Honeybee {
                view_size,
                walk_length: self.get("walk-length")?,
            }),
            v => Err(bad_value("protocol", v)),
        }
    }

    /// Parses `--population`: a comma-separated list of `protocol:count`
    /// (absolute correct-node counts) or `protocol:share%` (percent of
    /// the correct population; the remainder after all percent segments
    /// lands in the last one) entries, e.g. `raptee:50%,basalt-tee:50%`.
    fn population(&self, view_size: usize, correct: usize) -> Result<Vec<SegmentSpec>, CliError> {
        let Some(spec) = self.value("population") else {
            return Ok(Vec::new());
        };
        let bad = |value: &str| bad_value("population", value);
        let mut segments = Vec::new();
        let mut percent_sum = 0.0f64;
        let mut all_percent = true;
        for entry in spec.split(',') {
            let (name, amount) = entry.split_once(':').ok_or_else(|| bad(entry))?;
            let protocol = self
                .named_protocol(name.trim(), view_size)
                .map_err(|_| bad(entry))?;
            let amount = amount.trim();
            let count = if let Some(pct) = amount.strip_suffix('%') {
                let pct: f64 = pct.trim().parse().map_err(|_| bad(entry))?;
                if !(0.0..=100.0).contains(&pct) {
                    return Err(bad(entry));
                }
                percent_sum += pct;
                (correct as f64 * pct / 100.0).round() as usize
            } else {
                all_percent = false;
                amount.parse().map_err(|_| bad(entry))?
            };
            segments.push(SegmentSpec { protocol, count });
        }
        if all_percent {
            // Percent shares must cover the whole correct population —
            // a mistyped share errors instead of being silently
            // reinterpreted. Only *rounding* slack is absorbed, into the
            // final segment.
            if (percent_sum - 100.0).abs() > 1e-9 {
                return Err(bad(&format!(
                    "{spec} (shares sum to {percent_sum}%, need 100%)"
                )));
            }
            if let Some((last, others)) = segments.split_last_mut() {
                last.count = correct.saturating_sub(others.iter().map(|s| s.count).sum());
            }
        }
        Ok(segments)
    }

    /// Parses `--scale`: a named profile of the bench harness, whose
    /// N/view/rounds become the scenario defaults.
    fn scale(&self) -> Result<Option<Scale>, CliError> {
        let scale = |name| Scale::named(name).ok_or_else(|| bad_value("scale", name));
        self.value("scale").map(scale).transpose()
    }

    /// Parses `--discovery`: how the system-discovery metric is tracked.
    fn discovery(&self) -> Result<DiscoveryMode, CliError> {
        use DiscoveryMode::{Auto, Exact, Sketch};
        self.choice("discovery", [Auto, Exact, Sketch])
    }

    /// Parses the network-model options. `--network events` selects the
    /// discrete-event delivery substrate, which the other network options
    /// configure; without it they are rejected, not silently ignored.
    fn network(&self) -> Result<NetworkModel, CliError> {
        if !self.choice("network", [false, true])? {
            let given = |o: &&Opt| {
                o.section == Network && o.flag != "network" && self.options.contains_key(o.flag)
            };
            return match OPTIONS.iter().find(given) {
                Some(o) => Err(bad_value(o.flag, "requires --network events")),
                None => Ok(NetworkModel::Rounds),
            };
        }
        let round_ticks = self.get("round-ticks")?;
        Ok(NetworkModel::Events(EventNetConfig {
            latency: self.latency(round_ticks)?,
            round_ticks,
            jitter: self.get("jitter")?,
            partitions: self.partitions()?,
            reachability: self.reachability()?,
            retry: self.retry()?,
            duplicate_rate: self.get("duplicate")?,
            reorder_jitter: self.get("reorder")?,
        }))
    }

    /// Parses `--retry max[:backoff]`: extra pull attempts after a
    /// missed deadline and the exponential-backoff base in ticks.
    fn retry(&self) -> Result<RetryConfig, CliError> {
        Ok(match self.pair("retry")? {
            None => RetryConfig::default(),
            Some((max_retries, base_backoff)) => RetryConfig {
                max_retries,
                base_backoff,
            },
        })
    }

    /// Parses `--audit budget[:grace]`: challenges issued per round by
    /// the verifiable-audit challenger and the suspicion grace window in
    /// rounds.
    fn audit(&self) -> Result<Option<AuditConfig>, CliError> {
        Ok(self
            .pair("audit")?
            .map(|(budget, grace)| AuditConfig { budget, grace }))
    }

    /// Parses an optional `--key first[:second]` spec; an omitted
    /// `second` reads the option's [`Value::Pair`] default.
    fn pair<A: std::str::FromStr, B: std::str::FromStr>(
        &self,
        key: &str,
    ) -> Result<Option<(A, B)>, CliError> {
        let Some(spec) = self.value(key) else {
            return Ok(None);
        };
        let second = match row(key).map(|o| o.value) {
            Some(Pair(_, _, default)) => default,
            _ => "",
        };
        let (first, second) = spec.split_once(':').unwrap_or((spec, second));
        let bad = || bad_value(key, spec);
        Ok(Some((
            first.parse().map_err(|_| bad())?,
            second.parse().map_err(|_| bad())?,
        )))
    }

    /// Parses the churn options: `--churn`, `--catastrophe` and
    /// `--rejoin`, which needs a restart process.
    fn churn(&self) -> Result<ChurnSchedule, CliError> {
        let mut churn = ChurnSchedule::default();
        if let Some((crash_rate, restart_rate)) = self.pair("churn")? {
            churn.crash_rate = crash_rate;
            churn.restart_rate = restart_rate;
        }
        churn.bursts = self.windows("catastrophe", |start, end, crash_rate| ChurnBurst {
            start,
            end,
            crash_rate,
        })?;
        if let Some(v) = self.options.get("rejoin").filter(|_| !churn.dynamic()) {
            let why = format!("{v} (requires --churn or --catastrophe)");
            return Err(bad_value("rejoin", why));
        }
        churn.rejoin = self.choice("rejoin", [RejoinPolicy::Cold, RejoinPolicy::Warm])?;
        Ok(churn)
    }

    /// Parses `--latency const:T | uniform:LO..HI |
    /// lognormal:MU,SIGMA[,CAP]` (ticks; CAP defaults to ten rounds).
    fn latency(&self, round_ticks: u64) -> Result<LatencyModel, CliError> {
        let spec = self.value("latency").unwrap_or_default();
        let bad = || bad_value("latency", spec);
        let (kind, params) = spec.split_once(':').ok_or_else(bad)?;
        match kind {
            "const" | "constant" => Ok(LatencyModel::Constant(params.parse().map_err(|_| bad())?)),
            "uniform" => {
                let (lo, hi) = params.split_once("..").ok_or_else(bad)?;
                Ok(LatencyModel::Uniform {
                    min: lo.parse().map_err(|_| bad())?,
                    max: hi.parse().map_err(|_| bad())?,
                })
            }
            "lognormal" => {
                let parts: Vec<&str> = params.split(',').collect();
                let (mu, sigma, cap) = match parts[..] {
                    [mu, sigma] => (mu, sigma, None),
                    [mu, sigma, cap] => (mu, sigma, Some(cap)),
                    _ => return Err(bad()),
                };
                Ok(LatencyModel::LogNormal {
                    mu: mu.parse().map_err(|_| bad())?,
                    sigma: sigma.parse().map_err(|_| bad())?,
                    cap: match cap {
                        Some(c) => c.parse().map_err(|_| bad())?,
                        None => round_ticks.saturating_mul(10),
                    },
                })
            }
            _ => Err(bad()),
        }
    }

    /// Parses `--partition start..end@boundary[;start..end@boundary...]`
    /// (rounds and an actor-index boundary per window).
    fn partitions(&self) -> Result<Vec<PartitionWindow>, CliError> {
        self.windows("partition", |start, end, boundary| PartitionWindow {
            start,
            end,
            boundary,
        })
    }

    /// Parses an optional semicolon-separated `--key start..end@value`
    /// list of round windows (empty when the flag is absent).
    fn windows<V: std::str::FromStr, T>(
        &self,
        key: &str,
        window: impl Fn(usize, usize, V) -> T,
    ) -> Result<Vec<T>, CliError> {
        let Some(spec) = self.options.get(key) else {
            return Ok(Vec::new());
        };
        let bad = |entry: &str| bad_value(key, entry);
        spec.split(';')
            .map(|entry| {
                let entry = entry.trim();
                let (range, value) = entry.split_once('@').ok_or_else(|| bad(entry))?;
                let (start, end) = range.split_once("..").ok_or_else(|| bad(entry))?;
                Ok(window(
                    start.trim().parse().map_err(|_| bad(entry))?,
                    end.trim().parse().map_err(|_| bad(entry))?,
                    value.trim().parse().map_err(|_| bad(entry))?,
                ))
            })
            .collect()
    }

    /// Parses `--attack` (`balanced`, `force-push`, or
    /// `targeted:fraction,focus` — e.g. `targeted:0.1,0.75`): the
    /// adversary's static push strategy.
    fn attack(&self) -> Result<AttackStrategy, CliError> {
        let spec = self.value("attack").unwrap_or_default();
        let bad = || bad_value("attack", spec);
        match spec {
            "balanced" => Ok(AttackStrategy::Balanced),
            "force-push" => Ok(AttackStrategy::ForcePush),
            s => {
                let params = s.strip_prefix("targeted:").ok_or_else(bad)?;
                let (fraction, focus) = params.split_once(',').ok_or_else(bad)?;
                Ok(AttackStrategy::Targeted {
                    victim_fraction: fraction.trim().parse().map_err(|_| bad())?,
                    focus: focus.trim().parse().map_err(|_| bad())?,
                })
            }
        }
    }

    /// Parses `--adversary`: whether the adversary plays `--attack`
    /// every round (`static`) or lets the UCB bandit coordinator re-aim
    /// the budget by observed pollution yield (`adaptive`).
    fn adversary_mode(&self) -> Result<AdversaryMode, CliError> {
        self.choice(
            "adversary",
            [AdversaryMode::Static, AdversaryMode::Adaptive],
        )
    }

    /// Parses `--nat fraction[:ttl]`: the NAT-ted share of the correct
    /// population and the punched-hole TTL in rounds.
    fn reachability(&self) -> Result<Reachability, CliError> {
        Ok(match self.pair("nat")? {
            None => Reachability::Full,
            Some((fraction, hole_ttl)) => Reachability::Nat { fraction, hole_ttl },
        })
    }

    /// Builds and validates the scenario common to all subcommands. The
    /// `ident` subcommand's scenario runs the identification attack.
    ///
    /// # Errors
    ///
    /// Propagates option-parsing failures, and the scenario's first
    /// broken rule as [`CliError::Invalid`].
    pub fn scenario(&self) -> Result<Scenario, CliError> {
        // A `--scale` preset supplies every default its bench profile
        // sets (the `paper` profile's flood threshold included); explicit
        // flags still win.
        let scale = self.scale()?;
        let base = scale.map_or_else(Scenario::default, |s| s.scenario());
        let sized = |key: &str, preset: usize| match scale {
            Some(_) if !self.options.contains_key(key) => Ok(preset),
            _ => self.get(key),
        };
        let view = sized("view", base.view_size)?;
        let rounds = sized("rounds", base.rounds)?;
        // `--t` is ignored under `--protocol basalt` (no trusted tier
        // exists).
        let mut scenario = Scenario {
            n: sized("n", base.n)?,
            byzantine_fraction: self.get("f")?,
            trusted_fraction: self.get("t")?,
            injected_poisoned_fraction: self.get("injected")?,
            eviction: self.eviction()?,
            view_size: view,
            sample_size: view,
            rounds,
            tail_window: tail_window(rounds),
            protocol: self.protocol(view)?,
            attack: self.attack()?,
            adversary_mode: self.adversary_mode()?,
            discovery: self.discovery()?,
            network: self.network()?,
            churn: self.churn()?,
            attest_ttl: self.get("attest-ttl")?,
            audit: self.audit()?,
            trusted_directory_refresh: self.get("trusted-refresh")?,
            identification_attack: self.command == "ident",
            seed: self.get("seed")?,
            ..base
        };
        let correct = scenario.n.saturating_sub(scenario.byzantine_count());
        scenario.population = self.population(view, correct)?;
        scenario.validate().map_err(CliError::Invalid)?;
        Ok(scenario)
    }

    /// Parses `--reps`, which must be positive and at most
    /// [`runner::MAX_REPETITIONS`].
    ///
    /// # Errors
    ///
    /// [`CliError::BadValue`] when unparsable, zero or above the bound.
    pub fn reps(&self) -> Result<usize, CliError> {
        match self.get("reps")? {
            0 => Err(bad_value("reps", "0 (need at least one repetition)")),
            reps if reps > runner::MAX_REPETITIONS => Err(bad_value(
                "reps",
                format!("{reps} (at most {})", runner::MAX_REPETITIONS),
            )),
            reps => Ok(reps),
        }
    }
}

fn bad_value(key: &str, value: impl Into<String>) -> CliError {
    CliError::BadValue {
        key: key.into(),
        value: value.into(),
    }
}

/// Executes a parsed command; returns the text to print.
///
/// # Errors
///
/// Returns usage/validation errors as [`CliError`].
pub fn execute(args: &Args) -> Result<String, CliError> {
    let (_, run, _) = COMMANDS
        .iter()
        .find(|(name, _, _)| *name == args.command)
        .ok_or_else(|| CliError::UnknownCommand(args.command.clone()))?;
    run(args)
}

fn cmd_run(args: &Args) -> Result<String, CliError> {
    let scenario = args.scenario()?;
    let reps = args.reps()?;
    // The first run the aggregate contains is the one `--series` prints;
    // the others are folded in and dropped as they finish.
    let mut series = Vec::new();
    let agg = runner::run_repeated_with(&scenario, reps, |k, run| {
        if k == 0 {
            series.clone_from(&run.byz_share_series);
        }
    });
    let mut out = String::new();
    let population = if scenario.population.is_empty() {
        format!("protocol={}", scenario.protocol.label())
    } else {
        let parts: Vec<String> = scenario
            .population
            .iter()
            .map(|s| format!("{}:{}", s.protocol.label(), s.count))
            .collect();
        format!("population={}", parts.join(","))
    };
    let network = match scenario.network {
        NetworkModel::Rounds => "rounds",
        NetworkModel::Events(_) => "events",
    };
    out.push_str(&format!(
        "{population} n={} f={:.0}% t={:.0}% eviction={} rounds={} reps={reps} discovery={} network={network}\n",
        scenario.n,
        scenario.byzantine_fraction * 100.0,
        // The *effective* trusted share: 0 under Brahms/BASALT even when
        // a --t default or flag is present.
        scenario.trusted_count() as f64 / scenario.n as f64 * 100.0,
        scenario.eviction.label(),
        scenario.rounds,
        if scenario.sketch_discovery() {
            "sketch"
        } else {
            "exact"
        },
    ));
    out.push_str(&format!(
        "resilience: {:.2}% Byzantine IDs in non-Byzantine views\n",
        agg.resilience * 100.0
    ));
    if agg.segments.len() > 1 {
        for seg in &agg.segments {
            out.push_str(&format!(
                "  segment {:10} ({} nodes): {:.2}%   discovery {}   stability {}\n",
                seg.protocol.label(),
                seg.nodes,
                seg.resilience * 100.0,
                seg.discovery_round
                    .map_or("-".into(), |r| format!("{r:.1}")),
                seg.stability_round
                    .map_or("-".into(), |r| format!("{r:.1}")),
            ));
        }
    }
    out.push_str(&format!(
        "discovery round: {}   stability round: {}\n",
        agg.discovery_round
            .map_or("-".into(), |r| format!("{r:.1}")),
        agg.stability_round
            .map_or("-".into(), |r| format!("{r:.1}")),
    ));
    if let Some(availability) = agg.availability {
        out.push_str(&format!(
            "availability: {:.2}%   time-to-recover: {}\n",
            availability * 100.0,
            agg.time_to_recover
                .map_or("-".into(), |r| format!("{r:.1} rounds")),
        ));
    }
    if let Some(audit) = scenario.audit {
        out.push_str(&format!(
            "audit (budget {}, grace {}): convictions {}   false accusations {}   detection latency {}\n",
            audit.budget,
            audit.grace,
            agg.audit_convictions
                .map_or("-".into(), |c| format!("{c:.1}")),
            agg.audit_false_accusations
                .map_or("-".into(), |c| format!("{c:.1}")),
            agg.audit_detection_latency
                .map_or("-".into(), |l| format!("{l:.1} rounds")),
        ));
    }
    if args.flag("series") {
        // The first run the aggregate above contains.
        out.push_str("round,byzantine_share\n");
        for (i, v) in series.iter().enumerate() {
            out.push_str(&format!("{i},{v:.4}\n"));
        }
    }
    Ok(out)
}

fn cmd_sweep(args: &Args) -> Result<String, CliError> {
    let template = args.scenario()?;
    let reps = args.reps()?;
    let scale = match args.scale()? {
        Some(scale) => scale,
        None => Scale::named("small").expect("the small profile exists"),
    };
    let (fs, ts) = (byzantine_fractions(&scale), trusted_fractions());
    // Every cell must validate before any runs: a `--population` count,
    // say, fits one `f` of the grid only.
    let cells = runner::sweep_cells(&template, &fs, &ts);
    let baselines = cells.baselines.iter().map(|(_, s)| s);
    for cell in baselines.chain(cells.grid.iter().map(|(_, _, s)| s)) {
        cell.validate().map_err(CliError::Invalid)?;
    }
    let sweep = runner::sweep_grid(&template, &fs, &ts, reps);
    let mut out = String::from("f,t,improvement_pct,resilience,baseline\n");
    for (f, t, result) in &sweep.grid {
        // `sweep_grid` runs one baseline for every f in `fs`, and each
        // grid cell's f comes from `fs`.
        let base = sweep.baseline(*f).expect("baseline per f");
        out.push_str(&format!(
            "{f:.2},{t:.2},{:.2},{:.4},{:.4}\n",
            runner::resilience_improvement_pct(base, result),
            result.resilience,
            base.resilience,
        ));
    }
    Ok(out)
}

/// Rejects the ranked families (BASALT/LIFT/Honeybee) and mixed
/// populations for `inject`, which compares a clean run with an injected
/// one even at `--injected 0`, where no scenario rule applies.
fn require_trusted_tier(scenario: &Scenario) -> Result<(), CliError> {
    if !scenario.population.is_empty() {
        let why = "mixed populations (this attack needs a uniform RAPTEE run)";
        return Err(bad_value("population", why));
    }
    if scenario.protocol.is_ranked_family() {
        let label = scenario.protocol.label();
        let why = format!("{label} (this attack needs the uniform RAPTEE protocol)");
        return Err(bad_value("protocol", why));
    }
    Ok(())
}

fn cmd_ident(args: &Args) -> Result<String, CliError> {
    let scenario = args.scenario()?;
    let reps = args.reps()?;
    let agg = runner::run_repeated(&scenario, reps);
    Ok(format!(
        "identification attack (f={:.0}%, t={:.0}%, {}):\nprecision={:.3} recall={:.3} f1={:.3}\n",
        scenario.byzantine_fraction * 100.0,
        scenario.trusted_fraction * 100.0,
        scenario.eviction.label(),
        agg.ident_precision,
        agg.ident_recall,
        agg.ident_f1,
    ))
}

fn cmd_inject(args: &Args) -> Result<String, CliError> {
    let scenario = args.scenario()?;
    require_trusted_tier(&scenario)?;
    let reps = args.reps()?;
    // The two reference runs drop knobs the attacked run validated with
    // (its trusted tier, its injected actors), so they validate too.
    let baseline = scenario.brahms_baseline();
    let clean = Scenario {
        injected_poisoned_fraction: 0.0,
        ..scenario.clone()
    };
    for s in [&baseline, &clean] {
        s.validate().map_err(CliError::Invalid)?;
    }
    let baseline = runner::run_repeated(&baseline, reps);
    let clean = runner::run_repeated(&clean, reps);
    let attacked = runner::run_repeated(&scenario, reps);
    Ok(format!(
        "injection attack (t={:.0}%, +{:.0}% poisoned):\n\
         clean improvement:    {:.2}%\n\
         attacked improvement: {:.2}%\n",
        scenario.trusted_fraction * 100.0,
        scenario.injected_poisoned_fraction * 100.0,
        runner::resilience_improvement_pct(&baseline, &clean),
        runner::resilience_improvement_pct(&baseline, &attacked),
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use raptee_sim::DEFAULT_AUDIT_GRACE;

    fn args(v: &[&str]) -> Result<Args, CliError> {
        Args::parse(v.iter().map(|s| s.to_string()))
    }

    /// The flag a `BadValue` or `UnknownOption`, or the scenario knob an
    /// `Invalid`, names.
    fn blamed(err: &CliError) -> &str {
        match err {
            CliError::BadValue { key, .. } | CliError::UnknownOption(key) => key,
            CliError::Invalid(e) => e.knob,
            other => panic!("expected a value error, got {other:?}"),
        }
    }

    /// What `args(v).scenario()` blames.
    fn scenario_blames(v: &[&str]) -> String {
        blamed(&args(v).unwrap().scenario().unwrap_err()).to_string()
    }

    /// Argument vectors that break a scenario rule or name no option
    /// (most of them once panicked or were silently ignored), with the
    /// knob or flag each must be rejected for.
    const INVALID: &[(&[&str], &str)] = &[
        (&["run", "--n", "1"], "n"),
        (&["run", "--n", "18446744073709551615"], "n"),
        (
            &["run", "--n", "60", "--rounds", "10", "--veiw", "8"],
            "veiw",
        ),
        (&["run", "--key", "8"], "key"),
        (&["run", "--rot", "8"], "rot"),
        (&["run", "--f", "1.5"], "byzantine_fraction"),
        (&["run", "--view", "0"], "view_size"),
        (&["run", "--rounds", "0"], "rounds"),
        (&["run", "--f", "0.6", "--t", "0.6"], "trusted_fraction"),
        (&["run", "--protocol", "lift", "--fade", "0"], "protocol"),
        (&["run", "--catastrophe", "150..300@0.2"], "churn.bursts"),
        (
            &["run", "--network", "events", "--partition", "10..500@5"],
            "network.partitions",
        ),
        (
            &["run", "--t", "0.5", "--population", "raptee:50%,basalt:50%"],
            "trusted_fraction",
        ),
        (&["run", "--reps", "0"], "reps"),
        (&["sweep", "--reps", "0"], "reps"),
        (&["ident", "--reps", "0"], "reps"),
        (&["inject", "--reps", "0"], "reps"),
        (&["run", "--reps", "18446744073709551615"], "reps"),
        (
            &["sweep", "--population", "raptee:50%,basalt-tee:50%"],
            "population",
        ),
        (&["sweep", "--attest-ttl", "20"], "attest_ttl"),
        (&["ident", "--protocol", "lift"], "identification_attack"),
        (&["inject", "--audit", "4"], "audit"),
        (
            &[
                "run",
                "--attest-ttl",
                "20",
                "--population",
                "raptee:18446744073709551615,basalt-tee:5",
            ],
            "population",
        ),
    ];

    /// Each [`INVALID`] vector comes back as an error naming the right
    /// knob or flag, and survives the fuzz's checks.
    #[test]
    fn invalid_argument_vectors_are_errors_not_panics() {
        for &(argv, knob) in INVALID {
            let err = std::panic::catch_unwind(|| args(argv).and_then(|a| execute(&a)))
                .unwrap_or_else(|_| panic!("{argv:?} panicked"))
                .expect_err(&format!("{argv:?} must be rejected"));
            assert_eq!(blamed(&err), knob, "{argv:?}: {err}");
            survives(argv);
        }
    }

    /// Parses `argv`, then builds its scenario and repetition count,
    /// under `catch_unwind`: none may panic, and an accepted scenario
    /// must validate.
    fn survives(argv: &[&str]) {
        let built = std::panic::catch_unwind(|| args(argv).map(|a| (a.scenario(), a.reps())))
            .unwrap_or_else(|_| panic!("{argv:?} panicked"));
        if let Ok((Ok(s), _)) = built {
            assert_eq!(s.validate(), Ok(()), "{argv:?}");
        }
    }

    /// The values the fuzz draws for one option: its default, a
    /// boundary value, malformed text, empty text and `u64::MAX`.
    fn samples(o: &Opt) -> [&'static str; 5] {
        let boundary = match o.value {
            OneOf(names) => names[names.len() - 1],
            Pair(..) => "1:1",
            Text(_) => match o.flag {
                "f" | "t" | "eviction" | "duplicate" | "injected" => "1",
                "scale" => "tiny",
                "protocol" => "honeybee",
                "attack" => "targeted:1,0",
                "population" => "raptee:100%",
                "latency" => "uniform:0..0",
                "partition" | "catastrophe" => "0..1@0",
                "series" => "true",
                _ => "0",
            },
        };
        let default = o.default.unwrap_or(boundary);
        [default, boundary, "1x:", "", "18446744073709551615"]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(1024))]
        /// CLI fuzz: a subcommand and one to four options of the table,
        /// each with one of its [`samples`].
        #[test]
        fn any_argument_vector_survives(
            command in 0..COMMANDS.len(),
            picks in proptest::collection::vec((0..OPTIONS.len(), 0usize..5), 1..5),
        ) {
            let mut argv = vec![COMMANDS[command].0.to_string()];
            for (i, sample) in picks {
                argv.push(format!("--{}", OPTIONS[i].flag));
                argv.push(samples(&OPTIONS[i])[sample].to_string());
            }
            survives(&argv.iter().map(String::as_str).collect::<Vec<_>>());
        }
    }

    /// Help and parser read one table. Under every subcommand, for every
    /// option: [`usage`] lists its flag, placeholder and default;
    /// passing the default builds what omitting the flag builds; every
    /// listed name is accepted; and an option of the network section
    /// other than `--network` is rejected without `--network events`.
    #[test]
    fn usage_and_parser_read_one_table() {
        let help = usage();
        for o in &OPTIONS {
            let head = format!("    --{} <{}>", o.flag, o.value);
            let (_, rest) = help
                .split_once(&head)
                .unwrap_or_else(|| panic!("usage lacks {head:?}"));
            let block = rest.split("\n    --").next().unwrap_or(rest);
            let pair = match o.value {
                Pair(_, second, d) => Some(format!("[default {second}: {d}]")),
                _ => None,
            };
            let default = o.default.map(|d| format!("[default: {d}]"));
            for listed in pair.iter().chain(&default) {
                assert!(block.contains(listed.as_str()), "--{}: {listed}", o.flag);
            }
        }
        for (command, ..) in &COMMANDS[..4] {
            for o in &OPTIONS {
                let events = o.section == Network && o.flag != "network";
                let context: &[&str] = match o.flag {
                    _ if events => &["--network", "events"],
                    "rejoin" => &["--churn", "0.02:0.4"],
                    _ => &[],
                };
                let flag = format!("--{}", o.flag);
                let build = |value: Option<&str>| {
                    let mut argv = vec![*command];
                    argv.extend_from_slice(context);
                    argv.extend(value.map(|v| [flag.as_str(), v]).into_iter().flatten());
                    let a = args(&argv).unwrap();
                    (a.scenario(), a.reps())
                };
                if let Some(d) = o.default {
                    assert_eq!(build(Some(d)), build(None), "{command} {flag} {d}");
                }
                if let OneOf(names) = o.value {
                    for name in names {
                        assert!(build(Some(name)).0.is_ok(), "{command} {flag} {name}");
                    }
                }
                if events {
                    let a = args(&[command, &flag, o.default.unwrap_or("1")]).unwrap();
                    assert_eq!(
                        a.scenario().unwrap_err(),
                        bad_value(o.flag, "requires --network events"),
                        "{command} {flag}"
                    );
                }
            }
        }
    }

    /// The usage line's `--<option>` placeholder names no option.
    #[test]
    fn the_usage_placeholder_is_not_an_option() {
        for flag in ["<option>", "<option"] {
            let argv = ["run", &format!("--{flag}"), "5"];
            assert_eq!(
                args(&argv).unwrap_err(),
                CliError::UnknownOption(flag.into()),
                "{argv:?}"
            );
        }
    }

    #[test]
    fn invalid_scenario_displays_knob_and_reason() {
        let err = args(&["run", "--n", "1"]).unwrap().scenario().unwrap_err();
        assert_eq!(
            err.to_string(),
            "n: population must contain at least two nodes"
        );
    }

    #[test]
    fn a_view_that_renews_nothing_is_a_scenario_error() {
        let err = args(&["run", "--view", "1"])
            .unwrap()
            .scenario()
            .unwrap_err();
        assert_eq!(
            err.to_string(),
            "protocol: alpha*l1 rounds to 0: the view would push and pull nothing"
        );
        // A ranked family pushes its parity fanout of 1 at the same view.
        let out = execute(
            &args(&[
                "run",
                "--protocol",
                "basalt",
                "--view",
                "1",
                "--n",
                "40",
                "--rounds",
                "5",
            ])
            .unwrap(),
        )
        .unwrap();
        assert!(out.contains("resilience:"), "{out}");
    }

    #[test]
    fn duplicate_rate_of_one_runs() {
        let a = args(&[
            "run",
            "--n",
            "60",
            "--rounds",
            "10",
            "--view",
            "8",
            "--network",
            "events",
            "--duplicate",
            "1",
        ])
        .unwrap();
        let out = execute(&a).unwrap();
        assert!(out.contains("network=events"), "{out}");
    }

    #[test]
    fn parses_command_and_options() {
        let a = args(&["run", "--n", "100", "--f", "0.2"]).unwrap();
        assert_eq!(a.command, "run");
        assert_eq!(a.get::<usize>("n").unwrap(), 100);
        assert_eq!(a.get::<f64>("f").unwrap(), 0.2);
        assert_eq!(a.get::<usize>("rounds").unwrap(), 200, "default applies");
    }

    #[test]
    fn rejects_bad_grammar() {
        assert_eq!(args(&[]).unwrap_err(), CliError::MissingCommand);
        assert_eq!(args(&["--n", "5"]).unwrap_err(), CliError::MissingCommand);
        assert_eq!(
            args(&["run", "--n"]).unwrap_err(),
            CliError::MissingValue("n".into())
        );
        assert_eq!(
            args(&["run", "stray"]).unwrap_err(),
            CliError::UnexpectedArgument("stray".into())
        );
    }

    #[test]
    fn rejects_bad_values() {
        let a = args(&["run", "--n", "lots"]).unwrap();
        assert!(matches!(
            a.get::<usize>("n"),
            Err(CliError::BadValue { .. })
        ));
        let a = args(&["run", "--eviction", "often"]).unwrap();
        assert!(a.eviction().is_err());
        assert_eq!(scenario_blames(&["run", "--eviction", "1.5"]), "eviction");
        let a = args(&["run", "--protocol", "bitcoin"]).unwrap();
        assert!(a.protocol(16).is_err());
    }

    #[test]
    fn eviction_forms() {
        assert_eq!(
            args(&["run"]).unwrap().eviction().unwrap(),
            EvictionPolicy::adaptive()
        );
        assert_eq!(
            args(&["run", "--eviction", "none"])
                .unwrap()
                .eviction()
                .unwrap(),
            EvictionPolicy::Fixed(0.0)
        );
        assert_eq!(
            args(&["run", "--eviction", "0.4"])
                .unwrap()
                .eviction()
                .unwrap(),
            EvictionPolicy::Fixed(0.4)
        );
    }

    #[test]
    fn scenario_construction() {
        let a = args(&["run", "--n", "120", "--f", "0.3", "--rounds", "50"]).unwrap();
        let s = a.scenario().unwrap();
        assert_eq!(s.n, 120);
        assert_eq!(s.byzantine_fraction, 0.3);
        assert_eq!(s.rounds, 50);
    }

    /// The option table restates library defaults as text (the seed
    /// `5937134` is `0x5A97EE`); `run` with no flags must build what
    /// `Scenario::default()` holds for every knob the table defaults.
    #[test]
    fn absent_flags_restate_the_scenario_defaults() {
        let s = args(&["run"]).unwrap().scenario().unwrap();
        let d = Scenario::default();
        assert_eq!(s.byzantine_fraction, d.byzantine_fraction, "--f");
        assert_eq!(s.trusted_fraction, d.trusted_fraction, "--t");
        assert_eq!(s.seed, d.seed, "--seed");
        assert_eq!(s.eviction, d.eviction, "--eviction");
        assert_eq!(s.protocol, d.protocol, "--protocol");
        assert_eq!(s.attack, d.attack, "--attack");
        assert_eq!(s.adversary_mode, d.adversary_mode, "--adversary");
        assert_eq!(s.discovery, d.discovery, "--discovery");
        assert_eq!(s.network, d.network, "--network");
        assert_eq!(s.churn, d.churn, "--churn, --catastrophe, --rejoin");
        assert_eq!(s.audit, d.audit, "--audit");
        assert_eq!(s.attest_ttl, d.attest_ttl, "--attest-ttl");
        assert_eq!(
            s.trusted_directory_refresh, d.trusted_directory_refresh,
            "--trusted-refresh"
        );
        assert_eq!(
            s.injected_poisoned_fraction, d.injected_poisoned_fraction,
            "--injected"
        );
    }

    /// `--network events` alone builds the event network's defaults.
    #[test]
    fn a_bare_events_network_restates_its_defaults() {
        let s = args(&["run", "--network", "events"])
            .unwrap()
            .scenario()
            .unwrap();
        assert_eq!(s.network, NetworkModel::Events(EventNetConfig::default()));
    }

    #[test]
    fn scale_presets_apply_and_yield_to_explicit_flags() {
        let s = args(&["run", "--scale", "tiny"])
            .unwrap()
            .scenario()
            .unwrap();
        assert_eq!((s.n, s.view_size, s.rounds), (150, 12, 250));
        let s = args(&["run", "--scale", "tiny", "--n", "99", "--rounds", "40"])
            .unwrap()
            .scenario()
            .unwrap();
        assert_eq!((s.n, s.view_size, s.rounds), (99, 12, 40));
        let s = args(&["run", "--scale", "million"])
            .unwrap()
            .scenario()
            .unwrap();
        assert_eq!(s.n, 1_000_000);
        assert!(s.sketch_discovery(), "million auto-selects sketches");
        let err = args(&["run", "--scale", "galactic"])
            .unwrap()
            .scenario()
            .unwrap_err();
        assert!(matches!(err, CliError::BadValue { ref key, .. } if key == "scale"));
    }

    #[test]
    fn the_paper_preset_runs_the_paper_flood_threshold() {
        let s = args(&["run", "--scale", "paper"])
            .unwrap()
            .scenario()
            .unwrap();
        assert_eq!((s.n, s.view_size, s.rounds), (10_000, 200, 200));
        assert_eq!(
            s.flood_slack_sigmas, 0.0,
            "the paper-literal α·l1 threshold"
        );
        // The reduced presets keep the reduced-scale slack.
        let s = args(&["run", "--scale", "tiny"])
            .unwrap()
            .scenario()
            .unwrap();
        assert_eq!(s.flood_slack_sigmas, Scenario::default().flood_slack_sigmas);
    }

    #[test]
    fn discovery_modes_parse() {
        let a = args(&["run"]).unwrap();
        assert_eq!(a.discovery().unwrap(), DiscoveryMode::Auto);
        let a = args(&["run", "--discovery", "exact"]).unwrap();
        assert_eq!(a.discovery().unwrap(), DiscoveryMode::Exact);
        let a = args(&["run", "--discovery", "sketch"]).unwrap();
        assert_eq!(a.discovery().unwrap(), DiscoveryMode::Sketch);
        assert!(a.scenario().unwrap().sketch_discovery());
        let a = args(&["run", "--discovery", "psychic"]).unwrap();
        assert!(matches!(
            a.discovery().unwrap_err(),
            CliError::BadValue { ref key, .. } if key == "discovery"
        ));
    }

    #[test]
    fn run_reports_discovery_mode() {
        let a = args(&[
            "run",
            "--n",
            "60",
            "--rounds",
            "10",
            "--view",
            "8",
            "--discovery",
            "sketch",
        ])
        .unwrap();
        let out = execute(&a).unwrap();
        assert!(out.contains("discovery=sketch"), "{out}");
        let a = args(&["run", "--n", "60", "--rounds", "10", "--view", "8"]).unwrap();
        let out = execute(&a).unwrap();
        assert!(out.contains("discovery=exact"), "{out}");
    }

    #[test]
    fn execute_help_and_unknown() {
        let help = execute(&args(&["help"]).unwrap()).unwrap();
        assert!(help.contains("USAGE"));
        assert_eq!(
            execute(&args(&["frobnicate"]).unwrap()).unwrap_err(),
            CliError::UnknownCommand("frobnicate".into())
        );
    }

    #[test]
    fn execute_small_run() {
        let a = args(&[
            "run", "--n", "80", "--rounds", "20", "--view", "10", "--t", "0.1",
        ])
        .unwrap();
        let out = execute(&a).unwrap();
        assert!(out.contains("resilience:"), "{out}");
    }

    #[test]
    fn execute_small_ident() {
        let a = args(&[
            "ident", "--n", "80", "--rounds", "20", "--view", "10", "--t", "0.2",
        ])
        .unwrap();
        let out = execute(&a).unwrap();
        assert!(out.contains("precision="), "{out}");
    }

    #[test]
    fn basalt_protocol_parses_and_runs() {
        let a = args(&["run", "--protocol", "basalt", "--rotation", "10"]).unwrap();
        assert_eq!(
            a.protocol(16).unwrap(),
            Protocol::Basalt {
                view_size: 16,
                rotation_interval: 10
            }
        );
        let s = a.scenario().unwrap();
        assert_eq!(s.trusted_count(), 0, "BASALT runs no trusted tier");
        let a = args(&[
            "run",
            "--protocol",
            "basalt",
            "--n",
            "80",
            "--rounds",
            "20",
            "--view",
            "10",
        ])
        .unwrap();
        let out = execute(&a).unwrap();
        assert!(out.contains("resilience:"), "{out}");
        assert!(
            out.contains("t=0%"),
            "no trusted tier must be reported: {out}"
        );
    }

    #[test]
    fn attack_subcommands_reject_basalt_cleanly() {
        // `ident` turns the identification attack on, which the scenario
        // rules confine to uniform Brahms/RAPTEE; `inject` checks itself.
        for (cmd, knob) in [("ident", "identification_attack"), ("inject", "protocol")] {
            for protocol in ["basalt", "basalt-tee"] {
                let a =
                    args(&[cmd, "--protocol", protocol, "--n", "80", "--rounds", "10"]).unwrap();
                let err = execute(&a).unwrap_err();
                assert_eq!(blamed(&err), knob, "{cmd}/{protocol}: {err:?}");
            }
            let a = args(&[
                cmd,
                "--population",
                "raptee:50%,brahms:50%",
                "--n",
                "80",
                "--rounds",
                "10",
            ])
            .unwrap();
            let err = execute(&a).unwrap_err();
            let knob = if cmd == "ident" { knob } else { "population" };
            assert_eq!(blamed(&err), knob, "{cmd} must reject mixed populations");
        }
    }

    #[test]
    fn basalt_tee_protocol_parses_and_runs() {
        let a = args(&[
            "run",
            "--protocol",
            "basalt-tee",
            "--rotation",
            "12",
            "--wlist-ttl",
            "6",
            "--t",
            "0.1",
            "--n",
            "80",
            "--rounds",
            "20",
            "--view",
            "10",
        ])
        .unwrap();
        assert_eq!(
            a.protocol(10).unwrap(),
            Protocol::BasaltTee {
                view_size: 10,
                rotation_interval: 12,
                wlist_ttl: 6
            }
        );
        let s = a.scenario().unwrap();
        assert_eq!(s.trusted_count(), 8, "the hybrid keeps its trusted tier");
        let out = execute(&a).unwrap();
        assert!(out.contains("resilience:"), "{out}");
        assert!(out.contains("t=10%"), "{out}");
    }

    #[test]
    fn lift_protocol_parses_and_runs() {
        let a = args(&["run", "--protocol", "lift", "--fade", "8"]).unwrap();
        assert_eq!(
            a.protocol(16).unwrap(),
            Protocol::Lift {
                view_size: 16,
                fade_interval: 8
            }
        );
        let a = args(&[
            "run",
            "--protocol",
            "lift",
            "--n",
            "80",
            "--rounds",
            "20",
            "--view",
            "10",
        ])
        .unwrap();
        let s = a.scenario().unwrap();
        assert_eq!(s.trusted_count(), 0, "LIFT runs no trusted tier");
        let out = execute(&a).unwrap();
        assert!(out.contains("resilience:"), "{out}");
    }

    #[test]
    fn honeybee_protocol_parses_and_runs() {
        let a = args(&["run", "--protocol", "honeybee", "--walk-length", "4"]).unwrap();
        assert_eq!(
            a.protocol(16).unwrap(),
            Protocol::Honeybee {
                view_size: 16,
                walk_length: 4
            }
        );
        let a = args(&[
            "run",
            "--protocol",
            "honeybee",
            "--n",
            "80",
            "--rounds",
            "20",
            "--view",
            "10",
        ])
        .unwrap();
        let out = execute(&a).unwrap();
        assert!(out.contains("resilience:"), "{out}");
    }

    #[test]
    fn attack_and_adversary_options_parse() {
        let a = args(&["run", "--attack", "force-push"]).unwrap();
        assert_eq!(a.scenario().unwrap().attack, AttackStrategy::ForcePush);
        let a = args(&["run", "--attack", "targeted:0.1,0.75"]).unwrap();
        assert_eq!(
            a.scenario().unwrap().attack,
            AttackStrategy::Targeted {
                victim_fraction: 0.1,
                focus: 0.75
            }
        );
        let a = args(&["run", "--adversary", "adaptive"]).unwrap();
        assert_eq!(
            a.scenario().unwrap().adversary_mode,
            AdversaryMode::Adaptive
        );
        // Defaults stay the historical static/balanced pair.
        let a = args(&["run"]).unwrap();
        let s = a.scenario().unwrap();
        assert_eq!(s.attack, AttackStrategy::Balanced);
        assert_eq!(s.adversary_mode, AdversaryMode::Static);
        for bad in [
            vec!["run", "--attack", "nuclear"],
            vec!["run", "--attack", "targeted:2.0,0.5"],
            vec!["run", "--adversary", "psychic"],
        ] {
            let a = args(&bad).unwrap();
            assert!(a.scenario().is_err(), "{bad:?} must be rejected");
        }
    }

    #[test]
    fn adaptive_adversary_runs_end_to_end() {
        let a = args(&[
            "run",
            "--protocol",
            "lift",
            "--adversary",
            "adaptive",
            "--n",
            "60",
            "--rounds",
            "15",
            "--view",
            "8",
        ])
        .unwrap();
        let out = execute(&a).unwrap();
        assert!(out.contains("resilience:"), "{out}");
    }

    #[test]
    fn population_option_parses_counts_and_percents() {
        let a = args(&[
            "run",
            "--n",
            "100",
            "--population",
            "raptee:45,basalt-tee:45",
        ])
        .unwrap();
        let s = a.scenario().unwrap();
        assert_eq!(s.population.len(), 2);
        assert_eq!(s.population[0].count, 45);

        let a = args(&[
            "run",
            "--n",
            "100",
            "--population",
            "raptee:50%,basalt-tee:50%",
        ])
        .unwrap();
        let s = a.scenario().unwrap();
        // 90 correct nodes: 45 + the remainder-absorbing last segment.
        assert_eq!(s.population[0].count + s.population[1].count, 90);
    }

    #[test]
    fn population_run_reports_segments() {
        let a = args(&[
            "run",
            "--n",
            "80",
            "--rounds",
            "15",
            "--view",
            "10",
            "--t",
            "0.1",
            "--population",
            "raptee:50%,basalt-tee:50%",
        ])
        .unwrap();
        let out = execute(&a).unwrap();
        assert!(out.contains("population=raptee:"), "{out}");
        assert!(out.contains("segment raptee"), "{out}");
        assert!(out.contains("segment basalt-tee"), "{out}");
        for line in out.lines().filter(|l| l.contains("segment ")) {
            assert!(
                line.contains("discovery ") && line.contains("stability "),
                "per-segment rounds must be reported: {line}"
            );
        }
    }

    #[test]
    fn population_bad_entries_rejected() {
        for spec in [
            "raptee",
            "raptee:many",
            "bitcoin:40",
            "raptee:140%",
            // Mistyped shares must error, not be silently reinterpreted.
            "raptee:30%,basalt-tee:20%",
            // Absolute counts that miss the correct population break the
            // scenario's rule.
            "raptee:10,basalt-tee:10",
        ] {
            let blames = scenario_blames(&["run", "--population", spec]);
            assert_eq!(blames, "population", "{spec:?} must be rejected");
        }
    }

    #[test]
    fn network_defaults_to_rounds() {
        let a = args(&["run"]).unwrap();
        assert_eq!(a.network().unwrap(), NetworkModel::Rounds);
        let a = args(&["run", "--network", "rounds"]).unwrap();
        assert_eq!(a.network().unwrap(), NetworkModel::Rounds);
        let a = args(&["run", "--network", "events"]).unwrap();
        assert_eq!(
            a.network().unwrap(),
            NetworkModel::Events(EventNetConfig::default()),
            "bare --network events is the zero-latency equivalence config"
        );
        let a = args(&["run", "--network", "carrier-pigeon"]).unwrap();
        assert!(matches!(
            a.network().unwrap_err(),
            CliError::BadValue { ref key, .. } if key == "network"
        ));
    }

    #[test]
    fn latency_forms_parse() {
        let net = |extra: &[&str]| {
            let mut v = vec!["run", "--network", "events"];
            v.extend_from_slice(extra);
            args(&v).unwrap().network()
        };
        let latency = |extra: &[&str]| match net(extra).unwrap() {
            NetworkModel::Events(cfg) => cfg.latency,
            NetworkModel::Rounds => unreachable!(),
        };
        assert_eq!(
            latency(&["--latency", "const:250"]),
            LatencyModel::Constant(250)
        );
        assert_eq!(
            latency(&["--latency", "uniform:50..600"]),
            LatencyModel::Uniform { min: 50, max: 600 }
        );
        assert_eq!(
            latency(&["--latency", "lognormal:6.2,0.8,5000"]),
            LatencyModel::LogNormal {
                mu: 6.2,
                sigma: 0.8,
                cap: 5_000
            }
        );
        assert_eq!(
            latency(&["--latency", "lognormal:6.2,0.8"]),
            LatencyModel::LogNormal {
                mu: 6.2,
                sigma: 0.8,
                cap: 10_000
            },
            "cap defaults to ten rounds of the tick budget"
        );
        for bad in ["warp", "const:fast", "uniform:50", "lognormal:6.2"] {
            assert_eq!(blamed(&net(&["--latency", bad]).unwrap_err()), "latency");
        }
        // Well-formed but out of range: the scenario rule rejects them.
        for bad in [
            "uniform:600..50",
            "lognormal:6.2,-0.1",
            "lognormal:6.2,0.8,0",
        ] {
            let blames = scenario_blames(&["run", "--network", "events", "--latency", bad]);
            assert_eq!(blames, "network.latency", "{bad:?} must be rejected");
        }
    }

    #[test]
    fn partition_and_nat_parse() {
        let a = args(&[
            "run",
            "--network",
            "events",
            "--partition",
            "10..25@75; 30..35@40",
            "--nat",
            "0.4:3",
            "--jitter",
            "200",
            "--round-ticks",
            "500",
        ])
        .unwrap();
        let NetworkModel::Events(cfg) = a.network().unwrap() else {
            panic!("events expected");
        };
        assert_eq!(
            cfg.partitions,
            vec![
                PartitionWindow {
                    start: 10,
                    end: 25,
                    boundary: 75
                },
                PartitionWindow {
                    start: 30,
                    end: 35,
                    boundary: 40
                },
            ]
        );
        assert_eq!(
            cfg.reachability,
            Reachability::Nat {
                fraction: 0.4,
                hole_ttl: 3
            }
        );
        assert_eq!((cfg.round_ticks, cfg.jitter), (500, 200));
        // `--nat fraction` alone picks the default TTL.
        let a = args(&["run", "--network", "events", "--nat", "0.25"]).unwrap();
        let NetworkModel::Events(cfg) = a.network().unwrap() else {
            panic!("events expected");
        };
        assert_eq!(
            cfg.reachability,
            Reachability::Nat {
                fraction: 0.25,
                hole_ttl: 3
            }
        );
        for (key, bad, knob) in [
            ("partition", "10..25", "partition"),
            ("partition", "25..10@75", "network.partitions"),
            ("partition", "10..25@many", "partition"),
            ("nat", "1.5", "network.reachability"),
            ("nat", "0.4:0", "network.reachability"),
            ("nat", "porous", "nat"),
        ] {
            let flag = format!("--{key}");
            let blames = scenario_blames(&["run", "--network", "events", &flag, bad]);
            assert_eq!(blames, knob, "--{key} {bad:?} must be rejected");
        }
    }

    #[test]
    fn retry_and_injector_flags_parse() {
        let cfg = |extra: &[&str]| {
            let mut v = vec!["run", "--network", "events"];
            v.extend_from_slice(extra);
            match args(&v).unwrap().network() {
                Ok(NetworkModel::Events(cfg)) => Ok(cfg),
                Ok(NetworkModel::Rounds) => unreachable!(),
                Err(e) => Err(e),
            }
        };
        let c = cfg(&["--retry", "3:500", "--duplicate", "0.2", "--reorder", "40"]).unwrap();
        assert_eq!(
            c.retry,
            RetryConfig {
                max_retries: 3,
                base_backoff: 500
            }
        );
        assert_eq!(c.duplicate_rate, 0.2);
        assert_eq!(c.reorder_jitter, 40);
        assert_eq!(
            cfg(&["--retry", "2"]).unwrap().retry,
            RetryConfig {
                max_retries: 2,
                base_backoff: 250
            },
            "backoff base defaults to 250 ticks"
        );
        assert_eq!(cfg(&["--duplicate", "1"]).unwrap().duplicate_rate, 1.0);
        for (key, bad, knob) in [
            ("retry", "many", "retry"),
            ("retry", "3:slow", "retry"),
            ("retry", "3:0", "network.retry"),
            ("duplicate", "1.5", "network.duplicate_rate"),
            ("duplicate", "often", "duplicate"),
            ("reorder", "-4", "reorder"),
        ] {
            let flag = format!("--{key}");
            let blames = scenario_blames(&["run", "--network", "events", &flag, bad]);
            assert_eq!(blames, knob, "--{key} {bad:?} must be rejected");
        }
    }

    #[test]
    fn churn_flags_parse() {
        let s = args(&["run", "--churn", "0.02"])
            .unwrap()
            .scenario()
            .unwrap();
        assert_eq!(s.churn, ChurnSchedule::steady(0.02, 0.0));
        let s = args(&["run", "--churn", "0.02:0.4", "--rejoin", "warm"])
            .unwrap()
            .scenario()
            .unwrap();
        assert_eq!(s.churn.crash_rate, 0.02);
        assert_eq!(s.churn.restart_rate, 0.4);
        assert_eq!(s.churn.rejoin, RejoinPolicy::Warm);
        let s = args(&["run", "--catastrophe", "20..25@0.4; 40..42@0.6"])
            .unwrap()
            .scenario()
            .unwrap();
        assert_eq!(
            s.churn.bursts,
            vec![
                ChurnBurst {
                    start: 20,
                    end: 25,
                    crash_rate: 0.4
                },
                ChurnBurst {
                    start: 40,
                    end: 42,
                    crash_rate: 0.6
                },
            ]
        );
        for (key, bad, knob) in [
            ("churn", "lots", "churn"),
            ("churn", "1.5", "churn.crash_rate"),
            ("churn", "0.02:2.0", "churn.restart_rate"),
            ("catastrophe", "20..25", "catastrophe"),
            ("catastrophe", "25..20@0.4", "churn.bursts"),
            ("catastrophe", "20..25@1.5", "churn.bursts"),
            ("rejoin", "lukewarm", "rejoin"),
        ] {
            let mut v = vec!["run"];
            // --rejoin needs a churn process before its value is even
            // inspected.
            let churn_arg;
            if key == "rejoin" {
                churn_arg = "--churn".to_string();
                v.extend_from_slice(&[&churn_arg, "0.02:0.4"]);
            }
            let flag = format!("--{key}");
            v.extend_from_slice(&[&flag, bad]);
            assert_eq!(
                scenario_blames(&v),
                knob,
                "--{key} {bad:?} must be rejected"
            );
        }
        // --rejoin without any restart process is meaningless.
        assert_eq!(scenario_blames(&["run", "--rejoin", "warm"]), "rejoin");
    }

    #[test]
    fn attest_ttl_requires_a_trusted_tier() {
        let s = args(&["run", "--attest-ttl", "40", "--t", "0.1"])
            .unwrap()
            .scenario()
            .unwrap();
        assert_eq!(s.attest_ttl, 40);
        for extra in [
            vec!["--attest-ttl", "40", "--t", "0"],
            vec!["--attest-ttl", "40", "--protocol", "basalt"],
        ] {
            let mut v = vec!["run"];
            v.extend_from_slice(&extra);
            assert_eq!(scenario_blames(&v), "attest_ttl", "{extra:?}");
        }
    }

    #[test]
    fn audit_flag_parses_and_gates() {
        // budget only → default grace.
        let s = args(&["run", "--audit", "4", "--t", "0.1"])
            .unwrap()
            .scenario()
            .unwrap();
        assert_eq!(
            s.audit,
            Some(AuditConfig {
                budget: 4,
                grace: DEFAULT_AUDIT_GRACE
            })
        );
        // budget:grace spelled out, compatible with an attestation TTL.
        let s = args(&["run", "--audit", "6:8", "--t", "0.1", "--attest-ttl", "20"])
            .unwrap()
            .scenario()
            .unwrap();
        assert_eq!(
            s.audit,
            Some(AuditConfig {
                budget: 6,
                grace: 8
            })
        );
        // Gating: no trusted tier, a trusted-incapable protocol, an
        // attestation TTL shorter than the grace window, and zero-valued
        // specs break the scenario's `audit` rules; a malformed spec is a
        // bad `--audit` value.
        for extra in [
            vec!["--audit", "4", "--t", "0"],
            vec!["--audit", "4", "--protocol", "basalt"],
            vec!["--audit", "4", "--protocol", "brahms"],
            vec!["--audit", "6:8", "--t", "0.1", "--attest-ttl", "5"],
            vec!["--audit", "0", "--t", "0.1"],
            vec!["--audit", "4:0", "--t", "0.1"],
            vec!["--audit", "many", "--t", "0.1"],
        ] {
            let mut v = vec!["run"];
            v.extend_from_slice(&extra);
            assert_eq!(scenario_blames(&v), "audit", "{extra:?}");
        }
    }

    #[test]
    fn audit_run_reports_audit_metrics() {
        let a = args(&[
            "run", "--n", "80", "--rounds", "30", "--view", "10", "--t", "0.1", "--audit", "4",
        ])
        .unwrap();
        let out = execute(&a).unwrap();
        assert!(out.contains("audit (budget 4, grace 10):"), "{out}");
        assert!(out.contains("false accusations 0.0"), "{out}");
        // Audit-off runs stay silent about the challenger.
        let a = args(&["run", "--n", "80", "--rounds", "30", "--view", "10"]).unwrap();
        let out = execute(&a).unwrap();
        assert!(!out.contains("audit ("), "{out}");
    }

    #[test]
    fn churn_run_reports_recovery_metrics() {
        let a = args(&[
            "run", "--n", "80", "--rounds", "30", "--view", "10", "--t", "0.1", "--churn",
            "0.03:0.5",
        ])
        .unwrap();
        let out = execute(&a).unwrap();
        assert!(out.contains("availability:"), "{out}");
        // The quiet run stays silent about recovery.
        let a = args(&["run", "--n", "80", "--rounds", "30", "--view", "10"]).unwrap();
        let out = execute(&a).unwrap();
        assert!(!out.contains("availability:"), "{out}");
    }

    #[test]
    fn shaping_flags_require_the_event_network() {
        for (key, value) in [
            ("latency", "const:100"),
            ("round-ticks", "500"),
            ("jitter", "100"),
            ("partition", "1..5@10"),
            ("nat", "0.4"),
            ("retry", "3:500"),
            ("duplicate", "0.1"),
            ("reorder", "40"),
        ] {
            let a = args(&["run", &format!("--{key}"), value]).unwrap();
            assert!(
                matches!(
                    a.network().unwrap_err(),
                    CliError::BadValue { key: ref k, .. } if k == key
                ),
                "--{key} without --network events must be rejected"
            );
        }
    }

    #[test]
    fn execute_event_network_run() {
        let a = args(&[
            "run",
            "--n",
            "80",
            "--rounds",
            "20",
            "--view",
            "10",
            "--t",
            "0.1",
            "--network",
            "events",
            "--latency",
            "lognormal:5.5,0.8,3000",
            "--jitter",
            "150",
            "--partition",
            "5..10@40",
        ])
        .unwrap();
        let out = execute(&a).unwrap();
        assert!(out.contains("network=events"), "{out}");
        assert!(out.contains("resilience:"), "{out}");
        // And the round model still reports as such.
        let a = args(&["run", "--n", "80", "--rounds", "20", "--view", "10"]).unwrap();
        let out = execute(&a).unwrap();
        assert!(out.contains("network=rounds"), "{out}");
    }

    #[test]
    fn series_flag() {
        let a = args(&[
            "run", "--n", "60", "--rounds", "10", "--view", "8", "--series", "true",
        ])
        .unwrap();
        let out = execute(&a).unwrap();
        assert!(out.contains("round,byzantine_share"));
        assert!(out.lines().count() > 10);
    }

    #[test]
    fn series_is_a_run_the_aggregate_contains() {
        let a = args(&[
            "run", "--n", "80", "--view", "8", "--rounds", "40", "--reps", "1", "--series", "true",
        ])
        .unwrap();
        let out = execute(&a).unwrap();
        let printed: f64 = out
            .lines()
            .find_map(|l| l.strip_prefix("resilience: "))
            .and_then(|rest| rest.split('%').next())
            .unwrap()
            .parse()
            .unwrap();
        let curve: Vec<f64> = out
            .lines()
            .skip_while(|l| *l != "round,byzantine_share")
            .skip(1)
            .map(|l| l.split(',').nth(1).unwrap().parse().unwrap())
            .collect();
        assert_eq!(curve.len(), 40);
        let tail = &curve[curve.len() - tail_window(40)..];
        let tail_mean = tail.iter().sum::<f64>() / tail.len() as f64 * 100.0;
        assert!(
            (tail_mean - printed).abs() <= 0.02,
            "curve tail {tail_mean:.4}% vs printed resilience {printed:.2}%"
        );
    }
}
