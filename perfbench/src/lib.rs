//! The repository benchmark: one command runs a named workload from a
//! seed, measures it for a fixed number of host seconds, checks the
//! simulated outputs, and prints every metric by name and unit.
//!
//! Untraced runs report the end-to-end metrics. Traced runs alternate the
//! untraced replay with a replay whose calls into each layer are timed
//! from this crate, require both to produce the same simulated records,
//! and report the per-layer metrics. See `README.md` for why each
//! workload exists and which end-to-end metric each layer metric moves.

pub mod replay;
pub mod trace;
pub mod workload;

use std::time::Instant;

use replay::{ClusterGauges, Outcome};
use trace::Tracer;
use workload::{Explored, Spec, Workload, INTERVAL_MS};

/// End-to-end metrics (untraced runs), in `BENCHMARK.json` order.
pub const END_TO_END: [(&str, &str); 7] = [
    ("setup_s", "s"),
    ("replay_s", "s"),
    ("completions_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
    ("sim_goodput_rps", "1/s"),
    ("sim_qos_met_pct", "%"),
    ("sim_energy_j_per_req", "J"),
];

/// Per-layer metrics (traced runs), in `BENCHMARK.json` order. A layer a
/// workload never calls reports 0.
pub const PER_LAYER: [(&str, &str); 29] = [
    ("dse.explore.calls", "count"),
    ("dse.explore.ms", "ms"),
    ("dse.points", "count"),
    ("core.plan.calls", "count"),
    ("core.plan.us_per_call", "us"),
    ("core.plan.share_pct", "%"),
    ("core.plan.adopted", "count"),
    ("cluster.route.us_per_call", "us"),
    ("cluster.route.share_pct", "%"),
    ("cluster.govern.us_per_call", "us"),
    ("cluster.maintain.us_per_call", "us"),
    ("cluster.drained", "count"),
    ("sim.step.share_pct", "%"),
    ("sim.step.ns_per_completion", "ns"),
    ("sim.step.ms_per_call_p50", "ms"),
    ("sim.step.ms_per_call_max", "ms"),
    ("sim.step.queued_mean", "count"),
    ("sim.step.queued_max", "count"),
    ("sim.arrivals.share_pct", "%"),
    ("par.step.efficiency_pct", "%"),
    ("core.policy_changes", "count"),
    ("sim.hedges_fired", "count"),
    ("sim.hedge_win_pct", "%"),
    ("sim.steals", "count"),
    ("sim.timed_out", "count"),
    ("sim.device_retries", "count"),
    ("sim.fault_events", "count"),
    ("traced.overhead_pct", "%"),
    ("traced.replays", "count"),
];

/// Set-ups timed before each replay (or traced round) for `setup_s`
/// (median over the run reported).
const SETUPS: usize = 5;

/// One benchmark run.
#[derive(Debug, Clone, Copy)]
pub struct Config {
    /// Workload, seed, length and workers.
    pub spec: Spec,
    /// Host seconds to keep replaying for (at least one replay runs).
    pub seconds: f64,
    /// Report per-layer metrics from traced replays instead of the
    /// end-to-end metrics.
    pub trace: bool,
}

/// What a run printed: checks, counts and metrics.
#[derive(Debug, Clone)]
pub struct Report {
    /// Every output check passed.
    pub correct: bool,
    /// Replays attempted (untraced and traced).
    pub attempted: usize,
    /// Replays whose output checks failed.
    pub failed: usize,
    /// Metric name, value and unit, in `BENCHMARK.json` order.
    pub metrics: Vec<(&'static str, f64, &'static str)>,
    /// Digest of the simulated per-interval records (0 if no replay
    /// finished).
    pub sim_digest: u64,
    /// The first failed check, if any.
    pub error: Option<String>,
    /// Host seconds of every untraced replay.
    pub replay_s: Vec<f64>,
    /// Host seconds of every traced replay at the workload's workers.
    pub traced_s: Vec<f64>,
    /// Host seconds of every traced one-worker replay (fleets stepped on
    /// several workers only).
    pub serial_s: Vec<f64>,
    /// Host seconds of every set-up.
    pub setup_s: Vec<f64>,
}

impl Report {
    /// The value of metric `name`.
    #[must_use]
    pub fn metric(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|(n, _, _)| *n == name)
            .map(|&(_, v, _)| v)
    }

    /// The result line: one JSON object with `correct`, `attempted`,
    /// `failed` and `metrics`.
    #[must_use]
    pub fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                format!("\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// Median of `v` (mean of the middle pair for even lengths; 0 if empty).
#[must_use]
pub fn median(v: &[f64]) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let m = s.len() / 2;
    if s.len() % 2 == 1 {
        s[m]
    } else {
        (s[m - 1] + s[m]) / 2.0
    }
}

/// Peak resident set size of this process, in MiB (`VmHWM`).
///
/// # Errors
/// When `/proc/self/status` cannot be read or has no `VmHWM` line.
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("reading /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".to_string())
}

/// Per-layer measurements of one traced replay.
#[derive(Debug, Clone, Default)]
struct Layers {
    replay_ns: f64,
    spans: Vec<(&'static str, usize, f64)>,
    step_calls_ns: Vec<f64>,
    gauges: ClusterGauges,
    policy_changes: usize,
}

impl Layers {
    fn from(tr: &Tracer, gauges: ClusterGauges, out: &Outcome) -> Self {
        let names = [
            "core.plan",
            "cluster.route",
            "cluster.govern",
            "cluster.maintain",
            "sim.step",
            "sim.step.node",
            "sim.arrivals",
        ];
        Self {
            replay_ns: tr.total("replay").1 as f64,
            spans: names
                .into_iter()
                .map(|n| {
                    let (calls, ns) = tr.total(n);
                    (n, calls, ns as f64)
                })
                .collect(),
            step_calls_ns: tr.named("sim.step.node").map(|s| s.ns() as f64).collect(),
            gauges,
            policy_changes: out.policy_changes,
        }
    }

    fn calls(&self, name: &str) -> usize {
        self.spans.iter().find(|s| s.0 == name).map_or(0, |s| s.1)
    }

    fn ns(&self, name: &str) -> f64 {
        self.spans.iter().find(|s| s.0 == name).map_or(0.0, |s| s.2)
    }

    fn us_per_call(&self, name: &str) -> f64 {
        let calls = self.calls(name);
        if calls == 0 {
            0.0
        } else {
            self.ns(name) / calls as f64 / 1e3
        }
    }

    fn share_pct(&self, name: &str) -> f64 {
        if self.replay_ns > 0.0 {
            self.ns(name) / self.replay_ns * 100.0
        } else {
            0.0
        }
    }
}

/// Everything one run measured, before it is turned into metrics.
#[derive(Debug, Default)]
struct Measured {
    setup_s: Vec<f64>,
    explore_ms: Vec<f64>,
    explore_calls: usize,
    points: usize,
    replay_s: Vec<f64>,
    traced_s: Vec<f64>,
    layers: Vec<Layers>,
    serial: Vec<Layers>,
    outcome: Option<Outcome>,
    rss_mb: f64,
}

/// Time [`SETUPS`] fresh set-ups: design-space exploration through a
/// new cache, provisioning, and construction of the system the replays
/// run on. Returns the last explored application for the next replay.
fn set_up(cfg: &Config, m: &mut Measured) -> Explored {
    let mut explored = None;
    for _ in 0..SETUPS {
        let mut tr = if cfg.trace {
            Tracer::new()
        } else {
            Tracer::disabled()
        };
        let t = Instant::now();
        let ex = Explored::new(&mut tr);
        match cfg.spec.fleet() {
            Some(fleet) => drop(std::hint::black_box(ex.cluster(&fleet))),
            None => drop(std::hint::black_box(ex.runtime())),
        }
        m.setup_s.push(t.elapsed().as_secs_f64());
        let (calls, ns) = tr.total("dse.explore");
        m.explore_calls = calls;
        m.explore_ms.push(ns as f64 / 1e6);
        m.points = ex.points();
        explored = Some(ex);
    }
    explored.expect("at least one set-up")
}

/// Node-stepping workers of the workload (1 for the leaf).
fn workers(spec: &Spec) -> usize {
    spec.fleet()
        .map_or(1, |fleet| spec.jobs.clamp(1, fleet.nodes))
}

/// The measuring loop of [`run`]; stops at the first failed check.
fn measure(cfg: &Config, m: &mut Measured, attempted: &mut usize) -> Result<(), String> {
    // Warm-up: fills the allocator and caches before anything is timed,
    // and fixes the records every later replay must reproduce.
    let ex = Explored::new(&mut Tracer::disabled());
    *attempted += 1;
    let (first, _, _) = replay_once(cfg, &ex, None)?;
    // A user runs one replay per process, so peak memory is read here:
    // later replays only add allocator fragmentation, which varies from
    // process to process when nodes step on several threads.
    m.rss_mb = peak_rss_mb()?;
    let workers = workers(&cfg.spec);
    let start = Instant::now();
    let mut round = 0usize;
    loop {
        // Set-ups are interleaved with the replays so both sample the
        // same stretch of host time.
        let ex = set_up(cfg, m);
        // Traced runs add a traced replay at the workload's workers and,
        // when that is more than one, a traced one-worker replay as the
        // serial reference of `par.step.efficiency_pct`. The order
        // alternates between rounds.
        let mut order = vec![None];
        if cfg.trace {
            order.push(Some(workers));
            if workers > 1 {
                order.push(Some(1));
            }
            if round % 2 == 1 {
                order.reverse();
            }
        }
        round += 1;
        for traced in order {
            *attempted += 1;
            let (out, secs, layers) = replay_once(cfg, &ex, traced)?;
            if (out.digest, out.retry) != (first.digest, first.retry) {
                return Err(format!(
                    "{} replay simulated different records: digest {:016x} vs {:016x}",
                    match traced {
                        None => "untraced".to_string(),
                        Some(jobs) => format!("traced {jobs}-worker"),
                    },
                    out.digest,
                    first.digest
                ));
            }
            match (traced, layers) {
                (Some(jobs), Some(l)) if jobs == workers => {
                    m.traced_s.push(secs);
                    m.layers.push(l);
                }
                (Some(_), Some(l)) => m.serial.push(l),
                _ => m.replay_s.push(secs),
            }
        }
        if start.elapsed().as_secs_f64() >= cfg.seconds {
            m.outcome = Some(first);
            return Ok(());
        }
    }
}

/// One replay: untraced (`traced` is `None`), or traced with node
/// stepping on the given workers, with its layer measurements.
fn replay_once(
    cfg: &Config,
    ex: &Explored,
    traced: Option<usize>,
) -> Result<(Outcome, f64, Option<Layers>), String> {
    let spec = &cfg.spec;
    let inputs = spec.inputs();
    match (spec.fleet(), traced) {
        (Some(fleet), None) => {
            let (out, secs) = replay::cluster_untraced(ex, &fleet, &inputs, spec.jobs)?;
            Ok((out, secs, None))
        }
        (Some(fleet), Some(jobs)) => {
            let mut tr = Tracer::new();
            let (out, gauges) = replay::cluster_traced(ex, &fleet, &inputs, jobs, &mut tr)?;
            let layers = Layers::from(&tr, gauges, &out);
            Ok((out, layers.replay_ns / 1e9, Some(layers)))
        }
        (None, None) => {
            let (out, secs) = replay::leaf(ex, &inputs, &mut Tracer::disabled())?;
            Ok((out, secs, None))
        }
        (None, Some(_)) => {
            let mut tr = Tracer::new();
            let (out, _) = replay::leaf(ex, &inputs, &mut tr)?;
            let layers = Layers::from(&tr, ClusterGauges::default(), &out);
            Ok((out, layers.replay_ns / 1e9, Some(layers)))
        }
    }
}

/// Run one benchmark configuration: one untimed warm-up replay, then
/// timed set-ups and replays until `cfg.seconds` have passed. Every
/// replay's outputs are checked, and every replay of the seed (traced or
/// not) must simulate the warm-up's records.
#[must_use]
pub fn run(cfg: &Config) -> Report {
    let mut m = Measured::default();
    let mut attempted = 0;
    let mut error = measure(cfg, &mut m, &mut attempted).err();
    let metrics = match (&m.outcome, &error) {
        (Some(out), None) if cfg.trace => per_layer(cfg, &m, out),
        (Some(out), None) => end_to_end(&m, out),
        _ => Vec::new(),
    };
    if let Some((name, v, _)) = metrics.iter().find(|(_, v, _)| !v.is_finite()) {
        error = Some(format!("metric {name} is not finite: {v}"));
    }
    Report {
        correct: error.is_none(),
        attempted,
        failed: usize::from(error.is_some()),
        metrics,
        sim_digest: m.outcome.as_ref().map_or(0, |o| o.digest),
        error,
        replay_s: m.replay_s,
        traced_s: m.traced_s,
        serial_s: m.serial.iter().map(|l| l.replay_ns / 1e9).collect(),
        setup_s: m.setup_s,
    }
}

fn end_to_end(m: &Measured, out: &Outcome) -> Vec<(&'static str, f64, &'static str)> {
    let replay_s = median(&m.replay_s);
    let sim_s = out.intervals as f64 * INTERVAL_MS / 1000.0;
    let completed = out.completed as f64;
    let values = [
        median(&m.setup_s),
        replay_s,
        completed / replay_s,
        m.rss_mb,
        (out.completed - out.violations) as f64 / sim_s,
        (out.completed - out.violations) as f64 / completed * 100.0,
        out.energy_j / completed,
    ];
    END_TO_END
        .iter()
        .zip(values)
        .map(|(&(name, unit), v)| (name, v, unit))
        .collect()
}

fn per_layer(cfg: &Config, m: &Measured, out: &Outcome) -> Vec<(&'static str, f64, &'static str)> {
    let med = |f: &dyn Fn(&Layers) -> f64| median(&m.layers.iter().map(f).collect::<Vec<_>>());
    let first = m.layers.first().cloned().unwrap_or_default();
    let g = first.gauges;
    let completed = out.completed.max(1) as f64;
    let workers = workers(&cfg.spec) as f64;
    // Parallel efficiency against a serial reference: the per-node
    // `run_to` busy time of the one-worker replays (the traced replays
    // themselves at one worker), over workers x the fan-out wall time.
    // Busy time measured on several workers would grow with contention
    // and so read near 100% whether or not the workers saved time.
    let serial = if m.serial.is_empty() {
        &m.layers
    } else {
        &m.serial
    };
    let serial_busy_ns = median(
        &serial
            .iter()
            .map(|l| l.ns("sim.step.node"))
            .collect::<Vec<_>>(),
    );
    let step_wall_ns = med(&|l| l.ns("sim.step"));
    let retry = &out.retry;
    let values = [
        m.explore_calls as f64,
        median(&m.explore_ms),
        m.points as f64,
        first.calls("core.plan") as f64,
        med(&|l| l.us_per_call("core.plan")),
        med(&|l| l.share_pct("core.plan")),
        g.adopted as f64,
        med(&|l| l.us_per_call("cluster.route")),
        med(&|l| l.share_pct("cluster.route")),
        med(&|l| l.us_per_call("cluster.govern")),
        med(&|l| l.us_per_call("cluster.maintain")),
        g.drained as f64,
        med(&|l| l.share_pct("sim.step")),
        med(&|l| l.ns("sim.step.node") / completed),
        med(&|l| median(&l.step_calls_ns) / 1e6),
        med(&|l| l.step_calls_ns.iter().copied().fold(0.0, f64::max) / 1e6),
        if g.queued_samples > 0 {
            g.queued_sum as f64 / g.queued_samples as f64
        } else {
            0.0
        },
        g.queued_max as f64,
        med(&|l| l.share_pct("sim.arrivals")),
        if step_wall_ns > 0.0 {
            serial_busy_ns / (workers * step_wall_ns) * 100.0
        } else {
            0.0
        },
        first.policy_changes as f64,
        retry.hedges_fired as f64,
        if retry.hedges_fired > 0 {
            retry.hedge_wins as f64 / retry.hedges_fired as f64 * 100.0
        } else {
            0.0
        },
        retry.steals as f64,
        out.timed_out as f64,
        retry.device_retries as f64,
        out.fault_events as f64,
        (median(&m.traced_s) / median(&m.replay_s) - 1.0) * 100.0,
        m.layers.len() as f64,
    ];
    PER_LAYER
        .iter()
        .zip(values)
        .map(|(&(name, unit), v)| (name, v, unit))
        .collect()
}

/// Parse `--workload <name> [--seed <n>] [--seconds <n>] [--trace <0|1>]`.
///
/// # Errors
/// An unknown flag or workload, or a value that does not parse.
pub fn parse_args(args: &[String]) -> Result<Config, String> {
    let mut workload = None;
    let mut seed = workload::DEFAULT_SEED;
    let mut seconds = 10.0;
    let mut trace = false;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} needs a value"))?
            .as_str();
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(value).ok_or_else(|| {
                    let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
                    format!("unknown workload {value:?}; one of {}", names.join(", "))
                })?);
            }
            "--seed" => {
                seed = value
                    .parse()
                    .map_err(|e| format!("--seed {value:?}: {e}"))?
            }
            "--seconds" => {
                seconds = value
                    .parse::<f64>()
                    .ok()
                    .filter(|s| s.is_finite() && *s >= 0.0)
                    .ok_or_else(|| format!("--seconds {value:?}: not a non-negative number"))?;
            }
            "--trace" => {
                trace = match value {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace {value:?}: expected 0 or 1")),
                }
            }
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    Ok(Config {
        spec: Spec::new(workload, seed),
        seconds,
        trace,
    })
}
