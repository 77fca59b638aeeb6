//! Replays: the untraced calls into the program's own replay loops, the
//! benchmark's traced copy of the single-class cluster loop, the output
//! checks, and the digest of the simulated per-interval records.

use std::time::Instant;

use poly_cluster::{
    node_fault_plan, ClusterIntervalRecord, ClusterNode, ClusterRunSpec, NodeTransition, NodeView,
};
use poly_core::{IntervalRecord, TraceReport};
use poly_par::par_map_mut;
use poly_sim::workload::poisson;
use poly_sim::{quantile_of, AuditReport, RetryStats};

use crate::trace::{since, Tracer};
use crate::workload::{leaf_run_spec, Explored, Fleet, Inputs, INTERVAL_MS};

/// The simulated result of one replay. Deterministic in the workload
/// seed; the traced and untraced replays of a seed must agree on it.
#[derive(Debug, Clone, PartialEq)]
pub struct Outcome {
    /// FNV-1a digest of every per-interval record plus the report's
    /// energy (and, for clusters, fleet p99) as raw bits.
    pub digest: u64,
    /// Intervals replayed.
    pub intervals: usize,
    /// Requests completed.
    pub completed: usize,
    /// Completions over the QoS bound.
    pub violations: usize,
    /// Energy over the replay, in joules.
    pub energy_j: f64,
    /// Re-issue ledger (retries, hedges, steals, redistribution).
    pub retry: RetryStats,
    /// Requests abandoned past their deadline.
    pub timed_out: usize,
    /// Device fault events applied (leaf only; 0 for clusters).
    pub fault_events: usize,
    /// Intervals that adopted a new policy (leaf only; the traced
    /// cluster loop counts it as `core.plan.adopted`).
    pub policy_changes: usize,
}

/// FNV-1a over 64-bit words.
#[derive(Debug, Clone, Copy)]
struct Digest(u64);

impl Digest {
    fn new() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn f(&mut self, x: f64) {
        self.word(x.to_bits());
    }

    fn n(&mut self, x: usize) {
        self.word(x as u64);
    }
}

fn cluster_digest(records: &[ClusterIntervalRecord], energy_j: f64, fleet_p99_ms: f64) -> u64 {
    let mut d = Digest::new();
    for r in records {
        d.f(r.start_ms);
        d.f(r.utilization);
        d.f(r.offered_rps);
        d.f(r.p99_ms);
        d.f(r.power_w);
        d.n(r.nodes_up);
        d.n(r.violations);
        d.n(r.completed);
        d.n(r.shed);
        d.n(r.redistributed);
        d.n(r.timed_out);
        d.f(r.util_skew);
        d.n(r.nodes_active);
    }
    d.f(energy_j);
    d.f(fleet_p99_ms);
    d.0
}

fn leaf_digest(records: &[IntervalRecord], energy_j: f64) -> u64 {
    let mut d = Digest::new();
    for r in records {
        d.f(r.start_ms);
        d.f(r.utilization);
        d.f(r.offered_rps);
        d.f(r.p99_ms);
        d.f(r.predicted_p99_ms);
        d.f(r.avg_power_w);
        d.n(usize::from(r.policy_changed));
        d.n(r.violations);
        d.n(r.completed);
        d.n(r.healthy_devices);
        d.n(r.fault_events);
        d.n(r.retried);
    }
    d.f(energy_j);
    d.0
}

/// Conservation and energy invariants of every node and of the fleet.
fn check_audits(merged: &AuditReport, per_node: &[AuditReport]) -> Result<(), String> {
    for (j, a) in per_node.iter().enumerate() {
        a.check().map_err(|e| format!("node {j} audit: {e:?}"))?;
    }
    merged.check().map_err(|e| format!("fleet audit: {e:?}"))
}

/// The totals the per-interval records imply must match the report's.
fn check_ratio(completed: usize, violations: usize, violation_ratio: f64) -> Result<(), String> {
    let ratio = if completed > 0 {
        violations as f64 / completed as f64
    } else {
        0.0
    };
    if ratio.to_bits() == violation_ratio.to_bits() {
        Ok(())
    } else {
        Err(format!(
            "interval violations / completed = {ratio} but the report says {violation_ratio}"
        ))
    }
}

fn cluster_outcome(
    records: &[ClusterIntervalRecord],
    energy_j: f64,
    fleet_p99_ms: f64,
    retry: RetryStats,
    policy_changes: usize,
) -> Outcome {
    Outcome {
        digest: cluster_digest(records, energy_j, fleet_p99_ms),
        intervals: records.len(),
        completed: records.iter().map(|r| r.completed).sum(),
        violations: records.iter().map(|r| r.violations).sum(),
        energy_j,
        retry,
        timed_out: records.iter().map(|r| r.timed_out).sum(),
        fault_events: 0,
        policy_changes,
    }
}

/// One untraced cluster replay through `Cluster::run`; returns the
/// outcome and the replay's host seconds.
///
/// # Errors
/// A rejected run or a failed output check.
pub fn cluster_untraced(
    ex: &Explored,
    fleet: &Fleet,
    inputs: &Inputs,
    jobs: usize,
) -> Result<(Outcome, f64), String> {
    let mut cluster = ex.cluster(fleet);
    let spec = ClusterRunSpec::new(&inputs.trace, INTERVAL_MS, fleet.max_rps)
        .seed(inputs.arrival_seed)
        .faults(inputs.faults.clone())
        .jobs(jobs);
    let t = Instant::now();
    let report = cluster.run(spec).map_err(|e| e.to_string())?;
    let secs = t.elapsed().as_secs_f64();
    let (merged, per_node) = cluster.audits();
    check_audits(&merged, &per_node)?;
    let out = cluster_outcome(
        &report.intervals,
        report.energy_j,
        report.p99_ms,
        report.retry,
        0,
    );
    if out.completed != report.completed {
        return Err(format!(
            "interval completions sum to {} but the report says {}",
            out.completed, report.completed
        ));
    }
    check_ratio(out.completed, out.violations, report.violation_ratio)?;
    Ok((out, secs))
}

/// Per-interval gauges the traced cluster loop reads at its boundaries.
#[derive(Debug, Clone, Copy, Default)]
pub struct ClusterGauges {
    /// Policy changes returned by `ClusterNode::begin_interval`.
    pub adopted: usize,
    /// Requests cancelled by node drains and re-routed.
    pub drained: usize,
    /// Sum of per-node queue depths after each `run_to`.
    pub queued_sum: usize,
    /// `run_to` calls the depth sum covers.
    pub queued_samples: usize,
    /// Deepest node queue after any `run_to`.
    pub queued_max: usize,
}

/// Load-balance skew across the serving nodes, as the cluster driver
/// computes it: `(max - min) / mean` of per-node completions.
fn completion_skew(per_node_completed: &[usize]) -> f64 {
    if per_node_completed.len() < 2 {
        return 0.0;
    }
    let (max, min, sum) = per_node_completed
        .iter()
        .fold((usize::MIN, usize::MAX, 0usize), |(mx, mn, s), &c| {
            (mx.max(c), mn.min(c), s + c)
        });
    let mean = sum as f64 / per_node_completed.len() as f64;
    if mean > 0.0 {
        (max as f64 - min as f64) / mean
    } else {
        0.0
    }
}

/// The single-class, breaker-free cluster replay driven from the
/// benchmark with a span around every call into a layer. It makes the
/// same calls in the same order as `Cluster::run`, so its records must
/// equal the untraced replay's bit for bit.
///
/// # Errors
/// A failed output check.
#[allow(clippy::too_many_lines)]
pub fn cluster_traced(
    ex: &Explored,
    fleet: &Fleet,
    inputs: &Inputs,
    jobs: usize,
    tr: &mut Tracer,
) -> Result<(Outcome, ClusterGauges), String> {
    let (mut nodes, mut router, mut governor) = ex.cluster_parts(fleet);
    let trace = &inputs.trace;
    let n = nodes.len();
    let max_rps = fleet.max_rps;
    let mut gauges = ClusterGauges::default();
    let replay = tr.open("replay");

    let first_rps = trace.first().map_or(0.0, |p| p.utilization * max_rps);
    tr.span("cluster.begin_replay", || {
        for (i, node) in nodes.iter_mut().enumerate() {
            let plan = node_fault_plan(&inputs.faults, i, node.setup().pool.len());
            node.begin_replay(first_rps / n as f64, &plan);
        }
    });

    let mut intervals = Vec::with_capacity(trace.len());
    let mut all_samples: Vec<f64> = Vec::new();
    let mut interval_samples: Vec<f64> = Vec::new();
    let mut q_scratch: Vec<f64> = Vec::new();
    let mut energy_j = 0.0;
    let mut last_power_w = vec![0.0; n];
    let mut last_assigned_rps = vec![0.0; n];

    for (i, point) in trace.iter().enumerate() {
        let start = point.start_ms;
        let end = start + INTERVAL_MS;
        let offered_rps = point.utilization * max_rps;

        let mut redistributed = 0usize;
        for node in &mut nodes {
            if let NodeTransition::WentDown(cancelled) =
                tr.span("cluster.maintain", || node.maintain())
            {
                redistributed += cancelled;
            }
        }
        gauges.drained += redistributed;
        let up: Vec<bool> = nodes.iter().map(|nd| !nd.is_down()).collect();
        let n_up = up.iter().filter(|&&u| u).count();

        if i > 0 {
            tr.span("cluster.govern", || {
                let caps = governor.observe_and_split(&last_assigned_rps, &up);
                for (node, cap) in nodes.iter_mut().zip(&caps) {
                    node.set_power_cap(*cap);
                }
            });
        }

        if i > 0 {
            let floor_est = if n_up > 0 {
                offered_rps / n_up as f64 * 0.1
            } else {
                0.0
            };
            for node in &mut nodes {
                let est = node.load_estimate_rps().max(floor_est);
                if tr.span("core.plan", || node.begin_interval(est)) {
                    gauges.adopted += 1;
                }
            }
        }

        let arrivals = tr.span("sim.arrivals", || {
            let mut arrivals: Vec<f64> = std::iter::repeat_n(start, redistributed)
                .chain(
                    poisson(
                        offered_rps,
                        INTERVAL_MS,
                        inputs.arrival_seed.wrapping_add(i as u64),
                    )
                    .into_iter()
                    .map(|t| start + t),
                )
                .collect();
            arrivals.sort_by(f64::total_cmp);
            arrivals
        });
        let outcome = tr.span("cluster.route", || {
            let views: Vec<NodeView> = nodes
                .iter()
                .enumerate()
                .map(|(j, node)| NodeView {
                    up: !node.is_down(),
                    queued: node.queued(),
                    power_w: last_power_w[j],
                    power_cap_w: node.power_cap_w(),
                    capacity_rps: node.capacity_rps(),
                })
                .collect();
            router.route_interval(&views, &arrivals, start, INTERVAL_MS)
        });

        let step = tr.open("sim.step");
        let origin = tr.origin();
        let per_node_stats = par_map_mut(jobs, &mut nodes, |j, node: &mut ClusterNode| {
            let t0 = since(origin);
            let stats = node.run_to(&outcome.per_node[j], end);
            (stats, t0, since(origin))
        });
        tr.close(step);
        for (_, t0, t1) in &per_node_stats {
            tr.record("sim.step.node", *t0, *t1);
        }

        interval_samples.clear();
        let mut completed = 0usize;
        let mut violations = 0usize;
        let mut timed_out = 0usize;
        let mut power_w = 0.0;
        let mut nodes_up = 0usize;
        let mut per_node_completed: Vec<usize> = Vec::with_capacity(n);
        for (j, (stats, _, _)) in per_node_stats.iter().enumerate() {
            last_power_w[j] = stats.avg_power_w;
            last_assigned_rps[j] = outcome.per_node[j].len() as f64 * 1000.0 / INTERVAL_MS;
            completed += stats.completed;
            violations += stats.violations;
            timed_out += stats.timed_out;
            power_w += stats.avg_power_w;
            energy_j += stats.energy_j;
            if stats.healthy_devices > 0 {
                nodes_up += 1;
                per_node_completed.push(stats.completed);
            }
            interval_samples.extend_from_slice(nodes[j].segment_samples());
            gauges.queued_sum += stats.queued;
            gauges.queued_samples += 1;
            gauges.queued_max = gauges.queued_max.max(stats.queued);
        }

        let util_skew = completion_skew(&per_node_completed);
        let nodes_active = nodes.iter().filter(|nd| nd.is_active()).count();
        all_samples.extend_from_slice(&interval_samples);
        let p99 = quantile_of(&interval_samples, 0.99, &mut q_scratch).unwrap_or(0.0);
        intervals.push(ClusterIntervalRecord {
            start_ms: start,
            utilization: point.utilization,
            offered_rps,
            p99_ms: p99,
            power_w,
            nodes_up,
            violations,
            completed,
            shed: outcome.shed,
            redistributed,
            timed_out,
            util_skew,
            nodes_active,
        });
    }
    let fleet_p99 = quantile_of(&all_samples, 0.99, &mut q_scratch).unwrap_or(0.0);
    let mut retry = RetryStats::default();
    for node in &nodes {
        retry.merge(&node.retry_stats());
    }
    retry.redistributed += gauges.drained;
    tr.close(replay);

    let per_node: Vec<AuditReport> = nodes.iter().map(ClusterNode::audit).collect();
    let mut merged = AuditReport::default();
    for a in &per_node {
        merged.merge(a);
    }
    check_audits(&merged, &per_node)?;
    Ok((
        cluster_outcome(&intervals, energy_j, fleet_p99, retry, gauges.adopted),
        gauges,
    ))
}

fn leaf_outcome(report: &TraceReport) -> Result<Outcome, String> {
    let completed = report.intervals.iter().map(|r| r.completed).sum();
    let violations = report.intervals.iter().map(|r| r.violations).sum();
    check_ratio(completed, violations, report.violation_ratio)?;
    let fault_events: usize = report.intervals.iter().map(|r| r.fault_events).sum();
    if fault_events != report.fault_events {
        return Err(format!(
            "interval fault events sum to {fault_events} but the report says {}",
            report.fault_events
        ));
    }
    Ok(Outcome {
        digest: leaf_digest(&report.intervals, report.energy_j),
        intervals: report.intervals.len(),
        completed,
        violations,
        energy_j: report.energy_j,
        retry: report.retry,
        timed_out: report.timed_out,
        fault_events,
        policy_changes: report.intervals.iter().filter(|r| r.policy_changed).count(),
    })
}

/// One leaf replay through `PolyRuntime::run`, inside a
/// `core.runtime.run` span when `tr` records; returns the outcome and the
/// replay's host seconds.
///
/// # Errors
/// A failed output check.
pub fn leaf(ex: &Explored, inputs: &Inputs, tr: &mut Tracer) -> Result<(Outcome, f64), String> {
    let mut rt = ex.runtime();
    let spec = leaf_run_spec(inputs);
    let replay = tr.open("replay");
    let t = Instant::now();
    let report = tr.span("core.runtime.run", || rt.run(&spec));
    let secs = t.elapsed().as_secs_f64();
    tr.close(replay);
    Ok((leaf_outcome(&report)?, secs))
}
