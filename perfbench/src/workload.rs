//! The three benchmark workloads: their generated inputs and the systems
//! they replay on.
//!
//! Every input is derived from the workload seed alone. The program under
//! test receives only the generated trace, fault plan and arrival seed;
//! the default seed 2011 reproduces the paper figures' trace shape and
//! fault targets.

use poly_apps::{asr, QOS_BOUND_MS};
use poly_cluster::{Cluster, ClusterConfig, ClusterNode, PowerGovernor, Router, RoutingPolicy};
use poly_core::provision::{table_iii, Architecture, Setting};
use poly_core::{AppContext, NodeSetup, PolyRuntime, RunSpec};
use poly_dse::{DesignSpaceCache, Explorer, KernelDesignSpace};
use poly_ir::KernelGraph;
use poly_sim::workload::{google_trace_24h, SizeDist, TracePoint};
use poly_sim::{
    BackoffPolicy, DynamicDispatch, FaultPlan, HedgeConfig, LifecycleConfig, RetryPolicy,
};

use crate::trace::Tracer;

/// The figures' seed: the trace shape and fault targets match the
/// committed `cluster`, `scale` and `fault` configurations. Arrival
/// streams do not, as windows are re-timed and rates differ.
pub const DEFAULT_SEED: u64 = 2011;

/// Simulated milliseconds per trace point (the figures' replay interval).
pub const INTERVAL_MS: f64 = 10_000.0;

/// Trace points per trace hour (the diurnal trace samples every 5 min).
const POINTS_PER_HOUR: f64 = 12.0;

/// One named benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The `cluster` figure's 4-node fleet and 12:00 node fail-stop over
    /// an 11:00-14:00 window without trace bursts, with round-robin
    /// routing at 440 RPS fleet peak: after the fail-stop every surviving
    /// node receives more than it can serve, so node queues grow to tens
    /// of thousands of entries.
    ClusterOverload,
    /// A reduced `scale`-shaped fleet: 64 lightly loaded nodes behind the
    /// QoS-aware router, stepped on two workers.
    FleetDiurnal,
    /// The single-node `PolyRuntime::run` loop with heavy-tailed sizes,
    /// hybrid dynamic dispatch, the full request lifecycle and the
    /// `fault` figure's device faults.
    LeafIrregular,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 3] = [
        Workload::ClusterOverload,
        Workload::FleetDiurnal,
        Workload::LeafIrregular,
    ];

    /// Command-line name.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Workload::ClusterOverload => "cluster-overload",
            Workload::FleetDiurnal => "fleet-diurnal",
            Workload::LeafIrregular => "leaf-irregular",
        }
    }

    /// The workload named `name`, if any.
    #[must_use]
    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Trace hours one replay covers at full length.
    #[must_use]
    pub fn default_hours(self) -> f64 {
        match self {
            Workload::ClusterOverload => 3.0,
            Workload::FleetDiurnal => 24.0,
            Workload::LeafIrregular => 24.0,
        }
    }

    /// Worker threads for per-interval node stepping.
    #[must_use]
    pub fn default_jobs(self) -> usize {
        match self {
            Workload::FleetDiurnal => 2,
            Workload::ClusterOverload | Workload::LeafIrregular => 1,
        }
    }
}

/// A workload at a given seed, length and worker count.
#[derive(Debug, Clone, Copy)]
pub struct Spec {
    /// Which workload.
    pub workload: Workload,
    /// Workload seed; every generated input derives from it.
    pub seed: u64,
    /// Trace hours one replay covers.
    pub hours: f64,
    /// Worker threads for node stepping (cluster workloads).
    pub jobs: usize,
}

impl Spec {
    /// Full-length spec of `workload` at `seed`.
    #[must_use]
    pub fn new(workload: Workload, seed: u64) -> Self {
        Self {
            workload,
            seed,
            hours: workload.default_hours(),
            jobs: workload.default_jobs(),
        }
    }

    /// Fleet shape of a cluster workload (`None` for the leaf).
    #[must_use]
    pub fn fleet(&self) -> Option<Fleet> {
        match self.workload {
            Workload::ClusterOverload => Some(Fleet {
                nodes: 4,
                routing: RoutingPolicy::RoundRobin,
                max_rps: 440.0,
                max_backlog: 512,
            }),
            Workload::FleetDiurnal => Some(Fleet {
                nodes: 64,
                routing: RoutingPolicy::QosAware,
                max_rps: 400.0,
                max_backlog: 512 * 64,
            }),
            Workload::LeafIrregular => None,
        }
    }

    /// The generated inputs of one replay.
    #[must_use]
    pub fn inputs(&self) -> Inputs {
        let hour_ms = |h: f64| h * POINTS_PER_HOUR * INTERVAL_MS;
        // Offset of this seed from the figures' seed: picks which of a
        // set of identical devices (or nodes) a scripted fault hits, so
        // the default seed faults exactly the figures' targets.
        let shift = |targets: u64| {
            (i128::from(self.seed) - i128::from(DEFAULT_SEED)).rem_euclid(i128::from(targets))
                as usize
        };
        let (first_hour, faults) = match self.workload {
            // The `cluster` figure's node fail-stop at 12:00 (recovery at
            // 16:00), seen from an 11:00 window start; node 1 at the
            // default seed.
            Workload::ClusterOverload => {
                let node = (1 + shift(4)) % 4;
                let faults = FaultPlan::new()
                    .fail_stop(hour_ms(1.0), node)
                    .recover(hour_ms(5.0), node);
                (11.0, faults)
            }
            Workload::FleetDiurnal => (0.0, FaultPlan::new()),
            // The `fault` figure's GPU fail-stop 06:00-10:00 and 2x FPGA
            // slowdown 16:00-19:00, on every simulated day. Device 0 is
            // the GPU, devices 1..=5 the FPGAs.
            Workload::LeafIrregular => {
                let fpga = 1 + shift(5);
                let days = (self.hours / 24.0).ceil().max(1.0) as usize;
                let mut faults = FaultPlan::new();
                for d in 0..days {
                    let day = 24.0 * d as f64;
                    faults = faults
                        .fail_stop(hour_ms(day + 6.0), 0)
                        .recover(hour_ms(day + 10.0), 0)
                        .slow_down(hour_ms(day + 16.0), fpga, 2.0)
                        .recover(hour_ms(day + 19.0), fpga);
                }
                (0.0, faults)
            }
        };
        // The 288-point diurnal day, tiled for windows past midnight and
        // re-timed so the window starts at 0. The overload window has its
        // bursts cut off: before the fail-stop the four nodes run just
        // under capacity, and a burst there tips them into the collapsed
        // regime an hour early on some seeds (goodput 46 instead of
        // ~112/s), so the figures would track the seed, not the program.
        let day = google_trace_24h(300_000.0, self.seed);
        let burst_free = self.workload == Workload::ClusterOverload;
        let first = (first_hour * POINTS_PER_HOUR).round() as usize;
        let len = (self.hours * POINTS_PER_HOUR).round().max(1.0) as usize;
        let trace = (0..len)
            .map(|i| {
                let p = (first + i) % day.len();
                let u = day[p].utilization;
                TracePoint {
                    start_ms: i as f64 * INTERVAL_MS,
                    utilization: if burst_free {
                        u.min(burst_free_ceiling(p))
                    } else {
                        u
                    },
                }
            })
            .collect();
        Inputs {
            trace,
            faults,
            arrival_seed: self.seed,
        }
    }
}

/// The highest utilization `google_trace_24h` gives 5-minute point `p`
/// outside a burst: its diurnal level plus the top of its ±0.06 noise.
fn burst_free_ceiling(p: usize) -> f64 {
    let hour = p as f64 / POINTS_PER_HOUR;
    0.50 + 0.33 * ((hour - 14.0) / 24.0 * std::f64::consts::TAU).cos() + 0.06
}

/// Fleet shape of a cluster workload (Table III Setting-I Heter-Poly
/// nodes, 260 W per node of shared budget, 40 W floor).
#[derive(Debug, Clone, Copy)]
pub struct Fleet {
    /// Leaf nodes.
    pub nodes: usize,
    /// Front-end routing policy.
    pub routing: RoutingPolicy,
    /// Fleet-wide offered load at trace utilization 1, in RPS.
    pub max_rps: f64,
    /// Router deferral bound.
    pub max_backlog: usize,
}

impl Fleet {
    fn config(&self) -> ClusterConfig {
        ClusterConfig {
            bound_ms: QOS_BOUND_MS,
            routing: self.routing,
            power_budget_w: 260.0 * self.nodes as f64,
            node_floor_w: 40.0,
            max_backlog: self.max_backlog,
            lifecycle: LifecycleConfig::default(),
            breaker: None,
        }
    }
}

/// Everything a replay is fed, generated from the seed.
#[derive(Debug, Clone)]
pub struct Inputs {
    /// Utilization trace, one point per [`INTERVAL_MS`].
    pub trace: Vec<TracePoint>,
    /// Fault plan (node-indexed for clusters, device-indexed for the
    /// leaf).
    pub faults: FaultPlan,
    /// Seed of the per-interval Poisson arrival streams.
    pub arrival_seed: u64,
}

/// The ASR application explored on a Setting-I Heter-Poly node.
#[derive(Debug, Clone)]
pub struct Explored {
    /// The application graph.
    pub app: KernelGraph,
    /// The provisioned node.
    pub setup: NodeSetup,
    /// Per-kernel design spaces, in kernel order.
    pub spaces: Vec<KernelDesignSpace>,
}

impl Explored {
    /// Provision the node and explore every ASR kernel through a fresh
    /// design-space cache, one traced `dse.explore` span per kernel.
    pub fn new(tracer: &mut Tracer) -> Self {
        let app = asr();
        let setup = table_iii(Setting::I, Architecture::HeterPoly);
        let explorer = Explorer::new(setup.gpu.clone(), setup.fpga.clone());
        let cache = DesignSpaceCache::new();
        let spaces = app
            .kernels()
            .iter()
            .map(|k| tracer.span("dse.explore", || (*cache.explore(&explorer, k)).clone()))
            .collect();
        Self { app, setup, spaces }
    }

    /// Design points across every kernel's GPU and FPGA space.
    #[must_use]
    pub fn points(&self) -> usize {
        self.spaces.iter().map(|s| s.gpu.len() + s.fpga.len()).sum()
    }

    fn context(&self) -> AppContext {
        AppContext::new(
            self.app.clone(),
            self.spaces.clone(),
            self.setup.clone(),
            QOS_BOUND_MS,
        )
    }

    /// The untraced cluster, built through the public constructor.
    #[must_use]
    pub fn cluster(&self, fleet: &Fleet) -> Cluster {
        Cluster::new(
            &self.app,
            &self.spaces,
            vec![self.setup.clone(); fleet.nodes],
            fleet.config(),
        )
    }

    /// The same fleet as loose parts, for the benchmark's own traced
    /// replay loop: nodes built as `Cluster::try_new` builds them, plus a
    /// router and governor configured as `Cluster::from_nodes` does.
    #[must_use]
    pub fn cluster_parts(&self, fleet: &Fleet) -> (Vec<ClusterNode>, Router, PowerGovernor) {
        let config = fleet.config();
        let mut ctx = self.context();
        ctx.setup_mut().sim_config.lifecycle = config.lifecycle.clone();
        let nodes = (0..fleet.nodes)
            .map(|_| ClusterNode::new(ctx.clone()))
            .collect();
        let mut router = Router::new(config.routing);
        router.set_max_backlog(config.max_backlog);
        let governor = PowerGovernor::new(config.power_budget_w, config.node_floor_w, fleet.nodes);
        (nodes, router, governor)
    }

    /// The leaf runtime.
    #[must_use]
    pub fn runtime(&self) -> PolyRuntime {
        PolyRuntime::new(self.context())
    }
}

/// The leaf workload's run: 60 RPS peak, heavy-tailed sizes, hybrid
/// dynamic dispatch, deadline x2 + backoff retry + hedging.
#[must_use]
pub fn leaf_run_spec(inputs: &Inputs) -> RunSpec {
    let lifecycle = LifecycleConfig {
        deadline_factor: Some(2.0),
        retry: RetryPolicy::Backoff(BackoffPolicy::default()),
        hedge: Some(HedgeConfig::default()),
    };
    RunSpec::new(&inputs.trace, INTERVAL_MS, 60.0)
        .seed(inputs.arrival_seed)
        .faults(inputs.faults.clone())
        .sizes(SizeDist::heavy_tail())
        .dynamic(DynamicDispatch::default())
        .lifecycle(lifecycle)
}
