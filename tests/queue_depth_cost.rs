//! Queue-depth cost guard: an overloaded node's standing queues must not
//! make each engine event more expensive. The simulator counts the queue
//! entries its batch takes, cancellation sweeps and lookups visit (a
//! deterministic host-cost measure, unlike wall clock). Per started batch
//! that count must stay flat when the standing queue grows tenfold; a
//! batch gather or lookup that walks the whole queue scales with it.

use poly::apps::{asr, QOS_BOUND_MS};
use poly::core::provision::{table_iii, Architecture, Setting};
use poly::dse::Explorer;
use poly::sched::Scheduler;
use poly::sim::workload::poisson;
use poly::sim::{Policy, QueueCost, SimConfig, Simulator};

/// Simulated milliseconds of overload per run.
const HORIZON_MS: f64 = 20_000.0;

/// Replay `rps` of Poisson ASR traffic onto one Setting-I Homo-GPU node
/// running the energy-optimized plan; returns the standing queue at the
/// end of the horizon and the queue work spent getting there. All four
/// kernels share the GPUs with batches of 4–16, so every batch take has
/// to pass over other kernels' entries.
fn overload(rps: f64) -> (usize, QueueCost) {
    let app = asr();
    let setup = table_iii(Setting::I, Architecture::HomoGpu);
    let ex = Explorer::new(setup.gpu.clone(), setup.fpga.clone());
    let spaces: Vec<_> = app.kernels().iter().map(|k| ex.explore(k)).collect();
    let plan = Scheduler::default()
        .plan(&app, &spaces, &setup.pool, QOS_BOUND_MS)
        .expect("plan");
    let policy = Policy::from_plan(&plan, &spaces, &setup.gpu);
    let mut sim = Simulator::new(app, &setup.pool, policy, SimConfig::default());
    sim.enqueue_arrivals(&poisson(rps, HORIZON_MS, 7));
    sim.advance_to(HORIZON_MS);
    (sim.queued(), sim.queue_cost())
}

#[test]
fn queue_work_per_batch_does_not_grow_with_queue_depth() {
    let (shallow, low) = overload(120.0);
    let (deep, high) = overload(750.0);
    let ratio = deep as f64 / shallow as f64;
    assert!(
        (7.0..=14.0).contains(&ratio),
        "the two loads must differ ~10x in standing queue: {shallow} vs {deep}"
    );
    assert!(
        low.entries_visited > low.batches_started,
        "batch takes never passed over another kernel's entry: {low:?}"
    );
    let per_batch = |c: QueueCost| c.entries_visited as f64 / c.batches_started as f64;
    let (a, b) = (per_batch(low), per_batch(high));
    assert!(
        b / a < 1.5 && a / b < 1.5,
        "queue entries visited per batch moved from {a:.2} to {b:.2} \
         (standing queue {shallow} -> {deep})"
    );
}
