use poly_device::DeviceKind;
use poly_ir::KernelId;
use std::collections::VecDeque;

/// One queued kernel execution: request `req` needs kernel `kernel`, ready
/// since `ready_ms`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct WorkItem {
    pub req: usize,
    pub kernel: KernelId,
    pub ready_ms: f64,
    /// Expected per-request device occupancy of *this* entry under the
    /// implementation it was dispatched with (size-scaled), in ms. Queue
    /// delay estimates sum these, so mixed-cost queues price each entry
    /// at its own expected service time rather than the candidate's.
    pub est_ms: f64,
    /// Implementation alternate this entry was dispatched under: index
    /// into the policy's top-k list for its kernel (0 = the interval
    /// plan's primary choice — the only value while the dynamic chooser
    /// is off).
    pub alt: u8,
    /// This copy is a hedge duplicate (win attribution only; the `done`
    /// flag already makes duplicates safe).
    pub hedge: bool,
}

/// Fixed-point scale of [`WorkQueue`]'s backlog accumulator: 2⁶⁴ units
/// per millisecond.
const BACKLOG_UNITS_PER_MS: f64 = 18_446_744_073_709_551_616.0;

/// `ms` in backlog units, truncated toward zero. Deterministic, so the
/// value subtracted on pop is exactly the one added on push.
fn backlog_units(ms: f64) -> i128 {
    // Equal to `(ms * BACKLOG_UNITS_PER_MS) as i128`, whose f64 → i128
    // cast is a library call on every push and pop. On the durations
    // queued here (0 ≤ ms < 2⁶³) shift the 53-bit significand instead:
    // ms = sig · 2^(exp − 1075), so ms · 2⁶⁴ = sig · 2^(exp − 1011).
    if !(0.0..9.2e18).contains(&ms) {
        return (ms * BACKLOG_UNITS_PER_MS) as i128;
    }
    let bits = ms.to_bits();
    let exp = ((bits >> 52) & 0x7ff) as i32;
    if exp == 0 {
        return 0; // zero or subnormal: below one unit
    }
    let sig = i128::from((bits & ((1 << 52) - 1)) | (1 << 52));
    let shift = exp - 1011;
    if shift >= 0 {
        sig << shift
    } else if shift > -64 {
        sig >> -shift
    } else {
        0
    }
}

/// `units` in ms, correctly rounded. Equal to `units as f64 /
/// BACKLOG_UNITS_PER_MS`, whose i128 → f64 cast is a library call on
/// every dispatch's backlog read; for a non-negative sum round the top 53
/// bits to nearest-even instead and scale by an exact power of two.
fn backlog_ms(units: i128) -> f64 {
    let Ok(x) = u128::try_from(units) else {
        return units as f64 / BACKLOG_UNITS_PER_MS;
    };
    let bits = 128 - x.leading_zeros();
    if bits <= 53 {
        return x as u64 as f64 / BACKLOG_UNITS_PER_MS; // exact
    }
    let shift = bits - 53;
    let mut sig = (x >> shift) as u64;
    let rem = x & ((1 << shift) - 1);
    let half = 1 << (shift - 1);
    if rem > half || (rem == half && sig & 1 == 1) {
        sig += 1;
    }
    // 2^(shift − 64), built from its exponent bits (bias 1023).
    let scale = f64::from_bits(u64::from(shift + 1023 - 64) << 52);
    sig as f64 * scale
}

/// A device's FIFO of ready work, with the aggregates dispatch reads kept
/// current on every change: the exact summed `est_ms` backlog and a
/// per-kernel entry count. Both cost O(1) to read, so pricing a device
/// does not depend on its queue depth.
///
/// The backlog is an integer sum of fixed-point values (2⁻⁶⁴ ms), so it
/// cannot drift and does not depend on the order entries arrived or left
/// in. Order is one FIFO: batch formation and stealing need the
/// cross-kernel arrival order, and the shallow queues of a lightly loaded
/// node pay nothing beyond the counter updates.
#[derive(Debug, Clone, Default)]
pub(crate) struct WorkQueue {
    items: VecDeque<WorkItem>,
    backlog: i128,
    /// Entries per kernel index (grown on demand).
    per_kernel: Vec<u32>,
    /// Entries passed over by `take_batch` but not taken, restored to the
    /// front afterwards (reused to keep batch formation allocation-free).
    skipped: Vec<WorkItem>,
    /// Entries visited by batch takes, `retain` and lookups since
    /// construction (the queue-depth cost counter; never reset).
    visits: u64,
}

impl WorkQueue {
    pub fn len(&self) -> usize {
        self.items.len()
    }

    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    pub fn front(&self) -> Option<&WorkItem> {
        self.items.front()
    }

    pub fn back(&self) -> Option<&WorkItem> {
        self.items.back()
    }

    /// Summed `est_ms` of every queued entry (exact up to the final
    /// rounding to `f64`).
    pub fn backlog_ms(&self) -> f64 {
        backlog_ms(self.backlog)
    }

    /// Queued entries of `kernel`.
    pub fn count_kernel(&self, kernel: KernelId) -> u32 {
        self.per_kernel.get(kernel.0).copied().unwrap_or(0)
    }

    /// Queue entries visited by scans since construction.
    pub fn visits(&self) -> u64 {
        self.visits
    }

    fn added(&mut self, item: &WorkItem) {
        self.backlog += backlog_units(item.est_ms);
        let k = item.kernel.0;
        if k >= self.per_kernel.len() {
            self.per_kernel.resize(k + 1, 0);
        }
        self.per_kernel[k] += 1;
    }

    fn removed(&mut self, item: &WorkItem) {
        self.backlog -= backlog_units(item.est_ms);
        self.per_kernel[item.kernel.0] -= 1;
    }

    pub fn push_back(&mut self, item: WorkItem) {
        self.added(&item);
        self.items.push_back(item);
    }

    pub fn pop_back(&mut self) -> Option<WorkItem> {
        let item = self.items.pop_back()?;
        self.removed(&item);
        Some(item)
    }

    /// Move up to `max` entries dispatched as `(kernel, alt)` into `batch`,
    /// oldest first, leaving every other entry in its order. Pops from the
    /// front and stops once the batch is full or no entry of `kernel` is
    /// left behind the cursor, so the cost is the distance to the last
    /// entry taken, not the queue depth.
    pub fn take_batch(&mut self, kernel: KernelId, alt: u8, max: usize, batch: &mut Vec<WorkItem>) {
        let mut left = self.count_kernel(kernel);
        let mut skipped = std::mem::take(&mut self.skipped);
        while batch.len() < max && left > 0 {
            let Some(item) = self.items.pop_front() else {
                break;
            };
            self.visits += 1;
            if item.kernel == kernel {
                left -= 1;
                if item.alt == alt {
                    self.removed(&item);
                    batch.push(item);
                    continue;
                }
            }
            skipped.push(item);
        }
        for item in skipped.drain(..).rev() {
            self.items.push_front(item);
        }
        self.skipped = skipped;
    }

    /// Keep only the entries `keep` accepts; returns how many were removed.
    pub fn retain(&mut self, mut keep: impl FnMut(&WorkItem) -> bool) -> usize {
        let Self {
            items,
            backlog,
            per_kernel,
            visits,
            ..
        } = self;
        let before = items.len();
        *visits += before as u64;
        items.retain(|it| {
            let kept = keep(it);
            if !kept {
                *backlog -= backlog_units(it.est_ms);
                per_kernel[it.kernel.0] -= 1;
            }
            kept
        });
        before - items.len()
    }

    /// Remove every queued copy of `req`'s `kernel` stage; returns how
    /// many were removed (no scan when no entry of `kernel` is queued).
    pub fn remove_stage(&mut self, req: usize, kernel: KernelId) -> usize {
        if self.count_kernel(kernel) == 0 {
            return 0;
        }
        self.retain(|it| !(it.req == req && it.kernel == kernel))
    }

    /// Whether a copy of `req`'s `kernel` stage is queued here (no scan
    /// when no entry of `kernel` is).
    pub fn holds(&mut self, req: usize, kernel: KernelId) -> bool {
        if self.count_kernel(kernel) == 0 {
            return false;
        }
        let pos = self
            .items
            .iter()
            .position(|it| it.req == req && it.kernel == kernel);
        self.visits += pos.map_or(self.items.len(), |p| p + 1) as u64;
        pos.is_some()
    }

    /// Remove every entry, in queue order.
    pub fn drain(&mut self) -> std::collections::vec_deque::Drain<'_, WorkItem> {
        self.backlog = 0;
        self.per_kernel.fill(0);
        self.items.drain(..)
    }

    pub fn clear(&mut self) {
        self.items.clear();
        self.backlog = 0;
        self.per_kernel.fill(0);
    }
}

/// One batch the device has committed to: the work items it serves, the
/// attempt number each was dispatched under, and the completion time. Used
/// to retry in-flight work when the device fail-stops mid-execution.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct InflightItem {
    pub item: WorkItem,
    pub attempt: u32,
    pub completion_ms: f64,
}

/// Simulation state of one accelerator.
#[derive(Debug, Clone)]
pub(crate) struct DeviceState {
    pub kind: DeviceKind,
    /// FIFO of ready work.
    pub queue: WorkQueue,
    /// Device is executing until this time.
    pub busy_until: f64,
    /// Whether an execution is in flight (distinguishes "busy_until in the
    /// past" from "currently executing").
    pub executing: bool,
    /// Loaded FPGA bitstream: `(kernel, impl_index)`.
    pub loaded: Option<(KernelId, usize)>,
    /// Reconfiguration time of this device in ms (0 for GPUs).
    pub reconfig_ms: f64,
    /// Idle power of the currently configured state, in watts.
    pub idle_power_w: f64,
    /// Whether the device is in service (false after a fail-stop fault,
    /// until recovery).
    pub healthy: bool,
    /// Execution-time multiplier (1.0 nominal, > 1.0 while a slowdown
    /// fault is active).
    pub derate: f64,
    /// Active power of the execution currently occupying the device (for
    /// refunding pre-booked busy energy when the device fails mid-batch).
    pub active_power_w: f64,
    /// Work committed to this device whose completions are still pending.
    /// Pruned lazily; retried onto survivors on fail-stop.
    pub inflight: Vec<InflightItem>,
    // --- accounting -------------------------------------------------------
    /// Active (busy) energy accumulated, in millijoules.
    pub busy_energy_mj: f64,
    /// Idle energy accumulated, in millijoules.
    pub idle_energy_mj: f64,
    /// Total busy time, in milliseconds.
    pub busy_ms: f64,
    /// End of the last accounted interval.
    pub accounted_to_ms: f64,
    /// Number of reconfigurations performed.
    pub reconfigs: usize,
}

impl DeviceState {
    pub fn new(kind: DeviceKind, reconfig_ms: f64, idle_power_w: f64) -> Self {
        Self {
            kind,
            queue: WorkQueue::default(),
            busy_until: 0.0,
            executing: false,
            loaded: None,
            reconfig_ms,
            idle_power_w,
            healthy: true,
            derate: 1.0,
            active_power_w: 0.0,
            inflight: Vec::new(),
            busy_energy_mj: 0.0,
            idle_energy_mj: 0.0,
            busy_ms: 0.0,
            accounted_to_ms: 0.0,
            reconfigs: 0,
        }
    }

    /// Account an idle stretch from the last accounted instant to `t`.
    pub fn account_idle_until(&mut self, t: f64) {
        if t > self.accounted_to_ms {
            self.idle_energy_mj += self.idle_power_w * (t - self.accounted_to_ms);
            self.accounted_to_ms = t;
        }
    }

    /// Account a busy stretch `[start, end)` at `power_w` (idle up to
    /// `start` is accounted first).
    pub fn account_busy(&mut self, start: f64, end: f64, power_w: f64) {
        self.account_idle_until(start);
        let dur = (end - start).max(0.0);
        self.busy_energy_mj += power_w * dur;
        self.busy_ms += dur;
        self.accounted_to_ms = self.accounted_to_ms.max(end);
    }

    /// Total energy in millijoules after closing the books at `t`.
    pub fn finish(&mut self, t: f64) -> f64 {
        self.account_idle_until(t);
        self.busy_energy_mj + self.idle_energy_mj
    }

    /// Utilization over `[0, t]`.
    pub fn utilization(&self, t: f64) -> f64 {
        if t <= 0.0 {
            0.0
        } else {
            (self.busy_ms / t).min(1.0)
        }
    }
}

/// Per-device statistics reported after a simulation segment.
#[derive(Debug, Clone, PartialEq)]
pub struct DeviceStats {
    /// Device kind.
    pub kind: DeviceKind,
    /// Fraction of simulated time spent executing.
    pub utilization: f64,
    /// Total energy (busy + idle) in joules.
    pub energy_j: f64,
    /// Number of FPGA reconfigurations performed.
    pub reconfigs: usize,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn idle_then_busy_accounting() {
        let mut d = DeviceState::new(DeviceKind::Fpga, 200.0, 5.0);
        d.account_busy(100.0, 150.0, 25.0);
        // 100 ms idle at 5 W + 50 ms busy at 25 W.
        assert!((d.idle_energy_mj - 500.0).abs() < 1e-9);
        assert!((d.busy_energy_mj - 1250.0).abs() < 1e-9);
        let total = d.finish(200.0);
        // + 50 ms idle tail.
        assert!((total - (500.0 + 1250.0 + 250.0)).abs() < 1e-9);
        assert!((d.utilization(200.0) - 0.25).abs() < 1e-9);
    }

    #[test]
    fn double_finish_is_idempotent() {
        let mut d = DeviceState::new(DeviceKind::Gpu, 0.0, 40.0);
        let a = d.finish(100.0);
        let b = d.finish(100.0);
        assert_eq!(a, b);
    }

    /// The batch gather `WorkQueue::take_batch` replaced: rotate the
    /// whole queue, keeping the first `max` `(kernel, alt)` entries.
    fn rotate_gather(
        queue: &mut VecDeque<WorkItem>,
        kernel: KernelId,
        alt: u8,
        max: usize,
    ) -> Vec<WorkItem> {
        let mut batch = Vec::new();
        let mut rest = VecDeque::new();
        while let Some(item) = queue.pop_front() {
            if item.kernel == kernel && item.alt == alt && batch.len() < max {
                batch.push(item);
            } else {
                rest.push_back(item);
            }
        }
        *queue = rest;
        batch
    }

    fn assert_matches(q: &WorkQueue, model: &VecDeque<WorkItem>) {
        assert!(q.items.iter().eq(model.iter()), "order diverged");
        let exact: i128 = model.iter().map(|it| backlog_units(it.est_ms)).sum();
        assert_eq!(q.backlog, exact, "backlog drifted from a fresh recount");
        assert_eq!(q.backlog_ms(), exact as f64 / BACKLOG_UNITS_PER_MS);
        let naive: f64 = model.iter().map(|it| it.est_ms).sum();
        assert!((q.backlog_ms() - naive).abs() <= 1e-9 * naive.max(1.0));
        for k in 0..6 {
            let count = model.iter().filter(|it| it.kernel == KernelId(k)).count();
            assert_eq!(q.count_kernel(KernelId(k)) as usize, count, "kernel {k}");
        }
    }

    #[test]
    fn work_queue_matches_a_naive_model_over_random_operations() {
        use rand::{Rng, SeedableRng};
        for seed in 0..40 {
            let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
            let mut q = WorkQueue::default();
            let mut model: VecDeque<WorkItem> = VecDeque::new();
            let mut next_req = 0usize;
            for _ in 0..600 {
                match rng.gen_range(0u32..100) {
                    0..=54 => {
                        let item = WorkItem {
                            req: next_req,
                            kernel: KernelId(rng.gen_range(0usize..5)),
                            ready_ms: 0.0,
                            est_ms: rng.gen_range(0.001..400.0),
                            alt: rng.gen_range(0u8..3),
                            hedge: false,
                        };
                        next_req += 1;
                        q.push_back(item);
                        model.push_back(item);
                    }
                    55..=61 => assert_eq!(q.pop_back(), model.pop_back()),
                    62..=84 => {
                        // As the engine calls it (the front's kernel and
                        // alternate) or for an arbitrary pair.
                        let (kernel, alt) = match model.front() {
                            Some(f) if rng.gen_bool(0.7) => (f.kernel, f.alt),
                            _ => (KernelId(rng.gen_range(0usize..6)), rng.gen_range(0u8..3)),
                        };
                        let max = rng.gen_range(1usize..9);
                        let mut batch = vec![];
                        q.take_batch(kernel, alt, max, &mut batch);
                        assert_eq!(batch, rotate_gather(&mut model, kernel, alt, max));
                    }
                    85..=93 => {
                        let m = rng.gen_range(2usize..7);
                        let r = rng.gen_range(0..m);
                        let kernel = KernelId(rng.gen_range(0usize..5));
                        let before = model.len();
                        if rng.gen_bool(0.5) {
                            let drop = |it: &WorkItem| it.req % m == r && it.kernel != kernel;
                            model.retain(|it| !drop(it));
                            assert_eq!(q.retain(|it| !drop(it)), before - model.len());
                        } else {
                            let req = rng.gen_range(0..next_req.max(1));
                            model.retain(|it| !(it.req == req && it.kernel == kernel));
                            assert_eq!(q.remove_stage(req, kernel), before - model.len());
                        }
                    }
                    94..=97 => {
                        let req = rng.gen_range(0..next_req.max(1));
                        let kernel = KernelId(rng.gen_range(0usize..5));
                        let held = model.iter().any(|it| it.req == req && it.kernel == kernel);
                        assert_eq!(q.holds(req, kernel), held);
                    }
                    98 => assert!(q.drain().eq(model.drain(..))),
                    _ => {
                        q.clear();
                        model.clear();
                    }
                }
                assert_matches(&q, &model);
            }
        }
    }

    #[test]
    fn backlog_units_match_the_saturating_cast() {
        use rand::{Rng, SeedableRng};
        let cast = |ms: f64| (ms * BACKLOG_UNITS_PER_MS) as i128;
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(5);
        let edges = [
            0.0,
            -0.0,
            5e-324,
            2f64.powi(-64),
            2f64.powi(-63),
            1.0,
            9.1e18,
            9.2e18,
        ];
        let random = (0..20_000).map(|_| {
            let mantissa: f64 = rng.gen_range(1.0..2.0);
            mantissa * 2f64.powi(rng.gen_range(-80i32..64))
        });
        for ms in edges.into_iter().chain(random) {
            assert_eq!(backlog_units(ms), cast(ms), "{ms:e}");
        }
        for ms in [-1.0, f64::NAN, f64::INFINITY, 1e300] {
            assert_eq!(backlog_units(ms), cast(ms), "{ms:e}");
        }
    }

    #[test]
    fn backlog_ms_matches_the_cast() {
        use rand::{Rng, RngCore, SeedableRng};
        let cast = |units: i128| units as f64 / BACKLOG_UNITS_PER_MS;
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(6);
        let mut cases = vec![0, 1, -1, (1 << 53) - 1, 1 << 53, (1 << 53) + 1, i128::MAX];
        for _ in 0..20_000 {
            let x = (i128::from(rng.next_u64()) << 63) ^ i128::from(rng.next_u64());
            cases.push(x >> rng.gen_range(0u32..120));
            // A 53-bit significand (odd or even) followed by exactly half
            // an ulp, and its neighbours: the round-to-nearest-even cases.
            let sig = i128::from((rng.next_u64() >> 11) | (1 << 52));
            let extra = rng.gen_range(1u32..74);
            let tie = (sig << extra) | (1 << (extra - 1));
            cases.extend([tie - 1, tie, tie + 1]);
        }
        for units in cases {
            assert_eq!(
                backlog_ms(units).to_bits(),
                cast(units).to_bits(),
                "{units}"
            );
        }
    }

    #[test]
    fn backlog_does_not_depend_on_removal_order() {
        let item = |req, est_ms| WorkItem {
            req,
            kernel: KernelId(0),
            ready_ms: 0.0,
            est_ms,
            alt: 0,
            hedge: false,
        };
        // An f64 fold of these depends on the order it runs in.
        let fwd = [0.1, 0.2, 0.3];
        assert_ne!(fwd.iter().sum::<f64>(), fwd.iter().rev().sum::<f64>());
        let mut a = WorkQueue::default();
        let mut b = WorkQueue::default();
        for (i, ms) in fwd.into_iter().chain([1e6]).enumerate() {
            a.push_back(item(i, ms));
        }
        for (i, ms) in [1e6].into_iter().chain(fwd.into_iter().rev()).enumerate() {
            b.push_back(item(i, ms));
        }
        assert_eq!(a.backlog_ms(), b.backlog_ms());
        a.retain(|it| it.est_ms < 1e5);
        b.retain(|it| it.est_ms < 1e5);
        assert_eq!(a.backlog_ms(), b.backlog_ms());
        while a.pop_back().is_some() {}
        assert_eq!(a.backlog_ms(), 0.0);
    }

    #[test]
    fn take_batch_stops_after_the_last_entry_of_its_kernel() {
        let mut q = WorkQueue::default();
        for req in 0..1000 {
            q.push_back(WorkItem {
                req,
                kernel: KernelId(usize::from(req >= 3)),
                ready_ms: 0.0,
                est_ms: 1.0,
                alt: 0,
                hedge: false,
            });
        }
        let mut batch = vec![];
        q.take_batch(KernelId(0), 0, 8, &mut batch);
        assert_eq!(batch.len(), 3);
        assert_eq!(q.visits(), 3, "kernel 0 exhausted: no scan of the tail");
        batch.clear();
        q.take_batch(KernelId(1), 0, 8, &mut batch);
        assert_eq!(q.visits(), 11, "a full batch stops the take");
        assert_eq!(q.front().map(|it| it.req), Some(11));
    }

    #[test]
    fn busy_before_accounted_does_not_go_negative() {
        let mut d = DeviceState::new(DeviceKind::Gpu, 0.0, 40.0);
        d.account_idle_until(50.0);
        d.account_busy(40.0, 45.0, 100.0); // overlaps already-accounted idle
        assert!(d.busy_energy_mj >= 0.0);
        assert!(d.accounted_to_ms >= 50.0);
    }
}
