//! Real multi-threaded pipeline runtime: one OS thread per stage,
//! activations and gradients flowing over channels, under supervision.
//!
//! This is the systems half of the paper's claim: pipelined
//! backpropagation keeps all workers busy after the initial fill, while
//! fill-and-drain training idles them (Eq. 1). Each stage thread runs the
//! shared [`StageGroup`] loop — the same one `pbp-dist` runs across
//! processes — over in-memory links, so the realized delays are exactly
//! the schedule's (Eq. 5 for PB) and a run is bit-identical to the
//! sequential [`ScheduledTrainer`](crate::ScheduledTrainer) on the same
//! plan, while its throughput is measured in wall-clock samples/second.
//!
//! Design notes:
//!
//! * links are unbounded channels that move values: no encoding, no
//!   checksums, no acks. The version lag bounds the microbatches in
//!   flight, so no channel grows past it;
//! * every run is **supervised** (DESIGN.md §9): stage threads run under
//!   `catch_unwind` on owned (detachable) threads, beat to the calling
//!   thread while they wait, and honour a shared abort flag; the calling
//!   thread is the watchdog. A panicking, stalling or channel-dropping
//!   stage therefore surfaces as a typed [`PipelineFault`] within the
//!   watchdog timeout instead of hanging the run. Fault injection for
//!   tests is scripted through [`FaultPlan`] in the config.

use crate::engine::{batch_rows, TrainEngine};
use crate::fault::{FaultPlan, PipelineFault};
use crate::group::{with_batch_dim, StageGroup, StageLink};
use crate::metrics::{EngineMetrics, MetricsRecorder};
use crate::schedule::{fill_drain_utilization, pb_utilization, MicrobatchSchedule};
use crate::supervisor::{StageDone, StageEvent, StageOutcome, StreamSupervisor, Watchdog};
use crossbeam::channel::{unbounded, Receiver, RecvTimeoutError, Sender};
use pbp_data::Dataset;
use pbp_nn::{LaneStack, Network, Stage};
use pbp_optim::{LrSchedule, Mitigation};
use pbp_tensor::{pool, Tensor};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Minimum interval between heartbeats from one stage; keeps the events
/// channel cheap while staying far below any sane stall timeout.
const BEAT_INTERVAL: Duration = Duration::from_millis(1);

/// Configuration of the threaded pipeline.
#[derive(Debug, Clone)]
pub struct ThreadedConfig {
    /// Delay-mitigation method, applied per stage with the stage's delay
    /// under the plan.
    pub mitigation: Mitigation,
    /// Weight stashing: backward uses the exact weights of the forward
    /// pass.
    pub weight_stashing: bool,
    /// Learning-rate schedule (in samples seen).
    pub schedule: LrSchedule,
    /// The microbatch schedule the stage threads execute:
    /// [`MicrobatchSchedule::PipelinedBackprop`] (stream continuously,
    /// update on every gradient) or [`MicrobatchSchedule::FillDrain`] at
    /// `update_size == 1` (drain the pipeline after every sample — the
    /// baseline whose throughput PB beats).
    pub plan: MicrobatchSchedule,
    /// Scripted fault injection (tests and chaos runs); `None` in
    /// production.
    pub fault_plan: Option<FaultPlan>,
    /// Liveness policy: stall timeout, supervisor poll tick, shutdown
    /// grace.
    pub watchdog: Watchdog,
    /// Trace recorder the stage threads report spans into (disabled by
    /// default). Living in the config — rather than only on the engine —
    /// means a supervisor that rebuilds the engine from its
    /// [`EngineSpec`](crate::EngineSpec) keeps tracing across restarts.
    pub tracer: pbp_trace::Tracer,
}

impl ThreadedConfig {
    /// Pipelined backpropagation with the given schedule.
    pub fn pb(schedule: LrSchedule) -> Self {
        ThreadedConfig {
            mitigation: Mitigation::None,
            weight_stashing: false,
            schedule,
            plan: MicrobatchSchedule::PipelinedBackprop,
            fault_plan: None,
            watchdog: Watchdog::default(),
            tracer: pbp_trace::Tracer::disabled(),
        }
    }

    /// Fill-and-drain SGD at update size one.
    pub fn fill_drain(schedule: LrSchedule) -> Self {
        ThreadedConfig {
            plan: MicrobatchSchedule::FillDrain { update_size: 1 },
            ..ThreadedConfig::pb(schedule)
        }
    }

    /// Whether the plan drains the pipeline after every sample.
    fn drains_per_sample(&self) -> bool {
        matches!(self.plan, MicrobatchSchedule::FillDrain { .. })
    }

    /// The label engines built from this config report.
    pub(crate) fn label(&self) -> String {
        if self.drains_per_sample() {
            return "Threaded Fill&Drain".to_string();
        }
        let mut label = format!("Threaded {}", self.mitigation.label());
        if self.weight_stashing {
            label.push_str("+WS");
        }
        label
    }

    /// Sets the mitigation method.
    pub fn with_mitigation(mut self, mitigation: Mitigation) -> Self {
        self.mitigation = mitigation;
        self
    }

    /// Enables weight stashing.
    pub fn with_weight_stashing(mut self) -> Self {
        self.weight_stashing = true;
        self
    }

    /// Arms a fault-injection script.
    pub fn with_fault_plan(mut self, plan: FaultPlan) -> Self {
        self.fault_plan = Some(plan);
        self
    }

    /// Sets the watchdog policy.
    pub fn with_watchdog(mut self, watchdog: Watchdog) -> Self {
        self.watchdog = watchdog;
        self
    }

    /// Installs a trace recorder.
    pub fn with_tracer(mut self, tracer: pbp_trace::Tracer) -> Self {
        self.tracer = tracer;
        self
    }
}

/// Wall-clock throughput of a threaded run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ThroughputReport {
    /// Samples processed.
    pub samples: usize,
    /// Total wall-clock time.
    pub elapsed: Duration,
    /// Samples per second.
    pub samples_per_sec: f64,
}

/// The threaded pipeline runtime (see module docs).
///
/// Use the static [`ThreadedPipeline::train`] /
/// [`ThreadedPipeline::try_train`] to stream one batch of samples through
/// a network, or construct a stateful engine with
/// [`ThreadedPipeline::new`] to drive it through the shared
/// [`run_training`](crate::engine::run_training) loop. The stateful form
/// keeps one [`StageGroup`] per stage (optimizer state, weight-version
/// queue, schedule position) and lends it to each call's stage thread, so
/// the pipeline state carries across calls exactly as in the sequential
/// core.
///
/// On a [`PipelineFault`] the engine is **poisoned**: the network and
/// optimizer state were lost with the failed threads. The fault is
/// retrievable once via [`TrainEngine::take_fault`]; recovery means
/// rebuilding the engine and resuming from a snapshot (see
/// [`run_supervised`](crate::supervisor::run_supervised)).
pub struct ThreadedPipeline {
    net: Option<Network>,
    config: ThreadedConfig,
    /// One group per layer stage, in stage order.
    groups: Vec<StageGroup>,
    train_ns: u128,
    samples_seen: usize,
    last_throughput: Option<ThroughputReport>,
    fault: Option<PipelineFault>,
}

impl std::fmt::Debug for ThreadedPipeline {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "ThreadedPipeline({} stages, {}, samples_seen={})",
            self.groups.len() + 1,
            self.config.plan.label(),
            self.samples_seen
        )
    }
}

impl ThreadedPipeline {
    /// Creates a stateful engine that streams each training call through
    /// the threaded runtime.
    ///
    /// # Panics
    ///
    /// Panics if the config's plan is neither PB nor fill&drain at update
    /// size one.
    pub fn new(net: Network, config: ThreadedConfig) -> Self {
        assert!(
            matches!(
                config.plan,
                MicrobatchSchedule::PipelinedBackprop
                    | MicrobatchSchedule::FillDrain { update_size: 1 }
            ),
            "threaded runtime runs the PB and fill&drain (N=1) plans, got {}",
            config.plan.label()
        );
        let layer_stages = net.num_stages();
        let groups = (0..layer_stages)
            .map(|s| {
                StageGroup::new(
                    std::slice::from_ref(net.stage(s)),
                    s..s + 1,
                    layer_stages,
                    config.plan,
                    config.mitigation,
                    config.weight_stashing,
                    config.schedule.clone(),
                )
                .with_faults(config.fault_plan.as_ref())
            })
            .collect();
        ThreadedPipeline {
            net: Some(net),
            config,
            groups,
            train_ns: 0,
            samples_seen: 0,
            last_throughput: None,
            fault: None,
        }
    }

    /// Borrows the network.
    ///
    /// # Panics
    ///
    /// Panics if the engine was poisoned by a [`PipelineFault`] — the
    /// network was lost with the failed threads; rebuild the engine and
    /// resume from a snapshot.
    pub fn network_mut(&mut self) -> &mut Network {
        self.net
            .as_mut()
            .expect("network lost to a pipeline fault; rebuild the engine (see take_fault)")
    }

    /// Consumes the engine, returning the network.
    ///
    /// # Panics
    ///
    /// Panics if the engine was poisoned by a [`PipelineFault`].
    pub fn into_network(self) -> Network {
        self.net
            .expect("network lost to a pipeline fault; rebuild the engine (see take_fault)")
    }

    /// Throughput of the most recent training call, if any.
    pub fn last_throughput(&self) -> Option<ThroughputReport> {
        self.last_throughput
    }

    /// Streams `samples` through the pipeline, accumulating metrics;
    /// returns per-sample losses in input order. Pipeline state persists
    /// across calls (see the type docs). On a fault the engine is
    /// poisoned and the fault is both returned and stored for
    /// [`TrainEngine::take_fault`].
    pub fn try_stream(&mut self, samples: &[(Tensor, usize)]) -> Result<Vec<f32>, PipelineFault> {
        if samples.is_empty() {
            return Ok(Vec::new());
        }
        let net = self
            .net
            .take()
            .expect("network lost to a pipeline fault; rebuild the engine (see take_fault)");
        let groups = std::mem::take(&mut self.groups);
        let start = Instant::now();
        match run_stages(net, groups, samples, &self.config, self.samples_seen) {
            Ok((net, groups, losses)) => {
                let elapsed = start.elapsed();
                self.net = Some(net);
                self.groups = groups;
                self.train_ns += elapsed.as_nanos();
                self.samples_seen += samples.len();
                self.last_throughput = Some(ThroughputReport {
                    samples: samples.len(),
                    elapsed,
                    samples_per_sec: samples.len() as f64 / elapsed.as_secs_f64().max(1e-12),
                });
                Ok(losses)
            }
            Err(fault) => {
                self.fault = Some(fault.clone());
                Err(fault)
            }
        }
    }

    /// [`ThreadedPipeline::try_stream`] with the panic-on-fault contract.
    pub fn stream(&mut self, samples: &[(Tensor, usize)]) -> Vec<f32> {
        self.try_stream(samples)
            .unwrap_or_else(|fault| panic!("threaded pipeline fault: {fault}"))
    }

    /// Streams `samples` through the pipeline once, training as it goes.
    /// Returns the trained network, per-sample losses (in input order) and
    /// the throughput report.
    ///
    /// # Panics
    ///
    /// Panics if `samples` is empty or the run ends in a
    /// [`PipelineFault`] (use [`ThreadedPipeline::try_train`] for a typed
    /// error).
    pub fn train(
        net: Network,
        samples: &[(Tensor, usize)],
        config: &ThreadedConfig,
    ) -> (Network, Vec<f32>, ThroughputReport) {
        Self::try_train(net, samples, config)
            .unwrap_or_else(|fault| panic!("threaded pipeline fault: {fault}"))
    }

    /// Fallible [`ThreadedPipeline::train`]: a detected stage panic,
    /// stall or severed channel returns a typed [`PipelineFault`] within
    /// the watchdog timeout instead of hanging or propagating the panic.
    ///
    /// # Panics
    ///
    /// Panics if `samples` is empty.
    pub fn try_train(
        net: Network,
        samples: &[(Tensor, usize)],
        config: &ThreadedConfig,
    ) -> Result<(Network, Vec<f32>, ThroughputReport), PipelineFault> {
        assert!(!samples.is_empty(), "need at least one sample");
        let mut engine = Self::new(net, config.clone());
        let losses = engine.try_stream(samples)?;
        let report = engine.last_throughput.expect("a run just finished");
        Ok((engine.into_network(), losses, report))
    }

    /// The per-stage counters of every group, merged.
    fn recorder(&self) -> MetricsRecorder {
        let mut rec = MetricsRecorder::new(self.groups.len());
        rec.add_train_ns(self.train_ns);
        for (s, group) in self.groups.iter().enumerate() {
            rec.merge_stage(s, group.metrics().stage(s));
        }
        rec
    }
}

/// One stage thread's ends of its two neighbour links.
struct ChannelLink {
    act_in: Option<Receiver<(usize, usize, LaneStack)>>,
    act_out: Option<Sender<(usize, usize, LaneStack)>>,
    grad_in: Option<Receiver<(usize, f32, LaneStack)>>,
    grad_out: Option<Sender<(usize, f32, LaneStack)>>,
    live: Liveness,
}

/// Why a stage thread's loop ended early.
enum LinkDown {
    /// The supervisor raised the abort flag.
    Aborted,
    /// A neighbour's end of a link is gone.
    Closed,
}

/// A stage thread's liveness duties: rate-limited heartbeats to the
/// supervisor while it waits, and giving up once the abort flag rises.
struct Liveness {
    stage: usize,
    events: Sender<StageEvent>,
    last: Instant,
    abort: Arc<AtomicBool>,
    tick: Duration,
}

impl Liveness {
    fn beat(&mut self) {
        if self.last.elapsed() >= BEAT_INTERVAL {
            let _ = self.events.send(StageEvent::Beat { stage: self.stage });
            self.last = Instant::now();
        }
    }

    /// Waits for the next message on `rx`, beating each tick.
    fn recv<T>(&mut self, rx: Option<&Receiver<T>>) -> Result<T, LinkDown> {
        let rx = rx.expect("the group only receives on links it has");
        loop {
            if self.abort.load(Ordering::Relaxed) {
                return Err(LinkDown::Aborted);
            }
            match rx.recv_timeout(self.tick) {
                Ok(msg) => {
                    self.beat();
                    return Ok(msg);
                }
                Err(RecvTimeoutError::Timeout) => self.beat(),
                Err(RecvTimeoutError::Disconnected) => return Err(LinkDown::Closed),
            }
        }
    }
}

/// Sends on a link end; a severed end drops the message, a gone
/// neighbour ends the loop.
fn send<T>(tx: Option<&Sender<T>>, msg: T) -> Result<(), LinkDown> {
    match tx {
        Some(tx) => tx.send(msg).map_err(|_| LinkDown::Closed),
        None => Ok(()),
    }
}

impl StageLink for ChannelLink {
    type Error = LinkDown;

    fn send_activation(
        &mut self,
        mb: usize,
        label: usize,
        lanes: LaneStack,
        _version: u64,
    ) -> Result<(), LinkDown> {
        send(self.act_out.as_ref(), (mb, label, lanes))
    }

    fn recv_activation(&mut self, mb: usize) -> Result<(usize, LaneStack), LinkDown> {
        let (got_mb, label, lanes) = self.live.recv(self.act_in.as_ref())?;
        debug_assert_eq!(got_mb, mb, "activations arrive in microbatch order");
        Ok((label, lanes))
    }

    fn send_gradient(
        &mut self,
        mb: usize,
        loss: f32,
        lanes: LaneStack,
        _version: u64,
    ) -> Result<(), LinkDown> {
        send(self.grad_out.as_ref(), (mb, loss, lanes))
    }

    fn recv_gradient(&mut self, mb: usize) -> Result<(f32, LaneStack), LinkDown> {
        let (got_mb, loss, lanes) = self.live.recv(self.grad_in.as_ref())?;
        debug_assert_eq!(got_mb, mb, "gradients arrive in microbatch order");
        Ok((loss, lanes))
    }

    fn sever(&mut self) {
        self.act_out = None;
        self.grad_out = None;
    }
}

/// Stringifies a `catch_unwind` payload.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// The supervised runtime: spawns one owned thread per stage, each
/// running its group's loop up to microbatch `base + samples.len()`,
/// then watches them from the calling thread — draining heartbeats,
/// checking the watchdog, and on any fault raising the abort flag,
/// waiting out the shutdown grace and detaching whatever will not stop.
/// Stages and groups travel back by value over the events channel, so
/// joins never block on an unresponsive thread.
fn run_stages(
    net: Network,
    groups: Vec<StageGroup>,
    samples: &[(Tensor, usize)],
    config: &ThreadedConfig,
    base: usize,
) -> Result<(Network, Vec<StageGroup>, Vec<f32>), PipelineFault> {
    let stages = net.into_stages();
    let world = stages.len();
    assert_eq!(groups.len(), world, "one group per stage");
    // Core-aware co-scheduling: the stage threads are real OS threads
    // competing with the kernel pool for the same cores. Park one pool
    // core per *heavy* stage for the duration of the run so the two
    // layers of parallelism divide the machine instead of oversubscribing
    // it. Kernels are bit-identical at any thread count, so this shifts
    // wall-clock only, never results.
    let cores = reserve_stage_cores(&stages);
    let tick = config.watchdog.poll.max(Duration::from_millis(1));
    let total = base + samples.len();
    let mut sup = StreamSupervisor::new(world, config.watchdog.clone());
    let (events_tx, events_rx) = unbounded::<StageEvent>();
    let live = |stage| Liveness {
        stage,
        events: events_tx.clone(),
        last: Instant::now(),
        abort: sup.abort_flag(),
        tick,
    };
    let mut links: Vec<ChannelLink> = (0..world)
        .map(|s| ChannelLink {
            act_in: None,
            act_out: None,
            grad_in: None,
            grad_out: None,
            live: live(s),
        })
        .collect();
    for s in 1..world {
        let (tx, rx) = unbounded();
        links[s - 1].act_out = Some(tx);
        links[s].act_in = Some(rx);
        let (tx, rx) = unbounded();
        links[s].grad_out = Some(tx);
        links[s - 1].grad_in = Some(rx);
    }
    // The first stage feeds itself; it beats on every sample it takes, so
    // even a single-stage pipeline (which never waits on a link) is seen
    // alive.
    let mut inputs: Option<Vec<(usize, Tensor)>> = Some(
        samples
            .iter()
            .map(|(x, label)| (*label, with_batch_dim(x)))
            .collect(),
    );

    let mut handles = Vec::with_capacity(world);
    for (s, ((stage, mut group), mut link)) in stages.into_iter().zip(groups).zip(links).enumerate()
    {
        group.set_lanes(config.tracer.enabled().then(|| {
            vec![config
                .tracer
                .lane(pbp_trace::PID_WALL, format!("stage-{s}"), s as i64)]
        }));
        let inputs = inputs.take().unwrap_or_default().into_iter();
        let mut feed_live = live(s);
        let events = events_tx.clone();
        let body = move || {
            let mut stages = vec![stage];
            let mut inputs = inputs;
            let mut feed = |_mb: usize| {
                feed_live.beat();
                inputs.next().expect("one input per microbatch")
            };
            let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                group.run(&mut stages, &mut link, &mut feed, total)
            }));
            let outcome = match result {
                Ok(Ok(losses)) => StageOutcome::Completed(losses),
                Ok(Err(LinkDown::Aborted)) => StageOutcome::Aborted,
                Ok(Err(LinkDown::Closed)) => StageOutcome::LinkClosed,
                Err(payload) => {
                    let message = panic_message(payload.as_ref());
                    group.instant(pbp_trace::TracePhase::Fault, message.clone());
                    StageOutcome::Panicked(message)
                }
            };
            group.flush_lanes();
            // Sever the data plane before reporting, so neighbours unblock
            // even if the body panicked mid-message.
            drop(link);
            let _ = events.send(StageEvent::Done(Box::new(StageDone {
                stage_idx: s,
                stage: stages.pop().expect("the stage survives its loop"),
                group,
                outcome,
            })));
        };
        handles.push(
            std::thread::Builder::new()
                .name(format!("pbp-stage-{s}"))
                .spawn(body)
                .expect("spawn stage thread"),
        );
    }
    drop(events_tx);

    // ---- Control plane (this thread): watchdog + collector.
    loop {
        if let Ok(event) = events_rx.recv_timeout(tick) {
            sup.on_event(event);
        }
        while let Ok(event) = events_rx.try_recv() {
            sup.on_event(event);
        }
        if sup.all_done() || sup.grace_expired() {
            break;
        }
        if !sup.aborting() {
            sup.check_watchdog();
        }
    }

    // Join only threads that already reported in (non-blocking by
    // construction); the rest are detached and exit on their own once
    // their blocked wait observes the abort flag or a disconnect.
    for (s, handle) in handles.into_iter().enumerate() {
        if sup.is_done(s) {
            let _ = handle.join();
        }
    }
    drop(cores);

    let mut stages = Vec::with_capacity(world);
    let mut groups = Vec::with_capacity(world);
    let mut losses = Vec::new();
    for done in sup.into_result()? {
        if let StageOutcome::Completed(l) = done.outcome {
            if done.stage_idx == 0 {
                losses = l;
            }
        }
        stages.push(done.stage);
        groups.push(done.group);
    }
    Ok((Network::new(stages), groups, losses))
}

/// Counts the stages heavy enough to deserve a dedicated core: those
/// carrying at least half their fair share (`total / (2·S)`) of the
/// network's per-sample FLOPs. Floored at 1 — a pipeline always has at
/// least one working stage.
fn heavy_stage_count(flops: &[u64]) -> usize {
    let total: u64 = flops.iter().sum();
    if total == 0 {
        return 1;
    }
    let threshold = (total / (2 * flops.len() as u64)).max(1);
    flops.iter().filter(|&&f| f >= threshold).count().max(1)
}

/// Parks one kernel-pool core per heavy stage (see [`heavy_stage_count`])
/// while a streaming run is in flight, capped at the machine's planning
/// core count. Forward + backward costs roughly 3× the forward FLOPs, a
/// uniform factor that cancels in the share comparison but keeps the
/// estimate honest. Returns `None` on single-core machines, where there
/// is nothing to divide.
fn reserve_stage_cores(stages: &[Stage]) -> Option<pool::CoreReservation> {
    let cores = pool::configured_threads();
    if cores <= 1 {
        return None;
    }
    let flops: Vec<u64> = stages.iter().map(|s| s.flops_per_sample() * 3).collect();
    Some(pool::reserve(heavy_stage_count(&flops).min(cores)))
}

impl TrainEngine for ThreadedPipeline {
    fn label(&self) -> String {
        self.config.label()
    }

    fn train_batch(&mut self, x: &Tensor, labels: &[usize]) -> f32 {
        let samples: Vec<(Tensor, usize)> = batch_rows(x, labels.len())
            .into_iter()
            .zip(labels.iter().copied())
            .collect();
        let losses = self.stream(&samples);
        losses.iter().sum::<f32>() / labels.len() as f32
    }

    fn train_epoch(&mut self, data: &Dataset, seed: u64, epoch: usize) -> f64 {
        let order = data.epoch_order(seed, epoch);
        let (total, samples) = TrainEngine::train_range(self, data, &order);
        if samples == 0 {
            0.0
        } else {
            total / samples as f64
        }
    }

    fn train_range(&mut self, data: &Dataset, indices: &[usize]) -> (f64, usize) {
        let samples: Vec<(Tensor, usize)> = indices
            .iter()
            .map(|&i| {
                let (x, label) = data.sample(i);
                (x.clone(), label)
            })
            .collect();
        match self.try_stream(&samples) {
            Ok(losses) => (losses.iter().map(|&l| l as f64).sum::<f64>(), losses.len()),
            // Fault recorded for take_fault; the runner checks it before
            // trusting the (empty) result.
            Err(_) => (0.0, 0),
        }
    }

    fn take_fault(&mut self) -> Option<PipelineFault> {
        self.fault.take()
    }

    fn set_tracer(&mut self, tracer: pbp_trace::Tracer) {
        self.config.tracer = tracer;
    }

    fn write_state(&self, snap: &mut pbp_snapshot::SnapshotBuilder) {
        use pbp_snapshot::Snapshottable;
        pbp_nn::snapshot::write_network(
            self.net
                .as_ref()
                .expect("cannot snapshot a fault-poisoned engine"),
            snap,
        );
        crate::state::write_engine_section(snap, "threaded", |w| {
            w.put_usize(self.samples_seen);
            w.put_u32(self.groups.len() as u32);
            for group in &self.groups {
                for cell in group.cells() {
                    cell.write_state(w);
                }
            }
            self.recorder().write_state(w);
        });
    }

    fn read_state(
        &mut self,
        archive: &pbp_snapshot::SnapshotArchive,
    ) -> Result<(), pbp_snapshot::SnapshotError> {
        use pbp_snapshot::Snapshottable;
        pbp_nn::snapshot::read_network(self.network_mut(), archive)?;
        let mut r = crate::state::engine_reader(archive, "threaded")?;
        self.samples_seen = r.take_usize()?;
        let n = r.take_u32()? as usize;
        if n != self.groups.len() {
            return Err(pbp_snapshot::SnapshotError::Mismatch(format!(
                "threaded state for {n} stages, engine has {}",
                self.groups.len()
            )));
        }
        for (s, group) in self.groups.iter_mut().enumerate() {
            group.cells_mut()[0].read_state(&mut r, "threaded", s)?;
        }
        let mut rec = MetricsRecorder::new(n);
        rec.read_state(&mut r)?;
        self.train_ns = rec.train_ns();
        for group in &mut self.groups {
            group.seek(self.samples_seen, 0.0);
            group.set_metrics(rec.clone());
        }
        r.finish()
    }

    fn network_mut(&mut self) -> &mut Network {
        ThreadedPipeline::network_mut(self)
    }

    fn samples_seen(&self) -> usize {
        self.samples_seen
    }

    fn metrics(&self) -> EngineMetrics {
        let s = self.groups.len() + 1;
        let occupancy = if self.config.drains_per_sample() {
            Some(fill_drain_utilization(1, s))
        } else if self.samples_seen > 0 {
            Some(pb_utilization(self.samples_seen + 2 * s - 2, s))
        } else {
            None
        };
        self.recorder()
            .snapshot(TrainEngine::label(self), self.samples_seen, occupancy)
    }

    fn into_network(self: Box<Self>) -> Network {
        ThreadedPipeline::into_network(*self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::FaultSpec;
    use crate::trainer::{evaluate, SgdmTrainer};
    use pbp_data::spirals;
    use pbp_nn::models::mlp;
    use pbp_optim::Hyperparams;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn schedule() -> LrSchedule {
        // Batch-8 reference scaled to update size one (Eq. 9).
        let hp = pbp_optim::scale_hyperparams(Hyperparams::new(0.1, 0.9), 8, 1);
        LrSchedule::constant(hp)
    }

    fn sample_vec(n: usize) -> Vec<(Tensor, usize)> {
        let data = spirals(3, n / 3 + 1, 0.05, 3);
        (0..n)
            .map(|i| {
                let (x, l) = data.sample(i % data.len());
                (x.clone(), l)
            })
            .collect()
    }

    #[test]
    fn fill_drain_threaded_matches_sequential_sgdm() {
        let mut rng = StdRng::seed_from_u64(0);
        let net_a = mlp(&[2, 12, 3], &mut rng);
        let mut rng = StdRng::seed_from_u64(0);
        let net_b = mlp(&[2, 12, 3], &mut rng);
        let samples = sample_vec(40);
        let cfg = ThreadedConfig::fill_drain(schedule());
        let (na, losses, _) = ThreadedPipeline::train(net_a, &samples, &cfg);
        let mut sgd = SgdmTrainer::new(net_b, schedule(), 1);
        let mut ref_losses = Vec::new();
        for (x, l) in &samples {
            ref_losses.push(sgd.train_batch(&with_batch_dim(x), &[*l]));
        }
        let nb = sgd.into_network();
        assert_eq!(losses, ref_losses);
        for s in 0..na.num_stages() {
            for (p, q) in na.stage(s).params().iter().zip(nb.stage(s).params()) {
                assert_eq!(p.as_slice(), q.as_slice(), "stage {s}");
            }
        }
    }

    #[test]
    fn pb_threaded_trains_and_stays_finite() {
        let mut rng = StdRng::seed_from_u64(1);
        let net = mlp(&[2, 16, 16, 3], &mut rng);
        let data = pbp_data::blobs(3, 60, 0.4, 4);
        let mut samples = Vec::new();
        for epoch in 0..10 {
            for &i in &data.epoch_order(5, epoch) {
                let (x, l) = data.sample(i);
                samples.push((x.clone(), l));
            }
        }
        let cfg = ThreadedConfig::pb(schedule()).with_mitigation(Mitigation::lwpv_scd());
        let (mut net, losses, report) = ThreadedPipeline::train(net, &samples, &cfg);
        assert_eq!(losses.len(), samples.len());
        assert!(losses.iter().all(|l| l.is_finite()));
        assert!(report.samples_per_sec > 0.0);
        // Loss should clearly drop over training.
        let head: f32 = losses[..100].iter().sum::<f32>() / 100.0;
        let tail: f32 = losses[losses.len() - 100..].iter().sum::<f32>() / 100.0;
        assert!(tail < head * 0.8, "head {head} tail {tail}");
        let (_, acc) = evaluate(&mut net, &data, 16);
        assert!(acc > 0.8, "threaded PB accuracy {acc}");
    }

    #[test]
    fn heavy_stage_counting_tracks_flop_shares() {
        // Uniform shares: every stage clears half the fair share.
        assert_eq!(heavy_stage_count(&[10, 10, 10, 10]), 4);
        // One dominant stage starves the rest below threshold.
        assert_eq!(heavy_stage_count(&[1000, 1, 1, 1]), 1);
        // Parameterless pipeline (e.g. all-activation stages): floor at 1.
        assert_eq!(heavy_stage_count(&[0, 0]), 1);
        // Mixed: total 211, fair half-share 26 → the two 100s qualify.
        assert_eq!(heavy_stage_count(&[100, 100, 10, 1]), 2);
    }

    #[test]
    fn weight_stashing_mode_runs() {
        let mut rng = StdRng::seed_from_u64(3);
        let net = mlp(&[2, 16, 3], &mut rng);
        let samples = sample_vec(60);
        let cfg = ThreadedConfig::pb(schedule()).with_weight_stashing();
        let (_, losses, _) = ThreadedPipeline::train(net, &samples, &cfg);
        assert_eq!(losses.len(), 60);
        assert!(losses.iter().all(|l| l.is_finite()));
    }

    #[test]
    fn injected_panic_poisons_stateful_engine_with_typed_fault() {
        let mut rng = StdRng::seed_from_u64(4);
        let net = mlp(&[2, 8, 8, 3], &mut rng);
        let cfg = ThreadedConfig::fill_drain(schedule())
            .with_fault_plan(FaultPlan::new(0).with(FaultSpec::panic_at(1, 3)))
            .with_watchdog(Watchdog::fast());
        let mut engine = ThreadedPipeline::new(net, cfg);
        let samples = sample_vec(20);
        let err = engine.try_stream(&samples).unwrap_err();
        assert!(
            matches!(err, PipelineFault::StagePanicked { stage: 1, .. }),
            "{err}"
        );
        // The fault is stored for the runner, exactly once.
        assert_eq!(TrainEngine::take_fault(&mut engine), Some(err));
        assert_eq!(TrainEngine::take_fault(&mut engine), None);
    }
}
