//! The shared schedule-execution core and the generic scheduled engine.
//!
//! [`ScheduleCore`] is the single sequential emulation machine behind the
//! deterministic pipeline engines: it executes the per-stage action stream
//! of a [`MicrobatchSchedule`] — `Forward`, `BackwardInput`,
//! `BackwardWeight`, `Update` — while holding, per stage, a FIFO of
//! weight versions whose length is the schedule's forward version lag.
//! [`PipelinedTrainer`](crate::PipelinedTrainer) (pure PB) and
//! [`FillDrainTrainer`](crate::FillDrainTrainer) are thin wrappers over
//! this core with fixed plans; [`ScheduledTrainer`] exposes the remaining
//! schedules — 1F1B gradient accumulation and 2BP backward splitting —
//! through the same machinery.
//!
//! ## Emulation model
//!
//! As in the PB emulator (and the paper's own GPU emulation, Appendix
//! G.2), a sequential per-microbatch sweep reproduces the pipeline's
//! weight dynamics exactly: the forward pass of microbatch `i` at stage
//! `s` loads the version enqueued `L_s` microbatches ago (`L_s` the
//! schedule's version lag), the backward pass uses the current weights
//! (or the stashed/re-predicted version under weight stashing /
//! SpecTrain), updates fire at the schedule's cadence, and a fresh
//! version — predicted, when LWP is configured — is enqueued after every
//! microbatch. Schedules that split backward defer each microbatch's
//! weight-gradient half as pending work inside the layers
//! ([`Layer::backward_input`](pbp_nn::Layer::backward_input)) and retire
//! it at the update boundary, delivering the summed gradients to the
//! optimizer through its deferred-gradient interface.

use crate::cell::StageCell;
use crate::engine::{batch_rows, run_training, RunConfig, TrainEngine};
use crate::group::with_batch_dim;
use crate::metrics::{EngineMetrics, MetricsRecorder, NoHooks};
use crate::schedule::{fill_drain_utilization, pb_utilization, Action, MicrobatchSchedule};
use crate::trainer::TrainReport;
use pbp_data::Dataset;
use pbp_nn::loss::softmax_cross_entropy;
use pbp_nn::Network;
use pbp_optim::{LrSchedule, Mitigation};
use pbp_tensor::Tensor;
use std::time::Instant;

/// The sequential schedule-execution machine shared by the deterministic
/// pipeline engines. Fields are crate-visible so the wrapping engines can
/// serialize their state in their own snapshot layouts. All per-stage
/// semantics live in [`StageCell`], shared with the distributed runner.
pub(crate) struct ScheduleCore {
    pub(crate) net: Network,
    pub(crate) plan: MicrobatchSchedule,
    /// One cell per layer stage: optimizer, forward version FIFO, stash.
    pub(crate) cells: Vec<StageCell>,
    pub(crate) schedule: LrSchedule,
    pub(crate) samples_seen: usize,
    pub(crate) metrics: MetricsRecorder,
    /// Per-stage trace lanes (`None` while tracing is disabled, so every
    /// instrumentation point in the hot loop costs one branch).
    pub(crate) lanes: Option<Vec<pbp_trace::Lane>>,
}

impl ScheduleCore {
    /// Builds the core for a network under `plan`, deriving each stage's
    /// version lag and optimizer delay from the schedule (or from
    /// `delay_override`, which forces both — the PB emulator's
    /// testing/ablation knob).
    pub(crate) fn new(
        net: Network,
        plan: MicrobatchSchedule,
        mitigation: Mitigation,
        weight_stashing: bool,
        schedule: LrSchedule,
        delay_override: Option<usize>,
    ) -> Self {
        let pipeline_stages = net.pipeline_stage_count();
        let layer_stages = net.num_stages();
        let hp = schedule.at(0);
        let cells = (0..layer_stages)
            .map(|s| {
                StageCell::new(
                    net.stage(s),
                    s,
                    pipeline_stages,
                    &plan,
                    mitigation,
                    weight_stashing,
                    hp,
                    delay_override,
                )
            })
            .collect();
        let metrics = MetricsRecorder::new(layer_stages);
        ScheduleCore {
            net,
            plan,
            cells,
            schedule,
            samples_seen: 0,
            metrics,
            lanes: None,
        }
    }

    /// Installs a tracer: every stage records spans for the actions it
    /// executes into a `stage-{s}` wall-clock lane, tagged with the
    /// microbatch index and the stage's weight version (updates applied).
    pub(crate) fn set_tracer(&mut self, tracer: pbp_trace::Tracer) {
        if tracer.enabled() {
            self.lanes = Some(
                (0..self.net.num_stages())
                    .map(|s| tracer.lane(pbp_trace::PID_WALL, format!("stage-{s}"), s as i64))
                    .collect(),
            );
        } else {
            self.lanes = None;
        }
    }

    /// Flushes any buffered trace records into the tracer (called at the
    /// end of every training slice; lanes also flush on drop).
    pub(crate) fn flush_trace(&mut self) {
        if let Some(lanes) = self.lanes.as_mut() {
            for lane in lanes {
                lane.flush();
            }
        }
    }

    /// Trains on one microbatch (`x` without batch dimension), executing
    /// the plan's action stream for the current microbatch index at every
    /// stage; returns the loss from the pipeline's loss stage.
    pub(crate) fn train_microbatch(&mut self, x: &Tensor, label: usize) -> f32 {
        let start = Instant::now();
        let m = self.plan.microbatches_per_update();
        let first_of_update = self.samples_seen.is_multiple_of(m);
        if first_of_update {
            // Hyperparameters are fixed per update at its first
            // microbatch's schedule position (for M = 1 this is the
            // emulator's per-sample cadence; for fill&drain it is the
            // first sample of the batch, as before the refactor).
            let hp = self.schedule.at(self.samples_seen);
            for cell in &mut self.cells {
                cell.set_hyperparams(hp);
            }
        }
        let actions = self.plan.stage_actions(self.samples_seen);
        debug_assert_eq!(
            actions
                .iter()
                .filter(|a| matches!(a, Action::Forward(_)))
                .count(),
            1,
            "schedule must emit exactly one forward per microbatch"
        );
        // ---- Forward sweep: each stage under its scheduled version.
        let mut stack = vec![with_batch_dim(x)];
        for s in 0..self.net.num_stages() {
            let stage_start = Instant::now();
            if let Some(lanes) = self.lanes.as_mut() {
                lanes[s].begin(
                    pbp_trace::TracePhase::Forward,
                    Some(self.samples_seen as u64),
                    Some(self.metrics.stage_updates(s)),
                );
            }
            self.cells[s].forward(self.net.stage_mut(s), &mut stack);
            if let Some(lanes) = self.lanes.as_mut() {
                lanes[s].end();
            }
            self.metrics
                .add_busy_ns(s, stage_start.elapsed().as_nanos());
        }
        assert_eq!(stack.len(), 1, "network must reduce to a single lane");
        let logits = stack.pop().expect("non-empty");

        // ---- Loss stage: mean-scaled over the accumulation window.
        let (loss, grad) = softmax_cross_entropy(&logits, &[label]);
        let grad = if m > 1 {
            grad.scale(1.0 / m as f32)
        } else {
            grad
        };

        // ---- Backward sweep: execute the stream's remaining actions at
        // each stage, last stage first.
        let mut gstack = vec![grad];
        for s in (0..self.net.num_stages()).rev() {
            let stage_start = Instant::now();
            let mut updated = false;
            for action in &actions {
                match *action {
                    Action::Forward(_) => {}
                    Action::BackwardInput(i) => {
                        if let Some(lanes) = self.lanes.as_mut() {
                            lanes[s].begin(
                                pbp_trace::TracePhase::BackwardInput,
                                Some(i as u64),
                                Some(self.metrics.stage_updates(s)),
                            );
                        }
                        self.cells[s].backward_input(
                            self.net.stage_mut(s),
                            &mut gstack,
                            first_of_update,
                        );
                        if let Some(lanes) = self.lanes.as_mut() {
                            lanes[s].end();
                        }
                    }
                    Action::BackwardWeight(j) => {
                        if let Some(lanes) = self.lanes.as_mut() {
                            lanes[s].begin(
                                pbp_trace::TracePhase::BackwardWeight,
                                Some(j as u64),
                                Some(self.metrics.stage_updates(s)),
                            );
                        }
                        self.cells[s].backward_weight(self.net.stage_mut(s));
                        if let Some(lanes) = self.lanes.as_mut() {
                            lanes[s].end();
                        }
                    }
                    Action::Update => {
                        let will = self.cells[s].will_update(self.net.stage(s));
                        if will {
                            if let Some(lanes) = self.lanes.as_mut() {
                                lanes[s].begin(
                                    pbp_trace::TracePhase::Update,
                                    Some(self.samples_seen as u64),
                                    Some(self.metrics.stage_updates(s) + 1),
                                );
                            }
                            self.cells[s]
                                .update(self.net.stage_mut(s), self.plan.splits_backward());
                            if let Some(lanes) = self.lanes.as_mut() {
                                lanes[s].end();
                            }
                            updated = true;
                        }
                    }
                }
            }
            // Enqueue the forward weight version a future microbatch will
            // see (post-update when one fired, predicted when configured).
            self.cells[s].push_next_version(self.net.stage(s));
            if updated {
                self.metrics.record_update(
                    s,
                    self.cells[s].delay(),
                    stage_start.elapsed().as_nanos(),
                );
            } else {
                self.metrics
                    .add_busy_ns(s, stage_start.elapsed().as_nanos());
            }
        }
        self.samples_seen += 1;
        self.metrics.add_train_ns(start.elapsed().as_nanos());
        loss
    }

    /// Trains a contiguous slice of an epoch order; returns the loss sum
    /// and the number of samples covered. All pipeline state (weight
    /// version queues, stashes, partially accumulated updates) carries
    /// across slices.
    pub(crate) fn train_range(&mut self, data: &Dataset, indices: &[usize]) -> (f64, usize) {
        let mut total = 0.0f64;
        for &i in indices {
            let (x, label) = data.sample(i);
            let x = x.clone();
            total += self.train_microbatch(&x, label) as f64;
        }
        self.flush_trace();
        (total, indices.len())
    }

    /// Trains one epoch in the deterministic order for `(seed, epoch)`;
    /// returns the mean loss.
    pub(crate) fn train_epoch(&mut self, data: &Dataset, seed: u64, epoch: usize) -> f64 {
        let order = data.epoch_order(seed, epoch);
        let (total, samples) = self.train_range(data, &order);
        if samples == 0 {
            0.0
        } else {
            total / samples as f64
        }
    }

    /// Serializes the core's evolving state (everything except the network,
    /// which travels in its own snapshot section).
    pub(crate) fn write_core_state(&self, w: &mut pbp_snapshot::StateWriter) {
        use pbp_snapshot::Snapshottable;
        w.put_usize(self.samples_seen);
        w.put_u32(self.cells.len() as u32);
        for cell in &self.cells {
            cell.write_state(w);
        }
        self.metrics.write_state(w);
    }

    /// Restores state written by [`ScheduleCore::write_core_state`],
    /// enforcing the per-stage queue-length invariant.
    pub(crate) fn read_core_state(
        &mut self,
        r: &mut pbp_snapshot::StateReader<'_>,
        tag: &str,
    ) -> Result<(), pbp_snapshot::SnapshotError> {
        use pbp_snapshot::Snapshottable;
        self.samples_seen = r.take_usize()?;
        let n = r.take_u32()? as usize;
        if n != self.cells.len() {
            return Err(pbp_snapshot::SnapshotError::Mismatch(format!(
                "{tag} state for {n} stages, engine has {}",
                self.cells.len()
            )));
        }
        for (s, cell) in self.cells.iter_mut().enumerate() {
            cell.read_state(r, tag, s)?;
        }
        self.metrics.read_state(r)
    }
}

/// Configuration of a [`ScheduledTrainer`] run: the schedule plus the PB
/// emulator's mitigation and stashing knobs.
#[derive(Debug, Clone)]
pub struct ScheduledConfig {
    /// The microbatch schedule to execute.
    pub plan: MicrobatchSchedule,
    /// Delay-mitigation method (Section 3), configured with each stage's
    /// update-staleness under the plan.
    pub mitigation: Mitigation,
    /// Weight stashing: backward uses the exact weights of the forward
    /// pass.
    pub weight_stashing: bool,
    /// Learning-rate/momentum schedule, in units of samples seen. Should
    /// already be scaled for the plan's update size (Eq. 9).
    pub schedule: LrSchedule,
}

impl ScheduledConfig {
    /// Plain execution of `plan` (no mitigation, no stashing).
    pub fn new(plan: MicrobatchSchedule, schedule: LrSchedule) -> Self {
        ScheduledConfig {
            plan,
            mitigation: Mitigation::None,
            weight_stashing: false,
            schedule,
        }
    }

    /// 1F1B with `microbatches_per_update` gradient accumulation.
    pub fn one_f_one_b(microbatches_per_update: usize, schedule: LrSchedule) -> Self {
        ScheduledConfig::new(
            MicrobatchSchedule::OneFOneB {
                microbatches_per_update,
            },
            schedule,
        )
    }

    /// 2BP: 1F1B dataflow with the backward pass split in two and the
    /// weight-gradient halves deferred to the update boundary.
    pub fn two_bp(microbatches_per_update: usize, schedule: LrSchedule) -> Self {
        ScheduledConfig::new(
            MicrobatchSchedule::TwoBP {
                microbatches_per_update,
            },
            schedule,
        )
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

    /// The label the built engine reports: the plan's name, the mitigation
    /// suffix (if any) and the stashing marker.
    pub fn label(&self) -> String {
        let mut label = self.plan.label();
        let mit = self.mitigation.label();
        match mit.strip_prefix("PB") {
            Some(suffix) => label.push_str(suffix),
            None => {
                label.push('+');
                label.push_str(&mit);
            }
        }
        if self.weight_stashing {
            label.push_str("+WS");
        }
        label
    }
}

/// The generic scheduled engine: executes any [`MicrobatchSchedule`]
/// through the shared [`ScheduleCore`]. This is the entry point for the
/// 1F1B and 2BP schedules; the PB and fill&drain plans are also accepted
/// (and are bit-identical to [`PipelinedTrainer`](crate::PipelinedTrainer)
/// / [`FillDrainTrainer`](crate::FillDrainTrainer), which wrap the same
/// core).
pub struct ScheduledTrainer {
    core: ScheduleCore,
    config: ScheduledConfig,
}

impl std::fmt::Debug for ScheduledTrainer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "ScheduledTrainer({}, {} stages, stashing={}, samples_seen={})",
            self.config.plan.label(),
            self.core.net.pipeline_stage_count(),
            self.config.weight_stashing,
            self.core.samples_seen
        )
    }
}

impl ScheduledTrainer {
    /// Creates the engine for a network under the configured schedule.
    pub fn new(net: Network, config: ScheduledConfig) -> Self {
        let core = ScheduleCore::new(
            net,
            config.plan,
            config.mitigation,
            config.weight_stashing,
            config.schedule.clone(),
            None,
        );
        ScheduledTrainer { core, config }
    }

    /// The per-stage gradient delays (in updates) in effect.
    pub fn delays(&self) -> Vec<usize> {
        self.core.cells.iter().map(|c| c.delay()).collect()
    }

    /// Borrows the network (for evaluation etc.).
    pub fn network_mut(&mut self) -> &mut Network {
        &mut self.core.net
    }

    /// Consumes the trainer, returning the network.
    pub fn into_network(self) -> Network {
        self.core.net
    }

    /// Number of microbatches trained on so far.
    pub fn samples_seen(&self) -> usize {
        self.core.samples_seen
    }

    /// Trains on one microbatch; returns its loss.
    pub fn train_sample(&mut self, x: &Tensor, label: usize) -> f32 {
        self.core.train_microbatch(x, label)
    }

    /// Trains one epoch; returns the mean loss.
    pub fn train_epoch(&mut self, data: &Dataset, seed: u64, epoch: usize) -> f64 {
        self.core.train_epoch(data, seed, epoch)
    }

    /// Full training run with validation after each epoch.
    pub fn run(&mut self, train: &Dataset, val: &Dataset, epochs: usize, seed: u64) -> TrainReport {
        run_training(
            self,
            train,
            val,
            &RunConfig::new(epochs, seed),
            &mut NoHooks,
        )
    }
}

impl TrainEngine for ScheduledTrainer {
    fn label(&self) -> String {
        self.config.label()
    }

    fn train_batch(&mut self, x: &Tensor, labels: &[usize]) -> f32 {
        let rows = batch_rows(x, labels.len());
        let total: f32 = rows
            .iter()
            .zip(labels)
            .map(|(row, &label)| self.core.train_microbatch(row, label))
            .sum();
        total / labels.len() as f32
    }

    fn train_epoch(&mut self, data: &Dataset, seed: u64, epoch: usize) -> f64 {
        self.core.train_epoch(data, seed, epoch)
    }

    fn train_range(&mut self, data: &Dataset, indices: &[usize]) -> (f64, usize) {
        self.core.train_range(data, indices)
    }

    fn samples_per_update(&self) -> usize {
        self.config.plan.microbatches_per_update()
    }

    fn align_stop(&self, pos: usize, proposed: usize, epoch_len: usize) -> usize {
        // Stop only where the in-flight update completes: mid-window the
        // layers hold accumulated (and, under 2BP, deferred) gradients
        // that snapshots deliberately do not serialize.
        let m = self.config.plan.microbatches_per_update();
        let pending = self.core.samples_seen % m;
        let rem = (pending + (proposed - pos)) % m;
        let aligned = if rem == 0 {
            proposed
        } else {
            proposed + m - rem
        };
        aligned.min(epoch_len)
    }

    fn snapshot_ready(&self) -> bool {
        self.core
            .samples_seen
            .is_multiple_of(self.config.plan.microbatches_per_update())
    }

    fn set_tracer(&mut self, tracer: pbp_trace::Tracer) {
        self.core.set_tracer(tracer);
    }

    fn write_state(&self, snap: &mut pbp_snapshot::SnapshotBuilder) {
        pbp_nn::snapshot::write_network(&self.core.net, snap);
        crate::state::write_engine_section(snap, "sched", |w| {
            self.core.write_core_state(w);
        });
    }

    fn read_state(
        &mut self,
        archive: &pbp_snapshot::SnapshotArchive,
    ) -> Result<(), pbp_snapshot::SnapshotError> {
        pbp_nn::snapshot::read_network(&mut self.core.net, archive)?;
        let mut r = crate::state::engine_reader(archive, "sched")?;
        self.core.read_core_state(&mut r, "sched")?;
        r.finish()
    }

    fn network_mut(&mut self) -> &mut Network {
        ScheduledTrainer::network_mut(self)
    }

    fn samples_seen(&self) -> usize {
        self.core.samples_seen
    }

    fn metrics(&self) -> EngineMetrics {
        let s = self.core.net.pipeline_stage_count();
        let occupancy = (self.core.samples_seen > 0).then(|| match self.config.plan {
            MicrobatchSchedule::FillDrain { update_size } => fill_drain_utilization(update_size, s),
            // The 1F1B/2BP/PB dataflows keep every stage busy after the
            // fill, exactly as the Figure 2 schedule model predicts.
            _ => pb_utilization(self.core.samples_seen + 2 * s - 2, s),
        });
        self.core
            .metrics
            .snapshot(TrainEngine::label(self), self.core.samples_seen, occupancy)
    }

    fn into_network(self: Box<Self>) -> Network {
        ScheduledTrainer::into_network(*self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pbp_data::spirals;
    use pbp_nn::models::mlp;
    use pbp_optim::Hyperparams;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn schedule() -> LrSchedule {
        LrSchedule::constant(pbp_optim::scale_hyperparams(
            Hyperparams::new(0.1, 0.9),
            8,
            1,
        ))
    }

    #[test]
    fn one_f_one_b_delays_contract_with_accumulation() {
        let mut rng = StdRng::seed_from_u64(0);
        let net = mlp(&[2, 8, 8, 3], &mut rng); // D_s = 6, 4, 2
        let t = ScheduledTrainer::new(net, ScheduledConfig::one_f_one_b(4, schedule()));
        assert_eq!(t.delays(), vec![2, 1, 1]);
        let mut rng = StdRng::seed_from_u64(0);
        let net = mlp(&[2, 8, 8, 3], &mut rng);
        let t = ScheduledTrainer::new(net, ScheduledConfig::one_f_one_b(1, schedule()));
        assert_eq!(t.delays(), vec![6, 4, 2]);
    }

    #[test]
    fn two_bp_matches_one_f_one_b_bitwise() {
        // The only difference between the plans is *when* the
        // weight-gradient halves run; the weights they produce must be
        // bit-identical.
        let mut rng = StdRng::seed_from_u64(1);
        let net_a = mlp(&[2, 12, 8, 3], &mut rng);
        let mut rng = StdRng::seed_from_u64(1);
        let net_b = mlp(&[2, 12, 8, 3], &mut rng);
        let data = spirals(3, 24, 0.05, 2);
        let mut fused = ScheduledTrainer::new(net_a, ScheduledConfig::one_f_one_b(4, schedule()));
        let mut split = ScheduledTrainer::new(net_b, ScheduledConfig::two_bp(4, schedule()));
        for epoch in 0..2 {
            fused.train_epoch(&data, 7, epoch);
            split.train_epoch(&data, 7, epoch);
        }
        let na = fused.into_network();
        let nb = split.into_network();
        for s in 0..na.num_stages() {
            for (p, q) in na.stage(s).params().iter().zip(nb.stage(s).params()) {
                for (a, b) in p.as_slice().iter().zip(q.as_slice()) {
                    assert_eq!(a.to_bits(), b.to_bits(), "stage {s} diverged");
                }
            }
        }
    }

    #[test]
    fn scheduled_engines_train_blobs() {
        for config in [
            ScheduledConfig::one_f_one_b(4, schedule()),
            ScheduledConfig::two_bp(4, schedule()),
        ] {
            let mut rng = StdRng::seed_from_u64(3);
            let net = mlp(&[2, 16, 16, 3], &mut rng);
            let data = pbp_data::blobs(3, 40, 0.4, 4);
            let (train, val) = data.split(0.2);
            let label = config.label();
            let mut t = ScheduledTrainer::new(net, config);
            let report = t.run(&train, &val, 10, 5);
            assert!(
                report.final_val_acc() > 0.8,
                "{label} accuracy {}",
                report.final_val_acc()
            );
        }
    }

    #[test]
    fn delay_histograms_match_the_contracted_staleness() {
        // 1F1B(M)'s measured histogram must put every update at the
        // bounded staleness ⌈D_s/M⌉ predicted by the schedule.
        let mut rng = StdRng::seed_from_u64(6);
        let net = mlp(&[2, 8, 8, 3], &mut rng); // S = 4, D_s = 6, 4, 2
        let data = spirals(3, 16, 0.05, 7);
        let mut t = ScheduledTrainer::new(net, ScheduledConfig::two_bp(4, schedule()));
        t.train_epoch(&data, 8, 0);
        let metrics = TrainEngine::metrics(&t);
        let expected = [2usize, 1, 1];
        for (s, stage) in metrics.stages.iter().enumerate() {
            let keys: Vec<usize> = stage.delay_hist.keys().copied().collect();
            assert_eq!(keys, vec![expected[s]], "stage {s} histogram {keys:?}");
            assert_eq!(stage.updates, (16 * 3 / 4) as u64, "stage {s} updates");
        }
    }

    #[test]
    fn align_stop_rounds_to_update_boundaries() {
        let mut rng = StdRng::seed_from_u64(9);
        let net = mlp(&[2, 6, 3], &mut rng);
        let t = ScheduledTrainer::new(net, ScheduledConfig::one_f_one_b(4, schedule()));
        assert_eq!(t.align_stop(0, 3, 100), 4);
        assert_eq!(t.align_stop(0, 4, 100), 4);
        assert_eq!(t.align_stop(0, 99, 100), 100);
        assert!(t.snapshot_ready());
    }

    #[test]
    fn labels_compose_plan_and_mitigation() {
        assert_eq!(
            ScheduledConfig::one_f_one_b(4, schedule()).label(),
            "1F1B (M=4)"
        );
        assert_eq!(
            ScheduledConfig::two_bp(8, schedule())
                .with_mitigation(pbp_optim::Mitigation::scd())
                .with_weight_stashing()
                .label(),
            "2BP (M=8)+SCD+WS"
        );
    }
}
