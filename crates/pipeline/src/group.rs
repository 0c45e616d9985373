//! The stage-group loop shared by every concurrent runtime.
//!
//! A [`StageGroup`] executes one contiguous range of layer stages — one
//! rank's slice of a [`MicrobatchSchedule`] — against its neighbours over
//! a [`StageLink`]. The threaded engine runs one group per stage thread
//! over in-memory channels; `pbp-dist` runs one group per process over
//! framed sockets and keeps snapshots, heartbeats and rewind around it.
//!
//! ## Bit-identity with the sequential core
//!
//! Every per-stage operation goes through the same [`StageCell`] methods
//! the single-process [`ScheduleCore`](crate::scheduled) calls, in the
//! same per-stage order: forwards in microbatch order, backward actions in
//! the plan's exact action-stream order, one `push_next_version` per
//! microbatch. Across groups the loop *interleaves* differently — a group
//! runs ahead on forwards while downstream groups still work on earlier
//! microbatches — but the cell's ordering contract makes any such
//! interleaving bit-identical: forwards read only queued weight versions
//! (popped in push order) and backward actions mutate only that stage's
//! weights. Two things need care beyond the contract:
//!
//! * **Hyperparameters** are applied at the *backward* boundary (before
//!   the backward actions of each update window's first microbatch), not
//!   at forward time. They only affect backward-phase operations —
//!   updates, SpecTrain's re-prediction, the version pushed by
//!   `push_next_version` — so this matches the sequential core exactly
//!   even when forwards have run ahead.
//! * **Run-ahead is bounded** by the smallest version lag among the
//!   group's stages: a forward may not outrun its weight-version queue.
//!   This bound is also what caps the work in flight on every link.
//!
//! ## Dataflow
//!
//! The first group feeds microbatches from a caller-supplied source;
//! activations flow downstream carrying the label, so only the last
//! group — which owns the loss stage — needs it. Gradients flow upstream
//! carrying the microbatch's loss, so every group sums the identical
//! losses in the identical f64 order.

use crate::cell::StageCell;
use crate::fault::{FaultAction, FaultInjector, FaultPlan};
use crate::metrics::MetricsRecorder;
use crate::schedule::{Action, MicrobatchSchedule};
use pbp_nn::loss::softmax_cross_entropy;
use pbp_nn::{LaneStack, Stage};
use pbp_optim::{LrSchedule, Mitigation};
use pbp_tensor::Tensor;
use pbp_trace::{Lane, TracePhase};
use std::collections::VecDeque;
use std::ops::Range;
use std::time::Instant;

/// The two directions of traffic between neighbouring stage groups. A
/// group calls the activation methods toward its downstream neighbour
/// and the gradient methods toward its upstream one; the first group
/// never receives activations and the last never receives gradients.
pub trait StageLink {
    /// Why a transfer failed; ends the group's loop.
    type Error;

    /// Sends microbatch `mb`'s activations downstream. `version` is the
    /// sending edge stage's update count, a tag for traces and wire
    /// frames only.
    fn send_activation(
        &mut self,
        mb: usize,
        label: usize,
        lanes: LaneStack,
        version: u64,
    ) -> Result<(), Self::Error>;

    /// Receives microbatch `mb`'s label and activations from upstream.
    fn recv_activation(&mut self, mb: usize) -> Result<(usize, LaneStack), Self::Error>;

    /// Sends microbatch `mb`'s loss and input gradients upstream.
    fn send_gradient(
        &mut self,
        mb: usize,
        loss: f32,
        lanes: LaneStack,
        version: u64,
    ) -> Result<(), Self::Error>;

    /// Receives microbatch `mb`'s loss and gradients from downstream.
    fn recv_gradient(&mut self, mb: usize) -> Result<(f32, LaneStack), Self::Error>;

    /// Drops every outgoing endpoint (the injected `ChannelDrop` fault):
    /// later sends vanish and the neighbours see the link close. Links
    /// that never run a [`FaultPlan`] keep the no-op default.
    fn sever(&mut self) {}
}

/// Adds the leading batch dimension of one microbatch to a sample.
pub fn with_batch_dim(x: &Tensor) -> Tensor {
    let mut shape = vec![1usize];
    shape.extend_from_slice(x.shape());
    x.reshape(&shape).expect("same volume")
}

/// What one [`StageGroup::step`] did.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Step {
    /// Forwarded the next microbatch.
    Forward,
    /// Completed the oldest in-flight microbatch's backward; carries its
    /// loss.
    Backward(f32),
}

/// One stage group's execution state: a cell per owned stage, the
/// forward/backward cursors and the loss relay.
pub struct StageGroup {
    /// Global layer-stage indices this group owns.
    range: Range<usize>,
    /// Whether the group owns the network's last layer stage (and so
    /// computes the loss).
    last: bool,
    layer_stages: usize,
    plan: MicrobatchSchedule,
    schedule: LrSchedule,
    mitigation: Mitigation,
    weight_stashing: bool,
    /// One cell per owned stage, indexed by `global_stage - range.start`.
    cells: Vec<StageCell>,
    /// The run-ahead bound (smallest version lag among the cells).
    max_inflight: usize,
    faults: Vec<FaultInjector>,
    /// Per-stage counters, indexed by *global* stage; only owned stages
    /// are populated.
    metrics: MetricsRecorder,
    lanes: Option<Vec<Lane>>,
    /// Global microbatch index of the next forward / backward.
    next_fwd: usize,
    next_bwd: usize,
    /// Loss gradients computed at forward time, waiting for their
    /// backward turn (last group only).
    pending: VecDeque<(Tensor, f32)>,
    loss_sum: f64,
}

impl StageGroup {
    /// Builds the group owning `range` of a network with `layer_stages`
    /// layer stages; `stages` are the owned stages in order.
    ///
    /// # Panics
    ///
    /// Panics if `stages` does not match `range`, or the range is empty.
    pub fn new(
        stages: &[Stage],
        range: Range<usize>,
        layer_stages: usize,
        plan: MicrobatchSchedule,
        mitigation: Mitigation,
        weight_stashing: bool,
        schedule: LrSchedule,
    ) -> Self {
        assert!(!range.is_empty(), "a stage group owns at least one stage");
        assert_eq!(stages.len(), range.len(), "one stage per owned index");
        assert!(range.end <= layer_stages, "range past the network");
        let mut group = StageGroup {
            last: range.end == layer_stages,
            layer_stages,
            faults: vec![FaultInjector::default(); range.len()],
            range,
            plan,
            schedule,
            mitigation,
            weight_stashing,
            cells: Vec::new(),
            max_inflight: 0,
            metrics: MetricsRecorder::new(layer_stages),
            lanes: None,
            next_fwd: 0,
            next_bwd: 0,
            pending: VecDeque::new(),
            loss_sum: 0.0,
        };
        group.reset(stages);
        group
    }

    /// Rebuilds the cells from `stages`' current weights and zeroes the
    /// cursors, counters and loss relay (trace lanes and fault injectors
    /// are kept) — the state of a freshly filled pipeline.
    pub fn reset(&mut self, stages: &[Stage]) {
        let layer_stages = self.layer_stages;
        let hp = self.schedule.at(0);
        self.cells = stages
            .iter()
            .zip(self.range.clone())
            .map(|(stage, s)| {
                StageCell::new(
                    stage,
                    s,
                    layer_stages + 1,
                    &self.plan,
                    self.mitigation,
                    self.weight_stashing,
                    hp,
                    None,
                )
            })
            .collect();
        self.max_inflight = self
            .cells
            .iter()
            .map(StageCell::version_lag)
            .min()
            .expect("non-empty range");
        self.metrics = MetricsRecorder::new(layer_stages);
        self.pending.clear();
        self.loss_sum = 0.0;
        self.next_fwd = 0;
        self.next_bwd = 0;
    }

    /// Arms the slice of `plan` aimed at this group's stages; each fires
    /// before the stage's backward actions for microbatch `N`.
    pub fn with_faults(mut self, plan: Option<&FaultPlan>) -> Self {
        if let Some(plan) = plan {
            self.faults = self.range.clone().map(|s| plan.injector_for(s)).collect();
        }
        self
    }

    /// Records spans into `lanes`, one per owned stage (`None` disables
    /// tracing).
    pub fn set_lanes(&mut self, lanes: Option<Vec<Lane>>) {
        if let Some(lanes) = &lanes {
            assert_eq!(lanes.len(), self.range.len(), "one lane per stage");
        }
        self.lanes = lanes;
    }

    /// Records an instant on the group's first lane (no-op untraced).
    pub fn instant(&mut self, phase: TracePhase, detail: String) {
        if let Some(lanes) = self.lanes.as_mut() {
            lanes[0].instant(phase, Some(detail));
        }
    }

    /// Flushes buffered trace records into the tracer.
    pub fn flush_lanes(&mut self) {
        for lane in self.lanes.iter_mut().flatten() {
            lane.flush();
        }
    }

    /// The owned stages' cells, in stage order.
    pub fn cells(&self) -> &[StageCell] {
        &self.cells
    }

    /// Mutable access to the cells (snapshot restore).
    pub fn cells_mut(&mut self) -> &mut [StageCell] {
        &mut self.cells
    }

    /// Per-stage counters, indexed by global stage.
    pub fn metrics(&self) -> &MetricsRecorder {
        &self.metrics
    }

    /// Replaces the counters (snapshot restore).
    pub fn set_metrics(&mut self, metrics: MetricsRecorder) {
        self.metrics = metrics;
    }

    /// Microbatches completed (forward and backward).
    pub fn samples_seen(&self) -> usize {
        self.next_bwd
    }

    /// Microbatches forwarded but not yet backwarded.
    pub fn in_flight(&self) -> usize {
        self.next_fwd - self.next_bwd
    }

    /// Sum of every completed microbatch's loss, in microbatch order.
    pub fn loss_sum(&self) -> f64 {
        self.loss_sum
    }

    /// Moves both cursors to `counter` with `loss_sum` carried so far —
    /// the drained state a snapshot restores.
    pub fn seek(&mut self, counter: usize, loss_sum: f64) {
        debug_assert!(self.pending.is_empty(), "seek needs a drained group");
        self.next_fwd = counter;
        self.next_bwd = counter;
        self.loss_sum = loss_sum;
    }

    /// Runs until `total` microbatches have completed; returns the losses
    /// of those completed by this call, in microbatch order.
    pub fn run<L: StageLink>(
        &mut self,
        stages: &mut [Stage],
        link: &mut L,
        feed: &mut dyn FnMut(usize) -> (usize, Tensor),
        total: usize,
    ) -> Result<Vec<f32>, L::Error> {
        let mut losses = Vec::with_capacity(total.saturating_sub(self.next_bwd));
        while self.next_bwd < total {
            if let Step::Backward(loss) = self.step(stages, link, feed, total, usize::MAX)? {
                losses.push(loss);
            }
        }
        self.flush_lanes();
        Ok(losses)
    }

    /// One greedy step toward `total`: forward when the next microbatch
    /// is below both `total` and `fwd_cap` and the version queues allow
    /// it, otherwise complete the oldest in-flight backward. `fwd_cap`
    /// is a caller's drain barrier (`usize::MAX` for none).
    pub fn step<L: StageLink>(
        &mut self,
        stages: &mut [Stage],
        link: &mut L,
        feed: &mut dyn FnMut(usize) -> (usize, Tensor),
        total: usize,
        fwd_cap: usize,
    ) -> Result<Step, L::Error> {
        if self.next_fwd < total.min(fwd_cap) && self.in_flight() <= self.max_inflight {
            self.forward_one(stages, link, feed)?;
            Ok(Step::Forward)
        } else {
            self.backward_one(stages, link).map(Step::Backward)
        }
    }

    fn begin(&mut self, local: usize, phase: TracePhase, mb: usize, version: u64) {
        if let Some(lanes) = self.lanes.as_mut() {
            lanes[local].begin(phase, Some(mb as u64), Some(version));
        }
    }

    fn end(&mut self, local: usize) {
        if let Some(lanes) = self.lanes.as_mut() {
            lanes[local].end();
        }
    }

    /// Forwards the next microbatch through every owned stage: fed from
    /// `feed` (label and input with its batch dimension, see
    /// [`with_batch_dim`]) on the first group, received from upstream
    /// elsewhere; the last group computes the loss and queues its
    /// gradient.
    pub fn forward_one<L: StageLink>(
        &mut self,
        stages: &mut [Stage],
        link: &mut L,
        feed: &mut dyn FnMut(usize) -> (usize, Tensor),
    ) -> Result<(), L::Error> {
        let mb = self.next_fwd;
        let (label, mut stack) = if self.range.start == 0 {
            let (label, x) = feed(mb);
            (label, vec![x])
        } else {
            link.recv_activation(mb)?
        };
        for (local, s) in self.range.clone().enumerate() {
            let t0 = Instant::now();
            self.begin(
                local,
                TracePhase::Forward,
                mb,
                self.metrics.stage_updates(s),
            );
            self.cells[local].forward(&mut stages[local], &mut stack);
            self.end(local);
            self.metrics.add_busy_ns(s, t0.elapsed().as_nanos());
        }
        if self.last {
            assert_eq!(stack.len(), 1, "network must reduce to a single lane");
            let logits = stack.pop().expect("non-empty");
            let (loss, grad) = softmax_cross_entropy(&logits, &[label]);
            let m = self.plan.microbatches_per_update();
            let grad = if m > 1 {
                grad.scale(1.0 / m as f32)
            } else {
                grad
            };
            self.pending.push_back((grad, loss));
        } else {
            let version = self.metrics.stage_updates(self.range.end - 1);
            link.send_activation(mb, label, stack, version)?;
        }
        self.next_fwd += 1;
        Ok(())
    }

    /// Completes the oldest in-flight microbatch: runs the plan's
    /// backward actions at every owned stage, last stage first, and
    /// relays gradients and loss upstream. Returns the microbatch loss.
    pub fn backward_one<L: StageLink>(
        &mut self,
        stages: &mut [Stage],
        link: &mut L,
    ) -> Result<f32, L::Error> {
        let mb = self.next_bwd;
        let m = self.plan.microbatches_per_update();
        let first_of_update = mb.is_multiple_of(m);
        if first_of_update {
            // Hyperparameters bind at the backward boundary: they only
            // affect backward-phase operations, so this matches the
            // sequential core even with forward run-ahead.
            let hp = self.schedule.at(mb);
            for cell in &mut self.cells {
                cell.set_hyperparams(hp);
            }
        }
        let (loss, mut gstack) = if self.last {
            let (grad, loss) = self
                .pending
                .pop_front()
                .expect("backward chosen only with a microbatch in flight");
            (loss, vec![grad])
        } else {
            link.recv_gradient(mb)?
        };
        self.loss_sum += loss as f64;
        let actions = self.plan.stage_actions(mb);
        let split = self.plan.splits_backward();
        for (local, s) in self.range.clone().enumerate().rev() {
            self.inject_fault(local, s, mb, link);
            let stage = &mut stages[local];
            let t0 = Instant::now();
            let mut updated = false;
            for action in &actions {
                match *action {
                    Action::Forward(_) => {}
                    Action::BackwardInput(i) => {
                        self.begin(
                            local,
                            TracePhase::BackwardInput,
                            i,
                            self.metrics.stage_updates(s),
                        );
                        self.cells[local].backward_input(stage, &mut gstack, first_of_update);
                        self.end(local);
                    }
                    Action::BackwardWeight(j) => {
                        self.begin(
                            local,
                            TracePhase::BackwardWeight,
                            j,
                            self.metrics.stage_updates(s),
                        );
                        self.cells[local].backward_weight(stage);
                        self.end(local);
                    }
                    Action::Update => {
                        if self.cells[local].will_update(stage) {
                            self.begin(
                                local,
                                TracePhase::Update,
                                mb,
                                self.metrics.stage_updates(s) + 1,
                            );
                            self.cells[local].update(stage, split);
                            self.end(local);
                            updated = true;
                        }
                    }
                }
            }
            self.cells[local].push_next_version(stage);
            if updated {
                self.metrics
                    .record_update(s, self.cells[local].delay(), t0.elapsed().as_nanos());
            } else {
                self.metrics.add_busy_ns(s, t0.elapsed().as_nanos());
            }
        }
        if self.range.start > 0 {
            let version = self.metrics.stage_updates(self.range.start);
            link.send_gradient(mb, loss, gstack, version)?;
        }
        self.next_bwd += 1;
        Ok(loss)
    }

    /// The fault-injection point: scripted faults strike stage `s` right
    /// before its backward actions for microbatch `mb` (its update `mb`
    /// under update size one), where a real stage would die mid-update.
    fn inject_fault<L: StageLink>(&mut self, local: usize, s: usize, mb: usize, link: &mut L) {
        match self.faults[local].on_update(mb) {
            FaultAction::None => {}
            FaultAction::Panic => panic!("injected fault: stage {s} panics at update {mb}"),
            FaultAction::Stall(d) => {
                if let Some(lanes) = self.lanes.as_mut() {
                    lanes[local].begin(TracePhase::Stall, None, None);
                }
                std::thread::sleep(d);
                self.end(local);
            }
            FaultAction::Sever => link.sever(),
        }
    }
}
