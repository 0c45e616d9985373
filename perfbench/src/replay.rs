//! Traced replay of the sequential schedule core under pipelined
//! backpropagation.
//!
//! [`Replay`] drives one [`StageCell`] per stage over a network whose
//! layers are wrapped by [`crate::timed`], issuing the same calls in the
//! same order as the program's sequential core (`ScheduledTrainer`) does
//! for `MicrobatchSchedule::PipelinedBackprop`: one update per stage per
//! microbatch, fused backward. It times every `StageCell` call and the
//! loss, while the wrappers time the `nn` work inside those calls; the
//! optimizer's share is calibrated with direct `StageOptimizer::step` /
//! `forward_weights` calls on a shadow optimizer of the same
//! configuration at the same shapes. The result is
//! a per-layer table whose rows add up to the replay's wall time, with the
//! part no timed call covers printed as the remainder.
//!
//! The replay must end bit-identical to the untraced engine fed the same
//! samples; [`weight_bits`] is that check.

use crate::report::Metrics;
use crate::stats::median;
use crate::timed::{wrap_network, NetClock};
use pbp_data::Dataset;
use pbp_nn::loss::softmax_cross_entropy;
use pbp_nn::Network;
use pbp_optim::{LrSchedule, Mitigation, StageOptimizer};
use pbp_pipeline::{MicrobatchSchedule, StageCell};
use pbp_tensor::Tensor;
use std::sync::Arc;
use std::time::Instant;

/// Per-stage figures of a replay, per microbatch unless noted.
#[derive(Debug)]
pub struct StageRow {
    pub fwd_us: f64,
    pub bwd_input_us: f64,
    pub bwd_weight_us: f64,
    /// Calibrated `StageOptimizer::step` time per call, times the share
    /// of microbatches on which the stage updated.
    pub step_us: f64,
    /// Calibrated `StageOptimizer::forward_weights` time per call (one
    /// call per microbatch).
    pub predict_us: f64,
    /// `StageCell` call time minus the `nn` and `optim` time inside it.
    pub cell_overhead_us: f64,
    /// Forward-pass FLOPs per sample (`Stage::flops_per_sample`).
    pub flops: u64,
    /// Weight-version bytes the cell copies per microbatch, computed from
    /// the stage's parameter sizes and its copy pattern.
    pub version_bytes: f64,
}

impl StageRow {
    /// Achieved GFLOP/s over forward plus both backward halves, counting
    /// each as one forward's FLOPs (the 3x rule of `pbp_trace::mfu`).
    pub fn gflops(&self) -> f64 {
        let us = self.fwd_us + self.bwd_input_us + self.bwd_weight_us;
        if us > 0.0 {
            3.0 * self.flops as f64 / us * 1e-3
        } else {
            0.0
        }
    }

    fn nn_us(&self) -> f64 {
        self.fwd_us + self.bwd_input_us + self.bwd_weight_us
    }
}

/// The per-layer table of a replay, per microbatch.
#[derive(Debug)]
pub struct ReplayReport {
    pub stages: Vec<StageRow>,
    pub wall_us: f64,
    pub loss_us: f64,
    pub unattributed_us: f64,
    pub microbatches: u64,
}

impl ReplayReport {
    /// Rows of the wall-time reconciliation: `(layer, µs per microbatch)`.
    /// They sum to `wall_us` exactly.
    pub fn reconciliation(&self) -> Vec<(&'static str, f64)> {
        let sum = |f: fn(&StageRow) -> f64| self.stages.iter().map(f).sum::<f64>();
        vec![
            (
                "nn (stage calls, incl. tensor kernels)",
                sum(StageRow::nn_us),
            ),
            ("nn (loss)", self.loss_us),
            ("optim (step + predict)", sum(|r| r.step_us + r.predict_us)),
            ("pipeline (StageCell overhead)", sum(|r| r.cell_overhead_us)),
            ("unattributed", self.unattributed_us),
        ]
    }
}

/// The traced sequential core (see the module docs).
pub struct Replay {
    net: Network,
    clock: Arc<NetClock>,
    cells: Vec<StageCell>,
    schedule: LrSchedule,
    mitigation: Mitigation,
    samples_seen: usize,
    /// Sum of window loss sums, grouped exactly like the untraced lane's.
    pub loss_sum: f64,
    cell_ns: Vec<u64>,
    updates: Vec<u64>,
    loss_ns: u64,
    wall_ns: u64,
    step_ns: Vec<Vec<f64>>,
    predict_ns: Vec<Vec<f64>>,
}

impl Replay {
    /// Builds the replay over `net` exactly as the program's sequential
    /// core builds its PB cells (no weight stashing, no delay override).
    pub fn new(net: Network, mitigation: Mitigation, schedule: LrSchedule) -> Self {
        let (net, clock) = wrap_network(net, false);
        let pipeline_stages = net.pipeline_stage_count();
        let hp = schedule.at(0);
        let cells = (0..net.num_stages())
            .map(|s| {
                StageCell::new(
                    net.stage(s),
                    s,
                    pipeline_stages,
                    &MicrobatchSchedule::PipelinedBackprop,
                    mitigation,
                    false,
                    hp,
                    None,
                )
            })
            .collect();
        let n = net.num_stages();
        Replay {
            net,
            clock,
            cells,
            schedule,
            mitigation,
            samples_seen: 0,
            loss_sum: 0.0,
            cell_ns: vec![0; n],
            updates: vec![0; n],
            loss_ns: 0,
            wall_ns: 0,
            step_ns: vec![Vec::new(); n],
            predict_ns: vec![Vec::new(); n],
        }
    }

    /// The replayed network.
    pub fn network(&self) -> &Network {
        &self.net
    }

    /// Trains `indices` of `data` in order; returns the window's wall time
    /// in seconds.
    pub fn train_range(&mut self, data: &Dataset, indices: &[usize]) -> f64 {
        let start = Instant::now();
        let mut total = 0.0f64;
        for &i in indices {
            let (x, label) = data.sample(i);
            total += self.train_microbatch(x, label) as f64;
        }
        let wall = start.elapsed();
        self.wall_ns += wall.as_nanos() as u64;
        self.loss_sum += total;
        wall.as_secs_f64()
    }

    fn timed<R>(slot: &mut u64, f: impl FnOnce() -> R) -> R {
        let t = Instant::now();
        let r = f();
        *slot += t.elapsed().as_nanos() as u64;
        r
    }

    /// One microbatch, in the sequential core's PB call order: every
    /// stage sets the sample's hyperparameters, forwards, then (last stage
    /// first) backpropagates, updates and pushes its next weight version.
    fn train_microbatch(&mut self, x: &Tensor, label: usize) -> f32 {
        let hp = self.schedule.at(self.samples_seen);
        for (cell, ns) in self.cells.iter_mut().zip(&mut self.cell_ns) {
            Self::timed(ns, || cell.set_hyperparams(hp));
        }
        let mut shape = vec![1usize];
        shape.extend_from_slice(x.shape());
        let mut stack = vec![x.reshape(&shape).expect("same volume")];
        for s in 0..self.net.num_stages() {
            let (cell, stage) = (&mut self.cells[s], self.net.stage_mut(s));
            Self::timed(&mut self.cell_ns[s], || cell.forward(stage, &mut stack));
        }
        let logits = stack.pop().expect("network reduces to one lane");
        let (loss, grad) = Self::timed(&mut self.loss_ns, || {
            softmax_cross_entropy(&logits, &[label])
        });
        let mut gstack = vec![grad];
        for s in (0..self.net.num_stages()).rev() {
            let (cell, stage) = (&mut self.cells[s], self.net.stage_mut(s));
            let ns = &mut self.cell_ns[s];
            Self::timed(ns, || cell.backward_input(stage, &mut gstack, true));
            Self::timed(ns, || cell.backward_weight(stage));
            let fired = Self::timed(ns, || cell.will_update(stage) && cell.update(stage, false));
            self.updates[s] += u64::from(fired);
            Self::timed(ns, || cell.push_next_version(stage));
        }
        self.samples_seen += 1;
        loss
    }

    /// Times `reps` direct calls of `StageOptimizer::step` and
    /// `forward_weights` per stage on a shadow optimizer configured like
    /// the stage's cell, at the stage's current parameter and gradient
    /// values. Runs outside the replay's wall time.
    pub fn calibrate_optim(&mut self, reps: usize) {
        let hp = self.schedule.at(self.samples_seen);
        for s in 0..self.net.num_stages() {
            let stage = self.net.stage(s);
            if stage.params().is_empty() {
                continue;
            }
            let config = self.mitigation.stage_config(self.cells[s].delay(), s);
            let mut params: Vec<Tensor> = stage.snapshot();
            let grads: Vec<Tensor> = stage.grads().into_iter().cloned().collect();
            let grad_refs: Vec<&Tensor> = grads.iter().collect();
            let mut opt = StageOptimizer::new(&params.iter().collect::<Vec<_>>(), config, hp);
            for _ in 0..reps {
                let t = Instant::now();
                let mut refs: Vec<&mut Tensor> = params.iter_mut().collect();
                opt.step(&mut refs, &grad_refs);
                self.step_ns[s].push(t.elapsed().as_nanos() as f64);
                let t = Instant::now();
                let predicted = opt.forward_weights(&params.iter().collect::<Vec<_>>());
                self.predict_ns[s].push(t.elapsed().as_nanos() as f64);
                std::hint::black_box(predicted);
            }
        }
    }

    /// The per-layer table over everything replayed so far.
    pub fn report(&self) -> ReplayReport {
        let mbs = self.samples_seen.max(1) as f64;
        let per_mb = |ns: u64| ns as f64 / mbs * 1e-3;
        let stages: Vec<StageRow> = (0..self.net.num_stages())
            .map(|s| {
                let stage = self.net.stage(s);
                let (f, bi, bw) = self.clock.stage_ns(s);
                let cal = |v: &[f64]| if v.is_empty() { 0.0 } else { median(v) * 1e-3 };
                let step_us = cal(&self.step_ns[s]) * self.updates[s] as f64 / mbs;
                let predict_us = cal(&self.predict_ns[s]);
                let (fwd_us, bwd_input_us, bwd_weight_us) = (per_mb(f), per_mb(bi), per_mb(bw));
                let cell_us = per_mb(self.cell_ns[s]);
                let config = self.mitigation.stage_config(self.cells[s].delay(), s);
                // StageCell::forward swaps a lagged or predicted version
                // in and out (snapshot, load, load back) and every
                // microbatch pushes one new version.
                let swaps = self.cells[s].version_lag() > 0 || config.fwd_horizon != 0.0;
                let copies = if swaps { 4.0 } else { 1.0 };
                StageRow {
                    fwd_us,
                    bwd_input_us,
                    bwd_weight_us,
                    step_us,
                    predict_us,
                    cell_overhead_us: cell_us
                        - (fwd_us + bwd_input_us + bwd_weight_us)
                        - step_us
                        - predict_us,
                    flops: stage.flops_per_sample(),
                    version_bytes: copies * 4.0 * stage.param_count() as f64,
                }
            })
            .collect();
        let timed: u64 = self.cell_ns.iter().sum::<u64>() + self.loss_ns;
        ReplayReport {
            stages,
            wall_us: per_mb(self.wall_ns),
            loss_us: per_mb(self.loss_ns),
            unattributed_us: per_mb(self.wall_ns) - per_mb(timed),
            microbatches: self.samples_seen as u64,
        }
    }
}

/// Every parameter of every stage as raw bits, in stage order: two
/// networks computed the same weights exactly when these are equal.
pub fn weight_bits(net: &Network) -> Vec<u32> {
    net.stages()
        .flat_map(|stage| stage.params())
        .flat_map(|p| p.as_slice().iter().map(|x| x.to_bits()))
        .collect()
}

/// Writes a replay's per-layer metrics, prints its wall-time
/// reconciliation, and records the measured per-stage busy shares and the
/// traced run's overhead.
pub fn record_replay(out: &mut Metrics, report: &ReplayReport, busy: &[f64], overhead: f64) {
    for (s, row) in report.stages.iter().enumerate() {
        out.set_stage("tensor.gflops", s, row.gflops(), "GFLOP/s");
        out.set_stage("nn.fwd_us", s, row.fwd_us, "us");
        out.set_stage("nn.bwd_input_us", s, row.bwd_input_us, "us");
        out.set_stage("nn.bwd_weight_us", s, row.bwd_weight_us, "us");
        out.set_stage("optim.step_us", s, row.step_us, "us");
        out.set_stage("optim.predict_us", s, row.predict_us, "us");
        out.set_stage("pipeline.cell_overhead_us", s, row.cell_overhead_us, "us");
    }
    for (s, share) in busy.iter().enumerate() {
        out.set_stage("pipeline.busy_share", s, *share, "share");
    }
    let version_bytes: f64 = report.stages.iter().map(|r| r.version_bytes).sum();
    out.set("pipeline.version_bytes_per_mb", version_bytes, "B");
    out.set("pipeline.unattributed_us", report.unattributed_us, "us");
    out.set("trace.overhead_share", overhead, "share");

    println!(
        "# per-layer time per microbatch over {} traced microbatches (us)",
        report.microbatches
    );
    let rows = report.reconciliation();
    for (layer, us) in &rows {
        println!("#   {layer:<42} {us:>10.2}");
    }
    let total: f64 = rows.iter().map(|r| r.1).sum();
    println!("#   {:<42} {total:>10.2}", "total");
    println!("#   {:<42} {:>10.2}", "replay wall time", report.wall_us);
}
