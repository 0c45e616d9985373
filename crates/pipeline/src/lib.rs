//! # pbp-pipeline
//!
//! Pipelined Backpropagation engines — the system contribution of
//! *"Pipelined Backpropagation at Scale"* (Kosson et al., MLSYS 2021),
//! built from scratch:
//!
//! * [`PipelinedTrainer`] — a deterministic, cycle-accurate emulator of
//!   fine-grained pipelined backpropagation at update size one. Each
//!   network stage sees forward weights delayed by `D_s = 2(S−1−s)` updates
//!   (Eq. 5), with optional weight stashing (Harlap et al., 2018) and the
//!   paper's mitigations (Spike Compensation, Linear Weight Prediction,
//!   their combination, SpecTrain) applied per stage. This mirrors the
//!   delayed-gradient emulation the paper itself used (Appendix G.2) and
//!   reproduces PB's optimization dynamics exactly.
//! * [`FillDrainTrainer`] — pipeline-parallel mini-batch SGDM that fills
//!   and drains the pipeline for every update; mathematically identical to
//!   sequential SGDM (validated bit-for-bit in tests) but paying the
//!   utilization bound `N/(N+2S)` of Eq. 1.
//! * [`DelayedTrainer`] — the Appendix G.2 simulator: a uniform,
//!   configurable gradient delay across all layers at arbitrary batch
//!   size, with consistent or inconsistent weights (Figure 10) and
//!   mitigation support (Figures 13, 14).
//! * [`ThreadedPipeline`] — a real multi-threaded pipeline runtime (one OS
//!   thread per stage, each running the shared [`StageGroup`] loop over
//!   channels) demonstrating that PB keeps all workers busy while
//!   fill-and-drain idles them, bit-identical to the sequential core.
//! * [`schedule`] — the analytic utilization model behind Figure 2.
//!
//! All six engines implement the [`TrainEngine`] trait and share one
//! observable training loop, [`run_training`], which owns epoch ordering,
//! evaluation cadence and record collection. Engines report per-stage
//! [`EngineMetrics`] (updates applied, busy time, effective-delay
//! histograms, pipeline occupancy); [`TrainHooks`] observe runs and
//! [`JsonSink`] persists their metrics as JSON. [`EngineSpec`] is a
//! declarative builder used by the benchmark suite to construct engines
//! uniformly.

pub mod asgd;
pub mod cell;
pub mod delayed;
pub mod emulator;
pub mod engine;
pub mod fault;
pub mod filldrain;
pub mod group;
pub mod memory;
pub mod metrics;
pub mod resume;
pub mod schedule;
pub mod scheduled;
pub mod state;
pub mod supervisor;
pub mod threaded;
pub mod timeline;
pub mod trainer;

pub use asgd::{AsgdTrainer, DelayDistribution};
pub use cell::StageCell;
pub use delayed::{DelayedConfig, DelayedTrainer};
pub use emulator::{PbConfig, PipelinedTrainer};
pub use engine::{run_training, EngineSpec, RunConfig, TrainEngine};
pub use fault::{splitmix64, FaultKind, FaultPlan, FaultSpec, PipelineFault, RunError};
pub use filldrain::FillDrainTrainer;
pub use group::{with_batch_dim, StageGroup, StageLink, Step};
pub use memory::MemoryModel;
pub use metrics::{
    EngineMetrics, JsonSink, MetricsRecorder, MetricsSink, NoHooks, StageCounters, TraceHooks,
    TrainHooks,
};
pub use resume::{
    latest_snapshot, resume_training, run_to_crash, run_training_with_snapshots, SnapshotPolicy,
    SECTION_RUN,
};
pub use schedule::{
    fill_drain_utilization, pb_utilization, stage_delay, Action, MicrobatchSchedule, ScheduleModel,
    StageActivity,
};
pub use scheduled::{ScheduledConfig, ScheduledTrainer};
pub use state::SECTION_ENGINE;
pub use supervisor::{
    run_supervised, RecoveryPolicy, SupervisedOutcome, SupervisionEvent, Watchdog,
};
pub use threaded::{ThreadedConfig, ThreadedPipeline, ThroughputReport};
pub use timeline::{emit_schedule_timeline, schedule_bubble_fraction};
pub use trainer::{evaluate, EpochRecord, SgdmTrainer, TrainReport};
