//! Deterministic fault injection and the typed fault vocabulary of the
//! supervised threaded runtime.
//!
//! A [`FaultPlan`] is a seedable script of stage-level misbehaviour —
//! panic at update `N`, stall for `D` milliseconds, sever all channel
//! endpoints, or persistent per-update jitter — threaded through
//! [`ThreadedConfig`](crate::ThreadedConfig) (and therefore
//! [`EngineSpec`](crate::EngineSpec)) so chaos scenarios are reproducible
//! in tests. Faults are **one-shot by default**: the fired flag is shared
//! across clones of the plan, so when a supervisor rebuilds the engine
//! after a fault the same injection does not re-fire — modelling a
//! transient hardware fault. Mark a spec [`FaultSpec::recurring`] to model
//! a hard fault that survives restarts and so ends a supervised run in its
//! typed error once the restarts run out.
//!
//! [`PipelineFault`] is what the supervised runtime returns instead of
//! hanging or propagating a worker panic; [`RunError`] is the combined
//! error type of the snapshot-driven runners, which can fail either on
//! snapshot I/O or on a pipeline fault.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// What a fault does to its stage when it triggers.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FaultKind {
    /// The stage thread panics mid-update.
    Panic,
    /// The stage thread sleeps for this long before applying the update.
    Stall(Duration),
    /// The stage silently drops all of its outgoing channel endpoints,
    /// stranding in-flight samples on its neighbours.
    ChannelDrop,
    /// Persistent slow-stage jitter: every update at or after the trigger
    /// sleeps a deterministic pseudo-random duration in `[0, max]`.
    Jitter {
        /// Upper bound of the per-update sleep.
        max: Duration,
    },
}

/// One scripted fault: a [`FaultKind`] armed at a specific stage and
/// update index.
#[derive(Debug, Clone)]
pub struct FaultSpec {
    /// Layer-stage index the fault targets.
    pub stage: usize,
    /// Update index at which the fault triggers: it strikes right before
    /// the stage's backward actions for this microbatch (its update of
    /// that index under update size one).
    pub at_update: usize,
    /// What happens when it triggers.
    pub kind: FaultKind,
    /// `true`: re-fires on every attempt (hard fault). `false` (default):
    /// fires once across all clones of the plan (transient fault).
    pub recurring: bool,
    fired: Arc<AtomicBool>,
}

impl FaultSpec {
    fn new(stage: usize, at_update: usize, kind: FaultKind) -> Self {
        FaultSpec {
            stage,
            at_update,
            kind,
            recurring: false,
            fired: Arc::new(AtomicBool::new(false)),
        }
    }

    /// A panic at `stage` when its update counter reaches `at_update`.
    pub fn panic_at(stage: usize, at_update: usize) -> Self {
        FaultSpec::new(stage, at_update, FaultKind::Panic)
    }

    /// A stall of `for_dur` at `stage` when its update counter reaches
    /// `at_update`.
    pub fn stall_at(stage: usize, at_update: usize, for_dur: Duration) -> Self {
        FaultSpec::new(stage, at_update, FaultKind::Stall(for_dur))
    }

    /// Severs all of `stage`'s outgoing channels at `at_update`.
    pub fn drop_channels_at(stage: usize, at_update: usize) -> Self {
        FaultSpec::new(stage, at_update, FaultKind::ChannelDrop)
    }

    /// Persistent jitter of up to `max` per update, starting at
    /// `from_update`.
    pub fn jitter_from(stage: usize, from_update: usize, max: Duration) -> Self {
        FaultSpec::new(stage, from_update, FaultKind::Jitter { max })
    }

    /// Makes the fault re-fire on every restart (hard-fault model).
    pub fn recurring(mut self) -> Self {
        self.recurring = true;
        self
    }

    /// Whether this spec triggers at `update`, consuming the one-shot
    /// charge if it does. Jitter triggers on every update at or past its
    /// start and never consumes a charge.
    fn triggers(&self, update: usize) -> bool {
        match self.kind {
            FaultKind::Jitter { .. } => update >= self.at_update,
            _ => {
                update == self.at_update
                    && (self.recurring || !self.fired.swap(true, Ordering::Relaxed))
            }
        }
    }
}

/// A seeded, reproducible script of stage faults.
#[derive(Debug, Clone, Default)]
pub struct FaultPlan {
    specs: Vec<FaultSpec>,
    seed: u64,
}

impl FaultPlan {
    /// An empty plan; the seed feeds the jitter PRNG.
    pub fn new(seed: u64) -> Self {
        FaultPlan {
            specs: Vec::new(),
            seed,
        }
    }

    /// Adds a fault to the script.
    pub fn with(mut self, spec: FaultSpec) -> Self {
        self.specs.push(spec);
        self
    }

    /// The scripted faults.
    pub fn specs(&self) -> &[FaultSpec] {
        &self.specs
    }

    /// Rearms every one-shot fault (used by tests that replay a plan from
    /// scratch).
    pub fn reset(&self) {
        for spec in &self.specs {
            spec.fired.store(false, Ordering::Relaxed);
        }
    }

    /// Draws a random plan of 1–3 faults over `stages` stages and update
    /// indices below `max_update`, fully determined by `seed`. Stall and
    /// jitter durations are capped at 50 ms so chaos sweeps stay fast.
    pub fn random(seed: u64, stages: usize, max_update: usize) -> Self {
        let stages = stages.max(1);
        let max_update = max_update.max(1);
        let mut rng = seed;
        let mut plan = FaultPlan::new(seed);
        let count = 1 + (splitmix64(&mut rng) % 3) as usize;
        for _ in 0..count {
            let stage = (splitmix64(&mut rng) % stages as u64) as usize;
            let at = (splitmix64(&mut rng) % max_update as u64) as usize;
            let ms = 1 + splitmix64(&mut rng) % 50;
            let spec = match splitmix64(&mut rng) % 4 {
                0 => FaultSpec::panic_at(stage, at),
                1 => FaultSpec::stall_at(stage, at, Duration::from_millis(ms)),
                2 => FaultSpec::drop_channels_at(stage, at),
                _ => FaultSpec::jitter_from(stage, at, Duration::from_millis(ms.min(5))),
            };
            plan = plan.with(spec);
        }
        plan
    }

    /// The injector for one stage, fired by the shared stage-group loop.
    pub(crate) fn injector_for(&self, stage: usize) -> FaultInjector {
        FaultInjector {
            specs: self
                .specs
                .iter()
                .filter(|spec| spec.stage == stage)
                .cloned()
                .collect(),
            seed: self.seed,
            stage,
        }
    }
}

/// What a stage should do before its backward actions (the injection
/// point).
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum FaultAction {
    /// Proceed normally.
    None,
    /// Panic with an "injected fault" message.
    Panic,
    /// Sleep this long first.
    Stall(Duration),
    /// Drop all outgoing channel endpoints.
    Sever,
}

/// The slice of a [`FaultPlan`] aimed at one stage.
#[derive(Debug, Clone, Default)]
pub(crate) struct FaultInjector {
    specs: Vec<FaultSpec>,
    seed: u64,
    stage: usize,
}

impl FaultInjector {
    /// Resolves the action for the update about to be applied. Discrete
    /// faults take priority over jitter; among discrete faults the first
    /// scripted one wins.
    pub(crate) fn on_update(&self, update: usize) -> FaultAction {
        let mut jitter = None;
        for spec in &self.specs {
            if !spec.triggers(update) {
                continue;
            }
            match spec.kind {
                FaultKind::Panic => return FaultAction::Panic,
                FaultKind::Stall(d) => return FaultAction::Stall(d),
                FaultKind::ChannelDrop => return FaultAction::Sever,
                FaultKind::Jitter { max } => {
                    jitter.get_or_insert(self.jitter_duration(update, max));
                }
            }
        }
        match jitter {
            Some(d) if !d.is_zero() => FaultAction::Stall(d),
            _ => FaultAction::None,
        }
    }

    /// Deterministic per-update jitter in `[0, max]`, a pure function of
    /// `(seed, stage, update)`.
    fn jitter_duration(&self, update: usize, max: Duration) -> Duration {
        let mut state = self
            .seed
            .wrapping_add(0x9e37_79b9_7f4a_7c15u64.wrapping_mul(self.stage as u64 + 1))
            .wrapping_add(update as u64);
        let draw = splitmix64(&mut state);
        Duration::from_nanos(draw % (max.as_nanos().max(1) as u64 + 1))
    }
}

/// SplitMix64 step: advances `state` and returns the next draw.
///
/// Public because the distributed layer's network-fault plans
/// (`pbp-dist`) draw from the same generator, so a chaos seed means the
/// same thing for thread faults and for wire faults.
pub fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// A detected failure of the threaded pipeline runtime. The supervised
/// runtime always terminates with either a result or one of these —
/// never a hang, never a propagated worker panic.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PipelineFault {
    /// A stage worker panicked; the payload message is preserved.
    StagePanicked {
        /// Layer-stage index of the panicked worker.
        stage: usize,
        /// The panic payload, stringified.
        message: String,
    },
    /// The watchdog saw no heartbeat from a live stage for longer than
    /// its stall timeout while work was still outstanding.
    StageStalled {
        /// Layer-stage index with the oldest heartbeat.
        stage: usize,
        /// How long the stage had been silent when flagged.
        stalled_for: Duration,
    },
    /// A stage's link to a neighbour disconnected while work was
    /// outstanding (the neighbour dropped its endpoints and exited).
    ChannelClosed {
        /// Layer-stage index that saw the link close.
        stage: usize,
    },
}

impl std::fmt::Display for PipelineFault {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PipelineFault::StagePanicked { stage, message } => {
                write!(f, "stage {stage} panicked: {message}")
            }
            PipelineFault::StageStalled { stage, stalled_for } => {
                write!(f, "stage {stage} stalled for {stalled_for:?}")
            }
            PipelineFault::ChannelClosed { stage } => {
                write!(f, "pipeline channel at stage {stage} closed unexpectedly")
            }
        }
    }
}

impl std::error::Error for PipelineFault {}

/// Combined error of the snapshot-driven training runners: snapshot I/O
/// and integrity failures on one side, detected pipeline faults on the
/// other.
#[derive(Debug)]
pub enum RunError {
    /// Snapshot persistence or restore failed.
    Snapshot(pbp_snapshot::SnapshotError),
    /// The training engine hit a detected pipeline fault.
    Fault(PipelineFault),
}

impl std::fmt::Display for RunError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RunError::Snapshot(e) => write!(f, "snapshot error: {e}"),
            RunError::Fault(e) => write!(f, "pipeline fault: {e}"),
        }
    }
}

impl std::error::Error for RunError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            RunError::Snapshot(e) => Some(e),
            RunError::Fault(e) => Some(e),
        }
    }
}

impl From<pbp_snapshot::SnapshotError> for RunError {
    fn from(e: pbp_snapshot::SnapshotError) -> Self {
        RunError::Snapshot(e)
    }
}

impl From<PipelineFault> for RunError {
    fn from(e: PipelineFault) -> Self {
        RunError::Fault(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn one_shot_fault_fires_once_across_clones() {
        let plan = FaultPlan::new(0).with(FaultSpec::panic_at(1, 5));
        let injector_a = plan.injector_for(1);
        assert_eq!(injector_a.on_update(4), FaultAction::None);
        assert_eq!(injector_a.on_update(5), FaultAction::Panic);
        // A clone (as held by a rebuilt engine) shares the fired flag.
        let injector_b = plan.clone().injector_for(1);
        assert_eq!(injector_b.on_update(5), FaultAction::None);
        plan.reset();
        assert_eq!(plan.injector_for(1).on_update(5), FaultAction::Panic);
    }

    #[test]
    fn recurring_fault_survives_restarts() {
        let plan = FaultPlan::new(0).with(FaultSpec::panic_at(0, 3).recurring());
        assert_eq!(plan.injector_for(0).on_update(3), FaultAction::Panic);
        assert_eq!(
            plan.clone().injector_for(0).on_update(3),
            FaultAction::Panic
        );
    }

    #[test]
    fn injector_only_sees_its_stage() {
        let plan = FaultPlan::new(0)
            .with(FaultSpec::stall_at(0, 1, Duration::from_millis(2)))
            .with(FaultSpec::panic_at(2, 1));
        assert_eq!(
            plan.injector_for(0).on_update(1),
            FaultAction::Stall(Duration::from_millis(2))
        );
        assert_eq!(plan.injector_for(1).on_update(1), FaultAction::None);
        assert_eq!(plan.injector_for(2).on_update(1), FaultAction::Panic);
    }

    #[test]
    fn jitter_is_deterministic_and_bounded() {
        let max = Duration::from_millis(3);
        let plan = FaultPlan::new(42).with(FaultSpec::jitter_from(1, 2, max));
        let a = plan.injector_for(1);
        let b = plan.injector_for(1);
        assert_eq!(a.on_update(1), FaultAction::None);
        for update in 2..20 {
            let action = a.on_update(update);
            assert_eq!(action, b.on_update(update), "update {update}");
            match action {
                FaultAction::None => {}
                FaultAction::Stall(d) => assert!(d <= max, "jitter {d:?} over max"),
                other => panic!("jitter produced {other:?}"),
            }
        }
    }

    #[test]
    fn random_plans_are_reproducible() {
        let a = FaultPlan::random(7, 4, 30);
        let b = FaultPlan::random(7, 4, 30);
        assert_eq!(a.specs().len(), b.specs().len());
        for (x, y) in a.specs().iter().zip(b.specs()) {
            assert_eq!(x.stage, y.stage);
            assert_eq!(x.at_update, y.at_update);
            assert_eq!(x.kind, y.kind);
        }
        assert!(!a.specs().is_empty() && a.specs().len() <= 3);
        for spec in a.specs() {
            assert!(spec.stage < 4);
            assert!(spec.at_update < 30);
        }
    }

    #[test]
    fn fault_display_is_informative() {
        let fault = PipelineFault::StagePanicked {
            stage: 2,
            message: "boom".into(),
        };
        assert_eq!(fault.to_string(), "stage 2 panicked: boom");
        let err: RunError = fault.into();
        assert!(err.to_string().contains("stage 2"));
    }
}
