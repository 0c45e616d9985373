//! Supervision of the threaded pipeline runtime: stall watchdog, panic
//! containment, and snapshot-backed recovery.
//!
//! Two layers:
//!
//! * **Stream supervision** ([`Watchdog`], [`StreamSupervisor`]): while a
//!   threaded run is streaming, the calling thread doubles as a
//!   supervisor. Workers emit rate-limited heartbeats and a final
//!   completion report over an events channel; the supervisor
//!   tracks the oldest heartbeat, and on a panic report / silent stage /
//!   severed channel flips a shared abort flag, drains what it can within
//!   a shutdown grace period, joins the workers that reported in,
//!   detaches the rest, and surfaces a typed [`PipelineFault`] instead of
//!   hanging.
//! * **Run supervision** ([`run_supervised`], [`RecoveryPolicy`]): wraps
//!   the snapshot-driven training loop. On a fault it rebuilds the engine
//!   and resumes from the latest *valid* snapshot with bounded retries and
//!   exponential backoff; a fault that outlasts the retries ends the run
//!   in its typed error. Every fault, backoff and restart is logged
//!   through
//!   [`TrainHooks::on_supervision_event`](crate::metrics::TrainHooks::on_supervision_event).

use crate::engine::{EngineSpec, RunConfig};
use crate::fault::{PipelineFault, RunError};
use crate::group::StageGroup;
use crate::metrics::TrainHooks;
use crate::resume::{resume_training, run_training_with_snapshots, SnapshotPolicy};
use crate::trainer::TrainReport;
use pbp_nn::{Network, Stage};
use pbp_snapshot::latest_valid_snapshot;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Liveness policy of a supervised streaming run.
#[derive(Debug, Clone)]
pub struct Watchdog {
    /// A live stage silent for longer than this (while work is
    /// outstanding) is declared stalled.
    pub stall_timeout: Duration,
    /// Bounded-wait tick: how long any single wait, the supervisor's or a
    /// stage's, blocks before liveness is re-checked.
    pub poll: Duration,
    /// After a fault is flagged, how long the supervisor waits for
    /// workers to acknowledge the abort before detaching them.
    pub shutdown_grace: Duration,
}

impl Default for Watchdog {
    fn default() -> Self {
        Watchdog {
            stall_timeout: Duration::from_secs(10),
            poll: Duration::from_millis(2),
            shutdown_grace: Duration::from_secs(2),
        }
    }
}

impl Watchdog {
    /// A tight configuration for tests and smoke runs: 200 ms stall
    /// timeout, 1 ms poll, 500 ms shutdown grace.
    pub fn fast() -> Self {
        Watchdog {
            stall_timeout: Duration::from_millis(200),
            poll: Duration::from_millis(1),
            shutdown_grace: Duration::from_millis(500),
        }
    }

    /// Sets the stall timeout.
    pub fn with_stall_timeout(mut self, stall_timeout: Duration) -> Self {
        self.stall_timeout = stall_timeout;
        self
    }
}

/// How a stage worker's run ended.
pub(crate) enum StageOutcome {
    /// The worker finished its microbatches; carries their losses.
    Completed(Vec<f32>),
    /// The worker's body panicked; caught by `catch_unwind`.
    Panicked(String),
    /// A neighbour's link end disappeared mid-run.
    LinkClosed,
    /// The worker observed the abort flag.
    Aborted,
}

/// A worker's final report: its stage and stage group travel back to the
/// supervisor by value, so a clean run reassembles the network without
/// joining on thread results.
pub(crate) struct StageDone {
    pub stage_idx: usize,
    pub stage: Stage,
    pub group: StageGroup,
    pub outcome: StageOutcome,
}

/// Worker → supervisor control-plane traffic.
pub(crate) enum StageEvent {
    /// Rate-limited liveness signal.
    Beat { stage: usize },
    /// Final report; boxed because it carries the whole stage.
    Done(Box<StageDone>),
}

/// The control-plane state machine the calling thread runs while workers
/// stream. Tracks heartbeats, collects final reports, decides when the
/// run has failed and owns the abort/grace protocol.
pub(crate) struct StreamSupervisor {
    watchdog: Watchdog,
    last_beat: Vec<Instant>,
    done: Vec<Option<StageDone>>,
    fault: Option<PipelineFault>,
    abort: Arc<AtomicBool>,
    grace_deadline: Option<Instant>,
    done_count: usize,
}

impl StreamSupervisor {
    pub(crate) fn new(stages: usize, watchdog: Watchdog) -> Self {
        StreamSupervisor {
            watchdog,
            last_beat: vec![Instant::now(); stages],
            done: (0..stages).map(|_| None).collect(),
            fault: None,
            abort: Arc::new(AtomicBool::new(false)),
            grace_deadline: None,
            done_count: 0,
        }
    }

    /// The abort flag shared with every worker.
    pub(crate) fn abort_flag(&self) -> Arc<AtomicBool> {
        Arc::clone(&self.abort)
    }

    pub(crate) fn on_event(&mut self, event: StageEvent) {
        match event {
            StageEvent::Beat { stage } => self.last_beat[stage] = Instant::now(),
            StageEvent::Done(done) => {
                let s = done.stage_idx;
                match &done.outcome {
                    StageOutcome::Panicked(message) => self.flag(PipelineFault::StagePanicked {
                        stage: s,
                        message: message.clone(),
                    }),
                    StageOutcome::LinkClosed => {
                        self.flag(PipelineFault::ChannelClosed { stage: s })
                    }
                    StageOutcome::Completed(_) | StageOutcome::Aborted => {}
                }
                if self.done[s].is_none() {
                    self.done_count += 1;
                }
                self.done[s] = Some(*done);
            }
        }
    }

    /// True once every worker has reported in.
    pub(crate) fn all_done(&self) -> bool {
        self.done_count == self.done.len()
    }

    /// Whether stage `s` has reported in (and can be joined without
    /// blocking).
    pub(crate) fn is_done(&self, s: usize) -> bool {
        self.done[s].is_some()
    }

    /// Records `fault` and starts the abort protocol. Root causes beat
    /// symptoms: a stage panic or stall detected *after* a secondary
    /// channel-closed fault replaces it (the disconnect a dead stage
    /// leaves behind often reaches the supervisor before the worker's own
    /// panic report does). Among equal-priority faults the first one
    /// wins.
    pub(crate) fn flag(&mut self, fault: PipelineFault) {
        fn priority(f: &PipelineFault) -> u8 {
            match f {
                PipelineFault::StagePanicked { .. } => 2,
                PipelineFault::StageStalled { .. } => 1,
                PipelineFault::ChannelClosed { .. } => 0,
            }
        }
        if self
            .fault
            .as_ref()
            .is_none_or(|old| priority(&fault) > priority(old))
        {
            self.fault = Some(fault);
        }
        self.abort.store(true, Ordering::Relaxed);
        if self.grace_deadline.is_none() {
            self.grace_deadline = Some(Instant::now() + self.watchdog.shutdown_grace);
        }
    }

    pub(crate) fn aborting(&self) -> bool {
        self.grace_deadline.is_some()
    }

    pub(crate) fn grace_expired(&self) -> bool {
        self.grace_deadline.is_some_and(|d| Instant::now() >= d)
    }

    /// Stall detection: flags the live stage with the oldest heartbeat
    /// once it exceeds the stall timeout. Returns `true` if a fault was
    /// (or already had been) flagged.
    pub(crate) fn check_watchdog(&mut self) -> bool {
        if self.fault.is_some() {
            return true;
        }
        let oldest = (0..self.done.len())
            .filter(|&s| self.done[s].is_none())
            .min_by_key(|&s| self.last_beat[s]);
        if let Some(stage) = oldest {
            let silent = self.last_beat[stage].elapsed();
            if silent > self.watchdog.stall_timeout {
                self.flag(PipelineFault::StageStalled {
                    stage,
                    stalled_for: silent,
                });
                return true;
            }
        }
        false
    }

    #[cfg(test)]
    pub(crate) fn fault(&self) -> Option<&PipelineFault> {
        self.fault.as_ref()
    }

    /// Consumes the supervisor: the fault if one was flagged, otherwise
    /// the per-stage reports in stage order.
    pub(crate) fn into_result(self) -> Result<Vec<StageDone>, PipelineFault> {
        if let Some(fault) = self.fault {
            return Err(fault);
        }
        Ok(self
            .done
            .into_iter()
            .map(|d| d.expect("no fault implies every stage reported"))
            .collect())
    }
}

/// Retry policy of [`run_supervised`].
#[derive(Debug, Clone)]
pub struct RecoveryPolicy {
    /// Restart (resume-from-snapshot) attempts after the initial run.
    pub max_restarts: usize,
    /// Backoff before the first restart; doubles per attempt (capped at
    /// 64×).
    pub backoff: Duration,
}

impl Default for RecoveryPolicy {
    fn default() -> Self {
        RecoveryPolicy {
            max_restarts: 3,
            backoff: Duration::from_millis(50),
        }
    }
}

impl RecoveryPolicy {
    /// No-wait retries for tests.
    pub fn immediate(max_restarts: usize) -> Self {
        RecoveryPolicy {
            max_restarts,
            backoff: Duration::ZERO,
        }
    }
}

/// One entry in the supervision log.
#[derive(Debug, Clone)]
pub enum SupervisionEvent {
    /// An attempt ended in a pipeline fault.
    Fault {
        /// 0 = the initial run, n = the n-th restart.
        attempt: usize,
        /// The typed fault.
        fault: PipelineFault,
    },
    /// A restart is beginning.
    Restart {
        /// Restart number (1-based).
        attempt: usize,
        /// Snapshot file the restart resumes from, if any.
        from_snapshot: Option<String>,
    },
    /// The supervisor is sleeping (exponential backoff) before a restart.
    Backoff {
        /// The restart attempt (1-based) the sleep precedes.
        attempt: usize,
        /// Length of the sleep.
        delay: Duration,
    },
}

impl std::fmt::Display for SupervisionEvent {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SupervisionEvent::Fault { attempt, fault } => {
                write!(f, "attempt {attempt} faulted: {fault}")
            }
            SupervisionEvent::Restart {
                attempt,
                from_snapshot,
            } => match from_snapshot {
                Some(snap) => write!(f, "restart {attempt} from {snap}"),
                None => write!(f, "restart {attempt} from scratch"),
            },
            SupervisionEvent::Backoff { attempt, delay } => {
                write!(f, "backoff before restart {attempt}: {delay:?}")
            }
        }
    }
}

/// The result of a supervised run that completed.
#[derive(Debug)]
pub struct SupervisedOutcome {
    /// The finished training report.
    pub report: TrainReport,
    /// Everything the supervisor did, in order.
    pub events: Vec<SupervisionEvent>,
    /// Restarts performed before completion.
    pub restarts: usize,
}

/// Runs `spec` to completion under snapshot-backed fault recovery.
///
/// The initial attempt (or, when `policy.dir` already holds a valid
/// snapshot, a resume of it) trains with periodic snapshots. On a
/// [`RunError::Fault`] the engine is rebuilt from `make_net` and resumed
/// from the latest valid snapshot, up to `recovery.max_restarts` times
/// with doubling backoff; a fault that recurs past the last restart is
/// returned. Every fault, backoff and restart is reported through `hooks`
/// and returned in the outcome's event log.
///
/// Every engine is deterministic, the threaded one included, so a
/// faulted-and-resumed run is bit-identical to an uninterrupted one — the
/// same guarantee [`resume_training`] provides, now applied
/// automatically.
#[allow(clippy::too_many_arguments)]
pub fn run_supervised(
    spec: &EngineSpec,
    make_net: &mut dyn FnMut() -> Network,
    train: &pbp_data::Dataset,
    val: &pbp_data::Dataset,
    config: &RunConfig,
    policy: &SnapshotPolicy,
    recovery: &RecoveryPolicy,
    hooks: &mut dyn TrainHooks,
) -> Result<SupervisedOutcome, RunError> {
    let mut events: Vec<SupervisionEvent> = Vec::new();
    let mut attempt = 0usize;
    loop {
        let mut engine = spec.build(make_net());
        let snapshot = latest_valid_snapshot(&policy.dir)?;
        let result = match &snapshot {
            Some(path) => resume_training(
                engine.as_mut(),
                train,
                val,
                config,
                Some(policy),
                path,
                hooks,
            ),
            None => run_training_with_snapshots(engine.as_mut(), train, val, config, policy, hooks),
        };
        match result {
            Ok(report) => {
                return Ok(SupervisedOutcome {
                    report,
                    events,
                    restarts: attempt,
                })
            }
            Err(RunError::Fault(fault)) => {
                let event = SupervisionEvent::Fault {
                    attempt,
                    fault: fault.clone(),
                };
                hooks.on_supervision_event(&event);
                events.push(event);
                if attempt >= recovery.max_restarts {
                    return Err(RunError::Fault(fault));
                }
                attempt += 1;
                let backoff = recovery.backoff * (1u32 << (attempt - 1).min(6) as u32);
                if !backoff.is_zero() {
                    let event = SupervisionEvent::Backoff {
                        attempt,
                        delay: backoff,
                    };
                    hooks.on_supervision_event(&event);
                    events.push(event);
                    std::thread::sleep(backoff);
                }
                let from_snapshot = latest_valid_snapshot(&policy.dir)?
                    .map(|p| p.file_name().unwrap_or_default().to_string_lossy().into());
                let event = SupervisionEvent::Restart {
                    attempt,
                    from_snapshot,
                };
                hooks.on_supervision_event(&event);
                events.push(event);
            }
            Err(other) => return Err(other),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn watchdog_flags_oldest_silent_stage() {
        let mut sup = StreamSupervisor::new(
            3,
            Watchdog {
                stall_timeout: Duration::from_millis(10),
                poll: Duration::from_millis(1),
                shutdown_grace: Duration::from_millis(10),
            },
        );
        assert!(!sup.check_watchdog());
        std::thread::sleep(Duration::from_millis(15));
        sup.on_event(StageEvent::Beat { stage: 1 });
        sup.on_event(StageEvent::Beat { stage: 2 });
        assert!(sup.check_watchdog());
        match sup.fault() {
            Some(PipelineFault::StageStalled { stage: 0, .. }) => {}
            other => panic!("expected stage-0 stall, got {other:?}"),
        }
        assert!(sup.aborting());
        assert!(sup.abort_flag().load(Ordering::Relaxed));
    }

    #[test]
    fn root_cause_faults_beat_symptoms() {
        let mut sup = StreamSupervisor::new(1, Watchdog::fast());
        sup.flag(PipelineFault::ChannelClosed { stage: 0 });
        // An equal-priority symptom cannot displace it...
        sup.flag(PipelineFault::ChannelClosed { stage: 3 });
        assert!(matches!(
            sup.fault(),
            Some(PipelineFault::ChannelClosed { stage: 0 })
        ));
        // ...but a late-arriving root cause (a worker's panic report) upgrades
        // the recorded fault.
        sup.flag(PipelineFault::StagePanicked {
            stage: 2,
            message: "boom".into(),
        });
        assert!(matches!(
            sup.fault(),
            Some(PipelineFault::StagePanicked { stage: 2, .. })
        ));
        // Equal priority: first wins.
        sup.flag(PipelineFault::StagePanicked {
            stage: 0,
            message: "late".into(),
        });
        assert!(matches!(
            sup.fault(),
            Some(PipelineFault::StagePanicked { stage: 2, .. })
        ));
    }
}
