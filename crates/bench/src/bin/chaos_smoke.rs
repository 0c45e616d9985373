//! Chaos smoke test for the supervised threaded pipeline: injects a
//! seeded stage panic *and* a stage stall into a threaded fill-and-drain
//! run, lets the supervisor recover it from snapshots, and asserts the
//! recovered run is bit-identical (records and final validation metrics)
//! to an uninterrupted reference run. Exercised by `scripts/check.sh`.

use pbp_nn::models::mlp;
use pbp_nn::Network;
use pbp_optim::{Hyperparams, LrSchedule};
use pbp_pipeline::{
    run_supervised, run_training_with_snapshots, EngineSpec, FaultPlan, FaultSpec, NoHooks,
    RecoveryPolicy, RunConfig, SnapshotPolicy, SupervisionEvent, ThreadedConfig, Watchdog,
};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::Duration;

fn fresh_net() -> Network {
    let mut rng = StdRng::seed_from_u64(0xC405);
    mlp(&[2, 16, 3], &mut rng)
}

fn schedule() -> LrSchedule {
    LrSchedule::constant(Hyperparams::new(0.05, 0.9))
}

fn main() {
    let data = pbp_data::blobs(3, 40, 0.4, 78);
    let (train, val) = data.split(0.25);
    let config = RunConfig::new(2, 7);
    let base = std::env::temp_dir().join(format!("pbp_chaos_smoke_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&base);

    eprintln!("== chaos smoke: seeded panic + stall under supervision ==");

    // Reference: uninterrupted threaded fill&drain run.
    let clean_spec = EngineSpec::Threaded(ThreadedConfig::fill_drain(schedule()));
    let mut reference = clean_spec.build(fresh_net());
    let report_ref = run_training_with_snapshots(
        reference.as_mut(),
        &train,
        &val,
        &config,
        &SnapshotPolicy::new(base.join("ref"), 20),
        &mut NoHooks,
    )
    .expect("reference run");

    // Victim: same engine with a one-shot panic at stage 1, update 30,
    // and a one-shot 400 ms stall at stage 0, update 55 — both beyond the
    // watchdog's tolerance, each forcing one supervised restart.
    let plan = FaultPlan::new(0xC405)
        .with(FaultSpec::panic_at(1, 30))
        .with(FaultSpec::stall_at(0, 55, Duration::from_millis(400)));
    let chaos_spec = EngineSpec::Threaded(
        ThreadedConfig::fill_drain(schedule())
            .with_fault_plan(plan)
            .with_watchdog(Watchdog::fast().with_stall_timeout(Duration::from_millis(150))),
    );
    let outcome = run_supervised(
        &chaos_spec,
        &mut fresh_net,
        &train,
        &val,
        &config,
        &SnapshotPolicy::new(base.join("chaos"), 20),
        &RecoveryPolicy::immediate(4),
        &mut NoHooks,
    )
    .expect("supervised run must recover");

    for event in &outcome.events {
        eprintln!("  supervision: {event}");
    }
    assert!(
        outcome.restarts >= 2,
        "both injected faults should have fired (restarts = {})",
        outcome.restarts
    );
    assert!(outcome
        .events
        .iter()
        .any(|e| matches!(e, SupervisionEvent::Fault { .. })));

    assert_eq!(report_ref.records.len(), outcome.report.records.len());
    for (a, b) in report_ref.records.iter().zip(&outcome.report.records) {
        assert_eq!(
            a, b,
            "recovered run diverged from the uninterrupted reference"
        );
    }
    let last = outcome.report.records.last().expect("records");
    eprintln!(
        "recovered through {} restarts; final val acc {:.3} matches reference bit-for-bit",
        outcome.restarts, last.val_acc
    );

    let _ = std::fs::remove_dir_all(&base);
    eprintln!("chaos smoke OK");
}
