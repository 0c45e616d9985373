//! `train-cnn`: the paper's configuration.
//!
//! Three lanes train `simple_cnn` on CIFAR-sim at update size one, on the
//! same data order:
//!
//! * `lane_a_ms` — sequential-core PB with LWPvD+SCD (the paper's method);
//! * `lane_b_ms` — plain SGDM at batch size one, the single-worker
//!   baseline;
//! * `lane_c_ms` — sequential-core PB without mitigation, so that the
//!   work LWPvD+SCD add per stage and update is `a − c`.
//!
//! The lanes alternate in windows of one epoch (about 0.6 s each on a
//! 2-core x86 VM) until `--seconds` have passed, and each reports the
//! milliseconds per sample at the steady-state rate of its windows
//! ([`steady_ms_per_op`]). The LWPvD+SCD lane's validation loss after a
//! fixed sample budget is the quality guard; it is printed on a `#` line.
//!
//! Checks: every window's loss sum is finite; a replay of the budget
//! through `StageCell`/`Stage` ends bit-identical to the PB lane (weights
//! and f64 loss sum); at full scale the PB validation loss at the budget
//! is below the untrained network's and within 5% of SGDM's at the same
//! budget. The traced run replays every window and compares at the end.

use crate::feed::Feed;
use crate::replay::{record_replay, weight_bits, Replay};
use crate::report::Outcome;
use crate::stats::{median, steady_ms_per_op, time_into};
use crate::Args;
use pbp_data::{Dataset, DatasetSpec, SyntheticImages};
use pbp_nn::models::simple_cnn;
use pbp_nn::Network;
use pbp_optim::{scale_hyperparams, Hyperparams, LrSchedule, Mitigation};
use pbp_pipeline::{
    evaluate, MicrobatchSchedule, ScheduledConfig, ScheduledTrainer, SgdmTrainer, TrainEngine,
};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::{Duration, Instant};

struct Scale {
    image: usize,
    train: usize,
    val: usize,
    /// Samples per timed window: one epoch at full scale.
    window: usize,
    /// PB samples before the validation loss is taken.
    budget: usize,
    calib_reps: usize,
}

const FULL: Scale = Scale {
    image: 16,
    train: 2048,
    val: 512,
    window: 2048,
    budget: 2048,
    calib_reps: 4,
};

const TINY: Scale = Scale {
    image: 8,
    train: 64,
    val: 32,
    window: 16,
    budget: 32,
    calib_reps: 2,
};

const WIDTH: usize = 12;
const DEPTH: usize = 6;
const CLASSES: usize = 10;
const NET_SALT: u64 = 0x4E45_545F_434E_4E00;

fn build_net(seed: u64) -> Network {
    simple_cnn(
        3,
        WIDTH,
        DEPTH,
        CLASSES,
        &mut StdRng::seed_from_u64(seed ^ NET_SALT),
    )
}

/// Per-sample hyperparameters derived from the paper's batch-128
/// reference, as every update-size-one engine in the repo uses them.
fn schedule() -> LrSchedule {
    LrSchedule::constant(scale_hyperparams(Hyperparams::new(0.1, 0.9), 128, 1))
}

fn pb_config(mitigation: Mitigation) -> ScheduledConfig {
    ScheduledConfig::new(MicrobatchSchedule::PipelinedBackprop, schedule())
        .with_mitigation(mitigation)
}

struct Setup {
    train: Dataset,
    val: Dataset,
    pb: ScheduledTrainer,
    sgdm: SgdmTrainer,
    plain_pb: ScheduledTrainer,
}

fn setup(seed: u64, scale: &Scale) -> Setup {
    let images = SyntheticImages::new(DatasetSpec::cifar_sim(scale.image), seed);
    Setup {
        train: images.generate(scale.train, 1),
        val: images.generate(scale.val, 2),
        pb: ScheduledTrainer::new(build_net(seed), pb_config(Mitigation::lwpv_scd())),
        sgdm: SgdmTrainer::new(build_net(seed), schedule(), 1),
        plain_pb: ScheduledTrainer::new(build_net(seed), pb_config(Mitigation::None)),
    }
}

pub fn run(args: &Args) -> Outcome {
    let scale = if args.tiny { &TINY } else { &FULL };
    let mut setup_s = Vec::new();
    let built = time_into(&mut setup_s, || setup(args.seed, scale));
    if args.trace {
        traced(args, scale, built)
    } else {
        untraced(args, scale, built, setup_s)
    }
}

/// The measured run; `setup_s` holds the set-up time of `s` and gains one
/// more set-up per round.
fn untraced(args: &Args, scale: &Scale, s: Setup, mut setup_s: Vec<f64>) -> Outcome {
    let Setup {
        train,
        val,
        mut pb,
        mut sgdm,
        mut plain_pb,
    } = s;
    let mut out = Outcome::new();
    let untrained = evaluate(&mut build_net(args.seed), &val, 64).0;
    let [mut pb_feed, mut sgdm_feed, mut plain_feed] =
        [(); 3].map(|_| Feed::new(&train, args.seed));
    let (mut pb_rates, mut sgdm_rates, mut plain_rates) = (Vec::new(), Vec::new(), Vec::new());
    let mut pb_loss_sum = 0.0f64;
    let mut at_budget: Option<(f64, Vec<u32>, f64)> = None;
    let mut sgdm_val = f64::NAN;
    let deadline = Instant::now() + Duration::from_secs_f64(args.seconds);
    let mut warm = true;
    loop {
        let idx = pb_feed.next(&train, scale.window);
        let t = Instant::now();
        let (sum, _) = TrainEngine::train_range(&mut pb, &train, &idx);
        let pb_dt = t.elapsed().as_secs_f64();
        pb_loss_sum += sum;
        if pb.samples_seen() == scale.budget {
            let (val_loss, _) = evaluate(pb.network_mut(), &val, 64);
            at_budget = Some((val_loss, weight_bits(pb.network_mut()), pb_loss_sum));
        }

        let idx = sgdm_feed.next(&train, scale.window);
        let t = Instant::now();
        let (sgdm_sum, _) = sgdm.train_range(&train, &idx);
        let sgdm_dt = t.elapsed().as_secs_f64();
        if sgdm.samples_seen() == scale.budget {
            sgdm_val = evaluate(sgdm.network_mut(), &val, 64).0;
        }

        let idx = plain_feed.next(&train, scale.window);
        let t = Instant::now();
        let (plain_sum, _) = TrainEngine::train_range(&mut plain_pb, &train, &idx);
        let plain_dt = t.elapsed().as_secs_f64();

        out.attempted += 3 * scale.window as u64;
        if !(sum.is_finite() && sgdm_sum.is_finite() && plain_sum.is_finite()) {
            out.check(false, "training loss is finite");
            return out;
        }
        if !warm {
            pb_rates.push(scale.window as f64 / pb_dt);
            sgdm_rates.push(scale.window as f64 / sgdm_dt);
            plain_rates.push(scale.window as f64 / plain_dt);
        }
        warm = false;
        drop(time_into(&mut setup_s, || setup(args.seed, scale)));
        if Instant::now() >= deadline && at_budget.is_some() && pb_rates.len() >= 3 {
            break;
        }
    }
    let (val_loss, bits, loss_sum) = at_budget.expect("loop ends past the budget");

    // The replay of the budget through StageCell/Stage must reproduce
    // the PB lane bit for bit.
    let mut replay = Replay::new(build_net(args.seed), Mitigation::lwpv_scd(), schedule());
    let mut feed = Feed::new(&train, args.seed);
    for _ in 0..scale.budget / scale.window {
        replay.train_range(&train, &feed.next(&train, scale.window));
    }
    out.check(
        weight_bits(replay.network()) == bits,
        "StageCell replay weights equal the PB lane's at the budget",
    );
    out.check(
        replay.loss_sum.to_bits() == loss_sum.to_bits(),
        "StageCell replay loss sum equals the PB lane's at the budget",
    );
    out.check(val_loss.is_finite(), "PB validation loss is finite");
    if !args.tiny {
        // Quality guard (full scale only: a tiny budget learns nothing
        // measurable). PB with LWPvD+SCD must learn, and must stay close
        // to the delay-free baseline, as the paper finds.
        out.check(
            val_loss < untrained,
            "PB validation loss at the budget is below the untrained network's",
        );
        out.check(
            val_loss <= 1.05 * sgdm_val,
            "PB validation loss at the budget is within 5% of SGDM's",
        );
    }
    println!(
        "# PB+LWPvD+SCD validation loss after {} samples: {val_loss} nats \
         (SGDM {sgdm_val}, untrained {untrained})",
        scale.budget
    );
    let m = &mut out.metrics;
    m.set("setup_s", median(&setup_s), "s");
    m.set("lane_a_ms", steady_ms_per_op(&pb_rates), "ms");
    m.set("lane_b_ms", steady_ms_per_op(&sgdm_rates), "ms");
    m.set("lane_c_ms", steady_ms_per_op(&plain_rates), "ms");
    out
}

fn traced(args: &Args, scale: &Scale, s: Setup) -> Outcome {
    let Setup { train, mut pb, .. } = s;
    let mut out = Outcome::new();
    let mut replay = Replay::new(build_net(args.seed), Mitigation::lwpv_scd(), schedule());
    let mut feed = Feed::new(&train, args.seed);
    let (mut plain, mut traced) = (Vec::new(), Vec::new());
    let mut pb_loss_sum = 0.0f64;
    let deadline = Instant::now() + Duration::from_secs_f64(args.seconds);
    let mut warm = true;
    loop {
        let idx = feed.next(&train, scale.window);
        let t = Instant::now();
        let (sum, _) = TrainEngine::train_range(&mut pb, &train, &idx);
        let dt = t.elapsed().as_secs_f64();
        pb_loss_sum += sum;
        let traced_dt = replay.train_range(&train, &idx);
        replay.calibrate_optim(scale.calib_reps);
        out.attempted += 2 * scale.window as u64;
        if !warm {
            plain.push(dt);
            traced.push(traced_dt);
        }
        warm = false;
        if Instant::now() >= deadline && plain.len() >= 3 {
            break;
        }
    }
    out.check(
        weight_bits(replay.network()) == weight_bits(pb.network_mut()),
        "traced StageCell replay weights equal the untraced engine's",
    );
    out.check(
        replay.loss_sum.to_bits() == pb_loss_sum.to_bits(),
        "traced StageCell replay loss sum equals the untraced engine's",
    );
    let metrics = pb.metrics();
    let busy: Vec<f64> = metrics
        .stages
        .iter()
        .map(|c| c.busy_ns as f64 / metrics.train_ns.max(1) as f64)
        .collect();
    record_replay(
        &mut out.metrics,
        &replay.report(),
        &busy,
        median(&traced) / median(&plain) - 1.0,
    );
    out
}
