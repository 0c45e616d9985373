//! `train-mlp-pipe`: one 2-stage, weight-heavy MLP trained with PB by the
//! three runtimes.
//!
//! * `lane_a_ms` — sequential core, `ScheduledTrainer`, one thread;
//! * `lane_b_ms` — threaded, `ThreadedPipeline`, two stage threads;
//! * `lane_c_ms` — dist-w2, two `run_rank` threads joined by a Unix
//!   socket pair.
//!
//! Each reports the milliseconds per sample at the steady-state rate of
//! its windows ([`steady_ms_per_op`]).
//!
//! The lanes take turns in rounds until `--seconds` have passed, each
//! lane timing one window of 4,096 samples per round (0.3–0.6 s on a
//! 2-core x86 VM). The sequential and threaded lanes train on
//! continuously. Each dist-w2 round is a complete run of `dist_mbs`
//! microbatches from the initial weights: its set-up (thread spawn,
//! socket pair, `Hello` handshake) is timed as set-up, and its window runs
//! from the first data frame sent to the last data frame received, as
//! seen by a counting `Connection` wrapper handed to `run_rank`.
//!
//! Checks: every dist-w2 run must end bit-identical (weights and f64 loss
//! sum) to the sequential core fed the same microbatches; the threaded
//! lane, which is not deterministic, must return one finite loss per
//! sample; the traced replay must end bit-identical to the untraced core.
//! A `PipelineFault` of the threaded runtime (the fault `RunError` wraps)
//! and a `DistError` of a dist run are counted as failed operations, and
//! the lane carries on with a fresh engine.

use crate::feed::Feed;
use crate::replay::{record_replay, weight_bits, Replay};
use crate::report::Outcome;
use crate::stats::{median, steady_ms_per_op, time_into};
use crate::Args;
use pbp_data::Dataset;
use pbp_dist::codec::{decode_frame, encode_frame};
use pbp_dist::{
    run_rank, splice_owned_stages, Connection, DistError, Frame, LinkEndpoint, RankSpec,
    StreamConn, Topology,
};
use pbp_nn::models::mlp;
use pbp_nn::Network;
use pbp_optim::{Hyperparams, LrSchedule, Mitigation};
use pbp_pipeline::{
    MicrobatchSchedule, ScheduledConfig, ScheduledTrainer, ThreadedConfig, ThreadedPipeline,
    TrainEngine,
};
use pbp_tensor::{normal, Tensor};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::os::unix::net::UnixStream;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

struct Scale {
    sizes: [usize; 3],
    train: usize,
    /// Samples per sequential / threaded window.
    window: usize,
    /// Microbatches per dist-w2 run.
    dist_mbs: usize,
    calib_reps: usize,
}

const FULL: Scale = Scale {
    sizes: [256, 256, 10],
    train: 16384,
    window: 4096,
    dist_mbs: 4096,
    calib_reps: 8,
};

const TINY: Scale = Scale {
    sizes: [32, 32, 10],
    train: 64,
    window: 32,
    dist_mbs: 32,
    calib_reps: 2,
};

const NET_SALT: u64 = 0x4E45_545F_4D4C_5000;
const CENTRE_STD: f32 = 0.1;
const DATA_SALT: u64 = 0x4441_5441_4D4C_5000;
/// A neighbor silent this long is a typed fault, not a hang.
const STALL: Duration = Duration::from_secs(30);

fn build_net(scale: &Scale, seed: u64) -> Network {
    mlp(&scale.sizes, &mut StdRng::seed_from_u64(seed ^ NET_SALT))
}

fn schedule() -> LrSchedule {
    LrSchedule::constant(Hyperparams::new(0.001, 0.9))
}

/// Ten overlapping Gaussian classes: unit noise around centres drawn
/// with standard deviation `CENTRE_STD`. The classes overlap, so the
/// training loss stays well above zero for the whole run. A separable
/// task drives it to zero within seconds, and the vanishing gradients
/// turn subnormal, which slows every float operation several-fold and
/// makes the per-sample cost depend on how far training has got.
fn dataset(scale: &Scale, seed: u64) -> Dataset {
    let mut rng = StdRng::seed_from_u64(seed ^ DATA_SALT);
    let dim = scale.sizes[0];
    let classes = scale.sizes[2];
    let centres: Vec<Tensor> = (0..classes)
        .map(|_| normal(&[dim], 0.0, CENTRE_STD, &mut rng))
        .collect();
    let mut samples = Vec::with_capacity(scale.train);
    let mut labels = Vec::with_capacity(scale.train);
    for i in 0..scale.train {
        let class = i % classes;
        let noise = normal(&[dim], 0.0, 1.0, &mut rng);
        let x: Vec<f32> = centres[class]
            .as_slice()
            .iter()
            .zip(noise.as_slice())
            .map(|(c, n)| c + n)
            .collect();
        samples.push(Tensor::from_vec(x, &[dim]).expect("sample shape"));
        labels.push(class);
    }
    Dataset::new(samples, labels, classes)
}

fn seq_trainer(net: Network) -> ScheduledTrainer {
    ScheduledTrainer::new(
        net,
        ScheduledConfig::new(MicrobatchSchedule::PipelinedBackprop, schedule()),
    )
}

struct Setup {
    data: Dataset,
    seq: ScheduledTrainer,
    threaded: ThreadedPipeline,
}

fn setup(scale: &Scale, seed: u64) -> Setup {
    Setup {
        data: dataset(scale, seed),
        seq: seq_trainer(build_net(scale, seed)),
        threaded: ThreadedPipeline::new(build_net(scale, seed), ThreadedConfig::pb(schedule())),
    }
}

/// Wire counters shared by both ends of the dist-w2 link.
struct LinkStats {
    base: Instant,
    /// Nanoseconds after `base` of the first data frame sent and the
    /// last data frame received.
    first_data: AtomicU64,
    last_data: AtomicU64,
    data_frames: AtomicU64,
    ack_frames: AtomicU64,
    bytes: AtomicU64,
    send_ns: AtomicU64,
    recv_ns: AtomicU64,
}

impl LinkStats {
    fn new() -> Self {
        LinkStats {
            base: Instant::now(),
            first_data: AtomicU64::new(u64::MAX),
            last_data: AtomicU64::new(0),
            data_frames: AtomicU64::new(0),
            ack_frames: AtomicU64::new(0),
            bytes: AtomicU64::new(0),
            send_ns: AtomicU64::new(0),
            recv_ns: AtomicU64::new(0),
        }
    }

    fn now_ns(&self) -> u64 {
        self.base.elapsed().as_nanos() as u64
    }

    fn get(counter: &AtomicU64) -> u64 {
        counter.load(Ordering::Relaxed)
    }
}

/// A `Connection` that timestamps data frames and, when traced, counts
/// frames and wire bytes and times `send` and `recv_raw`.
struct Counted<C: Connection> {
    inner: C,
    stats: Arc<LinkStats>,
    traced: bool,
}

fn is_data(frame: &Frame) -> bool {
    matches!(frame, Frame::Activation { .. } | Frame::Gradient { .. })
}

impl<C: Connection> Connection for Counted<C> {
    fn send(&mut self, frame: &Frame) -> Result<(), DistError> {
        let st = &self.stats;
        if is_data(frame) {
            st.first_data.fetch_min(st.now_ns(), Ordering::Relaxed);
        }
        if !self.traced {
            return self.inner.send(frame);
        }
        let kind = match frame {
            f if is_data(f) => Some(&st.data_frames),
            Frame::Ack { .. } => Some(&st.ack_frames),
            _ => None,
        };
        if let Some(counter) = kind {
            counter.fetch_add(1, Ordering::Relaxed);
        }
        st.bytes
            .fetch_add(encode_frame(frame).len() as u64, Ordering::Relaxed);
        let t = Instant::now();
        let r = self.inner.send(frame);
        st.send_ns
            .fetch_add(t.elapsed().as_nanos() as u64, Ordering::Relaxed);
        r
    }

    fn recv_raw(&mut self, stall: Duration) -> Result<Frame, DistError> {
        let t = Instant::now();
        let r = self.inner.recv_raw(stall);
        let st = &self.stats;
        if self.traced {
            st.recv_ns
                .fetch_add(t.elapsed().as_nanos() as u64, Ordering::Relaxed);
        }
        if r.as_ref().is_ok_and(is_data) {
            st.last_data.fetch_max(st.now_ns(), Ordering::Relaxed);
        }
        r
    }
}

/// One complete dist-w2 run and what it measured.
struct DistRun {
    /// Thread spawn to first data frame.
    linkup_s: f64,
    /// First data frame sent to last data frame received.
    window_s: f64,
    weights: Vec<u32>,
    loss_sum: f64,
    stats: Arc<LinkStats>,
}

fn dist_run(scale: &Scale, seed: u64, data: &Dataset, traced: bool) -> Result<DistRun, DistError> {
    let topology = Topology::contiguous(scale.sizes.len() - 1, 2)?;
    let spec = |rank| RankSpec {
        rank,
        topology: topology.clone(),
        plan: MicrobatchSchedule::PipelinedBackprop,
        mitigation: Mitigation::None,
        weight_stashing: false,
        schedule: schedule(),
        seed,
        total_microbatches: scale.dist_mbs,
        stall: STALL,
        snapshots: None,
        resume_at: 0,
        abort_after: None,
        recovery: Default::default(),
    };
    let (spec0, spec1) = (spec(0), spec(1));
    let (net0, net1) = (build_net(scale, seed), build_net(scale, seed));
    let (a, b) = UnixStream::pair()?;
    let stats = Arc::new(LinkStats::new());
    let end = |stream| {
        LinkEndpoint::Conn(Box::new(Counted {
            inner: StreamConn::new(stream),
            stats: Arc::clone(&stats),
            traced,
        }))
    };
    let (down, up) = (end(a), end(b));
    // Two rank threads; the kernels run inline on them.
    let _cores = pbp_tensor::pool::reserve(1);
    let (r0, r1) = std::thread::scope(|scope| {
        let h0 = scope.spawn(|| run_rank(net0, data, &spec0, None, Some(down), None));
        let h1 = scope.spawn(|| run_rank(net1, data, &spec1, Some(up), None, None));
        (
            h0.join().expect("rank 0 thread"),
            h1.join().expect("rank 1 thread"),
        )
    });
    let (o0, o1) = (r0?, r1?);
    let first = LinkStats::get(&stats.first_data);
    let last = LinkStats::get(&stats.last_data);
    if first == u64::MAX || last <= first {
        return Err(DistError::Spec("run exchanged no data frames".into()));
    }
    let mut net = build_net(scale, seed);
    splice_owned_stages(&mut net, &topology, &[o0.net, o1.net]);
    Ok(DistRun {
        linkup_s: first as f64 * 1e-9,
        window_s: (last - first) as f64 * 1e-9,
        weights: weight_bits(&net),
        loss_sum: o0.loss_sum,
        stats,
    })
}

/// The sequential core over the microbatches of one dist-w2 run: the
/// weights and loss sum every dist run must reproduce bit for bit.
fn dist_reference(scale: &Scale, seed: u64, data: &Dataset) -> (Vec<u32>, f64) {
    let mut trainer = seq_trainer(build_net(scale, seed));
    let mut loss_sum = 0.0f64;
    for i in Feed::new(data, seed).next(data, scale.dist_mbs) {
        let (x, label) = data.sample(i);
        loss_sum += trainer.train_sample(x, label) as f64;
    }
    (weight_bits(trainer.network_mut()), loss_sum)
}

fn window_samples(data: &Dataset, idx: &[usize]) -> Vec<(Tensor, usize)> {
    idx.iter()
        .map(|&i| {
            let (x, label) = data.sample(i);
            (x.clone(), label)
        })
        .collect()
}

/// Per-microbatch times of `encode_frame` and `decode_frame` for one
/// activation and one gradient frame at the link's tensor shape.
fn codec_us(scale: &Scale, reps: usize) -> (f64, f64) {
    let lanes = vec![Tensor::zeros(&[1, scale.sizes[1]])];
    let frames = [
        Frame::Activation {
            seq: 1,
            microbatch: 1,
            weight_version: 1,
            label: 1,
            lanes: lanes.clone(),
        },
        Frame::Gradient {
            seq: 1,
            microbatch: 1,
            weight_version: 1,
            loss: 1.0,
            lanes,
        },
    ];
    let (mut enc, mut dec) = (Vec::new(), Vec::new());
    for _ in 0..reps {
        let (mut e, mut d) = (0.0, 0.0);
        for frame in &frames {
            let t = Instant::now();
            let bytes = encode_frame(frame);
            e += t.elapsed().as_secs_f64();
            let t = Instant::now();
            let back = decode_frame(&bytes).expect("round trip");
            d += t.elapsed().as_secs_f64();
            std::hint::black_box(back);
        }
        enc.push(e * 1e6);
        dec.push(d * 1e6);
    }
    (median(&enc), median(&dec))
}

pub fn run(args: &Args) -> Outcome {
    let scale = if args.tiny { &TINY } else { &FULL };
    let mut setup_s = Vec::new();
    let Setup {
        data,
        mut seq,
        mut threaded,
    } = time_into(&mut setup_s, || setup(scale, args.seed));
    let (ref_weights, ref_loss) = dist_reference(scale, args.seed, &data);

    let mut out = Outcome::new();
    let mut replay = args
        .trace
        .then(|| Replay::new(build_net(scale, args.seed), Mitigation::None, schedule()));
    let (mut seq_feed, mut thr_feed) = (Feed::new(&data, args.seed), Feed::new(&data, args.seed));
    let (mut seq_rates, mut thr_rates, mut dist_rates) = (Vec::new(), Vec::new(), Vec::new());
    let (mut plain, mut traced) = (Vec::new(), Vec::new());
    let mut linkups = Vec::new();
    let mut seq_loss_sum = 0.0f64;
    let mut wires: Vec<Arc<LinkStats>> = Vec::new();
    let window = scale.window as u64;
    let deadline = Instant::now() + Duration::from_secs_f64(args.seconds);
    // Past twice the run time the run ends even if a lane never produced
    // a window (its rate then reads NaN and fails the run).
    let cutoff = deadline + Duration::from_secs_f64(args.seconds);
    let mut warm = true;
    loop {
        // Sequential core (and, traced, its replay on the same samples).
        let idx = seq_feed.next(&data, scale.window);
        let t = Instant::now();
        let (sum, _) = TrainEngine::train_range(&mut seq, &data, &idx);
        let seq_dt = t.elapsed().as_secs_f64();
        seq_loss_sum += sum;
        out.attempted += window;
        out.check(sum.is_finite(), "sequential loss is finite");
        if !warm {
            seq_rates.push(scale.window as f64 / seq_dt);
        }
        if let Some(replay) = replay.as_mut() {
            let traced_dt = replay.train_range(&data, &idx);
            replay.calibrate_optim(scale.calib_reps);
            if !warm {
                plain.push(seq_dt);
                traced.push(traced_dt);
            }
        }

        // Threaded runtime.
        let samples = window_samples(&data, &thr_feed.next(&data, scale.window));
        let t = Instant::now();
        let streamed = threaded.try_stream(&samples);
        let thr_dt = t.elapsed().as_secs_f64();
        out.attempted += window;
        match streamed {
            Ok(losses) => {
                out.check(
                    losses.len() == samples.len() && losses.iter().all(|l| l.is_finite()),
                    "threaded lane returns one finite loss per sample",
                );
                if !warm {
                    thr_rates.push(samples.len() as f64 / thr_dt);
                }
            }
            Err(fault) => {
                eprintln!("perfbench: threaded lane fault: {fault}");
                out.failed += window;
                threaded = ThreadedPipeline::new(
                    build_net(scale, args.seed),
                    ThreadedConfig::pb(schedule()),
                );
            }
        }

        // dist-w2: a complete run from the initial weights.
        out.attempted += scale.dist_mbs as u64;
        match dist_run(scale, args.seed, &data, args.trace) {
            Ok(run) => {
                out.check(
                    run.weights == ref_weights && run.loss_sum.to_bits() == ref_loss.to_bits(),
                    "dist-w2 weights and loss sum equal the sequential core's",
                );
                linkups.push(run.linkup_s);
                if !warm {
                    dist_rates.push(scale.dist_mbs as f64 / run.window_s);
                }
                wires.push(run.stats);
            }
            Err(e) => {
                eprintln!("perfbench: dist-w2 run failed: {e}");
                out.failed += scale.dist_mbs as u64;
            }
        }
        if !out.correct {
            return out;
        }
        warm = false;
        drop(time_into(&mut setup_s, || setup(scale, args.seed)));
        let enough = if args.trace {
            plain.len() >= 3 && !wires.is_empty()
        } else {
            [&seq_rates, &thr_rates, &dist_rates]
                .iter()
                .all(|r| r.len() >= 3)
        };
        if (Instant::now() >= deadline && enough) || Instant::now() >= cutoff {
            break;
        }
    }

    if let Some(replay) = replay {
        out.check(
            weight_bits(replay.network()) == weight_bits(seq.network_mut())
                && replay.loss_sum.to_bits() == seq_loss_sum.to_bits(),
            "traced StageCell replay equals the untraced engine",
        );
        let metrics = threaded.metrics();
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
        // Wire figures per microbatch over every traced dist-w2 run.
        let mbs = (scale.dist_mbs * wires.len()) as f64;
        let per_mb = |c: fn(&LinkStats) -> &AtomicU64| {
            wires.iter().map(|w| LinkStats::get(c(w))).sum::<u64>() as f64 / mbs
        };
        let m = &mut out.metrics;
        m.set(
            "dist.frames_per_mb.data",
            per_mb(|w| &w.data_frames),
            "count",
        );
        m.set("dist.frames_per_mb.ack", per_mb(|w| &w.ack_frames), "count");
        m.set("dist.bytes_per_mb", per_mb(|w| &w.bytes), "B");
        m.set("dist.send_us", per_mb(|w| &w.send_ns) * 1e-3, "us");
        m.set("dist.recv_wait_us", per_mb(|w| &w.recv_ns) * 1e-3, "us");
        let (enc, dec) = codec_us(scale, 64);
        out.metrics.set("dist.encode_us", enc, "us");
        out.metrics.set("dist.decode_us", dec, "us");
    } else {
        let m = &mut out.metrics;
        m.set("setup_s", median(&setup_s) + median(&linkups), "s");
        m.set("lane_a_ms", steady_ms_per_op(&seq_rates), "ms");
        m.set("lane_b_ms", steady_ms_per_op(&thr_rates), "ms");
        m.set("lane_c_ms", steady_ms_per_op(&dist_rates), "ms");
    }
    out
}
