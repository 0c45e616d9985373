//! `serve-vgg`: open- and closed-loop load against `pbp-serve` with one
//! eval worker on `vgg_cnn`.
//!
//! The run alternates three lanes in rounds until `--seconds` have passed:
//!
//! * `low` and `high` (`lane_a_ms`, `lane_b_ms`): an open loop at a fixed
//!   rate. Requests are sent on a fixed schedule whatever the server does
//!   (independent users), and each is timed from when it was due, so a
//!   stall also counts against the requests queued behind it. Each window
//!   holds at least 1,000 requests; the lane reports their p90 latency
//!   (p50 and p99 are printed per window, not reported: one scheduling
//!   hiccup on the shared machine moves p99). At these rates a batch
//!   holds a few requests and the 2 ms coalescing deadline is a large
//!   part of the latency.
//! * `saturated` (`lane_c_ms`): a closed loop that keeps
//!   [`Scale::in_flight`] requests outstanding, well under the ingress
//!   queue's 1,024 slots, so every batch is a full 64 and the eval forward
//!   at that width dominates. Each window measures the requests served
//!   per second; the lane reports milliseconds per served request.
//!
//! Each metric is the steady-state figure over the run's windows
//! ([`steady_latency`], [`steady_ms_per_op`]).
//!
//! The rates are fixed, not derived from the machine: `low` (1,000/s) is
//! about an eighth of this server's saturated throughput on a 2-core x86
//! VM and `high` (2,000/s) about a quarter, low enough that no backlog
//! builds even while other tenants slow the machine down.
//!
//! Set-up (`setup_s`) is net init, server start and the first request.
//! The inputs and their reference replies are made once, before it.
//!
//! Checks: every reply must be bit-identical to a solo eval forward of
//! its input. `Overloaded`/`ShuttingDown` submissions and failed replies
//! are counted as failed operations (and as infinite latencies).

use crate::report::Outcome;
use crate::stats::{median, quantile, steady_latency, steady_ms_per_op, time_into};
use crate::timed::{wrap_network, ForwardSpan};
use crate::Args;
use pbp_nn::models::vgg_cnn;
use pbp_nn::Network;
use pbp_serve::{Client, Pending, ServeConfig, ServeStats, Server};
use pbp_tensor::{normal, Tensor};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::mpsc;
use std::time::{Duration, Instant};

struct Scale {
    inputs: usize,
    low_qps: f64,
    high_qps: f64,
    /// Seconds per low / high window: each holds at least 1,000 requests
    /// at full scale, so even its p99 has ten samples beyond it.
    low_s: f64,
    high_s: f64,
    /// Requests the saturated lane keeps outstanding: four full batches.
    in_flight: usize,
    /// Seconds per saturated window.
    saturated_s: f64,
}

const FULL: Scale = Scale {
    inputs: 256,
    low_qps: 1000.0,
    high_qps: 2000.0,
    low_s: 1.0,
    high_s: 0.5,
    in_flight: 256,
    saturated_s: 0.5,
};

const TINY: Scale = Scale {
    inputs: 16,
    low_qps: 200.0,
    high_qps: 400.0,
    low_s: 0.1,
    high_s: 0.1,
    in_flight: 32,
    saturated_s: 0.1,
};

const IN_CHANNELS: usize = 3;
const IMAGE: usize = 16;
const NET_SALT: u64 = 0x4E45_545F_5647_4700;
const INPUT_SALT: u64 = 0x494E_5055_5456_4700;

fn build_net(seed: u64) -> Network {
    vgg_cnn(
        IN_CHANNELS,
        16,
        2,
        IMAGE,
        256,
        10,
        &mut StdRng::seed_from_u64(seed ^ NET_SALT),
    )
}

fn config() -> ServeConfig {
    ServeConfig {
        max_batch: 64,
        deadline: Duration::from_millis(2),
        queue: 1024,
    }
}

/// Adds a batch dimension of one.
fn batch_of_one(x: &Tensor) -> Tensor {
    let mut shape = vec![1];
    shape.extend_from_slice(x.shape());
    x.reshape(&shape).expect("same volume")
}

/// The request inputs and each one's solo eval forward: the reference
/// every served reply is checked against.
fn inputs_and_replies(scale: &Scale, seed: u64) -> (Vec<Tensor>, Vec<Vec<u32>>) {
    let mut rng = StdRng::seed_from_u64(seed ^ INPUT_SALT);
    let inputs: Vec<Tensor> = (0..scale.inputs)
        .map(|_| normal(&[IN_CHANNELS, IMAGE, IMAGE], 0.0, 1.0, &mut rng))
        .collect();
    let mut net = build_net(seed);
    net.set_training(false);
    let replies = inputs
        .iter()
        .map(|x| {
            let y = net.forward(&batch_of_one(x));
            net.clear_stash();
            y.as_slice().iter().map(|v| v.to_bits()).collect()
        })
        .collect();
    (inputs, replies)
}

/// What happened to one request.
struct Record {
    due: Instant,
    submit: Instant,
    /// Reply time; `None` for a refused or failed request.
    reply: Option<Instant>,
}

impl Record {
    fn latency_ms(&self) -> f64 {
        self.reply
            .map_or(f64::INFINITY, |r| (r - self.due).as_secs_f64() * 1e3)
    }
}

/// Results of one window of requests.
struct Phase {
    records: Vec<Record>,
    mismatches: usize,
}

impl Phase {
    fn failed(&self) -> usize {
        self.records.iter().filter(|r| r.reply.is_none()).count()
    }

    fn latency_ms(&self, q: f64) -> f64 {
        let lat: Vec<f64> = self.records.iter().map(Record::latency_ms).collect();
        quantile(&lat, q)
    }

    /// Requests answered per second, from the first submission to the
    /// last reply.
    fn served_qps(&self) -> f64 {
        let answered = self.records.len() - self.failed();
        let first = self.records.first().map(|r| r.submit);
        let last = self.records.iter().filter_map(|r| r.reply).max();
        match (first, last) {
            (Some(first), Some(last)) if last > first => {
                answered as f64 / (last - first).as_secs_f64()
            }
            _ => f64::NAN,
        }
    }
}

/// A submitted request on its way to the collector: input index, due
/// time, submission time and the pending reply (`None` if refused).
type Sent = (usize, Instant, Instant, Option<Pending>);

/// Waits for replies in submission order, timestamps each and checks it
/// against its solo forward.
fn collect(rx: impl IntoIterator<Item = Sent>, replies: &[Vec<u32>]) -> Phase {
    let mut phase = Phase {
        records: Vec::new(),
        mismatches: 0,
    };
    for (k, due, submit, pending) in rx {
        let reply = pending.and_then(|p| p.wait().ok());
        let at = Instant::now();
        if let Some(y) = &reply {
            let bits = y.as_slice().iter().map(|v| v.to_bits());
            if !bits.eq(replies[k].iter().copied()) {
                phase.mismatches += 1;
            }
        }
        phase.records.push(Record {
            due,
            submit,
            reply: reply.map(|_| at),
        });
    }
    phase
}

/// Sends requests at `rate` for `seconds` on a fixed schedule, cycling
/// through `inputs` from `first`; a collector thread waits for replies in
/// submission order and checks each against its solo forward.
fn open_loop(
    client: &Client,
    inputs: &[Tensor],
    replies: &[Vec<u32>],
    first: usize,
    rate: f64,
    seconds: f64,
) -> Phase {
    let n = (rate * seconds).round().max(1.0) as usize;
    let interval = Duration::from_secs_f64(1.0 / rate);
    let (tx, rx) = mpsc::channel::<Sent>();
    std::thread::scope(|scope| {
        let collector = scope.spawn(move || collect(rx, replies));
        let start = Instant::now();
        for i in 0..n {
            let due = start + interval.mul_f64(i as f64);
            if let Some(wait) = due.checked_duration_since(Instant::now()) {
                std::thread::sleep(wait);
            }
            let k = (first + i) % inputs.len();
            let submit = Instant::now();
            let pending = client.submit(inputs[k].clone()).ok();
            tx.send((k, due, submit, pending)).expect("collector alive");
        }
        drop(tx);
        collector.join().expect("collector thread")
    })
}

/// Keeps about `in_flight` requests outstanding for `seconds`, cycling
/// through `inputs` from `first`: each reply the collector takes frees a
/// slot for the next submission. Requests are due when submitted.
fn closed_loop(
    client: &Client,
    inputs: &[Tensor],
    replies: &[Vec<u32>],
    first: usize,
    in_flight: usize,
    seconds: f64,
) -> Phase {
    let (tx, rx) = mpsc::sync_channel::<Sent>(in_flight);
    std::thread::scope(|scope| {
        let collector = scope.spawn(move || collect(rx, replies));
        let end = Instant::now() + Duration::from_secs_f64(seconds);
        let mut i = first;
        while Instant::now() < end {
            let k = i % inputs.len();
            let submit = Instant::now();
            let pending = client.submit(inputs[k].clone()).ok();
            tx.send((k, submit, submit, pending))
                .expect("collector alive");
            i += 1;
        }
        drop(tx);
        collector.join().expect("collector thread")
    })
}

/// Starts the server on `net` and sends it a first request, so the
/// worker's lazy buffers are set up before timing.
fn setup(net: Network, first: &Tensor) -> Server {
    let server = Server::start(vec![net], config());
    let _ = server.client().infer(first.clone());
    server
}

pub fn run(args: &Args) -> Outcome {
    let scale = if args.tiny { &TINY } else { &FULL };
    let (inputs, replies) = inputs_and_replies(scale, args.seed);
    let mut setup_s = Vec::new();
    let (server, clock) = time_into(&mut setup_s, || {
        if args.trace {
            let (net, clock) = wrap_network(build_net(args.seed), true);
            (setup(net, &inputs[0]), Some(clock))
        } else {
            (setup(build_net(args.seed), &inputs[0]), None)
        }
    });
    // The traced run counts only what the measured phases did.
    let fwd_before: Vec<u64> = clock.as_ref().map_or(Vec::new(), |c| {
        c.take_spans();
        (0..c.stages.len()).map(|s| c.stage_ns(s).0).collect()
    });
    let stats_before = server.stats();
    let client = server.client();

    let mut out = Outcome::new();
    let (mut low, mut high, mut saturated) = (Vec::new(), Vec::new(), Vec::new());
    let mut sent = 0usize;
    let deadline = Instant::now() + Duration::from_secs_f64(args.seconds);
    while out.correct && (Instant::now() < deadline || saturated.len() < 3) {
        // (windows, open-loop rate or None for the closed loop, seconds)
        for (into, rate, seconds) in [
            (&mut low, Some(scale.low_qps), scale.low_s),
            (&mut high, Some(scale.high_qps), scale.high_s),
            (&mut saturated, None, scale.saturated_s),
        ] {
            let phase = match rate {
                Some(rate) => open_loop(&client, &inputs, &replies, sent, rate, seconds),
                None => closed_loop(&client, &inputs, &replies, sent, scale.in_flight, seconds),
            };
            sent += phase.records.len();
            out.attempted += phase.records.len() as u64;
            out.failed += phase.failed() as u64;
            out.check(phase.mismatches == 0, "served replies equal solo forwards");
            into.push(phase);
        }
        // One more set-up sample: a second server, started and shut down
        // while the measured one idles.
        time_into(&mut setup_s, || setup(build_net(args.seed), &inputs[0])).shutdown();
    }
    drop(client);
    let (nets, stats) = server.shutdown();
    match clock {
        None => {
            let m = &mut out.metrics;
            m.set("setup_s", median(&setup_s), "s");
            for (lane, name, phases) in [("lane_a_ms", "low", &low), ("lane_b_ms", "high", &high)] {
                let window =
                    |q: f64| -> Vec<f64> { phases.iter().map(|p| p.latency_ms(q)).collect() };
                m.set(lane, steady_latency(&window(0.9)), "ms");
                for q in [0.5, 0.99] {
                    println!(
                        "# serve p{} {name} (ms, per window): {:.2?}",
                        q * 100.0,
                        window(q)
                    );
                }
            }
            let qps: Vec<f64> = saturated.iter().map(Phase::served_qps).collect();
            println!("# serve saturated qps (1/s, per window): {qps:.0?}");
            m.set("lane_c_ms", steady_ms_per_op(&qps), "ms");
        }
        Some(clock) => {
            let served = ServeDelta::new(stats, stats_before);
            traced_metrics(
                &mut out,
                [&low, &high, &saturated],
                &clock.take_spans(),
                served,
            );
            let mut net = nets.into_iter().next().expect("one served network");
            for (s, before) in fwd_before.iter().enumerate() {
                let fwd_us = (clock.stage_ns(s).0 - before) as f64 / served.batches * 1e-3;
                let gflops = net.stage(s).flops_per_sample() as f64 * served.mean_batch() / fwd_us;
                out.metrics.set_stage("nn.fwd_us", s, fwd_us, "us");
                out.metrics
                    .set_stage("tensor.gflops", s, gflops * 1e-3, "GFLOP/s");
            }
            let overhead = forward_overhead(&mut net, args.seed, &inputs, served.mean_batch());
            out.metrics.set("trace.overhead_share", overhead, "share");
        }
    }
    out
}

/// Requests answered and batches dispatched during the measured phases.
#[derive(Clone, Copy)]
struct ServeDelta {
    replied: f64,
    batches: f64,
}

impl ServeDelta {
    fn new(after: ServeStats, before: ServeStats) -> Self {
        ServeDelta {
            replied: (after.replied - before.replied) as f64,
            batches: (after.batches - before.batches).max(1) as f64,
        }
    }

    fn mean_batch(&self) -> f64 {
        self.replied / self.batches
    }
}

/// Per-request split of latency into generator lateness, queue wait,
/// forward and reply delivery, from the traced forward spans. Requests
/// map onto batches in order: one worker serves FIFO batches. The split
/// and its table cover the open-loop lanes (`low`, `high`); the forward
/// figures cover every batch, the saturated lane's full ones included.
fn traced_metrics(
    out: &mut Outcome,
    [low, high, saturated]: [&[Phase]; 3],
    spans: &[ForwardSpan],
    served: ServeDelta,
) {
    // (record, sent by an open loop)
    let mut records: Vec<(&Record, bool)> = low
        .iter()
        .chain(high)
        .flat_map(|p| p.records.iter().map(|r| (r, true)))
        .chain(
            saturated
                .iter()
                .flat_map(|p| p.records.iter().map(|r| (r, false))),
        )
        .filter(|(r, _)| r.reply.is_some())
        .collect();
    records.sort_by_key(|(r, _)| r.submit);
    let mut owner = Vec::with_capacity(records.len());
    for (b, span) in spans.iter().enumerate() {
        owner.extend(std::iter::repeat_n(b, span.batch));
    }
    out.check(
        owner.len() == records.len(),
        "every served request maps onto one traced batch",
    );
    let ms = |d: Duration| d.as_secs_f64() * 1e3;
    let (mut late, mut wait, mut fwd, mut rest) = (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let mut latency = Vec::new();
    for ((r, open), &b) in records.iter().zip(&owner) {
        if !open {
            continue;
        }
        let span = &spans[b];
        latency.push(r.latency_ms());
        let reply = r.reply.expect("answered requests only");
        late.push(ms(r.submit - r.due));
        wait.push(ms(span.start.saturating_duration_since(r.submit)));
        fwd.push(ms(span.end - span.start));
        rest.push(ms(reply.saturating_duration_since(span.end)));
    }
    let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len().max(1) as f64;
    let forward_us: Vec<f64> = spans.iter().map(|s| ms(s.end - s.start) * 1e3).collect();
    let m = &mut out.metrics;
    m.set("serve.mean_batch", served.mean_batch(), "count");
    m.set("serve.forward_us", mean(&forward_us), "us");
    m.set("serve.queue_wait_ms.p50", quantile(&wait, 0.5), "ms");
    m.set("serve.queue_wait_ms.p99", quantile(&wait, 0.99), "ms");
    m.set("serve.gen_late_ms", mean(&late), "ms");
    m.set("pipeline.unattributed_us", mean(&rest) * 1e3, "us");
    println!(
        "# mean open-loop latency per request over {} requests (ms)",
        latency.len()
    );
    let rows = [
        ("generator lateness", mean(&late)),
        ("serve (queue wait and batching)", mean(&wait)),
        ("nn (batched eval forward)", mean(&fwd)),
        ("unattributed (reply delivery)", mean(&rest)),
    ];
    for (layer, v) in rows {
        println!("#   {layer:<42} {v:>10.4}");
    }
    println!(
        "#   {:<42} {:>10.4}",
        "total",
        rows.iter().map(|r| r.1).sum::<f64>()
    );
    println!("#   {:<42} {:>10.4}", "measured latency", mean(&latency));
}

/// Wall time of a wrapped eval forward over an unwrapped one at the
/// served mean batch size, minus one.
fn forward_overhead(wrapped: &mut Network, seed: u64, inputs: &[Tensor], mean_batch: f64) -> f64 {
    let batch = (mean_batch.round() as usize).clamp(1, inputs.len());
    let mut data = Vec::new();
    for x in &inputs[..batch] {
        data.extend_from_slice(x.as_slice());
    }
    let mut shape = vec![batch];
    shape.extend_from_slice(inputs[0].shape());
    let x = Tensor::from_vec(data, &shape).expect("batch shape");
    let mut plain = build_net(seed);
    plain.set_training(false);
    wrapped.set_training(false);
    let (mut tw, mut tp) = (Vec::new(), Vec::new());
    for _ in 0..32 {
        for (net, times) in [(&mut *wrapped, &mut tw), (&mut plain, &mut tp)] {
            let t = Instant::now();
            std::hint::black_box(net.forward(&x));
            times.push(t.elapsed().as_secs_f64());
            net.clear_stash();
        }
    }
    median(&tw) / median(&tp) - 1.0
}
