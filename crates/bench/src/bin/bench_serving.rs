//! Serving benchmark: dynamic batching vs per-sample inference on a CNN.
//!
//! Three lanes over the same `simple_cnn` network:
//!
//! * **baseline** — a sequential per-sample forward loop (no server): the
//!   throughput the repo had before batched conv lowering, and the
//!   reference every served reply is compared to bit for bit.
//! * **closed-loop** — all requests queued against a one-worker
//!   [`Server`] at several batch budgets; QPS isolates what batching alone
//!   buys (`max_batch: 1` runs the identical machinery without
//!   coalescing).
//! * **open-loop** — requests arrive on a fixed interval at ~35% of the
//!   closed-loop batch-64 capacity, measuring the p50/p99 latency a client
//!   actually sees when the server is not saturated.
//!
//! Writes `results/BENCH_serving.json`. The acceptance bar is the
//! `speedup_vs_baseline_at_64` field: batched CNN serving must beat the
//! per-sample baseline by ≥ 3×. `PBP_BENCH_SMOKE=1` runs a scaled-down
//! pass with every assertion live and leaves the committed JSON untouched.

use pbp_bench::{percentile, Table};
use pbp_nn::models::vgg_cnn;
use pbp_nn::Network;
use pbp_serve::{ServeConfig, Server};
use pbp_tensor::{normal, Tensor};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::fmt::Write as _;
use std::time::{Duration, Instant};

const IN_CHANNELS: usize = 3;
const WIDTH: usize = 16;
const DEPTH: usize = 2;
const HIDDEN: usize = 256;
const CLASSES: usize = 10;
const IMAGE: usize = 16;

/// The served model: a small VGG-style classifier (conv trunk + fc head).
/// The fc head makes batch-1 inference memory-bound on the fc weights, so
/// batching pays exactly where it does for real serving workloads.
fn build_net() -> Network {
    vgg_cnn(
        IN_CHANNELS,
        WIDTH,
        DEPTH,
        IMAGE,
        HIDDEN,
        CLASSES,
        &mut StdRng::seed_from_u64(42),
    )
}

fn request_inputs(n: usize, seed: u64) -> Vec<Tensor> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n)
        .map(|_| normal(&[IN_CHANNELS, IMAGE, IMAGE], 0.0, 1.0, &mut rng))
        .collect()
}

struct Lane {
    qps: f64,
    p50_us: f64,
    p99_us: f64,
    max_coalesced: usize,
    batches: u64,
}

/// Sequential per-sample forward loop in eval mode — the pre-serving
/// baseline. Returns the lane plus the per-input reference logits.
fn baseline_lane(inputs: &[Tensor]) -> (Lane, Vec<Tensor>) {
    let mut net = build_net();
    net.set_training(false);
    let mut latencies = Vec::with_capacity(inputs.len());
    let mut replies = Vec::with_capacity(inputs.len());
    let started = Instant::now();
    for x in inputs {
        let t = Instant::now();
        let mut shape = vec![1];
        shape.extend_from_slice(x.shape());
        let batched = Tensor::from_vec(x.as_slice().to_vec(), &shape).unwrap();
        let y = net.forward(&batched);
        net.clear_stash();
        replies.push(Tensor::from_vec(y.as_slice().to_vec(), &y.shape()[1..]).unwrap());
        latencies.push(t.elapsed().as_secs_f64() * 1e6);
    }
    let wall = started.elapsed().as_secs_f64();
    (
        Lane {
            qps: inputs.len() as f64 / wall,
            p50_us: percentile(&latencies, 0.5),
            p99_us: percentile(&latencies, 0.99),
            max_coalesced: 1,
            batches: inputs.len() as u64,
        },
        replies,
    )
}

fn assert_replies_match(got: &Tensor, want: &Tensor, context: &str) {
    assert_eq!(got.shape(), want.shape(), "{context}: shape");
    for (i, (g, w)) in got.as_slice().iter().zip(want.as_slice()).enumerate() {
        assert!(
            g.to_bits() == w.to_bits(),
            "{context}: element {i} differs: {g} vs {w}"
        );
    }
}

/// All requests queued up front against a one-worker server: throughput
/// under saturation. Latencies include queueing, so QPS is the headline
/// number; every reply is checked bit-identical to the baseline.
fn closed_loop_lane(inputs: &[Tensor], reference: &[Tensor], max_batch: usize) -> Lane {
    let server = Server::start(
        vec![build_net()],
        ServeConfig {
            max_batch,
            deadline: Duration::from_micros(500),
            // Every request is in the queue at once.
            queue: inputs.len(),
        },
    );
    let client = server.client();
    let started = Instant::now();
    let pendings: Vec<_> = inputs
        .iter()
        .map(|x| {
            (
                Instant::now(),
                client.submit(x.clone()).expect("submit under load"),
            )
        })
        .collect();
    let mut latencies = Vec::with_capacity(inputs.len());
    for (i, (submitted, pending)) in pendings.into_iter().enumerate() {
        let reply = pending.wait().expect("closed-loop reply");
        latencies.push(submitted.elapsed().as_secs_f64() * 1e6);
        assert_replies_match(&reply, &reference[i], "closed-loop reply");
    }
    let wall = started.elapsed().as_secs_f64();
    let (_, stats) = server.shutdown();
    Lane {
        qps: inputs.len() as f64 / wall,
        p50_us: percentile(&latencies, 0.5),
        p99_us: percentile(&latencies, 0.99),
        max_coalesced: stats.max_coalesced,
        batches: stats.batches,
    }
}

/// Fixed-interval arrivals below capacity: the latency a client sees when
/// the batcher's deadline — not the queue — shapes the batches. The wider
/// deadline lets batches grow enough that the per-sample service rate
/// comfortably exceeds the arrival rate.
fn open_loop_lane(inputs: &[Tensor], reference: &[Tensor], target_qps: f64) -> (Lane, f64) {
    let server = Server::start(
        vec![build_net()],
        ServeConfig {
            max_batch: 64,
            deadline: Duration::from_millis(2),
            ..ServeConfig::default()
        },
    );
    let client = server.client();
    let interval = Duration::from_secs_f64(1.0 / target_qps);
    // A collector thread drains replies in FIFO order *while* arrivals
    // continue, stamping each latency the moment its reply is available —
    // replies come back in submission order (FIFO batcher), so the wait
    // only blocks on genuinely outstanding work.
    let (tx, rx) = std::sync::mpsc::channel();
    let reference = reference.to_vec();
    let collector = std::thread::spawn(move || {
        let mut latencies = Vec::new();
        for (i, (submitted, pending)) in rx.iter().enumerate() {
            let pending: pbp_serve::Pending = pending;
            let submitted: Instant = submitted;
            let reply = pending.wait().expect("open-loop reply");
            latencies.push(submitted.elapsed().as_secs_f64() * 1e6);
            assert_replies_match(&reply, &reference[i], "open-loop reply");
        }
        latencies
    });
    let started = Instant::now();
    for (i, x) in inputs.iter().enumerate() {
        let due = started + interval * i as u32;
        if let Some(sleep) = due.checked_duration_since(Instant::now()) {
            std::thread::sleep(sleep);
        }
        let pending = client.submit(x.clone()).expect("submit");
        tx.send((Instant::now(), pending)).expect("collector alive");
    }
    drop(tx);
    let latencies = collector.join().expect("collector thread");
    let wall = started.elapsed().as_secs_f64();
    let (_, stats) = server.shutdown();
    (
        Lane {
            qps: inputs.len() as f64 / wall,
            p50_us: percentile(&latencies, 0.5),
            p99_us: percentile(&latencies, 0.99),
            max_coalesced: stats.max_coalesced,
            batches: stats.batches,
        },
        target_qps,
    )
}

fn main() {
    let smoke = std::env::var_os("PBP_BENCH_SMOKE").is_some();
    let n = if smoke { 256 } else { 2048 };
    let inputs = request_inputs(n, 7);

    println!("== Serving benchmark: dynamic batching vs per-sample inference ==");
    println!(
        "(vgg_cnn {IN_CHANNELS}x{IMAGE}x{IMAGE} -> {CLASSES} classes, width {WIDTH}, depth \
         {DEPTH}, fc {HIDDEN}; {n} requests; every served reply bit-identical to the baseline \
         forward)\n"
    );

    let (baseline, reference) = baseline_lane(&inputs);

    let budgets: &[usize] = if smoke { &[1, 64] } else { &[1, 8, 64] };
    let closed: Vec<(usize, Lane)> = budgets
        .iter()
        .map(|&b| (b, closed_loop_lane(&inputs, &reference, b)))
        .collect();

    let batch64 = &closed.last().expect("batch-64 lane").1;
    let open_target = (batch64.qps * 0.35).max(50.0);
    let (open, target_qps) = open_loop_lane(&inputs, &reference, open_target);

    let mut table = Table::new([
        "serving lane",
        "qps",
        "p50 us",
        "p99 us",
        "max batch seen",
        "batches",
        "x vs baseline",
    ]);
    table.row([
        "baseline (per-sample loop)".to_string(),
        format!("{:.0}", baseline.qps),
        format!("{:.0}", baseline.p50_us),
        format!("{:.0}", baseline.p99_us),
        "1".to_string(),
        format!("{}", baseline.batches),
        "1.0".to_string(),
    ]);
    for (budget, lane) in &closed {
        table.row([
            format!("closed-loop max_batch={budget}"),
            format!("{:.0}", lane.qps),
            format!("{:.0}", lane.p50_us),
            format!("{:.0}", lane.p99_us),
            format!("{}", lane.max_coalesced),
            format!("{}", lane.batches),
            format!("{:.2}", lane.qps / baseline.qps),
        ]);
    }
    table.row([
        format!("open-loop @ {target_qps:.0} qps"),
        format!("{:.0}", open.qps),
        format!("{:.0}", open.p50_us),
        format!("{:.0}", open.p99_us),
        format!("{}", open.max_coalesced),
        format!("{}", open.batches),
        format!("{:.2}", open.qps / baseline.qps),
    ]);
    table.print();

    let speedup = batch64.qps / baseline.qps;
    println!("\nbatch-64 closed-loop speedup vs per-sample baseline: {speedup:.2}x");
    assert!(
        batch64.max_coalesced > 1,
        "closed-loop batch-64 lane never coalesced"
    );

    if smoke {
        println!("smoke mode: results/BENCH_serving.json left untouched");
        return;
    }
    assert!(
        speedup >= 3.0,
        "acceptance: batched CNN serving must be >= 3x the per-sample baseline, got {speedup:.2}x"
    );

    let mut json = String::from("{\n  \"bench\": \"serving\",\n");
    let _ = writeln!(
        json,
        "  \"model\": \"vgg_cnn({IN_CHANNELS},{WIDTH},{DEPTH},{IMAGE},{HIDDEN},{CLASSES}) @ \
         {IN_CHANNELS}x{IMAGE}x{IMAGE}\",\n  \"requests\": {n},\n  \"workers\": 1,"
    );
    let lane_json = |name: &str, lane: &Lane| {
        format!(
            "  \"{name}\": {{\"qps\": {:.1}, \"p50_us\": {:.1}, \"p99_us\": {:.1}, \
             \"max_coalesced\": {}, \"batches\": {}}}",
            lane.qps, lane.p50_us, lane.p99_us, lane.max_coalesced, lane.batches
        )
    };
    let _ = writeln!(json, "{},", lane_json("baseline", &baseline));
    json.push_str("  \"closed_loop\": [\n");
    for (i, (budget, lane)) in closed.iter().enumerate() {
        let _ = writeln!(
            json,
            "    {{\"max_batch\": {budget}, \"qps\": {:.1}, \"p50_us\": {:.1}, \
             \"p99_us\": {:.1}, \"max_coalesced\": {}, \"batches\": {}}}{}",
            lane.qps,
            lane.p50_us,
            lane.p99_us,
            lane.max_coalesced,
            lane.batches,
            if i + 1 < closed.len() { "," } else { "" }
        );
    }
    json.push_str("  ],\n");
    let _ = writeln!(
        json,
        "  \"open_loop_target_qps\": {target_qps:.1},\n{},",
        lane_json("open_loop", &open)
    );
    let _ = writeln!(
        json,
        "  \"speedup_vs_baseline_at_64\": {speedup:.2},\n  \"replies_bit_identical\": true\n}}"
    );
    std::fs::create_dir_all("results").expect("results dir");
    std::fs::write("results/BENCH_serving.json", &json).expect("write BENCH_serving.json");
    println!("wrote results/BENCH_serving.json");
}
