//! Distributed-pipeline throughput lane: times the socket-transport
//! runner against the single-process engines on one fixed workload and
//! writes samples/sec per lane to `results/BENCH_dist.json`.
//!
//! Lanes:
//! * `sequential` — the ScheduledTrainer PB emulation (one thread, no
//!   transport), the bit-exactness reference;
//! * `threaded` — the in-process threaded pipeline: one thread per stage
//!   running the shared stage-group loop over channels;
//! * `dist-unix wN` — N rank threads chained over Unix-domain sockets,
//!   every activation/gradient framed through the wire codec.
//!
//! The threaded and distributed lanes are verified bit-identical to the
//! sequential lane before their timing is recorded, so the numbers can't
//! drift away from a correct run. `PBP_BENCH_SMOKE=1` shrinks the workload
//! for the scripts/check.sh gate and leaves the committed
//! `results/BENCH_dist.json` untouched.

use pbp_data::{spirals, Dataset};
use pbp_dist::{
    run_rank, splice_owned_stages, LinkEndpoint, RankOutcome, RankRecovery, RankSpec, Topology,
    Transport,
};
use pbp_nn::models::mlp;
use pbp_nn::Network;
use pbp_optim::{Hyperparams, LrSchedule, Mitigation};
use pbp_pipeline::{
    MicrobatchSchedule, ScheduledConfig, ScheduledTrainer, ThreadedConfig, ThreadedPipeline,
    TrainEngine,
};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::{Duration, Instant};

const NET_SEED: u64 = 0xBE7C;
const ORDER_SEED: u64 = 9;

struct LaneResult {
    label: String,
    samples: usize,
    wall: Duration,
}

impl LaneResult {
    fn samples_per_sec(&self) -> f64 {
        self.samples as f64 / self.wall.as_secs_f64().max(1e-9)
    }
}

fn fresh_net(layers: &[usize]) -> Network {
    let mut rng = StdRng::seed_from_u64(NET_SEED);
    mlp(layers, &mut rng)
}

fn schedule() -> LrSchedule {
    LrSchedule::constant(Hyperparams::new(0.05, 0.9))
}

/// Sequential reference: returns the lane timing plus the final network
/// the distributed lanes must reproduce.
fn run_sequential(layers: &[usize], data: &Dataset, epochs: usize) -> (LaneResult, Network) {
    let config = ScheduledConfig::new(MicrobatchSchedule::PipelinedBackprop, schedule());
    let mut trainer = ScheduledTrainer::new(fresh_net(layers), config);
    let start = Instant::now();
    for epoch in 0..epochs {
        trainer.train_epoch(data, ORDER_SEED, epoch);
    }
    let wall = start.elapsed();
    (
        LaneResult {
            label: "sequential PB".into(),
            samples: epochs * data.len(),
            wall,
        },
        trainer.into_network(),
    )
}

fn run_threaded(
    layers: &[usize],
    data: &Dataset,
    epochs: usize,
    reference: &Network,
) -> LaneResult {
    let mut engine = ThreadedPipeline::new(fresh_net(layers), ThreadedConfig::pb(schedule()));
    let start = Instant::now();
    for epoch in 0..epochs {
        TrainEngine::train_epoch(&mut engine, data, ORDER_SEED, epoch);
    }
    let wall = start.elapsed();
    assert_bit_identical(&engine.into_network(), reference, "threaded");
    LaneResult {
        label: "threaded PB".into(),
        samples: epochs * data.len(),
        wall,
    }
}

/// Differential guard: a fast-but-wrong lane must not be reported.
fn assert_bit_identical(net: &Network, reference: &Network, lane: &str) {
    for s in 0..net.num_stages() {
        for (p, q) in net
            .stage(s)
            .params()
            .iter()
            .zip(reference.stage(s).params())
        {
            for (x, y) in p.as_slice().iter().zip(q.as_slice()) {
                assert_eq!(
                    x.to_bits(),
                    y.to_bits(),
                    "{lane} stage {s} diverged from the sequential reference"
                );
            }
        }
    }
}

/// Times a `world`-rank socket run and checks it against the sequential
/// reference before reporting.
fn run_dist(
    layers: &[usize],
    data: &Dataset,
    epochs: usize,
    world: usize,
    reference: &Network,
) -> LaneResult {
    let dir = std::env::temp_dir().join(format!("pbp_bench_dist_w{world}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let transport = Transport::Unix { dir: dir.clone() };
    let topology = Topology::contiguous(layers.len() - 1, world).expect("valid partition");
    let total = epochs * data.len();
    let stall = Duration::from_secs(30);
    let start = Instant::now();
    let mut handles = Vec::new();
    for rank in 0..world {
        let spec = RankSpec {
            rank,
            topology: topology.clone(),
            plan: MicrobatchSchedule::PipelinedBackprop,
            mitigation: Mitigation::None,
            weight_stashing: false,
            schedule: schedule(),
            seed: ORDER_SEED,
            total_microbatches: total,
            stall,
            snapshots: None,
            resume_at: 0,
            abort_after: None,
            recovery: RankRecovery::default(),
        };
        let transport = transport.clone();
        let data = data.clone();
        let layers = layers.to_vec();
        handles.push(std::thread::spawn(move || {
            let down = (rank + 1 < world)
                .then(|| LinkEndpoint::Listen(transport.listen(rank).expect("bind")));
            let up = (rank > 0).then(|| LinkEndpoint::Dial {
                transport: transport.clone(),
                link: rank - 1,
            });
            run_rank(fresh_net(&layers), &data, &spec, up, down, None).expect("rank run")
        }));
    }
    let outcomes: Vec<RankOutcome> = handles
        .into_iter()
        .map(|h| h.join().expect("rank thread"))
        .collect();
    let wall = start.elapsed();
    let _ = std::fs::remove_dir_all(&dir);

    let mut net = fresh_net(layers);
    let nets: Vec<Network> = outcomes.into_iter().map(|o| o.net).collect();
    splice_owned_stages(&mut net, &topology, &nets);
    assert_bit_identical(&net, reference, &format!("dist w{world}"));
    LaneResult {
        label: format!("dist-unix w{world} PB"),
        samples: total,
        wall,
    }
}

fn main() {
    let smoke = std::env::var_os("PBP_BENCH_SMOKE").is_some();
    let layers: Vec<usize> = if smoke {
        vec![2, 24, 16, 12, 3]
    } else {
        vec![2, 64, 64, 48, 3]
    };
    let data = if smoke {
        spirals(3, 16, 0.05, 2) // 48 samples
    } else {
        spirals(3, 64, 0.05, 7) // 192 samples
    };
    let epochs = if smoke { 1 } else { 4 };
    let total = epochs * data.len();
    eprintln!(
        "== bench_dist: {total} microbatches, layers {layers:?}{} ==",
        if smoke { " (smoke)" } else { "" }
    );

    let (seq, reference) = run_sequential(&layers, &data, epochs);
    let mut lanes = vec![seq];
    lanes.push(run_threaded(&layers, &data, epochs, &reference));
    for world in [2usize, 4] {
        lanes.push(run_dist(&layers, &data, epochs, world, &reference));
    }

    let mut json = String::from("{\n");
    json.push_str(&format!(
        "  \"workload\": {{\"layers\": {layers:?}, \"samples\": {total}, \"plan\": \"PB\"}},\n"
    ));
    json.push_str("  \"lanes\": [\n");
    for (i, lane) in lanes.iter().enumerate() {
        eprintln!(
            "   {:<18} {:>8} samples in {:>8.1} ms -> {:>9.0} samples/s",
            lane.label,
            lane.samples,
            lane.wall.as_secs_f64() * 1e3,
            lane.samples_per_sec()
        );
        json.push_str(&format!(
            "    {{\"engine\": \"{}\", \"samples\": {}, \"wall_ns\": {}, \"samples_per_sec\": {:.1}}}{}\n",
            lane.label,
            lane.samples,
            lane.wall.as_nanos(),
            lane.samples_per_sec(),
            if i + 1 < lanes.len() { "," } else { "" }
        ));
    }
    json.push_str("  ]\n}\n");
    if smoke {
        eprintln!("   smoke mode: results/BENCH_dist.json left untouched");
        return;
    }
    std::fs::create_dir_all("results").expect("results dir");
    std::fs::write("results/BENCH_dist.json", json).expect("write results/BENCH_dist.json");
    eprintln!("   wrote results/BENCH_dist.json");
}
