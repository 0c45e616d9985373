//! The repository benchmark: steady-state end-to-end metrics of three
//! workloads, and per-layer metrics from a separate traced run.
//!
//! ```text
//! cargo run --release --offline -q --manifest-path perfbench/Cargo.toml -- \
//!     --workload <train-cnn|train-mlp-pipe|serve-vgg> --seed <n> \
//!     --seconds <s> --trace <0|1> [--tiny]
//! ```
//!
//! Every workload prints the same end-to-end metrics: `setup_s` and one
//! figure for each of its three lanes, `lane_a_ms`, `lane_b_ms` and
//! `lane_c_ms`, in milliseconds per operation (lower is better).
//!
//! | workload         | lane a            | lane b         | lane c               |
//! |------------------|-------------------|----------------|----------------------|
//! | `train-cnn`      | PB+LWPvD+SCD      | SGDM           | plain PB             |
//! | `train-mlp-pipe` | sequential PB     | threaded PB    | dist-w2 PB           |
//! | `serve-vgg`      | p90 at 1,000/s    | p90 at 2,000/s | saturated, per reply |
//!
//! * `train-cnn` — sequential-core PB+LWPvD+SCD at update size one on
//!   `simple_cnn` over CIFAR-sim, against plain SGDM and unmitigated PB on
//!   the same task; milliseconds per sample ([`train_cnn`]).
//! * `train-mlp-pipe` — a 2-stage weight-heavy MLP trained with PB by the
//!   sequential core, the threaded runtime and two `run_rank` threads over
//!   Unix sockets; milliseconds per sample ([`mlp_pipe`]).
//! * `serve-vgg` — open-loop requests at two fixed rates (p90 latency) and
//!   a saturating closed loop (milliseconds per served request) against
//!   `pbp-serve` with one eval worker on `vgg_cnn` ([`serve_vgg`]).
//!
//! Every input is generated from `--seed`; the program receives only the
//! generated inputs. Set-up (data, nets, threads, sockets, server) is
//! timed outside every timed window: once before the first round of
//! windows and once more after each round, so that a burst of load on the
//! shared machine moves few of the samples; `setup_s` is their median.
//! Every run checks
//! its outputs; a run whose check fails reports `"correct": false` and no
//! numbers. Typed errors are counted as failed operations, never fatal.
//!
//! The last line of standard output is the result object
//! `{"correct", "attempted", "failed", "metrics"}`: end-to-end metrics with
//! `--trace 0`, per-layer metrics with `--trace 1`. Earlier lines starting
//! with `#` record the machine, the seed and (traced) the per-layer
//! reconciliation against wall time. `--tiny` runs every output check at
//! a tiny scale in about a second (all but `train-cnn`'s full-budget
//! quality guard) for the benchmark's own tests. No mode writes a file.

mod feed;
mod mlp_pipe;
mod replay;
mod report;
mod serve_vgg;
mod stats;
mod timed;
mod train_cnn;

use report::Outcome;

/// Command-line settings of one run.
#[derive(Debug)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub tiny: bool,
}

const USAGE: &str = "usage: perfbench --workload <train-cnn|train-mlp-pipe|serve-vgg> \
                     --seed <n> --seconds <s> --trace <0|1> [--tiny]";

fn parse_args(mut raw: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace, mut tiny) =
        (None, None, None, None, false);
    while let Some(flag) = raw.next() {
        if flag == "--tiny" {
            tiny = true;
            continue;
        }
        let value = raw.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err("--seconds must be positive".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !["train-cnn", "train-mlp-pipe", "serve-vgg"].contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}"));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        tiny,
    })
}

/// The source revision when the benchmark runs inside a git checkout;
/// `unknown` in a plain source tree.
fn git_rev() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "--short=12", "HEAD"])
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".into())
}

fn main() {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let peak = pbp_trace::mfu::measure_peak_gflops();
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!(
        "# machine {{\"nproc\": {nproc}, \"simd\": \"{}\", \"PBP_THREADS\": \"{}\", \
         \"pool_threads\": {}, \"git_rev\": \"{}\", \"peak_gflops\": {peak:.2}, \
         \"workload\": \"{}\", \"seed\": {}, \"seconds\": {}, \"trace\": {}, \"tiny\": {}}}",
        pbp_tensor::ops::simd::active_tier().name(),
        std::env::var("PBP_THREADS").unwrap_or_default(),
        pbp_tensor::pool::configured_threads(),
        git_rev(),
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        args.tiny,
    );
    let mut outcome: Outcome = match args.workload.as_str() {
        "train-cnn" => train_cnn::run(&args),
        "train-mlp-pipe" => mlp_pipe::run(&args),
        _ => serve_vgg::run(&args),
    };
    if args.trace {
        outcome.metrics.set("tensor.peak_gflops", peak, "GFLOP/s");
    }
    outcome.print(args.trace);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(line: &str) -> Result<Args, String> {
        parse_args(line.split_whitespace().map(String::from))
    }

    #[test]
    fn parses_a_full_command_line() {
        let a = parse("--workload serve-vgg --seed 7 --seconds 10 --trace 1").unwrap();
        assert_eq!(a.workload, "serve-vgg");
        assert_eq!(a.seed, 7);
        assert_eq!(a.seconds, 10.0);
        assert!(a.trace && !a.tiny);
        assert!(
            parse("--tiny --workload train-cnn --seed 1 --seconds 1 --trace 0")
                .unwrap()
                .tiny
        );
    }

    #[test]
    fn rejects_bad_command_lines() {
        assert!(parse("--workload nope --seed 1 --seconds 1 --trace 0").is_err());
        assert!(parse("--workload train-cnn --seed 1 --seconds 1 --trace 2").is_err());
        assert!(parse("--workload train-cnn --seed x --seconds 1 --trace 0").is_err());
        assert!(parse("--workload train-cnn --seconds 1 --trace 0").is_err());
        assert!(parse("--workload train-cnn --seed 1 --seconds 0 --trace 0").is_err());
        assert!(parse("--workload train-cnn --seed 1 --seconds 1 --trace").is_err());
    }
}
