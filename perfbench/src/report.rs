//! Metric collection and the result line.

/// The end-to-end metrics every untraced run prints, with their units.
/// Each workload fills the three lane slots with its own lanes (see the
/// workload modules): per-operation milliseconds at steady state, lower
/// is better.
pub const END_TO_END: [(&str, &str); 4] = [
    ("setup_s", "s"),
    ("lane_a_ms", "ms"),
    ("lane_b_ms", "ms"),
    ("lane_c_ms", "ms"),
];

/// Stage slots in per-stage metric names (`.s0` … `.s7`): `simple_cnn`,
/// the deepest network here, has eight layer stages.
pub const MAX_STAGES: usize = 8;

/// Per-stage metric families: name prefix and unit.
const PER_STAGE: [(&str, &str); 8] = [
    ("tensor.gflops", "GFLOP/s"),
    ("nn.fwd_us", "us"),
    ("nn.bwd_input_us", "us"),
    ("nn.bwd_weight_us", "us"),
    ("optim.step_us", "us"),
    ("optim.predict_us", "us"),
    ("pipeline.cell_overhead_us", "us"),
    ("pipeline.busy_share", "share"),
];

/// Per-layer metrics that are not per stage.
const PER_LAYER: [(&str, &str); 15] = [
    ("tensor.peak_gflops", "GFLOP/s"),
    ("pipeline.version_bytes_per_mb", "B"),
    ("pipeline.unattributed_us", "us"),
    ("dist.frames_per_mb.data", "count"),
    ("dist.frames_per_mb.ack", "count"),
    ("dist.bytes_per_mb", "B"),
    ("dist.send_us", "us"),
    ("dist.recv_wait_us", "us"),
    ("dist.encode_us", "us"),
    ("dist.decode_us", "us"),
    ("serve.mean_batch", "count"),
    ("serve.forward_us", "us"),
    ("serve.queue_wait_ms.p50", "ms"),
    ("serve.queue_wait_ms.p99", "ms"),
    ("serve.gen_late_ms", "ms"),
];

/// Every per-layer metric, in output order. A traced run prints all of
/// them; a layer that does no work in a workload reads 0.
pub fn per_layer_metrics() -> Vec<(String, &'static str)> {
    let mut all: Vec<(String, &'static str)> =
        PER_LAYER.iter().map(|&(n, u)| (n.to_string(), u)).collect();
    for (prefix, unit) in PER_STAGE {
        all.extend((0..MAX_STAGES).map(|s| (format!("{prefix}.s{s}"), unit)));
    }
    all.push(("trace.overhead_share".into(), "share"));
    all
}

/// Named metric values with units, in insertion order.
#[derive(Debug, Default)]
pub struct Metrics(Vec<(String, f64, &'static str)>);

impl Metrics {
    /// Adds a metric.
    pub fn set(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.0.push((name.into(), value, unit));
    }

    /// Sets a per-stage metric `<prefix>.s<stage>`.
    pub fn set_stage(&mut self, prefix: &str, stage: usize, value: f64, unit: &'static str) {
        assert!(stage < MAX_STAGES, "stage {stage} has no metric slot");
        self.set(format!("{prefix}.s{stage}"), value, unit);
    }

    fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|(n, _, _)| n == name).map(|m| m.1)
    }
}

/// The outcome of one run.
#[derive(Debug, Default)]
pub struct Outcome {
    /// False when any output check failed.
    pub correct: bool,
    /// Operations attempted (microbatches trained, requests sent).
    pub attempted: u64,
    /// Operations that ended in a typed error.
    pub failed: u64,
    pub metrics: Metrics,
}

impl Outcome {
    /// A run that has passed no check yet.
    pub fn new() -> Self {
        Outcome {
            correct: true,
            ..Outcome::default()
        }
    }

    /// Records a check; a failed one is reported on standard error.
    pub fn check(&mut self, ok: bool, what: &str) {
        if !ok {
            eprintln!("perfbench: check failed: {what}");
            self.correct = false;
        }
    }

    /// Prints the result line. Traced runs list every per-layer metric
    /// (0 where the workload's layers did no such work); untraced runs
    /// must have set exactly the [`END_TO_END`] metrics. A run whose
    /// checks failed, or that measured a non-finite value, reports no
    /// numbers.
    pub fn print(mut self, traced: bool) {
        self.check(self.attempted > 0, "no operation was attempted");
        if traced {
            let mut ordered = Metrics::default();
            for (name, unit) in per_layer_metrics() {
                let value = self.metrics.get(&name).unwrap_or(0.0);
                ordered.set(name, value, unit);
            }
            self.metrics = ordered;
        } else {
            let set: Vec<(&str, &str)> = self
                .metrics
                .0
                .iter()
                .map(|(n, _, u)| (n.as_str(), *u))
                .collect();
            let ok = set.len() == END_TO_END.len() && END_TO_END.iter().all(|m| set.contains(m));
            self.check(ok, "the run set exactly the end-to-end metrics");
        }
        if let Some((name, value, _)) = self.metrics.0.iter().find(|m| !m.1.is_finite()) {
            eprintln!("perfbench: check failed: {name} measured {value}");
            self.correct = false;
        }
        let metrics = if self.correct {
            self.metrics
                .0
                .iter()
                .map(|(n, v, u)| format!("\"{n}\": {{\"value\": {v}, \"unit\": \"{u}\"}}"))
                .collect::<Vec<_>>()
                .join(", ")
        } else {
            String::new()
        };
        println!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
            self.correct,
            self.attempted.max(1),
            self.failed
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn per_layer_names_are_unique_and_within_the_cap() {
        let names = per_layer_metrics();
        let mut sorted: Vec<_> = names.iter().map(|(n, _)| n.clone()).collect();
        sorted.sort();
        sorted.dedup();
        assert_eq!(sorted.len(), names.len());
        assert!(names.len() <= 128);
    }
}
