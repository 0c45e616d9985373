//! Layer-boundary timing for traced runs.
//!
//! [`wrap_network`] replaces every layer of a network with a
//! [`TimedLayer`] that delegates each call to the original layer and adds
//! the call's duration to its stage's counters. The wrapper only measures:
//! it forwards every `Layer` method, so a wrapped network computes
//! bit-identical results (the traced replay checks exactly that). Timing
//! lives here, in the benchmark, rather than as spans inside the program.

use pbp_nn::{LaneStack, Layer, Network};
use pbp_snapshot::SnapshotError;
use pbp_tensor::Tensor;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Nanoseconds spent inside one stage's layers, split by call kind.
#[derive(Default)]
pub struct StageClock {
    /// `Layer::forward`.
    pub fwd_ns: AtomicU64,
    /// `Layer::backward_input`, fused `Layer::backward` and `zero_grads`.
    pub bwd_input_ns: AtomicU64,
    /// `Layer::backward_weight`.
    pub bwd_weight_ns: AtomicU64,
}

/// One whole-network forward pass seen by a wrapped network: when its
/// first layer started, when its last layer ended, and the batch size.
#[derive(Debug, Clone, Copy)]
pub struct ForwardSpan {
    pub start: Instant,
    pub end: Instant,
    pub batch: usize,
}

/// Shared counters of a wrapped network.
pub struct NetClock {
    pub stages: Vec<StageClock>,
    /// Forward spans in call order (recorded only when requested: the
    /// serving workload maps requests onto batches with them).
    spans: Option<Mutex<Vec<ForwardSpan>>>,
    open: Mutex<Option<(Instant, usize)>>,
}

impl NetClock {
    /// Total nanoseconds of stage `s` in each call kind:
    /// `(forward, backward_input, backward_weight)`.
    pub fn stage_ns(&self, s: usize) -> (u64, u64, u64) {
        let c = &self.stages[s];
        (
            c.fwd_ns.load(Ordering::Relaxed),
            c.bwd_input_ns.load(Ordering::Relaxed),
            c.bwd_weight_ns.load(Ordering::Relaxed),
        )
    }

    /// Takes the recorded forward spans (empty unless recording).
    pub fn take_spans(&self) -> Vec<ForwardSpan> {
        self.spans
            .as_ref()
            .map(|m| std::mem::take(&mut *m.lock().expect("span log poisoned")))
            .unwrap_or_default()
    }

    fn add(counter: &AtomicU64, since: Instant) {
        counter.fetch_add(since.elapsed().as_nanos() as u64, Ordering::Relaxed);
    }
}

/// A layer whose calls are timed into a [`NetClock`].
struct TimedLayer {
    inner: Box<dyn Layer>,
    clock: Arc<NetClock>,
    stage: usize,
    /// First layer of the first stage / last layer of the last stage:
    /// these open and close whole-network forward spans.
    first: bool,
    last: bool,
}

impl Layer for TimedLayer {
    fn name(&self) -> String {
        self.inner.name()
    }

    fn forward(&mut self, stack: &mut LaneStack) {
        if self.first && self.clock.spans.is_some() {
            if let Some(top) = stack.last() {
                *self.clock.open.lock().expect("span log poisoned") =
                    Some((Instant::now(), top.shape()[0]));
            }
        }
        let t = Instant::now();
        self.inner.forward(stack);
        NetClock::add(&self.clock.stages[self.stage].fwd_ns, t);
        if self.last {
            if let (Some(spans), Some((start, batch))) = (
                self.clock.spans.as_ref(),
                self.clock.open.lock().expect("span log poisoned").take(),
            ) {
                spans.lock().expect("span log poisoned").push(ForwardSpan {
                    start,
                    end: Instant::now(),
                    batch,
                });
            }
        }
    }

    fn backward(&mut self, grad_stack: &mut LaneStack) {
        let t = Instant::now();
        self.inner.backward(grad_stack);
        NetClock::add(&self.clock.stages[self.stage].bwd_input_ns, t);
    }

    fn backward_input(&mut self, grad_stack: &mut LaneStack) {
        let t = Instant::now();
        self.inner.backward_input(grad_stack);
        NetClock::add(&self.clock.stages[self.stage].bwd_input_ns, t);
    }

    fn backward_weight(&mut self) {
        let t = Instant::now();
        self.inner.backward_weight();
        NetClock::add(&self.clock.stages[self.stage].bwd_weight_ns, t);
    }

    fn params(&self) -> Vec<&Tensor> {
        self.inner.params()
    }

    fn params_mut(&mut self) -> Vec<&mut Tensor> {
        self.inner.params_mut()
    }

    fn grads(&self) -> Vec<&Tensor> {
        self.inner.grads()
    }

    fn params_and_grads(&mut self) -> Vec<(&mut Tensor, &Tensor)> {
        self.inner.params_and_grads()
    }

    fn zero_grads(&mut self) {
        let t = Instant::now();
        self.inner.zero_grads();
        NetClock::add(&self.clock.stages[self.stage].bwd_input_ns, t);
    }

    fn set_training(&mut self, training: bool) {
        self.inner.set_training(training);
    }

    fn clear_stash(&mut self) {
        self.inner.clear_stash();
    }

    fn param_count(&self) -> usize {
        self.inner.param_count()
    }

    fn flops_per_sample(&self) -> u64 {
        self.inner.flops_per_sample()
    }

    fn state_bytes(&self) -> Option<Vec<u8>> {
        self.inner.state_bytes()
    }

    fn load_state_bytes(&mut self, bytes: &[u8]) -> Result<(), SnapshotError> {
        self.inner.load_state_bytes(bytes)
    }
}

/// Stands in for a layer for the instant it is moved into its wrapper.
struct Vacant;

impl Layer for Vacant {
    fn name(&self) -> String {
        "vacant".into()
    }

    fn forward(&mut self, _stack: &mut LaneStack) {
        unreachable!("vacant layer slot is always refilled before use")
    }

    fn backward(&mut self, _grad_stack: &mut LaneStack) {
        unreachable!("vacant layer slot is always refilled before use")
    }
}

/// Wraps every layer of `net` in a timing wrapper. With `record_spans`,
/// every whole-network forward pass is also logged as a [`ForwardSpan`].
pub fn wrap_network(net: Network, record_spans: bool) -> (Network, Arc<NetClock>) {
    let training = net.is_training();
    let mut stages = net.into_stages();
    let clock = Arc::new(NetClock {
        stages: stages.iter().map(|_| StageClock::default()).collect(),
        spans: record_spans.then(|| Mutex::new(Vec::new())),
        open: Mutex::new(None),
    });
    let last_stage = stages.len() - 1;
    for (s, stage) in stages.iter_mut().enumerate() {
        let layers = stage.layers_mut();
        let last_layer = layers.len() - 1;
        for (i, slot) in layers.iter_mut().enumerate() {
            let inner = std::mem::replace(slot, Box::new(Vacant));
            *slot = Box::new(TimedLayer {
                inner,
                clock: Arc::clone(&clock),
                stage: s,
                first: s == 0 && i == 0,
                last: s == last_stage && i == last_layer,
            });
        }
    }
    let mut net = Network::new(stages);
    net.set_training(training);
    (net, clock)
}
