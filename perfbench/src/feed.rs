//! Deterministic sample order across epoch boundaries.

use pbp_data::Dataset;

/// Hands out consecutive dataset indices following the program's own
/// epoch orders (`Dataset::epoch_order(seed, epoch)` for epoch 0, 1, …),
/// so a lane trained in windows sees exactly the samples an unwindowed
/// run would.
pub struct Feed {
    seed: u64,
    epoch: usize,
    order: Vec<usize>,
    pos: usize,
}

impl Feed {
    pub fn new(data: &Dataset, seed: u64) -> Self {
        Feed {
            seed,
            epoch: 0,
            order: data.epoch_order(seed, 0),
            pos: 0,
        }
    }

    /// The next `n` indices.
    pub fn next(&mut self, data: &Dataset, n: usize) -> Vec<usize> {
        let mut out = Vec::with_capacity(n);
        while out.len() < n {
            if self.pos == self.order.len() {
                self.epoch += 1;
                self.order = data.epoch_order(self.seed, self.epoch);
                self.pos = 0;
            }
            let take = (n - out.len()).min(self.order.len() - self.pos);
            out.extend_from_slice(&self.order[self.pos..self.pos + take]);
            self.pos += take;
        }
        out
    }
}
