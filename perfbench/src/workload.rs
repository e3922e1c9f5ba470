//! The three workloads and the inputs each one generates from its seed.
//!
//! Every workload runs a training phase and then a serving phase, never
//! both at once, so on a two-core machine neither phase shares a core
//! with the other. What distinguishes the workloads is where the load
//! goes: the two `train-*` workloads spend most of a run training a large
//! model and then briefly serve their own epoch snapshots; `serve-hotswap`
//! trains briefly to produce its snapshots and spends most of the run
//! serving them. See `perfbench/README.md` for why each was chosen.

use buckwild::Backend;
use buckwild_dataset::{generate, DenseDataset, SparseDataset};

/// Training workers in every workload: one per core of the two-core
/// machine the bounds were set on.
pub const WORKERS: usize = 2;

/// Distinct request batches cycled through by the client.
const REQUEST_POOL: usize = 32;

/// The shape of a workload's training set.
#[derive(Debug, Clone, Copy)]
pub enum Shape {
    Dense {
        features: usize,
        examples: usize,
    },
    Sparse {
        features: usize,
        nnz: usize,
        examples: usize,
    },
}

/// One workload: a training configuration and how a run divides its time.
#[derive(Debug)]
pub struct Workload {
    pub name: &'static str,
    pub shape: Shape,
    pub backend: Backend,
    /// Iterations between delta exchanges on the sharded backend.
    pub delta_every: usize,
    pub signature: &'static str,
    pub epochs: usize,
    pub step_size: f32,
    /// Rows per serving request.
    pub request_rows: usize,
    /// Share of the measured seconds given to training runs; serving
    /// gets the rest.
    pub train_share: f64,
}

pub const WORKLOADS: [Workload; 3] = [
    Workload {
        name: "train-dense-shared",
        shape: Shape::Dense {
            features: 256,
            examples: 65_536,
        },
        backend: Backend::SharedModel,
        delta_every: 16,
        signature: "D8M8",
        epochs: 40,
        step_size: 0.01,
        request_rows: 16,
        train_share: 0.75,
    },
    Workload {
        name: "train-sparse-sharded",
        shape: Shape::Sparse {
            features: 4_096,
            nnz: 256,
            examples: 32_768,
        },
        backend: Backend::ShardedDelta,
        // At 16, ring-full skips (each skips a quantize) depend on timing
        // and train_gnps swung 25% between runs of one seed; at 64 the
        // swing halves and delta sync is still about 40% of the work.
        delta_every: 64,
        signature: "D8i16M8",
        epochs: 12,
        step_size: 0.05,
        // One 4,096-wide row is 16 KiB on the wire, the size of the dense
        // workloads' requests. Sixteen rows (256 KiB) overflow the socket
        // buffers, and round trips split into modes 25% apart.
        request_rows: 1,
        train_share: 0.75,
    },
    Workload {
        name: "serve-hotswap",
        shape: Shape::Dense {
            features: 256,
            examples: 65_536,
        },
        backend: Backend::SharedModel,
        delta_every: 16,
        signature: "D8M8",
        epochs: 8,
        step_size: 0.01,
        request_rows: 16,
        train_share: 0.2,
    },
];

impl Workload {
    pub fn by_name(name: &str) -> Option<&'static Workload> {
        WORKLOADS.iter().find(|w| w.name == name)
    }

    pub fn features(&self) -> usize {
        match self.shape {
            Shape::Dense { features, .. } | Shape::Sparse { features, .. } => features,
        }
    }

    pub fn examples(&self) -> usize {
        match self.shape {
            Shape::Dense { examples, .. } | Shape::Sparse { examples, .. } => examples,
        }
    }

    /// Dataset numbers one epoch reads.
    pub fn numbers_per_epoch(&self) -> u64 {
        match self.shape {
            Shape::Dense {
                features, examples, ..
            } => (features * examples) as u64,
            Shape::Sparse { nnz, examples, .. } => (nnz * examples) as u64,
        }
    }

    /// Generates the training set and the request pool from `seed`.
    pub fn generate(&self, seed: u64) -> Inputs {
        let data = match self.shape {
            Shape::Dense { features, examples } => {
                Dataset::Dense(generate::logistic_dense(features, examples, seed).data)
            }
            Shape::Sparse {
                features,
                nnz,
                examples,
            } => Dataset::Sparse(
                generate::logistic_sparse(features, examples, nnz as f64 / features as f64, seed)
                    .data,
            ),
        };
        let requests = data.request_pool(self.request_rows);
        Inputs { data, requests }
    }
}

/// A generated training set.
pub enum Dataset {
    Dense(DenseDataset<f32>),
    Sparse(SparseDataset<f32, u32>),
}

impl Dataset {
    /// Row-major request batches drawn from the training rows (sparse rows
    /// are sent dense, as the wire protocol carries dense batches).
    fn request_pool(&self, rows: usize) -> Vec<Vec<f32>> {
        let (examples, features) = match self {
            Dataset::Dense(d) => (d.examples(), d.features()),
            Dataset::Sparse(d) => (d.examples(), d.features()),
        };
        (0..REQUEST_POOL)
            .map(|b| {
                let mut batch = Vec::with_capacity(rows * features);
                for r in 0..rows {
                    // A stride coprime to the power-of-two example counts
                    // spreads the rows over the whole set.
                    let row = ((b * rows + r) * 7_919) % examples;
                    match self {
                        Dataset::Dense(d) => batch.extend_from_slice(d.example(row)),
                        Dataset::Sparse(d) => batch.extend(d.example_dense_f32(row)),
                    }
                }
                batch
            })
            .collect()
    }
}

/// Everything a run generates before its first timed operation.
pub struct Inputs {
    pub data: Dataset,
    pub requests: Vec<Vec<f32>>,
}
