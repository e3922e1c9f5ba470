//! Golden fingerprints of single-worker training.
//!
//! `backend_equivalence` compares the two threaded backends with each
//! other, so a change that moves both at once — to the shared SGD step,
//! the rounding-randomness draws, the epoch driver — slips past it. This
//! suite pins the step itself: every run in a grid of losses, precision
//! signatures, minibatch sizes, rounding strategies, backends, and dense
//! and sparse data is hashed (FNV-1a over the model's `f32` bits, the
//! per-epoch loss bits, and the iteration and number counters), and each
//! (data, backend, signature) cell's hash must equal the recorded
//! constant.
//!
//! The grid avoids `exp` and `ln` everywhere — in the data generators and
//! in the losses (hinge and least squares only) — so a platform libm
//! cannot move a bit. The kernels' SIMD tiers are bit-identical to scalar,
//! so the constants hold under any `BUCKWILD_ISA`. The backend is set per
//! run, so `BUCKWILD_BACKEND` does not matter either. The per-epoch loss
//! is scored through the process-default kernel flavour, and the generic
//! flavour sums a float dot in a different order, so the test pins that
//! default to the optimized flavour instead of reading `BUCKWILD_KERNEL`.
//!
//! When a fingerprint changes on purpose, the failure message prints the
//! whole table in the form of [`GOLDEN`] below.

use std::num::NonZeroU32;

use buckwild::{
    set_default_kernel, Backend, KernelFlavor, Loss, Rounding, SgdConfig, TrainData, TrainReport,
};
use buckwild_dataset::{generate, SparseDataset};
use buckwild_kernels::cost::QuantizerKind;
use buckwild_prng::{Prng, Xorshift128};

/// Every dataset × model precision pair the trainer supports.
const SIGNATURES: [&str; 9] = [
    "D32fM32f", "D32fM16", "D32fM8", "D16M32f", "D16M16", "D16M8", "D8M32f", "D8M16", "D8M8",
];

const BACKENDS: [Backend; 2] = [Backend::SharedModel, Backend::ShardedDelta];

/// `(data, backend, signature)` → fingerprint of the 20 runs in that cell
/// (2 losses × 2 minibatch sizes × 5 rounding strategies).
const GOLDEN: [(&str, &str, &str, u64); 36] = [
    ("dense", "shared", "D32fM32f", 0xe976e50afb029168),
    ("dense", "shared", "D32fM16", 0xcb2b0eb3baa1d026),
    ("dense", "shared", "D32fM8", 0x4a2e1f6ffe13336b),
    ("dense", "shared", "D16M32f", 0xa377cb93651e61c1),
    ("dense", "shared", "D16M16", 0x7fc72e2c53f9a17d),
    ("dense", "shared", "D16M8", 0x582257c9abd313ff),
    ("dense", "shared", "D8M32f", 0xf1831e3e7ae6241f),
    ("dense", "shared", "D8M16", 0xee2d6a67b6878515),
    ("dense", "shared", "D8M8", 0x278c4524d76dea9a),
    ("dense", "sharded", "D32fM32f", 0xe976e50afb029168),
    ("dense", "sharded", "D32fM16", 0xcb2b0eb3baa1d026),
    ("dense", "sharded", "D32fM8", 0x4a2e1f6ffe13336b),
    ("dense", "sharded", "D16M32f", 0xa377cb93651e61c1),
    ("dense", "sharded", "D16M16", 0x7fc72e2c53f9a17d),
    ("dense", "sharded", "D16M8", 0x582257c9abd313ff),
    ("dense", "sharded", "D8M32f", 0xf1831e3e7ae6241f),
    ("dense", "sharded", "D8M16", 0xee2d6a67b6878515),
    ("dense", "sharded", "D8M8", 0x278c4524d76dea9a),
    ("sparse", "shared", "D32fM32f", 0xb121e6edf5131af3),
    ("sparse", "shared", "D32fM16", 0x22e058f453621b4d),
    ("sparse", "shared", "D32fM8", 0x2dca3b78967233f2),
    ("sparse", "shared", "D16M32f", 0x17147b41a6f650d0),
    ("sparse", "shared", "D16M16", 0x3701c250aaa840ac),
    ("sparse", "shared", "D16M8", 0xf9e02fec7e551e53),
    ("sparse", "shared", "D8M32f", 0xbc92ac1857f9f17c),
    ("sparse", "shared", "D8M16", 0x19e577104835b753),
    ("sparse", "shared", "D8M8", 0xae360d824ef20519),
    ("sparse", "sharded", "D32fM32f", 0xb121e6edf5131af3),
    ("sparse", "sharded", "D32fM16", 0x22e058f453621b4d),
    ("sparse", "sharded", "D32fM8", 0x2dca3b78967233f2),
    ("sparse", "sharded", "D16M32f", 0x17147b41a6f650d0),
    ("sparse", "sharded", "D16M16", 0x3701c250aaa840ac),
    ("sparse", "sharded", "D16M8", 0xf9e02fec7e551e53),
    ("sparse", "sharded", "D8M32f", 0xbc92ac1857f9f17c),
    ("sparse", "sharded", "D8M16", 0x19e577104835b753),
    ("sparse", "sharded", "D8M8", 0xae360d824ef20519),
];

/// 64-bit FNV-1a.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn report(&mut self, report: &TrainReport) {
        for w in report.model() {
            self.bytes(&w.to_bits().to_le_bytes());
        }
        for l in report.epoch_losses() {
            self.bytes(&l.to_bits().to_le_bytes());
        }
        self.bytes(&report.iterations().to_le_bytes());
        self.bytes(&report.numbers_processed().to_le_bytes());
    }
}

/// The five rounding strategies of the grid.
fn roundings() -> [(Rounding, QuantizerKind, Option<NonZeroU32>); 5] {
    [
        (Rounding::Biased, QuantizerKind::Biased, None),
        (Rounding::Unbiased, QuantizerKind::MersenneScalar, None),
        (Rounding::Unbiased, QuantizerKind::XorshiftFresh, None),
        (Rounding::Unbiased, QuantizerKind::XorshiftShared, None),
        (
            Rounding::Unbiased,
            QuantizerKind::XorshiftShared,
            NonZeroU32::new(16),
        ),
    ]
}

/// Sparse data drawn straight from `Xorshift128`: 40 features, 3–8
/// nonzeros per example, values in `[-1, 1)`, labels `±1`.
fn sparse_data() -> SparseDataset<f32, u32> {
    const FEATURES: usize = 40;
    let mut rng = Xorshift128::seed_from(0x5eed);
    let mut rows = Vec::new();
    let mut labels = Vec::new();
    for _ in 0..48 {
        let nnz = 3 + rng.next_below(6) as usize;
        let mut row = Vec::with_capacity(nnz);
        let mut idx = rng.next_below(4) as usize;
        for _ in 0..nnz {
            if idx >= FEATURES {
                break;
            }
            row.push((idx, rng.range_f32(-1.0, 1.0)));
            idx += 1 + rng.next_below(8) as usize;
        }
        rows.push(row);
        labels.push(if rng.next_u32() & 1 == 0 { 1.0 } else { -1.0 });
    }
    SparseDataset::from_triplets(FEATURES, rows, labels)
}

/// Fingerprints one cell: every loss × minibatch × rounding run.
fn cell<D: TrainData>(data: &D, backend: Backend, sig: &str) -> u64 {
    let mut h = Fnv::new();
    for loss in [Loss::Hinge, Loss::LeastSquares] {
        for minibatch in [1, 8] {
            for (rounding, kind, period) in roundings() {
                let report = SgdConfig::new(loss)
                    .backend(backend)
                    .signature(sig.parse().unwrap())
                    .rounding(rounding)
                    .quantizer(kind)
                    .shared_period(period)
                    .minibatch(minibatch)
                    .step_size(0.2)
                    .step_decay(0.5)
                    .epochs(3)
                    .threads(1)
                    .seed(29)
                    .train(data)
                    .unwrap_or_else(|e| panic!("{sig} {backend:?}: {e}"));
                h.report(&report);
            }
        }
    }
    h.0
}

#[test]
fn single_worker_training_matches_golden_fingerprints() {
    set_default_kernel(KernelFlavor::Optimized);
    // 21 features: not a multiple of any SIMD width, so kernel tails run.
    let dense = generate::linear_dense(21, 48, 0.1, 17).data;
    let sparse = sparse_data();
    let mut table = Vec::new();
    for (name, is_dense) in [("dense", true), ("sparse", false)] {
        for backend in BACKENDS {
            for sig in SIGNATURES {
                let got = if is_dense {
                    cell(&dense, backend, sig)
                } else {
                    cell(&sparse, backend, sig)
                };
                table.push((name, backend.name(), sig, got));
            }
        }
    }
    let mismatches: Vec<_> = table
        .iter()
        .zip(&GOLDEN)
        .filter(|(got, want)| **got != **want)
        .map(|(got, _)| format!("{}/{}/{}", got.0, got.1, got.2))
        .collect();
    if !mismatches.is_empty() {
        let mut listing = String::new();
        for (data, backend, sig, h) in &table {
            listing.push_str(&format!(
                "    (\"{data}\", \"{backend}\", \"{sig}\", {h:#018x}),\n"
            ));
        }
        panic!(
            "{} of {} fingerprints changed: {mismatches:?}\ncomputed table:\n{listing}",
            mismatches.len(),
            table.len()
        );
    }
}
