//! One SGD step for both threaded backends.
//!
//! The paper's Buckwild! iteration is a dot, a loss scale, and a rounded
//! AXPY. [`Worker::run`] is that iteration plus the loop around it —
//! fault fates, counters, spans, minibatching, and the backend's exchange
//! hook — written once and generic over:
//!
//! * how the model is reached ([`ModelAccess`]): the shared atomic
//!   [`SharedModel`](crate::SharedModel) or one worker's private
//!   [`LocalModel`](crate::arena::LocalModel) replica;
//! * the row type ([`Rows`]): dense or sparse, fixed point or `f32`;
//! * the exchange ([`Exchange`]): [`NoExchange`] on the shared model, the
//!   delta sync on the sharded backend.
//!
//! All of it is static dispatch: each combination monomorphizes to its own
//! loop, and [`NoExchange`] compiles away.

use std::num::NonZeroU32;

use buckwild_chaos::{IterFate, WorkerInjector};
use buckwild_dataset::{DenseDataset, Label, SparseDataset};
use buckwild_fixed::Rounding;
use buckwild_kernels::cost::QuantizerKind;
use buckwild_kernels::optimized::FixedInt;
use buckwild_prng::{Mt19937, Prng, XorshiftLanes};
use buckwild_telemetry::{Counter, Histogram};
use buckwild_trace::{fault_kind, Phase, WorkerTracer};

use crate::access::{Dense, ModelAccess};
use crate::config::QuantizerConfig;
use crate::Loss;

/// Per-worker rounding-randomness state (the §5.2 strategies).
pub(crate) struct QuantState {
    mode: Mode,
}

// One per worker, built once per run — the MT19937 state-table size
// difference between variants has no per-iteration cost.
#[allow(clippy::large_enum_variant)]
enum Mode {
    Biased,
    Mersenne(Mt19937),
    Fresh {
        lanes: XorshiftLanes<8>,
        block: [u32; 8],
        cursor: usize,
    },
    Shared {
        lanes: XorshiftLanes<8>,
        block: [u32; 8],
        period: Option<NonZeroU32>,
        used: u32,
    },
}

const HALF15: i64 = 1 << 14;
const MASK15: u32 = (1 << 15) - 1;
const U24: f32 = 1.0 / (1u32 << 24) as f32;

impl Mode {
    /// The next random word for element `i` under the xorshift
    /// strategies: `Fresh` walks a block word by word and refills it when
    /// spent; `Shared` indexes one block by element and, with an explicit
    /// period, refills it every `period` draws.
    #[inline(always)]
    fn xorshift_word(&mut self, i: usize) -> u32 {
        match self {
            Mode::Fresh {
                lanes,
                block,
                cursor,
            } => {
                if *cursor >= 8 {
                    *block = lanes.step();
                    *cursor = 0;
                }
                let word = block[*cursor];
                *cursor += 1;
                word
            }
            Mode::Shared {
                lanes,
                block,
                period,
                used,
            } => {
                if let Some(p) = period {
                    if *used >= p.get() {
                        *block = lanes.step();
                        *used = 0;
                    }
                    *used += 1;
                }
                block[i % 8]
            }
            Mode::Biased | Mode::Mersenne(_) => unreachable!("not a xorshift strategy"),
        }
    }
}

impl QuantState {
    pub(crate) fn new(quantizer: &QuantizerConfig, rounding: Rounding, seed: u64) -> Self {
        let mode = if rounding == Rounding::Biased {
            Mode::Biased
        } else {
            match quantizer.kind {
                QuantizerKind::Biased => Mode::Biased,
                QuantizerKind::MersenneScalar => Mode::Mersenne(Mt19937::seed_from(seed)),
                QuantizerKind::XorshiftFresh => Mode::Fresh {
                    lanes: XorshiftLanes::seed_from(seed),
                    block: [0; 8],
                    cursor: 8,
                },
                QuantizerKind::XorshiftShared => {
                    let mut lanes = XorshiftLanes::seed_from(seed);
                    let block = lanes.step();
                    Mode::Shared {
                        lanes,
                        block,
                        period: quantizer.shared_period,
                        used: 0,
                    }
                }
            }
        };
        QuantState { mode }
    }

    /// Marks an iteration boundary: shared-randomness mode with no explicit
    /// period refreshes its 256-bit block here (once per AXPY, the paper
    /// cadence).
    pub(crate) fn begin_iteration(&mut self) {
        if let Mode::Shared {
            lanes,
            block,
            period: None,
            used,
        } = &mut self.mode
        {
            *block = lanes.step();
            *used = 0;
        }
    }

    /// If the current strategy uses one offset block for the whole
    /// iteration (biased or per-iteration shared randomness), returns it —
    /// enabling the draw-free AXPY fast path.
    pub(crate) fn block_offsets(&self) -> Option<[i64; 8]> {
        match &self.mode {
            Mode::Biased => Some([HALF15; 8]),
            Mode::Shared {
                block,
                period: None,
                ..
            } => {
                let mut offs = [0i64; 8];
                for (o, w) in offs.iter_mut().zip(block) {
                    *o = (w & MASK15) as i64;
                }
                Some(offs)
            }
            _ => None,
        }
    }

    /// Pre-shift rounding offset in `[0, 2^15)` for element `i`.
    pub(crate) fn offset15(&mut self, i: usize) -> i64 {
        match &mut self.mode {
            Mode::Biased => HALF15,
            Mode::Mersenne(mt) => (mt.next_u32() & MASK15) as i64,
            mode => (mode.xorshift_word(i) & MASK15) as i64,
        }
    }

    /// Uniform `[0, 1)` sample for element `i` (float-grid quantization).
    pub(crate) fn uniform(&mut self, i: usize) -> f32 {
        match &mut self.mode {
            Mode::Biased => 0.5,
            Mode::Mersenne(mt) => mt.next_f32(),
            mode => (mode.xorshift_word(i) >> 8) as f32 * U24,
        }
    }
}

/// A prepared dataset the step iterates over, one row per SGD iteration.
///
/// Implemented for dense and sparse data at the fixed-point precisions
/// (owned, since preparing them quantizes) and at `f32` (borrowed from the
/// caller's dataset as-is).
pub(crate) trait Rows: Sync {
    /// How a minibatch is written. Dense rows sum their scaled gradients
    /// into one dense write per batch, and every example counts toward the
    /// batch size. Sparse rows keep each nonzero-scale example's own
    /// scatter write until the batch holds `minibatch` of them.
    const SUMMED: bool;
    /// One label per row.
    fn labels(&self) -> &[Label];
    /// Model width.
    fn features(&self) -> usize;
    /// Dataset numbers row `i` holds: its width if dense, its nonzeros if
    /// sparse.
    fn numbers(&self, i: usize) -> usize;
    /// `w · x_i`.
    fn dot<M: ModelAccess>(&self, model: &M, i: usize) -> f32;
    /// `w ← w + a·x_i`, rounded with randomness from `rng`.
    fn axpy<M: ModelAccess>(&self, model: &mut M, i: usize, a: f32, rng: &mut QuantState);
    /// `sum ← sum + a·x_i` in `f32`; called only when [`Rows::SUMMED`].
    fn accumulate(&self, _i: usize, _a: f32, _sum: &mut [f32]) {
        unreachable!("only summed rows accumulate a minibatch")
    }
}

impl<D: FixedInt> Rows for DenseDataset<D> {
    const SUMMED: bool = true;

    fn labels(&self) -> &[Label] {
        self.labels()
    }

    fn features(&self) -> usize {
        self.features()
    }

    fn numbers(&self, _i: usize) -> usize {
        self.features()
    }

    fn dot<M: ModelAccess>(&self, model: &M, i: usize) -> f32 {
        model.dot_dense_fixed(self.example(i), &self.spec())
    }

    fn axpy<M: ModelAccess>(&self, model: &mut M, i: usize, a: f32, rng: &mut QuantState) {
        let (x, spec) = (self.example(i), self.spec());
        match rng.block_offsets() {
            Some(offs) => model.axpy_fixed(a, x, Dense, &spec, |j| offs[j & 7]),
            None => model.axpy_fixed(a, x, Dense, &spec, |j| rng.offset15(j)),
        }
    }

    fn accumulate(&self, i: usize, a: f32, sum: &mut [f32]) {
        let qa = a * self.spec().quantum();
        for (s, x) in sum.iter_mut().zip(self.example(i)) {
            *s += qa * x.widen() as f32;
        }
    }
}

impl Rows for &DenseDataset<f32> {
    const SUMMED: bool = true;

    fn labels(&self) -> &[Label] {
        DenseDataset::labels(self)
    }

    fn features(&self) -> usize {
        DenseDataset::features(self)
    }

    fn numbers(&self, _i: usize) -> usize {
        DenseDataset::features(self)
    }

    fn dot<M: ModelAccess>(&self, model: &M, i: usize) -> f32 {
        model.dot_f32(self.example(i), Dense)
    }

    fn axpy<M: ModelAccess>(&self, model: &mut M, i: usize, a: f32, rng: &mut QuantState) {
        model.axpy_f32(a, self.example(i), Dense, |j| rng.uniform(j));
    }

    fn accumulate(&self, i: usize, a: f32, sum: &mut [f32]) {
        for (s, &x) in sum.iter_mut().zip(self.example(i)) {
            *s += a * x;
        }
    }
}

impl<D: FixedInt> Rows for SparseDataset<D, u32> {
    const SUMMED: bool = false;

    fn labels(&self) -> &[Label] {
        self.labels()
    }

    fn features(&self) -> usize {
        self.features()
    }

    fn numbers(&self, i: usize) -> usize {
        self.example(i).nnz()
    }

    fn dot<M: ModelAccess>(&self, model: &M, i: usize) -> f32 {
        let ex = self.example(i);
        model.dot_fixed(ex.values, ex.indices, &self.spec())
    }

    fn axpy<M: ModelAccess>(&self, model: &mut M, i: usize, a: f32, rng: &mut QuantState) {
        let ex = self.example(i);
        model.axpy_fixed(a, ex.values, ex.indices, &self.spec(), |j| rng.offset15(j));
    }
}

impl Rows for &SparseDataset<f32, u32> {
    const SUMMED: bool = false;

    fn labels(&self) -> &[Label] {
        SparseDataset::labels(self)
    }

    fn features(&self) -> usize {
        SparseDataset::features(self)
    }

    fn numbers(&self, i: usize) -> usize {
        self.example(i).nnz()
    }

    fn dot<M: ModelAccess>(&self, model: &M, i: usize) -> f32 {
        let ex = self.example(i);
        model.dot_f32(ex.values, ex.indices)
    }

    fn axpy<M: ModelAccess>(&self, model: &mut M, i: usize, a: f32, rng: &mut QuantState) {
        let ex = self.example(i);
        model.axpy_f32(a, ex.values, ex.indices, |j| rng.uniform(j));
    }
}

/// A backend's per-iteration communication hook around the step.
pub(crate) trait Exchange<M> {
    /// Called once after every iteration.
    fn tick<T: WorkerTracer>(&mut self, model: &mut M, tracer: &mut T);
    /// Called once after the worker's last write of the epoch.
    fn flush<T: WorkerTracer>(&mut self, model: &mut M, tracer: &mut T);
}

/// The shared model's exchange: workers communicate through the model
/// itself, so there is nothing to do.
pub(crate) struct NoExchange;

impl<M> Exchange<M> for NoExchange {
    #[inline(always)]
    fn tick<T: WorkerTracer>(&mut self, _model: &mut M, _tracer: &mut T) {}

    #[inline(always)]
    fn flush<T: WorkerTracer>(&mut self, _model: &mut M, _tracer: &mut T) {}
}

/// Chaos telemetry handles, created only for active injectors so that
/// fault-free snapshots carry no zero-valued `chaos.*` entries.
pub(crate) struct ChaosCounters<C, H> {
    pub(crate) stalls: C,
    pub(crate) dropped: C,
    pub(crate) stall_ticks: H,
}

/// Telemetry handles a worker updates in its hot loop.
pub(crate) struct WorkerCounters<C, H> {
    pub(crate) iterations: C,
    pub(crate) numbers: C,
    pub(crate) rounds: C,
    pub(crate) chaos: Option<ChaosCounters<C, H>>,
}

impl<C: Counter, H: Histogram> WorkerCounters<C, H> {
    /// Executes an iteration fate: counts and serves a stall, reports
    /// whether the iteration should run at all (`false` = crash).
    #[inline]
    fn serve_fate<T: WorkerTracer>(&self, fate: IterFate, tracer: &mut T) -> bool {
        match fate {
            IterFate::Proceed => true,
            IterFate::Stall(ticks) => {
                if let Some(chaos) = &self.chaos {
                    chaos.stalls.incr();
                    chaos.stall_ticks.record(f64::from(ticks));
                }
                let span = tracer.begin();
                for _ in 0..ticks {
                    std::thread::yield_now();
                }
                tracer.end(Phase::ChaosFault, span, fault_kind::STALL);
                true
            }
            IterFate::Crash(_) => false,
        }
    }
}

/// One worker's share of one epoch: the step's parameters plus the
/// worker's randomness, telemetry, fault injector, and tracer.
pub(crate) struct Worker<C, H, W, T> {
    pub(crate) loss: Loss,
    pub(crate) step: f32,
    pub(crate) minibatch: usize,
    /// This worker's index; it visits rows `index, index + threads, ...`.
    pub(crate) index: usize,
    pub(crate) threads: usize,
    pub(crate) rng: QuantState,
    pub(crate) counters: WorkerCounters<C, H>,
    pub(crate) inj: W,
    pub(crate) tracer: T,
}

/// A minibatch in progress (see [`Rows::SUMMED`]).
struct Batch {
    /// Summed scaled gradient (summed rows only).
    sum: Vec<f32>,
    /// Deferred `(row, scale)` writes (unsummed rows only).
    pending: Vec<(usize, f32)>,
    /// Examples counted toward the batch size.
    fill: usize,
}

impl<C: Counter, H: Histogram, W: WorkerInjector, T: WorkerTracer> Worker<C, H, W, T> {
    /// Runs the worker's rows for one epoch. Returns `true` if the
    /// injector crashed the worker mid-epoch.
    pub(crate) fn run<R: Rows, M: ModelAccess, X: Exchange<M>>(
        mut self,
        rows: &R,
        model: &mut M,
        exchange: &mut X,
    ) -> bool {
        let mut batch = Batch {
            sum: if R::SUMMED && self.minibatch > 1 {
                vec![0f32; rows.features()]
            } else {
                Vec::new()
            },
            pending: Vec::new(),
            fill: 0,
        };
        let labels = rows.labels();
        for i in (self.index..labels.len()).step_by(self.threads) {
            if !self
                .counters
                .serve_fate(self.inj.iter_fate(), &mut self.tracer)
            {
                return true;
            }
            let iter_span = self.tracer.begin();
            let numbers = rows.numbers(i);
            self.rng.begin_iteration();
            self.counters.iterations.incr();
            self.counters.numbers.add(numbers as u64);
            let kernel_span = self.tracer.begin();
            let dot = rows.dot(model, i);
            self.tracer
                .end(Phase::GradientKernel, kernel_span, numbers as u64);
            let a = self.loss.axpy_scale(dot, labels[i], self.step);
            if self.minibatch == 1 {
                if a != 0.0 {
                    self.write(numbers, model, |m, rng| rows.axpy(m, i, a, rng));
                }
            } else {
                if a != 0.0 {
                    if R::SUMMED {
                        rows.accumulate(i, a, &mut batch.sum);
                    } else {
                        batch.pending.push((i, a));
                    }
                }
                if R::SUMMED || a != 0.0 {
                    batch.fill += 1;
                }
                if batch.fill == self.minibatch {
                    self.flush(rows, model, &mut batch);
                }
            }
            self.tracer.end(Phase::Minibatch, iter_span, i as u64);
            exchange.tick(model, &mut self.tracer);
        }
        if batch.fill > 0 {
            self.flush(rows, model, &mut batch);
        }
        exchange.flush(model, &mut self.tracer);
        false
    }

    /// One model write of `numbers` coordinates, unless the injector drops
    /// it: counted, traced as a [`Phase::ModelWrite`] span, applied.
    #[inline]
    fn write<M>(
        &mut self,
        numbers: usize,
        model: &mut M,
        apply: impl FnOnce(&mut M, &mut QuantState),
    ) {
        if self.inj.keep_write() {
            self.counters.rounds.add(numbers as u64);
            let span = self.tracer.begin();
            apply(model, &mut self.rng);
            self.tracer.end(Phase::ModelWrite, span, numbers as u64);
        } else if let Some(chaos) = &self.counters.chaos {
            chaos.dropped.incr();
        }
    }

    /// Writes and empties a minibatch: one dense write of the summed
    /// gradient, or each deferred sparse write in order.
    fn flush<R: Rows, M: ModelAccess>(&mut self, rows: &R, model: &mut M, batch: &mut Batch) {
        if R::SUMMED {
            let sum = &batch.sum;
            self.write(sum.len(), model, |m, rng| {
                m.axpy_f32(1.0, sum, Dense, |j| rng.uniform(j));
            });
            batch.sum.fill(0.0);
        } else {
            for &(i, a) in &batch.pending {
                self.write(rows.numbers(i), model, |m, rng| rows.axpy(m, i, a, rng));
            }
            batch.pending.clear();
        }
        batch.fill = 0;
    }
}
