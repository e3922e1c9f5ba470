//! The training engine: sequential, Hogwild!, and Buckwild! SGD.
//!
//! The entry point is [`SgdConfig::train`], generic over any [`TrainData`]
//! dataset (dense `f32` or sparse CSR). Training is instrumented through
//! the `buckwild-telemetry` [`Recorder`] abstraction: [`SgdConfig::train`]
//! collects real metrics with a sharded recorder and derives the
//! [`TrainReport`] efficiency numbers from them, while
//! [`SgdConfig::train_with`] lets callers supply their own recorder
//! (including `NoopRecorder`, which compiles every instrumentation point
//! away).

use std::sync::Barrier;
use std::time::Instant;

use buckwild_chaos::metric as chaos_metric;
use buckwild_chaos::{FaultPlan, Injector, NoopInjector, PlanError, PlanInjector, WorkerInjector};
use buckwild_dataset::{DenseDataset, SparseDataset};
use buckwild_fixed::{FixedSpec, Rounding};
use buckwild_prng::split_seed;
use buckwild_telemetry::{Counter, Gauge, Histogram, MetricsSnapshot, Recorder, ShardedRecorder};
use buckwild_trace::{fault_kind, NoopTracer, Phase, Tracer, WorkerTracer};

use crate::access::ModelAccess;
use crate::config::Backend;
use crate::predict::{EpochSnapshot, QuantizedModel};
use crate::shard::ShardEngine;
use crate::step::{ChaosCounters, Exchange, NoExchange, QuantState, Worker, WorkerCounters};
use crate::{metrics, ConfigError, Loss, ModelPrecision, SgdConfig, SharedModel};

/// Replay attempts per epoch before the engine gives up on recovery and
/// accepts the partial epoch — a guard against injectors that crash the
/// same epoch forever ([`PlanInjector`] consumes each crash, so plan-driven
/// runs never hit it).
const MAX_REPLAYS_PER_EPOCH: u32 = 8;

/// Metric names recorded by [`SgdConfig::train`] / [`SgdConfig::train_with`].
pub mod metric {
    /// Counter: SGD iterations (examples visited), sharded per worker.
    pub const ITERATIONS: &str = "train.iterations";
    /// Counter: dataset numbers read by gradient computations.
    pub const NUMBERS_PROCESSED: &str = "train.numbers_processed";
    /// Counter: model entries passed through the rounding quantizer.
    pub const ROUND_EVENTS: &str = "quant.round_events";
    /// Histogram: wall-clock seconds per epoch (workers only, no eval).
    pub const EPOCH_SECONDS: &str = "train.epoch_seconds";
    /// Gauge: end-of-run dataset throughput in giga-numbers-per-second.
    pub const GNPS: &str = "train.gnps";
    /// Counter: quantized delta packets broadcast by the sharded backend.
    pub const DELTA_PACKETS: &str = "shard.delta_packets";
    /// Counter: bytes of delta payload broadcast by the sharded backend.
    pub const DELTA_BYTES: &str = "shard.delta_bytes";
    /// Counter: sharded-backend broadcasts skipped because a peer ring
    /// was full (the delta carries forward via error feedback).
    pub const RING_FULL_SKIPS: &str = "shard.ring_full_skips";
    /// Counter: nanoseconds spent publishing epoch-boundary model
    /// snapshots to the `on_snapshot` observer. Publication runs outside
    /// the barrier-timed region, so its cost is excluded from
    /// [`EPOCH_SECONDS`] and [`GNPS`] by construction (the same treatment
    /// worker spawn/join gets); this counter makes the cost visible
    /// instead of hidden.
    pub const SNAPSHOT_PUBLISH_NS: &str = "snapshot.publish_ns";
}

/// Error from [`SgdConfig::train`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TrainError {
    /// The configuration was invalid.
    Config(ConfigError),
    /// The fault plan was invalid.
    Plan(PlanError),
    /// The dataset was empty.
    EmptyDataset,
}

impl std::fmt::Display for TrainError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TrainError::Config(e) => write!(f, "invalid configuration: {e}"),
            TrainError::Plan(e) => write!(f, "invalid fault plan: {e}"),
            TrainError::EmptyDataset => f.write_str("dataset has no examples"),
        }
    }
}

impl std::error::Error for TrainError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            TrainError::Config(e) => Some(e),
            TrainError::Plan(e) => Some(e),
            TrainError::EmptyDataset => None,
        }
    }
}

impl From<ConfigError> for TrainError {
    fn from(e: ConfigError) -> Self {
        TrainError::Config(e)
    }
}

impl From<PlanError> for TrainError {
    fn from(e: PlanError) -> Self {
        TrainError::Plan(e)
    }
}

/// The result of a training run: recovered model plus efficiency metrics.
///
/// All efficiency numbers ([`Self::wall_seconds`], [`Self::gnps`],
/// [`Self::iterations`], [`Self::numbers_processed`]) are read from the
/// telemetry snapshot taken at the end of the run — the recorder is the
/// single source of truth. When training ran through
/// [`SgdConfig::train_with`] with a `NoopRecorder`, the snapshot is empty
/// and they all report zero; the model and losses are exact either way.
#[derive(Debug, Clone, PartialEq)]
pub struct TrainReport {
    model: Vec<f32>,
    epoch_losses: Vec<f64>,
    metrics: MetricsSnapshot,
}

impl TrainReport {
    /// The trained model as `f32` (dequantized snapshot).
    #[must_use]
    pub fn model(&self) -> &[f32] {
        &self.model
    }

    /// Consumes the report, returning the model.
    #[must_use]
    pub fn into_model(self) -> Vec<f32> {
        self.model
    }

    /// Mean training loss after each epoch (empty if recording was off).
    #[must_use]
    pub fn epoch_losses(&self) -> &[f64] {
        &self.epoch_losses
    }

    /// The last recorded training loss.
    ///
    /// # Panics
    ///
    /// Panics if loss recording was disabled.
    #[must_use]
    pub fn final_loss(&self) -> f64 {
        *self
            .epoch_losses
            .last()
            .expect("loss recording was disabled")
    }

    /// Wall-clock training time (excluding evaluation), from the
    /// [`metric::EPOCH_SECONDS`] histogram.
    #[must_use]
    pub fn wall_seconds(&self) -> f64 {
        self.metrics
            .histogram(metric::EPOCH_SECONDS)
            .map_or(0.0, |h| h.sum)
    }

    /// Total dataset numbers processed across all epochs, from the
    /// [`metric::NUMBERS_PROCESSED`] counter.
    #[must_use]
    pub fn numbers_processed(&self) -> u64 {
        self.metrics.counter(metric::NUMBERS_PROCESSED).unwrap_or(0)
    }

    /// Total SGD iterations (examples visited), from the
    /// [`metric::ITERATIONS`] counter.
    #[must_use]
    pub fn iterations(&self) -> u64 {
        self.metrics.counter(metric::ITERATIONS).unwrap_or(0)
    }

    /// Measured dataset throughput in giga-numbers-per-second — the
    /// paper's hardware-efficiency metric (§4).
    #[must_use]
    pub fn gnps(&self) -> f64 {
        self.numbers_processed() as f64 / self.wall_seconds().max(1e-12) / 1e9
    }

    /// The full telemetry snapshot collected during training.
    #[must_use]
    pub fn metrics(&self) -> &MetricsSnapshot {
        &self.metrics
    }
}

/// Progress handed to the [`SgdConfig::on_epoch`] observer after each epoch.
#[derive(Debug, Clone, PartialEq)]
pub struct TrainProgress {
    /// Index of the epoch that just finished (0-based).
    pub epoch: usize,
    /// Total epochs configured.
    pub epochs: usize,
    /// Mean training loss after this epoch, if loss recording is on.
    pub loss: Option<f64>,
    /// Cumulative wall-clock training seconds so far.
    pub wall_seconds: f64,
    /// Cumulative SGD iterations so far.
    pub iterations: u64,
}

/// Observer verdict: keep training or stop after the current epoch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TrainControl {
    /// Proceed to the next epoch.
    Continue,
    /// End the run now; the report covers the completed epochs.
    Stop,
}

/// A dataset quantized to the signature's `D` precision (the `f32`
/// variants borrow the caller's data as-is).
///
/// `pub` only because it appears in the sealed engine trait; the `train`
/// module is private, so it is not nameable outside the crate.
#[doc(hidden)]
pub enum Prepared<'a> {
    DenseF32(&'a DenseDataset<f32>),
    DenseI16(DenseDataset<i16>),
    DenseI8(DenseDataset<i8>),
    SparseF32(&'a SparseDataset<f32, u32>),
    SparseI16(SparseDataset<i16, u32>),
    SparseI8(SparseDataset<i8, u32>),
}

impl Prepared<'_> {
    /// Runs one worker's share of one epoch on either backend. Returns
    /// `true` if the injector crashed the worker mid-epoch.
    fn run_worker<M: ModelAccess>(
        &self,
        model: &mut M,
        exchange: &mut impl Exchange<M>,
        worker: Worker<impl Counter, impl Histogram, impl WorkerInjector, impl WorkerTracer>,
    ) -> bool {
        match self {
            Prepared::DenseF32(d) => worker.run(d, model, exchange),
            Prepared::DenseI16(d) => worker.run(d, model, exchange),
            Prepared::DenseI8(d) => worker.run(d, model, exchange),
            Prepared::SparseF32(d) => worker.run(d, model, exchange),
            Prepared::SparseI16(d) => worker.run(d, model, exchange),
            Prepared::SparseI8(d) => worker.run(d, model, exchange),
        }
    }
}

pub(crate) mod sealed {
    use super::{Loss, Prepared, SgdConfig};

    /// The private engine interface behind [`super::TrainData`]. Not
    /// nameable outside this crate, which seals the public trait.
    pub trait Sealed {
        fn examples(&self) -> usize;
        /// Quantizes the dataset to the signature's `D` precision.
        fn prepare(&self, config: &SgdConfig) -> Prepared<'_>;
        fn model_features(&self) -> usize;
        fn mean_loss(&self, loss: Loss, model: &[f32]) -> f64;
    }
}

/// A dataset [`SgdConfig::train`] can consume.
///
/// Implemented by [`DenseDataset<f32>`] and [`SparseDataset<f32, u32>`];
/// the trait is sealed, so these are the only implementations. The engine
/// quantizes the data to the signature's dataset precision, runs the
/// Hogwild! worker loop, and evaluates losses through this interface —
/// dense and sparse training share one epoch loop, one instrumentation
/// scheme, and one report shape.
pub trait TrainData: sealed::Sealed {}

impl sealed::Sealed for DenseDataset<f32> {
    fn examples(&self) -> usize {
        self.examples()
    }

    fn model_features(&self) -> usize {
        self.features()
    }

    fn prepare(&self, config: &SgdConfig) -> Prepared<'_> {
        let d = config.signature.dataset();
        match (d.bits(), d.is_float()) {
            (32, true) => Prepared::DenseF32(self),
            (16, false) => Prepared::DenseI16(self.quantize_i16(FixedSpec::unit_range(16))),
            (8, false) => Prepared::DenseI8(self.quantize_i8(FixedSpec::unit_range(8))),
            _ => unreachable!("rejected by validate"),
        }
    }

    fn mean_loss(&self, loss: Loss, model: &[f32]) -> f64 {
        metrics::mean_loss(loss, model, self)
    }
}

impl TrainData for DenseDataset<f32> {}

impl sealed::Sealed for SparseDataset<f32, u32> {
    fn examples(&self) -> usize {
        self.examples()
    }

    fn model_features(&self) -> usize {
        self.features()
    }

    fn prepare(&self, config: &SgdConfig) -> Prepared<'_> {
        let d = config.signature.dataset();
        let spec = FixedSpec::unit_range(d.bits());
        match (d.bits(), d.is_float()) {
            (32, true) => Prepared::SparseF32(self),
            (16, false) => {
                Prepared::SparseI16(self.requantize(spec, Rounding::Biased, config.seed))
            }
            (8, false) => Prepared::SparseI8(self.requantize(spec, Rounding::Biased, config.seed)),
            _ => unreachable!("rejected by validate"),
        }
    }

    fn mean_loss(&self, loss: Loss, model: &[f32]) -> f64 {
        metrics::mean_loss_sparse(loss, model, self)
    }
}

impl TrainData for SparseDataset<f32, u32> {}

/// What a threaded backend sets up and tears down around the shared
/// worker loop: the model each worker reaches, the exchange between
/// workers, crash checkpoints, and the model the run reports.
pub(crate) trait Engine {
    /// Hands out one part per worker for the coming epoch.
    fn parts<R: Recorder>(&mut self, threads: usize, recorder: &R) -> Vec<impl WorkerPart>;
    /// Captures the whole model state for crash rollback.
    fn checkpoint(&self) -> Vec<f32>;
    /// Rolls back to a [`Engine::checkpoint`].
    fn restore(&mut self, checkpoint: &[f32]);
    /// The model losses are scored on and the report returns.
    fn model(&self) -> Vec<f32>;
    /// The epoch-boundary snapshot handed to the `on_snapshot` observer.
    fn publish(&self) -> QuantizedModel;
}

/// One worker's share of an epoch, moved onto the worker's thread.
pub(crate) trait WorkerPart: Send {
    /// How the worker reaches the model.
    type Model: ModelAccess;
    /// The worker's side of the backend's exchange.
    type Exchange: Exchange<Self::Model>;
    /// Runs on the worker's own thread, before the start barrier.
    fn start(self) -> (Self::Model, Self::Exchange);
}

/// The shared-model backend: every worker holds the same model and
/// coherence carries the updates, so there is nothing to exchange.
impl Engine for SharedModel {
    fn parts<R: Recorder>(&mut self, threads: usize, _recorder: &R) -> Vec<impl WorkerPart> {
        vec![&*self; threads]
    }

    fn checkpoint(&self) -> Vec<f32> {
        self.snapshot()
    }

    fn restore(&mut self, checkpoint: &[f32]) {
        self.restore_from(checkpoint);
    }

    fn model(&self) -> Vec<f32> {
        self.snapshot()
    }

    fn publish(&self) -> QuantizedModel {
        self.snapshot_quantized()
    }
}

impl<'a> WorkerPart for &'a SharedModel {
    type Model = &'a SharedModel;
    type Exchange = NoExchange;

    fn start(self) -> (Self, NoExchange) {
        (self, NoExchange)
    }
}

impl SgdConfig {
    /// Trains on any [`TrainData`] dataset, quantizing it to the
    /// signature's dataset precision first.
    ///
    /// Collects telemetry with a sharded recorder (one shard per worker)
    /// and builds the report's efficiency metrics from the snapshot. To
    /// supply your own recorder — or to opt out of measurement entirely
    /// with `NoopRecorder` — use [`SgdConfig::train_with`].
    ///
    /// # Errors
    ///
    /// [`TrainError::Config`] for invalid configurations,
    /// [`TrainError::EmptyDataset`] for empty input.
    pub fn train<D: TrainData>(&self, data: &D) -> Result<TrainReport, TrainError> {
        let recorder = ShardedRecorder::new(self.threads.max(1));
        self.train_with(data, &recorder)
    }

    /// Trains like [`SgdConfig::train`], but records telemetry through the
    /// given [`Recorder`].
    ///
    /// With `NoopRecorder`, every instrumentation point monomorphizes away
    /// and the report's efficiency metrics read zero (the model and
    /// per-epoch losses are unaffected).
    ///
    /// # Errors
    ///
    /// [`TrainError::Config`] for invalid configurations,
    /// [`TrainError::EmptyDataset`] for empty input.
    pub fn train_with<D: TrainData, R: Recorder>(
        &self,
        data: &D,
        recorder: &R,
    ) -> Result<TrainReport, TrainError> {
        self.train_traced(data, recorder, &NoopInjector, &NoopTracer)
    }

    /// Trains under a seeded [`FaultPlan`], collecting telemetry with a
    /// sharded recorder.
    ///
    /// The plan's stalls, write drops, progress skew, and crashes are
    /// injected into the real threaded Hogwild! loop; crashes recover from
    /// a model checkpoint taken at epoch boundaries. The fault *schedule*
    /// is a pure function of the plan seed, so a failure mode observed
    /// once can be replayed exactly. (Write delays and stale read views
    /// need a scheduler clock, which real threads do not have; those knobs
    /// are exercised by the deterministic engine in
    /// [`ChaosSgdConfig`](crate::ChaosSgdConfig), and a delay here applies
    /// the write immediately.)
    ///
    /// # Errors
    ///
    /// [`TrainError::Plan`] for invalid plans, otherwise as
    /// [`SgdConfig::train`].
    pub fn train_with_faults<D: TrainData>(
        &self,
        data: &D,
        plan: &FaultPlan,
    ) -> Result<TrainReport, TrainError> {
        let injector = PlanInjector::new(plan.clone())?;
        let recorder = ShardedRecorder::new(self.threads.max(1));
        self.train_traced(data, &recorder, &injector, &NoopTracer)
    }

    /// The fully general entry point: trains like
    /// [`SgdConfig::train_with`], threading every iteration and model
    /// write through the given [`Injector`] and recording span timelines
    /// through the given [`Tracer`].
    ///
    /// Workers mark minibatch / gradient-kernel / model-write / stall
    /// spans; the driver thread marks one epoch span per epoch (on
    /// timeline row `threads`) and a recovery span per checkpoint
    /// rollback. With [`NoopInjector`] and [`NoopTracer`] — how every
    /// other entry point calls this — all of it monomorphizes away.
    ///
    /// # Errors
    ///
    /// See [`SgdConfig::train`].
    pub fn train_traced<D: TrainData, R: Recorder, I: Injector, T: Tracer>(
        &self,
        data: &D,
        recorder: &R,
        injector: &I,
        tracer: &T,
    ) -> Result<TrainReport, TrainError> {
        self.validate()?;
        if sealed::Sealed::examples(data) == 0 {
            return Err(TrainError::EmptyDataset);
        }
        let precision = ModelPrecision::from_signature(&self.signature).expect("validated above");
        let prepared = data.prepare(self);
        let n = data.model_features();
        Ok(match self.backend {
            Backend::SharedModel => self.drive(
                data,
                &prepared,
                SharedModel::zeros(precision, n),
                recorder,
                injector,
                tracer,
            ),
            Backend::ShardedDelta => self.drive(
                data,
                &prepared,
                ShardEngine::new(precision, self.threads, n, self.delta_every),
                recorder,
                injector,
                tracer,
            ),
        })
    }

    /// The epoch driver both backends run through: per epoch it spawns
    /// one worker per part behind a start barrier, times the epoch,
    /// rolls back crashed epochs to the last checkpoint, publishes the
    /// snapshot, scores the loss, and consults the observer.
    fn drive<D: TrainData, E: Engine, R: Recorder, I: Injector, T: Tracer>(
        &self,
        data: &D,
        prepared: &Prepared<'_>,
        mut engine: E,
        recorder: &R,
        injector: &I,
        tracer: &T,
    ) -> TrainReport {
        let m = sealed::Sealed::examples(data);
        let mut epoch_losses = Vec::new();
        let epoch_seconds = recorder.histogram(metric::EPOCH_SECONDS);
        let publish_ns = self
            .on_snapshot
            .as_ref()
            .map(|_| recorder.counter(metric::SNAPSHOT_PUBLISH_NS));
        let mut wall = 0f64;
        // Crash recovery: checkpoint the model at epoch boundaries (cadence
        // chosen by the injector) and roll back + replay the epoch when a
        // worker dies. PlanInjector consumes each crash on first fire, so a
        // replayed epoch runs through.
        let checkpoint_every = injector.checkpoint_epochs();
        let mut checkpoint: Option<Vec<f32>> = checkpoint_every.map(|_| engine.checkpoint());
        let mut clean_epochs = 0u32;
        let recovery = if I::ACTIVE {
            Some((
                recorder.counter(chaos_metric::RECOVERIES),
                recorder.counter(chaos_metric::REPLAYED_ITERATIONS),
            ))
        } else {
            None
        };
        // The driver thread's spans (epochs, recoveries) go on timeline
        // row `threads`, one above the worker rows.
        let mut driver = tracer.worker(self.threads);
        let mut epoch = 0usize;
        let mut replays = 0u32;
        while epoch < self.epochs {
            let step = self.step_size * self.step_decay.powi(epoch as i32);
            let epoch_span = driver.begin();
            let mut crashed = 0usize;
            let mut secs = 0f64;
            // Workers rendezvous here before touching data, and the driver
            // starts the clock only after the release — thread spawn/join
            // overhead stays out of the throughput measurement.
            let barrier = Barrier::new(self.threads + 1);
            let parts = engine.parts(self.threads, recorder);
            std::thread::scope(|s| {
                let mut handles = Vec::with_capacity(self.threads);
                for (t, part) in parts.into_iter().enumerate() {
                    let barrier = &barrier;
                    let worker = Worker {
                        loss: self.loss,
                        step,
                        minibatch: self.minibatch,
                        index: t,
                        threads: self.threads,
                        rng: QuantState::new(
                            &self.quantizer,
                            self.rounding,
                            split_seed(self.seed, (epoch * self.threads + t) as u64 + 1),
                        ),
                        counters: WorkerCounters {
                            iterations: recorder.worker_counter(metric::ITERATIONS, t),
                            numbers: recorder.worker_counter(metric::NUMBERS_PROCESSED, t),
                            rounds: recorder.worker_counter(metric::ROUND_EVENTS, t),
                            chaos: I::ACTIVE.then(|| ChaosCounters {
                                stalls: recorder.worker_counter(chaos_metric::STALLS, t),
                                dropped: recorder.worker_counter(chaos_metric::DROPPED_WRITES, t),
                                stall_ticks: recorder
                                    .worker_histogram(chaos_metric::STALL_TICKS, t),
                            }),
                        },
                        inj: injector.worker(t, epoch),
                        tracer: tracer.worker(t),
                    };
                    handles.push(s.spawn(move || {
                        let (mut model, mut exchange) = part.start();
                        barrier.wait();
                        prepared.run_worker(&mut model, &mut exchange, worker)
                    }));
                }
                barrier.wait();
                let start = Instant::now();
                crashed = handles
                    .into_iter()
                    .map(|h| h.join().expect("worker panicked"))
                    .filter(|&c| c)
                    .count();
                secs = start.elapsed().as_secs_f64();
            });
            epoch_seconds.record(secs);
            driver.end(Phase::Epoch, epoch_span, epoch as u64);
            wall += secs;
            if crashed > 0 {
                if let Some(ckpt) = &checkpoint {
                    if replays < MAX_REPLAYS_PER_EPOCH {
                        replays += 1;
                        if let Some((recoveries, replayed)) = &recovery {
                            recoveries.add(crashed as u64);
                            replayed.add(m as u64);
                        }
                        let recovery_span = driver.begin();
                        engine.restore(ckpt);
                        driver.end(Phase::ChaosFault, recovery_span, fault_kind::RECOVERY);
                        continue;
                    }
                }
                // No checkpoint to roll back to: the dead worker's shard is
                // simply lost for this epoch and training carries on.
            }
            // Publish the epoch-tagged snapshot for online consumers. This
            // runs after the timed region closed, so the copy-and-swap cost
            // lands in `snapshot.publish_ns`, never in epoch throughput.
            if let (Some(publish), Some(publish_ns)) = (&self.on_snapshot, &publish_ns) {
                let publish_start = Instant::now();
                publish(EpochSnapshot {
                    epoch: epoch as u64,
                    model: std::sync::Arc::new(engine.publish()),
                });
                publish_ns.add(publish_start.elapsed().as_nanos() as u64);
            }
            let loss = if self.record_losses {
                let l = data.mean_loss(self.loss, &engine.model());
                epoch_losses.push(l);
                Some(l)
            } else {
                None
            };
            let mut stop = false;
            if let Some(observer) = &self.on_epoch {
                let progress = TrainProgress {
                    epoch,
                    epochs: self.epochs,
                    loss,
                    wall_seconds: wall,
                    iterations: (m * (epoch + 1)) as u64,
                };
                stop = observer(&progress) == TrainControl::Stop;
            }
            epoch += 1;
            replays = 0;
            if let Some(every) = checkpoint_every {
                clean_epochs += 1;
                if clean_epochs >= every.get() {
                    checkpoint = Some(engine.checkpoint());
                    clean_epochs = 0;
                }
            }
            if stop {
                break;
            }
        }
        // GNPS needs the cross-worker totals, so it is derived from the
        // recorder's own counters at the end of the run.
        let snapshot = recorder.snapshot();
        if let Some(numbers) = snapshot.counter(metric::NUMBERS_PROCESSED) {
            recorder
                .gauge(metric::GNPS)
                .set(numbers as f64 / wall.max(1e-12) / 1e9);
        }
        TrainReport {
            model: engine.model(),
            epoch_losses,
            metrics: recorder.snapshot(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use buckwild_dataset::generate;
    use buckwild_kernels::KernelFlavor;
    use buckwild_telemetry::NoopRecorder;

    fn logistic_config() -> SgdConfig {
        SgdConfig::new(Loss::Logistic)
            .step_size(0.5)
            .step_decay(0.8)
            .epochs(8)
            .seed(1)
    }

    #[test]
    fn full_precision_sequential_converges() {
        let p = generate::logistic_dense(32, 400, 5);
        let report = logistic_config().train(&p.data).unwrap();
        let chance = std::f64::consts::LN_2;
        assert!(
            report.final_loss() < 0.6 * chance,
            "loss {}",
            report.final_loss()
        );
        // Loss decreases overall.
        assert!(report.epoch_losses()[0] > report.final_loss());
    }

    #[test]
    fn d8m8_buckwild_converges_close_to_full_precision() {
        let p = generate::logistic_dense(64, 600, 6);
        let full = logistic_config().train(&p.data).unwrap();
        let low = logistic_config()
            .signature("D8M8".parse().unwrap())
            .train(&p.data)
            .unwrap();
        assert!(
            low.final_loss() < full.final_loss() + 0.1,
            "low {} vs full {}",
            low.final_loss(),
            full.final_loss()
        );
    }

    #[test]
    fn d16m16_matches_full_precision_tightly() {
        let p = generate::logistic_dense(64, 600, 7);
        let full = logistic_config().train(&p.data).unwrap();
        let low = logistic_config()
            .signature("D16M16".parse().unwrap())
            .train(&p.data)
            .unwrap();
        assert!((low.final_loss() - full.final_loss()).abs() < 0.05);
    }

    #[test]
    fn bitserial_kernel_is_bit_identical_to_optimized_single_thread() {
        // Training arithmetic does not depend on the kernel flavour: a
        // bit-serial run quantizes the data once and runs the same step as
        // the optimized one, so a single-threaded run must reproduce the
        // default kernel's model exactly — at both dense fixed precisions
        // and through the minibatch scratch path. 70 features is not a
        // multiple of any kernel block or SIMD width.
        for sig in ["D8M8", "D16M16"] {
            let p = generate::logistic_dense(70, 200, 21);
            let base = || logistic_config().signature(sig.parse().unwrap());
            let opt = base()
                .kernel(KernelFlavor::Optimized)
                .train(&p.data)
                .unwrap();
            let bits = base()
                .kernel(KernelFlavor::BitSerial)
                .train(&p.data)
                .unwrap();
            assert_eq!(opt.model(), bits.model(), "{sig} model diverged");
            assert_eq!(opt.epoch_losses(), bits.epoch_losses(), "{sig}");

            let opt_mb = base()
                .kernel(KernelFlavor::Optimized)
                .minibatch(8)
                .train(&p.data)
                .unwrap();
            let bits_mb = base()
                .kernel(KernelFlavor::BitSerial)
                .minibatch(8)
                .train(&p.data)
                .unwrap();
            assert_eq!(opt_mb.model(), bits_mb.model(), "{sig} minibatch");
        }
    }

    #[test]
    fn bitserial_sharded_single_worker_matches_shared() {
        let p = generate::logistic_dense(70, 200, 22);
        let base = || {
            logistic_config()
                .signature("D8M8".parse().unwrap())
                .kernel(KernelFlavor::BitSerial)
        };
        let shared = base().train(&p.data).unwrap();
        let sharded = base()
            .backend(Backend::ShardedDelta)
            .train(&p.data)
            .unwrap();
        assert_eq!(shared.model(), sharded.model());
    }

    #[test]
    fn bitserial_hogwild_two_threads_converges() {
        let p = generate::logistic_dense(64, 600, 8);
        let report = logistic_config()
            .signature("D8M8".parse().unwrap())
            .kernel(KernelFlavor::BitSerial)
            .threads(2)
            .train(&p.data)
            .unwrap();
        assert!(report.final_loss() < 0.5, "loss {}", report.final_loss());
    }

    #[test]
    fn hogwild_two_threads_converges() {
        let p = generate::logistic_dense(64, 600, 8);
        let report = logistic_config()
            .signature("D8M8".parse().unwrap())
            .threads(2)
            .train(&p.data)
            .unwrap();
        assert!(report.final_loss() < 0.5, "loss {}", report.final_loss());
    }

    #[test]
    fn minibatch_converges() {
        let p = generate::logistic_dense(32, 400, 9);
        let report = logistic_config()
            .signature("D8M8".parse().unwrap())
            .minibatch(8)
            .train(&p.data)
            .unwrap();
        assert!(report.final_loss() < 0.55, "loss {}", report.final_loss());
    }

    #[test]
    fn sparse_training_converges() {
        let p = generate::logistic_sparse(256, 800, 0.05, 10);
        let report = logistic_config()
            .signature("D8i8M8".parse().unwrap())
            .train(&p.data)
            .unwrap();
        assert!(report.final_loss() < 0.6, "loss {}", report.final_loss());
    }

    #[test]
    fn least_squares_recovers_linear_model() {
        let p = generate::linear_dense(16, 600, 0.01, 11);
        let report = SgdConfig::new(Loss::LeastSquares)
            .step_size(0.3)
            .epochs(30)
            .train(&p.data)
            .unwrap();
        // Compare against the normalized true model.
        let scale = (16f32).sqrt();
        for (got, want) in report.model().iter().zip(&p.true_model) {
            assert!(
                (got - want / scale).abs() < 0.1,
                "{got} vs {}",
                want / scale
            );
        }
    }

    #[test]
    fn hinge_svm_trains() {
        let p = generate::logistic_dense(32, 400, 12);
        let report = SgdConfig::new(Loss::Hinge)
            .step_size(0.05)
            .epochs(10)
            .train(&p.data)
            .unwrap();
        let acc = metrics::accuracy(Loss::Hinge, report.model(), &p.data);
        assert!(acc > 0.8, "accuracy {acc}");
    }

    #[test]
    fn report_accounting_derives_from_telemetry() {
        let p = generate::logistic_dense(16, 100, 13);
        let report = logistic_config().epochs(3).train(&p.data).unwrap();
        assert_eq!(report.iterations(), 300);
        assert_eq!(report.numbers_processed(), 16 * 100 * 3);
        assert!(report.gnps() > 0.0);
        assert_eq!(report.epoch_losses().len(), 3);
        // The report reads straight from the snapshot, which also carries
        // the epoch timings and the rounding-event count.
        let snap = report.metrics();
        assert_eq!(snap.counter(metric::ITERATIONS), Some(300));
        assert_eq!(snap.histogram(metric::EPOCH_SECONDS).unwrap().count, 3);
        assert!(snap.counter(metric::ROUND_EVENTS).unwrap() > 0);
        assert!(snap.gauge(metric::GNPS).unwrap() > 0.0);
    }

    #[test]
    fn sparse_accounting_counts_nonzeros() {
        let p = generate::logistic_sparse(200, 50, 0.03, 19);
        let report = logistic_config().epochs(2).train(&p.data).unwrap();
        assert_eq!(report.iterations(), 100);
        assert_eq!(report.numbers_processed(), (p.data.nnz() * 2) as u64);
    }

    #[test]
    fn noop_recorder_trains_without_metrics() {
        let p = generate::logistic_dense(32, 400, 5);
        let instrumented = logistic_config().train(&p.data).unwrap();
        let silent = logistic_config()
            .train_with(&p.data, &NoopRecorder)
            .unwrap();
        // Same training result either way...
        assert_eq!(silent.model(), instrumented.model());
        assert_eq!(silent.epoch_losses(), instrumented.epoch_losses());
        // ...but no measurements were collected.
        assert!(silent.metrics().is_empty());
        assert_eq!(silent.iterations(), 0);
        assert_eq!(silent.wall_seconds(), 0.0);
    }

    #[test]
    fn traced_run_captures_all_phases() {
        use buckwild_trace::RingTracer;
        let p = generate::logistic_dense(16, 60, 5);
        let tracer = RingTracer::new();
        let report = logistic_config()
            .epochs(2)
            .threads(2)
            .train_traced(&p.data, &NoopRecorder, &NoopInjector, &tracer)
            .unwrap();
        assert!(report.final_loss().is_finite());
        let trace = tracer.drain();
        let count = |phase: Phase| trace.events().iter().filter(|e| e.phase == phase).count();
        assert_eq!(count(Phase::Epoch), 2);
        assert_eq!(count(Phase::Minibatch), 120);
        assert_eq!(count(Phase::GradientKernel), 120);
        assert!(count(Phase::ModelWrite) > 0);
        // Epoch spans live on the driver row above the worker rows.
        assert!(trace
            .events()
            .iter()
            .filter(|e| e.phase == Phase::Epoch)
            .all(|e| e.worker == 2));
        let json = trace.to_chrome_json();
        assert!(json.contains("\"traceEvents\""));
        assert!(json.contains("gradient_kernel"));
    }

    #[test]
    fn tracing_does_not_perturb_training() {
        use buckwild_trace::RingTracer;
        let p = generate::logistic_dense(32, 200, 16);
        let config = logistic_config().signature("D8M8".parse().unwrap());
        let plain = config.train_with(&p.data, &NoopRecorder).unwrap();
        let tracer = RingTracer::new();
        let traced = config
            .train_traced(&p.data, &NoopRecorder, &NoopInjector, &tracer)
            .unwrap();
        assert_eq!(plain.model(), traced.model());
        assert_eq!(plain.epoch_losses(), traced.epoch_losses());
    }

    #[test]
    fn on_epoch_observer_stops_early() {
        let p = generate::logistic_dense(16, 100, 13);
        let report = logistic_config()
            .epochs(20)
            .on_epoch(|progress| {
                assert_eq!(progress.epochs, 20);
                assert!(progress.loss.is_some());
                if progress.epoch >= 2 {
                    TrainControl::Stop
                } else {
                    TrainControl::Continue
                }
            })
            .train(&p.data)
            .unwrap();
        assert_eq!(report.epoch_losses().len(), 3);
        // Telemetry reflects the actual work done, not the configured plan.
        assert_eq!(report.iterations(), 300);
    }

    #[test]
    fn record_losses_off_skips_eval() {
        let p = generate::logistic_dense(16, 100, 14);
        let report = logistic_config()
            .record_losses(false)
            .train(&p.data)
            .unwrap();
        assert!(report.epoch_losses().is_empty());
    }

    #[test]
    fn biased_rounding_at_8bit_is_worse_than_unbiased() {
        // The §3 claim: with small models and precision, biased rounding
        // loses statistical efficiency because updates smaller than half a
        // quantum vanish.
        let p = generate::logistic_dense(64, 600, 15);
        let small_step = 0.02f32;
        let unbiased = SgdConfig::new(Loss::Logistic)
            .signature("D8M8".parse().unwrap())
            .rounding(Rounding::Unbiased)
            .step_size(small_step)
            .epochs(6)
            .train(&p.data)
            .unwrap();
        let biased = SgdConfig::new(Loss::Logistic)
            .signature("D8M8".parse().unwrap())
            .rounding(Rounding::Biased)
            .step_size(small_step)
            .epochs(6)
            .train(&p.data)
            .unwrap();
        assert!(
            unbiased.final_loss() <= biased.final_loss() + 1e-9,
            "unbiased {} vs biased {}",
            unbiased.final_loss(),
            biased.final_loss()
        );
    }

    #[test]
    fn deterministic_given_seed_single_thread() {
        let p = generate::logistic_dense(32, 200, 16);
        let config = logistic_config().signature("D8M8".parse().unwrap());
        let a = config.train(&p.data).unwrap();
        let b = config.train(&p.data).unwrap();
        assert_eq!(a.model(), b.model());
        assert_eq!(a.epoch_losses(), b.epoch_losses());
    }

    #[test]
    fn injected_drops_are_counted_and_benign_noop_matches() {
        let p = generate::logistic_dense(32, 200, 16);
        let config = logistic_config().signature("D8M8".parse().unwrap());
        // A benign plan must not perturb training relative to NoopInjector.
        let benign = config
            .train_with_faults(&p.data, &FaultPlan::new(9))
            .unwrap();
        let plain = config.train(&p.data).unwrap();
        assert_eq!(benign.model(), plain.model());
        assert_eq!(benign.epoch_losses(), plain.epoch_losses());
        // Certain drop: every nonzero update is discarded and counted.
        let dropped = config
            .train_with_faults(&p.data, &FaultPlan::new(9).drop_writes(1.0))
            .unwrap();
        assert!(
            dropped
                .metrics()
                .counter(chaos_metric::DROPPED_WRITES)
                .unwrap()
                > 0
        );
        assert_eq!(dropped.metrics().counter(metric::ROUND_EVENTS), Some(0));
        assert!(dropped.model().iter().all(|&w| w == 0.0));
    }

    #[test]
    fn injected_stalls_are_counted() {
        let p = generate::logistic_dense(16, 100, 17);
        let report = logistic_config()
            .epochs(2)
            .train_with_faults(&p.data, &FaultPlan::new(4).stalls(1.0, 1))
            .unwrap();
        assert_eq!(report.metrics().counter(chaos_metric::STALLS), Some(200));
        assert_eq!(
            report
                .metrics()
                .histogram(chaos_metric::STALL_TICKS)
                .unwrap()
                .count,
            200
        );
    }

    #[test]
    fn crash_recovers_from_checkpoint_and_converges() {
        let p = generate::logistic_dense(32, 400, 5);
        let clean = logistic_config().train(&p.data).unwrap();
        let plan = FaultPlan::new(21).crash(0, 2, 50);
        let crashed = logistic_config().train_with_faults(&p.data, &plan).unwrap();
        assert_eq!(crashed.metrics().counter(chaos_metric::RECOVERIES), Some(1));
        assert!(
            crashed
                .metrics()
                .counter(chaos_metric::REPLAYED_ITERATIONS)
                .unwrap()
                <= 400
        );
        // Full epoch count still delivered after the replay.
        assert_eq!(crashed.epoch_losses().len(), clean.epoch_losses().len());
        assert!(
            crashed.final_loss() < clean.final_loss() * 1.1,
            "crashed {} vs clean {}",
            crashed.final_loss(),
            clean.final_loss()
        );
    }

    #[test]
    fn invalid_plan_surfaces() {
        let p = generate::logistic_dense(8, 20, 17);
        let err = logistic_config()
            .train_with_faults(&p.data, &FaultPlan::new(0).drop_writes(2.0))
            .unwrap_err();
        assert!(matches!(err, TrainError::Plan(_)));
    }

    #[test]
    fn fault_free_snapshot_has_no_chaos_metrics() {
        let p = generate::logistic_dense(16, 100, 13);
        let report = logistic_config().epochs(2).train(&p.data).unwrap();
        assert!(report
            .metrics()
            .iter()
            .all(|(name, _)| !name.starts_with("chaos.")));
    }

    #[test]
    fn empty_dataset_rejected() {
        let data = DenseDataset::from_rows(vec![vec![1.0]], vec![1.0]);
        // Can't build an empty DenseDataset, so check the sparse path.
        let sparse = SparseDataset::from_triplets(4, vec![], vec![]);
        assert_eq!(
            logistic_config().train(&sparse),
            Err(TrainError::EmptyDataset)
        );
        let _ = data;
    }

    #[test]
    fn invalid_config_surfaces() {
        let p = generate::logistic_dense(8, 20, 17);
        let err = logistic_config()
            .signature("D4M4".parse().unwrap())
            .train(&p.data)
            .unwrap_err();
        assert!(matches!(err, TrainError::Config(_)));
    }
}
