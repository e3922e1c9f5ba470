//! The training phase: one `SgdConfig::train` call, timed from outside,
//! with its epoch times taken from an `on_epoch` observer and its result
//! checked after the clock stops.

use std::collections::VecDeque;
use std::sync::{Arc, Mutex};
use std::time::Instant;

use buckwild::{EpochSnapshot, KernelFlavor, Loss, SgdConfig, TrainControl, TrainReport};

use crate::trace::Spans;
use crate::workload::{Dataset, Workload, WORKERS};

/// Epoch snapshots kept from a run: the set the serving phase hot-swaps.
pub const SNAPSHOTS: usize = 8;

/// One measured training run.
pub struct TrainRun {
    /// Wall time of the `train` call: dataset quantization plus epochs.
    pub train_s: f64,
    /// Per-epoch wall times, as differences of `TrainProgress::wall_seconds`.
    pub epoch_s: Vec<f64>,
    /// Mean logistic loss of the final model on its training set.
    pub loss: f64,
    /// The last [`SNAPSHOTS`] epoch snapshots.
    pub snapshots: Vec<EpochSnapshot>,
    pub report: TrainReport,
    /// Why the run failed its checks, if it did.
    pub failure: Option<String>,
}

/// Runs one training pass of `workload` over `data`. With `spans`, each
/// epoch and the whole call are recorded under `parent`.
pub fn train_once(
    workload: &Workload,
    data: &Dataset,
    seed: u64,
    spans: Option<(&Spans, u64)>,
) -> Result<TrainRun, String> {
    let walls = Arc::new(Mutex::new(Vec::with_capacity(workload.epochs)));
    let kept = Arc::new(Mutex::new(VecDeque::with_capacity(SNAPSHOTS + 1)));
    let call = spans.map(|(s, parent)| (s, parent, s.open()));
    let observer_walls = Arc::clone(&walls);
    let observer_spans = call.map(|(s, _, (id, _))| (s.clone(), id));
    let snapshot_sink = Arc::clone(&kept);
    let config = SgdConfig::new(Loss::Logistic)
        .signature(workload.signature.parse().map_err(|e| format!("{e:?}"))?)
        .backend(workload.backend)
        .kernel(KernelFlavor::Optimized)
        .threads(WORKERS)
        .epochs(workload.epochs)
        .step_size(workload.step_size)
        .seed(seed)
        .delta_every(workload.delta_every)
        .record_losses(false)
        .on_epoch(move |progress| {
            let mut walls = observer_walls.lock().expect("epoch log poisoned");
            let previous = walls.last().copied().unwrap_or(0.0);
            walls.push(progress.wall_seconds);
            if let Some((spans, parent)) = &observer_spans {
                let secs = (progress.wall_seconds - previous).max(0.0);
                spans.record_ending_now(
                    "train.epoch",
                    *parent,
                    std::time::Duration::from_secs_f64(secs),
                );
            }
            TrainControl::Continue
        })
        .on_snapshot(move |snapshot| {
            let mut kept = snapshot_sink.lock().expect("snapshot log poisoned");
            kept.push_back(snapshot);
            if kept.len() > SNAPSHOTS {
                kept.pop_front();
            }
        });

    let start = Instant::now();
    let trained = match data {
        Dataset::Dense(d) => config.train(d),
        Dataset::Sparse(d) => config.train(d),
    };
    let train_s = start.elapsed().as_secs_f64();
    if let Some((spans, parent, opened)) = call {
        spans.close(opened, "train.call", parent);
    }
    let report = trained.map_err(|e| format!("training failed: {e:?}"))?;

    let walls = walls.lock().expect("epoch log poisoned").clone();
    let epoch_s: Vec<f64> = walls
        .iter()
        .scan(0.0, |previous, &wall| {
            let secs = wall - *previous;
            *previous = wall;
            Some(secs)
        })
        .collect();
    let loss = match data {
        Dataset::Dense(d) => buckwild::mean_loss(Loss::Logistic, report.model(), d),
        Dataset::Sparse(d) => {
            buckwild::metrics::mean_loss_sparse(Loss::Logistic, report.model(), d)
        }
    };
    let snapshots: Vec<EpochSnapshot> = kept
        .lock()
        .expect("snapshot log poisoned")
        .drain(..)
        .collect();
    let failure = check(workload, &report, &epoch_s, loss, snapshots.len());
    Ok(TrainRun {
        train_s,
        epoch_s,
        loss,
        snapshots,
        report,
        failure,
    })
}

/// The run's counters must account for every epoch over every example,
/// and the model must beat the zero model's loss of ln 2.
fn check(
    workload: &Workload,
    report: &TrainReport,
    epoch_s: &[f64],
    loss: f64,
    snapshots: usize,
) -> Option<String> {
    let epochs = workload.epochs as u64;
    let iterations = epochs * workload.examples() as u64;
    let numbers = epochs * workload.numbers_per_epoch();
    if report.iterations() != iterations {
        return Some(format!(
            "iterations {} != epochs x examples {iterations}",
            report.iterations()
        ));
    }
    if report.numbers_processed() != numbers {
        return Some(format!(
            "numbers processed {} != epochs x numbers per epoch {numbers}",
            report.numbers_processed()
        ));
    }
    if epoch_s.len() != workload.epochs || !epoch_s.iter().all(|&s| s > 0.0) {
        return Some(format!("epoch observer saw {} epochs", epoch_s.len()));
    }
    if !(loss.is_finite() && loss < std::f64::consts::LN_2) {
        return Some(format!("loss {loss} is not below ln 2"));
    }
    if snapshots != SNAPSHOTS.min(workload.epochs) {
        return Some(format!("{snapshots} epoch snapshots published"));
    }
    None
}
