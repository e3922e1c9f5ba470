//! The traced run: per-layer metrics timed from outside each crate, on
//! the workload's own inputs, plus the ledger that reconciles them with
//! the end-to-end numbers.
//!
//! The run alternates untraced and traced training runs and traces every
//! other request of its serving phase, so the gap between the two halves
//! is the tracing overhead; then it times each layer's public functions
//! at the workload's sizes. Every
//! workload reports every layer metric: a layer that the workload's own
//! path bypasses is still timed at the workload's width, and its counters
//! read zero (for example, delta bytes on the shared-model backend).

use std::hint::black_box;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

use buckwild::ring::DeltaRing;
use buckwild::{EpochSnapshot, ModelPrecision, Predictor, SharedModel};
use buckwild_dataset::DenseDataset;
use buckwild_fixed::{FixedSpec, Rounding};
use buckwild_kernels::cost::QuantizerKind;
use buckwild_kernels::delta::{apply_delta_i8, quantize_delta_i8};
use buckwild_kernels::KernelFlavor;
use buckwild_prng::{Prng, Xorshift128, XorshiftLanes};
use buckwild_serve::{wire, SnapshotHub};

use crate::serve::{serve_phase, ServeRun};
use crate::trace::Spans;
use crate::train::{train_once, TrainRun};
use crate::workload::{Dataset, Shape, Workload};
use crate::{run_seed, stats, Report};

/// Run time of each kernel measurement, in seconds.
const KERNEL_SECONDS: f64 = 0.25;

/// Timed batches per microbenchmark; the median batch is reported.
const BATCHES: usize = 9;

/// Target length of one microbenchmark batch.
const BATCH_TIME: Duration = Duration::from_millis(4);

/// Relative tolerance of the two ledger lines that are sums of parts.
const SUM_TOLERANCE: f64 = 0.01;

/// Range that dataset quantization's share of `train.prepare_s` must
/// fall in: quantizing is most of the preparation, and the rest is
/// thread start-up, snapshot copies and model set-up.
const QUANTIZE_SHARE: (f64, f64) = (0.5, 1.5);

fn median(values: &[f64]) -> f64 {
    stats::median(values).unwrap_or(f64::NAN)
}

/// Median nanoseconds per call of `f`, over [`BATCHES`] batches each
/// sized to about [`BATCH_TIME`].
fn ns_per_call(mut f: impl FnMut()) -> f64 {
    let mut calls = 1u32;
    loop {
        let start = Instant::now();
        for _ in 0..calls {
            f();
        }
        if start.elapsed() >= BATCH_TIME || calls >= 1 << 24 {
            break;
        }
        calls *= 2;
    }
    let samples: Vec<f64> = (0..BATCHES)
        .map(|_| {
            let start = Instant::now();
            for _ in 0..calls {
                f();
            }
            start.elapsed().as_nanos() as f64 / f64::from(calls)
        })
        .collect();
    median(&samples)
}

/// Seconds of one call of `f`, median of three.
fn seconds_per_call<T>(mut f: impl FnMut() -> T) -> f64 {
    let samples: Vec<f64> = (0..3)
        .map(|_| {
            let start = Instant::now();
            black_box(f());
            start.elapsed().as_secs_f64()
        })
        .collect();
    median(&samples)
}

pub fn run_traced(workload: &Workload, seed: u64, seconds: f64) -> Result<Report, String> {
    let spans = Spans::new();
    let start = Instant::now();
    let inputs = workload.generate(seed);
    let generate_s = start.elapsed().as_secs_f64();
    spans.record_since("dataset.generate", 0, start);

    // Untraced and traced training runs alternate, so drift in machine
    // speed lands on both sides of the overhead.
    let budget = seconds * workload.train_share;
    let train_start = Instant::now();
    let (mut plain, mut traced): (Vec<TrainRun>, Vec<TrainRun>) = (Vec::new(), Vec::new());
    while traced.is_empty() || train_start.elapsed().as_secs_f64() * 1.5 < budget {
        let k = plain.len() + traced.len();
        plain.push(train_once(workload, &inputs.data, run_seed(seed, k), None)?);
        traced.push(train_once(
            workload,
            &inputs.data,
            run_seed(seed, k + 1),
            Some((&spans, 0)),
        )?);
    }
    let serve_seconds = (seconds - train_start.elapsed().as_secs_f64()).max(1.0);
    // Timed before serving pins the main thread, as it ran inside `train`.
    let numbers = match &inputs.data {
        Dataset::Dense(d) => d.numbers() as f64,
        Dataset::Sparse(d) => d.nnz() as f64,
    };
    let quantize_s = match &inputs.data {
        Dataset::Dense(d) => seconds_per_call(|| d.quantize_i8(FixedSpec::unit_range(8))),
        Dataset::Sparse(d) => seconds_per_call(|| {
            d.requantize::<i8, u32>(FixedSpec::unit_range(8), Rounding::Biased, seed)
        }),
    };

    let snapshots = &traced.last().expect("one traced run").snapshots;
    let features = workload.features();
    let served = serve_phase(
        snapshots,
        &inputs.requests,
        features,
        serve_seconds,
        Some((&spans, 0)),
    )
    .map_err(|e| format!("serving failed: {e}"))?;

    let mut metrics = Vec::new();
    let ledger = train_layers(workload, &spans, &plain, &traced, &mut metrics);
    metrics.push(("dataset.generate_s", generate_s, "s"));
    metrics.push((
        "dataset.quantize_ns_per_number",
        quantize_s * 1e9 / numbers,
        "ns/number",
    ));
    kernel_layers(workload, &inputs.requests[0], seed, &mut metrics);
    serve_layers(
        &snapshots[0],
        &inputs.requests[0],
        features,
        &served,
        &mut metrics,
    );

    // The ledger.
    let mut failed = 0u64;
    let mut line = |name: &str, text: String, holds: bool| {
        println!(
            "ledger {name}: {text} [{}]",
            if holds { "holds" } else { "FAILS" }
        );
        failed += u64::from(!holds);
    };
    let sum_gap = (ledger.prepare_s + ledger.epochs_s - ledger.train_s).abs() / ledger.train_s;
    line(
        "train",
        format!(
            "median traced run: train.prepare_s {:.4} + sum of epochs {:.4} = {:.4} vs train_s {:.4} timed around the call (gap {:.3}%, tolerance {}%)",
            ledger.prepare_s,
            ledger.epochs_s,
            ledger.prepare_s + ledger.epochs_s,
            ledger.train_s,
            sum_gap * 100.0,
            SUM_TOLERANCE * 100.0
        ),
        sum_gap <= SUM_TOLERANCE,
    );
    let share = quantize_s / ledger.prepare_p50;
    line(
        "quantize",
        format!(
            "dataset.quantize_ns_per_number x {numbers} numbers = {quantize_s:.4} s is {:.1}% of train.prepare_s {:.4} (range {:.0}%..{:.0}%)",
            share * 100.0,
            ledger.prepare_p50,
            QUANTIZE_SHARE.0 * 100.0,
            QUANTIZE_SHARE.1 * 100.0
        ),
        (QUANTIZE_SHARE.0..=QUANTIZE_SHARE.1).contains(&share),
    );
    let server_us = served.server_mean_ns * 1e-3;
    let transport_us = served.p50_us() - server_us;
    let p50_gap = (server_us + transport_us - served.p50_us()).abs() / served.p50_us();
    line(
        "serve",
        format!(
            "serve.server_mean_us {server_us:.3} + serve.transport_us {transport_us:.3} = serve.untraced_p50_us {:.3} (gap {:.3}%, tolerance {}%)",
            served.p50_us(),
            p50_gap * 100.0,
            SUM_TOLERANCE * 100.0
        ),
        p50_gap <= SUM_TOLERANCE,
    );
    let train_overhead =
        ledger.traced_train_s / median(&plain.iter().map(|r| r.train_s).collect::<Vec<_>>()) - 1.0;
    let serve_overhead = served.traced_p50_us() / served.p50_us() - 1.0;
    println!(
        "ledger overhead: traced train_s {:+.2}%, traced serve_p50_us {:+.2}% against the untraced runs",
        train_overhead * 100.0,
        serve_overhead * 100.0
    );
    metrics.push(("trace.train_overhead_frac", train_overhead, "frac"));
    metrics.push(("trace.serve_overhead_frac", serve_overhead, "frac"));

    let path = PathBuf::from(".bench_trace").join(format!("{}-seed{seed}.jsonl", workload.name));
    spans
        .write_jsonl(&path)
        .map_err(|e| format!("writing {}: {e}", path.display()))?;
    println!("context spans={}", path.display());

    let train_failures = plain
        .iter()
        .chain(&traced)
        .filter(|r| r.failure.is_some())
        .count() as u64;
    let attempted = 3 + (plain.len() + traced.len()) as u64 + served.attempted;
    failed += train_failures + (served.attempted - served.ok);
    Ok(Report {
        attempted,
        failed,
        metrics,
    })
}

/// The training-phase figures the ledger reconciles.
struct TrainLedger {
    /// `train.call` self time (the call minus its epochs), median over
    /// the traced runs.
    prepare_p50: f64,
    /// The traced run with the median `train_s`: its self time, its
    /// epochs' sum, and its `train_s` as timed around the call.
    prepare_s: f64,
    epochs_s: f64,
    train_s: f64,
    /// Median `train_s` of the traced runs.
    traced_train_s: f64,
}

fn train_layers(
    workload: &Workload,
    spans: &Spans,
    plain: &[TrainRun],
    traced: &[TrainRun],
    metrics: &mut Vec<(&'static str, f64, &'static str)>,
) -> TrainLedger {
    // One `train.call` span per traced run, in run order.
    let calls = spans.named("train.call");
    let epochs = spans.named("train.epoch");
    let epochs_in = |id: u64| -> f64 {
        epochs
            .iter()
            .filter(|e| e.parent == id)
            .map(|e| e.seconds())
            .sum()
    };
    let prepare: Vec<f64> = calls
        .iter()
        .map(|c| c.seconds() - epochs_in(c.id))
        .collect();
    let epoch_p50 = median(&epochs.iter().map(|e| e.seconds()).collect::<Vec<_>>());
    let traced_s: Vec<f64> = traced.iter().map(|r| r.train_s).collect();
    let mut order: Vec<usize> = (0..traced.len()).collect();
    order.sort_by(|&a, &b| traced_s[a].total_cmp(&traced_s[b]));
    let mid = order[order.len() / 2];

    let last = &traced.last().expect("one traced run").report;
    let counter = |name: &str| last.metrics().counter(name).unwrap_or(0) as f64;
    let numbers = last.numbers_processed() as f64;
    let packets = counter(buckwild::metric::DELTA_PACKETS);
    let skips = counter(buckwild::metric::RING_FULL_SKIPS);
    let ledger = TrainLedger {
        prepare_p50: median(&prepare),
        prepare_s: prepare[mid],
        epochs_s: epochs_in(calls[mid].id),
        train_s: traced_s[mid],
        traced_train_s: median(&traced_s),
    };
    metrics.push(("train.prepare_s", ledger.prepare_p50, "s"));
    metrics.push(("train.epoch_p50_s", epoch_p50, "s"));
    metrics.push(("train.numbers_processed", numbers, "count"));
    metrics.push(("train.iterations", last.iterations() as f64, "count"));
    metrics.push((
        "quant.round_events_per_number",
        counter(buckwild::metric::ROUND_EVENTS) / numbers,
        "events/number",
    ));
    metrics.push((
        "shard.delta_bytes_per_number",
        counter(buckwild::metric::DELTA_BYTES) / numbers,
        "bytes/number",
    ));
    metrics.push((
        "shard.ring_full_skip_frac",
        if packets + skips > 0.0 {
            skips / (packets + skips)
        } else {
            0.0
        },
        "frac",
    ));
    metrics.push(("traced.train_s", ledger.traced_train_s, "s"));
    metrics.push((
        "traced.train_gnps",
        workload.numbers_per_epoch() as f64 / epoch_p50 / 1e9,
        "Gnum/s",
    ));
    metrics.push((
        "traced.train_loss",
        median(
            &plain
                .iter()
                .chain(traced)
                .map(|r| r.loss)
                .collect::<Vec<_>>(),
        ),
        "nats",
    ));
    ledger
}

/// Kernel, model-access, rounding and delta-exchange layers, at the
/// workload's model width and nonzero count.
fn kernel_layers(
    workload: &Workload,
    request: &[f32],
    seed: u64,
    metrics: &mut Vec<(&'static str, f64, &'static str)>,
) {
    let n = workload.features();
    let nnz = match workload.shape {
        Shape::Sparse { nnz, .. } => nnz,
        Shape::Dense { features, .. } => features,
    };
    let dense_sig = "D8M8".parse().expect("valid signature");
    let sparse_sig = "D8i16M8".parse().expect("valid signature");
    let quantizer = QuantizerKind::XorshiftShared;
    let kernel_dense = buckwild_bench::measure_dense_t1(
        &dense_sig,
        KernelFlavor::Optimized,
        quantizer,
        n,
        KERNEL_SECONDS,
    );
    let kernel_sparse = buckwild_bench::measure_sparse_t1(
        &sparse_sig,
        KernelFlavor::Optimized,
        quantizer,
        n,
        nnz,
        KERNEL_SECONDS,
    );
    metrics.push(("kernels.dense_D8M8_gnps", kernel_dense, "Gnum/s"));
    metrics.push(("kernels.sparse_D8i16M8_gnps", kernel_sparse, "Gnum/s"));

    // Shared-model access on one quantized request row.
    let x_spec = FixedSpec::unit_range(8);
    let row = DenseDataset::from_flat(request[..n].to_vec(), n, vec![1.0]).quantize_i8(x_spec);
    let x = row.example(0);
    let model = SharedModel::zeros(ModelPrecision::I8, n);
    let mut rng = Xorshift128::seed_from(seed);
    let offsets: Vec<i64> = (0..n).map(|_| i64::from(rng.next_u32() >> 17)).collect();
    let dot_ns = ns_per_call(|| {
        black_box(model.dot_fixed(black_box(x), &x_spec));
    });
    let mut sign = 1e-3f32;
    let axpy_ns = ns_per_call(|| {
        sign = -sign;
        model.axpy_fixed(sign, black_box(x), &x_spec, &mut |i| offsets[i]);
    });
    metrics.push((
        "model.shared_dot_ns_per_number",
        dot_ns / n as f64,
        "ns/number",
    ));
    metrics.push((
        "model.shared_axpy_ns_per_number",
        axpy_ns / n as f64,
        "ns/number",
    ));
    // One dense iteration reads the row twice (dot, then AXPY); GNPS counts
    // it once, as the kernel measurement does.
    let shared_gnps = n as f64 / (dot_ns + axpy_ns);
    metrics.push((
        "model.shared_over_kernel",
        shared_gnps / kernel_dense,
        "ratio",
    ));

    let mut lanes = XorshiftLanes::<8>::seed_from(seed);
    let mut uniforms = [0f32; 8];
    let uniform_ns = ns_per_call(|| {
        lanes.step_uniform(black_box(&mut uniforms));
    });
    metrics.push(("prng.uniform_ns_per_number", uniform_ns / 8.0, "ns/number"));

    let delta: Vec<f32> = (0..n).map(|_| rng.next_f32() * 2.0 - 1.0).collect();
    let mut q = vec![0i8; n];
    let quantize_ns = ns_per_call(|| {
        black_box(quantize_delta_i8(black_box(&delta), &mut q));
    });
    let scale = quantize_delta_i8(&delta, &mut q).expect("nonzero delta");
    let mut acc = vec![0f32; n];
    let apply_ns = ns_per_call(|| apply_delta_i8(black_box(&mut acc), &q, scale));
    metrics.push((
        "delta.quantize_ns_per_number",
        quantize_ns / n as f64,
        "ns/number",
    ));
    metrics.push((
        "delta.apply_ns_per_number",
        apply_ns / n as f64,
        "ns/number",
    ));

    let ring = DeltaRing::new(4, n);
    let mut out = vec![0i8; n];
    let ring_ns = ns_per_call(|| {
        assert!(ring.push(scale, &q), "an emptied ring accepts a packet");
        black_box(ring.pop_into(&mut out));
    });
    metrics.push(("ring.push_pop_ns", ring_ns, "ns"));
}

/// Prediction, wire codec, hub and server/transport layers.
fn serve_layers(
    snapshot: &EpochSnapshot,
    request: &[f32],
    features: usize,
    served: &ServeRun,
    metrics: &mut Vec<(&'static str, f64, &'static str)>,
) {
    let rows = request.len() / features;
    let mut scores = vec![0f32; rows];
    let score_ns = ns_per_call(|| snapshot.model.score_batch(black_box(request), &mut scores));
    metrics.push(("predict.score_ns_per_row", score_ns / rows as f64, "ns"));

    let mut frame = Vec::new();
    let mut decoded = Vec::new();
    let request_ns = ns_per_call(|| {
        wire::encode_request(&mut frame, black_box(request), features);
        black_box(wire::decode_request(&frame[4..], &mut decoded).expect("own encoding"));
    });
    let response_ns = ns_per_call(|| {
        wire::encode_response(&mut frame, wire::status::OK, 7, black_box(&scores));
        black_box(wire::decode_response(&frame[4..]).expect("own encoding"));
    });
    metrics.push(("wire.request_ns", request_ns, "ns"));
    metrics.push(("wire.response_ns", response_ns, "ns"));

    let hub = SnapshotHub::new();
    let mut epoch = 0u64;
    let publish_ns = ns_per_call(|| {
        epoch += 1;
        hub.publish(EpochSnapshot {
            epoch,
            model: Arc::clone(&snapshot.model),
        });
    });
    let current_ns = ns_per_call(|| {
        black_box(hub.current());
    });
    metrics.push(("hub.publish_ns", publish_ns, "ns"));
    metrics.push(("hub.current_ns", current_ns, "ns"));

    let server_us = served.server_mean_ns * 1e-3;
    metrics.push(("serve.epoch_lag_mean", served.epoch_lag_mean, "epochs"));
    metrics.push(("serve.server_mean_us", server_us, "us"));
    metrics.push(("serve.transport_us", served.p50_us() - server_us, "us"));
    metrics.push(("serve.client_p99_us", served.p99_us(), "us"));
    metrics.push((
        "serve.client_rps",
        served.attempted as f64 / served.loop_s,
        "1/s",
    ));
    metrics.push(("serve.untraced_p50_us", served.p50_us(), "us"));
    metrics.push(("traced.serve_p50_us", served.traced_p50_us(), "us"));
}
