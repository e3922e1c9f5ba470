//! The serving phase: one `PredictServer` shard and one closed-loop
//! `PredictClient` connection, with a hot swap every [`SWAP_EVERY`]
//! requests.
//!
//! The main thread pins itself to core 1 before starting the server, so
//! the shard thread inherits core 1, then moves to core 0 to run the
//! client. Unpinned, the two threads drift between sharing a core and
//! not, and requests per second split into modes a factor of two apart.
//! Pinned to one shared core, round trips flipped every few seconds
//! between modes near 17 and 28 µs.

use std::io;
use std::sync::Arc;
use std::time::{Duration, Instant};

use buckwild::{EpochSnapshot, Predictor};
use buckwild_serve::{metric, PredictClient, PredictServer, ServeConfig, SnapshotHub};
use buckwild_telemetry::MetricsSnapshot;

use crate::stats;
use crate::trace::Spans;

/// Requests between two snapshot publications.
pub const SWAP_EVERY: u64 = 64;

/// A request rate no serving phase reaches; the latency logs reserve room
/// for it so they never reallocate, as a doubling copy of a log would
/// show in `peak_rss_mb`.
const MAX_REQUESTS_PER_SECOND: f64 = 100_000.0;

/// Untimed requests before the clock starts.
const WARMUP_REQUESTS: u64 = 512;

/// The core the server shard runs on; the client takes core 0.
const SERVER_CORE: usize = 1;

/// What one serving phase measured.
pub struct ServeRun {
    /// Exact client-side round trips of the timed requests, in ns,
    /// sorted ascending.
    pub latencies_ns: Vec<f64>,
    /// With spans, every other timed request is traced; its round trip
    /// lands here instead of in `latencies_ns`. Sorted ascending.
    pub traced_ns: Vec<f64>,
    /// Timed requests whose status was OK and whose scores were
    /// bit-identical to the tagged snapshot's.
    pub ok: u64,
    /// Timed requests sent.
    pub attempted: u64,
    /// Server start, connection and warm-up, in seconds.
    pub prep_s: f64,
    /// Length of the timed loop, in seconds.
    pub loop_s: f64,
    /// Server-side mean request time over the timed requests, in ns.
    pub server_mean_ns: f64,
    /// Mean epochs between the newest snapshot and the one that answered.
    pub epoch_lag_mean: f64,
}

impl ServeRun {
    pub fn p50_us(&self) -> f64 {
        stats::quantile_sorted(&self.latencies_ns, 0.5).unwrap_or(f64::NAN) * 1e-3
    }

    pub fn p99_us(&self) -> f64 {
        stats::quantile_sorted(&self.latencies_ns, 0.99).unwrap_or(f64::NAN) * 1e-3
    }

    pub fn traced_p50_us(&self) -> f64 {
        stats::quantile_sorted(&self.traced_ns, 0.5).unwrap_or(f64::NAN) * 1e-3
    }
}

/// The hub and the per-snapshot expected scores, so every response can be
/// checked against `Predictor::score_batch` on the snapshot it names.
struct Swapper<'a> {
    hub: Arc<SnapshotHub>,
    snapshots: &'a [EpochSnapshot],
    /// `expected[s][b]`: scores of request batch `b` under snapshot `s`.
    expected: Vec<Vec<Vec<f32>>>,
    epoch: u64,
}

impl<'a> Swapper<'a> {
    fn new(snapshots: &'a [EpochSnapshot], requests: &[Vec<f32>], features: usize) -> Self {
        let expected = snapshots
            .iter()
            .map(|snap| {
                requests
                    .iter()
                    .map(|batch| {
                        let mut out = vec![0f32; batch.len() / features];
                        snap.model.score_batch(batch, &mut out);
                        out
                    })
                    .collect()
            })
            .collect();
        let swapper = Swapper {
            hub: Arc::new(SnapshotHub::new()),
            snapshots,
            expected,
            epoch: 0,
        };
        swapper.publish();
        swapper
    }

    /// Publishes the snapshot for the current epoch tag. Tags count up
    /// forever and snapshot `tag % len` answers for tag `tag`.
    fn publish(&self) {
        let snap = &self.snapshots[self.epoch as usize % self.snapshots.len()];
        self.hub.publish(EpochSnapshot {
            epoch: self.epoch,
            model: Arc::clone(&snap.model),
        });
    }

    fn swap(&mut self) {
        self.epoch += 1;
        self.publish();
    }

    fn correct(&self, batch: usize, status_ok: bool, epoch: u64, scores: &[f32]) -> bool {
        if !status_ok || epoch > self.epoch {
            return false;
        }
        let expected = &self.expected[epoch as usize % self.snapshots.len()][batch];
        expected.len() == scores.len()
            && expected
                .iter()
                .zip(scores)
                .all(|(e, s)| e.to_bits() == s.to_bits())
    }
}

/// Serves `snapshots` to requests drawn from `requests` for `seconds`.
/// With `spans`, every publication and every other timed request is
/// recorded under `parent`: traced and untraced requests then share one
/// phase, so their gap is the tracing overhead and not a change of
/// machine state between phases.
pub fn serve_phase(
    snapshots: &[EpochSnapshot],
    requests: &[Vec<f32>],
    features: usize,
    seconds: f64,
    spans: Option<(&Spans, u64)>,
) -> io::Result<ServeRun> {
    let prep_start = Instant::now();
    let mut swapper = Swapper::new(snapshots, requests, features);
    // Pinning is best effort; on one core both threads share core 0.
    let _ =
        buckwild_affinity::pin_current_thread(SERVER_CORE.min(buckwild_affinity::core_count() - 1));
    let server = PredictServer::start(
        Arc::clone(&swapper.hub),
        &ServeConfig::new("127.0.0.1:0").shards(1),
    )?;
    let _ = buckwild_affinity::pin_current_thread(0);
    let result = client_loop(
        &mut swapper,
        &server,
        requests,
        features,
        seconds,
        prep_start,
        spans,
    );
    // Shut the server down on every path, so no thread outlives the run.
    let final_metrics = server.shutdown();
    let (mut run, warm_metrics) = result?;
    let delta = |name: &str| {
        let after = final_metrics.histogram(name).unwrap_or_default();
        let before = warm_metrics.histogram(name).unwrap_or_default();
        (after.sum - before.sum, (after.count - before.count) as f64)
    };
    let (request_sum, request_count) = delta(metric::REQUEST_NS);
    let (lag_sum, lag_count) = delta(metric::EPOCH_LAG);
    run.server_mean_ns = request_sum / request_count.max(1.0);
    run.epoch_lag_mean = lag_sum / lag_count.max(1.0);
    Ok(run)
}

fn client_loop(
    swapper: &mut Swapper<'_>,
    server: &PredictServer,
    requests: &[Vec<f32>],
    features: usize,
    seconds: f64,
    prep_start: Instant,
    spans: Option<(&Spans, u64)>,
) -> io::Result<(ServeRun, MetricsSnapshot)> {
    let mut client = PredictClient::connect(server.local_addr())?;
    let mut sent = 0u64;
    let mut send = |client: &mut PredictClient, swapper: &mut Swapper<'_>| {
        if sent > 0 && sent.is_multiple_of(SWAP_EVERY) {
            let start = Instant::now();
            swapper.swap();
            if let Some((spans, parent)) = spans {
                spans.record_since("hub.publish", parent, start);
            }
        }
        let batch = sent as usize % requests.len();
        let traced = spans.filter(|_| sent % 2 == 1);
        sent += 1;
        let start = Instant::now();
        let response = client.predict(&requests[batch], features);
        let elapsed = start.elapsed();
        if let Some((spans, parent)) = traced {
            spans.record_ending_now("serve.request", parent, elapsed);
        }
        let ok = match &response {
            Ok(r) => swapper.correct(batch, r.is_ok(), r.epoch, &r.scores),
            Err(_) => false,
        };
        (elapsed, traced.is_some(), ok, response.is_err())
    };
    for _ in 0..WARMUP_REQUESTS {
        let (_, _, _, broken) = send(&mut client, swapper);
        if broken {
            return Err(io::Error::other("warm-up request failed"));
        }
    }
    let warm_metrics = settled_metrics(server, WARMUP_REQUESTS);
    let capacity = (seconds * MAX_REQUESTS_PER_SECOND) as usize;
    let mut run = ServeRun {
        latencies_ns: Vec::with_capacity(capacity),
        traced_ns: Vec::with_capacity(if spans.is_some() { capacity } else { 0 }),
        ok: 0,
        attempted: 0,
        prep_s: prep_start.elapsed().as_secs_f64(),
        loop_s: 0.0,
        server_mean_ns: 0.0,
        epoch_lag_mean: 0.0,
    };
    let start = Instant::now();
    let deadline = Duration::from_secs_f64(seconds);
    while start.elapsed() < deadline {
        let (elapsed, traced, ok, broken) = send(&mut client, swapper);
        run.attempted += 1;
        run.ok += u64::from(ok);
        let sink = if traced {
            &mut run.traced_ns
        } else {
            &mut run.latencies_ns
        };
        sink.push(elapsed.as_nanos() as f64);
        if broken {
            // A failed request counts against ok_frac; the run goes on
            // over a fresh connection.
            client = PredictClient::connect(server.local_addr())?;
        }
    }
    run.loop_s = start.elapsed().as_secs_f64();
    run.latencies_ns.sort_unstable_by(f64::total_cmp);
    run.traced_ns.sort_unstable_by(f64::total_cmp);
    Ok((run, warm_metrics))
}

/// The server's metrics once it has recorded `requests` requests: the
/// shard records a request just after writing its response, so the
/// client can get ahead of the count by one.
fn settled_metrics(server: &PredictServer, requests: u64) -> MetricsSnapshot {
    let give_up = Instant::now() + Duration::from_secs(1);
    loop {
        let metrics = server.metrics();
        if metrics.counter(metric::REQUESTS).unwrap_or(0) >= requests || Instant::now() > give_up {
            return metrics;
        }
        std::thread::yield_now();
    }
}
