//! The shard-per-core, shared-nothing training backend.
//!
//! Where the shared-model engine lets cache coherence carry every update
//! between cores, this backend gives each worker a private cache-aligned
//! replica in a [`ShardArena`], pins the worker to a core (best effort),
//! and exchanges progress explicitly: every [`SgdConfig::delta_every`]
//! iterations a worker diffs its replica against the last synchronized
//! snapshot, quantizes the diff to 8 bits (one `f32` scale + one `i8`
//! per coordinate), and broadcasts it to every peer over bounded
//! lock-free SPSC [`DeltaRing`]s.
//!
//! The exchange is *echo-free with error feedback*:
//!
//! 1. fold own progress since the last snapshot into a `pending`
//!    accumulator;
//! 2. drain and apply every peer packet;
//! 3. re-snapshot the replica — so peer contributions are never
//!    rebroadcast (no echo);
//! 4. if every outgoing ring has room, quantize `pending`, push it to
//!    all peers, and subtract the *quantized* value from `pending` — the
//!    quantization residual carries to the next exchange (1-bit-SGD
//!    style error feedback). A full ring skips the broadcast entirely
//!    and the whole delta carries instead; nothing is ever lost.
//!
//! Everything else — the SGD step, the epoch driver, checkpoints,
//! snapshots, telemetry — is shared with the shared-model backend: this
//! module supplies only the [`Engine`] (the arena, the ring mesh, and
//! per-worker [`DeltaSync`]s) and the [`Exchange`] hook the worker loop
//! calls once per iteration. With one worker the exchange is inert, so
//! the two backends are bit-identical — the backend-equivalence tests pin
//! this down.

use buckwild_kernels::delta::{packet_bytes, quantize_delta_i8};
use buckwild_telemetry::{Counter, Recorder};
use buckwild_trace::{Phase, WorkerTracer};

use crate::arena::{LocalModel, ShardArena};
use crate::predict::QuantizedModel;
use crate::ring::DeltaRing;
use crate::step::Exchange;
use crate::train::{metric, Engine, WorkerPart};
use crate::ModelPrecision;

/// Packet slots per directed worker pair. Small enough that the rings
/// stay L2-resident, deep enough that a worker a few exchanges ahead of
/// a peer does not stall the error-feedback pipeline.
const RING_CAPACITY: usize = 8;

/// Telemetry handles for the delta-exchange hot path; created only for
/// multi-worker runs so single-worker snapshots carry no `shard.*`
/// zeros.
struct ShardCounters<C> {
    packets: C,
    bytes: C,
    full_skips: C,
}

/// Cross-epoch exchange state: the snapshot baseline and the
/// error-feedback accumulator survive from one epoch to the next (the
/// worker threads do not), so progress that could not be broadcast
/// before an epoch boundary — full rings, partial exchange windows — is
/// carried instead of lost.
struct SyncState {
    /// Replica state at the last exchange (peer contributions included).
    snapshot: Vec<f32>,
    /// Own progress not yet broadcast, plus quantization residuals.
    pending: Vec<f32>,
}

impl SyncState {
    fn zeros(n: usize) -> Self {
        SyncState {
            snapshot: vec![0f32; n],
            pending: vec![0f32; n],
        }
    }

    /// Rebases onto a rolled-back replica: the snapshot matches the
    /// restored weights and undelivered progress from the abandoned
    /// timeline is dropped.
    fn rollback(&mut self, restored: &[f32]) {
        self.snapshot.copy_from_slice(restored);
        self.pending.fill(0.0);
    }
}

/// One worker's half of the delta-exchange protocol.
struct DeltaSync<'a, C> {
    /// All pairwise rings, flattened as `producer * threads + consumer`.
    rings: &'a [DeltaRing],
    worker: usize,
    threads: usize,
    every: usize,
    countdown: usize,
    counters: Option<ShardCounters<C>>,
    state: &'a mut SyncState,
    /// Outgoing quantized payload scratch.
    qbuf: Vec<i8>,
    /// Incoming packet scratch.
    inbox: Vec<i8>,
}

impl<'a, C: Counter> DeltaSync<'a, C> {
    fn new(
        rings: &'a [DeltaRing],
        worker: usize,
        threads: usize,
        every: usize,
        counters: Option<ShardCounters<C>>,
        state: &'a mut SyncState,
    ) -> Self {
        let n = state.snapshot.len();
        DeltaSync {
            rings,
            worker,
            threads,
            every,
            countdown: every,
            counters,
            state,
            qbuf: vec![0i8; n],
            inbox: vec![0i8; n],
        }
    }

    fn exchange<T: WorkerTracer>(&mut self, local: &mut LocalModel<'_>, tracer: &mut T) {
        let span = tracer.begin();
        let mut packets = 0u64;
        // 1. Fold own progress since the last snapshot into `pending`.
        local.accumulate_diff(&self.state.snapshot, &mut self.state.pending);
        // 2. Drain every peer's ring addressed to this worker.
        for p in 0..self.threads {
            if p == self.worker {
                continue;
            }
            let ring = &self.rings[p * self.threads + self.worker];
            while let Some(scale) = ring.pop_into(&mut self.inbox) {
                local.apply_delta(&self.inbox, scale);
                packets += 1;
            }
        }
        // 3. Re-snapshot after the drain: peer contributions are now part
        //    of the baseline and will never be echoed back.
        local.write_dequant(&mut self.state.snapshot);
        // 4. Broadcast `pending` if every outgoing ring has room; the
        //    quantization residual (or, on a full ring, the whole delta)
        //    carries to the next exchange.
        let all_free = (0..self.threads)
            .filter(|&p| p != self.worker)
            .all(|p| self.rings[self.worker * self.threads + p].can_push());
        if all_free {
            if let Some(scale) = quantize_delta_i8(&self.state.pending, &mut self.qbuf) {
                for p in 0..self.threads {
                    if p == self.worker {
                        continue;
                    }
                    let pushed = self.rings[self.worker * self.threads + p].push(scale, &self.qbuf);
                    debug_assert!(pushed, "can_push is stable on the producer side");
                }
                for (d, &q) in self.state.pending.iter_mut().zip(&self.qbuf) {
                    *d -= scale * f32::from(q);
                }
                let sent = (self.threads - 1) as u64;
                packets += sent;
                if let Some(c) = &self.counters {
                    c.packets.add(sent);
                    c.bytes.add(sent * packet_bytes(self.qbuf.len()));
                }
            }
        } else if let Some(c) = &self.counters {
            c.full_skips.incr();
        }
        tracer.end(Phase::DeltaSync, span, packets);
    }
}

impl<'l, C: Counter> Exchange<LocalModel<'l>> for DeltaSync<'_, C> {
    /// Called once per SGD iteration; runs an exchange every `every`
    /// ticks. Inert with a single worker.
    #[inline]
    fn tick<T: WorkerTracer>(&mut self, local: &mut LocalModel<'l>, tracer: &mut T) {
        if self.threads == 1 {
            return;
        }
        self.countdown -= 1;
        if self.countdown > 0 {
            return;
        }
        self.countdown = self.every;
        self.exchange(local, tracer);
    }

    /// One last exchange at the end of the worker's epoch, so progress
    /// from a partial exchange window reaches the peers (or the
    /// error-feedback accumulator) instead of waiting a whole epoch.
    /// Inert with a single worker.
    fn flush<T: WorkerTracer>(&mut self, local: &mut LocalModel<'l>, tracer: &mut T) {
        if self.threads == 1 {
            return;
        }
        self.exchange(local, tracer);
    }
}

/// The sharded backend's per-run state: one replica per worker in a
/// [`ShardArena`], a mesh of SPSC rings, and each worker's cross-epoch
/// exchange state.
pub(crate) struct ShardEngine {
    arena: ShardArena,
    /// All pairwise rings, flattened as `producer * threads + consumer`.
    rings: Vec<DeltaRing>,
    states: Vec<SyncState>,
    precision: ModelPrecision,
    delta_every: usize,
    cores: usize,
}

impl ShardEngine {
    pub(crate) fn new(
        precision: ModelPrecision,
        threads: usize,
        n: usize,
        delta_every: usize,
    ) -> Self {
        let rings = if threads > 1 {
            (0..threads * threads)
                .map(|_| DeltaRing::new(RING_CAPACITY, n))
                .collect()
        } else {
            Vec::new()
        };
        ShardEngine {
            arena: ShardArena::new(precision, threads, n),
            rings,
            states: (0..threads).map(|_| SyncState::zeros(n)).collect(),
            precision,
            delta_every,
            cores: buckwild_affinity::core_count().max(1),
        }
    }
}

impl Engine for ShardEngine {
    fn parts<R: Recorder>(&mut self, threads: usize, recorder: &R) -> Vec<impl WorkerPart> {
        let rings = &self.rings[..];
        let (every, cores) = (self.delta_every, self.cores);
        self.arena
            .views()
            .into_iter()
            .zip(self.states.iter_mut())
            .enumerate()
            .map(|(t, (local, state))| {
                let counters = (threads > 1).then(|| ShardCounters {
                    packets: recorder.worker_counter(metric::DELTA_PACKETS, t),
                    bytes: recorder.worker_counter(metric::DELTA_BYTES, t),
                    full_skips: recorder.worker_counter(metric::RING_FULL_SKIPS, t),
                });
                ShardPart {
                    local,
                    sync: DeltaSync::new(rings, t, threads, every, counters, state),
                    core: t % cores,
                }
            })
            .collect()
    }

    /// All replicas, concatenated.
    fn checkpoint(&self) -> Vec<f32> {
        self.arena.checkpoint()
    }

    fn restore(&mut self, checkpoint: &[f32]) {
        self.arena.restore(checkpoint);
        // Ring and exchange-state contents describe the abandoned
        // timeline.
        for ring in &self.rings {
            ring.clear();
        }
        let n = checkpoint.len() / self.states.len();
        for (state, replica) in self.states.iter_mut().zip(checkpoint.chunks(n)) {
            state.rollback(replica);
        }
    }

    /// The replica mean.
    fn model(&self) -> Vec<f32> {
        self.arena.mean_snapshot()
    }

    /// The replica mean, quantized back onto the model grid so consumers
    /// see the same storage representation as the shared backend.
    fn publish(&self) -> QuantizedModel {
        QuantizedModel::quantize(&self.arena.mean_snapshot(), self.precision)
    }
}

/// One sharded worker's epoch: its replica, its side of the exchange, and
/// the core it pins itself to.
struct ShardPart<'a, C> {
    local: LocalModel<'a>,
    sync: DeltaSync<'a, C>,
    core: usize,
}

impl<'a, C: Counter + Send> WorkerPart for ShardPart<'a, C> {
    type Model = LocalModel<'a>;
    type Exchange = DeltaSync<'a, C>;

    fn start(self) -> (LocalModel<'a>, DeltaSync<'a, C>) {
        // Best effort: an unpinned worker still trains correctly.
        let _ = buckwild_affinity::pin_current_thread(self.core);
        (self.local, self.sync)
    }
}
