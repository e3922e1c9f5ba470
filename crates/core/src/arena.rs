//! The shared-nothing model arena: one cache-aligned replica per worker.
//!
//! [`ShardArena`] pre-allocates every worker's model replica in a single
//! contiguous, precision-typed buffer. Each shard starts on a 64-byte
//! boundary and occupies a whole number of cache lines, so two workers
//! never share a line — the false-sharing and coherence-invalidation
//! traffic the shared-model engine pays per write simply cannot occur.
//!
//! The alignment is achieved without `unsafe`: the buffer is
//! over-allocated by one cache line, the number of elements to skip is
//! computed from the allocation's address (`as_ptr() as usize` is a safe
//! cast), and shards are carved out of the aligned region with ordinary
//! mutable-slice splitting. Element counts per shard are rounded up to a
//! cache-line multiple, which keeps every shard start aligned.
//!
//! [`LocalModel`] is one worker's replica, stored at the model precision
//! M with the shared model's fixed-point interpretation. The step reaches
//! it through the same [`ModelAccess`] ops as
//! [`SharedModel`](crate::SharedModel), with plain reads and writes where
//! the shared model has relaxed atomics (each shard has exactly one
//! writer), so a one-worker sharded run reproduces the shared engine bit
//! for bit. What is its own: the delta hooks the exchange protocol needs,
//! and a dense integer dot that hands the plain slice to the optimized
//! kernels.

use buckwild_fixed::FixedSpec;
use buckwild_kernels::optimized::{self, FixedInt};

use crate::access::{by_precision, Dense, Load, ModelAccess, Store, Words};
use crate::ModelPrecision;

/// The cache-line granule shards are aligned and padded to.
pub(crate) const CACHE_LINE_BYTES: usize = 64;

/// A pre-allocated arena of per-worker model replicas, one cache-aligned
/// shard per worker.
pub(crate) struct ShardArena {
    store: Words<Vec<i8>, Vec<i16>, Vec<f32>>,
    shards: usize,
    n: usize,
    stride: usize,
    skip: usize,
    spec: FixedSpec,
}

/// Elements to skip so indexing starts on a 64-byte boundary.
fn skip_elems<T>(ptr_addr: usize) -> usize {
    let misalign = ptr_addr % CACHE_LINE_BYTES;
    ((CACHE_LINE_BYTES - misalign) % CACHE_LINE_BYTES) / std::mem::size_of::<T>()
}

/// Shard stride: `n` rounded up to a whole number of cache lines.
fn stride_elems<T>(n: usize) -> usize {
    let lane = CACHE_LINE_BYTES / std::mem::size_of::<T>();
    n.div_ceil(lane) * lane
}

/// Allocates the zeroed buffer, tagged with its precision by `wrap`, and
/// returns it with the shard stride and the elements to skip.
fn alloc<T: Default + Clone, W>(
    n: usize,
    shards: usize,
    wrap: impl FnOnce(Vec<T>) -> W,
) -> (W, usize, usize) {
    let lane = CACHE_LINE_BYTES / std::mem::size_of::<T>();
    let stride = stride_elems::<T>(n);
    let buf = vec![T::default(); stride * shards + lane];
    let skip = skip_elems::<T>(buf.as_ptr() as usize);
    (wrap(buf), stride, skip)
}

/// Splits the aligned region into `shards` mutable views of `n` elements
/// each (the per-shard cache-line padding is carved off and unused),
/// tagged with their precision by `wrap`.
fn split_shards<'a, T, W>(
    buf: &'a mut [T],
    skip: usize,
    stride: usize,
    n: usize,
    shards: usize,
    wrap: impl Fn(&'a mut [T]) -> W,
) -> Vec<W> {
    let mut rest = &mut buf[skip..skip + stride * shards];
    let mut out = Vec::with_capacity(shards);
    for _ in 0..shards {
        let (chunk, tail) = std::mem::take(&mut rest).split_at_mut(stride);
        rest = tail;
        let (shard, _padding) = chunk.split_at_mut(n);
        debug_assert_eq!(
            shard.as_ptr() as usize % CACHE_LINE_BYTES,
            0,
            "shard start must be cache-line aligned"
        );
        out.push(wrap(shard));
    }
    out
}

impl ShardArena {
    /// Allocates `shards` zeroed replicas of `n` parameters each at the
    /// given precision.
    ///
    /// # Panics
    ///
    /// Panics if `shards == 0` or `n == 0`.
    pub(crate) fn new(precision: ModelPrecision, shards: usize, n: usize) -> Self {
        assert!(shards > 0, "shard count must be positive");
        assert!(n > 0, "model size must be positive");
        let (store, stride, skip) = match precision {
            ModelPrecision::F32 => alloc(n, shards, Words::F32),
            ModelPrecision::I16 => alloc(n, shards, Words::I16),
            ModelPrecision::I8 => alloc(n, shards, Words::I8),
        };
        ShardArena {
            store,
            shards,
            n,
            stride,
            skip,
            spec: precision.spec(),
        }
    }

    /// Bytes of one shard's stride (always a cache-line multiple).
    #[cfg(test)]
    fn stride_bytes(&self) -> usize {
        self.stride * by_precision!(&self.store, |buf| std::mem::size_of_val(&buf[0]))
    }

    /// Hands out one mutable [`LocalModel`] view per shard; the borrows
    /// are disjoint, so each can move into its worker's thread.
    pub(crate) fn views(&mut self) -> Vec<LocalModel<'_>> {
        let (skip, stride, n, shards, spec) =
            (self.skip, self.stride, self.n, self.shards, self.spec);
        let stores = match &mut self.store {
            Words::I8(buf) => split_shards(buf, skip, stride, n, shards, Words::I8),
            Words::I16(buf) => split_shards(buf, skip, stride, n, shards, Words::I16),
            Words::F32(buf) => split_shards(buf, skip, stride, n, shards, Words::F32),
        };
        stores
            .into_iter()
            .map(|store| LocalModel { store, spec })
            .collect()
    }

    fn read(&self, shard: usize, i: usize) -> f32 {
        let at = self.skip + shard * self.stride + i;
        by_precision!(
            &self.store,
            |buf| self.spec.dequantize(i64::from(buf[at])),
            |buf| buf[at]
        )
    }

    /// The element-wise mean of all replicas, dequantized — the model the
    /// sharded engine reports. With one shard this is an exact copy.
    pub(crate) fn mean_snapshot(&self) -> Vec<f32> {
        let inv = self.shards as f32;
        (0..self.n)
            .map(|i| {
                let mut sum = 0f32;
                for s in 0..self.shards {
                    sum += self.read(s, i);
                }
                sum / inv
            })
            .collect()
    }

    /// All replicas dequantized and concatenated — the rollback
    /// checkpoint format.
    pub(crate) fn checkpoint(&self) -> Vec<f32> {
        let mut out = Vec::with_capacity(self.shards * self.n);
        for s in 0..self.shards {
            for i in 0..self.n {
                out.push(self.read(s, i));
            }
        }
        out
    }

    /// Restores every replica from a [`ShardArena::checkpoint`] (nearest
    /// rounding; values already on the storage grid round-trip exactly).
    ///
    /// # Panics
    ///
    /// Panics if `values.len() != shards * features`.
    pub(crate) fn restore(&mut self, values: &[f32]) {
        assert_eq!(
            values.len(),
            self.shards * self.n,
            "checkpoint length mismatch"
        );
        let n = self.n;
        for (view, chunk) in self.views().iter_mut().zip(values.chunks(n)) {
            view.restore_from(chunk);
        }
    }
}

/// One worker's private model replica, stored at the model precision M.
///
/// It runs the same [`ModelAccess`] ops as the shared model, over plain
/// slices instead of relaxed atomics; only its dense integer dot is its
/// own, and that goes through the optimized kernels. The
/// backend-equivalence tests pin the two bit for bit.
pub struct LocalModel<'a> {
    store: Words<&'a mut [i8], &'a mut [i16], &'a mut [f32]>,
    spec: FixedSpec,
}

impl LocalModel<'_> {
    /// Number of parameters.
    pub(crate) fn len(&self) -> usize {
        self.store.len()
    }

    /// Writes the dequantized replica into `out`.
    pub(crate) fn write_dequant(&self, out: &mut [f32]) {
        assert_eq!(out.len(), self.len(), "buffer length mismatch");
        by_precision!(
            &self.store,
            |w| {
                for (o, wi) in out.iter_mut().zip(w.iter()) {
                    *o = self.spec.dequantize(wi.widen().into());
                }
            },
            |w| out.copy_from_slice(w)
        );
    }

    /// Folds the replica's progress since `snapshot` into `pending`:
    /// `pending[i] += dequant(w[i]) - snapshot[i]`.
    pub(crate) fn accumulate_diff(&self, snapshot: &[f32], pending: &mut [f32]) {
        assert_eq!(snapshot.len(), self.len(), "snapshot length mismatch");
        assert_eq!(pending.len(), self.len(), "pending length mismatch");
        by_precision!(
            &self.store,
            |w| {
                for ((p, &s), wi) in pending.iter_mut().zip(snapshot).zip(w.iter()) {
                    *p += self.spec.dequantize(wi.widen().into()) - s;
                }
            },
            |w| {
                for ((p, &s), &wi) in pending.iter_mut().zip(snapshot).zip(w.iter()) {
                    *p += wi - s;
                }
            }
        );
    }

    /// Applies a peer's dequantized delta packet: `w[i] += scale * q[i]`,
    /// rounded to nearest on fixed-point storage.
    pub(crate) fn apply_delta(&mut self, q: &[i8], scale: f32) {
        assert_eq!(q.len(), self.len(), "packet length mismatch");
        let grid_scale = scale / self.spec.quantum();
        by_precision!(
            &mut self.store,
            |w| {
                for (wi, &v) in w.iter_mut().zip(q) {
                    let target = f64::from(wi.widen()) + f64::from(grid_scale * f32::from(v));
                    *wi = FixedInt::saturate((target + 0.5).floor() as i64);
                }
            },
            |w| {
                for (wi, &v) in w.iter_mut().zip(q) {
                    *wi += scale * f32::from(v);
                }
            }
        );
    }
}

impl ModelAccess for LocalModel<'_> {
    #[inline]
    fn spec(&self) -> FixedSpec {
        self.spec
    }

    #[inline]
    fn words(&self) -> Words<impl Load<Word = i8>, impl Load<Word = i16>, impl Load<Word = f32>> {
        match &self.store {
            Words::I8(w) => Words::I8(&**w),
            Words::I16(w) => Words::I16(&**w),
            Words::F32(w) => Words::F32(&**w),
        }
    }

    #[inline]
    fn words_mut(
        &mut self,
    ) -> Words<impl Store<Word = i8>, impl Store<Word = i16>, impl Store<Word = f32>> {
        match &mut self.store {
            Words::I8(w) => Words::I8(&mut **w),
            Words::I16(w) => Words::I16(&mut **w),
            Words::F32(w) => Words::F32(&mut **w),
        }
    }

    /// Integer words go through the optimized kernels: integer addition
    /// commutes, so the chunked (and, when active, SIMD) sum is
    /// bit-identical to the shared model's left-to-right MAC.
    fn dot_dense_fixed<D: FixedInt>(&self, x: &[D], x_spec: &FixedSpec) -> f32 {
        by_precision!(
            &self.store,
            |w| optimized::dot_fixed_fixed(x, w, x_spec, &self.spec),
            |_| self.dot_fixed(x, Dense, x_spec)
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SharedModel;
    use buckwild_fixed::FixedSpec;

    #[test]
    fn shards_are_cache_line_aligned_at_every_precision() {
        for precision in [ModelPrecision::F32, ModelPrecision::I16, ModelPrecision::I8] {
            // Deliberately awkward sizes to exercise the padding math.
            for n in [1usize, 7, 63, 64, 65, 1000] {
                let mut arena = ShardArena::new(precision, 4, n);
                assert_eq!(arena.stride_bytes() % CACHE_LINE_BYTES, 0);
                let views = arena.views();
                assert_eq!(views.len(), 4);
                for v in &views {
                    assert_eq!(v.len(), n);
                }
            }
        }
    }

    #[test]
    fn views_are_independent_and_mean_averages() {
        let mut arena = ShardArena::new(ModelPrecision::F32, 2, 3);
        {
            let mut views = arena.views();
            views[0].restore_from(&[1.0, 2.0, 3.0]);
            views[1].restore_from(&[3.0, 0.0, -1.0]);
        }
        assert_eq!(arena.mean_snapshot(), vec![2.0, 1.0, 1.0]);
    }

    #[test]
    fn checkpoint_restore_round_trips_fixed_grid() {
        let mut arena = ShardArena::new(ModelPrecision::I8, 2, 4);
        {
            let mut views = arena.views();
            views[0].restore_from(&[0.5, -1.25, 0.0, 1.0]);
            views[1].restore_from(&[-0.5, 0.25, 2.0, -2.0]);
        }
        let ckpt = arena.checkpoint();
        {
            let mut views = arena.views();
            views[0].restore_from(&[0.0; 4]);
            views[1].restore_from(&[0.0; 4]);
        }
        arena.restore(&ckpt);
        assert_eq!(arena.checkpoint(), ckpt, "grid values round-trip exactly");
    }

    #[test]
    fn local_model_matches_shared_model_bit_for_bit() {
        // The equivalence the whole sharded backend rests on: every op on
        // LocalModel produces exactly the bits SharedModel would.
        let x8: Vec<i8> = (0..64).map(|i| ((i * 37) % 251) as i8).collect();
        let x16: Vec<i16> = (0..64).map(|i| ((i * 7919) % 65_536) as i16).collect();
        let xf: Vec<f32> = (0..64).map(|i| (i as f32 - 32.0) / 64.0).collect();
        let x_spec = FixedSpec::unit_range(8);
        let x16_spec = FixedSpec::unit_range(16);
        let init: Vec<f32> = (0..64).map(|i| ((i as f32) * 0.031) - 1.0).collect();
        for precision in [ModelPrecision::F32, ModelPrecision::I16, ModelPrecision::I8] {
            let shared = SharedModel::from_f32(precision, &init);
            let mut arena = ShardArena::new(precision, 1, 64);
            let mut views = arena.views();
            let local = &mut views[0];
            local.restore_from(&init);

            assert_eq!(
                local.dot_dense_fixed(&x8, &x_spec),
                shared.dot_fixed(&x8, &x_spec)
            );
            assert_eq!(
                local.dot_dense_fixed(&x16, &x16_spec),
                shared.dot_fixed(&x16, &x16_spec)
            );
            assert_eq!(local.dot_f32(&xf, Dense), shared.dot_f32(&xf));

            let mut off_a = |i: usize| ((i * 7919) % (1 << 15)) as i64;
            let mut off_b = |i: usize| ((i * 7919) % (1 << 15)) as i64;
            shared.axpy_fixed(0.37, &x8, &x_spec, &mut off_a);
            local.axpy_fixed(0.37, &x8, Dense, &x_spec, &mut off_b);

            let offs = [3i64, 99, 1024, 0, 8000, 123, 77, 15000];
            shared.axpy_fixed(-0.21, &x8, &x_spec, |i| offs[i & 7]);
            local.axpy_fixed(-0.21, &x8, Dense, &x_spec, |i| offs[i & 7]);

            let mut uni_a = |i: usize| ((i * 31) % 97) as f32 / 97.0;
            let mut uni_b = |i: usize| ((i * 31) % 97) as f32 / 97.0;
            shared.axpy_f32(0.12, &xf, &mut uni_a);
            local.axpy_f32(0.12, &xf, Dense, &mut uni_b);

            let idx: Vec<u32> = vec![0, 5, 17, 63];
            let sv8: Vec<i8> = vec![100, -100, 50, 25];
            let svf: Vec<f32> = vec![0.5, -0.5, 0.25, 1.0];
            assert_eq!(
                local.dot_fixed(&sv8, &idx[..], &x_spec),
                shared.dot_sparse_fixed(&sv8, &idx, &x_spec)
            );
            assert_eq!(
                local.dot_f32(&svf, &idx[..]),
                shared.dot_sparse_f32(&svf, &idx)
            );
            let mut off_a = |j: usize| ((j * 101) % (1 << 15)) as i64;
            let mut off_b = |j: usize| ((j * 101) % (1 << 15)) as i64;
            shared.axpy_sparse_fixed(0.8, &sv8, &idx, &x_spec, &mut off_a);
            local.axpy_fixed(0.8, &sv8, &idx[..], &x_spec, &mut off_b);
            let mut uni_a = |j: usize| (j as f32) / 7.0 % 1.0;
            let mut uni_b = |j: usize| (j as f32) / 7.0 % 1.0;
            shared.axpy_sparse_f32(-0.3, &svf, &idx, &mut uni_a);
            local.axpy_f32(-0.3, &svf, &idx[..], &mut uni_b);

            // A step large enough to pin most integer words at the
            // storage bounds, then a dot over the saturated words.
            shared.axpy_fixed(40.0, &x16, &x16_spec, |i| offs[i & 7]);
            local.axpy_fixed(40.0, &x16, Dense, &x16_spec, |i| offs[i & 7]);
            assert_eq!(
                local.dot_dense_fixed(&x16, &x16_spec),
                shared.dot_fixed(&x16, &x16_spec)
            );

            let mut dequant = vec![0f32; 64];
            local.write_dequant(&mut dequant);
            assert_eq!(dequant, shared.snapshot(), "{precision:?} diverged");
        }
    }

    #[test]
    fn apply_delta_and_accumulate_diff_cooperate() {
        let mut arena = ShardArena::new(ModelPrecision::F32, 1, 4);
        let mut views = arena.views();
        let local = &mut views[0];
        let snapshot = vec![0f32; 4];
        local.apply_delta(&[127, -127, 0, 64], 1.0 / 127.0);
        let mut pending = vec![0f32; 4];
        local.accumulate_diff(&snapshot, &mut pending);
        assert!((pending[0] - 1.0).abs() < 1e-6);
        assert!((pending[1] + 1.0).abs() < 1e-6);
        assert_eq!(pending[2], 0.0);
        assert!((pending[3] - 64.0 / 127.0).abs() < 1e-6);
    }
}
