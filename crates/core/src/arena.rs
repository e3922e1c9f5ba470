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
//! [`LocalModel`] is the single-owner counterpart of
//! [`SharedModel`](crate::SharedModel): the same storage precisions, the
//! same fixed-point interpretation, and — crucially — *bit-identical
//! arithmetic* in every dot/AXPY path, so a one-worker sharded run
//! reproduces the shared engine exactly. The only differences are plain
//! loads/stores instead of relaxed atomics (each shard has exactly one
//! writer) and the delta hooks the exchange protocol needs.

use buckwild_fixed::FixedSpec;
use buckwild_kernels::optimized::{self, FixedInt};

use crate::model::{fixed_step, K_SHIFT};
use crate::step::ModelAccess;
use crate::ModelPrecision;

/// The cache-line granule shards are aligned and padded to.
pub(crate) const CACHE_LINE_BYTES: usize = 64;

enum Store {
    F32(Vec<f32>),
    I16(Vec<i16>),
    I8(Vec<i8>),
}

/// A pre-allocated arena of per-worker model replicas, one cache-aligned
/// shard per worker.
pub(crate) struct ShardArena {
    store: Store,
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

fn alloc<T: Default + Clone>(n: usize, shards: usize) -> (Vec<T>, usize, usize) {
    let lane = CACHE_LINE_BYTES / std::mem::size_of::<T>();
    let stride = stride_elems::<T>(n);
    let buf = vec![T::default(); stride * shards + lane];
    let skip = skip_elems::<T>(buf.as_ptr() as usize);
    (buf, stride, skip)
}

/// Splits the aligned region into `shards` mutable views of `n` elements
/// each (the per-shard cache-line padding is carved off and unused).
fn split_shards<T>(
    buf: &mut [T],
    skip: usize,
    stride: usize,
    n: usize,
    shards: usize,
) -> Vec<&mut [T]> {
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
        out.push(shard);
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
            ModelPrecision::F32 => {
                let (buf, stride, skip) = alloc::<f32>(n, shards);
                (Store::F32(buf), stride, skip)
            }
            ModelPrecision::I16 => {
                let (buf, stride, skip) = alloc::<i16>(n, shards);
                (Store::I16(buf), stride, skip)
            }
            ModelPrecision::I8 => {
                let (buf, stride, skip) = alloc::<i8>(n, shards);
                (Store::I8(buf), stride, skip)
            }
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
        match &self.store {
            Store::F32(_) => self.stride * 4,
            Store::I16(_) => self.stride * 2,
            Store::I8(_) => self.stride,
        }
    }

    /// Hands out one mutable [`LocalModel`] view per shard; the borrows
    /// are disjoint, so each can move into its worker's thread.
    pub(crate) fn views(&mut self) -> Vec<LocalModel<'_>> {
        let (skip, stride, n, shards, spec) =
            (self.skip, self.stride, self.n, self.shards, self.spec);
        match &mut self.store {
            Store::F32(buf) => split_shards(buf, skip, stride, n, shards)
                .into_iter()
                .map(|s| LocalModel {
                    store: LocalStore::F32(s),
                    spec,
                })
                .collect(),
            Store::I16(buf) => split_shards(buf, skip, stride, n, shards)
                .into_iter()
                .map(|s| LocalModel {
                    store: LocalStore::I16(s),
                    spec,
                })
                .collect(),
            Store::I8(buf) => split_shards(buf, skip, stride, n, shards)
                .into_iter()
                .map(|s| LocalModel {
                    store: LocalStore::I8(s),
                    spec,
                })
                .collect(),
        }
    }

    fn read(&self, shard: usize, i: usize) -> f32 {
        let at = self.skip + shard * self.stride + i;
        match &self.store {
            Store::F32(buf) => buf[at],
            Store::I16(buf) => self.spec.dequantize(i64::from(buf[at])),
            Store::I8(buf) => self.spec.dequantize(i64::from(buf[at])),
        }
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

enum LocalStore<'a> {
    F32(&'a mut [f32]),
    I16(&'a mut [i16]),
    I8(&'a mut [i8]),
}

/// One worker's private model replica: [`SharedModel`](crate::SharedModel)
/// arithmetic on plain (single-owner) storage.
///
/// Its [`ModelAccess`] ops transcribe the shared versions with the
/// relaxed atomic load/store pairs replaced by plain reads and writes —
/// same widening, same `K_SHIFT = 15` fixed-point step scaling, same
/// saturation bounds, same `f64` float-grid rounding. The
/// backend-equivalence tests pin this down bit-for-bit.
pub struct LocalModel<'a> {
    store: LocalStore<'a>,
    spec: FixedSpec,
}

impl LocalModel<'_> {
    /// Number of parameters.
    pub(crate) fn len(&self) -> usize {
        match &self.store {
            LocalStore::F32(w) => w.len(),
            LocalStore::I16(w) => w.len(),
            LocalStore::I8(w) => w.len(),
        }
    }

    /// Overwrites the replica from an `f32` snapshot (nearest rounding).
    pub(crate) fn restore_from(&mut self, values: &[f32]) {
        assert_eq!(values.len(), self.len(), "snapshot length mismatch");
        match &mut self.store {
            LocalStore::F32(w) => w.copy_from_slice(values),
            LocalStore::I16(w) => int::restore(w, values, &self.spec),
            LocalStore::I8(w) => int::restore(w, values, &self.spec),
        }
    }

    /// Writes the dequantized replica into `out`.
    pub(crate) fn write_dequant(&self, out: &mut [f32]) {
        assert_eq!(out.len(), self.len(), "buffer length mismatch");
        match &self.store {
            LocalStore::F32(w) => out.copy_from_slice(w),
            LocalStore::I16(w) => int::dequant_into(w, out, &self.spec),
            LocalStore::I8(w) => int::dequant_into(w, out, &self.spec),
        }
    }

    /// Folds the replica's progress since `snapshot` into `pending`:
    /// `pending[i] += dequant(w[i]) - snapshot[i]`.
    pub(crate) fn accumulate_diff(&self, snapshot: &[f32], pending: &mut [f32]) {
        assert_eq!(snapshot.len(), self.len(), "snapshot length mismatch");
        assert_eq!(pending.len(), self.len(), "pending length mismatch");
        match &self.store {
            LocalStore::F32(w) => {
                for ((p, &s), &wi) in pending.iter_mut().zip(snapshot).zip(w.iter()) {
                    *p += wi - s;
                }
            }
            LocalStore::I16(w) => int::accumulate_diff(w, snapshot, pending, &self.spec),
            LocalStore::I8(w) => int::accumulate_diff(w, snapshot, pending, &self.spec),
        }
    }

    /// Applies a peer's dequantized delta packet: `w[i] += scale * q[i]`,
    /// rounded to nearest on fixed-point storage.
    pub(crate) fn apply_delta(&mut self, q: &[i8], scale: f32) {
        assert_eq!(q.len(), self.len(), "packet length mismatch");
        match &mut self.store {
            LocalStore::F32(w) => {
                for (wi, &v) in w.iter_mut().zip(q) {
                    *wi += scale * f32::from(v);
                }
            }
            LocalStore::I16(w) => int::apply_delta(w, q, scale / self.spec.quantum()),
            LocalStore::I8(w) => int::apply_delta(w, q, scale / self.spec.quantum()),
        }
    }
}

impl ModelAccess for LocalModel<'_> {
    /// Dense dot against a fixed-point example (integer MAC).
    ///
    /// The integer arms route through the optimized kernels: integer
    /// addition commutes, so the chunked (and, when active, SIMD)
    /// accumulation is bit-identical to a plain left-to-right sum.
    fn dot_fixed<D: FixedInt>(&self, x: &[D], x_spec: &FixedSpec) -> f32 {
        assert_eq!(x.len(), self.len(), "length mismatch");
        match &self.store {
            LocalStore::I8(w) => optimized::dot_fixed_fixed(x, w, x_spec, &self.spec),
            LocalStore::I16(w) => optimized::dot_fixed_fixed(x, w, x_spec, &self.spec),
            LocalStore::F32(w) => {
                let mut acc = 0f32;
                for (xi, &wi) in x.iter().zip(w.iter()) {
                    acc += xi.widen() as f32 * wi;
                }
                acc * x_spec.quantum()
            }
        }
    }

    fn dot_f32(&self, x: &[f32]) -> f32 {
        assert_eq!(x.len(), self.len(), "length mismatch");
        match &self.store {
            LocalStore::F32(w) => {
                let mut acc = 0f32;
                for (xi, &wi) in x.iter().zip(w.iter()) {
                    acc += xi * wi;
                }
                acc
            }
            LocalStore::I16(w) => int::dot_f32(w, x) * self.spec.quantum(),
            LocalStore::I8(w) => int::dot_f32(w, x) * self.spec.quantum(),
        }
    }

    fn dot_sparse_fixed<D: FixedInt>(
        &self,
        values: &[D],
        indices: &[u32],
        x_spec: &FixedSpec,
    ) -> f32 {
        assert_eq!(values.len(), indices.len(), "values/indices mismatch");
        let q = x_spec.quantum();
        match &self.store {
            LocalStore::I8(w) => {
                int::dot_sparse(w, values, indices) as f32 * q * self.spec.quantum()
            }
            LocalStore::I16(w) => {
                int::dot_sparse(w, values, indices) as f32 * q * self.spec.quantum()
            }
            LocalStore::F32(w) => {
                let mut acc = 0f32;
                for (v, &i) in values.iter().zip(indices) {
                    acc += v.widen() as f32 * w[i as usize];
                }
                acc * q
            }
        }
    }

    fn dot_sparse_f32(&self, values: &[f32], indices: &[u32]) -> f32 {
        assert_eq!(values.len(), indices.len(), "values/indices mismatch");
        match &self.store {
            LocalStore::F32(w) => {
                let mut acc = 0f32;
                for (v, &i) in values.iter().zip(indices) {
                    acc += v * w[i as usize];
                }
                acc
            }
            LocalStore::I16(w) => int::dot_sparse_f32(w, values, indices) * self.spec.quantum(),
            LocalStore::I8(w) => int::dot_sparse_f32(w, values, indices) * self.spec.quantum(),
        }
    }

    fn axpy_fixed<D: FixedInt>(
        &mut self,
        a: f32,
        x: &[D],
        x_spec: &FixedSpec,
        offsets: impl FnMut(usize) -> i64,
    ) {
        assert_eq!(x.len(), self.len(), "length mismatch");
        let k = fixed_step(a, x_spec, &self.spec);
        match &mut self.store {
            LocalStore::I8(w) => int::axpy_fixed(w, k, x, offsets),
            LocalStore::I16(w) => int::axpy_fixed(w, k, x, offsets),
            LocalStore::F32(w) => {
                let scale = a * x_spec.quantum();
                for (xi, wi) in x.iter().zip(w.iter_mut()) {
                    *wi += scale * xi.widen() as f32;
                }
            }
        }
    }

    fn axpy_f32(&mut self, a: f32, x: &[f32], uniforms: impl FnMut(usize) -> f32) {
        assert_eq!(x.len(), self.len(), "length mismatch");
        match &mut self.store {
            LocalStore::F32(w) => {
                for (xi, wi) in x.iter().zip(w.iter_mut()) {
                    *wi += a * xi;
                }
            }
            LocalStore::I16(w) => int::axpy_f32(w, a / self.spec.quantum(), x, uniforms),
            LocalStore::I8(w) => int::axpy_f32(w, a / self.spec.quantum(), x, uniforms),
        }
    }

    fn axpy_sparse_fixed<D: FixedInt>(
        &mut self,
        a: f32,
        values: &[D],
        indices: &[u32],
        x_spec: &FixedSpec,
        offsets: impl FnMut(usize) -> i64,
    ) {
        assert_eq!(values.len(), indices.len(), "values/indices mismatch");
        let k = fixed_step(a, x_spec, &self.spec);
        match &mut self.store {
            LocalStore::I8(w) => int::axpy_sparse_fixed(w, k, values, indices, offsets),
            LocalStore::I16(w) => int::axpy_sparse_fixed(w, k, values, indices, offsets),
            LocalStore::F32(w) => {
                let scale = a * x_spec.quantum();
                for (v, &i) in values.iter().zip(indices) {
                    w[i as usize] += scale * v.widen() as f32;
                }
            }
        }
    }

    fn axpy_sparse_f32(
        &mut self,
        a: f32,
        values: &[f32],
        indices: &[u32],
        uniforms: impl FnMut(usize) -> f32,
    ) {
        assert_eq!(values.len(), indices.len(), "values/indices mismatch");
        match &mut self.store {
            LocalStore::F32(w) => {
                for (v, &i) in values.iter().zip(indices) {
                    w[i as usize] += a * v;
                }
            }
            LocalStore::I16(w) => {
                int::axpy_sparse_f32(w, a / self.spec.quantum(), values, indices, uniforms);
            }
            LocalStore::I8(w) => {
                int::axpy_sparse_f32(w, a / self.spec.quantum(), values, indices, uniforms);
            }
        }
    }
}

/// The integer replica arithmetic, written once for the `i8` and `i16`
/// stores: the shared model's integer arms with plain loads and stores.
/// `W::saturate` clamps to the storage range exactly like the shared
/// model's explicit bounds, and an `f64` grid value saturates the same
/// whether it is clamped before or after the `i64` conversion.
mod int {
    use super::{FixedInt, FixedSpec, K_SHIFT};

    pub(super) fn restore<W: FixedInt>(w: &mut [W], values: &[f32], spec: &FixedSpec) {
        for (wi, &v) in w.iter_mut().zip(values) {
            *wi = W::saturate(spec.quantize_unbiased(v, 0.5));
        }
    }

    pub(super) fn dequant_into<W: FixedInt>(w: &[W], out: &mut [f32], spec: &FixedSpec) {
        for (o, wi) in out.iter_mut().zip(w) {
            *o = spec.dequantize(wi.widen().into());
        }
    }

    pub(super) fn accumulate_diff<W: FixedInt>(
        w: &[W],
        snapshot: &[f32],
        pending: &mut [f32],
        spec: &FixedSpec,
    ) {
        for ((p, &s), wi) in pending.iter_mut().zip(snapshot).zip(w) {
            *p += spec.dequantize(wi.widen().into()) - s;
        }
    }

    /// `w += round_nearest(s · q)` in grid units.
    pub(super) fn apply_delta<W: FixedInt>(w: &mut [W], q: &[i8], s: f32) {
        for (wi, &v) in w.iter_mut().zip(q) {
            let target = f64::from(wi.widen()) + f64::from(s * f32::from(v));
            *wi = W::saturate((target + 0.5).floor() as i64);
        }
    }

    pub(super) fn dot_f32<W: FixedInt>(w: &[W], x: &[f32]) -> f32 {
        let mut acc = 0f32;
        for (xi, wi) in x.iter().zip(w) {
            acc += xi * wi.widen() as f32;
        }
        acc
    }

    pub(super) fn dot_sparse<W: FixedInt, D: FixedInt>(
        w: &[W],
        values: &[D],
        indices: &[u32],
    ) -> i64 {
        let mut total = 0i64;
        for (v, &i) in values.iter().zip(indices) {
            total += (v.widen() * w[i as usize].widen()) as i64;
        }
        total
    }

    pub(super) fn dot_sparse_f32<W: FixedInt>(w: &[W], values: &[f32], indices: &[u32]) -> f32 {
        let mut acc = 0f32;
        for (v, &i) in values.iter().zip(indices) {
            acc += v * w[i as usize].widen() as f32;
        }
        acc
    }

    pub(super) fn axpy_fixed<W: FixedInt, D: FixedInt>(
        w: &mut [W],
        k: i64,
        x: &[D],
        mut offsets: impl FnMut(usize) -> i64,
    ) {
        for (i, (xi, wi)) in x.iter().zip(w.iter_mut()).enumerate() {
            let delta = (xi.widen() as i64 * k + offsets(i)) >> K_SHIFT;
            *wi = W::saturate(wi.widen() as i64 + delta);
        }
    }

    /// `w += a·x` with `scale = a / q_w`, rounded on the grid by `uniforms`.
    pub(super) fn axpy_f32<W: FixedInt>(
        w: &mut [W],
        scale: f32,
        x: &[f32],
        mut uniforms: impl FnMut(usize) -> f32,
    ) {
        for (i, (xi, wi)) in x.iter().zip(w.iter_mut()).enumerate() {
            let target = f64::from(wi.widen()) + f64::from(scale * xi);
            *wi = W::saturate((target + f64::from(uniforms(i))).floor() as i64);
        }
    }

    pub(super) fn axpy_sparse_fixed<W: FixedInt, D: FixedInt>(
        w: &mut [W],
        k: i64,
        values: &[D],
        indices: &[u32],
        mut offsets: impl FnMut(usize) -> i64,
    ) {
        for (j, (v, &i)) in values.iter().zip(indices).enumerate() {
            let delta = (v.widen() as i64 * k + offsets(j)) >> K_SHIFT;
            let wi = &mut w[i as usize];
            *wi = W::saturate(wi.widen() as i64 + delta);
        }
    }

    pub(super) fn axpy_sparse_f32<W: FixedInt>(
        w: &mut [W],
        scale: f32,
        values: &[f32],
        indices: &[u32],
        mut uniforms: impl FnMut(usize) -> f32,
    ) {
        for (j, (v, &i)) in values.iter().zip(indices).enumerate() {
            let wi = &mut w[i as usize];
            let target = f64::from(wi.widen()) + f64::from(scale * v);
            *wi = W::saturate((target + f64::from(uniforms(j))).floor() as i64);
        }
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
        let xf: Vec<f32> = (0..64).map(|i| (i as f32 - 32.0) / 64.0).collect();
        let x_spec = FixedSpec::unit_range(8);
        let init: Vec<f32> = (0..64).map(|i| ((i as f32) * 0.031) - 1.0).collect();
        for precision in [ModelPrecision::F32, ModelPrecision::I16, ModelPrecision::I8] {
            let shared = SharedModel::from_f32(precision, &init);
            let mut arena = ShardArena::new(precision, 1, 64);
            let mut views = arena.views();
            let local = &mut views[0];
            local.restore_from(&init);

            assert_eq!(
                local.dot_fixed(&x8, &x_spec),
                shared.dot_fixed(&x8, &x_spec)
            );
            assert_eq!(local.dot_f32(&xf), shared.dot_f32(&xf));

            let mut off_a = |i: usize| ((i * 7919) % (1 << 15)) as i64;
            let mut off_b = |i: usize| ((i * 7919) % (1 << 15)) as i64;
            shared.axpy_fixed(0.37, &x8, &x_spec, &mut off_a);
            local.axpy_fixed(0.37, &x8, &x_spec, &mut off_b);

            let offs = [3i64, 99, 1024, 0, 8000, 123, 77, 15000];
            shared.axpy_fixed(-0.21, &x8, &x_spec, |i| offs[i & 7]);
            local.axpy_fixed(-0.21, &x8, &x_spec, |i| offs[i & 7]);

            let mut uni_a = |i: usize| ((i * 31) % 97) as f32 / 97.0;
            let mut uni_b = |i: usize| ((i * 31) % 97) as f32 / 97.0;
            shared.axpy_f32(0.12, &xf, &mut uni_a);
            local.axpy_f32(0.12, &xf, &mut uni_b);

            let idx: Vec<u32> = vec![0, 5, 17, 63];
            let sv8: Vec<i8> = vec![100, -100, 50, 25];
            let svf: Vec<f32> = vec![0.5, -0.5, 0.25, 1.0];
            assert_eq!(
                local.dot_sparse_fixed(&sv8, &idx, &x_spec),
                shared.dot_sparse_fixed(&sv8, &idx, &x_spec)
            );
            assert_eq!(
                local.dot_sparse_f32(&svf, &idx),
                shared.dot_sparse_f32(&svf, &idx)
            );
            let mut off_a = |j: usize| ((j * 101) % (1 << 15)) as i64;
            let mut off_b = |j: usize| ((j * 101) % (1 << 15)) as i64;
            shared.axpy_sparse_fixed(0.8, &sv8, &idx, &x_spec, &mut off_a);
            local.axpy_sparse_fixed(0.8, &sv8, &idx, &x_spec, &mut off_b);
            let mut uni_a = |j: usize| (j as f32) / 7.0 % 1.0;
            let mut uni_b = |j: usize| (j as f32) / 7.0 % 1.0;
            shared.axpy_sparse_f32(-0.3, &svf, &idx, &mut uni_a);
            local.axpy_sparse_f32(-0.3, &svf, &idx, &mut uni_b);

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
