//! How the step reaches a model: one implementation for the shared atomic
//! model and the sharded replicas.
//!
//! The paper's Buckwild! model is one vector at precision M that every
//! worker reads and updates the same way: an integer MAC for the dot and a
//! rounded, saturating AXPY. [`ModelAccess`] writes each of those ops
//! once, generic over how a model word is read ([`Load`]) and written
//! ([`Store`]):
//!
//! * the shared model's `[AtomicI8 | AtomicI16 | AtomicU32]` words, through
//!   relaxed atomics. A write is a separate load and store, never a
//!   `fetch_add`, so an update that lands between another worker's load
//!   and store is lost, as with the plain accesses of C++ Hogwild!
//!   (paper §2);
//! * a replica's `[i8 | i16 | f32]` words, by plain indexing (each replica
//!   has one writer).
//!
//! Each op has one integer body, the same text for `i8` and `i16` words,
//! and one `f32` body; [`by_precision!`] is the one place that picks
//! between them. A dense row shares the bodies of a sparse one: it is the
//! sparse row whose `j`-th value lands on coordinate `j` ([`Coords`]).

use std::convert::identity;
use std::sync::atomic::{AtomicI16, AtomicI8, AtomicU32, Ordering};

use buckwild_fixed::FixedSpec;
use buckwild_kernels::optimized::FixedInt;

/// Fraction bits of the fixed-point AXPY step scale.
const K_SHIFT: u32 = 15;

/// The AXPY step `a` rescaled from the data grid onto the model grid, in
/// `K_SHIFT` fraction bits: `round(a · q_x / q_w · 2^15)`, saturated to
/// `i32`.
fn fixed_step(a: f32, x_spec: &FixedSpec, model_spec: &FixedSpec) -> i64 {
    let k_real = a as f64 * x_spec.quantum() as f64 / model_spec.quantum() as f64;
    (k_real * (1i64 << K_SHIFT) as f64)
        .round()
        .clamp(i32::MIN as f64, i32::MAX as f64) as i64
}

/// One value per model storage precision: a model's word buffers, or
/// views of them.
pub(crate) enum Words<I8, I16, F32> {
    I8(I8),
    I16(I16),
    F32(F32),
}

/// The one precision dispatch: evaluates the first body with its binding
/// on integer words (`i8` or `i16`), the second on `f32` words. With one
/// body, every precision runs it.
macro_rules! by_precision {
    ($words:expr, |$w:pat_param| $int:expr, |$f:pat_param| $float:expr $(,)?) => {
        match $words {
            $crate::access::Words::I8($w) => $int,
            $crate::access::Words::I16($w) => $int,
            $crate::access::Words::F32($f) => $float,
        }
    };
    ($words:expr, |$w:pat_param| $any:expr $(,)?) => {
        $crate::access::by_precision!($words, |$w| $any, |$w| $any)
    };
}
pub(crate) use by_precision;

/// Reads model words.
pub(crate) trait Load {
    /// The value of one word.
    type Word: Copy;
    /// Number of words.
    fn len(&self) -> usize;
    /// Word `i`.
    fn load(&self, i: usize) -> Self::Word;
}

/// Writes model words.
pub(crate) trait Store: Load {
    /// Overwrites word `i`.
    fn store(&mut self, i: usize, word: Self::Word);
}

macro_rules! atomic_words {
    ($atomic:ty, $word:ty, $from_bits:expr, $to_bits:expr) => {
        impl Load for &[$atomic] {
            type Word = $word;

            #[inline]
            fn len(&self) -> usize {
                <[$atomic]>::len(self)
            }

            #[inline(always)]
            fn load(&self, i: usize) -> $word {
                $from_bits(self[i].load(Ordering::Relaxed))
            }
        }

        impl Store for &[$atomic] {
            #[inline(always)]
            fn store(&mut self, i: usize, word: $word) {
                self[i].store($to_bits(word), Ordering::Relaxed);
            }
        }
    };
}

atomic_words!(AtomicI8, i8, identity, identity);
atomic_words!(AtomicI16, i16, identity, identity);
atomic_words!(AtomicU32, f32, f32::from_bits, f32::to_bits);

/// The word types a replica stores as plain numbers.
pub(crate) trait Plain: Copy {}
impl Plain for i8 {}
impl Plain for i16 {}
impl Plain for f32 {}

impl<T: Plain> Load for &[T] {
    type Word = T;

    fn len(&self) -> usize {
        <[T]>::len(self)
    }

    #[inline(always)]
    fn load(&self, i: usize) -> T {
        self[i]
    }
}

impl<T: Plain> Load for &mut [T] {
    type Word = T;

    fn len(&self) -> usize {
        <[T]>::len(self)
    }

    #[inline(always)]
    fn load(&self, i: usize) -> T {
        self[i]
    }
}

impl<T: Plain> Store for &mut [T] {
    #[inline(always)]
    fn store(&mut self, i: usize, word: T) {
        self[i] = word;
    }
}

impl<A: Load<Word = i8>, B: Load<Word = i16>, C: Load<Word = f32>> Words<A, B, C> {
    /// Number of words.
    pub(crate) fn len(&self) -> usize {
        by_precision!(self, |w| w.len())
    }
}

impl<A: Store<Word = i8>, B: Store<Word = i16>, C: Store<Word = f32>> Words<A, B, C> {
    /// Sets word `i` to `value`, quantizing integer words with the uniform
    /// sample `u` (`0.5` rounds to nearest).
    pub(crate) fn write_rounded(&mut self, i: usize, value: f32, u: f32, spec: &FixedSpec) {
        by_precision!(
            self,
            |w| w.store(i, FixedInt::saturate(spec.quantize_unbiased(value, u))),
            |w| w.store(i, value)
        );
    }
}

/// Where a row's `j`-th value lands in the model.
pub(crate) trait Coords: Copy {
    /// Panics unless a row of `n` values fits a model of `len` words.
    fn check(self, n: usize, len: usize);
    /// The model coordinate of value `j`.
    fn at(self, j: usize) -> usize;
}

/// A dense row: value `j` lands on coordinate `j`.
#[derive(Clone, Copy)]
pub(crate) struct Dense;

impl Coords for Dense {
    #[inline]
    fn check(self, n: usize, len: usize) {
        assert_eq!(n, len, "length mismatch");
    }

    #[inline(always)]
    fn at(self, j: usize) -> usize {
        j
    }
}

/// A sparse row's indices.
impl Coords for &[u32] {
    #[inline]
    fn check(self, n: usize, _len: usize) {
        assert_eq!(n, self.len(), "values/indices mismatch");
    }

    #[inline(always)]
    fn at(self, j: usize) -> usize {
        self[j] as usize
    }
}

/// How the step reads and writes a model: the shared atomic model
/// (`&SharedModel`) or one worker's private replica (`LocalModel`).
///
/// An implementation supplies its words and their fixed-point
/// interpretation; the ops are provided here, written once, so both agree
/// bit for bit. Each takes the row's [`Coords`]: [`Dense`], or a sparse
/// row's indices.
pub(crate) trait ModelAccess {
    /// The fixed-point interpretation of integer words.
    fn spec(&self) -> FixedSpec;
    /// The words, for reading.
    fn words(&self) -> Words<impl Load<Word = i8>, impl Load<Word = i16>, impl Load<Word = f32>>;
    /// The words, for writing.
    fn words_mut(
        &mut self,
    ) -> Words<impl Store<Word = i8>, impl Store<Word = i16>, impl Store<Word = f32>>;

    /// Overwrites every word from `values`, rounding to nearest.
    ///
    /// # Panics
    ///
    /// Panics if `values` is not one value per word.
    fn restore_from(&mut self, values: &[f32]) {
        let spec = self.spec();
        let mut words = self.words_mut();
        assert_eq!(values.len(), words.len(), "checkpoint length mismatch");
        for (i, &v) in values.iter().enumerate() {
            words.write_rounded(i, v, 0.5, &spec);
        }
    }

    /// Dense [`ModelAccess::dot_fixed`]; a replica overrides it to run the
    /// optimized kernels on its plain integer words.
    fn dot_dense_fixed<D: FixedInt>(&self, x: &[D], x_spec: &FixedSpec) -> f32 {
        self.dot_fixed(x, Dense, x_spec)
    }

    /// `Σ_j x[j]·w[at(j)]` for a fixed-point row: an exact integer MAC on
    /// integer words, a left-to-right `f32` sum on float words.
    fn dot_fixed<D: FixedInt>(&self, x: &[D], at: impl Coords, x_spec: &FixedSpec) -> f32 {
        let q = x_spec.quantum();
        by_precision!(
            self.words(),
            |w| {
                at.check(x.len(), w.len());
                let mut total = 0i64;
                for (j, xj) in x.iter().enumerate() {
                    total += i64::from(xj.widen() * w.load(at.at(j)).widen());
                }
                total as f32 * q * self.spec().quantum()
            },
            |w| {
                at.check(x.len(), w.len());
                let mut acc = 0f32;
                for (j, xj) in x.iter().enumerate() {
                    acc += xj.widen() as f32 * w.load(at.at(j));
                }
                acc * q
            }
        )
    }

    /// `Σ_j x[j]·w[at(j)]` for an `f32` row, summed left to right.
    fn dot_f32(&self, x: &[f32], at: impl Coords) -> f32 {
        by_precision!(
            self.words(),
            |w| {
                at.check(x.len(), w.len());
                let mut acc = 0f32;
                for (j, xj) in x.iter().enumerate() {
                    acc += xj * w.load(at.at(j)).widen() as f32;
                }
                acc * self.spec().quantum()
            },
            |w| {
                at.check(x.len(), w.len());
                let mut acc = 0f32;
                for (j, xj) in x.iter().enumerate() {
                    acc += xj * w.load(at.at(j));
                }
                acc
            }
        )
    }

    /// `w[at(j)] += a·x[j]` for a fixed-point row. Integer words add
    /// `(x·k + offsets(j)) >> 15`, with the step `k` from [`fixed_step`]
    /// and an offset in `[0, 2^15)`, and saturate at the storage bounds;
    /// float words add `a·q_x·x` and draw no offsets.
    fn axpy_fixed<D: FixedInt>(
        &mut self,
        a: f32,
        x: &[D],
        at: impl Coords,
        x_spec: &FixedSpec,
        mut offsets: impl FnMut(usize) -> i64,
    ) {
        let spec = self.spec();
        by_precision!(
            self.words_mut(),
            |mut w| {
                at.check(x.len(), w.len());
                let k = fixed_step(a, x_spec, &spec);
                for (j, xj) in x.iter().enumerate() {
                    let i = at.at(j);
                    let delta = (i64::from(xj.widen()) * k + offsets(j)) >> K_SHIFT;
                    w.store(i, FixedInt::saturate(i64::from(w.load(i).widen()) + delta));
                }
            },
            |mut w| {
                at.check(x.len(), w.len());
                let scale = a * x_spec.quantum();
                for (j, xj) in x.iter().enumerate() {
                    let i = at.at(j);
                    w.store(i, w.load(i) + scale * xj.widen() as f32);
                }
            }
        );
    }

    /// `w[at(j)] += a·x[j]` for an `f32` row. Integer words round
    /// `w + a·x/q_w` on the grid in `f64` with the uniform sample
    /// `uniforms(j)` in `[0, 1)` and saturate; float words add `a·x` and
    /// draw no samples. (Saturating the `f64` before or after the `i64`
    /// conversion gives the same word, infinities and NaN included.)
    fn axpy_f32(
        &mut self,
        a: f32,
        x: &[f32],
        at: impl Coords,
        mut uniforms: impl FnMut(usize) -> f32,
    ) {
        let q = self.spec().quantum();
        by_precision!(
            self.words_mut(),
            |mut w| {
                at.check(x.len(), w.len());
                let scale = a / q;
                for (j, xj) in x.iter().enumerate() {
                    let i = at.at(j);
                    let target = f64::from(w.load(i).widen()) + f64::from(scale * xj);
                    let grid = (target + f64::from(uniforms(j))).floor() as i64;
                    w.store(i, FixedInt::saturate(grid));
                }
            },
            |mut w| {
                at.check(x.len(), w.len());
                for (j, xj) in x.iter().enumerate() {
                    let i = at.at(j);
                    w.store(i, w.load(i) + a * xj);
                }
            }
        );
    }
}
