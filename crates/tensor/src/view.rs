//! Borrowed matrix views and allocation-free GEMM kernels.
//!
//! The batched data plane of the OrcoDCS reproduction moves rounds of
//! sensing frames through codecs as **views over caller-owned memory**
//! instead of per-frame `Vec` allocations. [`MatView`] / [`MatViewMut`]
//! are the borrowed twins of [`Matrix`]: a shape plus a `&[f32]` /
//! `&mut [f32]`, constructible from a `Matrix`, a single row, or a
//! zero-copy row-range.
//!
//! The `_into` kernels ([`MatView::matmul_into`],
//! [`MatView::t_matmul_into`], [`MatView::matmul_t_into`],
//! [`MatView::matvec_into`], [`MatView::t_matvec_into`]) are the one
//! body of each product: the
//! allocating [`Matrix`] products are a fresh matrix plus one call of
//! them, so results are bit-identical to the owning API at any thread
//! count, while the output lands in a buffer the caller reuses across
//! batches.
//!
//! What the kernels promise is a **summation order**, not a loop nest:
//! every output element is one `f32` accumulator that starts at `+0.0`
//! and takes its terms in ascending `k`. `matmul` and `t_matmul` skip a
//! term whose left factor is zero; `matmul_t` (the `x·Wᵀ` of every dense
//! layer) skips nothing. Tile and panel sizes may be retuned freely; the
//! per-element order and the two zero-skips may not — the unit tests hold
//! all three products bitwise to scalar oracles that spell this out.
//!
//! ```
//! use orco_tensor::{MatView, Matrix};
//!
//! let a = Matrix::from_fn(4, 3, |r, c| (r * 3 + c) as f32);
//! let b = Matrix::from_fn(3, 2, |r, c| (r * 2 + c) as f32);
//! let mut out = Matrix::zeros(0, 0); // reused across calls
//! out.reset(4, 2);
//! a.as_view().matmul_into(b.as_view(), out.as_view_mut());
//! assert_eq!(out, a.matmul(&b));
//! ```

use crate::error::TensorError;
use crate::matrix::Matrix;

/// Row-tile height for the blocked GEMM kernels: `B` is streamed once per
/// tile instead of once per output row. Must stay constant — per-row
/// summation order (ascending `k`) is what keeps results bit-identical
/// across thread counts.
const GEMM_ROW_TILE: usize = 4;

/// Minimum rows a worker thread must own before the GEMM kernels
/// parallelize; below this the spawn overhead dominates.
const GEMM_MIN_ROWS_PER_THREAD: usize = 8;

// ----------------------------------------------------------------------
// Kernels
// ----------------------------------------------------------------------

/// `out[m×n] = a[m×k] · b[k×n]`, blocked and row-parallel. `out` must be
/// zeroed by the caller (the kernel accumulates).
fn matmul_kernel(a: &[f32], k: usize, b: &[f32], n: usize, out: &mut [f32]) {
    if n == 0 || k == 0 {
        return;
    }
    crate::parallel::for_each_row_block(out, n, GEMM_MIN_ROWS_PER_THREAD, |first_row, block| {
        for (tile_idx, o_tile) in block.chunks_mut(GEMM_ROW_TILE * n).enumerate() {
            let i0 = first_row + tile_idx * GEMM_ROW_TILE;
            for kk in 0..k {
                let b_row = &b[kk * n..(kk + 1) * n];
                for (r, o_row) in o_tile.chunks_exact_mut(n).enumerate() {
                    let av = a[(i0 + r) * k + kk];
                    if av == 0.0 {
                        continue;
                    }
                    for (o, &bv) in o_row.iter_mut().zip(b_row) {
                        *o += av * bv;
                    }
                }
            }
        }
    });
}

/// `out[m×n] = aᵀ · b` where `a` is `k×m` and `b` is `k×n`, row-parallel.
/// `out` must be zeroed by the caller (the kernel accumulates).
///
/// Row-tiled like [`matmul_kernel`]: a [`GEMM_ROW_TILE`]-row tile of `out`
/// stays in cache while `b` streams past it once, instead of the whole
/// block of `out` streaming past once per `kk` — the backward products
/// (`δᵀ·x`, `Kᵀ·δ`) have a short `k` and an `out` far larger than `b`.
/// Every output element is still one accumulator from `+0.0` taking its
/// terms in ascending `k`, zero left factors skipped.
// orco-lint: region(no-alloc)
fn t_matmul_kernel(a: &[f32], m: usize, k: usize, b: &[f32], n: usize, out: &mut [f32]) {
    if n == 0 || k == 0 {
        return;
    }
    // out[i][j] = sum_k a[k][i] * b[k][j]
    crate::parallel::for_each_row_block(out, n, GEMM_MIN_ROWS_PER_THREAD, |first_row, block| {
        for (tile_idx, o_tile) in block.chunks_mut(GEMM_ROW_TILE * n).enumerate() {
            let i0 = first_row + tile_idx * GEMM_ROW_TILE;
            for kk in 0..k {
                let a_tile = &a[kk * m + i0..(kk + 1) * m];
                let b_row = &b[kk * n..(kk + 1) * n];
                for (o_row, &av) in o_tile.chunks_exact_mut(n).zip(a_tile) {
                    if av == 0.0 {
                        continue;
                    }
                    for (o, &bv) in o_row.iter_mut().zip(b_row) {
                        *o += av * bv;
                    }
                }
            }
        }
    });
}
// orco-lint: endregion

/// Panel depth (`k` extent) of the packed `Bᵀ` tile in [`matmul_t_kernel`].
/// Free to retune: each output element still sums in ascending `k`.
const MATMUL_T_PANEL_K: usize = 32;

/// Panel width (`n` extent) of the packed `Bᵀ` tile in [`matmul_t_kernel`].
/// Free to retune, like [`MATMUL_T_PANEL_K`].
const MATMUL_T_PANEL_N: usize = 128;

/// `out[m×n] = a · bᵀ` where `a` is `m×k` and `b` is `n×k`, row-parallel.
/// `out` must be zeroed by the caller (the kernel accumulates).
///
/// Packed-panel: a `PANEL_K × PANEL_N` tile of `bᵀ` is transposed into a
/// stack array, then output rows stream over it in [`GEMM_ROW_TILE`] tiles
/// exactly as [`matmul_kernel`] streams `b` — so the inner loop is a
/// contiguous `o += av · panel_row` that vectorises, instead of one
/// dependent scalar accumulator chain per element.
///
/// Summation-order contract: every output element is one accumulator that
/// starts at `+0.0` and adds `a[i][kk] · b[j][kk]` for `kk` ascending, with
/// **no** zero-skip — bit for bit the naive dot product (NaN and ±inf
/// included), whatever the panel sizes or the thread count.
// orco-lint: region(no-alloc)
fn matmul_t_kernel(a: &[f32], k: usize, b: &[f32], n: usize, out: &mut [f32]) {
    const KB: usize = MATMUL_T_PANEL_K;
    const NB: usize = MATMUL_T_PANEL_N;
    if n == 0 {
        return;
    }
    crate::parallel::for_each_row_block(out, n, GEMM_MIN_ROWS_PER_THREAD, |first_row, block| {
        let mut panel = [0.0f32; KB * NB];
        for j0 in (0..n).step_by(NB) {
            let nb = NB.min(n - j0);
            // Ascending k0 inside a fixed column panel keeps each element's
            // additions in ascending k across panels.
            for k0 in (0..k).step_by(KB) {
                let kb = KB.min(k - k0);
                for (jj, b_row) in b[j0 * k..(j0 + nb) * k].chunks_exact(k).enumerate() {
                    for (kk, &bv) in b_row[k0..k0 + kb].iter().enumerate() {
                        panel[kk * NB + jj] = bv;
                    }
                }
                for (tile_idx, o_tile) in block.chunks_mut(GEMM_ROW_TILE * n).enumerate() {
                    let i0 = first_row + tile_idx * GEMM_ROW_TILE;
                    for (kk, p_row) in panel.chunks_exact(NB).take(kb).enumerate() {
                        let p_row = &p_row[..nb];
                        for (r, o_row) in o_tile.chunks_exact_mut(n).enumerate() {
                            let av = a[(i0 + r) * k + k0 + kk];
                            for (o, &bv) in o_row[j0..j0 + nb].iter_mut().zip(p_row) {
                                *o += av * bv;
                            }
                        }
                    }
                }
            }
        }
    });
}
// orco-lint: endregion

// ----------------------------------------------------------------------
// MatView
// ----------------------------------------------------------------------

/// An immutable, borrowed, row-major `f32` matrix: shape plus `&[f32]`.
///
/// The read side of the zero-copy batch API: its `_into` methods run the
/// same blocked, row-parallel kernels as the allocating [`Matrix`]
/// products, so results are bit-identical to the owning API at any
/// thread count while the output lands in a caller-reused buffer.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MatView<'a> {
    rows: usize,
    cols: usize,
    data: &'a [f32],
}

impl<'a> MatView<'a> {
    /// Wraps a row-major buffer as a `rows`×`cols` view.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::LengthMismatch`] if
    /// `data.len() != rows * cols`.
    pub fn new(rows: usize, cols: usize, data: &'a [f32]) -> Result<Self, TensorError> {
        if data.len() != rows * cols {
            return Err(TensorError::LengthMismatch { expected: rows * cols, actual: data.len() });
        }
        Ok(Self { rows, cols, data })
    }

    /// Views a slice as a single-row matrix (`1 × len`) — the bridge from
    /// the per-frame API into the batched one.
    #[must_use]
    pub fn from_row(row: &'a [f32]) -> Self {
        Self { rows: 1, cols: row.len(), data: row }
    }

    /// Number of rows.
    #[must_use]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[must_use]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// `(rows, cols)` pair.
    #[must_use]
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Total number of elements.
    #[must_use]
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether the view contains no elements.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// The underlying row-major buffer.
    #[must_use]
    pub(crate) fn as_slice(&self) -> &'a [f32] {
        self.data
    }

    /// Row `r` as a slice.
    ///
    /// # Panics
    ///
    /// Panics if `r >= self.rows()`.
    #[must_use]
    pub fn row(&self, r: usize) -> &'a [f32] {
        assert!(r < self.rows, "row {r} out of bounds for {} rows", self.rows);
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Iterates over rows as slices.
    pub fn iter_rows(&self) -> impl Iterator<Item = &'a [f32]> + '_ {
        let (cols, data) = (self.cols, self.data);
        (0..self.rows).map(move |r| &data[r * cols..(r + 1) * cols])
    }

    /// A zero-copy sub-view of rows `range.start..range.end`.
    ///
    /// # Panics
    ///
    /// Panics if the range end exceeds the number of rows.
    #[must_use]
    pub(crate) fn rows_range(&self, range: std::ops::Range<usize>) -> MatView<'a> {
        assert!(range.end <= self.rows, "rows_range end {} > rows {}", range.end, self.rows);
        MatView {
            rows: range.len(),
            cols: self.cols,
            data: &self.data[range.start * self.cols..range.end * self.cols],
        }
    }

    /// Copies the view into an owned [`Matrix`].
    #[must_use]
    pub fn to_matrix(&self) -> Matrix {
        Matrix::from_vec(self.rows, self.cols, self.data.to_vec())
            .expect("view shape is consistent by construction")
    }

    /// `out = self · other`, the body of [`Matrix::matmul`]: blocked
    /// (4-row tiles over a streamed `other`) and row-parallel across the
    /// [`crate::parallel`] thread budget. `out` is fully overwritten.
    ///
    /// # Panics
    ///
    /// Panics if `self.cols() != other.rows()` or `out` is not
    /// `self.rows() × other.cols()`.
    pub fn matmul_into(&self, other: MatView<'_>, out: MatViewMut<'_>) {
        assert!(
            self.cols == other.rows,
            "matmul_into shape mismatch: {}x{} * {}x{}",
            self.rows,
            self.cols,
            other.rows,
            other.cols
        );
        assert!(
            out.shape() == (self.rows, other.cols),
            "matmul_into: out is {}x{}, need {}x{}",
            out.rows,
            out.cols,
            self.rows,
            other.cols
        );
        out.data.fill(0.0);
        matmul_kernel(self.data, self.cols, other.data, other.cols, out.data);
    }

    /// `out = selfᵀ · other` without materializing the transpose — the
    /// body of [`Matrix::t_matmul`], row-parallel over output rows (columns
    /// of `self`). `out` is fully overwritten.
    ///
    /// # Panics
    ///
    /// Panics if `self.rows() != other.rows()` or `out` is not
    /// `self.cols() × other.cols()`.
    pub fn t_matmul_into(&self, other: MatView<'_>, out: MatViewMut<'_>) {
        assert!(
            self.rows == other.rows,
            "t_matmul_into shape mismatch: ({}x{})ᵀ * {}x{}",
            self.rows,
            self.cols,
            other.rows,
            other.cols
        );
        assert!(
            out.shape() == (self.cols, other.cols),
            "t_matmul_into: out is {}x{}, need {}x{}",
            out.rows,
            out.cols,
            self.cols,
            other.cols
        );
        out.data.fill(0.0);
        t_matmul_kernel(self.data, self.cols, self.rows, other.data, other.cols, out.data);
    }

    /// `out = self · otherᵀ` without materializing the transpose — the
    /// body of [`Matrix::matmul_t`], row-parallel over packed panels of
    /// `otherᵀ`. `out` is fully overwritten.
    ///
    /// # Panics
    ///
    /// Panics if `self.cols() != other.cols()` or `out` is not
    /// `self.rows() × other.rows()`.
    pub fn matmul_t_into(&self, other: MatView<'_>, out: MatViewMut<'_>) {
        assert!(
            self.cols == other.cols,
            "matmul_t_into shape mismatch: {}x{} * ({}x{})ᵀ",
            self.rows,
            self.cols,
            other.rows,
            other.cols
        );
        assert!(
            out.shape() == (self.rows, other.rows),
            "matmul_t_into: out is {}x{}, need {}x{}",
            out.rows,
            out.cols,
            self.rows,
            other.rows
        );
        out.data.fill(0.0);
        matmul_t_kernel(self.data, self.cols, other.data, other.rows, out.data);
    }

    /// `out = self · v`, the allocation-free twin of [`Matrix::matvec`]
    /// (same per-row dot products, bit-identical).
    ///
    /// # Panics
    ///
    /// Panics if `v.len() != self.cols()` or `out.len() != self.rows()`.
    pub(crate) fn matvec_into(&self, v: &[f32], out: &mut [f32]) {
        assert_eq!(
            v.len(),
            self.cols,
            "matvec_into: vector length {} != cols {}",
            v.len(),
            self.cols
        );
        assert_eq!(
            out.len(),
            self.rows,
            "matvec_into: out length {} != rows {}",
            out.len(),
            self.rows
        );
        for (o, row) in out.iter_mut().zip(self.iter_rows()) {
            *o = row.iter().zip(v).map(|(a, b)| a * b).sum();
        }
    }

    /// `out = selfᵀ · v` without materializing the transpose. Each output
    /// element accumulates in ascending row order, so the result is
    /// bit-identical to `self.transpose().matvec(v)` — minus the
    /// transpose allocation the solvers used to pay per iteration.
    ///
    /// # Panics
    ///
    /// Panics if `v.len() != self.rows()` or `out.len() != self.cols()`.
    pub(crate) fn t_matvec_into(&self, v: &[f32], out: &mut [f32]) {
        assert_eq!(
            v.len(),
            self.rows,
            "t_matvec_into: vector length {} != rows {}",
            v.len(),
            self.rows
        );
        assert_eq!(
            out.len(),
            self.cols,
            "t_matvec_into: out length {} != cols {}",
            out.len(),
            self.cols
        );
        out.fill(0.0);
        for (row, &vk) in self.iter_rows().zip(v) {
            for (o, &a) in out.iter_mut().zip(row) {
                *o += a * vk;
            }
        }
    }
}

impl<'a> From<&'a Matrix> for MatView<'a> {
    fn from(m: &'a Matrix) -> Self {
        m.as_view()
    }
}

// ----------------------------------------------------------------------
// MatViewMut
// ----------------------------------------------------------------------

/// A mutable, borrowed, row-major `f32` matrix: shape plus `&mut [f32]`.
///
/// The write side of the zero-copy batch API: `_into` kernels land their
/// output here, so callers own (and reuse) every buffer.
#[derive(Debug, PartialEq)]
pub struct MatViewMut<'a> {
    rows: usize,
    cols: usize,
    data: &'a mut [f32],
}

impl<'a> MatViewMut<'a> {
    /// Wraps a mutable row-major buffer as a `rows`×`cols` view.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::LengthMismatch`] if
    /// `data.len() != rows * cols`.
    pub fn new(rows: usize, cols: usize, data: &'a mut [f32]) -> Result<Self, TensorError> {
        if data.len() != rows * cols {
            return Err(TensorError::LengthMismatch { expected: rows * cols, actual: data.len() });
        }
        Ok(Self { rows, cols, data })
    }

    /// `(rows, cols)` pair.
    #[must_use]
    pub(crate) fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// The underlying mutable row-major buffer.
    #[must_use]
    pub fn as_mut_slice(&mut self) -> &mut [f32] {
        self.data
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    // Scalar oracles: the products as their summation-order contracts state
    // them, one element and one accumulator at a time, on one thread.

    /// `a[m×k] · b[k×n]`; terms whose `a` factor is zero are skipped.
    fn matmul_oracle(a: &Matrix, b: &Matrix) -> Matrix {
        Matrix::from_fn(a.rows(), b.cols(), |i, j| {
            let mut acc = 0.0f32;
            for kk in 0..a.cols() {
                if a[(i, kk)] != 0.0 {
                    acc += a[(i, kk)] * b[(kk, j)];
                }
            }
            acc
        })
    }

    /// `aᵀ · b` for `a[k×m]`, `b[k×n]`; same zero-skip as `matmul`.
    fn t_matmul_oracle(a: &Matrix, b: &Matrix) -> Matrix {
        Matrix::from_fn(a.cols(), b.cols(), |i, j| {
            let mut acc = 0.0f32;
            for kk in 0..a.rows() {
                if a[(kk, i)] != 0.0 {
                    acc += a[(kk, i)] * b[(kk, j)];
                }
            }
            acc
        })
    }

    /// `a[m×k] · bᵀ` for `b[n×k]`: the dot product `matmul_t_kernel` was
    /// before it packed panels. No zero-skip.
    fn matmul_t_oracle(a: &Matrix, b: &Matrix) -> Matrix {
        Matrix::from_fn(a.rows(), b.rows(), |i, j| {
            let mut acc = 0.0f32;
            for (av, bv) in a.row(i).iter().zip(b.row(j)) {
                acc += av * bv;
            }
            acc
        })
    }

    /// Bit equality, except that any NaN equals any NaN: which operand's
    /// payload an `x + y` of two NaNs keeps is not specified.
    fn assert_bitwise(got: &Matrix, want: &Matrix, what: &str) {
        assert_eq!(got.shape(), want.shape(), "{what}: shape");
        for (i, (g, w)) in got.as_slice().iter().zip(want.as_slice()).enumerate() {
            assert!(
                g.to_bits() == w.to_bits() || (g.is_nan() && w.is_nan()),
                "{what}: element {i} is {g:?} ({:#x}), oracle {w:?} ({:#x})",
                g.to_bits(),
                w.to_bits()
            );
        }
    }

    /// Holds the three products, owning and `_into` (into a dirty buffer),
    /// to their oracles at thread budgets 1, 2 and 4.
    fn check_kernel_contract(a: &Matrix, b: &Matrix, at: &Matrix, bt: &Matrix) {
        let (m, k, n) = (a.rows(), a.cols(), b.cols());
        let want_mm = matmul_oracle(a, b);
        let want_tm = t_matmul_oracle(at, b);
        let want_mt = matmul_t_oracle(a, bt);
        for threads in [1, 2, 4] {
            crate::parallel::with_thread_budget(threads, || {
                let what = |name: &str| format!("{name} {m}x{k}x{n} at {threads} threads");
                assert_bitwise(&a.matmul(b), &want_mm, &what("matmul"));
                assert_bitwise(&at.t_matmul(b), &want_tm, &what("t_matmul"));
                assert_bitwise(&a.matmul_t(bt), &want_mt, &what("matmul_t"));
                let mut out = Matrix::filled(m, n, f32::NAN);
                a.as_view().matmul_into(b.as_view(), out.as_view_mut());
                assert_bitwise(&out, &want_mm, &what("matmul_into"));
                out.as_mut_slice().fill(f32::NAN);
                at.as_view().t_matmul_into(b.as_view(), out.as_view_mut());
                assert_bitwise(&out, &want_tm, &what("t_matmul_into"));
                out.as_mut_slice().fill(f32::NAN);
                a.as_view().matmul_t_into(bt.as_view(), out.as_view_mut());
                assert_bitwise(&out, &want_mt, &what("matmul_t_into"));
            });
        }
    }

    /// Rows of a thread block that is not a whole number of row tiles, so
    /// the blocks after the first start mid-tile.
    const RAGGED_BLOCK: usize = GEMM_MIN_ROWS_PER_THREAD + GEMM_ROW_TILE / 2;

    /// The codecs' dominant shapes, the backward products' (`Conv2d`
    /// 16→16 `∂patches`, the DCSNet encoder's `∂W`), shapes one off each
    /// edge of the row tile and the packed panel (single and multiple
    /// panels), and an `m` one off each side of four ragged thread blocks.
    const EDGE_SHAPES: [(usize, usize, usize); 12] = [
        (64, 128, 784),
        (32, 784, 128),
        (16, 1024, 144),
        (144, 16, 1024),
        (1024, 32, 784),
        (GEMM_ROW_TILE - 1, MATMUL_T_PANEL_K - 1, MATMUL_T_PANEL_N - 1),
        (GEMM_ROW_TILE, MATMUL_T_PANEL_K, MATMUL_T_PANEL_N),
        (GEMM_ROW_TILE + 1, MATMUL_T_PANEL_K + 1, MATMUL_T_PANEL_N + 1),
        (2 * GEMM_MIN_ROWS_PER_THREAD - 1, 2 * MATMUL_T_PANEL_K - 1, 2 * MATMUL_T_PANEL_N - 1),
        (2 * GEMM_MIN_ROWS_PER_THREAD + 1, 2 * MATMUL_T_PANEL_K + 1, 2 * MATMUL_T_PANEL_N + 1),
        (4 * RAGGED_BLOCK - 1, 5, 33),
        (4 * RAGGED_BLOCK + 1, 5, 33),
    ];

    /// Three ragged shapes for every one drawn from [`EDGE_SHAPES`].
    fn shape_strategy() -> impl Strategy<Value = (usize, usize, usize)> {
        (0..4 * EDGE_SHAPES.len(), 0usize..=70, 0usize..=70, 0usize..=70)
            .prop_map(|(pick, m, k, n)| EDGE_SHAPES.get(pick).copied().unwrap_or((m, k, n)))
    }

    /// Mostly ordinary values, one in eight a signed zero (the zero-skip),
    /// and a sprinkle of NaN and ±inf rare enough that most dot products
    /// of length 70 stay finite.
    fn element_strategy() -> impl Strategy<Value = f32> {
        (0u32..1024, -2.0f32..2.0).prop_map(|(tag, v)| match tag {
            0..=95 => 0.0,
            96..=127 => -0.0,
            128..=129 => f32::NAN,
            130..=131 => f32::INFINITY,
            132..=133 => f32::NEG_INFINITY,
            _ => v,
        })
    }

    fn matrix_strategy(rows: usize, cols: usize) -> impl Strategy<Value = Matrix> {
        prop::collection::vec(element_strategy(), rows * cols)
            .prop_map(move |data| Matrix::from_vec(rows, cols, data).unwrap())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        #[test]
        fn products_are_bitwise_their_scalar_oracles(
            (a, b, at, bt) in shape_strategy().prop_flat_map(|(m, k, n)| (
                matrix_strategy(m, k),
                matrix_strategy(k, n),
                matrix_strategy(k, m),
                matrix_strategy(n, k),
            ))
        ) {
            check_kernel_contract(&a, &b, &at, &bt);
        }
    }

    #[test]
    fn every_edge_shape_meets_the_kernel_contract() {
        let mut rng = crate::OrcoRng::from_label("kernel-contract", 0);
        for (m, k, n) in EDGE_SHAPES {
            let mut random =
                |rows, cols| Matrix::from_fn(rows, cols, |_, _| rng.uniform(-1.0, 1.0));
            let (a, b, at, bt) = (random(m, k), random(k, n), random(k, m), random(n, k));
            check_kernel_contract(&a, &b, &at, &bt);
        }
    }

    fn a() -> Matrix {
        Matrix::from_fn(5, 3, |r, c| ((r * 7 + c) as f32 * 0.31).sin())
    }

    fn b() -> Matrix {
        Matrix::from_fn(3, 4, |r, c| ((r * 5 + c) as f32 * 0.17).cos())
    }

    #[test]
    fn view_construction_and_accessors() {
        let m = a();
        let v = m.as_view();
        assert_eq!(v.shape(), m.shape());
        assert_eq!(v.row(2), m.row(2));
        assert_eq!(v.len(), 15);
        assert!(!v.is_empty());
        assert_eq!(v.iter_rows().count(), 5);
        assert_eq!(v.to_matrix(), m);
        assert!(MatView::new(2, 2, &[0.0; 3]).is_err());
        let row = MatView::from_row(m.row(1));
        assert_eq!(row.shape(), (1, 3));
    }

    #[test]
    fn rows_range_is_zero_copy_and_matches_slice_rows() {
        let m = a();
        let v = m.as_view().rows_range(1..4);
        assert_eq!(v.to_matrix(), m.slice_rows(1..4));
        assert_eq!(m.view_rows(1..4), v);
    }

    #[test]
    fn matmul_into_bit_identical_to_matmul() {
        let (a, b) = (a(), b());
        let mut out = Matrix::zeros(0, 0);
        out.reset(5, 4);
        // Pre-fill with garbage: the kernel must fully overwrite.
        out.as_mut_slice().fill(7.5);
        a.as_view().matmul_into(b.as_view(), out.as_view_mut());
        assert_eq!(out, a.matmul(&b));
    }

    #[test]
    fn t_matmul_into_bit_identical() {
        let a = a();
        let b = Matrix::from_fn(5, 2, |r, c| (r * 2 + c) as f32 * 0.4 - 1.0);
        let mut out = Matrix::zeros(3, 2);
        out.as_mut_slice().fill(-3.0);
        a.as_view().t_matmul_into(b.as_view(), out.as_view_mut());
        assert_eq!(out, a.t_matmul(&b));
    }

    #[test]
    fn matmul_t_into_bit_identical() {
        let a = a();
        let b = Matrix::from_fn(6, 3, |r, c| ((r + c) as f32).sqrt());
        let mut out = Matrix::zeros(5, 6);
        a.as_view().matmul_t_into(b.as_view(), out.as_view_mut());
        assert_eq!(out, a.matmul_t(&b));
    }

    #[test]
    fn matvec_variants_bit_identical() {
        let a = a();
        let v3 = [0.3f32, -1.0, 2.5];
        let v5 = [1.0f32, 0.0, -0.5, 2.0, 0.25];
        let mut out = vec![0.0f32; 5];
        a.as_view().matvec_into(&v3, &mut out);
        assert_eq!(out, a.matvec(&v3));
        let mut out_t = vec![9.0f32; 3];
        a.as_view().t_matvec_into(&v5, &mut out_t);
        assert_eq!(out_t, a.transpose().matvec(&v5));
    }

    #[test]
    fn mut_view_checks_its_buffer_length() {
        let mut buf = vec![0.0f32; 4];
        assert!(MatViewMut::new(2, 2, &mut buf).is_ok());
        let mut short = vec![0.0f32; 3];
        assert!(MatViewMut::new(2, 2, &mut short).is_err());
    }

    #[test]
    fn empty_shapes_are_handled() {
        let a = Matrix::zeros(0, 3);
        let b = Matrix::zeros(3, 2);
        let mut out = Matrix::zeros(0, 2);
        a.as_view().matmul_into(b.as_view(), out.as_view_mut());
        assert_eq!(out.shape(), (0, 2));
        let kless = Matrix::zeros(2, 0);
        let bless = Matrix::zeros(0, 4);
        let mut out2 = Matrix::filled(2, 4, 3.0);
        kless.as_view().matmul_into(bless.as_view(), out2.as_view_mut());
        assert_eq!(out2, Matrix::zeros(2, 4), "k = 0 product must still zero the buffer");
    }
}
