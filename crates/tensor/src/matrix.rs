use std::fmt;
use std::ops::{Add, AddAssign, Index, IndexMut, Mul, MulAssign, Neg, Sub, SubAssign};

use crate::error::TensorError;

/// A dense, row-major matrix of `f32`.
///
/// `Matrix` is the workhorse type of the OrcoDCS reproduction: batches of
/// sensing data are stored one sample per row, weight matrices of dense
/// layers are `Matrix`, and convolutions are lowered to matrix products via
/// [`crate::im2col()`].
///
/// # Shape conventions
///
/// * `rows` indexes samples (for data) or output features (for weights).
/// * `cols` indexes features (for data) or input features (for weights).
///
/// # Panics vs. errors
///
/// Constructors that take caller-supplied buffers are fallible and return
/// [`TensorError`]. Arithmetic operations **panic** on shape mismatch: a
/// mismatched GEMM is a logic error, and the panic message names the
/// operation and both shapes.
///
/// # Examples
///
/// ```
/// use orco_tensor::Matrix;
///
/// let eye = Matrix::identity(3);
/// let x = Matrix::from_vec(3, 1, vec![1.0, 2.0, 3.0])?;
/// assert_eq!(eye.matmul(&x).as_slice(), x.as_slice());
/// # Ok::<(), orco_tensor::TensorError>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f32>,
}

impl Matrix {
    // ------------------------------------------------------------------
    // Constructors
    // ------------------------------------------------------------------

    /// Creates a `rows`×`cols` matrix filled with zeros.
    #[must_use]
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Self { rows, cols, data: vec![0.0; rows * cols] }
    }

    /// Creates a `rows`×`cols` matrix filled with ones.
    #[must_use]
    pub fn ones(rows: usize, cols: usize) -> Self {
        Self::filled(rows, cols, 1.0)
    }

    /// Creates a `rows`×`cols` matrix filled with `value`.
    #[must_use]
    pub fn filled(rows: usize, cols: usize, value: f32) -> Self {
        Self { rows, cols, data: vec![value; rows * cols] }
    }

    /// Creates the `n`×`n` identity matrix.
    #[must_use]
    pub fn identity(n: usize) -> Self {
        let mut m = Self::zeros(n, n);
        for i in 0..n {
            m.data[i * n + i] = 1.0;
        }
        m
    }

    /// Creates a matrix from a row-major buffer.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::LengthMismatch`] if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f32>) -> Result<Self, TensorError> {
        if data.len() != rows * cols {
            return Err(TensorError::LengthMismatch { expected: rows * cols, actual: data.len() });
        }
        Ok(Self { rows, cols, data })
    }

    /// Creates a matrix by evaluating `f(row, col)` at every position.
    #[must_use]
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> f32) -> Self {
        let mut data = Vec::with_capacity(rows * cols);
        for r in 0..rows {
            for c in 0..cols {
                data.push(f(r, c));
            }
        }
        Self { rows, cols, data }
    }

    /// Creates a single-row matrix from a slice.
    #[must_use]
    pub fn row_vector(values: &[f32]) -> Self {
        Self { rows: 1, cols: values.len(), data: values.to_vec() }
    }

    /// Creates a single-column matrix from a slice.
    #[must_use]
    pub fn col_vector(values: &[f32]) -> Self {
        Self { rows: values.len(), cols: 1, data: values.to_vec() }
    }

    // ------------------------------------------------------------------
    // Accessors
    // ------------------------------------------------------------------

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

    /// Whether the matrix contains no elements.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// A view of the underlying row-major buffer.
    #[must_use]
    pub fn as_slice(&self) -> &[f32] {
        &self.data
    }

    /// A mutable view of the underlying row-major buffer.
    #[must_use]
    pub fn as_mut_slice(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Consumes the matrix and returns its row-major buffer.
    #[must_use]
    pub fn into_vec(self) -> Vec<f32> {
        self.data
    }

    /// Returns the element at `(row, col)`, or `None` if out of bounds.
    #[must_use]
    pub fn get(&self, row: usize, col: usize) -> Option<f32> {
        if row < self.rows && col < self.cols {
            Some(self.data[row * self.cols + col])
        } else {
            None
        }
    }

    /// Sets the element at `(row, col)`.
    ///
    /// # Panics
    ///
    /// Panics if `row` or `col` is out of bounds.
    pub fn set(&mut self, row: usize, col: usize, value: f32) {
        assert!(
            row < self.rows && col < self.cols,
            "set({row},{col}) out of bounds for {}x{}",
            self.rows,
            self.cols
        );
        self.data[row * self.cols + col] = value;
    }

    /// A view of row `r`.
    ///
    /// # Panics
    ///
    /// Panics if `r >= self.rows()`.
    #[must_use]
    pub fn row(&self, r: usize) -> &[f32] {
        assert!(r < self.rows, "row {r} out of bounds for {} rows", self.rows);
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// A mutable view of row `r`.
    ///
    /// # Panics
    ///
    /// Panics if `r >= self.rows()`.
    #[must_use]
    pub fn row_mut(&mut self, r: usize) -> &mut [f32] {
        assert!(r < self.rows, "row {r} out of bounds for {} rows", self.rows);
        let start = r * self.cols;
        let end = start + self.cols;
        &mut self.data[start..end]
    }

    /// Copies column `c` into a new `Vec`.
    ///
    /// # Panics
    ///
    /// Panics if `c >= self.cols()`.
    #[must_use]
    pub fn col(&self, c: usize) -> Vec<f32> {
        assert!(c < self.cols, "col {c} out of bounds for {} cols", self.cols);
        (0..self.rows).map(|r| self.data[r * self.cols + c]).collect()
    }

    /// Iterates over rows as slices.
    pub fn iter_rows(&self) -> impl Iterator<Item = &[f32]> {
        self.data.chunks_exact(self.cols.max(1))
    }

    /// Iterates over column `c` top to bottom without allocating (the
    /// lazy twin of [`Matrix::col`]).
    ///
    /// # Panics
    ///
    /// Panics if `c >= self.cols()`.
    pub fn col_iter(&self, c: usize) -> impl Iterator<Item = f32> + '_ {
        assert!(c < self.cols, "col {c} out of bounds for {} cols", self.cols);
        (0..self.rows).map(move |r| self.data[r * self.cols + c])
    }

    /// A borrowed view of the whole matrix (the entry point into the
    /// zero-copy [`crate::MatView`] batch API).
    #[must_use]
    pub fn as_view(&self) -> crate::MatView<'_> {
        crate::MatView::new(self.rows, self.cols, &self.data)
            .expect("matrix buffer length is consistent by construction")
    }

    /// A mutable borrowed view of the whole matrix.
    #[must_use]
    pub fn as_view_mut(&mut self) -> crate::MatViewMut<'_> {
        crate::MatViewMut::new(self.rows, self.cols, &mut self.data)
            .expect("matrix buffer length is consistent by construction")
    }

    /// A zero-copy view of rows `range.start..range.end` (the borrowing
    /// twin of [`Matrix::slice_rows`]).
    ///
    /// # Panics
    ///
    /// Panics if the range end exceeds the number of rows.
    #[must_use]
    pub fn view_rows(&self, range: std::ops::Range<usize>) -> crate::MatView<'_> {
        self.as_view().rows_range(range)
    }

    /// Copies `other` into `self`, reusing the existing allocation when it
    /// is large enough (unlike `clone_from`, which re-allocates through
    /// `clone`).
    pub fn copy_from(&mut self, other: crate::MatView<'_>) {
        (self.rows, self.cols) = other.shape();
        self.data.clear();
        self.data.extend_from_slice(other.as_slice());
    }

    /// Reshapes in place to `rows`×`cols` with every element zeroed,
    /// reusing the existing allocation when it is large enough. This is
    /// how batch pipelines recycle one output buffer across rounds
    /// instead of allocating per call.
    pub fn reset(&mut self, rows: usize, cols: usize) {
        self.rows = rows;
        self.cols = cols;
        self.data.clear();
        self.data.resize(rows * cols, 0.0);
    }

    /// Returns a new matrix containing rows `range.start..range.end`.
    ///
    /// # Panics
    ///
    /// Panics if the range end exceeds the number of rows.
    #[must_use]
    pub fn slice_rows(&self, range: std::ops::Range<usize>) -> Matrix {
        assert!(range.end <= self.rows, "slice_rows range end {} > rows {}", range.end, self.rows);
        let data = self.data[range.start * self.cols..range.end * self.cols].to_vec();
        Matrix { rows: range.len(), cols: self.cols, data }
    }

    /// Returns a new matrix containing the rows selected by `indices`.
    ///
    /// # Panics
    ///
    /// Panics if any index is out of bounds.
    #[must_use]
    pub fn select_rows(&self, indices: &[usize]) -> Matrix {
        let mut data = Vec::with_capacity(indices.len() * self.cols);
        for &i in indices {
            data.extend_from_slice(self.row(i));
        }
        Matrix { rows: indices.len(), cols: self.cols, data }
    }

    /// Returns a new matrix containing the columns selected by `indices`.
    ///
    /// # Panics
    ///
    /// Panics if any index is out of bounds.
    #[must_use]
    pub fn select_cols(&self, indices: &[usize]) -> Matrix {
        for &c in indices {
            assert!(c < self.cols, "select_cols index {c} out of bounds for {} cols", self.cols);
        }
        let mut out = Matrix::zeros(self.rows, indices.len());
        for r in 0..self.rows {
            for (j, &c) in indices.iter().enumerate() {
                out.data[r * indices.len() + j] = self.data[r * self.cols + c];
            }
        }
        out
    }

    // ------------------------------------------------------------------
    // Element-wise operations
    // ------------------------------------------------------------------

    /// Applies `f` to every element, returning a new matrix.
    #[must_use]
    pub fn map(&self, f: impl Fn(f32) -> f32) -> Matrix {
        Matrix { rows: self.rows, cols: self.cols, data: self.data.iter().map(|&v| f(v)).collect() }
    }

    /// Applies `f` to every element in place.
    pub fn map_inplace(&mut self, f: impl Fn(f32) -> f32) {
        for v in &mut self.data {
            *v = f(*v);
        }
    }

    /// Combines two same-shape matrices element-wise with `f`.
    ///
    /// Kept out of line: inlined into `Loss::grad`'s match arms, its loop
    /// ran 1.6× slower, and whether it was inlined flipped with unrelated
    /// edits.
    ///
    /// # Panics
    ///
    /// Panics if shapes differ.
    #[must_use]
    #[inline(never)]
    pub fn zip_map(&self, other: &Matrix, f: impl Fn(f32, f32) -> f32) -> Matrix {
        self.assert_same_shape(other, "zip_map");
        let data = self.data.iter().zip(&other.data).map(|(&a, &b)| f(a, b)).collect();
        Matrix { rows: self.rows, cols: self.cols, data }
    }

    /// Multiplies every element by `s`, returning a new matrix.
    #[must_use]
    pub fn scale(&self, s: f32) -> Matrix {
        self.map(|v| v * s)
    }

    // ------------------------------------------------------------------
    // Matrix products
    // ------------------------------------------------------------------

    /// Matrix product `self * other`: a fresh matrix filled by
    /// [`crate::MatView::matmul_into`], whose body and bit-identity
    /// contract (ascending-`k` accumulation at any thread count) it shares.
    ///
    /// # Panics
    ///
    /// Panics if `self.cols() != other.rows()`.
    #[must_use]
    pub fn matmul(&self, other: &Matrix) -> Matrix {
        let mut out = Matrix::zeros(self.rows, other.cols);
        self.as_view().matmul_into(other.as_view(), out.as_view_mut());
        out
    }

    /// Matrix product `selfᵀ * other` without materializing the transpose:
    /// a fresh matrix filled by [`crate::MatView::t_matmul_into`].
    ///
    /// # Panics
    ///
    /// Panics if `self.rows() != other.rows()`.
    #[must_use]
    pub fn t_matmul(&self, other: &Matrix) -> Matrix {
        let mut out = Matrix::zeros(self.cols, other.cols);
        self.as_view().t_matmul_into(other.as_view(), out.as_view_mut());
        out
    }

    /// Matrix product `self * otherᵀ` without materializing the transpose:
    /// a fresh matrix filled by [`crate::MatView::matmul_t_into`].
    ///
    /// # Panics
    ///
    /// Panics if `self.cols() != other.cols()`.
    #[must_use]
    pub fn matmul_t(&self, other: &Matrix) -> Matrix {
        let mut out = Matrix::zeros(self.rows, other.rows);
        self.as_view().matmul_t_into(other.as_view(), out.as_view_mut());
        out
    }

    /// Matrix–vector product `self * v`: a fresh vector filled by
    /// `crate::MatView::matvec_into`.
    ///
    /// # Panics
    ///
    /// Panics if `v.len() != self.cols()`.
    #[must_use]
    pub fn matvec(&self, v: &[f32]) -> Vec<f32> {
        assert_eq!(v.len(), self.cols, "matvec: vector length {} != cols {}", v.len(), self.cols);
        let mut out = vec![0.0; self.rows];
        self.as_view().matvec_into(v, &mut out);
        out
    }

    /// Dot product of two equally-shaped matrices viewed as flat vectors.
    ///
    /// # Panics
    ///
    /// Panics if shapes differ.
    #[must_use]
    pub fn dot(&self, other: &Matrix) -> f32 {
        self.assert_same_shape(other, "dot");
        self.data.iter().zip(&other.data).map(|(a, b)| a * b).sum()
    }

    // ------------------------------------------------------------------
    // Structural operations
    // ------------------------------------------------------------------

    /// Returns the transpose as a new matrix.
    #[must_use]
    pub fn transpose(&self) -> Matrix {
        let mut out = Matrix::zeros(self.cols, self.rows);
        for r in 0..self.rows {
            for c in 0..self.cols {
                out.data[c * self.rows + r] = self.data[r * self.cols + c];
            }
        }
        out
    }

    /// `out = self · v` into a caller-owned buffer; see
    /// `crate::MatView::matvec_into`.
    ///
    /// # Panics
    ///
    /// Panics if `v.len() != self.cols()` or `out.len() != self.rows()`.
    pub fn matvec_into(&self, v: &[f32], out: &mut [f32]) {
        self.as_view().matvec_into(v, out);
    }

    /// `out = selfᵀ · v` without materializing the transpose; see
    /// `crate::MatView::t_matvec_into`.
    ///
    /// # Panics
    ///
    /// Panics if `v.len() != self.rows()` or `out.len() != self.cols()`.
    pub fn t_matvec_into(&self, v: &[f32], out: &mut [f32]) {
        self.as_view().t_matvec_into(v, out);
    }

    /// Stacks `self` on top of `other`.
    ///
    /// # Panics
    ///
    /// Panics if column counts differ.
    #[must_use]
    pub fn vstack(&self, other: &Matrix) -> Matrix {
        assert_eq!(self.cols, other.cols, "vstack: col mismatch {} vs {}", self.cols, other.cols);
        let mut data = Vec::with_capacity(self.data.len() + other.data.len());
        data.extend_from_slice(&self.data);
        data.extend_from_slice(&other.data);
        Matrix { rows: self.rows + other.rows, cols: self.cols, data }
    }

    // ------------------------------------------------------------------
    // Reductions
    // ------------------------------------------------------------------

    /// Sums over rows, producing a length-`cols` vector.
    #[must_use]
    pub fn col_sums(&self) -> Vec<f32> {
        let mut sums = vec![0.0f32; self.cols];
        for row in self.iter_rows() {
            for (s, &v) in sums.iter_mut().zip(row) {
                *s += v;
            }
        }
        sums
    }

    /// Sums over columns, producing a length-`rows` vector.
    #[must_use]
    pub fn row_sums(&self) -> Vec<f32> {
        self.iter_rows().map(|r| r.iter().sum()).collect()
    }

    /// Sum of all elements.
    #[must_use]
    pub fn sum(&self) -> f32 {
        self.data.iter().sum()
    }

    /// Mean of all elements (0 for an empty matrix).
    #[must_use]
    pub fn mean(&self) -> f32 {
        if self.data.is_empty() {
            0.0
        } else {
            self.sum() / self.data.len() as f32
        }
    }

    /// Minimum element (`+inf` for an empty matrix); NaN elements are
    /// ignored, as by `f32::min`.
    ///
    /// The `f32` folds in this workspace are compare-select, not
    /// `f32::min` / `f32::max`: rustc 1.95 under `+avx`, optimising (the
    /// dev profile's opt-level 2 as well as release), drops the tail of the
    /// vectorised `maxnum` reduction it makes of such a fold over a slice
    /// whose length is known at compile time.
    #[must_use]
    pub fn min(&self) -> f32 {
        self.data.iter().fold(f32::INFINITY, |m, &v| if v < m { v } else { m })
    }

    /// Maximum element (`-inf` for an empty matrix); NaN elements are
    /// ignored, as by `f32::max`. Compare-select, like [`Matrix::min`].
    #[must_use]
    pub fn max(&self) -> f32 {
        self.data.iter().fold(f32::NEG_INFINITY, |m, &v| if v > m { v } else { m })
    }

    /// L1 norm (sum of absolute values).
    #[must_use]
    pub fn norm_l1(&self) -> f32 {
        self.data.iter().map(|v| v.abs()).sum()
    }

    /// L2 (Frobenius) norm.
    #[must_use]
    pub fn norm_l2(&self) -> f32 {
        self.data.iter().map(|v| v * v).sum::<f32>().sqrt()
    }

    /// Index of the maximum element in each row.
    ///
    /// Ties resolve to the first maximum; an empty row yields index 0.
    #[must_use]
    pub fn argmax_rows(&self) -> Vec<usize> {
        self.iter_rows()
            .map(|row| {
                row.iter()
                    .enumerate()
                    .fold(
                        (0usize, f32::NEG_INFINITY),
                        |(bi, bv), (i, &v)| {
                            if v > bv {
                                (i, v)
                            } else {
                                (bi, bv)
                            }
                        },
                    )
                    .0
            })
            .collect()
    }

    // ------------------------------------------------------------------
    // Comparison helpers
    // ------------------------------------------------------------------

    /// Whether `self` and `other` agree element-wise within `tol`.
    #[must_use]
    pub fn approx_eq(&self, other: &Matrix, tol: f32) -> bool {
        self.shape() == other.shape()
            && self.data.iter().zip(&other.data).all(|(a, b)| (a - b).abs() <= tol)
    }

    /// Maximum absolute element-wise difference (compare-select, like
    /// [`Matrix::min`]).
    ///
    /// # Panics
    ///
    /// Panics if shapes differ.
    #[must_use]
    pub fn max_abs_diff(&self, other: &Matrix) -> f32 {
        self.assert_same_shape(other, "max_abs_diff");
        let diffs = self.data.iter().zip(&other.data).map(|(a, b)| (a - b).abs());
        diffs.fold(0.0, |m, d| if d > m { d } else { m })
    }

    fn assert_same_shape(&self, other: &Matrix, op: &str) {
        assert!(
            self.shape() == other.shape(),
            "{op}: shape mismatch {}x{} vs {}x{}",
            self.rows,
            self.cols,
            other.rows,
            other.cols
        );
    }
}

impl Index<(usize, usize)> for Matrix {
    type Output = f32;

    fn index(&self, (r, c): (usize, usize)) -> &f32 {
        assert!(
            r < self.rows && c < self.cols,
            "index ({r},{c}) out of bounds for {}x{}",
            self.rows,
            self.cols
        );
        &self.data[r * self.cols + c]
    }
}

impl IndexMut<(usize, usize)> for Matrix {
    fn index_mut(&mut self, (r, c): (usize, usize)) -> &mut f32 {
        assert!(
            r < self.rows && c < self.cols,
            "index ({r},{c}) out of bounds for {}x{}",
            self.rows,
            self.cols
        );
        &mut self.data[r * self.cols + c]
    }
}

impl Add for &Matrix {
    type Output = Matrix;

    fn add(self, rhs: &Matrix) -> Matrix {
        self.zip_map(rhs, |a, b| a + b)
    }
}

impl Sub for &Matrix {
    type Output = Matrix;

    fn sub(self, rhs: &Matrix) -> Matrix {
        self.zip_map(rhs, |a, b| a - b)
    }
}

impl Mul<f32> for &Matrix {
    type Output = Matrix;

    fn mul(self, rhs: f32) -> Matrix {
        self.scale(rhs)
    }
}

impl Neg for &Matrix {
    type Output = Matrix;

    fn neg(self) -> Matrix {
        self.scale(-1.0)
    }
}

impl AddAssign<&Matrix> for Matrix {
    fn add_assign(&mut self, rhs: &Matrix) {
        self.assert_same_shape(rhs, "add_assign");
        for (a, &b) in self.data.iter_mut().zip(&rhs.data) {
            *a += b;
        }
    }
}

impl SubAssign<&Matrix> for Matrix {
    fn sub_assign(&mut self, rhs: &Matrix) {
        self.assert_same_shape(rhs, "sub_assign");
        for (a, &b) in self.data.iter_mut().zip(&rhs.data) {
            *a -= b;
        }
    }
}

impl MulAssign<f32> for Matrix {
    fn mul_assign(&mut self, rhs: f32) {
        self.map_inplace(|v| v * rhs);
    }
}

impl fmt::Display for Matrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Matrix {}x{} [", self.rows, self.cols)?;
        const MAX_SHOW: usize = 8;
        for (i, row) in self.iter_rows().enumerate().take(MAX_SHOW) {
            write!(f, "  [")?;
            for (j, v) in row.iter().enumerate().take(MAX_SHOW) {
                if j > 0 {
                    write!(f, ", ")?;
                }
                write!(f, "{v:8.4}")?;
            }
            if self.cols > MAX_SHOW {
                write!(f, ", …")?;
            }
            writeln!(f, "]")?;
            if i + 1 == MAX_SHOW && self.rows > MAX_SHOW {
                writeln!(f, "  …")?;
            }
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Matrix {
        Matrix::from_vec(2, 3, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]).unwrap()
    }

    #[test]
    fn zeros_ones_filled() {
        assert!(Matrix::zeros(2, 2).as_slice().iter().all(|&v| v == 0.0));
        assert!(Matrix::ones(2, 2).as_slice().iter().all(|&v| v == 1.0));
        assert!(Matrix::filled(3, 1, 7.5).as_slice().iter().all(|&v| v == 7.5));
    }

    #[test]
    fn from_vec_rejects_bad_length() {
        let err = Matrix::from_vec(2, 3, vec![0.0; 5]).unwrap_err();
        assert_eq!(err, TensorError::LengthMismatch { expected: 6, actual: 5 });
    }

    #[test]
    fn from_fn_layout_is_row_major() {
        let m = Matrix::from_fn(2, 3, |r, c| (r * 10 + c) as f32);
        assert_eq!(m.as_slice(), &[0.0, 1.0, 2.0, 10.0, 11.0, 12.0]);
    }

    #[test]
    fn identity_multiplication_is_neutral() {
        let m = sample();
        let left = Matrix::identity(2).matmul(&m);
        let right = m.matmul(&Matrix::identity(3));
        assert_eq!(left, m);
        assert_eq!(right, m);
    }

    #[test]
    fn matmul_known_values() {
        let a = sample();
        let b = Matrix::from_vec(3, 2, vec![7.0, 8.0, 9.0, 10.0, 11.0, 12.0]).unwrap();
        let c = a.matmul(&b);
        assert_eq!(c.as_slice(), &[58.0, 64.0, 139.0, 154.0]);
    }

    #[test]
    #[should_panic(expected = "shape mismatch")]
    fn matmul_panics_on_mismatch() {
        let _ = sample().matmul(&sample());
    }

    #[test]
    fn t_matmul_matches_explicit_transpose() {
        let a = sample();
        let b = Matrix::from_vec(2, 4, (0..8).map(|v| v as f32).collect()).unwrap();
        assert!(a.t_matmul(&b).approx_eq(&a.transpose().matmul(&b), 1e-6));
    }

    #[test]
    fn matmul_t_matches_explicit_transpose() {
        let a = sample();
        let b = Matrix::from_vec(4, 3, (0..12).map(|v| v as f32).collect()).unwrap();
        assert!(a.matmul_t(&b).approx_eq(&a.matmul(&b.transpose()), 1e-6));
    }

    #[test]
    fn matvec_matches_matmul() {
        let a = sample();
        let v = vec![1.0, -1.0, 2.0];
        let expected = a.matmul(&Matrix::col_vector(&v));
        assert_eq!(a.matvec(&v), expected.as_slice());
    }

    #[test]
    fn transpose_involution() {
        let m = sample();
        assert_eq!(m.transpose().transpose(), m);
    }

    #[test]
    fn stack_operations() {
        let a = sample();
        let v = a.vstack(&a);
        assert_eq!(v.shape(), (4, 3));
        assert_eq!(v.row(2), a.row(0));
    }

    #[test]
    fn broadcasting_and_reductions() {
        let m = sample();
        assert_eq!(m.col_sums(), vec![5.0, 7.0, 9.0]);
        assert_eq!(m.row_sums(), vec![6.0, 15.0]);
        assert_eq!(m.sum(), 21.0);
        assert!((m.mean() - 3.5).abs() < 1e-6);
        assert_eq!(m.min(), 1.0);
        assert_eq!(m.max(), 6.0);
    }

    #[test]
    fn norms() {
        let m = Matrix::from_vec(1, 2, vec![3.0, -4.0]).unwrap();
        assert_eq!(m.norm_l1(), 7.0);
        assert_eq!(m.norm_l2(), 5.0);
    }

    #[test]
    fn argmax_rows_picks_first_max() {
        let m = Matrix::from_vec(2, 3, vec![1.0, 3.0, 3.0, -1.0, -5.0, -2.0]).unwrap();
        assert_eq!(m.argmax_rows(), vec![1, 0]);
    }

    #[test]
    fn select_rows_and_cols() {
        let m = sample();
        let r = m.select_rows(&[1, 0, 1]);
        assert_eq!(r.shape(), (3, 3));
        assert_eq!(r.row(0), m.row(1));
        let c = m.select_cols(&[2, 0]);
        assert_eq!(c.as_slice(), &[3.0, 1.0, 6.0, 4.0]);
    }

    #[test]
    fn operators() {
        let m = sample();
        let sum = &m + &m;
        assert_eq!(sum, m.scale(2.0));
        let diff = &sum - &m;
        assert_eq!(diff, m);
        let neg = -&m;
        assert_eq!(neg, m.scale(-1.0));
        let mut acc = m.clone();
        acc += &m;
        acc -= &m;
        acc *= 3.0;
        assert_eq!(acc, m.scale(3.0));
    }

    #[test]
    fn dot_sums_elementwise_products() {
        let m = sample();
        assert_eq!(m.dot(&m), 91.0);
    }

    #[test]
    fn reset_and_copy_from_reuse_buffers() {
        let mut m = sample();
        let cap_before = m.as_slice().len();
        m.reset(1, 2);
        assert_eq!(m.shape(), (1, 2));
        assert!(m.as_slice().iter().all(|&v| v == 0.0));
        assert!(cap_before >= m.len());
        m.copy_from(sample().as_view());
        assert_eq!(m, sample());
    }

    #[test]
    fn display_does_not_panic_on_large() {
        let big = Matrix::zeros(20, 20);
        let s = format!("{big}");
        assert!(s.contains("Matrix 20x20"));
        assert!(s.contains('…'));
    }

    #[test]
    fn get_set_and_index() {
        let mut m = sample();
        assert_eq!(m.get(1, 2), Some(6.0));
        assert_eq!(m.get(2, 0), None);
        m.set(0, 1, 9.0);
        assert_eq!(m[(0, 1)], 9.0);
        m[(0, 1)] = 10.0;
        assert_eq!(m.get(0, 1), Some(10.0));
    }

    #[test]
    fn approx_eq_and_max_abs_diff() {
        let m = sample();
        let mut n = m.clone();
        n.set(1, 1, 5.001);
        assert!(m.approx_eq(&n, 0.01));
        assert!(!m.approx_eq(&n, 0.0001));
        assert!((m.max_abs_diff(&n) - 0.001).abs() < 1e-4);
    }

    /// `max`, `min` and `max_abs_diff` of a `1 × N` matrix built from an
    /// `[f32; N]` — a length the optimiser knows, as in the test above —
    /// with the extremum at each position in turn.
    fn check_folds_of_length<const N: usize>() {
        let ones = Matrix::from_vec(1, N, [1.0; N].to_vec()).unwrap();
        for at in 0..N {
            let (mut hi, mut lo) = ([1.0f32; N], [1.0f32; N]);
            (hi[at], lo[at]) = (5.5, -5.5);
            let hi = Matrix::from_vec(1, N, hi.to_vec()).unwrap();
            let lo = Matrix::from_vec(1, N, lo.to_vec()).unwrap();
            assert_eq!(hi.max(), 5.5, "max, length {N}, extremum at {at}");
            assert_eq!(lo.min(), -5.5, "min, length {N}, extremum at {at}");
            assert_eq!(hi.max_abs_diff(&ones), 4.5, "max_abs_diff, length {N}, at {at}");
            assert_eq!(ones.max_abs_diff(&lo), 6.5, "max_abs_diff, length {N}, at {at}");
        }
    }

    #[test]
    fn folds_see_every_element_at_every_fixed_length() {
        macro_rules! lengths {
            ($($n:literal)*) => { $(check_folds_of_length::<$n>();)* };
        }
        lengths!(1 2 3 4 5 6 7 8 9 10 11 12 13 14 15 16 17);
    }
}
