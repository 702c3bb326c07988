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
//! [`MatView::t_matmul_into`], [`MatView::matmul_t_into`] and its
//! pre-packed twin [`MatView::matmul_panels_into`],
//! [`MatView::matvec_into`], [`MatView::t_matvec_into`]) are the one
//! body of each product: the
//! allocating [`Matrix`] products are a fresh matrix plus one call of
//! them, so results are bit-identical to the owning API at any thread
//! count, while the output lands in a buffer the caller reuses across
//! batches.
//!
//! What the kernels promise is a **summation order**, not a loop nest:
//! every output element is one `f32` accumulator that starts at `+0.0`
//! and takes its terms in ascending `k`, each term one step `acc + a·b`
//! — one fused multiply-add where the build has FMA (`x86-64-v3`,
//! `.cargo/config.toml`), a multiply then an add where it has not. In
//! `matmul` and `t_matmul`, a term whose left factor is zero and whose
//! right factor is ±inf or NaN contributes nothing (a zero weight never
//! turns an output NaN); `matmul_t` (the `x·Wᵀ` of every dense layer)
//! takes every term. Tile and panel sizes may be retuned freely; the
//! per-element order, the step and the zero rule may not — the unit tests
//! hold all three products bitwise to scalar oracles that spell this out.
//!
//! All three are one register-blocked micro-kernel under one driver
//! (Goto & van de Geijn's GEMM):
//!
//! - **The register tile.** A tile of `out` — 4 rows × 16 columns under
//!   AVX2, 2 × 16 under SSE2, 8 vector registers either way — is held in
//!   a local accumulator array for a whole `k` panel. Each `kk` loads one
//!   row of `B` and broadcasts one value of `a` per tile row against it,
//!   so the accumulators never touch memory inside the panel. A tile of
//!   fewer rows spans more columns, keeping as many independent chains.
//! - **The packed panel.** `B` is copied, one tile wide and up to 256
//!   rows deep, into a stack panel every row tile of the thread's block
//!   then reads from L1 — by row segments for `matmul` / `t_matmul`, by
//!   transposed gather for `matmul_t`. A block of one row tile (4 rows
//!   or fewer under AVX2) would read a panel once, so it reads a
//!   row-major `B` where it lies. The gather is the costly pack: it
//!   visits `Bᵀ` one column at a time, whatever the batch, so a one-row
//!   `784 → 128` product spends most of its time on it. A `Bᵀ` that many
//!   products read unchanged — a served layer's weight — is gathered
//!   once into [`Panels`], whose panels [`MatView::matmul_panels_into`]
//!   borrows instead of packing: the same micro-kernel over the same
//!   panel bytes, so the same bits as `matmul_t`.
//! - **Stored, not accumulated.** A tile starts its first panel at `+0.0`,
//!   reloads what it stored before a later one, and stores its result:
//!   `out` is written, never added to, so nobody zeroes it first (a `k = 0`
//!   product writes `+0.0`). A `k = 1` product is an outer product, each
//!   output one step from `+0.0`: it is written row by row, with no panel.
//! - **One step, chosen by the build.** The step is `madd`: `a.mul_add(b,
//!   acc)` under `target_feature = "fma"`, `acc + a * b` otherwise (rustc
//!   never contracts the latter into an FMA, and without the feature
//!   `mul_add` is a libm call per term). So the `x86-64-v3` build and an
//!   SSE2 one round differently; each is bit-identical to its own oracles
//!   at any thread count.
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

use std::ops::Range;

use crate::error::TensorError;
use crate::matrix::Matrix;

/// Columns of one strip: two vectors of the target, i.e. 16 under AVX2
/// (`x86-64-v3`, what `.cargo/config.toml` builds x86-64 for) and 8 under
/// SSE2. A property of the build, not an option.
const GEMM_COL_TILE: usize = if cfg!(target_feature = "avx2") { 16 } else { 8 };

/// Strip rows of accumulators in a full register tile: 8 vector registers
/// under AVX2 and SSE2 alike.
const GEMM_TILE_STRIPS: usize = 4;

/// Rows of `out` in a full register tile, which spans `GEMM_TILE_STRIPS /
/// GEMM_ROW_TILE` strips: each `kk` broadcasts this many values of `a`. 4
/// under AVX2, whose broadcast is a load; 2 under SSE2, whose broadcast is a
/// load and a shuffle, so its 2-row, 2-strip tile pays half the shuffles for
/// the same accumulators. A property of the build, like [`GEMM_COL_TILE`].
const GEMM_ROW_TILE: usize = if cfg!(target_feature = "avx2") { 4 } else { 2 };

/// Strips in one packed panel of `B`: one full tile wide (16 columns in
/// both builds).
const GEMM_PANEL_STRIPS: usize = GEMM_TILE_STRIPS / GEMM_ROW_TILE;

/// Depth (`k` extent) of one packed panel: `GEMM_PANEL_K × 16` floats on
/// the stack (16 KB), which stays in L1 while every row tile of the block
/// streams past it.
const GEMM_PANEL_K: usize = 256;

/// Minimum rows a worker thread must own before the GEMM kernels
/// parallelize; below this the spawn overhead dominates.
const GEMM_MIN_ROWS_PER_THREAD: usize = 8;

// ----------------------------------------------------------------------
// Kernels
// ----------------------------------------------------------------------

/// One step of every product's sum, `acc + a·b`: one fused multiply-add
/// (one rounding) where the build has FMA, a multiply and an add (two)
/// where it has not. A property of the build, like [`GEMM_COL_TILE`].
#[inline(always)]
fn madd(acc: f32, a: f32, b: f32) -> f32 {
    if cfg!(target_feature = "fma") {
        a.mul_add(b, acc)
    } else {
        acc + a * b
    }
}

/// The step of `matmul` / `t_matmul` under their zero rule: a zero `a`
/// against a non-finite `b` contributes nothing.
#[inline(always)]
fn madd_zero_rule(acc: f32, a: f32, b: f32) -> f32 {
    if a == 0.0 && !b.is_finite() {
        acc
    } else {
        madd(acc, a, b)
    }
}

/// One row of one strip: of a register tile, or of a panel of `B`.
type TileRow = [f32; GEMM_COL_TILE];

/// One `kk` of a packed panel of `B`.
type PanelRow = [TileRow; GEMM_PANEL_STRIPS];

/// One `kk` of `B` read in place: `GEMM_TILE_STRIPS` strips.
type WideRow = [TileRow; GEMM_TILE_STRIPS];

/// The left factor as the micro-kernel reads it: the `R` values row tile
/// `i0..i0 + R` broadcasts at each `kk` of the panel `k0..k0 + kb`.
trait Lhs: Copy + Sync {
    fn panel<const R: usize>(
        self,
        i0: usize,
        k0: usize,
        kb: usize,
    ) -> impl Iterator<Item = [f32; R]>;
}

/// `a` is `m × k`: a tile broadcasts one value of each of its rows
/// (`matmul`, `matmul_t`).
#[derive(Clone, Copy)]
struct ByRow<'a> {
    a: &'a [f32],
    k: usize,
}

impl Lhs for ByRow<'_> {
    fn panel<const R: usize>(
        self,
        i0: usize,
        k0: usize,
        kb: usize,
    ) -> impl Iterator<Item = [f32; R]> {
        let rows: [&[f32]; R] = std::array::from_fn(|r| &self.a[(i0 + r) * self.k + k0..][..kb]);
        (0..kb).map(move |kk| rows.map(|row| row[kk]))
    }
}

/// `a` is `k × m`: a tile's `R` values at one `kk` are contiguous,
/// `a[kk·m + i0..][..R]` (`t_matmul`).
#[derive(Clone, Copy)]
struct ByCol<'a> {
    a: &'a [f32],
    m: usize,
}

impl Lhs for ByCol<'_> {
    fn panel<const R: usize>(
        self,
        i0: usize,
        k0: usize,
        kb: usize,
    ) -> impl Iterator<Item = [f32; R]> {
        let (a, m) = (self.a, self.m);
        (k0..k0 + kb).map(move |kk| *a[kk * m + i0..].first_chunk().expect("tile inside a"))
    }
}

/// The micro-kernel: `R` rows × `C` strips of `out` (`o` starts at the
/// tile's first element, rows `n` apart, `nb` valid columns) over one panel
/// — at each `kk`, the `R` broadcast values of `a` from `avs` against the
/// `C` strip rows of `B` from `bvs`. The tile is held in `acc`, `V = R · C`
/// strip rows (cell `v` is row `v / C`, strip `v % C`) indexed only by
/// constants, so it lives in registers for the whole panel: the first panel
/// starts every accumulator at `+0.0`, a later one (`reload`) resumes from
/// what the panel before it stored. `ZERO_RULE` applies the zero rule on the
/// rows whose value of `a` is zero. The finished tile is stored, never
/// added.
#[inline(never)]
fn row_tile<'p, const R: usize, const C: usize, const V: usize, const ZERO_RULE: bool>(
    avs: impl Iterator<Item = [f32; R]>,
    bvs: impl Iterator<Item = &'p [TileRow; C]>,
    reload: bool,
    o: &mut [f32],
    n: usize,
    nb: usize,
) {
    const { assert!(R * C == V) };
    // Where cell `v` lives in `o`, and how many of its columns are valid.
    let cell = |v: usize| {
        let strip = v % C;
        ((v / C) * n + strip * GEMM_COL_TILE, nb.saturating_sub(strip * GEMM_COL_TILE))
    };
    let mut acc = [[0.0; GEMM_COL_TILE]; V];
    if reload {
        for (v, acc_row) in acc.iter_mut().enumerate() {
            let (at, width) = cell(v);
            if width > 0 {
                *acc_row = load_row(&o[at..], width.min(GEMM_COL_TILE));
            }
        }
    }
    for (av, bv) in avs.zip(bvs) {
        for (v, acc_row) in acc.iter_mut().enumerate() {
            let (a, b_row) = (av[v / C], &bv[v % C]);
            if ZERO_RULE && a == 0.0 {
                for (x, &b) in acc_row.iter_mut().zip(b_row) {
                    *x = madd_zero_rule(*x, a, b);
                }
            } else {
                for (x, &b) in acc_row.iter_mut().zip(b_row) {
                    *x = madd(*x, a, b);
                }
            }
        }
    }
    for (v, acc_row) in acc.into_iter().enumerate() {
        let (at, width) = cell(v);
        if width > 0 {
            store_row(&mut o[at..], width.min(GEMM_COL_TILE), acc_row);
        }
    }
}

/// The first `nb` values of `src` as a strip row, zero-padded: a
/// fixed-size copy when the row is whole, so nothing calls `memcpy` and a
/// tile it loads stays in registers.
#[inline(always)]
fn load_row(src: &[f32], nb: usize) -> TileRow {
    match src.first_chunk() {
        Some(&full) if nb == GEMM_COL_TILE => full,
        _ => {
            let mut row = [0.0; GEMM_COL_TILE];
            row[..nb].copy_from_slice(&src[..nb]);
            row
        }
    }
}

/// Writes the first `nb` values of `row` to `dst`, like [`load_row`].
#[inline(always)]
fn store_row(dst: &mut [f32], nb: usize, row: TileRow) {
    match dst.first_chunk_mut() {
        Some(full) if nb == GEMM_COL_TILE => *full = row,
        _ => dst[..nb].copy_from_slice(&row[..nb]),
    }
}

/// Columns of `B` in one packed panel.
const PANEL_WIDTH: usize = GEMM_PANEL_STRIPS * GEMM_COL_TILE;

/// The right factor as the driver reads it.
#[derive(Clone, Copy)]
enum Rhs<'a> {
    /// `b` is `k × n`, row-major (`matmul`, `t_matmul`): a panel row is a
    /// copy of a row segment — and a block of one row tile, which would
    /// read a packed panel once, reads `b` where it lies.
    Rows { b: &'a [f32], n: usize },
    /// `b` is `n × k`, row-major, i.e. `Bᵀ` (`matmul_t`): packed by
    /// transposed gather, panel column `jj` a segment of row `j0 + jj`.
    Cols { b: &'a [f32], k: usize },
    /// `Bᵀ` gathered beforehand, every panel as `Cols` packs it
    /// (`matmul_panels`): packing is a borrow.
    Packed(&'a Panels),
}

impl<'a> Rhs<'a> {
    /// The one row of a `1 × n` `B`, where it lies: `Bᵀ` is then a column,
    /// and one row's panels hold it in column order.
    fn only_row(self, n: usize) -> &'a [f32] {
        match self {
            Rhs::Rows { b, .. } | Rhs::Cols { b, .. } => &b[..n],
            Rhs::Packed(panels) => &panels.rows.as_flattened().as_flattened()[..n],
        }
    }

    /// Row `k0 + kk`, columns `cols` of `B`, zero-padded, as `panel[kk]`
    /// for every `kk < panel.len()`: written into the caller's `panel`, or
    /// borrowed where [`Panels`] holds it.
    fn pack<'p>(self, panel: &'p mut [PanelRow], k0: usize, cols: Range<usize>) -> &'p [PanelRow]
    where
        'a: 'p,
    {
        let nb = cols.len();
        match self {
            Rhs::Rows { b, n } => {
                for (kk, panel_row) in panel.iter_mut().enumerate() {
                    let (dst, src) =
                        (panel_row.as_flattened_mut(), &b[(k0 + kk) * n + cols.start..]);
                    match src.first_chunk::<PANEL_WIDTH>() {
                        Some(whole) if nb == dst.len() => dst.copy_from_slice(whole),
                        _ => {
                            dst[..nb].copy_from_slice(&src[..nb]);
                            dst[nb..].fill(0.0);
                        }
                    }
                }
            }
            Rhs::Cols { b, k } => {
                if nb < PANEL_WIDTH {
                    panel.fill([[0.0; GEMM_COL_TILE]; GEMM_PANEL_STRIPS]);
                }
                let kb = panel.len();
                for (jj, j) in cols.enumerate() {
                    let (strip, lane) = (jj / GEMM_COL_TILE, jj % GEMM_COL_TILE);
                    for (panel_row, &v) in panel.iter_mut().zip(&b[j * k + k0..][..kb]) {
                        panel_row[strip][lane] = v;
                    }
                }
            }
            Rhs::Packed(panels) => return panels.panel(k0, panel.len(), cols.start),
        }
        panel
    }
}

/// A right factor packed once for any number of products: `Bᵀ` (`n × k`,
/// row-major, e.g. a dense layer's `(out, in)` weight) in the GEMM
/// driver's panel layout, gathered by the same body
/// [`MatView::matmul_t_into`] runs on every call.
/// [`MatView::matmul_panels_into`] reads it in place, so a product over
/// it skips the gather and is bit-identical to `matmul_t_into` over the
/// `Bᵀ` it was packed from, at any thread count.
///
/// The panels of each `GEMM_PANEL_K` rows of `B` lie together, in column
/// order, each as deep as those rows and zero-padded to a whole panel's
/// width.
///
/// ```
/// use orco_tensor::{Matrix, Panels};
///
/// let w = Matrix::from_fn(5, 3, |r, c| (r * 3 + c) as f32); // (out, in)
/// let panels = Panels::new(w.as_view());
/// let x = Matrix::from_fn(2, 3, |r, c| (r + c) as f32 * 0.5);
/// let mut out = Matrix::zeros(2, 5);
/// x.as_view().matmul_panels_into(&panels, out.as_view_mut());
/// assert_eq!(out, x.matmul_t(&w));
/// ```
#[derive(Clone, Default)]
pub struct Panels {
    k: usize,
    n: usize,
    rows: Vec<PanelRow>,
}

impl std::fmt::Debug for Panels {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Panels").field("k", &self.k).field("n", &self.n).finish_non_exhaustive()
    }
}

impl Panels {
    /// `bt`'s panels: `B = btᵀ`, so `bt` is `n × k`.
    #[must_use]
    pub fn new(bt: MatView<'_>) -> Self {
        let mut panels = Self::default();
        panels.repack(bt);
        panels
    }

    /// Packs `bt` in place of what these panels held, reusing their
    /// buffer.
    pub fn repack(&mut self, bt: MatView<'_>) {
        let (n, k) = bt.shape();
        let per_row = n.div_ceil(PANEL_WIDTH);
        self.rows.resize(k * per_row, [[0.0; GEMM_COL_TILE]; GEMM_PANEL_STRIPS]);
        (self.k, self.n) = (k, n);
        let gather = Rhs::Cols { b: bt.data, k };
        for k0 in (0..k).step_by(GEMM_PANEL_K) {
            let kb = GEMM_PANEL_K.min(k - k0);
            for j0 in (0..n).step_by(PANEL_WIDTH) {
                let at = self.offset(k0, kb, j0);
                gather.pack(&mut self.rows[at..at + kb], k0, j0..n.min(j0 + PANEL_WIDTH));
            }
        }
    }

    /// `(k, n)`: the shape of `B`, i.e. `bt` transposed.
    #[must_use]
    pub fn shape(&self) -> (usize, usize) {
        (self.k, self.n)
    }

    /// Where the panel of rows `k0..k0 + kb` and columns from `j0` starts:
    /// every earlier block of rows holds `k0` rows of panels in all.
    fn offset(&self, k0: usize, kb: usize, j0: usize) -> usize {
        k0 * self.n.div_ceil(PANEL_WIDTH) + j0 / PANEL_WIDTH * kb
    }

    /// The packed panel of rows `k0..k0 + kb`, columns from `j0`.
    fn panel(&self, k0: usize, kb: usize, j0: usize) -> &[PanelRow] {
        let at = self.offset(k0, kb, j0);
        &self.rows[at..at + kb]
    }
}

/// The one GEMM driver: `out[m×n]` (row-major, `m = out.len() / n`) is
/// written, not accumulated into, as the product of `lhs` (`m × k`) and
/// `rhs` (`k × n`).
///
/// Row-parallel over [`crate::parallel::for_each_row_block`]; inside a
/// block, per `GEMM_PANEL_K` rows of `B` (`k` ascending): one packed panel
/// per full tile's width of columns — packed into the block's stack
/// buffer, or borrowed from [`Panels`] — and every row tile of the block
/// over it ([`packed_tiles`]). A block of one row tile takes a row-major `B` in
/// place instead, `GEMM_TILE_STRIPS` strips at a time ([`in_place_tile`]),
/// and packs only the columns left over. A `k = 1` product, an outer
/// product, is one step per output ([`outer`]).
fn gemm<const ZERO_RULE: bool>(lhs: impl Lhs, rhs: Rhs<'_>, k: usize, n: usize, out: &mut [f32]) {
    const WIDE: usize = GEMM_TILE_STRIPS * GEMM_COL_TILE;
    if k == 0 {
        // An empty sum: the one product with no panel to store it.
        out.fill(0.0);
        return;
    }
    if n == 0 {
        return;
    }
    if k == 1 {
        outer::<ZERO_RULE>(lhs, rhs.only_row(n), out);
        return;
    }
    crate::parallel::for_each_row_block(out, n, GEMM_MIN_ROWS_PER_THREAD, |first_row, block| {
        let rows = block.len() / n;
        let in_place = match rhs {
            Rhs::Rows { b, .. } if rows <= GEMM_ROW_TILE => Some(b),
            _ => None,
        };
        let packed_from = if in_place.is_some() { n - n % WIDE } else { 0 };
        let mut panel = [[[0.0; GEMM_COL_TILE]; GEMM_PANEL_STRIPS]; GEMM_PANEL_K];
        for k0 in (0..k).step_by(GEMM_PANEL_K) {
            let kb = GEMM_PANEL_K.min(k - k0);
            if let Some(b) = in_place {
                for j0 in (0..packed_from).step_by(WIDE) {
                    let b_row = move |kk: usize| {
                        let (strips, _) = b[(k0 + kk) * n + j0..].as_chunks();
                        strips.first_chunk::<GEMM_TILE_STRIPS>().expect("whole strips")
                    };
                    in_place_tile::<ZERO_RULE>(lhs, b_row, kb, first_row, &mut block[j0..], n, k0);
                }
            }
            for j0 in (packed_from..n).step_by(PANEL_WIDTH) {
                let cols = j0..n.min(j0 + PANEL_WIDTH);
                let (o, nb) = (&mut block[j0..], cols.len());
                let panel = rhs.pack(&mut panel[..kb], k0, cols);
                // The zero rule drops only a term whose `b` is ±inf or NaN,
                // so a finite panel takes every term, and only a panel that
                // holds a non-finite value takes the rule's per-row branches.
                if ZERO_RULE && has_non_finite(panel) {
                    packed_tiles::<true>(lhs, panel, first_row, o, n, k0, nb);
                } else {
                    packed_tiles::<false>(lhs, panel, first_row, o, n, k0, nb);
                }
            }
        }
    });
}

/// Every row tile of a block (`first_row` its first row of `out`, `o` its
/// elements from the panel's first column on) over one packed panel of
/// `nb` valid columns, the panel's rows starting at `k0`: `GEMM_ROW_TILE`
/// rows at a time, then the remainder rows as one tile — no padding row is
/// ever computed.
fn packed_tiles<const ZERO_RULE: bool>(
    lhs: impl Lhs,
    panel: &[PanelRow],
    first_row: usize,
    o: &mut [f32],
    n: usize,
    k0: usize,
    nb: usize,
) {
    // `o` starts inside the block's first row.
    let rows = o.len().div_ceil(n);
    for i in (0..rows).step_by(GEMM_ROW_TILE) {
        let (i0, o) = (first_row + i, &mut o[i * n..]);
        macro_rules! tile {
            ($r:literal) => {{
                let avs = lhs.panel::<$r>(i0, k0, panel.len());
                let bvs = panel.iter();
                row_tile::<$r, GEMM_PANEL_STRIPS, { $r * GEMM_PANEL_STRIPS }, ZERO_RULE>(
                    avs,
                    bvs,
                    k0 > 0,
                    o,
                    n,
                    nb,
                );
            }};
        }
        match (rows - i).min(GEMM_ROW_TILE) {
            1 => tile!(1),
            2 => tile!(2),
            3 => tile!(3),
            _ => tile!(4),
        }
    }
}

/// A block of at most `GEMM_ROW_TILE` rows (`o` its elements from the
/// group's first column on) over `GEMM_TILE_STRIPS` whole strips of `B`
/// read in place — `b_row(kk)` is row `k0 + kk`, `kk < kb` — as one tile of
/// `R` rows × `GEMM_TILE_STRIPS / R` strips at a time, so even one row holds
/// a full tile's independent accumulators. The zero rule stays on the
/// per-row branches: scanning `B` for a non-finite value would cost the
/// pass that reading it in place saves.
fn in_place_tile<'b, const ZERO_RULE: bool>(
    lhs: impl Lhs,
    b_row: impl Fn(usize) -> &'b WideRow + Copy,
    kb: usize,
    first_row: usize,
    o: &mut [f32],
    n: usize,
    k0: usize,
) {
    macro_rules! tiles {
        ($r:literal, $c:expr) => {
            for s0 in (0..GEMM_TILE_STRIPS).step_by($c) {
                let avs = lhs.panel::<$r>(first_row, k0, kb);
                let bvs = (0..kb).map(move |kk| {
                    b_row(kk)[s0..].first_chunk::<{ $c }>().expect("strips inside the row")
                });
                let (o, nb) = (&mut o[s0 * GEMM_COL_TILE..], $c * GEMM_COL_TILE);
                row_tile::<$r, { $c }, { $r * $c }, ZERO_RULE>(avs, bvs, k0 > 0, o, n, nb);
            }
        };
    }
    // `o` starts inside the block's first row.
    match o.len().div_ceil(n) {
        1 => tiles!(1, GEMM_TILE_STRIPS),
        2 => tiles!(2, GEMM_TILE_STRIPS / 2),
        3 => tiles!(3, 1),
        _ => tiles!(4, GEMM_TILE_STRIPS / 4),
    }
}

/// `out[i][j] = a[i]·b[j]`, the product of `k = 1`: `b` the one row of `B`,
/// each output one step from `+0.0` under the product's zero rule — the
/// kernel's bits, with no panel to pack and no tile to hold. Row-parallel
/// like [`gemm`].
fn outer<const ZERO_RULE: bool>(lhs: impl Lhs, b: &[f32], out: &mut [f32]) {
    let n = b.len();
    crate::parallel::for_each_row_block(out, n, GEMM_MIN_ROWS_PER_THREAD, |first_row, block| {
        for (i, o) in block.chunks_exact_mut(n).enumerate() {
            let [a] = lhs.panel::<1>(first_row + i, 0, 1).next().expect("a one-term panel");
            if ZERO_RULE && a == 0.0 {
                for (x, &b) in o.iter_mut().zip(b) {
                    *x = madd_zero_rule(0.0, a, b);
                }
            } else {
                for (x, &b) in o.iter_mut().zip(b) {
                    *x = madd(0.0, a, b);
                }
            }
        }
    });
}

/// Whether any value in `panel` is ±inf or NaN, i.e. has an all-ones
/// exponent field: integer compares OR-ed together, a scan that vectorises
/// under SSE2 too.
fn has_non_finite(panel: &[PanelRow]) -> bool {
    const EXPONENT: u32 = 0x7f80_0000;
    let values = panel.as_flattened().as_flattened();
    let non_finite = |v: &f32| u32::from(v.to_bits() & EXPONENT == EXPONENT);
    values.iter().fold(0, |any, v| any | non_finite(v)) != 0
}

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

    /// `out = self · other`, the body of [`Matrix::matmul`]: register tiles
    /// over packed panels of `other`, row-parallel across the
    /// [`crate::parallel`] thread budget. `out` is fully overwritten; its
    /// previous contents are never read.
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
        let (lhs, rhs) =
            (ByRow { a: self.data, k: self.cols }, Rhs::Rows { b: other.data, n: other.cols });
        gemm::<true>(lhs, rhs, self.cols, other.cols, out.data);
    }

    /// `out = selfᵀ · other` without materializing the transpose — the
    /// body of [`Matrix::t_matmul`], row-parallel over output rows (columns
    /// of `self`). `out` is fully overwritten, like
    /// [`MatView::matmul_into`]'s.
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
        let (lhs, rhs) =
            (ByCol { a: self.data, m: self.cols }, Rhs::Rows { b: other.data, n: other.cols });
        gemm::<true>(lhs, rhs, self.rows, other.cols, out.data);
    }

    /// `out = self · otherᵀ` without materializing the transpose — the
    /// body of [`Matrix::matmul_t`], `otherᵀ` packed by transposed gather.
    /// `out` is fully overwritten, like [`MatView::matmul_into`]'s.
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
        let (lhs, rhs) =
            (ByRow { a: self.data, k: self.cols }, Rhs::Cols { b: other.data, k: other.cols });
        gemm::<false>(lhs, rhs, self.cols, other.rows, out.data);
    }

    /// `out = self · B` over `B`'s pre-packed [`Panels`]: the product of
    /// [`MatView::matmul_t_into`] without its gather, bit-identical to it
    /// over the `Bᵀ` the panels were packed from. `out` is fully
    /// overwritten, like [`MatView::matmul_into`]'s.
    ///
    /// # Panics
    ///
    /// Panics if `self.cols()` is not `B`'s row count or `out` is not
    /// `self.rows()` × `B`'s column count.
    pub fn matmul_panels_into(&self, panels: &Panels, out: MatViewMut<'_>) {
        let (k, n) = panels.shape();
        assert!(
            self.cols == k,
            "matmul_panels_into shape mismatch: {}x{} * {k}x{n}",
            self.rows,
            self.cols
        );
        assert!(
            out.shape() == (self.rows, n),
            "matmul_panels_into: out is {}x{}, need {}x{n}",
            out.rows,
            out.cols,
            self.rows
        );
        gemm::<false>(ByRow { a: self.data, k }, Rhs::Packed(panels), k, n, out.data);
    }

    /// `out = self · v`, the body of [`Matrix::matvec`]: each element the
    /// sum `matmul_t` forms, from `+0.0` in ascending column order, one
    /// step a term.
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
            *o = row.iter().zip(v).fold(0.0, |acc, (&a, &b)| madd(acc, a, b));
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
                *o = madd(*o, a, vk);
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

    /// `a[m×k] · b[k×n]`; a term whose `a` factor is zero and whose `b`
    /// factor is not finite contributes nothing.
    fn matmul_oracle(a: &Matrix, b: &Matrix) -> Matrix {
        Matrix::from_fn(a.rows(), b.cols(), |i, j| {
            let mut acc = 0.0f32;
            for kk in 0..a.cols() {
                let (a, b) = (a[(i, kk)], b[(kk, j)]);
                if a != 0.0 || b.is_finite() {
                    acc = madd(acc, a, b);
                }
            }
            acc
        })
    }

    /// `aᵀ · b` for `a[k×m]`, `b[k×n]`; the same zero rule as `matmul`.
    fn t_matmul_oracle(a: &Matrix, b: &Matrix) -> Matrix {
        Matrix::from_fn(a.cols(), b.cols(), |i, j| {
            let mut acc = 0.0f32;
            for kk in 0..a.rows() {
                let (a, b) = (a[(kk, i)], b[(kk, j)]);
                if a != 0.0 || b.is_finite() {
                    acc = madd(acc, a, b);
                }
            }
            acc
        })
    }

    /// `a[m×k] · bᵀ` for `b[n×k]`, one dot product per element, every
    /// term taken.
    fn matmul_t_oracle(a: &Matrix, b: &Matrix) -> Matrix {
        Matrix::from_fn(a.rows(), b.rows(), |i, j| {
            let mut acc = 0.0f32;
            for (&av, &bv) in a.row(i).iter().zip(b.row(j)) {
                acc = madd(acc, av, bv);
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
    /// and `matmul_t`'s pre-packed twin over `panels` re-packed from `bt`,
    /// to their oracles at thread budgets 1, 2 and 4.
    fn check_kernel_contract(
        a: &Matrix,
        b: &Matrix,
        at: &Matrix,
        bt: &Matrix,
        panels: &mut Panels,
    ) {
        let (m, k, n) = (a.rows(), a.cols(), b.cols());
        let want_mm = matmul_oracle(a, b);
        let want_tm = t_matmul_oracle(at, b);
        let want_mt = matmul_t_oracle(a, bt);
        panels.repack(bt.as_view());
        assert_eq!(panels.shape(), (k, n), "panels of {n}x{k}");
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
                out.as_mut_slice().fill(f32::NAN);
                a.as_view().matmul_panels_into(panels, out.as_view_mut());
                assert_bitwise(&out, &want_mt, &what("matmul_panels_into"));
            });
        }
    }

    /// Rows of a thread block that is not a whole number of row tiles, so
    /// the blocks after the first start mid-tile.
    const RAGGED_BLOCK: usize = GEMM_MIN_ROWS_PER_THREAD + GEMM_ROW_TILE / 2;

    /// Columns a block of one row tile reads in place per group.
    const WIDE: usize = GEMM_TILE_STRIPS * GEMM_COL_TILE;

    /// The codecs' dominant shapes, the backward products' (`Conv2d`
    /// 16→16 `∂patches`, the DCSNet encoder's `∂W`, and its last layer's
    /// `∂patches`, a `k = 1` outer product), DCSNet's three conv
    /// forward products (`m = cout`: 16, 8 and 1 rows — the last read in
    /// place), shapes one off each edge of the register tile (`m` 1, 2, 3
    /// and `GEMM_ROW_TILE + 1`, `n` one off the strip width), of the panel
    /// (`k` one off one and two panels, so later panels reload), blocks of
    /// one row tile read in place with a later panel and columns left over
    /// for a pack, and an `m` one off each side of four ragged thread
    /// blocks.
    const EDGE_SHAPES: [(usize, usize, usize); 19] = [
        (64, 128, 784),
        (32, 784, 128),
        (16, 1024, 144),
        (144, 16, 1024),
        (1024, 32, 784),
        (72, 1, 1024),
        (16, 9, 1024),
        (8, 144, 1024),
        (1, 72, 1024),
        (1, GEMM_PANEL_K - 1, GEMM_COL_TILE - 1),
        (2, GEMM_PANEL_K, GEMM_COL_TILE),
        (3, GEMM_PANEL_K + 1, GEMM_COL_TILE + 1),
        (GEMM_ROW_TILE + 1, 2 * GEMM_PANEL_K + 1, 2 * GEMM_COL_TILE + 1),
        (2 * GEMM_MIN_ROWS_PER_THREAD + 1, 2 * GEMM_PANEL_K - 1, 3 * GEMM_COL_TILE - 1),
        (1, GEMM_PANEL_K + 1, 2 * WIDE + GEMM_COL_TILE + 1),
        (2, 2 * GEMM_PANEL_K + 1, WIDE + 1),
        (GEMM_ROW_TILE, GEMM_PANEL_K + 1, WIDE - 1),
        (4 * RAGGED_BLOCK - 1, 5, 33),
        (4 * RAGGED_BLOCK + 1, 5, 33),
    ];

    /// Three ragged shapes for every one drawn from [`EDGE_SHAPES`].
    fn shape_strategy() -> impl Strategy<Value = (usize, usize, usize)> {
        (0..4 * EDGE_SHAPES.len(), 0usize..=70, 0usize..=70, 0usize..=70)
            .prop_map(|(pick, m, k, n)| EDGE_SHAPES.get(pick).copied().unwrap_or((m, k, n)))
    }

    /// Mostly ordinary values, one in eight a signed zero (the zero rule),
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

    /// Any `f32` bit pattern, one in four instead a value that makes the
    /// zero rule and the step's rounding matter: a signed zero, ±inf, NaN
    /// or a subnormal. `tiny` draws every finite value from signed zeros,
    /// subnormals and `±1e-30`, so every product underflows and every sum
    /// of finite terms is a signed zero: `−1e-30 · 1e-30` is the FMA step's
    /// way to an accumulator of `−0.0`, and a zero term after it decides
    /// the output's sign — the case the zero rule is stated for.
    fn bits_strategy(tiny: bool) -> impl Strategy<Value = f32> {
        (0u32..16, 0u32..=u32::MAX).prop_map(move |(tag, bits)| match tag {
            0 => 0.0,
            1 => -0.0,
            2 => [f32::INFINITY, f32::NEG_INFINITY, f32::NAN][bits as usize % 3],
            3 => f32::from_bits(bits & 0x807f_ffff),
            _ if tiny => [1e-30, -1e-30, 0.0, -0.0][bits as usize % 4],
            _ => f32::from_bits(bits),
        })
    }

    fn bits_matrix(rows: usize, cols: usize, tiny: bool) -> impl Strategy<Value = Matrix> {
        prop::collection::vec(bits_strategy(tiny), rows * cols)
            .prop_map(move |data| Matrix::from_vec(rows, cols, data).unwrap())
    }

    #[test]
    fn the_step_fuses_in_a_build_that_says_it_does() {
        // a² = 1 + 2⁻¹¹ + 2⁻²⁴: rounded on its own it loses the 2⁻²⁴ (a tie,
        // to even), fused with the −1 it keeps it.
        let a = std::hint::black_box(1.0 + 2.0f32.powi(-12));
        let (fused, unfused) = (2.0f32.powi(-11) + 2.0f32.powi(-24), 2.0f32.powi(-11));
        let want = if cfg!(target_feature = "fma") { fused } else { unfused };
        assert_eq!(madd(-1.0, a, a).to_bits(), want.to_bits());
        // The accumulator the zero rule exists for: fused, a negative
        // product too small for `f32` leaves `−0.0`; unfused, `+0.0`.
        let zero = madd(0.0, std::hint::black_box(-1e-30), 1e-30);
        let want = if cfg!(target_feature = "fma") { -0.0f32 } else { 0.0 };
        assert_eq!(zero.to_bits(), want.to_bits());
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        #[test]
        fn any_bit_pattern_meets_the_zero_rule_in_all_three_products(
            (a, b, at, bt) in (shape_strategy(), 0u32..2).prop_flat_map(|((m, k, n), tiny)| (
                bits_matrix(m, k, tiny == 1),
                bits_matrix(k, n, tiny == 1),
                bits_matrix(k, m, tiny == 1),
                bits_matrix(n, k, tiny == 1),
            ))
        ) {
            check_kernel_contract(&a, &b, &at, &bt, &mut Panels::default());
        }

        #[test]
        fn products_are_bitwise_their_scalar_oracles(
            (a, b, at, bt) in shape_strategy().prop_flat_map(|(m, k, n)| (
                matrix_strategy(m, k),
                matrix_strategy(k, n),
                matrix_strategy(k, m),
                matrix_strategy(n, k),
            ))
        ) {
            // Re-packed for the case's smaller shape: no stale NaN may
            // reach a product.
            let (n, k) = bt.shape();
            let stale = Matrix::filled(n + PANEL_WIDTH + 1, k + GEMM_PANEL_K + 1, f32::NAN);
            check_kernel_contract(&a, &b, &at, &bt, &mut Panels::new(stale.as_view()));
        }
    }

    #[test]
    fn every_edge_shape_meets_the_kernel_contract() {
        let mut rng = crate::OrcoRng::from_label("kernel-contract", 0);
        // One `Panels` for every shape, each re-packed in place of the
        // last, larger and smaller.
        let mut panels = Panels::default();
        for (m, k, n) in EDGE_SHAPES {
            let mut random =
                |rows, cols| Matrix::from_fn(rows, cols, |_, _| rng.uniform(-1.0, 1.0));
            let (a, b, at, bt) = (random(m, k), random(k, n), random(k, m), random(n, k));
            check_kernel_contract(&a, &b, &at, &bt, &mut panels);
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
