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
//! pre-packed twin [`MatView::matmul_panels_into`], the convolution
//! forward [`MatView::conv_into`], [`MatView::matvec_into`],
//! [`MatView::t_matvec_into`]) are the one body of each product: the
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
//! takes every term. Tile, panel and block sizes, the order in which blocks
//! of `out` are visited and how often a factor is re-packed may be retuned
//! freely; the per-element order, the step and the zero rule may not — the
//! unit tests hold all three products bitwise to scalar oracles that spell
//! this out, and the convolution to `im2col` then `matmul`.
//!
//! All four are one register-blocked micro-kernel under three drivers:
//! `gemm` and `gemm_own_rows` (Goto & van de Geijn's GEMM: the first packs
//! `B`, the second each thread's own rows of `A`) and `direct_conv`, which
//! reads a factor where it lies instead of materialising it:
//!
//! - **The register tile.** A tile of `out` — 4 rows × 16 columns under
//!   AVX2, 2 × 16 under SSE2, 8 vector registers either way — is held in
//!   a local accumulator array for a whole `k` panel. Each `kk` loads one
//!   row of `B` and broadcasts one value of `a` per tile row against it,
//!   so the accumulators never touch memory inside the panel. A tile of
//!   fewer rows spans more columns, keeping as many independent chains.
//! - **The broadcast side packed too.** `gemm` and `direct_conv` first
//!   gather, per `GEMM_PANEL_K` slice, what each row tile broadcasts into a
//!   micro-panel on the stack, `R` values a `kk` for a tile of `R` rows,
//!   the micro-panels of a group of tiles one after the other (Goto & van
//!   de Geijn, 2008; BLIS, Van Zee & van de Geijn, 2015): `gemm` a group of
//!   rows of `A` (64 at a full slice's depth, more in a shallower one) before
//!   any panel of `B`, `direct_conv` a group of 16 channels' kernels. The
//!   micro-kernel walks its broadcast side with an iterator whose length
//!   the compiler knows, so its step is loads, broadcasts from memory and
//!   FMAs with no bounds check: a 4-row dense tile takes 16 instructions a
//!   `kk` for its 8 FMAs (29 when it indexed `A`'s rows where they lie, a
//!   bounds check a row and most broadcasts through a register), a 4-row
//!   convolution tile 23 (~37). `gemm_own_rows` is the exception: a row
//!   tile of `b` meets at most two panels there, too few to repay a pack,
//!   so it zips the tile's rows of `b` where they lie into the same
//!   check-free walk (18 instructions a `kk`).
//! - **The packed panel.** `B` is copied, one tile wide and up to 256
//!   rows deep, into a stack panel every row tile of a group then reads
//!   from L1 — by row segments for `matmul` / `t_matmul`, by transposed
//!   gather for `matmul_t` — and copied again for the next group of rows.
//!   A block of one row tile (4 rows or fewer under AVX2) would read a
//!   panel once, so it reads a row-major `B` where it lies. The gather is the costly pack: it
//!   visits `Bᵀ` one column at a time, so a one-row `784 → 128` product
//!   spends most of its time on it. A `Bᵀ` that many products read
//!   unchanged — a served layer's weight — is gathered once into
//!   [`Panels`], whose panels [`MatView::matmul_panels_into`] borrows
//!   instead of packing: the same micro-kernel over the same panel bytes,
//!   so the same bits as `matmul_t`.
//! - **The smaller factor is the one packed.** `matmul_t` gathers `Bᵀ`
//!   only while `A` has fewer rows than a panel is wide, or no fewer rows
//!   than `B` has columns. Otherwise — a training forward's `x·Wᵀ` at
//!   batch 32, a convolution's `∂K = δ·patchesᵀ` at 16 output channels —
//!   each thread gathers its own rows of `A` instead, two panels (32 rows)
//!   side by side, broadcasts the rows of `Bᵀ` where they lie against both,
//!   so a batch-32 forward reads its weight once, and stores each
//!   tile transposed (reloading it transposed between panels): `(B·Aᵀ)ᵀ`,
//!   each term `b·a` for `a·b`, the same bits.
//! - **Blocks sized to the cache they must stay in.** A shallow product
//!   (`k` no deeper than one panel) whose block of `out` outgrows L2 — a
//!   training step's `∂W = δᵀ·x`, 512 × 3072 at batch 32 — is written in
//!   slabs of 32 rows, each slab over every column panel before the next,
//!   so its rows stay cached while the panels pass; each slab re-packs the
//!   small `B`. Panel-outer over the whole block, every row would take 64
//!   bytes per panel and be evicted before the next.
//! - **The convolution reads its image in place.** `conv_into` is
//!   `kernels · im2col(x)` with no patch matrix and no panel of `B` (Dukhan's
//!   indirect convolution, 2019; Zhang, Franchetti & Low's direct one,
//!   2018): the sample is copied once into a zero-bordered image — at
//!   stride `s`, `s × s` phase planes, so every tap reads contiguous
//!   columns — whose scan for a non-finite value rides in the copy, and a
//!   stack table of tap offsets makes row `kk` of `B`, for one output row
//!   and strip of columns, a strip of that image. A finite sample takes
//!   every term, as a finite panel does. The same terms, order, step and
//!   zero rule as `matmul`, so the same bits; backward still lowers.
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
use crate::im2col::{Conv2dGeom, IMAGE_SLACK};
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

// A bordered image's slack covers the strips of a row's last output: two
// for a one-channel tile.
const _: () = assert!(IMAGE_SLACK >= 2 * GEMM_COL_TILE);

/// Minimum rows a worker thread must own before the GEMM kernels
/// parallelize; below this the spawn overhead dominates.
const GEMM_MIN_ROWS_PER_THREAD: usize = 8;

/// Own-row panels [`gemm_own_rows`] packs side by side before it
/// broadcasts `B` against them: 2, i.e. 32 rows of `A` (a batch-32 training forward's
/// whole block on one thread) in 32 KB of stack, so such a block reads
/// `B` once per `GEMM_PANEL_K` slice instead of once per panel.
const OWN_ROW_GROUP: usize = 2;

/// Output bytes of one thread's block above which a shallow product
/// (`k ≤ GEMM_PANEL_K`, a right factor it packs itself) writes the block
/// in slabs of [`GEMM_SLAB_ROWS`] rows: 2 MiB, an L2 of the host the
/// kernels were tuned on. Below it the block's rows stay cached across
/// its column panels anyway, and slabs only re-pack `B` (slabbed, the
/// MNIST-like `∂W` products, 128 × 784 and 784 × 128, read 1.13–1.23×
/// slower).
const GEMM_SLAB_MIN_OUT_BYTES: usize = 2 << 20;

/// Rows of one slab of a block [`GEMM_SLAB_MIN_OUT_BYTES`] splits: each
/// slab re-packs `B`, so a slab must be tall enough to amortise that
/// (at `k = 32`, a `512 × 3072` `∂W` re-packs ~3 % of its FMAs' worth) and
/// short enough that its rows stay cached while its panels pass (against
/// no slabs, a `3072 × 512` `∂W` read 0.72–1.00× in 32-row slabs and 1.4×
/// in 256-row ones; nproc 2, x86-64-v3).
const GEMM_SLAB_ROWS: usize = 32;

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

/// One `kk` of a row tile's micro-panel: the value of `a` each of the
/// tile's rows broadcasts. A tile of fewer rows leaves the last lanes
/// unread.
type TileCol = [f32; GEMM_ROW_TILE];

/// An unwritten [`TileCol`].
const TILE_COL: TileCol = [0.0; GEMM_ROW_TILE];

/// Rows of `A` whose micro-panels [`gemm_block`] packs together per full
/// `GEMM_PANEL_K` slice before it packs any panel of `B`: 64, 64 KiB of
/// stack, zeroed once a thread's block. A shallower slice fills the same
/// buffer with more rows (512 at `k = 32`), so `B` is packed once per
/// buffer of `A` whatever the depth: held at 64 rows, `t_matmul` 784 × 32
/// × 128 and 144 × 16 × 1024 (a training step's `∂W` and DCSNet's
/// `∂patches`) read 1.04–1.13× slower. `B` is packed again for each group,
/// so a taller group packs it less often, but zeroes more: against 128 at
/// full depth, batch-256 `matmul` products read 0.94–0.96× and 8-row
/// products 1.03–1.07× (nproc 2, x86-64-v3, in-process A/B).
const GEMM_ROW_GROUP: usize = 64;

/// Output channels whose kernels [`direct_block`] packs together per tap
/// slice: 16, 16 KiB of stack, DCSNet's widest layer in one group. Every
/// sample's convolution zeroes the buffer, and its `1 → 16` layer is only
/// ~150k FMAs a sample: against 64 channels, the `1 → 16` and `8 → 1`
/// layers read 1.09× faster (nproc 2, x86-64-v3, in-process A/B).
const CONV_CHANNEL_GROUP: usize = 16;

/// The broadcast factor `A` as a driver gathers its micro-panels.
#[derive(Clone, Copy)]
enum Lhs<'a> {
    /// `a` is `m × k`: a tile broadcasts one value of each of its rows
    /// (`matmul`, `matmul_t`, a convolution's kernels).
    ByRow { a: &'a [f32], k: usize },
    /// `a` is `k × m`: a tile's values at one `kk` are contiguous,
    /// `a[kk·m + i0..]` (`t_matmul`).
    ByCol { a: &'a [f32], m: usize },
}

impl<'a> Lhs<'a> {
    /// The one column of an `m × 1` `A`: at `k = 1` both layouts are `a`.
    fn only_column(self) -> &'a [f32] {
        match self {
            Lhs::ByRow { a, .. } | Lhs::ByCol { a, .. } => a,
        }
    }

    /// Rows `i0..i0 + rows` of `A`, columns `k0..k0 + kb`, as one
    /// micro-panel per row tile, each `kb` deep and right after the one
    /// before: `group[(r / GEMM_ROW_TILE)·kb + kk][r % GEMM_ROW_TILE]` is
    /// `A[i0 + r][k0 + kk]`. Lanes past a short last tile's rows keep what
    /// they held. Contiguous, so a group's micro-panels share no cache set
    /// they do not fill (4 KiB apart, a shallow slice's would). Each tile's
    /// micro-panel is written front to back: `ByRow` reads the tile's rows
    /// side by side, a transpose the compiler vectorises; `ByCol` copies the
    /// tile's run of values at each `kk` (written `kk`-outer, a tile's
    /// micro-panel apart, `t_matmul` 784 × 32 × 128 read 1.07× slower).
    fn pack(self, group: &mut [TileCol], i0: usize, rows: usize, k0: usize, kb: usize) {
        let group = &mut group[..rows.div_ceil(GEMM_ROW_TILE) * kb];
        match self {
            Lhs::ByRow { a, k } => {
                for (t, micro) in group.chunks_exact_mut(kb).enumerate() {
                    let r0 = i0 + t * GEMM_ROW_TILE;
                    let tile_rows = GEMM_ROW_TILE.min(i0 + rows - r0);
                    if tile_rows == GEMM_ROW_TILE {
                        let src: [&[f32]; GEMM_ROW_TILE] =
                            std::array::from_fn(|r| &a[(r0 + r) * k + k0..][..kb]);
                        for (kk, col) in micro.iter_mut().enumerate() {
                            *col = src.map(|row| row[kk]);
                        }
                    } else {
                        for r in 0..tile_rows {
                            for (col, &v) in micro.iter_mut().zip(&a[(r0 + r) * k + k0..][..kb]) {
                                col[r] = v;
                            }
                        }
                    }
                }
            }
            Lhs::ByCol { a, m } => {
                for (t, micro) in group.chunks_exact_mut(kb).enumerate() {
                    let r0 = i0 + t * GEMM_ROW_TILE;
                    let tile_rows = GEMM_ROW_TILE.min(i0 + rows - r0);
                    let src = a[k0 * m + r0..].chunks(m);
                    if tile_rows == GEMM_ROW_TILE {
                        for (col, src) in micro.iter_mut().zip(src) {
                            *col = *src.first_chunk().expect("a whole tile");
                        }
                    } else {
                        for (col, src) in micro.iter_mut().zip(src) {
                            col[..tile_rows].copy_from_slice(&src[..tile_rows]);
                        }
                    }
                }
            }
        }
    }
}

/// The micro-kernel: `R` rows × `C` strips of `out` (`o` starts at the
/// tile's first element, rows `n` apart, `nb` valid columns) over one panel
/// — at each `kk`, the `R` values of `a` that `avs` points at, broadcast
/// against the `C` strip rows of `B` from `bvs`. `avs` is a packed
/// micro-panel's [`lanes`] or, in [`gemm_own_rows`], the tile's rows of `b`
/// zipped: iterators whose zip with a slice's is indexed by one counter, so
/// a step is loads, broadcasts from memory and FMAs, with no bounds check. The
/// tile is held in `acc`, `V = R · C` strip rows (cell `v` is row `v / C`,
/// strip `v % C`) indexed only by constants, so it lives in registers for
/// the whole panel: the first panel starts every accumulator at `+0.0`, a
/// later one (`reload`) resumes from what the panel before it stored.
/// `ZERO_RULE` applies the zero rule on the rows whose value of `a` is
/// zero. The finished tile is stored, never added. A `TRANSPOSED` tile is
/// the transpose of its block of `out`: its row `r` is column `r` of `o`,
/// and its `nb` valid strip lanes are rows of `o`, `n` apart; only its
/// store and reload differ. `R` is at most `GEMM_ROW_TILE`: the drivers'
/// taller arms exist only in a build whose tile is taller.
#[inline(never)]
fn row_tile<
    'a,
    'p,
    const R: usize,
    const C: usize,
    const V: usize,
    const ZERO_RULE: bool,
    const TRANSPOSED: bool,
>(
    avs: impl Iterator<Item = [&'a f32; R]>,
    bvs: impl Iterator<Item = &'p [TileRow; C]>,
    reload: bool,
    o: &mut [f32],
    n: usize,
    nb: usize,
) {
    const { assert!(R * C == V) };
    // Where lane 0 of cell `v` lives in `o`, and how many of its lanes are
    // valid: a row segment, or `TRANSPOSED` a column segment.
    let cell = |v: usize| {
        let (row, strip) = (v / C, v % C);
        let width = nb.saturating_sub(strip * GEMM_COL_TILE).min(GEMM_COL_TILE);
        let at = if TRANSPOSED {
            strip * GEMM_COL_TILE * n + row
        } else {
            row * n + strip * GEMM_COL_TILE
        };
        (at, width)
    };
    let mut acc = [[0.0; GEMM_COL_TILE]; V];
    if reload {
        for (v, acc_row) in acc.iter_mut().enumerate() {
            let (at, width) = cell(v);
            if TRANSPOSED {
                // Every lane by a constant index, so the tile stays in
                // registers; the padding lanes keep their `+0.0`.
                for (lane, x) in acc_row.iter_mut().enumerate() {
                    if lane < width {
                        *x = o[at + lane * n];
                    }
                }
            } else if width > 0 {
                *acc_row = load_row(&o[at..], width);
            }
        }
    }
    for (av, bv) in avs.zip(bvs) {
        for (v, acc_row) in acc.iter_mut().enumerate() {
            let (a, b_row) = (*av[v / C], &bv[v % C]);
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
        if TRANSPOSED {
            for (lane, x) in acc_row.into_iter().enumerate() {
                if lane < width {
                    o[at + lane * n] = x;
                }
            }
        } else if width > 0 {
            store_row(&mut o[at..], width, acc_row);
        }
    }
}

/// A micro-panel's first `R` lanes a `kk`, by reference, so
/// [`row_tile`] broadcasts each from memory.
#[inline(always)]
fn lanes<const R: usize>(micro: &[TileCol]) -> impl Iterator<Item = [&f32; R]> {
    micro.iter().map(|col| std::array::from_fn(|r| &col[r]))
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
/// let mut gathered = Matrix::zeros(2, 5);
/// x.as_view().matmul_t_into(w.as_view(), gathered.as_view_mut());
/// assert_eq!(out, gathered);
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
/// Row-parallel over [`crate::parallel::for_each_row_block`]; each block
/// is one run of [`gemm_block`], or — when the product is shallow (`k ≤
/// GEMM_PANEL_K`), packs its own `B` and the block's output exceeds
/// [`GEMM_SLAB_MIN_OUT_BYTES`] — one run per slab of [`GEMM_SLAB_ROWS`]
/// rows. Panel-outer over the whole block, a `t_matmul` `∂W = δᵀ·x` of
/// 512 × 3072 writes 64 bytes to every one of its rows per panel, and no
/// cache holds them until the next; a slab's rows stay cached across all
/// its panels, for one re-pack of the small `B` per slab. A block of one
/// row tile packs into one micro-panel's buffer, not a group's: zeroing a
/// whole group's 64 KiB made a one-row `784 → 128` product 1.15× slower. A
/// `k = 1`
/// product, an outer product, is one step per output ([`outer`]).
fn gemm<const ZERO_RULE: bool>(lhs: Lhs<'_>, rhs: Rhs<'_>, k: usize, n: usize, out: &mut [f32]) {
    if k == 0 {
        // An empty sum: the one product with no panel to store it.
        out.fill(0.0);
        return;
    }
    if n == 0 {
        return;
    }
    if k == 1 {
        outer::<ZERO_RULE>(lhs.only_column(), rhs.only_row(n), out);
        return;
    }
    let shallow = k <= GEMM_PANEL_K && !matches!(rhs, Rhs::Packed(_));
    crate::parallel::for_each_row_block(out, n, GEMM_MIN_ROWS_PER_THREAD, |first_row, block| {
        let slab_rows = if shallow && size_of_val(block) > GEMM_SLAB_MIN_OUT_BYTES {
            GEMM_SLAB_ROWS
        } else {
            block.len() / n
        };
        let one_tile = block.len() <= GEMM_ROW_TILE * n;
        let mut run = |group: &mut [TileCol]| {
            for (s, slab) in block.chunks_mut(slab_rows * n).enumerate() {
                gemm_block::<ZERO_RULE>(lhs, rhs, k, n, first_row + s * slab_rows, slab, group);
            }
        };
        if one_tile {
            run(&mut [TILE_COL; GEMM_PANEL_K]);
        } else {
            run(&mut [TILE_COL; GEMM_ROW_GROUP * GEMM_PANEL_K / GEMM_ROW_TILE]);
        }
    });
}

/// Rows `first_row..` of `out`, `block` (whole rows): per `GEMM_PANEL_K`
/// rows of `B` (`k` ascending) and group of rows — as many as `group`
/// holds micro-panels of the slice's depth, [`GEMM_ROW_GROUP`] at full depth
/// — the group's micro-panels of `A` are packed into `group` ([`Lhs::pack`])
/// and then, per full tile's width of columns, one panel of `B` — packed
/// into `panel`, or borrowed from [`Panels`] — and every row tile of the
/// group over it ([`packed_tiles`]). So `A` is gathered once per slice, and
/// a `Rows` or `Cols` `B` once per slice and group. A block of one row tile
/// takes a row-major `B` in place instead, `GEMM_TILE_STRIPS` strips at a
/// time ([`in_place_tile`]), and packs only the columns left over.
fn gemm_block<const ZERO_RULE: bool>(
    lhs: Lhs<'_>,
    rhs: Rhs<'_>,
    k: usize,
    n: usize,
    first_row: usize,
    block: &mut [f32],
    group: &mut [TileCol],
) {
    const WIDE: usize = GEMM_TILE_STRIPS * GEMM_COL_TILE;
    let rows = block.len() / n;
    let in_place = match rhs {
        Rhs::Rows { b, .. } if rows <= GEMM_ROW_TILE => Some(b),
        _ => None,
    };
    let packed_from = if in_place.is_some() { n - n % WIDE } else { 0 };
    let mut panel = [[[0.0; GEMM_COL_TILE]; GEMM_PANEL_STRIPS]; GEMM_PANEL_K];
    for k0 in (0..k).step_by(GEMM_PANEL_K) {
        let kb = GEMM_PANEL_K.min(k - k0);
        let group_max = group.len() / kb * GEMM_ROW_TILE;
        for g0 in (0..rows).step_by(group_max) {
            let group_rows = group_max.min(rows - g0);
            lhs.pack(group, first_row + g0, group_rows, k0, kb);
            let block = &mut block[g0 * n..][..group_rows * n];
            if let Some(b) = in_place {
                let a = &group[..kb];
                for j0 in (0..packed_from).step_by(WIDE) {
                    let b_row = move |kk: usize| {
                        let (strips, _) = b[(k0 + kk) * n + j0..].as_chunks();
                        strips.first_chunk::<GEMM_TILE_STRIPS>().expect("whole strips")
                    };
                    in_place_tile::<ZERO_RULE>(a, b_row, rows, &mut block[j0..], n, k0);
                }
            }
            for j0 in (packed_from..n).step_by(PANEL_WIDTH) {
                let cols = j0..n.min(j0 + PANEL_WIDTH);
                let (o, nb) = (&mut block[j0..], cols.len());
                let panel = rhs.pack(&mut panel[..kb], k0, cols);
                let tiles = (&group[..group_rows.div_ceil(GEMM_ROW_TILE) * kb], kb, group_rows);
                // The zero rule drops only a term whose `b` is ±inf or NaN,
                // so a finite panel takes every term, and only a panel that
                // holds a non-finite value takes the rule's per-row branches.
                if ZERO_RULE && has_non_finite(panel) {
                    packed_tiles::<true>(tiles, (panel, nb), o, n, k0);
                } else {
                    packed_tiles::<false>(tiles, (panel, nb), o, n, k0);
                }
            }
        }
    }
}

/// `out = a · bᵀ` (`a` is `m × k`, `b` is `n × k`) as `(b · aᵀ)ᵀ`: the
/// driver [`MatView::matmul_t_into`] takes when `b` has more rows than `a`
/// and `a` fills a panel, so it packs the smaller factor (Goto & van de
/// Geijn's rule). Row-parallel over `out` like [`gemm`], but in blocks of
/// at least a panel's width of rows, so no thread fills half a panel (a
/// 16-row `∂K` split in two read 2.2× slower, nproc 2, x86-64-v3). Each
/// block gathers its own rows of `a` by the gather `Rhs::Cols` packs `b`
/// with, a group of [`OWN_ROW_GROUP`] panels (`PANEL_WIDTH` rows each) at
/// a time, and streams every row of `b` past the whole group as the
/// broadcast side, read where it lies: a row tile's rows of `b`, zipped,
/// go to [`row_tile`] for each panel of the group, so it reads `b` once per
/// group and slice instead of gathering all of it. The tile is not packed:
/// it meets at most [`OWN_ROW_GROUP`] panels, and packing it (a transpose)
/// cost more than the step it saved — `matmul_t` 16 × 1024 · (144 ×
/// 1024)ᵀ (DCSNet's 16 → 16 `∂K`) and 32 × 784 · (128 × 784)ᵀ read
/// 1.10–1.24× slower packed (nproc 2, x86-64-v3, in-process A/B). Each
/// tile is stored transposed ([`row_tile`]'s `TRANSPOSED`). An element takes the
/// same terms in the same order, each `b·a` for `a·b` — the same bits,
/// fused or not — and `matmul_t` has no zero rule to break the symmetry.
fn gemm_own_rows(a: &[f32], b: &[f32], k: usize, n: usize, out: &mut [f32]) {
    const GROUP_ROWS: usize = OWN_ROW_GROUP * PANEL_WIDTH;
    crate::parallel::for_each_row_block(out, n, PANEL_WIDTH, |first_row, block| {
        let rows = block.len() / n;
        let own = Rhs::Cols { b: &a[first_row * k..][..rows * k], k };
        let mut group = [[[[0.0; GEMM_COL_TILE]; GEMM_PANEL_STRIPS]; GEMM_PANEL_K]; OWN_ROW_GROUP];
        for k0 in (0..k).step_by(GEMM_PANEL_K) {
            let kb = GEMM_PANEL_K.min(k - k0);
            for g0 in (0..rows).step_by(GROUP_ROWS) {
                let mut panels: [(&[PanelRow], usize); OWN_ROW_GROUP] = [(&[], 0); OWN_ROW_GROUP];
                let group_end = rows.min(g0 + GROUP_ROWS);
                for ((i0, buffer), panel) in
                    (g0..group_end).step_by(PANEL_WIDTH).zip(&mut group).zip(&mut panels)
                {
                    let own_rows = i0..group_end.min(i0 + PANEL_WIDTH);
                    let nb = own_rows.len();
                    *panel = (own.pack(&mut buffer[..kb], k0, own_rows), nb);
                }
                for j0 in (0..n).step_by(GEMM_ROW_TILE) {
                    let row = |r: usize| b[(j0 + r) * k + k0..][..kb].iter();
                    for (p, (panel, nb)) in panels.into_iter().enumerate() {
                        if nb == 0 {
                            break;
                        }
                        let o = &mut block[(g0 + p * PANEL_WIDTH) * n + j0..];
                        macro_rules! tile {
                            ($r:literal, $avs:expr) => {
                                row_tile::<
                                    $r,
                                    GEMM_PANEL_STRIPS,
                                    { $r * GEMM_PANEL_STRIPS },
                                    false,
                                    true,
                                >($avs, panel.iter(), k0 > 0, o, n, nb)
                            };
                        }
                        match (n - j0).min(GEMM_ROW_TILE) {
                            1 => tile!(1, row(0).map(|a| [a])),
                            2 => tile!(2, row(0).zip(row(1)).map(|(a, b)| [a, b])),
                            3 => tile!(
                                3,
                                row(0).zip(row(1)).zip(row(2)).map(|((a, b), c)| [a, b, c])
                            ),
                            _ => tile!(
                                4,
                                row(0)
                                    .zip(row(1))
                                    .zip(row(2))
                                    .zip(row(3))
                                    .map(|(((a, b), c), d)| [a, b, c, d])
                            ),
                        }
                    }
                }
            }
        }
    });
}

/// Every row tile of a group (`tiles`: the group's micro-panels, each `kb`
/// deep, and its count of rows; `o` its elements from the panel's first
/// column on) over one packed panel with `nb` valid columns, the panel's
/// rows starting at `k0`: `GEMM_ROW_TILE` rows at a time, then the remainder
/// rows as one tile — no padding row is ever computed. `nb` reaches
/// [`row_tile`] as the caller counted it: bounding it here
/// (`min(PANEL_WIDTH)`) changed how the compiler built `row_tile`, and the
/// MNIST-like `∂W` products read 1.02–1.03× slower.
fn packed_tiles<const ZERO_RULE: bool>(
    (group, kb, rows): (&[TileCol], usize, usize),
    (panel, nb): (&[PanelRow], usize),
    o: &mut [f32],
    n: usize,
    k0: usize,
) {
    for (t, avs) in group.chunks_exact(kb).enumerate() {
        let i = t * GEMM_ROW_TILE;
        let o = &mut o[i * n..];
        macro_rules! tile {
            ($r:literal) => {
                row_tile::<$r, GEMM_PANEL_STRIPS, { $r * GEMM_PANEL_STRIPS }, ZERO_RULE, false>(
                    lanes(avs),
                    panel.iter(),
                    k0 > 0,
                    o,
                    n,
                    nb,
                )
            };
        }
        match (rows - i).min(GEMM_ROW_TILE) {
            1 => tile!(1),
            2 => tile!(2),
            3 => tile!(3),
            _ => tile!(4),
        }
    }
}

/// A block of `rows ≤ GEMM_ROW_TILE` rows (`o` its elements from the
/// group's first column on, `a` its one micro-panel) over
/// `GEMM_TILE_STRIPS` whole strips of `B` read in place — `b_row(kk)` is
/// row `k0 + kk`, `kk < a.len()` — as one tile of `R` rows ×
/// `GEMM_TILE_STRIPS / R` strips at a time, so even one row holds a full
/// tile's independent accumulators. The zero rule stays on the per-row
/// branches: scanning `B` for a non-finite value would cost the pass that
/// reading it in place saves.
fn in_place_tile<'b, const ZERO_RULE: bool>(
    a: &[TileCol],
    b_row: impl Fn(usize) -> &'b WideRow + Copy,
    rows: usize,
    o: &mut [f32],
    n: usize,
    k0: usize,
) {
    macro_rules! tiles {
        ($r:literal, $c:expr) => {
            for s0 in (0..GEMM_TILE_STRIPS).step_by($c) {
                let bvs = (0..a.len()).map(move |kk| {
                    b_row(kk)[s0..].first_chunk::<{ $c }>().expect("strips inside the row")
                });
                let (o, nb) = (&mut o[s0 * GEMM_COL_TILE..], $c * GEMM_COL_TILE);
                row_tile::<$r, { $c }, { $r * $c }, ZERO_RULE, false>(
                    lanes(a),
                    bvs,
                    k0 > 0,
                    o,
                    n,
                    nb,
                );
            }
        };
    }
    match rows {
        1 => tiles!(1, GEMM_TILE_STRIPS),
        2 => tiles!(2, GEMM_TILE_STRIPS / 2),
        3 => tiles!(3, 1),
        _ => tiles!(4, GEMM_TILE_STRIPS / 4),
    }
}

/// `out[i][j] = a[i]·b[j]`, the product of `k = 1`: `a` the one column of
/// `A`, `b` the one row of `B`, each output one step from `+0.0` under the
/// product's zero rule — the kernel's bits, with no panel to pack and no
/// tile to hold. Row-parallel like [`gemm`].
fn outer<const ZERO_RULE: bool>(a: &[f32], b: &[f32], out: &mut [f32]) {
    let n = b.len();
    crate::parallel::for_each_row_block(out, n, GEMM_MIN_ROWS_PER_THREAD, |first_row, block| {
        for (o, &a) in block.chunks_exact_mut(n).zip(&a[first_row..]) {
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
    let values = panel.as_flattened().as_flattened();
    values.iter().fold(0, |any, &v| any | non_finite(v)) != 0
}

/// 1 if `v` is ±inf or NaN, i.e. has an all-ones exponent field, else 0.
#[inline(always)]
fn non_finite(v: f32) -> u32 {
    const EXPONENT: u32 = 0x7f80_0000;
    u32::from(v.to_bits() & EXPONENT == EXPONENT)
}

/// The direct convolution driver: `out[m × positions]` (one sample's
/// output, row-major, `m` output channels) is written, not accumulated
/// into, as `kernels · im2col(sample)`, reading each tap's pixels from
/// `image`, the sample's bordered copy ([`bordered_copy`]), where they lie
/// (Dukhan's indirect convolution; Zhang, Franchetti & Low's direct one).
/// Row-parallel over output channels like [`gemm`]; each block is one run
/// of [`direct_block`].
fn direct_conv<const ZERO_RULE: bool>(
    kernels: Lhs<'_>,
    geom: &Conv2dGeom,
    image: &[f32],
    out: &mut [f32],
) {
    let positions = geom.out_positions();
    crate::parallel::for_each_row_block(
        out,
        positions,
        GEMM_MIN_ROWS_PER_THREAD,
        |first, block| {
            direct_block::<ZERO_RULE>(kernels, geom, image, first, block);
        },
    );
}

/// Output channels `first_row..` of [`direct_conv`]'s `out`, `block`
/// (whole channels). Per `GEMM_PANEL_K` taps (`k` ascending), a stack
/// table holds each tap's offset in `image`; per group of up to
/// [`CONV_CHANNEL_GROUP`] channels, the group's kernels are packed into
/// micro-panels ([`Lhs::pack`]); for every row tile of the group, output
/// row `y` and strip of up to `GEMM_COL_TILE` outputs from `x0`, row `kk`
/// of `B` is then the strip `image[y·cols + x0 + taps[kk]..]`, read where
/// it lies ([`row_tile`], one strip wide; two for a one-channel tile, whose
/// one-strip tile held two accumulators: on DCSNet's 8 → 1 layer it read
/// 1.14–1.22× faster, nproc 2, x86-64-v3, in-process A/B). No patch
/// matrix is built and no panel of `B` is packed; an element takes the
/// same terms in the same order as `matmul`, from `+0.0`, reloaded between
/// slices, so the same bits. The table is read, not recomputed: an
/// iterator that derived each offset from the last ran 1.5–2.0× slower
/// than im2col and `matmul`.
fn direct_block<const ZERO_RULE: bool>(
    kernels: Lhs<'_>,
    geom: &Conv2dGeom,
    image: &[f32],
    first_row: usize,
    block: &mut [f32],
) {
    let (k, s, patch_len) = (geom.kernel, geom.stride, geom.patch_len());
    let (oh, ow) = (geom.out_h(), geom.out_w());
    let positions = oh * ow;
    let (rows, cols) = geom.plane_shape();
    // Tap `(c, kh, kw)` reads plane `(c, kh mod s, kw mod s)` from row
    // `kh / s`, column `kw / s` on: `(c·rows + kh)·cols + kw` at stride 1.
    let tap = |t: usize| {
        let (c, kh, kw) = (t / (k * k), t / k % k, t % k);
        ((c * s + kh % s) * s + kw % s) * rows * cols + kh / s * cols + kw / s
    };
    let mut table = [0; GEMM_PANEL_K];
    let mut group = [TILE_COL; CONV_CHANNEL_GROUP * GEMM_PANEL_K / GEMM_ROW_TILE];
    let channels = block.len() / positions;
    for k0 in (0..patch_len).step_by(GEMM_PANEL_K) {
        let kb = GEMM_PANEL_K.min(patch_len - k0);
        for (t, offset) in table[..kb].iter_mut().enumerate() {
            *offset = tap(k0 + t);
        }
        let taps = &table[..kb];
        for c0 in (0..channels).step_by(CONV_CHANNEL_GROUP) {
            let group_rows = CONV_CHANNEL_GROUP.min(channels - c0);
            kernels.pack(&mut group, first_row + c0, group_rows, k0, kb);
            let group = &group[..group_rows.div_ceil(GEMM_ROW_TILE) * kb];
            for (t, avs) in group.chunks_exact(kb).enumerate() {
                let i = c0 + t * GEMM_ROW_TILE;
                let (reload, n) = (k0 > 0, positions);
                if channels - i == 1 {
                    // A one-channel tile spans two strips, so it runs four
                    // accumulator chains, not two, as `in_place_tile`
                    // widens a short tile; `nb` clamps a narrower row's
                    // stores.
                    for y in 0..oh {
                        for x0 in (0..ow).step_by(2 * GEMM_COL_TILE) {
                            let image = &image[y * cols + x0..];
                            let nb = (2 * GEMM_COL_TILE).min(ow - x0);
                            let o = &mut block[i * positions + y * ow + x0..];
                            let bvs = taps.iter().map(|&offset| {
                                image[offset..].as_chunks().0.first_chunk().expect("slack")
                            });
                            row_tile::<1, 2, 2, ZERO_RULE, false>(
                                lanes(avs),
                                bvs,
                                reload,
                                o,
                                n,
                                nb,
                            );
                        }
                    }
                    continue;
                }
                for y in 0..oh {
                    for x0 in (0..ow).step_by(GEMM_COL_TILE) {
                        let (image, nb) = (&image[y * cols + x0..], GEMM_COL_TILE.min(ow - x0));
                        let o = &mut block[i * positions + y * ow + x0..];
                        let bvs = taps.iter().map(|&offset| {
                            std::array::from_ref(image[offset..].first_chunk().expect("slack"))
                        });
                        macro_rules! tile {
                            ($r:literal) => {
                                row_tile::<$r, 1, $r, ZERO_RULE, false>(
                                    lanes(avs),
                                    bvs,
                                    reload,
                                    o,
                                    n,
                                    nb,
                                )
                            };
                        }
                        match (channels - i).min(GEMM_ROW_TILE) {
                            2 => tile!(2),
                            3 => tile!(3),
                            _ => tile!(4),
                        }
                    }
                }
            }
        }
    }
}

/// Copies `sample` (`in_c × in_h × in_w`) into `image` as
/// [`Conv2dGeom::image_len`] lays it out — per channel, `stride²` phase
/// planes of the zero-padded channel, then slack — writing every float,
/// border zeros included, so `image` may be dirty. Returns whether the
/// sample holds a non-finite value, found by the OR of [`non_finite`] in
/// the copy's own loop: at stride 1 each row is one contiguous copy, which
/// vectorises with its scan.
#[inline(never)]
fn bordered_copy(sample: &[f32], geom: &Conv2dGeom, image: &mut [f32]) -> bool {
    #[inline(always)]
    fn copy_row<'a>(dst: &mut [f32], src: impl Iterator<Item = &'a f32>) -> u32 {
        dst.iter_mut().zip(src).fold(0, |any, (d, &v)| {
            *d = v;
            any | non_finite(v)
        })
    }
    let (in_h, in_w, s, pad) = (geom.in_h, geom.in_w, geom.stride, geom.pad);
    let (rows, cols) = geom.plane_shape();
    let (planes, slack) = image.split_at_mut(geom.in_c * s * s * rows * cols);
    slack.fill(0.0);
    let mut any = 0;
    for (p, plane) in planes.chunks_exact_mut(rows * cols).enumerate() {
        let (c, rh, rw) = (p / (s * s), p / s % s, p % s);
        let (i0, i1) = geom.valid_outputs(rh, in_h, rows);
        let (j0, j1) = geom.valid_outputs(rw, in_w, cols);
        if i0 == i1 || j0 == j1 {
            plane.fill(0.0);
            continue;
        }
        plane[..i0 * cols].fill(0.0);
        plane[i1 * cols..].fill(0.0);
        let channel = &sample[c * in_h * in_w..][..in_h * in_w];
        for (i, row) in plane.chunks_exact_mut(cols).enumerate().take(i1).skip(i0) {
            let src = &channel[(i * s + rh - pad) * in_w..][j0 * s + rw - pad..in_w];
            row[..j0].fill(0.0);
            row[j1..].fill(0.0);
            let dst = &mut row[j0..j1];
            any |= if s == 1 {
                copy_row(dst, src.iter())
            } else {
                copy_row(dst, src.iter().step_by(s))
            };
        }
    }
    any != 0
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
    pub fn rows_range(&self, range: std::ops::Range<usize>) -> MatView<'a> {
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
            (Lhs::ByRow { a: self.data, k: self.cols }, Rhs::Rows { b: other.data, n: other.cols });
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
            (Lhs::ByCol { a: self.data, m: self.cols }, Rhs::Rows { b: other.data, n: other.cols });
        gemm::<true>(lhs, rhs, self.rows, other.cols, out.data);
    }

    /// `out = self · otherᵀ` without materializing the transpose (the
    /// `x·Wᵀ` of a dense layer's training forward). The smaller factor is
    /// packed by transposed gather: `otherᵀ`, unless `self` fills a panel
    /// and has fewer rows than `other`, when each thread gathers its own
    /// rows of `self`; both give the same bits. `out` is fully
    /// overwritten, like [`MatView::matmul_into`]'s.
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
        let (m, k, n) = (self.rows, self.cols, other.rows);
        if (PANEL_WIDTH..n).contains(&m) && k > 1 {
            gemm_own_rows(self.data, other.data, k, n, out.data);
        } else {
            let (lhs, rhs) = (Lhs::ByRow { a: self.data, k }, Rhs::Cols { b: other.data, k });
            gemm::<false>(lhs, rhs, k, n, out.data);
        }
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
        gemm::<false>(Lhs::ByRow { a: self.data, k }, Rhs::Packed(panels), k, n, out.data);
    }

    /// `out = self · im2col(sample)` without the patch matrix: `self` is a
    /// convolution's `(out_c, patch_len)` kernel matrix and `out` the
    /// sample's `(out_c, out_positions)` output, fully overwritten. The
    /// sample is copied, zero-bordered, into the front of `image` (dirty is
    /// fine; it needs [`Conv2dGeom::image_len`] floats), and each tap's
    /// pixels are read from there: bit-identical to `im2col_into` then
    /// [`MatView::matmul_into`], zero rule included, at any thread count.
    ///
    /// # Panics
    ///
    /// Panics if `sample` is not `geom.input_len()` long, `self.cols()`
    /// is not `geom.patch_len()`, `out` is not `self.rows() ×
    /// geom.out_positions()` or `image` is shorter than
    /// `geom.image_len()`.
    pub fn conv_into(
        &self,
        sample: &[f32],
        geom: &Conv2dGeom,
        image: &mut [f32],
        out: MatViewMut<'_>,
    ) {
        assert_eq!(sample.len(), geom.input_len(), "conv_into: sample length mismatch");
        assert_eq!(self.cols, geom.patch_len(), "conv_into: kernels are not patch_len wide");
        assert!(
            out.shape() == (self.rows, geom.out_positions()),
            "conv_into: out is {}x{}, need {}x{}",
            out.rows,
            out.cols,
            self.rows,
            geom.out_positions()
        );
        let image = &mut image[..geom.image_len()];
        let kernels = Lhs::ByRow { a: self.data, k: self.cols };
        // The zero rule drops only a term whose pixel is ±inf or NaN, so a
        // finite sample takes every term, as a finite panel does.
        if bordered_copy(sample, geom, image) {
            direct_conv::<true>(kernels, geom, image, out.data);
        } else {
            direct_conv::<false>(kernels, geom, image, out.data);
        }
    }

    /// `out = self · v`, the body of [`Matrix::matvec_into`]: each element the
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
    /// bit-identical to `self.transpose()`'s `matvec_into` — minus the
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
                let mut out = Matrix::from_fn(m, n, |_, _| f32::NAN);
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
    /// `∂patches`, a `k = 1` outer product), the im2col products that
    /// the conv oracle forms at DCSNet's three layers (`m = cout`: 16, 8
    /// and 1 rows — the last read in place), shapes one off each edge of the register tile (`m` 1, 2, 3
    /// and `GEMM_ROW_TILE + 1`, `n` one off the strip width), of the panel
    /// (`k` one off one and two panels, so later panels reload), blocks of
    /// one row tile read in place with a later panel and columns left over
    /// for a pack, and an `m` one off each side of four ragged thread
    /// blocks. The last six straddle `matmul_t`'s choice of the factor to
    /// pack (`PANEL_WIDTH ≤ m < n` packs `a`): `m` one off a panel's width,
    /// `n` just past `m` and three times it, two panels deep and one more,
    /// so a transposed tile reloads. The next four group `a`'s own-row
    /// panels ([`OWN_ROW_GROUP`]): `m` one off two panels and three panels
    /// and five rows — two and three groups, a ragged last one — two
    /// slices deep and one more, so a transposed tile reloads across
    /// groups. The next three are shallow products around
    /// [`GEMM_SLAB_MIN_OUT_BYTES`]: an output just over it in slabs, `m`
    /// not a multiple of [`GEMM_SLAB_ROWS`], one a whole panel deep; and
    /// one just under it. The next eight cross [`GEMM_ROW_GROUP`], the rows
    /// whose micro-panels `gemm_block` packs together: `m` one short of a
    /// group, a whole one, one past it, and three past two (a short last
    /// tile in the third group), each `GEMM_PANEL_K + 1` deep, so the
    /// second slice reloads every group; each with `n` below `m`
    /// (`matmul_t` gathers `bᵀ`) and just above it (`matmul_t` packs its
    /// own rows). The last three cross the taller group of a shallow slice
    /// (`GEMM_ROW_GROUP` rows' micro-panels at full depth fill the buffer
    /// that a slice of [`SHALLOW_K`] fills with [`SHALLOW_GROUP`] rows): `m`
    /// one short of it and one past it, `n` below `m` and above it.
    const EDGE_SHAPES: [(usize, usize, usize); 43] = [
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
        (PANEL_WIDTH - 1, 2 * GEMM_PANEL_K + 1, PANEL_WIDTH),
        (PANEL_WIDTH - 1, 2 * GEMM_PANEL_K + 1, 3 * (PANEL_WIDTH - 1)),
        (PANEL_WIDTH, 2 * GEMM_PANEL_K + 1, PANEL_WIDTH + 1),
        (PANEL_WIDTH, 2 * GEMM_PANEL_K + 1, 3 * PANEL_WIDTH),
        (PANEL_WIDTH + 1, 2 * GEMM_PANEL_K + 1, PANEL_WIDTH + 2),
        (PANEL_WIDTH + 1, 2 * GEMM_PANEL_K + 1, 3 * (PANEL_WIDTH + 1)),
        (2 * PANEL_WIDTH - 1, 2 * GEMM_PANEL_K + 1, 2 * PANEL_WIDTH),
        (2 * PANEL_WIDTH, 2 * GEMM_PANEL_K + 1, 3 * PANEL_WIDTH + 1),
        (2 * PANEL_WIDTH + 1, 2 * GEMM_PANEL_K + 1, 2 * PANEL_WIDTH + 2),
        (3 * PANEL_WIDTH + 5, 2 * GEMM_PANEL_K + 1, 4 * PANEL_WIDTH + 3),
        (SLAB_OVER, 32, SLAB_COLS),
        (SLAB_OVER, GEMM_PANEL_K, SLAB_COLS),
        (SLAB_OVER - 1, 32, SLAB_COLS),
        (GEMM_ROW_GROUP - 1, GEMM_PANEL_K + 1, 2 * PANEL_WIDTH + 1),
        (GEMM_ROW_GROUP - 1, GEMM_PANEL_K + 1, GEMM_ROW_GROUP + 2),
        (GEMM_ROW_GROUP, GEMM_PANEL_K + 1, 2 * PANEL_WIDTH + 1),
        (GEMM_ROW_GROUP, GEMM_PANEL_K + 1, GEMM_ROW_GROUP + 3),
        (GEMM_ROW_GROUP + 1, GEMM_PANEL_K + 1, 2 * PANEL_WIDTH + 1),
        (GEMM_ROW_GROUP + 1, GEMM_PANEL_K + 1, GEMM_ROW_GROUP + 4),
        (2 * GEMM_ROW_GROUP + 3, GEMM_PANEL_K + 1, 2 * PANEL_WIDTH + 1),
        (2 * GEMM_ROW_GROUP + 3, GEMM_PANEL_K + 1, 2 * GEMM_ROW_GROUP + 5),
        (SHALLOW_GROUP - 1, SHALLOW_K, 2 * PANEL_WIDTH + 1),
        (SHALLOW_GROUP + 1, SHALLOW_K, 2 * PANEL_WIDTH + 1),
        (SHALLOW_GROUP + 1, SHALLOW_K, SHALLOW_GROUP + 2),
    ];

    /// Depth of the shallow group rows of [`EDGE_SHAPES`]: a training
    /// step's `∂W` at batch 32.
    const SHALLOW_K: usize = 32;

    /// Rows of one group of `gemm_block` at depth [`SHALLOW_K`].
    const SHALLOW_GROUP: usize = GEMM_ROW_GROUP * GEMM_PANEL_K / SHALLOW_K;

    /// Columns of the slab rows of [`EDGE_SHAPES`]: a ragged last panel.
    const SLAB_COLS: usize = 1027;

    /// Rows of the first output of [`SLAB_COLS`] columns over
    /// [`GEMM_SLAB_MIN_OUT_BYTES`].
    const SLAB_OVER: usize = GEMM_SLAB_MIN_OUT_BYTES / size_of::<f32>() / SLAB_COLS + 1;

    const _: () = {
        let row_bytes = SLAB_COLS * size_of::<f32>();
        assert!(SLAB_OVER * row_bytes > GEMM_SLAB_MIN_OUT_BYTES);
        assert!((SLAB_OVER - 1) * row_bytes <= GEMM_SLAB_MIN_OUT_BYTES);
        assert!(!SLAB_OVER.is_multiple_of(GEMM_SLAB_ROWS));
        assert!(!(SLAB_OVER - 1).is_multiple_of(GEMM_SLAB_ROWS));
    };

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
            let stale = Matrix::from_fn(n + PANEL_WIDTH + 1, k + GEMM_PANEL_K + 1, |_, _| f32::NAN);
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

    /// Holds [`MatView::conv_into`] to its oracle, `im2col_into` then
    /// `matmul_into`, bit for bit at thread budgets 1, 2 and 4, each call
    /// into an output and an image buffer full of NaN: a float the driver
    /// does not write, border or slack, shows.
    fn check_conv(kernels: &Matrix, sample: &[f32], geom: &Conv2dGeom, what: &str) {
        let positions = geom.out_positions();
        let mut patches = Matrix::zeros(geom.patch_len(), positions);
        crate::im2col_into(sample, geom, patches.as_mut_slice());
        let mut want = Matrix::zeros(kernels.rows(), positions);
        kernels.as_view().matmul_into(patches.as_view(), want.as_view_mut());
        for threads in [1, 2, 4] {
            crate::parallel::with_thread_budget(threads, || {
                let mut image = vec![f32::NAN; geom.image_len() + 3];
                let mut out = Matrix::from_fn(kernels.rows(), positions, |_, _| f32::NAN);
                kernels.as_view().conv_into(sample, geom, &mut image, out.as_view_mut());
                assert_bitwise(&out, &want, &format!("{what}, {geom:?}, at {threads} threads"));
            });
        }
    }

    /// Kernels of `out_c` rows for `geom`, one weight in five exactly zero.
    fn conv_kernels(rng: &mut crate::OrcoRng, out_c: usize, geom: &Conv2dGeom) -> Matrix {
        Matrix::from_fn(out_c, geom.patch_len(), |r, c| {
            if (r + c) % 5 == 0 {
                0.0
            } else {
                rng.uniform(-1.0, 1.0)
            }
        })
    }

    /// Kernel 1, 2, 3 and 5 by pad 0, 1 and 2 by stride 1, 2 and 3, each
    /// at output widths 5, 14, 16, 17, 28, 32 and 33 — a ragged last strip,
    /// one-strip rows and strips that end on a row — with the output
    /// channels cycling through 1–5, 8, 16 and 17, so every row-tile
    /// remainder and, at 17 over two threads, a block starting mid-tile.
    /// Then a one-channel tile (1 and 5 output channels), which spans two
    /// strips, at output widths 16, 17, 32 and 33.
    #[test]
    fn the_direct_conv_matches_im2col_then_matmul_on_every_geometry() {
        const OUT_C: [usize; 8] = [1, 2, 3, 4, 5, 8, 16, 17];
        let mut rng = crate::OrcoRng::from_label("direct-conv", 0);
        let mut case = 0;
        for kernel in [1, 2, 3, 5] {
            for pad in [0, 1, 2] {
                for stride in [1, 2, 3] {
                    for out_w in [5, 14, 16, 17, 28, 32, 33] {
                        let in_w = (out_w - 1) * stride + kernel - 2 * pad;
                        let in_h = kernel.max(3 + case % 3);
                        let geom = Conv2dGeom::new(1 + case % 2, in_h, in_w, kernel, stride, pad);
                        assert_eq!(geom.out_w(), out_w);
                        let kernels = conv_kernels(&mut rng, OUT_C[case % OUT_C.len()], &geom);
                        let sample: Vec<f32> =
                            (0..geom.input_len()).map(|_| rng.uniform(-1.0, 1.0)).collect();
                        check_conv(&kernels, &sample, &geom, "geometry");
                        case += 1;
                    }
                }
            }
        }
        // A one-channel tile, alone and after a whole one, at one strip, a
        // strip and a column, two strips, and two strips and a column.
        for out_c in [1, 5] {
            for out_w in [16, 17, 32, 33] {
                for stride in [1, 2] {
                    let geom = Conv2dGeom::new(2, 4, (out_w - 1) * stride + 1, 3, stride, 1);
                    assert_eq!(geom.out_w(), out_w);
                    let kernels = conv_kernels(&mut rng, out_c, &geom);
                    let sample: Vec<f32> =
                        (0..geom.input_len()).map(|_| rng.uniform(-1.0, 1.0)).collect();
                    check_conv(&kernels, &sample, &geom, "one-channel tile");
                }
            }
        }
    }

    /// 32 channels at 3×3: a patch of 288 taps spans two table slices, so
    /// every tile reloads what the first slice stored. The last three
    /// output channel counts are one short of [`CONV_CHANNEL_GROUP`], one
    /// past it and three past two groups (a short last tile in the third),
    /// so each slice packs every group's kernels again.
    #[test]
    fn the_direct_conv_reloads_across_table_slices() {
        const G: usize = CONV_CHANNEL_GROUP;
        let mut rng = crate::OrcoRng::from_label("direct-conv-deep", 0);
        for (stride, out_c) in [(1, 16), (1, 5), (2, 3), (1, G - 1), (1, G + 1), (1, 2 * G + 3)] {
            let geom = Conv2dGeom::new(32, 9, 18, 3, stride, 1);
            assert!(geom.patch_len() > GEMM_PANEL_K);
            let kernels = conv_kernels(&mut rng, out_c, &geom);
            let sample: Vec<f32> = (0..geom.input_len()).map(|_| rng.uniform(-1.0, 1.0)).collect();
            check_conv(&kernels, &sample, &geom, "two slices");
        }
    }

    /// A NaN pixel in channel 0 and a ±inf pixel in channel 1, each under
    /// a zero weight and under a non-zero one: output channel `o` zeroes
    /// channel 0's weights when `o` is even and channel 1's when `o / 2`
    /// is even, so the four channels cover every pairing. `matmul`'s zero
    /// rule leaves a zero weight's outputs finite.
    #[test]
    fn the_direct_conv_keeps_the_zero_rule() {
        let mut rng = crate::OrcoRng::from_label("direct-conv-non-finite", 0);
        for (stride, infinity) in [(1, f32::INFINITY), (2, f32::NEG_INFINITY)] {
            let geom = Conv2dGeom::new(2, 9, 10, 3, stride, 1);
            let taps = geom.patch_len() / 2;
            let kernels = Matrix::from_fn(8, geom.patch_len(), |o, t| {
                let zero = if t < taps { o % 2 == 0 } else { o / 2 % 2 == 0 };
                if zero {
                    0.0
                } else {
                    rng.uniform(-1.0, 1.0)
                }
            });
            let mut sample: Vec<f32> =
                (0..geom.input_len()).map(|_| rng.uniform(-1.0, 1.0)).collect();
            sample[4 * 10 + 5] = f32::NAN;
            sample[90 + 2 * 10 + 3] = infinity;
            check_conv(&kernels, &sample, &geom, "non-finite pixels");
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
    fn matvec_variants_bit_identical() {
        let a = a();
        let v3 = [0.3f32, -1.0, 2.5];
        let v5 = [1.0f32, 0.0, -0.5, 2.0, 0.25];
        let mut out = vec![0.0f32; 5];
        a.as_view().matvec_into(&v3, &mut out);
        let mut want = Matrix::zeros(5, 1);
        a.as_view().matmul_t_into(
            Matrix::from_vec(1, 3, v3.to_vec()).unwrap().as_view(),
            want.as_view_mut(),
        );
        assert_eq!(out, want.as_slice());
        let mut out_t = vec![9.0f32; 3];
        a.as_view().t_matvec_into(&v5, &mut out_t);
        let mut want_t = vec![0.0f32; 3];
        a.transpose().as_view().matvec_into(&v5, &mut want_t);
        assert_eq!(out_t, want_t);
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
        let mut out2 = Matrix::from_fn(2, 4, |_, _| 3.0);
        kless.as_view().matmul_into(bless.as_view(), out2.as_view_mut());
        assert_eq!(out2, Matrix::zeros(2, 4), "k = 0 product must still zero the buffer");
    }
}
