//! Property-based tests for the linear-algebra substrate.
//!
//! These check the algebraic laws the rest of the workspace silently relies
//! on: GEMM distributivity/associativity (within f32 tolerance), transpose
//! identities, im2col/col2im_into adjointness, and serializer round-trips.

use orco_tensor::{col2im_into, im2col, im2col_into, serialize, Conv2dGeom, Matrix};
use proptest::prelude::*;

/// Strategy: a matrix with dims in [1, max_dim] and small-magnitude entries.
fn matrix_strategy(max_dim: usize) -> impl Strategy<Value = Matrix> {
    (1..=max_dim, 1..=max_dim).prop_flat_map(|(r, c)| {
        prop::collection::vec(-10.0f32..10.0, r * c)
            .prop_map(move |data| Matrix::from_vec(r, c, data).unwrap())
    })
}

/// Strategy: a pair of matrices with compatible inner dimension for matmul.
fn matmul_pair(max_dim: usize) -> impl Strategy<Value = (Matrix, Matrix)> {
    (1..=max_dim, 1..=max_dim, 1..=max_dim).prop_flat_map(|(m, k, n)| {
        let a = prop::collection::vec(-5.0f32..5.0, m * k)
            .prop_map(move |d| Matrix::from_vec(m, k, d).unwrap());
        let b = prop::collection::vec(-5.0f32..5.0, k * n)
            .prop_map(move |d| Matrix::from_vec(k, n, d).unwrap());
        (a, b)
    })
}

/// Geometries `pad >= kernel`, `kernel == in + 2·pad` (one output
/// position), an axis whose outer taps only ever read padding, and a
/// stride wider than the kernel — one draw in four comes from here.
const EDGE_GEOMS: [(usize, usize, usize, usize, usize, usize); 6] = [
    (1, 1, 1, 1, 1, 3),
    (2, 2, 3, 2, 1, 2),
    (1, 3, 1, 5, 1, 2),
    (2, 1, 4, 3, 3, 3),
    (1, 1, 5, 3, 2, 1),
    (3, 7, 2, 2, 3, 0),
];

/// Strategy: `(in_c, h, w, kernel, stride, pad)` over non-square inputs,
/// kernels 1–5, strides 1–3 and pads 0–3; callers `prop_assume!` that the
/// padded input covers the kernel.
fn conv_geom_strategy() -> impl Strategy<Value = (usize, usize, usize, usize, usize, usize)> {
    (
        0..4 * EDGE_GEOMS.len(),
        (1usize..=3, 1usize..=7, 1usize..=7, 1usize..=5, 1usize..=3, 0usize..=3),
    )
        .prop_map(|(pick, drawn)| EDGE_GEOMS.get(pick).copied().unwrap_or(drawn))
}

/// [`im2col`] one element at a time: the scalar loop the row-slice
/// lowering replaced, kept here as its oracle.
fn im2col_oracle(input: &[f32], geom: &Conv2dGeom) -> Vec<f32> {
    let (oh, ow, k) = (geom.out_h(), geom.out_w(), geom.kernel);
    let mut out = vec![0.0f32; geom.patch_len() * oh * ow];
    for c in 0..geom.in_c {
        for kh in 0..k {
            for kw in 0..k {
                let patch_row = (c * k + kh) * k + kw;
                for oy in 0..oh {
                    // signed input row: oy*stride + kh - pad
                    let iy = (oy * geom.stride + kh) as isize - geom.pad as isize;
                    if iy < 0 || iy >= geom.in_h as isize {
                        continue;
                    }
                    for ox in 0..ow {
                        let ix = (ox * geom.stride + kw) as isize - geom.pad as isize;
                        if ix < 0 || ix >= geom.in_w as isize {
                            continue;
                        }
                        let v = input[(c * geom.in_h + iy as usize) * geom.in_w + ix as usize];
                        out[patch_row * oh * ow + oy * ow + ox] = v;
                    }
                }
            }
        }
    }
    out
}

/// [`col2im_into`] one element at a time, contributions arriving in ascending
/// `(kh, kw)` — the scalar loop the row-slice scatter replaced.
fn col2im_oracle(patches: &[f32], geom: &Conv2dGeom) -> Vec<f32> {
    let (oh, ow, k) = (geom.out_h(), geom.out_w(), geom.kernel);
    let mut img = vec![0.0f32; geom.input_len()];
    for c in 0..geom.in_c {
        for kh in 0..k {
            for kw in 0..k {
                let row = &patches[((c * k + kh) * k + kw) * oh * ow..][..oh * ow];
                for oy in 0..oh {
                    let iy = (oy * geom.stride + kh) as isize - geom.pad as isize;
                    if iy < 0 || iy >= geom.in_h as isize {
                        continue;
                    }
                    for ox in 0..ow {
                        let ix = (ox * geom.stride + kw) as isize - geom.pad as isize;
                        if ix < 0 || ix >= geom.in_w as isize {
                            continue;
                        }
                        img[(c * geom.in_h + iy as usize) * geom.in_w + ix as usize] +=
                            row[oy * ow + ox];
                    }
                }
            }
        }
    }
    img
}

fn bits(values: &[f32]) -> Vec<u32> {
    values.iter().map(|v| v.to_bits()).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn transpose_is_involution(m in matrix_strategy(12)) {
        prop_assert_eq!(m.transpose().transpose(), m);
    }

    #[test]
    fn transpose_swaps_matmul((a, b) in matmul_pair(8)) {
        // (AB)ᵀ == Bᵀ Aᵀ
        let lhs = a.matmul(&b).transpose();
        let rhs = b.transpose().matmul(&a.transpose());
        prop_assert!(lhs.max_abs_diff(&rhs) <= 1e-3, "max diff {}", lhs.max_abs_diff(&rhs));
    }

    #[test]
    fn t_matmul_equals_explicit((a, b) in matmul_pair(8)) {
        // aᵀ·(a·b) two ways
        let prod = a.matmul(&b);
        let lhs = a.t_matmul(&prod);
        let rhs = a.transpose().matmul(&prod);
        prop_assert!(lhs.max_abs_diff(&rhs) <= 1e-2);
    }

    #[test]
    fn matmul_t_equals_explicit((a, b) in matmul_pair(8)) {
        // a · (bᵀ)ᵀ computed via matmul_t_into must equal a · b.
        let mut lhs = Matrix::zeros(a.rows(), b.cols());
        a.as_view().matmul_t_into(b.transpose().as_view(), lhs.as_view_mut());
        let rhs = a.matmul(&b);
        prop_assert!(lhs.max_abs_diff(&rhs) <= 1e-2);
    }

    #[test]
    fn view_kernels_bit_identical_to_owning_api((a, b) in matmul_pair(8)) {
        // The `_into` kernels over borrowed views must reproduce the
        // allocating products **bit for bit** — same kernels, same
        // summation order — even into a dirty reused buffer.
        let mut out = Matrix::from_fn(3, 3, |_, _| f32::NAN);
        out.reset(a.rows(), b.cols());
        a.as_view().matmul_into(b.as_view(), out.as_view_mut());
        prop_assert_eq!(&out, &a.matmul(&b));

        out.reset(a.cols(), b.cols());
        let ab = a.matmul(&b);
        a.as_view().t_matmul_into(ab.as_view(), out.as_view_mut());
        prop_assert_eq!(&out, &a.t_matmul(&ab));

    }

    #[test]
    fn matvec_into_variants_bit_identical(m in matrix_strategy(12), seed in 0u64..1000) {
        let mut rng = orco_tensor::OrcoRng::from_seed_u64(seed);
        let v_cols: Vec<f32> = (0..m.cols()).map(|_| rng.uniform(-3.0, 3.0)).collect();
        let v_rows: Vec<f32> = (0..m.rows()).map(|_| rng.uniform(-3.0, 3.0)).collect();
        let mut out = vec![f32::NAN; m.rows()];
        m.matvec_into(&v_cols, &mut out);
        let mut want = Matrix::zeros(m.rows(), 1);
        let v_row = Matrix::from_vec(1, m.cols(), v_cols.clone()).unwrap();
        m.as_view().matmul_t_into(v_row.as_view(), want.as_view_mut());
        prop_assert_eq!(out.as_slice(), want.as_slice());
        let mut out_t = vec![f32::NAN; m.cols()];
        m.t_matvec_into(&v_rows, &mut out_t);
        let mut want_t = vec![f32::NAN; m.cols()];
        m.transpose().matvec_into(&v_rows, &mut want_t);
        prop_assert_eq!(&out_t, &want_t);
    }

    #[test]
    fn row_range_views_agree(m in matrix_strategy(10), seed in 0u64..1000) {
        let mut rng = orco_tensor::OrcoRng::from_seed_u64(seed);
        let lo = (rng.next_u64() as usize) % m.rows();
        let hi = lo + (rng.next_u64() as usize) % (m.rows() - lo + 1);
        prop_assert_eq!(m.view_rows(lo..hi).to_matrix(), m.slice_rows(lo..hi));
    }

    #[test]
    fn matmul_distributes_over_addition((a, b) in matmul_pair(8), seed in 0u64..1000) {
        // a(b + c) == ab + ac, with c the same shape as b.
        let mut rng = orco_tensor::OrcoRng::from_seed_u64(seed);
        let c = Matrix::from_fn(b.rows(), b.cols(), |_, _| rng.uniform(-5.0, 5.0));
        let lhs = a.matmul(&(&b + &c));
        let rhs = &a.matmul(&b) + &a.matmul(&c);
        prop_assert!(lhs.max_abs_diff(&rhs) <= 1e-2, "max diff {}", lhs.max_abs_diff(&rhs));
    }

    #[test]
    fn addition_commutes(m in matrix_strategy(12), seed in 0u64..1000) {
        let mut rng = orco_tensor::OrcoRng::from_seed_u64(seed);
        let n = Matrix::from_fn(m.rows(), m.cols(), |_, _| rng.uniform(-10.0, 10.0));
        prop_assert_eq!(&m + &n, &n + &m);
    }

    #[test]
    fn scale_then_sum_is_linear(m in matrix_strategy(12), k in -4.0f32..4.0) {
        let scaled_sum = m.scale(k).sum();
        prop_assert!((scaled_sum - k * m.sum()).abs() <= 1e-2 * (1.0 + m.sum().abs() * k.abs()));
    }

    #[test]
    fn serializer_roundtrips(m in matrix_strategy(10)) {
        let text = serialize::matrix_to_text(&m);
        let back = serialize::matrix_from_text(&text).unwrap();
        prop_assert_eq!(m, back);
    }

    #[test]
    fn im2col_col2im_adjoint(
        (c, h, w, k, stride, pad) in (1usize..=2, 3usize..=6, 3usize..=6, 1usize..=3, 1usize..=2, 0usize..=1),
        seed in 0u64..1000,
    ) {
        prop_assume!(h + 2 * pad >= k && w + 2 * pad >= k);
        let geom = Conv2dGeom::new(c, h, w, k, stride, pad);
        let mut rng = orco_tensor::OrcoRng::from_seed_u64(seed);
        let x: Vec<f32> = (0..geom.input_len()).map(|_| rng.uniform(-1.0, 1.0)).collect();
        let p = Matrix::from_fn(geom.patch_len(), geom.out_positions(), |_, _| rng.uniform(-1.0, 1.0));
        let patches = im2col(&x, &geom);
        let lhs: f32 = patches.as_slice().iter().zip(p.as_slice()).map(|(a, b)| a * b).sum();
        let mut scattered = vec![f32::NAN; geom.input_len()];
        col2im_into(p.as_slice(), &geom, &mut scattered);
        let rhs: f32 = x.iter().zip(&scattered).map(|(a, b)| a * b).sum();
        prop_assert!((lhs - rhs).abs() < 1e-2 * (1.0 + lhs.abs()), "adjoint violated: {} vs {}", lhs, rhs);
    }

    #[test]
    fn im2col_into_a_dirty_buffer_matches_the_scalar_oracle(
        (c, h, w, k, stride, pad) in conv_geom_strategy(),
        seed in 0u64..1000,
    ) {
        prop_assume!(h + 2 * pad >= k && w + 2 * pad >= k);
        let geom = Conv2dGeom::new(c, h, w, k, stride, pad);
        let mut rng = orco_tensor::OrcoRng::from_seed_u64(seed);
        let x: Vec<f32> = (0..geom.input_len()).map(|_| rng.uniform(-1.0, 1.0)).collect();
        let want = im2col_oracle(&x, &geom);
        let mut got = vec![f32::NAN; want.len()];
        im2col_into(&x, &geom, &mut got);
        prop_assert_eq!(bits(&got), bits(&want), "{:?}", geom);
        prop_assert_eq!(bits(im2col(&x, &geom).as_slice()), bits(&want), "{:?}", geom);
    }

    #[test]
    fn col2im_into_a_dirty_image_matches_the_scalar_oracle(
        (c, h, w, k, stride, pad) in conv_geom_strategy(),
        seed in 0u64..1000,
    ) {
        prop_assume!(h + 2 * pad >= k && w + 2 * pad >= k);
        let geom = Conv2dGeom::new(c, h, w, k, stride, pad);
        let mut rng = orco_tensor::OrcoRng::from_seed_u64(seed);
        let p = Matrix::from_fn(geom.patch_len(), geom.out_positions(), |_, _| rng.uniform(-1.0, 1.0));
        let want = col2im_oracle(p.as_slice(), &geom);
        let mut got = vec![f32::NAN; want.len()];
        col2im_into(p.as_slice(), &geom, &mut got);
        prop_assert_eq!(bits(&got), bits(&want), "{:?}", geom);
    }

    #[test]
    fn argmax_rows_is_maximal(m in matrix_strategy(10)) {
        let idx = m.argmax_rows();
        for (r, &i) in idx.iter().enumerate() {
            let row = m.row(r);
            for &v in row {
                prop_assert!(row[i] >= v);
            }
        }
    }
}
