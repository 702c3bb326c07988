//! Orthogonal matching pursuit — the greedy classical CS decoder.
//!
//! Builds the support set one atom at a time (largest residual
//! correlation), re-solving a small least-squares problem at each step.
//! Complements [`crate::cs::ista`]: OMP is faster for very sparse signals
//! but needs the sparsity `k` as input and degrades sharply when `k` is
//! misestimated — another inflexibility of classical CDA.

use orco_tensor::Matrix;

/// Solves the dense least-squares system `G·x = b` (G symmetric positive
/// definite) by Gaussian elimination with partial pivoting.
fn solve_spd(g: &Matrix, b: &[f32]) -> Vec<f32> {
    let n = g.rows();
    assert_eq!(g.cols(), n, "solve_spd: matrix must be square");
    assert_eq!(b.len(), n, "solve_spd: rhs length mismatch");
    // Augmented elimination.
    let mut a: Vec<Vec<f32>> = (0..n)
        .map(|r| {
            let mut row: Vec<f32> = g.row(r).to_vec();
            row.push(b[r]);
            row
        })
        .collect();
    for col in 0..n {
        // Pivot.
        let pivot = (col..n)
            .max_by(|&i, &j| a[i][col].abs().partial_cmp(&a[j][col].abs()).unwrap())
            .unwrap();
        a.swap(col, pivot);
        let p = a[col][col];
        if p.abs() < 1e-12 {
            continue; // singular direction; leave zero
        }
        for r in 0..n {
            if r != col {
                let f = a[r][col] / p;
                if f != 0.0 {
                    let (pivot_row, target_row) = if r < col {
                        let (lo, hi) = a.split_at_mut(col);
                        (&hi[0], &mut lo[r])
                    } else {
                        let (lo, hi) = a.split_at_mut(r);
                        (&lo[col], &mut hi[0])
                    };
                    for (t, &pv) in target_row[col..=n].iter_mut().zip(&pivot_row[col..=n]) {
                        *t -= f * pv;
                    }
                }
            }
        }
    }
    (0..n)
        .map(|r| {
            let p = a[r][r];
            if p.abs() < 1e-12 {
                0.0
            } else {
                a[r][n] / p
            }
        })
        .collect()
}

/// Reusable buffers for repeated OMP solves against one sensing matrix —
/// per-frame, the historical loop materialized a fresh `Aᵀ` (and three
/// more vectors) on **every pursuit iteration**; with the scratch and the
/// `t_matvec_into` kernel those allocations are gone from the batched
/// decode hot loop.
#[derive(Debug, Clone, Default)]
pub(crate) struct OmpScratch {
    corr: Vec<f32>,
    residual: Vec<f32>,
    approx: Vec<f32>,
}

/// The workspace-reusing OMP core: correlations are computed with
/// [`Matrix::t_matvec_into`] (no `Aᵀ` materialization) into buffers that
/// survive across frames. Bit-identical to the historical allocating
/// loop.
///
/// # Panics
///
/// Panics if `y.len() != a.rows()` or `k` is zero or exceeds `a.rows()`.
#[must_use]
pub(crate) fn omp_reconstruct_with(
    a: &Matrix,
    y: &[f32],
    k: usize,
    ws: &mut OmpScratch,
) -> Vec<f32> {
    assert_eq!(y.len(), a.rows(), "omp: measurement length mismatch");
    assert!(k > 0 && k <= a.rows(), "omp: k must be in 1..=m");

    let n = a.cols();
    let mut support: Vec<usize> = Vec::with_capacity(k);
    let mut solution: Vec<f32> = Vec::new();
    ws.corr.clear();
    ws.corr.resize(n, 0.0);
    ws.residual.clear();
    ws.residual.extend_from_slice(y);

    for _ in 0..k {
        // Atom with the largest |correlation| to the residual.
        a.t_matvec_into(&ws.residual, &mut ws.corr);
        let best = ws
            .corr
            .iter()
            .enumerate()
            .filter(|(i, _)| !support.contains(i))
            .max_by(|(_, x), (_, z)| x.abs().partial_cmp(&z.abs()).unwrap())
            .map(|(i, _)| i);
        let Some(best) = best else { break };
        if ws.corr[best].abs() < 1e-9 {
            break;
        }
        support.push(best);

        // Least squares on the support: minimize ‖A_S x − y‖.
        let a_s = a.select_cols(&support); // (m, |S|)
        let gram = a_s.t_matmul(&a_s); // (|S|, |S|)
        let rhs = a_s.t_matmul(&Matrix::col_vector(y)).into_vec();
        solution = solve_spd(&gram, &rhs);

        // New residual.
        ws.approx.clear();
        ws.approx.resize(a_s.rows(), 0.0);
        a_s.matvec_into(&solution, &mut ws.approx);
        for ((r, &yi), &ai) in ws.residual.iter_mut().zip(y).zip(&ws.approx) {
            *r = yi - ai;
        }
        let rnorm: f32 = ws.residual.iter().map(|v| v * v).sum::<f32>().sqrt();
        if rnorm < 1e-7 {
            break;
        }
    }

    let mut coefficients = vec![0.0f32; n];
    for (&idx, &val) in support.iter().zip(&solution) {
        coefficients[idx] = val;
    }
    coefficients
}

#[cfg(test)]
mod tests {
    use super::*;
    use orco_tensor::OrcoRng;

    /// One solve on a fresh scratch: `(θ, ‖Aθ − y‖)`.
    fn solve(a: &Matrix, y: &[f32], k: usize) -> (Vec<f32>, f32) {
        let theta = omp_reconstruct_with(a, y, k, &mut OmpScratch::default());
        let mut ax = vec![0.0; a.rows()];
        a.matvec_into(&theta, &mut ax);
        let rnorm = ax.iter().zip(y).map(|(ai, yi)| (yi - ai).powi(2)).sum::<f32>().sqrt();
        (theta, rnorm)
    }

    fn support(theta: &[f32]) -> Vec<usize> {
        (0..theta.len()).filter(|&i| theta[i] != 0.0).collect()
    }

    #[test]
    fn recovers_exactly_sparse_signal() {
        let mut rng = OrcoRng::from_label("omp", 0);
        let (m, n) = (30, 80);
        let a = Matrix::from_fn(m, n, |_, _| rng.normal(0.0, (1.0 / m as f32).sqrt()));
        let mut theta = vec![0.0f32; n];
        theta[7] = 2.0;
        theta[33] = -1.5;
        theta[61] = 0.8;
        let mut y = vec![0.0; a.rows()];
        a.matvec_into(&theta, &mut y);
        let (coefficients, residual_norm) = solve(&a, &y, 3);
        assert_eq!(support(&coefficients), vec![7, 33, 61]);
        for (rec, truth) in coefficients.iter().zip(&theta) {
            assert!((rec - truth).abs() < 1e-3, "{rec} vs {truth}");
        }
        assert!(residual_norm < 1e-3);
    }

    #[test]
    fn underestimated_sparsity_degrades() {
        let mut rng = OrcoRng::from_label("omp-k", 0);
        let (m, n) = (30, 80);
        let a = Matrix::from_fn(m, n, |_, _| rng.normal(0.0, (1.0 / m as f32).sqrt()));
        let mut theta = vec![0.0f32; n];
        for i in [5usize, 20, 40, 70] {
            theta[i] = 1.0;
        }
        let mut y = vec![0.0; a.rows()];
        a.matvec_into(&theta, &mut y);
        let (_, full) = solve(&a, &y, 4);
        let (_, starved) = solve(&a, &y, 1);
        assert!(starved > full * 5.0);
    }

    #[test]
    fn solve_spd_known_system() {
        // [[2,0],[0,4]] x = [2, 8] → x = [1, 2]
        let g = Matrix::from_vec(2, 2, vec![2.0, 0.0, 0.0, 4.0]).unwrap();
        let x = solve_spd(&g, &[2.0, 8.0]);
        assert!((x[0] - 1.0).abs() < 1e-6);
        assert!((x[1] - 2.0).abs() < 1e-6);
    }

    #[test]
    fn solve_spd_with_pivoting() {
        // Requires a row swap: [[0,1],[1,0]] x = [3, 5] → x = [5, 3]
        let g = Matrix::from_vec(2, 2, vec![0.0, 1.0, 1.0, 0.0]).unwrap();
        let x = solve_spd(&g, &[3.0, 5.0]);
        assert!((x[0] - 5.0).abs() < 1e-6);
        assert!((x[1] - 3.0).abs() < 1e-6);
    }

    #[test]
    fn workspace_reuse_is_bit_identical_to_a_fresh_scratch() {
        let mut rng = OrcoRng::from_label("omp-ws", 0);
        let a = Matrix::from_fn(20, 50, |_, _| rng.normal(0.0, (1.0 / 20.0f32).sqrt()));
        let mut ws = OmpScratch::default();
        for frame in 0..3 {
            let y: Vec<f32> = (0..20).map(|i| ((i * (frame + 2)) as f32 * 0.21).cos()).collect();
            let shared = omp_reconstruct_with(&a, &y, 5, &mut ws);
            assert_eq!(shared, solve(&a, &y, 5).0, "frame {frame} diverged");
        }
    }

    #[test]
    fn zero_signal_selects_nothing() {
        let mut rng = OrcoRng::from_label("omp-zero", 0);
        let a = Matrix::from_fn(10, 20, |_, _| rng.normal(0.0, 0.3));
        let (coefficients, _) = solve(&a, &[0.0; 10], 3);
        assert!(coefficients.iter().all(|&c| c == 0.0));
    }
}
