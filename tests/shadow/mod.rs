//! An `f64` shadow of the codec's arithmetic, for error bars on the
//! absolute pins.
//!
//! Every function here computes in `f64` from the same `f32` weights and
//! inputs the `f32` path reads, one protocol step at a time, and shares no
//! kernel code with it: products are direct loops (convolutions too, with
//! no im2col), the sigmoid is `1 / (1 + f64::exp(-x))`, the tanh
//! `f64::tanh`, and Adam keeps its moments in `f64`. Nothing here is
//! rounded to `f32`, so the distance of a pinned `f32` value from its
//! shadow is the `f32` path's rounding error (to within `f64`'s own,
//! ~2⁻²⁹ times smaller).
//!
//! [`Errors`] measures that distance in `f32` ulps; [`check_product`] holds
//! each GEMM output to Higham's forward error bound for a recursively
//! summed dot product, `|ŝ − s| ≤ γ_k · Σ|aᵢbᵢ|` with `γ_k = k·u / (1 −
//! k·u)`, `u = 2⁻²⁴`, and to the running-error bound of the kernels'
//! ascending order (*Accuracy and Stability of Numerical Algorithms*,
//! ch. 3).

use orcodcs_repro::nn::{Activation, Loss};
use orcodcs_repro::tensor::{Conv2dGeom, Matrix};

/// A row-major `f64` matrix.
#[derive(Debug, Clone)]
pub struct M64 {
    pub rows: usize,
    pub cols: usize,
    pub data: Vec<f64>,
}

impl M64 {
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Self { rows, cols, data: vec![0.0; rows * cols] }
    }

    /// `m`'s values, widened exactly.
    pub fn of(m: &Matrix) -> Self {
        let data = m.as_slice().iter().map(|&v| f64::from(v)).collect();
        Self { rows: m.rows(), cols: m.cols(), data }
    }

    fn row(&self, r: usize) -> &[f64] {
        &self.data[r * self.cols..][..self.cols]
    }

    fn row_mut(&mut self, r: usize) -> &mut [f64] {
        &mut self.data[r * self.cols..][..self.cols]
    }
}

fn activate(act: Activation, x: f64) -> f64 {
    match act {
        Activation::Identity => x,
        Activation::Sigmoid => 1.0 / (1.0 + (-x).exp()),
        Activation::Relu => x.max(0.0),
        Activation::Tanh => x.tanh(),
    }
}

/// `σ′` at the pre-activation whose output is `y`.
fn derivative(act: Activation, y: f64) -> f64 {
    match act {
        Activation::Identity => 1.0,
        Activation::Sigmoid => y * (1.0 - y),
        Activation::Relu => f64::from(u8::from(y > 0.0)),
        Activation::Tanh => 1.0 - y * y,
    }
}

/// What a layer is, without its parameters.
#[derive(Debug, Clone, Copy)]
pub enum Kind {
    /// `σ(x·Wᵀ + b)`, `W` shaped `(out, in)`, `b` `(1, out)`.
    Dense(Activation),
    /// `σ(K ⋆ x + b)`, `K` shaped `(out_c, in_c·k·k)`, `b` `(1, out_c)`.
    Conv { geom: Conv2dGeom, out_c: usize, act: Activation },
    /// The centre `(c, out, out)` window of a `(c, side, side)` map.
    Crop { channels: usize, side: usize, out: usize },
}

impl Kind {
    fn params(self) -> usize {
        match self {
            Kind::Dense(_) | Kind::Conv { .. } => 2,
            Kind::Crop { .. } => 0,
        }
    }
}

/// A layer stack in `f64`: kinds, and the `f32` parameters each reads, in
/// the order `for_each_param` visits them.
#[derive(Debug, Clone)]
pub struct Net64 {
    kinds: Vec<Kind>,
    params: Vec<M64>,
}

impl Net64 {
    /// # Panics
    ///
    /// Panics if `params` is not what `kinds` read.
    pub fn new(kinds: Vec<Kind>, params: &[Matrix]) -> Self {
        assert_eq!(kinds.iter().map(|k| k.params()).sum::<usize>(), params.len());
        Self { kinds, params: params.iter().map(M64::of).collect() }
    }

    /// The parameters, to step.
    pub fn params(&self) -> &[M64] {
        &self.params
    }

    /// Each layer's output, the last the stack's.
    pub fn forward(&self, x: &M64) -> Vec<M64> {
        let mut outs: Vec<M64> = Vec::with_capacity(self.kinds.len());
        let mut p = 0;
        for &kind in &self.kinds {
            let input = outs.last().unwrap_or(x);
            let out = match kind {
                Kind::Dense(act) => dense(&self.params[p], &self.params[p + 1], act, input),
                Kind::Conv { geom, out_c, act } => {
                    conv(geom, out_c, &self.params[p], &self.params[p + 1], act, input)
                }
                Kind::Crop { channels, side, out } => crop(channels, side, out, input),
            };
            p += kind.params();
            outs.push(out);
        }
        outs
    }

    /// The gradients of every parameter (in order) and of `x`, given the
    /// stack's outputs on `x` and `∂L/∂output`.
    pub fn backward(&self, x: &M64, outs: &[M64], grad_out: &M64) -> (Vec<M64>, M64) {
        let mut grads = vec![M64::zeros(0, 0); self.params.len()];
        let mut g = grad_out.clone();
        let mut p = self.params.len();
        for (i, &kind) in self.kinds.iter().enumerate().rev() {
            let input = if i == 0 { x } else { &outs[i - 1] };
            p -= kind.params();
            g = match kind {
                Kind::Dense(act) => {
                    let (gw, gb, gx) = dense_back(&self.params[p], act, input, &outs[i], &g);
                    (grads[p], grads[p + 1]) = (gw, gb);
                    gx
                }
                Kind::Conv { geom, out_c, act } => {
                    let (gk, gb, gx) =
                        conv_back(geom, out_c, &self.params[p], act, input, &outs[i], &g);
                    (grads[p], grads[p + 1]) = (gk, gb);
                    gx
                }
                Kind::Crop { channels, side, out } => crop_back(channels, side, out, &g),
            };
        }
        (grads, g)
    }
}

fn dense(w: &M64, b: &M64, act: Activation, x: &M64) -> M64 {
    let mut y = M64::zeros(x.rows, w.rows);
    for r in 0..x.rows {
        for o in 0..w.rows {
            let dot: f64 = x.row(r).iter().zip(w.row(o)).map(|(a, b)| a * b).sum();
            y.row_mut(r)[o] = activate(act, dot + b.data[o]);
        }
    }
    y
}

/// `(∂W, ∂b, ∂x)`.
fn dense_back(w: &M64, act: Activation, x: &M64, y: &M64, g: &M64) -> (M64, M64, M64) {
    let delta: Vec<f64> =
        g.data.iter().zip(&y.data).map(|(g, &y)| g * derivative(act, y)).collect();
    let (batch, out) = (x.rows, w.rows);
    let (mut gw, mut gb, mut gx) =
        (M64::zeros(out, w.cols), M64::zeros(1, out), M64::zeros(batch, w.cols));
    for r in 0..batch {
        for o in 0..out {
            let d = delta[r * out + o];
            gb.data[o] += d;
            for i in 0..w.cols {
                gw.row_mut(o)[i] += d * x.row(r)[i];
                gx.row_mut(r)[i] += d * w.row(o)[i];
            }
        }
    }
    (gw, gb, gx)
}

/// Calls `f(position, k index, input index)` for every tap of every output
/// position of `geom` that lands inside the (unpadded) input.
fn taps(geom: Conv2dGeom, mut f: impl FnMut(usize, usize, usize)) {
    let k = geom.kernel;
    for oy in 0..geom.out_h() {
        for ox in 0..geom.out_w() {
            let pos = oy * geom.out_w() + ox;
            for c in 0..geom.in_c {
                for ky in 0..k {
                    for kx in 0..k {
                        let (iy, ix) = (
                            (oy * geom.stride + ky) as isize - geom.pad as isize,
                            (ox * geom.stride + kx) as isize - geom.pad as isize,
                        );
                        if (0..geom.in_h as isize).contains(&iy)
                            && (0..geom.in_w as isize).contains(&ix)
                        {
                            let input = (c * geom.in_h + iy as usize) * geom.in_w + ix as usize;
                            f(pos, (c * k + ky) * k + kx, input);
                        }
                    }
                }
            }
        }
    }
}

fn conv(geom: Conv2dGeom, out_c: usize, kernels: &M64, b: &M64, act: Activation, x: &M64) -> M64 {
    let positions = geom.out_positions();
    let mut y = M64::zeros(x.rows, out_c * positions);
    for r in 0..x.rows {
        let (sample, out) = (x.row(r), &mut y.data[r * out_c * positions..][..out_c * positions]);
        for o in 0..out_c {
            out[o * positions..][..positions].fill(b.data[o]);
        }
        taps(geom, |pos, tap, input| {
            for o in 0..out_c {
                out[o * positions + pos] += kernels.row(o)[tap] * sample[input];
            }
        });
        for v in out.iter_mut() {
            *v = activate(act, *v);
        }
    }
    y
}

/// `(∂K, ∂b, ∂x)`.
fn conv_back(
    geom: Conv2dGeom,
    out_c: usize,
    kernels: &M64,
    act: Activation,
    x: &M64,
    y: &M64,
    g: &M64,
) -> (M64, M64, M64) {
    let positions = geom.out_positions();
    let (mut gk, mut gb, mut gx) =
        (M64::zeros(out_c, geom.patch_len()), M64::zeros(1, out_c), M64::zeros(x.rows, x.cols));
    for r in 0..x.rows {
        let delta: Vec<f64> =
            g.row(r).iter().zip(y.row(r)).map(|(g, &y)| g * derivative(act, y)).collect();
        for o in 0..out_c {
            gb.data[o] += delta[o * positions..][..positions].iter().sum::<f64>();
        }
        let (sample, grad_in) = (x.row(r), &mut gx.data[r * x.cols..][..x.cols]);
        taps(geom, |pos, tap, input| {
            for o in 0..out_c {
                let d = delta[o * positions + pos];
                gk.row_mut(o)[tap] += d * sample[input];
                grad_in[input] += d * kernels.row(o)[tap];
            }
        });
    }
    (gk, gb, gx)
}

/// Where row `y` of channel `c` of the window starts in a cropped sample
/// and in an uncropped one.
fn window(channels: usize, side: usize, out: usize) -> impl Iterator<Item = (usize, usize)> {
    let m = (side - out) / 2;
    (0..channels * out).map(move |cy| (cy * out, ((cy / out) * side + cy % out + m) * side + m))
}

fn crop(channels: usize, side: usize, out: usize, x: &M64) -> M64 {
    let mut y = M64::zeros(x.rows, channels * out * out);
    for r in 0..x.rows {
        for (to, from) in window(channels, side, out) {
            y.row_mut(r)[to..][..out].copy_from_slice(&x.row(r)[from..][..out]);
        }
    }
    y
}

fn crop_back(channels: usize, side: usize, out: usize, g: &M64) -> M64 {
    let mut gx = M64::zeros(g.rows, channels * side * side);
    for r in 0..g.rows {
        for (to, from) in window(channels, side, out) {
            gx.row_mut(r)[from..][..out].copy_from_slice(&g.row(r)[to..][..out]);
        }
    }
    gx
}

/// The mean loss over the batch, and its gradient with respect to `pred`
/// (L2, element-wise Huber and the paper's eq. 4 vector Huber, the
/// reconstruction losses).
///
/// # Panics
///
/// Panics on any other loss.
pub fn loss(loss: Loss, pred: &M64, target: &Matrix) -> (f64, M64) {
    let scale = 1.0 / pred.data.len() as f64;
    let mut grad = M64::zeros(pred.rows, pred.cols);
    let mut total = 0.0;
    for r in 0..pred.rows {
        let d: Vec<f64> =
            pred.row(r).iter().zip(target.row(r)).map(|(&p, &t)| p - f64::from(t)).collect();
        let g = grad.row_mut(r);
        if let Loss::VectorHuber { delta } = loss {
            // One regime for the whole row, chosen by its L1 norm.
            let (delta, l1) = (f64::from(delta), d.iter().map(|d| d.abs()).sum::<f64>());
            let quadratic = l1 <= delta;
            total += if quadratic {
                0.5 * d.iter().map(|d| d * d).sum::<f64>()
            } else {
                delta * l1 - 0.5 * delta * delta
            };
            for (g, &d) in g.iter_mut().zip(&d) {
                *g = if quadratic { d } else { delta * sign(d) } * scale;
            }
            continue;
        }
        for (g, &d) in g.iter_mut().zip(&d) {
            let (value, slope) = match loss {
                Loss::L2 => (0.5 * d * d, d),
                Loss::Huber { delta } => {
                    let delta = f64::from(delta);
                    if d.abs() <= delta {
                        (0.5 * d * d, d)
                    } else {
                        (delta * d.abs() - 0.5 * delta * delta, delta * d.signum())
                    }
                }
                other => panic!("no shadow of {other:?}"),
            };
            total += value;
            *g = slope * scale;
        }
    }
    (total * scale, grad)
}

/// `d`'s sign, `0` at `0` as `orco_nn`'s losses take it.
fn sign(d: f64) -> f64 {
    if d > 0.0 {
        1.0
    } else if d < 0.0 {
        -1.0
    } else {
        0.0
    }
}

/// Adam with the global gradient norm clipped, as `orco_nn::Optimizer`
/// defines it — its constants the `f32` values `0.9`, `0.999` and `1e-8` —
/// with its moments in `f64`.
#[derive(Debug)]
pub struct Adam64 {
    lr: f64,
    max_norm: f64,
    t: i32,
    moments: Vec<(Vec<f64>, Vec<f64>)>,
}

impl Adam64 {
    pub fn new(lr: f32, max_norm: f32) -> Self {
        Self { lr: f64::from(lr), max_norm: f64::from(max_norm), t: 0, moments: Vec::new() }
    }

    /// The parameters after one step from `params` down `grads`.
    pub fn step(&mut self, params: &[M64], grads: &[M64]) -> Vec<M64> {
        if self.moments.is_empty() {
            self.moments =
                grads.iter().map(|g| (vec![0.0; g.data.len()], vec![0.0; g.data.len()])).collect();
        }
        self.t += 1;
        let norm = grads.iter().flat_map(|g| &g.data).map(|g| g * g).sum::<f64>().sqrt();
        let scale = if norm > self.max_norm { self.max_norm / norm } else { 1.0 };
        let (b1, b2, eps) = (f64::from(0.9f32), f64::from(0.999f32), f64::from(1e-8f32));
        let (bc1, bc2) = (1.0 - b1.powi(self.t), 1.0 - b2.powi(self.t));
        let mut out = params.to_vec();
        for ((w, g), (m, v)) in out.iter_mut().zip(grads).zip(&mut self.moments) {
            for (((w, &g), m), v) in w.data.iter_mut().zip(&g.data).zip(m).zip(v) {
                let g = g * scale;
                *m = b1 * *m + (1.0 - b1) * g;
                *v = b2 * *v + (1.0 - b2) * g * g;
                *w -= self.lr * (*m / bc1) / ((*v / bc2).sqrt() + eps);
            }
        }
        out
    }
}

/// The spacing of `f32` values at `|x|` (at least the smallest normal's).
pub fn ulp32(x: f64) -> f64 {
    let a = (x.abs() as f32).max(f32::MIN_POSITIVE);
    let a = if a.is_finite() { a } else { f32::MAX };
    f64::from(f32::from_bits(a.to_bits() + 1)) - f64::from(a)
}

/// The distance of `f32` values from their shadows, in `f32` ulps of each
/// compared tensor's largest shadow value — the scale its digest's bits
/// live at: the maximum over every compared value, and the mean.
#[derive(Debug, Default, Clone, Copy)]
pub struct Errors {
    max: f64,
    sum: f64,
    count: usize,
}

impl Errors {
    /// One tensor against its shadow.
    ///
    /// # Panics
    ///
    /// Panics if the lengths differ.
    pub fn tensor(&mut self, got: &[f32], want: &[f64]) {
        assert_eq!(got.len(), want.len(), "a tensor and its shadow differ in length");
        let ulp = ulp32(want.iter().fold(0.0f64, |m, w| m.max(w.abs())));
        for (&g, &w) in got.iter().zip(want) {
            let e = (f64::from(g) - w).abs() / ulp;
            self.max = self.max.max(e);
            self.sum += e;
            self.count += 1;
        }
    }

    pub fn matrix(&mut self, got: &Matrix, want: &M64) {
        assert_eq!(got.shape(), (want.rows, want.cols), "a matrix and its shadow differ in shape");
        self.tensor(got.as_slice(), &want.data);
    }

    /// `(max, mean)`.
    pub fn row(&self) -> (f64, f64) {
        (self.max, self.sum / self.count.max(1) as f64)
    }
}

/// Higham's `γ_k` for `f32`.
pub fn gamma(k: usize) -> f64 {
    let ku = k as f64 * f64::from(f32::EPSILON) / 2.0;
    ku / (1.0 - ku)
}

/// Where `out`'s elements sit against two bounds on their distance from
/// their exact dot products, as the worst ratio of each (at most 1 when it
/// holds). `terms(i, j)` yields element `(i, j)`'s `k` factor pairs in
/// ascending `k`.
///
/// - Higham's `γ_k · Σ|aᵢbᵢ|`, which any order of `k` rounded steps meets.
/// - The running-error bound of the kernels' order, `u · Σᵢ(|sᵢ| + |aᵢbᵢ|)`
///   over the exact partial sums `sᵢ` in ascending `k`: each step rounds its
///   product at most once and its sum once (Higham §3.1), so a sum taken in
///   ascending `k` meets it, fused or not, while one taken in another order
///   — split across accumulators, say — need not.
///
/// The exact sums are compensated `f64` sums; each bound allows its own
/// second-order terms.
pub fn check_product<I: Iterator<Item = (f32, f32)>>(
    out: &Matrix,
    k: usize,
    terms: impl Fn(usize, usize) -> I,
) -> (f64, f64) {
    let u = f64::from(f32::EPSILON) / 2.0;
    let ratio = |error: f64, bound: f64| if error == 0.0 { 0.0 } else { error / bound };
    let (mut worst_gamma, mut worst_running) = (0.0f64, 0.0f64);
    for i in 0..out.rows() {
        for j in 0..out.cols() {
            let (mut sum, mut carry, mut magnitude, mut partials) = (0.0f64, 0.0f64, 0.0, 0.0);
            for (a, b) in terms(i, j) {
                let p = f64::from(a) * f64::from(b);
                // Neumaier's compensated sum: `carry` holds what `sum` lost.
                let t = sum + p;
                carry += if sum.abs() >= p.abs() { (sum - t) + p } else { (p - t) + sum };
                sum = t;
                magnitude += p.abs();
                partials += (sum + carry).abs();
            }
            let error = (f64::from(out[(i, j)]) - (sum + carry)).abs();
            worst_gamma = worst_gamma.max(ratio(error, gamma(k) * magnitude * (1.0 + 1e-9)));
            let slack = 1.0 + 2.0 * (k + 1) as f64 * u;
            worst_running = worst_running.max(ratio(error, u * (partials + magnitude) * slack));
        }
    }
    (worst_gamma, worst_running)
}
