//! Transformer kernels: matmul, softmax, RMSNorm, SiLU, RoPE.
//!
//! Kernels operate on [`Tensor`]s or raw `f32` slices.  The only
//! parallelised kernel is [`matmul_t`] (weights-transposed matrix product),
//! which dominates runtime for real tiny-model execution.  Its arithmetic is
//! the panel kernels of [`crate::simd`] — [`simd::gemv_panel`] for the
//! single-row (decode) case, the register-blocked [`simd::gemm_tile`] for the
//! multi-row (verify, forest, prefill) case — and this module only decides
//! where they run: products of `PAR_DISPATCH_WEIGHT_LOADS` weight loads and
//! more are split into column blocks over the persistent worker pool (sized
//! by `rayon::pool::chunk_size`, ≈4 chunks per configured thread with a
//! minimum work floor, rounded to the register tile's width), smaller ones
//! stay on the calling thread as one kernel call.
//! [`matmul_t_naive`] is the one dense reference the property tests and the
//! kernels bench compare against.
//!
//! Determinism: every output element is accumulated in the one order
//! documented in [`crate::simd`], whatever its thread, column block or
//! register tile, so results are bitwise reproducible across
//! `PIPEINFER_THREADS` settings and row `r` of a multi-row product is bitwise
//! equal to the single-row product of row `r`.  All other kernels are
//! O(tokens × hidden) and not worth parallelising at the model sizes this
//! reproduction executes for real.
//!
//! RoPE is split where its cost is: [`rope_table_row`] evaluates the `powf`
//! and `sin_cos` of one token's rotation angles (a function of the position
//! alone, so once per token per forward call), [`rope_rotate`] applies a row
//! to a query or key vector (per head, per layer — four multiplies and two
//! adds per pair).

use crate::{simd, Result, Tensor, TensorError};
use rayon::pool;
use rayon::prelude::*;

/// Weight loads below which a product runs on the calling thread as one
/// kernel call; at or above it, column blocks go to the worker pool.
///
/// The unit is what the kernels' inner loops are bound by: weight elements
/// loaded.  A single-row product loads every weight once (`n·k`); the
/// register tile of `simd::gemm_tile` loads each once per row block, so
/// `simd::gemm_geometry`'s passes times `n·k` (a block is 8 rows on AVX-512,
/// up to 6 on AVX2 and the portable lanes); the quantized kernels convert
/// every weight once per row (`m·n·k`).  Multiply-adds, an earlier unit, put
/// a 40-row in-cache GEMM above a 2048×2048 GEMV that carries three times the
/// serial time.
///
/// Placed from what a split has to pay back: the *helper's wake latency*,
/// not the caller's dispatch cost.  On the 2-vCPU bench box, from `run`
/// entry to the helper's first item (medians of 400): 19 µs when dispatches
/// follow back to back, 56 µs (quartiles 45–69) once the helper has idled
/// 200 µs and 104 µs after 2 ms; the benchmark's own `cluster.msg_rtt_us`
/// reads 45–88 µs per round trip of the same futex pair.  With wake latency
/// `W` and serial time `T`, two threads finish at best at `(T + W)/2`, plus
/// up to another `W` when the caller drains the queue first and sleeps until
/// the helper's last block completes: a split breaks even near `T = 3W` and
/// returns a quarter of `T` only from `T = 6W`, 0.1–0.35 ms.
///
/// The measured crossover, re-taken with the 8-row AVX-512 tile (which
/// halved both the loads and the serial time of every multi-row product):
/// alternating 1 and 2 pool threads 100 µs apart, medians of 300, two
/// threads over one, serial time in brackets.  In an hour when the box's
/// second vCPU had something to give: 8×256×704 (36 µs) 1.69×, 16× (92)
/// 1.05×, 24× (111) 1.09×, 64×256×256 (99) 1.12×, 32×256×704 (152) 0.92×,
/// 40× (172) 0.89×, 48× (206) 0.91×, 64× (241, 1.4 Mi loads) 0.88×,
/// 64×704×256 (224) 0.95×, 96×256×704 (411, 2.1 Mi) 0.81×, 128× (611) 0.73×,
/// 256× (947) 0.69×, 1×1024×1024 (138) 1.06×, 1×1024×2048 (325, 2 Mi)
/// 0.85×, 1×2048×2048 (731) 0.68×.  In two sweeps of an hour when it had
/// nothing: 8× 1.22×, 16× 1.17×, 32× 1.10–1.16×, 40× 1.14–1.17×, 48×
/// 1.11×, 64× 1.09–1.10×, 80× 1.11–1.13×, 96× 1.11×, 128× 1.09×, 256×
/// 1.07–1.09×, 1×1024×2048 1.07×, 1×2048×2048 1.04× (and, in the one of the
/// two that was good to single-row products only, 1×1024×1280 0.89×,
/// 1×1024×1536 0.85×, 1×1024×2048 0.82×, 1×2048×2048 0.74×).  So a product
/// of 1.4 Mi loads gains an eighth at best and loses a tenth at worst; from
/// 2 Mi the best case is a fifth to a third and the worst a tenth or less.
/// The constant stays where wake latency put it — which, the multi-row unit
/// having halved, now means twice the rows.
///
/// The value before that, 256 Ki multiply-adds, came from the caller's side
/// alone (2.3–2.8 µs: the `Arc<Job>`, a mutex and the wake syscall), timed in
/// a loop so tight that the helper never slept and the caller finished small
/// products before it arrived.  Inside a forward pass every `m ≥ 2` product
/// of a verify run or a forest step woke a sleeping helper, gained nothing
/// and often waited on it.
///
/// So nothing a `d_model` 256 / `d_ff` 704 model issues for decode, verify,
/// an 8-lane × 5-row forest (40×256×704: 0.9 Mi loads on AVX-512) or a
/// 64-token prompt (1.4 Mi) leaves the thread that issued it, while the FFN
/// products of prompts from 89 tokens up (12 row blocks: 2.1 Mi; from 47
/// tokens on AVX2, whose blocks are half as tall), a 1024×2048 GEMV and
/// everything larger still fan out.
pub(crate) const PAR_DISPATCH_WEIGHT_LOADS: usize = 2 * 1024 * 1024;

/// [`PAR_DISPATCH_WEIGHT_LOADS`] for the kernel-equivalence tests, which
/// build shapes on both sides of it.
#[doc(hidden)]
pub fn par_dispatch_weight_loads() -> usize {
    PAR_DISPATCH_WEIGHT_LOADS
}

/// Computes `out = x · wᵀ` where `x` is `[m, k]` and `w` is `[n, k]`.
///
/// This is the natural layout for transformer weight matrices (each output
/// feature is a row of `w`), and lets the inner loop be a contiguous dot
/// product.  See the module docs for the blocking/tiling scheme.
pub fn matmul_t(x: &Tensor, w: &Tensor) -> Result<Tensor> {
    let m = x.rows();
    let k = x.cols();
    let n = w.rows();
    if w.cols() != k {
        return Err(TensorError::IncompatibleShapes(format!(
            "matmul_t: x is [{m}, {k}], w is [{}, {}]",
            n,
            w.cols()
        )));
    }
    let mut out = vec![0.0f32; m * n];
    matmul_t_into(x.data(), w.data(), m, k, n, &mut out);
    Tensor::from_vec(out, &[m, n])
}

/// Raw-slice core of [`matmul_t`]: `x` is `[m, k]`, `w` is `[n, k]`, `out`
/// is `[m, n]`, all row-major.  Lets callers (the transformer forward pass)
/// reuse scratch output buffers instead of allocating a tensor per product.
pub fn matmul_t_into(xd: &[f32], wd: &[f32], m: usize, k: usize, n: usize, out: &mut [f32]) {
    assert_eq!(xd.len(), m * k, "x data does not match [m, k]");
    assert_eq!(wd.len(), n * k, "w data does not match [n, k]");
    assert_eq!(out.len(), m * n, "out does not match [m, n]");
    if m == 1 {
        gemv_dispatch(k, out, |j0, chunk| {
            simd::gemv_panel(xd, &wd[j0 * k..(j0 + chunk.len()) * k], chunk)
        });
    } else if m > 1 && k > 0 {
        gemm_t(xd, wd, m, k, n, out);
    } else {
        out.fill(0.0);
    }
}

/// Single-row `x · wᵀ` writing into `out` (`[n]`), where `w` is `[n, k]`.
///
/// The decode-path convenience wrapper over [`matmul_t_into`] used by the
/// transformer's scratch-buffer arena.
pub fn matvec_t_into(x: &[f32], w: &Tensor, out: &mut [f32]) -> Result<()> {
    let k = w.cols();
    let n = w.rows();
    if x.len() != k || out.len() != n {
        return Err(TensorError::IncompatibleShapes(format!(
            "matvec_t: x has {} elements, out has {}, w is [{n}, {k}]",
            x.len(),
            out.len()
        )));
    }
    matmul_t_into(x, w.data(), 1, k, n, out);
    Ok(())
}

/// Dispatch skeleton shared by the dense and quantized single-row products:
/// `fill(j0, chunk)` computes output features `j0..j0 + chunk.len()` (`k`
/// weight loads each) — as one call on the calling thread below
/// [`PAR_DISPATCH_WEIGHT_LOADS`], otherwise once per column block sized by
/// the pool's chunk policy.
pub(crate) fn gemv_dispatch<F>(k: usize, out: &mut [f32], fill: F)
where
    F: Fn(usize, &mut [f32]) + Sync,
{
    let n = out.len();
    if n * k < PAR_DISPATCH_WEIGHT_LOADS {
        fill(0, out);
        return;
    }
    let block = pool::chunk_size(n, k);
    out.par_chunks_mut(block)
        .enumerate()
        .for_each(|(b, chunk)| fill(b * block, chunk));
}

/// Raw output pointer shared across the pool's column-block tasks.  Column
/// blocks partition the columns, so concurrent writes never overlap.
struct OutPtr(*mut f32);
// SAFETY: the pointer is only written through, each element by the one task
// that owns its column block, while `gemm_t` holds the `&mut` it came from.
unsafe impl Sync for OutPtr {}

impl OutPtr {
    /// Pointer to column `j` of the first output row.  (A method, so closures
    /// capture the `Sync` wrapper and not its raw-pointer field.)
    fn column(&self, j: usize) -> *mut f32 {
        self.0.wrapping_add(j)
    }
}

/// Multi-row product: every column block of the output is one
/// [`simd::gemm_tile`] call over all `m` rows, so each weight row is streamed
/// from memory once per row block of the register tile, and a product big
/// enough to fan out splits by columns whatever its row count.
fn gemm_t(xd: &[f32], wd: &[f32], m: usize, k: usize, n: usize, out: &mut [f32]) {
    let base = OutPtr(out.as_mut_ptr());
    let columns = |j0: usize, j1: usize| {
        // SAFETY: rows `0..m` × columns `j0..j1` lie inside `out` (`[m, n]`,
        // row stride `n`), and no other task is given these columns.
        unsafe { simd::gemm_tile(xd, &wd[j0 * k..j1 * k], k, base.column(j0), n) }
    };
    // The per-element computation is identical either way; only the dispatch
    // differs, so small products skip the pool (same threshold as the GEMV
    // path) while producing bitwise-identical results.  A weight vector the
    // tile loads serves every activation row of its row block.
    let (passes, tile_columns) = simd::gemm_geometry(m);
    if passes * n * k < PAR_DISPATCH_WEIGHT_LOADS {
        columns(0, n);
        return;
    }
    // Whole register tiles per column block, ragged only at the far edge.
    let block = pool::chunk_size(n, m * k).next_multiple_of(tile_columns);
    pool::global().run(n.div_ceil(block), &|b| {
        columns(b * block, ((b + 1) * block).min(n))
    });
}

/// Reference `x · wᵀ` — the textbook scalar triple loop, kept as the ground
/// truth for the shipped kernels' equivalence property tests and as the
/// `naive` side of `cargo bench -p pi-bench --bench kernels`.
pub fn matmul_t_naive(x: &Tensor, w: &Tensor) -> Result<Tensor> {
    let m = x.rows();
    let k = x.cols();
    let n = w.rows();
    if w.cols() != k {
        return Err(TensorError::IncompatibleShapes(format!(
            "matmul_t: x is [{m}, {k}], w is [{}, {}]",
            n,
            w.cols()
        )));
    }
    let xd = x.data();
    let wd = w.data();
    let mut out = vec![0.0f32; m * n];
    for i in 0..m {
        let xrow = &xd[i * k..(i + 1) * k];
        for j in 0..n {
            let wrow = &wd[j * k..(j + 1) * k];
            let mut acc = 0.0f32;
            for (a, b) in xrow.iter().zip(wrow.iter()) {
                acc += a * b;
            }
            out[i * n + j] = acc;
        }
    }
    Tensor::from_vec(out, &[m, n])
}

/// In-place element-wise addition: `a += b`.
pub fn add_inplace(a: &mut [f32], b: &[f32]) {
    debug_assert_eq!(a.len(), b.len());
    for (x, y) in a.iter_mut().zip(b.iter()) {
        *x += y;
    }
}

/// In-place element-wise multiplication: `a *= b`.
pub fn mul_inplace(a: &mut [f32], b: &[f32]) {
    debug_assert_eq!(a.len(), b.len());
    for (x, y) in a.iter_mut().zip(b.iter()) {
        *x *= y;
    }
}

/// Numerically stable in-place softmax over a slice.
///
/// The max-scan and the final normalising division run 8 lanes wide; both
/// are bitwise identical to scalar passes (max is order-insensitive on finite
/// logits, IEEE division is exact per element), and the exp-and-sum pass is
/// scalar, so softmax produces the same bits on every instruction set.
pub fn softmax_inplace(x: &mut [f32]) {
    if x.is_empty() {
        return;
    }
    let max = simd::max_val(x);
    let mut sum = 0.0f32;
    for v in x.iter_mut() {
        *v = (*v - max).exp();
        sum += *v;
    }
    if sum > 0.0 {
        simd::div_inplace(x, sum);
    }
}

/// Returns the softmax of a slice as a new vector.
pub fn softmax(x: &[f32]) -> Vec<f32> {
    let mut out = x.to_vec();
    softmax_inplace(&mut out);
    out
}

/// RMS normalisation: `out[i] = x[i] / rms(x) * weight[i]`.
///
/// `eps` guards against division by zero exactly as in Llama-family models.
pub fn rmsnorm(x: &[f32], weight: &[f32], eps: f32) -> Vec<f32> {
    let mut out = vec![0.0f32; x.len()];
    rmsnorm_into(x, weight, eps, &mut out);
    out
}

/// [`rmsnorm`] writing into a caller-provided buffer (the scratch arena's
/// per-layer normed-activation slot), avoiding a per-token allocation.
pub fn rmsnorm_into(x: &[f32], weight: &[f32], eps: f32, out: &mut [f32]) {
    debug_assert_eq!(x.len(), weight.len());
    debug_assert_eq!(x.len(), out.len());
    let ss = simd::sum_squares(x) / x.len() as f32;
    let scale = 1.0 / (ss + eps).sqrt();
    simd::rmsnorm_apply(out, x, scale, weight);
}

/// SiLU activation (`x * sigmoid(x)`), applied element-wise in place.
pub fn silu_inplace(x: &mut [f32]) {
    for v in x.iter_mut() {
        *v = *v * (1.0 / (1.0 + (-*v).exp()));
    }
}

/// Fused SwiGLU gate: `gate[i] = silu(gate[i]) * up[i]` in a single pass —
/// the MLP hot loop ([`silu_inplace`] followed by [`mul_inplace`], without
/// walking the `d_ff`-sized buffers twice).
///
/// The AVX2 path evaluates `exp` with an 8-lane polynomial and agrees with
/// the two-pass sequence to ~1e-4 relative (pinned by the kernel-equivalence
/// property tests).
pub fn silu_mul_inplace(gate: &mut [f32], up: &[f32]) {
    debug_assert_eq!(gate.len(), up.len());
    simd::silu_mul(gate, up);
}

/// GELU activation (tanh approximation), applied element-wise in place.
///
/// Falcon-family models use GELU in their MLP blocks; including it lets the
/// Falcon-style model preset differ structurally from the Llama-style one.
pub fn gelu_inplace(x: &mut [f32]) {
    const SQRT_2_OVER_PI: f32 = 0.797_884_6;
    for v in x.iter_mut() {
        let x3 = *v * *v * *v;
        *v = 0.5 * *v * (1.0 + (SQRT_2_OVER_PI * (*v + 0.044715 * x3)).tanh());
    }
}

/// Fills one row of a RoPE table: the `(cos, sin)` of the rotation angle of
/// every element pair of a head, interleaved, for a token at `position`.
///
/// `row.len()` is the head dimension (even).  The angles depend on the
/// position and the pair index only — not on the head, the layer, or whether
/// a query or a key is being rotated — so a forward pass fills one row per
/// batch token and every layer's q and k rotate from it ([`rope_rotate`]).
pub fn rope_table_row(row: &mut [f32], position: usize, theta: f32) {
    debug_assert_eq!(row.len() % 2, 0);
    let head_dim = row.len();
    for (i, pair) in row.chunks_exact_mut(2).enumerate() {
        let freq = 1.0 / theta.powf(2.0 * i as f32 / head_dim as f32);
        let angle = position as f32 * freq;
        let (sin, cos) = angle.sin_cos();
        pair[0] = cos;
        pair[1] = sin;
    }
}

/// Rotates every head of a query or key vector in place by one
/// [`rope_table_row`]: `x` is `x.len() / row.len()` heads of dimension
/// `row.len()`, and each consecutive element pair of a head turns by its
/// pair's angle.  The one rotation in the crate.
pub fn rope_rotate(x: &mut [f32], row: &[f32]) {
    debug_assert_eq!(x.len() % row.len(), 0);
    for head in x.chunks_exact_mut(row.len()) {
        for (pair, cs) in head.chunks_exact_mut(2).zip(row.chunks_exact(2)) {
            let (a, b) = (pair[0], pair[1]);
            let (cos, sin) = (cs[0], cs[1]);
            pair[0] = a * cos - b * sin;
            pair[1] = a * sin + b * cos;
        }
    }
}

/// Applies rotary position embeddings in place to a query or key vector.
///
/// The vector is interpreted as `n_heads` heads of dimension `head_dim`
/// (which must be even); each consecutive pair of elements within a head is
/// rotated by an angle that depends on the token `position` and the pair
/// index, using the standard `theta = 10000` base.  One-vector convenience
/// over [`rope_table_row`] + [`rope_rotate`]; the forward pass builds the
/// table row once per token and reuses it across heads, q/k and layers.
pub fn rope_inplace(x: &mut [f32], n_heads: usize, head_dim: usize, position: usize, theta: f32) {
    debug_assert_eq!(x.len(), n_heads * head_dim);
    let mut row = vec![0.0f32; head_dim];
    rope_table_row(&mut row, position, theta);
    rope_rotate(x, &row);
}

/// Scales a slice in place by a scalar.
pub fn scale_inplace(x: &mut [f32], s: f32) {
    for v in x.iter_mut() {
        *v *= s;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn t(data: Vec<f32>, shape: &[usize]) -> Tensor {
        Tensor::from_vec(data, shape).unwrap()
    }

    #[test]
    fn matmul_t_identity() {
        // x: [2,3], w = identity-like [3,3]
        let x = t(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0], &[2, 3]);
        let w = t(vec![1.0, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 1.0], &[3, 3]);
        let y = matmul_t(&x, &w).unwrap();
        assert_eq!(y.data(), x.data());
    }

    #[test]
    fn matmul_t_known_values() {
        let x = t(vec![1.0, 2.0], &[1, 2]);
        let w = t(vec![3.0, 4.0, 5.0, 6.0, 7.0, 8.0], &[3, 2]);
        let y = matmul_t(&x, &w).unwrap();
        assert_eq!(y.shape(), &[1, 3]);
        assert_eq!(y.data(), &[11.0, 17.0, 23.0]);
    }

    #[test]
    fn matmul_t_shape_mismatch_errors() {
        let x = t(vec![1.0, 2.0, 3.0], &[1, 3]);
        let w = t(vec![1.0, 2.0], &[1, 2]);
        assert!(matmul_t(&x, &w).is_err());
        assert!(matmul_t_naive(&x, &w).is_err());
    }

    #[test]
    fn matmul_matches_naive_across_tile_remainders() {
        use rand::{rngs::StdRng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(11);
        // m sweeps the full-tile (4, 8), remainder (1..3, 5..7) and
        // single-row cases; k sweeps non-multiple-of-4 lengths.
        for m in 1..=9usize {
            for &k in &[1usize, 3, 4, 7, 33, 64] {
                let n = 17;
                let x = Tensor::rand_uniform(&mut rng, &[m, k], 1.0);
                let w = Tensor::rand_uniform(&mut rng, &[n, k], 1.0);
                let fast = matmul_t(&x, &w).unwrap();
                let slow = matmul_t_naive(&x, &w).unwrap();
                for (a, b) in fast.data().iter().zip(slow.data().iter()) {
                    assert!(
                        (a - b).abs() <= 1e-4 * a.abs().max(1.0),
                        "m={m} k={k}: {a} vs {b}"
                    );
                }
            }
        }
    }

    #[test]
    fn matvec_t_into_matches_matmul() {
        use rand::{rngs::StdRng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(12);
        let x = Tensor::rand_uniform(&mut rng, &[1, 48], 1.0);
        let w = Tensor::rand_uniform(&mut rng, &[31, 48], 1.0);
        let mut out = vec![0.0f32; 31];
        matvec_t_into(x.data(), &w, &mut out).unwrap();
        let full = matmul_t(&x, &w).unwrap();
        assert_eq!(out.as_slice(), full.data());
        let mut bad = vec![0.0f32; 30];
        assert!(matvec_t_into(x.data(), &w, &mut bad).is_err());
    }

    #[test]
    fn rmsnorm_into_matches_allocating_variant() {
        let x = vec![3.0, -4.0, 5.5, 0.25];
        let w = vec![1.0, 0.5, 2.0, 1.5];
        let a = rmsnorm(&x, &w, 1e-6);
        let mut b = vec![0.0f32; 4];
        rmsnorm_into(&x, &w, 1e-6, &mut b);
        assert_eq!(a, b);
    }

    #[test]
    fn softmax_sums_to_one_and_is_monotonic() {
        let mut x = vec![1.0, 2.0, 3.0, 4.0];
        softmax_inplace(&mut x);
        let sum: f32 = x.iter().sum();
        assert!((sum - 1.0).abs() < 1e-6);
        assert!(x[0] < x[1] && x[1] < x[2] && x[2] < x[3]);
    }

    #[test]
    fn softmax_handles_large_values() {
        let mut x = vec![1000.0, 1000.0];
        softmax_inplace(&mut x);
        assert!((x[0] - 0.5).abs() < 1e-6);
        assert!(x.iter().all(|v| v.is_finite()));
    }

    #[test]
    fn rmsnorm_unit_weight_normalises() {
        let x = vec![3.0, 4.0];
        let w = vec![1.0, 1.0];
        let y = rmsnorm(&x, &w, 1e-6);
        // rms = sqrt((9+16)/2) = sqrt(12.5)
        let rms = 12.5f32.sqrt();
        assert!((y[0] - 3.0 / rms).abs() < 1e-5);
        assert!((y[1] - 4.0 / rms).abs() < 1e-5);
    }

    #[test]
    fn silu_matches_definition() {
        let mut x = vec![0.0, 1.0, -1.0];
        silu_inplace(&mut x);
        assert!((x[0] - 0.0).abs() < 1e-6);
        assert!((x[1] - 1.0 / (1.0 + (-1.0f32).exp())).abs() < 1e-6);
        assert!(x[2] < 0.0 && x[2] > -0.5);
    }

    #[test]
    fn gelu_fixed_points() {
        let mut x = vec![0.0, 10.0];
        gelu_inplace(&mut x);
        assert!((x[0]).abs() < 1e-6);
        assert!((x[1] - 10.0).abs() < 1e-3);
    }

    #[test]
    fn rope_position_zero_is_identity() {
        let mut x = vec![1.0, 2.0, 3.0, 4.0];
        let orig = x.clone();
        rope_inplace(&mut x, 1, 4, 0, 10000.0);
        for (a, b) in x.iter().zip(orig.iter()) {
            assert!((a - b).abs() < 1e-6);
        }
    }

    #[test]
    fn rope_preserves_norm() {
        let mut x = vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0];
        let norm_before: f32 = x.iter().map(|v| v * v).sum();
        rope_inplace(&mut x, 2, 4, 17, 10000.0);
        let norm_after: f32 = x.iter().map(|v| v * v).sum();
        assert!((norm_before - norm_after).abs() < 1e-3);
    }

    /// `rope_inplace` as it stood before the table: `powf` and `sin_cos` per
    /// pair of every head.  Kept verbatim as the reference the table
    /// rotation must reproduce bit for bit.
    fn rope_inplace_reference(
        x: &mut [f32],
        n_heads: usize,
        head_dim: usize,
        position: usize,
        theta: f32,
    ) {
        for h in 0..n_heads {
            let base = h * head_dim;
            for i in 0..head_dim / 2 {
                let freq = 1.0 / theta.powf(2.0 * i as f32 / head_dim as f32);
                let angle = position as f32 * freq;
                let (sin, cos) = angle.sin_cos();
                let a = x[base + 2 * i];
                let b = x[base + 2 * i + 1];
                x[base + 2 * i] = a * cos - b * sin;
                x[base + 2 * i + 1] = a * sin + b * cos;
            }
        }
    }

    #[test]
    fn table_rotation_is_bitwise_the_per_pair_rotation() {
        use rand::{rngs::StdRng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(17);
        for head_dim in [2usize, 6, 32, 64, 128] {
            for n_heads in [1usize, 8] {
                let x = Tensor::rand_uniform(&mut rng, &[n_heads * head_dim], 4.0).into_vec();
                let mut row = vec![0.0f32; head_dim];
                for position in 0..4096 {
                    let mut expected = x.clone();
                    rope_inplace_reference(&mut expected, n_heads, head_dim, position, 10000.0);
                    // The forward pass's route: one table row, then rotate.
                    let mut via_table = x.clone();
                    rope_table_row(&mut row, position, 10000.0);
                    rope_rotate(&mut via_table, &row);
                    // The one-vector wrapper goes through the same routine.
                    let mut via_wrapper = x.clone();
                    rope_inplace(&mut via_wrapper, n_heads, head_dim, position, 10000.0);
                    let bits = |v: &[f32]| v.iter().map(|f| f.to_bits()).collect::<Vec<u32>>();
                    assert_eq!(
                        bits(&via_table),
                        bits(&expected),
                        "head_dim {head_dim}, {n_heads} heads, position {position}"
                    );
                    assert_eq!(bits(&via_wrapper), bits(&expected));
                }
            }
        }
    }

    #[test]
    fn add_and_mul() {
        let mut a = vec![1.0, 2.0];
        add_inplace(&mut a, &[10.0, 20.0]);
        assert_eq!(a, vec![11.0, 22.0]);
        mul_inplace(&mut a, &[2.0, 0.5]);
        assert_eq!(a, vec![22.0, 11.0]);
    }

    proptest! {
        #[test]
        fn prop_softmax_is_distribution(v in proptest::collection::vec(-50.0f32..50.0, 1..64)) {
            let s = softmax(&v);
            let sum: f32 = s.iter().sum();
            prop_assert!((sum - 1.0).abs() < 1e-4);
            prop_assert!(s.iter().all(|p| *p >= 0.0 && *p <= 1.0));
        }

        #[test]
        fn prop_matmul_t_distributes_over_addition(
            m in 1usize..4, k in 1usize..6, n in 1usize..4,
            seed in 0u64..1000
        ) {
            use rand::{rngs::StdRng, SeedableRng};
            let mut rng = StdRng::seed_from_u64(seed);
            let x1 = Tensor::rand_uniform(&mut rng, &[m, k], 1.0);
            let x2 = Tensor::rand_uniform(&mut rng, &[m, k], 1.0);
            let w = Tensor::rand_uniform(&mut rng, &[n, k], 1.0);
            let mut xsum = x1.clone();
            add_inplace(xsum.data_mut(), x2.data());
            let lhs = matmul_t(&xsum, &w).unwrap();
            let y1 = matmul_t(&x1, &w).unwrap();
            let y2 = matmul_t(&x2, &w).unwrap();
            for i in 0..lhs.len() {
                prop_assert!((lhs.data()[i] - (y1.data()[i] + y2.data()[i])).abs() < 1e-3);
            }
        }

        #[test]
        fn prop_rope_is_norm_preserving(
            pos in 0usize..2048,
            seed in 0u64..1000
        ) {
            use rand::{rngs::StdRng, SeedableRng};
            let mut rng = StdRng::seed_from_u64(seed);
            let t = Tensor::rand_uniform(&mut rng, &[32], 1.0);
            let mut x = t.into_vec();
            let before: f32 = x.iter().map(|v| v * v).sum();
            rope_inplace(&mut x, 4, 8, pos, 10000.0);
            let after: f32 = x.iter().map(|v| v * v).sum();
            prop_assert!((before - after).abs() < 1e-2 * before.max(1.0));
        }
    }
}
