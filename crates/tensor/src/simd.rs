//! The vectorised kernel tier: f32x8 kernels, one instruction set per process.
//!
//! Every kernel exists in two implementations selected once per process by
//! `Isa::detect`:
//!
//! * **AVX2/FMA** (`core::arch::x86_64`) — 8-lane fused multiply-add inner
//!   loops, in-register `i8 → f32` widening for the fused quantized kernel
//!   (weight rows are never materialised as dense `f32`), and 8-lane
//!   element-wise passes for RMSNorm / softmax / the SiLU-gate product (whose
//!   `exp` uses the Cephes polynomial, the same approximation llama.cpp
//!   ships).
//! * **Portable** — the identical loop structure over `[f32; 8]` arrays so
//!   the autovectoriser can still emit whatever the target offers; this is
//!   what runs on an x86-64 machine without AVX2 and on every other
//!   architecture.
//!
//! The matrix products and per-token attention are **panel kernels**
//! ([`gemv_panel`], [`gemm_tile`], [`attend_token`]): one call covers a whole
//! block of outputs, so instruction-set selection and the `#[target_feature]`
//! boundary are crossed once per block and not once per 32-element dot.  They
//! are written once, generic over the `Lanes` vector type, and instantiated
//! per instruction set.
//!
//! ## The accumulation order
//!
//! Every dense dot product — whichever kernel, tile or thread computes it —
//! is accumulated in one order: a single 8-lane chain over the full 8-element
//! chunks (`acc = x[p..p+8] * w[p..p+8] + acc`, fused on AVX2/FMA), the
//! chain's fixed horizontal sum, then the `k % 8` tail elements added one by
//! one.  Register blocking only changes *which* independent chains are in
//! flight together, never the order within one, so row `r` of an `m`-row
//! product is bitwise equal to the single-row product of row `r` for every
//! `m`, tile position and thread count.  Forest batching and verify-vs-decode
//! identity rest on this.  The two instruction sets differ from each other
//! (and from the naive references in [`crate::ops`] and [`crate::quant`]) in
//! the last few ulps — this module's unit tests run both (forcing each in
//! turn) against the references and against each other within 1e-4 relative,
//! and `crates/tensor/tests/kernel_equivalence.rs` does the same through the
//! public entry points for the one the machine selects — but a process runs
//! exactly one of them.

use crate::quant::{Block, BLOCK_SIZE};

/// Instruction set selected for this process.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Isa {
    /// `core::arch` AVX2 + FMA intrinsics.
    #[cfg(target_arch = "x86_64")]
    Avx2Fma,
    /// `[f32; 8]` lane arrays, autovectorised.
    Portable,
}

impl Isa {
    /// Runtime CPU detection, cached after the first call.
    fn detect() -> Isa {
        #[cfg(test)]
        if let Some(isa) = tests::FORCED_ISA.get() {
            return isa;
        }
        #[cfg(target_arch = "x86_64")]
        {
            use std::sync::OnceLock;
            static ISA: OnceLock<Isa> = OnceLock::new();
            *ISA.get_or_init(|| {
                if std::is_x86_feature_detected!("avx2") && std::is_x86_feature_detected!("fma") {
                    Isa::Avx2Fma
                } else {
                    Isa::Portable
                }
            })
        }
        #[cfg(not(target_arch = "x86_64"))]
        {
            Isa::Portable
        }
    }
}

/// Name of the instruction set this process runs (`"avx2+fma"` or
/// `"portable-f32x8"`), for bench/report labelling.
pub fn active_isa() -> &'static str {
    match Isa::detect() {
        #[cfg(target_arch = "x86_64")]
        Isa::Avx2Fma => "avx2+fma",
        Isa::Portable => "portable-f32x8",
    }
}

// ---------------------------------------------------------------------------
// Panel kernels
// ---------------------------------------------------------------------------

/// Eight `f32` lanes: the accumulator every panel kernel is written over.
/// `[f32; 8]` is the portable implementation, `__m256` the AVX2/FMA one.
///
/// The methods are `#[inline(always)]` and carry no `#[target_feature]` of
/// their own: they compile to single instructions once inlined into the
/// per-instruction-set entry point that instantiates the kernel.
trait Lanes: Copy {
    /// # Safety
    /// The implementing instruction set must be available on this CPU.
    unsafe fn splat(v: f32) -> Self;
    /// # Safety
    /// As [`Lanes::splat`], and `p` must be valid for reading 8 floats.
    unsafe fn load(p: *const f32) -> Self;
    /// # Safety
    /// As [`Lanes::splat`], and `p` must be valid for writing 8 floats.
    unsafe fn store(self, p: *mut f32);
    /// Lane-wise `a * b + self`.
    ///
    /// # Safety
    /// As [`Lanes::splat`].
    unsafe fn mul_add(self, a: Self, b: Self) -> Self;
    /// Sum of the lanes, in an order fixed per implementation.
    ///
    /// # Safety
    /// As [`Lanes::splat`].
    unsafe fn hsum(self) -> f32;
}

impl Lanes for [f32; 8] {
    #[inline(always)]
    unsafe fn splat(v: f32) -> Self {
        [v; 8]
    }
    #[inline(always)]
    unsafe fn load(p: *const f32) -> Self {
        // SAFETY: the caller guarantees 8 readable floats at `p`; `[f32; 8]`
        // has the alignment of `f32`.
        unsafe { p.cast::<[f32; 8]>().read() }
    }
    #[inline(always)]
    unsafe fn store(self, p: *mut f32) {
        // SAFETY: the caller guarantees 8 writable floats at `p`.
        unsafe { p.cast::<[f32; 8]>().write(self) }
    }
    #[inline(always)]
    unsafe fn mul_add(mut self, a: Self, b: Self) -> Self {
        for l in 0..8 {
            self[l] += a[l] * b[l];
        }
        self
    }
    #[inline(always)]
    unsafe fn hsum(self) -> f32 {
        hsum8(self)
    }
}

/// One `MR × NR` register tile of `x · wᵀ`: `out[i * ldo + j] = x_i · w_j`,
/// every element accumulated in the module's one order (a single chain per
/// element; the `MR · NR` chains are what keeps the FMA units busy).
///
/// # Safety
/// `x` must be valid for reading `MR` and `w` for reading `NR` rows of `k`
/// floats at stride `k`, `out` for writing the `MR × NR` elements at row
/// stride `ldo`, and `V`'s instruction set must be available.
#[inline(always)]
unsafe fn tile<V: Lanes, const MR: usize, const NR: usize>(
    x: *const f32,
    w: *const f32,
    k: usize,
    out: *mut f32,
    ldo: usize,
) {
    let main = k - k % 8;
    // SAFETY: every offset below is `row * k + p` with `row < MR` (resp.
    // `NR`) and `p + 8 <= k` (vector loads) or `p < k` (tail), inside the
    // rows the caller vouches for; the stores are the vouched-for elements.
    unsafe {
        let mut acc = [[V::splat(0.0); NR]; MR];
        let mut p = 0;
        while p < main {
            let mut wv = [V::splat(0.0); NR];
            for (j, wj) in wv.iter_mut().enumerate() {
                *wj = V::load(w.add(j * k + p));
            }
            for (i, row) in acc.iter_mut().enumerate() {
                let xv = V::load(x.add(i * k + p));
                for (a, &wj) in row.iter_mut().zip(&wv) {
                    *a = a.mul_add(xv, wj);
                }
            }
            p += 8;
        }
        for (i, row) in acc.iter().enumerate() {
            for (j, a) in row.iter().enumerate() {
                let mut sum = a.hsum();
                for p in main..k {
                    sum += *x.add(i * k + p) * *w.add(j * k + p);
                }
                *out.add(i * ldo + j) = sum;
            }
        }
    }
}

/// `out[j] = x · w_j` for the `n` weight rows at `w`, eight rows (eight
/// chains) at a time.
///
/// # Safety
/// `x` must be valid for reading `k` floats, `w` for `n` rows of `k`, `out`
/// for writing `n`, and `V`'s instruction set must be available.
#[inline(always)]
unsafe fn gemv_rows<V: Lanes>(x: *const f32, w: *const f32, n: usize, k: usize, out: *mut f32) {
    // SAFETY: row `j < n` of `w` and element `j` of `out` are in bounds by
    // the caller's contract; a one-row tile never uses its row stride.
    unsafe {
        let mut j = 0;
        while j + 8 <= n {
            tile::<V, 1, 8>(x, w.add(j * k), k, out.add(j), 0);
            j += 8;
        }
        while j < n {
            tile::<V, 1, 1>(x, w.add(j * k), k, out.add(j), 0);
            j += 1;
        }
    }
}

/// `MR` activation rows against `n` weight rows, three weight rows at a time
/// (`4 × 3` chains plus the three weight vectors and one activation vector
/// fill the sixteen AVX registers).
///
/// # Safety
/// As [`tile`], for `MR` rows of `x`, `n` rows of `w` and the `MR × n` block
/// of `out`.
#[inline(always)]
unsafe fn tile_rows<V: Lanes, const MR: usize>(
    x: *const f32,
    w: *const f32,
    n: usize,
    k: usize,
    out: *mut f32,
    ldo: usize,
) {
    // SAFETY: columns `j..j + NR` stay below `n`, so every tile is inside
    // the block the caller vouches for.
    unsafe {
        let mut j = 0;
        while j + 3 <= n {
            tile::<V, MR, 3>(x, w.add(j * k), k, out.add(j), ldo);
            j += 3;
        }
        match n - j {
            2 => tile::<V, MR, 2>(x, w.add(j * k), k, out.add(j), ldo),
            1 => tile::<V, MR, 1>(x, w.add(j * k), k, out.add(j), ldo),
            _ => {}
        }
    }
}

/// The `m × n` block `x · wᵀ`: full `4 × 3` tiles, then the ragged `m % 4`
/// rows (a lone last row takes the GEMV shape).
///
/// # Safety
/// `x` must be valid for reading `m` and `w` for reading `n` rows of `k`
/// floats, `out` for writing the `m × n` block at row stride `ldo`, and `V`'s
/// instruction set must be available.
#[inline(always)]
unsafe fn gemm_block<V: Lanes>(
    x: *const f32,
    m: usize,
    w: *const f32,
    n: usize,
    k: usize,
    out: *mut f32,
    ldo: usize,
) {
    // SAFETY: rows `i..i + MR` stay below `m`.
    unsafe {
        let mut i = 0;
        while i + 4 <= m {
            tile_rows::<V, 4>(x.add(i * k), w, n, k, out.add(i * ldo), ldo);
            i += 4;
        }
        let (x, out) = (x.add(i * k), out.add(i * ldo));
        match m - i {
            3 => tile_rows::<V, 3>(x, w, n, k, out, ldo),
            2 => tile_rows::<V, 2>(x, w, n, k, out, ldo),
            1 => gemv_rows::<V>(x, w, n, k, out),
            _ => {}
        }
    }
}

/// Attention scores of every head of one token, walking the cached key rows
/// once: `scores[head * n_cells + c] = (q_head · key(c)_head) * scale`, each
/// dot in the module's one order.  `q` holds the heads' `hd`-wide queries
/// back to back; query head `h` reads key head `h / group_heads`.
///
/// # Safety
/// `V`'s instruction set must be available.
#[inline(always)]
unsafe fn token_scores<'a, V: Lanes>(
    q: &[f32],
    hd: usize,
    group_heads: usize,
    scale: f32,
    n_cells: usize,
    key: &impl Fn(usize) -> &'a [f32],
    scores: &mut [f32],
) {
    for c in 0..n_cells {
        let row = key(c);
        for (head, qh) in q.chunks_exact(hd).enumerate() {
            let kv = head / group_heads * hd;
            let kh = &row[kv..kv + hd];
            let mut dot = 0.0f32;
            // SAFETY: `qh` and `kh` are one row of `hd` floats each, and
            // `dot` is the 1 × 1 output block.
            unsafe { tile::<V, 1, 1>(qh.as_ptr(), kh.as_ptr(), hd, &mut dot, 0) };
            scores[head * n_cells + c] = dot * scale;
        }
    }
}

/// Value gather of every head of one token, walking the cached value rows
/// once: `out_head = Σ_c weights[head * n_cells + c] * value(c)_head`, summed
/// in cell order.
///
/// # Safety
/// `V`'s instruction set must be available.
#[inline(always)]
unsafe fn token_gather<'a, V: Lanes>(
    weights: &[f32],
    hd: usize,
    group_heads: usize,
    n_cells: usize,
    value: &impl Fn(usize) -> &'a [f32],
    out: &mut [f32],
) {
    let main = hd - hd % 8;
    out.fill(0.0);
    for c in 0..n_cells {
        let row = value(c);
        for (head, oh) in out.chunks_exact_mut(hd).enumerate() {
            let kv = head / group_heads * hd;
            let vh = &row[kv..kv + hd];
            let w = weights[head * n_cells + c];
            // SAFETY: `oh` and `vh` both hold `hd` floats and `p + 8 <= hd`.
            unsafe {
                let wv = V::splat(w);
                let mut p = 0;
                while p < main {
                    let o = oh.as_mut_ptr().add(p);
                    V::load(o).mul_add(wv, V::load(vh.as_ptr().add(p))).store(o);
                    p += 8;
                }
            }
            for p in main..hd {
                oh[p] += w * vh[p];
            }
        }
    }
}

/// Single-row product against a panel of weight rows: `out[j] = x · w_j`,
/// where `w` holds `out.len()` rows of `x.len()` floats.
pub fn gemv_panel(x: &[f32], w: &[f32], out: &mut [f32]) {
    let (k, n) = (x.len(), out.len());
    assert_eq!(w.len(), n * k, "w does not hold {n} rows of {k}");
    // SAFETY: the assert sizes `w` to `n` rows of `k`, `x` holds `k` and
    // `out` holds `n` floats; `detect` only reports AVX2/FMA when the CPU
    // has it, and the portable lanes need nothing.
    unsafe {
        match Isa::detect() {
            #[cfg(target_arch = "x86_64")]
            Isa::Avx2Fma => avx2::gemv_panel(x.as_ptr(), w.as_ptr(), n, k, out.as_mut_ptr()),
            Isa::Portable => gemv_rows::<[f32; 8]>(x.as_ptr(), w.as_ptr(), n, k, out.as_mut_ptr()),
        }
    }
}

/// Multi-row product block: `out[i * ldo + j] = x_i · w_j` for the
/// `x.len() / k` activation rows of `x` and the `w.len() / k` weight rows of
/// `w`, in `4 × 3` register tiles.  Row `i` of the result is bitwise equal to
/// [`gemv_panel`] of row `i` (see the module docs).
///
/// # Safety
/// `out` must be valid for writing element `i * ldo + j` for every row `i`
/// and column `j` of the block, and nothing else may access those elements
/// during the call.
pub unsafe fn gemm_tile(x: &[f32], w: &[f32], k: usize, out: *mut f32, ldo: usize) {
    assert!(k > 0 && x.len().is_multiple_of(k) && w.len().is_multiple_of(k));
    let (m, n) = (x.len() / k, w.len() / k);
    // SAFETY: `x` and `w` hold exactly `m` and `n` rows of `k`; the caller
    // vouches for `out`; `detect` vouches for the instruction set.
    unsafe {
        match Isa::detect() {
            #[cfg(target_arch = "x86_64")]
            Isa::Avx2Fma => avx2::gemm_tile(x.as_ptr(), m, w.as_ptr(), n, k, out, ldo),
            Isa::Portable => gemm_block::<[f32; 8]>(x.as_ptr(), m, w.as_ptr(), n, k, out, ldo),
        }
    }
}

/// Multi-head attention of one token over `n_cells` cached positions: scores
/// every head's `hd`-wide slice of `q` against `key(c)`, softmaxes per head
/// (the probabilities stay in `scores`, head-major), and overwrites `out`
/// with the probability-weighted sums of `value(c)`.  `key` and `value`
/// return the whole cached row of cell `c` (`q.len() / group_heads` floats:
/// query head `h` reads key/value head `h / group_heads`); each row is read
/// once per phase, front to back, for all heads.
#[allow(clippy::too_many_arguments)]
pub fn attend_token<'a>(
    q: &[f32],
    hd: usize,
    group_heads: usize,
    scale: f32,
    n_cells: usize,
    key: impl Fn(usize) -> &'a [f32],
    value: impl Fn(usize) -> &'a [f32],
    scores: &mut Vec<f32>,
    out: &mut [f32],
) {
    assert!(hd > 0 && q.len().is_multiple_of(hd) && out.len() == q.len() && group_heads > 0);
    let n_heads = q.len() / hd;
    // Every element is overwritten by the scoring pass.
    scores.resize(n_heads * n_cells, 0.0);
    let isa = Isa::detect();
    // SAFETY (both blocks): `detect` only reports AVX2/FMA when the CPU has
    // it; the kernels bounds-check every row `key` / `value` hand them.
    unsafe {
        match isa {
            #[cfg(target_arch = "x86_64")]
            Isa::Avx2Fma => avx2::token_scores(q, hd, group_heads, scale, n_cells, &key, scores),
            Isa::Portable => {
                token_scores::<[f32; 8]>(q, hd, group_heads, scale, n_cells, &key, scores)
            }
        }
    }
    if n_cells > 0 {
        scores
            .chunks_exact_mut(n_cells)
            .for_each(crate::ops::softmax_inplace);
    }
    unsafe {
        match isa {
            #[cfg(target_arch = "x86_64")]
            Isa::Avx2Fma => avx2::token_gather(scores, hd, group_heads, n_cells, &value, out),
            Isa::Portable => {
                token_gather::<[f32; 8]>(scores, hd, group_heads, n_cells, &value, out)
            }
        }
    }
}

/// Fused single-row product against a panel of quantized weight rows:
/// `out[j] = xrow · row_j`, where `blocks` holds `out.len()` rows of
/// `xrow.len().div_ceil(BLOCK_SIZE)` blocks.
///
/// Integer weights are widened in-register (never materialised as dense
/// `f32`), each block's scale is applied exactly once — in the main loop as
/// one fused multiply-add of the block accumulator, and hoisted out of the
/// ragged-tail element loop the same way.
pub(crate) fn gemv_q_panel(xrow: &[f32], blocks: &[Block], out: &mut [f32]) {
    let per_row = xrow.len().div_ceil(BLOCK_SIZE);
    assert_eq!(blocks.len(), out.len() * per_row);
    if per_row == 0 {
        out.fill(0.0);
        return;
    }
    match Isa::detect() {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: `detect` saw AVX2/FMA; each row handed on holds the
        // `per_row` blocks that cover `xrow`.
        Isa::Avx2Fma => unsafe { avx2::gemv_q_panel(xrow, blocks, per_row, out) },
        Isa::Portable => {
            for (o, row) in out.iter_mut().zip(blocks.chunks_exact(per_row)) {
                *o = dot_q_row_portable(xrow, row);
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Element-wise passes
// ---------------------------------------------------------------------------

/// Sum of squares (the RMSNorm reduction).
#[inline]
pub fn sum_squares(x: &[f32]) -> f32 {
    match Isa::detect() {
        #[cfg(target_arch = "x86_64")]
        Isa::Avx2Fma => unsafe { sum_squares_avx2(x) },
        Isa::Portable => sum_squares_portable(x),
    }
}

/// RMSNorm application pass: `out[i] = x[i] * scale * w[i]`.
#[inline]
pub fn rmsnorm_apply(out: &mut [f32], x: &[f32], scale: f32, w: &[f32]) {
    debug_assert!(out.len() == x.len() && x.len() == w.len());
    match Isa::detect() {
        #[cfg(target_arch = "x86_64")]
        Isa::Avx2Fma => unsafe { rmsnorm_apply_avx2(out, x, scale, w) },
        Isa::Portable => {
            for ((o, &v), &wv) in out.iter_mut().zip(x).zip(w) {
                *o = v * scale * wv;
            }
        }
    }
}

/// Maximum element (the softmax stabiliser).  Inputs are finite logits; NaN
/// handling matches `f32::max` only for finite data.
#[inline]
pub fn max_val(x: &[f32]) -> f32 {
    match Isa::detect() {
        #[cfg(target_arch = "x86_64")]
        Isa::Avx2Fma => unsafe { max_avx2(x) },
        Isa::Portable => x.iter().copied().fold(f32::NEG_INFINITY, f32::max),
    }
}

/// Division pass of softmax normalisation: `x[i] /= d`.  IEEE division is
/// exact per element, so this is bitwise identical to the scalar loop.
#[inline]
pub fn div_inplace(x: &mut [f32], d: f32) {
    match Isa::detect() {
        #[cfg(target_arch = "x86_64")]
        Isa::Avx2Fma => unsafe { div_avx2(x, d) },
        Isa::Portable => {
            for v in x.iter_mut() {
                *v /= d;
            }
        }
    }
}

/// Fused SwiGLU gate: `gate[i] = silu(gate[i]) * up[i]` in one pass.
///
/// The AVX2 path evaluates `exp` with the Cephes polynomial (~1e-7 relative
/// error); the portable path keeps the scalar `exp` but still fuses the two
/// loops the scalar code used to run.
#[inline]
pub fn silu_mul(gate: &mut [f32], up: &[f32]) {
    debug_assert_eq!(gate.len(), up.len());
    match Isa::detect() {
        #[cfg(target_arch = "x86_64")]
        Isa::Avx2Fma => unsafe { silu_mul_avx2(gate, up) },
        Isa::Portable => {
            for (g, &u) in gate.iter_mut().zip(up) {
                *g = *g * (1.0 / (1.0 + (-*g).exp())) * u;
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Portable f32x8 implementations
// ---------------------------------------------------------------------------

/// Fixed reduction order shared by the portable kernels: pairwise over the 8
/// lanes.
#[inline]
fn hsum8(acc: [f32; 8]) -> f32 {
    ((acc[0] + acc[1]) + (acc[2] + acc[3])) + ((acc[4] + acc[5]) + (acc[6] + acc[7]))
}

fn dot_q_row_portable(xrow: &[f32], blocks: &[Block]) -> f32 {
    let full = xrow.len() / BLOCK_SIZE;
    let mut acc = [0.0f32; 8];
    for (b, block) in blocks.iter().enumerate().take(full) {
        let x = &xrow[b * BLOCK_SIZE..(b + 1) * BLOCK_SIZE];
        let mut bacc = [0.0f32; 8];
        for (xv, qv) in x.chunks_exact(8).zip(block.q.chunks_exact(8)) {
            for l in 0..8 {
                bacc[l] += xv[l] * qv[l] as f32;
            }
        }
        // One scale multiply per block, fused into the running accumulator.
        for l in 0..8 {
            acc[l] += bacc[l] * block.scale;
        }
    }
    let mut sum = hsum8(acc);
    let rem = xrow.len() % BLOCK_SIZE;
    if rem != 0 {
        // Ragged tail block: same structure — unscaled element loop, then one
        // scale multiply hoisted out of it.
        let block = &blocks[full];
        let x = &xrow[full * BLOCK_SIZE..];
        let mut bacc = 0.0f32;
        for (xv, qv) in x.iter().zip(block.q.iter()) {
            bacc += xv * *qv as f32;
        }
        sum += bacc * block.scale;
    }
    sum
}

fn sum_squares_portable(x: &[f32]) -> f32 {
    let main = x.len() - x.len() % 8;
    let mut acc = [0.0f32; 8];
    for xv in x[..main].chunks_exact(8) {
        for l in 0..8 {
            acc[l] += xv[l] * xv[l];
        }
    }
    let mut tail = 0.0f32;
    for v in &x[main..] {
        tail += v * v;
    }
    hsum8(acc) + tail
}

// ---------------------------------------------------------------------------
// AVX2 + FMA implementations
// ---------------------------------------------------------------------------

#[cfg(target_arch = "x86_64")]
mod avx2 {
    use super::{gemm_block, gemv_rows, Block, Lanes, BLOCK_SIZE};
    use core::arch::x86_64::*;

    /// Horizontal sum of one 8-lane register (fixed reduction order).
    #[inline]
    unsafe fn hsum256(v: __m256) -> f32 {
        let lo = _mm256_castps256_ps128(v);
        let hi = _mm256_extractf128_ps(v, 1);
        let s = _mm_add_ps(lo, hi);
        let shuf = _mm_movehdup_ps(s);
        let sums = _mm_add_ps(s, shuf);
        let hi2 = _mm_movehl_ps(shuf, sums);
        _mm_cvtss_f32(_mm_add_ss(sums, hi2))
    }

    impl Lanes for __m256 {
        #[inline(always)]
        unsafe fn splat(v: f32) -> Self {
            _mm256_set1_ps(v)
        }
        #[inline(always)]
        unsafe fn load(p: *const f32) -> Self {
            // SAFETY: the caller guarantees 8 readable floats at `p`.
            unsafe { _mm256_loadu_ps(p) }
        }
        #[inline(always)]
        unsafe fn store(self, p: *mut f32) {
            // SAFETY: the caller guarantees 8 writable floats at `p`.
            unsafe { _mm256_storeu_ps(p, self) }
        }
        #[inline(always)]
        unsafe fn mul_add(self, a: Self, b: Self) -> Self {
            _mm256_fmadd_ps(a, b, self)
        }
        #[inline(always)]
        unsafe fn hsum(self) -> f32 {
            // SAFETY: the caller guarantees AVX2.
            unsafe { hsum256(self) }
        }
    }

    /// [`super::gemv_panel`] on AVX2/FMA.
    ///
    /// # Safety
    /// As [`gemv_rows`], and the CPU must support AVX2 and FMA.
    #[target_feature(enable = "avx2,fma")]
    pub unsafe fn gemv_panel(x: *const f32, w: *const f32, n: usize, k: usize, out: *mut f32) {
        // SAFETY: the caller's contract is `gemv_rows`' contract.
        unsafe { gemv_rows::<__m256>(x, w, n, k, out) }
    }

    /// [`super::gemm_tile`] on AVX2/FMA.
    ///
    /// # Safety
    /// As [`gemm_block`], and the CPU must support AVX2 and FMA.
    #[target_feature(enable = "avx2,fma")]
    pub unsafe fn gemm_tile(
        x: *const f32,
        m: usize,
        w: *const f32,
        n: usize,
        k: usize,
        out: *mut f32,
        ldo: usize,
    ) {
        // SAFETY: the caller's contract is `gemm_block`'s contract.
        unsafe { gemm_block::<__m256>(x, m, w, n, k, out, ldo) }
    }

    /// The scoring half of [`super::attend_token`] on AVX2/FMA.
    ///
    /// # Safety
    /// The CPU must support AVX2 and FMA.
    #[target_feature(enable = "avx2,fma")]
    pub unsafe fn token_scores<'a>(
        q: &[f32],
        hd: usize,
        group_heads: usize,
        scale: f32,
        n_cells: usize,
        key: &impl Fn(usize) -> &'a [f32],
        scores: &mut [f32],
    ) {
        // SAFETY: the caller guarantees the instruction set.
        unsafe { super::token_scores::<__m256>(q, hd, group_heads, scale, n_cells, key, scores) }
    }

    /// The gathering half of [`super::attend_token`] on AVX2/FMA.
    ///
    /// # Safety
    /// The CPU must support AVX2 and FMA.
    #[target_feature(enable = "avx2,fma")]
    pub unsafe fn token_gather<'a>(
        weights: &[f32],
        hd: usize,
        group_heads: usize,
        n_cells: usize,
        value: &impl Fn(usize) -> &'a [f32],
        out: &mut [f32],
    ) {
        // SAFETY: the caller guarantees the instruction set.
        unsafe { super::token_gather::<__m256>(weights, hd, group_heads, n_cells, value, out) }
    }

    /// [`super::gemv_q_panel`] on AVX2/FMA: one feature crossing for the
    /// whole panel, [`dot_q_row_avx2`] inlined per row.
    ///
    /// # Safety
    /// The CPU must support AVX2 and FMA, and every `per_row`-block row of
    /// `blocks` must cover `xrow`.
    #[target_feature(enable = "avx2,fma")]
    pub unsafe fn gemv_q_panel(xrow: &[f32], blocks: &[Block], per_row: usize, out: &mut [f32]) {
        for (o, row) in out.iter_mut().zip(blocks.chunks_exact(per_row)) {
            // SAFETY: same features as this function; `row` covers `xrow`.
            *o = unsafe { dot_q_row_avx2(xrow, row) };
        }
    }

    #[target_feature(enable = "avx2,fma")]
    #[inline]
    pub unsafe fn dot_q_row_avx2(xrow: &[f32], blocks: &[Block]) -> f32 {
        let full = xrow.len() / BLOCK_SIZE;
        let mut acc = _mm256_setzero_ps();
        for (b, block) in blocks.iter().enumerate().take(full) {
            let px = xrow.as_ptr().add(b * BLOCK_SIZE);
            let pq = block.q.as_ptr();
            let mut bacc = _mm256_setzero_ps();
            for j in 0..BLOCK_SIZE / 8 {
                // Widen 8 i8 weights to f32 entirely in registers.
                let qi = _mm_loadl_epi64(pq.add(8 * j) as *const __m128i);
                let qf = _mm256_cvtepi32_ps(_mm256_cvtepi8_epi32(qi));
                bacc = _mm256_fmadd_ps(_mm256_loadu_ps(px.add(8 * j)), qf, bacc);
            }
            // One scale multiply per block, fused into the running total.
            acc = _mm256_fmadd_ps(bacc, _mm256_set1_ps(block.scale), acc);
        }
        let mut sum = hsum256(acc);
        let rem = xrow.len() % BLOCK_SIZE;
        if rem != 0 {
            // Ragged tail block: unscaled element loop, scale applied once.
            let block = &blocks[full];
            let x = &xrow[full * BLOCK_SIZE..];
            let mut bacc = 0.0f32;
            for (xv, qv) in x.iter().zip(block.q.iter()) {
                bacc += xv * *qv as f32;
            }
            sum += bacc * block.scale;
        }
        sum
    }

    #[target_feature(enable = "avx2,fma")]
    pub unsafe fn sum_squares_avx2(x: &[f32]) -> f32 {
        let n = x.len();
        let p = x.as_ptr();
        let mut acc0 = _mm256_setzero_ps();
        let mut acc1 = _mm256_setzero_ps();
        let mut i = 0;
        while i + 16 <= n {
            let v0 = _mm256_loadu_ps(p.add(i));
            let v1 = _mm256_loadu_ps(p.add(i + 8));
            acc0 = _mm256_fmadd_ps(v0, v0, acc0);
            acc1 = _mm256_fmadd_ps(v1, v1, acc1);
            i += 16;
        }
        while i + 8 <= n {
            let v = _mm256_loadu_ps(p.add(i));
            acc0 = _mm256_fmadd_ps(v, v, acc0);
            i += 8;
        }
        let mut sum = hsum256(_mm256_add_ps(acc0, acc1));
        while i < n {
            sum += x[i] * x[i];
            i += 1;
        }
        sum
    }

    #[target_feature(enable = "avx2,fma")]
    pub unsafe fn rmsnorm_apply_avx2(out: &mut [f32], x: &[f32], scale: f32, w: &[f32]) {
        let n = out.len();
        let s = _mm256_set1_ps(scale);
        let mut i = 0;
        while i + 8 <= n {
            let v = _mm256_mul_ps(_mm256_loadu_ps(x.as_ptr().add(i)), s);
            let r = _mm256_mul_ps(v, _mm256_loadu_ps(w.as_ptr().add(i)));
            _mm256_storeu_ps(out.as_mut_ptr().add(i), r);
            i += 8;
        }
        while i < n {
            out[i] = x[i] * scale * w[i];
            i += 1;
        }
    }

    #[target_feature(enable = "avx2,fma")]
    pub unsafe fn max_avx2(x: &[f32]) -> f32 {
        let n = x.len();
        let mut i = 0;
        let mut m = f32::NEG_INFINITY;
        if n >= 8 {
            let mut mv = _mm256_loadu_ps(x.as_ptr());
            i = 8;
            while i + 8 <= n {
                mv = _mm256_max_ps(mv, _mm256_loadu_ps(x.as_ptr().add(i)));
                i += 8;
            }
            let mut lanes = [0.0f32; 8];
            _mm256_storeu_ps(lanes.as_mut_ptr(), mv);
            for l in lanes {
                m = m.max(l);
            }
        }
        while i < n {
            m = m.max(x[i]);
            i += 1;
        }
        m
    }

    #[target_feature(enable = "avx2,fma")]
    pub unsafe fn div_avx2(x: &mut [f32], d: f32) {
        let n = x.len();
        let dv = _mm256_set1_ps(d);
        let mut i = 0;
        while i + 8 <= n {
            let v = _mm256_div_ps(_mm256_loadu_ps(x.as_ptr().add(i)), dv);
            _mm256_storeu_ps(x.as_mut_ptr().add(i), v);
            i += 8;
        }
        while i < n {
            x[i] /= d;
            i += 1;
        }
    }

    /// 8-lane `exp` via the Cephes polynomial (as in llama.cpp / sse_mathfun):
    /// range-reduce by `log 2`, 5th-order polynomial on the remainder,
    /// reassemble the exponent through the float bit pattern.  Inputs are
    /// clamped to ±88.38 so the result never overflows to infinity.
    #[target_feature(enable = "avx2,fma")]
    unsafe fn exp256(x: __m256) -> __m256 {
        let hi = _mm256_set1_ps(88.376_26);
        let lo = _mm256_set1_ps(-88.376_26);
        let log2e = _mm256_set1_ps(std::f32::consts::LOG2_E);
        let c1 = _mm256_set1_ps(0.693_359_4);
        let c2 = _mm256_set1_ps(-2.121_944_4e-4);
        let x = _mm256_min_ps(_mm256_max_ps(x, lo), hi);
        let fx = _mm256_floor_ps(_mm256_fmadd_ps(x, log2e, _mm256_set1_ps(0.5)));
        // r = x - fx * ln2 (split constant for accuracy).
        let r = _mm256_fnmadd_ps(fx, c1, x);
        let r = _mm256_fnmadd_ps(fx, c2, r);
        let r2 = _mm256_mul_ps(r, r);
        let mut y = _mm256_set1_ps(1.987_569_1e-4);
        y = _mm256_fmadd_ps(y, r, _mm256_set1_ps(1.398_199_9e-3));
        y = _mm256_fmadd_ps(y, r, _mm256_set1_ps(8.333_452e-3));
        y = _mm256_fmadd_ps(y, r, _mm256_set1_ps(4.166_579_6e-2));
        y = _mm256_fmadd_ps(y, r, _mm256_set1_ps(1.666_666_5e-1));
        y = _mm256_fmadd_ps(y, r, _mm256_set1_ps(5.000_000_3e-1));
        y = _mm256_fmadd_ps(y, r2, r);
        y = _mm256_add_ps(y, _mm256_set1_ps(1.0));
        // 2^fx through the exponent bits.
        let emm = _mm256_add_epi32(_mm256_cvtps_epi32(fx), _mm256_set1_epi32(0x7f));
        let pow2 = _mm256_castsi256_ps(_mm256_slli_epi32(emm, 23));
        _mm256_mul_ps(y, pow2)
    }

    #[target_feature(enable = "avx2,fma")]
    pub unsafe fn silu_mul_avx2(gate: &mut [f32], up: &[f32]) {
        let n = gate.len();
        let one = _mm256_set1_ps(1.0);
        let mut i = 0;
        while i + 8 <= n {
            let g = _mm256_loadu_ps(gate.as_ptr().add(i));
            let e = exp256(_mm256_sub_ps(_mm256_setzero_ps(), g));
            let sig = _mm256_div_ps(one, _mm256_add_ps(one, e));
            let r = _mm256_mul_ps(_mm256_mul_ps(g, sig), _mm256_loadu_ps(up.as_ptr().add(i)));
            _mm256_storeu_ps(gate.as_mut_ptr().add(i), r);
            i += 8;
        }
        while i < n {
            let g = gate[i];
            gate[i] = g * (1.0 / (1.0 + (-g).exp())) * up[i];
            i += 1;
        }
    }
}

#[cfg(target_arch = "x86_64")]
use avx2::{div_avx2, max_avx2, rmsnorm_apply_avx2, silu_mul_avx2, sum_squares_avx2};

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::Cell;

    thread_local! {
        /// Overrides [`Isa::detect`] on the current test thread, so both
        /// implementations of a kernel can be run on one machine.
        pub(super) static FORCED_ISA: Cell<Option<Isa>> = const { Cell::new(None) };
    }

    /// Runs `f` with every dispatch on this thread forced onto `isa`.
    fn with_isa<R>(isa: Isa, f: impl FnOnce() -> R) -> R {
        FORCED_ISA.set(Some(isa));
        let out = f();
        FORCED_ISA.set(None);
        out
    }

    /// The instruction sets this machine can run.
    fn runnable_isas() -> Vec<Isa> {
        let mut isas = vec![Isa::Portable];
        if Isa::detect() != Isa::Portable {
            isas.push(Isa::detect());
        }
        isas
    }

    fn seq(n: usize, f: impl Fn(usize) -> f32) -> Vec<f32> {
        (0..n).map(f).collect()
    }

    fn assert_close(got: &[f32], want: &[f32], what: &str) {
        assert_eq!(got.len(), want.len(), "{what}: length");
        for (i, (g, w)) in got.iter().zip(want).enumerate() {
            assert!(
                (g - w).abs() <= 1e-4 * w.abs().max(1.0),
                "{what}: element {i}: {g} vs {w}"
            );
        }
    }

    /// `m × n` product through [`gemm_tile`] into a dense `[m, n]` buffer.
    fn gemm(x: &[f32], w: &[f32], m: usize, k: usize, n: usize) -> Vec<f32> {
        let mut out = vec![f32::NAN; m * n];
        // SAFETY: `out` holds the `m × n` block at row stride `n`.
        unsafe { gemm_tile(&x[..m * k], &w[..n * k], k, out.as_mut_ptr(), n) };
        out
    }

    fn naive(x: &[f32], w: &[f32], m: usize, k: usize, n: usize) -> Vec<f32> {
        let mut out = vec![0.0f32; m * n];
        for i in 0..m {
            for j in 0..n {
                out[i * n + j] = (0..k).map(|p| x[i * k + p] * w[j * k + p]).sum();
            }
        }
        out
    }

    /// Shapes hitting every ragged edge: `m % 4`, `n % 3` (tile) and `n % 8`
    /// (GEMV panel), `k % 8`.
    const MS: [usize; 7] = [1, 2, 3, 4, 5, 8, 9];
    const NS: [usize; 7] = [1, 2, 3, 4, 8, 10, 19];
    const KS: [usize; 8] = [1, 7, 8, 9, 31, 32, 33, 100];

    #[test]
    fn panel_kernels_match_naive_and_rows_match_gemv_bitwise() {
        let x = seq(9 * 100, |i| (i as f32 * 0.37).sin());
        let w = seq(19 * 100, |i| (i as f32 * 0.11).cos());
        for isa in runnable_isas() {
            with_isa(isa, || {
                for (m, n, k) in MS.iter().flat_map(|&m| {
                    NS.iter()
                        .flat_map(move |&n| KS.iter().map(move |&k| (m, n, k)))
                }) {
                    let tiled = gemm(&x, &w, m, k, n);
                    let what = format!("{isa:?} {m}x{k}x{n}");
                    assert_close(&tiled, &naive(&x, &w, m, k, n), &what);
                    // Tile-independence: whatever tile a row lands in, it
                    // must be BITWISE the single-row product — forest
                    // batching regroups rows and must not change any bits.
                    let mut row = vec![f32::NAN; n];
                    for r in 0..m {
                        gemv_panel(&x[r * k..(r + 1) * k], &w[..n * k], &mut row);
                        let bits = |v: &[f32]| v.iter().map(|f| f.to_bits()).collect::<Vec<_>>();
                        assert_eq!(
                            bits(&row),
                            bits(&tiled[r * n..(r + 1) * n]),
                            "{what} row {r}"
                        );
                    }
                }
            });
        }
    }

    /// Reference multi-head attention: textbook scalar scores, softmax and
    /// gather, one head at a time.
    fn attend_reference(
        q: &[f32],
        hd: usize,
        group_heads: usize,
        scale: f32,
        keys: &[Vec<f32>],
        values: &[Vec<f32>],
    ) -> Vec<f32> {
        let mut out = vec![0.0f32; q.len()];
        for (head, (qh, oh)) in q.chunks(hd).zip(out.chunks_mut(hd)).enumerate() {
            let kv = head / group_heads * hd..(head / group_heads + 1) * hd;
            let mut scores: Vec<f32> = keys
                .iter()
                .map(|k| {
                    qh.iter()
                        .zip(&k[kv.clone()])
                        .map(|(a, b)| a * b)
                        .sum::<f32>()
                        * scale
                })
                .collect();
            let max = scores.iter().copied().fold(f32::NEG_INFINITY, f32::max);
            scores.iter_mut().for_each(|s| *s = (*s - max).exp());
            let sum: f32 = scores.iter().sum();
            for (s, v) in scores.iter().zip(values) {
                for (o, x) in oh.iter_mut().zip(&v[kv.clone()]) {
                    *o += s / sum * x;
                }
            }
        }
        out
    }

    #[test]
    fn attend_token_matches_reference_on_ragged_head_dims_and_gqa() {
        for isa in runnable_isas() {
            with_isa(isa, || {
                for (hd, n_heads, group_heads) in [
                    (4usize, 2usize, 1usize),
                    (8, 4, 2),
                    (16, 4, 1),
                    (20, 3, 3),
                    (32, 8, 1),
                    (40, 4, 2),
                ] {
                    for n_cells in [0usize, 1, 5, 33] {
                        let kv_dim = n_heads / group_heads * hd;
                        let q = seq(n_heads * hd, |i| (i as f32 * 0.9).sin());
                        let rows = |salt: f32| -> Vec<Vec<f32>> {
                            (0..n_cells)
                                .map(|c| seq(kv_dim, |i| ((c * kv_dim + i) as f32 * salt).cos()))
                                .collect()
                        };
                        let (keys, values) = (rows(0.13), rows(0.29));
                        let mut scores = vec![7.0; 3];
                        let mut out = vec![f32::NAN; n_heads * hd];
                        attend_token(
                            &q,
                            hd,
                            group_heads,
                            0.25,
                            n_cells,
                            |c| &keys[c],
                            |c| &values[c],
                            &mut scores,
                            &mut out,
                        );
                        assert_eq!(scores.len(), n_heads * n_cells);
                        let want = attend_reference(&q, hd, group_heads, 0.25, &keys, &values);
                        let what = format!("{isa:?} hd={hd} heads={n_heads} cells={n_cells}");
                        assert_close(&out, &want, &what);
                    }
                }
            });
        }
    }

    #[test]
    fn instruction_sets_agree_on_every_panel_kernel() {
        // Trivially true where only the portable lanes run; on an AVX2
        // machine (the CI runner) this pins the two implementations of the
        // generic kernels to each other.
        let (m, k, n) = (7usize, 77usize, 23usize);
        let x = seq(m * k, |i| (i as f32 * 0.23).sin());
        let w = seq(n * k, |i| (i as f32 * 0.31).cos());
        let rows: Vec<Vec<f32>> = (0..29)
            .map(|c| seq(40, |i| ((c * 40 + i) as f32 * 0.17).sin()))
            .collect();
        let run = |isa| {
            with_isa(isa, || {
                let mut gemv = vec![0.0f32; n];
                gemv_panel(&x[..k], &w, &mut gemv);
                let mut attn = vec![0.0f32; 80];
                let mut scores = Vec::new();
                let (key, value) = (|c: usize| &rows[c][..], |c: usize| &rows[28 - c][..]);
                attend_token(&x[..80], 20, 2, 0.2, 29, key, value, &mut scores, &mut attn);
                (gemv, gemm(&x, &w, m, k, n), attn)
            })
        };
        let portable = run(Isa::Portable);
        let native = run(Isa::detect());
        assert_close(&native.0, &portable.0, "gemv_panel");
        assert_close(&native.1, &portable.1, "gemm_tile");
        assert_close(&native.2, &portable.2, "attend_token");
    }

    #[test]
    fn elementwise_passes_match_scalar() {
        let x = seq(67, |i| (i as f32 * 0.21).sin() * 3.0);
        let w = seq(67, |i| 0.5 + (i as f32 * 0.05).cos());

        let ss = sum_squares(&x);
        let ss_ref: f32 = x.iter().map(|v| v * v).sum();
        assert!((ss - ss_ref).abs() <= 1e-4 * ss_ref.max(1.0));

        let mut out = vec![0.0f32; x.len()];
        rmsnorm_apply(&mut out, &x, 0.125, &w);
        for i in 0..x.len() {
            let want = x[i] * 0.125 * w[i];
            assert!((out[i] - want).abs() <= 1e-6 * want.abs().max(1.0));
        }

        assert_eq!(
            max_val(&x),
            x.iter().copied().fold(f32::NEG_INFINITY, f32::max)
        );

        let mut d = x.clone();
        div_inplace(&mut d, 3.5);
        for i in 0..x.len() {
            assert_eq!(d[i], x[i] / 3.5, "division must be exact per element");
        }
    }

    #[test]
    fn silu_mul_matches_scalar_within_tolerance() {
        let n = 100;
        let gate_ref = seq(n, |i| (i as f32 - 50.0) * 0.6);
        let up = seq(n, |i| 1.0 + (i as f32 * 0.13).sin());
        let mut gate = gate_ref.clone();
        silu_mul(&mut gate, &up);
        for i in 0..n {
            let g = gate_ref[i];
            let want = g * (1.0 / (1.0 + (-g).exp())) * up[i];
            assert!(
                (gate[i] - want).abs() <= 1e-4 * want.abs().max(1.0),
                "i={i}: {} vs {want}",
                gate[i]
            );
        }
    }

    #[test]
    fn active_isa_reports_a_path() {
        let isa = active_isa();
        assert!(isa == "avx2+fma" || isa == "portable-f32x8");
    }
}
