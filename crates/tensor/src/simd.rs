//! The vectorised kernel tier: one accumulation order, three instantiations.
//!
//! Every kernel is selected once per process by `Isa::detect`, among:
//!
//! * **AVX2/FMA** (`core::arch::x86_64`) — 8-lane fused multiply-add inner
//!   loops, in-register `i8 → f32` widening for the fused quantized kernel
//!   (weight rows are never materialised as dense `f32`), and 8-lane
//!   element-wise passes for RMSNorm / softmax / the SiLU-gate product (whose
//!   `exp` uses the Cephes polynomial, the same approximation llama.cpp
//!   ships).
//! * **AVX-512** — the AVX2/FMA kernels, except where a 512-bit register can
//!   do twice the work and still produce the AVX2/FMA result bit for bit: the
//!   multi-row product holds *two activation rows* per register, each half
//!   its own 8-lane chain, and the attention gather — element-wise, so its
//!   width cannot show in a result — runs sixteen lanes wide.  Nothing else
//!   uses a 512-bit register: a process on this path computes exactly the
//!   bits a process on the AVX2/FMA path computes.
//! * **Portable** — the identical loop structure over `[f32; 8]` arrays so
//!   the autovectoriser can still emit whatever the target offers; this is
//!   what runs on an x86-64 machine without AVX2 and on every other
//!   architecture.
//!
//! The matrix products and per-token attention are **panel kernels**
//! ([`gemv_panel`], [`gemm_tile`], [`attend_token`]): one call covers a whole
//! block of outputs, so instruction-set selection and the `#[target_feature]`
//! boundary are crossed once per block and not once per 32-element dot.  They
//! are written once, generic over the `Lanes` register type, and instantiated
//! per instruction set.
//!
//! ## The accumulation order
//!
//! Every dense dot product — whichever kernel, tile or thread computes it —
//! is accumulated in one order: a single 8-lane chain over the full 8-element
//! chunks (`acc = x[p..p+8] * w[p..p+8] + acc`, fused on AVX2/FMA), the
//! chain's fixed horizontal sum, then the `k % 8` tail elements added one by
//! one.  Register blocking only changes *which* independent chains are in
//! flight together (and, on AVX-512, which two share a register), never the
//! order within one, so row `r` of an `m`-row product is bitwise equal to the
//! single-row product of row `r` for every `m`, tile position and thread
//! count.  Forest batching and verify-vs-decode identity rest on this.  The
//! portable lanes differ from the two x86 paths (and all of them from the
//! naive references in [`crate::ops`] and [`crate::quant`]) in the last few
//! ulps, because they neither fuse the multiply-add nor sum the lanes in the
//! same tree; this module's unit tests force each runnable instruction set
//! in turn, hold AVX-512 to AVX2/FMA *bitwise* and both to the portable lanes
//! and the references within 1e-4 relative, and
//! `crates/tensor/tests/kernel_equivalence.rs` checks the one the machine
//! selects through the public entry points.
//!
//! ## Streaming weights
//!
//! A model's weights do not fit the cache a core owns, so a forward pass
//! streams every matrix from the shared cache or memory, and a register tile
//! that waits for each weight row it is about to multiply pays the stall
//! *plus* the arithmetic.  The tile therefore prefetches the weights a fixed
//! distance (`PREFETCH_AHEAD`) ahead of the ones it is multiplying — on the
//! first row block of a product only: later row blocks re-read a matrix the
//! first one left in the core's cache, where a prefetch is pure overhead.
//! And the row block is as tall as the registers allow (eight rows on
//! AVX-512, up to six on the others), because every further block is another
//! pass over the weights.

use crate::quant::{Block, BLOCK_SIZE};

/// Instruction set selected for this process.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Isa {
    /// [`Isa::Avx2Fma`] plus the 512-bit row-pair tile and gather.
    #[cfg(target_arch = "x86_64")]
    Avx512,
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
                if !(std::is_x86_feature_detected!("avx2") && std::is_x86_feature_detected!("fma"))
                {
                    Isa::Portable
                } else if std::is_x86_feature_detected!("avx512f") {
                    Isa::Avx512
                } else {
                    Isa::Avx2Fma
                }
            })
        }
        #[cfg(not(target_arch = "x86_64"))]
        {
            Isa::Portable
        }
    }
}

/// Name of the instruction set this process runs (`"avx512+avx2+fma"`,
/// `"avx2+fma"` or `"portable-f32x8"`), for bench/report labelling.
pub fn active_isa() -> &'static str {
    match Isa::detect() {
        #[cfg(target_arch = "x86_64")]
        Isa::Avx512 => "avx512+avx2+fma",
        #[cfg(target_arch = "x86_64")]
        Isa::Avx2Fma => "avx2+fma",
        Isa::Portable => "portable-f32x8",
    }
}

// ---------------------------------------------------------------------------
// Panel kernels
// ---------------------------------------------------------------------------

/// One vector register of `ROWS` independent 8-lane rows: the accumulator
/// every panel kernel is written over.  `[f32; 8]` is the portable
/// implementation and `__m256` the AVX2/FMA one (one row each); `__m512` is
/// two rows, each half computing exactly what a `__m256` would.
///
/// The methods are `#[inline(always)]` and carry no `#[target_feature]` of
/// their own: they compile to single instructions once inlined into the
/// per-instruction-set entry point that instantiates the kernel.
trait Lanes: Copy {
    /// Activation rows one register carries, each its own 8-lane chain.
    const ROWS: usize;
    /// Weight rows (output columns) of the register tile that is up to four
    /// registers of activations tall: `4 × COLS` accumulators, `COLS` weight
    /// registers and one activation register fill the register file.
    const COLS: usize;
    /// Registers of activations in the tallest tile, which is two columns
    /// wide when taller than four; a product with more left takes blocks of
    /// four.
    const MAX_MR: usize;
    /// The one-row register of the same instruction set, which a lone row of
    /// activations is multiplied in (the GEMV shape).
    type Row: Lanes;

    /// # Safety
    /// The implementing instruction set must be available on this CPU.
    unsafe fn splat(v: f32) -> Self;
    /// Loads `8 * ROWS` consecutive floats: eight per row, rows in order.
    ///
    /// # Safety
    /// As [`Lanes::splat`], and `p` must be valid for reading them.
    unsafe fn load(p: *const f32) -> Self;
    /// Loads eight floats into every row.
    ///
    /// # Safety
    /// As [`Lanes::splat`], and `p` must be valid for reading 8 floats.
    unsafe fn load_rows(p: *const f32) -> Self;
    /// # Safety
    /// As [`Lanes::splat`], and `p` must be valid for writing `8 * ROWS`
    /// floats.
    unsafe fn store(self, p: *mut f32);
    /// Lane-wise `a * b + self`.
    ///
    /// # Safety
    /// As [`Lanes::splat`].
    unsafe fn mul_add(self, a: Self, b: Self) -> Self;
    /// The horizontal sums of eight registers, each row's eight lanes summed
    /// in an order fixed per instruction set: `out[r * 8 + i]` is the sum of
    /// row `r` of `v[i]`.  (Eight at a time because the reduction transposes:
    /// the x86 instruction sets add whole registers of partial sums where a
    /// register-by-register reduction would shuffle one at a time.)
    ///
    /// # Safety
    /// As [`Lanes::splat`], and `out` must be valid for writing `8 * ROWS`
    /// floats.
    unsafe fn hsum_each(v: [Self; 8], out: *mut f32);
}

impl Lanes for [f32; 8] {
    const ROWS: usize = 1;
    const COLS: usize = 3;
    const MAX_MR: usize = 6;
    type Row = Self;

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
    unsafe fn load_rows(p: *const f32) -> Self {
        // SAFETY: one row, so this is `load`.
        unsafe { Self::load(p) }
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
    unsafe fn hsum_each(v: [Self; 8], out: *mut f32) {
        for (i, a) in v.into_iter().enumerate() {
            // SAFETY: the caller guarantees 8 writable floats at `out`.
            unsafe { *out.add(i) = hsum8(a) };
        }
    }
}

/// How far ahead of the weights it is multiplying a register tile prefetches,
/// in floats: 12 KiB, two column groups of the widest tile at an inner
/// dimension of 256.  A tile's weight rows are consecutive in memory and so
/// are consecutive tiles', so its streams, each this far ahead of itself,
/// together touch every line of the block that starts this far ahead of the
/// tile.  On the bench box an 8-layer stack of `d_model` 256 / `d_ff` 704
/// products (25.7 MB of weights, streamed from the shared cache) takes 1.10 ms
/// at one row; at five rows 2.25–2.35 ms without the prefetch and 1.16–1.28
/// with it, the same within noise at half the distance and 1.4–2.0 ms at one
/// and a half times and twice it.
const PREFETCH_AHEAD: usize = 3072;

/// Hints that the cache line at `p` is about to be read.  `p` need not be
/// valid: a prefetch never faults.
#[inline(always)]
fn prefetch(p: *const f32) {
    #[cfg(target_arch = "x86_64")]
    // SAFETY: SSE is part of the x86-64 baseline, and a prefetch has no
    // architectural effect whatever address it is given.
    unsafe {
        use core::arch::x86_64::{_mm_prefetch, _MM_HINT_T0};
        _mm_prefetch::<_MM_HINT_T0>(p.cast());
    }
    #[cfg(not(target_arch = "x86_64"))]
    let _ = p;
}

/// Copies `rows` activation rows of `k` floats at `x` into `buf` in the
/// layout [`tile`] reads for `V`: per register of `V::ROWS` rows, the
/// 8-float chunks of its rows interleaved (chunk `c` of row `s` at float
/// `(c * ROWS + s) * 8`), then each row's `k % 8` tail.  A last register
/// short of rows repeats the last row; [`tile`] drops what it computes for
/// the repeats.  For a one-row register that layout is `x` itself.
///
/// # Safety
/// `x` must be valid for reading `rows > 0` rows of `k` floats.
unsafe fn pack_rows<V: Lanes>(x: *const f32, rows: usize, k: usize, buf: &mut Vec<f32>) {
    let (main, tail) = (k - k % 8, k % 8);
    let per_reg = V::ROWS * k;
    let len = rows.div_ceil(V::ROWS) * per_reg;
    if buf.len() < len {
        buf.resize(len, 0.0);
    }
    for (reg, dst) in buf[..len].chunks_exact_mut(per_reg).enumerate() {
        for s in 0..V::ROWS {
            let r = (reg * V::ROWS + s).min(rows - 1);
            // SAFETY: `r < rows`, one of the rows the caller vouches for.
            let src = unsafe { std::slice::from_raw_parts(x.add(r * k), k) };
            for (c, chunk) in src[..main].chunks_exact(8).enumerate() {
                dst[(c * V::ROWS + s) * 8..][..8].copy_from_slice(chunk);
            }
            dst[V::ROWS * main + s * tail..][..tail].copy_from_slice(&src[main..]);
        }
    }
}

thread_local! {
    /// The [`pack_rows`] buffer of this thread's multi-row products, kept so
    /// that a product allocates nothing once the thread has seen its shape.
    static PACKED: std::cell::RefCell<Vec<f32>> = const { std::cell::RefCell::new(Vec::new()) };
}

/// One register tile of `x · wᵀ`, `MR` registers of activations by `NR`
/// weight rows: `out[r * ldo + j] = x_r · w_j` for the first `rows`
/// activation rows of the tile, every element accumulated in the module's
/// one order (a single chain per element; the `MR · ROWS · NR` chains are
/// what keeps the FMA units busy).  With `AHEAD` it also prefetches, line by
/// line as it walks its own weight rows, the ones [`PREFETCH_AHEAD`] further
/// on.
///
/// # Safety
/// `x` must be valid for reading `MR` registers of rows of `k` floats in
/// [`pack_rows`]' layout for `V`, of which `(MR - 1) * V::ROWS < rows <=
/// MR * V::ROWS` are real; `w` for reading `NR` rows of `k` floats at stride
/// `k`; `out` for writing the `rows × NR` elements at row stride `ldo`; and
/// `V`'s instruction set must be available.
#[inline(always)]
unsafe fn tile<V: Lanes, const MR: usize, const NR: usize, const AHEAD: bool>(
    x: *const f32,
    rows: usize,
    w: *const f32,
    k: usize,
    out: *mut f32,
    ldo: usize,
) {
    let main = k - k % 8;
    // SAFETY: every weight offset below is `j * k + p` with `j < NR` and
    // `p + 8 <= k`; every activation offset is inside register `i < MR` of
    // the packed layout; the stores are the vouched-for elements.  The
    // prefetched addresses are never dereferenced.
    unsafe {
        let mut acc = [[V::splat(0.0); NR]; MR];
        let mut p = 0;
        while p < main {
            if AHEAD && p % 16 == 0 {
                for j in 0..NR {
                    prefetch(w.wrapping_add(j * k + p + PREFETCH_AHEAD));
                }
            }
            let mut wv = [V::splat(0.0); NR];
            for (j, wj) in wv.iter_mut().enumerate() {
                *wj = V::load_rows(w.add(j * k + p));
            }
            for (i, row) in acc.iter_mut().enumerate() {
                let xv = V::load(x.add((i * k + p) * V::ROWS));
                for (a, &wj) in row.iter_mut().zip(&wv) {
                    *a = a.mul_add(xv, wj);
                }
            }
            p += 8;
        }
        // Eight accumulators per reduction, in tile order `e = i * NR + j`.
        // (The last group is padded with an accumulator again and `sums` is
        // not initialised, because a register of zeros for either would be
        // live across the loop above, where the AVX2 tile has none to spare.)
        for g in (0..MR * NR).step_by(8) {
            let mut group = [acc[0][0]; 8];
            for (l, slot) in group.iter_mut().enumerate() {
                if g + l < MR * NR {
                    *slot = acc[(g + l) / NR][(g + l) % NR];
                }
            }
            let mut sums = std::mem::MaybeUninit::<[f32; 16]>::uninit();
            let sums: *mut f32 = sums.as_mut_ptr().cast();
            V::hsum_each(group, sums);
            if main < k {
                add_tails(sums, g, x, w, k, (MR, NR, V::ROWS));
            }
            for l in 0..8 {
                let (i, j) = ((g + l) / NR, (g + l) % NR);
                for s in 0..V::ROWS {
                    if g + l < MR * NR && i * V::ROWS + s < rows {
                        *out.add((i * V::ROWS + s) * ldo + j) = *sums.add(s * 8 + l);
                    }
                }
            }
        }
    }
}

/// The scalar end of [`tile`]'s accumulation order: adds the `k % 8` tail
/// products to the reduced `sums` (as [`Lanes::hsum_each`] lays them out) of
/// accumulators `g..g + 8` of an `mr × nr` tile of `rows`-row registers, one
/// by one.  Out of line, because model dimensions are multiples of eight and
/// the tile's registers are better spent on accumulators.
///
/// # Safety
/// As [`tile`], of which `x`, `w` and `k` are the arguments, and `sums` must
/// be valid for reading and writing `8 * rows` floats.
#[cold]
#[inline(never)]
unsafe fn add_tails(
    sums: *mut f32,
    g: usize,
    x: *const f32,
    w: *const f32,
    k: usize,
    (mr, nr, rows): (usize, usize, usize),
) {
    let (main, tail) = (k - k % 8, k % 8);
    for e in g..(g + 8).min(mr * nr) {
        let (i, j) = (e / nr, e % nr);
        for s in 0..rows {
            for t in 0..tail {
                // SAFETY: tail element `t` of packed row `(i, s)` and of
                // weight row `j` (a register short of rows repeats its last
                // one, so every `s` is there to read), and a sum the caller
                // vouches for.
                unsafe {
                    *sums.add(s * 8 + e - g) +=
                        *x.add((i * k + main) * rows + s * tail + t) * *w.add(j * k + main + t);
                }
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
    const { assert!(V::ROWS == 1) };
    // SAFETY: row `j < n` of `w` and element `j` of `out` are in bounds by
    // the caller's contract; one row is its own packed layout, and a one-row
    // tile never uses its row stride.
    unsafe {
        let mut j = 0;
        while j + 8 <= n {
            tile::<V, 1, 8, false>(x, 1, w.add(j * k), k, out.add(j), 0);
            j += 8;
        }
        while j < n {
            tile::<V, 1, 1, false>(x, 1, w.add(j * k), k, out.add(j), 0);
            j += 1;
        }
    }
}

/// [`tile`], prefetching if this is the product's `first` pass over `w`:
/// the one that pulls the weights towards the core.
///
/// # Safety
/// As [`tile`].
#[allow(clippy::too_many_arguments)]
#[inline(always)]
unsafe fn tile_pass<V: Lanes, const MR: usize, const NR: usize>(
    first: bool,
    x: *const f32,
    rows: usize,
    w: *const f32,
    k: usize,
    out: *mut f32,
    ldo: usize,
) {
    // SAFETY: the caller's contract is `tile`'s.
    unsafe {
        if first {
            tile::<V, MR, NR, true>(x, rows, w, k, out, ldo)
        } else {
            tile::<V, MR, NR, false>(x, rows, w, k, out, ldo)
        }
    }
}

/// `MR` registers of activations against `n` weight rows, `V::COLS` weight
/// rows at a time (two where the tile is taller than four registers).
///
/// # Safety
/// As [`tile`], for `n` rows of `w` and the `rows × n` block of `out`.
#[allow(clippy::too_many_arguments)]
#[inline(always)]
unsafe fn tile_rows<V: Lanes, const MR: usize>(
    first: bool,
    x: *const f32,
    rows: usize,
    w: *const f32,
    n: usize,
    k: usize,
    out: *mut f32,
    ldo: usize,
) {
    let cols = if MR > 4 { 2 } else { V::COLS };
    let mut j = 0;
    while j < n {
        let nr = cols.min(n - j);
        // SAFETY: columns `j..j + nr` stay below `n`, so every tile is inside
        // the block the caller vouches for.
        unsafe {
            let (w, out) = (w.add(j * k), out.add(j));
            // A width this `V` and `MR` never reach is behind a constant
            // condition, which keeps its tile from being instantiated.
            match nr {
                1 => tile_pass::<V, MR, 1>(first, x, rows, w, k, out, ldo),
                2 => tile_pass::<V, MR, 2>(first, x, rows, w, k, out, ldo),
                3 if const { MR <= 4 } => tile_pass::<V, MR, 3>(first, x, rows, w, k, out, ldo),
                4 if const { MR <= 4 && V::COLS == 6 } => {
                    tile_pass::<V, MR, 4>(first, x, rows, w, k, out, ldo)
                }
                5 if const { MR <= 4 && V::COLS == 6 } => {
                    tile_pass::<V, MR, 5>(first, x, rows, w, k, out, ldo)
                }
                6 if const { MR <= 4 && V::COLS == 6 } => {
                    tile_pass::<V, MR, 6>(first, x, rows, w, k, out, ldo)
                }
                _ => unreachable!("a tile is at most {cols} columns wide"),
            }
        }
        j += nr;
    }
}

/// Rows the next row block of a product takes when `left` remain: all of
/// them if they fit the tallest tile, else four registers' worth.
fn row_block<V: Lanes>(left: usize) -> usize {
    if left.div_ceil(V::ROWS) > V::MAX_MR {
        4 * V::ROWS
    } else {
        left
    }
}

/// The `m × n` block `x · wᵀ`, one pass over `w` per [`row_block`] (a lone
/// last row takes the GEMV shape).
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
    let mut packed = if V::ROWS > 1 {
        PACKED.take()
    } else {
        Vec::new()
    };
    let mut i = 0;
    while i < m {
        let rows = row_block::<V>(m - i);
        // SAFETY: rows `i..i + rows` stay below `m`; a packed block holds
        // exactly the registers its tile reads.
        unsafe {
            let (x, out) = (x.add(i * k), out.add(i * ldo));
            let x = if V::ROWS > 1 && rows > 1 {
                pack_rows::<V>(x, rows, k, &mut packed);
                packed.as_ptr()
            } else {
                x
            };
            let first = i == 0;
            // A height `V` never reaches is behind a constant condition,
            // which keeps its tiles from being instantiated.
            match rows.div_ceil(V::ROWS) {
                _ if rows == 1 => gemv_rows::<V::Row>(x, w, n, k, out),
                1 if const { V::ROWS > 1 } => tile_rows::<V, 1>(first, x, rows, w, n, k, out, ldo),
                2 => tile_rows::<V, 2>(first, x, rows, w, n, k, out, ldo),
                3 => tile_rows::<V, 3>(first, x, rows, w, n, k, out, ldo),
                4 => tile_rows::<V, 4>(first, x, rows, w, n, k, out, ldo),
                5 if const { V::MAX_MR >= 5 } => {
                    tile_rows::<V, 5>(first, x, rows, w, n, k, out, ldo)
                }
                6 if const { V::MAX_MR >= 6 } => {
                    tile_rows::<V, 6>(first, x, rows, w, n, k, out, ldo)
                }
                _ => unreachable!("a row block is at most {} registers", V::MAX_MR),
            }
        }
        i += rows;
    }
    if V::ROWS > 1 {
        PACKED.set(packed);
    }
}

/// Passes over the weights [`gemm_tile`] makes of an `m`-row product, and
/// the weight rows its full-height register tile spans, on this process's
/// instruction set — what a caller that splits a product into column blocks
/// sizes the split by.
pub(crate) fn gemm_geometry(m: usize) -> (usize, usize) {
    fn of<V: Lanes>(mut left: usize) -> (usize, usize) {
        let mut passes = 0;
        while left > 0 {
            left -= row_block::<V>(left);
            passes += 1;
        }
        (passes, V::COLS)
    }
    match Isa::detect() {
        #[cfg(target_arch = "x86_64")]
        Isa::Avx512 => of::<core::arch::x86_64::__m512>(m),
        #[cfg(target_arch = "x86_64")]
        Isa::Avx2Fma => of::<core::arch::x86_64::__m256>(m),
        Isa::Portable => of::<[f32; 8]>(m),
    }
}

/// The scaled scores of eight heads against one cached key row: `qh` holds
/// their `hd`-wide queries back to back, head `h` reads `row[kv[h]..][..hd]`.
/// The eight chains are in flight together and reduced by one
/// [`Lanes::hsum_each`].
///
/// # Safety
/// `V`'s instruction set must be available, and `row` must hold `hd` floats
/// from each of `kv`.
#[inline(always)]
unsafe fn score_block<V: Lanes>(
    qh: &[f32],
    hd: usize,
    row: &[f32],
    kv: &[usize; 8],
    scale: f32,
) -> [f32; 8] {
    const { assert!(V::ROWS == 1) };
    let main = hd - hd % 8;
    let qh = &qh[..8 * hd];
    let mut dots = [0.0f32; 8];
    // SAFETY: `h * hd + p + 8 <= 8 * hd`, the length of `qh`, and
    // `kv[h] + p + 8 <= kv[h] + hd`, which the caller vouches is in `row`.
    unsafe {
        let mut acc = [V::splat(0.0); 8];
        let mut p = 0;
        while p < main {
            for (h, a) in acc.iter_mut().enumerate() {
                let qv = V::load(qh.as_ptr().add(h * hd + p));
                *a = a.mul_add(qv, V::load(row.as_ptr().add(kv[h] + p)));
            }
            p += 8;
        }
        V::hsum_each(acc, dots.as_mut_ptr());
    }
    for (h, dot) in dots.iter_mut().enumerate() {
        for p in main..hd {
            *dot += qh[h * hd + p] * row[kv[h] + p];
        }
        *dot *= scale;
    }
    dots
}

/// Attention scores of every head of one token: `scores[head * n_cells + c]
/// = (q_head · key(c)_head) * scale`, each dot in the module's one order.
/// `q` holds the heads' `hd`-wide queries back to back; query head `h` reads
/// key head `h / group_heads`.  Heads go eight at a time ([`score_block`]),
/// their key offsets worked out before the first cell: one walk over the
/// cached key rows for all the blocks — with a single block, the usual case,
/// spelled out so that its offsets stay in registers (a tenth of the whole
/// of [`attend_token`] at 8 heads of 32).  The heads that leaves over (and
/// any beyond 64) take a walk of their own, one chain at a time.
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
    let n_heads = q.len() / hd;
    // Every head's key is inside the first `kv_dim` floats of a cached row.
    let kv_dim = n_heads.div_ceil(group_heads) * hd;
    let mut kv = [[0usize; 8]; 8];
    let blocks = (n_heads / 8).min(kv.len());
    for (head, at) in kv[..blocks].iter_mut().flatten().enumerate() {
        *at = head / group_heads * hd;
    }
    // SAFETY (both `score_block`s): the caller guarantees the instruction
    // set, and `row` is cut to `kv_dim` floats.
    if blocks == 1 {
        let kv = kv[0];
        for c in 0..n_cells {
            let dots = unsafe { score_block::<V>(q, hd, &key(c)[..kv_dim], &kv, scale) };
            for (h, dot) in dots.into_iter().enumerate() {
                scores[h * n_cells + c] = dot;
            }
        }
    } else {
        for c in 0..n_cells {
            let row = &key(c)[..kv_dim];
            for (kv, (qh, head)) in kv[..blocks]
                .iter()
                .zip(q.chunks_exact(8 * hd).zip((0..).step_by(8)))
            {
                let dots = unsafe { score_block::<V>(qh, hd, row, kv, scale) };
                for (h, dot) in dots.into_iter().enumerate() {
                    scores[(head + h) * n_cells + c] = dot;
                }
            }
        }
    }
    if blocks * 8 == n_heads {
        return;
    }
    for c in 0..n_cells {
        let row = key(c);
        for (head, qh) in (blocks * 8..).zip(q[blocks * 8 * hd..].chunks_exact(hd)) {
            let at = head / group_heads * hd;
            let kh = &row[at..at + hd];
            let mut dot = 0.0f32;
            // SAFETY: `qh` and `kh` are one row of `hd` floats each, and
            // `dot` is the 1 × 1 output block.
            unsafe { tile::<V, 1, 1, false>(qh.as_ptr(), 1, kh.as_ptr(), hd, &mut dot, 0) };
            scores[head * n_cells + c] = dot * scale;
        }
    }
}

/// Registers of `out` up to which [`token_gather`] keeps them resident, eight
/// at a time, one walk over the cached rows per eight.  Each walk reads its
/// own piece of every row, so the more walks, the shorter the pieces and the
/// worse they stream once the rows outgrow the core's cache: walking 16 KB
/// rows 32 times (32 heads of 128 on AVX-512; the scoring pass walked its
/// rows four times then too) took 1.09–1.29× the single walks from 128 cells
/// up, and four walks of 2 KB rows (4 heads of 128) 0.73× at 128 cells, 0.97×
/// at 512 and 1.17× at 1024, while the four walks of 8 heads of 32 on AVX2
/// (two on AVX-512) stay below the single walk out to 2048 cells and level
/// with it at 4096.
const RESIDENT_REGISTERS: usize = 32;

/// Eight registers of `out` — chunks `t..t + 8` of its `8 * V::ROWS`-float
/// chunks — gathered over all cells without leaving the registers.  `SPAN`
/// consecutive chunks belong to one head and share its weight; `hd` must be
/// a multiple of `SPAN` chunks and `t` of `SPAN`.
///
/// # Safety
/// `V`'s instruction set must be available.
#[inline(always)]
unsafe fn gather_chunks<'a, V: Lanes, const SPAN: usize>(
    weights: &[f32],
    (hd, group_heads, n_cells): (usize, usize, usize),
    value: &impl Fn(usize) -> &'a [f32],
    out: &mut [f32],
    t: usize,
) {
    let width = 8 * V::ROWS;
    let kv_dim = (out.len() / hd).div_ceil(group_heads) * hd;
    let out = &mut out[t * width..(t + 8) * width];
    // Per span: where its head's weights start, and where its floats start
    // in a value row.
    let mut spans = [(0usize, 0usize); 8];
    for (g, span) in spans.iter_mut().enumerate().step_by(SPAN) {
        let at = (t + g) * width;
        let head = at / hd;
        *span = (head * n_cells, head / group_heads * hd + at % hd);
        assert!(span.1 + SPAN * width <= kv_dim && (head + 1) * n_cells <= weights.len());
    }
    // SAFETY: the assert above bounds every load from `row` (cut to `kv_dim`
    // floats) and from `weights`; `out` is cut to the eight registers stored.
    unsafe {
        let mut acc = [V::splat(0.0); 8];
        for c in 0..n_cells {
            let row = &value(c)[..kv_dim];
            for g in (0..8).step_by(SPAN) {
                let (weight, at) = spans[g];
                let wv = V::splat(*weights.get_unchecked(weight + c));
                for i in 0..SPAN {
                    let vv = V::load(row.as_ptr().add(at + i * width));
                    acc[g + i] = acc[g + i].mul_add(wv, vv);
                }
            }
        }
        for (i, a) in acc.iter().enumerate() {
            a.store(out.as_mut_ptr().add(i * width));
        }
    }
}

/// Value gather of every head of one token: `out_head = Σ_c weights[head *
/// n_cells + c] * value(c)_head`, each element summed in cell order.  Where
/// a head is a power of two of registers and `out` is at most
/// [`RESIDENT_REGISTERS`], eight registers of `out` at a time stay resident
/// while the cached value rows go by ([`gather_chunks`]); the heads that
/// leaves, and every head of any other shape, are accumulated in `out`
/// itself, walking the rows once for all of them.
///
/// # Safety
/// `V`'s instruction set must be available.  (And a `V` of more than one row
/// only computes the one-row `V`'s bits for `hd % (8 * V::ROWS) == 0`:
/// element `p` of a head is fused into its sum exactly when it is in a whole
/// register.)
#[inline(always)]
unsafe fn token_gather<'a, V: Lanes>(
    weights: &[f32],
    hd: usize,
    group_heads: usize,
    n_cells: usize,
    value: &impl Fn(usize) -> &'a [f32],
    out: &mut [f32],
) {
    let width = 8 * V::ROWS;
    let per_head = hd / width;
    let n_heads = out.len() / hd;
    let mut resident = 0;
    if hd.is_multiple_of(width)
        && per_head.is_power_of_two()
        && out.len() <= RESIDENT_REGISTERS * width
    {
        // Whole blocks of eight registers: whole heads, or eighths of one.
        resident = n_heads - n_heads % (8 / per_head).max(1);
        let shape = (hd, group_heads, n_cells);
        for t in (0..resident * per_head).step_by(8) {
            // SAFETY: the caller guarantees the instruction set.
            unsafe {
                match per_head {
                    1 => gather_chunks::<V, 1>(weights, shape, value, out, t),
                    2 => gather_chunks::<V, 2>(weights, shape, value, out, t),
                    4 => gather_chunks::<V, 4>(weights, shape, value, out, t),
                    _ => gather_chunks::<V, 8>(weights, shape, value, out, t),
                }
            }
        }
    }
    let main = hd - hd % width;
    let out = &mut out[resident * hd..];
    out.fill(0.0);
    if out.is_empty() {
        return;
    }
    for c in 0..n_cells {
        let row = value(c);
        for (head, oh) in (resident..).zip(out.chunks_exact_mut(hd)) {
            let kv = head / group_heads * hd;
            let vh = &row[kv..kv + hd];
            let w = weights[head * n_cells + c];
            // SAFETY: `oh` and `vh` both hold `hd` floats and `p + width <=
            // hd`.
            unsafe {
                let wv = V::splat(w);
                let mut p = 0;
                while p < main {
                    let o = oh.as_mut_ptr().add(p);
                    V::load(o).mul_add(wv, V::load(vh.as_ptr().add(p))).store(o);
                    p += width;
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
            Isa::Avx512 | Isa::Avx2Fma => {
                avx2::gemv_panel(x.as_ptr(), w.as_ptr(), n, k, out.as_mut_ptr())
            }
            Isa::Portable => gemv_rows::<[f32; 8]>(x.as_ptr(), w.as_ptr(), n, k, out.as_mut_ptr()),
        }
    }
}

/// Multi-row product block: `out[i * ldo + j] = x_i · w_j` for the
/// `x.len() / k` activation rows of `x` and the `w.len() / k` weight rows of
/// `w`, in register tiles as tall as the instruction set allows: one pass
/// over `w` per 8 rows on AVX-512, per 4 to 6 elsewhere.  Row `i` of the
/// result is bitwise equal to [`gemv_panel`] of row `i` (see the module
/// docs).
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
            Isa::Avx512 => avx512::gemm_tile(x.as_ptr(), m, w.as_ptr(), n, k, out, ldo),
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
/// query head `h` reads key/value head `h / group_heads`).
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
    // SAFETY (both blocks): `detect` only reports an instruction set the CPU
    // has; the kernels bounds-check every row `key` / `value` hand them.
    unsafe {
        match isa {
            // A score is a chain of 8-lane sums, which a wider register
            // would reorder.
            #[cfg(target_arch = "x86_64")]
            Isa::Avx512 | Isa::Avx2Fma => {
                avx2::token_scores(q, hd, group_heads, scale, n_cells, &key, scores)
            }
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
            // The gather is element-wise, so sixteen lanes compute what
            // eight do — for the heads they divide evenly.
            #[cfg(target_arch = "x86_64")]
            Isa::Avx512 if hd.is_multiple_of(16) => {
                avx512::token_gather(scores, hd, group_heads, n_cells, &value, out)
            }
            #[cfg(target_arch = "x86_64")]
            Isa::Avx512 | Isa::Avx2Fma => {
                avx2::token_gather(scores, hd, group_heads, n_cells, &value, out)
            }
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
        Isa::Avx512 | Isa::Avx2Fma => unsafe { avx2::gemv_q_panel(xrow, blocks, per_row, out) },
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
        Isa::Avx512 | Isa::Avx2Fma => unsafe { sum_squares_avx2(x) },
        Isa::Portable => sum_squares_portable(x),
    }
}

/// RMSNorm application pass: `out[i] = x[i] * scale * w[i]`.
#[inline]
pub fn rmsnorm_apply(out: &mut [f32], x: &[f32], scale: f32, w: &[f32]) {
    debug_assert!(out.len() == x.len() && x.len() == w.len());
    match Isa::detect() {
        #[cfg(target_arch = "x86_64")]
        Isa::Avx512 | Isa::Avx2Fma => unsafe { rmsnorm_apply_avx2(out, x, scale, w) },
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
        Isa::Avx512 | Isa::Avx2Fma => unsafe { max_avx2(x) },
        Isa::Portable => x.iter().copied().fold(f32::NEG_INFINITY, f32::max),
    }
}

/// Division pass of softmax normalisation: `x[i] /= d`.  IEEE division is
/// exact per element, so this is bitwise identical to the scalar loop.
#[inline]
pub fn div_inplace(x: &mut [f32], d: f32) {
    match Isa::detect() {
        #[cfg(target_arch = "x86_64")]
        Isa::Avx512 | Isa::Avx2Fma => unsafe { div_avx2(x, d) },
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
        Isa::Avx512 | Isa::Avx2Fma => unsafe { silu_mul_avx2(gate, up) },
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

    /// Horizontal sum of one 8-lane register (fixed reduction order):
    /// `((v0 + v4) + (v1 + v5)) + ((v2 + v6) + (v3 + v7))`.
    #[inline(always)]
    pub(super) unsafe fn hsum256(v: __m256) -> f32 {
        let lo = _mm256_castps256_ps128(v);
        let hi = _mm256_extractf128_ps(v, 1);
        let s = _mm_add_ps(lo, hi);
        let shuf = _mm_movehdup_ps(s);
        let sums = _mm_add_ps(s, shuf);
        let hi2 = _mm_movehl_ps(shuf, sums);
        _mm_cvtss_f32(_mm_add_ss(sums, hi2))
    }

    /// The first step of [`hsum256`] for two registers at once: the low half
    /// of the result is `a`'s low half plus its high half, the high half
    /// `b`'s.
    #[inline(always)]
    unsafe fn fold_halves(a: __m256, b: __m256) -> __m256 {
        _mm256_add_ps(
            _mm256_permute2f128_ps(a, b, 0x20),
            _mm256_permute2f128_ps(a, b, 0x31),
        )
    }

    impl Lanes for __m256 {
        const ROWS: usize = 1;
        const COLS: usize = 3;
        const MAX_MR: usize = 6;
        type Row = Self;

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
        unsafe fn load_rows(p: *const f32) -> Self {
            // SAFETY: one row, so this is `load`.
            unsafe { Self::load(p) }
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
        /// [`hsum256`]'s add tree, transposed: registers `i` and `i + 4`
        /// fold into one, then two rounds of pairwise adds within each
        /// 128-bit half leave sum `i` in lane `i`.
        #[inline(always)]
        unsafe fn hsum_each(v: [Self; 8], out: *mut f32) {
            // SAFETY: the caller guarantees AVX2 and 8 writable floats.
            unsafe {
                let sums = _mm256_hadd_ps(
                    _mm256_hadd_ps(fold_halves(v[0], v[4]), fold_halves(v[1], v[5])),
                    _mm256_hadd_ps(fold_halves(v[2], v[6]), fold_halves(v[3], v[7])),
                );
                _mm256_storeu_ps(out, sums);
            }
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

// ---------------------------------------------------------------------------
// AVX-512: two AVX2/FMA rows per register
// ---------------------------------------------------------------------------

#[cfg(target_arch = "x86_64")]
mod avx512 {
    use super::{gemm_block, Lanes};
    use core::arch::x86_64::*;

    impl Lanes for __m512 {
        const ROWS: usize = 2;
        const COLS: usize = 6;
        const MAX_MR: usize = 4;
        type Row = __m256;

        #[inline(always)]
        unsafe fn splat(v: f32) -> Self {
            _mm512_set1_ps(v)
        }
        #[inline(always)]
        unsafe fn load(p: *const f32) -> Self {
            // SAFETY: the caller guarantees 16 readable floats at `p`.
            unsafe { _mm512_loadu_ps(p) }
        }
        #[inline(always)]
        unsafe fn load_rows(p: *const f32) -> Self {
            // SAFETY: the caller guarantees 8 readable floats at `p`.  (The
            // 64-bit-element broadcast is the AVX-512F spelling of "this
            // 256-bit block into both halves".)
            unsafe { _mm512_castpd_ps(_mm512_broadcast_f64x4(_mm256_loadu_pd(p.cast()))) }
        }
        #[inline(always)]
        unsafe fn store(self, p: *mut f32) {
            // SAFETY: the caller guarantees 16 writable floats at `p`.
            unsafe { _mm512_storeu_ps(p, self) }
        }
        #[inline(always)]
        unsafe fn mul_add(self, a: Self, b: Self) -> Self {
            _mm512_fmadd_ps(a, b, self)
        }
        /// [`hsum256`]'s add tree on both rows of all eight registers at
        /// once.  With 128-bit quarters `[A0 A1 | B0 B1]` of rows A and B:
        /// registers `i` and `i + 4` fold into `[A0+A1, B0+B1]` of each, two
        /// rounds of pairwise adds within every quarter leave row A's sums
        /// in quarters 0 and 2 and row B's in 1 and 3, and one last shuffle
        /// puts the rows in order.
        #[inline(always)]
        unsafe fn hsum_each(v: [Self; 8], out: *mut f32) {
            #[inline(always)]
            unsafe fn fold(a: __m512, b: __m512) -> __m512 {
                _mm512_add_ps(
                    _mm512_shuffle_f32x4(a, b, 0b10_00_10_00),
                    _mm512_shuffle_f32x4(a, b, 0b11_01_11_01),
                )
            }
            /// `_mm256_hadd_ps`, which AVX-512 has no 512-bit form of.
            #[inline(always)]
            unsafe fn hadd(a: __m512, b: __m512) -> __m512 {
                _mm512_add_ps(
                    _mm512_shuffle_ps(a, b, 0b10_00_10_00),
                    _mm512_shuffle_ps(a, b, 0b11_01_11_01),
                )
            }
            // SAFETY: the caller guarantees AVX-512F and 16 writable floats.
            unsafe {
                let sums = hadd(
                    hadd(fold(v[0], v[4]), fold(v[1], v[5])),
                    hadd(fold(v[2], v[6]), fold(v[3], v[7])),
                );
                _mm512_storeu_ps(out, _mm512_shuffle_f32x4(sums, sums, 0b11_01_10_00));
            }
        }
    }

    /// [`super::gemm_tile`] on AVX-512.
    ///
    /// # Safety
    /// As [`gemm_block`], and the CPU must support AVX-512F, AVX2 and FMA.
    #[target_feature(enable = "avx512f,avx2,fma")]
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
        unsafe { gemm_block::<__m512>(x, m, w, n, k, out, ldo) }
    }

    /// The gathering half of [`super::attend_token`] on AVX-512, for heads
    /// that are whole 16-float registers.
    ///
    /// # Safety
    /// The CPU must support AVX-512F, AVX2 and FMA.
    #[target_feature(enable = "avx512f,avx2,fma")]
    pub unsafe fn token_gather<'a>(
        weights: &[f32],
        hd: usize,
        group_heads: usize,
        n_cells: usize,
        value: &impl Fn(usize) -> &'a [f32],
        out: &mut [f32],
    ) {
        // SAFETY: the caller guarantees the instruction set.
        unsafe { super::token_gather::<__m512>(weights, hd, group_heads, n_cells, value, out) }
    }
}

#[cfg(target_arch = "x86_64")]
use avx2::{div_avx2, max_avx2, rmsnorm_apply_avx2, silu_mul_avx2, sum_squares_avx2};

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::Cell;

    thread_local! {
        /// Overrides [`Isa::detect`] on the current test thread, so every
        /// implementation of a kernel can be run on one machine.
        pub(super) static FORCED_ISA: Cell<Option<Isa>> = const { Cell::new(None) };
    }

    /// Runs `f` with every dispatch on this thread forced onto `isa`.
    fn with_isa<R>(isa: Isa, f: impl FnOnce() -> R) -> R {
        FORCED_ISA.set(Some(isa));
        let out = f();
        FORCED_ISA.set(None);
        out
    }

    /// The instruction sets this machine can run: what it detects, and
    /// everything below that.
    fn runnable_isas() -> Vec<Isa> {
        let mut isas = vec![Isa::Portable];
        #[cfg(target_arch = "x86_64")]
        {
            if Isa::detect() != Isa::Portable {
                isas.push(Isa::Avx2Fma);
            }
            if Isa::detect() == Isa::Avx512 {
                isas.push(Isa::Avx512);
            }
        }
        isas
    }

    fn bits(v: &[f32]) -> Vec<u32> {
        v.iter().map(|f| f.to_bits()).collect()
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

    /// Shapes hitting every ragged edge: every row-block split of every
    /// instruction set (`m` up to two 8-row blocks and a lone row), `n % 6`
    /// and `n % 3` (tile) and `n % 8` (GEMV panel), `k % 8`.
    const MS: [usize; 13] = [1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 16, 17];
    const NS: [usize; 9] = [1, 2, 3, 4, 5, 8, 10, 13, 19];
    const KS: [usize; 8] = [1, 7, 8, 9, 31, 32, 33, 100];

    #[test]
    fn panel_kernels_match_naive_and_rows_match_gemv_bitwise() {
        let x = seq(17 * 100, |i| (i as f32 * 0.37).sin());
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

    /// `(hd, n_heads, group_heads)`: heads that do not fill a register, fill
    /// an 8-lane but not a 16-lane one, are ragged, are one to sixteen
    /// registers wide; head counts that leave some over after the blocks of
    /// eight (scores) and of whole resident registers (gather), that make
    /// several blocks, more blocks than have hoisted offsets, and an output
    /// too wide to keep resident; GQA.
    const ATTEND_SHAPES: [(usize, usize, usize); 15] = [
        (4, 2, 1),
        (8, 4, 2),
        (8, 16, 1),
        (16, 4, 1),
        (16, 12, 3),
        (20, 3, 3),
        (24, 8, 2),
        (32, 8, 1),
        (32, 9, 1),
        (40, 4, 2),
        (64, 8, 4),
        (64, 16, 2),
        (8, 72, 1),
        (128, 2, 2),
        (256, 1, 1),
    ];
    const ATTEND_CELLS: [usize; 4] = [0, 1, 5, 33];

    /// Deterministic query, key rows and value rows of an attention shape.
    fn attend_inputs(
        (hd, n_heads, group_heads): (usize, usize, usize),
        n_cells: usize,
    ) -> (Vec<f32>, Vec<Vec<f32>>, Vec<Vec<f32>>) {
        let kv_dim = n_heads / group_heads * hd;
        let rows = |salt: f32| -> Vec<Vec<f32>> {
            (0..n_cells)
                .map(|c| seq(kv_dim, |i| ((c * kv_dim + i) as f32 * salt).cos()))
                .collect()
        };
        let q = seq(n_heads * hd, |i| (i as f32 * 0.9).sin());
        (q, rows(0.13), rows(0.29))
    }

    /// [`attend_token`] on the current thread's instruction set: the
    /// probabilities it leaves in `scores`, and its output.
    fn attend(
        (hd, n_heads, group_heads): (usize, usize, usize),
        q: &[f32],
        keys: &[Vec<f32>],
        values: &[Vec<f32>],
    ) -> (Vec<f32>, Vec<f32>) {
        let mut scores = vec![7.0; 3];
        let mut out = vec![f32::NAN; n_heads * hd];
        let (key, value) = (|c: usize| &keys[c][..], |c: usize| &values[c][..]);
        attend_token(
            q,
            hd,
            group_heads,
            0.25,
            keys.len(),
            key,
            value,
            &mut scores,
            &mut out,
        );
        assert_eq!(scores.len(), n_heads * keys.len());
        (scores, out)
    }

    #[test]
    fn attend_token_matches_reference_on_ragged_head_dims_and_gqa() {
        for isa in runnable_isas() {
            with_isa(isa, || {
                for shape in ATTEND_SHAPES {
                    for n_cells in ATTEND_CELLS {
                        let (q, keys, values) = attend_inputs(shape, n_cells);
                        let (_, out) = attend(shape, &q, &keys, &values);
                        let want = attend_reference(&q, shape.0, shape.2, 0.25, &keys, &values);
                        assert_close(&out, &want, &format!("{isa:?} {shape:?} cells={n_cells}"));
                    }
                }
            });
        }
    }

    /// Attention one head at a time in the module's one order: each score a
    /// single-row product (so one chain, its fixed horizontal sum, the
    /// tail), each output element one sum over the cells in order — fused
    /// below `hd - hd % 8` on the instruction sets that fuse, unfused above.
    fn attend_one_chain_per_head(
        (hd, _, group_heads): (usize, usize, usize),
        q: &[f32],
        keys: &[Vec<f32>],
        values: &[Vec<f32>],
    ) -> (Vec<f32>, Vec<f32>) {
        let fused = Isa::detect() != Isa::Portable;
        let n_cells = keys.len();
        let (mut scores, mut out) = (Vec::new(), vec![0.0f32; q.len()]);
        for (head, (qh, oh)) in q.chunks(hd).zip(out.chunks_mut(hd)).enumerate() {
            let kv = head / group_heads * hd..(head / group_heads + 1) * hd;
            let head_keys: Vec<f32> = keys.iter().flat_map(|k| &k[kv.clone()]).copied().collect();
            let mut probs = vec![0.0f32; n_cells];
            gemv_panel(qh, &head_keys, &mut probs);
            probs.iter_mut().for_each(|s| *s *= 0.25);
            crate::ops::softmax_inplace(&mut probs);
            for (w, v) in probs.iter().zip(values) {
                for (p, (o, x)) in oh.iter_mut().zip(&v[kv.clone()]).enumerate() {
                    *o = if fused && p < hd - hd % 8 {
                        w.mul_add(*x, *o)
                    } else {
                        *o + w * x
                    };
                }
            }
            scores.extend(probs);
        }
        (scores, out)
    }

    #[test]
    fn attend_token_is_bitwise_one_chain_per_head_whatever_is_in_flight_together() {
        // Eight heads' chains in flight and one transposed reduction, output
        // registers resident across cells, sixteen-lane gathers: none of it
        // may move a bit of what one head at a time computes.
        for isa in runnable_isas() {
            with_isa(isa, || {
                for shape in ATTEND_SHAPES {
                    for n_cells in ATTEND_CELLS {
                        let (q, keys, values) = attend_inputs(shape, n_cells);
                        let got = attend(shape, &q, &keys, &values);
                        let want = attend_one_chain_per_head(shape, &q, &keys, &values);
                        let what = format!("{isa:?} {shape:?} cells={n_cells}");
                        assert_eq!(bits(&got.0), bits(&want.0), "{what}: probabilities");
                        assert_eq!(bits(&got.1), bits(&want.1), "{what}: output");
                    }
                }
            });
        }
    }

    #[test]
    fn instruction_sets_agree_on_every_panel_kernel() {
        // Trivially true where only the portable lanes run; elsewhere this
        // pins every instantiation of the generic kernels to the portable
        // one within tolerance, and AVX-512 to AVX2/FMA exactly: a process
        // that detects the wider registers must compute the same bits.
        let (k, n) = (77usize, 23usize);
        let x = seq(17 * 104, |i| (i as f32 * 0.23).sin());
        let w = seq(n * 104, |i| (i as f32 * 0.31).cos());
        let run = |isa| {
            with_isa(isa, || {
                let mut gemv = vec![0.0f32; n];
                gemv_panel(&x[..k], &w[..n * k], &mut gemv);
                // Every row-block split, column counts that are not multiples
                // of either tile width, inner dimensions off the lane width.
                let mut gemms = Vec::new();
                for m in 1..=17 {
                    for (n, k) in [(23, 77), (7, 104), (13, 9), (6, 33), (1, 100), (19, 5)] {
                        gemms.extend(gemm(&x, &w, m, k, n));
                    }
                }
                let mut attn = Vec::new();
                for shape in ATTEND_SHAPES {
                    for n_cells in ATTEND_CELLS {
                        let (q, keys, values) = attend_inputs(shape, n_cells);
                        let (scores, out) = attend(shape, &q, &keys, &values);
                        attn.extend(scores);
                        attn.extend(out);
                    }
                }
                (gemv, gemms, attn)
            })
        };
        let isas = runnable_isas();
        println!("instruction sets forced in turn: {isas:?}");
        let portable = run(Isa::Portable);
        let others: Vec<_> = isas[1..].iter().map(|&isa| (isa, run(isa))).collect();
        for (isa, got) in &others {
            assert_close(&got.0, &portable.0, &format!("{isa:?} gemv_panel"));
            assert_close(&got.1, &portable.1, &format!("{isa:?} gemm_tile"));
            assert_close(&got.2, &portable.2, &format!("{isa:?} attend_token"));
        }
        if let [(_, avx2), (_, avx512)] = &others[..] {
            assert_eq!(bits(&avx512.0), bits(&avx2.0), "gemv_panel");
            assert_eq!(bits(&avx512.1), bits(&avx2.1), "gemm_tile");
            assert_eq!(bits(&avx512.2), bits(&avx2.2), "attend_token");
        }
    }

    #[test]
    fn a_product_of_as_many_rows_as_the_registers_hold_is_one_pass() {
        // (rows, passes over the weights) per instruction set, and the tile
        // width a column split is rounded to.
        let expect = |isa, cols, passes: &[(usize, usize)]| {
            with_isa(isa, || {
                for &(m, want) in passes {
                    assert_eq!(gemm_geometry(m), (want, cols), "{isa:?} m={m}");
                }
            })
        };
        let narrow = [
            (1, 1),
            (4, 1),
            (5, 1),
            (6, 1),
            (7, 2),
            (8, 2),
            (10, 2),
            (11, 3),
            (64, 16),
        ];
        expect(Isa::Portable, 3, &narrow);
        #[cfg(target_arch = "x86_64")]
        {
            expect(Isa::Avx2Fma, 3, &narrow);
            // `detect` is forced, so no 512-bit instruction runs here.
            let wide = [
                (1, 1),
                (5, 1),
                (8, 1),
                (9, 2),
                (16, 2),
                (17, 3),
                (64, 8),
                (89, 12),
            ];
            expect(Isa::Avx512, 6, &wide);
        }
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
        println!("active_isa: {isa}");
        assert!(["avx512+avx2+fma", "avx2+fma", "portable-f32x8"].contains(&isa));
    }
}
