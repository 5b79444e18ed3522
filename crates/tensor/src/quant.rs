//! Block quantization formats modelled after the GGML "K-quant" family.
//!
//! The paper evaluates GGUF models quantized to `Q2_K`, `Q3_K_M`, `Q4_K_M`
//! and similar formats (Tables I and III).  Quantization matters to the
//! reproduction in two ways:
//!
//! 1. **Memory footprint** — the per-node memory figures (Fig. 7a) and the
//!    roofline cost model (weight-streaming time) depend on bytes per weight,
//!    which differs per format.  [`QuantKind::bits_per_weight`] encodes the
//!    effective storage cost of each format including block scale overhead.
//! 2. **Functional path** — the real tiny-model engine can run with quantized
//!    weight matrices ([`QuantizedMatrix`]), exercising
//!    quantize→dequantize→matmul exactly where llama.cpp would.
//!
//! The formats implemented here are simplified relative to GGML (symmetric
//! per-block scaling, no super-block mins) but preserve the storage cost and
//! round-trip error characteristics that the experiments rely on.

use crate::{ops, simd, Result, Tensor, TensorError};
use rayon::prelude::*;

/// Number of weights in a quantization block.
pub const BLOCK_SIZE: usize = 32;

/// Supported quantization formats.
///
/// `F32` and `F16` are included so model presets can describe unquantized
/// checkpoints; the `Q*` variants mirror the GGML K-quant naming used in the
/// paper's model tables.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum QuantKind {
    /// 32-bit floats (no quantization).
    F32,
    /// 16-bit floats (storage-only halving; dequantizes losslessly here).
    F16,
    /// 8-bit symmetric block quantization (GGML `Q8_0`).
    Q8_0,
    /// ~5.5 bit K-quant (GGML `Q5_K_M`).
    Q5K,
    /// ~4.5 bit K-quant (GGML `Q4_K_M`).
    Q4K,
    /// ~3.4 bit K-quant (GGML `Q3_K_M`).
    Q3K,
    /// ~2.6 bit K-quant (GGML `Q2_K`).
    Q2K,
}

impl QuantKind {
    /// Effective storage cost in bits per weight, including block metadata.
    ///
    /// Values follow the GGML documentation / llama.cpp `ggml_type_size`
    /// ratios closely enough for memory accounting.
    pub fn bits_per_weight(self) -> f64 {
        match self {
            QuantKind::F32 => 32.0,
            QuantKind::F16 => 16.0,
            QuantKind::Q8_0 => 8.5,
            QuantKind::Q5K => 5.5,
            QuantKind::Q4K => 4.5,
            QuantKind::Q3K => 3.4375,
            QuantKind::Q2K => 2.5625,
        }
    }

    /// Bytes needed to store `n` weights in this format.
    pub fn bytes_for(self, n: u64) -> u64 {
        ((n as f64) * self.bits_per_weight() / 8.0).ceil() as u64
    }

    /// The number of integer quantization levels used by the functional
    /// implementation in this crate (0 means "not quantized").
    fn levels(self) -> i32 {
        match self {
            QuantKind::F32 | QuantKind::F16 => 0,
            QuantKind::Q8_0 => 127,
            QuantKind::Q5K => 15,
            QuantKind::Q4K => 7,
            QuantKind::Q3K => 3,
            QuantKind::Q2K => 1,
        }
    }

    /// Parses the GGUF-style names used in the paper's tables
    /// (e.g. `"Q4_K_M"`, `"Q3_K_M"`, `"Q2_K"`, `"Q5_K"`).
    pub fn parse(name: &str) -> Option<Self> {
        let up = name.to_ascii_uppercase();
        let up = up.trim();
        Some(match up {
            "F32" | "FP32" => QuantKind::F32,
            "F16" | "FP16" => QuantKind::F16,
            "Q8_0" | "Q8" => QuantKind::Q8_0,
            s if s.starts_with("Q5") => QuantKind::Q5K,
            s if s.starts_with("Q4") => QuantKind::Q4K,
            s if s.starts_with("Q3") => QuantKind::Q3K,
            s if s.starts_with("Q2") => QuantKind::Q2K,
            _ => return None,
        })
    }

    /// Human-readable name matching the paper's tables.
    pub fn name(self) -> &'static str {
        match self {
            QuantKind::F32 => "F32",
            QuantKind::F16 => "F16",
            QuantKind::Q8_0 => "Q8_0",
            QuantKind::Q5K => "Q5_K",
            QuantKind::Q4K => "Q4_K_M",
            QuantKind::Q3K => "Q3_K_M",
            QuantKind::Q2K => "Q2_K",
        }
    }
}

/// A single quantized block: `BLOCK_SIZE` weights stored as signed integers
/// plus one f32 scale.  Crate-visible so the [`simd`] module's fused
/// dequant-dot kernel can widen the integers in-register.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct Block {
    pub(crate) scale: f32,
    pub(crate) q: [i8; BLOCK_SIZE],
}

/// A weight matrix stored in block-quantized form.
///
/// Shape is `[rows, cols]` with `cols` padded up to a multiple of
/// [`BLOCK_SIZE`] internally; dequantization and matmul ignore the padding.
#[derive(Debug, Clone, PartialEq)]
pub struct QuantizedMatrix {
    kind: QuantKind,
    rows: usize,
    cols: usize,
    blocks_per_row: usize,
    blocks: Vec<Block>,
}

impl QuantizedMatrix {
    /// Quantizes a 2-D tensor (interpreted as `[rows, cols]`) into blocks.
    ///
    /// `F32`/`F16` kinds are stored losslessly by using a per-block scale
    /// equal to the maximum magnitude with 127 levels — i.e. they fall back
    /// to `Q8_0` storage functionally, but report their own byte costs.
    pub fn quantize(t: &Tensor, kind: QuantKind) -> Result<Self> {
        if t.rank() > 2 {
            return Err(TensorError::IncompatibleShapes(
                "quantize expects a rank-1 or rank-2 tensor".to_string(),
            ));
        }
        let rows = t.rows();
        let cols = t.cols();
        let blocks_per_row = cols.div_ceil(BLOCK_SIZE);
        let levels = if kind.levels() == 0 {
            127
        } else {
            kind.levels()
        } as f32;
        let mut blocks = Vec::with_capacity(rows * blocks_per_row);
        for r in 0..rows {
            let row = t.row(r)?;
            for b in 0..blocks_per_row {
                let start = b * BLOCK_SIZE;
                let end = (start + BLOCK_SIZE).min(cols);
                let chunk = &row[start..end];
                let amax = chunk.iter().fold(0.0f32, |m, v| m.max(v.abs()));
                let scale = if amax > 0.0 { amax / levels } else { 0.0 };
                let inv = if scale > 0.0 { 1.0 / scale } else { 0.0 };
                let mut q = [0i8; BLOCK_SIZE];
                for (i, &v) in chunk.iter().enumerate() {
                    let quantized = (v * inv).round().clamp(-levels, levels);
                    q[i] = quantized as i8;
                }
                blocks.push(Block { scale, q });
            }
        }
        Ok(Self {
            kind,
            rows,
            cols,
            blocks_per_row,
            blocks,
        })
    }

    /// The quantization format of this matrix.
    pub fn kind(&self) -> QuantKind {
        self.kind
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Reported storage footprint in bytes (per the format's nominal bit
    /// cost, not the in-memory representation of this functional model).
    pub fn nominal_bytes(&self) -> u64 {
        self.kind.bytes_for((self.rows * self.cols) as u64)
    }

    /// Dequantizes the matrix back to a dense tensor.
    pub fn dequantize(&self) -> Tensor {
        let mut data = vec![0.0f32; self.rows * self.cols];
        for r in 0..self.rows {
            for b in 0..self.blocks_per_row {
                let block = &self.blocks[r * self.blocks_per_row + b];
                let start = b * BLOCK_SIZE;
                let end = (start + BLOCK_SIZE).min(self.cols);
                for i in start..end {
                    data[r * self.cols + i] = block.q[i - start] as f32 * block.scale;
                }
            }
        }
        Tensor::from_vec(data, &[self.rows, self.cols]).expect("shape is consistent")
    }

    /// Computes `x · wᵀ` against the quantized weights with a **fused**
    /// kernel: integer weights are consumed in place (no dequantized copy),
    /// the per-block scale is applied once per block, and output rows /
    /// column blocks are distributed over the persistent worker pool.  Each
    /// activation row against a block of weight rows is one
    /// `simd::gemv_q_panel` call; the final (possibly short) chunk of a row
    /// pairs with its final block because blocks cover exactly `cols`
    /// elements (debug-asserted below).
    pub fn matmul_t(&self, x: &Tensor) -> Result<Tensor> {
        if x.cols() != self.cols {
            return Err(TensorError::IncompatibleShapes(format!(
                "quantized matmul: x has {} cols, w has {}",
                x.cols(),
                self.cols
            )));
        }
        debug_assert_eq!(
            self.blocks_per_row,
            self.cols.div_ceil(BLOCK_SIZE),
            "blocks must cover exactly the {} columns of a row",
            self.cols
        );
        debug_assert_eq!(self.blocks.len(), self.rows * self.blocks_per_row);
        let m = x.rows();
        let n = self.rows;
        let k = self.cols;
        let xd = x.data();
        let mut out = vec![0.0f32; m * n];
        if m == 1 {
            ops::gemv_dispatch(k, &mut out, |j0, chunk| {
                let rows = j0 * self.blocks_per_row..(j0 + chunk.len()) * self.blocks_per_row;
                simd::gemv_q_panel(xd, &self.blocks[rows], chunk)
            });
        } else if m * n * k < ops::PAR_DISPATCH_WEIGHT_LOADS {
            for (i, orow) in out.chunks_mut(n).enumerate() {
                simd::gemv_q_panel(&xd[i * k..(i + 1) * k], &self.blocks, orow);
            }
        } else {
            out.par_chunks_mut(n).enumerate().for_each(|(i, orow)| {
                simd::gemv_q_panel(&xd[i * k..(i + 1) * k], &self.blocks, orow);
            });
        }
        Tensor::from_vec(out, &[m, n])
    }

    /// Reference fused product — the pre-optimisation serial kernel with its
    /// per-block slicing, kept as ground truth for the parallel kernel's
    /// equivalence property tests and the kernels bench's "before" side.
    pub fn matmul_t_reference(&self, x: &Tensor) -> Result<Tensor> {
        if x.cols() != self.cols {
            return Err(TensorError::IncompatibleShapes(format!(
                "quantized matmul: x has {} cols, w has {}",
                x.cols(),
                self.cols
            )));
        }
        let m = x.rows();
        let mut out = Tensor::zeros(&[m, self.rows]);
        for i in 0..m {
            let xrow = x.row(i)?.to_vec();
            for j in 0..self.rows {
                let mut acc = 0.0f32;
                for b in 0..self.blocks_per_row {
                    let block = &self.blocks[j * self.blocks_per_row + b];
                    let start = b * BLOCK_SIZE;
                    let end = (start + BLOCK_SIZE).min(self.cols);
                    let mut block_acc = 0.0f32;
                    for (xv, qv) in xrow[start..end].iter().zip(&block.q) {
                        block_acc += xv * *qv as f32;
                    }
                    acc += block_acc * block.scale;
                }
                out.set2(i, j, acc);
            }
        }
        Ok(out)
    }

    /// Maximum absolute round-trip error versus the original tensor.
    pub fn max_abs_error(&self, original: &Tensor) -> f32 {
        let d = self.dequantize();
        d.data()
            .iter()
            .zip(original.data().iter())
            .map(|(a, b)| (a - b).abs())
            .fold(0.0, f32::max)
    }
}

/// Convenience: relative matmul error introduced by quantizing `w` to `kind`.
///
/// Used by tests and by the perf model's documentation to justify which
/// formats remain usable for draft/target agreement.
pub fn quantization_matmul_error(x: &Tensor, w: &Tensor, kind: QuantKind) -> Result<f32> {
    let exact = ops::matmul_t(x, w)?;
    let q = QuantizedMatrix::quantize(w, kind)?;
    let approx = q.matmul_t(x)?;
    let mut num = 0.0f32;
    let mut den = 0.0f32;
    for (a, b) in exact.data().iter().zip(approx.data().iter()) {
        num += (a - b) * (a - b);
        den += a * a;
    }
    Ok(if den > 0.0 { (num / den).sqrt() } else { 0.0 })
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn random_matrix(rows: usize, cols: usize, seed: u64) -> Tensor {
        let mut rng = StdRng::seed_from_u64(seed);
        Tensor::rand_uniform(&mut rng, &[rows, cols], 1.0)
    }

    #[test]
    fn bits_per_weight_ordering() {
        assert!(QuantKind::F32.bits_per_weight() > QuantKind::F16.bits_per_weight());
        assert!(QuantKind::F16.bits_per_weight() > QuantKind::Q8_0.bits_per_weight());
        assert!(QuantKind::Q8_0.bits_per_weight() > QuantKind::Q5K.bits_per_weight());
        assert!(QuantKind::Q5K.bits_per_weight() > QuantKind::Q4K.bits_per_weight());
        assert!(QuantKind::Q4K.bits_per_weight() > QuantKind::Q3K.bits_per_weight());
        assert!(QuantKind::Q3K.bits_per_weight() > QuantKind::Q2K.bits_per_weight());
    }

    #[test]
    fn parse_gguf_names() {
        assert_eq!(QuantKind::parse("Q4_K_M"), Some(QuantKind::Q4K));
        assert_eq!(QuantKind::parse("Q3_K_M"), Some(QuantKind::Q3K));
        assert_eq!(QuantKind::parse("Q2_K"), Some(QuantKind::Q2K));
        assert_eq!(QuantKind::parse("q5_k"), Some(QuantKind::Q5K));
        assert_eq!(QuantKind::parse("f16"), Some(QuantKind::F16));
        assert_eq!(QuantKind::parse("bogus"), None);
    }

    #[test]
    fn bytes_for_70b_q3_is_about_30gb() {
        // 70e9 weights at ~3.44 bits ≈ 30 GB, matching the size class of the
        // Dolphin-70B Q3_K_M checkpoint used in the paper.
        let bytes = QuantKind::Q3K.bytes_for(70_000_000_000);
        let gb = bytes as f64 / 1e9;
        assert!(gb > 25.0 && gb < 35.0, "got {gb} GB");
    }

    #[test]
    fn q8_roundtrip_is_tight() {
        let w = random_matrix(8, 64, 1);
        let q = QuantizedMatrix::quantize(&w, QuantKind::Q8_0).unwrap();
        assert!(q.max_abs_error(&w) < 0.02);
    }

    #[test]
    fn q2_roundtrip_is_lossy_but_bounded() {
        let w = random_matrix(8, 64, 2);
        let q = QuantizedMatrix::quantize(&w, QuantKind::Q2K).unwrap();
        let err = q.max_abs_error(&w);
        assert!(err > 0.05, "Q2 should be visibly lossy, err={err}");
        assert!(
            err <= 1.0,
            "error bounded by block max magnitude, err={err}"
        );
    }

    #[test]
    fn error_increases_as_bits_decrease() {
        let w = random_matrix(16, 128, 3);
        let e8 = {
            let q = QuantizedMatrix::quantize(&w, QuantKind::Q8_0).unwrap();
            q.max_abs_error(&w)
        };
        let e4 = {
            let q = QuantizedMatrix::quantize(&w, QuantKind::Q4K).unwrap();
            q.max_abs_error(&w)
        };
        let e2 = {
            let q = QuantizedMatrix::quantize(&w, QuantKind::Q2K).unwrap();
            q.max_abs_error(&w)
        };
        assert!(e8 < e4 && e4 < e2, "e8={e8} e4={e4} e2={e2}");
    }

    #[test]
    fn quantized_matmul_approximates_exact() {
        let x = random_matrix(3, 64, 4);
        let w = random_matrix(5, 64, 5);
        let rel = quantization_matmul_error(&x, &w, QuantKind::Q8_0).unwrap();
        assert!(rel < 0.02, "relative error {rel}");
        let rel4 = quantization_matmul_error(&x, &w, QuantKind::Q4K).unwrap();
        assert!(rel4 < 0.2, "relative error {rel4}");
    }

    #[test]
    fn fused_matmul_matches_reference_kernel() {
        for (m, cols, seed) in [
            (1usize, 64usize, 10u64),
            (3, 50, 11),
            (5, 96, 12),
            (8, 33, 13),
        ] {
            let x = random_matrix(m, cols, seed);
            let w = random_matrix(7, cols, seed + 100);
            let q = QuantizedMatrix::quantize(&w, QuantKind::Q4K).unwrap();
            let fused = q.matmul_t(&x).unwrap();
            let reference = q.matmul_t_reference(&x).unwrap();
            assert_eq!(fused.shape(), reference.shape());
            for (a, b) in fused.data().iter().zip(reference.data().iter()) {
                assert!(
                    (a - b).abs() <= 1e-4 * a.abs().max(1.0),
                    "m={m} cols={cols}: {a} vs {b}"
                );
            }
        }
    }

    #[test]
    fn quantized_matmul_shape_check() {
        let x = random_matrix(2, 32, 6);
        let w = random_matrix(4, 64, 7);
        let q = QuantizedMatrix::quantize(&w, QuantKind::Q4K).unwrap();
        assert!(q.matmul_t(&x).is_err());
    }

    #[test]
    fn non_multiple_of_block_size_columns() {
        let w = random_matrix(3, 50, 8);
        let q = QuantizedMatrix::quantize(&w, QuantKind::Q8_0).unwrap();
        let d = q.dequantize();
        assert_eq!(d.shape(), &[3, 50]);
        assert!(q.max_abs_error(&w) < 0.02);
    }

    #[test]
    fn nominal_bytes_scale_with_kind() {
        let w = random_matrix(8, 128, 9);
        let q4 = QuantizedMatrix::quantize(&w, QuantKind::Q4K).unwrap();
        let q8 = QuantizedMatrix::quantize(&w, QuantKind::Q8_0).unwrap();
        assert!(q4.nominal_bytes() < q8.nominal_bytes());
    }
}
