//! # pi-tensor
//!
//! Minimal dense-tensor and transformer-kernel library used by the PipeInfer
//! reproduction.
//!
//! The crate provides exactly what a decoder-only transformer needs:
//!
//! * [`Tensor`] — a row-major, owned, `f32` tensor with 1-D/2-D/3-D views.
//! * [`ops`] — matrix multiplication, softmax, RMSNorm, SiLU/SwiGLU, rotary
//!   position embeddings (RoPE) and element-wise helpers.  Matrix products
//!   above a size threshold are split into column blocks over a persistent
//!   worker pool.
//! * [`simd`] — the arithmetic under [`ops`] and [`quant`]: explicit f32x8
//!   kernels, `core::arch` AVX2/FMA when the CPU has it (detected once at
//!   run time; with AVX-512, two such rows per register wherever that gives
//!   the same bits), a portable array-of-8 implementation otherwise.  Every
//!   build ships all of them; there is no scalar build.
//! * [`quant`] — block quantization formats modelled after the GGML `Q8_0`,
//!   `Q4_K`, `Q3_K` and `Q2_K` families.  They are used both functionally
//!   (quantize → dequantize → matmul round trips in tests) and analytically
//!   (bytes-per-weight accounting for the memory-footprint model in
//!   `pi-perf`).
//!
//! The library is deliberately small and dependency-free (rand is only used
//! for initialisation helpers); it is not meant to compete with full tensor
//! frameworks, only to provide a faithful, testable substrate for the
//! scheduling algorithms under study.
//!
//! ## Numerics
//!
//! Every dense dot product is accumulated in one order (see [`simd`]), so
//! results are bitwise reproducible across runs, `PIPEINFER_THREADS`
//! settings, the two x86 instruction sets and tile membership — row `r` of
//! an `m`-row product is the single-row product of row `r`, bit for bit.
//! `ops::matmul_t_naive` and `QuantizedMatrix::matmul_t_reference` are the
//! ground truth the shipped kernels are property-tested against (1e-4
//! relative).
//!
//! ## Environment
//!
//! * **`PIPEINFER_THREADS`** — caps the persistent worker pool that
//!   parallel matmuls run on (re-read on every call; `1` forces fully
//!   serial in-caller execution).  Results are bitwise independent of the
//!   setting: every output element is accumulated in a fixed order no
//!   matter which thread computes it.

pub mod ops;
pub mod quant;
pub mod simd;
pub mod tensor;

pub use quant::{QuantKind, QuantizedMatrix};
pub use tensor::Tensor;

/// Convenience result alias used across the crate.
pub type Result<T> = std::result::Result<T, TensorError>;

/// Errors produced by tensor construction and kernel invocation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TensorError {
    /// The requested shape does not match the provided data length.
    ShapeMismatch {
        /// Expected number of elements implied by the shape.
        expected: usize,
        /// Actual number of elements provided.
        actual: usize,
    },
    /// Two operands have incompatible shapes for the requested kernel.
    IncompatibleShapes(String),
    /// An index was out of bounds for the tensor shape.
    OutOfBounds(String),
}

impl std::fmt::Display for TensorError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TensorError::ShapeMismatch { expected, actual } => {
                write!(
                    f,
                    "shape mismatch: expected {expected} elements, got {actual}"
                )
            }
            TensorError::IncompatibleShapes(msg) => write!(f, "incompatible shapes: {msg}"),
            TensorError::OutOfBounds(msg) => write!(f, "index out of bounds: {msg}"),
        }
    }
}

impl std::error::Error for TensorError {}
