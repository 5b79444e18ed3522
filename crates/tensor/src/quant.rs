//! Weight formats modelled after the GGML "K-quant" family, priced.
//!
//! The paper evaluates GGUF models quantized to `Q2_K`, `Q3_K_M`, `Q4_K_M`
//! and similar formats (Tables I and III).  The per-node memory figures
//! (Fig. 7a) and the roofline cost model (weight-streaming time) depend on
//! bytes per weight, which differs per format: [`QuantKind::bits_per_weight`]
//! encodes the effective storage cost of each format including block scale
//! overhead.  That is all the reproduction needs of them: the real
//! tiny-model engine runs f32 weights.

/// Supported quantization formats.
///
/// `F32` and `F16` are included so model presets can describe unquantized
/// checkpoints; the `Q*` variants mirror the GGML K-quant naming used in the
/// paper's model tables.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum QuantKind {
    /// 32-bit floats (no quantization).
    F32,
    /// 16-bit floats.
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

#[cfg(test)]
mod tests {
    use super::*;

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
    fn bytes_for_70b_q3_is_about_30gb() {
        // 70e9 weights at ~3.44 bits ≈ 30 GB, matching the size class of the
        // Dolphin-70B Q3_K_M checkpoint used in the paper.
        let bytes = QuantKind::Q3K.bytes_for(70_000_000_000);
        let gb = bytes as f64 / 1e9;
        assert!(gb > 25.0 && gb < 35.0, "got {gb} GB");
    }
}
