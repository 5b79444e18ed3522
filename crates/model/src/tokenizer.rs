//! Byte-level tokenizer.
//!
//! The reproduction does not need a trained BPE vocabulary: the models are
//! synthetic, so a lossless byte-level tokenizer (each byte is a token, plus
//! BOS/EOS specials) is sufficient for the examples to round-trip prompt text
//! and for workload generation to produce realistic prompt lengths.

use crate::Token;

/// Token id of the beginning-of-sequence marker.
pub const BOS: Token = 256;
/// Token id of the end-of-sequence marker.
pub const EOS: Token = 257;
/// Total vocabulary size of the byte tokenizer (256 bytes + 2 specials).
pub const BYTE_VOCAB_SIZE: usize = 258;

/// Lossless byte-level tokenizer.
#[derive(Debug, Clone, Copy, Default)]
pub struct ByteTokenizer;

impl ByteTokenizer {
    /// Creates the tokenizer.
    pub fn new() -> Self {
        Self
    }

    /// Vocabulary size (bytes + specials).
    pub fn vocab_size(&self) -> usize {
        BYTE_VOCAB_SIZE
    }

    /// Encodes text into tokens, optionally prefixing BOS.
    pub fn encode(&self, text: &str, add_bos: bool) -> Vec<Token> {
        let mut out = Vec::with_capacity(text.len() + 1);
        if add_bos {
            out.push(BOS);
        }
        out.extend(text.as_bytes().iter().map(|&b| b as Token));
        out
    }

    /// Decodes tokens back into text, skipping special tokens and any token
    /// outside the byte range (synthetic models may emit them).
    pub fn decode(&self, tokens: &[Token]) -> String {
        let bytes: Vec<u8> = tokens
            .iter()
            .filter(|&&t| t < 256)
            .map(|&t| t as u8)
            .collect();
        String::from_utf8_lossy(&bytes).into_owned()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_ascii() {
        let t = ByteTokenizer::new();
        let s = "Write a Python program.";
        let enc = t.encode(s, false);
        assert_eq!(enc.len(), s.len());
        assert_eq!(t.decode(&enc), s);
    }

    #[test]
    fn bos_is_prepended_and_skipped_on_decode() {
        let t = ByteTokenizer::new();
        let enc = t.encode("hi", true);
        assert_eq!(enc[0], BOS);
        assert_eq!(enc.len(), 3);
        assert_eq!(t.decode(&enc), "hi");
    }

    #[test]
    fn roundtrip_utf8() {
        let t = ByteTokenizer::new();
        let s = "héllo — ✓";
        assert_eq!(t.decode(&t.encode(s, false)), s);
    }

    #[test]
    fn out_of_range_tokens_are_dropped() {
        let t = ByteTokenizer::new();
        assert_eq!(t.decode(&[104, 105, 9999, EOS]), "hi");
    }

    #[test]
    fn vocab_size_covers_specials() {
        assert!(BOS < BYTE_VOCAB_SIZE as Token);
        assert!(EOS < BYTE_VOCAB_SIZE as Token);
        assert_eq!(ByteTokenizer::new().vocab_size(), 258);
    }
}
