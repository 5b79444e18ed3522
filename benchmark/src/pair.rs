//! The `bp256` target/draft model pair.
//!
//! Random tiny models never speculate: draft confidence sits near `1/vocab`,
//! below every cutoff, and draft/target agreement is chance.  This module
//! builds a pair on which speculation *engages* and whose acceptance is a
//! frozen, checked quantity:
//!
//! * target — 8 layers, `d_model` 256, 8 heads, `d_ff` 704, byte vocabulary,
//!   random weights from a fixed weight seed;
//! * draft — the first 2 layers of the target (quarter-cost drafting, the
//!   relation a 7B draft has to a 70B target);
//! * alignment — `wo` and `w_down` of target layers ≥ 2 are scaled by ε, so
//!   the layers the draft lacks only nudge the residual stream.  Small ε →
//!   the draft's argmax mostly matches the target's;
//! * `lm_head` × 30 — peaks the softmax so draft confidence clears real
//!   cutoffs (the argmax, hence acceptance, is unchanged by the scale).
//!
//! Only public fields of `ModelConfig` / `ModelWeights` are touched.  The
//! weights never depend on `--seed`: the seed drives inputs only.

use crate::adapter::{self, Activation, Model, ModelConfig, ModelWeights, Token, BYTE_VOCAB_SIZE};
use std::sync::Arc;

/// Fixed weight seed of the `bp256` target.
const WEIGHT_SEED: u64 = 0xB256;
/// Layers the draft keeps.
pub const DRAFT_LAYERS: usize = 2;
/// Softmax-peaking scale applied to the shared output head.
const LM_HEAD_SCALE: f32 = 30.0;
/// Longest draft chain the probe replays (every request's `max_draft`).
const MAX_CHAIN: usize = 4;

/// Which frozen draft/target alignment to build.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Alignment {
    /// ε = 0.025: the draft tracks the target (acceptance ≈ 0.75).
    Hi,
    /// ε = 0.6: the draft almost always misses (acceptance ≈ 0.02).
    Lo,
}

impl Alignment {
    fn epsilon(self) -> f32 {
        match self {
            Alignment::Hi => 0.025,
            Alignment::Lo => 0.6,
        }
    }

    /// Short label used in output.
    pub fn name(self) -> &'static str {
        match self {
            Alignment::Hi => "hi",
            Alignment::Lo => "lo",
        }
    }
}

/// Result of the single-process pair probe.
#[derive(Debug, Clone, Copy)]
pub struct PairProbe {
    /// Share of probed positions where the draft's greedy token equals the
    /// target's.
    pub agreement: f64,
    /// Draft tokens a synchronous chain speculator would have proposed.
    pub drafted: usize,
    /// How many of those the target would have accepted.
    pub accepted: usize,
}

impl PairProbe {
    pub fn acceptance(&self) -> f64 {
        self.accepted as f64 / self.drafted.max(1) as f64
    }
}

/// A built pair, ready to hand to `ExecutionMode::Real`.
pub struct Pair {
    pub target: Arc<Model>,
    pub draft: Arc<Model>,
    pub alignment: Alignment,
}

/// The `bp256` target geometry.
pub fn bp256_config() -> ModelConfig {
    ModelConfig {
        name: "bp256".to_string(),
        vocab_size: BYTE_VOCAB_SIZE,
        d_model: 256,
        n_layers: 8,
        n_heads: 8,
        n_kv_heads: 8,
        d_ff: 704,
        max_seq_len: 2048,
        rope_theta: 10000.0,
        norm_eps: 1e-5,
        activation: Activation::SwiGlu,
    }
}

/// Builds the pair for `alignment`.
pub fn build(alignment: Alignment) -> Pair {
    let cfg = bp256_config();
    let mut weights = ModelWeights::random(&cfg, WEIGHT_SEED);
    let eps = alignment.epsilon();
    for layer in &mut weights.layers[DRAFT_LAYERS..] {
        for v in layer.wo.data_mut() {
            *v *= eps;
        }
        for v in layer.w_down.data_mut() {
            *v *= eps;
        }
    }
    for v in weights.lm_head.data_mut() {
        *v *= LM_HEAD_SCALE;
    }
    let (draft_cfg, draft_weights) = weights.truncated(&cfg, DRAFT_LAYERS);
    Pair {
        target: Arc::new(Model::new(cfg, weights)),
        draft: Arc::new(Model::new(draft_cfg, draft_weights)),
        alignment,
    }
}

impl Pair {
    /// Single-process probe of the pair: greedy-decodes `n_tokens` target
    /// tokens after `prompt`, teacher-forces the draft over the same stream,
    /// and replays what a synchronous speculator drafting chains of
    /// [`MAX_CHAIN`] would have seen — a chain is accepted up to the draft's
    /// first disagreement with the target (or first unconfident token), then
    /// the target supplies one token and the next chain starts.
    pub fn probe(&self, prompt: &[Token], cutoff: f32, n_tokens: usize) -> PairProbe {
        let stream = adapter::greedy_reference(&self.target, prompt, n_tokens);
        let mut full = prompt.to_vec();
        full.extend_from_slice(&stream);
        // Row `prompt.len() - 1 + i` of the draft's logits predicts stream[i].
        let rows = &adapter::teacher_forced_rows(&self.draft, &full)[prompt.len() - 1..];
        let agree = |i: usize| rows[i].0 == stream[i];
        let (mut drafted, mut accepted, mut i) = (0, 0, 0);
        while i < stream.len() {
            let chain = MAX_CHAIN.min(stream.len() - i);
            let confident = (0..chain).take_while(|&k| rows[i + k].1 >= cutoff).count();
            let hits = (0..confident).take_while(|&k| agree(i + k)).count();
            // A confident draft keeps drafting after its first miss; what it
            // proposes there is wasted either way.
            drafted += if hits < confident { chain } else { confident };
            accepted += hits;
            i += hits + 1;
        }
        PairProbe {
            agreement: (0..stream.len()).filter(|&i| agree(i)).count() as f64 / stream.len() as f64,
            drafted,
            accepted,
        }
    }
}

/// Acceptance gate: `hi` must speculate well, `lo` badly, and both must
/// actually draft.  `drafted`/`accepted` are the counters of a real run.
pub fn check_acceptance(
    alignment: Alignment,
    drafted: usize,
    accepted: usize,
) -> Result<f64, String> {
    if drafted == 0 {
        return Err(format!(
            "pair {}: no draft tokens proposed — speculation never engaged",
            alignment.name()
        ));
    }
    let rate = accepted as f64 / drafted as f64;
    match alignment {
        Alignment::Hi if rate < 0.6 => Err(format!(
            "pair hi: measured acceptance {rate:.3} < 0.6 ({accepted}/{drafted})"
        )),
        Alignment::Lo if rate > 0.3 => Err(format!(
            "pair lo: measured acceptance {rate:.3} > 0.3 ({accepted}/{drafted})"
        )),
        _ => Ok(rate),
    }
}
