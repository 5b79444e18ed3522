//! Model weights: construction, random initialisation and draft derivation.
//!
//! Weights are only ever materialised for *tiny* models (used by tests,
//! examples and the real-execution driver); the paper-scale models are
//! handled analytically by `pi-perf`.  Draft models for speculative decoding
//! are derived from a target model either by perturbation (same architecture,
//! noisy weights — agreement degrades smoothly with the noise scale) or by
//! truncation (first `k` layers — structurally smaller, the same relationship
//! a 7B draft has to a 70B target).

use crate::config::{Activation, ModelConfig};
use pi_tensor::Tensor;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Weights of one decoder layer.  All projection matrices are stored
/// row-major as `[out_features, in_features]` so that `pi_tensor::ops::matmul_t`
/// (and its scratch-buffer variant `pi_tensor::ops::matmul_t_into`, which the
/// forward pass runs once per projection for a whole level group, `m = 1`
/// for a lone decode row) consume them directly: each output feature is one
/// contiguous weight row, which is what the blocked kernels' 4-wide dot
/// products stream.
#[derive(Debug, Clone, PartialEq)]
pub struct LayerWeights {
    /// Query projection `[d_model, d_model]`.
    pub wq: Tensor,
    /// Key projection `[kv_dim, d_model]`.
    pub wk: Tensor,
    /// Value projection `[kv_dim, d_model]`.
    pub wv: Tensor,
    /// Output projection `[d_model, d_model]`.
    pub wo: Tensor,
    /// Gate projection `[d_ff, d_model]` (SwiGLU models only).
    pub w_gate: Option<Tensor>,
    /// Up projection `[d_ff, d_model]`.
    pub w_up: Tensor,
    /// Down projection `[d_model, d_ff]`.
    pub w_down: Tensor,
    /// RMSNorm weight applied before attention `[d_model]`.
    pub attn_norm: Tensor,
    /// RMSNorm weight applied before the MLP `[d_model]`.
    pub mlp_norm: Tensor,
}

/// Full model weights.
#[derive(Debug, Clone, PartialEq)]
pub struct ModelWeights {
    /// Token embedding table `[vocab, d_model]`.
    pub tok_embed: Tensor,
    /// Final RMSNorm `[d_model]`.
    pub final_norm: Tensor,
    /// Output head `[vocab, d_model]`.
    pub lm_head: Tensor,
    /// Per-layer weights.
    pub layers: Vec<LayerWeights>,
}

impl LayerWeights {
    fn random(cfg: &ModelConfig, rng: &mut StdRng) -> Self {
        let d = cfg.d_model;
        let kv = cfg.kv_dim();
        let ff = cfg.d_ff;
        let scale = 1.0 / (d as f32).sqrt();
        Self {
            wq: Tensor::rand_uniform(rng, &[d, d], scale),
            wk: Tensor::rand_uniform(rng, &[kv, d], scale),
            wv: Tensor::rand_uniform(rng, &[kv, d], scale),
            wo: Tensor::rand_uniform(rng, &[d, d], scale),
            w_gate: match cfg.activation {
                Activation::SwiGlu => Some(Tensor::rand_uniform(rng, &[ff, d], scale)),
                Activation::Gelu => None,
            },
            w_up: Tensor::rand_uniform(rng, &[ff, d], scale),
            w_down: Tensor::rand_uniform(rng, &[d, ff], scale),
            attn_norm: Tensor::full(&[d], 1.0),
            mlp_norm: Tensor::full(&[d], 1.0),
        }
    }

    fn perturb(&self, noise: f32, rng: &mut StdRng) -> Self {
        let jitter = |t: &Tensor, rng: &mut StdRng| {
            let mut out = t.clone();
            for v in out.data_mut() {
                *v += rng.gen_range(-noise..=noise);
            }
            out
        };
        Self {
            wq: jitter(&self.wq, rng),
            wk: jitter(&self.wk, rng),
            wv: jitter(&self.wv, rng),
            wo: jitter(&self.wo, rng),
            w_gate: self.w_gate.as_ref().map(|t| jitter(t, rng)),
            w_up: jitter(&self.w_up, rng),
            w_down: jitter(&self.w_down, rng),
            attn_norm: self.attn_norm.clone(),
            mlp_norm: self.mlp_norm.clone(),
        }
    }

    /// Total number of scalar parameters in this layer.
    pub fn param_count(&self) -> usize {
        self.wq.len()
            + self.wk.len()
            + self.wv.len()
            + self.wo.len()
            + self.w_gate.as_ref().map_or(0, |t| t.len())
            + self.w_up.len()
            + self.w_down.len()
            + self.attn_norm.len()
            + self.mlp_norm.len()
    }
}

impl ModelWeights {
    /// Builds a randomly initialised model for `cfg`, deterministic in
    /// `seed`.
    pub fn random(cfg: &ModelConfig, seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let d = cfg.d_model;
        let v = cfg.vocab_size;
        let scale = 1.0 / (d as f32).sqrt();
        let tok_embed = Tensor::rand_uniform(&mut rng, &[v, d], scale);
        let lm_head = Tensor::rand_uniform(&mut rng, &[v, d], scale);
        let layers = (0..cfg.n_layers)
            .map(|_| LayerWeights::random(cfg, &mut rng))
            .collect();
        Self {
            tok_embed,
            final_norm: Tensor::full(&[d], 1.0),
            lm_head,
            layers,
        }
    }

    /// Derives a draft model with the *same architecture* whose weights are a
    /// noisy copy of this model's.  Small `noise` → high draft/target
    /// agreement; large `noise` → low agreement.  This is the functional
    /// analogue of pairing a well- or poorly-aligned speculative model with a
    /// target (paper Table I).
    pub fn perturbed(&self, noise: f32, seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        Self {
            tok_embed: self.tok_embed.clone(),
            final_norm: self.final_norm.clone(),
            lm_head: self.lm_head.clone(),
            layers: self
                .layers
                .iter()
                .map(|l| l.perturb(noise, &mut rng))
                .collect(),
        }
    }

    /// Derives a structurally smaller draft model by keeping only the first
    /// `n_layers` layers (embedding, head and norms are shared).  Returns the
    /// truncated weights together with the matching config.
    pub fn truncated(&self, cfg: &ModelConfig, n_layers: usize) -> (ModelConfig, Self) {
        let n = n_layers.min(self.layers.len());
        let mut draft_cfg = cfg.clone();
        draft_cfg.n_layers = n;
        draft_cfg.name = format!("{}-draft-{n}l", cfg.name);
        let weights = Self {
            tok_embed: self.tok_embed.clone(),
            final_norm: self.final_norm.clone(),
            lm_head: self.lm_head.clone(),
            layers: self.layers[..n].to_vec(),
        };
        (draft_cfg, weights)
    }

    /// Total number of scalar parameters actually materialised.
    pub fn param_count(&self) -> usize {
        self.tok_embed.len()
            + self.final_norm.len()
            + self.lm_head.len()
            + self.layers.iter().map(|l| l.param_count()).sum::<usize>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn random_is_deterministic_in_seed() {
        let cfg = ModelConfig::tiny_llama(64, 2);
        let a = ModelWeights::random(&cfg, 42);
        let b = ModelWeights::random(&cfg, 42);
        assert_eq!(a, b);
        let c = ModelWeights::random(&cfg, 43);
        assert_ne!(a, c);
    }

    #[test]
    fn param_count_matches_config_estimate() {
        let cfg = ModelConfig::tiny_llama(64, 3);
        let w = ModelWeights::random(&cfg, 1);
        let expected = cfg.total_params() as usize;
        // Config counts final_norm inside io_params; both should agree exactly.
        assert_eq!(w.param_count(), expected);
    }

    #[test]
    fn gelu_models_have_no_gate() {
        let cfg = ModelConfig::tiny_falcon(64, 2);
        let w = ModelWeights::random(&cfg, 1);
        assert!(w.layers.iter().all(|l| l.w_gate.is_none()));
    }

    #[test]
    fn swiglu_models_have_gate() {
        let cfg = ModelConfig::tiny_llama(64, 2);
        let w = ModelWeights::random(&cfg, 1);
        assert!(w.layers.iter().all(|l| l.w_gate.is_some()));
    }

    #[test]
    fn perturbed_with_zero_noise_is_identical() {
        let cfg = ModelConfig::tiny_llama(64, 2);
        let w = ModelWeights::random(&cfg, 7);
        let d = w.perturbed(0.0, 99);
        assert_eq!(w, d);
    }

    #[test]
    fn perturbed_with_noise_differs_but_keeps_shapes() {
        let cfg = ModelConfig::tiny_llama(64, 2);
        let w = ModelWeights::random(&cfg, 7);
        let d = w.perturbed(0.05, 99);
        assert_ne!(w, d);
        assert_eq!(w.param_count(), d.param_count());
        assert_eq!(w.tok_embed, d.tok_embed, "embeddings are shared");
    }

    #[test]
    fn truncated_draft_keeps_prefix_layers() {
        let cfg = ModelConfig::tiny_llama(64, 4);
        let w = ModelWeights::random(&cfg, 3);
        let (dcfg, dw) = w.truncated(&cfg, 2);
        assert_eq!(dcfg.n_layers, 2);
        assert_eq!(dw.layers.len(), 2);
        assert_eq!(dw.layers[0], w.layers[0]);
        assert_eq!(dw.layers[1], w.layers[1]);
    }

    #[test]
    fn truncated_clamps_to_available_layers() {
        let cfg = ModelConfig::tiny_llama(64, 2);
        let w = ModelWeights::random(&cfg, 3);
        let (dcfg, dw) = w.truncated(&cfg, 10);
        assert_eq!(dcfg.n_layers, 2);
        assert_eq!(dw.layers.len(), 2);
    }
}
