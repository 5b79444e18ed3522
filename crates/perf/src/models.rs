//! Model-pair presets matching the paper's Tables I and III.
//!
//! Each [`ModelPair`] bundles a target-model preset, a draft-model preset and
//! the draft/target *acceptance rate* the paper measured for that pairing.
//! The acceptance rate drives the synthetic alignment oracle when
//! reproducing the figures; the quantization formats drive the memory and
//! bandwidth model.
//!
//! GPU-experiment pairs (Table III) do not come with published acceptance
//! rates; plausible values are chosen to reproduce the qualitative ranking of
//! Fig. 9 (including the Dolphin 2.9 Llama-3 outlier where speculative
//! inference beat PipeInfer); they are estimates, not measurements.

use pi_model::ModelConfig;
use pi_tensor::QuantKind;

/// A concrete checkpoint: geometry plus quantization, plus a multiplier for
/// models whose resident weights exceed their active weights (MoE).
#[derive(Debug, Clone, PartialEq)]
pub struct ModelPreset {
    /// Model geometry (active parameters for MoE models).
    pub cfg: ModelConfig,
    /// Stored quantization format.
    pub quant: QuantKind,
    /// Resident-weight multiplier (1.0 for dense models; 8/2 = 4.0 for
    /// Mixtral-8x22B where 2 of 8 experts are active per token).
    pub resident_multiplier: f64,
}

impl ModelPreset {
    /// Dense model preset.
    pub fn dense(cfg: ModelConfig, quant: QuantKind) -> Self {
        Self {
            cfg,
            quant,
            resident_multiplier: 1.0,
        }
    }

    /// Mixture-of-experts preset with the given resident multiplier.
    pub fn moe(cfg: ModelConfig, quant: QuantKind, resident_multiplier: f64) -> Self {
        Self {
            cfg,
            quant,
            resident_multiplier,
        }
    }

    /// Bytes of weights that must be resident in memory.
    pub fn resident_bytes(&self) -> u64 {
        let active = self.quant.bytes_for(self.cfg.total_params());
        (active as f64 * self.resident_multiplier) as u64
    }

    /// Human-readable description, e.g. `"Dolphin 2.1 70B (Q3_K_M)"`.
    pub fn describe(&self) -> String {
        format!("{} ({})", self.cfg.name, self.quant.name())
    }
}

/// A target/draft pairing with its measured (or estimated) acceptance rate.
#[derive(Debug, Clone, PartialEq)]
pub struct ModelPair {
    /// Short name used in figures, e.g. `"Dolphin-70B + TinyLlama"`.
    pub name: String,
    /// Target model.
    pub target: ModelPreset,
    /// Speculative (draft) model.
    pub draft: ModelPreset,
    /// Per-token probability that a drafted token is accepted by the target.
    pub acceptance_rate: f64,
    /// Whether the acceptance rate is taken from the paper (`true`) or is an
    /// estimate chosen for the GPU experiments (`false`).
    pub acceptance_from_paper: bool,
}

impl ModelPair {
    fn new(
        name: &str,
        target: ModelPreset,
        draft: ModelPreset,
        acceptance_rate: f64,
        acceptance_from_paper: bool,
    ) -> Self {
        Self {
            name: name.to_string(),
            target,
            draft,
            acceptance_rate,
            acceptance_from_paper,
        }
    }

    // ----- Table I (CPU experiments) -----

    /// Dolphin 2.1 70B (Q3_K_M) + TinyLlama-1.1B OpenOrca (Q4_K_M), 79 %.
    pub fn dolphin_tinyllama() -> Self {
        Self::new(
            "Dolphin-70B + TinyLlama-1.1B",
            ModelPreset::dense(
                named(ModelConfig::llama2_70b(), "Dolphin 2.1 70B"),
                QuantKind::Q3K,
            ),
            ModelPreset::dense(ModelConfig::tinyllama_1_1b(), QuantKind::Q4K),
            0.79,
            true,
        )
    }

    /// Dolphin 2.1 70B (Q3_K_M) + Orca-2 7B (Q4_K_M), 66 %.
    pub fn dolphin_orca2() -> Self {
        Self::new(
            "Dolphin-70B + Orca2-7B",
            ModelPreset::dense(
                named(ModelConfig::llama2_70b(), "Dolphin 2.1 70B"),
                QuantKind::Q3K,
            ),
            ModelPreset::dense(named(ModelConfig::llama2_7b(), "Orca 2 7B"), QuantKind::Q4K),
            0.66,
            true,
        )
    }

    /// Goliath 120B (Q2_K) + XWinLM 0.2 7B (Q4_K_M), 52 %.
    pub fn goliath_xwin7b() -> Self {
        Self::new(
            "Goliath-120B + XWin-7B",
            ModelPreset::dense(ModelConfig::goliath_120b(), QuantKind::Q2K),
            ModelPreset::dense(
                named(ModelConfig::llama2_7b(), "XWinLM 0.2 7B"),
                QuantKind::Q4K,
            ),
            0.52,
            true,
        )
    }

    /// Goliath 120B (Q2_K) + XWinLM 0.1 13B (Q4_K_M), 61 %.
    pub fn goliath_xwin13b() -> Self {
        Self::new(
            "Goliath-120B + XWin-13B",
            ModelPreset::dense(ModelConfig::goliath_120b(), QuantKind::Q2K),
            ModelPreset::dense(
                named(ModelConfig::llama2_13b(), "XWinLM 0.1 13B"),
                QuantKind::Q4K,
            ),
            0.61,
            true,
        )
    }

    /// Falcon 180B (Q3_K_M) + Falcon 7B (Q3_K_M), 68.675 %.
    pub fn falcon_7b() -> Self {
        Self::new(
            "Falcon-180B + Falcon-7B",
            ModelPreset::dense(ModelConfig::falcon_180b(), QuantKind::Q3K),
            ModelPreset::dense(ModelConfig::falcon_7b(), QuantKind::Q3K),
            0.68675,
            true,
        )
    }

    /// Falcon 180B (Q3_K_M) + Falcon 40B (Q3_K_M), 69.47 %.
    pub fn falcon_40b() -> Self {
        Self::new(
            "Falcon-180B + Falcon-40B",
            ModelPreset::dense(ModelConfig::falcon_180b(), QuantKind::Q3K),
            ModelPreset::dense(ModelConfig::falcon_40b(), QuantKind::Q3K),
            0.6947,
            true,
        )
    }

    /// All six CPU pairs of Table I, in table order.
    pub fn table1() -> Vec<Self> {
        vec![
            Self::dolphin_tinyllama(),
            Self::dolphin_orca2(),
            Self::goliath_xwin7b(),
            Self::goliath_xwin13b(),
            Self::falcon_7b(),
            Self::falcon_40b(),
        ]
    }

    // ----- Table III (GPU experiments) -----

    /// Senku 70B + TinyLlama-1.1B (estimated 76 % acceptance).
    pub fn senku_tinyllama() -> Self {
        Self::new(
            "Senku-70B + TinyLlama-1.1B",
            ModelPreset::dense(
                named(ModelConfig::llama2_70b(), "Senku 70B"),
                QuantKind::Q3K,
            ),
            ModelPreset::dense(ModelConfig::tinyllama_1_1b(), QuantKind::Q4K),
            0.76,
            false,
        )
    }

    /// Senku 70B + LlongOrca 7B (estimated 70 %).
    pub fn senku_llongorca() -> Self {
        Self::new(
            "Senku-70B + LlongOrca-7B",
            ModelPreset::dense(
                named(ModelConfig::llama2_70b(), "Senku 70B"),
                QuantKind::Q3K,
            ),
            ModelPreset::dense(
                named(ModelConfig::llama2_7b(), "LlongOrca 7B"),
                QuantKind::Q4K,
            ),
            0.70,
            false,
        )
    }

    /// Dolphin 2.9 70B + Dolphin 2.9 8B (Llama-3 pair; estimated 40 % — the
    /// paper observed this pair as the outlier where speculative inference
    /// won).
    pub fn dolphin29_llama3() -> Self {
        Self::new(
            "Dolphin2.9-70B + Dolphin2.9-8B",
            ModelPreset::dense(
                named(ModelConfig::llama3_70b(), "Dolphin 2.9 70B"),
                QuantKind::Q3K,
            ),
            ModelPreset::dense(
                named(ModelConfig::llama3_8b(), "Dolphin 2.9 8B"),
                QuantKind::Q4K,
            ),
            0.40,
            false,
        )
    }

    /// Qwen 33B + Qwen 7B at Q5_K (estimated 72 %).
    pub fn qwen() -> Self {
        Self::new(
            "Qwen-33B + Qwen-7B",
            ModelPreset::dense(ModelConfig::qwen_33b(), QuantKind::Q5K),
            ModelPreset::dense(ModelConfig::qwen_7b(), QuantKind::Q5K),
            0.72,
            false,
        )
    }

    /// Mixtral 8x22B + Mistral 7B (estimated 62 %).
    pub fn mixtral_mistral() -> Self {
        Self::new(
            "Mixtral-8x22B + Mistral-7B",
            ModelPreset::moe(ModelConfig::mixtral_8x22b_active(), QuantKind::Q3K, 4.0),
            ModelPreset::dense(ModelConfig::mistral_7b(), QuantKind::Q4K),
            0.62,
            false,
        )
    }

    /// Yi 34B + Yi 9B (estimated 71 %).
    pub fn yi() -> Self {
        Self::new(
            "Yi-34B + Yi-9B",
            ModelPreset::dense(ModelConfig::yi_34b(), QuantKind::Q3K),
            ModelPreset::dense(ModelConfig::yi_9b(), QuantKind::Q4K),
            0.71,
            false,
        )
    }

    /// The seven GPU pairs of Table III / Fig. 9, in figure order.
    pub fn table3() -> Vec<Self> {
        vec![
            Self::senku_tinyllama(),
            Self::senku_llongorca(),
            Self::dolphin_tinyllama(),
            Self::dolphin29_llama3(),
            Self::qwen(),
            Self::mixtral_mistral(),
            Self::yi(),
        ]
    }
}

fn named(mut cfg: ModelConfig, name: &str) -> ModelConfig {
    cfg.name = name.to_string();
    cfg
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_has_six_pairs_with_paper_acceptance_rates() {
        let pairs = ModelPair::table1();
        assert_eq!(pairs.len(), 6);
        assert!(pairs.iter().all(|p| p.acceptance_from_paper));
        let rates: Vec<f64> = pairs.iter().map(|p| p.acceptance_rate).collect();
        assert_eq!(rates, vec![0.79, 0.66, 0.52, 0.61, 0.68675, 0.6947]);
    }

    #[test]
    fn table3_has_seven_pairs() {
        assert_eq!(ModelPair::table3().len(), 7);
    }

    #[test]
    fn drafts_are_smaller_than_targets() {
        for p in ModelPair::table1().into_iter().chain(ModelPair::table3()) {
            assert!(
                p.draft.resident_bytes() < p.target.resident_bytes(),
                "{}: draft not smaller",
                p.name
            );
        }
    }

    #[test]
    fn target_footprints_are_in_expected_size_classes() {
        let dolphin = ModelPair::dolphin_tinyllama().target.resident_bytes() as f64 / 1e9;
        assert!(dolphin > 25.0 && dolphin < 35.0, "dolphin {dolphin} GB");
        let goliath = ModelPair::goliath_xwin7b().target.resident_bytes() as f64 / 1e9;
        assert!(goliath > 33.0 && goliath < 45.0, "goliath {goliath} GB");
        let falcon = ModelPair::falcon_7b().target.resident_bytes() as f64 / 1e9;
        assert!(falcon > 65.0 && falcon < 90.0, "falcon {falcon} GB");
    }

    #[test]
    fn mixtral_resident_exceeds_active() {
        let m = ModelPair::mixtral_mistral().target;
        let active = m.quant.bytes_for(m.cfg.total_params());
        assert!(m.resident_bytes() > 2 * active);
    }

    #[test]
    fn acceptance_rates_are_probabilities() {
        for p in ModelPair::table1().into_iter().chain(ModelPair::table3()) {
            assert!(p.acceptance_rate > 0.0 && p.acceptance_rate < 1.0);
        }
    }

    #[test]
    fn describe_mentions_quant_format() {
        let d = ModelPair::dolphin_tinyllama().target.describe();
        assert!(d.contains("Q3_K_M"), "{d}");
        assert!(d.contains("Dolphin"), "{d}");
    }

    #[test]
    fn goliath_uses_q2_and_falcon_pairs_share_architecture() {
        assert_eq!(ModelPair::goliath_xwin7b().target.quant, QuantKind::Q2K);
        let f = ModelPair::falcon_7b();
        assert_eq!(f.target.cfg.activation, f.draft.cfg.activation);
    }
}
