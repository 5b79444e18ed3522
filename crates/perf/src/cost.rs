//! Roofline cost model for transformer inference on a node.
//!
//! The paper's performance story is a bandwidth story: small-batch decoding
//! streams every weight of the assigned layers from memory for each
//! evaluation, so evaluation time is `weight_bytes / memory_bandwidth` until
//! the batch is large enough for FLOPs to dominate.  Speculative batching
//! wins exactly because several tokens share one weight stream; PipeInfer's
//! micro-batches trade a little of that sharing for latency and cancelability
//! (§IV-B1).  The model here is the standard roofline:
//!
//! ```text
//! t_layer(batch) = max( weight_bytes/BW + kv_bytes(context)/BW ,
//!                       batch × flops_per_token / FLOPS )
//! ```
//!
//! summed over the layers assigned to the node, plus an analogous term for
//! the embedding/output head on the head node.

use crate::hardware::NodeSpec;
use pi_model::ModelConfig;
use pi_tensor::QuantKind;

/// Pre-computed per-layer cost figures for a (model, quantization) pair.
#[derive(Debug, Clone, PartialEq)]
pub struct ModelCost {
    /// Model geometry.
    pub cfg: ModelConfig,
    /// Weight quantization format.
    pub quant: QuantKind,
    layer_weight_bytes: u64,
    io_weight_bytes: u64,
    kv_bytes_per_token_per_layer: u64,
}

impl ModelCost {
    /// Builds the cost figures for a model stored in `quant` format.
    pub fn new(cfg: ModelConfig, quant: QuantKind) -> Self {
        let layer_weight_bytes = quant.bytes_for(cfg.layer_params());
        let io_weight_bytes = quant.bytes_for(cfg.io_params());
        // K and V, f16 cache entries (llama.cpp default).
        let kv_bytes_per_token_per_layer = (cfg.kv_dim() * 2 * 2) as u64;
        Self {
            cfg,
            quant,
            layer_weight_bytes,
            io_weight_bytes,
            kv_bytes_per_token_per_layer,
        }
    }

    /// Bytes of weights in one decoder layer.
    pub fn layer_weight_bytes(&self) -> u64 {
        self.layer_weight_bytes
    }

    /// Bytes of the embedding table, output head and final norm.
    pub fn io_weight_bytes(&self) -> u64 {
        self.io_weight_bytes
    }

    /// Total weight bytes of the model.
    pub fn total_weight_bytes(&self) -> u64 {
        self.io_weight_bytes + self.layer_weight_bytes * self.cfg.n_layers as u64
    }

    /// Bytes of KV-cache entries per token per layer.
    pub fn kv_bytes_per_token_per_layer(&self) -> u64 {
        self.kv_bytes_per_token_per_layer
    }

    /// Size in bytes of the activation tensor for `batch_tokens` tokens (the
    /// payload shipped between pipeline stages).
    pub fn activation_bytes(&self, batch_tokens: usize) -> u64 {
        self.cfg.activation_bytes_per_token() * batch_tokens as u64
    }
}

/// Cost model for a specific node.
#[derive(Debug, Clone, PartialEq)]
pub struct CostModel {
    node: NodeSpec,
}

impl CostModel {
    /// Creates a cost model for a node.
    pub fn new(node: NodeSpec) -> Self {
        Self { node }
    }

    /// The node this model describes.
    pub fn node(&self) -> &NodeSpec {
        &self.node
    }

    /// Seconds to evaluate `n_layers` decoder layers of `model` over a batch
    /// of `batch_tokens` tokens with `context_len` tokens already in the KV
    /// cache.
    pub fn layers_time(
        &self,
        model: &ModelCost,
        n_layers: usize,
        batch_tokens: usize,
        context_len: usize,
    ) -> f64 {
        self.layers_time_grouped(model, n_layers, &[(batch_tokens, context_len)])
    }

    /// Seconds to evaluate `n_layers` decoder layers over a *fused cohort*
    /// batch: `groups` holds one `(batch_tokens, context_len)` pair per
    /// fused request.  The weight stream is paid **once** for the whole
    /// cohort — the entire point of iteration-level cross-request batching
    /// on a bandwidth-bound node — while the KV stream and the FLOPs are
    /// the sums of the per-request terms (each request's rows attend only
    /// over that request's own context).  [`CostModel::layers_time`] is the
    /// single-group case.
    pub fn layers_time_grouped(
        &self,
        model: &ModelCost,
        n_layers: usize,
        groups: &[(usize, usize)],
    ) -> f64 {
        let rows: usize = groups.iter().map(|(b, _)| b).sum();
        if n_layers == 0 || rows == 0 {
            return 0.0;
        }
        let bw = self.node.mem_bandwidth_bps;
        let flops = self.node.compute_flops;
        let weight_stream = (n_layers as f64 * model.layer_weight_bytes as f64) / bw;
        let kv_stream: f64 = groups
            .iter()
            .map(|&(batch_tokens, context_len)| {
                (n_layers as f64
                    * batch_tokens as f64
                    * context_len as f64
                    * model.kv_bytes_per_token_per_layer as f64)
                    / bw
            })
            .sum();
        let compute =
            (n_layers as f64 * rows as f64 * model.cfg.layer_flops_per_token() as f64) / flops;
        (weight_stream + kv_stream).max(compute)
    }

    /// Seconds to run the embedding lookup and the output head for
    /// `batch_tokens` tokens (head-node work).
    pub fn io_time(&self, model: &ModelCost, batch_tokens: usize) -> f64 {
        if batch_tokens == 0 {
            return 0.0;
        }
        let bw = self.node.mem_bandwidth_bps;
        let flops = self.node.compute_flops;
        let stream = model.io_weight_bytes as f64 / bw;
        let compute = batch_tokens as f64 * model.cfg.io_flops_per_token() as f64 / flops;
        stream.max(compute)
    }

    /// Seconds to run the *entire* model (all layers plus head) for a batch —
    /// how the dedicated speculative node evaluates its draft model.
    pub fn full_model_time(
        &self,
        model: &ModelCost,
        batch_tokens: usize,
        context_len: usize,
    ) -> f64 {
        self.layers_time(model, model.cfg.n_layers, batch_tokens, context_len)
            + self.io_time(model, batch_tokens)
    }

    /// Seconds of sampling / verification bookkeeping on the head node per
    /// logit row processed.  Small but non-zero; keeps zero-compute callbacks
    /// from collapsing to zero-length events in the simulator.
    pub fn sampling_time(&self, model: &ModelCost, rows: usize) -> f64 {
        // Scanning one vocab-sized f32 logit row from memory.
        let bytes = (model.cfg.vocab_size * 4 * rows) as f64;
        bytes / self.node.mem_bandwidth_bps + 1e-6
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hardware::NodeSpec;

    fn dolphin() -> ModelCost {
        ModelCost::new(ModelConfig::llama2_70b(), QuantKind::Q3K)
    }

    fn xeon_gold() -> CostModel {
        CostModel::new(NodeSpec::xeon_gold_6140_dual())
    }

    #[test]
    fn seventy_b_q3_weight_footprint() {
        let m = dolphin();
        let gb = m.total_weight_bytes() as f64 / 1e9;
        assert!(gb > 25.0 && gb < 35.0, "got {gb} GB");
    }

    #[test]
    fn single_token_layer_time_is_bandwidth_bound() {
        let m = dolphin();
        let c = xeon_gold();
        let t = c.layers_time(&m, 1, 1, 128);
        // One layer ≈ 360 MB at 45 GB/s effective ≈ 8 ms.
        assert!(t > 2e-3 && t < 20e-3, "t = {t}");
        // Bandwidth bound: doubling batch size (1→2) changes time little.
        let t2 = c.layers_time(&m, 1, 2, 128);
        assert!(t2 < 1.7 * t, "t={t} t2={t2}");
    }

    #[test]
    fn large_batches_become_compute_bound() {
        let m = dolphin();
        let c = xeon_gold();
        let t1 = c.layers_time(&m, 1, 1, 128);
        let t64 = c.layers_time(&m, 1, 64, 128);
        // 64 tokens must cost clearly more than 1 token but far less than 64×.
        assert!(t64 > 4.0 * t1);
        assert!(t64 < 40.0 * t1);
    }

    #[test]
    fn time_scales_linearly_with_layer_count() {
        let m = dolphin();
        let c = xeon_gold();
        let t10 = c.layers_time(&m, 10, 1, 0);
        let t20 = c.layers_time(&m, 20, 1, 0);
        assert!((t20 / t10 - 2.0).abs() < 1e-9);
    }

    #[test]
    fn slower_node_takes_longer() {
        let m = dolphin();
        let fast = xeon_gold();
        let slow = CostModel::new(NodeSpec::optiplex_i5_gen2());
        assert!(slow.layers_time(&m, 4, 1, 128) > 3.0 * fast.layers_time(&m, 4, 1, 128));
    }

    #[test]
    fn draft_model_is_much_cheaper_than_target() {
        let target = dolphin();
        let draft = ModelCost::new(ModelConfig::tinyllama_1_1b(), QuantKind::Q4K);
        let c = xeon_gold();
        let t_target = c.layers_time(&target, target.cfg.n_layers, 1, 128);
        let t_draft = c.full_model_time(&draft, 1, 128);
        assert!(
            t_target > 10.0 * t_draft,
            "target {t_target}, draft {t_draft}"
        );
    }

    #[test]
    fn context_length_increases_cost() {
        let m = dolphin();
        let c = xeon_gold();
        assert!(c.layers_time(&m, 80, 1, 4096) > c.layers_time(&m, 80, 1, 0));
    }

    #[test]
    fn gpu_is_faster_than_cpu() {
        let m = dolphin();
        let cpu = xeon_gold();
        let gpu = CostModel::new(NodeSpec::gpu_rtx_3090());
        assert!(cpu.layers_time(&m, 20, 1, 128) > 3.0 * gpu.layers_time(&m, 20, 1, 128));
    }

    #[test]
    fn zero_work_costs_nothing() {
        let m = dolphin();
        let c = xeon_gold();
        assert_eq!(c.layers_time(&m, 0, 1, 128), 0.0);
        assert_eq!(c.layers_time(&m, 5, 0, 128), 0.0);
        assert_eq!(c.io_time(&m, 0), 0.0);
    }

    #[test]
    fn grouped_time_amortizes_the_weight_stream() {
        let m = dolphin();
        let c = xeon_gold();
        // One group degenerates to the plain per-request roofline.
        assert_eq!(
            c.layers_time_grouped(&m, 8, &[(2, 128)]),
            c.layers_time(&m, 8, 2, 128)
        );
        assert_eq!(c.layers_time_grouped(&m, 8, &[]), 0.0);
        assert_eq!(c.layers_time_grouped(&m, 0, &[(1, 0)]), 0.0);
        // A fused cohort of 8 single-token requests streams the weights
        // once; 8 solo evaluations stream them 8 times.  In the
        // bandwidth-bound regime the fused step must cost far less than
        // the sum of the solo steps, and no less than one of them.
        let groups: Vec<(usize, usize)> = (0..8).map(|i| (1usize, 100 + i)).collect();
        let fused = c.layers_time_grouped(&m, 8, &groups);
        let solo_sum: f64 = groups
            .iter()
            .map(|&(b, ctx)| c.layers_time(&m, 8, b, ctx))
            .sum();
        let solo_max = groups
            .iter()
            .map(|&(b, ctx)| c.layers_time(&m, 8, b, ctx))
            .fold(0.0, f64::max);
        assert!(fused < 0.5 * solo_sum, "fused {fused} vs sum {solo_sum}");
        assert!(fused >= solo_max, "fused {fused} vs max {solo_max}");
    }

    #[test]
    fn sampling_time_is_small_but_positive() {
        let m = dolphin();
        let c = xeon_gold();
        let t = c.sampling_time(&m, 4);
        assert!(t > 0.0 && t < 1e-3);
    }

    #[test]
    fn activation_bytes_scale_with_batch() {
        let m = dolphin();
        assert_eq!(m.activation_bytes(4), 4 * 8192 * 4);
    }
}
