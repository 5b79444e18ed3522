//! Decoder-only transformer forward pass with layer-range evaluation.
//!
//! Pipeline parallelism splits the model's decoder layers across stages; each
//! stage calls [`Model::forward_layer_range`] with its assigned global layer
//! range and its own [`KvCache`] covering just those layers.  The first stage
//! additionally embeds the batch tokens ([`Model::embed`]) and the last stage
//! (or the head node, after receiving the final hidden states) applies the
//! output head ([`Model::logits`]).
//!
//! Attention uses the KV-cache cell metadata for masking, so causal masking
//! and speculation-tree masking (mutually exclusive branches) come "for
//! free" from sequence-id bookkeeping — the same design as llama.cpp, which
//! the paper relies on for its KV-cache multibuffering.

use crate::batch::Batch;
use crate::config::{Activation, ModelConfig};
use crate::kv_cache::KvCache;
use crate::weights::ModelWeights;
use pi_tensor::{ops, simd, Tensor};
use std::ops::Range;

/// Errors produced while evaluating a model.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ModelError {
    /// The KV cache ran out of free cells.
    CacheFull,
    /// The hidden-state tensor does not match the batch.
    BadHidden(String),
    /// A layer range outside the model was requested.
    BadLayerRange(String),
}

impl std::fmt::Display for ModelError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ModelError::CacheFull => write!(f, "KV cache is full"),
            ModelError::BadHidden(m) => write!(f, "bad hidden state: {m}"),
            ModelError::BadLayerRange(m) => write!(f, "bad layer range: {m}"),
        }
    }
}

impl std::error::Error for ModelError {}

/// Reusable per-forward scratch buffers.
///
/// One decoder layer needs normed activations, q/k/v projections, attention
/// accumulators, MLP intermediates and an attention-score/visible-cell pair
/// per token.  Allocating those fresh for every token of every layer
/// dominated small-model forward cost; an arena is created once (or held
/// long-term by an engine) and every token of every layer reuses it.
///
/// It also holds what a forward call computes once for all its layers
/// because it depends on the batch row alone: each row's visible-cell set
/// (cell metadata) and its RoPE table row (token position).
///
/// An arena is sized for one model configuration; [`Model::forward_layer_range_with`]
/// checks compatibility and errors rather than silently resizing, so engines
/// cannot accidentally share an arena across differently-shaped models.
#[derive(Debug, Clone)]
pub struct ScratchArena {
    /// `d_model` — normed activations entering attention / MLP.
    h: Vec<f32>,
    /// `d_model` — query projection.
    q: Vec<f32>,
    /// `kv_dim` — key projection.
    k: Vec<f32>,
    /// `kv_dim` — value projection.
    v: Vec<f32>,
    /// `d_model` — per-head attention output accumulator.
    attn: Vec<f32>,
    /// `d_model` — attention output / MLP down projection.
    proj: Vec<f32>,
    /// `d_ff` — gate projection (SwiGLU) .
    gate: Vec<f32>,
    /// `d_ff` — up projection.
    up: Vec<f32>,
    /// One token's attention scores over its visible cells, head-major
    /// (grows to `n_heads` × context length).
    scores: Vec<f32>,
    /// Visible-cell indices of every batch row of the current forward call,
    /// laid end to end (computed once per call, shared by its layers).
    visible: Vec<usize>,
    /// Where each batch row's slice of `visible` ends.
    visible_ends: Vec<usize>,
    /// `[rows, head_dim]` — one `ops::rope_table_row` per batch row of the
    /// current forward call: the rotation depends on the token's position
    /// only, so it is computed once per call and every layer's q and k
    /// rotate from it.
    rope: Vec<f32>,
    /// `[g, d_model]` — normed activations of a whole level group.
    bh: Vec<f32>,
    /// `[g, d_model]` — batched query projections.
    bq: Vec<f32>,
    /// `[g, kv_dim]` — batched key projections.
    bk: Vec<f32>,
    /// `[g, kv_dim]` — batched value projections.
    bv: Vec<f32>,
    /// `[g, d_model]` — per-row attention outputs awaiting the batched
    /// output projection.
    battn: Vec<f32>,
    /// `[g, d_model]` — batched attention-output / MLP down projection.
    bproj: Vec<f32>,
    /// `[g, d_ff]` — batched gate projection (SwiGLU).
    bgate: Vec<f32>,
    /// `[g, d_ff]` — batched up projection.
    bup: Vec<f32>,
}

impl ScratchArena {
    /// Builds an arena sized for `cfg`.
    pub fn for_config(cfg: &ModelConfig) -> Self {
        Self {
            h: vec![0.0; cfg.d_model],
            q: vec![0.0; cfg.d_model],
            k: vec![0.0; cfg.kv_dim()],
            v: vec![0.0; cfg.kv_dim()],
            attn: vec![0.0; cfg.d_model],
            proj: vec![0.0; cfg.d_model],
            gate: vec![0.0; cfg.d_ff],
            up: vec![0.0; cfg.d_ff],
            scores: Vec::new(),
            visible: Vec::new(),
            visible_ends: Vec::new(),
            rope: Vec::new(),
            bh: Vec::new(),
            bq: Vec::new(),
            bk: Vec::new(),
            bv: Vec::new(),
            battn: Vec::new(),
            bproj: Vec::new(),
            bgate: Vec::new(),
            bup: Vec::new(),
        }
    }

    fn fits(&self, cfg: &ModelConfig) -> bool {
        self.h.len() == cfg.d_model && self.k.len() == cfg.kv_dim() && self.gate.len() == cfg.d_ff
    }

    /// Grows the level-group buffers to hold `g` rows (they persist at the
    /// largest size seen, like every other arena slot).
    fn ensure_group(&mut self, g: usize, cfg: &ModelConfig) {
        let (d, kv, ff) = (cfg.d_model, cfg.kv_dim(), cfg.d_ff);
        if self.bh.len() < g * d {
            self.bh.resize(g * d, 0.0);
            self.bq.resize(g * d, 0.0);
            self.battn.resize(g * d, 0.0);
            self.bproj.resize(g * d, 0.0);
        }
        if self.bk.len() < g * kv {
            self.bk.resize(g * kv, 0.0);
            self.bv.resize(g * kv, 0.0);
        }
        if self.bgate.len() < g * ff {
            self.bgate.resize(g * ff, 0.0);
            self.bup.resize(g * ff, 0.0);
        }
    }
}

/// A runnable decoder-only transformer: configuration plus weights.
#[derive(Debug, Clone)]
pub struct Model {
    cfg: ModelConfig,
    weights: ModelWeights,
}

impl Model {
    /// Wraps a config and matching weights into a runnable model.
    pub fn new(cfg: ModelConfig, weights: ModelWeights) -> Self {
        Self { cfg, weights }
    }

    /// Builds a randomly initialised model (deterministic in `seed`).
    pub fn random(cfg: ModelConfig, seed: u64) -> Self {
        let weights = ModelWeights::random(&cfg, seed);
        Self { cfg, weights }
    }

    /// The model configuration.
    pub fn config(&self) -> &ModelConfig {
        &self.cfg
    }

    /// The model weights.
    pub fn weights(&self) -> &ModelWeights {
        &self.weights
    }

    /// Creates a KV cache sized for `capacity` cells covering the layer range
    /// `layers` of this model.
    pub fn new_cache_for_layers(&self, layers: &Range<usize>, capacity: usize) -> KvCache {
        KvCache::new(layers.len(), self.cfg.kv_dim(), capacity)
    }

    /// Paged-backing variant of [`Model::new_cache_for_layers`]: same cell
    /// metadata and numerics, but K/V storage lives in demand-allocated
    /// copy-on-write pages of `tokens_per_page` cells so committed prompt
    /// prefixes can be shared across requests via a
    /// [`crate::kv_pool::KvPagePool`].
    pub fn new_paged_cache_for_layers(
        &self,
        layers: &Range<usize>,
        capacity: usize,
        tokens_per_page: usize,
    ) -> KvCache {
        KvCache::new_paged(layers.len(), self.cfg.kv_dim(), capacity, tokens_per_page)
    }

    /// Allocates one KV-cache cell per batch entry.  Every pipeline stage
    /// performs the same allocations in the same order, so cell indices agree
    /// across stages.
    pub fn alloc_cells(batch: &Batch, cache: &mut KvCache) -> Result<Vec<usize>, ModelError> {
        Self::alloc_cells_multi(batch, &mut [cache])
    }

    /// [`Model::alloc_cells`] for a forest batch: entry `i` allocates its
    /// cell from `caches[entry.lane]`, so each fused request's tokens land
    /// in that request's own cache.  Allocation order is batch order, which
    /// keeps cell indices deterministic per lane.
    pub fn alloc_cells_multi(
        batch: &Batch,
        caches: &mut [&mut KvCache],
    ) -> Result<Vec<usize>, ModelError> {
        if batch.lane_count() > caches.len() {
            return Err(ModelError::BadHidden(format!(
                "batch uses {} lanes but only {} caches were provided",
                batch.lane_count(),
                caches.len()
            )));
        }
        let mut cells = Vec::with_capacity(batch.len());
        for e in batch.iter() {
            let cell = caches[e.lane]
                .alloc(e.pos, &e.seq_ids)
                .ok_or(ModelError::CacheFull)?;
            cells.push(cell);
        }
        Ok(cells)
    }

    /// Embeds the batch tokens into hidden states `[n_tokens, d_model]`.
    pub fn embed(&self, batch: &Batch) -> Tensor {
        let d = self.cfg.d_model;
        let mut out = Tensor::zeros(&[batch.len(), d]);
        for (i, e) in batch.iter().enumerate() {
            let row = self
                .weights
                .tok_embed
                .row(e.token as usize % self.cfg.vocab_size)
                .expect("vocab bounds");
            out.row_mut(i).unwrap().copy_from_slice(row);
        }
        out
    }

    /// Evaluates global decoder layers `layers` over the batch.
    ///
    /// * `hidden` — the activations entering the first layer of the range
    ///   (`[n_tokens, d_model]`), typically the output of the previous stage
    ///   or of [`Model::embed`].
    /// * `cache` — this stage's KV cache; it must cover exactly `layers.len()`
    ///   layers.
    /// * `cells` — the cache cell allocated for each batch entry (from
    ///   [`Model::alloc_cells`]).
    ///
    /// Returns the activations leaving the last layer of the range.
    pub fn forward_layer_range(
        &self,
        batch: &Batch,
        hidden: &Tensor,
        layers: Range<usize>,
        cache: &mut KvCache,
        cells: &[usize],
    ) -> Result<Tensor, ModelError> {
        let mut scratch = ScratchArena::for_config(&self.cfg);
        self.forward_layer_range_with(batch, hidden, layers, cache, cells, &mut scratch)
    }

    /// [`Self::forward_layer_range`] with a caller-held [`ScratchArena`], so
    /// long-lived engines reuse the per-layer temporaries across *calls*
    /// (every decoded token), not just across the tokens of one batch.
    pub fn forward_layer_range_with(
        &self,
        batch: &Batch,
        hidden: &Tensor,
        layers: Range<usize>,
        cache: &mut KvCache,
        cells: &[usize],
        scratch: &mut ScratchArena,
    ) -> Result<Tensor, ModelError> {
        self.forward_layer_range_multi(batch, hidden, layers, &mut [cache], cells, scratch)
    }

    /// [`Self::forward_layer_range_with`] over a *forest* batch: entry `i`
    /// stores into and attends over `caches[entry.lane]`, so a cohort of
    /// fused requests shares every projection/FFN GEMM (`m = Σ cohort
    /// widths`, weights streamed once per step) while attention stays
    /// per-sequence against each request's own — possibly pooled/paged —
    /// cache.  With one cache and a lane-0 batch this is exactly
    /// [`Self::forward_layer_range_with`]; each output row depends only on
    /// its own input row and its own lane's cache, so fused rows are
    /// bitwise identical to solo evaluation.
    pub fn forward_layer_range_multi(
        &self,
        batch: &Batch,
        hidden: &Tensor,
        layers: Range<usize>,
        caches: &mut [&mut KvCache],
        cells: &[usize],
        scratch: &mut ScratchArena,
    ) -> Result<Tensor, ModelError> {
        if batch.lane_count() > caches.len() {
            return Err(ModelError::BadHidden(format!(
                "batch uses {} lanes but only {} caches were provided",
                batch.lane_count(),
                caches.len()
            )));
        }
        if !scratch.fits(&self.cfg) {
            return Err(ModelError::BadHidden(format!(
                "scratch arena sized for another model (d_model {} expected)",
                self.cfg.d_model
            )));
        }
        if layers.end > self.cfg.n_layers {
            return Err(ModelError::BadLayerRange(format!(
                "range {layers:?} exceeds {} layers",
                self.cfg.n_layers
            )));
        }
        if hidden.rows() != batch.len() || hidden.cols() != self.cfg.d_model {
            return Err(ModelError::BadHidden(format!(
                "hidden is [{}, {}], batch has {} tokens, d_model {}",
                hidden.rows(),
                hidden.cols(),
                batch.len(),
                self.cfg.d_model
            )));
        }
        if cells.len() != batch.len() {
            return Err(ModelError::BadHidden(format!(
                "{} cells for {} batch entries",
                cells.len(),
                batch.len()
            )));
        }
        // Level groups are a property of the batch alone, so compute them
        // once and reuse across layers.  Prompts and tree batches collapse
        // into a single group (see [`Batch::level_groups`]), turning every
        // per-layer projection into one m = n_tokens GEMM.
        let groups = batch.level_groups();
        let max_group = groups.iter().map(|g| g.len()).max().unwrap_or(0);
        if max_group > 1 {
            scratch.ensure_group(max_group, &self.cfg);
        }
        // Visibility depends only on the cell metadata `alloc` fixed before
        // this call, not on the layer, so scan the cells once per row.
        scratch.visible.clear();
        scratch.visible_ends.clear();
        for e in batch.iter() {
            caches[e.lane].visible_cells_into(&e.seq_ids, e.pos, &mut scratch.visible);
            scratch.visible_ends.push(scratch.visible.len());
        }
        // Likewise the RoPE angles: a function of each row's position alone.
        let hd = self.cfg.head_dim();
        scratch.rope.resize(batch.len() * hd, 0.0);
        for (e, row) in batch.iter().zip(scratch.rope.chunks_exact_mut(hd)) {
            ops::rope_table_row(row, e.pos as usize, self.cfg.rope_theta);
        }
        let mut x = hidden.clone();
        for (local, global) in layers.clone().enumerate() {
            self.forward_one_layer(
                batch, &groups, &mut x, global, local, caches, cells, scratch,
            );
        }
        Ok(x)
    }

    #[allow(clippy::too_many_arguments)]
    fn forward_one_layer(
        &self,
        batch: &Batch,
        groups: &[Range<usize>],
        x: &mut Tensor,
        global_layer: usize,
        local_layer: usize,
        caches: &mut [&mut KvCache],
        cells: &[usize],
        scratch: &mut ScratchArena,
    ) {
        let cfg = &self.cfg;
        let lw = &self.weights.layers[global_layer];
        let hd = cfg.head_dim();
        let n_heads = cfg.n_heads;
        let n_kv = cfg.n_kv_heads;
        let group_heads = n_heads / n_kv;
        let scale = 1.0 / (hd as f32).sqrt();
        let (d, kvd, ff) = (cfg.d_model, cfg.kv_dim(), cfg.d_ff);
        let ScratchArena {
            h,
            q,
            k,
            v,
            attn,
            proj,
            gate,
            up,
            scores,
            visible,
            visible_ends,
            rope,
            bh,
            bq,
            bk,
            bv,
            battn,
            bproj,
            bgate,
            bup,
        } = scratch;
        let entries = batch.entries();
        // Multi-head attention of batch row `i` (query `q`) over the cells
        // visible to it; shared by the single-token and level-batched paths
        // so both attend identically.
        let attend =
            |cache: &KvCache, i: usize, q: &[f32], scores: &mut Vec<f32>, out: &mut [f32]| {
                let start = if i == 0 { 0 } else { visible_ends[i - 1] };
                let visible = &visible[start..visible_ends[i]];
                simd::attend_token(
                    q,
                    hd,
                    group_heads,
                    scale,
                    visible.len(),
                    |c| cache.key(local_layer, visible[c]),
                    |c| cache.value(local_layer, visible[c]),
                    scores,
                    out,
                );
            };

        // Groups are processed in batch order so that tokens of a later
        // group can attend to the KV entries stored by earlier groups.
        // Within a group, every K/V is stored before any attention runs —
        // safe by the level-group invariant (no member's cell is visible to
        // an earlier member), and it lets each projection walk the weight
        // matrix once for the whole group instead of once per token.
        for group in groups {
            let g = group.len();
            if g == 1 {
                // Single-token group: the GEMV path, no batching overhead.
                let i = group.start;
                let entry = &entries[i];
                let cache = &mut *caches[entry.lane];
                // --- Attention block ---
                ops::rmsnorm_into(x.row(i).unwrap(), lw.attn_norm.data(), cfg.norm_eps, h);
                ops::matvec_t_into(h, &lw.wq, q).unwrap();
                ops::matvec_t_into(h, &lw.wk, k).unwrap();
                ops::matvec_t_into(h, &lw.wv, v).unwrap();
                ops::rope_rotate(q, &rope[i * hd..(i + 1) * hd]);
                ops::rope_rotate(k, &rope[i * hd..(i + 1) * hd]);
                cache.store(local_layer, cells[i], k, v);

                attend(cache, i, q, scores, attn);
                ops::matvec_t_into(attn, &lw.wo, proj).unwrap();
                ops::add_inplace(x.row_mut(i).unwrap(), proj);

                // --- MLP block ---
                ops::rmsnorm_into(x.row(i).unwrap(), lw.mlp_norm.data(), cfg.norm_eps, h);
                match cfg.activation {
                    Activation::SwiGlu => {
                        ops::matvec_t_into(h, lw.w_gate.as_ref().unwrap(), gate).unwrap();
                        ops::matvec_t_into(h, &lw.w_up, up).unwrap();
                        ops::silu_mul_inplace(gate, up);
                        ops::matvec_t_into(gate, &lw.w_down, proj).unwrap();
                    }
                    Activation::Gelu => {
                        ops::matvec_t_into(h, &lw.w_up, up).unwrap();
                        ops::gelu_inplace(up);
                        ops::matvec_t_into(up, &lw.w_down, proj).unwrap();
                    }
                }
                ops::add_inplace(x.row_mut(i).unwrap(), proj);
                continue;
            }

            // Level-batched path: one GEMM per projection for the whole
            // group.  Only attention itself stays per-row, because each row
            // has its own visibility mask.
            let bh = &mut bh[..g * d];
            let bq = &mut bq[..g * d];
            let bk = &mut bk[..g * kvd];
            let bv = &mut bv[..g * kvd];
            let battn = &mut battn[..g * d];
            let bproj = &mut bproj[..g * d];

            // --- Attention block ---
            for (r, i) in group.clone().enumerate() {
                ops::rmsnorm_into(
                    x.row(i).unwrap(),
                    lw.attn_norm.data(),
                    cfg.norm_eps,
                    &mut bh[r * d..(r + 1) * d],
                );
            }
            ops::matmul_t_into(bh, lw.wq.data(), g, d, d, bq);
            ops::matmul_t_into(bh, lw.wk.data(), g, d, kvd, bk);
            ops::matmul_t_into(bh, lw.wv.data(), g, d, kvd, bv);
            for (r, i) in group.clone().enumerate() {
                let angles = &rope[i * hd..(i + 1) * hd];
                ops::rope_rotate(&mut bq[r * d..(r + 1) * d], angles);
                let krow = &mut bk[r * kvd..(r + 1) * kvd];
                ops::rope_rotate(krow, angles);
                caches[entries[i].lane].store(
                    local_layer,
                    cells[i],
                    krow,
                    &bv[r * kvd..(r + 1) * kvd],
                );
            }
            for (r, i) in group.clone().enumerate() {
                let arow = &mut battn[r * d..(r + 1) * d];
                attend(
                    &*caches[entries[i].lane],
                    i,
                    &bq[r * d..(r + 1) * d],
                    scores,
                    arow,
                );
            }
            ops::matmul_t_into(battn, lw.wo.data(), g, d, d, bproj);
            for (r, i) in group.clone().enumerate() {
                ops::add_inplace(x.row_mut(i).unwrap(), &bproj[r * d..(r + 1) * d]);
            }

            // --- MLP block ---
            for (r, i) in group.clone().enumerate() {
                ops::rmsnorm_into(
                    x.row(i).unwrap(),
                    lw.mlp_norm.data(),
                    cfg.norm_eps,
                    &mut bh[r * d..(r + 1) * d],
                );
            }
            match cfg.activation {
                Activation::SwiGlu => {
                    let bgate = &mut bgate[..g * ff];
                    let bup = &mut bup[..g * ff];
                    ops::matmul_t_into(bh, lw.w_gate.as_ref().unwrap().data(), g, d, ff, bgate);
                    ops::matmul_t_into(bh, lw.w_up.data(), g, d, ff, bup);
                    ops::silu_mul_inplace(bgate, bup);
                    ops::matmul_t_into(bgate, lw.w_down.data(), g, ff, d, bproj);
                }
                Activation::Gelu => {
                    let bup = &mut bup[..g * ff];
                    ops::matmul_t_into(bh, lw.w_up.data(), g, d, ff, bup);
                    ops::gelu_inplace(bup);
                    ops::matmul_t_into(bup, lw.w_down.data(), g, ff, d, bproj);
                }
            }
            for (r, i) in group.clone().enumerate() {
                ops::add_inplace(x.row_mut(i).unwrap(), &bproj[r * d..(r + 1) * d]);
            }
        }
    }

    /// Applies the final norm and output head, returning logits
    /// `[n_tokens, vocab]` for every batch entry (callers select the rows
    /// they requested logits for via [`Batch::logit_indices`]).
    pub fn logits(&self, hidden: &Tensor) -> Tensor {
        let d = self.cfg.d_model;
        let n = hidden.rows();
        let mut normed = Tensor::zeros(&[n, d]);
        for i in 0..n {
            ops::rmsnorm_into(
                hidden.row(i).unwrap(),
                self.weights.final_norm.data(),
                self.cfg.norm_eps,
                normed.row_mut(i).unwrap(),
            );
        }
        ops::matmul_t(&normed, &self.weights.lm_head).unwrap()
    }

    /// Convenience single-process forward: embed, run every layer, and return
    /// logits.  Used by the single-node baseline and by tests that compare
    /// distributed execution against local execution.
    pub fn forward_full(&self, batch: &Batch, cache: &mut KvCache) -> Result<Tensor, ModelError> {
        let cells = Self::alloc_cells(batch, cache)?;
        let hidden = self.embed(batch);
        let out = self.forward_layer_range(batch, &hidden, 0..self.cfg.n_layers, cache, &cells)?;
        Ok(self.logits(&out))
    }

    /// Splits `n_layers` decoder layers over `n_stages` pipeline stages as
    /// evenly as possible (earlier stages get the remainder), returning the
    /// global layer range of each stage.  This mirrors llama.cpp's MPI layer
    /// split used by the paper.
    pub fn split_layers(n_layers: usize, n_stages: usize) -> Vec<Range<usize>> {
        assert!(n_stages > 0, "at least one stage required");
        let base = n_layers / n_stages;
        let rem = n_layers % n_stages;
        let mut ranges = Vec::with_capacity(n_stages);
        let mut start = 0;
        for s in 0..n_stages {
            let len = base + usize::from(s < rem);
            ranges.push(start..start + len);
            start += len;
        }
        ranges
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sampler::Sampler;

    fn tiny_model(seed: u64) -> Model {
        Model::random(ModelConfig::tiny_llama(64, 4), seed)
    }

    fn greedy_next(model: &Model, cache: &mut KvCache, batch: &Batch) -> u32 {
        let logits = model.forward_full(batch, cache).unwrap();
        let idx = *batch.logit_indices().last().unwrap();
        Sampler::Greedy.sample(logits.row(idx).unwrap())
    }

    #[test]
    fn forward_full_shapes() {
        let m = tiny_model(1);
        let mut cache = m.new_cache_for_layers(&(0..4), 64);
        let batch = Batch::prompt(&[1, 2, 3], 0, 0);
        let logits = m.forward_full(&batch, &mut cache).unwrap();
        assert_eq!(logits.shape(), &[3, 64]);
        assert_eq!(cache.used(), 3);
    }

    #[test]
    fn layer_range_split_matches_full_forward() {
        let m = tiny_model(2);
        let batch = Batch::prompt(&[5, 9, 13, 2], 0, 0);

        // Full pass.
        let mut full_cache = m.new_cache_for_layers(&(0..4), 64);
        let full_logits = m.forward_full(&batch, &mut full_cache).unwrap();

        // Two-stage pipeline: layers 0..2 and 2..4 with separate caches.
        let ranges = Model::split_layers(4, 2);
        let mut cache0 = m.new_cache_for_layers(&ranges[0], 64);
        let mut cache1 = m.new_cache_for_layers(&ranges[1], 64);
        let cells0 = Model::alloc_cells(&batch, &mut cache0).unwrap();
        let cells1 = Model::alloc_cells(&batch, &mut cache1).unwrap();
        let hidden = m.embed(&batch);
        let mid = m
            .forward_layer_range(&batch, &hidden, ranges[0].clone(), &mut cache0, &cells0)
            .unwrap();
        let out = m
            .forward_layer_range(&batch, &mid, ranges[1].clone(), &mut cache1, &cells1)
            .unwrap();
        let split_logits = m.logits(&out);

        for (a, b) in full_logits.data().iter().zip(split_logits.data().iter()) {
            assert!((a - b).abs() < 1e-4, "{a} vs {b}");
        }
    }

    #[test]
    fn incremental_decode_matches_batched_prompt() {
        // Feeding tokens one at a time (using the KV cache) must produce the
        // same final-token logits as feeding them in a single prompt batch.
        let m = tiny_model(3);
        let tokens = [7u32, 11, 23, 31];

        let mut c1 = m.new_cache_for_layers(&(0..4), 64);
        let batched = m
            .forward_full(&Batch::prompt(&tokens, 0, 0), &mut c1)
            .unwrap();
        let batched_last = batched.row(tokens.len() - 1).unwrap().to_vec();

        let mut c2 = m.new_cache_for_layers(&(0..4), 64);
        let mut last = Vec::new();
        for (i, &t) in tokens.iter().enumerate() {
            let logits = m
                .forward_full(&Batch::single(t, i as i32, 0), &mut c2)
                .unwrap();
            last = logits.row(0).unwrap().to_vec();
        }
        for (a, b) in batched_last.iter().zip(last.iter()) {
            assert!((a - b).abs() < 1e-3, "{a} vs {b}");
        }
    }

    #[test]
    fn sequences_are_isolated() {
        // The same tokens fed in two different sequences must not interfere:
        // generating in seq 1 after polluting seq 2 gives the same result as
        // a fresh cache.
        let m = tiny_model(4);
        let mut clean = m.new_cache_for_layers(&(0..4), 64);
        let expected = greedy_next(&m, &mut clean, &Batch::prompt(&[3, 1, 4], 0, 1));

        let mut shared = m.new_cache_for_layers(&(0..4), 64);
        // Pollute sequence 2 with different content first.
        let _ = m
            .forward_full(&Batch::prompt(&[9, 9, 9, 9, 9], 0, 2), &mut shared)
            .unwrap();
        let got = greedy_next(&m, &mut shared, &Batch::prompt(&[3, 1, 4], 0, 1));
        assert_eq!(expected, got);
    }

    #[test]
    fn cache_full_is_reported() {
        let m = tiny_model(5);
        let mut cache = KvCache::new(4, m.config().kv_dim(), 2);
        let batch = Batch::prompt(&[1, 2, 3], 0, 0);
        assert_eq!(
            m.forward_full(&batch, &mut cache).unwrap_err(),
            ModelError::CacheFull
        );
    }

    #[test]
    fn split_layers_even_and_uneven() {
        assert_eq!(Model::split_layers(8, 4), vec![0..2, 2..4, 4..6, 6..8]);
        let r = Model::split_layers(10, 4);
        assert_eq!(r, vec![0..3, 3..6, 6..8, 8..10]);
        let total: usize = r.iter().map(|x| x.len()).sum();
        assert_eq!(total, 10);
        assert_eq!(Model::split_layers(3, 5).len(), 5);
    }

    #[test]
    fn reused_scratch_arena_is_equivalent_to_fresh() {
        // Decoding with one long-lived arena must produce exactly the same
        // logits as the per-call arena path, token after token.
        let m = tiny_model(11);
        let mut scratch = ScratchArena::for_config(m.config());
        let mut c1 = m.new_cache_for_layers(&(0..4), 64);
        let mut c2 = m.new_cache_for_layers(&(0..4), 64);
        for (pos, tok) in [7u32, 3, 19, 4, 2].into_iter().enumerate() {
            let batch = Batch::single(tok, pos as i32, 0);

            let cells1 = Model::alloc_cells(&batch, &mut c1).unwrap();
            let hidden1 = m.embed(&batch);
            let out1 = m
                .forward_layer_range_with(&batch, &hidden1, 0..4, &mut c1, &cells1, &mut scratch)
                .unwrap();

            let cells2 = Model::alloc_cells(&batch, &mut c2).unwrap();
            let hidden2 = m.embed(&batch);
            let out2 = m
                .forward_layer_range(&batch, &hidden2, 0..4, &mut c2, &cells2)
                .unwrap();

            assert_eq!(out1.data(), out2.data(), "token at pos {pos} diverged");
        }
    }

    #[test]
    fn mismatched_scratch_arena_rejected() {
        let m = tiny_model(12);
        let other = ModelConfig::tiny_llama(64, 4);
        let mut wrong = ScratchArena::for_config(&ModelConfig {
            d_model: other.d_model * 2,
            ..other
        });
        let batch = Batch::single(1, 0, 0);
        let mut cache = m.new_cache_for_layers(&(0..4), 8);
        let cells = Model::alloc_cells(&batch, &mut cache).unwrap();
        let hidden = m.embed(&batch);
        assert!(m
            .forward_layer_range_with(&batch, &hidden, 0..4, &mut cache, &cells, &mut wrong)
            .is_err());
    }

    #[test]
    fn bad_layer_range_rejected() {
        let m = tiny_model(6);
        let batch = Batch::single(1, 0, 0);
        let mut cache = m.new_cache_for_layers(&(0..4), 8);
        let cells = Model::alloc_cells(&batch, &mut cache).unwrap();
        let hidden = m.embed(&batch);
        assert!(m
            .forward_layer_range(&batch, &hidden, 0..9, &mut cache, &cells)
            .is_err());
    }

    #[test]
    fn gelu_model_runs() {
        let m = Model::random(ModelConfig::tiny_falcon(64, 2), 7);
        let mut cache = m.new_cache_for_layers(&(0..2), 16);
        let logits = m
            .forward_full(&Batch::prompt(&[1, 2, 3], 0, 0), &mut cache)
            .unwrap();
        assert_eq!(logits.shape(), &[3, 64]);
        assert!(logits.data().iter().all(|v| v.is_finite()));
    }

    #[test]
    fn tree_batch_matches_per_node_evaluation() {
        // A speculation tree evaluated as one level-batched batch must match
        // evaluating its nodes one at a time — level batching stores a whole
        // group's K/V before attending, and that must not change what any
        // node sees.  The tree: a shared root at pos 3, two mutually
        // exclusive branches at pos 4, two grandchildren at pos 5.
        let m = tiny_model(13);
        let tree_entries: Vec<(u32, i32, Vec<u32>)> = vec![
            (5, 3, vec![1, 2, 3]),
            (6, 4, vec![1]),
            (7, 4, vec![2, 3]),
            (8, 5, vec![2]),
            (9, 5, vec![3]),
        ];
        let prompt = {
            let mut b = Batch::new();
            for (i, &t) in [1u32, 2, 3].iter().enumerate() {
                b.push(t, i as i32, vec![1, 2, 3], false);
            }
            b
        };
        let tree_batch: Batch = {
            let mut b = Batch::new();
            for (t, p, s) in &tree_entries {
                b.push(*t, *p, s.clone(), true);
            }
            b
        };
        assert_eq!(tree_batch.level_groups(), vec![0..5], "tree must batch");

        let mut c1 = m.new_cache_for_layers(&(0..4), 64);
        m.forward_full(&prompt, &mut c1).unwrap();
        let batched = m.forward_full(&tree_batch, &mut c1).unwrap();

        let mut c2 = m.new_cache_for_layers(&(0..4), 64);
        m.forward_full(&prompt, &mut c2).unwrap();
        for (row, (t, p, s)) in tree_entries.iter().enumerate() {
            let mut b = Batch::new();
            b.push(*t, *p, s.clone(), true);
            let one = m.forward_full(&b, &mut c2).unwrap();
            for (a, e) in batched.row(row).unwrap().iter().zip(one.row(0).unwrap()) {
                assert!(
                    (a - e).abs() <= 1e-4 * a.abs().max(1.0),
                    "node {row}: {a} vs {e}"
                );
            }
        }
    }

    #[test]
    fn forest_batch_matches_solo_evaluation() {
        // Two requests fused into one forest batch — each in its own lane
        // with its own cache — must produce the same hidden states and
        // logits as evaluating each request alone: every fused row depends
        // only on its own input row and its own lane's cache.
        let m = tiny_model(14);
        let pa = [1u32, 2, 3];
        let pb = [9u32, 8, 7, 6];

        let solo = |prompt: &[u32]| {
            let mut cache = m.new_cache_for_layers(&(0..4), 64);
            let batch = Batch::prompt(prompt, 0, 0);
            let cells = Model::alloc_cells(&batch, &mut cache).unwrap();
            let hidden = m.embed(&batch);
            let out = m
                .forward_layer_range(&batch, &hidden, 0..4, &mut cache, &cells)
                .unwrap();
            m.logits(&out)
        };
        let la = solo(&pa);
        let lb = solo(&pb);

        let mut fa = m.new_cache_for_layers(&(0..4), 64);
        let mut fb = m.new_cache_for_layers(&(0..4), 64);
        let mut forest = Batch::new();
        forest.append_lane(&Batch::prompt(&pa, 0, 0), 0);
        forest.append_lane(&Batch::prompt(&pb, 0, 0), 1);
        assert_eq!(forest.level_groups(), vec![0..7], "forest must fuse");
        let mut caches: [&mut KvCache; 2] = [&mut fa, &mut fb];
        let cells = Model::alloc_cells_multi(&forest, &mut caches).unwrap();
        let hidden = m.embed(&forest);
        let mut scratch = ScratchArena::for_config(m.config());
        let out = m
            .forward_layer_range_multi(&forest, &hidden, 0..4, &mut caches, &cells, &mut scratch)
            .unwrap();
        let fused = m.logits(&out);

        for (row, expect) in (0..3).map(|r| (r, la.row(r).unwrap())) {
            assert_eq!(fused.row(row).unwrap(), expect, "lane 0 row {row}");
        }
        for (row, expect) in (0..4).map(|r| (3 + r, lb.row(r).unwrap())) {
            assert_eq!(fused.row(row).unwrap(), expect, "lane 1 row {row}");
        }
        // Each lane's cells landed in its own cache only.
        assert_eq!(fa.used(), 3);
        assert_eq!(fb.used(), 4);
    }

    #[test]
    fn forest_batch_with_missing_cache_is_rejected() {
        let m = tiny_model(15);
        let mut forest = Batch::new();
        forest.append_lane(&Batch::single(1, 0, 0), 0);
        forest.append_lane(&Batch::single(2, 0, 0), 1);
        let mut only = m.new_cache_for_layers(&(0..4), 8);
        assert!(Model::alloc_cells_multi(&forest, &mut [&mut only]).is_err());
    }

    #[test]
    fn greedy_generation_is_deterministic() {
        let m = tiny_model(8);
        let gen = |m: &Model| {
            let mut cache = m.new_cache_for_layers(&(0..4), 128);
            let mut out = Vec::new();
            let prompt = [1u32, 2, 3, 4];
            let mut tok = greedy_next(m, &mut cache, &Batch::prompt(&prompt, 0, 0));
            let first_pos = prompt.len() as i32;
            for pos in first_pos..first_pos + 16 {
                out.push(tok);
                tok = greedy_next(m, &mut cache, &Batch::single(tok, pos, 0));
            }
            out
        };
        assert_eq!(gen(&m), gen(&m));
    }
}
