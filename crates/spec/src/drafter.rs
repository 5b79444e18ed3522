//! Draft-model front-ends.
//!
//! A [`Drafter`] has one drafting routine, [`Drafter::draft_tree`]: a
//! [`TokenTree`] continuing a given context whose primary branch is the
//! greedy chain, stopping when the draft model's confidence falls below the
//! speculation cutoff (paper §II-A1) or at the requested depth, and whose
//! extra root-level branches are the draft model's top-k runner-up
//! candidates — the hedge tree speculation verifies in one batched pass.
//! Width 1 is the chain: [`Drafter::draft`] is only its `(token,
//! confidence)` view.  Two implementations:
//!
//! * [`RealDrafter`] — runs a real tiny `pi-model` transformer greedily,
//!   keeping its KV cache across calls so each call pays for the tokens the
//!   previous one has not seen.
//! * [`OracleDrafter`] — uses the alignment oracle (configurable agreement
//!   with the target) and charges the roofline cost of running the paper's
//!   actual draft model (TinyLlama, Orca-2, XWin, Falcon-7B/40B, …).

use pi_model::{
    Batch, KvCache, Model, OracleDraft, OracleTarget, Pos, Sampler, ScratchArena, Token, TokenTree,
};
use pi_perf::{CostModel, ModelCost};
use pi_tensor::{ops, Tensor};
use std::sync::Arc;
use std::time::Instant;

/// A speculative (draft) model front-end.
///
/// A drafter may keep state between calls, keyed on the tokens it was last
/// given: successive calls on one drafter normally continue one hypothesis
/// that grows at its end or is cut back at one point and diverges, and an
/// implementation may reuse whatever work the longest common prefix with the
/// previous call already paid for.  That reuse is never observable — every
/// call must return what a fresh drafter would return for the same
/// arguments, whatever was asked before.
pub trait Drafter: Send {
    /// Tells the drafter that upcoming calls will continue `context`, so it
    /// can do the context's share of the work now — the cluster heads call
    /// this right after dispatching the prompt, which overlaps the draft
    /// model's prompt evaluation with the target pipeline's.  Returns the
    /// cost in seconds.  Purely an optimisation: `prime` followed by a draft
    /// returns what the draft alone returns.  The default does nothing and
    /// costs nothing.
    fn prime(&mut self, _context: &[Token]) -> f64 {
        0.0
    }

    /// Proposes a speculation tree continuing `context ++ extra`, where
    /// `context` is the accepted sequence and `extra` holds the pending token
    /// plus any tokens speculated earlier in the same burst.  Returns the
    /// tree and the drafting cost in seconds.
    ///
    /// The primary branch is the greedy chain, up to `depth` deep: it stops
    /// as soon as the draft model's confidence drops below `cutoff`, so with
    /// `width == 1` the tree is a chain that may be shorter than `depth` or
    /// even empty.  The other `width - 1` root-level branches are the draft
    /// model's runner-up candidates for the first position, speculated as
    /// single-node leaves, so the tree has at most `depth + width - 1` nodes
    /// — the verify-batch budget the strategy trades between width and
    /// depth.  With runner-ups beside it, the cutoff gates only the
    /// primary's extension: its root rides along ungated, like the
    /// runner-ups, because the strategy already chose to spend `width - 1`
    /// budget on hedging the first position.
    fn draft_tree(
        &mut self,
        context: &[Token],
        extra: &[Token],
        width: usize,
        depth: usize,
        cutoff: f32,
    ) -> (TokenTree, f64);

    /// The chain view of [`Drafter::draft_tree`]: the `(token, confidence)`
    /// pairs of the width-1 tree up to `max_tokens` deep, and its cost.
    fn draft(
        &mut self,
        context: &[Token],
        extra: &[Token],
        max_tokens: usize,
        cutoff: f32,
    ) -> (Vec<(Token, f32)>, f64) {
        let (chain, cost) = self.draft_tree(context, extra, 1, max_tokens, cutoff);
        (
            chain.nodes().iter().map(|n| (n.token, n.prob)).collect(),
            cost,
        )
    }
}

/// Indices and probabilities of the `k` largest entries of `probs`,
/// descending; ties resolve to the lowest token id, matching
/// [`Sampler::Greedy`]'s argmax rule so the top-1 candidate is exactly the
/// greedy draft token.
///
/// One pass over the vocabulary keeping the `k` best seen so far: a later
/// entry displaces an earlier one only when strictly larger, which is the
/// lowest-id tie rule.
fn top_k(probs: &[f32], k: usize) -> Vec<(Token, f32)> {
    let mut best: Vec<(Token, f32)> = Vec::with_capacity(k + 1);
    for (i, &p) in probs.iter().enumerate() {
        let at = best.partition_point(|&(_, q)| q >= p);
        if at < k {
            best.insert(at, (i as Token, p));
            best.truncate(k);
        }
    }
    best
}

/// Drafter running a real tiny model with greedy sampling.
///
/// The drafter keeps its draft-model KV cache, and the tokens that cache
/// holds, across calls.  Each call takes the longest common prefix of
/// `context ++ extra` with the cached tokens, removes the cached entries past
/// it (the rollback after an invalidated hypothesis is exactly this cut) and
/// evaluates only the missing suffix, so a hypothesis that grows by a few
/// tokens between calls costs a few single-token passes instead of a prefill
/// of the whole context.  Rollback always removes a suffix and the cache
/// allocates first-fit, so cells stay in position order and every proposal is
/// bit-identical to one drafted from an empty cache.
///
/// The cache and the forward pass's scratch arena are allocated on first use:
/// a drafter held in reserve (the dedicated-rank layout's local fallback)
/// costs nothing until promoted.
pub struct RealDrafter {
    model: Arc<Model>,
    kv_capacity: usize,
    cache: Option<KvCache>,
    /// Per-layer temporaries, reused by every fed batch.
    scratch: Option<ScratchArena>,
    /// Tokens whose K/V entries `cache` holds: token `i` at position `i` of
    /// sequence 0.
    cached: Vec<Token>,
}

impl RealDrafter {
    /// Creates a drafter around a draft model whose KV cache holds up to
    /// `kv_capacity` tokens.
    pub fn new(model: impl Into<Arc<Model>>, kv_capacity: usize) -> Self {
        Self {
            model: model.into(),
            kv_capacity,
            cache: None,
            scratch: None,
            cached: Vec::new(),
        }
    }

    /// Appends `tokens` to the cached sequence and returns the logits after
    /// the last of them.  On a model error (the cache is full) the cached
    /// state is reset and `None` returned.
    fn feed(&mut self, tokens: &[Token]) -> Option<Vec<f32>> {
        let model = &*self.model;
        let cfg = model.config();
        let cache = self
            .cache
            .get_or_insert_with(|| KvCache::new(cfg.n_layers, cfg.kv_dim(), self.kv_capacity));
        let scratch = self
            .scratch
            .get_or_insert_with(|| ScratchArena::for_config(cfg));
        let batch = Batch::prompt(tokens, self.cached.len() as Pos, 0);
        let hidden = Model::alloc_cells(&batch, cache).and_then(|cells| {
            let embedded = model.embed(&batch);
            model.forward_layer_range_with(
                &batch,
                &embedded,
                0..cfg.n_layers,
                cache,
                &cells,
                scratch,
            )
        });
        let Ok(hidden) = hidden else {
            cache.clear();
            self.cached.clear();
            return None;
        };
        self.cached.extend_from_slice(tokens);
        let last = hidden.row(tokens.len() - 1).expect("one row per token");
        let last = Tensor::from_vec(last.to_vec(), &[1, cfg.d_model]).expect("one hidden row");
        Some(model.logits(&last).into_vec())
    }

    /// Brings the cache to hold exactly `context ++ extra` (an empty context
    /// stands for the single token 0) and returns the logits after its last
    /// token, evaluating only what the cached tokens do not already cover.
    fn ingest(&mut self, context: &[Token], extra: &[Token]) -> Option<Vec<f32>> {
        let mut full: Vec<Token> = context.iter().chain(extra).copied().collect();
        if full.is_empty() {
            full.push(0);
        }
        // The last token is always evaluated: its logits row is what the
        // caller drafts from.
        let keep = self
            .cached
            .iter()
            .zip(&full)
            .take_while(|(a, b)| a == b)
            .count()
            .min(full.len() - 1);
        if keep < self.cached.len() {
            let cache = self.cache.as_mut().expect("cached tokens imply a cache");
            cache.seq_rm(0, keep as Pos, Pos::MAX);
            self.cached.truncate(keep);
        }
        self.feed(&full[keep..])
    }
}

impl Drafter for RealDrafter {
    fn prime(&mut self, context: &[Token]) -> f64 {
        let start = Instant::now();
        self.ingest(context, &[]);
        start.elapsed().as_secs_f64()
    }

    fn draft_tree(
        &mut self,
        context: &[Token],
        extra: &[Token],
        width: usize,
        depth: usize,
        cutoff: f32,
    ) -> (TokenTree, f64) {
        let start = Instant::now();
        let mut tree = TokenTree::new();
        let mut row = if depth == 0 {
            None
        } else {
            self.ingest(context, extra)
        };
        let runners_up = match &row {
            Some(first) if width > 1 => top_k(&ops::softmax(first), width),
            _ => Vec::new(),
        };
        // Primary branch: the greedy chain.  A root with runner-up siblings
        // rides along whatever its confidence, because a tree verifies its
        // whole root level in one batched pass anyway (this is where trees
        // beat chains in low-confidence regions, where a chain gives up).
        let mut parent = None;
        while let Some(last_row) = row {
            let conf = Sampler::confidence(&last_row);
            let gated = parent.is_some() || width <= 1;
            if gated && conf < cutoff {
                break;
            }
            let token = Sampler::Greedy.sample(&last_row);
            parent = Some(tree.add(parent, token, conf));
            if tree.len() == depth || conf < cutoff {
                break;
            }
            row = self.feed(&[token]);
        }
        // Runner-up branches: the best other candidates for the first
        // position.
        let primary = tree.nodes().first().map(|n| n.token);
        let others = runners_up.into_iter().filter(|&(t, _)| Some(t) != primary);
        for (tok, prob) in others.take(width.saturating_sub(1)) {
            tree.add(None, tok, prob);
        }
        (tree, start.elapsed().as_secs_f64())
    }
}

/// Drafter backed by the alignment oracle plus a roofline cost model for the
/// draft model it stands in for.
pub struct OracleDrafter {
    target: OracleTarget,
    draft: OracleDraft,
    cost_model: CostModel,
    draft_cost: ModelCost,
}

impl OracleDrafter {
    /// Creates an oracle drafter.
    ///
    /// * `target` — ground-truth oracle shared with the head's verification.
    /// * `draft` — alignment oracle configured with the pair's acceptance
    ///   rate.
    /// * `cost_model` — the node hosting the draft model.
    /// * `draft_cost` — the draft model's geometry and quantization.
    pub fn new(
        target: OracleTarget,
        draft: OracleDraft,
        cost_model: CostModel,
        draft_cost: ModelCost,
    ) -> Self {
        Self {
            target,
            draft,
            cost_model,
            draft_cost,
        }
    }
}

impl Drafter for OracleDrafter {
    fn draft_tree(
        &mut self,
        context: &[Token],
        extra: &[Token],
        width: usize,
        depth: usize,
        cutoff: f32,
    ) -> (TokenTree, f64) {
        let full: Vec<Token> = context.iter().chain(extra.iter()).copied().collect();
        let mut tree = TokenTree::new();
        if depth == 0 {
            return (tree, 0.0);
        }
        let truth0 = self.target.next_token(&full);
        let topk = self.draft.draft_topk(&full, truth0, width.max(1));
        // Primary branch: the greedy chain (candidate 0 is the chain's first
        // token).  The cutoff gates a lone root like every later token; as
        // one root among several the primary always rides along in the
        // batched verification — which is where trees keep speculating in
        // low-confidence regions where a chain gives up entirely.
        let (primary, p_conf) = topk[0];
        if p_conf >= cutoff || width > 1 {
            let mut parent = tree.add(None, primary, p_conf);
            if p_conf >= cutoff {
                let mut ctx = full.clone();
                ctx.push(primary);
                for (tok, conf) in self.draft.draft_chain(&self.target, &ctx, depth - 1) {
                    if conf < cutoff {
                        break;
                    }
                    parent = tree.add(Some(parent), tok, conf);
                }
            }
        }
        // Runner-up branches come from the same first-position distribution.
        for &(tok, conf) in &topk[1..] {
            tree.add(None, tok, conf);
        }
        // Width is nearly free at draft time (one distribution yields every
        // root candidate); depth costs one draft-model pass per token, and
        // the first distribution is paid even when nothing is drafted.
        let per_token = self
            .cost_model
            .full_model_time(&self.draft_cost, 1, full.len());
        let cost = per_token * tree.spine().len().max(1) as f64;
        (tree, cost)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pi_model::ModelConfig;
    use pi_perf::NodeSpec;
    use pi_tensor::QuantKind;
    use proptest::prelude::*;

    #[test]
    fn real_drafter_is_deterministic_and_respects_max() {
        let model = Model::random(ModelConfig::tiny_llama(64, 2), 5);
        let mut d = RealDrafter::new(model, 256);
        let (a, _) = d.draft(&[1, 2, 3], &[4], 4, 0.0);
        let (b, _) = d.draft(&[1, 2, 3], &[4], 4, 0.0);
        assert_eq!(a, b);
        assert!(!a.is_empty() && a.len() <= 4, "cutoff 0 must always draft");
    }

    #[test]
    fn real_drafter_matches_greedy_continuation_of_itself() {
        // With cutoff 0 and the same model as "target", the draft chain is
        // the model's own greedy continuation.
        let model = Model::random(ModelConfig::tiny_llama(64, 2), 9);
        let mut cache = model.new_cache_for_layers(&(0..2), 256);
        let prompt = [3u32, 1, 4, 1, 5];
        let logits = model
            .forward_full(&Batch::prompt(&prompt, 0, 0), &mut cache)
            .unwrap();
        let first = Sampler::Greedy.sample(logits.row(prompt.len() - 1).unwrap());

        let mut d = RealDrafter::new(model.clone(), 256);
        let (chain, _) = d.draft(&prompt[..4], &[prompt[4]], 3, 0.0);
        assert_eq!(chain[0].0, first);
    }

    #[test]
    fn real_drafter_zero_max_tokens() {
        let model = Model::random(ModelConfig::tiny_llama(64, 2), 5);
        let mut d = RealDrafter::new(model, 128);
        let (out, _) = d.draft(&[1], &[], 0, 0.5);
        assert!(out.is_empty());
    }

    /// The from-scratch drafter `RealDrafter` replaced, kept as the oracle
    /// its incremental cache is checked against: a fresh KV cache and a full
    /// prefill of `context ++ extra` on every call, a sort of the whole
    /// vocabulary to pick the tree's roots, and a chain routine of its own
    /// that the width-1 tree must reproduce.
    struct ColdDrafter {
        model: Model,
        kv_capacity: usize,
    }

    impl ColdDrafter {
        /// Prefills `context ++ extra` into a fresh cache; returns the cache,
        /// the logits after the last token and the next position.
        fn prefill(&self, context: &[Token], extra: &[Token]) -> (KvCache, Vec<f32>, Pos) {
            let cfg = self.model.config();
            let mut cache = KvCache::new(cfg.n_layers, cfg.kv_dim(), self.kv_capacity);
            let mut full: Vec<Token> = context.iter().chain(extra).copied().collect();
            if full.is_empty() {
                full.push(0);
            }
            let logits = self
                .model
                .forward_full(&Batch::prompt(&full, 0, 0), &mut cache)
                .expect("reference prefill");
            let last = logits.row(full.len() - 1).unwrap().to_vec();
            (cache, last, full.len() as Pos)
        }

        fn step(&self, cache: &mut KvCache, token: Token, pos: Pos) -> Vec<f32> {
            let logits = self
                .model
                .forward_full(&Batch::single(token, pos, 0), cache)
                .expect("reference step");
            logits.row(0).unwrap().to_vec()
        }
    }

    impl ColdDrafter {
        fn draft(
            &mut self,
            context: &[Token],
            extra: &[Token],
            max_tokens: usize,
            cutoff: f32,
        ) -> (Vec<(Token, f32)>, f64) {
            let mut out = Vec::new();
            if max_tokens == 0 {
                return (out, 0.0);
            }
            let (mut cache, mut last_row, first_pos) = self.prefill(context, extra);
            for pos in first_pos..first_pos + max_tokens as Pos {
                let conf = Sampler::confidence(&last_row);
                if conf < cutoff {
                    break;
                }
                let token = Sampler::Greedy.sample(&last_row);
                out.push((token, conf));
                if out.len() == max_tokens {
                    break;
                }
                last_row = self.step(&mut cache, token, pos);
            }
            (out, 0.0)
        }

        fn draft_tree(
            &mut self,
            context: &[Token],
            extra: &[Token],
            width: usize,
            depth: usize,
            cutoff: f32,
        ) -> (TokenTree, f64) {
            let mut tree = TokenTree::new();
            if depth == 0 {
                return (tree, 0.0);
            }
            let (mut cache, first_row, first_pos) = self.prefill(context, extra);
            let probs = ops::softmax(&first_row);
            let mut idx: Vec<usize> = (0..probs.len()).collect();
            idx.sort_by(|&a, &b| probs[b].partial_cmp(&probs[a]).unwrap().then(a.cmp(&b)));
            let top: Vec<(Token, f32)> = idx[..width]
                .iter()
                .map(|&i| (i as Token, probs[i]))
                .collect();
            let (primary, p_conf) = top[0];
            let mut parent = tree.add(None, primary, p_conf);
            let mut cur = primary;
            let extend = if p_conf >= cutoff { depth } else { 1 };
            for pos in first_pos..first_pos + extend as Pos - 1 {
                let row = self.step(&mut cache, cur, pos);
                let conf = Sampler::confidence(&row);
                if conf < cutoff {
                    break;
                }
                let next = Sampler::Greedy.sample(&row);
                parent = tree.add(Some(parent), next, conf);
                cur = next;
            }
            for &(tok, prob) in &top[1..] {
                tree.add(None, tok, prob);
            }
            (tree, 0.0)
        }
    }

    /// `(token, confidence bits, parent)` of every node: equality of these is
    /// bit-for-bit equality of two trees.
    fn tree_bits(tree: &TokenTree) -> Vec<(Token, u32, Option<usize>)> {
        tree.nodes()
            .iter()
            .map(|n| (n.token, n.prob.to_bits(), n.parent))
            .collect()
    }

    fn chain_bits(chain: &[(Token, f32)]) -> Vec<(Token, u32)> {
        chain.iter().map(|&(t, c)| (t, c.to_bits())).collect()
    }

    /// The cache holds exactly the cached tokens, consistently.
    fn assert_cache_matches_tokens(d: &RealDrafter) {
        let Some(cache) = &d.cache else {
            assert!(d.cached.is_empty());
            return;
        };
        cache.check_consistency().expect("draft cache consistent");
        assert_eq!(cache.used(), d.cached.len(), "used cells == cached tokens");
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// One incremental drafter against the from-scratch reference over a
        /// random walk of the hypotheses continuous speculation produces.
        #[test]
        fn prop_incremental_drafter_matches_cold_reference(
            model_seed in 0u64..1000,
            steps in proptest::collection::vec(0u64..u64::MAX, 6..20),
        ) {
            const VOCAB: u64 = 64;
            let model = Model::random(ModelConfig::tiny_llama(VOCAB as usize, 2), model_seed);
            let mut cold = ColdDrafter { model: model.clone(), kv_capacity: 256 };
            let mut warm = RealDrafter::new(model, 256);
            let mut hyp: Vec<Token> = vec![3, 1, 4, 1, 5];
            let mut last_draft: Vec<Token> = Vec::new();
            for code in steps {
                // Decode the step: what happens to the hypothesis, then how
                // it is drafted from.
                let (kind, mut r) = (code % 5, code / 5);
                let mut take = |n: u64| {
                    let v = r % n;
                    r /= n;
                    v
                };
                match kind {
                    // Accepted drafts (and a bonus token) extend it.
                    0 => {
                        let n = take(last_draft.len() as u64 + 1) as usize;
                        hyp.extend_from_slice(&last_draft[..n]);
                        hyp.push(take(VOCAB) as Token);
                    }
                    // An invalidation cuts it back and diverges.
                    1 if !hyp.is_empty() => {
                        hyp.truncate(take(hyp.len() as u64) as usize);
                        hyp.push(take(VOCAB) as Token);
                    }
                    // It shrinks to a prefix of itself.
                    2 => hyp.truncate(take(hyp.len() as u64 + 1) as usize),
                    // A new request starts from nothing.
                    3 => hyp.clear(),
                    // The same context is drafted from again.
                    _ => {}
                }
                prop_assert!(hyp.len() < 200, "walk stays inside the cache");
                let split = hyp.len() - take(3).min(hyp.len() as u64) as usize;
                let (context, extra) = hyp.split_at(split);
                let max_tokens = take(5) as usize;
                // Random models are about 1/VOCAB confident: 0.02 stops some
                // chains early, 0 never does.
                let cutoff = if take(2) == 0 { 0.0 } else { 0.02 };
                if take(4) == 0 {
                    warm.prime(&hyp[..take(hyp.len() as u64 + 1) as usize]);
                    assert_cache_matches_tokens(&warm);
                }
                if take(2) == 0 {
                    let (want, _) = cold.draft(context, extra, max_tokens, cutoff);
                    let (got, _) = warm.draft(context, extra, max_tokens, cutoff);
                    prop_assert_eq!(chain_bits(&got), chain_bits(&want));
                    last_draft = got.iter().map(|&(t, _)| t).collect();
                } else {
                    let (want, _) = cold.draft_tree(context, extra, 3, max_tokens, cutoff);
                    let (got, _) = warm.draft_tree(context, extra, 3, max_tokens, cutoff);
                    prop_assert_eq!(tree_bits(&got), tree_bits(&want));
                    last_draft = got.spine().iter().map(|&n| got.nodes()[n].token).collect();
                }
                assert_cache_matches_tokens(&warm);
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        /// `draft` is the chain view of the one drafting routine: the width-1
        /// tree is a chain, and `draft` returns exactly its spine — the same
        /// tokens, confidences and, where the cost is not wall time, cost.
        /// The oracle's chain is also what the chain routine it replaced
        /// drafted: `draft_chain` cut at the first token under the cutoff,
        /// one draft-model pass per token and at least one.
        #[test]
        fn prop_draft_is_the_spine_of_the_width_one_tree(
            seed in 0u64..1000,
            context in proptest::collection::vec(0u32..64, 0..12),
            extra in proptest::collection::vec(0u32..64, 0..3),
            max_tokens in 0usize..6,
            cutoff_step in 0usize..6,
        ) {
            let spine = |tree: &TokenTree| -> Vec<(Token, u32)> {
                assert!(tree.leaves().len() <= 1, "a width-1 tree is a chain");
                let nodes = tree.nodes();
                tree.spine().iter().map(|&n| (nodes[n].token, nodes[n].prob.to_bits())).collect()
            };

            // Random 64-token models are about 1/64 confident, so these
            // cutoffs range from never stopping to stopping at once.
            let cutoff = [0.0, 0.015, 0.02, 0.03, 0.05, 1.1][cutoff_step];
            let model = Model::random(ModelConfig::tiny_llama(64, 2), seed);
            let mut real = RealDrafter::new(model, 256);
            let (chain, _) = real.draft(&context, &extra, max_tokens, cutoff);
            let (tree, _) = real.draft_tree(&context, &extra, 1, max_tokens, cutoff);
            prop_assert_eq!(chain_bits(&chain), spine(&tree));

            let alignment = (seed % 11) as f64 / 10.0;
            let cutoff = cutoff_step as f32 * 0.2;
            let mut oracle = oracle_drafter(alignment);
            let (chain, chain_cost) = oracle.draft(&context, &extra, max_tokens, cutoff);
            let (tree, tree_cost) = oracle.draft_tree(&context, &extra, 1, max_tokens, cutoff);
            prop_assert_eq!(chain_bits(&chain), spine(&tree));
            prop_assert_eq!(chain_cost.to_bits(), tree_cost.to_bits());
            let full: Vec<Token> = context.iter().chain(&extra).copied().collect();
            let want: Vec<(Token, f32)> = OracleDraft::new(2, 32000, alignment)
                .draft_chain(&OracleTarget::new(1, 32000), &full, max_tokens)
                .into_iter()
                .take_while(|&(_, conf)| conf >= cutoff)
                .collect();
            prop_assert_eq!(chain_bits(&chain), chain_bits(&want));
            let per_token = CostModel::new(NodeSpec::xeon_gold_6140_dual()).full_model_time(
                &ModelCost::new(ModelConfig::tinyllama_1_1b(), QuantKind::Q4K),
                1,
                full.len(),
            );
            let want_cost = if max_tokens == 0 { 0.0 } else { per_token * want.len().max(1) as f64 };
            prop_assert_eq!(chain_cost.to_bits(), want_cost.to_bits());
        }
    }

    #[test]
    fn prime_then_draft_equals_draft_alone() {
        let model = Model::random(ModelConfig::tiny_llama(64, 2), 11);
        let prompt: Vec<Token> = (0..40).map(|i| (i * 7 + 3) % 64).collect();
        let mut alone = RealDrafter::new(model.clone(), 256);
        let (want, _) = alone.draft(&prompt, &[9], 4, 0.0);
        let mut primed = RealDrafter::new(model, 256);
        assert!(primed.cache.is_none(), "no cache before first use");
        primed.prime(&prompt);
        assert_eq!(primed.cached, prompt);
        let (got, _) = primed.draft(&prompt, &[9], 4, 0.0);
        assert_eq!(chain_bits(&got), chain_bits(&want));
        // Only the pending token and three drafts were evaluated on top.
        assert_eq!(primed.cached.len(), prompt.len() + 4);
    }

    #[test]
    fn context_beyond_kv_capacity_drafts_nothing_instead_of_panicking() {
        let model = Model::random(ModelConfig::tiny_llama(64, 2), 5);
        let long: Vec<Token> = (0..12).collect();
        let mut d = RealDrafter::new(model.clone(), 8);
        assert!(d.draft(&long, &[1], 4, 0.0).0.is_empty());
        assert_cache_matches_tokens(&d);
        assert!(d.draft_tree(&long, &[1], 3, 4, 0.0).0.is_empty());
        assert_cache_matches_tokens(&d);
        d.prime(&long);
        assert!(
            d.cached.is_empty(),
            "a failed evaluation resets the cached state"
        );
        // The drafter recovers as soon as the context fits again.
        let mut reference = ColdDrafter {
            model,
            kv_capacity: 64,
        };
        let (want, _) = reference.draft(&long[..4], &[], 2, 0.0);
        let (got, _) = d.draft(&long[..4], &[], 2, 0.0);
        assert_eq!(chain_bits(&got), chain_bits(&want));
    }

    #[test]
    fn drafts_running_out_of_kv_capacity_return_what_was_drafted() {
        let model = Model::random(ModelConfig::tiny_llama(64, 2), 5);
        let mut reference = ColdDrafter {
            model: model.clone(),
            kv_capacity: 64,
        };
        // Four context cells and room for two fed drafts: the third draft's
        // logits come from the second fed token, the fourth cannot be fed.
        let mut d = RealDrafter::new(model, 6);
        let (want, _) = reference.draft(&[1, 2, 3], &[4], 4, 0.0);
        let (got, _) = d.draft(&[1, 2, 3], &[4], 4, 0.0);
        assert_eq!(chain_bits(&got), chain_bits(&want[..3]));
        assert_cache_matches_tokens(&d);
        let (want, _) = reference.draft_tree(&[1, 2, 3], &[4], 3, 4, 0.0);
        let (got, _) = d.draft_tree(&[1, 2, 3], &[4], 3, 4, 0.0);
        assert_eq!(got.spine().len(), 3);
        assert_eq!(got.roots().len(), 3);
        let spine_tokens = |t: &TokenTree| -> Vec<Token> {
            t.spine().iter().map(|&n| t.nodes()[n].token).collect()
        };
        assert_eq!(spine_tokens(&got), spine_tokens(&want)[..3]);
        assert_cache_matches_tokens(&d);
    }

    fn oracle_drafter(alignment: f64) -> OracleDrafter {
        OracleDrafter::new(
            OracleTarget::new(1, 32000),
            OracleDraft::new(2, 32000, alignment),
            CostModel::new(NodeSpec::xeon_gold_6140_dual()),
            ModelCost::new(ModelConfig::tinyllama_1_1b(), QuantKind::Q4K),
        )
    }

    #[test]
    fn oracle_drafter_produces_tokens_and_positive_cost() {
        let mut d = oracle_drafter(0.8);
        let (tokens, cost) = d.draft(&[1, 2, 3], &[4], 4, 0.0);
        assert!(!tokens.is_empty() && tokens.len() <= 4);
        assert!(cost > 0.0);
    }

    #[test]
    fn oracle_drafter_cost_scales_with_tokens() {
        let mut d = oracle_drafter(1.0);
        let (t1, c1) = d.draft(&[1, 2, 3], &[4], 1, 0.0);
        let (t4, c4) = d.draft(&[1, 2, 3], &[4], 4, 0.0);
        assert_eq!(t1.len(), 1);
        assert_eq!(t4.len(), 4);
        assert!(c4 > 3.0 * c1);
    }

    #[test]
    fn oracle_drafter_aligned_chain_matches_target() {
        let mut d = oracle_drafter(1.0);
        let context = vec![7, 8, 9];
        let extra = vec![10];
        let (chain, _) = d.draft(&context, &extra, 4, 0.0);
        // With alignment 1.0 the chain must be the target oracle's greedy
        // continuation of context ++ extra.
        let target = OracleTarget::new(1, 32000);
        let mut ctx = vec![7, 8, 9, 10];
        for (tok, _) in chain {
            let truth = target.next_token(&ctx);
            assert_eq!(tok, truth);
            ctx.push(truth);
        }
    }

    #[test]
    fn real_drafter_tree_hedges_with_runner_up_roots() {
        let model = Model::random(ModelConfig::tiny_llama(64, 2), 5);
        let mut d = RealDrafter::new(model, 256);
        let (chain, _) = d.draft(&[1, 2, 3], &[4], 3, 0.0);
        let (tree, _) = d.draft_tree(&[1, 2, 3], &[4], 3, 3, 0.0);
        // Primary branch is the greedy chain; runner-ups are extra roots.
        assert!(tree.len() <= 5, "depth 3 + width 3 - 1");
        let roots = tree.roots();
        assert!(roots.len() <= 3 && roots.len() >= 2);
        assert_eq!(tree.nodes()[roots[0]].token, chain[0].0);
        let root_tokens: Vec<_> = roots.iter().map(|&r| tree.nodes()[r].token).collect();
        for (i, a) in root_tokens.iter().enumerate() {
            assert!(!root_tokens[i + 1..].contains(a), "duplicate root {a}");
        }
        // Width 1 reproduces the linear chain exactly.
        let (linear_tree, _) = d.draft_tree(&[1, 2, 3], &[4], 1, 3, 0.0);
        assert_eq!(linear_tree.len(), chain.len());
        assert_eq!(linear_tree.leaves().len(), 1);
        let leaf = linear_tree.leaves()[0];
        assert_eq!(
            linear_tree.sequence_to(leaf),
            chain.iter().map(|(t, _)| *t).collect::<Vec<_>>()
        );
    }

    #[test]
    fn oracle_drafter_tree_spine_matches_linear_chain() {
        let mut d = oracle_drafter(0.6);
        let (chain, _) = d.draft(&[1, 2, 3], &[4], 4, 0.0);
        let (tree, cost) = d.draft_tree(&[1, 2, 3], &[4], 3, 4, 0.0);
        assert!(cost > 0.0);
        assert!(tree.len() <= 6, "depth 4 + width 3 - 1");
        assert_eq!(tree.roots().len(), 3);
        // The deepest branch is the linear chain.
        let deepest = *tree
            .leaves()
            .iter()
            .max_by_key(|&&l| tree.nodes()[l].depth)
            .unwrap();
        let spine = tree.sequence_to(deepest);
        let linear: Vec<_> = chain.iter().map(|(t, _)| *t).collect();
        assert_eq!(spine, linear[..spine.len()].to_vec());
        // Determinism.
        let (again, _) = d.draft_tree(&[1, 2, 3], &[4], 3, 4, 0.0);
        assert_eq!(tree, again);
    }

    #[test]
    fn high_cutoff_shortens_chains_possibly_to_zero() {
        let mut d = oracle_drafter(0.5);
        let (strict, _) = d.draft(&[1, 2, 3, 4, 5], &[6], 8, 0.99);
        let (loose, _) = d.draft(&[1, 2, 3, 4, 5], &[6], 8, 0.0);
        assert!(strict.len() <= loose.len());
        assert_eq!(loose.len(), 8, "cutoff 0 never stops early");
        // An impossible cutoff drafts nothing at all.
        let (none, _) = d.draft(&[1, 2, 3, 4, 5], &[6], 8, 1.1);
        assert!(none.is_empty());
    }
}
