//! # pi-model
//!
//! Decoder-only transformer models and the modelling substrate PipeInfer
//! needs: model geometry, weights, layer-range forward passes (so a model can
//! be split across pipeline stages), a llama.cpp-style KV cache with
//! per-cell sequence metadata, batches, samplers, speculation token trees,
//! a byte-level tokenizer and a synthetic "alignment oracle" model used by
//! the figure benchmarks.
//!
//! ## Relationship to the paper
//!
//! The paper's reference implementation is built on llama.cpp.  This crate
//! re-creates the pieces of llama.cpp that PipeInfer's algorithms depend on:
//!
//! * `llama_batch` → [`batch::Batch`] (tokens + positions + sequence-id sets
//!   + logits flags),
//! * the unified KV cache with cell metadata (`llama_kv_cache`) →
//!   [`kv_cache::KvCache`] including `seq_cp`/`seq_rm`,
//! * layer-split evaluation for pipeline parallelism →
//!   [`transformer::Model::forward_layer_range`],
//! * greedy / temperature sampling → [`sampler`],
//! * speculation trees and their attention masks → [`token_tree`].  The
//!   [`token_tree::TokenTree`] is the workspace's *canonical speculation
//!   unit*: `pi_spec`'s TreeSpeculation strategy verifies genuine multi-branch
//!   trees through it, and the linear chains of the speculative baseline and
//!   PipeInfer's micro-batches are its degenerate single-branch case.  The
//!   [`kv_cache::KvCache`] completes the loop with
//!   [`kv_cache::KvCache::branch_commit`] /
//!   [`kv_cache::KvCache::branch_rollback`], which retain only the accepted
//!   root-to-leaf path after verification.

pub mod batch;
pub mod config;
pub mod kv_cache;
pub mod kv_pool;
pub mod oracle;
pub mod sampler;
pub mod token_tree;
pub mod tokenizer;
pub mod transformer;
pub mod weights;

pub use batch::Batch;
pub use config::{Activation, ModelConfig};
pub use kv_cache::{KvCache, KvCacheEvents, KvPage};
pub use kv_pool::{
    AdmissionRefusal, KvPagePool, KvPoolConfig, KvPoolStats, PrefixTicket, StageKey,
};
pub use oracle::{OracleDraft, OracleTarget};
pub use sampler::Sampler;
pub use token_tree::{TokenTree, TreeNodeId};
pub use tokenizer::ByteTokenizer;
pub use transformer::{Model, ScratchArena};
pub use weights::ModelWeights;

/// Token identifier type used throughout the workspace.
pub type Token = u32;

/// Sequence identifier type used by the KV cache, matching llama.cpp's
/// `llama_seq_id` concept.  Sequence 0 is the *canonical* sequence in
/// PipeInfer's multibuffering scheme.
pub type SeqId = u32;

/// Position of a token within a sequence.
pub type Pos = i32;
