//! Property tests pinning the shipped kernels to their naive references.
//!
//! The dense `matmul_t` and the fused quantized matmul must match
//! `ops::matmul_t_naive` / `QuantizedMatrix::matmul_t_reference` within 1e-4
//! relative error on random shapes — including single-row (decode), multi-row
//! (speculative verify, exercising the register tile and its ragged edges),
//! inner dimensions that are not multiples of the 8-lane vector width, and
//! column counts that are not multiples of the quantization block size.  The
//! element-wise kernels are pinned to their textbook scalar formulas the same
//! way.
//!
//! A second family is bitwise: a product must not depend on the thread count,
//! and row `r` of a multi-row product must be the single-row product of row
//! `r` — the identity forest batching and verify-vs-decode equality rest on.

use pi_tensor::{ops, QuantKind, QuantizedMatrix, Tensor};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Mutex;

fn assert_close(fast: &Tensor, reference: &Tensor, what: &str) {
    assert_eq!(fast.shape(), reference.shape(), "{what}: shape mismatch");
    for (i, (a, b)) in fast.data().iter().zip(reference.data().iter()).enumerate() {
        assert!(
            (a - b).abs() <= 1e-4 * a.abs().max(1.0),
            "{what}: element {i} diverged: {a} vs {b}"
        );
    }
}

proptest! {
    #[test]
    fn prop_matmul_matches_naive(
        m in 1usize..10,
        // Straddles multiples of the 8-lane width: 7, 8, 9, 15, 16, 17...
        // all occur.
        k in 1usize..130,
        n in 1usize..70,
        seed in 0u64..500,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let x = Tensor::rand_uniform(&mut rng, &[m, k], 1.0);
        let w = Tensor::rand_uniform(&mut rng, &[n, k], 1.0);
        let fast = ops::matmul_t(&x, &w).unwrap();
        let naive = ops::matmul_t_naive(&x, &w).unwrap();
        assert_close(&fast, &naive, "dense shipped vs naive");
    }

    #[test]
    fn prop_fused_quant_matmul_matches_reference(
        m in 1usize..7,
        // Deliberately straddles multiples of BLOCK_SIZE (32): 31, 32, 33,
        // 50, 64, 96... all occur.
        cols in 1usize..130,
        n in 1usize..40,
        seed in 0u64..500,
    ) {
        let mut rng = StdRng::seed_from_u64(seed.wrapping_add(1000));
        let x = Tensor::rand_uniform(&mut rng, &[m, cols], 1.0);
        let w = Tensor::rand_uniform(&mut rng, &[n, cols], 1.0);
        for kind in [QuantKind::Q8_0, QuantKind::Q4K] {
            let q = QuantizedMatrix::quantize(&w, kind).unwrap();
            let fused = q.matmul_t(&x).unwrap();
            let reference = q.matmul_t_reference(&x).unwrap();
            assert_close(&fused, &reference, "quant fused vs reference");
        }
    }

    #[test]
    fn prop_elementwise_ops_match_scalar_references(
        len in 1usize..200,
        seed in 0u64..500,
    ) {
        let mut rng = StdRng::seed_from_u64(seed.wrapping_add(5000));
        let x = Tensor::rand_uniform(&mut rng, &[1, len], 2.0);
        let x = x.data();
        let w = Tensor::rand_uniform(&mut rng, &[1, len], 1.0);
        let w = w.data();

        // rmsnorm: shipped vs the textbook scalar formula.
        let mut out = vec![0.0f32; len];
        ops::rmsnorm_into(x, w, 1e-5, &mut out);
        let ss: f32 = x.iter().map(|v| v * v).sum::<f32>() / len as f32;
        let scale = 1.0 / (ss + 1e-5).sqrt();
        for (i, o) in out.iter().enumerate() {
            let r = x[i] * scale * w[i];
            prop_assert!((o - r).abs() <= 1e-4 * r.abs().max(1.0), "rmsnorm[{i}]: {o} vs {r}");
        }

        // softmax: probabilities must match scalar reference and sum to 1.
        let mut sm = x.to_vec();
        ops::softmax_inplace(&mut sm);
        let max = x.iter().cloned().fold(f32::NEG_INFINITY, f32::max);
        let exps: Vec<f32> = x.iter().map(|v| (v - max).exp()).collect();
        let sum: f32 = exps.iter().sum();
        for (i, o) in sm.iter().enumerate() {
            let r = exps[i] / sum;
            prop_assert!((o - r).abs() <= 1e-4, "softmax[{i}]: {o} vs {r}");
        }

        // fused SwiGLU gate: silu(gate) * up vs the scalar formula.
        let mut gate = x.to_vec();
        ops::silu_mul_inplace(&mut gate, w);
        for (i, o) in gate.iter().enumerate() {
            let r = x[i] * (1.0 / (1.0 + (-x[i]).exp())) * w[i];
            prop_assert!((o - r).abs() <= 1e-4 * r.abs().max(1.0), "silu_mul[{i}]: {o} vs {r}");
        }
    }

    #[test]
    fn prop_matmul_is_deterministic_across_runs(
        m in 1usize..6,
        k in 1usize..100,
        n in 1usize..50,
        seed in 0u64..200,
    ) {
        // Same inputs, two runs — the claim-based pool must not introduce
        // any run-to-run variation (every element is accumulated in a fixed
        // order regardless of which worker computes it).
        let mut rng = StdRng::seed_from_u64(seed.wrapping_add(2000));
        let x = Tensor::rand_uniform(&mut rng, &[m, k], 1.0);
        let w = Tensor::rand_uniform(&mut rng, &[n, k], 1.0);
        let a = ops::matmul_t(&x, &w).unwrap();
        let b = ops::matmul_t(&x, &w).unwrap();
        prop_assert_eq!(a.data(), b.data());
    }
}

/// Serialises the one test that mutates `PIPEINFER_THREADS` against itself
/// (the other tests only read it, and none of their results depend on it).
static THREADS_ENV: Mutex<()> = Mutex::new(());

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn prop_rows_of_a_product_are_bitwise_the_single_row_products(
        // Every row-block split of every instruction set (up to two 8-row
        // blocks and a lone row); n % 6, n % 3, k % 8 and k % 32 take every
        // residue.
        m in 1usize..18,
        n in 1usize..80,
        k in 1usize..140,
        // 0: every product stays on the calling thread (at most 3 × 80 × 140
        // weight loads); 1: `n` and `k` each grow by the square root of the
        // pool-dispatch threshold, so the single-row products alone cross
        // it, wherever the constant is set.
        above_threshold in 0usize..2,
        seed in 0u64..500,
    ) {
        let side = ops::par_dispatch_weight_loads().isqrt() + 1;
        let (n, k) = (n + side * above_threshold, k + side * above_threshold);
        prop_assert_eq!(n * k >= ops::par_dispatch_weight_loads(), above_threshold == 1);
        let mut rng = StdRng::seed_from_u64(seed.wrapping_add(6000));
        let bits = |v: &[f32]| v.iter().map(|f| f.to_bits()).collect::<Vec<u32>>();

        let _guard = THREADS_ENV.lock().unwrap_or_else(|e| e.into_inner());
        let prev = std::env::var_os("PIPEINFER_THREADS");
        // The drawn row count, and one of 5..=8 in every case: the verify
        // and forest shapes that are one pass of one tile on every
        // instruction set that has a tile that tall, tile plus remainder on
        // the others.
        for m in [m, 5 + m % 4] {
            let x = Tensor::rand_uniform(&mut rng, &[m, k], 1.0);
            let w = Tensor::rand_uniform(&mut rng, &[n, k], 1.0);
            let mut first: Option<Vec<u32>> = None;
            for threads in ["1", "2", "4"] {
                std::env::set_var("PIPEINFER_THREADS", threads);
                let mut tiled = vec![0.0f32; m * n];
                ops::matmul_t_into(x.data(), w.data(), m, k, n, &mut tiled);
                let mut row = vec![0.0f32; n];
                for r in 0..m {
                    ops::matvec_t_into(x.row(r).unwrap(), &w, &mut row).unwrap();
                    prop_assert_eq!(
                        bits(&row),
                        bits(&tiled[r * n..(r + 1) * n]),
                        "{}x{}x{} at {} threads: row {} differs from its single-row product",
                        m, k, n, threads, r
                    );
                }
                let tiled = bits(&tiled);
                prop_assert_eq!(first.get_or_insert_with(|| tiled.clone()), &tiled);
            }
        }
        match prev {
            Some(v) => std::env::set_var("PIPEINFER_THREADS", v),
            None => std::env::remove_var("PIPEINFER_THREADS"),
        }
    }
}
