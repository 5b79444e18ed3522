//! Microbenchmarks of the compute substrate: dense matrix products (the
//! shipped kernels side-by-side with the naive reference),
//! KV-cache metadata operations, full model decode steps and the real
//! drafter's cold/warm draft cost.  These are not paper figures; they
//! document the cost of the building blocks the real-execution path uses.
//!
//! Two rows appear per matmul shape: `matmul_t_f32_naive` — the ground truth
//! the property tests compare against — and the plain `matmul_t_f32`, the
//! runtime-dispatched f32x8 kernels every build ships (`ops::matmul_t`).  The
//! header line names the instruction set they dispatched to.
//!
//! Two families say what a forward pass costs where a single in-cache
//! product cannot: `matmul_stack_bp256` runs the seven products of each of
//! eight `bp256` layers back to back — 25.7 MB of weights, so every matrix
//! streams from the shared cache or memory as it does inside a model — at 1,
//! 4, 5 and 8 rows, and `attend_token_per_cell` is one token's attention over
//! 64, 128 and 512 cached cells, in nanoseconds per cell.
//!
//! A product splits over the worker pool only inside a compute section (a
//! thread holding a `rayon::pool::Team`), so every row above but the
//! drafter's (which opens a section of its own, as on a cluster rank) times
//! serial code, whatever `PIPEINFER_THREADS` says.  The **team** section is
//! the one dispatch study: what the step loop issues, inside a team of 1 and
//! a team of 2 — 1×256×256, 1×256×704 and 5×256×704 cycling through enough
//! matrices of their own to stream each from the shared cache as a forward
//! pass does, and `matmul_stack_bp256` at 1 and 5 rows.  Its rows are named
//! `team_*`, with the team's width as `threads`.
//!
//! Besides the human-readable table, the run writes machine-readable results
//! to `BENCH_kernels.json` at the workspace root (`op`, `shape`,
//! `ns_per_iter`, `threads`, `isa`) so the kernel-performance trajectory is
//! trackable across PRs.
//!
//! With `PIPEINFER_BENCH_ASSERT=1` (set by the CI smoke step) the run fails
//! if the shipped single-row kernel loses its margin over the naive
//! reference, if multi-row products stop being cheaper per row than
//! single-row ones, if a five-row product costs a second pass over the
//! weights (in cache against four rows, streaming against one), if a team
//! product gets slower split over a team of 2 than inside a team of 1, or if
//! the drafter re-fills its KV cache per call — so kernel regressions break
//! the build instead of landing silently.
//!
//! Benchmark names are `<op> <shape>` with shapes written `m x k x n`.

use criterion::{BatchSize, BenchReport, Criterion};
use pi_model::{Batch, KvCache, Model, ModelConfig, Token, PAGE_TOKENS};
use pi_spec::{Drafter, RealDrafter};
use pi_tensor::{ops, Tensor};
use rand::rngs::StdRng;
use rand::SeedableRng;
use rayon::pool;
use std::sync::Arc;

/// Where the machine-readable results go: the workspace root, next to the
/// figures the other benches produce.
const JSON_PATH: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_kernels.json");

fn bench_dense_matmul(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(1);
    // m=1 is the decode path (the paper's per-token latency driver); m=4/8
    // are speculative-verify micro-batches; m=16/32 are cross-request forest
    // batches (8 fused requests × chain/tree micro-batch rows — the
    // iteration-level batching row counts); 512 is the default bench width,
    // 2048 a larger-model sanity point for the single-row case.  The
    // 256-wide shapes are the wall-clock benchmark's own (`bp256`: d_model
    // 256, d_ff 704): decode rows, 4- and 5-row verify batches (the pair the
    // one-pass gate compares), an 8-row verify/forest batch, and 64- and
    // 256-row prefill chunks.
    for (m, k, n) in [
        (1usize, 512usize, 512usize),
        (4, 512, 512),
        (8, 512, 512),
        (16, 512, 512),
        (32, 512, 512),
        (1, 2048, 2048),
        (1, 256, 256),
        (1, 256, 704),
        (4, 256, 704),
        (5, 256, 704),
        (8, 256, 704),
        (64, 256, 704),
        (256, 256, 704),
    ] {
        let x = Tensor::rand_uniform(&mut rng, &[m, k], 1.0);
        let w = Tensor::rand_uniform(&mut rng, &[n, k], 1.0);
        c.bench_function(&format!("matmul_t_f32_naive {m}x{k}x{n}"), |b| {
            b.iter(|| ops::matmul_t_naive(&x, &w).unwrap())
        });
        c.bench_function(&format!("matmul_t_f32 {m}x{k}x{n}"), |b| {
            b.iter(|| ops::matmul_t(&x, &w).unwrap())
        });
    }
}

/// Row counts of the `matmul_stack_bp256` rows: decode, the widest verify
/// batch of one AVX2 tile, `[pending] ++ max_draft 4` (every synchronous
/// verify run), and an 8-lane forest step.
const STACK_ROWS: [usize; 4] = [1, 4, 5, 8];

/// The seven products of each of eight `bp256` layers (wq, wk, wv, wo, gate,
/// up, down), every layer with weight matrices of its own: 25.7 MB, an order
/// of magnitude more than a core's cache, so each product finds its matrix
/// where a forward pass finds it and not where the previous iteration left
/// it.  Only the products: no norms, attention or residuals between them.
fn bench_layer_stack(c: &mut Criterion) {
    let stack = LayerStack::new(&mut StdRng::seed_from_u64(5));
    for m in STACK_ROWS {
        let x = Tensor::rand_uniform(&mut StdRng::seed_from_u64(6), &[m, 704], 1.0);
        let mut out = vec![0.0f32; m * 704];
        c.bench_function(
            &format!("matmul_stack_bp256 {m}x{}l", LayerStack::LAYERS),
            |b| b.iter(|| stack.run(&x, &mut out)),
        );
    }
}

/// The eight `bp256` layers' products of [`bench_layer_stack`] (wq, wk, wv,
/// wo, gate, up, down), issued back to back at `m` rows.
struct LayerStack {
    square: Vec<Tensor>,
    wide: Vec<Tensor>,
    down: Vec<Tensor>,
}

impl LayerStack {
    const LAYERS: usize = 8;

    fn new(rng: &mut StdRng) -> Self {
        let (d, ff) = (256usize, 704usize);
        let mut weights = |rows: usize, cols: usize, count: usize| -> Vec<Tensor> {
            (0..Self::LAYERS * count)
                .map(|_| Tensor::rand_uniform(rng, &[rows, cols], 1.0))
                .collect()
        };
        let (square, wide, down) = (weights(d, d, 4), weights(ff, d, 2), weights(d, ff, 1));
        LayerStack { square, wide, down }
    }

    /// One pass over the stack at `x.rows()` rows (`x` is `[m, d_ff]`; the
    /// `d_model`-wide products read its first `m · d_model` floats).
    fn run(&self, x: &Tensor, out: &mut [f32]) -> f32 {
        let (d, ff, m) = (256usize, 704usize, x.rows());
        for w in &self.square {
            ops::matmul_t_into(&x.data()[..m * d], w.data(), m, d, d, &mut out[..m * d]);
        }
        for w in &self.wide {
            ops::matmul_t_into(&x.data()[..m * d], w.data(), m, d, ff, &mut out[..m * ff]);
        }
        for w in &self.down {
            ops::matmul_t_into(x.data(), w.data(), m, ff, d, &mut out[..m * d]);
        }
        out[0]
    }
}

/// Team widths the team section times.
const TEAM_WIDTHS: [usize; 2] = [1, 2];

/// Products timed inside a team: decode rows of `bp256`'s square and FFN
/// products and a five-row verify batch.
const TEAM_SHAPES: [(usize, usize, usize); 3] = [(1, 256, 256), (1, 256, 704), (5, 256, 704)];

/// Weights each team-section product cycles through: an 8-layer stack's
/// worth, so that every product streams its matrix as in a forward pass.
const TEAM_CYCLE_BYTES: usize = 24 << 20;

/// The team section: every [`TEAM_SHAPES`] product and the layer stack at
/// 1 and 5 rows, each inside a `Team` of every [`TEAM_WIDTHS`] width (set
/// through `PIPEINFER_THREADS`, which a team reads when it opens), the widths
/// alternated twice and each width's quieter pass kept: a burst from a
/// neighbour on the shared host has to hit the same cell twice to reach the
/// dispatch gate, and the two widths are timed within seconds of each other
/// — minutes apart, this shared box drifts by more than the 10 % it allows.
fn bench_team() -> Vec<(BenchReport, usize)> {
    let mut rows: Vec<(BenchReport, usize)> = Vec::new();
    let mut timed = |name: &str, product: &mut dyn FnMut() -> f32| {
        let first_row = rows.len();
        for pass in 0..2 {
            for (i, &width) in TEAM_WIDTHS.iter().enumerate() {
                std::env::set_var(pool::THREADS_ENV, width.to_string());
                let team = pool::Team::open();
                let mut c = Criterion::default();
                c.bench_function(name, |b| b.iter(&mut *product));
                drop(team);
                let report = c.reports()[0].clone();
                if pass == 0 {
                    rows.push((report, width));
                } else if report.median_ns < rows[first_row + i].0.median_ns {
                    rows[first_row + i].0 = report;
                }
            }
        }
    };
    let mut rng = StdRng::seed_from_u64(8);
    for (m, k, n) in TEAM_SHAPES {
        let count = TEAM_CYCLE_BYTES.div_ceil(n * k * 4);
        let weights: Vec<Tensor> = (0..count)
            .map(|_| Tensor::rand_uniform(&mut rng, &[n, k], 1.0))
            .collect();
        let x = Tensor::rand_uniform(&mut rng, &[m, k], 1.0);
        let mut out = vec![0.0f32; m * n];
        let mut next = 0;
        timed(&format!("team_matmul_t_f32 {m}x{k}x{n}"), &mut || {
            next = (next + 1) % count;
            ops::matmul_t_into(x.data(), weights[next].data(), m, k, n, &mut out);
            out[0]
        });
    }
    let stack = LayerStack::new(&mut rng);
    for m in [1usize, 5] {
        let x = Tensor::rand_uniform(&mut rng, &[m, 704], 1.0);
        let mut out = vec![0.0f32; m * 704];
        timed(
            &format!("team_matmul_stack_bp256 {m}x{}l", LayerStack::LAYERS),
            &mut || stack.run(&x, &mut out),
        );
    }
    rows
}

/// One token's attention (`simd::attend_token`: scores, softmax, gather) of
/// the `bp256` head layout — 8 heads of 32 — over 64, 128 and 512 cached
/// cells.  The reports are scaled to nanoseconds per cell.
fn bench_attend_token() -> Vec<BenchReport> {
    let mut c = Criterion::default();
    let (hd, heads) = (32usize, 8usize);
    let d = hd * heads;
    let mut rng = StdRng::seed_from_u64(7);
    let mut reports = Vec::new();
    for cells in [64usize, 128, 512] {
        let q = Tensor::rand_uniform(&mut rng, &[d], 1.0);
        let keys = Tensor::rand_uniform(&mut rng, &[cells, d], 1.0);
        let values = Tensor::rand_uniform(&mut rng, &[cells, d], 1.0);
        let (mut scores, mut out) = (Vec::new(), vec![0.0f32; d]);
        let name = format!("attend_token_per_cell {heads}hx{hd}d_{cells}cells");
        c.bench_function(&name, |b| {
            b.iter(|| {
                pi_tensor::simd::attend_token(
                    q.data(),
                    hd,
                    1,
                    1.0 / (hd as f32).sqrt(),
                    cells,
                    |c| keys.row(c).unwrap(),
                    |c| values.row(c).unwrap(),
                    &mut scores,
                    &mut out,
                );
                out[0]
            })
        });
        let mut report = c.reports().last().expect("just benched").clone();
        for ns in [
            &mut report.mean_ns,
            &mut report.median_ns,
            &mut report.min_ns,
            &mut report.max_ns,
        ] {
            *ns /= cells as f64;
        }
        println!("  = {:.1} ns per cell (median)", report.median_ns);
        reports.push(report);
    }
    reports
}

fn bench_kv_cache_ops(c: &mut Criterion) {
    // What a request pays to provision its KV: an 8-layer cache with room
    // for the benchmark's 2048 cells, a 64-token prompt stored into it, and
    // the drop.  The construct/drop ahead of the timed loop recycles the
    // heap, as every request after a process's first finds it: a zeroed
    // allocation is free only while it is a fresh `mmap`.
    c.bench_function("kv_cache_new 8lx256x2048", |b| {
        let row = [0.5f32; 256];
        let serve = || {
            let mut cache = KvCache::new(8, 256, KV_CAPACITY);
            for p in 0..64 {
                let cell = cache.alloc(p, &[0]).unwrap();
                for layer in 0..8 {
                    cache.store(layer, cell, &row, &row);
                }
            }
            cache.used()
        };
        serve();
        b.iter(serve)
    });
    c.bench_function("kv_seq_cp_rm 4096cells", |b| {
        b.iter_batched(
            || {
                let mut cache = KvCache::new(1, 64, 4096);
                for p in 0..4000 {
                    cache.alloc(p, &[0]).unwrap();
                }
                cache
            },
            |mut cache| {
                cache.seq_cp(0, 1, 0, i32::MAX);
                cache.seq_rm(1, 0, i32::MAX);
            },
            BatchSize::SmallInput,
        )
    });
    // The tree-speculation accept path: a long canonical context in seq 0,
    // a speculation tree fanned out over 8 branch sequences, then one
    // `branch_commit` folding the accepted path back into seq 0 and
    // dropping every branch.  This is the cache op the engines issue once
    // per verified tree, next to the legacy seq_cp/seq_rm row above.
    c.bench_function("kv_branch_commit_rollback 4096cells", |b| {
        const N_BRANCHES: u32 = 8;
        const DEPTH: i32 = 4;
        b.iter_batched(
            || {
                let mut cache = KvCache::new(1, 64, 4096);
                for p in 0..4000 {
                    cache.alloc(p, &[0]).unwrap();
                }
                // Shared tree root spanning every branch sequence, then one
                // cell per branch per level below it.
                let branches: Vec<u32> = (1..=N_BRANCHES).collect();
                cache.alloc(4000, &branches).unwrap();
                for d in 1..DEPTH {
                    for &s in &branches {
                        cache.alloc(4000 + d, &[s]).unwrap();
                    }
                }
                cache
            },
            |mut cache| {
                cache.branch_commit(0, 2, 1, N_BRANCHES as usize, 4000, i32::MAX);
            },
            BatchSize::SmallInput,
        )
    });
}

fn bench_tiny_model_decode(c: &mut Criterion) {
    let model = Model::random(ModelConfig::tiny_llama(64, 4), 3);
    c.bench_function("tiny_model_decode 64d4l", |b| {
        b.iter_batched(
            || model.new_cache_for_layers(&(0..4), 64, PAGE_TOKENS),
            |mut cache| {
                model
                    .forward_full(&Batch::single(5, 0, 0), &mut cache)
                    .unwrap()
            },
            BatchSize::SmallInput,
        )
    });
}

/// KV cells every `bp256`-shaped bench provisions, as the wall-clock
/// benchmark's requests do.
const KV_CAPACITY: usize = 2048;

/// A model of the wall-clock benchmark's shape (`bp256`: d_model 256, 8
/// heads, d_ff 704, byte vocabulary) with `n_layers` layers.
fn bp256_model(n_layers: usize) -> Model {
    let cfg = ModelConfig {
        d_model: 256,
        n_heads: 8,
        n_kv_heads: 8,
        d_ff: 704,
        max_seq_len: KV_CAPACITY,
        ..ModelConfig::tiny_llama(258, n_layers)
    };
    Model::random(cfg, 3)
}

/// One single-token decode step of the 8-layer `bp256` target behind 64 and
/// 512 tokens of context; the difference between the two rows is what
/// attention over 448 more cached positions costs.
fn bench_decode_ctx(c: &mut Criterion) {
    let model = bp256_model(8);
    for ctx in [64usize, 512] {
        let context: Vec<Token> = (0..ctx as Token).map(|i| (i * 7 + 3) % 258).collect();
        let mut cache = model.new_cache_for_layers(&(0..8), KV_CAPACITY, PAGE_TOKENS);
        model
            .forward_full(&Batch::prompt(&context, 0, 0), &mut cache)
            .unwrap();
        c.bench_function(&format!("decode_ctx{ctx} 256d8l"), |b| {
            b.iter(|| {
                let logits = model
                    .forward_full(&Batch::single(5, ctx as i32, 0), &mut cache)
                    .unwrap();
                cache.seq_rm(0, ctx as i32, i32::MAX);
                logits
            })
        });
    }
}

/// `RealDrafter::draft` of four tokens behind 128 and 512 tokens of context,
/// on a draft model of the wall-clock benchmark's shape (2 layers, d_model
/// 256).  `cold` builds a new drafter per iteration, so every call evaluates
/// its whole context — what each call cost before the drafter kept its KV
/// cache across calls.  `warm` keeps one drafter and extends the hypothesis
/// by the drafter's own proposal each iteration, the way continuous
/// speculation calls it, cutting back to the base context every 16
/// iterations the way an invalidation does.
fn bench_draft4(c: &mut Criterion) {
    let model = Arc::new(bp256_model(2));
    for ctx in [128usize, 512] {
        let context: Vec<Token> = (0..ctx as Token).map(|i| (i * 7 + 3) % 258).collect();
        c.bench_function(&format!("draft4_cold ctx{ctx}"), |b| {
            b.iter(|| {
                RealDrafter::new(Arc::clone(&model), KV_CAPACITY).draft(&context, &[], 4, 0.0)
            })
        });
        let mut drafter = RealDrafter::new(Arc::clone(&model), KV_CAPACITY);
        let mut hypothesis = context.clone();
        c.bench_function(&format!("draft4_warm ctx{ctx}"), |b| {
            b.iter(|| {
                if hypothesis.len() >= ctx + 64 {
                    hypothesis.truncate(ctx);
                }
                let (chain, _) = drafter.draft(&hypothesis, &[], 4, 0.0);
                hypothesis.extend(chain.iter().map(|&(token, _)| token));
                chain
            })
        });
    }
}

/// Serialises the collected `(report, threads)` rows as
/// `BENCH_kernels.json`, each labelled with the instruction set the kernels
/// dispatched to.  Team rows repeat an op/shape with the team's width as
/// `threads`; the fixed section is tagged with the thread count it ran under.
fn write_json(rows: &[(BenchReport, usize)]) {
    let mut out = String::from("[\n");
    for (i, (r, threads)) in rows.iter().enumerate() {
        let (op, shape) = r.name.split_once(' ').unwrap_or((r.name.as_str(), ""));
        out.push_str(&format!(
            "  {{\"op\": \"{op}\", \"shape\": \"{shape}\", \"ns_per_iter\": {:.1}, \
             \"median_ns\": {:.1}, \"min_ns\": {:.1}, \"iters\": {}, \"threads\": {threads}, \
             \"isa\": \"{}\"}}{}\n",
            r.mean_ns,
            r.median_ns,
            r.min_ns,
            r.iters,
            pi_tensor::simd::active_isa(),
            if i + 1 == rows.len() { "" } else { "," }
        ));
    }
    out.push_str("]\n");
    match std::fs::write(JSON_PATH, out) {
        Ok(()) => println!("\nwrote {}", JSON_PATH),
        Err(e) => eprintln!("\nfailed to write {}: {e}", JSON_PATH),
    }
}

/// Regression gates for CI.  Comparisons within the fixed-thread section
/// (`fixed`) use the per-benchmark *minimum* iteration time — the most
/// noise-robust observation on shared runners.  The dispatch gate compares
/// *medians* of the team section (`team`): a split that costs most
/// iterations 20% still has a lucky iteration, so minima cannot see it.
fn assert_no_regression(fixed: &[BenchReport], team: &[(BenchReport, usize)]) {
    let min_ns = |name: &str| {
        fixed
            .iter()
            .find(|r| r.name == name)
            .map(|r| r.min_ns)
            .expect("benchmark entry missing")
    };
    let team_median = |name: &str, width: usize| {
        team.iter()
            .find(|(r, w)| r.name == name && *w == width)
            .map(|(r, _)| r.median_ns)
            .expect("team entry missing")
    };
    // The vectorised tier is the only one shipped: it must keep a wide
    // margin over the scalar reference (measured ~10x).
    let naive = min_ns("matmul_t_f32_naive 1x512x512");
    let shipped = min_ns("matmul_t_f32 1x512x512");
    assert!(
        shipped * 4.0 <= naive,
        "kernel regression: the shipped single-row matmul (min {shipped:.0} ns) is \
         less than 4x faster than the naive reference (min {naive:.0} ns)"
    );
    // Register blocking: a row of a 32-row product reuses each weight vector
    // four times, so it must cost well under a single-row product.
    let per_row_32 = min_ns("matmul_t_f32 32x512x512") / 32.0;
    assert!(
        per_row_32 <= 0.6 * shipped,
        "kernel regression: a row of a 32-row matmul (min {per_row_32:.0} ns) costs \
         more than 0.6x a single-row matmul (min {shipped:.0} ns)"
    );
    // One pass over the weights for every verify batch.  In cache, five rows
    // may cost a fifth row's arithmetic over four — a third register of row
    // pairs over two on AVX-512, a 5x2 tile over a 4x3 on AVX2: 1.31-1.34x —
    // not a second pass (tile plus GEMV read 1.56x: 32.7 against 21 us).
    // Streaming, they may cost their arithmetic over the one-row pass that is
    // bound by the stream, not a stall per weight row on top of it (2.0x
    // before the tile prefetched: 2.0 against 1.0 ms).
    let (rows4, rows5) = (
        min_ns("matmul_t_f32 4x256x704"),
        min_ns("matmul_t_f32 5x256x704"),
    );
    assert!(
        rows5 <= 1.45 * rows4,
        "kernel regression: 5x256x704 (min {rows5:.0} ns) costs more than 1.45x 4x256x704 \
         (min {rows4:.0} ns) — a five-row product is making a second pass over its weights"
    );
    let (stack1, stack5) = (
        min_ns("matmul_stack_bp256 1x8l"),
        min_ns("matmul_stack_bp256 5x8l"),
    );
    assert!(
        stack5 <= 1.5 * stack1,
        "kernel regression: the 8-layer bp256 stack at 5 rows (min {stack5:.0} ns) costs more \
         than 1.5x the stack at 1 row (min {stack1:.0} ns) — a verify run is paying for more \
         than one pass over the weights"
    );
    println!(
        "one-pass gates ok: 5 rows / 4 rows in cache {:.2}x, streaming stack 5 rows / 1 row {:.2}x",
        rows5 / rows4,
        stack5 / stack1
    );
    println!(
        "kernel gates ok: shipped {:.1}x vs naive, m=32 row at {:.2}x a single row (min \
         times, {})",
        naive / shipped,
        per_row_32 / shipped,
        pi_tensor::simd::active_isa()
    );
    // Dispatch: a team product may not get slower split over two threads
    // than inside a team of 1, the serial code; 10% covers two measurements
    // of the same time.  On one core a team of 2 has no second core to
    // split over, so the gate has nothing to measure there.
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    if cores < 2 {
        println!("dispatch gate skipped: {cores} core available");
    } else {
        let mut ratios = Vec::new();
        for (m, k, n) in TEAM_SHAPES {
            let name = format!("team_matmul_t_f32 {m}x{k}x{n}");
            let (split, serial) = (team_median(&name, 2), team_median(&name, 1));
            assert!(
                split <= 1.10 * serial,
                "dispatch regression: {m}x{k}x{n} takes {split:.0} ns split over a team of 2 \
                 but {serial:.0} ns in a team of 1 — the split costs this product more than it \
                 returns"
            );
            ratios.push(split / serial);
        }
        println!("dispatch gate ok: team of 2 / team of 1 {ratios:.2?} (medians)");
    }
    // A drafter that keeps its KV cache pays for the new tokens only, so
    // four times the context may cost its attention share more, never the
    // 4-5x of re-evaluating the context on every call.
    let warm128 = min_ns("draft4_warm ctx128");
    let warm512 = min_ns("draft4_warm ctx512");
    assert!(
        warm512 <= 2.0 * warm128,
        "drafter regression: a warm draft behind 512 tokens of context (min \
         {warm512:.0} ns) costs more than twice one behind 128 (min {warm128:.0} ns) \
         — the draft KV cache is being re-filled per call"
    );
    println!(
        "draft gate ok: warm ctx512 / ctx128 {:.2}x, cold / warm {:.1}x at ctx128, {:.1}x at ctx512",
        warm512 / warm128,
        min_ns("draft4_cold ctx128") / warm128,
        min_ns("draft4_cold ctx512") / warm512
    );
}

fn main() {
    println!(
        "kernels: {} dispatch, {} pool thread(s)",
        pi_tensor::simd::active_isa(),
        pool::configured_threads()
    );
    // Fixed section at whatever thread count the environment configured.
    let mut c = Criterion::default();
    bench_dense_matmul(&mut c);
    bench_layer_stack(&mut c);
    bench_kv_cache_ops(&mut c);
    bench_tiny_model_decode(&mut c);
    bench_decode_ctx(&mut c);
    bench_draft4(&mut c);
    let mut fixed: Vec<BenchReport> = c.reports().to_vec();
    fixed.extend(bench_attend_token());
    let fixed_threads = pool::configured_threads();
    let mut rows: Vec<(BenchReport, usize)> =
        fixed.iter().cloned().map(|r| (r, fixed_threads)).collect();

    let team = bench_team();
    rows.extend(team.iter().cloned());

    write_json(&rows);
    if std::env::var_os("PIPEINFER_BENCH_ASSERT").is_some() {
        assert_no_regression(&fixed, &team);
    }
}
