//! Tracing-overhead microbenchmark: the cost of one *disabled* event site.
//!
//! Every instrumented site in the runtime goes through
//! [`pi_cluster::trace_if`], which checks `NodeCtx::trace_enabled` before
//! constructing the event.  The whole design rests on that check being
//! effectively free — behaviors are instrumented unconditionally, so a rank
//! without a recorder pays the guard at full message rate.  This bench
//! measures the guard through the same `&mut dyn NodeCtx` shape the drivers
//! use and, with `PIPEINFER_BENCH_ASSERT=1` (the CI smoke step), fails the
//! run if a disabled site costs 5 ns or more.  The enabled-site row is
//! informative only: it prices the event construction + buffer push that
//! traced runs opt into.
//!
//! Run with `cargo bench -p pi-bench --bench trace_overhead`.

use criterion::Criterion;
use pi_cluster::{
    trace_if, EventKind, NodeCtx, NodeStats, Rank, SimTime, Tag, TraceBuffer, WireMessage,
};
use std::hint::black_box;

/// Event sites exercised per measured iteration.
const SITES_PER_ITER: usize = 1024;
/// CI gate: a disabled event site must stay under this (ns).
const DISABLED_SITE_BUDGET_NS: f64 = 5.0;

#[derive(Clone)]
struct Msg;

impl WireMessage for Msg {
    fn wire_bytes(&self) -> u64 {
        0
    }
}

/// A context with no recorder attached — `trace_enabled` / `trace` are the
/// trait defaults, exactly what a hand-rolled test context or an untraced
/// driver rank sees.
struct DisabledCtx {
    now: SimTime,
    stats: NodeStats,
}

impl NodeCtx<Msg> for DisabledCtx {
    fn rank(&self) -> Rank {
        0
    }
    fn world_size(&self) -> usize {
        1
    }
    fn now(&self) -> SimTime {
        self.now
    }
    fn send(&mut self, _dst: Rank, _tag: Tag, _msg: Msg) {}
    fn elapse(&mut self, seconds: SimTime) {
        self.now += seconds;
    }
    fn stats(&mut self) -> &mut NodeStats {
        &mut self.stats
    }
}

/// A context with a live recorder, for the informative enabled-site row.
struct EnabledCtx {
    now: SimTime,
    stats: NodeStats,
    buf: TraceBuffer,
}

impl NodeCtx<Msg> for EnabledCtx {
    fn rank(&self) -> Rank {
        0
    }
    fn world_size(&self) -> usize {
        1
    }
    fn now(&self) -> SimTime {
        self.now
    }
    fn send(&mut self, _dst: Rank, _tag: Tag, _msg: Msg) {}
    fn elapse(&mut self, seconds: SimTime) {
        self.now += seconds;
    }
    fn stats(&mut self) -> &mut NodeStats {
        &mut self.stats
    }
    fn trace_enabled(&self) -> bool {
        true
    }
    fn trace(&mut self, kind: EventKind) {
        let now = self.now;
        self.buf.push(now, kind);
    }
}

/// Drives `SITES_PER_ITER` representative event sites through the dyn seam.
/// The closure bodies read `black_box`ed locals so the event construction
/// cannot be hoisted or folded away — when the guard is off, none of it may
/// execute at all.
fn drive(ctx: &mut dyn NodeCtx<Msg>) {
    let run = black_box(7u64);
    let bytes = black_box(4096u64);
    for i in 0..SITES_PER_ITER / 4 {
        let i = i as u32;
        trace_if(ctx, || EventKind::StageForward {
            run,
            layer_lo: i,
            layer_hi: i + 20,
            batch: 4,
            cohort: 1,
            dur: 0.001,
        });
        trace_if(ctx, || EventKind::WireSend {
            dst: 1,
            tag: 3,
            bytes,
            draft: false,
        });
        trace_if(ctx, || EventKind::RunSpawned {
            run: run + i as u64,
            speculative: true,
            n_nodes: 4,
            width: 2,
            depth: 2,
        });
        trace_if(ctx, || EventKind::RunVerified {
            run: run + i as u64,
            accepted: 3,
        });
    }
}

fn main() {
    let mut c = Criterion::default();

    c.bench_function("disabled event site", |b| {
        let mut ctx = DisabledCtx {
            now: 0.0,
            stats: NodeStats::default(),
        };
        b.iter(|| {
            let dyn_ctx: &mut dyn NodeCtx<Msg> = black_box(&mut ctx);
            drive(dyn_ctx);
        });
    });

    c.bench_function("enabled event site", |b| {
        let mut ctx = EnabledCtx {
            now: 0.0,
            stats: NodeStats::default(),
            buf: TraceBuffer::new(0, SITES_PER_ITER * 2),
        };
        b.iter(|| {
            let dyn_ctx: &mut dyn NodeCtx<Msg> = black_box(&mut ctx);
            drive(dyn_ctx);
            black_box(ctx.buf.len());
        });
    });

    let mut disabled_ns = f64::NAN;
    println!("\nper-site costs over {SITES_PER_ITER} sites/iter:");
    for report in c.reports() {
        let per_site = report.mean_ns / SITES_PER_ITER as f64;
        if report.name.starts_with("disabled") {
            disabled_ns = per_site;
        }
        println!("  {:<22} {per_site:8.3} ns/site", report.name);
    }

    if std::env::var_os("PIPEINFER_BENCH_ASSERT").is_some() {
        assert!(
            disabled_ns < DISABLED_SITE_BUDGET_NS,
            "a disabled event site costs {disabled_ns:.3} ns — over the \
             {DISABLED_SITE_BUDGET_NS} ns budget"
        );
        println!(
            "PIPEINFER_BENCH_ASSERT: disabled site {disabled_ns:.3} ns < \
             {DISABLED_SITE_BUDGET_NS} ns — OK"
        );
    }
}
