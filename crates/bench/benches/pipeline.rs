//! Criterion benchmarks for the full pipelines — the engine-level numbers
//! behind the speed-up tables (E2/E3/E4) on a small fixed pair.
//!
//! Three configurations: the ORIS engine, the one-pass lean baseline and
//! the blastall-like batched baseline; plus the step-2 ordered
//! enumeration vs the A1 hash-dedup ablation.

use criterion::{criterion_group, criterion_main, Criterion};
use oris_blast::BlastConfig;
use oris_core::OrisConfig;
use oris_index::{BankIndex, IndexConfig};

fn banks() -> (oris_seqio::Bank, oris_seqio::Bank) {
    (
        oris_simulate::paper_bank("EST1", 0.15).bank,
        oris_simulate::paper_bank("EST2", 0.15).bank,
    )
}

fn bench_engines(c: &mut Criterion) {
    let (b1, b2) = banks();
    let oris_cfg = OrisConfig::default();
    let lean = BlastConfig::matched(&oris_cfg);
    let batched = BlastConfig::blastall_like(&oris_cfg);

    let mut g = c.benchmark_group("engine_pipeline");
    g.sample_size(10);
    g.bench_function("oris", |b| {
        b.iter(|| oris_core::compare_banks(&b1, &b2, &oris_cfg))
    });
    g.bench_function("blast_one_pass", |b| {
        b.iter(|| oris_blast::compare_banks(&b1, &b2, &lean))
    });
    g.bench_function("blast_blastall_like", |b| {
        b.iter(|| oris_blast::compare_banks(&b1, &b2, &batched))
    });
    g.finish();
}

fn bench_step2_variants(c: &mut Criterion) {
    let (b1, b2) = banks();
    let cfg = OrisConfig::default();
    let i1 = BankIndex::build(&b1, IndexConfig::full(cfg.w));
    let i2 = BankIndex::build(&b2, IndexConfig::full(cfg.w));

    let mut g = c.benchmark_group("step2");
    g.sample_size(10);
    g.bench_function("ordered", |b| {
        b.iter(|| oris_core::step2::find_hsps(&b1, &i1, &b2, &i2, &cfg))
    });
    g.bench_function("unordered_hash_dedup", |b| {
        b.iter(|| oris_core::ablation::find_hsps_unordered_dedup(&b1, &i1, &b2, &i2, &cfg))
    });
    g.finish();
}

criterion_group!(benches, bench_engines, bench_step2_variants);
criterion_main!(benches);
