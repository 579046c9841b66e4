//! Criterion benchmarks for the order guard's fast path — the comparison
//! behind `BENCH_index.json`'s `step2_guard_skewed` section.
//!
//! Two ways to answer "would the enumeration visit this candidate seed?"
//! during step-2 extension, measured on fully indexed banks of the skewed
//! dispersed-repeat benchmark at a single thread:
//!
//! * `probe_baseline` — [`OrderGuard::OrderedIndexed`]: two bit-set
//!   probes per candidate, the guard masked or strided banks need;
//! * `full_fast_path` — what `find_hsps` auto-selects on fully indexed
//!   banks ([`OrderGuard::OrderedFull`]): no bit-set access at all.
//!
//! Both produce identical HSPs — asserted here so the comparison can
//! never drift apart silently.

use criterion::{criterion_group, criterion_main, Criterion};
use oris_align::OrderGuard;
use oris_core::step2::{find_hsps, find_hsps_with_guard, select_guard};
use oris_core::OrisConfig;
use oris_index::{BankIndex, IndexConfig};

fn bench_guard_fully_indexed(c: &mut Criterion) {
    let (b1, b2) = oris_bench::skewed_pair(20, 10_000, 250);
    let cfg = OrisConfig::default();
    let i1 = BankIndex::build(&b1, IndexConfig::full(cfg.w));
    let i2 = BankIndex::build(&b2, IndexConfig::full(cfg.w));
    assert!(
        matches!(select_guard(&i1, &i2), OrderGuard::OrderedFull),
        "fully indexed banks must auto-select the fast path"
    );
    let probe = OrderGuard::OrderedIndexed {
        idx1: &i1,
        idx2: &i2,
    };
    // Both guards agree — the speedup is free, not lossy.
    assert_eq!(
        find_hsps_with_guard(&b1, &i1, &b2, &i2, &cfg, probe),
        find_hsps(&b1, &i1, &b2, &i2, &cfg)
    );

    let pool = rayon::ThreadPoolBuilder::new()
        .num_threads(1)
        .build()
        .unwrap();
    let mut g = c.benchmark_group("guard_step2_fully_indexed");
    g.sample_size(10);
    g.bench_function("probe_baseline", |b| {
        b.iter(|| pool.install(|| find_hsps_with_guard(&b1, &i1, &b2, &i2, &cfg, probe)))
    });
    g.bench_function("full_fast_path", |b| {
        b.iter(|| pool.install(|| find_hsps(&b1, &i1, &b2, &i2, &cfg)))
    });
    g.finish();
}

criterion_group!(benches, bench_guard_fully_indexed);
criterion_main!(benches);
