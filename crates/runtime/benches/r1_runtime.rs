//! R1 — engineering bench (not a paper claim): the cost profile of the
//! event-sourced runtime. Each instance holds a cached incremental
//! cursor, so firing event `k` is O(eligible set) regardless of journal
//! length — instance lifetime cost is linear in path length. Only the
//! recovery paths (snapshot restore, explicit invalidation) replay the
//! journal, and each replays it exactly once.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use ctr_runtime::Runtime;
use std::time::Duration;

fn spec(n: usize) -> String {
    let chain: Vec<String> = (0..n).map(|i| format!("s{i}")).collect();
    format!("workflow chain {{ graph {}; }}", chain.join(" * "))
}

fn bench_runtime(c: &mut Criterion) {
    let mut group = c.benchmark_group("r1_instance_lifetime");
    group
        .sample_size(20)
        .measurement_time(Duration::from_secs(2));
    for n in [8usize, 32, 128] {
        let source = spec(n);
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, &n| {
            b.iter(|| {
                let rt = Runtime::new();
                rt.deploy_source(&source).unwrap();
                let id = rt.start("chain").unwrap();
                for i in 0..n {
                    rt.fire(id, &format!("s{i}")).unwrap();
                }
                assert!(rt.is_complete(id).unwrap());
            })
        });
    }
    group.finish();

    let mut group = c.benchmark_group("r1_snapshot_restore");
    group
        .sample_size(20)
        .measurement_time(Duration::from_secs(2));
    for n in [8usize, 32, 128] {
        let source = spec(n);
        let rt = Runtime::new();
        rt.deploy_source(&source).unwrap();
        let id = rt.start("chain").unwrap();
        for i in 0..n / 2 {
            rt.fire(id, &format!("s{i}")).unwrap();
        }
        let snap = rt.snapshot();
        group.bench_with_input(BenchmarkId::from_parameter(n), &snap, |b, snap| {
            b.iter(|| Runtime::restore(snap).unwrap())
        });
    }
    group.finish();
}

criterion_group!(benches, bench_runtime);
criterion_main!(benches);
