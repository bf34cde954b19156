//! Criterion benchmarks: one benchmark per experiment (E1–E13 and the extension
//! experiments E14–E20), each running the
//! experiment at `Scale::Quick`. These measure how long regenerating each figure /
//! claim takes; the quantitative series themselves are produced by the
//! `experiments` binary.

use criterion::{criterion_group, criterion_main, Criterion};
use wagg_bench::{Scale, EXPERIMENTS};

fn bench_experiments(c: &mut Criterion) {
    let mut group = c.benchmark_group("experiments_quick");
    group.sample_size(10);
    for (id, runner) in EXPERIMENTS {
        group.bench_function(id, |b| {
            b.iter(|| {
                let table = runner(Scale::Quick);
                criterion::black_box(table.rows.len())
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_experiments);
criterion_main!(benches);
