//! Bench: §4 parallel partitioned execution — spatially routed viewport
//! queries vs. broadcast aggregates across shard counts.
//!
//! On a multi-core host broadcast aggregates approach `largest_shard /
//! total` of the single-node scan time; on any host routed viewport
//! queries stay flat because they touch a bounded number of grid cells.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use kyrix_bench::{shard_dots, ExperimentConfig};
use kyrix_parallel::query_shards;
use kyrix_storage::{Database, Value};
use kyrix_workload::load_uniform;

fn bench_parallel(c: &mut Criterion) {
    let cfg = ExperimentConfig::tiny();
    let grids: &[(u32, u32)] = &[(1, 1), (2, 2), (4, 4)];
    let mut src = Database::new();
    load_uniform(&mut src, &cfg.dots).expect("load");

    let mut group = c.benchmark_group("parallel_routed_viewport");
    for &(cols, rows_grid) in grids {
        let deployment = shard_dots(&src, &cfg.dots, cols, rows_grid);
        let vp = (cfg.viewport.0, cfg.viewport.1);
        group.bench_with_input(
            BenchmarkId::from_parameter(cols * rows_grid),
            &deployment,
            |b, (shards, router)| {
                b.iter(|| {
                    query_shards(
                        shards,
                        router,
                        "SELECT COUNT(*) FROM dots WHERE bbox && rect($1, $2, $3, $4)",
                        &[
                            Value::Float(cfg.dots.width / 3.0),
                            Value::Float(cfg.dots.height / 3.0),
                            Value::Float(cfg.dots.width / 3.0 + vp.0),
                            Value::Float(cfg.dots.height / 3.0 + vp.1),
                        ],
                        None,
                    )
                    .expect("routed query")
                })
            },
        );
    }
    group.finish();

    let mut group = c.benchmark_group("parallel_broadcast_aggregate");
    group.sample_size(20);
    for &(cols, rows_grid) in grids {
        let deployment = shard_dots(&src, &cfg.dots, cols, rows_grid);
        group.bench_with_input(
            BenchmarkId::from_parameter(cols * rows_grid),
            &deployment,
            |b, (shards, router)| {
                b.iter(|| {
                    query_shards(
                        shards,
                        router,
                        "SELECT AVG(weight), COUNT(*) FROM dots",
                        &[],
                        None,
                    )
                    .expect("broadcast aggregate")
                })
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench_parallel);
criterion_main!(benches);
