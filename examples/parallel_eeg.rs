//! The MGH scale-out scenario (paper §4): *"Fifty terabytes will require a
//! parallel multi-node DBMS to achieve our performance goals."*
//!
//! Synthesizes multi-channel EEG recordings, range-partitions them over
//! simulated nodes by time (the natural layout for append-only recordings),
//! and runs the two query shapes the coordinated views issue:
//!
//! * **temporal window** — the temporal view's pan: a time-range predicate
//!   that routes to the one or two nodes owning that window;
//! * **spectral rollup** — the spectral view's summary: a GROUP BY
//!   aggregate decomposed into per-node partials and recombined.
//!
//! ```text
//! cargo run --example parallel_eeg --release
//! ```

use kyrix::obs::Registry;
use kyrix::prelude::*;
use kyrix::workload::{load_eeg, EegConfig};
use std::sync::Arc;

fn main() {
    // ---- 1. synthesize the recording on a staging node -------------------
    let cfg = EegConfig {
        channels: 8,
        samples: 16_384,
        ..EegConfig::default()
    };
    let mut staging = Database::new();
    let (n_samples, n_power) = load_eeg(&mut staging, &cfg).expect("synthesize EEG");
    println!("synthesized {n_samples} samples, {n_power} spectral epochs");

    // ---- 2. range-partition over 4 "nodes" by time -----------------------
    // the `t` column is the sample index (one canvas pixel per sample)
    let total_time = cfg.samples as f64;
    let bounds: Vec<f64> = (1..4).map(|i| total_time * i as f64 / 4.0).collect();
    let mut router = QueryRouter::new(4).expect("router");
    router
        .register(
            "eeg",
            Partitioner::Range {
                column: "t".into(),
                bounds,
            },
        )
        .expect("range partitioner");

    let schema = staging.table("eeg").expect("eeg").schema.clone();
    let mut nodes: Vec<Database> = (0..4).map(|_| Database::new()).collect();
    for node in &mut nodes {
        node.create_table("eeg", schema.clone()).expect("table");
    }
    let mut rows = Vec::with_capacity(n_samples);
    staging
        .table("eeg")
        .expect("eeg")
        .scan(|_, r| rows.push(r))
        .expect("scan");
    load_rows(&mut nodes, &router, "eeg", rows).expect("load");
    let sizes: Vec<usize> = nodes
        .iter()
        .map(|node| node.table("eeg").expect("eeg").len())
        .collect();
    println!("partitioned over 4 nodes by time: {sizes:?} rows/node");

    // the coordinator reports every node statement and every fan-out
    let obs = Arc::new(Registry::new());
    let telemetry = ShardTelemetry::new(Arc::clone(&obs));
    let query =
        |sql: &str, params: &[Value]| query_shards(&nodes, &router, sql, params, Some(&telemetry));

    // ---- 3. temporal-view window queries route to owning nodes ----------
    let window = 8.0 * cfg.sample_rate; // 8 seconds of samples on screen
    for start in [0.0, total_time * 0.4, total_time * 0.8] {
        let r = query(
            "SELECT COUNT(*) FROM eeg WHERE t BETWEEN $1 AND $2 AND channel = 0",
            &[Value::Float(start), Value::Float(start + window)],
        )
        .expect("window query");
        let count = match r.rows[0].get(0) {
            Value::Int(n) => *n,
            other => panic!("unexpected {other:?}"),
        };
        println!(
            "temporal window [{:>6.1}s, {:>6.1}s): {count} samples",
            start / cfg.sample_rate,
            (start + window) / cfg.sample_rate
        );
    }

    // ---- 4. spectral rollup: per-channel amplitude statistics -----------
    let r = query(
        "SELECT channel, COUNT(*) AS n, AVG(amplitude), MIN(amplitude), MAX(amplitude) \
         FROM eeg GROUP BY channel ORDER BY channel",
        &[],
    )
    .expect("rollup");
    println!("\nper-channel rollup (recombined from 4 nodes):");
    println!("channel |     n |      avg |      min |      max");
    for row in &r.rows {
        println!(
            "{:>7} | {:>5} | {:>8.3} | {:>8.3} | {:>8.3}",
            row.get(0).as_i64().unwrap(),
            row.get(1).as_i64().unwrap(),
            row.get(2).as_f64().unwrap(),
            row.get(3).as_f64().unwrap(),
            row.get(4).as_f64().unwrap(),
        );
    }

    // ---- 5. coordinator statistics ---------------------------------------
    let queries = 4; // three windows + one rollup
    let count = |name: &str| obs.histogram(name).snapshot().count();
    println!(
        "\ncoordinator: {queries} queries, {:.1} nodes touched per query, {} scattered to several nodes",
        count("fetch.shard") as f64 / queries as f64,
        count("span.shard.scatter"),
    );
}
