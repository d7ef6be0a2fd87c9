//! Fixed-work benchmark of the Kyrix workspace: three workloads over the
//! galaxy LoD pyramid, exact interaction percentiles, a deterministic work
//! ledger, a correctness gate and a separate traced run for the per-layer
//! numbers. See `README.md` beside this crate for why each workload exists.

pub mod gate;
pub mod setup;
pub mod stats;
pub mod trace;
pub mod walk;
pub mod workloads;

use setup::SetupTimes;
use stats::median;
use std::collections::BTreeMap;
use workloads::{Measured, Plan, Workload};

/// A seed no benchmark figure was tuned on, for re-checking a claim
/// (`--held-out`).
pub const HELD_OUT_SEED: u64 = 0x4B59_5249_5821;

/// Set-ups per untraced run; `setup_s` is their median.
fn setups(workload: Workload) -> usize {
    match workload {
        Workload::ShardedRoam => 3,
        _ => 11,
    }
}

/// One metric as printed.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
}

fn metric(name: &'static str, unit: &'static str, value: f64) -> Metric {
    Metric {
        name,
        unit,
        value: if value.is_finite() { value } else { 0.0 },
    }
}

/// Everything one invocation reports.
pub struct Outcome {
    pub plan: Plan,
    pub setups: Vec<SetupTimes>,
    /// The untraced measurement (always present).
    pub untraced: Measured,
    /// The traced measurement (`--trace 1` only).
    pub traced: Option<Measured>,
}

impl Outcome {
    pub fn attempted(&self) -> u64 {
        self.untraced.attempted + self.traced.as_ref().map_or(0, |t| t.attempted)
    }

    pub fn failed(&self) -> u64 {
        self.untraced.failed + self.traced.as_ref().map_or(0, |t| t.failed)
    }

    /// Every measurement made every call and gate check it planned, and
    /// none failed.
    pub fn correct(&self) -> bool {
        std::iter::once(&self.untraced)
            .chain(&self.traced)
            .all(Measured::correct)
    }

    pub fn setup_s(&self) -> f64 {
        median(
            &self
                .setups
                .iter()
                .map(SetupTimes::total_s)
                .collect::<Vec<_>>(),
        )
    }

    /// The metrics a user sees, from the untraced measurement. The
    /// mutation latencies apply to `live_edit` only and `error_rate` is
    /// zero on a healthy build; the others are never zero.
    pub fn end_to_end(&self) -> Vec<Metric> {
        let u = &self.untraced;
        vec![
            metric("setup_s", "s", self.setup_s()),
            metric("interaction_p50_ms", "ms", u.interactions.percentile(50.0)),
            metric("interaction_p99_ms", "ms", u.interactions.percentile(99.0)),
            metric("interactions_per_s", "1/s", u.completed as f64 / u.busy_s),
            metric("rss_peak_mib", "MiB", u.rss_peak_mib),
            metric("mutation_p50_ms", "ms", u.mutations.percentile(50.0)),
            metric("mutation_p95_ms", "ms", u.mutations.percentile(95.0)),
            metric(
                "error_rate",
                "ratio",
                self.failed() as f64 / self.attempted().max(1) as f64,
            ),
        ]
    }

    /// The per-layer metrics of the traced measurement (empty without one).
    pub fn per_layer(&self) -> Vec<Metric> {
        let Some(t) = &self.traced else {
            return Vec::new();
        };
        let u = &self.untraced;
        let tr = t
            .trace
            .as_ref()
            .expect("traced measurement carries a trace");
        let stage =
            |f: fn(&SetupTimes) -> f64| median(&self.setups.iter().map(f).collect::<Vec<_>>());
        let mean = |v: &[f64]| {
            if v.is_empty() {
                0.0
            } else {
                v.iter().sum::<f64>() / v.len() as f64
            }
        };
        let ratio = |a: u64, b: u64| if b == 0 { 0.0 } else { a as f64 / b as f64 };
        let r = &t.readout;
        let region = tr.get("fetch.region");
        let publish: Vec<f64> = t
            .mutate_ms
            .iter()
            .zip(&t.repair_ms)
            .map(|(m, r)| m - r)
            .collect();
        let shard_means: Vec<f64> = r
            .shard_queries
            .iter()
            .map(|&(n, us)| ratio(us, n) / 1000.0)
            .collect();
        let skew = if shard_means.is_empty() {
            0.0
        } else {
            shard_means.iter().copied().fold(0.0, f64::max) / mean(&shard_means)
        };
        // storage work: observed queries on a single node, per-shard
        // executions on the scatter path
        let sql = tr.get("sql.execute");
        let sql_count = sql.count + r.shard_queries.iter().map(|q| q.0).sum::<u64>();
        let sql_us = sql.total_us + r.shard_queries.iter().map(|q| q.1).sum::<u64>();
        let client_self: Vec<f64> = tr
            .interactions
            .iter()
            .map(|&(dur, fetch)| dur.saturating_sub(fetch) as f64 / 1000.0)
            .collect();
        // harness spans the capture should hold, one per call made: any
        // shortfall was lost without reaching `span.events_dropped`
        let lost = t
            .attempted
            .saturating_sub(tr.interactions.len() as u64 + tr.get(trace::MUTATE).count);
        let (u50, t50) = (
            u.interactions.percentile(50.0),
            t.interactions.percentile(50.0),
        );
        vec![
            metric("workload.generate_s", "s", stage(|s| s.generate_s)),
            metric("lod.build_s", "s", stage(|s| s.build_s)),
            metric("lod.repair_ms", "ms", mean(&t.repair_ms)),
            metric("lod.rows_rewritten", "count", t.rows_rewritten as f64),
            metric("core.compile_ms", "ms", stage(|s| s.compile_s) * 1000.0),
            metric("server.launch_ms", "ms", stage(|s| s.launch_s) * 1000.0),
            metric("server.fetch_region.count", "count", region.count as f64),
            metric("server.fetch_region.ms", "ms", region.mean_ms()),
            metric("server.fetch_region.self_ms", "ms", region.mean_self_ms()),
            metric(
                "server.fetch_region.unattributed_pct",
                "%",
                100.0 * ratio(region.self_us, region.total_us),
            ),
            metric(
                "server.tile_cache.hit_ratio",
                "ratio",
                ratio(r.tile_cache.hits, r.tile_cache.hits + r.tile_cache.misses),
            ),
            metric(
                "server.cache_lookup.ms",
                "ms",
                tr.get("cache.lookup").mean_ms(),
            ),
            metric("server.merge.ms", "ms", tr.get("merge").mean_ms()),
            metric("server.rows_returned", "count", r.totals.rows as f64),
            metric(
                "server.tile_cache.capacity_evictions",
                "count",
                r.tile_cache.capacity_evictions as f64,
            ),
            metric(
                "server.tile_cache.invalidations",
                "count",
                r.tile_cache.invalidation_removals as f64,
            ),
            metric("server.mutate_ms", "ms", mean(&t.mutate_ms)),
            metric("server.publish_ms", "ms", mean(&publish)),
            metric(
                "server.cow_table_copies",
                "count",
                r.cow_table_copies as f64,
            ),
            metric("server.queries", "count", r.totals.queries as f64),
            metric("server.bytes", "bytes", r.totals.bytes as f64),
            metric("storage.sql.count", "count", sql_count as f64),
            metric("storage.sql.ms", "ms", ratio(sql_us, sql_count) / 1000.0),
            metric("storage.rows_scanned", "count", r.rows_scanned as f64),
            metric(
                "storage.scan_yield",
                "ratio",
                ratio(r.totals.rows, r.rows_scanned),
            ),
            metric(
                "parallel.scatter.count",
                "count",
                tr.get("shard.scatter").count as f64,
            ),
            metric(
                "parallel.scatter.ms",
                "ms",
                tr.get("shard.scatter").mean_ms(),
            ),
            metric("parallel.merge.ms", "ms", tr.get("shard.merge").mean_ms()),
            metric("parallel.shard_skew", "ratio", skew),
            metric("client.self_ms", "ms", mean(&client_self)),
            metric(
                "client.frontend.hit_ratio",
                "ratio",
                ratio(t.frontend.hits, t.frontend.hits + t.frontend.misses),
            ),
            metric(
                "client.fetches_per_interaction",
                "ratio",
                ratio(region.count, tr.interactions.len() as u64),
            ),
            metric(
                "client.frontend.invalidations",
                "count",
                t.frontend.invalidation_removals as f64,
            ),
            metric(
                "obs.trace_overhead_pct",
                "%",
                if u50 > 0.0 {
                    100.0 * (t50 - u50) / u50
                } else {
                    0.0
                },
            ),
            metric(
                "obs.events_dropped",
                "count",
                (r.events_dropped + lost) as f64,
            ),
            metric("generator.lag_p99_ms", "ms", u.lag.percentile(99.0)),
            metric("live.response_p50_ms", "ms", u.response.percentile(50.0)),
            metric("live.response_p99_ms", "ms", u.response.percentile(99.0)),
            metric("interaction_p99_ms", "ms", u.interactions.percentile(99.0)),
            metric("mutation_p50_ms", "ms", u.mutations.percentile(50.0)),
            metric("mutation_p95_ms", "ms", u.mutations.percentile(95.0)),
            metric(
                "error_rate",
                "ratio",
                self.failed() as f64 / self.attempted().max(1) as f64,
            ),
        ]
    }
}

/// The work ledger of one measurement: counts a single-threaded closed
/// loop repeats exactly for the same seed and length.
pub fn ledger(m: &Measured) -> BTreeMap<&'static str, u64> {
    let r = &m.readout;
    let t = &r.totals;
    BTreeMap::from([
        ("interactions", m.completed),
        ("mutations", m.mutations.len() as u64),
        ("server.requests", t.requests),
        ("server.queries", t.queries),
        ("server.rows", t.rows),
        ("server.bytes", t.bytes),
        ("tile_cache.hits", r.tile_cache.hits),
        ("tile_cache.misses", r.tile_cache.misses),
        (
            "tile_cache.capacity_evictions",
            r.tile_cache.capacity_evictions,
        ),
        (
            "tile_cache.invalidations",
            r.tile_cache.invalidation_removals,
        ),
        (
            "box_cache.hits",
            t.cache_hits.saturating_sub(r.tile_cache.hits),
        ),
        (
            "box_cache.misses",
            t.cache_misses.saturating_sub(r.tile_cache.misses),
        ),
        ("frontend.hits", m.frontend.hits),
        ("frontend.misses", m.frontend.misses),
        ("frontend.evictions", m.frontend.capacity_evictions),
        ("frontend.invalidations", m.frontend.invalidation_removals),
        ("storage.rows_scanned", r.rows_scanned),
        ("lod.rows_rewritten", m.rows_rewritten),
        ("server.cow_table_copies", r.cow_table_copies),
    ])
}

/// Set up (several times when untraced) and measure `plan`.
pub fn run(workload: Workload, plan: Plan, seed: u64, traced: bool) -> Result<Outcome, String> {
    let rounds = if traced { 2 } else { setups(workload) };
    let mut times = Vec::with_capacity(rounds);
    let mut measured = Vec::new();
    for round in 0..rounds {
        let mut served = setup::build(&plan.scale)?;
        times.push(served.times);
        // untraced: measure the last set-up; traced: measure an untraced
        // then a traced pass, each on a fresh server
        let measure = if traced { true } else { round + 1 == rounds };
        if measure {
            let traced_pass = traced && round == 1;
            measured.push(workloads::measure(
                workload,
                &plan,
                &mut served,
                seed,
                traced_pass,
            ));
        }
    }
    let mut measured = measured.into_iter();
    let untraced = measured.next().expect("one measurement");
    Ok(Outcome {
        plan,
        setups: times,
        untraced,
        traced: measured.next(),
    })
}

/// The sample-size rules a full-length run must meet: ten samples beyond
/// each reported tail.
pub fn sample_warnings(o: &Outcome) -> Vec<String> {
    let mut out = Vec::new();
    let u = &o.untraced;
    if u.interactions.beyond(99.0) < 10 {
        out.push(format!(
            "only {} interactions: p99 has fewer than 10 samples beyond it",
            u.interactions.len()
        ));
    }
    if o.plan.live.is_some() && u.mutations.beyond(95.0) < 10 {
        out.push(format!(
            "only {} mutations: p95 has fewer than 10 samples beyond it",
            u.mutations.len()
        ));
    }
    out
}
