//! The work ledger repeats exactly for the same seed on the closed-loop
//! workloads, and the reduced-size workloads pass their correctness gate.

use kyrix_workload::GalaxyConfig;
use perfbench::setup::{self, VIEWPORT};
use perfbench::trace;
use perfbench::walk::explore_walk;
use perfbench::workloads::{closed_loop, measure, Measured, Plan, Workload};
use std::collections::BTreeMap;

/// A 20k-point galaxy on an 8192² canvas: its coarsest level is one
/// viewport wide, so every level is still walked.
fn reduced(workload: Workload) -> Plan {
    let mut plan = workload.plan(1.0);
    plan.scale.galaxy = GalaxyConfig {
        n: 20_000,
        width: 8192.0,
        height: 8192.0,
        ..GalaxyConfig::e2e()
    };
    plan.laps = 2;
    plan.steps_per_level = 6;
    plan.gate_samples = 6;
    plan
}

fn run(workload: Workload, plan: &Plan, seed: u64, traced: bool) -> Measured {
    let mut served = setup::build(&plan.scale).expect("reduced set-up builds");
    let m = measure(workload, plan, &mut served, seed, traced);
    assert_eq!(m.gate_failed, 0, "gate: {:?}", m.gate_failures);
    assert_eq!(m.failed, 0, "errors: {:?}", m.errors);
    assert!(m.gate_checked > 0);
    assert!(m.correct());
    m
}

fn ledger(m: &Measured) -> BTreeMap<&'static str, u64> {
    perfbench::ledger(m)
}

#[test]
fn same_seed_gives_identical_ledgers_on_explore_and_sharded_roam() {
    for workload in [Workload::Explore, Workload::ShardedRoam] {
        let plan = reduced(workload);
        let a = ledger(&run(workload, &plan, 7, false));
        let b = ledger(&run(workload, &plan, 7, false));
        assert_eq!(a, b, "{}", workload.name());
        assert!(a["interactions"] > 0 && a["server.requests"] > 0, "{a:?}");
        let other = ledger(&run(workload, &plan, 8, false));
        assert_ne!(
            a,
            other,
            "{}: the seed must change the walk",
            workload.name()
        );
    }
}

#[test]
fn sharded_roam_crosses_the_scatter_and_explore_hits_the_tile_cache() {
    let roam = run(
        Workload::ShardedRoam,
        &reduced(Workload::ShardedRoam),
        3,
        true,
    );
    let trace = roam.trace.as_ref().expect("traced");
    assert!(trace.get("shard.scatter").count > 0);
    assert!(!roam.readout.shard_queries.is_empty());
    let explore = run(Workload::Explore, &reduced(Workload::Explore), 3, true);
    assert!(explore.readout.tile_cache.hits > explore.readout.tile_cache.misses);
    assert_eq!(
        explore
            .trace
            .as_ref()
            .expect("traced")
            .get("shard.scatter")
            .count,
        0
    );
}

/// The capture holds every harness span and every region fetch: a
/// frontend miss is exactly one region fetch on a one-layer canvas.
fn assert_complete_trace(m: &Measured) {
    let trace = m.trace.as_ref().expect("traced");
    assert_eq!(m.readout.events_dropped, 0);
    assert_eq!(trace.get("fetch.region").count, m.frontend.misses);
    assert_eq!(trace.interactions.len() as u64, m.completed);
    assert_eq!(trace.get(trace::MUTATE).count, m.mutations.len() as u64);
    let region = trace.get("fetch.region");
    assert!(region.self_us <= region.total_us);
}

fn live_plan() -> Plan {
    let mut plan = reduced(Workload::LiveEdit);
    let live = plan.live.as_mut().expect("live plan");
    live.interactions = 120;
    live.mutation_pairs = 6;
    plan
}

#[test]
fn traced_run_captures_every_fetch_without_drops() {
    let m = run(Workload::Explore, &reduced(Workload::Explore), 5, true);
    assert_complete_trace(&m);
    // the mutator records spans while the generator drains
    let m = run(Workload::LiveEdit, &live_plan(), 5, true);
    assert!(m.frontend.invalidation_removals > 0 || m.readout.tile_cache.invalidation_removals > 0);
    assert_complete_trace(&m);
}

#[test]
fn a_failed_interaction_fails_the_run() {
    let plan = reduced(Workload::Explore);
    let served = setup::build(&plan.scale).expect("reduced set-up builds");
    let mut walk = explore_walk(&served.lod, VIEWPORT, plan.laps, plan.steps_per_level, 5);
    walk[3].canvas = "no_such_canvas".into();
    let m = closed_loop(&walk, plan.gate_samples, &served, false);
    assert_eq!((m.attempted, m.failed), (walk.len() as u64, 1));
    assert_eq!(m.gate_failed, 0);
    assert!(!m.correct(), "a failed step must fail the run");
    // every step failing leaves the gate nothing to check
    for step in &mut walk {
        step.canvas = "no_such_canvas".into();
    }
    let m = closed_loop(&walk, plan.gate_samples, &served, false);
    assert_eq!(m.gate_checked, 0);
    assert!(m.gate_planned > 0);
    assert!(!m.correct());
}

#[test]
fn live_edit_applies_and_reverts_every_batch() {
    let m = run(Workload::LiveEdit, &live_plan(), 11, true);
    assert_eq!(m.mutations.len(), 12);
    assert!(m.rows_rewritten > 0);
    assert!(m.readout.cow_table_copies > 0);
    assert_eq!(m.completed, 120);
    assert_eq!(m.response.len(), 120);
    // latency from due time includes the response time
    assert!(m.interactions.percentile(50.0) >= m.response.percentile(50.0));
}
