//! `perfbench --workload <explore|live_edit|sharded_roam> --seed <n>
//! --seconds <s> --trace <0|1> [--commit <id>] [--held-out]`
//!
//! Prints a human-readable report, then one JSON result line last:
//! `{"correct": .., "attempted": .., "failed": .., "metrics": {..}}` with
//! the end-to-end metrics (`--trace 0`) or the per-layer ones (`--trace 1`).

use perfbench::workloads::Workload;
use perfbench::{ledger, sample_warnings, Metric, HELD_OUT_SEED};
use std::process::ExitCode;

/// The end-to-end metrics the result line carries: never zero on any
/// workload, and steady enough between runs on a shared 2-vCPU host to
/// carry a bound. The tails are reported beside them (see README.md).
const GATED: [&str; 4] = [
    "setup_s",
    "interaction_p50_ms",
    "interactions_per_s",
    "rss_peak_mib",
];

struct Args {
    workload: Workload,
    seed: u64,
    held_out: bool,
    seconds: f64,
    trace: bool,
    commit: String,
}

fn parse() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut held_out = false;
    let mut seconds = 20.0;
    let mut trace = false;
    let mut commit = "unknown".to_string();
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--held-out" {
            held_out = true;
            continue;
        }
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(&value).ok_or(format!(
                    "unknown workload `{value}` (explore, live_edit, sharded_roam)"
                ))?)
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed `{value}`"))?),
            "--seconds" => {
                seconds = value
                    .parse::<f64>()
                    .ok()
                    .filter(|s| *s > 0.0 && *s <= 600.0)
                    .ok_or(format!("bad --seconds `{value}`"))?
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got `{value}`")),
                }
            }
            "--commit" => commit = value,
            _ => return Err(format!("unknown flag `{flag}`")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    let seed = match (seed, held_out) {
        (_, true) => HELD_OUT_SEED,
        (Some(s), false) => s,
        (None, false) => return Err("--seed or --held-out is required".into()),
    };
    Ok(Args {
        workload,
        seed,
        held_out,
        seconds,
        trace,
        commit,
    })
}

fn json_metrics(metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    format!("{{{}}}", body.join(", "))
}

fn main() -> ExitCode {
    let args = match parse() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let plan = args.workload.plan(args.seconds);
    let offered = plan
        .live
        .map_or("null".to_string(), |l| format!("{}", l.rate));
    println!(
        "host {{\"nproc\": {}, \"commit\": \"{}\", \"profile\": \"{}\", \"workload\": \"{}\", \
         \"seed\": {}, \"held_out\": {}, \"seconds\": {}, \"trace\": {}, \"offered_rate_per_s\": {}}}",
        std::thread::available_parallelism().map_or(0, |n| n.get()),
        args.commit.replace(['"', '\\'], ""),
        if cfg!(debug_assertions) { "debug" } else { "release" },
        args.workload.name(),
        args.seed,
        args.held_out,
        args.seconds,
        u8::from(args.trace),
        offered,
    );
    println!(
        "plan: galaxy n={} seed={} grid={:?}, {} lap(s) x {} steps/level{}",
        plan.scale.galaxy.n,
        plan.scale.galaxy.seed,
        plan.scale.grid,
        plan.laps,
        plan.steps_per_level,
        plan.live.map_or(String::new(), |l| format!(
            ", {} sessions at {}/s for {} interactions, {} mutations at {}/s in batches of {}",
            l.sessions,
            l.rate,
            l.interactions,
            2 * l.mutation_pairs,
            l.mutation_rate,
            l.batch
        )),
    );
    let outcome = match perfbench::run(args.workload, plan, args.seed, args.trace) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: set-up failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    for (i, s) in outcome.setups.iter().enumerate() {
        println!(
            "setup {i}: total {:.3} s = generate {:.3} + build {:.3} + compile {:.4} + launch {:.4}",
            s.total_s(),
            s.generate_s,
            s.build_s,
            s.compile_s,
            s.launch_s
        );
    }
    let passes = std::iter::once(("untraced", &outcome.untraced))
        .chain(outcome.traced.as_ref().map(|t| ("traced", t)));
    for (label, m) in passes {
        println!("[{label}] interactions: {}", m.interactions.describe());
        if !m.response.is_empty() {
            println!("[{label}] response time: {}", m.response.describe());
        }
        if !m.mutations.is_empty() {
            println!("[{label}] mutations: {}", m.mutations.describe());
            println!("[{label}] generator lag: {}", m.lag.describe());
        }
        println!(
            "[{label}] gate: {} of {} check(s) made, {} failure(s), {} served newer than the pin",
            m.gate_checked, m.gate_planned, m.gate_failed, m.gate_newer
        );
        for f in &m.gate_failures {
            println!("[{label}] gate failure: {f}");
        }
        for e in &m.errors {
            println!("[{label}] error: {e}");
        }
        let l: Vec<String> = ledger(m)
            .iter()
            .map(|(k, v)| format!("\"{k}\": {v}"))
            .collect();
        println!("[{label}] ledger {{{}}}", l.join(", "));
    }
    for w in sample_warnings(&outcome) {
        println!("warning: {w}");
    }
    let e2e = outcome.end_to_end();
    println!("end-to-end (* = bounded in BENCHMARK.json):");
    for m in &e2e {
        let note = if GATED.contains(&m.name) {
            "  *"
        } else if m.name.starts_with("mutation_") && outcome.plan.live.is_none() {
            "  (no mutations on this workload)"
        } else {
            ""
        };
        println!("  {:<22} {:>14.4} {}{note}", m.name, m.value, m.unit);
    }
    let reported = if args.trace {
        let layers = outcome.per_layer();
        println!("per-layer (traced pass):");
        for m in &layers {
            println!("  {:<38} {:>16.4} {}", m.name, m.value, m.unit);
        }
        layers
    } else {
        e2e.into_iter()
            .filter(|m| GATED.contains(&m.name))
            .collect()
    };
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        outcome.correct(),
        outcome.attempted(),
        outcome.failed(),
        json_metrics(&reported)
    );
    if outcome.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
