//! The three workloads: fixed work derived from the seed and the run
//! length, driven through the public client, server and LoD entry points.

use crate::gate::{self, HeldView};
use crate::setup::{Scale, Served, VIEWPORT};
use crate::stats::Samples;
use crate::trace::{self, Capture, TraceSummary};
use crate::walk::{explore_walk, lap_len, roam_tour, Step};
use kyrix_client::Session;
use kyrix_lod::RawPoint;
use kyrix_server::{CacheStats, DirtyRegion, FetchMetrics, KyrixServer, ServerError};
use kyrix_workload::GalaxyConfig;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Nominal closed-loop rates (interactions/s) the fixed work is sized
/// from, so a run lasts about `--seconds` on a 2-thread host. The work is
/// a function of the arguments only: the same seed and length always
/// replay the same steps.
const EXPLORE_RATE: f64 = 700.0;
const ROAM_RATE: f64 = 160.0;
const EXPLORE_STEPS_PER_LEVEL: usize = 20;
const ROAM_STEPS_PER_LEVEL: usize = 30;
const LIVE_STEPS_PER_LEVEL: usize = 8;

/// `live_edit`'s open-loop schedule. Sessions and batch size are those of
/// the repository's load experiment at bench scale
/// (`LoadConfig::default_bench()`: 8 sessions, 64-point batches scattered
/// over the whole canvas), so a mutation does the same repair, COW and
/// invalidation work here as there. The mutation rate is the lowest that
/// gives 200 mutations in a 20-second run; at about 25 ms a mutation it
/// keeps the mutator a quarter busy. The offered rate is about half the
/// rate where latency from due time starts to climb under mutation on a
/// 2-thread host (between 100 and 120 requests/s), so the backlog stays
/// flat and a slower read path shows as queueing.
const LIVE_RATE: f64 = 60.0;
const LIVE_SESSIONS: usize = 8;
const LIVE_MUTATION_RATE: f64 = 10.0;
const LIVE_BATCH: usize = 64;
/// Ids of inserted points start here, far above any galaxy id.
const FRESH_ID_BASE: i64 = 1 << 40;

/// How long before a scheduled instant the waiting thread stops sleeping.
const SPIN: Duration = Duration::from_millis(2);

/// Correctness-gate samples per run.
const GATE_SAMPLES: usize = 16;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Cache-resident reads: one closed-loop session zooming around a focus.
    Explore,
    /// Open-loop reads beside scheduled pyramid mutations.
    LiveEdit,
    /// A working set beyond the tile cache, served by scatter-gather.
    ShardedRoam,
}

impl Workload {
    pub const ALL: [Workload; 3] = [Workload::Explore, Workload::LiveEdit, Workload::ShardedRoam];

    pub fn name(self) -> &'static str {
        match self {
            Workload::Explore => "explore",
            Workload::LiveEdit => "live_edit",
            Workload::ShardedRoam => "sharded_roam",
        }
    }

    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }

    /// The fixed work of one run of `seconds`; the seed picks the steps.
    pub fn plan(self, seconds: f64) -> Plan {
        let laps = |rate: f64, steps: usize| {
            ((seconds * rate) / lap_len(crate::setup::LEVELS, steps) as f64).ceil() as usize
        };
        match self {
            Workload::Explore => Plan {
                scale: Scale {
                    galaxy: GalaxyConfig::e2e(),
                    grid: None,
                },
                laps: laps(EXPLORE_RATE, EXPLORE_STEPS_PER_LEVEL).max(1),
                steps_per_level: EXPLORE_STEPS_PER_LEVEL,
                gate_samples: GATE_SAMPLES,
                live: None,
            },
            Workload::LiveEdit => {
                let interactions = (seconds * LIVE_RATE).round().max(1.0) as usize;
                let per_session = interactions.div_ceil(LIVE_SESSIONS);
                let lap = lap_len(crate::setup::LEVELS, LIVE_STEPS_PER_LEVEL);
                Plan {
                    scale: Scale {
                        galaxy: GalaxyConfig::e2e(),
                        grid: None,
                    },
                    laps: per_session.div_ceil(lap),
                    steps_per_level: LIVE_STEPS_PER_LEVEL,
                    gate_samples: GATE_SAMPLES,
                    live: Some(LivePlan {
                        sessions: LIVE_SESSIONS,
                        rate: LIVE_RATE,
                        interactions,
                        mutation_rate: LIVE_MUTATION_RATE,
                        mutation_pairs: ((seconds * LIVE_MUTATION_RATE / 2.0).round() as usize)
                            .max(1),
                        batch: LIVE_BATCH,
                    }),
                }
            }
            Workload::ShardedRoam => Plan {
                scale: Scale {
                    galaxy: GalaxyConfig::million(),
                    grid: Some((2, 2)),
                },
                laps: laps(ROAM_RATE, ROAM_STEPS_PER_LEVEL).max(1),
                steps_per_level: ROAM_STEPS_PER_LEVEL,
                // each sample scans a million-row level table
                gate_samples: GATE_SAMPLES / 2,
                live: None,
            },
        }
    }
}

/// One run's fixed work.
#[derive(Debug, Clone)]
pub struct Plan {
    pub scale: Scale,
    /// Laps of the walk (per session, on `live_edit`).
    pub laps: usize,
    pub steps_per_level: usize,
    /// Interactions whose rows the correctness gate re-derives.
    pub gate_samples: usize,
    pub live: Option<LivePlan>,
}

/// `live_edit`'s schedule.
#[derive(Debug, Clone, Copy)]
pub struct LivePlan {
    pub sessions: usize,
    /// Offered interactions per second, across all sessions.
    pub rate: f64,
    pub interactions: usize,
    /// Scheduled mutations per second.
    pub mutation_rate: f64,
    /// Insert/delete pairs; each delete removes its insert's batch.
    pub mutation_pairs: usize,
    /// Points per batch.
    pub batch: usize,
}

/// Sub-seeds for the independent inputs of one run.
fn sub_seed(seed: u64, stream: u64) -> u64 {
    // splitmix64 finalizer over (seed, stream)
    let mut z = seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// What the registry and the server's own stats say after a measurement.
#[derive(Debug, Clone, Default)]
pub struct Readout {
    pub totals: FetchMetrics,
    pub tile_cache: CacheStats,
    /// `sql.rows_scanned`, less the gate's own scans.
    pub rows_scanned: u64,
    pub cow_table_copies: u64,
    pub events_dropped: u64,
    /// Per-shard query executions and their summed time, µs
    /// (`fetch.shard{i}`); empty on a single node. The scatter path runs
    /// shard queries outside the query observer, so these are its only
    /// storage-side numbers.
    pub shard_queries: Vec<(u64, u64)>,
}

fn read_registry(server: &KyrixServer, gate_rows_scanned: u64) -> Readout {
    let obs = server.obs();
    let counter = |name: &str| {
        obs.counters()
            .into_iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| v)
            .unwrap_or(0)
    };
    let shard_queries = obs
        .histograms()
        .into_iter()
        .filter(|(n, _)| n.starts_with("fetch.shard{"))
        .map(|(_, h)| (h.count(), h.sum_us))
        .collect();
    Readout {
        totals: server.totals(),
        tile_cache: server.backend_cache_stats(),
        rows_scanned: counter("sql.rows_scanned").saturating_sub(gate_rows_scanned),
        cow_table_copies: counter("snapshot.cow_table_copies"),
        events_dropped: counter("span.events_dropped"),
        shard_queries,
    }
}

/// Everything one measurement produced.
#[derive(Debug, Default)]
pub struct Measured {
    /// Interaction latency, ms, from the moment the request was due to
    /// its return. On a closed loop a request is due when it is issued; on
    /// the open loop this adds the time it waited behind earlier requests.
    pub interactions: Samples,
    /// Open loop only: response time, from issuing the call to its return.
    pub response: Samples,
    /// Mutation latency, ms, from due time to `mutate_raw` returning
    /// published.
    pub mutations: Samples,
    /// How late the generator woke for requests it slept for, ms.
    pub lag: Samples,
    /// Stopwatch inside the mutate closure (pyramid repair), ms.
    pub repair_ms: Vec<f64>,
    /// `mutate_raw` wall time, ms.
    pub mutate_ms: Vec<f64>,
    pub rows_rewritten: u64,
    pub attempted: u64,
    pub failed: u64,
    pub completed: u64,
    /// Seconds the throughput is taken over.
    pub busy_s: f64,
    pub frontend: CacheStats,
    /// Gate checks the run scheduled, made, and saw fail.
    pub gate_planned: usize,
    pub gate_checked: usize,
    pub gate_failed: usize,
    /// Passed gate checks whose rows matched only the head published
    /// during the step, not the snapshot the session pinned.
    pub gate_newer: usize,
    /// The first few gate failures and errors, for the report.
    pub gate_failures: Vec<String>,
    pub errors: Vec<String>,
    pub readout: Readout,
    pub trace: Option<TraceSummary>,
    /// `VmHWM` when the measurement ended, MiB.
    pub rss_peak_mib: f64,
}

impl Measured {
    /// Every interaction and mutation succeeded and every scheduled gate
    /// check was made and passed.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.gate_failed == 0 && self.gate_checked == self.gate_planned
    }

    fn error(&mut self, e: String) {
        self.failed += 1;
        if self.errors.len() < 5 {
            self.errors.push(e);
        }
    }

    fn gate_result(&mut self, r: Result<(), String>) {
        self.gate_checked += 1;
        if let Err(e) = r {
            self.gate_failed += 1;
            if self.gate_failures.len() < 5 {
                self.gate_failures.push(e);
            }
        }
    }
}

/// Peak resident set of this process, MiB (`VmHWM`).
pub fn rss_peak_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map(|kb| kb / 1024.0)
        .unwrap_or(0.0)
}

/// One simulated user: a session that reopens on every canvas change.
struct Client {
    server: Arc<KyrixServer>,
    session: Option<Session>,
    /// Frontend stats of the sessions already closed.
    closed: CacheStats,
}

fn add_stats(a: &mut CacheStats, b: CacheStats) {
    a.hits += b.hits;
    a.misses += b.misses;
    a.capacity_evictions += b.capacity_evictions;
    a.invalidation_removals += b.invalidation_removals;
    a.evicted_weight += b.evicted_weight;
}

impl Client {
    fn new(server: Arc<KyrixServer>) -> Self {
        Client {
            server,
            session: None,
            closed: CacheStats::default(),
        }
    }

    fn close(&mut self) {
        if let Some(s) = self.session.take() {
            add_stats(&mut self.closed, s.frontend_cache_stats());
        }
    }

    /// Close the session first if the step leaves its canvas; the timed
    /// call is then `open_on` or `pan_to` alone.
    fn prepare(&mut self, step: &Step) {
        if self
            .session
            .as_ref()
            .is_some_and(|s| s.canvas_id() != step.canvas)
        {
            self.close();
        }
    }

    fn step(&mut self, step: &Step, traced: bool) -> Result<(), String> {
        let obs = self.server.obs();
        let out = match self.session.as_mut() {
            Some(s) => {
                let _span = traced.then(|| obs.span(trace::PAN_TO));
                s.pan_to(step.cx, step.cy).map(drop)
            }
            None => {
                let _span = traced.then(|| obs.span(trace::OPEN_ON));
                Session::open_on(Arc::clone(&self.server), &step.canvas, step.cx, step.cy)
                    .map(|(s, _)| self.session = Some(s))
            }
        };
        out.map_err(|e| {
            // start over on the next step rather than reuse a broken session
            self.close();
            format!("{} at ({}, {}): {e}", step.canvas, step.cx, step.cy)
        })
    }

    fn hold(&mut self) -> Option<Result<HeldView, String>> {
        let session = self.session.as_mut()?;
        Some(gate::hold(&self.server, session))
    }

    fn frontend(&self) -> CacheStats {
        let mut s = self.closed;
        if let Some(session) = &self.session {
            add_stats(&mut s, session.frontend_cache_stats());
        }
        s
    }
}

/// Run one measurement of `plan` on a freshly launched `served`.
pub fn measure(
    workload: Workload,
    plan: &Plan,
    served: &mut Served,
    seed: u64,
    traced: bool,
) -> Measured {
    let walk_seed = sub_seed(seed, 1);
    let (laps, steps) = (plan.laps, plan.steps_per_level);
    match workload {
        Workload::LiveEdit => {
            let live = plan.live.expect("live_edit plans carry a schedule");
            open_loop(plan, &live, served, seed, traced)
        }
        Workload::ShardedRoam => {
            let walk = roam_tour(&served.lod, VIEWPORT, laps, steps, walk_seed);
            closed_loop(&walk, plan.gate_samples, served, traced)
        }
        Workload::Explore => {
            let walk = explore_walk(&served.lod, VIEWPORT, laps, steps, walk_seed);
            closed_loop(&walk, plan.gate_samples, served, traced)
        }
    }
}

fn every(total: usize, samples: usize) -> usize {
    (total / samples.max(1)).max(1)
}

/// One session replays `walk` back to back. Gate samples are captured
/// along the way and checked after the counters are read: nothing
/// mutates, so the pinned snapshot is still the published one.
pub fn closed_loop(walk: &[Step], gate_samples: usize, served: &Served, traced: bool) -> Measured {
    let server = &served.server;
    let obs = server.obs();
    let capture = traced.then(|| Capture::start(Arc::clone(&obs)));
    let mut m = Measured::default();
    let mut client = Client::new(Arc::clone(server));
    let mut latencies = Vec::with_capacity(walk.len());
    let mut held = Vec::new();
    let stride = every(walk.len(), gate_samples);
    for (i, step) in walk.iter().enumerate() {
        client.prepare(step);
        let t = Instant::now();
        let r = client.step(step, traced);
        let ms = t.elapsed().as_secs_f64() * 1000.0;
        m.attempted += 1;
        match r {
            Ok(()) => {
                latencies.push(ms);
                m.busy_s += ms / 1000.0;
            }
            Err(e) => m.error(e),
        }
        if let Some(c) = &capture {
            c.drain();
        }
        if i % stride == stride / 2 {
            m.gate_planned += 1;
            if let Some(h) = client.hold() {
                held.push(h);
            }
        }
    }
    let events = capture.map(Capture::finish);
    m.rss_peak_mib = rss_peak_mib();
    m.completed = latencies.len() as u64;
    m.interactions = Samples::new(latencies);
    m.frontend = client.frontend();
    m.readout = read_registry(server, 0);
    m.trace = events.map(trace::summarize);
    for h in held {
        let r = h.and_then(|h| gate::check(server, &h).map(drop));
        m.gate_result(r);
    }
    m
}

/// Wait for `t`: sleep to within [`SPIN`] of it, then spin. An idle
/// virtual CPU can take milliseconds to wake, which would show up as
/// generator lag rather than program latency. Returns how late the wait
/// ended, or `None` if `t` had already passed.
fn sleep_until(t: Instant) -> Option<Duration> {
    let now = Instant::now();
    if now >= t {
        return None;
    }
    if t - now > SPIN {
        std::thread::sleep(t - now - SPIN);
    }
    while Instant::now() < t {
        std::hint::spin_loop();
    }
    Some(Instant::now().saturating_duration_since(t))
}

/// One scheduled insert batch and the delete that removes it.
struct Batch {
    points: Vec<RawPoint>,
    ids: Vec<i64>,
    xy: Vec<(f64, f64)>,
}

fn batches(g: &GalaxyConfig, live: &LivePlan, seed: u64) -> Vec<Batch> {
    let mut rng = SmallRng::seed_from_u64(seed);
    (0..live.mutation_pairs)
        .map(|b| {
            let points: Vec<RawPoint> = (0..live.batch)
                .map(|i| {
                    // scattered over the whole raw canvas, as in the load
                    // experiment
                    let x = rng.gen_range(1.0..g.width - 1.0);
                    let y = rng.gen_range(1.0..g.height - 1.0);
                    // integer-valued measures keep pyramid sums exact
                    let mass = rng.gen_range(0..50) as f64;
                    let lum = rng.gen_range(0..9) as f64;
                    RawPoint::new(
                        FRESH_ID_BASE + (b * live.batch + i) as i64,
                        x,
                        y,
                        &[mass, lum],
                    )
                })
                .collect();
            Batch {
                ids: points.iter().map(|p| p.id).collect(),
                xy: points.iter().map(|p| (p.x, p.y)).collect(),
                points,
            }
        })
        .collect()
}

/// What the mutator thread measured.
#[derive(Default)]
struct MutatorOut {
    latencies: Vec<f64>,
    repair_ms: Vec<f64>,
    mutate_ms: Vec<f64>,
    rows_rewritten: u64,
    attempted: u64,
    errors: Vec<String>,
    gate: Vec<Result<(), String>>,
}

/// `live_edit`: one generator thread issues every session's requests on a
/// fixed schedule, one mutator thread applies insert/delete batches on
/// another. Correctness samples pause the generator's clock, so they add
/// no latency.
fn open_loop(
    plan: &Plan,
    live: &LivePlan,
    served: &mut Served,
    seed: u64,
    traced: bool,
) -> Measured {
    let server = Arc::clone(&served.server);
    let obs = server.obs();
    let lod = served.lod.clone();
    let walks: Vec<Vec<Step>> = (0..live.sessions)
        .map(|s| {
            explore_walk(
                &lod,
                VIEWPORT,
                plan.laps,
                plan.steps_per_level,
                sub_seed(seed, 10 + s as u64),
            )
        })
        .collect();
    let batches = batches(&plan.scale.galaxy, live, sub_seed(seed, 2));
    let tables: Vec<String> = (0..=lod.levels).map(|k| lod.level_table(k)).collect();
    let raw_table = lod.table.clone();
    let capture = traced.then(|| Capture::start(Arc::clone(&obs)));
    let pyramid = &mut served.pyramid;
    let mut m = Measured::default();
    let mut clients: Vec<Client> = (0..live.sessions)
        .map(|_| Client::new(Arc::clone(&server)))
        .collect();
    let mut latencies = Vec::with_capacity(live.interactions);
    let mut response = Vec::with_capacity(live.interactions);
    let mut lag = Vec::new();
    let mut gate_rows = 0u64;
    let stride = every(live.interactions, plan.gate_samples);
    let period = 1.0 / live.rate;
    let mutation_period = 1.0 / live.mutation_rate;
    let t0 = Instant::now() + Duration::from_millis(5);
    // schedule time up to the last completion, pauses excluded
    let mut busy = Duration::ZERO;

    let mutator_out = std::thread::scope(|scope| {
        let mutator = scope.spawn(|| {
            let mut out = MutatorOut::default();
            let refs: Vec<&str> = tables.iter().map(String::as_str).collect();
            for j in 0..2 * batches.len() {
                let batch = &batches[j / 2];
                let insert = j % 2 == 0;
                let due = t0 + Duration::from_secs_f64((j as f64 + 0.5) * mutation_period);
                sleep_until(due);
                // this thread's spans must not straddle a drain
                let _recording = capture.as_ref().map(Capture::recording);
                let start = Instant::now();
                out.attempted += 1;
                let mut repair = Duration::ZERO;
                let r = {
                    let _span = traced.then(|| obs.span(trace::MUTATE));
                    server.mutate_raw(&refs, |db| {
                        let t = Instant::now();
                        let report = {
                            let _span = traced.then(|| {
                                obs.span(if insert { trace::INSERT } else { trace::DELETE })
                            });
                            if insert {
                                pyramid.insert_points(db, &batch.points)
                            } else {
                                pyramid.delete_points(db, &batch.ids)
                            }
                        }
                        .map_err(|e| ServerError::Config(e.to_string()))?;
                        repair = t.elapsed();
                        let dirty = report
                            .dirty_regions()
                            .map(|(t, r)| DirtyRegion::new(t, r))
                            .collect();
                        Ok((report.rows_changed() as u64, dirty))
                    })
                };
                let done = Instant::now();
                match r {
                    Ok(rows) => {
                        out.latencies.push((done - due).as_secs_f64() * 1000.0);
                        out.mutate_ms.push((done - start).as_secs_f64() * 1000.0);
                        out.repair_ms.push(repair.as_secs_f64() * 1000.0);
                        out.rows_rewritten += rows;
                        let _span = traced.then(|| obs.span(trace::GATE));
                        let snap = server.snapshot();
                        out.gate
                            .push(gate::check_batch(&*snap, &raw_table, &batch.xy, insert));
                    }
                    Err(e) => out.errors.push(format!("mutation {j}: {e}")),
                }
            }
            out
        });

        let mut offset = Duration::ZERO;
        for i in 0..live.interactions {
            let client = &mut clients[i % live.sessions];
            let walk = &walks[i % live.sessions];
            let step = &walk[(i / live.sessions) % walk.len()];
            // closing the previous canvas's session is that client's own
            // bookkeeping, not a delay the other sessions should queue behind
            let closing = Instant::now();
            client.prepare(step);
            offset += closing.elapsed();
            let due = t0 + Duration::from_secs_f64(i as f64 * period) + offset;
            let sampled = i % stride == stride / 2;
            let before = sampled.then(|| server.snapshot().versions().to_vec());
            if let Some(late) = sleep_until(due) {
                lag.push(late.as_secs_f64() * 1000.0);
            }
            let began = Instant::now();
            let r = client.step(step, traced);
            let done = Instant::now();
            m.attempted += 1;
            match r {
                Ok(()) => {
                    latencies.push((done - due).as_secs_f64() * 1000.0);
                    response.push((done - began).as_secs_f64() * 1000.0);
                    busy = (done - t0).saturating_sub(offset);
                }
                Err(e) => m.error(e),
            }
            // draining the trace and sampling the gate pause the schedule
            let paused = Instant::now();
            if let Some(c) = &capture {
                c.drain();
            }
            if let Some(before) = before {
                m.gate_planned += 1;
                if let Some(h) = client.hold() {
                    let _span = traced.then(|| obs.span(trace::GATE));
                    let head = server.snapshot();
                    let newer = (head.versions() != before).then_some(head);
                    let r = h.and_then(|h| gate::check_racing(&server, h, newer)).map(
                        |(scanned, newer)| {
                            gate_rows += scanned;
                            m.gate_newer += usize::from(newer);
                        },
                    );
                    m.gate_result(r);
                }
            }
            offset += paused.elapsed();
        }
        mutator.join().expect("mutator thread panicked")
    });

    let events = capture.map(Capture::finish);
    m.rss_peak_mib = rss_peak_mib();
    m.completed = latencies.len() as u64;
    m.busy_s = busy.as_secs_f64();
    m.interactions = Samples::new(latencies);
    m.response = Samples::new(response);
    m.lag = Samples::new(lag);
    m.mutations = Samples::new(mutator_out.latencies);
    m.repair_ms = mutator_out.repair_ms;
    m.mutate_ms = mutator_out.mutate_ms;
    m.rows_rewritten = mutator_out.rows_rewritten;
    m.attempted += mutator_out.attempted;
    // one batch check per mutation, and the final size check below
    m.gate_planned += mutator_out.attempted as usize + 1;
    for e in mutator_out.errors {
        m.error(e);
    }
    for r in mutator_out.gate {
        m.gate_result(r);
    }
    m.frontend = clients.iter().fold(CacheStats::default(), |mut acc, c| {
        add_stats(&mut acc, c.frontend());
        acc
    });
    m.readout = read_registry(&server, gate_rows);
    m.trace = events.map(trace::summarize);
    // every delete removed its insert: the raw table is back to its size
    let back = server
        .snapshot()
        .table_len(&raw_table)
        .map_err(|e| e.to_string())
        .and_then(|n| {
            if n == plan.scale.galaxy.n {
                Ok(())
            } else {
                Err(format!(
                    "raw table holds {n} rows after the run, expected {}",
                    plan.scale.galaxy.n
                ))
            }
        });
    m.gate_result(back);
    m
}
