//! The traced run's span capture and the span-tree arithmetic on it.
//!
//! The program records a span into the registry's capture ring whenever a
//! capture is active; the ring holds 8192 events and counts overflow in
//! `span.events_dropped`. The harness drains it after every interaction,
//! so it never fills. Nesting comes from the captured tree itself: on one
//! thread, an event at depth `d + 1` that starts inside an event at depth
//! `d` is its child.

use kyrix_obs::{Registry, SpanEvent};
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex, MutexGuard};

/// Harness spans, recorded around each public call the harness makes.
pub const OPEN_ON: &str = "bench.session.open_on";
pub const PAN_TO: &str = "bench.session.pan_to";
pub const MUTATE: &str = "bench.server.mutate_raw";
pub const INSERT: &str = "bench.lod.insert_points";
pub const DELETE: &str = "bench.lod.delete_points";
/// Wraps the correctness gate's own queries, which the per-layer numbers
/// leave out.
pub const GATE: &str = "bench.gate";

/// A traced measurement's capture: the registry's ring, drained into one
/// growing list.
///
/// A drain ends the registry's capture and starts a new one, which clears
/// the ring; a span another thread finishes in between would be lost
/// without being counted. So only one thread drains, and every other
/// thread holds [`Capture::recording`] while it records spans. A drain
/// that finds it held is skipped; the next one takes those events.
pub struct Capture {
    reg: Arc<Registry>,
    events: Mutex<Vec<SpanEvent>>,
    recording: Mutex<()>,
}

impl Capture {
    pub fn start(reg: Arc<Registry>) -> Self {
        reg.start_capture();
        Capture {
            reg,
            events: Mutex::default(),
            recording: Mutex::default(),
        }
    }

    /// Held by a thread other than the draining one while it records spans.
    pub fn recording(&self) -> MutexGuard<'_, ()> {
        self.recording.lock().expect("recording lock")
    }

    /// Take what the ring holds and restart it, unless another thread is
    /// recording.
    pub fn drain(&self) {
        if let Ok(_quiet) = self.recording.try_lock() {
            let mut got = self.reg.end_capture();
            self.reg.start_capture();
            self.events.lock().expect("capture lock").append(&mut got);
        }
    }

    /// End the capture; every event recorded since it started.
    pub fn finish(self) -> Vec<SpanEvent> {
        let mut events = self.events.into_inner().expect("capture lock");
        events.append(&mut self.reg.end_capture());
        events
    }
}

/// Aggregate of every captured occurrence of one span name.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SpanAgg {
    pub count: u64,
    /// Summed duration, µs.
    pub total_us: u64,
    /// Summed duration not covered by child spans, µs.
    pub self_us: u64,
}

impl SpanAgg {
    pub fn mean_ms(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.total_us as f64 / self.count as f64 / 1000.0
        }
    }

    pub fn mean_self_ms(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.self_us as f64 / self.count as f64 / 1000.0
        }
    }
}

/// The span tree of a capture, summarized.
#[derive(Debug, Default)]
pub struct TraceSummary {
    pub spans: BTreeMap<&'static str, SpanAgg>,
    /// Per harness interaction span: its duration and the part of it spent
    /// inside `fetch.region`, µs.
    pub interactions: Vec<(u64, u64)>,
}

impl TraceSummary {
    pub fn get(&self, name: &str) -> SpanAgg {
        self.spans.get(name).copied().unwrap_or_default()
    }
}

fn end(e: &SpanEvent) -> u64 {
    e.start_us + e.dur_us
}

/// Build each thread's span forest and total every span's time and self
/// time. Everything under a [`GATE`] span is left out.
pub fn summarize(mut events: Vec<SpanEvent>) -> TraceSummary {
    events.sort_by_key(|e| (e.thread, e.start_us, e.depth));
    let mut out = TraceSummary::default();
    let n = events.len();
    // children's summed duration, and the fetch.region time below each
    // harness interaction span
    let mut child_us = vec![0u64; n];
    let mut fetch_us = vec![0u64; n];
    let mut parent: Vec<Option<usize>> = vec![None; n];
    let mut stack: Vec<usize> = Vec::new();
    for i in 0..n {
        let e = &events[i];
        if i > 0 && events[i - 1].thread != e.thread {
            stack.clear();
        }
        while let Some(&top) = stack.last() {
            let t = &events[top];
            // µs rounding can let a child overrun its parent by a tick
            if t.depth < e.depth && e.start_us <= end(t) {
                break;
            }
            stack.pop();
        }
        if let Some(&top) = stack.last() {
            if events[top].depth + 1 == e.depth {
                parent[i] = Some(top);
                child_us[top] += e.dur_us;
            }
        }
        stack.push(i);
    }
    let gated = |mut i: usize| loop {
        if events[i].name == GATE {
            return true;
        }
        match parent[i] {
            Some(p) => i = p,
            None => return false,
        }
    };
    for i in 0..n {
        if events[i].name != "fetch.region" {
            continue;
        }
        let mut a = parent[i];
        while let Some(p) = a {
            if events[p].name == OPEN_ON || events[p].name == PAN_TO {
                fetch_us[p] += events[i].dur_us;
                break;
            }
            a = parent[p];
        }
    }
    for (i, e) in events.iter().enumerate() {
        if gated(i) {
            continue;
        }
        let agg = out.spans.entry(e.name).or_default();
        agg.count += 1;
        agg.total_us += e.dur_us;
        agg.self_us += e.dur_us.saturating_sub(child_us[i]);
        if e.name == OPEN_ON || e.name == PAN_TO {
            out.interactions.push((e.dur_us, fetch_us[i]));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(name: &'static str, depth: u16, start_us: u64, dur_us: u64) -> SpanEvent {
        SpanEvent {
            name,
            depth,
            thread: 1,
            start_us,
            dur_us,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let events = vec![
            ev(PAN_TO, 0, 0, 100),
            ev("session.interaction", 1, 1, 98),
            ev("fetch.region", 2, 2, 60),
            ev("sql.execute", 3, 10, 30),
            ev("merge", 3, 45, 10),
            ev("fetch.region", 2, 70, 20),
            ev(GATE, 0, 200, 50),
            ev("sql.execute", 1, 210, 40),
        ];
        let s = summarize(events);
        let fr = s.get("fetch.region");
        assert_eq!((fr.count, fr.total_us, fr.self_us), (2, 80, 40));
        assert_eq!(s.get("session.interaction").self_us, 18);
        assert_eq!(
            s.get("sql.execute").count,
            1,
            "the gate's query is left out"
        );
        assert_eq!(s.interactions, vec![(100, 80)]);
    }
}
