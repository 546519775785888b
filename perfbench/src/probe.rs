//! Per-layer spans recorded from the benchmark's own files.
//!
//! A [`Probe`] wraps each call the benchmark makes into one of the
//! program's crates in a wall-clock span on a public
//! [`fpgaccel_trace::Tracer`]. Spans nest: a span opened inside another
//! records it as its parent, and a layer's *self time* is its spans'
//! durations minus the parts their child spans cover. With tracing off
//! every call is a plain call.

use fpgaccel_trace::{chrome_trace_json, Tracer};
use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::time::Instant;

/// Track group of the benchmark's spans in the exported trace.
const PID: u32 = 1;

/// Span recorder over the host clock.
pub struct Probe {
    tracer: Tracer,
    epoch: Instant,
    open: RefCell<Vec<u64>>,
    next_id: Cell<u64>,
}

impl Probe {
    /// A probe recording into `tracer`, timestamps relative to `epoch`.
    pub fn new(tracer: Tracer, epoch: Instant) -> Probe {
        Probe {
            tracer,
            epoch,
            open: RefCell::new(Vec::new()),
            next_id: Cell::new(1),
        }
    }

    /// A probe that records nothing.
    pub fn off() -> Probe {
        Probe::new(Tracer::disabled(), Instant::now())
    }

    /// Whether spans are recorded.
    pub fn is_on(&self) -> bool {
        self.tracer.is_enabled()
    }

    /// Runs `f` inside a span named after the layer metric it feeds. The
    /// span is recorded even when `f` panics.
    pub fn call<R>(&self, layer: &'static str, f: impl FnOnce() -> R) -> R {
        if !self.is_on() {
            return f();
        }
        let id = self.next_id.get();
        self.next_id.set(id + 1);
        let mut open = self.open.borrow_mut();
        let span = OpenSpan {
            probe: self,
            layer,
            id,
            parent: open.last().copied().unwrap_or(0),
            depth: open.len() as u32,
            start: self.epoch.elapsed().as_secs_f64(),
        };
        open.push(id);
        drop(open);
        let out = f();
        drop(span);
        out
    }

    /// Spans recorded so far.
    pub fn span_count(&self) -> usize {
        self.tracer.span_count()
    }

    /// Self time in seconds per layer over the spans recorded after the
    /// first `from` spans.
    pub fn self_times(&self, from: usize) -> BTreeMap<String, f64> {
        let events = self.tracer.events();
        let events = &events[from.min(events.len())..];
        let arg = |e: &fpgaccel_trace::TraceEvent, key: &str| -> u64 {
            e.args
                .iter()
                .find(|(k, _)| k == key)
                .and_then(|(_, v)| v.parse().ok())
                .unwrap_or(0)
        };
        let mut child_us: BTreeMap<u64, f64> = BTreeMap::new();
        for e in events {
            *child_us.entry(arg(e, "parent")).or_default() += e.dur_us;
        }
        let mut out: BTreeMap<String, f64> = BTreeMap::new();
        for e in events {
            let covered = child_us.get(&arg(e, "id")).copied().unwrap_or(0.0);
            *out.entry(e.name.clone()).or_default() += (e.dur_us - covered).max(0.0) * 1e-6;
        }
        out
    }

    /// The recorded spans as Chrome trace-event JSON.
    pub fn chrome_json(&self) -> String {
        chrome_trace_json(&self.tracer)
    }
}

/// A span closed and recorded when dropped, on return or unwind.
struct OpenSpan<'a> {
    probe: &'a Probe,
    layer: &'static str,
    id: u64,
    parent: u64,
    depth: u32,
    start: f64,
}

impl Drop for OpenSpan<'_> {
    fn drop(&mut self) {
        let end = self.probe.epoch.elapsed().as_secs_f64();
        self.probe.open.borrow_mut().pop();
        self.probe.tracer.span_args(
            PID,
            self.depth,
            "layer",
            self.layer,
            self.start,
            end,
            &[
                ("id", self.id.to_string()),
                ("parent", self.parent.to_string()),
            ],
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spin(ms: u64) {
        let t = Instant::now();
        while t.elapsed().as_millis() < ms as u128 {
            std::hint::spin_loop();
        }
    }

    #[test]
    fn disabled_probe_only_calls() {
        let p = Probe::off();
        assert_eq!(p.call("x", || 7), 7);
        assert_eq!(p.span_count(), 0);
        assert!(p.self_times(0).is_empty());
    }

    #[test]
    fn self_time_subtracts_child_spans() {
        let p = Probe::new(Tracer::enabled(), Instant::now());
        p.call("outer", || {
            spin(20);
            p.call("inner", || spin(30));
        });
        let t = p.self_times(0);
        assert!(t["inner"] >= 0.030, "{t:?}");
        assert!(t["outer"] >= 0.020 && t["outer"] < 0.030, "{t:?}");
        // Only spans after the cut count.
        let cut = p.span_count();
        p.call("later", || spin(1));
        let t = p.self_times(cut);
        assert_eq!(t.keys().collect::<Vec<_>>(), vec!["later"]);
    }

    #[test]
    fn a_panicking_call_still_closes_its_span() {
        let p = Probe::new(Tracer::enabled(), Instant::now());
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            p.call("boom", || -> () { panic!("expected") })
        }));
        assert!(r.is_err());
        p.call("after", || ());
        let events = p.tracer.events();
        assert_eq!(events.len(), 2);
        // `after` is a root span again, not a child of the panicked one.
        let after = events.iter().find(|e| e.name == "after").unwrap();
        assert!(after
            .args
            .contains(&("parent".to_string(), "0".to_string())));
        assert_eq!(after.tid, 0);
    }
}
