//! Spans recorded from outside the program: around the calls the
//! benchmark makes into each layer's public functions. Kept in memory
//! while the run lasts and written out at the end; with tracing off a
//! lap costs one branch.
//!
//! A timed slice is the root span; its children are *phases* — generate,
//! send, run the simulator, receive, … . Several workloads go round those
//! phases hundreds of times per slice (one burst, one driver poll quantum
//! at a time), so a phase is recorded as one child span per slice holding
//! the phase's **total** time in that slice, laid end to end from the
//! slice's start in order of first occurrence. Durations are exact;
//! positions inside the slice are schematic.

use crate::json::Value;
use std::collections::BTreeMap;
use std::time::Instant;

#[derive(Debug, Clone)]
pub struct Span {
    pub id: u32,
    /// 0 for a root span.
    pub parent: u32,
    pub slice: u32,
    pub name: &'static str,
    pub t_start_ns: u64,
    pub t_end_ns: u64,
}

/// Name of the root span of every timed slice.
pub const SLICE: &str = "bench.slice";

pub struct Tracer {
    on: bool,
    epoch: Instant,
    spans: Vec<Span>,
    slice: u32,
    slice_start_ns: u64,
    lap_start_ns: u64,
    phases: Vec<(&'static str, u64)>,
}

impl Tracer {
    pub fn new(on: bool) -> Tracer {
        Tracer {
            on,
            epoch: Instant::now(),
            spans: Vec::new(),
            slice: 0,
            slice_start_ns: 0,
            lap_start_ns: 0,
            phases: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Open the root span of slice number `slice`.
    pub fn begin_slice(&mut self, slice: u32) {
        if !self.on {
            return;
        }
        self.slice = slice;
        self.slice_start_ns = self.now_ns();
        self.lap_start_ns = self.slice_start_ns;
        self.phases.clear();
    }

    /// Attribute the time since the previous lap (or the slice's start) to
    /// phase `name`.
    pub fn lap(&mut self, name: &'static str) {
        if !self.on {
            return;
        }
        let now = self.now_ns();
        let took = now - self.lap_start_ns;
        self.lap_start_ns = now;
        match self.phases.iter_mut().find(|(n, _)| *n == name) {
            Some((_, total)) => *total += took,
            None => self.phases.push((name, took)),
        }
    }

    /// Close the slice: emit its root span and one child per phase.
    pub fn end_slice(&mut self) {
        if !self.on {
            return;
        }
        let end = self.now_ns();
        let root = self.push(0, SLICE, self.slice_start_ns, end);
        let mut cursor = self.slice_start_ns;
        for (name, total) in std::mem::take(&mut self.phases) {
            self.push(root, name, cursor, cursor + total);
            cursor += total;
        }
    }

    /// Time `f` as a root span of its own (work outside any slice, such as
    /// a telemetry registry read).
    pub fn timed<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        if !self.on {
            return f();
        }
        let start = self.now_ns();
        let out = f();
        let end = self.now_ns();
        self.push(0, name, start, end);
        out
    }

    fn push(&mut self, parent: u32, name: &'static str, t_start_ns: u64, t_end_ns: u64) -> u32 {
        let id = self.spans.len() as u32 + 1;
        self.spans.push(Span {
            id,
            parent,
            slice: self.slice,
            name,
            t_start_ns,
            t_end_ns,
        });
        id
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Self time per span name: a span's duration minus the part its children
/// cover, summed over every span of that name, in nanoseconds. By
/// construction the self times of a slice's tree add up to the slice.
pub fn self_times(spans: &[Span]) -> BTreeMap<&'static str, u64> {
    let mut child_time = vec![0u64; spans.len() + 1];
    for s in spans {
        child_time[s.parent as usize] += s.t_end_ns - s.t_start_ns;
    }
    let mut out = BTreeMap::new();
    for s in spans {
        let own = (s.t_end_ns - s.t_start_ns).saturating_sub(child_time[s.id as usize]);
        *out.entry(s.name).or_insert(0) += own;
    }
    out
}

pub fn spans_to_json(spans: &[Span]) -> Value {
    Value::Arr(
        spans
            .iter()
            .map(|s| {
                Value::obj([
                    ("id", Value::from(u64::from(s.id))),
                    ("parent", Value::from(u64::from(s.parent))),
                    ("slice", Value::from(u64::from(s.slice))),
                    ("name", Value::from(s.name)),
                    ("t_start_ns", Value::from(s.t_start_ns)),
                    ("t_end_ns", Value::from(s.t_end_ns)),
                ])
            })
            .collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spin() {
        std::hint::black_box((0..5000u64).map(std::hint::black_box).sum::<u64>());
    }

    #[test]
    fn phases_partition_the_slice() {
        let mut tr = Tracer::new(true);
        for slice in 0..3 {
            tr.begin_slice(slice);
            for _ in 0..4 {
                spin();
                tr.lap("a");
                spin();
                tr.lap("b");
            }
            tr.end_slice();
        }
        tr.timed("outside", spin);
        let spans = tr.spans();
        assert_eq!(
            spans.len(),
            3 * 3 + 1,
            "root + two phases per slice, one loose span"
        );
        assert_eq!(spans[1].parent, spans[0].id);
        assert_eq!(
            spans[2].t_start_ns, spans[1].t_end_ns,
            "phases lie end to end"
        );
        assert!(spans[2].t_end_ns <= spans[0].t_end_ns);
        let slice_total: u64 = spans
            .iter()
            .filter(|s| s.name == SLICE)
            .map(|s| s.t_end_ns - s.t_start_ns)
            .sum();
        let selfs = self_times(spans);
        assert_eq!(selfs[SLICE] + selfs["a"] + selfs["b"], slice_total);
        assert!(selfs[SLICE] * 50 < slice_total, "laps cover the slice");
        assert_eq!(spans.iter().filter(|s| s.name == "a").count(), 3);
    }

    #[test]
    fn a_disabled_tracer_records_nothing() {
        let mut tr = Tracer::new(false);
        tr.begin_slice(0);
        tr.lap("a");
        tr.end_slice();
        assert_eq!(tr.timed("x", || 7), 7);
        assert!(tr.spans().is_empty());
    }
}
