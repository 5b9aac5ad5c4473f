//! The benchmark's own tracing: spans recorded in memory around calls
//! into each layer's public functions, written out once at exit.
//!
//! A span is `{id, parent, name, start_ns, end_ns}`; the layer is the
//! part of the name before the first `.`. One root span (`repeat`) per
//! traced timed section. Everything runs on the calling thread, so a
//! span's children are disjoint and its self time is its duration minus
//! theirs — which makes "layer self times + root self time == traced
//! wall time" an identity, checked in [`Breakdown::residual_ns`].

use std::collections::BTreeMap;
use std::io::{self, Write};
use std::time::Instant;

/// The name of every root span.
pub const ROOT: &str = "repeat";

#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub id: u32,
    pub parent: Option<u32>,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }

    /// The layer a span is charged to: its name up to the first `.`.
    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }
}

/// In-memory span recorder. Disabled recorders run the closure and
/// record nothing, so one code path serves traced and untraced repeats
/// where the benchmark owns the loop.
#[derive(Debug)]
pub struct Recorder {
    epoch: Instant,
    enabled: bool,
    spans: Vec<Span>,
    open: Vec<u32>,
}

impl Recorder {
    pub fn new(enabled: bool) -> Self {
        Recorder {
            epoch: Instant::now(),
            enabled,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    pub fn set_enabled(&mut self, enabled: bool) {
        assert!(self.open.is_empty(), "cannot toggle tracing inside a span");
        self.enabled = enabled;
    }

    /// Runs `f` inside a span named `name`, child of the innermost open
    /// span.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Recorder) -> R) -> R {
        if !self.enabled {
            return f(self);
        }
        let id = self.spans.len() as u32;
        self.spans.push(Span {
            id,
            parent: self.open.last().copied(),
            name,
            start_ns: 0,
            end_ns: 0,
        });
        self.open.push(id);
        self.spans[id as usize].start_ns = self.epoch.elapsed().as_nanos() as u64;
        let out = f(self);
        self.spans[id as usize].end_ns = self.epoch.elapsed().as_nanos() as u64;
        self.open.pop();
        out
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// One JSON object per span, in start order.
    pub fn write_jsonl<W: Write>(&self, mut w: W) -> io::Result<()> {
        for s in &self.spans {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                w,
                "{{\"id\":{},\"parent\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                s.id, parent, s.name, s.start_ns, s.end_ns
            )?;
        }
        Ok(())
    }
}

/// Each span's self time: duration minus the durations of its direct
/// children. Indexed like `spans`.
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(Span::duration_ns).collect();
    for s in spans {
        if let Some(p) = s.parent {
            own[p as usize] = own[p as usize]
                .checked_sub(s.duration_ns())
                .expect("a child span outlasted its parent");
        }
    }
    own
}

/// Where traced wall time went: per-layer self time, root self time,
/// and per-name totals (durations, not self times — what the per-layer
/// `*_s` / `*_ms` metrics report), all summed over every root.
#[derive(Debug, Default, Clone)]
pub struct Breakdown {
    pub roots: u32,
    pub root_total_ns: u64,
    pub root_self_ns: u64,
    pub layer_self_ns: BTreeMap<&'static str, u64>,
    pub name_total_ns: BTreeMap<&'static str, u64>,
    pub name_calls: BTreeMap<&'static str, u64>,
}

impl Breakdown {
    pub fn of(spans: &[Span]) -> Breakdown {
        let own = self_times_ns(spans);
        let mut b = Breakdown::default();
        for (s, &self_ns) in spans.iter().zip(&own) {
            if s.parent.is_none() {
                assert_eq!(s.name, ROOT, "only `{ROOT}` spans may be roots");
                b.roots += 1;
                b.root_total_ns += s.duration_ns();
                b.root_self_ns += self_ns;
            } else {
                *b.layer_self_ns.entry(s.layer()).or_default() += self_ns;
                *b.name_total_ns.entry(s.name).or_default() += s.duration_ns();
                *b.name_calls.entry(s.name).or_default() += 1;
            }
        }
        b
    }

    /// `root total − (Σ layer self + root self)`: zero by construction;
    /// anything else is a bug in the recorder.
    pub fn residual_ns(&self) -> i128 {
        let parts: u64 = self.layer_self_ns.values().sum::<u64>() + self.root_self_ns;
        self.root_total_ns as i128 - parts as i128
    }

    /// Mean seconds per root spent inside spans named `name`.
    pub fn secs_per_root(&self, name: &str) -> f64 {
        self.per_root(self.name_total_ns.get(name).copied().unwrap_or(0))
    }

    /// Mean seconds of self time per root charged to `layer`.
    pub fn layer_self_secs_per_root(&self, layer: &str) -> f64 {
        self.per_root(self.layer_self_ns.get(layer).copied().unwrap_or(0))
    }

    pub fn calls_per_root(&self, name: &str) -> f64 {
        let calls = self.name_calls.get(name).copied().unwrap_or(0);
        if self.roots == 0 {
            0.0
        } else {
            calls as f64 / self.roots as f64
        }
    }

    pub fn per_root(&self, total_ns: u64) -> f64 {
        if self.roots == 0 {
            0.0
        } else {
            total_ns as f64 / 1e9 / self.roots as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u32, parent: Option<u32>, name: &'static str, start: u64, end: u64) -> Span {
        Span {
            id,
            parent,
            name,
            start_ns: start,
            end_ns: end,
        }
    }

    #[test]
    fn self_time_subtracts_nested_and_adjacent_children() {
        // repeat [0,100): core.run [10,60) with nested metrics.p [20,30)
        // and adjacent metrics.p [30,45); then lab.write [60,90).
        let spans = vec![
            span(0, None, ROOT, 0, 100),
            span(1, Some(0), "core.run", 10, 60),
            span(2, Some(1), "metrics.p", 20, 30),
            span(3, Some(1), "metrics.p", 30, 45),
            span(4, Some(0), "lab.write", 60, 90),
        ];
        assert_eq!(self_times_ns(&spans), vec![20, 25, 10, 15, 30]);
        let b = Breakdown::of(&spans);
        assert_eq!(b.roots, 1);
        assert_eq!(b.root_self_ns, 20);
        assert_eq!(b.layer_self_ns["core"], 25);
        assert_eq!(b.layer_self_ns["metrics"], 25);
        assert_eq!(b.layer_self_ns["lab"], 30);
        assert_eq!(b.name_total_ns["core.run"], 50);
        assert_eq!(b.name_calls["metrics.p"], 2);
        assert_eq!(b.residual_ns(), 0);
    }

    #[test]
    fn breakdown_averages_over_roots() {
        let spans = vec![
            span(0, None, ROOT, 0, 1_000_000_000),
            span(1, Some(0), "rt.load", 0, 400_000_000),
            span(2, None, ROOT, 2_000_000_000, 3_000_000_000),
            span(3, Some(2), "rt.load", 2_000_000_000, 2_600_000_000),
        ];
        let b = Breakdown::of(&spans);
        assert_eq!(b.roots, 2);
        assert!((b.secs_per_root("rt.load") - 0.5).abs() < 1e-12);
        assert!((b.layer_self_secs_per_root("rt") - 0.5).abs() < 1e-12);
        assert_eq!(b.calls_per_root("rt.load"), 1.0);
        assert_eq!(b.residual_ns(), 0);
    }

    #[test]
    fn recorder_nests_and_disabled_records_nothing() {
        let mut rec = Recorder::new(true);
        let out = rec.span(ROOT, |r| r.span("core.run", |r| r.span("metrics.p", |_| 7)));
        assert_eq!(out, 7);
        let names: Vec<_> = rec.spans().iter().map(|s| (s.name, s.parent)).collect();
        assert_eq!(
            names,
            vec![(ROOT, None), ("core.run", Some(0)), ("metrics.p", Some(1))]
        );
        assert!(rec.spans().iter().all(|s| s.end_ns >= s.start_ns));
        assert_eq!(Breakdown::of(rec.spans()).residual_ns(), 0);

        let mut off = Recorder::new(false);
        assert_eq!(off.span(ROOT, |_| 1), 1);
        assert!(off.spans().is_empty());

        let mut buf = Vec::new();
        rec.write_jsonl(&mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();
        assert_eq!(text.lines().count(), 3);
        assert!(text.starts_with("{\"id\":0,\"parent\":null,\"name\":\"repeat\""));
    }
}
