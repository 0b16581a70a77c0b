//! The benchmark's own span recorder: spans around each call into a
//! layer's public functions, kept in memory and rolled up when the run
//! ends. Nothing here reaches inside the program.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::time::Instant;

use crate::util::Metrics;

struct Span {
    layer: &'static str,
    name: &'static str,
    start: Instant,
    end: Instant,
    parent: Option<usize>,
}

/// Records nested spans for one thread. A disabled tracer only runs the
/// closures.
pub struct Tracer {
    on: bool,
    spans: RefCell<Vec<Span>>,
    stack: RefCell<Vec<usize>>,
}

impl Tracer {
    /// A tracer that records when `on`.
    pub fn new(on: bool) -> Self {
        Tracer {
            on,
            spans: RefCell::new(Vec::new()),
            stack: RefCell::new(Vec::new()),
        }
    }

    /// Runs `f` inside a span of `layer` named `name`.
    pub fn span<T>(&self, layer: &'static str, name: &'static str, f: impl FnOnce() -> T) -> T {
        if !self.on {
            return f();
        }
        let idx = {
            let mut spans = self.spans.borrow_mut();
            let now = Instant::now();
            spans.push(Span {
                layer,
                name,
                start: now,
                end: now,
                parent: self.stack.borrow().last().copied(),
            });
            spans.len() - 1
        };
        self.stack.borrow_mut().push(idx);
        let out = f();
        self.stack.borrow_mut().pop();
        self.spans.borrow_mut()[idx].end = Instant::now();
        out
    }

    /// Per-span durations and self times, rolled up by span and by layer.
    pub fn rollup(tracers: &[&Tracer]) -> Rollup {
        let mut r = Rollup::default();
        for t in tracers {
            let spans = t.spans.borrow();
            let mut child_secs = vec![0.0; spans.len()];
            for s in spans.iter() {
                if let Some(p) = s.parent {
                    child_secs[p] += (s.end - s.start).as_secs_f64();
                }
            }
            for (i, s) in spans.iter().enumerate() {
                let dur = (s.end - s.start).as_secs_f64();
                let key = format!("{}.{}", s.layer, s.name);
                *r.total.entry(key).or_default() += dur;
                *r.layer_self.entry(s.layer).or_default() += dur - child_secs[i];
                if s.parent.is_none() {
                    r.roots_secs += dur;
                    r.roots_covered += child_secs[i];
                }
            }
        }
        r
    }
}

/// Rolled-up spans of one or more tracers.
#[derive(Default)]
pub struct Rollup {
    /// Summed duration of the spans of each `layer.name`, seconds.
    total: BTreeMap<String, f64>,
    /// Self time per layer (span minus its child spans), seconds.
    pub layer_self: BTreeMap<&'static str, f64>,
    roots_secs: f64,
    roots_covered: f64,
}

impl Rollup {
    /// Summed duration of every span `layer.name`, seconds.
    pub fn sum(&self, key: &str) -> f64 {
        self.total.get(key).copied().unwrap_or(0.0)
    }

    /// Share of the root spans' time covered by their child layer spans.
    pub fn coverage(&self) -> f64 {
        if self.roots_secs == 0.0 {
            0.0
        } else {
            self.roots_covered / self.roots_secs
        }
    }

    /// Adds `<layer>.self_s` for every layer except the benchmark's roots.
    pub fn put_self_times(&self, m: &mut Metrics) {
        for (layer, secs) in &self.layer_self {
            if *layer != "bench" {
                m.put(format!("{layer}.self_s"), *secs, "s");
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children_and_coverage_counts_them() {
        let t = Tracer::new(true);
        t.span("bench", "pass", || {
            t.span("core", "read", || {
                std::thread::sleep(std::time::Duration::from_millis(5));
                t.span("net", "io", || {
                    std::thread::sleep(std::time::Duration::from_millis(5))
                });
            });
        });
        let r = Tracer::rollup(&[&t]);
        let core = r.layer_self["core"];
        let net = r.layer_self["net"];
        assert!(
            core >= 0.004 && core < r.sum("core.read"),
            "core self {core}"
        );
        assert!(net >= 0.004, "net self {net}");
        assert!(r.coverage() > 0.9 && r.coverage() <= 1.0);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let t = Tracer::new(false);
        assert_eq!(t.span("core", "x", || 7), 7);
        assert!(Tracer::rollup(&[&t]).total.is_empty());
    }
}
