//! Spans recorded by the harness around calls into the program's public
//! functions. Kept in memory; written as a Chrome trace-event file when
//! the run ends. Nothing here runs inside the program under test.

use crate::json::Json;
use std::time::Instant;

#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Repetition (solve rep, batch number) the span belongs to.
    pub rep: u32,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Times every call it wraps; keeps the span only while `enabled`.
/// Untraced runs therefore take the same clock reads as traced ones and
/// differ only by the push.
pub struct Recorder {
    pub enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Recorder {
    pub fn new(enabled: bool) -> Recorder {
        Recorder {
            enabled,
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Run `f` inside a span; returns its result and its duration in
    /// seconds.
    pub fn span<T>(
        &mut self,
        name: &'static str,
        rep: u32,
        f: impl FnOnce(&mut Recorder) -> T,
    ) -> (T, f64) {
        let slot = if self.enabled {
            self.spans.push(Span {
                name,
                start_ns: 0,
                end_ns: 0,
                parent: self.open.last().copied(),
                rep,
            });
            self.open.push(self.spans.len() - 1);
            Some(self.spans.len() - 1)
        } else {
            None
        };
        let start = self.epoch.elapsed();
        let out = f(self);
        let end = self.epoch.elapsed();
        if let Some(i) = slot {
            self.open.pop();
            self.spans[i].start_ns = start.as_nanos() as u64;
            self.spans[i].end_ns = end.as_nanos() as u64;
        }
        (out, (end - start).as_secs_f64())
    }

    #[cfg(test)]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// How many spans are called `name` or lie (at any depth) under one
    /// that is.
    pub fn spans_under(&self, name: &str) -> usize {
        let mut inside = vec![false; self.spans.len()];
        for (i, s) in self.spans.iter().enumerate() {
            // Parents are recorded before their children.
            inside[i] = s.name == name || s.parent.is_some_and(|p| inside[p]);
        }
        inside.iter().filter(|&&x| x).count()
    }

    /// Durations (seconds) of every recorded span called `name`.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.dur_ns() as f64 * 1e-9)
            .collect()
    }

    /// Chrome trace-event encoding (`chrome://tracing`, Perfetto): one
    /// complete event per span, `args` carrying rep, parent and self
    /// time.
    pub fn to_chrome_trace(&self) -> Json {
        let self_ns = self_times(&self.spans);
        let events = self
            .spans
            .iter()
            .enumerate()
            .map(|(i, s)| {
                Json::obj(vec![
                    ("name", Json::str(s.name)),
                    ("ph", Json::str("X")),
                    ("pid", Json::Num(1.0)),
                    ("tid", Json::Num(1.0)),
                    ("ts", Json::Num(s.start_ns as f64 / 1e3)),
                    ("dur", Json::Num(s.dur_ns() as f64 / 1e3)),
                    (
                        "args",
                        Json::obj(vec![
                            ("id", Json::Num(i as f64)),
                            ("rep", Json::Num(f64::from(s.rep))),
                            (
                                "parent",
                                s.parent.map_or(Json::Null, |p| Json::Num(p as f64)),
                            ),
                            ("start_ns", Json::Num(s.start_ns as f64)),
                            ("end_ns", Json::Num(s.end_ns as f64)),
                            ("self_ns", Json::Num(self_ns[i] as f64)),
                        ]),
                    ),
                ])
            })
            .collect();
        Json::obj(vec![
            ("traceEvents", Json::Arr(events)),
            ("displayTimeUnit", Json::str("ms")),
        ])
    }
}

/// Self time of each span: its duration minus the durations of its direct
/// children (children never overlap — the recorder is single-threaded and
/// strictly nested).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(Span::dur_ns).collect();
    for s in spans {
        if let Some(p) = s.parent {
            own[p] = own[p].saturating_sub(s.dur_ns());
        }
    }
    own
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            rep: 0,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let spans = vec![
            span("pipeline", 0, 1000, None),
            span("read", 0, 100, Some(0)),
            span("solve", 100, 900, Some(0)),
            span("ckpt", 400, 450, Some(2)),
            span("write", 900, 990, Some(0)),
        ];
        // pipeline: 1000 - (100 + 800 + 90) = 10; solve: 800 - 50 = 750.
        assert_eq!(self_times(&spans), vec![10, 100, 750, 50, 90]);
    }

    #[test]
    fn recorder_nests_and_reports_durations() {
        let mut rec = Recorder::new(true);
        let (v, outer) = rec.span("outer", 3, |rec| {
            let ((), inner) = rec.span("inner", 3, |_| {
                std::thread::sleep(std::time::Duration::from_millis(2))
            });
            assert!(inner >= 0.002);
            7
        });
        assert_eq!(v, 7);
        assert!(outer >= 0.002);
        let spans = rec.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(
            (spans[0].name, spans[0].parent, spans[0].rep),
            ("outer", None, 3)
        );
        assert_eq!((spans[1].name, spans[1].parent), ("inner", Some(0)));
        assert!(spans[0].start_ns <= spans[1].start_ns && spans[1].end_ns <= spans[0].end_ns);
        assert_eq!(rec.durations("inner").len(), 1);
        assert_eq!(
            (
                rec.spans_under("outer"),
                rec.spans_under("inner"),
                rec.spans_under("absent")
            ),
            (2, 1, 0)
        );
        let trace = rec.to_chrome_trace();
        assert_eq!(trace.get("traceEvents").unwrap().as_arr().unwrap().len(), 2);
    }

    #[test]
    fn disabled_recorder_times_but_keeps_nothing() {
        let mut rec = Recorder::new(false);
        let ((), secs) = rec.span("x", 0, |_| {
            std::thread::sleep(std::time::Duration::from_millis(1))
        });
        assert!(secs >= 0.001);
        assert!(rec.spans().is_empty());
    }
}
