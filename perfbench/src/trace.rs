//! The benchmark's own span recorder and the order statistics it reports.
//!
//! Spans are recorded here, around calls into the program's public
//! functions, never inside the program. They stay in memory until the run
//! ends and are then written out as a Chrome trace-event file.

use std::fmt::Write as _;
use std::path::Path;
use std::time::Instant;

/// One timed call: its name, the span that caused it, and when it ran.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: String,
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub dur_ns: u64,
}

/// Spans of one run, in start order. A disabled recorder still times the
/// calls it wraps but keeps nothing.
#[derive(Debug)]
pub struct Spans {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
}

impl Spans {
    pub fn new(enabled: bool) -> Self {
        Self {
            enabled,
            epoch: Instant::now(),
            spans: Vec::new(),
        }
    }

    pub fn set_enabled(&mut self, enabled: bool) {
        self.enabled = enabled;
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Records a span timed elsewhere, e.g. on a load thread.
    pub fn push(&mut self, name: &str, parent: Option<usize>, start: Instant, dur_ns: u64) {
        if self.enabled {
            let start_ns = u64::try_from(start.saturating_duration_since(self.epoch).as_nanos())
                .unwrap_or(u64::MAX);
            self.spans.push(Span {
                name: name.to_string(),
                parent,
                start_ns,
                dur_ns,
            });
        }
    }

    /// Opens a span whose children are recorded with [`Spans::timed`];
    /// returns its id (`None` while disabled).
    pub fn open(&mut self, name: &str, parent: Option<usize>) -> Option<usize> {
        if !self.enabled {
            return None;
        }
        self.spans.push(Span {
            name: name.to_string(),
            parent,
            start_ns: self.now_ns(),
            dur_ns: 0,
        });
        Some(self.spans.len() - 1)
    }

    pub fn close(&mut self, id: Option<usize>) {
        if let Some(id) = id {
            let end = self.now_ns();
            let span = &mut self.spans[id];
            span.dur_ns = end - span.start_ns;
        }
    }

    /// Runs `f` inside a span named `name`; returns its result and its
    /// wall time in nanoseconds.
    pub fn timed<R>(
        &mut self,
        name: &str,
        parent: Option<usize>,
        f: impl FnOnce() -> R,
    ) -> (R, u64) {
        let start = Instant::now();
        let result = std::hint::black_box(f());
        let dur_ns = elapsed_ns(start);
        if self.enabled {
            let start_ns =
                u64::try_from(start.duration_since(self.epoch).as_nanos()).unwrap_or(u64::MAX);
            self.spans.push(Span {
                name: name.to_string(),
                parent,
                start_ns,
                dur_ns,
            });
        }
        (result, dur_ns)
    }

    /// Durations of every span named `name`, in milliseconds.
    pub fn durations_ms(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.dur_ns as f64 / 1e6)
            .collect()
    }

    /// Writes the spans as a Chrome trace-event file (loadable in
    /// Perfetto); span names are fixed ASCII identifiers, so no escaping
    /// is needed.
    pub fn write_chrome_trace(&self, path: &Path) -> std::io::Result<()> {
        let mut out = String::from("{\"traceEvents\":[");
        for (id, s) in self.spans.iter().enumerate() {
            if id > 0 {
                out.push(',');
            }
            let parent = s.parent.map_or(-1, |p| p as i64);
            let _ = write!(
                out,
                "{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"id\":{id},\"parent\":{parent}}}}}",
                s.name,
                s.start_ns as f64 / 1e3,
                s.dur_ns as f64 / 1e3
            );
        }
        out.push_str("]}\n");
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, out)
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }
}

pub fn elapsed_ns(start: Instant) -> u64 {
    u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

pub fn ms_since(start: Instant) -> f64 {
    start.elapsed().as_secs_f64() * 1e3
}

/// Nearest-rank percentile `q` (in `(0, 1]`) of `samples`, and how many
/// samples lie beyond it.
pub fn percentile(samples: &[f64], q: f64) -> (f64, usize) {
    assert!(!samples.is_empty(), "percentile of no samples");
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    (sorted[rank - 1], sorted.len() - rank)
}

pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 0.5).0
}
