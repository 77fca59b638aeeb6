//! In-memory spans recorded by the benchmark around its calls into each
//! layer's public functions.

use std::time::Instant;

/// Nanoseconds elapsed since `origin`.
#[must_use]
pub fn since(origin: Instant) -> u64 {
    u64::try_from(origin.elapsed().as_nanos()).expect("run shorter than 584 years")
}

/// One timed call.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// Layer call, named `<crate>.<call>`.
    pub name: &'static str,
    /// Start, in nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// End, in nanoseconds since the tracer was created.
    pub end_ns: u64,
}

impl Span {
    /// Duration in nanoseconds.
    #[must_use]
    pub fn ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// A span recorder. Disabled tracers record nothing and only run the
/// wrapped calls.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    enabled: bool,
    spans: Vec<Span>,
}

impl Tracer {
    /// A recording tracer.
    #[must_use]
    pub fn new() -> Self {
        Self {
            origin: Instant::now(),
            enabled: true,
            spans: Vec::new(),
        }
    }

    /// A tracer that records nothing.
    #[must_use]
    pub fn disabled() -> Self {
        Self {
            enabled: false,
            ..Self::new()
        }
    }

    fn now_ns(&self) -> u64 {
        since(self.origin)
    }

    /// Run `f` inside a span named `name`.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        if !self.enabled {
            return f();
        }
        let start_ns = self.now_ns();
        let r = f();
        let end_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns,
        });
        r
    }

    /// Open a span that closes after the calls it wraps; returns its
    /// index for [`close`](Self::close).
    pub fn open(&mut self, name: &'static str) -> usize {
        if !self.enabled {
            return usize::MAX;
        }
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
        });
        self.spans.len() - 1
    }

    /// Close the span `idx` opened by [`open`](Self::open).
    pub fn close(&mut self, idx: usize) {
        if !self.enabled {
            return;
        }
        self.spans[idx].end_ns = self.now_ns();
    }

    /// Record a span timed elsewhere (e.g. on a worker thread) with
    /// [`since`] against this tracer's [`origin`](Self::origin).
    pub fn record(&mut self, name: &'static str, start_ns: u64, end_ns: u64) {
        if !self.enabled {
            return;
        }
        self.spans.push(Span {
            name,
            start_ns,
            end_ns,
        });
    }

    /// The instant span times are measured from.
    #[must_use]
    pub fn origin(&self) -> Instant {
        self.origin
    }

    /// Spans named `name`.
    pub fn named<'a>(&'a self, name: &'a str) -> impl Iterator<Item = &'a Span> + 'a {
        self.spans.iter().filter(move |s| s.name == name)
    }

    /// Call count and total nanoseconds of the spans named `name`.
    #[must_use]
    pub fn total(&self, name: &str) -> (usize, u64) {
        self.named(name)
            .fold((0, 0), |(n, t), s| (n + 1, t + s.ns()))
    }
}

impl Default for Tracer {
    fn default() -> Self {
        Self::new()
    }
}
