//! Small measurement helpers: order statistics, an input digest, the
//! process's peak RSS and the in-memory span recorder of traced runs.

use std::io::Write;
use std::time::Instant;

/// Linear-interpolated quantile `q` in [0, 1] of `values` (any order).
/// Empty input yields 0.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("no NaN timings"));
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

pub fn ms_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

/// FNV-1a over a stream of byte slices: the digest of a run's inputs.
#[derive(Debug, Clone, Copy)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    pub fn bytes(&mut self, data: &[u8]) {
        for &b in data {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
        // length separator, so ["ab","c"] and ["a","bc"] differ
        self.0 ^= data.len() as u64;
        self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
    }

    pub fn floats(&mut self, data: &[f32]) {
        let raw: Vec<u8> = data.iter().flat_map(|f| f.to_le_bytes()).collect();
        self.bytes(&raw);
    }

    pub fn words(&mut self, words: &[String]) {
        for w in words {
            self.bytes(w.as_bytes());
        }
        self.bytes(b"|");
    }

    pub fn hex(&self) -> String {
        format!("{:016x}", self.0)
    }
}

/// `VmHWM` of this process in MB (0 where `/proc` is unavailable).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .unwrap_or(0.0)
}

/// Total bytes of the regular files under `dir`, recursively.
pub fn dir_bytes(dir: &std::path::Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    entries
        .flatten()
        .map(|e| match e.metadata() {
            Ok(m) if m.is_dir() => dir_bytes(&e.path()),
            Ok(m) => m.len(),
            Err(_) => 0,
        })
        .sum()
}

/// One recorded span: a public call the benchmark made.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index (1-based) of the enclosing span in the same recorder; 0
    /// for a root span.
    pub parent: u32,
    /// Request (operation) id the span belongs to.
    pub request: u64,
}

/// Per-thread span recorder. Disabled recorders do no work, so the
/// untraced run pays one branch per call site.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Option<Vec<Span>>,
}

impl Tracer {
    pub fn new(origin: Instant, enabled: bool) -> Self {
        Tracer {
            origin,
            spans: enabled.then(Vec::new),
        }
    }

    /// Run `f` inside a span `name`; returns `f`'s result and the
    /// span's id (0 when disabled) for use as a parent.
    pub fn span<R>(
        &mut self,
        name: &'static str,
        parent: u32,
        request: u64,
        f: impl FnOnce() -> R,
    ) -> R {
        if self.spans.is_none() {
            return f();
        }
        let start = self.origin.elapsed().as_nanos() as u64;
        let out = f();
        let end = self.origin.elapsed().as_nanos() as u64;
        self.record(name, start, end, parent, request);
        out
    }

    /// Record an already-timed interval (for calls whose end is
    /// observed on another path, such as a pipelined reply).
    pub fn record(
        &mut self,
        name: &'static str,
        start_ns: u64,
        end_ns: u64,
        parent: u32,
        request: u64,
    ) -> u32 {
        match &mut self.spans {
            Some(spans) => {
                spans.push(Span {
                    name,
                    start_ns,
                    end_ns,
                    parent,
                    request,
                });
                spans.len() as u32
            }
            None => 0,
        }
    }

    /// Start a span whose children are recorded before it ends; finish
    /// it with [`close`](Self::close).
    pub fn open(&mut self, name: &'static str, parent: u32, request: u64) -> u32 {
        let now = self.now_ns();
        self.record(name, now, now, parent, request)
    }

    pub fn close(&mut self, id: u32) {
        let now = self.now_ns();
        if let Some(span) = self.spans.as_mut().and_then(|s| s.get_mut(id as usize - 1)) {
            span.end_ns = now;
        }
    }

    /// A recorder for another thread, on the same clock and switch.
    pub fn sibling(&self) -> Tracer {
        Tracer::new(self.origin, self.spans.is_some())
    }

    /// Append another recorder's spans (roots stay roots; a child's
    /// parent index is shifted with it).
    pub fn absorb(&mut self, mut other: Tracer) {
        if let (Some(mine), Some(theirs)) = (&mut self.spans, other.spans.take()) {
            let shift = mine.len() as u32;
            mine.extend(theirs.into_iter().map(|mut s| {
                if s.parent > 0 {
                    s.parent += shift;
                }
                s
            }));
        }
    }

    pub fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    pub fn ns_of(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.origin).as_nanos() as u64
    }

    pub fn take(&mut self) -> Vec<Span> {
        self.spans.take().unwrap_or_default()
    }
}

/// Write spans as JSON lines; each recorder's parent indices are local
/// to its own `thread` number.
pub fn write_spans(
    path: &std::path::Path,
    threads: &[(&str, Vec<Span>)],
) -> std::io::Result<usize> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    let mut n = 0;
    for (thread, spans) in threads {
        for (i, s) in spans.iter().enumerate() {
            writeln!(
                out,
                "{{\"thread\":\"{}\",\"id\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{},\"request\":{}}}",
                thread,
                i + 1,
                s.name,
                s.start_ns,
                s.end_ns,
                s.parent,
                s.request
            )?;
            n += 1;
        }
    }
    out.flush()?;
    Ok(n)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 4.0);
        assert_eq!(median(&v), 2.5);
        assert_eq!(quantile(&[], 0.5), 0.0);
    }

    #[test]
    fn digest_separates_boundaries() {
        let mut a = Digest::default();
        a.bytes(b"ab");
        a.bytes(b"c");
        let mut b = Digest::default();
        b.bytes(b"a");
        b.bytes(b"bc");
        assert_ne!(a.hex(), b.hex());
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(Instant::now(), false);
        assert_eq!(t.span("x", 0, 1, || 7), 7);
        assert!(t.take().is_empty());
        let mut t = Tracer::new(Instant::now(), true);
        t.span("x", 0, 1, || ());
        let spans = t.take();
        assert_eq!(spans.len(), 1);
        assert!(spans[0].end_ns >= spans[0].start_ns);
    }
}
