//! The benchmark's own tracing: spans recorded around calls into each
//! layer's public functions, kept in memory and written out when the run
//! ends. Nothing inside the program under test is instrumented.

use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// One timed call into a layer.
#[derive(Clone, Copy, Debug)]
pub struct Span {
    /// Layer function the span wraps, e.g. `store.materialize`.
    pub name: &'static str,
    /// Start, in nanoseconds since the recorder was created.
    pub start_ns: u64,
    /// End, in nanoseconds since the recorder was created (0 while open).
    pub end_ns: u64,
    /// Index of the span that caused this one.
    pub parent: Option<usize>,
    /// Operation the span belongs to; spans of one operation share it.
    pub req: u64,
}

/// In-memory span recorder, shared by every benchmark thread.
pub struct Trace {
    epoch: Instant,
    spans: Mutex<Vec<Span>>,
    next_req: AtomicU64,
}

impl Trace {
    pub fn new() -> Self {
        Trace {
            epoch: Instant::now(),
            spans: Mutex::new(Vec::new()),
            next_req: AtomicU64::new(1),
        }
    }

    /// A fresh operation id.
    pub fn request(&self) -> u64 {
        // A plain counter: it publishes no other data.
        self.next_req.fetch_add(1, Ordering::Relaxed)
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span and returns its index (the parent handle for children).
    pub fn open(&self, name: &'static str, parent: Option<usize>, req: u64) -> usize {
        let start_ns = self.now_ns();
        let mut spans = self.spans.lock().expect("span log poisoned");
        spans.push(Span {
            name,
            start_ns,
            end_ns: 0,
            parent,
            req,
        });
        spans.len() - 1
    }

    /// Closes the span opened as `idx`.
    pub fn close(&self, idx: usize) {
        let end_ns = self.now_ns();
        self.spans.lock().expect("span log poisoned")[idx].end_ns = end_ns;
    }

    /// Durations in milliseconds of every closed span called `name`.
    pub fn durations_ms(&self, name: &str) -> Vec<f64> {
        self.spans
            .lock()
            .expect("span log poisoned")
            .iter()
            .filter(|s| s.name == name && s.end_ns >= s.start_ns)
            .map(|s| (s.end_ns - s.start_ns) as f64 / 1e6)
            .collect()
    }

    /// Writes every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self
            .spans
            .lock()
            .expect("span log poisoned")
            .iter()
            .enumerate()
        {
            let parent = s
                .parent
                .map_or_else(|| "null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"req\":{}}}",
                s.name, s.start_ns, s.end_ns, s.req
            )?;
        }
        out.flush()
    }
}

/// Runs `f`, timing it; when tracing, also records it as span `name`.
pub fn timed<T>(
    trace: Option<&Trace>,
    name: &'static str,
    parent: Option<usize>,
    req: u64,
    f: impl FnOnce() -> T,
) -> (T, Duration) {
    let idx = trace.map(|t| t.open(name, parent, req));
    let t0 = Instant::now();
    let out = f();
    let took = t0.elapsed();
    if let (Some(t), Some(i)) = (trace, idx) {
        t.close(i);
    }
    (out, took)
}

/// A `kB` field of `/proc/self/status`, in megabytes.
fn status_mb(field: &str) -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix(field))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| format!("no {field} in /proc/self/status"))
}

/// Peak resident set of this process so far (`VmHWM`), in MB.
pub fn peak_rss_mb() -> Result<f64, String> {
    status_mb("VmHWM:")
}

/// Current resident set of this process (`VmRSS`), in MB.
pub fn rss_mb() -> Result<f64, String> {
    status_mb("VmRSS:")
}
