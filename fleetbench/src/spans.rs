//! In-memory spans recorded from the benchmark's own files, around each
//! call it makes into a layer's public API. Nothing inside the program is
//! instrumented; spans are kept per thread and written out at the end.

use std::io::Write as _;
use std::path::Path;
use std::time::Instant;

use crate::report::{json_num, json_object, json_str};

/// One closed interval on the benchmark's clock.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer call, e.g. `client.cut` or `storage.commit_write_behind`.
    pub name: &'static str,
    /// Shared by every span of one tenant (its job id).
    pub trace: u64,
    /// Index of the enclosing span in the same buffer, if any.
    pub parent: Option<usize>,
    /// Nanoseconds since the run's epoch.
    pub start_ns: u64,
    pub end_ns: u64,
}

/// A span buffer. Disabled buffers record nothing and cost one branch.
#[derive(Debug)]
pub struct Spans {
    epoch: Instant,
    on: bool,
    pub spans: Vec<Span>,
    open: Vec<usize>,
}

impl Spans {
    pub fn new(epoch: Instant, on: bool) -> Self {
        Spans {
            epoch,
            on,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Run `f` inside a span named `name` for tenant `trace`; spans opened
    /// inside `f` on this buffer become its children.
    pub fn time<R>(&mut self, name: &'static str, trace: u64, f: impl FnOnce(&mut Self) -> R) -> R {
        if !self.on {
            return f(self);
        }
        let idx = self.spans.len();
        let parent = self.open.last().copied();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            trace,
            parent,
            start_ns,
            end_ns: start_ns,
        });
        self.open.push(idx);
        let out = f(self);
        self.open.pop();
        self.spans[idx].end_ns = self.now_ns();
        out
    }

    /// Self time of every span named `name`, milliseconds: its duration
    /// minus the part its direct children cover.
    pub fn self_ms(&self, name: &str) -> Vec<f64> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns - s.start_ns;
            }
        }
        self.spans
            .iter()
            .enumerate()
            .filter(|(_, s)| s.name == name)
            .map(|(i, s)| (s.end_ns - s.start_ns).saturating_sub(child_ns[i]) as f64 / 1e6)
            .collect()
    }

    pub fn append(&mut self, other: Spans) {
        let base = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }
}

/// Write spans as JSON lines (`name`, `trace`, `parent`, `start_ns`,
/// `end_ns`); errors are reported, not fatal.
pub fn write_jsonl(path: &Path, spans: &Spans) {
    let write = || -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in &spans.spans {
            let line = json_object(&[
                ("name", json_str(s.name)),
                ("trace", json_num(s.trace as f64)),
                ("parent", s.parent.map_or("null".into(), |p| p.to_string())),
                ("start_ns", s.start_ns.to_string()),
                ("end_ns", s.end_ns.to_string()),
            ]);
            writeln!(out, "{line}")?;
        }
        out.flush()
    };
    if let Err(e) = write() {
        eprintln!("fleetbench: writing {}: {e}", path.display());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let mut s = Spans::new(Instant::now(), true);
        s.time("outer", 1, |s| {
            s.time("inner", 1, |_| {
                std::thread::sleep(std::time::Duration::from_millis(5))
            });
        });
        let outer = s.self_ms("outer")[0];
        let inner = s.self_ms("inner")[0];
        assert!(inner >= 5.0);
        assert!(outer < inner, "outer self {outer} vs inner {inner}");
        assert_eq!(s.spans[1].parent, Some(0));
    }

    #[test]
    fn disabled_buffer_records_nothing() {
        let mut s = Spans::new(Instant::now(), false);
        assert_eq!(s.time("x", 1, |_| 7), 7);
        assert!(s.spans.is_empty());
    }
}
