//! Spans recorded by the traced run around the calls into each layer.
//!
//! A span has a name, a start and an end (ns since the run's clock origin)
//! and the name of the span that caused it; all spans of one operation share
//! the operation's id.  Spans are kept in memory and written out once, when
//! the run ends.

use std::io::Write;

/// One timed interval at a layer boundary.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub op: u64,
    pub name: &'static str,
    pub parent: Option<&'static str>,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// In-memory span store of one run.
#[derive(Default)]
pub struct SpanLog {
    spans: Vec<Span>,
}

impl SpanLog {
    pub fn push(
        &mut self,
        op: u64,
        name: &'static str,
        parent: Option<&'static str>,
        start_ns: u64,
        end_ns: u64,
    ) {
        self.spans.push(Span {
            op,
            name,
            parent,
            start_ns,
            end_ns,
        });
    }

    /// Durations of every span called `name`, in ns.
    pub fn durations(&self, name: &str) -> Vec<u64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::duration_ns)
            .collect()
    }

    pub fn extend(&mut self, other: &SpanLog) {
        self.spans.extend_from_slice(&other.spans);
    }

    pub fn reserve(&mut self, additional: usize) {
        self.spans.reserve(additional);
    }

    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Writes the spans as CSV (`op,name,parent,start_ns,end_ns`).
    pub fn write_csv(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "op,name,parent,start_ns,end_ns")?;
        for s in &self.spans {
            writeln!(
                out,
                "{},{},{},{},{}",
                s.op,
                s.name,
                s.parent.unwrap_or(""),
                s.start_ns,
                s.end_ns
            )?;
        }
        out.flush()
    }
}
