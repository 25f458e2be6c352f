//! Spans recorded from the benchmark's own files, around the public
//! calls it makes into each layer. Kept in memory, dumped as JSON when
//! the traced run ends. Nothing inside the crates is instrumented.

use std::collections::BTreeMap;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Spans kept per run; later ones are counted but not stored.
const MAX_SPANS: usize = 400_000;

#[derive(Debug, Clone)]
pub struct Span {
    pub id: u64,
    /// Id of the span that caused this one; 0 for a root.
    pub parent: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// Per span name: how many, their total duration, and the part of it
/// not covered by child spans.
#[derive(Debug, Default, Clone, Copy)]
pub struct NameTotals {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

/// An in-memory span recorder; a disabled one records nothing and adds
/// one branch per call.
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
    dropped: AtomicU64,
}

/// A span opened with [`Tracer::begin`], closed with [`Tracer::end`].
pub struct OpenSpan {
    pub id: u64,
    parent: u64,
    name: &'static str,
    start_ns: u64,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            epoch: Instant::now(),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
            dropped: AtomicU64::new(0),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Open a span that encloses several calls (a round, a cycle).
    pub fn begin(&self, name: &'static str, parent: u64) -> OpenSpan {
        if !self.enabled {
            return OpenSpan {
                id: 0,
                parent,
                name,
                start_ns: 0,
            };
        }
        OpenSpan {
            id: self.next_id.fetch_add(1, Ordering::Relaxed),
            parent,
            name,
            start_ns: self.now_ns(),
        }
    }

    pub fn end(&self, open: OpenSpan) {
        if !self.enabled {
            return;
        }
        let span = Span {
            id: open.id,
            parent: open.parent,
            name: open.name,
            start_ns: open.start_ns,
            end_ns: self.now_ns(),
        };
        let mut spans = self.spans.lock().expect("span store poisoned");
        if spans.len() < MAX_SPANS {
            spans.push(span);
        } else {
            self.dropped.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Record one call into a layer as a span under `parent`.
    pub fn call<T>(&self, name: &'static str, parent: u64, f: impl FnOnce() -> T) -> T {
        let open = self.begin(name, parent);
        let out = f();
        self.end(open);
        out
    }

    /// Totals per span name, with self time = duration minus the
    /// durations of the spans that name it as parent.
    pub fn totals(&self) -> BTreeMap<&'static str, NameTotals> {
        let spans = self.spans.lock().expect("span store poisoned");
        let mut child_ns: BTreeMap<u64, u64> = BTreeMap::new();
        for s in spans.iter().filter(|s| s.parent != 0) {
            *child_ns.entry(s.parent).or_default() += s.end_ns - s.start_ns;
        }
        let mut totals: BTreeMap<&'static str, NameTotals> = BTreeMap::new();
        for s in spans.iter() {
            let dur = s.end_ns - s.start_ns;
            let t = totals.entry(s.name).or_default();
            t.count += 1;
            t.total_ns += dur;
            t.self_ns += dur.saturating_sub(child_ns.get(&s.id).copied().unwrap_or(0));
        }
        totals
    }

    /// Write `{"dropped":n,"totals":{..},"spans":[{id,parent,name,start_ns,end_ns}..]}`.
    pub fn dump_json(&self, path: &Path) -> std::io::Result<()> {
        use std::io::Write;
        let totals = self.totals();
        let spans = self.spans.lock().expect("span store poisoned");
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        write!(
            out,
            "{{\"dropped\":{},\"totals\":{{",
            self.dropped.load(Ordering::Relaxed)
        )?;
        for (i, (name, t)) in totals.iter().enumerate() {
            let sep = if i == 0 { "" } else { "," };
            write!(
                out,
                "{sep}\"{name}\":{{\"count\":{},\"total_ns\":{},\"self_ns\":{}}}",
                t.count, t.total_ns, t.self_ns
            )?;
        }
        write!(out, "}},\"spans\":[")?;
        for (i, s) in spans.iter().enumerate() {
            let sep = if i == 0 { "" } else { "," };
            write!(
                out,
                "{sep}\n{{\"id\":{},\"parent\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                s.id, s.parent, s.name, s.start_ns, s.end_ns
            )?;
        }
        writeln!(out, "]}}")?;
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let tracer = Tracer::new(true);
        let round = tracer.begin("round", 0);
        tracer.call("child", round.id, || {
            std::thread::sleep(std::time::Duration::from_millis(5))
        });
        tracer.end(round);
        let totals = tracer.totals();
        let (round, child) = (totals["round"], totals["child"]);
        assert_eq!((round.count, child.count), (1, 1));
        assert_eq!(child.self_ns, child.total_ns);
        assert_eq!(round.self_ns, round.total_ns - child.total_ns);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let tracer = Tracer::new(false);
        assert_eq!(tracer.call("x", 0, || 7), 7);
        assert!(tracer.totals().is_empty());
    }
}
