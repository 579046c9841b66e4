//! In-memory span recorder for the traced run.
//!
//! Spans are opened and closed by the benchmark around its calls into
//! each crate's public functions; the program itself carries no tracing.
//! A span records its name, start, end, parent and request id (the query
//! index on the database workload, 0 on whole-bank workloads). Spans stay
//! in memory and are written as JSON lines when the run ends.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::time::Instant;

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub parent: Option<usize>,
    pub req: u64,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn secs(&self) -> f64 {
        self.end_ns.saturating_sub(self.start_ns) as f64 * 1e-9
    }
}

/// One traced pass. Spans nest by call structure: the innermost open
/// span is the parent of the next one opened.
pub struct Tracer {
    epoch: Instant,
    spans: RefCell<Vec<Span>>,
    open: RefCell<Vec<usize>>,
}

impl Tracer {
    pub fn new(epoch: Instant) -> Tracer {
        Tracer {
            epoch,
            spans: RefCell::new(Vec::new()),
            open: RefCell::new(Vec::new()),
        }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Runs `f` inside a span named `name`.
    pub fn time<R>(&self, name: &'static str, req: u64, f: impl FnOnce() -> R) -> R {
        let id = {
            let mut spans = self.spans.borrow_mut();
            let id = spans.len();
            spans.push(Span {
                name,
                parent: self.open.borrow().last().copied(),
                req,
                start_ns: self.now_ns(),
                end_ns: 0,
            });
            id
        };
        self.open.borrow_mut().push(id);
        let r = f();
        self.open.borrow_mut().pop();
        self.spans.borrow_mut()[id].end_ns = self.now_ns();
        r
    }

    pub fn into_spans(self) -> Vec<Span> {
        self.spans.into_inner()
    }
}

/// Self time per span name: each span's duration minus the part of its
/// interval that its child spans cover.
pub fn self_times(spans: &[Span]) -> BTreeMap<&'static str, f64> {
    let mut children: Vec<Vec<usize>> = vec![Vec::new(); spans.len()];
    for (i, s) in spans.iter().enumerate() {
        if let Some(p) = s.parent {
            children[p].push(i);
        }
    }
    let mut out = BTreeMap::new();
    for (i, s) in spans.iter().enumerate() {
        let mut iv: Vec<(u64, u64)> = children[i]
            .iter()
            .map(|&c| (spans[c].start_ns, spans[c].end_ns))
            .collect();
        iv.sort_unstable();
        let (mut covered, mut reach) = (0u64, s.start_ns);
        for (a, b) in iv {
            let a = a.max(reach);
            if b > a {
                covered += b - a;
                reach = b;
            }
        }
        let own = s.end_ns.saturating_sub(s.start_ns).saturating_sub(covered);
        *out.entry(s.name).or_insert(0.0) += own as f64 * 1e-9;
    }
    out
}

/// The spans of one pass as JSON lines, tagged with the pass number.
pub fn to_jsonl(pass: usize, spans: &[Span], out: &mut String) {
    for (i, s) in spans.iter().enumerate() {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        out.push_str(&format!(
            "{{\"pass\": {pass}, \"id\": {i}, \"name\": \"{}\", \"parent\": {parent}, \
             \"req\": {}, \"start_us\": {:.3}, \"end_us\": {:.3}}}\n",
            s.name,
            s.req,
            s.start_ns as f64 / 1e3,
            s.end_ns as f64 / 1e3
        ));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let spans = vec![
            Span {
                name: "run",
                parent: None,
                req: 0,
                start_ns: 0,
                end_ns: 100,
            },
            Span {
                name: "a",
                parent: Some(0),
                req: 0,
                start_ns: 10,
                end_ns: 40,
            },
            Span {
                name: "b",
                parent: Some(1),
                req: 0,
                start_ns: 20,
                end_ns: 30,
            },
            Span {
                name: "a",
                parent: Some(0),
                req: 0,
                start_ns: 35,
                end_ns: 60,
            },
        ];
        let t = self_times(&spans);
        // run: 100 − union([10,40],[35,60]) = 100 − 50
        assert!((t["run"] - 50e-9).abs() < 1e-15);
        // a: (30 − 10) + 25
        assert!((t["a"] - 45e-9).abs() < 1e-15);
        assert!((t["b"] - 10e-9).abs() < 1e-15);
    }

    #[test]
    fn tracer_nests_by_call_structure() {
        let tr = Tracer::new(Instant::now());
        tr.time("outer", 7, || tr.time("inner", 7, || ()));
        let spans = tr.into_spans();
        assert_eq!(spans[0].parent, None);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[1].req, 7);
        assert!(spans[0].end_ns >= spans[1].end_ns);
    }
}
