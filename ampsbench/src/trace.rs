//! In-memory spans recorded around the benchmark's calls into each layer,
//! written out when a traced run ends.

use crate::sut::Json;
use std::time::Instant;

/// One timed call. `parent` is the enclosing span; spans of one replay
/// repetition share `rep`, spans of one request share `request`.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub id: usize,
    pub parent: Option<usize>,
    pub name: &'static str,
    pub layer: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub rep: usize,
    pub request: usize,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Records nested spans relative to its creation instant.
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }
}

impl Tracer {
    /// Runs `f` inside a span; returns its result and the span's duration
    /// in seconds. Spans opened inside `f` become its children.
    pub fn span<T>(
        &mut self,
        name: &'static str,
        layer: &'static str,
        rep: usize,
        request: usize,
        f: impl FnOnce(&mut Tracer) -> T,
    ) -> (T, f64) {
        let id = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            id,
            parent: self.open.last().copied(),
            name,
            layer,
            start_ns,
            end_ns: start_ns,
            rep,
            request,
        });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        let end_ns = self.now_ns();
        self.spans[id].end_ns = end_ns;
        (out, (end_ns - start_ns) as f64 * 1e-9)
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Self time of every span: its duration minus the part of its interval
/// that its direct children cover (overlapping children count once).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0;
            let mut reach = s.start_ns;
            for &(a, b) in kids.iter() {
                let (a, b) = (a.max(reach), b.min(s.end_ns));
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            s.duration_ns() - covered
        })
        .collect()
}

/// The span file: every span with its self time, plus self time summed
/// per (layer, name).
pub fn to_json(workload: &str, seed: u64, spans: &[Span]) -> Json {
    let selfs = self_times(spans);
    let num = |x: u64| Json::Num(x as f64);
    let rows = spans
        .iter()
        .zip(&selfs)
        .map(|(s, &own)| {
            Json::Obj(vec![
                ("id".into(), num(s.id as u64)),
                (
                    "parent".into(),
                    s.parent.map_or(Json::Null, |p| num(p as u64)),
                ),
                ("name".into(), Json::Str(s.name.into())),
                ("layer".into(), Json::Str(s.layer.into())),
                ("start_ns".into(), num(s.start_ns)),
                ("end_ns".into(), num(s.end_ns)),
                ("self_ns".into(), num(own)),
                ("rep".into(), num(s.rep as u64)),
                ("request".into(), num(s.request as u64)),
            ])
        })
        .collect();
    let mut totals: Vec<(String, u64)> = Vec::new();
    for (s, &own) in spans.iter().zip(&selfs) {
        let key = format!("{}/{}", s.layer, s.name);
        match totals.iter_mut().find(|(k, _)| *k == key) {
            Some((_, t)) => *t += own,
            None => totals.push((key, own)),
        }
    }
    Json::Obj(vec![
        ("workload".into(), Json::Str(workload.into())),
        ("seed".into(), num(seed)),
        ("spans".into(), Json::Arr(rows)),
        (
            "self_ns_by_layer_name".into(),
            Json::Obj(totals.into_iter().map(|(k, t)| (k, num(t))).collect()),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: usize, parent: Option<usize>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            name: "s",
            layer: "l",
            start_ns,
            end_ns,
            rep: 0,
            request: 0,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_direct_children() {
        let spans = [
            span(0, None, 0, 100),
            span(1, Some(0), 10, 40),
            // Overlaps its sibling: the overlap is covered once.
            span(2, Some(0), 30, 50),
            span(3, Some(1), 15, 20),
            span(4, Some(0), 90, 100),
        ];
        assert_eq!(self_times(&spans), vec![100 - 40 - 10, 30 - 5, 20, 5, 10]);
    }

    #[test]
    fn tracer_nests_spans_under_the_open_one() {
        let mut t = Tracer::default();
        let ((), outer) = t.span("outer", "a", 1, 2, |t| {
            t.span("inner", "b", 1, 2, |_| ());
        });
        let s = t.spans();
        assert_eq!(s.len(), 2);
        assert_eq!(s[1].parent, Some(0));
        assert!(s[0].start_ns <= s[1].start_ns && s[1].end_ns <= s[0].end_ns);
        assert!(outer >= 0.0);
        assert_eq!(self_times(s)[0], s[0].duration_ns() - s[1].duration_ns());
    }
}
