//! Benchmark-side spans: name, start, end, parent and op id, kept in
//! memory and written out when the run ends. A disabled recorder reads
//! no clock and stores nothing.

use std::collections::BTreeMap;
use std::sync::Mutex;
use std::time::Instant;

/// One finished span. Times are nanoseconds since the recorder started.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanRec {
    /// Layer name.
    pub name: &'static str,
    /// Start offset.
    pub start: u64,
    /// End offset.
    pub end: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// The circuit flow or request this span belongs to.
    pub op: u64,
}

/// An in-memory span recorder.
pub struct Spans {
    t0: Option<Instant>,
    recs: Mutex<Vec<SpanRec>>,
}

impl Spans {
    /// A recorder that records nothing.
    pub fn off() -> Spans {
        Spans {
            t0: None,
            recs: Mutex::new(Vec::new()),
        }
    }

    /// A recorder that keeps every span.
    pub fn on() -> Spans {
        Spans {
            t0: Some(Instant::now()),
            recs: Mutex::new(Vec::new()),
        }
    }

    fn now(&self, t0: Instant) -> u64 {
        u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Opens a span that ends when the guard drops.
    pub fn open(&self, name: &'static str, op: u64, parent: Option<usize>) -> SpanGuard<'_> {
        let id = self.t0.map(|t0| {
            let start = self.now(t0);
            let mut recs = self.recs.lock().expect("span list poisoned");
            recs.push(SpanRec {
                name,
                start,
                end: start,
                parent,
                op,
            });
            recs.len() - 1
        });
        SpanGuard { spans: self, id }
    }

    /// Records an already-measured span.
    pub fn record(&self, rec: SpanRec) {
        if self.t0.is_some() {
            self.recs.lock().expect("span list poisoned").push(rec);
        }
    }

    /// Nanoseconds since the recorder started (0 when off).
    pub fn offset(&self, at: Instant) -> u64 {
        self.t0.map_or(0, |t0| {
            u64::try_from(at.saturating_duration_since(t0).as_nanos()).unwrap_or(u64::MAX)
        })
    }

    /// Every span recorded so far.
    pub fn snapshot(&self) -> Vec<SpanRec> {
        self.recs.lock().expect("span list poisoned").clone()
    }
}

/// Closes its span on drop.
pub struct SpanGuard<'a> {
    spans: &'a Spans,
    id: Option<usize>,
}

impl SpanGuard<'_> {
    /// The span's index, the parent of spans opened inside it.
    pub fn id(&self) -> Option<usize> {
        self.id
    }
}

impl Drop for SpanGuard<'_> {
    fn drop(&mut self) {
        if let (Some(id), Some(t0)) = (self.id, self.spans.t0) {
            let end = self.spans.now(t0);
            if let Ok(mut recs) = self.spans.recs.lock() {
                if let Some(rec) = recs.get_mut(id) {
                    rec.end = end;
                }
            }
        }
    }
}

/// Per-layer totals: (busy nanoseconds, self nanoseconds, span count).
/// A span's self time is its duration minus the part of it its
/// children cover.
pub fn layer_times(recs: &[SpanRec]) -> BTreeMap<&'static str, (u64, u64, u64)> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); recs.len()];
    for r in recs {
        if let Some(p) = r.parent {
            if let Some(list) = children.get_mut(p) {
                list.push((r.start, r.end));
            }
        }
    }
    let mut out: BTreeMap<&'static str, (u64, u64, u64)> = BTreeMap::new();
    for (r, kids) in recs.iter().zip(children.iter_mut()) {
        let busy = r.end.saturating_sub(r.start);
        let covered = covered(kids, r.start, r.end);
        let entry = out.entry(r.name).or_default();
        entry.0 += busy;
        entry.1 += busy - covered.min(busy);
        entry.2 += 1;
    }
    out
}

/// Length of the union of `intervals`, clipped to `[lo, hi]`.
fn covered(intervals: &mut [(u64, u64)], lo: u64, hi: u64) -> u64 {
    intervals.sort_unstable();
    let mut total = 0;
    let mut reach = lo;
    for &(s, e) in intervals.iter() {
        let (s, e) = (s.max(reach), e.min(hi));
        if e > s {
            total += e - s;
            reach = e;
        }
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(name: &'static str, start: u64, end: u64, parent: Option<usize>) -> SpanRec {
        SpanRec {
            name,
            start,
            end,
            parent,
            op: 0,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let recs = [
            rec("flow", 0, 100, None),
            rec("layout", 10, 40, Some(0)),
            rec("extract", 30, 50, Some(0)),
            rec("sim.switch", 60, 90, Some(0)),
        ];
        let t = layer_times(&recs);
        assert_eq!(t["flow"], (100, 100 - 40 - 30, 1));
        assert_eq!(t["layout"], (30, 30, 1));
    }

    #[test]
    fn a_disabled_recorder_keeps_nothing() {
        let spans = Spans::off();
        {
            let g = spans.open("flow", 1, None);
            assert_eq!(g.id(), None);
        }
        assert!(spans.snapshot().is_empty());
    }
}
