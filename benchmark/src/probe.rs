//! The benchmark's own spans, taken from outside the library around the
//! closure handed to `Stm::atomic` and around the storage calls of the
//! commit log. Spans stay in memory and are written once, at exit, as
//! Chrome trace-event JSON (open it at <https://ui.perfetto.dev>).

use std::fmt::Write as _;
use std::time::Instant;

/// One operation in this many records spans.
pub const SAMPLE_EVERY: u64 = 64;
/// Spans a worker keeps per slice, so that the file covers the whole
/// run without growing with the workload's speed.
const SPANS_PER_SLICE: usize = 384;
/// Track id of a commit log's flusher (workers are 1..=W).
pub const FLUSHER_TRACK: u32 = 100;

/// A closed interval of work. `id` and `parent` are unique within one
/// `(cell, track)`; `parent` is 0 for a root.
#[derive(Clone, Copy, Debug)]
pub struct Span {
    pub name: &'static str,
    pub cell: u32,
    pub track: u32,
    pub start_ns: u64,
    pub end_ns: u64,
    pub id: u32,
    pub parent: u32,
    /// The operation the span belongs to (0 for flusher spans, which
    /// serve a batch of operations).
    pub op: u64,
}

/// Time sums over the sampled operations of one cell.
#[derive(Clone, Copy, Default, Debug)]
pub struct ShareSums {
    /// Wall time of the sampled operations whose closure is ours.
    pub op_ns: u64,
    /// Closure time of the attempts that committed.
    pub body_ns: u64,
    /// Closure time of the attempts that did not.
    pub retry_ns: u64,
    /// Wall time between the last closure's return and the operation's
    /// end: commit, and with a log the wait for durability.
    pub tail_ns: u64,
}

impl ShareSums {
    pub fn add(&mut self, o: &ShareSums) {
        self.op_ns += o.op_ns;
        self.body_ns += o.body_ns;
        self.retry_ns += o.retry_ns;
        self.tail_ns += o.tail_ns;
    }
}

/// A worker's recorder. One per thread, so recording takes no lock.
pub struct Probe {
    epoch: Instant,
    track: u32,
    seen: u64,
    next_id: u32,
    quota: usize,
    pub spans: Vec<Span>,
    pub sums: Vec<ShareSums>,
    /// Closure entry and exit times of the operation being recorded.
    attempts: Vec<(u64, u64)>,
}

impl Probe {
    pub fn new(epoch: Instant, track: u32, cells: usize, slices: usize) -> Probe {
        Probe {
            epoch,
            track,
            seen: 0,
            next_id: 1,
            quota: SPANS_PER_SLICE,
            spans: Vec::with_capacity(slices * SPANS_PER_SLICE),
            sums: vec![ShareSums::default(); cells],
            attempts: Vec::with_capacity(16),
        }
    }

    /// A probe for single-cell code outside a run: it keeps no spans.
    pub fn idle() -> Probe {
        Probe::new(Instant::now(), 0, 1, 0)
    }

    #[inline]
    pub fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Whether the next operation is one of the sampled ones.
    #[inline]
    pub fn sample(&mut self) -> bool {
        self.seen += 1;
        self.seen.is_multiple_of(SAMPLE_EVERY)
    }

    pub fn new_slice(&mut self) {
        self.quota = SPANS_PER_SLICE;
    }

    /// Run one execution of a transaction closure, noting when it
    /// entered and left if the operation is a sampled one.
    #[inline]
    pub fn attempt<T>(&mut self, sampled: bool, body: impl FnOnce() -> T) -> T {
        if !sampled {
            return body();
        }
        let enter = self.now();
        let result = body();
        self.attempts.push((enter, self.now()));
        result
    }

    fn push(&mut self, name: &'static str, cell: u32, start: u64, end: u64, parent: u32) -> u32 {
        let id = self.next_id;
        self.next_id += 1;
        self.spans.push(Span {
            name,
            cell,
            track: self.track,
            start_ns: start,
            end_ns: end,
            id,
            parent,
            op: self.seen,
        });
        id
    }

    /// Close a sampled operation whose closure executions were noted
    /// with [`Probe::attempt`]: `op → attempt[k] → body | commit`.
    pub fn finish_tx_op(&mut self, cell: usize, start: u64, end: u64) {
        let attempts = std::mem::take(&mut self.attempts);
        let s = &mut self.sums[cell];
        s.op_ns += end - start;
        if let Some((&(last_enter, last_exit), earlier)) = attempts.split_last() {
            s.body_ns += last_exit - last_enter;
            s.retry_ns += earlier.iter().map(|&(a, b)| b - a).sum::<u64>();
            s.tail_ns += end - last_exit;
        }
        if self.quota >= 2 + 3 * attempts.len() {
            self.quota -= 2 + 3 * attempts.len();
            let cell = cell as u32;
            let op = self.push("op", cell, start, end, 0);
            for (k, &(enter, exit)) in attempts.iter().enumerate() {
                let until = attempts.get(k + 1).map_or(end, |next| next.0);
                let a = self.push("attempt", cell, enter, until, op);
                self.push("body", cell, enter, exit, a);
                self.push("commit", cell, exit, until, a);
            }
        }
        self.attempts = attempts;
        self.attempts.clear();
    }

    /// Close a sampled operation made of opaque library calls: an `op`
    /// span with one child per `(name, start, end)` part.
    pub fn finish_opaque_op(
        &mut self,
        cell: usize,
        start: u64,
        end: u64,
        parts: &[(&'static str, u64, u64)],
    ) {
        if self.quota > parts.len() {
            self.quota -= 1 + parts.len();
            let op = self.push("op", cell as u32, start, end, 0);
            for &(name, a, b) in parts {
                self.push(name, cell as u32, a, b, op);
            }
        }
    }
}

/// Render spans as a Chrome trace: one process per cell, one thread per
/// track. `cells` names the processes.
pub fn chrome_trace(cells: &[&str], spans: &[Span]) -> String {
    let mut out = String::with_capacity(64 + spans.len() * 150);
    out.push_str("{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n");
    let mut first = true;
    let mut sep = |out: &mut String| {
        if !std::mem::take(&mut first) {
            out.push_str(",\n");
        }
    };
    let mut tracks: Vec<(u32, u32)> = spans.iter().map(|s| (s.cell, s.track)).collect();
    tracks.sort_unstable();
    tracks.dedup();
    for (i, name) in cells.iter().enumerate() {
        sep(&mut out);
        let _ = write!(
            out,
            "{{\"ph\":\"M\",\"name\":\"process_name\",\"pid\":{},\"args\":{{\"name\":\"{name}\"}}}}",
            i + 1
        );
    }
    for &(cell, track) in &tracks {
        sep(&mut out);
        let label = if track == FLUSHER_TRACK {
            "wal flusher".to_string()
        } else {
            format!("worker {track}")
        };
        let _ = write!(
            out,
            "{{\"ph\":\"M\",\"name\":\"thread_name\",\"pid\":{},\"tid\":{track},\"args\":{{\"name\":\"{label}\"}}}}",
            cell + 1
        );
    }
    for s in spans {
        sep(&mut out);
        let _ = write!(
            out,
            "{{\"ph\":\"X\",\"name\":\"{}\",\"cat\":\"{}\",\"pid\":{},\"tid\":{},\"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"span\":{},\"parent\":{},\"op\":{}}}}}",
            s.name,
            cells[s.cell as usize],
            s.cell + 1,
            s.track,
            s.start_ns as f64 / 1e3,
            (s.end_ns - s.start_ns) as f64 / 1e3,
            s.id,
            s.parent,
            s.op
        );
    }
    out.push_str("\n]}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tx_op_spans_nest_and_sums_add_up() {
        let mut p = Probe::new(Instant::now(), 1, 2, 4);
        p.attempts.extend([(10, 30), (50, 80)]);
        p.finish_tx_op(1, 0, 100);
        let s = p.sums[1];
        assert_eq!(
            (s.op_ns, s.body_ns, s.retry_ns, s.tail_ns),
            (100, 30, 20, 20)
        );
        let names: Vec<_> = p.spans.iter().map(|s| s.name).collect();
        assert_eq!(
            names,
            ["op", "attempt", "body", "commit", "attempt", "body", "commit"]
        );
        let op = p.spans[0];
        for s in &p.spans[1..] {
            assert!(s.start_ns >= op.start_ns && s.end_ns <= op.end_ns);
            let parent = p.spans.iter().find(|q| q.id == s.parent).unwrap();
            assert!(s.start_ns >= parent.start_ns && s.end_ns <= parent.end_ns);
        }
        // The first attempt runs until the second one starts.
        assert_eq!((p.spans[1].start_ns, p.spans[1].end_ns), (10, 50));
        assert_eq!((p.spans[3].start_ns, p.spans[3].end_ns), (30, 50));
    }

    #[test]
    fn span_quota_bounds_a_slice_but_not_the_sums() {
        let mut p = Probe::new(Instant::now(), 1, 1, 1);
        for _ in 0..1000 {
            p.attempts.push((1, 2));
            p.finish_tx_op(0, 0, 3);
        }
        assert!(p.spans.len() <= SPANS_PER_SLICE);
        assert_eq!(p.sums[0].op_ns, 3000);
        p.new_slice();
        p.finish_opaque_op(0, 0, 9, &[("part", 1, 2)]);
        assert_eq!(p.spans.last().unwrap().name, "part");
    }

    #[test]
    fn chrome_trace_is_balanced_json() {
        let spans = [Span {
            name: "op",
            cell: 0,
            track: FLUSHER_TRACK,
            start_ns: 1500,
            end_ns: 4000,
            id: 1,
            parent: 0,
            op: 0,
        }];
        let text = chrome_trace(&["snorec"], &spans);
        assert!(text.contains("\"wal flusher\""));
        assert!(text.contains("\"ts\":1.500,\"dur\":2.500"));
        let v = semtm_bench::jsonin::parse(&text).expect("valid JSON");
        assert_eq!(v.get("traceEvents").unwrap().as_arr().unwrap().len(), 3);
    }
}
