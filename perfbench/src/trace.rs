//! In-memory span recorder and per-span self time.
//!
//! The traced run wraps each call into a layer in a span: name, start,
//! end, parent span and job id. Spans stay in memory until the run ends
//! (then [`Recorder::write_jsonl`] writes them out), so recording costs
//! a clock read and a `Vec` push per boundary.

use std::time::Instant;

/// One recorded interval.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Layer boundary name, e.g. `"cache.steady"`.
    pub name: &'static str,
    /// The job the span worked for (`None` for kernel probes).
    pub job: Option<usize>,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
    /// Start, ns since the recorder's origin.
    pub start_ns: u64,
    /// End, ns since the recorder's origin.
    pub end_ns: u64,
}

impl Span {
    /// `end − start`, ns.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// A stack-based span recorder (single-threaded: the replay runs every
/// job on the calling thread).
#[derive(Debug)]
pub struct Recorder {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Default for Recorder {
    fn default() -> Self {
        Recorder::new()
    }
}

impl Recorder {
    /// An empty recorder whose clock starts now.
    pub fn new() -> Self {
        Recorder {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span as a child of the innermost open one.
    pub fn begin(&mut self, name: &'static str, job: Option<usize>) -> usize {
        let id = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            job,
            parent: self.open.last().copied(),
            start_ns,
            end_ns: start_ns,
        });
        self.open.push(id);
        id
    }

    /// Closes span `id`, which must be the innermost open span.
    pub fn end(&mut self, id: usize) {
        let popped = self.open.pop();
        debug_assert_eq!(popped, Some(id), "spans must close innermost first");
        self.spans[id].end_ns = self.now_ns();
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<T>(
        &mut self,
        name: &'static str,
        job: Option<usize>,
        f: impl FnOnce(&mut Recorder) -> T,
    ) -> T {
        let id = self.begin(name, job);
        let out = f(self);
        self.end(id);
        out
    }

    /// Every span recorded so far, in opening order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Writes the spans as JSONL: one object per span with its index,
    /// name, job, parent, start and end (ns).
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        use std::fmt::Write as _;
        let mut out = String::new();
        let opt = |v: Option<usize>| v.map_or("null".to_string(), |v| v.to_string());
        for (i, s) in self.spans.iter().enumerate() {
            let _ = writeln!(
                out,
                "{{\"id\": {i}, \"name\": \"{}\", \"job\": {}, \"parent\": {}, \"start_ns\": {}, \"end_ns\": {}}}",
                s.name,
                opt(s.job),
                opt(s.parent),
                s.start_ns,
                s.end_ns
            );
        }
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, out)
    }
}

/// Self time of every span: its duration minus the part of its
/// interval that its direct children cover (children clipped to the
/// parent, overlaps between children counted once).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<usize>> = vec![Vec::new(); spans.len()];
    for (i, s) in spans.iter().enumerate() {
        if let Some(p) = s.parent {
            children[p].push(i);
        }
    }
    spans
        .iter()
        .zip(&children)
        .map(|(parent, kids)| {
            let mut intervals: Vec<(u64, u64)> = kids
                .iter()
                .map(|&k| {
                    let c = &spans[k];
                    (
                        c.start_ns.clamp(parent.start_ns, parent.end_ns),
                        c.end_ns.clamp(parent.start_ns, parent.end_ns),
                    )
                })
                .collect();
            intervals.sort_unstable();
            let mut covered = 0;
            let mut reach = parent.start_ns;
            for (start, end) in intervals {
                let start = start.max(reach);
                if end > start {
                    covered += end - start;
                    reach = end;
                }
            }
            parent.duration_ns() - covered
        })
        .collect()
}

/// Sum of self times over each span's subtree — equal to the span's
/// duration whenever children nest inside their parents without
/// overlapping, which [`Recorder`]'s stack discipline guarantees.
/// Children open after their parents, so one reverse pass suffices.
pub fn subtree_self_sums(spans: &[Span], self_ns: &[u64]) -> Vec<u64> {
    let mut sums = self_ns.to_vec();
    for i in (0..spans.len()).rev() {
        if let Some(p) = spans[i].parent {
            sums[p] += sums[i];
        }
    }
    sums
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, parent: Option<usize>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            name,
            job: Some(0),
            parent,
            start_ns,
            end_ns,
        }
    }

    /// run_resolved [0,100) ⊃ cache [10,30), sweep [40,90) ⊃ gemm
    /// [50,60), gemm [70,75).
    fn synthetic_tree() -> Vec<Span> {
        vec![
            span("run_resolved", None, 0, 100),
            span("cache", Some(0), 10, 30),
            span("sweep", Some(0), 40, 90),
            span("gemm", Some(2), 50, 60),
            span("gemm", Some(2), 70, 75),
        ]
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let spans = synthetic_tree();
        assert_eq!(self_times(&spans), vec![30, 20, 35, 10, 5]);
    }

    #[test]
    fn layer_self_times_sum_to_the_root_span() {
        let spans = synthetic_tree();
        let self_ns = self_times(&spans);
        let sums = subtree_self_sums(&spans, &self_ns);
        assert_eq!(sums[0], 100);
        assert_eq!(sums[2], 50);
    }

    #[test]
    fn overlapping_and_protruding_children_count_once() {
        let spans = vec![
            span("parent", None, 100, 200),
            span("a", Some(0), 90, 150),
            span("b", Some(0), 120, 170),
            span("c", Some(0), 190, 260),
        ];
        // Covered: [100,170) ∪ [190,200) = 80.
        assert_eq!(self_times(&spans)[0], 20);
    }

    #[test]
    fn recorder_nests_spans_and_keeps_their_order() {
        let mut rec = Recorder::new();
        let total = rec.span("outer", Some(3), |rec| {
            let a = rec.span("inner", Some(3), |_| 2);
            let b = rec.span("inner", Some(3), |_| 3);
            a + b
        });
        assert_eq!(total, 5);
        let spans = rec.spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, Some(0));
        assert!(spans[1].end_ns <= spans[2].start_ns);
        let self_ns = self_times(spans);
        assert_eq!(
            subtree_self_sums(spans, &self_ns)[0],
            spans[0].duration_ns()
        );
    }
}
