//! Spans and histograms recorded from the benchmark's side of each layer
//! boundary. Nothing here reaches into the simulator: a span brackets a call
//! into a public function, a histogram folds per-call durations.

use std::fmt::Write as _;
use std::time::Instant;

/// One traced interval. `parent` is the id of the enclosing span (0 = root);
/// every span of one cell carries the same `cell` id (0 = outside any cell).
pub struct Span {
    pub id: u32,
    pub parent: u32,
    pub cell: u32,
    pub name: String,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// A span that has been opened and not yet closed.
pub struct OpenSpan {
    slot: Option<usize>,
    outer_cell: Option<u32>,
    start: Instant,
}

/// Times every bracketed call; keeps the span only when recording is on, so
/// the untraced run pays two clock reads per phase and nothing else.
pub struct Tracer {
    origin: Instant,
    recording: bool,
    spans: Vec<Span>,
    stack: Vec<u32>,
    cell: u32,
    next_cell: u32,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            origin: Instant::now(),
            recording: false,
            spans: Vec::new(),
            stack: Vec::new(),
            cell: 0,
            next_cell: 0,
        }
    }

    /// Switch span recording on or off (timing happens either way).
    pub fn set_recording(&mut self, on: bool) {
        self.recording = on;
    }

    /// Open a span named `name` under the innermost open span.
    pub fn open(&mut self, name: &str) -> OpenSpan {
        let slot = self.recording.then(|| {
            let id = self.spans.len() as u32 + 1;
            self.spans.push(Span {
                id,
                parent: self.stack.last().copied().unwrap_or(0),
                cell: self.cell,
                name: name.to_string(),
                start_ns: 0,
                end_ns: 0,
            });
            self.stack.push(id);
            id as usize - 1
        });
        OpenSpan {
            slot,
            outer_cell: None,
            start: Instant::now(),
        }
    }

    /// Like [`Tracer::open`], starting a new cell: the span and everything
    /// opened under it share one fresh cell id.
    pub fn open_cell(&mut self, name: &str) -> OpenSpan {
        self.next_cell += 1;
        let outer = std::mem::replace(&mut self.cell, self.next_cell);
        let mut open = self.open(name);
        open.outer_cell = Some(outer);
        open
    }

    /// Close `open` (spans close innermost first); returns its duration in
    /// seconds.
    pub fn close(&mut self, open: OpenSpan) -> f64 {
        let end = Instant::now();
        if let Some(slot) = open.slot {
            let id = self.stack.pop();
            debug_assert_eq!(id, Some(slot as u32 + 1), "spans close innermost first");
            self.spans[slot].start_ns = (open.start - self.origin).as_nanos() as u64;
            self.spans[slot].end_ns = (end - self.origin).as_nanos() as u64;
        }
        if let Some(outer) = open.outer_cell {
            self.cell = outer;
        }
        (end - open.start).as_secs_f64()
    }

    /// Self time of each span name: the span's duration minus the part its
    /// children cover, summed over every span of that name (cell spans,
    /// named `cell:<label>`, are summed as `cell`). Sorted by name.
    pub fn self_times(&self) -> Vec<(String, f64, u64)> {
        let mut child_ns = vec![0u64; self.spans.len() + 1];
        for s in &self.spans {
            child_ns[s.parent as usize] += s.end_ns - s.start_ns;
        }
        let mut by_name: std::collections::BTreeMap<&str, (u64, u64)> = Default::default();
        for s in &self.spans {
            let own = (s.end_ns - s.start_ns).saturating_sub(child_ns[s.id as usize]);
            let name = if s.name.starts_with("cell:") {
                "cell"
            } else {
                s.name.as_str()
            };
            let e = by_name.entry(name).or_default();
            e.0 += own;
            e.1 += 1;
        }
        by_name
            .into_iter()
            .map(|(name, (ns, count))| (name.to_string(), ns as f64 * 1e-9, count))
            .collect()
    }

    /// The spans as a JSON array.
    pub fn spans_json(&self) -> String {
        let mut out = String::from("[");
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            write!(
                out,
                "\n  {{\"id\": {}, \"parent\": {}, \"cell\": {}, \"name\": {}, \"start_ns\": {}, \"end_ns\": {}}}",
                s.id,
                s.parent,
                s.cell,
                json_string(&s.name),
                s.start_ns,
                s.end_ns
            )
            .expect("write to string");
        }
        out.push_str("\n]");
        out
    }
}

/// Quote `s` as a JSON string.
pub fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => write!(out, "\\u{:04x}", c as u32).expect("write to string"),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Sub-buckets per power of two: bucket edges are 1/32 octave apart, so a
/// reported percentile is within ~1.5% of the true one.
const SUB_BITS: u32 = 5;
const SUB: u32 = 1 << SUB_BITS;

/// Log-bucketed histogram of nanosecond durations: per-call times are folded
/// here instead of being kept as one span each.
#[derive(Clone)]
pub struct LogHistogram {
    buckets: Vec<u64>,
    count: u64,
    sum_ns: u64,
}

impl LogHistogram {
    pub fn new() -> Self {
        LogHistogram {
            buckets: vec![0; (64 * SUB) as usize],
            count: 0,
            sum_ns: 0,
        }
    }

    fn bucket(ns: u64) -> usize {
        let v = ns.max(1);
        let octave = 63 - v.leading_zeros();
        let sub = if octave >= SUB_BITS {
            ((v >> (octave - SUB_BITS)) & (SUB as u64 - 1)) as u32
        } else {
            0
        };
        (octave * SUB + sub) as usize
    }

    #[inline]
    pub fn record(&mut self, ns: u64) {
        self.buckets[Self::bucket(ns)] += 1;
        self.count += 1;
        self.sum_ns += ns;
    }

    pub fn count(&self) -> u64 {
        self.count
    }

    pub fn sum_ns(&self) -> u64 {
        self.sum_ns
    }

    pub fn merge(&mut self, other: &LogHistogram) {
        for (a, b) in self.buckets.iter_mut().zip(&other.buckets) {
            *a += b;
        }
        self.count += other.count;
        self.sum_ns += other.sum_ns;
    }

    /// The `q`-quantile (0..=1) in nanoseconds: the geometric middle of the
    /// bucket holding the `q·count`-th sample; 0 when empty.
    pub fn quantile_ns(&self, q: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let rank = ((self.count as f64 * q).ceil() as u64).clamp(1, self.count);
        let mut seen = 0;
        for (i, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= rank {
                let octave = i as u32 / SUB;
                let sub = i as u32 % SUB;
                let low = (1u64 << octave) as f64 * (1.0 + sub as f64 / SUB as f64);
                let high = (1u64 << octave) as f64 * (1.0 + (sub + 1) as f64 / SUB as f64);
                return if octave >= SUB_BITS {
                    (low * high).sqrt()
                } else {
                    low
                };
            }
        }
        unreachable!("rank is within count")
    }

    /// Non-empty buckets as `[lower_edge_ns, count]` JSON pairs.
    pub fn json(&self) -> String {
        let mut out = String::from("[");
        let mut first = true;
        for (i, &n) in self.buckets.iter().enumerate() {
            if n == 0 {
                continue;
            }
            let octave = i as u32 / SUB;
            let sub = i as u32 % SUB;
            let low = (1u64 << octave) as f64 * (1.0 + sub as f64 / SUB as f64);
            if !first {
                out.push_str(", ");
            }
            first = false;
            write!(out, "[{low}, {n}]").expect("write to string");
        }
        out.push(']');
        out
    }
}

/// Median of `values` (mean of the middle two for an even count); 0 when
/// empty.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}
