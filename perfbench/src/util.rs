//! Small shared pieces: the seeded generator, digests, quantiles, peak
//! memory, the golden table, and the in-memory span recorder.

use std::collections::BTreeMap;
use std::time::Instant;

/// SplitMix64: the workload generator. The same seed gives the same
/// inputs on every host.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x5eed_7a11_0bad_cafe)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = (self.next_u64() % (i as u64 + 1)) as usize;
            items.swap(i, j);
        }
    }
}

/// FNV-1a over bytes: the golden digest of an output.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    bytes
        .iter()
        .fold(0xcbf2_9ce4_8422_2325, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3))
}

/// The `q`-quantile of `values` with linear interpolation between order
/// statistics (`q = 0.5` is the median). Sorts in place; 0 when empty.
pub fn quantile(values: &mut [f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.sort_by(f64::total_cmp);
    let pos = q * (values.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    values[lo] + (values[hi] - values[lo]) * (pos - lo as f64)
}

pub fn median(values: &[f64]) -> f64 {
    quantile(&mut values.to_vec(), 0.5)
}

/// The process's peak resident set (`VmHWM`) in MiB.
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kib| kib / 1024.0)
}

/// Runs `f` on a fresh thread and waits for it.
pub fn off_main<T: Send>(f: impl FnOnce() -> T + Send) -> T {
    std::thread::scope(|s| s.spawn(f).join().expect("helper thread"))
}

/// The pinned outputs of every workload, `key value` per line.
pub struct Golden(BTreeMap<String, String>);

impl Golden {
    pub fn load() -> Golden {
        let text = include_str!("../golden.txt");
        Golden(
            text.lines()
                .filter(|l| !l.trim().is_empty() && !l.starts_with('#'))
                .filter_map(|l| l.split_once(' '))
                .map(|(k, v)| (k.to_owned(), v.trim().to_owned()))
                .collect(),
        )
    }

    /// True iff `key` is pinned to exactly `value`.
    pub fn matches(&self, key: &str, value: &str) -> bool {
        self.0.get(key).is_some_and(|v| v == value)
    }
}

/// One completed span: a call into a layer, timed from the benchmark.
pub struct Span {
    pub name: &'static str,
    pub parent: Option<usize>,
    /// The request (operation) the span belongs to.
    pub req: u64,
    pub start_ns: u64,
    pub dur_ns: u64,
}

/// Spans kept in memory and written out when the run ends. Disabled, a
/// span is only the closure call.
pub struct Tracer {
    pub on: bool,
    pub req: u64,
    origin: Instant,
    current: Option<usize>,
    pub spans: Vec<Span>,
}

impl Tracer {
    pub fn new(on: bool) -> Tracer {
        Tracer { on, req: 0, origin: Instant::now(), current: None, spans: Vec::new() }
    }

    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> T) -> T {
        if !self.on {
            return f(self);
        }
        let id = self.spans.len();
        self.spans.push(Span { name, parent: self.current, req: self.req, start_ns: 0, dur_ns: 0 });
        let parent = self.current.replace(id);
        let start = Instant::now();
        let out = f(self);
        let dur = start.elapsed();
        self.current = parent;
        let span = &mut self.spans[id];
        span.start_ns = (start - self.origin).as_nanos() as u64;
        span.dur_ns = dur.as_nanos() as u64;
        out
    }

    /// Median duration of the spans called `name`, in `ns / scale` units.
    pub fn median(&self, name: &str, scale: f64) -> f64 {
        let durations: Vec<f64> =
            self.spans.iter().filter(|s| s.name == name).map(|s| s.dur_ns as f64).collect();
        median(&durations) / scale
    }

    /// Appends another thread's spans, keeping parent links valid.
    pub fn absorb(&mut self, other: Tracer) {
        let base = self.spans.len();
        let shift = other.origin.saturating_duration_since(self.origin).as_nanos() as u64;
        self.spans.extend(other.spans.into_iter().map(|s| Span {
            parent: s.parent.map(|p| p + base),
            start_ns: s.start_ns + shift,
            ..s
        }));
    }

    /// Writes the spans as a Chrome trace (`chrome://tracing`, Perfetto).
    pub fn write_chrome_trace(&self, path: &std::path::Path) -> std::io::Result<()> {
        use std::io::Write;
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "{{\"traceEvents\":[")?;
        for (i, s) in self.spans.iter().enumerate() {
            let sep = if i + 1 == self.spans.len() { "" } else { "," };
            writeln!(
                out,
                "{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":{},\"ts\":{:.3},\"dur\":{:.3},\
                 \"args\":{{\"parent\":{}}}}}{sep}",
                s.name,
                s.req,
                s.start_ns as f64 / 1e3,
                s.dur_ns as f64 / 1e3,
                s.parent.map_or(-1, |p| p as i64),
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
    fn quantile_interpolates() {
        assert_eq!(quantile(&mut [3.0, 1.0, 2.0], 0.5), 2.0);
        assert_eq!(quantile(&mut [1.0, 2.0], 0.5), 1.5);
        assert_eq!(quantile(&mut [], 0.9), 0.0);
    }

    #[test]
    fn shuffle_is_seeded() {
        let run = |seed| {
            let mut v: Vec<u32> = (0..50).collect();
            Rng::new(seed).shuffle(&mut v);
            v
        };
        assert_eq!(run(7), run(7));
        assert_ne!(run(7), run(8));
    }

    #[test]
    fn spans_nest() {
        let mut t = Tracer::new(true);
        t.span("outer", |t| t.span("inner", |_| ()));
        assert_eq!(t.spans.len(), 2);
        assert_eq!(t.spans[1].parent, Some(0));
        assert!(t.spans[0].dur_ns >= t.spans[1].dur_ns);
    }
}
