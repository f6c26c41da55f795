//! Measuring each layer from outside: a counting wrapper around the raw
//! web database, before/after snapshots of every layer's public
//! counters, and self time per span from the program's own traces.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use qr2_obs::{Histogram, TraceSnapshot};
use qr2_service::Source;
use qr2_webdb::{
    QueryLedger, Schema, SearchOutcome, SearchQuery, SimulatedWebDb, TopKInterface, TopKResponse,
};

/// The `db` every source is built over: forwards to the raw simulated
/// database and counts and times every call that reaches it — each one a
/// paid web-DB query.
pub struct CountingDb {
    inner: Arc<SimulatedWebDb>,
    calls: AtomicU64,
    busy_ns: AtomicU64,
    latency: Histogram,
}

impl CountingDb {
    pub fn new(inner: Arc<SimulatedWebDb>) -> CountingDb {
        CountingDb {
            inner,
            calls: AtomicU64::new(0),
            busy_ns: AtomicU64::new(0),
            latency: Histogram::default(),
        }
    }

    fn timed<R>(&self, f: impl FnOnce() -> R) -> R {
        let start = Instant::now();
        let out = f();
        let took = start.elapsed();
        self.calls.fetch_add(1, Ordering::Relaxed);
        self.busy_ns
            .fetch_add(took.as_nanos() as u64, Ordering::Relaxed);
        self.latency.record(took);
        out
    }
}

impl TopKInterface for CountingDb {
    fn schema(&self) -> &Schema {
        self.inner.schema()
    }

    fn system_k(&self) -> usize {
        self.inner.system_k()
    }

    fn search(&self, q: &SearchQuery) -> TopKResponse {
        self.timed(|| self.inner.search(q))
    }

    fn ledger(&self) -> &QueryLedger {
        self.inner.ledger()
    }

    fn search_observed(&self, q: &SearchQuery) -> (TopKResponse, SearchOutcome) {
        self.timed(|| self.inner.search_observed(q))
    }

    fn search_authoritative(&self, q: &SearchQuery) -> (TopKResponse, bool) {
        self.timed(|| self.inner.search_authoritative(q))
    }

    fn search_observed_authoritative(
        &self,
        q: &SearchQuery,
    ) -> (TopKResponse, SearchOutcome, bool) {
        self.timed(|| self.inner.search_observed_authoritative(q))
    }
}

/// Per-bucket counts of a histogram (bucket upper bound µs → samples),
/// so two snapshots can be subtracted.
#[derive(Clone, Default)]
pub struct Buckets(BTreeMap<u64, u64>);

impl Buckets {
    pub fn of(h: &Histogram) -> Buckets {
        let mut prev = 0;
        Buckets(
            h.cumulative_buckets()
                .into_iter()
                .map(|(upper, cum)| {
                    let n = cum - prev;
                    prev = cum;
                    (upper, n)
                })
                .collect(),
        )
    }

    pub fn minus(&self, before: &Buckets) -> Buckets {
        Buckets(
            self.0
                .iter()
                .map(|(&upper, &n)| (upper, n - before.0.get(&upper).copied().unwrap_or(0)))
                .filter(|&(_, n)| n > 0)
                .collect(),
        )
    }

    /// Exact-bucket quantile (bucket upper bound, µs); 0 when empty.
    pub fn quantile(&self, q: f64) -> f64 {
        let total: u64 = self.0.values().sum();
        if total == 0 {
            return 0.0;
        }
        let target = ((q * total as f64).ceil() as u64).max(1);
        let mut seen = 0;
        for (&upper, &n) in &self.0 {
            seen += n;
            if seen >= target {
                return upper as f64;
            }
        }
        0.0
    }
}

/// The routes one session calls, in order.
pub const ROUTES: [(&str, &str); 3] = [
    ("create", "/v1/sources/:source/queries"),
    ("stream", "/v1/queries/:id/stream"),
    ("delete", "/v1/queries/:id"),
];

/// Process CPU time (user + system), milliseconds, from `/proc/self/stat`.
pub fn cpu_ms() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    let after = stat.rsplit_once(") ").map_or("", |(_, rest)| rest);
    let fields: Vec<&str> = after.split_whitespace().collect();
    let ticks = |i: usize| {
        fields
            .get(i)
            .and_then(|v| v.parse::<f64>().ok())
            .unwrap_or(0.0)
    };
    // utime and stime are fields 14 and 15 of the line, in clock ticks
    // (100 per second on Linux).
    (ticks(11) + ticks(12)) * 10.0
}

/// Reset the peak resident set size to the current one, so the next
/// [`peak_rss_mb`] covers only what runs in between.
pub fn reset_peak_rss() {
    // Ignored where unsupported: the peak then covers the whole process.
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// Peak resident set size (`VmHWM`), MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// One point-in-time reading of every layer's public counters.
#[derive(Clone, Default)]
pub struct Snap {
    pub cache_hits: u64,
    pub cache_misses: u64,
    pub cache_coalesced: u64,
    pub cache_evictions: u64,
    pub sched_dispatched: u64,
    pub sched_frontier_hits: u64,
    pub sched_throttle_waits: u64,
    pub traffic_throttled: u64,
    pub retries: u64,
    pub ledger: u64,
    pub ledger_indexed: u64,
    pub db_calls: u64,
    pub db_busy_ns: u64,
    pub db_latency: Buckets,
    pub created_live: u64,
    pub created_recon: u64,
    pub handler: [Buckets; 3],
    pub queue_delay: Buckets,
}

impl Snap {
    pub fn take(source: &Source, db: &CountingDb) -> Snap {
        let cache = source.cache.stats();
        let sched = source.sched.stats();
        let traffic = source.sched.shaped().traffic_stats();
        let ledger = source.db.ledger();
        let name = source.name.as_str();
        let counter =
            |family: &str, labels: &[(&str, &str)]| qr2_obs::counter(family, labels).get();
        let hist = |family: &str, labels: &[(&str, &str)]| {
            Buckets::of(&qr2_obs::histogram(family, labels))
        };
        Snap {
            cache_hits: cache.hits,
            cache_misses: cache.misses,
            cache_coalesced: cache.coalesced,
            cache_evictions: cache.evictions,
            sched_dispatched: sched.dispatched,
            sched_frontier_hits: sched.coalesced_frontier_hits,
            sched_throttle_waits: sched.throttle_waits,
            traffic_throttled: traffic.throttled,
            retries: source.sched.resilient().health().retries,
            ledger: ledger.total(),
            ledger_indexed: ledger.exec_breakdown().indexed,
            db_calls: db.calls.load(Ordering::Relaxed),
            db_busy_ns: db.busy_ns.load(Ordering::Relaxed),
            db_latency: Buckets::of(&db.latency),
            created_live: counter(
                "qr2_service_sessions_created_total",
                &[("served_by", "live"), ("source", name)],
            ),
            created_recon: counter(
                "qr2_service_sessions_created_total",
                &[("served_by", "recon"), ("source", name)],
            ),
            handler: ROUTES
                .map(|(_, route)| hist("qr2_http_request_duration_us", &[("route", route)])),
            queue_delay: hist(
                "qr2_sched_queue_delay_us",
                &[("class", "interactive"), ("source", name)],
            ),
        }
    }
}

/// Spans nest in this order (outermost first); a span's parent is the
/// tightest span of an outer kind whose interval contains it. Span
/// snapshots carry no parent link, and a parallel round's probes overlap
/// in time, so nesting is inferred from interval and kind.
const NESTING: [&str; 7] = [
    "stream.page",
    "recon.serve",
    "cache.lookup",
    "sched.queue",
    "resilient.search",
    "traffic.shape",
    "webdb.search",
];

fn depth(name: &str) -> usize {
    NESTING
        .iter()
        .position(|n| *n == name)
        .unwrap_or(NESTING.len())
}

/// Total length of the union of `[start, end)` intervals, clipped to
/// `[lo, hi)`.
fn union_len(mut iv: Vec<(u64, u64)>, lo: u64, hi: u64) -> u64 {
    iv.sort_unstable();
    let mut total = 0;
    let mut cur: Option<(u64, u64)> = None;
    for (s, e) in iv {
        let (s, e) = (s.max(lo), e.min(hi));
        if s >= e {
            continue;
        }
        cur = match cur {
            Some((cs, ce)) if s <= ce => Some((cs, ce.max(e))),
            Some((cs, ce)) => {
                total += ce - cs;
                Some((s, e))
            }
            None => Some((s, e)),
        };
    }
    if let Some((cs, ce)) = cur {
        total += ce - cs;
    }
    total
}

/// Self time of every span of one trace, summed by span name into `acc`
/// (µs), plus the request root's own self time under `root_key`: the
/// root's duration minus what its top-level spans cover. A stream's spans
/// run after its handler returned, so they fall outside the root and
/// count only under their own names. Parallel probes overlap, so these
/// sums are thread time and may exceed wall time.
///
/// Returns the wall time the trace accounts for: the union of the root's
/// interval and every span's.
pub fn add_self_times(
    trace: &TraceSnapshot,
    root_key: &str,
    acc: &mut BTreeMap<String, f64>,
) -> u64 {
    let spans = &trace.spans;
    let end = |i: usize| spans[i].start_us + spans[i].dur_us;
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    let mut top: Vec<(u64, u64)> = Vec::new();
    for (i, s) in spans.iter().enumerate() {
        let parent = (0..spans.len())
            .filter(|&j| {
                j != i
                    && depth(spans[j].name) < depth(s.name)
                    && spans[j].start_us <= s.start_us
                    && end(i) <= end(j)
            })
            .min_by_key(|&j| spans[j].dur_us);
        match parent {
            Some(j) => children[j].push((s.start_us, end(i))),
            None => top.push((s.start_us, end(i))),
        }
    }
    for (i, s) in spans.iter().enumerate() {
        let covered = union_len(std::mem::take(&mut children[i]), s.start_us, end(i));
        *acc.entry(s.name.to_string()).or_default() += (s.dur_us - covered) as f64;
    }
    let covered = union_len(top.clone(), 0, trace.total_us);
    *acc.entry(root_key.to_string()).or_default() += (trace.total_us - covered) as f64;
    top.push((0, trace.total_us));
    union_len(top, 0, u64::MAX)
}

#[cfg(test)]
mod tests {
    use super::*;
    use qr2_obs::SpanSnapshot;

    fn span(name: &'static str, start_us: u64, dur_us: u64) -> SpanSnapshot {
        SpanSnapshot {
            name,
            start_us,
            dur_us,
            attrs: Vec::new(),
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        // Two overlapping parallel lookups, one with a nested queue span;
        // the queue span belongs to the tighter lookup.
        let trace = TraceSnapshot {
            id: "t".into(),
            root: "POST /x".into(),
            total_us: 100,
            slow: false,
            spans: vec![
                span("cache.lookup", 10, 50),
                span("cache.lookup", 20, 20),
                span("sched.queue", 22, 10),
            ],
        };
        let mut acc = BTreeMap::new();
        assert_eq!(add_self_times(&trace, "root", &mut acc), 100);
        assert_eq!(acc["cache.lookup"], (50.0) + (20.0 - 10.0));
        assert_eq!(acc["sched.queue"], 10.0);
        assert_eq!(acc["root"], 100.0 - 50.0);
    }

    #[test]
    fn bucket_deltas_give_window_quantiles() {
        let h = Histogram::default();
        h.record_us(1000);
        let before = Buckets::of(&h);
        for _ in 0..9 {
            h.record_us(10);
        }
        let delta = Buckets::of(&h).minus(&before);
        assert!(delta.quantile(0.99) < 20.0);
    }
}
