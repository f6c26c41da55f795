//! The metrics a run prints: end-to-end ones from the untraced window,
//! per-layer ones from the window's counter deltas and the traced run.

use crate::layers::{Snap, ROUTES};
use crate::session::Outcome;
use crate::{TraceAcc, SUB_WINDOWS};

/// The untraced measured window.
pub struct Measured<'a> {
    pub outcomes: &'a [Outcome],
    /// Asked length of the window (no session starts after it), s.
    pub window_s: f64,
    /// Start to the end of the last session, s.
    pub elapsed_s: f64,
    /// See [`crate::Window::cpu_marks`].
    pub cpu_marks: Vec<f64>,
    /// Peak resident memory during the window, MiB.
    pub peak_rss_mb: f64,
    pub before: &'a Snap,
    pub after: &'a Snap,
}

impl Measured<'_> {
    fn ok(&self) -> Vec<&Outcome> {
        self.outcomes.iter().filter(|o| o.error.is_none()).collect()
    }

    /// Counter delta over the window.
    fn delta(&self, f: fn(&Snap) -> u64) -> f64 {
        (f(self.after) - f(self.before)) as f64
    }
}

pub fn quantile(mut v: Vec<f64>, q: f64) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    v.sort_by(f64::total_cmp);
    let pos = q * (v.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

fn mean(v: &[f64]) -> f64 {
    if v.is_empty() {
        0.0
    } else {
        v.iter().sum::<f64>() / v.len() as f64
    }
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

pub struct Metric {
    name: String,
    value: f64,
    unit: &'static str,
}

#[derive(Default)]
pub struct Metrics(Vec<Metric>);

impl Metrics {
    fn add(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.0.push(Metric {
            name: name.into(),
            value,
            unit,
        });
    }

    pub fn print(&self) {
        for m in &self.0 {
            println!("  {:<44} {:>14.4} {}", m.name, m.value, m.unit);
        }
    }

    /// The `metrics` object of the result line.
    pub fn json(&self) -> String {
        let fields: Vec<String> = self
            .0
            .iter()
            .map(|m| {
                // JSON has no NaN or infinity; a metric with no samples is 0.
                let v = if m.value.is_finite() { m.value } else { 0.0 };
                format!(r#""{}":{{"value":{v:?},"unit":"{}"}}"#, m.name, m.unit)
            })
            .collect();
        format!("{{{}}}", fields.join(","))
    }
}

/// What a user of the service sees: each metric is taken over each of the
/// window's [`SUB_WINDOWS`] parts, and the median over the parts is
/// reported. A session belongs to the part it ended in; the last part
/// runs on until the last session ends.
pub fn end_to_end(m: &Measured, setup_s: &[f64]) -> Metrics {
    let part = m.window_s / SUB_WINDOWS as f64;
    let parts: Vec<Vec<&Outcome>> = (0..SUB_WINDOWS)
        .map(|k| {
            m.ok()
                .into_iter()
                .filter(|o| ((o.done_s / part) as usize).min(SUB_WINDOWS - 1) == k)
                .collect()
        })
        .collect();
    let median_over_parts = |f: &dyn Fn(usize, &[&Outcome]) -> f64| {
        quantile(
            parts.iter().enumerate().map(|(k, p)| f(k, p)).collect(),
            0.5,
        )
    };
    let wall = |p: &[&Outcome], q: f64| quantile(p.iter().map(|o| o.session_us / 1e3).collect(), q);
    let first =
        |p: &[&Outcome], q: f64| quantile(p.iter().map(|o| o.wall_us[0] / 1e3).collect(), q);
    let len = |k: usize| {
        if k + 1 == SUB_WINDOWS {
            m.elapsed_s - part * k as f64
        } else {
            part
        }
    };
    let mut out = Metrics::default();
    out.add("setup_s", quantile(setup_s.to_vec(), 0.5), "s");
    out.add(
        "sessions_per_s",
        median_over_parts(&|k, p| p.len() as f64 / len(k)),
        "1/s",
    );
    out.add(
        "session_ms.p50",
        median_over_parts(&|_, p| wall(p, 0.5)),
        "ms",
    );
    out.add(
        "session_ms.p90",
        median_over_parts(&|_, p| wall(p, 0.9)),
        "ms",
    );
    out.add(
        "first_page_ms.p50",
        median_over_parts(&|_, p| first(p, 0.5)),
        "ms",
    );
    out.add(
        "first_page_ms.p90",
        median_over_parts(&|_, p| first(p, 0.9)),
        "ms",
    );
    out.add(
        "cpu_ms_per_session",
        median_over_parts(&|k, p| ratio(m.cpu_marks[k + 1] - m.cpu_marks[k], p.len() as f64)),
        "ms",
    );
    out.add("peak_rss_mb", m.peak_rss_mb, "MiB");
    out
}

/// Trace keys of each reported layer. The roots are handler time no span
/// covers: routing, decoding, session bookkeeping — and the engine's
/// compute on the create call, which has no span of its own yet.
pub const LAYER_SPANS: [(&str, &[&str]); 8] = [
    (
        "service.self_us",
        &["root.create", "root.stream", "root.delete"],
    ),
    ("engine.self_us", &["stream.page"]),
    ("recon.serve_self_us", &["recon.serve"]),
    ("cache.lookup_self_us", &["cache.lookup"]),
    ("sched.queue_self_us", &["sched.queue"]),
    ("resilient.self_us", &["resilient.search"]),
    ("traffic.self_us", &["traffic.shape"]),
    ("webdb.search_self_us", &["webdb.search"]),
];

/// Traced self time per session of each reported layer, µs.
fn layer_self_us(acc: &TraceAcc, sessions: usize) -> Vec<(&'static str, f64)> {
    LAYER_SPANS
        .iter()
        .map(|(name, keys)| {
            let total: f64 = keys
                .iter()
                .map(|k| acc.self_us.get(*k).copied().unwrap_or(0.0))
                .sum();
            (*name, total / sessions.max(1) as f64)
        })
        .collect()
}

/// Client wall time per traced session that no root or span accounts
/// for: HTTP parsing and writing, the loopback, the client.
fn unattributed_us(acc: &TraceAcc, traced: &[Outcome]) -> f64 {
    let wall: f64 = traced.iter().map(|o| o.session_us).sum();
    (wall - acc.covered_us) / traced.len().max(1) as f64
}

/// Where each layer's time, work and waste go.
pub fn per_layer(
    m: &Measured,
    acc: &TraceAcc,
    traced: &[Outcome],
    crawl: (f64, u64),
    phases: &[(&str, &Vec<Outcome>)],
    cost_errors: &[String],
) -> Metrics {
    let ok = m.ok();
    let n = ok.len().max(1) as f64;
    let per = |f: fn(&Snap) -> u64| m.delta(f) / n;
    let col = |f: &dyn Fn(&Outcome) -> f64| ok.iter().map(|o| f(o)).collect::<Vec<f64>>();
    let mut out = Metrics::default();

    // http
    let connects: Vec<f64> = ok.iter().flat_map(|o| o.connect_us).collect();
    out.add("http.connect_us.p50", quantile(connects, 0.5), "us");
    for (i, (route, _)) in ROUTES.iter().enumerate() {
        out.add(
            format!("http.{route}_us.p50"),
            quantile(col(&|o| o.wall_us[i]), 0.5),
            "us",
        );
        out.add(
            format!("http.handler_us.{route}.p50"),
            m.after.handler[i].minus(&m.before.handler[i]).quantile(0.5),
            "us",
        );
        out.add(
            format!("http.transport_us.{route}.p50"),
            quantile(acc.transport_us[i].clone(), 0.5),
            "us",
        );
    }
    out.add(
        "http.resp_bytes_per_session",
        mean(&col(&|o| o.resp_bytes as f64)),
        "bytes",
    );

    // traced self time of every layer
    for (name, us) in layer_self_us(acc, traced.len()) {
        out.add(name, us, "us");
    }

    // service + NDJSON
    out.add(
        "ndjson.lines_per_session",
        mean(&col(&|o| o.lines as f64)),
        "count",
    );
    let recon = m.delta(|s| s.created_recon);
    out.add(
        "service.recon_served_share",
        ratio(recon, recon + m.delta(|s| s.created_live)),
        "ratio",
    );

    // cache
    let free = m.delta(|s| s.cache_hits) + m.delta(|s| s.cache_coalesced);
    out.add(
        "cache.hit_rate",
        ratio(free, free + m.delta(|s| s.cache_misses)),
        "ratio",
    );
    out.add("cache.misses_per_session", per(|s| s.cache_misses), "count");
    out.add(
        "cache.coalesced_per_session",
        per(|s| s.cache_coalesced),
        "count",
    );
    out.add(
        "cache.evictions_per_session",
        per(|s| s.cache_evictions),
        "count",
    );

    // sched
    out.add(
        "sched.dispatched_per_session",
        per(|s| s.sched_dispatched),
        "count",
    );
    out.add(
        "sched.coalesced_frontier_hits_per_session",
        per(|s| s.sched_frontier_hits),
        "count",
    );
    out.add(
        "sched.throttle_waits_per_session",
        per(|s| s.sched_throttle_waits),
        "count",
    );
    let delay = m.after.queue_delay.minus(&m.before.queue_delay);
    out.add("sched.queue_delay_ms.p50", delay.quantile(0.5) / 1e3, "ms");
    out.add("sched.queue_delay_ms.p99", delay.quantile(0.99) / 1e3, "ms");

    // webdb: the counting wrapper, the ledger, traffic shaping, retries
    out.add("paid_per_session", per(|s| s.ledger), "queries");
    out.add("webdb.calls_per_session", per(|s| s.db_calls), "count");
    out.add(
        "webdb.busy_us_per_session",
        per(|s| s.db_busy_ns) / 1e3,
        "us",
    );
    out.add(
        "webdb.call_us.p50",
        m.after.db_latency.minus(&m.before.db_latency).quantile(0.5),
        "us",
    );
    out.add(
        "webdb.indexed_share",
        ratio(m.delta(|s| s.ledger_indexed), m.delta(|s| s.ledger)),
        "ratio",
    );
    out.add(
        "traffic.throttled_per_session",
        per(|s| s.traffic_throttled),
        "count",
    );
    out.add("resilient.retries_per_session", per(|s| s.retries), "count");

    // engine
    out.add(
        "engine.rounds_per_session",
        mean(&col(&|o| o.rounds)),
        "count",
    );
    out.add(
        "engine.parallel_fraction",
        mean(&col(&|o| o.parallel_fraction)),
        "ratio",
    );

    // recon
    out.add(
        "recon.serve_us.p50",
        quantile(acc.recon_serve_us.clone(), 0.5),
        "us",
    );
    out.add(
        "recon.hits_per_session",
        mean(&col(&|o| o.recon_hits)),
        "count",
    );
    out.add("setup.recon_crawl_s", crawl.0, "s");
    out.add("setup.recon_crawl_paid", crawl.1 as f64, "queries");

    // the traced run against the untraced one
    let traced_ms: Vec<f64> = traced.iter().map(|o| o.session_us / 1e3).collect();
    let session_ms: Vec<f64> = col(&|o| o.session_us / 1e3);
    out.add("trace.unattributed_us", unattributed_us(acc, traced), "us");
    out.add(
        "trace.overhead",
        ratio(quantile(traced_ms, 0.5), quantile(session_ms, 0.5)),
        "ratio",
    );
    out.add("trace.missing", acc.missing as f64, "count");

    // correctness, per phase
    let measured_failed = m.outcomes.iter().filter(|o| o.error.is_some()).count();
    out.add(
        "error_rate",
        ratio(measured_failed as f64, m.outcomes.len() as f64),
        "ratio",
    );
    out.add(
        "check.cost_accounting_ok",
        if cost_errors.is_empty() { 1.0 } else { 0.0 },
        "bool",
    );
    for (phase, list) in phases {
        let failed = list.iter().filter(|o| o.error.is_some()).count();
        out.add(format!("phase.{phase}.sent"), list.len() as f64, "count");
        out.add(
            format!("phase.{phase}.ok"),
            (list.len() - failed) as f64,
            "count",
        );
        out.add(format!("phase.{phase}.failed"), failed as f64, "count");
    }
    out
}

/// The traced run's layer table: self time per session by layer, largest
/// first, and the client wall time no span accounts for. Self times of
/// parallel probes are thread time, so the shares can add up past 100%.
pub fn print_layer_table(acc: &TraceAcc, traced: &[Outcome]) {
    let wall = mean(&traced.iter().map(|o| o.session_us).collect::<Vec<_>>());
    println!(
        "traced layer table ({} sessions, client wall {wall:.1} us/session):",
        traced.len()
    );
    let mut rows = layer_self_us(acc, traced.len());
    rows.sort_by(|a, b| b.1.total_cmp(&a.1));
    rows.push(("unattributed (http, client)", unattributed_us(acc, traced)));
    for (name, us) in rows {
        println!(
            "  {name:<32} {us:>12.1} us {:>6.1}%",
            100.0 * ratio(us, wall)
        );
    }
}
