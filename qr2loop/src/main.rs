//! `qr2loop` — an end-to-end loopback benchmark of the QR2 service.
//!
//! Boots the real service in process (`Qr2App::serve` on an ephemeral
//! loopback port, the server's default worker count) and drives it with
//! raw HTTP/1.1 from a closed loop of client threads: each sends one
//! session — create, NDJSON stream to a fixed depth, delete — and waits
//! for it to finish before sending the next. Every layer is measured from
//! outside: a counting wrapper under the source, before/after snapshots of
//! each layer's public stats, and (with `--trace 1`) self time per span
//! from the server's own traces. See `README.md`.
//!
//! ```sh
//! cargo run --release --manifest-path qr2loop/Cargo.toml -- \
//!     --workload warm_popular --seed 1 --seconds 10 --trace 0
//! ```
//!
//! The last line of standard output is one JSON object:
//! `{"correct":…,"attempted":…,"failed":…,"metrics":{name:{value,unit}}}`
//! — the end-to-end metrics with `--trace 0`, the per-layer ones with
//! `--trace 1`. Lines before it are a human-readable report.

mod client;
mod layers;
mod oracle;
mod report;
mod session;
mod workload;

use std::collections::{BTreeMap, HashMap};
use std::net::SocketAddr;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use qr2_http::HttpServer;
use qr2_service::{Qr2App, Source, SourceRegistry};
use qr2_webdb::SimulatedWebDb;

use layers::{add_self_times, CountingDb, Snap, ROUTES};
use session::Outcome;
use workload::{Generator, Workload, MEASURED, PAGE_SIZE, STREAM_LIMIT, WARMUP};

/// `qr2-server`'s default `--workers`.
const SERVER_WORKERS: usize = 4;
/// Set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 5;
/// `warm_popular` repeats its warm-up pass until one pays nothing, at
/// most this many times.
const MAX_WARM_PASSES: usize = 4;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = 10.0;
    let mut trace = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(&value).ok_or_else(|| {
                    let names: Vec<_> = Workload::ALL.iter().map(|w| w.name()).collect();
                    format!("unknown workload {value:?} (one of {})", names.join(", "))
                })?)
            }
            "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                seconds = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(seconds > 0.0 && seconds <= 120.0) {
                    return Err("--seconds must be in (0, 120]".into());
                }
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace must be 0 or 1".into()),
                }
            }
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace,
    })
}

/// A booted service and what the benchmark needs to measure it.
struct Env {
    server: HttpServer,
    addr: SocketAddr,
    source: Arc<Source>,
    raw: Arc<SimulatedWebDb>,
    counting: Arc<CountingDb>,
    generator: Generator,
    warmup: Vec<Outcome>,
    crawl_s: f64,
    crawl_paid: u64,
}

/// Boot: data generation, source build, server start, recon crawl (for
/// `recon_covered`), warm-up sessions.
fn setup(args: &Args) -> Result<Env, String> {
    let wl = args.workload;
    let (source, raw, counting) = wl.build_source();
    let mut registry = SourceRegistry::new();
    registry.register(source);
    let app = Qr2App::new(registry);
    let source = app
        .state()
        .registry
        .get(wl.source_name())
        .ok_or("source missing from its registry")?;
    let server = app
        .serve("127.0.0.1:0", SERVER_WORKERS)
        .map_err(|e| format!("bind: {e}"))?;
    let addr = server.addr();
    let generator = Generator::new(wl, args.seed, &raw);
    let mut env = Env {
        server,
        addr,
        source,
        raw,
        counting,
        generator,
        warmup: Vec::new(),
        crawl_s: 0.0,
        crawl_paid: 0,
    };
    if wl.crawls() {
        crawl(&mut env)?;
    }
    for _pass in 0..MAX_WARM_PASSES {
        let paid_before = env.source.db.ledger().total();
        for i in 0..wl.warmup() as u64 {
            let spec = env.generator.spec(WARMUP, i);
            let o = session::run(addr, wl.source_name(), &spec.body(), i, None);
            env.warmup.push(o);
        }
        if wl != Workload::WarmPopular || env.source.db.ledger().total() == paid_before {
            break;
        }
    }
    Ok(env)
}

/// Crawl the whole source into its recon index through the service's
/// own endpoint, and wait for the job to finish.
fn crawl(env: &mut Env) -> Result<(), String> {
    let start = Instant::now();
    let paid_before = env.source.db.ledger().total();
    let path = format!("/v1/sources/{}/recon", env.source.name);
    loop {
        let status = env
            .source
            .recon
            .status(env.source.schema(), env.source.cache.epoch());
        let running = status.job.as_ref().is_some_and(|j| j.state == "running");
        if status.state == "complete" && !running {
            break;
        }
        if !running {
            let r = client::send(env.addr, "POST", &path, Some("{}"), None)?;
            if r.status != 202 {
                return Err(format!("recon start: status {}", r.status));
            }
        }
        if start.elapsed() > Duration::from_secs(60) {
            return Err("recon crawl did not complete within 60 s".into());
        }
        std::thread::sleep(Duration::from_millis(2));
    }
    env.crawl_s = start.elapsed().as_secs_f64();
    env.crawl_paid = env.source.db.ledger().total() - paid_before;
    Ok(())
}

/// What the traced run's span trees say, summed over its sessions.
#[derive(Default)]
pub struct TraceAcc {
    /// Self time by span name (and `root.<route>`), µs.
    pub self_us: BTreeMap<String, f64>,
    /// Wall time the traces account for (roots and spans), µs.
    pub covered_us: f64,
    /// Durations of every `recon.serve` span, µs.
    pub recon_serve_us: Vec<f64>,
    /// Per route: client wall minus the request's root span, µs.
    pub transport_us: [Vec<f64>; 3],
    /// Requests whose trace was not found.
    pub missing: u64,
}

/// The sessions of one closed-loop window.
pub struct Window {
    pub outcomes: Vec<Outcome>,
    /// Start to the end of the last session, s.
    pub elapsed_s: f64,
    /// Process CPU time (ms) at the start of each of the
    /// [`SUB_WINDOWS`] equal parts of the window, and at its end.
    pub cpu_marks: Vec<f64>,
}

/// The measured window is cut into this many equal parts; end-to-end
/// metrics are the median of their values over the parts, so a slowdown
/// of the machine that lasts under two fifths of the window moves none
/// of them.
pub const SUB_WINDOWS: usize = 5;

/// Run sessions `0, 1, 2, …` of the measured phase from `clients`
/// closed-loop threads until `duration` has passed (no session starts
/// after it). With `acc`, every request carries an `x-request-id`, so the
/// server traces it in full, and its trace is read right after the
/// session.
fn closed_loop(
    env: &Env,
    args: &Args,
    duration: Duration,
    clients: usize,
    acc: Option<&Mutex<TraceAcc>>,
) -> Window {
    let wl = args.workload;
    let next = AtomicU64::new(0);
    let mut cpu_marks = vec![layers::cpu_ms()];
    let start = Instant::now();
    let deadline = start + duration;
    let mut outcomes: Vec<Outcome> = std::thread::scope(|scope| {
        let marks = scope.spawn(|| {
            (1..SUB_WINDOWS as u32)
                .map(|k| {
                    let at = start + duration * k / SUB_WINDOWS as u32;
                    std::thread::sleep(at.saturating_duration_since(Instant::now()));
                    layers::cpu_ms()
                })
                .collect::<Vec<f64>>()
        });
        let handles: Vec<_> = (0..clients)
            .map(|_| {
                scope.spawn(|| {
                    let mut mine = Vec::new();
                    while Instant::now() < deadline {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        let body = env.generator.spec(MEASURED, i).body();
                        let trace_id = acc.map(|_| format!("qr2loop-{}-{i}", args.seed));
                        let mut o =
                            session::run(env.addr, wl.source_name(), &body, i, trace_id.as_deref());
                        o.done_s = start.elapsed().as_secs_f64();
                        if let Some(acc) = acc {
                            collect_traces(&o, &mut acc.lock().expect("trace accumulator"));
                        }
                        mine.push(o);
                    }
                    mine
                })
            })
            .collect();
        let outcomes = handles
            .into_iter()
            .flat_map(|h| h.join().expect("client thread panicked"))
            .collect();
        cpu_marks.extend(marks.join().expect("cpu sampler panicked"));
        outcomes
    });
    let elapsed_s = start.elapsed().as_secs_f64();
    cpu_marks.push(layers::cpu_ms());
    outcomes.sort_by_key(|o| o.index);
    Window {
        outcomes,
        elapsed_s,
        cpu_marks,
    }
}

/// Read the three traces of one session (right away: the server keeps
/// only its most recent traces) and add them up.
fn collect_traces(o: &Outcome, acc: &mut TraceAcc) {
    let Some(ids) = &o.request_ids else { return };
    for (i, (id, (route, _))) in ids.iter().zip(ROUTES).enumerate() {
        let Some(t) = qr2_obs::find_trace(id) else {
            acc.missing += 1;
            continue;
        };
        acc.covered_us += add_self_times(&t, &format!("root.{route}"), &mut acc.self_us) as f64;
        acc.transport_us[i].push(o.wall_us[i] - t.total_us as f64);
        acc.recon_serve_us.extend(
            t.spans
                .iter()
                .filter(|s| s.name == "recon.serve")
                .map(|s| s.dur_us as f64),
        );
    }
}

/// Compare each successful session's tuples with the oracle; a mismatch
/// becomes the session's error.
fn check_answers(env: &Env, phase: u64, outcomes: &mut [Outcome]) {
    let norm = env.source.reranker.normalizer();
    let mut memo: HashMap<String, Result<Vec<u32>, String>> = HashMap::new();
    for o in outcomes.iter_mut().filter(|o| o.error.is_none()) {
        let spec = env.generator.spec(phase, o.index);
        let want = memo.entry(spec.body()).or_insert_with(|| {
            oracle::expected_ids(&env.raw, norm, &spec, PAGE_SIZE + STREAM_LIMIT)
        });
        o.error = match want {
            Err(e) => Some(format!("oracle: {e}")),
            Ok(want) if *want == o.ids => None,
            Ok(want) => {
                let at = want.iter().zip(&o.ids).take_while(|(a, b)| a == b).count();
                Some(format!(
                    "wrong answer: {} tuples, expected {}, first difference at {at}",
                    o.ids.len(),
                    want.len()
                ))
            }
        };
    }
}

/// The cost-accounting check over one window: every paid call the
/// wrapper saw is in the ledger, and — when nothing was retried — every
/// ledger entry is one scheduler dispatch.
fn check_costs(window: &str, before: &Snap, after: &Snap, errors: &mut Vec<String>) {
    let paid = after.db_calls - before.db_calls;
    let ledger = after.ledger - before.ledger;
    if paid != ledger {
        errors.push(format!(
            "{window}: wrapper counted {paid} paid, ledger {ledger}"
        ));
    }
    let dispatched = after.sched_dispatched - before.sched_dispatched;
    if after.retries == before.retries && dispatched != ledger {
        errors.push(format!(
            "{window}: scheduler dispatched {dispatched}, ledger {ledger}"
        ));
    }
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("qr2loop: {e}");
            std::process::exit(2);
        }
    };
    match run(&args) {
        Ok(line) => println!("{line}"),
        Err(e) => {
            eprintln!("qr2loop: {e}");
            std::process::exit(1);
        }
    }
}

fn run(args: &Args) -> Result<String, String> {
    let clients = std::thread::available_parallelism()
        .map_or(1, |n| n.get())
        .min(args.workload.clients());
    let window = Duration::from_secs_f64(args.seconds);

    // Set up several times; the last set-up is measured.
    let mut setup_s = Vec::new();
    let mut env = None;
    for _ in 0..SETUP_REPS {
        if let Some(Env { server, .. }) = env.take() {
            server.stop();
        }
        let start = Instant::now();
        env = Some(setup(args)?);
        setup_s.push(start.elapsed().as_secs_f64());
    }
    let mut env = env.expect("at least one set-up");
    let mut warmup = std::mem::take(&mut env.warmup);

    // The measured window: untraced, the program's default head sampling.
    layers::reset_peak_rss();
    let before = Snap::take(&env.source, &env.counting);
    let Window {
        outcomes: mut measured,
        elapsed_s,
        cpu_marks,
    } = closed_loop(&env, args, window, clients, None);
    let after = Snap::take(&env.source, &env.counting);
    let peak_rss_mb = layers::peak_rss_mb();
    let mut cost_errors = Vec::new();
    check_costs("measured", &before, &after, &mut cost_errors);
    check_answers(&env, WARMUP, &mut warmup);
    check_answers(&env, MEASURED, &mut measured);
    let crawl = (env.crawl_s, env.crawl_paid);
    env.server.stop();

    // The traced run: a fresh set-up replaying the same sessions, every
    // request traced in full.
    let mut traced = Vec::new();
    let acc = Mutex::new(TraceAcc::default());
    if args.trace {
        let mut env = setup(args)?;
        warmup.append(&mut env.warmup);
        let b = Snap::take(&env.source, &env.counting);
        traced = closed_loop(&env, args, window, clients, Some(&acc)).outcomes;
        let a = Snap::take(&env.source, &env.counting);
        check_costs("traced", &b, &a, &mut cost_errors);
        check_answers(&env, MEASURED, &mut traced);
        env.server.stop();
    }
    let acc = acc.into_inner().expect("trace accumulator");

    let phases = [
        ("warmup", &warmup),
        ("measured", &measured),
        ("traced", &traced),
    ];
    let attempted: usize = phases.iter().map(|(_, p)| p.len()).sum();
    let failed: usize = phases
        .iter()
        .map(|(_, p)| p.iter().filter(|o| o.error.is_some()).count())
        .sum();
    let correct = failed == 0 && cost_errors.is_empty();

    println!(
        "qr2loop workload={} seed={} seconds={} clients={clients} server_workers={SERVER_WORKERS}",
        args.workload.name(),
        args.seed,
        args.seconds
    );
    for (name, list) in phases {
        let bad: Vec<&Outcome> = list.iter().filter(|o| o.error.is_some()).collect();
        println!(
            "phase {name}: sent {} ok {} failed {}",
            list.len(),
            list.len() - bad.len(),
            bad.len()
        );
        for o in bad.iter().take(3) {
            println!(
                "  session {}: {}",
                o.index,
                o.error.as_deref().unwrap_or("")
            );
        }
    }
    for e in &cost_errors {
        println!("cost accounting: {e}");
    }

    let measured_run = report::Measured {
        outcomes: &measured,
        window_s: args.seconds,
        elapsed_s,
        cpu_marks,
        peak_rss_mb,
        before: &before,
        after: &after,
    };
    let metrics = if args.trace {
        report::print_layer_table(&acc, &traced);
        report::per_layer(&measured_run, &acc, &traced, crawl, &phases, &cost_errors)
    } else {
        report::end_to_end(&measured_run, &setup_s)
    };
    metrics.print();
    Ok(format!(
        r#"{{"correct":{correct},"attempted":{attempted},"failed":{failed},"metrics":{}}}"#,
        metrics.json()
    ))
}
