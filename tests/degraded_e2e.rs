//! Degraded pages keep their flag through the whole serving stack.
//!
//! When the source fails a probe (retries exhausted, breaker parked past
//! `SchedConfig::max_outage_park`), the scheduler answers it with an
//! empty, free, **non-authoritative** page. Every layer above it must
//! report that page as such — and every consumer that turns pages into
//! lasting state must refuse to store it:
//!
//! * `Source::probe` reports `authoritative == false` and a free outcome,
//!   for the answer cache's single-flight leader and for its waiters;
//! * a reconstruction job never claims coverage it cannot back: a region
//!   the outage left unretrieved stays on the frontier;
//! * a dense-index crawl cut short by the outage is not indexed.

use std::sync::Arc;
use std::time::Duration;

use qr2::cache::{AnswerCache, CacheConfig};
use qr2::core::{DenseIndex, ExecutorKind, Normalizer, SearchCtx, SortDir};
use qr2::recon::{JobOptions, ReconIndex, ServeOrder};
use qr2::sched::SchedConfig;
use qr2::service::{ResilienceConfig, Source};
use qr2::webdb::{
    FaultScript, Schema, SearchQuery, SimulatedWebDb, SourcePolicy, SystemRanking, TableBuilder,
    TopKInterface,
};

const ROWS: usize = 200;

/// 200 rows on two attributes, page size 10: reconstructing it takes
/// dozens of probes, so an outage from attempt 4 cuts it short.
fn db() -> Arc<SimulatedWebDb> {
    let schema = Schema::builder()
        .numeric("x0", 0.0, 1000.0)
        .numeric("x1", 0.0, 1000.0)
        .build();
    let mut tb = TableBuilder::new(schema.clone());
    for i in 0..ROWS {
        tb.push_row(vec![i as f64, ((i * 37) % ROWS) as f64])
            .unwrap();
    }
    let ranking = SystemRanking::linear(&schema, &[("x0", 1.0), ("x1", 0.2)]).unwrap();
    Arc::new(SimulatedWebDb::new(tb.build(), ranking, 10))
}

/// A source over `db` whose fault script fails every attempt in
/// `[outage_from, ∞)` before it reaches the web database.
fn failing_source(db: Arc<SimulatedWebDb>, outage_from: u64, park: Duration) -> Source {
    Source::with_resilience(
        "down",
        "source with a scripted outage",
        db as Arc<dyn TopKInterface>,
        SourcePolicy::unlimited(),
        SchedConfig {
            max_outage_park: park,
            ..SchedConfig::default()
        },
        ResilienceConfig {
            script: Some(FaultScript::healthy().with_outage(outage_from, u64::MAX)),
            ..ResilienceConfig::default()
        },
        ExecutorKind::Sequential,
        Arc::new(DenseIndex::in_memory()),
        vec![],
        Arc::new(AnswerCache::new(CacheConfig::default())),
        Arc::new(ReconIndex::ephemeral()),
    )
}

#[test]
fn failed_probe_is_degraded_and_free_for_leader_and_waiter() {
    // The leader's probe parks for the whole patience window before it
    // fails, which leaves the second caller ample time to join it.
    let source = Arc::new(failing_source(db(), 0, Duration::from_secs(1)));
    let q = SearchQuery::all();
    let leader = {
        let source = Arc::clone(&source);
        let q = q.clone();
        std::thread::spawn(move || source.probe.search_observed_authoritative(&q))
    };
    // The leader holds the cache's single flight for this key while its
    // probe sits parked in the scheduler; a second caller joins it.
    while source.sched.stats().parked_waits == 0 {
        std::thread::sleep(Duration::from_millis(1));
    }
    let (waiter_page, waiter_outcome, waiter_authoritative) =
        source.probe.search_observed_authoritative(&q);
    let (page, outcome, authoritative) = leader.join().unwrap();

    assert!(page.tuples.is_empty());
    assert!(!authoritative, "the leader's failed probe is degraded");
    assert!(outcome.is_free(), "a failed probe spends nothing");
    assert!(waiter_page.tuples.is_empty());
    assert!(!waiter_authoritative, "the waiter shares the leader's flag");
    assert!(waiter_outcome.is_free());
    assert_eq!(
        source.cache.stats().coalesced,
        1,
        "the second caller waited on the leader's flight"
    );
    assert!(source.cache.is_empty(), "a degraded page is never cached");
    assert_eq!(source.db.ledger().total(), 0);
}

#[test]
fn recon_job_through_an_outage_never_claims_coverage_it_lacks() {
    let db = db();
    let source = failing_source(Arc::clone(&db), 4, Duration::from_millis(20));
    let epoch = source.cache.epoch();
    let report = source
        .recon
        .run_job(&*source.probe, &JobOptions::default(), epoch)
        .expect("no concurrent job");
    let status = source.recon.status(db.schema(), epoch);
    assert!(
        !source.recon.covered(&SearchQuery::all(), epoch) || status.tuples == ROWS,
        "covers the whole table with {} of {ROWS} tuples",
        status.tuples
    );
    assert_eq!(report.state, "failed");
    assert_eq!(status.job.map(|j| j.state), Some("failed"));
    assert!(
        status.pending_regions > 0,
        "the failed region stays pending"
    );

    // Every tuple the outage kept from the index lies in a region the
    // index does not claim: a covered point region serves its tuple.
    let table = db.ground_truth();
    let x0 = db.schema().expect_id("x0");
    let x1 = db.schema().expect_id("x1");
    let norm = Normalizer::from_domains(db.schema());
    let order = ServeOrder::OneDim {
        attr: x0,
        dir: SortDir::Asc,
    };
    for row in 0..table.len() {
        let t = table.tuple(row);
        let point = SearchQuery::all()
            .and_point(x0, table.num(row, x0))
            .and_point(x1, table.num(row, x1));
        if let Some(served) = source.recon.serve(&point, &order, &norm, || epoch) {
            assert!(
                served.iter().any(|s| s.id == t.id),
                "tuple {:?} is in a covered region but not in the index",
                t.id
            );
        }
    }
}

#[test]
fn dense_crawl_through_an_outage_is_not_indexed() {
    let source = failing_source(db(), 4, Duration::from_millis(20));
    let dense = DenseIndex::in_memory();
    let ctx = SearchCtx::new(Arc::clone(&source.probe), ExecutorKind::Sequential);
    let region = SearchQuery::all();
    let tuples = dense.get_or_crawl(&ctx, &region);
    assert!(tuples.len() < ROWS, "the outage cut the crawl short");
    assert!(
        dense.lookup(&region).is_none(),
        "an interrupted crawl must not be stored as the region's contents"
    );
    assert!(dense.is_empty());
}
