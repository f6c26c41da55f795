//! [`CachedInterface`]: the caching decorator over any [`TopKInterface`].

use std::sync::Arc;

use qr2_webdb::{QueryLedger, Schema, SearchOutcome, SearchQuery, TopKInterface, TopKResponse};

use crate::cache::AnswerCache;
use crate::key::cache_key;

/// Wraps a web database interface with the shared answer cache.
///
/// Because it *is* a [`TopKInterface`], every engine (1D stream, frontier,
/// MD baseline, TA) benefits with zero algorithm changes: hand the wrapped
/// interface to the reranker instead of the raw one. Lookups are keyed by
/// the canonical form of the query ([`crate::canonicalize`]); misses
/// execute the **original** query, so wire traffic is byte-identical to
/// the uncached interface.
///
/// [`TopKInterface::ledger`] still reports the *inner* ledger — cache hits
/// never touch it — so ledger totals remain the true web-DB query cost,
/// which is exactly what single-flight and warm-path tests assert against.
pub struct CachedInterface {
    inner: Arc<dyn TopKInterface>,
    cache: Arc<AnswerCache>,
    /// Pre-resolved `cache.lookup` stage timer: lookups are the hottest
    /// instrumentation site in the pipeline (every engine probe lands
    /// here), so the histogram handle is resolved once at construction.
    lookup_stage: qr2_obs::Stage,
}

impl CachedInterface {
    /// Wrap `inner` with `cache`.
    pub fn new(inner: Arc<dyn TopKInterface>, cache: Arc<AnswerCache>) -> CachedInterface {
        CachedInterface {
            inner,
            cache,
            lookup_stage: qr2_obs::Stage::new("cache.lookup"),
        }
    }

    /// The shared cache (stats, flush).
    pub fn cache(&self) -> &Arc<AnswerCache> {
        &self.cache
    }

    /// The wrapped raw interface. Boot-time verification must use this —
    /// freshness checks served from the cache would always look fresh.
    pub fn inner(&self) -> &Arc<dyn TopKInterface> {
        &self.inner
    }
}

impl TopKInterface for CachedInterface {
    fn schema(&self) -> &Schema {
        self.inner.schema()
    }

    fn system_k(&self) -> usize {
        self.inner.system_k()
    }

    fn search(&self, q: &SearchQuery) -> TopKResponse {
        self.search_observed_authoritative(q).0
    }

    fn ledger(&self) -> &QueryLedger {
        self.inner.ledger()
    }

    fn search_observed_authoritative(
        &self,
        q: &SearchQuery,
    ) -> (TopKResponse, SearchOutcome, bool) {
        let key = cache_key(self.inner.schema(), q);
        // Degraded answers (a failed or cancelled probe's empty page) are
        // served but never admitted — an outage must not be remembered as
        // the permanent answer — and keep their flag on the way up. The
        // fetch reports its own outcome: when the inner interface is a
        // scheduler whose frontier coalescing served the fetch for free,
        // the miss is *not* charged as a paid query upstream.
        self.lookup_stage.time(|| {
            self.cache
                .get_or_fetch_observed(&key, || self.inner.search_observed_authoritative(q))
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::CacheConfig;
    use qr2_webdb::{RangePred, Schema, SimulatedWebDb, SystemRanking, TableBuilder};

    fn db() -> Arc<SimulatedWebDb> {
        let schema = Schema::builder().numeric("x", 0.0, 100.0).build();
        let mut tb = TableBuilder::new(schema.clone());
        for i in 0..50 {
            tb.push_row(vec![i as f64 * 2.0]).unwrap();
        }
        let ranking = SystemRanking::linear(&schema, &[("x", 1.0)]).unwrap();
        Arc::new(SimulatedWebDb::new(tb.build(), ranking, 5))
    }

    fn cached(db: Arc<SimulatedWebDb>) -> CachedInterface {
        CachedInterface::new(db, Arc::new(AnswerCache::new(CacheConfig::default())))
    }

    #[test]
    fn repeated_query_costs_one_ledger_unit() {
        let raw = db();
        let c = cached(raw.clone());
        let q = SearchQuery::all();
        let first = c.search(&q);
        let second = c.search(&q);
        assert_eq!(first, second);
        assert_eq!(raw.ledger().total(), 1, "second call must be free");
        let stats = c.cache().stats();
        assert_eq!((stats.hits, stats.misses), (1, 1));
    }

    #[test]
    fn results_identical_to_uncached() {
        let raw = db();
        let c = cached(raw.clone());
        let x = raw.schema().expect_id("x");
        let qs = [
            SearchQuery::all(),
            SearchQuery::all().and_range(x, RangePred::closed(10.0, 40.0)),
            SearchQuery::all().and_range(x, RangePred::half_open(0.0, 50.0)),
        ];
        for q in &qs {
            assert_eq!(c.search(q), raw.search(q), "{q}");
            // And again from cache.
            assert_eq!(c.search(q), raw.search(q), "{q}");
        }
    }

    #[test]
    fn semantically_identical_queries_collide() {
        let raw = db();
        let c = cached(raw.clone());
        let x = raw.schema().expect_id("x");
        let before = raw.ledger().total();
        c.search(&SearchQuery::all().and_range(x, RangePred::closed(0.0, 100.0)));
        c.search(&SearchQuery::all().and_range(x, RangePred::closed(-5.0, 200.0)));
        c.search(&SearchQuery::all());
        assert_eq!(
            raw.ledger().total() - before,
            1,
            "all three are the same canonical question"
        );
    }

    /// An inner interface whose every page is degraded, the way a
    /// scheduler answers a failed probe: empty, free, non-authoritative.
    struct Down(Arc<SimulatedWebDb>);

    impl TopKInterface for Down {
        fn schema(&self) -> &Schema {
            self.0.schema()
        }
        fn system_k(&self) -> usize {
            self.0.system_k()
        }
        fn search(&self, q: &SearchQuery) -> TopKResponse {
            self.search_observed_authoritative(q).0
        }
        fn ledger(&self) -> &QueryLedger {
            self.0.ledger()
        }
        fn search_observed_authoritative(
            &self,
            _q: &SearchQuery,
        ) -> (TopKResponse, SearchOutcome, bool) {
            let free = SearchOutcome {
                cache_hit: false,
                coalesced: true,
            };
            (TopKResponse::empty(), free, false)
        }
    }

    #[test]
    fn degraded_pages_keep_their_flag_and_are_never_cached() {
        let c = CachedInterface::new(
            Arc::new(Down(db())),
            Arc::new(AnswerCache::new(CacheConfig::default())),
        );
        let q = SearchQuery::all();
        let (page, outcome, authoritative) = c.search_observed_authoritative(&q);
        assert!(page.tuples.is_empty());
        assert!(outcome.is_free(), "the inner outcome passes through");
        assert!(
            !authoritative,
            "a degraded page must not turn authoritative"
        );
        assert!(!c.search_authoritative(&q).1, "every projection agrees");
        assert!(c.cache().is_empty());
    }

    #[test]
    fn schema_and_k_delegate() {
        let raw = db();
        let c = cached(raw.clone());
        assert_eq!(c.system_k(), raw.system_k());
        assert!(c.schema().same_structure(raw.schema()));
    }
}
