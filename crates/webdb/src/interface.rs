//! The public top-k search interface — the *only* channel through which a
//! third-party service can interact with a web database.

use std::sync::Arc;

use crate::metrics::QueryLedger;
use crate::predicate::SearchQuery;
use crate::schema::Schema;
use crate::tuple::Tuple;

/// The result of one search-form submission.
///
/// The tuple page is `Arc`-shared: cloning a response (answer-cache hits,
/// single-flight completions, buffered session replays) bumps a reference
/// count instead of deep-copying the page. Build one with
/// [`TopKResponse::new`].
#[derive(Debug, Clone, PartialEq)]
pub struct TopKResponse {
    /// At most `system-k` matching tuples, in system-ranking order (best
    /// first).
    pub tuples: Arc<[Tuple]>,
    /// True when the query matched more than `system-k` tuples — i.e. some
    /// matches are *invisible* to the caller.
    pub overflow: bool,
}

impl TopKResponse {
    /// Build a response from an owned tuple page.
    pub fn new(tuples: Vec<Tuple>, overflow: bool) -> TopKResponse {
        TopKResponse {
            tuples: tuples.into(),
            overflow,
        }
    }

    /// The empty (underflow) response.
    pub fn empty() -> TopKResponse {
        TopKResponse {
            tuples: Arc::from([]),
            overflow: false,
        }
    }

    /// `true` when zero tuples matched.
    pub fn is_underflow(&self) -> bool {
        self.tuples.is_empty() && !self.overflow
    }

    /// `true` when every match is visible (no overflow).
    pub fn is_complete(&self) -> bool {
        !self.overflow
    }
}

/// Per-call metadata a caching decorator attaches to a search: whether the
/// answer was served without spending a query against the web database.
///
/// The plain [`TopKInterface::search`] contract is "every call costs one
/// query"; a decorator such as `qr2-cache`'s `CachedInterface` breaks that
/// equation, and callers that do their own cost accounting (the executor's
/// `QueryStats`, the crawler's budget) need to know which calls were free.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SearchOutcome {
    /// Served from a shared answer cache; the web database saw nothing.
    pub cache_hit: bool,
    /// Blocked on another caller's identical in-flight request and shared
    /// its answer (single-flight coalescing); the web database saw one
    /// query, charged to the leader, not to this caller.
    pub coalesced: bool,
}

impl SearchOutcome {
    /// A plain uncached search (the default for every raw interface).
    pub const MISS: SearchOutcome = SearchOutcome {
        cache_hit: false,
        coalesced: false,
    };

    /// True when this call cost the caller zero web-DB queries.
    pub fn is_free(&self) -> bool {
        self.cache_hit || self.coalesced
    }
}

/// A web database's public search interface.
///
/// Implementations must be thread-safe: QR2 issues verification and subspace
/// queries in parallel (paper §II-B "Parallel processing").
pub trait TopKInterface: Send + Sync {
    /// The public schema (attribute names and domains shown on the form).
    fn schema(&self) -> &Schema;

    /// The interface's result-page size `k`.
    fn system_k(&self) -> usize;

    /// Execute a conjunctive search. Every call costs one query.
    fn search(&self, q: &SearchQuery) -> TopKResponse;

    /// The shared query ledger (cost accounting).
    fn ledger(&self) -> &QueryLedger;

    /// [`search`](TopKInterface::search) plus everything a caller needs
    /// to account for the page: the cost [`SearchOutcome`] and the
    /// *authoritative* flag.
    ///
    /// This is the one method a decorator overrides; its
    /// [`search`](TopKInterface::search) is the `.0` projection of it, and
    /// [`search_observed`](TopKInterface::search_observed) and
    /// [`search_authoritative`](TopKInterface::search_authoritative) are
    /// provided projections, so every reader of a page sees the same
    /// `(page, outcome, authoritative)`. Raw interfaces keep the default:
    /// one paid query ([`SearchOutcome::MISS`]), authoritative.
    ///
    /// `false` marks a degraded page — the empty page a scheduler returns
    /// for a failed or cancelled probe, or a remote gateway's failed
    /// round trip — that callers must treat as best-effort: it is served
    /// to the waiting request but never turned into lasting state (a
    /// cache entry, a retired reconstruction region, a dense-index
    /// region).
    fn search_observed_authoritative(
        &self,
        q: &SearchQuery,
    ) -> (TopKResponse, SearchOutcome, bool) {
        (self.search(q), SearchOutcome::MISS, true)
    }

    /// The page and its cost [`SearchOutcome`]: a projection of
    /// [`search_observed_authoritative`](TopKInterface::search_observed_authoritative).
    /// Not an override point.
    fn search_observed(&self, q: &SearchQuery) -> (TopKResponse, SearchOutcome) {
        let (resp, outcome, _) = self.search_observed_authoritative(q);
        (resp, outcome)
    }

    /// The page and its authoritative flag: a projection of
    /// [`search_observed_authoritative`](TopKInterface::search_observed_authoritative).
    /// Not an override point.
    fn search_authoritative(&self, q: &SearchQuery) -> (TopKResponse, bool) {
        let (resp, _, authoritative) = self.search_observed_authoritative(q);
        (resp, authoritative)
    }
}

/// Blanket impl so `Arc<Db>` and `&Db` can be used wherever a
/// `TopKInterface` is expected. Only `search` and the full-information
/// method forward; the projections follow from the latter.
impl<T: TopKInterface + ?Sized> TopKInterface for std::sync::Arc<T> {
    fn schema(&self) -> &Schema {
        (**self).schema()
    }
    fn system_k(&self) -> usize {
        (**self).system_k()
    }
    fn search(&self, q: &SearchQuery) -> TopKResponse {
        (**self).search(q)
    }
    fn ledger(&self) -> &QueryLedger {
        (**self).ledger()
    }
    fn search_observed_authoritative(
        &self,
        q: &SearchQuery,
    ) -> (TopKResponse, SearchOutcome, bool) {
        (**self).search_observed_authoritative(q)
    }
}

impl<T: TopKInterface + ?Sized> TopKInterface for &T {
    fn schema(&self) -> &Schema {
        (**self).schema()
    }
    fn system_k(&self) -> usize {
        (**self).system_k()
    }
    fn search(&self, q: &SearchQuery) -> TopKResponse {
        (**self).search(q)
    }
    fn ledger(&self) -> &QueryLedger {
        (**self).ledger()
    }
    fn search_observed_authoritative(
        &self,
        q: &SearchQuery,
    ) -> (TopKResponse, SearchOutcome, bool) {
        (**self).search_observed_authoritative(q)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tuple::TupleId;
    use crate::value::Value;

    #[test]
    fn response_flags() {
        let empty = TopKResponse::empty();
        assert!(empty.is_underflow());
        assert!(empty.is_complete());

        let partial = TopKResponse::new(vec![Tuple::new(TupleId(0), vec![Value::Num(1.0)])], true);
        assert!(!partial.is_underflow());
        assert!(!partial.is_complete());
    }

    #[test]
    fn clone_shares_tuple_storage() {
        let resp = TopKResponse::new(vec![Tuple::new(TupleId(1), vec![Value::Num(2.0)])], false);
        let copy = resp.clone();
        assert!(
            Arc::ptr_eq(&resp.tuples, &copy.tuples),
            "cloning a response must share the page, not deep-copy it"
        );
        assert_eq!(resp, copy);
    }

    #[test]
    fn outcome_flags() {
        assert!(!SearchOutcome::MISS.is_free());
        assert!(SearchOutcome {
            cache_hit: true,
            coalesced: false
        }
        .is_free());
        assert!(SearchOutcome {
            cache_hit: false,
            coalesced: true
        }
        .is_free());
        assert_eq!(SearchOutcome::default(), SearchOutcome::MISS);
    }
}
