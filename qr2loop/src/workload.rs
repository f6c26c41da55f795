//! The four workloads: which source each boots, and the seeded stream of
//! session requests each sends. See `README.md` for why each exists and
//! which layer it is meant to stress.

use std::sync::Arc;

use qr2_cache::{AnswerCache, CacheConfig};
use qr2_core::{DenseIndex, ExecutorKind};
use qr2_datagen::{bluenile_db, zillow_db, DiamondsConfig, HomesConfig};
use qr2_recon::ReconIndex;
use qr2_sched::SchedConfig;
use qr2_service::{FilterDto, RankingDto, ResilienceConfig, Source};
use qr2_webdb::{SimulatedWebDb, SourcePolicy, TopKInterface};

use crate::layers::CountingDb;

/// Sessions of `warm_popular` are drawn from this many fixed requests.
const POPULAR: usize = 8;

/// Tuples every session asks for on the create call (`page_size`)...
pub const PAGE_SIZE: usize = 10;
/// ...and then on the NDJSON stream (`limit`).
pub const STREAM_LIMIT: usize = 40;

/// Phases of the request stream: set-up's warm-up sessions, and the
/// sessions of the measured (and traced) window.
pub const WARMUP: u64 = 0;
pub const MEASURED: u64 = 1;

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Workload {
    WarmPopular,
    ColdUnique,
    ReconCovered,
    ThrottledOverlap,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::WarmPopular,
        Workload::ColdUnique,
        Workload::ReconCovered,
        Workload::ThrottledOverlap,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::WarmPopular => "warm_popular",
            Workload::ColdUnique => "cold_unique",
            Workload::ReconCovered => "recon_covered",
            Workload::ThrottledOverlap => "throttled_overlap",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The source this workload serves from.
    pub fn source_name(self) -> &'static str {
        match self {
            Workload::ReconCovered => "zillow",
            _ => "bluenile",
        }
    }

    /// The source's traffic policy: unlimited (the demo default) except
    /// for `throttled_overlap`, whose token bucket makes the scheduler pace
    /// and coalesce probes.
    fn policy(self) -> SourcePolicy {
        match self {
            Workload::ThrottledOverlap => SourcePolicy::rate_limited(2000.0, 10.0),
            _ => SourcePolicy::unlimited(),
        }
    }

    /// Closed-loop client threads (capped at the machine's parallelism).
    /// `cold_unique` and `throttled_overlap` run two, so probes of
    /// concurrent sessions meet in the cache and the scheduler. The others
    /// run one:
    /// * in `recon_covered`, two concurrent MD recon serves cost each
    ///   about 3.5 times the CPU of one alone, and how much varies from
    ///   run to run by ±20%, wider than any bound the benchmark could hold;
    /// * `warm_popular` is pure CPU, and with two clients on two CPUs its
    ///   tail latency swung by a quarter between runs.
    pub fn clients(self) -> usize {
        match self {
            Workload::ReconCovered | Workload::WarmPopular => 1,
            _ => 2,
        }
    }

    /// Whether set-up crawls the whole source into the recon index.
    pub fn crawls(self) -> bool {
        self == Workload::ReconCovered
    }

    /// Sessions run once, sequentially, while setting up (not timed as
    /// sessions, but counted in `setup_s`). `warm_popular` runs every
    /// popular request; the others run a few throwaway sessions so the
    /// lazily built search index and code paths are warm.
    pub fn warmup(self) -> usize {
        match self {
            Workload::WarmPopular => POPULAR,
            _ => 4,
        }
    }

    /// Build the workload's source over a counting wrapper of the raw
    /// simulated database: the demo's 50k homes for `recon_covered`, its
    /// 20k diamonds otherwise. On `cold_unique` a run's distinct probes
    /// over the diamonds are several times the default answer-cache
    /// capacity (4096), so the eviction path runs.
    pub fn build_source(self) -> (Source, Arc<SimulatedWebDb>, Arc<CountingDb>) {
        let raw = Arc::new(match self {
            Workload::ReconCovered => zillow_db(&HomesConfig::default()),
            _ => bluenile_db(&DiamondsConfig::default()),
        });
        let counting = Arc::new(CountingDb::new(Arc::clone(&raw)));
        let db: Arc<dyn TopKInterface> = counting.clone();
        let source = Source::with_resilience(
            self.source_name(),
            self.name(),
            db,
            self.policy(),
            SchedConfig::default(),
            ResilienceConfig::default(),
            // qr2-server's default `--fanout 8`.
            ExecutorKind::Parallel { fanout: 8 },
            Arc::new(DenseIndex::in_memory()),
            Vec::new(),
            Arc::new(AnswerCache::new(CacheConfig::default())),
            Arc::new(ReconIndex::ephemeral()),
        );
        (source, raw, counting)
    }
}

/// A numeric filter or a categorical label filter.
pub enum Filter {
    Range { attr: String, min: f64, max: f64 },
    Labels { attr: String, values: Vec<String> },
}

pub enum Ranking {
    OneDim { attr: String, asc: bool },
    Md { weights: Vec<(String, f64)> },
}

/// One session's request: filter and ranking. Rendered once as the
/// create-call JSON body and once as the DTOs the answer check compiles.
pub struct Spec {
    pub filters: Vec<Filter>,
    pub ranking: Ranking,
}

impl Spec {
    pub fn body(&self) -> String {
        let filters: Vec<String> = self
            .filters
            .iter()
            .map(|f| match f {
                Filter::Range { attr, min, max } => {
                    format!(r#"{{"attr":"{attr}","min":{min:?},"max":{max:?}}}"#)
                }
                Filter::Labels { attr, values } => {
                    let vals: Vec<String> = values.iter().map(|v| format!("\"{v}\"")).collect();
                    format!(r#"{{"attr":"{attr}","values":[{}]}}"#, vals.join(","))
                }
            })
            .collect();
        let ranking = match &self.ranking {
            Ranking::OneDim { attr, asc } => format!(
                r#"{{"type":"1d","attr":"{attr}","dir":"{}"}}"#,
                if *asc { "asc" } else { "desc" }
            ),
            Ranking::Md { weights } => {
                let ws: Vec<String> = weights
                    .iter()
                    .map(|(a, w)| format!("\"{a}\":{w:?}"))
                    .collect();
                format!(r#"{{"type":"md","weights":{{{}}}}}"#, ws.join(","))
            }
        };
        format!(
            r#"{{"filters":[{}],"ranking":{ranking},"page_size":{PAGE_SIZE}}}"#,
            filters.join(",")
        )
    }

    pub fn dtos(&self) -> (Vec<FilterDto>, RankingDto) {
        let filters = self
            .filters
            .iter()
            .enumerate()
            .map(|(index, f)| match f {
                Filter::Range { attr, min, max } => FilterDto {
                    index,
                    attr: attr.clone(),
                    min: Some(*min),
                    max: Some(*max),
                    values: None,
                },
                Filter::Labels { attr, values } => FilterDto {
                    index,
                    attr: attr.clone(),
                    min: None,
                    max: None,
                    values: Some(values.clone()),
                },
            })
            .collect();
        let ranking = match &self.ranking {
            Ranking::OneDim { attr, asc } => RankingDto::OneDim {
                attr: attr.clone(),
                ascending: *asc,
            },
            Ranking::Md { weights } => RankingDto::Md {
                weights: weights.clone(),
            },
        };
        (filters, ranking)
    }
}

/// SplitMix64: a tiny seeded generator, so the request stream depends on
/// nothing but the seed.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// A nonzero slider weight in `{±0.01, …, ±1.00}`.
    fn weight(&mut self) -> f64 {
        let w = (self.below(100) + 1) as f64 / 100.0;
        if self.below(2) == 0 {
            w
        } else {
            -w
        }
    }

    /// `k` distinct items of `items`.
    fn pick<'a>(&mut self, items: &'a [String], k: usize) -> Vec<&'a String> {
        let mut idx: Vec<usize> = (0..items.len()).collect();
        for i in 0..k.min(idx.len()) {
            let j = i + self.below(idx.len() - i);
            idx.swap(i, j);
        }
        idx[..k.min(items.len())]
            .iter()
            .map(|&i| &items[i])
            .collect()
    }
}

/// What the request generator knows about the source: per numeric
/// attribute, its sorted values, to place range filters where the data is.
pub struct Catalog {
    numeric: Vec<(String, Vec<f64>)>,
    /// Attributes no single value of which holds 5% of the rows: a
    /// quantile range over them keeps about the share of rows it asks for
    /// (one over bedroom counts, or over lot sizes where every condo has
    /// 0, can keep far more).
    continuous: Vec<String>,
}

impl Catalog {
    pub fn new(db: &SimulatedWebDb) -> Catalog {
        let table = db.ground_truth();
        let mut numeric = Vec::new();
        let mut continuous = Vec::new();
        for (id, attr) in db.schema().iter() {
            if attr.kind.is_numeric() {
                let mut vals: Vec<f64> = (0..table.len()).map(|r| table.num(r, id)).collect();
                vals.sort_by(f64::total_cmp);
                let most_common = vals
                    .chunk_by(|a, b| a == b)
                    .map(<[f64]>::len)
                    .max()
                    .unwrap_or(0);
                if most_common * 20 < vals.len() {
                    continuous.push(attr.name.clone());
                }
                numeric.push((attr.name.clone(), vals));
            }
        }
        Catalog {
            numeric,
            continuous,
        }
    }

    fn numeric_names(&self) -> Vec<String> {
        self.numeric.iter().map(|(n, _)| n.clone()).collect()
    }

    /// A range over `attr` keeping `width` of its values, placed at
    /// random.
    fn range(&self, rng: &mut Rng, attr: &str, width: f64) -> Filter {
        let lo = (1.0 - width) * rng.unit();
        self.quantiles(attr, lo, lo + width)
    }

    /// The range of `attr` between two quantiles of its values.
    fn quantiles(&self, attr: &str, lo: f64, hi: f64) -> Filter {
        let (_, vals) = self
            .numeric
            .iter()
            .find(|(n, _)| n == attr)
            .expect("numeric attribute in catalog");
        let at = |q: f64| vals[((q * vals.len() as f64) as usize).min(vals.len() - 1)];
        Filter::Range {
            attr: attr.to_string(),
            min: at(lo),
            max: at(hi),
        }
    }

    /// A range over a random continuous attribute.
    fn any_range(&self, rng: &mut Rng, width: f64) -> Filter {
        let attr = &self.continuous[rng.below(self.continuous.len())];
        self.range(rng, attr, width)
    }

    fn md(&self, rng: &mut Rng, dims: usize) -> Ranking {
        let names = self.numeric_names();
        Ranking::Md {
            weights: rng
                .pick(&names, dims)
                .into_iter()
                .map(|a| (a.clone(), rng.weight()))
                .collect(),
        }
    }

    fn one_dim(&self, rng: &mut Rng) -> Ranking {
        let names = self.numeric_names();
        Ranking::OneDim {
            attr: names[rng.below(names.len())].clone(),
            asc: rng.below(2) == 0,
        }
    }
}

/// The fixed popular requests of `warm_popular` on Blue Nile: the demo's
/// two popular functions and a few common 1D orders, with and without
/// filters.
fn popular(i: usize) -> Spec {
    let md = |w: &[(&str, f64)]| Ranking::Md {
        weights: w.iter().map(|(a, x)| (a.to_string(), *x)).collect(),
    };
    let one = |attr: &str, asc: bool| Ranking::OneDim {
        attr: attr.to_string(),
        asc,
    };
    let labels = |attr: &str, vals: &[&str]| Filter::Labels {
        attr: attr.to_string(),
        values: vals.iter().map(|v| v.to_string()).collect(),
    };
    let best_value = [("price", 1.0), ("carat", -0.1), ("depth", -0.5)];
    let big_cheap = [("price", 1.0), ("carat", -0.5)];
    let (filters, ranking) = match i % POPULAR {
        0 => (vec![], md(&best_value)),
        1 => (vec![], md(&big_cheap)),
        2 => (vec![labels("cut", &["Ideal"])], md(&best_value)),
        3 => (vec![labels("shape", &["Round"])], md(&big_cheap)),
        4 => (vec![], one("price", true)),
        5 => (vec![labels("color", &["D", "E", "F"])], one("carat", false)),
        6 => (vec![labels("clarity", &["VS1", "VS2"])], one("price", true)),
        _ => (
            vec![Filter::Range {
                attr: "price".to_string(),
                min: 1000.0,
                max: 20000.0,
            }],
            md(&[("carat", -1.0), ("depth", 0.3)]),
        ),
    };
    Spec { filters, ranking }
}

/// Request generator of one workload run. Session `i` of a phase is a
/// pure function of `(seed, phase, i)`, whichever client thread sends it.
pub struct Generator {
    workload: Workload,
    seed: u64,
    catalog: Catalog,
}

impl Generator {
    pub fn new(workload: Workload, seed: u64, db: &SimulatedWebDb) -> Generator {
        Generator {
            workload,
            seed,
            catalog: Catalog::new(db),
        }
    }

    /// Session `i` of `phase`. Warm-up sessions do not depend on the
    /// seed, so neither does `setup_s`.
    pub fn spec(&self, phase: u64, i: u64) -> Spec {
        let seed = if phase == WARMUP { 0 } else { self.seed };
        let mut rng = Rng::new(
            seed.wrapping_mul(0x9E37_79B9_7F4A_7C15)
                .wrapping_add(phase << 48)
                .wrapping_add(i),
        );
        rng.next_u64();
        let c = &self.catalog;
        match self.workload {
            // Warm-up walks the popular set in order; the measured window
            // draws from it at random.
            Workload::WarmPopular if phase == WARMUP => popular(i as usize),
            Workload::WarmPopular => popular(rng.below(POPULAR)),
            // A fresh MD function over a fresh range: almost every probe
            // is new to the cache.
            Workload::ColdUnique => {
                let width = 0.25 + 0.35 * rng.unit();
                let dims = 2 + rng.below(2);
                Spec {
                    filters: vec![c.any_range(&mut rng, width)],
                    ranking: c.md(&mut rng, dims),
                }
            }
            // A 1D order for one session in eight, else a 2D MD function,
            // over ranges that each keep a quarter of the rows. Every
            // session is a new (query, order) pair. Serving an MD order
            // costs about twenty times a 1D one, so the mix is kept mostly
            // MD to leave the median and p90 inside one mode.
            Workload::ReconCovered => Spec {
                filters: vec![c.any_range(&mut rng, 0.25)],
                ranking: if rng.below(8) == 0 {
                    c.one_dim(&mut rng)
                } else {
                    c.md(&mut rng, 2)
                },
            },
            // One shared price band, a fresh MD function per session: the
            // two clients' probes overlap.
            Workload::ThrottledOverlap => {
                let dims = 2 + rng.below(2);
                Spec {
                    filters: vec![c.quantiles("price", 0.3, 0.6)],
                    ranking: c.md(&mut rng, dims),
                }
            }
        }
    }
}
