//! `spoof-study`: in-memory, evaluation-bound.
//!
//! Set-up generates the spoof world (population plus hosting customers)
//! and, separately, the calibrated population the churn runs over. The
//! timed pass crawls the spoof world for its coverage profile, picks the
//! vantages, runs the stacked SPF × DMARC × MTA-STS matrix cold and then
//! warm through one `AuthCache`, [`MATRIX_ROUNDS`] times over with a fresh
//! cache each round, then advances six epochs of 1 % churn
//! through a `ChurnEngine` with the matrix attached and ends with the
//! engine's full-recompute identity check. The six in-run consistency
//! flags are the checks.

use std::hint::black_box;
use std::sync::Arc;
use std::time::Duration;

use spf_analyzer::Walker;
use spf_core::AuthCache;
#[allow(deprecated)] // the v1 engine is the oracle the v2 SPF sub-matrix must equal
use spf_crawler::spoof_matrix as spoof_matrix_v1;
use spf_crawler::{
    auth_matrix_with_cache, crawl, select_vantages, ChurnEngine, CrawlConfig, LongitudinalConfig,
    ProviderVantage, SpoofMatrixConfig, ZoneDelta, DEFAULT_CONTROLS, DEFAULT_TOP_COVERAGE,
};
use spf_dns::{Resolver, ZoneResolver};
use spf_netsim::{
    build_spoof_world, ChurnConfig, ChurnSimulator, Population, PopulationConfig, Scale, SpoofWorld,
};

use crate::dnsprobe::maybe_wrap;
use crate::{Measured, PassClock, Workload};

/// Scale divisor of both worlds.
pub const SCALE: u64 = 500;
const WORKERS: usize = 2;
const EPOCHS: u32 = 6;
/// Cold-then-warm matrix rounds per pass, each through a fresh
/// `AuthCache`: the matrix is the part `rate_per_s` times, and repeating
/// it gives that figure enough measured seconds per run to be steady.
const MATRIX_ROUNDS: usize = 3;
const CHURN_RATE: f64 = 0.01;
const MONTH: Duration = Duration::from_secs(30 * 86_400);

/// The spoof-study workload.
pub struct SpoofStudy;

/// What the spoof-study set-up builds.
pub struct SpoofStudyWorld {
    spoof: SpoofWorld,
    population: Population,
}

/// The hosting providers' web and MTA addresses as vantage candidates,
/// labelled as the `spoof-matrix` experiment labels them.
pub fn provider_vantages(world: &SpoofWorld) -> Vec<ProviderVantage> {
    world
        .providers
        .iter()
        .map(|p| ProviderVantage {
            label: format!("hosting{}", p.id),
            web: p.web_ip,
            mta: p.mta_ip,
        })
        .collect()
}

fn json<T: serde::Serialize>(value: &T) -> String {
    serde_json::to_string(value).expect("results serialize")
}

impl Workload for SpoofStudy {
    const CPU_BOUND: bool = true;
    type World = SpoofStudyWorld;

    fn setup(&self, seed: u64, clock: &mut PassClock) -> SpoofStudyWorld {
        let scale = Scale { denominator: SCALE };
        let spoof = clock.stage("netsim.build", || build_spoof_world(scale, seed));
        let population = clock.stage("netsim.build", || {
            Population::build(PopulationConfig { scale, seed })
        });
        SpoofStudyWorld { spoof, population }
    }

    fn run(&self, world: SpoofStudyWorld, seed: u64, clock: &mut PassClock) -> Measured {
        let tracer = clock.tracer();
        let SpoofStudyWorld { spoof, population } = world;
        let crawl_config = CrawlConfig::with_workers(WORKERS);
        let matrix_config = SpoofMatrixConfig::with_workers(WORKERS).cached(true);

        // The stacked matrix over the spoof world.
        let resolver: Arc<dyn Resolver> = maybe_wrap(
            Arc::new(ZoneResolver::new(Arc::clone(&spoof.store))),
            tracer,
        );
        let walker = Walker::new(Arc::clone(&resolver));
        let coverage = clock.stage("crawler.scan", || {
            crawl(&walker, &spoof.domains, crawl_config)
        });
        let vantages = clock.stage("crawler.fold", || {
            select_vantages(
                &coverage.coverage.weighted(),
                &provider_vantages(&spoof),
                DEFAULT_TOP_COVERAGE,
                DEFAULT_CONTROLS,
                seed,
            )
        });
        let matrix = |cache: &AuthCache| {
            auth_matrix_with_cache(&resolver, &spoof.domains, &vantages, matrix_config, cache)
        };
        let auth_cache = AuthCache::new();
        let (cold, cold_stats) = clock.stage("crawler.matrix_cold", || matrix(&auth_cache));
        let (warm, warm_stats) = clock.stage("crawler.matrix_warm", || matrix(&auth_cache));
        let (v2_equals_v1, mut rounds_equal) = clock.check(|| {
            #[allow(deprecated)]
            let (v1, _) = spoof_matrix_v1(&resolver, &spoof.domains, &vantages, matrix_config);
            (
                json(&cold.spf) == json(&v1),
                cold == warm && warm_stats.auth_cache.dmarc_hits > cold_stats.auth_cache.dmarc_hits,
            )
        });
        for _ in 1..MATRIX_ROUNDS {
            let auth_cache = AuthCache::new();
            let (round_cold, _) = clock.stage("crawler.matrix_cold", || matrix(&auth_cache));
            let (round_warm, _) = clock.stage("crawler.matrix_warm", || matrix(&auth_cache));
            rounds_equal &= clock.check(|| round_cold == cold && round_warm == cold);
        }

        // Six months of churn with the matrix attached.
        let store = Arc::clone(&population.store);
        let churn_walker = Walker::new(maybe_wrap(
            Arc::new(ZoneResolver::new(Arc::clone(&store))),
            tracer,
        ));
        let (engine, churn_vantages) = clock.stage("crawler.churn_bootstrap", || {
            let engine = ChurnEngine::bootstrap(
                &churn_walker,
                population.domains.clone(),
                LongitudinalConfig::default().crawl(crawl_config),
            );
            let vantages = select_vantages(
                &engine.weighted(),
                &[],
                DEFAULT_TOP_COVERAGE,
                DEFAULT_CONTROLS,
                seed,
            );
            engine.attach_matrix(churn_walker.resolver(), vantages.clone(), matrix_config);
            (engine, vantages)
        });
        let mut sim = ChurnSimulator::new(
            Arc::clone(&store),
            population.domains.clone(),
            ChurnConfig {
                rate: CHURN_RATE,
                seed,
                ..ChurnConfig::default()
            },
        );
        let (mut recrawled, mut max_recrawled) = (0u64, 0u64);
        for epoch in 1..=EPOCHS {
            let batch = clock.stage("netsim.churn", || {
                let batch = sim.next_epoch();
                batch.apply(&store);
                batch
            });
            let report = clock.stage("crawler.churn_step", || {
                engine.deliver(ZoneDelta::new(batch.domains(), || {}));
                engine.step(&churn_walker, MONTH * epoch)
            });
            recrawled += report.recrawled;
            max_recrawled = max_recrawled.max(report.recrawled);
        }

        // The engine's own identity check: a from-scratch recompute of the
        // churned zone must equal the folded state byte for byte.
        let (reports_equal, coverage_equal, matrix_equal) =
            clock.stage("crawler.recompute_check", || {
                let fresh: Arc<dyn Resolver> =
                    maybe_wrap(Arc::new(ZoneResolver::new(Arc::clone(&store))), tracer);
                let full = crawl(
                    &Walker::new(Arc::clone(&fresh)),
                    &population.domains,
                    crawl_config,
                );
                #[allow(deprecated)]
                let (matrix, _) =
                    spoof_matrix_v1(&fresh, &population.domains, &churn_vantages, matrix_config);
                (
                    json(&engine.reports()) == json(&full.reports),
                    json(&engine.weighted()) == json(&full.coverage.weighted()),
                    engine.matrix().is_some_and(|m| json(&m) == json(&matrix)),
                )
            });
        let strict_subset = max_recrawled < population.domains.len() as u64;

        let flags = [
            v2_equals_v1,
            rounds_equal,
            reports_equal,
            coverage_equal,
            matrix_equal,
            strict_subset,
        ];
        let cells = 2 * MATRIX_ROUNDS as u64 * spoof.domains.len() as u64 * vantages.len() as u64;
        let matrix_s = clock.secs("crawler.matrix_cold") + clock.secs("crawler.matrix_warm");
        let verdict_hits = cold_stats.engine.cache_hits + warm_stats.engine.cache_hits;
        let verdict_probes =
            verdict_hits + cold_stats.engine.cache_misses + warm_stats.engine.cache_misses;
        let auth = warm_stats.auth_cache;
        let walker_stats = [walker.cache_stats(), churn_walker.cache_stats()];
        let walker_hits: u64 = walker_stats.iter().map(|s| s.hits).sum();
        let walker_probes: u64 = walker_stats.iter().map(|s| s.hits + s.misses).sum();

        let mut m = Measured {
            rate_per_s: cells as f64 / matrix_s,
            attempted: flags.len() as u64,
            failed: flags.iter().filter(|ok| !**ok).count() as u64,
            ..Measured::default()
        };
        let layer = &mut m.layer;
        layer.insert("crawler.cells_per_s", m.rate_per_s);
        layer.insert("crawler.recrawled", recrawled as f64);
        layer.insert(
            "crawler.peak_queue_depth",
            coverage
                .stats
                .peak_queue_depth
                .max(cold_stats.engine.peak_queue_depth) as f64,
        );
        layer.insert(
            "core.verdict_cache_hit_rate",
            verdict_hits as f64 / verdict_probes.max(1) as f64,
        );
        layer.insert("core.dmarc_memo_hit_rate", auth.dmarc_hit_rate());
        layer.insert(
            "core.sts_memo_hit_rate",
            auth.sts_hits as f64 / (auth.sts_hits + auth.sts_misses).max(1) as f64,
        );
        layer.insert(
            "analyzer.cache_hit_rate",
            walker_hits as f64 / walker_probes.max(1) as f64,
        );
        layer.insert(
            "analyzer.cache_entries",
            (walker.cache_len() + churn_walker.cache_len()) as f64,
        );

        clock.outside("bench.teardown", || {
            black_box((cold, warm, engine, coverage));
            drop((walker, churn_walker, spoof, population));
        });
        m
    }
}
