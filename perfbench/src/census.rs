//! `census`: the paper's measurement over real sockets.
//!
//! Set-up generates the population and the hosting world and spawns the
//! sharded wire fleet. The timed pass crawls over `wire:2` with two
//! workers, folds the aggregates, ecosystem and coverage sweep, renders
//! every scan-derived artefact, runs the Table 2 notification campaign,
//! remediation and full rescan on a fresh fleet, and finishes with the
//! Table 5 live-TCP SMTP case study. Both crawls are checked against an
//! in-memory crawl of the same zone state, outside the timed region.

use std::hint::black_box;
use std::sync::Arc;

use spf_analyzer::{DomainReport, Walker};
use spf_bench::{build_resolver, Repro, WireRun};
use spf_crawler::{crawl, include_ecosystem, CrawlConfig, ScanAggregates};
use spf_dns::{Resolver, VirtualClock, WireSnapshot, ZoneResolver, ZoneStore};
use spf_netsim::{build_hosting, HostingWorld, Population, PopulationConfig, Scale};
use spf_notify::{apply_remediation, Campaign, CampaignConfig, FixRates};
use spf_report::paper;
use spf_smtp::run_case_study;
use spf_types::{Backend, DomainName};

use crate::dnsprobe::maybe_wrap;
use crate::{Measured, PassClock, Workload};

/// Population scale divisor (12,823,598 / 500 ≈ 25.6k domains).
pub const SCALE: u64 = 500;
const WORKERS: usize = 2;
const BACKEND: &str = "wire:2";

fn backend() -> Backend {
    Backend::parse(BACKEND).expect("valid backend spec")
}

/// The census workload.
pub struct Census;

/// What the census set-up builds.
pub struct CensusWorld {
    population: Population,
    hosting: HostingWorld,
    resolver: Arc<dyn Resolver>,
    wire: WireRun,
}

impl Workload for Census {
    const CPU_BOUND: bool = false;
    type World = CensusWorld;

    fn setup(&self, seed: u64, clock: &mut PassClock) -> CensusWorld {
        let scale = Scale { denominator: SCALE };
        let population = clock.stage("netsim.build", || {
            Population::build(PopulationConfig { scale, seed })
        });
        let hosting = clock.stage("netsim.build", || build_hosting(scale));
        let (resolver, wire) =
            clock.stage("dns.spawn", || build_resolver(&population.store, backend()));
        CensusWorld {
            population,
            hosting,
            resolver,
            wire: wire.expect("a wire backend spawns a fleet"),
        }
    }

    fn run(&self, world: CensusWorld, seed: u64, clock: &mut PassClock) -> Measured {
        let tracer = clock.tracer();
        let config = CrawlConfig::with_workers(WORKERS).backend(backend());
        let CensusWorld {
            population,
            hosting,
            resolver,
            wire,
        } = world;

        // Scan, then check it against memory before remediation mutates
        // the zone.
        let walker = Walker::new(maybe_wrap(resolver, tracer));
        let scan = clock.stage("crawler.scan", || {
            crawl(&walker, &population.domains, config)
        });
        let scan_mismatches =
            clock.check(|| mismatches(&population.store, &population.domains, &scan.reports));
        let scan_wire = wire.snapshot();

        let (all, top, eco, overlap, overlap_boundaries) = clock.stage("crawler.fold", || {
            let all = ScanAggregates::compute(&scan.reports);
            let top = ScanAggregates::compute(&scan.reports[..population.top_len]);
            let eco = include_ecosystem(&scan.reports, &walker);
            let mut coverage = scan.coverage;
            let boundaries = coverage.boundary_count();
            (all, top, eco, coverage.into_weighted(), boundaries)
        });
        let analyzer_cache = walker.cache_stats();
        let analyzer_entries = walker.cache_len();
        let scan_stats = scan.stats;
        let repro = Repro {
            population,
            walker,
            reports: scan.reports,
            all,
            top,
            eco,
            overlap,
            overlap_boundaries,
            stats: scan_stats,
            config,
            wire: Some(wire),
            denom: SCALE,
            seed,
        };
        let overlap_flags_hold = clock.stage("report.render", || render_artefacts(tracer, &repro));

        // Table 2: campaign, remediation, rescan on a fresh fleet (the
        // first fleet's shards are deep copies of the unremediated zone).
        clock.stage("notify.campaign", || {
            let mut campaign =
                Campaign::new(CampaignConfig::default(), Arc::new(VirtualClock::new()));
            black_box(campaign.run(&repro.reports));
            black_box(apply_remediation(
                &repro.population.store,
                &repro.reports,
                &FixRates::default(),
                seed ^ 0xF1,
            ));
        });
        let (rescan_resolver, rescan_wire) = clock.stage("dns.spawn", || {
            build_resolver(&repro.population.store, backend())
        });
        let rescan_walker = Walker::new(maybe_wrap(rescan_resolver, tracer));
        let rescan = clock.stage("crawler.rescan", || {
            crawl(&rescan_walker, &repro.population.domains, config)
        });
        clock.stage("crawler.fold", || {
            black_box(ScanAggregates::compute(&rescan.reports))
        });
        let rescan_mismatches = clock.check(|| {
            mismatches(
                &repro.population.store,
                &repro.population.domains,
                &rescan.reports,
            )
        });
        let rescan_wire_snap = rescan_wire
            .as_ref()
            .map(WireRun::snapshot)
            .unwrap_or_default();

        // Table 5: live TCP SMTP conversations against the hosting world.
        let case_resolver = maybe_wrap(
            Arc::new(ZoneResolver::new(Arc::clone(&hosting.store))),
            tracer,
        );
        let rows = clock.stage("smtp.case_study", || {
            run_case_study(&hosting, Arc::new(case_resolver))
        });
        let label_failures = clock.check(|| match &rows {
            Ok(rows) if rows.len() == paper::TABLE5.len() => paper::TABLE5
                .iter()
                .zip(rows)
                .filter(|((_, label, _, _), row)| row.success.to_string() != *label)
                .count() as u64,
            _ => paper::TABLE5.len() as u64,
        });

        clock.outside("bench.teardown", || {
            drop(rescan_walker);
            drop(rescan_wire);
            drop(repro);
        });

        let crawled = scan_stats.domains + rescan.stats.domains;
        let crawl_s = clock.secs("crawler.scan") + clock.secs("crawler.rescan");
        let mut m = Measured {
            rate_per_s: crawled as f64 / crawl_s,
            attempted: crawled + paper::TABLE5.len() as u64 + 1,
            failed: scan_mismatches
                + rescan_mismatches
                + label_failures
                + u64::from(!overlap_flags_hold),
            ..Measured::default()
        };
        let wire_total = sum_snapshots(&scan_wire, &rescan_wire_snap);
        let probes = analyzer_cache.hits + analyzer_cache.misses;
        let layer = &mut m.layer;
        layer.insert(
            "dns.datagrams_per_domain",
            wire_total.amplification(crawled),
        );
        layer.insert("dns.retries", wire_total.retries as f64);
        layer.insert("dns.tcp_fallbacks", wire_total.tcp_fallbacks as f64);
        layer.insert("dns.cache_hit_rate", wire_total.cache_hit_rate());
        layer.insert(
            "analyzer.cache_hit_rate",
            analyzer_cache.hits as f64 / probes.max(1) as f64,
        );
        layer.insert("analyzer.cache_entries", analyzer_entries as f64);
        layer.insert(
            "crawler.peak_queue_depth",
            scan_stats
                .peak_queue_depth
                .max(rescan.stats.peak_queue_depth) as f64,
        );
        m
    }
}

/// Render every scan-derived artefact; returns whether the overlap
/// section's in-run consistency flags hold.
fn render_artefacts(tracer: &crate::trace::Tracer, r: &Repro) -> bool {
    let t = |name, f: &dyn Fn() -> String| black_box(tracer.stage(name, f).0);
    t("report.table1", &|| spf_bench::table1(r).0.render());
    t("report.figure1", &|| spf_bench::figure1(r).0.render());
    t("report.figure2", &|| spf_bench::figure2(r).0);
    t("report.figure3", &|| spf_bench::figure3(r).0);
    t("report.figure4", &|| spf_bench::figure4(r).0.render());
    t("report.table3", &|| spf_bench::table3(r).0.render());
    t("report.table4", &|| spf_bench::table4(r).0.render());
    t("report.figure5", &|| spf_bench::figure5(r).0);
    t("report.figure6", &|| spf_bench::figure6(r).0);
    t("report.figure7", &|| spf_bench::figure7(r).0);
    t("report.figure8", &|| spf_bench::figure8(r).0);
    t("report.extras", &|| spf_bench::extras(r).0.render());
    let ((section, exp), _) = tracer.stage("report.overlap", || spf_bench::overlap(r));
    black_box(section);
    exp.worst_relative_error() < 1e-9
}

fn sum_snapshots(a: &WireSnapshot, b: &WireSnapshot) -> WireSnapshot {
    WireSnapshot {
        queries: a.queries + b.queries,
        cache_hits: a.cache_hits + b.cache_hits,
        cache_expired: a.cache_expired + b.cache_expired,
        coalesced: a.coalesced + b.coalesced,
        wire_queries: a.wire_queries + b.wire_queries,
        retries: a.retries + b.retries,
        tcp_fallbacks: a.tcp_fallbacks + b.tcp_fallbacks,
        temp_errors: a.temp_errors + b.temp_errors,
        injected_faults: a.injected_faults + b.injected_faults,
    }
}

/// Domains whose report differs from an in-memory crawl of `store`.
fn mismatches(store: &Arc<ZoneStore>, domains: &[DomainName], reports: &[DomainReport]) -> u64 {
    let walker = Walker::new(ZoneResolver::new(Arc::clone(store)));
    let reference = crawl(&walker, domains, CrawlConfig::with_workers(WORKERS));
    let json = |r: &DomainReport| serde_json::to_string(r).expect("reports serialize");
    let differing = reference
        .reports
        .iter()
        .zip(reports)
        .filter(|(want, got)| json(want) != json(got))
        .count();
    (differing + domains.len().abs_diff(reports.len())) as u64
}
