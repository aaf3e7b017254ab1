//! `verdict-service`: a resident `VerdictService` over UDP loopback.
//!
//! Set-up generates the 1:200 spoof world, crawls it for the coverage
//! profile that picks the vantage addresses, spawns the service (memory
//! resolver, cached evaluator, two workers), builds the seeded query
//! blend and warms the memo with hot traffic. The timed pass replays the
//! blend closed-loop twice: one query at a time (a receiving MTA waiting
//! on each verdict; this is `wall_s`) and with a window of
//! [`PIPELINE_WINDOW`] (the sustained rate; `rate_per_s`). Outside the
//! timed region an open-loop phase at [`NOMINAL_QPS`] measures exact
//! per-query latency from each query's scheduled send time, and traced
//! passes also climb [`LADDER`] for `service.max_qps`. Every response is
//! matched by id; a seeded sample is compared with in-process
//! `check_host` / `evaluate_auth`.

use std::net::IpAddr;
use std::sync::Arc;
use std::time::Instant;

use spf_analyzer::Walker;
use spf_core::{check_host, evaluate_auth, EvalContext, EvalPolicy};
use spf_crawler::{crawl, select_vantages, CrawlConfig, DEFAULT_CONTROLS, DEFAULT_TOP_COVERAGE};
use spf_dns::{Resolver, ZoneResolver};
use spf_netsim::{build_spoof_world, Scale};
use spf_service::{build_plan, QuerySpec, ServiceConfig, TrafficMix, VerdictService};
use spf_types::DomainName;

use crate::dnsprobe::maybe_wrap;
use crate::loadgen::{closed_loop, open_loop, Phase};
use crate::spoofstudy::provider_vantages;
use crate::trace::{quantile, tail_percentile};
use crate::{Measured, PassClock, Workload};

/// Scale divisor of the served world (≈64k domains plus hosting).
pub const SCALE: u64 = 200;
const WORKERS: usize = 2;
/// Warm-up queries (hot skew only) before anything is timed.
const WARMUP_QUERIES: usize = 2_000;
/// One-at-a-time replay: the `wall_s` phase.
const SERIAL_QUERIES: usize = 10_000;
/// Pipelined replay: the `rate_per_s` phase.
const PIPELINED_QUERIES: usize = 60_000;
const PIPELINE_WINDOW: usize = 16;
/// The fixed open-loop rate at which `service.p50_ms`/`p99_ms` are taken.
const NOMINAL_QPS: f64 = 10_000.0;
const OPEN_LOOP_QUERIES: usize = 5_000;
/// Offered rates (q/s) for `service.max_qps`, each held for
/// [`RUNG_SECONDS`]; the climb stops at the first rung that misses.
const LADDER: &[f64] = &[
    5_000.0, 10_000.0, 15_000.0, 20_000.0, 25_000.0, 30_000.0, 35_000.0, 40_000.0,
];
const RUNG_SECONDS: f64 = 0.25;
/// A rung meets the limit when its p99 is at most this and no query was
/// lost, refused or errored.
const LIMIT_P99_MS: f64 = 2.0;
/// Every this-many-th query of each phase is checked in-process.
const SAMPLE_STRIDE: usize = 50;

/// The verdict-service workload.
pub struct VerdictServiceLoad;

/// What the verdict-service set-up builds.
pub struct ServedWorld {
    service: VerdictService,
    resolver: Arc<dyn Resolver>,
    domains: Vec<DomainName>,
    vantage_ips: Vec<IpAddr>,
    plans: Plans,
}

fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The seeded blend: about 70 % hot skew, 20 % cold flood and 10 % hot
/// queries asking for the stacked SPF × DMARC × MTA-STS verdict.
fn blend(domains: &[DomainName], ips: &[IpAddr], n: usize, seed: u64) -> Vec<QuerySpec> {
    let mut hot = build_plan(TrafficMix::HotSkew, domains, ips, n, seed).into_iter();
    let mut cold = build_plan(TrafficMix::ColdFlood, domains, ips, n, seed ^ 0xC01D).into_iter();
    let mut stacked = build_plan(TrafficMix::HotSkew, domains, ips, n, seed ^ 0x57AC).into_iter();
    let mut state = seed;
    (0..n)
        .map(|_| {
            let q = match splitmix64(&mut state) % 10 {
                0..=6 => hot.next(),
                7 | 8 => cold.next(),
                _ => stacked.next().map(|q| QuerySpec { stack: true, ..q }),
            };
            q.expect("each sub-plan holds n queries")
        })
        .collect()
}

/// Query plans of one pass, disjoint so cold queries stay cold.
struct Plans {
    serial: Vec<QuerySpec>,
    pipelined: Vec<QuerySpec>,
    open: Vec<QuerySpec>,
}

fn plans(domains: &[DomainName], ips: &[IpAddr], seed: u64) -> Plans {
    let serial_end = SERIAL_QUERIES;
    let pipelined_end = serial_end + PIPELINED_QUERIES;
    let mut all = blend(domains, ips, pipelined_end + OPEN_LOOP_QUERIES, seed);
    let open = all.split_off(pipelined_end);
    let pipelined = all.split_off(serial_end);
    Plans {
        serial: all,
        pipelined,
        open,
    }
}

fn sampled(i: usize) -> bool {
    i.is_multiple_of(SAMPLE_STRIDE)
}

/// Compare the kept responses of `phase` with in-process evaluation;
/// returns `(mismatches, per-evaluation µs)`.
fn verify(resolver: &dyn Resolver, plan: &[QuerySpec], phase: &Phase) -> (u64, Vec<f64>) {
    let policy = EvalPolicy::default();
    let mut mismatches = 0u64;
    let mut eval_us = Vec::new();
    for (i, q) in plan.iter().enumerate().filter(|(i, _)| sampled(*i)) {
        let Some(response) = phase.kept.get(&i) else {
            continue; // a lost query is already counted as failed
        };
        let ctx = EvalContext::mail_from(q.ip, &q.sender_local, q.domain.clone());
        let started = Instant::now();
        let expected = if q.stack {
            let outcome = evaluate_auth(resolver, &ctx, &q.domain, &policy, None, None, None);
            serde_json::to_string(&outcome)
        } else {
            serde_json::to_string(&check_host(resolver, &ctx, &q.domain, &policy))
        }
        .expect("verdicts serialize");
        eval_us.push(started.elapsed().as_secs_f64() * 1e6);
        if response.body != expected.as_bytes() {
            mismatches += 1;
        }
    }
    (mismatches, eval_us)
}

fn ms(ns: f64) -> f64 {
    ns / 1e6
}

/// The highest ladder rate that meets the latency limit with nothing
/// lost or refused, or 0 if even the first rung misses.
fn climb_ladder(w: &ServedWorld, seed: u64) -> f64 {
    let mut best = 0.0;
    for (rung, &rate) in LADDER.iter().enumerate() {
        let n = (rate * RUNG_SECONDS) as usize;
        let plan = blend(
            &w.domains,
            &w.vantage_ips,
            n,
            seed ^ (0x1ADD_E800 + rung as u64),
        );
        let Ok(phase) = open_loop(w.service.addr(), &plan, rate, &|_| false) else {
            break;
        };
        let mut lat: Vec<f64> = phase.latencies_ns.iter().map(|&n| n as f64).collect();
        lat.sort_by(f64::total_cmp);
        if phase.failed() > 0 || ms(quantile(&lat, 0.99)) > LIMIT_P99_MS {
            break;
        }
        best = rate;
    }
    best
}

impl Workload for VerdictServiceLoad {
    const CPU_BOUND: bool = true;
    type World = ServedWorld;

    fn setup(&self, seed: u64, clock: &mut PassClock) -> ServedWorld {
        let tracer = clock.tracer();
        let world = clock.stage("netsim.build", || {
            build_spoof_world(Scale { denominator: SCALE }, seed)
        });
        let resolver: Arc<dyn Resolver> = Arc::new(ZoneResolver::new(Arc::clone(&world.store)));
        let coverage = clock.stage("crawler.scan", || {
            crawl(
                &Walker::new(Arc::clone(&resolver)),
                &world.domains,
                CrawlConfig::with_workers(WORKERS),
            )
        });
        let vantages = clock.stage("crawler.fold", || {
            select_vantages(
                &coverage.coverage.weighted(),
                &provider_vantages(&world),
                DEFAULT_TOP_COVERAGE,
                DEFAULT_CONTROLS,
                seed,
            )
        });
        let served = maybe_wrap(Arc::clone(&resolver), tracer);
        let service = clock
            .stage("service.spawn", || {
                VerdictService::spawn(served, ServiceConfig::with_workers(WORKERS))
            })
            .expect("the verdict service binds loopback");
        let vantage_ips: Vec<IpAddr> = vantages.iter().map(|v| IpAddr::V4(v.ip)).collect();
        let plans = plans(&world.domains, &vantage_ips, seed);
        let w = ServedWorld {
            service,
            resolver,
            domains: world.domains,
            vantage_ips,
            plans,
        };
        let warm = build_plan(
            TrafficMix::HotSkew,
            &w.domains,
            &w.vantage_ips,
            WARMUP_QUERIES,
            seed ^ 0x3A53,
        );
        clock
            .stage("service.warmup", || {
                closed_loop(w.service.addr(), &warm, PIPELINE_WINDOW, &|_| false)
            })
            .expect("warm-up traffic runs");
        w
    }

    fn run(&self, w: ServedWorld, seed: u64, clock: &mut PassClock) -> Measured {
        let p = &w.plans;
        let addr = w.service.addr();
        let serial = clock
            .stage("service.serial", || {
                closed_loop(addr, &p.serial, 1, &sampled)
            })
            .expect("serial replay runs");
        let pipelined = clock
            .stage("service.pipelined", || {
                closed_loop(addr, &p.pipelined, PIPELINE_WINDOW, &sampled)
            })
            .expect("pipelined replay runs");
        // The latency probes feed per-layer metrics only, so untraced
        // passes skip them.
        let (open, max_qps) = if clock.tracer().enabled() {
            let open = clock
                .outside("service.open_loop", || {
                    open_loop(addr, &p.open, NOMINAL_QPS, &sampled)
                })
                .expect("open-loop phase runs");
            (
                open,
                clock.outside("service.ladder", || climb_ladder(&w, seed)),
            )
        } else {
            (Phase::default(), 0.0)
        };
        let telemetry = w.service.telemetry();
        let (mismatches, eval_us) = clock.check(|| {
            let mut mismatches = 0;
            let mut eval_us = Vec::new();
            for (plan, phase) in [
                (&p.serial, &serial),
                (&p.pipelined, &pipelined),
                (&p.open, &open),
            ] {
                let (m, us) = verify(w.resolver.as_ref(), plan, phase);
                mismatches += m;
                eval_us.extend(us);
            }
            (mismatches, eval_us)
        });
        clock.outside("bench.teardown", || drop(w));

        let phases = [&serial, &pipelined, &open];
        let mut m = Measured {
            rate_per_s: pipelined.sent as f64 / pipelined.elapsed.as_secs_f64(),
            attempted: phases.iter().map(|ph| ph.sent).sum(),
            failed: phases.iter().map(|ph| ph.failed()).sum::<u64>() + mismatches,
            ..Measured::default()
        };
        let mut lat: Vec<f64> = open.latencies_ns.iter().map(|&n| n as f64).collect();
        lat.sort_by(f64::total_cmp);
        let mut late: Vec<f64> = open.late_ns.iter().map(|&n| n as f64).collect();
        late.sort_by(f64::total_cmp);
        let round_trips: u64 = phases.iter().map(|ph| ph.sent).sum();
        let codec_ns: u64 = phases.iter().map(|ph| ph.codec_ns).sum();
        let layer = &mut m.layer;
        layer.insert("service.p50_ms", ms(quantile(&lat, 0.50)));
        // The p99 is reported only when at least ten samples lie beyond it.
        if tail_percentile(lat.len()).is_some_and(|p| p >= 99.0) {
            layer.insert("service.p99_ms", ms(quantile(&lat, 0.99)));
        }
        layer.insert("service.samples", lat.len() as f64);
        layer.insert("service.generator_late_ms", ms(quantile(&late, 0.99)));
        layer.insert("service.max_qps", max_qps);
        layer.insert(
            "service.codec_us",
            codec_ns as f64 / 1e3 / round_trips.max(1) as f64,
        );
        let mut eval_us = eval_us;
        eval_us.sort_by(f64::total_cmp);
        layer.insert("core.eval_us", quantile(&eval_us, 0.5));
        if let Some(cache) = telemetry.cache {
            layer.insert("service.memo_hit_rate", cache.hit_rate());
            layer.insert("service.memo_evictions", cache.evictions as f64);
        }
        layer.insert(
            "service.peak_queue_depth",
            telemetry.peak_queue_depth as f64,
        );
        layer.insert("service.overloaded", telemetry.overloaded as f64);
        let auth = telemetry.auth_cache;
        layer.insert("core.dmarc_memo_hit_rate", auth.dmarc_hit_rate());
        layer.insert(
            "core.sts_memo_hit_rate",
            auth.sts_hits as f64 / (auth.sts_hits + auth.sts_misses).max(1) as f64,
        );
        if !open.latencies_ns.is_empty() {
            eprintln!(
                "[verdict-service] open loop at {NOMINAL_QPS} q/s: p50 {:.4} ms, p99 {:.4} ms, \
                 {} samples, generator p99 late {:.4} ms, {} lost, {} overloaded",
                ms(quantile(&lat, 0.5)),
                ms(quantile(&lat, 0.99)),
                lat.len(),
                ms(quantile(&late, 0.99)),
                open.lost,
                open.overloaded,
            );
        }
        m
    }
}
