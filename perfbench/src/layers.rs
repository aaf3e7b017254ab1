//! The per-layer metrics of a traced pass: stage times, DNS outcome
//! buckets, self time, busy/idle time, and the workload's own counters.
//!
//! Every name in [`PER_LAYER`] is printed for every workload; a layer a
//! workload never calls reads 0 there.

use std::collections::{BTreeMap, HashMap};

use crate::dnsprobe::{ANSWER, NODATA, TEMP_ERROR};
use crate::trace::{per_thread_self_time, quantile, LeafKey, LeafTotals, Span};

/// Every per-layer metric with its unit, in output order. Must match
/// `per_layer` in BENCHMARK.json (a test checks it).
pub const PER_LAYER: &[(&str, &str)] = &[
    ("netsim.build_s", "s"),
    ("netsim.churn_s", "s"),
    ("netsim.busy_s", "s"),
    ("netsim.idle_s", "s"),
    ("dns.spawn_s", "s"),
    ("dns.lookups", "count"),
    ("dns.lookup_s", "s"),
    ("dns.lookup_p50_us", "us"),
    ("dns.lookup_p99_us", "us"),
    ("dns.nodata_lookups", "count"),
    ("dns.temp_errors", "count"),
    ("dns.timeout_wait_s", "s"),
    ("dns.datagrams_per_domain", "count/domain"),
    ("dns.retries", "count"),
    ("dns.tcp_fallbacks", "count"),
    ("dns.cache_hit_rate", "ratio"),
    ("analyzer.cache_hit_rate", "ratio"),
    ("analyzer.cache_entries", "count"),
    ("crawler.scan_s", "s"),
    ("crawler.rescan_s", "s"),
    ("crawler.peak_queue_depth", "count"),
    ("crawler.self_s", "s"),
    ("crawler.fold_s", "s"),
    ("crawler.matrix_cold_s", "s"),
    ("crawler.matrix_warm_s", "s"),
    ("crawler.cells_per_s", "1/s"),
    ("crawler.churn_bootstrap_s", "s"),
    ("crawler.churn_step_s", "s"),
    ("crawler.recrawled", "count"),
    ("crawler.recompute_check_s", "s"),
    ("crawler.busy_s", "s"),
    ("crawler.idle_s", "s"),
    ("core.verdict_cache_hit_rate", "ratio"),
    ("core.dmarc_memo_hit_rate", "ratio"),
    ("core.sts_memo_hit_rate", "ratio"),
    ("core.eval_us", "us"),
    ("smtp.case_study_s", "s"),
    ("smtp.case_study_cpu_s", "s"),
    ("notify.campaign_s", "s"),
    ("notify.busy_s", "s"),
    ("notify.idle_s", "s"),
    ("report.render_s", "s"),
    ("report.busy_s", "s"),
    ("report.idle_s", "s"),
    ("service.spawn_s", "s"),
    ("service.codec_us", "us"),
    ("service.memo_hit_rate", "ratio"),
    ("service.memo_evictions", "count"),
    ("service.peak_queue_depth", "count"),
    ("service.overloaded", "count"),
    ("service.generator_late_ms", "ms"),
    ("service.p50_ms", "ms"),
    ("service.p99_ms", "ms"),
    ("service.samples", "count"),
    ("service.max_qps", "1/s"),
    ("service.busy_s", "s"),
    ("service.idle_s", "s"),
    ("trace.overhead_s", "s"),
    ("trace.uncovered_s", "s"),
    ("trace.spans", "count"),
];

/// Stage spans whose summed duration is reported as `<name>_s`.
const TIMED_STAGES: &[&str] = &[
    "netsim.build",
    "netsim.churn",
    "dns.spawn",
    "crawler.scan",
    "crawler.rescan",
    "crawler.fold",
    "crawler.matrix_cold",
    "crawler.matrix_warm",
    "crawler.churn_bootstrap",
    "crawler.churn_step",
    "crawler.recompute_check",
    "smtp.case_study",
    "notify.campaign",
    "report.render",
    "service.spawn",
];

/// Layers whose stage spans carry a CPU sample and so report busy
/// (process CPU) and idle (wall time without CPU) seconds.
const BUSY_LAYERS: &[&str] = &["netsim", "crawler", "notify", "report", "service"];

const NS: f64 = 1e9;

fn layer_of(name: &str) -> &str {
    name.split('.').next().unwrap_or(name)
}

/// Wall time inside the timed pass that no stage or check span covers:
/// the pass span minus the union of its direct children.
pub fn uncovered_s(spans: &[Span]) -> f64 {
    let Some(pass) = spans.iter().find(|s| s.name == "bench.pass") else {
        return 0.0;
    };
    let children: Vec<(u64, u64)> = spans
        .iter()
        .filter(|s| s.parent == pass.id)
        .map(|s| (s.start_ns, s.end_ns))
        .collect();
    crate::trace::self_time((pass.start_ns, pass.end_ns), &children) as f64 / NS
}

/// One traced pass's raw material.
pub struct PassTrace<'a> {
    /// Stage spans.
    pub spans: &'a [Span],
    /// Leaf folds (the decorator's `Resolver::query` calls).
    pub leaves: &'a [(LeafKey, LeafTotals)],
    /// Durations (ns) of the queries that returned records.
    pub answered_ns: &'a [u32],
}

/// All per-layer metrics of one traced pass.
pub fn per_layer(
    trace: &PassTrace,
    stages: &BTreeMap<&'static str, f64>,
    counters: &BTreeMap<&'static str, f64>,
    uncovered_s: f64,
) -> BTreeMap<&'static str, f64> {
    let mut out: BTreeMap<&'static str, f64> = BTreeMap::new();
    for &stage in TIMED_STAGES {
        let metric = PER_LAYER
            .iter()
            .find(|(name, _)| name.strip_suffix("_s") == Some(stage))
            .map(|(name, _)| *name)
            .expect("every timed stage has a metric");
        out.insert(metric, stages.get(stage).copied().unwrap_or(0.0));
    }

    // DNS: the decorator's outcome buckets.
    let bucket = |name: &str| -> (u64, u64) {
        trace
            .leaves
            .iter()
            .filter(|(k, _)| k.name == name)
            .fold((0, 0), |(calls, ns), (_, t)| {
                (calls + t.calls, ns + t.busy_ns)
            })
    };
    let (answers, answer_ns) = bucket(ANSWER);
    let (nodata, _) = bucket(NODATA);
    let (temp, temp_ns) = bucket(TEMP_ERROR);
    let mut answered: Vec<f64> = trace.answered_ns.iter().map(|&n| f64::from(n)).collect();
    answered.sort_by(f64::total_cmp);
    out.insert("dns.lookups", (answers + nodata + temp) as f64);
    out.insert("dns.lookup_s", answer_ns as f64 / NS);
    out.insert("dns.lookup_p50_us", quantile(&answered, 0.50) / 1e3);
    out.insert("dns.lookup_p99_us", quantile(&answered, 0.99) / 1e3);
    out.insert("dns.nodata_lookups", nodata as f64);
    out.insert("dns.temp_errors", temp as f64);
    out.insert("dns.timeout_wait_s", temp_ns as f64 / NS);

    // Crawler self time: worker time inside each crawler stage that is
    // not spent in a `Resolver::query`, computed per worker thread.
    let self_ns: u64 = trace
        .spans
        .iter()
        .filter(|s| layer_of(s.name) == "crawler")
        .map(|stage| per_thread_self_time(stage, trace.leaves))
        .sum();
    out.insert("crawler.self_s", self_ns as f64 / NS);

    let stages_by_id: HashMap<u32, &Span> = trace.spans.iter().map(|s| (s.id, s)).collect();
    // Busy/idle per layer over the layer's outermost stage spans.
    for &layer in BUSY_LAYERS {
        let outermost = trace.spans.iter().filter(|s| {
            layer_of(s.name) == layer
                && s.cpu_ns.is_some()
                && stages_by_id
                    .get(&s.parent)
                    .is_none_or(|p| layer_of(p.name) != layer)
        });
        let (mut busy, mut idle) = (0u64, 0u64);
        for s in outermost {
            let cpu = s.cpu_ns.unwrap_or(0);
            busy += cpu;
            idle += s.len_ns().saturating_sub(cpu);
        }
        let (b, i) = match layer {
            "netsim" => ("netsim.busy_s", "netsim.idle_s"),
            "crawler" => ("crawler.busy_s", "crawler.idle_s"),
            "notify" => ("notify.busy_s", "notify.idle_s"),
            "report" => ("report.busy_s", "report.idle_s"),
            _ => ("service.busy_s", "service.idle_s"),
        };
        out.insert(b, busy as f64 / NS);
        out.insert(i, idle as f64 / NS);
    }
    let case_cpu: u64 = trace
        .spans
        .iter()
        .filter(|s| s.name == "smtp.case_study")
        .filter_map(|s| s.cpu_ns)
        .sum();
    out.insert("smtp.case_study_cpu_s", case_cpu as f64 / NS);

    out.insert("trace.uncovered_s", uncovered_s);
    let leaf_calls: u64 = trace.leaves.iter().map(|(_, t)| t.calls).sum();
    out.insert(
        "trace.spans",
        (trace.spans.len() as u64 + leaf_calls) as f64,
    );
    for (name, value) in counters {
        out.insert(name, *value);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u32, parent: u32, name: &'static str, s: u64, e: u64) -> Span {
        Span {
            id,
            parent,
            run: 1,
            thread: 0,
            name,
            start_ns: s,
            end_ns: e,
            cpu_ns: Some((e - s) / 2),
        }
    }

    fn fold(
        thread: u32,
        name: &'static str,
        calls: u64,
        busy: u64,
        first: u64,
        last: u64,
    ) -> (LeafKey, LeafTotals) {
        (
            LeafKey {
                run: 1,
                parent: 2,
                thread,
                name,
            },
            LeafTotals {
                calls,
                busy_ns: busy,
                first_ns: first,
                last_ns: last,
            },
        )
    }

    #[derive(serde::Deserialize)]
    struct Metric {
        name: String,
        unit: String,
    }

    #[derive(serde::Deserialize)]
    struct BenchmarkJson {
        end_to_end: Vec<Metric>,
        per_layer: Vec<Metric>,
    }

    #[test]
    fn benchmark_json_lists_exactly_these_metrics() {
        let text =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
                .expect("BENCHMARK.json at the repository root");
        let json: BenchmarkJson = serde_json::from_str(&text).expect("valid BENCHMARK.json");
        let pairs = |ms: &[Metric]| -> Vec<(String, String)> {
            ms.iter()
                .map(|m| (m.name.clone(), m.unit.clone()))
                .collect()
        };
        let ours = |ms: &[(&str, &str)]| -> Vec<(String, String)> {
            ms.iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(pairs(&json.per_layer), ours(PER_LAYER));
        assert_eq!(pairs(&json.end_to_end), ours(crate::END_TO_END));
    }

    #[test]
    fn every_timed_stage_maps_to_a_metric_and_names_are_unique() {
        let counters = BTreeMap::new();
        let empty = PassTrace {
            spans: &[],
            leaves: &[],
            answered_ns: &[],
        };
        let m = per_layer(&empty, &BTreeMap::new(), &counters, 0.0);
        for (name, _) in PER_LAYER {
            let computed = m.contains_key(name);
            let elsewhere = name.starts_with("service.")
                || name.starts_with("core.")
                || name.starts_with("analyzer.")
                || matches!(
                    *name,
                    "trace.overhead_s"
                        | "crawler.peak_queue_depth"
                        | "crawler.cells_per_s"
                        | "crawler.recrawled"
                        | "dns.datagrams_per_domain"
                        | "dns.retries"
                        | "dns.tcp_fallbacks"
                        | "dns.cache_hit_rate"
                );
            assert!(computed || elsewhere, "{name} is never produced");
        }
        let mut names: Vec<&str> = PER_LAYER.iter().map(|(n, _)| *n).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), PER_LAYER.len());
    }

    #[test]
    fn dns_buckets_self_time_and_uncovered_time() {
        // A pass (1) holding one crawl stage (2) whose two worker
        // threads issue queries, plus 10 ns of glue no stage covers.
        let spans = [
            span(1, 0, "bench.pass", 0, 110),
            span(2, 1, "crawler.scan", 0, 100),
        ];
        let leaves = [
            fold(1, ANSWER, 2, 40, 0, 40),
            fold(2, TEMP_ERROR, 1, 30, 50, 80),
            fold(2, NODATA, 1, 5, 90, 95),
        ];
        let trace = PassTrace {
            spans: &spans,
            leaves: &leaves,
            answered_ns: &[20, 20],
        };
        let mut stages = BTreeMap::new();
        stages.insert("crawler.scan", 100e-9);
        let m = per_layer(&trace, &stages, &BTreeMap::new(), uncovered_s(&spans));
        assert_eq!(m["dns.lookups"], 4.0);
        assert_eq!(m["dns.temp_errors"], 1.0);
        assert_eq!(m["dns.nodata_lookups"], 1.0);
        assert!((m["dns.timeout_wait_s"] - 30e-9).abs() < 1e-15);
        assert!((m["dns.lookup_s"] - 40e-9).abs() < 1e-15);
        assert!((m["dns.lookup_p50_us"] - 0.02).abs() < 1e-12);
        // Thread 1 queries from 0 to 40 without a gap; thread 2 from 50
        // to 95, 35 of it in queries.
        assert!((m["crawler.self_s"] - 10e-9).abs() < 1e-15);
        assert!((m["trace.uncovered_s"] - 10e-9).abs() < 1e-15);
        assert!((m["crawler.scan_s"] - 100e-9).abs() < 1e-15);
        assert_eq!(m["trace.spans"], 6.0);
        // The crawl stage is the crawler layer's only outermost span.
        assert!((m["crawler.busy_s"] - 50e-9).abs() < 1e-15);
        assert!((m["crawler.idle_s"] - 50e-9).abs() < 1e-15);
    }
}
