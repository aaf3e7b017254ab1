//! The bench-side `Resolver` decorator: times every `query` and folds it
//! into the tracer as a leaf call named by its outcome, so a traced run
//! can separate socket round trips from the population's deliberate
//! timeout cohort.

use std::sync::Arc;
use std::time::Instant;

use spf_dns::{DnsError, RecordType, Resolver, ResourceRecord};
use spf_types::DomainName;

use crate::trace::Tracer;

/// Leaf call name of a query that returned records.
pub const ANSWER: &str = "dns.answer";
/// Leaf call name of NXDOMAIN, an empty answer, or a refusal.
pub const NODATA: &str = "dns.nodata";
/// Leaf call name of a timeout or other transient error.
pub const TEMP_ERROR: &str = "dns.temp_error";

/// Wraps a resolver and records every query as a leaf call.
pub struct TimedResolver<R> {
    inner: R,
    tracer: Arc<Tracer>,
}

impl<R> TimedResolver<R> {
    /// Decorate `inner`, recording into `tracer`.
    pub fn new(inner: R, tracer: Arc<Tracer>) -> Self {
        TimedResolver { inner, tracer }
    }
}

/// The leaf call name a query outcome is bucketed under.
pub fn bucket(outcome: &Result<Vec<ResourceRecord>, DnsError>) -> &'static str {
    match outcome {
        Ok(records) if !records.is_empty() => ANSWER,
        Ok(_) => NODATA,
        Err(e) if e.is_transient() => TEMP_ERROR,
        Err(_) => NODATA,
    }
}

impl<R: Resolver> Resolver for TimedResolver<R> {
    fn query(&self, name: &DomainName, rtype: RecordType) -> Result<Vec<ResourceRecord>, DnsError> {
        let started = Instant::now();
        let outcome = self.inner.query(name, rtype);
        self.tracer.leaf(bucket(&outcome), started, Instant::now());
        outcome
    }
}

/// Wrap `resolver` in the decorator when tracing is on; otherwise hand
/// it back untouched so untraced passes run the program's own stack.
pub fn maybe_wrap(resolver: Arc<dyn Resolver>, tracer: &Arc<Tracer>) -> Arc<dyn Resolver> {
    if tracer.enabled() {
        Arc::new(TimedResolver::new(resolver, Arc::clone(tracer)))
    } else {
        resolver
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spf_dns::{ZoneResolver, ZoneStore};

    #[test]
    fn outcomes_land_in_their_buckets() {
        let store = Arc::new(ZoneStore::new());
        let name = DomainName::parse("a.example").unwrap();
        store.add_txt(&name, "v=spf1 -all");
        let tracer = Arc::new(Tracer::new(true));
        let resolver = TimedResolver::new(ZoneResolver::new(store), Arc::clone(&tracer));
        assert!(resolver.query(&name, RecordType::Txt).is_ok());
        assert!(resolver.query(&name, RecordType::Mx).is_ok());
        let missing = DomainName::parse("missing.example").unwrap();
        assert!(resolver.query(&missing, RecordType::Txt).is_err());
        let calls = |name| {
            tracer
                .leaves_of(0)
                .iter()
                .filter(|(k, _)| k.name == name)
                .map(|(_, t)| t.calls)
                .sum::<u64>()
        };
        assert_eq!((calls(ANSWER), calls(NODATA), calls(TEMP_ERROR)), (1, 2, 0));
        assert_eq!(bucket(&Err(DnsError::Timeout)), TEMP_ERROR);
        assert_eq!(bucket(&Err(DnsError::ServFail)), TEMP_ERROR);
        assert_eq!(bucket(&Err(DnsError::Refused)), NODATA);
    }
}
