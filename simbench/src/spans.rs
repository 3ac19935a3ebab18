//! In-memory spans around every call the benchmark makes into a layer,
//! written to one JSON file when the benchmark ends.

use std::collections::HashMap;
use std::time::Instant;

use heterowire_telemetry::json::JsonWriter;

use crate::stats::{fnv1a, FNV_BASIS};

#[derive(Debug)]
struct Span {
    name: &'static str,
    job: usize,
    parent: Option<usize>,
    start: Instant,
    end: Instant,
}

/// Spans of one benchmark run. Spans of one job share the job's id, a
/// hash of its key (workload, model, policy, topology, faults, profile,
/// seed).
#[derive(Debug)]
pub struct SpanLog {
    origin: Instant,
    jobs: Vec<String>,
    job_index: HashMap<String, usize>,
    spans: Vec<Span>,
}

impl SpanLog {
    /// An empty log whose timestamps count from `origin`.
    pub fn new(origin: Instant) -> Self {
        SpanLog {
            origin,
            jobs: Vec::new(),
            job_index: HashMap::new(),
            spans: Vec::new(),
        }
    }

    /// The handle of a job key for [`SpanLog::record`], registering the
    /// key on first use.
    pub fn job(&mut self, key: String) -> usize {
        let next = self.jobs.len();
        *self.job_index.entry(key.clone()).or_insert_with(|| {
            self.jobs.push(key);
            next
        })
    }

    /// Records a finished span and returns its index, usable as a parent.
    pub fn record(
        &mut self,
        name: &'static str,
        job: usize,
        parent: Option<usize>,
        start: Instant,
        end: Instant,
    ) -> usize {
        self.spans.push(Span {
            name,
            job,
            parent,
            start,
            end,
        });
        self.spans.len() - 1
    }

    /// Number of spans recorded.
    pub fn count(&self) -> usize {
        self.spans.len()
    }

    /// The log as one JSON document: `counts` holds the run's event
    /// counts, `jobs` maps each id to its key, and every span gives its
    /// name, job id, parent index (or null) and its start and end in
    /// nanoseconds since the benchmark started.
    pub fn to_json(&self, counts: &[(&str, u64)]) -> String {
        let id = |k: &str| format!("{:016x}", fnv1a(FNV_BASIS, k.as_bytes()));
        let ns = |t: Instant| t.duration_since(self.origin).as_nanos() as u64;
        let mut w = JsonWriter::new();
        w.begin_object();
        w.key("counts").begin_object();
        for &(name, n) in counts {
            w.key(name).u64(n);
        }
        w.end_object();
        w.key("jobs").begin_object();
        for k in &self.jobs {
            w.key(&id(k)).string(k);
        }
        w.end_object();
        w.key("spans").begin_array();
        for s in &self.spans {
            w.begin_object();
            w.key("name").string(s.name);
            w.key("job").string(&id(&self.jobs[s.job]));
            match s.parent {
                Some(p) => w.key("parent").u64(p as u64),
                None => w.key("parent").raw("null"),
            };
            w.key("start_ns").u64(ns(s.start));
            w.key("end_ns").u64(ns(s.end));
            w.end_object();
        }
        w.end_array();
        w.end_object();
        w.finish()
    }
}
