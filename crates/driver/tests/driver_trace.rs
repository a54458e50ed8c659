//! Integration tests for the build-tracing layer: span nesting and id
//! uniqueness across workers, Chrome trace-event export validity and
//! 1-worker determinism, disabled-sink silence, pinned utilization math,
//! and coverage of every instrumented operation on a store-backed build.

use cccc_core::pipeline::{BuildMetrics, CompilerOptions};
use cccc_driver::session::{Session, UnitStatus};
use cccc_driver::workloads;
use cccc_util::trace::{self, BuildTrace, SpanRecord};
use std::collections::HashMap;

/// A 16-unit diamond (base + 14 middles + top) session.
fn diamond_session() -> Session {
    let units = workloads::diamond(14, 2);
    assert_eq!(units.len(), 16);
    workloads::session_from(&units, CompilerOptions::default())
}

fn temp_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("cccc-trace-test-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

// ---------------------------------------------------------------------
// A minimal JSON syntax checker (no serde in this workspace): parses the
// full grammar and returns a value tree for structural assertions.
// ---------------------------------------------------------------------

#[derive(Debug, PartialEq)]
enum Json {
    Null,
    Bool(bool),
    Number(f64),
    String(String),
    Array(Vec<Json>),
    Object(Vec<(String, Json)>),
}

impl Json {
    fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Object(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Array(items) => Some(items),
            _ => None,
        }
    }

    fn as_str(&self) -> Option<&str> {
        match self {
            Json::String(s) => Some(s),
            _ => None,
        }
    }

    fn as_number(&self) -> Option<f64> {
        match self {
            Json::Number(n) => Some(*n),
            _ => None,
        }
    }
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn parse(text: &'a str) -> Result<Json, String> {
        let mut parser = Parser { bytes: text.as_bytes(), pos: 0 };
        let value = parser.value()?;
        parser.skip_ws();
        if parser.pos != parser.bytes.len() {
            return Err(format!("trailing bytes at {}", parser.pos));
        }
        Ok(value)
    }

    fn skip_ws(&mut self) {
        while self.bytes.get(self.pos).is_some_and(|b| b.is_ascii_whitespace()) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, byte: u8) -> Result<(), String> {
        if self.bytes.get(self.pos) == Some(&byte) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected `{}` at {}", byte as char, self.pos))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        self.skip_ws();
        match self.bytes.get(self.pos) {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(Json::String(self.string()?)),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(_) => self.number(),
            None => Err("unexpected end of input".to_owned()),
        }
    }

    fn literal(&mut self, text: &str, value: Json) -> Result<Json, String> {
        if self.bytes[self.pos..].starts_with(text.as_bytes()) {
            self.pos += text.len();
            Ok(value)
        } else {
            Err(format!("bad literal at {}", self.pos))
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        while self
            .bytes
            .get(self.pos)
            .is_some_and(|b| b.is_ascii_digit() || matches!(b, b'-' | b'+' | b'.' | b'e' | b'E'))
        {
            self.pos += 1;
        }
        std::str::from_utf8(&self.bytes[start..self.pos])
            .ok()
            .and_then(|s| s.parse().ok())
            .map(Json::Number)
            .ok_or_else(|| format!("bad number at {start}"))
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.bytes.get(self.pos) {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.bytes.get(self.pos) {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b't') => out.push('\t'),
                        Some(b'r') => out.push('\r'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'u') => {
                            let hex = self
                                .bytes
                                .get(self.pos + 1..self.pos + 5)
                                .ok_or("truncated \\u escape")?;
                            let code = u32::from_str_radix(
                                std::str::from_utf8(hex).map_err(|e| e.to_string())?,
                                16,
                            )
                            .map_err(|e| e.to_string())?;
                            out.push(char::from_u32(code).ok_or("bad \\u code point")?);
                            self.pos += 4;
                        }
                        other => return Err(format!("bad escape {other:?}")),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Multi-byte UTF-8 sequences pass through unescaped.
                    let rest =
                        std::str::from_utf8(&self.bytes[self.pos..]).map_err(|e| e.to_string())?;
                    let ch = rest.chars().next().ok_or("unexpected end in string")?;
                    if (ch as u32) < 0x20 {
                        return Err(format!("unescaped control character at {}", self.pos));
                    }
                    out.push(ch);
                    self.pos += ch.len_utf8();
                }
                None => return Err("unterminated string".to_owned()),
            }
        }
    }

    fn array(&mut self) -> Result<Json, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.bytes.get(self.pos) == Some(&b']') {
            self.pos += 1;
            return Ok(Json::Array(items));
        }
        loop {
            items.push(self.value()?);
            self.skip_ws();
            match self.bytes.get(self.pos) {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Array(items));
                }
                other => return Err(format!("expected `,` or `]`, got {other:?}")),
            }
        }
    }

    fn object(&mut self) -> Result<Json, String> {
        self.expect(b'{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.bytes.get(self.pos) == Some(&b'}') {
            self.pos += 1;
            return Ok(Json::Object(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            let value = self.value()?;
            fields.push((key, value));
            self.skip_ws();
            match self.bytes.get(self.pos) {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Object(fields));
                }
                other => return Err(format!("expected `,` or `}}`, got {other:?}")),
            }
        }
    }
}

// ---------------------------------------------------------------------
// The tests.
// ---------------------------------------------------------------------

#[test]
fn spans_are_well_nested_with_unique_ids_across_workers() {
    let mut session = diamond_session();
    session.set_tracing(true);
    let report = session.build(2).unwrap();
    assert!(report.is_success());
    let built = report.trace.as_ref().expect("tracing was enabled");
    assert!(!built.spans.is_empty());

    // Ids are unique across all workers (one shared atomic allocator).
    let mut by_id: HashMap<u64, &SpanRecord> = HashMap::new();
    for span in &built.spans {
        assert!(by_id.insert(span.id, span).is_none(), "duplicate span id {}", span.id);
        assert!(span.end_ns >= span.start_ns, "span {} ends before it starts", span.name);
    }

    // Parent links stay on one worker and contain their children in time.
    for span in &built.spans {
        if let Some(parent_id) = span.parent {
            let parent = by_id.get(&parent_id).expect("parent span was recorded");
            assert_eq!(parent.worker, span.worker, "parent/child split across workers");
            assert!(parent.start_ns <= span.start_ns && span.end_ns <= parent.end_ns);
        }
    }

    // Per worker, any two spans are disjoint or nested — never crossing.
    for a in &built.spans {
        for b in &built.spans {
            if a.id >= b.id || a.worker != b.worker {
                continue;
            }
            let disjoint = a.end_ns <= b.start_ns || b.end_ns <= a.start_ns;
            let nested = (a.start_ns <= b.start_ns && b.end_ns <= a.end_ns)
                || (b.start_ns <= a.start_ns && a.end_ns <= b.end_ns);
            assert!(
                disjoint || nested,
                "spans {}#{} and {}#{} cross on worker {}",
                a.name,
                a.id,
                b.name,
                b.id,
                a.worker
            );
        }
    }
}

#[test]
fn disabled_sinks_record_nothing_and_reports_still_carry_phases() {
    let mut session = diamond_session();
    assert!(!session.tracing());
    let report = session.build(2).unwrap();
    assert!(report.trace.is_none());
    assert!(report.metrics.is_none());
    // The phase breakdown does not depend on tracing …
    let compiled =
        report.units.iter().find(|u| u.status == UnitStatus::Compiled).expect("cold build");
    let phases = compiled.phases.expect("compiled units break down phases");
    assert!(phases.typecheck > 0 && phases.translate > 0);
    assert!(report.phase_totals().total_ns() > 0);
    // … and neither does the critical path.
    assert!(report.critical_path_ns > 0);
    assert!(report.critical_path_ns <= report.wall_time.as_nanos() as u64);
}

/// The span and instant-event names of a trace's Chrome export.
fn exported_names(built: &BuildTrace) -> (Vec<String>, Vec<String>) {
    let parsed = Parser::parse(&built.to_chrome_json()).expect("chrome export parses as JSON");
    let events = parsed.get("traceEvents").and_then(Json::as_array).expect("traceEvents array");
    let named = |ph: &str| -> Vec<String> {
        events
            .iter()
            .filter(|e| e.get("ph").and_then(Json::as_str) == Some(ph))
            .filter_map(|e| e.get("name").and_then(Json::as_str).map(str::to_owned))
            .collect()
    };
    (named("X"), named("i"))
}

/// A traced, store-backed 16-unit diamond session over `dir`.
fn traced_store_session(units: &[workloads::WorkUnit], dir: &std::path::Path) -> Session {
    let mut session = Session::with_store(CompilerOptions::default(), dir).unwrap();
    for unit in units {
        let imports: Vec<&str> = unit.imports.iter().map(String::as_str).collect();
        session.add_unit(&unit.name, &imports, &unit.term).unwrap();
    }
    session.set_tracing(true);
    session
}

#[test]
fn chrome_export_is_valid_json_with_one_track_per_worker() {
    let dir = temp_dir("chrome");
    let units = workloads::diamond(14, 2);
    let mut session = traced_store_session(&units, &dir);
    let report = session.build(2).unwrap();
    assert!(report.is_success());
    let built = report.trace.as_ref().expect("tracing was enabled");

    let exported = built.to_chrome_json();
    let parsed = Parser::parse(&exported).expect("chrome export parses as JSON");
    assert_eq!(parsed.get("displayTimeUnit").and_then(Json::as_str), Some("ns"));
    let events = parsed.get("traceEvents").and_then(Json::as_array).expect("traceEvents array");
    assert!(!events.is_empty());

    // One thread_name metadata record per worker, and every complete
    // event's tid is one of the workers.
    let workers = built.workers();
    let metadata: Vec<&Json> =
        events.iter().filter(|e| e.get("ph").and_then(Json::as_str) == Some("M")).collect();
    assert_eq!(metadata.len(), workers.len(), "one thread_name track per worker");
    for record in &metadata {
        assert_eq!(record.get("name").and_then(Json::as_str), Some("thread_name"));
        let tid = record.get("tid").and_then(Json::as_number).expect("tid") as usize;
        assert!(workers.contains(&tid));
    }
    for event in events {
        let ph = event.get("ph").and_then(Json::as_str).expect("ph");
        assert!(matches!(ph, "M" | "X" | "i"), "unexpected phase {ph}");
        if ph == "X" {
            assert!(event.get("dur").and_then(Json::as_number).is_some());
            let tid = event.get("tid").and_then(Json::as_number).expect("tid") as usize;
            assert!(workers.contains(&tid));
        }
    }

    // The cold store-backed build exports spans for every pipeline
    // phase and the write-throughs, and the cache-miss verdict.
    let (span_names, event_names) = exported_names(built);
    for required in [
        "unit",
        "fingerprint",
        "cache.lookup",
        "decode",
        "encode",
        "typecheck",
        "translate",
        "check",
        "verify",
        "store.render",
        "store.write",
    ] {
        assert!(span_names.iter().any(|n| n == required), "no `{required}` span in the export");
    }
    for required in ["sched.claim", "sched.ready", "sched.compiled", "cache.miss"] {
        assert!(event_names.iter().any(|n| n == required), "no `{required}` event in the export");
    }

    // The distilled metrics agree with the trace they came from.
    let metrics = report.metrics.as_ref().expect("metrics ride along");
    assert_eq!(metrics.workers, workers.len());
    assert_eq!(metrics.span_count, built.spans.len());
    assert_eq!(metrics.event_count("cache.miss"), 16, "every unit is its own α-class");
    assert!(metrics.phase_ns("typecheck") > 0);
    assert!(metrics.critical_path_ns > 0, "driver fills the critical path in");

    // A restart-warm session over the same store, its verified records
    // deleted, reads every blob back and decodes the sections check and
    // verify need: its export covers the store reads and the disk-tier
    // verdict.
    for entry in std::fs::read_dir(&dir).unwrap().flatten() {
        if entry.path().extension().is_some_and(|e| e == "vfy") {
            std::fs::remove_file(entry.path()).unwrap();
        }
    }
    let warm = traced_store_session(&units, &dir).build(2).unwrap();
    assert!(warm.is_success());
    let (span_names, event_names) = exported_names(warm.trace.as_ref().expect("traced"));
    for required in ["store.read", "store.section", "store.checksum"] {
        assert!(span_names.iter().any(|n| n == required), "no `{required}` span in the export");
    }
    assert!(event_names.iter().any(|n| n == "cache.hit.disk"), "no `cache.hit.disk` event");
    let metrics = warm.metrics.as_ref().expect("metrics ride along");
    assert_eq!(metrics.event_count("cache.hit.disk"), 16, "every unit loads from disk");

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn one_worker_traces_are_structurally_deterministic() {
    let run = || {
        let mut session = diamond_session();
        session.set_tracing(true);
        let report = session.build(1).unwrap();
        assert!(report.is_success());
        report.trace.expect("tracing was enabled")
    };
    let first = run();
    let second = run();
    // Timestamps differ run to run; the timestamp-free structure — span
    // names, nesting depths, units, counter names, event sequence — must
    // not (one worker, deterministic critical-path schedule).
    assert_eq!(first.structure(), second.structure());
    // And the Chrome export is byte-identical modulo ts/dur fields:
    // compare it through the same structural fingerprint after parsing.
    assert!(Parser::parse(&first.to_chrome_json()).is_ok());
}

#[test]
fn utilization_math_is_pinned_to_a_hand_computed_diamond_schedule() {
    // Diamond a → {b, c} → d scheduled on two workers, durations in ns:
    //   a=4 (w0, 0–4), b=3 (w0, 4–7), c=5 (w1, 4–9), d=2 (w0, 9–11).
    // Makespan 11; busy w0 = 4+3+2 = 9, w1 = 5; utilization 14/22.
    let span = |id: u64, name: &'static str, worker: usize, start: u64, end: u64| SpanRecord {
        id,
        parent: None,
        name,
        unit: None,
        worker,
        start_ns: start,
        end_ns: end,
        counters: Vec::new(),
    };
    let built = BuildTrace {
        spans: vec![
            span(0, "unit", 0, 0, 4),
            span(1, "unit", 0, 4, 7),
            span(2, "unit", 1, 4, 9),
            span(3, "unit", 0, 9, 11),
        ],
        events: Vec::new(),
        total_ns: 11,
    };
    let mut metrics = BuildMetrics::of(&built);
    assert_eq!(metrics.makespan_ns, 11);
    assert_eq!(metrics.worker_busy_ns, vec![(0, 9), (1, 5)]);
    let expected_w0 = 9.0 / 11.0;
    let expected_w1 = 5.0 / 11.0;
    let per_worker = metrics.worker_utilization();
    assert!((per_worker[0].1 - expected_w0).abs() < 1e-9);
    assert!((per_worker[1].1 - expected_w1).abs() < 1e-9);
    assert!((metrics.utilization() - 14.0 / 22.0).abs() < 1e-9);
    // Critical path a → c → d = 4 + 5 + 2 = 11: a perfect schedule.
    metrics.critical_path_ns = 11;
    assert!((metrics.makespan_gap().unwrap() - 1.0).abs() < 1e-9);
}

/// Splits the structured payload `store.corrupt` and `store.retry`
/// events share — `path=<blob> reason=<why> attempt=<n>`, fields always
/// in that order, the attempt a bare 0-based integer.
fn parse_fault_payload(label: &str) -> (&str, &str, u64) {
    let rest = label.strip_prefix("path=").expect("payload starts with `path=`");
    let (path, rest) = rest.split_once(" reason=").expect("` reason=` follows the path");
    let (reason, attempt) = rest.split_once(" attempt=").expect("` attempt=` ends the payload");
    (path, reason, attempt.parse().expect("the attempt is a bare integer"))
}

#[test]
fn store_fault_events_share_one_structured_payload() {
    // The transient (`store.retry`) and permanent (`store.corrupt`)
    // fault events carry one machine-parsable payload instead of ad-hoc
    // strings; this test pins the exact shape for trace consumers.
    let dir = temp_dir("fault-payload");
    let units = workloads::diamond(14, 2);
    let build = |faults: cccc_driver::store::FaultPlan| {
        let mut session = traced_store_session(&units, &dir);
        session.set_store_faults(faults);
        let report = session.build(1).unwrap();
        assert!(report.is_success(), "faults never fail a build: {}", report.summary());
        report.trace.expect("tracing was on")
    };

    // Populate cold and fault-free …
    build(cccc_driver::store::FaultPlan::default());

    // … then arm a transient open fault on the warm restart: the first
    // load attempt fails, is retried into a hit, and the retry is traced
    // with the structured payload.
    let trace = build(cccc_driver::store::FaultPlan {
        fail_read: Some(0),
        ..cccc_driver::store::FaultPlan::default()
    });
    let retries: Vec<_> = trace.events.iter().filter(|e| e.name == "store.retry").collect();
    assert_eq!(retries.len(), 1, "one armed fault, one retry event");
    let (path, reason, attempt) = parse_fault_payload(retries[0].unit.as_deref().unwrap());
    assert!(path.ends_with(".art"), "the payload names the blob: {path}");
    assert_eq!(reason, "injected read fault");
    assert_eq!(attempt, 0, "the fault landed on the first attempt");
    assert!(!trace.events.iter().any(|e| e.name == "store.corrupt"), "a retry is not corruption");

    // Permanent corruption — a flipped header byte — emits the sibling
    // event with the same payload shape (and is never retried).
    let blob = std::fs::read_dir(&dir)
        .unwrap()
        .flatten()
        .map(|e| e.path())
        .find(|p| p.extension().is_some_and(|x| x == "art"))
        .expect("the build persisted blobs");
    let mut bytes = std::fs::read(&blob).unwrap();
    bytes[40] ^= 0xFF;
    std::fs::write(&blob, &bytes).unwrap();

    let trace = build(cccc_driver::store::FaultPlan::default());
    let corrupt: Vec<_> = trace.events.iter().filter(|e| e.name == "store.corrupt").collect();
    assert_eq!(corrupt.len(), 1, "exactly the flipped blob was reported");
    let (path, reason, attempt) = parse_fault_payload(corrupt[0].unit.as_deref().unwrap());
    assert_eq!(path, blob.to_string_lossy(), "the payload names the corrupt blob");
    assert!(reason.contains("checksum mismatch"), "the payload says why: {reason}");
    assert_eq!(attempt, 0, "corruption is permanent: no retries, attempt 0");

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn linking_and_evaluator_costs_appear_in_captured_traces() {
    let mut session = diamond_session();
    let report = session.build(2).unwrap();
    assert!(report.is_success());
    // Linking runs post-build on the caller's thread; capture wraps it.
    let (value, link_trace) = trace::capture(|| session.observe("top").unwrap());
    assert_eq!(value, Some(true));
    assert_eq!(link_trace.spans_named("link").count(), 1);

    // The reducer's Cost counters land in traces as events.
    let term =
        cccc_source::builder::app(cccc_source::prelude::not_fn(), cccc_source::builder::tt());
    let ((), cost_trace) = trace::capture(|| {
        let _ = cccc_source::reduce::evaluate_with_cost_default(&cccc_source::Env::new(), &term);
    });
    let cost_events: Vec<_> = cost_trace.events.iter().filter(|e| e.name == "cost.cc").collect();
    assert_eq!(cost_events.len(), 1);
    assert!(cost_events[0].counters.iter().any(|(n, v)| *n == "applications" && *v > 0));
}
