//! The human-readable `--timings` report: where one build spent its
//! time, per phase, per unit, and per worker.
//!
//! [`render`] works from any [`BuildReport`] — the per-unit phase
//! breakdowns are measured on every build — and grows the worker
//! utilization and makespan-gap sections when the report carries
//! [`BuildMetrics`](cccc_core::pipeline::BuildMetrics) from a traced
//! build ([`Session::set_tracing`](crate::session::Session::set_tracing)).
//! This is the text sibling of the Chrome trace-event export
//! ([`BuildTrace::to_chrome_json`](cccc_util::trace::BuildTrace::to_chrome_json)):
//! same data, terminal-shaped.

use crate::cache::CacheTier;
use crate::session::{BuildReport, UnitStatus};
use std::fmt::Write as _;

fn ms(ns: u64) -> String {
    format!("{:.2}", ns as f64 / 1e6)
}

/// The names of the phases a `Compiled` unit did *not* run — the query
/// layer answered them from a memo or a verified record.
fn skipped_phases(unit: &crate::session::UnitReport) -> Vec<&'static str> {
    let runs = unit.phase_runs;
    [
        ("typecheck", runs.typecheck),
        ("translate", runs.translate),
        ("check", runs.check),
        ("verify", runs.verify),
    ]
    .into_iter()
    .filter_map(|(name, ran)| (!ran).then_some(name))
    .collect()
}

fn status_cell(report: &BuildReport, index: usize) -> &'static str {
    let unit = &report.units[index];
    match &unit.status {
        UnitStatus::Compiled => "compiled",
        UnitStatus::Cached => match unit.cached_from {
            Some(CacheTier::Disk) => "cached(disk)",
            _ => "cached(mem)",
        },
        UnitStatus::Failed(_) => "FAILED",
        UnitStatus::Skipped(_) => "skipped",
        UnitStatus::Poisoned { .. } => "POISONED",
        UnitStatus::Panicked { .. } => "PANICKED",
    }
}

/// Renders the timings report for one build.
///
/// Sections: a summary line; per-phase totals over the units that
/// compiled; the per-unit table in schedule order (status, worker, total
/// duration, dominant phases); and — with a traced build — per-worker
/// busy time and utilization plus the actual-vs-critical-path makespan
/// gap.
pub fn render(report: &BuildReport) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "build timings: {}", report.summary());
    // How much of the pipeline the query layer actually ran (units per
    // phase); everything else was answered from the artifact, check, or
    // verified queries.
    let possible = report.units.iter().filter(|u| u.status.is_ok()).count() * 4;
    let _ = writeln!(
        out,
        "queries: {} run, {} cut off",
        report.queries,
        possible.saturating_sub(report.queries.total())
    );
    // Memory-tier cache traffic, including how many same-fingerprint
    // lookups coalesced onto another worker's in-flight disk load.
    let cache = &report.cache;
    let _ = writeln!(
        out,
        "cache: {} hits / {} misses, {} invalidated, {} coalesced",
        cache.hits, cache.misses, cache.invalidations, cache.coalesced,
    );
    // Persistent-store traffic for this build, when a store is attached:
    // the byte and section counters say how much of the blobs the lazy
    // loads actually touched; the retry counters say how many transient
    // I/O faults were absorbed before anything degraded to a miss.
    if let Some(store) = &report.store {
        let _ = writeln!(
            out,
            "store: {} disk hits / {} misses, {} written, io {}B read / {}B written, \
             sections {} decoded / {} deferred, {} retries ({} recovered)",
            store.disk_hits,
            store.disk_misses,
            store.write_throughs,
            store.bytes_read,
            store.bytes_written,
            store.sections_decoded,
            store.sections_skipped,
            store.retries,
            store.retry_successes,
        );
    }
    if let Some(gc) = &report.gc {
        let _ = writeln!(
            out,
            "store gc: {} of {} entries evicted (-{}B), {} live protected, {}B retained",
            gc.evicted, gc.scanned, gc.evicted_bytes, gc.live, gc.retained_bytes,
        );
    }
    let wall_ns = report.wall_time.as_nanos() as u64;

    // Per-phase totals (pipeline time only; cached units contribute 0).
    let totals = report.phase_totals();
    let _ = writeln!(out, "\nphase totals (compiled units, summed across workers):");
    if totals.total_ns() == 0 {
        let _ = writeln!(out, "  (nothing compiled)");
    } else {
        for (name, ns) in totals.rows() {
            if ns == 0 {
                continue;
            }
            let share = ns as f64 / totals.total_ns() as f64 * 100.0;
            let _ = writeln!(out, "  {name:<10} {:>10} ms  {share:>5.1}%", ms(ns));
        }
        let _ = writeln!(out, "  {:<10} {:>10} ms", "total", ms(totals.total_ns()));
    }

    // Per-unit table.
    let _ = writeln!(out, "\nper unit (schedule order):");
    let name_width = report.units.iter().map(|u| u.name.len()).max().unwrap_or(4).max("unit".len());
    let _ = writeln!(
        out,
        "  {:<name_width$}  {:<12}  {:>6}  {:>10}  phases",
        "unit", "status", "worker", "ms"
    );
    for (index, unit) in report.units.iter().enumerate() {
        let mut phases = match &unit.phases {
            Some(p) => p.to_string(),
            None => "-".to_owned(),
        };
        // A partially re-run unit (early cutoff, memo hits) says which
        // phases it skipped — a 0-ns phase alone doesn't distinguish
        // "skipped" from "too fast to time".
        if unit.status == UnitStatus::Compiled && !skipped_phases(unit).is_empty() {
            let _ = write!(phases, "  [skipped: {}]", skipped_phases(unit).join(", "));
        }
        let _ = writeln!(
            out,
            "  {:<name_width$}  {:<12}  {:>6}  {:>10}  {}",
            unit.name,
            status_cell(report, index),
            unit.worker,
            ms(unit.duration.as_nanos() as u64),
            phases,
        );
    }

    // Schedule quality: measured critical path vs what the build took.
    let _ = writeln!(out, "\nschedule:");
    let _ = writeln!(out, "  wall time       {:>10} ms", ms(wall_ns));
    let _ = writeln!(out, "  critical path   {:>10} ms", ms(report.critical_path_ns));
    if let Some(metrics) = &report.metrics {
        let _ = writeln!(out, "  trace makespan  {:>10} ms", ms(metrics.makespan_ns));
        if let Some(gap) = metrics.makespan_gap() {
            let _ = writeln!(out, "  makespan gap    {gap:>10.2}x over the critical path");
        }
        let _ = writeln!(out, "\nworkers ({} tracked):", metrics.workers);
        for (worker, busy_ns) in &metrics.worker_busy_ns {
            let util = if metrics.makespan_ns == 0 {
                0.0
            } else {
                *busy_ns as f64 / metrics.makespan_ns as f64 * 100.0
            };
            let _ = writeln!(out, "  worker {worker}: busy {:>10} ms  {util:>5.1}%", ms(*busy_ns));
        }
        let _ = writeln!(out, "  overall utilization {:.1}%", metrics.utilization() * 100.0);
        if !metrics.events.is_empty() {
            let _ = writeln!(out, "\nevents:");
            for (name, count) in &metrics.events {
                let _ = writeln!(out, "  {name:<20} {count:>8}");
            }
        }
    } else {
        let _ = writeln!(out, "  (enable tracing for worker utilization and the makespan gap)");
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use cccc_core::pipeline::CompilerOptions;

    #[test]
    fn untraced_reports_render_phases_but_not_utilization() {
        let units = crate::workloads::diamond(2, 2);
        let mut session = crate::workloads::session_from(&units, CompilerOptions::default());
        let report = session.build(2).unwrap();
        let rendered = render(&report);
        assert!(rendered.contains("build timings:"));
        assert!(rendered.contains("typecheck"));
        assert!(rendered.contains("critical path"));
        assert!(rendered.contains("enable tracing"));
        assert!(!rendered.contains("overall utilization"));
    }

    #[test]
    fn traced_reports_render_workers_and_events() {
        let units = crate::workloads::diamond(2, 2);
        let mut session = crate::workloads::session_from(&units, CompilerOptions::default());
        session.set_tracing(true);
        let report = session.build(2).unwrap();
        let rendered = render(&report);
        assert!(rendered.contains("trace makespan"));
        assert!(rendered.contains("makespan gap"));
        assert!(rendered.contains("worker 0: busy"));
        assert!(rendered.contains("overall utilization"));
        assert!(rendered.contains("sched.claim"));

        // A warm rebuild's table shows cache provenance and no phases.
        let warm = session.build(2).unwrap();
        let rendered = render(&warm);
        assert!(rendered.contains("cached(mem)"));
        assert!(rendered.contains("(nothing compiled)"));
    }

    #[test]
    fn query_line_and_skip_markers_render() {
        let (units, steps) = crate::workloads::edits(1);
        let mut session = crate::workloads::session_from(&units, CompilerOptions::default());
        let cold = session.build(1).unwrap();
        let rendered = render(&cold);
        assert!(rendered.contains("queries: phases 16tc/16tr/3ck/3vf run"));
        // The diamond's non-representative middles skipped check/verify
        // (settled once per α-class) and the table says so.
        assert!(rendered.contains("[skipped: check, verify]"));

        // An implementation-only edit: the edited unit re-runs all four
        // phases, early cutoff answers everything else.
        session.update_unit(steps[0].unit, &steps[0].term).unwrap();
        let edited = session.build(1).unwrap();
        let rendered = render(&edited);
        assert!(rendered.contains("queries: phases 1tc/1tr/1ck/1vf run, 60 cut off"));

        // A fully-cached rebuild keeps the bare "-" cells.
        let warm = session.build(1).unwrap();
        let rendered = render(&warm);
        assert!(rendered.contains("queries: phases 0tc/0tr/0ck/0vf run, 64 cut off"));
        assert!(!rendered.contains("[skipped:"));
    }
}
