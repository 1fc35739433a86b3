//! Textual dependence reports in the paper's output format.
//!
//! Sequential targets (Figure 1):
//!
//! ```text
//! 1:60 BGN loop
//! 1:60 NOM {RAW 1:60|i} {WAR 1:60|i} {INIT *}
//! 1:63 NOM {RAW 1:59|temp1} {RAW 1:67|temp1}
//! 1:74 END loop 1200
//! ```
//!
//! Multi-threaded targets (Figure 3) add thread ids to both endpoints:
//!
//! ```text
//! 4:58|2 NOM {WAR 4:77|2|iter}
//! ```

use crate::result::ProfileResult;
use dp_types::{DepEdge, DepType, Interner, SourceLoc, ThreadId};
use std::fmt::Write as _;

#[derive(PartialEq, Eq, PartialOrd, Ord)]
enum RowKind {
    Begin,
    Nom(ThreadId),
    End(u64),
}

/// Renders the dependence report. `show_threads` selects the Figure 3
/// format (thread ids on sinks and sources).
pub fn render(result: &ProfileResult, interner: &Interner, show_threads: bool) -> String {
    let mut rows: Vec<(SourceLoc, RowKind, String)> = Vec::new();

    for (_, rec) in result.deps.loops() {
        rows.push((rec.begin, RowKind::Begin, String::new()));
        rows.push((rec.end, RowKind::End(rec.total_iters), String::new()));
    }

    // Dependences arrive in `(sink, key)` order: one row per run of
    // equal sinks.
    let mut sink = None;
    for (d, _) in result.deps.dependences() {
        if sink != Some(d.sink) {
            sink = Some(d.sink);
            rows.push((d.sink.loc, RowKind::Nom(d.sink.thread), String::new()));
        }
        let line = &mut rows.last_mut().expect("the sink's row was just pushed").2;
        line.push(' ');
        fmt_edge(line, &d.edge, interner, show_threads);
    }

    rows.sort_by(|a, b| (a.0, &a.1).cmp(&(b.0, &b.1)));

    let mut out = String::new();
    for (loc, kind, payload) in rows {
        match kind {
            RowKind::Begin => {
                let _ = writeln!(out, "{loc} BGN loop");
            }
            RowKind::Nom(thread) => {
                if show_threads {
                    let _ = writeln!(out, "{loc}|{thread} NOM{payload}");
                } else {
                    let _ = writeln!(out, "{loc} NOM{payload}");
                }
            }
            RowKind::End(iters) => {
                let _ = writeln!(out, "{loc} END loop {iters}");
            }
        }
    }
    out
}

fn fmt_edge(out: &mut String, edge: &DepEdge, interner: &Interner, show_threads: bool) {
    let DepEdge { dtype, source_loc, source_thread, .. } = *edge;
    if dtype == DepType::Init {
        out.push_str("{INIT *}");
        return;
    }
    let name = interner.get(edge.var).unwrap_or("?");
    if show_threads {
        let _ = write!(out, "{{{dtype} {source_loc}|{source_thread}|{name}}}");
    } else {
        let _ = write!(out, "{{{dtype} {source_loc}|{name}}}");
    }
}

/// Renders a compact summary header (program, counts, memory) used by the
/// experiment harness above each report.
pub fn summary(result: &ProfileResult) -> String {
    format!(
        "accesses={} deps_built={} deps_merged={} merge_factor={:.0} workers={} memory={}B",
        result.stats.accesses,
        result.stats.deps_built,
        result.stats.deps_merged,
        result.merge_factor(),
        result.workers,
        result.memory.total(),
    )
}

/// Machine-readable CSV export of the merged dependences:
/// `type,sink,sink_thread,source,source_thread,var,count,carried,reversed`.
pub fn to_csv(result: &ProfileResult, interner: &Interner) -> String {
    use dp_types::DepFlags;
    let mut out =
        String::from("type,sink,sink_thread,source,source_thread,var,count,carried,reversed\n");
    for (d, v) in result.deps.dependences() {
        let _ = writeln!(
            out,
            "{},{},{},{},{},{},{},{},{}",
            d.edge.dtype,
            d.sink.loc,
            d.sink.thread,
            d.edge.source_loc,
            d.edge.source_thread,
            interner.get(d.edge.var).unwrap_or("?"),
            v.count,
            d.edge.flags.contains(DepFlags::LOOP_CARRIED),
            d.edge.flags.contains(DepFlags::REVERSED),
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::seq::SequentialProfiler;
    use dp_types::{loc::loc, MemAccess, TraceEvent};

    #[test]
    fn figure1_style_output() {
        let mut interner = Interner::new();
        let temp1 = interner.intern("temp1");
        let mut p = SequentialProfiler::perfect();
        p.on_event(&TraceEvent::LoopBegin { loop_id: 0, loc: loc(1, 60), thread: 0, ts: 1 });
        p.on_event(&TraceEvent::LoopIter { loop_id: 0, iter: 0, thread: 0, ts: 2 });
        p.on_event(&TraceEvent::Access(MemAccess::write(0x8, 3, loc(1, 59), temp1, 0)));
        p.on_event(&TraceEvent::Access(MemAccess::read(0x8, 4, loc(1, 63), temp1, 0)));
        p.on_event(&TraceEvent::LoopEnd {
            loop_id: 0,
            loc: loc(1, 74),
            iters: 1200,
            thread: 0,
            ts: 5,
        });
        let r = p.finish();
        let text = render(&r, &interner, false);
        assert!(text.contains("1:60 BGN loop"), "{text}");
        assert!(text.contains("1:63 NOM {RAW 1:59|temp1}"), "{text}");
        assert!(text.contains("1:74 END loop 1200"), "{text}");
        assert!(text.contains("1:59 NOM {INIT *}"), "{text}");
    }

    #[test]
    fn figure3_style_output_with_threads() {
        use crate::{MtProfiler, ProfilerConfig};
        use dp_types::{AccessKind, Tracer, TracerFactory};
        let mut interner = Interner::new();
        let iter = interner.intern("iter");
        // A multi-threaded target's records carry threads: the MT engine's.
        let cfg = ProfilerConfig::default().with_workers(1);
        let prof = MtProfiler::with_store_factory(cfg, dp_sig::PerfectSignature::new);
        let mut t2 = prof.tracer(2);
        let access = |ts, line, kind| {
            TraceEvent::Access(MemAccess {
                addr: 0x10,
                ts,
                loc: loc(4, line),
                var: iter,
                thread: 2,
                kind,
            })
        };
        t2.event(access(1, 77, AccessKind::Read));
        t2.event(access(2, 58, AccessKind::Write));
        // Write with empty write-sig is INIT; write again for WAR/WAW.
        t2.event(access(3, 58, AccessKind::Write));
        prof.join(2, t2);
        let r = prof.finish();
        let text = render(&r, &interner, true);
        assert!(text.contains("4:58|2 NOM"), "{text}");
        assert!(text.contains("{WAR 4:77|2|iter}"), "{text}");
    }

    #[test]
    fn csv_export_roundtrips_fields() {
        let mut interner = Interner::new();
        let x = interner.intern("x");
        let mut p = SequentialProfiler::perfect();
        p.on_event(&TraceEvent::Access(MemAccess::write(0x8, 1, loc(1, 10), x, 0)));
        p.on_event(&TraceEvent::Access(MemAccess::read(0x8, 2, loc(1, 11), x, 0)));
        let r = p.finish();
        let csv = to_csv(&r, &interner);
        let mut lines = csv.lines();
        assert!(lines.next().unwrap().starts_with("type,sink"));
        assert!(csv.contains("RAW,1:11,0,1:10,0,x,1,false,false"), "{csv}");
    }

    #[test]
    fn summary_contains_counts() {
        let p = SequentialProfiler::perfect();
        let r = p.finish();
        let s = summary(&r);
        assert!(s.contains("accesses=0"));
        assert!(s.contains("workers=0"));
    }
}
