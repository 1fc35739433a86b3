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

/// Renders the dependence report. `show_threads` selects the Figure 3
/// format (thread ids on sinks and sources).
///
/// Rows are in `(loc, BGN < NOM < END)` order, END rows by iteration count.
/// Dependences arrive in that order, one NOM row per run of equal sinks;
/// the sorted loop rows are merged in before the NOM rows they precede.
pub fn render(result: &ProfileResult, interner: &Interner, show_threads: bool) -> String {
    // Row keys: (loc, BGN 0 < NOM 1 < END 2, sink thread or iterations).
    let mut loops = Vec::new();
    for (_, r) in result.deps.loops() {
        loops.push(((r.begin, 0, 0), format!("{} BGN loop\n", r.begin)));
        loops.push(((r.end, 2, r.total_iters), format!("{} END loop {}\n", r.end, r.total_iters)));
    }
    loops.sort_unstable(); // rows with equal keys print equal text
    let mut loops = loops.into_iter().peekable();
    let mut out = Vec::with_capacity(result.deps.merged_len() as usize * 16);
    let mut deps = result.deps.dependences().peekable();
    while let Some((d, _)) = deps.next() {
        // Every row ends its line, every edge with `}`: a new row starts here.
        if out.last().is_none_or(|&b| b == b'\n') {
            let row = (d.sink.loc, 1, d.sink.thread.into());
            while let Some((_, text)) = loops.next_if(|(r, _)| *r < row) {
                out.extend_from_slice(text.as_bytes());
            }
            put_loc(&mut out, d.sink.loc, show_threads.then_some(d.sink.thread));
            out.extend_from_slice(b" NOM");
        }
        let DepEdge { dtype, source_loc, source_thread, var, .. } = d.edge;
        out.extend_from_slice(match dtype {
            DepType::Raw => b" {RAW ",
            DepType::War => b" {WAR ",
            DepType::Waw => b" {WAW ",
            DepType::Init => b" {INIT *}",
        });
        if dtype != DepType::Init {
            put_loc(&mut out, source_loc, show_threads.then_some(source_thread));
            out.push(b'|');
            out.extend_from_slice(interner.get(var).unwrap_or("?").as_bytes());
            out.push(b'}');
        }
        if deps.peek().is_none_or(|(next, _)| next.sink != d.sink) {
            out.push(b'\n');
        }
    }
    loops.for_each(|(_, text)| out.extend_from_slice(text.as_bytes()));
    String::from_utf8(out).expect("names are UTF-8 and the rest is ASCII")
}

/// `file:line`, as [`SourceLoc`]'s `Display` writes it, then `|thread`.
fn put_loc(out: &mut Vec<u8>, loc: SourceLoc, thread: Option<ThreadId>) {
    put_uint(out, loc.file.into());
    out.push(b':');
    put_uint(out, loc.line.into());
    if let Some(t) = thread {
        out.push(b'|');
        put_uint(out, t.into());
    }
}

fn put_uint(out: &mut Vec<u8>, mut n: u64) {
    let (mut digits, mut at) = ([0u8; 20], 20);
    while at == 20 || n > 0 {
        at -= 1;
        digits[at] = b'0' + (n % 10) as u8;
        n /= 10;
    }
    out.extend_from_slice(&digits[at..]);
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
    use crate::store::DepStore;
    use dp_types::{loc::loc, DepFlags, MemAccess, TraceEvent};
    use proptest::prelude::*;

    #[derive(PartialEq, Eq, PartialOrd, Ord)]
    enum RowKind {
        Begin,
        Nom(ThreadId),
        End(u64),
    }

    /// The report as a stable sort of formatted rows writes it: the
    /// reference the one-pass [`render`] is held to byte for byte.
    fn render_by_row_sort(result: &ProfileResult, interner: &Interner, threads: bool) -> String {
        let mut rows: Vec<(SourceLoc, RowKind, String)> = Vec::new();
        for (_, rec) in result.deps.loops() {
            rows.push((rec.begin, RowKind::Begin, String::new()));
            rows.push((rec.end, RowKind::End(rec.total_iters), String::new()));
        }
        let mut sink = None;
        for (d, _) in result.deps.dependences() {
            if sink != Some(d.sink) {
                sink = Some(d.sink);
                rows.push((d.sink.loc, RowKind::Nom(d.sink.thread), String::new()));
            }
            let line = &mut rows.last_mut().expect("the sink's row was just pushed").2;
            let DepEdge { dtype, source_loc, source_thread, var, .. } = d.edge;
            let name = interner.get(var).unwrap_or("?");
            let _ = match (dtype, threads) {
                (DepType::Init, _) => write!(line, " {{INIT *}}"),
                (_, true) => write!(line, " {{{dtype} {source_loc}|{source_thread}|{name}}}"),
                (_, false) => write!(line, " {{{dtype} {source_loc}|{name}}}"),
            };
        }
        rows.sort_by(|a, b| (a.0, &a.1).cmp(&(b.0, &b.1)));
        let mut out = String::new();
        for (loc, kind, payload) in rows {
            let _ = match kind {
                RowKind::Begin => writeln!(out, "{loc} BGN loop"),
                RowKind::Nom(thread) if threads => writeln!(out, "{loc}|{thread} NOM{payload}"),
                RowKind::Nom(_) => writeln!(out, "{loc} NOM{payload}"),
                RowKind::End(iters) => writeln!(out, "{loc} END loop {iters}"),
            };
        }
        out
    }

    /// Names for variables 1..=3; 0 is `*` and 4.. are unknown (`?`).
    fn names() -> Interner {
        let mut interner = Interner::new();
        for name in ["a", "bb", "temp1"] {
            interner.intern(name);
        }
        interner
    }

    /// An edge `(sink file, sink line, sink thread, type, source line,
    /// source thread, var)` and a loop `(id, begin line, end line, iters)`,
    /// all on a few lines of two files so that rows meet at one location.
    type Edge = (u8, u32, u16, u8, u32, u16, u32);
    type Loop = (u32, u32, u32, u64);

    fn store(edges: &[Edge], loops: &[Loop], seal: bool) -> ProfileResult {
        let mut deps = DepStore::new();
        for &(file, line, thread, dtype, source, source_thread, var) in edges {
            let sink = dp_types::SinkKey { loc: loc(file, line), thread };
            let dtype = [DepType::Raw, DepType::War, DepType::Waw, DepType::Init][dtype as usize];
            let source = loc(file, source);
            deps.add(sink, dtype, source, source_thread, var, DepFlags::empty(), None);
        }
        for &(id, begin, end, iters) in loops {
            deps.record_loop(id, loc(1, begin), loc(1, end), iters);
        }
        if seal {
            deps.seal();
        }
        ProfileResult { deps, ..ProfileResult::default() }
    }

    #[test]
    fn rows_meeting_at_one_location_keep_the_row_sort_order() {
        let edges = [
            (1, 5, 0, 0, 3, 0, 1), // a sink on a loop's BGN line
            (1, 5, 2, 1, 4, 1, 9), // an MT sink there, on a var nobody named
            (1, 9, 0, 3, 9, 0, 0), // INIT on the END line
            (2, 1, 0, 2, 1, 0, 3), // another file
        ];
        // Two END rows at 1:9, the larger count last; the BGN row at 1:5
        // comes before the NOM rows there, the END rows at 1:9 after them.
        let loops = [(0, 5, 9, 30), (1, 5, 9, 7), (2, 2, 5, 1)];
        let r = store(&edges, &loops, true);
        let text = render(&r, &names(), false);
        let want = "1:2 BGN loop\n1:5 BGN loop\n1:5 BGN loop\n1:5 NOM {RAW 1:3|a}\n\
                    1:5 NOM {WAR 1:4|?}\n1:5 END loop 1\n1:9 NOM {INIT *}\n\
                    1:9 END loop 7\n1:9 END loop 30\n2:1 NOM {WAW 2:1|temp1}\n";
        assert_eq!(text, want);
        let threads = render(&r, &names(), true);
        assert!(threads.contains("1:5|2 NOM {WAR 1:4|1|?}\n"), "{threads}");
        for show in [false, true] {
            assert_eq!(render(&r, &names(), show), render_by_row_sort(&r, &names(), show));
        }
        assert_eq!(render(&ProfileResult::default(), &names(), false), "");
    }

    fn arb_edge() -> impl Strategy<Value = Edge> {
        let sink = (1u8..3, 1u32..8, 0u16..3);
        let edge = (0u8..4, 1u32..8, 0u16..3, 0u32..6);
        (sink, edge).prop_map(|((f, l, t), (d, s, st, v))| (f, l, t, d, s, st, v))
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        /// The one-pass writer writes what sorting formatted rows wrote,
        /// sealed store or not, with thread ids or without.
        #[test]
        fn render_equals_the_row_sort(
            edges in prop::collection::vec(arb_edge(), 0..40),
            loops in prop::collection::vec((0u32..4, 1u32..8, 1u32..8, 0u64..3), 0..6),
            seal in any::<bool>(),
        ) {
            let r = store(&edges, &loops, seal);
            for show in [false, true] {
                prop_assert_eq!(render(&r, &names(), show), render_by_row_sort(&r, &names(), show));
            }
        }
    }

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
