//! End-to-end tests of the analysis report and the machine-readable
//! exports, on real workloads.

use depprof::analysis::{report_for, text_sections, DepGraph, LoopClass, LoopMeta};
use depprof::core::report;
use depprof::trace::workloads::{nas_suite, starbench_suite, Scale};

fn metas(p: &depprof::trace::Program) -> Vec<LoopMeta> {
    p.loops.iter().map(|l| LoopMeta { id: l.id, name: l.name.clone(), omp: l.omp }).collect()
}

#[test]
fn framework_over_cg_reports_reductions() {
    let w = &nas_suite(Scale(0.05))[5]; // CG
    let r = depprof::profile_sequential(&w.program, 1 << 20);
    let reports =
        text_sections(&r, &w.program.interner, &metas(&w.program), &w.program.func_names, 0);
    let par = &reports.iter().find(|(n, _)| *n == "parallelism-discovery").unwrap().1;
    assert!(par.contains("7 reduction candidates"), "{par}");
    assert!(par.contains("dot_rho"));
    let comm = &reports.iter().find(|(n, _)| *n == "communication-pattern").unwrap().1;
    assert!(comm.contains("sequential target"));
}

#[test]
fn loop_table_matches_table2_for_ft() {
    let w = &nas_suite(Scale(0.05))[7]; // FT: 8 OMP, 7 identifiable
    let r = depprof::profile_sequential(&w.program, 1 << 20);
    let t = report_for(&r, &metas(&w.program), 0);
    let named = |class| {
        let of_class = t.loops.iter().filter(move |row| row.class == class);
        of_class.map(|row| (row.omp, row.name.as_str())).collect::<Vec<_>>()
    };
    let id: Vec<_> = named(LoopClass::Doall).into_iter().filter(|&(omp, _)| omp).collect();
    assert_eq!(id.len(), 7, "{id:?}");
    assert_eq!(named(LoopClass::Reduction), [(true, "checksum")]);
}

#[test]
fn dependence_graph_exports_dot_for_real_program() {
    let w = &starbench_suite(Scale(0.03))[2]; // md5
    let r = depprof::profile_sequential_perfect(&w.program);
    let g = DepGraph::build(&r);
    let (nodes, edges) = g.size();
    assert!(nodes > 5 && edges > 5, "{nodes} {edges}");
    let dot = g.to_dot(false);
    assert!(dot.starts_with("digraph deps"));
    assert_eq!(dot.matches(" -> ").count(), edges);
    // md5's state chain must make the RAW depth non-trivial.
    assert!(g.raw_depth() >= 2, "depth {}", g.raw_depth());
}

#[test]
fn csv_export_has_one_row_per_merged_dep() {
    let w = &nas_suite(Scale(0.03))[4]; // EP
    let r = depprof::profile_sequential(&w.program, 1 << 18);
    let csv = report::to_csv(&r, &w.program.interner);
    let rows = csv.lines().count() - 1; // minus header
    assert_eq!(rows as u64, r.stats.deps_merged);
    assert!(csv.lines().skip(1).all(|l| l.split(',').count() == 9));
}
