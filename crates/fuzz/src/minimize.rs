//! Predicate-driven program shrinking.
//!
//! [`minimize`] takes a program on which some predicate holds (for the
//! fuzzer: "the differential oracle diverges") and greedily applies
//! semantics-shrinking edits — remove a statement, unwrap a loop, keep
//! only one branch of an `If`, halve a trip count, drop unreachable
//! functions — re-checking the predicate after each candidate edit and
//! keeping only edits that preserve it. The result is a local minimum:
//! no single remaining edit keeps the predicate, which in practice is a
//! handful of statements pinpointing the divergence.
//!
//! Lock safety: a `Lock` is only ever removed *together with* its
//! matching `Unlock` in the same block, and `Unlock` is never a removal
//! candidate on its own, so every intermediate candidate keeps
//! lock/unlock pairing intact (the interpreter's raw-mutex unlock is
//! only sound on a held lock).

use dp_trace::ir::{Expr, FuncId, Program, Stmt};

/// One interior descent into a nested block.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Step {
    /// Enter the body of the `For` at this index.
    For(usize),
    /// Enter the then-arm of the `If` at this index.
    Then(usize),
    /// Enter the else-arm of the `If` at this index.
    Else(usize),
}

/// Address of one statement: function, interior descents, final index.
#[derive(Debug, Clone)]
struct Path {
    func: usize,
    steps: Vec<Step>,
    idx: usize,
}

/// A candidate shrinking edit.
#[derive(Debug, Clone)]
enum Edit {
    /// Delete the statement (plus its `Unlock` partner for a `Lock`).
    Remove(Path),
    /// Replace a `For` with its body (runs once, induction var reads 0).
    UnwrapLoop(Path),
    /// Replace an `If` with its then-branch.
    TakeThen(Path),
    /// Replace an `If` with its else-branch.
    TakeElse(Path),
    /// Halve a constant trip count.
    HalveTrips(Path),
    /// Empty the body of a function unreachable from `entry`.
    DropUnreachable(FuncId),
}

/// Counts `Stmt` nodes across all functions — the "instruction count" a
/// minimized repro is measured by.
pub fn stmt_count(prog: &Program) -> usize {
    fn count(stmts: &[Stmt]) -> usize {
        stmts
            .iter()
            .map(|s| {
                1 + match s {
                    Stmt::For { body, .. } => count(body),
                    Stmt::If { then_, else_, .. } => count(then_) + count(else_),
                    _ => 0,
                }
            })
            .sum()
    }
    prog.funcs.iter().map(|f| count(f)).sum()
}

/// Shrinks `prog` while `fails` keeps returning `true`. `fails(prog)`
/// itself must be `true` on entry (debug-asserted); the returned program
/// also satisfies it. `max_checks` bounds predicate evaluations so a
/// pathologically slow predicate cannot wedge the fuzz loop.
pub fn minimize(
    prog: &Program,
    max_checks: usize,
    fails: &mut dyn FnMut(&Program) -> bool,
) -> Program {
    debug_assert!(fails(prog), "minimize called on a passing program");
    let mut best = prog.clone();
    let mut checks = 0usize;
    loop {
        let mut improved = false;
        for edit in candidates(&best) {
            if checks >= max_checks {
                return best;
            }
            let Some(candidate) = apply(&best, &edit) else { continue };
            checks += 1;
            if fails(&candidate) {
                best = candidate;
                improved = true;
                break; // re-enumerate against the smaller program
            }
        }
        if !improved {
            return best;
        }
    }
}

/// Enumerates edits biggest-win-first: drop unreachable functions, then
/// statement removals and structure rewrites in statement order.
fn candidates(prog: &Program) -> Vec<Edit> {
    let mut out = Vec::new();
    for f in unreachable_funcs(prog) {
        out.push(Edit::DropUnreachable(f));
    }
    for (fi, body) in prog.funcs.iter().enumerate() {
        collect(body, fi, &[], &mut out);
    }
    out
}

fn collect(stmts: &[Stmt], func: usize, prefix: &[Step], out: &mut Vec<Edit>) {
    for (i, s) in stmts.iter().enumerate() {
        let path = Path { func, steps: prefix.to_vec(), idx: i };
        if !matches!(s, Stmt::Unlock(_)) {
            out.push(Edit::Remove(path.clone()));
        }
        match s {
            Stmt::For { body, from, to, .. } => {
                out.push(Edit::UnwrapLoop(path.clone()));
                if let (Expr::Const(f), Expr::Const(t)) = (from, to) {
                    if t - f > 1 {
                        out.push(Edit::HalveTrips(path.clone()));
                    }
                }
                let mut inner = prefix.to_vec();
                inner.push(Step::For(i));
                collect(body, func, &inner, out);
            }
            Stmt::If { then_, else_, .. } => {
                out.push(Edit::TakeThen(path.clone()));
                if !else_.is_empty() {
                    out.push(Edit::TakeElse(path.clone()));
                }
                let mut t = prefix.to_vec();
                t.push(Step::Then(i));
                collect(then_, func, &t, out);
                let mut e = prefix.to_vec();
                e.push(Step::Else(i));
                collect(else_, func, &e, out);
            }
            _ => {}
        }
    }
}

/// Functions not reachable from `entry` via `Call`/`Spawn` and with a
/// non-empty body (so the edit is not a no-op).
fn unreachable_funcs(prog: &Program) -> Vec<FuncId> {
    let mut reach = vec![false; prog.funcs.len()];
    let mut stack = vec![prog.entry as usize];
    fn scan(stmts: &[Stmt], stack: &mut Vec<usize>) {
        for s in stmts {
            match s {
                Stmt::Call(f) => stack.push(*f as usize),
                Stmt::Spawn { func, .. } => stack.push(*func as usize),
                Stmt::For { body, .. } => scan(body, stack),
                Stmt::If { then_, else_, .. } => {
                    scan(then_, stack);
                    scan(else_, stack);
                }
                _ => {}
            }
        }
    }
    while let Some(f) = stack.pop() {
        if f >= reach.len() || reach[f] {
            continue;
        }
        reach[f] = true;
        scan(&prog.funcs[f], &mut stack);
    }
    (0..prog.funcs.len())
        .filter(|&f| !reach[f] && !prog.funcs[f].is_empty())
        .map(|f| f as FuncId)
        .collect()
}

/// Applies `edit` to a clone of `prog`; `None` when the edit does not
/// apply (defensive — paths are re-enumerated after every accepted
/// edit, so stale paths should not occur).
fn apply(prog: &Program, edit: &Edit) -> Option<Program> {
    let mut out = prog.clone();
    match edit {
        Edit::DropUnreachable(f) => {
            out.funcs.get_mut(*f as usize)?.clear();
        }
        Edit::Remove(path) => {
            let (block, idx) = locate(&mut out, path)?;
            if idx >= block.len() {
                return None;
            }
            let removed = block.remove(idx);
            if let Stmt::Lock(m) = removed {
                // Take the matching Unlock in the same block with it.
                if let Some(j) =
                    block[idx..].iter().position(|s| matches!(s, Stmt::Unlock(m2) if *m2 == m))
                {
                    block.remove(idx + j);
                }
            }
        }
        Edit::UnwrapLoop(path) => {
            let (block, idx) = locate(&mut out, path)?;
            let Some(Stmt::For { body, .. }) = block.get(idx).cloned() else { return None };
            block.splice(idx..=idx, body);
        }
        Edit::TakeThen(path) => {
            let (block, idx) = locate(&mut out, path)?;
            let Some(Stmt::If { then_, .. }) = block.get(idx).cloned() else { return None };
            block.splice(idx..=idx, then_);
        }
        Edit::TakeElse(path) => {
            let (block, idx) = locate(&mut out, path)?;
            let Some(Stmt::If { else_, .. }) = block.get(idx).cloned() else { return None };
            block.splice(idx..=idx, else_);
        }
        Edit::HalveTrips(path) => {
            let (block, idx) = locate(&mut out, path)?;
            let Some(Stmt::For { from, to, .. }) = block.get_mut(idx) else { return None };
            let (Expr::Const(f), Expr::Const(t)) = (&*from, &*to) else { return None };
            let (f, trips) = (*f, *t - *f);
            if trips <= 1 {
                return None;
            }
            *to = Expr::Const(f + (trips / 2).max(1));
        }
    }
    Some(out)
}

/// Resolves a path to (containing block, statement index).
fn locate<'p>(prog: &'p mut Program, path: &Path) -> Option<(&'p mut Vec<Stmt>, usize)> {
    let mut block: &'p mut Vec<Stmt> = prog.funcs.get_mut(path.func)?;
    for step in &path.steps {
        let next = match *step {
            Step::For(i) => match block.get_mut(i)? {
                Stmt::For { body, .. } => body,
                _ => return None,
            },
            Step::Then(i) => match block.get_mut(i)? {
                Stmt::If { then_, .. } => then_,
                _ => return None,
            },
            Step::Else(i) => match block.get_mut(i)? {
                Stmt::If { else_, .. } => else_,
                _ => return None,
            },
        };
        block = next;
    }
    Some((block, path.idx))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::{generate, FuzzConfig};

    #[test]
    fn always_true_predicate_minimizes_to_nothing() {
        let prog = generate(17, &FuzzConfig::default());
        let min = minimize(&prog, 100_000, &mut |_| true);
        assert_eq!(stmt_count(&min), 0, "got:\n{}", crate::text::print_program(&min));
    }

    #[test]
    fn predicate_preserving_minimum_is_small_and_still_fails() {
        // Predicate: program still stores to array 0 somewhere. The
        // minimum should be a single store statement.
        fn has_store0(stmts: &[Stmt]) -> bool {
            stmts.iter().any(|s| match s {
                Stmt::StoreArr(0, ..) => true,
                Stmt::For { body, .. } => has_store0(body),
                Stmt::If { then_, else_, .. } => has_store0(then_) || has_store0(else_),
                _ => false,
            })
        }
        for seed in 0..10 {
            let prog = generate(seed, &FuzzConfig::default());
            let mut pred = |p: &Program| p.funcs.iter().any(|f| has_store0(f));
            if !pred(&prog) {
                continue;
            }
            let min = minimize(&prog, 100_000, &mut pred);
            assert!(pred(&min));
            assert!(
                stmt_count(&min) <= 2,
                "seed {seed}: {} stmts:\n{}",
                stmt_count(&min),
                crate::text::print_program(&min)
            );
        }
    }

    #[test]
    fn lock_pairs_stay_balanced_through_shrinking() {
        fn balance_ok(stmts: &[Stmt]) -> bool {
            fn walk(stmts: &[Stmt], depth: &mut i64) -> bool {
                for s in stmts {
                    match s {
                        Stmt::Lock(_) => *depth += 1,
                        Stmt::Unlock(_) => {
                            *depth -= 1;
                            if *depth < 0 {
                                return false;
                            }
                        }
                        // Guards with side effects: `walk` updates `depth`
                        // whether or not the arm is taken, which is the
                        // point — a passing subtree still moves the count.
                        Stmt::For { body, .. } if !walk(body, depth) => return false,
                        Stmt::If { then_, else_, .. }
                            if !walk(then_, depth) || !walk(else_, depth) =>
                        {
                            return false;
                        }
                        _ => {}
                    }
                }
                true
            }
            let mut d = 0;
            walk(stmts, &mut d) && d == 0
        }
        for seed in 0..20 {
            let prog = generate(seed, &FuzzConfig::default());
            // Shrink under a predicate that checks balance on every
            // candidate — any unbalanced intermediate would fail here.
            let min = minimize(&prog, 20_000, &mut |p| {
                for f in &p.funcs {
                    assert!(balance_ok(f), "unbalanced locks during shrink (seed {seed})");
                }
                true
            });
            let _ = min;
        }
    }

    #[test]
    fn minimized_programs_still_roundtrip() {
        let prog = generate(23, &FuzzConfig::default());
        let min = minimize(&prog, 5_000, &mut |p| stmt_count(p) > 3);
        let text = crate::text::print_program(&min);
        let back = crate::text::parse_program(&text).unwrap();
        assert_eq!(format!("{:?}", min.funcs), format!("{:?}", back.funcs));
    }
}
