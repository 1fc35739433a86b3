//! The corpus text format: print a [`Program`] as an s-expression, parse
//! it back, bit-for-bit.
//!
//! Failing fuzz programs are committed to the corpus as *programs*, not
//! as `(seed, generator-version)` pairs: a seed replays a bug only while
//! the generator that produced it stays frozen, whereas a serialized
//! program keeps reproducing forever. The format therefore round-trips
//! every field that influences profiling: source locations (dependences
//! are keyed on them), array base addresses, scalar addresses, the loop
//! table, the interner (in id order, so `VarId`s survive), `entry`,
//! `nlocals`, `nmutexes` and the `Rand` seed.
//!
//! The grammar is a flat s-expression surface — one token kind per IR
//! node — so the parser is a page of recursive descent with typed errors
//! and full range validation (a stale corpus file can fail to parse, but
//! it can never crash the interpreter with an out-of-range id).

use dp_trace::ir::{ArrayDecl, BinOp, Expr, LoopInfo, Program, ScalarDecl, Stmt};
use dp_types::{Interner, SourceLoc};
use std::fmt::Write as _;

/// Serializes `prog` into the corpus text form.
pub fn print_program(prog: &Program) -> String {
    let mut s = String::with_capacity(4096);
    s.push_str("(program\n");
    let _ = writeln!(s, "  (name {})", quote(&prog.name));
    let _ = writeln!(s, "  (seed {})", prog.seed);
    let _ = writeln!(s, "  (entry {})", prog.entry);
    let _ = writeln!(s, "  (nlocals {})", prog.nlocals);
    let _ = writeln!(s, "  (nmutexes {})", prog.nmutexes);
    s.push_str("  (names");
    for id in 0..prog.interner.len() {
        let _ = write!(s, " {}", quote(prog.interner.resolve(id as u32)));
    }
    s.push_str(")\n");
    for a in &prog.arrays {
        let _ = writeln!(s, "  (array {} {} {})", a.name, a.len, a.base);
    }
    for sc in &prog.scalars {
        let _ = writeln!(s, "  (scalar {} {})", sc.name, sc.addr);
    }
    for l in &prog.loops {
        let _ = writeln!(
            s,
            "  (loopinfo {} {} {} {} {})",
            l.id,
            quote(&l.name),
            loc_atom(l.begin),
            loc_atom(l.end),
            u8::from(l.omp)
        );
    }
    for (i, body) in prog.funcs.iter().enumerate() {
        let _ = writeln!(s, "  (func {}", quote(&prog.func_names[i]));
        for st in body {
            print_stmt(&mut s, st, 2);
        }
        s.push_str("  )\n");
    }
    s.push_str(")\n");
    s
}

fn indent(s: &mut String, depth: usize) {
    for _ in 0..depth {
        s.push_str("  ");
    }
}

fn print_stmt(s: &mut String, st: &Stmt, depth: usize) {
    indent(s, depth);
    match st {
        Stmt::StoreScalar(id, val, l) => {
            let _ = write!(s, "(ss {} {} ", id, loc_atom(*l));
            print_expr(s, val);
            s.push_str(")\n");
        }
        Stmt::StoreArr(id, idx, val, l) => {
            let _ = write!(s, "(sa {} {} ", id, loc_atom(*l));
            print_expr(s, idx);
            s.push(' ');
            print_expr(s, val);
            s.push_str(")\n");
        }
        Stmt::SetLocal(lv, val) => {
            let _ = write!(s, "(sl {} ", lv);
            print_expr(s, val);
            s.push_str(")\n");
        }
        Stmt::For { loop_id, var, from, to, body } => {
            let _ = write!(s, "(for {} {} ", loop_id, var);
            print_expr(s, from);
            s.push(' ');
            print_expr(s, to);
            s.push('\n');
            for st in body {
                print_stmt(s, st, depth + 1);
            }
            indent(s, depth);
            s.push_str(")\n");
        }
        Stmt::If { cond, then_, else_ } => {
            s.push_str("(if ");
            print_expr(s, cond);
            s.push('\n');
            indent(s, depth + 1);
            s.push_str("(then\n");
            for st in then_ {
                print_stmt(s, st, depth + 2);
            }
            indent(s, depth + 1);
            s.push_str(")\n");
            indent(s, depth + 1);
            s.push_str("(else\n");
            for st in else_ {
                print_stmt(s, st, depth + 2);
            }
            indent(s, depth + 1);
            s.push_str(")\n");
            indent(s, depth);
            s.push_str(")\n");
        }
        Stmt::Call(f) => {
            let _ = writeln!(s, "(call {f})");
        }
        Stmt::Lock(m) => {
            let _ = writeln!(s, "(lock {m})");
        }
        Stmt::Unlock(m) => {
            let _ = writeln!(s, "(unlock {m})");
        }
        Stmt::Barrier => s.push_str("(barrier)\n"),
        Stmt::Spawn { nthreads, func } => {
            let _ = writeln!(s, "(spawn {nthreads} {func})");
        }
        Stmt::Free(a, l) => {
            let _ = writeln!(s, "(free {} {})", a, loc_atom(*l));
        }
    }
}

fn print_expr(s: &mut String, e: &Expr) {
    match e {
        Expr::Const(v) => {
            let _ = write!(s, "{v}");
        }
        Expr::Local(l) => {
            let _ = write!(s, "(l {l})");
        }
        Expr::LoadScalar(id, l) => {
            let _ = write!(s, "(lds {} {})", id, loc_atom(*l));
        }
        Expr::LoadArr(id, idx, l) => {
            let _ = write!(s, "(lda {} {} ", id, loc_atom(*l));
            print_expr(s, idx);
            s.push(')');
        }
        Expr::Bin(op, a, b) => {
            let _ = write!(s, "(b {} ", op_name(*op));
            print_expr(s, a);
            s.push(' ');
            print_expr(s, b);
            s.push(')');
        }
        Expr::Rand(bound) => {
            s.push_str("(rand ");
            print_expr(s, bound);
            s.push(')');
        }
    }
}

fn loc_atom(l: SourceLoc) -> String {
    format!("{}:{}", l.file, l.line)
}

fn op_name(op: BinOp) -> &'static str {
    match op {
        BinOp::Add => "add",
        BinOp::Sub => "sub",
        BinOp::Mul => "mul",
        BinOp::Div => "div",
        BinOp::Mod => "mod",
        BinOp::And => "and",
        BinOp::Xor => "xor",
        BinOp::Shr => "shr",
        BinOp::Shl => "shl",
        BinOp::Min => "min",
        BinOp::Max => "max",
        BinOp::Lt => "lt",
        BinOp::Eq => "eq",
    }
}

fn quote(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            _ => out.push(c),
        }
    }
    out.push('"');
    out
}

// ---------------------------------------------------------------------
// Parsing.

#[derive(Debug, Clone, PartialEq)]
enum Tok {
    Open,
    Close,
    Atom(String),
    Str(String),
}

fn tokenize(src: &str) -> Result<Vec<Tok>, String> {
    let mut toks = Vec::new();
    let mut chars = src.chars().peekable();
    while let Some(&c) = chars.peek() {
        match c {
            '(' => {
                chars.next();
                toks.push(Tok::Open);
            }
            ')' => {
                chars.next();
                toks.push(Tok::Close);
            }
            '"' => {
                chars.next();
                let mut s = String::new();
                loop {
                    match chars.next() {
                        Some('"') => break,
                        Some('\\') => match chars.next() {
                            Some(e @ ('"' | '\\')) => s.push(e),
                            other => return Err(format!("bad escape {other:?}")),
                        },
                        Some(ch) => s.push(ch),
                        None => return Err("unterminated string".into()),
                    }
                }
                toks.push(Tok::Str(s));
            }
            ';' => {
                // Line comment.
                for ch in chars.by_ref() {
                    if ch == '\n' {
                        break;
                    }
                }
            }
            c if c.is_whitespace() => {
                chars.next();
            }
            _ => {
                let mut a = String::new();
                while let Some(&ch) = chars.peek() {
                    if ch.is_whitespace() || ch == '(' || ch == ')' || ch == ';' {
                        break;
                    }
                    a.push(ch);
                    chars.next();
                }
                toks.push(Tok::Atom(a));
            }
        }
    }
    Ok(toks)
}

struct Parser {
    toks: Vec<Tok>,
    pos: usize,
}

impl Parser {
    fn peek(&self) -> Option<&Tok> {
        self.toks.get(self.pos)
    }

    fn next(&mut self) -> Result<Tok, String> {
        let t = self.toks.get(self.pos).cloned().ok_or("unexpected end of input")?;
        self.pos += 1;
        Ok(t)
    }

    fn expect_open(&mut self) -> Result<(), String> {
        match self.next()? {
            Tok::Open => Ok(()),
            t => Err(format!("expected '(', got {t:?}")),
        }
    }

    fn expect_close(&mut self) -> Result<(), String> {
        match self.next()? {
            Tok::Close => Ok(()),
            t => Err(format!("expected ')', got {t:?}")),
        }
    }

    fn atom(&mut self) -> Result<String, String> {
        match self.next()? {
            Tok::Atom(a) => Ok(a),
            t => Err(format!("expected atom, got {t:?}")),
        }
    }

    fn string(&mut self) -> Result<String, String> {
        match self.next()? {
            Tok::Str(s) => Ok(s),
            t => Err(format!("expected string, got {t:?}")),
        }
    }

    fn head(&mut self) -> Result<String, String> {
        self.expect_open()?;
        self.atom()
    }

    fn num<T: std::str::FromStr>(&mut self) -> Result<T, String> {
        let a = self.atom()?;
        a.parse().map_err(|_| format!("bad number {a:?}"))
    }

    fn loc(&mut self) -> Result<SourceLoc, String> {
        let a = self.atom()?;
        let (f, l) = a.split_once(':').ok_or_else(|| format!("bad loc {a:?}"))?;
        let file: u8 = f.parse().map_err(|_| format!("bad loc file {a:?}"))?;
        let line: u32 = l.parse().map_err(|_| format!("bad loc line {a:?}"))?;
        if line > dp_types::loc::MAX_LINE {
            return Err(format!("loc line {line} out of packed range"));
        }
        Ok(SourceLoc::new(file, line))
    }

    fn expr(&mut self) -> Result<Expr, String> {
        match self.peek() {
            Some(Tok::Atom(_)) => {
                let v: i64 = self.num()?;
                Ok(Expr::Const(v))
            }
            Some(Tok::Open) => {
                let head = self.head()?;
                let e = match head.as_str() {
                    "l" => Expr::Local(self.num()?),
                    "lds" => {
                        let id = self.num()?;
                        let l = self.loc()?;
                        Expr::LoadScalar(id, l)
                    }
                    "lda" => {
                        let id = self.num()?;
                        let l = self.loc()?;
                        let idx = self.expr()?;
                        Expr::LoadArr(id, Box::new(idx), l)
                    }
                    "b" => {
                        let op = parse_op(&self.atom()?)?;
                        let a = self.expr()?;
                        let b = self.expr()?;
                        Expr::Bin(op, Box::new(a), Box::new(b))
                    }
                    "rand" => Expr::Rand(Box::new(self.expr()?)),
                    other => return Err(format!("unknown expr head {other:?}")),
                };
                self.expect_close()?;
                Ok(e)
            }
            t => Err(format!("expected expression, got {t:?}")),
        }
    }

    fn stmt_list(&mut self) -> Result<Vec<Stmt>, String> {
        let mut out = Vec::new();
        while matches!(self.peek(), Some(Tok::Open)) {
            out.push(self.stmt()?);
        }
        Ok(out)
    }

    fn stmt(&mut self) -> Result<Stmt, String> {
        let head = self.head()?;
        let st = match head.as_str() {
            "ss" => {
                let id = self.num()?;
                let l = self.loc()?;
                let val = self.expr()?;
                Stmt::StoreScalar(id, val, l)
            }
            "sa" => {
                let id = self.num()?;
                let l = self.loc()?;
                let idx = self.expr()?;
                let val = self.expr()?;
                Stmt::StoreArr(id, idx, val, l)
            }
            "sl" => {
                let lv = self.num()?;
                let val = self.expr()?;
                Stmt::SetLocal(lv, val)
            }
            "for" => {
                let loop_id = self.num()?;
                let var = self.num()?;
                let from = self.expr()?;
                let to = self.expr()?;
                let body = self.stmt_list()?;
                Stmt::For { loop_id, var, from, to, body }
            }
            "if" => {
                let cond = self.expr()?;
                if self.head()? != "then" {
                    return Err("if: expected (then ...)".into());
                }
                let then_ = self.stmt_list()?;
                self.expect_close()?;
                if self.head()? != "else" {
                    return Err("if: expected (else ...)".into());
                }
                let else_ = self.stmt_list()?;
                self.expect_close()?;
                Stmt::If { cond, then_, else_ }
            }
            "call" => Stmt::Call(self.num()?),
            "lock" => Stmt::Lock(self.num()?),
            "unlock" => Stmt::Unlock(self.num()?),
            "barrier" => Stmt::Barrier,
            "spawn" => {
                let n = self.num()?;
                let f = self.num()?;
                Stmt::Spawn { nthreads: n, func: f }
            }
            "free" => {
                let a = self.num()?;
                let l = self.loc()?;
                Stmt::Free(a, l)
            }
            other => return Err(format!("unknown statement head {other:?}")),
        };
        self.expect_close()?;
        Ok(st)
    }
}

fn parse_op(name: &str) -> Result<BinOp, String> {
    Ok(match name {
        "add" => BinOp::Add,
        "sub" => BinOp::Sub,
        "mul" => BinOp::Mul,
        "div" => BinOp::Div,
        "mod" => BinOp::Mod,
        "and" => BinOp::And,
        "xor" => BinOp::Xor,
        "shr" => BinOp::Shr,
        "shl" => BinOp::Shl,
        "min" => BinOp::Min,
        "max" => BinOp::Max,
        "lt" => BinOp::Lt,
        "eq" => BinOp::Eq,
        other => return Err(format!("unknown operator {other:?}")),
    })
}

/// Parses the corpus text form back into a [`Program`], validating every
/// id against the declared ranges.
pub fn parse_program(src: &str) -> Result<Program, String> {
    let toks = tokenize(src)?;
    let mut p = Parser { toks, pos: 0 };
    if p.head()? != "program" {
        return Err("expected (program ...)".into());
    }

    let mut name = String::new();
    let mut seed = 0u64;
    let mut entry = 0u32;
    let mut nlocals = 0u32;
    let mut nmutexes = 0u32;
    let mut interner = Interner::default();
    let mut names_seen = false;
    let mut arrays: Vec<ArrayDecl> = Vec::new();
    let mut scalars: Vec<ScalarDecl> = Vec::new();
    let mut loops: Vec<LoopInfo> = Vec::new();
    let mut funcs: Vec<Vec<Stmt>> = Vec::new();
    let mut func_names: Vec<String> = Vec::new();

    while matches!(p.peek(), Some(Tok::Open)) {
        let head = p.head()?;
        match head.as_str() {
            "name" => {
                name = p.string()?;
                p.expect_close()?;
            }
            "seed" => {
                seed = p.num()?;
                p.expect_close()?;
            }
            "entry" => {
                entry = p.num()?;
                p.expect_close()?;
            }
            "nlocals" => {
                nlocals = p.num()?;
                p.expect_close()?;
            }
            "nmutexes" => {
                nmutexes = p.num()?;
                p.expect_close()?;
            }
            "names" => {
                while matches!(p.peek(), Some(Tok::Str(_))) {
                    let n = p.string()?;
                    interner.intern(&n);
                }
                names_seen = true;
                p.expect_close()?;
            }
            "array" => {
                let name_id: u32 = p.num()?;
                let len: u64 = p.num()?;
                let base: u64 = p.num()?;
                arrays.push(ArrayDecl { name: name_id, len, base });
                p.expect_close()?;
            }
            "scalar" => {
                let name_id: u32 = p.num()?;
                let addr: u64 = p.num()?;
                scalars.push(ScalarDecl { name: name_id, addr });
                p.expect_close()?;
            }
            "loopinfo" => {
                let id = p.num()?;
                let lname = p.string()?;
                let begin = p.loc()?;
                let end = p.loc()?;
                let omp: u8 = p.num()?;
                loops.push(LoopInfo { id, name: lname, begin, end, omp: omp != 0 });
                p.expect_close()?;
            }
            "func" => {
                let fname = p.string()?;
                let body = p.stmt_list()?;
                p.expect_close()?;
                func_names.push(fname);
                funcs.push(body);
            }
            other => return Err(format!("unknown program section {other:?}")),
        }
    }
    p.expect_close()?;
    if p.pos != p.toks.len() {
        return Err("trailing tokens after (program ...)".into());
    }

    if !names_seen {
        return Err("missing (names ...) section".into());
    }
    if funcs.is_empty() {
        return Err("program has no functions".into());
    }

    let prog = Program {
        name,
        funcs,
        func_names,
        entry,
        arrays,
        scalars,
        loops,
        nlocals,
        nmutexes,
        interner,
        seed,
    };
    validate(&prog)?;
    Ok(prog)
}

/// Every id the statements reference must be declared; violations are
/// parse errors, never interpreter panics.
fn validate(prog: &Program) -> Result<(), String> {
    if prog.entry as usize >= prog.funcs.len() {
        return Err(format!("entry {} out of range ({} funcs)", prog.entry, prog.funcs.len()));
    }
    for a in &prog.arrays {
        if a.len == 0 {
            return Err("zero-length array".into());
        }
        if a.name as usize >= prog.interner.len() {
            return Err(format!("array name id {} not interned", a.name));
        }
    }
    for s in &prog.scalars {
        if s.name as usize >= prog.interner.len() {
            return Err(format!("scalar name id {} not interned", s.name));
        }
    }
    for (i, body) in prog.funcs.iter().enumerate() {
        validate_block(prog, body).map_err(|e| format!("func {i}: {e}"))?;
    }
    Ok(())
}

fn validate_block(prog: &Program, stmts: &[Stmt]) -> Result<(), String> {
    for st in stmts {
        match st {
            Stmt::StoreScalar(id, val, _) => {
                check_scalar(prog, *id)?;
                validate_expr(prog, val)?;
            }
            Stmt::StoreArr(id, idx, val, _) => {
                check_array(prog, *id)?;
                validate_expr(prog, idx)?;
                validate_expr(prog, val)?;
            }
            Stmt::SetLocal(lv, val) => {
                check_local(prog, *lv)?;
                validate_expr(prog, val)?;
            }
            Stmt::For { loop_id, var, from, to, body } => {
                if *loop_id as usize >= prog.loops.len() {
                    return Err(format!("loop id {loop_id} out of range"));
                }
                check_local(prog, *var)?;
                validate_expr(prog, from)?;
                validate_expr(prog, to)?;
                validate_block(prog, body)?;
            }
            Stmt::If { cond, then_, else_ } => {
                validate_expr(prog, cond)?;
                validate_block(prog, then_)?;
                validate_block(prog, else_)?;
            }
            Stmt::Call(f) => {
                if *f as usize >= prog.funcs.len() {
                    return Err(format!("call target {f} out of range"));
                }
            }
            Stmt::Lock(m) | Stmt::Unlock(m) => {
                if *m >= prog.nmutexes {
                    return Err(format!("mutex {m} out of range ({})", prog.nmutexes));
                }
            }
            Stmt::Barrier => {}
            Stmt::Spawn { nthreads, func } => {
                if *nthreads == 0 || *nthreads > 64 {
                    return Err(format!("spawn of {nthreads} threads"));
                }
                if *func as usize >= prog.funcs.len() {
                    return Err(format!("spawn target {func} out of range"));
                }
            }
            Stmt::Free(a, _) => check_array(prog, *a)?,
        }
    }
    Ok(())
}

fn validate_expr(prog: &Program, e: &Expr) -> Result<(), String> {
    match e {
        Expr::Const(_) => Ok(()),
        Expr::Local(l) => check_local(prog, *l),
        Expr::LoadScalar(id, _) => check_scalar(prog, *id),
        Expr::LoadArr(id, idx, _) => {
            check_array(prog, *id)?;
            validate_expr(prog, idx)
        }
        Expr::Bin(_, a, b) => {
            validate_expr(prog, a)?;
            validate_expr(prog, b)
        }
        Expr::Rand(b) => validate_expr(prog, b),
    }
}

fn check_array(prog: &Program, id: u32) -> Result<(), String> {
    if id as usize >= prog.arrays.len() {
        return Err(format!("array id {id} out of range ({})", prog.arrays.len()));
    }
    Ok(())
}

fn check_scalar(prog: &Program, id: u32) -> Result<(), String> {
    if id as usize >= prog.scalars.len() {
        return Err(format!("scalar id {id} out of range ({})", prog.scalars.len()));
    }
    Ok(())
}

fn check_local(prog: &Program, id: u32) -> Result<(), String> {
    if id >= prog.nlocals {
        return Err(format!("local {id} out of range ({})", prog.nlocals));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::{generate, FuzzConfig};
    use dp_trace::interp::Interp;
    use dp_trace::tracer::CollectTracer;

    #[test]
    fn roundtrip_preserves_programs_and_traces() {
        let cfg = FuzzConfig { mt: true, ..FuzzConfig::default() };
        for seed in 0..30 {
            let prog = generate(seed, &cfg);
            let text = print_program(&prog);
            let back = parse_program(&text).unwrap_or_else(|e| panic!("seed {seed}: {e}\n{text}"));
            assert_eq!(format!("{:?}", prog.funcs), format!("{:?}", back.funcs), "seed {seed}");
            assert_eq!(prog.name, back.name);
            assert_eq!(prog.seed, back.seed);
            assert_eq!(prog.entry, back.entry);
            assert_eq!(prog.nlocals, back.nlocals);
            assert_eq!(prog.nmutexes, back.nmutexes);
            assert_eq!(format!("{:?}", prog.arrays), format!("{:?}", back.arrays));
            assert_eq!(format!("{:?}", prog.scalars), format!("{:?}", back.scalars));
            assert_eq!(format!("{:?}", prog.loops), format!("{:?}", back.loops));
            assert_eq!(prog.interner.len(), back.interner.len());
            for id in 0..prog.interner.len() as u32 {
                assert_eq!(prog.interner.resolve(id), back.interner.resolve(id));
            }
            // Same trace, event for event (sequential programs only).
            if !crate::gen::is_mt(&prog) {
                let mut t1 = CollectTracer::default();
                Interp::new(&prog).run_seq(&mut t1);
                let mut t2 = CollectTracer::default();
                Interp::new(&back).run_seq(&mut t2);
                assert_eq!(format!("{:?}", t1.events), format!("{:?}", t2.events), "seed {seed}");
            }
        }
    }

    #[test]
    fn out_of_range_ids_are_parse_errors() {
        let prog = generate(3, &FuzzConfig::default());
        let text = print_program(&prog);
        // Corrupt an array reference to one past the end.
        let bogus = text.replace("(sa 0 ", &format!("(sa {} ", prog.arrays.len()));
        if bogus != text {
            assert!(parse_program(&bogus).is_err());
        }
        // Entry out of range.
        let bogus = text.replace("(entry ", "(entry 9");
        assert!(parse_program(&bogus).is_err());
    }

    #[test]
    fn junk_never_panics() {
        for src in [
            "",
            "(",
            ")",
            "(program",
            "(program)",
            "(program (name \"x\") (names) (func \"m\" (zz)))",
            "(program (names \"a\") (func \"m\" (ss 0 1:1 5)))", // scalar 0 undeclared
            "(program (name \"x\") (names) (func \"m\" (for 0 2 0 3)))", // loop 0 undeclared
            "(program (seed notanumber))",
            "(program (name \"unterminated))",
        ] {
            let _ = parse_program(src);
        }
    }

    #[test]
    fn comments_and_whitespace_are_tolerated() {
        let prog = generate(5, &FuzzConfig::default());
        let text = print_program(&prog);
        let commented = format!("; corpus repro\n; seed 5\n{text}\n; trailing\n");
        let back = parse_program(&commented).unwrap();
        assert_eq!(format!("{:?}", prog.funcs), format!("{:?}", back.funcs));
    }
}
