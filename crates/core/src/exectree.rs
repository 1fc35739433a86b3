//! The dynamic execution tree (Section VIII: "the framework reorganizes
//! profiled data into multiple representations, including dynamic
//! execution tree, call tree, ...").
//!
//! Nodes are dynamic nesting contexts — function calls and loop
//! instances — with entry counts; children are keyed by what was entered,
//! so repeated entries of the same construct merge into one node with a
//! count, keeping the tree finite regardless of run length. Per-thread
//! roots give parallel targets one tree per target thread.

use dp_types::{ByteReader, ByteWriter, LoopId, ThreadId, WireError};
use std::collections::BTreeMap;

fn save_kind(k: ExecNodeKind, out: &mut ByteWriter) {
    match k {
        ExecNodeKind::Call(f) => {
            out.u8(0);
            out.u32(f);
        }
        ExecNodeKind::Loop(l) => {
            out.u8(1);
            out.u32(l);
        }
    }
}

fn load_kind(r: &mut ByteReader) -> Result<ExecNodeKind, WireError> {
    Ok(match r.u8()? {
        0 => ExecNodeKind::Call(r.u32()?),
        1 => ExecNodeKind::Loop(r.u32()?),
        _ => return Err(WireError::Invalid("unknown execution-tree node kind")),
    })
}

fn save_node(n: &ExecNode, out: &mut ByteWriter) {
    out.u64(n.count);
    out.u32(n.children.len() as u32);
    for (k, c) in &n.children {
        save_kind(*k, out);
        save_node(c, out);
    }
}

fn load_node(r: &mut ByteReader) -> Result<ExecNode, WireError> {
    let count = r.u64()?;
    let nchildren = r.u32()?;
    let mut children = BTreeMap::new();
    for _ in 0..nchildren {
        let k = load_kind(r)?;
        children.insert(k, load_node(r)?);
    }
    Ok(ExecNode { count, children })
}

/// What a node of the execution tree represents.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum ExecNodeKind {
    /// A function call (static function id).
    Call(u32),
    /// A loop instance (static loop id).
    Loop(LoopId),
}

/// One merged node of the execution tree.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ExecNode {
    /// Dynamic entries merged into this node.
    pub count: u64,
    /// Children, keyed by construct.
    pub children: BTreeMap<ExecNodeKind, ExecNode>,
}

impl ExecNode {
    fn merge_from(&mut self, other: &ExecNode) {
        self.count += other.count;
        for (k, v) in &other.children {
            self.children.entry(*k).or_default().merge_from(v);
        }
    }
}

/// Per-thread dynamic execution trees with the live recording stacks.
#[derive(Debug, Clone, Default)]
pub struct ExecTree {
    roots: BTreeMap<ThreadId, ExecNode>,
    stacks: BTreeMap<ThreadId, Vec<ExecNodeKind>>, // current path per thread
}

impl ExecTree {
    /// Empty tree.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records entry into a construct on thread `t`.
    pub fn enter(&mut self, t: ThreadId, kind: ExecNodeKind) {
        let stack = self.stacks.entry(t).or_default();
        stack.push(kind);
        let path = stack.clone();
        let mut node = self.roots.entry(t).or_default();
        for k in path {
            node = node.children.entry(k).or_default();
        }
        node.count += 1;
    }

    /// Records exit from the innermost construct on thread `t` (the kind
    /// is checked so unbalanced streams cannot corrupt the tree).
    pub fn exit(&mut self, t: ThreadId, kind: ExecNodeKind) {
        if let Some(stack) = self.stacks.get_mut(&t) {
            if stack.last() == Some(&kind) {
                stack.pop();
            }
        }
    }

    /// Per-thread root nodes (recording stacks need not be empty).
    pub fn roots(&self) -> impl Iterator<Item = (&ThreadId, &ExecNode)> {
        self.roots.iter()
    }

    /// Merges another tree (workers' local trees → global tree).
    pub fn merge(&mut self, other: &ExecTree) {
        for (t, r) in &other.roots {
            self.roots.entry(*t).or_default().merge_from(r);
        }
    }

    /// Plain-text rendering with `names(kind) -> label`.
    pub fn render(&self, mut names: impl FnMut(ExecNodeKind) -> String) -> String {
        fn walk(
            node: &ExecNode,
            kind: Option<ExecNodeKind>,
            depth: usize,
            names: &mut impl FnMut(ExecNodeKind) -> String,
            out: &mut String,
        ) {
            if let Some(k) = kind {
                out.push_str(&"  ".repeat(depth));
                out.push_str(&format!("{} x{}\n", names(k), node.count));
            }
            for (k, v) in &node.children {
                walk(v, Some(*k), depth + 1, names, out);
            }
        }
        let mut out = String::new();
        for (t, r) in &self.roots {
            out.push_str(&format!("thread {t}:\n"));
            walk(r, None, 0, &mut names, &mut out);
        }
        out
    }

    /// Serializes the tree *and* the live recording stacks for a
    /// checkpoint, so a resumed run keeps attributing entries to the
    /// correct (possibly still-open) nesting context. Deterministic via
    /// BTreeMap order.
    pub fn save(&self, out: &mut ByteWriter) {
        out.u32(self.roots.len() as u32);
        for (t, n) in &self.roots {
            out.u16(*t);
            save_node(n, out);
        }
        out.u32(self.stacks.len() as u32);
        for (t, s) in &self.stacks {
            out.u16(*t);
            out.u32(s.len() as u32);
            for k in s {
                save_kind(*k, out);
            }
        }
    }

    /// Rebuilds a tree previously produced by [`ExecTree::save`].
    pub fn load(bytes: &[u8]) -> Result<Self, WireError> {
        let mut r = ByteReader::new(bytes);
        let nroots = r.u32()?;
        let mut roots = BTreeMap::new();
        for _ in 0..nroots {
            let t = r.u16()?;
            roots.insert(t, load_node(&mut r)?);
        }
        let nstacks = r.u32()?;
        let mut stacks = BTreeMap::new();
        for _ in 0..nstacks {
            let t = r.u16()?;
            let depth = r.count()?;
            let mut stack = Vec::with_capacity(depth);
            for _ in 0..depth {
                stack.push(load_kind(&mut r)?);
            }
            stacks.insert(t, stack);
        }
        if !r.is_done() {
            return Err(WireError::Invalid("trailing bytes after execution tree"));
        }
        Ok(ExecTree { roots, stacks })
    }

    /// Approximate heap footprint.
    pub fn memory_usage(&self) -> usize {
        fn sz(n: &ExecNode) -> usize {
            std::mem::size_of::<ExecNode>()
                + n.children
                    .values()
                    .map(|c| sz(c) + std::mem::size_of::<ExecNodeKind>() + 24)
                    .sum::<usize>()
        }
        self.roots.values().map(sz).sum::<usize>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn repeated_entries_merge() {
        let mut t = ExecTree::new();
        for _ in 0..3 {
            t.enter(0, ExecNodeKind::Loop(1));
            t.enter(0, ExecNodeKind::Call(2));
            t.exit(0, ExecNodeKind::Call(2));
            t.exit(0, ExecNodeKind::Loop(1));
        }
        let (_, root) = t.roots().next().unwrap();
        assert_eq!(root.children.len(), 1);
        let l = &root.children[&ExecNodeKind::Loop(1)];
        assert_eq!(l.count, 3);
        assert_eq!(l.children[&ExecNodeKind::Call(2)].count, 3);
        assert_eq!(l.children.len(), 1);
        assert!(l.children[&ExecNodeKind::Call(2)].children.is_empty());
    }

    #[test]
    fn per_thread_roots() {
        let mut t = ExecTree::new();
        t.enter(1, ExecNodeKind::Call(0));
        t.enter(2, ExecNodeKind::Call(0));
        assert_eq!(t.roots().count(), 2);
    }

    #[test]
    fn merge_trees() {
        let mut a = ExecTree::new();
        a.enter(0, ExecNodeKind::Call(1));
        a.exit(0, ExecNodeKind::Call(1));
        let mut b = ExecTree::new();
        b.enter(0, ExecNodeKind::Call(1));
        b.exit(0, ExecNodeKind::Call(1));
        b.enter(0, ExecNodeKind::Call(1));
        a.merge(&b);
        let (_, root) = a.roots().next().unwrap();
        assert_eq!(root.children[&ExecNodeKind::Call(1)].count, 3);
    }

    #[test]
    fn unbalanced_exit_is_ignored() {
        let mut t = ExecTree::new();
        t.enter(0, ExecNodeKind::Call(1));
        t.exit(0, ExecNodeKind::Call(9)); // mismatched
        t.exit(0, ExecNodeKind::Call(1));
        t.exit(0, ExecNodeKind::Call(1)); // extra
        let (_, root) = t.roots().next().unwrap();
        assert_eq!(root.children[&ExecNodeKind::Call(1)].count, 1);
    }

    #[test]
    fn save_load_preserves_tree_and_open_stacks() {
        let mut a = ExecTree::new();
        a.enter(0, ExecNodeKind::Call(7));
        a.enter(0, ExecNodeKind::Loop(1)); // left open across the checkpoint
        a.enter(3, ExecNodeKind::Call(9));
        a.exit(3, ExecNodeKind::Call(9));
        let mut out = ByteWriter::new();
        a.save(&mut out);
        let bytes = out.into_bytes();
        let mut b = ExecTree::load(&bytes).unwrap();
        // Continuing on the restored tree must behave exactly like
        // continuing on the original: the next enter lands under the
        // still-open loop node.
        a.enter(0, ExecNodeKind::Call(8));
        b.enter(0, ExecNodeKind::Call(8));
        let path = |t: &ExecTree| {
            let (_, root) = t.roots().next().unwrap();
            let l = &root.children[&ExecNodeKind::Call(7)].children[&ExecNodeKind::Loop(1)];
            l.children[&ExecNodeKind::Call(8)].count
        };
        assert_eq!(path(&a), 1);
        assert_eq!(path(&b), 1);
        // Resave (before the extra enter) is byte-identical.
        let c = ExecTree::load(&bytes).unwrap();
        let mut again = ByteWriter::new();
        c.save(&mut again);
        assert_eq!(again.into_bytes(), bytes);
    }

    #[test]
    fn load_rejects_truncation_and_trailing_bytes() {
        let mut a = ExecTree::new();
        a.enter(0, ExecNodeKind::Call(1));
        let mut out = ByteWriter::new();
        a.save(&mut out);
        let mut bytes = out.into_bytes();
        assert!(ExecTree::load(&bytes[..bytes.len() - 1]).is_err());
        bytes.push(0);
        assert!(ExecTree::load(&bytes).is_err());
    }

    /// A stack depth no blob of this size can hold is an error, not an
    /// allocation of `u32::MAX` entries.
    #[test]
    fn load_rejects_an_oversized_stack_depth() {
        let mut out = ByteWriter::new();
        out.u32(0); // no roots
        out.u32(1); // one stack, of thread 0
        out.u16(0);
        out.u32(u32::MAX);
        out.bytes(&[0; 40]);
        assert!(ExecTree::load(&out.into_bytes()).is_err());
    }

    #[test]
    fn render_labels() {
        let mut t = ExecTree::new();
        t.enter(0, ExecNodeKind::Call(1));
        let s = t.render(|k| match k {
            ExecNodeKind::Call(f) => format!("fn{f}"),
            ExecNodeKind::Loop(l) => format!("loop{l}"),
        });
        assert!(s.contains("thread 0:"));
        assert!(s.contains("fn1 x1"));
    }
}
