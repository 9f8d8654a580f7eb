//! `lock-order`: two locks acquired in opposite orders in different
//! functions is a deadlock waiting for shard parallelism to arrive.
//! Checked across every first-party crate so the invariant holds before
//! the first real contention exists.

use crate::lexer::TokKind;
use crate::parse::ItemKind;
use crate::scan::SourceFile;
use crate::Violation;
use std::collections::BTreeMap;

/// One lock acquisition: receiver name + where.
struct LockSite {
    file: usize,
    recv: String,
    line: usize,
}

/// Detect lock-order inversions: `a` then `b` in one function, `b` then
/// `a` in another.
pub fn check(files: &[SourceFile], out: &mut Vec<Violation>) {
    // Sites grouped by enclosing function, in acquisition (token) order.
    let mut per_fn: BTreeMap<(usize, usize), Vec<LockSite>> = BTreeMap::new();
    for (fi, f) in files.iter().enumerate() {
        let has_rwlock = f.text.contains("RwLock");
        let sig = f.sig_indices();
        let text = |s: usize| -> &str {
            match sig.get(s) {
                Some(&i) => f.tok_text(&f.toks[i]),
                None => "",
            }
        };
        let kind = |s: usize| -> Option<TokKind> { sig.get(s).map(|&i| f.toks[i].kind) };
        for (s, &ti) in sig.iter().enumerate().skip(2) {
            let t = text(s);
            let is_lock = t == "lock" || (has_rwlock && (t == "read" || t == "write"));
            if !is_lock
                || kind(s) != Some(TokKind::Ident)
                || text(s.wrapping_sub(1)) != "."
                || text(s + 1) != "("
                || kind(s - 2) != Some(TokKind::Ident)
            {
                continue;
            }
            let line = f.toks[ti].line;
            if f.is_test(line) {
                continue;
            }
            let mut recv = text(s - 2).to_string();
            if recv == "self" {
                // `self.lock()`: name the lock after the impl's type.
                recv = innermost(f, line, |k| k == ItemKind::Impl)
                    .map(|it| it.name.clone())
                    .unwrap_or(recv);
            }
            let Some(fn_idx) = innermost_idx(f, line, |k| k == ItemKind::Fn) else {
                continue;
            };
            per_fn.entry((fi, fn_idx)).or_default().push(LockSite {
                file: fi,
                recv,
                line,
            });
        }
    }

    // Ordered pairs within one function become edges `a held when b taken`,
    // remembering the first site that takes `b` after `a`.
    let mut edges: BTreeMap<(String, String), (usize, usize)> = BTreeMap::new();
    for sites in per_fn.values() {
        for i in 0..sites.len() {
            for j in (i + 1)..sites.len() {
                let (a, b) = (&sites[i].recv, &sites[j].recv);
                if a != b {
                    edges
                        .entry((a.clone(), b.clone()))
                        .or_insert((sites[j].file, sites[j].line));
                }
            }
        }
    }
    for ((a, b), &(fi, line)) in &edges {
        if a >= b {
            continue; // handle each unordered pair once, at the (b, a) site
        }
        if let Some(&(ofi, oline)) = edges.get(&(b.clone(), a.clone())) {
            out.push(Violation::new(
                &files[ofi].rel_path,
                oline,
                "lock-order",
                format!(
                    "lock `{a}` acquired while `{b}` is held, but {}:{line} takes `{a}` then `{b}`; pick one global order",
                    files[fi].rel_path
                ),
            ));
        }
    }
}

/// Innermost item covering `line` with a matching kind (parse order puts
/// nested items after their parents, so a reverse scan finds the deepest).
fn innermost(
    f: &SourceFile,
    line: usize,
    pred: impl Fn(ItemKind) -> bool,
) -> Option<&crate::parse::Item> {
    innermost_idx(f, line, pred).map(|i| &f.items[i])
}

fn innermost_idx(f: &SourceFile, line: usize, pred: impl Fn(ItemKind) -> bool) -> Option<usize> {
    f.items
        .iter()
        .enumerate()
        .rev()
        .find(|(_, it)| pred(it.kind) && it.covers(line))
        .map(|(i, _)| i)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(files: &[(&str, &str, &str)]) -> Vec<Violation> {
        let parsed: Vec<SourceFile> = files
            .iter()
            .map(|(p, c, src)| SourceFile::parse(p, c, src))
            .collect();
        let mut out = Vec::new();
        check(&parsed, &mut out);
        out
    }

    #[test]
    fn lock_order_inversion_across_functions() {
        let a = "fn ab(s: &St) {\n    let _a = s.alpha.lock();\n    let _b = s.beta.lock();\n}\n";
        let b = "fn ba(s: &St) {\n    let _b = s.beta.lock();\n    let _a = s.alpha.lock();\n}\n";
        let v = run(&[
            ("crates/trace/src/a.rs", "trace", a),
            ("crates/trace/src/b.rs", "trace", b),
        ]);
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].rule, "lock-order");
        assert_eq!(
            (v[0].path.as_str(), v[0].line),
            ("crates/trace/src/b.rs", 3)
        );
        assert!(v[0].msg.contains("crates/trace/src/a.rs:3"), "{}", v[0].msg);
    }

    #[test]
    fn lock_order_consistent_order_is_quiet() {
        let a = "fn ab(s: &St) {\n    let _a = s.alpha.lock();\n    let _b = s.beta.lock();\n}\nfn ab2(s: &St) {\n    let _a = s.alpha.lock();\n    let _b = s.beta.lock();\n}\n";
        assert!(run(&[("crates/trace/src/a.rs", "trace", a)]).is_empty());
    }

    #[test]
    fn lock_order_self_receiver_uses_impl_type_and_rwlock_gating() {
        // `self.lock()` inside `impl Recorder` is the lock named `Recorder`;
        // `rs.read()` only counts as a lock when the file mentions RwLock.
        let a = "impl Recorder {\n    fn snap(&self, other: &Mutex<u32>) {\n        let _g = self.lock();\n        let _o = other.lock();\n    }\n}\nfn elsewhere(r: &Recorder, other: &Mutex<u32>) {\n    let _o = other.lock();\n    let _g = r.rec.lock();\n}\nfn stream(rs: &mut TcpStream) {\n    rs.read(&mut buf);\n}\n";
        // `Recorder`/`other` vs `other`/`rec`: different names, no cycle;
        // and `rs.read` is not a lock site here.
        assert!(run(&[("crates/obs/src/a.rs", "obs", a)]).is_empty());
        let inv = "impl Recorder {\n    fn snap(&self, other: &Mutex<u32>) {\n        let _g = self.lock();\n        let _o = other.lock();\n    }\n    fn snap2(&self, other: &Mutex<u32>) {\n        let _o = other.lock();\n        let _g = self.lock();\n    }\n}\n";
        let v = run(&[("crates/obs/src/a.rs", "obs", inv)]);
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].rule, "lock-order");
    }
}
