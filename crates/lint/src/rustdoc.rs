//! The public surface as the compiler sees it: rustdoc's JSON backend
//! documents every first-party library crate, and a walk from each crate
//! root collects what another crate can name.
//!
//! An item is API when it is reachable from the crate root through public
//! modules or public re-exports (globs expanded), and it is recorded once,
//! at its definition path. A type's `pub` inherent-impl members and a
//! trait's items are recorded as `Type::member`; trait-impl members are the
//! trait's surface, not new API. Re-exports are recorded too, one `use`
//! line per module and source module.

use crate::Site;
use std::collections::{BTreeMap, BTreeSet};
use std::path::Path;
use std::process::Command;
use voxel_trace::json::{self, Json};

/// The only rustdoc JSON layout the walk understands.
const FORMAT_VERSION: u64 = 57;

/// Every library crate of the workspace, the vendored shims excepted.
const CARGO_DOC: &str = "doc --quiet --offline --no-deps --lib --workspace \
    --exclude bytes --exclude rand --exclude proptest";

/// rustdoc's JSON backend (unstable, hence `RUSTC_BOOTSTRAP` on the
/// child), with rustdoc's warnings denied.
const RUSTDOCFLAGS: &str = "-Z unstable-options --output-format json -D warnings";

/// Run rustdoc's JSON backend over the workspace at `root` and return
/// each crate's document. The child builds in its own target
/// directory, so it never invalidates `target/doc` or waits on the build
/// lock of a surrounding `cargo test`.
pub(crate) fn document(root: &Path) -> Result<Vec<(String, Vec<u8>)>, String> {
    let target = root.join("target").join("lint-doc");
    let out = target.join("doc");
    // cargo re-runs rustdoc on every call when the output is JSON, so
    // clearing the directory only drops the files of crates that are gone.
    let _ = std::fs::remove_dir_all(&out);
    let status = Command::new(std::env::var_os("CARGO").unwrap_or_else(|| "cargo".into()))
        .args(CARGO_DOC.split(' '))
        .arg("--manifest-path")
        .arg(root.join("Cargo.toml"))
        .arg("--target-dir")
        .arg(&target)
        .env("RUSTC_BOOTSTRAP", "1")
        .env("RUSTDOCFLAGS", RUSTDOCFLAGS)
        .status()
        .map_err(|e| format!("cannot start cargo doc: {e}"))?;
    if !status.success() {
        return Err(format!(
            "cargo doc failed ({status}); rustdoc's diagnostics are above"
        ));
    }
    let mut docs = Vec::new();
    for entry in std::fs::read_dir(&out).map_err(|e| format!("read {}: {e}", out.display()))? {
        let path = entry.map_err(|e| e.to_string())?.path();
        if path.extension().is_some_and(|e| e == "json") {
            let doc = std::fs::read(&path).map_err(|e| format!("read {}: {e}", path.display()))?;
            docs.push((path.display().to_string(), doc));
        }
    }
    docs.sort();
    Ok(docs)
}

/// Add one crate's public surface, read from its rustdoc JSON, to `out`:
/// ledger entry → where it is declared.
pub(crate) fn surface(doc: &[u8], out: &mut BTreeMap<String, Site>) -> Result<(), String> {
    let doc = json::parse(doc).map_err(|e| e.to_string())?;
    let version = doc.get("format_version").and_then(Json::as_u64);
    if version != Some(FORMAT_VERSION) {
        let version = version.map_or("missing".to_string(), |v| v.to_string());
        return Err(format!(
            "rustdoc JSON format_version {version}: voxel-lint reads only version {FORMAT_VERSION}"
        ));
    }
    let by_id = |key| -> BTreeMap<u64, &Json> {
        let members = doc.get(key).map(Json::entries).unwrap_or_default();
        members
            .iter()
            .filter_map(|(k, v)| Some((k.parse().ok()?, v)))
            .collect()
    };
    let root = doc.get("root").and_then(Json::as_u64).unwrap_or(u64::MAX);
    let index = by_id("index");
    let Some(name) = index.get(&root).map(|r| text(r, "name")) else {
        return Err("rustdoc JSON has no root module".to_string());
    };
    let label = name.strip_prefix("voxel_").unwrap_or(name).to_string();
    let paths = by_id("paths");
    let seen = BTreeSet::new();
    Walk {
        label,
        index,
        paths,
        seen,
        out,
    }
    .item(root);
    Ok(())
}

struct Walk<'a, 'o> {
    /// Crate name as the ledger writes it (`quic` for `voxel_quic`).
    label: String,
    index: BTreeMap<u64, &'a Json>,
    paths: BTreeMap<u64, &'a Json>,
    seen: BTreeSet<u64>,
    out: &'o mut BTreeMap<String, Site>,
}

/// An item's kind and the body under it (`inner` has one member).
fn inner(item: &Json) -> (&str, &Json) {
    match item.get("inner").map(Json::entries) {
        Some([(kind, body)]) => (kind, body),
        _ => ("", &Json::Null),
    }
}

/// The ledger's label for a rustdoc item kind, if that kind is API.
fn label_of(kind: &str) -> Option<&str> {
    Some(match kind {
        "module" => "mod",
        "function" => "fn",
        "constant" | "assoc_const" => "const",
        "type_alias" | "assoc_type" => "type",
        "struct" | "enum" | "union" | "trait" | "static" | "macro" => kind,
        _ => return None,
    })
}

fn is_public(item: &Json) -> bool {
    text(item, "visibility") == "public"
}

fn text<'a>(item: &'a Json, key: &str) -> &'a str {
    item.get(key).and_then(Json::as_str).unwrap_or_default()
}

fn list<'a>(item: &'a Json, key: &str) -> &'a [Json] {
    item.get(key).map(Json::items).unwrap_or_default()
}

fn ids(list: &[Json]) -> impl Iterator<Item = u64> + '_ {
    list.iter().filter_map(Json::as_u64)
}

impl<'a> Walk<'a, '_> {
    fn get(&self, id: u64) -> Option<&'a Json> {
        self.index.get(&id).copied()
    }

    fn record(&mut self, kind: &str, path: &str, item: &Json) {
        let span = item.get("span");
        let file = span.map_or("", |s| text(s, "filename"));
        let line = span.and_then(|s| list(s, "begin").first()?.as_u64());
        self.out
            .entry(format!("{}\t{kind}\t{path}", self.label))
            .or_insert_with(|| (file.to_string(), line.unwrap_or(0) as usize));
    }

    /// Record item `id` and whatever it makes reachable, once. Another
    /// crate's item is not in the index: re-exporting it is a `use` line.
    fn item(&mut self, id: u64) {
        let Some(item) = self.get(id).filter(|_| self.seen.insert(id)) else {
            return;
        };
        let (kind, body) = inner(item);
        let Some(label) = label_of(kind) else {
            return;
        };
        // The definition path, without the crate name; empty for the root.
        let path = match self.paths.get(&id).map_or(&[][..], |p| list(p, "path")) {
            [_crate, names @ ..] => names
                .iter()
                .filter_map(Json::as_str)
                .collect::<Vec<_>>()
                .join("::"),
            [] => text(item, "name").to_string(),
        };
        if !path.is_empty() {
            self.record(label, &path, item);
        }
        if kind == "module" {
            return self.module(list(body, "items"), &path, true);
        }
        let members: Vec<&Json> = match kind {
            "trait" => ids(list(body, "items"))
                .filter_map(|m| self.get(m))
                .collect(),
            _ => ids(list(body, "impls"))
                .filter_map(|i| Some(inner(self.get(i)?).1))
                .filter(|im| im.get("trait") == Some(&Json::Null))
                .flat_map(|im| ids(list(im, "items")))
                .filter_map(|m| self.get(m).filter(|m| is_public(m)))
                .collect(),
        };
        for member in members {
            if let Some(label) = label_of(inner(member).0) {
                self.record(label, &format!("{path}::{}", text(member, "name")), member);
            }
        }
    }

    /// Walk the public items of the module at `here`. Its re-exports get
    /// `use` lines unless `lines` is off (a glob's expansion).
    fn module(&mut self, items: &'a [Json], here: &str, lines: bool) {
        // Source module → (names it contributes, first `use` item).
        let mut uses: BTreeMap<&str, (Vec<String>, &Json)> = BTreeMap::new();
        for id in ids(items) {
            let Some(item) = self.get(id).filter(|it| is_public(it)) else {
                continue;
            };
            let (kind, body) = inner(item);
            if kind != "use" {
                self.item(id);
                continue;
            }
            let (source, name) = (text(body, "source"), text(body, "name"));
            let glob = body.get("is_glob") == Some(&Json::Bool(true));
            let (from, shown) = match source.rsplit_once("::").unwrap_or(("", source)) {
                _ if glob => (source, "*".to_string()),
                (from, last) if last == name => (from, name.to_string()),
                (from, last) => (from, format!("{last} as {name}")),
            };
            uses.entry(from).or_insert((Vec::new(), item)).0.push(shown);
            let target = body.get("id").and_then(Json::as_u64).unwrap_or(u64::MAX);
            match self.get(target).map(inner) {
                Some(("module", t)) if glob => self.module(list(t, "items"), "", false),
                _ => self.item(target),
            }
        }
        for (from, (mut names, item)) in uses.into_iter().filter(|_| lines) {
            names.sort();
            let names = match names.as_slice() {
                [one] => one.clone(),
                _ => format!("{{{}}}", names.join(",")),
            };
            let parts: Vec<&str> = [here, from, &names]
                .into_iter()
                .filter(|p| !p.is_empty())
                .collect();
            self.record("use", &parts.join("::"), item);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A crate with a private `shard` module nobody re-exports, a private
    /// `tracer` module re-exported at the root (one item renamed), and a
    /// private `wire` module glob-re-exported at the root.
    const DEMO: &str = r#"{"format_version": 57, "root": 0, "index": {
      "0": {"name": "voxel_demo", "visibility": "public", "inner": {"module": {"items": [1, 2, 3, 4, 5, 6, 7]}}},
      "1": {"visibility": "default", "inner": {"module": {"items": [10]}}},
      "10": {"name": "Lane", "visibility": "public", "inner": {"struct": {"impls": [11]}}},
      "11": {"inner": {"impl": {"trait": null, "items": [12]}}},
      "12": {"name": "spawn", "visibility": "public", "inner": {"function": {}}},
      "2": {"visibility": "default", "inner": {"module": {"items": [20, 26]}}},
      "20": {"name": "Tracer", "visibility": "public", "inner": {"struct": {"impls": [21, 22]}},
             "span": {"filename": "src/tracer.rs", "begin": [3, 1]}},
      "21": {"inner": {"impl": {"trait": null, "items": [23, 24]}}},
      "22": {"inner": {"impl": {"trait": {"path": "Clone"}, "items": [25]}}},
      "23": {"name": "new", "visibility": "public", "inner": {"function": {}}},
      "24": {"name": "internal", "visibility": "crate", "inner": {"function": {}}},
      "25": {"name": "clone", "visibility": "default", "inner": {"function": {}}},
      "26": {"name": "LEVEL", "visibility": "public", "inner": {"constant": {}}},
      "3": {"visibility": "public", "inner": {"use": {"source": "tracer::Tracer", "name": "Tracer", "id": 20}},
            "span": {"filename": "src/lib.rs", "begin": [7, 1]}},
      "4": {"visibility": "default", "inner": {"module": {"items": [40]}}},
      "40": {"name": "Codec", "visibility": "public", "inner": {"trait": {"items": [41]}}},
      "41": {"name": "encode", "visibility": "default", "inner": {"function": {}}},
      "5": {"visibility": "public", "inner": {"use": {"source": "wire", "name": "wire", "id": 4, "is_glob": true}}},
      "6": {"name": "free", "visibility": "public", "inner": {"function": {}}},
      "7": {"visibility": "public", "inner": {"use": {"source": "tracer::LEVEL", "name": "MAX_LEVEL", "id": 26}}}
    }, "paths": {"0": {"path": ["voxel_demo"]}, "10": {"path": ["voxel_demo", "shard", "Lane"]},
      "20": {"path": ["voxel_demo", "tracer", "Tracer"]}, "26": {"path": ["voxel_demo", "tracer", "LEVEL"]},
      "40": {"path": ["voxel_demo", "wire", "Codec"]}, "6": {"path": ["voxel_demo", "free"]}}}"#;

    /// The demo crate's ledger, entries written `kind path`.
    fn demo() -> BTreeMap<String, Site> {
        let mut out = BTreeMap::new();
        surface(DEMO.as_bytes(), &mut out).expect("demo document walks");
        let strip = |e: String| e.replacen("demo\t", "", 1).replacen('\t', " ", 1);
        out.into_iter().map(|(e, site)| (strip(e), site)).collect()
    }

    #[test]
    fn an_item_in_a_private_unexported_module_is_not_api() {
        let s = demo();
        assert!(s.keys().all(|e| !e.contains("shard")), "{s:?}");
        assert!(s.contains_key("fn free"));
    }

    #[test]
    fn a_reexport_is_recorded_at_its_definition_path_plus_its_use_line() {
        let s = demo();
        let at = |file: &str, line| Some((file.to_string(), line));
        assert_eq!(
            s.get("struct tracer::Tracer").cloned(),
            at("src/tracer.rs", 3)
        );
        assert!(s.contains_key("const tracer::LEVEL"));
        let line = s.get("use tracer::{LEVEL as MAX_LEVEL,Tracer}").cloned();
        assert_eq!(line, at("src/lib.rs", 7));
    }

    #[test]
    fn trait_impl_members_are_excluded_and_pub_inherent_members_included() {
        let s = demo();
        assert!(s.contains_key("fn tracer::Tracer::new"));
        assert!(!s.contains_key("fn tracer::Tracer::internal"));
        assert!(!s.contains_key("fn tracer::Tracer::clone"));
    }

    /// Trait items count whatever their visibility field says.
    #[test]
    fn a_glob_reexport_is_expanded() {
        let s = demo();
        assert!(s.contains_key("trait wire::Codec"));
        assert!(s.contains_key("fn wire::Codec::encode"));
        assert!(s.contains_key("use wire::*"));
        assert_eq!(s.len(), 8, "{s:?}");
    }

    #[test]
    fn an_unknown_format_version_is_refused_by_name() {
        let doc = DEMO.replacen("57", "58", 1);
        let err = surface(doc.as_bytes(), &mut BTreeMap::new()).unwrap_err();
        assert!(err.contains("format_version 58"), "{err}");
    }
}
