//! Trace-taxonomy cross-check.
//!
//! DESIGN.md §9 carries the authoritative table of event kinds and metric
//! names per layer. This module parses that table, extracts every
//! `trace_event!` kind and `tracer.count`/`tracer.observe` metric name
//! from (non-test) source, and reports drift in both directions: kinds or
//! metrics emitted but undocumented, and documented but never emitted.
//!
//! Extraction walks the token stream, so an emission reformatted across
//! any number of lines is still one site, and the finding lands on the
//! line of the call itself.

use crate::lexer::TokKind;
use crate::scan::SourceFile;
use crate::Violation;
use std::collections::{BTreeMap, BTreeSet};

/// The documented taxonomy: event kinds per layer plus one flat metric
/// namespace (names are globally unique, prefixed by layer).
#[derive(Debug, Default, PartialEq, Eq)]
pub struct Taxonomy {
    pub kinds: BTreeMap<String, BTreeSet<String>>,
    pub metrics: BTreeSet<String>,
}

/// Parse the §9 table out of DESIGN.md. The table is recognised by a
/// header row whose first cell is `layer`; metric cells may abbreviate a
/// shared prefix as `` `.packets_acked` `` which expands against the last
/// fully-qualified name in the same cell run.
pub fn parse_design(md: &str) -> Result<Taxonomy, String> {
    let mut tax = Taxonomy::default();
    let mut in_table = false;
    let mut found = false;
    for line in md.lines() {
        let t = line.trim();
        if !t.starts_with('|') {
            in_table = false;
            continue;
        }
        let cells: Vec<&str> = t.trim_matches('|').split('|').map(str::trim).collect();
        if !in_table {
            if cells
                .first()
                .is_some_and(|c| c.trim_matches('`').eq_ignore_ascii_case("layer"))
            {
                in_table = true;
                found = true;
            }
            continue;
        }
        if cells
            .iter()
            .all(|c| c.chars().all(|ch| ch == '-' || ch == ':' || ch == ' '))
        {
            continue; // separator row
        }
        if cells.len() < 2 {
            continue;
        }
        let layer = cells[0].trim_matches('`').to_string();
        if layer.is_empty() {
            continue;
        }
        let kind_set = tax.kinds.entry(layer).or_default();
        for k in backticked(cells[1]) {
            kind_set.insert(k);
        }
        let mut prefix = String::new();
        for cell in cells.iter().skip(2) {
            for name in backticked(cell) {
                let full = if let Some(stripped) = name.strip_prefix('.') {
                    format!("{prefix}.{stripped}")
                } else {
                    if let Some(dot) = name.find('.') {
                        prefix = name[..dot].to_string();
                    }
                    name.clone()
                };
                tax.metrics.insert(full);
            }
        }
    }
    if !found {
        return Err("DESIGN.md: no taxonomy table (header cell `layer`) found".to_string());
    }
    Ok(tax)
}

/// All `` `token` `` spans in a table cell.
fn backticked(cell: &str) -> Vec<String> {
    let mut out = Vec::new();
    let mut rest = cell;
    while let Some(open) = rest.find('`') {
        let after = &rest[open + 1..];
        match after.find('`') {
            Some(close) => {
                let tok = after[..close].trim();
                if !tok.is_empty() && tok != "—" {
                    out.push(tok.to_string());
                }
                rest = &after[close + 1..];
            }
            None => break,
        }
    }
    out
}

/// One extracted emission site.
#[derive(Debug, PartialEq, Eq)]
pub struct Emission {
    pub path: String,
    pub line: usize,
    /// `Some((layer, kind))` for `trace_event!`, `None` for a metric.
    pub kind: Option<(String, String)>,
    pub metric: Option<String>,
}

/// Strip the quotes off a plain string-literal token (`"x"` → `x`);
/// raw/byte strings are not used for taxonomy names.
fn str_content(text: &str) -> Option<&str> {
    text.strip_prefix('"')?.strip_suffix('"')
}

/// Extract event kinds and metric names from the non-test code of `f`.
pub fn extract(f: &SourceFile) -> Vec<Emission> {
    let sig = f.sig_indices();
    let text = |s: usize| -> &str {
        match sig.get(s) {
            Some(&i) => f.tok_text(&f.toks[i]),
            None => "",
        }
    };
    let kind_of = |s: usize| -> Option<TokKind> { sig.get(s).map(|&i| f.toks[i].kind) };

    let mut out = Vec::new();
    for s in 0..sig.len() {
        let anchor = &f.toks[sig[s]];
        if anchor.kind != TokKind::Ident || f.is_test(anchor.line) {
            continue;
        }
        let t = text(s);

        // trace_event!(tracer, t, Layer::X, "kind", ...) — however many
        // lines rustfmt spreads it over. The finding anchors to the line
        // of `trace_event` itself.
        if t == "trace_event" && text(s + 1) == "!" && text(s + 2) == "(" {
            let mut depth = 1i32;
            let mut j = s + 3;
            let mut layer: Option<String> = None;
            let mut kind: Option<String> = None;
            while j < sig.len() && depth > 0 && kind.is_none() {
                match text(j) {
                    "(" => depth += 1,
                    ")" => depth -= 1,
                    "Layer" if text(j + 1) == ":" && text(j + 2) == ":" => {
                        layer = Some(text(j + 3).to_ascii_lowercase());
                        j += 3;
                    }
                    lit if layer.is_some() && kind_of(j) == Some(TokKind::Str) => {
                        kind = str_content(lit).map(str::to_string);
                    }
                    _ => {}
                }
                j += 1;
            }
            if let (Some(layer), Some(kind)) = (layer, kind) {
                out.push(Emission {
                    path: f.rel_path.clone(),
                    line: anchor.line,
                    kind: Some((layer, kind)),
                    metric: None,
                });
            }
            continue;
        }

        // tracer.count("name", ..) / .observe( / .set_counter( — plus the
        // profiler's free-function form `voxel_obs::observe("name", ..)`.
        let is_metric_call = matches!(t, "count" | "observe" | "set_counter")
            && text(s + 1) == "("
            && kind_of(s + 2) == Some(TokKind::Str)
            && (text(s.wrapping_sub(1)) == "."
                || (t == "observe" && s >= 2 && text(s - 1) == ":" && text(s - 2) == ":"));
        if is_metric_call {
            if let Some(name) = str_content(text(s + 2)) {
                out.push(Emission {
                    path: f.rel_path.clone(),
                    line: anchor.line,
                    kind: None,
                    metric: Some(name.to_string()),
                });
            }
        }
    }
    out
}

/// Cross-check emissions against the documented taxonomy (both ways):
/// an undocumented emission is reported at its call site, a documented
/// but never-emitted name against `design_path`.
pub fn cross_check(
    tax: &Taxonomy,
    emissions: &[Emission],
    design_path: &str,
    out: &mut Vec<Violation>,
) {
    let at_site =
        |e: &Emission, msg: String| Violation::new(&e.path, e.line, "trace-taxonomy", msg);
    let mut seen_kinds: BTreeMap<String, BTreeSet<String>> = BTreeMap::new();
    let mut seen_metrics: BTreeSet<String> = BTreeSet::new();
    for e in emissions {
        if let Some((layer, kind)) = &e.kind {
            seen_kinds
                .entry(layer.clone())
                .or_default()
                .insert(kind.clone());
            let documented = tax.kinds.get(layer).is_some_and(|set| set.contains(kind));
            if !documented {
                out.push(at_site(
                    e,
                    format!(
                        "event kind `{kind}` (layer `{layer}`) is not in the DESIGN.md §9 table"
                    ),
                ));
            }
        }
        if let Some(m) = &e.metric {
            seen_metrics.insert(m.clone());
            if !tax.metrics.contains(m) {
                out.push(at_site(
                    e,
                    format!("metric `{m}` is not in the DESIGN.md §9 table"),
                ));
            }
        }
    }
    for (layer, kinds) in &tax.kinds {
        for kind in kinds {
            let emitted = seen_kinds.get(layer).is_some_and(|s| s.contains(kind));
            if !emitted {
                out.push(Violation::new(
                    design_path,
                    0,
                    "trace-taxonomy",
                    format!("documented event kind `{kind}` (layer `{layer}`) is never emitted"),
                ));
            }
        }
    }
    for m in &tax.metrics {
        if !seen_metrics.contains(m) {
            out.push(Violation::new(
                design_path,
                0,
                "trace-taxonomy",
                format!("documented metric `{m}` is never emitted"),
            ));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const TABLE: &str = "\
## 9. Taxonomy

| layer | events | counters | histograms |
|-------|--------|----------|------------|
| `quic` | `pkt_sent`, `loss` | counters `quic.packets_sent`, `.loss_events` | `quic.cwnd_bytes` |
| `session` | `trial_start`, `progress` (debug) | — | — |
";

    fn check(tax: &Taxonomy, fs: &[&SourceFile]) -> Vec<Violation> {
        let emissions: Vec<_> = fs.iter().flat_map(|f| extract(f)).collect();
        let mut out = Vec::new();
        cross_check(tax, &emissions, "DESIGN.md", &mut out);
        out
    }

    #[test]
    fn parses_table_with_prefix_expansion() {
        let tax = parse_design(TABLE).expect("table parses");
        assert_eq!(
            tax.kinds["quic"],
            ["pkt_sent", "loss"].iter().map(|s| s.to_string()).collect()
        );
        assert!(tax.kinds["session"].contains("progress"));
        assert!(tax.metrics.contains("quic.packets_sent"));
        assert!(tax.metrics.contains("quic.loss_events"));
        assert!(tax.metrics.contains("quic.cwnd_bytes"));
        assert_eq!(tax.metrics.len(), 3);
    }

    #[test]
    fn missing_table_is_an_error() {
        assert!(parse_design("# no tables here\n").is_err());
    }

    #[test]
    fn extracts_multiline_macro_and_metrics() {
        let src = "fn f(tracer: &Tracer) {\n    tracer.count(\"quic.packets_sent\", 1);\n    trace_event!(\n        tracer,\n        t,\n        Layer::Quic,\n        \"pkt_sent\",\n        \"pn\" = pn,\n    );\n}\n";
        let f = SourceFile::parse("crates/quic/src/x.rs", "quic", src);
        let em = extract(&f);
        assert_eq!(em.len(), 2);
        assert_eq!(em[0].metric, Some("quic.packets_sent".to_string()));
        assert_eq!(em[0].line, 2);
        assert_eq!(
            em[1].kind,
            Some(("quic".to_string(), "pkt_sent".to_string()))
        );
        assert_eq!(em[1].line, 3, "finding anchors to the trace_event! line");
    }

    #[test]
    fn cross_check_flags_drift_both_ways() {
        let tax = parse_design(TABLE).expect("table parses");
        let src = "fn f() {\n    trace_event!(tracer, t, Layer::Quic, \"mystery\", \"a\" = 1);\n    tracer.count(\"quic.packets_sent\", 1);\n    tracer.count(\"quic.loss_events\", 1);\n    tracer.observe(\"quic.cwnd_bytes\", 1);\n}\n";
        let f = SourceFile::parse("crates/quic/src/x.rs", "quic", src);
        let out = check(&tax, &[&f]);
        let msgs: Vec<_> = out.iter().map(|v| v.msg.as_str()).collect();
        assert!(msgs.iter().any(|m| m.contains("`mystery`")), "{msgs:?}");
        // Documented kinds never emitted: pkt_sent, loss, trial_start, progress.
        assert_eq!(
            out.iter()
                .filter(|v| v.msg.contains("never emitted"))
                .count(),
            4
        );
    }

    #[test]
    fn extracts_metric_split_across_lines() {
        let src = "fn f(tracer: &Tracer) {\n    tracer.observe(\n        \"fleet.session_stall_ms\",\n        v,\n    );\n}\n";
        let f = SourceFile::parse("crates/fleet/src/x.rs", "fleet", src);
        let em = extract(&f);
        assert_eq!(em.len(), 1);
        assert_eq!(em[0].metric, Some("fleet.session_stall_ms".to_string()));
        assert_eq!(em[0].line, 2, "anchored to the call");
    }

    #[test]
    fn extracts_obs_free_functions_and_snapshot_injections() {
        let src = "fn f(snap: &mut MetricsSnapshot) {\n    voxel_obs::observe(\"obs.queue_depth\", 3);\n    snap.set_counter(\"trace.dropped\", 7);\n}\n";
        let f = SourceFile::parse("crates/fleet/src/x.rs", "fleet", src);
        let metrics: Vec<String> = extract(&f).into_iter().filter_map(|e| e.metric).collect();
        assert!(
            metrics.contains(&"obs.queue_depth".to_string()),
            "{metrics:?}"
        );
        assert!(
            metrics.contains(&"trace.dropped".to_string()),
            "{metrics:?}"
        );
    }

    #[test]
    fn extract_skips_test_modules_and_string_mentions() {
        let src = "fn lib() {}\n#[cfg(test)]\nmod tests {\n    fn t(tracer: &Tracer) { tracer.count(\"fake.metric\", 1); }\n}\n";
        let f = SourceFile::parse("crates/quic/src/x.rs", "quic", src);
        assert!(extract(&f).is_empty());
        // A string mentioning the pattern is not an emission.
        let s2 = "fn f() { let doc = \"call tracer.count(\\\"x\\\", 1)\"; }\n";
        let f2 = SourceFile::parse("crates/quic/src/y.rs", "quic", s2);
        assert!(extract(&f2).is_empty());
    }
}
