//! DESIGN.md §4 must describe the dependencies the build really has: every
//! crate it names needs a `name = "…"` entry in `Cargo.lock`.

use std::path::Path;

fn repo_file(rel: &str) -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("..").join(rel);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

/// The text of the `## 4.` section, up to the next `## ` heading.
fn section_4(doc: &str) -> &str {
    let start = doc
        .find("\n## 4.")
        .expect("DESIGN.md has a `## 4.` section")
        + 1;
    let end = doc[start + 3..]
        .find("\n## ")
        .map_or(doc.len(), |i| start + 3 + i);
    &doc[start..end]
}

/// Crate names a section mentions: each `` `code` `` or `**bold**` span
/// that is a bare lowercase identifier. Module paths (`a::b`), file paths
/// (`compat/rand`) and expressions are not crate names.
fn crate_mentions(text: &str) -> Vec<&str> {
    let mut names = Vec::new();
    for delim in ["**", "`"] {
        let mut parts = text.split(delim);
        parts.next();
        while let Some(span) = parts.next() {
            let is_crate = span.starts_with(|c: char| c.is_ascii_lowercase())
                && span
                    .chars()
                    .all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '_' || c == '-');
            if is_crate {
                names.push(span);
            }
            parts.next();
        }
    }
    names
}

fn lock_names(lock: &str) -> Vec<&str> {
    lock.lines()
        .filter_map(|l| l.strip_prefix("name = \"")?.strip_suffix('"'))
        .collect()
}

#[test]
fn design_section_4_names_only_locked_crates() {
    let doc = repo_file("DESIGN.md");
    let lock = repo_file("Cargo.lock");
    let locked = lock_names(&lock);
    let named = crate_mentions(section_4(&doc));
    assert!(!named.is_empty(), "DESIGN.md §4 names no crate");
    let missing: Vec<&str> = named
        .into_iter()
        .filter(|n| {
            !locked
                .iter()
                .any(|l| l.replace('_', "-") == n.replace('_', "-"))
        })
        .collect();
    assert!(
        missing.is_empty(),
        "DESIGN.md §4 names crates absent from Cargo.lock: {missing:?}"
    );
}
