//! L5 `registry-schema-sync`: every parameter an experiment reads at run
//! time (`ctx.u64("…")`, `ctx.f64("…")`, `ctx.str("…")`, `ctx.bias()`)
//! must be declared in that experiment's `ExperimentInfo` schema. The
//! registry already turns *undeclared* keys from the command line into
//! exit-2 errors; this lint closes the converse hole — a read of an
//! undeclared key panics at run time, and only on the code path that
//! reaches it. The lint lifts that to a static check over
//! `crates/core/src/figures.rs`.
//!
//! The analysis is a small token-level parse of that one file: schema
//! statics (`params![…]` literals or shared `&[ParamSpec]` statics), the
//! `experiment!(Ty, INFO, run_fn)` registrations, and an
//! intra-file call graph from each run function through its helpers
//! (`heatmap_spec` et al.), unioning every reachable read.

use super::Lint;
use crate::diag::Diagnostic;
use crate::lexer::{Tok, Token};
use crate::source::Workspace;
use std::collections::{BTreeMap, BTreeSet};

const TARGET: &str = "crates/core/src/figures.rs";

/// L5: run-time parameter reads must appear in the declared schema.
pub struct RegistrySchemaSync;

impl Lint for RegistrySchemaSync {
    fn name(&self) -> &'static str {
        "registry-schema-sync"
    }

    fn description(&self) -> &'static str {
        "every ctx parameter read in figures.rs must be declared in the experiment's schema"
    }

    fn check(&self, ws: &Workspace, out: &mut Vec<Diagnostic>) {
        let Some(file) = ws.file(TARGET) else {
            return; // fixture trees without a registry have nothing to sync
        };
        let sig: Vec<&Token> = file.code().into_iter().map(|(_, t)| t).collect();
        let model = Model::parse(&sig);
        for exp in &model.experiments {
            let Some(info) = model.infos.get(&exp.info_static) else {
                out.push(Diagnostic {
                    lint: self.name(),
                    path: TARGET.to_string(),
                    line: exp.line,
                    message: format!(
                        "experiment!({}, {}, {}): no `static {}: ExperimentInfo` found",
                        exp.ty, exp.info_static, exp.run_fn, exp.info_static
                    ),
                });
                continue;
            };
            let declared = match &info.params {
                ParamsRef::Inline(list) => list.clone(),
                ParamsRef::Named(name) => match model.shared_params.get(name) {
                    Some(list) => list.clone(),
                    None => {
                        out.push(Diagnostic {
                            lint: self.name(),
                            path: TARGET.to_string(),
                            line: info.line,
                            message: format!(
                                "{}: params reference `{name}` which is not a parsable \
                                 `params![…]`/`&[ParamSpec…]` static",
                                exp.info_static
                            ),
                        });
                        continue;
                    }
                },
            };
            let declared: BTreeSet<&str> = declared.iter().map(String::as_str).collect();
            for read in model.reachable_reads(&exp.run_fn) {
                if !declared.contains(read.key.as_str()) {
                    out.push(Diagnostic {
                        lint: self.name(),
                        path: TARGET.to_string(),
                        line: read.line,
                        message: format!(
                            "`{}` (via `{}`): `ctx.{}(\"{}\")` reads a parameter missing from \
                             {}'s schema — declare it or drop the read",
                            info.exp_name, exp.run_fn, read.method, read.key, exp.info_static
                        ),
                    });
                }
            }
        }
    }
}

/// How an `ExperimentInfo.params` field is given.
enum ParamsRef {
    /// `params![…]` / `&[ParamSpec{…}]` literal — declared names.
    Inline(Vec<String>),
    /// Reference to a shared static (e.g. `HEATMAP_PARAMS`).
    Named(String),
}

struct InfoDef {
    exp_name: String,
    params: ParamsRef,
    line: u32,
}

struct ExperimentReg {
    ty: String,
    info_static: String,
    run_fn: String,
    line: u32,
}

#[derive(Debug, Clone)]
struct Read {
    method: String,
    key: String,
    line: u32,
}

struct FnDef {
    body: std::ops::Range<usize>,
}

struct Model {
    infos: BTreeMap<String, InfoDef>,
    shared_params: BTreeMap<String, Vec<String>>,
    experiments: Vec<ExperimentReg>,
    fns: BTreeMap<String, FnDef>,
    reads: BTreeMap<String, Vec<Read>>,
    calls: BTreeMap<String, BTreeSet<String>>,
}

impl Model {
    fn parse(sig: &[&Token]) -> Model {
        let mut model = Model {
            infos: BTreeMap::new(),
            shared_params: BTreeMap::new(),
            experiments: Vec::new(),
            fns: BTreeMap::new(),
            reads: BTreeMap::new(),
            calls: BTreeMap::new(),
        };
        model.scan_statics(sig);
        model.scan_registrations(sig);
        model.scan_fns(sig);
        model.scan_bodies(sig);
        model
    }

    fn scan_statics(&mut self, sig: &[&Token]) {
        let mut i = 0usize;
        while i < sig.len() {
            if !matches!(&sig[i].tok, Tok::Ident(s) if s == "static") {
                i += 1;
                continue;
            }
            let Some(Tok::Ident(static_name)) = sig.get(i + 1).map(|t| &t.tok) else {
                i += 1;
                continue;
            };
            let static_name = static_name.clone();
            let line = sig[i].line;
            let end = item_extent(sig, i);
            let body = &sig[i..end];
            if body
                .iter()
                .any(|t| matches!(&t.tok, Tok::Ident(s) if s == "ExperimentInfo"))
            {
                if let Some(info) = parse_info(body, line) {
                    self.infos.insert(static_name, info);
                }
            } else if contains_param_list(body) {
                self.shared_params
                    .insert(static_name, parse_param_names(body));
            }
            i = end;
        }
    }

    fn scan_registrations(&mut self, sig: &[&Token]) {
        for i in 0..sig.len() {
            if !matches!(&sig[i].tok, Tok::Ident(s) if s == "experiment") {
                continue;
            }
            if !matches!(sig.get(i + 1).map(|t| &t.tok), Some(Tok::Punct('!'))) {
                continue;
            }
            // experiment!(Ty, INFO, path::to::run_fn);
            let mut idents = Vec::new();
            for t in &sig[i + 2..] {
                match &t.tok {
                    Tok::Punct(')') => break,
                    Tok::Ident(s) => idents.push(s.clone()),
                    _ => {}
                }
            }
            if idents.len() >= 3 {
                self.experiments.push(ExperimentReg {
                    ty: idents[0].clone(),
                    info_static: idents[1].clone(),
                    run_fn: idents.last().expect("len >= 3").clone(),
                    line: sig[i].line,
                });
            }
        }
    }

    fn scan_fns(&mut self, sig: &[&Token]) {
        let mut i = 0usize;
        while i < sig.len() {
            if !matches!(&sig[i].tok, Tok::Ident(s) if s == "fn") {
                i += 1;
                continue;
            }
            let Some(Tok::Ident(name)) = sig.get(i + 1).map(|t| &t.tok) else {
                i += 1;
                continue;
            };
            let name = name.clone();
            // Body = first `{…}` group before a top-level `;`.
            let mut j = i + 2;
            let mut depth = 0i32;
            let mut body = None;
            while j < sig.len() {
                match &sig[j].tok {
                    Tok::Punct('(' | '[') => depth += 1,
                    Tok::Punct(')' | ']') => depth -= 1,
                    Tok::Punct(';') if depth == 0 => break, // no body (trait decl)
                    Tok::Punct('{') if depth == 0 => {
                        let end = brace_extent(sig, j);
                        body = Some(j + 1..end.saturating_sub(1));
                        break;
                    }
                    _ => {}
                }
                j += 1;
            }
            if let Some(body) = body {
                self.fns.insert(name, FnDef { body });
            }
            i += 2;
        }
    }

    fn scan_bodies(&mut self, sig: &[&Token]) {
        let names: BTreeSet<String> = self.fns.keys().cloned().collect();
        for (name, def) in &self.fns {
            let mut reads = Vec::new();
            let mut calls = BTreeSet::new();
            let r = def.body.clone();
            for j in r.clone() {
                // `.u64("k")` / `.f64("k")` / `.str("k")` / `.bias()`
                if matches!(&sig[j].tok, Tok::Punct('.')) {
                    if let Some(Tok::Ident(m)) = sig.get(j + 1).map(|t| &t.tok) {
                        let is_open =
                            matches!(sig.get(j + 2).map(|t| &t.tok), Some(Tok::Punct('(')));
                        if is_open && ["u64", "f64", "str"].contains(&m.as_str()) {
                            if let Some(Tok::Str(key)) = sig.get(j + 3).map(|t| &t.tok) {
                                reads.push(Read {
                                    method: m.clone(),
                                    key: key.clone(),
                                    line: sig[j + 1].line,
                                });
                            }
                        } else if is_open && m == "bias" {
                            reads.push(Read {
                                method: m.clone(),
                                key: "bias".to_string(),
                                line: sig[j + 1].line,
                            });
                        }
                    }
                }
                // Local helper call: `name(` not preceded by `.`.
                if let Tok::Ident(callee) = &sig[j].tok {
                    if names.contains(callee)
                        && callee != name
                        && matches!(sig.get(j + 1).map(|t| &t.tok), Some(Tok::Punct('(')))
                        && !matches!(
                            sig.get(j.wrapping_sub(1)).map(|t| &t.tok),
                            Some(Tok::Punct('.'))
                        )
                    {
                        calls.insert(callee.clone());
                    }
                }
            }
            self.reads.insert(name.clone(), reads);
            self.calls.insert(name.clone(), calls);
        }
    }

    /// Reads in `entry` and everything transitively called from it.
    fn reachable_reads(&self, entry: &str) -> Vec<Read> {
        let mut seen = BTreeSet::new();
        let mut stack = vec![entry.to_string()];
        let mut out = Vec::new();
        while let Some(f) = stack.pop() {
            if !seen.insert(f.clone()) {
                continue;
            }
            if let Some(reads) = self.reads.get(&f) {
                out.extend(reads.iter().cloned());
            }
            if let Some(calls) = self.calls.get(&f) {
                stack.extend(calls.iter().cloned());
            }
        }
        out
    }
}

/// Extent of the item starting at `start` (a `static`): up to and
/// including the first `;` with all delimiters balanced.
fn item_extent(sig: &[&Token], start: usize) -> usize {
    let mut depth = 0i32;
    for (off, t) in sig[start..].iter().enumerate() {
        match &t.tok {
            Tok::Punct('{' | '(' | '[') => depth += 1,
            Tok::Punct('}' | ')' | ']') => depth -= 1,
            Tok::Punct(';') if depth == 0 => return start + off + 1,
            _ => {}
        }
    }
    sig.len()
}

/// Index one past the `}` matching the `{` at `open`.
fn brace_extent(sig: &[&Token], open: usize) -> usize {
    let mut depth = 0i32;
    for (off, t) in sig[open..].iter().enumerate() {
        match &t.tok {
            Tok::Punct('{') => depth += 1,
            Tok::Punct('}') => {
                depth -= 1;
                if depth == 0 {
                    return open + off + 1;
                }
            }
            _ => {}
        }
    }
    sig.len()
}

/// Does the token run contain a parameter list (`params![…]` macro or a
/// `ParamSpec` literal)?
fn contains_param_list(body: &[&Token]) -> bool {
    body.iter()
        .any(|t| matches!(&t.tok, Tok::Ident(s) if s == "ParamSpec"))
        || body.windows(2).any(|w| {
            matches!(&w[0].tok, Tok::Ident(s) if s == "params")
                && matches!(&w[1].tok, Tok::Punct('!'))
        })
}

/// Parse an `ExperimentInfo { name: "…", …, params: …, … }` literal.
fn parse_info(body: &[&Token], line: u32) -> Option<InfoDef> {
    let mut exp_name = None;
    let mut params = None;
    for (i, t) in body.iter().enumerate() {
        let Tok::Ident(field) = &t.tok else { continue };
        if !matches!(body.get(i + 1).map(|t| &t.tok), Some(Tok::Punct(':'))) {
            continue;
        }
        match field.as_str() {
            "name" if exp_name.is_none() => {
                if let Some(Tok::Str(s)) = body.get(i + 2).map(|t| &t.tok) {
                    exp_name = Some(s.clone());
                }
            }
            "params" if params.is_none() => {
                params = Some(match body.get(i + 2).map(|t| &t.tok) {
                    // `params: SHARED_STATIC`
                    Some(Tok::Ident(r)) if r != "params" => ParamsRef::Named(r.clone()),
                    // `params: params![…]` or `params: &[ParamSpec{…}]`
                    _ => ParamsRef::Inline(parse_param_names(&body[i + 2..])),
                });
            }
            _ => {}
        }
    }
    Some(InfoDef {
        exp_name: exp_name?,
        params: params?,
        line,
    })
}

/// Declared parameter names in a `params![(name, …), …]` macro call or a
/// `&[ParamSpec { name: "…", … }, …]` literal: the first string of each
/// top-level tuple, or each `name:` field. The macro form is checked
/// first because a shared static's *type* annotation (`&[ParamSpec]`)
/// also mentions `ParamSpec` and carries a bracket of its own.
fn parse_param_names(body: &[&Token]) -> Vec<String> {
    let mut names = Vec::new();
    // Macro tuple form: the `[` directly after `params !`; first string
    // inside each depth-1 paren group, stopping at the macro's `]`.
    let open = body.windows(3).position(|w| {
        matches!(&w[0].tok, Tok::Ident(s) if s == "params")
            && matches!(&w[1].tok, Tok::Punct('!'))
            && matches!(&w[2].tok, Tok::Punct('['))
    });
    let Some(open) = open.map(|i| i + 2) else {
        // Struct literal form: every `name: "…"` field.
        for (i, t) in body.iter().enumerate() {
            if matches!(&t.tok, Tok::Ident(s) if s == "name")
                && matches!(body.get(i + 1).map(|t| &t.tok), Some(Tok::Punct(':')))
            {
                if let Some(Tok::Str(s)) = body.get(i + 2).map(|t| &t.tok) {
                    names.push(s.clone());
                }
            }
        }
        return names;
    };
    let mut depth = 0i32;
    let mut tuple_has_name = false;
    for t in &body[open..] {
        match &t.tok {
            Tok::Punct('[') => depth += 1,
            Tok::Punct(']') => {
                depth -= 1;
                if depth == 0 {
                    break;
                }
            }
            Tok::Punct('(') => {
                depth += 1;
                if depth == 2 {
                    tuple_has_name = false;
                }
            }
            Tok::Punct(')') => depth -= 1,
            Tok::Str(s) if depth == 2 && !tuple_has_name => {
                names.push(s.clone());
                tuple_has_name = true;
            }
            _ => {}
        }
    }
    names
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::Path;

    /// The `figures::<Ty>` entries of `static REGISTRY` in registry.rs.
    fn registry_entries(ws: &Workspace) -> Vec<String> {
        let file = ws
            .file("crates/core/src/registry.rs")
            .expect("registry.rs is loaded");
        let sig: Vec<&Token> = file.code().into_iter().map(|(_, t)| t).collect();
        let start = sig
            .windows(2)
            .position(|w| {
                matches!(&w[0].tok, Tok::Ident(s) if s == "static")
                    && matches!(&w[1].tok, Tok::Ident(s) if s == "REGISTRY")
            })
            .expect("`static REGISTRY` in registry.rs");
        sig[start..item_extent(&sig, start)]
            .windows(4)
            .filter_map(|w| match (&w[0].tok, &w[1].tok, &w[2].tok, &w[3].tok) {
                (Tok::Ident(m), Tok::Punct(':'), Tok::Punct(':'), Tok::Ident(ty))
                    if m == "figures" =>
                {
                    Some(ty.clone())
                }
                _ => None,
            })
            .collect()
    }

    /// L5 returns without a finding when its target file is missing and
    /// skips registrations it cannot parse, so a renamed file or a new
    /// registration form would turn it into a silent pass. Pin the model
    /// to the live registry: one resolved `experiment!` per entry.
    #[test]
    fn model_resolves_one_registration_per_registry_entry() {
        let root = Path::new(env!("CARGO_MANIFEST_DIR"))
            .parent()
            .expect("xtask sits in the workspace root");
        let ws = Workspace::load(root).expect("load workspace");
        let file = ws.file(TARGET).expect("L5 target file exists");
        let sig: Vec<&Token> = file.code().into_iter().map(|(_, t)| t).collect();
        let model = Model::parse(&sig);

        let mut registry = registry_entries(&ws);
        registry.sort();
        let mut registered: Vec<String> = model.experiments.iter().map(|e| e.ty.clone()).collect();
        registered.sort();
        assert!(!registry.is_empty(), "no `figures::` entries in REGISTRY");
        assert_eq!(
            registered, registry,
            "experiment! registrations vs REGISTRY"
        );

        for exp in &model.experiments {
            let info = model
                .infos
                .get(&exp.info_static)
                .unwrap_or_else(|| panic!("{}: no static {}", exp.ty, exp.info_static));
            let declared = match &info.params {
                ParamsRef::Inline(list) => list,
                ParamsRef::Named(name) => model
                    .shared_params
                    .get(name)
                    .unwrap_or_else(|| panic!("{}: params static {name} unresolved", exp.ty)),
            };
            assert!(
                model.fns.contains_key(&exp.run_fn),
                "{}: run fn {} not found",
                exp.ty,
                exp.run_fn
            );
            if !declared.is_empty() {
                assert!(
                    !model.reachable_reads(&exp.run_fn).is_empty(),
                    "{}: declares parameters but L5 sees no reads from {}",
                    exp.ty,
                    exp.run_fn
                );
            }
        }
    }
}
