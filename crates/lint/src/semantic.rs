//! Workspace-level symbol index and approximate call graph.
//!
//! The interprocedural rules (lock-order, blocking-under-lock,
//! deadline-propagation) need to see across files: which functions
//! exist, who calls whom, and where `MutexGuard`s are live. This module
//! builds that model from the lexer streams alone — no type checking,
//! no trait resolution. The approximations (documented in DESIGN.md
//! §15) are:
//!
//! * **Name-based resolution.** A call resolves to a `fn` of the same
//!   name defined in the same file, else the same crate, else anywhere
//!   in the workspace — each step only when the name is unambiguous at
//!   that scope. Method calls with ubiquitous container/iterator names
//!   (`len`, `get`, `push`, …) only resolve when the receiver mentions
//!   `self`, because the receiver's type is unknown.
//! * **No trait dispatch.** Calls through trait objects or generics
//!   resolve like any other name, or not at all.
//! * **Lexical guard scopes.** A `let`-bound guard is held to the end
//!   of its enclosing block, shortened by `drop(guard)` or
//!   reassignment; a guard temporary is held to the end of its
//!   statement. `guard = cv.wait(guard)` continues the hold.
//! * **Lock identity** is `{crate}/{file_stem}.{field}` — the last
//!   field segment of the `lock_unpoisoned(&…)` argument, qualified by
//!   the file that acquires it (a mutex acquired directly from two
//!   files would split identity; today every mutex has one home file).

use crate::model::SourceFile;
use crate::walk::Workspace;
use std::collections::BTreeMap;

/// One call site inside a function body.
#[derive(Clone, Debug)]
pub struct CallSite {
    /// Last path segment of the callee (`foo::bar(` → `bar`).
    pub name: String,
    /// Byte offset of the name.
    pub at: usize,
    /// The text between the call's parentheses.
    pub args: String,
    /// `Some(receiver chain)` for method calls (empty when the receiver
    /// is an expression, e.g. `f(x).m()`); `None` for free calls.
    pub receiver: Option<String>,
}

/// One `MutexGuard` acquisition and the range it is lexically live.
#[derive(Clone, Debug)]
pub struct Acquire {
    /// Canonical lock identity (`pool/lib.state`).
    pub lock: String,
    /// Byte offset of the acquiring call's name.
    pub at: usize,
    /// Byte range over which the guard is held.
    pub hold: (usize, usize),
    /// The guard's binding name, if `let`-bound or assigned.
    pub binding: Option<String>,
}

/// One function definition with everything the rules need.
#[derive(Clone, Debug)]
pub struct FnDef {
    /// Index into `workspace.files`.
    pub file: usize,
    /// The function's name.
    pub name: String,
    /// Byte offset of the name.
    pub name_at: usize,
    /// Byte range of the body, braces inclusive.
    pub body: (usize, usize),
    /// Name of the `Deadline`-typed parameter, if any.
    pub deadline_param: Option<String>,
    /// Whether the return type mentions `MutexGuard` (guard
    /// constructor — callers inherit its acquisition).
    pub returns_guard: bool,
    /// Call sites in the body (innermost-function attribution).
    pub calls: Vec<CallSite>,
    /// Guard acquisitions in the body (direct `lock_unpoisoned` plus
    /// resolved guard-constructor calls).
    pub acquires: Vec<Acquire>,
    /// Byte ranges of `for`/`while`/`loop` bodies in this function.
    pub loops: Vec<(usize, usize)>,
}

/// A representative direct-acquisition site for a lock.
#[derive(Copy, Clone, Debug)]
pub struct SiteRef {
    /// Index into `workspace.files`.
    pub file: usize,
    /// Byte offset of the acquiring call.
    pub at: usize,
}

/// The symbol index + call graph over a whole workspace.
pub struct Model<'w> {
    /// The workspace the indices point into.
    pub workspace: &'w Workspace,
    /// Every function found in non-test files.
    pub fns: Vec<FnDef>,
    /// `may_acquire[i]`: locks `fns[i]` may (transitively) acquire,
    /// each with the direct acquisition site the set was seeded from.
    pub may_acquire: Vec<BTreeMap<String, SiteRef>>,
    by_file: BTreeMap<(usize, String), Vec<usize>>,
    by_crate: BTreeMap<(String, String), Vec<usize>>,
    by_name: BTreeMap<String, Vec<usize>>,
}

/// Rust keywords that look like call names when followed by `(`.
const KEYWORDS: [&str; 18] = [
    "if", "while", "for", "loop", "match", "return", "fn", "let", "in", "as", "move", "ref",
    "else", "impl", "where", "unsafe", "break", "continue",
];

/// Method names too common to resolve without knowing the receiver's
/// type; they resolve only when the receiver mentions `self`.
const COMMON_METHODS: [&str; 36] = [
    "len",
    "is_empty",
    "get",
    "insert",
    "remove",
    "push",
    "pop",
    "push_back",
    "push_front",
    "pop_back",
    "pop_front",
    "clone",
    "iter",
    "into_iter",
    "next",
    "contains",
    "position",
    "find",
    "map",
    "filter",
    "expect",
    "unwrap",
    "take",
    "replace",
    "min",
    "max",
    "new",
    "clear",
    "extend",
    "drain",
    "join",
    "split",
    "wait",
    "send",
    "recv",
    "from",
];

impl<'w> Model<'w> {
    /// Build the index over every non-test file of `workspace`.
    pub fn build(workspace: &'w Workspace) -> Model<'w> {
        let mut fns: Vec<FnDef> = Vec::new();
        for (fi, file) in workspace.files.iter().enumerate() {
            if file.is_test_file {
                continue;
            }
            collect_file(file, fi, &mut fns);
        }

        let mut model = Model {
            workspace,
            fns,
            may_acquire: Vec::new(),
            by_file: BTreeMap::new(),
            by_crate: BTreeMap::new(),
            by_name: BTreeMap::new(),
        };
        for (i, f) in model.fns.iter().enumerate() {
            let file = &workspace.files[f.file];
            model
                .by_file
                .entry((f.file, f.name.clone()))
                .or_default()
                .push(i);
            if let Some(prefix) = crate::walk::crate_prefix(&file.rel_path) {
                model
                    .by_crate
                    .entry((prefix, f.name.clone()))
                    .or_default()
                    .push(i);
            }
            model.by_name.entry(f.name.clone()).or_default().push(i);
        }

        model.attach_acquires();
        model.propagate_lock_sets();
        model
    }

    /// The source file a function lives in.
    pub fn file_of(&self, f: &FnDef) -> &SourceFile {
        &self.workspace.files[f.file]
    }

    /// Resolve a call from `fns[from]` to a function index, or `None`
    /// when the name is ambiguous, unknown, or too generic to trust.
    pub fn resolve(&self, call: &CallSite, from: usize) -> Option<usize> {
        if KEYWORDS.contains(&call.name.as_str()) {
            return None;
        }
        if let Some(receiver) = &call.receiver {
            if COMMON_METHODS.contains(&call.name.as_str()) && !mentions_self(receiver) {
                return None;
            }
        }
        let from_def = &self.fns[from];
        if let Some(hits) = self.by_file.get(&(from_def.file, call.name.clone())) {
            if hits.len() == 1 {
                return Some(hits[0]);
            }
        }
        let file = &self.workspace.files[from_def.file];
        if let Some(prefix) = crate::walk::crate_prefix(&file.rel_path) {
            if let Some(hits) = self.by_crate.get(&(prefix, call.name.clone())) {
                if hits.len() == 1 {
                    return Some(hits[0]);
                }
            }
        }
        match self.by_name.get(&call.name) {
            Some(hits) if hits.len() == 1 => Some(hits[0]),
            _ => None,
        }
    }

    /// Turn direct `lock_unpoisoned` calls and guard-constructor calls
    /// into [`Acquire`]s with hold ranges.
    fn attach_acquires(&mut self) {
        // Guard constructors: `-> MutexGuard` functions that directly
        // call `lock_unpoisoned` (or delegate to another constructor —
        // iterate to a fixpoint).
        let mut ctor_lock: BTreeMap<usize, String> = BTreeMap::new();
        loop {
            let mut changed = false;
            for (i, f) in self.fns.iter().enumerate() {
                if !f.returns_guard || ctor_lock.contains_key(&i) {
                    continue;
                }
                let file = &self.workspace.files[f.file];
                let lock = f.calls.iter().find_map(|c| {
                    if c.name == "lock_unpoisoned" {
                        Some(canon_lock(file, &c.args))
                    } else {
                        self.resolve(c, i).and_then(|j| ctor_lock.get(&j).cloned())
                    }
                });
                if let Some(lock) = lock {
                    ctor_lock.insert(i, lock);
                    changed = true;
                }
            }
            if !changed {
                break;
            }
        }

        for i in 0..self.fns.len() {
            let mut acquires = Vec::new();
            for c in self.fns[i].calls.clone() {
                let file = &self.workspace.files[self.fns[i].file];
                let lock = if c.name == "lock_unpoisoned" {
                    Some(canon_lock(file, &c.args))
                } else {
                    self.resolve(&c, i).and_then(|j| ctor_lock.get(&j).cloned())
                };
                let Some(lock) = lock else {
                    continue;
                };
                let expr_start = c
                    .receiver
                    .as_ref()
                    .map_or(c.at, |r| c.at.saturating_sub(r.len() + 1));
                let binding = binding_of(file, expr_start);
                let call_end = end_of_call(file, c.at);
                let body_end = self.fns[i].body.1;
                let hold_end = match &binding {
                    Some(name) => binding_hold_end(file, name, call_end, body_end),
                    None => temporary_hold_end(file, call_end, body_end),
                };
                acquires.push(Acquire {
                    lock,
                    at: c.at,
                    hold: (c.at, hold_end),
                    binding,
                });
            }
            self.fns[i].acquires = acquires;
        }
    }

    /// Fixpoint: each function may acquire what it acquires directly
    /// plus whatever its resolved callees may acquire.
    fn propagate_lock_sets(&mut self) {
        let mut sets: Vec<BTreeMap<String, SiteRef>> = self
            .fns
            .iter()
            .map(|f| {
                f.acquires
                    .iter()
                    .map(|a| {
                        (
                            a.lock.clone(),
                            SiteRef {
                                file: f.file,
                                at: a.at,
                            },
                        )
                    })
                    .collect()
            })
            .collect();
        loop {
            let mut changed = false;
            for i in 0..self.fns.len() {
                let mut additions: Vec<(String, SiteRef)> = Vec::new();
                for c in &self.fns[i].calls {
                    let Some(j) = self.resolve(c, i) else {
                        continue;
                    };
                    for (lock, site) in &sets[j] {
                        if !sets[i].contains_key(lock) {
                            additions.push((lock.clone(), *site));
                        }
                    }
                }
                for (lock, site) in additions {
                    if sets[i].insert(lock, site).is_none() {
                        changed = true;
                    }
                }
            }
            if !changed {
                break;
            }
        }
        self.may_acquire = sets;
    }
}

/// Whether a receiver chain roots at or contains `self`.
fn mentions_self(receiver: &str) -> bool {
    receiver.split('.').any(|seg| seg == "self")
}

/// Canonical lock identity for a `lock_unpoisoned` argument in `file`:
/// strip borrows/derefs/`self`/indexing, take the last field segment,
/// and qualify it with `{crate}/{file_stem}`.
pub fn canon_lock(file: &SourceFile, arg: &str) -> String {
    let mut expr = arg.trim();
    loop {
        let trimmed = expr
            .trim_start_matches(['&', '*', '('])
            .trim_end_matches(')')
            .trim();
        let trimmed = trimmed.strip_prefix("mut ").unwrap_or(trimmed).trim();
        if trimmed == expr {
            break;
        }
        expr = trimmed;
    }
    // Drop `[...]` index segments so `backends[i].health` and
    // `backend.health` agree.
    let mut flat = String::new();
    let mut depth = 0usize;
    for ch in expr.chars() {
        match ch {
            '[' => depth += 1,
            ']' => depth = depth.saturating_sub(1),
            _ if depth == 0 => flat.push(ch),
            _ => {}
        }
    }
    let field = flat
        .split('.')
        .map(str::trim)
        .rfind(|seg| !seg.is_empty() && *seg != "self")
        .unwrap_or("lock")
        .to_string();
    let parts: Vec<&str> = file.rel_path.split('/').collect();
    let crate_name = match parts.as_slice() {
        ["crates", name, ..] => name,
        _ => "src",
    };
    let stem = parts.last().map_or("", |p| p.trim_end_matches(".rs"));
    format!("{crate_name}/{stem}.{field}")
}

/// Collect the function definitions, calls, and loops of one file,
/// attributing calls and loops to the innermost enclosing function.
fn collect_file(file: &SourceFile, fi: usize, out: &mut Vec<FnDef>) {
    let mut defs: Vec<FnDef> = Vec::new();
    for at in file.code_occurrences("fn") {
        if let Some(def) = parse_fn(file, fi, at) {
            defs.push(def);
        }
    }

    let calls = collect_calls(file, &defs);
    let loops = collect_loops(file);

    // Innermost attribution: smallest body containing the offset.
    let bodies: Vec<(usize, usize)> = defs.iter().map(|d| d.body).collect();
    let innermost = |offset: usize| -> Option<usize> {
        bodies
            .iter()
            .enumerate()
            .filter(|(_, b)| b.0 < offset && offset < b.1)
            .min_by_key(|(_, b)| b.1 - b.0)
            .map(|(i, _)| i)
    };
    for call in calls {
        if let Some(i) = innermost(call.at) {
            defs[i].calls.push(call);
        }
    }
    for lp in loops {
        if let Some(i) = innermost(lp.0) {
            defs[i].loops.push(lp);
        }
    }
    out.append(&mut defs);
}

/// Parse one `fn` occurrence into a definition (None for trait method
/// declarations without a body, `fn` pointers/types, etc.).
fn parse_fn(file: &SourceFile, fi: usize, fn_at: usize) -> Option<FnDef> {
    let bytes = file.text.as_bytes();
    let n = bytes.len();
    let mut i = skip_ws(file, fn_at + 2);
    let name_at = i;
    while i < n && ident_byte(bytes[i]) {
        i += 1;
    }
    if i == name_at {
        return None; // `fn(` pointer type
    }
    let name = file.text[name_at..i].to_string();
    i = skip_ws(file, i);
    // Generic parameters: balanced `<…>`, minding `->` inside bounds.
    if bytes.get(i) == Some(&b'<') {
        let mut depth = 0isize;
        while i < n {
            if file.lexed.classes[i] == crate::lexer::Class::Code {
                match bytes[i] {
                    b'<' => depth += 1,
                    b'>' if i > 0 && bytes[i - 1] == b'-' => {}
                    b'>' => {
                        depth -= 1;
                        if depth == 0 {
                            i += 1;
                            break;
                        }
                    }
                    _ => {}
                }
            }
            i += 1;
        }
        i = skip_ws(file, i);
    }
    if bytes.get(i) != Some(&b'(') {
        return None;
    }
    let params_start = i + 1;
    let params_end = matching_close(file, i, b'(', b')')?;
    let params = &file.text[params_start..params_end];
    i = params_end + 1;
    // Return type / where clause, up to the body `{` or a `;`.
    let mut ret = String::new();
    let mut body_open = None;
    while i < n {
        if file.lexed.classes[i] == crate::lexer::Class::Code {
            match bytes[i] {
                b'{' => {
                    body_open = Some(i);
                    break;
                }
                b';' => break,
                _ => ret.push(bytes[i] as char),
            }
        }
        i += 1;
    }
    let body_open = body_open?;
    let body_close = matching_close(file, body_open, b'{', b'}')?;
    Some(FnDef {
        file: fi,
        name,
        name_at,
        body: (body_open, body_close + 1),
        deadline_param: deadline_param(params),
        returns_guard: ret.contains("MutexGuard"),
        calls: Vec::new(),
        acquires: Vec::new(),
        loops: Vec::new(),
    })
}

/// The name of a `Deadline`-typed parameter, if the signature has one.
fn deadline_param(params: &str) -> Option<String> {
    for param in split_top_level(params, ',') {
        let Some((name, ty)) = param.split_once(':') else {
            continue;
        };
        if ty.contains("Deadline") && !ty.contains("DeadlineExceeded") {
            let name = name.trim().trim_start_matches("mut ").trim();
            if !name.is_empty() {
                return Some(name.to_string());
            }
        }
    }
    None
}

/// Split at `sep` occurrences not nested inside any bracket pair.
fn split_top_level(text: &str, sep: char) -> Vec<&str> {
    let mut parts = Vec::new();
    let mut depth = 0isize;
    let mut last = 0;
    for (i, ch) in text.char_indices() {
        match ch {
            '(' | '[' | '<' | '{' => depth += 1,
            ')' | ']' | '}' => depth -= 1,
            '>' if !text[..i].ends_with('-') => depth -= 1,
            c if c == sep && depth == 0 => {
                parts.push(&text[last..i]);
                last = i + 1;
            }
            _ => {}
        }
    }
    parts.push(&text[last..]);
    parts
}

/// Every call site in the file (name followed by `(`), excluding
/// macros, keywords, and the `fn` definitions themselves.
fn collect_calls(file: &SourceFile, defs: &[FnDef]) -> Vec<CallSite> {
    let bytes = file.text.as_bytes();
    let n = bytes.len();
    let def_names: Vec<usize> = defs.iter().map(|d| d.name_at).collect();
    let mut calls = Vec::new();
    let mut i = 0;
    while i < n {
        if !file.is_live_code(i) || !ident_byte(bytes[i]) || (i > 0 && ident_byte(bytes[i - 1])) {
            i += 1;
            continue;
        }
        let start = i;
        while i < n && ident_byte(bytes[i]) {
            i += 1;
        }
        let name = &file.text[start..i];
        if KEYWORDS.contains(&name) || def_names.contains(&start) {
            continue;
        }
        let mut j = i;
        // Turbofish `::<…>` between name and parenthesis.
        if file.text[j..].starts_with("::<") {
            let mut depth = 0isize;
            j += 2;
            while j < n {
                match bytes[j] {
                    b'<' => depth += 1,
                    b'>' if bytes[j - 1] == b'-' => {}
                    b'>' => {
                        depth -= 1;
                        if depth == 0 {
                            j += 1;
                            break;
                        }
                    }
                    _ => {}
                }
                j += 1;
            }
        }
        if bytes.get(j) == Some(&b'!') {
            continue; // macro
        }
        if bytes.get(j) != Some(&b'(') {
            continue;
        }
        let Some(close) = matching_close(file, j, b'(', b')') else {
            continue;
        };
        let receiver = receiver_chain(file, start);
        calls.push(CallSite {
            name: name.to_string(),
            at: start,
            args: file.text[j + 1..close].to_string(),
            receiver,
        });
    }
    calls
}

/// For `a.b.c.m(` at the offset of `m`, the chain `a.b.c`; `Some("")`
/// when the receiver is a non-path expression; `None` for free calls.
fn receiver_chain(file: &SourceFile, name_at: usize) -> Option<String> {
    let bytes = file.text.as_bytes();
    if name_at == 0 || bytes[name_at - 1] != b'.' {
        return None;
    }
    let mut i = name_at - 1; // the dot
    let mut start = i;
    while start > 0 {
        let prev = bytes[start - 1];
        if ident_byte(prev) || prev == b'.' {
            start -= 1;
        } else {
            break;
        }
    }
    // A `)` or `]` directly before the chain start means the real
    // receiver is an expression we cannot name.
    if start == i {
        return Some(String::new());
    }
    if start > 0 && matches!(bytes[start - 1], b')' | b']') {
        return Some(String::new());
    }
    while i > start && bytes[i - 1] == b'.' {
        i -= 1; // tolerate `a..m(` oddities
    }
    Some(file.text[start..name_at - 1].to_string())
}

/// Every `for`/`while`/`loop` body range in live code.
fn collect_loops(file: &SourceFile) -> Vec<(usize, usize)> {
    let bytes = file.text.as_bytes();
    let n = bytes.len();
    let mut loops = Vec::new();
    for kw in ["for", "while", "loop"] {
        for at in file.code_occurrences(kw) {
            // `impl Trait for Type {` is not a loop; it sits outside fn
            // bodies and is dropped by innermost-fn attribution anyway.
            let mut i = at + kw.len();
            let mut paren = 0isize;
            let mut bracket = 0isize;
            let mut open = None;
            while i < n {
                if file.lexed.classes[i] == crate::lexer::Class::Code {
                    match bytes[i] {
                        b'(' => paren += 1,
                        b')' => paren -= 1,
                        b'[' => bracket += 1,
                        b']' => bracket -= 1,
                        b'{' if paren == 0 && bracket == 0 => {
                            open = Some(i);
                            break;
                        }
                        b';' | b'}' if paren == 0 && bracket == 0 => break,
                        _ => {}
                    }
                }
                i += 1;
            }
            if let Some(open) = open {
                if let Some(close) = matching_close(file, open, b'{', b'}') {
                    loops.push((open, close + 1));
                }
            }
        }
    }
    loops
}

/// Offset one past the matching closer for the opener at `open`.
fn matching_close(file: &SourceFile, open: usize, open_b: u8, close_b: u8) -> Option<usize> {
    let bytes = file.text.as_bytes();
    let mut depth = 0usize;
    for (i, &b) in bytes.iter().enumerate().skip(open) {
        if file.lexed.classes[i] != crate::lexer::Class::Code {
            continue;
        }
        if b == open_b {
            depth += 1;
        } else if b == close_b {
            depth -= 1;
            if depth == 0 {
                return Some(i);
            }
        }
    }
    None
}

/// One past the closing parenthesis of the call whose name starts at
/// `name_at` (best effort: end of the name when no parenthesis found).
fn end_of_call(file: &SourceFile, name_at: usize) -> usize {
    let bytes = file.text.as_bytes();
    let mut i = name_at;
    while i < bytes.len() && ident_byte(bytes[i]) {
        i += 1;
    }
    if bytes.get(i) == Some(&b'(') {
        if let Some(close) = matching_close(file, i, b'(', b')') {
            return close + 1;
        }
    }
    i
}

/// The binding an acquisition expression starting at `expr_start` is
/// assigned to (`let g = …`, `g = …`), if any.
fn binding_of(file: &SourceFile, expr_start: usize) -> Option<String> {
    let bytes = file.text.as_bytes();
    let mut i = expr_start;
    // Walk back over whitespace, borrows, and derefs.
    loop {
        while i > 0 && bytes[i - 1].is_ascii_whitespace() {
            i -= 1;
        }
        if i > 0 && matches!(bytes[i - 1], b'&' | b'*') {
            i -= 1;
            continue;
        }
        if file.text[..i].ends_with("mut") {
            i -= 3;
            continue;
        }
        break;
    }
    if i == 0 || bytes[i - 1] != b'=' {
        return None;
    }
    i -= 1;
    if i > 0
        && matches!(
            bytes[i - 1],
            b'=' | b'!' | b'<' | b'>' | b'+' | b'-' | b'*' | b'/'
        )
    {
        return None; // comparison or compound assignment
    }
    while i > 0 && bytes[i - 1].is_ascii_whitespace() {
        i -= 1;
    }
    let name_end = i;
    while i > 0 && ident_byte(bytes[i - 1]) {
        i -= 1;
    }
    if i == name_end {
        return None;
    }
    if i > 0 && bytes[i - 1] == b'.' {
        return None; // field assignment, not a local guard binding
    }
    Some(file.text[i..name_end].to_string())
}

/// Where a `let`-bound guard stops being held: the enclosing block's
/// `}`, shortened by `drop(name)` or a reassignment of `name` whose
/// right-hand side is not a `…wait(name)` continuation.
fn binding_hold_end(file: &SourceFile, name: &str, from: usize, body_end: usize) -> usize {
    let block_end = enclosing_block_end(file, from, body_end);
    let bytes = file.text.as_bytes();
    let mut end = block_end;

    for at in file.code_occurrences("drop") {
        if at < from || at >= end {
            continue;
        }
        let mut i = skip_ws(file, at + 4);
        if bytes.get(i) != Some(&b'(') {
            continue;
        }
        i = skip_ws(file, i + 1);
        if file.text[i..].starts_with(name)
            && !ident_byte(*bytes.get(i + name.len()).unwrap_or(&b' '))
        {
            end = end.min(at);
        }
    }

    for at in file.code_occurrences(name) {
        if at <= from || at >= end {
            continue;
        }
        // Statement-initial `name =` (not `==`) ends the hold …
        let before = file.text[..at].trim_end();
        if !(before.ends_with(';') || before.ends_with('{') || before.ends_with('}')) {
            continue;
        }
        let after = skip_ws(file, at + name.len());
        if bytes.get(after) != Some(&b'=') || bytes.get(after + 1) == Some(&b'=') {
            continue;
        }
        // … unless the right-hand side is a condvar `wait(name)`, which
        // re-acquires the same guard without a gap.
        let stmt_end = file.text[after..].find(';').map_or(end, |rel| after + rel);
        if file.text[after..stmt_end].contains(".wait(") {
            continue;
        }
        end = end.min(at);
    }
    end
}

/// Where a guard temporary stops being held: the end of its statement
/// (`;`), the end of the enclosing block, or the closing parenthesis of
/// a surrounding call (closure bodies in iterator chains).
fn temporary_hold_end(file: &SourceFile, from: usize, body_end: usize) -> usize {
    let bytes = file.text.as_bytes();
    let mut paren = 0isize;
    let mut brace = 0isize;
    for (i, &b) in bytes.iter().enumerate().take(body_end).skip(from) {
        if file.lexed.classes[i] != crate::lexer::Class::Code {
            continue;
        }
        match b {
            b'(' => paren += 1,
            b')' => {
                paren -= 1;
                if paren < 0 {
                    return i;
                }
            }
            b'{' => brace += 1,
            b'}' => {
                brace -= 1;
                if brace < 0 {
                    return i;
                }
            }
            b';' if paren == 0 && brace == 0 => return i,
            _ => {}
        }
    }
    body_end
}

/// The `}` closing the innermost block containing `from`, bounded by
/// the function body end.
fn enclosing_block_end(file: &SourceFile, from: usize, body_end: usize) -> usize {
    let bytes = file.text.as_bytes();
    let mut depth = 0isize;
    for (i, &b) in bytes.iter().enumerate().take(body_end).skip(from) {
        if file.lexed.classes[i] != crate::lexer::Class::Code {
            continue;
        }
        match b {
            b'{' => depth += 1,
            b'}' => {
                depth -= 1;
                if depth < 0 {
                    return i;
                }
            }
            _ => {}
        }
    }
    body_end
}

fn skip_ws(file: &SourceFile, mut i: usize) -> usize {
    let bytes = file.text.as_bytes();
    while i < bytes.len()
        && (bytes[i].is_ascii_whitespace() || file.lexed.classes[i] != crate::lexer::Class::Code)
    {
        i += 1;
    }
    i
}

fn ident_byte(b: u8) -> bool {
    b.is_ascii_alphanumeric() || b == b'_'
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::SourceFile;

    fn model_of(files: &[(&str, &str)]) -> (Workspace, Vec<String>) {
        let ws = Workspace {
            root: std::path::PathBuf::from("/nonexistent"),
            files: files
                .iter()
                .map(|(p, t)| SourceFile::new(p.to_string(), t.to_string()))
                .collect(),
        };
        let names = {
            let model = Model::build(&ws);
            model.fns.iter().map(|f| f.name.clone()).collect()
        };
        (ws, names)
    }

    #[test]
    fn fn_definitions_and_deadline_params_are_indexed() {
        let text = "pub fn plain(x: u32) -> u32 { x }\n\
                    pub fn run_bounded(pool: &P, deadline: &Deadline) -> R { helper(deadline) }\n\
                    fn generic<F: Fn(&mut [u8]) + Send>(f: F) { f(&mut []) }\n";
        let ws = Workspace {
            root: std::path::PathBuf::from("/nonexistent"),
            files: vec![SourceFile::new(
                "crates/demo/src/lib.rs".to_string(),
                text.to_string(),
            )],
        };
        let model = Model::build(&ws);
        let names: Vec<&str> = model.fns.iter().map(|f| f.name.as_str()).collect();
        assert_eq!(names, vec!["plain", "run_bounded", "generic"]);
        assert_eq!(model.fns[0].deadline_param, None);
        assert_eq!(model.fns[1].deadline_param.as_deref(), Some("deadline"));
        assert!(model.fns[1].calls.iter().any(|c| c.name == "helper"));
    }

    #[test]
    fn lock_sets_propagate_through_the_call_graph() {
        let text = "use std::sync::{Mutex, MutexGuard};\n\
                    pub struct S { state: Mutex<u32> }\n\
                    impl S {\n\
                        fn lock(&self) -> MutexGuard<'_, u32> { lock_unpoisoned(&self.state) }\n\
                        pub fn outer(&self) { self.middle() }\n\
                        fn middle(&self) { let g = self.lock(); let _ = g; }\n\
                    }\n";
        let ws = Workspace {
            root: std::path::PathBuf::from("/nonexistent"),
            files: vec![SourceFile::new(
                "crates/demo/src/lib.rs".to_string(),
                text.to_string(),
            )],
        };
        let model = Model::build(&ws);
        let outer = model.fns.iter().position(|f| f.name == "outer").unwrap();
        assert!(
            model.may_acquire[outer].contains_key("demo/lib.state"),
            "{:?}",
            model.may_acquire[outer]
        );
        let middle = model.fns.iter().position(|f| f.name == "middle").unwrap();
        assert_eq!(model.fns[middle].acquires.len(), 1, "constructor call");
        assert_eq!(model.fns[middle].acquires[0].binding.as_deref(), Some("g"));
    }

    #[test]
    fn common_method_names_do_not_resolve_without_self() {
        let text = "use std::sync::{Mutex, MutexGuard};\n\
                    pub struct Q { inner: Mutex<Vec<u32>> }\n\
                    impl Q {\n\
                        pub fn len(&self) -> usize { lock_unpoisoned(&self.inner).len() }\n\
                        pub fn peek(&self) {\n\
                            let inner = lock_unpoisoned(&self.inner);\n\
                            let _n = inner.items.len();\n\
                        }\n\
                    }\n";
        let ws = Workspace {
            root: std::path::PathBuf::from("/nonexistent"),
            files: vec![SourceFile::new(
                "crates/demo/src/lib.rs".to_string(),
                text.to_string(),
            )],
        };
        let model = Model::build(&ws);
        let peek = model.fns.iter().position(|f| f.name == "peek").unwrap();
        // `inner.items.len()` must not resolve to `Q::len` — that would
        // fabricate a re-entrant self-deadlock.
        let len_call = model.fns[peek]
            .calls
            .iter()
            .find(|c| c.name == "len" && c.receiver.as_deref() == Some("inner.items"))
            .expect("call collected");
        assert_eq!(model.resolve(len_call, peek), None);
    }

    #[test]
    fn hold_ranges_respect_drop_and_blocks() {
        let text = "pub fn f(m: &M) {\n\
                    \x20   let g = lock_unpoisoned(&m.state);\n\
                    \x20   use_it(&g);\n\
                    \x20   drop(g);\n\
                    \x20   after();\n\
                    }\n\
                    pub fn scoped(m: &M) {\n\
                    \x20   { let g = lock_unpoisoned(&m.state); use_it(&g); }\n\
                    \x20   after();\n\
                    }\n";
        let ws = Workspace {
            root: std::path::PathBuf::from("/nonexistent"),
            files: vec![SourceFile::new(
                "crates/demo/src/lib.rs".to_string(),
                text.to_string(),
            )],
        };
        let model = Model::build(&ws);
        let f = &model.fns[0];
        let drop_at = ws.files[0].text.find("drop(g)").unwrap();
        assert_eq!(f.acquires.len(), 1);
        assert_eq!(f.acquires[0].hold.1, drop_at, "drop ends the hold");
        let scoped = &model.fns[1];
        let after_at = ws.files[0].text.rfind("after()").unwrap();
        assert!(
            scoped.acquires[0].hold.1 < after_at,
            "block scope ends the hold before after()"
        );
        let _ = model_of(&[]); // silence helper when unused elsewhere
    }
}
