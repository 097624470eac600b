//! Scope-aware tracking of live lock guards, shared by the lock-order and
//! lock-across-I/O rules.
//!
//! The model is the workspace's documented two-level protocol: directory /
//! table / root locks (level 1, a `.read()`/`.write()` whose receiver ends
//! in `dir`, `table` or `inner`) before other RwLocks (level 2) before
//! `.lock()` mutexes (level 3). A `let`-bound acquisition stays live until its enclosing
//! scope closes or an explicit `drop(name)`.

/// A lock guard live in the current scope.
pub struct Guard {
    pub depth: usize,
    pub level: u8,
    pub name: String,
    pub line: usize,
}

/// Lock level of an acquisition ending at byte offset `dot` (the `.` of
/// `.read()`/`.write()`): 1 for directory/table/root locks, 2 otherwise.
fn rwlock_level(code: &str, dot: usize) -> u8 {
    let ident: String = code[..dot]
        .chars()
        .rev()
        .take_while(|c| c.is_alphanumeric() || *c == '_')
        .collect();
    let ident: String = ident.chars().rev().collect();
    if ident == "dir" || ident == "table" || ident == "inner" {
        1
    } else {
        2
    }
}

/// Byte offsets and levels of every lock acquisition on a stripped line.
pub fn acquisitions(code: &str) -> Vec<(usize, u8)> {
    let mut out: Vec<(usize, u8)> = Vec::new();
    for pat in [".read()", ".write()"] {
        let mut from = 0;
        while let Some(off) = code[from..].find(pat) {
            let dot = from + off;
            out.push((dot, rwlock_level(code, dot)));
            from = dot + pat.len();
        }
    }
    let mut from = 0;
    while let Some(off) = code[from..].find(".lock()") {
        out.push((from + off, 3));
        from += off + ".lock()".len();
    }
    out.sort_unstable();
    out
}

/// Tracks brace depth and live guards across the lines of one file.
#[derive(Default)]
pub struct GuardTracker {
    pub depth: usize,
    pub guards: Vec<Guard>,
}

impl GuardTracker {
    /// Processes the acquisition/release effects of one stripped line.
    /// Call once per line, after the per-line checks that inspect
    /// `self.guards`, passing the acquisitions found on the line.
    pub fn observe(&mut self, code: &str, lineno: usize, acqs: &[(usize, u8)]) {
        // Explicit early release.
        if let Some(rest) = code.trim().strip_prefix("drop(") {
            if let Some(name) = rest.strip_suffix(");") {
                let name = name.trim();
                if let Some(pos) = self.guards.iter().rposition(|g| g.name == name) {
                    self.guards.remove(pos);
                }
            }
        }
        // A `let`-bound guard stays held until its scope closes or `drop`.
        let trimmed = code.trim();
        if let Some(rest) = trimmed.strip_prefix("let ") {
            let rest = rest.strip_prefix("mut ").unwrap_or(rest);
            let name: String = rest
                .chars()
                .take_while(|c| c.is_alphanumeric() || *c == '_')
                .collect();
            // Highest level on the line is what the binding ends up holding
            // (chained accesses through lower-level guards are transient).
            if let Some(&(_, level)) = acqs.iter().max_by_key(|&&(_, l)| l) {
                if !name.is_empty() {
                    self.guards.push(Guard {
                        depth: self.depth,
                        level,
                        name,
                        line: lineno,
                    });
                }
            }
        }
        // Brace accounting closes scopes and retires their guards.
        for c in code.chars() {
            match c {
                '{' => self.depth += 1,
                '}' => {
                    self.depth = self.depth.saturating_sub(1);
                    let depth = self.depth;
                    self.guards.retain(|g| g.depth <= depth);
                }
                _ => {}
            }
        }
    }
}
