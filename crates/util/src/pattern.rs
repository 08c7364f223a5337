//! A scanf-style pattern matcher.
//!
//! JUBE extracts result metrics from benchmark output with user-declared
//! patterns. The original uses Python regular expressions; this workspace
//! uses a deliberately small pattern language that covers every pattern the
//! knowledge cycle needs while staying dependency-free and fast (a single
//! left-to-right pass, no backtracking blowup):
//!
//! * literal text matches itself (leading/trailing whitespace-insensitive
//!   runs: any whitespace in the pattern matches one-or-more whitespace
//!   characters in the input);
//! * `{name}` captures a whitespace-delimited token;
//! * `{name:f}` captures a floating point number;
//! * `{name:d}` captures a decimal integer;
//! * `{name:*}` captures lazily up to the next literal (like `(.*?)`);
//! * `{}` skips a token without capturing.
//!
//! Example: `"Max Write: {bw:f} MiB/sec"` applied to an IOR summary line.

use std::collections::BTreeMap;
use std::fmt;

/// A compiled pattern.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Pattern {
    parts: Vec<Part>,
    anchored_start: bool,
    anchored_end: bool,
}

#[derive(Debug, Clone, PartialEq, Eq)]
enum Part {
    /// Literal text; whitespace inside matches one-or-more whitespace.
    Lit(Vec<LitAtom>),
    /// A capture group.
    Cap { name: Option<String>, kind: CapKind },
}

#[derive(Debug, Clone, PartialEq, Eq)]
enum LitAtom {
    Text(String),
    Space,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum CapKind {
    Token,
    Float,
    Int,
    Lazy,
}

/// Error compiling a pattern string.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PatternError(pub String);

impl fmt::Display for PatternError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid pattern: {}", self.0)
    }
}

impl std::error::Error for PatternError {}

/// Captured values from a successful match, keyed by capture name.
pub type Captures = BTreeMap<String, String>;

impl Pattern {
    /// Compile a pattern string. By default the pattern may match anywhere
    /// in a line (unanchored); prefix with `^` or suffix with `$` to anchor.
    pub fn compile(source: &str) -> Result<Pattern, PatternError> {
        let mut src = source;
        let anchored_start = src.starts_with('^');
        if anchored_start {
            src = &src[1..];
        }
        let anchored_end = src.ends_with('$') && !src.ends_with("\\$");
        if anchored_end {
            src = &src[..src.len() - 1];
        }
        let mut parts = Vec::new();
        let mut lit = Vec::new();
        let mut chars = src.chars().peekable();
        while let Some(c) = chars.next() {
            match c {
                '{' => {
                    let mut spec = String::new();
                    let mut closed = false;
                    for c in chars.by_ref() {
                        if c == '}' {
                            closed = true;
                            break;
                        }
                        spec.push(c);
                    }
                    if !closed {
                        return Err(PatternError(format!("unclosed '{{' in `{source}`")));
                    }
                    flush_lit(&mut parts, &mut lit);
                    let (name, kind) = match spec.split_once(':') {
                        Some((name, "f")) => (name, CapKind::Float),
                        Some((name, "d")) => (name, CapKind::Int),
                        Some((name, "*")) => (name, CapKind::Lazy),
                        Some((_, other)) => {
                            return Err(PatternError(format!(
                                "unknown capture kind `{other}` in `{source}`"
                            )))
                        }
                        None => (spec.as_str(), CapKind::Token),
                    };
                    let name = if name.is_empty() {
                        None
                    } else {
                        Some(name.to_owned())
                    };
                    parts.push(Part::Cap { name, kind });
                }
                '\\' => {
                    let escaped = chars
                        .next()
                        .ok_or_else(|| PatternError(format!("dangling escape in `{source}`")))?;
                    push_text(&mut lit, escaped);
                }
                c if c.is_whitespace() => {
                    if !matches!(lit.last(), Some(LitAtom::Space)) {
                        lit.push(LitAtom::Space);
                    }
                }
                c => push_text(&mut lit, c),
            }
        }
        flush_lit(&mut parts, &mut lit);
        if parts.is_empty() {
            return Err(PatternError("empty pattern".into()));
        }
        Ok(Pattern {
            parts,
            anchored_start,
            anchored_end,
        })
    }

    /// Attempt to match this pattern against `input`, returning captures on
    /// success. For unanchored patterns the match may begin at any position.
    #[must_use]
    pub fn captures(&self, input: &str) -> Option<Captures> {
        if self.anchored_start {
            return self.match_at(input, 0);
        }
        // Try every start offset; patterns begin with literals in practice,
        // so use the first literal text (if any) to jump between candidates:
        // an offset it skips would fail that literal anyway.
        let first = match self.parts.first() {
            Some(Part::Lit(atoms)) => match atoms.first() {
                Some(LitAtom::Text(text)) => Some(text.as_str()),
                _ => None,
            },
            _ => None,
        };
        let mut start = 0;
        loop {
            if let Some(text) = first {
                start += input[start..].find(text)?;
            }
            if let Some(caps) = self.match_at(input, start) {
                return Some(caps);
            }
            start = next_char_boundary(input, start)?;
        }
    }

    /// [`Pattern::captures`] without the jump: `match_at` at every char
    /// boundary — the model the jump is tested against.
    #[cfg(test)]
    fn captures_scanning(&self, input: &str) -> Option<Captures> {
        if self.anchored_start {
            return self.match_at(input, 0);
        }
        let mut start = 0;
        loop {
            if let Some(caps) = self.match_at(input, start) {
                return Some(caps);
            }
            start = next_char_boundary(input, start)?;
        }
    }

    /// Scan a multi-line text and return captures from the first matching line.
    #[must_use]
    pub fn first_match(&self, text: &str) -> Option<(usize, Captures)> {
        text.lines()
            .enumerate()
            .find_map(|(i, line)| self.captures(line).map(|c| (i, c)))
    }

    /// Scan a multi-line text and return captures from every matching line.
    #[must_use]
    pub fn all_matches(&self, text: &str) -> Vec<Captures> {
        text.lines()
            .filter_map(|line| self.captures(line))
            .collect()
    }

    fn match_at(&self, input: &str, start: usize) -> Option<Captures> {
        let mut caps = Captures::new();
        let mut pos = start;
        let bytes = input.as_bytes();
        let mut i = 0;
        while i < self.parts.len() {
            match &self.parts[i] {
                Part::Lit(atoms) => {
                    pos = match_lit(input, pos, atoms)?;
                }
                Part::Cap { name, kind } => {
                    let (value, end) = match kind {
                        CapKind::Token => {
                            let tok_start = skip_spaces(bytes, pos);
                            let mut end = tok_start;
                            while end < bytes.len() && !bytes[end].is_ascii_whitespace() {
                                end += 1;
                            }
                            if end == tok_start {
                                return None;
                            }
                            (&input[tok_start..end], end)
                        }
                        CapKind::Float => {
                            let num_start = skip_spaces(bytes, pos);
                            let end = scan_float(bytes, num_start)?;
                            (&input[num_start..end], end)
                        }
                        CapKind::Int => {
                            let num_start = skip_spaces(bytes, pos);
                            let end = scan_int(bytes, num_start)?;
                            (&input[num_start..end], end)
                        }
                        CapKind::Lazy => {
                            // Lazily match up to wherever the remainder of
                            // the pattern first succeeds.
                            let rest = Pattern {
                                parts: self.parts[i + 1..].to_vec(),
                                anchored_start: true,
                                anchored_end: self.anchored_end,
                            };
                            if rest.parts.is_empty() {
                                let end = input.len();
                                (&input[pos..end], end)
                            } else {
                                let mut cut = pos;
                                loop {
                                    if let Some(rest_caps) = rest.match_at(input, cut) {
                                        if let Some(name) = name {
                                            caps.insert(name.clone(), input[pos..cut].to_owned());
                                        }
                                        caps.extend(rest_caps);
                                        return Some(caps);
                                    }
                                    cut = next_char_boundary(input, cut)?;
                                }
                            }
                        }
                    };
                    if let Some(name) = name {
                        caps.insert(name.clone(), value.to_owned());
                    }
                    pos = end;
                }
            }
            i += 1;
        }
        if self.anchored_end && input[pos..].trim().is_empty() {
            Some(caps)
        } else if self.anchored_end {
            None
        } else {
            Some(caps)
        }
    }
}

fn push_text(lit: &mut Vec<LitAtom>, c: char) {
    if let Some(LitAtom::Text(text)) = lit.last_mut() {
        text.push(c);
    } else {
        lit.push(LitAtom::Text(c.to_string()));
    }
}

fn flush_lit(parts: &mut Vec<Part>, lit: &mut Vec<LitAtom>) {
    if !lit.is_empty() {
        parts.push(Part::Lit(std::mem::take(lit)));
    }
}

fn next_char_boundary(input: &str, pos: usize) -> Option<usize> {
    if pos >= input.len() {
        return None;
    }
    let mut next = pos + 1;
    while next < input.len() && !input.is_char_boundary(next) {
        next += 1;
    }
    Some(next)
}

fn skip_spaces(bytes: &[u8], mut pos: usize) -> usize {
    while pos < bytes.len() && bytes[pos].is_ascii_whitespace() {
        pos += 1;
    }
    pos
}

fn match_lit(input: &str, mut pos: usize, atoms: &[LitAtom]) -> Option<usize> {
    let bytes = input.as_bytes();
    for atom in atoms {
        match atom {
            LitAtom::Text(text) => {
                if input[pos..].starts_with(text.as_str()) {
                    pos += text.len();
                } else {
                    return None;
                }
            }
            LitAtom::Space => {
                let end = skip_spaces(bytes, pos);
                if end == pos {
                    return None;
                }
                pos = end;
            }
        }
    }
    Some(pos)
}

fn scan_float(bytes: &[u8], start: usize) -> Option<usize> {
    let mut pos = start;
    if pos < bytes.len() && (bytes[pos] == b'-' || bytes[pos] == b'+') {
        pos += 1;
    }
    let digits_start = pos;
    while pos < bytes.len() && bytes[pos].is_ascii_digit() {
        pos += 1;
    }
    if pos < bytes.len() && bytes[pos] == b'.' {
        pos += 1;
        while pos < bytes.len() && bytes[pos].is_ascii_digit() {
            pos += 1;
        }
    }
    if pos == digits_start {
        return None;
    }
    if pos < bytes.len() && (bytes[pos] == b'e' || bytes[pos] == b'E') {
        let mut exp = pos + 1;
        if exp < bytes.len() && (bytes[exp] == b'-' || bytes[exp] == b'+') {
            exp += 1;
        }
        let exp_digits = exp;
        while exp < bytes.len() && bytes[exp].is_ascii_digit() {
            exp += 1;
        }
        if exp > exp_digits {
            pos = exp;
        }
    }
    Some(pos)
}

fn scan_int(bytes: &[u8], start: usize) -> Option<usize> {
    let mut pos = start;
    if pos < bytes.len() && (bytes[pos] == b'-' || bytes[pos] == b'+') {
        pos += 1;
    }
    let digits_start = pos;
    while pos < bytes.len() && bytes[pos].is_ascii_digit() {
        pos += 1;
    }
    (pos > digits_start).then_some(pos)
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;

    #[test]
    fn literal_and_float() {
        let p = Pattern::compile("Max Write: {bw:f} MiB/sec").unwrap();
        let caps = p
            .captures("Max Write: 2850.25 MiB/sec (2988.97 MB/sec)")
            .unwrap();
        assert_eq!(caps["bw"], "2850.25");
    }

    #[test]
    fn token_capture() {
        let p = Pattern::compile("api = {api}").unwrap();
        let caps = p.captures("  api = MPIIO ").unwrap();
        assert_eq!(caps["api"], "MPIIO");
    }

    #[test]
    fn int_capture_rejects_float_context() {
        let p = Pattern::compile("^iters: {n:d}$").unwrap();
        assert_eq!(p.captures("iters: 6").unwrap()["n"], "6");
        assert!(p.captures("iters: 6.5").is_none());
    }

    #[test]
    fn lazy_capture() {
        let p = Pattern::compile("Command line used: {cmd:*}$").unwrap();
        let caps = p.captures("Command line used: ior -a mpiio -b 4m").unwrap();
        assert_eq!(caps["cmd"], "ior -a mpiio -b 4m");
    }

    #[test]
    fn lazy_capture_with_tail() {
        let p = Pattern::compile("[{tag:*}] score = {s:f}").unwrap();
        let caps = p.captures("[RESULT] score = 1.25").unwrap();
        assert_eq!(caps["tag"], "RESULT");
        assert_eq!(caps["s"], "1.25");
    }

    #[test]
    fn whitespace_in_pattern_is_flexible() {
        let p = Pattern::compile("write {bw:f} {iops:f}").unwrap();
        let caps = p.captures("write     2850.12      1425.06").unwrap();
        assert_eq!(caps["bw"], "2850.12");
        assert_eq!(caps["iops"], "1425.06");
    }

    #[test]
    fn unanchored_matches_mid_line() {
        let p = Pattern::compile("bw={bw:f}").unwrap();
        assert_eq!(p.captures("result: bw=12.5 end").unwrap()["bw"], "12.5");
    }

    #[test]
    fn anchors_enforced() {
        let anchored = Pattern::compile("^hello {x:d}$").unwrap();
        assert!(anchored.captures("hello 5").is_some());
        assert!(anchored.captures("say hello 5").is_none());
        assert!(anchored.captures("hello 5 more").is_none());
    }

    #[test]
    fn skip_capture_unnamed() {
        let p = Pattern::compile("{} {} {third}").unwrap();
        let caps = p.captures("a b c").unwrap();
        assert_eq!(caps.len(), 1);
        assert_eq!(caps["third"], "c");
    }

    #[test]
    fn escaped_brace() {
        let p = Pattern::compile(r"\{literal\}").unwrap();
        assert!(p.captures("{literal}").is_some());
    }

    #[test]
    fn compile_errors() {
        assert!(Pattern::compile("").is_err());
        assert!(Pattern::compile("{unclosed").is_err());
        assert!(Pattern::compile("{x:q}").is_err());
    }

    #[test]
    fn negative_and_scientific_floats() {
        let p = Pattern::compile("v={v:f}").unwrap();
        assert_eq!(p.captures("v=-3.5e-2").unwrap()["v"], "-3.5e-2");
        assert_eq!(p.captures("v=42").unwrap()["v"], "42");
    }

    #[test]
    fn all_matches_scans_lines() {
        let p = Pattern::compile("read {bw:f}").unwrap();
        let text = "read 1.0\nwrite 2.0\nread 3.0\n";
        let hits = p.all_matches(text);
        assert_eq!(hits.len(), 2);
        assert_eq!(hits[1]["bw"], "3.0");
    }

    mod prop {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(256))]
            #[test]
            fn compile_never_panics(source in ".{0,40}") {
                let _ = Pattern::compile(&source);
            }

            #[test]
            fn matching_never_panics(
                source in "[a-zA-Z0-9 {}:*.$^-]{1,30}",
                input in ".{0,60}",
            ) {
                if let Ok(pattern) = Pattern::compile(&source) {
                    let _ = pattern.captures(&input);
                    let _ = pattern.all_matches(&input);
                }
            }

            #[test]
            fn float_captures_parse(value in -1e9f64..1e9) {
                let text = format!("bw = {value} MiB/s");
                let p = Pattern::compile("bw = {v:f} MiB/s").unwrap();
                let caps = p.captures(&text).unwrap();
                let parsed: f64 = caps["v"].parse().unwrap();
                prop_assert!((parsed - value).abs() <= value.abs() * 1e-12 + 1e-9);
            }

            /// Jumping to the first literal's occurrences finds what
            /// trying every offset finds, whatever the pattern starts with
            /// (text, a capture, whitespace) and over multi-byte input in
            /// which the pattern's literals occur several times.
            #[test]
            fn the_literal_jump_equals_the_exhaustive_scan(
                anchors in (any::<bool>(), any::<bool>()),
                pieces in proptest::collection::vec(
                    prop_oneof![
                        "[xé€:=.-]{1,2}",
                        Just(" ".to_owned()),
                        Just("{a}".to_owned()),
                        Just("{b:f}".to_owned()),
                        Just("{c:d}".to_owned()),
                        Just("{d:*}".to_owned()),
                        Just("{}".to_owned()),
                    ],
                    1..5,
                ),
                chunks in proptest::collection::vec((0usize..8, "[ xé€:=.0-9a-z-]{0,3}"), 0..12),
            ) {
                let (start, end) = anchors;
                let source = format!(
                    "{}{}{}",
                    if start { "^" } else { "" },
                    pieces.concat(),
                    if end { "$" } else { "" },
                );
                // Each chunk of the input follows one of the pattern's
                // literal pieces, so candidates recur.
                let input: String = chunks
                    .iter()
                    .map(|(i, text)| {
                        let piece = &pieces[i % pieces.len()];
                        let literal = if piece.starts_with('{') { "" } else { piece };
                        format!("{literal}{text}")
                    })
                    .collect();
                if let Ok(pattern) = Pattern::compile(&source) {
                    prop_assert_eq!(pattern.captures(&input), pattern.captures_scanning(&input));
                }
            }

            #[test]
            fn token_capture_recovers_token(token in "[a-zA-Z0-9_/.-]{1,20}") {
                let text = format!("api = {token} trailing");
                let p = Pattern::compile("api = {t}").unwrap();
                let caps = p.captures(&text).unwrap();
                prop_assert_eq!(&caps["t"], &token);
            }
        }
    }
}
