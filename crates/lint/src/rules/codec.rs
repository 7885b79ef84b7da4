//! Rule `ANOR-CODEC`: wire-protocol structural invariants.
//!
//! The codec carries its version in per-message tags rather than a
//! connection handshake, so three properties are load-bearing:
//!
//! * decode tags are unique within each direction enum (a duplicated tag
//!   silently shadows a message kind),
//! * every tag an `encode` emits has a matching `decode` arm (a message
//!   that cannot round-trip is a protocol hole),
//! * every decode arm that reads payload bytes guards the read with a
//!   length check (`need(...)`/`remaining()` or a helper that does), and
//!   the decode match ends in a wildcard arm rejecting unknown tags.

use crate::config::Config;
use crate::diag::Diagnostic;
use crate::lexer::{Tok, TokKind};

pub const RULE: &str = "ANOR-CODEC";

pub fn check(path: &str, toks: &[Tok], test_mask: &[bool], cfg: &Config) -> Vec<Diagnostic> {
    if !cfg.is_codec_file(path) {
        return Vec::new();
    }
    let mut out = Vec::new();
    let safe_helpers = length_checked_fns(toks);
    // Walk `impl <Name> { ... }` blocks and pair up encode/decode.
    let mut i = 0usize;
    while i < toks.len() {
        if toks[i].is_ident("impl") && !test_mask.get(i).copied().unwrap_or(false) {
            let name = toks
                .get(i + 1)
                .filter(|t| t.kind == TokKind::Ident)
                .map(|t| t.text.clone())
                .unwrap_or_else(|| "<impl>".to_string());
            if let Some((body_start, body_end)) = block_after(toks, i) {
                check_impl(
                    path,
                    &name,
                    &toks[body_start..body_end],
                    &safe_helpers,
                    &mut out,
                );
                i = body_end;
                continue;
            }
        }
        i += 1;
    }
    out
}

fn check_impl(
    path: &str,
    enum_name: &str,
    body: &[Tok],
    safe_helpers: &[String],
    out: &mut Vec<Diagnostic>,
) {
    let encode = fn_block(body, "encode");
    let decode = fn_block(body, "decode");
    let (Some(encode), Some(decode)) = (encode, decode) else {
        return; // Not a codec impl.
    };

    // Encode tags: literal arguments to `put_u8`.
    let mut encode_tags: Vec<(u64, u32)> = Vec::new();
    for (j, t) in encode.iter().enumerate() {
        if t.is_ident("put_u8") && encode.get(j + 1).is_some_and(|n| n.is_punct('(')) {
            if let Some(num) = encode.get(j + 2).filter(|n| n.kind == TokKind::Num) {
                if let Ok(v) = parse_int(&num.text) {
                    encode_tags.push((v, num.line));
                }
            }
        }
    }

    // Decode tags: numeric match-arm patterns `N =>`.
    let mut decode_tags: Vec<(u64, u32, usize)> = Vec::new();
    let mut has_wildcard = false;
    for (j, t) in decode.iter().enumerate() {
        let arrow = decode.get(j + 1).is_some_and(|n| n.is_punct('='))
            && decode.get(j + 2).is_some_and(|n| n.is_punct('>'));
        if !arrow {
            continue;
        }
        match t.kind {
            TokKind::Num => {
                if let Ok(v) = parse_int(&t.text) {
                    decode_tags.push((v, t.line, j));
                }
            }
            // `t => Err(...)` — a wildcard/binding arm. `_` lexes as an
            // identifier too.
            TokKind::Ident if !t.is_ident("Ok") && !t.is_ident("Err") => has_wildcard = true,
            _ => {}
        }
    }

    // Tag uniqueness, both directions of the table.
    for (idx, (tag, line, _)) in decode_tags.iter().enumerate() {
        if decode_tags[..idx].iter().any(|(t, _, _)| t == tag) {
            out.push(Diagnostic::new(
                RULE,
                path,
                *line,
                format!("duplicate decode tag {tag} in `{enum_name}::decode`"),
                "every wire tag must map to exactly one message shape; pick a fresh \
                 tag for new codec versions",
                format!("{tag} =>"),
            ));
        }
    }
    for (idx, (tag, line)) in encode_tags.iter().enumerate() {
        if encode_tags[..idx].iter().any(|(t, _)| t == tag) {
            out.push(Diagnostic::new(
                RULE,
                path,
                *line,
                format!("duplicate encode tag {tag} in `{enum_name}::encode`"),
                "two variants encoding the same tag cannot be told apart on decode",
                format!("put_u8({tag})"),
            ));
        }
    }

    // Every encoded tag decodes.
    for (tag, line) in &encode_tags {
        if !decode_tags.iter().any(|(t, _, _)| t == tag) {
            out.push(Diagnostic::new(
                RULE,
                path,
                *line,
                format!("`{enum_name}` encodes tag {tag} but `decode` has no arm for it"),
                "add a decode arm (every tag an encoder emits must round-trip)",
                format!("put_u8({tag})"),
            ));
        }
    }

    // Each decode arm that reads payload bytes must be length-guarded.
    for (arm_idx, (tag, line, start)) in decode_tags.iter().enumerate() {
        let end = decode_tags
            .get(arm_idx + 1)
            .map(|(_, _, s)| *s)
            .unwrap_or(decode.len());
        let arm = &decode[*start..end];
        let reads = arm
            .iter()
            .any(|t| t.kind == TokKind::Ident && t.text.starts_with("get_"));
        if !reads {
            continue;
        }
        let guarded = arm.iter().any(|t| {
            t.is_ident("need")
                || t.is_ident("remaining")
                || safe_helpers.iter().any(|h| t.is_ident(h))
        });
        if !guarded {
            out.push(Diagnostic::new(
                RULE,
                path,
                *line,
                format!(
                    "decode arm for tag {tag} in `{enum_name}::decode` reads payload \
                     bytes without a length guard"
                ),
                "call `need(&body, n, ..)?` (or check `remaining()`) before reading; a \
                 truncated frame must produce a protocol error, not a panic",
                format!("{tag} =>"),
            ));
        }
    }

    if !has_wildcard {
        out.push(Diagnostic::new(
            RULE,
            path,
            decode.first().map(|t| t.line).unwrap_or(0),
            format!("`{enum_name}::decode` has no wildcard arm rejecting unknown tags"),
            "end the tag match with `t => Err(...)` so future tags degrade cleanly",
            "match".to_string(),
        ));
    }
}

/// Names of free functions whose bodies contain a length check — calling
/// one of these counts as guarding the read (`get_string`, `get_curve`).
fn length_checked_fns(toks: &[Tok]) -> Vec<String> {
    let mut out = Vec::new();
    let mut i = 0usize;
    while i < toks.len() {
        if toks[i].is_ident("fn") {
            if let Some(name) = toks.get(i + 1).filter(|t| t.kind == TokKind::Ident) {
                if name.text != "encode" && name.text != "decode" {
                    if let Some((s, e)) = block_after(toks, i) {
                        if toks[s..e]
                            .iter()
                            .any(|t| t.is_ident("need") || t.is_ident("remaining"))
                        {
                            out.push(name.text.clone());
                        }
                        i = e;
                        continue;
                    }
                }
            }
        }
        i += 1;
    }
    out
}

/// Token range of the body of `fn <name>` inside `body` (exclusive of the
/// outer braces).
fn fn_block<'a>(body: &'a [Tok], name: &str) -> Option<&'a [Tok]> {
    let mut i = 0usize;
    while i < body.len() {
        if body[i].is_ident("fn") && body.get(i + 1).is_some_and(|t| t.is_ident(name)) {
            let (s, e) = block_after(body, i)?;
            return Some(&body[s..e]);
        }
        i += 1;
    }
    None
}

/// Find the `{ ... }` block that follows position `i`, returning the
/// token range strictly inside the braces.
fn block_after(toks: &[Tok], i: usize) -> Option<(usize, usize)> {
    let mut j = i;
    while j < toks.len() && !toks[j].is_punct('{') {
        // Give up if we run into a `;` first (e.g. a trait method decl).
        if toks[j].is_punct(';') {
            return None;
        }
        j += 1;
    }
    if j >= toks.len() {
        return None;
    }
    let start = j + 1;
    let mut depth = 1i32;
    let mut k = start;
    while k < toks.len() {
        if toks[k].is_punct('{') {
            depth += 1;
        } else if toks[k].is_punct('}') {
            depth -= 1;
            if depth == 0 {
                return Some((start, k));
            }
        }
        k += 1;
    }
    None
}

/// Parse the leading digit run of a numeric literal (`5`, `5u8`, `1_0`).
fn parse_int(text: &str) -> Result<u64, std::num::ParseIntError> {
    let digits: String = text
        .chars()
        .filter(|c| *c != '_')
        .take_while(|c| c.is_ascii_digit())
        .collect();
    digits.parse()
}
