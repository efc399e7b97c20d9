//! Minimal hand-rolled JSON string escaping, shared by every artifact
//! writer in the workspace.
//!
//! The repo deliberately carries no serde dependency; each crate that
//! renders JSON (bench artifacts, serve metrics, explore summaries, the
//! chrome-trace exporter in `cusync-obs`) hand-writes its document
//! structure and only needs one thing done right: string escaping. This
//! module is that one thing, factored out of the three divergent copies
//! that used to live in `serve::metrics`, `bench::perf`, and
//! `sim::explore`.

/// Escapes `s` for inclusion inside a double-quoted JSON string literal.
///
/// Handles the two mandatory escapes (`"` and `\`), the common control
/// characters (`\n`, `\r`, `\t`) by name, and every remaining C0 control
/// character as a `\u00XX` escape, so the output is valid JSON for any
/// Rust string.
///
/// ```
/// use cusync_sim::json_escape;
/// assert_eq!(json_escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
/// assert_eq!(json_escape("bell\u{7}"), "bell\\u0007");
/// ```
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    json_escape_into(&mut out, s);
    out
}

/// Appends `s` to `out`, escaped exactly as [`json_escape`] does, without
/// allocating: runs that need no escape are copied in one piece.
///
/// ```
/// use cusync_sim::json_escape_into;
/// let mut out = String::from("\"name\":\"");
/// json_escape_into(&mut out, "tab\there \"q\" \u{1}");
/// out.push('"');
/// assert_eq!(out, "\"name\":\"tab\\there \\\"q\\\" \\u0001\"");
/// ```
pub fn json_escape_into(out: &mut String, s: &str) {
    const HEX: &[u8; 16] = b"0123456789abcdef";
    let mut run = 0;
    for (i, &b) in s.as_bytes().iter().enumerate() {
        if b >= 0x20 && b != b'"' && b != b'\\' {
            continue;
        }
        // Every byte that needs escaping is ASCII, so `run..i` and the
        // rest of `s` stay on char boundaries.
        out.push_str(&s[run..i]);
        run = i + 1;
        match b {
            b'"' => out.push_str("\\\""),
            b'\\' => out.push_str("\\\\"),
            b'\n' => out.push_str("\\n"),
            b'\r' => out.push_str("\\r"),
            b'\t' => out.push_str("\\t"),
            _ => {
                out.push_str("\\u00");
                out.push(HEX[usize::from(b >> 4)] as char);
                out.push(HEX[usize::from(b & 0xf)] as char);
            }
        }
    }
    out.push_str(&s[run..]);
}

#[cfg(test)]
mod tests {
    use super::{json_escape, json_escape_into};

    #[test]
    fn passthrough_is_identity() {
        assert_eq!(json_escape("plain ascii 123"), "plain ascii 123");
        assert_eq!(json_escape("unicode: é λ 🚀"), "unicode: é λ 🚀");
    }

    #[test]
    fn mandatory_and_named_escapes() {
        assert_eq!(json_escape("\"quoted\""), "\\\"quoted\\\"");
        assert_eq!(json_escape("back\\slash"), "back\\\\slash");
        assert_eq!(json_escape("a\nb\rc\td"), "a\\nb\\rc\\td");
    }

    #[test]
    fn control_characters_become_unicode_escapes() {
        assert_eq!(json_escape("\u{0}\u{1}\u{1f}"), "\\u0000\\u0001\\u001f");
    }

    #[test]
    fn escape_into_appends_to_existing_text() {
        let mut out = String::from("k:");
        json_escape_into(&mut out, "é\"λ\u{7f}\u{1b}🚀");
        assert_eq!(out, "k:é\\\"λ\u{7f}\\u001b🚀");
        json_escape_into(&mut out, "");
        assert_eq!(out, "k:é\\\"λ\u{7f}\\u001b🚀");
    }
}
