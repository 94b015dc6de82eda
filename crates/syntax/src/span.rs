//! Source spans and the byte-offset → line:column index.

use std::fmt;
use std::hash::{Hash, Hasher};

/// A source region: byte offsets plus the 1-based line of the start.
///
/// Spans are provenance, not content: [`Hash`] ignores them, so a
/// derived hash of a tree that carries spans (the SSA IR, annotation
/// types) identifies its structure, and a comment-only edit that moves
/// every span leaves it unchanged. Equality still compares positions.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct Span {
    /// Start byte offset.
    pub lo: u32,
    /// End byte offset (exclusive).
    pub hi: u32,
    /// 1-based line number of `lo`.
    pub line: u32,
}

impl Hash for Span {
    fn hash<H: Hasher>(&self, _: &mut H) {}
}

impl Span {
    /// A span covering both inputs. The `line` stays paired with
    /// whichever input actually contributes the minimal `lo` (min'ing
    /// `lo` and `line` independently can disagree when joining
    /// out-of-order spans).
    pub fn to(self, other: Span) -> Span {
        let (lo, line) = if self.lo <= other.lo {
            (self.lo, self.line)
        } else {
            (other.lo, other.line)
        };
        Span {
            lo,
            hi: self.hi.max(other.hi),
            line,
        }
    }

    /// A zero-width dummy span.
    pub fn dummy() -> Span {
        Span::default()
    }

    /// True for the zero-width dummy span (no source region attached).
    pub fn is_dummy(&self) -> bool {
        *self == Span::default()
    }
}

impl fmt::Display for Span {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "line {}", self.line)
    }
}

/// A resolved source position: 1-based line and 1-based column, where
/// columns count Unicode scalar values (not bytes), so multi-byte UTF-8
/// text renders sensible caret positions.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct LineCol {
    /// 1-based line number.
    pub line: u32,
    /// 1-based column number, in characters.
    pub col: u32,
}

/// Maps byte offsets to line/column positions for one source text.
///
/// Built once per file (O(n)); each lookup is a binary search over the
/// recorded line starts plus a character count within the line. Offsets
/// that land inside a multi-byte UTF-8 sequence or past the end of the
/// text are clamped instead of panicking, so stale or synthetic spans
/// can never crash a renderer.
#[derive(Clone, Debug)]
pub struct LineIndex {
    /// Byte offset of the first byte of each line (line 1 starts at 0).
    line_starts: Vec<u32>,
    /// Total length of the indexed text, in bytes.
    len: u32,
}

impl LineIndex {
    /// Indexes `src`. Lines are terminated by `\n`; a `\r\n` sequence
    /// counts as one terminator (the `\r` never appears in a column
    /// count because columns stop at the offset, and offsets inside the
    /// terminator clamp to the line end).
    pub fn new(src: &str) -> LineIndex {
        let mut line_starts = vec![0u32];
        for (i, b) in src.bytes().enumerate() {
            if b == b'\n' {
                line_starts.push(i as u32 + 1);
            }
        }
        LineIndex {
            line_starts,
            len: src.len() as u32,
        }
    }

    /// Number of lines in the indexed text (≥ 1 even for "").
    pub fn num_lines(&self) -> usize {
        self.line_starts.len()
    }

    /// The line/column of a byte offset. `src` must be the text this
    /// index was built from. Offsets past the end clamp to the final
    /// position; offsets inside a multi-byte character clamp to that
    /// character's column.
    pub fn line_col(&self, src: &str, offset: u32) -> LineCol {
        self.line_col_by(src, offset, |_| 1)
    }

    /// Like [`LineIndex::line_col`], but the column counts **UTF-16
    /// code units** instead of characters — the Language Server
    /// Protocol's default position encoding. Astral-plane characters
    /// (4 UTF-8 bytes) count as two columns here and one in
    /// `line_col`; clamping behavior is identical.
    pub fn line_col_utf16(&self, src: &str, offset: u32) -> LineCol {
        self.line_col_by(src, offset, |c| c.len_utf16() as u32)
    }

    /// Shared position lookup: binary-search the line, then walk its
    /// characters accumulating `width` per character strictly before
    /// the offset. One copy of the clamping rules (line terminators,
    /// mid-character offsets, EOF) serves both column encodings.
    fn line_col_by(&self, src: &str, offset: u32, width: impl Fn(char) -> u32) -> LineCol {
        let offset = offset.min(self.len);
        let line_idx = match self.line_starts.binary_search(&offset) {
            Ok(i) => i,
            Err(i) => i - 1,
        };
        let start = self.line_starts[line_idx] as usize;
        let target = offset as usize;
        let mut col = 1u32;
        for (i, c) in src[start..].char_indices() {
            if start + i >= target {
                break;
            }
            // Stop counting at the line terminator: offsets inside a
            // `\r\n` clamp to the end-of-line column.
            if c == '\n' || c == '\r' {
                break;
            }
            // An offset inside this character's bytes clamps to the
            // character's own column.
            if start + i + c.len_utf8() > target {
                break;
            }
            col += width(c);
        }
        LineCol {
            line: line_idx as u32 + 1,
            col,
        }
    }

    /// The text of the 1-based `line` (without its terminator), for
    /// source excerpts. Returns `None` for out-of-range lines.
    pub fn line_text<'a>(&self, src: &'a str, line: u32) -> Option<&'a str> {
        let idx = (line as usize).checked_sub(1)?;
        let start = *self.line_starts.get(idx)? as usize;
        let end = self
            .line_starts
            .get(idx + 1)
            .map(|&e| e as usize)
            .unwrap_or(src.len());
        Some(src[start..end].trim_end_matches(['\n', '\r']))
    }

    /// Renders a span as `line:col-line:col` (or `line:col` when it is
    /// zero-width).
    pub fn render_range(&self, src: &str, span: Span) -> String {
        let a = self.line_col(src, span.lo);
        let b = self.line_col(src, span.hi);
        if a == b {
            format!("{}:{}", a.line, a.col)
        } else {
            format!("{}:{}-{}:{}", a.line, a.col, b.line, b.col)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn to_keeps_line_paired_with_minimal_lo() {
        // Joining out-of-order spans: the second span starts earlier, so
        // the joined span must take *its* line, not the minimum of both
        // lines with the minimum lo.
        let later = Span {
            lo: 50,
            hi: 55,
            line: 9,
        };
        let earlier = Span {
            lo: 10,
            hi: 12,
            line: 3,
        };
        let j = later.to(earlier);
        assert_eq!((j.lo, j.hi, j.line), (10, 55, 3));
        // And symmetrically.
        let j2 = earlier.to(later);
        assert_eq!((j2.lo, j2.hi, j2.line), (10, 55, 3));
    }

    #[test]
    fn to_in_order_unchanged() {
        let a = Span {
            lo: 0,
            hi: 4,
            line: 1,
        };
        let b = Span {
            lo: 6,
            hi: 9,
            line: 2,
        };
        assert_eq!(
            a.to(b),
            Span {
                lo: 0,
                hi: 9,
                line: 1
            }
        );
    }

    #[test]
    fn dummy_detection() {
        assert!(Span::dummy().is_dummy());
        assert!(!Span {
            lo: 0,
            hi: 1,
            line: 1
        }
        .is_dummy());
    }

    #[test]
    fn line_index_basic() {
        let src = "ab\ncde\nf";
        let idx = LineIndex::new(src);
        assert_eq!(idx.num_lines(), 3);
        assert_eq!(idx.line_col(src, 0), LineCol { line: 1, col: 1 });
        assert_eq!(idx.line_col(src, 1), LineCol { line: 1, col: 2 });
        assert_eq!(idx.line_col(src, 3), LineCol { line: 2, col: 1 });
        assert_eq!(idx.line_col(src, 5), LineCol { line: 2, col: 3 });
        assert_eq!(idx.line_col(src, 7), LineCol { line: 3, col: 1 });
        assert_eq!(idx.line_text(src, 2), Some("cde"));
    }

    #[test]
    fn line_index_crlf() {
        let src = "ab\r\ncd\r\n";
        let idx = LineIndex::new(src);
        assert_eq!(idx.num_lines(), 3);
        // Offset of the `\r` clamps to the end-of-line column.
        assert_eq!(idx.line_col(src, 2), LineCol { line: 1, col: 3 });
        // The byte after `\n` starts the next line at column 1.
        assert_eq!(idx.line_col(src, 4), LineCol { line: 2, col: 1 });
        assert_eq!(idx.line_text(src, 1), Some("ab"));
        assert_eq!(idx.line_text(src, 2), Some("cd"));
    }

    #[test]
    fn line_index_multibyte_utf8() {
        // 'é' is 2 bytes, '↑' is 3 bytes, '𝕩' is 4 bytes.
        let src = "é↑𝕩x\nz";
        let idx = LineIndex::new(src);
        assert_eq!(idx.line_col(src, 0), LineCol { line: 1, col: 1 });
        // After 'é' (2 bytes): column 2.
        assert_eq!(idx.line_col(src, 2), LineCol { line: 1, col: 2 });
        // After '↑' (offset 5): column 3.
        assert_eq!(idx.line_col(src, 5), LineCol { line: 1, col: 3 });
        // Inside '𝕩' (offset 7, mid-sequence): clamps to '𝕩''s column.
        assert_eq!(idx.line_col(src, 7), LineCol { line: 1, col: 3 });
        // After '𝕩' (offset 9): the ASCII 'x' at column 4.
        assert_eq!(idx.line_col(src, 9), LineCol { line: 1, col: 4 });
        assert_eq!(idx.line_col(src, 11), LineCol { line: 2, col: 1 });
    }

    #[test]
    fn line_col_utf16_counts_code_units() {
        // '𝕩' is one scalar value but two UTF-16 code units.
        let src = "𝕩x\ny";
        let idx = LineIndex::new(src);
        // Offset 4 points at 'x': char column 2, UTF-16 column 3.
        assert_eq!(idx.line_col(src, 4), LineCol { line: 1, col: 2 });
        assert_eq!(idx.line_col_utf16(src, 4), LineCol { line: 1, col: 3 });
        // BMP text agrees between the two encodings.
        assert_eq!(idx.line_col_utf16(src, 6), LineCol { line: 2, col: 1 });
    }

    #[test]
    fn line_index_offset_at_and_past_eof() {
        let src = "ab\ncd";
        let idx = LineIndex::new(src);
        assert_eq!(idx.line_col(src, 5), LineCol { line: 2, col: 3 });
        // Past-the-end offsets clamp instead of panicking.
        assert_eq!(idx.line_col(src, 999), LineCol { line: 2, col: 3 });
        // EOF right after a newline is the start of the (empty) last line.
        let src2 = "ab\n";
        let idx2 = LineIndex::new(src2);
        assert_eq!(idx2.line_col(src2, 3), LineCol { line: 2, col: 1 });
        assert_eq!(idx2.line_text(src2, 2), Some(""));
        // Empty text.
        let idx3 = LineIndex::new("");
        assert_eq!(idx3.line_col("", 0), LineCol { line: 1, col: 1 });
    }

    #[test]
    fn render_range() {
        let src = "ab\ncdef\n";
        let idx = LineIndex::new(src);
        let span = Span {
            lo: 3,
            hi: 7,
            line: 2,
        };
        assert_eq!(idx.render_range(src, span), "2:1-2:5");
        let point = Span {
            lo: 4,
            hi: 4,
            line: 2,
        };
        assert_eq!(idx.render_range(src, point), "2:2");
    }
}
