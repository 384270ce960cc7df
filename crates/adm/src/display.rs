//! Streaming ASCII table rendering.
//!
//! [`crate::Relation::to_table`] (and so a [`crate::ColumnRel`]'s
//! `Display`, which prints its relation) funnels through
//! [`render_ascii_table`]: cell text is measured once for
//! column widths, then the table is streamed into a single output buffer.
//! The previous writer built a `Vec<String>` per row plus a joined line
//! `String` per row, so wide results (the E7/E8 experiments produce dozens
//! of columns) re-allocated every line several times over; the streaming
//! writer allocates once for the output (plus the flat cell vector the
//! caller already produced for width measurement).

/// Renders the classic `a | b` / `--+--` ASCII table from a header and a
/// flat row-major cell vector (`cells.len() == nrows * columns.len()`).
///
/// Widths are measured in bytes but padding is applied per character,
/// matching `format!("{:w$}")` on the same widths — output is byte-identical
/// to the historical per-row writer.
pub fn render_ascii_table(columns: &[String], nrows: usize, cells: &[String]) -> String {
    let ncols = columns.len();
    debug_assert_eq!(cells.len(), nrows * ncols);
    let mut widths: Vec<usize> = columns.iter().map(|c| c.len()).collect();
    for (i, c) in cells.iter().enumerate() {
        let w = &mut widths[i % ncols.max(1)];
        *w = (*w).max(c.len());
    }

    // One line: header + separator + rows, each padded to its column width.
    let line_width: usize = widths.iter().sum::<usize>() + 3 * ncols.saturating_sub(1) + 1;
    let mut out = String::with_capacity(line_width * (nrows + 2));
    let emit_row = |out: &mut String, row: &[String]| {
        for (i, cell) in row.iter().enumerate() {
            if i > 0 {
                out.push_str(" | ");
            }
            out.push_str(cell);
            let pad = widths[i].saturating_sub(cell.chars().count());
            for _ in 0..pad {
                out.push(' ');
            }
        }
        out.push('\n');
    };
    emit_row(&mut out, columns);
    for (i, w) in widths.iter().enumerate() {
        if i > 0 {
            out.push_str("-+-");
        }
        for _ in 0..*w {
            out.push('-');
        }
    }
    out.push('\n');
    if ncols == 0 {
        for _ in 0..nrows {
            out.push('\n');
        }
        return out;
    }
    for row in cells.chunks(ncols) {
        emit_row(&mut out, row);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pads_and_separates() {
        let t = render_ascii_table(
            &["A".into(), "Long".into()],
            2,
            &["xx".into(), "y".into(), "⊥".into(), "zzzzz".into()],
        );
        let lines: Vec<&str> = t.lines().collect();
        // column A is 3 wide: "⊥" is measured at its 3-byte length
        assert_eq!(lines[0], "A   | Long ");
        assert_eq!(lines[1], "----+------");
        assert_eq!(lines[2], "xx  | y    ");
        // "⊥" is 3 bytes / 1 char: width counts bytes, padding counts chars,
        // exactly like format!("{:w$}") over byte-measured widths.
        assert_eq!(lines[3], "⊥   | zzzzz");
    }

    #[test]
    fn zero_columns_renders_blank_lines() {
        let t = render_ascii_table(&[], 2, &[]);
        assert_eq!(t, "\n\n\n\n");
    }
}
