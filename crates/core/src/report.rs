//! Rendering: aligned text tables, CSV, JSON, and ASCII charts for the
//! figures harness.

use serde::Serialize;
use std::fmt::Write as _;
use std::io;
use std::path::Path;

/// Renders an aligned text table.
pub fn text_table(headers: &[&str], rows: &[Vec<String>]) -> String {
    let cols = headers.len();
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate().take(cols) {
            widths[i] = widths[i].max(cell.len());
        }
    }
    let mut out = String::new();
    let sep = |out: &mut String| {
        for w in &widths {
            let _ = write!(out, "+{:-<1$}", "", w + 2);
        }
        out.push_str("+\n");
    };
    sep(&mut out);
    for (h, w) in headers.iter().zip(&widths) {
        let _ = write!(out, "| {h:<w$} ");
    }
    out.push_str("|\n");
    sep(&mut out);
    let empty = String::new();
    for row in rows {
        for (i, w) in widths.iter().enumerate().take(cols) {
            let cell = row.get(i).unwrap_or(&empty);
            let _ = write!(out, "| {cell:>w$} ");
        }
        out.push_str("|\n");
    }
    sep(&mut out);
    out
}

/// Renders CSV with minimal quoting (fields containing commas, quotes
/// or newlines are quoted; quotes doubled).
pub fn csv(headers: &[&str], rows: &[Vec<String>]) -> String {
    fn field(s: &str) -> String {
        if s.contains(',') || s.contains('"') || s.contains('\n') {
            format!("\"{}\"", s.replace('"', "\"\""))
        } else {
            s.to_string()
        }
    }
    let mut out = String::new();
    out.push_str(
        &headers
            .iter()
            .map(|h| field(h))
            .collect::<Vec<_>>()
            .join(","),
    );
    out.push('\n');
    for row in rows {
        out.push_str(&row.iter().map(|c| field(c)).collect::<Vec<_>>().join(","));
        out.push('\n');
    }
    out
}

/// Pretty-printed JSON for any serializable artifact.
pub fn json<T: Serialize>(value: &T) -> String {
    serde_json::to_string_pretty(value).unwrap_or_else(|e| format!("{{\"error\":\"{e}\"}}"))
}

/// Writes an artifact file, creating parent directories.
pub fn write_artifact(path: &Path, content: &str) -> io::Result<()> {
    if let Some(parent) = path.parent() {
        std::fs::create_dir_all(parent)?;
    }
    std::fs::write(path, content)
}

/// A crude ASCII chart of a series (down-sampled to `width` columns,
/// `height` rows; linear y scale). Good enough to eyeball Fig. 1's
/// shape in a terminal.
pub fn ascii_chart(values: &[f64], width: usize, height: usize) -> String {
    if values.is_empty() || width == 0 || height == 0 {
        return String::new();
    }
    // Down-sample by bucket max (spikes must stay visible).
    let bucket = values.len().div_ceil(width);
    let cols: Vec<f64> = values
        .chunks(bucket)
        .map(|c| c.iter().copied().fold(f64::MIN, f64::max))
        .collect();
    let max = cols.iter().copied().fold(f64::MIN, f64::max).max(1.0);
    let mut rows: Vec<String> = Vec::with_capacity(height);
    for r in 0..height {
        let threshold = max * (height - r) as f64 / height as f64;
        let mut line = String::with_capacity(cols.len());
        for &v in &cols {
            line.push(if v >= threshold { '█' } else { ' ' });
        }
        rows.push(format!("{:>10.0} |{}", threshold, line));
    }
    let mut out = rows.join("\n");
    let _ = write!(out, "\n{:>10} +{}", 0, "-".repeat(cols.len()));
    out
}

/// A log-scale ASCII scatter for the duration histogram (Fig. 3 uses a
/// log y axis).
pub fn ascii_log_hist(pairs: &[(u32, u32)], width: usize, height: usize) -> String {
    if pairs.is_empty() || width == 0 || height == 0 {
        return String::new();
    }
    let max_x = pairs.iter().map(|(x, _)| *x).max().unwrap_or(1).max(1);
    let max_y = pairs.iter().map(|(_, y)| *y).max().unwrap_or(1).max(1) as f64;
    let log_max = max_y.ln();
    let mut grid = vec![vec![' '; width]; height];
    for &(x, y) in pairs {
        let cx = ((x as f64 / max_x as f64) * (width - 1) as f64) as usize;
        let ly = (y as f64).ln().max(0.0);
        let cy = if log_max <= 0.0 {
            height - 1
        } else {
            height - 1 - ((ly / log_max) * (height - 1) as f64) as usize
        };
        grid[cy][cx] = '*';
    }
    let mut out = String::new();
    for (r, row) in grid.iter().enumerate() {
        let label = if r == 0 {
            format!("{max_y:>9.0}")
        } else if r == height - 1 {
            format!("{:>9}", 1)
        } else {
            " ".repeat(9)
        };
        let _ = writeln!(out, "{label} |{}", row.iter().collect::<String>());
    }
    let _ = write!(out, "{:>9} +{}", "", "-".repeat(width));
    let _ = write!(
        out,
        "\n{:>9}  0{:>w$}",
        "",
        max_x,
        w = width.saturating_sub(1)
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_is_aligned() {
        let t = text_table(
            &["year", "median"],
            &[
                vec!["1998".into(), "683".into()],
                vec!["1999".into(), "810.5".into()],
            ],
        );
        let lines: Vec<&str> = t.lines().collect();
        // Borders + header + 2 rows = 6 lines.
        assert_eq!(lines.len(), 6);
        let width = lines[0].len();
        assert!(lines.iter().all(|l| l.len() == width), "ragged table:\n{t}");
        assert!(t.contains("| year "));
        assert!(t.contains("810.5"));
    }

    #[test]
    fn table_handles_short_rows() {
        let t = text_table(&["a", "b"], &[vec!["1".into()]]);
        assert!(t.contains("| 1 |"));
    }

    #[test]
    fn csv_quotes_when_needed() {
        let out = csv(
            &["name", "note"],
            &[vec!["a,b".into(), "say \"hi\"".into()]],
        );
        assert_eq!(out, "name,note\n\"a,b\",\"say \"\"hi\"\"\"\n");
    }

    #[test]
    fn json_renders() {
        #[derive(Serialize)]
        struct S {
            x: u32,
        }
        assert!(json(&S { x: 5 }).contains("\"x\": 5"));
    }

    #[test]
    fn ascii_chart_shows_spike() {
        let mut values = vec![10.0; 100];
        values[50] = 1000.0;
        let chart = ascii_chart(&values, 50, 10);
        assert!(chart.contains('█'));
        // The top row contains exactly the spike column.
        let top = chart.lines().next().unwrap();
        assert_eq!(top.matches('█').count(), 1);
    }

    #[test]
    fn ascii_chart_empty_inputs() {
        assert_eq!(ascii_chart(&[], 10, 5), "");
        assert_eq!(ascii_chart(&[1.0], 0, 5), "");
    }

    #[test]
    fn log_hist_renders_points() {
        let h = ascii_log_hist(&[(1, 10_000), (100, 100), (1000, 1)], 60, 12);
        assert!(h.matches('*').count() >= 3);
    }

    #[test]
    fn artifacts_written() {
        let path = std::env::temp_dir().join("moas-report-test/x/table.txt");
        write_artifact(&path, "hello").unwrap();
        assert_eq!(std::fs::read_to_string(&path).unwrap(), "hello");
        std::fs::remove_file(&path).ok();
    }
}
