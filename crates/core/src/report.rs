//! Plain-text rendering of experiment outputs: aligned tables and ASCII
//! time-series charts, so the examples can print exactly the
//! rows/series the paper reports without any plotting dependency.

use simcore::TimeSeries;

/// Render an aligned text table. `headers.len()` must equal each row's
/// length.
pub fn render_table(headers: &[&str], rows: &[Vec<String>]) -> String {
    let cols = headers.len();
    // Widths in characters, not bytes: cells contain 'µ' and friends.
    let chars = |s: &str| s.chars().count();
    let mut widths: Vec<usize> = headers.iter().map(|h| chars(h)).collect();
    for row in rows {
        assert_eq!(row.len(), cols, "row arity mismatch");
        for (i, cell) in row.iter().enumerate() {
            widths[i] = widths[i].max(chars(cell));
        }
    }
    let mut out = String::new();
    let line = |cells: &[String]| {
        let mut s = String::from("|");
        for (i, c) in cells.iter().enumerate() {
            s.push_str(&format!(" {:<w$} |", c, w = widths[i]));
        }
        s.push('\n');
        s
    };
    out.push_str(&line(
        &headers.iter().map(|h| h.to_string()).collect::<Vec<_>>(),
    ));
    let sep: Vec<String> = widths.iter().map(|&w| "-".repeat(w)).collect();
    out.push_str(&line(&sep));
    for row in rows {
        out.push_str(&line(row));
    }
    out
}

/// Render a time series as an ASCII chart (`height` rows × up to `width`
/// columns) followed by its peak and final values. Peaks survive the
/// downsampling (see [`TimeSeries::downsample_peaks`]).
pub fn render_series_chart(series: &TimeSeries, width: usize, height: usize) -> String {
    if series.is_empty() || width == 0 || height == 0 {
        return format!("{}: (empty)\n", series.name());
    }
    let ds = series.downsample_peaks(width);
    let vals = ds.values();
    let vmax = vals.iter().cloned().fold(f64::MIN, f64::max).max(1e-9);
    let vmin = 0.0f64;
    let mut grid = vec![vec![' '; vals.len()]; height];
    for (x, &v) in vals.iter().enumerate() {
        let frac = ((v - vmin) / (vmax - vmin)).clamp(0.0, 1.0);
        let y = ((height as f64 - 1.0) * frac).round() as usize;
        for (row, grid_row) in grid.iter_mut().enumerate() {
            let from_bottom = height - 1 - row;
            if from_bottom < y {
                grid_row[x] = '.';
            } else if from_bottom == y {
                grid_row[x] = '*';
            }
        }
    }
    let mut out = format!(
        "{} — max {:.1} µs, final {:.1} µs\n",
        series.name(),
        vmax,
        vals.last().copied().unwrap_or(0.0)
    );
    for (row, grid_row) in grid.iter().enumerate() {
        let level = vmax * (height - 1 - row) as f64 / (height as f64 - 1.0);
        out.push_str(&format!("{level:>10.1} |"));
        out.extend(grid_row.iter());
        out.push('\n');
    }
    let t0 = ds.times().first().unwrap().as_secs_f64();
    let t1 = ds.times().last().unwrap().as_secs_f64();
    out.push_str(&format!(
        "{:>10} +{}\n{:>10}  {:<.1}s{:>pad$.1}s\n",
        "",
        "-".repeat(vals.len()),
        "",
        t0,
        t1,
        pad = vals.len().saturating_sub(4),
    ));
    out
}

/// Render the first `n` sample rows of a series as a CSV-ish table (for
/// logs and EXPERIMENTS.md extracts).
pub fn series_head(series: &TimeSeries, n: usize) -> String {
    let mut out = format!("time_s, {}\n", series.name());
    for (t, v) in series.iter().take(n) {
        out.push_str(&format!("{:.1}, {:.2}\n", t.as_secs_f64(), v));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use simcore::SimTime;

    fn series() -> TimeSeries {
        let mut s = TimeSeries::new("test µs");
        for i in 0..100u64 {
            s.push(SimTime::from_secs(i), (i % 10) as f64);
        }
        s
    }

    #[test]
    fn table_alignment() {
        let t = render_table(
            &["m", "latency", "error"],
            &[
                vec!["1".into(), "0.1s".into(), "12µs".into()],
                vec!["2".into(), "0.4s".into(), "7µs".into()],
            ],
        );
        let lines: Vec<&str> = t.lines().collect();
        assert_eq!(lines.len(), 4);
        let w = lines[0].chars().count();
        assert!(
            lines.iter().all(|l| l.chars().count() == w),
            "ragged table:\n{t}"
        );
        assert!(lines[0].contains("latency"));
    }

    #[test]
    #[should_panic(expected = "row arity")]
    fn table_rejects_ragged_rows() {
        let _ = render_table(&["a", "b"], &[vec!["x".into()]]);
    }

    #[test]
    fn chart_renders_and_reports_peak() {
        let c = render_series_chart(&series(), 40, 8);
        assert!(c.contains("max 9.0"));
        assert!(c.contains('*'));
        let body_lines = c.lines().count();
        assert_eq!(body_lines, 1 + 8 + 2);
    }

    #[test]
    fn chart_empty_series() {
        let s = TimeSeries::new("empty");
        assert!(render_series_chart(&s, 10, 4).contains("(empty)"));
    }

    #[test]
    fn head_renders_rows() {
        let h = series_head(&series(), 3);
        assert_eq!(h.lines().count(), 4);
        assert!(h.starts_with("time_s"));
    }
}
