//! Shared harness utilities for the figure-regeneration binaries.
//!
//! The binaries under `src/bin/` regenerate the paper's figures and
//! tables (see `DESIGN.md` §4); `c432_study` prints every c432-class one
//! from a single run. This module supplies the common output
//! plumbing: aligned numeric tables, CSV emission, and a small ASCII line
//! plot good enough to eyeball curve shapes in a terminal.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod kernels;
pub mod pipeline;
pub mod regress;

use std::fmt::Write as _;

use dlp_core::{Diagnostics, PipelineError};

/// Prints graceful-degradation warnings (if any) to stderr, so a figure
/// binary surfaces partial-result caveats without aborting.
pub fn report_diagnostics(diags: &Diagnostics) {
    if !diags.is_empty() {
        eprintln!("warnings (degraded stages):\n{diags}");
    }
}

/// Runs a figure binary's fallible body: a stage-tagged error is rendered
/// to stderr and the process exits nonzero, instead of unwinding through
/// a panic.
pub fn run_main(body: impl FnOnce() -> Result<(), PipelineError>) -> std::process::ExitCode {
    match body() {
        Ok(()) => std::process::ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::ExitCode::FAILURE
        }
    }
}

/// A named data series of `(x, y)` points.
#[derive(Debug, Clone)]
pub struct Series {
    /// Legend label.
    pub name: String,
    /// The points, in x order.
    pub points: Vec<(f64, f64)>,
}

impl Series {
    /// Creates a series.
    pub fn new(name: impl Into<String>, points: Vec<(f64, f64)>) -> Self {
        Series {
            name: name.into(),
            points,
        }
    }
}

/// Renders series as CSV (`x,name1,name2,...`), merging on the x values of
/// the first series (other series must share them — the binaries all
/// sample on a common grid).
pub fn to_csv(series: &[Series]) -> String {
    let mut out = String::new();
    let _ = write!(out, "x");
    for s in series {
        let _ = write!(out, ",{}", s.name);
    }
    let _ = writeln!(out);
    if series.is_empty() {
        return out;
    }
    for (i, &(x, _)) in series[0].points.iter().enumerate() {
        let _ = write!(out, "{x}");
        for s in series {
            match s.points.get(i) {
                Some(&(_, y)) => {
                    let _ = write!(out, ",{y}");
                }
                None => {
                    let _ = write!(out, ",");
                }
            }
        }
        let _ = writeln!(out);
    }
    out
}

/// Renders series as an ASCII plot (linear axes), `width × height`
/// characters, one glyph per series.
pub fn ascii_plot(series: &[Series], width: usize, height: usize) -> String {
    const GLYPHS: [char; 6] = ['*', '+', 'o', 'x', '#', '@'];
    let (mut x0, mut x1) = (f64::INFINITY, f64::NEG_INFINITY);
    let (mut y0, mut y1) = (f64::INFINITY, f64::NEG_INFINITY);
    for s in series {
        for &(x, y) in &s.points {
            x0 = x0.min(x);
            x1 = x1.max(x);
            y0 = y0.min(y);
            y1 = y1.max(y);
        }
    }
    if !(x0.is_finite() && y0.is_finite()) || x1 <= x0 {
        return String::from("(no data)\n");
    }
    if y1 <= y0 {
        y1 = y0 + 1.0;
    }
    let mut grid = vec![vec![' '; width]; height];
    for (si, s) in series.iter().enumerate() {
        let glyph = GLYPHS[si % GLYPHS.len()];
        for &(x, y) in &s.points {
            let cx = ((x - x0) / (x1 - x0) * (width - 1) as f64).round() as usize;
            let cy = ((y - y0) / (y1 - y0) * (height - 1) as f64).round() as usize;
            let row = height - 1 - cy.min(height - 1);
            grid[row][cx.min(width - 1)] = glyph;
        }
    }
    let mut out = String::new();
    let _ = writeln!(out, "y: {y0:.4} .. {y1:.4}");
    for row in grid {
        let line: String = row.into_iter().collect();
        let _ = writeln!(out, "|{line}|");
    }
    let _ = writeln!(out, "x: {x0:.4} .. {x1:.4}");
    for (si, s) in series.iter().enumerate() {
        let _ = writeln!(out, "  {} = {}", GLYPHS[si % GLYPHS.len()], s.name);
    }
    out
}

/// Prints a numeric table with a header.
pub fn print_table(headers: &[&str], rows: &[Vec<String>]) {
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            widths[i] = widths[i].max(cell.len());
        }
    }
    let line: Vec<String> = headers
        .iter()
        .zip(&widths)
        .map(|(h, w)| format!("{h:>w$}"))
        .collect();
    println!("{}", line.join("  "));
    for row in rows {
        let line: Vec<String> = row
            .iter()
            .zip(&widths)
            .map(|(c, w)| format!("{c:>w$}"))
            .collect();
        println!("{}", line.join("  "));
    }
}

/// Logarithmically spaced test-length samples `1..=max` (deduplicated).
pub fn log_lengths(max: usize) -> Vec<usize> {
    let mut out = vec![1usize];
    let mut k = 1.0f64;
    while (k as usize) < max {
        k *= 1.5;
        let v = (k as usize).min(max);
        if out.last() != Some(&v) {
            out.push(v);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn csv_shape() {
        let s = vec![
            Series::new("a", vec![(0.0, 1.0), (1.0, 2.0)]),
            Series::new("b", vec![(0.0, 3.0), (1.0, 4.0)]),
        ];
        let csv = to_csv(&s);
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines[0], "x,a,b");
        assert_eq!(lines[1], "0,1,3");
        assert_eq!(lines.len(), 3);
    }

    #[test]
    fn plot_contains_glyphs_and_bounds() {
        let s = vec![Series::new("t", vec![(0.0, 0.0), (1.0, 1.0), (2.0, 4.0)])];
        let p = ascii_plot(&s, 20, 8);
        assert!(p.contains('*'));
        assert!(p.contains("x: 0.0000 .. 2.0000"));
    }

    #[test]
    fn plot_survives_degenerate_data() {
        assert_eq!(ascii_plot(&[], 10, 5), "(no data)\n");
        let s = vec![Series::new("flat", vec![(0.0, 1.0), (1.0, 1.0)])];
        assert!(ascii_plot(&s, 10, 5).contains('*'));
    }

    #[test]
    fn log_lengths_monotone_and_capped() {
        let ls = log_lengths(1000);
        assert_eq!(ls[0], 1);
        assert_eq!(*ls.last().unwrap(), 1000);
        assert!(ls.windows(2).all(|w| w[1] > w[0]));
    }
}
