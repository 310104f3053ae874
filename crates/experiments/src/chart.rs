//! Minimal dependency-free SVG charts for the figure experiments.
//!
//! The paper's artifacts are *figures*; the text tables in this crate
//! carry the numbers, and this module renders them in the figures'
//! native shapes — line series for Figs. 1, 7 and 10, grouped bars for
//! Fig. 8, stacked bars for Fig. 9. The output is plain SVG 1.1 with no
//! external assets, written by `repro --svg <dir>`.

use std::fmt::Write as _;

/// Chart canvas dimensions and margins.
const WIDTH: f64 = 860.0;
const HEIGHT: f64 = 520.0;
const MARGIN_LEFT: f64 = 70.0;
const MARGIN_RIGHT: f64 = 180.0;
const MARGIN_TOP: f64 = 50.0;
const MARGIN_BOTTOM: f64 = 60.0;

/// A categorical color palette (ColorBrewer-ish, print-safe).
const PALETTE: [&str; 8] = [
    "#1b6ca8", "#d1495b", "#66a182", "#edae49", "#5f4b8b", "#2e4057", "#8d96a3", "#00798c",
];

fn plot_width() -> f64 {
    WIDTH - MARGIN_LEFT - MARGIN_RIGHT
}

fn plot_height() -> f64 {
    HEIGHT - MARGIN_TOP - MARGIN_BOTTOM
}

/// Computes "nice" tick positions covering `[lo, hi]`.
fn ticks(lo: f64, hi: f64, target: usize) -> Vec<f64> {
    assert!(hi >= lo, "tick range inverted");
    if (hi - lo).abs() < f64::EPSILON {
        return vec![lo];
    }
    let raw_step = (hi - lo) / target as f64;
    let magnitude = 10f64.powf(raw_step.log10().floor());
    let residual = raw_step / magnitude;
    let step = magnitude
        * if residual < 1.5 {
            1.0
        } else if residual < 3.0 {
            2.0
        } else if residual < 7.0 {
            5.0
        } else {
            10.0
        };
    let first = (lo / step).ceil() * step;
    let mut out = Vec::new();
    let mut tick = first;
    while tick <= hi + step * 1e-9 {
        out.push(tick);
        tick += step;
    }
    out
}

fn escape(text: &str) -> String {
    text.replace('&', "&amp;")
        .replace('<', "&lt;")
        .replace('>', "&gt;")
}

fn fmt_tick(value: f64) -> String {
    if value.abs() >= 100_000.0 {
        format!("{value:.0e}")
    } else if value.fract().abs() < 1e-9 {
        format!("{value:.0}")
    } else {
        format!("{value:.2}")
    }
}

/// Low-level SVG assembly.
#[derive(Debug, Clone)]
struct Canvas {
    body: String,
}

impl Canvas {
    fn new(title: &str) -> Self {
        let mut body = String::new();
        let _ = write!(
            body,
            r#"<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" height="{HEIGHT}" viewBox="0 0 {WIDTH} {HEIGHT}" font-family="Helvetica,Arial,sans-serif">"#,
        );
        let _ = write!(
            body,
            r#"<rect width="{WIDTH}" height="{HEIGHT}" fill="white"/><text x="{x}" y="28" font-size="17" font-weight="bold" text-anchor="middle">{t}</text>"#,
            x = MARGIN_LEFT + plot_width() / 2.0,
            t = escape(title),
        );
        Canvas { body }
    }

    fn line(&mut self, x1: f64, y1: f64, x2: f64, y2: f64, stroke: &str, width: f64) {
        let _ = write!(
            self.body,
            r#"<line x1="{x1:.1}" y1="{y1:.1}" x2="{x2:.1}" y2="{y2:.1}" stroke="{stroke}" stroke-width="{width}"/>"#,
        );
    }

    fn rect(&mut self, x: f64, y: f64, w: f64, h: f64, fill: &str) {
        let _ = write!(
            self.body,
            r#"<rect x="{x:.1}" y="{y:.1}" width="{w:.1}" height="{h:.1}" fill="{fill}"/>"#,
        );
    }

    fn text(&mut self, x: f64, y: f64, size: f64, anchor: &str, content: &str) {
        let _ = write!(
            self.body,
            r#"<text x="{x:.1}" y="{y:.1}" font-size="{size}" text-anchor="{anchor}">{c}</text>"#,
            c = escape(content),
        );
    }

    fn polyline(&mut self, points: &[(f64, f64)], stroke: &str) {
        let mut path = String::new();
        for (x, y) in points {
            let _ = write!(path, "{x:.1},{y:.1} ");
        }
        let _ = write!(
            self.body,
            r#"<polyline points="{path}" fill="none" stroke="{stroke}" stroke-width="2.2"/>"#,
        );
    }

    fn circle(&mut self, x: f64, y: f64, r: f64, fill: &str) {
        let _ = write!(
            self.body,
            r#"<circle cx="{x:.1}" cy="{y:.1}" r="{r}" fill="{fill}"/>"#,
        );
    }

    fn legend(&mut self, entries: &[(String, &str)]) {
        let x = WIDTH - MARGIN_RIGHT + 18.0;
        for (i, (label, color)) in entries.iter().enumerate() {
            let y = MARGIN_TOP + 14.0 + i as f64 * 22.0;
            self.rect(x, y - 9.0, 14.0, 10.0, color);
            self.text(x + 20.0, y, 12.0, "start", label);
        }
    }

    fn axes(&mut self, x_label: &str, y_label: &str) {
        let x0 = MARGIN_LEFT;
        let y0 = MARGIN_TOP + plot_height();
        self.line(x0, MARGIN_TOP, x0, y0, "#333", 1.2);
        self.line(x0, y0, x0 + plot_width(), y0, "#333", 1.2);
        self.text(
            x0 + plot_width() / 2.0,
            HEIGHT - 14.0,
            13.0,
            "middle",
            x_label,
        );
        let _ = write!(
            self.body,
            r#"<text x="18" y="{y:.1}" font-size="13" text-anchor="middle" transform="rotate(-90 18 {y:.1})">{l}</text>"#,
            y = MARGIN_TOP + plot_height() / 2.0,
            l = escape(y_label),
        );
    }

    fn finish(mut self) -> String {
        self.body.push_str("</svg>");
        self.body
    }
}

/// Maps a data range onto plot pixels, optionally logarithmically.
#[derive(Debug, Clone, Copy)]
struct Scale {
    lo: f64,
    hi: f64,
    log: bool,
}

impl Scale {
    fn new(lo: f64, hi: f64, log: bool) -> Self {
        assert!(hi > lo, "degenerate scale [{lo}, {hi}]");
        if log {
            assert!(lo > 0.0, "log scale needs positive bounds");
        }
        Scale { lo, hi, log }
    }

    fn unit(&self, v: f64) -> f64 {
        if self.log {
            (v.ln() - self.lo.ln()) / (self.hi.ln() - self.lo.ln())
        } else {
            (v - self.lo) / (self.hi - self.lo)
        }
    }

    fn x(&self, v: f64) -> f64 {
        MARGIN_LEFT + self.unit(v) * plot_width()
    }

    fn y(&self, v: f64) -> f64 {
        MARGIN_TOP + (1.0 - self.unit(v)) * plot_height()
    }
}

/// A multi-series line chart.
///
/// # Examples
///
/// ```
/// use leakage_experiments::chart::LineChart;
///
/// let svg = LineChart::new("demo", "x", "y")
///     .series("s", vec![(1.0, 2.0), (2.0, 4.0)])
///     .render();
/// assert!(svg.starts_with("<svg"));
/// assert!(svg.contains("polyline"));
/// ```
#[derive(Debug, Clone)]
pub struct LineChart {
    title: String,
    x_label: String,
    y_label: String,
    series: Vec<(String, Vec<(f64, f64)>)>,
    log_x: bool,
    log_y: bool,
    y_bounds: Option<(f64, f64)>,
}

impl LineChart {
    /// Creates an empty chart.
    pub fn new(
        title: impl Into<String>,
        x_label: impl Into<String>,
        y_label: impl Into<String>,
    ) -> Self {
        LineChart {
            title: title.into(),
            x_label: x_label.into(),
            y_label: y_label.into(),
            series: Vec::new(),
            log_x: false,
            log_y: false,
            y_bounds: None,
        }
    }

    /// Adds a named series (points in x order).
    pub fn series(mut self, name: impl Into<String>, points: Vec<(f64, f64)>) -> Self {
        self.series.push((name.into(), points));
        self
    }

    /// Uses a logarithmic x axis.
    pub fn log_x(mut self) -> Self {
        self.log_x = true;
        self
    }

    /// Uses a logarithmic y axis.
    pub fn log_y(mut self) -> Self {
        self.log_y = true;
        self
    }

    /// Fixes the y-axis range (e.g. 0–100 for percentages).
    pub fn y_bounds(mut self, lo: f64, hi: f64) -> Self {
        self.y_bounds = Some((lo, hi));
        self
    }

    /// Renders to an SVG document.
    ///
    /// # Panics
    ///
    /// Panics if no series with at least one point was added.
    pub fn render(&self) -> String {
        let points: Vec<(f64, f64)> = self
            .series
            .iter()
            .flat_map(|(_, p)| p.iter().copied())
            .collect();
        assert!(!points.is_empty(), "line chart needs data");
        let (x_lo, x_hi) = bounds(points.iter().map(|p| p.0));
        let (y_lo, y_hi) = self
            .y_bounds
            .unwrap_or_else(|| pad(bounds(points.iter().map(|p| p.1)), self.log_y));
        let xs = Scale::new(x_lo, x_hi.max(x_lo + 1e-9), self.log_x);
        let ys = Scale::new(y_lo, y_hi.max(y_lo + 1e-9), self.log_y);

        let mut canvas = Canvas::new(&self.title);
        // Gridlines + tick labels.
        for tick in axis_ticks(y_lo, y_hi, self.log_y) {
            let y = ys.y(tick);
            canvas.line(MARGIN_LEFT, y, MARGIN_LEFT + plot_width(), y, "#ddd", 0.8);
            canvas.text(MARGIN_LEFT - 8.0, y + 4.0, 11.0, "end", &fmt_tick(tick));
        }
        for tick in axis_ticks(x_lo, x_hi, self.log_x) {
            let x = xs.x(tick);
            canvas.text(
                x,
                MARGIN_TOP + plot_height() + 18.0,
                11.0,
                "middle",
                &fmt_tick(tick),
            );
        }
        canvas.axes(&self.x_label, &self.y_label);
        let mut legend = Vec::new();
        for (i, (name, pts)) in self.series.iter().enumerate() {
            let color = PALETTE[i % PALETTE.len()];
            let pixels: Vec<(f64, f64)> = pts.iter().map(|&(x, y)| (xs.x(x), ys.y(y))).collect();
            canvas.polyline(&pixels, color);
            for &(x, y) in &pixels {
                canvas.circle(x, y, 2.6, color);
            }
            legend.push((name.clone(), color));
        }
        canvas.legend(&legend);
        canvas.finish()
    }
}

/// A grouped (or stacked) bar chart over named categories.
///
/// # Examples
///
/// ```
/// use leakage_experiments::chart::BarChart;
///
/// let svg = BarChart::new("demo", "savings %")
///     .categories(["a", "b"])
///     .series("s1", vec![10.0, 20.0])
///     .render();
/// assert!(svg.contains("rect"));
/// ```
#[derive(Debug, Clone)]
pub struct BarChart {
    title: String,
    y_label: String,
    categories: Vec<String>,
    series: Vec<(String, Vec<f64>)>,
    stacked: bool,
    y_max: Option<f64>,
}

impl BarChart {
    /// Creates an empty chart.
    pub fn new(title: impl Into<String>, y_label: impl Into<String>) -> Self {
        BarChart {
            title: title.into(),
            y_label: y_label.into(),
            categories: Vec::new(),
            series: Vec::new(),
            stacked: false,
            y_max: None,
        }
    }

    /// Sets the category (x) labels.
    pub fn categories<I, S>(mut self, labels: I) -> Self
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        self.categories = labels.into_iter().map(Into::into).collect();
        self
    }

    /// Adds one series; its length must equal the category count.
    pub fn series(mut self, name: impl Into<String>, values: Vec<f64>) -> Self {
        self.series.push((name.into(), values));
        self
    }

    /// Stacks series instead of grouping them.
    pub fn stacked(mut self) -> Self {
        self.stacked = true;
        self
    }

    /// Fixes the y-axis maximum (e.g. 100 for percentages).
    pub fn y_max(mut self, max: f64) -> Self {
        self.y_max = Some(max);
        self
    }

    /// Renders to an SVG document.
    ///
    /// # Panics
    ///
    /// Panics on empty data or series/category length mismatch.
    pub fn render(&self) -> String {
        assert!(
            !self.categories.is_empty() && !self.series.is_empty(),
            "bar chart needs data"
        );
        for (name, values) in &self.series {
            assert_eq!(
                values.len(),
                self.categories.len(),
                "series {name} length mismatch"
            );
        }
        let max = self.y_max.unwrap_or_else(|| {
            let m = if self.stacked {
                (0..self.categories.len())
                    .map(|i| self.series.iter().map(|(_, v)| v[i]).sum::<f64>())
                    .fold(0.0, f64::max)
            } else {
                self.series
                    .iter()
                    .flat_map(|(_, v)| v.iter().copied())
                    .fold(0.0, f64::max)
            };
            m * 1.05
        });
        let ys = Scale::new(0.0, max.max(1e-9), false);

        let mut canvas = Canvas::new(&self.title);
        for tick in ticks(0.0, max, 6) {
            let y = ys.y(tick);
            canvas.line(MARGIN_LEFT, y, MARGIN_LEFT + plot_width(), y, "#ddd", 0.8);
            canvas.text(MARGIN_LEFT - 8.0, y + 4.0, 11.0, "end", &fmt_tick(tick));
        }
        canvas.axes("", &self.y_label);

        let slot = plot_width() / self.categories.len() as f64;
        let bars_per_slot = if self.stacked { 1 } else { self.series.len() };
        let bar_width = (slot * 0.75) / bars_per_slot as f64;
        let base_y = MARGIN_TOP + plot_height();

        let mut legend = Vec::new();
        for (series_index, (name, values)) in self.series.iter().enumerate() {
            let color = PALETTE[series_index % PALETTE.len()];
            legend.push((name.clone(), color));
            for (cat_index, &value) in values.iter().enumerate() {
                let slot_x = MARGIN_LEFT + cat_index as f64 * slot + slot * 0.125;
                let (x, y, h) = if self.stacked {
                    let below: f64 = self.series[..series_index]
                        .iter()
                        .map(|(_, v)| v[cat_index])
                        .sum();
                    let top = ys.y(below + value);
                    let bottom = ys.y(below);
                    (slot_x, top, bottom - top)
                } else {
                    let x = slot_x + series_index as f64 * bar_width;
                    let top = ys.y(value);
                    (x, top, base_y - top)
                };
                canvas.rect(x, y, bar_width.max(1.0), h.max(0.0), color);
            }
        }
        for (cat_index, label) in self.categories.iter().enumerate() {
            let x = MARGIN_LEFT + (cat_index as f64 + 0.5) * slot;
            canvas.text(x, base_y + 18.0, 11.0, "middle", label);
        }
        canvas.legend(&legend);
        canvas.finish()
    }
}

fn bounds(values: impl Iterator<Item = f64>) -> (f64, f64) {
    let mut lo = f64::INFINITY;
    let mut hi = f64::NEG_INFINITY;
    for v in values {
        lo = lo.min(v);
        hi = hi.max(v);
    }
    (lo, hi)
}

fn pad((lo, hi): (f64, f64), log: bool) -> (f64, f64) {
    if log {
        (lo * 0.8, hi * 1.25)
    } else {
        let span = (hi - lo).max(1e-9);
        (lo - span * 0.05, hi + span * 0.05)
    }
}

fn axis_ticks(lo: f64, hi: f64, log: bool) -> Vec<f64> {
    if !log {
        return ticks(lo, hi, 6);
    }
    // Decade ticks for log axes.
    let mut out = Vec::new();
    let mut decade = 10f64.powf(lo.log10().ceil());
    while decade <= hi * (1.0 + 1e-9) {
        out.push(decade);
        decade *= 10.0;
    }
    if out.is_empty() {
        out.push(lo);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nice_ticks() {
        let t = ticks(0.0, 100.0, 6);
        assert_eq!(t, vec![0.0, 20.0, 40.0, 60.0, 80.0, 100.0]);
        let t = ticks(0.0, 7.0, 6);
        assert!(t.contains(&0.0) && t.contains(&7.0) || t.len() >= 4);
        assert_eq!(ticks(5.0, 5.0, 4), vec![5.0]);
    }

    #[test]
    fn scale_maps_endpoints() {
        let s = Scale::new(0.0, 10.0, false);
        assert!((s.unit(0.0) - 0.0).abs() < 1e-12);
        assert!((s.unit(10.0) - 1.0).abs() < 1e-12);
        let log = Scale::new(1.0, 100.0, true);
        assert!((log.unit(10.0) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn line_chart_renders_all_series() {
        let svg = LineChart::new("t", "x", "y")
            .series("alpha", vec![(1.0, 1.0), (2.0, 3.0)])
            .series("beta", vec![(1.0, 2.0), (2.0, 1.0)])
            .render();
        assert!(svg.starts_with("<svg"));
        assert!(svg.ends_with("</svg>"));
        assert_eq!(svg.matches("polyline").count(), 2);
        assert!(svg.contains("alpha") && svg.contains("beta"));
    }

    #[test]
    fn log_x_chart_uses_decade_ticks() {
        let svg = LineChart::new("t", "cycles", "%")
            .series("s", vec![(1000.0, 90.0), (10_000.0, 95.0)])
            .log_x()
            .y_bounds(0.0, 100.0)
            .render();
        assert!(svg.contains("10000"));
    }

    #[test]
    fn grouped_bar_chart_counts_rects() {
        let svg = BarChart::new("t", "%")
            .categories(["a", "b", "c"])
            .series("s1", vec![1.0, 2.0, 3.0])
            .series("s2", vec![3.0, 2.0, 1.0])
            .render();
        // 6 bars + background + legend swatches (2).
        assert!(svg.matches("<rect").count() >= 9);
    }

    #[test]
    fn stacked_bars_stack() {
        let svg = BarChart::new("t", "%")
            .categories(["a"])
            .series("bottom", vec![40.0])
            .series("top", vec![40.0])
            .stacked()
            .y_max(100.0)
            .render();
        assert!(svg.contains("bottom") && svg.contains("top"));
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn bar_series_length_checked() {
        let _ = BarChart::new("t", "%")
            .categories(["a", "b"])
            .series("s", vec![1.0])
            .render();
    }

    #[test]
    #[should_panic(expected = "needs data")]
    fn empty_line_chart_panics() {
        let _ = LineChart::new("t", "x", "y").render();
    }

    #[test]
    fn titles_are_escaped() {
        let svg = LineChart::new("a < b & c", "x", "y")
            .series("s", vec![(0.0, 0.0), (1.0, 1.0)])
            .render();
        assert!(svg.contains("a &lt; b &amp; c"));
        assert!(!svg.contains("a < b"));
    }
}
