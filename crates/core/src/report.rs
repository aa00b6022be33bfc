//! Result containers and plain-text/JSON rendering for the harness.
//!
//! JSON goes through the in-crate [`crate::json`] module (the build
//! environment is offline, so there is no serde): one field table per
//! type writes the report layout and reads it back, so `to_json` and
//! `from_json` round-trip by construction.

use crate::json::{self, Json, Value};
use crate::sweep::{SaturationReport, SweepPoint};
use wsdf_sim::json_object;

/// An (x, y) pair of a rendered series.
#[derive(Debug, Clone, Copy)]
pub struct Point {
    /// X value (offered load, flits/cycle/chip).
    pub x: f64,
    /// Y value (latency in cycles, or accepted rate).
    pub y: f64,
}

/// One labeled series of a figure.
#[derive(Debug, Clone)]
pub struct Curve {
    /// Legend label (matches the paper's: "SW-based", "SW-less-2B", ...).
    pub label: String,
    /// Measured sweep points.
    pub points: Vec<SweepPoint>,
}

impl Curve {
    /// Wrap sweep output.
    pub fn new(label: impl Into<String>, points: Vec<SweepPoint>) -> Self {
        Curve {
            label: label.into(),
            points,
        }
    }

    /// Latency-vs-offered-load series (the paper's figure axes).
    pub fn latency_series(&self) -> Vec<Point> {
        self.points
            .iter()
            .map(|p| Point {
                x: p.offered_chip,
                y: p.latency,
            })
            .collect()
    }

    /// Highest accepted throughput, flits/cycle/chip.
    pub fn saturation(&self) -> f64 {
        crate::sweep::saturation_rate(&self.points)
    }

    /// Render as aligned text rows.
    pub fn render(&self) -> String {
        let mut s = format!(
            "  {:<18} {:>10} {:>12} {:>8} {:>8} {:>8} {:>12} {:>6}\n",
            self.label, "offered", "latency(cyc)", "p50", "p95", "p99", "accepted", "sat"
        );
        for p in &self.points {
            s.push_str(&format!(
                "  {:<18} {:>10.3} {:>12.1} {:>8.1} {:>8.1} {:>8.1} {:>12.3} {:>6}\n",
                "",
                p.offered_chip,
                p.latency,
                p.p50,
                p.p95,
                p.p99,
                p.accepted_chip,
                if p.saturated { "*" } else { "" }
            ));
        }
        s
    }
}

/// A whole figure: several curves plus context.
#[derive(Debug, Clone)]
pub struct Figure {
    /// Figure id ("fig10a", "fig13b", ...).
    pub id: String,
    /// Human title.
    pub title: String,
    /// All series.
    pub curves: Vec<Curve>,
}

impl Figure {
    /// Create an empty figure.
    pub fn new(id: impl Into<String>, title: impl Into<String>) -> Self {
        Figure {
            id: id.into(),
            title: title.into(),
            curves: Vec::new(),
        }
    }

    /// Add a series.
    pub fn push(&mut self, curve: Curve) {
        self.curves.push(curve);
    }

    /// Render the figure as text (harness output).
    pub fn render(&self) -> String {
        let mut s = format!("== {} — {} ==\n", self.id, self.title);
        for c in &self.curves {
            s.push_str(&c.render());
        }
        let sats: Vec<String> = self
            .curves
            .iter()
            .map(|c| format!("{} = {:.2}", c.label, c.saturation()))
            .collect();
        s.push_str(&format!(
            "  saturation throughput (flits/cycle/chip): {}\n",
            sats.join(", ")
        ));
        s
    }

    /// The report document, the digested text of `open_loop` scenarios.
    pub fn to_json(&self) -> String {
        json::to_block(self)
    }

    /// Parse a figure previously written by [`Figure::to_json`].
    pub fn from_json(text: &str) -> Result<Figure, String> {
        Figure::read(&Value::parse(text)?, "report")
    }
}

json_object!(Figure, Figure::new("", ""); id, title, curves);

json_object!(Curve, Curve::new("", Vec::new()); label, points);

// The percentiles read as NaN and the stepping counters as 0 when absent,
// so points recorded before those fields existed still load.
json_object!(SweepPoint, SweepPoint {
        p50: f64::NAN, p95: f64::NAN, p99: f64::NAN, latency_max: f64::NAN, ..Default::default()
    };
    offered_chip, offered_node, latency, p50?, p95?, p99?, latency_max?, accepted_chip,
    accepted_node, delivered, saturated, busy_cycles?, skipped_cycles?,
);

/// The adaptive report document: a [`SaturationReport`] under its bench
/// label.
#[derive(Default)]
struct AdaptiveDoc {
    label: String,
    sat_chip: f64,
    sat_node: f64,
    zero_load_latency: f64,
    points: Vec<SweepPoint>,
}

json_object!(AdaptiveDoc, AdaptiveDoc::default();
    label, sat_chip, sat_node, zero_load_latency, points,
);

impl SaturationReport {
    /// The report document (`label` names the bench/workload, matching
    /// the curve labels of the figure files).
    pub fn to_json(&self, label: &str) -> String {
        json::to_block(&AdaptiveDoc {
            label: label.to_string(),
            sat_chip: self.sat_chip,
            sat_node: self.sat_node,
            zero_load_latency: self.zero_load_latency,
            points: self.points.clone(),
        })
    }

    /// Parse a report previously written by
    /// [`to_json`](Self::to_json). Returns `(label, report)`.
    pub fn from_json(text: &str) -> Result<(String, Self), String> {
        let doc = AdaptiveDoc::read(&Value::parse(text)?, "report")?;
        let report = SaturationReport {
            sat_chip: doc.sat_chip,
            sat_node: doc.sat_node,
            zero_load_latency: doc.zero_load_latency,
            points: doc.points,
        };
        Ok((doc.label, report))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pt(offered: f64, lat: f64, acc: f64) -> SweepPoint {
        SweepPoint {
            offered_chip: offered,
            offered_node: offered / 4.0,
            latency: lat,
            p50: lat * 0.9,
            p95: lat * 1.5,
            p99: lat * 2.0,
            latency_max: lat * 3.0,
            accepted_chip: acc,
            accepted_node: acc / 4.0,
            delivered: 1.0,
            saturated: false,
            busy_cycles: 1000,
            skipped_cycles: 200,
        }
    }

    #[test]
    fn curve_saturation_is_max_accepted() {
        let c = Curve::new(
            "x",
            vec![pt(0.4, 10.0, 0.4), pt(0.8, 12.0, 0.8), pt(1.2, 80.0, 0.9)],
        );
        assert_eq!(c.saturation(), 0.9);
        assert_eq!(c.latency_series().len(), 3);
    }

    #[test]
    fn figure_renders_and_serializes() {
        let mut f = Figure::new("fig10a", "Intra-C-group: Uniform");
        f.push(Curve::new("2D-Mesh", vec![pt(0.4, 9.0, 0.4)]));
        f.push(Curve::new("Switch", vec![pt(0.4, 8.0, 0.4)]));
        let txt = f.render();
        assert!(txt.contains("fig10a"));
        assert!(txt.contains("2D-Mesh"));
        let json = f.to_json();
        let back = Figure::from_json(&json).unwrap();
        assert_eq!(back.curves.len(), 2);
        assert_eq!(back.id, "fig10a");
        assert_eq!(back.curves[0].label, "2D-Mesh");
        assert_eq!(back.curves[0].points, f.curves[0].points);
    }

    #[test]
    fn points_without_percentiles_still_parse() {
        // Figure files recorded before the percentile fields existed must
        // still load; the missing fields read as NaN.
        let json = r#"{
          "id": "old", "title": "t",
          "curves": [{"label": "c", "points": [
            {"offered_chip": 0.4, "offered_node": 0.1, "latency": 9,
             "accepted_chip": 0.4, "accepted_node": 0.1, "delivered": 1,
             "saturated": false}
          ]}]
        }"#;
        let fig = Figure::from_json(json).unwrap();
        let p = &fig.curves[0].points[0];
        assert_eq!(p.latency, 9.0);
        assert!(p.p50.is_nan() && p.p95.is_nan() && p.p99.is_nan());
        assert!(p.latency_max.is_nan());
    }

    #[test]
    fn saturation_report_round_trips() {
        let report = SaturationReport {
            sat_chip: 2.4,
            sat_node: 0.6,
            zero_load_latency: 11.5,
            points: vec![pt(0.4, 10.0, 0.4), pt(2.4, 60.0, 2.3)],
        };
        let json = report.to_json("2D-Mesh");
        assert!(json.contains("\"p95\""));
        let (label, back) = SaturationReport::from_json(&json).unwrap();
        assert_eq!(label, "2D-Mesh");
        assert_eq!(back, report);
    }

    #[test]
    fn report_layout_matches_the_pinned_bytes() {
        let mut f = Figure::new("f", "t");
        assert_eq!(
            f.to_json(),
            "{\n  \"id\": \"f\",\n  \"title\": \"t\",\n  \"curves\": [\n  ]\n}\n"
        );
        f.push(Curve::new("c", Vec::new()));
        assert_eq!(
            f.to_json(),
            "{\n  \"id\": \"f\",\n  \"title\": \"t\",\n  \"curves\": [\n    {\n      \
             \"label\": \"c\",\n      \"points\": [\n      ]\n    }\n  ]\n}\n"
        );
        let report = SaturationReport {
            sat_chip: f64::NAN,
            sat_node: 0.5,
            zero_load_latency: 1.0,
            points: Vec::new(),
        };
        assert_eq!(
            report.to_json("x"),
            "{\n  \"label\": \"x\",\n  \"sat_chip\": null,\n  \"sat_node\": 0.5,\n  \
             \"zero_load_latency\": 1,\n  \"points\": [\n  ]\n}\n"
        );
    }

    #[test]
    fn infinite_latency_round_trips_as_nan() {
        let mut p = pt(0.4, 0.0, 0.1);
        p.latency = f64::INFINITY;
        let mut f = Figure::new("x", "t");
        f.push(Curve::new("c", vec![p]));
        let back = Figure::from_json(&f.to_json()).unwrap();
        assert!(back.curves[0].points[0].latency.is_nan());
    }
}
