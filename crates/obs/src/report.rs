//! Renders a [`Snapshot`] as an aligned text table (the per-stage latency
//! breakdown of the paper's Sec. IX overhead analysis).

use crate::registry::Snapshot;

fn table(out: &mut String, title: &str, headers: &[&str], rows: &[Vec<String>]) {
    if rows.is_empty() {
        return;
    }
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            widths[i] = widths[i].max(cell.len());
        }
    }
    out.push_str(&format!("### {title}\n"));
    let header: Vec<String> = headers
        .iter()
        .enumerate()
        .map(|(i, h)| format!("{:>width$}", h, width = widths[i]))
        .collect();
    let header = header.join("  ");
    out.push_str(&header);
    out.push('\n');
    out.push_str(&"-".repeat(header.len()));
    out.push('\n');
    for row in rows {
        let line: Vec<String> = row
            .iter()
            .enumerate()
            .map(|(i, c)| format!("{:>width$}", c, width = widths[i]))
            .collect();
        out.push_str(&line.join("  "));
        out.push('\n');
    }
    out.push('\n');
}

fn ms(v: f64) -> String {
    format!("{v:.3}")
}

/// Renders the snapshot as aligned text tables: spans (the stage-latency
/// breakdown), counters, gauges and histograms. Empty sections are omitted.
pub fn render_text(snapshot: &Snapshot) -> String {
    let mut out = String::new();
    table(
        &mut out,
        "Stage latency (ms)",
        &[
            "stage", "calls", "total", "mean", "p50", "p90", "p99", "p99.9", "max",
        ],
        &snapshot
            .spans
            .iter()
            .map(|s| {
                vec![
                    s.name.clone(),
                    s.count.to_string(),
                    ms(s.total_ms),
                    ms(s.mean_ms),
                    ms(s.p50_ms),
                    ms(s.p90_ms),
                    ms(s.p99_ms),
                    ms(s.p999_ms),
                    ms(s.max_ms),
                ]
            })
            .collect::<Vec<_>>(),
    );
    table(
        &mut out,
        "Counters",
        &["counter", "value"],
        &snapshot
            .counters
            .iter()
            .map(|c| vec![c.name.clone(), c.value.to_string()])
            .collect::<Vec<_>>(),
    );
    table(
        &mut out,
        "Gauges",
        &["gauge", "value"],
        &snapshot
            .gauges
            .iter()
            .map(|g| vec![g.name.clone(), format!("{:.4}", g.value)])
            .collect::<Vec<_>>(),
    );
    table(
        &mut out,
        "Distributions",
        &["metric", "count", "mean", "p50", "p90", "p99", "min", "max"],
        &snapshot
            .histograms
            .iter()
            .map(|h| {
                vec![
                    h.name.clone(),
                    h.count.to_string(),
                    format!("{:.4}", h.mean),
                    format!("{:.4}", h.p50),
                    format!("{:.4}", h.p90),
                    format!("{:.4}", h.p99),
                    format!("{:.4}", h.min),
                    format!("{:.4}", h.max),
                ]
            })
            .collect::<Vec<_>>(),
    );
    if out.is_empty() {
        out.push_str("(no observability data recorded)\n");
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{Event, EventKind};
    use crate::registry::Registry;

    fn snapshot() -> Snapshot {
        let mut r = Registry::new();
        r.absorb(&Event {
            seq: 0,
            kind: EventKind::SpanEnd,
            name: "preprocess".to_string(),
            parent: None,
            depth: 1,
            session: None,
            clip: None,
            value: None,
            duration_ns: Some(1_500_000),
            detail: None,
        });
        r.absorb(&Event {
            seq: 1,
            kind: EventKind::CounterAdd,
            name: "detector.accepted".to_string(),
            parent: None,
            depth: 0,
            session: None,
            clip: None,
            value: Some(3.0),
            duration_ns: None,
            detail: None,
        });
        r.snapshot()
    }

    #[test]
    fn text_report_contains_all_sections_present() {
        let text = render_text(&snapshot());
        assert!(text.contains("Stage latency"));
        assert!(text.contains("preprocess"));
        assert!(text.contains("Counters"));
        assert!(text.contains("detector.accepted"));
        assert!(!text.contains("Gauges"), "empty sections are omitted");
    }

    #[test]
    fn empty_snapshot_renders_placeholder() {
        let text = render_text(&Registry::new().snapshot());
        assert!(text.contains("no observability data"));
    }
}
