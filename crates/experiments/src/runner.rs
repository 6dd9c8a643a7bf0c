//! Shared experiment infrastructure: parallel mapping, dataset helpers and
//! table rendering.

use crate::ExpResult;
use lumen_chat::scenario::ScenarioBuilder;
use lumen_core::dataset;
use lumen_core::features::FeatureVector;
use lumen_core::Config;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Maps `f` over `items` on scoped worker threads with dynamic load
/// balancing, preserving input order in the output.
///
/// Workers claim the next unclaimed index from a shared counter, so a slow
/// item never holds up the rest of the queue.
///
/// # Errors
///
/// Propagates the first error any worker produced.
pub fn parallel_map<T, R, F>(items: Vec<T>, f: F) -> ExpResult<Vec<R>>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> ExpResult<R> + Sync,
{
    let workers = std::thread::available_parallelism()
        .map_or(4, |n| n.get())
        .min(items.len());
    let next = AtomicUsize::new(0);
    let done: Vec<Vec<(usize, ExpResult<R>)>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                scope.spawn(|| {
                    let mut out = Vec::new();
                    loop {
                        // Relaxed: the index publishes no data; items are
                        // shared read-only and results return through join.
                        let idx = next.fetch_add(1, Ordering::Relaxed);
                        let Some(item) = items.get(idx) else { break };
                        out.push((idx, f(item)));
                    }
                    out
                })
            })
            .collect();
        handles
            .into_iter()
            // lint:allow(no-panic): a worker panic is unrecoverable;
            // re-raising it on join is the scoped-thread contract
            .map(|h| h.join().expect("experiment worker panicked"))
            .collect()
    });
    let mut slots: Vec<Option<ExpResult<R>>> = (0..items.len()).map(|_| None).collect();
    for (idx, r) in done.into_iter().flatten() {
        slots[idx] = Some(r);
    }
    slots
        .into_iter()
        // lint:allow(no-panic): every index is claimed exactly once and
        // each claimed item writes back its own slot
        .map(|s| s.expect("every task completed"))
        .collect()
}

/// Legitimate + attack feature sets for one volunteer (`clips` of each),
/// with disjoint deterministic seed blocks per user.
///
/// # Errors
///
/// Propagates simulation errors.
pub fn user_features(
    builder: &ScenarioBuilder,
    user: usize,
    clips: usize,
    config: &Config,
) -> ExpResult<(Vec<FeatureVector>, Vec<FeatureVector>)> {
    let legit_base = 100_000 + (user as u64) * 1_000;
    let attack_base = 500_000 + (user as u64) * 1_000;
    let legit = dataset::legitimate_features(builder, user, clips, legit_base, config)?;
    let attack = dataset::attack_features(builder, user, clips, attack_base, config)?;
    Ok((legit, attack))
}

/// Formats a fraction as a percentage with one decimal.
pub fn pct(x: f64) -> String {
    format!("{:5.1}%", 100.0 * x)
}

/// Renders a simple aligned table to a string.
pub fn render_table(title: &str, headers: &[&str], rows: &[Vec<String>]) -> String {
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let mut out = String::new();
    out.push_str(&format!("## {title}\n"));
    let header_line: Vec<String> = headers
        .iter()
        .enumerate()
        .map(|(i, h)| format!("{:>width$}", h, width = widths[i]))
        .collect();
    out.push_str(&header_line.join("  "));
    out.push('\n');
    out.push_str(&"-".repeat(header_line.join("  ").len()));
    out.push('\n');
    for row in rows {
        let line: Vec<String> = row
            .iter()
            .enumerate()
            .map(|(i, c)| format!("{:>width$}", c, width = widths.get(i).copied().unwrap_or(0)))
            .collect();
        out.push_str(&line.join("  "));
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parallel_map_preserves_order() {
        let items: Vec<u64> = (0..37).collect();
        let out = parallel_map(items.clone(), |&x| Ok(x * 2)).unwrap();
        assert_eq!(out, items.iter().map(|x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn parallel_map_propagates_errors() {
        let items: Vec<u64> = (0..10).collect();
        let out = parallel_map(items, |&x| if x == 7 { Err("boom".into()) } else { Ok(x) });
        assert!(out.is_err());
    }

    #[test]
    fn table_renders_aligned() {
        let t = render_table(
            "demo",
            &["user", "tar"],
            &[
                vec!["user-1".into(), "92.5%".into()],
                vec!["user-2".into(), "93.0%".into()],
            ],
        );
        assert!(t.contains("## demo"));
        assert!(t.contains("user-1"));
        assert_eq!(t.lines().count(), 5);
    }

    #[test]
    fn pct_formats() {
        assert_eq!(pct(0.925), " 92.5%");
    }
}
