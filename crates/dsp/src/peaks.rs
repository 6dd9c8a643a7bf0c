//! Peak detection with prominence filtering.
//!
//! Sec. V of the paper: "the traditional peak finding algorithm is applied on
//! each smoothed variance signal... the minimal prominence of the peaks is
//! set to 10 and 0.5 for the screen light and face-reflected light,
//! respectively." The algorithm below mirrors the scipy `find_peaks`
//! semantics: local maxima (plateau-aware) filtered by height, prominence
//! and minimum distance.

use crate::Signal;

/// A detected peak.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Peak {
    /// Sample index of the peak (middle of a plateau).
    pub index: usize,
    /// Signal value at the peak.
    pub height: f64,
    /// Topographic prominence of the peak.
    pub prominence: f64,
}

/// Selection criteria for [`find_peaks`].
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct PeakConfig {
    /// Minimum absolute height; `None` disables the check.
    pub min_height: Option<f64>,
    /// Minimum topographic prominence; `None` disables the check.
    pub min_prominence: Option<f64>,
    /// Minimum distance in samples between retained peaks; `None` disables
    /// the check. When two peaks are closer, the higher one wins.
    pub min_distance: Option<usize>,
}

impl PeakConfig {
    /// Creates a config with all criteria disabled.
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets the minimum height.
    pub fn min_height(mut self, h: f64) -> Self {
        self.min_height = Some(h);
        self
    }

    /// Sets the minimum prominence.
    pub fn min_prominence(mut self, p: f64) -> Self {
        self.min_prominence = Some(p);
        self
    }

    /// Sets the minimum inter-peak distance in samples.
    pub fn min_distance(mut self, d: usize) -> Self {
        self.min_distance = Some(d);
        self
    }
}

/// Indices of all strict local maxima; a flat plateau contributes its middle
/// sample. Endpoints are never peaks.
fn local_maxima(x: &[f64]) -> Vec<usize> {
    let n = x.len();
    let mut out = Vec::new();
    let mut i = 1;
    while i + 1 < n {
        if x[i] > x[i - 1] {
            // Walk a potential plateau.
            let start = i;
            while i + 1 < n && x[i + 1] == x[i] {
                i += 1;
            }
            if i + 1 < n && x[i + 1] < x[start] {
                out.push((start + i) / 2);
            }
        }
        i += 1;
    }
    out
}

/// Topographic prominence of the peak at `index`.
fn prominence_at(x: &[f64], index: usize) -> f64 {
    let height = x[index];
    // Left base: walk left until a strictly higher sample; track minimum.
    let mut left_min = height;
    let mut i = index;
    while i > 0 {
        i -= 1;
        if x[i] > height {
            break;
        }
        left_min = left_min.min(x[i]);
    }
    let mut right_min = height;
    let mut i = index;
    while i + 1 < x.len() {
        i += 1;
        if x[i] > height {
            break;
        }
        right_min = right_min.min(x[i]);
    }
    height - left_min.max(right_min)
}

/// Detects peaks in `x` according to `config`.
///
/// Peaks are returned sorted by index. The distance criterion is enforced
/// greedily from the highest peak down, matching scipy's behaviour.
///
/// # Example
///
/// ```
/// use lumen_dsp::peaks::{find_peaks, PeakConfig};
///
/// let x = [0.0, 1.0, 0.0, 5.0, 0.0, 0.4, 0.0];
/// let peaks = find_peaks(&x, &PeakConfig::new().min_prominence(0.5));
/// let idx: Vec<usize> = peaks.iter().map(|p| p.index).collect();
/// assert_eq!(idx, vec![1, 3]);
/// ```
pub fn find_peaks(x: &[f64], config: &PeakConfig) -> Vec<Peak> {
    let mut peaks: Vec<Peak> = local_maxima(x)
        .into_iter()
        .map(|index| Peak {
            index,
            height: x[index],
            prominence: prominence_at(x, index),
        })
        .filter(|p| config.min_height.is_none_or(|h| p.height >= h))
        .filter(|p| config.min_prominence.is_none_or(|pr| p.prominence >= pr))
        .collect();

    if let Some(dist) = config.min_distance {
        if dist > 1 {
            // Keep highest peaks first, discard any within `dist` of a kept one.
            let mut order: Vec<usize> = (0..peaks.len()).collect();
            order.sort_by(|&a, &b| peaks[b].height.total_cmp(&peaks[a].height));
            let mut keep = vec![true; peaks.len()];
            for &i in &order {
                if !keep[i] {
                    continue;
                }
                for (j, k) in keep.iter_mut().enumerate() {
                    if j != i
                        && *k
                        && peaks[i].index.abs_diff(peaks[j].index) < dist
                        && peaks[j].height <= peaks[i].height
                    {
                        *k = false;
                    }
                }
            }
            peaks = peaks
                .into_iter()
                .zip(keep)
                .filter_map(|(p, k)| k.then_some(p))
                .collect();
        }
    }
    peaks
}

/// Convenience wrapper over [`find_peaks`] returning peak *times* in seconds
/// for a [`Signal`].
pub fn find_peak_times(signal: &Signal, config: &PeakConfig) -> Vec<f64> {
    find_peaks(signal.samples(), config)
        .into_iter()
        .map(|p| signal.time_at(p.index))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn finds_simple_peaks() {
        let x = [0.0, 2.0, 0.0, 3.0, 0.0];
        let peaks = find_peaks(&x, &PeakConfig::new());
        assert_eq!(peaks.len(), 2);
        assert_eq!(peaks[0].index, 1);
        assert_eq!(peaks[1].index, 3);
    }

    #[test]
    fn endpoints_are_not_peaks() {
        let x = [5.0, 1.0, 0.0, 1.0, 5.0];
        let peaks = find_peaks(&x, &PeakConfig::new());
        assert!(peaks.is_empty());
    }

    #[test]
    fn plateau_reports_middle() {
        let x = [0.0, 1.0, 3.0, 3.0, 3.0, 1.0, 0.0];
        let peaks = find_peaks(&x, &PeakConfig::new());
        assert_eq!(peaks.len(), 1);
        assert_eq!(peaks[0].index, 3);
    }

    #[test]
    fn plateau_at_edge_is_not_a_peak() {
        let x = [0.0, 1.0, 3.0, 3.0];
        let peaks = find_peaks(&x, &PeakConfig::new());
        assert!(peaks.is_empty());
    }

    #[test]
    fn prominence_of_isolated_peak_is_height_above_baseline() {
        let x = [1.0, 1.0, 6.0, 1.0, 1.0];
        let peaks = find_peaks(&x, &PeakConfig::new());
        assert_eq!(peaks.len(), 1);
        assert!((peaks[0].prominence - 5.0).abs() < 1e-12);
    }

    #[test]
    fn prominence_of_shoulder_peak_is_small() {
        // Small bump riding on the flank of a big peak.
        let x = [0.0, 10.0, 4.0, 5.0, 0.0];
        let peaks = find_peaks(&x, &PeakConfig::new());
        let shoulder = peaks.iter().find(|p| p.index == 3).unwrap();
        assert!((shoulder.prominence - 1.0).abs() < 1e-12);
    }

    #[test]
    fn min_prominence_filters() {
        let x = [0.0, 10.0, 4.0, 5.0, 0.0, 8.0, 0.0];
        let peaks = find_peaks(&x, &PeakConfig::new().min_prominence(2.0));
        let idx: Vec<usize> = peaks.iter().map(|p| p.index).collect();
        assert_eq!(idx, vec![1, 5]);
    }

    #[test]
    fn min_height_filters() {
        let x = [0.0, 1.0, 0.0, 4.0, 0.0];
        let peaks = find_peaks(&x, &PeakConfig::new().min_height(2.0));
        assert_eq!(peaks.len(), 1);
        assert_eq!(peaks[0].index, 3);
    }

    #[test]
    fn min_distance_keeps_higher_peak() {
        let x = [0.0, 5.0, 0.0, 9.0, 0.0, 4.0, 0.0];
        let peaks = find_peaks(&x, &PeakConfig::new().min_distance(3));
        let idx: Vec<usize> = peaks.iter().map(|p| p.index).collect();
        assert_eq!(idx, vec![3]); // 1 and 5 are both within 3 of... actually |1-3|=2 <3, |5-3|=2 <3
    }

    #[test]
    fn min_distance_allows_far_peaks() {
        let x = [0.0, 5.0, 0.0, 0.0, 0.0, 9.0, 0.0];
        let peaks = find_peaks(&x, &PeakConfig::new().min_distance(3));
        assert_eq!(peaks.len(), 2);
    }

    #[test]
    fn empty_and_tiny_inputs() {
        assert!(find_peaks(&[], &PeakConfig::new()).is_empty());
        assert!(find_peaks(&[1.0], &PeakConfig::new()).is_empty());
        assert!(find_peaks(&[1.0, 2.0], &PeakConfig::new()).is_empty());
    }

    #[test]
    fn peak_times_use_sample_rate() {
        let mut v = vec![0.0; 21];
        v[10] = 5.0;
        let s = Signal::new(v, 10.0).unwrap();
        let times = find_peak_times(&s, &PeakConfig::new());
        assert_eq!(times, vec![1.0]);
    }
}
