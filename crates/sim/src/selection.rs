//! SNR-band user selection (paper §5.2 methodology).
//!
//! "We consider three SNR ranges, 15 dB ±5 dB, 20 dB ±5 dB, and 25 dB ±5
//! dB, where the quoted SNR is the average SNR over all transmitted
//! streams. Selecting users in a small SNR range around a specific value is
//! a practical user selection method to keep the condition number small."

use gs_channel::Testbed;

/// A selected uplink group: one AP, a set of clients, and the group's
/// average link SNR.
#[derive(Clone, Debug)]
pub struct UserGroup {
    /// AP index in the testbed.
    pub ap: usize,
    /// Client indices.
    pub clients: Vec<usize>,
    /// Mean large-scale link SNR over the group (dB).
    pub mean_snr_db: f64,
}

/// Selects up to `max_groups` groups of `n_clients` whose per-client link
/// SNRs all fall within `target ± half_width` dB, preferring groups whose
/// mean is closest to the target. Falls back to closest-mean groups when
/// the strict band is under-populated (mirroring a real measurement
/// campaign that reuses the positions it has).
pub fn select_groups(
    tb: &Testbed,
    n_clients: usize,
    target_snr_db: f64,
    half_width_db: f64,
    max_groups: usize,
) -> Vec<UserGroup> {
    let mut in_band: Vec<UserGroup> = Vec::new();
    let mut near_band: Vec<(f64, UserGroup)> = Vec::new();

    for ap in 0..tb.aps.len() {
        for subset in tb.client_subsets(n_clients) {
            let snrs: Vec<f64> = subset.iter().map(|&c| tb.link_snr_db(ap, c)).collect();
            let mean = snrs.iter().sum::<f64>() / snrs.len() as f64;
            let group = UserGroup { ap, clients: subset, mean_snr_db: mean };
            let all_in = snrs.iter().all(|s| (s - target_snr_db).abs() <= half_width_db);
            if all_in {
                in_band.push(group);
            } else {
                near_band.push(((mean - target_snr_db).abs(), group));
            }
        }
    }

    in_band.sort_by(|a, b| {
        (a.mean_snr_db - target_snr_db).abs().total_cmp(&(b.mean_snr_db - target_snr_db).abs())
    });
    if in_band.len() >= max_groups {
        in_band.truncate(max_groups);
        return in_band;
    }
    near_band.sort_by(|a, b| a.0.total_cmp(&b.0));
    in_band.extend(near_band.into_iter().map(|(_, g)| g).take(max_groups - in_band.len()));
    in_band
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nan_target_snr_returns_without_panicking() {
        // Every group lands out of band with a NaN distance; the sort must
        // still return the requested count.
        let groups = select_groups(&Testbed::office(), 2, f64::NAN, 5.0, 3);
        assert_eq!(groups.len(), 3);
    }

    #[test]
    fn selects_requested_count() {
        let tb = Testbed::office();
        for n in 1..=4 {
            let groups = select_groups(&tb, n, 20.0, 5.0, 6);
            assert_eq!(groups.len(), 6, "n = {n}");
            for g in &groups {
                assert_eq!(g.clients.len(), n);
                assert!(g.ap < tb.aps.len());
            }
        }
    }

    #[test]
    fn groups_ordered_by_band_fit() {
        let tb = Testbed::office();
        let groups = select_groups(&tb, 2, 20.0, 5.0, 10);
        // The first group's mean must be the best fit of the list's
        // in-band prefix.
        let d0 = (groups[0].mean_snr_db - 20.0).abs();
        assert!(d0 <= (groups[1].mean_snr_db - 20.0).abs() + 10.0);
        // All selected groups have plausible SNRs.
        for g in &groups {
            assert!(g.mean_snr_db.is_finite());
        }
    }

    #[test]
    fn different_targets_select_different_groups() {
        let tb = Testbed::office();
        let low = select_groups(&tb, 2, 12.0, 5.0, 5);
        let high = select_groups(&tb, 2, 28.0, 5.0, 5);
        assert!(low[0].mean_snr_db < high[0].mean_snr_db);
    }
}
