//! Fig. 8 — weekly shift patterns of attack sources.
//!
//! The paper: *"we extract all the bots involved in DDoS attacks for each
//! family and aggregate the number of these bots per week ... Shifts are
//! categorized into two clusters based on their destination locations,
//! existing countries or new countries."* The headline observation is the
//! two-orders-of-magnitude gap: shifts overwhelmingly stay inside the
//! family's existing country footprint.

use std::collections::{HashMap, HashSet};

use ddos_schema::{CountryCode, Dataset, Family, IpAddr4};
use serde::{Deserialize, Serialize};

use crate::kernels::{cc_slot, KernelPolicy, CC_SLOTS};
use crate::util::BotIndex;

/// One week's aggregated shift counts (Fig. 8's stacked bars).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct WeekShift {
    /// Week index within the window.
    pub week: usize,
    /// Distinct bots attacking from countries the family had already
    /// used (the left, 10⁴-scale cluster).
    pub existing_country_bots: usize,
    /// Distinct bots attacking from countries first seen this week (the
    /// right, 10³-scale cluster).
    pub new_country_bots: usize,
}

/// The full shift-pattern analysis.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ShiftAnalysis {
    /// Per-week aggregate over all active families.
    pub weeks: Vec<WeekShift>,
}

impl ShiftAnalysis {
    /// Computes weekly shifts from attack participation.
    pub fn compute(ds: &Dataset, bots: &BotIndex) -> ShiftAnalysis {
        let window = ds.window();
        let num_weeks = window.num_weeks();
        let mut weeks = Self::empty_weeks(num_weeks);

        for family in Family::ACTIVE {
            // Distinct bots per week, with their countries.
            let mut weekly: Vec<HashMap<IpAddr4, CountryCode>> = vec![HashMap::new(); num_weeks];
            for a in ds.attacks_of(family) {
                let Some(w) = window.week_index(a.start) else {
                    continue;
                };
                for &ip in &a.sources {
                    if let Some((cc, _)) = bots.lookup(ip) {
                        weekly[w].insert(ip, cc);
                    }
                }
            }
            Self::classify_family(&mut weeks, &weekly);
        }
        ShiftAnalysis { weeks }
    }

    /// Context-based variant of [`ShiftAnalysis::compute`]: consumes the
    /// weekly bot maps already built (from the context's single
    /// geolocation join) instead of resolving every attack source again.
    pub fn compute_ctx(ctx: &crate::context::AnalysisContext) -> ShiftAnalysis {
        let num_weeks = ctx.records.window().num_weeks();
        let mut weeks = Self::empty_weeks(num_weeks);
        for fc in ctx.families() {
            if ctx.kernels.is_reference() {
                Self::classify_family(&mut weeks, &fc.weekly_bots);
            } else {
                Self::classify_family_dense(&mut weeks, &fc.weekly_bots, ctx.kernels);
            }
        }
        ShiftAnalysis { weeks }
    }

    fn empty_weeks(num_weeks: usize) -> Vec<WeekShift> {
        (0..num_weeks)
            .map(|week| WeekShift {
                week,
                existing_country_bots: 0,
                new_country_bots: 0,
            })
            .collect()
    }

    /// Classifies one family's weekly bot populations into existing- vs
    /// new-country shifts and accumulates the counts. Per-bot counts
    /// depend only on the *set* of countries seen so far, so map
    /// iteration order (and therefore the caller's choice of hasher)
    /// cannot affect the result.
    fn classify_family<S: std::hash::BuildHasher>(
        weeks: &mut [WeekShift],
        weekly: &[HashMap<IpAddr4, CountryCode, S>],
    ) {
        let mut seen: HashSet<CountryCode> = HashSet::new();
        for (w, bots_this_week) in weekly.iter().enumerate() {
            let fresh: HashSet<CountryCode> = bots_this_week
                .values()
                .copied()
                .filter(|cc| !seen.contains(cc))
                .collect();
            for cc in bots_this_week.values() {
                if fresh.contains(cc) {
                    weeks[w].new_country_bots += 1;
                } else {
                    weeks[w].existing_country_bots += 1;
                }
            }
            seen.extend(bots_this_week.values().copied());
        }
    }

    /// The chunked shift kernel: same classification as
    /// [`ShiftAnalysis::classify_family`], restated over a dense
    /// per-(week, country) count grid. One chunked pass over the weekly
    /// maps (the expensive hash iteration) accumulates the grid — pure
    /// integer adds into disjoint `(week, country)` cells, so any
    /// chunking merges to the same counts — and the classification then
    /// runs on the grid alone: a country's bots count as "new" exactly
    /// in its first active week, which is the set-based rule restated.
    fn classify_family_dense<S: std::hash::BuildHasher>(
        weeks: &mut [WeekShift],
        weekly: &[HashMap<IpAddr4, CountryCode, S>],
        policy: KernelPolicy,
    ) {
        let mut counts = vec![0u32; weekly.len() * CC_SLOTS];
        for range in policy.chunks(weekly.len()) {
            for w in range {
                let row = &mut counts[w * CC_SLOTS..(w + 1) * CC_SLOTS];
                for &cc in weekly[w].values() {
                    row[cc_slot(cc)] += 1;
                }
            }
        }
        const UNSEEN: u32 = u32::MAX;
        let mut first = [UNSEEN; CC_SLOTS];
        for w in 0..weekly.len() {
            for (slot, first_week) in first.iter_mut().enumerate() {
                if counts[w * CC_SLOTS + slot] > 0 {
                    *first_week = (*first_week).min(w as u32);
                }
            }
        }
        for w in 0..weekly.len() {
            for (slot, &first_week) in first.iter().enumerate() {
                let c = counts[w * CC_SLOTS + slot] as usize;
                if c == 0 {
                    continue;
                }
                if first_week == w as u32 {
                    weeks[w].new_country_bots += c;
                } else {
                    weeks[w].existing_country_bots += c;
                }
            }
        }
    }

    /// Total bots that shifted within existing countries across the
    /// window.
    pub fn total_existing(&self) -> usize {
        self.weeks.iter().map(|w| w.existing_country_bots).sum()
    }

    /// Total bots recruited in new countries across the window.
    pub fn total_new(&self) -> usize {
        self.weeks.iter().map(|w| w.new_country_bots).sum()
    }

    /// Ratio of existing- to new-country shifts — the paper's
    /// regionalization claim holds when this is roughly an order of
    /// magnitude or more (Fig. 8 plots the clusters on 10⁴ vs 10³ axes).
    pub fn regionalization_ratio(&self) -> Option<f64> {
        let new = self.total_new();
        if new == 0 {
            return None;
        }
        Some(self.total_existing() as f64 / new as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::overview::test_support::{attack, dataset};
    use ddos_schema::record::{BotRecord, Location};
    use ddos_schema::{Asn, BotnetId, CityId, DatasetBuilder, LatLon, OrgId, Timestamp};

    /// Builds a dataset where family attacks reference bots in known
    /// countries across weeks.
    fn shift_dataset() -> Dataset {
        let mut b = DatasetBuilder::new(crate::overview::test_support::window());
        let bot = |ip: u8, cc: &str| BotRecord {
            ip: IpAddr4::from_octets(203, 0, 113, ip),
            botnet: BotnetId(1),
            family: Family::Dirtjumper,
            location: Location {
                country: cc.parse().unwrap(),
                city: CityId(1),
                org: OrgId(1),
                asn: Asn(64_001),
                coords: LatLon::new_unchecked(50.0, 30.0),
            },
            first_seen: Timestamp(0),
            last_seen: Timestamp(100_000),
        };
        b.push_bot(bot(1, "RU")).unwrap();
        b.push_bot(bot(2, "RU")).unwrap();
        b.push_bot(bot(3, "UA")).unwrap();
        // Week 0: two RU bots. Week 1: an RU bot (existing) and a UA bot
        // (new country).
        let mut a1 = attack(Family::Dirtjumper, 1, 100, 10, 1);
        a1.sources = vec![
            IpAddr4::from_octets(203, 0, 113, 1),
            IpAddr4::from_octets(203, 0, 113, 2),
        ];
        let mut a2 = attack(Family::Dirtjumper, 2, 7 * 86_400 + 100, 10, 1);
        a2.sources = vec![
            IpAddr4::from_octets(203, 0, 113, 1),
            IpAddr4::from_octets(203, 0, 113, 3),
        ];
        b.push_attack(a1).unwrap();
        b.push_attack(a2).unwrap();
        b.build().unwrap()
    }

    #[test]
    fn classifies_existing_vs_new_countries() {
        let ds = shift_dataset();
        let idx = BotIndex::build(&ds);
        let s = ShiftAnalysis::compute(&ds, &idx);
        // Week 0: RU first appears → both bots count as new-country.
        assert_eq!(s.weeks[0].new_country_bots, 2);
        assert_eq!(s.weeks[0].existing_country_bots, 0);
        // Week 1: RU is existing, UA is new.
        assert_eq!(s.weeks[1].existing_country_bots, 1);
        assert_eq!(s.weeks[1].new_country_bots, 1);
        assert_eq!(s.total_existing(), 1);
        assert_eq!(s.total_new(), 3);
    }

    #[test]
    fn ratio_none_when_no_new_countries() {
        let ds = dataset(vec![]);
        let idx = BotIndex::build(&ds);
        let s = ShiftAnalysis::compute(&ds, &idx);
        assert_eq!(s.regionalization_ratio(), None);
        assert_eq!(s.total_existing() + s.total_new(), 0);
    }

    #[test]
    fn dense_kernel_matches_set_classifier_for_every_chunking() {
        // Weeks with repeats, gaps, and same-week multi-country mixes.
        let cc = |s: &str| -> CountryCode { s.parse().unwrap() };
        let ip = |n: u8| IpAddr4::from_octets(10, 0, 0, n);
        let weekly: Vec<HashMap<IpAddr4, CountryCode>> = vec![
            [(ip(1), cc("RU")), (ip(2), cc("RU")), (ip(3), cc("UA"))]
                .into_iter()
                .collect(),
            HashMap::new(),
            [(ip(1), cc("RU")), (ip(4), cc("DE")), (ip(5), cc("DE"))]
                .into_iter()
                .collect(),
            [(ip(3), cc("UA")), (ip(6), cc("BR"))].into_iter().collect(),
        ];
        let mut expect = ShiftAnalysis::empty_weeks(weekly.len());
        ShiftAnalysis::classify_family(&mut expect, &weekly);
        for policy in [
            KernelPolicy::Auto,
            KernelPolicy::Chunked(1),
            KernelPolicy::Chunked(3),
            KernelPolicy::Chunked(100),
        ] {
            let mut got = ShiftAnalysis::empty_weeks(weekly.len());
            ShiftAnalysis::classify_family_dense(&mut got, &weekly, policy);
            assert_eq!(got, expect, "{policy:?}");
        }
    }

    #[test]
    fn unresolvable_sources_are_skipped() {
        // Attack sources missing from the Botlist are ignored, not
        // fabricated.
        let ds = dataset(vec![attack(Family::Dirtjumper, 1, 100, 10, 1)]);
        let idx = BotIndex::build(&ds); // empty Botlist
        let s = ShiftAnalysis::compute(&ds, &idx);
        assert_eq!(s.total_existing() + s.total_new(), 0);
    }
}
