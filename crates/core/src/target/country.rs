//! Table V — country-level victim preferences per family.
//!
//! The paper observes that each botnet family concentrates on a small
//! set of countries (Dirtjumper on the US, Nitol and Darkshell on
//! China, ...). A profile counts attacks by the target's country and
//! ranks the result.

use std::collections::HashMap;

use ddos_schema::{CountryCode, Family, Records};
use serde::{Deserialize, Serialize};

use crate::kernels::{cc_of_slot, cc_slot, CC_SLOTS};

/// One family's victim-country ranking.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct FamilyCountryProfile {
    /// The attacking family.
    pub family: Family,
    /// `(country, attacks)` sorted by attacks descending (ties broken by
    /// country code so the ranking is deterministic).
    pub by_country: Vec<(CountryCode, usize)>,
    /// Number of distinct victim countries.
    pub countries: usize,
}

impl FamilyCountryProfile {
    /// Counts this family's attacks per victim country.
    pub fn compute<'a>(records: impl Into<Records<'a>>, family: Family) -> FamilyCountryProfile {
        let mut counts: HashMap<CountryCode, usize> = HashMap::new();
        for atk in records.into().attacks() {
            if atk.family == family {
                *counts.entry(atk.target.country).or_insert(0) += 1;
            }
        }
        let by_country = rank(counts);
        FamilyCountryProfile {
            family,
            countries: by_country.len(),
            by_country,
        }
    }

    /// The family's most-attacked country, if it attacked at all.
    pub fn favourite(&self) -> Option<CountryCode> {
        self.by_country.first().map(|&(cc, _)| cc)
    }

    /// The top `k` countries (fewer if the family hit fewer).
    pub fn top(&self, k: usize) -> &[(CountryCode, usize)] {
        &self.by_country[..k.min(self.by_country.len())]
    }
}

/// Table V for every active family, in `Family::ACTIVE` order.
pub fn all_profiles<'a>(records: impl Into<Records<'a>>) -> Vec<FamilyCountryProfile> {
    let records = records.into();
    Family::ACTIVE
        .into_iter()
        .map(|family| FamilyCountryProfile::compute(records, family))
        .collect()
}

/// The overall top `k` victim countries across every family.
pub fn overall_top_countries<'a>(
    records: impl Into<Records<'a>>,
    k: usize,
) -> Vec<(CountryCode, usize)> {
    let mut counts: HashMap<CountryCode, usize> = HashMap::new();
    for atk in records.into().attacks() {
        *counts.entry(atk.target.country).or_insert(0) += 1;
    }
    let mut ranked = rank(counts);
    ranked.truncate(k);
    ranked
}

/// The chunked profile kernel behind [`all_profiles`]: one scan over
/// the trace accumulates a dense `(family, country)` count grid as
/// per-chunk integer partials (disjoint cells, so any chunking merges
/// to the same counts), replacing the reference path's one full-trace
/// scan *per family*. Ranking then runs on the grid alone, with the
/// same total order as [`all_profiles`] — identical profiles.
pub fn all_profiles_ctx(ctx: &crate::context::AnalysisContext) -> Vec<FamilyCountryProfile> {
    if ctx.kernels.is_reference() {
        return all_profiles(ctx.records);
    }
    let attacks = ctx.records.attacks();
    // `Family::ACTIVE` lists the variants in discriminant order, so the
    // discriminant doubles as the row index.
    let mut grid = vec![0u32; Family::ACTIVE.len() * CC_SLOTS];
    for range in ctx.kernels.chunks(attacks.len()) {
        for a in &attacks[range] {
            if a.family.is_active() {
                grid[(a.family as usize) * CC_SLOTS + cc_slot(a.target.country)] += 1;
            }
        }
    }
    Family::ACTIVE
        .into_iter()
        .enumerate()
        .map(|(row, family)| {
            let by_country = rank_dense(&grid[row * CC_SLOTS..(row + 1) * CC_SLOTS]);
            FamilyCountryProfile {
                family,
                countries: by_country.len(),
                by_country,
            }
        })
        .collect()
}

/// The chunked kernel behind [`overall_top_countries`]: the same dense
/// count grid over a single country row.
pub fn overall_top_countries_ctx(
    ctx: &crate::context::AnalysisContext,
    k: usize,
) -> Vec<(CountryCode, usize)> {
    if ctx.kernels.is_reference() {
        return overall_top_countries(ctx.records, k);
    }
    let attacks = ctx.records.attacks();
    let mut row = vec![0u32; CC_SLOTS];
    for range in ctx.kernels.chunks(attacks.len()) {
        for a in &attacks[range] {
            row[cc_slot(a.target.country)] += 1;
        }
    }
    let mut ranked = rank_dense(&row);
    ranked.truncate(k);
    ranked
}

fn rank(counts: HashMap<CountryCode, usize>) -> Vec<(CountryCode, usize)> {
    let mut ranked: Vec<(CountryCode, usize)> = counts.into_iter().collect();
    ranked.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
    ranked
}

/// Ranks the non-zero cells of a dense country row with the exact
/// comparator of [`rank`] — same `(country, count)` set, same total
/// order, so the output matches the hash-map path entry for entry.
fn rank_dense(row: &[u32]) -> Vec<(CountryCode, usize)> {
    let mut ranked: Vec<(CountryCode, usize)> = row
        .iter()
        .enumerate()
        .filter(|&(_, &n)| n > 0)
        .map(|(slot, &n)| (cc_of_slot(slot), n as usize))
        .collect();
    ranked.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
    ranked
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::overview::test_support::{attack, dataset};

    #[test]
    fn profile_counts_and_ranks() {
        let ds = dataset(vec![
            attack(Family::Dirtjumper, 1, 100, 60, 1),
            attack(Family::Dirtjumper, 2, 200, 60, 2),
            attack(Family::Pandora, 3, 300, 60, 3),
        ]);
        let p = FamilyCountryProfile::compute(&ds, Family::Dirtjumper);
        assert_eq!(p.by_country.iter().map(|&(_, n)| n).sum::<usize>(), 2);
        assert_eq!(p.countries, p.by_country.len());
        assert!(p.favourite().is_some());
        assert!(p.top(1).len() == 1);

        let empty = FamilyCountryProfile::compute(&ds, Family::Nitol);
        assert!(empty.favourite().is_none());
        assert!(empty.top(5).is_empty());
    }

    #[test]
    fn overall_counts_every_attack() {
        let ds = dataset(vec![
            attack(Family::Dirtjumper, 1, 100, 60, 1),
            attack(Family::Pandora, 2, 200, 60, 1),
        ]);
        let top = overall_top_countries(&ds, 5);
        assert_eq!(top.iter().map(|&(_, n)| n).sum::<usize>(), 2);
    }

    #[test]
    fn dense_kernels_match_hash_ranking_for_every_chunking() {
        use crate::kernels::KernelPolicy;
        // Ties (two countries with one attack each) exercise the
        // comparator's country-code tiebreak.
        let ds = dataset(vec![
            attack(Family::Dirtjumper, 1, 100, 60, 1),
            attack(Family::Dirtjumper, 2, 200, 60, 1),
            attack(Family::Dirtjumper, 3, 300, 60, 2),
            attack(Family::Pandora, 4, 400, 60, 3),
            attack(Family::Yzf, 5, 500, 60, 2),
        ]);
        let expect_profiles = serde_json::to_string(&all_profiles(&ds)).unwrap();
        let expect_top = overall_top_countries(&ds, 3);
        for policy in [
            KernelPolicy::Reference,
            KernelPolicy::Auto,
            KernelPolicy::Chunked(1),
            KernelPolicy::Chunked(2),
            KernelPolicy::Chunked(100),
        ] {
            let ctx = crate::context::AnalysisContext::new(&ds).with_kernels(policy);
            assert_eq!(
                serde_json::to_string(&all_profiles_ctx(&ctx)).unwrap(),
                expect_profiles,
                "{policy:?}"
            );
            assert_eq!(overall_top_countries_ctx(&ctx, 3), expect_top, "{policy:?}");
        }
    }

    #[test]
    fn profiles_cover_active_families() {
        let ds = dataset(vec![attack(Family::Dirtjumper, 1, 100, 60, 1)]);
        let profiles = all_profiles(&ds);
        assert_eq!(profiles.len(), Family::ACTIVE.len());
    }
}
