//! Fig. 1 / Table II — attack transport popularity.

use ddos_schema::{Family, Protocol, Records};
use serde::{Deserialize, Serialize};

/// Attack counts per protocol across the whole trace (Fig. 1).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ProtocolPopularity {
    /// `(protocol, attacks)` for every protocol with at least one attack,
    /// sorted by count descending.
    pub counts: Vec<(Protocol, usize)>,
}

impl ProtocolPopularity {
    /// Counts attacks per protocol.
    pub fn compute<'a>(records: impl Into<Records<'a>>) -> ProtocolPopularity {
        let mut counts = [0usize; Protocol::ALL.len()];
        for a in records.into().attacks() {
            counts[a.category.index()] += 1;
        }
        let mut counts: Vec<(Protocol, usize)> = Protocol::ALL
            .into_iter()
            .zip(counts)
            .filter(|&(_, n)| n > 0)
            .collect();
        counts.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        ProtocolPopularity { counts }
    }

    /// The dominant protocol, if any attacks exist.
    pub fn dominant(&self) -> Option<Protocol> {
        self.counts.first().map(|&(p, _)| p)
    }

    /// Fraction of attacks carried over connection-oriented transports
    /// (the paper's anti-spoofing argument, §III-B).
    pub fn connection_oriented_fraction(&self) -> f64 {
        let total: usize = self.counts.iter().map(|&(_, n)| n).sum();
        if total == 0 {
            return 0.0;
        }
        let co: usize = self
            .counts
            .iter()
            .filter(|&&(p, _)| p.is_connection_oriented())
            .map(|&(_, n)| n)
            .sum();
        co as f64 / total as f64
    }
}

/// One row of Table II: protocol, family, attack count.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ProtocolFamilyRow {
    /// Transport category.
    pub protocol: Protocol,
    /// Botnet family.
    pub family: Family,
    /// Number of attacks of that family over that transport.
    pub attacks: usize,
}

/// Table II — protocol preferences of each botnet family.
///
/// Rows are grouped by protocol in the paper's order, families
/// alphabetical within a protocol, zero rows omitted.
pub fn protocol_preferences<'a>(records: impl Into<Records<'a>>) -> Vec<ProtocolFamilyRow> {
    let mut counts = [[0usize; Family::ALL.len()]; Protocol::ALL.len()];
    for a in records.into().attacks() {
        counts[a.category.index()][a.family.index()] += 1;
    }
    let mut rows = Vec::new();
    for p in Protocol::ALL {
        for f in Family::ALL {
            let n = counts[p.index()][f.index()];
            if n > 0 {
                rows.push(ProtocolFamilyRow {
                    protocol: p,
                    family: f,
                    attacks: n,
                });
            }
        }
    }
    rows
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::overview::test_support::{attack, dataset};

    #[test]
    fn popularity_sorted_and_dominant() {
        let mut attacks = vec![
            attack(Family::Dirtjumper, 1, 100, 60, 1),
            attack(Family::Dirtjumper, 2, 200, 60, 1),
            attack(Family::Yzf, 3, 300, 60, 2),
        ];
        attacks[2].category = Protocol::Udp;
        let ds = dataset(attacks);
        let pop = ProtocolPopularity::compute(&ds);
        assert_eq!(pop.dominant(), Some(Protocol::Http));
        assert_eq!(pop.counts[0], (Protocol::Http, 2));
        assert_eq!(pop.counts[1], (Protocol::Udp, 1));
        assert!((pop.connection_oriented_fraction() - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn empty_dataset() {
        let ds = dataset(vec![]);
        let pop = ProtocolPopularity::compute(&ds);
        assert!(pop.counts.is_empty());
        assert_eq!(pop.dominant(), None);
        assert_eq!(pop.connection_oriented_fraction(), 0.0);
    }

    #[test]
    fn table_ii_rows_group_by_protocol_then_family() {
        let mut attacks = vec![
            attack(Family::Blackenergy, 1, 100, 60, 1),
            attack(Family::Dirtjumper, 2, 200, 60, 1),
            attack(Family::Blackenergy, 3, 300, 60, 2),
        ];
        attacks[2].category = Protocol::Syn;
        let ds = dataset(attacks);
        let rows = protocol_preferences(&ds);
        assert_eq!(rows.len(), 3);
        assert_eq!(rows[0].protocol, Protocol::Http);
        assert_eq!(rows[0].family, Family::Blackenergy);
        assert_eq!(rows[0].attacks, 1);
        assert_eq!(rows[1].family, Family::Dirtjumper);
        assert_eq!(rows[2].protocol, Protocol::Syn);
    }

    #[test]
    fn ties_order_by_protocol_enum() {
        let mut attacks = vec![
            attack(Family::Nitol, 1, 100, 60, 1),
            attack(Family::Nitol, 2, 200, 60, 1),
        ];
        attacks[1].category = Protocol::Tcp;
        let ds = dataset(attacks);
        let pop = ProtocolPopularity::compute(&ds);
        assert_eq!(pop.counts, vec![(Protocol::Http, 1), (Protocol::Tcp, 1)]);
    }
}
