//! The indexed in-memory dataset joining all three schemas.
//!
//! The paper "associate\[s\] three schemas to create a comprehensive dataset
//! with a focus on the DDoS attacks" (§II-A); [`Dataset`] is that join,
//! with the access paths every analysis needs: attacks in global start
//! order, per-family, per-target, and per-botnet indexes, and per-family
//! snapshot series.

use std::collections::{BTreeMap, HashMap, HashSet};
use std::sync::OnceLock;

use serde::{Deserialize, Serialize};

use crate::error::SchemaError;
use crate::family::Family;
use crate::geo::CountryCode;
use crate::hashing::{fast_set, FastSet};
use crate::ids::{Asn, BotnetId, CityId, OrgId};
use crate::ip::IpAddr4;
use crate::record::{AttackRecord, BotRecord, BotnetRecord};
use crate::snapshot::SnapshotSeries;
use crate::time::Window;

/// Summary counters for one side (attackers or victims) of the trace,
/// mirroring one column of the paper's Table III.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct SideSummary {
    /// Distinct IP addresses.
    pub ips: usize,
    /// Distinct cities.
    pub cities: usize,
    /// Distinct countries.
    pub countries: usize,
    /// Distinct organizations.
    pub organizations: usize,
    /// Distinct autonomous systems.
    pub asns: usize,
}

/// Dataset-level summary mirroring the paper's Table III.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct DatasetSummary {
    /// Attacker-side distinct counts.
    pub attackers: SideSummary,
    /// Victim-side distinct counts.
    pub victims: SideSummary,
    /// Number of attacks (`# of ddos_id`).
    pub attacks: usize,
    /// Number of botnet generations (`# of botnet_id`).
    pub botnets: usize,
    /// Number of distinct traffic types seen.
    pub traffic_types: usize,
}

/// The joined, indexed trace.
///
/// Construction goes through [`DatasetBuilder`], which validates every
/// record and builds the indexes once; the dataset itself is immutable.
/// Serde support round-trips the records and rebuilds the indexes on
/// deserialization.
#[derive(Debug, Clone)]
pub struct Dataset {
    window: Window,
    attacks: Vec<AttackRecord>,
    bots: Vec<BotRecord>,
    botnets: Vec<BotnetRecord>,
    snapshots: BTreeMap<Family, SnapshotSeries>,
    by_family: HashMap<Family, Vec<u32>>,
    by_target: HashMap<IpAddr4, Vec<u32>>,
    by_botnet: HashMap<BotnetId, Vec<u32>>,
    /// Sorted distinct target IPs, built on first [`Dataset::targets`]
    /// call and reset whenever the indexes are rebuilt.
    targets: OnceLock<Vec<IpAddr4>>,
    /// Table III distinct counts, built on first [`Dataset::summary`]
    /// call and reset whenever the indexes are rebuilt.
    summary: OnceLock<DatasetSummary>,
}

/// Wire representation of [`Dataset`]: the records without the indexes.
#[derive(Serialize, Deserialize)]
struct DatasetWire {
    window: Window,
    attacks: Vec<AttackRecord>,
    bots: Vec<BotRecord>,
    botnets: Vec<BotnetRecord>,
    snapshots: BTreeMap<Family, SnapshotSeries>,
}

impl Serialize for Dataset {
    fn serialize<S: serde::Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        use serde::ser::SerializeStruct;
        let mut s = serializer.serialize_struct("Dataset", 5)?;
        s.serialize_field("window", &self.window)?;
        s.serialize_field("attacks", &self.attacks)?;
        s.serialize_field("bots", &self.bots)?;
        s.serialize_field("botnets", &self.botnets)?;
        s.serialize_field("snapshots", &self.snapshots)?;
        s.end()
    }
}

impl<'de> Deserialize<'de> for Dataset {
    fn deserialize<D: serde::Deserializer<'de>>(deserializer: D) -> Result<Self, D::Error> {
        use serde::de::Error;
        let wire = DatasetWire::deserialize(deserializer)?;
        // Deserialized data is untrusted: enforce the same invariants the
        // builder does, so a hand-edited JSON file cannot smuggle in
        // records that would break downstream analyses.
        let mut seen = HashSet::with_capacity(wire.attacks.len());
        for atk in &wire.attacks {
            atk.validate().map_err(D::Error::custom)?;
            if !seen.insert(atk.id) {
                return Err(D::Error::custom(format!("duplicate attack id {}", atk.id)));
            }
        }
        let mut ds = Dataset {
            window: wire.window,
            attacks: wire.attacks,
            bots: wire.bots,
            botnets: wire.botnets,
            snapshots: wire.snapshots,
            by_family: HashMap::new(),
            by_target: HashMap::new(),
            by_botnet: HashMap::new(),
            targets: OnceLock::new(),
            summary: OnceLock::new(),
        };
        ds.attacks.sort_by_key(|a| (a.start, a.id));
        ds.rebuild_indexes();
        Ok(ds)
    }
}

impl Dataset {
    /// The observation window of the trace.
    #[inline]
    pub fn window(&self) -> Window {
        self.window
    }

    /// All attacks, sorted by `(start, id)`.
    #[inline]
    pub fn attacks(&self) -> &[AttackRecord] {
        &self.attacks
    }

    /// All bot records.
    #[inline]
    pub fn bots(&self) -> &[BotRecord] {
        &self.bots
    }

    /// All botnet generation records.
    #[inline]
    pub fn botnets(&self) -> &[BotnetRecord] {
        &self.botnets
    }

    /// Snapshot series for one family, if present.
    pub fn snapshots(&self, family: Family) -> Option<&SnapshotSeries> {
        self.snapshots.get(&family)
    }

    /// Families that have at least one snapshot, in enum order.
    pub fn snapshot_families(&self) -> impl Iterator<Item = Family> + '_ {
        self.snapshots.keys().copied()
    }

    /// Attacks launched by one family, in start order.
    pub fn attacks_of(&self, family: Family) -> impl Iterator<Item = &AttackRecord> {
        self.by_family
            .get(&family)
            .into_iter()
            .flatten()
            .map(move |&i| &self.attacks[i as usize])
    }

    /// Indices into [`Dataset::attacks`] of one family's attacks,
    /// ascending (the index slice behind [`Dataset::attacks_of`]). Lets
    /// batch consumers join an attack against other per-index columns.
    pub fn attack_indices_of(&self, family: Family) -> &[u32] {
        self.by_family.get(&family).map_or(&[], Vec::as_slice)
    }

    /// Attacks against one target IP, in start order.
    pub fn attacks_on(&self, target: IpAddr4) -> impl Iterator<Item = &AttackRecord> {
        self.by_target
            .get(&target)
            .into_iter()
            .flatten()
            .map(move |&i| &self.attacks[i as usize])
    }

    /// Attacks launched by one botnet generation, in start order.
    pub fn attacks_by_botnet(&self, botnet: BotnetId) -> impl Iterator<Item = &AttackRecord> {
        self.by_botnet
            .get(&botnet)
            .into_iter()
            .flatten()
            .map(move |&i| &self.attacks[i as usize])
    }

    /// Attacks that *start* inside `[from, to)`, in start order
    /// (binary search over the globally sorted attack list).
    pub fn attacks_between(
        &self,
        from: crate::time::Timestamp,
        to: crate::time::Timestamp,
    ) -> &[AttackRecord] {
        let lo = self.attacks.partition_point(|a| a.start < from);
        let hi = self.attacks.partition_point(|a| a.start < to);
        &self.attacks[lo..hi]
    }

    /// Distinct target IPs, in address order. Built lazily on first call
    /// and cached for the lifetime of the dataset (the record set is
    /// immutable after construction).
    pub fn targets(&self) -> &[IpAddr4] {
        self.targets.get_or_init(|| {
            let mut t: Vec<IpAddr4> = self.by_target.keys().copied().collect();
            t.sort_unstable();
            t
        })
    }

    /// Number of attacks.
    #[inline]
    pub fn len(&self) -> usize {
        self.attacks.len()
    }

    /// Whether the dataset holds no attacks.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.attacks.is_empty()
    }

    /// Computes the Table III style summary over the whole trace.
    ///
    /// Attacker-side counts are taken over the bot records (the `Botlist`
    /// join), victim-side counts over the attack targets. Computed on
    /// first call and cached for the lifetime of the dataset (the record
    /// set is immutable after construction). The whole-trace
    /// [`crate::shard::Records`] view answers from this cache, so every
    /// `summary` pass over the whole trace after the first — a batch
    /// re-run, or an incremental pipeline's last append, whose record
    /// view is the whole trace — costs no rescan.
    pub fn summary(&self) -> DatasetSummary {
        *self
            .summary
            .get_or_init(|| summarize(self.bots.iter(), self.bots.len(), &self.attacks))
    }

    /// Rebuilds the (serde-skipped) indexes; used after deserialization.
    pub(crate) fn rebuild_indexes(&mut self) {
        self.by_family.clear();
        self.by_target.clear();
        self.by_botnet.clear();
        self.targets = OnceLock::new();
        self.summary = OnceLock::new();
        for (i, atk) in self.attacks.iter().enumerate() {
            let i = i as u32;
            self.by_family.entry(atk.family).or_default().push(i);
            self.by_target.entry(atk.target_ip).or_default().push(i);
            self.by_botnet.entry(atk.botnet).or_default().push(i);
        }
    }
}

/// The uncached Table III scan behind [`Dataset::summary`] and the
/// prefix views' summaries: distinct counts over `bots` (attacker side;
/// `bots_hint` sizes the sets) and `attacks` (victim side).
pub(crate) fn summarize<'a>(
    bots: impl Iterator<Item = &'a BotRecord>,
    bots_hint: usize,
    attacks: &[AttackRecord],
) -> DatasetSummary {
    // Distinct counting over millions of small copy keys: pre-sized
    // FastHasher sets, not SipHash.
    let mut a_ips = fast_set(bots_hint);
    let mut a_city = fast_set(bots_hint);
    let mut a_cc = fast_set(256);
    let mut a_org = fast_set(bots_hint);
    let mut a_asn = fast_set(bots_hint);
    for bot in bots {
        a_ips.insert(bot.ip);
        a_city.insert(bot.location.city);
        a_cc.insert(bot.location.country);
        a_org.insert(bot.location.org);
        a_asn.insert(bot.location.asn);
    }
    let mut v_ips: FastSet<IpAddr4> = fast_set(attacks.len());
    let mut v_city: FastSet<CityId> = fast_set(attacks.len());
    let mut v_cc: FastSet<CountryCode> = fast_set(256);
    let mut v_org: FastSet<OrgId> = fast_set(attacks.len());
    let mut v_asn: FastSet<Asn> = fast_set(attacks.len());
    let mut protocols = fast_set(16);
    let mut botnet_ids = fast_set(attacks.len());
    for atk in attacks {
        v_ips.insert(atk.target_ip);
        v_city.insert(atk.target.city);
        v_cc.insert(atk.target.country);
        v_org.insert(atk.target.org);
        v_asn.insert(atk.target.asn);
        protocols.insert(atk.category);
        botnet_ids.insert(atk.botnet);
    }
    DatasetSummary {
        attackers: SideSummary {
            ips: a_ips.len(),
            cities: a_city.len(),
            countries: a_cc.len(),
            organizations: a_org.len(),
            asns: a_asn.len(),
        },
        victims: SideSummary {
            ips: v_ips.len(),
            cities: v_city.len(),
            countries: v_cc.len(),
            organizations: v_org.len(),
            asns: v_asn.len(),
        },
        attacks: attacks.len(),
        botnets: botnet_ids.len(),
        traffic_types: protocols.len(),
    }
}

/// Validating builder for [`Dataset`].
#[derive(Debug, Clone)]
pub struct DatasetBuilder {
    window: Window,
    attacks: Vec<AttackRecord>,
    bots: Vec<BotRecord>,
    botnets: Vec<BotnetRecord>,
    snapshots: BTreeMap<Family, SnapshotSeries>,
    /// When true (default), attacks outside the window are rejected.
    enforce_window: bool,
}

impl DatasetBuilder {
    /// Starts a builder for a trace covering `window`.
    pub fn new(window: Window) -> DatasetBuilder {
        DatasetBuilder {
            window,
            attacks: Vec::new(),
            bots: Vec::new(),
            botnets: Vec::new(),
            snapshots: BTreeMap::new(),
            enforce_window: true,
        }
    }

    /// Disables the check that every attack starts inside the window.
    pub fn allow_out_of_window(mut self) -> DatasetBuilder {
        self.enforce_window = false;
        self
    }

    /// Adds one attack record (validated).
    pub fn push_attack(&mut self, attack: AttackRecord) -> Result<&mut Self, SchemaError> {
        attack.validate()?;
        if self.enforce_window && !self.window.contains(attack.start) {
            return Err(SchemaError::InvalidDataset(format!(
                "attack {} starts at {} outside window [{}, {})",
                attack.id, attack.start, self.window.start, self.window.end
            )));
        }
        self.attacks.push(attack);
        Ok(self)
    }

    /// Adds many attack records (each validated).
    pub fn extend_attacks<I>(&mut self, attacks: I) -> Result<&mut Self, SchemaError>
    where
        I: IntoIterator<Item = AttackRecord>,
    {
        for a in attacks {
            self.push_attack(a)?;
        }
        Ok(self)
    }

    /// Appends attack records the caller has already validated — the
    /// framed decoder runs per-record validation on its worker threads,
    /// so re-checking here would double the work. Window enforcement is
    /// intentionally skipped too (the codecs build with
    /// [`DatasetBuilder::allow_out_of_window`]); the whole-dataset
    /// checks in [`DatasetBuilder::build`] still apply.
    pub(crate) fn extend_attacks_prevalidated(&mut self, attacks: Vec<AttackRecord>) {
        if self.attacks.is_empty() {
            self.attacks = attacks;
        } else {
            self.attacks.extend(attacks);
        }
    }

    /// Appends bot records the caller has already validated.
    pub(crate) fn extend_bots_prevalidated(&mut self, bots: Vec<BotRecord>) {
        if self.bots.is_empty() {
            self.bots = bots;
        } else {
            self.bots.extend(bots);
        }
    }

    /// Appends botnet records the caller has already validated.
    pub(crate) fn extend_botnets_prevalidated(&mut self, botnets: Vec<BotnetRecord>) {
        if self.botnets.is_empty() {
            self.botnets = botnets;
        } else {
            self.botnets.extend(botnets);
        }
    }

    /// Adds one bot record (validated).
    pub fn push_bot(&mut self, bot: BotRecord) -> Result<&mut Self, SchemaError> {
        bot.validate()?;
        self.bots.push(bot);
        Ok(self)
    }

    /// Adds one botnet generation record (validated).
    pub fn push_botnet(&mut self, botnet: BotnetRecord) -> Result<&mut Self, SchemaError> {
        botnet.validate()?;
        self.botnets.push(botnet);
        Ok(self)
    }

    /// Installs the snapshot series for a family (replaces any previous).
    pub fn set_snapshots(
        &mut self,
        family: Family,
        series: SnapshotSeries,
    ) -> Result<&mut Self, SchemaError> {
        if let Some(series_family) = series.family() {
            if series_family != family {
                return Err(SchemaError::InvalidDataset(format!(
                    "snapshot series for {series_family} installed under {family}"
                )));
            }
        }
        self.snapshots.insert(family, series);
        Ok(self)
    }

    /// Finishes the build: checks id uniqueness, sorts, builds indexes.
    pub fn build(self) -> Result<Dataset, SchemaError> {
        let mut seen = HashSet::with_capacity(self.attacks.len());
        for atk in &self.attacks {
            if !seen.insert(atk.id) {
                return Err(SchemaError::InvalidDataset(format!(
                    "duplicate attack id {}",
                    atk.id
                )));
            }
        }
        let mut botnet_seen = HashSet::with_capacity(self.botnets.len());
        for bn in &self.botnets {
            if !botnet_seen.insert(bn.id) {
                return Err(SchemaError::InvalidDataset(format!(
                    "duplicate botnet id {}",
                    bn.id
                )));
            }
        }
        let mut ds = Dataset {
            window: self.window,
            attacks: self.attacks,
            bots: self.bots,
            botnets: self.botnets,
            snapshots: self.snapshots,
            by_family: HashMap::new(),
            by_target: HashMap::new(),
            by_botnet: HashMap::new(),
            targets: OnceLock::new(),
            summary: OnceLock::new(),
        };
        ds.attacks.sort_by_key(|a| (a.start, a.id));
        ds.rebuild_indexes();
        Ok(ds)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::DdosId;
    use crate::record::test_fixtures::attack;
    use crate::time::Timestamp;

    fn window() -> Window {
        Window::new(Timestamp(0), Timestamp(1_000_000)).unwrap()
    }

    #[test]
    fn build_sorts_and_indexes() {
        let mut b = DatasetBuilder::new(window());
        b.push_attack(attack(2, 5_000)).unwrap();
        b.push_attack(attack(1, 1_000)).unwrap();
        let ds = b.build().unwrap();
        assert_eq!(ds.attacks()[0].id, DdosId(1));
        assert_eq!(ds.attacks_of(Family::Dirtjumper).count(), 2);
        assert_eq!(ds.attacks_of(Family::Optima).count(), 0);
        assert_eq!(ds.attacks_on(ds.attacks()[0].target_ip).count(), 2);
        assert_eq!(ds.attacks_by_botnet(BotnetId(7)).count(), 2);
        assert_eq!(ds.targets().len(), 1);
        assert_eq!(ds.len(), 2);
    }

    #[test]
    fn attacks_between_is_a_half_open_slice() {
        let mut b = DatasetBuilder::new(window());
        for (id, start) in [(1, 100), (2, 500), (3, 500), (4, 900)] {
            b.push_attack(attack(id, start)).unwrap();
        }
        let ds = b.build().unwrap();
        assert_eq!(ds.attacks_between(Timestamp(100), Timestamp(900)).len(), 3);
        assert_eq!(ds.attacks_between(Timestamp(101), Timestamp(500)).len(), 0);
        assert_eq!(ds.attacks_between(Timestamp(500), Timestamp(501)).len(), 2);
        assert_eq!(ds.attacks_between(Timestamp(0), Timestamp(10_000)).len(), 4);
        assert!(ds
            .attacks_between(Timestamp(901), Timestamp(902))
            .is_empty());
    }

    #[test]
    fn duplicate_attack_ids_rejected() {
        let mut b = DatasetBuilder::new(window());
        b.push_attack(attack(1, 1_000)).unwrap();
        b.push_attack(attack(1, 2_000)).unwrap();
        assert!(b.build().is_err());
    }

    #[test]
    fn out_of_window_attacks_rejected_unless_allowed() {
        let mut b = DatasetBuilder::new(window());
        assert!(b.push_attack(attack(1, 2_000_000)).is_err());
        let mut b = DatasetBuilder::new(window()).allow_out_of_window();
        assert!(b.push_attack(attack(1, 2_000_000)).is_ok());
    }

    #[test]
    fn invalid_record_rejected_at_push() {
        let mut bad = attack(1, 1_000);
        bad.sources.clear();
        let mut b = DatasetBuilder::new(window());
        assert!(b.push_attack(bad).is_err());
    }

    #[test]
    fn summary_counts_distincts() {
        let mut b = DatasetBuilder::new(window());
        let mut a1 = attack(1, 1_000);
        a1.category = crate::Protocol::Http;
        let mut a2 = attack(2, 2_000);
        a2.category = crate::Protocol::Udp;
        a2.target_ip = IpAddr4::from_octets(198, 51, 100, 2);
        b.push_attack(a1).unwrap();
        b.push_attack(a2).unwrap();
        let ds = b.build().unwrap();
        let s = ds.summary();
        assert_eq!(s.attacks, 2);
        assert_eq!(s.victims.ips, 2);
        assert_eq!(s.traffic_types, 2);
        assert_eq!(s.botnets, 1);
        // No bot records were added, so attacker side is empty.
        assert_eq!(s.attackers.ips, 0);
    }

    #[test]
    fn snapshot_family_mismatch_rejected() {
        use crate::snapshot::HourlySnapshot;
        let series = SnapshotSeries::from_snapshots(vec![HourlySnapshot {
            family: Family::Pandora,
            taken_at: Timestamp(3_600),
            bots: vec![],
        }])
        .unwrap();
        let mut b = DatasetBuilder::new(window());
        assert!(b.set_snapshots(Family::Nitol, series.clone()).is_err());
        assert!(b.set_snapshots(Family::Pandora, series).is_ok());
    }

    #[test]
    fn deserialization_rejects_invalid_records() {
        let mut b = DatasetBuilder::new(window());
        b.push_attack(attack(1, 1_000)).unwrap();
        let ds = b.build().unwrap();
        let json = serde_json::to_string(&ds).unwrap();
        // Duplicate the attack (same id) in the raw JSON.
        let dup = json.replacen("\"attacks\":[", "\"attacks\":[DUP,", 1);
        let record = serde_json::to_string(&ds.attacks()[0]).unwrap();
        let dup = dup.replace("DUP", &record);
        let err = serde_json::from_str::<Dataset>(&dup).unwrap_err();
        assert!(err.to_string().contains("duplicate attack id"), "{err}");
        // An end-before-start record is rejected too.
        let bad = json.replace("\"end\":1600", "\"end\":1");
        assert_ne!(bad, json, "fixture layout changed");
        assert!(serde_json::from_str::<Dataset>(&bad).is_err());
    }

    #[test]
    fn serde_round_trip_rebuilds_indexes() {
        let mut b = DatasetBuilder::new(window());
        b.push_attack(attack(1, 1_000)).unwrap();
        b.push_attack(attack(2, 500)).unwrap();
        let ds = b.build().unwrap();
        let json = serde_json::to_string(&ds).unwrap();
        let back: Dataset = serde_json::from_str(&json).unwrap();
        assert_eq!(back.attacks_of(Family::Dirtjumper).count(), 2);
        assert_eq!(back.attacks()[0].id, DdosId(2));
        assert_eq!(back.window(), ds.window());
    }
}
