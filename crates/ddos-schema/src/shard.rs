//! Epoch slicing: time-partitioned views over a [`Dataset`].
//!
//! The analysis engine folds the trace epoch by epoch instead of loading
//! it whole. A [`DatasetShard`] is a borrowed view of one epoch's slice:
//! the attacks that *start* inside the epoch (a contiguous range of the
//! globally `(start, id)`-sorted attack list, so shard-local structures
//! keep stable global indices) plus the bot records whose observation
//! span intersects the epoch. [`EpochBatch`] is the owned equivalent,
//! the unit a streaming feed hands to the fold one epoch at a time.
//!
//! Epoch boundaries clamp: an attack starting before the window lands in
//! the first epoch, one starting at/after the window end in the last, so
//! every attack belongs to exactly one shard and the shards concatenate
//! back to the full trace.
//!
//! [`Records`] is the borrowed record view the analysis reads raw
//! records through: the whole trace, or the prefix of epochs `0..=e`
//! ([`DatasetShard::prefix`]) without copying a record.

use std::ops::Range;

use crate::dataset::{summarize, Dataset, DatasetBuilder, DatasetSummary};
use crate::family::Family;
use crate::record::{AttackRecord, BotRecord};
use crate::time::{Seconds, Timestamp, Window};

/// A borrowed view of the records a consumer of a dataset has seen:
/// the attacks up to an end index (a prefix of the `(start, id)`-sorted
/// list) and the bot records *first seen* before a cutoff, in original
/// order. The window, botnet records and snapshot series stay the
/// dataset's (trace-wide metadata, not epoch streams).
///
/// `From<&Dataset>` views the whole trace; [`DatasetShard::prefix`]
/// views the records of epochs `0..=epoch` under the boundary rule
/// [`Dataset::shards`] and [`Dataset::epoch_prefix`] share, so the view
/// holds exactly what that `epoch_prefix` copies.
#[derive(Debug, Clone, Copy)]
pub struct Records<'a> {
    dataset: &'a Dataset,
    attack_end: usize,
    /// Bot records first seen at or after this instant are outside the
    /// view; `None` keeps every record.
    bots_before: Option<Timestamp>,
}

impl<'a> From<&'a Dataset> for Records<'a> {
    fn from(dataset: &'a Dataset) -> Records<'a> {
        Records {
            dataset,
            attack_end: dataset.len(),
            bots_before: None,
        }
    }
}

impl<'a> Records<'a> {
    /// The observation window of the trace (the full window, also for a
    /// prefix, so epoch boundaries line up with the original partition).
    #[inline]
    pub fn window(&self) -> Window {
        self.dataset.window()
    }

    /// The view's attacks, sorted by `(start, id)`.
    #[inline]
    pub fn attacks(&self) -> &'a [AttackRecord] {
        &self.dataset.attacks()[..self.attack_end]
    }

    /// Number of attacks in the view.
    #[inline]
    pub fn len(&self) -> usize {
        self.attack_end
    }

    /// Whether the view holds no attacks.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.attack_end == 0
    }

    /// The view's attacks launched by one family, in start order.
    pub fn attacks_of(&self, family: Family) -> impl Iterator<Item = &'a AttackRecord> {
        let indices = self.dataset.attack_indices_of(family);
        let end = indices.partition_point(|&i| (i as usize) < self.attack_end);
        let attacks = self.dataset.attacks();
        indices[..end].iter().map(move |&i| &attacks[i as usize])
    }

    /// The view's bot records, in original order.
    pub fn bots(&self) -> impl Iterator<Item = &'a BotRecord> {
        let before = self.bots_before;
        self.dataset
            .bots()
            .iter()
            .filter(move |b| before.map_or(true, |t| b.first_seen < t))
    }

    /// The Table III summary of the view's records. The whole-trace
    /// view answers from [`Dataset::summary`]'s cache; a prefix view
    /// counts its records afresh.
    pub fn summary(&self) -> DatasetSummary {
        if self.attack_end == self.dataset.len() && self.bots_before.is_none() {
            self.dataset.summary()
        } else {
            summarize(self.bots(), self.dataset.bots().len(), self.attacks())
        }
    }
}

/// A borrowed view of one epoch's slice of a dataset.
#[derive(Debug, Clone)]
pub struct DatasetShard<'a> {
    dataset: &'a Dataset,
    epoch: usize,
    span: Window,
    attack_range: Range<usize>,
    bot_rows: Vec<u32>,
    /// The [`Records`] bot cutoff of [`DatasetShard::prefix`]: the
    /// shard's end, or `None` for the last shard, which takes every
    /// record (clamped out-of-window ones included).
    bots_before: Option<Timestamp>,
}

impl<'a> DatasetShard<'a> {
    /// The dataset this shard views.
    #[inline]
    pub fn dataset(&self) -> &'a Dataset {
        self.dataset
    }

    /// Zero-based epoch index within the partition.
    #[inline]
    pub fn epoch(&self) -> usize {
        self.epoch
    }

    /// The epoch's time span (half-open, clamped to the trace window).
    #[inline]
    pub fn span(&self) -> Window {
        self.span
    }

    /// Global index range of the shard's attacks within
    /// [`Dataset::attacks`]; shards partition `0..dataset.len()` into
    /// consecutive ranges.
    #[inline]
    pub fn attack_range(&self) -> Range<usize> {
        self.attack_range.clone()
    }

    /// The shard's attacks, in global `(start, id)` order.
    pub fn attacks(&self) -> &'a [AttackRecord] {
        &self.dataset.attacks()[self.attack_range.clone()]
    }

    /// The shard's bot records as `(global row, record)`, ascending by
    /// global row. A bot whose observation span crosses an epoch boundary
    /// appears in every epoch it intersects; the merge keeps the
    /// latest-positioned duplicate, matching the monolithic build.
    pub fn bots(&self) -> impl Iterator<Item = (u32, &'a BotRecord)> + '_ {
        let bots = self.dataset.bots();
        self.bot_rows.iter().map(move |&r| (r, &bots[r as usize]))
    }

    /// The records of epochs `0..=self.epoch()`: the attacks up to the
    /// end of this shard's range and the bot records first seen before
    /// its end — the view of what [`Dataset::epoch_prefix`] copies for
    /// `self.epoch() + 1` epochs.
    pub fn prefix(&self) -> Records<'a> {
        Records {
            dataset: self.dataset,
            attack_end: self.attack_range.end,
            bots_before: self.bots_before,
        }
    }

    /// Materializes the shard into an owned [`EpochBatch`].
    pub fn to_batch(&self) -> EpochBatch {
        EpochBatch {
            epoch: self.epoch,
            span: self.span,
            attack_base: self.attack_range.start,
            attacks: self.attacks().to_vec(),
            bots: self.bots().map(|(r, b)| (r, *b)).collect(),
        }
    }
}

/// One epoch's records, owned: the streaming unit of the incremental
/// pipeline. Produced by [`DatasetShard::to_batch`] or a live feed.
#[derive(Debug, Clone)]
pub struct EpochBatch {
    /// Zero-based epoch index.
    pub epoch: usize,
    /// The epoch's time span.
    pub span: Window,
    /// Global index of the first attack in this batch.
    pub attack_base: usize,
    /// Attacks starting in this epoch, in global `(start, id)` order.
    pub attacks: Vec<AttackRecord>,
    /// `(global row, record)` of bots active in this epoch, ascending by
    /// row.
    pub bots: Vec<(u32, BotRecord)>,
}

impl Dataset {
    /// Partitions the trace into epoch shards of length `epoch_len`.
    ///
    /// Attacks are assigned by start time (clamped to the first/last
    /// epoch), so the shards' attack ranges are consecutive and cover
    /// `0..len()` exactly. Bot records land in every epoch their
    /// `[first_seen, last_seen]` span intersects.
    pub fn shards(&self, epoch_len: Seconds) -> Vec<DatasetShard<'_>> {
        let window = self.window();
        let epochs = window.epochs(epoch_len);
        let n = epochs.len();
        // Attack boundaries: boundary[i] = first attack of epoch i.
        // Clamping means epoch 0 starts at index 0 and the last epoch
        // runs to the end regardless of out-of-window starts.
        let mut bounds = Vec::with_capacity(n + 1);
        bounds.push(0usize);
        for e in &epochs[1..] {
            bounds.push(self.attacks().partition_point(|a| a.start < e.start));
        }
        bounds.push(self.len());
        // Bot rows per epoch, by observation-span overlap.
        let len = epoch_len.get().max(1);
        let last = n as i64 - 1;
        let epoch_of = |t: crate::time::Timestamp| -> i64 {
            if n == 1 {
                return 0;
            }
            (t - window.start).get().div_euclid(len).clamp(0, last)
        };
        let mut bot_rows: Vec<Vec<u32>> = vec![Vec::new(); n];
        for (row, bot) in self.bots().iter().enumerate() {
            let lo = epoch_of(bot.first_seen);
            let hi = epoch_of(bot.last_seen);
            for e in lo..=hi {
                bot_rows[e as usize].push(row as u32);
            }
        }
        epochs
            .into_iter()
            .zip(bot_rows)
            .enumerate()
            .map(|(i, (span, rows))| DatasetShard {
                dataset: self,
                epoch: i,
                span,
                attack_range: bounds[i]..bounds[i + 1],
                bot_rows: rows,
                // `epoch_of(t) <= i` is `t < span.end` below the last
                // epoch; the last clamps every later instant in.
                bots_before: (i + 1 < n).then_some(span.end),
            })
            .collect()
    }

    /// Materializes the dataset a consumer of the first `epochs` shards
    /// of [`Dataset::shards`]`(epoch_len)` has seen: the attacks of
    /// those shards (a prefix of the `(start, id)`-sorted attack list,
    /// clamping included) and the bot records *first seen* inside them,
    /// in original order, with botnet records and snapshot series
    /// carried over verbatim (they are trace-wide metadata, not epoch
    /// streams). The window stays the full trace window, so epoch
    /// boundaries — and therefore shard slicing of the prefix — line up
    /// with the original partition.
    ///
    /// With `epochs` equal to the shard count the result is equivalent
    /// to the original dataset. The analysis reads the same records
    /// without the copy through [`DatasetShard::prefix`]; this owned
    /// form is the independent oracle the tests and the benchmark check
    /// every prefix report against.
    ///
    /// # Panics
    ///
    /// If `epochs` is zero or exceeds the number of shards the slicing
    /// produces.
    pub fn epoch_prefix(&self, epoch_len: Seconds, epochs: usize) -> Dataset {
        let window = self.window();
        let spans = window.epochs(epoch_len);
        let n = spans.len();
        assert!(
            epochs >= 1 && epochs <= n,
            "epoch_prefix: epochs {epochs} outside 1..={n}"
        );
        // Same boundary rule as `shards`: epoch e starts at the first
        // attack with `start >= spans[e].start`; the last epoch (and so
        // a full prefix) runs to the end regardless of clamping.
        let attack_end = if epochs == n {
            self.len()
        } else {
            self.attacks()
                .partition_point(|a| a.start < spans[epochs].start)
        };
        // Same clamped epoch assignment as `shards`, keyed on
        // `first_seen`: a record belongs to the prefix iff the epoch it
        // first appears in has been consumed.
        let len = epoch_len.get().max(1);
        let last = n as i64 - 1;
        let epoch_of = |t: Timestamp| -> i64 {
            if n == 1 {
                return 0;
            }
            (t - window.start).get().div_euclid(len).clamp(0, last)
        };
        let mut builder = DatasetBuilder::new(window).allow_out_of_window();
        builder.extend_attacks_prevalidated(self.attacks()[..attack_end].to_vec());
        builder.extend_bots_prevalidated(
            self.bots()
                .iter()
                .filter(|b| epoch_of(b.first_seen) < epochs as i64)
                .copied()
                .collect(),
        );
        builder.extend_botnets_prevalidated(self.botnets().to_vec());
        for family in self.snapshot_families().collect::<Vec<_>>() {
            let series = self
                .snapshots(family)
                .expect("snapshot_families listed it")
                .clone();
            builder
                .set_snapshots(family, series)
                .expect("series copied from a valid dataset");
        }
        builder
            .build()
            .expect("a prefix of a valid dataset is valid")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::DatasetBuilder;
    use crate::record::test_fixtures::attack;
    use crate::time::Timestamp;

    fn window() -> Window {
        Window::new(Timestamp(0), Timestamp(1_000)).unwrap()
    }

    fn dataset() -> Dataset {
        let mut b = DatasetBuilder::new(window());
        for (id, start) in [(1, 50), (2, 250), (3, 260), (4, 990)] {
            b.push_attack(attack(id, start)).unwrap();
        }
        b.build().unwrap()
    }

    #[test]
    fn shards_partition_attacks_contiguously() {
        let ds = dataset();
        let shards = ds.shards(Seconds(250));
        assert_eq!(shards.len(), 4);
        let ranges: Vec<_> = shards.iter().map(|s| s.attack_range()).collect();
        assert_eq!(ranges, vec![0..1, 1..3, 3..3, 3..4]);
        assert_eq!(shards[1].attacks().len(), 2);
        assert!(shards[2].attacks().is_empty());
        // Concatenated ranges cover the whole trace.
        assert_eq!(ranges.last().unwrap().end, ds.len());
    }

    #[test]
    fn out_of_window_attacks_clamp_to_edge_epochs() {
        let mut b = DatasetBuilder::new(window()).allow_out_of_window();
        for (id, start) in [(1, -100), (2, 500), (3, 2_000)] {
            b.push_attack(attack(id, start)).unwrap();
        }
        let ds = b.build().unwrap();
        let shards = ds.shards(Seconds(500));
        assert_eq!(shards.len(), 2);
        assert_eq!(shards[0].attack_range(), 0..1);
        assert_eq!(shards[1].attack_range(), 1..3);
    }

    #[test]
    fn batch_mirrors_shard() {
        let ds = dataset();
        let shard = &ds.shards(Seconds(250))[1];
        let batch = shard.to_batch();
        assert_eq!(batch.epoch, 1);
        assert_eq!(batch.attack_base, 1);
        assert_eq!(batch.attacks.len(), 2);
        assert_eq!(batch.span, shard.span());
    }

    #[test]
    fn single_epoch_holds_everything() {
        let ds = dataset();
        let shards = ds.shards(Seconds(100_000));
        assert_eq!(shards.len(), 1);
        assert_eq!(shards[0].attack_range(), 0..ds.len());
        assert_eq!(shards[0].span(), ds.window());
    }

    fn bot(ip: u8, first_seen: i64, last_seen: i64) -> BotRecord {
        BotRecord {
            ip: crate::ip::IpAddr4::from_octets(10, 0, 0, ip),
            botnet: crate::ids::BotnetId(7),
            family: crate::family::Family::Dirtjumper,
            location: crate::record::test_fixtures::location(),
            first_seen: Timestamp(first_seen),
            last_seen: Timestamp(last_seen),
        }
    }

    fn dataset_with_bots() -> Dataset {
        let mut b = DatasetBuilder::new(window());
        for (id, start) in [(1, 50), (2, 250), (3, 260), (4, 990)] {
            b.push_attack(attack(id, start)).unwrap();
        }
        // First seen in epochs 0, 1, and 3 of a 250 s slicing; the
        // second record re-observes into epoch 2.
        b.push_bot(bot(1, 40, 60)).unwrap();
        b.push_bot(bot(2, 300, 600)).unwrap();
        b.push_bot(bot(3, 800, 990)).unwrap();
        b.build().unwrap()
    }

    #[test]
    fn full_epoch_prefix_is_the_original_dataset() {
        let ds = dataset_with_bots();
        let n = ds.shards(Seconds(250)).len();
        let full = ds.epoch_prefix(Seconds(250), n);
        assert_eq!(
            crate::codec::encode(&full),
            crate::codec::encode(&ds),
            "a full prefix must round-trip the dataset"
        );
    }

    /// Attacks before, inside, and after the window, and bots first
    /// seen before it, inside it, and after its end: under 400 s epochs
    /// the clamping puts one attack and bot 4 into the last epoch.
    fn out_of_window_dataset() -> Dataset {
        let mut b = DatasetBuilder::new(window()).allow_out_of_window();
        for (id, start) in [(1, -100), (2, 500), (3, 2_000)] {
            b.push_attack(attack(id, start)).unwrap();
        }
        b.push_bot(bot(1, -50, 10)).unwrap();
        b.push_bot(bot(2, 100, 700)).unwrap();
        b.push_bot(bot(3, 600, 900)).unwrap();
        b.push_bot(bot(4, 1_500, 1_600)).unwrap();
        b.build().unwrap()
    }

    #[test]
    fn epoch_prefix_tracks_shard_attack_bounds_and_first_seen() {
        let cases = [
            (dataset_with_bots(), Seconds(250), vec![1, 2, 2, 3]),
            (out_of_window_dataset(), Seconds(400), vec![2, 3, 4]),
        ];
        for (ds, len, expect_bots) in cases {
            let shards = ds.shards(len);
            assert_eq!(shards.len(), expect_bots.len());
            for w in 1..=shards.len() {
                let prefix = ds.epoch_prefix(len, w);
                assert_eq!(
                    prefix.len(),
                    shards[w - 1].attack_range().end,
                    "watermark {w}: attack prefix"
                );
                assert_eq!(
                    prefix.bots().len(),
                    expect_bots[w - 1],
                    "watermark {w}: bots first seen before epoch {w}"
                );
                // The window (and so any re-slicing) matches the original.
                assert_eq!(prefix.window(), ds.window());
                assert_eq!(prefix.botnets().len(), ds.botnets().len());
                // The borrowed view holds exactly the copied records.
                let view = shards[w - 1].prefix();
                assert_eq!(view.attacks(), prefix.attacks(), "watermark {w}: attacks");
                assert_eq!(
                    view.bots().collect::<Vec<_>>(),
                    prefix.bots().iter().collect::<Vec<_>>(),
                    "watermark {w}: bots"
                );
                assert_eq!(view.summary(), prefix.summary(), "watermark {w}: summary");
            }
        }
    }

    #[test]
    #[should_panic(expected = "outside")]
    fn epoch_prefix_rejects_zero_epochs() {
        let _ = dataset_with_bots().epoch_prefix(Seconds(250), 0);
    }
}
