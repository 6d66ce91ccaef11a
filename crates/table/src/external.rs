//! Out-of-core frequency sets — the paper's §7 scalability future work:
//! *"It is also important to perform a more extensive evaluation of the
//! scalability of Incognito and previous algorithms in the case where the
//! original database or the intermediate frequency tables do not fit in
//! main memory."*
//!
//! [`ExternalFrequencySet`] computes a frequency set with bounded memory:
//! the scan hash-partitions `(group key, count)` records to disk
//! (Grace-hash style), and every query — the k-anonymity predicate, group
//! counts, suppression tallies — streams one partition at a time, so peak
//! memory is the largest partition's footprint (a run of its records, or
//! dense slots when smaller) rather than the whole frequency set.
//! [`ExternalFrequencySet::rollup`] and
//! [`ExternalFrequencySet::project`] derive child sets partition by
//! partition (the paper's Rollup and Subset properties, §3), so the key
//! optimizations survive out-of-core instead of falling back to base-table
//! rescans. `into_frequency_set` upgrades to the in-memory representation
//! when it does fit.
//!
//! Spill activity is observable: the cumulative gauges
//! `table.spill.{partitions,bytes,spilled_sets,upgrades}` and the
//! `spill.build` / `spill.rollup` / `spill.project` / `spill.upgrade`
//! trace spans record every trip through the disk path. None of them are
//! touched unless spilling actually happens, so in-memory runs stay
//! byte-identical to historical baselines.

use std::fs::{File, OpenOptions};
use std::io::{BufReader, Read, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;

use incognito_hierarchy::{LevelNo, ValueId};

use crate::freq::{
    blocks, project_digits, rollup_digits, CodeKernel, Counts, GroupKey, GroupSpec, KeySpace,
    SCAN_BLOCK_ROWS,
};
use crate::fxhash::FxBuildHasher;
use crate::schema::Schema;
use crate::table::Table;
use crate::{FrequencySet, TableError};

/// Errors specific to the spilling pipeline.
#[derive(Debug)]
pub enum ExternalError {
    /// Underlying table/spec failure.
    Table(TableError),
    /// Spill-file IO failure.
    Io(std::io::Error),
    /// A spill file was truncated or corrupted.
    Corrupt {
        /// The offending partition file.
        partition: PathBuf,
    },
}

impl std::fmt::Display for ExternalError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ExternalError::Table(e) => write!(f, "table error: {e}"),
            ExternalError::Io(e) => write!(f, "spill io error: {e}"),
            ExternalError::Corrupt { partition } => {
                write!(f, "corrupt spill partition {}", partition.display())
            }
        }
    }
}

impl std::error::Error for ExternalError {}

impl From<TableError> for ExternalError {
    fn from(e: TableError) -> Self {
        ExternalError::Table(e)
    }
}

impl From<std::io::Error> for ExternalError {
    fn from(e: std::io::Error) -> Self {
        ExternalError::Io(e)
    }
}

/// Hard cap on spill partitions per set.
const MAX_PARTITIONS: usize = 4096;

/// Total write-buffer budget shared by all partitions of one build; each
/// partition flushes (open-append-close, so at most one spill FD is ever
/// open at a time) once its share fills up. This bounds the build's
/// in-flight memory independently of the row count — the point of
/// spilling — while keeping flushes large enough to amortize the
/// open/close (8 KiB at the default 64-partition fan-out).
const WRITE_BUFFER_BYTES: usize = 512 << 10;

/// Floor on the per-partition buffer share, so very wide partition counts
/// still amortize the open/close per flush over a few records.
const MIN_BUFFER_BYTES: usize = 256;

/// Monotonic suffix for spill-directory names. `SystemTime` alone is not
/// unique: two builds in one process on a coarse clock (or any pre-epoch
/// clock, which `unwrap_or(0)` pinned to the same suffix) would share a
/// directory, interleave partition writes, and the first `Drop` would
/// delete the survivor's live spill files.
static SPILL_SEQ: AtomicU64 = AtomicU64::new(0);

/// Create a directory under `spill_root` that no other
/// `ExternalFrequencySet` in this process can share. `create_dir` (not
/// `create_dir_all`) makes an unexpected survivor — e.g. a stale dir from
/// a crashed run recycled onto the same pid — an `AlreadyExists` error we
/// skip past instead of a silent collision.
fn fresh_spill_dir(spill_root: &Path) -> Result<PathBuf, ExternalError> {
    std::fs::create_dir_all(spill_root)?;
    let pid = std::process::id();
    loop {
        let seq = SPILL_SEQ.fetch_add(1, Ordering::Relaxed);
        let dir = spill_root.join(format!("incognito-spill-{pid}-{seq}"));
        match std::fs::create_dir(&dir) {
            Ok(()) => return Ok(dir),
            Err(e) if e.kind() == std::io::ErrorKind::AlreadyExists => continue,
            Err(e) => return Err(e.into()),
        }
    }
}

/// Bounded-FD partition writers: records accumulate in per-partition
/// memory buffers and are flushed by open-append-close, so the build never
/// holds more than one spill file descriptor open regardless of the
/// partition count (the old design opened up to 4096 `BufWriter<File>`s
/// simultaneously — above the common 1024 ulimit).
struct PartitionWriters<'p> {
    paths: &'p [PathBuf],
    bufs: Vec<Vec<u8>>,
    written: Vec<u64>,
    threshold: usize,
}

impl<'p> PartitionWriters<'p> {
    fn new(paths: &'p [PathBuf]) -> Self {
        let threshold = (WRITE_BUFFER_BYTES / paths.len().max(1)).max(MIN_BUFFER_BYTES);
        PartitionWriters {
            paths,
            bufs: vec![Vec::new(); paths.len()],
            written: vec![0; paths.len()],
            threshold,
        }
    }

    fn write(&mut self, part: usize, record: &[u8]) -> Result<(), ExternalError> {
        self.bufs[part].extend_from_slice(record);
        if self.bufs[part].len() >= self.threshold {
            self.flush_one(part)?;
        }
        Ok(())
    }

    fn flush_one(&mut self, part: usize) -> Result<(), ExternalError> {
        let mut file = OpenOptions::new().create(true).append(true).open(&self.paths[part])?;
        file.write_all(&self.bufs[part])?;
        self.written[part] += self.bufs[part].len() as u64;
        self.bufs[part].clear();
        Ok(())
    }

    /// Flush every buffer (creating empty files for partitions that never
    /// received a record, so readers can treat all paths uniformly) and
    /// return the exact byte length written to each partition.
    fn finish(mut self) -> Result<Vec<u64>, ExternalError> {
        for part in 0..self.paths.len() {
            self.flush_one(part)?;
        }
        Ok(self.written)
    }
}

/// Serialize the group with `digits` over `space` and its `count` as one
/// record into `buf`, and return the partition (of `num_partitions`) the
/// record belongs to.
fn encode_record(
    buf: &mut Vec<u8>,
    space: &KeySpace,
    digits: &[ValueId],
    count: u64,
    num_partitions: usize,
) -> usize {
    use std::hash::BuildHasher;
    if space.is_packable() {
        return encode_code(buf, space.pack(digits), count, num_partitions);
    }
    buf.clear();
    for &v in digits {
        buf.extend_from_slice(&v.to_le_bytes());
    }
    buf.extend_from_slice(&count.to_le_bytes());
    partition_of(FxBuildHasher::default().hash_one(GroupKey::from_slice(digits)), num_partitions)
}

/// [`encode_record`] for a group already packed into its `code`.
fn encode_code(buf: &mut Vec<u8>, code: u64, count: u64, num_partitions: usize) -> usize {
    use std::hash::BuildHasher;
    buf.clear();
    buf.extend_from_slice(&code.to_le_bytes());
    buf.extend_from_slice(&count.to_le_bytes());
    partition_of(FxBuildHasher::default().hash_one(code), num_partitions)
}

/// The partition (of `num_partitions`) of a record whose key hashes to
/// `hash`. Range-reduces with the hash's high bits: a lone Fx multiply
/// leaves the low bits of a code's hash a function of the code's low bits.
fn partition_of(hash: u64, num_partitions: usize) -> usize {
    ((hash as u128 * num_partitions as u128) >> 64) as usize
}

/// A frequency set whose groups live in disk partitions.
///
/// Each partition file is a sequence of fixed-width records: the group's
/// little-endian `u64` code in the spec's key space — or, for a space too
/// wide to pack, its `arity` little-endian `u32` key components — followed
/// by a little-endian `u64` count. A record's partition is chosen by its
/// key's hash, so all records for one group land in the same partition and
/// streaming queries can aggregate one partition at a time.
pub struct ExternalFrequencySet {
    spec: GroupSpec,
    space: KeySpace,
    partitions: Vec<PathBuf>,
    /// Exact byte length written to each partition at build time. Any
    /// later mismatch — including truncation at a record boundary, which
    /// a divisibility check alone cannot see — is corruption.
    expected: Vec<u64>,
    /// Once a partition's on-disk length has been validated against
    /// `expected`, the check is not repeated (no re-`stat` per query).
    checked: Vec<OnceLock<()>>,
    total: u64,
    /// Owned spill directory, removed on drop.
    dir: PathBuf,
}

impl ExternalFrequencySet {
    /// Compute the frequency set of `table` w.r.t. `spec`, spilling
    /// `(key, count)` records into `num_partitions` files under a fresh
    /// subdirectory of `spill_root`.
    pub fn build(
        table: &Table,
        spec: &GroupSpec,
        num_partitions: usize,
        spill_root: &Path,
    ) -> Result<ExternalFrequencySet, ExternalError> {
        spec.validate(table.schema())?;
        let num_partitions = num_partitions.clamp(1, MAX_PARTITIONS);
        let dir = fresh_spill_dir(spill_root)?;
        let mut span = incognito_obs::span("spill.build")
            .arg("rows", table.num_rows() as u64)
            .arg("partitions", num_partitions as u64);

        let schema = table.schema();
        let maps: Vec<&[ValueId]> = spec
            .parts()
            .iter()
            .map(|&(a, l)| schema.hierarchy(a).map_to_level(l))
            .collect();
        let cols: Vec<&[ValueId]> = spec.parts().iter().map(|&(a, _)| table.column(a)).collect();
        let space = KeySpace::for_spec(schema, spec);

        let partitions: Vec<PathBuf> =
            (0..num_partitions).map(|p| dir.join(format!("part-{p}.bin"))).collect();
        let write_all = || -> Result<Vec<u64>, ExternalError> {
            let mut writers = PartitionWriters::new(&partitions);
            let mut buf = Vec::new();
            let rows = 0..table.num_rows();
            if space.is_packable() {
                let kernel = CodeKernel::new(&cols, &maps, &space);
                let mut codes = [0u64; SCAN_BLOCK_ROWS];
                for block in blocks(rows) {
                    for &code in kernel.codes(block, &mut codes) {
                        let part = encode_code(&mut buf, code, 1, num_partitions);
                        writers.write(part, &buf)?;
                    }
                }
            } else {
                let mut digits = vec![0 as ValueId; spec.len()];
                for row in rows {
                    for ((d, col), map) in digits.iter_mut().zip(&cols).zip(&maps) {
                        *d = map[col[row] as usize];
                    }
                    let part = encode_record(&mut buf, &space, &digits, 1, num_partitions);
                    writers.write(part, &buf)?;
                }
            }
            writers.finish()
        };
        let expected = match write_all() {
            Ok(e) => e,
            Err(e) => {
                let _ = std::fs::remove_dir_all(&dir);
                return Err(e);
            }
        };

        let bytes: u64 = expected.iter().sum();
        record_spill(num_partitions, bytes);
        span.set_arg("bytes", bytes);
        Ok(ExternalFrequencySet {
            spec: spec.clone(),
            space,
            checked: (0..num_partitions).map(|_| OnceLock::new()).collect(),
            partitions,
            expected,
            total: table.num_rows() as u64,
            dir,
        })
    }

    /// The grouping spec.
    pub fn spec(&self) -> &GroupSpec {
        &self.spec
    }

    /// Total tuples scanned.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Number of spill partitions.
    pub fn num_partitions(&self) -> usize {
        self.partitions.len()
    }

    /// On-disk footprint of the spilled record files, in bytes.
    pub fn spilled_bytes(&self) -> u64 {
        self.expected.iter().sum()
    }

    /// Bytes per `(key, count)` record: a `u64` code, or one `u32` per key
    /// component when the space is too wide to pack, plus the `u64` count.
    fn record_len(&self) -> usize {
        let key = if self.space.is_packable() { 8 } else { self.space.arity() * 4 };
        key + 8
    }

    /// Number of `(key, count)` records spilled.
    fn records(&self) -> u64 {
        self.spilled_bytes() / self.record_len() as u64
    }

    /// Estimate of the heap bytes
    /// [`ExternalFrequencySet::into_frequency_set`] would occupy: one run
    /// pair per spilled record. The record count bounds the distinct
    /// group count from above (a built set holds one record per row; a
    /// derived set at most one record per group per parent partition), so
    /// this is exact when every record is a distinct group kept as a run,
    /// and otherwise errs high — the dense form is only kept when no
    /// larger than the run. Budget admission checks compare this against
    /// headroom *before* materializing.
    pub fn estimated_resident_bytes(&self) -> u64 {
        self.records() * self.space.pair_bytes()
    }

    /// Check the partition file's length against the exact byte count the
    /// build wrote, once; later queries reuse the verdict instead of
    /// re-`stat`ing. Runs *before* any aggregation so a truncated file is
    /// an error on the first query, not a silently shortened count.
    fn validate_partition(&self, idx: usize) -> Result<(), ExternalError> {
        if self.checked[idx].get().is_some() {
            return Ok(());
        }
        let path = &self.partitions[idx];
        let len = std::fs::metadata(path)?.len();
        if len != self.expected[idx] {
            return Err(ExternalError::Corrupt { partition: path.clone() });
        }
        let _ = self.checked[idx].set(());
        Ok(())
    }

    /// Add every record of partition `idx` to the accumulator `counts`.
    fn gather_partition(&self, idx: usize, counts: &mut Counts) -> Result<(), ExternalError> {
        self.validate_partition(idx)?;
        let path = &self.partitions[idx];
        let record = self.record_len();
        let n_records = (self.expected[idx] / record as u64) as usize;
        let mut reader = BufReader::new(File::open(path)?);
        counts.reserve(n_records);
        let mut buf = vec![0u8; record];
        for _ in 0..n_records {
            reader.read_exact(&mut buf).map_err(|e| {
                if e.kind() == std::io::ErrorKind::UnexpectedEof {
                    // The file shrank between validation and the read.
                    ExternalError::Corrupt { partition: path.clone() }
                } else {
                    ExternalError::Io(e)
                }
            })?;
            let (key, count) = buf.split_at(record - 8);
            let count = u64::from_le_bytes(count.try_into().expect("8-byte count"));
            let code = || u64::from_le_bytes(key.try_into().expect("8-byte code"));
            match counts {
                Counts::Dense(slots) => slots[code() as usize] += count,
                Counts::Codes(run) => run.push((code(), count)),
                Counts::Keys(run) => {
                    let mut k = GroupKey::default();
                    for c in key.chunks_exact(4) {
                        k.push(u32::from_le_bytes(c.try_into().expect("4-byte chunk")));
                    }
                    run.push((k, count));
                }
            }
        }
        Ok(())
    }

    /// Aggregate one partition, into dense slots when they are no larger
    /// than a run of its records and into a run otherwise (the memory
    /// high-water mark of every streaming query).
    fn aggregate_partition(&self, idx: usize) -> Result<Counts, ExternalError> {
        let records = self.expected[idx] / self.record_len() as u64;
        let mut counts = Counts::accumulator(&self.space, records as usize);
        self.gather_partition(idx, &mut counts)?;
        Ok(counts.sorted(&self.space))
    }

    /// Fold every partition's aggregated group counts through `f`,
    /// streaming.
    fn fold_counts<T>(
        &self,
        mut acc: T,
        mut f: impl FnMut(T, u64) -> T,
    ) -> Result<T, ExternalError> {
        for idx in 0..self.partitions.len() {
            acc = self.aggregate_partition(idx)?.values().fold(acc, &mut f);
        }
        Ok(acc)
    }

    /// Number of distinct groups (streamed).
    pub fn num_groups(&self) -> Result<usize, ExternalError> {
        self.fold_counts(0usize, |acc, _| acc + 1)
    }

    /// Smallest group count (streamed); `None` for an empty table.
    pub fn min_count(&self) -> Result<Option<u64>, ExternalError> {
        self.fold_counts(None, |acc: Option<u64>, c| Some(acc.map_or(c, |m| m.min(c))))
    }

    /// K-Anonymity Property, streamed partition by partition.
    pub fn is_k_anonymous(&self, k: u64) -> Result<bool, ExternalError> {
        for idx in 0..self.partitions.len() {
            if self.aggregate_partition(idx)?.values().any(|c| c < k) {
                return Ok(false);
            }
        }
        Ok(true)
    }

    /// Tuples in groups smaller than k (the §2.1 suppression tally).
    pub fn tuples_below(&self, k: u64) -> Result<u64, ExternalError> {
        self.fold_counts(0u64, |acc, c| if c < k { acc + c } else { acc })
    }

    /// K-anonymity modulo suppression: at most `max_suppress` tuples sit
    /// in groups smaller than `k` (matches
    /// [`FrequencySet::is_k_anonymous_with_suppression`]).
    pub fn is_k_anonymous_with_suppression(
        &self,
        k: u64,
        max_suppress: u64,
    ) -> Result<bool, ExternalError> {
        Ok(self.tuples_below(k)? <= max_suppress)
    }

    /// Derive a child set from `(key, count)` records without touching the
    /// base table: aggregate each parent partition in memory, transform
    /// every key through `map_key`, and re-route the transformed records
    /// to the child partition its hash selects. One parent partition's
    /// groups are resident at a time, so memory stays bounded while the
    /// Rollup/Subset optimizations survive out-of-core.
    fn derive(
        &self,
        spec: GroupSpec,
        space: KeySpace,
        spill_root: &Path,
        remap: impl Fn(&[ValueId], &mut [ValueId]),
    ) -> Result<ExternalFrequencySet, ExternalError> {
        let num_partitions = self.partitions.len();
        let dir = fresh_spill_dir(spill_root)?;
        let partitions: Vec<PathBuf> =
            (0..num_partitions).map(|p| dir.join(format!("part-{p}.bin"))).collect();
        let write_all = || -> Result<Vec<u64>, ExternalError> {
            let mut writers = PartitionWriters::new(&partitions);
            let mut buf = Vec::new();
            let mut child = vec![0 as ValueId; space.arity()];
            for idx in 0..num_partitions {
                let mut written = Ok(());
                self.aggregate_partition(idx)?.for_each_group(&self.space, |digits, count| {
                    if written.is_ok() {
                        remap(digits, &mut child);
                        let part = encode_record(&mut buf, &space, &child, count, num_partitions);
                        written = writers.write(part, &buf);
                    }
                });
                written?;
            }
            writers.finish()
        };
        let expected = match write_all() {
            Ok(e) => e,
            Err(e) => {
                let _ = std::fs::remove_dir_all(&dir);
                return Err(e);
            }
        };
        let bytes: u64 = expected.iter().sum();
        record_spill(num_partitions, bytes);
        Ok(ExternalFrequencySet {
            spec,
            space,
            checked: (0..num_partitions).map(|_| OnceLock::new()).collect(),
            partitions,
            expected,
            total: self.total,
            dir,
        })
    }

    /// The Rollup Property (§3), out-of-core: generalize this set to
    /// `target` levels by mapping each key component up its hierarchy and
    /// re-summing, partition by partition. Mirrors
    /// [`FrequencySet::rollup`]; `target[i]` must be ≥ the current level
    /// of the i-th grouped attribute.
    pub fn rollup(
        &self,
        schema: &Schema,
        target: &[LevelNo],
        spill_root: &Path,
    ) -> Result<ExternalFrequencySet, ExternalError> {
        let (spec, maps) = self.spec.rollup_to(schema, target)?;
        let space = KeySpace::for_spec(schema, &spec);
        let mut span = incognito_obs::span("spill.rollup")
            .arg("partitions", self.partitions.len() as u64);
        let child = self.derive(spec, space, spill_root, rollup_digits(&maps))?;
        span.set_arg("bytes", child.spilled_bytes());
        Ok(child)
    }

    /// The Subset Property (§3.3.2), out-of-core: keep only the key
    /// positions in `keep` (strictly increasing indices into this set's
    /// parts) and re-sum. Mirrors [`FrequencySet::project`].
    pub fn project(
        &self,
        keep: &[usize],
        spill_root: &Path,
    ) -> Result<ExternalFrequencySet, ExternalError> {
        let spec = self.spec.project(keep)?;
        let space = self.space.project(keep);
        let mut span = incognito_obs::span("spill.project")
            .arg("partitions", self.partitions.len() as u64);
        let child = self.derive(spec, space, spill_root, project_digits(keep))?;
        span.set_arg("bytes", child.spilled_bytes());
        Ok(child)
    }

    /// Upgrade to the in-memory representation (requires the whole set to
    /// fit, of course), in the form an in-memory build would keep.
    pub fn into_frequency_set(self) -> Result<FrequencySet, ExternalError> {
        let _span = incognito_obs::span("spill.upgrade")
            .arg("partitions", self.partitions.len() as u64);
        let records = self.records() as usize;
        let mut counts = Counts::accumulator(&self.space, records);
        counts.reserve(records);
        for idx in 0..self.partitions.len() {
            self.gather_partition(idx, &mut counts)?;
        }
        let counts = counts.sorted(&self.space);
        incognito_obs::gauge_add("table.spill.upgrades", 1);
        Ok(FrequencySet::from_parts(self.spec.clone(), self.space.clone(), counts, self.total))
    }
}

/// Roll the cumulative spill gauges forward by one spilled set.
fn record_spill(num_partitions: usize, bytes: u64) {
    incognito_obs::gauge_add("table.spill.spilled_sets", 1);
    incognito_obs::gauge_add("table.spill.partitions", num_partitions as i64);
    incognito_obs::gauge_add("table.spill.bytes", bytes as i64);
}

impl Drop for ExternalFrequencySet {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::{Attribute, Schema};
    use incognito_hierarchy::builders;

    fn big_table(rows: u32) -> Table {
        let schema = Schema::new(vec![
            Attribute::new("a", builders::suppression("a", &["0", "1", "2", "3", "4"]).unwrap()),
            Attribute::new(
                "b",
                builders::round_digits("b", &["00", "01", "10", "11", "20", "21"], 2).unwrap(),
            ),
        ])
        .unwrap();
        let mut cols = vec![Vec::new(), Vec::new()];
        for i in 0..rows {
            cols[0].push(i % 5);
            cols[1].push((i * 7) % 6);
        }
        Table::from_columns(schema, cols).unwrap()
    }

    fn spill_root() -> PathBuf {
        std::env::temp_dir()
    }

    #[test]
    fn external_matches_in_memory() {
        let t = big_table(10_000);
        for spec in [
            GroupSpec::ground(&[0, 1]).unwrap(),
            GroupSpec::new(vec![(1, 1)]).unwrap(),
        ] {
            let mem = t.frequency_set(&spec).unwrap();
            let ext = ExternalFrequencySet::build(&t, &spec, 7, &spill_root()).unwrap();
            assert_eq!(ext.total(), mem.total());
            assert_eq!(ext.num_groups().unwrap(), mem.num_groups());
            assert_eq!(ext.min_count().unwrap(), mem.min_count());
            for k in [1u64, 100, 500, 5_000] {
                assert_eq!(ext.is_k_anonymous(k).unwrap(), mem.is_k_anonymous(k), "k={k}");
                assert_eq!(ext.tuples_below(k).unwrap(), mem.tuples_below(k), "k={k}");
                assert_eq!(
                    ext.is_k_anonymous_with_suppression(k, 10).unwrap(),
                    mem.is_k_anonymous_with_suppression(k, 10),
                    "k={k}"
                );
            }
            let upgraded = ext.into_frequency_set().unwrap();
            assert_eq!(
                upgraded.to_labeled_rows(t.schema()),
                mem.to_labeled_rows(t.schema())
            );
        }
    }

    #[test]
    fn single_partition_and_many_partitions_agree() {
        let t = big_table(3_000);
        let spec = GroupSpec::ground(&[0, 1]).unwrap();
        let one = ExternalFrequencySet::build(&t, &spec, 1, &spill_root()).unwrap();
        let many = ExternalFrequencySet::build(&t, &spec, 64, &spill_root()).unwrap();
        assert_eq!(one.num_groups().unwrap(), many.num_groups().unwrap());
        assert_eq!(one.tuples_below(200).unwrap(), many.tuples_below(200).unwrap());
    }

    #[test]
    fn empty_table_streams_cleanly() {
        let t = big_table(0);
        let spec = GroupSpec::ground(&[0]).unwrap();
        let ext = ExternalFrequencySet::build(&t, &spec, 4, &spill_root()).unwrap();
        assert_eq!(ext.num_groups().unwrap(), 0);
        assert_eq!(ext.min_count().unwrap(), None);
        assert!(ext.is_k_anonymous(5).unwrap());
    }

    #[test]
    fn spill_directory_is_cleaned_up() {
        let t = big_table(100);
        let spec = GroupSpec::ground(&[0]).unwrap();
        let dir;
        {
            let ext = ExternalFrequencySet::build(&t, &spec, 2, &spill_root()).unwrap();
            dir = ext.dir.clone();
            assert!(dir.exists());
        }
        assert!(!dir.exists(), "drop must remove the spill directory");
    }

    /// Regression (spill-directory collision): two same-process builds —
    /// necessarily faster than the coarsest clock tick apart, and
    /// previously distinguishable only by `SystemTime` nanos — must land
    /// in distinct directories, and dropping the first must not delete
    /// the second's live spill files.
    #[test]
    fn concurrent_builds_use_distinct_directories() {
        let t = big_table(500);
        let spec = GroupSpec::ground(&[0, 1]).unwrap();
        let expected_groups = t.frequency_set(&spec).unwrap().num_groups();

        let builds: Vec<ExternalFrequencySet> = (0..8)
            .map(|_| ExternalFrequencySet::build(&t, &spec, 4, &spill_root()).unwrap())
            .collect();
        for (i, a) in builds.iter().enumerate() {
            for b in &builds[i + 1..] {
                assert_ne!(a.dir, b.dir, "two builds shared a spill directory");
            }
        }

        let survivor = ExternalFrequencySet::build(&t, &spec, 4, &spill_root()).unwrap();
        drop(builds);
        // Pre-fix, a same-tick sibling's Drop removed this set's files.
        assert_eq!(survivor.num_groups().unwrap(), expected_groups);
        assert!(survivor.dir.exists());
    }

    /// Regression (FD exhaustion): a build with 2048 partitions writing
    /// real rows must not hold thousands of file descriptors open at once
    /// (the old code opened one `BufWriter<File>` per partition up front,
    /// above the common 1024 ulimit).
    #[test]
    fn many_partitions_stay_under_fd_limits() {
        let t = big_table(5_000);
        let spec = GroupSpec::ground(&[0, 1]).unwrap();
        let mem = t.frequency_set(&spec).unwrap();
        let ext = ExternalFrequencySet::build(&t, &spec, 2048, &spill_root()).unwrap();
        assert_eq!(ext.num_partitions(), 2048);
        assert_eq!(ext.num_groups().unwrap(), mem.num_groups());
        assert_eq!(ext.min_count().unwrap(), mem.min_count());
        assert_eq!(ext.tuples_below(300).unwrap(), mem.tuples_below(300));
    }

    /// Regression (torn-record detection): truncating a partition —
    /// mid-record *or* at an exact record boundary — must surface as
    /// `Corrupt` on the next query instead of silently shrinking the
    /// counts. The boundary case is what the old after-the-fact
    /// `len % record == 0` check could never see.
    #[test]
    fn truncated_partition_is_detected_before_aggregation() {
        let t = big_table(1_000);
        let spec = GroupSpec::ground(&[0, 1]).unwrap();
        // A packable spec spills a `u64` code and a `u64` count.
        let record = 16;

        // Mid-record truncation.
        let ext = ExternalFrequencySet::build(&t, &spec, 1, &spill_root()).unwrap();
        let path = ext.partitions[0].clone();
        let len = std::fs::metadata(&path).unwrap().len();
        let file = OpenOptions::new().write(true).open(&path).unwrap();
        file.set_len(len - 3).unwrap();
        drop(file);
        assert!(matches!(
            ext.num_groups(),
            Err(ExternalError::Corrupt { .. })
        ));

        // Record-boundary truncation: the file length stays divisible by
        // the record width, so only the cached expected length catches it.
        let ext = ExternalFrequencySet::build(&t, &spec, 1, &spill_root()).unwrap();
        let path = ext.partitions[0].clone();
        let len = std::fs::metadata(&path).unwrap().len();
        assert_eq!(len % record as u64, 0);
        let file = OpenOptions::new().write(true).open(&path).unwrap();
        file.set_len(len - record as u64).unwrap();
        drop(file);
        assert!(
            matches!(ext.tuples_below(100), Err(ExternalError::Corrupt { .. })),
            "boundary truncation must not silently drop a record"
        );
    }

    /// The validated length is cached: once a partition has been checked,
    /// queries stop re-`stat`ing it and keep working.
    #[test]
    fn validation_verdict_is_cached() {
        let t = big_table(1_000);
        let spec = GroupSpec::ground(&[0, 1]).unwrap();
        let ext = ExternalFrequencySet::build(&t, &spec, 3, &spill_root()).unwrap();
        let groups = ext.num_groups().unwrap();
        for idx in 0..ext.num_partitions() {
            assert!(ext.checked[idx].get().is_some(), "partition {idx} not cached");
        }
        assert_eq!(ext.num_groups().unwrap(), groups);
    }

    #[test]
    fn external_rollup_matches_in_memory_rollup() {
        let t = big_table(4_000);
        let spec = GroupSpec::ground(&[0, 1]).unwrap();
        let mem = t.frequency_set(&spec).unwrap();
        let ext = ExternalFrequencySet::build(&t, &spec, 8, &spill_root()).unwrap();
        for target in [[0u8, 1], [1, 0], [1, 2], [0, 2]] {
            let mem_r = mem.rollup(t.schema(), &target).unwrap();
            let ext_r = ext.rollup(t.schema(), &target, &spill_root()).unwrap();
            assert_eq!(ext_r.total(), mem_r.total());
            assert_eq!(ext_r.num_groups().unwrap(), mem_r.num_groups());
            assert_eq!(
                ext_r.into_frequency_set().unwrap().to_labeled_rows(t.schema()),
                mem_r.to_labeled_rows(t.schema()),
                "target={target:?}"
            );
        }
        // Rollup of a rollup (the chained lattice-walk case).
        let ext_r = ext.rollup(t.schema(), &[1, 1], &spill_root()).unwrap();
        let ext_rr = ext_r.rollup(t.schema(), &[1, 2], &spill_root()).unwrap();
        let mem_rr = mem.rollup(t.schema(), &[1, 2]).unwrap();
        assert_eq!(
            ext_rr.into_frequency_set().unwrap().to_labeled_rows(t.schema()),
            mem_rr.to_labeled_rows(t.schema())
        );
    }

    #[test]
    fn external_project_matches_in_memory_project() {
        let t = big_table(4_000);
        let spec = GroupSpec::ground(&[0, 1]).unwrap();
        let mem = t.frequency_set(&spec).unwrap();
        let ext = ExternalFrequencySet::build(&t, &spec, 8, &spill_root()).unwrap();
        for keep in [vec![0usize], vec![1], vec![0, 1]] {
            let mem_p = mem.project(&keep).unwrap();
            let ext_p = ext.project(&keep, &spill_root()).unwrap();
            assert_eq!(ext_p.total(), mem_p.total());
            assert_eq!(
                ext_p.into_frequency_set().unwrap().to_labeled_rows(t.schema()),
                mem_p.to_labeled_rows(t.schema()),
                "keep={keep:?}"
            );
        }
    }

    #[test]
    fn rollup_rejects_bad_targets() {
        let t = big_table(100);
        let spec = GroupSpec::ground(&[0, 1]).unwrap();
        let ext = ExternalFrequencySet::build(&t, &spec, 2, &spill_root()).unwrap();
        assert!(matches!(
            ext.rollup(t.schema(), &[1], &spill_root()),
            Err(ExternalError::Table(_))
        ));
        assert!(matches!(
            ext.project(&[5], &spill_root()),
            Err(ExternalError::Table(_))
        ));
    }

    #[test]
    fn packable_sets_spill_sixteen_bytes_per_record() {
        let mid = crate::freq::tests::mid_table(5_000);
        let wide = crate::freq::tests::wide_table(300);
        for (t, spec, record) in [
            (&big_table(1_000), GroupSpec::ground(&[0, 1]).unwrap(), 16),
            (&mid, GroupSpec::ground(&[0, 1, 2]).unwrap(), 16),
            // Too wide to pack: five `u32` components and the count.
            (&wide, GroupSpec::ground(&[0, 1, 2, 3, 4]).unwrap(), 28),
        ] {
            // A built set spills one record per row ...
            let ext = ExternalFrequencySet::build(t, &spec, 4, &spill_root()).unwrap();
            assert_eq!(ext.spilled_bytes(), record * t.num_rows() as u64, "{spec:?}");
            // ... and a projection one record per parent group, packed
            // even from a wide parent once two attributes remain.
            let child = ext.project(&[0, 1], &spill_root()).unwrap();
            assert_eq!(child.spilled_bytes(), 16 * ext.num_groups().unwrap() as u64);
        }
    }

    /// A partition aggregates into dense slots when they are no larger
    /// than a run of its records: a rollup that merges every group into
    /// one reads one slot per partition, not one pair per record.
    #[test]
    fn collapsing_partitions_aggregate_into_dense_slots() {
        let mid = crate::freq::tests::mid_table(5_000);
        let spec = GroupSpec::ground(&[0, 1, 2]).unwrap();
        let ext = ExternalFrequencySet::build(&mid, &spec, 4, &spill_root()).unwrap();
        let top = ext.rollup(mid.schema(), &[3, 1, 2], &spill_root()).unwrap();
        // Derivation writes one record per parent group, all to one partition.
        assert_eq!(top.records(), ext.num_groups().unwrap() as u64);
        let idx = (0..top.num_partitions()).find(|&i| top.expected[i] > 0).unwrap();
        assert!(matches!(top.aggregate_partition(idx).unwrap(), Counts::Dense(s) if s.len() == 1));
        assert_eq!(top.num_groups().unwrap(), 1);
        assert_eq!(top.min_count().unwrap(), Some(5_000));
    }

    /// Budget admission upgrades a spilled child only when its estimate
    /// fits the headroom, so the estimate must bound what the upgrade
    /// holds: for a set kept as dense slots, one kept as a code run, and
    /// one too wide to pack, both built and derived. A run upgraded from
    /// records that are all distinct groups holds exactly the estimate.
    #[test]
    fn estimate_bounds_the_upgraded_footprint_in_every_form() {
        let mid = crate::freq::tests::mid_table(5_000);
        let wide = crate::freq::tests::wide_table(1_500);
        let mut exact = 0;
        for (t, spec, form) in [
            (&big_table(4_000), GroupSpec::ground(&[0, 1]).unwrap(), "dense"),
            (&mid, GroupSpec::ground(&[0, 1, 2]).unwrap(), "packed"),
            (&wide, GroupSpec::ground(&[0, 1, 2, 3, 4]).unwrap(), "hash"),
        ] {
            let ext = ExternalFrequencySet::build(t, &spec, 8, &spill_root()).unwrap();
            let same_level: Vec<LevelNo> = spec.parts().iter().map(|&(_, l)| l).collect();
            let child = ext.rollup(t.schema(), &same_level, &spill_root()).unwrap();
            let in_memory = t.frequency_set(&spec).unwrap();
            assert_eq!(in_memory.form(), form);
            for set in [ext, child] {
                let (estimate, records) = (set.estimated_resident_bytes(), set.records());
                let upgraded = set.into_frequency_set().unwrap();
                assert_eq!(upgraded.form(), form, "upgrades land in the in-memory form");
                assert_eq!(upgraded.resident_bytes(), in_memory.resident_bytes());
                assert!(
                    estimate >= upgraded.resident_bytes(),
                    "{form}: estimate {estimate} < resident {}",
                    upgraded.resident_bytes()
                );
                if form != "dense" {
                    crate::freq::tests::assert_is_run(&upgraded, form);
                    if records == upgraded.num_groups() as u64 {
                        assert_eq!(estimate, upgraded.resident_bytes(), "{form}");
                        exact += 1;
                    }
                }
            }
        }
        // The same-level children of both runs, and the wide build (its
        // 1,500 rows are distinct groups).
        assert_eq!(exact, 3);
    }
}
