//! Frequency sets and the Rollup / Subset properties.
//!
//! A frequency set (§1.1 of the paper) maps each distinct combination of
//! quasi-identifier values to its tuple count — the result of
//! `SELECT COUNT(*) ... GROUP BY Q1, ..., Qn`. The Incognito algorithms
//! manipulate frequency sets three ways:
//!
//! * [`Table::frequency_set`](crate::Table::frequency_set) computes one from
//!   the base table (a table scan);
//! * [`FrequencySet::rollup`] generalizes one to higher levels by summing
//!   counts along the dimension hierarchies (the **Rollup Property**, §3);
//! * [`FrequencySet::project`] drops attributes and re-sums (used by Cube
//!   Incognito's zero-generalization pre-computation, §3.3.2; its soundness
//!   is the **Subset Property**).
//!
//! A set keeps its groups as mixed-radix `u64` codes over the spec's
//! `KeySpace` from scan through rollup, projection and spill: a dense
//! slot vector when that is no larger than a run of the same groups,
//! otherwise a *run* — `(code, count)` pairs in ascending code order with
//! no repeated code. Only key spaces wider than 64 bits keep a run keyed
//! by [`GroupKey`] instead; otherwise keys appear only at the API edges
//! ([`FrequencySet::count`], [`FrequencySet::iter`]). Every run is built
//! the same way: gather the codes or pairs, sort them (an LSD radix sort
//! for codes), and merge equal keys in place.

use std::cmp::Ordering;
use std::hash::{Hash, Hasher};
use std::ops::Range;
use std::sync::Arc;

use incognito_hierarchy::{LevelNo, ValueId};

use crate::schema::Schema;
use crate::table::Table;
use crate::TableError;

/// Maximum number of attributes in one group key. The paper's largest
/// quasi-identifier has 9 attributes; 16 leaves headroom while keeping keys
/// inline (no heap allocation per group).
pub const MAX_KEY_ATTRS: usize = 16;

/// A grouping specification: which attributes to group by, and at which
/// generalization level each is taken. This identifies one node of a
/// multi-attribute generalization graph.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct GroupSpec {
    /// `(attribute index, level)` pairs, in key-component order.
    parts: Vec<(usize, LevelNo)>,
}

impl GroupSpec {
    /// Create a spec from `(attribute, level)` pairs. Attributes must be
    /// distinct and there may be at most [`MAX_KEY_ATTRS`] of them.
    pub fn new(parts: Vec<(usize, LevelNo)>) -> Result<Self, TableError> {
        if parts.len() > MAX_KEY_ATTRS {
            return Err(TableError::KeyTooWide(parts.len()));
        }
        for (i, &(a, _)) in parts.iter().enumerate() {
            if parts[..i].iter().any(|&(b, _)| a == b) {
                return Err(TableError::IncompatibleSpec(format!(
                    "attribute {a} appears twice in group spec"
                )));
            }
        }
        Ok(GroupSpec { parts })
    }

    /// Spec over `attrs`, all at ground level.
    pub fn ground(attrs: &[usize]) -> Result<Self, TableError> {
        Self::new(attrs.iter().map(|&a| (a, 0)).collect())
    }

    /// The `(attribute, level)` parts in key order.
    pub fn parts(&self) -> &[(usize, LevelNo)] {
        &self.parts
    }

    /// Number of grouped attributes.
    pub fn len(&self) -> usize {
        self.parts.len()
    }

    /// True if no attributes are grouped.
    pub fn is_empty(&self) -> bool {
        self.parts.is_empty()
    }

    /// Check attribute indices and levels against `schema`.
    pub fn validate(&self, schema: &Schema) -> Result<(), TableError> {
        for &(a, l) in &self.parts {
            if a >= schema.arity() {
                return Err(TableError::AttributeOutOfRange { index: a, arity: schema.arity() });
            }
            let h = schema.hierarchy(a);
            if l > h.height() {
                return Err(TableError::LevelOutOfRange {
                    attribute: schema.attribute(a).name().to_string(),
                    level: l,
                    height: h.height(),
                });
            }
        }
        Ok(())
    }

    /// The spec `target` levels up from this one (one level per part,
    /// each ≥ the current level), with the γ map taking each key
    /// component there. Shared by the in-memory and out-of-core rollups.
    pub(crate) fn rollup_to<'s>(
        &self,
        schema: &'s Schema,
        target: &[LevelNo],
    ) -> Result<(GroupSpec, Vec<&'s [ValueId]>), TableError> {
        if target.len() != self.len() {
            return Err(TableError::IncompatibleSpec(format!(
                "rollup target has {} levels, spec has {}",
                target.len(),
                self.len()
            )));
        }
        let mut maps = Vec::with_capacity(target.len());
        for (&(a, from), &to) in self.parts.iter().zip(target) {
            let h = schema.hierarchy(a);
            if to < from {
                return Err(TableError::IncompatibleSpec(format!(
                    "cannot roll attribute {a} down from level {from} to {to}"
                )));
            }
            // Memoized at hierarchy construction — an O(1) borrow per part.
            maps.push(h.between_map(from, to).map_err(|_| TableError::LevelOutOfRange {
                attribute: schema.attribute(a).name().to_string(),
                level: to,
                height: h.height(),
            })?);
        }
        let parts = self.parts.iter().zip(target).map(|(&(a, _), &l)| (a, l)).collect();
        Ok((GroupSpec { parts }, maps))
    }

    /// The spec keeping only the positions in `keep`, which must be
    /// strictly increasing and in range.
    pub(crate) fn project(&self, keep: &[usize]) -> Result<GroupSpec, TableError> {
        if keep.iter().any(|&p| p >= self.len()) || keep.windows(2).any(|w| w[0] >= w[1]) {
            return Err(TableError::IncompatibleSpec(format!(
                "projection positions must be strictly increasing and < {}",
                self.len()
            )));
        }
        Ok(GroupSpec { parts: keep.iter().map(|&p| self.parts[p]).collect() })
    }
}

/// An inline tuple of generalized value ids — one group of a frequency set.
#[derive(Debug, Clone, Copy)]
pub struct GroupKey {
    len: u8,
    vals: [ValueId; MAX_KEY_ATTRS],
}

impl Default for GroupKey {
    fn default() -> Self {
        GroupKey { len: 0, vals: [0; MAX_KEY_ATTRS] }
    }
}

impl GroupKey {
    /// Build a key from a slice of at most [`MAX_KEY_ATTRS`] ids.
    pub fn from_slice(ids: &[ValueId]) -> Self {
        assert!(ids.len() <= MAX_KEY_ATTRS, "group key too wide");
        let mut k = GroupKey::default();
        k.vals[..ids.len()].copy_from_slice(ids);
        k.len = ids.len() as u8;
        k
    }

    /// Append one component.
    ///
    /// # Panics
    /// Panics if the key is already [`MAX_KEY_ATTRS`] wide.
    #[inline]
    pub fn push(&mut self, id: ValueId) {
        assert!(
            (self.len as usize) < MAX_KEY_ATTRS,
            "GroupKey::push: key already holds MAX_KEY_ATTRS ({MAX_KEY_ATTRS}) components"
        );
        self.vals[self.len as usize] = id;
        self.len += 1;
    }

    /// Append one component, reporting overflow as [`TableError::KeyTooWide`]
    /// instead of panicking.
    #[inline]
    pub fn try_push(&mut self, id: ValueId) -> Result<(), TableError> {
        if (self.len as usize) >= MAX_KEY_ATTRS {
            return Err(TableError::KeyTooWide(self.len as usize + 1));
        }
        self.vals[self.len as usize] = id;
        self.len += 1;
        Ok(())
    }

    /// The key's components.
    #[inline]
    pub fn as_slice(&self) -> &[ValueId] {
        &self.vals[..self.len as usize]
    }
}

impl PartialEq for GroupKey {
    #[inline]
    fn eq(&self, other: &Self) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl Eq for GroupKey {}

/// Lexicographic over the components: for keys of one space, the order
/// of their packed codes.
impl Ord for GroupKey {
    #[inline]
    fn cmp(&self, other: &Self) -> Ordering {
        self.as_slice().cmp(other.as_slice())
    }
}

impl PartialOrd for GroupKey {
    #[inline]
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Hash for GroupKey {
    #[inline]
    fn hash<H: Hasher>(&self, state: &mut H) {
        // Hash length + components as u64 words; cheaper than byte-slicing.
        state.write_u8(self.len);
        for &v in self.as_slice() {
            state.write_u32(v);
        }
    }
}

/// Upper bound on dense-accumulator slots: aggregate into a flat
/// `Vec<u64>` (512 KiB of counts) instead of a run whenever the key
/// space is at most this large. Chosen to stay comfortably inside L2 so
/// the dense kernel's random writes stay cheap.
const DENSE_MAX_SLOTS: u64 = 1 << 16;

/// Dense spaces at most this large are scanned into four interleaved
/// histograms (8 KiB on the stack) that are summed at the end.
const SPLIT_MAX_SLOTS: usize = 256;

/// Rows per block of the scan kernel: a block's codes (16 KiB) and the
/// column slices it reads stay in L1 between the kernel's passes.
pub(crate) const SCAN_BLOCK_ROWS: usize = 2048;

/// Fewest rows worth one shard of a parallel scan.
const MIN_SHARD_ROWS: usize = 1024;

/// Bytes per group of a code run: a `(u64, u64)` pair.
const CODE_PAIR_BYTES: u64 = std::mem::size_of::<(u64, u64)>() as u64;

/// Bytes per group of a [`GroupKey`] run.
const KEY_PAIR_BYTES: u64 = std::mem::size_of::<(GroupKey, u64)>() as u64;

/// Inputs shorter than this are sorted by comparison: below it, a radix
/// pass's 256-bucket prefix sum costs more than it saves.
const RADIX_MIN_LEN: usize = 64;

/// Mixed-radix layout over a key space with known per-position
/// cardinalities: packs a key into a single `u64` code when the product of
/// cardinalities fits, and tells the kernels when the space is small
/// enough for a flat dense accumulator.
#[derive(Debug, Clone)]
pub(crate) struct KeySpace {
    /// Cardinality of each key position.
    dims: Vec<u64>,
    /// Row-major strides: `strides[i]` = product of cardinalities of the
    /// positions after `i` (`strides.last() == 1`).
    strides: Vec<u64>,
    /// Total number of distinct codes, `None` when it overflows `u64`
    /// (packing impossible; sets fall back to [`GroupKey`] runs).
    slots: Option<u64>,
}

impl KeySpace {
    /// Layout for per-position cardinalities `dims` (each ≥ 1).
    fn new(dims: Vec<u64>) -> KeySpace {
        let mut strides = vec![1u64; dims.len()];
        let mut slots: Option<u64> = Some(1);
        for i in (0..dims.len()).rev() {
            // A stride of 0 is unused: packing is disabled once overflowed.
            strides[i] = slots.unwrap_or(0);
            slots = slots.and_then(|s| s.checked_mul(dims[i]));
        }
        KeySpace { dims, strides, slots }
    }

    /// Layout of `spec`'s key space: one dimension per part, sized by the
    /// attribute's domain at the grouped level.
    pub(crate) fn for_spec(schema: &Schema, spec: &GroupSpec) -> KeySpace {
        KeySpace::new(
            spec.parts.iter().map(|&(a, l)| schema.hierarchy(a).level_size(l) as u64).collect(),
        )
    }

    /// The sub-space of the positions in `keep`.
    pub(crate) fn project(&self, keep: &[usize]) -> KeySpace {
        KeySpace::new(keep.iter().map(|&p| self.dims[p]).collect())
    }

    /// Number of key positions.
    pub(crate) fn arity(&self) -> usize {
        self.dims.len()
    }

    /// Whether the whole space fits a dense `Vec<u64>` accumulator.
    fn is_dense(&self) -> bool {
        self.slots.is_some_and(|s| s <= DENSE_MAX_SLOTS)
    }

    /// Whether keys pack into a single `u64`.
    pub(crate) fn is_packable(&self) -> bool {
        self.slots.is_some()
    }

    /// Number of dense slots.
    ///
    /// # Panics
    /// Panics if the space is not packable.
    fn len(&self) -> usize {
        self.slots.expect("dense key space") as usize
    }

    /// Whether a dense slot vector is no larger than a run of `groups`
    /// groups.
    fn dense_fits(&self, groups: usize) -> bool {
        self.is_dense() && self.len() as u64 * 8 <= (groups as u64).saturating_mul(CODE_PAIR_BYTES)
    }

    /// Bytes per group of a run over this space.
    pub(crate) fn pair_bytes(&self) -> u64 {
        if self.is_packable() {
            CODE_PAIR_BYTES
        } else {
            KEY_PAIR_BYTES
        }
    }

    /// Significant bits of the largest code (packable spaces only).
    fn code_bits(&self) -> u32 {
        u64::BITS - self.slots.expect("packable key space").saturating_sub(1).leading_zeros()
    }

    /// Pack in-domain digits into their code (packable spaces only).
    #[inline]
    pub(crate) fn pack(&self, digits: &[ValueId]) -> u64 {
        digits.iter().zip(&self.strides).map(|(&v, &s)| v as u64 * s).sum()
    }

    /// Decode `code` into its digits.
    #[inline]
    fn decode(&self, mut code: u64, digits: &mut [ValueId]) {
        for (d, &stride) in digits.iter_mut().zip(&self.strides) {
            let v = code / stride;
            code -= v * stride;
            *d = v as ValueId;
        }
    }

    /// Decode `code` into a [`GroupKey`].
    fn unpack(&self, code: u64) -> GroupKey {
        let mut key = GroupKey { len: self.arity() as u8, ..GroupKey::default() };
        self.decode(code, &mut key.vals[..self.arity()]);
        key
    }
}

/// `rows` cut into consecutive blocks of at most [`SCAN_BLOCK_ROWS`].
pub(crate) fn blocks(rows: Range<usize>) -> impl Iterator<Item = Range<usize>> {
    rows.clone().step_by(SCAN_BLOCK_ROWS).map(move |s| s..rows.end.min(s + SCAN_BLOCK_ROWS))
}

/// The row → code kernel of a packable key space, one column at a time:
/// each part's column, γ map and stride, without the parts whose level
/// has a single value. Such a part's digit is always 0, so it adds
/// nothing to any code, and the other parts keep their strides: codes
/// are identical to packing every part.
pub(crate) struct CodeKernel<'a> {
    terms: Vec<(&'a [ValueId], &'a [ValueId], u64)>,
}

impl<'a> CodeKernel<'a> {
    /// The kernel for rows of `cols`, mapped through `maps`, over `space`
    /// (one column and map per part; the space must be packable).
    pub(crate) fn new(cols: &[&'a [ValueId]], maps: &[&'a [ValueId]], space: &KeySpace) -> Self {
        debug_assert!(space.is_packable());
        let terms = cols
            .iter()
            .zip(maps)
            .zip(space.dims.iter().zip(&space.strides))
            .filter(|&(_, (&dim, _))| dim > 1)
            .map(|((&col, &map), (_, &stride))| (col, map, stride))
            .collect();
        CodeKernel { terms }
    }

    /// The codes of `block` (at most [`SCAN_BLOCK_ROWS`] rows), written
    /// into the head of `buf`: the first part assigns its term, and every
    /// other part adds its own in a pass of its own.
    pub(crate) fn codes<'b>(
        &self,
        block: Range<usize>,
        buf: &'b mut [u64; SCAN_BLOCK_ROWS],
    ) -> &'b [u64] {
        let out = &mut buf[..block.len()];
        match self.terms.split_first() {
            None => out.fill(0),
            Some((&(col, map, stride), rest)) => {
                for (c, &v) in out.iter_mut().zip(&col[block.clone()]) {
                    *c = map[v as usize] as u64 * stride;
                }
                for &(col, map, stride) in rest {
                    for (c, &v) in out.iter_mut().zip(&col[block.clone()]) {
                        *c += map[v as usize] as u64 * stride;
                    }
                }
            }
        }
        out
    }
}

/// Sort `v` by `key`, whose values fit in the low `bits` bits: an LSD
/// radix sort, one byte of the key per pass, that skips every pass whose
/// byte is the same for all of `v`. Inputs shorter than
/// [`RADIX_MIN_LEN`] are sorted by comparison.
fn radix_sort<T: Copy>(v: &mut Vec<T>, bits: u32, key: impl Fn(&T) -> u64) {
    if v.len() < RADIX_MIN_LEN {
        v.sort_unstable_by_key(|x| key(x));
        return;
    }
    // One read pass counts every pass's digits.
    let mut hist = vec![[0usize; 256]; bits.div_ceil(8) as usize];
    for x in v.iter() {
        let k = key(x);
        for (d, h) in hist.iter_mut().enumerate() {
            h[(k >> (8 * d)) as u8 as usize] += 1;
        }
    }
    let first = key(&v[0]);
    let mut scratch: Vec<T> = Vec::new();
    for (d, h) in hist.iter().enumerate() {
        let shift = 8 * d;
        if h[(first >> shift) as u8 as usize] == v.len() {
            continue;
        }
        let mut next = [0usize; 256];
        let mut sum = 0;
        for (n, &c) in next.iter_mut().zip(h) {
            *n = sum;
            sum += c;
        }
        if scratch.is_empty() {
            scratch = v.clone();
        }
        for x in v.iter() {
            let b = (key(x) >> shift) as u8 as usize;
            scratch[next[b]] = *x;
            next[b] += 1;
        }
        std::mem::swap(v, &mut scratch);
    }
}

/// Merge the adjacent pairs of key-sorted `pairs` that share a key,
/// summing their counts, and release the slack: the pairs become a run.
fn merge_equal<K: PartialEq>(pairs: &mut Vec<(K, u64)>) {
    pairs.dedup_by(|next, kept| {
        let same = next.0 == kept.0;
        if same {
            kept.1 += next.1;
        }
        same
    });
    pairs.shrink_to_fit();
}

/// The run of sorted `keys`, each distinct key with its number of
/// occurrences, allocated for exactly its groups.
fn run_of_sorted<K: PartialEq + Copy>(keys: &[K]) -> Vec<(K, u64)> {
    let groups = keys.windows(2).filter(|w| w[0] != w[1]).count() + usize::from(!keys.is_empty());
    let mut run: Vec<(K, u64)> = Vec::with_capacity(groups);
    for &k in keys {
        match run.last_mut() {
            Some((last, c)) if *last == k => *c += 1,
            _ => run.push((k, 1)),
        }
    }
    run
}

/// The count of `key` in `run`, 0 if absent.
fn run_count<K: Ord>(run: &[(K, u64)], key: &K) -> u64 {
    run.binary_search_by(|(k, _)| k.cmp(key)).map_or(0, |i| run[i].1)
}

/// The counts of a frequency set, keyed by group over a [`KeySpace`].
///
/// A set holds its runs sorted by key with no key repeated. An
/// accumulator's runs gather pairs in any order, with repeats, until
/// [`Counts::sorted`] turns them into runs.
#[derive(Debug, Clone)]
pub(crate) enum Counts {
    /// One slot per code of a dense space; a zero slot is an absent group.
    Dense(Vec<u64>),
    /// `(code, count)` pairs.
    Codes(Vec<(u64, u64)>),
    /// `(key, count)` pairs, for spaces too wide to pack.
    Keys(Vec<(GroupKey, u64)>),
}

impl Counts {
    /// An empty accumulator for at most `bound` groups over `space`: dense
    /// slots when even `bound` groups would not make a smaller run.
    pub(crate) fn accumulator(space: &KeySpace, bound: usize) -> Counts {
        if space.dense_fits(bound) {
            Counts::Dense(vec![0; space.len()])
        } else if space.is_packable() {
            Counts::Codes(Vec::new())
        } else {
            Counts::Keys(Vec::new())
        }
    }

    /// Make room in a run accumulator for `pairs` more pairs.
    pub(crate) fn reserve(&mut self, pairs: usize) {
        match self {
            Counts::Dense(_) => {}
            Counts::Codes(run) => run.reserve_exact(pairs),
            Counts::Keys(run) => run.reserve_exact(pairs),
        }
    }

    /// The kernel tier that fills this form, as named in the
    /// `table.kernel.<tier>.*` counters.
    #[cfg(test)]
    fn tier(&self) -> &'static str {
        match self {
            Counts::Dense(_) => "dense",
            Counts::Codes(_) => "packed",
            Counts::Keys(_) => "hash",
        }
    }

    /// Add `c` to the group with (in-domain) `digits` over `space`.
    #[inline]
    pub(crate) fn add(&mut self, space: &KeySpace, digits: &[ValueId], c: u64) {
        match self {
            Counts::Dense(slots) => slots[space.pack(digits) as usize] += c,
            Counts::Codes(run) => run.push((space.pack(digits), c)),
            Counts::Keys(run) => run.push((GroupKey::from_slice(digits), c)),
        }
    }

    /// Fold `other`, an accumulator of the same form, into this one.
    fn absorb(&mut self, other: Counts) {
        match (self, other) {
            (Counts::Dense(a), Counts::Dense(b)) => a.iter_mut().zip(b).for_each(|(x, y)| *x += y),
            (Counts::Codes(a), Counts::Codes(b)) => a.extend(b),
            (Counts::Keys(a), Counts::Keys(b)) => a.extend(b),
            _ => unreachable!("accumulators over one key space share a form"),
        }
    }

    /// This accumulator with its pairs sorted by key and equal keys
    /// merged: codes by [`radix_sort`] over `space`'s code width, keys by
    /// comparison.
    pub(crate) fn sorted(mut self, space: &KeySpace) -> Counts {
        match &mut self {
            Counts::Dense(_) => {}
            Counts::Codes(run) => {
                radix_sort(run, space.code_bits(), |&(code, _)| code);
                merge_equal(run);
            }
            Counts::Keys(run) => {
                run.sort_unstable_by_key(|&(key, _)| key);
                merge_equal(run);
            }
        }
        self
    }

    /// Visit every group as its digits over `space` and its count, in
    /// ascending key order.
    pub(crate) fn for_each_group(&self, space: &KeySpace, mut f: impl FnMut(&[ValueId], u64)) {
        let mut buf = [0 as ValueId; MAX_KEY_ATTRS];
        let digits = &mut buf[..space.arity()];
        let mut visit = |code: u64, c: u64| {
            space.decode(code, digits);
            f(digits, c);
        };
        match self {
            Counts::Dense(slots) => {
                for (code, &c) in slots.iter().enumerate().filter(|(_, &c)| c != 0) {
                    visit(code as u64, c);
                }
            }
            Counts::Codes(run) => run.iter().for_each(|&(code, c)| visit(code, c)),
            Counts::Keys(run) => run.iter().for_each(|(key, c)| f(key.as_slice(), *c)),
        }
    }

    /// The form these complete counts are kept in, with their group
    /// count: dense slots only while no larger than a run of the same
    /// groups, a run as it is.
    fn settle(self, space: &KeySpace) -> (Counts, usize) {
        match self {
            Counts::Dense(slots) => {
                let groups = slots.iter().filter(|&&c| c != 0).count();
                if space.dense_fits(groups) {
                    return (Counts::Dense(slots), groups);
                }
                let mut run = Vec::with_capacity(groups);
                run.extend(
                    slots.iter().enumerate().filter(|(_, &c)| c != 0).map(|(i, &c)| (i as u64, c)),
                );
                (Counts::Codes(run), groups)
            }
            Counts::Codes(run) => {
                let groups = run.len();
                (Counts::Codes(run), groups)
            }
            Counts::Keys(run) => {
                let groups = run.len();
                (Counts::Keys(run), groups)
            }
        }
    }

    /// Heap footprint: 8 bytes per dense slot, or the pair size per
    /// allocated pair of a run — exactly its groups once settled.
    fn resident_bytes(&self) -> u64 {
        match self {
            Counts::Dense(slots) => slots.len() as u64 * 8,
            Counts::Codes(run) => run.capacity() as u64 * CODE_PAIR_BYTES,
            Counts::Keys(run) => run.capacity() as u64 * KEY_PAIR_BYTES,
        }
    }

    /// Every group's count, in key order.
    pub(crate) fn values(&self) -> Box<dyn Iterator<Item = u64> + '_> {
        match self {
            Counts::Dense(slots) => Box::new(slots.iter().copied().filter(|&c| c != 0)),
            Counts::Codes(run) => Box::new(run.iter().map(|&(_, c)| c)),
            Counts::Keys(run) => Box::new(run.iter().map(|&(_, c)| c)),
        }
    }
}

/// The span and counter names of one kind of derivation, spelled out so
/// that recording them allocates nothing.
struct Derivation {
    span: &'static str,
    dense: &'static str,
    count: &'static str,
    groups_in: &'static str,
    groups_out: &'static str,
}

const ROLLUP: Derivation = Derivation {
    span: "table.rollup",
    dense: "table.rollup.dense",
    count: "table.rollup.count",
    groups_in: "table.rollup.groups_in",
    groups_out: "table.rollup.groups_out",
};

const PROJECT: Derivation = Derivation {
    span: "table.project",
    dense: "table.project.dense",
    count: "table.project.count",
    groups_in: "table.project.groups_in",
    groups_out: "table.project.groups_out",
};

/// Digit remapping of a rollup: component `i` goes through `maps[i]`.
pub(crate) fn rollup_digits<'m>(
    maps: &'m [&'m [ValueId]],
) -> impl Fn(&[ValueId], &mut [ValueId]) + 'm {
    move |src, out| {
        for ((o, &v), map) in out.iter_mut().zip(src).zip(maps) {
            *o = map[v as usize];
        }
    }
}

/// Digit remapping of a projection onto the positions in `keep`.
pub(crate) fn project_digits(keep: &[usize]) -> impl Fn(&[ValueId], &mut [ValueId]) + '_ {
    move |src, out| {
        for (o, &p) in out.iter_mut().zip(keep) {
            *o = src[p];
        }
    }
}

/// The frequency set of a table with respect to a [`GroupSpec`].
#[derive(Debug, Clone)]
pub struct FrequencySet {
    spec: GroupSpec,
    space: KeySpace,
    counts: Counts,
    groups: usize,
    total: u64,
}

impl FrequencySet {
    /// Assemble a set from complete counts (runs already sorted),
    /// settling them into their kept form.
    pub(crate) fn from_parts(
        spec: GroupSpec,
        space: KeySpace,
        counts: Counts,
        total: u64,
    ) -> FrequencySet {
        let (counts, groups) = counts.settle(&space);
        FrequencySet { spec, space, counts, groups, total }
    }

    /// Aggregate one contiguous row range into the empty accumulator
    /// `counts`, with the kernel its form selects: block by block into a
    /// flat dense array or into codes that are sorted and counted into a
    /// run, or row by row into [`GroupKey`]s sorted the same way. All
    /// three produce identical counts.
    fn scan_rows(
        cols: &[&[ValueId]],
        maps: &[&[ValueId]],
        rows: Range<usize>,
        space: &KeySpace,
        mut counts: Counts,
    ) -> Counts {
        let mut buf = [0u64; SCAN_BLOCK_ROWS];
        match &mut counts {
            Counts::Dense(slots) => {
                incognito_obs::incr("table.scan.dense");
                incognito_obs::add("table.kernel.dense.slot_bytes", slots.len() as u64 * 8);
                let kernel = CodeKernel::new(cols, maps, space);
                if slots.len() <= SPLIT_MAX_SLOTS {
                    // Four histograms, one per row of every four: a run of
                    // one group's rows then increments four different
                    // slots instead of waiting on one.
                    let mut split = [[0u64; SPLIT_MAX_SLOTS]; 4];
                    for block in blocks(rows) {
                        let mut quads = kernel.codes(block, &mut buf).chunks_exact(4);
                        for q in &mut quads {
                            split[0][q[0] as usize] += 1;
                            split[1][q[1] as usize] += 1;
                            split[2][q[2] as usize] += 1;
                            split[3][q[3] as usize] += 1;
                        }
                        for &code in quads.remainder() {
                            split[0][code as usize] += 1;
                        }
                    }
                    for (i, slot) in slots.iter_mut().enumerate() {
                        *slot += split.iter().map(|h| h[i]).sum::<u64>();
                    }
                } else {
                    for block in blocks(rows) {
                        for &code in kernel.codes(block, &mut buf) {
                            slots[code as usize] += 1;
                        }
                    }
                }
            }
            Counts::Codes(run) => {
                incognito_obs::incr("table.scan.packed");
                let kernel = CodeKernel::new(cols, maps, space);
                let mut codes = Vec::with_capacity(rows.len());
                for block in blocks(rows) {
                    codes.extend_from_slice(kernel.codes(block, &mut buf));
                }
                radix_sort(&mut codes, space.code_bits(), |&code| code);
                *run = run_of_sorted(&codes);
            }
            Counts::Keys(run) => {
                let mut keys: Vec<GroupKey> = rows
                    .map(|row| {
                        let mut key = GroupKey::default();
                        for (col, map) in cols.iter().zip(maps) {
                            key.push(map[col[row] as usize]);
                        }
                        key
                    })
                    .collect();
                keys.sort_unstable();
                *run = run_of_sorted(&keys);
            }
        }
        counts
    }

    /// Compute by scanning `table` (the spec must already be validated)
    /// in up to `threads` row shards on the shared executor: each shard
    /// aggregates its rows into its own accumulator, and the shards merge
    /// — dense ones by element-wise add, runs by re-sorting their
    /// concatenation. Exactly
    /// equivalent to a serial scan (counts are associative); worthwhile
    /// once the table is large enough that the scan dominates the merge
    /// (hundreds of thousands of rows).
    pub(crate) fn scan(table: &Table, spec: &GroupSpec, threads: usize) -> FrequencySet {
        let nrows = table.num_rows();
        let shards = threads.min(nrows / MIN_SHARD_ROWS).max(1);
        let mut span = incognito_obs::span("table.scan").arg("rows", nrows as u64);
        if shards > 1 {
            span.set_arg("threads", shards as u64);
            incognito_obs::incr("table.scan.parallel");
        }
        incognito_obs::incr("table.scan.count");
        incognito_obs::add("table.scan.rows", nrows as u64);
        let schema = table.schema();
        let maps: Vec<&[ValueId]> =
            spec.parts.iter().map(|&(a, l)| schema.hierarchy(a).map_to_level(l)).collect();
        let cols: Vec<&[ValueId]> = spec.parts.iter().map(|&(a, _)| table.column(a)).collect();
        let space = KeySpace::for_spec(schema, spec);
        // Every shard starts from the form the whole scan would pick, so
        // the shards merge like for like.
        let shard = |rows: Range<usize>| {
            Self::scan_rows(&cols, &maps, rows, &space, Counts::accumulator(&space, nrows))
        };
        let counts = if shards > 1 {
            let mut parts = incognito_exec::shared(threads).parallel_for_chunks(
                nrows,
                nrows.div_ceil(shards),
                shard,
            );
            let biggest =
                (0..parts.len()).max_by_key(|&i| parts[i].resident_bytes()).expect("a shard");
            let mut counts = parts.swap_remove(biggest);
            for part in parts {
                counts.absorb(part);
            }
            counts.sorted(&space)
        } else {
            shard(0..nrows)
        };
        let (groups, bytes) = match counts {
            Counts::Dense(_) => ("table.kernel.dense.groups", "table.kernel.dense.bytes"),
            Counts::Codes(_) => ("table.kernel.packed.groups", "table.kernel.packed.bytes"),
            Counts::Keys(_) => ("table.kernel.hash.groups", "table.kernel.hash.bytes"),
        };
        let set = FrequencySet::from_parts(spec.clone(), space, counts, nrows as u64);
        incognito_obs::add(groups, set.groups as u64);
        incognito_obs::add(bytes, set.resident_bytes());
        span.set_arg("groups", set.groups as u64);
        set
    }

    /// The grouping spec this frequency set was computed under.
    pub fn spec(&self) -> &GroupSpec {
        &self.spec
    }

    /// Number of distinct value groups.
    pub fn num_groups(&self) -> usize {
        self.groups
    }

    /// Estimated heap bytes held by this frequency set in the form it is
    /// kept in — what the core engine's cache-occupancy gauges account
    /// when this set is cached or materialized.
    pub fn resident_bytes(&self) -> u64 {
        self.counts.resident_bytes()
    }

    /// The kernel tier whose form the counts are kept in.
    #[cfg(test)]
    pub(crate) fn form(&self) -> &'static str {
        self.counts.tier()
    }

    /// Total tuple count (size of the underlying multiset).
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Count for `key` (0 if absent, of the wrong arity, or with a
    /// component outside its domain).
    pub fn count(&self, key: &GroupKey) -> u64 {
        let digits = key.as_slice();
        if digits.len() != self.space.arity()
            || digits.iter().zip(&self.space.dims).any(|(&v, &d)| v as u64 >= d)
        {
            return 0;
        }
        match &self.counts {
            Counts::Dense(slots) => slots[self.space.pack(digits) as usize],
            Counts::Codes(run) => run_count(run, &self.space.pack(digits)),
            Counts::Keys(run) => run_count(run, key),
        }
    }

    /// Smallest group count, or `None` for an empty table.
    pub fn min_count(&self) -> Option<u64> {
        self.counts.values().min()
    }

    /// Iterate `(key, count)` pairs in ascending key order.
    pub fn iter(&self) -> impl Iterator<Item = (GroupKey, u64)> + '_ {
        let space = &self.space;
        let groups: Box<dyn Iterator<Item = (GroupKey, u64)>> = match &self.counts {
            Counts::Dense(slots) => Box::new(
                slots
                    .iter()
                    .enumerate()
                    .filter(|(_, &c)| c != 0)
                    .map(|(code, &c)| (space.unpack(code as u64), c)),
            ),
            Counts::Codes(run) => Box::new(run.iter().map(|&(code, c)| (space.unpack(code), c))),
            Counts::Keys(run) => Box::new(run.iter().copied()),
        };
        groups
    }

    /// K-Anonymity Property (§1.1): every count ≥ k. Vacuously true for an
    /// empty relation.
    pub fn is_k_anonymous(&self, k: u64) -> bool {
        self.counts.values().all(|c| c >= k)
    }

    /// Total number of tuples lying in groups smaller than `k` — the tuples
    /// that would have to be suppressed to make the relation k-anonymous.
    pub fn tuples_below(&self, k: u64) -> u64 {
        self.counts.values().filter(|&c| c < k).sum()
    }

    /// K-anonymity with the tuple-suppression extension of §2.1: the
    /// relation passes if at most `max_suppress` outlier tuples (those in
    /// groups of size < k) would need to be removed.
    pub fn is_k_anonymous_with_suppression(&self, k: u64, max_suppress: u64) -> bool {
        self.tuples_below(k) <= max_suppress
    }

    /// Re-aggregate every group through `remap` (this set's digits → the
    /// digits of `space`) into the empty accumulator `acc`: one pair per
    /// group, then sorted.
    fn regroup(
        &self,
        mut acc: Counts,
        space: &KeySpace,
        remap: impl Fn(&[ValueId], &mut [ValueId]),
    ) -> Counts {
        acc.reserve(self.groups);
        let mut buf = [0 as ValueId; MAX_KEY_ATTRS];
        let out = &mut buf[..space.arity()];
        self.counts.for_each_group(&self.space, |digits, c| {
            remap(digits, out);
            acc.add(space, out, c);
        });
        acc.sorted(space)
    }

    /// Derive the set of `spec` over `space` by re-aggregating every group
    /// through `remap` — a rollup or a projection, whose span and
    /// `table.<op>.*` counters `op` names.
    fn derive(
        &self,
        op: &Derivation,
        spec: GroupSpec,
        space: KeySpace,
        remap: impl Fn(&[ValueId], &mut [ValueId]),
    ) -> FrequencySet {
        let mut span = incognito_obs::span(op.span).arg("groups_in", self.groups as u64);
        // Output groups never outnumber input groups (both only merge).
        let acc = Counts::accumulator(&space, self.groups);
        if let Counts::Dense(slots) = &acc {
            incognito_obs::incr(op.dense);
            incognito_obs::add("table.kernel.dense.slot_bytes", slots.len() as u64 * 8);
        }
        let counts = self.regroup(acc, &space, remap);
        let out = FrequencySet::from_parts(spec, space, counts, self.total);
        incognito_obs::incr(op.count);
        incognito_obs::add(op.groups_in, self.groups as u64);
        incognito_obs::add(op.groups_out, out.groups as u64);
        span.set_arg("groups_out", out.groups as u64);
        out
    }

    /// **Rollup Property** (§3): produce the frequency set at higher levels
    /// `target` (one level per spec part, each ≥ the current level) by
    /// mapping each group through γ and summing counts — no table scan.
    pub fn rollup(&self, schema: &Schema, target: &[LevelNo]) -> Result<FrequencySet, TableError> {
        let (spec, maps) = self.spec.rollup_to(schema, target)?;
        let space = KeySpace::for_spec(schema, &spec);
        Ok(self.derive(&ROLLUP, spec, space, rollup_digits(&maps)))
    }

    /// **Subset Property** (§3): project onto the spec positions in `keep`
    /// (strictly increasing), dropping the other attributes and re-summing.
    /// Used by Cube Incognito to derive subset frequency sets from wider
    /// ones, data-cube style.
    pub fn project(&self, keep: &[usize]) -> Result<FrequencySet, TableError> {
        let spec = self.spec.project(keep)?;
        Ok(self.derive(&PROJECT, spec, self.space.project(keep), project_digits(keep)))
    }

    /// Render the groups as label tuples (for display and tests), sorted
    /// lexicographically for determinism.
    pub fn to_labeled_rows(&self, schema: &Arc<Schema>) -> Vec<(Vec<String>, u64)> {
        let mut rows: Vec<(Vec<String>, u64)> = self
            .iter()
            .map(|(key, c)| {
                let labels = key
                    .as_slice()
                    .iter()
                    .zip(&self.spec.parts)
                    .map(|(&v, &(a, l))| schema.hierarchy(a).label(l, v).to_string())
                    .collect();
                (labels, c)
            })
            .collect();
        rows.sort();
        rows
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::schema::{Attribute, Schema};
    use incognito_hierarchy::builders;
    use std::collections::BTreeMap;

    /// Zero-padded decimal labels `0..n`, `width` digits wide.
    fn digit_labels(n: u32, width: usize) -> Vec<String> {
        (0..n).map(|i| format!("{i:0width$}")).collect()
    }

    /// Three attributes whose ground space (200 × 2 × 40 = 16,000 codes)
    /// can hold every form, over `rows` rows. Level sizes: `a` 200, 20, 2,
    /// 1; `b` 2, 1; `c` 40, 4, 1.
    pub(crate) fn mid_table(rows: u32) -> Table {
        let (a, c) = (digit_labels(200, 3), digit_labels(40, 2));
        let a: Vec<&str> = a.iter().map(String::as_str).collect();
        let c: Vec<&str> = c.iter().map(String::as_str).collect();
        let schema = Schema::new(vec![
            Attribute::new("a", builders::round_digits("a", &a, 3).unwrap()),
            Attribute::new("b", builders::suppression("b", &["x", "y"]).unwrap()),
            Attribute::new("c", builders::round_digits("c", &c, 2).unwrap()),
        ])
        .unwrap();
        let rows = 0..rows;
        let cols = vec![
            rows.clone().map(|i| (i * 37) % 200).collect(),
            rows.clone().map(|i| (i / 3) % 2).collect(),
            rows.map(|i| (i * 11 + i / 7) % 40).collect(),
        ];
        Table::from_columns(schema, cols).unwrap()
    }

    /// Five attributes of 10,000 values each: the ground space (10^20
    /// codes) is too wide to pack into a `u64`.
    pub(crate) fn wide_table(rows: u32) -> Table {
        let labels = digit_labels(10_000, 4);
        let labels: Vec<&str> = labels.iter().map(String::as_str).collect();
        let schema = Schema::new(
            (0..5)
                .map(|i| {
                    let name = format!("w{i}");
                    Attribute::new(&name, builders::round_digits(&name, &labels, 4).unwrap())
                })
                .collect(),
        )
        .unwrap();
        // A SplitMix64 hash of (row, column) spreads values independently
        // over every level's domain.
        let value = |i: u32, j: u32| {
            let mut x = (u64::from(i) << 3 | u64::from(j)).wrapping_mul(0x9e37_79b9_7f4a_7c15);
            x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            ((x ^ (x >> 31)) % 10_000) as u32
        };
        let cols = (0..5).map(|j| (0..rows).map(|i| value(i, j)).collect()).collect();
        Table::from_columns(schema, cols).unwrap()
    }

    /// Brute-force frequency set of `spec` over `t`.
    fn brute(t: &Table, spec: &GroupSpec) -> BTreeMap<GroupKey, u64> {
        brute_rows(t, spec, 0..t.num_rows())
    }

    /// Brute-force frequency set of `spec` over the `rows` of `t`.
    fn brute_rows(t: &Table, spec: &GroupSpec, rows: Range<usize>) -> BTreeMap<GroupKey, u64> {
        let schema = t.schema();
        let mut expected: BTreeMap<GroupKey, u64> = BTreeMap::new();
        for row in rows {
            let mut k = GroupKey::default();
            for &(a, l) in spec.parts() {
                k.push(schema.hierarchy(a).map_to_level(l)[t.column(a)[row] as usize]);
            }
            *expected.entry(k).or_insert(0) += 1;
        }
        expected
    }

    /// Empty accumulators of every form `space` can hold.
    fn forms(space: &KeySpace) -> Vec<Counts> {
        let mut forms = vec![Counts::Keys(Vec::new())];
        if space.is_packable() {
            forms.push(Counts::Codes(Vec::new()));
        }
        if space.is_dense() {
            forms.push(Counts::Dense(vec![0; space.len()]));
        }
        forms
    }

    /// The groups of `counts` over `space`, keyed for comparison.
    fn groups_of(counts: &Counts, space: &KeySpace) -> BTreeMap<GroupKey, u64> {
        let mut out = BTreeMap::new();
        counts.for_each_group(space, |digits, c| {
            assert!(out.insert(GroupKey::from_slice(digits), c).is_none(), "group listed twice");
        });
        out
    }

    /// `set`'s groups held in the form of the empty accumulator `acc`.
    fn in_form(set: &FrequencySet, mut acc: Counts) -> FrequencySet {
        set.counts.for_each_group(&set.space, |digits, c| acc.add(&set.space, digits, c));
        FrequencySet { counts: acc.sorted(&set.space), ..set.clone() }
    }

    fn patients() -> Table {
        // Figure 1's Patients table over ⟨Birthdate, Sex, Zipcode⟩.
        let schema = Schema::new(vec![
            Attribute::new(
                "Birthdate",
                builders::suppression("Birthdate", &["1/21/76", "4/13/86", "2/28/76"]).unwrap(),
            ),
            Attribute::new("Sex", builders::suppression("Sex", &["Male", "Female"]).unwrap()),
            Attribute::new(
                "Zipcode",
                builders::round_digits("Zipcode", &["53715", "53710", "53706", "53703"], 2)
                    .unwrap(),
            ),
        ])
        .unwrap();
        let mut t = Table::empty(schema);
        for row in [
            ["1/21/76", "Male", "53715"],
            ["4/13/86", "Female", "53715"],
            ["2/28/76", "Male", "53703"],
            ["1/21/76", "Male", "53703"],
            ["4/13/86", "Female", "53706"],
            ["2/28/76", "Female", "53706"],
        ] {
            t.push_row(&row).unwrap();
        }
        t
    }

    #[test]
    fn spec_validation() {
        assert!(GroupSpec::new(vec![(0, 0), (0, 1)]).is_err()); // dup attr
        assert!(GroupSpec::new((0..17).map(|a| (a, 0)).collect()).is_err()); // too wide
        let t = patients();
        let bad_attr = GroupSpec::new(vec![(7, 0)]).unwrap();
        assert!(bad_attr.validate(t.schema()).is_err());
        let bad_level = GroupSpec::new(vec![(1, 3)]).unwrap();
        assert!(bad_level.validate(t.schema()).is_err());
    }

    #[test]
    fn group_key_semantics() {
        let a = GroupKey::from_slice(&[1, 2, 3]);
        let b = GroupKey::from_slice(&[1, 2, 3]);
        let c = GroupKey::from_slice(&[1, 2]);
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_eq!(a.as_slice(), &[1, 2, 3]);
        let mut d = GroupKey::default();
        d.push(1);
        d.push(2);
        assert_eq!(c, d);
    }

    #[test]
    #[should_panic(expected = "MAX_KEY_ATTRS")]
    fn group_key_push_panics_past_max_width() {
        let mut k = GroupKey::from_slice(&[0; MAX_KEY_ATTRS]);
        k.push(1);
    }

    #[test]
    fn group_key_try_push_reports_overflow() {
        let mut k = GroupKey::default();
        for i in 0..MAX_KEY_ATTRS as u32 {
            assert!(k.try_push(i).is_ok());
        }
        assert!(matches!(k.try_push(99), Err(TableError::KeyTooWide(_))));
        // The failed push must not have corrupted the key.
        assert_eq!(k.as_slice().len(), MAX_KEY_ATTRS);
        assert_eq!(k.as_slice()[MAX_KEY_ATTRS - 1], MAX_KEY_ATTRS as u32 - 1);
    }

    #[test]
    fn key_space_pack_roundtrip() {
        let space = KeySpace::new(vec![3, 5, 2]);
        assert!(space.is_dense());
        assert_eq!(space.len(), 30);
        for idx in 0..30u64 {
            let key = space.unpack(idx);
            assert_eq!(space.pack(key.as_slice()), idx);
            assert!(key.as_slice().iter().zip([3u32, 5, 2]).all(|(&v, d)| v < d));
        }
    }

    #[test]
    fn key_space_overflow_disables_packing() {
        // 5 dims of 2^13 = 2^65 > u64::MAX: no packing, no dense kernel.
        let space = KeySpace::new(vec![1 << 13; 5]);
        assert!(!space.is_packable());
        assert!(!space.is_dense());
        // Just over the dense cutoff: packable but not dense.
        let space = KeySpace::new(vec![DENSE_MAX_SLOTS + 1]);
        assert!(space.is_packable());
        assert!(!space.is_dense());
        // Empty key space (projection onto nothing): one slot.
        let space = KeySpace::new(vec![]);
        assert!(space.is_dense());
        assert_eq!(space.len(), 1);
        assert_eq!(space.unpack(0), GroupKey::default());
    }

    /// Scan `spec` over `t` into every form the key space can hold, and
    /// check each against a brute-force count, both as raw accumulators
    /// and once settled. Returns the number of distinct groups.
    fn assert_tiers_agree(t: &Table, spec: &GroupSpec) -> usize {
        let schema = t.schema();
        let maps: Vec<&[ValueId]> =
            spec.parts.iter().map(|&(a, l)| schema.hierarchy(a).map_to_level(l)).collect();
        let cols: Vec<&[ValueId]> = spec.parts.iter().map(|&(a, _)| t.column(a)).collect();
        let space = KeySpace::for_spec(schema, spec);
        let nrows = t.num_rows();
        let expected = brute(t, spec);
        for acc in forms(&space) {
            let tier = acc.tier();
            let got = FrequencySet::scan_rows(&cols, &maps, 0..nrows, &space, acc);
            assert_eq!(groups_of(&got, &space), expected, "{tier} kernel diverged");
            let set = FrequencySet::from_parts(spec.clone(), space.clone(), got, nrows as u64);
            assert_eq!(set.num_groups(), expected.len(), "{tier}");
            for (k, &c) in &expected {
                assert_eq!(set.count(k), c, "{tier}");
            }
        }
        // The public path picks whichever form the real space selects.
        let via_table = t.frequency_set(spec).unwrap();
        assert_eq!(via_table.num_groups(), expected.len());
        assert_eq!(via_table.iter().collect::<BTreeMap<_, _>>(), expected);
        expected.len()
    }

    #[test]
    fn key_space_dense_boundary_is_exact() {
        let at = KeySpace::new(vec![DENSE_MAX_SLOTS]);
        assert!(at.is_dense());
        assert_eq!(at.len() as u64, 1 << 16);
        let past = KeySpace::new(vec![DENSE_MAX_SLOTS + 1]);
        assert!(past.is_packable() && !past.is_dense());
        // Mixed-radix shapes hit the same boundary: 256 × 256 is the
        // widest dense space, 256 × 257 already is not.
        assert!(KeySpace::new(vec![256, 256]).is_dense());
        assert!(!KeySpace::new(vec![256, 257]).is_dense());
    }

    #[test]
    fn kernel_tiers_agree_on_the_exact_boundary_space() {
        // 256 × 256 = exactly 1 << 16 slots: the widest key space the
        // dense kernel accepts.
        let labels: Vec<String> = (0..256).map(|i| format!("v{i}")).collect();
        let label_refs: Vec<&str> = labels.iter().map(String::as_str).collect();
        let schema = Schema::new(vec![
            Attribute::new("a", builders::suppression("a", &label_refs).unwrap()),
            Attribute::new("b", builders::suppression("b", &label_refs).unwrap()),
        ])
        .unwrap();
        let mut cols: Vec<Vec<u32>> = vec![Vec::new(), Vec::new()];
        for i in 0..4_000u32 {
            cols[0].push((i * 31) % 256);
            cols[1].push((i * 17 + i / 9) % 256);
        }
        let t = Table::from_columns(schema, cols).unwrap();
        let spec = GroupSpec::ground(&[0, 1]).unwrap();
        let space = KeySpace::for_spec(t.schema(), &spec);
        assert_eq!(space.slots, Some(DENSE_MAX_SLOTS));
        assert!(space.is_dense());
        assert!(assert_tiers_agree(&t, &spec) > 1_000);
    }

    #[test]
    fn packed_tier_takes_over_one_slot_past_the_dense_cutoff() {
        // A single attribute with 2^16 + 1 ground values: the smallest
        // key space the dense kernel rejects, by exactly one slot.
        let labels: Vec<String> = (0..=DENSE_MAX_SLOTS).map(|i| format!("v{i}")).collect();
        let label_refs: Vec<&str> = labels.iter().map(String::as_str).collect();
        let schema = Schema::new(vec![Attribute::new(
            "a",
            builders::suppression("a", &label_refs).unwrap(),
        )])
        .unwrap();
        let col: Vec<u32> =
            (0..3_000u32).map(|i| (i * 97) % (DENSE_MAX_SLOTS as u32 + 1)).collect();
        let t = Table::from_columns(schema, vec![col]).unwrap();
        let spec = GroupSpec::ground(&[0]).unwrap();
        let space = KeySpace::for_spec(t.schema(), &spec);
        assert_eq!(space.slots, Some(DENSE_MAX_SLOTS + 1));
        assert!(space.is_packable() && !space.is_dense());
        assert_tiers_agree(&t, &spec);
    }

    #[test]
    fn max_width_keys_agree_across_tiers_and_wider_specs_error() {
        // 16 binary attributes: a full-width GroupKey and exactly 2^16
        // slots — the dense boundary reached at MAX_KEY_ATTRS.
        let schema = Schema::new(
            (0..MAX_KEY_ATTRS)
                .map(|i| {
                    let name = format!("a{i}");
                    Attribute::new(&name, builders::suppression(&name, &["0", "1"]).unwrap())
                })
                .collect(),
        )
        .unwrap();
        let mut cols: Vec<Vec<u32>> = vec![Vec::new(); MAX_KEY_ATTRS];
        for i in 0..2_000u32 {
            for (j, col) in cols.iter_mut().enumerate() {
                col.push((i >> (j % 11)) & 1);
            }
        }
        let t = Table::from_columns(schema, cols).unwrap();
        let spec = GroupSpec::ground(&(0..MAX_KEY_ATTRS).collect::<Vec<_>>()).unwrap();
        let space = KeySpace::for_spec(t.schema(), &spec);
        assert_eq!(space.slots, Some(DENSE_MAX_SLOTS));
        assert_tiers_agree(&t, &spec);
        // One more attribute cannot form a group key at all: the same
        // overflow GroupKey::try_push reports, surfaced as KeyTooWide.
        assert!(matches!(
            GroupSpec::new((0..=MAX_KEY_ATTRS).map(|a| (a, 0)).collect()),
            Err(TableError::KeyTooWide(_))
        ));
    }

    #[test]
    fn packed_scan_equals_dense_scan() {
        // A domain big enough (300^2 = 90,000 slots) to force the
        // packed code-run kernel rather than the dense kernel, compared
        // against a 2-attribute projection of itself and a direct scan.
        let labels: Vec<String> = (0..300).map(|i| format!("v{i}")).collect();
        let label_refs: Vec<&str> = labels.iter().map(String::as_str).collect();
        let schema = Schema::new(vec![
            Attribute::new("a", builders::suppression("a", &label_refs).unwrap()),
            Attribute::new("b", builders::suppression("b", &label_refs).unwrap()),
        ])
        .unwrap();
        let mut cols: Vec<Vec<u32>> = vec![Vec::new(), Vec::new()];
        for i in 0..5_000u32 {
            cols[0].push((i * 7) % 300);
            cols[1].push((i * 13) % 300);
        }
        let t = Table::from_columns(schema.clone(), cols).unwrap();
        let spec = GroupSpec::ground(&[0, 1]).unwrap();
        let wide = t.frequency_set(&spec).unwrap(); // packed kernel
        assert_eq!(wide.total(), 5_000);
        // Suppressing both attributes lands in the dense kernel; totals and
        // group structure must agree with a rollup of the packed result.
        let spec_top = GroupSpec::new(vec![(0, 1), (1, 1)]).unwrap();
        let scanned_top = t.frequency_set(&spec_top).unwrap();
        let rolled_top = wide.rollup(&schema, &[1, 1]).unwrap();
        assert_eq!(
            scanned_top.to_labeled_rows(&schema),
            rolled_top.to_labeled_rows(&schema)
        );
        // Single-attribute projection (dense) vs narrow scan.
        let proj = wide.project(&[0]).unwrap();
        let narrow = t.frequency_set(&GroupSpec::ground(&[0]).unwrap()).unwrap();
        assert_eq!(proj.to_labeled_rows(&schema), narrow.to_labeled_rows(&schema));
    }

    #[test]
    fn scan_counts_match_sql_example() {
        // §1.1: GROUP BY Sex, Zipcode on Patients has groups with count < 2.
        let t = patients();
        let f = t.frequency_set(&GroupSpec::ground(&[1, 2]).unwrap()).unwrap();
        assert_eq!(f.total(), 6);
        assert_eq!(f.num_groups(), 4); // (M,53715) (F,53715) (M,53703) (F,53706)
        assert_eq!(f.min_count(), Some(1));
        assert!(!f.is_k_anonymous(2));
        assert_eq!(f.tuples_below(2), 2);
        assert!(f.is_k_anonymous_with_suppression(2, 2));
        assert!(!f.is_k_anonymous_with_suppression(2, 1));
    }

    #[test]
    fn parallel_scan_equals_serial() {
        // Build a larger table by repeating the Patients rows with varying
        // combinations so shard boundaries fall mid-group.
        let base = patients();
        let schema = base.schema().clone();
        let mut cols: Vec<Vec<u32>> = vec![Vec::new(); schema.arity()];
        for i in 0..10_000u32 {
            cols[0].push(i % 3);
            cols[1].push(i % 2);
            cols[2].push((i * 7) % 4);
        }
        let t = Table::from_columns(schema.clone(), cols).unwrap();
        // Dense shards (Patients), code-map shards (300 × 300 = 90,000
        // codes, past the dense cutoff) and key-map shards (a space too
        // wide to pack) each merge their own way.
        let labels: Vec<String> = (0..300).map(|i| format!("v{i}")).collect();
        let label_refs: Vec<&str> = labels.iter().map(String::as_str).collect();
        let sparse_schema = Schema::new(vec![
            Attribute::new("a", builders::suppression("a", &label_refs).unwrap()),
            Attribute::new("b", builders::suppression("b", &label_refs).unwrap()),
        ])
        .unwrap();
        let sparse = Table::from_columns(
            sparse_schema,
            vec![
                (0..10_000u32).map(|i| (i * 7) % 300).collect(),
                (0..10_000u32).map(|i| (i * 13 + i / 300) % 300).collect(),
            ],
        )
        .unwrap();
        let wide = wide_table(4_000);
        for (t, spec) in [
            (&t, GroupSpec::ground(&[0, 1, 2]).unwrap()),
            (&t, GroupSpec::new(vec![(1, 1), (2, 1)]).unwrap()),
            (&sparse, GroupSpec::ground(&[0, 1]).unwrap()),
            (&wide, GroupSpec::ground(&[0, 1, 2, 3, 4]).unwrap()),
        ] {
            let serial = t.frequency_set(&spec).unwrap();
            for threads in [1usize, 2, 3, 8] {
                let par = t.frequency_set_parallel(&spec, threads).unwrap();
                assert_eq!(
                    par.iter().collect::<BTreeMap<_, _>>(),
                    serial.iter().collect::<BTreeMap<_, _>>(),
                    "threads={threads}"
                );
                assert_eq!(par.total(), serial.total());
                assert_eq!(par.resident_bytes(), serial.resident_bytes(), "same form");
            }
        }
        // Degenerate inputs: fewer rows than threads, and no rows at all.
        let tiny = base.frequency_set_parallel(&GroupSpec::ground(&[0]).unwrap(), 8).unwrap();
        assert_eq!(
            tiny.to_labeled_rows(&schema),
            base.frequency_set(&GroupSpec::ground(&[0]).unwrap()).unwrap().to_labeled_rows(&schema)
        );
        let empty = Table::empty(schema);
        let f = empty
            .frequency_set_parallel(&GroupSpec::ground(&[0]).unwrap(), 4)
            .unwrap();
        assert_eq!(f.num_groups(), 0);
    }

    #[test]
    fn blocked_kernel_matches_brute_force_around_single_value_parts() {
        const B: usize = SCAN_BLOCK_ROWS;
        let mid = mid_table(3 * B as u32 + 24);
        let wide = wide_table(3 * B as u32 + 24);
        // Specs with their single-value positions: first, in the middle,
        // last, around one other part, every part (each code is 0), and
        // none. The mid-table spaces are dense on both sides of
        // SPLIT_MAX_SLOTS; the wide ones (10,000 × 1 × 10,000 codes and
        // alike) are kept as a code run.
        type Case<'t> = (&'t Table, Vec<(usize, LevelNo)>, &'static [usize]);
        let cases: [Case; 10] = [
            (&mid, vec![(1, 1), (0, 1), (2, 0)], &[0]),
            (&mid, vec![(1, 1), (2, 2), (0, 1)], &[0, 1]),
            (&mid, vec![(0, 1), (1, 1), (2, 1)], &[1]),
            (&mid, vec![(0, 0), (2, 0), (1, 1)], &[2]),
            (&mid, vec![(2, 2), (0, 1), (1, 1)], &[0, 2]),
            (&mid, vec![(0, 3), (1, 1), (2, 2)], &[0, 1, 2]),
            (&mid, vec![(0, 0), (1, 0), (2, 0)], &[]),
            (&wide, vec![(0, 4), (1, 0), (2, 0)], &[0]),
            (&wide, vec![(0, 0), (3, 4), (2, 0)], &[1]),
            (&wide, vec![(4, 1), (1, 0), (2, 4)], &[2]),
        ];
        let n = 3 * B + 17;
        let ranges = [0..0, 0..1, 0..B - 1, 0..B, 0..B + 1, 0..n, 7..n + 7, 5..B + 6];
        for (t, parts, ones) in cases {
            let spec = GroupSpec::new(parts).unwrap();
            let schema = t.schema();
            let space = KeySpace::for_spec(schema, &spec);
            let single: Vec<usize> = (0..space.arity()).filter(|&i| space.dims[i] == 1).collect();
            assert_eq!(single, ones, "{spec:?}");
            let maps: Vec<&[ValueId]> =
                spec.parts.iter().map(|&(a, l)| schema.hierarchy(a).map_to_level(l)).collect();
            let cols: Vec<&[ValueId]> = spec.parts.iter().map(|&(a, _)| t.column(a)).collect();
            for rows in ranges.clone() {
                let expected = brute_rows(t, &spec, rows.clone());
                for acc in forms(&space) {
                    let tier = acc.tier();
                    let got = FrequencySet::scan_rows(&cols, &maps, rows.clone(), &space, acc);
                    assert_eq!(groups_of(&got, &space), expected, "{spec:?} {tier} {rows:?}");
                }
            }
            let expected = brute(t, &spec);
            for threads in [1, 2, 3] {
                let set = FrequencySet::scan(t, &spec, threads);
                assert_eq!(set.iter().collect::<BTreeMap<_, _>>(), expected, "{spec:?} {threads}");
                assert_eq!(set.total(), t.num_rows() as u64);
            }
        }
    }

    #[test]
    fn rollup_equals_rescan() {
        let t = patients();
        let schema = t.schema().clone();
        let ground = t.frequency_set(&GroupSpec::ground(&[1, 2]).unwrap()).unwrap();
        // Roll up Zipcode to Z1, then compare against a fresh scan at (S0, Z1).
        let rolled = ground.rollup(&schema, &[0, 1]).unwrap();
        let scanned = t
            .frequency_set(&GroupSpec::new(vec![(1, 0), (2, 1)]).unwrap())
            .unwrap();
        assert_eq!(rolled.to_labeled_rows(&schema), scanned.to_labeled_rows(&schema));
        // Example 3.1: Patients IS 2-anonymous w.r.t. ⟨S1, Z0⟩ ...
        let s1z0 = ground.rollup(&schema, &[1, 0]).unwrap();
        assert!(s1z0.is_k_anonymous(2));
        // ... and not w.r.t. ⟨S0, Z1⟩, but IS w.r.t. ⟨S0, Z2⟩.
        let s0z1 = ground.rollup(&schema, &[0, 1]).unwrap();
        assert!(!s0z1.is_k_anonymous(2));
        let s0z2 = ground.rollup(&schema, &[0, 2]).unwrap();
        assert!(s0z2.is_k_anonymous(2));
    }

    #[test]
    fn rollup_is_transitive() {
        let t = patients();
        let schema = t.schema().clone();
        let ground = t.frequency_set(&GroupSpec::ground(&[1, 2]).unwrap()).unwrap();
        let via_mid = ground.rollup(&schema, &[0, 1]).unwrap().rollup(&schema, &[1, 2]).unwrap();
        let direct = ground.rollup(&schema, &[1, 2]).unwrap();
        assert_eq!(via_mid.to_labeled_rows(&schema), direct.to_labeled_rows(&schema));
        assert_eq!(via_mid.total(), 6);
    }

    #[test]
    fn rollup_rejects_bad_targets() {
        let t = patients();
        let schema = t.schema().clone();
        let f = t.frequency_set(&GroupSpec::new(vec![(1, 1), (2, 1)]).unwrap()).unwrap();
        assert!(f.rollup(&schema, &[0, 1]).is_err()); // downward
        assert!(f.rollup(&schema, &[1]).is_err()); // wrong arity
        assert!(f.rollup(&schema, &[1, 9]).is_err()); // above height
    }

    #[test]
    fn project_equals_narrow_scan() {
        let t = patients();
        let schema = t.schema().clone();
        let wide = t.frequency_set(&GroupSpec::ground(&[0, 1, 2]).unwrap()).unwrap();
        let proj = wide.project(&[1]).unwrap();
        let scan = t.frequency_set(&GroupSpec::ground(&[1]).unwrap()).unwrap();
        assert_eq!(proj.to_labeled_rows(&schema), scan.to_labeled_rows(&schema));
        assert_eq!(proj.total(), 6);
        // Subset Property direction: ⟨Sex⟩ is 3-anonymous here even though
        // the full QI is not.
        assert!(proj.is_k_anonymous(3));
        assert!(!wide.is_k_anonymous(2));
    }

    #[test]
    fn project_validates_positions() {
        let t = patients();
        let wide = t.frequency_set(&GroupSpec::ground(&[0, 1, 2]).unwrap()).unwrap();
        assert!(wide.project(&[1, 1]).is_err());
        assert!(wide.project(&[2, 1]).is_err());
        assert!(wide.project(&[3]).is_err());
        assert!(wide.project(&[]).is_ok()); // empty projection: one group, total count
        let empty = wide.project(&[]).unwrap();
        assert_eq!(empty.num_groups(), 1);
        assert_eq!(empty.iter().next().unwrap().1, 6);
    }

    /// Check rollups and projections of `src_spec`'s set from every source
    /// form into every target form against a brute-force rescan, and the
    /// public path from every source form against a scan of the target.
    fn assert_derivations_agree(
        t: &Table,
        src_spec: &GroupSpec,
        targets: &[Vec<LevelNo>],
        keeps: &[Vec<usize>],
    ) {
        let schema = t.schema();
        let src = t.frequency_set(src_spec).unwrap();
        let sources: Vec<FrequencySet> =
            forms(&src.space).into_iter().map(|acc| in_form(&src, acc)).collect();
        let check = |spec: &GroupSpec,
                     space: &KeySpace,
                     remap: &dyn Fn(&[ValueId], &mut [ValueId]),
                     public: &dyn Fn(&FrequencySet) -> FrequencySet| {
            let expected = brute(t, spec);
            let scanned = t.frequency_set(spec).unwrap().to_labeled_rows(schema);
            for from in &sources {
                for acc in forms(space) {
                    let label = (from.form(), acc.tier());
                    let got = from.regroup(acc, space, remap);
                    assert_eq!(groups_of(&got, space), expected, "{spec:?} {label:?}");
                }
                let out = public(from);
                assert_eq!(out.spec(), spec);
                assert_eq!(out.to_labeled_rows(schema), scanned, "{spec:?}");
                assert_eq!(out.total(), src.total());
            }
        };
        for target in targets {
            let (spec, maps) = src.spec.rollup_to(schema, target).unwrap();
            let space = KeySpace::for_spec(schema, &spec);
            check(&spec, &space, &rollup_digits(&maps), &|f| f.rollup(schema, target).unwrap());
        }
        for keep in keeps {
            let spec = src.spec.project(keep).unwrap();
            let space = src.space.project(keep);
            check(&spec, &space, &project_digits(keep), &|f| f.project(keep).unwrap());
        }
    }

    #[test]
    fn rollup_and_project_agree_with_rescan_in_every_form() {
        let t = mid_table(5_000);
        assert_derivations_agree(
            &t,
            &GroupSpec::ground(&[0, 1, 2]).unwrap(),
            &[vec![0, 0, 0], vec![1, 0, 1], vec![2, 1, 0], vec![1, 1, 2], vec![3, 1, 2]],
            &[vec![], vec![0], vec![1, 2], vec![0, 2], vec![0, 1, 2]],
        );
        // A rolled-up source: derivations compose from any level.
        assert_derivations_agree(
            &t,
            &GroupSpec::new(vec![(0, 1), (1, 0), (2, 1)]).unwrap(),
            &[vec![2, 1, 1], vec![1, 0, 2]],
            &[vec![0, 2]],
        );
    }

    #[test]
    fn wide_sets_roll_up_and_project_into_packable_targets() {
        let t = wide_table(2_000);
        let spec = GroupSpec::ground(&[0, 1, 2, 3, 4]).unwrap();
        let wide = t.frequency_set(&spec).unwrap();
        assert!(!wide.space.is_packable());
        assert!(matches!(wide.counts, Counts::Keys(_)));
        // Targets: still too wide; just packable (10^19 codes); a code run;
        // a space small enough for dense slots.
        let targets =
            [vec![0, 0, 0, 0, 0], vec![0, 0, 0, 0, 1], vec![1, 1, 1, 1, 1], vec![3, 3, 3, 4, 4]];
        for target in &targets {
            let rolled = wide.rollup(t.schema(), target).unwrap();
            assert_eq!(rolled.space.is_packable(), target != &targets[0], "{target:?}");
        }
        assert!(matches!(wide.rollup(t.schema(), &targets[3]).unwrap().counts, Counts::Dense(_)));
        assert_derivations_agree(&t, &spec, &targets, &[vec![], vec![0, 1], vec![0, 1, 2, 3]]);
    }

    #[test]
    fn count_is_zero_for_off_domain_or_misshapen_keys() {
        let p = patients();
        let w = wide_table(500);
        for (t, spec) in [
            (&p, GroupSpec::ground(&[1, 2]).unwrap()),
            (&w, GroupSpec::ground(&[0, 1, 2, 3, 4]).unwrap()),
        ] {
            let set = t.frequency_set(&spec).unwrap();
            for from in forms(&set.space).into_iter().map(|acc| in_form(&set, acc)) {
                let (key, c) = from.iter().next().unwrap();
                assert_eq!(from.count(&key), c);
                let digits = key.as_slice();
                // Too short, too long.
                assert_eq!(from.count(&GroupKey::from_slice(&digits[1..])), 0);
                let mut longer = key;
                longer.push(0);
                assert_eq!(from.count(&longer), 0);
                // One past the domain of each position: packing it would
                // alias another group's code.
                for (i, &dim) in from.space.dims.iter().enumerate() {
                    for bad in [dim as ValueId, ValueId::MAX] {
                        let mut off = digits.to_vec();
                        off[i] = bad;
                        assert_eq!(from.count(&GroupKey::from_slice(&off)), 0, "pos {i} = {bad}");
                    }
                }
            }
        }
    }

    #[test]
    fn resident_bytes_never_exceed_the_group_key_map() {
        // A run holds exactly one pair per group: a `(u64, u64)` with a
        // packed code, a `(GroupKey, u64)` otherwise. Dense slots are kept
        // only while no larger than the code run, so no set exceeds the
        // `GroupKey` run of its groups.
        let check = |set: &FrequencySet| {
            let groups = set.num_groups() as u64;
            let bytes = set.resident_bytes();
            let label =
                format!("{:?} {}: {bytes} bytes for {groups} groups", set.spec(), set.form());
            match set.counts {
                Counts::Dense(_) => assert!(bytes <= groups * CODE_PAIR_BYTES, "{label}"),
                Counts::Codes(_) => assert_eq!(bytes, groups * CODE_PAIR_BYTES, "{label}"),
                Counts::Keys(_) => assert_eq!(bytes, groups * KEY_PAIR_BYTES, "{label}"),
            }
            assert!(bytes <= groups * KEY_PAIR_BYTES, "{label}");
        };
        let mid = mid_table(5_000);
        let wide = wide_table(1_000);
        let empty = Table::empty(patients().schema().clone());
        for t in [&patients(), &mid, &empty] {
            let arity = t.schema().arity();
            let heights: Vec<LevelNo> =
                (0..arity).map(|a| t.schema().hierarchy(a).height()).collect();
            // Every level combination over all attributes.
            let mut levels = vec![0 as LevelNo; arity];
            loop {
                let spec =
                    GroupSpec::new(levels.iter().enumerate().map(|(a, &l)| (a, l)).collect())
                        .unwrap();
                let set = t.frequency_set(&spec).unwrap();
                check(&set);
                check(&set.rollup(t.schema(), &heights).unwrap());
                check(&set.project(&[0]).unwrap());
                let Some(a) = (0..arity).find(|&a| levels[a] < heights[a]) else { break };
                levels[a] += 1;
                levels[..a].iter_mut().for_each(|l| *l = 0);
            }
        }
        let spec = GroupSpec::ground(&[0, 1, 2, 3, 4]).unwrap();
        let set = wide.frequency_set(&spec).unwrap();
        check(&set);
        check(&set.rollup(wide.schema(), &[1, 1, 1, 1, 1]).unwrap());
        check(&set.project(&[0, 1]).unwrap());
    }

    /// Assert that `set` keeps a run (of the form `form`) whose keys
    /// strictly increase and whose positive counts sum to `total()`.
    pub(crate) fn assert_is_run(set: &FrequencySet, form: &str) {
        fn check<K: Ord + std::fmt::Debug>(run: &[(K, u64)], total: u64, label: &str) {
            assert!(run.windows(2).all(|w| w[0].0 < w[1].0), "{label}: keys not increasing");
            assert!(run.iter().all(|&(_, c)| c > 0), "{label}: a zero count");
            assert_eq!(run.iter().map(|&(_, c)| c).sum::<u64>(), total, "{label}: total");
        }
        let label = format!("{:?}", set.spec());
        assert_eq!(set.form(), form, "{label}");
        match &set.counts {
            Counts::Codes(run) => check(run, set.total(), &label),
            Counts::Keys(run) => check(run, set.total(), &label),
            Counts::Dense(_) => unreachable!(),
        }
        assert_eq!(set.num_groups(), set.iter().count(), "{label}");
    }

    /// SplitMix64 of `x`: well-spread pseudo-random test keys.
    fn mix(x: u64) -> u64 {
        let mut x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
        x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        x ^ (x >> 31)
    }

    #[test]
    fn radix_sort_matches_sort_unstable() {
        let lens = [0, 1, 2, RADIX_MIN_LEN - 1, RADIX_MIN_LEN, RADIX_MIN_LEN + 1, 1_000, 5_003];
        // Key shapes, each with its bit width: full 64-bit keys; keys whose
        // low, middle or high bytes are all equal (those passes skip);
        // few distinct keys; one byte of entropy.
        type Shape = (&'static str, u32, fn(u64) -> u64);
        let shapes: [Shape; 6] = [
            ("full", 64, |i| mix(i)),
            ("low bytes shared", 64, |i| mix(i) << 16 | 0xab),
            ("middle bytes shared", 40, |i| (mix(i) & 0xff_0000_00ff) | 0x00_abcd_ef00),
            ("narrow", 20, |i| mix(i) >> 44),
            ("repeats", 12, |i| mix(i % 7) >> 52),
            ("one byte", 8, |i| mix(i) >> 56),
        ];
        for len in lens {
            for (name, bits, key) in shapes {
                let random: Vec<u64> = (0..len as u64).map(key).collect();
                let mut sorted = random.clone();
                sorted.sort_unstable();
                let reversed: Vec<u64> = sorted.iter().rev().copied().collect();
                let equal = vec![key(3); len];
                for input in [random, sorted, reversed, equal] {
                    let mut expected = input.clone();
                    expected.sort_unstable();
                    let mut got = input.clone();
                    radix_sort(&mut got, bits, |&k| k);
                    assert_eq!(got, expected, "{name}, {len} keys");
                    // Pairs sort by their key alone and keep every pair.
                    let pairs: Vec<(u64, u64)> = input.iter().map(|&k| (k, mix(k) & 7)).collect();
                    let mut got = pairs.clone();
                    radix_sort(&mut got, bits, |&(k, _)| k);
                    assert!(got.windows(2).all(|w| w[0].0 <= w[1].0), "{name}, {len} pairs");
                    let (mut a, mut b) = (got, pairs);
                    a.sort_unstable();
                    b.sort_unstable();
                    assert_eq!(a, b, "{name}, {len} pairs");
                }
            }
        }
    }

    #[test]
    fn every_path_builds_sorted_runs() {
        let mid = mid_table(5_000);
        let wide = wide_table(3_000);
        let (mid_spec, wide_spec) =
            (GroupSpec::ground(&[0, 1, 2]).unwrap(), GroupSpec::ground(&[0, 1, 2, 3, 4]).unwrap());
        for (t, spec, form) in [(&mid, &mid_spec, "packed"), (&wide, &wide_spec, "hash")] {
            let serial = t.frequency_set(spec).unwrap();
            assert_is_run(&serial, form);
            for threads in [1, 2, 3] {
                let set = FrequencySet::scan(t, spec, threads);
                assert_is_run(&set, form);
                assert_eq!(set.iter().collect::<Vec<_>>(), serial.iter().collect::<Vec<_>>());
            }
            // Same-level derivations keep every group, so they stay runs.
            let levels: Vec<LevelNo> = spec.parts().iter().map(|&(_, l)| l).collect();
            assert_is_run(&serial.rollup(t.schema(), &levels).unwrap(), form);
            let all: Vec<usize> = (0..spec.len()).collect();
            assert_is_run(&serial.project(&all).unwrap(), form);
        }
        // Rollups and projections that merge groups into code runs: from
        // a code run, and from a `GroupKey` run into a packable space.
        let mid_set = mid.frequency_set(&mid_spec).unwrap();
        let merged = mid_set.project(&[0, 2]).unwrap();
        assert!(merged.num_groups() < mid_set.num_groups());
        assert_is_run(&merged, "packed");
        let wide_set = wide.frequency_set(&wide_spec).unwrap();
        let wide_pair = wide_set.project(&[0, 1]).unwrap();
        assert_is_run(&wide_pair, "packed");
        let merged = wide_pair.rollup(wide.schema(), &[2, 2]).unwrap();
        assert!(merged.num_groups() < wide_pair.num_groups());
        assert_is_run(&merged, "packed");
        assert_is_run(&wide_set.rollup(wide.schema(), &[1, 1, 1, 1, 1]).unwrap(), "packed");
        // Dense → run: 2,000 rows over 1,000 × 1,000 values, 1,000 groups
        // with ten distinct `a`. Scanning `a` alone, or projecting onto
        // it, accumulates densely (the rows or groups could fill its
        // slots), but its ten groups settle into a run.
        let labels: Vec<String> = (0..1_000).map(|i| format!("v{i}")).collect();
        let labels: Vec<&str> = labels.iter().map(String::as_str).collect();
        let schema = Schema::new(vec![
            Attribute::new("a", builders::suppression("a", &labels).unwrap()),
            Attribute::new("b", builders::suppression("b", &labels).unwrap()),
        ])
        .unwrap();
        let a = (0..2_000u32).map(|i| 990 - i % 10 * 110).collect();
        let b = (0..2_000u32).map(|i| i % 1_000).collect();
        let sparse = Table::from_columns(schema, vec![a, b]).unwrap();
        let pairs = sparse.frequency_set(&GroupSpec::ground(&[0, 1]).unwrap()).unwrap();
        assert_is_run(&pairs, "packed");
        let spec = GroupSpec::ground(&[0]).unwrap();
        let space = KeySpace::for_spec(sparse.schema(), &spec);
        assert!(matches!(Counts::accumulator(&space, sparse.num_rows()), Counts::Dense(_)));
        assert!(matches!(Counts::accumulator(&space, pairs.num_groups()), Counts::Dense(_)));
        for set in [sparse.frequency_set(&spec).unwrap(), pairs.project(&[0]).unwrap()] {
            assert_is_run(&set, "packed");
            assert_eq!(set.num_groups(), 10);
        }
    }

    #[test]
    fn count_is_zero_before_between_and_after_the_entries() {
        // Two attributes of ten values; the groups (1,1), (1,3), (5,5),
        // (8,8) leave gaps before, between and after them.
        let labels: Vec<String> = (0..10).map(|i| format!("v{i}")).collect();
        let labels: Vec<&str> = labels.iter().map(String::as_str).collect();
        let schema = Schema::new(vec![
            Attribute::new("a", builders::suppression("a", &labels).unwrap()),
            Attribute::new("b", builders::suppression("b", &labels).unwrap()),
        ])
        .unwrap();
        let t = Table::from_columns(schema, vec![vec![1, 1, 1, 5, 8, 8], vec![1, 3, 3, 5, 8, 8]])
            .unwrap();
        let set = t.frequency_set(&GroupSpec::ground(&[0, 1]).unwrap()).unwrap();
        let present = [([1, 1], 1), ([1, 3], 2), ([5, 5], 1), ([8, 8], 2)];
        let absent = [[0, 0], [1, 0], [1, 2], [1, 4], [4, 9], [5, 6], [8, 7], [8, 9], [9, 9]];
        for from in forms(&set.space).into_iter().map(|acc| in_form(&set, acc)) {
            for (key, c) in present {
                assert_eq!(from.count(&GroupKey::from_slice(&key)), c, "{} {key:?}", from.form());
            }
            for key in absent {
                assert_eq!(from.count(&GroupKey::from_slice(&key)), 0, "{} {key:?}", from.form());
            }
        }
        // A `GroupKey` run over a space too wide to pack.
        let wide = wide_table(200);
        let set = wide.frequency_set(&GroupSpec::ground(&[0, 1, 2, 3, 4]).unwrap()).unwrap();
        assert_is_run(&set, "hash");
        let keys: Vec<GroupKey> = set.iter().map(|(k, _)| k).collect();
        // Before: lower one of the first key's components; after: raise
        // one of the last key's.
        let (first, last) = (keys[0], keys[keys.len() - 1]);
        let mut before = first;
        *before.vals[..5].iter_mut().find(|v| **v > 0).expect("a nonzero component") -= 1;
        let mut after = last;
        *after.vals[..5].iter_mut().find(|v| **v < 9_999).expect("a component below max") += 1;
        // Between: past one entry's last component, short of the next key.
        let i = (0..keys.len() - 1)
            .find(|&i| {
                let mut k = keys[i];
                k.vals[4] += 1;
                k < keys[i + 1]
            })
            .expect("a gap");
        let mut between = keys[i];
        between.vals[4] += 1;
        for key in [before, between, after] {
            assert_eq!(set.count(&key), 0, "{key:?}");
        }
        assert_eq!(set.count(&first), set.iter().next().unwrap().1);
    }
}
