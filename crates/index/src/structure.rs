//! The bank index — Figure 2 of the paper, flattened to a CSR layout,
//! with a sparse hashed backend for banks that populate few seed codes.
//!
//! The paper draws the occurrence index as a linked structure: a seed
//! dictionary `dict[4^W]` pointing at the first occurrence of each seed,
//! and a successor array `next[len(SEQ)]` chaining every occurrence to the
//! next one (`int *INDEX` in the paper). That shape is faithful to the
//! figure but hostile to step 2's inner loops: every `next` hop is a
//! dependent, unpredictable load across a `4·len(SEQ)`-byte array.
//!
//! This module stores the same information as a **compressed sparse row**
//! (CSR) inverted index. The postings array is common to both backends:
//!
//! * `positions[indexed_positions]` — every occurrence, grouped by seed
//!   code in ascending code order and in **ascending position order**
//!   within each group.
//!
//! What differs is how a seed code finds its row (the crate-private
//! `RowIndex`):
//!
//! * **Dense** — `offsets[4^W + 1]` row boundaries: the occurrences of
//!   seed `code` are `positions[offsets[code] .. offsets[code + 1]]`.
//!   O(1) lookup, but the offsets array costs `4·(4^W + 1)` bytes no
//!   matter how small the bank is — 16.8 MB at W = 11.
//! * **Sparse** — only the *populated* codes are materialized: an
//!   ascending `codes[k]` array, `row_offsets[k + 1]` row boundaries, and
//!   an open-addressed `slots[≈2k]` hash table mapping a code to its row
//!   by Fibonacci hashing with linear probing. Lookup is O(1) expected,
//!   and memory is `∝ distinct codes`, independent of `4^W`.
//!
//! [`IndexBackend::Auto`] (the default) picks per build: dense when the
//! code space is comparably sized to the postings (`4^W ≤ 4·postings`,
//! i.e. at least ~¼ of the offsets slots could be populated), sparse
//! otherwise. Both backends order the postings identically, so every
//! downstream consumer — step 2's ordered enumeration, the guards, the
//! sinks — sees byte-identical occurrence slices; backend choice is a
//! memory/speed trade, never a results change (pinned by proptests here
//! and at the engine and db layers).
//!
//! The build is a counting sort: one rolling scan collects the
//! `(position, code)` pairs, then either a count/prefix-sum/scatter pass
//! over the code space (dense) or a stable sort by code (sparse). Because
//! the scan visits positions left to right, each row comes out sorted
//! without per-row comparison sorting — `occurrences(code)` hands step 2 a
//! contiguous, ascending `&[u32]` slice, `count` is O(1), and `stats`
//! needs no chain walks.
//!
//! Memory model (heap bytes on top of the 1-byte-per-residue `SEQ` array):
//!
//! ```text
//! dense:   ≈ 4·(4^W + 1)          offsets
//!          + 4·indexed_positions  postings
//!          + len(SEQ)/8           indexed-occurrence bit-set
//!
//! sparse:  ≈ 4·k                  populated codes        (k = distinct codes)
//!          + 4·(k + 1)            row offsets
//!          + 4·2k                 open-addressed slot table
//!          + 4·indexed_positions  postings
//!          + len(SEQ)/8           indexed-occurrence bit-set
//! ```
//!
//! Since `k ≤ indexed_positions`, the sparse backend is bounded by
//! `≈ 16·indexed_positions` bytes however large `W` gets — this is what
//! retires the "benches must run at W = 9" workaround: a small query bank
//! at W = 11 no longer pays a 16.8 MB offsets array per transient index.
//!
//! The linked layout cost `4·len(SEQ)` for `next` no matter how many
//! windows were actually indexed; the CSR postings cost `4·indexed_positions`,
//! so low-complexity masking and the asymmetric stride (section 3.4)
//! shrink the index itself, not just the bit-set. For a fully indexed bank
//! (`indexed_positions ≈ len(SEQ)`) the dense layout matches the paper's
//! "approximately 5·N bytes" figure.
//!
//! The one-bit-per-position `indexed` set is retained for the ORIS order
//! guard: during extension the guard must ask "would the global enumeration
//! visit a seed at this position?" — a question about *positions*, which
//! the position-grouped CSR rows cannot answer in O(1). The guard probes
//! the set via [`BankIndex::is_indexed`] once per candidate seed (see
//! `oris-align::ungapped`).
//!
//! **Exclusion provenance.** The build also records *why* positions are
//! absent from the index. Windows can be missing for two very different
//! reasons:
//!
//! * **window validity** — the window runs off the bank, crosses a record
//!   sentinel, or contains an ambiguous base. These exclusions are
//!   *implied by the guard's run-of-matches invariant*: the guard only
//!   probes a position after observing `W` consecutive matching
//!   nucleotides there, which is itself proof of a valid window, so a
//!   validity-excluded position can never be probed;
//! * **policy** — low-complexity masking or the asymmetric stride
//!   deliberately discarded a *valid* window. Only these exclusions make
//!   the bit-set observable to the guard.
//!
//! [`BankIndex::is_fully_indexed`] is true exactly when no policy
//! exclusion occurred (stride 1, no masked rejection). When both banks of
//! a comparison qualify, every guard probe would answer "yes" and step 2
//! selects the probe-free `OrderedFull` guard instead — the fast path for
//! the common unmasked full-stride case.

use std::ops::Range;

use oris_seqio::Bank;

use crate::mask::MaskSet;
use crate::section::Section;
use crate::seedcode::{RollingCoder, SeedCoder, MAX_SEED_LEN};

/// Which row-lookup structure backs the index.
///
/// Backend choice never changes results: the postings array (and thus
/// every `occurrences` slice, every HSP, every output byte) is identical
/// under either backend. It only trades memory against lookup cost:
/// dense pays `4·(4^W + 1)` bytes for O(1) array indexing; sparse pays
/// `∝ distinct codes` for O(1)-expected hashed lookup.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum IndexBackend {
    /// Always build the dense `offsets[4^W + 1]` CSR — the large-bank
    /// fast path.
    Dense,
    /// Always build the compact populated-codes table — the small-bank /
    /// large-W memory saver.
    Sparse,
    /// Decide per build from the observed density: dense when
    /// `4^W ≤ 4·indexed_positions` (at least ~¼ of the code space could
    /// be populated, since distinct codes ≤ postings), sparse otherwise.
    #[default]
    Auto,
}

/// Options controlling index construction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IndexConfig {
    /// Seed length `W`.
    pub w: usize,
    /// Index only every `stride`-th valid window (1 = every window).
    ///
    /// `stride = 2` is the paper's *asymmetric indexing*: with 10-nt words
    /// sampled on one bank only, all 11-nt seed matches are still anchored
    /// while the index halves in size (section 3.4).
    pub stride: usize,
    /// Row-lookup backend policy (see [`IndexBackend`]).
    pub backend: IndexBackend,
}

impl IndexConfig {
    /// Full indexing with seed length `w` (the common case).
    pub fn full(w: usize) -> IndexConfig {
        IndexConfig {
            w,
            stride: 1,
            backend: IndexBackend::Auto,
        }
    }

    /// Asymmetric (half-sampled) indexing with seed length `w`.
    pub fn asymmetric(w: usize) -> IndexConfig {
        IndexConfig {
            w,
            stride: 2,
            backend: IndexBackend::Auto,
        }
    }

    /// Same config with an explicit backend policy.
    pub fn with_backend(mut self, backend: IndexBackend) -> IndexConfig {
        self.backend = backend;
        self
    }
}

/// Occupancy and footprint statistics for a built index.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct IndexStats {
    /// Number of distinct seeds present.
    pub distinct_seeds: usize,
    /// Total indexed positions (postings).
    pub indexed_positions: usize,
    /// Length of the longest occurrence list.
    pub max_chain_len: usize,
    /// Heap bytes used by the row-lookup arrays + `positions` + the
    /// indexed bit-set (excludes the bank's own array).
    pub index_bytes: usize,
    /// Heap bytes including the underlying `SEQ` array — the paper's ≈5·N
    /// figure when the bank is fully indexed (dense backend).
    pub total_bytes: usize,
}

/// Sentinel for an unoccupied slot in the sparse open-addressed table.
/// `u32::MAX` can never be a valid row id: rows ≤ distinct codes ≤
/// postings, and postings are bounded by the bank-length `< u32::MAX`
/// guard.
pub(crate) const EMPTY_SLOT: u32 = u32::MAX;

/// Slot-table size for `distinct` populated codes: the next power of two
/// at or above `2·distinct`, so the table is always at least half empty
/// (probe chains stay short and every probe sequence terminates at an
/// empty slot). Zero codes need zero slots.
pub(crate) fn sparse_slot_count(distinct: usize) -> usize {
    if distinct == 0 {
        0
    } else {
        (2 * distinct).next_power_of_two()
    }
}

/// Fibonacci-hash home slot for `code` in a power-of-two table of
/// `slots ≥ 2` entries: multiply by 2^32/φ and keep the high bits. Pure
/// u32 arithmetic — deterministic across platforms and runs.
#[inline]
fn fib_slot(code: u32, slots: usize) -> usize {
    debug_assert!(slots.is_power_of_two() && slots >= 2);
    // `slots ≥ 2` ⇒ `trailing_zeros ≥ 1` ⇒ the shift is ≤ 31: never UB.
    (code.wrapping_mul(0x9E37_79B9) >> (32 - slots.trailing_zeros())) as usize
}

/// Builds the open-addressed code→row table for an ascending list of
/// distinct codes. Insertion order is the ascending code order, so the
/// table bytes are a pure function of `codes` — which is what lets the
/// deserializer validate a stored table by rebuilding and comparing.
pub(crate) fn build_slot_table(codes: &[u32]) -> Vec<u32> {
    let s = sparse_slot_count(codes.len());
    let mut slots = vec![EMPTY_SLOT; s];
    for (row, &code) in codes.iter().enumerate() {
        let mut i = fib_slot(code, s);
        while slots[i] != EMPTY_SLOT {
            i = (i + 1) & (s - 1);
        }
        slots[i] = u32::try_from(row).expect("row ids bounded by the bank-length guard");
    }
    slots
}

/// Looks up the row id of `code` via the slot table. Probes terminate
/// because a validated table is at least half empty (and matches an exact
/// rebuild from `codes`, so no corrupt table can reach this loop).
#[inline]
fn sparse_row_of(codes: &[u32], slots: &[u32], code: u32) -> Option<usize> {
    if slots.is_empty() {
        return None;
    }
    let mask = slots.len() - 1;
    let mut i = fib_slot(code, slots.len());
    loop {
        let row = slots[i];
        if row == EMPTY_SLOT {
            return None;
        }
        if codes[row as usize] == code {
            return Some(row as usize);
        }
        i = (i + 1) & mask;
    }
}

/// The row-lookup structure: how a seed code maps to its postings row.
/// Both variants index the same `positions` array; see the module docs
/// for the memory model.
#[derive(Debug, Clone)]
pub(crate) enum RowIndex {
    /// Dense CSR row boundaries: occurrences of `code` live at
    /// `positions[offsets[code] .. offsets[code + 1]]`; `4^W + 1` slots.
    Dense { offsets: Section<u32> },
    /// Populated-codes table: `codes[k]` ascending distinct codes,
    /// `row_offsets[k + 1]` row boundaries (row `r` of `codes[r]` is
    /// `positions[row_offsets[r] .. row_offsets[r + 1]]`), and an
    /// open-addressed `slots` table mapping code → row.
    Sparse {
        codes: Section<u32>,
        row_offsets: Section<u32>,
        slots: Section<u32>,
    },
}

/// The occurrence index over one bank, in CSR layout.
#[derive(Debug, Clone)]
pub struct BankIndex {
    coder: SeedCoder,
    stride: usize,
    /// Code → postings-row lookup. Owned for a fresh build; zero-copy
    /// views into the index file for an mmap attach.
    rows: RowIndex,
    /// All indexed positions, grouped by seed code in ascending code
    /// order, ascending within a group. Same storage duality as `rows`.
    positions: Section<u32>,
    /// One bit per bank position: is a seed occurrence anchored here?
    ///
    /// This answers the question the ORIS order guard must ask during
    /// extension: *would the global enumeration visit a seed at this
    /// position?* A smaller-code window that was excluded (masked as
    /// low-complexity, skipped by the asymmetric stride, or invalid) can
    /// never own an HSP, so it must not trigger an abort.
    indexed: MaskSet,
    /// Exclusion provenance: `true` iff no *policy* exclusion occurred
    /// during the build — stride 1 and no valid window rejected by the
    /// mask predicate. See [`BankIndex::is_fully_indexed`].
    fully_indexed: bool,
    bank_bytes: usize,
    /// Number of distinct populated codes, cached at build/validation
    /// time so `distinct_codes()` is O(1) for either backend (step 2
    /// uses it to pick which index drives the populated-code walk).
    distinct: usize,
}

impl BankIndex {
    /// Builds the index for `bank` under `cfg`, optionally excluding
    /// positions for which `masked(position)` returns true (used by the
    /// low-complexity pre-filter of section 2.1: "W character words
    /// belonging to low-complexity regions are discarded from the index").
    pub fn build_filtered(
        bank: &Bank,
        cfg: IndexConfig,
        masked: impl Fn(usize) -> bool,
    ) -> BankIndex {
        assert!(cfg.stride >= 1, "stride must be at least 1");
        let coder = SeedCoder::new(cfg.w);
        let data = bank.data();
        assert!(
            data.len() < u32::MAX as usize,
            "bank too large for u32 positions"
        );

        // Pass 1: one rolling scan collects the surviving (position, code)
        // pairs in ascending position order.
        let mut pairs: Vec<(u32, u32)> = Vec::with_capacity(data.len());
        let mut indexed = MaskSet::new(data.len());
        // Policy exclusions only: every window the rolling coder yields is
        // *valid* (inside one record, no ambiguous base), so any rejection
        // here is a stride/mask decision — the provenance that decides
        // whether the order guard may skip its bit-set probes entirely.
        let mut policy_excluded = 0usize;
        for (pos, code) in RollingCoder::new(coder, data) {
            if pos % cfg.stride != 0 || masked(pos) {
                policy_excluded += 1;
                continue;
            }
            // oris-lint: allow(narrow-cast) — guarded by the `data.len() < u32::MAX` assert above
            pairs.push((pos as u32, code));
            indexed.set(pos);
        }

        // Resolve the Auto policy from the observed density: distinct
        // codes ≤ postings, so `4^W > 4·postings` means under ¼ of the
        // offsets slots could possibly be populated — the dense array
        // would be ≥ 16 bytes per posting of mostly-empty rows.
        let dense = match cfg.backend {
            IndexBackend::Dense => true,
            IndexBackend::Sparse => false,
            IndexBackend::Auto => coder.num_seeds() <= 4 * pairs.len(),
        };

        // Pass 2: assemble the rows.
        let (rows, positions, distinct) = if dense {
            let (offsets, positions) = full_sweep_rows(coder.num_seeds(), &pairs);
            let distinct = offsets.windows(2).filter(|p| p[0] < p[1]).count();
            (
                RowIndex::Dense {
                    offsets: offsets.into(),
                },
                positions,
                distinct,
            )
        } else {
            let (codes, row_offsets, positions) = sparse_rows(pairs);
            let slots = build_slot_table(&codes);
            let distinct = codes.len();
            (
                RowIndex::Sparse {
                    codes: codes.into(),
                    row_offsets: row_offsets.into(),
                    slots: slots.into(),
                },
                positions,
                distinct,
            )
        };

        BankIndex {
            coder,
            stride: cfg.stride,
            rows,
            positions: positions.into(),
            indexed,
            fully_indexed: cfg.stride == 1 && policy_excluded == 0,
            bank_bytes: data.len(),
            distinct,
        }
    }

    /// Builds the index with no masking.
    pub fn build(bank: &Bank, cfg: IndexConfig) -> BankIndex {
        Self::build_filtered(bank, cfg, |_| false)
    }

    /// Reassembles an index from its raw arrays (the deserialization path
    /// of `persist`), validating every structural invariant the rest of
    /// the system relies on. Returns a description of the first violation
    /// instead of constructing an index that would panic (or silently
    /// corrupt step 2) later.
    pub(crate) fn from_raw_parts(
        w: usize,
        stride: usize,
        rows: RowIndex,
        positions: Section<u32>,
        indexed: MaskSet,
        fully_indexed: bool,
        bank_bytes: usize,
    ) -> Result<BankIndex, String> {
        if !(1..=MAX_SEED_LEN).contains(&w) {
            return Err(format!("seed length {w} outside 1..={MAX_SEED_LEN}"));
        }
        if stride == 0 {
            return Err("stride must be at least 1".into());
        }
        if fully_indexed && stride != 1 {
            // A strided build always policy-excludes windows; the claim is
            // internally contradictory and would wrongly enable step 2's
            // probe-free guard.
            return Err(format!("stride {stride} cannot be fully indexed"));
        }
        if bank_bytes >= u32::MAX as usize {
            return Err("bank length exceeds u32 position space".into());
        }
        let coder = SeedCoder::new(w);
        let num_seeds = coder.num_seeds();
        let distinct = match &rows {
            RowIndex::Dense { offsets } => {
                if offsets.len() != num_seeds + 1 {
                    return Err(format!(
                        "offsets array has {} slots, expected 4^{w} + 1 = {}",
                        offsets.len(),
                        num_seeds + 1
                    ));
                }
                if offsets[0] != 0 {
                    return Err("offsets[0] must be 0".into());
                }
                if offsets.windows(2).any(|p| p[0] > p[1]) {
                    return Err("offsets are not monotonically non-decreasing".into());
                }
                if *offsets.last().unwrap() as usize != positions.len() {
                    return Err(format!(
                        "last offset {} does not match {} positions",
                        offsets.last().unwrap(),
                        positions.len()
                    ));
                }
                offsets.windows(2).filter(|p| p[0] < p[1]).count()
            }
            RowIndex::Sparse {
                codes,
                row_offsets,
                slots,
            } => {
                if codes.len() > num_seeds {
                    return Err(format!(
                        "{} populated codes exceed the 4^{w} code space",
                        codes.len()
                    ));
                }
                if codes.windows(2).any(|p| p[0] >= p[1]) {
                    return Err("populated codes are not strictly ascending".into());
                }
                if let Some(&last) = codes.last() {
                    if last as usize >= num_seeds {
                        return Err(format!("code {last} outside the 4^{w} code space"));
                    }
                }
                if row_offsets.len() != codes.len() + 1 {
                    return Err(format!(
                        "row-offsets array has {} slots, expected {} populated codes + 1",
                        row_offsets.len(),
                        codes.len()
                    ));
                }
                if row_offsets[0] != 0 {
                    return Err("row_offsets[0] must be 0".into());
                }
                // Strictly increasing: a listed code owns at least one
                // posting (the build never materializes an empty row).
                if row_offsets.windows(2).any(|p| p[0] >= p[1]) {
                    return Err("row offsets are not strictly increasing".into());
                }
                if *row_offsets.last().unwrap() as usize != positions.len() {
                    return Err(format!(
                        "last row offset {} does not match {} positions",
                        row_offsets.last().unwrap(),
                        positions.len()
                    ));
                }
                // The slot table must be *exactly* the one this code list
                // produces: rebuild and compare. This is airtight against
                // arbitrary on-disk bytes — a table that passes cannot
                // hold out-of-range rows, duplicates, or broken probe
                // chains, so `sparse_row_of` always terminates and never
                // indexes out of bounds, even on a hostile mmap'd file.
                let expected = build_slot_table(codes);
                if slots.len() != expected.len() || slots.iter().ne(expected.iter()) {
                    return Err("slot table does not match its code list".into());
                }
                codes.len()
            }
        };
        if indexed.len() != bank_bytes {
            return Err(format!(
                "indexed bit-set covers {} positions, bank has {bank_bytes}",
                indexed.len()
            ));
        }
        if indexed.masked_count() != positions.len() {
            return Err(format!(
                "indexed bit-set has {} bits set for {} positions",
                indexed.masked_count(),
                positions.len()
            ));
        }
        // Per-row invariants: strictly ascending positions (step 2 and the
        // uniqueness argument assume the enumeration order), every position
        // inside the bank, every position present in the bit-set.
        let boundaries: &[u32] = match &rows {
            RowIndex::Dense { offsets } => offsets,
            RowIndex::Sparse { row_offsets, .. } => row_offsets,
        };
        for row in boundaries.windows(2) {
            let row = &positions[row[0] as usize..row[1] as usize];
            for pair in row.windows(2) {
                if pair[0] >= pair[1] {
                    return Err("row positions are not strictly ascending".into());
                }
            }
            for &p in row {
                if p as usize >= bank_bytes {
                    return Err(format!("position {p} outside bank of {bank_bytes}"));
                }
                if !indexed.contains(p as usize) {
                    return Err(format!("position {p} missing from the indexed bit-set"));
                }
            }
        }
        Ok(BankIndex {
            coder,
            stride,
            rows,
            positions,
            indexed,
            fully_indexed,
            bank_bytes,
            distinct,
        })
    }

    /// The seed coder used by this index.
    #[inline]
    pub fn coder(&self) -> SeedCoder {
        self.coder
    }

    /// Seed length `W`.
    #[inline]
    pub fn w(&self) -> usize {
        self.coder.w()
    }

    /// Sampling stride (1 = full, 2 = asymmetric).
    #[inline]
    pub fn stride(&self) -> usize {
        self.stride
    }

    /// The resolved row-lookup backend — [`IndexBackend::Dense`] or
    /// [`IndexBackend::Sparse`], never `Auto` (Auto is resolved at build
    /// time from the observed density).
    #[inline]
    pub fn backend(&self) -> IndexBackend {
        match self.rows {
            RowIndex::Dense { .. } => IndexBackend::Dense,
            RowIndex::Sparse { .. } => IndexBackend::Sparse,
        }
    }

    /// First occurrence of `code`, or `None` if the seed is absent.
    #[inline]
    pub fn first(&self, code: u32) -> Option<u32> {
        self.occurrences(code).first().copied()
    }

    /// All occurrences of `code` as a contiguous slice, in increasing
    /// position order.
    #[inline]
    pub fn occurrences(&self, code: u32) -> &[u32] {
        match &self.rows {
            RowIndex::Dense { offsets } => {
                let lo = offsets[code as usize] as usize;
                let hi = offsets[code as usize + 1] as usize;
                &self.positions[lo..hi]
            }
            RowIndex::Sparse {
                codes,
                row_offsets,
                slots,
            } => match sparse_row_of(codes, slots, code) {
                Some(row) => {
                    let lo = row_offsets[row] as usize;
                    let hi = row_offsets[row + 1] as usize;
                    &self.positions[lo..hi]
                }
                None => &[],
            },
        }
    }

    /// Number of occurrences of `code` — O(1) offset arithmetic (dense)
    /// or one hashed lookup (sparse).
    #[inline]
    pub fn count(&self, code: u32) -> usize {
        match &self.rows {
            RowIndex::Dense { offsets } => {
                (offsets[code as usize + 1] - offsets[code as usize]) as usize
            }
            RowIndex::Sparse {
                codes,
                row_offsets,
                slots,
            } => match sparse_row_of(codes, slots, code) {
                Some(row) => (row_offsets[row + 1] - row_offsets[row]) as usize,
                None => 0,
            },
        }
    }

    /// The dense CSR row-boundary array (`4^W + 1` entries), or `None`
    /// for a sparse-backed index. Prefer [`BankIndex::populated_in`] /
    /// [`BankIndex::count`] — they are backend-agnostic; this accessor
    /// exists for persistence and the dense-layout tests.
    #[inline]
    pub fn dense_offsets(&self) -> Option<&[u32]> {
        match &self.rows {
            RowIndex::Dense { offsets } => Some(offsets),
            RowIndex::Sparse { .. } => None,
        }
    }

    /// Iterates the *populated* codes in `range` in ascending code order,
    /// yielding `(code, occurrences)` with the occurrences slice exactly
    /// as [`BankIndex::occurrences`] would return it.
    ///
    /// This is the enumeration primitive step 2 schedules and drives on:
    /// dense skips empty rows while sweeping the range; sparse binary-
    /// searches the populated-code list for the range bounds and walks
    /// the rows directly — never touching the `4^W` code space.
    pub fn populated_in(&self, range: Range<u32>) -> PopulatedRows<'_> {
        match &self.rows {
            RowIndex::Dense { offsets } => PopulatedRows::Dense {
                offsets,
                positions: &self.positions,
                next: range.start,
                end: range
                    .end
                    .min(u32::try_from(self.coder.num_seeds()).unwrap_or(u32::MAX)),
            },
            RowIndex::Sparse {
                codes, row_offsets, ..
            } => {
                let lo = codes.partition_point(|&c| c < range.start);
                let hi = codes.partition_point(|&c| c < range.end);
                PopulatedRows::Sparse {
                    codes,
                    row_offsets,
                    positions: &self.positions,
                    row: lo,
                    end_row: hi,
                }
            }
        }
    }

    /// Iterates every populated code of the index in ascending order.
    pub fn populated(&self) -> PopulatedRows<'_> {
        let num = u32::try_from(self.coder.num_seeds()).unwrap_or(u32::MAX);
        self.populated_in(0..num)
    }

    /// Number of distinct populated codes — O(1), cached at build time.
    #[inline]
    pub fn distinct_codes(&self) -> usize {
        self.distinct
    }

    /// Total indexed positions.
    #[inline]
    pub fn indexed_positions(&self) -> usize {
        self.positions.len()
    }

    /// Whether a seed occurrence is anchored at global position `pos`
    /// (i.e. the window there is valid, unmasked and stride-aligned).
    #[inline]
    pub fn is_indexed(&self, pos: usize) -> bool {
        self.indexed.contains(pos)
    }

    /// Whether every *valid* window of the bank is indexed — exclusion
    /// provenance recorded at build time.
    ///
    /// `true` iff the stride is 1 and the mask predicate rejected no
    /// window the rolling scan yielded. Windows missing only for validity
    /// reasons (record boundaries, ambiguous bases) do not count: the
    /// order guard probes a position only after observing a run of `W`
    /// matching nucleotides there, which already implies the window is
    /// valid. Consequently, when both banks of a comparison are fully
    /// indexed, every guard probe would return `true` and the probe-free
    /// `OrderedFull` guard is behaviourally identical — step 2 uses this
    /// predicate to auto-select it.
    #[inline]
    pub fn is_fully_indexed(&self) -> bool {
        self.fully_indexed
    }

    /// The indexed-occurrence bit-set as raw 64-bit words (bit `p % 64`
    /// of word `p / 64` set ⟺ [`BankIndex::is_indexed`]`(p)`) — the
    /// bit-set section of the on-disk format.
    #[inline]
    pub fn indexed_words(&self) -> &[u64] {
        self.indexed.words()
    }

    /// Computes occupancy/footprint statistics — pure boundary
    /// arithmetic, no postings traversal.
    pub fn stats(&self) -> IndexStats {
        let boundaries: &[u32] = match &self.rows {
            RowIndex::Dense { offsets } => offsets,
            RowIndex::Sparse { row_offsets, .. } => row_offsets,
        };
        let mut max_chain = 0usize;
        for w in boundaries.windows(2) {
            max_chain = max_chain.max((w[1] - w[0]) as usize);
        }
        let index_bytes = self.heap_bytes();
        IndexStats {
            distinct_seeds: self.distinct,
            indexed_positions: self.positions.len(),
            max_chain_len: max_chain,
            index_bytes,
            total_bytes: index_bytes + self.bank_bytes,
        }
    }

    /// Heap bytes used by the index arrays (row lookup, postings and the
    /// indexed-position bit vector). For an mmap-backed index the mapped
    /// sections count zero — their bytes live in the shared, evictable
    /// page cache, not this process's heap; only the copied bit-set
    /// remains resident per attach.
    pub fn heap_bytes(&self) -> usize {
        let rows = match &self.rows {
            RowIndex::Dense { offsets } => offsets.heap_bytes(),
            RowIndex::Sparse {
                codes,
                row_offsets,
                slots,
            } => codes.heap_bytes() + row_offsets.heap_bytes() + slots.heap_bytes(),
        };
        rows + self.positions.heap_bytes() + self.indexed.heap_bytes()
    }

    /// Whether the row-lookup/postings sections are zero-copy views into
    /// a memory-mapped index file (see `oris_index::mmap`).
    pub fn is_mmap_backed(&self) -> bool {
        let rows = match &self.rows {
            RowIndex::Dense { offsets } => offsets.is_mapped(),
            RowIndex::Sparse {
                codes,
                row_offsets,
                slots,
            } => codes.is_mapped() || row_offsets.is_mapped() || slots.is_mapped(),
        };
        rows || self.positions.is_mapped()
    }

    /// The row-lookup structure (persistence needs the raw sections).
    #[inline]
    pub(crate) fn rows(&self) -> &RowIndex {
        &self.rows
    }

    /// The full postings array: every indexed position, grouped by seed
    /// code in ascending code order and ascending within each row.
    #[inline]
    pub fn positions(&self) -> &[u32] {
        &self.positions
    }

    /// Length of the bank (its global coordinate space, sentinels
    /// included) this index was built over. A persisted index can only be
    /// reattached to a bank of exactly this length.
    #[inline]
    pub fn bank_len(&self) -> usize {
        self.bank_bytes
    }
}

/// Iterator over the populated `(code, occurrences)` rows of a
/// [`BankIndex`] — see [`BankIndex::populated_in`].
#[derive(Debug)]
pub enum PopulatedRows<'a> {
    #[doc(hidden)]
    Dense {
        offsets: &'a [u32],
        positions: &'a [u32],
        next: u32,
        end: u32,
    },
    #[doc(hidden)]
    Sparse {
        codes: &'a [u32],
        row_offsets: &'a [u32],
        positions: &'a [u32],
        row: usize,
        end_row: usize,
    },
}

impl<'a> Iterator for PopulatedRows<'a> {
    type Item = (u32, &'a [u32]);

    fn next(&mut self) -> Option<(u32, &'a [u32])> {
        match self {
            PopulatedRows::Dense {
                offsets,
                positions,
                next,
                end,
            } => {
                while *next < *end {
                    let code = *next;
                    *next += 1;
                    let lo = offsets[code as usize] as usize;
                    let hi = offsets[code as usize + 1] as usize;
                    if hi > lo {
                        return Some((code, &positions[lo..hi]));
                    }
                }
                None
            }
            PopulatedRows::Sparse {
                codes,
                row_offsets,
                positions,
                row,
                end_row,
            } => {
                if *row >= *end_row {
                    return None;
                }
                let r = *row;
                *row += 1;
                let lo = row_offsets[r] as usize;
                let hi = row_offsets[r + 1] as usize;
                Some((codes[r], &positions[lo..hi]))
            }
        }
    }
}

/// Dense-backend row assembly: one counting sort across the whole code
/// space (count, exclusive prefix-sum, scatter).
fn full_sweep_rows(num_seeds: usize, pairs: &[(u32, u32)]) -> (Vec<u32>, Vec<u32>) {
    // Count per code (stored at `offsets[code]` for now)...
    let mut offsets = vec![0u32; num_seeds + 1];
    for &(_, code) in pairs {
        offsets[code as usize] += 1;
    }
    // ...exclusive prefix-sum in place (`offsets[c]` = start of row
    // `c`; single accumulator, no second array)...
    let mut sum = 0u32;
    for slot in offsets.iter_mut() {
        let count = *slot;
        *slot = sum;
        sum += count;
    }
    // ...and scatter, using each row's start slot as its write cursor.
    // The forward walk preserves the ascending position order inside
    // every row.
    let mut positions = vec![0u32; pairs.len()];
    for &(pos, code) in pairs {
        let slot = &mut offsets[code as usize];
        positions[*slot as usize] = pos;
        *slot += 1;
    }
    // After the scatter `offsets[c]` holds the END of row `c`, which
    // is the start of row `c + 1`: shift right one slot to restore the
    // CSR convention.
    offsets.copy_within(0..num_seeds, 1);
    offsets[0] = 0;
    (offsets, positions)
}

/// Sparse-backend row assembly: a stable sort of the `(position, code)`
/// pairs by code groups the postings by ascending code while preserving
/// the scan's ascending position order inside each group — the exact
/// postings layout the dense scatter produces. One walk then extracts
/// the distinct codes and their row boundaries. Cost is
/// `O(postings · log postings)`, independent of `4^W`.
fn sparse_rows(mut pairs: Vec<(u32, u32)>) -> (Vec<u32>, Vec<u32>, Vec<u32>) {
    pairs.sort_by_key(|&(_, code)| code);
    let mut codes: Vec<u32> = Vec::new();
    let mut row_offsets: Vec<u32> = Vec::new();
    let mut positions: Vec<u32> = Vec::with_capacity(pairs.len());
    for &(pos, code) in &pairs {
        if codes.last() != Some(&code) {
            codes.push(code);
            row_offsets.push(
                u32::try_from(positions.len())
                    .expect("position count is u32-bounded by the bank-length guard"),
            );
        }
        positions.push(pos);
    }
    row_offsets.push(
        u32::try_from(positions.len())
            .expect("position count is u32-bounded by the bank-length guard"),
    );
    (codes, row_offsets, positions)
}

#[cfg(test)]
mod tests {
    use super::*;
    use oris_seqio::BankBuilder;
    use proptest::prelude::*;

    fn bank_of(seqs: &[&str]) -> Bank {
        let mut b = BankBuilder::new();
        for (i, s) in seqs.iter().enumerate() {
            b.push_str(&format!("s{i}"), s).unwrap();
        }
        b.finish()
    }

    /// Brute-force reference: all (pos, code) with optional stride.
    fn reference_occurrences(bank: &Bank, w: usize, stride: usize) -> Vec<(u32, u32)> {
        let coder = SeedCoder::new(w);
        let data = bank.data();
        let mut out = Vec::new();
        for pos in 0..data.len().saturating_sub(w - 1) {
            if pos % stride != 0 {
                continue;
            }
            if let Some(code) = coder.encode(&data[pos..pos + w]) {
                out.push((pos as u32, code));
            }
        }
        out
    }

    #[test]
    fn finds_all_occurrences_sorted() {
        let bank = bank_of(&["ACGTACGTACGT"]);
        let idx = BankIndex::build(&bank, IndexConfig::full(4));
        let coder = idx.coder();
        let code = coder.string_to_code("ACGT").unwrap();
        // positions are global (bank data starts with a sentinel at 0)
        assert_eq!(idx.occurrences(code), &[1, 5, 9]);
    }

    #[test]
    fn chains_do_not_cross_sequence_boundaries() {
        // "ACGT" at the end of s0 and start of s1 — the window spanning the
        // sentinel must not be indexed.
        let bank = bank_of(&["TTACGT", "ACGTTT"]);
        let idx = BankIndex::build(&bank, IndexConfig::full(4));
        let code = idx.coder().string_to_code("ACGT").unwrap();
        let occ = idx.occurrences(code);
        assert_eq!(occ.len(), 2);
        // Every occurrence is fully inside one record.
        for &p in occ {
            let rec = bank.locate(p as usize).unwrap();
            assert!(p as usize + 4 <= bank.record(rec).end());
        }
    }

    #[test]
    fn ambiguous_windows_excluded() {
        let bank = bank_of(&["ACGNACG"]);
        let idx = BankIndex::build(&bank, IndexConfig::full(3));
        let code = idx.coder().string_to_code("ACG").unwrap();
        assert_eq!(idx.count(code), 2);
        let cgn = idx.coder().string_to_code("CGN");
        assert!(cgn.is_none());
    }

    #[test]
    fn absent_seed_has_no_occurrences() {
        let bank = bank_of(&["AAAA"]);
        let idx = BankIndex::build(&bank, IndexConfig::full(3));
        let code = idx.coder().string_to_code("GGG").unwrap();
        assert_eq!(idx.first(code), None);
        assert_eq!(idx.count(code), 0);
        assert!(idx.occurrences(code).is_empty());
    }

    #[test]
    fn asymmetric_stride_halves_positions() {
        let bank = bank_of(&[&"ACGT".repeat(100)]);
        let full = BankIndex::build(&bank, IndexConfig::full(8));
        let half = BankIndex::build(&bank, IndexConfig::asymmetric(8));
        assert!(half.indexed_positions() * 2 <= full.indexed_positions() + 2);
        assert!(half.indexed_positions() > 0);
    }

    #[test]
    fn masked_positions_excluded() {
        let bank = bank_of(&["ACGTACGT"]);
        let idx = BankIndex::build_filtered(&bank, IndexConfig::full(4), |p| p < 3);
        let code = idx.coder().string_to_code("ACGT").unwrap();
        assert_eq!(idx.occurrences(code), &[5]);
    }

    /// The dense CSR footprint model: 4 bytes per offsets slot (4^W + 1),
    /// 4 bytes per *indexed* position, 1 bit per bank position for the
    /// occurrence set. The `stats_match_footprint_model_*` tests pin this
    /// model, so they force [`IndexBackend::Dense`] — Auto would pick
    /// sparse for these banks at W = 8.
    fn expected_index_bytes(bank: &Bank, w: usize, indexed_positions: usize) -> usize {
        let n = bank.data().len();
        4 * ((1usize << (2 * w)) + 1) + 4 * indexed_positions + n.div_ceil(64) * 8
    }

    /// The sparse footprint model: 4 bytes per populated code, 4·(k+1)
    /// row offsets, 4 bytes per slot-table entry, postings and bit-set
    /// as dense.
    fn expected_sparse_bytes(bank: &Bank, distinct: usize, indexed_positions: usize) -> usize {
        let n = bank.data().len();
        4 * distinct
            + 4 * (distinct + 1)
            + 4 * sparse_slot_count(distinct)
            + 4 * indexed_positions
            + n.div_ceil(64) * 8
    }

    #[test]
    fn stats_match_footprint_model_full() {
        let bank = bank_of(&[&"ACGTTGCA".repeat(2000)]); // 16 kb
        let cfg = IndexConfig::full(8).with_backend(IndexBackend::Dense);
        let idx = BankIndex::build(&bank, cfg);
        let stats = idx.stats();
        let n = bank.data().len();
        assert_eq!(
            stats.index_bytes,
            expected_index_bytes(&bank, 8, stats.indexed_positions)
        );
        assert_eq!(stats.total_bytes, stats.index_bytes + n);
        assert!(stats.indexed_positions > 0);
        assert!(stats.distinct_seeds > 0);
        assert!(stats.max_chain_len >= 1);
        // Fully indexed: postings = one entry per valid window, the
        // paper's ≈5·N regime (4 bytes of postings + 1 byte of SEQ per
        // position).
        assert_eq!(stats.indexed_positions, bank.num_residues() - 7);
    }

    #[test]
    fn stats_match_footprint_model_masked() {
        let bank = bank_of(&[&"ACGTTGCA".repeat(2000)]);
        let n = bank.data().len();
        let cfg = IndexConfig::full(8).with_backend(IndexBackend::Dense);
        // Mask the first half of the bank: the postings array must shrink
        // by (roughly) the masked windows, unlike the linked layout whose
        // `next` array stayed at 4·N bytes regardless.
        let idx = BankIndex::build_filtered(&bank, cfg, |p| p < n / 2);
        let stats = idx.stats();
        assert_eq!(
            stats.index_bytes,
            expected_index_bytes(&bank, 8, stats.indexed_positions)
        );
        let full = BankIndex::build(&bank, cfg).stats();
        assert!(stats.indexed_positions * 2 <= full.indexed_positions + 16);
        assert!(stats.index_bytes < full.index_bytes);
    }

    #[test]
    fn stats_match_footprint_model_asymmetric() {
        let bank = bank_of(&[&"ACGTTGCA".repeat(2000)]);
        let cfg = IndexConfig::asymmetric(8).with_backend(IndexBackend::Dense);
        let idx = BankIndex::build(&bank, cfg);
        let stats = idx.stats();
        assert_eq!(
            stats.index_bytes,
            expected_index_bytes(&bank, 8, stats.indexed_positions)
        );
        // Half the windows → half the postings bytes (+offsets/bit-set,
        // which don't depend on the stride).
        let full = BankIndex::build(
            &bank,
            IndexConfig::full(8).with_backend(IndexBackend::Dense),
        )
        .stats();
        assert!(stats.indexed_positions * 2 <= full.indexed_positions + 2);
        assert_eq!(
            full.index_bytes - stats.index_bytes,
            4 * (full.indexed_positions - stats.indexed_positions)
        );
    }

    #[test]
    fn sparse_stats_match_sparse_footprint_model() {
        let bank = bank_of(&[&"ACGTTGCA".repeat(2000)]);
        let cfg = IndexConfig::full(8).with_backend(IndexBackend::Sparse);
        let idx = BankIndex::build(&bank, cfg);
        assert_eq!(idx.backend(), IndexBackend::Sparse);
        let stats = idx.stats();
        assert_eq!(
            stats.index_bytes,
            expected_sparse_bytes(&bank, stats.distinct_seeds, stats.indexed_positions)
        );
        assert_eq!(stats.distinct_seeds, idx.distinct_codes());
    }

    #[test]
    fn sparse_footprint_wins_big_at_w11() {
        // The acceptance criterion of the backend: at W = 11 on a small
        // bank, sparse is ≤ 1/10 the dense footprint (dense pays the
        // 16.8 MB offsets array regardless of bank size).
        let bank = bank_of(&[&"ACGTTGCAAGGTTCCAATGC".repeat(500)]); // 10 kb
        let dense = BankIndex::build(
            &bank,
            IndexConfig::full(11).with_backend(IndexBackend::Dense),
        );
        let sparse = BankIndex::build(
            &bank,
            IndexConfig::full(11).with_backend(IndexBackend::Sparse),
        );
        let db = dense.stats().index_bytes;
        let sb = sparse.stats().index_bytes;
        assert!(
            sb * 10 <= db,
            "sparse {sb} bytes not ≤ 1/10 of dense {db} bytes"
        );
    }

    #[test]
    fn auto_picks_sparse_for_small_bank_large_w() {
        // 10 kb of bank cannot populate more than ~10k of the 4^11 ≈ 4.2M
        // codes: Auto must choose sparse.
        let bank = bank_of(&[&"ACGTTGCAAGGTTCCAATGC".repeat(500)]);
        let idx = BankIndex::build(&bank, IndexConfig::full(11));
        assert_eq!(idx.backend(), IndexBackend::Sparse);
    }

    #[test]
    fn auto_picks_dense_for_dense_code_space() {
        // 16 kb of bank at W = 4 (256 codes): essentially every code is
        // populated — Auto must choose dense.
        let bank = bank_of(&[&"ACGTTGCA".repeat(2000)]);
        let idx = BankIndex::build(&bank, IndexConfig::full(4));
        assert_eq!(idx.backend(), IndexBackend::Dense);
    }

    #[test]
    fn empty_bank_builds() {
        let bank = Bank::empty();
        for backend in [
            IndexBackend::Dense,
            IndexBackend::Sparse,
            IndexBackend::Auto,
        ] {
            let idx = BankIndex::build(&bank, IndexConfig::full(4).with_backend(backend));
            assert_eq!(idx.indexed_positions(), 0);
            assert_eq!(idx.stats().distinct_seeds, 0);
            assert_eq!(idx.populated().count(), 0);
            // No window was policy-excluded (vacuously): the fast path is
            // safe.
            assert!(idx.is_fully_indexed());
        }
    }

    #[test]
    fn provenance_full_build_is_fully_indexed() {
        // Ambiguous bases and record boundaries exclude windows for
        // *validity* only — they must not disqualify the fast path.
        let bank = bank_of(&["ACGTNACGT", "TTGGCC"]);
        let idx = BankIndex::build(&bank, IndexConfig::full(4));
        assert!(idx.is_fully_indexed());
    }

    #[test]
    fn provenance_mask_that_never_fires_is_fully_indexed() {
        // Provenance tracks what *happened*, not what was requested: a
        // predicate that rejects nothing leaves the index complete.
        let bank = bank_of(&["ACGTACGTACGT"]);
        let idx = BankIndex::build_filtered(&bank, IndexConfig::full(4), |_| false);
        assert!(idx.is_fully_indexed());
    }

    #[test]
    fn provenance_masked_build_is_not_fully_indexed() {
        let bank = bank_of(&["ACGTACGTACGT"]);
        let idx = BankIndex::build_filtered(&bank, IndexConfig::full(4), |p| p == 1);
        assert!(!idx.is_fully_indexed());
    }

    #[test]
    fn provenance_strided_build_is_not_fully_indexed() {
        let bank = bank_of(&["ACGTACGTACGT"]);
        let idx = BankIndex::build(&bank, IndexConfig::asymmetric(4));
        assert!(!idx.is_fully_indexed());
    }

    #[test]
    fn indexed_words_agree_with_is_indexed() {
        let bank = bank_of(&["ACGTNACGTTTGG", "CCAA"]);
        let idx = BankIndex::build_filtered(&bank, IndexConfig::full(4), |p| p % 5 == 0);
        let words = idx.indexed_words();
        for p in 0..bank.data().len() {
            let bit = words[p / 64] & (1u64 << (p % 64)) != 0;
            assert_eq!(bit, idx.is_indexed(p), "position {p}");
        }
    }

    #[test]
    fn offsets_are_monotonic_and_cover_positions() {
        let bank = bank_of(&["ACGTACGTTTGGCCAAACGT"]);
        let idx = BankIndex::build(
            &bank,
            IndexConfig::full(4).with_backend(IndexBackend::Dense),
        );
        let off = idx.dense_offsets().expect("dense build has dense offsets");
        assert_eq!(off.len(), idx.coder().num_seeds() + 1);
        assert_eq!(off[0], 0);
        assert!(off.windows(2).all(|w| w[0] <= w[1]));
        assert_eq!(*off.last().unwrap() as usize, idx.indexed_positions());
    }

    #[test]
    fn sparse_has_no_dense_offsets() {
        let bank = bank_of(&["ACGTACGTTTGGCCAAACGT"]);
        let idx = BankIndex::build(
            &bank,
            IndexConfig::full(4).with_backend(IndexBackend::Sparse),
        );
        assert!(idx.dense_offsets().is_none());
        assert_eq!(idx.backend(), IndexBackend::Sparse);
    }

    #[test]
    fn populated_in_respects_range_bounds() {
        let bank = bank_of(&["ACGTACGTTTGGCCAAACGT"]);
        for backend in [IndexBackend::Dense, IndexBackend::Sparse] {
            let idx = BankIndex::build(&bank, IndexConfig::full(4).with_backend(backend));
            let num = idx.coder().num_seeds() as u32;
            let all: Vec<u32> = idx.populated().map(|(c, _)| c).collect();
            assert!(all.windows(2).all(|p| p[0] < p[1]), "ascending codes");
            assert_eq!(all.len(), idx.distinct_codes());
            // Split the space at an arbitrary boundary: the two halves
            // must partition the full walk.
            let mid = num / 3;
            let lo: Vec<u32> = idx.populated_in(0..mid).map(|(c, _)| c).collect();
            let hi: Vec<u32> = idx.populated_in(mid..num).map(|(c, _)| c).collect();
            let glued: Vec<u32> = lo.iter().chain(hi.iter()).copied().collect();
            assert_eq!(glued, all, "{backend:?}");
            // Row contents agree with occurrences().
            for (code, row) in idx.populated() {
                assert_eq!(row, idx.occurrences(code));
                assert!(!row.is_empty());
            }
        }
    }

    proptest! {
        /// The CSR index reproduces the brute-force occurrence list for
        /// every seed, in sorted order, for random banks and strides —
        /// under either backend.
        #[test]
        fn index_equals_bruteforce(
            seqs in proptest::collection::vec("[ACGTN]{0,40}", 1..4),
            w in 2usize..6,
            stride in 1usize..3,
            dense in 0usize..2,
        ) {
            let refs: Vec<&str> = seqs.iter().map(|s| s.as_str()).collect();
            let bank = bank_of(&refs);
            let backend = if dense == 1 { IndexBackend::Dense } else { IndexBackend::Sparse };
            let cfg = IndexConfig { stride, ..IndexConfig::full(w) }.with_backend(backend);
            let idx = BankIndex::build(&bank, cfg);
            let mut expected = reference_occurrences(&bank, w, stride);
            expected.sort_by_key(|&(_, code)| code);

            let mut got: Vec<(u32, u32)> = Vec::new();
            for code in 0..idx.coder().num_seeds() as u32 {
                let occ = idx.occurrences(code);
                // rows are sorted ascending
                prop_assert!(occ.windows(2).all(|p| p[0] < p[1]));
                // count agrees with the slice
                prop_assert_eq!(idx.count(code), occ.len());
                got.extend(occ.iter().map(|&p| (p, code)));
            }
            let mut expected_sorted = expected.clone();
            expected_sorted.sort();
            got.sort();
            prop_assert_eq!(got, expected_sorted);
        }

        /// The sparse backend is observationally identical to the dense
        /// backend: same occurrences slice for every code, same postings
        /// array, same bit-set, provenance, distinct/max-chain stats and
        /// populated-row walk — only the footprint differs.
        #[test]
        fn sparse_backend_equals_dense(
            seqs in proptest::collection::vec("[ACGTN]{0,60}", 1..4),
            w in 2usize..8,
            stride in 1usize..3,
            mask_mod in 1usize..9,
        ) {
            let refs: Vec<&str> = seqs.iter().map(|s| s.as_str()).collect();
            let bank = bank_of(&refs);
            let masked = |p: usize| mask_mod > 1 && p.is_multiple_of(mask_mod);
            let base = IndexConfig { stride, ..IndexConfig::full(w) };
            let dense = BankIndex::build_filtered(
                &bank, base.with_backend(IndexBackend::Dense), masked,
            );
            let sparse = BankIndex::build_filtered(
                &bank, base.with_backend(IndexBackend::Sparse), masked,
            );
            prop_assert_eq!(dense.positions(), sparse.positions());
            prop_assert_eq!(dense.indexed_words(), sparse.indexed_words());
            prop_assert_eq!(dense.is_fully_indexed(), sparse.is_fully_indexed());
            prop_assert_eq!(dense.distinct_codes(), sparse.distinct_codes());
            for code in 0..dense.coder().num_seeds() as u32 {
                prop_assert_eq!(dense.occurrences(code), sparse.occurrences(code));
                prop_assert_eq!(dense.count(code), sparse.count(code));
            }
            let dw: Vec<(u32, Vec<u32>)> =
                dense.populated().map(|(c, r)| (c, r.to_vec())).collect();
            let sw: Vec<(u32, Vec<u32>)> =
                sparse.populated().map(|(c, r)| (c, r.to_vec())).collect();
            prop_assert_eq!(dw, sw);
            let ds = dense.stats();
            let ss = sparse.stats();
            prop_assert_eq!(ds.distinct_seeds, ss.distinct_seeds);
            prop_assert_eq!(ds.indexed_positions, ss.indexed_positions);
            prop_assert_eq!(ds.max_chain_len, ss.max_chain_len);
        }

        /// indexed_positions equals the number of valid windows.
        #[test]
        fn position_count_matches(seq in "[ACGT]{0,200}", w in 2usize..6) {
            let bank = bank_of(&[seq.as_str()]);
            let idx = BankIndex::build(&bank, IndexConfig::full(w));
            let expected = seq.len().saturating_sub(w - 1);
            prop_assert_eq!(idx.indexed_positions(), expected);
        }

        /// The slot table round-trips every inserted code and rejects
        /// absent ones, across random distinct code sets (collision
        /// probing included).
        #[test]
        fn slot_table_lookup_is_exact(
            raw in proptest::collection::vec(0u32..4096, 0..64),
        ) {
            let mut raw = raw;
            raw.sort_unstable();
            raw.dedup();
            let slots = build_slot_table(&raw);
            prop_assert_eq!(slots.len(), sparse_slot_count(raw.len()));
            for (row, &code) in raw.iter().enumerate() {
                prop_assert_eq!(sparse_row_of(&raw, &slots, code), Some(row));
            }
            for probe in 0..4096u32 {
                if raw.binary_search(&probe).is_err() {
                    prop_assert_eq!(sparse_row_of(&raw, &slots, probe), None);
                }
            }
        }
    }
}
