//! Gapped X-drop extension (paper section 2.3).
//!
//! Step 3 of ORIS grows each surviving HSP into a gapped alignment:
//! "alignments are constructed starting from the middle of an HSP and
//! performing an extension on both extremities by dynamic programming
//! techniques. The extension is controlled by an XDROP value."
//!
//! This module implements the NCBI-style adaptive-band X-drop DP with
//! affine gaps and full traceback:
//!
//! * the DP advances row by row (one row per consumed character of
//!   sequence 1), keeping only the *live band* of columns whose best state
//!   value is within `xdrop` of the best score seen so far;
//! * the band adapts — it can drift, widen along gap chains and shrink as
//!   cells die — so the cost is proportional to the alignment's "score
//!   corridor", not to the product of the extension lengths;
//! * a hard `max_cells` cap bounds memory on pathological inputs.
//!
//! **In-place tapes.** An extension reads the bank bytes where they are:
//! forward from the origin for a right extension, backward for a left
//! one. A tape ends at the first sentinel, the array bound or `max_span`
//! characters, and that end is found lazily — a character is checked the
//! first time the band reaches its row or column — so an extension next
//! to a long sentinel-free chromosome tail costs what its band touches,
//! never the tail.
//!
//! **Scratch reuse.** The two row buffers, the traceback pool and the row
//! descriptors live in a [`GappedScratch`]. Step 3 keeps one per worker
//! and reuses it across extensions; the `extend_gapped_*` functions make a
//! fresh one per call. The two-sided entry point [`extend_gapped_both`]
//! merges both halves around the HSP midpoint exactly as step 3 does.

use oris_seqio::alphabet::{is_nucleotide, SENTINEL};

use crate::cigar::AlignOp;
use crate::scoring::ScoringScheme;

const NEG: i32 = i32::MIN / 4;

// Traceback encoding: bits 0..2 = H source, bit 3 = E source, bit 4 = F source.
const TB_H_FROM_H: u8 = 0;
const TB_H_FROM_E: u8 = 1;
const TB_H_FROM_F: u8 = 2;
const TB_H_START: u8 = 3;
const TB_H_DEAD: u8 = 7;
const TB_H_MASK: u8 = 0b111;
const TB_E_EXTEND: u8 = 1 << 3;
const TB_F_EXTEND: u8 = 1 << 4;

/// Parameters of the gapped extension.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GappedParams {
    /// Scoring scheme (affine gaps).
    pub scheme: ScoringScheme,
    /// X-drop threshold (positive).
    pub xdrop: i32,
    /// Maximum characters consumed per tape in each direction.
    pub max_span: usize,
    /// Hard cap on DP cells computed per direction (memory guard).
    pub max_cells: usize,
}

impl Default for GappedParams {
    fn default() -> Self {
        GappedParams {
            scheme: ScoringScheme::blastn(),
            xdrop: 25,
            max_span: 1 << 20,
            max_cells: 1 << 24,
        }
    }
}

/// One-directional gapped extension result.
///
/// The alignment consumes `len1` characters of tape 1 and `len2` of tape 2,
/// with `ops` listed from the extension origin outward.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GappedExtension {
    /// Best path score (0 for the empty extension).
    pub score: i32,
    /// Characters consumed on sequence 1.
    pub len1: usize,
    /// Characters consumed on sequence 2.
    pub len2: usize,
    /// Alignment operations from the origin outward.
    pub ops: Vec<AlignOp>,
}

impl GappedExtension {
    /// The empty extension.
    pub fn empty() -> GappedExtension {
        GappedExtension {
            score: 0,
            len1: 0,
            len2: 0,
            ops: Vec::new(),
        }
    }
}

/// The three affine states of one DP cell: `h` ends in an aligned pair,
/// `e` in a gap consuming sequence 2, `f` in a gap consuming sequence 1.
#[derive(Debug, Clone, Copy)]
struct Cell {
    h: i32,
    e: i32,
    f: i32,
}

impl Cell {
    const fn new(h: i32, e: i32, f: i32) -> Cell {
        Cell { h, e, f }
    }
}

const DEAD: Cell = Cell::new(NEG, NEG, NEG);

/// An extension tape read in place: character `k` is `d[origin + k]`
/// when `FWD`, `d[origin - k]` otherwise.
struct Tape<'a, const FWD: bool> {
    d: &'a [u8],
    origin: usize,
    max_span: usize,
    /// Characters verified to lie on the tape.
    known: usize,
    /// Set once character `known` was found to be past the tape end.
    ended: bool,
}

impl<'a, const FWD: bool> Tape<'a, FWD> {
    fn new(d: &'a [u8], origin: usize, max_span: usize) -> Self {
        Tape {
            d,
            origin,
            max_span,
            known: 0,
            ended: false,
        }
    }

    /// Character `k`, for `k < known`.
    #[inline(always)]
    fn at(&self, k: usize) -> u8 {
        if FWD {
            self.d[self.origin + k]
        } else {
            self.d[self.origin - k]
        }
    }

    /// Characters `from..to`, all below `known`, as they lie in memory:
    /// in reverse tape order when not `FWD`.
    #[inline(always)]
    fn span(&self, from: usize, to: usize) -> &'a [u8] {
        if FWD {
            &self.d[self.origin + from..self.origin + to]
        } else {
            &self.d[self.origin + 1 - to..self.origin + 1 - from]
        }
    }

    /// Whether the tape holds at least `n` characters. Only characters
    /// past the verified prefix are checked, and the DP asks for one more
    /// each time its band reaches a new row or column.
    #[inline]
    fn has(&mut self, n: usize) -> bool {
        while self.known < n {
            if self.ended || !self.next_on_tape() {
                self.ended = true;
                return false;
            }
            self.known += 1;
        }
        true
    }

    fn next_on_tape(&self) -> bool {
        let k = self.known;
        let in_bounds = if FWD {
            self.origin + k < self.d.len()
        } else {
            k <= self.origin && self.origin - k < self.d.len()
        };
        k < self.max_span && in_bounds && self.at(k) != SENTINEL
    }
}

/// Best-cell tracking and the live extent of the current row.
struct Progress {
    xdrop: i32,
    best: i32,
    best_i: usize,
    best_j: usize,
    /// `best - xdrop`; follows `best` in the middle of a row.
    cutoff: i32,
    first_live: Option<usize>,
    last_live: usize,
}

impl Progress {
    /// Records cell `(i, j)` with diagonal value `hv` and state maximum
    /// `val`; returns whether it survives the X-drop test. The cutoff a
    /// cell is tested against comes before its own update of `best`.
    #[inline(always)]
    fn live(&mut self, i: usize, j: usize, hv: i32, val: i32) -> bool {
        if val < self.cutoff {
            return false;
        }
        if self.first_live.is_none() {
            self.first_live = Some(j);
        }
        self.last_live = j;
        if hv > self.best {
            self.best = hv;
            self.best_i = i;
            self.best_j = j;
            self.cutoff = hv - self.xdrop;
        }
        true
    }
}

/// What the cells of DP row `i` share: the row, its first column `plo`
/// and the scores, with the row's sequence-1 character folded into `key`.
struct RowCtx {
    i: usize,
    plo: usize,
    /// `c1` when it is a nucleotide, else `SENTINEL`, which no tape holds:
    /// `scheme.pair(c1, c2)` becomes one compare of `c2` with `key`.
    key: u8,
    matsch: i32,
    mismatch: i32,
    open_ext: i32,
    ext: i32,
}

impl RowCtx {
    #[inline(always)]
    fn pair(&self, c2: u8) -> i32 {
        if c2 == self.key {
            self.matsch
        } else {
            self.mismatch
        }
    }
}

/// The interior segment of a row: the columns `plo+1 ..` fed by the
/// diagonal, F and E moves, one per window of `band` (the previous row
/// from column `plo`). `chars` yields their tape-2 characters in column
/// order and `left` is the cell before the segment; returns its last cell.
#[inline(always)]
fn interior<'c>(
    chars: impl Iterator<Item = &'c u8>,
    band: &[Cell],
    row: &mut [Cell],
    trow: &mut [u8],
    mut left: Cell,
    r: &RowCtx,
    p: &mut Progress,
) -> Cell {
    let cells = band.windows(2).zip(row).zip(trow).zip(chars);
    for (j, (((w, out), tbo), &c2)) in (r.plo + 1..).zip(cells) {
        let (hv, hsrc) = diagonal(w[0], r.pair(c2));
        let (fv, fbit) = gap(w[1].h, w[1].f, r.open_ext, r.ext, TB_F_EXTEND);
        let (ev, ebit) = gap(left.h, left.e, r.open_ext, r.ext, TB_E_EXTEND);
        left = if p.live(r.i, j, hv, hv.max(ev).max(fv)) {
            *tbo = hsrc | ebit | fbit;
            Cell::new(hv, ev, fv)
        } else {
            DEAD
        };
        *out = left;
    }
    left
}

/// Opening (from `h`) or extending (from `g`) a gap; opening wins ties.
#[inline(always)]
fn gap(h: i32, g: i32, open_ext: i32, ext: i32, ext_bit: u8) -> (i32, u8) {
    let (open, extend) = (h + open_ext, g + ext);
    if open >= extend {
        (open, 0)
    } else {
        (extend, ext_bit)
    }
}

/// Diagonal move out of cell `d` scored `pair`: ties go H > E > F, and a
/// dead source stays dead.
#[inline(always)]
fn diagonal(d: Cell, pair: i32) -> (i32, u8) {
    let (mut v, mut src) = (d.h, TB_H_FROM_H);
    if d.e > v {
        v = d.e;
        src = TB_H_FROM_E;
    }
    if d.f > v {
        v = d.f;
        src = TB_H_FROM_F;
    }
    if v <= NEG / 2 {
        (NEG, TB_H_DEAD)
    } else {
        (v + pair, src)
    }
}

/// Reusable working memory of the gapped X-drop DP: the two row buffers,
/// the traceback pool and its per-row descriptors. Reusing one across
/// extensions leaves the returned operation list as the only allocation
/// per extension.
#[derive(Debug, Default)]
pub struct GappedScratch {
    prev: Vec<Cell>,
    cur: Vec<Cell>,
    tb: Vec<u8>,
    /// Per DP row: first column, offset into `tb`, stored width.
    rows: Vec<(usize, usize, usize)>,
}

impl GappedScratch {
    /// Empty scratch; its buffers grow to the largest extension run on it.
    pub fn new() -> GappedScratch {
        GappedScratch::default()
    }

    /// [`extend_gapped_both`] on this scratch's buffers.
    pub fn extend_both(
        &mut self,
        d1: &[u8],
        d2: &[u8],
        m1: usize,
        m2: usize,
        params: &GappedParams,
    ) -> (GappedExtension, usize, usize) {
        let mut ops = Vec::new();
        // The left traceback walks from its far end back to the origin,
        // which is already left-to-right order.
        let (lscore, l1, l2) = if m1 > 0 && m2 > 0 {
            self.xdrop_dp::<false>(d1, d2, m1 - 1, m2 - 1, params, &mut ops)
        } else {
            (0, 0, 0)
        };
        let mid = ops.len();
        let (rscore, r1, r2) = self.xdrop_dp::<true>(d1, d2, m1, m2, params, &mut ops);
        ops[mid..].reverse();
        let merged = GappedExtension {
            score: lscore + rscore,
            len1: l1 + r1,
            len2: l2 + r2,
            ops,
        };
        (merged, m1 - l1, m2 - l2)
    }

    /// X-drop DP from `(o1, o2)` over in-place tapes, forward when `FWD`.
    ///
    /// Each row is computed in segments whose inputs are known up front,
    /// relative to the previous row's band `[plo, phi]`: column `plo`
    /// (F only), the interior `plo+1..=phi` (diagonal, F and E), column
    /// `phi+1` (diagonal and E) and the E-only tail beyond it, which ends
    /// at its first dead cell. Dead cells inside `[plo, phi+1]` are stored
    /// and count toward `max_cells`.
    ///
    /// Appends the traceback to `ops` from the best cell back to the
    /// origin and returns `(score, len1, len2)`.
    fn xdrop_dp<const FWD: bool>(
        &mut self,
        d1: &[u8],
        d2: &[u8],
        o1: usize,
        o2: usize,
        params: &GappedParams,
        ops: &mut Vec<AlignOp>,
    ) -> (i32, usize, usize) {
        let scheme = &params.scheme;
        let ext = scheme.gap_extend;
        let open_ext = scheme.gap_open + ext;
        let mut t1 = Tape::<FWD>::new(d1, o1, params.max_span);
        let mut t2 = Tape::<FWD>::new(d2, o2, params.max_span);
        let GappedScratch {
            prev,
            cur,
            tb,
            rows,
        } = self;
        prev.clear();
        tb.clear();
        rows.clear();
        let mut p = Progress {
            xdrop: params.xdrop,
            best: 0,
            best_i: 0,
            best_j: 0,
            cutoff: -params.xdrop,
            first_live: None,
            last_live: 0,
        };

        // Row 0: the origin plus the leading-gap E chain.
        let mut left = Cell::new(0, NEG, NEG);
        prev.push(left);
        tb.push(TB_H_START);
        while t2.has(prev.len()) {
            let (ev, ebit) = gap(left.h, left.e, open_ext, ext, TB_E_EXTEND);
            if ev < p.cutoff {
                break;
            }
            left = Cell::new(NEG, ev, NEG);
            prev.push(left);
            tb.push(TB_H_DEAD | ebit);
        }
        rows.push((0, 0, prev.len()));
        let mut cells = prev.len();

        // The previous row's band: columns [plo, plo + plen) held at
        // prev[pa..pa + plen].
        let (mut plo, mut pa, mut plen) = (0usize, 0usize, prev.len());
        let mut i = 1usize;
        while t1.has(i) {
            let c1 = t1.at(i - 1);
            let r = RowCtx {
                i,
                plo,
                key: if is_nucleotide(c1) { c1 } else { SENTINEL },
                matsch: scheme.matsch,
                mismatch: scheme.mismatch,
                open_ext,
                ext,
            };
            let band = &prev[pa..pa + plen];
            let phi = plo + plen - 1;
            let width = plen + usize::from(t2.has(phi + 1));
            cur.clear();
            cur.resize(width, DEAD);
            let tb_off = tb.len();
            tb.resize(tb_off + width, TB_H_DEAD);
            let trow = &mut tb[tb_off..];
            let row = &mut cur[..];
            p.first_live = None;

            // Column plo: only F, as its diagonal source lies outside the
            // band and nothing precedes it in the row.
            let (fv, fbit) = gap(band[0].h, band[0].f, open_ext, ext, TB_F_EXTEND);
            if p.live(i, plo, NEG, NEG.max(fv)) {
                trow[0] = TB_H_DEAD | fbit;
                row[0] = Cell::new(NEG, NEG, fv);
            }

            let (head, seg, tseg) = (row[0], &mut row[1..plen], &mut trow[1..plen]);
            let chars = t2.span(plo, phi);
            left = if FWD {
                interior(chars.iter(), band, seg, tseg, head, &r, &mut p)
            } else {
                interior(chars.iter().rev(), band, seg, tseg, head, &r, &mut p)
            };

            if width > plen {
                // Column phi + 1: diagonal and E.
                let (hv, hsrc) = diagonal(band[plen - 1], r.pair(t2.at(phi)));
                let (ev, ebit) = gap(left.h, left.e, open_ext, ext, TB_E_EXTEND);
                if p.live(i, phi + 1, hv, hv.max(ev).max(NEG)) {
                    trow[plen] = hsrc | ebit;
                    left = Cell::new(hv, ev, NEG);
                    row[plen] = left;
                } else {
                    left = DEAD;
                }

                // Beyond the band only the E chain can live; the row ends
                // where it dies.
                let mut j = phi + 2;
                while t2.has(j) {
                    let (ev, ebit) = gap(left.h, left.e, open_ext, ext, TB_E_EXTEND);
                    if !p.live(i, j, NEG, NEG.max(ev).max(NEG)) {
                        break;
                    }
                    left = Cell::new(NEG, ev, NEG);
                    cur.push(left);
                    tb.push(TB_H_DEAD | ebit);
                    j += 1;
                }
            }

            cells += cur.len();
            rows.push((plo, tb_off, cur.len()));
            let Some(first) = p.first_live else { break };
            // The live region is the next row's band.
            pa = first - plo;
            plen = p.last_live - first + 1;
            plo = first;
            std::mem::swap(prev, cur);
            if cells > params.max_cells {
                break;
            }
            i += 1;
        }

        // Traceback from the best H cell.
        let (mut i, mut j) = (p.best_i, p.best_j);
        // 0 = H, 1 = E, 2 = F
        let mut state = 0u8;
        while !(i == 0 && j == 0 && state == 0) {
            let (row_lo, offset, len) = rows[i];
            debug_assert!(j >= row_lo && j - row_lo < len, "traceback out of band");
            let byte = tb[offset + (j - row_lo)];
            match state {
                0 => {
                    let src = byte & TB_H_MASK;
                    debug_assert_ne!(src, TB_H_DEAD, "traceback hit a dead cell");
                    if src == TB_H_START {
                        break;
                    }
                    let op = if scheme.is_match(t1.at(i - 1), t2.at(j - 1)) {
                        AlignOp::Match
                    } else {
                        AlignOp::Mismatch
                    };
                    ops.push(op);
                    i -= 1;
                    j -= 1;
                    state = match src {
                        TB_H_FROM_H => 0,
                        TB_H_FROM_E => 1,
                        _ => 2,
                    };
                }
                1 => {
                    ops.push(AlignOp::Del);
                    j -= 1;
                    state = if byte & TB_E_EXTEND != 0 { 1 } else { 0 };
                }
                _ => {
                    ops.push(AlignOp::Ins);
                    i -= 1;
                    state = if byte & TB_F_EXTEND != 0 { 2 } else { 0 };
                }
            }
        }
        (p.best, p.best_i, p.best_j)
    }
}

/// Extends rightward from `(o1, o2)`: the first aligned pair considered is
/// `d1[o1]` / `d2[o2]`.
pub fn extend_gapped_right(
    d1: &[u8],
    d2: &[u8],
    o1: usize,
    o2: usize,
    params: &GappedParams,
) -> GappedExtension {
    let mut ops = Vec::new();
    let (score, len1, len2) =
        GappedScratch::new().xdrop_dp::<true>(d1, d2, o1, o2, params, &mut ops);
    ops.reverse();
    GappedExtension {
        score,
        len1,
        len2,
        ops,
    }
}

/// Extends leftward from `(o1, o2)`: the first aligned pair considered is
/// `d1[o1]` / `d2[o2]`, walking toward lower positions. Ops come back in
/// left-to-right (original) order.
pub fn extend_gapped_left(
    d1: &[u8],
    d2: &[u8],
    o1: usize,
    o2: usize,
    params: &GappedParams,
) -> GappedExtension {
    let mut ops = Vec::new();
    let (score, len1, len2) =
        GappedScratch::new().xdrop_dp::<false>(d1, d2, o1, o2, params, &mut ops);
    GappedExtension {
        score,
        len1,
        len2,
        ops,
    }
}

/// Two-sided gapped extension around the midpoint pair `(m1, m2)` — the
/// step-3 operation. The right half starts at `(m1, m2)` inclusive; the
/// left half starts at `(m1-1, m2-1)`.
///
/// Returns the merged extension plus the global start coordinates
/// `(start1, start2)` of the alignment on each array.
pub fn extend_gapped_both(
    d1: &[u8],
    d2: &[u8],
    m1: usize,
    m2: usize,
    params: &GappedParams,
) -> (GappedExtension, usize, usize) {
    GappedScratch::new().extend_both(d1, d2, m1, m2, params)
}

/// The kernel the in-place DP replaced, kept as the reference the
/// equivalence tests compare against: it copies each tape (4 kB first,
/// 8× longer whenever the band reached a copied end) and tests the band
/// bounds per cell.
#[cfg(test)]
mod reference {
    use super::*;

    /// Copies the extension tape starting at `origin` in direction `dir`
    /// (`+1` right, `-1` left), stopping at a sentinel, the array bounds or
    /// `max_span` characters.
    fn materialize(d: &[u8], origin: usize, dir: i64, max_span: usize) -> Vec<u8> {
        let mut out = Vec::new();
        let mut pos = origin as i64;
        while out.len() < max_span && pos >= 0 && (pos as usize) < d.len() {
            let c = d[pos as usize];
            if c == SENTINEL {
                break;
            }
            out.push(c);
            pos += dir;
        }
        out
    }

    /// Forward X-drop DP over two sentinel-free tapes.
    ///
    /// Traceback bytes for all rows live in one contiguous pool (`tb_pool`)
    /// with per-row `(lo, offset, len)` descriptors, and the three working
    /// state vectors are double-buffered — the loop performs no per-row
    /// allocations, which matters because step 3 runs this DP once per
    /// surviving HSP.
    /// Returns the extension plus a `hit_end` flag: `true` when the live band
    /// reached the end of either tape, i.e. a longer tape *could* change the
    /// result (used by the adaptive-growth wrappers).
    pub(super) fn xdrop_dp(t1: &[u8], t2: &[u8], params: &GappedParams) -> (GappedExtension, bool) {
        let scheme = &params.scheme;
        let (open, ext) = (scheme.gap_open, scheme.gap_extend);
        let n1 = t1.len();
        let n2 = t2.len();

        let mut best = 0i32;
        let mut best_i = 0usize;
        let mut best_j = 0usize;

        // Previous row working band: columns [plo, plo + ph.len()).
        let mut plo = 0usize;
        let mut ph: Vec<i32> = vec![0];
        let mut pe: Vec<i32> = vec![NEG];
        let mut pf: Vec<i32> = vec![NEG];

        // Traceback storage: one pool, one (lo, offset, len) descriptor per row.
        let mut tb_pool: Vec<u8> = Vec::with_capacity(256);
        let mut tb_rows: Vec<(usize, usize, usize)> = Vec::with_capacity(64);

        // Row 0: origin cell plus the leading-gap E chain.
        {
            tb_pool.push(TB_H_START);
            let mut j = 1usize;
            while j <= n2 {
                let e_open = ph[j - 1] + open + ext;
                let e_ext = pe[j - 1] + ext;
                let (e, ebit) = if e_open >= e_ext {
                    (e_open, 0u8)
                } else {
                    (e_ext, TB_E_EXTEND)
                };
                if e < best - params.xdrop {
                    break;
                }
                ph.push(NEG);
                pe.push(e);
                pf.push(NEG);
                tb_pool.push(TB_H_DEAD | ebit);
                j += 1;
            }
            tb_rows.push((0, 0, tb_pool.len()));
        }

        let mut cells = ph.len();
        let mut hit_end = ph.len() == n2 + 1; // row-0 E chain reached the tape end
        let mut ran_all_rows = n1 == 0;
        // Double buffers for the current row.
        let mut h: Vec<i32> = Vec::with_capacity(ph.len() + 2);
        let mut e: Vec<i32> = Vec::with_capacity(ph.len() + 2);
        let mut f: Vec<i32> = Vec::with_capacity(ph.len() + 2);

        for i in 1..=n1 {
            let phi = plo + ph.len() - 1; // last column of previous band
            let lo = plo;
            let c1 = t1[i - 1];

            h.clear();
            e.clear();
            f.clear();
            let tb_offset = tb_pool.len();

            let mut first_live: Option<usize> = None;
            let mut last_live = 0usize;

            let prev = |j: usize| -> Option<usize> {
                if j >= plo && j <= phi {
                    Some(j - plo)
                } else {
                    None
                }
            };

            let mut j = lo;
            while j <= n2 {
                // H: diagonal move from (i-1, j-1).
                let (hv, hsrc) = if j >= 1 {
                    match prev(j - 1) {
                        Some(pi) => {
                            let (dv, dsrc) = {
                                let mut v = ph[pi];
                                let mut s = TB_H_FROM_H;
                                if pe[pi] > v {
                                    v = pe[pi];
                                    s = TB_H_FROM_E;
                                }
                                if pf[pi] > v {
                                    v = pf[pi];
                                    s = TB_H_FROM_F;
                                }
                                (v, s)
                            };
                            if dv <= NEG / 2 {
                                (NEG, TB_H_DEAD)
                            } else {
                                (dv + scheme.pair(c1, t2[j - 1]), dsrc)
                            }
                        }
                        None => (NEG, TB_H_DEAD),
                    }
                } else {
                    (NEG, TB_H_DEAD)
                };

                // F: vertical move from (i-1, j).
                let (fv, fbit) = match prev(j) {
                    Some(pi) => {
                        let f_open = ph[pi] + open + ext;
                        let f_ext = pf[pi] + ext;
                        if f_open >= f_ext {
                            (f_open, 0u8)
                        } else {
                            (f_ext, TB_F_EXTEND)
                        }
                    }
                    None => (NEG, 0u8),
                };

                // E: horizontal move from (i, j-1) in the current row.
                let (ev, ebit) = if j > lo && !h.is_empty() {
                    let cur = h.len() - 1;
                    let e_open = h[cur] + open + ext;
                    let e_ext = e[cur] + ext;
                    if e_open >= e_ext {
                        (e_open, 0u8)
                    } else {
                        (e_ext, TB_E_EXTEND)
                    }
                } else {
                    (NEG, 0u8)
                };

                let val = hv.max(ev).max(fv);
                let cutoff = best - params.xdrop;
                if val < cutoff {
                    // Dead cell.
                    if j > phi + 1 {
                        // Beyond the previous band only the E chain can live;
                        // once it dies the row is finished.
                        break;
                    }
                    h.push(NEG);
                    e.push(NEG);
                    f.push(NEG);
                    tb_pool.push(TB_H_DEAD);
                } else {
                    if first_live.is_none() {
                        first_live = Some(j);
                    }
                    last_live = j;
                    if hv > best {
                        best = hv;
                        best_i = i;
                        best_j = j;
                    }
                    h.push(hv);
                    e.push(ev);
                    f.push(fv);
                    tb_pool.push(hsrc | ebit | fbit);
                }
                j += 1;
            }

            cells += h.len();
            tb_rows.push((lo, tb_offset, tb_pool.len() - tb_offset));
            if last_live >= n2 && first_live.is_some() {
                hit_end = true; // band touched the last column
            }
            if i == n1 && first_live.is_some() {
                ran_all_rows = true; // band alive on the final row
            }

            let Some(fl) = first_live else { break };
            // Trim the working band to the live region for the next row.
            let a = fl - lo;
            let b = last_live - lo + 1;
            if a > 0 || b < h.len() {
                h.truncate(b);
                e.truncate(b);
                f.truncate(b);
                h.drain(..a);
                e.drain(..a);
                f.drain(..a);
            }
            plo = fl;
            std::mem::swap(&mut ph, &mut h);
            std::mem::swap(&mut pe, &mut e);
            std::mem::swap(&mut pf, &mut f);

            if cells > params.max_cells {
                break;
            }
        }

        // Traceback from the best H cell.
        let mut ops: Vec<AlignOp> = Vec::new();
        let (mut i, mut j) = (best_i, best_j);
        // 0 = H, 1 = E, 2 = F
        let mut state = 0u8;
        while !(i == 0 && j == 0 && state == 0) {
            let (row_lo, offset, len) = tb_rows[i];
            debug_assert!(j >= row_lo && j - row_lo < len, "traceback out of band");
            let byte = tb_pool[offset + (j - row_lo)];
            match state {
                0 => {
                    let src = byte & TB_H_MASK;
                    debug_assert_ne!(src, TB_H_DEAD, "traceback hit a dead cell");
                    if src == TB_H_START {
                        break;
                    }
                    let op = if scheme.is_match(t1[i - 1], t2[j - 1]) {
                        AlignOp::Match
                    } else {
                        AlignOp::Mismatch
                    };
                    ops.push(op);
                    i -= 1;
                    j -= 1;
                    state = match src {
                        TB_H_FROM_H => 0,
                        TB_H_FROM_E => 1,
                        _ => 2,
                    };
                }
                1 => {
                    ops.push(AlignOp::Del);
                    let from_ext = byte & TB_E_EXTEND != 0;
                    j -= 1;
                    state = if from_ext { 1 } else { 0 };
                }
                _ => {
                    ops.push(AlignOp::Ins);
                    let from_ext = byte & TB_F_EXTEND != 0;
                    i -= 1;
                    state = if from_ext { 2 } else { 0 };
                }
            }
        }
        ops.reverse();

        (
            GappedExtension {
                score: best,
                len1: best_i,
                len2: best_j,
                ops,
            },
            hit_end || ran_all_rows,
        )
    }

    /// Runs the DP with adaptively grown tapes: start at 4 kB and enlarge
    /// only when the live band actually reached a tape end. Alignments are
    /// typically a few hundred columns, so this avoids copying chromosome
    /// tails per extension while remaining exact for arbitrarily long ones.
    pub(super) fn xdrop_dp_adaptive(
        d1: &[u8],
        d2: &[u8],
        o1: usize,
        o2: usize,
        dir: i64,
        params: &GappedParams,
    ) -> GappedExtension {
        let mut cap = 4096usize;
        loop {
            let t1 = materialize(d1, o1, dir, cap.min(params.max_span));
            let t2 = materialize(d2, o2, dir, cap.min(params.max_span));
            let truncated = t1.len() == cap || t2.len() == cap;
            let (out, hit_end) = xdrop_dp(&t1, &t2, params);
            if !(hit_end && truncated) || cap >= params.max_span {
                return out;
            }
            cap *= 8;
        }
    }

    /// The two-sided extension on the reference kernel.
    pub(super) fn both(
        d1: &[u8],
        d2: &[u8],
        m1: usize,
        m2: usize,
        params: &GappedParams,
    ) -> (GappedExtension, usize, usize) {
        let right = xdrop_dp_adaptive(d1, d2, m1, m2, 1, params);
        let left = if m1 > 0 && m2 > 0 {
            let mut l = xdrop_dp_adaptive(d1, d2, m1 - 1, m2 - 1, -1, params);
            l.ops.reverse();
            l
        } else {
            GappedExtension::empty()
        };
        let mut ops = left.ops;
        ops.extend_from_slice(&right.ops);
        let merged = GappedExtension {
            score: left.score + right.score,
            len1: left.len1 + right.len1,
            len2: left.len2 + right.len2,
            ops,
        };
        (merged, m1 - left.len1, m2 - left.len2)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cigar::AlignStats;
    use crate::exact::gotoh_local;
    use oris_seqio::nuc_from_char;
    use proptest::prelude::*;

    fn codes(s: &str) -> Vec<u8> {
        s.bytes().map(nuc_from_char).collect()
    }

    fn params(xdrop: i32) -> GappedParams {
        GappedParams {
            scheme: ScoringScheme::blastn(),
            xdrop,
            max_span: 1 << 16,
            max_cells: 1 << 22,
        }
    }

    #[test]
    fn identical_sequences_extend_fully() {
        let a = codes("ACGTACGTAC");
        let out = extend_gapped_right(&a, &a, 0, 0, &params(20));
        assert_eq!(out.score, 10);
        assert_eq!(out.len1, 10);
        assert_eq!(out.len2, 10);
        assert_eq!(out.ops.len(), 10);
        assert!(out.ops.iter().all(|&o| o == AlignOp::Match));
    }

    #[test]
    fn empty_tapes_give_empty_extension() {
        let a = codes("");
        let b = codes("ACGT");
        let out = extend_gapped_right(&a, &b, 0, 0, &params(20));
        assert_eq!(out, GappedExtension::empty());
    }

    #[test]
    fn single_substitution_is_absorbed() {
        let a = codes("ACGTACGTACGT");
        let mut bv = a.clone();
        bv[5] ^= 1; // mutate one base
        let out = extend_gapped_right(&a, &bv, 0, 0, &params(20));
        assert_eq!(out.len1, 12);
        assert_eq!(out.score, 11 - 3);
        let stats = AlignStats::from_ops(&out.ops);
        assert_eq!(stats.mismatches, 1);
        assert_eq!(stats.matches, 11);
    }

    #[test]
    fn insertion_produces_gap_ops() {
        // d2 has 2 extra bases in the middle: alignment must contain one
        // gap of length 2 (Del ops: consuming d2 only).
        let a = codes("ACGTACGTACGTACGTCCGGAATT");
        let mut bv = a.clone();
        bv.splice(12..12, codes("TT"));
        let out = extend_gapped_right(&a, &bv, 0, 0, &params(30));
        assert_eq!(out.len1, a.len());
        assert_eq!(out.len2, bv.len());
        let stats = AlignStats::from_ops(&out.ops);
        assert_eq!(stats.gap_opens, 1);
        assert_eq!(stats.gap_columns, 2);
        // score: 24 matches + open + 2*extend = 24 - 5 - 4
        assert_eq!(out.score, 24 - 9);
    }

    #[test]
    fn xdrop_stops_in_mismatch_desert() {
        // Two mismatches (−6) separate two 12-match blocks. With xdrop 5
        // the extension dies inside the desert even though crossing it
        // would pay off (12 − 6 + 12 = 18 > 12).
        let a = codes(&format!("{}{}{}", "ACGTACGTACGT", "AA", "ACGTACGTACGT"));
        let b = codes(&format!("{}{}{}", "ACGTACGTACGT", "TT", "ACGTACGTACGT"));
        let out = extend_gapped_right(&a, &b, 0, 0, &params(5));
        assert_eq!(out.len1, 12);
        assert_eq!(out.score, 12);
    }

    #[test]
    fn big_xdrop_bridges_desert() {
        let a = codes(&format!("{}{}{}", "ACGTACGTACGT", "AA", "ACGTACGTACGT"));
        let b = codes(&format!("{}{}{}", "ACGTACGTACGT", "TT", "ACGTACGTACGT"));
        let out = extend_gapped_right(&a, &b, 0, 0, &params(40));
        assert_eq!(out.len1, 26);
        assert_eq!(out.score, 24 - 6);
    }

    #[test]
    fn extension_stops_at_sentinel() {
        let mut a = codes("ACGTAC");
        a.push(SENTINEL);
        a.extend(codes("GGGGGG"));
        let b = codes("ACGTACGGGGGG");
        let out = extend_gapped_right(&a, &b, 0, 0, &params(50));
        assert_eq!(out.len1, 6, "must not align across the sentinel");
    }

    #[test]
    fn left_extension_mirrors_right() {
        let a = codes("ACGTACGTAC");
        let out_r = extend_gapped_right(&a, &a, 0, 0, &params(20));
        let out_l = extend_gapped_left(&a, &a, a.len() - 1, a.len() - 1, &params(20));
        assert_eq!(out_r.score, out_l.score);
        assert_eq!(out_r.len1, out_l.len1);
    }

    #[test]
    fn both_extension_covers_whole_region() {
        let s = "ACGTACGTACGTGGCCACGT";
        let a = codes(s);
        let (merged, start1, start2) = extend_gapped_both(&a, &a, 10, 10, &params(20));
        assert_eq!(start1, 0);
        assert_eq!(start2, 0);
        assert_eq!(merged.len1, s.len());
        assert_eq!(merged.score, s.len() as i32);
    }

    #[test]
    fn ops_consume_correct_lengths() {
        let a = codes("ACGTACGTACGTACGTCCGGAATT");
        let mut bv = a.clone();
        bv.splice(10..10, codes("GG"));
        bv[3] ^= 2;
        let out = extend_gapped_right(&a, &bv, 0, 0, &params(30));
        let stats = AlignStats::from_ops(&out.ops);
        assert_eq!(stats.consumed1, out.len1);
        assert_eq!(stats.consumed2, out.len2);
    }

    proptest! {
        /// With a saturating xdrop, the two-sided extension through a
        /// planted exact core scores at least the Gotoh local optimum of
        /// the surrounding window (they coincide when the optimum passes
        /// through the core, which a long planted core guarantees).
        #[test]
        fn matches_gotoh_on_planted_homology(
            prefix in "[ACGT]{0,15}",
            suffix in "[ACGT]{0,15}",
            core in "[ACGT]{16,24}",
            noise1 in "[ACGT]{0,10}",
            noise2 in "[ACGT]{0,10}",
        ) {
            let s1 = format!("{noise1}{core}{prefix}");
            let s2 = format!("{noise2}{core}{suffix}");
            let d1 = codes(&s1);
            let d2 = codes(&s2);
            let m1 = noise1.len() + core.len() / 2;
            let m2 = noise2.len() + core.len() / 2;
            let p = GappedParams { scheme: ScoringScheme::blastn(), xdrop: 1000, max_span: 1 << 12, max_cells: 1 << 22 };
            let (merged, _, _) = extend_gapped_both(&d1, &d2, m1, m2, &p);
            let oracle = gotoh_local(&d1, &d2, &p.scheme);
            // The oracle is an upper bound; through-midpoint extension must
            // reach at least the core score.
            prop_assert!(merged.score <= oracle.score);
            prop_assert!(merged.score >= core.len() as i32);
        }

        /// Traceback op counts always agree with consumed lengths and the
        /// score recomputed from ops matches the DP score.
        #[test]
        fn traceback_is_self_consistent(s1 in "[ACGT]{1,40}", s2 in "[ACGT]{1,40}") {
            let d1 = codes(&s1);
            let d2 = codes(&s2);
            let p = params(15);
            let out = extend_gapped_right(&d1, &d2, 0, 0, &p);
            let stats = AlignStats::from_ops(&out.ops);
            prop_assert_eq!(stats.consumed1, out.len1);
            prop_assert_eq!(stats.consumed2, out.len2);
            prop_assert_eq!(stats.score(&p.scheme), out.score);
        }
    }

    /// SplitMix64 stream that builds test inputs from one seed.
    struct Mix(u64);

    impl Mix {
        fn below(&mut self, n: u64) -> u64 {
            self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            (z ^ (z >> 31)) % n
        }

        fn codes(&mut self, len: usize) -> Vec<u8> {
            (0..len).map(|_| self.below(4) as u8).collect()
        }
    }

    /// A random sequence of `len` bases and a copy carrying substitutions
    /// (`sub` per mille) and 1–3 base indels (`indel` per mille).
    fn homologous_pair(rng: &mut Mix, len: usize, sub: u64, indel: u64) -> (Vec<u8>, Vec<u8>) {
        let a = rng.codes(len);
        let mut b = Vec::with_capacity(len + len / 8);
        for &c in &a {
            let r = rng.below(1000);
            if r < indel / 2 {
                continue;
            }
            if r < indel {
                let ins = 1 + rng.below(3) as usize;
                b.extend(rng.codes(ins));
            }
            if rng.below(1000) < sub {
                b.push((c + 1 + rng.below(3) as u8) % 4);
            } else {
                b.push(c);
            }
        }
        (a, b)
    }

    /// An origin at the array start, next to either end, or inside.
    fn origin(rng: &mut Mix, kind: u8, len: usize) -> usize {
        match kind {
            0 => 0,
            1 => 1.min(len),
            2 => len.saturating_sub(1),
            3 => len,
            _ => rng.below(len as u64 + 1) as usize,
        }
    }

    #[test]
    fn extension_longer_than_4096_columns_matches_reference() {
        let mut rng = Mix(7);
        let (a, b) = homologous_pair(&mut rng, 6000, 10, 2);
        let p = GappedParams::default();
        for (m1, m2) in [(0, 0), (a.len(), b.len())] {
            let got = extend_gapped_both(&a, &b, m1, m2, &p);
            assert!(
                got.0.len1 > 4096 && got.0.len2 > 4096,
                "{m1}: {}",
                got.0.len1
            );
            assert_eq!(got, reference::both(&a, &b, m1, m2, &p));
        }
    }

    #[test]
    fn band_meeting_a_sentinel_at_4096_matches_reference() {
        let mut rng = Mix(11);
        let core = rng.codes(4096);
        let tail = rng.codes(300);
        let open: Vec<u8> = [&core[..], &tail[..]].concat();
        let mut closed = core.clone();
        closed.push(SENTINEL);
        closed.extend_from_slice(&tail);
        let p = GappedParams::default();
        // Rightward from 0 and leftward from the far end of a reversed
        // copy: both tapes of `closed` end at exactly 4096 characters.
        let rev = |v: &[u8]| v.iter().rev().copied().collect::<Vec<u8>>();
        let (ro, rc) = (rev(&open), rev(&closed));
        let cases: [(&[u8], &[u8], usize, usize); 4] = [
            (&closed, &open, 0, 0),
            (&open, &closed, 0, 0),
            (&rc, &ro, rc.len(), ro.len()),
            (&ro, &rc, ro.len(), rc.len()),
        ];
        for (d1, d2, m1, m2) in cases {
            let got = extend_gapped_both(d1, d2, m1, m2, &p);
            assert_eq!(got.0.len1, 4096);
            assert_eq!(got.0.score, 4096);
            assert_eq!(got, reference::both(d1, d2, m1, m2, &p));
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(1500))]

        /// The in-place kernel returns exactly the copying reference's
        /// extension on homologous pairs with substitutions, indels and
        /// sentinels inside the tapes, from origins at and next to the
        /// array ends, under small `max_span` and `max_cells` caps, and
        /// when its scratch already served another extension.
        #[test]
        fn in_place_kernel_matches_reference(
            seed in 0u64..u64::MAX,
            len in 0usize..400,
            sub in 0u64..150,
            indel in 0u64..60,
            sentinels in 0usize..4,
            xdrop in 5u32..60,
            caps in 0u8..4,
            kinds in 0u8..25,
            megablast in 0u8..2,
        ) {
            let mut rng = Mix(seed);
            let (mut d1, mut d2) = homologous_pair(&mut rng, len, sub, indel);
            for k in 0..sentinels {
                let d = if k % 2 == 0 { &mut d1 } else { &mut d2 };
                if !d.is_empty() {
                    let at = rng.below(d.len() as u64) as usize;
                    d[at] = SENTINEL;
                }
            }
            let p = GappedParams {
                scheme: if megablast == 1 { ScoringScheme::megablast() } else { ScoringScheme::blastn() },
                xdrop: xdrop as i32,
                max_span: if caps & 1 == 1 { 1 + rng.below(64) as usize } else { 1 << 16 },
                max_cells: if caps & 2 == 2 { 1 + rng.below(400) as usize } else { 1 << 22 },
            };
            let m1 = origin(&mut rng, kinds % 5, d1.len());
            let m2 = origin(&mut rng, kinds / 5, d2.len());
            let mut scratch = GappedScratch::new();
            let _ = scratch.extend_both(&d2, &d1, d2.len() / 2, d1.len() / 2, &p);
            let want = reference::both(&d1, &d2, m1, m2, &p);
            prop_assert_eq!(scratch.extend_both(&d1, &d2, m1, m2, &p), want.clone());
            prop_assert_eq!(extend_gapped_both(&d1, &d2, m1, m2, &p), want);
        }
    }
}
