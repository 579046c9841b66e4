//! Bit-set of masked global bank positions.

/// A set of masked positions over a bank's global coordinate space.
///
/// Backed by a plain `u64` bit vector: one bit per bank position
/// (including sentinels, which are simply never queried).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MaskSet {
    bits: Vec<u64>,
    len: usize,
    masked: usize,
}

impl MaskSet {
    /// An all-clear mask over `len` positions.
    pub fn new(len: usize) -> MaskSet {
        MaskSet {
            bits: vec![0u64; len.div_ceil(64)],
            len,
            masked: 0,
        }
    }

    /// Rebuilds a mask from its raw bit words (the persistence path).
    ///
    /// Validates the [`MaskSet::words`] invariants: exactly
    /// `len.div_ceil(64)` words, with every bit at or beyond `len` clear.
    /// The masked count is recomputed from the words. Returns `None` on
    /// violation instead of constructing a set whose word-cursor guard
    /// walks would read garbage.
    pub(crate) fn from_raw_words(bits: Vec<u64>, len: usize) -> Option<MaskSet> {
        if bits.len() != len.div_ceil(64) {
            return None;
        }
        if !len.is_multiple_of(64) {
            if let Some(last) = bits.last() {
                if last >> (len % 64) != 0 {
                    return None;
                }
            }
        }
        let masked = bits.iter().map(|w| w.count_ones() as usize).sum();
        Some(MaskSet { bits, len, masked })
    }

    /// Number of addressable positions.
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` if no positions are addressable.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Number of masked positions.
    pub fn masked_count(&self) -> usize {
        self.masked
    }

    /// Fraction of positions masked.
    pub fn masked_fraction(&self) -> f64 {
        if self.len == 0 {
            0.0
        } else {
            self.masked as f64 / self.len as f64
        }
    }

    /// Marks position `pos`.
    #[inline]
    pub fn set(&mut self, pos: usize) {
        debug_assert!(pos < self.len);
        let word = &mut self.bits[pos / 64];
        let bit = 1u64 << (pos % 64);
        if *word & bit == 0 {
            *word |= bit;
            self.masked += 1;
        }
    }

    /// Marks every position in `[start, end)`.
    pub fn set_range(&mut self, start: usize, end: usize) {
        for p in start..end.min(self.len) {
            self.set(p);
        }
    }

    /// Whether `pos` is masked.
    #[inline]
    pub fn contains(&self, pos: usize) -> bool {
        if pos >= self.len {
            return false;
        }
        self.bits[pos / 64] & (1u64 << (pos % 64)) != 0
    }

    /// Union with another mask of the same length.
    ///
    /// # Panics
    /// Panics if lengths differ.
    pub fn union(&mut self, other: &MaskSet) {
        assert_eq!(self.len, other.len, "mask length mismatch");
        let mut masked = 0usize;
        for (a, b) in self.bits.iter_mut().zip(&other.bits) {
            *a |= b;
            masked += a.count_ones() as usize;
        }
        self.masked = masked;
    }

    /// Returns a mask over *word start* positions: position `p` is set
    /// when any of the `w` positions `p .. p+w` is set in `self`.
    ///
    /// This is the masking semantics BLAST applies when building its
    /// lookup table — a W-mer is discarded if it *overlaps* a masked
    /// region, not merely if it starts inside one. Computed by dilating
    /// every masked interval `w − 1` positions to the left.
    pub fn dilated_left(&self, w: usize) -> MaskSet {
        assert!(w >= 1);
        let mut out = MaskSet::new(self.len);
        for (a, b) in self.intervals() {
            out.set_range(a.saturating_sub(w - 1), b);
        }
        out
    }

    /// The backing bit words: position `p` is bit `p % 64` of word
    /// `p / 64` (set = masked). The slice covers `len().div_ceil(64)`
    /// words; bits at or beyond `len()` are always clear. The index's
    /// persisted bit-set section is written from these words.
    #[inline]
    pub fn words(&self) -> &[u64] {
        &self.bits
    }

    /// Heap bytes used by the bit vector.
    pub fn heap_bytes(&self) -> usize {
        self.bits.len() * 8
    }

    /// Returns the maximal masked intervals as `(start, end)` pairs.
    pub fn intervals(&self) -> Vec<(usize, usize)> {
        let mut out = Vec::new();
        let mut start: Option<usize> = None;
        for p in 0..self.len {
            if self.contains(p) {
                if start.is_none() {
                    start = Some(p);
                }
            } else if let Some(s) = start.take() {
                out.push((s, p));
            }
        }
        if let Some(s) = start {
            out.push((s, self.len));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn set_and_contains() {
        let mut m = MaskSet::new(100);
        m.set(0);
        m.set(63);
        m.set(64);
        m.set(99);
        assert!(m.contains(0) && m.contains(63) && m.contains(64) && m.contains(99));
        assert!(!m.contains(1) && !m.contains(65));
        assert_eq!(m.masked_count(), 4);
    }

    #[test]
    fn double_set_counts_once() {
        let mut m = MaskSet::new(10);
        m.set(3);
        m.set(3);
        assert_eq!(m.masked_count(), 1);
    }

    #[test]
    fn set_range_clips_to_len() {
        let mut m = MaskSet::new(10);
        m.set_range(8, 20);
        assert_eq!(m.masked_count(), 2);
        assert!(m.contains(9));
        assert!(!m.contains(10));
    }

    #[test]
    fn out_of_range_contains_is_false() {
        let m = MaskSet::new(5);
        assert!(!m.contains(5));
        assert!(!m.contains(1000));
    }

    #[test]
    fn intervals_reconstruct_runs() {
        let mut m = MaskSet::new(20);
        m.set_range(2, 5);
        m.set_range(5, 8); // adjacent → merged implicitly
        m.set_range(15, 20);
        assert_eq!(m.intervals(), vec![(2, 8), (15, 20)]);
    }

    #[test]
    fn union_combines() {
        let mut a = MaskSet::new(10);
        a.set_range(0, 3);
        let mut b = MaskSet::new(10);
        b.set_range(2, 6);
        a.union(&b);
        assert_eq!(a.intervals(), vec![(0, 6)]);
        assert_eq!(a.masked_count(), 6);
    }

    #[test]
    fn dilated_left_covers_overlapping_words() {
        let mut m = MaskSet::new(30);
        m.set_range(10, 15);
        let d = m.dilated_left(4);
        assert_eq!(d.intervals(), vec![(7, 15)]);
        // word starting at 7 covers 7..11, overlapping the mask at 10
        assert!(d.contains(7));
        assert!(!d.contains(6));
    }

    #[test]
    fn dilated_left_clips_at_zero() {
        let mut m = MaskSet::new(10);
        m.set_range(1, 3);
        let d = m.dilated_left(5);
        assert_eq!(d.intervals(), vec![(0, 3)]);
    }

    #[test]
    fn dilation_by_one_is_identity() {
        let mut m = MaskSet::new(20);
        m.set_range(3, 7);
        m.set(12);
        assert_eq!(m.dilated_left(1), m);
    }

    #[test]
    fn words_agree_with_contains() {
        let mut m = MaskSet::new(200);
        for p in [0usize, 1, 63, 64, 65, 127, 128, 199] {
            m.set(p);
        }
        let words = m.words();
        assert_eq!(words.len(), 200usize.div_ceil(64));
        for p in 0..200 {
            let bit = words[p / 64] & (1u64 << (p % 64)) != 0;
            assert_eq!(bit, m.contains(p), "position {p}");
        }
        // bits beyond len are clear
        for w in &words[199 / 64 + 1..] {
            assert_eq!(*w, 0);
        }
    }

    #[test]
    fn fraction() {
        let mut m = MaskSet::new(10);
        m.set_range(0, 5);
        assert!((m.masked_fraction() - 0.5).abs() < 1e-12);
    }
}
