use crate::array::validate_width;
use crate::{CamError, CamStats, CamTechnology, Result, SearchKey, TagVector};

/// The tag register of the word-parallel CAM model: one bit per row, packed 64
/// rows per `u64` word (row `r` lives in bit `r % 64` of word `r / 64`).
///
/// [`BitPlaneArray::search`] produces a `PackedTags` and
/// [`BitPlaneArray::write_tagged`] consumes one, so a whole search/write pass
/// touches every row with a handful of word operations instead of a per-row
/// loop. Bits beyond the row count are always zero.
///
/// # Example
///
/// ```
/// use cam::{PackedTags, TagVector};
///
/// let tags = PackedTags::from_tag_vector(&TagVector::from_bits(vec![true, false, true]));
/// assert_eq!(tags.count(), 2);
/// assert!(tags.is_set(0) && !tags.is_set(1) && tags.is_set(2));
/// assert_eq!(tags.to_tag_vector().as_bits(), &[true, false, true]);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PackedTags {
    words: Vec<u64>,
    rows: usize,
}

/// Number of rows packed into one tag word.
const WORD_BITS: usize = 64;

/// FNV-1a 64-bit offset basis (digest idiom shared with the compile cache's
/// layer signatures and the execution-trace recorder).
const FNV_OFFSET_BASIS: u64 = 0xcbf2_9ce4_8422_2325;

/// FNV-1a 64-bit prime.
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

fn words_for(rows: usize) -> usize {
    rows.div_ceil(WORD_BITS).max(1)
}

/// Bit `bit` of each of the eight bytes of `bytes`, gathered into the low
/// eight bits (byte `j`'s bit lands at bit `j`). The multiplier moves byte
/// `j`'s bit to position `56 + j` and every other product term to a distinct
/// position outside the top byte, so no carry reaches it.
fn gather_byte_bits(bytes: u64, bit: usize) -> u64 {
    ((bytes >> bit) & 0x0101_0101_0101_0101).wrapping_mul(0x0102_0408_1020_4080) >> 56
}

/// Set bits of packed `words` within the row range `start..end` (the caller
/// guarantees the range lies inside the packed words).
fn count_mask_range(words: &[u64], start: usize, end: usize) -> u64 {
    if start >= end {
        return 0;
    }
    let (first, last) = (start / WORD_BITS, (end - 1) / WORD_BITS);
    (first..=last)
        .map(|word| {
            let mut bits = words[word];
            if word == first {
                bits &= u64::MAX << (start % WORD_BITS);
            }
            if word == last && !end.is_multiple_of(WORD_BITS) {
                bits &= (1u64 << (end % WORD_BITS)) - 1;
            }
            u64::from(bits.count_ones())
        })
        .sum()
}

/// Mask of the valid bits of the last word covering `rows` rows.
fn last_word_mask(rows: usize) -> u64 {
    match rows % WORD_BITS {
        0 if rows > 0 => u64::MAX,
        0 => 0,
        partial => (1u64 << partial) - 1,
    }
}

impl PackedTags {
    /// Creates a register of `rows` cleared tags.
    pub fn new(rows: usize) -> Self {
        PackedTags {
            words: vec![0; words_for(rows)],
            rows,
        }
    }

    /// Creates a register with all `rows` tags set.
    pub fn all_set(rows: usize) -> Self {
        let mut words = vec![u64::MAX; words_for(rows)];
        if let Some(last) = words.last_mut() {
            *last = last_word_mask(rows);
        }
        PackedTags { words, rows }
    }

    /// Packs a per-row [`TagVector`].
    pub fn from_tag_vector(tags: &TagVector) -> Self {
        let mut packed = PackedTags::new(tags.len());
        for row in tags.iter_set() {
            packed.words[row / WORD_BITS] |= 1u64 << (row % WORD_BITS);
        }
        packed
    }

    /// Unpacks into a per-row [`TagVector`].
    pub fn to_tag_vector(&self) -> TagVector {
        (0..self.rows).map(|row| self.is_set(row)).collect()
    }

    /// Number of rows covered by the register.
    pub fn len(&self) -> usize {
        self.rows
    }

    /// Returns `true` when the register covers zero rows.
    pub fn is_empty(&self) -> bool {
        self.rows == 0
    }

    /// Number of tagged (matching) rows.
    pub fn count(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Number of tagged rows within `start..end` (clamped to the register).
    pub fn count_range(&self, start: usize, end: usize) -> usize {
        let end = end.min(self.rows);
        if start >= end {
            return 0;
        }
        let (first, last) = (start / WORD_BITS, (end - 1) / WORD_BITS);
        (first..=last)
            .map(|word| {
                let mut bits = self.words[word];
                if word == first {
                    bits &= u64::MAX << (start % WORD_BITS);
                }
                if word == last && !end.is_multiple_of(WORD_BITS) {
                    bits &= (1u64 << (end % WORD_BITS)) - 1;
                }
                bits.count_ones() as usize
            })
            .sum()
    }

    /// Whether row `row` is tagged. Rows outside the register are untagged.
    pub fn is_set(&self, row: usize) -> bool {
        row < self.rows && self.words[row / WORD_BITS] & (1u64 << (row % WORD_BITS)) != 0
    }

    /// Borrowed view of the packed words (64 rows per word, LSB = lowest row).
    pub fn as_words(&self) -> &[u64] {
        &self.words
    }
}

/// Raw word-level view of every bit-plane, for compiled pass-plan kernels.
///
/// A plan compiler (see `ap`'s `PassPlan`) pre-resolves each (column, domain)
/// pair to an absolute plane base index via [`BitPlaneArray::plane_base`]; the
/// monomorphized kernels then read and write whole planes through this view
/// with zero per-pass address arithmetic or bounds branching beyond the word
/// loop. The view carries no event accounting — callers book the identical
/// [`CamStats`] charges separately through [`BitPlaneArray::bulk_align`],
/// [`BitPlaneArray::bulk_pass_events`] and
/// [`BitPlaneArray::bulk_tagged_bits`].
#[derive(Debug)]
pub struct PlaneAccess<'a> {
    planes: &'a mut [u64],
    words: usize,
    last_mask: u64,
}

impl PlaneAccess<'_> {
    /// Number of packed words per bit-plane.
    #[inline]
    pub fn words(&self) -> usize {
        self.words
    }

    /// Mask of the valid (in-range) rows of word `word` of any plane.
    #[inline]
    pub fn valid_mask(&self, word: usize) -> u64 {
        if word + 1 == self.words {
            self.last_mask
        } else {
            u64::MAX
        }
    }

    /// Reads word `word` of the plane starting at `base`.
    #[inline]
    pub fn word(&self, base: usize, word: usize) -> u64 {
        self.planes[base + word]
    }

    /// Overwrites word `word` of the plane starting at `base`.
    #[inline]
    pub fn set_word(&mut self, base: usize, word: usize, value: u64) {
        self.planes[base + word] = value;
    }
}

/// A word-parallel CAM array storing each (column, domain) bit of all rows as a
/// packed `u64` bit-plane.
///
/// `BitPlaneArray` is the vectorised counterpart of [`CamArray`](crate::CamArray):
/// it models the same `rows × cols` array of `domains`-bit racetrack cells and
/// exposes the same primitives with the same event accounting ([`CamStats`],
/// including the lockstep shift counts of the per-column domain-wall clusters),
/// but a masked search or parallel write runs as a few bitwise operations over
/// `ceil(rows / 64)` words instead of a per-row, per-cell loop. The scalar
/// [`CamArray`](crate::CamArray) remains the structural ground truth (it models
/// individual nanowires, per-domain write counts and endurance); this array is
/// the execution substrate of the fast functional simulation path and is pinned
/// bit-identical to the scalar model by the `engine_equivalence` test suite.
///
/// # Example
///
/// ```
/// use cam::{BitPlaneArray, CamTechnology, SearchKey};
///
/// # fn main() -> Result<(), cam::CamError> {
/// let mut array = BitPlaneArray::new(100, 4, 16, CamTechnology::default())?;
/// array.write_value(0, 2, 0, 4, 5)?;
/// assert_eq!(array.read_value(0, 2, 0, 4, false)?, 5);
/// array.align_column(0, 0)?;
/// let tags = array.search(&SearchKey::new().with(0, true))?;
/// assert!(tags.is_set(2));
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct BitPlaneArray {
    /// Bit-planes, indexed `[(col * domains + domain) * words + word]`.
    planes: Vec<u64>,
    /// Domain currently aligned with the access ports, per column.
    positions: Vec<usize>,
    rows: usize,
    cols: usize,
    domains: usize,
    words: usize,
    tech: CamTechnology,
    stats: CamStats,
    tracker: Option<SegmentTracker>,
    /// Per-pass tagged-row populations, recorded when tracing is enabled
    /// (see [`enable_pass_log`](Self::enable_pass_log)); `None` keeps the
    /// hot paths free of bookkeeping.
    pass_log: Option<Vec<u64>>,
}

/// Per-segment "as-if-solo" event attribution (see
/// [`BitPlaneArray::track_segments`]).
///
/// Each segment carries its own [`CamStats`] and a *shadow* port-position
/// vector that starts from the fresh (all-zero) state a standalone array would
/// have. Column-global operations (aligns, searches, tagged writes) charge
/// every segment as if it were the whole array; row-addressed I/O charges only
/// the segment owning the row, with shift distances taken from the segment's
/// shadow positions. Because the align sequence of a program is
/// data-independent and row results never cross rows, the per-segment counters
/// are *exactly* the counters a solo run of that segment's rows on a
/// segment-sized array would produce — the invariant the batch-equivalence
/// suite pins.
#[derive(Debug, Clone)]
struct SegmentTracker {
    segment_rows: usize,
    /// Charges every segment pays identically (column-global aligns,
    /// searches, cycle counts) — folded into each segment's total lazily, so
    /// the hot passes update one counter set instead of one per segment.
    shared: CamStats,
    /// Segment-specific charges: data-dependent tagged-write bits and
    /// row-addressed I/O.
    individual: Vec<CamStats>,
    shadow: ShadowPositions,
}

/// Per-segment shadow port positions. Column-global operations move every
/// segment's shadow identically, so the common case is one shared vector;
/// the first row-addressed align diverges it into per-segment copies.
#[derive(Debug, Clone)]
enum ShadowPositions {
    Shared(Vec<usize>),
    Diverged(Vec<Vec<usize>>),
}

impl SegmentTracker {
    fn diverged(&mut self) -> &mut Vec<Vec<usize>> {
        if let ShadowPositions::Shared(shared) = &self.shadow {
            self.shadow = ShadowPositions::Diverged(vec![shared.clone(); self.individual.len()]);
        }
        match &mut self.shadow {
            ShadowPositions::Diverged(per_segment) => per_segment,
            ShadowPositions::Shared(_) => unreachable!("shadow was just diverged"),
        }
    }
}

/// Minimal circular distance between two domains on a `domains`-deep track.
fn circular_distance(from: usize, to: usize, domains: usize) -> u64 {
    let folded = from.abs_diff(to) % domains;
    folded.min(domains - folded) as u64
}

impl BitPlaneArray {
    /// Creates an array of `rows × cols` cells, each `domains_per_cell` bits deep,
    /// using the timing/energy model `tech`.
    ///
    /// # Errors
    ///
    /// Returns [`CamError::EmptyGeometry`] if any dimension is zero.
    pub fn new(
        rows: usize,
        cols: usize,
        domains_per_cell: usize,
        tech: CamTechnology,
    ) -> Result<Self> {
        if rows == 0 {
            return Err(CamError::EmptyGeometry {
                what: "number of rows",
            });
        }
        if cols == 0 {
            return Err(CamError::EmptyGeometry {
                what: "number of columns",
            });
        }
        if domains_per_cell == 0 {
            return Err(CamError::EmptyGeometry {
                what: "domains per cell",
            });
        }
        let words = words_for(rows);
        Ok(BitPlaneArray {
            planes: vec![0; cols * domains_per_cell * words],
            positions: vec![0; cols],
            rows,
            cols,
            domains: domains_per_cell,
            words,
            tech,
            stats: CamStats::new(),
            tracker: None,
            pass_log: None,
        })
    }

    /// Splits the array into consecutive `segment_rows`-row segments and
    /// starts attributing events to them "as-if-solo": every segment's
    /// [`CamStats`] accumulate exactly what a standalone `segment_rows`-row
    /// array replaying this segment's slice of the operation stream would
    /// record. Column-global operations (aligns, searches, tagged writes)
    /// charge each segment a full cycle plus its row share of the touched
    /// bits; row-addressed I/O charges only the owning segment, with shift
    /// distances taken from a per-segment shadow of the port positions that
    /// starts from the fresh state.
    ///
    /// This is the accounting substrate of batched execution: B samples
    /// packed as B segments share one physical search/write sweep (the
    /// aggregate [`stats`](Self::stats) show the amortization) while each
    /// sample's attributed cost stays bit-identical to a solo run.
    ///
    /// Calling this again resets the per-segment counters and shadows.
    ///
    /// # Errors
    ///
    /// Returns [`CamError::SegmentMismatch`] unless `segment_rows` is
    /// non-zero and evenly divides the row count.
    pub fn track_segments(&mut self, segment_rows: usize) -> Result<()> {
        if segment_rows == 0 || !self.rows.is_multiple_of(segment_rows) {
            return Err(CamError::SegmentMismatch {
                rows: self.rows,
                segment_rows,
            });
        }
        let count = self.rows / segment_rows;
        self.tracker = Some(SegmentTracker {
            segment_rows,
            shared: CamStats::new(),
            individual: vec![CamStats::new(); count],
            shadow: ShadowPositions::Shared(vec![0; self.cols]),
        });
        Ok(())
    }

    /// The per-segment counters, in segment order (empty when
    /// [`track_segments`](Self::track_segments) was never called).
    pub fn segment_stats(&self) -> Vec<CamStats> {
        self.tracker.as_ref().map_or_else(Vec::new, |tracker| {
            tracker
                .individual
                .iter()
                .map(|stats| tracker.shared + *stats)
                .collect()
        })
    }

    /// Rows per tracked segment, if segment tracking is enabled.
    pub fn segment_rows(&self) -> Option<usize> {
        self.tracker.as_ref().map(|t| t.segment_rows)
    }

    /// Number of rows (SIMD lanes).
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns (operand slots).
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Number of domains (storable bits) per cell.
    pub fn domains(&self) -> usize {
        self.domains
    }

    /// The technology model in use.
    pub fn technology(&self) -> &CamTechnology {
        &self.tech
    }

    /// Event counters accumulated so far.
    pub fn stats(&self) -> CamStats {
        self.stats
    }

    /// Resets the event counters (including any per-segment counters) without
    /// touching stored data or the shadow positions.
    pub fn reset_stats(&mut self) {
        self.stats = CamStats::new();
        if let Some(tracker) = self.tracker.as_mut() {
            tracker.shared = CamStats::new();
            tracker.individual.fill(CamStats::new());
        }
    }

    /// Returns the counters and resets them.
    pub fn take_stats(&mut self) -> CamStats {
        let stats = self.stats;
        self.reset_stats();
        stats
    }

    fn check_col(&self, col: usize) -> Result<()> {
        if col >= self.cols {
            return Err(CamError::ColumnOutOfRange {
                col,
                cols: self.cols,
            });
        }
        Ok(())
    }

    fn check_row(&self, row: usize) -> Result<()> {
        if row >= self.rows {
            return Err(CamError::RowOutOfRange {
                row,
                rows: self.rows,
            });
        }
        Ok(())
    }

    fn check_domain(&self, domain: usize) -> Result<()> {
        if domain >= self.domains {
            return Err(CamError::DomainOutOfRange {
                domain,
                domains: self.domains,
            });
        }
        Ok(())
    }

    fn plane_index(&self, col: usize, domain: usize) -> usize {
        (col * self.domains + domain) * self.words
    }

    fn plane(&self, col: usize, domain: usize) -> &[u64] {
        let start = self.plane_index(col, domain);
        &self.planes[start..start + self.words]
    }

    fn plane_mut(&mut self, col: usize, domain: usize) -> &mut [u64] {
        let start = self.plane_index(col, domain);
        &mut self.planes[start..start + self.words]
    }

    /// Lockstep shift distance of the column's domain-wall cluster, mirroring the
    /// single-port nanowire model: the minimal circular distance along the track.
    fn shift_distance(&self, col: usize, domain: usize) -> u64 {
        circular_distance(self.positions[col], domain, self.domains)
    }

    /// Aligns `col` so that bit position `domain` sits under the access ports,
    /// recording the lockstep shift cost. With segment tracking enabled the
    /// align is column-global, so every segment's shadow pays its own solo
    /// distance.
    ///
    /// # Errors
    ///
    /// Returns an error when `col` or `domain` is out of range.
    pub fn align_column(&mut self, col: usize, domain: usize) -> Result<()> {
        self.check_col(col)?;
        self.check_domain(domain)?;
        self.stats.shifts += self.shift_distance(col, domain);
        self.positions[col] = domain;
        if let Some(tracker) = self.tracker.as_mut() {
            match &mut tracker.shadow {
                ShadowPositions::Shared(shadow) => {
                    tracker.shared.shifts += circular_distance(shadow[col], domain, self.domains);
                    shadow[col] = domain;
                }
                ShadowPositions::Diverged(per_segment) => {
                    for (stats, shadow) in tracker.individual.iter_mut().zip(per_segment) {
                        stats.shifts += circular_distance(shadow[col], domain, self.domains);
                        shadow[col] = domain;
                    }
                }
            }
        }
        Ok(())
    }

    /// Physically aligns `col` for a row-addressed access of `row`, charging
    /// the shadow shift only to the segment owning the row.
    fn align_for_row(&mut self, col: usize, domain: usize, row: usize) {
        self.stats.shifts += self.shift_distance(col, domain);
        self.positions[col] = domain;
        let domains = self.domains;
        if let Some(tracker) = self.tracker.as_mut() {
            let segment = row / tracker.segment_rows;
            let shadow = &mut tracker.diverged()[segment];
            let distance = circular_distance(shadow[col], domain, domains);
            shadow[col] = domain;
            tracker.individual[segment].shifts += distance;
        }
    }

    /// Charges `add` to the segment owning `row`, if tracking is enabled.
    fn charge_row(&mut self, row: usize, add: impl Fn(&mut CamStats)) {
        if let Some(tracker) = self.tracker.as_mut() {
            add(&mut tracker.individual[row / tracker.segment_rows]);
        }
    }

    /// Domain currently aligned for `col`.
    ///
    /// # Errors
    ///
    /// Returns [`CamError::ColumnOutOfRange`] for an invalid column.
    pub fn column_position(&self, col: usize) -> Result<usize> {
        self.check_col(col)?;
        Ok(self.positions[col])
    }

    /// Performs one parallel masked search against the *currently aligned* bit of
    /// each keyed column and returns the packed tag vector of matching rows.
    ///
    /// # Errors
    ///
    /// Returns [`CamError::ColumnOutOfRange`] if the key references a column outside
    /// the array.
    pub fn search(&mut self, key: &SearchKey) -> Result<PackedTags> {
        if let Some(max) = key.max_column() {
            self.check_col(max)?;
        }
        let mut tags = PackedTags::all_set(self.rows);
        for (col, expected) in key.iter() {
            let plane = self.plane(col, self.positions[col]);
            if expected {
                for (tag, &word) in tags.words.iter_mut().zip(plane) {
                    *tag &= word;
                }
            } else {
                for (tag, &word) in tags.words.iter_mut().zip(plane) {
                    *tag &= !word;
                }
            }
        }
        // Rows beyond the array are masked off by the all_set construction and can
        // only be cleared further, so no re-masking is needed.
        self.stats.search_cycles += 1;
        self.stats.searched_bits += (key.len() * self.rows) as u64;
        if let Some(tracker) = self.tracker.as_mut() {
            // Every segment sees the same cycle and the same key-bit × rows
            // product, so the whole search is a shared charge.
            tracker.shared.search_cycles += 1;
            tracker.shared.searched_bits += (key.len() * tracker.segment_rows) as u64;
        }
        Ok(tags)
    }

    /// Writes the bit pattern `pattern` into the currently aligned domain of each
    /// listed column, but only in the rows tagged in `tags`.
    ///
    /// # Errors
    ///
    /// Returns [`CamError::TagLengthMismatch`] if the tag vector does not cover every
    /// row, or [`CamError::ColumnOutOfRange`] for an invalid column.
    pub fn write_tagged(&mut self, tags: &PackedTags, pattern: &SearchKey) -> Result<()> {
        if tags.len() != self.rows {
            return Err(CamError::TagLengthMismatch {
                expected: self.rows,
                found: tags.len(),
            });
        }
        if let Some(max) = pattern.max_column() {
            self.check_col(max)?;
        }
        for (col, bit) in pattern.iter() {
            let position = self.positions[col];
            let plane = self.plane_mut(col, position);
            if bit {
                for (word, &tag) in plane.iter_mut().zip(&tags.words) {
                    *word |= tag;
                }
            } else {
                for (word, &tag) in plane.iter_mut().zip(&tags.words) {
                    *word &= !tag;
                }
            }
        }
        self.stats.write_cycles += 1;
        self.stats.written_bits += (pattern.len() * tags.count()) as u64;
        if let Some(tracker) = self.tracker.as_mut() {
            tracker.shared.write_cycles += 1;
        }
        if let Some(log) = self.pass_log.as_mut() {
            log.push(tags.count() as u64);
        }
        self.split_tagged_bits(tags.as_words(), pattern.len() as u64);
        Ok(())
    }

    /// Per-segment split of one tagged write's data-dependent bit count: the
    /// written bits are pattern bits × the tagged rows of each segment, so
    /// they are the one per-segment charge of a write pass. `mask` is packed
    /// like [`PackedTags::as_words`].
    fn split_tagged_bits(&mut self, mask: &[u64], pattern_bits: u64) {
        let Some(tracker) = self.tracker.as_mut() else {
            return;
        };
        let segment_rows = tracker.segment_rows;
        if segment_rows.is_multiple_of(WORD_BITS) {
            let words_per_segment = segment_rows / WORD_BITS;
            for (stats, chunk) in tracker
                .individual
                .iter_mut()
                .zip(mask.chunks(words_per_segment))
            {
                let count: u64 = chunk.iter().map(|w| u64::from(w.count_ones())).sum();
                stats.written_bits += pattern_bits * count;
            }
        } else if WORD_BITS.is_multiple_of(segment_rows) {
            let per_word = WORD_BITS / segment_rows;
            let lane_mask = (1u64 << segment_rows) - 1;
            for (word_index, &word) in mask.iter().enumerate() {
                let mut word = word;
                for lane in 0..per_word {
                    let segment = word_index * per_word + lane;
                    let Some(stats) = tracker.individual.get_mut(segment) else {
                        break;
                    };
                    stats.written_bits += pattern_bits * u64::from((word & lane_mask).count_ones());
                    word >>= segment_rows;
                }
            }
        } else {
            for (segment, stats) in tracker.individual.iter_mut().enumerate() {
                let start = segment * segment_rows;
                stats.written_bits +=
                    pattern_bits * count_mask_range(mask, start, start + segment_rows);
            }
        }
    }

    /// Packed words per plane for an array of `rows` rows — the plane stride
    /// behind [`plane_base`](Self::plane_base), exposed so plan compilers can
    /// resolve absolute plane addresses without an array instance.
    pub fn words_for_rows(rows: usize) -> usize {
        words_for(rows)
    }

    /// Base index of the bit-plane of (`col`, `domain`) inside
    /// [`plane_access`](Self::plane_access): the plane occupies
    /// `base..base + words` of the word view.
    ///
    /// # Errors
    ///
    /// Returns an error when `col` or `domain` is out of range.
    pub fn plane_base(&self, col: usize, domain: usize) -> Result<usize> {
        self.check_col(col)?;
        self.check_domain(domain)?;
        Ok(self.plane_index(col, domain))
    }

    /// Word-level view of all bit-planes for compiled kernels. Mutating
    /// through the view performs no event accounting; pair it with
    /// [`bulk_align`](Self::bulk_align),
    /// [`bulk_pass_events`](Self::bulk_pass_events) and
    /// [`bulk_tagged_bits`](Self::bulk_tagged_bits).
    pub fn plane_access(&mut self) -> PlaneAccess<'_> {
        PlaneAccess {
            planes: &mut self.planes,
            words: self.words,
            last_mask: last_word_mask(self.rows),
        }
    }

    /// Closed-form equivalent of a column's whole-program align subsequence:
    /// one charge of `distance(current, first) + intra` lockstep shifts that
    /// leaves the port at `last`. Produces exactly the counters and shadow
    /// positions that replaying the summarized
    /// [`align_column`](Self::align_column) calls one by one would — the
    /// align sequence of a program is data-independent, so a plan compiler
    /// can fold each column's walk into `(first, intra, last)` at lowering
    /// time.
    ///
    /// # Errors
    ///
    /// Returns an error when `col`, `first` or `last` is out of range.
    pub fn bulk_align(&mut self, col: usize, first: usize, intra: u64, last: usize) -> Result<()> {
        self.check_col(col)?;
        self.check_domain(first)?;
        self.check_domain(last)?;
        self.stats.shifts += self.shift_distance(col, first) + intra;
        self.positions[col] = last;
        let domains = self.domains;
        if let Some(tracker) = self.tracker.as_mut() {
            match &mut tracker.shadow {
                ShadowPositions::Shared(shadow) => {
                    tracker.shared.shifts += circular_distance(shadow[col], first, domains) + intra;
                    shadow[col] = last;
                }
                ShadowPositions::Diverged(per_segment) => {
                    for (stats, shadow) in tracker.individual.iter_mut().zip(per_segment) {
                        stats.shifts += circular_distance(shadow[col], first, domains) + intra;
                        shadow[col] = last;
                    }
                }
            }
        }
        Ok(())
    }

    /// Books the data-independent counters of a compiled pass sequence in one
    /// call: `search_cycles` searches totalling `key_bits` key bits per row,
    /// and `write_cycles` writes of which the all-rows-tagged ones (clears,
    /// carry resets) write `allset_pattern_bits` pattern bits per row.
    /// Identical to summing the per-pass accounting of
    /// [`search`](Self::search) / [`write_tagged`](Self::write_tagged) over the
    /// sequence; the data-dependent tagged-write bits are booked separately
    /// through [`bulk_tagged_bits`](Self::bulk_tagged_bits).
    pub fn bulk_pass_events(
        &mut self,
        search_cycles: u64,
        key_bits: u64,
        write_cycles: u64,
        allset_pattern_bits: u64,
    ) {
        self.stats.search_cycles += search_cycles;
        self.stats.searched_bits += key_bits * self.rows as u64;
        self.stats.write_cycles += write_cycles;
        self.stats.written_bits += allset_pattern_bits * self.rows as u64;
        if let Some(tracker) = self.tracker.as_mut() {
            let segment_rows = tracker.segment_rows as u64;
            tracker.shared.search_cycles += search_cycles;
            tracker.shared.searched_bits += key_bits * segment_rows;
            tracker.shared.write_cycles += write_cycles;
            // Every segment's all-set write charge is its full row count, so
            // the charge is segment-uniform and can live in the shared
            // counters: segment_stats() folds shared + individual.
            tracker.shared.written_bits += allset_pattern_bits * segment_rows;
        }
    }

    /// Books the data-dependent written bits of one tagged write whose
    /// matching rows are `mask` (packed like [`PackedTags::as_words`], rows
    /// beyond the array zero): the global counter pays `pattern_bits ×
    /// popcount(mask)` and each tracked segment its own rows' share — exactly
    /// the accounting of [`write_tagged`](Self::write_tagged).
    pub fn bulk_tagged_bits(&mut self, mask: &[u64], pattern_bits: u64) {
        let count: u64 = mask.iter().map(|w| u64::from(w.count_ones())).sum();
        self.stats.written_bits += pattern_bits * count;
        if let Some(log) = self.pass_log.as_mut() {
            log.push(count);
        }
        self.split_tagged_bits(mask, pattern_bits);
    }

    /// Starts (or restarts) recording the tagged-row population of every
    /// write pass into an in-order log: [`write_tagged`](Self::write_tagged)
    /// appends its tag count, [`bulk_tagged_bits`](Self::bulk_tagged_bits)
    /// the popcount of its mask, and compiled-plan clears report through
    /// [`log_allset_writes`](Self::log_allset_writes). The interpreter and
    /// the plan engine produce the identical sequence for the same program —
    /// the substrate of the execution-trace recorder. Disabled by default;
    /// any previously recorded entries are discarded.
    pub fn enable_pass_log(&mut self) {
        self.pass_log = Some(Vec::new());
    }

    /// Stops recording pass populations and discards any pending entries.
    pub fn disable_pass_log(&mut self) {
        self.pass_log = None;
    }

    /// Whether pass-population logging is currently enabled.
    pub fn pass_log_enabled(&self) -> bool {
        self.pass_log.is_some()
    }

    /// Drains and returns the pass populations recorded since the last call
    /// (empty when logging is disabled). Logging stays enabled.
    pub fn take_pass_log(&mut self) -> Vec<u64> {
        match self.pass_log.as_mut() {
            Some(log) => std::mem::take(log),
            None => Vec::new(),
        }
    }

    /// Records `planes` all-rows-tagged write passes (one per cleared plane)
    /// in the pass log. Compiled plans clear planes with raw word stores and
    /// book their cost through [`bulk_pass_events`](Self::bulk_pass_events),
    /// so they call this to mirror the interpreter's per-plane all-set
    /// [`write_tagged`](Self::write_tagged) entries. No-op when logging is
    /// disabled; charges no counters.
    pub fn log_allset_writes(&mut self, planes: u64) {
        if let Some(log) = self.pass_log.as_mut() {
            log.extend(std::iter::repeat_n(self.rows as u64, planes as usize));
        }
    }

    /// FNV-1a 64 digest of the stored bits of `col` over domains
    /// `base..base + width`, independent of the column's current port
    /// position. Rows beyond the array are masked out, so arrays of the same
    /// logical geometry digest identically regardless of word padding. Reads
    /// no ports and charges no counters — this is the trace recorder's view
    /// of a written column, not a modeled CAM operation.
    ///
    /// # Errors
    ///
    /// Returns an error when the column or domain range is out of bounds.
    pub fn column_digest(&self, col: usize, base: usize, width: u8) -> Result<u64> {
        self.check_col(col)?;
        if width > 0 {
            self.check_domain(base + width as usize - 1)?;
        }
        let valid = last_word_mask(self.rows);
        let mut digest = FNV_OFFSET_BASIS;
        for domain in base..base + width as usize {
            let plane = self.plane(col, domain);
            for (w, &word) in plane.iter().enumerate() {
                let masked = if w + 1 == plane.len() {
                    word & valid
                } else {
                    word
                };
                for byte in masked.to_le_bytes() {
                    digest ^= u64::from(byte);
                    digest = digest.wrapping_mul(FNV_PRIME);
                }
            }
        }
        Ok(digest)
    }

    /// Flips the stored bit at (`col`, `domain`, `row`) in place — a fault
    /// injection hook for differential and trace-divergence testing. Unlike
    /// [`write_bit`](Self::write_bit) this models a disturbance, not an
    /// operation: no ports move and no counters are charged.
    ///
    /// # Errors
    ///
    /// Returns an error when any index is out of range.
    pub fn flip_bit(&mut self, col: usize, domain: usize, row: usize) -> Result<()> {
        self.check_col(col)?;
        self.check_domain(domain)?;
        self.check_row(row)?;
        self.plane_mut(col, domain)[row / WORD_BITS] ^= 1u64 << (row % WORD_BITS);
        Ok(())
    }

    /// Stages one bit into `col`/`row` at `domain` (input loading; counted as I/O).
    ///
    /// # Errors
    ///
    /// Returns an error when any index is out of range.
    pub fn write_bit(&mut self, col: usize, row: usize, domain: usize, value: bool) -> Result<()> {
        self.check_col(col)?;
        self.check_row(row)?;
        self.check_domain(domain)?;
        self.align_for_row(col, domain, row);
        let plane = self.plane_mut(col, domain);
        let mask = 1u64 << (row % WORD_BITS);
        if value {
            plane[row / WORD_BITS] |= mask;
        } else {
            plane[row / WORD_BITS] &= !mask;
        }
        self.stats.io_written_bits += 1;
        self.charge_row(row, |stats| stats.io_written_bits += 1);
        Ok(())
    }

    /// Reads one bit from `col`/`row` at `domain` through the sense amplifiers.
    ///
    /// # Errors
    ///
    /// Returns an error when any index is out of range.
    pub fn read_bit(&mut self, col: usize, row: usize, domain: usize) -> Result<bool> {
        self.check_col(col)?;
        self.check_row(row)?;
        self.check_domain(domain)?;
        self.align_for_row(col, domain, row);
        self.stats.read_bits += 1;
        self.charge_row(row, |stats| stats.read_bits += 1);
        let plane = self.plane(col, self.positions[col]);
        Ok(plane[row / WORD_BITS] & (1u64 << (row % WORD_BITS)) != 0)
    }

    /// Stages a two's-complement value of `width` bits into `col`/`row`, least
    /// significant bit at `base`.
    ///
    /// # Errors
    ///
    /// Returns [`CamError::ValueOverflow`] when the value does not fit in `width`
    /// bits (values in `[-2^(width-1), 2^width)` are accepted), or an index error.
    pub fn write_value(
        &mut self,
        col: usize,
        row: usize,
        base: usize,
        width: u8,
        value: i64,
    ) -> Result<()> {
        validate_width(width, value)?;
        for bit in 0..width as usize {
            let bit_value = (value >> bit) & 1 == 1;
            self.write_bit(col, row, base + bit, bit_value)?;
        }
        Ok(())
    }

    /// Reads a `width`-bit value from `col`/`row` starting at `base`. When `signed`
    /// is true the top bit is interpreted as a two's-complement sign bit.
    ///
    /// # Errors
    ///
    /// Returns an index error when the location is out of range.
    pub fn read_value(
        &mut self,
        col: usize,
        row: usize,
        base: usize,
        width: u8,
        signed: bool,
    ) -> Result<i64> {
        let mut value: i64 = 0;
        for bit in 0..width as usize {
            if self.read_bit(col, row, base + bit)? {
                value |= 1 << bit;
            }
        }
        self.stats.read_ops += 1;
        self.charge_row(row, |stats| stats.read_ops += 1);
        if signed && width > 0 && (value >> (width - 1)) & 1 == 1 {
            value -= 1 << width;
        }
        Ok(value)
    }

    /// Shift cost of staging or sensing `width` bits of every row of `col`
    /// (the closed form of the per-row walk `align(base), step to
    /// base+width-1, align back`), charged from `from` and leaving the column
    /// at `base + width - 1`. Matches the per-bit
    /// [`align_column`](Self::align_column) loop exactly: ascending bits move
    /// one domain per step, and every row after the first first walks back
    /// from the top bit.
    fn column_walk_shifts(&self, from: usize, base: usize, width: u8, rows: usize) -> u64 {
        let top = base + width as usize - 1;
        circular_distance(from, base, self.domains)
            + (rows as u64 - 1) * circular_distance(top, base, self.domains)
            + rows as u64 * (width as u64 - 1)
    }

    /// Whether a whole-column access of `width` bits at `base` can take the
    /// word-parallel fast path (everything in range, nothing overflowing);
    /// when it cannot, the caller falls back to the per-row loop so error
    /// ordering and partial-write semantics stay bit-identical.
    fn column_fast_path(&self, col: usize, base: usize, width: u8, values: &[i64]) -> bool {
        col < self.cols
            && width > 0
            && base + (width as usize) <= self.domains
            && values
                .iter()
                .all(|&value| validate_width(width, value).is_ok())
    }

    /// Stages one value per row into `col` (the common case when loading an im2col
    /// column of the input feature map).
    ///
    /// The store runs word-parallel — one packed word per 64 rows per bit
    /// plane — while the event counters follow the same per-row accounting as
    /// [`write_value`](Self::write_value) (it is data-independent, so the
    /// closed form is exact).
    ///
    /// # Errors
    ///
    /// Returns [`CamError::TagLengthMismatch`] if `values` does not provide one value
    /// per row, [`CamError::ValueOverflow`] or an index error otherwise.
    pub fn write_column_values(
        &mut self,
        col: usize,
        base: usize,
        width: u8,
        values: &[i64],
    ) -> Result<()> {
        if values.len() != self.rows {
            return Err(CamError::TagLengthMismatch {
                expected: self.rows,
                found: values.len(),
            });
        }
        if !self.column_fast_path(col, base, width, values) {
            for (row, &value) in values.iter().enumerate() {
                self.write_value(col, row, base, width, value)?;
            }
            return Ok(());
        }
        // One sweep over the values per 64-row word packs all `width` planes
        // of that word (the fast path guarantees `width <= 63`, and the low
        // `width` bits of an in-range value are its stored bits).
        let first = self.plane_index(col, base);
        let planes = usize::from(width);
        let mut packed = [0u64; WORD_BITS];
        for (word, chunk) in values.chunks(WORD_BITS).enumerate() {
            let packed = &mut packed[..planes];
            packed.fill(0);
            // Eight lanes at a time: gather each lane's byte of bits into one
            // word, then pull one bit plane's eight lane bits out per multiply.
            for (block, lanes) in chunk.chunks(8).enumerate() {
                for low in (0..planes).step_by(8) {
                    // Byte `j` holds bits `low..low + 8` of lane `j`'s value.
                    let bytes = lanes.iter().enumerate().fold(0u64, |bytes, (j, &value)| {
                        bytes | ((value as u64 >> low) & 0xff) << (8 * j)
                    });
                    for (bit, plane_word) in packed[low..planes.min(low + 8)].iter_mut().enumerate()
                    {
                        *plane_word |= gather_byte_bits(bytes, bit) << (8 * block);
                    }
                }
            }
            for (bit, &plane_word) in packed.iter().enumerate() {
                self.planes[first + bit * self.words + word] = plane_word;
            }
        }
        self.account_column_walk(col, base, width, true);
        Ok(())
    }

    /// Reads one value per row from `col`.
    ///
    /// The sense runs word-parallel with the same per-row event accounting as
    /// [`read_value`](Self::read_value).
    ///
    /// # Errors
    ///
    /// Returns an index error when the location is out of range.
    pub fn read_column_values(
        &mut self,
        col: usize,
        base: usize,
        width: u8,
        signed: bool,
    ) -> Result<Vec<i64>> {
        let mut values = Vec::with_capacity(self.rows);
        self.read_column_values_into(col, base, width, signed, &mut values)?;
        Ok(values)
    }

    /// [`read_column_values`](Self::read_column_values), appending the row
    /// values to `out` instead of allocating a vector — so a caller sensing
    /// many columns can collect them in one buffer.
    ///
    /// # Errors
    ///
    /// Returns an index error when the location is out of range; `out` may
    /// then hold the values of the rows read before the failing one.
    pub fn read_column_values_into(
        &mut self,
        col: usize,
        base: usize,
        width: u8,
        signed: bool,
        out: &mut Vec<i64>,
    ) -> Result<()> {
        if col >= self.cols || width == 0 || base + (width as usize) > self.domains {
            for row in 0..self.rows {
                out.push(self.read_value(col, row, base, width, signed)?);
            }
            return Ok(());
        }
        let start = out.len();
        out.resize(start + self.rows, 0);
        let values = &mut out[start..];
        // Unpack a 64-row word at a time: shift each plane word's lanes out
        // into consecutive rows.
        for bit in 0..width as usize {
            let plane = self.plane(col, base + bit);
            for (&word, chunk) in plane.iter().zip(values.chunks_mut(WORD_BITS)) {
                let mut lanes = word;
                for value in chunk {
                    *value |= ((lanes & 1) as i64) << bit;
                    lanes >>= 1;
                }
            }
        }
        if signed {
            let sign = 1i64 << (width - 1);
            for value in values {
                if *value & sign != 0 {
                    *value -= 1 << width;
                }
            }
        }
        self.account_column_walk(col, base, width, false);
        Ok(())
    }

    /// Books the counters of one whole-column fast-path access: the global
    /// stats pay the physical walk, and each tracked segment pays the walk a
    /// solo `segment_rows`-row array would have performed from its shadow
    /// position.
    fn account_column_walk(&mut self, col: usize, base: usize, width: u8, write: bool) {
        let bits = width as u64 * self.rows as u64;
        self.stats.shifts += self.column_walk_shifts(self.positions[col], base, width, self.rows);
        if write {
            self.stats.io_written_bits += bits;
        } else {
            self.stats.read_bits += bits;
            self.stats.read_ops += self.rows as u64;
        }
        let top = base + width as usize - 1;
        self.positions[col] = top;
        if let Some(mut tracker) = self.tracker.take() {
            let segment_rows = tracker.segment_rows;
            let segment_bits = width as u64 * segment_rows as u64;
            match &mut tracker.shadow {
                ShadowPositions::Shared(shadow) => {
                    tracker.shared.shifts +=
                        self.column_walk_shifts(shadow[col], base, width, segment_rows);
                    if write {
                        tracker.shared.io_written_bits += segment_bits;
                    } else {
                        tracker.shared.read_bits += segment_bits;
                        tracker.shared.read_ops += segment_rows as u64;
                    }
                    shadow[col] = top;
                }
                ShadowPositions::Diverged(per_segment) => {
                    for (stats, shadow) in tracker.individual.iter_mut().zip(per_segment) {
                        stats.shifts +=
                            self.column_walk_shifts(shadow[col], base, width, segment_rows);
                        if write {
                            stats.io_written_bits += segment_bits;
                        } else {
                            stats.read_bits += segment_bits;
                            stats.read_ops += segment_rows as u64;
                        }
                        shadow[col] = top;
                    }
                }
            }
            self.tracker = Some(tracker);
        }
    }

    /// Clears (writes zero into) `width` bits of every row of `col` starting at
    /// `base`. Used to initialise result and carry columns.
    ///
    /// # Errors
    ///
    /// Returns an index error when the location is out of range.
    pub fn clear_column(&mut self, col: usize, base: usize, width: u8) -> Result<()> {
        for bit in 0..width as usize {
            self.check_domain(base + bit)?;
        }
        for bit in 0..width as usize {
            self.align_column(col, base + bit)?;
            let tags = PackedTags::all_set(self.rows);
            self.write_tagged(&tags, &SearchKey::new().with(col, false))?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::CamArray;
    use proptest::prelude::*;

    fn array(rows: usize, cols: usize, domains: usize) -> BitPlaneArray {
        BitPlaneArray::new(rows, cols, domains, CamTechnology::default()).expect("geometry")
    }

    #[test]
    fn new_rejects_zero_dimensions() {
        assert!(BitPlaneArray::new(0, 4, 8, CamTechnology::default()).is_err());
        assert!(BitPlaneArray::new(4, 0, 8, CamTechnology::default()).is_err());
        assert!(BitPlaneArray::new(4, 4, 0, CamTechnology::default()).is_err());
    }

    #[test]
    fn packed_tags_round_trip_and_mask_partial_words() {
        for rows in [1usize, 63, 64, 65, 100, 128, 130] {
            let all = PackedTags::all_set(rows);
            assert_eq!(all.count(), rows, "rows {rows}");
            assert_eq!(all.to_tag_vector().count(), rows);
            let none = PackedTags::new(rows);
            assert_eq!(none.count(), 0);
            assert!(!all.is_set(rows), "bit beyond the register must be clear");
        }
        let bits = vec![true, false, true, true, false];
        let packed = PackedTags::from_tag_vector(&TagVector::from_bits(bits.clone()));
        assert_eq!(packed.to_tag_vector().as_bits(), bits.as_slice());
        assert_eq!(packed.as_words().len(), 1);
    }

    #[test]
    fn search_tags_matching_rows_only_across_word_boundaries() {
        // 70 rows spans two tag words.
        let mut cam = array(70, 2, 4);
        for row in 0..70 {
            cam.write_bit(0, row, 0, row % 2 == 0).expect("write");
            cam.write_bit(1, row, 0, true).expect("write");
        }
        cam.align_column(0, 0).expect("align");
        cam.align_column(1, 0).expect("align");
        let tags = cam
            .search(&SearchKey::new().with(0, true).with(1, true))
            .expect("search");
        assert_eq!(tags.count(), 35);
        assert!(tags.is_set(0) && tags.is_set(68) && !tags.is_set(69));
        let stats = cam.stats();
        assert_eq!(stats.search_cycles, 1);
        assert_eq!(stats.searched_bits, 2 * 70);
    }

    #[test]
    fn negative_key_search_does_not_match_phantom_rows() {
        // A search for 0 must not tag the padding bits of the last word.
        let mut cam = array(65, 1, 2);
        cam.align_column(0, 0).expect("align");
        let tags = cam
            .search(&SearchKey::new().with(0, false))
            .expect("search");
        assert_eq!(tags.count(), 65);
        assert!(!tags.is_set(65));
        assert_eq!(tags.as_words()[1], 1);
    }

    #[test]
    fn write_tagged_only_touches_tagged_rows() {
        let mut cam = array(4, 1, 2);
        cam.align_column(0, 1).expect("align");
        let tags =
            PackedTags::from_tag_vector(&TagVector::from_bits(vec![true, false, true, false]));
        cam.write_tagged(&tags, &SearchKey::new().with(0, true))
            .expect("write");
        assert!(cam.read_bit(0, 0, 1).expect("read"));
        assert!(!cam.read_bit(0, 1, 1).expect("read"));
        assert!(cam.read_bit(0, 2, 1).expect("read"));
        assert!(!cam.read_bit(0, 3, 1).expect("read"));
    }

    #[test]
    fn write_tagged_rejects_wrong_tag_length() {
        let mut cam = array(4, 1, 2);
        let tags = PackedTags::new(3);
        assert!(matches!(
            cam.write_tagged(&tags, &SearchKey::new().with(0, true)),
            Err(CamError::TagLengthMismatch { .. })
        ));
    }

    #[test]
    fn value_round_trip_signed_and_unsigned() {
        let mut cam = array(66, 2, 16);
        cam.write_value(0, 65, 0, 8, -37).expect("write");
        assert_eq!(cam.read_value(0, 65, 0, 8, true).expect("read"), -37);
        cam.write_value(1, 1, 4, 8, 200).expect("write");
        assert_eq!(cam.read_value(1, 1, 4, 8, false).expect("read"), 200);
    }

    #[test]
    fn clear_column_zeroes_all_rows() {
        let mut cam = array(3, 1, 8);
        cam.write_column_values(0, 0, 4, &[7, 5, 3]).expect("write");
        cam.clear_column(0, 0, 4).expect("clear");
        assert_eq!(
            cam.read_column_values(0, 0, 4, false).expect("read"),
            vec![0, 0, 0]
        );
    }

    #[test]
    fn take_stats_resets_counters() {
        let mut cam = array(2, 1, 4);
        cam.write_bit(0, 0, 0, true).expect("write");
        let stats = cam.take_stats();
        assert!(!stats.is_empty());
        assert!(cam.stats().is_empty());
    }

    /// Replays the same primitive sequence on a scalar [`CamArray`] and the
    /// bit-plane array and demands identical data, tags and counters.
    #[test]
    fn primitive_sequence_matches_scalar_cam_array() {
        for rows in [3usize, 64, 65, 100] {
            let mut scalar = CamArray::new(rows, 3, 8, CamTechnology::default()).expect("scalar");
            let mut packed = array(rows, 3, 8);
            let values: Vec<i64> = (0..rows as i64).map(|i| (i * 5 + 3) % 16).collect();
            scalar.write_column_values(0, 0, 4, &values).expect("load");
            packed.write_column_values(0, 0, 4, &values).expect("load");
            for domain in [2usize, 0, 3] {
                scalar.align_column(0, domain).expect("align");
                packed.align_column(0, domain).expect("align");
                for key_bit in [true, false] {
                    let key = SearchKey::new().with(0, key_bit);
                    let scalar_tags = scalar.search(&key).expect("search");
                    let packed_tags = packed.search(&key).expect("search");
                    assert_eq!(packed_tags.to_tag_vector(), scalar_tags, "rows {rows}");
                }
            }
            let scalar_tags = scalar.search(&SearchKey::new().with(0, true)).expect("s");
            let packed_tags = packed.search(&SearchKey::new().with(0, true)).expect("s");
            scalar.align_column(1, 1).expect("align");
            packed.align_column(1, 1).expect("align");
            scalar
                .write_tagged(&scalar_tags, &SearchKey::new().with(1, true))
                .expect("write");
            packed
                .write_tagged(&packed_tags, &SearchKey::new().with(1, true))
                .expect("write");
            assert_eq!(
                packed.read_column_values(1, 1, 1, false).expect("read"),
                scalar.read_column_values(1, 1, 1, false).expect("read")
            );
            assert_eq!(packed.stats(), scalar.stats(), "rows {rows}");
        }
    }

    #[test]
    fn shift_accounting_matches_the_circular_track_model() {
        // The single-port nanowire folds the shift distance around the track.
        let mut scalar = CamArray::new(2, 1, 16, CamTechnology::default()).expect("scalar");
        let mut packed = array(2, 1, 16);
        for domain in [15usize, 0, 8, 1, 15] {
            scalar.align_column(0, domain).expect("align");
            packed.align_column(0, domain).expect("align");
            assert_eq!(packed.stats().shifts, scalar.stats().shifts, "d {domain}");
        }
    }

    #[test]
    fn count_range_masks_partial_words() {
        let bits: Vec<bool> = (0..150).map(|row| row % 3 == 0).collect();
        let packed = PackedTags::from_tag_vector(&TagVector::from_bits(bits.clone()));
        for (start, end) in [(0, 150), (0, 64), (63, 65), (10, 10), (100, 200), (64, 128)] {
            let expected = bits
                .iter()
                .take(end.min(bits.len()))
                .skip(start)
                .filter(|&&b| b)
                .count();
            assert_eq!(packed.count_range(start, end), expected, "{start}..{end}");
        }
    }

    #[test]
    fn track_segments_rejects_non_dividing_sizes() {
        let mut cam = array(100, 2, 4);
        assert!(matches!(
            cam.track_segments(0),
            Err(CamError::SegmentMismatch { .. })
        ));
        assert!(matches!(
            cam.track_segments(30),
            Err(CamError::SegmentMismatch { .. })
        ));
        assert!(cam.track_segments(25).is_ok());
        assert_eq!(cam.segment_rows(), Some(25));
        assert_eq!(cam.segment_stats().len(), 4);
    }

    /// The tracking invariant: replaying a packed run's per-segment slice of
    /// the operation stream on a solo segment-sized array must reproduce the
    /// segment's attributed counters (and data) exactly.
    #[test]
    fn segment_stats_match_solo_runs_exactly() {
        let (segments, rows) = (3usize, 40usize);
        let mut packed = array(segments * rows, 3, 8);
        packed.track_segments(rows).expect("segments");
        // Distinct data per segment so the tagged-write counters are
        // genuinely data-dependent.
        let values: Vec<i64> = (0..segments * rows)
            .map(|row| (row as i64 * 11 + 5) % 16)
            .collect();
        let mut solos: Vec<BitPlaneArray> = (0..segments).map(|_| array(rows, 3, 8)).collect();
        // Staging: whole packed column vs each solo's slice.
        packed.write_column_values(0, 0, 4, &values).expect("load");
        for (segment, solo) in solos.iter_mut().enumerate() {
            solo.write_column_values(0, 0, 4, &values[segment * rows..(segment + 1) * rows])
                .expect("solo load");
        }
        // A data-dependent search/write pass plus a second-column update.
        for (col, domain, key_bit) in [(0usize, 2usize, true), (0, 0, false), (0, 1, true)] {
            packed.align_column(col, domain).expect("align");
            packed.align_column(1, 0).expect("align");
            let tags = packed
                .search(&SearchKey::new().with(col, key_bit))
                .expect("search");
            packed
                .write_tagged(&tags, &SearchKey::new().with(1, true))
                .expect("write");
            for solo in solos.iter_mut() {
                solo.align_column(col, domain).expect("align");
                solo.align_column(1, 0).expect("align");
                let tags = solo
                    .search(&SearchKey::new().with(col, key_bit))
                    .expect("search");
                solo.write_tagged(&tags, &SearchKey::new().with(1, true))
                    .expect("write");
            }
        }
        // Read-out through the sense amplifiers.
        let packed_read = packed.read_column_values(1, 0, 1, false).expect("read");
        for (segment, solo) in solos.iter_mut().enumerate() {
            let solo_read = solo.read_column_values(1, 0, 1, false).expect("read");
            assert_eq!(
                packed_read[segment * rows..(segment + 1) * rows],
                solo_read[..],
                "segment {segment} data"
            );
            assert_eq!(
                packed.segment_stats()[segment],
                solo.stats(),
                "segment {segment} counters"
            );
        }
        // Aggregate bit counters are the sum of the segments; the cycle
        // counters amortize (one physical pass covers every segment).
        let attributed: CamStats = packed
            .segment_stats()
            .iter()
            .copied()
            .fold(CamStats::new(), |acc, s| acc + s);
        let physical = packed.stats();
        assert_eq!(physical.searched_bits, attributed.searched_bits);
        assert_eq!(physical.written_bits, attributed.written_bits);
        assert_eq!(physical.io_written_bits, attributed.io_written_bits);
        assert_eq!(physical.read_bits, attributed.read_bits);
        assert_eq!(
            physical.search_cycles * segments as u64,
            attributed.search_cycles
        );
    }

    proptest! {
        #[test]
        fn prop_value_round_trip(width in 2u8..16, value in -1000i64..1000, row in 0usize..100) {
            let min = -(1i64 << (width - 1));
            let max = (1i64 << (width - 1)) - 1;
            let value = value.clamp(min, max);
            let mut cam = array(100, 1, 16);
            cam.write_value(0, row, 0, width, value).expect("write");
            prop_assert_eq!(cam.read_value(0, row, 0, width, true).expect("read"), value);
        }

        #[test]
        fn prop_search_matches_model(bits in proptest::collection::vec(any::<bool>(), 70), key_bit in any::<bool>()) {
            let mut cam = array(70, 1, 2);
            for (row, &bit) in bits.iter().enumerate() {
                cam.write_bit(0, row, 0, bit).expect("write");
            }
            cam.align_column(0, 0).expect("align");
            let tags = cam.search(&SearchKey::new().with(0, key_bit)).expect("search");
            for (row, &bit) in bits.iter().enumerate() {
                prop_assert_eq!(tags.is_set(row), bit == key_bit);
            }
        }

        #[test]
        fn prop_column_fast_paths_match_the_per_row_loops(
            segments in 1usize..=4,
            segment_rows in 1usize..=75,
            width in 1u8..=24,
            signed in any::<bool>(),
            start_domain in 0usize..32,
            seed in any::<u64>(),
            corrupt in any::<bool>(),
            bad_row in 0usize..300,
        ) {
            // Rows 1..=300 (so ragged last words), segment tracking on, and a
            // column whose ports start away from the staged range.
            let rows = segments * segment_rows;
            let domains = 32usize;
            let base = (seed % (domains as u64 - u64::from(width) + 1)) as usize;
            let (low, span) = if signed {
                (-(1i64 << (width - 1)), 1i64 << width)
            } else {
                (0, 1i64 << width)
            };
            let mut state = seed;
            let mut values: Vec<i64> = (0..rows)
                .map(|_| {
                    state = state
                        .wrapping_mul(6_364_136_223_846_793_005)
                        .wrapping_add(1_442_695_040_888_963_407);
                    low + ((state >> 11) % span as u64) as i64
                })
                .collect();
            if corrupt {
                // One value just outside the width's range.
                values[bad_row % rows] = if signed { low - 1 } else { span };
            }
            let mut fast = array(rows, 3, domains);
            let mut slow = array(rows, 3, domains);
            for cam in [&mut fast, &mut slow] {
                cam.track_segments(segment_rows).expect("segments");
                cam.align_column(1, start_domain).expect("align");
            }
            let written = fast.write_column_values(1, base, width, &values);
            let reference = values
                .iter()
                .enumerate()
                .try_for_each(|(row, &value)| slow.write_value(1, row, base, width, value));
            prop_assert_eq!(&written, &reference);
            prop_assert_eq!(written.is_err(), corrupt);
            prop_assert_eq!(fast.stats(), slow.stats());
            prop_assert_eq!(fast.segment_stats(), slow.segment_stats());
            for col in 0..3 {
                prop_assert_eq!(
                    fast.column_digest(col, 0, domains as u8).expect("digest"),
                    slow.column_digest(col, 0, domains as u8).expect("digest")
                );
            }
            if !corrupt {
                // Read back, appending to a buffer that already holds a value.
                let mut sensed = vec![-1i64];
                fast.read_column_values_into(1, base, width, signed, &mut sensed)
                    .expect("read");
                let reference: Vec<i64> = (0..rows)
                    .map(|row| slow.read_value(1, row, base, width, signed).expect("read"))
                    .collect();
                prop_assert_eq!(&sensed[1..], &reference[..]);
                prop_assert_eq!(&reference, &values);
                prop_assert_eq!(fast.stats(), slow.stats());
                prop_assert_eq!(fast.segment_stats(), slow.segment_stats());
            }
        }
    }
}
