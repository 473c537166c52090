use crate::{BitPlaneArray, CamArray, CamStats, PackedTags, Result, SearchKey, TagVector};

/// The primitives an associative-processor controller drives, shared by the
/// two array models so one controller (`ap::ApController`) runs over either.
///
/// [`CamArray`] models every racetrack cell individually and
/// [`BitPlaneArray`] packs 64 rows per word; both implement these methods
/// with the same data, the same errors and the same [`CamStats`] accounting,
/// and each trait method forwards to the inherent method of the same name
/// (whose docs list the errors).
pub trait AssociativeArray {
    /// The tag register a [`search`](Self::search) returns and a
    /// [`write_tagged`](Self::write_tagged) consumes.
    type Tags;

    /// Number of rows (SIMD lanes).
    fn rows(&self) -> usize;

    /// Aligns `col` so that bit position `domain` sits under the access
    /// ports, recording the lockstep shift cost.
    fn align_column(&mut self, col: usize, domain: usize) -> Result<()>;

    /// One parallel masked search against the aligned bit of each keyed
    /// column.
    fn search(&mut self, key: &SearchKey) -> Result<Self::Tags>;

    /// Writes `pattern` into the aligned bit of each listed column of every
    /// row tagged in `tags`.
    fn write_tagged(&mut self, tags: &Self::Tags, pattern: &SearchKey) -> Result<()>;

    /// A tag register with every row set (the unconditional write of a clear).
    fn all_tags(&self) -> Self::Tags;

    /// Stages one value per row into `width` domains of `col` from `base`.
    fn write_column_values(
        &mut self,
        col: usize,
        base: usize,
        width: u8,
        values: &[i64],
    ) -> Result<()>;

    /// Reads one value per row from `width` domains of `col` from `base`,
    /// appending them to `out` (which may hold a prefix on error).
    fn read_column_values_into(
        &mut self,
        col: usize,
        base: usize,
        width: u8,
        signed: bool,
        out: &mut Vec<i64>,
    ) -> Result<()>;

    /// Event counters accumulated so far.
    fn stats(&self) -> CamStats;

    /// Resets the event counters without touching stored data.
    fn reset_stats(&mut self);
}

impl AssociativeArray for CamArray {
    type Tags = TagVector;

    fn rows(&self) -> usize {
        CamArray::rows(self)
    }

    fn align_column(&mut self, col: usize, domain: usize) -> Result<()> {
        CamArray::align_column(self, col, domain)
    }

    fn search(&mut self, key: &SearchKey) -> Result<TagVector> {
        CamArray::search(self, key)
    }

    fn write_tagged(&mut self, tags: &TagVector, pattern: &SearchKey) -> Result<()> {
        CamArray::write_tagged(self, tags, pattern)
    }

    fn all_tags(&self) -> TagVector {
        TagVector::all_set(CamArray::rows(self))
    }

    fn write_column_values(
        &mut self,
        col: usize,
        base: usize,
        width: u8,
        values: &[i64],
    ) -> Result<()> {
        CamArray::write_column_values(self, col, base, width, values)
    }

    fn read_column_values_into(
        &mut self,
        col: usize,
        base: usize,
        width: u8,
        signed: bool,
        out: &mut Vec<i64>,
    ) -> Result<()> {
        for row in 0..CamArray::rows(self) {
            out.push(self.read_value(col, row, base, width, signed)?);
        }
        Ok(())
    }

    fn stats(&self) -> CamStats {
        CamArray::stats(self)
    }

    fn reset_stats(&mut self) {
        CamArray::reset_stats(self);
    }
}

// The forwarders inline across crates, so the controller's staging and
// sense calls on the fast path reach the bit-plane methods directly.
impl AssociativeArray for BitPlaneArray {
    type Tags = PackedTags;

    #[inline]
    fn rows(&self) -> usize {
        BitPlaneArray::rows(self)
    }

    #[inline]
    fn align_column(&mut self, col: usize, domain: usize) -> Result<()> {
        BitPlaneArray::align_column(self, col, domain)
    }

    #[inline]
    fn search(&mut self, key: &SearchKey) -> Result<PackedTags> {
        BitPlaneArray::search(self, key)
    }

    #[inline]
    fn write_tagged(&mut self, tags: &PackedTags, pattern: &SearchKey) -> Result<()> {
        BitPlaneArray::write_tagged(self, tags, pattern)
    }

    #[inline]
    fn all_tags(&self) -> PackedTags {
        PackedTags::all_set(BitPlaneArray::rows(self))
    }

    #[inline]
    fn write_column_values(
        &mut self,
        col: usize,
        base: usize,
        width: u8,
        values: &[i64],
    ) -> Result<()> {
        BitPlaneArray::write_column_values(self, col, base, width, values)
    }

    #[inline]
    fn read_column_values_into(
        &mut self,
        col: usize,
        base: usize,
        width: u8,
        signed: bool,
        out: &mut Vec<i64>,
    ) -> Result<()> {
        BitPlaneArray::read_column_values_into(self, col, base, width, signed, out)
    }

    #[inline]
    fn stats(&self) -> CamStats {
        BitPlaneArray::stats(self)
    }

    #[inline]
    fn reset_stats(&mut self) {
        BitPlaneArray::reset_stats(self);
    }
}
