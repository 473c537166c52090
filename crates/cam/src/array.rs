use crate::{CamError, CamStats, CamTechnology, Result, SearchKey, TagVector};
use rtm::DomainBlockCluster;

/// A CAM array of `rows × cols` racetrack-backed cells.
///
/// Rows are the SIMD lanes of the associative processor (each row holds the operands
/// of one output position of the feature map). Every column groups the cells of all
/// rows into one [`DomainBlockCluster`], so a single shift aligns the same bit
/// position of every row — exactly the bit-serial, word-parallel execution model of
/// the paper (§III).
///
/// The array exposes the two associative-processing primitives, [`CamArray::search`]
/// and [`CamArray::write_tagged`], plus value-level staging helpers used to load
/// input feature maps and read back results. All activity is recorded in
/// [`CamStats`] so that higher layers can convert it into energy and latency.
///
/// # Example
///
/// ```
/// use cam::{CamArray, CamTechnology, SearchKey, TagVector};
///
/// # fn main() -> Result<(), cam::CamError> {
/// let mut array = CamArray::new(8, 4, 16, CamTechnology::default())?;
/// // Stage the value 5 (4 bits) into column 0 of row 2.
/// array.write_value(0, 2, 0, 4, 5)?;
/// assert_eq!(array.read_value(0, 2, 0, 4, false)?, 5);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct CamArray {
    /// One domain-wall block cluster per column; each cluster holds `rows` tracks.
    columns: Vec<DomainBlockCluster>,
    rows: usize,
    domains: usize,
    tech: CamTechnology,
    stats: CamStats,
}

impl CamArray {
    /// Creates an array of `rows × cols` cells, each cell an RTM nanowire with
    /// `domains_per_cell` bits, using the timing/energy model `tech`.
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
        let columns = (0..cols)
            .map(|_| DomainBlockCluster::new(rows, domains_per_cell, 1))
            .collect::<std::result::Result<Vec<_>, _>>()?;
        Ok(CamArray {
            columns,
            rows,
            domains: domains_per_cell,
            tech,
            stats: CamStats::new(),
        })
    }

    /// Number of rows (SIMD lanes).
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns (operand slots).
    pub fn cols(&self) -> usize {
        self.columns.len()
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

    /// Resets the event counters without touching stored data.
    pub fn reset_stats(&mut self) {
        self.stats = CamStats::new();
        for column in &mut self.columns {
            column.reset_stats();
        }
    }

    /// Returns the counters and resets them.
    pub fn take_stats(&mut self) -> CamStats {
        let stats = self.stats;
        self.reset_stats();
        stats
    }

    fn check_col(&self, col: usize) -> Result<()> {
        if col >= self.columns.len() {
            return Err(CamError::ColumnOutOfRange {
                col,
                cols: self.columns.len(),
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

    /// Aligns the cells of `col` so that bit position `domain` sits under the access
    /// ports, recording the lockstep shift cost.
    ///
    /// # Errors
    ///
    /// Returns an error when `col` or `domain` is out of range.
    pub fn align_column(&mut self, col: usize, domain: usize) -> Result<()> {
        self.check_col(col)?;
        self.check_domain(domain)?;
        let before = self.columns[col].cluster_shifts();
        self.columns[col].align(domain)?;
        self.stats.shifts += self.columns[col].cluster_shifts() - before;
        Ok(())
    }

    /// Performs one parallel masked search against the *currently aligned* bit of
    /// each keyed column and returns the tag vector of matching rows.
    ///
    /// # Errors
    ///
    /// Returns [`CamError::ColumnOutOfRange`] if the key references a column outside
    /// the array.
    pub fn search(&mut self, key: &SearchKey) -> Result<TagVector> {
        if let Some(max) = key.max_column() {
            self.check_col(max)?;
        }
        let mut tags = TagVector::all_set(self.rows);
        for (col, expected) in key.iter() {
            let position = self.columns[col].position();
            for row in 0..self.rows {
                let cell = self.columns[col]
                    .track(row)
                    .expect("row checked by geometry");
                if cell.snapshot()[position] != expected {
                    tags.set(row, false);
                }
            }
        }
        self.stats.search_cycles += 1;
        self.stats.searched_bits += (key.len() * self.rows) as u64;
        Ok(tags)
    }

    /// Writes the bit pattern `pattern` into the currently aligned domain of each
    /// listed column, but only in the rows tagged in `tags`.
    ///
    /// # Errors
    ///
    /// Returns [`CamError::TagLengthMismatch`] if the tag vector does not cover every
    /// row, or [`CamError::ColumnOutOfRange`] for an invalid column.
    pub fn write_tagged(&mut self, tags: &TagVector, pattern: &SearchKey) -> Result<()> {
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
            for row in tags.iter_set() {
                let cell = self.columns[col]
                    .track_mut(row)
                    .expect("row checked by geometry");
                cell.write_aligned(bit);
            }
        }
        self.stats.write_cycles += 1;
        self.stats.written_bits += (pattern.len() * tags.count()) as u64;
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
        let before = self.columns[col].cluster_shifts();
        self.columns[col].align(domain)?;
        self.stats.shifts += self.columns[col].cluster_shifts() - before;
        self.columns[col]
            .track_mut(row)
            .expect("row checked above")
            .write_aligned(value);
        self.stats.io_written_bits += 1;
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
        let before = self.columns[col].cluster_shifts();
        self.columns[col].align(domain)?;
        self.stats.shifts += self.columns[col].cluster_shifts() - before;
        self.stats.read_bits += 1;
        let cell = self.columns[col].track(row).expect("row checked above");
        Ok(cell.snapshot()[self.columns[col].position()])
    }

    /// Stages a two's-complement value of `width` bits into `col`/`row`, least
    /// significant bit at `base`.
    ///
    /// # Errors
    ///
    /// Returns [`CamError::ValueOverflow`] when the value does not fit in `width`
    /// bits (values in `[-2^(width-1), 2^width)` are accepted so both signed and
    /// unsigned interpretations can be stored), or an index error.
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
        if signed && width > 0 && (value >> (width - 1)) & 1 == 1 {
            value -= 1 << width;
        }
        Ok(value)
    }

    /// Stages one value per row into `col` (the common case when loading an im2col
    /// column of the input feature map).
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
        for (row, &value) in values.iter().enumerate() {
            self.write_value(col, row, base, width, value)?;
        }
        Ok(())
    }

    /// Reads one value per row from `col`.
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
        (0..self.rows)
            .map(|row| self.read_value(col, row, base, width, signed))
            .collect()
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
            let tags = TagVector::all_set(self.rows);
            self.write_tagged(&tags, &SearchKey::new().with(col, false))?;
        }
        Ok(())
    }
}

/// Checks that `value` fits in `width` bits (shared by the scalar and
/// bit-plane arrays so both accept exactly the same staged values).
pub(crate) fn validate_width(width: u8, value: i64) -> Result<()> {
    if width == 0 || width > 63 {
        return Err(CamError::ValueOverflow { value, width });
    }
    let max_unsigned = (1i64 << width) - 1;
    let min_signed = -(1i64 << (width - 1));
    if value > max_unsigned || value < min_signed {
        return Err(CamError::ValueOverflow { value, width });
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn array(rows: usize, cols: usize, domains: usize) -> CamArray {
        CamArray::new(rows, cols, domains, CamTechnology::default()).expect("geometry")
    }

    #[test]
    fn new_rejects_zero_dimensions() {
        assert!(CamArray::new(0, 4, 8, CamTechnology::default()).is_err());
        assert!(CamArray::new(4, 0, 8, CamTechnology::default()).is_err());
        assert!(CamArray::new(4, 4, 0, CamTechnology::default()).is_err());
    }

    #[test]
    fn search_tags_matching_rows_only() {
        let mut cam = array(4, 2, 4);
        for row in 0..4 {
            cam.write_bit(0, row, 0, row % 2 == 0).expect("write");
            cam.write_bit(1, row, 0, true).expect("write");
        }
        cam.align_column(0, 0).expect("align");
        cam.align_column(1, 0).expect("align");
        let tags = cam
            .search(&SearchKey::new().with(0, true).with(1, true))
            .expect("search");
        assert_eq!(tags.iter_set().collect::<Vec<_>>(), vec![0, 2]);
        let stats = cam.stats();
        assert_eq!(stats.search_cycles, 1);
        assert_eq!(stats.searched_bits, 2 * 4);
    }

    #[test]
    fn empty_key_matches_every_row() {
        let mut cam = array(3, 1, 2);
        let tags = cam.search(&SearchKey::new()).expect("search");
        assert_eq!(tags.count(), 3);
    }

    #[test]
    fn write_tagged_only_touches_tagged_rows() {
        let mut cam = array(4, 1, 2);
        cam.align_column(0, 1).expect("align");
        let tags = TagVector::from_bits(vec![true, false, true, false]);
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
        let tags = TagVector::new(3);
        assert!(matches!(
            cam.write_tagged(&tags, &SearchKey::new().with(0, true)),
            Err(CamError::TagLengthMismatch { .. })
        ));
    }

    #[test]
    fn search_rejects_out_of_range_column() {
        let mut cam = array(2, 2, 2);
        assert!(matches!(
            cam.search(&SearchKey::new().with(5, true)),
            Err(CamError::ColumnOutOfRange { .. })
        ));
    }

    #[test]
    fn value_round_trip_signed_and_unsigned() {
        let mut cam = array(2, 2, 16);
        cam.write_value(0, 0, 0, 8, -37).expect("write");
        assert_eq!(cam.read_value(0, 0, 0, 8, true).expect("read"), -37);
        cam.write_value(1, 1, 4, 8, 200).expect("write");
        assert_eq!(cam.read_value(1, 1, 4, 8, false).expect("read"), 200);
    }

    #[test]
    fn value_overflow_is_rejected() {
        let mut cam = array(1, 1, 16);
        assert!(matches!(
            cam.write_value(0, 0, 0, 4, 16),
            Err(CamError::ValueOverflow { .. })
        ));
        assert!(matches!(
            cam.write_value(0, 0, 0, 4, -9),
            Err(CamError::ValueOverflow { .. })
        ));
        assert!(cam.write_value(0, 0, 0, 4, 15).is_ok());
        assert!(cam.write_value(0, 0, 0, 4, -8).is_ok());
    }

    #[test]
    fn column_values_round_trip() {
        let mut cam = array(4, 1, 8);
        let values = vec![1, -2, 3, -4];
        cam.write_column_values(0, 0, 6, &values).expect("write");
        assert_eq!(cam.read_column_values(0, 0, 6, true).expect("read"), values);
        assert!(cam.write_column_values(0, 0, 6, &[1, 2]).is_err());
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
    fn shifts_are_counted_for_sequential_domain_walk() {
        let mut cam = array(2, 1, 16);
        for domain in 0..16 {
            cam.align_column(0, domain).expect("align");
        }
        assert_eq!(cam.stats().shifts, 15);
    }

    #[test]
    fn io_and_compute_bits_are_tracked_separately() {
        let mut cam = array(4, 2, 4);
        cam.write_value(0, 0, 0, 4, 5).expect("write");
        let io_bits = cam.stats().io_written_bits;
        assert_eq!(io_bits, 4);
        cam.align_column(1, 0).expect("align");
        let tags = TagVector::all_set(4);
        cam.write_tagged(&tags, &SearchKey::new().with(1, true))
            .expect("write");
        assert_eq!(cam.stats().io_written_bits, io_bits);
        assert_eq!(cam.stats().written_bits, 4);
    }

    #[test]
    fn take_stats_resets_counters() {
        let mut cam = array(2, 1, 4);
        cam.write_bit(0, 0, 0, true).expect("write");
        let stats = cam.take_stats();
        assert!(!stats.is_empty());
        assert!(cam.stats().is_empty());
    }

    proptest! {
        #[test]
        fn prop_value_round_trip(width in 2u8..16, value in -1000i64..1000) {
            let min = -(1i64 << (width - 1));
            let max = (1i64 << (width - 1)) - 1;
            let value = value.clamp(min, max);
            let mut cam = array(1, 1, 16);
            cam.write_value(0, 0, 0, width, value).expect("write");
            prop_assert_eq!(cam.read_value(0, 0, 0, width, true).expect("read"), value);
        }

        #[test]
        fn prop_search_matches_model(bits in proptest::collection::vec(any::<bool>(), 8), key_bit in any::<bool>()) {
            let mut cam = array(8, 1, 2);
            for (row, &bit) in bits.iter().enumerate() {
                cam.write_bit(0, row, 0, bit).expect("write");
            }
            cam.align_column(0, 0).expect("align");
            let tags = cam.search(&SearchKey::new().with(0, key_bit)).expect("search");
            for (row, &bit) in bits.iter().enumerate() {
                prop_assert_eq!(tags.is_set(row), bit == key_bit);
            }
        }
    }
}
