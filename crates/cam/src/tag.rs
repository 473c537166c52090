use serde::{Deserialize, Serialize};

/// The tag register of an associative processor: one bit per CAM row recording
/// whether that row matched the most recent search.
///
/// Tagged rows are the targets of the subsequent parallel write phase.
///
/// # Example
///
/// ```
/// use cam::TagVector;
///
/// let tags = TagVector::from_bits(vec![true, false, true, true]);
/// assert_eq!(tags.count(), 3);
/// assert_eq!(tags.len(), 4);
/// assert!(tags.is_set(0));
/// assert!(!tags.is_set(1));
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct TagVector {
    bits: Vec<bool>,
}

impl TagVector {
    /// Creates a tag vector of `rows` cleared tags.
    pub fn new(rows: usize) -> Self {
        TagVector {
            bits: vec![false; rows],
        }
    }

    /// Creates a tag vector with all `rows` tags set.
    pub fn all_set(rows: usize) -> Self {
        TagVector {
            bits: vec![true; rows],
        }
    }

    /// Wraps an explicit per-row bit pattern.
    pub fn from_bits(bits: Vec<bool>) -> Self {
        TagVector { bits }
    }

    /// Number of rows covered by the register.
    pub fn len(&self) -> usize {
        self.bits.len()
    }

    /// Returns `true` when the register covers zero rows.
    pub fn is_empty(&self) -> bool {
        self.bits.is_empty()
    }

    /// Number of tagged (matching) rows.
    pub fn count(&self) -> usize {
        self.bits.iter().filter(|&&b| b).count()
    }

    /// Whether row `row` is tagged. Rows outside the register are reported untagged.
    pub fn is_set(&self, row: usize) -> bool {
        self.bits.get(row).copied().unwrap_or(false)
    }

    /// Sets or clears the tag of `row`. Out-of-range rows are ignored.
    pub fn set(&mut self, row: usize, value: bool) {
        if let Some(bit) = self.bits.get_mut(row) {
            *bit = value;
        }
    }

    /// Iterates over the indices of tagged rows.
    pub fn iter_set(&self) -> impl Iterator<Item = usize> + '_ {
        self.bits
            .iter()
            .enumerate()
            .filter(|(_, &b)| b)
            .map(|(i, _)| i)
    }

    /// Borrowed view of the raw per-row bits.
    pub fn as_bits(&self) -> &[bool] {
        &self.bits
    }
}

impl FromIterator<bool> for TagVector {
    fn from_iter<I: IntoIterator<Item = bool>>(iter: I) -> Self {
        TagVector {
            bits: iter.into_iter().collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_is_all_clear_and_all_set_is_full() {
        assert_eq!(TagVector::new(5).count(), 0);
        assert_eq!(TagVector::all_set(5).count(), 5);
    }

    #[test]
    fn set_and_query() {
        let mut tags = TagVector::new(4);
        tags.set(2, true);
        assert!(tags.is_set(2));
        assert!(!tags.is_set(3));
        tags.set(100, true); // ignored
        assert_eq!(tags.count(), 1);
        assert_eq!(tags.iter_set().collect::<Vec<_>>(), vec![2]);
    }

    #[test]
    fn collects_from_iterator() {
        let tags: TagVector = [true, false, true].into_iter().collect();
        assert_eq!(tags.count(), 2);
    }
}
