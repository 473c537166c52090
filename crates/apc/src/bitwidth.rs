//! Bitwidth annotation (the "custom integer types" step of Fig. 3a).
//!
//! Because the associative processor supports arbitrary integer widths, every value
//! is processed with the narrowest type that cannot overflow: patch inputs use the
//! activation precision, a combination of two values needs one more bit than its
//! widest operand, and the per-output accumulators need enough headroom for the
//! worst-case sum across all terms and channels.

use crate::dfg::Dfg;
use crate::expr::SignalDef;

/// Maximum operand width the code generator will ever emit. Results that would be
/// wider are clamped; for the networks of the paper the bound is never reached.
pub const MAX_WIDTH: u8 = 48;

/// Number of bits needed to represent the signed value of every signal of `dfg`,
/// indexed by signal id, when patch inputs are unsigned `act_bits`-bit values.
///
/// Inputs report `act_bits`; derived signals grow by one bit per combination.
///
/// # Example
///
/// ```
/// use apc::bitwidth::signal_widths;
/// use apc::dfg::{Dfg, WeightSlice};
///
/// let slice = WeightSlice::from_rows(vec![vec![1, 1, 0], vec![1, 1, -1]]).expect("slice");
/// let mut dfg = Dfg::from_slice(&slice);
/// dfg.apply_cse().expect("cse");
/// let widths = signal_widths(&dfg, 4);
/// assert!(widths.iter().all(|&w| w >= 4));
/// ```
pub fn signal_widths(dfg: &Dfg, act_bits: u8) -> Vec<u8> {
    let mut widths = Vec::with_capacity(dfg.signals.len());
    signal_widths_into(dfg, act_bits, &mut widths);
    widths
}

/// [`signal_widths`] into `widths`, reusing its storage.
pub(crate) fn signal_widths_into(dfg: &Dfg, act_bits: u8, widths: &mut Vec<u8>) {
    let inputs = dfg.signals.inputs();
    widths.clear();
    // Signed width needed to hold a signal: unsigned inputs need one extra bit once
    // they participate in signed arithmetic.
    let signed_width = |id: usize, widths: &[u8]| -> u8 {
        if id < inputs {
            widths[id].saturating_add(1)
        } else {
            widths[id]
        }
    };
    for (_, def) in dfg.signals.iter() {
        let width = match def {
            SignalDef::Input { .. } => act_bits,
            SignalDef::Combine { lhs, rhs, .. } => {
                let wl = signed_width(*lhs, widths);
                let wr = signed_width(*rhs, widths);
                wl.max(wr).saturating_add(1).min(MAX_WIDTH)
            }
        };
        widths.push(width);
    }
}

/// Signed width of the chain accumulator that combines up to `max_terms` values of
/// at most `term_width` bits each.
pub fn chain_width(term_width: u8, max_terms: usize) -> u8 {
    (term_width as u32 + ceil_log2(max_terms.max(1)) + 1).min(MAX_WIDTH as u32) as u8
}

/// Signed width of the per-output partial-sum accumulator of a layer: the sum over
/// `total_terms` activations of `act_bits` bits (plus sign).
pub fn accumulator_width(act_bits: u8, total_terms: usize) -> u8 {
    (act_bits as u32 + ceil_log2(total_terms.max(1)) + 1).min(MAX_WIDTH as u32) as u8
}

/// Ceiling of the base-2 logarithm (0 for inputs 0 and 1).
pub fn ceil_log2(value: usize) -> u32 {
    if value <= 1 {
        0
    } else {
        usize::BITS - (value - 1).leading_zeros()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dfg::Dfg;

    #[test]
    fn ceil_log2_matches_reference() {
        assert_eq!(ceil_log2(0), 0);
        assert_eq!(ceil_log2(1), 0);
        assert_eq!(ceil_log2(2), 1);
        assert_eq!(ceil_log2(3), 2);
        assert_eq!(ceil_log2(4), 2);
        assert_eq!(ceil_log2(5), 3);
        assert_eq!(ceil_log2(1024), 10);
        assert_eq!(ceil_log2(1025), 11);
    }

    #[test]
    fn inputs_report_activation_width_and_combinations_grow() {
        let mut dfg = Dfg::equation1();
        dfg.apply_cse().expect("cse");
        let widths = signal_widths(&dfg, 4);
        for width in widths.iter().take(dfg.signals.inputs()) {
            assert_eq!(*width, 4);
        }
        for width in widths.iter().skip(dfg.signals.inputs()) {
            assert!(*width > 4);
            assert!(*width <= MAX_WIDTH);
        }
    }

    #[test]
    fn widths_bound_actual_values() {
        // Evaluate the DFG on worst-case inputs and check each signal fits its width.
        let mut dfg = Dfg::equation1();
        dfg.apply_cse().expect("cse");
        let act_bits = 4u8;
        let widths = signal_widths(&dfg, act_bits);
        let max_input = (1i64 << act_bits) - 1;
        let values = dfg
            .signals
            .evaluate(&vec![max_input; dfg.patch_size])
            .expect("evaluate");
        for (id, &value) in values.iter().enumerate() {
            // Inputs are unsigned `width`-bit values; derived signals are signed
            // two's-complement values of their annotated width.
            let bound = if id < dfg.signals.inputs() {
                (1i64 << widths[id]) - 1
            } else {
                (1i64 << (widths[id] - 1)) - 1
            };
            assert!(
                value.abs() <= bound,
                "signal {id} value {value} exceeds width {}",
                widths[id]
            );
        }
    }

    #[test]
    fn accumulator_width_covers_worst_case_sum() {
        // 4-bit activations, 1152 terms (a 3x3 conv over 128 channels).
        let width = accumulator_width(4, 1152);
        let worst = 15i64 * 1152;
        assert!(
            worst < (1i64 << (width - 1)),
            "width {width} too small for {worst}"
        );
        // And the width is not absurdly conservative (at most 4 bits of slack).
        assert!(
            worst > (1i64 << (width.saturating_sub(5))),
            "width {width} too large"
        );
    }

    #[test]
    fn chain_width_grows_logarithmically() {
        assert_eq!(chain_width(4, 1), 5);
        assert!(chain_width(4, 9) <= 10);
        assert!(chain_width(8, 49) <= 16);
        assert_eq!(chain_width(40, usize::MAX), MAX_WIDTH);
    }
}
