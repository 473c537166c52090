//! Code generation: lowering a slice DFG to associative-processor instructions
//! (§IV-C, in-/out-of-place selection and LUT generation).
//!
//! The generated program computes, for one input channel and one output tile, the
//! contribution of that channel to every output accumulator:
//!
//! * CSE signals are materialised **out of place** into temporary columns (their
//!   operands stay live for other consumers),
//! * each output's terms are combined in a narrow **chain** column — the first two
//!   terms out of place, the rest **in place** — and
//! * the chain is finally accumulated **in place** into the output's persistent
//!   partial-sum column.
//!
//! Negative outputs never need extra work: a negated pair is handled by swapping the
//! subtraction operands, and a fully negated chain flips the final accumulation from
//! addition to subtraction, matching the paper's observation that negative-output
//! LUTs come at no extra cost.

use crate::alloc::{Allocation, Event};
use crate::bitwidth::chain_width;
use crate::dfg::Dfg;
use crate::expr::{SignalDef, SignalId};
use crate::layout::LayerLayout;
use crate::{ApcError, Result};
use ap::{ApInstruction, ApProgram, CarrySlot, CostModel, LutKind, Operand};
use cam::CamStats;

/// The lowered form of one (input channel, output tile) slice.
#[derive(Debug, Clone, PartialEq)]
pub struct GeneratedSlice {
    /// The instruction stream (empty unless the program was retained).
    pub program: ApProgram,
    /// Add/sub operations that construct output values (the paper's `#Adds/Subs`
    /// counting convention — accumulations into the persistent output columns are
    /// reported separately).
    pub counted_ops: u64,
    /// In-place accumulations of finished chains into the persistent output columns.
    pub accumulate_ops: u64,
    /// Arithmetic instructions executed in place (8 cycles/bit).
    pub in_place: u64,
    /// Arithmetic instructions executed out of place (10 cycles/bit).
    pub out_of_place: u64,
    /// Number of temporary columns used by CSE signals.
    pub temp_columns_used: usize,
    /// Estimated CAM counters of the instructions whose destination lies
    /// outside the accumulator-column region: the channel-wise DFG phase.
    pub dfg_cost: CamStats,
    /// Estimated CAM counters of the instructions whose destination lies in
    /// the accumulator-column region: the local part of the accumulation phase
    /// (the split reported in Fig. 4 of the paper).
    pub accumulation_cost: CamStats,
}

/// Generates the accumulator-clearing prologue of one output tile (run once per
/// tile, before the first channel's slice program).
pub fn tile_prologue(layout: &LayerLayout, tile_outputs: usize) -> ApProgram {
    let mut program = ApProgram::new();
    for output in 0..tile_outputs {
        program.push(ApInstruction::Clear {
            dst: Operand::new(layout.acc_col_start + output, 0, layout.acc_bits, true),
        });
    }
    program
}

/// Costs every instruction as it is emitted, through the per-operation formulas
/// of [`CostModel`], and builds the instruction itself only when the program is
/// retained.
struct Emitter<'a> {
    model: &'a CostModel,
    acc_col_start: usize,
    carry: CarrySlot,
    generated: GeneratedSlice,
    keep_program: bool,
}

impl Emitter<'_> {
    fn book(&mut self, stats: CamStats, dest: &Operand) {
        if dest.col >= self.acc_col_start {
            self.generated.accumulation_cost += stats;
        } else {
            self.generated.dfg_cost += stats;
        }
    }

    /// `acc ← acc ± a`.
    fn in_place(&mut self, subtract: bool, a: Operand, acc: Operand) {
        let kind = if subtract {
            LutKind::SubInPlace
        } else {
            LutKind::AddInPlace
        };
        self.book(self.model.in_place_stats(kind, &a, acc.width), &acc);
        self.generated.in_place += 1;
        if self.keep_program {
            let carry = self.carry;
            self.generated.program.push(if subtract {
                ApInstruction::SubInPlace { a, acc, carry }
            } else {
                ApInstruction::AddInPlace { a, acc, carry }
            });
        }
    }

    /// `dest ← b ± a`.
    fn out_of_place(&mut self, subtract: bool, a: Operand, b: Operand, dest: Operand) {
        let kind = if subtract {
            LutKind::SubOutOfPlace
        } else {
            LutKind::AddOutOfPlace
        };
        self.book(
            self.model.out_of_place_stats(kind, &a, &b, dest.width, 1),
            &dest,
        );
        self.generated.out_of_place += 1;
        if self.keep_program {
            let (dests, carry) = (vec![dest], self.carry);
            self.generated.program.push(if subtract {
                ApInstruction::SubOutOfPlace { a, b, dests, carry }
            } else {
                ApInstruction::AddOutOfPlace { a, b, dests, carry }
            });
        }
    }
}

/// Lowers one slice DFG to AP instructions and costs them under `model`.
///
/// Every instruction is costed as it is emitted; it is pushed into
/// [`GeneratedSlice::program`] only when `keep_program` is set, so the analytic
/// compile builds no instruction at all. The costs are the same either way, and
/// equal [`CostModel::instruction_stats`] summed over the retained program.
///
/// `channel_in_group` selects which resident channel's activation bits (domain
/// offset inside the input cells) the generated loads refer to.
///
/// # Errors
///
/// Returns [`ApcError::DoesNotFit`] when the allocation needs more temporary columns
/// than the layout reserves, and [`ApcError::Internal`] for malformed DFGs.
pub fn generate(
    dfg: &Dfg,
    widths: &[u8],
    allocation: &Allocation,
    layout: &LayerLayout,
    channel_in_group: usize,
    model: &CostModel,
    keep_program: bool,
) -> Result<GeneratedSlice> {
    if allocation.temp_columns_used > layout.temp_budget {
        return Err(ApcError::DoesNotFit {
            reason: format!(
                "slice needs {} temporary columns but the layout reserves {}",
                allocation.temp_columns_used, layout.temp_budget
            ),
        });
    }
    if dfg.outputs.len() > layout.cout_tile {
        return Err(ApcError::DoesNotFit {
            reason: format!(
                "slice covers {} outputs but the tile holds {} accumulators",
                dfg.outputs.len(),
                layout.cout_tile
            ),
        });
    }
    let inputs = dfg.signals.inputs();
    let input_base = layout.channel_domain_base(channel_in_group);
    let operand_of = |signal: SignalId| -> Result<Operand> {
        if signal < inputs {
            Ok(Operand::new(signal, input_base, layout.act_bits, false))
        } else {
            let column = allocation
                .column_of(signal)
                .ok_or_else(|| ApcError::Internal {
                    reason: format!("signal {signal} has no column assignment"),
                })?;
            Ok(Operand::new(
                layout.temp_col_start + column,
                0,
                widths[signal],
                true,
            ))
        }
    };

    let mut emit = Emitter {
        model,
        acc_col_start: layout.acc_col_start,
        carry: CarrySlot::new(layout.carry_col, 0),
        generated: GeneratedSlice {
            program: ApProgram::new(),
            counted_ops: 0,
            accumulate_ops: 0,
            in_place: 0,
            out_of_place: 0,
            temp_columns_used: allocation.temp_columns_used,
            dfg_cost: CamStats::new(),
            accumulation_cost: CamStats::new(),
        },
        keep_program,
    };

    for event in &allocation.schedule {
        match event {
            Event::DefineSignal(signal) => {
                let Some(SignalDef::Combine {
                    lhs,
                    lhs_negated,
                    rhs,
                    rhs_negated,
                }) = dfg.signals.def(*signal)
                else {
                    return Err(ApcError::Internal {
                        reason: format!("schedule defines non-derived signal {signal}"),
                    });
                };
                let dest = operand_of(*signal)?;
                let lhs_op = operand_of(*lhs)?;
                let rhs_op = operand_of(*rhs)?;
                match (lhs_negated, rhs_negated) {
                    (false, false) => emit.out_of_place(false, rhs_op, lhs_op, dest),
                    (false, true) => emit.out_of_place(true, rhs_op, lhs_op, dest),
                    (true, false) => emit.out_of_place(true, lhs_op, rhs_op, dest),
                    (true, true) => {
                        return Err(ApcError::Internal {
                            reason: "CSE never introduces a doubly negated combination".to_string(),
                        })
                    }
                }
                emit.generated.counted_ops += 1;
            }
            Event::AccumulateOutput(index) => {
                let output = &dfg.outputs[*index];
                let acc = Operand::new(layout.acc_col_start + index, 0, layout.acc_bits, true);
                let terms = output.terms();
                match terms.len() {
                    0 => {}
                    1 => {
                        // A single-term output is accumulated directly into its
                        // persistent column. Under the paper's Eq. 1 counting
                        // convention this is an accumulation, not a constructive op.
                        let (signal, sign) = terms[0];
                        emit.in_place(sign < 0, operand_of(signal)?, acc);
                        emit.generated.accumulate_ops += 1;
                    }
                    _ => {
                        let widest = terms
                            .iter()
                            .map(|&(s, _)| widths[s])
                            .max()
                            .unwrap_or(layout.act_bits);
                        let chain_bits = chain_width(widest, terms.len()).min(layout.acc_bits);
                        let chain = Operand::new(layout.chain_col, 0, chain_bits, true);
                        let (first_signal, first_sign) = terms[0];
                        let (second_signal, second_sign) = terms[1];
                        let first = operand_of(first_signal)?;
                        let second = operand_of(second_signal)?;
                        // chain := ±first ± second, possibly negated as a whole: a
                        // fully negated pair is added and the chain is negated.
                        let chain_negated = first_sign < 0 && second_sign < 0;
                        match (first_sign > 0, second_sign > 0) {
                            (true, false) => emit.out_of_place(true, second, first, chain),
                            (false, true) => emit.out_of_place(true, first, second, chain),
                            _ => emit.out_of_place(false, second, first, chain),
                        }
                        emit.generated.counted_ops += 1;
                        for &(signal, sign) in &terms[2..] {
                            let effective = if chain_negated { -sign } else { sign };
                            emit.in_place(effective < 0, operand_of(signal)?, chain);
                            emit.generated.counted_ops += 1;
                        }
                        emit.in_place(chain_negated, chain, acc);
                        emit.generated.accumulate_ops += 1;
                    }
                }
            }
        }
    }
    Ok(emit.generated)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::alloc::allocate;
    use crate::bitwidth::signal_widths;
    use crate::dfg::WeightSlice;
    use crate::layout::CamGeometry;
    use ap::ApController;
    use cam::{CamArray, CamTechnology};
    use rand::{Rng, SeedableRng};
    use rand_chacha::ChaCha8Rng;
    use tnn::model::ConvLayerInfo;
    use tnn::TernaryTensor;

    /// Builds a fake single-channel layer description so LayerLayout can be computed
    /// for stand-alone slice tests.
    fn layer_for(patch: usize, cout: usize) -> ConvLayerInfo {
        let side = (patch as f64).sqrt() as usize;
        let (fh, fw) = if side * side == patch {
            (side, side)
        } else {
            (1, patch)
        };
        ConvLayerInfo {
            node_id: 0,
            name: "slice-test".to_string(),
            cin: 1,
            cout,
            kernel: (fh, fw),
            stride: 1,
            padding: 0,
            input_hw: (8, 8),
            output_hw: (8, 8),
            weights: TernaryTensor::random(vec![cout, 1, fh, fw], 0.5, 3),
        }
    }

    fn per_row_model() -> CostModel {
        CostModel::new(1)
    }

    fn lower(rows: Vec<Vec<i8>>, act_bits: u8, cse: bool) -> (Dfg, LayerLayout, GeneratedSlice) {
        let patch = rows[0].len();
        let cout = rows.len();
        let slice = WeightSlice::from_rows(rows).expect("slice");
        let mut dfg = Dfg::from_slice(&slice);
        if cse {
            dfg.apply_cse().expect("cse");
        }
        let layer = layer_for(patch, cout);
        let layout = LayerLayout::for_layer(
            CamGeometry {
                rows: 16,
                cols: 64,
                domains: 64,
            },
            act_bits,
            &layer,
            16,
        )
        .expect("layout");
        let widths = signal_widths(&dfg, act_bits);
        let allocation = allocate(&dfg);
        let generated = generate(
            &dfg,
            &widths,
            &allocation,
            &layout,
            0,
            &per_row_model(),
            true,
        )
        .expect("codegen");
        (dfg, layout, generated)
    }

    /// Executes a generated slice on the functional AP and compares every output
    /// accumulator against the DFG's reference evaluation.
    fn run_functional(rows: Vec<Vec<i8>>, act_bits: u8, cse: bool, seed: u64) {
        let patch = rows[0].len();
        let (dfg, layout, generated) = lower(rows, act_bits, cse);
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let cam_rows = layout.geometry.rows;
        // One random patch per CAM row.
        let patches: Vec<Vec<i64>> = (0..cam_rows)
            .map(|_| {
                (0..patch)
                    .map(|_| rng.gen_range(0..(1 << act_bits)))
                    .collect()
            })
            .collect();
        let array = CamArray::new(
            cam_rows,
            layout.geometry.cols,
            layout.geometry.domains,
            CamTechnology::default(),
        )
        .expect("array");
        let mut ap = ApController::new(array);
        // Stage the patch inputs (one column per patch offset, one value per row).
        for k in 0..patch {
            let column: Vec<i64> = patches.iter().map(|p| p[k]).collect();
            ap.load_column(&Operand::new(k, 0, layout.act_bits, false), &column)
                .expect("load");
        }
        ap.run(&tile_prologue(&layout, dfg.outputs.len()))
            .expect("prologue");
        ap.run(&generated.program).expect("slice program");
        for (index, _) in dfg.outputs.iter().enumerate() {
            let acc = Operand::new(layout.acc_col_start + index, 0, layout.acc_bits, true);
            let got = ap.read_column(&acc).expect("read accumulator");
            for (row, patch_values) in patches.iter().enumerate() {
                let expected = dfg.evaluate(patch_values).expect("reference")[index];
                assert_eq!(got[row], expected, "output {index}, row {row}, cse={cse}");
            }
        }
    }

    #[test]
    fn generated_code_matches_reference_without_cse() {
        run_functional(
            vec![
                vec![1, -1, 0, 1],
                vec![0, 1, 1, -1],
                vec![-1, -1, -1, -1],
                vec![0, 0, 0, 0],
            ],
            4,
            false,
            1,
        );
    }

    #[test]
    fn generated_code_matches_reference_with_cse() {
        run_functional(
            vec![
                vec![1, -1, 0, 1, 0, -1],
                vec![0, 0, -1, 1, 0, -1],
                vec![0, 0, 0, -1, 0, 1],
                vec![0, -1, 0, -1, 0, 1],
                vec![1, -1, 0, -1, 0, 0],
                vec![1, -1, -1, 1, 0, -1],
            ],
            4,
            true,
            2,
        );
    }

    #[test]
    fn generated_code_matches_reference_for_random_slices() {
        let mut rng = ChaCha8Rng::seed_from_u64(77);
        for case in 0..4 {
            let outputs = rng.gen_range(2..8);
            let patch = rng.gen_range(2..9);
            let rows: Vec<Vec<i8>> = (0..outputs)
                .map(|_| {
                    (0..patch)
                        .map(|_| [0i8, 0, 1, -1][rng.gen_range(0..4)])
                        .collect()
                })
                .collect();
            run_functional(rows.clone(), 4, false, 100 + case);
            run_functional(rows, 4, true, 200 + case);
        }
    }

    #[test]
    fn op_counting_follows_the_paper_convention() {
        let rows = vec![vec![1, 1, 1], vec![1, -1, 0], vec![0, 0, 1]];
        let (dfg, _, generated) = lower(rows, 4, false);
        assert_eq!(generated.counted_ops, dfg.op_count().total() as u64);
        // Every non-empty output contributes exactly one accumulation into its
        // persistent column.
        let non_empty = dfg.outputs.iter().filter(|o| !o.is_empty()).count() as u64;
        assert_eq!(generated.accumulate_ops, non_empty);
        // The total instruction count matches the codegen convention.
        assert_eq!(
            generated.counted_ops + generated.accumulate_ops,
            dfg.instruction_ops() as u64
                + dfg.outputs.iter().filter(|o| o.len() >= 2).count() as u64
        );
    }

    #[test]
    fn in_place_operations_dominate() {
        // A dense slice has long chains, so in-place operations should outnumber
        // out-of-place ones — the optimisation goal of §IV-C.
        let mut rng = ChaCha8Rng::seed_from_u64(5);
        let rows: Vec<Vec<i8>> = (0..16)
            .map(|_| {
                (0..9)
                    .map(|_| [1i8, -1, 1, -1, 0][rng.gen_range(0..5)])
                    .collect()
            })
            .collect();
        let (_, _, generated) = lower(rows.clone(), 4, false);
        assert!(
            generated.in_place > generated.out_of_place,
            "in-place {} vs out-of-place {}",
            generated.in_place,
            generated.out_of_place
        );
        // Even with CSE the in-place share stays substantial.
        let (_, _, with_cse) = lower(rows, 4, true);
        let fraction =
            with_cse.in_place as f64 / (with_cse.in_place + with_cse.out_of_place) as f64;
        assert!(fraction > 0.3, "in-place fraction {fraction}");
    }

    #[test]
    fn over_budget_allocation_is_rejected() {
        let mut rng = ChaCha8Rng::seed_from_u64(6);
        let rows: Vec<Vec<i8>> = (0..64)
            .map(|_| (0..9).map(|_| [1i8, -1, 0][rng.gen_range(0..3)]).collect())
            .collect();
        let slice = WeightSlice::from_rows(rows).expect("slice");
        let mut dfg = Dfg::from_slice(&slice);
        dfg.apply_cse().expect("cse");
        let layer = layer_for(9, 64);
        // Reserve zero temporary columns: any CSE signal must be rejected.
        let layout = LayerLayout::for_layer(CamGeometry::default(), 4, &layer, 0).expect("layout");
        let widths = signal_widths(&dfg, 4);
        let allocation = allocate(&dfg);
        if allocation.temp_columns_used > 0 {
            assert!(matches!(
                generate(
                    &dfg,
                    &widths,
                    &allocation,
                    &layout,
                    0,
                    &per_row_model(),
                    true
                ),
                Err(ApcError::DoesNotFit { .. })
            ));
        }
    }
}
