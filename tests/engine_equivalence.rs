//! Differential test suite: the one [`ap::ApController`] must compute
//! bit-identically over both array models — the per-cell [`cam::CamArray`]
//! ground truth and the word-parallel [`cam::BitPlaneArray`]
//! ([`ap::ApEngine`]) — and compiled pass plans bit-identically to the
//! interpreter.
//!
//! Proptest-generated [`ApProgram`]s — random operands, carry slots, LUT kinds
//! and row counts including non-multiples of 64 — are executed on both
//! arrays over the same staged data, then the suite asserts that
//!
//! * every column read (full-depth dumps of every column) is identical,
//! * the tag vectors of masked searches are identical, and
//! * every [`cam::CamStats`] counter (search/write cycles, searched/written
//!   bits, I/O bits, read-outs and lockstep shifts) is identical.

use ap::{ApController, ApEngine, ApInstruction, ApProgram, CarrySlot, Operand};
use cam::{AssociativeArray, BitPlaneArray, CamArray, CamTechnology, SearchKey};
use proptest::prelude::*;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

const COLS: usize = 10;
const DOMAINS: usize = 24;

/// Controllers over both arrays of the same geometry.
fn pair(rows: usize) -> (ApController<CamArray>, ApEngine) {
    let scalar = CamArray::new(rows, COLS, DOMAINS, CamTechnology::default()).expect("scalar");
    let packed = BitPlaneArray::new(rows, COLS, DOMAINS, CamTechnology::default()).expect("packed");
    (ApController::new(scalar), ApEngine::new(packed))
}

/// Stages one random operand per column. Staging two controllers from clones
/// of one generator stages identical data into both.
fn stage_operands<A: AssociativeArray>(
    ap: &mut ApController<A>,
    rng: &mut ChaCha8Rng,
) -> Vec<Operand> {
    let mut operands = Vec::with_capacity(COLS);
    for col in 0..COLS {
        let width = rng.gen_range(1..7u8);
        let base = rng.gen_range(0..(DOMAINS - width as usize).min(4) + 1);
        let signed = rng.gen_bool(0.5);
        let operand = Operand::new(col, base, width, signed);
        let values: Vec<i64> = (0..ap.rows())
            .map(|_| {
                if signed {
                    rng.gen_range(-(1i64 << (width - 1))..(1i64 << (width - 1)))
                } else {
                    rng.gen_range(0..(1i64 << width))
                }
            })
            .collect();
        ap.load_column(&operand, &values).expect("load");
        operands.push(operand);
    }
    operands
}

/// Builds a random but always-valid instruction over distinct columns.
fn random_instruction(operands: &[Operand], rng: &mut ChaCha8Rng) -> ApInstruction {
    // Pick four distinct columns: two sources, one destination, one carry.
    let mut cols: Vec<usize> = (0..COLS).collect();
    for i in (1..cols.len()).rev() {
        cols.swap(i, rng.gen_range(0..i + 1));
    }
    let a = operands[cols[0]];
    let b = operands[cols[1]];
    let dest = operands[cols[2]];
    let carry = CarrySlot::new(cols[3], rng.gen_range(0..DOMAINS));
    match rng.gen_range(0..6) {
        0 => ApInstruction::AddInPlace { a, acc: b, carry },
        1 => ApInstruction::SubInPlace { a, acc: b, carry },
        2 => {
            // Several destinations share the out-of-place write; give them the
            // destination column's width so they satisfy the width check.
            let mut dests = vec![dest];
            let extra = operands[cols[4]];
            if rng.gen_bool(0.5) {
                dests.push(Operand::new(
                    extra.col,
                    extra.base,
                    dest.width,
                    extra.signed,
                ));
            }
            ApInstruction::AddOutOfPlace { a, b, dests, carry }
        }
        3 => ApInstruction::SubOutOfPlace {
            a,
            b,
            dests: vec![dest],
            carry,
        },
        4 => {
            let mut dests = vec![Operand::new(dest.col, dest.base, a.width, dest.signed)];
            if rng.gen_bool(0.5) {
                let extra = operands[cols[4]];
                dests.push(Operand::new(extra.col, extra.base, a.width, extra.signed));
            }
            ApInstruction::Copy { src: a, dests }
        }
        _ => ApInstruction::Clear { dst: dest },
    }
}

/// Full-depth dump of every column of two controllers (bit-for-bit
/// comparison that does not depend on any operand interpretation).
fn assert_identical_dumps<A: AssociativeArray, B: AssociativeArray>(
    expected: &mut ApController<A>,
    actual: &mut ApController<B>,
    rows: usize,
) {
    for col in 0..COLS {
        let dump = Operand::new(col, 0, DOMAINS as u8, false);
        assert_eq!(
            actual.read_column(&dump).expect("dump"),
            expected.read_column(&dump).expect("dump"),
            "column {col} dump diverged ({rows} rows)"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn engine_is_bit_identical_to_controller(
        rows in 1usize..140,
        instructions in 1usize..8,
        seed in 0u64..10_000,
    ) {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let (mut controller, mut engine) = pair(rows);
        stage_operands(&mut controller, &mut rng.clone());
        let operands = stage_operands(&mut engine, &mut rng);
        prop_assert_eq!(engine.stats(), controller.stats(), "staging counters diverged");

        let program: ApProgram = (0..instructions)
            .map(|_| random_instruction(&operands, &mut rng))
            .collect();
        controller.run(&program).expect("scalar run");
        engine.run(&program).expect("packed run");

        // Counters first: the run must have issued the identical cycle/bit/shift
        // sequence before any read-out noise is added.
        prop_assert_eq!(engine.stats(), controller.stats(), "execution counters diverged");

        // Tag vectors of masked searches over the post-run state.
        for _ in 0..3 {
            let mut key = SearchKey::new();
            for _ in 0..rng.gen_range(1..4) {
                key.set(rng.gen_range(0..COLS), rng.gen_bool(0.5));
            }
            let domain = rng.gen_range(0..DOMAINS);
            for (col, _) in key.iter() {
                controller.array_mut().align_column(col, domain).expect("align");
                engine.array_mut().align_column(col, domain).expect("align");
            }
            let scalar_tags = controller.array_mut().search(&key).expect("scalar search");
            let packed_tags = engine.array_mut().search(&key).expect("packed search");
            prop_assert_eq!(packed_tags.to_tag_vector(), scalar_tags, "tag vectors diverged");
        }
        prop_assert_eq!(engine.stats(), controller.stats(), "search counters diverged");

        // Column reads: every operand view and the raw full-depth dumps.
        for operand in &operands {
            prop_assert_eq!(
                engine.read_column(operand).expect("packed read"),
                controller.read_column(operand).expect("scalar read"),
                "column {} read diverged", operand.col
            );
        }
        assert_identical_dumps(&mut controller, &mut engine, rows);
        // Read-out accounting (read_bits, read_ops, shifts) must agree too.
        prop_assert_eq!(engine.stats(), controller.stats(), "read-out counters diverged");
    }

    #[test]
    fn malformed_instructions_fail_identically(
        rows in 1usize..70,
        seed in 0u64..1000,
    ) {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let (mut controller, mut engine) = pair(rows);
        let width = rng.gen_range(1..5u8);
        let conflicting = [
            // Source and accumulator in the same column.
            ApInstruction::AddInPlace {
                a: Operand::new(0, 0, width, false),
                acc: Operand::new(0, 8, width, true),
                carry: CarrySlot::new(1, 0),
            },
            // Carry sharing a source column.
            ApInstruction::SubOutOfPlace {
                a: Operand::new(0, 0, width, false),
                b: Operand::new(1, 0, width, false),
                dests: vec![Operand::new(2, 0, width, true)],
                carry: CarrySlot::new(1, 0),
            },
            // Zero-width operand.
            ApInstruction::Clear {
                dst: Operand::new(0, 0, 0, false),
            },
        ];
        for instruction in conflicting {
            let scalar = controller.execute(&instruction).expect_err("scalar must reject");
            let packed = engine.execute(&instruction).expect_err("packed must reject");
            prop_assert_eq!(format!("{packed}"), format!("{scalar}"));
        }
        prop_assert_eq!(engine.stats(), controller.stats());
    }
}

/// A program with explicit fusion-eligible adjacency: consecutive `Clear`s
/// and out-of-place instructions (whose carry reset and destination clears
/// are adjacent all-set zero writes) exercise the plan compiler's merged
/// sweeps, interleaved with random instructions.
fn random_program_with_fusion_runs(
    operands: &[Operand],
    instructions: usize,
    rng: &mut ChaCha8Rng,
) -> ApProgram {
    let mut program = ApProgram::new();
    for _ in 0..instructions {
        match rng.gen_range(0..3) {
            0 => {
                // Back-to-back clears of distinct columns: adjacent all-set
                // zero passes sharing the all-rows key.
                let first = rng.gen_range(0..COLS - 1);
                program.push(ApInstruction::Clear {
                    dst: operands[first],
                });
                program.push(ApInstruction::Clear {
                    dst: operands[first + 1],
                });
            }
            1 => {
                // An out-of-place op directly after a clear: carry reset and
                // destination clears form one fused zero sweep.
                program.push(ApInstruction::Clear { dst: operands[0] });
                program.push(ApInstruction::AddOutOfPlace {
                    a: operands[1],
                    b: operands[2],
                    dests: vec![operands[3]],
                    carry: CarrySlot::new(4, rng.gen_range(0..DOMAINS)),
                });
            }
            _ => program.push(random_instruction(operands, rng)),
        }
    }
    program
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    // Differential of plan-executed vs interpreter-executed random programs:
    // identical column reads, tag vectors, [`cam::CamStats`] and dumps, with
    // fusion-eligible adjacent passes explicitly generated.
    #[test]
    fn plan_execution_is_bit_identical_to_the_interpreter(
        rows in 1usize..140,
        instructions in 1usize..6,
        seed in 0u64..10_000,
    ) {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let array =
            BitPlaneArray::new(rows, COLS, DOMAINS, CamTechnology::default()).expect("packed");
        let mut reference = ApEngine::new(array);
        let operands = stage_operands(&mut reference, &mut rng);
        let mut planned = reference.clone();

        let program = random_program_with_fusion_runs(&operands, instructions, &mut rng);
        let plan = planned.compile_plan(&program);
        prop_assert!(!plan.is_fallback(), "valid programs must specialize");
        prop_assert!(
            plan.stats().passes_after_fusion <= plan.stats().passes_before_fusion,
            "fusion must never add passes"
        );
        reference.run(&program).expect("interpreter run");
        planned.run_plan(&plan).expect("plan run");
        prop_assert_eq!(planned.stats(), reference.stats(), "execution counters diverged");

        // Tag vectors of masked searches over the post-run state.
        for _ in 0..3 {
            let mut key = SearchKey::new();
            for _ in 0..rng.gen_range(1..4) {
                key.set(rng.gen_range(0..COLS), rng.gen_bool(0.5));
            }
            let domain = rng.gen_range(0..DOMAINS);
            for (col, _) in key.iter() {
                reference.array_mut().align_column(col, domain).expect("align");
                planned.array_mut().align_column(col, domain).expect("align");
            }
            let expected = reference.array_mut().search(&key).expect("reference search");
            let actual = planned.array_mut().search(&key).expect("planned search");
            prop_assert_eq!(actual.to_tag_vector(), expected.to_tag_vector());
        }

        // Column reads and full dumps (read-out accounting included).
        for operand in &operands {
            prop_assert_eq!(
                planned.read_column(operand).expect("planned read"),
                reference.read_column(operand).expect("reference read"),
                "column {} read diverged", operand.col
            );
        }
        assert_identical_dumps(&mut reference, &mut planned, rows);
        prop_assert_eq!(planned.stats(), reference.stats(), "read-out counters diverged");
    }

    // Per-segment attribution of the plan path matches the interpreter, for
    // arbitrary segment heights and for the production shapes: word-aligned
    // 64- and 128-row segments (conv units) and one-row segments, up to
    // eight of them (the fc unit at batch <= 8).
    #[test]
    fn plan_segment_attribution_matches_interpreter(
        segments in 1usize..5,
        segment_rows in 1usize..40,
        one_row_segments in 1usize..9,
        instructions in 1usize..5,
        seed in 0u64..10_000,
    ) {
        for (segments, segment_rows) in [
            (segments, segment_rows),
            (segments, 64),
            (segments, 128),
            (one_row_segments, 1),
        ] {
            let rows = segments * segment_rows;
            let mut rng = ChaCha8Rng::seed_from_u64(seed);
            let array =
                BitPlaneArray::new(rows, COLS, DOMAINS, CamTechnology::default()).expect("packed");
            let mut reference = ApEngine::new(array);
            let operands = stage_operands(&mut reference, &mut rng);
            let mut planned = reference.clone();
            reference.array_mut().track_segments(segment_rows).expect("segments");
            planned.array_mut().track_segments(segment_rows).expect("segments");

            let program = random_program_with_fusion_runs(&operands, instructions, &mut rng);
            let plan = planned.compile_plan(&program);
            reference.run(&program).expect("interpreter run");
            planned.run_plan(&plan).expect("plan run");
            prop_assert_eq!(
                planned.array().segment_stats(),
                reference.array().segment_stats(),
                "per-segment attribution diverged at {} x {}-row segments",
                segments,
                segment_rows
            );
        }
    }

    // Malformed programs compile to fallback plans that fail with the
    // interpreter's exact error messages.
    #[test]
    fn malformed_programs_fail_identically_via_plans(
        rows in 1usize..70,
        seed in 0u64..1000,
    ) {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let width = rng.gen_range(1..5u8);
        let conflicting = [
            ApInstruction::AddInPlace {
                a: Operand::new(0, 0, width, false),
                acc: Operand::new(0, 8, width, true),
                carry: CarrySlot::new(1, 0),
            },
            ApInstruction::SubOutOfPlace {
                a: Operand::new(0, 0, width, false),
                b: Operand::new(1, 0, width, false),
                dests: vec![Operand::new(2, 0, width, true)],
                carry: CarrySlot::new(1, 0),
            },
            ApInstruction::Clear {
                dst: Operand::new(0, 0, 0, false),
            },
            // In range for compilation but out of range at execution time.
            ApInstruction::Clear {
                dst: Operand::new(0, DOMAINS - 2, 4, false),
            },
        ];
        for instruction in conflicting {
            let array = BitPlaneArray::new(rows, COLS, DOMAINS, CamTechnology::default())
                .expect("packed");
            let mut reference = ApEngine::new(array);
            let mut planned = reference.clone();
            let program = ApProgram::from_instructions(vec![instruction]);
            let plan = planned.compile_plan(&program);
            prop_assert!(plan.is_fallback(), "failing programs must fall back");
            let expected = reference.run(&program).expect_err("interpreter must reject");
            let actual = planned.run_plan(&plan).expect_err("plan must reject");
            prop_assert_eq!(format!("{actual}"), format!("{expected}"));
            prop_assert_eq!(planned.stats(), reference.stats());
            assert_identical_dumps(&mut reference, &mut planned, rows);
        }
    }
}

/// The exact boundary row counts around the packed word size.
#[test]
fn word_boundary_row_counts_are_bit_identical() {
    for rows in [1usize, 63, 64, 65, 127, 128, 129] {
        let mut rng = ChaCha8Rng::seed_from_u64(rows as u64);
        let (mut controller, mut engine) = pair(rows);
        stage_operands(&mut controller, &mut rng.clone());
        let operands = stage_operands(&mut engine, &mut rng);
        let program: ApProgram = (0..6)
            .map(|_| random_instruction(&operands, &mut rng))
            .collect();
        controller.run(&program).expect("scalar run");
        engine.run(&program).expect("packed run");
        assert_eq!(engine.stats(), controller.stats(), "{rows} rows");
        assert_identical_dumps(&mut controller, &mut engine, rows);
    }
}
