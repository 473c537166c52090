//! Trace-divergence suite: the execution-trace recorder must be
//! byte-identical across engines and thread counts, and the [`TraceDiff`]
//! must localize an injected fault to **exactly** the faulted record.
//!
//! Three invariants are pinned:
//!
//! * **Engine identity** — recording a random program through the reference
//!   interpreter and through per-instruction compiled plans produces the
//!   identical byte stream (same tag populations, written-column digests and
//!   counter deltas per record).
//! * **Fault localization** — flipping one stored bit of a read operand just
//!   before record `k` executes makes the differ report record `k`: no
//!   earlier record may be perturbed, and the first divergence must not slip
//!   past the faulted instruction.
//! * **Thread-count identity** — a traced batched functional run emits the
//!   same bytes at any `RAYON_NUM_THREADS`, because unit fragments are
//!   concatenated in deterministic unit order, not completion order.

use ap::{ApEngine, ApInstruction, ApProgram, CarrySlot, Operand};
use apc::{CompileCache, CompilerOptions, TileGrid};
use cam::{BitPlaneArray, CamTechnology};
use camdnn::trace::{
    self, ExecutionTrace, FaultSpec, TraceDiff, TraceEvent, TraceHeader, TraceRecorder,
};
use camdnn::{EngineMode, FunctionalBackend};
use proptest::prelude::*;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use tnn::model::dw_sep_cnn;
use tnn::Tensor;

const COLS: usize = 10;
const DOMAINS: usize = 24;

/// Stages one random operand per column (the staging idiom of the engine
/// differential suites).
fn stage_operands(engine: &mut ApEngine, rows: usize, rng: &mut ChaCha8Rng) -> Vec<Operand> {
    let mut operands = Vec::with_capacity(COLS);
    for col in 0..COLS {
        let width = rng.gen_range(1..7u8);
        let base = rng.gen_range(0..(DOMAINS - width as usize).min(4) + 1);
        let signed = rng.gen_bool(0.5);
        let operand = Operand::new(col, base, width, signed);
        let values: Vec<i64> = (0..rows)
            .map(|_| {
                if signed {
                    rng.gen_range(-(1i64 << (width - 1))..(1i64 << (width - 1)))
                } else {
                    rng.gen_range(0..(1i64 << width))
                }
            })
            .collect();
        engine.load_column(&operand, &values).expect("load");
        operands.push(operand);
    }
    operands
}

/// Builds a random valid instruction over distinct columns. Copy
/// destinations take the source's width, so no instruction zero-extends a
/// multi-destination write.
fn random_instruction(operands: &[Operand], rng: &mut ChaCha8Rng) -> ApInstruction {
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

/// Records `program` on `engine`, optionally injecting `fault`.
fn record_program(
    engine: &mut ApEngine,
    program: &ApProgram,
    mode: EngineMode,
    fault: Option<&FaultSpec>,
) -> ExecutionTrace {
    let cache = CompileCache::new();
    let mut recorder = TraceRecorder::new(&TraceHeader {
        label: "divergence-suite".to_string(),
        act_bits: 0,
        batch: 0,
        grid: (1, 1),
    });
    trace::trace_program(engine, program, mode, &cache, &mut recorder, fault).expect("traced run");
    recorder.finish(&[])
}

/// Picks a fault targeting a read operand of a non-`Clear` instruction:
/// `Clear` never reads its destination, so a pre-flip cannot perturb its
/// record. Returns the faulted record index and the flip location.
fn fault_for(program: &ApProgram, rows: usize, rng: &mut ChaCha8Rng) -> Option<(u64, FaultSpec)> {
    let candidates: Vec<(usize, ApInstruction)> = program
        .iter()
        .enumerate()
        .filter(|(_, instruction)| !matches!(instruction, &&ApInstruction::Clear { .. }))
        .map(|(k, instruction)| (k, instruction.clone()))
        .collect();
    if candidates.is_empty() {
        return None;
    }
    let (record, instruction) = &candidates[rng.gen_range(0..candidates.len())];
    let sources = instruction.sources();
    let source = sources[rng.gen_range(0..sources.len())];
    // Arithmetic iterates the accumulator/destination width and Copy the
    // destination width, so source bits above that are never read; the flip
    // must land in the actually-read range to guarantee a divergence.
    let read_width = match instruction {
        ApInstruction::AddInPlace { acc, .. } | ApInstruction::SubInPlace { acc, .. } => acc.width,
        ApInstruction::AddOutOfPlace { dests, .. }
        | ApInstruction::SubOutOfPlace { dests, .. }
        | ApInstruction::Copy { dests, .. } => dests[0].width,
        _ => unreachable!("Clear is filtered above; no other variants exist"),
    };
    let bit = rng.gen_range(0..source.width.min(read_width) as usize);
    let domain = source
        .domain_for_bit(bit)
        .expect("bits below the width are stored");
    Some((
        *record as u64,
        FaultSpec {
            record: *record as u64,
            col: source.col,
            domain,
            row: rng.gen_range(0..rows),
        },
    ))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    // Engine identity: interpreter-recorded and plan-recorded traces of the
    // same program over the same staged data are byte-identical.
    #[test]
    fn interpreter_and_plan_traces_are_byte_identical(
        rows in 1usize..140,
        instructions in 1usize..8,
        seed in 0u64..10_000,
    ) {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let array =
            BitPlaneArray::new(rows, COLS, DOMAINS, CamTechnology::default()).expect("array");
        let mut interpreted = ApEngine::new(array);
        let operands = stage_operands(&mut interpreted, rows, &mut rng);
        let mut planned = interpreted.clone();
        let program: ApProgram = (0..instructions)
            .map(|_| random_instruction(&operands, &mut rng))
            .collect();

        let left = record_program(&mut interpreted, &program, EngineMode::Interpreter, None);
        let right = record_program(&mut planned, &program, EngineMode::Plan, None);
        prop_assert_eq!(left.bytes(), right.bytes(), "engine paths recorded different traces");
        prop_assert_eq!(TraceDiff::first_divergence(&left, &right).expect("diff"), None);
    }

    // Fault localization: a single stored-bit flip right before record `k`
    // executes diverges the traces at exactly record `k` — never earlier
    // (the prefix is untouched) and never later (every non-`Clear`
    // instruction reads the flipped operand's column through LUT passes, so
    // the record's tag populations, written digest or counters must move).
    #[test]
    fn injected_fault_is_reported_at_exactly_the_faulted_record(
        rows in 1usize..100,
        instructions in 1usize..8,
        seed in 0u64..10_000,
    ) {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let array =
            BitPlaneArray::new(rows, COLS, DOMAINS, CamTechnology::default()).expect("array");
        let mut clean_engine = ApEngine::new(array);
        let operands = stage_operands(&mut clean_engine, rows, &mut rng);
        let mut faulted_engine = clean_engine.clone();
        let program: ApProgram = (0..instructions)
            .map(|_| random_instruction(&operands, &mut rng))
            .collect();
        // All-Clear programs have no fault target; nothing to check there.
        if let Some((record, fault)) = fault_for(&program, rows, &mut rng) {
            let clean = record_program(&mut clean_engine, &program, EngineMode::Interpreter, None);
            let faulted = record_program(
                &mut faulted_engine,
                &program,
                EngineMode::Interpreter,
                Some(&fault),
            );
            let divergence = TraceDiff::first_divergence(&clean, &faulted)
                .expect("diff")
                .expect("a read-operand bit flip must change the faulted record");
            prop_assert_eq!(
                divergence.record_index(),
                Some(record),
                "divergence at the wrong record: {}",
                divergence
            );
            prop_assert!(
                matches!(divergence.left, Some(TraceEvent::Instruction(_))),
                "divergence must land on an instruction record: {}",
                divergence
            );
        }
    }
}

/// Builds the traced-batch backend used by the functional identity tests.
fn traced_backend(mode: EngineMode) -> FunctionalBackend {
    FunctionalBackend::new(
        accel::ArchConfig::default(),
        CompilerOptions::default().with_act_bits(4),
    )
    .with_tile_grid(TileGrid::new(2, 2))
    .with_input_seed(11)
    .with_engine_mode(mode)
}

/// One traced batched run of a partitioned depthwise-separable workload.
fn traced_batch(mode: EngineMode) -> ExecutionTrace {
    let model = dw_sep_cnn("trace-batch", 16, 0.8, 5);
    let backend = traced_backend(mode);
    let cache = CompileCache::new();
    let inputs: Vec<Tensor<i64>> = (0..2)
        .map(|sample| FunctionalBackend::input_for_sample(&model, 4, 11, sample))
        .collect();
    let (report, trace) = backend
        .run_batch_traced(&model, &inputs, &cache)
        .expect("traced batch");
    assert!(report.is_bit_exact(), "traced run must stay bit-exact");
    trace
}

/// Thread-count identity: unit fragments are merged in unit order, so the
/// trace bytes cannot depend on worker scheduling. The vendored rayon reads
/// `RAYON_NUM_THREADS` per parallel call, so the ladder runs in-process.
#[test]
fn traced_batches_are_identical_across_thread_counts_and_engines() {
    let baseline = traced_batch(EngineMode::Plan);
    assert!(!baseline.is_empty());
    for threads in ["1", "2", "5"] {
        std::env::set_var("RAYON_NUM_THREADS", threads);
        let trace = traced_batch(EngineMode::Plan);
        assert_eq!(
            trace.bytes(),
            baseline.bytes(),
            "trace bytes changed at RAYON_NUM_THREADS={threads}"
        );
    }
    std::env::remove_var("RAYON_NUM_THREADS");
    // The interpreter path records the identical stream end to end.
    let interpreted = traced_batch(EngineMode::Interpreter);
    assert_eq!(
        TraceDiff::first_divergence(&baseline, &interpreted).expect("diff"),
        None,
        "engine paths recorded different batched traces"
    );
    // The stream decodes: header, unit frames, a footer with per-sample
    // logits digests.
    let header = baseline.header().expect("header");
    assert_eq!(header.label, "trace-batch");
    assert_eq!(header.batch, 2);
    assert_eq!(header.grid, (2, 2));
    let events = baseline.events().expect("decode");
    assert!(events
        .iter()
        .any(|event| matches!(event, TraceEvent::Unit(_))));
    let Some(TraceEvent::Footer { logits }) = events.last() else {
        panic!("trace must end with a footer");
    };
    assert_eq!(logits.len(), 2);
}

/// The trace digest is stable across identical runs and sensitive to the
/// workload (different input seeds digest apart).
#[test]
fn trace_digests_pin_the_workload() {
    let first = traced_batch(EngineMode::Plan);
    let second = traced_batch(EngineMode::Plan);
    assert_eq!(first.digest(), second.digest());

    let model = dw_sep_cnn("trace-batch", 16, 0.8, 5);
    let cache = CompileCache::new();
    let other_input = vec![FunctionalBackend::input_for_sample(&model, 4, 99, 0)];
    let (_, other) = traced_backend(EngineMode::Plan)
        .run_batch_traced(&model, &other_input, &cache)
        .expect("traced batch");
    assert_ne!(first.digest(), other.digest());
}
