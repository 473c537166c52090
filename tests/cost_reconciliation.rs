//! Reconciles the compiler's closed-form per-row cost with the counters the
//! functional engine executes.
//!
//! Every weighted layer runs on a 1×1 grid at batch size 1 through
//! [`FunctionalBackend::run_batch_traced`]; the per-instruction counter
//! deltas of its units are summed and compared with the layer's
//! [`CompileStats`](apc::CompileStats). Three fields are exact by
//! construction, and held equal here:
//!
//! * search cycles: each slice program runs once per row group;
//! * searched bits: the per-row key bits, over every output position;
//! * write cycles: the slice programs once per row group, plus one tile
//!   prologue per executed unit instead of one per tile.
//!
//! Two other fields are not yet reconciled: written bits (`CostModel` books
//! an expectation, "about half the rows rewritten") and shifts. For those the
//! micro_cnn test pins each layer's predicted count (per-row shifts × row
//! groups, per-row written bits × output positions) and executed count to
//! literals, so a change on either side fails until the gap is mended.

use accel::ArchConfig;
use ap::CostModel;
use apc::{codegen, CompileCache, CompiledLayer, CompilerOptions, LayerCompiler};
use cam::CamStats;
use camdnn::trace::TraceEvent;
use camdnn::FunctionalBackend;
use std::collections::BTreeMap;
use tnn::model::{micro_cnn, resnet18_at, vgg9, ModelGraph};

/// The write cycles of the accumulator-clearing prologue of a tile of
/// `outputs` outputs.
fn prologue_write_cycles(compiled: &CompiledLayer, outputs: usize) -> u64 {
    let model = CostModel::new(1);
    codegen::tile_prologue(&compiled.layout, outputs)
        .iter()
        .map(|instruction| model.instruction_stats(instruction).write_cycles)
        .sum()
}

/// The [`CamStats`] of a trace record's delta, stored in field declaration
/// order.
fn stats_of(delta: [u64; 8]) -> CamStats {
    CamStats {
        search_cycles: delta[0],
        searched_bits: delta[1],
        write_cycles: delta[2],
        written_bits: delta[3],
        read_bits: delta[4],
        read_ops: delta[5],
        shifts: delta[6],
        io_written_bits: delta[7],
    }
}

/// Per weighted node of one traced sample: the summed instruction deltas and
/// the write cycles of the prologues its units ran.
fn executed_per_node(
    model: &ModelGraph,
    compiled: &BTreeMap<usize, CompiledLayer>,
) -> BTreeMap<usize, (CamStats, u64)> {
    let backend = FunctionalBackend::new(ArchConfig::default(), CompilerOptions::default());
    let input = FunctionalBackend::input_for_sample(model, 4, 0, 0);
    let (_, trace) = backend
        .run_batch_traced(model, &[input], &CompileCache::new())
        .expect("traced run");
    let mut executed: BTreeMap<usize, (CamStats, u64)> = BTreeMap::new();
    let mut node = None;
    for event in trace.events().expect("trace decodes") {
        match event {
            TraceEvent::Unit(frame) => {
                node = Some(frame.node_id);
                let prologue = prologue_write_cycles(&compiled[&frame.node_id], frame.outputs_len);
                executed.entry(frame.node_id).or_default().1 += prologue;
            }
            TraceEvent::Instruction(record) => {
                let node = node.expect("a unit frame opens the records");
                let entry = executed.get_mut(&node).expect("node booked");
                entry.0 += stats_of(record.stats_delta);
            }
            _ => {}
        }
    }
    executed
}

/// Asserts the three exact equalities on every weighted layer of `model`, and
/// returns each layer's name with its `[predicted, executed]` shifts and
/// written bits.
fn assert_exact_fields_reconcile(model: &ModelGraph) -> Vec<(String, [u64; 2], [u64; 2])> {
    let compiler = LayerCompiler::new(CompilerOptions::default());
    let compiled: BTreeMap<usize, CompiledLayer> = model
        .conv_like_layers()
        .iter()
        .map(|layer| (layer.node_id, compiler.compile(layer).expect("compile")))
        .collect();
    let executed = executed_per_node(model, &compiled);
    assert_eq!(
        executed.keys().collect::<Vec<_>>(),
        compiled.keys().collect::<Vec<_>>(),
        "every weighted layer executes"
    );
    let mut deltas = Vec::new();
    for (node, layer) in &compiled {
        let (executed, unit_prologues) = executed[node];
        let stats = &layer.stats;
        let per_row = stats.dfg + stats.accumulation;
        let row_groups = layer.layout.row_groups as u64;
        let tile_prologues: u64 = (0..layer.layout.output_tiles)
            .map(|tile| {
                prologue_write_cycles(layer, layer.layout.tile_range(tile, layer.cout).len())
            })
            .sum();
        let name = &layer.name;
        assert_eq!(
            executed.search_cycles,
            per_row.search_cycles * row_groups,
            "{name} search cycles"
        );
        assert_eq!(
            executed.searched_bits,
            per_row.searched_bits * layer.output_positions as u64,
            "{name} searched bits"
        );
        assert_eq!(
            executed.write_cycles,
            (per_row.write_cycles - tile_prologues) * row_groups + unit_prologues,
            "{name} write cycles"
        );
        deltas.push((
            name.clone(),
            [per_row.shifts * row_groups, executed.shifts],
            [
                per_row.written_bits * layer.output_positions as u64,
                executed.written_bits,
            ],
        ));
    }
    deltas
}

#[test]
fn micro_cnn_exact_fields_reconcile() {
    let deltas = assert_exact_fields_reconcile(&micro_cnn("micro", 8, 0.8, 1));
    // `CostModel`'s prediction beside what the engine executes. The gaps are
    // known and not yet mended; the literals make drift on either side fail.
    let pinned = [
        ("conv1", [734, 724], [23_040, 18_734]),
        ("conv2", [3_072, 3_377], [92_864, 49_116]),
        ("fc", [7_380, 6_020], [2_790, 1_482]),
    ];
    assert_eq!(
        deltas,
        pinned.map(|(name, shifts, written_bits)| (name.to_string(), shifts, written_bits))
    );
}

#[test]
#[ignore = "executes VGG-9 traced; run in release"]
fn vgg9_exact_fields_reconcile() {
    assert_exact_fields_reconcile(&vgg9(0.85, 1));
}

#[test]
#[ignore = "executes ResNet-18 at 32×32 traced; run in release"]
fn resnet18_exact_fields_reconcile() {
    assert_exact_fields_reconcile(&resnet18_at(32, 0.8, 7));
}
