//! Execution-trace recording and first-divergence diffing for AP execution.
//!
//! Every engine change so far has been guarded by hand-pinned golden literals
//! and pairwise differential proptests. This module replaces the bare asserts
//! with *evidence*: a compact binary trace of what an execution actually did,
//! recorded identically by the reference interpreter, the compiled-plan
//! engine, and partitioned multi-tile runs — and a [`TraceDiff`] that streams
//! two traces and reports the **first** diverging record with full context
//! instead of a panic deep inside an equivalence test.
//!
//! # Record model
//!
//! A trace is a byte stream of varint-encoded records:
//!
//! - a **header** (magic, version, workload label, activation bits, batch
//!   size, tile grid),
//! - one **unit frame** per executed partition unit (layer node id, unit
//!   ordinal, grid tile, row/output/channel ranges, column split, array
//!   geometry), emitted in deterministic unit order regardless of
//!   `RAYON_NUM_THREADS`,
//! - per-record entries inside a unit: one **instruction record** per
//!   executed [`ApInstruction`] carrying the record index, the instruction
//!   kind, the written columns, a tag-population digest (FNV-1a over the
//!   per-pass tagged-row populations), a written-column digest (FNV-1a over
//!   the post-instruction contents of every written region), and the
//!   instruction's [`CamStats`] delta; plus **load**/**read** records
//!   digesting the values that crossed the I/O boundary,
//! - a **footer** with one logits digest per sample.
//!
//! The interpreter executes instructions directly ([`ApEngine::execute`]);
//! the plan path replays each instruction through a single-instruction
//! compiled plan served by [`CompileCache::plan`]. Both paths produce
//! byte-identical traces for the same workload — pinned by
//! `tests/trace_divergence.rs` and the corpus goldens — so a trace digest
//! pins an execution across engines, thread counts and processes.
//!
//! See `BENCH_schema.md` for the wire format and [`crate::corpus`] for the
//! golden workload corpus built on top.

use crate::functional::EngineMode;
use ap::{ApEngine, ApInstruction, ApProgram, Operand, PlanGeometry};
use apc::CompileCache;
use cam::CamStats;
use std::fmt;

/// Magic bytes opening every trace stream.
pub const TRACE_MAGIC: [u8; 4] = *b"CMTR";

/// Version byte of the trace encoding; bump on any wire-format change.
pub const TRACE_VERSION: u8 = 1;

const TAG_UNIT: u8 = 0x01;
const TAG_INSTRUCTION: u8 = 0x02;
const TAG_LOAD: u8 = 0x03;
const TAG_READ: u8 = 0x04;
const TAG_FOOTER: u8 = 0x7e;

const FNV_OFFSET_BASIS: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// Extends an FNV-1a 64 digest with `bytes`.
fn fnv1a_extend(mut digest: u64, bytes: &[u8]) -> u64 {
    for &byte in bytes {
        digest ^= u64::from(byte);
        digest = digest.wrapping_mul(FNV_PRIME);
    }
    digest
}

/// FNV-1a 64 digest of a byte slice — the digest primitive of the trace
/// encoding (shared idiom with the compile cache's layer signatures).
pub fn fnv1a(bytes: &[u8]) -> u64 {
    fnv1a_extend(FNV_OFFSET_BASIS, bytes)
}

/// FNV-1a 64 digest of a `u64` sequence (little-endian bytes): the
/// tag-population digest of an instruction record.
pub fn fnv1a_u64s(values: &[u64]) -> u64 {
    let mut digest = FNV_OFFSET_BASIS;
    for value in values {
        digest = fnv1a_extend(digest, &value.to_le_bytes());
    }
    digest
}

/// FNV-1a 64 digest of an `i64` sequence (little-endian bytes): the value
/// digest of load/read records and the per-sample logits digests.
pub fn fnv1a_i64s(values: &[i64]) -> u64 {
    let mut digest = FNV_OFFSET_BASIS;
    for value in values {
        digest = fnv1a_extend(digest, &value.to_le_bytes());
    }
    digest
}

/// Appends `value` as an LEB128 varint.
fn put_varint(buf: &mut Vec<u8>, mut value: u64) {
    loop {
        let byte = (value & 0x7f) as u8;
        value >>= 7;
        if value == 0 {
            buf.push(byte);
            return;
        }
        buf.push(byte | 0x80);
    }
}

/// Errors decoding or comparing a trace stream.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TraceError {
    /// The byte stream is not a valid trace.
    Malformed {
        /// Byte offset of the problem.
        offset: usize,
        /// What went wrong.
        reason: String,
    },
}

impl fmt::Display for TraceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TraceError::Malformed { offset, reason } => {
                write!(f, "malformed trace at byte {offset}: {reason}")
            }
        }
    }
}

impl std::error::Error for TraceError {}

/// Streaming little-endian cursor over a trace byte stream.
struct Cursor<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn malformed(&self, reason: impl Into<String>) -> TraceError {
        TraceError::Malformed {
            offset: self.pos,
            reason: reason.into(),
        }
    }

    fn u8(&mut self) -> Result<u8, TraceError> {
        let byte = *self
            .bytes
            .get(self.pos)
            .ok_or_else(|| self.malformed("unexpected end of stream"))?;
        self.pos += 1;
        Ok(byte)
    }

    fn varint(&mut self) -> Result<u64, TraceError> {
        let mut value = 0u64;
        for shift in (0..64).step_by(7) {
            let byte = self.u8()?;
            value |= u64::from(byte & 0x7f) << shift;
            if byte & 0x80 == 0 {
                return Ok(value);
            }
        }
        Err(self.malformed("varint longer than 64 bits"))
    }

    fn usize(&mut self) -> Result<usize, TraceError> {
        let value = self.varint()?;
        usize::try_from(value).map_err(|_| self.malformed("value exceeds usize"))
    }

    fn u64_le(&mut self) -> Result<u64, TraceError> {
        let end = self.pos + 8;
        let bytes = self
            .bytes
            .get(self.pos..end)
            .ok_or_else(|| self.malformed("unexpected end of stream"))?;
        self.pos = end;
        Ok(u64::from_le_bytes(bytes.try_into().expect("8-byte slice")))
    }

    fn done(&self) -> bool {
        self.pos >= self.bytes.len()
    }
}

/// The workload identity opening a trace stream.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceHeader {
    /// Workload label (model name for functional runs).
    pub label: String,
    /// Activation precision of the run, in bits (0 for raw program traces).
    pub act_bits: u8,
    /// Number of batched samples.
    pub batch: usize,
    /// Tile grid `(rows, cols)` the run partitioned over.
    pub grid: (usize, usize),
}

/// One executed partition unit's identity — the context every following
/// record belongs to until the next frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct UnitFrame {
    /// Graph node id of the layer the unit belongs to.
    pub node_id: usize,
    /// Position of the unit in the layer's partition plan.
    pub ordinal: usize,
    /// Grid tile the unit ran on.
    pub tile: usize,
    /// First output position (CAM row) of the unit.
    pub rows_start: usize,
    /// Output positions per sample.
    pub rows_len: usize,
    /// First output channel of the unit.
    pub outputs_start: usize,
    /// Output channels of the unit.
    pub outputs_len: usize,
    /// First input-channel group of the unit.
    pub channels_start: usize,
    /// Input-channel groups of the unit.
    pub channels_len: usize,
    /// Column split the unit executes.
    pub col_split: usize,
    /// Physical CAM rows of the unit's array (rows × batch).
    pub geom_rows: usize,
    /// CAM columns of the unit's array.
    pub geom_cols: usize,
    /// Bit domains per cell of the unit's array.
    pub geom_domains: usize,
}

/// One executed instruction's record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InstrRecord {
    /// Record index within the unit (instructions, loads and reads share the
    /// counter).
    pub index: u64,
    /// Instruction opcode ([`ApInstruction::kind_code`]).
    pub kind: u8,
    /// Columns the instruction wrote (sorted, deduplicated).
    pub written_cols: Vec<u64>,
    /// FNV-1a digest of the per-pass tagged-row populations.
    pub tag_digest: u64,
    /// FNV-1a digest of the written regions' post-instruction contents.
    pub write_digest: u64,
    /// [`CamStats`] delta of the instruction, in field declaration order.
    pub stats_delta: [u64; 8],
}

/// One load/read record: a column crossing the I/O boundary.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IoRecord {
    /// Record index within the unit (shared counter with instructions).
    pub index: u64,
    /// Operand column.
    pub col: u64,
    /// First bit domain of the operand.
    pub base: u64,
    /// Operand width in bits.
    pub width: u8,
    /// FNV-1a digest of the staged (load) or sensed (read) values.
    pub value_digest: u64,
    /// [`CamStats`] delta of the transfer, in field declaration order.
    pub stats_delta: [u64; 8],
}

/// One decoded trace entry.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TraceEvent {
    /// A unit frame: the following records belong to this unit.
    Unit(UnitFrame),
    /// An executed instruction.
    Instruction(InstrRecord),
    /// A column load.
    Load(IoRecord),
    /// A column read.
    Read(IoRecord),
    /// The stream footer: per-sample logits digests.
    Footer {
        /// FNV-1a digest of each sample's logits, in batch order.
        logits: Vec<u64>,
    },
}

impl TraceEvent {
    /// Short label of the event kind, for divergence reports.
    fn kind_label(&self) -> &'static str {
        match self {
            TraceEvent::Unit(_) => "unit",
            TraceEvent::Instruction(_) => "instruction",
            TraceEvent::Load(_) => "load",
            TraceEvent::Read(_) => "read",
            TraceEvent::Footer { .. } => "footer",
        }
    }
}

/// The delta of two [`CamStats`] snapshots, in field declaration order.
fn stats_delta(before: CamStats, after: CamStats) -> [u64; 8] {
    [
        after.search_cycles - before.search_cycles,
        after.searched_bits - before.searched_bits,
        after.write_cycles - before.write_cycles,
        after.written_bits - before.written_bits,
        after.read_bits - before.read_bits,
        after.read_ops - before.read_ops,
        after.shifts - before.shifts,
        after.io_written_bits - before.io_written_bits,
    ]
}

/// Incrementally encodes a trace byte stream.
///
/// A recorder created with [`new`](Self::new) opens the stream with a header
/// and is finished into an [`ExecutionTrace`]; a [`detached`](Self::detached)
/// recorder encodes a headerless fragment (one unit's records, produced
/// inside a rayon job) that the owning recorder absorbs in deterministic
/// unit order via [`append_fragment`](Self::append_fragment).
#[derive(Debug, Clone)]
pub struct TraceRecorder {
    bytes: Vec<u8>,
    index: u64,
}

impl TraceRecorder {
    /// Opens a trace stream with `header`.
    pub fn new(header: &TraceHeader) -> Self {
        let mut bytes = Vec::with_capacity(256);
        bytes.extend_from_slice(&TRACE_MAGIC);
        bytes.push(TRACE_VERSION);
        put_varint(&mut bytes, header.label.len() as u64);
        bytes.extend_from_slice(header.label.as_bytes());
        put_varint(&mut bytes, u64::from(header.act_bits));
        put_varint(&mut bytes, header.batch as u64);
        put_varint(&mut bytes, header.grid.0 as u64);
        put_varint(&mut bytes, header.grid.1 as u64);
        TraceRecorder { bytes, index: 0 }
    }

    /// Creates a headerless fragment recorder (see the type docs).
    pub fn detached() -> Self {
        TraceRecorder {
            bytes: Vec::new(),
            index: 0,
        }
    }

    /// The record index the next record will carry.
    pub fn next_index(&self) -> u64 {
        self.index
    }

    /// The encoded bytes so far.
    pub fn bytes(&self) -> &[u8] {
        &self.bytes
    }

    /// Emits a unit frame and resets the record counter.
    pub fn begin_unit(&mut self, frame: &UnitFrame) {
        self.bytes.push(TAG_UNIT);
        for value in [
            frame.node_id,
            frame.ordinal,
            frame.tile,
            frame.rows_start,
            frame.rows_len,
            frame.outputs_start,
            frame.outputs_len,
            frame.channels_start,
            frame.channels_len,
            frame.col_split,
            frame.geom_rows,
            frame.geom_cols,
            frame.geom_domains,
        ] {
            put_varint(&mut self.bytes, value as u64);
        }
        self.index = 0;
    }

    /// Emits one instruction record from the instruction's identity, its
    /// per-pass tagged-row populations, the digest of its written regions and
    /// its counter delta.
    pub fn record_instruction(
        &mut self,
        instruction: &ApInstruction,
        passes: &[u64],
        write_digest: u64,
        delta: [u64; 8],
    ) {
        self.bytes.push(TAG_INSTRUCTION);
        put_varint(&mut self.bytes, self.index);
        self.bytes.push(instruction.kind_code());
        let mut cols: Vec<u64> = instruction
            .written_regions()
            .iter()
            .map(|&(col, _, _)| col as u64)
            .collect();
        cols.dedup();
        put_varint(&mut self.bytes, cols.len() as u64);
        for col in cols {
            put_varint(&mut self.bytes, col);
        }
        self.bytes
            .extend_from_slice(&fnv1a_u64s(passes).to_le_bytes());
        self.bytes.extend_from_slice(&write_digest.to_le_bytes());
        for value in delta {
            put_varint(&mut self.bytes, value);
        }
        self.index += 1;
    }

    /// Emits one I/O record (`TAG_LOAD` or `TAG_READ`).
    fn record_io(&mut self, tag: u8, operand: &Operand, values: &[i64], delta: [u64; 8]) {
        self.bytes.push(tag);
        put_varint(&mut self.bytes, self.index);
        put_varint(&mut self.bytes, operand.col as u64);
        put_varint(&mut self.bytes, operand.base as u64);
        self.bytes.push(operand.width);
        self.bytes
            .extend_from_slice(&fnv1a_i64s(values).to_le_bytes());
        for value in delta {
            put_varint(&mut self.bytes, value);
        }
        self.index += 1;
    }

    /// Emits one load record digesting the staged column values.
    pub fn record_load(&mut self, operand: &Operand, values: &[i64], delta: [u64; 8]) {
        self.record_io(TAG_LOAD, operand, values, delta);
    }

    /// Emits one read record digesting the sensed column values.
    pub fn record_read(&mut self, operand: &Operand, values: &[i64], delta: [u64; 8]) {
        self.record_io(TAG_READ, operand, values, delta);
    }

    /// Appends a detached recorder's encoded fragment verbatim.
    pub fn append_fragment(&mut self, fragment: &[u8]) {
        self.bytes.extend_from_slice(fragment);
    }

    /// Consumes the recorder, returning its raw bytes (fragment use).
    pub fn into_bytes(self) -> Vec<u8> {
        self.bytes
    }

    /// Closes the stream with the per-sample logits digests.
    pub fn finish(mut self, logits_digests: &[u64]) -> ExecutionTrace {
        self.bytes.push(TAG_FOOTER);
        put_varint(&mut self.bytes, logits_digests.len() as u64);
        for digest in logits_digests {
            self.bytes.extend_from_slice(&digest.to_le_bytes());
        }
        ExecutionTrace { bytes: self.bytes }
    }
}

/// A complete recorded trace: header, records, footer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExecutionTrace {
    bytes: Vec<u8>,
}

impl ExecutionTrace {
    /// Wraps raw trace bytes (validated lazily on decode).
    pub fn from_bytes(bytes: Vec<u8>) -> Self {
        ExecutionTrace { bytes }
    }

    /// The raw byte stream.
    pub fn bytes(&self) -> &[u8] {
        &self.bytes
    }

    /// Length of the byte stream.
    pub fn len(&self) -> usize {
        self.bytes.len()
    }

    /// Whether the stream is empty.
    pub fn is_empty(&self) -> bool {
        self.bytes.is_empty()
    }

    /// FNV-1a 64 digest of the whole byte stream — the value the corpus
    /// goldens pin.
    pub fn digest(&self) -> u64 {
        fnv1a(&self.bytes)
    }

    /// Decodes the header.
    ///
    /// # Errors
    ///
    /// Returns [`TraceError::Malformed`] on bad magic, version or encoding.
    pub fn header(&self) -> Result<TraceHeader, TraceError> {
        let mut cursor = Cursor {
            bytes: &self.bytes,
            pos: 0,
        };
        decode_header(&mut cursor)
    }

    /// Decodes the full event stream (header excluded).
    ///
    /// # Errors
    ///
    /// Returns [`TraceError::Malformed`] when the stream is truncated or
    /// contains an unknown record tag.
    pub fn events(&self) -> Result<Vec<TraceEvent>, TraceError> {
        let mut cursor = Cursor {
            bytes: &self.bytes,
            pos: 0,
        };
        decode_header(&mut cursor)?;
        let mut events = Vec::new();
        while !cursor.done() {
            events.push(decode_event(&mut cursor)?);
        }
        Ok(events)
    }
}

fn decode_header(cursor: &mut Cursor<'_>) -> Result<TraceHeader, TraceError> {
    for expected in TRACE_MAGIC {
        if cursor.u8()? != expected {
            return Err(cursor.malformed("bad trace magic"));
        }
    }
    let version = cursor.u8()?;
    if version != TRACE_VERSION {
        return Err(cursor.malformed(format!("unsupported trace version {version}")));
    }
    let label_len = cursor.usize()?;
    let end = cursor.pos + label_len;
    let label = cursor
        .bytes
        .get(cursor.pos..end)
        .ok_or_else(|| cursor.malformed("truncated label"))
        .and_then(|bytes| {
            std::str::from_utf8(bytes).map_err(|_| cursor.malformed("label is not UTF-8"))
        })?
        .to_string();
    cursor.pos = end;
    let act_bits = u8::try_from(cursor.varint()?)
        .map_err(|_| cursor.malformed("act_bits exceeds one byte"))?;
    let batch = cursor.usize()?;
    let grid = (cursor.usize()?, cursor.usize()?);
    Ok(TraceHeader {
        label,
        act_bits,
        batch,
        grid,
    })
}

fn decode_stats(cursor: &mut Cursor<'_>) -> Result<[u64; 8], TraceError> {
    let mut delta = [0u64; 8];
    for slot in &mut delta {
        *slot = cursor.varint()?;
    }
    Ok(delta)
}

fn decode_io(cursor: &mut Cursor<'_>) -> Result<IoRecord, TraceError> {
    Ok(IoRecord {
        index: cursor.varint()?,
        col: cursor.varint()?,
        base: cursor.varint()?,
        width: cursor.u8()?,
        value_digest: cursor.u64_le()?,
        stats_delta: decode_stats(cursor)?,
    })
}

fn decode_event(cursor: &mut Cursor<'_>) -> Result<TraceEvent, TraceError> {
    match cursor.u8()? {
        TAG_UNIT => {
            let mut fields = [0usize; 13];
            for slot in &mut fields {
                *slot = cursor.usize()?;
            }
            Ok(TraceEvent::Unit(UnitFrame {
                node_id: fields[0],
                ordinal: fields[1],
                tile: fields[2],
                rows_start: fields[3],
                rows_len: fields[4],
                outputs_start: fields[5],
                outputs_len: fields[6],
                channels_start: fields[7],
                channels_len: fields[8],
                col_split: fields[9],
                geom_rows: fields[10],
                geom_cols: fields[11],
                geom_domains: fields[12],
            }))
        }
        TAG_INSTRUCTION => {
            let index = cursor.varint()?;
            let kind = cursor.u8()?;
            let cols = cursor.usize()?;
            let written_cols = (0..cols)
                .map(|_| cursor.varint())
                .collect::<Result<Vec<_>, _>>()?;
            Ok(TraceEvent::Instruction(InstrRecord {
                index,
                kind,
                written_cols,
                tag_digest: cursor.u64_le()?,
                write_digest: cursor.u64_le()?,
                stats_delta: decode_stats(cursor)?,
            }))
        }
        TAG_LOAD => Ok(TraceEvent::Load(decode_io(cursor)?)),
        TAG_READ => Ok(TraceEvent::Read(decode_io(cursor)?)),
        TAG_FOOTER => {
            let samples = cursor.usize()?;
            let logits = (0..samples)
                .map(|_| cursor.u64_le())
                .collect::<Result<Vec<_>, _>>()?;
            if !cursor.done() {
                return Err(cursor.malformed("bytes after footer"));
            }
            Ok(TraceEvent::Footer { logits })
        }
        tag => Err(cursor.malformed(format!("unknown record tag {tag:#04x}"))),
    }
}

/// A seeded single-bit fault to inject during a traced run: just before the
/// record with index [`record`](Self::record) executes, the stored bit at
/// (`col`, `domain`, `row`) is flipped via [`cam::BitPlaneArray::flip_bit`].
/// Used by the trace-divergence suite to prove the differ reports exactly the
/// first faulted instruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultSpec {
    /// Record index (within the current unit) to fault before executing.
    pub record: u64,
    /// Column of the flipped bit.
    pub col: usize,
    /// Bit domain of the flipped bit.
    pub domain: usize,
    /// Row of the flipped bit.
    pub row: usize,
}

/// Digest of every region `instruction` wrote, read back from the array
/// after execution (column identity mixed in so distinct layouts with equal
/// contents digest apart).
fn digest_written(engine: &ApEngine, instruction: &ApInstruction) -> ap::Result<u64> {
    let mut digest = FNV_OFFSET_BASIS;
    for (col, base, width) in instruction.written_regions() {
        let column = engine
            .array()
            .column_digest(col, base, width)
            .map_err(ap::ApError::from)?;
        for value in [col as u64, base as u64, u64::from(width), column] {
            digest = fnv1a_extend(digest, &value.to_le_bytes());
        }
    }
    Ok(digest)
}

/// Executes `program` one instruction at a time on `engine`, appending one
/// instruction record per executed instruction to `recorder`. Enables the
/// array's pass log if it is not already on. With a `fault`, the specified
/// bit is flipped immediately before the matching record executes.
///
/// In [`EngineMode::Plan`] each instruction runs as a one-instruction
/// program lowered through [`CompileCache::plan`]; instructions repeat
/// heavily across slices and units, so each distinct `(instruction,
/// geometry)` pair is lowered once. Both modes append byte-identical
/// records for the same program and array state.
///
/// # Errors
///
/// Propagates execution errors from the engine; the instructions recorded
/// before the failure remain in `recorder`.
pub fn trace_program(
    engine: &mut ApEngine,
    program: &ApProgram,
    mode: EngineMode,
    cache: &CompileCache,
    recorder: &mut TraceRecorder,
    fault: Option<&FaultSpec>,
) -> ap::Result<()> {
    let geometry = PlanGeometry::of(engine.array());
    if !engine.array().pass_log_enabled() {
        engine.array_mut().enable_pass_log();
    }
    for instruction in program.iter() {
        if let Some(fault) = fault {
            if fault.record == recorder.next_index() {
                engine
                    .array_mut()
                    .flip_bit(fault.col, fault.domain, fault.row)
                    .map_err(ap::ApError::from)?;
            }
        }
        let before = engine.stats();
        match mode {
            EngineMode::Interpreter => engine.execute(instruction)?,
            EngineMode::Plan => {
                let program = ApProgram::from_instructions(vec![instruction.clone()]);
                engine.run_plan(&cache.plan(&program, geometry))?;
            }
        }
        let passes = engine.array_mut().take_pass_log();
        let delta = stats_delta(before, engine.stats());
        let write_digest = digest_written(engine, instruction)?;
        recorder.record_instruction(instruction, &passes, write_digest, delta);
    }
    Ok(())
}

/// [`ApEngine::load_column`] plus a load record in `recorder`.
///
/// # Errors
///
/// Propagates the engine's load errors (nothing is recorded on failure).
pub fn traced_load(
    engine: &mut ApEngine,
    operand: &Operand,
    values: &[i64],
    recorder: &mut TraceRecorder,
) -> ap::Result<()> {
    let before = engine.stats();
    engine.load_column(operand, values)?;
    recorder.record_load(operand, values, stats_delta(before, engine.stats()));
    Ok(())
}

/// [`ApEngine::read_column_into`] plus a read record in `recorder`: the
/// sensed column is appended to `out`.
///
/// # Errors
///
/// Propagates the engine's read errors (nothing is recorded on failure).
pub fn traced_read(
    engine: &mut ApEngine,
    operand: &Operand,
    recorder: &mut TraceRecorder,
    out: &mut Vec<i64>,
) -> ap::Result<()> {
    let before = engine.stats();
    let start = out.len();
    engine.read_column_into(operand, out)?;
    recorder.record_read(operand, &out[start..], stats_delta(before, engine.stats()));
    Ok(())
}

/// The first point where two traces disagree, with enough context to act on:
/// the record ordinal, the unit it belongs to, both decoded events, and the
/// first differing field.
#[derive(Debug, Clone, PartialEq)]
pub struct Divergence {
    /// 0-based ordinal of the diverging event in the decoded stream
    /// (unit frames included, header excluded).
    pub ordinal: usize,
    /// The unit frame in effect at the divergence, if any.
    pub unit: Option<UnitFrame>,
    /// The event of the left trace (`None` when it ended early).
    pub left: Option<TraceEvent>,
    /// The event of the right trace (`None` when it ended early).
    pub right: Option<TraceEvent>,
    /// The first differing field, e.g. `"tag_digest"`.
    pub field: &'static str,
}

impl Divergence {
    /// The in-unit record index of the diverging record, if it is an
    /// instruction/load/read record (the fault-injection suites key on this).
    pub fn record_index(&self) -> Option<u64> {
        match self.left.as_ref().or(self.right.as_ref())? {
            TraceEvent::Instruction(record) => Some(record.index),
            TraceEvent::Load(record) | TraceEvent::Read(record) => Some(record.index),
            TraceEvent::Unit(_) | TraceEvent::Footer { .. } => None,
        }
    }
}

impl fmt::Display for Divergence {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "first divergence at event {}", self.ordinal)?;
        if let Some(unit) = &self.unit {
            write!(
                f,
                " (node {} unit {} tile {})",
                unit.node_id, unit.ordinal, unit.tile
            )?;
        }
        write!(f, ", field `{}`:", self.field)?;
        match (&self.left, &self.right) {
            (Some(left), Some(right)) => {
                write!(f, " left {left:?} vs right {right:?}")
            }
            (Some(left), None) => {
                write!(f, " right trace ended before {} event", left.kind_label())
            }
            (None, Some(right)) => {
                write!(f, " left trace ended before {} event", right.kind_label())
            }
            (None, None) => write!(f, " both traces ended"),
        }
    }
}

/// Streams two traces and reports their first divergence.
#[derive(Debug, Clone, Copy)]
pub struct TraceDiff;

/// The first differing field of two equal-kind events, or `None`.
fn diverging_field(left: &TraceEvent, right: &TraceEvent) -> Option<&'static str> {
    match (left, right) {
        (TraceEvent::Unit(l), TraceEvent::Unit(r)) => {
            if l == r {
                None
            } else if l.node_id != r.node_id {
                Some("node_id")
            } else if l.ordinal != r.ordinal {
                Some("ordinal")
            } else {
                Some("unit_frame")
            }
        }
        (TraceEvent::Instruction(l), TraceEvent::Instruction(r)) => {
            if l.index != r.index {
                Some("index")
            } else if l.kind != r.kind {
                Some("kind")
            } else if l.written_cols != r.written_cols {
                Some("written_cols")
            } else if l.tag_digest != r.tag_digest {
                Some("tag_digest")
            } else if l.write_digest != r.write_digest {
                Some("write_digest")
            } else if l.stats_delta != r.stats_delta {
                Some("stats_delta")
            } else {
                None
            }
        }
        (TraceEvent::Load(l), TraceEvent::Load(r)) | (TraceEvent::Read(l), TraceEvent::Read(r)) => {
            if l.index != r.index {
                Some("index")
            } else if (l.col, l.base, l.width) != (r.col, r.base, r.width) {
                Some("operand")
            } else if l.value_digest != r.value_digest {
                Some("value_digest")
            } else if l.stats_delta != r.stats_delta {
                Some("stats_delta")
            } else {
                None
            }
        }
        (TraceEvent::Footer { logits: l }, TraceEvent::Footer { logits: r }) => {
            (l != r).then_some("logits")
        }
        _ => Some("event_kind"),
    }
}

impl TraceDiff {
    /// Compares two traces and returns the first diverging record with full
    /// context, or `None` when the byte streams are identical.
    ///
    /// # Errors
    ///
    /// Returns [`TraceError::Malformed`] when either stream fails to decode
    /// up to the point of comparison.
    pub fn first_divergence(
        left: &ExecutionTrace,
        right: &ExecutionTrace,
    ) -> Result<Option<Divergence>, TraceError> {
        if left.bytes == right.bytes {
            return Ok(None);
        }
        let left_header = left.header()?;
        let right_header = right.header()?;
        if left_header != right_header {
            return Ok(Some(Divergence {
                ordinal: 0,
                unit: None,
                left: None,
                right: None,
                field: "header",
            }));
        }
        let left_events = left.events()?;
        let right_events = right.events()?;
        let mut unit: Option<UnitFrame> = None;
        for (ordinal, pair) in left_events.iter().zip(&right_events).enumerate() {
            let (l, r) = pair;
            if let Some(field) = diverging_field(l, r) {
                return Ok(Some(Divergence {
                    ordinal,
                    unit,
                    left: Some(l.clone()),
                    right: Some(r.clone()),
                    field,
                }));
            }
            if let TraceEvent::Unit(frame) = l {
                unit = Some(*frame);
            }
        }
        let ordinal = left_events.len().min(right_events.len());
        Ok(Some(Divergence {
            ordinal,
            unit,
            left: left_events.get(ordinal).cloned(),
            right: right_events.get(ordinal).cloned(),
            field: "length",
        }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ap::CarrySlot;
    use cam::{BitPlaneArray, CamTechnology};

    fn engine(rows: usize) -> ApEngine {
        let array =
            BitPlaneArray::new(rows, 8, 16, CamTechnology::default()).expect("valid geometry");
        ApEngine::new(array)
    }

    fn add_program() -> ApProgram {
        ApProgram::from_instructions(vec![
            ApInstruction::Clear {
                dst: Operand::new(2, 0, 5, true),
            },
            ApInstruction::AddOutOfPlace {
                a: Operand::new(0, 0, 4, false),
                b: Operand::new(1, 0, 4, false),
                dests: vec![Operand::new(2, 0, 5, true)],
                carry: CarrySlot::new(7, 0),
            },
            ApInstruction::AddInPlace {
                a: Operand::new(0, 0, 4, false),
                acc: Operand::new(2, 0, 5, true),
                carry: CarrySlot::new(7, 1),
            },
        ])
    }

    fn trace_with(mode: EngineMode, fault: Option<&FaultSpec>) -> ExecutionTrace {
        let mut engine = engine(6);
        engine
            .load_column(&Operand::new(0, 0, 4, false), &[1, 2, 3, 4, 5, 6])
            .expect("load a");
        engine
            .load_column(&Operand::new(1, 0, 4, false), &[3, 1, 4, 1, 5, 9])
            .expect("load b");
        let cache = CompileCache::new();
        let mut recorder = TraceRecorder::new(&TraceHeader {
            label: "unit-test".to_string(),
            act_bits: 4,
            batch: 1,
            grid: (1, 1),
        });
        trace_program(
            &mut engine,
            &add_program(),
            mode,
            &cache,
            &mut recorder,
            fault,
        )
        .expect("traced run");
        recorder.finish(&[])
    }

    #[test]
    fn varints_round_trip() {
        let values = [0u64, 1, 127, 128, 300, u64::from(u32::MAX), u64::MAX];
        let mut buf = Vec::new();
        for &value in &values {
            put_varint(&mut buf, value);
        }
        let mut cursor = Cursor {
            bytes: &buf,
            pos: 0,
        };
        for &value in &values {
            assert_eq!(cursor.varint().expect("decode"), value);
        }
        assert!(cursor.done());
    }

    #[test]
    fn interpreter_and_plan_traces_are_byte_identical() {
        let interpreted = trace_with(EngineMode::Interpreter, None);
        let planned = trace_with(EngineMode::Plan, None);
        assert_eq!(interpreted.bytes(), planned.bytes());
        assert_eq!(
            TraceDiff::first_divergence(&interpreted, &planned).expect("diff"),
            None
        );
        // The stream decodes into one record per instruction.
        let events = interpreted.events().expect("decode");
        let records = events
            .iter()
            .filter(|event| matches!(event, TraceEvent::Instruction(_)))
            .count();
        assert_eq!(records, 3);
    }

    #[test]
    fn injected_fault_diverges_at_the_faulted_record() {
        let clean = trace_with(EngineMode::Interpreter, None);
        // Flip a bit of operand `a` right before the add-in-place executes.
        let fault = FaultSpec {
            record: 2,
            col: 0,
            domain: 1,
            row: 3,
        };
        let faulted = trace_with(EngineMode::Interpreter, Some(&fault));
        let divergence = TraceDiff::first_divergence(&clean, &faulted)
            .expect("diff")
            .expect("traces differ");
        assert_eq!(divergence.record_index(), Some(2));
        // The fault surfaces in the pass populations or the written data.
        assert!(
            matches!(
                divergence.field,
                "tag_digest" | "write_digest" | "stats_delta"
            ),
            "unexpected field {}",
            divergence.field
        );
        let rendered = divergence.to_string();
        assert!(rendered.contains("divergence"), "{rendered}");
    }

    #[test]
    fn header_round_trips() {
        let trace = trace_with(EngineMode::Interpreter, None);
        let header = trace.header().expect("header");
        assert_eq!(header.label, "unit-test");
        assert_eq!(header.act_bits, 4);
        assert_eq!(header.batch, 1);
        assert_eq!(header.grid, (1, 1));
        // A corrupted stream reports a decode error instead of panicking.
        let mut broken = trace.bytes().to_vec();
        broken[0] ^= 0xff;
        assert!(ExecutionTrace::from_bytes(broken).header().is_err());
    }
}
