//! The golden workload corpus: checked-in workload specs with pinned
//! trace/logit digests, runnable as a suite.
//!
//! Each `tests/corpus/*.json` file describes one workload — model family ×
//! channels × activation bits × tile grid × batch — together with its
//! **golden digests**: the FNV-1a digest of the full execution trace
//! ([`ExecutionTrace::digest`]) and one logits digest per sample. A corpus
//! run ([`run_spec`]) executes the workload through **both** engines (the
//! compiled-plan path and the reference interpreter), diffs the two traces
//! with [`TraceDiff`], and checks the plan trace and logits against the
//! goldens — so a single spec simultaneously pins engine equivalence,
//! counter accounting, I/O values and final logits across processes, thread
//! counts and engine paths.
//!
//! The suite is driven two ways:
//!
//! - `cargo run -p camdnn-bench --bin corpus` prints pass/fail/diverged-at
//!   per spec (`--bless` refreshes the goldens in place), and
//! - `tests/corpus_golden.rs` runs every checked-in spec in CI.

use crate::functional::{EngineMode, FunctionalBackend};
use crate::trace::{self, Divergence, ExecutionTrace, TraceDiff};
use crate::BatchReport;
use accel::ArchConfig;
use apc::{ApcError, CompileCache, CompilerOptions, TileGrid};
use serde::{Deserialize, Serialize};
use std::fmt;
use std::path::{Path, PathBuf};
use tnn::model::{dw_sep_cnn, micro_cnn, micro_mixer, ModelGraph};
use tnn::Tensor;

/// The pinned digests of one corpus workload.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct GoldenDigests {
    /// Hex digest (`0x…`, 16 nibbles) of the whole execution trace.
    pub trace: String,
    /// Hex digest per sample of the final logits, in batch order.
    pub logits: Vec<String>,
}

/// One checked-in corpus workload: the model configuration, the execution
/// configuration, and the golden digests a run must reproduce.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CorpusSpec {
    /// Workload name (also the model name, so it lands in the trace header).
    pub name: String,
    /// Model family: `micro_cnn`, `dw_sep` or `mixer`.
    pub family: String,
    /// Channel width passed to the family builder.
    pub channels: usize,
    /// Weight sparsity of the synthetic ternary weights.
    pub sparsity: f64,
    /// Weight seed of the synthetic ternary weights.
    pub seed: u64,
    /// Activation precision, in bits.
    pub act_bits: u8,
    /// Number of batched samples.
    pub batch: usize,
    /// Tile grid `[rows, cols]` the run partitions over.
    pub grid: Vec<usize>,
    /// Base seed of the staged synthetic inputs.
    pub input_seed: u64,
    /// The digests a run must reproduce.
    pub golden: GoldenDigests,
}

/// One executed corpus workload's evidence.
#[derive(Debug, Clone)]
pub struct SpecRun {
    /// The plan-path batch report (logits, counters, partition accounting).
    pub report: BatchReport,
    /// The plan-path execution trace.
    pub trace: ExecutionTrace,
    /// FNV-1a digest per sample of the final logits, in batch order.
    pub logits_digests: Vec<u64>,
    /// First divergence between the plan and interpreter traces, if any.
    pub divergence: Option<Divergence>,
}

/// The verdict of checking a [`SpecRun`] against its spec's goldens.
#[derive(Debug, Clone, PartialEq)]
pub enum SpecStatus {
    /// Both engines agreed and every digest matched the goldens.
    Pass,
    /// The plan and interpreter traces diverged (engine bug): the first
    /// diverging record, with context. Boxed — a [`Divergence`] carries both
    /// decoded events, dwarfing the other variants.
    Diverged(Box<Divergence>),
    /// Engines agreed but the trace digest drifted from the golden.
    TraceMismatch {
        /// The recorded trace digest (hex).
        got: String,
        /// The golden trace digest (hex).
        want: String,
    },
    /// Trace matched but a sample's logits digest drifted from the golden.
    LogitsMismatch {
        /// Index of the first mismatching sample.
        sample: usize,
        /// The recorded logits digest (hex).
        got: String,
        /// The golden logits digest (hex).
        want: String,
    },
}

impl SpecStatus {
    /// Whether the run reproduced the goldens.
    pub fn is_pass(&self) -> bool {
        matches!(self, SpecStatus::Pass)
    }
}

impl fmt::Display for SpecStatus {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SpecStatus::Pass => write!(f, "pass"),
            SpecStatus::Diverged(divergence) => write!(f, "DIVERGED: {divergence}"),
            SpecStatus::TraceMismatch { got, want } => {
                write!(f, "TRACE MISMATCH: got {got}, golden {want}")
            }
            SpecStatus::LogitsMismatch { sample, got, want } => {
                write!(
                    f,
                    "LOGITS MISMATCH: sample {sample} got {got}, golden {want}"
                )
            }
        }
    }
}

/// One loaded corpus file: where it lives and what it specifies.
#[derive(Debug, Clone)]
pub struct CorpusEntry {
    /// Path of the JSON spec file.
    pub path: PathBuf,
    /// The parsed spec.
    pub spec: CorpusSpec,
}

/// Formats a digest the way the corpus files pin it: `0x` + 16 hex nibbles.
pub fn digest_hex(digest: u64) -> String {
    format!("{digest:#018x}")
}

/// The checked-in corpus directory (`tests/corpus/` at the repository root).
pub fn corpus_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../../tests/corpus")
}

fn invalid(reason: impl Into<String>) -> ApcError {
    ApcError::InvalidArgument {
        reason: reason.into(),
    }
}

/// Loads every `*.json` spec in the corpus directory, sorted by filename so
/// suite output and CI logs are stable.
///
/// # Errors
///
/// Returns [`ApcError::InvalidArgument`] when the directory is unreadable or
/// a spec fails to parse (the offending path is named in the message).
pub fn load_specs() -> apc::Result<Vec<CorpusEntry>> {
    load_specs_from(&corpus_dir())
}

/// [`load_specs`] against an explicit directory (used by the bless
/// round-trip tests, which stage a scratch corpus).
///
/// # Errors
///
/// Same as [`load_specs`].
pub fn load_specs_from(dir: &Path) -> apc::Result<Vec<CorpusEntry>> {
    let entries = std::fs::read_dir(dir)
        .map_err(|e| invalid(format!("cannot read corpus dir {}: {e}", dir.display())))?;
    let mut paths: Vec<PathBuf> = entries
        .filter_map(|entry| entry.ok().map(|e| e.path()))
        .filter(|path| path.extension().is_some_and(|ext| ext == "json"))
        .collect();
    paths.sort();
    paths
        .into_iter()
        .map(|path| {
            let text = std::fs::read_to_string(&path)
                .map_err(|e| invalid(format!("cannot read {}: {e}", path.display())))?;
            let spec = CorpusSpec::from_json(&text)
                .map_err(|e| invalid(format!("cannot parse {}: {e}", path.display())))?;
            Ok(CorpusEntry { path, spec })
        })
        .collect()
}

/// Builds the spec's model from its family, channels, sparsity and seed.
///
/// # Errors
///
/// Returns [`ApcError::InvalidArgument`] for an unknown family name.
pub fn model_for(spec: &CorpusSpec) -> apc::Result<ModelGraph> {
    match spec.family.as_str() {
        "micro_cnn" => Ok(micro_cnn(
            &spec.name,
            spec.channels,
            spec.sparsity,
            spec.seed,
        )),
        "dw_sep" => Ok(dw_sep_cnn(
            &spec.name,
            spec.channels,
            spec.sparsity,
            spec.seed,
        )),
        "mixer" => Ok(micro_mixer(
            &spec.name,
            spec.channels,
            spec.sparsity,
            spec.seed,
        )),
        family => Err(invalid(format!(
            "unknown corpus model family `{family}` (expected micro_cnn, dw_sep or mixer)"
        ))),
    }
}

/// Executes one corpus workload through both engines and diffs the traces.
///
/// The returned [`SpecRun`] carries the plan path's report, trace and logits
/// digests plus the first plan/interpreter divergence if the engines
/// disagreed. Verdicts against the goldens come from [`CorpusSpec::check`].
///
/// # Errors
///
/// Returns the compilation/execution errors of the functional backend, or
/// [`ApcError::InvalidArgument`] for a malformed spec (unknown family, grid
/// not `[rows, cols]`).
pub fn run_spec(spec: &CorpusSpec) -> apc::Result<SpecRun> {
    let model = model_for(spec)?;
    let [rows, cols] = spec.grid[..] else {
        return Err(invalid(format!(
            "spec `{}` grid must be [rows, cols], got {:?}",
            spec.name, spec.grid
        )));
    };
    let options = CompilerOptions::default().with_act_bits(spec.act_bits);
    let base = FunctionalBackend::new(ArchConfig::default(), options)
        .with_tile_grid(TileGrid::new(rows, cols))
        .with_input_seed(spec.input_seed);
    let cache = CompileCache::new();
    let inputs: Vec<Tensor<i64>> = (0..spec.batch)
        .map(|sample| {
            FunctionalBackend::input_for_sample(&model, spec.act_bits, spec.input_seed, sample)
        })
        .collect();
    let (report, plan_trace) = base
        .clone()
        .with_engine_mode(EngineMode::Plan)
        .run_batch_traced(&model, &inputs, &cache)?;
    let (_, interp_trace) = base
        .with_engine_mode(EngineMode::Interpreter)
        .run_batch_traced(&model, &inputs, &cache)?;
    let divergence = TraceDiff::first_divergence(&plan_trace, &interp_trace).map_err(|e| {
        ApcError::Internal {
            reason: format!("trace decode failed while diffing engines: {e}"),
        }
    })?;
    let logits_digests = report
        .samples
        .iter()
        .map(|sample| trace::fnv1a_i64s(&sample.logits))
        .collect();
    Ok(SpecRun {
        report,
        trace: plan_trace,
        logits_digests,
        divergence,
    })
}

impl CorpusSpec {
    /// Checks a run's evidence against this spec's goldens: engine
    /// divergence first, then the trace digest, then per-sample logits.
    pub fn check(&self, run: &SpecRun) -> SpecStatus {
        if let Some(divergence) = &run.divergence {
            return SpecStatus::Diverged(Box::new(divergence.clone()));
        }
        let trace_digest = digest_hex(run.trace.digest());
        if trace_digest != self.golden.trace {
            return SpecStatus::TraceMismatch {
                got: trace_digest,
                want: self.golden.trace.clone(),
            };
        }
        for (sample, &digest) in run.logits_digests.iter().enumerate() {
            let got = digest_hex(digest);
            let want = self.golden.logits.get(sample).cloned().unwrap_or_default();
            if got != want {
                return SpecStatus::LogitsMismatch { sample, got, want };
            }
        }
        if run.logits_digests.len() != self.golden.logits.len() {
            return SpecStatus::LogitsMismatch {
                sample: run.logits_digests.len(),
                got: String::new(),
                want: self
                    .golden
                    .logits
                    .get(run.logits_digests.len())
                    .cloned()
                    .unwrap_or_default(),
            };
        }
        SpecStatus::Pass
    }

    /// A copy of this spec with the goldens refreshed from `run` — what
    /// `--bless` writes back to disk.
    #[must_use]
    pub fn blessed(&self, run: &SpecRun) -> CorpusSpec {
        let mut spec = self.clone();
        spec.golden = GoldenDigests {
            trace: digest_hex(run.trace.digest()),
            logits: run.logits_digests.iter().copied().map(digest_hex).collect(),
        };
        spec
    }

    /// Parses a spec from its JSON file contents.
    ///
    /// # Errors
    ///
    /// Returns [`ApcError::InvalidArgument`] on malformed JSON.
    pub fn from_json(text: &str) -> apc::Result<CorpusSpec> {
        serde_json::from_str(text).map_err(|e| invalid(format!("bad corpus spec: {e}")))
    }

    /// Renders the spec as the stable, human-diffable JSON the corpus files
    /// are stored in (2-space indentation, fixed key order) — byte-stable
    /// under a parse/render round trip so `--bless` on an up-to-date corpus
    /// produces no diff.
    pub fn to_json(&self) -> String {
        let string = |text: &str| serde_json::to_string(text).expect("a string always renders");
        let mut out = String::with_capacity(512);
        out.push_str("{\n");
        out.push_str(&format!("  \"name\": {},\n", string(&self.name)));
        out.push_str(&format!("  \"family\": {},\n", string(&self.family)));
        out.push_str(&format!("  \"channels\": {},\n", self.channels));
        out.push_str(&format!("  \"sparsity\": {:?},\n", self.sparsity));
        out.push_str(&format!("  \"seed\": {},\n", self.seed));
        out.push_str(&format!("  \"act_bits\": {},\n", self.act_bits));
        out.push_str(&format!("  \"batch\": {},\n", self.batch));
        let grid: Vec<String> = self.grid.iter().map(usize::to_string).collect();
        out.push_str(&format!("  \"grid\": [{}],\n", grid.join(", ")));
        out.push_str(&format!("  \"input_seed\": {},\n", self.input_seed));
        out.push_str("  \"golden\": {\n");
        out.push_str(&format!("    \"trace\": {},\n", string(&self.golden.trace)));
        out.push_str("    \"logits\": [\n");
        for (i, digest) in self.golden.logits.iter().enumerate() {
            let comma = if i + 1 < self.golden.logits.len() {
                ","
            } else {
                ""
            };
            out.push_str(&format!("      {}{comma}\n", string(digest)));
        }
        out.push_str("    ]\n");
        out.push_str("  }\n");
        out.push_str("}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_spec() -> CorpusSpec {
        CorpusSpec {
            name: "unit-spec".to_string(),
            family: "micro_cnn".to_string(),
            channels: 4,
            sparsity: 0.8,
            seed: 7,
            act_bits: 4,
            batch: 2,
            grid: vec![1, 1],
            input_seed: 0,
            golden: GoldenDigests {
                trace: "0x0000000000000000".to_string(),
                logits: vec![
                    "0x0000000000000000".to_string(),
                    "0x0000000000000001".to_string(),
                ],
            },
        }
    }

    #[test]
    fn spec_json_round_trips_byte_stably() {
        let spec = sample_spec();
        let rendered = spec.to_json();
        let parsed = CorpusSpec::from_json(&rendered).expect("parse");
        assert_eq!(parsed, spec);
        // Render → parse → render is byte-identical: bless is idempotent.
        assert_eq!(parsed.to_json(), rendered);
    }

    #[test]
    fn control_characters_render_escaped_and_round_trip() {
        let mut spec = sample_spec();
        spec.name = "tab\there\nnew line \u{1} \"quoted\" back\\slash".to_string();
        spec.family = "fam\rily\u{1f}".to_string();
        spec.golden.trace = "0x\u{7}".to_string();
        spec.golden.logits[1] = "\u{0}".to_string();
        let rendered = spec.to_json();
        // The only raw control bytes are the layout's own line breaks.
        assert!(
            !rendered.bytes().any(|b| b < 0x20 && b != b'\n'),
            "{rendered}"
        );
        assert_eq!(
            rendered.lines().count(),
            sample_spec().to_json().lines().count()
        );
        let parsed = CorpusSpec::from_json(&rendered).expect("parse");
        assert_eq!(parsed, spec);
        assert_eq!(parsed.to_json(), rendered);
    }

    #[test]
    fn unknown_family_is_rejected_with_context() {
        let mut spec = sample_spec();
        spec.family = "transformer".to_string();
        let error = model_for(&spec).expect_err("unknown family");
        assert!(error.to_string().contains("transformer"));
    }

    #[test]
    fn blessed_goldens_make_the_run_pass() {
        let mut spec = sample_spec();
        spec.batch = 1;
        let run = run_spec(&spec).expect("corpus run");
        // Stale goldens report which digest drifted...
        assert!(!spec.check(&run).is_pass());
        // ...and blessing pins exactly what the run produced.
        let blessed = spec.blessed(&run);
        assert!(blessed.check(&run).is_pass(), "{}", blessed.check(&run));
        assert_eq!(blessed.golden.logits.len(), 1);
    }
}
