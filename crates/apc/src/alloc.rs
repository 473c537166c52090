//! Operand-column allocation by interference-graph colouring (§IV-B).
//!
//! CSE temporaries are treated like registers: every derived signal must live in a
//! CAM column from its definition until its last use. The scheduler orders signal
//! definitions lazily (a signal is materialised right before its first consumer), so
//! live ranges form intervals; the interference graph built over those intervals is
//! an interval graph, for which greedy colouring in definition order uses the
//! minimum number of columns.

use crate::dfg::Dfg;
use crate::expr::{SignalDef, SignalId};

/// One step of the slice schedule.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Event {
    /// Materialise a derived (CSE) signal into its temporary column.
    DefineSignal(SignalId),
    /// Combine the terms of output `index` and accumulate them into its partial-sum
    /// column.
    AccumulateOutput(usize),
}

/// The result of scheduling and colouring one slice DFG.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Allocation {
    /// Schedule of definition and accumulation events.
    pub schedule: Vec<Event>,
    /// Temporary-column index of each derived signal, indexed by the signal's
    /// position among the derived signals (`signal − inputs`); `None` for a
    /// signal no output uses.
    pub signal_columns: Vec<Option<usize>>,
    /// Number of patch-input signals of the DFG (the id of its first derived
    /// signal).
    pub inputs: usize,
    /// Number of distinct temporary columns required.
    pub temp_columns_used: usize,
}

impl Allocation {
    /// The temporary column of `signal`, if it is a derived signal.
    pub fn column_of(&self, signal: SignalId) -> Option<usize> {
        let derived = signal.checked_sub(self.inputs)?;
        self.signal_columns.get(derived).copied().flatten()
    }
}

/// Schedules the DFG (lazy signal definition, outputs in order) and assigns
/// temporary columns to derived signals by colouring the interference graph.
///
/// # Example
///
/// ```
/// use apc::alloc::allocate;
/// use apc::dfg::Dfg;
///
/// let mut dfg = Dfg::equation1();
/// dfg.apply_cse().expect("cse");
/// let allocation = allocate(&dfg);
/// assert!(allocation.temp_columns_used <= dfg.signals.derived());
/// assert_eq!(allocation.signal_columns.len(), dfg.signals.derived());
/// ```
pub fn allocate(dfg: &Dfg) -> Allocation {
    let mut allocation = Allocation::default();
    Allocator::default().allocate(dfg, &mut allocation);
    allocation
}

/// The scratch state of [`allocate`], kept between slices by the compiler's
/// slice walk so that scheduling and colouring allocate nothing once it has
/// grown.
#[derive(Debug, Default)]
pub(crate) struct Allocator {
    /// Whether each signal is already scheduled, by signal id.
    defined: Vec<bool>,
    /// Schedule position of each derived signal's last use, by signal id.
    last_use: Vec<usize>,
    /// Per temporary column, the last use of the signal that holds it.
    busy_until: Vec<usize>,
}

impl Allocator {
    /// [`allocate`] into `allocation`, reusing its storage and this scratch.
    pub(crate) fn allocate(&mut self, dfg: &Dfg, allocation: &mut Allocation) {
        let inputs = dfg.signals.inputs();
        let signals = dfg.signals.len();
        let schedule = &mut allocation.schedule;
        schedule.clear();
        self.defined.clear();
        self.defined.resize(signals, false);
        self.last_use.clear();
        self.last_use.resize(signals, 0);

        // The schedule grows in position order, so the last use of a derived
        // signal is the last position recorded for it while scheduling.
        for (index, output) in dfg.outputs.iter().enumerate() {
            for &(signal, _) in output.terms() {
                self.define(signal, dfg, schedule);
            }
            for &(signal, _) in output.terms() {
                if signal >= inputs {
                    self.last_use[signal] = schedule.len();
                }
            }
            schedule.push(Event::AccumulateOutput(index));
        }

        // Greedy colouring of the interference graph in definition order (optimal for
        // interval graphs): each signal takes the lowest column no live signal holds.
        // An earlier signal interferes with the one being defined exactly when it is
        // still live at that definition, and of the signals that held a column only the
        // latest can be, so one "busy until" position per column decides.
        let busy_until = &mut self.busy_until;
        busy_until.clear();
        allocation.signal_columns.clear();
        allocation
            .signal_columns
            .resize(dfg.signals.derived(), None);
        for (defined_at, event) in schedule.iter().enumerate() {
            let Event::DefineSignal(signal) = *event else {
                continue;
            };
            let color = match busy_until.iter().position(|&until| until < defined_at) {
                Some(color) => color,
                None => {
                    busy_until.push(0);
                    busy_until.len() - 1
                }
            };
            busy_until[color] = self.last_use[signal];
            allocation.signal_columns[signal - inputs] = Some(color);
        }
        allocation.inputs = inputs;
        allocation.temp_columns_used = busy_until.len();
    }

    /// Lazily defines derived `signal`, after its derived operands, right
    /// before its first use; records the uses its definition makes.
    fn define(&mut self, signal: SignalId, dfg: &Dfg, schedule: &mut Vec<Event>) {
        let inputs = dfg.signals.inputs();
        if signal < inputs || self.defined[signal] {
            return;
        }
        if let Some(&SignalDef::Combine { lhs, rhs, .. }) = dfg.signals.def(signal) {
            self.define(lhs, dfg, schedule);
            self.define(rhs, dfg, schedule);
            for operand in [lhs, rhs] {
                if operand >= inputs {
                    self.last_use[operand] = schedule.len();
                }
            }
        }
        self.defined[signal] = true;
        self.last_use[signal] = schedule.len();
        schedule.push(Event::DefineSignal(signal));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dfg::WeightSlice;
    use rand::{Rng, SeedableRng};
    use rand_chacha::ChaCha8Rng;
    use std::collections::HashMap;

    fn random_dfg(seed: u64, outputs: usize, patch: usize, cse: bool) -> Dfg {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let rows: Vec<Vec<i8>> = (0..outputs)
            .map(|_| {
                (0..patch)
                    .map(|_| [0i8, 0, 1, -1][rng.gen_range(0..4)])
                    .collect()
            })
            .collect();
        let mut dfg = Dfg::from_slice(&WeightSlice::from_rows(rows).expect("slice"));
        if cse {
            dfg.apply_cse().expect("cse");
        }
        dfg
    }

    #[test]
    fn schedule_defines_signals_before_use() {
        let mut dfg = Dfg::equation1();
        dfg.apply_cse().expect("cse");
        let allocation = allocate(&dfg);
        let mut defined = std::collections::HashSet::new();
        for event in &allocation.schedule {
            match event {
                Event::DefineSignal(s) => {
                    if let Some(SignalDef::Combine { lhs, rhs, .. }) = dfg.signals.def(*s) {
                        for operand in [*lhs, *rhs] {
                            if operand >= dfg.signals.inputs() {
                                assert!(
                                    defined.contains(&operand),
                                    "signal {operand} used before definition"
                                );
                            }
                        }
                    }
                    defined.insert(*s);
                }
                Event::AccumulateOutput(index) => {
                    for (signal, _) in dfg.outputs[*index].iter() {
                        if signal >= dfg.signals.inputs() {
                            assert!(
                                defined.contains(&signal),
                                "signal {signal} used before definition"
                            );
                        }
                    }
                }
            }
        }
        // Every output appears exactly once.
        let accumulations = allocation
            .schedule
            .iter()
            .filter(|e| matches!(e, Event::AccumulateOutput(_)))
            .count();
        assert_eq!(accumulations, dfg.outputs.len());
    }

    #[test]
    fn colouring_is_conflict_free() {
        for seed in 0..8 {
            let dfg = random_dfg(seed, 48, 9, true);
            let allocation = allocate(&dfg);
            // Recompute live ranges and check that no two signals sharing a column overlap.
            let position_of_def: HashMap<SignalId, usize> = allocation
                .schedule
                .iter()
                .enumerate()
                .filter_map(|(i, e)| match e {
                    Event::DefineSignal(s) => Some((*s, i)),
                    _ => None,
                })
                .collect();
            let mut last_use: HashMap<SignalId, usize> = position_of_def.clone();
            for (i, event) in allocation.schedule.iter().enumerate() {
                match event {
                    Event::DefineSignal(s) => {
                        if let Some(SignalDef::Combine { lhs, rhs, .. }) = dfg.signals.def(*s) {
                            for operand in [*lhs, *rhs] {
                                if position_of_def.contains_key(&operand) {
                                    last_use.insert(operand, i);
                                }
                            }
                        }
                    }
                    Event::AccumulateOutput(index) => {
                        for (signal, _) in dfg.outputs[*index].iter() {
                            if position_of_def.contains_key(&signal) {
                                last_use.insert(signal, i);
                            }
                        }
                    }
                }
            }
            let signals: Vec<SignalId> = position_of_def.keys().copied().collect();
            for &a in &signals {
                for &b in &signals {
                    if a == b || allocation.column_of(a) != allocation.column_of(b) {
                        continue;
                    }
                    let overlap =
                        position_of_def[&a] <= last_use[&b] && position_of_def[&b] <= last_use[&a];
                    assert!(
                        !overlap,
                        "signals {a} and {b} share a column but overlap (seed {seed})"
                    );
                }
            }
        }
    }

    #[test]
    fn column_reuse_beats_one_column_per_signal() {
        // With many outputs and signals, reuse should need fewer columns than signals.
        let dfg = random_dfg(42, 128, 9, true);
        let allocation = allocate(&dfg);
        assert!(
            allocation.signal_columns.len() > 4,
            "test needs a few signals to be meaningful"
        );
        assert!(allocation.temp_columns_used <= allocation.signal_columns.len());
    }

    #[test]
    fn dfg_without_cse_needs_no_temporaries() {
        let dfg = random_dfg(1, 16, 9, false);
        let allocation = allocate(&dfg);
        assert_eq!(allocation.temp_columns_used, 0);
        assert!(allocation.signal_columns.is_empty());
    }
}
