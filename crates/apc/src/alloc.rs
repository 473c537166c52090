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
use std::collections::HashMap;

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
    /// Temporary-column index assigned to each derived signal.
    pub signal_columns: HashMap<SignalId, usize>,
    /// Number of distinct temporary columns required.
    pub temp_columns_used: usize,
}

impl Allocation {
    /// The temporary column of `signal`, if it is a derived signal.
    pub fn column_of(&self, signal: SignalId) -> Option<usize> {
        self.signal_columns.get(&signal).copied()
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
    let inputs = dfg.signals.inputs();
    let mut schedule = Vec::new();
    let mut defined = vec![false; dfg.signals.len()];

    // Lazily define a derived signal (and its derived dependencies) before first use.
    fn ensure_defined(
        signal: SignalId,
        inputs: usize,
        dfg: &Dfg,
        defined: &mut [bool],
        schedule: &mut Vec<Event>,
    ) {
        if signal < inputs || defined[signal] {
            return;
        }
        if let Some(SignalDef::Combine { lhs, rhs, .. }) = dfg.signals.def(signal) {
            ensure_defined(*lhs, inputs, dfg, defined, schedule);
            ensure_defined(*rhs, inputs, dfg, defined, schedule);
        }
        defined[signal] = true;
        schedule.push(Event::DefineSignal(signal));
    }

    for (index, output) in dfg.outputs.iter().enumerate() {
        for (signal, _) in output.iter() {
            ensure_defined(signal, inputs, dfg, &mut defined, &mut schedule);
        }
        schedule.push(Event::AccumulateOutput(index));
    }

    // Live ranges of derived signals over the schedule: `(signal, definition)` in
    // definition order, and the last use indexed by signal id. A signal is defined
    // once, and every use comes after its definition.
    let mut derived: Vec<(SignalId, usize)> = Vec::new();
    let mut last_use = vec![0usize; dfg.signals.len()];
    for (position, event) in schedule.iter().enumerate() {
        match event {
            Event::DefineSignal(signal) => {
                derived.push((*signal, position));
                last_use[*signal] = position;
                if let Some(SignalDef::Combine { lhs, rhs, .. }) = dfg.signals.def(*signal) {
                    for operand in [*lhs, *rhs] {
                        if operand >= inputs {
                            last_use[operand] = position;
                        }
                    }
                }
            }
            Event::AccumulateOutput(index) => {
                for (signal, _) in dfg.outputs[*index].iter() {
                    if signal >= inputs {
                        last_use[signal] = position;
                    }
                }
            }
        }
    }

    // Greedy colouring of the interference graph in definition order (optimal for
    // interval graphs): each signal takes the lowest column no live signal holds.
    // An earlier signal interferes with the one being defined exactly when it is
    // still live at that definition, and of the signals that held a column only the
    // latest can be, so one "busy until" position per column decides.
    let mut busy_until: Vec<usize> = Vec::new();
    let mut signal_columns: HashMap<SignalId, usize> = HashMap::with_capacity(derived.len());
    for &(signal, defined_at) in &derived {
        let color = match busy_until.iter().position(|&until| until < defined_at) {
            Some(color) => color,
            None => {
                busy_until.push(0);
                busy_until.len() - 1
            }
        };
        busy_until[color] = last_use[signal];
        signal_columns.insert(signal, color);
    }

    Allocation {
        schedule,
        signal_columns,
        temp_columns_used: busy_until.len(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dfg::WeightSlice;
    use rand::{Rng, SeedableRng};
    use rand_chacha::ChaCha8Rng;

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
                    if a == b || allocation.signal_columns[&a] != allocation.signal_columns[&b] {
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
