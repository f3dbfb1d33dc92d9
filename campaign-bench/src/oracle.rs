//! Correctness oracles that do not trust the program under test.
//!
//! Every expected answer is computed here from the workload's inputs alone
//! (the graph's node count, the payload's parameters, the compiler's
//! declared parameters), never from a reference run of the program.  A cell
//! passes only if it executed and every oracle that applies to it holds:
//!
//! - the payload answer: leader election → the largest node id at every
//!   node; flood broadcast → the broadcast word at every node; token
//!   dissemination → all `n` tokens at every node;
//! - static-to-mobile cells: `network_rounds == 2 · payload_rounds + t`
//!   (Theorem 1.2: `r + t` key-exchange rounds, then `r` padded rounds);
//! - secure cells: no plaintext payload word appears anywhere in the
//!   eavesdropper's view;
//! - resilient cells with a correction verdict: `fully_corrected` holds.

use crate::workloads::Answer;
use mobile_congest::compilers::adapters::CompilerDef;
use mobile_congest::harness::{CampaignCell, CampaignReport, CampaignSpec};
use mobile_congest::sim::scenario::CompilerNotes;
use mobile_congest::sim::ViewLog;

/// What the oracles need to know about one cell, derived from the spec the
/// benchmark generated.
#[derive(Debug, Clone, Copy)]
pub struct CellPlan {
    /// Node count of the cell's graph.
    pub n: usize,
    /// The payload and its parameters.
    pub answer: Answer,
    /// The compiler's family and declared parameters.
    pub compiler: CompilerClass,
}

/// The compiler families the workloads use, with the parameters the oracles
/// check against.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CompilerClass {
    /// A byzantine-resilient compiler that reports a correction verdict
    /// (tree packing).
    Corrected,
    /// The static-to-mobile secrecy compiler with threshold `t`.
    StaticToMobile {
        /// The observation threshold.
        t: usize,
    },
    /// Any other secrecy compiler.
    Secure,
    /// A compiler with nothing to check beyond the answer: the cycle cover
    /// (it reports no correction verdict), rewind, and the baselines.
    AnswerOnly,
}

impl CompilerClass {
    /// Classify a compiler def of the spec.
    pub fn of(def: &CompilerDef) -> CompilerClass {
        match *def {
            CompilerDef::TreePacking { .. }
            | CompilerDef::Clique { .. }
            | CompilerDef::Expander { .. } => CompilerClass::Corrected,
            CompilerDef::StaticToMobile { t, .. } => CompilerClass::StaticToMobile { t },
            CompilerDef::CongestionSensitive { .. } => CompilerClass::Secure,
            CompilerDef::CycleCover { .. }
            | CompilerDef::Rewind { .. }
            | CompilerDef::Uncompiled
            | CompilerDef::FaultFree
            | CompilerDef::Async { .. } => CompilerClass::AnswerOnly,
        }
    }

    fn is_secure(self) -> bool {
        matches!(
            self,
            CompilerClass::StaticToMobile { .. } | CompilerClass::Secure
        )
    }
}

/// The output every node must end with.
pub fn expected_output(answer: Answer, n: usize) -> Vec<u64> {
    match answer {
        Answer::LeaderElection => vec![n as u64 - 1],
        Answer::FloodBroadcast { value, .. } => vec![value],
        Answer::TokenDissemination { .. } => (0..n as u64).collect(),
    }
}

/// The words the payload would put on the wire in the clear: node ids,
/// the broadcast word or the tokens.
pub fn plaintext_words(answer: Answer, n: usize) -> Vec<u64> {
    match answer {
        Answer::LeaderElection | Answer::TokenDissemination { .. } => (0..n as u64).collect(),
        Answer::FloodBroadcast { value, .. } => vec![value],
    }
}

/// Oracle 1: every node computed the payload's answer.
pub fn check_answer(answer: Answer, n: usize, outputs: &[Vec<u64>]) -> Result<(), String> {
    if outputs.len() != n {
        return Err(format!("{} node outputs for {n} nodes", outputs.len()));
    }
    let expected = expected_output(answer, n);
    match outputs.iter().position(|out| *out != expected) {
        None => Ok(()),
        Some(v) => Err(format!(
            "node {v} output {:?}, expected {:?}",
            short(&outputs[v]),
            short(&expected)
        )),
    }
}

/// Oracle 2 (Theorem 1.2): a static-to-mobile run takes `r + t` key rounds
/// plus `r` padded payload rounds.
pub fn check_static_to_mobile_rounds(
    network_rounds: usize,
    payload_rounds: usize,
    t: usize,
) -> Result<(), String> {
    let expected = 2 * payload_rounds + t;
    if network_rounds == expected {
        Ok(())
    } else {
        Err(format!(
            "{network_rounds} network rounds, Theorem 1.2 gives 2·{payload_rounds} + {t} = {expected}"
        ))
    }
}

/// Oracle 3: no plaintext payload word appears in the eavesdropper's view.
///
/// An empty view also fails: an eavesdropper cell that recorded nothing
/// would make the check vacuous.
pub fn check_secrecy(view: &ViewLog, plaintext: &[u64]) -> Result<(), String> {
    if view.entries.is_empty() {
        return Err("the eavesdropper's view is empty".to_string());
    }
    let mut secret = plaintext.to_vec();
    secret.sort_unstable();
    for entry in &view.entries {
        for payload in [&entry.forward, &entry.backward].into_iter().flatten() {
            if let Some(word) = payload.iter().find(|w| secret.binary_search(w).is_ok()) {
                return Err(format!(
                    "plaintext word {word} seen on edge {} in round {}",
                    entry.edge, entry.round
                ));
            }
        }
    }
    Ok(())
}

/// Oracle 4: a resilient compiler with a correction verdict corrected every
/// simulated round.
pub fn check_fully_corrected(notes: &CompilerNotes) -> Result<(), String> {
    match notes {
        CompilerNotes::Resilient {
            fully_corrected: true,
            ..
        }
        | CompilerNotes::Expander {
            fully_corrected: true,
            ..
        } => Ok(()),
        CompilerNotes::Resilient { .. } | CompilerNotes::Expander { .. } => {
            Err("not fully corrected".to_string())
        }
        other => Err(format!("no correction verdict in {} notes", other.label())),
    }
}

/// Apply every oracle that fits `plan` to one executed campaign cell.
pub fn check_cell(plan: &CellPlan, cell: &CampaignCell) -> Result<(), String> {
    let report = match &cell.outcome {
        Ok(report) => report,
        Err(e) => return Err(format!("{}: {e}", cell.status())),
    };
    check_answer(plan.answer, plan.n, &report.outputs)?;
    if let CompilerClass::StaticToMobile { t } = plan.compiler {
        check_static_to_mobile_rounds(report.network_rounds, report.payload_rounds, t)?;
    }
    if plan.compiler.is_secure() {
        check_secrecy(&report.view, &plaintext_words(plan.answer, plan.n))?;
    }
    if plan.compiler == CompilerClass::Corrected {
        check_fully_corrected(&report.notes)?;
    }
    Ok(())
}

/// The oracle plan of a whole spec: which checks apply to which cell.
#[derive(Debug, Clone)]
pub struct SpecPlan {
    answer: Answer,
    /// Node count per graph of the grid.
    nodes: Vec<usize>,
    /// Compiler class per compiler of the grid.
    compilers: Vec<CompilerClass>,
    adversaries: usize,
    repetitions: usize,
}

/// Outcome tallies of checking a batch of cells.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Tally {
    /// Cells checked.
    pub attempted: usize,
    /// Cells skipped, failed, or wrong by some oracle.
    pub failed: usize,
    /// The first failure, for the log.
    pub first_error: Option<String>,
}

impl Tally {
    /// Fold another tally into this one.
    pub fn add(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        if self.first_error.is_none() {
            self.first_error = other.first_error;
        }
    }
}

impl SpecPlan {
    /// Plan the checks for `spec`, whose payload is `answer`.  Graphs are
    /// built once here, only to count their nodes.
    pub fn new(spec: &CampaignSpec, answer: Answer) -> Result<SpecPlan, String> {
        let nodes = spec
            .grid
            .graphs
            .iter()
            .map(|def| def.build().map(|g| g.node_count()))
            .collect::<Result<Vec<_>, _>>()
            .map_err(|e| e.to_string())?;
        Ok(SpecPlan {
            answer,
            nodes,
            compilers: spec.grid.compilers.iter().map(CompilerClass::of).collect(),
            adversaries: spec.grid.adversaries.len(),
            repetitions: spec.repetitions.max(1),
        })
    }

    /// The plan of cell `index` (graph-major, then adversary, then
    /// compiler, repetitions innermost — the campaign's documented
    /// enumeration order).
    pub fn cell(&self, index: usize) -> CellPlan {
        let per_graph = self.adversaries * self.compilers.len() * self.repetitions;
        CellPlan {
            n: self.nodes[index / per_graph],
            answer: self.answer,
            compiler: self.compilers[(index / self.repetitions) % self.compilers.len()],
        }
    }

    /// Check one cell.
    pub fn check_cell(&self, cell: &CampaignCell) -> Result<(), String> {
        check_cell(&self.cell(cell.index), cell).map_err(|e| {
            format!(
                "cell {} ({} / {} / {}): {e}",
                cell.index, cell.graph, cell.adversary, cell.compiler
            )
        })
    }

    /// Check every cell of a report.
    pub fn check(&self, report: &CampaignReport) -> Tally {
        let mut tally = Tally::default();
        for cell in &report.cells {
            tally.attempted += 1;
            if let Err(e) = self.check_cell(cell) {
                tally.failed += 1;
                tally.first_error.get_or_insert(e);
            }
        }
        tally
    }
}

/// At most eight words of an output, for error messages.
fn short(words: &[u64]) -> String {
    if words.len() <= 8 {
        format!("{words:?}")
    } else {
        format!("{:?}… ({} words)", &words[..8], words.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mobile_congest::sim::ViewEntry;

    fn every_node(n: usize, output: Vec<u64>) -> Vec<Vec<u64>> {
        vec![output; n]
    }

    #[test]
    fn leader_election_oracle_rejects_a_wrong_leader() {
        let answer = Answer::LeaderElection;
        assert!(check_answer(answer, 5, &every_node(5, vec![4])).is_ok());
        let mut wrong = every_node(5, vec![4]);
        wrong[2] = vec![3];
        assert!(check_answer(answer, 5, &wrong).is_err());
        assert!(check_answer(answer, 5, &every_node(4, vec![4])).is_err());
    }

    #[test]
    fn flood_oracle_rejects_a_flipped_or_missing_value() {
        let answer = Answer::FloodBroadcast {
            source: 0,
            value: 77,
        };
        assert!(check_answer(answer, 3, &every_node(3, vec![77])).is_ok());
        let mut flipped = every_node(3, vec![77]);
        flipped[1] = vec![76];
        assert!(check_answer(answer, 3, &flipped).is_err());
        let mut missing = every_node(3, vec![77]);
        missing[2] = vec![];
        assert!(check_answer(answer, 3, &missing).is_err());
    }

    #[test]
    fn token_oracle_rejects_a_missing_token() {
        let answer = Answer::TokenDissemination { batch: 2 };
        assert!(check_answer(answer, 4, &every_node(4, vec![0, 1, 2, 3])).is_ok());
        let mut short = every_node(4, vec![0, 1, 2, 3]);
        short[3] = vec![0, 1, 3];
        assert!(check_answer(answer, 4, &short).is_err());
    }

    #[test]
    fn round_oracle_rejects_any_other_round_count() {
        assert!(check_static_to_mobile_rounds(2 * 10 + 8, 10, 8).is_ok());
        assert!(check_static_to_mobile_rounds(2 * 10 + 9, 10, 8).is_err());
        assert!(check_static_to_mobile_rounds(10 + 8, 10, 8).is_err());
    }

    #[test]
    fn secrecy_oracle_rejects_a_leaked_word_and_an_empty_view() {
        let entry = |forward: Vec<u64>| ViewEntry {
            round: 3,
            edge: 1,
            forward: Some(forward),
            backward: None,
        };
        let sealed = ViewLog {
            entries: vec![entry(vec![0xDEAD_BEEF_0000_1234, 0x9E37_79B9_7F4A_7C15])],
        };
        assert!(check_secrecy(&sealed, &[0, 1, 2, 3]).is_ok());
        let leaked = ViewLog {
            entries: vec![entry(vec![0xDEAD_BEEF_0000_1234, 2])],
        };
        assert!(check_secrecy(&leaked, &[0, 1, 2, 3]).is_err());
        assert!(check_secrecy(&ViewLog::default(), &[0, 1, 2, 3]).is_err());
    }

    #[test]
    fn correction_oracle_rejects_a_residual_mismatch_and_a_missing_verdict() {
        let notes = |fully_corrected| CompilerNotes::Resilient {
            fully_corrected,
            mismatches_before: 4,
            mismatches_after: 0,
            failed_trees: 0,
            packing_trees: 9,
            packing_good_trees: 9,
            packing_max_load: 1,
            packing_load_floor: 1,
            packing_min_cut_usage: 1,
        };
        assert!(check_fully_corrected(&notes(true)).is_ok());
        assert!(check_fully_corrected(&notes(false)).is_err());
        assert!(check_fully_corrected(&CompilerNotes::None).is_err());
    }
}
