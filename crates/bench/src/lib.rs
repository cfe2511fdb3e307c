#![warn(missing_docs)]

//! Experiment harness reproducing every table and figure of the paper.
//!
//! The `experiments` binary drives these modules; each module regenerates
//! one paper artifact and prints the same rows/series the paper reports
//! (absolute numbers differ — the substrate is a simulator, not the authors'
//! 2005 testbed — but the *shapes* are the reproduction target; see
//! EXPERIMENTS.md for the side-by-side reading).
//!
//! | module | paper artifact |
//! |---|---|
//! | [`fig4`] | Figure 4(a)/(b): CAM labels vs DOL transitions, single subject |
//! | [`fig56`] | Figures 5(a)/(b) and 6(a)/(b): codebook entries and transition nodes vs number of subjects |
//! | [`storage`] | §5.1.1 in-text storage comparison (DOL vs per-subject CAMs) |
//! | [`queries`] | Table 1: the six benchmark queries and their plans |
//! | [`fig7`] | Figure 7(a–c): ε-NoK / NoK time and answer ratios vs accessibility |
//! | [`fig8`] | §4.2 extension: (ε-)STD joins under both secure semantics |
//! | [`updates`] | Proposition 1 / §3.4: update costs and transition growth |
//! | [`ablation`] | design-choice ablations: codebook, page skip, block size |
//! | [`compile`] | compiled twig execution latency on the Table-1 mix, checked against the reference evaluator (not a paper artifact) |
//! | [`serve`] | multi-client secure-query serving: snapshot readers, caches, shared latches (not a paper artifact) |
//! | [`faults`] | fault injection: checksum detection, fail-closed semantics, verify overhead (not a paper artifact) |
//! | [`crash`] | crash-recovery torture: power cut at every physical write point, recovery must land on a state boundary (not a paper artifact) |
//! | [`mvcc`] | MVCC epoch ring + group commit: pinned-reader oracles, retention refusals, solo vs batched update throughput at equal durability (not a paper artifact) |
//! | [`soak`] | combined chaos soak: brownouts, power cuts, deadlines, in-process recovery under a live serving mix (not a paper artifact) |
//! | [`shard`] | ShardedDb: crash-consistent cross-shard commit sweep + fault-isolated scatter-gather quarantine soak (not a paper artifact) |
//! | [`net`] | `dol-server` wire gate: loopback multi-process byte-identity, crash/restart, overload, poison, and drain phases (not a paper artifact) |

pub mod ablation;
pub mod compile;
pub mod crash;
pub mod faults;
pub mod fig4;
pub mod fig56;
pub mod fig7;
pub mod fig8;
pub mod mvcc;
pub mod net;
pub mod queries;
pub mod serve;
pub mod setup;
pub mod shard;
pub mod soak;
pub mod storage;
pub mod subjects;
pub mod table;
pub mod updates;

/// Global effort level: `quick` shrinks data sizes for smoke runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Effort {
    /// Small instances (CI-friendly, seconds).
    Quick,
    /// Paper-scale shapes (minutes).
    Full,
}

impl Effort {
    /// Scales a size parameter.
    pub fn scale(self, quick: f64, full: f64) -> f64 {
        match self {
            Effort::Quick => quick,
            Effort::Full => full,
        }
    }

    /// Picks a usize parameter.
    pub fn pick(self, quick: usize, full: usize) -> usize {
        match self {
            Effort::Quick => quick,
            Effort::Full => full,
        }
    }
}
