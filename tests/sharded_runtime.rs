//! Concurrency tests for the sharded `SharedRuntime`: random
//! multi-threaded interleavings checked against the single-threaded
//! replay oracle, and snapshot consistency under write storms.
//!
//! The property being pinned is **linearizability per instance**: however
//! many clients race, every instance's journal must be a legal sequential
//! execution of its workflow (replaying it event by event on a fresh
//! single-threaded `Runtime` accepts every event), and a `snapshot()`
//! taken at any moment must parse and restore.

use ctr_runtime::{Runtime, RuntimeError, SharedRuntime};
use proptest::prelude::*;

const SPEC: &str = r"
    workflow claims {
        graph file * (triage # verify_policy) * (approve_claim + deny) * notify;
        constraint before(triage, verify_policy);
    }
";

/// Every observable event of the spec — threads fire blindly from this
/// universe, so ineligible fires (rejected, journal untouched) interleave
/// with committed ones.
const EVENTS: &[&str] = &[
    "file",
    "triage",
    "verify_policy",
    "approve_claim",
    "deny",
    "notify",
];

/// The splitmix-style step every thread uses for its private RNG.
fn next(state: &mut u64) -> u64 {
    *state = state
        .wrapping_mul(6364136223846793005)
        .wrapping_add(1442695040888963407);
    *state >> 33
}

/// Replays `journal` on a fresh single-threaded runtime; every event must
/// be accepted in order (the oracle for per-instance linearizability).
fn replay_oracle(journal: &[String]) -> Result<Runtime, RuntimeError> {
    let oracle = Runtime::new();
    oracle.deploy_source(SPEC)?;
    let id = oracle.start("claims")?;
    for event in journal {
        oracle.fire(id, event)?;
    }
    Ok(oracle)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// K threads run a random interleaving of
    /// `start`/`fire`/`try_complete`/`snapshot` against one sharded
    /// runtime. Afterwards every journal must replay cleanly on the
    /// single-threaded oracle, and every snapshot taken mid-run (plus the
    /// final one) must restore.
    #[test]
    fn random_interleavings_linearize_per_instance(
        seed in 0u64..1_000_000,
        threads in 2usize..5,
        ops in 30usize..100,
    ) {
        let rt = SharedRuntime::new();
        rt.deploy_source(SPEC).unwrap();
        // A shared pool of instances all threads race on; threads also
        // start fresh instances mid-run.
        let pool: Vec<_> = (0..6).map(|_| rt.start("claims").unwrap()).collect();

        let mid_snapshots = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..threads)
                .map(|t| {
                    let rt = rt.clone();
                    let mut ids = pool.clone();
                    let mut rng = seed.wrapping_add(t as u64).wrapping_mul(0x9E3779B97F4A7C15) | 1;
                    scope.spawn(move || {
                        let mut snaps = Vec::new();
                        for _ in 0..ops {
                            let id = ids[next(&mut rng) as usize % ids.len()];
                            match next(&mut rng) % 10 {
                                // Fire dominates: it is the contended path.
                                0..=5 => {
                                    let event = EVENTS[next(&mut rng) as usize % EVENTS.len()];
                                    // Rejections (NotEligible / AlreadyComplete)
                                    // are part of the contract, not failures.
                                    let _ = rt.fire(id, event);
                                }
                                6 => {
                                    let _ = rt.try_complete(id);
                                }
                                7 => {
                                    let _ = rt.eligible_symbols(id);
                                }
                                8 => {
                                    ids.push(rt.start("claims").unwrap());
                                }
                                _ => snaps.push(rt.snapshot()),
                            }
                        }
                        snaps
                    })
                })
                .collect();
            handles
                .into_iter()
                .flat_map(|h| h.join().unwrap())
                .collect::<Vec<String>>()
        });

        // Every mid-storm snapshot is internally consistent: it parses,
        // and every journal in it replays.
        for snap in &mid_snapshots {
            prop_assert!(
                Runtime::restore(snap).is_ok(),
                "mid-run snapshot failed to restore:\n{snap}"
            );
        }

        // Per-instance linearizability: each journal the storm produced
        // is a legal sequential execution.
        let final_snap = rt.snapshot();
        let restored = Runtime::restore(&final_snap).unwrap();
        for id in restored.instances() {
            let journal = rt.journal(id).unwrap();
            prop_assert_eq!(&journal, &restored.journal(id).unwrap());
            let oracle = replay_oracle(&journal);
            prop_assert!(
                oracle.is_ok(),
                "journal of instance {} not replayable: {:?}",
                id,
                journal
            );
            // The restored status agrees with the live one (restore
            // re-probes silent completion for `[completed]` lines).
            prop_assert_eq!(rt.status(id).unwrap(), restored.status(id).unwrap());
        }
    }
}

/// `snapshot()` taken mid-storm — while writer threads continuously fire
/// on a fleet — always parses and restores, and the frozen cut never
/// tears an instance (journals in the snapshot are valid prefixes).
#[test]
fn snapshot_mid_storm_parses_and_restores() {
    let rt = SharedRuntime::new();
    rt.deploy_source(SPEC).unwrap();
    let ids: Vec<_> = (0..16).map(|_| rt.start("claims").unwrap()).collect();

    std::thread::scope(|scope| {
        for chunk in ids.chunks(4) {
            let rt = rt.clone();
            scope.spawn(move || {
                for &id in chunk {
                    for event in ["file", "triage", "verify_policy", "approve_claim", "notify"] {
                        rt.fire(id, event).unwrap();
                        std::thread::yield_now();
                    }
                }
            });
        }
        // Storm in progress: every snapshot restores.
        for _ in 0..25 {
            let snap = rt.snapshot();
            let restored =
                Runtime::restore(&snap).expect("snapshot taken mid-storm is internally consistent");
            for id in restored.instances() {
                assert!(restored.journal(id).unwrap().len() <= 5);
            }
            std::thread::yield_now();
        }
    });

    let restored = Runtime::restore(&rt.snapshot()).unwrap();
    for &id in &ids {
        assert!(restored.is_complete(id).unwrap());
        assert_eq!(
            restored.journal(id).unwrap(),
            vec!["file", "triage", "verify_policy", "approve_claim", "notify"]
        );
    }
}

/// Hot polling via `eligible_symbols` allocates no per-name strings and
/// agrees with the `String` variant (which delegates to it).
#[test]
fn eligible_symbols_agrees_with_eligible() {
    let rt = SharedRuntime::new();
    rt.deploy_source(SPEC).unwrap();
    let id = rt.start("claims").unwrap();
    loop {
        let symbols = rt.eligible_symbols(id).unwrap();
        let names = rt.eligible(id).unwrap();
        assert_eq!(
            symbols.iter().map(|s| s.as_str()).collect::<Vec<_>>(),
            names
        );
        let Some(first) = names.first() else { break };
        rt.fire(id, first).unwrap();
        if rt.is_complete(id).unwrap() {
            break;
        }
    }
}
