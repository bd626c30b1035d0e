// Manifest of every SHEAP_FAULT_POINT name in src/, grouped by the harness
// that reaches it. This is the bridge between the source tree and the
// crash matrix:
//
//   * crash_matrix_test.cc asserts the traced surface of each workload
//     equals its section here (a new point in src/ that nobody lists is a
//     crash state the matrix silently skips; a listed point no workload
//     reaches is dead coverage), and
//   * tools/sheap_analyze (ctest -L lint) parses these arrays and fails if
//     they drift from the `SHEAP_FAULT_POINT(..., "name")` sites in src/ —
//     orphans in either direction are build errors.
//
// So: adding a crash point means adding it here AND making a workload reach
// it, in the same change. Names follow `subsystem.component.event`
// (three dot-separated lower_snake segments), also lint-enforced. Each
// window has one site and one name in both mutator regimes: the
// concurrent commit path crashes at txn.commit.* too
// (concurrent_torture_test).

#ifndef SHEAP_TESTS_CRASH_MATRIX_POINTS_H_
#define SHEAP_TESTS_CRASH_MATRIX_POINTS_H_

namespace sheap {
namespace crash_matrix {

/// Reached by the scripted workload (RunScriptedWorkload): commits, an
/// abort (whose rollback tail recovery's losers share), checkpoints (plain and writeback), a full GC cycle, a 2PC
/// prepare, background write-back. The matrix crashes at the first,
/// middle, and last dynamic hit of each.
inline constexpr const char* kScriptedWorkloadPoints[] = {
    "ckpt.flush.begin",
    "ckpt.take.begin",
    "ckpt.take.end",
    "ckpt.take.logged",
    "ckpt.take.master",
    "gc.batch.merged",
    "gc.complete.logged",
    "gc.flip.done",
    "gc.flip.logged",
    "gc.scan.worker_claim",
    "gc.step.begin",
    "gc.utr.logged",
    "pool.writeback.after",
    "pool.writeback.before",
    "promote.utr.logged",
    "txn.abort.logged",
    "txn.commit.forced",
    "txn.commit.logged",
    "txn.commit.promoted",
    "txn.prepare.forced",
    "txn.undo.clr_logged",
    "wal.flush.begin",
    "wal.flush.mid",
    "wal.force.after_barrier",
    "wal.force.before_barrier",
    "wal.walflush.barrier",
};

/// Reached only inside StableHeap::Open's recovery passes; exercised by
/// RecoveryItselfIsCrashSafe (crash during recovery, then recover again).
inline constexpr const char* kRecoveryPoints[] = {
    "recovery.analysis.done",
    "recovery.redo.done",
    "recovery.undo.done",
};

/// Redo-gate points: the crash window after a page is claimed for
/// on-demand redo at first touch (instant recovery only), and the window
/// after a drain batch is claimed — at an action boundary under instant
/// recovery, inside Open under offline recovery. Exercised by
/// InstantRecoveryReachesItsCrashPoints /
/// InstantGateCrashesRecoverToOfflineState (reopen with instant recovery
/// on, crash mid-drain / mid-on-demand-redo, recover again) and, for the
/// drain, by RecoveryItselfIsCrashSafe.
inline constexpr const char* kInstantRecoveryPoints[] = {
    "recovery.drain.step",
    "recovery.ondemand.page_redo",
};

/// Batch-leader points of the commit queue; exercised by
/// GroupCommitNeverLosesAcknowledgedCommits (group_commit = true).
inline constexpr const char* kGroupCommitPoints[] = {
    "wal.group.leader_force",
    "wal.group.batch_durable",
};

/// 2PC coordinator points (src/dtx/two_phase.cc). These fire on the
/// *coordinator's* SimEnv injector, not a participant's, so they live in
/// their own section — the scripted-workload surface assertion never sees
/// them. Exercised by the CoordinatorCrash* tests: crash between
/// prepare-durable and decision-force (presumed abort must win), after
/// decision-force before participant acks (commit must win on reopen),
/// and mid in-doubt resolution on reopen (remaining txns stay in doubt,
/// the next resolve pass finishes idempotently).
inline constexpr const char* kDtxCoordinatorPoints[] = {
    "dtx.coord.prepared",
    "dtx.coord.decision_forced",
    "dtx.coord.resolve_step",
};

}  // namespace crash_matrix
}  // namespace sheap

#endif  // SHEAP_TESTS_CRASH_MATRIX_POINTS_H_
