"""sheap_analyze: protocol analyzer for the sheap tree.

Eight checks (see checks.py). Concurrency: lock-rank graph reconciliation
against tools/lock_rank.json, MutatorGate discipline, explicit-memory-order
+ release/acquire pairing audit, GUARDED_BY coverage. Recovery: crash-point
naming + manifest reconciliation, exhaustive RecordType dispatch, no raw
std::mutex, no discarded Status. Run as `python3 tools/sheap_analyze` (see
cli.py for flags).
"""
