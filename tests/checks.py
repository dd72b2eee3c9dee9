"""Ground-truth comparisons between the exhaustive executor and the analysis.

Each check returns a list of violation strings (empty means the soundness
claim held on this program).  They are shared by the per-module tests and
the acceptance suite.
"""

from __future__ import annotations

from lockhound.oracle import OracleResult
from lockhound.pipeline import Analysis
from lockhound.pointsto import STAR, obj_label


def check_may_covers(a: Analysis, res: OracleResult) -> list[str]:
    """Every reachable (place, held locks) must be covered by the may-lockset.

    This is the core per-place soundness claim: the concrete locks held on
    arrival at a place are contained in the place's may-lockset (a set
    containing the wildcard covers anything).
    """
    bad: list[str] = []
    for place, cells in res.arrivals:
        ls = a.locks.may.at(place)
        if ls is None:
            bad.append(f"place {place} reached concretely but never explored")
            continue
        if any(x is STAR for x in ls):
            continue
        held = res.abstract_locks(cells)
        if not held <= ls:
            missing = ", ".join(obj_label(x) for x in held - ls)
            bad.append(f"may-lockset at {place} misses {missing}")
    return bad


def check_must_subset(a: Analysis, res: OracleResult) -> list[str]:
    """The must-lockset at a place is held on every concrete arrival."""
    bad: list[str] = []
    for place, cells in res.arrivals:
        st = a.locks.must.at(place)
        if st is None:
            continue  # absence claims nothing
        ls = {x for x in st if x is not STAR}
        held = res.abstract_locks(cells)
        if not ls <= held:
            extra = ", ".join(obj_label(x) for x in ls - held)
            bad.append(f"must-lockset at {place} claims unheld {extra}")
    return bad


def check_nonconc(a: Analysis, res: OracleResult,
                  limit: int | None = None) -> list[str]:
    """Places co-occupied on a real run must never be proved non-concurrent."""
    if a.nonconc is None:
        return []
    bad: list[str] = []
    pairs = sorted(res.copairs)
    if limit is not None:
        pairs = pairs[:limit]
    for p1, p2 in pairs:
        r = a.nonconc.check(p1, p2)
        if r is not None:
            bad.append(f"pair {p1} / {p2} co-occupied but pruned as {r}")
    return bad


def _cycle_matches(cycle, witness_locks: frozenset) -> bool:
    """Do the cycle's locks cover the witness's deadlocked locks?

    Locks are compared as abstract objects, not by label (a global named
    alloc6 is not the allocation at site 6). A wildcard endpoint matches any
    lock. The witness is covered when every concrete lock is named by the
    cycle (or absorbed by a wildcard) and the cycle names no concrete lock
    outside the witness.
    """
    locks = {e.acquired for e in cycle.edges}
    named = locks - {STAR}
    if not named <= witness_locks:
        return False
    return STAR in locks or witness_locks <= named


def check_deadlocks_reported(a: Analysis, res: OracleResult) -> list[str]:
    """Every concrete deadlock must be covered by a reported (unpruned) cycle."""
    bad: list[str] = []
    reported = a.reported_cycles()
    for w in res.witnesses:
        locks = res.abstract_locks(w.lock_cells())
        if not any(_cycle_matches(c, locks) for c in reported):
            names = ", ".join(sorted(obj_label(x) for x in locks))
            bad.append(f"concrete deadlock on {{{names}}} not reported")
    return bad


def cycle_confirmed(cycle, res: OracleResult) -> bool:
    """Does some concrete deadlock witness match this reported cycle?"""
    return any(_cycle_matches(cycle, res.abstract_locks(w.lock_cells()))
               for w in res.witnesses)


def semantic_depend_edges(a: Analysis, res: OracleResult) -> set[int]:
    """Edges whose concrete writes feed (transitively) into a sync statement.

    Chases the recorded read/write cells backwards from the reads of
    lock/unlock/create/join edges; anything in this set is a true dependency
    the pruner was not allowed to drop.
    """
    seeds = {e.idx for e in a.icfa.seed_edges()}
    wanted: set = set()
    for idx in seeds:
        if idx in res.rw:
            wanted |= res.rw[idx][0]
    relevant: set[int] = set()
    changed = True
    while changed:
        changed = False
        for idx, (reads, writes) in res.rw.items():
            if idx in relevant or idx in seeds:
                continue
            if writes & wanted:
                relevant.add(idx)
                new = reads - wanted
                if new:
                    wanted |= new
                changed = True
    return relevant


def check_depend_complete(a: Analysis, res: OracleResult) -> list[str]:
    if a.depend is None:
        return []
    missing = semantic_depend_edges(a, res) - a.depend.edges
    return [f"dependency pruning dropped live edge {a.icfa.edges[i].op!r} "
            f"(line {a.icfa.edges[i].line})" for i in sorted(missing)]


def check_all(a: Analysis, res: OracleResult,
              nonconc_limit: int | None = None) -> list[str]:
    """Run every soundness comparison; returns all violations found."""
    return (check_may_covers(a, res)
            + check_must_subset(a, res)
            + check_nonconc(a, res, limit=nonconc_limit)
            + check_deadlocks_reported(a, res)
            + check_depend_complete(a, res))


def oracle_facts(res: OracleResult) -> dict:
    """Every fact an oracle run reports, as canonical JSON-able data.

    Places become lists, cells their reprs, and every set is sorted, so the
    result does not depend on PYTHONHASHSEED. Witnesses keep their order,
    with their cycles and schedules.
    """
    def cells(cs) -> list[str]:
        return sorted(map(repr, cs))

    return {
        "states": res.states,
        "terminals": res.terminals,
        "ub_events": res.ub_events,
        "truncated": res.truncated,
        "arrivals": sorted([list(p), cells(held)] for p, held in res.arrivals),
        "copairs": sorted([list(a), list(b)] for a, b in res.copairs),
        "rw": {str(i): [cells(r), cells(w)] for i, (r, w) in sorted(res.rw.items())},
        "serial_sites": {str(k): loc for k, loc in sorted(res.serial_sites.items())},
        "witnesses": [{"cycle": [[t, list(p), repr(c)] for t, p, c in w.cycle],
                       "schedule": [list(s) for s in w.schedule]}
                      for w in res.witnesses],
    }
