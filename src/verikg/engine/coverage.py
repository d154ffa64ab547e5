"""Statement reachability under the active assumptions.

A statement is covered iff its execution guard is true in some reachable
(state, input) valuation that no assumption rejects. Unreachable statements
default to the "gap" classification; calling dead code defensive is an
agent decision, not an engine one.
"""

from __future__ import annotations

from itertools import compress

from verikg.ir.types import CoverageMetrics, DeadCodeClass, ResultStatus
from verikg.rtl.analyze import statement_key
from verikg.rtl.elaborate import NetModel
from verikg.sva import ast as S
from verikg.engine.check import CheckConfig, _bound_assumption_monitors, _explore, check


def coverage(net: NetModel, props: list[S.BoundProperty],
             cfg: CheckConfig | None = None, run_ref: str = "") -> CoverageMetrics:
    """Reachability metrics plus the vacuity count over `props`.

    The search ends once every statement is covered. Budget exhaustion
    before that flags the metrics partial instead of failing: covered
    statements stay covered, the remainder may be falsely unreachable. A
    net with more than `MAX_INPUT_BITS` input bits is not explored: the
    metrics are partial, with nothing covered. The vacuity count's checks
    are mostly answered from the net's check memo.
    """
    cfg = cfg or CheckConfig()
    cfg.validate()
    monitors = _bound_assumption_monitors(net, cfg)

    sids = list(net.statement_guards)
    covered: set[str] = set()

    def hook(x: tuple) -> bool:
        """Cover the statements that execute at `x`; True once every
        statement is covered, which ends the search: nothing is left to
        learn from the rest of the reachable space."""
        covered.update(compress(sids, net.executed(x)))
        return len(covered) == len(sids)

    ex = _explore(net, None, monitors, cfg, "", 0, guard_hook=hook)
    partial = ex.status is ResultStatus.BOUNDED

    vacuity = sum(1 for bp in props if bp.kind != "assumption"
                  and check(net, bp, cfg)[0].status is ResultStatus.VACUOUS)

    covered_list = sorted(covered, key=statement_key)
    unreachable_list = sorted(set(sids) - covered, key=statement_key)
    total = len(covered_list) + len(unreachable_list)
    pct = 100.0 * len(covered_list) / total if total else 100.0
    return CoverageMetrics(
        run_ref=run_ref,
        reachable_pct=round(pct, 4),
        covered_statements=covered_list,
        unreachable_statements=unreachable_list,
        dead_code=[(sid, DeadCodeClass.GAP) for sid in unreachable_list],
        vacuity_count=vacuity,
        proof_core_ratio=None,
        partial=partial,
    )
