"""Statement indexing for coverage and the FSM-detection heuristic."""

from __future__ import annotations

from verikg.rtl import ast


def assign_statement_ids(model: ast.DesignModel, start: int = 1) -> list[ast.StatementRef]:
    """Number every assign, branch arm, and sequential assignment S<n> in
    source order, writing the ids back into the AST nodes."""
    refs: list[ast.StatementRef] = []
    n = start - 1
    for m in model.modules:
        items = [(a.line, 0, a) for a in m.assigns] + [(b.line, 1, b) for b in m.always_blocks]
        for _, _, item in sorted(items, key=lambda x: (x[0], x[1])):
            stmts = [item] if isinstance(item, ast.ContAssign) else ast.walk_stmts(item.body)
            for s in stmts:
                if isinstance(s, ast.BranchArm):
                    node, slot, kind, detail = s.node, s.slot, "branch_arm", s.detail
                elif isinstance(s, (ast.ContAssign, ast.SeqAssign)):
                    node, slot, detail = s, "stmt_id", None
                    kind = "assign" if isinstance(s, ast.ContAssign) else "seq_assign"
                else:
                    continue
                n += 1
                setattr(node, slot, f"S{n}")
                refs.append(ast.StatementRef(f"S{n}", m.name, s.line, kind, detail))
    return refs


def statement_key(sid: str) -> tuple:
    """Sort key of a statement id: S<n> by n, any other id after them."""
    return (0, int(sid[1:])) if sid[1:].isdigit() else (1, sid)


def detect_fsms(model: ast.DesignModel) -> list[ast.FsmDesc]:
    """A register is an FSM state register iff every comparison / case switch
    on it uses named parameter constants (and at least one exists), and every
    assignment to it is one of those named constants."""
    out: list[ast.FsmDesc] = []
    for m in model.modules:
        params = m.param_map()
        stmts = [s for b in m.always_blocks for s in ast.walk_stmts(b.body)]
        reads = [a.rhs for a in m.assigns]
        reads += [e for s in stmts for e in ast.stmt_exprs(s)]
        reads += [e for inst in m.instances for e in inst.ports.values()]
        # what each name is compared with, or switched against
        compared: dict[str, list[ast.Expr]] = {}
        for top in reads:
            for e in ast.walk(top):
                if isinstance(e, ast.Binary) and e.op in ast.COMPARISON_OPS:
                    for this, other in ((e.left, e.right), (e.right, e.left)):
                        if isinstance(this, ast.Id):
                            compared.setdefault(this.name, []).append(other)
        for s in stmts:
            if isinstance(s, ast.CaseStmt) and isinstance(s.subject, ast.Id):
                compared.setdefault(s.subject.name, []).extend(
                    lab for arm in s.arms for lab in arm.labels or ())
        for sig in m.signals:
            others = compared.get(sig.name)
            if sig.kind != "reg" or others is None:
                continue
            assigns = [s for s in stmts if isinstance(s, ast.SeqAssign) and s.target == sig.name]
            named = others + [s.rhs for s in assigns]
            if not assigns or not all(isinstance(e, ast.Id) and e.name in params for e in named):
                continue
            encoding = {name: params[name] for name in sorted({e.name for e in named})}
            out.append(ast.FsmDesc(f"{m.name}.{sig.name}", encoding,
                                   sorted({s.line for s in assigns})))
    return out
