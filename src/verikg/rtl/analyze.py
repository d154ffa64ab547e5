"""Statement indexing for coverage and the FSM-detection heuristic."""

from __future__ import annotations

from verikg.rtl import ast


def _walk_always(body: list[ast.AlwaysStmt], module: str, refs: list[ast.StatementRef],
                 counter: list[int]) -> None:
    for stmt in body:
        if isinstance(stmt, ast.SeqAssign):
            counter[0] += 1
            stmt.stmt_id = f"S{counter[0]}"
            refs.append(ast.StatementRef(stmt.stmt_id, module, stmt.line, "seq_assign"))
        elif isinstance(stmt, ast.IfStmt):
            counter[0] += 1
            stmt.then_id = f"S{counter[0]}"
            refs.append(ast.StatementRef(stmt.then_id, module, stmt.line,
                                         "branch_arm", "if_then"))
            _walk_always(stmt.then_body, module, refs, counter)
            if stmt.else_body is not None:
                counter[0] += 1
                stmt.else_id = f"S{counter[0]}"
                refs.append(ast.StatementRef(stmt.else_id, module,
                                             stmt.else_line or stmt.line,
                                             "branch_arm", "if_else"))
                _walk_always(stmt.else_body, module, refs, counter)
        elif isinstance(stmt, ast.CaseStmt):
            for arm in stmt.arms:
                counter[0] += 1
                arm.arm_id = f"S{counter[0]}"
                detail = "case_default" if arm.labels is None else "case_item"
                refs.append(ast.StatementRef(arm.arm_id, module, arm.line,
                                             "branch_arm", detail))
                _walk_always(arm.body, module, refs, counter)


def assign_statement_ids(model: ast.DesignModel, start: int = 1) -> list[ast.StatementRef]:
    """Number every assign, branch arm, and sequential assignment S<n> in
    source order, writing the ids back into the AST nodes."""
    refs: list[ast.StatementRef] = []
    counter = [start - 1]
    for m in model.modules:
        items: list[tuple[int, int, object]] = []
        for a in m.assigns:
            items.append((a.line, 0, a))
        for b in m.always_blocks:
            items.append((b.line, 1, b))
        for line, _, node in sorted(items, key=lambda x: (x[0], x[1])):
            if isinstance(node, ast.ContAssign):
                counter[0] += 1
                node.stmt_id = f"S{counter[0]}"
                refs.append(ast.StatementRef(node.stmt_id, m.name, line, "assign"))
            else:
                _walk_always(node.body, m.name, refs, counter)  # type: ignore[union-attr]
    return refs


def _exprs_in_stmt(stmt: ast.AlwaysStmt):
    if isinstance(stmt, ast.SeqAssign):
        yield stmt.rhs
        if stmt.sel:
            yield stmt.sel[0]
            yield stmt.sel[1]
    elif isinstance(stmt, ast.IfStmt):
        yield stmt.cond
        for s in stmt.then_body:
            yield from _exprs_in_stmt(s)
        for s in stmt.else_body or []:
            yield from _exprs_in_stmt(s)
    elif isinstance(stmt, ast.CaseStmt):
        yield stmt.subject
        for arm in stmt.arms:
            for lab in arm.labels or []:
                yield lab
            for s in arm.body:
                yield from _exprs_in_stmt(s)


def _module_exprs(m: ast.ModuleDecl):
    for a in m.assigns:
        yield a.rhs
    for b in m.always_blocks:
        for s in b.body:
            yield from _exprs_in_stmt(s)
    for inst in m.instances:
        yield from inst.ports.values()


def _assignments_to(m: ast.ModuleDecl, reg: str):
    def walk(body):
        for stmt in body:
            if isinstance(stmt, ast.SeqAssign) and stmt.target == reg:
                yield stmt
            elif isinstance(stmt, ast.IfStmt):
                yield from walk(stmt.then_body)
                yield from walk(stmt.else_body or [])
            elif isinstance(stmt, ast.CaseStmt):
                for arm in stmt.arms:
                    yield from walk(arm.body)

    for b in m.always_blocks:
        yield from walk(b.body)


_CMP_OPS = {"==", "!=", "<", "<=", ">", ">="}


def detect_fsms(model: ast.DesignModel) -> list[ast.FsmDesc]:
    """A register is an FSM state register iff every comparison / case switch
    on it uses named parameter constants (and at least one exists), and every
    assignment to it is one of those named constants."""
    out: list[ast.FsmDesc] = []
    for m in model.modules:
        params = m.param_map()
        for sig in m.signals:
            if sig.kind != "reg":
                continue
            compared_names: set[str] = set()
            usage_count = 0
            ok = True
            for top in _module_exprs(m):
                for e in ast.walk(top):
                    if isinstance(e, ast.Binary) and e.op in _CMP_OPS:
                        sides = [(e.left, e.right), (e.right, e.left)]
                        for this, other in sides:
                            if isinstance(this, ast.Id) and this.name == sig.name:
                                usage_count += 1
                                if isinstance(other, ast.Id) and other.name in params:
                                    compared_names.add(other.name)
                                else:
                                    ok = False
            for b in m.always_blocks:
                def check_cases(body):
                    nonlocal usage_count, ok
                    for stmt in body:
                        if isinstance(stmt, ast.CaseStmt):
                            if isinstance(stmt.subject, ast.Id) and stmt.subject.name == sig.name:
                                usage_count += 1
                                for arm in stmt.arms:
                                    for lab in arm.labels or []:
                                        if isinstance(lab, ast.Id) and lab.name in params:
                                            compared_names.add(lab.name)
                                        else:
                                            ok = False
                            for arm in stmt.arms:
                                check_cases(arm.body)
                        elif isinstance(stmt, ast.IfStmt):
                            check_cases(stmt.then_body)
                            check_cases(stmt.else_body or [])

                check_cases(b.body)
            if not ok or usage_count == 0:
                continue
            assigned_names: set[str] = set()
            lines: list[int] = []
            for sa in _assignments_to(m, sig.name):
                if isinstance(sa.rhs, ast.Id) and sa.rhs.name in params:
                    assigned_names.add(sa.rhs.name)
                    lines.append(sa.line)
                else:
                    ok = False
                    break
            if not ok or not lines:
                continue
            encoding = {name: params[name] for name in sorted(compared_names | assigned_names)}
            out.append(ast.FsmDesc(f"{m.name}.{sig.name}", encoding, sorted(set(lines))))
    return out
