"""The shared statement traversal (`rtl.ast.walk_stmts`), expression
printer (`rtl.ast.render_expr`) and the coverage loop's enabling conditions
against the walkers and the printer they replaced
(`tests/reference_walkers.py`), on generated designs whose always blocks
nest `if`/`else` and `case`, and `case` semantics against the oracle."""

import copy
import itertools
import random
from pathlib import Path

import pytest

import reference_walkers as ref
from independent_oracles import RefDesign, oracle_reachable_statements
from oracles import gen_property_source
from verikg.agents.coverage_loop import enabling_conditions, guard_text
from verikg.diagnostics import DiagCode, Diagnostics
from verikg.engine.coverage import coverage
from verikg.rtl import ast as rtl
from verikg.rtl.analyze import assign_statement_ids, detect_fsms
from verikg.rtl.elaborate import NetModel, elaborate
from verikg.rtl.parser import parse_rtl
from verikg.sva import ast as S
from verikg.sva.parser import parse_properties


def _designs(n: int, seed: int):
    rng = random.Random(seed)
    for _ in range(n):
        source = ref.gen_stmt_design(rng)
        dm = parse_rtl(source)
        assert isinstance(dm, rtl.DesignModel), (source, dm.render())
        yield source, dm


def _default_before_an_item(dm: rtl.DesignModel) -> bool:
    return any(isinstance(s, rtl.CaseStmt) and s.arms[-1].labels is not None
               and any(a.labels is None for a in s.arms)
               for m in dm.modules for b in m.always_blocks
               for s in rtl.walk_stmts(b.body))


def test_statement_ids_and_fsms_match_the_reference_walkers():
    """Every StatementRef, every id written back into the AST and every
    detected FSM are the reference walkers' own."""
    rng = random.Random(1)
    fsms = defaults_inside = 0
    for source, dm in _designs(150, seed=10):
        # not 1, so every id must be written again, not kept from the parser
        start = rng.choice([2, 5, 9])
        ours, theirs = copy.deepcopy(dm), copy.deepcopy(dm)
        assert assign_statement_ids(ours, start) == \
            ref.assign_statement_ids(theirs, start), source
        assert ours.to_doc() == theirs.to_doc(), source
        assert dm.statements == ref.assign_statement_ids(copy.deepcopy(dm)), source
        assert detect_fsms(dm) == ref.detect_fsms(dm) == dm.fsms, source
        fsms += len(dm.fsms)
        defaults_inside += _default_before_an_item(dm)
    assert fsms >= 25 and defaults_inside >= 100


def _steps(net: NetModel, oracle: RefDesign, state: tuple, inputs: tuple):
    """(next state, executed statement ids) for one (state, input) pair,
    from the net (the statements whose guards hold) and from the oracle."""
    regs = [n for n, _w in net.state_bits]
    next_ref, executed = oracle.step(dict(zip(regs, state)),
                                     dict(zip((n for n, _w in net.inputs), inputs)))
    ran = set(itertools.compress(net.statement_guards, net.executed(state + inputs)))
    return (net.step(state, inputs), ran), (tuple(next_ref[r] for r in regs), executed)


def test_elaboration_and_coverage_match_the_reference():
    """State bits are the registers the reference walker finds assigned;
    the engine covers exactly the statements the oracle executes."""
    fsms = defaults_inside = 0
    for source, dm in _designs(120, seed=11):
        net = elaborate(dm, "top")
        assert isinstance(net, NetModel), (source, net)
        fsms += len(dm.fsms)
        defaults_inside += _default_before_an_item(dm)
        assert [n for n, _w in net.state_bits] == ref.state_registers(dm, "top"), source
        cm = coverage(net, [])
        assert not cm.partial, source
        assert set(cm.covered_statements) == \
            oracle_reachable_statements(RefDesign(dm, "top")), source
    assert fsms >= 10 and defaults_inside >= 50


def test_elaboration_steps_match_the_reference():
    """On every reachable state and every input, the net's next state and
    the statements whose guards hold are the oracle's: the check on how
    elaboration folds the arms' assignments back into one map."""
    pairs = 0
    for source, dm in _designs(120, seed=11):
        net = elaborate(dm, "top")
        assert isinstance(net, NetModel), (source, net)
        oracle = RefDesign(dm, "top")
        init = net.init_state()
        assert init == tuple(oracle.init_state()[r] for r, _w in net.state_bits), source
        combos = list(itertools.product(*(range(1 << w) for _n, w in net.inputs)))
        seen, frontier = {init}, [init]
        while frontier:
            state = frontier.pop()
            for inputs in combos:
                ours, theirs = _steps(net, oracle, state, inputs)
                assert ours == theirs, (source, state, inputs)
                pairs += 1
                if ours[0] not in seen:
                    seen.add(ours[0])
                    frontier.append(ours[0])
    assert pairs >= 2500


def test_rtl_expressions_print_as_before():
    for source, dm in _designs(40, seed=12):
        for m in dm.modules:
            for top in ref._module_exprs(m):
                for e in rtl.walk(top):
                    assert rtl.render_expr(e) == ref.render_sva_expr(e), source


def test_property_expressions_print_as_before():
    rng = random.Random(13)
    statements = "".join(gen_property_source(rng, ["a", "b", "`BUSY"], ["c"])
                         for _ in range(200))
    pf = parse_properties("default clocking @(posedge clk); endclocking\n"
                          "`define BUSY a\n" + statements)
    assert isinstance(pf, S.PropertyFile) and len(pf.properties) == 200
    for decl in pf.properties:
        body = decl.body
        seqs = [body.consequent] + ([body.antecedent] if body.antecedent else [])
        tops = [step.expr for seq in seqs for step in seq.steps]
        tops += [body.disable] if body.disable is not None else []
        for top in tops:
            for e in rtl.walk(top):
                assert rtl.render_expr(e) == ref.render_sva_expr(e)


@pytest.mark.parametrize("source, text", [
    ("!$rose(a)", "!$rose(a)"),
    ("!`M", "!`M"),
    ("~(a[1:0])", "~(a[1:0])"),
    ("-{a, b}", "-({a, b})"),
    ("!$past(c, 2)", "!$past(c, 2)"),
    ("~$stable(!a)", "~$stable(!a)"),
    ("!(a && $fell(`M))", "!((a && $fell(`M)))"),
])
def test_unary_operands_print_bare_only_when_atomic(source, text):
    pf = parse_properties("default clocking @(posedge clk); endclocking\n"
                          f"assert property ({source});\n")
    assert isinstance(pf, S.PropertyFile), pf
    e = pf.properties[0].body.consequent.steps[0].expr
    assert rtl.render_expr(e) == ref.render_sva_expr(e) == text


_DEFAULT_FIRST = """module t (input clk);
  reg [1:0] r;
  always @(posedge clk)
    case (r)
      default: r <= 2'd0;
      2'd0: r <= 2'd1;
      2'd1: r <= 2'd2;
    endcase
endmodule
"""


def test_default_item_is_taken_only_when_no_item_matches():
    """A `default` ahead of labelled items does not shadow them: the next
    state, the statement guards and the guard text all try it last."""
    dm = parse_rtl(_DEFAULT_FIRST)
    net = elaborate(dm, "t")
    assert isinstance(net, NetModel), net.render()
    oracle = RefDesign(dm, "t")
    for r in range(4):
        next_ref, executed = oracle.step({"t.r": r}, {})
        assert net.step((r,), ()) == (next_ref["t.r"],)
        assert set(itertools.compress(net.statement_guards, net.executed((r,)))) == executed
    cm = coverage(net, [])
    assert set(cm.covered_statements) == oracle_reachable_statements(oracle) \
        == {f"S{k}" for k in range(1, 7)}
    default = next(s for s in dm.statements if s.detail == "case_default")
    assert default.id == "S1"  # numbering stays in source order
    r = rtl.Id("r")
    matches = rtl.Binary("||", rtl.Binary("==", r, rtl.Lit(0, 2)),
                         rtl.Binary("==", r, rtl.Lit(1, 2)))
    assert guard_text(enabling_conditions(dm)["S1"]) == \
        f"({rtl.render_expr(rtl.Unary('!', matches))})"


_LABEL_AFTER_BLOCKING = """module t (input clk, input [1:0] d);
  reg [1:0] a, r;
  always @(posedge clk) begin
    a = d;
    case (2'd1)
      a: r <= 2'd2;
      default: r <= 2'd3;
    endcase
  end
endmodule
"""


def test_case_label_reads_earlier_blocking_assignments():
    """A `case` label reads the values left by the blocking assignments
    before it in its block, as the subject and `if` conditions do: on
    every (state, input) valuation the net agrees with the oracle."""
    dm = parse_rtl(_LABEL_AFTER_BLOCKING)
    net = elaborate(dm, "t")
    assert isinstance(net, NetModel), net.render()
    oracle = RefDesign(dm, "t")
    n_state = len(net.state_bits)
    item = next(s.id for s in dm.statements if s.detail == "case_item")
    taken = 0
    for x in itertools.product(*(range(1 << w) for _n, w in net.state_bits + net.inputs)):
        ours, theirs = _steps(net, oracle, x[:n_state], x[n_state:])
        assert ours == theirs, x
        taken += item in ours[1]
    assert taken == 16  # the item runs exactly when d == 1


def test_second_default_item_is_a_diagnostic():
    source = _DEFAULT_FIRST.replace("2'd1: r <= 2'd2;", "default: r <= 2'd2;")
    diags = parse_rtl(source)
    assert isinstance(diags, Diagnostics)
    assert [(d.code, d.line) for d in diags.items] == [(DiagCode.DUPLICATE, 7)]


def test_enabling_conditions_match_the_per_statement_walk():
    """One walk per design gives every statement the guard text that the
    per-statement walk gives it, on the fixtures and on generated designs;
    an id the design does not have reads `1'd1` on both."""
    fixtures = Path(__file__).parent / "fixtures"
    models = [parse_rtl(p.read_text()) for p in sorted(fixtures.glob("*.v"))]
    models += [parse_rtl(_DEFAULT_FIRST), parse_rtl(_LABEL_AFTER_BLOCKING)]
    models += [dm for _source, dm in _designs(150, seed=12)]
    nested = 0
    for dm in models:
        assert isinstance(dm, rtl.DesignModel), dm.render()
        conditions = enabling_conditions(dm)
        assert set(conditions) == {s.id for s in dm.statements}
        for sid in [s.id for s in dm.statements] + ["S0"]:
            assert guard_text(conditions.get(sid, ())) == ref.source_guard_text(dm, sid), sid
        nested += any(len(conds) > 1 for conds in conditions.values())
    assert nested >= 100
