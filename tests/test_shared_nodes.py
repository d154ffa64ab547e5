"""Each shared expression node is walked once. `NetModel.executed`,
`width_of` and `expr_ids` agree with their frozen copies in
`tests/reference_walkers.py`, which walk a shared node once per path to it
and compile each statement's guard alone; and elaboration stays linear in
the arms of a `case` and in a chain of wires each read twice."""

import itertools
import random
import subprocess
import sys
import time
from pathlib import Path

import pytest

import reference_walkers as ref
from oracles import gen_design_source
from reference_walkers import gen_stmt_design
from verikg.engine import CheckConfig, coverage
from verikg.rtl import ast
from verikg.rtl.compile import WidthError, width_of
from verikg.rtl.elaborate import NetModel, elaborate
from verikg.rtl.parser import parse_rtl

_SRC = Path(__file__).resolve().parents[1] / "src"


def case_source(arms: int) -> str:
    """A register that steps through `arms` values, one `case` arm per
    value, under a reset; the default arm is unreachable."""
    bits = (arms - 1).bit_length()
    items = "".join(f"      {bits}'d{i}: r <= {bits}'d{(i + 97) % arms};\n"
                    for i in range(arms))
    return (f"module t (input clk, input rst);\n  reg [{bits - 1}:0] r;\n"
            "  always @(posedge clk)\n    if (rst) r <= 0;\n"
            "    else case (r)\n" + items +
            "      default: r <= 0;\n    endcase\nendmodule\n")


def twice_read_source(wires: int) -> str:
    """A chain of wires, each reading the one before it twice; a register
    reads the last."""
    lines = ["module t (input clk, input a);", "  reg r;", "  wire w0;",
             "  assign w0 = a;"]
    for i in range(1, wires + 1):
        lines += [f"  wire w{i};", f"  assign w{i} = w{i - 1} ^ (w{i - 1} & a);"]
    return "\n".join(lines + [f"  always @(posedge clk) r <= w{wires};",
                              "endmodule", ""])


def _elaborate(source: str, top: str) -> NetModel | None:
    dm = parse_rtl(source)
    if not isinstance(dm, ast.DesignModel):
        return None
    net = elaborate(dm, top)
    return net if isinstance(net, NetModel) else None


def _nets():
    """Nets of generated designs of both generators, and of a 300-arm
    `case`."""
    rng = random.Random(2323)
    nets: list[NetModel] = []
    for gen, top, count in ((gen_design_source, "duv", 40), (gen_stmt_design, "top", 30)):
        made = 0
        while made < count:
            net = _elaborate(gen(rng), top)
            if net is not None:
                nets.append(net)
                made += 1
    return nets + [_elaborate(case_source(300), "t")]


def _reachable(net: NetModel):
    """Each slot tuple `state + inputs` whose state is reachable, breadth
    first."""
    vectors = list(itertools.product(*[range(1 << w) for _n, w in net.inputs]))
    seen = {net.init_state()}
    frontier = list(seen)
    while frontier:
        layer = []
        for state in frontier:
            for vec in vectors:
                yield state + vec
                nxt = net.step(state, vec)
                if nxt not in seen:
                    seen.add(nxt)
                    layer.append(nxt)
        frontier = layer


def test_executed_matches_the_per_statement_guards():
    """One truth per statement, in `statement_guards` order, at every
    reachable valuation: each is its guard's, compiled alone."""
    checked = 0
    for net in _nets():
        guards = list(ref.guard_fns(net).values())
        for x in _reachable(net):
            assert tuple(map(bool, net.executed(x))) == tuple(bool(g(x)) for g in guards)
            checked += 1
    assert checked > 1000


_WIDTHS = {"a": 1, "b": 2, "c": 3, "d": 4}
_OPS = sorted(ast.COMPARISON_OPS | ast.LOGICAL_OPS | ast.BITWISE_OPS | ast.ARITH_OPS)


def _shared_exprs(rng: random.Random, count: int) -> list:
    """`count` expressions that reuse the nodes made before them, so that
    many nodes are reached along more than one path; some have width
    faults, unsized operands or an undeclared name. Each stays below 2,000
    nodes as a tree, so the reference can walk it."""
    pool: list = []
    size: dict[int, int] = {}

    def pick():
        return rng.choice(pool[-12:])

    while len(pool) < count:
        kind = rng.choice(["lit", "id", "sel"] if len(pool) < 4 else
                          ["lit", "id", "sel", "slice", "un", "bin", "bin",
                           "cond", "cat"])
        if kind == "lit":
            w = rng.choice([None, 1, 2, 3, 4])
            e = ast.Lit(rng.randrange(1 << (w or 3)), w)
        elif kind == "id":
            e = ast.Id(rng.choice(sorted(_WIDTHS) + ["zz"]))
        elif kind == "sel":
            lo = rng.randrange(4)
            e = ast.Select(rng.choice(sorted(_WIDTHS)), ast.Lit(lo + rng.randrange(2), None),
                           ast.Lit(lo, None))
        elif kind == "slice":
            lo = rng.randrange(3)
            e = ast.SliceX(pick(), lo + rng.randrange(2), lo)
        elif kind == "un":
            e = ast.Unary(rng.choice(["~", "!", "-"]), pick())
        elif kind == "bin":
            e = ast.Binary(rng.choice(_OPS), pick(), pick())
        elif kind == "cond":
            e = ast.Ternary(pick(), pick(), pick())
        else:
            e = ast.Concat(tuple(pick() for _ in range(rng.randint(1, 3))))
        n = 1 + sum(size.get(id(k), 1) for k in e.children())
        if n < 2000:
            size[id(e)] = n
            pool.append(e)
    return pool


def _width_or_error(e, widths, *memo):
    try:
        return width_of(e, widths, *memo)
    except WidthError as err:
        return err.message


def _ref_width_or_error(e, widths):
    try:
        return ref.width_of(e, widths)
    except WidthError as err:
        return err.message


def _elaborated_roots(net: NetModel) -> list:
    return [*net.next_state.values(), *net.comb.values(), *net.statement_guards.values()]


def test_width_of_and_expr_ids_match_the_per_path_walks():
    """The same width or the same first error, and the same names, for each
    root, whether the memo is the root's own or shared with the roots
    before it."""
    exprs = _shared_exprs(random.Random(77), 2000)
    cases = [(exprs, _WIDTHS)] + [(_elaborated_roots(net), net.widths) for net in _nets()]
    outcomes = set()
    for roots, widths in cases:
        widths_seen: dict = {}
        names_seen: dict = {}
        for e in roots:
            expected = _ref_width_or_error(e, widths)
            assert _width_or_error(e, widths) == expected, ast.render_expr(e)
            assert _width_or_error(e, widths, widths_seen) == expected, ast.render_expr(e)
            assert ast.expr_ids(e, names_seen) == ast.expr_ids(e) == ref.expr_ids(e)
            outcomes.add(type(expected))
    assert outcomes == {int, str, type(None)}


@pytest.mark.parametrize("source, size", [
    (case_source, 300), (case_source, 700), (twice_read_source, 200),
], ids=["case300", "case700", "twice_read200"])
def test_elaboration_is_linear(source, size):
    """Generous linear bounds: elaborating and covering a 700-arm `case`
    took over 8 s when each guard repeated the arms before it, and 20
    twice-read wires took over 3 s when each read was walked as a tree."""
    dm = parse_rtl(source(size))
    start = time.perf_counter()
    net = elaborate(dm, "t")
    assert isinstance(net, NetModel), net.render()
    cm = coverage(net, [], CheckConfig(max_depth=2 * size))
    assert time.perf_counter() - start < 0.005 * size
    if source is case_source:
        # every labelled arm runs; the default arm and its assignment never do
        assert cm.unreachable_statements == [f"S{2 * size + 4}", f"S{2 * size + 5}"]
    else:
        assert net.step((0,), (1,)) == (0,)


def test_long_case_elaborates_in_little_memory():
    """Peak RSS of a process that elaborates the 700-arm `case`; it was
    about 850 MB when each guard repeated the arms before it. Linux carries
    the peak across `exec`, so the probe is started from a small launcher,
    not straight from the test runner, whose own peak it would report."""
    probe = ("import resource\n"
             "from verikg.rtl.elaborate import NetModel, elaborate\n"
             "from verikg.rtl.parser import parse_rtl\n"
             f"net = elaborate(parse_rtl({case_source(700)!r}), 't')\n"
             "assert isinstance(net, NetModel)\n"
             "print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)\n")
    launcher = ("import subprocess, sys\n"
                "subprocess.run([sys.executable, '-c', sys.argv[1]], check=True)\n")
    out = subprocess.run([sys.executable, "-c", launcher, probe], capture_output=True,
                         text=True, env={"PYTHONPATH": str(_SRC)}, check=True)
    assert int(out.stdout) < 150 * 1024  # KiB on Linux
