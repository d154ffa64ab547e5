import copy
import random
from itertools import compress

import pytest

from oracles import RefDesign, gen_design_source
from verikg.diagnostics import DiagCode, Diagnostics
from verikg.rtl import ast as rtl
from verikg.pipeline import parse_rtl_files
from verikg.rtl.analyze import assign_statement_ids, detect_fsms
from verikg.rtl.compile import Compiler, WidthError
from verikg.rtl.elaborate import NetModel, elaborate
from verikg.rtl.parser import parse_rtl
from verikg.sva import ast as S
from verikg.sva.bind import bind
from verikg.sva.parser import parse_properties


def parse_ok(src: str) -> rtl.DesignModel:
    model = parse_rtl(src)
    assert isinstance(model, rtl.DesignModel), model.render()
    return model


def parse_fail(src: str) -> Diagnostics:
    diags = parse_rtl(src)
    assert isinstance(diags, Diagnostics), "expected diagnostics"
    return diags


class TestParse:
    def test_minimal_module(self):
        m = parse_ok("module t (input a, output y);\n  assign y = a;\nendmodule\n")
        assert len(m.modules) == 1
        assert len(m.modules[0].ports) == 2
        assert [s.kind for s in m.statements] == ["assign"]

    def test_fifo_ports_and_widths(self, fifo_model):
        ports = {p.name: (p.direction, p.width) for p in fifo_model.modules[0].ports}
        assert set(ports) == {"clk", "rst", "wr_en", "rd_en", "din",
                              "dout", "full", "empty"}
        assert ports["din"] == ("input", 2)
        assert ports["dout"] == ("output", 2)
        assert ports["full"] == ("output", 1)

    def test_generate_is_unsupported(self):
        diags = parse_fail(
            "module t (input a);\n  generate\n  endgenerate\nendmodule\n")
        unsupported = [d for d in diags.errors if d.code is DiagCode.UNSUPPORTED]
        assert unsupported and unsupported[0].line == 2

    def test_async_reset_rejected(self):
        diags = parse_fail(
            "module t (input clk, input rst);\n  reg q;\n"
            "  always @(posedge clk or posedge rst) q <= 1'b0;\nendmodule\n")
        assert any(d.code is DiagCode.UNSUPPORTED for d in diags.errors)

    def test_resync_reports_multiple_errors(self):
        diags = parse_fail(
            "module t (input a, output y);\n"
            "  assign y = ;\n"
            "  assign q = a;\n"
            "endmodule\n")
        assert len(diags.errors) >= 1

    def test_diag_format(self):
        diags = parse_fail("module t (input a);\n  generate\nendmodule\n")
        line = diags.errors[0].render("t.v")
        assert line.startswith("t.v:2:")
        assert "error[UNSUPPORTED]" in line

    def test_non_ansi_ports(self):
        m = parse_ok(
            "module t (a, y);\n  input a;\n  output reg y;\n"
            "  always @(posedge a) y <= 1'b1;\nendmodule\n")
        assert {p.name for p in m.modules[0].ports} == {"a", "y"}

    def test_parameterized_width(self):
        m = parse_ok(
            "module t #(parameter W = 4) (input [W-1:0] a, output [W-1:0] y);\n"
            "  assign y = a;\nendmodule\n")
        assert m.modules[0].ports[0].width == 4


class TestStatementIndex:
    def test_single_assign(self):
        m = parse_ok("module t (input a, output y);\n  assign y = a;\nendmodule\n")
        assert [s.id for s in m.statements] == ["S1"]

    def test_if_else_counts_by_construction(self):
        m = parse_ok(
            "module t (input clk, input c);\n  reg x; reg y;\n"
            "  always @(posedge clk) begin\n"
            "    if (c)\n      x <= 1'b1;\n    else\n      y <= 1'b0;\n"
            "  end\nendmodule\n")
        kinds = [(s.kind, s.detail) for s in m.statements]
        assert kinds == [("branch_arm", "if_then"), ("seq_assign", None),
                         ("branch_arm", "if_else"), ("seq_assign", None)]

    def test_rerun_identical_ids(self, fifo_source, fifo_model):
        again = parse_rtl(fifo_source)
        assert [s.id for s in again.statements] == \
            [s.id for s in fifo_model.statements]
        assert [s.id for s in assign_statement_ids(fifo_model)] == \
            [s.id for s in fifo_model.statements]

    def test_files_number_on_from_the_files_before(self, fixtures_dir, tmp_path):
        """Each file is numbered once, from where the files before it
        stopped: the merged ids and FSMs are those of numbering the merged
        model in one pass."""
        fsm = tmp_path / "fsm.v"
        fsm.write_text(
            "module t (input clk);\n  localparam A = 0;\n  localparam B = 1;\n"
            "  reg s; wire y; assign y = s;\n"
            "  always @(posedge clk) if (s == A) s <= B; else s <= A;\nendmodule\n")
        paths = [str(fixtures_dir / "fifo.v"), str(fsm)]
        merged, _text = parse_rtl_files(paths)
        fifo_ids = [s.id for s in parse_rtl((fixtures_dir / "fifo.v").read_text()).statements]
        assert [s.id for s in merged.statements[:len(fifo_ids)]] == fifo_ids
        assert [s.id for s in merged.statements] == [
            f"S{n}" for n in range(1, len(merged.statements) + 1)]
        again = copy.deepcopy(merged)
        assert assign_statement_ids(again) == merged.statements and again == merged
        assert detect_fsms(merged) == merged.fsms and [f.state_reg for f in merged.fsms] == ["t.s"]
        assert merged.top is None
        single, _text = parse_rtl_files(paths[1:])
        assert single == parse_rtl(fsm.read_text()) and single.top == "t"


class TestFsm:
    def test_counter_with_literals_is_not_fsm(self):
        m = parse_ok(
            "module t (input clk);\n  reg [1:0] c;\n"
            "  wire hit; assign hit = c == 2'd3;\n"
            "  always @(posedge clk) c <= c + 2'd1;\nendmodule\n")
        assert m.fsms == []

    def test_localparam_case_register(self):
        m = parse_ok(
            "module t (input clk, input go);\n"
            "  localparam IDLE = 0;\n  localparam BUSY = 1;\n"
            "  reg state;\n"
            "  always @(posedge clk) begin\n"
            "    case (state)\n"
            "      IDLE: state <= BUSY;\n"
            "      BUSY: state <= IDLE;\n"
            "    endcase\n"
            "  end\nendmodule\n")
        assert len(m.fsms) == 1
        assert m.fsms[0].state_reg == "t.state"
        assert m.fsms[0].encoding == {"IDLE": 0, "BUSY": 1}
        assert len(m.fsms[0].transition_lines) == 2

    def test_two_qualifying_registers_source_order(self):
        m = parse_ok(
            "module t (input clk);\n"
            "  localparam A = 0;\n  localparam B = 1;\n"
            "  reg s1; reg s2;\n"
            "  always @(posedge clk) begin\n"
            "    if (s1 == A) s1 <= B; else s1 <= A;\n"
            "    if (s2 == B) s2 <= A; else s2 <= B;\n"
            "  end\nendmodule\n")
        assert [f.state_reg for f in m.fsms] == ["t.s1", "t.s2"]


class TestElaborate:
    def test_toggle_register(self):
        m = parse_ok(
            "module t (input clk, output x);\n  reg s;\n  assign x = s;\n"
            "  always @(posedge clk) s <= ~s;\nendmodule\n")
        net = elaborate(m, "t")
        assert isinstance(net, NetModel)
        assert net.state_bits == [("t.s", 1)]
        assert net.init == {"t.s": 0}
        assert net.step((0,), ()) == (1,)
        assert net.step((1,), ()) == (0,)

    def test_fifo_state_bits_and_init(self, fifo_net):
        names = {n: w for n, w in fifo_net.state_bits}
        assert names == {"fifo.slot0": 2, "fifo.slot1": 2, "fifo.wr_ptr": 1,
                         "fifo.rd_ptr": 1, "fifo.count": 2}
        assert all(v == 0 for v in fifo_net.init.values())
        assert fifo_net.clock == "fifo.clk"

    def test_combinational_cycle_detected(self):
        m = parse_ok(
            "module t (input a);\n  wire x; wire y;\n"
            "  assign x = y;\n  assign y = x;\nendmodule\n")
        diags = elaborate(m, "t")
        assert isinstance(diags, Diagnostics)
        assert any(d.code is DiagCode.CYCLE for d in diags.errors)

    @pytest.mark.parametrize("assigns, code, line, message", [
        ("assign b = c;\n  assign c = d;\n  assign d = b;", DiagCode.CYCLE, 3,
         "combinational cycle: t.b -> t.c -> t.d -> t.b"),
        ("assign b = c;\n  assign c = a ^ z;", DiagCode.UNRESOLVED, 4,
         "undriven net 't.z' referenced by 't.c'"),
    ], ids=["cycle", "undriven"])
    def test_wire_closure_diagnostics_name_the_path(self, assigns, code, line, message):
        diags = elaborate(parse_ok(
            "module t (input a, output y);\n  wire b, c, d, z;\n"
            f"  {assigns}\n  assign y = b;\nendmodule\n"), "t")
        assert isinstance(diags, Diagnostics)
        assert [(d.code, d.line, d.message) for d in diags.errors] == \
            [(code, line, message)]

    def test_long_alias_chain_elaborates(self):
        """1,500 alias wires, named so that sorted order starts at the far
        end of the chain, close without recursion."""
        n = 1500
        dm = parse_ok(
            "module t (input clk, input a);\n  reg r;\n"
            + "".join(f"  wire w{i:05d};\n" for i in range(n))
            + "".join(f"  assign w{i:05d} = w{i + 1:05d};\n" for i in range(n - 1))
            + f"  assign w{n - 1:05d} = a;\n"
            "  always @(posedge clk) r <= w00000;\nendmodule\n")
        net = elaborate(dm, "t")
        assert isinstance(net, NetModel), net.render()
        assert [net.step((0,), (a,)) for a in (0, 1)] == [(0,), (1,)]

    @pytest.mark.parametrize("shape, wires, read, deep", [
        ("xor", 600, 600, False),
        ("xor", 800, 800, False),
        ("xor", 1000, 1000, True),
        ("xor", 1500, 0, False),
        ("twice", 200, 200, False),
        ("twice", 400, 400, True),
    ])
    def test_wire_chain_too_deep_to_compile_is_a_diagnostic(self, shape, wires, read, deep):
        """A chain `w_i = w_{i-1} ^ a`, or `w_i = w_{i-1} ^ (w_{i-1} & a)`,
        with the register reading wire `read`. Where the register's next
        state nests too deep for the compiler, elaboration gives one
        BOUND_EXCEEDED diagnostic at its always block, not a RecursionError;
        a chain no register reads to its end elaborates at any length."""
        rhs = "w{0} ^ a" if shape == "xor" else "w{0} ^ (w{0} & a)"
        dm = parse_ok(
            "module t (input clk, input a);\n  reg r;\n  wire w0;\n  assign w0 = a;\n"
            + "".join(f"  wire w{i};\n  assign w{i} = {rhs.format(i - 1)};\n"
                      for i in range(1, wires + 1))
            + f"  always @(posedge clk) r <= w{read};\nendmodule\n")
        net = elaborate(dm, "t")
        if deep:
            assert [(d.code, d.line, d.message) for d in net.errors] == [
                (DiagCode.BOUND_EXCEEDED, 2 * wires + 5,
                 "expression nests too deep to elaborate")]
            return
        assert isinstance(net, NetModel), net.render()
        # a ^ a = 0 and w & ~a = 0 when a = 1; w0 is a itself
        expected = 1 if read == 0 or (shape == "xor" and read % 2 == 0) else 0
        assert net.step((0,), (1,)) == (expected,)
        assert len(net.readable) == wires + 3  # a, r and every wire

    def test_width_mismatch_reports_both_widths(self):
        m = parse_ok(
            "module t (input [1:0] a, input [2:0] b, output y);\n"
            "  assign y = a == b;\nendmodule\n")
        diags = elaborate(m, "t")
        assert isinstance(diags, Diagnostics)
        assert "2" in diags.errors[0].message and "3" in diags.errors[0].message

    @pytest.mark.parametrize("src, line", [
        ("module t (input clk, input [2:0] d);\n  reg [1:0] r;\n\n"
         "  always @(posedge clk)\n    r <= d;\nendmodule\n", 4),
        ("module t (input [2:0] d, output [1:0] y);\n\n"
         "  assign y = d;\nendmodule\n", 3),
        ("module t (input clk, input [2:0] d, input [1:0] e);\n  reg r;\n"
         "  always @(posedge clk)\n    if (d == e)\n      r <= r;\nendmodule\n", 4),
    ], ids=["next_state", "wire", "guard"])
    def test_width_error_points_at_source_line(self, src, line):
        diags = elaborate(parse_ok(src), "t")
        assert [(d.code, d.line) for d in diags.errors] == [(DiagCode.WIDTH, line)]

    @pytest.mark.parametrize("stmt, code, message", [
        ("b <= a;", DiagCode.UNRESOLVED, "undriven net 't.a' read"),
        ("b <= clk;", DiagCode.UNSUPPORTED, "clock 't.clk' read as data"),
        ("if (clk) b <= d;", DiagCode.UNSUPPORTED, "clock 't.clk' read as data"),
        ("b <= w;", DiagCode.UNSUPPORTED, "clock 't.clk' read as data"),
    ])
    def test_unreadable_name_is_a_diagnostic(self, stmt, code, message):
        """A register nothing assigns, and the clock (also through a wire),
        have no value to read: a diagnostic at the reading statement."""
        diags = elaborate(parse_ok(
            "module t (input clk, input d, output y);\n"
            "  reg a, b;\n  wire w;\n  assign w = clk;\n  assign y = b;\n"
            f"  always @(posedge clk)\n    {stmt}\nendmodule\n"), "t")
        assert isinstance(diags, Diagnostics)
        assert [(d.code, d.line, d.message) for d in diags.errors] == \
            [(code, 7, message)]

    @pytest.mark.parametrize("stmt, line, name", [
        ("assign y = d[q];", 4, "d"),
        ("assign y = d[q:0];", 4, "d"),
        ("always @(posedge clk)\n    r <= d[q];", 5, "d"),
        ("always @(posedge clk)\n    r[q] <= d[0];", 5, "r"),
        ("always @(posedge clk)\n    if (r[q]) r <= 2'd0;", 5, "r"),
    ])
    def test_non_constant_select_is_a_diagnostic(self, stmt, line, name):
        diags = elaborate(parse_ok(
            "module t (input clk, input [1:0] d, input q, output y);\n"
            "  reg [1:0] r;\n  assign y = r[0];\n"
            f"  {stmt}\nendmodule\n"), "t")
        assert isinstance(diags, Diagnostics)
        assert [(d.code, d.line, d.message) for d in diags.errors] == \
            [(DiagCode.UNSUPPORTED, line, f"non-constant select on {name!r}")]

    @pytest.mark.parametrize("stmt, name", [
        ("r <= w[7:4];", "w"),
        ("r <= a[7:4];", "a"),
        ("r <= r[7:4];", "r"),
        ("r[7:4] <= a;", "r"),
        ("if (w[4]) r <= a;", "w"),
    ], ids=["wire", "input", "register", "target", "condition"])
    def test_out_of_range_select_is_a_diagnostic(self, stmt, name):
        """A select is checked against its signal's declared width where it
        is read, before a wire is inlined, so a wire's is checked too."""
        diags = elaborate(parse_ok(
            "module t (input clk, input [3:0] a);\n"
            "  wire [3:0] w;\n  reg [3:0] r;\n  assign w = a;\n"
            f"  always @(posedge clk)\n    {stmt}\nendmodule\n"), "t")
        assert isinstance(diags, Diagnostics)
        select = "[4:4]" if "[4]" in stmt else "[7:4]"
        assert [(d.code, d.line, d.message) for d in diags.errors] == \
            [(DiagCode.WIDTH, 6, f"select {select} out of range for 't.{name}' (width 4)")]

    def test_unresolved_instance(self):
        m = parse_ok("module t (input a);\n  ghost u0 (.p(a));\nendmodule\n")
        diags = elaborate(m, "t")
        assert isinstance(diags, Diagnostics)
        assert "ghost" in diags.errors[0].message

    def test_hierarchical_flattening(self):
        m = parse_ok(
            "module leaf (input clk, input d, output q);\n"
            "  reg r;\n  assign q = r;\n"
            "  always @(posedge clk) r <= d;\nendmodule\n"
            "module top (input clk, input d, output q);\n"
            "  wire mid;\n"
            "  leaf a (.clk(clk), .d(d), .q(mid));\n"
            "  leaf b (.clk(clk), .d(mid), .q(q));\nendmodule\n")
        net = elaborate(m, "top")
        assert isinstance(net, NetModel), net.render()
        assert [n for n, _ in net.state_bits] == ["top.a.r", "top.b.r"]
        s = net.init_state()
        s = net.step(s, (1,))  # d=1
        s = net.step(s, (0,))
        assert s == (0, 1)  # the bit shifted through the chain

    def test_part_select_assign_of_unsized_literal(self):
        m = parse_ok(
            "module t (input clk);\n  reg [3:0] r;\n"
            "  always @(posedge clk) r[1:0] <= 1;\nendmodule\n")
        net = elaborate(m, "t")
        assert isinstance(net, NetModel), net.render()
        assert net.step((0b1010,), ()) == (0b1001,)

    def test_parameter_override(self):
        m = parse_ok(
            "module leaf #(parameter W = 2) (input clk, input [W-1:0] d);\n"
            "  reg [W-1:0] r;\n"
            "  always @(posedge clk) r <= d;\nendmodule\n"
            "module t (input clk, input [3:0] d);\n"
            "  leaf #(.W(4)) u0 (.clk(clk), .d(d));\nendmodule\n")
        net = elaborate(m, "t")
        assert net.state_bits == [("t.u0.r", 4)]
        assert net.inputs == [("t.d", 4)]

    def test_choice_between_parameters_adapts_to_its_target(self):
        """`?:` over two parameters (unsized literals) is unsized: the usual
        FSM style elaborates, and each arm is read at the target's width."""
        m = parse_ok(
            "module t (input clk, input c);\n"
            "  localparam A = 2'd0, B = 2'd1, C = 7;\n  reg [1:0] s, u;\n"
            "  wire [1:0] w;\n  assign w = c ? B : C;\n"
            "  always @(posedge clk) begin\n"
            "    if (c) s <= A; else s <= B;\n    u <= w;\n  end\nendmodule\n")
        net = elaborate(m, "t")
        assert isinstance(net, NetModel), net.render()
        assert net.step((2, 0), (1,)) == (0, 1)
        assert net.step((2, 0), (0,)) == (1, 3)  # C = 7 read as 2 bits

    def test_sized_parameter_adapts_to_a_wider_operand(self):
        m = parse_ok(
            "module t (input clk);\n"
            "  localparam MAX = 4'd9, A = 2'd1;\n  reg [7:0] cnt;\n  reg [2:0] s;\n"
            "  always @(posedge clk) begin\n"
            "    if (cnt == MAX) cnt <= 8'd0; else cnt <= cnt + 8'd1;\n"
            "    s <= A;\n  end\nendmodule\n")
        net = elaborate(m, "t")
        assert isinstance(net, NetModel), net.render()
        assert net.step((9, 0), ()) == (0, 1)
        assert net.step((3, 0), ()) == (4, 1)

    def test_parameter_has_one_value_in_ranges_and_expressions(self):
        """A sized parameter expression that overflows its literals' width
        is the same number as a range bound and as a value."""
        m = parse_ok(
            "module t (input clk);\n  localparam B = 2'd1 + 2'd3;\n  reg [B:0] r;\n"
            "  always @(posedge clk) r <= B;\nendmodule\n")
        net = elaborate(m, "t")
        assert isinstance(net, NetModel), net.render()
        assert net.state_bits == [("t.r", 5)]
        assert net.step((0,), ()) == (4,)

    def test_every_statement_has_guard(self, fifo_model, fifo_net):
        assert set(fifo_net.statement_guards) == \
            {s.id for s in fifo_model.statements}


class TestElaborationSoundness:
    """NetModel simulation and the compiled statement guards coverage
    runs must match direct statement execution."""

    @pytest.mark.parametrize("driver", ["5", "a ? r : 5"])
    def test_unsized_wire_driver_is_read_at_wire_width(self, driver):
        dm = parse_ok(
            "module t (input clk, input a);\n  reg [1:0] r;\n  wire [1:0] y;\n"
            f"  assign y = {driver};\n"
            "  always @(posedge clk) r <= (y == 2'd1) ? 2'd2 : 2'd3;\nendmodule\n")
        next_ref, _executed = RefDesign(dm, "t").step({"t.r": 0}, {"t.a": 0})
        assert elaborate(dm, "t").step((0,), (0,)) == (next_ref["t.r"],) == (2,)

    @pytest.mark.parametrize("body", ["a = b; b = d; c = a;",
                                      "a = b; b = a; c = a;"])
    def test_blocking_assignments_agree_with_reference(self, body):
        """A blocking assignment's value is in start-of-cycle terms already;
        a later read must not substitute it a second time."""
        dm = parse_ok(
            "module t (input clk, input d);\n  reg a, b, c;\n"
            f"  always @(posedge clk) begin {body} end\nendmodule\n")
        net = elaborate(dm, "t")
        assert isinstance(net, NetModel), net.render()
        ref = RefDesign(dm, "t")
        names = [n for n, _ in net.state_bits]
        for bits in range(8):
            state = tuple(bits >> i & 1 for i in range(3))
            for d in (0, 1):
                next_ref, _executed = ref.step(dict(zip(names, state)), {"t.d": d})
                assert net.step(state, (d,)) == tuple(next_ref[n] for n in names)

    @pytest.mark.parametrize("then, init", [
        ("a <= 1'd1; if (d) b <= 1'd1;", (1, 0, 0)),
        ("a <= 1'd1; b <= d; c <= 1'd1;", (1, 0, 1)),
    ])
    def test_reset_branch_inits_agree_with_reference(self, then, init):
        """Each constant assignment directly in a lone top-level `if`'s
        then-branch gives an init value, whatever else the branch holds."""
        dm = parse_ok(
            "module t (input clk, input rst, input d);\n  reg a, b, c;\n"
            f"  always @(posedge clk) if (rst) begin {then} end\n"
            "    else begin a <= d; b <= d; c <= d; end\nendmodule\n")
        net = elaborate(dm, "t")
        assert isinstance(net, NetModel), net.render()
        names = [n for n, _ in net.state_bits]
        assert net.init_state() == init
        assert dict(zip(names, init)) == RefDesign(dm, "t").init_state()

    def test_long_case_agrees_with_reference(self):
        """A 300-arm case elaborates to a 300-deep ?: chain and guards with
        300-deep priority chains; generated code must stay within the
        interpreter's nesting limits."""
        arms = "".join(f"      9'd{i}: r <= 9'd{(i + 97) % 300};\n"
                       for i in range(300))
        dm = parse_ok(
            "module t (input clk, input rst);\n  reg [8:0] r;\n"
            "  always @(posedge clk)\n    if (rst) r <= 9'd0;\n"
            "    else case (r)\n" + arms +
            "      default: r <= 9'd0;\n    endcase\nendmodule\n")
        net = elaborate(dm, "t")
        assert isinstance(net, NetModel), net.render()
        ref = RefDesign(dm, "t")
        s_net, s_ref = net.init_state(), ref.init_state()
        for _ in range(12):
            next_ref, executed = ref.step(s_ref, {"t.rst": 0})
            hit = set(compress(net.statement_guards, net.executed(s_net + (0,))))
            assert hit == executed
            s_net, s_ref = net.step(s_net, (0,)), next_ref
            assert s_net == (s_ref["t.r"],)
        assert s_net != (0,)

    def test_random_designs_agree_with_reference(self):
        rng = random.Random(20260808)
        checked = 0
        attempts = 0
        while checked < 40 and attempts < 200:
            attempts += 1
            src = gen_design_source(rng)
            dm = parse_rtl(src)
            if not isinstance(dm, rtl.DesignModel):
                continue
            net = elaborate(dm, "duv")
            if not isinstance(net, NetModel):
                continue
            checked += 1
            ref = RefDesign(dm, "duv")
            names = sorted(n for n, _ in ref.inputs if n != ref.clock)
            widths = dict(ref.inputs)
            s_net = net.init_state()
            s_ref = ref.init_state()
            for _ in range(20):
                combo = {n: rng.randrange(1 << widths[n]) for n in names}
                vec = tuple(combo.get(n, 0) for n, _ in net.inputs)
                next_ref, executed = ref.step(s_ref, combo)
                for sid, hit in zip(net.statement_guards, net.executed(s_net + vec),
                                    strict=True):
                    assert bool(hit) == (sid in executed), (sid, src)
                s_net = net.step(s_net, vec)
                s_ref = next_ref
                assert dict(zip((n for n, _ in net.state_bits), s_net)) == s_ref, src
        assert checked == 40


# (RTL right-hand side of a 2-bit wire, property expression over the FIFO)
_UNSIZED = {
    "concat": ("{d, 0}", "{wr_en, 0} == 2'd0"),
    "operator": ("1 + 2", "count == (1 + 1)"),
    "ternary": ("{d, d ? 1 : 2}", "{wr_en, wr_en ? 1 : 2} == 2'd0"),
}


@pytest.mark.parametrize("layer, case", [
    ("compile", "concat"), ("rtl", "concat"), ("sva", "concat"),
    ("rtl", "operator"), ("sva", "operator"), ("rtl", "ternary"), ("sva", "ternary"),
], ids=["compile", "rtl", "sva", "rtl-operator", "sva-operator",
        "rtl-ternary", "sva-ternary"])
def test_unsized_concat_part_has_no_width(layer, case, fifo_model, fifo_index):
    """The compiler, the elaborator and the binder share width_of's rule:
    an unsized literal has no width inside a concatenation, and neither
    has an operator or `?:` whose operands are all unsized literals.
    (Outside a concatenation such a `?:` adapts to its context, see
    `test_choice_between_parameters_adapts_to_its_target`.)"""
    rhs, prop = _UNSIZED[case]
    if layer == "compile":
        with pytest.raises(WidthError, match="unsized literal inside concatenation"):
            Compiler({"d": 1}, {"d": 0}).compile(
                rtl.Concat((rtl.Id("d"), rtl.Lit(0, None))))
    elif layer == "rtl":
        diags = elaborate(parse_ok(
            "module t (input d, output [1:0] y);\n"
            f"  assign y = {rhs};\nendmodule\n"), "t")
        assert [d.code for d in diags.errors] == [DiagCode.WIDTH]
    else:
        pf = parse_properties("default clocking @(posedge clk); endclocking\n"
                              "// property: PROP-001\n"
                              f"assert property ({prop});")
        _bound, errs = bind(pf, fifo_model, fifo_index)
        assert [i.kind for i in errs.for_prop("PROP-001")] == \
            [S.BindErrorKind.WIDTH_MISMATCH]


def test_choice_between_unsized_literals_binds_in_a_property(fifo_model, fifo_index):
    pf = parse_properties("default clocking @(posedge clk); endclocking\n"
                          "// property: PROP-001\n"
                          "assert property (count == (wr_en ? 1 : 2));")
    _bound, errs = bind(pf, fifo_model, fifo_index)
    assert not errs.for_prop("PROP-001")


def _node_kinds(cls=rtl.Node) -> set[type]:
    """Every concrete expression node class."""
    subs = cls.__subclasses__()
    return set().union(*map(_node_kinds, subs)) if subs else {cls}


def test_traversal_covers_every_node_kind():
    """One expression holds every node kind: the shared traversal keeps it,
    visits each node once, rebuilds each kind, and finds its names."""
    a, c, d = rtl.Id("a"), rtl.Id("c"), rtl.Id("d")
    m = S.MacroRef("M")
    rose, fell = S.Rose(a), S.Fell(m)
    cond = rtl.Binary("&&", rose, fell)
    hi, lo = rtl.Lit(1, None), rtl.Lit(0, None)
    sel = rtl.Select("b", hi, lo)
    past = S.Past(c, 2)
    cat = rtl.Concat((sel, past))
    stable = S.Stable(d)
    neg = rtl.Unary("~", stable)
    sl = rtl.SliceX(neg, 0, 0)
    e = rtl.Ternary(cond, cat, sl)
    preorder = [e, cond, rose, a, fell, m, cat, sel, hi, lo, past, c, sl, neg,
                stable, d]

    assert {type(n) for n in preorder} == _node_kinds()
    assert len(_node_kinds()) == 13
    walked = list(rtl.walk(e))
    assert len(walked) == len(preorder)
    assert all(w is p for w, p in zip(walked, preorder))
    assert rtl.rewrite(e, lambda n: None) is e
    assert rtl.expr_ids(e) == {"a", "b", "c", "d"}

    def leaf(n):
        if isinstance(n, rtl.Id):
            return rtl.Id(n.name.upper())
        if isinstance(n, S.MacroRef):
            return rtl.Id(n.name.lower())
        if isinstance(n, rtl.Lit):
            return rtl.Lit(n.value, 1)
        return None

    A, C, D = rtl.Id("A"), rtl.Id("C"), rtl.Id("D")
    assert rtl.rewrite(e, leaf) == rtl.Ternary(
        rtl.Binary("&&", S.Rose(A), S.Fell(rtl.Id("m"))),
        rtl.Concat((rtl.Select("b", rtl.Lit(1, 1), rtl.Lit(0, 1)), S.Past(C, 2))),
        rtl.SliceX(rtl.Unary("~", S.Stable(D)), 0, 0))
