"""Random design and property generators for the test suite and the
benchmark, which imports this module for them (`perfbench/workloads.py`).

They write source text, so that the whole parser and elaboration path is
exercised. The independent oracles are in `independent_oracles.py`.
"""

from __future__ import annotations

import random


def gen_design_source(rng: random.Random, max_regs: int = 3) -> str:
    n_regs = rng.randint(1, max_regs)
    n_inputs = rng.randint(1, 2)
    reg_widths = [rng.choice([1, 1, 2]) for _ in range(n_regs)]
    regs = [f"r{i}" for i in range(n_regs)]
    ins = [f"i{i}" for i in range(n_inputs)]

    def expr(width: int, depth: int) -> str:
        choices = ["lit", "sig"]
        if depth > 0:
            choices += ["un", "bin", "bin", "mux"]
            if width == 1:
                choices += ["cmp", "not"]
        kind = rng.choice(choices)
        if kind == "lit":
            return f"{width}'d{rng.randrange(1 << width)}"
        if kind == "sig":
            pool = [r for r, w in zip(regs, reg_widths) if w == width]
            if width == 1:
                pool += ins
            if not pool:
                return f"{width}'d{rng.randrange(1 << width)}"
            return rng.choice(pool)
        if kind == "un":
            return f"(~{expr(width, depth - 1)})"
        if kind == "not":
            return f"(!{expr(1, depth - 1)})"
        if kind == "bin":
            op = rng.choice(["&", "|", "^", "+", "-"])
            return f"({expr(width, depth - 1)} {op} {expr(width, depth - 1)})"
        if kind == "cmp":
            w = rng.choice([1, 2])
            op = rng.choice(["==", "!=", "<", ">="])
            return f"({expr(w, depth - 1)} {op} {expr(w, depth - 1)})"
        if kind == "mux":
            return (f"({expr(1, depth - 1)} ? {expr(width, depth - 1)}"
                    f" : {expr(width, depth - 1)})")
        raise AssertionError

    lines = ["module duv ("]
    ports = ["  input clk"] + [f"  input {i}" for i in ins]
    lines.append(",\n".join(ports))
    lines.append(");")
    for r, w in zip(regs, reg_widths):
        rng_decl = f"  reg [{w - 1}:0] {r};" if w > 1 else f"  reg {r};"
        lines.append(rng_decl)
    n_wires = rng.randint(0, 2)
    wires = []
    for i in range(n_wires):
        wname = f"w{i}"
        wires.append(wname)
        lines.append(f"  wire {wname};")
    for wname in wires:
        lines.append(f"  assign {wname} = {expr(1, 2)};")
    lines.append("  always @(posedge clk) begin")
    for r, w in zip(regs, reg_widths):
        style = rng.choice(["plain", "if", "ifelse"])
        if style == "plain":
            lines.append(f"    {r} <= {expr(w, 2)};")
        elif style == "if":
            lines.append(f"    if ({expr(1, 1)})")
            lines.append(f"      {r} <= {expr(w, 2)};")
        else:
            lines.append(f"    if ({expr(1, 1)})")
            lines.append(f"      {r} <= {expr(w, 2)};")
            lines.append("    else")
            lines.append(f"      {r} <= {expr(w, 2)};")
    lines.append("  end")
    lines.append("endmodule")
    return "\n".join(lines) + "\n"


def gen_property_source(rng: random.Random, one_bit: list[str],
                        two_bit: list[str]) -> str:
    def bool_expr(depth: int) -> str:
        kind = rng.choice(["sig", "sig", "cmp", "not", "and", "or", "past", "rose"]
                          if depth > 0 else ["sig", "cmp"])
        if kind == "sig" and one_bit:
            return rng.choice(one_bit)
        if kind == "cmp" and two_bit:
            return f"({rng.choice(two_bit)} == 2'd{rng.randrange(4)})"
        if kind == "cmp" or kind == "sig":
            return "1'd1"
        if kind == "not":
            return f"(!{bool_expr(depth - 1)})"
        if kind == "and":
            return f"({bool_expr(depth - 1)} && {bool_expr(depth - 1)})"
        if kind == "or":
            return f"({bool_expr(depth - 1)} || {bool_expr(depth - 1)})"
        if kind == "past":
            return f"$past({bool_expr(depth - 1)}, {rng.randint(1, 2)})"
        if kind == "rose":
            return f"$rose({bool_expr(depth - 1)})"
        raise AssertionError

    def seq(max_steps: int) -> str:
        steps = [bool_expr(1)]
        for _ in range(rng.randint(0, max_steps - 1)):
            lo = rng.randint(0, 2)
            if rng.random() < 0.3:
                hi = lo + rng.randint(1, 2)
                steps.append(f"##[{lo}:{hi}] {bool_expr(1)}")
            else:
                steps.append(f"##{max(lo, 1)} {bool_expr(1)}")
        return " ".join(steps)

    style = rng.choice(["seq", "overlap", "nonoverlap"])
    if style == "seq":
        body = seq(2)
    elif style == "overlap":
        body = f"{seq(1)} |-> {seq(2)}"
    else:
        body = f"{seq(1)} |=> {seq(2)}"
    if one_bit and rng.random() < 0.25:
        body = f"disable iff ({rng.choice(one_bit)}) {body}"
    return f"assert property ({body});\n"
