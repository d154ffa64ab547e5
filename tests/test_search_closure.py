"""A run's searches end at closure or at a real budget, not at a cycle count.

The design is a 7-bit counter with enable. Its 128 values take 127 cycles
to reach, and the statement under `q == 7'd100` is first executed at cycle
100, so a search that stopped at a fixed horizon of 64 cycles would leave
the assertion `bounded` and the statement uncovered. With the default
configuration the assertion is proven and coverage is complete. The run
configuration has no horizon: it is neither a field, a flag, a config key
nor a snapshot entry, and runs saved with one in their snapshot still load.
"""

import json

from verikg.cli import main as cli_main
from verikg.engine.check import check
from verikg.engine.coverage import coverage
from verikg.ir.store import load_run
from verikg.ir.types import ResultStatus
from verikg.kg import SignalIndex
from verikg.pipeline import RunConfig, report_from_bundle, run_all
from verikg.rtl.elaborate import NetModel, elaborate
from verikg.rtl.parser import parse_rtl
from verikg.sva import ast as S
from verikg.sva.bind import bind
from verikg.sva.parser import parse_properties

COUNTER = """
module counter (input clk, input en);
  reg [6:0] q;
  reg hit;
  always @(posedge clk) begin
    if (en) q <= q + 7'd1;
    if (q == 7'd100) hit <= 1'd1;
  end
endmodule
"""

ASSERTION = "q <= 7'd127"
SPEC = f"REQ[functional,medium]: q stays in range. ASSERT: {ASSERTION}\n"
CREATED_AT = "2026-01-01T00:00:00Z"


def _counter():
    dm = parse_rtl(COUNTER)
    net = elaborate(dm, "counter")
    assert isinstance(net, NetModel), net.render()
    return dm, net


def _assertion(net):
    idx = SignalIndex()
    for name, width in net.widths.items():
        idx.add(name, width)
    pf = parse_properties("default clocking @(posedge clk); endclocking\n"
                          f"assert property ({ASSERTION});\n")
    assert isinstance(pf, S.PropertyFile), pf.render()
    (bp,), errs = bind(pf, idx)
    assert not errs.items
    return bp


def _run(tmp_path, out="runs"):
    (tmp_path / "counter.v").write_text(COUNTER)
    (tmp_path / "counter_spec.md").write_text(SPEC)
    report = run_all(RunConfig(spec_path=str(tmp_path / "counter_spec.md"),
                               rtl_paths=[str(tmp_path / "counter.v")],
                               out_root=str(tmp_path / out), created_at=CREATED_AT))
    return tmp_path / out, report.run_id


def test_check_is_proven_past_cycle_64():
    _dm, net = _counter()
    result, trace = check(net, _assertion(net))
    assert (result.status, result.note, trace) == (ResultStatus.PROVEN, None, None)
    assert result.proof_depth > 100


def test_coverage_reaches_the_cycle_100_statement():
    dm, net = _counter()
    line = next(i for i, text in enumerate(COUNTER.splitlines(), 1) if "7'd100" in text)
    late = [s.id for s in dm.statements if s.line == line]
    assert len(late) == 2  # the `if` arm and the assignment under it
    cm = coverage(net, [])
    assert set(late) <= set(cm.covered_statements)
    assert not cm.partial and not cm.unreachable_statements
    assert cm.reachable_pct == 100.0


def test_run_records_no_horizon(tmp_path):
    root, run_id = _run(tmp_path)
    run_dir = root / run_id
    files = [p for p in sorted(run_dir.rglob("*")) if p.is_file()]
    assert files
    for path in files:
        assert b"max_depth" not in path.read_bytes(), path.name
    results = json.loads((run_dir / "formal_results.json").read_text())
    assert [(r["status"], r["note"]) for r in results] == [("proven", None)]
    assert "max_depth" not in RunConfig.__dataclass_fields__


def test_config_file_with_a_horizon_is_rejected(tmp_path, capsys):
    (tmp_path / "counter.v").write_text(COUNTER)
    (tmp_path / "counter_spec.md").write_text(SPEC)
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({"max_depth": 32}))
    rc = cli_main(["run", "--spec", str(tmp_path / "counter_spec.md"),
                   "--rtl", str(tmp_path / "counter.v"),
                   "--out", str(tmp_path / "runs"), "--config", str(config)])
    assert rc == 1
    assert "max_depth" in capsys.readouterr().err
    assert not (tmp_path / "runs").exists()


def test_a_run_saved_with_a_horizon_still_loads_and_reports(tmp_path, capsys):
    """Runs saved before the horizon left the configuration name it in
    their snapshot."""
    root, run_id = _run(tmp_path)
    ctx_path = root / run_id / "run_context.json"
    ctx = json.loads(ctx_path.read_text())
    ctx["config_snapshot"]["max_depth"] = 64
    ctx_path.write_text(json.dumps(ctx, indent=2))
    bundle = load_run(root, run_id)
    assert bundle.context.config_snapshot["max_depth"] == 64
    saved = (root / run_id / "report.txt").read_text()
    assert report_from_bundle(bundle).render() == saved
    assert cli_main(["report", "--root", str(root), "--run", run_id]) == 0
    assert capsys.readouterr().out == saved
    assert cli_main(["diff", "--root", str(root), "--a", run_id, "--b", run_id]) == 0
    assert "(no differences)" in capsys.readouterr().out
