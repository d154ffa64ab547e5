"""Operator surface: run, report, graph, diff."""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import fields
from pathlib import Path

from verikg.htmlview import render_html
from verikg.ir.diff import diff_runs
from verikg.ir.store import list_runs, load_run
from verikg.pipeline import (
    PipelineError,
    RunConfig,
    report_from_bundle,
    run_all,
)
from verikg.pipeline import rebuild_graph

_ENV_API_KEY = "VERIKG_API_KEY"


# RunConfig's retrieval bounds, budgets and iteration caps, one integer flag
# each (`--type-cap` for `type_cap`)
_BOUND_FIELDS = ("radius", "type_cap", "max_states", "cex_iters", "cov_iters")


def _add_run_parser(sub) -> None:
    defaults = {f.name: f.default for f in fields(RunConfig)}
    p = sub.add_parser("run", help="execute the full verification workflow")
    p.add_argument("--spec", required=True, help="specification document")
    p.add_argument("--rtl", action="append", required=True,
                   help="RTL source file (repeatable)")
    p.add_argument("--top", help="top module (default: the only module)")
    p.add_argument("--rulebook", help="rulebook text file")
    p.add_argument("--out", default="runs", help="output root directory")
    p.add_argument("--backend", choices=("live", "scripted", "replay"),
                   default=defaults["backend"])
    p.add_argument("--transcript", help="transcript file for the replay backend")
    p.add_argument("--live-url", default=defaults["live_url"],
                   help="chat-completion endpoint")
    p.add_argument("--live-model", default=defaults["live_model"],
                   help="model name for live backend")
    for name in _BOUND_FIELDS:
        p.add_argument("--" + name.replace("_", "-"), type=int, default=defaults[name])
    p.add_argument("--config", help="JSON config file; keys override flags")


def _config_from_args(args) -> RunConfig:
    values = {
        "spec_path": args.spec,
        "rtl_paths": list(args.rtl),
        "out_root": args.out,
        "top": args.top,
        "rulebook_path": args.rulebook,
        "backend": args.backend,
        "transcript_path": args.transcript,
        "live_url": args.live_url,
        "live_model": args.live_model,
        **{name: getattr(args, name) for name in _BOUND_FIELDS},
    }
    if args.config:
        overrides = json.loads(Path(args.config).read_text(encoding="utf-8"))
        unknown = set(overrides) - set(values)
        if unknown:
            raise PipelineError(f"unknown config keys: {sorted(unknown)}")
        values.update(overrides)
    # credentials come only from the environment, never flags or config
    values["api_key"] = os.environ.get(_ENV_API_KEY)
    return RunConfig(**values)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="verikg",
        description="verification knowledge-graph engine")
    sub = parser.add_subparsers(dest="command", required=True)

    _add_run_parser(sub)

    p_report = sub.add_parser("report", help="render a saved run's report")
    p_report.add_argument("--run", required=True)
    p_report.add_argument("--root", default="runs")

    p_graph = sub.add_parser("graph", help="export the HTML graph view")
    p_graph.add_argument("--run", required=True)
    p_graph.add_argument("--html", required=True)
    p_graph.add_argument("--root", default="runs")

    p_diff = sub.add_parser("diff", help="compare two saved runs")
    p_diff.add_argument("--a", required=True)
    p_diff.add_argument("--b", required=True)
    p_diff.add_argument("--root", default="runs")

    p_list = sub.add_parser("list", help="list saved runs")
    p_list.add_argument("--root", default="runs")

    args = parser.parse_args(argv)
    try:
        if args.command == "run":
            cfg = _config_from_args(args)
            report = run_all(cfg)
            print(report.render(), end="")
            return 0
        if args.command == "report":
            bundle = load_run(args.root, args.run)
            print(report_from_bundle(bundle).render(), end="")
            return 0
        if args.command == "graph":
            bundle = load_run(args.root, args.run)
            html = render_html(rebuild_graph(bundle),
                               title=f"run {args.run}")
            Path(args.html).write_text(html, encoding="utf-8")
            print(f"wrote {args.html}")
            return 0
        if args.command == "diff":
            a = load_run(args.root, args.a)
            b = load_run(args.root, args.b)
            print(diff_runs(a, b).render())
            return 0
        if args.command == "list":
            for run_id in list_runs(args.root):
                print(run_id)
            return 0
    except Exception as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
