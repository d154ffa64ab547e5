"""Run persistence: content-addressed run directories with atomic writes.

Layout: <root>/<run_id>/<artifact>.json using the canonical artifact file
names, plus nodes.csv / edges.csv and any binary attachments (VCD traces,
transcripts). Writes go to a staging directory first and are renamed into
place, so a crashed run never leaves a half-written bundle.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
from datetime import datetime, timezone
from pathlib import Path

from verikg.ir import types as T
from verikg.ir.export import export_graph, render_csv
from verikg.ir.validate import validate_bundle


class StoreError(Exception):
    pass


def canonical_json(doc) -> str:
    return json.dumps(doc, sort_keys=True, separators=(",", ":"), ensure_ascii=False)


def pretty_json(doc) -> str:
    return json.dumps(doc, sort_keys=True, indent=2, ensure_ascii=False) + "\n"


def collection_docs(bundle: T.RunBundle) -> dict:
    """Kind -> document of every present collection, in the hash's order."""
    return {kind: bundle.collection_doc(kind) for kind in bundle.present_kinds()}


def content_hash(bundle: T.RunBundle, docs: dict | None = None) -> str:
    """First 8 hex digits of a hash over the sorted serialized collections.

    The run context is excluded: it embeds the run_id itself and the
    creation timestamp, either of which would make the hash circular or
    time-dependent. `docs` is the bundle's `collection_docs` when the
    caller has already built them.
    """
    h = hashlib.sha256()
    for kind, doc in (collection_docs(bundle) if docs is None else docs).items():
        h.update(kind.encode("utf-8"))
        h.update(b"\x00")
        h.update(canonical_json(doc).encode("utf-8"))
        h.update(b"\x00")
    return h.hexdigest()[:8]


def make_run_id(bundle: T.RunBundle, created_at: str | None = None,
                docs: dict | None = None) -> str:
    """UTC timestamp + '-' + 8-hex content hash."""
    if created_at:
        stamp = created_at.replace("-", "").replace(":", "")
        if not stamp.endswith("Z"):
            stamp += "Z"
    else:
        stamp = datetime.now(timezone.utc).strftime("%Y%m%dT%H%M%SZ")
    return f"{stamp}-{content_hash(bundle, docs)}"


def timestamp_now() -> str:
    return datetime.now(timezone.utc).strftime("%Y-%m-%dT%H:%M:%SZ")


def save_run(bundle: T.RunBundle, root: str | Path,
             attachments: dict[str, bytes] | None = None,
             validate: bool = True, run_id: str | None = None,
             docs: dict | None = None) -> T.RunContext:
    """Persist a validated bundle under root/<run_id>/, with its graph
    exported to nodes.csv and edges.csv.

    Returns the updated context (run_id recomputed from content, artifact
    paths filled with run-directory-relative names). Attachments are extra
    files (relative path -> bytes) written alongside the documents.
    validate=False is for crash-path preservation of partial bundles.
    `run_id` is the bundle's `make_run_id`, and `docs` its
    `collection_docs`, when the caller has already computed them; they are
    then not computed a second time.
    """
    if validate:
        report = validate_bundle(bundle)
        if not report.ok:
            raise StoreError(f"bundle validation failed:\n{report}")

    root = Path(root)
    docs = collection_docs(bundle) if docs is None else docs
    run_id = run_id or make_run_id(bundle, bundle.context.created_at or None, docs)
    ctx = bundle.context
    ctx.run_id = run_id
    if not ctx.created_at:
        ctx.created_at = timestamp_now()

    ctx.artifact_paths = {}
    for kind in bundle.present_kinds():
        ctx.artifact_paths[kind] = T.ARTIFACT_FILE_NAMES[kind]
    ctx.artifact_paths["run_context"] = T.ARTIFACT_FILE_NAMES["run_context"]
    ctx.artifact_paths["nodes"] = T.ARTIFACT_FILE_NAMES["nodes"]
    ctx.artifact_paths["edges"] = T.ARTIFACT_FILE_NAMES["edges"]

    root.mkdir(parents=True, exist_ok=True)
    staging = root / f".staging-{run_id}"
    if staging.exists():
        shutil.rmtree(staging)
    staging.mkdir(parents=True)
    try:
        for kind, doc in docs.items():
            _write_text(staging / T.ARTIFACT_FILE_NAMES[kind], pretty_json(doc))
        _write_text(staging / T.ARTIFACT_FILE_NAMES["run_context"],
                    pretty_json(ctx.to_doc()))
        try:
            nodes, edges = export_graph(bundle)
        except Exception:
            if validate:
                raise
            # partial bundle from a crash path; keep the documents anyway
            from verikg.ir.export import EDGE_HEADER, NODE_HEADER
            nodes, edges = [NODE_HEADER], [EDGE_HEADER]
        _write_text(staging / T.ARTIFACT_FILE_NAMES["nodes"], render_csv(nodes))
        _write_text(staging / T.ARTIFACT_FILE_NAMES["edges"], render_csv(edges))
        targets = {staging / rel: data for rel, data in (attachments or {}).items()}
        for parent in dict.fromkeys(target.parent for target in targets):
            parent.mkdir(parents=True, exist_ok=True)
        for target, data in targets.items():
            target.write_bytes(data)
        final = root / run_id
        if final.exists():
            shutil.rmtree(final)
        os.replace(staging, final)
    except OSError as exc:
        shutil.rmtree(staging, ignore_errors=True)
        raise StoreError(f"cannot write run directory: {exc}") from exc
    return ctx


def _write_text(path: Path, text: str) -> None:
    path.write_bytes(text.encode("utf-8"))


def load_run(root: str | Path, run_id: str) -> T.RunBundle:
    """Load a saved run. Missing per-kind files leave that collection
    absent; corrupt files raise StoreError naming the file and byte offset."""
    run_dir = Path(root) / run_id
    if not run_dir.is_dir():
        raise StoreError(f"run directory not found: {run_dir}")

    ctx_path = run_dir / T.ARTIFACT_FILE_NAMES["run_context"]
    ctx_doc = _read_json(ctx_path)
    bundle = T.RunBundle(context=T.RunContext.from_doc(ctx_doc))
    for kind in T.RunBundle.COLLECTION_KINDS:
        path = run_dir / T.ARTIFACT_FILE_NAMES[kind]
        if not path.exists():
            continue
        doc = _read_json(path)
        setattr(bundle, kind, T.RunBundle.collection_from_doc(kind, doc))
    return bundle


def _read_json(path: Path):
    try:
        raw = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise StoreError(f"cannot read {path.name}: {exc}") from exc
    try:
        return json.loads(raw)
    except json.JSONDecodeError as exc:
        raise StoreError(
            f"corrupt document {path.name}: {exc.msg} at byte offset {exc.pos}"
        ) from exc


def list_runs(root: str | Path) -> list[str]:
    root = Path(root)
    if not root.is_dir():
        return []
    out = []
    for entry in sorted(root.iterdir()):
        if entry.is_dir() and not entry.name.startswith(".") \
                and (entry / T.ARTIFACT_FILE_NAMES["run_context"]).exists():
            out.append(entry.name)
    return out
