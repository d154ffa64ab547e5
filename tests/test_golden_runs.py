"""Golden run directories: every file of three fixture runs, pinned by
sha256.

Criterion 09 compares a replayed run with its recording under the same
code; this test compares the bytes with the ones an earlier version wrote,
so a change to any output (the graph files, graph.html and report.txt
included) shows up as a failure. The runs use paths relative to the
fixtures directory and a fixed `created_at`, so the bytes do not depend on
where the checkout is. When a change to the output is intended, regenerate
the digests and say why in the change log.
"""

import hashlib

import pytest

from verikg.pipeline import RunConfig, run_all

CREATED_AT = "2026-01-01T00:00:00Z"

# name -> (spec, rtl, rulebook, run id, {relative path: sha256})
GOLDEN = {
    "fifo": ("fifo_spec.md", "fifo.v", "rulebook.txt", "20260101T000000Z-7ddbcea9", {
        "cex_cases.json":
            "37517e5f3dc66819f61f5a7bb8ace1921282415f10551d2defa5c3eb0985b570",
        "coverage_metrics.json":
            "da41730c280ec0f055dc75202b47cf68981a10cd640230020ca09045d58eb08c",
        "design_model.json":
            "310ed67bbf5face9693f96100c7c1607f1b1708fcb3eab5630057168e2db01dd",
        "edges.csv":
            "955c60983bac9caf6fd2f4a0c14b5a583aae00d5b23006d3d9fcded24268656f",
        "formal_results.json":
            "0f2769ad9d654825d446b205ca69b0585992701a081eaf412d879ca06f7db560",
        "graph.html":
            "0f9f1eb01397b04e424a5606fac2a3ef65983918dc64b8630cad2b084caeab0f",
        "nodes.csv":
            "fb4663fcf7971acba68dc1263028b9e20f9e7b9948dca46f465e489139aa6560",
        "properties.json":
            "497a539b54113e86937644ee79462ea7e131cc7277e40053efbf241f3e4b6b6e",
        "report.txt":
            "b1d2c1249870611172d3a465e2c10cdd8a7ce1018656dc5a10769a07ee5cd988",
        "requirements.json":
            "0ef9d8d37faaf9a0cd462b4a15290fabfbf45a707dbc9f98a216f983410ecb7e",
        "run_context.json":
            "f696f2495085a086cf10a0448e2cde19c1c9a1d6431b410dc4d02fb26033b459",
        "spec_chunks.json":
            "0fc2e2c67c5862f58161da8b223cff7b5de9f491c742c1df01fec76b001a8398",
        "testplan.json":
            "e4e747b65544b4382c0f46df24c7bf9287b5213f24c815e51de8432bfe994a82",
        "tracelinks.json":
            "13c693d73e4c651eaa08a197b197e8f20196094a84a04f184045215167225656",
        "transcript.json":
            "18ecd4aebfefc8d7c9135b4cfff1bd536848754327e8b8776d2da4c70062eb9e",
    }),
    "fifo_overconstrained": ("fifo_overconstrained_spec.md", "fifo.v", "rulebook.txt", "20260101T000000Z-91778cd3", {
        "artifacts/PROP-003.vcd":
            "5f24ae8e316abb96ceb2ae76d99f749421a51ef777efe81fb865315bb63c2e1b",
        "cex_cases.json":
            "37517e5f3dc66819f61f5a7bb8ace1921282415f10551d2defa5c3eb0985b570",
        "coverage_metrics.json":
            "da41730c280ec0f055dc75202b47cf68981a10cd640230020ca09045d58eb08c",
        "design_model.json":
            "310ed67bbf5face9693f96100c7c1607f1b1708fcb3eab5630057168e2db01dd",
        "edges.csv":
            "81eef24e0999fe62ca6d6dde67b61b8a1f44acff0fd77cf7da56d49286da4742",
        "formal_results.json":
            "10d04f017fed3f8641a89fd598efa1d5a606756b0095d51438007f0add198c93",
        "graph.html":
            "2cb28e344845e1d243e850358e1e39efd5cf9f1488a1472541f539d1a98374be",
        "nodes.csv":
            "441732278a8cac286fb2881805775bc6c1e98e79f1a61c9f7d8f04b972a72c38",
        "properties.json":
            "0738ca75da5d58b8620ef9adfe0356ea4a8429285f150633566a70f5ee097835",
        "report.txt":
            "fa0804dffdb114efd0c56c7d89e45ae8fa239e79f9d8871d841c47553c7b0715",
        "requirements.json":
            "d6f14e2bf01dbb7cc2e6e88e7838e23efd1bea3ca9b08e9336097226d12a0e67",
        "run_context.json":
            "3f00987a220c33b7fc25b37dc07f798ee3b67d54f55eee46f5d728a2ef38f451",
        "spec_chunks.json":
            "463ec46b04cf99928f6362c9a5c3114546f62e616f01cde70aefdbdad3b9fd71",
        "testplan.json":
            "b48c27180601f58e50c5ca8aa95dcaeb8b774939bbf6bb4fc8ddb36b4204aa04",
        "tracelinks.json":
            "395e3844e6222872c172b17e83765275bebc1f6403d7b87c9f01d6a037990c22",
        "transcript.json":
            "b89402a692ca9a9608018d08719b2e9c9a8e499b79772a5aa292a3c2b4e72c58",
    }),
    "gappy": ("gappy_spec.md", "gappy.v", None, "20260101T000000Z-f799ad04", {
        "cex_cases.json":
            "37517e5f3dc66819f61f5a7bb8ace1921282415f10551d2defa5c3eb0985b570",
        "coverage_metrics.json":
            "740e9985514df6bd20dbb9c28cf2fb66641e3190058b52490a3e145d441ebaf8",
        "design_model.json":
            "04242aced1de036036f2ec8b208d62b54665954ab689ccb39248d24b8a2988a5",
        "edges.csv":
            "f3acf31d91909513c89541948966c1ff5691d9442f114fbded65f32847dcd7cf",
        "formal_results.json":
            "9a0a0e77cfbe9b8047e12d6f9fee2edcea213dca02a3effa65052d783b448766",
        "graph.html":
            "88097434785296c7b98d9329be6eed8dab22796b67e74e088311bb03b3df6cf6",
        "nodes.csv":
            "753b54855f2ce9cdabbc41f2cee9bf8aa7a79e851e6299f08b45dd9ace039127",
        "properties.json":
            "25dc3fab6042e696ede82856bb0d516e1ef82cbc88d222637382cbe7f56f9982",
        "report.txt":
            "7a395473fff0653eb6c26af98dbdcef483ae0441813b5cdfbf52cd755bde261a",
        "requirements.json":
            "d584698f669743a3beaf2fa67c66f87cf87787f8a824b3a3124d316b71a37b39",
        "run_context.json":
            "9aaadd34b41313813cc3bd5999f97e18dd8f5a7d2d495aae1ed557aff9a2d134",
        "spec_chunks.json":
            "0485405533211ed2b9835d9dee5fcf00f735e73bd5100a6bc006b8f077ad1dad",
        "testplan.json":
            "4f68a740f5d8d1aa6fd6391c7c5a6c6f4b43b0a6f6eb17c17e216fe790c4d5e1",
        "tracelinks.json":
            "8b8021145497f3ff9d7563e2fbea5e6c5ff43f2b1374e7798fc4f10c36f8d355",
        "transcript.json":
            "47c997fa0cf9f46b2e97ea0c2b760907e50b1dbed84c271a1566d27df9022b28",
    }),
}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_run_directory_matches_golden(name, fixtures_dir, tmp_path, monkeypatch):
    spec, rtl, rulebook, run_id, files = GOLDEN[name]
    monkeypatch.chdir(fixtures_dir)
    report = run_all(RunConfig(spec_path=spec, rtl_paths=[rtl],
                               rulebook_path=rulebook, out_root=str(tmp_path),
                               backend="scripted", created_at=CREATED_AT))
    assert report.run_id == run_id
    run_dir = tmp_path / run_id
    got = {p.relative_to(run_dir).as_posix(): hashlib.sha256(p.read_bytes()).hexdigest()
           for p in sorted(run_dir.rglob("*")) if p.is_file()}
    assert got == files
