"""The verification harness and the command-line surface."""

import hashlib
import json
import os
import subprocess
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

import expk
from expk import complexes, verify
from expk.cli import main
from expk.gf2 import Gf2Matrix
from expk.simplicial import SimplicialSetModel, canonical_json
from expk.verify import CHECKS, ModelCache, run_verify
from expk.spaces import SpaceSpec


def entries_without_time(report):
    out = []
    for r in report.results:
        d = r.to_json_dict()
        d.pop("wall_time_s")
        out.append(d)
    return out


def test_single_check_scope():
    report = run_verify(scope=["betti-exp3-circle"])
    assert report.passed
    (res,) = report.results
    assert res.status == "pass"
    assert res.computed == [1, 0, 0, 1]
    assert res.source == "catalog:exp3-table"


def test_a_repeated_check_id_runs_once():
    report = run_verify(scope=["props-gf2", "props-gf2"])
    assert [r.check_id for r in report.results] == ["props-gf2"]


def test_props_simplicial_builds_no_boundary_matrix(monkeypatch):
    built = []
    init, triplets = Gf2Matrix.__init__, Gf2Matrix.from_triplets.__func__
    monkeypatch.setattr(
        Gf2Matrix, "__init__", lambda m, *a: built.append("init") or init(m, *a)
    )
    monkeypatch.setattr(
        Gf2Matrix,
        "from_triplets",
        classmethod(lambda cls, *a: built.append("triplets") or triplets(cls, *a)),
    )
    assert run_verify(scope=["props-simplicial"]).passed
    assert built == []


def test_empty_scope_is_success():
    report = run_verify(scope=[])
    assert report.passed and report.results == []


def test_unknown_check_rejected():
    with pytest.raises(KeyError):
        run_verify(scope=["no-such-check"])


def test_over_budget_reports_skipped_not_crash():
    report = run_verify(scope=["betti-exp3-sphere2"], max_level_size=1000)
    (res,) = report.results
    assert res.status == "skipped"
    assert "over budget" in res.detail
    assert report.passed  # skips do not fail a run


def test_one_vertex_row_over_budget_reports_skipped():
    # exp_3 of the one-vertex 3-sphere has 295,361 subsets at level 10
    report = run_verify(scope=["betti-exp3-sphere3"], max_level_size=10_000)
    (res,) = report.results
    assert res.status == "skipped"
    assert "over budget" in res.detail
    assert report.passed


def test_a_row_reports_the_spec_its_model_was_built_from():
    report = run_verify(scope=["betti-exp2-circle"], max_level_size=100)
    (res,) = report.results
    assert res.status == "pass" and res.spec["max_level_size"] == 100
    assert list(report.model_hashes) == [canonical_json(res.spec)]


def test_models_built_outside_the_cache_obey_the_budget():
    # the product of two circles at cap 3 has 144 simplices at level 3
    report = run_verify(scope=["props-kunneth"], max_level_size=100)
    (res,) = report.results
    assert res.status == "skipped"
    assert "over budget" in res.detail


def test_report_is_self_contained_and_ordered():
    report = run_verify(scope=["betti-exp2-circle", "betti-exp2-sphere2"])
    ids = [r.check_id for r in report.results]
    assert ids == sorted(ids)
    doc = report.to_json_dict()
    assert doc["format"] == "verification-report/1"
    assert doc["toolchain"]["numpy"]
    for check in doc["checks"]:
        if check["status"] == "pass" and check["expected"] is not None:
            assert check["source"].startswith("catalog:")


def test_cache_round_trip_bit_identical(tmp_path):
    cache_dir = str(tmp_path / "cache")
    scope = ["betti-exp2-circle", "betti-exp3-circle"]
    first = run_verify(scope=scope, cache_dir=cache_dir)
    second = run_verify(scope=scope, cache_dir=cache_dir)
    assert entries_without_time(first) == entries_without_time(second)
    assert first.model_hashes == second.model_hashes
    assert not second.warnings


def _cache_entry(cache_dir):
    """Path, header and word-stream body of the one entry in ``cache_dir``."""
    (name,) = [f for f in os.listdir(cache_dir) if f.endswith(".bin")]
    path = os.path.join(cache_dir, name)
    with open(path, "rb") as fh:
        header = json.loads(fh.readline())
        body = fh.read()
    return path, header, body


def _header_line(header):
    return canonical_json(header).encode() + b"\n"


def test_corrupt_cache_rebuilds_with_warning(tmp_path):
    cache_dir = str(tmp_path / "cache")
    run_verify(scope=["betti-exp2-circle"], cache_dir=cache_dir)
    victim, header, body = _cache_entry(cache_dir)
    header["hash"] = "0" * 64
    with open(victim, "wb") as fh:
        fh.write(_header_line(header) + body)
    report = run_verify(scope=["betti-exp2-circle"], cache_dir=cache_dir)
    assert report.passed
    assert any("rebuilt" in w for w in report.warnings)


def _flip_first_word(header, body):
    words = np.frombuffer(body, dtype="<i4").copy()
    flipped = (words[0] + 1) % header["level_sizes"][0]  # still a valid face id
    assert flipped != words[0]
    words[0] = flipped
    return _header_line(header) + words.tobytes()


def _other_spec(header, body):
    header["spec"]["k"] = 3
    return _header_line(header) + body


DAMAGE = {
    "cut-mid-body": (lambda h, b: _header_line(h) + b[: len(b) // 2 + 2], "multiple"),
    "header-only": (lambda h, b: _header_line(h), "length"),
    "empty-file": (lambda h, b: b"", "Expecting value"),
    "flipped-word": (_flip_first_word, "hash mismatch"),
    "other-spec": (_other_spec, "another spec"),
}


@pytest.mark.parametrize("damage", sorted(DAMAGE))
def test_damaged_cache_entry_is_rebuilt(tmp_path, damage):
    damaged, reason = DAMAGE[damage]
    cache_dir = str(tmp_path / "cache")
    first = run_verify(scope=["betti-exp2-circle"], cache_dir=cache_dir)
    victim, header, body = _cache_entry(cache_dir)
    with open(victim, "wb") as fh:
        fh.write(damaged(header, body))
    report = run_verify(scope=["betti-exp2-circle"], cache_dir=cache_dir)
    assert report.passed
    (warning,) = report.warnings
    assert "rebuilt" in warning and reason in warning
    assert report.model_hashes == first.model_hashes
    again = run_verify(scope=["betti-exp2-circle"], cache_dir=cache_dir)
    assert not again.warnings  # the rebuild rewrote the entry


def test_failed_cache_write_leaves_no_entry(tmp_path, monkeypatch):
    fdopen = os.fdopen

    class TornFile:
        """Writes the header line and half of the next chunk, then fails like a full disk."""

        def __init__(self, fh):
            self.fh = fh
            self.writes = 0

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            self.fh.close()

        def write(self, data):
            self.writes += 1
            if self.writes == 1:
                return self.fh.write(data)
            data = memoryview(data).cast("B")
            self.fh.write(data[: len(data) // 2])
            self.fh.flush()
            raise OSError("no space left on device")

    cache_dir = str(tmp_path / "cache")
    monkeypatch.setattr(verify.os, "fdopen", lambda fd, mode: TornFile(fdopen(fd, mode)))
    with pytest.raises(OSError):
        ModelCache(cache_dir=cache_dir).model_for(SpaceSpec("exp", n=1, k=2))
    assert os.listdir(cache_dir) == []
    monkeypatch.undo()
    report = run_verify(scope=["betti-exp2-circle"], cache_dir=cache_dir)
    assert report.passed
    assert not report.warnings
    assert [f for f in os.listdir(cache_dir) if f.endswith(".bin")]


def test_cache_entries_get_the_mode_of_a_plain_open(tmp_path):
    cache_dir = tmp_path / "cache"
    ModelCache(cache_dir=str(cache_dir)).model_for(SpaceSpec("exp", n=1, k=2))
    (entry,) = [p for p in cache_dir.iterdir() if p.suffix == ".bin"]
    plain = tmp_path / "plain.json"
    with open(plain, "w") as fh:
        fh.write("{}")
    assert entry.stat().st_mode == plain.stat().st_mode


def test_model_cache_memoizes():
    cache = ModelCache()
    spec = SpaceSpec("sphere", n=1, cap=3)
    assert cache.model_for(spec) is cache.model_for(spec)


def test_model_cache_hashes_each_model_once(tmp_path, monkeypatch):
    calls = []
    content_hash = SimplicialSetModel.content_hash

    def counting_hash(model):
        calls.append(model.description)
        return content_hash(model)

    monkeypatch.setattr(SimplicialSetModel, "content_hash", counting_hash)
    spec = SpaceSpec("sphere", n=1, cap=3)
    cache_dir = str(tmp_path / "cache")
    built = ModelCache(cache_dir=cache_dir)
    built.model_for(spec)
    assert len(calls) == 1
    loaded = ModelCache(cache_dir=cache_dir)
    loaded.model_for(spec)
    assert len(calls) == 2
    assert not loaded.warnings
    assert loaded.hashes == built.hashes


@pytest.mark.parametrize("populated", [False, True], ids=["build", "load"])
def test_concurrent_requests_build_or_load_once(tmp_path, monkeypatch, populated):
    spec = SpaceSpec("exp", n=1, k=2)
    cache_dir = str(tmp_path / "cache")
    if populated:
        ModelCache(cache_dir=cache_dir).model_for(spec)
    calls = []
    build_space, load = verify.build_space, ModelCache._load

    def slow_build(spec):
        calls.append("build")
        time.sleep(0.05)  # keep the other threads waiting at the lock
        return build_space(spec)

    def slow_load(cache, path, key):
        calls.append("load")
        time.sleep(0.05)
        return load(cache, path, key)

    monkeypatch.setattr(verify, "build_space", slow_build)
    monkeypatch.setattr(ModelCache, "_load", slow_load)
    cache = ModelCache(cache_dir=cache_dir)
    start = threading.Barrier(4)

    def request(_):
        start.wait(timeout=30)
        return cache.model_for(spec)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=4) as pool:
            models = list(pool.map(request, range(4), timeout=120))
    finally:
        sys.setswitchinterval(interval)
    assert calls == ["load" if populated else "build"]
    assert all(m is models[0] for m in models)
    assert not cache.warnings


def test_jobs_parallel_matches_serial():
    scope = ["betti-exp2-circle", "betti-exp3-circle", "props-kunneth"]
    serial = run_verify(scope=scope, jobs=1)
    parallel = run_verify(scope=scope, jobs=2)
    assert entries_without_time(serial) == entries_without_time(parallel)


def _hashes_of(report, kind, n, k):
    """The model hashes of every spec of ``kind`` with these n and k."""
    out = set()
    for key, value in report.model_hashes.items():
        spec = json.loads(key)
        if (spec["kind"], spec.get("n"), spec.get("k")) == (kind, n, k):
            out.add(value)
    return out


def test_model_hashes_keep_every_model():
    # props-simplicial asks for two-point subsets of the circle at caps 3 and 4
    serial = run_verify(scope=["props-simplicial"])
    assert len(_hashes_of(serial, "exp", 1, 2)) == 2
    assert all(json.loads(key)["format"] == "space-spec/1" for key in serial.model_hashes)
    scope = ["betti-exp2-circle", "props-simplicial", "sq0-identity"]
    serial = run_verify(scope=scope)
    assert run_verify(scope=scope, jobs=2).model_hashes == serial.model_hashes


# one row of each kind: _betti, _comparison, _sequence, _squares, plus cup-torus
ROW_KINDS_SCOPE = [
    "betti-exp2-circle",
    "cup-torus",
    "lesolve-gysin-e0",
    "pushout-circle",
    "sq1-projective-plane",
]
ROW_KINDS_DIGEST = "896f77df87f0b32e83083dfb125bc0ff35a4524d6ddb47b423426ddac644d9e2"


def test_one_row_of_each_kind_is_pinned():
    report = run_verify(scope=ROW_KINDS_SCOPE)
    assert report.passed
    by_id = {r.check_id: r for r in report.results}
    assert by_id["sq1-projective-plane"].computed == {"Sq1 H1->H2": [[1]]}
    entries = canonical_json(entries_without_time(report))
    assert hashlib.sha256(entries.encode()).hexdigest() == ROW_KINDS_DIGEST


def test_a_squares_row_that_misses_the_generator_fails(monkeypatch):
    # on the torus Sq1 = 0 from H1 (two generators) to H2: coordinates [[0], [0]]
    row = verify._squares(lambda ctx: complexes.torus(), (1, 1))
    monkeypatch.setitem(CHECKS, "sq1-torus", ("degree-1 square on the torus", row))
    report = run_verify(scope=["sq1-torus"])
    (res,) = report.results
    assert res.status == "fail" and not report.passed
    assert res.computed == {"Sq1 H1->H2": [[0], [0]]}
    assert res.expected == {"Sq1 H1->H2": [[1]]}
    (line,) = [ln for ln in report.human_table().splitlines() if ln.startswith("sq1-torus")]
    assert "computed={'Sq1 H1->H2': [[0], [0]]}" in line
    assert "expected={'Sq1 H1->H2': [[1]]}" in line


def test_all_registered_checks_have_descriptions():
    for check_id, (description, fn) in CHECKS.items():
        assert description and callable(fn)


# ---------------------------------------------------------------------------
# command-line surface


def test_cli_build_betti_sq_round_trip(tmp_path, capsys):
    model_path = str(tmp_path / "exp2s2.json")
    rc = main(
        [
            "build",
            "--kind",
            "exp",
            "--n",
            "2",
            "--k",
            "2",
            "--out",
            model_path,
        ]
    )
    assert rc == 0
    with open(model_path) as fh:
        doc = json.load(fh)
    model = SimplicialSetModel.from_json_dict(doc["model"])
    assert model.content_hash() == doc["hash"]

    rc = main(["betti", model_path, "--format", "json"])
    assert rc == 0
    out = json.loads(capsys.readouterr().out)
    assert out["dims"] == [1, 0, 1, 0, 1]

    rc = main(["sq", model_path, "--degree", "2", "--index", "2", "--format", "json"])
    assert rc == 0
    out = json.loads(capsys.readouterr().out)
    assert out["squares"] == [{"generator": 0, "coordinates": [1]}]


def test_cli_build_on_the_one_vertex_base(tmp_path, capsys):
    model_path = str(tmp_path / "exp3s3.json")
    build = ["build", "--kind", "exp", "--n", "3", "--k", "3", "--out", model_path]
    assert main(build + ["--base", "one-vertex"]) == 0
    with open(model_path) as fh:
        assert json.load(fh)["spec"]["base"] == "one-vertex"
    assert main(["betti", model_path, "--format", "json"]) == 0
    assert json.loads(capsys.readouterr().out)["dims"] == [1, 0, 0, 0, 0, 2, 2, 1, 1, 1]
    complex_build = ["build", "--kind", "complex", "--facets", "[[0,1]]"]
    assert main(complex_build + ["--base", "one-vertex"]) == 2
    assert "no sphere base" in capsys.readouterr().err


def test_package_runs_as_a_module():
    src = os.path.dirname(os.path.dirname(expk.__file__))
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    done = subprocess.run(
        [sys.executable, "-m", "expk", "catalog", "exp3", "2"],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
        timeout=60,
    )
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout)["dims"] == [1, 0, 0, 0, 2, 1, 1]


def test_cli_rejects_a_model_file_that_does_not_match_its_hash(tmp_path, capsys):
    model_path = tmp_path / "circle.json"
    assert main(["build", "--kind", "sphere", "--n", "1", "--out", str(model_path)]) == 0
    doc = json.loads(model_path.read_text())
    model = SimplicialSetModel.from_json_dict(doc["model"])
    # hash scheme 1, the SHA-256 of the model's text, is no longer accepted
    doc["hash"] = hashlib.sha256(model.to_json_text().encode()).hexdigest()
    model_path.write_text(canonical_json(doc))
    assert main(["betti", str(model_path)]) == 2

    doc["hash"] = model.content_hash()
    face = doc["model"]["faces"][1][0]
    face[0] = (face[0] + 1) % doc["model"]["level_sizes"][0]  # tampered, still valid
    model_path.write_text(canonical_json(doc))
    assert main(["betti", str(model_path)]) == 2
    assert main(["sq", str(model_path), "--degree", "1", "--index", "0"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("does not match its hash") == 3


def test_cli_input_errors_exit_2_with_one_line(tmp_path, capsys):
    model_path = str(tmp_path / "exp2s2.json")
    build = ["build", "--kind", "exp", "--n", "2", "--k", "2", "--out", model_path]
    assert main(build) == 0
    capsys.readouterr()
    broken_path = tmp_path / "broken.json"
    broken_path.write_text("{")
    # documents with every required field, one of them malformed
    nameless_path = tmp_path / "nameless.json"
    nameless_path.write_text(
        '{"format": "exact-template/1", "terms": [{"name": "0", "dim": 0}, {"dim": 0}],'
        ' "arrows": [{"kind": "zero"}]}'
    )
    misshapen = {}
    for field, value in (("level_cap", "x"), ("faces", 5)):
        doc = json.loads((tmp_path / "exp2s2.json").read_text())
        doc["model"][field] = value
        misshapen[field] = tmp_path / f"bad-{field}.json"
        misshapen[field].write_text(json.dumps(doc))
    for argv in (
        ["sq", model_path, "--degree", "3", "--index", "3"],  # H^6 is above the cap
        ["sq", model_path, "--degree", "2", "--index", "-1"],
        ["sq", model_path, "--degree", "1", "--index", "-2"],  # H^1 = 0, no square to run
        ["build", "--kind", "exp", "--n", "2"],  # no --k
        ["catalog", "exp2", "0"],
        ["betti", str(tmp_path / "nope.json")],  # no such file
        ["betti", str(broken_path)],  # not JSON
        ["build", "--kind", "complex", "--facets", "[[0,1]"],  # not JSON
        ["build", "--kind", "complex", "--facets", "5"],  # not a list
        ["build", "--kind", "complex", "--facets", '[[0,1],["a"]]'],  # not a vertex
        ["build", "--kind", "exp", "--n", "2", "--k", "2", "--max-level-size", "9"],
        # a complex and a sphere spec over the level budget
        ["build", "--kind", "complex", "--facets", "[[0,1,2,3,4,5]]", "--cap", "6",
         "--max-level-size", "10"],
        ["build", "--kind", "sphere", "--n", "2", "--cap", "9", "--max-level-size", "10"],
        ["solve", str(nameless_path)],  # a term without a name
        ["betti", str(misshapen["level_cap"])],  # "level_cap": "x"
        ["betti", str(misshapen["faces"])],  # "faces": 5
        # facets an exp spec does not read
        ["build", "--kind", "exp", "--n", "1", "--k", "2", "--facets", "[[0,1,2]]"],
    ):
        assert main(argv) == 2, argv
        captured = capsys.readouterr()
        assert captured.out == "", argv
        assert captured.err.startswith("expk: "), argv
        assert captured.err.count("\n") == 1, argv
        assert "Traceback" not in captured.err
        if "--index" in argv and int(argv[-1]) < 0:
            assert "square index must be nonnegative" in captured.err, argv
        if argv[:3] == ["build", "--kind", "exp"] and "--facets" in argv:
            assert "facets" in captured.err, argv


# the template 0 -> A -> 0, given the term A and the arrow A -> 0
TEMPLATE_WITH = (
    '{"format": "exact-template/1", "terms": [{"name": "0", "dim": 0}, %s,'
    ' {"name": "0", "dim": 0}], "arrows": [{}, %s]}'
)


@pytest.mark.parametrize(
    "command, text, named",
    [
        ("betti", "[]", "JSON object"),
        ("betti", '{"format": "simplicial-set-model/1"}', "'level_cap'"),
        ("solve", '{"format": "exact-template/1", "terms": []}', "'arrows'"),
        ("solve", TEMPLATE_WITH % ('{"name": "A", "dim": 1.5}', "{}"), "not 1.5"),
        ("solve", TEMPLATE_WITH % ('{"name": "A", "dim": true}', "{}"), "not True"),
        ("solve", TEMPLATE_WITH % ('{"name": "A"}', '{"kind": "rank", "rank": true}'),
         "not True"),
    ],
    ids=[
        "not-an-object",
        "model-without-fields",
        "template-without-arrows",
        "fractional-dim",
        "boolean-dim",
        "boolean-rank",
    ],
)
def test_cli_malformed_documents_exit_2_with_one_line(tmp_path, capsys, command, text, named):
    path = tmp_path / "doc.json"
    path.write_text(text)
    assert main([command, str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("expk: ") and captured.err.count("\n") == 1
    assert named in captured.err


def test_cli_build_complex_from_facets(tmp_path, capsys):
    rc = main(
        [
            "build",
            "--kind",
            "complex",
            "--facets",
            "[[0,1],[1,2],[0,2]]",
            "--out",
            str(tmp_path / "circle.json"),
        ]
    )
    assert rc == 0
    rc = main(["betti", str(tmp_path / "circle.json")])
    assert rc == 0
    assert "H^1: 1" in capsys.readouterr().out


def test_cli_solve_template(tmp_path, capsys):
    template = {
        "format": "exact-template/1",
        "terms": [
            {"name": "0", "dim": 0},
            {"name": "A", "dim": None},
            {"name": "B", "dim": 1},
            {"name": "0", "dim": 0},
        ],
        "arrows": [{"kind": "unconstrained"}, {"kind": "unconstrained"}, {"kind": "unconstrained"}],
    }
    path = str(tmp_path / "template.json")
    with open(path, "w") as fh:
        json.dump(template, fh)
    rc = main(["solve", path, "--format", "json"])
    assert rc == 0
    out = json.loads(capsys.readouterr().out)
    assert out["consistent"] is True
    assert {"name": "A", "lo": 1, "hi": 1} in out["dims"]


def test_cli_solve_inconsistent_template_exit_code(tmp_path, capsys):
    def template(dims, kinds):
        terms = [{"name": "0", "dim": 0}] + [{"name": n, "dim": d} for n, d in dims]
        return {
            "format": "exact-template/1",
            "terms": terms + [{"name": "0", "dim": 0}],
            "arrows": [{"kind": k} for k in kinds],
        }

    for doc in (
        template([("A", 2)], ["unconstrained", "zero"]),
        # B = 1 yet injectivity out of B and out of C pins both its ranks to 0
        template(
            [("A", None), ("B", 1), ("C", None), ("D", None)],
            ["injective", "injective", "injective", "isomorphism", "zero"],
        ),
    ):
        path = str(tmp_path / "bad.json")
        with open(path, "w") as fh:
            json.dump(doc, fh)
        rc = main(["solve", path])
        assert rc == 1
        out = capsys.readouterr().out
        assert out.startswith("inconsistent: ") and out.count("\n") == 1


def test_cli_verify_json_and_exit_codes(tmp_path, capsys):
    rc = main(
        [
            "verify",
            "betti-exp2-circle",
            "--format",
            "json",
            "--out",
            str(tmp_path / "report.json"),
        ]
    )
    assert rc == 0
    with open(tmp_path / "report.json") as fh:
        doc = json.load(fh)
    assert doc["passed"] is True
    rc = main(["verify", "definitely-not-a-check"])
    assert rc == 2


def test_cli_rejects_unknown_ids_before_any_check_runs(capsys, monkeypatch):
    ran = []
    monkeypatch.setitem(CHECKS, "records", ("records its run", ran.append))
    assert main(["verify", "records", "definitely-not-a-check"]) == 2
    assert ran == []
    err = capsys.readouterr().err
    assert err.startswith("expk: unknown checks: ['definitely-not-a-check']")
    assert "available checks:" in err


def test_cli_an_error_inside_a_check_surfaces_as_itself(monkeypatch):
    def broken(ctx):
        raise KeyError("missing")

    monkeypatch.setitem(CHECKS, "broken", ("raises inside its own code", broken))
    with pytest.raises(KeyError, match="missing"):
        main(["verify", "broken"])


def test_cli_verify_env_cache_dir(tmp_path, capsys, monkeypatch):
    cache_dir = str(tmp_path / "envcache")
    monkeypatch.setenv("EXPK_CACHE_DIR", cache_dir)
    rc = main(["verify", "betti-exp2-circle"])
    assert rc == 0
    assert os.path.isdir(cache_dir)
    capsys.readouterr()


def test_cli_catalog(capsys):
    rc = main(["catalog", "exp3", "2"])
    assert rc == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["dims"] == [1, 0, 0, 0, 2, 1, 1]
