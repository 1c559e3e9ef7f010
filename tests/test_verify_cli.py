"""The verification harness and the command-line surface."""

import json
import os

import pytest

from expk import verify
from expk.cli import main
from expk.simplicial import SimplicialSetModel
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


def test_corrupt_cache_rebuilds_with_warning(tmp_path):
    cache_dir = str(tmp_path / "cache")
    run_verify(scope=["betti-exp2-circle"], cache_dir=cache_dir)
    files = [f for f in os.listdir(cache_dir) if f.endswith(".json")]
    assert files
    victim = os.path.join(cache_dir, files[0])
    with open(victim) as fh:
        doc = json.load(fh)
    doc["hash"] = "0" * 64
    with open(victim, "w") as fh:
        json.dump(doc, fh)
    report = run_verify(scope=["betti-exp2-circle"], cache_dir=cache_dir)
    assert report.passed
    assert any("rebuilt" in w for w in report.warnings)


def test_failed_cache_write_leaves_no_entry(tmp_path, monkeypatch):
    fdopen = os.fdopen

    class TornFile:
        """Writes half of the text, then fails like a full disk."""

        def __init__(self, fh):
            self.fh = fh

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            self.fh.close()

        def write(self, text):
            self.fh.write(text[: len(text) // 2])
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
    assert [f for f in os.listdir(cache_dir) if f.endswith(".json")]


def test_cache_entries_get_the_mode_of_a_plain_open(tmp_path):
    cache_dir = tmp_path / "cache"
    ModelCache(cache_dir=str(cache_dir)).model_for(SpaceSpec("exp", n=1, k=2))
    (entry,) = [p for p in cache_dir.iterdir() if p.suffix == ".json"]
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


def test_jobs_parallel_matches_serial():
    scope = ["betti-exp2-circle", "betti-exp3-circle", "props-kunneth"]
    serial = run_verify(scope=scope, jobs=1)
    parallel = run_verify(scope=scope, jobs=2)
    assert entries_without_time(serial) == entries_without_time(parallel)


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
    template = {
        "format": "exact-template/1",
        "terms": [
            {"name": "0", "dim": 0},
            {"name": "A", "dim": 2},
            {"name": "0", "dim": 0},
        ],
        "arrows": [{"kind": "unconstrained"}, {"kind": "zero"}],
    }
    path = str(tmp_path / "bad.json")
    with open(path, "w") as fh:
        json.dump(template, fh)
    rc = main(["solve", path])
    assert rc == 1
    assert "inconsistent" in capsys.readouterr().out


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
