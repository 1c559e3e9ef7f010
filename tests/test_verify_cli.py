"""The verification harness and the command-line surface."""

import collections
import hashlib
import itertools
import json
import os
import re
import subprocess
import sys
import threading
import time
import tracemalloc
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace

import numpy as np
import pytest

import expk
from expk import simplicial, spaces, verify
from expk.cli import main
from expk.errors import ContractViolation
from expk.gf2 import Gf2Matrix, Gf2Span
from expk.simplicial import SimplicialSetModel, _DerivedFaces, canonical_json
from expk.verify import CHECKS, ModelCache, run_verify
from expk.spaces import DEFAULT_MAX_LEVEL_SIZE, SpaceSpec


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


class _OneRankTooMany(Gf2Span):
    def __len__(self):
        return super().__len__() + 1


def test_props_gf2_fails_on_a_rank_one_too_many(monkeypatch):
    monkeypatch.setattr(verify, "Gf2Span", _OneRankTooMany)
    (res,) = run_verify(scope=["props-gf2"]).results
    assert res.status == "fail" and "rank" in res.detail


def test_props_gf2_fails_on_a_dropped_relation(monkeypatch):
    relations = verify.relations
    monkeypatch.setattr(verify, "relations", lambda columns: relations(columns)[1:])
    (res,) = run_verify(scope=["props-gf2"]).results
    assert res.status == "fail" and "kernel" in res.detail


def test_packed_enumeration_counts_equal_the_unique_image_rows():
    rng = np.random.default_rng(40)
    for r, c in itertools.product(range(1, 7), range(1, 13)):
        dense = rng.integers(0, 2, size=(r, c), dtype=np.uint8)
        xs = np.array(list(itertools.product((0, 1), repeat=c)), dtype=np.uint8)
        images = xs @ dense.T % 2
        kernel = int((~images.any(axis=1)).sum())
        want = (len(np.unique(images, axis=0)), kernel)
        assert verify._enumerated_counts(dense) == want


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


@pytest.fixture
def stored_row(monkeypatch):
    """The id of a row that reads one stored model, exp₂(S¹), through the cache."""

    @verify._reads(SpaceSpec("exp", n=1, k=2))
    def run(ctx, model):
        dims = list(model.betti_table().dims)
        return verify._verdict(dims == [1, 1, 0], computed=dims)

    monkeypatch.setitem(CHECKS, "stored-exp2-circle", ("a stored model", run))
    return "stored-exp2-circle"


def test_over_budget_reports_skipped_not_crash():
    # the normalized exp_3 of the 2-sphere holds 30 simplices at level 5; its
    # sphere, at most 22 at a level, fits
    report = run_verify(scope=["betti-exp3-sphere2"], max_level_size=22)
    (res,) = report.results
    assert res.status == "skipped"
    assert "over budget: normalized exp: level 5" in res.detail
    assert report.passed  # skips do not fail a run


def test_one_vertex_row_over_budget_reports_skipped():
    # the normalized exp_3 of the 3-sphere holds 500 simplices at level 6, 945 at 7
    report = run_verify(scope=["betti-exp3-sphere3"], max_level_size=500)
    (res,) = report.results
    assert res.status == "skipped"
    assert "over budget: normalized exp: level 7 would hold 945" in res.detail
    assert report.passed


def test_a_row_reports_the_spec_its_model_was_built_from():
    report = run_verify(scope=["betti-exp2-circle"], max_level_size=100)
    (res,) = report.results
    spec = SpaceSpec(
        "exp", n=1, k=2, max_level_size=100, base="one-vertex", normalized=True
    )
    assert res.status == "pass" and res.spec == spec.to_json_dict()
    assert report.model_hashes == {}  # a normalized model is not hashed


def test_models_built_outside_the_cache_obey_the_budget():
    # the product of two circles at cap 3 has 144 simplices at level 3
    report = run_verify(scope=["props-kunneth"], max_level_size=100)
    (res,) = report.results
    assert res.status == "skipped"
    assert "over budget" in res.detail


def test_the_torus_and_projective_plane_rows_obey_the_budget():
    # the torus holds 144 simplices at level 3, the projective plane 126 at level 4
    scope = ["cup-torus", "sq1-projective-plane"]
    report = run_verify(scope=scope, max_level_size=100)
    assert [r.status for r in report.results] == ["skipped", "skipped"]
    assert all("over budget" in r.detail for r in report.results)


@pytest.mark.parametrize("bound", [100, 1000])
def test_no_model_a_run_builds_exceeds_its_budget(monkeypatch, bound):
    largest = []  # each build's largest level
    build = SimplicialSetModel.from_operators.__func__

    def recording(cls, cap, level_sizes, *args, **kwargs):
        largest.append(max(level_sizes))
        return build(cls, cap, level_sizes, *args, **kwargs)

    monkeypatch.setattr(SimplicialSetModel, "from_operators", classmethod(recording))
    assert run_verify(max_level_size=bound).passed
    assert largest and max(largest) <= bound


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
    scope = ["pushout-circle", "sym2-bijection-circle"]
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


def test_corrupt_cache_rebuilds_with_warning(tmp_path, stored_row):
    cache_dir = str(tmp_path / "cache")
    run_verify(scope=[stored_row], cache_dir=cache_dir)
    victim, header, body = _cache_entry(cache_dir)
    header["hash"] = "0" * 64
    with open(victim, "wb") as fh:
        fh.write(_header_line(header) + body)
    report = run_verify(scope=[stored_row], cache_dir=cache_dir)
    assert report.passed
    assert any("rebuilt" in w for w in report.warnings)


def test_cli_verify_prints_each_warning_to_stderr(tmp_path, capsys, stored_row):
    cache_dir = str(tmp_path / "cache")
    assert main(["verify", stored_row, "--cache-dir", cache_dir]) == 0
    victim, header, body = _cache_entry(cache_dir)
    header["hash"] = "0" * 64
    with open(victim, "wb") as fh:
        fh.write(_header_line(header) + body)
    capsys.readouterr()
    assert main(["verify", stored_row, "--cache-dir", cache_dir]) == 0
    out, err = capsys.readouterr()
    (warning,) = [line for line in err.splitlines() if "warning" in line]
    assert warning.startswith(f"expk: warning: cache entry {victim} rebuilt")
    assert "warning" not in out
    # the rebuild rewrote the entry; damage it again for the json format,
    # whose report carries the warnings, so none is printed
    with open(victim, "wb") as fh:
        fh.write(_header_line(header) + body)
    argv = ["verify", stored_row, "--cache-dir", cache_dir, "--format", "json"]
    assert main(argv) == 0
    out, err = capsys.readouterr()
    assert "warning" not in err
    (reported,) = json.loads(out)["warnings"]
    assert reported.startswith(f"cache entry {victim} rebuilt")


def _flip_word(header, body, at, level):
    """The entry with word ``at``, a face id into ``level``, moved to another id."""
    words = np.frombuffer(body, dtype="<i4").copy()
    flipped = (words[at] + 1) % header["level_sizes"][level]  # still a valid face id
    assert flipped != words[at]
    words[at] = flipped
    return _header_line(header) + words.tobytes()


def _flip_first_word(header, body):
    return _flip_word(header, body, 0, 0)


def _flip_cap_face_word(header, body):
    """Flip the first word of the cap's d_0, a face of a degenerate simplex:
    a loaded model keeps every word it reads, so the hash sees the flip."""
    cap, sizes = header["level_cap"], header["level_sizes"]
    assert SimplicialSetModel.from_words(
        header, np.frombuffer(body, dtype="<i4")
    ).top_nondegenerate_level() < cap
    at = sum((n + 1) * sizes[n] for n in range(1, cap))
    return _flip_word(header, body, at, cap - 1)


def _other_spec(header, body):
    header["spec"]["k"] = 3
    return _header_line(header) + body


DAMAGE = {
    "cut-mid-body": (lambda h, b: _header_line(h) + b[: len(b) // 2 + 2], "multiple"),
    "header-only": (lambda h, b: _header_line(h), "length"),
    "empty-file": (lambda h, b: b"", "Expecting value"),
    "flipped-word": (_flip_first_word, "hash mismatch"),
    "flipped-cap-face-word": (_flip_cap_face_word, "hash mismatch"),
    "other-spec": (_other_spec, "another spec"),
    "appended-word": (lambda h, b: _header_line(h) + b + b[:4], "length"),
}


@pytest.mark.parametrize("damage", sorted(DAMAGE))
def test_damaged_cache_entry_is_rebuilt(tmp_path, damage, stored_row):
    damaged, reason = DAMAGE[damage]
    cache_dir = str(tmp_path / "cache")
    first = run_verify(scope=[stored_row], cache_dir=cache_dir)
    victim, header, body = _cache_entry(cache_dir)
    with open(victim, "wb") as fh:
        fh.write(damaged(header, body))
    report = run_verify(scope=[stored_row], cache_dir=cache_dir)
    assert report.passed
    (warning,) = report.warnings
    assert "rebuilt" in warning and reason in warning
    assert report.model_hashes == first.model_hashes
    again = run_verify(scope=[stored_row], cache_dir=cache_dir)
    assert not again.warnings  # the rebuild rewrote the entry


def test_failed_cache_write_leaves_no_entry(tmp_path, monkeypatch, stored_row):
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
    monkeypatch.setattr(verify.os, "fdopen", fdopen)
    report = run_verify(scope=[stored_row], cache_dir=cache_dir)
    assert report.passed
    assert not report.warnings
    assert [f for f in os.listdir(cache_dir) if f.endswith(".bin")]


def test_a_cache_entry_is_its_header_line_and_the_word_stream(tmp_path):
    spec = SpaceSpec("exp", n=1, k=2)
    model = ModelCache(cache_dir=str(tmp_path / "built")).model_for(spec)
    cap = model.level_cap
    # a built model whose top two levels are derived on read
    assert model.top_nondegenerate_level() == cap - 1
    assert all(isinstance(model.faces[n], _DerivedFaces) for n in (cap - 1, cap))
    header = {
        "spec": spec.to_json_dict(),
        "hash": model.content_hash(),
        **model.header(),
    }
    want = _header_line(header) + b"".join(t.tobytes() for t in model.words())
    path, _, _ = _cache_entry(str(tmp_path / "built"))
    with open(path, "rb") as fh:
        assert fh.read() == want
    # loaded and stored again, the entry is the same bytes
    cache = ModelCache(cache_dir=str(tmp_path / "again"))
    os.makedirs(cache.cache_dir)
    loaded, loaded_hash = cache._load(path, spec.to_json_text())
    again = os.path.join(cache.cache_dir, os.path.basename(path))
    assert cache._store(again, spec.to_json_text(), loaded) == loaded_hash
    with open(again, "rb") as fh:
        assert fh.read() == want
    assert not cache.warnings


def test_a_cache_store_and_load_hold_at_most_one_copy_of_the_words(tmp_path):
    spec = SpaceSpec("exp", n=3, k=2)
    cache, key = ModelCache(cache_dir=str(tmp_path)), spec.to_json_text()
    path = str(tmp_path / "entry.bin")
    tracemalloc.start()
    try:
        model = verify.build_space(spec)
        built = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        model_hash = cache._store(path, key, model)
        hashed, peak = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        loaded, loaded_hash = cache._load(path, key)
        read, kept = (m - hashed for m in tracemalloc.get_traced_memory()[::-1])
    finally:
        tracemalloc.stop()
    cap, sizes = model.level_cap, model.level_sizes
    words = sum(4 * sizes[n] for _, n, _, _ in simplicial.operators(cap))
    derived = [n for n, level in enumerate(model.faces) if isinstance(level, _DerivedFaces)]
    assert derived == [cap - 1, cap]
    # the store hashes first, which derives and keeps the top levels: while
    # a level is derived, its int32 groups and one table's index and values
    # besides, under five tables of the cap level
    derived_bytes = sum(4 * (n + 1) * sizes[n] for n in derived)
    assert peak - built < derived_bytes + 5 * 4 * sizes[cap]
    assert loaded_hash == model_hash and loaded == model
    assert words == sum(table.nbytes for table in model.words())
    # the load reads the word block whole, once, and the model it gives
    # views it, so it keeps no more than the built model once hashed
    assert read < kept + 1.1 * words
    assert kept <= hashed


def test_cache_entries_get_the_mode_of_a_plain_open(tmp_path):
    cache_dir = tmp_path / "cache"
    ModelCache(cache_dir=str(cache_dir)).model_for(SpaceSpec("exp", n=1, k=2))
    (entry,) = [p for p in cache_dir.iterdir() if p.suffix == ".bin"]
    plain = tmp_path / "plain.json"
    with open(plain, "w") as fh:
        fh.write("{}")
    assert entry.stat().st_mode == plain.stat().st_mode


def test_a_run_builds_each_sphere_base_once(monkeypatch):
    built = collections.Counter()
    for name, build in list(spaces.SPHERE_BASES.items()):

        def counting(n, cap, max_level_size, name=name, build=build):
            built[name, n, cap] += 1
            return build(n, cap, max_level_size=max_level_size)

        monkeypatch.setitem(spaces.SPHERE_BASES, name, counting)
    assert run_verify().passed
    # twelve distinct (base, n, cap), one build each: normalized specs read
    # their spheres from the same bases as stored ones
    assert len(built) == 12 and set(built.values()) == {1}


@pytest.mark.parametrize("jobs", [1, 2])
def test_a_run_builds_no_model_twice_but_the_products_rows_compute(monkeypatch, jobs):
    built = collections.Counter()
    build = SimplicialSetModel.from_operators.__func__

    def counting(cls, cap, level_sizes, *args, **kwargs):
        model = build(cls, cap, level_sizes, *args, **kwargs)
        built[model.description, tuple(level_sizes)] += 1
        return model

    monkeypatch.setattr(SimplicialSetModel, "from_operators", classmethod(counting))
    assert run_verify(jobs=jobs).passed
    # props-kunneth and lesolve-gluing each square S¹ at cap 3 and S² at cap 5
    repeated = {description: n for (description, _), n in built.items() if n > 1}
    assert repeated == {"(sphere(1) x sphere(1))": 2, "(sphere(2) x sphere(2))": 2}
    assert sum(built.values()) <= 40


def test_every_stored_model_a_row_receives_is_hashed_and_no_sphere_is(monkeypatch):
    received = set()  # spec texts of the models the rows were called with
    for check_id, (description, fn) in list(CHECKS.items()):
        reads = getattr(fn, "reads", ())

        def recording(ctx, *models, fn=fn, reads=reads):
            assert len(models) == len(reads)
            received.update(spec.to_json_text() for spec in reads)
            return fn(ctx, *models)

        recording.reads = reads
        monkeypatch.setitem(CHECKS, check_id, (description, recording))
    report = run_verify()
    assert report.passed
    specs = {key: json.loads(key) for key in received}
    stored = {key for key, spec in specs.items() if not spec.get("normalized")}
    spheres = {key for key in stored if specs[key]["kind"] == "sphere"}
    assert spheres and set(report.model_hashes) == stored - spheres
    complexes = {key for key in stored if specs[key]["kind"] == "complex"}
    assert len(complexes) == 3


@pytest.mark.parametrize(
    "check_id, target, failing",
    [
        ("sq0-identity", "square_coordinates", lambda coords: [[0] * len(coords)]),
        ("props-simplicial", "validate", lambda bad: "a broken identity"),
    ],
)
def test_a_failing_suite_model_is_named_in_the_detail(
    monkeypatch, check_id, target, failing
):
    served = {}  # spec text -> the model the cache gave
    model_for = ModelCache.model_for

    def recording(cache, spec):
        served[spec.to_json_text()] = model = model_for(cache, spec)
        return model

    def broken(original):
        def call(model, *args):
            out = original(model, *args)
            return failing(out) if model is served.get(plane) else out

        return call

    plane = verify.PROJECTIVE_PLANE.to_json_text()
    monkeypatch.setattr(ModelCache, "model_for", recording)
    if target == "validate":
        monkeypatch.setattr(
            SimplicialSetModel, "validate", broken(SimplicialSetModel.validate)
        )
    else:
        monkeypatch.setattr(verify, target, broken(getattr(verify, target)))
    (res,) = run_verify(scope=[check_id]).results
    assert res.status == "fail"
    assert "projective plane" in res.detail


def test_model_cache_memoizes():
    cache = ModelCache()
    spec = SpaceSpec("sphere", n=1, cap=3)
    assert cache.model_for(spec) is cache.model_for(spec)


def test_model_cache_hashes_each_model_once(tmp_path, monkeypatch):
    calls, running = [], []  # every content_hash call, and those not returned
    sha256s = []  # per SHA-256 made: whether a content_hash call made it
    content_hash, sha256 = SimplicialSetModel.content_hash, hashlib.sha256

    def counting_hash(model):
        calls.append(model.description)
        running.append(model)
        try:
            return content_hash(model)
        finally:
            running.pop()

    def counting_sha256(*data):
        sha256s.append(bool(running))
        return sha256(*data)

    monkeypatch.setattr(SimplicialSetModel, "content_hash", counting_hash)
    monkeypatch.setattr(hashlib, "sha256", counting_sha256)
    spec = SpaceSpec("exp", n=1, k=2, cap=3)
    cache_dir = str(tmp_path / "cache")
    built = ModelCache(cache_dir=cache_dir)
    built.model_for(spec)
    assert len(calls) == 1
    sha256s.clear()
    loaded = ModelCache(cache_dir=cache_dir)
    model = loaded.model_for(spec)
    # a load hashes the model it read, in one content_hash call; its only
    # other SHA-256 names the entry's file after the spec
    assert len(calls) == 2 and sha256s == [False, True]
    assert not loaded.warnings
    assert loaded.hashes == built.hashes == {spec.to_json_text(): model.content_hash()}


@pytest.mark.parametrize("populated", [False, True], ids=["build", "load"])
def test_concurrent_requests_build_or_load_once(tmp_path, monkeypatch, populated):
    spec = SpaceSpec("exp", n=1, k=2)
    cache_dir = str(tmp_path / "cache")
    if populated:
        ModelCache(cache_dir=cache_dir).model_for(spec)
    calls = []
    build_space, load = verify.build_space, ModelCache._load

    def slow_build(spec, base=None):
        calls.append("build")
        time.sleep(0.05)  # keep the other threads waiting at the lock
        return build_space(spec, base)

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


def _recording_caches(monkeypatch):
    """Patch ``verify.ModelCache`` to list each cache ``run_verify`` makes."""
    caches = []

    class RecordingCache(ModelCache):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            caches.append(self)

    monkeypatch.setattr(verify, "ModelCache", RecordingCache)
    return caches


def test_a_row_receives_the_models_it_declares_in_order(monkeypatch):
    # declared out of the order of their spec texts, to show the row gets its own
    declared = (SpaceSpec("sym", n=1, k=2, cap=3), SpaceSpec("exp", n=1, k=2, cap=3))
    received = []

    @verify._reads(*declared)
    def run(ctx, *models):
        received.extend(models)
        return verify._verdict(True)

    monkeypatch.setitem(CHECKS, "two-models", ("receives its two models", run))
    report = run_verify(scope=["two-models"])
    assert report.passed
    want = [verify.build_space(spec).content_hash() for spec in declared]
    assert [model.content_hash() for model in received] == want
    assert sorted(report.model_hashes.values()) == sorted(want)


@pytest.mark.parametrize("jobs", [1, 2])
def test_rows_read_what_they_declare_and_each_model_is_built_once(monkeypatch, jobs):
    local, requested, built, caches = threading.local(), {}, [], set()
    model_for, build_space = ModelCache.model_for, verify.build_space

    def recording_model_for(cache, spec):
        caches.add(cache)
        local.__dict__.setdefault("keys", set()).add(spec.to_json_text())
        return model_for(cache, spec)

    def progress(result):  # called in the thread that ran the row
        requested[result.check_id] = local.__dict__.pop("keys", set())

    def counting_build(spec, base=None):
        built.append(spec.to_json_text())
        return build_space(spec, base)

    monkeypatch.setattr(ModelCache, "model_for", recording_model_for)
    monkeypatch.setattr(verify, "build_space", counting_build)
    report = run_verify(jobs=jobs, progress=progress)
    assert report.passed
    assert requested == {
        c: {
            replace(spec, max_level_size=DEFAULT_MAX_LEVEL_SIZE).to_json_text()
            for spec in getattr(fn, "reads", ())
        }
        for c, (_, fn) in CHECKS.items()
    }
    assert sorted(built) == sorted(set(built))
    # a normalized model is built like any other, but gets no hash
    stored = [key for key in built if not json.loads(key).get("normalized")]
    assert len(stored) < len(built) and sorted(stored) == sorted(report.model_hashes)
    (cache,) = caches
    assert cache.memory == {}


def test_a_model_is_held_until_its_last_declared_reader(monkeypatch):
    exp2 = SpaceSpec("exp", n=1, k=2, cap=3)
    key = exp2.to_json_text()
    held, built = {}, []
    caches = _recording_caches(monkeypatch)
    build_space = verify.build_space
    monkeypatch.setattr(
        verify,
        "build_space",
        lambda spec, base=None: built.append(spec) or build_space(spec, base),
    )

    def row(check_id):
        def run(ctx, *models):
            (cache,) = caches
            held[check_id] = set(cache.memory)
            return verify._verdict(True)

        return run

    rows = {
        "held-1": verify._reads(exp2)(row("held-1")),
        "held-2": verify._reads(exp2)(row("held-2")),
        "held-3": row("held-3"),
    }
    for check_id, fn in rows.items():
        monkeypatch.setitem(CHECKS, check_id, ("records what memory holds", fn))
    assert run_verify(scope=list(rows)).passed
    assert held == {"held-1": {key}, "held-2": {key}, "held-3": set()}
    assert len(built) == 1


def test_the_countdown_under_many_threads_builds_once_and_ends_empty(monkeypatch):
    exp2 = SpaceSpec("exp", n=1, k=2, cap=3)
    built = []
    caches = _recording_caches(monkeypatch)
    build_space = verify.build_space
    monkeypatch.setattr(
        verify,
        "build_space",
        lambda spec, base=None: built.append(spec) or build_space(spec, base),
    )

    @verify._reads(exp2)
    def run(ctx, model):
        time.sleep(0.001)  # let the other rows end and count down meanwhile
        return verify._verdict(model is not None)

    scope = [f"reads-exp2-{i}" for i in range(16)]
    for check_id in scope:
        monkeypatch.setitem(CHECKS, check_id, ("reads exp2(S1)", run))
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        report = run_verify(scope=scope, jobs=6)
    finally:
        sys.setswitchinterval(interval)
    assert report.passed and len(report.results) == 16
    assert len(built) == 1
    (cache,) = caches
    assert cache.memory == {}


def test_cache_scope_with_jobs_writes_no_entry_on_a_second_pass(tmp_path, monkeypatch):
    # rows that share stored models, so two threads ask for the same entries
    scope = [
        "models-agree",
        "normalized-agree",
        "sym2-bijection-circle",
        "sym2-bijection-sphere2",
    ]
    cache_dir = str(tmp_path / "cache")
    first = run_verify(scope=scope, cache_dir=cache_dir, jobs=2)
    entries = sorted(os.listdir(cache_dir))
    assert len(entries) == len(first.model_hashes)
    stored = []
    monkeypatch.setattr(ModelCache, "_store", lambda *args: stored.append(args[2]))
    second = run_verify(scope=scope, cache_dir=cache_dir, jobs=2)
    assert stored == [] and not second.warnings
    assert sorted(os.listdir(cache_dir)) == entries
    assert second.model_hashes == first.model_hashes


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
ROW_KINDS_DIGEST = "d7f32d30b13c2604fe1f574159931c9b5bba89a65384fe491da76511084691d3"


def test_one_row_of_each_kind_is_pinned():
    report = run_verify(scope=ROW_KINDS_SCOPE)
    assert report.passed
    by_id = {r.check_id: r for r in report.results}
    assert by_id["sq1-projective-plane"].computed == {"Sq1 H1->H2": [[1]]}
    entries = canonical_json(entries_without_time(report))
    assert hashlib.sha256(entries.encode()).hexdigest() == ROW_KINDS_DIGEST


def test_a_squares_row_that_misses_the_generator_fails(monkeypatch):
    # on the torus Sq1 = 0 from H1 (two generators) to H2: coordinates [[0], [0]]
    row = verify._reads(verify.TORUS)(verify._squares((1, 1)))
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


def test_cli_betti_computes_a_spec_normalized_or_stored(capsys):
    normalized = ["--kind", "exp", "--n", "2", "--k", "3", "--base", "one-vertex"]
    assert main(["betti", *normalized, "--normalized", "--format", "json"]) == 0
    assert json.loads(capsys.readouterr().out)["dims"] == [1, 0, 0, 0, 2, 1, 1]
    # on the default boundary sphere, normalized or stored
    for flags in (["--normalized"], []):
        assert main(["betti", "--kind", "exp", "--n", "1", "--k", "2", *flags]) == 0
        assert capsys.readouterr().out == "H^0: 1\nH^1: 1\nH^2: 0\n"
    # over its budget, a normalized spec is refused like a stored one
    argv = ["betti", *normalized, "--normalized", "--max-level-size", "29"]
    assert main(argv) == 2
    assert "level 5 would hold 30 simplices" in capsys.readouterr().err


def test_cli_betti_takes_a_model_file_or_a_spec_and_build_refuses_normalized(
    tmp_path, capsys
):
    model_path = str(tmp_path / "exp2s1.json")
    spec = ["--kind", "exp", "--n", "1", "--k", "2"]
    assert main(["build", *spec, "--out", model_path]) == 0
    capsys.readouterr()
    for argv, named in (
        (["betti", model_path, *spec], "a model file takes no spec arguments"),
        (["betti", model_path, "--normalized"], "--normalized"),
        (["betti", model_path, "--base", "one-vertex"], "--base"),
        (["betti"], "give a model file or --kind"),
        (["build", *spec, "--base", "one-vertex", "--normalized"], "expk betti"),
        (["betti", "--kind", "power", "--n", "1", "--k", "2", "--base", "one-vertex",
          "--normalized"], "only exp and sym"),
    ):
        assert main(argv) == 2, argv
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.count("\n") == 1, argv
        assert captured.err.startswith("expk: ") and named in captured.err, argv


def test_cli_sq_takes_a_model_file_or_a_spec(tmp_path, capsys):
    # Sq¹: H⁴ → H⁵ of exp₃(S²) has rank 1, on the second of H⁴'s two generators
    exp3 = ["--kind", "exp", "--n", "2", "--k", "3", "--base", "one-vertex"]
    argv = ["sq", *exp3, "--normalized", "--degree", "4", "--index", "1"]
    assert main(argv) == 0
    assert capsys.readouterr().out == "Sq^1 on h4[0] -> [0]\nSq^1 on h4[1] -> [1]\n"
    sym3 = ["--kind", "sym", "--n", "2", "--k", "3", "--base", "one-vertex"]
    argv = ["sq", *sym3, "--normalized", "--degree", "2", "--index", "2"]
    assert main([*argv, "--format", "json"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["squares"] == [{"generator": 0, "coordinates": [1]}]
    model_path = str(tmp_path / "exp2s1.json")
    spec = ["--kind", "exp", "--n", "1", "--k", "2"]
    assert main(["build", *spec, "--out", model_path]) == 0
    capsys.readouterr()
    square = ["--degree", "1", "--index", "0"]
    for argv, named in (
        (["sq", model_path, *spec, *square], "a model file takes no spec arguments"),
        (["sq", *square], "give a model file or --kind"),
    ):
        assert main(argv) == 2, argv
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.count("\n") == 1, argv
        assert captured.err.startswith("expk: ") and named in captured.err, argv


def test_the_pushout_rows_build_each_model_once(monkeypatch):
    # models-agree reads the one-vertex exp₃ and Sym₃ that the pushout rows glue
    built = []
    build = SimplicialSetModel.from_operators.__func__

    def recording(cls, cap, level_sizes, rule, description=""):
        built.append((description, tuple(level_sizes)))
        return build(cls, cap, level_sizes, rule, description)

    monkeypatch.setattr(SimplicialSetModel, "from_operators", classmethod(recording))
    scope = ["models-agree", "pushout-circle", "pushout-sphere2"]
    assert run_verify(scope=scope).passed
    # each spec builds its own sphere; every other model is built once
    spaces_built = [b for b in built if not b[0].startswith(("sphere", "one_vertex"))]
    assert len(spaces_built) == len(set(spaces_built))
    names = [name for name, _ in spaces_built]
    for shared in ("exp_3(one_vertex_sphere(2))", "sym_3(one_vertex_sphere(2))"):
        assert names.count(shared) == 1


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
        # budgets and job counts below 1
        ["build", "--kind", "exp", "--n", "1", "--k", "2", "--max-level-size", "0"],
        ["verify", "betti-exp2-circle", "--max-level-size", "-5"],
        ["verify", "--jobs", "0"],
        ["verify", "props-gf2", "--jobs", "-2"],
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


@pytest.mark.parametrize(
    "bad", [{"jobs": 0}, {"jobs": -2}, {"max_level_size": 0}, {"max_level_size": -5}]
)
def test_run_verify_refuses_bounds_below_one_before_any_check_runs(monkeypatch, bad):
    ran = []
    monkeypatch.setitem(CHECKS, "records", ("records its run", ran.append))
    with pytest.raises(ContractViolation, match=next(iter(bad))):
        run_verify(scope=["records"], **bad)
    assert ran == []


def test_cli_an_error_inside_a_check_surfaces_as_itself(monkeypatch):
    def broken(ctx):
        raise KeyError("missing")

    monkeypatch.setitem(CHECKS, "broken", ("raises inside its own code", broken))
    with pytest.raises(KeyError, match="missing"):
        main(["verify", "broken"])


def test_cli_catalog(capsys):
    rc = main(["catalog", "exp3", "2"])
    assert rc == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["dims"] == [1, 0, 0, 0, 2, 1, 1]


# ---------------------------------------------------------------------------
# every subcommand's results, byte for byte: GOLDEN maps a case to its argv,
# exit code, stdout, stderr and the text of its --out file (None without one).
# In argv, {model} is a built exp₂(S²) file, {sound} and {unsound} are solve
# templates and {out} is an output path. A timing in stderr reads (…s), and a
# json report drops its toolchain and every wall_time_s.

SOUND_TEMPLATE = (
    '{"format": "exact-template/1", "terms": [{"name": "0", "dim": 0},'
    ' {"name": "A", "dim": null}, {"name": "B", "dim": 1}, {"name": "0", "dim": 0}],'
    ' "arrows": [{"kind": "unconstrained"}, {"kind": "unconstrained"},'
    ' {"kind": "unconstrained"}]}'
)
UNSOUND_TEMPLATE = (
    '{"format": "exact-template/1", "terms": [{"name": "0", "dim": 0},'
    ' {"name": "A", "dim": 2}, {"name": "0", "dim": 0}],'
    ' "arrows": [{"kind": "unconstrained"}, {"kind": "zero"}]}'
)

SPHERE1_BUILD = (
    '{"hash":"5849162b051e6997bda24f0dfe37d5767b38b3bd5f7ce0d937ec8cd24e0f55ff",'
    '"model":{"degeneracies":[[[0,3,5]],[[0,1,2,5,6,8],[0,3,4,5,7,8]],[]],'
    '"description":"sphere(1)","faces":[[],[[0,1,2,1,2,2],[0,0,0,1,1,2]],[[0,'
    "1,2,3,5,3,4,5,5],[0,1,2,1,2,3,4,4,5],[0,0,0,1,2,3,3,4,5]]],"
    '"format":"simplicial-set-model/1","level_cap":2,"level_sizes":[3,6,9]},'
    '"spec":{"cap":2,"format":"space-spec/1","kind":"sphere",'
    '"max_level_size":5000000,"n":1}}'
)

GOLDEN = {
    "build": (
        "build --kind sphere --n 1",
        0,
        SPHERE1_BUILD + "\n",
        "built sphere(1): levels [3, 6, 9]\n",
        None,
    ),
    "build-out": (
        "build --kind sphere --n 1 --out {out}",
        0,
        "",
        "built sphere(1): levels [3, 6, 9]\n",
        SPHERE1_BUILD,
    ),
    "catalog": (
        "catalog exp3 2",
        0,
        '{"dims":[1,0,0,0,2,1,1],"kind":"exp3","n":2,"source":"catalog:exp3-table"}\n',
        "",
        None,
    ),
    "betti-file": (
        "betti {model}",
        0,
        "H^0: 1\nH^1: 0\nH^2: 1\nH^3: 0\nH^4: 1\n",
        "",
        None,
    ),
    "betti-file-json": (
        "betti {model} --format json",
        0,
        '{"dims":[1,0,1,0,1],"format":"betti-table/1"}\n',
        "",
        None,
    ),
    "betti-file-json-out": (
        "betti {model} --format json --out {out}",
        0,
        "",
        "",
        '{"dims":[1,0,1,0,1],"format":"betti-table/1"}',
    ),
    "betti-spec": (
        "betti --kind exp --n 1 --k 2",
        0,
        "H^0: 1\nH^1: 1\nH^2: 0\n",
        "",
        None,
    ),
    "betti-spec-json": (
        "betti --kind exp --n 2 --k 3 --base one-vertex --normalized --format json",
        0,
        '{"dims":[1,0,0,0,2,1,1],"format":"betti-table/1"}\n',
        "",
        None,
    ),
    "sq": (
        "sq {model} --degree 2 --index 2",
        0,
        "Sq^2 on h2[0] -> [1]\n",
        "",
        None,
    ),
    "sq-json": (
        "sq {model} --degree 2 --index 2 --format json",
        0,
        (
            '{"degree":2,"index":2,"squares":[{"coordinates":[1],"generator":0}],'
            '"target_rank":1}\n'
        ),
        "",
        None,
    ),
    "sq-no-generators": (
        "sq {model} --degree 1 --index 1",
        0,
        "no generators in this degree\n",
        "",
        None,
    ),
    "sq-no-generators-json": (
        "sq {model} --degree 1 --index 1 --format json",
        0,
        '{"degree":1,"index":1,"squares":[],"target_rank":1}\n',
        "",
        None,
    ),
    "solve": (
        "solve {sound}",
        0,
        "0: 0\nA: 1\nB: 1\n0: 0\n",
        "",
        None,
    ),
    "solve-json": (
        "solve {sound} --format json",
        0,
        (
            '{"certificate":null,"consistent":true,"dims":[{"hi":0,"lo":0,'
            '"name":"0"},{"hi":1,"lo":1,"name":"A"},{"hi":1,"lo":1,"name":"B"},'
            '{"hi":0,"lo":0,"name":"0"}],"ranks":[{"hi":0,"lo":0},{"hi":1,"lo":1},'
            '{"hi":0,"lo":0}]}\n'
        ),
        "",
        None,
    ),
    "solve-inconsistent": (
        "solve {unsound}",
        1,
        "inconsistent: rank pin on arrow A -> 0\n",
        "",
        None,
    ),
    "solve-inconsistent-json": (
        "solve {unsound} --format json",
        1,
        (
            '{"certificate":"rank pin on arrow A -> 0","consistent":false,"dims":[],'
            '"ranks":[]}\n'
        ),
        "",
        None,
    ),
    "verify": (
        "verify props-gf2 cup-torus",
        0,
        (
            "check      status    detail\n"
            "-------------------------------------------------\ncup-torus  pass      "
            "[a.b]=[1] [a.a]=[0] [b.b]=[0] unit=True\nprops-gf2  pass      rank and "
            "kernel match exhaustive enumeration up to 12 columns\nTOTAL      pass   "
            "   2 passed, 0 failed, 0 skipped\n"
        ),
        "[   pass] cup-torus (…s)\n[   pass] props-gf2 (…s)\n",
        None,
    ),
    "verify-json": (
        "verify props-gf2 cup-torus --format json",
        0,
        (
            '{"checks":[{"check_id":"cup-torus","computed":{"basis":[{"degree":0,'
            '"labels":["h0[0]"]},{"degree":1,"labels":["h1[0]","h1[1]"]},{"degree":2,'
            '"labels":["h2[0]"]}],"format":"ring-table/1","products":[{"coords":[1],'
            '"left":[0,0],"right":[0,0]},{"coords":[1,0],"left":[0,0],"right":[1,0]},'
            '{"coords":[0,1],"left":[0,0],"right":[1,1]},{"coords":[1],"left":[0,0],'
            '"right":[2,0]},{"coords":[1,0],"left":[1,0],"right":[0,0]},'
            '{"coords":[0],"left":[1,0],"right":[1,0]},{"coords":[1],"left":[1,0],'
            '"right":[1,1]},{"coords":[0,1],"left":[1,1],"right":[0,0]},'
            '{"coords":[1],"left":[1,1],"right":[1,0]},{"coords":[0],"left":[1,1],'
            '"right":[1,1]},{"coords":[1],"left":[2,0],"right":[0,0]}]},'
            '"description":"cup products on the torus","detail":"[a.b]=[1] [a.a]=[0] '
            '[b.b]=[0] unit=True","expected":null,"source":"","spec":null,'
            '"status":"pass"},{"check_id":"props-gf2","computed":null,'
            '"description":"rank/kernel against enumeration","detail":"rank and '
            'kernel match exhaustive enumeration up to 12 columns","expected":null,'
            '"source":"","spec":null,"status":"pass"}],'
            '"format":"verification-report/1","model_hashes":{"{\\"cap\\":3,'
            '\\"facets\\":[[0,3,4],[0,1,4],[1,4,5],[1,2,5],[2,3,5],[0,2,3],[3,6,7],'
            "[3,4,7],[4,7,8],[4,5,8],[5,6,8],[3,5,6],[0,1,6],[1,6,7],[1,2,7],[2,7,8],"
            '[0,2,8],[0,6,8]],\\"format\\":\\"space-spec/1\\",'
            '\\"kind\\":\\"complex\\",'
            '\\"max_level_size\\":5000000}":'
            '"d548c606fd35ced38b652ac0a396498f64f0dfac47e1a17fb8443f9ef5b35728"},'
            '"passed":true,"warnings":[]}\n'
        ),
        "[   pass] cup-torus (…s)\n[   pass] props-gf2 (…s)\n",
        None,
    ),
    "verify-out": (
        "verify cup-torus --out {out}",
        0,
        "",
        "[   pass] cup-torus (…s)\n",
        (
            "check      status    detail\n"
            "-------------------------------------------------\ncup-torus  pass      "
            "[a.b]=[1] [a.a]=[0] [b.b]=[0] unit=True\nTOTAL      pass      1 passed, "
            "0 failed, 0 skipped"
        ),
    ),
    "verify-unknown": (
        "verify nope",
        2,
        "",
        "expk: unknown checks: ['nope']\n"
        f"available checks: {', '.join(sorted(CHECKS))}\n",
        None,
    ),
    "betti-bare": (
        "betti",
        2,
        "",
        "expk: give a model file or --kind and its spec arguments\n",
        None,
    ),
    "build-normalized": (
        "build --kind exp --n 1 --k 2 --normalized",
        2,
        "",
        (
            "expk: a normalized complex has no stored tables to write; compute its "
            "tables with expk betti or expk sq and the same arguments\n"
        ),
        None,
    ),
}


@pytest.mark.parametrize("case", GOLDEN)
def test_cli_writes_each_result_byte_for_byte(tmp_path, capsys, case):
    command, *want = GOLDEN[case]
    spec = SpaceSpec("exp", n=2, k=2)
    model = spaces.build_space(spec)
    names = ("model", "sound", "unsound", "out")
    paths = {name: tmp_path / f"{name}.json" for name in names}
    doc = {"spec": spec.to_json_dict(), "model": model.to_json_dict()}
    paths["model"].write_text(canonical_json({**doc, "hash": model.content_hash()}))
    paths["sound"].write_text(SOUND_TEMPLATE)
    paths["unsound"].write_text(UNSOUND_TEMPLATE)
    argv = [arg.format(**paths) for arg in command.split()]
    code = main(argv)
    out, err = capsys.readouterr()
    err = re.sub(r"\(\d+\.\d+s\)", "(…s)", err)
    if argv[0] == "verify":
        out = re.sub(r'"toolchain":\{[^}]*\},|,"wall_time_s":[0-9.]+', "", out)
    written = paths["out"].read_text() if paths["out"].exists() else None
    assert [code, out, err, written] == want
