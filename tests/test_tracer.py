"""The benchmark's tracer still finds every library name it wraps or reads.

``perfbench/tracer.py`` patches the library from outside, by attribute
name.  A renamed or deleted method would break ``--trace 1`` runs only,
so this test installs the tracer in a fresh process, runs one traced call
of each layer on the torus and checks that every span and counter fills.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

SCRIPT = """
import json
from tracer import Tracer, layer_metrics

tracer = Tracer()
tracer.install()

from expk import cochains
from expk.complexes import torus
from expk.gf2 import Gf2Matrix, Gf2Vector

model = torus()
d2 = model.boundary_matrix(2)
d2.rank()
d2.solve(d2.mul_vec(Gf2Vector.from_bits([1] * d2.col_count)))
d2.kernel_basis()
d2.transpose()
model.boundary_matrix(1).matmul(d2)
Gf2Matrix.from_rows([[1, 0], [1, 1]]).rank()
basis = model.cohomology_basis(1)
square = cochains.steenrod_square(model, 0, basis[0])
cochains.express_in_basis(model, square, basis)
cochains.is_coboundary(model, square)
model.content_hash()
model.to_json_text()
summary = tracer.summary()
print(json.dumps({"summary": summary, "metrics": layer_metrics([summary], {})}))
"""

SPANS = (
    "gf2.rank",
    "gf2.solve",
    "gf2.kernel",
    "gf2.transpose",
    "gf2.mul_vec",
    "gf2.matmul",
    "gf2.construct",
    "simplicial.model_init",
    "simplicial.boundary",
    "simplicial.cohomology_basis",
    "simplicial.hash",
    "cochains.square",
    "cochains.cup_i",
    "cochains.express",
)

COUNTS = (
    "gf2.rank_cells",
    "gf2.kernel_cells",
    "simplicial.nondeg_simplices",
    "simplicial.json_bytes",
)


def test_tracer_wraps_every_layer_on_the_torus():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p
        for p in (str(ROOT / "perfbench"), str(ROOT / "src"), env.get("PYTHONPATH"))
        if p
    )
    result = subprocess.run(
        [sys.executable, "-c", SCRIPT],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert result.returncode == 0, result.stderr
    out = json.loads(result.stdout.splitlines()[-1])
    spans = out["summary"]["spans"]
    assert [name for name in SPANS if name not in spans] == []
    assert spans["cochains.express"][2] == 2  # express_in_basis and is_coboundary
    counts = out["summary"]["counts"]
    assert [name for name in COUNTS if not counts.get(name)] == []
    metrics = out["metrics"]
    for name in ("gf2.rank_calls", "gf2.solve_calls", "gf2.kernel_calls",
                 "gf2.transpose_calls", "simplicial.hash_calls",
                 "cochains.square_calls"):
        assert metrics[name] >= 1, name
