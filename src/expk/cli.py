"""Command-line front end.

Subcommands map one-to-one onto library entry points:

  build   space spec -> model file
  betti   model file, or space spec -> graded dimension table
  sq      model file, or space spec + degree + index -> square coordinates
          per generator
  solve   exact-sequence template file -> solution or certificate
  verify  run the named checks (all by default) and emit a report

Progress goes to stderr, results to stdout.  Exit status 0 means every
selected check passed (skipped checks do not fail a run), 1 that a check
failed or a template is inconsistent, and 2 that the input was rejected.
A rejected input gets one line ``expk: <message>`` on stderr: an argument
the subcommand cannot take, a file that cannot be read or written, input
that is not JSON or lacks a field of its document, a model file whose
``hash`` does not match its model, or a build over the simplex budget.
An unknown check id is rejected, with the list of check ids, before any
check runs; an exception raised inside a check is not an input error and
propagates as itself.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys

from . import catalog
from .cochains import square_coordinates
from .errors import CapError, ContractViolation, LevelSizeError
from .exact_sequences import ExactTemplate, solve_template
from .simplicial import SimplicialSetModel, canonical_json, malformed_fields
from .spaces import (
    DEFAULT_MAX_LEVEL_SIZE,
    SPACE_KINDS,
    SPHERE_BASES,
    SpaceSpec,
    build_space,
)
from .verify import CHECKS, run_verify


# each spec argument's default, None for kind: a model file is refused any
# other value
SPEC_DEFAULTS = {
    f.name: None if f.default is dataclasses.MISSING else f.default
    for f in dataclasses.fields(SpaceSpec)
}


def _add_spec_arguments(p, required=True):
    p.add_argument("--kind", required=required, choices=SPACE_KINDS)
    p.add_argument("--n", type=int, help="sphere dimension")
    p.add_argument("--k", type=int, help="arity / cardinality bound")
    p.add_argument("--cap", type=int, help="level cap (defaults per kind)")
    p.add_argument(
        "--facets",
        help="JSON list of vertex tuples, for --kind complex",
    )
    p.add_argument(
        "--max-level-size",
        type=int,
        default=SPEC_DEFAULTS["max_level_size"],
        help="per-level simplex budget",
    )
    p.add_argument(
        "--base",
        choices=tuple(SPHERE_BASES),
        default=SPEC_DEFAULTS["base"],
        help="sphere model the space is built on (not for --kind complex)",
    )
    p.add_argument(
        "--normalized",
        action="store_true",
        help="the normalized complex: --kind exp or sym, on either --base; "
        "betti and sq compute it",
    )


def _spec_from_args(args) -> SpaceSpec:
    facets = None
    if args.facets:
        with malformed_fields("--facets"):
            facets = tuple(tuple(int(v) for v in f) for f in json.loads(args.facets))
    fields = {f: getattr(args, f) for f in SPEC_DEFAULTS}
    return SpaceSpec(**{**fields, "facets": facets})


def _write_out(text, out):
    if out:
        with open(out, "w") as fh:
            fh.write(text)
    else:
        print(text)


def _emit(args, doc, human=None):
    """Write ``human`` under ``--format human``, else ``doc`` as canonical JSON."""
    json_text = human is None or args.format == "json"
    _write_out(canonical_json(doc) if json_text else human, args.out)


def cmd_build(args) -> int:
    spec = _spec_from_args(args)
    if spec.normalized:
        raise ContractViolation(
            "a normalized complex has no stored tables to write; "
            "compute its tables with expk betti or expk sq and the same arguments"
        )
    model = build_space(spec)
    doc = {
        "spec": spec.to_json_dict(),
        "model": model.to_json_dict(),
        "hash": model.content_hash(),
    }
    _emit(args, doc)
    print(f"built {model.description}: levels {model.level_sizes}", file=sys.stderr)
    return 0


def _load_model(path) -> SimplicialSetModel:
    """The model of a file whose ``hash``, if it carries one, matches the model."""
    with open(path) as fh:
        doc = json.load(fh)
    if not isinstance(doc, dict):
        raise ContractViolation(f"{path}: expected a JSON object, not {doc!r:.20}")
    model = SimplicialSetModel.from_json_dict(doc.get("model", doc))
    if "hash" in doc and doc["hash"] != model.content_hash():
        raise ContractViolation(f"{path}: the model does not match its hash")
    return model


def _model_from_args(args):
    """The model of a model file, or of the spec the arguments give."""
    given = [
        "--" + field.replace("_", "-")
        for field, default in SPEC_DEFAULTS.items()
        if getattr(args, field) != default
    ]
    if args.model is not None:
        if given:
            raise ContractViolation(f"a model file takes no spec arguments: {given}")
        return _load_model(args.model)
    if args.kind is None:
        raise ContractViolation("give a model file or --kind and its spec arguments")
    return build_space(_spec_from_args(args))


def cmd_betti(args) -> int:
    table = _model_from_args(args).betti_table()
    human = "\n".join(f"H^{k}: {d}" for k, d in enumerate(table.dims))
    _emit(args, table.to_json_dict(), human)
    return 0


def cmd_sq(args) -> int:
    model = _model_from_args(args)
    coordinates = square_coordinates(model, args.index, args.degree)
    doc = {
        "degree": args.degree,
        "index": args.index,
        "target_rank": len(model.cohomology_basis(args.degree + args.index)),
        "squares": [
            {"generator": idx, "coordinates": coords}
            for idx, coords in enumerate(coordinates)
        ],
    }
    lines = [
        f"Sq^{args.index} on h{args.degree}[{idx}] -> {coords}"
        for idx, coords in enumerate(coordinates)
    ]
    _emit(args, doc, "\n".join(lines) or "no generators in this degree")
    return 0


def cmd_solve(args) -> int:
    with open(args.template) as fh:
        template = ExactTemplate.from_json_dict(json.load(fh))
    result = solve_template(template)
    if result.consistent:
        lines = []
        for term, (lo, hi) in zip(template.terms, result.dims):
            shown = str(lo) if lo == hi else f"[{lo}, {'inf' if hi is None else hi}]"
            lines.append(f"{term.name}: {shown}")
        human = "\n".join(lines)
    else:
        human = f"inconsistent: {result.certificate}"
    _emit(args, result.to_json_dict(template), human)
    return 0 if result.consistent else 1


def cmd_verify(args) -> int:
    def progress(result):
        print(
            f"[{result.status:>7}] {result.check_id} ({result.wall_time_s:.2f}s)",
            file=sys.stderr,
        )

    # checked before run_verify, so an error raised inside a check is not caught here
    unknown = sorted(set(args.checks) - set(CHECKS))
    if unknown:
        print(f"expk: unknown checks: {unknown}", file=sys.stderr)
        print("available checks:", ", ".join(sorted(CHECKS)), file=sys.stderr)
        return 2
    report = run_verify(
        scope=args.checks or None,
        max_level_size=args.max_level_size,
        cache_dir=args.cache_dir,
        jobs=args.jobs,
        seed=args.seed,
        progress=progress,
    )
    if args.format == "human":  # the human table has no room for the report's warnings
        for warning in report.warnings:
            print(f"expk: warning: {warning}", file=sys.stderr)
    _emit(args, report.to_json_dict(), report.human_table())
    return 0 if report.passed else 1


def cmd_catalog(args) -> int:
    _emit(args, catalog.expected_betti(args.kind, args.n).to_json_dict())
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="expk",
        description="finite models of subset spaces of spheres: homology, "
        "squares, exact-sequence bookkeeping, verification",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    # the arguments subcommands share, each declared once
    out = argparse.ArgumentParser(add_help=False)
    out.add_argument("--out", help="output path (stdout when omitted)")
    formats = argparse.ArgumentParser(add_help=False, parents=[out])
    formats.add_argument("--format", choices=("human", "json"), default="human")
    model = argparse.ArgumentParser(add_help=False, parents=[formats])
    model.add_argument("model", nargs="?", help="model file produced by build")
    _add_spec_arguments(model, required=False)

    def add(name, fn, shared, summary):
        p = sub.add_parser(name, parents=[shared], help=summary)
        p.set_defaults(fn=fn)
        return p

    p = add("build", cmd_build, out, "build a model and write it to a file")
    _add_spec_arguments(p)

    add("betti", cmd_betti, model, "graded dimensions of a model file or a space")

    p = add("sq", cmd_sq, model, "squares of the basis classes of a degree")
    p.add_argument("--degree", type=int, required=True)
    p.add_argument("--index", type=int, required=True)

    p = add("solve", cmd_solve, formats, "solve an exact-sequence template file")
    p.add_argument("template")

    p = add("verify", cmd_verify, formats, "run verification checks")
    p.add_argument("checks", nargs="*", help="check ids (all when omitted)")
    p.add_argument("--cache-dir")
    p.add_argument("--jobs", type=int, default=1)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument(
        "--max-level-size", type=int, default=DEFAULT_MAX_LEVEL_SIZE
    )

    p = add("catalog", cmd_catalog, out, "print an expected table")
    p.add_argument("kind", choices=catalog.KINDS)
    p.add_argument("n", type=int)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (
        CapError, ContractViolation, LevelSizeError, OSError, json.JSONDecodeError
    ) as exc:
        print(f"expk: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
