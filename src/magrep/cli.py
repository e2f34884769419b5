"""Command-line interface.

Subcommands: validate | irreducible | torsion | reduce | kp | probe | catalog.
Inputs are JSON files; an argument of the form ``@entry``, ``@entry/rep`` or
``@entry/action`` pulls the object from the built-in catalog instead.  Exit
codes: 0 success, 1 domain failure (a validation or criterion that fails),
2 malformed input.  Every command but ``validate`` checks its co-rep once,
by ``reduce_corep``'s rule, before any criterion reads it.  ``reduce``,
``kp`` and ``probe`` take ``--seed`` (default 0) and report it; ``kp
--format text`` prints the gamma matrices after its JSON report.
"""

from __future__ import annotations

import argparse
import os
import sys
from functools import partial

import numpy as np

from . import io
from .catalog import catalog_get, catalog_list
from .coreps import _carrying, validate_corep
from .errors import MagrepError, ParseError, UnknownName
from .groups import FactorSystem, validate_cocycle
from .kp import _dispersion_table, build_gamma_matrices, probe_stability
from .reduction import (
    TORSION_TOL,
    _check_input,
    _index_and_coset,
    _torsion,
    irreducibility_index,
    reduce_corep,
)

DEFAULT_SEED = 0
EXIT_OK = 0
EXIT_DOMAIN = 1
EXIT_INPUT = 2


#: what ``@entry/name`` names: its noun in messages and the entry's table
_CATALOG_TABLES = {"rep": ("co-rep", "reps"), "action": ("action", "probe_actions")}


def _resolve(arg: str, kind: str, load_file):
    """The object an input argument names.  ``@entry`` names a catalog group
    and its factor system, when the entry has only one; ``@entry/name`` names
    a co-rep (``kind`` "rep") or a probe action (``kind`` "action") of the
    entry.  Any other argument is a file, read by ``load_file``."""
    if not arg.startswith("@"):
        return load_file(arg)
    parts = arg[1:].split("/")
    if kind == "group":
        if len(parts) != 1:
            raise ParseError(f"catalog group reference must be @entry, got {arg!r}")
        entry = catalog_get(parts[0])
        omegas = list(entry.omega_classes.values())
        return entry.group, omegas[0] if len(omegas) == 1 else None
    noun, table = _CATALOG_TABLES[kind]
    if len(parts) != 2:
        raise ParseError(f"catalog {noun} reference must be @entry/{kind}, got {arg!r}")
    named = getattr(catalog_get(parts[0]), table)
    if parts[1] not in named:
        raise UnknownName(f"entry {parts[0]!r} has {kind}s {sorted(named)}")
    return named[parts[1]]


def _emit(report: dict, args) -> None:
    text = io.write_report(report, out=args.out)
    if not args.out:
        print(text)


def _tol(args, default: float) -> float:
    """The ``--tol`` override, or the command's default when none was given."""
    return default if args.tol is None else args.tol


def _load_rep(args, group, omega):
    """The co-rep argument, read with the group argument's ``group`` and
    ``omega``.  A co-rep file under an ``@entry`` of several factor-system
    classes is refused: the file names none, and the trivial one would be
    taken without a word."""
    if omega is None and args.group.startswith("@") and not args.rep.startswith("@"):
        name = args.group[1:]
        raise ParseError(
            f"{args.group} has factor-system classes {sorted(catalog_get(name).omega_classes)} "
            f"and the co-rep file {args.rep} names none; give the group file exported "
            f"with it (magrep catalog {name} --export DIR writes {name}.group-<rep>.json)")
    return _resolve(args.rep, "rep", partial(io.load_corep, group=group, omega=omega))


def _rep_inputs(args, tol: float):
    """The co-rep argument, checked by ``reduce_corep``'s rule at ``tol``; a
    co-rep checked here carries the residuals measured, so none is checked twice."""
    rep = _load_rep(args, *_resolve(args.group, "group", io.load_group))
    measured = _check_input(rep, tol)
    return rep if measured is None else _carrying(rep, measured)


def cmd_validate(args) -> int:
    group, omega = _resolve(args.group, "group", io.load_group)
    rep = _load_rep(args, group, omega) if args.rep else None
    report = {"group": {"order": group.order, "is_magnetic": group.is_magnetic,
                        "t0": None if group.t0 is None else group.label(group.t0),
                        "passed": True},
              "omega": {"defaulted": omega is None}}
    if omega is None:
        omega = FactorSystem.trivial(group.order)
    cocycle = validate_cocycle(group, omega, tol=_tol(args, 1e-10))
    report["cocycle"] = {"max_violation": cocycle.max_violation,
                         "max_modulus_error": cocycle.max_modulus_error,
                         "tol": cocycle.tol, "passed": cocycle.passed}
    ok = cocycle.passed
    if rep is not None:
        check = validate_corep(rep, tol=_tol(args, 1e-9))
        report["corep"] = {"dim": rep.dim,
                           "unitarity_residual": check.unitarity_residual,
                           "relation_residual": check.relation_residual,
                           "tol": check.tol, "passed": check.passed}
        ok = ok and check.passed
    report["passed"] = ok
    _emit(report, args)
    return EXIT_OK if ok else EXIT_DOMAIN


def cmd_irreducible(args) -> int:
    tol = _tol(args, 1e-8)
    rep = _rep_inputs(args, tol)
    index = irreducibility_index(rep)
    report = {
        "criterion": index,
        "irreducible": bool(abs(index - 1.0) <= tol),
        "tol": tol,
    }
    _emit(report, args)
    return EXIT_OK


def cmd_torsion(args) -> int:
    tol = _tol(args, TORSION_TOL)
    rep = _rep_inputs(args, tol)
    index, coset = _index_and_coset(rep)   # one criterion evaluation
    torsion = _torsion(index, coset, tol)
    _emit({"criterion": index, "tol": tol, "indicator": float(coset.real),
           "torsion": torsion}, args)
    return EXIT_OK


def cmd_reduce(args) -> int:
    tol = _tol(args, 1e-9)
    rep = _rep_inputs(args, tol)
    dec = reduce_corep(rep, seed=args.seed, tol=tol)
    index = irreducibility_index(rep)
    irreducible = bool(abs(index - 1.0) <= tol)
    report = {
        "criterion": index,
        "irreducible": irreducible,
        "torsion": dec.blocks[0].torsion if irreducible else None,
        "dim": rep.dim,
        "basis": dec.basis,
        "label_names": dec.label_names,
        "blocks": [{
            "indices": [b.start, b.stop],
            "dim": b.dim,
            "energy": b.energy,
            "torsion": b.torsion,
            "criterion": b.index,
            "labels": b.labels,
        } for b in dec.blocks],
        "residuals": dec.residuals,
        "seeds_used": dec.seeds_used,
        "tol": tol,
    }
    if report["irreducible"]:
        report["message"] = "already irreducible"
    _emit(report, args)
    return EXIT_OK


def _matrix_text(m: np.ndarray) -> list:
    return ["  ".join(f"{z.real:+.4f}{z.imag:+.4f}j" for z in row) for row in m]


def cmd_kp(args) -> int:
    if args.max_order < 1:
        raise ParseError("--max-order must be at least 1")
    tol = _tol(args, 1e-9)
    rep = _rep_inputs(args, tol)
    action = _resolve(args.action, "action", partial(io.load_action, group=rep.group))
    table, sets = _dispersion_table(rep, action, args.max_order, args.seed)
    report = {"dispersion": table, "models": [], "seed": args.seed, "tol": tol}
    for entry, chans in zip(table["orders"], sets):
        if entry["full"]["multiplicity"] <= 0:
            continue
        for k, ch in enumerate(chans.channels):
            if entry["channels"][k]["multiplicity"] <= 0:
                continue
            model = build_gamma_matrices(rep, ch.action, tol=tol)
            report["models"].append({
                "order": entry["order"],
                "channel": k,
                "channel_dim": ch.action.dim_q,
                "multiplicity": model.multiplicity,
                "gammas": model.gammas,
                "residuals": model.residuals,
            })
        break  # leading order only; the table already covers the rest
    _emit(report, args)
    if args.format == "text" and args.out:
        print(f"report written to {args.out}")
    elif args.format == "text":
        for model in report["models"]:
            print(f"# order {model['order']} channel {model['channel']} "
                  f"multiplicity {model['multiplicity']}")
            gam = model["gammas"]
            for i in range(gam.shape[0]):
                for m in range(gam.shape[1]):
                    print(f"gamma[{i}][{m}]:")
                    for line in _matrix_text(gam[i, m]):
                        print("   ", line)
    return EXIT_OK


def cmd_probe(args) -> int:
    try:
        ids = [int(tok) for tok in args.subgroup.split(",") if tok != ""]
    except ValueError:
        raise ParseError("--subgroup must be a comma-separated id list") from None
    tol = _tol(args, 1e-8)
    rep = _rep_inputs(args, tol)
    probes = {}
    for probe_arg in args.probe or []:
        if "=" not in probe_arg:
            raise ParseError("--probe takes NAME=ACTION")
        name, ref = probe_arg.split("=", 1)
        probes[name] = _resolve(ref, "action", partial(io.load_action, group=rep.group))
    report = probe_stability(rep, ids, probes=probes, seed=args.seed, tol=tol)
    _emit(report, args)
    return EXIT_OK


def cmd_catalog(args) -> int:
    if not args.name:
        report = {"entries": {}}
        for name in catalog_list():
            entry = catalog_get(name)
            report["entries"][name] = {
                "order": entry.group.order,
                "is_magnetic": entry.group.is_magnetic,
                "reps": sorted(entry.reps),
                "probe_actions": sorted(entry.probe_actions),
            }
        _emit(report, args)
        return EXIT_OK
    entry = catalog_get(args.name)
    if args.export:
        os.makedirs(args.export, exist_ok=True)
        files = []
        for rep_name, rep in entry.reps.items():
            files += [(f"group-{rep_name}", io.group_to_dict(entry.group, rep.omega)),
                      (f"rep-{rep_name}", io.corep_to_dict(rep))]
        files += [(f"action-{name}", io.action_to_dict(act))
                  for name, act in entry.probe_actions.items()]
        written = []
        for kind, data in files:
            path = os.path.join(args.export, f"{args.name}.{kind}.json")
            with open(path, "w") as fh:
                fh.write(io.write_report(data))
            written.append(path)
        _emit({"exported": written}, args)
        return EXIT_OK
    report = {
        "name": entry.name,
        "order": entry.group.order,
        "labels": list(entry.group.labels),
        "is_magnetic": entry.group.is_magnetic,
        "t0": None if entry.group.t0 is None else entry.group.label(entry.group.t0),
        "reps": {name: {"dim": rep.dim, "omega_class": entry.rep_omega[name]}
                 for name, rep in entry.reps.items()},
        "probe_actions": {name: {"dim": act.dim_q, "kind": act.kind}
                          for name, act in entry.probe_actions.items()},
    }
    _emit(report, args)
    return EXIT_OK


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="magrep",
        description="Irreducibility, reduction and k.p models for co-reps of "
                    "magnetic groups.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, rep=True, action=False, seed=False):
        p.add_argument("group", help="group JSON file or @catalog_entry")
        if rep:
            p.add_argument("rep", help="co-rep JSON file or @entry/rep")
        if action:
            p.add_argument("action", help="action JSON file or @entry/action")
        if seed:
            p.add_argument("--seed", type=int, default=DEFAULT_SEED,
                           help="PRNG seed for randomized steps (default 0)")
        p.add_argument("--tol", type=float, default=None,
                       help="override the default tolerance of the command")
        p.add_argument("--out", default=None, help="write the JSON report here")

    p = sub.add_parser("validate", help="structural validation of group/cocycle/co-rep")
    common(p, rep=False)
    p.add_argument("rep", nargs="?", default=None, help="optional co-rep file")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("irreducible", help="evaluate the irreducibility criterion")
    common(p)
    p.set_defaults(func=cmd_irreducible)

    p = sub.add_parser("torsion", help="torsion number of an irreducible co-rep")
    common(p)
    p.set_defaults(func=cmd_torsion)

    p = sub.add_parser("reduce", help="reduce a co-rep into irreducible blocks")
    common(p, seed=True)
    p.set_defaults(func=cmd_reduce)

    p = sub.add_parser("kp", help="dispersion orders and coupling matrices")
    common(p, action=True, seed=True)
    p.add_argument("--max-order", type=int, default=2)
    p.add_argument("--format", choices=("json", "text"), default="json",
                   help="text also prints every gamma matrix row by row")
    p.set_defaults(func=cmd_kp)

    p = sub.add_parser("probe", help="stability against a symmetry-lowering probe")
    common(p, seed=True)
    p.add_argument("--subgroup", required=True,
                   help="comma-separated ids of the surviving elements")
    p.add_argument("--probe", action="append", default=None, metavar="NAME=ACTION",
                   help="probe channel to test for linear coupling (repeatable)")
    p.set_defaults(func=cmd_probe)

    p = sub.add_parser("catalog", help="list or export built-in fixtures")
    p.add_argument("name", nargs="?", default=None)
    p.add_argument("--export", default=None, help="write the entry's JSON files here")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_catalog)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "tol", None) is not None and not args.tol >= 0.0:   # rejects nan too
        parser.error(f"argument --tol: tolerance must be >= 0, got {args.tol}")
    try:
        return args.func(args)
    except (ParseError, UnknownName) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_INPUT
    except MagrepError as err:
        print(f"error: {type(err).__name__}: {err}", file=sys.stderr)
        return EXIT_DOMAIN


if __name__ == "__main__":
    sys.exit(main())
