"""Command-line interface.

Subcommands: validate | irreducible | torsion | reduce | kp | probe | catalog.
Inputs are JSON files; an argument of the form ``@entry``, ``@entry/rep`` or
``@entry/action`` pulls the object from the built-in catalog instead.  Exit
codes: 0 success, 1 domain failure (a validation or criterion that fails),
2 malformed input.  All randomized commands take ``--seed`` and echo it in
the report; the default seed is 0.
"""

from __future__ import annotations

import argparse
import os
import sys

import numpy as np

from . import io
from .catalog import catalog_get, catalog_list
from .coreps import validate_corep
from .errors import EmptyChannel, MagrepError, ParseError, UnknownName
from .groups import FactorSystem, validate_cocycle
from .kp import (
    build_gamma_matrices,
    dispersion_order,
    linear_multiplicity,
    polynomial_channel,
    probe_stability,
    trivial_multiplicity,
)
from .reduction import (
    TORSION_TOL,
    irreducibility_index,
    reduce_corep,
    torsion_indicator,
    torsion_number,
)

DEFAULT_SEED = 0
EXIT_OK = 0
EXIT_DOMAIN = 1
EXIT_INPUT = 2


def _load_group_arg(arg: str):
    if arg.startswith("@"):
        entry = catalog_get(arg[1:].split("/")[0])
        omega = None
        if len(entry.omega_classes) == 1:
            omega = next(iter(entry.omega_classes.values()))
        return entry.group, omega
    return io.load_group(arg)


def _load_corep_arg(arg: str, group=None, omega=None):
    if arg.startswith("@"):
        parts = arg[1:].split("/")
        if len(parts) != 2:
            raise ParseError(f"catalog co-rep reference must be @entry/rep, got {arg!r}")
        entry = catalog_get(parts[0])
        if parts[1] not in entry.reps:
            raise UnknownName(f"entry {parts[0]!r} has reps {sorted(entry.reps)}")
        return entry.reps[parts[1]]
    return io.load_corep(arg, group=group, omega=omega)


def _load_action_arg(arg: str, group):
    if arg.startswith("@"):
        parts = arg[1:].split("/")
        if len(parts) != 2:
            raise ParseError(f"catalog action reference must be @entry/action, got {arg!r}")
        entry = catalog_get(parts[0])
        if parts[1] not in entry.probe_actions:
            raise UnknownName(
                f"entry {parts[0]!r} has actions {sorted(entry.probe_actions)}")
        return entry.probe_actions[parts[1]]
    return io.load_action(arg, group)


def _emit(report: dict, args) -> None:
    text = io.write_report(report, out=args.out)
    if not args.out:
        print(text)
    elif args.format == "text":
        print(f"report written to {args.out}")


def _tol(args, default: float) -> float:
    """The ``--tol`` override, or the command's default when none was given."""
    return default if args.tol is None else args.tol


def _rep_inputs(args):
    group, omega = _load_group_arg(args.group)
    rep = _load_corep_arg(args.rep, group=group, omega=omega)
    return rep


def cmd_validate(args) -> int:
    group, omega = _load_group_arg(args.group)
    report = {"group": {"order": group.order, "is_magnetic": group.is_magnetic,
                        "t0": None if group.t0 is None else group.label(group.t0),
                        "passed": True}}
    ok = True
    if omega is None:
        omega = FactorSystem.trivial(group.order)
        report["omega"] = {"defaulted": True}
    else:
        report["omega"] = {"defaulted": False}
    cocycle = validate_cocycle(group, omega, tol=_tol(args, 1e-10))
    report["cocycle"] = {"max_violation": cocycle.max_violation,
                         "max_modulus_error": cocycle.max_modulus_error,
                         "tol": cocycle.tol, "passed": cocycle.passed}
    ok = ok and cocycle.passed
    if args.rep:
        rep = _load_corep_arg(args.rep, group=group, omega=omega)
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
    rep = _rep_inputs(args)
    tol = _tol(args, 1e-8)
    index = irreducibility_index(rep)
    report = {
        "criterion": index,
        "irreducible": bool(abs(index - 1.0) <= tol),
        "tol": tol,
    }
    _emit(report, args)
    return EXIT_OK


def cmd_torsion(args) -> int:
    rep = _rep_inputs(args)
    tol = _tol(args, TORSION_TOL)
    report = {"criterion": irreducibility_index(rep), "tol": tol}
    r = torsion_number(rep, tol=tol)
    report["indicator"] = torsion_indicator(rep)
    report["torsion"] = r
    _emit(report, args)
    return EXIT_OK


def cmd_reduce(args) -> int:
    rep = _rep_inputs(args)
    tol = _tol(args, 1e-9)
    dec = reduce_corep(rep, seed=args.seed, tol=tol)
    index = irreducibility_index(rep)
    irreducible = bool(abs(index - 1.0) <= max(tol * 10, 1e-8))
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
    group, omega = _load_group_arg(args.group)
    rep = _load_corep_arg(args.rep, group=group, omega=omega)
    action = _load_action_arg(args.action, rep.group)
    if args.max_order < 1:
        raise ParseError("--max-order must be at least 1")
    if action.dim_q != 3:
        # non-momentum channel: only the linear coupling is defined
        mult = linear_multiplicity(rep, action)
        report = {"channel_dim": action.dim_q, "kind": action.kind,
                  "multiplicity": mult,
                  "trivial_multiplicity": trivial_multiplicity(action),
                  "seed": args.seed}
        if mult > 0:
            model = build_gamma_matrices(rep, action,
                                         tol=_tol(args, 1e-9))
            report["gammas"] = model.gammas
            report["residuals"] = model.residuals
        _emit(report, args)
        return EXIT_OK
    table = dispersion_order(rep, action, args.max_order, seed=args.seed)
    report = {"dispersion": table, "models": [], "seed": args.seed}
    for entry in table["orders"]:
        n = entry["order"]
        if entry["full"]["multiplicity"] <= 0:
            continue
        chans = polynomial_channel(action, n, seed=args.seed)
        for k, ch in enumerate(chans.channels):
            if entry["channels"][k]["multiplicity"] <= 0:
                continue
            model = build_gamma_matrices(rep, ch.action,
                                         tol=_tol(args, 1e-9))
            report["models"].append({
                "order": n,
                "channel": k,
                "channel_dim": ch.action.dim_q,
                "multiplicity": model.multiplicity,
                "gammas": model.gammas,
                "residuals": model.residuals,
            })
        break  # leading order only; the table already covers the rest
    _emit(report, args)
    if args.format == "text" and not args.out:
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
    group, omega = _load_group_arg(args.group)
    rep = _load_corep_arg(args.rep, group=group, omega=omega)
    try:
        ids = [int(tok) for tok in args.subgroup.split(",") if tok != ""]
    except ValueError:
        raise ParseError("--subgroup must be a comma-separated id list") from None
    probes = {}
    for probe_arg in args.probe or []:
        if "=" not in probe_arg:
            raise ParseError("--probe takes NAME=ACTION")
        name, ref = probe_arg.split("=", 1)
        probes[name] = _load_action_arg(ref, rep.group)
    report = probe_stability(rep, ids, probes=probes, seed=args.seed,
                             tol=_tol(args, 1e-8))
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
        written = []
        for rep_name, rep in entry.reps.items():
            path = os.path.join(args.export, f"{args.name}.group-{rep_name}.json")
            with open(path, "w") as fh:
                fh.write(io.write_report(io.group_to_dict(entry.group, rep.omega)))
            written.append(path)
            path = os.path.join(args.export, f"{args.name}.rep-{rep_name}.json")
            with open(path, "w") as fh:
                fh.write(io.write_report(io.corep_to_dict(rep, inline_group=False)))
            written.append(path)
        for act_name, act in entry.probe_actions.items():
            path = os.path.join(args.export, f"{args.name}.action-{act_name}.json")
            with open(path, "w") as fh:
                fh.write(io.write_report(io.action_to_dict(act)))
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

    def common(p, rep=True, action=False):
        p.add_argument("group", help="group JSON file or @catalog_entry")
        if rep:
            p.add_argument("rep", help="co-rep JSON file or @entry/rep")
        if action:
            p.add_argument("action", help="action JSON file or @entry/action")
        p.add_argument("--seed", type=int, default=DEFAULT_SEED,
                       help="PRNG seed for randomized steps (default 0)")
        p.add_argument("--tol", type=float, default=None,
                       help="override the default tolerance of the command")
        p.add_argument("--out", default=None, help="write the JSON report here")
        p.add_argument("--format", choices=("json", "text"), default="json")

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
    common(p)
    p.set_defaults(func=cmd_reduce)

    p = sub.add_parser("kp", help="dispersion orders and coupling matrices")
    common(p, action=True)
    p.add_argument("--max-order", type=int, default=2)
    p.set_defaults(func=cmd_kp)

    p = sub.add_parser("probe", help="stability against a symmetry-lowering probe")
    common(p)
    p.add_argument("--subgroup", required=True,
                   help="comma-separated ids of the surviving elements")
    p.add_argument("--probe", action="append", default=None, metavar="NAME=ACTION",
                   help="probe channel to test for linear coupling (repeatable)")
    p.set_defaults(func=cmd_probe)

    p = sub.add_parser("catalog", help="list or export built-in fixtures")
    p.add_argument("name", nargs="?", default=None)
    p.add_argument("--export", default=None, help="write the entry's JSON files here")
    p.add_argument("--out", default=None)
    p.add_argument("--format", choices=("json", "text"), default="json")
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
    except EmptyChannel as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_DOMAIN
    except MagrepError as err:
        print(f"error: {type(err).__name__}: {err}", file=sys.stderr)
        return EXIT_DOMAIN


if __name__ == "__main__":
    sys.exit(main())
