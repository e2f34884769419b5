"""JSON file formats for groups, co-reps, probe actions and reports.

Each ``load_*`` reader takes a file path or the object parsed from one.  A
co-rep file holds its ``dim`` and one matrix per element label, nothing
else: its group and factor system come from the group file read with it.
An action file holds one real matrix per unitary element label, plus ``t0``
on a magnetic group.  Both tables go through one reader, ``_element_matrices``.
Complex numbers serialize as [re, im] pairs and matrices row-major, so every
file parses without a schema library.  Reports carry the tolerance next to
each judged value.  ``write_report`` writes every file and report in one
layout: a dict, and a list that holds a dict, open with one entry per line;
every other value, a whole matrix or array included, is one line.  So files
and reports still diff line by line: one line per element matrix in co-rep
and action files, and one line per dict entry in reports.  ``_jsonable``
converts what ``json`` cannot, numpy values and complex numbers.  Keys and
scalar leaves are written directly, in ``json``'s spelling.

Non-finite numbers: a complex one in a report becomes ``null``, because
``Block.labels`` marks "no label" with a complex NaN (the ``multiplet_split``
column of ``magrep reduce``).  A real one raises ``ValueError``, in a report
or in a file written from ``*_to_dict``.  The readers raise ``ParseError`` on
any: JSON parses NaN and Infinity, which no linear algebra downstream survives.
"""

from __future__ import annotations

import json
import math
from functools import reduce
from json.encoder import encode_basestring_ascii
from typing import Optional, Union

import numpy as np

from .coreps import CoRep
from .errors import ParseError
from .groups import FactorSystem, MagneticGroup, build_group
from .kp import ProbeRepAction, validate_action


# -- primitive (de)serializers ----------------------------------------------------

def _pairs(z: np.ndarray) -> list:
    """A complex array as nested [re, im] pairs, in one conversion."""
    return np.stack((z.real, z.imag), -1).tolist()

def _finite(out: np.ndarray, what: str) -> np.ndarray:
    if not np.isfinite(out).all():
        raise ParseError(f"{what} has non-finite entries")
    return out

def pairs_to_matrix(rows, what: str = "matrix") -> np.ndarray:
    try:
        pairs = np.asarray(rows)
    except (TypeError, ValueError) as err:   # ragged rows, for one
        raise ParseError(f"malformed complex {what}: {err}") from None
    # kind "biuf" keeps out the strings and None that numpy would take
    if pairs.dtype.kind not in "biuf" or pairs.ndim != 3 or pairs.shape[2] != 2:
        raise ParseError(f"malformed complex {what}: need rows of [re, im] pairs")
    out = np.asarray(pairs, dtype=float).view(complex)[..., 0]
    return _finite(out, f"complex {what}")

def real_matrix(rows, what: str = "matrix") -> np.ndarray:
    try:
        out = np.array(rows, dtype=float)
    except (TypeError, ValueError) as err:
        raise ParseError(f"malformed real {what}: {err}") from None
    if out.ndim != 2:
        raise ParseError(f"{what} must be a matrix")
    return _finite(out, f"real {what}")


def _integers(values, what: str, ndim=None) -> np.ndarray:
    """``values`` as an int array of ``ndim`` dimensions (any when None); raises
    ParseError on a fractional id or dim, which ``int`` would truncate."""
    try:
        arr = np.asarray(values)
        if ndim in (None, arr.ndim) and (np.isfinite(arr) & (arr == np.round(arr))).all():
            return arr.astype(int)
    except (TypeError, ValueError):   # strings, nulls or ragged rows
        pass
    raise ParseError(f"{what} must be {'an integer' if ndim == 0 else 'integers'}")


def _labels(group: MagneticGroup, ids) -> list:
    """The labels of ``ids``: the keys of a co-rep or action file's ``matrices``."""
    return [group.labels[g] for g in ids]


def _element_matrices(data: dict, group: MagneticGroup, ids, read, what: str) -> np.ndarray:
    """The ``matrices`` object (element label -> matrix) of a co-rep or
    action file as one ``(len(ids), d, d)`` array in the order of ``ids``,
    each matrix parsed by ``read``.  ``d`` is the file's ``dim``, else the
    first matrix's size.  Every element of ``ids`` needs a matrix, and no
    other element may have one."""
    raw = data.get("matrices")
    if not isinstance(raw, dict):
        raise ParseError(f"{what} file needs 'matrices', an object from element labels to matrices")
    d = int(_integers(data.get("dim") or 0, "'dim'", 0))
    position = {lab: k for k, lab in enumerate(_labels(group, ids))}
    mats = [None] * len(position)
    for lab, rows in raw.items():
        if lab not in position:
            if lab in group.labels:
                raise ParseError(f"{what} files list the unitary elements only, got {lab!r}")
            raise ParseError(f"{what} matrix given for unknown element label {lab!r}")
        m = read(rows, what=f"{what} matrix of {lab}")
        d = d or m.shape[0]
        if m.shape != (d, d):
            raise ParseError(f"{what} matrix of {lab} is not {d} x {d}")
        mats[position[lab]] = m
    if len(raw) != len(mats):
        raise ParseError(f"{what} file gives {len(raw)} of its {len(mats)} element matrices")
    return np.stack(mats)


def _load_json(path: str) -> dict:
    try:
        with open(path) as fh:
            data = json.load(fh)
    except OSError as err:
        raise ParseError(f"cannot read {path}: {err}") from None
    except json.JSONDecodeError as err:
        raise ParseError(f"{path} is not valid JSON: {err}") from None
    if not isinstance(data, dict):
        raise ParseError(f"{path}: top level must be an object")
    return data


# -- groups -------------------------------------------------------------------------

def load_group(source: Union[str, dict]) -> tuple[MagneticGroup, Optional[FactorSystem]]:
    """The group and its factor system, None when the file gives none."""
    data = _load_json(source) if isinstance(source, str) else source
    for key in ("order", "cayley", "antiunitary"):
        if key not in data:
            raise ParseError(f"group file misses required key {key!r}")
    n = int(_integers(data["order"], "order", 0))
    cayley = data["cayley"]
    if not isinstance(cayley, list) or len(cayley) != n:
        raise ParseError("cayley table size disagrees with the declared order")
    try:
        for ids in (cayley, data["antiunitary"]):
            _integers(ids, "Cayley entries and flags")
        group = build_group(cayley, data["antiunitary"], labels=data.get("labels"))
    except (TypeError, ValueError) as err:   # ids that are no integers, for one
        raise ParseError(f"malformed group: {err}") from None
    omega = None
    if data.get("omega") is not None:
        values = pairs_to_matrix(data["omega"], what="factor system")
        if values.shape != (n, n):
            raise ParseError("factor system shape disagrees with the group order")
        omega = FactorSystem(values)
    return group, omega


def group_to_dict(group: MagneticGroup, omega: Optional[FactorSystem] = None) -> dict:
    data = {
        "order": group.order,
        "labels": list(group.labels),
        "cayley": group.cayley.tolist(),
        "antiunitary": group.antiunitary.tolist(),
    }
    if omega is not None:
        data["omega"] = _pairs(omega.values)
    return data


# -- co-reps ------------------------------------------------------------------------

def load_corep(source: Union[str, dict], group: MagneticGroup,
               omega: Optional[FactorSystem] = None) -> CoRep:
    """The co-rep of ``group`` under ``omega``, the trivial factor system
    when None.  A ``"group"`` key, which older files carry, is ignored."""
    data = _load_json(source) if isinstance(source, str) else source
    if omega is None:
        omega = FactorSystem.trivial(group.order)
    mats = _element_matrices(data, group, range(group.order), pairs_to_matrix, "co-rep")
    return CoRep(group=group, omega=omega, matrices=mats)


def corep_to_dict(rep: CoRep) -> dict:
    labels = _labels(rep.group, range(rep.group.order))
    return {"dim": rep.dim, "matrices": dict(zip(labels, _pairs(rep.matrices)))}


# -- probe actions --------------------------------------------------------------------

def load_action(source: Union[str, dict], group: MagneticGroup) -> ProbeRepAction:
    """The probe action on ``group``, validated as a rep."""
    data = _load_json(source) if isinstance(source, str) else source
    d_h = _element_matrices(data, group, group.h_elements, real_matrix, "action")
    d_t0 = None
    if group.is_magnetic:
        if "t0" not in data:
            raise ParseError("magnetic group action needs the 't0' matrix")
        d_t0 = real_matrix(data["t0"], what="t0 action")
    action = ProbeRepAction(group=group, d_h=d_h, d_t0=d_t0,
                            kind=str(data.get("kind", "momentum")))
    validate_action(action)
    return action


def action_to_dict(action: ProbeRepAction) -> dict:
    g = action.group
    data = {
        "dim": action.dim_q,
        "kind": action.kind,
        "matrices": dict(zip(_labels(g, g.h_elements), action.d_h.tolist())),
    }
    if action.d_t0 is not None:
        data["t0"] = action.d_t0.tolist()
    return data


# -- reports ---------------------------------------------------------------------------

def _jsonable(obj):
    """``json``'s fallback for what it cannot encode: numpy arrays and scalars
    and complex numbers, whose non-finite entries become None; anything else
    as its ``str``."""
    if isinstance(obj, (np.ndarray, np.generic, complex)):
        if not np.iscomplexobj(obj):
            return obj.tolist()
        z = np.asarray(obj)
        pairs = _pairs(z)
        bad = ~np.isfinite(z)
        if z.ndim == 0:
            return None if bad else pairs
        for *path, last in np.argwhere(bad).tolist():
            reduce(list.__getitem__, path, pairs)[last] = None
        return pairs
    return str(obj)


# one encoder for every leaf but a scalar: ``json.dumps(default=...)`` builds
# a new one per call, and only an encoder without ``indent`` takes ``json``'s
# C path
_LEAF = json.JSONEncoder(default=_jsonable, allow_nan=False, sort_keys=True)


def _leaf(value) -> str:
    """``value`` on one line, as ``_LEAF`` writes it: a str, int, bool, None
    or finite float directly, in ``json``'s spelling, anything else through
    ``_LEAF``, which refuses a non-finite real."""
    if isinstance(value, str):
        return encode_basestring_ascii(value)
    if value is None or value is True or value is False:
        return "null" if value is None else "true" if value else "false"
    if type(value) is int or type(value) is float and math.isfinite(value):
        return repr(value)
    return _LEAF.encode(value)


def _key(key) -> str:
    """``key`` quoted as ``json`` writes a dict key: a float, int, bool or None
    as its JSON literal."""
    if not isinstance(key, str):
        if key is not None and not isinstance(key, (int, float)):
            raise TypeError(f"keys must be str, int, float, bool or None, "
                            f"not {type(key).__name__}")
        key = _leaf(key)
    return encode_basestring_ascii(key)


def _render(value, pad: str) -> str:
    """``value`` as JSON: a non-empty dict, and a list or tuple holding a
    dict, one entry per line at ``pad`` plus two spaces; any other value on
    one line."""
    inner = pad + "  "
    if isinstance(value, dict) and value:
        body = ",\n".join(f"{inner}{_key(k)}: {_render(v, inner)}"
                          for k, v in sorted(value.items()))
        return f"{{\n{body}\n{pad}}}"
    if isinstance(value, (list, tuple)) and any(isinstance(v, dict) for v in value):
        body = ",\n".join(inner + _render(v, inner) for v in value)
        return f"[\n{body}\n{pad}]"
    return _leaf(value)


def write_report(report: dict, out: Optional[str] = None) -> str:
    text = _render(report, "")
    if out:
        with open(out, "w") as fh:
            fh.write(text + "\n")
    return text
