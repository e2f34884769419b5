"""The benchmark workloads and the correctness checks that feed ``failed``.

Each workload has three stages:

* ``prepare`` (untimed): generate the raw inputs and the expected answers.
  Expected answers come from the construction (summand dims and torsions,
  parity selection rules) and from an independent commutant null space
  computed here with numpy, never from recorded program output.
* ``setup`` (timed as ``setup_s``, repeated): build and validate every input
  through the public API, as a user loading files would.
* ``run_pass`` (timed as ``total_s`` and per question): derive fresh basis
  changes and gauges from (seed, pass index) and ask the questions.  The
  answers are invariant under those changes, so the checks still apply, and
  no result cache can show a false gain.
"""

from __future__ import annotations

import numpy as np

import ohtgen
from harness import Session, check
from magrep import catalog, coreps, groups, kp, linalg, reduction

INDEX_TOL = 1e-8      # criterion / restricted index against an exact integer
RESID_TOL = 1e-7      # KpModel residuals, span residuals, block diagonality
N_MAX = 3             # dispersion order searched by the CLI-style kp query


# -- independent oracle -----------------------------------------------------------

def commutant_dim(mats: np.ndarray, flags) -> int:
    """Real dimension of {X : M(g) X^[s(g)] = X M(g) for all g}.

    For an irreducible co-rep this is its torsion type R in {1, 2, 4}; for a
    unitary irreducible representation it is 2 (the commutant is C).  Solved
    as a real null space over (Re X, Im X), independent of magrep.
    """
    mats = np.asarray(mats, dtype=complex)
    n, d, _ = mats.shape
    eye = np.eye(d)
    left = np.einsum("gij,kl->gikjl", mats, eye).reshape(n, d * d, d * d)
    right = np.einsum("ij,glk->gikjl", eye, mats).reshape(n, d * d, d * d)
    anti = np.asarray(flags, dtype=bool)[:, None, None]
    a = np.where(anti, -right, left - right)      # acts on vec(X)
    b = np.where(anti, left, 0.0)                  # acts on vec(conj X)
    plus, minus = a + b, a - b
    system = np.concatenate([
        np.concatenate([plus.real, -minus.imag], axis=2),
        np.concatenate([plus.imag, minus.real], axis=2),
    ], axis=1).reshape(-1, 2 * d * d)
    s = np.linalg.svd(system, compute_uv=False)
    return int((s <= 1e-8 * max(1.0, s[0])).sum())


def block_weight(torsion) -> int:
    """Commutant dimension contributed by one irreducible block."""
    return 2 if torsion is None else torsion


# -- questions ----------------------------------------------------------------------

def transform(s: Session, rep, rng):
    """Fresh basis change and gauge; every answer is invariant under both."""
    u = s.call("linalg.random_unitary", linalg.random_unitary, rep.dim, rng)
    rotated = s.call("coreps.conjugate_corep", coreps.conjugate_corep, rep, u)
    return s.call("coreps.random_gauge", coreps.random_gauge, rotated,
                  int(rng.integers(2**31)))


def _check_residuals(residuals: dict, where: str) -> None:
    for key, value in residuals.items():
        check(value <= RESID_TOL, f"{where}: residual {key} = {value:.3e}")


def ask_classify(s: Session, label: str, rep, torsion: int) -> None:
    with s.task("classify", label):
        valid = s.call("coreps.validate_corep", coreps.validate_corep, rep)
        index = s.call("reduction.irreducibility_index",
                       reduction.irreducibility_index, rep)
        r = s.call("reduction.torsion_number", reduction.torsion_number, rep)
        s.render({"passed": valid.passed,
                  "unitarity_residual": valid.unitarity_residual,
                  "relation_residual": valid.relation_residual,
                  "criterion": index, "irreducible": abs(index - 1.0) <= INDEX_TOL,
                  "torsion": r, "tol": valid.tol})
        check(valid.passed, f"validate_corep failed: {valid}")
        check(abs(index - 1.0) <= INDEX_TOL, f"criterion {index}, expected 1")
        check(r == torsion, f"torsion {r}, expected {torsion}")


def _reduce_report(dec, dim: int) -> dict:
    return {
        "dim": dim,
        "basis": dec.basis,
        "label_names": dec.label_names,
        "blocks": [{"indices": [b.start, b.stop], "dim": b.dim, "energy": b.energy,
                    "torsion": b.torsion, "criterion": b.index, "labels": b.labels}
                   for b in dec.blocks],
        "residuals": dec.residuals,
        "seeds_used": dec.seeds_used,
    }


def _reduce(s: Session, rep, seed: int):
    dec = s.call("reduction.reduce_corep", reduction.reduce_corep, rep, seed=seed)
    s.count("reduction.reduce_corep.seeds", len(dec.seeds_used))
    return dec


def ask_reduce(s: Session, label: str, rep, dims: list, torsions: list,
               seed: int) -> None:
    """Reduce a mixed direct sum; dims and torsions come from its summands."""
    with s.task("reduce", label):
        dec = _reduce(s, rep, seed)
        s.render(_reduce_report(dec, rep.dim))
        check(sorted(dec.block_dims) == sorted(dims),
              f"block dims {dec.block_dims}, expected {sorted(dims)}")
        got = sorted(block_weight(b.torsion) for b in dec.blocks)
        check(got == sorted(torsions), f"torsions {got}, expected {sorted(torsions)}")
        check(dec.residuals["block_diagonality"] <= RESID_TOL,
              f"block diagonality {dec.residuals['block_diagonality']:.3e}")


def ask_kp(s: Session, label: str, rep, action, seed: int,
           leading=None) -> list:
    """The CLI ``kp`` traffic for one channel.

    Momentum probes get the dispersion table (orders 1..N_MAX) and models for
    the leading order's coupled channels; field probes get the linear
    multiplicity and, when it is positive, the model.  Returns the
    (action, multiplicity, model or None) answers the oracle can check.
    """
    answers = []
    with s.task("kp", label):
        if action.kind != "momentum":
            mult = s.call("kp.linear_multiplicity", kp.linear_multiplicity, rep, action)
            report = {"channel_dim": action.dim_q, "kind": action.kind,
                      "multiplicity": mult, "seed": seed}
            model = None
            if mult > 0:
                model = s.call("kp.build_gamma_matrices", kp.build_gamma_matrices,
                               rep, action)
                report["gammas"] = model.gammas
                report["residuals"] = model.residuals
            s.render(report)
            answers.append((action, mult, model))
            if model is not None:
                _check_residuals(model.residuals, f"{label} gammas")
            return answers

        table = s.call("kp.dispersion_order", kp.dispersion_order, rep, action,
                       N_MAX, seed=seed)
        report = {"dispersion": table, "models": [], "seed": seed}
        lead = table["leading_order"]
        built = []
        if lead is not None:
            chans = s.call("kp.polynomial_channel", kp.polynomial_channel,
                           action, lead, seed=seed)
            for k, ch in enumerate(chans.channels):
                mult = table["orders"][lead - 1]["channels"][k]["multiplicity"]
                if mult <= 0:
                    continue
                model = s.call("kp.build_gamma_matrices", kp.build_gamma_matrices,
                               rep, ch.action)
                built.append((ch.action, mult, model))
                report["models"].append({
                    "order": lead, "channel": k, "channel_dim": ch.action.dim_q,
                    "multiplicity": model.multiplicity, "gammas": model.gammas,
                    "residuals": model.residuals})
        s.render(report)
        answers.append((action, table["orders"][0]["full"]["multiplicity"], None))
        answers.extend(built)
        check(lead is not None and lead <= 2,
              f"leading order {lead}; k^2 always couples, so it is at most 2")
        if leading is not None:
            check(lead == leading, f"leading order {lead}, expected {leading}")
        for ch_action, mult, model in built:
            check(model.multiplicity == mult,
                  f"channel model has {model.multiplicity} tuples, table says {mult}")
            _check_residuals(model.residuals, f"{label} channel gammas")
    return answers


def ask_oracle(s: Session, label: str, rep, answers: list, max_q: int = 3) -> None:
    """Null-space oracle against the multiplicities (and spans) of kp answers
    whose channel dimension is at most ``max_q``."""
    for action, mult, model in answers:
        if action.dim_q > max_q:
            continue
        # labelled by channel dimension: the order of the channels varies
        # from pass to pass, their dimensions do not
        with s.task("oracle", f"{label}#q{action.dim_q}"):
            q, d = action.dim_q, rep.dim
            rows = 2 * (len(rep.group.h_elements) + rep.group.is_magnetic) * q * d * d
            s.count("kp.covariant_tuple_basis.rows", rows)
            s.count("kp.covariant_tuple_basis.cols", q * d * d)
            s.count("kp.covariant_tuple_basis.u_bytes_computed", 8 * rows * rows)
            basis = s.call("kp.covariant_tuple_basis", kp.covariant_tuple_basis,
                           rep, action)
            check(basis.shape[0] == mult,
                  f"multiplicity {mult}, oracle null space {basis.shape[0]}")
            if model is not None:
                res = s.call("kp.tuple_span_residual", kp.tuple_span_residual,
                             model.gammas, basis)
                check(res <= RESID_TOL, f"span residual {res:.3e}")


def ask_stability(s: Session, label: str, rep, ids, probes: dict, seed: int,
                  expect: dict) -> None:
    """probe_stability plus the split of the restricted co-rep.

    ``expect`` holds ``commutant`` (the oracle dimension of the restricted
    co-rep) and optionally the exact ``index`` and ``dims``.
    """
    with s.task("stability", label):
        report = s.call("kp.probe_stability", kp.probe_stability, rep, ids,
                        probes=probes, seed=seed)
        sub, _ = s.call("coreps.restrict_corep", coreps.restrict_corep, rep, ids)
        dec = _reduce(s, sub, seed)
        report["split"] = {"block_dims": dec.block_dims,
                           "torsions": [b.torsion for b in dec.blocks]}
        s.render(report)
        for name, entry in report["probes"].items():
            if "residuals" in entry:
                _check_residuals(entry["residuals"], f"probe {name}")
        check(sum(dec.block_dims) == rep.dim, f"blocks {dec.block_dims} miss dims")
        check(report["protected"] == (len(dec.blocks) == 1),
              f"protected={report['protected']} but {len(dec.blocks)} blocks")
        weights = sum(block_weight(b.torsion) for b in dec.blocks)
        check(weights <= expect["commutant"],
              f"blocks need a commutant of {weights}, oracle has {expect['commutant']}")
        if len(dec.blocks) == 1:
            check(weights == expect["commutant"],
                  f"single block of weight {weights}, oracle {expect['commutant']}")
        if "index" in expect:
            check(abs(report["restricted_index"] - expect["index"]) <= INDEX_TOL,
                  f"restricted index {report['restricted_index']}, "
                  f"expected {expect['index']}")
        if "dims" in expect:
            check(sorted(dec.block_dims) == expect["dims"],
                  f"split {dec.block_dims}, expected {expect['dims']}")


# -- input building shared by the workloads -------------------------------------------

def build_inputs(s: Session, name: str, cayley, flags, labels, reps: dict,
                 actions: dict, sums: dict) -> dict:
    """Group, co-reps, probe actions and direct sums from raw arrays.

    ``reps`` maps name -> matrices; ``actions`` maps name -> (per-element
    matrices, kind); ``sums`` maps name -> list of summand rep names.
    """
    out = {"reps": {}, "actions": {}, "sums": {}}
    with s.task("setup", name):
        g = s.call("groups.build_group", groups.build_group, cayley, flags,
                   labels=labels)
        out["group"] = g
        for rep_name, mats in reps.items():
            rep = s.call("coreps.corep_from_matrices", coreps.corep_from_matrices,
                         g, mats)
            cocycle = s.call("groups.validate_cocycle", groups.validate_cocycle,
                             g, rep.omega)
            check(cocycle.passed, f"{rep_name}: cocycle fails {cocycle}")
            out["reps"][rep_name] = rep
        for act_name, (mats, kind) in actions.items():
            act = s.call("kp.ProbeRepAction", kp.ProbeRepAction, group=g,
                         d_h=mats[g.h_elements],
                         d_t0=mats[g.t0] if g.is_magnetic else None, kind=kind)
            s.call("kp.validate_action", kp.validate_action, act)
            out["actions"][act_name] = act
        for sum_name, parts in sums.items():
            out["sums"][sum_name] = s.call("coreps.direct_sum", coreps.direct_sum,
                                           [out["reps"][p] for p in parts])
    return out


def _element_matrices(action) -> np.ndarray:
    """Per-element matrices of a probe action (the coset via D(h t0))."""
    return np.stack([action.d(g) for g in range(action.group.order)])


# -- workloads --------------------------------------------------------------------

class CatalogSweep:
    """All 8 catalog entries (orders 2-24, d <= 4), every co-rep and probe.

    Hundreds of tiny calls per pass: fixed per-call Python overhead
    dominates, so a change that helps order 96 but adds per-call cost shows
    up here.
    """

    name = "catalog_sweep"

    def __init__(self, session: Session):
        self.s = session

    def prepare(self) -> None:
        self.expected = {}
        self.sums = {}
        for name in catalog.catalog_list():
            entry = catalog.catalog_get(name)
            g = entry.group
            torsion = {r: commutant_dim(rep.matrices, g.antiunitary)
                       for r, rep in entry.reps.items()}
            h = g.h_elements
            halving = {}
            for r, rep in entry.reps.items():
                d = rep.dim
                halving[r] = {
                    "commutant": commutant_dim(rep.matrices[h], g.antiunitary[h]),
                    "index": float(torsion[r]),
                    "dims": [d] if torsion[r] == 1 else [d // 2, d // 2],
                }
            sums = {}
            for k, bucket in enumerate(_omega_buckets(entry.reps)):
                parts = bucket + bucket[:1]
                if sum(entry.reps[p].dim for p in parts) <= 12:
                    sums[f"mix{k}"] = parts
            self.sums[name] = sums
            self.expected[name] = {"torsion": torsion, "halving": halving}

    def setup(self) -> None:
        s = self.s
        catalog.catalog_get.cache_clear()
        self.inputs = {}
        for name in catalog.catalog_list():
            entry = s.call("catalog.catalog_get", catalog.catalog_get, name)
            g = entry.group
            self.inputs[name] = build_inputs(
                s, name, g.cayley, g.antiunitary, g.labels,
                {r: rep.matrices for r, rep in entry.reps.items()},
                {a: (_element_matrices(act), act.kind)
                 for a, act in entry.probe_actions.items()},
                self.sums[name])

    def run_pass(self, rng: np.random.Generator, warmup: bool = False) -> None:
        s = self.s
        for name, inp in self.inputs.items():
            exp = self.expected[name]
            g = inp["group"]
            probes = {a: act for a, act in inp["actions"].items() if act.dim_q == 1}
            for r, base in inp["reps"].items():
                rep = transform(s, base, rng)
                seed = int(rng.integers(2**31))
                tag = f"{name}/{r}"
                ask_classify(s, tag, rep, exp["torsion"][r])
                for a, act in inp["actions"].items():
                    answers = ask_kp(s, f"{tag}/{a}", rep, act, seed)
                    ask_oracle(s, f"{tag}/{a}", rep, answers)
                if g.is_magnetic:
                    ask_stability(s, f"{tag}/halving", rep, g.h_elements, probes,
                                  seed, exp["halving"][r])
            for m, parts in self.sums[name].items():
                rep = transform(s, inp["sums"][m], rng)
                ask_reduce(s, f"{name}/{m}", rep,
                           [inp["reps"][p].dim for p in parts],
                           [exp["torsion"][p] for p in parts],
                           int(rng.integers(2**31)))


def _omega_buckets(reps: dict) -> list:
    """Rep names grouped by equal factor system (direct sums need one)."""
    buckets: list = []
    for name, rep in reps.items():
        for bucket in buckets:
            if np.allclose(reps[bucket[0]].omega.values, rep.omega.values, atol=1e-12):
                bucket.append(name)
                break
        else:
            buckets.append([name])
    return buckets


class OhT:
    """O_h x T (order 96) with four co-reps and every question.

    ``REDUCE_SUMS`` lists the mixed direct sums reduced each pass,
    ``LOWERINGS`` maps a co-rep to the lowerings asked for stability,
    ``KP`` maps a co-rep to the probes sent through the CLI kp traffic and
    ``ORACLE`` names the (co-rep, probe) answers the null-space oracle
    checks, with the largest probe-channel dimension it takes.

    The per-element-pair loops in coreps and reduction (classify, reduce,
    stability) dominate.  The oracle systems of a timed pass stay within
    1176 x 12 (d <= 3).  The warm-up pass also checks
    ``WARMUP_ORACLE``, up to the 4704 x 48 system of Gamma8 x magnetic
    (d = 4, q = 3), whose full-matrix SVD sets ``peak_rss_mb``.  Their
    time is left out of the timed passes: systems whose full U outgrows the
    cache are bound by memory traffic, which on a shared host swings by up
    to 40% from minute to minute and which the speed probe does not see.
    """

    name = "oht"
    # d = 6-12, with equal and unequal summands
    REDUCE_SUMS = {
        "vector+vector": ["vector", "vector"],
        "spinor+gamma8": ["spinor", "gamma8"],
        "quaternion+quaternion": ["quaternion", "quaternion"],
        "2spinor+2gamma8": ["spinor", "spinor", "gamma8", "gamma8"],
    }
    LOWERINGS = {r: ("strain_z", "strain_111", "field_z", "no_t")
                 for r in ("vector", "spinor", "gamma8", "quaternion")}
    KP = {r: ("momentum", "electric", "magnetic") for r in LOWERINGS}
    # systems of at most 1176 x 12 (d <= 3), whose full U fits in cache
    ORACLE = {
        ("spinor", "momentum"): 3, ("spinor", "electric"): 3,
        ("spinor", "magnetic"): 3, ("vector", "momentum"): 1,
    }
    WARMUP_ORACLE = {
        **ORACLE,
        ("vector", "magnetic"): 3, ("gamma8", "momentum"): 1,
        ("gamma8", "magnetic"): 3, ("quaternion", "momentum"): 2,
    }
    # all four co-reps have definite parity, so linear k terms vanish and the
    # identity k^2 term makes order 2 the leading one
    LEADING_ORDER = 2

    def __init__(self, session: Session):
        self.s = session

    def prepare(self) -> None:
        gen = ohtgen.generate()
        self.gen = gen
        flags = gen["flags"]
        self.torsion = {}
        for r, (mats, torsion) in gen["coreps"].items():
            found = commutant_dim(mats, flags)
            if found != torsion:
                raise RuntimeError(f"generator self-check: {r} has commutant "
                                   f"{found}, construction says {torsion}")
            self.torsion[r] = torsion
        self.lowering_expect = {}
        for r, lows in self.LOWERINGS.items():
            for low in lows:
                ids, _ = gen["subgroups"][low]
                mats = gen["coreps"][r][0][ids]
                self.lowering_expect[(r, low)] = {
                    "commutant": commutant_dim(mats, flags[ids])}

    def setup(self) -> None:
        s = self.s
        gen = self.gen
        catalog.catalog_get.cache_clear()
        with s.task("setup", "generator_vs_catalog"):
            entry = s.call("catalog.catalog_get", catalog.catalog_get, "c4v_t")
            _check_embeds(entry, gen)
        self.inputs = build_inputs(
            s, "oh_t", gen["cayley"], gen["flags"], gen["labels"],
            {r: mats for r, (mats, _) in gen["coreps"].items()},
            gen["actions"], self.REDUCE_SUMS)

    def run_pass(self, rng: np.random.Generator, warmup: bool = False) -> None:
        s = self.s
        inp = self.inputs
        oracle = self.WARMUP_ORACLE if warmup else self.ORACLE
        acts = inp["actions"]
        names = list(inp["reps"])
        sums = list(self.REDUCE_SUMS.items())
        # Questions are interleaved co-rep by co-rep, so each question's time
        # is sampled across the whole pass rather than one stretch of it.
        for i, r in enumerate(names):
            rep = transform(s, inp["reps"][r], rng)
            ask_classify(s, r, rep, self.torsion[r])
            for a in self.KP.get(r, ()):
                leading = self.LEADING_ORDER if a == "momentum" else None
                answers = ask_kp(s, f"{r}/{a}", rep, acts[a], int(rng.integers(2**31)),
                                 leading=leading)
                if (r, a) in oracle:
                    ask_oracle(s, f"{r}/{a}", rep, answers, max_q=oracle[(r, a)])
            for low in self.LOWERINGS.get(r, ()):
                ids, probe = self.gen["subgroups"][low]
                ask_stability(s, f"{r}/{low}", rep, ids, {probe: acts[probe]},
                              int(rng.integers(2**31)), self.lowering_expect[(r, low)])
            for m, parts in sums[i::len(names)]:
                mixed = transform(s, inp["sums"][m], rng)
                ask_reduce(s, m, mixed, [inp["reps"][p].dim for p in parts],
                           [self.torsion[p] for p in parts], int(rng.integers(2**31)))


def _check_embeds(entry, gen: dict) -> None:
    """The catalog's c4v_t must sit inside the generated O_h x T.

    Elements are matched by their spatial matrix (the catalog's T-even
    vector action) and flag; the map must be injective and multiplicative.
    """
    g = entry.group
    even = entry.probe_actions["vector_t_even"]
    index = {(m.tobytes(), int(f)): k
             for k, (m, f) in enumerate(zip(gen["spatial"], gen["flags"]))}
    image = []
    for e in range(g.order):
        key = (np.rint(even.d(e)).astype(int).tobytes(), int(g.s(e)))
        check(key in index, f"c4v_t element {g.label(e)} is not in O_h x T")
        image.append(index[key])
    image = np.asarray(image)
    check(len(set(image.tolist())) == g.order, "c4v_t embedding is not injective")
    check(np.array_equal(image[g.cayley], gen["cayley"][np.ix_(image, image)]),
          "c4v_t Cayley table disagrees with the O_h x T table")


WORKLOADS = {w.name: w for w in (CatalogSweep, OhT)}
