"""Shared fixtures: catalog sweeps are expensive enough to build once."""

import warnings

import numpy as np
import pytest

import magrep as mr
from magrep.errors import EigenvalueAtBranchCutWarning, InvalidAction, NoT0
from magrep.kp import covariant_tuple_basis, linear_multiplicity, polynomial_channel


def catalog_irreps():
    """(entry_name, rep_name, rep) for every catalog co-rep."""
    out = []
    for name in mr.catalog_list():
        entry = mr.catalog_get(name)
        for rep_name, rep in entry.reps.items():
            out.append((name, rep_name, rep))
    return out


def compatible_rep_groups(entry):
    """Reps of one entry grouped by exactly-equal factor system."""
    groups = []
    for name, rep in entry.reps.items():
        for bucket in groups:
            if np.allclose(bucket[0][1].omega.values, rep.omega.values, atol=1e-12):
                bucket.append((name, rep))
                break
        else:
            groups.append([(name, rep)])
    return groups


# -- alternate criterion forms, kept as oracles for reduction.criterion_sums --

def coset_trace_sum(rep):
    """(1/|H|) sum over anti-unitary u of Tr[M(u) conj(M(u))]."""
    g = rep.group
    total = 0.0 + 0.0j
    for u in g.coset_elements:
        total += np.trace(rep.m(int(u)) @ np.conj(rep.m(int(u))))
    return total / g.halving_order


def irreducibility_index_trace_form(rep):
    """Irreducibility index with the coset term written as coset_trace_sum."""
    g = rep.group
    chi = np.einsum("gii->g", rep.matrices[g.h_elements])
    unitary_part = float(np.sum(np.abs(chi) ** 2)) / g.halving_order
    if not g.is_magnetic:
        return unitary_part
    return float((0.5 * (unitary_part + coset_trace_sum(rep))).real)


def multiplicity_value_trace_form(rep, action):
    """Coset term written as Tr[M(u) conj(M(u))]; must agree with the
    factor-system form."""
    g = rep.group
    chi = np.einsum("gii->g", rep.matrices[g.h_elements])
    chi_v = action.character_h()
    unitary_part = sum(abs(chi[k]) ** 2 * chi_v[k] for k in range(len(chi_v)))
    if not g.is_magnetic:
        return float(unitary_part / g.halving_order)
    coset_part = 0.0 + 0.0j
    for h in g.h_elements:
        u = g.mul(int(h), g.t0)
        coset_part += float(np.trace(action.d(u))) * np.trace(
            rep.m(u) @ np.conj(rep.m(u)))
    return float(((unitary_part + coset_part) / (2 * g.halving_order)).real)


def multiplicity_value_diagonal_t0(rep, action, sign):
    """Specialized criterion valid only when D(t0) = sign * identity:
    the probe character factors out of the coset term."""
    g = rep.group
    if not g.is_magnetic:
        raise NoT0("specialized path needs an anti-unitary group")
    if not np.allclose(action.d_t0, sign * np.eye(action.dim_q), atol=1e-12):
        raise InvalidAction(f"D(t0) is not {sign:+d} * identity")
    chi = np.einsum("gii->g", rep.matrices[g.h_elements])
    chi_v = action.character_h()
    total = 0.0 + 0.0j
    for k, h in enumerate(g.h_elements):
        u = g.mul(int(h), g.t0)
        total += (abs(chi[k]) ** 2
                  + sign * rep.omega(u, u) * np.trace(rep.m(g.mul(u, u)))) * chi_v[k]
    return float((total / (2 * g.halving_order)).real)


@pytest.fixture(scope="session")
def kp_sweep():
    """Every (catalog rep x probe action x order <= 2) with q d^2 <= 200.

    Each record carries the criterion value, the brute-force oracle basis and
    the constructed model (None when the channel is empty).  Built once; the
    acceptance tests and the kp unit tests both consume it.
    """
    records = []
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", EigenvalueAtBranchCutWarning)
        for name in mr.catalog_list():
            entry = mr.catalog_get(name)
            for rep_name, rep in entry.reps.items():
                for act_name, act in entry.probe_actions.items():
                    for order in (1, 2):
                        if act.dim_q != 3 and order > 1:
                            continue
                        if act.dim_q == 3:
                            sets = polynomial_channel(act, order, seed=0)
                            actions = [("full", sets.full_action)]
                            actions += [(f"chan{k}", c.action)
                                        for k, c in enumerate(sets.channels)]
                        else:
                            if order > 1:
                                continue
                            actions = [("full", act)]
                        for tag, a in actions:
                            if a.dim_q * rep.dim ** 2 > 200:
                                continue
                            crit = linear_multiplicity(rep, a)
                            oracle = covariant_tuple_basis(rep, a)
                            model = None
                            if crit > 0:
                                model = mr.build_gamma_matrices(rep, a)
                            records.append({
                                "where": (name, rep_name, act_name, order, tag),
                                "rep": rep,
                                "action": a,
                                "criterion": crit,
                                "oracle": oracle,
                                "model": model,
                            })
    return records
