"""Seeded case generation for the four benchmark workloads.

A workload run is a list of passes; a pass is a list of :class:`Case`
values with the same composition in every pass and fresh seeded draws.
Everything here is a pure function of ``(workload, seed, passes)``: the
program under test receives only the generated inputs.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from qvdp.bifurcation import homoclinic_curve, hopf_curve

WORKLOADS = ("forced", "cycle_hunt", "cycle_exclusion", "atlas")

# Nominal length of one pass on the reference machine (2 cores, py3.11).
# A run executes round(seconds / NOMINAL_PASS_S) passes, at least one, so
# the amount of work is fixed by --seconds and never by a clock reading.
NOMINAL_PASS_S = {"forced": 15.0, "cycle_hunt": 20.0,
                  "cycle_exclusion": 20.0, "atlas": 4.0}

# criterion 9 of the paper: the two forced reference sets
FORCED_N = 300
FORCED_BASE = {"beta": 1.0, "eps": 3.0, "omega": 1.0, "alpha": -0.3}
FORCED_SEED = (0.0, 1.2)
FORCED_QP_MU = -0.1
FORCED_ENTRAINED_MU = -0.3
FORCED_NEIGHBOUR = 0.005          # half-width of the (mu, alpha) draws

# criterion 7 seed ring: radius 2.2, eight angles
RING = tuple((2.2 * math.cos(k * math.pi / 4.0),
              2.2 * math.sin(k * math.pi / 4.0)) for k in range(8))

SPLIT_DELTA = 0.02                # bracket mu3 -/+ this for the bisection
SPLIT_STEPS = 3

SWEEP_N = {"positive": 120, "negative": 80, "zero": 40}
REFERENCE_SETS = (               # the six unforced reference sets, eps = 2
    {"beta": 0.0, "mu": 0.0}, {"beta": 0.0, "mu": 1.0},
    {"beta": 1.0, "mu": -0.25}, {"beta": 1.0, "mu": -0.2},
    {"beta": 1.0, "mu": -0.171}, {"beta": 1.0, "mu": -0.1})

ALL_EQ = ("E1", "E2", "O")


class Case(NamedTuple):
    kind: str          # which runner executes it
    label: str         # role of the case inside its pass
    args: dict         # plain floats / tuples only
    expect: object     # what the paper says, or None when it is silent


def passes_for(workload: str, seconds: float) -> int:
    return max(1, int(round(seconds / NOMINAL_PASS_S[workload])))


def generate(workload: str, seed: int, passes: int) -> list[list[Case]]:
    """The case lists of ``passes`` passes of ``workload`` for ``seed``."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    build = _BUILDERS[workload]
    index = WORKLOADS.index(workload)
    return [build(np.random.default_rng([seed, index, k]))
            for k in range(passes)]


def _u(rng, lo, hi) -> float:
    return float(rng.uniform(lo, hi))


def _near(rng, value, half_width) -> float:
    return _u(rng, value - half_width, value + half_width)


# --- forced ------------------------------------------------------------------

def _forced_args(mu, alpha) -> dict:
    return dict(FORCED_BASE, mu=mu, alpha=alpha, seed=FORCED_SEED,
                n=FORCED_N)


def _forced(rng) -> list[Case]:
    a0, d = FORCED_BASE["alpha"], FORCED_NEIGHBOUR
    return [
        Case("forced", "paper_qp", _forced_args(FORCED_QP_MU, a0),
             "quasi_periodic"),
        Case("forced", "paper_entrained",
             _forced_args(FORCED_ENTRAINED_MU, a0), "entrained"),
        Case("forced", "neighbour_qp",
             _forced_args(FORCED_QP_MU + _u(rng, -d, d), a0 + _u(rng, -d, d)),
             None),
        Case("forced", "neighbour_entrained",
             _forced_args(FORCED_ENTRAINED_MU + _u(rng, -d, d),
                          a0 + _u(rng, -d, d)), None),
        Case("forced_cli", "cli_entrained",
             _forced_args(FORCED_ENTRAINED_MU, a0), "entrained"),
    ]


# --- cycle_hunt --------------------------------------------------------------

def _search(label, mu, beta, eps, seed, expect) -> Case:
    return Case("search", label,
                {"mu": mu, "beta": beta, "eps": eps, "seed": seed}, expect)


def _split(label, beta, eps) -> Case:
    return Case("split", label, {"beta": beta, "eps": eps,
                                 "delta": SPLIT_DELTA, "steps": SPLIT_STEPS},
                "sign_change")


def _cycle_hunt(rng) -> list[Case]:
    # Draws jitter around reference points, so every seed costs about the
    # same; known misses sit in fixed cases, so every seed shows them.
    cases = [  # the paper's three regimes (criterion 6)
        _search("paper_origin", 1.0, 0.0, 2.0, (2.0, 0.0), ("O",)),
        _search("paper_small", -0.2, 1.0, 2.0, (0.9, 0.0), ("E2",)),
        _search("paper_large", -0.1, 1.0, 2.0, (2.0, 0.0), ALL_EQ),
    ]
    # mu_c < mu < mu_3: the supercritical Hopf cycle around E2, seeded
    # just outside the unstable focus
    beta, eps = _near(rng, 1.0, 0.05), _near(rng, 2.0, 0.1)
    muc, mu3 = hopf_curve(beta, eps), homoclinic_curve(beta, eps)
    cases.append(_search("draw_small", muc + _u(rng, 0.55, 0.75) * (mu3 - muc),
                         beta, eps, (math.sqrt(beta / eps) + 0.05, 0.0),
                         ("E2",)))
    # mu > mu_3: the large cycle around all three equilibria
    beta, eps = _near(rng, 1.0, 0.05), _near(rng, 2.0, 0.1)
    cases.append(_search("draw_large",
                         homoclinic_curve(beta, eps) + _u(rng, 0.05, 0.1),
                         beta, eps, (2.0, 0.0), ALL_EQ))
    # beta/eps > 7/3 past mu_c: a bounded attractor exists beyond the
    # detector's escape bound; the paper's enclosure table does not apply
    eps = _near(rng, 1.0, 0.05)
    beta = eps * _near(rng, 3.0, 0.1)
    cases.append(_search("draw_beyond_7_3",
                         hopf_curve(beta, eps) + _u(rng, 0.05, 0.1) * beta,
                         beta, eps, (2.0, 0.0), "bounded"))
    cases.append(_search("fixed_beyond_7_3", 6.1, 3.0, 1.0, (2.0, 0.0),
                         "bounded"))
    # a Hopf cycle around E2 that the detector misses from this seed
    beta, eps = 0.905, 1.942
    cases.append(_search("fixed_small_miss", -0.2098, beta, eps,
                         (math.sqrt(beta / eps) + 0.15, 0.0), ("E2",)))
    eps = _near(rng, 2.0, 0.1)
    cases.append(_split("split_bisection", eps * _near(rng, 0.5, 0.05), eps))
    # the unstable branch leaves the shooting box below mu_3 here
    cases.append(_split("fixed_split_escape", 1.2, 2.0))
    cases.append(Case("portrait_cli", "portrait_large",
                      {"mu": -0.1, "beta": 1.0, "eps": 2.0,
                       "seeds": ((2.0, 0.0),), "t1": 60.0}, 1))
    return cases


# --- cycle_exclusion ---------------------------------------------------------

def _ring_subset(rng, k: int) -> list:
    return [RING[i] for i in sorted(rng.choice(8, size=k, replace=False))]


def _exclusion_sets(label, params: dict, seeds, expect) -> list[Case]:
    return [Case("search", label, dict(params, seed=s), expect)
            for s in seeds]


def _cycle_exclusion(rng) -> list[Case]:
    beta, eps = _near(rng, 1.5, 0.05), _near(rng, 2.0, 0.1)
    return [
        # energy certificate at its boundary mu = -5/36, a criterion-7 set:
        # the search gives up after 60 returns instead of reporting collapse
        *_exclusion_sets("anchor_energy_boundary",
                         {"mu": -5.0 / 36.0, "beta": 0.0, "eps": 2.0},
                         [RING[0]], "energy"),
        # Bendixson-Dulac: mu <= -1/4
        *_exclusion_sets("draw_dulac",
                         {"mu": _near(rng, -0.6, 0.05),
                          "beta": _near(rng, 1.0, 0.1),
                          "eps": _near(rng, 1.0, 0.1)},
                         _ring_subset(rng, 2), "dulac"),
        # energy: beta = 0, -1/4 < mu <= -5/36
        *_exclusion_sets("draw_energy",
                         {"mu": _near(rng, -0.22, 0.02), "beta": 0.0,
                          "eps": _near(rng, 2.0, 0.1)},
                         _ring_subset(rng, 2), "energy"),
        # index: eps < 0 leaves the origin as the sole equilibrium, a saddle
        *_exclusion_sets("draw_index",
                         {"mu": _near(rng, 0.1, 0.05),
                          "beta": _near(rng, 1.0, 0.1),
                          "eps": _near(rng, -1.0, 0.1)},
                         _ring_subset(rng, 1), "index"),
        # three equilibria below the Hopf curve, above the Dulac bound
        *_exclusion_sets("draw_three_eq",
                         {"mu": hopf_curve(beta, eps) - _u(rng, 0.03, 0.06),
                          "beta": beta, "eps": eps},
                         _ring_subset(rng, 2), "three_eq_no_cycle"),
    ]


# --- atlas -------------------------------------------------------------------

def _atlas(rng) -> list[Case]:
    eps_pos = _u(rng, 0.8, 1.2)
    cases = [
        # beta from 0 past beta/eps = 3 > 7/3; mu through mu_c(3 eps, eps)
        Case("sweep_cli", "sweep_eps_positive",
             {"eps": eps_pos, "beta": (0.0, 3.0 * eps_pos),
              "mu": (-1.0, 7.0), "n": SWEEP_N["positive"]}, None),
        Case("sweep_cli", "sweep_eps_negative",
             {"eps": _u(rng, -1.5, -0.2), "beta": (0.0, 3.0),
              "mu": (-1.0, 2.0), "n": SWEEP_N["negative"]}, None),
        Case("sweep_cli", "sweep_eps_zero",
             {"eps": 0.0, "beta": (0.0, 3.0), "mu": (-1.0, 2.0),
              "n": SWEEP_N["zero"]}, None),
    ]
    cases += [Case("classify_cli", f"reference_{i}", dict(ref, eps=2.0), None)
              for i, ref in enumerate(REFERENCE_SETS)]
    cases.append(Case("melnikov_cli", "melnikov_reference",
                      {"mu": -0.1714285, "beta": 1.0, "eps": 2.0}, None))
    cases.append(Case("melnikov_cli", "melnikov_draw",
                      {"mu": _u(rng, -1.0, 1.0), "beta": _u(rng, 0.5, 2.0),
                       "eps": _u(rng, 0.5, 3.0)}, None))
    for label in ("hopf_draw_a", "hopf_draw_b"):
        cases.append(Case("hopf", label, {"beta": _u(rng, 0.25, 4.0),
                                          "eps": _u(rng, 0.5, 2.0)}, None))
    # near the criterion-8 sets (mu = 0.1, beta = 1, eps = -1 and 2)
    for eps, label in ((-1.0, "infinity_eps_negative"),
                       (2.0, "infinity_eps_positive")):
        params = {"mu": _near(rng, 0.1, 0.05), "beta": _near(rng, 1.0, 0.1),
                  "eps": _near(rng, eps, 0.1)}
        cases.append(Case("infinity", label, params, None))
        for lab in ("B+", "B-", "C+", "C-"):
            cases.append(Case("probe", f"{label}_{lab}",
                              dict(params, label=lab), None))
    return cases


_BUILDERS = {"forced": _forced, "cycle_hunt": _cycle_hunt,
             "cycle_exclusion": _cycle_exclusion, "atlas": _atlas}
