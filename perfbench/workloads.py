"""Workload inputs and their expected verdicts.

Each workload is a list of scenario sources built from a seed: bundled
names (loaded with ``load_scenario``) or generated documents (loaded with
``scenario_from_dict``).  Expected verdicts come from how each scenario
was built, never from the code under test.
"""

from __future__ import annotations

import random
from fractions import Fraction

BUNDLED = ("ext3", "ext3adm", "hb4d", "hb4d_inv", "t2pairs", "triv", "triv_shifted")

# The 23 checks a scenario with momenta and no primitives runs, in stage
# order, as tabled in docs/scenario_schema.md.  `admissibility_preserved`
# only runs when the input pairing form is admissible.
ALL_CHECKS = (
    ("connection", "projection_shape"),
    ("poisson", "jacobi"),
    ("poisson", "frame_preserves_bivector"),
    ("action", "foliation_preserving"),
    ("action", "leaf_tangent"),
    ("action", "canonical"),
    ("premomentum", "sharp_and_leafwise_closed"),
    ("averaging", "difference_two_routes"),
    ("averaging", "difference_is_hamiltonian"),
    ("averaging", "averaged_curvature_transition"),
    ("curvature_form", "hamiltonian_curvature"),
    ("curvature_form", "admissible"),
    ("averaged_form", "averaged_frame_poisson"),
    ("averaged_form", "averaged_hamiltonian_curvature"),
    ("averaged_form", "admissibility_preserved"),
    ("averaged_form", "shifted_derivative"),
    ("averaged_form", "second_derivative"),
    ("averaged_form", "bracket_derivative"),
    ("adiabatic", "horizontal_momentum_average"),
    ("dirac", "lagrangian"),
    ("dirac", "involutive"),
    ("dirac", "g_invariant"),
    ("dirac", "hamiltonian_generators"),
)


def expected_verdicts(name: str) -> dict[tuple[str, str], bool]:
    """Map (stage, check) to the pass verdict a scenario was built to get."""
    checks = dict.fromkeys(ALL_CHECKS, True)
    if name == "ext3":
        # Non-admissible pairing form: two failures by design, and the
        # admissibility_preserved check is not run.
        del checks[("averaged_form", "admissibility_preserved")]
        checks[("curvature_form", "admissible")] = False
        checks[("dirac", "involutive")] = False
    elif name == "triv_shifted":
        # Momenta shifted by dx1; the bundled primitive x1 repairs them.
        checks[("adiabatic", "horizontal_momentum_average")] = False
        checks[("adiabatic", "primitive_fix")] = True
    return checks


def _rational(rng: random.Random) -> Fraction:
    num = rng.choice([n for n in range(-5, 6) if n])
    return Fraction(num, rng.randint(1, 5))


def _term(coef: Fraction, *factors: tuple[str, int]) -> str:
    powers = [name if e == 1 else f"{name}^{e}" for name, e in factors if e]
    return "*".join([f"({coef})", *powers])


def rot(m: int, n: int, d: int, seed: int) -> dict:
    """The rot(m, n, d) scenario document with coefficients drawn from seed.

    Horizontal x1..xm, vertical pairs (q_j, p_j) for j = 1..n, angles th_j.
    P = sum dq_j ^ dp_j, factor j rotates (q_j, p_j) by th_j, momenta
    q_j dq_j + p_j dp_j.  For i < m and j = ((i - 1) mod n) + 1 the frame
    sends x_i to c_i * x_{i+1} * q_j^d along p_j, and the pairing form has
    x_i ^ x_{i+1}: c_i * q_j^(d+1) / (d+1).  Every check passes for any
    nonzero rationals c_i.
    """
    rng = random.Random(seed)
    pairs = range(1, n + 1)
    frame, pairing = {}, {}
    for i in range(1, m):
        j = (i - 1) % n + 1
        c = _rational(rng)
        frame[f"x{i}"] = {f"p{j}": _term(c, (f"x{i + 1}", 1), (f"q{j}", d))}
        pairing[f"x{i}^x{i + 1}"] = _term(c / (d + 1), (f"q{j}", d + 1))
    return {
        "schema": 1,
        "name": f"rot_{m}_{n}_{d}",
        "description": f"rot({m},{n},{d}) with seeded frame coefficients",
        "chart": {
            "horizontal": [f"x{i}" for i in range(1, m + 1)],
            "vertical": [v for j in pairs for v in (f"q{j}", f"p{j}")],
            "angles": [f"th{j}" for j in pairs],
        },
        "poisson": {f"q{j}^p{j}": "1" for j in pairs},
        "connection": {"frame": frame},
        "action": [
            {
                "angle": f"th{j}",
                "flow": {
                    f"q{j}": f"q{j}*cos(th{j}) - p{j}*sin(th{j})",
                    f"p{j}": f"q{j}*sin(th{j}) + p{j}*cos(th{j})",
                },
            }
            for j in pairs
        ],
        "momenta": [{f"q{j}": f"q{j}", f"p{j}": f"p{j}"} for j in pairs],
        "pairing_form": pairing,
    }


# name -> (why, sources(seed)); a source is a bundled name or a document.
WORKLOADS = {
    "bundled": (
        "the 7 shipped scenarios (dims 3-5): per-call ring overhead, the only failing verdicts",
        lambda seed: random.Random(seed).sample(BUNDLED, len(BUNDLED)),
    ),
    "rot_wide": (
        "rot(4,4,0), dim 12, four circle factors: pullbacks along many flows dominate",
        lambda seed: [rot(4, 4, 0, seed)],
    ),
    "rot_deep": (
        "rot(3,1,12), dim 5, frame degree 12: raw ring arithmetic (powers, products) dominates",
        lambda seed: [rot(3, 1, 12, seed)],
    ),
}
