"""Workload definitions: the seed-to-input mapping and the items of one pass.

A *pass* is what one fresh worker process times after its set-up.  For the
battery workloads a pass is one in-process ``sparsefrac verify`` run and an
item is one ``verify_case`` call; for ``family-ops`` a pass applies every
operator to both generated inputs on every grid, and an item is one library
call.  The program only ever sees the generated inputs, never the seed.
"""

from __future__ import annotations

from dataclasses import dataclass

WORKLOADS = ("battery-1d", "battery-2d", "family-ops")

# (alpha, p) pairs the test suite already runs in 1-d and 2-d; the seed
# picks one, seed 0 the first.  Every pair passes all theorem verdicts.
TRIPLES = {
    "battery-1d": ((1 / 3, 2.0), (0.25, 2.0), (0.5, 1.5), (0.2, 3.0), (0.4, 1.8)),
    "battery-2d": ((0.8, 2.0), (1.2, 1.5)),
}

ALL_THEOREMS = ["weak_1q", "strong_pq", "commutator_strong", "maximal_pq",
                "weighted_bmo", "cube_summation", "duality_cubes"]

# Battery shapes: (n, K, battery depth, theorems, gammas).  The smoke shapes
# only exist for the self-test and are never timed.
BATTERY_SHAPES = {
    ("battery-1d", False): (1, 10, 5, ALL_THEOREMS, 2),
    ("battery-2d", False): (2, 6, 4, ["strong_pq", "duality_cubes",
                                      "commutator_strong", "maximal_pq"], 3),
    ("battery-1d", True): (1, 5, 2, ALL_THEOREMS, 2),
    ("battery-2d", True): (2, 3, 2, ["strong_pq", "duality_cubes",
                                     "commutator_strong", "maximal_pq"], 1),
}

# family-ops meshes: (n, K, alpha, p); p only fixes the admissible gamma range.
FAMILY_SHAPES = {
    False: ((1, 10, 1 / 3, 2.0), (2, 5, 0.8, 2.0)),
    True: ((1, 5, 1 / 3, 2.0), (2, 3, 0.8, 2.0)),
}

SPIKES = 24  # point masses in the family-ops f
# The point masses sit at the same cells, with the same masses, on every
# seed.  They set the sparse families, and the family sizes set the cost of
# the certify_sparse and sparse_fractional_integral items around the median
# item time: with seeded masses that median moved by 0.15 of itself between
# sets of ten seeds.  The seed still draws the background, b and the weight.
SPIKE_LAYOUT = 12345

# Every run of every workload holds at least this many items (smoke runs
# excepted), so the 95th percentile has ten items beyond it.
MIN_ITEMS = 200

# mesh functions one item keeps live: f, b or the bump, w, sigma, v, output
LIVE_MESH_FUNCTIONS = 6


def triple_for(workload: str, seed: int) -> tuple[float, float]:
    options = TRIPLES[workload]
    return options[seed % len(options)]


def mesh_bytes(n: int, depth: int) -> int:
    """Bytes of one mesh function: float64 cells plus the padded long-double
    cumulative table that every box integral reads."""
    import numpy as np

    m = 2 ** depth
    return 8 * m ** n + np.dtype(np.longdouble).itemsize * (m + 1) ** n


def working_set_bytes(workload: str, smoke: bool = False) -> int:
    if workload == "family-ops":
        shapes = [(n, k) for n, k, _, _ in FAMILY_SHAPES[smoke]]
    else:
        n, k = BATTERY_SHAPES[(workload, smoke)][:2]
        shapes = [(n, k)]
    return max(LIVE_MESH_FUNCTIONS * mesh_bytes(n, k) for n, k in shapes)


def battery_config(workload: str, seed: int, out_dir: str, smoke: bool = False) -> dict:
    """The YAML config one battery pass hands to ``sparsefrac verify``."""
    n, depth, battery_depth, theorems, gammas = BATTERY_SHAPES[(workload, smoke)]
    alpha, p = triple_for(workload, seed)
    return {
        "run": {"depth": depth, "battery_depth": battery_depth, "out": out_dir,
                "format": "csv", "jobs": 1},
        "domain": {"dimension": n, "origin": [0.0] * n, "side": 1.0},
        "exponents": {"alpha": alpha, "p": p},
        "weight": {"kind": "power", "gamma": -0.15, "x0": "third"},
        "commutator": {"b": "logdist", "x0": "third"},
        "verify": {"theorems": list(theorems), "gammas": gammas},
    }


def reference_name(workload: str, seed: int, smoke: bool = False) -> str:
    """File stem of the recorded reports for the pair this seed picks."""
    alpha, p = triple_for(workload, seed)
    shape = "smoke" if smoke else "full"
    return f"{workload}-{shape}-a{alpha:.4f}-p{p:.4f}"


@dataclass
class FamilyInput:
    """One seeded family-ops input on one mesh."""

    n: int
    depth: int
    alpha: float
    f: object
    b: object
    sigma: object
    family: object


def family_inputs(seed: int, smoke: bool = False) -> list[FamilyInput]:
    """Seeded inputs: a non-negative f (a seeded background plus the fixed
    point masses), a signed b and a power weight whose gamma and
    singularity x0 are drawn from the admissible range."""
    import numpy as np

    from sparsefrac import grid, weights

    out = []
    for n, depth, alpha, p in FAMILY_SHAPES[smoke]:
        rng = np.random.default_rng([seed % 2 ** 32, n])  # any int seed works
        root = grid.RootBox((0.0,) * n, 1.0)
        shape = (2 ** depth,) * n
        e = weights.ExponentTriple(n, alpha, p)
        lo, hi = weights.admissible_gamma_range(e)
        gamma = float(rng.uniform(0.9 * lo, 0.9 * hi))
        x0 = tuple(float(v) for v in rng.uniform(0.05, 0.95, n))
        # Spikes over a mildly rough background: every grid gets chains of
        # stopping cubes.
        cells = np.exp(0.25 * rng.standard_normal(shape))
        layout = np.random.default_rng([SPIKE_LAYOUT, n])
        spikes = layout.choice(cells.size, size=SPIKES, replace=False)
        cells.flat[spikes] += layout.uniform(2.0, 4.0, SPIKES) * 2.0 ** (depth * n / 2)
        f = grid.GridFunction(root, cells)
        b = grid.GridFunction(root, rng.standard_normal(shape))
        sigma = weights.power_weight(root, depth, gamma, x0).sigma(e)
        out.append(FamilyInput(n, depth, alpha, f, b, sigma,
                               grid.DyadicGridFamily(root, depth)))
    return out


def family_items(inp: FamilyInput) -> list[tuple[str, str, object]]:
    """(item key, operator, thunk) for one input, in call order.

    Thunks look functions up on their modules at call time, so wrappers the
    tracer installs there are the ones that run.  The sparse chain on each
    grid passes its family from select to certify to the sparse integral
    through ``state``.
    """
    from sparsefrac import operators, orlicz, sparse

    state: dict = {}
    items = []
    tag = f"n{inp.n}K{inp.depth}"
    for g in range(inp.family.num_grids):
        key = f"{tag}/g{g}"

        def select(g=g, key=key):
            fam = sparse.sparse_select_for_operator(inp.f, inp.family, g)
            state[key] = fam
            return fam

        items += [
            (f"{key}/dyadic_fractional_integral", "dyadic_fractional_integral",
             lambda g=g: operators.dyadic_fractional_integral(inp.f, inp.alpha, inp.family, g)),
            (f"{key}/weighted_orlicz_fractional_maximal", "weighted_orlicz_fractional_maximal",
             lambda g=g: operators.weighted_orlicz_fractional_maximal(
                 inp.f, inp.sigma, inp.alpha, orlicz.LLOG, inp.family, g)),
            (f"{key}/dyadic_commutator", "dyadic_commutator",
             lambda g=g: operators.dyadic_commutator(inp.b, inp.f, inp.alpha, inp.family, g)),
            (f"{key}/sparse_select_for_operator", "sparse_select_for_operator", select),
            (f"{key}/certify_sparse", "certify_sparse",
             lambda key=key: sparse.certify_sparse(state[key], inp.family, inp.depth)),
            (f"{key}/sparse_fractional_integral", "sparse_fractional_integral",
             lambda key=key: operators.sparse_fractional_integral(
                 inp.f, inp.alpha, inp.family, state[key].cubes)),
        ]
        if inp.n == 1:
            items.append((f"{key}/cz_stopping_cubes", "cz_stopping_cubes",
                          lambda g=g: sparse.cz_stopping_cubes(inp.f, inp.family, g)))
    items.append((f"{tag}/fractional_maximal", "fractional_maximal",
                  lambda: operators.fractional_maximal(inp.f, inp.alpha, inp.family)))
    if inp.n == 1:
        items.append((f"{tag}/commutator_1d", "commutator_1d",
                      lambda: operators.commutator_1d(inp.b, inp.f, inp.alpha)))
    return items
