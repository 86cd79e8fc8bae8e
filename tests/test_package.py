"""Package layout: what each module exports, and the integer check they share."""

import dataclasses
import importlib
import math
import pkgutil

import numpy as np
import pytest

import ntgof
from ntgof import (
    AlternativeSpec,
    DimensionBudget,
    MajorantParams,
    MonteCarloConfig,
    b2_tail_sum,
    check_proper_weight,
    contamination_alternative,
    deconvolution_spec,
    default_budget,
    default_weight_spec,
    design_matrix,
    eval_basis,
    fixed_budget,
    gaussian_location_family,
    gram_matrix,
    legendre_basis,
    null_distribution,
    prohorov_bound,
    ptype_majorant,
    schwarz_penalty,
    schwarz_schedule,
    sup_norm_bound,
    table_schedule,
    tail_rate_probe,
    uniformity_spec,
    validate_penalty,
)


def uniform(rng, n):
    return rng.random(n)


def test_every_name_in_all_exists():
    # a name dropped from a module but left in its __all__ breaks
    # ``from module import *`` only when someone tries it
    modules = [ntgof] + [
        importlib.import_module(f"ntgof.{info.name}")
        for info in pkgutil.iter_modules(ntgof.__path__)
        if info.name != "__main__"
    ]
    checked = 0
    for module in modules:
        for name in getattr(module, "__all__", ()):
            assert hasattr(module, name), f"{module.__name__}.__all__ names missing {name!r}"
            checked += 1
    assert checked > 50


# each of these used to run (a bool taken as 0 or 1, a float as itself)
# or stop in a bare NumPy TypeError
@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: MonteCarloConfig(100, seed=True), "seed must be a non-negative integer, got True"),
        (
            lambda: MonteCarloConfig(100.0, seed=0),
            "replications must be an integer >= 100, got 100.0",
        ),
        (lambda: DimensionBudget(lambda n: 2, cap=True), "cap must be an integer >= 1, got True"),
        (lambda: fixed_budget(True), "d must be an integer >= 1, got True"),
        (
            lambda: AlternativeSpec("x", uniform, first_component=True),
            "first_component must be an integer >= 1, got True",
        ),
        (
            lambda: deconvolution_spec(l_seed=True),
            "l_seed must be a non-negative integer, got True",
        ),
        (
            lambda: deconvolution_spec(grid_points=64.5),
            "grid_points must be an integer >= 64, got 64.5",
        ),
        (
            lambda: deconvolution_spec(l_draws=20000.5),
            "l_draws must be an integer >= 1000, got 20000.5",
        ),
        (lambda: legendre_basis(2.5), "max_degree must be an integer >= 1, got 2.5"),
        (
            lambda: tail_rate_probe(uniform, 0.5, 1.0, 0.1, [True, 2], 100, 0),
            "n_grid size must be an integer >= 1, got True",
        ),
        (
            lambda: contamination_alternative({True: 0.1}),
            "contamination degree must be an integer >= 1, got True",
        ),
        (
            lambda: null_distribution(uniformity_spec(), True, MonteCarloConfig(100, 0)),
            "sample size n must be an integer >= 2, got True",
        ),
        (lambda: schwarz_penalty(2.5, 100), "k must be an integer >= 1, got 2.5"),
        (
            lambda: table_schedule({(2.5, 100): 1.0}),
            "penalty table k must be an integer >= 1, got 2.5",
        ),
        (lambda: default_budget().d(100.5), "n must be an integer >= 1, got 100.5"),
        (
            lambda: validate_penalty(schwarz_schedule(), default_budget(), (100.7, 1000, 10000)),
            "n_grid size must be an integer >= 1, got 100.7",
        ),
        (
            lambda: check_proper_weight(
                default_weight_spec(), schwarz_schedule(), [(2.9, 1000), (2, 10**4), (2, 10**5)]
            ),
            "grid k must be an integer >= 1, got 2.9",
        ),
        (lambda: prohorov_bound(2.5, 3.0, 1e6), "k must be an integer >= 1, got 2.5"),
        (
            lambda: ptype_majorant(MajorantParams(1.0, 2.0), True, 1.5),
            "k must be an integer >= 1, got True",
        ),
        (
            lambda: b2_tail_sum(lambda k, y: 1.0, 1.5, 3, lambda k, n: 1.0, 100),
            "k_from must be an integer >= 1, got 1.5",
        ),
        (
            lambda: b2_tail_sum(lambda k, y: 1.0, 1, 3.0, lambda k, n: 1.0, 100),
            "k_to must be an integer >= 1, got 3.0",
        ),
        (lambda: sup_norm_bound(True), "k must be an integer >= 1, got True"),
        (
            lambda: gram_matrix(legendre_basis(4), 2, nodes=20.5),
            "nodes must be an integer >= 2, got 20.5",
        ),
        (
            lambda: design_matrix(legendre_basis(4), [0.5], 2.5),
            "k must be an integer >= 1, got 2.5",
        ),
        (lambda: eval_basis(legendre_basis(4), True, 0.5), "j must be an integer >= 1, got True"),
        (
            lambda: dataclasses.replace(gaussian_location_family(), q=1.5),
            "q must be an integer >= 1, got 1.5",
        ),
    ],
    ids=[
        "seed", "replications", "cap", "d", "first_component", "l_seed", "grid_points",
        "l_draws", "max_degree", "n_grid", "degree", "n", "schwarz_k", "table_key",
        "budget_n", "validate_grid", "weight_pair", "prohorov_k", "ptype_k", "k_from", "k_to",
        "sup_norm_k", "nodes", "planes_k", "eval_j", "q",
    ],
)
def test_integer_arguments_reject_bools_and_floats(call, message):
    with pytest.raises(ValueError) as e:
        call()
    assert str(e.value) == message


def test_integer_arguments_take_numpy_integers():
    assert legendre_basis(np.int64(4)).max_degree == 4
    assert fixed_budget(np.int32(3)).d(100) == 3
    assert MonteCarloConfig(np.int64(100), np.uint8(1), n_grid=(np.int16(8),)).n_grid == (8,)
    assert AlternativeSpec("x", uniform, first_component=np.int64(2)).first_component == 2
    assert contamination_alternative({np.int64(3): 0.1}).first_component == 3
    assert table_schedule({(np.int64(2), np.int32(100)): 1.0}).pi(2, 100) == 1.0
    grid = (np.int64(100), np.int32(1000), np.uint16(10000))
    assert validate_penalty(schwarz_schedule(), default_budget(), grid).passed
    assert sup_norm_bound(np.int16(1)) == math.sqrt(3.0)
    assert prohorov_bound(np.int64(2), 3.0, 1e6) == prohorov_bound(2, 3.0, 1e6)
