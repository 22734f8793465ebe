"""Rules the package's signatures keep: the prior at a theta travels as one
object (``precision.PriorStructure``), never as loose pieces, a grid
passed beside theta must be theta's own, and only ``linalg`` writes and
factors SPD bands."""

import dataclasses
import importlib
import inspect
import pathlib
import pkgutil
import re

import numpy as np
import pytest

import spdekit
from spdekit import (ObservationSet, SpaceTimeGrid, assemble_block_precision,
                     assemble_fdm_operator, build_transition,
                     dense_trajectory_covariance, oi_solve_dense_oracle,
                     sample_prior, validate_params)

from oracles import random_theta

# the pieces of a prior, and the parameters that once made one optional
_PIECES = {"transitions", "ic", "prior"}
_OPTIONAL = {"transitions", "ic", "terms", "weights", "p0_opts"}
# the one object that holds theta with its pieces
_HOLDER = "spdekit.precision.PriorStructure.__init__"


def _functions():
    """(qualified name, function) of every function and method defined in
    spdekit's modules, the methods of their classes included (not
    __main__, whose import runs the command line)."""
    for info in pkgutil.iter_modules(spdekit.__path__):
        if info.name == "__main__":
            continue
        module = importlib.import_module(f"spdekit.{info.name}")
        for name, obj in vars(module).items():
            if getattr(obj, "__module__", None) != module.__name__:
                continue
            if inspect.isfunction(obj):
                yield f"{module.__name__}.{name}", obj
            elif inspect.isclass(obj):
                for attr, member in vars(obj).items():
                    func = getattr(member, "__func__", member)
                    if inspect.isfunction(func):
                        yield f"{module.__name__}.{obj.__qualname__}." \
                              f"{attr}", func


def _takes_theta(param) -> bool:
    return param.name.startswith("theta") \
        or "ParamFields" in str(param.annotation)


def test_no_function_takes_a_prior_as_loose_pieces():
    names, offenders = set(), []
    for name, func in _functions():
        names.add(name)
        params = inspect.signature(func).parameters.values()
        pieces = _PIECES & {p.name for p in params}
        if pieces and any(map(_takes_theta, params)) and name != _HOLDER:
            offenders.append(f"{name} takes theta with {sorted(pieces)}")
        optional = [p.name for p in params if p.name in _OPTIONAL
                    and p.default is not inspect.Parameter.empty]
        if optional:
            offenders.append(f"{name} has optional {optional}")
    # the walk reaches functions, methods and the holder itself
    assert {"spdekit.solver.run_solver", "spdekit.solver.PrecisionCache.get",
            _HOLDER} <= names
    assert offenders == []


def _observed(theta):
    mask = np.zeros(theta.grid.shape, dtype=bool)
    mask[1, 2, 3] = mask[3, 4, 1] = True
    return ObservationSet(theta.grid, mask, [0.3, -0.2], [0.1, 0.1])


# each function that takes a grid beside theta, called on that grid
_GRID_USERS = {
    "sample_prior": lambda theta, grid: sample_prior(theta, grid,
                                                     n_members=2),
    "build_transition": build_transition,
    "assemble_fdm_operator": lambda theta, grid: assemble_fdm_operator(
        theta, 1, grid),
    "validate_params": validate_params,
    "assemble_block_precision": assemble_block_precision,
    "dense_trajectory_covariance": dense_trajectory_covariance,
    "oi_solve_dense_oracle": lambda theta, grid: oi_solve_dense_oracle(
        theta, grid, _observed(theta)),
}


@pytest.mark.parametrize("change", [{"dt": 0.5}, {"nx": 5}],
                         ids=["dt", "nx"])
@pytest.mark.parametrize("name", sorted(_GRID_USERS))
def test_a_grid_other_than_thetas_is_refused(name, change):
    # a grid that differs from theta's in dt alone would silently step
    # theta's fields with the wrong dt; one with another nx would fail
    # deep in a product
    g = SpaceTimeGrid(nx=6, ny=6, nt=4)
    theta = random_theta(g, 3)
    call = _GRID_USERS[name]
    call(theta, dataclasses.replace(g))        # an equal grid is theta's
    with pytest.raises(ValueError, match="is not theta's grid"):
        call(theta, dataclasses.replace(g, **change))


def test_only_linalg_writes_and_factors_bands():
    # every SPD factor goes through linalg (sparse_cholesky or
    # factor_precision), so no other module names its band writer, its
    # band factor or the LAPACK call under them
    band_code = re.compile(r"\b(lower_band|cholesky_banded|dpbtrf)\b")
    sources = sorted(pathlib.Path(spdekit.__file__).parent.glob("*.py"))
    assert "linalg.py" in {path.name for path in sources}
    offenders = [f"{path.name}: {name}" for path in sources
                 if path.name != "linalg.py"
                 for name in band_code.findall(path.read_text())]
    assert offenders == []
