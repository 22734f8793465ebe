"""Rules the package's signatures keep: the prior at a theta travels as one
object (``precision.PriorStructure``), never as loose pieces."""

import importlib
import inspect
import pkgutil

import spdekit

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
