"""Float tolerances are fixed constants, not a knob threaded through the library.

Equality tests compare against ``DEFAULT_EQ_TOL`` and rank decisions against
``DEFAULT_RANK_TOL``.  Only the scalar zero and closeness tests take a
``tol``, because some library callers need exact (0.0) or tighter
comparisons, plus ``gram_growth`` and its ``_grow``, whose ``tol`` the
benchmark tracer binds by name.

Likewise a moment's type is fixed by the vector model that reads it: the
model's constructor is the one function that takes a ``cast``.
"""

import argparse
import importlib
import inspect
import pkgutil

import pytest

import cuntzlab
import cuntzlab.cli as cli

TAKE_TOL = {
    "scalars.scalar_is_zero",
    "scalars.scalars_close",
    "classify.gram_growth",
    "classify._grow",
}


def _functions():
    """(qualified name, callable) of every function and method defined in a cuntzlab module."""
    for info in pkgutil.iter_modules(cuntzlab.__path__):
        mod = importlib.import_module(f"cuntzlab.{info.name}")
        for name, obj in vars(mod).items():
            if getattr(obj, "__module__", None) != mod.__name__:
                continue
            if inspect.isfunction(obj):
                yield f"{info.name}.{name}", obj
            elif inspect.isclass(obj):
                for attr, member in vars(obj).items():
                    if isinstance(member, (staticmethod, classmethod)):
                        member = member.__func__
                    if inspect.isfunction(member):
                        yield f"{info.name}.{name}.{attr}", member


def test_the_walk_sees_the_library():
    names = {name for name, _ in _functions()}
    assert {"classify.kappa", "linalg.rank", "moments.MomentFunctional.lookup", "specio.parse_spec"} <= names


def test_exactly_four_functions_take_tol():
    assert {name for name, fn in _functions() if "tol" in inspect.signature(fn).parameters} == TAKE_TOL


def test_only_the_vector_model_takes_a_cast():
    assert [name for name, fn in _functions() if "cast" in inspect.signature(fn).parameters] == [
        "moments.VectorModel.__init__"
    ]


def _commands():
    parser = cli._build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return sub.choices


@pytest.mark.parametrize("command", sorted(_commands()))
def test_no_command_accepts_tol(command, capsys):
    positional = {"equiv": ["a.json", "b.json"], "selftest": []}.get(command, ["a.json"])
    with pytest.raises(SystemExit) as exc:
        cli.run([command, *positional, "--tol", "1e-3"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --tol 1e-3" in capsys.readouterr().err
    assert "--tol" not in _commands()[command].format_help()
