"""The public surface: every export resolves, every argument that must be a
finite positive number is checked the same way, by errors.require_positive,
every finite number by errors.require_finite, the problem types take only
numbers, the package's lazy exports behave as attributes, and the package
imports nothing outside the standard library."""

import ast
import json
import math
import sys
from pathlib import Path

import pytest

import eulerfan
import eulerfan.cli
from eulerfan import (
    DomainError,
    GasLaw,
    RiemannProblem,
    State,
    build_s,
    check_reduced,
    lift_to_full,
    reduced_from,
    search_feasible,
    solve_standard,
    verify_construction,
    verify_full,
    verify_standard,
)
from eulerfan.cli import problem_dict
from eulerfan.errors import require_finite, require_positive

LAW_LOG = GasLaw(1.0, 1.0)

CASE5 = RiemannProblem(LAW_LOG, State(1, 0, 0), State(4, 0, -1))
CASE6 = RiemannProblem(LAW_LOG, State(1, 0, 0), State(4, 0, -1.5))

# each of these once got through one of the checked functions: a bool as 1.0,
# a string or None as a TypeError, an int beyond the floats as an
# OverflowError, and a negative or NaN tolerance as a passing certificate
NOT_POSITIVE = [True, False, "1e-12", None, 10**400, math.nan, math.inf, -math.inf, -1.0, 0.0]
NOT_POSITIVE_IDS = ["True", "False", "string", "None", "huge-int", "nan", "inf", "-inf", "-1", "0"]

not_positive = pytest.mark.parametrize("value", NOT_POSITIVE, ids=NOT_POSITIVE_IDS)
both_tolerances = pytest.mark.parametrize("name", ["tol_eq", "tol_strict"])


# The module-level tables of submodules that a source loads by name, the
# package's exports and the CLI's deferred names
LAZY_TABLES = ("_EXPORTS", "_DEFERRED")


def imported_modules(tree):
    """(line, module) of each module that the source ``tree`` of an eulerfan
    file imports: by an import statement, by a string argument of
    ``import_module`` or ``__import__``, or as a key of a lazy table.  A
    relative name, and a table key, is resolved within the package; an
    argument that is neither a string nor "." plus an expression (a name
    relative to the package) gives (line, None), since no module can be read
    from it."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            found += [(node.lineno, alias.name) for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            base = node.module if node.level == 0 else ".".join(filter(None, ["eulerfan", node.module]))
            found.append((node.lineno, base))
        elif isinstance(node, ast.Call) and getattr(node.func, "attr", getattr(node.func, "id", None)) in (
            "import_module",
            "__import__",
        ):
            arg = node.args[0] if node.args else None
            if isinstance(arg, ast.Constant) and isinstance(arg.value, str):
                name = arg.value
                found.append((node.lineno, "eulerfan" + name if name.startswith(".") else name))
            elif isinstance(arg, ast.BinOp) and isinstance(arg.op, ast.Add) and getattr(arg.left, "value", None) == ".":
                found.append((node.lineno, "eulerfan"))
            else:
                found.append((node.lineno, None))
    for node in tree.body:
        if isinstance(node, ast.Assign) and getattr(node.targets[0], "id", None) in LAZY_TABLES:
            if not isinstance(node.value, ast.Dict):
                found.append((node.lineno, None))
                continue
            for key in node.value.keys:
                name = key.value if isinstance(key, ast.Constant) and isinstance(key.value, str) else None
                found.append((key.lineno, None if name is None else "eulerfan." + name))
    return found


def third_party_imports(path):
    """(line, module) of each import in ``path`` (see imported_modules) that
    names neither the standard library nor a source file of the package
    beside ``path``; None for a module that cannot be read."""
    package = {source.stem for source in path.parent.glob("*.py")}
    bad = []
    for line, name in imported_modules(ast.parse(path.read_text(), str(path))):
        top, _, sub = (name or "").partition(".")
        if name is None or (top == "eulerfan" and sub.partition(".")[0] not in package | {""}):
            bad.append((line, name))
        elif top != "eulerfan" and top not in sys.stdlib_module_names:
            bad.append((line, top))
    return bad


def test_runtime_imports_only_the_standard_library():
    # deferred imports inside functions count too: ast.walk visits them
    sources = sorted(Path(eulerfan.__file__).parent.glob("*.py"))
    assert len(sources) > 1
    hits = {path.name: third_party_imports(path) for path in sources}
    assert {name: found for name, found in hits.items() if found} == {}
    # the guard reads the lazy tables: the CLI names the constructions only there
    cli_source = Path(eulerfan.__file__).parent / "cli.py"
    assert "eulerfan.wedge" in {name for _, name in imported_modules(ast.parse(cli_source.read_text()))}


# Ways to defer a numpy import that a scan of import statements alone would
# miss: (file, text, replacement, what the guard reports)
DEFERRED_NUMPY = {
    "import_module": ("oracles.py", "import math\n", "import math\nimport_module('numpy')\n", "numpy"),
    "dunder-import": ("oracles.py", "import math\n", "import math\n__import__('numpy.random')\n", "numpy"),
    "computed-name": ("oracles.py", "import math\n", "import math\nimport_module('num' + 'py')\n", None),
    "export-table": ("__init__.py", "_EXPORTS = {\n", "_EXPORTS = {\n    'numpy': ('ndarray',),\n", "eulerfan.numpy"),
    "deferred-table": ("cli.py", "_DEFERRED = {\n", "_DEFERRED = {\n    'numpy': ('ndarray',),\n", "eulerfan.numpy"),
}


@pytest.mark.parametrize("mutation", DEFERRED_NUMPY)
def test_a_deferred_third_party_import_is_caught(tmp_path, mutation):
    filename, text, replacement, reported = DEFERRED_NUMPY[mutation]
    for path in Path(eulerfan.__file__).parent.glob("*.py"):
        source = path.read_text()
        if path.name == filename:
            assert text in source
            source = source.replace(text, replacement, 1)
        (tmp_path / path.name).write_text(source)
    assert [name for _, name in third_party_imports(tmp_path / filename)] == [reported]


def test_every_export_resolves():
    assert [name for name in eulerfan.__all__ if not hasattr(eulerfan, name)] == []


def test_star_import_binds_exactly_the_exports():
    namespace = {}
    exec("from eulerfan import *", namespace)
    assert sorted(set(namespace) - {"__builtins__"}) == sorted(eulerfan.__all__)
    assert len(set(eulerfan.__all__)) == len(eulerfan.__all__)
    assert set(eulerfan.__all__) <= set(dir(eulerfan))


@pytest.mark.parametrize("module", [eulerfan, eulerfan.cli], ids=["eulerfan", "eulerfan.cli"])
def test_an_unknown_name_is_an_attribute_error(module):
    with pytest.raises(AttributeError, match="no_such_name"):
        module.no_such_name
    assert not hasattr(module, "no_such_name")


@not_positive
def test_require_positive_rejects(value):
    with pytest.raises(DomainError, match="^x must be"):
        require_positive("x", value)


@pytest.mark.parametrize("value", [1, 0.5, 5e-324, 1.7976931348623157e308, 2**1023])
def test_require_positive_returns_a_float(value):
    number = require_positive("x", value)
    assert type(number) is float and number == value


# NOT_POSITIVE less its last two, -1 and 0, which are finite, and a value
# below the minimum
NOT_FINITE = NOT_POSITIVE[:-2] + [0.5]
NOT_FINITE_IDS = NOT_POSITIVE_IDS[:-2] + ["below-minimum"]


@pytest.mark.parametrize("value", NOT_FINITE, ids=NOT_FINITE_IDS)
def test_require_finite_rejects(value):
    with pytest.raises(DomainError, match="^x must be"):
        require_finite("x", value, 1.0)


@pytest.mark.parametrize("value", [-1, 0, -0.0, -1.7976931348623157e308, -(2**1023), 1.5])
def test_require_finite_returns_a_float(value):
    # the minimum itself is allowed
    for number in (require_finite("x", value), require_finite("x", value, value)):
        assert type(number) is float and number == value


@not_positive
def test_check_reduced_tolerance_rejected(value):
    # at tol_strict=-1.0 the negative delta2 below was marked as passing
    with pytest.raises(DomainError, match="tol_strict"):
        check_reduced(CASE5, 2.0, -0.1, tol_strict=value)


@both_tolerances
@not_positive
def test_verify_full_tolerance_rejected(name, value):
    rho1, delta2 = search_feasible(CASE5)
    full = lift_to_full(CASE5, reduced_from(CASE5, rho1, delta2))
    with pytest.raises(DomainError, match=name):
        verify_full(CASE5, full, **{name: value})


@both_tolerances
@not_positive
def test_verify_standard_tolerance_rejected(name, value):
    with pytest.raises(DomainError, match=name):
        verify_standard(CASE5, solve_standard(CASE5), **{name: value})


# the glue certificate's equations use CURVE_TOL, so tol_strict is its one
# tolerance: a tol_eq was checked there and never read
@pytest.mark.parametrize("name", ["tol_strict"])
@not_positive
def test_verify_construction_tolerance_rejected(name, value):
    w = build_s(CASE6)
    with pytest.raises(DomainError, match=name):
        verify_construction(CASE6, w, **{name: value})


@pytest.mark.parametrize("value", [True, "4.0", None], ids=["True", "string", "None"])
def test_search_bound_rejected(value):
    # NaN is in test_subsolution's TestBoundedSearch
    with pytest.raises(DomainError, match="rho1_below"):
        search_feasible(CASE5, rho1_below=value)


def test_search_bound_beyond_the_floats_is_no_bound():
    assert search_feasible(CASE5, rho1_below=10**400) == search_feasible(CASE5)


# each was accepted (a bool, which problem_dict then wrote back as true) or
# leaked a TypeError (a string, None) or an OverflowError (an int beyond the
# floats) from GasLaw, State or RiemannProblem
NOT_A_NUMBER = [True, False, "1", None]
NOT_A_NUMBER_IDS = ["True", "False", "string", "None"]
not_a_number = pytest.mark.parametrize("value", NOT_A_NUMBER + [10**400], ids=NOT_A_NUMBER_IDS + ["huge-int"])


@pytest.mark.parametrize("name", ["K", "gamma"])
@not_a_number
def test_law_takes_only_numbers(name, value):
    with pytest.raises(DomainError, match=name):
        GasLaw(**dict({"K": 1.0, "gamma": 1.4}, **{name: value}))


@not_a_number
def test_state_density_takes_only_numbers(value):
    with pytest.raises(DomainError, match="density"):
        State(value, 0.0, 0.0)


@pytest.mark.parametrize("index", [1, 2], ids=["v1", "v2"])
@pytest.mark.parametrize("value", NOT_A_NUMBER, ids=NOT_A_NUMBER_IDS)
def test_state_velocities_take_only_numbers(index, value):
    args = [1.0, 0.0, 0.0]
    args[index] = value
    with pytest.raises(DomainError, match="velocities"):
        State(*args)


@pytest.mark.parametrize(
    "law, left, right",
    [
        ((1.0, 1.0), State(1, 0, 0), State(4, 0, -1)),
        (LAW_LOG, (1, 0, 0), State(4, 0, -1)),
        (LAW_LOG, State(1, 0, 0), None),
        (LAW_LOG, State(1, 0, 0), State(4, 0, 10**400)),
        (LAW_LOG, State(1, 0, 0), State(4, 0, math.nan)),
    ],
    ids=["law-a-tuple", "left-a-tuple", "right-None", "huge-int-velocity", "nan-velocity"],
)
def test_problem_takes_a_law_and_two_states(law, left, right):
    with pytest.raises(DomainError):
        RiemannProblem(law, left, right)


def test_int_data_is_kept_as_given():
    # the artifacts of int data keep their bytes: 1, not 1.0
    p = RiemannProblem(GasLaw(1, 2), State(1, 0, 0), State(4, 0, -1))
    assert json.dumps(problem_dict(p), sort_keys=True) == (
        '{"law": {"K": 1, "gamma": 2}, "left": {"rho": 1, "v1": 0, "v2": 0}, '
        '"right": {"rho": 4, "v1": 0, "v2": -1}}'
    )
