"""Source rules: the package has one atomic writer, one decimal float format
(applied in bulk, with ``%`` only per element in its fallback) and one number
formatter, one place that opens files, one that packs byte layouts and one
JSON encoder, all in ``io.py``, and one eigendecomposition and one symmetrizer, in ``linalg.py``,
so no module grows a second copy of any; the symmetrizer runs only on a
matrix product or a matrix checked by ``_symmetric``, and the adapt loop pools
its moments with ``linalg._pooled``, not through the accumulator; it keeps no public definition that
nothing reads; the adapt loop and the gradient solver's loop call kernels,
never the checked public functions around them, and build the one checked
transform after the loop; the experiments measure and fold in the
statistics they built without re-checking them; the test rows are scored
once, in ``pipeline._scored``, ahead of the batch loop; the adapt loop has
one solver, the closed form, while only the alignment trace runs the gradient
solver; the adapt path and the closed form import nothing from the theory
experiments; and every module and name the benchmark imports stays importable."""

import ast
import importlib
from pathlib import Path

import pytest

import tcalign

PACKAGE = Path(tcalign.__file__).parent
BENCH = Path(__file__).resolve().parents[1] / "bench"


@pytest.mark.parametrize("needle", ["os.replace", ".17g", "open(", "import struct", "json.dumps"])
def test_only_io_renames_files_and_formats_floats(needle):
    sources = {path.name: path.read_text(encoding="utf-8") for path in PACKAGE.glob("*.py")}
    assert needle in sources.pop("io.py")
    assert [name for name, text in sorted(sources.items()) if needle in text] == []


def test_floats_are_formatted_in_bulk():
    # FLOAT_FORMAT % x is left only in io's per-element fallback, and no module
    # formats a row with a template % tuple, so the per-row writer cannot return
    readers, row_formats = [], []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        functions = [node for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)]
        for function in functions:
            for node in ast.walk(function):
                if isinstance(node, ast.Name) and node.id == "FLOAT_FORMAT":
                    readers.append(f"{path.name}:{function.name}")
        for node in ast.walk(tree):
            if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Mod):
                right = node.right
                if isinstance(right, ast.Tuple) or (
                    isinstance(right, ast.Call) and getattr(right.func, "id", None) == "tuple"
                ):
                    row_formats.append(f"{path.name}:{node.lineno}")
    assert readers == ["io.py:_fill_floats"]
    assert row_formats == []
    (fallback,) = [
        node
        for node in ast.walk(ast.parse((PACKAGE / "io.py").read_text(encoding="utf-8")))
        if isinstance(node, ast.BinOp) and getattr(node.left, "id", None) == "FLOAT_FORMAT"
    ]
    assert isinstance(fallback.op, ast.Mod) and isinstance(fallback.right, ast.Subscript)


def test_one_number_formatter():
    # the CSV index is printed through the float slots, not a formatter of its own
    tree = ast.parse((PACKAGE / "io.py").read_text(encoding="utf-8"))
    names = [node.name for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)]
    assert [name for name in names if name.startswith("_fill_")] == ["_fill_floats"]


def _adds_own_transpose(node: ast.AST) -> bool:
    """Whether ``node`` is ``X + X.T`` or ``X.T + X``."""
    if not (isinstance(node, ast.BinOp) and isinstance(node.op, ast.Add)):
        return False
    return any(
        isinstance(b, ast.Attribute) and b.attr == "T" and ast.dump(b.value) == ast.dump(a)
        for a, b in ((node.left, node.right), (node.right, node.left))
    )


def test_one_symmetrizer():
    # linalg._symmetrized halves before it adds, so that no finite entry
    # overflows; a second (a + a.T) / 2 would bring the overflow back
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        owners = {  # innermost function of each node: ast.walk visits outer ones first
            id(node): f"{path.name}:{function.name}"
            for function in ast.walk(tree)
            if isinstance(function, ast.FunctionDef)
            for node in ast.walk(function)
        }
        found += [owners.get(id(node), path.name) for node in ast.walk(tree) if _adds_own_transpose(node)]
    assert found == ["linalg.py:_symmetrized"]


def test_symmetrized_only_after_a_product_or_a_boundary_check():
    # moments are exactly symmetric when built, so _symmetrized is left only
    # where a matrix product rounds its two triangles apart, or where a
    # public entry accepts asymmetry within SYMMETRY_ATOL (_symmetric)
    found, offenders = [], []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "_symmetrized":
                (arg,) = node.args
                found.append(path.name)
                product = isinstance(arg, ast.BinOp) and isinstance(arg.op, ast.MatMult)
                boundary = isinstance(arg, ast.Call) and getattr(arg.func, "id", None) == "_symmetric"
                if not (product or boundary):
                    offenders.append(f"{path.name}:{node.lineno}: {ast.unparse(node)}")
    assert found and offenders == []


def test_adapt_loop_pools_triples_without_the_accumulator():
    # the loop keeps (count, mean, scatter) triples and pools them with
    # linalg._pooled, which CovarianceAccumulator wraps for the public API
    names = _referenced_names(ast.parse((PACKAGE / "pipeline.py").read_text(encoding="utf-8")))
    assert "CovarianceAccumulator" not in names and "_pooled" in names


def test_only_linalg_calls_numpy_linalg():
    # one eigendecomposition (linalg._power), so no module grows a second solver
    sources = {path.name: path.read_text(encoding="utf-8") for path in PACKAGE.glob("*.py")}
    assert sources.pop("linalg.py").count("np.linalg.eigh(") == 1
    assert [name for name, text in sorted(sources.items()) if "np.linalg." in text] == []


def _referenced_names(tree: ast.AST) -> set[str]:
    """Names a module reads: bare names, attribute names and ``from ... import`` names."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            names.update(alias.name for alias in node.names)
    return names


def test_every_unexported_definition_is_used():
    # a public function or class outside tcalign.__all__ is kept only while
    # some code in the package reads it
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8")) for path in PACKAGE.glob("*.py")}
    referenced = set().union(*map(_referenced_names, trees.values()))
    unused = [
        f"{module}:{node.name}"
        for module, tree in sorted(trees.items())
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        and not node.name.startswith("_")
        and node.name not in tcalign.__all__
        and node.name not in referenced
    ]
    assert unused == []


# The batch loop of the adapt path and the checked public functions whose
# kernels it calls instead; the test matrix is checked once, in _check_test,
# and the transform once, when _adapt returns it.
ADAPT_LOOP = ("_fold", "_adapted_head", "_mapped", "_scored", "_adapt")
CHECKED_ENTRIES = {
    "AlignmentTransform",
    "correlation_distance",
    "validate_embeddings",
    "covariance",
    "batch_uncertainties",
    "most_certain",
    "class_quotas",
    "solve_closed_form",
    "shrink",
    "spd_power",
    "predict",
    "SoftmaxHead",
}


def test_adapt_loop_calls_no_checked_entry_point():
    tree = ast.parse((PACKAGE / "pipeline.py").read_text(encoding="utf-8"))
    bodies = {
        node.name: node.body
        for node in tree.body
        if isinstance(node, ast.FunctionDef) and node.name in ADAPT_LOOP
    }
    assert sorted(bodies) == sorted(ADAPT_LOOP)
    found = {
        name: sorted(CHECKED_ENTRIES & set().union(*map(_referenced_names, body)))
        for name, body in bodies.items()
    }
    assert found == {name: [] for name in ADAPT_LOOP} | {"_adapt": ["AlignmentTransform"]}
    # _adapt builds the checked transform once, in its return statement, after the loop
    (returned,) = [node for node in bodies["_adapt"] if isinstance(node, ast.Return)]
    builds = [
        node
        for node in ast.walk(ast.Module(bodies["_adapt"], []))
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "AlignmentTransform"
    ]
    assert len(builds) == 1 and builds[0] in ast.walk(returned)


@pytest.mark.parametrize("function", ["validate_uncertainty_groups", "validate_alignment_trace"])
def test_experiments_pass_values_to_kernels(function):
    # each group's and each trace record's covariance is built by the kernels,
    # so it is measured by linalg._distance and folded into the head as
    # arrays, not re-checked by the public entry points per group or record
    tree = ast.parse((PACKAGE / "experiments.py").read_text(encoding="utf-8"))
    (node,) = [node for node in tree.body if isinstance(node, ast.FunctionDef) and node.name == function]
    names = _referenced_names(node)
    assert {"AlignmentTransform", "correlation_distance"} & names == set()
    assert "_distance" in names


def test_rows_are_scored_only_in_scored():
    # the unadapted softmax and the uncertainty run once per adapt call or
    # experiment, over the whole matrix, never per batch
    tree = ast.parse((PACKAGE / "pipeline.py").read_text(encoding="utf-8"))
    owners = {  # innermost function of each node: ast.walk visits outer ones first
        id(node): function.name
        for function in ast.walk(tree)
        if isinstance(function, ast.FunctionDef)
        for node in ast.walk(function)
    }
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and node.id == "_uncertainties":
            found.append(f"{owners.get(id(node))}:_uncertainties")
        elif (
            isinstance(node, ast.Call)
            and getattr(node.func, "id", None) == "softmax_rows"
            and [ast.unparse(arg) for arg in node.args[1:]] == ["head.weight", "head.bias"]
        ):
            found.append(f"{owners.get(id(node))}:softmax_rows")
    assert sorted(found) == ["_scored:_uncertainties", "_scored:softmax_rows"]


def test_gradient_loop_calls_no_checked_objective():
    # the loop carries its residual through the unchecked kernel
    tree = ast.parse((PACKAGE / "experiments.py").read_text(encoding="utf-8"))
    (solver,) = [
        node for node in tree.body if isinstance(node, ast.FunctionDef) and node.name == "solve_gradient"
    ]
    (loop,) = [node for node in ast.walk(solver) if isinstance(node, ast.For)]
    assert {"objective", "objective_gradient"} & _referenced_names(loop) == set()


SOLVES = {"_closed_form", "solve_closed_form", "solve_gradient"}


def test_adapt_loop_has_one_solver():
    # one closed-form solve per batch; the alignment trace runs the gradient
    # solver on statistics it builds from the kernels, not through _adapt
    functions = {
        (name, node.name): node
        for name in ("pipeline.py", "experiments.py")
        for node in ast.parse((PACKAGE / name).read_text(encoding="utf-8")).body
        if isinstance(node, ast.FunctionDef)
    }
    adapt = functions["pipeline.py", "_adapt"]
    trace = functions["experiments.py", "validate_alignment_trace"]
    calls = [
        node.func.id
        for node in ast.walk(adapt)
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
    ]
    assert [name for name in calls if name in SOLVES] == ["_closed_form"]
    parameters = {node.arg for node in ast.walk(adapt) if isinstance(node, ast.arg)}
    names = _referenced_names(adapt) | parameters
    assert {"solve_gradient", "iterate_hook", "partial"} & names == set()
    assert {"_adapt", "_closed_form"} & _referenced_names(trace) == set()


EXPERIMENT_NAMES = {"solve_gradient", "SolverTrace", "objective", "spearman", "linear_fit_r2", "DEFAULT_LR"}


@pytest.mark.parametrize("module", ["pipeline.py", "transform.py"])
def test_adapt_path_does_not_reach_into_experiments(module):
    # dependencies run one way: experiments imports the adapt path's kernels
    tree = ast.parse((PACKAGE / module).read_text(encoding="utf-8"))
    modules = {node.module or "" for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)}
    modules |= {alias.name for node in ast.walk(tree) if isinstance(node, ast.Import) for alias in node.names}
    assert [name for name in sorted(modules) if "experiments" in name] == []
    # _referenced_names holds the names of ``from . import experiments`` too
    assert ({"experiments"} | EXPERIMENT_NAMES) & _referenced_names(tree) == set()


def test_benchmark_imports_resolve():
    # every ``from tcalign... import name`` in the benchmark's code
    imports = [
        (node.module, alias.name)
        for path in sorted(BENCH.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "tcalign"
        for alias in node.names
    ]
    for name in ("AdaptConfig", "SoftmaxHead", "adapt_transductive"):
        assert ("tcalign.pipeline", name) in imports
    missing = [f"{module}.{name}" for module, name in imports if not hasattr(importlib.import_module(module), name)]
    assert missing == []


def test_traced_layers_import():
    # bench/tracer.py wraps the public surface of each module in its LAYERS
    tree = ast.parse((BENCH / "tracer.py").read_text(encoding="utf-8"))
    (layers,) = [
        ast.literal_eval(node.value)
        for node in tree.body
        if isinstance(node, ast.Assign) and [ast.unparse(t) for t in node.targets] == ["LAYERS"]
    ]
    assert "pipeline" in layers and "transform" in layers
    for layer in layers:
        importlib.import_module(f"tcalign.{layer}")
