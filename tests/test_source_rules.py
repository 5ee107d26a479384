"""Source rules: the package has one atomic writer, called only in ``io.py``, one decimal float format
(applied in bulk, with ``%`` only per element in its fallback) and one number
formatter, one place that opens files, one that packs byte layouts and one
JSON encoder, all in ``io.py``, where no writer packs the float32 dtype
code, and one eigendecomposition, one symmetrizer and one conversion of
an array argument (``_numeric``, whose only callers are ``_real``, to float64,
and ``_indices``, to int64) and one scan of a float array argument's rank, emptiness and
finiteness (``_finite``), in ``linalg.py``, so no module grows a second copy
of any; the symmetrizer runs only on a matrix product or inside ``_symmetric``, and the adapt loop pools
its moments with ``linalg._pooled``, not through the accumulator; it keeps no public definition that
nothing reads; the adapt loop and the gradient solver's loop call kernels,
never the checked public functions around them, and build the one checked
transform after the loop; the experiments measure and fold in the
statistics they built without re-checking them; the test rows are scored
once, in ``pseudo_source._scored``, ahead of the batch loop; the adapt loop,
``pipeline._batches``, has one solver, the closed form, and is the one place
that selects the pseudo-source, whose record the alignment trace takes, while
only the trace runs the gradient solver; the adapt path and the closed form
import nothing from the theory experiments; only ``io.py`` imports ``concurrent.futures``, and no module
``threading`` or ``multiprocessing``; the CLI restates no shift name or selection mode, builds no CSV header and
routes each sub-command through the handler its sub-parser sets; the package imports at module top only,
with no cycle between ``head.py`` (the model and the label rule) and ``io.py`` (every file format,
the head JSON included); no module but ``__init__`` imports a name it never
reads; and every module and name the benchmark imports stays importable."""

import ast
import importlib
from pathlib import Path

import pytest

import tcalign

PACKAGE = Path(tcalign.__file__).parent
BENCH = Path(__file__).resolve().parents[1] / "bench"


@pytest.mark.parametrize(
    "needle", ["os.replace", "_atomic_write", ".17g", "open(", "import struct", "import json", "json.dumps"]
)
def test_only_io_renames_files_and_formats_floats(needle):
    sources = {path.name: path.read_text(encoding="utf-8") for path in PACKAGE.glob("*.py")}
    assert needle in sources.pop("io.py")
    assert [name for name, text in sorted(sources.items()) if needle in text] == []


def test_only_io_imports_the_thread_pool_and_no_module_threads_or_processes():
    # the package runs in one process; io's CSV writer is the one user of
    # threads, through concurrent.futures' pool (5.5-9 ms of import on every
    # CLI start, under -X importtime), and no module starts threads or
    # processes of its own
    imported = sorted(
        (name.split(".")[0], path.name)
        for path in PACKAGE.glob("*.py")
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, (ast.Import, ast.ImportFrom)) and not getattr(node, "level", 0)
        for name in ([node.module] if isinstance(node, ast.ImportFrom) else [a.name for a in node.names])
    )
    assert [owner for name, owner in imported if name == "concurrent"] == ["io.py"]
    assert [(name, owner) for name, owner in imported if name in ("threading", "multiprocessing")] == []


def test_imports_only_at_module_top():
    # a function-level import is how a cycle hides; io imports head at the top
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(PACKAGE.glob("*.py"))
        for function in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(function, (ast.FunctionDef, ast.AsyncFunctionDef))
        for node in ast.walk(function)
        if isinstance(node, (ast.Import, ast.ImportFrom))
    ]
    assert found == []


def test_every_module_level_import_is_read():
    # an import nothing reads is dead weight at import time; the package's
    # __init__ imports names only to re-export them
    unread = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in tree.body:
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                bound = [(alias.asname or alias.name).split(".")[0] for alias in node.names]
                unread += [f"{path.name}:{name}" for name in bound if name not in read]
    assert unread == []


def test_head_is_the_model_and_io_every_format():
    # head.py imports nothing from io, and the head JSON codec is io's
    tree = ast.parse((PACKAGE / "head.py").read_text(encoding="utf-8"))
    imported = [node for node in ast.walk(tree) if isinstance(node, (ast.Import, ast.ImportFrom))]
    sources = {getattr(node, "module", None) or "" for node in imported}
    sources |= {alias.name for node in imported for alias in node.names}
    assert [name for name in sorted(sources) if name.split(".")[-1] == "io"] == []
    owners = {
        node.name: path.name
        for path in sorted(PACKAGE.glob("*.py"))
        for node in ast.parse(path.read_text(encoding="utf-8")).body
        if isinstance(node, ast.FunctionDef) and node.name in ("load_head", "save_head")
    }
    assert owners == {"load_head": "io.py", "save_head": "io.py"}


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


def _calls(path: Path, name: str) -> list[tuple[str, ast.Call]]:
    """(``module:innermost function``, call) of each call of ``name`` in a module."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    owners = {  # innermost function of each node: ast.walk visits outer ones first
        id(node): f"{path.name}:{function.name}"
        for function in ast.walk(tree)
        if isinstance(function, ast.FunctionDef)
        for node in ast.walk(function)
    }
    return [
        (owners.get(id(node), path.name), node)
        for node in ast.walk(tree)
        if isinstance(node, ast.Call) and ast.unparse(node.func) == name
    ]


def test_no_writer_packs_float32():
    # .tcae files are written as float64 only: DTYPE_F32 is named by its own
    # definition and the PAYLOAD_DTYPES table the reader looks codes up in,
    # and the one header packed with EMBEDDING_LAYOUT carries DTYPE_F64
    uses = [
        f"{path.name}:{ast.unparse(statement.targets[0]) if isinstance(statement, ast.Assign) else statement.lineno}"
        for path in sorted(PACKAGE.glob("*.py"))
        for statement in ast.parse(path.read_text(encoding="utf-8")).body
        for node in ast.walk(statement)
        if "DTYPE_F32" in {getattr(node, "id", None), getattr(node, "attr", None)}
    ]
    assert uses == ["io.py:DTYPE_F32", "io.py:PAYLOAD_DTYPES"]
    packed = [
        ast.unparse(node.args[2])
        for _, node in _calls(PACKAGE / "io.py", "struct.pack")
        if ast.unparse(node.args[0]) == "EMBEDDING_LAYOUT"
    ]
    assert packed == ["DTYPE_F64"]


def test_symmetrized_only_after_a_product_or_a_boundary_check():
    # moments are exactly symmetric when built, so _symmetrized is left only
    # where a matrix product rounds its two triangles apart, and in
    # linalg._symmetric, which accepts a public entry's asymmetry within
    # SYMMETRY_ATOL x max|entry| and returns the matrix symmetrized
    found, offenders = [], []
    for path in sorted(PACKAGE.glob("*.py")):
        for owner, node in _calls(path, "_symmetrized"):
            (arg,) = node.args
            found.append(owner)
            product = isinstance(arg, ast.BinOp) and isinstance(arg.op, ast.MatMult)
            if not (product or owner == "linalg.py:_symmetric"):
                offenders.append(f"{owner}:{node.lineno}: {ast.unparse(node)}")
    assert "linalg.py:_symmetric" in found and offenders == []


def test_arguments_are_converted_only_by_the_gate():
    # linalg._numeric is the one conversion of an array argument, which _real
    # takes to float64, so a new entry point cannot grow its own conversion
    found = sorted(owner for path in PACKAGE.glob("*.py") for owner, _ in _calls(path, "np.asarray"))
    assert found == ["linalg.py:_numeric", "linalg.py:_real"]


def test_the_gate_has_two_doors():
    # every array argument leaves the gate through _real, as float64, or
    # _indices, as int64; no other function, here or in another module, reaches it
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8")) for path in PACKAGE.glob("*.py")}
    assert [name for name, tree in sorted(trees.items()) if "_numeric" in _referenced_names(tree)] == ["linalg.py"]
    found = sorted(owner for owner, _ in _calls(PACKAGE / "linalg.py", "_numeric"))
    assert found == ["linalg.py:_indices", "linalg.py:_real"]


def test_only_the_door_scans_arguments_for_non_finite_entries():
    # linalg._finite checks every float array argument's rank, emptiness and
    # finiteness; the others read np.isfinite for a reason of their own: the
    # .tcae reader refuses a payload with ParseError, _pearson returns None, and
    # the rest check values they computed themselves
    found = sorted(owner for path in PACKAGE.glob("*.py") for owner, _ in _calls(path, "np.isfinite"))
    assert sorted(set(found)) == [
        "experiments.py:_descent",
        "experiments.py:_pearson",
        "head.py:softmax_rows",
        "io.py:_fill_floats",
        "io.py:read_embeddings",
        "linalg.py:_finite",
        "linalg.py:_moments",
        "linalg.py:_pooled",
        "linalg.py:_power",
        "linalg.py:_shrink",
    ]


def test_adapt_loop_pools_triples_without_the_accumulator():
    # the loop keeps (count, mean, scatter) triples and pools them with
    # linalg._pooled, which CovarianceAccumulator wraps for the public API
    names = _referenced_names(ast.parse((PACKAGE / "pipeline.py").read_text(encoding="utf-8")))
    assert "CovarianceAccumulator" not in names and "_pooled" in names


def test_only_linalg_calls_numpy_linalg():
    # one eigendecomposition (linalg._eigh), so no module grows a second solver
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


# The batch loop of the adapt path (_batches, which _adapt drains), with the
# module that owns each function, and the checked public functions whose
# kernels it calls instead; the test matrix is checked once, in _check_test,
# and the transform once, when _adapt returns it.
ADAPT_LOOP = {
    "_scored": "pseudo_source.py",
    "_fold": "pseudo_source.py",
    "_source_root": "transform.py",
    "_adapted_head": "transform.py",
    "_mapped": "transform.py",
    "_recolor": "transform.py",
    "_batches": "pipeline.py",
    "_adapt": "pipeline.py",
}
CHECKED_ENTRIES = {
    "_finite",
    "AlignmentTransform",
    "correlation_distance",
    "validate_embeddings",
    "covariance",
    "batch_uncertainties",
    "most_certain",
    "solve_closed_form",
    "shrink",
    "spd_power",
    "predict",
    "SoftmaxHead",
}


def _top_level_functions(module: str) -> dict[str, ast.FunctionDef]:
    tree = ast.parse((PACKAGE / module).read_text(encoding="utf-8"))
    return {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}


def test_adapt_loop_calls_no_checked_entry_point():
    bodies = {
        name: function.body
        for module in sorted(set(ADAPT_LOOP.values()))
        for name, function in _top_level_functions(module).items()
        if ADAPT_LOOP.get(name) == module
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


def _definitions(path: Path) -> set[str]:
    """Names a module defines at its top: functions, classes and assigned names."""
    names = set()
    for node in ast.parse(path.read_text(encoding="utf-8")).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, ast.Assign):
            names.update(target.id for target in node.targets if isinstance(target, ast.Name))
    return names


def test_each_adapt_decision_has_one_owner():
    # pipeline.py is the loop: it imports the scoring and selection of
    # pseudo_source and the map and source root of transform, and
    # experiments takes from it only the config, the boundary checks and the
    # loop's records
    definitions = {path.name: _definitions(path) for path in sorted(PACKAGE.glob("*.py"))}
    owners = {name: module for module, names in definitions.items() for name in names if name in ADAPT_LOOP}
    assert owners == ADAPT_LOOP
    selection_modes = [module for module, names in definitions.items() if "SELECTION_MODES" in names]
    assert selection_modes == ["pseudo_source.py"]
    tree = ast.parse((PACKAGE / "experiments.py").read_text(encoding="utf-8"))
    from_pipeline = [
        alias.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom) and node.module == "pipeline"
        for alias in node.names
    ]
    assert sorted(from_pipeline) == ["AdaptConfig", "_batches", "_check_test", "_source_covariance"]
    pipeline = _referenced_names(ast.parse((PACKAGE / "pipeline.py").read_text(encoding="utf-8")))
    assert {"_power", "_shrink", "_symmetrized"} & pipeline == set()
    # the ridge-and-root of sigma_s_hat, _power(_shrink(...), 0.5), is written once
    roots = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for function in tree.body:
            for node in ast.walk(function):
                if (
                    isinstance(node, ast.Call)
                    and getattr(node.func, "id", None) == "_power"
                    and isinstance(node.args[0], ast.Call)
                    and getattr(node.args[0].func, "id", None) == "_shrink"
                    and ast.unparse(node.args[1]) == "0.5"
                ):
                    roots.append(f"{path.name}:{getattr(function, 'name', '')}")
    assert roots == ["transform.py:_source_root"]


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
    # experiment, over the whole matrix, never per batch; the public
    # batch_uncertainties wraps the kernel for checked callers
    found = []
    for module in ("experiments.py", "pipeline.py", "pseudo_source.py", "transform.py"):
        tree = ast.parse((PACKAGE / module).read_text(encoding="utf-8"))
        owners = {  # innermost function of each node: ast.walk visits outer ones first
            id(node): function.name
            for function in ast.walk(tree)
            if isinstance(function, ast.FunctionDef)
            for node in ast.walk(function)
        }
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and node.id == "_uncertainties":
                found.append(f"{module}:{owners.get(id(node))}:_uncertainties")
            elif (
                isinstance(node, ast.Call)
                and getattr(node.func, "id", None) == "softmax_rows"
                and [ast.unparse(arg) for arg in node.args[1:]] == ["head.weight", "head.bias"]
            ):
                found.append(f"{module}:{owners.get(id(node))}:softmax_rows")
    assert sorted(found) == [
        "pseudo_source.py:_scored:_uncertainties",
        "pseudo_source.py:_scored:softmax_rows",
        "pseudo_source.py:batch_uncertainties:_uncertainties",
    ]


def test_gradient_loop_calls_no_checked_objective():
    # the descent's loop carries its residual through the unchecked kernel
    tree = ast.parse((PACKAGE / "experiments.py").read_text(encoding="utf-8"))
    (descent,) = [node for node in tree.body if isinstance(node, ast.FunctionDef) and node.name == "_descent"]
    (loop,) = [node for node in ast.walk(descent) if isinstance(node, ast.For)]
    assert {"objective", "objective_gradient"} & _referenced_names(loop) == set()


def test_trace_iterates_the_descent_on_values_it_built():
    # the trace runs _descent itself, so the matrices it built are not checked
    # again by the public solver or by the public ridge
    tree = ast.parse((PACKAGE / "experiments.py").read_text(encoding="utf-8"))
    (trace,) = [
        node for node in tree.body if isinstance(node, ast.FunctionDef) and node.name == "validate_alignment_trace"
    ]
    names = _referenced_names(trace)
    assert {"solve_gradient", "shrink", "iterate_hook"} & names == set()
    assert {"_descent", "_shrink"} <= names
    assert not any(isinstance(node, ast.Nonlocal) for node in ast.walk(tree))


def test_one_correlation_kernel():
    # spearman and the trace's R^2 share one Pearson kernel, the only square
    # root taken in experiments.py
    tree = ast.parse((PACKAGE / "experiments.py").read_text(encoding="utf-8"))
    functions = {node.name: node for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)}
    roots = {
        name
        for name, function in functions.items()
        for node in ast.walk(function)
        if isinstance(node, ast.Call) and "sqrt" in {getattr(node.func, "attr", None), getattr(node.func, "id", None)}
    }
    assert roots == {"_pearson"}
    for name in ("spearman", "validate_alignment_trace"):
        assert "_pearson" in _referenced_names(functions[name])


SOLVES = {"_closed_form", "solve_closed_form", "solve_gradient", "_descent"}


def test_adapt_loop_has_one_solver():
    # one closed-form solve per batch, in _batches, which _adapt drains; the
    # alignment trace takes its statistics from _batches' one transductive
    # record and runs the gradient solver itself, never through _adapt
    functions = {
        (name, node.name): node
        for name in ("pipeline.py", "experiments.py")
        for node in ast.parse((PACKAGE / name).read_text(encoding="utf-8")).body
        if isinstance(node, ast.FunctionDef)
    }
    batches, adapt = functions["pipeline.py", "_batches"], functions["pipeline.py", "_adapt"]
    trace = functions["experiments.py", "validate_alignment_trace"]
    for function, solves in ((batches, ["_closed_form"]), (adapt, [])):
        calls = [
            node.func.id
            for node in ast.walk(function)
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
        ]
        assert [name for name in calls if name in SOLVES] == solves
        parameters = {node.arg for node in ast.walk(function) if isinstance(node, ast.arg)}
        names = _referenced_names(function) | parameters
        assert {"solve_gradient", "iterate_hook", "partial"} & names == set()
    assert "_batches" in _referenced_names(adapt)
    assert {"_adapt", "_closed_form"} & _referenced_names(trace) == set()
    assert "_batches" in _referenced_names(trace)


def test_the_selection_rule_has_one_home():
    # pipeline selects the pseudo-source, roots it and solves against it only
    # inside _batches, whose one transductive record the alignment trace
    # takes; pseudo_source defines _fold, and no module but pipeline reads it
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8")) for path in PACKAGE.glob("*.py")}
    assert sorted(name for name, tree in trees.items() if "_fold" in _referenced_names(tree)) == ["pipeline.py"]
    owners = {
        id(node): function.name
        for function in trees["pipeline.py"].body
        if isinstance(function, ast.FunctionDef)
        for node in ast.walk(function)
    }
    uses = sorted(
        f"{owners.get(id(node), '<module>')}:{node.id}"
        for node in ast.walk(trees["pipeline.py"])
        if isinstance(node, ast.Name) and node.id in {"_fold", "_source_root", "_closed_form"}
    )
    assert uses == ["_batches:_closed_form", "_batches:_fold", "_batches:_source_root"]


EXPERIMENT_NAMES = {"solve_gradient", "_descent", "SolverTrace", "objective", "spearman", "_pearson"}


@pytest.mark.parametrize("module", ["pipeline.py", "pseudo_source.py", "transform.py"])
def test_adapt_path_does_not_reach_into_experiments(module):
    # dependencies run one way: experiments imports the adapt path's kernels
    tree = ast.parse((PACKAGE / module).read_text(encoding="utf-8"))
    modules = {node.module or "" for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)}
    modules |= {alias.name for node in ast.walk(tree) if isinstance(node, ast.Import) for alias in node.names}
    assert [name for name in sorted(modules) if "experiments" in name] == []
    # _referenced_names holds the names of ``from . import experiments`` too
    assert ({"experiments"} | EXPERIMENT_NAMES) & _referenced_names(tree) == set()


def test_the_cli_restates_no_choice():
    # the shift names and selection modes are read from synth and
    # pseudo_source, and main calls the handler each sub-parser sets, so
    # nothing in cli.py names or branches on a sub-command or a shift
    from tcalign.pseudo_source import SELECTION_MODES
    from tcalign.synth import SHIFTS

    tree = ast.parse((PACKAGE / "cli.py").read_text(encoding="utf-8"))
    strings = {node.value for node in ast.walk(tree) if isinstance(node, ast.Constant)}
    assert strings & {*SHIFTS, *SELECTION_MODES, *(mode.replace("_", "-") for mode in SELECTION_MODES)} == set()
    read = [ast.unparse(node) for node in ast.walk(tree) if isinstance(node, ast.Attribute)]
    assert {"args.command", "args.experiment"} & set(read) == set()
    compared = [ast.unparse(node) for node in ast.walk(tree) if isinstance(node, (ast.Compare, ast.IfExp))]
    assert [text for text in compared if "args.shift" in text] == []
    assert "_COMMANDS" not in _definitions(PACKAGE / "cli.py")


def test_the_cli_builds_no_csv_header():
    # io.table_to_csv reads a theory table's header off its row dataclass, so
    # cli.py imports nothing from dataclasses and names no row type
    import dataclasses

    from tcalign import experiments

    rows = {name for name, kind in vars(experiments).items() if name.endswith("Row") and dataclasses.is_dataclass(kind)}
    assert {"GroupRow", "TraceRow"} <= rows
    tree = ast.parse((PACKAGE / "cli.py").read_text(encoding="utf-8"))
    modules = {node.module for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)}
    modules |= {alias.name for node in ast.walk(tree) if isinstance(node, ast.Import) for alias in node.names}
    assert "dataclasses" not in modules
    assert rows & _referenced_names(tree) == set()


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
