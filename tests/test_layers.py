"""Read from the source with ``ast``: the engine's modules import only the
layers below them, so the enumeration oracle stays independent of what it
checks, only the batch layer names the memo and the row blocks, the batch
layer defines no public function, and the run rule is stated once. Outside
the engine, the runners' tau and gap rules, the index rule and the family
size rule are each stated once too."""

import ast
from pathlib import Path

import pytest

import gapsecretary

PACKAGE = Path(gapsecretary.__file__).parent

# the package modules each engine module must not import; None forbids all
FORBIDDEN = {
    "kernels": None,
    "exact": {"kernels", "batch", "montecarlo"},
    "batch": {"montecarlo"},
}


def _tree(module: str) -> ast.Module:
    return ast.parse((PACKAGE / f"{module}.py").read_text())


def _package_imports(module: str) -> set[str]:
    """The package modules, or names of the package itself, that a module's
    source imports anywhere in it."""
    found = set()
    for node in ast.walk(_tree(module)):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            package = "gapsecretary" if node.level else None
            base = ".".join(filter(None, (package, node.module)))
            names = [f"{base}.{alias.name}" for alias in node.names]
        else:
            continue
        for name in names:
            parts = name.split(".")
            if parts[0] == "gapsecretary":
                found.add(parts[1] if len(parts) > 1 else "gapsecretary")
    return found


@pytest.mark.parametrize("module", sorted(FORBIDDEN))
def test_engine_layer_imports(module):
    imported = _package_imports(module)
    forbidden = FORBIDDEN[module]
    bad = imported if forbidden is None else imported & forbidden
    assert not bad, f"{module} imports {sorted(bad)}"


def test_imports_are_read():
    assert _package_imports("batch") == {"core", "generators", "kernels"}
    assert _package_imports("exact") == {"core"}
    assert {"batch", "exact", "kernels"} <= _package_imports("montecarlo")


def _names(module: str) -> set[str]:
    """Every name a module's source reads, binds, imports or takes as an
    attribute."""
    found = set()
    for node in ast.walk(_tree(module)):
        if isinstance(node, ast.Name):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
        elif isinstance(node, ast.alias):
            found.add(node.name)
    return found


def test_only_batch_names_the_memo():
    # the memo is dropped by the batch layer's draws alone
    naming = sorted(p.stem for p in PACKAGE.glob("*.py") if "_last_batch" in _names(p.stem))
    assert naming == ["batch"]


def test_only_batch_names_the_row_blocks():
    # the batch decides the row blocks; every kernel takes whole arrays, and
    # montecarlo reads the block size alone, as the size of an l-select chunk
    for name, modules in (("_row_blocks", ["batch"]), ("_BLOCK_ELEMENTS", ["batch", "montecarlo"])):
        naming = sorted(p.stem for p in PACKAGE.glob("*.py") if name in _names(p.stem))
        assert naming == modules, name


@pytest.mark.parametrize("name", ["normalize_rows", "_threshold_state", "_l_select_state"])
def test_one_function_reads_a_block(name):
    # the batch is built in one loop over its row blocks, which normalizes
    # each block and reads it into the kernel states
    assert _callers("batch", name) == ["_built_batch"]


def test_batch_defines_no_public_function():
    # every entry point is in montecarlo, which checks the run first
    public = [node.name for node in _tree("batch").body
              if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_")]
    assert public == []
    assert "regenerate_profiles" in {node.name for node in _tree("montecarlo").body
                                     if isinstance(node, ast.FunctionDef)}


def _stating(message: str) -> list[str]:
    """The top-level definitions of the package whose source holds the
    string ``message``, as ``module.name``."""
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in _tree(path.stem).body:
            if any(isinstance(c, ast.Constant) and c.value == message for c in ast.walk(node)):
                found.append(f"{path.stem}.{getattr(node, 'name', '?')}")
    return found


@pytest.mark.parametrize(
    ("message", "owners"),
    [
        ("n must be an integer >= 1", ["montecarlo._check_run"]),
        ("iterations must be an integer >= 1", ["montecarlo._check_run"]),
        # SeededRng keeps its own check: generators cannot import the spec layer
        ("master seed must be a 64-bit non-negative integer",
         ["generators.SeededRng", "montecarlo._check_run"]),
    ],
    ids=["n", "iterations", "seed"],
)
def test_run_rule_stated_once(message, owners):
    assert _stating(message) == owners


def _definitions(module: str) -> dict[str, ast.FunctionDef]:
    """The top-level functions and methods of a module, by qualified name."""
    found = {}
    for node in _tree(module).body:
        if isinstance(node, ast.FunctionDef):
            found[node.name] = node
        elif isinstance(node, ast.ClassDef):
            for method in node.body:
                if isinstance(method, ast.FunctionDef):
                    found[f"{node.name}.{method.name}"] = method
    return found


def _calls(node: ast.AST) -> set[str]:
    """The names of the plain functions a definition calls."""
    return {c.func.id for c in ast.walk(node) if isinstance(c, ast.Call) and isinstance(c.func, ast.Name)}


def _raises(node: ast.AST) -> bool:
    return any(isinstance(n, ast.Raise) for n in ast.walk(node))


def _callers(module: str, name: str) -> list[str]:
    """The functions and methods of a module that call ``name``."""
    return [qualname for qualname, node in _definitions(module).items() if name in _calls(node)]


def test_reference_rules_stated_once():
    # the runners' tau and gap rules, each on the path every runner takes;
    # the engine's AlgorithmSpec keeps its own, which raises ConfigError
    assert _stating("tau must lie in [0, 1)") == ["algorithms._check_tau", "montecarlo.AlgorithmSpec"]
    assert _stating("gap must be non-negative, got ") == ["algorithms._normalized_view"]
    assert _callers("algorithms", "_check_tau") == [
        "PolicySchedule.__post_init__", "_first_acceptance", "run_l_selection_gap"
    ]
    # no runner tests its own gap, except the bounded rule's one test of
    # c_tilde and epsilon, which its max(c_tilde - epsilon, 0) would hide
    runners = {name: node for name, node in _definitions("algorithms").items() if name.startswith("run_")}
    assert [name for name, node in runners.items() if _raises(node)] == ["run_bounded_error"]


@pytest.mark.parametrize(
    ("module", "function"),
    [
        ("bounds", "_check_k"),
        ("bounds", "two_three_tie_prob"),
        ("bounds", "l_selection_bound"),
        ("core", "true_gap"),
        ("core", "WeightProfile.sorted_index"),
        ("algorithms", "run_l_selection_gap"),
        ("generators", "SeededRng.stream"),
    ],
)
def test_index_arguments_read_one_rule(module, function):
    assert "_check_index" in _calls(_definitions(module)[function])


def test_bounds_states_no_integer_test_of_its_own():
    assert "integer" not in _names("bounds")  # np.integer


def test_family_size_rule_stated_once():
    # draw_rows and the per-instance generators read one size rule, and the
    # generators check df and the superstar factor through InstanceFamily
    generators = ["gen_arrivals", "gen_pareto_power", "gen_exponential", "gen_chi_squared",
                  "gen_exp_superstar"]
    assert _callers("generators", "_check_size") == ["InstanceFamily.draw_rows", *generators]
    assert not any(_raises(_definitions("generators")[name]) for name in generators)
    assert {"gen_chi_squared", "gen_exp_superstar"} <= set(_callers("generators", "InstanceFamily"))


def test_cli_refuses_input_with_config_error():
    # UsageError duplicated ConfigError: both printed "error: ..." and exited 2
    assert "UsageError" not in _names("cli")
