"""The package's public surface: every exported name resolves, once, and
importing it loads numpy and the package but no heavy optional module, nor
a numpy submodule that the run does not use."""
import ast
import importlib
import inspect
import json
import os
import pkgutil
import re
import subprocess
import sys
from pathlib import Path

import remvqe

ROOT = Path(__file__).resolve().parents[1]

# Run in a fresh interpreter: the test modules themselves import scipy and xml.
# The finder makes any attempt to import scipy fail, so a run that needs it
# errors out instead of loading it.
_IMPORT_PROBE = """
import json, sys

HEAVY = ("scipy", "xml", "urllib.request", "http", "ssl", "email")


class NoScipy:
    def find_spec(self, name, path=None, target=None):
        if name == "scipy" or name.startswith("scipy."):
            raise ImportError(f"{name} is blocked")
        return None


sys.meta_path.insert(0, NoScipy())


def loaded():
    return sorted(m for m in HEAVY if any(k == m or k.startswith(m + ".") for k in sys.modules))


import numpy

with_numpy = set(sys.modules)


def numpy_added():
    # numpy >= 2 imports these two lazily, on first attribute access
    return [m for m in ("numpy.random", "numpy.ma") if m in set(sys.modules) - with_numpy]


import remvqe, remvqe.cli
from remvqe import EnergyEvaluator, builtin, h2_compact_spec, minimize, sweep_and_fit, uccsd_spec
from remvqe.experiments import RunConfig, cmd_single_point

stages = {"import": loaded()}
point = cmd_single_point(RunConfig(molecule="heh+", backend="noisy", mitigation="rem"))
stages["exact point"] = [point.record["optimizer"], point.converged, numpy_added()]
ev = EnergyEvaluator(builtin("h2").geometry(0.7414).hamiltonian, h2_compact_spec(), shots=1000)
sweep_and_fit(ev)
minimize(ev, "spsa", max_evals=10)
stages["sweep+spsa"] = loaded()
stages["sweep+spsa numpy"] = numpy_added()
ev = EnergyEvaluator(builtin("heh+").geometry(0.7899).hamiltonian, uccsd_spec(2))
stages["nelder-mead converged"] = minimize(ev, "nelder-mead").converged
stages["nelder-mead"] = loaded()
print(json.dumps(stages))
"""


def test_all_names_resolve_once():
    names = remvqe.__all__
    assert len(set(names)) == len(names)
    assert [name for name in names if not hasattr(remvqe, name)] == []
    namespace: dict = {}
    exec("from remvqe import *", namespace)
    assert set(names) <= set(namespace)
    # names no pipeline calls are test helpers now (tests/helpers.py)
    moved = {"dump", "four_pipelines", "hardware_efficient_spec", "hf_state", "is_compatible"}
    modules = (remvqe, remvqe.ansatz, remvqe.chemdata, remvqe.experiments, remvqe.pauli, remvqe.sim)
    assert [(m.__name__, name) for m in modules for name in moved if hasattr(m, name)] == []


def test_a_pauli_term_is_its_label():
    # a term is a (label, coefficient) pair and a measurement group a
    # (basis label, member indices) pair: no record stands for either
    gone = {"PauliString", "MeasurementGroup", "parse_pauli"}
    assert [(m.__name__, name) for m in (remvqe, remvqe.pauli) for name in gone if hasattr(m, name)] == []
    assert gone.isdisjoint(remvqe.__all__)


def test_forwarding_names_are_gone():
    # RemReport and format_confusion_csv serve callers directly, and sim._bind
    # is the only code that binds a Param
    gone = {"rem_report", "write_confusion_csv"}
    assert [(m.__name__, name) for m in (remvqe, remvqe.mitigation) for name in gone if hasattr(m, name)] == []
    assert gone.isdisjoint(remvqe.__all__)
    members = [(remvqe.Param, "resolve"), (remvqe.Gate, "resolved"), (remvqe.Circuit, "extended")]
    assert [(cls.__name__, name) for cls, name in members if hasattr(cls, name)] == []


def test_every_import_is_used():
    # a name a module imports but never reads is dead weight; the exceptions
    # are __init__'s re-exports and imports marked "# noqa: F401 <reason>"
    unused = []
    for path in sorted((ROOT / "src" / "remvqe").glob("*.py")):
        text = path.read_text()
        tree, lines = ast.parse(text), text.splitlines()
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in ast.walk(tree):
            if not isinstance(node, (ast.Import, ast.ImportFrom)) or getattr(node, "module", "") == "__future__":
                continue
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                exported = path.name == "__init__.py" and name in remvqe.__all__
                if name not in used and not exported and not re.search(r"# noqa: F401 \S", lines[alias.lineno - 1]):
                    unused.append((path.name, name))
    assert unused == []


def _imports(module: str) -> list[tuple[int, str]]:
    """(level, module) of each import statement in src/remvqe/<module>.py."""
    tree = ast.parse((ROOT / "src" / "remvqe" / f"{module}.py").read_text())
    nodes = list(ast.walk(tree))
    found = [(node.level, node.module or "") for node in nodes if isinstance(node, ast.ImportFrom)]
    found += [(0, alias.name) for node in nodes if isinstance(node, ast.Import) for alias in node.names]
    return found


def test_pauli_imports_no_package_module():
    # states sit above observables: sim reads Hamiltonians, pauli knows no state;
    # its records are built by _frozen, which imports the standard library only
    assert [m for level, m in _imports("pauli") if level or m.startswith("remvqe")] == ["_frozen"]
    stdlib = sys.stdlib_module_names
    assert [m for level, m in _imports("_frozen") if level or m.split(".")[0] not in stdlib] == []


def test_no_record_runs_generated_source():
    # dataclass compiles its methods from source text, filed as "<string>",
    # about a millisecond per class at import; the package's records use _frozen
    names = [m.name for m in pkgutil.iter_modules(remvqe.__path__)]
    modules = [importlib.import_module(f"remvqe.{name}") for name in names]
    methods = [
        (cls.__qualname__, name, inspect.unwrap(value))
        for module in [remvqe, *modules]
        for cls in vars(module).values()
        if isinstance(cls, type) and cls.__module__ == module.__name__
        for name, value in vars(cls).items()
    ]
    generated = [
        (cls, name) for cls, name, fn in methods
        if inspect.isfunction(fn) and fn.__code__.co_filename == "<string>"
    ]
    assert len(methods) > 100 and generated == []


def test_no_run_loads_scipy():
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run(
        [sys.executable, "-c", _IMPORT_PROBE],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    stages = json.loads(proc.stdout.splitlines()[-1])
    # pathlib imports urllib.parse, so plain urllib is allowed
    assert stages.pop("import") == stages.pop("sweep+spsa") == stages.pop("nelder-mead") == []
    # a run that draws nothing never loads numpy.random, and no run loads
    # numpy.ma, which np.unique imports
    assert stages["exact point"] == ["nelder-mead", True, []]
    assert "numpy.ma" not in stages["sweep+spsa numpy"]
    assert stages["nelder-mead converged"]
