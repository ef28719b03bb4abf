"""The package surface: each public name is listed once, resolves on
first use, and a subcommand imports only the modules it runs."""
import os
import subprocess
import sys

import pytest

import latinop

# the public names, in the order of latinop.__all__
PUBLIC = [
    "CeilingError", "CellSet", "DeltaReport", "FormatError", "GraphStats", "HypercubeGraph",
    "LatinOp", "OperadReport", "Paratopism", "RawOp", "SlotPermutation", "Transversal",
    "ValidationError", "act", "alternating_sum", "apply_paratopism", "automorphisms",
    "block_permutation", "canonical_form", "compose_at", "compose_perm_at", "conjugate",
    "count_all", "count_transversals", "delta_check", "embed_permutation", "emit_lhc",
    "emit_lhcs", "emit_tsv", "enumerate_all", "find_transversals", "function_of", "graph_of",
    "graph_stats", "hypercube_graph", "is_homomorphism", "is_latin", "is_latin_cellset",
    "orbit_census", "paratopism_group_order", "parse_lhc", "parse_lhcs", "parse_tsv",
    "projection_tau", "pullback_compose", "random_latin", "restrict", "unit",
    "verify_operad_axioms",
]

Z3 = "3 2\n0 1 2\n1 2 0\n2 0 1\n"


def test_all_is_pinned():
    assert latinop.__all__ == PUBLIC


def test_every_public_name_resolves_to_its_definition():
    for name in PUBLIC:
        value = getattr(latinop, name)
        assert getattr(sys.modules[value.__module__], name) is value


def test_star_import_binds_exactly_the_public_names():
    namespace = {}
    exec("from latinop import *", namespace)
    assert sorted(set(namespace) - {"__builtins__"}) == PUBLIC


def test_dir_lists_the_public_names():
    assert set(PUBLIC) | {"__version__"} <= set(dir(latinop))


def test_unknown_attribute_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        latinop.no_such_name
    assert not hasattr(latinop, "_compose_table")


def loaded(code, *argv):
    """The stdout lines of a fresh interpreter running code with argv, whose
    last line lists the latinop modules it loaded."""
    code += "\nprint(*sorted(m for m in sys.modules if m.split('.')[0] == 'latinop'))"
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(latinop.__file__)))
    proc = subprocess.run([sys.executable, "-c", code, *argv], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()


def test_import_loads_no_submodule():
    assert loaded("import sys, latinop") == ["latinop"]


def test_submodule_resolves_without_its_import():
    lines = loaded("import sys, latinop\nprint(latinop.core.LatinOp.__module__)")
    assert lines == ["latinop.core", "latinop latinop.core"]


CLI = "import sys\nfrom latinop.cli import main\nassert main(sys.argv[1:]) == 0"


def test_check_loads_only_core_and_formats(tmp_path):
    (tmp_path / "z3.lhc").write_text(Z3)
    lines = loaded(CLI, "check", str(tmp_path / "z3.lhc"))
    assert lines == ["latin: true", "latinop latinop.cli latinop.core latinop.formats"]


@pytest.mark.parametrize("argv", [
    ["compose", "z3.lhc", "z3.lhc", "--slot", "1"],
    ["act", "z3.lhc", "--perm", "2 1"],
    ["restrict", "z3.lhc", "--slot", "1", "--value", "0"],
    ["pullback-compose", "z3.lhc", "z3.lhc", "--slot", "2"],
])
def test_operad_commands_load_no_search(tmp_path, argv):
    (tmp_path / "z3.lhc").write_text(Z3)
    argv = [str(tmp_path / a) if a == "z3.lhc" else a for a in argv]
    modules = loaded(CLI, *argv)[-1].split()
    assert "latinop.operad" in modules and "latinop.enumeration" not in modules


@pytest.mark.parametrize("argv", [
    ["check", "z3.lhc"],
    ["compose", "z3.lhc", "z3.lhc", "--slot", "1"],
    ["conjugate", "xor3.lhc", "--slot", "2"],
    ["act", "xor3.lhc", "--perm", "3 1 2"],
    ["restrict", "xor3.lhc", "--slot", "1", "--value", "0"],
    ["enumerate", "--n", "3", "--d", "2", "--count"],
    ["random", "--n", "3", "--d", "2", "--seed", "1"],
    ["transversals", "z3.lhc"],
    ["delta", "z3.lhc", "--transversal", "z3.tsv"],
    ["canon", "z3.lhc"],
    ["orbits", "--n", "3", "--d", "2"],
    ["graph", "xor3.lhc", "--stats"],
    ["verify-operad", "--n", "2", "--max-degree", "2"],
    ["autos", "z3.lhc"],
    ["pullback-compose", "xor3.lhc", "xor3.lhc", "--slot", "2"],
], ids=lambda argv: argv[0])
def test_no_command_loads_dataclasses(tmp_path, argv):
    # dataclasses imports inspect, ast, dis and tokenize: the value types
    # are plain slotted classes, so that no command pays for them at start-up
    inputs = {"z3.lhc": Z3, "z3.tsv": "0 0 0\n1 1 2\n2 2 1\n",
              "xor3.lhc": "2 3\n0 1\n1 0\n1 0\n0 1\n"}
    for name, text in inputs.items():
        (tmp_path / name).write_text(text)
    argv = [str(tmp_path / a) if a in inputs else a for a in argv]
    lines = loaded(CLI + "\nprint('dataclasses' in sys.modules)", *argv)
    assert lines[-2] == "False"
