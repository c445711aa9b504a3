"""Only `prime_core` reads the flag layout: no other module of the package names
the wheel tables, the integer-to-bit mapping (`_last_bit`, `_integers`) or a prime
table's private state and counters. And no analytic
reads a prime list: `primes_upto` is kept for callers outside the package."""

import ast
from pathlib import Path

import ramprimes

LAYOUT = {"_WHEEL", "_LAST", "_MASKS", "_SHIFTS", "_HALF_SHIFTS", "_OUT_OF_BAND",
          "_packed", "_words", "_supers", "_flagged", "_through", "_integers", "_last_bit"}
PRIME_LIST = {"primes_upto", "classified_primes"}
LIST_FREE = ("run_stats.py", "twin_stats.py", "gap_analysis.py", "ramanujan_core.py", "cli.py")


def referenced_names(tree: ast.AST):
    """(line, name) of each name, attribute, imported name and string constant in `tree`."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.lineno, node.id
        elif isinstance(node, ast.Attribute):
            yield node.lineno, node.attr
        elif isinstance(node, ast.ImportFrom):
            yield from ((node.lineno, alias.name) for alias in node.names)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            yield node.lineno, node.value  # getattr(table, "_packed")


def test_only_prime_core_reads_the_flag_layout():
    modules = sorted(Path(ramprimes.__file__).parent.glob("*.py"))
    others = [path for path in modules if path.name != "prime_core.py"]
    assert len(others) == len(modules) - 1 and any(p.name == "ramanujan_core.py" for p in others)
    leaks = [f"{path.name}:{line}: {name}" for path in others
             for line, name in referenced_names(ast.parse(path.read_text(), str(path)))
             if name in LAYOUT]
    assert leaks == []


def test_the_scan_finds_a_leak():
    leaky = "from .prime_core import _WHEEL\nn = primes._through(w)\ngetattr(pt, '_packed')\n"
    assert [name for _, name in referenced_names(ast.parse(leaky)) if name in LAYOUT] == [
        "_WHEEL", "_through", "_packed"]


def list_reads(path: Path):
    return [f"{path.name}:{line}: {name}"
            for line, name in referenced_names(ast.parse(path.read_text(), str(path)))
            if name in PRIME_LIST]


def test_no_analytic_reads_a_prime_list():
    package = Path(ramprimes.__file__).parent
    assert [read for name in LIST_FREE for read in list_reads(package / name)] == []


def test_the_scan_finds_a_prime_list_read(tmp_path):
    path = tmp_path / "run_stats.py"
    path.write_text("primes = rt.classified_primes(pt)\nlisted = pt.primes_upto(x)\n")
    assert list_reads(path) == ["run_stats.py:1: classified_primes", "run_stats.py:2: primes_upto"]
