"""Tests for the product-surface census (``tools/census``).

The census is only as good as its keys: a dump row is a code object's
``(file, co_firstlineno, co_name)``, and ``census.py`` must derive the same
key from the AST, or a function the product runs reads as never called.
The recorder (``sitecustomize.py``) must also survive the ways a process
sheds a profiler: ``setprofile(None)``, threads and ``os._exit`` in a fork.
"""

from __future__ import annotations

import ast
import fnmatch
import os
import pathlib
import subprocess
import sys
import textwrap
import types

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[2]
CENSUS_DIR = ROOT / "tools" / "census"
sys.path.insert(0, str(CENSUS_DIR))

import census  # noqa: E402

MODULE = textwrap.dedent(
    '''\
    import abc


    def outer():
        x = 1

        def inner():
            return x

        return inner


    class Shape:
        @property
        @abc.abstractmethod
        def area(self):
            """Area."""

        def describe(self):
            return "shape"
    '''
)


@pytest.fixture
def tree(tmp_path):
    """A one-module ``src/repro`` under ``tmp_path``."""
    package = tmp_path / "src" / "repro"
    package.mkdir(parents=True)
    (package / "mod.py").write_text(MODULE, encoding="utf-8")
    return tmp_path


def _by_name(table):
    return {function.qualname: function for function in table}


def _function(qualname, kind, file="src/repro/a.py", line=1, lines=5, stay=None):
    function = census.Function(file, line, line, qualname, lines)
    function.kind = kind
    function.stay = stay
    return function


# -- reading the source ---------------------------------------------------


@pytest.mark.parametrize(
    "source, declares",
    [
        ("@abc.abstractmethod\ndef f(self):\n    return 1", True),
        ("@abstractmethod\ndef f(self):\n    return 1", True),
        ("def f():\n    pass", True),
        ("def f():\n    ...", True),
        ("def f():\n    raise NotImplementedError", True),
        ("def f():\n    raise NotImplementedError('subclass')", True),
        ('def f():\n    """Only a docstring."""', True),
        ("def f():\n    return 1", False),
        ('def f():\n    """Doc."""\n    return 1', False),
        ("def f():\n    raise ValueError('no')", False),
        ("def f():\n    pass\n    pass", False),
    ],
    ids=[
        "abstract-attribute",
        "abstract-name",
        "pass",
        "ellipsis",
        "raise-class",
        "raise-call",
        "docstring-only",
        "return",
        "docstring-and-return",
        "raise-other",
        "two-statements",
    ],
)
def test_declares_only(source, declares):
    assert census._declares_only(ast.parse(source).body[0]) is declares


def test_own_lines_leave_out_directly_nested_functions(tree):
    table = _by_name(census.functions(tree))
    assert table["outer.<locals>.inner"].lines == 2
    # outer spans seven lines, two of which are inner's.
    assert table["outer"].lines == 5
    assert table["Shape.describe"].lines == 2


def test_qualified_names_and_declarations(tree):
    table = _by_name(census.functions(tree))
    assert set(table) == {"outer", "outer.<locals>.inner", "Shape.area", "Shape.describe"}
    assert {f.file for f in table.values()} == {"src/repro/mod.py"}
    assert table["Shape.area"].declaration
    assert not table["Shape.describe"].declaration


def test_keys_equal_the_code_objects_a_dump_records(tree):
    """A decorated function is keyed by its first decorator's line, as CPython's."""
    compiled = compile(MODULE, "mod.py", "exec")
    recorded = set()
    pending = [compiled]
    while pending:
        code = pending.pop()
        for constant in code.co_consts:
            if isinstance(constant, types.CodeType):
                recorded.add(("src/repro/mod.py", constant.co_firstlineno, constant.co_name))
                pending.append(constant)
    keys = {function.key for function in census.functions(tree)}
    # the class body is a code object too, but not a function
    assert keys == recorded - {("src/repro/mod.py", 13, "Shape")}
    assert _by_name(census.functions(tree))["Shape.area"].first_line == 14


def test_every_key_in_the_source_tree_is_unique():
    keys = [function.key for function in census.functions()]
    assert len(keys) == len(set(keys))


def test_every_stay_pattern_matches_a_function():
    """A stay entry whose code is gone is stale and should leave the list."""
    names = [f"{f.file}::{f.qualname}" for f in census.functions()]
    stale = [
        pattern for pattern, _ in census.STAY
        if not any(fnmatch.fnmatchcase(name, pattern) for name in names)
    ]
    assert stale == []


# -- classifying ----------------------------------------------------------


def test_product_beats_tests_and_unseen_is_never(tree):
    keys = {f.qualname: f.key for f in census.functions(tree)}
    product = {keys["outer"]}
    tests = {keys["outer"], keys["Shape.describe"]}
    kinds = {f.qualname: f.kind for f in census.classify(product, tests, tree)}
    assert kinds == {
        "outer": "product",
        "outer.<locals>.inner": "never",
        "Shape.area": "never",
        "Shape.describe": "test-only",
    }


def test_a_declaration_stays_only_outside_the_product(tree):
    keys = {f.qualname: f.key for f in census.functions(tree)}
    outside = _by_name(census.classify(set(), set(), tree))
    assert outside["Shape.area"].stay == "declaration"
    assert outside["Shape.describe"].stay is None
    inside = _by_name(census.classify({keys["Shape.area"]}, set(), tree))
    assert inside["Shape.area"].stay is None


def test_a_stay_pattern_gives_its_reason(tree, monkeypatch):
    monkeypatch.setattr(census, "STAY", (("src/repro/mod.py::Shape.*", "kept on purpose"),))
    table = _by_name(census.classify(set(), set(), tree))
    assert table["Shape.describe"].stay == "kept on purpose"
    assert table["outer"].stay is None


def test_blocks_join_neighbours_and_break_at_product_stay_and_file():
    table = [
        _function("a", "test-only", line=1, lines=3),
        _function("b", "never", line=10, lines=4),
        _function("c", "product", line=20),
        _function("d", "never", line=30, lines=2),
        _function("e", "test-only", line=40, stay="fail-over"),
        _function("f", "never", line=50, lines=1),
        _function("g", "never", file="src/repro/b.py", line=1, lines=6),
    ]
    found = [[f.qualname for f in block.members] for block in census.blocks(table)]
    assert found == [["a", "b"], ["g"], ["d"], ["f"]]
    assert [block.lines for block in census.blocks(table)] == [7, 6, 2, 1]


def test_report_totals_and_block_threshold():
    table = [
        _function("big", "test-only", line=1, lines=census.BLOCK_LINES),
        _function("small", "never", file="src/repro/b.py", line=1, lines=census.BLOCK_LINES - 1),
        _function("kept", "never", file="src/repro/c.py", line=1, lines=4, stay="fail-over"),
        _function("run", "product", file="src/repro/d.py", line=1, lines=9),
    ]
    out = census.report(table, failed=0)
    big = census.BLOCK_LINES
    assert out[0] == "# product-surface census of src/repro (4 functions)"
    assert out[1].split() == ["#", "product", "1", "functions", "9", "lines"]
    assert out[2].split()[:6] == ["#", "test-only", "1", "functions", str(big), "lines"]
    assert "(stay: 1 functions, 4 lines)" in out[3]
    listed = [line for line in out if line.startswith("src/repro/") and "lines  " in line]
    assert listed == [f"src/repro/a.py:1-1  {big} lines  big (test-only)"]
    assert "src/repro/c.py:1  4  never  kept  [stay: fail-over]" in out
    assert not any(line.startswith("# WARNING") for line in out)


def test_report_lists_every_function_once_in_file_order():
    table = [
        _function("z", "product", file="src/repro/b.py", line=1),
        _function("y", "never", file="src/repro/a.py", line=9),
        _function("x", "test-only", file="src/repro/a.py", line=2),
    ]
    out = census.report(table, failed=0)
    listed = out[out.index("\n## functions (file:line  lines  class  qualified name)") + 1 :]
    assert [line.split()[0] for line in listed] == [
        "src/repro/a.py:2", "src/repro/a.py:9", "src/repro/b.py:1"
    ]


def test_report_warns_when_a_recorded_run_failed():
    out = census.report([_function("a", "product")], failed=2)
    assert out[1] == "# WARNING: 2 recorded run(s) exited non-zero; see the logs"


def test_the_product_runs_every_example_and_both_harness_modes():
    commands = census.runs("python")
    product = [" ".join(command[1:]) for command in commands["product"]]
    examples = sorted(path.relative_to(ROOT).as_posix() for path in (ROOT / "examples").glob("*.py"))
    assert examples and all(example in product for example in examples)
    assert product[0] == "-m pytest benchmarks -q -p no:cacheprovider"
    harness = "benchmarks/harness/run.py --workload all --seconds 2"
    assert [line for line in product if line.startswith(harness)] == [harness, f"{harness} --traced"]
    assert commands["tests"] == [["python", "-m", "pytest", "tests", "-q", "-p", "no:cacheprovider"]]


def test_seen_reads_every_dump(tmp_path):
    (tmp_path / "1-1.tsv").write_text("src/repro/a.py\t3\tf\nsrc/repro/a.py\t9\tg\n")
    (tmp_path / "2-1.tsv").write_text("src/repro/a.py\t3\tf\n")
    (tmp_path / "notes.txt").write_text("not a dump\n")
    assert census.seen(tmp_path) == {("src/repro/a.py", 3, "f"), ("src/repro/a.py", 9, "g")}


def test_reuse_classifies_a_kept_dump_directory(tmp_path):
    first, second = census.functions()[:2]
    for name, function in (("product", first), ("tests", second)):
        (tmp_path / name).mkdir()
        (tmp_path / name / "1-1.tsv").write_text("\t".join(map(str, function.key)) + "\n")
    out = tmp_path / "census.txt"
    assert census.main(["--reuse", str(tmp_path), "--out", str(out)]) == 0
    lines = out.read_text(encoding="utf-8").splitlines()
    assert f"{first.file}:{first.line}  {first.lines}  product  {first.qualname}" in lines
    assert f"{second.file}:{second.line}  {second.lines}  test-only  {second.qualname}" in lines


def test_a_failed_run_still_writes_the_report_but_exits_non_zero(tmp_path, monkeypatch):
    monkeypatch.setattr(census, "record", lambda dumps, python: 1)
    out = tmp_path / "census.txt"
    assert census.main(["--dumps", str(tmp_path), "--out", str(out)]) == 1
    assert out.read_text(encoding="utf-8").splitlines()[1].startswith("# WARNING: 1 recorded run")


# -- recording ------------------------------------------------------------


def _record(tmp_path, script, armed=True):
    """Run ``script`` with the recorder on ``PYTHONPATH``; return {pid: names}."""
    dumps = tmp_path / "dumps"
    dumps.mkdir()
    environment = dict(
        os.environ, PYTHONPATH=os.pathsep.join([str(CENSUS_DIR), str(ROOT / "src")])
    )
    environment.pop("CENSUS_DIR", None)
    if armed:
        environment["CENSUS_DIR"] = str(dumps)
    completed = subprocess.run(
        [sys.executable, "-c", textwrap.dedent(script)],
        cwd=tmp_path, env=environment, capture_output=True, text=True, timeout=120,
    )
    assert completed.returncode == 0, completed.stderr
    recorded = {}
    for dump in dumps.glob("*.tsv"):
        rows = [row.split("\t") for row in dump.read_text(encoding="utf-8").splitlines()]
        assert all(row[0].startswith("src/repro/") for row in rows)
        recorded[int(dump.name.split("-")[0])] = {row[2] for row in rows}
    return recorded, completed.stdout


def test_records_only_functions_under_src_repro(tmp_path):
    recorded, _ = _record(
        tmp_path,
        """
        from repro.telemetry.memory import format_bytes
        def local_helper():
            return format_bytes(2048)
        local_helper()
        """,
    )
    (names,) = recorded.values()
    assert "format_bytes" in names
    assert "local_helper" not in names


def test_setprofile_none_reinstalls_the_hook(tmp_path):
    recorded, _ = _record(
        tmp_path,
        """
        import sys
        from repro.telemetry.latency import percentile
        from repro.telemetry.memory import format_bytes
        sys.setprofile(lambda frame, event, arg: None)
        format_bytes(1)  # another profiler runs instead of the hook
        sys.setprofile(None)
        percentile([1.0, 2.0], 50)
        """,
    )
    (names,) = recorded.values()
    assert "percentile" in names
    assert "format_bytes" not in names


def test_threads_are_recorded(tmp_path):
    recorded, _ = _record(
        tmp_path,
        """
        import threading
        from repro.telemetry.memory import format_bytes
        worker = threading.Thread(target=format_bytes, args=(4096,))
        worker.start()
        worker.join()
        """,
    )
    (names,) = recorded.values()
    assert "format_bytes" in names


def test_a_subprocess_child_writes_its_own_dump(tmp_path):
    recorded, stdout = _record(
        tmp_path,
        """
        import os, subprocess, sys
        script = "import os; from repro.telemetry.memory import format_bytes; format_bytes(1); print(os.getpid())"
        child = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, check=True)
        print(child.stdout.strip(), os.getpid())
        """,
    )
    child, parent = map(int, stdout.split())
    assert set(recorded) == {child, parent}
    assert "format_bytes" in recorded[child]
    assert "format_bytes" not in recorded[parent]


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
def test_a_forked_child_dumps_inside_os_exit(tmp_path):
    recorded, stdout = _record(
        tmp_path,
        """
        import os
        from repro.telemetry.memory import format_bytes
        child = os.fork()
        if child == 0:
            format_bytes(1)
            os._exit(0)
        os.waitpid(child, 0)
        print(child, os.getpid())
        """,
    )
    child, parent = map(int, stdout.split())
    assert set(recorded) == {child, parent}
    assert "format_bytes" in recorded[child]
    assert "format_bytes" not in recorded[parent]


def test_without_census_dir_nothing_is_installed(tmp_path):
    recorded, stdout = _record(
        tmp_path,
        """
        import os, sys
        print(type(sys.setprofile).__name__, type(os._exit).__name__, sys.getprofile())
        """,
        armed=False,
    )
    assert recorded == {}
    assert stdout.split() == ["builtin_function_or_method", "builtin_function_or_method", "None"]
