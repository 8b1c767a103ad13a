"""Product-surface census: which functions under ``src/repro`` only tests reach.

Runs the product and the test suite with ``sitecustomize.py`` (this
directory) recording every function body each process enters, then sorts
every ``def`` under ``src/repro`` into one of three classes:

* ``product``   -- run by the product: ``pytest benchmarks`` (every figure),
  each ``examples/*.py`` and ``benchmarks/harness/run.py --workload all
  --seconds 2``, untraced and ``--traced``;
* ``test-only`` -- run by ``pytest tests`` and by nothing in the product;
* ``never``     -- run by neither.

Usage, from anywhere (stdlib only; the runs take several minutes)::

    python3 tools/census/census.py --out census.txt
    python3 tools/census/census.py --reuse DIR   # re-classify a kept dump directory

The report has one line per function (``file:line``, its own lines --
nested functions count for themselves -- its class and qualified name),
the totals per class, and the *blocks* of ``BLOCK_LINES`` or more lines:
runs of adjacent functions in one file that are outside the product and off
the stay list (``STAY``), largest first.  A function on the stay list is
test-only on purpose and says why.  The exit status is 1 when a recorded run
exited non-zero: the report is still written, but it is incomplete.
"""

from __future__ import annotations

import argparse
import ast
import fnmatch
import os
import pathlib
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Sequence, Set, Tuple

ROOT = pathlib.Path(__file__).resolve().parents[2]
HERE = pathlib.Path(__file__).resolve().parent

#: The report lists blocks of at least this many lines.
BLOCK_LINES = 50

#: (``file::qualified name`` pattern, reason): code that stays although the
#: product never runs it.  A function whose body only declares an interface
#: (``@abstractmethod``, ``pass``, ``...`` or ``raise NotImplementedError``)
#: stays too, as "declaration".
STAY: Sequence[Tuple[str, str]] = (
    ("src/repro/core/flour.py::*", "Flour's fluent API (paper Section 4.1)"),
    ("src/repro/serving/cluster.py::PretzelCluster._roll_back_registration", "fail-over"),
    ("src/repro/serving/cluster.py::_WorkerHandle.provably_dead", "fail-over"),
    ("src/repro/serving/cluster.py::WorkerTimeout.*", "fail-over"),
    ("src/repro/serving/control/failure.py::*", "fail-over"),
    ("src/repro/mlnet/dataview.py::*", "ML.Net's DataView cursors (black-box baseline)"),
    ("src/repro/mlnet/pipeline.py::Pipeline.build_dataview", "ML.Net's DataView cursors"),
    ("src/repro/mlnet/pipeline.py::Pipeline.predict_batch", "ML.Net's DataView cursors"),
    ("src/repro/mlnet/runtime.py::MLNetRuntime.predict_batch", "ML.Net's DataView cursors"),
    ("src/repro/clipper/frontend.py::ClipperFrontEnd.predict_batched", "Clipper's delayed batching"),
    ("src/repro/clipper/frontend.py::ClipperFrontEnd.flush", "Clipper's delayed batching"),
    ("*.__repr__", "debugging aid"),
)

Key = Tuple[str, int, str]


@dataclass
class Function:
    file: str
    line: int  # the ``def`` line
    first_line: int  # the first decorator's line: a code object's co_firstlineno
    qualname: str
    lines: int  # own lines: the span less the spans of directly nested functions
    declaration: bool = False
    kind: str = "never"
    stay: Optional[str] = None

    @property
    def key(self) -> Key:
        return (self.file, self.first_line, self.qualname.rsplit(".", 1)[-1])


@dataclass
class Block:
    members: List[Function] = field(default_factory=list)

    @property
    def lines(self) -> int:
        return sum(function.lines for function in self.members)


def runs(python: str) -> Dict[str, List[List[str]]]:
    """The commands of each set, run from the repository root."""
    harness = ["benchmarks/harness/run.py", "--workload", "all", "--seconds", "2"]
    examples = sorted(str(path.relative_to(ROOT)) for path in (ROOT / "examples").glob("*.py"))
    return {
        "product": [
            [python, "-m", "pytest", "benchmarks", "-q", "-p", "no:cacheprovider"],
            *([python, example] for example in examples),
            [python, *harness],
            [python, *harness, "--traced"],
        ],
        "tests": [[python, "-m", "pytest", "tests", "-q", "-p", "no:cacheprovider"]],
    }


def record(dumps: pathlib.Path, python: str) -> int:
    """Run every command with the recorder armed; returns how many failed."""
    failed = 0
    logs = dumps / "logs"
    logs.mkdir(parents=True, exist_ok=True)
    for name, commands in runs(python).items():
        (dumps / name).mkdir(exist_ok=True)
        environment = dict(
            os.environ,
            CENSUS_DIR=str(dumps / name),
            PYTHONPATH=os.pathsep.join([str(HERE), str(ROOT / "src")]),
        )
        for index, command in enumerate(commands):
            log = logs / f"{name}-{index:02d}.log"
            start = time.monotonic()
            with open(log, "w", encoding="utf-8") as handle:
                status = subprocess.call(
                    command, cwd=ROOT, env=environment, stdout=handle, stderr=subprocess.STDOUT
                )
            failed += status != 0
            print(
                f"{name:<8} exit {status:>3}  {time.monotonic() - start:6.0f} s  "
                f"{' '.join(command[1:])}  ({log})",
                file=sys.stderr,
                flush=True,
            )
    return failed


def seen(directory: pathlib.Path) -> Set[Key]:
    keys: Set[Key] = set()
    for dump in directory.glob("*.tsv"):
        for row in dump.read_text(encoding="utf-8").splitlines():
            file, line, name = row.split("\t")
            keys.add((file, int(line), name))
    return keys


def _nested(node: ast.AST) -> Iterator[ast.AST]:
    """The functions directly inside ``node``'s body (through classes and blocks)."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield child
        else:
            yield from _nested(child)


def _declares_only(node: ast.AST) -> bool:
    """True for an interface declaration: abstract, or a body of no behaviour."""
    if any(getattr(d, "attr", getattr(d, "id", "")) == "abstractmethod" for d in node.decorator_list):
        return True
    body = node.body
    if body and isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant):
        body = body[1:]  # the docstring
    if len(body) != 1:
        return not body
    (statement,) = body
    if isinstance(statement, ast.Pass):
        return True
    if isinstance(statement, ast.Expr) and isinstance(statement.value, ast.Constant):
        return statement.value.value is Ellipsis
    if isinstance(statement, ast.Raise) and statement.exc is not None:
        raised = statement.exc.func if isinstance(statement.exc, ast.Call) else statement.exc
        return getattr(raised, "id", "") == "NotImplementedError"
    return False


def functions(root: pathlib.Path = ROOT) -> List[Function]:
    """Every ``def`` under ``root/src/repro``, with paths relative to ``root``."""
    found: List[Function] = []

    def visit(node: ast.AST, file: str, prefix: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                visit(child, file, f"{prefix}{child.name}.")
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                span = child.end_lineno - child.lineno + 1
                nested = sum(inner.end_lineno - inner.lineno + 1 for inner in _nested(child))
                first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                qualname = f"{prefix}{child.name}"
                found.append(
                    Function(file, child.lineno, first, qualname, span - nested, _declares_only(child))
                )
                visit(child, file, f"{qualname}.<locals>.")
            else:
                visit(child, file, prefix)

    for path in sorted((root / "src" / "repro").rglob("*.py")):
        file = path.relative_to(root).as_posix()
        visit(ast.parse(path.read_text(encoding="utf-8"), file), file, "")
    return found


def classify(product: Set[Key], tests: Set[Key], root: pathlib.Path = ROOT) -> List[Function]:
    table = functions(root)
    for function in table:
        if function.key in product:
            function.kind = "product"
        elif function.key in tests:
            function.kind = "test-only"
        if function.kind != "product" and function.declaration:
            function.stay = "declaration"
        elif function.kind != "product":
            for pattern, reason in STAY:
                if fnmatch.fnmatchcase(f"{function.file}::{function.qualname}", pattern):
                    function.stay = reason
                    break
    return table


def blocks(table: List[Function]) -> List[Block]:
    """Adjacent functions of one file outside the product and off the stay list."""
    found: List[Block] = []
    current = Block()
    previous_file = None
    for function in sorted(table, key=lambda f: (f.file, f.line)):
        breaks = function.kind == "product" or function.stay or function.file != previous_file
        if breaks and current.members:
            found.append(current)
            current = Block()
        if function.kind != "product" and not function.stay:
            current.members.append(function)
        previous_file = function.file
    if current.members:
        found.append(current)
    return sorted(found, key=lambda block: -block.lines)


def report(table: List[Function], failed: int) -> List[str]:
    out = [f"# product-surface census of src/repro ({len(table)} functions)"]
    if failed:
        out.append(f"# WARNING: {failed} recorded run(s) exited non-zero; see the logs")
    for kind in ("product", "test-only", "never"):
        members = [f for f in table if f.kind == kind]
        stay = [f for f in members if f.stay]
        out.append(
            f"# {kind:<9} {len(members):>5} functions {sum(f.lines for f in members):>6} lines"
            + (f"  (stay: {len(stay)} functions, {sum(f.lines for f in stay)} lines)" if stay else "")
        )
    large = [block for block in blocks(table) if block.lines >= BLOCK_LINES]
    out.append(f"\n## blocks of {BLOCK_LINES}+ lines outside the product, off the stay list")
    for block in large:
        first, last = block.members[0], block.members[-1]
        names = ", ".join(f"{f.qualname} ({f.kind})" for f in block.members)
        out.append(f"{first.file}:{first.line}-{last.line}  {block.lines} lines  {names}")
    out.append("\n## functions (file:line  lines  class  qualified name)")
    for f in sorted(table, key=lambda f: (f.file, f.line)):
        out.append(
            f"{f.file}:{f.line}  {f.lines}  {f.kind}  {f.qualname}"
            + (f"  [stay: {f.stay}]" if f.stay else "")
        )
    return out


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--dumps", help="directory for the per-process dumps (default: a temp dir)")
    parser.add_argument("--reuse", metavar="DIR", help="classify DIR's dumps without running")
    parser.add_argument("--out", help="write the report here instead of standard output")
    args = parser.parse_args(argv)
    failed = 0
    if args.reuse:
        dumps = pathlib.Path(args.reuse)
    else:
        dumps = pathlib.Path(args.dumps or tempfile.mkdtemp(prefix="census-"))
        failed = record(dumps, sys.executable)
        print(f"dumps kept in {dumps}", file=sys.stderr)
    table = classify(seen(dumps / "product"), seen(dumps / "tests"))
    text = "\n".join(report(table, failed)) + "\n"
    if args.out:
        pathlib.Path(args.out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)
    # A failed product run records fewer product functions: the report is
    # written, but the exit status says it cannot be trusted.
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
