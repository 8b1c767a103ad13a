"""Record every function body under ``src/repro`` that a Python process runs.

Python imports a module named ``sitecustomize`` at start-up from the first
``sys.path`` entry that holds one, so putting this directory on
``PYTHONPATH`` arms the recorder in every process that inherits the
environment -- forked workers and ``subprocess`` children included.  It does
nothing unless ``CENSUS_DIR`` names a directory; ``census.py`` sets both.

* ``sys.setprofile`` and ``threading.setprofile`` install one hook that keeps
  each code object seen on a ``call`` event.
* ``sys.setprofile`` is wrapped so that ``setprofile(None)`` re-installs the
  hook (pytest-benchmark pauses profilers around every benchmarked call,
  and a test that installs its own profiler removes it the same way); a
  profiler installed by someone else runs instead of the hook until then.
* Each process writes one dump, ``<pid>-<ns>.tsv`` (file, first line, name),
  at interpreter exit and inside ``os._exit``, so forked workers report too.
"""

import atexit
import os
import sys
import threading
import time

_DIR = os.environ.get("CENSUS_DIR")
_ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
_SRC = os.path.join(_ROOT, "src", "repro") + os.sep


def _install():
    seen = set()
    real_setprofile = sys.setprofile
    real_exit = os._exit

    def hook(frame, event, arg):
        if event == "call":
            seen.add(frame.f_code)

    def setprofile(function):
        real_setprofile(hook if function is None else function)

    def dump():
        rows = set()
        for code in list(seen):
            path = os.path.abspath(code.co_filename)
            if path.startswith(_SRC):
                rows.add(f"{os.path.relpath(path, _ROOT)}\t{code.co_firstlineno}\t{code.co_name}\n")
        dump_path = os.path.join(_DIR, f"{os.getpid()}-{time.monotonic_ns()}.tsv")
        with open(dump_path, "w", encoding="utf-8") as handle:
            handle.writelines(sorted(rows))

    def exit_after_dump(status):
        try:
            dump()
        finally:
            real_exit(status)

    sys.setprofile = setprofile
    os._exit = exit_after_dump
    atexit.register(dump)
    threading.setprofile(hook)
    real_setprofile(hook)


if _DIR:
    _install()
