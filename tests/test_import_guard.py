"""Start-up cost guard: classification and the census import nothing
outside the standard library and ``repro``.

The array libraries cost about half a second to import, which every CLI
call, census worker and service start would pay.  Only the monitor fleet
uses numpy, and it imports it itself.  The check runs in a fresh
interpreter so that modules other tests imported do not hide a stray
top-level import.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

PROGRAM = """
import json
import sys

before = set(sys.modules)
from repro.census.run import _measure
from repro.engine.cache import CACHES, cached_classify_formula
from repro.fastpath.config import forced
from repro.logic.parser import parse_formula

TEXTS = [
    "G (a -> F b) & F G (a | !b)",
    "G F p -> G F q",
    "(p U q) | G r",
    "F G (p & X q)",
]
for mode in ("auto", "on", "off"):
    CACHES.clear()
    with forced(mode):
        for text in TEXTS:
            cached_classify_formula(parse_formula(text))
_measure("G (a -> F b) & F G (a | !b)")
loaded = {name.split(".")[0] for name in set(sys.modules) - before}
# multiprocessing registers __main__ a second time as __mp_main__.
ours = {"repro", "__mp_main__"}
print(json.dumps(sorted(loaded - set(sys.stdlib_module_names) - ours)))
"""


def test_classify_and_census_import_only_stdlib():
    result = subprocess.run(
        [sys.executable, "-c", PROGRAM],
        env={**os.environ, "PYTHONPATH": str(SRC)},
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
    )
    third_party = json.loads(result.stdout)
    assert "numpy" not in third_party
    assert third_party == [], result.stderr
