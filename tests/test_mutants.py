"""The mutant table stays applicable: every row's old text occurs exactly
once in src/tiltlab, in the row's own file, and its test names a test that
exists.  Whether each mutant is killed is scripts/mutants.py's question."""

import re
from pathlib import Path

import pytest

from mutants import MUTANTS

ROOT = Path(__file__).resolve().parent.parent
SOURCES = {path.name: path.read_text()
           for path in (ROOT / "src" / "tiltlab").glob("*.py")}


@pytest.mark.parametrize("mutant", MUTANTS,
                         ids=[f"{m.file}:{m.old.strip()}" for m in MUTANTS])
def test_old_text_occurs_once_in_src(mutant):
    counts = {name: text.count(mutant.old) for name, text in SOURCES.items()}
    assert {name: n for name, n in counts.items() if n} == {mutant.file: 1}
    assert mutant.new != mutant.old


@pytest.mark.parametrize("mutant", MUTANTS,
                         ids=[f"{m.file}:{m.old.strip()}" for m in MUTANTS])
def test_each_row_names_a_test_or_a_reason(mutant):
    if mutant.equivalent:
        assert mutant.test == ""
        return
    path, *names = mutant.test.split("::")
    text = (ROOT / path).read_text()
    for name in names:
        assert re.search(rf"^\s*(class|def) {name}\b", text, re.M), name
