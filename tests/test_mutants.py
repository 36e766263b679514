"""The mutant catalogue (``tests/mutants.py``) stays in step with the code:
each mutant's ``old`` snippet occurs exactly once in its file, the mutated
file still compiles, and its killers name tests that exist.
``python tests/mutants.py`` runs the mutants."""

import pytest
from mutants import MUTANTS, ROOT


def test_ids_are_unique():
    assert len({m.id for m in MUTANTS}) == len(MUTANTS)


@pytest.mark.parametrize("mutant", MUTANTS, ids=[m.id for m in MUTANTS])
def test_old_snippet_occurs_once(mutant):
    text = (ROOT / "src" / "balora" / mutant.file).read_text()
    assert text.count(mutant.old) == 1
    compile(text.replace(mutant.old, mutant.new), mutant.file, "exec")
    assert mutant.new != mutant.old and mutant.killers
    for killer in mutant.killers:
        path, *names = killer.split("::")
        source = (ROOT / "tests" / path).read_text()
        assert all(f"def {name}(" in source or f"class {name}" in source for name in names)
