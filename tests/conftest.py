"""Shared fixtures for the test suite."""

import os
import pathlib

import pytest
from hypothesis import settings

#: ``deep``: many more examples for the property tests that take their
#: example count from the active profile (the canonical search's
#: differential oracle among them).  Loaded only when ``HYPOTHESIS_PROFILE``
#: names it, so a plain ``pytest`` run keeps Hypothesis's defaults:
#: ``HYPOTHESIS_PROFILE=deep python -m pytest tests/core/test_canonical.py``.
settings.register_profile("deep", max_examples=500, deadline=None)
if os.environ.get("HYPOTHESIS_PROFILE"):
    settings.load_profile(os.environ["HYPOTHESIS_PROFILE"])

#: Absolute path of the package sources, injected into fake solver scripts
#: so the subprocess can reuse the in-process CDCL core.
_SRC = str(pathlib.Path(__file__).resolve().parents[1] / "src")

#: A fake external SAT solver speaking the competition convention (10/20
#: exit codes, ``s``/``v`` lines, comment chatter that must not be parsed
#: as a model).  Solving is deferred to the in-process CDCL core, so the
#: ``dimacs-subprocess`` backend can be exercised end-to-end — through the
#: real subprocess machinery — without any system solver.
FAKE_COMPETITION_SOLVER = f"""#!/usr/bin/env python3
import sys
sys.path.insert(0, {_SRC!r})
from repro.sat.cnf import CNF
from repro.sat.solver import CDCLSolver, SolveResult

cnf = CNF.from_dimacs(open(sys.argv[1]).read())
solver = CDCLSolver()
solver.add_cnf(cnf)
result = solver.solve()
print("c fake competition-style SAT solver")
print("c 12 34 decoy-statistics 56")
if result is SolveResult.SAT:
    model = solver.model()
    lits = [v if model.get(v, False) else -v for v in range(1, cnf.num_vars + 1)]
    print("s SATISFIABLE")
    print("v " + " ".join(map(str, lits)) + " 0")
    sys.exit(10)
print("s UNSATISFIABLE")
sys.exit(20)
"""

#: The same fake solver speaking the minisat/glucose result-file convention:
#: the model goes to the file named by the second argument, stdout carries
#: only chatter.  Install it under a ``minisat*`` basename so the backend
#: selects the convention.
FAKE_RESULT_FILE_SOLVER = f"""#!/usr/bin/env python3
import sys
sys.path.insert(0, {_SRC!r})
from repro.sat.cnf import CNF
from repro.sat.solver import CDCLSolver, SolveResult

cnf = CNF.from_dimacs(open(sys.argv[1]).read())
solver = CDCLSolver()
solver.add_cnf(cnf)
result = solver.solve()
with open(sys.argv[2], "w") as out:
    if result is SolveResult.SAT:
        model = solver.model()
        lits = [v if model.get(v, False) else -v for v in range(1, cnf.num_vars + 1)]
        out.write("SAT\\n" + " ".join(map(str, lits)) + " 0\\n")
    else:
        out.write("UNSAT\\n")
print("this solver prints chatter on stdout, not the model")
sys.exit(10 if result is SolveResult.SAT else 20)
"""

_FAKE_SOLVER_STYLES = {
    "competition": FAKE_COMPETITION_SOLVER,
    "result-file": FAKE_RESULT_FILE_SOLVER,
}


@pytest.fixture
def write_fake_solver(tmp_path):
    """Factory writing an executable fake solver script into ``tmp_path``."""

    def write(name: str, style: str = "competition") -> pathlib.Path:
        script = tmp_path / name
        script.write_text(_FAKE_SOLVER_STYLES[style])
        script.chmod(0o755)
        return script

    return write


@pytest.fixture
def fake_sat_solver(tmp_path, monkeypatch, write_fake_solver):
    """Install a competition-style fake solver binary for the whole test."""
    from repro.sat.backend import SOLVER_BINARY_ENV

    script = write_fake_solver("fake-sat-solver")
    monkeypatch.setenv(SOLVER_BINARY_ENV, str(script))
    return script
