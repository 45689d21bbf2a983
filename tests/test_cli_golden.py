"""Exact stdout and exit code of every subcommand, text and ``--json``.

The cases live in ``tests/cli_cases.py``, next to the runner that checks
them with the standard library alone; their expected stdout is stored
verbatim in ``tests/cli_golden/<case>.out``, and for the error cases the
expected stderr in ``<case>.err``.  The cases cover every ladder branch,
every case of the single-conjugator theorem, both commutant verdicts
(including a nullity-6 solution space whose witness needs two basis vectors,
a full-rank pair the rank test decides and a singular pair of odd nullity),
and the error paths, one per parse error message and an argparse usage
error, that print nothing on stdout.  Tier-1 also runs every case under
three hash seeds, in fresh interpreters, so no output may follow the order of
a set of strings.  ``tests/test_cli.py`` keeps only the checks a golden cannot
express: the console entry point's exit, JSON read back for its meaning, and
the parser's table of arguments.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import compalg
from cli_cases import CASES, expected, run


@pytest.mark.parametrize("case", sorted(CASES))
def test_exact_stdout(case):
    code, out, err = run(case)
    want_code, want_out, want_err = expected(case)
    assert code == want_code
    assert out == want_out
    if want_err is not None:
        assert err == want_err


@pytest.mark.parametrize("seed", ["0", "1", "4242"])
def test_every_case_is_the_same_under_every_hash_seed(seed):
    env = dict(
        os.environ,
        PYTHONHASHSEED=seed,
        PYTHONPATH=str(Path(compalg.__file__).parent.parent),
    )
    script = Path(__file__).parent / "cli_cases.py"
    done = subprocess.run(
        [sys.executable, str(script)], env=env, capture_output=True, text=True
    )
    assert done.returncode == 0, done.stdout + done.stderr
