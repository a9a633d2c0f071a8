"""Golden CLI outputs of the Monte Carlo commands, byte for byte.

`golden_cli.json` holds the stdout and exit code of each command line
below, recorded from the per-sample sampler that preceded the block
sampler; any change to sampling, solver dispatch or accumulation order
that moves a single output byte fails here.  The kernel-bound
certificates printed `np.float64(...)` in CSV at that time (and could
not be written as JSON at all); the fixture holds the plain float repr
the fixed CLI prints, with the same digits.

The first twelve command lines were recorded from the per-sample
sampler; the next three from the dict-based primal-dual solver that
preceded the list-based one; the ``gen`` lines from the per-edge record
instances that preceded the columnar ones.  ``PYTHONPATH=src python
tests/test_golden.py`` records command lines missing from the fixture
and keeps every recorded entry; delete an entry to re-record it, and
only after arguing an intended output change.
"""

import json
import re
from pathlib import Path

import pytest

from matchgap.cli import build_parser, main

FIXTURE = Path(__file__).with_name("golden_cli.json")

COMMANDS = [
    # mc: Kuhn (unweighted bipartite), primal-dual (weighted), general search
    "mc --gen karp_sipser --kind bipartite --n 12 --c 1.0 --samples 400 --seed 3",
    "mc --gen random_point --kind bipartite --n 5 --density 0.5 --samples 300 --seed 4",
    "mc --gen random_point --kind general --n 5 --density 0.5 --samples 200 --seed 2",
    "mc --gen random_point --kind bipartite --n 5 --density 0.6 --unweighted"
    " --samples 300 --seed 1 --format csv",
    # certify --mode mc: both bounds, both schemes
    "certify --gen pendant_star --n 5 --eps 0.2 --bound mass --scheme weighted"
    " --mode mc --samples 300 --seed 1",
    "certify --gen pendant_star --n 5 --eps 0.2 --bound mass --scheme unweighted"
    " --mode mc --samples 300 --seed 1 --format csv",
    "certify --gen pendant_star --n 5 --eps 0.2 --bound kernel --scheme weighted"
    " --mode mc --samples 300 --seed 1 --format csv",
    "certify --gen equal_split_star --n 4 --eps 0.3 --bound kernel --scheme unweighted"
    " --mode mc --samples 300 --seed 2 --format csv",
    "certify --gen equal_split_star --n 4 --eps 0.3 --bound kernel --scheme unweighted"
    " --mode exact --format csv",
    # phi --mode mc
    "phi --gen pendant_star --n 4 --eps 0.3 --mode mc --grid-points 5 --samples 200 --seed 2",
    "phi --gen random_point --kind general --n 4 --density 0.6 --mode mc --grid-points 4"
    " --samples 150 --seed 5 --format csv",
    # report: verify suite (sample()) plus a Karp-Sipser mc sweep
    "report --instances 3 --karp-n 8 --samples 100 --seed 1",
    # primal-dual on a larger weighted instance; exact mass and exact
    # kernel certificates
    "mc --gen random_point --kind bipartite --n 40 --density 0.2 --samples 500 --seed 7",
    "certify --gen pendant_star --n 6 --eps 0.2 --bound mass --scheme weighted --mode exact",
    "certify --gen pendant_star --n 30 --eps 0.1 --bound kernel --scheme weighted"
    " --mode exact --format csv",
    # gen: every generator's edge order, probabilities and weights; the
    # random_point lines at n=5 rescale their probabilities in two rounds
    "gen --gen karp_sipser --kind bipartite --n 5 --c 1.0",
    "gen --gen karp_sipser --kind general --n 7 --c 1.5",
    "gen --gen pendant_star --n 5 --eps 0.2",
    "gen --gen equal_split_star --n 4 --eps 0.3",
    "gen --gen random_point --kind bipartite --n 5 --density 0.8 --seed 3",
    "gen --gen random_point --kind bipartite --n 5 --density 0.8 --seed 3 --unweighted",
    "gen --gen random_point --kind general --n 5 --density 0.8 --seed 14",
    "gen --gen random_point --kind general --n 5 --density 0.8 --seed 14 --unweighted",
    "gen --gen random_point --kind general --n 30 --density 0.3 --seed 5",
    "gen --gen random_point --kind bipartite --n 20 --density 0.3 --seed 6 --unweighted",
]


@pytest.fixture(scope="module")
def golden():
    with open(FIXTURE) as fh:
        return json.load(fh)


@pytest.mark.parametrize("command", COMMANDS)
def test_cli_output_matches_golden(capsys, golden, command):
    assert main(command.split()) == golden[command]["rc"]
    assert capsys.readouterr().out == golden[command]["stdout"]


def test_back_to_back_commands_share_one_parser(capsys, golden):
    # one parser per process, reused by every command, also after a usage
    # error: each command still prints what it printed alone
    assert build_parser() is build_parser()
    for command in (COMMANDS[15], COMMANDS[0], COMMANDS[13], COMMANDS[9], COMMANDS[11],
                    None, COMMANDS[3], COMMANDS[8], COMMANDS[16]):
        if command is None:
            with pytest.raises(SystemExit):
                main(["mc", "--samples", "many"])
            capsys.readouterr()
            continue
        assert main(command.split()) == golden[command]["rc"]
        assert capsys.readouterr().out == golden[command]["stdout"]


if __name__ == "__main__":
    import contextlib
    import io

    with open(FIXTURE) as fh:
        record = json.load(fh)
    for command in COMMANDS:
        if command in record:
            continue
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            rc = main(command.split())
        record[command] = {"rc": rc,
                           "stdout": re.sub(r"np\.float64\(([^)]*)\)", r"\1", buf.getvalue())}
    with open(FIXTURE, "w") as fh:
        json.dump(record, fh, indent=1)
        fh.write("\n")
