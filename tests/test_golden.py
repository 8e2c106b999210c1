"""CLI output on a fixed corpus must stay byte-identical (tests/golden/).

corpus.g6 holds Petersen, K(7,3), H_{6,4}, the 3x3 rook graph, T(5), the
Moebius ladder complement, C_5, Moebius ladders, seeded random regular
graphs with n <= 24, circulants whose integer least eigenvalue lies below
irrational ones, an irregular and a disconnected graph and two malformed
lines. The golden files are the output of `uvcore certify` (JSONL and
CSV), `uvcore spectra`, `uvcore augment` and `uvcore gen` on it, with the
per-record `ms` timing removed. After an intended output change, rewrite
them with `PYTHONPATH=src python tests/test_golden.py` and review the diff.
"""

import json
from pathlib import Path

import pytest

from uvcore.cli import main

GOLDEN = Path(__file__).parent / "golden"
CORPUS = GOLDEN / "corpus.g6"
GEN_ARGS = [
    "kneser 7 3", "q-kneser 2 4 2", "hamming-h 6 4", "hamming-h-prime 6 4",
    "q-cube 5 3", "cayley-z2 4 1 3",
]


def _without_ms_jsonl(text):
    rows = []
    for line in text.splitlines():
        obj = json.loads(line)
        obj.pop("ms", None)
        rows.append(json.dumps(obj, separators=(", ", ": ")) + "\n")
    return "".join(rows)


def _without_ms_csv(text):
    # ms is the last column; comment lines pass unchanged
    return "".join(
        (line if line.startswith("#") else line.rsplit(",", 1)[0]) + "\n"
        for line in text.splitlines()
    )


def _run(tmp, args):
    out = tmp / "out"
    main(["--output", str(out)] + args)
    return out.read_text()


def outputs(tmp):
    """Golden file name -> current output, timings removed."""
    corpus = str(CORPUS)
    return {
        "certify.jsonl": _without_ms_jsonl(_run(tmp, ["certify", corpus])),
        "certify.csv": _without_ms_csv(
            _run(tmp, ["certify", corpus, "--format", "csv"])),
        "spectra.jsonl": _run(tmp, ["spectra", corpus]),
        "augment.txt": _run(tmp, ["augment", corpus]),
        "gen.txt": "".join(
            "%s\t%s" % (args, _run(tmp, ["gen"] + args.split()))
            for args in GEN_ARGS
        ),
    }


@pytest.fixture(scope="module")
def current(tmp_path_factory):
    return outputs(tmp_path_factory.mktemp("golden"))


@pytest.mark.parametrize("name", [
    "certify.jsonl", "certify.csv", "spectra.jsonl", "augment.txt", "gen.txt",
])
def test_output_matches_golden(current, name):
    assert current[name] == (GOLDEN / name).read_text()


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        for name, text in outputs(Path(tmp)).items():
            (GOLDEN / name).write_text(text)
