import io
import json
import random
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from conftest import cycle, moebius_ladder_complement, rook_graph

from uvcore import Graph, hamming_h_prime, kneser, q_kneser, write_graph6
from uvcore.cli import main


def run_cli(args, stdin_text=None, monkeypatch=None):
    out = io.StringIO()
    if stdin_text is not None:
        # a text layer over bytes, like the process's own stdin
        data = stdin_text if isinstance(stdin_text, bytes) else stdin_text.encode()
        monkeypatch.setattr("sys.stdin", io.TextIOWrapper(io.BytesIO(data)))
    with redirect_stdout(out):
        code = main(args)
    return code, out.getvalue()


def test_gen_matches_library(tmp_path):
    code, out = run_cli(["gen", "kneser", "5", "2"])
    assert code == 0
    assert out.strip() == write_graph6(kneser(5, 2)).decode()
    code, out = run_cli(["gen", "q-kneser", "2", "4", "2"])
    assert out.strip() == write_graph6(q_kneser(2, 4, 2)).decode()
    code, out = run_cli(["gen", "hamming-h", "6", "4"])
    g6 = out.strip()
    assert g6.startswith("_")  # 32 vertices -> chr(32+63) = '_'
    code, out = run_cli(["gen", "cayley-z2", "3", "1", "3"])
    from uvcore import cayley_z2

    assert out.strip() == write_graph6(cayley_z2(3, {1, 3})).decode()
    code, out = run_cli(["gen", "q-cube", "4", "3"])
    assert out.strip() == write_graph6(hamming_h_prime(5, 4)).decode()


def test_gen_budget_error():
    with pytest.raises(SystemExit):
        main(["gen", "bogus", "1"])


@pytest.mark.parametrize("args, expected", [
    (["gen", "kneser", "5"], "kneser takes 2 integer parameters (n r), got 1"),
    (["gen", "kneser", "5", "2", "9", "9"],
     "kneser takes 2 integer parameters (n r), got 4"),
    (["gen", "cayley-z2", "3"],
     "cayley-z2 takes at least 2 integer parameters (n weight...), got 1"),
    (["hom", "kneser", "5"], "kneser takes 4 integer parameters (n r n2 r2), got 1"),
    (["hom", "q-cube-class", "6", "4", "1"],
     "q-cube-class takes 2 integer parameters (n k), got 3"),
], ids=["gen-too-few", "gen-too-many", "gen-cayley-no-weight", "hom-too-few",
        "hom-too-many"])
def test_wrong_parameter_count_is_a_usage_error(args, expected, capsys):
    with pytest.raises(SystemExit) as exc:
        main(args)
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == "" and expected in captured.err


@pytest.mark.parametrize("args, code", [
    (["--budget-vertices", "5", "gen", "kneser", "7", "3"], "SizeBudgetExceeded"),
    (["gen", "cayley-z2", "4", "1", "3", "5"], "OutOfRange"),
])
def test_gen_generator_error_is_a_record(args, code):
    status, out = run_cli(args)
    assert status == 1
    assert [json.loads(s)["error"] for s in out.strip().splitlines()] == [code]


def test_certify_stream(tmp_path, monkeypatch):
    pet = write_graph6(kneser(5, 2)).decode()
    rook = write_graph6(rook_graph(3)).decode()
    text = pet + "\n" + rook + "\nnot-a-graph!!\n"
    code, out = run_cli(["certify", "-"], stdin_text=text, monkeypatch=monkeypatch)
    lines = [json.loads(s) for s in out.strip().splitlines()]
    assert len(lines) == 4
    assert lines[0]["verdict"] == "tight" and lines[0]["core"] == "certified"
    assert lines[1]["verdict"] == "loose" and lines[1]["core"] == "inconclusive"
    assert lines[2]["error"] == "MalformedGraph6" and lines[2]["index"] == 2
    summary = lines[3]["summary"]
    assert summary == {"total": 3, "tight": 1, "loose": 1,
                       "certified_core": 1, "errors": 1}
    assert code == 1


def _rows_without_ms(text):
    rows = [json.loads(s) for s in text.splitlines()]
    for r in rows:
        r.pop("ms", None)
    return rows


def test_non_ascii_lines_are_malformed_records(tmp_path, monkeypatch):
    pet = write_graph6(kneser(5, 2))
    rook = write_graph6(rook_graph(3))
    # a 0xff line and a UTF-8 line ("D\xc3\xa9c") between valid lines
    data = pet + b"\n\xff\xfeabc\n" + rook + b"\nD\xc3\xa9c\n" + pet + b"\n"
    src = tmp_path / "in.g6"
    src.write_bytes(data)
    _, clean = run_cli(["certify", "-"], stdin_text=b"\n".join([pet, rook, pet]),
                       monkeypatch=monkeypatch)
    valid = _rows_without_ms(clean)[:3]
    for source, stdin in ((str(src), None), ("-", data)):
        code, out = run_cli(["certify", source], stdin_text=stdin, monkeypatch=monkeypatch)
        rows = _rows_without_ms(out)
        assert code == 2
        assert len(rows) == 6
        for i, want in zip((0, 2, 4), valid):
            assert rows[i] == dict(want, id=i)
        for i in (1, 3):
            assert rows[i]["error"] == "MalformedGraph6" and rows[i]["index"] == i
        assert rows[5]["summary"] == {"total": 5, "tight": 2, "loose": 1,
                                      "certified_core": 2, "errors": 2}
    code, out = run_cli(["augment", str(src)])
    assert code == 2
    assert [json.loads(s)["error"] for s in out.splitlines() if s.startswith("{")] == [
        "MalformedGraph6"] * 2


def _small_graph(seed):
    rng = random.Random(seed)
    n = rng.randint(0, 12)
    rows = [0] * n
    for j in range(n):
        for i in range(j):
            if rng.random() < 0.5:
                rows[i] |= 1 << j
                rows[j] |= 1 << i
    return write_graph6(Graph(n, tuple(rows)))


# one line of a graph6 stream, never holding a line break itself
_stream_line = st.one_of(
    st.binary(max_size=12).map(lambda b: b.replace(b"\n", b"").replace(b"\r", b"")),
    st.integers(0, 2**16).map(_small_graph),
    st.sampled_from([kneser(5, 2), rook_graph(3)] + [cycle(n) for n in range(3, 13)]).map(
        write_graph6),
    st.tuples(st.integers(0, 2**16), st.integers(0, 8)).map(
        lambda t: _small_graph(t[0])[:t[1]]),
    st.binary(min_size=0, max_size=8).map(lambda b: b"~" + bytes(63 + x % 64 for x in b)),
    st.binary(min_size=0, max_size=8).map(lambda b: b"~~" + bytes(63 + x % 64 for x in b)),
)


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.lists(_stream_line, max_size=8))
def test_certify_stream_contract_fuzz(tmp_path, lines):
    # exactly one record per non-empty line, then the footer, whatever
    # the bytes; no traceback on stderr
    src = tmp_path / "in.g6"
    src.write_bytes(b"\n".join(lines))
    expected = sum(1 for b in lines if b.decode("ascii", "surrogateescape").strip())
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(["certify", str(src)])
    rows = [json.loads(s) for s in out.getvalue().splitlines()]
    assert [r.get("id", r.get("index")) for r in rows[:-1]] == list(range(expected))
    summary = rows[-1]["summary"]
    assert summary["total"] == expected
    assert summary["errors"] == sum("error" in r for r in rows[:-1])
    assert code == min(summary["errors"], 100)
    assert err.getvalue() == ""


def test_certify_jobs_deterministic(tmp_path):
    pet = write_graph6(kneser(5, 2)).decode()
    rook = write_graph6(rook_graph(3)).decode()
    src = tmp_path / "in.g6"
    src.write_text((pet + "\n" + rook + "\n") * 3)
    outs = []
    for jobs in ("1", "3"):
        dst = tmp_path / ("out%s.jsonl" % jobs)
        code = main(["--output", str(dst), "certify", str(src), "--jobs", jobs])
        assert code == 0
        # timings vary run to run; strip them before comparing
        outs.append(_rows_without_ms(dst.read_text()))
    assert outs[0] == outs[1]


def test_certify_csv_format(tmp_path, monkeypatch):
    pet = write_graph6(kneser(5, 2)).decode()
    code, out = run_cli(["certify", "-", "--format", "csv"],
                        stdin_text=pet + "\n", monkeypatch=monkeypatch)
    lines = out.strip().splitlines()
    assert lines[0].startswith("# uvcore-certify-csv v1")
    assert lines[1].split(",")[:4] == ["id", "n", "degree", "srg"]
    assert lines[2].split(",")[1] == "10"
    assert lines[-1].startswith("# summary")


def test_certify_budget_guard(tmp_path, monkeypatch):
    pet = write_graph6(kneser(5, 2)).decode()
    code, out = run_cli(
        ["--budget-vertices", "5", "certify", "-"],
        stdin_text=pet + "\n", monkeypatch=monkeypatch,
    )
    lines = [json.loads(s) for s in out.strip().splitlines()]
    assert lines[0]["error"] == "SizeBudgetExceeded"
    assert code == 1


def test_augment_byte_identity(monkeypatch):
    code, out = run_cli(
        ["augment", "-"],
        stdin_text=write_graph6(__import__("uvcore").hamming_h(6, 4)).decode() + "\n",
        monkeypatch=monkeypatch,
    )
    assert code == 0
    assert out.strip() == write_graph6(hamming_h_prime(6, 4)).decode()


def test_spectra_petersen(monkeypatch):
    code, out = run_cli(
        ["spectra", "-"],
        stdin_text=write_graph6(kneser(5, 2)).decode() + "\n",
        monkeypatch=monkeypatch,
    )
    rec = json.loads(out.strip())
    assert rec["tau"] == -2 and rec["d"] == 4
    assert rec["phi"][-1] == 1 and len(rec["phi"]) == 11


def test_hom_subcommands(monkeypatch):
    code, out = run_cli(["hom", "kneser", "5", "2", "10", "4"])
    assert json.loads(out)["exists"] is True
    code, out = run_cli(["hom", "kneser", "10", "4", "15", "6"])
    assert json.loads(out)["exists"] is False
    code, out = run_cli(["hom", "q-cube-class", "6", "4"])
    assert json.loads(out)["case"] == 2
    code, out = run_cli(["hom", "kneser-map", "5", "2", "2"])
    rec = json.loads(out)
    assert rec["source_n"] == 10 and rec["target_n"] == 210
    code, out = run_cli(["hom", "kneser", "5", "2", "7", "3"])
    assert code == 1 and json.loads(out)["error"] == "RatioMismatch"


def test_hom_verify_files(tmp_path):
    src = tmp_path / "src.g6"
    dst = tmp_path / "dst.g6"
    mp = tmp_path / "map.json"
    src.write_text(write_graph6(kneser(5, 2)).decode() + "\n")
    dst.write_text(write_graph6(kneser(5, 2)).decode() + "\n")
    mp.write_text(json.dumps(list(range(10))))
    out_path = tmp_path / "verdict.json"
    code = main(["--output", str(out_path), "hom-verify", "--source", str(src),
                 "--target", str(dst), "--map", str(mp)])
    assert code == 0
    rec = json.loads(out_path.read_text())
    assert rec == {"is_hom": True, "is_injective": True,
                   "is_induced_embedding": True}


def test_certify_internal_error_is_a_record(tmp_path, monkeypatch):
    # an exception that is not a UvcoreError ends neither the stream nor
    # the --jobs pool (workers are forked, so they inherit the patch)
    import uvcore.cli as cli

    real = cli.core_certificate

    def flaky(g, graph_id=None):
        if g.n == 9:
            raise RuntimeError("boom")
        return real(g, graph_id=graph_id)

    monkeypatch.setattr(cli, "core_certificate", flaky)
    pet = write_graph6(kneser(5, 2)).decode()
    rook = write_graph6(rook_graph(3)).decode()
    src = tmp_path / "in.g6"
    src.write_text(pet + "\n" + rook + "\n" + pet + "\n")
    for jobs in ("1", "2"):
        dst = tmp_path / ("out%s.jsonl" % jobs)
        code = main(["--output", str(dst), "certify", str(src), "--jobs", jobs])
        lines = [json.loads(s) for s in dst.read_text().splitlines()]
        assert code == 1
        assert len(lines) == 4
        assert lines[0]["core"] == "certified" and lines[2]["core"] == "certified"
        assert lines[1] == {"error": "Internal", "index": 1,
                            "detail": "RuntimeError: boom"}
        assert lines[3]["summary"]["errors"] == 1


@pytest.mark.parametrize("budget", [["--budget-vertices", "3"],
                                    ["--budget-edges", "10"]])
@pytest.mark.parametrize("command", ["augment", "spectra"])
def test_augment_and_spectra_enforce_budgets(budget, command, monkeypatch):
    pet = write_graph6(kneser(5, 2)).decode()
    code, out = run_cli(budget + [command, "-"], stdin_text=pet + "\n",
                        monkeypatch=monkeypatch)
    rec = json.loads(out.strip())
    assert rec["error"] == "SizeBudgetExceeded" and rec["index"] == 0
    assert code == 1


def _hom_verify(tmp_path, source, target, image_text):
    mp = tmp_path / "map.json"
    mp.write_text(image_text)
    out_path = tmp_path / "verdict.json"
    code = main(["--output", str(out_path), "hom-verify", "--source", str(source),
                 "--target", str(target), "--map", str(mp)])
    return code, json.loads(out_path.read_text())


def test_hom_verify_missing_file_is_a_record(tmp_path):
    src = tmp_path / "src.g6"
    src.write_text(write_graph6(kneser(5, 2)).decode() + "\n")
    code, rec = _hom_verify(tmp_path, src, tmp_path / "absent.g6",
                            json.dumps(list(range(10))))
    assert code == 1 and rec["error"] == "InputUnreadable"


@pytest.mark.parametrize("image", ['["a", 1, 2, 3, 4, 5, 6, 7, 8, 9]',
                                   "[0.5, 1, 2, 3, 4, 5, 6, 7, 8, 9]",
                                   '{"0": 1}', "not json"])
def test_hom_verify_malformed_map_is_a_record(tmp_path, image):
    src = tmp_path / "src.g6"
    src.write_text(write_graph6(kneser(5, 2)).decode() + "\n")
    code, rec = _hom_verify(tmp_path, src, src, image)
    assert code == 1 and rec["error"] == "MalformedMap"


def test_certify_same_output_under_python_O():
    # no verdict may rest on an `assert`: with assertions stripped, the
    # reports stay the same once timings are removed
    import os
    import subprocess
    import sys
    from pathlib import Path

    import uvcore

    text = "".join(write_graph6(g).decode() + "\n"
                   for g in (kneser(5, 2), moebius_ladder_complement()))
    # the caller's environment, so that PYTHONDONTWRITEBYTECODE is kept
    env = dict(os.environ, PYTHONPATH=str(Path(uvcore.__file__).parents[1]))
    outs = []
    for flags in ([], ["-O"]):
        proc = subprocess.run([sys.executable, *flags, "-m", "uvcore.cli", "certify", "-"],
                              input=text, capture_output=True, text=True, env=env,
                              check=True)
        outs.append(_rows_without_ms(proc.stdout))
    assert outs[0] == outs[1]
    assert len(outs[0]) == 3 and "error" not in outs[0][1]


@pytest.mark.parametrize("command", ["certify", "augment", "spectra"])
def test_unreadable_input_is_a_record(command, tmp_path):
    out_path = tmp_path / "out.jsonl"
    code = main(["--output", str(out_path), command, str(tmp_path / "absent.g6")])
    lines = [json.loads(s) for s in out_path.read_text().splitlines()]
    assert code == 1
    assert [rec["error"] for rec in lines] == ["InputUnreadable"]


@pytest.mark.parametrize("command", ["certify", "augment", "spectra"])
def test_blank_lines_take_no_index(command, monkeypatch):
    # the bad line is the second non-empty one in every subcommand
    code, out = run_cli([command, "-"], stdin_text="Dhc\n\nxx\n",
                        monkeypatch=monkeypatch)
    errors = [rec for rec in map(json.loads, out.splitlines()) if "error" in rec]
    assert errors[-1]["error"] == "MalformedGraph6" and errors[-1]["index"] == 1
