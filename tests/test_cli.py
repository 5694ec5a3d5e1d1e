import codecs
import csv
import hashlib
import io
import json
import os
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from infostorage import Alphabet, EmbeddingConfig, SymbolSeries, cli, count_joint, infodyn, procsim
from infostorage.cli import (
    _CSV_CHUNK,
    _GROUP_LIMIT,
    _ROWS_PER_WRITE,
    _STEPS_PER_WRITE,
    DataError,
    _parse_process_spec,
    _parse_unit_spec,
    _read_csv,
    _read_csv_cells,
    _read_csv_fast,
    _write_profile,
    main,
)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_piped(argv, data):
    """Run the CLI in a subprocess with ``data`` piped to /dev/stdin, the
    last argument."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(Path(cli.__file__).parents[1]), env.get("PYTHONPATH")])
    )
    return subprocess.run(
        [sys.executable, "-m", "infostorage.cli", *argv, "/dev/stdin"],
        input=data, capture_output=True, env=env, timeout=60,
    )


def read_jsonl(out):
    return [json.loads(line) for line in out.strip().splitlines()]


def gen_file(tmp_path, capsys, process, unit, n, seed=0, name="data.csv"):
    path = tmp_path / name
    args = ["generate", "--process", process, "--n", str(n), "--seed", str(seed), "--out", str(path)]
    if unit:
        args += ["--unit", unit]
    code, _, err = run(capsys, *args)
    assert code == 0, err
    return path


class TestGenerate:
    def test_reproducible(self, tmp_path, capsys):
        a = gen_file(tmp_path, capsys, "bernoulli:p=0.5", "xor", 8, seed=7, name="a.csv")
        b = gen_file(tmp_path, capsys, "bernoulli:p=0.5", "xor", 8, seed=7, name="b.csv")
        assert a.read_text() == b.read_text()
        assert a.read_text().splitlines()[0] == "input,output"
        assert len(a.read_text().splitlines()) == 9

    def test_forwarding_copies_input(self, tmp_path, capsys):
        p = gen_file(tmp_path, capsys, "markov:p_stay=0.7", "forwarding", 50)
        for line in p.read_text().splitlines()[1:]:
            u, x = line.split(",")
            assert u == x

    def test_no_unit_single_column(self, tmp_path, capsys):
        p = gen_file(tmp_path, capsys, "bernoulli:p=0.5", None, 10)
        assert p.read_text().splitlines()[0] == "output"

    def test_sidecar_metadata(self, tmp_path, capsys):
        p = gen_file(tmp_path, capsys, "bernoulli:p=0.5", "xor", 10, seed=3)
        meta = json.loads((tmp_path / "data.csv.meta.json").read_text())
        assert meta["process"] == "bernoulli:p=0.5"
        assert meta["unit"] == "xor"
        assert meta["seed"] == 3
        assert meta["n"] == 10

    def test_zero_n_is_usage_error(self, tmp_path, capsys):
        code, _, err = run(
            capsys, "generate", "--process", "bernoulli:p=0.5", "--n", "0",
            "--out", str(tmp_path / "x.csv"),
        )
        assert code == 1
        assert json.loads(err)["error"] == "usage"

    def test_negative_seed_is_usage_error(self, tmp_path, capsys):
        out = tmp_path / "x.csv"
        code, stdout, err = run(
            capsys, "generate", "--process", "bernoulli:p=0.5", "--n", "5", "--seed", "-1",
            "--out", str(out),
        )
        assert (code, stdout) == (1, "")
        assert json.loads(err) == {"error": "usage", "message": "--seed must be >= 0"}
        assert not out.exists()

    def test_unwritable_output_is_data_error(self, tmp_path, capsys):
        out = tmp_path / "missing" / "x.csv"
        code, stdout, err = run(
            capsys, "generate", "--process", "bernoulli:p=0.5", "--n", "5", "--out", str(out),
        )
        assert (code, stdout) == (2, "")
        assert json.loads(err)["error"] == "data"
        assert json.loads(err)["message"].startswith(f"cannot write {out}")

    def test_bad_spec_is_usage_error(self, tmp_path, capsys):
        code, _, err = run(
            capsys, "generate", "--process", "zipf:a=2", "--n", "5",
            "--out", str(tmp_path / "x.csv"),
        )
        assert code == 1

    def test_memory_error_names_n(self, tmp_path, capsys, monkeypatch):
        def exhausted(*args, **kwargs):
            raise MemoryError

        monkeypatch.setattr(procsim, "generate_input", exhausted)
        code, _, err = run(
            capsys, "generate", "--process", "bernoulli:p=0.5", "--n", "10",
            "--out", str(tmp_path / "x.csv"),
        )
        assert code == 3
        assert json.loads(err) == {"error": "numerical", "message": "out of memory; reduce --n"}

    @pytest.mark.parametrize("unit", [None, "xor", "forwarding"])
    def test_file_matches_csv_writer(self, tmp_path, capsys, unit):
        # more rows than one write block, and not a multiple of it
        n = 70_001
        p = gen_file(tmp_path, capsys, "markov:p_stay=0.7", unit, n, seed=9)
        u = procsim.generate_input(_parse_process_spec("markov:p_stay=0.7", seed=9), n)
        ref = io.StringIO()
        writer = csv.writer(ref, lineterminator="\n")
        if unit is None:
            writer.writerow(["output"])
            writer.writerows([v] for v in u.data.tolist())
        else:
            x = procsim.simulate_unit(_parse_unit_spec(unit), u)
            writer.writerow(["input", "output"])
            writer.writerows(zip(u.data.tolist(), x.data.tolist()))
        assert p.read_bytes() == ref.getvalue().encode()

    def test_seeded_file_is_pinned(self, tmp_path, capsys):
        # the bytes this command wrote while symbols were held as int64
        p = gen_file(tmp_path, capsys, "markov:p_stay=0.7", "xor", 10_000, seed=7)
        assert hashlib.sha256(p.read_bytes()).hexdigest() == (
            "a1d4b7dd4f67826ffee3362c640c572b8b04f524e15e6d7ce7ecb1d43201a5d9"
        )

    def test_one_digit_columns_match_csv_writer(self):
        # every one-digit symbol, over two write blocks and a part of one
        rng = np.random.default_rng(9)
        n = 2 * _ROWS_PER_WRITE + 3
        cols = [np.r_[9, 0, rng.integers(0, 10, n - 2)].astype(np.uint8) for _ in range(2)]
        out = io.BytesIO()
        cli._write_csv(out, {"input": cols[0], "output": cols[1]})
        ref = io.StringIO()
        writer = csv.writer(ref, lineterminator="\n")
        writer.writerow(["input", "output"])
        writer.writerows(zip(*(c.tolist() for c in cols)))
        assert out.getvalue() == ref.getvalue().encode()
        assert out.getvalue().startswith(b"input,output\n9,9\n0,0\n")

    def test_failed_simulation_leaves_out_untouched(self, tmp_path, capsys, monkeypatch):
        # the unit is simulated before --out is opened, so a failure there
        # neither truncates an existing file nor writes its metadata
        def exhausted(*args, **kwargs):
            raise MemoryError

        monkeypatch.setattr(procsim, "simulate_unit", exhausted)
        out = tmp_path / "x.csv"
        out.write_bytes(b"input,output\n0,1\n")
        code, stdout, err = run(
            capsys, "generate", "--process", "bernoulli:p=0.5", "--unit", "xor",
            "--n", "1000", "--out", str(out),
        )
        assert (code, stdout) == (3, "")
        assert json.loads(err)["error"] == "numerical"
        assert out.read_bytes() == b"input,output\n0,1\n"
        assert not (tmp_path / "x.csv.meta.json").exists()

    def test_unit_parsed_before_drawing(self, tmp_path, capsys, monkeypatch):
        def drawn(*args, **kwargs):
            raise AssertionError("the drive was drawn before --unit was parsed")

        monkeypatch.setattr(procsim, "generate_input", drawn)
        out = tmp_path / "x.csv"
        code, stdout, err = run(
            capsys, "generate", "--process", "bernoulli:p=0.5", "--unit", "bogus",
            "--n", "100000000", "--out", str(out),
        )
        assert (code, stdout) == (1, "")
        assert json.loads(err) == {"error": "usage", "message": "unknown unit spec 'bogus'"}
        assert not out.exists()


class TestSpecParsing:
    def test_process_specs(self):
        p = _parse_process_spec("bernoulli:p=0.5", seed=7)
        assert p.kind == "bernoulli" and p.p == 0.5 and p.seed == 7
        m = _parse_process_spec("markov:p_stay=0.7")
        assert m.kind == "markov_binary" and m.p_stay == 0.7

    def test_unit_specs(self):
        assert _parse_unit_spec("forwarding").kind == "forwarding"
        x = _parse_unit_spec("xor:init=1")
        assert x.kind == "xor_memory" and x.initial_state == 1
        assert _parse_unit_spec("xor").initial_state == 0

    def test_malformed_specs(self):
        for bad in ("bernoulli", "bernoulli:q=1", "markov:p=0.5", "gauss:p=1", "bernoulli:p",
                    "markov:p_stay=1.0", "bernoulli:p=abc", "bernoulli:p=0.5,p=0.9"):
            with pytest.raises(ValueError, match=re.escape(repr(bad))):
                _parse_process_spec(bad)
        for bad in ("xor:init", "forwarding:x=1", "nand", "xor:init=2", "xor:init=abc",
                    "xor:init=0,init=1"):
            with pytest.raises(ValueError, match=re.escape(repr(bad))):
                _parse_unit_spec(bad)


class TestAnalyze:
    def test_xor_icais_near_one(self, tmp_path, capsys):
        p = gen_file(tmp_path, capsys, "bernoulli:p=0.5", "xor", 100_000)
        code, out, _ = run(
            capsys, "analyze", "--data", str(p), "--measure", "icais",
            "-k", "1", "--input-col", "input",
        )
        assert code == 0
        (res,) = read_jsonl(out)
        assert res["schema"] == "icais/1"
        assert res["source"] == "empirical"
        assert res["n_transitions"] == 100_000 - 1
        assert abs(res["average_bits"] - 1.0) < 0.005

    def test_forwarding_u2_ais(self, tmp_path, capsys):
        p = gen_file(tmp_path, capsys, "markov:p_stay=0.7", "forwarding", 200_000)
        code, out, _ = run(
            capsys, "analyze", "--data", str(p), "--measure", "ais", "-k", "1",
        )
        assert code == 0
        (res,) = read_jsonl(out)
        target = 0.3 * np.log2(0.6) + 0.7 * np.log2(1.4)
        assert abs(res["average_bits"] - target) < 0.01

    def test_icais_without_input_col(self, tmp_path, capsys):
        p = gen_file(tmp_path, capsys, "bernoulli:p=0.5", "xor", 1000)
        code, _, err = run(
            capsys, "analyze", "--data", str(p), "--measure", "icais", "-k", "1",
        )
        assert code == 1
        assert "--input-col" in json.loads(err)["message"]

    def test_measure_all_emits_three(self, tmp_path, capsys):
        p = gen_file(tmp_path, capsys, "bernoulli:p=0.5", "xor", 5000)
        code, out, _ = run(
            capsys, "analyze", "--data", str(p), "-k", "1", "--input-col", "input",
        )
        assert code == 0
        assert [r["measure"] for r in read_jsonl(out)] == ["ais", "icais", "interaction"]

    def test_local_profile_emitted(self, tmp_path, capsys):
        p = gen_file(tmp_path, capsys, "bernoulli:p=0.5", "xor", 200)
        code, out, _ = run(
            capsys, "analyze", "--data", str(p), "--measure", "icais", "-k", "1",
            "--input-col", "input", "--local",
        )
        (res,) = read_jsonl(out)
        assert len(res["local"]) == 199
        assert res["start_index"] == 1

    def test_missing_column_is_data_error(self, tmp_path, capsys):
        p = gen_file(tmp_path, capsys, "bernoulli:p=0.5", None, 100)
        code, _, err = run(
            capsys, "analyze", "--data", str(p), "--measure", "ais", "-k", "1",
            "--cols", "nope",
        )
        assert code == 2
        assert "nope" in json.loads(err)["message"]

    # the first body is in the fast grammar, the second (a tab) is not
    @pytest.mark.parametrize("body", ["0,1,0,1\n1,0,1,1\n", "0,1,0,1\n1,0,1,\t1\n"])
    def test_repeated_requested_column_is_data_error(self, tmp_path, capsys, body):
        p = tmp_path / "dup.csv"
        p.write_text("a,a,u,u\n" + body)
        code, _, err = run(
            capsys, "analyze", "--data", str(p), "--measure", "icais", "-k", "1",
            "--cols", "a", "--input-col", "u",
        )
        assert code == 2
        assert "['a', 'u']" in json.loads(err)["message"]

    def test_non_integer_cell_is_data_error(self, tmp_path, capsys):
        p = tmp_path / "bad.csv"
        p.write_text("output\n0\nx\n1\n")
        code, _, err = run(capsys, "analyze", "--data", str(p), "--measure", "ais", "-k", "1")
        assert code == 2
        msg = json.loads(err)["message"]
        assert ":3:" in msg and "output" in msg

    def test_constant_column_has_one_symbol(self, tmp_path, capsys):
        # one symbol codes 2^70 * 1 * 2 cells in 64 bits, where a
        # two-symbol alphabet would need 2^70 * 2 * 2
        rng = np.random.default_rng(7)
        p = tmp_path / "constant.csv"
        rows = [f"{u},7" for u in rng.integers(0, 2, 500)]
        p.write_text("input,output\n" + "\n".join(rows) + "\n")
        code, out, err = run(capsys, "analyze", "--data", str(p), "-k", "70", "--input-col", "input")
        assert code == 0, err
        results = read_jsonl(out)
        assert [r["measure"] for r in results] == ["ais", "icais", "interaction"]
        assert all(r["average_bits"] == 0.0 and r["n_transitions"] == 430 for r in results)

    def test_short_series_is_data_error(self, tmp_path, capsys):
        p = tmp_path / "tiny.csv"
        p.write_text("output\n0\n1\n")
        code, _, err = run(capsys, "analyze", "--data", str(p), "--measure", "ais", "-k", "5")
        assert code == 2

    def test_ensemble_columns(self, tmp_path, capsys):
        # two xor units with different initial states sharing one drive
        from infostorage import ProcessSpec, UnitSpec, generate_input, simulate_unit

        u = generate_input(ProcessSpec("bernoulli", p=0.5, seed=5), 20_000)
        x0 = simulate_unit(UnitSpec("xor_memory", 0), u)
        x1 = simulate_unit(UnitSpec("xor_memory", 1), u)
        p = tmp_path / "ens.csv"
        rows = ["drive,a,b"] + [
            f"{int(ui)},{int(a)},{int(b)}" for ui, a, b in zip(u.data, x0.data, x1.data)
        ]
        p.write_text("\n".join(rows) + "\n")
        code, out, _ = run(
            capsys, "analyze", "--data", str(p), "--measure", "icais", "-k", "1",
            "--cols", "a,b", "--input-col", "drive",
        )
        assert code == 0
        (res,) = read_jsonl(out)
        assert res["n_transitions"] == 2 * (20_000 - 1)
        assert abs(res["average_bits"] - 1.0) < 0.01

    def test_ensemble_local_is_pooled_profile(self, tmp_path, capsys):
        rng = np.random.default_rng(8)
        u = rng.integers(0, 2, (2, 40))
        x = np.stack([u[0], rng.integers(0, 3, 40)])
        p = tmp_path / "ens.csv"
        p.write_text("u,v,a,b\n" + "".join(f"{r[0]},{r[1]},{r[2]},{r[3]}\n" for r in np.vstack([u, x]).T))
        code, out, err = run(
            capsys, "analyze", "--data", str(p), "-k", "2", "--cols", "a,b",
            "--input-col", "u,v", "--local",
        )
        assert code == 0, err
        table = count_joint(
            [SymbolSeries(Alphabet(3), row) for row in x],
            [SymbolSeries(Alphabet(2), row) for row in u],
            EmbeddingConfig(2),
        )
        results = infodyn.evaluate(infodyn.MEASURES, table, local=True)
        recs = read_jsonl(out)
        assert [r["measure"] for r in recs] == list(infodyn.MEASURES)
        for rec, res in zip(recs, results):
            # column a's 38 local values, then column b's
            assert rec["start_index"] == 2
            assert len(rec["local"]) == rec["n_transitions"] == 2 * (40 - 2)
            assert rec["local"] == res.local.values.tolist()
            assert rec["average_bits"] == res.average_bits
            assert np.mean(rec["local"]) == pytest.approx(rec["average_bits"], abs=1e-12)

    @pytest.mark.parametrize("input_col", ["drive", "u,v,w"])
    def test_sweep_and_analyze_share_one_rule(self, tmp_path, capsys, input_col):
        rng = np.random.default_rng(9)
        cells = rng.integers(0, 3, (500, 7))
        p = tmp_path / "ens.csv"
        p.write_text("drive,u,v,w,a,b,c\n" + "".join(",".join(map(str, r)) + "\n" for r in cells))
        common = ["--data", str(p), "--cols", "a,b,c", "--input-col", input_col]
        code, swept, err = run(capsys, "sweep", *common, "--k-range", "2:2", "--format", "json")
        assert code == 0, err
        code, analyzed, err = run(capsys, "analyze", *common, "-k", "2")
        assert code == 0, err
        assert swept == analyzed
        assert [r["n_transitions"] for r in read_jsonl(swept)] == [3 * (500 - 2)] * 3

    def test_roundtrip_bit_identical(self, tmp_path, capsys):
        outs = []
        for name in ("r1.csv", "r2.csv"):
            p = gen_file(tmp_path, capsys, "markov:p_stay=0.7", "xor", 5000, seed=42, name=name)
            code, out, _ = run(
                capsys, "analyze", "--data", str(p), "-k", "2", "--input-col", "input",
            )
            assert code == 0
            outs.append(out)
        assert outs[0] == outs[1]


    def test_directory_is_data_error(self, tmp_path, capsys):
        code, _, err = run(capsys, "analyze", "--data", str(tmp_path), "--measure", "ais", "-k", "1")
        assert code == 2
        assert json.loads(err)["error"] == "data"

    def test_absent_file_is_data_error(self, tmp_path, capsys):
        p = tmp_path / "absent.csv"
        code, out, err = run(capsys, "analyze", "--data", str(p), "-k", "1")
        assert (code, out) == (2, "")
        msg = json.loads(err)
        assert msg["error"] == "data"
        assert msg["message"].startswith(f"cannot read {p}: ")

    def test_non_utf8_pipe_is_data_error(self, capsys):
        # three bytes fit the pipe's buffer, so no writer thread is needed
        r, w = os.pipe()
        os.write(w, b"\xff\xfe\xfa")
        os.close(w)
        try:
            code, out, err = run(capsys, "analyze", "--data", f"/dev/fd/{r}", "-k", "1")
        finally:
            os.close(r)
        assert (code, out) == (2, "")
        [line] = err.splitlines()
        msg = json.loads(line)
        assert msg["error"] == "data"
        assert msg["message"].startswith(f"cannot read /dev/fd/{r}: 'utf-8' codec can't decode")

    def test_non_utf8_file_is_data_error(self, tmp_path, capsys):
        p = tmp_path / "binary.csv"
        p.write_bytes(b"\xff\xfe\xfa")
        code, _, err = run(capsys, "analyze", "--data", str(p), "--measure", "ais", "-k", "1")
        assert code == 2
        assert json.loads(err)["error"] == "data"

    def test_large_symbol_bounded_memory(self, tmp_path, capsys):
        # one symbol of 10**6: ranking relabels it to 2, so the table stays
        # small; test_symseq.py counts an unranked 10**6-symbol alphabet
        values = [0, 1] * 500
        values[500] = 10**6
        p = tmp_path / "wide.csv"
        p.write_text("output\n" + "\n".join(map(str, values)) + "\n")
        tracemalloc.start()
        try:
            code, out, err = run(capsys, "analyze", "--data", str(p), "-k", "1", "--local")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert code == 0, err
        assert peak < 50 * 2**20
        (res,) = read_jsonl(out)
        assert res["n_transitions"] == 999
        # symbols are ranked, so k = 3 needs 3**4 cells, not (10**6 + 1)**4,
        # and gives what the series relabelled to {0, 1, 2} gives
        q = tmp_path / "ranked.csv"
        q.write_text("output\n" + "\n".join(str(min(v, 2)) for v in values) + "\n")
        outs = []
        for path in (p, q):
            code, out, err = run(capsys, "analyze", "--data", str(path), "-k", "3", "--local")
            assert code == 0, err
            outs.append(out)
        assert outs[0] == outs[1]
        # 3**41 cells still do not fit a 64-bit code
        code, _, err = run(capsys, "analyze", "--data", str(p), "-k", "40")
        assert code == 2
        assert "reduce k" in json.loads(err)["message"]

    def test_symbols_ranked_per_column_group(self, tmp_path, capsys):
        # outputs and inputs are each numbered by rank among the values
        # their columns hold; the results are those of the ranked file
        rng = np.random.default_rng(8)
        ranked = {"a": rng.integers(0, 3, 400), "b": rng.integers(0, 3, 400), "u": rng.integers(0, 2, 400)}
        sparse = {"a": np.array([5, 70, 2**40])[ranked["a"]],
                  "b": np.array([5, 70, 2**40])[ranked["b"]],
                  "u": np.array([3, 9])[ranked["u"]]}
        outs = []
        for name, cols in (("ranked", ranked), ("sparse", sparse)):
            p = tmp_path / f"{name}.csv"
            rows = [f"{a},{b},{u}" for a, b, u in zip(cols["a"], cols["b"], cols["u"])]
            p.write_text("a,b,u\n" + "\n".join(rows) + "\n")
            code, out, err = run(
                capsys, "sweep", "--data", str(p), "--cols", "a,b", "--input-col", "u",
                "--k-range", "1:4", "--format", "json",
            )
            assert code == 0, err
            outs.append(out)
        assert outs[0] == outs[1]

    @pytest.mark.parametrize("k", [1, 3])
    @pytest.mark.parametrize("input_col", [None, "drive"])
    def test_local_json_matches_library(self, tmp_path, capsys, k, input_col):
        rng = np.random.default_rng(4)
        x = rng.integers(0, 8, 30_000)
        u = rng.integers(0, 4, 30_000)
        p = tmp_path / "sym.csv"
        p.write_text("drive,output\n" + "".join(f"{a},{b}\n" for a, b in zip(u, x)))
        argv = ["analyze", "--data", str(p), "-k", str(k), "--local"]
        if input_col:
            argv += ["--input-col", input_col]
        code, out, err = run(capsys, *argv)
        assert code == 0, err
        table = count_joint(
            SymbolSeries(Alphabet(8), x),
            SymbolSeries(Alphabet(4), u) if input_col else None,
            EmbeddingConfig(k),
        )
        measures = list(infodyn.MEASURES) if input_col else ["ais"]
        expected = "".join(
            json.dumps({
                "schema": "icais/1",
                "measure": r.measure,
                "k": r.k,
                "average_bits": r.average_bits,
                "n_transitions": r.n_transitions,
                "source": r.source,
                "local": r.local.values.tolist(),
                "start_index": r.local.start_index,
            }) + "\n"
            for r in infodyn.evaluate(measures, table, local=True)
        )
        assert out == expected
        if k == 3:
            (ais,) = infodyn.evaluate(["ais"], table, local=True)
            assert len(np.unique(ais.local.values)) > 1000

    def test_json_value_matches_json_dumps(self):
        values = np.array([0.0, -0.0, 1 / 3, -2.5e-300, np.nan, np.inf, -np.inf, 1 / 3, 0.0])
        # more values than one write block, and not a multiple of it
        long = np.resize(values, 2 * _ROWS_PER_WRITE + 5)
        for array in (values, long, np.array([], dtype=np.float64)):
            # one cell per step
            steps = np.arange(array.size, dtype=np.int32)
            out = io.StringIO()
            _write_profile(out, array, steps)
            assert out.getvalue() == json.dumps(array.tolist())

    def test_json_profile_formats_each_cell_once(self, monkeypatch):
        # many steps over four cells, holding 0.0, -0.0, NaN and 1/3
        cell_values = np.array([0.0, -0.0, np.nan, 1 / 3])
        steps = np.random.default_rng(3).integers(0, 4, 3 * _ROWS_PER_WRITE + 7).astype(np.int32)
        formatted = []
        real_dumps = json.dumps
        monkeypatch.setattr(cli.json, "dumps", lambda v: formatted.append(v) or real_dumps(v))
        out = io.StringIO()
        _write_profile(out, cell_values, steps)
        assert out.getvalue() == real_dumps(cell_values[steps].tolist())
        assert sum(isinstance(v, float) for v in formatted) == 4

    @pytest.mark.parametrize("m", [0, 1, 2, 4, 64, 65, 300])
    def test_grouped_profile_matches_json_dumps(self, m):
        # m distinct cell values, 0.0, -0.0 and NaN among them; the steps
        # are written g at a time, the largest g with m^g <= _GROUP_LIMIT,
        # so lengths around g and around one write block are drawn
        rng = np.random.default_rng(m)
        cell_values = np.r_[0.0, -0.0, np.nan, rng.standard_normal(max(m - 3, 0))][:m]
        g = max(g for g in range(1, 13) if m**g <= _GROUP_LIMIT)
        lengths = [0] if m == 0 else [1, g - 1, g, g + 1, _STEPS_PER_WRITE - 1, _STEPS_PER_WRITE + 1,
                                      3 * _STEPS_PER_WRITE + 7]
        for dtype in (np.uint8, np.uint16, np.uint32, np.int64):
            for n in lengths:
                steps = rng.integers(0, min(m, np.iinfo(dtype).max + 1), n).astype(dtype)
                out = io.StringIO()
                _write_profile(out, cell_values, steps)
                assert out.getvalue() == json.dumps(cell_values[steps].tolist())

    def test_symbol_beyond_int64_is_data_error(self, tmp_path, capsys):
        p = tmp_path / "huge.csv"
        p.write_text("output\n0\n99999999999999999999999\n1\n")
        code, out, err = run(capsys, "analyze", "--data", str(p), "-k", "1")
        assert code == 2
        assert out == ""
        msg = json.loads(err)
        assert msg["error"] == "data"
        assert f"{p}:3:" in msg["message"] and "64-bit" in msg["message"]

    def test_overflow_error_is_data_error(self, tmp_path, capsys, monkeypatch):
        from infostorage import cli

        def overflow(path):
            raise OverflowError("Python int too large to convert to C long")

        monkeypatch.setattr(cli, "_read_csv", overflow)
        code, _, err = run(capsys, "analyze", "--data", str(tmp_path / "x.csv"), "-k", "1")
        assert code == 2
        assert json.loads(err)["error"] == "data"

    def test_field_over_csv_limit_is_data_error(self, tmp_path, capsys):
        p = tmp_path / "long.csv"
        p.write_text("output\n0\n" + "1" * 200_000 + "\n")
        code, _, err = run(capsys, "analyze", "--data", str(p), "-k", "1")
        assert code == 2
        assert json.loads(err)["error"] == "data"

    def test_spaced_field_over_csv_limit_is_data_error(self, tmp_path, capsys):
        # a field of one digit, but longer than csv's field limit
        p = tmp_path / "spaced.csv"
        p.write_text("output\n0\n" + " " * 200_000 + "1\n")
        code, _, err = run(capsys, "analyze", "--data", str(p), "-k", "1")
        assert code == 2
        assert json.loads(err)["error"] == "data"

    @pytest.mark.parametrize("argv", [
        ["analyze", "-k", "0"],
        ["analyze", "-k", "1", "--measure", "icais"],
        ["analyze", "-k", "1", "--cols", ","],
        ["analyze", "-k", "1", "--cols", "a,b,c", "--input-col", "u,v"],
        ["sweep", "--k-range", "4:1"],
        ["sweep", "--k-range", "1:2", "--measure", "interaction"],
        ["analyze", "-k", "1", "--input-lag", "-1"],
        ["sweep", "--k-range", "1:2", "--input-lag", "-1"],
        ["analyze", "-k", "1", "--local", "--format", "csv"],
        ["analyze", "-k", "1", "--input-lag", "3"],
        ["sweep", "--k-range", "1:2", "--input-lag", "1"],
        ["analyze", "-k", "1", "--cols", "a,a"],
        ["sweep", "--k-range", "1:2", "--cols", "a,b,a", "--input-col", "u"],
        ["analyze", "-k", "1", "--measure", "bogus"],
        ["analyze", "-k", "x"],
        ["sweep", "--k-range", "a:b"],
        ["analyze", "-k", "1", "--cols", "a", "--input-col", ","],
        ["analyze", "-k", "1", "--cols", "a", "--input-col", ""],
    ])
    def test_usage_checked_before_ingest(self, tmp_path, capsys, argv):
        # the file does not exist: reading it first would be a data error
        code, out, err = run(capsys, *argv, "--data", str(tmp_path / "absent.csv"))
        assert (code, out) == (1, "")
        assert json.loads(err)["error"] == "usage"

    @pytest.mark.parametrize("argv", [
        ["bogus"],
        ["analyze", "-k", "1"],
        ["oracle", "--process", "bernoulli:p=0.5", "--unit", "xor", "-k", "1", "--k-range", "1:2"],
        ["oracle", "--process", "bernoulli:p=0.5", "--unit", "xor:seed=1", "-k", "1"],
    ], ids=["unknown-command", "no-data", "k-and-k-range", "unknown-xor-parameter"])
    def test_argument_errors_are_one_usage_line(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (1, "")
        assert json.loads(err)["error"] == "usage"

    def test_repeated_input_col_pairs_with_each_output(self, tmp_path, capsys):
        rng = np.random.default_rng(3)
        p = tmp_path / "pair.csv"
        p.write_text("u,a,b\n" + "".join(",".join(map(str, r)) + "\n" for r in rng.integers(0, 2, (200, 3))))
        outs = []
        for input_col in ("u,u", "u"):
            code, out, err = run(capsys, "analyze", "--data", str(p), "-k", "2", "--cols", "a,b",
                                 "--input-col", input_col)
            assert code == 0, err
            outs.append(out)
        assert outs[0] == outs[1]


def _read_outcome(path):
    try:
        columns, data = _read_csv(path)
    except DataError as e:
        return str(e)
    return columns, np.column_stack([data[c] for c in columns]).tolist()


def _cells_outcome(path):
    try:
        columns, arr = _read_csv_cells(Path(path).read_bytes(), path)
    except DataError as e:
        return str(e)
    return columns, arr.tolist()


def spy_one_digit_rows(monkeypatch):
    """The list to which each call of ``cli._one_digit_rows`` appends its
    result: a uint8 block, or None for a chunk it leaves to the tokenizer."""
    blocks, real = [], cli._one_digit_rows
    monkeypatch.setattr(cli, "_one_digit_rows", lambda *a: blocks.append(real(*a)) or blocks[-1])
    return blocks


# (file text, what the per-cell parser makes of it, whether the tokenizer takes it)
INGEST_CASES = [
    ("output\n1\n0\n", (["output"], [[1], [0]]), True),
    ('output\n"1"\n"0"\n', (["output"], [[1], [0]]), False),
    ("output\n 1\n0 \n", (["output"], [[1], [0]]), True),
    ("output\n+1\n0\n", (["output"], [[1], [0]]), True),
    ("output\n1_0\n0\n", (["output"], [[10], [0]]), False),
    ("output\n1\n\n0\n\n", (["output"], [[1], [0]]), True),
    ("input, output\r\n0,1\r\n1,0\r\n", (["input", "output"], [[0, 1], [1, 0]]), True),
    ("input,output\n0,1\n1,0", (["input", "output"], [[0, 1], [1, 0]]), True),
    ("a\n-9223372036854775808\n9223372036854775807\n",
     (["a"], [[-(2**63)], [2**63 - 1]]), True),
    ("", "empty file: {path}", False),
    ("output\n", "no data rows in {path}", False),
    ("output\n\n\n", "no data rows in {path}", False),
    ("a\n1,2\n3,4\n", "{path}:2: expected 1 fields", False),
    ("a,b\n1,2\n3\n", "{path}:3: expected 2 fields", False),
    ("output\n0\n1\n\nx\n", "{path}:5: non-integer value 'x' in column 'output'", False),
    ("output\n0\n1.0\n", "{path}:3: non-integer value '1.0' in column 'output'", False),
    ("output\n0\n \n", "{path}:3: non-integer value ' ' in column 'output'", False),
    # numpy skips \x1c as a space and reads U+01FE as a digit; int() does neither
    ("output\n0\n\x1c1\n", "{path}:3: non-integer value '\\x1c1' in column 'output'", False),
    ("output\n0\n\u01fe\n", "{path}:3: non-integer value '\u01fe' in column 'output'", False),
    ("output\n0\n9223372036854775808\n",
     "{path}:3: value '9223372036854775808' in column 'output' does not fit a 64-bit integer",
     False),
    ("output\n0\n12345678901234567890\n",
     "{path}:3: value '12345678901234567890' in column 'output' does not fit a 64-bit integer",
     False),
    ("output\n0\n-9223372036854775809\n",
     "{path}:3: value '-9223372036854775809' in column 'output' does not fit a 64-bit integer",
     False),
    # more than 19 digits go to the per-cell parser, even as leading zeros
    ("output\n00000000000000000001\n-0000000000000000000000002\n", (["output"], [[1], [-2]]), False),
    ("a\n1234567890123456789\n-99999999\n100000000\n+0012\n",
     (["a"], [[1234567890123456789], [-99999999], [100000000], [12]]), True),
    ("output\n1 2\n", "{path}:2: non-integer value '1 2' in column 'output'", False),
    ("output\n- 1\n", "{path}:2: non-integer value '- 1' in column 'output'", False),
    ("output\n+\n", "{path}:2: non-integer value '+' in column 'output'", False),
    ("a,b,c\n1,,2\n", "{path}:2: non-integer value '' in column 'b'", False),
    ("a,b\n1,2,\n", "{path}:2: expected 2 fields", False),
    ("output\n0\n  \n1\n", "{path}:3: non-integer value '  ' in column 'output'", False),
    ("output\r\n1\r\n\r\n\n0\r\n", (["output"], [[1], [0]]), True),
    ("output\r1\r0\r", (["output"], [[1], [0]]), False),
    ("a,b\n1,2\r3,4\n", (["a", "b"], [[1, 2], [3, 4]]), False),
    ("output\n\t1\n0\t\n", (["output"], [[1], [0]]), True),
    ('"a,b",c\n1,2\n', (["a,b", "c"], [[1, 2]]), True),
    ('"a\nb",c\n1,2\n', (["a\nb", "c"], [[1, 2]]), False),
    ('x,"y\n1,2\n', "no data rows in {path}", False),
    ("a,b\n1\r,2\n", "{path}:2: expected 2 fields", False),
    # a tab is field whitespace; a tab alone, or after a sign, is not a value
    ("output\n0\n\t\n", "{path}:3: non-integer value '\\t' in column 'output'", False),
    ("output\n-\t1\n", "{path}:2: non-integer value '-\\t1' in column 'output'", False),
    ("a,b\n1\t,\t2\n", (["a", "b"], [[1, 2]]), True),
    ("a\t\n1\n", (["a"], [[1]]), True),
    # a quoted line break: the line, not the record, is named
    ('"a\nb",c\n1,x\n', "{path}:3: non-integer value 'x' in column 'c'", False),
    ('a,b\n"1\n",2\n3,x\n', "{path}:4: non-integer value 'x' in column 'b'", False),
    # blank lines are skipped before the header too, by the tokenizer
    # while they end in \n or \r\n
    ("\noutput\n1\n0\n", (["output"], [[1], [0]]), True),
    ("\n\n", "empty file: {path}", False),
    # a leading UTF-8 byte-order mark is dropped by both parsers
    ("\ufeffinput,output\n0,1\n1,0\n", (["input", "output"], [[0, 1], [1, 0]]), True),
    ('\ufeffinput,output\n"0",1\n1,0\n', (["input", "output"], [[0, 1], [1, 0]]), False),
    # blank lines before the header may end in \r\n; a byte-order mark may
    # come before them, and one after them stays in the first name
    ("\r\n\r\noutput\r\n1\r\n0\r\n", (["output"], [[1], [0]]), True),
    ("\ufeff\n\ninput,output\n0,1\n1,0\n", (["input", "output"], [[0, 1], [1, 0]]), True),
    ("\n\ufeffoutput\n1\n", (["\ufeffoutput"], [[1]]), True),
    # rows of one byte per field: the bytes either side of the digits, and
    # a separator other than a comma, are not read as one-digit rows
    ("output\n1\n:\n", "{path}:3: non-integer value ':' in column 'output'", False),
    ("output\n1\n/\n", "{path}:3: non-integer value '/' in column 'output'", False),
    ("a,b\n1,2\n3;4\n", "{path}:3: expected 2 fields", False),
]


class TestIngest:
    @pytest.mark.parametrize("text, expected, fast", INGEST_CASES)
    def test_fast_path_matches_cell_parser(self, tmp_path, capfd, text, expected, fast):
        p = tmp_path / "in.csv"
        p.write_bytes(text.encode())
        assert (_read_csv_fast(p.read_bytes()) is not None) == fast
        got = _read_outcome(str(p))
        assert got == _cells_outcome(str(p))
        assert got == (expected.format(path=p) if isinstance(expected, str) else expected)
        assert capfd.readouterr() == ("", "")

    def test_fast_path_matches_cell_parser_on_random_text(self, tmp_path, capfd):
        rng = np.random.default_rng(2024)
        noise = [
            "", "", "", " ", "\t", '"', "+", "-", "_", ".", "e", "#", ",", "\x0b", "\x1c",
            "\x00", "\x85", "\u00a0", "\u01fe", "\u0661", "\u2028", "99999999999999999999",
        ]
        ends = ["\n", "\n", "\r\n", "\r"]
        p = tmp_path / "fuzz.csv"
        fast = 0
        for _ in range(600):
            width = int(rng.integers(1, 4))
            text = " , ".join("abc"[:width]) + rng.choice(ends)
            for _ in range(rng.integers(0, 6)):
                n_cells = width if rng.random() < 0.9 else int(rng.integers(0, 5))
                cells = [
                    rng.choice(noise) + str(rng.integers(-3, 300)) + rng.choice(noise)
                    if rng.random() < 0.15 else str(rng.integers(0, 300))
                    for _ in range(n_cells)
                ]
                text += ",".join(cells) + rng.choice(ends)
            if rng.random() < 0.3:
                text = text.rstrip("\r\n")
            p.write_bytes(text.encode())
            fast += _read_csv_fast(p.read_bytes()) is not None
            assert _read_outcome(str(p)) == _cells_outcome(str(p)), repr(text)
        assert 100 < fast < 500
        assert capfd.readouterr() == ("", "")

    def test_fast_path_matches_cell_parser_across_chunks(self, tmp_path):
        # many chunks of signed values of 1 to 19 digits, spaced, with CRLF
        # and blank lines; the last line has no line end
        rng = np.random.default_rng(5)
        n = 3 * _CSV_CHUNK // 8
        digits = rng.integers(1, 19, size=(n, 2))
        values = rng.integers(10 ** (digits - 1), 10**digits)
        values[rng.random((n, 2)) < 0.3] *= -1
        values[:3] = [[2**63 - 1, -(2**63)], [10**18, -(10**18)], [0, 0]]
        signs = rng.choice(["", "", "+"], size=(n, 2))
        pads = rng.choice(["", "", " ", "  "], size=(n, 4))
        ends = rng.choice(["\n", "\n", "\r\n", "\n\n", "\r\n\r\n"], size=n)
        rows = [
            f"{p[0]}{s[0] if v[0] >= 0 else ''}{v[0]}{p[1]},{p[2]}{s[1] if v[1] >= 0 else ''}{v[1]}{p[3]}{e}"
            for v, s, p, e in zip(values.tolist(), signs, pads, ends)
        ]
        p = tmp_path / "chunks.csv"
        p.write_text("x,y\n" + "".join(rows).rstrip("\r\n"))
        assert p.stat().st_size > 3 * _CSV_CHUNK
        columns, arr = _read_csv_fast(p.read_bytes())
        assert (columns, arr.tolist()) == _cells_outcome(str(p))
        assert arr.tolist() == values.tolist()

    @pytest.mark.parametrize("seed, change", enumerate([
        None, "two digits", "space", "tab", "plus", "minus", "crlf", "blank line", "unended", "bom",
    ]))
    def test_one_digit_blocks_match_cell_parser(self, tmp_path, monkeypatch, seed, change):
        # a body of one-digit rows spanning several chunks, with at most one
        # change in one row: only that row's chunk leaves the one-digit
        # block for the general tokenizer
        rng = np.random.default_rng(seed)
        n_cols = int(rng.integers(1, 5))
        n = 3 * _CSV_CHUNK // (2 * n_cols) + int(rng.integers(1, 100))
        cells = [list(map(str, r)) for r in rng.integers(0, 10, (n, n_cols)).tolist()]
        i, j = int(rng.integers(_CSV_CHUNK // (2 * n_cols), n)), int(rng.integers(n_cols))
        cells[i][j] = {"two digits": str(rng.integers(10, 100)), "space": f" {cells[i][j]}",
                       "tab": f"{cells[i][j]}\t", "plus": f"+{cells[i][j]}",
                       "minus": f"-{int(cells[i][j]) or 1}"}.get(change, cells[i][j])
        lines = [",".join(r) + "\n" for r in cells]
        if change == "crlf":
            lines[i] = lines[i].replace("\n", "\r\n")
        if change == "blank line":
            lines.insert(i, "\n")
        header = ",".join("abcd"[:n_cols]) + "\n"
        text = ("\ufeff\n" if change == "bom" else "") + header + "".join(lines)
        p = tmp_path / "digits.csv"
        p.write_text(text.rstrip("\n") if change == "unended" else text)
        blocks = spy_one_digit_rows(monkeypatch)
        columns, arr = _read_csv_fast(p.read_bytes())
        assert (columns, arr.tolist()) == _cells_outcome(str(p))
        assert len(blocks) >= 3
        if change in (None, "unended", "bom"):
            assert all(b is not None for b in blocks)
        else:
            assert sum(b is None for b in blocks) == 1
        if change not in ("two digits", "minus"):
            assert arr.dtype == np.uint8

    def test_generated_file_is_read_as_one_digit_blocks(self, tmp_path, capsys, monkeypatch):
        p = gen_file(tmp_path, capsys, "markov:p_stay=0.7", "xor", _CSV_CHUNK, seed=7)
        blocks = spy_one_digit_rows(monkeypatch)
        columns, arr = _read_csv_fast(p.read_bytes())
        assert len(blocks) >= 3 and all(b is not None for b in blocks)
        assert arr.dtype == np.uint8
        assert (columns, arr.tolist()) == _cells_outcome(str(p))

    @pytest.mark.parametrize("value, dtype", [
        (255, np.uint8), (256, np.uint16), (2**16 - 1, np.uint16), (2**16, np.uint32),
        (2**32 - 1, np.uint32), (2**32, np.int64), (2**63 - 1, np.int64), (-1, np.int64),
        (-(2**63), np.int64),
    ])
    def test_block_widens_to_hold_a_late_value(self, tmp_path, value, dtype):
        # the value follows more than one chunk of 0/1 rows, which the
        # block holds as uint8 until then
        rows = np.random.default_rng(8).integers(0, 2, (_CSV_CHUNK // 3, 2))
        p = tmp_path / "late.csv"
        p.write_text("a,b\n" + "".join(f"{a},{b}\n" for a, b in rows.tolist()) + f"1,{value}\n0,1\n")
        columns, arr = _read_csv_fast(p.read_bytes())
        assert arr.dtype == dtype
        assert (columns, arr.tolist()) == _cells_outcome(str(p))
        assert arr[-2:].tolist() == [[1, value], [0, 1]]

    @pytest.mark.parametrize("value", [-1, 2**32, 2**63 - 1, -(2**63)])
    def test_unused_wide_column_leaves_analysis_unchanged(self, tmp_path, capsys, value):
        p = gen_file(tmp_path, capsys, "markov:p_stay=0.7", "xor", 30_000, seed=6)
        lines = p.read_text().splitlines(keepends=True)
        q = tmp_path / "junk.csv"
        q.write_text("".join([lines[0].replace("\n", ",junk\n")]
                             + [line.replace("\n", f",{value if i == 25_000 else 0}\n")
                                for i, line in enumerate(lines[1:])]))
        outs = []
        for path in (p, q):
            code, out, err = run(capsys, "analyze", "--data", str(path), "-k", "3", "--input-col", "input")
            assert code == 0, err
            outs.append(out)
        assert outs[0] == outs[1]

    @pytest.mark.parametrize("quoted", [False, True], ids=["tokenized", "quoted cell"])
    def test_piped_stdin_reads_as_the_file(self, tmp_path, capsys, quoted):
        # a pipe reports no size, so it is read to its end, here across
        # more than one chunk of the tokenizer; a quoted cell sends the same
        # bytes to the per-cell parser
        p = gen_file(tmp_path, capsys, "markov:p_stay=0.7", "xor", 50_000, seed=4)
        if quoted:
            header, body = p.read_text().split("\n", 1)
            p.write_text(f'{header}\n"{body[0]}"{body[1:]}')
        argv = ["analyze", "-k", "3", "--input-col", "input", "--local", "--data"]
        code, want, err = run(capsys, *argv, str(p))
        assert code == 0, err
        piped = run_piped(argv, p.read_bytes())
        assert (piped.returncode, piped.stderr) == (0, b"")
        assert piped.stdout.decode() == want

    @pytest.mark.parametrize("quoted", [False, True], ids=["tokenized", "quoted cell"])
    def test_byte_order_mark_reads_as_the_file_without_it(self, tmp_path, capsys, quoted):
        p = gen_file(tmp_path, capsys, "markov:p_stay=0.7", "xor", 2_000, seed=5)
        if quoted:
            header, body = p.read_text().split("\n", 1)
            p.write_text(f'{header}\n"{body[0]}"{body[1:]}')
        marked = tmp_path / "marked.csv"
        marked.write_bytes(codecs.BOM_UTF8 + p.read_bytes())
        argv = ["analyze", "-k", "3", "--input-col", "input", "--local", "--data"]
        code, want, err = run(capsys, *argv, str(p))
        assert code == 0, err
        assert run(capsys, *argv, str(marked)) == (0, want, "")
        piped = run_piped(argv, marked.read_bytes())
        assert (piped.returncode, piped.stderr) == (0, b"")
        assert piped.stdout.decode() == want


class TestSweep:
    def test_header_and_rows(self, tmp_path, capsys):
        p = gen_file(tmp_path, capsys, "markov:p_stay=0.7", "forwarding", 50_000)
        code, out, _ = run(
            capsys, "sweep", "--data", str(p), "--measure", "ais", "--k-range", "1:4",
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "measure,k,average_bits,n_transitions"
        assert len(lines) == 5
        ks = [int(line.split(",")[1]) for line in lines[1:]]
        assert ks == [1, 2, 3, 4]
        # common alignment: all k share n_transitions of the largest
        ns = {line.split(",")[3] for line in lines[1:]}
        assert ns == {str(50_000 - 4)}

    def test_bad_range_is_usage_error(self, tmp_path, capsys):
        p = gen_file(tmp_path, capsys, "bernoulli:p=0.5", None, 100)
        code, _, err = run(
            capsys, "sweep", "--data", str(p), "--measure", "ais", "--k-range", "4:1",
        )
        assert code == 1

    @pytest.mark.parametrize("argv, ks", [
        (["sweep", "--k-range", "1:8"], list(range(1, 9))),
        (["analyze", "-k", "5"], [5]),
    ])
    def test_counts_once_at_the_longest_history(self, tmp_path, capsys, monkeypatch, argv, ks):
        calls = []

        def counting(x, u, cfg):
            calls.append(cfg.k)
            return count_joint(x, u, cfg)

        monkeypatch.setattr(cli, "count_joint", counting)
        p = gen_file(tmp_path, capsys, "markov:p_stay=0.7", "xor", 500)
        code, out, err = run(
            capsys, *argv, "--input-col", "input", "--format", "json", "--data", str(p),
        )
        assert code == 0, err
        assert calls == [ks[-1]]
        assert [r["k"] for r in read_jsonl(out)] == [k for k in ks for _ in range(3)]

    def test_k_over_code_limit_fails_before_counting(self, tmp_path, capsys):
        # the sweep counts once at max(k), so it is refused at k = 70, not
        # after counting every k below the 64-bit code limit
        p = gen_file(tmp_path, capsys, "bernoulli:p=0.5", "xor", 200)
        code, out, err = run(
            capsys, "sweep", "--data", str(p), "--input-col", "input", "--k-range", "1:70",
        )
        assert code == 2
        assert out == ""
        msg = json.loads(err)
        assert msg["error"] == "data"
        assert "2^70" in msg["message"] and "reduce k" in msg["message"]

    def test_k_range_bound_far_beyond_the_data_is_too_short(self, tmp_path, capsys):
        # the range is never expanded, so its upper bound costs no memory
        # and the refusal names the series, not the size of k
        p = gen_file(tmp_path, capsys, "bernoulli:p=0.5", "xor", 200)
        code, out, err = run(
            capsys, "sweep", "--data", str(p), "--input-col", "input",
            "--k-range", "1:1000000000000",
        )
        assert code == 2
        assert out == ""
        msg = json.loads(err)
        assert msg["error"] == "data"
        assert "series of length 200 too short" in msg["message"]


class TestOracle:
    def test_forwarding_u1_ais_zero(self, capsys):
        code, out, _ = run(
            capsys, "oracle", "--process", "bernoulli:p=0.5", "--unit", "forwarding",
            "--measure", "ais", "-k", "1",
        )
        assert code == 0
        (res,) = read_jsonl(out)
        assert res["source"] == "oracle"
        assert abs(res["average_bits"]) < 1e-12

    def test_forwarding_u2_interaction(self, capsys):
        code, out, _ = run(
            capsys, "oracle", "--process", "markov:p_stay=0.7", "--unit", "forwarding",
            "--measure", "interaction", "-k", "1",
        )
        (res,) = read_jsonl(out)
        target = -(0.3 * np.log2(0.6) + 0.7 * np.log2(1.4))
        assert res["average_bits"] == pytest.approx(target, abs=1e-12)

    def test_xor_u2_icais_k2(self, capsys):
        code, out, _ = run(
            capsys, "oracle", "--process", "markov:p_stay=0.7", "--unit", "xor",
            "--measure", "icais", "-k", "2",
        )
        (res,) = read_jsonl(out)
        assert res["average_bits"] == pytest.approx(1.0, abs=1e-12)

    def test_k_range_csv(self, capsys):
        code, out, _ = run(
            capsys, "oracle", "--process", "bernoulli:p=0.5", "--unit", "xor",
            "--measure", "icais", "--k-range", "1:3", "--format", "csv",
        )
        lines = out.strip().splitlines()
        assert lines[0] == "measure,k,average_bits,n_transitions"
        for line in lines[1:]:
            assert float(line.split(",")[2]) == pytest.approx(1.0, abs=1e-12)

    def test_invalid_spec_is_usage_error(self, capsys):
        code, _, err = run(
            capsys, "oracle", "--process", "markov:p_stay=1.0", "--unit", "xor",
            "--measure", "ais", "-k", "1",
        )
        assert code == 1
        msg = json.loads(err)
        assert msg["error"] == "usage"
        # in the spelling --process accepts, not the library's kind names
        assert msg["message"] == "markov spec needs 0 < p_stay < 1: 'markov:p_stay=1.0'"

    def test_k_range_over_state_limit_fails_before_solving(self, capsys, monkeypatch):
        calls = []
        solve = procsim.oracle_joint

        def counting(proc, unit, k):
            calls.append(k)
            return solve(proc, unit, k)

        monkeypatch.setattr(procsim, "oracle_joint", counting)
        code, out, err = run(
            capsys, "oracle", "--process", "markov:p_stay=0.7", "--unit", "xor",
            "--k-range", "1:19",
        )
        # one attempt, at the longest k; no shorter k is solved
        assert code == 1
        assert out == "" and calls == [19]
        msg = json.loads(err)
        assert msg["error"] == "usage"
        assert str(2 * 2 * 2**19) in msg["message"] and "reduce k" in msg["message"]

    def test_k_range_solves_once_at_the_longest_history(self, capsys, monkeypatch):
        calls = []
        solve = procsim.oracle_joint

        def counting(proc, unit, k):
            calls.append(k)
            return solve(proc, unit, k)

        monkeypatch.setattr(procsim, "oracle_joint", counting)
        code, out, err = run(
            capsys, "oracle", "--process", "markov:p_stay=0.7", "--unit", "xor:init=1",
            "--k-range", "1:6",
        )
        assert code == 0, err
        assert calls == [6]
        results = read_jsonl(out)
        assert [(r["k"], r["measure"]) for r in results] == [
            (k, m) for k in range(1, 7) for m in infodyn.MEASURES
        ]
        proc = procsim.ProcessSpec("markov_binary", p_stay=0.7)
        unit = procsim.UnitSpec("xor_memory", initial_state=1)
        for k in range(1, 7):
            want = infodyn.evaluate(infodyn.MEASURES, solve(proc, unit, k), k=k)
            got = [r for r in results if r["k"] == k]
            for g, w in zip(got, want):
                assert abs(g["average_bits"] - w.average_bits) < 1e-10

    def test_k_over_state_limit_is_usage_error(self, capsys):
        # 2 * 2 * 2**40 composite states: refused before anything is built
        tracemalloc.start()
        try:
            code, out, err = run(
                capsys, "oracle", "--process", "bernoulli:p=0.5", "--unit", "xor",
                "--measure", "ais", "-k", "40",
            )
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert code == 1
        assert out == ""
        msg = json.loads(err)
        assert msg["error"] == "usage"
        assert "reduce k" in msg["message"]
        assert peak < 2**20

    @pytest.mark.parametrize("ks", [
        ["-k", "100000"], ["-k", "100000000"], ["--k-range", "1:1000000000000"],
    ])
    def test_huge_k_names_the_limit_without_building_the_space(self, capsys, ks):
        # |X|^k is never built for a k this large, nor printed in full
        tracemalloc.start()
        try:
            code, out, err = run(
                capsys, "oracle", "--process", "bernoulli:p=0.5", "--unit", "xor", *ks,
            )
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert code == 1
        assert out == ""
        msg = json.loads(err)
        assert msg["error"] == "usage"
        assert f"2 * 2 * 2^{ks[1].split(':')[-1]} states" in msg["message"]
        assert "limit 1048576" in msg["message"]
        assert peak < 2**20

    def test_k_15_in_bounded_memory(self, capsys):
        # 2 * 2 * 2**15 composite states held as sparse successor arrays
        tracemalloc.start()
        try:
            code, out, err = run(
                capsys, "oracle", "--process", "markov:p_stay=0.7", "--unit", "xor",
                "--measure", "all", "--k-range", "1:15",
            )
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert code == 0, err
        assert peak < 100 * 2**20
        results = read_jsonl(out)
        assert [r["k"] for r in results] == [k for k in range(1, 16) for _ in range(3)]
        for r in results:
            if r["measure"] == "icais":
                assert r["average_bits"] == pytest.approx(1.0, abs=1e-9)

    def test_memory_error_is_numerical(self, capsys, monkeypatch):
        from infostorage import procsim

        def exhausted(*args, **kwargs):
            raise MemoryError

        monkeypatch.setattr(procsim, "oracle_joint", exhausted)
        code, _, err = run(
            capsys, "oracle", "--process", "bernoulli:p=0.5", "--unit", "xor",
            "--measure", "ais", "-k", "14",
        )
        assert code == 3
        msg = json.loads(err)
        assert msg["error"] == "numerical"
        assert "reduce k" in msg["message"]
