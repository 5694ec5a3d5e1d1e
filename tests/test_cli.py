import csv
import io
import json
import re
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from infostorage import Alphabet, EmbeddingConfig, SymbolSeries, cli, count_joint, infodyn, procsim
from infostorage.cli import (
    _ROWS_PER_WRITE,
    DataError,
    _parse_process_spec,
    _parse_unit_spec,
    _read_csv,
    _read_csv_cells,
    _read_csv_fast,
    _write_json_line,
    main,
)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


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

    def test_bad_spec_is_usage_error(self, tmp_path, capsys):
        code, _, err = run(
            capsys, "generate", "--process", "zipf:a=2", "--n", "5",
            "--out", str(tmp_path / "x.csv"),
        )
        assert code == 1

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
                    "markov:p_stay=1.0", "bernoulli:p=abc"):
            with pytest.raises(ValueError, match=re.escape(repr(bad))):
                _parse_process_spec(bad)
        for bad in ("xor:init", "forwarding:x=1", "nand", "xor:init=2", "xor:init=abc"):
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

    def test_non_integer_cell_is_data_error(self, tmp_path, capsys):
        p = tmp_path / "bad.csv"
        p.write_text("output\n0\nx\n1\n")
        code, _, err = run(capsys, "analyze", "--data", str(p), "--measure", "ais", "-k", "1")
        assert code == 2
        msg = json.loads(err)["message"]
        assert ":3:" in msg and "output" in msg

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

    def test_non_utf8_file_is_data_error(self, tmp_path, capsys):
        p = tmp_path / "binary.csv"
        p.write_bytes(b"\xff\xfe\xfa")
        code, _, err = run(capsys, "analyze", "--data", str(p), "--measure", "ais", "-k", "1")
        assert code == 2
        assert json.loads(err)["error"] == "data"

    def test_large_symbol_bounded_memory(self, tmp_path, capsys):
        # one symbol of 10**6: the table holds observed cells only
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
        # (10**6 + 1)**4 cells do not fit a 64-bit code
        code, _, err = run(capsys, "analyze", "--data", str(p), "-k", "3")
        assert code == 2
        assert "reduce k" in json.loads(err)["message"]

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
            record = {"measure": "ais", "local": array, "start_index": 1}
            out = io.StringIO()
            _write_json_line(out, record)
            assert out.getvalue() == json.dumps({**record, "local": array.tolist()}) + "\n"

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

    @pytest.mark.parametrize("argv", [
        ["analyze", "-k", "0"],
        ["analyze", "-k", "1", "--measure", "icais"],
        ["analyze", "-k", "1", "--cols", ","],
        ["analyze", "-k", "1", "--cols", "a,b,c", "--input-col", "u,v"],
        ["sweep", "--k-range", "4:1"],
        ["sweep", "--k-range", "1:2", "--measure", "interaction"],
        ["analyze", "-k", "1", "--input-lag", "-1"],
        ["sweep", "--k-range", "1:2", "--input-lag", "-1"],
    ])
    def test_usage_checked_before_ingest(self, tmp_path, capsys, argv):
        # the file does not exist: reading it first would be a data error
        code, _, err = run(capsys, *argv, "--data", str(tmp_path / "absent.csv"))
        assert code == 1
        assert json.loads(err)["error"] == "usage"


def _read_outcome(path):
    try:
        columns, data = _read_csv(path)
    except DataError as e:
        return str(e)
    return columns, np.column_stack([data[c] for c in columns]).tolist()


def _cells_outcome(path):
    try:
        columns, arr = _read_csv_cells(path)
    except DataError as e:
        return str(e)
    return columns, arr.tolist()


# (file text, what the per-cell parser makes of it, whether numpy's parser takes it)
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
]


class TestIngest:
    @pytest.mark.parametrize("text, expected, fast", INGEST_CASES)
    def test_fast_path_matches_cell_parser(self, tmp_path, capfd, text, expected, fast):
        p = tmp_path / "in.csv"
        p.write_bytes(text.encode())
        assert (_read_csv_fast(str(p)) is not None) == fast
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
            fast += _read_csv_fast(str(p)) is not None
            assert _read_outcome(str(p)) == _cells_outcome(str(p)), repr(text)
        assert 100 < fast < 500
        assert capfd.readouterr() == ("", "")


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

        def counting(proc, unit, k):
            calls.append(k)
            return procsim.exact_joint(procsim.build_joint_chain(proc, unit, k))

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
