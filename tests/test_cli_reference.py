"""The CLI against a plain-Python reference, on small random CSV files.

Every stage of ``analyze --local`` and ``sweep`` has a fast path tested
against its own reference elsewhere: the byte tokenizer, the rank relabel,
narrow cell codes, dense and sorted ranks, chunked gathers and the per-cell
JSON writer.  Here their composition runs through ``cli.main`` and is
compared, field by field, with values computed from ``csv``, dict counts and
``math.log2``.  A file the reference rejects must end in exit code 2 with
one JSON data error.  Each file is also given through a pipe, which must
read as its path does.
"""

import contextlib
import csv
import io
import json
import math
import os
import threading
from collections import Counter
from unittest import mock

from hypothesis import example, given, settings
from hypothesis import strategies as st

from infostorage import cli, symseq

TOL = 1e-12


def reference_columns(path):
    """The file's columns by name; ValueError unless every line after the
    header has one symbol, from 0 to 2^63 - 1, per column."""
    with open(path, newline="", encoding="utf-8-sig") as fh:
        rows = [row for row in csv.reader(fh) if row]
    header = [name.strip() for name in rows[0]]
    body = [[int(cell) for cell in row] for row in rows[1:]]
    if not body or any(len(row) != len(header) for row in body):
        raise ValueError("no rows, or a row with the wrong number of fields")
    if not all(0 <= v < 2**63 for row in body for v in row):
        raise ValueError("a symbol outside 0..2^63 - 1")
    return {name: [row[i] for row in body] for i, name in enumerate(header)}


def reference_measures(xs, us, k, lag, k_count):
    """Averages and local values (realisation after realisation) at history
    length k, over the transitions a count at ``k_count`` aligns."""
    start = k_count + (max(0, lag - 1) if us else 0)
    steps = []
    for i, x in enumerate(xs):
        for m in range(start, len(x)):
            steps.append((tuple(x[m - k : m]), x[m], us[i][m - lag] if us else 0))
    n = len(steps)
    p = {key: c / n for key, c in Counter(steps).items()}

    def marginal(keep):
        out = Counter()
        for key, q in p.items():
            out[keep(*key)] += q
        return out

    p_hx, p_h, p_x = marginal(lambda h, x, u: (h, x)), marginal(lambda h, x, u: h), marginal(lambda h, x, u: x)
    p_u, p_hu, p_xu = marginal(lambda h, x, u: u), marginal(lambda h, x, u: (h, u)), marginal(lambda h, x, u: (x, u))
    log2 = math.log2
    cell = {}
    for (h, x, u), q in p.items():
        a = log2(p_hx[h, x]) - log2(p_h[h]) - log2(p_x[x])
        c = log2(q) + log2(p_u[u]) - log2(p_hu[h, u]) - log2(p_xu[x, u])
        cell[h, x, u] = {"ais": a, "icais": c, "interaction": c - a}
    measures = ["ais", "icais", "interaction"] if us else ["ais"]
    return {
        m: (sum(q * cell[key][m] for key, q in p.items()), [cell[s][m] for s in steps], n)
        for m in measures
    }


# A field in the tokenizer's grammar, spaces and tabs included, or, with
# quotes, one that only the per-cell parser reads.
FAST_FIELDS = ["{}", "{}", " {}", "{} ", "+{}", "\t{}"]
CELL_FIELDS = FAST_FIELDS + ['"{}"']
# A corrupted cell, or the extra field of a ragged row, is spelled in the
# tokenizer's grammar or with quotes, so that each parser sees it.
BAD_FIELDS = ["{}", " {}", "\t{}", '"{}"']
BAD_VALUES = {
    "negative symbol": st.integers(-(2**63), -1),
    "non-integer": st.sampled_from(["x", "1.5", "1e3", "--1", "1 2", "0x1"]),
    # 19 digits, as the tokenizer reads, or more, as only the per-cell parser does
    "beyond int64": (st.integers(2**63, 10**19 - 1) | st.integers(1 - 10**19, -(2**63) - 1)
                     | st.integers(10**19, 10**30)),
}
CORRUPTIONS = [*BAD_VALUES, "ragged row", "no rows"]


@st.composite
def csv_files(draw):
    n_cols = draw(st.integers(1, 3))
    inputs = draw(st.sampled_from(["none", "shared", "own"]))
    n_inputs = {"none": 0, "shared": 1, "own": n_cols}[inputs]
    n_rows = draw(st.integers(8, 40))
    groups = []
    for size in (n_cols, n_inputs):
        if draw(st.booleans()):
            symbols = list(range(draw(st.integers(1, 4))))
        else:
            # sparse and multi-digit
            symbols = draw(st.lists(st.integers(0, 2**63 - 1), min_size=1, max_size=5, unique=True))
        groups.append([[draw(st.sampled_from(symbols)) for _ in range(n_rows)] for _ in range(size)])
    fields = draw(st.sampled_from([FAST_FIELDS, CELL_FIELDS]))
    eol = draw(st.sampled_from(["\n", "\r\n"]))
    names = [f"x{i}" for i in range(n_cols)] + [f"u{i}" for i in range(n_inputs)]
    rows = [[draw(st.sampled_from(fields)).format(v) for v in row]
            for row in zip(*groups[0], *groups[1])]
    corrupt = draw(st.sampled_from([None] * 4 + CORRUPTIONS))
    if corrupt in BAD_VALUES:
        row = rows[draw(st.integers(0, n_rows - 1))]
        value = draw(BAD_VALUES[corrupt])
        row[draw(st.integers(0, len(row) - 1))] = draw(st.sampled_from(BAD_FIELDS)).format(value)
    elif corrupt == "ragged row":
        row = rows[draw(st.integers(0, n_rows - 1))]
        if len(row) > 1 and draw(st.booleans()):
            row.pop()
        else:
            row.append(draw(st.sampled_from(BAD_FIELDS)).format(0))
    elif corrupt == "no rows":
        rows = []
    # blank lines before the header, and half the time a byte-order mark
    lines = [""] * draw(st.integers(0, 2)) + [",".join(names)]
    for row in rows:
        lines.append(",".join(row))
        if draw(st.integers(0, 9)) == 0:
            lines.append("")
    bom = "\ufeff" if draw(st.booleans()) else ""
    text = bom + eol.join(lines) + (eol if draw(st.booleans()) else "")
    k_max = draw(st.integers(1, 3))
    lag = draw(st.integers(0, 2)) if n_inputs else 0
    return text, names[:n_cols], names[n_cols:], k_max, lag, corrupt


def run_cli(*argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(list(argv))
    return code, out.getvalue(), err.getvalue()


def run_piped(text, *argv):
    """``run_cli``'s result with ``text`` given as ``--data /dev/fd/N``, N the
    read end of a pipe that a thread fills, and that path."""
    r, w = os.pipe()

    def write():
        with contextlib.suppress(BrokenPipeError), open(w, "wb") as fh:
            fh.write(text)

    writer = threading.Thread(target=write)
    writer.start()
    try:
        return (*run_cli(*argv, "--data", f"/dev/fd/{r}"), f"/dev/fd/{r}")
    finally:
        # a writer the CLI left blocked sees a broken pipe
        os.close(r)
        writer.join(timeout=10)
        assert not writer.is_alive()


def close(a, b):
    return abs(a - b) <= TOL


def test_cli_matches_reference(tmp_path):
    path = tmp_path / "data.csv"
    reached, parsed_by = set(), set()
    real_fast, real_rank = cli._read_csv_fast, symseq._rank_codes

    def fast(padded):
        parsed = real_fast(padded)
        parsed_by.add("tokenizer" if parsed is not None else "cell parser")
        return parsed

    def ranks(stage):
        def spy(codes, space):
            reached.add(f"{stage} {'dense' if space <= codes.size else 'sort'}")
            return real_rank(codes, space)
        return spy

    @settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @given(csv_files())
    # a quoted cell sends the file to the per-cell parser; few symbols over
    # many rows rank densely, sparse ones over few rows by sorting
    @example(('x0,u0\n0,1\n1,"0"\n1,1\n0,0\n1,0\n0,1\n1,1\n0,0\n', ["x0"], ["u0"], 1, 0, None))
    @example(("a\r\n5\r\n900\r\n5\r\n\r\n77\r\n900\r\n5\r\n5\r\n77\r\n", ["a"], [], 3, 0, None))
    # a negative symbol that the tokenizer reads, and one it leaves to the
    # per-cell parser
    @example(("x0\n1\n-2\n1\n0\n", ["x0"], [], 1, 0, "negative symbol"))
    @example(('x0\n1\n"-2"\n1\n0\n', ["x0"], [], 1, 0, "negative symbol"))
    # -2^63 - 1, which would wrap to the symbol 2^63 - 1 in 64 bits
    @example(("x0\n1\n-9223372036854775809\n1\n0\n", ["x0"], [], 1, 0, "beyond int64"))
    def check(case):
        text, cols, inputs, k_max, lag, corrupt = case
        path.write_bytes(text.encode())
        parsed_by.clear()
        common = ["--cols", ",".join(cols), "--input-lag", str(lag)]
        if inputs:
            common += ["--input-col", ",".join(inputs)]
        analyze = ["analyze", *common, "-k", str(k_max), "--local"]
        sweep = ["sweep", *common, "--k-range", f"1:{k_max}"]

        def run_both(argv):
            """The CLI's result with the file given by path, after checking
            that the same bytes through a pipe give the same."""
            code, out, err = run_cli(*argv, "--data", str(path))
            piped_code, piped_out, piped_err, pipe = run_piped(text.encode(), *argv)
            assert (piped_code, piped_out) == (code, out)
            assert piped_err == err.replace(json.dumps(str(path))[1:-1], pipe)
            return code, out, err

        try:
            data = reference_columns(path)
        except ValueError:
            assert corrupt is not None
            for argv in (analyze, sweep):
                code, out, err = run_both(argv)
                assert (code, out) == (2, "")
                [line] = err.splitlines()
                assert json.loads(line)["error"] == "data"
            reached.update(f"rejected by {parser}" for parser in parsed_by)
            reached.add(corrupt)
            return
        assert corrupt is None
        xs = [data[c] for c in cols]
        us = [data[c] for c in inputs] * (len(cols) if len(inputs) == 1 else 1)

        code, out, err = run_both(analyze)
        assert code == 0, err
        lines = out.splitlines()
        records = [json.loads(line) for line in lines]
        # each line is as json.dumps writes it
        assert lines == [json.dumps(r) for r in records]
        want = reference_measures(xs, us, k_max, lag, k_max)
        assert [r["measure"] for r in records] == list(want)
        for r in records:
            average, local, n = want[r["measure"]]
            assert r["k"] == k_max and r["n_transitions"] == n == len(r["local"])
            assert r["start_index"] == k_max + (max(0, lag - 1) if inputs else 0)
            assert close(r["average_bits"], average)
            assert all(close(a, b) for a, b in zip(r["local"], local))

        code, out, err = run_both(sweep)
        assert code == 0, err
        reached.update(parsed_by)
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[0] == ["measure", "k", "average_bits", "n_transitions"]
        expected = [(k, m, v) for k in range(1, k_max + 1)
                    for m, v in reference_measures(xs, us, k, lag, k_max).items()]
        assert len(rows) == 1 + len(expected)
        for (measure, k, average, n), (k_ref, m_ref, (avg_ref, _, n_ref)) in zip(rows[1:], expected):
            assert (measure, int(k), int(n)) == (m_ref, k_ref, n_ref)
            # written with 15 significant digits
            assert abs(float(average) - avg_ref) <= TOL + 1e-14 * abs(avg_ref)

    # Chunks of a few steps, so that tiny files cross every chunk edge of
    # the tokenizer, the dense count, the gathers and the JSON writer; the
    # writer's groups of g steps (g of 4, 2 or 1) end within its writes.
    with mock.patch.object(cli, "_read_csv_fast", fast), \
            mock.patch.object(cli, "_rank_codes", ranks("ingest")), \
            mock.patch.object(symseq, "_rank_codes", ranks("count")), \
            mock.patch.multiple(symseq, _COUNT_CHUNK=5, _TAKE_CHUNK=3), \
            mock.patch.multiple(cli, _CSV_CHUNK=7, _STEPS_PER_WRITE=4, _GROUP_LIMIT=16):
        check()
    assert reached == {"tokenizer", "cell parser", "ingest dense", "ingest sort", "count dense",
                       "count sort", "rejected by tokenizer", "rejected by cell parser", *CORRUPTIONS}
