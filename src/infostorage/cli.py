"""Command-line surface: data generation, analysis, k-sweeps, oracle queries.

Exit codes: 0 success, 1 usage error, 2 data error, 3 out of memory.
Errors are emitted as JSON on stderr.
"""

from __future__ import annotations

import argparse
import csv
import io
import itertools
import json
import re
import sys
from array import array
from collections import Counter
from pathlib import Path

import numpy as np

from . import infodyn, procsim
from .symseq import Alphabet, EmbeddingConfig, SymbolSeries, _rank_codes, _symbol_dtype, count_joint

SCHEMA = "icais/1"

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_NUMERICAL = 3

_ROWS_PER_WRITE = 1 << 16
# Steps of a local profile joined per write, and the most strings in its
# table of the texts of g steps at a time (see _write_profile).
_STEPS_PER_WRITE = 1 << 14
_GROUP_LIMIT = 4096


class UsageError(Exception):
    pass


class DataError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # noqa: A003 - argparse API
        raise UsageError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="infostorage",
        description=(
            "Active information storage, input-corrected storage, and "
            "interaction information for discrete driven time series."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="simulate an input process and unit to CSV")
    gen.add_argument("--process", required=True, help="bernoulli:p=<f> | markov:p_stay=<f>")
    gen.add_argument("--unit", help="forwarding | xor[:init=<0|1>]")
    gen.add_argument("--n", type=int, required=True, help="number of time steps")
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--out", required=True, help="CSV output path")
    gen.set_defaults(run=cmd_generate)

    def add_output_args(p):
        p.add_argument("--measure", default="all", choices=[*infodyn.MEASURES, "all"])
        p.add_argument("--format", choices=["json", "csv"])

    def add_analysis_args(p):
        p.add_argument("--data", required=True, help="CSV input path")
        add_output_args(p)
        p.add_argument("--cols", default="output", help="comma list of output columns")
        p.add_argument(
            "--input-col",
            help="input column name; comma list for per-process inputs",
        )
        p.add_argument("--input-lag", type=int, default=0)

    ana = sub.add_parser("analyze", help="estimate measures from a CSV file")
    add_analysis_args(ana)
    ana.add_argument("-k", type=int, required=True, help="history length")
    ana.add_argument("--local", action="store_true", help="include local profiles")
    ana.set_defaults(run=cmd_analyze, format="json", k_range=None)

    swp = sub.add_parser("sweep", help="estimate measures across history lengths")
    add_analysis_args(swp)
    swp.add_argument("--k-range", required=True, help="inclusive range, e.g. 1:4")
    swp.set_defaults(run=cmd_analyze, format="csv", local=False)

    orc = sub.add_parser("oracle", help="exact values from the Markov-chain oracle")
    orc.add_argument("--process", required=True)
    orc.add_argument("--unit", required=True)
    add_output_args(orc)
    group = orc.add_mutually_exclusive_group(required=True)
    group.add_argument("-k", type=int)
    group.add_argument("--k-range", help="inclusive range, e.g. 1:4")
    orc.set_defaults(run=cmd_oracle, format="json")
    return parser


def _measures(name: str, has_input: bool) -> list[str]:
    """The measures ``--measure`` names: every measure but AIS needs an input."""
    if name == "all":
        return list(infodyn.MEASURES) if has_input else ["ais"]
    if name != "ais" and not has_input:
        raise UsageError(f"measure '{name}' conditions on the input; "
                         "pass --input-col to name the input column")
    return [name]


def _history_lengths(args) -> range:
    """The history lengths ``-k`` or ``--k-range`` names, in order, as a
    range: its size does not grow with the upper bound."""
    text = args.k_range
    if text is None:
        if args.k < 1:
            raise UsageError("-k must be >= 1")
        return range(args.k, args.k + 1)
    lo, sep, hi = text.partition(":")
    try:
        lo_i, hi_i = int(lo), int(hi if sep else lo)
    except ValueError:
        raise UsageError(f"bad k range {text!r}; expected <lo>:<hi>")
    if lo_i < 1 or hi_i < lo_i:
        raise UsageError(f"bad k range {text!r}; bounds must be positive and ordered")
    return range(lo_i, hi_i + 1)


# --process kind -> (ProcessSpec kind, its parameter, the parameter's range)
_PROCESS_KINDS = {"bernoulli": ("bernoulli", "p", "0 <= p <= 1"),
                  "markov": ("markov_binary", "p_stay", "0 < p_stay < 1")}


def _parse_process_spec(text: str, seed: int = 0) -> procsim.ProcessSpec:
    """Parse 'bernoulli:p=0.5' or 'markov:p_stay=0.7'."""
    kind, _, rest = text.partition(":")
    params = _parse_params(rest, text)
    if kind not in _PROCESS_KINDS:
        raise ValueError(f"unknown process spec {text!r}")
    spec_kind, name, bounds = _PROCESS_KINDS[kind]
    if set(params) != {name}:
        raise ValueError(f"{kind} spec needs exactly {name}=<float>: {text!r}")
    try:
        return procsim.ProcessSpec(spec_kind, seed=seed, **{name: float(params[name])})
    except ValueError:
        raise ValueError(f"{kind} spec needs {bounds}: {text!r}") from None


def _parse_unit_spec(text: str) -> procsim.UnitSpec:
    """Parse 'forwarding' or 'xor[:init=<0|1>]'."""
    kind, _, rest = text.partition(":")
    params = _parse_params(rest, text)
    if kind == "forwarding":
        if params:
            raise ValueError(f"forwarding takes no parameters: {text!r}")
        return procsim.UnitSpec("forwarding")
    if kind == "xor":
        extra = set(params) - {"init"}
        if extra:
            raise ValueError(f"unknown xor parameters {sorted(extra)}: {text!r}")
        try:
            return procsim.UnitSpec("xor_memory", initial_state=int(params.get("init", 0)))
        except ValueError:
            raise ValueError(f"xor spec needs init=0 or init=1: {text!r}") from None
    raise ValueError(f"unknown unit spec {text!r}")


def _parse_params(rest: str, original: str) -> dict[str, str]:
    if not rest:
        return {}
    params = {}
    for item in rest.split(","):
        key, sep, value = item.partition("=")
        if not sep or not key or not value:
            raise ValueError(f"malformed spec parameter {item!r} in {original!r}")
        if key in params:
            raise ValueError(f"repeated spec parameter {key!r} in {original!r}")
        params[key] = value
    return params


def _read_csv(path: str) -> tuple[list[str], dict[str, np.ndarray]]:
    """Columns of an integer CSV file with one header row, by name.

    The file (or a pipe, to its end) is read once, by ``read_bytes()``,
    and both parsers take those bytes.  A body in the grammar of
    ``_read_csv_fast`` is tokenised with numpy; any other is parsed by
    ``_read_csv_cells``, which accepts what ``int()`` accepts and names
    the line of the first bad cell.  Both drop a leading UTF-8
    byte-order mark.
    """
    try:
        data = Path(path).read_bytes()
    except OSError as e:
        raise DataError(f"cannot read {path}: {e}")
    parsed = _read_csv_fast(data)
    columns, arr = parsed if parsed is not None else _read_csv_cells(data, path)
    return columns, {name: arr[:, i] for i, name in enumerate(columns)}


# Byte classes of the fast grammar, as a table for bytes.translate.  A body
# byte of class _OTHER sends the file to the reference parser.
_DIGIT, _SPACE, _PLUS, _MINUS, _COMMA, _LF, _OTHER = range(7)
_CLASS_OF = {**dict.fromkeys(b"0123456789", _DIGIT),
             **dict(zip(b" \t+-,\n", (_SPACE, _SPACE, _PLUS, _MINUS, _COMMA, _LF)))}
_BYTE_CLASS = bytes(_CLASS_OF.get(b, _OTHER) for b in range(256))
# Body bytes tokenised at a time, cut at a line end: the temporaries, a few
# bytes per body byte, stay in cache.
_CSV_CHUNK = 1 << 16
# A byte-order mark, blank lines, the header line; a lone \r is left to the reference parser.
_HEADER_LINE = re.compile(rb"(?:\xef\xbb\xbf)?(?:\r?\n)*([^\r\n]*)(?:\r\n|\n)")
# Decimal digits of the longest field: 2^63 has 19.
_FIELD_DIGITS = 19


def _read_csv_fast(data: bytes) -> tuple[list[str], np.ndarray] | None:
    """Columns of a file whose body is in the fast grammar, or None.

    ``data`` is the file's bytes.  Its header, split by ``csv``, is the first
    line after any byte-order mark and blank lines, all ending in \\n or
    \\r\\n.  The body is ASCII: lines end in \\n or \\r\\n (or at its end),
    blank lines are skipped, and every other line holds one field per header
    column, separated by commas.  A field is an optional + or - and one to 19
    digits, with any ASCII spaces and tabs on either side, and its value lies
    from -2^63 to 2^63-1.  Such a body reads as ``_read_csv_cells`` reads it,
    though into the narrowest dtype that holds every value: uint8, uint16 or
    uint32 while no value is negative or beyond 2^32-1, else int64.  Any other
    file, an empty body included, gives None.

    The body is read in chunks of about ``_CSV_CHUNK`` bytes, cut at line
    ends.  An unended last line is closed with a \\n, and in a chunk that
    holds a \\r every \\r\\n is read as \\n, each in a copy of that chunk,
    never of the file; any \\r left sends the file to ``_read_csv_cells``.
    A chunk of rows ``D,D,...,D\\n``, one digit per field, as ``generate``
    writes them, is then read as one uint8 block; any other by the general
    tokenizer.
    """
    line = _HEADER_LINE.match(data)
    if line is None:
        return None
    try:
        header = next(csv.reader([line[1].decode("utf-8")], strict=True))
    except (UnicodeDecodeError, csv.Error):
        return None
    if not header:
        return None
    # One block for all rows, widened by one copy when a chunk holds a value its dtype does not.
    rows = data.count(b"\n", line.end()) + (not data.endswith(b"\n"))
    out = np.empty(len(header) * rows, dtype=np.uint8)
    filled, start, end = 0, line.end(), len(data)
    while start < end:
        stop = data.find(b"\n", min(start + _CSV_CHUNK, end - 1)) + 1 or end
        chunk = data[start:stop]
        chunk = chunk if chunk.endswith(b"\n") else chunk + b"\n"
        values = _tokenize(chunk.replace(b"\r\n", b"\n") if b"\r" in chunk else chunk, len(header))
        if values is None:
            return None
        if values.size:
            need = np.int64 if values.min() < 0 else _symbol_dtype(int(values.max()) + 1)
            out = out.astype(np.promote_types(out.dtype, need), copy=False)
        out[filled : filled + values.size] = values
        filled += values.size
        start = stop
    if not filled:
        return None
    return [name.strip() for name in header], out[:filled].reshape(-1, len(header))


def _tokenize(chunk: bytes, n_cols: int) -> np.ndarray | None:
    """The fields, row by row, of ``chunk``'s lines, each ending in \\n
    (a \\r is not in the grammar), or None unless every line is in the
    fast grammar.  Blank lines are skipped.  A chunk of rows
    ``D,D,...,D\\n``, one digit per field, is read as one block into
    uint8 by ``_one_digit_rows``; any other into int64 by Horner's rule:
    one gather of every first digit, then a pass j over the fields longer
    than j."""
    block = _one_digit_rows(chunk, n_cols)
    if block is not None:
        return block
    text = np.frombuffer(chunk, dtype=np.uint8)
    cls = np.frombuffer(chunk.translate(_BYTE_CLASS), dtype=np.uint8)
    if cls.max() == _OTHER:
        return None
    digit = cls == _DIGIT
    first = digit.copy()
    first[1:] &= ~digit[:-1]
    # A line end closes a row unless it opens the chunk or follows another: a blank line.
    lf = cls == _LF
    lf[1:] &= cls[:-1] != _LF
    lf[0] = False
    # Digit runs and separators in order: a valid line is D,D,...,D\n.
    events = np.flatnonzero(first | (cls == _COMMA) | lf)
    kind = cls[events]
    row = bytes([_DIGIT, _COMMA] * (n_cols - 1) + [_DIGIT, _LF])
    if kind.tobytes() != row * (kind.size // len(row)):
        return None
    # csv refuses a field longer than its limit, so the reference parser
    # must see such a file.
    if (np.diff(events[1::2], prepend=-1) > csv.field_size_limit() + 1).any():
        return None
    signs = np.flatnonzero((cls == _PLUS) | (cls == _MINUS))
    if not digit[signs + 1].all():
        return None
    starts = events[0::2]
    values = (text[starts] - ord("0")).astype(np.uint64)
    if (digit[1:] & digit[:-1]).any():
        last = digit.copy()
        last[:-1] &= ~digit[1:]
        length = np.flatnonzero(last) + 1 - starts
        if length.max() > _FIELD_DIGITS:
            return None
        # Shortest first (a radix sort), so each pass reads a tail slice.
        order = np.argsort(length.astype(np.uint8), kind="stable")
        longer = order.size - np.cumsum(np.bincount(length))
        at, horner = starts[order], values[order]
        for j in range(1, longer.size - 1):
            tail = slice(order.size - longer[j], None)
            horner[tail] = horner[tail] * 10 + (text[at[tail] + j] - ord("0"))
        values[order] = horner
    neg = np.searchsorted(starts, signs[cls[signs] == _MINUS] + 1)
    over = values > np.uint64(2**63 - 1)
    over[neg] = values[neg] > np.uint64(2**63)
    if over.any():
        return None
    values[neg] = np.uint64(0) - values[neg]
    return values.view(np.int64)


def _one_digit_rows(chunk: bytes, n_cols: int) -> np.ndarray | None:
    """The fields, row by row, of ``chunk`` as uint8 if it is rows of
    ``n_cols`` one-digit fields, ``D,D,...,D\\n`` as ``_write_csv`` writes
    them, else None.  Rows that end in \\r\\n in the file reach it so too,
    as ``_read_csv_fast`` reads \\r\\n as \\n.

    Each digit and the byte after it is read as one little-endian uint16.
    Less its row's ``0,`` or ``0\\n`` pair, in uint16 arithmetic, which
    wraps, it is below 10 exactly when the digit is one and the separator
    is the row's.
    """
    row = np.frombuffer(b"0," * (n_cols - 1) + b"0\n", dtype="<u2")
    if len(chunk) % row.nbytes:
        return None
    fields = np.frombuffer(chunk, dtype="<u2") - np.tile(row, len(chunk) // row.nbytes)
    return fields.astype(np.uint8) if fields.max() < 10 else None


def _read_csv_cells(data: bytes, path: str) -> tuple[list[str], np.ndarray]:
    """The reference parser, of the file's bytes ``data``, read in place:
    one ``int()`` per cell, blank lines skipped (before the header too),
    errors naming ``path``.
    The cells are collected row after row as 8-byte integers, the block's
    own layout, so no Python object per row or cell is kept."""
    # BytesIO shares the bytes, decoded a chunk at a time: StringIO would hold 4 a character
    with io.TextIOWrapper(io.BytesIO(data), encoding="utf-8-sig", newline="") as fh:
        try:
            reader = csv.reader(fh)
            rows = filter(None, reader)
            header = next(rows, None)
            if header is None:
                raise DataError(f"empty file: {path}")
            columns = [name.strip() for name in header]
            cells = array("q")
            for row in rows:
                if len(row) != len(columns):
                    raise DataError(f"{path}:{reader.line_num}: expected {len(columns)} fields")
                for name, cell in zip(columns, row):
                    try:
                        cells.append(int(cell))
                    except ValueError:
                        raise DataError(f"{path}:{reader.line_num}: non-integer value {cell!r} "
                                        f"in column {name!r}")
                    except OverflowError:
                        raise DataError(f"{path}:{reader.line_num}: value {cell!r} in column "
                                        f"{name!r} does not fit a 64-bit integer")
        except (UnicodeDecodeError, csv.Error) as e:
            raise DataError(f"cannot read {path}: {e}")
    if not cells:
        raise DataError(f"no data rows in {path}")
    return columns, np.frombuffer(cells, dtype=np.int64).reshape(-1, len(columns))


def _series_from_columns(data: dict[str, np.ndarray], names: list[str]) -> list[SymbolSeries]:
    """One series per named column, over one alphabet for the group.

    Symbols are numbered by their rank among the values the columns hold,
    so the usable k depends on how many distinct symbols occur, not on the
    largest.  The relabel is monotone, so every result is as for the
    original symbols; when all of 0..max occur it is the identity.
    """
    # One column is ranked straight from its view into the parsed block.
    values = data[names[0]] if len(names) == 1 else np.concatenate([data[c] for c in names])
    lo, hi = int(values.min()), int(values.max())
    if lo < 0:
        raise DataError(f"negative symbol in column(s) {names}")
    symbols, _, ranks = _rank_codes(values, hi + 1)
    alphabet = Alphabet(symbols.size)
    ends = np.cumsum([data[c].size for c in names[:-1]])
    return [SymbolSeries(alphabet, r) for r in np.split(ranks, ends)]


def _write_profile(out, cell_values: np.ndarray, steps: np.ndarray) -> None:
    """Write a local profile's per-step values ``cell_values[steps]`` as
    ``json.dumps`` writes their list, one piece at a time.

    A step's local value depends only on its cell, so each of the m
    distinct cell values is formatted once.  Their texts are joined into a
    table of every tuple of g steps, the largest g with m^g at most
    ``_GROUP_LIMIT`` (as for m = 2 when m is 0 or 1); the steps are coded
    g at a time as base-m indices into it, and about ``_STEPS_PER_WRITE``
    steps are joined per write.  The last ``len(steps) % g`` steps are
    written one text each.
    """
    # Unique bit patterns keep -0.0 apart from 0.0.
    bits, inverse = np.unique(cell_values.view(np.int64), return_inverse=True)
    text = [json.dumps(v) for v in bits.view(np.float64).tolist()]
    g = 1
    while max(len(text), 2) ** (g + 1) <= _GROUP_LIMIT:
        g += 1
    table = np.array([", ".join(t) for t in itertools.product(text, repeat=g)], dtype=object)
    powers = len(text) ** np.arange(g - 1, -1, -1)
    span = _STEPS_PER_WRITE // g * g
    out.write("[")
    for start in range(0, steps.size, span):
        codes = inverse[steps[start:start + span]]
        whole = codes.size - codes.size % g
        out.write(", " if start else "")
        out.write(", ".join([*table[codes[:whole].reshape(-1, g) @ powers].tolist(),
                             *(text[i] for i in codes[whole:].tolist())]))
    out.write("]")


def _emit(results: list[infodyn.MeasureResult], fmt: str):
    """Write the results as CSV or JSON lines; a result's local profile
    and its start index close its JSON line."""
    if fmt == "csv":
        writer = csv.writer(sys.stdout, lineterminator="\n")
        writer.writerow(["measure", "k", "average_bits", "n_transitions"])
        for r in results:
            writer.writerow([r.measure, r.k, f"{r.average_bits:.15g}", r.n_transitions])
        return
    for r in results:
        line = json.dumps({"schema": SCHEMA, "measure": r.measure, "k": r.k, "average_bits": r.average_bits,
                           "n_transitions": r.n_transitions, "source": r.source})
        if r.local is None:
            sys.stdout.write(line + "\n")
            continue
        sys.stdout.write(line[:-1] + ', "local": ')
        _write_profile(sys.stdout, r.local.cell_values, r.local.table.transitions)
        sys.stdout.write(f', "start_index": {json.dumps(r.local.start_index)}}}\n')


def _write_csv(fh, columns: dict[str, np.ndarray]) -> None:
    """Write to the binary file ``fh`` the lines ``csv.writer`` writes for
    a header of the column names, which need no quoting, and the rows of
    the one-digit columns: every column holds symbols 0 to 9.

    Each block of rows is filled into one uint8 array of its bytes, a digit
    at every even offset, a comma between digits and a line end last, and
    written at once, so memory beyond the columns stays bounded.
    """
    fh.write(",".join(columns).encode() + b"\n")
    cols = list(columns.values())
    for start in range(0, len(cols[0]), _ROWS_PER_WRITE):
        rows = min(_ROWS_PER_WRITE, len(cols[0]) - start)
        block = np.full((rows, 2 * len(cols)), ord(","), dtype=np.uint8)
        block[:, -1] = ord("\n")
        for j, col in enumerate(cols):
            block[:, 2 * j] = col[start:start + rows] + ord("0")
        fh.write(block.tobytes())


def cmd_generate(args) -> int:
    if args.n < 1:
        raise UsageError("--n must be >= 1")
    if args.seed < 0:
        raise UsageError("--seed must be >= 0")
    proc = _parse_process_spec(args.process, seed=args.seed)
    unit_spec = _parse_unit_spec(args.unit) if args.unit else None
    u = procsim.generate_input(proc, args.n)
    columns = ({"output": u.data} if unit_spec is None
               else {"input": u.data, "output": procsim.simulate_unit(unit_spec, u).data})
    out_path = Path(args.out)
    try:
        with out_path.open("wb") as fh:
            _write_csv(fh, columns)
        meta = {
            "schema": SCHEMA,
            "process": args.process,
            "unit": args.unit,
            "seed": args.seed,
            "n": args.n,
            "prng": "numpy Philox, Generator(Philox(seed))",
        }
        meta_path = out_path.with_name(out_path.name + ".meta.json")
        meta_path.write_text(json.dumps(meta, indent=2) + "\n")
    except OSError as e:
        raise DataError(f"cannot write {args.out}: {e}")
    return EXIT_OK


def _column_names(text: str, option: str) -> list[str]:
    names = [c.strip() for c in text.split(",") if c.strip()]
    if not names:
        raise UsageError(f"{option} must name at least one column")
    return names


def _analysis_plan(args) -> tuple[list[str], list[str], list[str], range]:
    """Output columns, input columns, measures and history lengths the
    arguments name.

    Checked before the CSV is read, so a usage error costs no ingest.
    """
    col_names = _column_names(args.cols, "--cols")
    repeated = sorted(c for c, n in Counter(col_names).items() if n > 1)
    if repeated:
        raise UsageError(f"--cols names column(s) {repeated} more than once")
    input_names = [] if args.input_col is None else _column_names(args.input_col, "--input-col")
    if input_names and len(input_names) not in (1, len(col_names)):
        raise UsageError(
            "--input-col must name one shared column or one per output column"
        )
    measures = _measures(args.measure, bool(input_names))
    if args.input_lag < 0:
        raise UsageError("input_lag must be >= 0")
    if args.input_lag and not input_names:
        raise UsageError("--input-lag needs --input-col to name the input column")
    if args.local and args.format == "csv":
        raise UsageError("--local profiles are written as JSON; drop --format csv")
    return col_names, input_names, measures, _history_lengths(args)


def _load_series(path: str, col_names: list[str], input_names: list[str]):
    columns, data = _read_csv(path)
    missing = [c for c in col_names + input_names if c not in data]
    if missing:
        raise DataError(f"missing column(s) {missing}; file has {columns}")
    counts = Counter(columns)
    repeated = sorted({c for c in col_names + input_names if counts[c] > 1})
    if repeated:
        raise DataError(f"column(s) {repeated} occur more than once in the header of {path}")
    xs = _series_from_columns(data, col_names)
    if not input_names:
        return xs, None
    us = _series_from_columns(data, input_names)
    return xs, us * len(col_names) if len(input_names) == 1 else us


def cmd_analyze(args) -> int:
    """Run ``analyze`` or ``sweep``, which differ only in the options their
    parsers give: count the named columns once, at the longest history
    length asked for, and evaluate every asked length from that one table."""
    col_names, input_names, measures, ks = _analysis_plan(args)
    xs, us = _load_series(args.data, col_names, input_names)
    try:
        table = count_joint(xs, us, EmbeddingConfig(ks[-1], args.input_lag))
        results = [r for k in ks for r in infodyn.evaluate(measures, table, k=k, local=args.local)]
    except ValueError as e:
        raise DataError(str(e))
    _emit(results, args.format)
    return EXIT_OK


def cmd_oracle(args) -> int:
    """Solve the chain once, at the longest k asked for, and evaluate every
    asked k from that one exact joint."""
    proc = _parse_process_spec(args.process)
    unit = _parse_unit_spec(args.unit)
    measures = _measures(args.measure, True)
    ks = _history_lengths(args)
    joint = procsim.oracle_joint(proc, unit, ks[-1])
    _emit([r for k in ks for r in infodyn.evaluate(measures, joint, k=k)], args.format)
    return EXIT_OK


def _emit_error(kind: str, message: str):
    sys.stderr.write(json.dumps({"error": kind, "message": message}) + "\n")


def main(argv=None) -> int:
    parser = build_parser()
    args = None
    try:
        args = parser.parse_args(argv)
        return args.run(args)
    except UsageError as e:
        _emit_error("usage", str(e))
        return EXIT_USAGE
    except DataError as e:
        _emit_error("data", str(e))
        return EXIT_DATA
    except MemoryError:
        size = "--n" if args is not None and args.command == "generate" else "k"
        _emit_error("numerical", f"out of memory; reduce {size}")
        return EXIT_NUMERICAL
    except OverflowError as e:
        _emit_error("data", f"value out of the 64-bit integer range: {e}")
        return EXIT_DATA
    except ValueError as e:
        _emit_error("usage", str(e))
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
