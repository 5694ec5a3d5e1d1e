"""Command-line surface: data generation, analysis, k-sweeps, oracle queries.

Exit codes: 0 success, 1 usage error, 2 data error, 3 numerical error.
Errors are emitted as JSON on stderr.
"""

from __future__ import annotations

import argparse
import csv
import json
import re
import sys
import warnings
from pathlib import Path

import numpy as np

from . import infodyn, procsim
from .symseq import Alphabet, EmbeddingConfig, SymbolSeries, _rank_codes, count_joint

SCHEMA = "icais/1"

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_NUMERICAL = 3

_INT64 = np.iinfo(np.int64)
_ROWS_PER_WRITE = 1 << 16


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

    def add_analysis_args(p, k_range_only=False):
        p.add_argument("--data", required=True, help="CSV input path")
        p.add_argument(
            "--measure",
            default="all",
            choices=["ais", "icais", "interaction", "all"],
        )
        if k_range_only:
            p.add_argument("--k-range", required=True, help="inclusive range, e.g. 1:4")
        else:
            p.add_argument("-k", type=int, required=True, help="history length")
        p.add_argument("--cols", default="output", help="comma list of output columns")
        p.add_argument(
            "--input-col",
            help="input column name; comma list for per-process inputs",
        )
        p.add_argument("--input-lag", type=int, default=0)
        p.add_argument("--format", choices=["json", "csv"], default=None)

    ana = sub.add_parser("analyze", help="estimate measures from a CSV file")
    add_analysis_args(ana)
    ana.add_argument("--local", action="store_true", help="include local profiles")

    swp = sub.add_parser("sweep", help="estimate measures across history lengths")
    add_analysis_args(swp, k_range_only=True)

    orc = sub.add_parser("oracle", help="exact values from the Markov-chain oracle")
    orc.add_argument("--process", required=True)
    orc.add_argument("--unit", required=True)
    orc.add_argument(
        "--measure", default="all", choices=["ais", "icais", "interaction", "all"]
    )
    group = orc.add_mutually_exclusive_group(required=True)
    group.add_argument("-k", type=int)
    group.add_argument("--k-range", help="inclusive range, e.g. 1:4")
    orc.add_argument("--format", choices=["json", "csv"], default="json")
    return parser


def _measures(name: str, has_input: bool) -> list[str]:
    names = list(infodyn.MEASURES) if name == "all" else [name]
    if not has_input:
        needing = [m for m in names if m in ("icais", "interaction")]
        if name == "all":
            names = [m for m in names if m not in needing]
        elif needing:
            raise UsageError(
                f"measure '{name}' conditions on the input; pass --input-col "
                "to name the input column"
            )
    return names


def _history_lengths(args) -> range:
    """The history lengths ``-k`` or ``--k-range`` names, in order, as a
    range: its size does not grow with the upper bound."""
    text = getattr(args, "k_range", None)
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
        params[key] = value
    return params


def _read_csv(path: str) -> tuple[list[str], dict[str, np.ndarray]]:
    """Columns of an integer CSV file with one header row, by name.

    The body goes through numpy's C parser.  A file it rejects, or reads
    with no rows or at another width than the header's, is parsed again
    by ``_read_csv_cells``, which accepts what ``int()`` accepts and names
    the line of the first bad cell.
    """
    parsed = _read_csv_fast(path)
    columns, arr = parsed if parsed is not None else _read_csv_cells(path)
    return columns, {name: arr[:, i] for i, name in enumerate(columns)}


def _read_csv_fast(path: str) -> tuple[list[str], np.ndarray] | None:
    try:
        if not _c_parser_agrees(path):
            return None
        with Path(path).open(newline="", encoding="utf-8") as fh, warnings.catch_warnings():
            header = next(csv.reader(fh))
            # An empty body warns, and older numpy parses "1.0" as an
            # integer with a DeprecationWarning: both go to the fallback.
            warnings.simplefilter("error")
            arr = np.loadtxt(fh, delimiter=",", dtype=np.int64, ndmin=2, comments=None)
    except (OSError, ValueError, StopIteration, csv.Error, Warning):
        return None
    if arr.shape[0] == 0 or arr.shape[1] != len(header):
        return None
    return [name.strip() for name in header], arr


def _c_parser_agrees(path: str) -> bool:
    """Whether numpy's integer parser reads the text after the first line
    as ``int()`` does.  It does not where it skips \\x1c-\\x1f as spaces or
    takes some non-ASCII letters for digits."""
    raw = Path(path).read_bytes()
    first_end = re.search(rb"[\r\n]", raw)
    start = first_end.end() if first_end else len(raw)
    if not (raw.isascii() or raw[start:].isascii()):
        return False
    return all(raw.find(c, start) < 0 for c in b"\x1c\x1d\x1e\x1f")


def _read_csv_cells(path: str) -> tuple[list[str], np.ndarray]:
    """The reference parser: one ``int()`` per cell, blank lines skipped."""
    try:
        with Path(path).open(newline="", encoding="utf-8") as fh:
            reader = csv.reader(fh)
            try:
                header = next(reader)
            except StopIteration:
                raise DataError(f"empty file: {path}")
            columns = [name.strip() for name in header]
            rows = []
            for lineno, row in enumerate(reader, start=2):
                if not row:
                    continue
                if len(row) != len(columns):
                    raise DataError(f"{path}:{lineno}: expected {len(columns)} fields")
                parsed = []
                for name, cell in zip(columns, row):
                    try:
                        value = int(cell)
                    except ValueError:
                        raise DataError(
                            f"{path}:{lineno}: non-integer value {cell!r} in column {name!r}"
                        )
                    if not _INT64.min <= value <= _INT64.max:
                        raise DataError(
                            f"{path}:{lineno}: value {cell!r} in column {name!r} "
                            "does not fit a 64-bit integer"
                        )
                    parsed.append(value)
                rows.append(parsed)
    except (OSError, UnicodeDecodeError, csv.Error) as e:
        raise DataError(f"cannot read {path}: {e}")
    if not rows:
        raise DataError(f"no data rows in {path}")
    return columns, np.asarray(rows, dtype=np.int64)


def _series_from_columns(data: dict[str, np.ndarray], names: list[str]) -> list[SymbolSeries]:
    """One series per named column, over one alphabet for the group.

    Symbols are numbered by their rank among the values the columns hold,
    so the usable k depends on how many distinct symbols occur, not on the
    largest.  The relabel is monotone, so every result is as for the
    original symbols; when all of 0..max occur it is the identity.
    """
    values = np.concatenate([data[c] for c in names])
    lo, hi = int(values.min()), int(values.max())
    if lo < 0:
        raise DataError(f"negative symbol in column(s) {names}")
    symbols, _, ranks = _rank_codes(values, hi + 1)
    alphabet = Alphabet(max(symbols.size, 2))
    ends = np.cumsum([data[c].size for c in names[:-1]])
    return [SymbolSeries(alphabet, r) for r in np.split(ranks, ends)]


def _result_dict(res: infodyn.MeasureResult) -> dict:
    out = {
        "schema": SCHEMA,
        "measure": res.measure,
        "k": res.k,
        "average_bits": res.average_bits,
        "n_transitions": res.n_transitions,
        "source": res.source,
    }
    if res.local is not None:
        out["local"] = res.local.values
        out["start_index"] = res.local.start_index
    return out


def _write_json_line(out, record: dict) -> None:
    """Write ``json.dumps(record) + "\\n"`` for a flat dict whose values
    may include a float64 array, written as the list ``json.dumps`` would
    write, one piece at a time."""
    out.write("{")
    for i, (key, value) in enumerate(record.items()):
        out.write(f"{', ' if i else ''}{json.dumps(key)}: ")
        if not isinstance(value, np.ndarray):
            out.write(json.dumps(value))
            continue
        # Local profiles take few distinct values: format each once, then
        # gather and join a block at a time.  Unique bit patterns keep -0.0
        # apart from 0.0.
        bits, inverse = np.unique(value.view(np.int64), return_inverse=True)
        text = np.array([json.dumps(v) for v in bits.view(np.float64).tolist()], dtype=object)
        out.write("[")
        for start in range(0, inverse.size, _ROWS_PER_WRITE):
            out.write(", " if start else "")
            out.write(", ".join(text[inverse[start:start + _ROWS_PER_WRITE]].tolist()))
        out.write("]")
    out.write("}\n")


def _emit(results: list[dict], fmt: str):
    if fmt == "csv":
        writer = csv.writer(sys.stdout, lineterminator="\n")
        writer.writerow(["measure", "k", "average_bits", "n_transitions"])
        for r in results:
            writer.writerow([r["measure"], r["k"], f"{r['average_bits']:.15g}", r["n_transitions"]])
    else:
        for r in results:
            _write_json_line(sys.stdout, r)


def _write_csv_rows(fh, columns: list[np.ndarray], sizes: list[int]) -> None:
    """Write the lines ``csv.writer`` writes for rows of small ints.

    ``columns[j]`` holds symbols below ``sizes[j]``.  Each distinct row is
    formatted once; rows are gathered by their mixed-radix code and joined
    a block at a time, so memory beyond the codes stays bounded.
    """
    code = np.zeros(len(columns[0]), dtype=np.int64)
    for col, size in zip(columns, sizes):
        code = code * size + col
    rows = np.array(
        [",".join(map(str, row)) for row in np.ndindex(*sizes)], dtype=object
    )
    for start in range(0, len(code), _ROWS_PER_WRITE):
        fh.write("\n".join(rows[code[start:start + _ROWS_PER_WRITE]].tolist()) + "\n")


def cmd_generate(args) -> int:
    if args.n < 1:
        raise UsageError("--n must be >= 1")
    proc = _parse_process_spec(args.process, seed=args.seed)
    u = procsim.generate_input(proc, args.n)
    unit_spec = _parse_unit_spec(args.unit) if args.unit else None
    out_path = Path(args.out)
    try:
        with out_path.open("w", newline="") as fh:
            if unit_spec is not None:
                x = procsim.simulate_unit(unit_spec, u)
                fh.write("input,output\n")
                _write_csv_rows(fh, [u.data, x.data], [u.alphabet.size, x.alphabet.size])
            else:
                fh.write("output\n")
                _write_csv_rows(fh, [u.data], [u.alphabet.size])
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


def _analysis_plan(args) -> tuple[list[str], list[str], list[str], range]:
    """Output columns, input columns, measures and history lengths the
    arguments name.

    Checked before the CSV is read, so a usage error costs no ingest.
    """
    col_names = [c.strip() for c in args.cols.split(",") if c.strip()]
    if not col_names:
        raise UsageError("--cols must name at least one column")
    input_names = (
        [c.strip() for c in args.input_col.split(",") if c.strip()]
        if args.input_col
        else []
    )
    if input_names and len(input_names) not in (1, len(col_names)):
        raise UsageError(
            "--input-col must name one shared column or one per output column"
        )
    measures = _measures(args.measure, bool(input_names))
    if args.input_lag < 0:
        raise UsageError("input_lag must be >= 0")
    return col_names, input_names, measures, _history_lengths(args)


def _load_series(path: str, col_names: list[str], input_names: list[str]):
    columns, data = _read_csv(path)
    missing = [c for c in col_names + input_names if c not in data]
    if missing:
        raise DataError(f"missing column(s) {missing}; file has {columns}")
    xs = _series_from_columns(data, col_names)
    if not input_names:
        return xs, None
    us = _series_from_columns(data, input_names)
    return xs, us * len(col_names) if len(input_names) == 1 else us


def _analyze(args, default_format: str, local: bool = False) -> int:
    """Count the named columns once, at the longest history length asked
    for, and evaluate every asked length from that one table."""
    col_names, input_names, measures, ks = _analysis_plan(args)
    xs, us = _load_series(args.data, col_names, input_names)
    try:
        table = count_joint(xs, us, EmbeddingConfig(ks[-1], args.input_lag))
        results = [r for k in ks for r in infodyn.evaluate(measures, table, k=k, local=local)]
    except ValueError as e:
        raise DataError(str(e))
    del table  # its per-step arrays would otherwise stay alive while the results are written
    _emit([_result_dict(r) for r in results], args.format or default_format)
    return EXIT_OK


def cmd_analyze(args) -> int:
    return _analyze(args, "json", local=args.local)


def cmd_sweep(args) -> int:
    return _analyze(args, "csv")


def cmd_oracle(args) -> int:
    """Solve the chain once, at the longest k asked for, and evaluate every
    asked k from that one exact joint."""
    proc = _parse_process_spec(args.process)
    unit = _parse_unit_spec(args.unit)
    measures = _measures(args.measure, True)
    ks = _history_lengths(args)
    joint = procsim.oracle_joint(proc, unit, ks[-1])
    results = [r for k in ks for r in infodyn.evaluate(measures, joint, k=k)]
    _emit([_result_dict(r) for r in results], args.format)
    return EXIT_OK


_COMMANDS = {
    "generate": cmd_generate,
    "analyze": cmd_analyze,
    "sweep": cmd_sweep,
    "oracle": cmd_oracle,
}


def _emit_error(kind: str, message: str):
    sys.stderr.write(json.dumps({"error": kind, "message": message}) + "\n")


def main(argv=None) -> int:
    parser = build_parser()
    args = None
    try:
        args = parser.parse_args(argv)
        return _COMMANDS[args.command](args)
    except UsageError as e:
        _emit_error("usage", str(e))
        return EXIT_USAGE
    except DataError as e:
        _emit_error("data", str(e))
        return EXIT_DATA
    except procsim.ConvergenceError as e:
        _emit_error("numerical", str(e))
        return EXIT_NUMERICAL
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
