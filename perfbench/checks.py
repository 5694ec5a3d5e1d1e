"""Output checks and exact reference values for the benchmark.

Every check returns a list of failure messages; an empty list means the
operation's output is correct.  The exact values are closed forms derived
for the four unit x drive pairs the workloads use, so the benchmark does
not trust the program's own oracle: the ``oracle-exact`` workload checks
that oracle against these same closed forms at every k.

Forwarding unit, drive markov(p_stay=s): the output is the drive, a
symmetric binary Markov chain, so AIS(k) = 1 - h(s) for every k, and icAIS
is 0 because the next output equals the concurrent input.

XOR unit, x' = x XOR u': in the stationary state x is a uniform bit
independent of the whole drive, so x' is independent of u' and of the
last output; icAIS = H(x' | u') - 0 = 1.  A history of k >= 2 outputs
reveals the last input, so under a Markov drive AIS(k >= 2) = 1 - h(s);
with k = 1, or under an i.i.d. drive, AIS = 0.

Bernoulli(0.5) drives give AIS 0 for both units.  Interaction is always
icAIS - AIS.
"""

from __future__ import annotations

import json
import math

import numpy as np

SCHEMA = "icais/1"
MEASURES = ("ais", "icais", "interaction")
RESULT_FIELDS = {"schema", "measure", "k", "average_bits", "n_transitions", "source"}
SWEEP_HEADER = "measure,k,average_bits,n_transitions"

P_STAY = 0.7
# 1 - h(0.7) = 0.3*log2(0.6) + 0.7*log2(1.4) = 0.1187091007693073, the
# value tests/test_acceptance.py pins for forwarding under markov(0.7).
AIS_MARKOV = 0.3 * math.log2(0.6) + 0.7 * math.log2(1.4)

ORACLE_TOL = 1e-9       # oracle against closed form, as in the acceptance suite
IDENTITY_TOL = 1e-12    # |icAIS - AIS - interaction| per time step
SAMPLING_TOL = 0.01     # bits, on top of the plug-in bias allowance below


def exact(unit: str, drive: str, measure: str, k: int) -> float:
    """Exact stationary value for unit in {forwarding, xor}, drive in
    {bernoulli, markov} (bernoulli p=0.5, markov p_stay=0.7)."""
    markov = drive == "markov"
    if unit == "forwarding":
        ais, icais = (AIS_MARKOV if markov else 0.0), 0.0
    else:
        ais, icais = (AIS_MARKOV if markov and k >= 2 else 0.0), 1.0
    return {"ais": ais, "icais": icais, "interaction": icais - ais}[measure]


def empirical_tol(k: int, n: int) -> float:
    """Allowed |plug-in - exact| for binary x and u with n transitions per
    series: SAMPLING_TOL plus twice the first-order plug-in bias bound
    cells / (2 n ln 2), cells = |X|^k * |X| * |U| = 2^(k+2)."""
    return SAMPLING_TOL + 2.0 ** (k + 2) / (n * math.log(2.0))


def parse_json_lines(text: str, errors: list[str]) -> list[dict]:
    out = []
    for i, line in enumerate(text.splitlines()):
        try:
            rec = json.loads(line)
        except json.JSONDecodeError as e:
            errors.append(f"line {i + 1}: not JSON ({e})")
            continue
        missing = RESULT_FIELDS - set(rec)
        if missing or rec.get("schema") != SCHEMA:
            errors.append(f"line {i + 1}: missing {sorted(missing)} or schema != {SCHEMA}")
            continue
        out.append(rec)
    return out


def parse_sweep_csv(text: str, errors: list[str]) -> list[dict]:
    lines = text.splitlines()
    if not lines or lines[0] != SWEEP_HEADER:
        errors.append(f"sweep CSV header is not {SWEEP_HEADER!r}")
        return []
    out = []
    for i, line in enumerate(lines[1:], start=2):
        parts = line.split(",")
        try:
            out.append({"measure": parts[0], "k": int(parts[1]),
                        "average_bits": float(parts[2]), "n_transitions": int(parts[3])})
        except (IndexError, ValueError):
            errors.append(f"sweep CSV line {i}: cannot parse {line[:60]!r}")
    return out


def check_results(recs, *, unit, drive, ks, n_transitions, n_per_series, source,
                  errors) -> float:
    """Check one record per (k, measure) against the exact values; return
    the largest |estimate - exact| seen."""
    want = {(k, m) for k in ks for m in MEASURES}
    got = {(r["k"], r["measure"]) for r in recs}
    if got != want or len(recs) != len(want):
        errors.append(f"expected one result per (k, measure) for k in {list(ks)}, got {sorted(got)}")
    gap = 0.0
    for r in recs:
        if "source" in r and r["source"] != source:
            errors.append(f"source {r['source']!r} != {source!r}")
        expected_n = n_transitions(r["k"])
        if r["n_transitions"] != expected_n:
            errors.append(f"k={r['k']} {r['measure']}: n_transitions {r['n_transitions']} != {expected_n}")
        if (r["k"], r["measure"]) not in want:
            continue
        err = abs(r["average_bits"] - exact(unit, drive, r["measure"], r["k"]))
        gap = max(gap, err)
        tol = ORACLE_TOL if source == "oracle" else empirical_tol(r["k"], n_per_series(r["k"]))
        if not err <= tol:
            errors.append(f"k={r['k']} {r['measure']}: |{r['average_bits']:.6g} - exact| = {err:.3g} > {tol:.3g}")
    return gap


def check_local_identity(by_measure: dict, errors: list[str], chunk: int = 1 << 20):
    """Per-step |icAIS - AIS - interaction| <= IDENTITY_TOL; chunked so a
    check at N = 1e7 adds little to the operation's peak memory."""
    a, c, i = (by_measure[m] for m in MEASURES)
    if not (len(a) == len(c) == len(i)):
        errors.append("local profiles differ in length")
        return
    worst = 0.0
    for lo in range(0, len(a), chunk):
        sl = slice(lo, lo + chunk)
        worst = max(worst, float(np.max(np.abs(c[sl] - a[sl] - i[sl]))))
    if not worst <= IDENTITY_TOL:
        errors.append(f"local identity error {worst:.3g} > {IDENTITY_TOL}")


def xor_accumulate_matches(u: np.ndarray, x: np.ndarray, chunk: int = 1 << 20) -> bool:
    """x[t] == u[0] ^ ... ^ u[t] (xor unit, initial state 0)."""
    carry = 0
    for lo in range(0, len(u), chunk):
        want = np.bitwise_xor.accumulate(u[lo:lo + chunk]) ^ carry
        if not np.array_equal(want, x[lo:lo + chunk]):
            return False
        carry = int(want[-1])
    return True


def table_unit_reference(next_state: np.ndarray, output: np.ndarray, u: np.ndarray,
                         initial_state: int = 0, chunk: int = 1 << 16) -> np.ndarray:
    """Outputs of a table transducer without a Python loop over time.

    Within each chunk, a prefix composition of the per-step state maps
    (doubling the span each round) gives every state from the chunk's
    starting state; the last state carries into the next chunk.
    """
    out = np.empty(len(u), dtype=np.int64)
    state = initial_state
    for lo in range(0, len(u), chunk):
        uc = u[lo:lo + chunk]
        maps = next_state.T[uc]  # maps[t][s]: state after input uc[t] from state s
        span = 1
        while span < len(uc):
            maps[span:] = np.take_along_axis(maps[span:], maps[:-span], axis=1)
            span *= 2
        states = np.empty(len(uc), dtype=np.intp)
        states[0] = state
        states[1:] = maps[:-1, state]
        out[lo:lo + chunk] = output[states, uc]
        state = int(maps[-1, state])
    return out


def read_two_column_csv(path, header: str, n: int, errors: list[str]):
    """Read a CSV of single-digit symbols, 'a,b' per row, without a Python
    loop over rows; return the two columns or None."""
    raw = np.fromfile(path, dtype=np.uint8)
    head = (header + "\n").encode()
    if raw[:len(head)].tobytes() != head:
        errors.append(f"CSV header is not {header!r}")
        return None
    body = raw[len(head):]
    if body.size != 4 * n:
        errors.append(f"CSV body has {body.size} bytes, expected {4 * n} for {n} rows")
        return None
    rows = body.reshape(n, 4)
    if not (np.all(rows[:, 1] == ord(",")) and np.all(rows[:, 3] == ord("\n"))):
        errors.append("CSV rows are not of the form 'a,b'")
        return None
    a = rows[:, 0].astype(np.int64) - ord("0")
    b = rows[:, 2].astype(np.int64) - ord("0")
    if a.min() < 0 or a.max() > 1 or b.min() < 0 or b.max() > 1:
        errors.append("CSV holds symbols outside {0, 1}")
        return None
    return a, b
