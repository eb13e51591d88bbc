"""Seeded mutation gate: the commands meet mutated fixture files with an exit code.

Each case applies one to three mutations to one bundled fixture: rows dropped,
duplicated or swapped; a field set to an empty, NaN, infinite, signed-zero,
tiny or huge value; a truncated file; a BOM; CRLF line ends; a non-UTF-8
byte.  Every command that reads the fixture then runs in-process.  A run must
return 0, 3 or 4, or exit 2 on usage; a run returning 3 or 4 writes exactly
one stderr line, and no failing run leaves its ``--out`` behind.  Warnings are
errors under the test configuration, so a stray ``RuntimeWarning`` fails too.
The seed and the case count are fixed, so every run checks the same cases.
"""

import shutil

import numpy as np
import pytest

from robustts.cli import main

SEED = 19
CASES = 100  # per fixture
BOOTSTRAP_EVERY = 12  # every 12th counts case also runs unitroot --B 99
FIELD_VALUES = (b"", b"nan", b"inf", b"-0", b"1e-300", b"1e153")


def _drop(rows, rng):
    rows.pop(rng.integers(len(rows)))


def _duplicate(rows, rng):
    i = rng.integers(len(rows))
    rows.insert(i, rows[i])


def _swap(rows, rng):
    i, j = rng.integers(len(rows), size=2)
    rows[i], rows[j] = rows[j], rows[i]


def _field(rows, rng):
    i = rng.integers(len(rows))
    fields = rows[i].split(b",")
    fields[rng.integers(len(fields))] = FIELD_VALUES[rng.integers(len(FIELD_VALUES))]
    rows[i] = b",".join(fields)


def _truncate(data, rng):
    return data[: rng.integers(len(data))]


def _bom(data, rng):
    return b"\xef\xbb\xbf" + data


def _crlf(data, rng):
    return data.replace(b"\n", b"\r\n")


def _not_utf8(data, rng):
    i = rng.integers(len(data) + 1)
    return data[:i] + b"\xff" + data[i:]


ROW_MUTATIONS = (_drop, _duplicate, _swap, _field)
BYTE_MUTATIONS = (_truncate, _bom, _crlf, _not_utf8)
MUTATIONS = ROW_MUTATIONS + BYTE_MUTATIONS

# the fixture each case mutates, under the data directory
SOURCES = {
    "counts": "counts_infections.csv",
    "prices": "prices/Arcadia_AVX.csv",
    "rates": "rates.csv",
    "factors": "factors.csv",
}


def mutate(data: bytes, rng) -> tuple[bytes, list[str]]:
    """``data`` after one to three seeded mutations, and their names."""
    chosen = [MUTATIONS[i] for i in rng.integers(len(MUTATIONS), size=rng.integers(1, 4))]
    # rows change while they are still LF-separated, then the file's bytes
    header, *rows = data.rstrip(b"\n").split(b"\n")
    for mutation in chosen:
        if mutation in ROW_MUTATIONS and rows:
            mutation(rows, rng)
    data = b"\n".join([header, *rows]) + b"\n"
    for mutation in chosen:
        if mutation in BYTE_MUTATIONS:
            data = mutation(data, rng)
    return data, [mutation.__name__ for mutation in chosen]


def commands(fixture: str, data, out, case: int) -> list[list]:
    """The argv of each command that reads ``fixture`` from ``data``."""
    counts = data / "counts_infections.csv"
    predict = ["predict", "--counts", counts, "--prices-dir", data / "prices",
               "--rates", data / "rates.csv", "--out", out / "predict.csv"]
    factors = ["factors", "--prices-dir", data / "prices", "--index", "AVX",
               "--factors", data / "factors.csv", "--out", out / "factors.csv"]
    if fixture != "counts":
        return {"prices": [predict, factors], "rates": [predict], "factors": [factors]}[fixture]
    runs = [
        ["unitroot", "--counts", counts, "--B", "0", "--out", out / "unitroot.csv"],
        ["tailindex", "--counts", counts, "--out", out / "tailindex"],
        predict,
    ]
    if case % BOOTSTRAP_EVERY == 0:
        runs.append(["unitroot", "--counts", counts, "--B", "99", "--seed", "1",
                     "--out", out / "unitroot99.csv"])
    return runs


def run_checked(argv, capsys) -> str | None:
    """None if the run ends as the exit-code contract says, else what went wrong."""
    out = argv[argv.index("--out") + 1]
    try:
        code = main([str(a) for a in argv])
    except SystemExit as exc:
        code = 2 if exc.code == 2 else f"SystemExit({exc.code!r})"
    except Exception as exc:  # an escape: recorded, so the gate lists every one
        code = f"{type(exc).__name__}: {exc}"
    err = capsys.readouterr().err
    if code not in (0, 2, 3, 4):
        return f"ended with {code}"
    if code == 0:
        return None if err == "" else f"exit 0 with stderr {err!r}"
    if code != 2 and (err.count("\n") != 1 or not err.endswith("\n")):
        return f"exit {code} with stderr {err!r}"
    leftovers = [p for p in (out, out.with_name(out.name + ".manifest")) if p.exists()]
    return f"exit {code} left {leftovers}" if leftovers else None


@pytest.mark.parametrize("fixture", list(SOURCES))
def test_mutated_fixture_runs_end_cleanly(data_dir, tmp_path, capsys, fixture):
    original = (data_dir / SOURCES[fixture]).read_bytes()
    escapes = []
    for case in range(CASES):
        rng = np.random.default_rng([SEED, list(SOURCES).index(fixture), case])
        mutated, names = mutate(original, rng)
        data = tmp_path / str(case)
        shutil.copytree(data_dir, data, ignore=shutil.ignore_patterns("*.py", "__pycache__"))
        (data / SOURCES[fixture]).write_bytes(mutated)
        for argv in commands(fixture, data, tmp_path / str(case) / "out", case):
            problem = run_checked(argv, capsys)
            if problem:
                escapes.append(f"case {case} {names} {argv[0]}: {problem}")
    assert not escapes, "\n".join(escapes)
