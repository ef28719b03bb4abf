"""Run one contract probe against the library and print a JSON verdict.

    python3 probe_child.py SRC FUNCTION ARGS_JSON

The parent runs this in a child process under a time limit, so a probe
that hangs is killed and counted as failed.  The verdict's ``ok`` says
whether the outcome is the documented one; an exception other than the
documented refusal is a failed probe, reported by its type.
"""
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import reference as R  # noqa: E402


def random_latin(lib, n, d, seed):
    try:
        op = lib.random_latin(n, d, seed)
    except lib.CeilingError as exc:
        return True, f"refused: {exc}"
    ok = (op.n, op.d) == (n, d) and R.is_latin(n, d, op.table)
    return ok, "returned a Latin table" if ok else "returned a table that is not Latin"


def count_all(lib, n, d):
    count = lib.count_all(n, d)
    return count == R.latin_count(n, d), f"returned {count}"


def find_transversals_limit(lib, n, table):
    found = lib.find_transversals(lib.graph_of(lib.LatinOp(n, 2, tuple(table))), limit=0)
    return found == [], f"returned {len(found)} transversals"


def main():
    src, function, args = sys.argv[1], sys.argv[2], json.loads(sys.argv[3])
    sys.path.insert(0, src)
    import latinop

    try:
        ok, outcome = globals()[function](latinop, *args)
    except Exception as exc:  # the probe's point: any crash is an outcome to report
        ok, outcome = False, f"raised {type(exc).__name__}: {str(exc)[:160]}"
    print(json.dumps({"ok": ok, "outcome": outcome}))


if __name__ == "__main__":
    main()
