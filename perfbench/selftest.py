#!/usr/bin/env python3
"""Self-test of the benchmark's generator and correctness gate.

    python3 perfbench/selftest.py

Run it from the root of a checkout; it builds the benchmark as run.py does.
It shows that:
  * each workload passes the gate at a tiny size, untraced and traced,
    and a traced run reports every per-layer metric;
  * the transaction stream is a function of the seed, and bulk_refint and
    parallel_refint consume the identical stream;
  * the gate is live: a generator that re-uses ids (so its commits
    install nothing) and one that injects a violation without reporting
    it are both rejected on every workload;
  * a non-empty work directory the program did not make is refused and
    left as it was.
Exits 0 when every check holds.
"""

import json
import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent))
import run  # noqa: E402  (the benchmark's own runner)

TINY = ["--keys", "500", "--fks", "5000", "--setup-reps", "1",
        "--warmup-seconds", "0.1"]
BENCHMARK_JSON = pathlib.Path(__file__).resolve().parent.parent / "BENCHMARK.json"

failures = []


def check(ok, what):
    print(("ok    " if ok else "FAIL  ") + what)
    if not ok:
        failures.append(what)


def result_of(out):
    lines = out.strip().splitlines()
    try:
        return json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        return None


def drive(binary, workload, seed, seconds, trace=0, fault="none"):
    work = run.build_dir() / "selftest" / workload
    code, out = run.run_binary(binary, [
        "--workload", workload, "--seed", str(seed), "--seconds",
        str(seconds), "--trace", str(trace), "--workdir", str(work),
        "--fault", fault] + TINY)
    return code, out, result_of(out)


def digest(binary, workload, seed, count):
    code, out = run.run_binary(binary, [
        "--workload", workload, "--seed", str(seed), "--stream-digest",
        str(count)] + TINY[:4])
    fields = out.split()
    return (fields[1], int(fields[3])) if code == 0 and len(fields) == 4 \
        else (None, None)


def seed_injecting_early(binary, workload, within):
    """A seed whose stream reports a violation among its first `within`
    transactions, so a short faulted run is sure to meet one."""
    for seed in range(1, 200):
        _, first = digest(binary, workload, seed, within)
        if first is not None and 0 <= first:
            return seed
    return None


def main():
    binary = run.build()
    if binary is None:
        print("selftest: build failed", file=sys.stderr)
        return 1
    spec = json.loads(BENCHMARK_JSON.read_text())
    per_layer = [m["name"] for m in spec["per_layer"]]
    end_to_end = [m["name"] for m in spec["end_to_end"]]

    for w in run.WORKLOADS:
        code, out, res = drive(binary, w, seed=3, seconds=1)
        check(code == 0 and res is not None and res["correct"]
              and res["failed"] == 0 and res["attempted"] > 0,
              f"{w}: tiny untraced run passes the gate")
        check(res is not None and all(n in res["metrics"] for n in end_to_end),
              f"{w}: untraced run reports every end-to-end metric")
        code, out, res = drive(binary, w, seed=3, seconds=1, trace=1)
        check(code == 0 and res is not None and res["correct"],
              f"{w}: tiny traced run passes the gate")
        check(res is not None and all(n in res["metrics"] for n in per_layer),
              f"{w}: traced run reports every per-layer metric")

    a = digest(binary, "bulk_refint", 5, 20)[0]
    check(a is not None and a == digest(binary, "bulk_refint", 5, 20)[0],
          "same seed, same stream")
    check(a != digest(binary, "bulk_refint", 6, 20)[0],
          "another seed, another stream")
    check(a == digest(binary, "parallel_refint", 5, 20)[0],
          "bulk_refint and parallel_refint consume the identical stream")
    check(digest(binary, "oltp_inproc", 5, 200)[0] ==
          digest(binary, "oltp_net", 5, 200)[0],
          "oltp_inproc and oltp_net clients share a generator")

    for w in run.WORKLOADS:
        code, out, res = drive(binary, w, seed=3, seconds=1, fault="reuse_ids")
        check(code == 1 and res is not None and not res["correct"],
              f"{w}: a generator re-using ids is rejected")
        if w != "parallel_refint":
            check("read-only commits" in out,
                  f"{w}: ... and the read-only commits are named")
        seed = seed_injecting_early(binary, w, 10)
        code, out, res = drive(binary, w, seed=seed, seconds=1,
                               fault="unreported_violation")
        check(code == 1 and res is not None and not res["correct"]
              and "valid transaction aborted on integrity" in out,
              f"{w}: an unreported violation is rejected (seed {seed})")

    foreign = run.build_dir() / "selftest" / "foreign"
    foreign.mkdir(parents=True, exist_ok=True)
    keep = foreign / "keep.txt"
    keep.write_text("not the benchmark's\n")
    code, out = run.run_binary(binary, [
        "--workload", "oltp_inproc", "--seed", "3", "--seconds", "1",
        "--trace", "0", "--workdir", str(foreign)] + TINY)
    check(code == 2 and result_of(out) is None and keep.exists(),
          "a foreign non-empty work directory is refused and kept")

    print(f"{len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
