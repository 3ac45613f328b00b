"""Self-test of the benchmark's checks, then a smoke run of every workload.

    python3 perfbench/selftest.py

1. A cached ``tau`` answer with one flipped digit must count as a failed,
   mismatched operation without stopping the pass.
2. A Lehmer run checked against a wrong cache digest must do the same.
3. A grid search with a point dropped, with every verdict turned to
   composite, or with one digit flipped in its JSON must each count as a
   mismatch.
4. Every workload runs at a tiny size, once untraced and for about two
   seconds traced, with no failed operation, and reports exactly the
   metrics BENCHMARK.json names.  The trace keeps only the spans of the
   set-up and the fastest traced pass, each with a parent in its own
   operation.

Exits 0 and prints "selftest ok" when all hold; an AssertionError otherwise.
"""

from __future__ import annotations

import dataclasses
import json
import re
import shutil
import sys

import run


def _flip_last_digit(text: str) -> str:
    body = text.rstrip("\n")
    return body[:-1] + str((int(body[-1]) + 1) % 10) + "\n"


def _one_pass(ops) -> run.Tally:
    tally = run.Tally()
    tally.run_pass(ops, [[] for _ in ops])
    return tally


def main() -> int:
    run.import_program()
    import workloads

    work = run.WORK / "selftest"
    work.mkdir(parents=True, exist_ok=True)
    try:
        cached = next(op for op in workloads.queries_setup(1, work, True) if "--cache" in op.label)
        clean = _one_pass([cached])
        assert (clean.failed, clean.mismatches) == (0, 0), clean.reasons
        flipped = workloads.Op(cached.label, lambda: _flip_last_digit(cached.run()), cached.check)
        bad = _one_pass([flipped, cached])
        assert (bad.attempted, bad.failed, bad.mismatches) == (2, 1, 1), bad.reasons

        saved = dict(workloads.CACHE_DIGESTS)
        workloads.CACHE_DIGESTS[2000] = "0" * 64
        try:
            bad = _one_pass(workloads.lehmer_setup(0, work, True))
        finally:
            workloads.CACHE_DIGESTS.update(saved)
        assert (bad.failed, bad.mismatches) == (1, 1), bad.reasons
        assert "digest" in next(iter(bad.reasons)), bad.reasons

        search = next(op for op in workloads.grid_setup(1, work, True) if not op.label.startswith("search:2x"))
        hits, text, census = search.run()
        composite = workloads.Verdict.COMPOSITE
        assert len(hits) > 2 and any(h.verdict is not composite for h in hits)
        broken = [
            (hits[:1] + hits[2:], text, census),
            ([dataclasses.replace(h, verdict=composite) for h in hits], text, census),
            (hits, re.sub(r'"value": "(-?)(\d)', lambda m: f'"value": "{m[1]}{(int(m[2]) + 1) % 10}', text, 1), census),
        ]
        bad = _one_pass([workloads.Op(search.label, lambda out=out: out, search.check) for out in broken] + [search])
        assert (bad.attempted, bad.failed, bad.mismatches) == (4, 3, 3), bad.reasons
    finally:
        shutil.rmtree(work, ignore_errors=True)

    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    for name in run.WORKLOAD_NAMES:
        for trace, listed in ((False, "end_to_end"), (True, "per_layer")):
            record = run.measure(name, 1, 2 if trace else 0, trace, tiny=True)
            assert record["attempted"] >= 1 and record["failed"] == 0, (name, trace, record["reasons"])
            assert set(record["metrics"]) == {m["name"] for m in spec[listed]}, (name, trace)
            if trace:
                spans = record["tracer"].spans
                assert {s[4] for s in spans} == {("setup", 0)} | {(record["fastest"], i) for i in range(record["ops_per_pass"])}
                assert all(s[3] < i and (s[3] < 0 or spans[s[3]][4] == s[4]) for i, s in enumerate(spans)), name
            print(f"smoke {name} trace={int(trace)}: {record['attempted']} ops ok")
    print("selftest ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
