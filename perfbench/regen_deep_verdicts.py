"""Regenerate the stored oracle verdicts for the deep chains of check-traces.

The reference oracle takes seconds per policy on a chain hundreds of calls
deep, too slow to run inside a benchmark run.  Each deep chain is a pure
function of (depth, variant), independent of the run's --seed, so its
verdicts are computed once here and stored with the SHA-256 of the chain's
JSONL text; a run refuses a chain whose text no longer matches.

    python3 perfbench/regen_deep_verdicts.py      # from the repository root

It takes about seven minutes on a 2-core machine (Python 3.11).
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import inputs  # noqa: E402
from treepolicy import nested_word as nw, oracle  # noqa: E402
from treepolicy.policy import parse_policy  # noqa: E402

OUT = HERE / "deep_verdicts.json"


def main() -> int:
    text = inputs.union_document()
    doc = parse_policy(text)
    chains = []
    for depth in inputs.DEEP_DEPTHS:
        for variant in range(inputs.DEEP_VARIANTS):
            events = inputs.chain_events(depth, variant, doc.alphabet)
            trace = nw.serialize_trace(events)
            word = nw.build_nested_word(events)
            t0 = time.perf_counter()
            verdicts = [oracle.sat_policy(word, pol, doc.alphabet) for pol in doc.policies]
            print(f"depth {depth} variant {variant}: {time.perf_counter() - t0:.1f} s",
                  file=sys.stderr, flush=True)
            chains.append({"depth": depth, "variant": variant,
                           "sha256": inputs.digest(trace), "verdicts": verdicts})
    # One chain per line; the file is JSON like {"version", ..., "chains": [...]}.
    head = json.dumps({"version": 1, "policy_document_sha256": inputs.digest(text)})[:-1]
    lines = ",\n".join("  " + json.dumps(c) for c in chains)
    OUT.write_text(f'{head}, "chains": [\n{lines}\n]}}\n', encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
