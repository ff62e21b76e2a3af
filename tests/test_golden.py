"""Byte-for-byte pins of the files ``compile`` and ``emit-filters`` write.

Both commands run in-process through ``cli.main`` on the nine corpus
policies in both encodings; every file they write is hashed with SHA-256
and compared with ``golden_artifacts.json``.  The same file pins the
exported automaton JSON of the seeded random policies the compiler tests
draw (seeds 2024 and 555), which combine the constructions in ways the
corpus does not.  A deliberate change of an artifact format regenerates
that file with

    PYTHONPATH=src python tests/test_golden.py

which prints, per file suffix, how many digests changed, and says so in
its change description.
"""

from __future__ import annotations

import hashlib
import io
import json
import random
import sys
import tempfile
from contextlib import redirect_stdout
from pathlib import Path

from treepolicy import cli, compiler
from treepolicy.corpus import CORPUS
from treepolicy.vpa import export_vpa

from test_compiler import random_policy

GOLDEN = Path(__file__).with_name("golden_artifacts.json")
COMMANDS = ("compile", "emit-filters")
# seed -> number of policies, as the random-policy tests in test_compiler.py draw them
RANDOM_SEEDS = {2024: 100, 555: 40}
RANDOM_ALPHABET = ("A", "B", "C")


def artifact_digests(root: Path) -> dict[str, str]:
    """``policy/encoding/command/file`` -> SHA-256 of the file's bytes."""
    digests = {}
    for entry in CORPUS:
        for encoding in ("small", "full"):
            src = root / f"{entry.name}.{encoding}.stp"
            src.write_text(getattr(entry, encoding), encoding="utf-8")
            for command in COMMANDS:
                out = root / entry.name / encoding / command
                with redirect_stdout(io.StringIO()):
                    code = cli.main([command, str(src), str(out)])
                assert code == 0, f"{command} {entry.name} ({encoding}) exited {code}"
                for f in sorted(out.iterdir()):
                    key = f"{entry.name}/{encoding}/{command}/{f.name}"
                    digests[key] = hashlib.sha256(f.read_bytes()).hexdigest()
    return digests


def random_policy_digests() -> dict[str, str]:
    """``random/seed/policy.vpa.json`` -> SHA-256 of the exported automaton."""
    digests = {}
    for seed, count in RANDOM_SEEDS.items():
        rng = random.Random(seed)
        for i in range(count):
            pol = random_policy(rng, RANDOM_ALPHABET, depth_budget=4)
            art = compiler.compile_policy(pol, RANDOM_ALPHABET, policy_id=f"rand{i}")
            text = export_vpa(art.vpa, "json")
            digests[f"random/{seed}/rand{i}.vpa.json"] = hashlib.sha256(text.encode()).hexdigest()
    return digests


def assert_digests_match(got: dict[str, str], random_keys: bool):
    """Compare with the golden entries of one kind: command files or random automata."""
    want = json.loads(GOLDEN.read_text(encoding="utf-8"))
    want = {k: v for k, v in want.items() if k.startswith("random/") == random_keys}
    assert sorted(got) == sorted(want), "the set of written files changed"
    changed = sorted(k for k in want if got[k] != want[k])
    assert not changed, f"{len(changed)} artifacts changed, first: {changed[:5]}"


def test_artifacts_match_golden_digests(tmp_path):
    assert_digests_match(artifact_digests(tmp_path), random_keys=False)


def test_random_policy_automata_match_golden_digests():
    assert_digests_match(random_policy_digests(), random_keys=True)


SUFFIXES = (".filter.json", ".filter.lua", ".metrics.json", ".vpa.json", ".dot")


def changed_per_suffix(old: dict[str, str], new: dict[str, str]) -> dict[str, tuple[int, int]]:
    """``suffix`` -> (digests that differ or are new, digests in ``new``);
    the random-policy automata count apart from the command files."""
    counts = {}
    for key, digest in new.items():
        kind = "random " if key.startswith("random/") else ""
        suffix = kind + next(x for x in SUFFIXES if key.endswith(x))
        changed, seen = counts.get(suffix, (0, 0))
        counts[suffix] = changed + (old.get(key) != digest), seen + 1
    return counts


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        digests = artifact_digests(Path(tmp))
    digests.update(random_policy_digests())
    old = json.loads(GOLDEN.read_text(encoding="utf-8")) if GOLDEN.exists() else {}
    for suffix, (changed, seen) in sorted(changed_per_suffix(old, digests).items()):
        print(f"{suffix}: {changed} of {seen} digests changed", file=sys.stderr)
    if gone := len(old.keys() - digests.keys()):
        print(f"{gone} digests dropped", file=sys.stderr)
    GOLDEN.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {len(digests)} digests to {GOLDEN}", file=sys.stderr)
