"""Byte-for-byte pins of the files ``compile`` and ``emit-filters`` write.

Both commands run in-process through ``cli.main`` on the nine corpus
policies in both encodings; every file they write is hashed with SHA-256
and compared with ``golden_artifacts.json``.  A deliberate change of an
artifact format regenerates that file with

    PYTHONPATH=src python tests/test_golden.py

and says so in its change description.
"""

from __future__ import annotations

import hashlib
import io
import json
import sys
import tempfile
from contextlib import redirect_stdout
from pathlib import Path

from treepolicy import cli
from treepolicy.corpus import CORPUS

GOLDEN = Path(__file__).with_name("golden_artifacts.json")
COMMANDS = ("compile", "emit-filters")


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


def test_artifacts_match_golden_digests(tmp_path):
    want = json.loads(GOLDEN.read_text(encoding="utf-8"))
    got = artifact_digests(tmp_path)
    assert sorted(got) == sorted(want), "the set of written files changed"
    changed = sorted(k for k in want if got[k] != want[k])
    assert not changed, f"{len(changed)} artifacts changed, first: {changed[:5]}"


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        digests = artifact_digests(Path(tmp))
    GOLDEN.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {len(digests)} digests to {GOLDEN}", file=sys.stderr)
