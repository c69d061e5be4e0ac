"""Output checks for benchmark commands.

Two checks run on every command:

* the reference digest covers the outputs that must stay bit-identical
  across refactors: ``values``, ``worst_start``, ``policy`` and ``net`` of
  a solve; ``estimate``, ``theta`` and ``per_k`` of a copnumber; the whole
  trajectory JSONL and gaps CSV of a play; and each verify report's lemma,
  instance, passed flag and violation.  Convergence logs, ``tau_prefix``
  and ``members`` are left out, because stopping a limit solve earlier may
  shorten them without changing a value.  Digests recorded in
  ``reference.json`` are compared when the run's seed has one;
* the file hashes cover every output byte, and the timed passes of a run
  must reproduce the warm-up pass exactly.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

OUTPUTS = {
    "solve": ("solve_result.json",),
    "copnumber": ("copnumber.json",),
    "play": ("trajectory.jsonl", "gaps.csv"),
    "verify": ("verify_report.json",),
}

SOLVE_FIELDS = ("values", "worst_start", "policy", "net")
COPNUMBER_FIELDS = ("estimate", "theta", "per_k")


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _canonical(obj) -> bytes:
    return json.dumps(obj, sort_keys=True, separators=(",", ":")).encode()


def file_hashes(command: str, outdir: Path) -> dict:
    """sha256 of every output file of ``command``; raises FileNotFoundError
    when one is missing."""
    return {name: _sha((outdir / name).read_bytes()) for name in OUTPUTS[command]}


def reference_digest(command: str, outdir: Path) -> str:
    """Digest of the outputs that must stay bit-identical."""
    if command == "play":
        picked = file_hashes(command, outdir)
    else:
        doc = json.loads((outdir / OUTPUTS[command][0]).read_text())
        if command == "solve":
            picked = {k: doc[k] for k in SOLVE_FIELDS if k in doc}
        elif command == "copnumber":
            picked = {k: doc[k] for k in COPNUMBER_FIELDS}
        else:
            picked = [[r["lemma"], r["instance"], r["passed"], r["violation"]]
                      for r in doc]
    return _sha(_canonical(picked))[:32]


def load_reference(path: Path) -> dict:
    if not path.is_file():
        return {}
    return json.loads(path.read_text())["digests"]


def expected_digests(reference: dict, workload: str, seed: int) -> dict | None:
    """``command id -> digest`` recorded for this workload and seed, or None."""
    return reference.get(workload, {}).get(str(int(seed)))
