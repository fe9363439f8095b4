"""Every deterministic report keeps its bytes: the SHA-256 of each file the
default pipelines, check-all at three more seeds, and trial-state on each
builtin toy write, against the table in `fingerprints.json`.

The table holds the digests and the Python, numpy and scipy versions they
were taken under; under other versions the test fails and names both.  A
change whose reports move on purpose rewrites the table with

    PYTHONPATH=src python tests/test_fingerprints.py

and says which files moved and why.
"""

import hashlib
import json
import platform
import tempfile
from pathlib import Path

import numpy as np
import pytest
import scipy

from bosegas.cli import main
from bosegas.toys import builtin_toy_suite

_TABLE = Path(__file__).resolve().parent / "fingerprints.json"

# run name -> (pipeline, config text)
_RUNS = {
    **{name: (name, "") for name in ("check-all", "scattering", "boundary", "integrals")},
    "energy-curve": ("energy-curve", ""),
    **{f"check-all-seed-{seed}": ("check-all", f"seed: {seed}\n") for seed in (7, 1, 2)},
    **{f"trial-state-{c.name}": ("trial-state", f"toy: {c.name}\n") for c in builtin_toy_suite()},
}


def _versions() -> dict:
    return {"python": platform.python_version(), "numpy": np.__version__, "scipy": scipy.__version__}


def _fingerprints(root: Path, name: str) -> dict:
    """run/file -> SHA-256 of every report the named run writes below root."""
    pipeline, text = _RUNS[name]
    cfg, out = root / f"{name}.yaml", root / name
    cfg.write_text(text)
    assert main([pipeline, "--config", str(cfg), "--out", str(out)]) == 0, name
    return {
        f"{name}/{path.name}": hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(out.iterdir())
    }


def _table() -> dict:
    table = json.loads(_TABLE.read_text())
    assert _versions() == table["versions"], (
        f"fingerprints taken under {table['versions']}, this run has {_versions()}"
    )
    return table["sha256"]


def test_fingerprint_table_covers_every_run():
    table = _table()
    assert len(table) == 54
    assert {key.split("/")[0] for key in table} == set(_RUNS)


@pytest.mark.parametrize("name", list(_RUNS))
def test_reports_match_their_fingerprints(tmp_path, name):
    want = {key: digest for key, digest in _table().items() if key.split("/")[0] == name}
    assert want
    assert _fingerprints(tmp_path, name) == want


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        digests = {}
        for name in _RUNS:
            digests |= _fingerprints(Path(tmp), name)
    table = {"versions": _versions(), "sha256": digests}
    _TABLE.write_text(json.dumps(table, sort_keys=True, indent=2) + "\n")
