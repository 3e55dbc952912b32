"""The served model: trained once per source tree, cached under ``out/``.

The model is part of the system under test, not of the workload, so its
training seed is fixed; ``--seed`` varies the traffic only.  The cache
key carries a digest of ``src/repro`` so a PR that changes training or
the model format never serves a stale file.
"""

from __future__ import annotations

import hashlib
import json
import time
from pathlib import Path
from typing import Tuple

MODEL_SEED = 7
_TRAIN_SESSIONS = 20_000


def source_digest(repo_root: Path) -> str:
    digest = hashlib.sha256()
    for path in sorted((repo_root / "src" / "repro").rglob("*.py")):
        digest.update(path.relative_to(repo_root).as_posix().encode("utf-8"))
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def ensure_model(repo_root: Path, out_dir: Path) -> Tuple[Path, float]:
    """Path of the trained model and the seconds its fit took (when it ran)."""
    from repro.core.pipeline import BrowserPolygraph
    from repro.traffic.generator import TrafficConfig, TrafficSimulator

    out_dir.mkdir(parents=True, exist_ok=True)
    stem = f"model-seed{MODEL_SEED}-{source_digest(repo_root)}"
    model_path = out_dir / f"{stem}.json"
    note_path = out_dir / f"{stem}.fit.json"
    if model_path.exists() and note_path.exists():
        return model_path, float(json.loads(note_path.read_text())["train_fit_s"])
    dataset = TrafficSimulator(
        TrafficConfig(seed=MODEL_SEED).scaled(_TRAIN_SESSIONS)
    ).generate()
    started = time.perf_counter()
    pipeline = BrowserPolygraph().fit(dataset)
    train_fit_s = time.perf_counter() - started
    # Write-then-rename: a run killed mid-save must not leave a model
    # the next run would trust.
    partial = model_path.with_suffix(".partial")
    pipeline.save(partial)
    partial.replace(model_path)
    note_path.write_text(json.dumps({"train_fit_s": train_fit_s}))
    return model_path, train_fit_s
