"""Durable run ledger: one JSON record per CLI run under ``.repro/runs/``.

PR 7 gave every run spans and metrics, but the telemetry died with the
process.  The ledger is the cross-run layer: ``repro evaluate`` and
``repro dse`` append a record — manifest (argv, seed, engine, jobs,
accelerator fingerprints, package versions), wall-clock, the final
:class:`~repro.obs.metrics.MetricsRegistry` dump (when telemetry was
on), the per-generation convergence series, and the outcome status —
that ``repro runs list|show|diff|gc|regress`` read back.

Crash capture is the load-bearing design point: the record is written
*at begin* with ``status: "running"`` and atomically rewritten at
finish, so a run that raises (finished by the CLI's exception handler
as ``crashed``) or is SIGKILLed outright (left as ``running``) still
leaves a ledger entry.  Writes are tmp-file + ``os.replace`` so readers
never see a half-written record.

Knobs: ``REPRO_RUNS_DIR`` relocates the ledger directory (tests and CI
point it at a tmp dir), ``REPRO_LEDGER=0`` disables it, and the CLI
mirrors both as ``--runs-dir`` / ``--no-ledger``.  The ledger is
independent of the telemetry switch — it must not cost a counter bump
on any hot path, and it does not: it writes once at begin and once at
finish.
"""

from __future__ import annotations

import json
import os
import platform
import socket
import time
from pathlib import Path
from typing import Any, Iterable, Mapping

#: Bump when the record shape changes incompatibly.
LEDGER_FORMAT_VERSION = 1

RUNS_DIR_ENV = "REPRO_RUNS_DIR"
LEDGER_ENV = "REPRO_LEDGER"
DEFAULT_RUNS_DIR = Path(".repro") / "runs"

_active: RunHandle | None = None


def ledger_enabled() -> bool:
    """``False`` when ``REPRO_LEDGER`` is set to 0/off/false/no."""
    value = os.environ.get(LEDGER_ENV, "").strip().lower()
    return value not in ("0", "off", "false", "no")


def runs_dir(directory: str | Path | None = None) -> Path:
    """Resolve the ledger directory: explicit argument, then
    ``REPRO_RUNS_DIR``, then ``.repro/runs`` under the cwd."""
    if directory is not None:
        return Path(directory)
    env = os.environ.get(RUNS_DIR_ENV)
    if env:
        return Path(env)
    return DEFAULT_RUNS_DIR


def package_versions() -> dict[str, str | None]:
    """Interpreter and package versions recorded in every manifest —
    the first thing to check when two runs of one config disagree."""
    versions: dict[str, str | None] = {"python": platform.python_version()}
    try:
        from .. import __version__ as repro_version

        versions["repro"] = repro_version
    except Exception:  # pragma: no cover - package always importable
        versions["repro"] = None
    try:
        import numpy

        versions["numpy"] = numpy.__version__
    except Exception:  # pragma: no cover - numpy is a hard dependency
        versions["numpy"] = None
    return versions


class RunHandle:
    """A live run's ledger entry; write-at-begin, rewrite-at-finish."""

    def __init__(self, directory: Path, record: dict[str, Any]) -> None:
        self.directory = directory
        self.record = record
        self.path = directory / f"{record['id']}.json"
        self.finished = False
        self._write()

    # ------------------------------------------------------------------
    def set(self, **fields: Any) -> None:
        """Attach manifest fields discovered after begin (not flushed
        until :meth:`finish` — cheap to call anywhere)."""
        self.record.update(fields)

    def add_convergence(self, point: Mapping[str, Any]) -> None:
        """Append one per-generation convergence point (hv/epsilon) and
        flush, so a crashed search keeps its partial series."""
        self.record.setdefault("convergence", []).append(dict(point))
        try:
            self._write()
        except OSError:
            # A full/unwritable disk must not kill a live search; the
            # point stays in the record and finish() retries the write.
            pass

    def finish(
        self,
        status: str = "ok",
        error: str | None = None,
        result: Mapping[str, Any] | None = None,
    ) -> Path:
        """Seal the record (idempotent: the first finish wins, so a
        crash handler re-raising through an outer handler cannot flip a
        ``crashed`` record back to ``ok``)."""
        if self.finished:
            return self.path
        self.finished = True
        now = time.time()
        self.record["finished"] = now
        self.record["wall_seconds"] = now - self.record["started"]
        self.record["status"] = status
        if error is not None:
            self.record["error"] = error
        if result is not None:
            self.record["result"] = dict(result)
        # Capture the telemetry registry if the run had it on.  Imported
        # lazily: the obs package imports this module at load time.
        from repro import obs

        if obs.enabled and len(obs.metrics()):
            self.record["metrics"] = obs.metrics().to_json()
        self._write()
        global _active
        if _active is self:
            _active = None
        return self.path

    # ------------------------------------------------------------------
    def _write(self) -> None:
        self.directory.mkdir(parents=True, exist_ok=True)
        tmp = self.path.with_name(f"{self.path.name}.tmp{os.getpid()}")
        tmp.write_text(json.dumps(self.record, indent=1, sort_keys=True))
        os.replace(tmp, self.path)


def begin_run(
    command: str,
    argv: Iterable[str],
    manifest: Mapping[str, Any] | None = None,
    directory: str | Path | None = None,
) -> RunHandle:
    """Open a ledger record with ``status: "running"`` and make it the
    process's :func:`active_run`.  The id is timestamp + pid + command
    (with a collision suffix: test suites start many runs per second)."""
    global _active
    target = runs_dir(directory)
    started = time.time()
    stamp = time.strftime("%Y%m%dT%H%M%S", time.localtime(started))
    base = f"{stamp}-{os.getpid()}-{command}"
    run_id, n = base, 1
    while (target / f"{run_id}.json").exists():
        n += 1
        run_id = f"{base}-{n}"
    record: dict[str, Any] = {
        "format": LEDGER_FORMAT_VERSION,
        "id": run_id,
        "command": command,
        "argv": list(argv),
        "status": "running",
        "started": started,
        "pid": os.getpid(),
        "host": socket.gethostname(),
        "versions": package_versions(),
    }
    if manifest:
        record["manifest"] = dict(manifest)
    handle = RunHandle(target, record)
    _active = handle
    return handle


def active_run() -> RunHandle | None:
    """The in-flight run's handle (lets the DSE loop stream convergence
    points into the record without threading a handle through APIs)."""
    return _active


def reset() -> None:
    """Forget the active handle (test isolation)."""
    global _active
    _active = None


# ----------------------------------------------------------------------
# Reading the ledger back
# ----------------------------------------------------------------------
def list_runs(directory: str | Path | None = None) -> list[dict[str, Any]]:
    """All records in the ledger, oldest first.  An unreadable file
    (foreign junk, torn write from a pre-atomic-rename tool) surfaces as
    a stub with ``status: "unreadable"`` rather than hiding."""
    target = runs_dir(directory)
    if not target.is_dir():
        return []
    records: list[dict[str, Any]] = []
    for path in sorted(target.glob("*.json")):
        try:
            record = json.loads(path.read_text())
            if not isinstance(record, dict):
                raise ValueError("not an object")
        except (OSError, ValueError):
            record = {"id": path.stem, "status": "unreadable", "started": 0.0}
        record.setdefault("id", path.stem)
        record["_path"] = str(path)
        records.append(record)
    records.sort(key=lambda r: (r.get("started") or 0.0, r["id"]))
    return records


def load_run(ref: str, directory: str | Path | None = None) -> dict[str, Any]:
    """Resolve a run reference: ``latest``, an exact id, a unique id
    prefix, or a path to a record file."""
    as_path = Path(ref)
    if as_path.is_file():
        record: dict[str, Any] = json.loads(as_path.read_text())
        record["_path"] = str(as_path)
        return record
    records = [r for r in list_runs(directory) if r.get("status") != "unreadable"]
    if ref == "latest":
        if not records:
            raise ValueError(f"no runs recorded under {runs_dir(directory)}")
        return records[-1]
    exact = [r for r in records if r["id"] == ref]
    if exact:
        return exact[0]
    prefixed = [r for r in records if r["id"].startswith(ref)]
    if len(prefixed) == 1:
        return prefixed[0]
    if prefixed:
        ids = ", ".join(r["id"] for r in prefixed)
        raise ValueError(f"run reference {ref!r} is ambiguous: {ids}")
    raise ValueError(
        f"no run matching {ref!r} under {runs_dir(directory)} "
        f"(try 'repro runs list')"
    )


def gc_runs(
    directory: str | Path | None = None,
    keep: int = 20,
    dry_run: bool = False,
) -> list[str]:
    """Drop the oldest records beyond ``keep``; returns removed ids."""
    if keep < 0:
        raise ValueError("keep must be >= 0")
    records = list_runs(directory)
    doomed = records[: max(0, len(records) - keep)]
    removed: list[str] = []
    for record in doomed:
        if not dry_run:
            try:
                os.unlink(record["_path"])
            except OSError:
                continue
        removed.append(record["id"])
    return removed


# ----------------------------------------------------------------------
# Derived metrics (shared by `runs show|diff` and the regression gate)
# ----------------------------------------------------------------------
def metric_total(
    record: Mapping[str, Any], name: str, **match: str
) -> float | None:
    """Sum a counter/gauge family from a record's metrics dump across
    series whose labels include ``match``; ``None`` when absent."""
    dump = record.get("metrics") or {}
    total: float | None = None
    for raw in dump.get("metrics", []):
        if raw.get("name") != name:
            continue
        labels = {k: v for k, v in raw.get("labels", [])}
        if any(labels.get(k) != v for k, v in match.items()):
            continue
        data = raw.get("data")
        if not isinstance(data, (int, float)):
            continue  # histograms have no single total here
        total = (total or 0.0) + float(data)
    return total


def key_metrics(record: Mapping[str, Any]) -> dict[str, Any]:
    """The comparable scalars of a run (``None`` where unavailable):
    wall-clock, orderings evaluated and per-second, mapping-cache hit
    rate, DSE evaluations / hypervolume / epsilon / frontier size."""
    out: dict[str, Any] = {
        "wall_seconds": record.get("wall_seconds"),
        "orderings": metric_total(record, "loma_orderings_evaluated_total"),
        "orderings_per_s": None,
        "cache_hit_rate": None,
        "evaluations": None,
        "hypervolume": None,
        "epsilon": None,
        "frontier_size": None,
    }
    wall = out["wall_seconds"]
    if out["orderings"] and wall:
        out["orderings_per_s"] = out["orderings"] / wall
    hits = metric_total(record, "mapping_cache_gets_total", result="hit")
    misses = metric_total(record, "mapping_cache_gets_total", result="miss")
    if hits is not None or misses is not None:
        total = (hits or 0.0) + (misses or 0.0)
        if total:
            out["cache_hit_rate"] = (hits or 0.0) / total
    result = record.get("result") or {}
    convergence = record.get("convergence") or []
    last = convergence[-1] if convergence else {}
    out["evaluations"] = result.get("evaluations", last.get("evaluations"))
    out["hypervolume"] = result.get("hypervolume", last.get("hypervolume"))
    out["epsilon"] = result.get("epsilon", last.get("epsilon"))
    out["frontier_size"] = result.get(
        "frontier_size", last.get("frontier_size")
    )
    return out
