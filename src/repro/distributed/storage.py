"""Persisting a distributed warehouse to disk and loading it back.

A saved warehouse is a directory::

    warehouse/
      manifest.json        # sites, constraint metadata, link parameters
      site_0.csv           # one typed CSV per site fragment
      site_1.csv
      ...

Fragments use the typed CSV format of :mod:`repro.relational.io`;
distribution knowledge (the φ_i constraints) serializes to JSON with an
explicit constraint-kind tag so loading reconstructs the same
:class:`~repro.distributed.partition.AttributeConstraint` objects.  The
constraints are re-verified against the fragments on load unless the
caller opts out — stale knowledge silently breaking Theorem 4 rewrites
is the failure mode this guards against.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Mapping

import numpy as np

from repro.errors import PartitionError, SkallaError
from repro.relational.io import read_csv, write_csv
from repro.relational.relation import Relation
from repro.distributed.engine import SkallaEngine
from repro.distributed.messages import SiteId
from repro.distributed.network import LinkModel
from repro.distributed.partition import (
    AttributeConstraint, DistributionInfo, RangeConstraint,
    ValueSetConstraint)

MANIFEST_NAME = "manifest.json"
FORMAT_VERSION = 1


class StorageError(SkallaError):
    """A warehouse directory is missing, malformed, or inconsistent."""


# ---------------------------------------------------------------------------
# Constraint (de)serialization
# ---------------------------------------------------------------------------

def _plain(value: object) -> object:
    """A NumPy scalar as the Python value JSON can write."""
    return value.item() if isinstance(value, np.generic) else value


def constraint_to_json(constraint: AttributeConstraint) -> dict:
    if isinstance(constraint, ValueSetConstraint):
        return {"kind": "values",
                "values": sorted(map(_plain, constraint.values), key=repr)}
    if isinstance(constraint, RangeConstraint):
        return {"kind": "range", "low": _plain(constraint.low),
                "high": _plain(constraint.high)}
    raise StorageError(
        f"cannot serialize constraint type {type(constraint).__name__}")


def constraint_from_json(payload: Mapping) -> AttributeConstraint:
    kind = payload.get("kind")
    if kind == "values":
        return ValueSetConstraint(frozenset(payload["values"]))
    if kind == "range":
        return RangeConstraint(payload["low"], payload["high"])
    raise StorageError(f"unknown constraint kind {kind!r}")


# ---------------------------------------------------------------------------
# Save / load
# ---------------------------------------------------------------------------

def save_warehouse(engine: SkallaEngine, directory: str | Path) -> Path:
    """Write the engine's fragments + knowledge + link model to disk."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    site_files = {}
    for site_id in engine.site_ids:
        filename = f"site_{site_id}.csv"
        write_csv(engine.fragment(site_id), directory / filename)
        site_files[str(site_id)] = filename

    constraints_json = {
        str(site_id): {attr: constraint_to_json(constraint)
                       for attr, constraint in site_constraints.items()}
        for site_id, site_constraints in engine.knowledge.constraints.items()}

    manifest = {
        "format_version": FORMAT_VERSION,
        "sites": site_files,
        "constraints": constraints_json,
        "link": {"bandwidth": engine.link.bandwidth,
                 "latency": engine.link.latency},
    }
    (directory / MANIFEST_NAME).write_text(json.dumps(manifest, indent=2))
    return directory


def _read_manifest(directory: Path) -> dict:
    manifest_path = directory / MANIFEST_NAME
    if not manifest_path.exists():
        raise StorageError(f"{directory} has no {MANIFEST_NAME}; "
                           f"not a saved warehouse")
    try:
        manifest = json.loads(manifest_path.read_text())
    except json.JSONDecodeError as error:
        raise StorageError(f"malformed manifest: {error}") from error
    version = manifest.get("format_version")
    if version != FORMAT_VERSION:
        raise StorageError(f"unsupported warehouse format {version!r}")
    return manifest


def saved_site_ids(directory: str | Path) -> list[SiteId]:
    """The site ids of a saved warehouse, from its manifest alone."""
    return sorted(int(site_text)
                  for site_text in _read_manifest(Path(directory))["sites"])


def load_warehouse(directory: str | Path, verify_info: bool = True,
                   **engine_kwargs) -> SkallaEngine:
    """Reconstruct a :class:`SkallaEngine` saved by :func:`save_warehouse`.

    ``engine_kwargs`` go to the engine constructor as given (transport,
    cache, skew, …); fragments, distribution knowledge and link come
    from the saved files.  Manifest keys this function does not read are
    ignored — in particular the per-site map older saves carry that only
    scaled reported site seconds, never a result.
    """
    directory = Path(directory)
    manifest = _read_manifest(directory)

    partitions: dict[SiteId, Relation] = {}
    for site_text, filename in manifest["sites"].items():
        path = directory / filename
        if not path.exists():
            raise StorageError(f"missing site fragment {filename}")
        partitions[int(site_text)] = read_csv(path)

    info = DistributionInfo()
    for site_text, site_constraints in (manifest.get("constraints")
                                        or {}).items():
        for attr, payload in site_constraints.items():
            info.add(int(site_text), attr, constraint_from_json(payload))

    link_json = manifest.get("link") or {}
    link = LinkModel(bandwidth=link_json.get("bandwidth", 1e6),
                     latency=link_json.get("latency", 0.01))
    try:
        return SkallaEngine(partitions, info, link=link,
                            verify_info=verify_info, **engine_kwargs)
    except PartitionError as error:
        raise StorageError(
            f"saved distribution knowledge does not match the saved "
            f"fragments: {error}") from error
