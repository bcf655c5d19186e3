"""Persistent per-machine performance-model store.

StarPU keeps one calibration file per (performance model, hostname)
under ``~/.starpu/sampling/codelets``; a run on a machine whose models
are already calibrated skips the exploration phase entirely.  This
module is that repository for the simulated stack:

- one JSON file per machine *name* under the store root, holding the
  calibrated model data grouped per codelet plus provenance;
- a **fingerprint** of the full machine description (devices, links,
  unit layout) stored inside the file.  Loading a file whose fingerprint
  does not match the current machine — the preset changed, a device was
  recalibrated — raises :class:`~repro.errors.StaleModelError` instead
  of silently reusing measurements taken on different hardware;
- a **format version**: files written by an incompatible serialisation
  are likewise rejected as stale;
- **atomic writes** (temp file + ``os.replace``) and **merge-on-save**:
  saving re-reads the file and folds the incoming model into it, so
  concurrent experiments calibrating different codelets don't clobber
  each other's entries.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
from pathlib import Path
from typing import Iterable, Mapping

from repro.errors import StaleModelError
from repro.hw.description import MachineDescription
from repro.runtime.perfmodel import PerfModel

#: bump when the serialised model layout changes incompatibly
FORMAT_VERSION = 1


def machine_fingerprint(machine: MachineDescription) -> str:
    """Stable hash of the machine description (not its name).

    Any change to the unit layout, a device's calibrated figures
    (throughput, bandwidth, overheads, efficiencies, power), a device
    model's fidelity tier or knobs (SM limits, L1/L2 hit rates,
    instruction latencies), or a link's parameters yields a different
    fingerprint, which is what invalidates stored models: timings
    measured on a different machine description are not comparable.

    Devices without an attached model (the coarse default) fingerprint
    exactly as they always did, so store files written before the
    device-model layer existed remain valid for coarse machines.
    """
    desc = {
        "units": [
            {
                "unit_id": u.unit_id,
                "memory_node": u.memory_node,
                "device": {
                    "name": u.device.name,
                    "kind": u.device.kind.value,
                    "peak_gflops": u.device.peak_gflops,
                    "mem_bandwidth_gbs": u.device.mem_bandwidth_gbs,
                    "launch_overhead_s": u.device.launch_overhead_s,
                    "regular_efficiency": u.device.regular_efficiency,
                    "irregular_efficiency": u.device.irregular_efficiency,
                    "branchy_efficiency": u.device.branchy_efficiency,
                    "has_cache": u.device.has_cache,
                    "cores": u.device.cores,
                    "busy_watts": u.device.busy_watts,
                    "memory_bytes": u.device.memory_bytes,
                    # only present for devices with an explicit model, so
                    # pre-existing coarse fingerprints stay unchanged
                    **(
                        {
                            "model": {
                                "fidelity": u.device.model.fidelity,
                                "knobs": u.device.model.knobs(),
                            }
                        }
                        if u.device.model is not None
                        else {}
                    ),
                },
            }
            for u in machine.units
        ],
        "links": {
            str(node): {
                "bandwidth_gbs": link.bandwidth_gbs,
                "latency_s": link.latency_s,
                "duplex": link.duplex,
            }
            for node, link in sorted(machine.links.items())
        },
    }
    blob = json.dumps(desc, sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()[:16]


class PerfModelStore:
    """Per-machine repository of calibrated performance models.

    Parameters
    ----------
    root:
        Directory holding one ``<machine name>.json`` per machine
        (created on first save).
    """

    def __init__(self, root: str | Path) -> None:
        self.root = Path(root)

    def path_for(self, machine: MachineDescription) -> Path:
        safe = "".join(c if c.isalnum() or c in "-_." else "_" for c in machine.name)
        return self.root / f"{safe}.json"

    def has(self, machine: MachineDescription) -> bool:
        return self.path_for(machine).exists()

    # -- loading -----------------------------------------------------------

    def _read_payload(self, machine: MachineDescription) -> dict | None:
        path = self.path_for(machine)
        if not path.exists():
            return None
        try:
            payload = json.loads(path.read_text())
        except ValueError as exc:  # truncated or not JSON at all
            raise StaleModelError(
                f"store entry {path} is not valid JSON ({exc}); delete the "
                "file or recalibrate"
            ) from exc
        if not isinstance(payload, dict):
            raise StaleModelError(
                f"store entry {path} holds a JSON {type(payload).__name__}, "
                "not an object; delete the file or recalibrate"
            )
        if payload.get("format_version") != FORMAT_VERSION:
            raise StaleModelError(
                f"store entry {path} has format version "
                f"{payload.get('format_version')!r}, expected {FORMAT_VERSION}; "
                "recalibrate instead of reusing it"
            )
        fp = machine_fingerprint(machine)
        if payload.get("fingerprint") != fp:
            raise StaleModelError(
                f"store entry {path} was calibrated for a different machine "
                f"description (stored fingerprint {payload.get('fingerprint')!r}, "
                f"current {fp!r}); recalibrate instead of reusing it"
            )
        return payload

    def load(
        self, machine: MachineDescription, codelets: Iterable[str] | None = None
    ) -> PerfModel | None:
        """Load the calibrated model for ``machine``.

        Returns ``None`` when the store has no entry (cold machine);
        raises :class:`~repro.errors.StaleModelError` when the entry
        exists but its fingerprint or format version does not match.
        With ``codelets``, only those codelets' entries are loaded.
        """
        payload = self._read_payload(machine)
        if payload is None:
            return None
        wanted = None if codelets is None else set(codelets)
        model = PerfModel()
        for name, entry in payload.get("codelets", {}).items():
            if wanted is not None and name not in wanted:
                continue
            model.merge_from(PerfModel.from_dict(entry["model"]))
        return model

    def warm_model(
        self, machine: MachineDescription, codelets: Iterable[str] | None = None
    ) -> PerfModel:
        """Like :meth:`load` but a cold machine yields a fresh empty
        model, so callers can unconditionally hand the result to a
        :class:`~repro.runtime.runtime.Runtime`."""
        return self.load(machine, codelets) or PerfModel()

    def provenance(self, machine: MachineDescription) -> dict[str, dict]:
        """Per-codelet provenance recorded at save time."""
        payload = self._read_payload(machine)
        if payload is None:
            return {}
        return {
            name: dict(entry.get("provenance", {}))
            for name, entry in payload.get("codelets", {}).items()
        }

    # -- saving ------------------------------------------------------------

    def save(
        self,
        machine: MachineDescription,
        model: PerfModel,
        provenance: Mapping[str, Mapping] | None = None,
    ) -> Path:
        """Merge ``model`` into the machine's store entry, atomically.

        The incoming model is split per codelet (variants learned from
        footprints).  An existing *fresh* entry is re-read and merged
        key-by-key — concurrent experiments calibrating different
        codelets both survive; for shared keys the larger sample set
        wins.  An existing *stale* entry (old fingerprint or format) is
        replaced outright: saving fresh measurements is exactly how
        recalibration repairs staleness.

        ``provenance`` maps codelet names to JSON-compatible metadata
        (recorded per codelet, replacing prior provenance).
        """
        self.root.mkdir(parents=True, exist_ok=True)
        path = self.path_for(machine)
        try:
            existing = self._read_payload(machine)
        except StaleModelError:
            existing = None  # stale entries are replaced, never merged
        payload = existing or {
            "format_version": FORMAT_VERSION,
            "machine": machine.name,
            "fingerprint": machine_fingerprint(machine),
            "codelets": {},
        }
        entries: dict[str, dict] = payload["codelets"]
        groups = set(model.codelets())
        if model.unmapped_variants():
            groups.add("")  # observations whose footprint named no codelet
        for codelet in sorted(groups):
            sub = model.subset_for_codelets({codelet})
            prior = entries.get(codelet)
            if prior is not None:
                merged = PerfModel.from_dict(prior["model"])
                merged.merge_from(sub)
                sub = merged
            entry = {"model": sub.to_dict()}
            prov = dict((provenance or {}).get(codelet, {}))
            if not prov and prior is not None:
                prov = dict(prior.get("provenance", {}))
            entry["provenance"] = prov
            if prior is not None and "dispatch_table" in prior:
                entry["dispatch_table"] = prior["dispatch_table"]
            entries[codelet] = entry
        self._write_atomic(path, payload)
        return path

    # -- dispatch tables (static composition) ------------------------------

    def save_dispatch_table(self, machine: MachineDescription, table) -> Path:
        """Persist a trained :class:`~repro.composer.static_comp.DispatchTable`
        under its interface's codelet entry (atomically, merge-on-save
        like :meth:`save`; the stale-replacement rule is the same)."""
        self.root.mkdir(parents=True, exist_ok=True)
        path = self.path_for(machine)
        try:
            existing = self._read_payload(machine)
        except StaleModelError:
            existing = None
        payload = existing or {
            "format_version": FORMAT_VERSION,
            "machine": machine.name,
            "fingerprint": machine_fingerprint(machine),
            "codelets": {},
        }
        entry = payload["codelets"].setdefault(
            table.interface_name, {"model": PerfModel().to_dict(), "provenance": {}}
        )
        entry["dispatch_table"] = {
            "interface_name": table.interface_name,
            "entries": [
                {
                    "scenario": dict(e.scenario),
                    "variant": e.variant,
                    "predicted_time": e.predicted_time,
                    "all_predictions": [list(p) for p in e.all_predictions],
                }
                for e in table.entries
            ],
        }
        self._write_atomic(path, payload)
        return path

    def load_dispatch_table(self, machine: MachineDescription, interface_name: str):
        """The stored dispatch table for one component, or ``None``.

        Stale entries raise :class:`~repro.errors.StaleModelError`, same
        as :meth:`load`.
        """
        from repro.components.context import ContextInstance
        from repro.composer.static_comp import DispatchEntry, DispatchTable

        payload = self._read_payload(machine)
        if payload is None:
            return None
        entry = payload.get("codelets", {}).get(interface_name)
        if entry is None or "dispatch_table" not in entry:
            return None
        raw = entry["dispatch_table"]
        table = DispatchTable(interface_name=raw["interface_name"])
        for e in raw["entries"]:
            table.entries.append(
                DispatchEntry(
                    scenario=ContextInstance(e["scenario"]),
                    variant=e["variant"],
                    predicted_time=e["predicted_time"],
                    all_predictions=tuple(
                        (name, t) for name, t in e["all_predictions"]
                    ),
                )
            )
        return table

    @staticmethod
    def _write_atomic(path: Path, payload: dict) -> None:
        text = json.dumps(payload, indent=1, sort_keys=True)
        fd, tmp = tempfile.mkstemp(
            dir=path.parent, prefix=path.name + ".", suffix=".tmp"
        )
        try:
            with os.fdopen(fd, "w") as fh:
                fh.write(text)
            os.replace(tmp, path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise

    # -- maintenance -------------------------------------------------------

    def invalidate(self, machine: MachineDescription) -> bool:
        """Drop the machine's entry (fresh or stale); True if one existed."""
        path = self.path_for(machine)
        if path.exists():
            path.unlink()
            return True
        return False

    def machines(self) -> list[str]:
        """Machine names with a store entry (whatever their freshness)."""
        if not self.root.exists():
            return []
        out = []
        for p in sorted(self.root.glob("*.json")):
            try:
                payload = json.loads(p.read_text())
            except (OSError, ValueError):
                continue
            if isinstance(payload, dict):
                out.append(payload.get("machine", p.stem))
        return out
