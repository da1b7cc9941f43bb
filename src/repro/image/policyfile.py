"""The operation policy file (§4.3).

"Finally, OPEC-Compiler generates a policy file that contains
accessible resources of each operation."  This module serialises a
build's policy — operations, their functions, resource dependencies,
variable placement, MPU templates, relocation slots — to a JSON
document and validates it back, so a build can be inspected, diffed,
and audited outside the Python process.
"""

from __future__ import annotations

import json
from typing import Any

from ..partition.policy import SystemPolicy
from .linker import OpecImage


def policy_document(image: OpecImage) -> dict[str, Any]:
    """Build the JSON-serialisable policy document for one image."""
    policy: SystemPolicy = image.policy
    operations = []
    for operation in policy.operations:
        layout = image.layout_of(operation)
        operations.append({
            "index": operation.index,
            "entry": operation.entry.name,
            "default": operation.is_default,
            "functions": sorted(f.name for f in operation.functions),
            "globals": {
                "internal": sorted(
                    g.name for g in policy.internal_vars(operation)),
                "external": sorted(
                    g.name for g in policy.external_vars(operation)),
            },
            "peripheral_windows": [
                {
                    "base": f"0x{w.base:08X}",
                    "size": w.size,
                    "peripherals": [p.name for p in w.peripherals],
                }
                for w in operation.windows
            ],
            "core_peripherals": sorted(
                p.name for p in operation.resources.core_peripherals),
            "stack_info": {
                str(index): size
                for index, size in sorted(operation.stack_info.items())
            },
            "sanitize": {
                g.name: list(g.sanitize_range)
                for g in policy.external_vars(operation)
                if g.sanitize_range is not None
            },
            "data_section": {
                "base": f"0x{layout.section.base:08X}",
                "size": layout.section.size,
            },
            "mpu_regions": [
                {
                    "number": t.number,
                    "base": f"0x{t.base:08X}",
                    "size": t.size,
                    "priv": t.priv,
                    "unpriv": t.unpriv,
                }
                for t in layout.templates
            ],
            "uses_heap": layout.uses_heap,
        })
    return {
        "format": "opec-policy-v1",
        "module": image.module.name,
        "board": image.board.name,
        "operations": operations,
        "relocation_table": {
            name: f"0x{slot:08X}"
            for name, slot in sorted(image.reloc_slots.items(),
                                     key=lambda kv: kv[1])
        },
        "public_data": {
            name: f"0x{addr:08X}"
            for name, addr in sorted(image.public_addresses.items(),
                                     key=lambda kv: kv[1])
        },
        "memory": {
            "stack_base": f"0x{image.stack_base:08X}",
            "stack_size": image.stack_size,
            "heap_base": f"0x{image.heap_base:08X}",
            "heap_size": image.heap_size,
            "zone_base": f"0x{image.zone_start:08X}",
            "zone_size": image.zone_size,
        },
    }


def dump_policy(image: OpecImage, indent: int = 2) -> str:
    """Render the policy file as JSON text."""
    return json.dumps(policy_document(image), indent=indent)


def write_policy(image: OpecImage, path: str) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(dump_policy(image))
        handle.write("\n")


class PolicyValidationError(Exception):
    """A policy document is inconsistent with the image it claims."""


def validate_policy(document: dict[str, Any], image: OpecImage) -> None:
    """Cross-check a (possibly externally edited) document against an
    image; raises :class:`PolicyValidationError` on any mismatch."""
    errors: list[str] = []
    if document.get("format") != "opec-policy-v1":
        errors.append("unknown policy format")
    if document.get("module") != image.module.name:
        errors.append("module name mismatch")
    ops = document.get("operations", [])
    if len(ops) != len(image.policy.operations):
        errors.append("operation count mismatch")
    for entry in ops:
        try:
            operation = image.policy.operation_by_entry(entry["entry"])
        except KeyError:
            errors.append(f"unknown operation {entry.get('entry')!r}")
            continue
        expected = sorted(f.name for f in operation.functions)
        if entry.get("functions") != expected:
            errors.append(f"function set mismatch for {operation.name}")
        externals = sorted(
            g.name for g in image.policy.external_vars(operation))
        if entry.get("globals", {}).get("external") != externals:
            errors.append(f"external set mismatch for {operation.name}")
    slots = document.get("relocation_table", {})
    if len(slots) != len(image.reloc_slots):
        errors.append("relocation table size mismatch")
    if errors:
        raise PolicyValidationError("; ".join(errors))


def load_policy(text: str) -> dict[str, Any]:
    document = json.loads(text)
    if document.get("format") != "opec-policy-v1":
        raise PolicyValidationError("unknown policy format")
    return document
