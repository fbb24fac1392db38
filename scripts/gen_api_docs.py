#!/usr/bin/env python
"""Generate docs/API.md from the package's docstrings.

Walks every public symbol exported by the repro subpackages and renders a
compact markdown API reference: module summaries, class/function
signatures, and first-paragraph docstrings.

Run:  python scripts/gen_api_docs.py   (rewrites docs/API.md)
"""

from __future__ import annotations

import importlib
import inspect
from pathlib import Path

PACKAGES = [
    "repro.graphs",
    "repro.covers",
    "repro.sim",
    "repro.obs",
    "repro.faults",
    "repro.protocols",
    "repro.core",
    "repro.synch",
    "repro.control",
    "repro.experiments",
    "repro.analysis",
    "repro.replay",
]


def first_paragraph(doc: str | None) -> str:
    if not doc:
        return "(undocumented)"
    para = doc.strip().split("\n\n")[0]
    return " ".join(line.strip() for line in para.splitlines())


def signature_of(obj) -> str:
    try:
        return str(inspect.signature(obj))
    except (ValueError, TypeError):
        return "(...)"


def render_symbol(name: str, obj) -> list[str]:
    lines = []
    if inspect.isclass(obj):
        lines.append(f"#### class `{name}`")
        lines.append("")
        lines.append(first_paragraph(obj.__doc__))
        methods = [
            (m, fn) for m, fn in inspect.getmembers(obj, inspect.isfunction)
            if not m.startswith("_") and fn.__qualname__.startswith(obj.__name__)
        ]
        for m, fn in sorted(methods):
            lines.append(f"- `{m}{signature_of(fn)}` — "
                         f"{first_paragraph(fn.__doc__)}")
    elif inspect.isfunction(obj):
        lines.append(f"#### `{name}{signature_of(obj)}`")
        lines.append("")
        lines.append(first_paragraph(obj.__doc__))
    else:
        lines.append(f"#### `{name}`")
        lines.append("")
        lines.append(first_paragraph(getattr(obj, "__doc__", None))
                     if not isinstance(obj, (int, float, str)) else
                     f"constant = `{obj!r}`")
    lines.append("")
    return lines


def main() -> None:
    out = [
        "# API reference",
        "",
        "Generated from docstrings by `scripts/gen_api_docs.py`; "
        "regenerate after changing public signatures.",
        "",
    ]
    for pkg_name in PACKAGES:
        pkg = importlib.import_module(pkg_name)
        out.append(f"## `{pkg_name}`")
        out.append("")
        out.append(first_paragraph(pkg.__doc__))
        out.append("")
        for name in getattr(pkg, "__all__", []):
            obj = getattr(pkg, name)
            # Skip symbols documented under their defining subpackage class.
            out.extend(render_symbol(name, obj))
    path = Path(__file__).resolve().parent.parent / "docs" / "API.md"
    path.write_text("\n".join(out) + "\n")
    print(f"wrote {path} ({len(out)} lines)")


if __name__ == "__main__":
    main()
