"""Render findings as text or JSON — byte-identical for equal inputs.

Both reporters consume findings in their canonical order and contain no
wall clocks, absolute paths beyond what the caller passed, or
environment-dependent content, so the acceptance property "two runs over
the same tree emit the same bytes" holds by construction.
"""

from __future__ import annotations

from typing import Sequence

from repro.analysis.findings import Finding
from repro.specio import canonical_text

__all__ = ["REPORT_VERSION", "render_text", "render_json"]

#: Version of the JSON report layout.
REPORT_VERSION = 1


def render_text(findings: Sequence[Finding], *, files_linted: int) -> str:
    """The human report: one line per finding plus a summary line."""
    lines = [finding.render() for finding in sorted(findings)]
    noun = "finding" if len(findings) == 1 else "findings"
    lines.append(f"{len(findings)} {noun} in {files_linted} file(s) linted")
    return "\n".join(lines)


def render_json(findings: Sequence[Finding], *, files_linted: int) -> str:
    """The machine report: a canonical JSON document."""
    payload = {
        "version": REPORT_VERSION,
        "files_linted": files_linted,
        "count": len(findings),
        "findings": [finding.to_dict() for finding in sorted(findings)],
    }
    return canonical_text(payload)
