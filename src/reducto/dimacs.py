"""DIMACS CNF parsing and canonical emission."""

from __future__ import annotations

import warnings

from .sat import Formula, clause


class DimacsError(ValueError):
    """Malformed DIMACS input."""


class DimacsWarning(UserWarning):
    """Recoverable DIMACS irregularity (e.g. clause count mismatch)."""


def parse_dimacs(text: str, strict: bool = False) -> Formula:
    """Parse DIMACS CNF text into a canonical Formula.

    Comment lines start with ``c``; the header is ``p cnf <vars> <clauses>``;
    clauses are 0-terminated integer lists that may span lines.  A line
    starting with ``%`` ends the input, as in SATLIB's benchmark files.
    Duplicate literals inside a clause collapse; a clause holding both ``k``
    and ``-k`` is rejected.  A clause count that disagrees with the header,
    or a variable above the header's count, raises in strict mode and warns
    otherwise.
    """
    header: tuple[int, int] | None = None
    clauses: list[tuple[int, ...]] = []
    buf: list[int] = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("c"):
            continue
        if stripped.startswith("%"):
            break
        if header is None:
            parts = stripped.split()
            if len(parts) != 4 or parts[0] != "p" or parts[1] != "cnf":
                raise DimacsError(f"line {lineno}: expected 'p cnf <vars> <clauses>' header")
            try:
                nvars, nclauses = int(parts[2]), int(parts[3])
            except ValueError as exc:
                raise DimacsError(f"line {lineno}: non-integer header field") from exc
            if nvars < 0 or nclauses < 0:
                raise DimacsError(f"line {lineno}: negative header field")
            header = (nvars, nclauses)
            continue
        for tok in stripped.split():
            try:
                lit = int(tok)
            except ValueError as exc:
                raise DimacsError(f"line {lineno}: non-integer token {tok!r}") from exc
            if lit == 0:
                try:
                    clauses.append(clause(buf))
                except ValueError as exc:
                    raise DimacsError(f"line {lineno}: {exc}") from exc
                buf = []
            else:
                buf.append(lit)
    if header is None:
        raise DimacsError("missing 'p cnf' header")
    if buf:
        raise DimacsError("unterminated clause at end of input")
    irregular = []
    if len(clauses) != header[1]:
        irregular.append(f"header declares {header[1]} clauses but input has {len(clauses)}")
    # A canonical clause ends with its largest variable.
    top = max((abs(c[-1]) for c in clauses if c), default=0)
    if top > header[0]:
        irregular.append(f"header declares {header[0]} variables but input uses variable {top}")
    for msg in irregular:
        if strict:
            raise DimacsError(msg)
        warnings.warn(msg, DimacsWarning)
    return Formula(clauses)


def emit_dimacs(phi: Formula) -> str:
    """Canonical emission: sorted clauses, one per line, 0-terminated."""
    nvars = max(phi.variables, default=0)
    lines = [f"p cnf {nvars} {len(phi.clauses)}"]
    for c in phi.clauses:
        lines.append(" ".join(str(l) for l in c) + (" 0" if c else "0"))
    return "\n".join(lines) + "\n"
