"""LP-format model writer and solution-file parser.

The writer emits variables and rows in declaration order with
shortest-round-trip float formatting, so identical models produce
byte-identical files. The parser accepts plain "name value" lines and
skips anything else, which covers the header/comment noise that
different solvers put at the top of their solution files.
"""
from __future__ import annotations

import math
from collections.abc import Iterable

from .model_ir import CompiledModel, ModelIR, as_compiled


def _fmt(x: float) -> str:
    if x == int(x) and abs(x) < 1e16:
        return str(int(x))
    return repr(float(x))


def _expr(terms: Iterable[tuple[str, float]]) -> str:
    parts = []
    for var, coef in terms:
        sign = "-" if coef < 0 else "+"
        if not parts and sign == "+":
            parts.append(f"{_fmt(coef)} {var}")
        else:
            parts.append(f"{sign} {_fmt(abs(coef))} {var}")
    return " ".join(parts)


def write_lp(model: ModelIR | CompiledModel) -> str:
    """Serialize a model, compiled first if needed, to CPLEX LP text."""
    m = as_compiled(model)
    names = m.var_names
    lines = [f"\\ {m.name}"]
    lines.append("Maximize" if m.sense == "max" else "Minimize")
    obj = [(names[j], c) for j, c in zip(m.obj_cols, m.obj_coefs) if c != 0.0]
    lines.append(" obj: " + (_expr(obj) if obj else "0 " + names[0]))
    if m.obj_const:
        lines[0] += f"  (objective constant {_fmt(m.obj_const)} applied on read-back)"
    lines.append("Subject To")
    indptr, indices, data = m.a.indptr, m.a.indices, m.a.data
    for r, row_name in enumerate(m.row_index):
        lo, up = m.row_lower[r], m.row_upper[r]
        if lo == up:
            op, rhs = "=", lo
        elif lo == -math.inf:
            op, rhs = "<=", up
        else:
            op, rhs = ">=", lo
        terms = ((names[j], coef) for j, coef
                 in zip(indices[indptr[r]:indptr[r + 1]],
                        data[indptr[r]:indptr[r + 1]]))
        lines.append(f" {row_name}: {_expr(terms)} {op} {_fmt(rhs)}")
    lines.append("Bounds")
    for j, name in enumerate(names):
        if m.integrality[j]:
            continue
        lines.append(f" {_fmt(m.col_lower[j])} <= {name} <= {_fmt(m.col_upper[j])}")
    binaries = [name for j, name in enumerate(names) if m.integrality[j]]
    if binaries:
        lines.append("Binaries")
        for name in binaries:
            lines.append(f" {name}")
    lines.append("End")
    return "\n".join(lines) + "\n"


def parse_solution(text: str, known: set[str] | None = None) -> dict[str, float]:
    """Extract variable values from solver solution text.

    Lines that are not "<name> <number>" pairs (status banners, comments,
    objective summaries and the like) are ignored. When `known` is given,
    names outside it are dropped as well.
    """
    values: dict[str, float] = {}
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line[0] in "#*\\/;":
            continue
        tokens = line.replace("=", " ").split()
        if len(tokens) < 2:
            continue
        name = tokens[0]
        try:
            value = float(tokens[-1])
        except ValueError:
            continue
        if known is not None and name not in known:
            continue
        values[name] = value
    return values
