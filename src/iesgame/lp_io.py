"""LP-format model writer.

`write_lp` emits variables and rows in declaration order with
shortest-round-trip float formatting, so identical models produce
byte-identical files: the text serves as a fingerprint of a model.
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
    lines.append("Maximize")
    obj = [(names[j], c) for j, c in zip(m.obj_cols, m.obj_coefs) if c != 0.0]
    lines.append(" obj: " + (_expr(obj) if obj else "0 " + names[0]))
    if m.obj_const:
        lines[0] += (f"  (objective constant {_fmt(m.obj_const)}: "
                     "the offset that obj: leaves out)")
    lines.append("Subject To")
    indptr, indices, data = m.a.indptr, m.a.indices, m.a.data
    for r, row_name in enumerate(m.row_index):
        lo, up = m.row_lower[r], m.row_upper[r]
        if lo == -math.inf and up == math.inf:
            continue  # a row with no bound constrains nothing
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
