"""Solver-agnostic mixed-integer program representation.

A model is held array-first: its columns as a name list, a name->index
map and growing bound and binary arrays, its rows as COO triplets stored
row by row, plus each row's name, sense and right-hand side. `add_block`
adds a family of columns and `add_rows` families of rows, interleaved
period by period, checking names and bounds once, as arrays;
`add_row_list` adds rows given one by one, and `add_variable` and
`add_row` add one, with the same checks. Columns, rows
and each row's coefficients keep their insertion order, which makes
serialized models byte-stable across runs. A row may name only variables
declared before it; `validate` rejects any other name.

The objective is linear plus diagonal quadratic plus piecewise-linear
terms; `lower_pwl` rewrites all PWL terms, as one block, into the
incremental (delta) form: one bounded column per segment, priced at the
segment's slope, and one row per term tying their sum to the variable.
It needs no binaries because every term's curvature matches the
optimization sense, so the optimum fills the segments in order.

`ModelIR.compile` is the one lowering from a model to arrays: the
backend and the LP writer read the `CompiledModel` it returns. A
compiled model can be re-solved with other right-hand sides
(`CompiledModel.with_rhs`) without building the model again.
"""
from __future__ import annotations

import copy
import math
from collections.abc import Sequence
from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np
from scipy import sparse

SENSES = ("<=", ">=", "==")


class Variable(NamedTuple):  # a column, as `ModelIR.variables` reads it
    name: str
    lb: float
    ub: float
    binary: bool = False


class LinearRow(NamedTuple):  # a row, as `ModelIR.rows` reads it
    name: str
    coeffs: dict[str, float]
    sense: str
    rhs: float


@dataclass(frozen=True)
class QuadObjTerm:
    """Objective contribution coef * var^2."""

    var: str
    coef: float


@dataclass(frozen=True)
class PwlObjTerm:
    """Objective contribution interpolating `values` at `breakpoints` of var."""

    var: str
    breakpoints: tuple[float, ...]
    values: tuple[float, ...]

    def __post_init__(self):
        if len(self.breakpoints) != len(self.values) or len(self.breakpoints) < 2:
            raise ValueError("need matching breakpoints/values, at least two")
        if any(b2 <= b1 for b1, b2 in zip(self.breakpoints, self.breakpoints[1:])):
            raise ValueError("breakpoints must be strictly increasing")


@dataclass(frozen=True)
class CompiledModel:
    """A PWL-lowered, linear-objective model as solver arrays.

    Columns follow the variables' and rows the rows' insertion order; the
    coefficients of each row of `a` keep the order they were given in, so
    the LP writer renders the same text as from the model. `c` is the
    objective in the model's own sense. The dense arrays are read-only:
    copies made by `with_rhs`, `without_lower` and `relaxed` share every
    array they do not change.
    """

    name: str
    sense: str
    var_names: list[str]
    c: np.ndarray
    a: sparse.csr_matrix
    row_lower: np.ndarray
    row_upper: np.ndarray
    col_lower: np.ndarray
    col_upper: np.ndarray
    integrality: np.ndarray
    row_index: dict[str, int]
    obj_const: float
    # the objective's columns and coefficients in insertion order, so
    # that `objective` sums its terms in the same order as the model
    obj_cols: tuple[int, ...]
    obj_coefs: tuple[float, ...]

    def objective(self, x: list[float]) -> float:
        """Objective at a point given as one float per column."""
        total = self.obj_const
        total += sum(c * x[j] for j, c in zip(self.obj_cols, self.obj_coefs))
        return total

    def with_rhs(self, rows: np.ndarray, rhs: np.ndarray) -> "CompiledModel":
        """Copy whose equality rows `rows` (indices) have right-hand
        sides `rhs`."""
        if np.any(self.row_lower[rows] != self.row_upper[rows]):
            raise ValueError("only equality rows can take a new right-hand side")
        lower, upper = self.row_lower.copy(), self.row_upper.copy()
        lower[rows] = rhs
        upper[rows] = rhs
        return replace(self, row_lower=_read_only(lower),
                       row_upper=_read_only(upper))

    def without_lower(self, rows: list[int]) -> "CompiledModel":
        """Copy whose rows `rows` (indices) have no lower bound."""
        lower = self.row_lower.copy()
        lower[rows] = -math.inf
        return replace(self, row_lower=_read_only(lower))

    def relaxed(self) -> "CompiledModel":
        """Copy with every integrality requirement dropped."""
        return replace(self, integrality=_read_only(
            np.zeros_like(self.integrality)))


def as_compiled(model: "ModelIR | CompiledModel") -> CompiledModel:
    return model if isinstance(model, CompiledModel) else model.compile()


def _read_only(arr: np.ndarray) -> np.ndarray:
    arr.flags.writeable = False
    return arr


class ModelIR:
    """A named-variable LP/MILP with optional quadratic and PWL objective terms."""

    def __init__(self, name: str = "model", sense: str = "max"):
        if sense not in ("max", "min"):
            raise ValueError("sense must be 'max' or 'min'")
        self.name = name
        self.sense = sense
        # columns: names, index by name, bound and binary arrays whose first
        # len(_names) entries are set; rows: index by name, sense (index into
        # SENSES) and rhs arrays, and the first _nnz entries of the COO
        # triplets, stored row by row. Every array doubles when full.
        self._names: list[str] = []
        self._col: dict[str, int] = {}
        self._lb, self._ub, self._binary = np.empty(0), np.empty(0), np.empty(0, bool)
        self._row_index: dict[str, int] = {}
        self._sense, self._rhs = np.empty(0, np.int8), np.empty(0)
        self._coo_row, self._coo_col = np.empty(0, np.int64), np.empty(0, np.int64)
        self._coo_val, self._nnz = np.empty(0), 0
        self._dangling: list[tuple[str, str]] = []  # (row, undeclared variable)
        self.obj_linear: dict[str, float] = {}
        self.obj_quad: list[QuadObjTerm] = []
        self.obj_pwl: list[PwlObjTerm] = []
        self.obj_const: float = 0.0

    # -- construction -------------------------------------------------

    def add_block(self, prefix: str, n: int, lb, ub, binary: bool = False) -> list[str]:
        """Add the family `{prefix}_0` ... `{prefix}_{n-1}` with bounds `lb`,
        `ub` (numbers, or one per column); returns its names."""
        return self.add_columns([f"{prefix}_{i}" for i in range(n)], lb, ub, binary)

    def add_columns(self, names: list[str], lb, ub, binary: bool = False) -> list[str]:
        """Add one column per name, with bounds `lb`, `ub` (numbers, or one
        per name), checked once for the whole list: no name declared twice,
        empty or holding whitespace, every bound finite and lb <= ub."""
        n = len(names)
        lb, ub = np.full(n, lb, dtype=float), np.full(n, ub, dtype=float)
        _refuse_duplicate("variable", self._col, names)
        joined = "".join(names)  # whitespace-free exactly when every name is
        if not all(names) or (joined and joined.split() != [joined]):
            bad = next(x for x in names if x.split() != [x])
            raise ValueError(f"bad variable name {bad!r}")
        finite = np.isfinite(lb) & np.isfinite(ub)
        if not finite.all():
            raise ValueError(f"variable {names[np.argmin(finite)]} needs finite bounds")
        if (lb > ub).any():
            i = int(np.argmax(lb > ub))
            raise ValueError(f"variable {names[i]}: lb {lb[i]} > ub {ub[i]}")
        start = len(self._names)
        self._names.extend(names)
        self._col.update(zip(names, range(start, start + n)))
        self._lb = _append(self._lb, start, lb)
        self._ub = _append(self._ub, start, ub)
        self._binary = _append(self._binary, start, np.full(n, binary))
        return names

    def add_variable(self, name: str, lb: float, ub: float,
                     binary: bool = False) -> str:
        return self.add_columns([name], lb, ub, binary)[0]

    def add_rows(self, n: int, families: Sequence[tuple[str, list, str, object]]) -> None:
        """Add `n` rows to each family `(prefix, terms, sense, rhs)`, period
        by period: row t of every family, in the order given, then row t+1.
        Row t of a family is `{prefix}_{t}`; each term `(names, coef)` gives
        it the coefficient coef (a number, or coef[t]) on names[t], in the
        order of the terms. `rhs` is a number or one per row. Zero
        coefficients are dropped, as by `add_row`."""
        if not families:
            return
        width = max(len(terms) for _, terms, _, _ in families)
        cols = np.zeros((n, len(families), width), dtype=np.int64)
        vals = np.zeros((n, len(families), width))
        senses = np.empty((n, len(families)), dtype=np.int8)
        rhs = np.empty((n, len(families)))
        for f, (prefix, terms, sense, b) in enumerate(families):
            rows = [f"{prefix}_{t}" for t in range(n)]
            senses[:, f], rhs[:, f] = _sense_code(rows[0], sense), b
            for k, (names, coef) in enumerate(terms):
                cols[:, f, k], vals[:, f, k] = self._ids(names, rows), coef
        self._add_rows([f"{fam[0]}_{t}" for t in range(n) for fam in families],
                       cols.reshape(-1, width), vals.reshape(-1, width),
                       senses.ravel(), rhs.ravel())

    def add_row(self, name: str, coeffs: dict[str, float], sense: str,
                rhs: float) -> None:
        self.add_row_list([(name, coeffs, sense, rhs)])

    def add_row_list(self, rows: Sequence[tuple[str, dict[str, float], str, float]]
                     ) -> None:
        """Add rows given one by one as (name, coeffs, sense, rhs), in one
        call, with `add_row`'s checks."""
        names = [row[0] for row in rows]
        width = max((len(coeffs) for _, coeffs, _, _ in rows), default=0)
        cols, vals = np.zeros((len(rows), width), np.int64), np.zeros((len(rows), width))
        for i, (name, coeffs, _, _) in enumerate(rows):
            cols[i, :len(coeffs)] = self._ids(list(coeffs), [name] * len(coeffs))
            vals[i, :len(coeffs)] = list(coeffs.values())
        self._add_rows(names, cols, vals,
                       [_sense_code(name, sense) for name, _, sense, _ in rows],
                       [row[3] for row in rows])

    def _ids(self, names: list[str], rows: list[str]) -> list[int]:
        """Columns of `names`; an undeclared one (-1) is kept as dangling."""
        ids = [self._col.get(v, -1) for v in names]
        if -1 in ids:
            self._dangling += [(r, v) for r, v in zip(rows, names) if v not in self._col]
        return ids

    def _add_rows(self, names: list[str], cols: np.ndarray, vals: np.ndarray,
                  senses, rhs) -> None:
        """Append the rows `names`: row i has coefficients vals[i] on the
        columns cols[i], zeros dropped, sense code senses[i] and rhs[i]."""
        _refuse_duplicate("row", self._row_index, names)
        keep = vals != 0.0
        lengths = keep.sum(axis=1)
        if not lengths.all():
            raise ValueError(f"row {names[int(np.argmin(lengths))]} reduces to a constant")
        start, m = len(self._row_index), len(names)
        self._row_index.update(zip(names, range(start, start + m)))
        self._sense = _append(self._sense, start, senses)
        self._rhs = _append(self._rhs, start, rhs)
        rows = np.repeat(np.arange(start, start + m), lengths)
        self._coo_row = _append(self._coo_row, self._nnz, rows)
        self._coo_col = _append(self._coo_col, self._nnz, cols[keep])
        self._coo_val = _append(self._coo_val, self._nnz, vals[keep])
        self._nnz += len(rows)

    def add_obj_linear(self, var: str, coef: float) -> None:
        self.obj_linear[var] = self.obj_linear.get(var, 0.0) + coef

    def add_obj_quad(self, var: str, coef: float) -> None:
        if coef != 0.0:
            self.obj_quad.append(QuadObjTerm(var, coef))

    def add_obj_pwl(self, term: PwlObjTerm) -> None:
        self.obj_pwl.append(term)

    # -- queries ------------------------------------------------------

    @property
    def variables(self) -> dict[str, Variable]:
        """Every column's `Variable`, by name, in insertion order; built
        on each access (`bounds` reads one column's)."""
        return {name: Variable(name, *rest) for name, *rest in zip(
            self._names, self._lb.tolist(), self._ub.tolist(), self._binary.tolist())}

    def bounds(self, name: str) -> tuple[float, float]:
        j = self._col[name]
        return float(self._lb[j]), float(self._ub[j])

    @property
    def rows(self) -> list[LinearRow]:
        """Every row, in insertion order, read back from the arrays."""
        names, m, nnz = self._names, len(self._row_index), self._nnz
        cols, vals = self._coo_col[:nnz].tolist(), self._coo_val[:nnz].tolist()
        ptr = self._indptr().tolist()
        return [LinearRow(r, {names[j]: v for j, v in zip(cols[s:e], vals[s:e])},
                          SENSES[k], b)
                for r, s, e, k, b in zip(self._row_index, ptr, ptr[1:],
                                         self._sense[:m].tolist(), self._rhs[:m].tolist())]

    @property
    def binary_names(self) -> list[str]:
        return [n for n, b in zip(self._names, self._binary.tolist()) if b]

    def validate(self) -> None:
        """Reject dangling references; bounds are checked at declaration."""
        for row, var in self._dangling[:1]:
            raise ValueError(f"row {row} references unknown variable {var}")
        for var in self.obj_linear:
            if var not in self._col:
                raise ValueError(f"objective references unknown variable {var}")
        for term in self.obj_quad:
            if term.var not in self._col:
                raise ValueError(f"quadratic term on unknown variable {term.var}")
        for term in self.obj_pwl:
            if term.var not in self._col:
                raise ValueError(f"PWL term on unknown variable {term.var}")

    def _indptr(self) -> np.ndarray:
        """Each row's first entry in the COO arrays, then their length."""
        lengths = np.bincount(self._coo_row[:self._nnz], minlength=len(self._row_index))
        return np.concatenate(([0], np.cumsum(lengths)))

    # -- lowering -----------------------------------------------------

    def lower_pwl(self) -> "ModelIR":
        """Expand PWL objective terms into incremental (delta) columns.

        A term idx with breakpoints b_0 < ... < b_K and values f_k becomes
        K columns `pwl_d_{idx}_{var}_{k}` in [0, b_{k+1} - b_k], each with
        the segment's slope as objective coefficient, one row
        `pwl_link_{idx}_{var}: sum_k d_k - var == -b_0`, and f_0 added to
        `obj_const`. The columns of all terms enter as one block, then
        their rows. No binaries are needed to fill the segments in order
        when each term's value sequence is concave for a max sense (convex
        for min): the slopes then fall (rise) with k, so an optimum never
        takes a later segment before an earlier one is full. Violating
        terms raise, since silently lowering them would change the model.
        """
        if not self.obj_pwl:
            return self
        self.validate()
        terms = self.obj_pwl
        counts = np.array([len(term.breakpoints) for term in terms])
        bps = np.concatenate([term.breakpoints for term in terms])
        vals = np.concatenate([term.values for term in terms])
        firsts = np.cumsum(counts) - counts
        owner = np.repeat(np.arange(len(terms)), counts - 1)  # each segment's term
        within = np.ones(len(bps) - 1, dtype=bool)  # steps inside one term
        within[firsts[1:] - 1] = False
        widths = np.diff(bps)[within]
        slopes = np.diff(vals)[within] / widths
        # curvature, all terms at once: within a term the slopes must not
        # rise (max) or fall (min), beyond 1e-9 of its largest |value|
        turns = owner[1:] == owner[:-1]
        rise = np.diff(slopes)[turns] * (1.0 if self.sense == "max" else -1.0)
        scale = np.maximum(1.0, np.maximum.reduceat(np.abs(vals), firsts))
        bad = owner[1:][turns]
        bad = bad[rise > 1e-9 * scale[bad]]
        if bad.size:
            shape, goal = (("concave", "maximization") if self.sense == "max"
                           else ("convex", "minimization"))
            raise ValueError(f"PWL term on {terms[bad[0]].var} is not {shape}; "
                             f"{goal} would need adjacency binaries")
        out = copy.copy(self)
        for attr, value in vars(self).items():
            if hasattr(value, "copy"):  # lists, dicts and arrays; not strings or numbers
                setattr(out, attr, value.copy())
        out.obj_pwl = []
        deltas = out.add_columns([f"pwl_d_{idx}_{term.var}_{k}"
                                  for idx, term in enumerate(terms)
                                  for k in range(len(term.breakpoints) - 1)],
                                 0.0, widths)
        out.obj_linear.update(zip(deltas, slopes.tolist()))
        # link row idx: its segments' columns, then the variable, then padding
        segs, pos = counts - 1, np.arange(counts.max())
        seg_cols = len(out._names) - len(deltas) + firsts - np.arange(len(terms))
        var_cols = np.array([out._col[term.var] for term in terms])
        is_seg = pos < segs[:, None]
        out._add_rows([f"pwl_link_{idx}_{term.var}" for idx, term in enumerate(terms)],
                      np.where(is_seg, seg_cols[:, None] + pos, var_cols[:, None]),
                      np.where(is_seg, 1.0, np.where(pos == segs[:, None], -1.0, 0.0)),
                      np.full(len(terms), SENSES.index("==")), -bps[firsts])
        for term in terms:
            out.obj_const += term.values[0]
        return out

    def compile(self) -> CompiledModel:
        """Lower to solver arrays, expanding the PWL terms first.

        Quadratic objective terms are rejected: the MILP backend takes none.
        A model that `lower_pwl` rewrote was validated there; one without
        PWL terms is validated here. The CSR matrix takes the COO entries
        as stored, so each row keeps the order its coefficients were given
        in.
        """
        ir = self.lower_pwl()
        if ir.obj_quad:
            raise ValueError("compiled models take linear objectives only; "
                             "apply the PWL approximation first")
        if ir is self:
            ir.validate()
        n, m = len(ir._names), len(ir._row_index)
        obj_cols = tuple(ir._col[v] for v in ir.obj_linear)
        obj_coefs = tuple(ir.obj_linear.values())
        c = np.zeros(n)
        c[list(obj_cols)] = obj_coefs
        a = sparse.csr_matrix((ir._coo_val[:ir._nnz].copy(), ir._coo_col[:ir._nnz].copy(),
                               ir._indptr()), shape=(m, n))
        sense, rhs = ir._sense[:m], ir._rhs[:m]
        return CompiledModel(
            name=ir.name, sense=ir.sense, var_names=list(ir._names),
            c=_read_only(c), a=a,
            row_lower=_read_only(np.where(sense == SENSES.index("<="), -math.inf, rhs)),
            row_upper=_read_only(np.where(sense == SENSES.index(">="), math.inf, rhs)),
            col_lower=_read_only(ir._lb[:n].copy()),
            col_upper=_read_only(ir._ub[:n].copy()),
            integrality=_read_only(ir._binary[:n].astype(np.int64)),
            row_index=dict(ir._row_index),
            obj_const=ir.obj_const, obj_cols=obj_cols, obj_coefs=obj_coefs)


def _append(arr: np.ndarray, used: int, values) -> np.ndarray:
    """`arr`, whose first `used` entries are set, with `values` written
    after them; the storage doubles whenever it is full."""
    end = used + len(values)
    if end > len(arr):
        arr = np.concatenate((arr[:used], np.empty(max(end, 2 * len(arr)) - used, arr.dtype)))
    arr[used:end] = values
    return arr


def _refuse_duplicate(kind: str, known: dict[str, int], names: list[str]) -> None:
    """Refuse the first of `names` already in `known` or earlier in `names`."""
    if not known.keys().isdisjoint(names) or len(set(names)) < len(names):
        dup = next(x for i, x in enumerate(names) if x in known or x in names[:i])
        raise ValueError(f"{kind} {dup} declared twice")


def _sense_code(row: str, sense: str) -> int:
    if sense not in SENSES:
        raise ValueError(f"row {row}: sense must be one of {SENSES}")
    return SENSES.index(sense)
