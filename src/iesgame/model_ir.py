"""Solver-agnostic mixed-integer program representation.

A model is held array-first: its columns as a name list, a name->index
map and growing bound and binary arrays, its rows as COO triplets stored
row by row, plus each row's name, sense and right-hand side. `add_block`
and `add_columns` add columns, `add_rows` families of rows, interleaved
period by period, and `add_row_list` rows given one by one, checking
names and bounds once per call, as arrays. Columns, rows and each row's
coefficients keep their insertion order, which makes compiled models
equal, array for array, across runs. A row may name only variables
declared before it; `validate` rejects any other name.

Every model is a maximization. The objective is linear plus diagonal
quadratic terms. The MILP backend takes no quadratic terms:
`kkt_reformulation.apply_pwl` replaces them by secant columns and rows
before a model is compiled.

`ModelIR.compile` is the one lowering from a model to arrays: the
backend reads the `CompiledModel` it returns. A compiled model can be
re-solved with other right-hand sides (`CompiledModel.with_rhs`) without
building the model again.
"""
from __future__ import annotations

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
class CompiledModel:
    """A linear-objective model as solver arrays.

    Columns follow the variables' and rows the rows' insertion order; the
    coefficients of each row of `a` keep the order they were given in.
    `c` is the objective to maximize. The dense arrays are read-only:
    copies made by `with_rhs`, `without_lower` and `relaxed` share every
    array they do not change.
    """

    name: str
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


def _read_only(arr: np.ndarray) -> np.ndarray:
    arr.flags.writeable = False
    return arr


class ModelIR:
    """A named-variable LP/MILP, maximized, with optional quadratic
    objective terms."""

    def __init__(self, name: str = "model"):
        self.name = name
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
        self.obj_quad: dict[str, float] = {}  # coef per var of coef * var^2
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

    def add_rows(self, n: int, families: Sequence[tuple[str, list, str, object]]) -> None:
        """Add `n` rows to each family `(prefix, terms, sense, rhs)`, period
        by period: row t of every family, in the order given, then row t+1.
        Row t of a family is `{prefix}_{t}`; each term `(names, coef)` gives
        it the coefficient coef (a number, or coef[t]) on names[t], in the
        order of the terms. `rhs` is a number or one per row. Zero
        coefficients are dropped, as by `add_row_list`."""
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

    def add_row_list(self, rows: Sequence[tuple[str, dict[str, float], str, float]]
                     ) -> None:
        """Add rows given one by one as (name, coeffs, sense, rhs), in one
        call: no name declared twice, every sense known, and no row left
        without a nonzero coefficient (zeros are dropped)."""
        names = [row[0] for row in rows]
        lengths = np.array([len(coeffs) for _, coeffs, _, _ in rows], dtype=np.int64)
        given = np.arange(lengths.max(initial=0)) < lengths[:, None]  # row-major
        cols, vals = np.zeros(given.shape, np.int64), np.zeros(given.shape)
        cols[given] = self._ids([v for _, coeffs, _, _ in rows for v in coeffs],
                                [name for name, coeffs, _, _ in rows for _ in coeffs])
        vals[given] = [c for _, coeffs, _, _ in rows for c in coeffs.values()]
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
            self.obj_quad[var] = self.obj_quad.get(var, 0.0) + coef

    # -- queries ------------------------------------------------------

    @property
    def variables(self) -> dict[str, Variable]:
        """Every column's `Variable`, by name, in insertion order; built
        on each access (`bounds` reads some columns' bounds as arrays)."""
        return {name: Variable(name, *rest) for name, *rest in zip(
            self._names, self._lb.tolist(), self._ub.tolist(), self._binary.tolist())}

    def bounds(self, names: list[str]) -> tuple[np.ndarray, np.ndarray]:
        """The lower and upper bounds of the columns `names`."""
        cols = [self._col[name] for name in names]
        return self._lb[cols], self._ub[cols]

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
        for var in self.obj_quad:
            if var not in self._col:
                raise ValueError(f"quadratic term on unknown variable {var}")

    def _indptr(self) -> np.ndarray:
        """Each row's first entry in the COO arrays, then their length."""
        lengths = np.bincount(self._coo_row[:self._nnz], minlength=len(self._row_index))
        return np.concatenate(([0], np.cumsum(lengths)))

    # -- lowering -----------------------------------------------------

    def lower_pwl(self) -> "ModelIR":
        """The model itself. `kkt_reformulation.apply_pwl` emits the PWL
        secants as columns and rows, so nothing is left to lower; this
        stays only because the benchmark's size workload calls it and its
        tracer times it, until the benchmark drops both."""
        return self

    def compile(self) -> CompiledModel:
        """Validate and lower to solver arrays.

        Quadratic objective terms are rejected: the MILP backend takes
        none. The CSR matrix takes the COO entries as stored, so each row
        keeps the order its coefficients were given in.
        """
        if self.obj_quad:
            raise ValueError("compiled models take linear objectives only; "
                             "apply the PWL approximation first")
        self.validate()
        n, m = len(self._names), len(self._row_index)
        obj_cols = tuple(self._col[v] for v in self.obj_linear)
        obj_coefs = tuple(self.obj_linear.values())
        c = np.zeros(n)
        c[list(obj_cols)] = obj_coefs
        nnz = self._nnz
        a = sparse.csr_matrix((self._coo_val[:nnz].copy(), self._coo_col[:nnz].copy(),
                               self._indptr()), shape=(m, n))
        sense, rhs = self._sense[:m], self._rhs[:m]
        return CompiledModel(
            name=self.name, var_names=list(self._names),
            c=_read_only(c), a=a,
            row_lower=_read_only(np.where(sense == SENSES.index("<="), -math.inf, rhs)),
            row_upper=_read_only(np.where(sense == SENSES.index(">="), math.inf, rhs)),
            col_lower=_read_only(self._lb[:n].copy()),
            col_upper=_read_only(self._ub[:n].copy()),
            integrality=_read_only(self._binary[:n].astype(np.int64)),
            row_index=dict(self._row_index),
            obj_const=self.obj_const, obj_cols=obj_cols, obj_coefs=obj_coefs)


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
