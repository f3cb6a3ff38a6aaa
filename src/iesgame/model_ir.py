"""Solver-agnostic mixed-integer program representation.

Variables and rows are kept in insertion order, which makes serialized
models byte-stable across runs. The objective is linear plus diagonal
quadratic plus piecewise-linear terms; `lower_pwl` rewrites the PWL
terms into a convex-combination (lambda) form that needs no extra
binaries because every term's curvature matches the optimization sense.

`ModelIR.compile` is the one lowering from a model to arrays: every
backend and the LP writer read the `CompiledModel` it returns. A
compiled model can be re-solved with other right-hand sides
(`CompiledModel.with_rhs`) without building the model again.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np
from scipy import sparse

SENSES = ("<=", ">=", "==")


@dataclass(frozen=True)
class Variable:
    name: str
    lb: float
    ub: float
    binary: bool = False

    def __post_init__(self):
        if not self.name or any(c.isspace() for c in self.name):
            raise ValueError(f"bad variable name {self.name!r}")
        if not (math.isfinite(self.lb) and math.isfinite(self.ub)):
            raise ValueError(f"variable {self.name} needs finite bounds")
        if self.lb > self.ub:
            raise ValueError(f"variable {self.name}: lb {self.lb} > ub {self.ub}")


@dataclass
class LinearRow:
    name: str
    coeffs: dict[str, float]
    sense: str
    rhs: float

    def __post_init__(self):
        if self.sense not in SENSES:
            raise ValueError(f"row {self.name}: sense must be one of {SENSES}")
        if not self.coeffs:
            raise ValueError(f"row {self.name} has no coefficients")


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
    copies made by `with_rhs` and `relaxed` share every array they do not
    change.
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
        self.variables: dict[str, Variable] = {}
        self.rows: list[LinearRow] = []
        self._row_names: set[str] = set()
        self.obj_linear: dict[str, float] = {}
        self.obj_quad: list[QuadObjTerm] = []
        self.obj_pwl: list[PwlObjTerm] = []
        self.obj_const: float = 0.0

    # -- construction -------------------------------------------------

    def add_variable(self, name: str, lb: float, ub: float,
                     binary: bool = False) -> str:
        if name in self.variables:
            raise ValueError(f"variable {name} declared twice")
        self.variables[name] = Variable(name, lb, ub, binary)
        return name

    def add_row(self, name: str, coeffs: dict[str, float], sense: str,
                rhs: float) -> None:
        if name in self._row_names:
            raise ValueError(f"row {name} declared twice")
        coeffs = {v: c for v, c in coeffs.items() if c != 0.0}
        if not coeffs:
            raise ValueError(f"row {name} reduces to a constant")
        self.rows.append(LinearRow(name, coeffs, sense, rhs))
        self._row_names.add(name)

    def add_obj_linear(self, var: str, coef: float) -> None:
        self.obj_linear[var] = self.obj_linear.get(var, 0.0) + coef

    def add_obj_quad(self, var: str, coef: float) -> None:
        if coef != 0.0:
            self.obj_quad.append(QuadObjTerm(var, coef))

    def add_obj_pwl(self, term: PwlObjTerm) -> None:
        self.obj_pwl.append(term)

    # -- queries ------------------------------------------------------

    @property
    def binary_names(self) -> list[str]:
        return [v.name for v in self.variables.values() if v.binary]

    def validate(self) -> None:
        """Reject dangling references; bounds are checked at declaration."""
        for row in self.rows:
            for var in row.coeffs:
                if var not in self.variables:
                    raise ValueError(f"row {row.name} references unknown variable {var}")
        for var in self.obj_linear:
            if var not in self.variables:
                raise ValueError(f"objective references unknown variable {var}")
        for term in self.obj_quad:
            if term.var not in self.variables:
                raise ValueError(f"quadratic term on unknown variable {term.var}")
        for term in self.obj_pwl:
            if term.var not in self.variables:
                raise ValueError(f"PWL term on unknown variable {term.var}")

    # -- lowering -----------------------------------------------------

    def lower_pwl(self) -> "ModelIR":
        """Expand PWL objective terms into lambda variables and rows.

        Valid without adjacency binaries only when each term's value
        sequence is concave for a max sense (convex for min); violating
        terms raise, since silently lowering them would change the model.
        """
        if not self.obj_pwl:
            return self
        out = ModelIR(self.name, self.sense)
        out.variables = dict(self.variables)
        out.rows = list(self.rows)
        out._row_names = set(self._row_names)
        out.obj_linear = dict(self.obj_linear)
        out.obj_quad = list(self.obj_quad)
        out.obj_const = self.obj_const
        for idx, term in enumerate(self.obj_pwl):
            _check_curvature(term, self.sense)
            lam_names = []
            for k in range(len(term.breakpoints)):
                lam = out.add_variable(f"lam_{idx}_{term.var}_{k}", 0.0, 1.0)
                lam_names.append(lam)
                out.add_obj_linear(lam, term.values[k])
            out.add_row(f"pwl_sum_{idx}_{term.var}",
                        {lam: 1.0 for lam in lam_names}, "==", 1.0)
            link = {lam: bp for lam, bp in zip(lam_names, term.breakpoints)}
            link[term.var] = -1.0
            out.add_row(f"pwl_link_{idx}_{term.var}", link, "==", 0.0)
        out.validate()
        return out

    def compile(self) -> CompiledModel:
        """Lower to solver arrays, expanding the PWL terms first.

        Quadratic objective terms are rejected: no backend takes them.
        """
        ir = self.lower_pwl()
        if ir.obj_quad:
            raise ValueError("compiled models take linear objectives only; "
                             "apply the PWL approximation first")
        ir.validate()
        names = list(ir.variables)
        index = {n: i for i, n in enumerate(names)}
        obj_cols = tuple(index[v] for v in ir.obj_linear)
        obj_coefs = tuple(ir.obj_linear.values())
        c = np.zeros(len(names))
        c[list(obj_cols)] = obj_coefs

        indptr, indices, data = [0], [], []
        lower, upper = [], []
        for row in ir.rows:
            indices.extend(index[v] for v in row.coeffs)
            data.extend(row.coeffs.values())
            indptr.append(len(indices))
            lower.append(-math.inf if row.sense == "<=" else row.rhs)
            upper.append(math.inf if row.sense == ">=" else row.rhs)
        a = sparse.csr_matrix((data, indices, indptr),
                              shape=(len(ir.rows), len(names)))
        variables = ir.variables.values()
        return CompiledModel(
            name=ir.name, sense=ir.sense, var_names=names,
            c=_read_only(c), a=a,
            row_lower=_read_only(np.array(lower, dtype=float)),
            row_upper=_read_only(np.array(upper, dtype=float)),
            col_lower=_read_only(np.array([v.lb for v in variables])),
            col_upper=_read_only(np.array([v.ub for v in variables])),
            integrality=_read_only(np.array([1 if v.binary else 0
                                             for v in variables])),
            row_index={row.name: r for r, row in enumerate(ir.rows)},
            obj_const=ir.obj_const, obj_cols=obj_cols, obj_coefs=obj_coefs)


def _check_curvature(term: PwlObjTerm, sense: str) -> None:
    vals = np.asarray(term.values)
    bps = np.asarray(term.breakpoints)
    slopes = np.diff(vals) / np.diff(bps)
    second = np.diff(slopes)
    scale = max(1.0, float(np.max(np.abs(vals))))
    if sense == "max" and np.any(second > 1e-9 * scale):
        raise ValueError(f"PWL term on {term.var} is not concave; "
                         "maximization would need adjacency binaries")
    if sense == "min" and np.any(second < -1e-9 * scale):
        raise ValueError(f"PWL term on {term.var} is not convex; "
                         "minimization would need adjacency binaries")
