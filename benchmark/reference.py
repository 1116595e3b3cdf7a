"""Independent references for the benchmark's answer checks.

Nothing here imports kronspin.  The Hamiltonian is assembled from bit
operations on the computational basis (site k of n is bit n - k, bit 0 is
spin up with sigma_z = +1):

    diagonal   -mu_b0 (n - 2 popcount) + sum_edges z_scale J s_i s_j,  s = +-1
    flip-flop  sigma_x sigma_x + sigma_y sigma_y swaps two differing bits
               with weight 2 J and annihilates equal bits

Dense eigenvalues come from numpy.linalg.eigvalsh, the lowest ones from
scipy.sparse.linalg.eigsh per S_z sector (H conserves popcount, so every
copy of a degenerate multiplet spread over sectors is found), Kronecker
products from numpy.kron, and the factor-swap relation from a perfect
shuffle of the matrix-text tokens.  Matrix text is parsed here by a parser of
its own.

``Checker.check`` returns (failed, problem): ``failed`` when the exit code is
not the one the check expects, ``problem`` (a message, or None) when a
request that exited as expected gave a wrong answer.
"""

from __future__ import annotations

import json
import os

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import eigsh, norm as sparse_norm

# Lanczos answers are certified to a residual of 1e-8 * ||H||; eigenvalue
# errors are below that.  Dense (Jacobi) answers converge to 1e-12 * ||H||.
LANCZOS_RTOL = 1e-7
DENSE_RTOL = 1e-9
# A Kronecker law "holds" when its relative Frobenius residual is at rounding.
LAW_RTOL = 1e-12
KRON_RTOL = 1e-14
DENSE_SECTOR_MAX = 2000


def _popcount(states: np.ndarray) -> np.ndarray:
    bits = np.zeros(states.shape, dtype=np.int64)
    s = states.copy()
    while np.any(s):
        bits += s & 1
        s >>= 1
    return bits


def hamiltonian(spec: dict, z_scale: float = 1.0) -> sp.csr_matrix:
    n = spec["n_sites"]
    dim = 1 << n
    states = np.arange(dim, dtype=np.int64)
    diag = -spec["mu_b0"] * (n - 2 * _popcount(states)).astype(np.float64)
    rows, cols, vals = [], [], []
    for c in spec["couplings"]:
        bi, bj = n - c["i"], n - c["j"]
        si = 1 - 2 * ((states >> bi) & 1)
        sj = 1 - 2 * ((states >> bj) & 1)
        diag += z_scale * c["J"] * (si * sj)
        differ = states[si != sj]
        rows.append(differ)
        cols.append(differ ^ ((1 << bi) | (1 << bj)))
        vals.append(np.full(differ.shape, 2.0 * c["J"]))
    rows.append(states)
    cols.append(states)
    vals.append(diag)
    return sp.csr_matrix((np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
                         shape=(dim, dim))


def total_spin_squared(n: int) -> sp.csr_matrix:
    """S^2 = 3n/4 + sum_{i<j} 2 S_i.S_j; each pair adds +-1/2 on the diagonal
    and swaps differing bits with weight 1."""
    spec = {"n_sites": n, "mu_b0": 0.0,
            "couplings": [{"i": i, "j": j, "J": 0.5} for i in range(1, n) for j in range(i + 1, n + 1)]}
    return (hamiltonian(spec) + 0.75 * n * sp.identity(1 << n)).tocsr()


def commutator_norm(a, b) -> float:
    return float(sparse_norm(a @ b - b @ a))


def lowest(h: sp.csr_matrix, n: int, k: int) -> np.ndarray:
    """The k lowest eigenvalues, merged over the popcount sectors of H."""
    pop = _popcount(np.arange(1 << n, dtype=np.int64))
    found = []
    for m in range(n + 1):
        idx = np.flatnonzero(pop == m)
        block = h[idx][:, idx]
        take = min(k, idx.size)
        if idx.size <= DENSE_SECTOR_MAX:
            found.extend(np.linalg.eigvalsh(block.toarray())[:take])
        else:
            found.extend(eigsh(block, k=take, which="SA", return_eigenvectors=False))
    return np.sort(found)[:k]


# -- matrix text ------------------------------------------------------------


def read_tokens(path) -> np.ndarray:
    """Matrix text as an array of entry strings, shaped (rows, cols)."""
    with open(path, encoding="utf-8") as fh:
        header = fh.readline().split()
        tokens = fh.read().split()
    rows, cols = int(header[0]), int(header[1])
    if len(tokens) != rows * cols:
        raise ValueError(f"{path}: {len(tokens)} entries for a {rows}x{cols} matrix")
    return np.array(tokens, dtype=object).reshape(rows, cols)


def to_complex(tokens: np.ndarray) -> np.ndarray:
    flat = [complex(t[:-1] + "j") if t.endswith("i") else complex(float(t), 0.0)
            for t in tokens.ravel()]
    return np.array(flat, dtype=np.complex128).reshape(tokens.shape)


def shuffle(tokens: np.ndarray, a_shape, b_shape) -> np.ndarray:
    """Reindex kron(a, b) into kron(b, a): entry (i*mb + k, j*nb + l) moves
    to (k*ma + i, l*na + j)."""
    (ma, na), (mb, nb) = a_shape, b_shape
    return tokens.reshape(ma, mb, na, nb).transpose(1, 0, 3, 2).reshape(mb * ma, nb * na)


def _rel(lhs, rhs) -> float:
    return float(np.linalg.norm(lhs - rhs) / max(np.linalg.norm(lhs), 1e-300))


def laws_hold(a: np.ndarray, b: np.ndarray) -> bool:
    """The eight Kronecker laws on a pair of distinct operands, derived as
    verify-properties derives them, judged by relative residuals."""
    k = np.kron
    inv = np.linalg.inv
    d = a.shape[0]
    rels = [
        np.linalg.norm(k(a, 0 * b)) + np.linalg.norm(k(0 * a, b)),
        _rel(k(np.eye(d), np.eye(d)), np.eye(d * d)),
        _rel(k(a + b, b), k(a, b) + k(b, b)),
        _rel(k(a, b + a), k(a, b) + k(a, a)),
        _rel(k(2.0 * a, -0.5 * b), -1.0 * k(a, b)),
        _rel(inv(k(a, b)), k(inv(a), inv(b))),
        _rel(k(a @ b, a @ b), k(a, a) @ k(b, b)),
    ]
    return max(rels) <= LAW_RTOL and _rel(k(a, b), k(b, a)) > LAW_RTOL


# -- checks -------------------------------------------------------------------


class Checker:
    """Checks the answers of one workload's requests; inputs are read from
    the workload's directory and references are computed once per input."""

    def __init__(self, workdir: str):
        self.workdir = workdir
        self._cache: dict = {}

    def _path(self, name):
        return os.path.join(self.workdir, name)

    def _memo(self, key, make):
        if key not in self._cache:
            self._cache[key] = make()
        return self._cache[key]

    def _spec(self, name):
        def load():
            with open(self._path(name), encoding="utf-8") as fh:
                return json.load(fh)
        return self._memo(("spec", name), load)

    def _tokens(self, name):
        return self._memo(("tokens", name), lambda: read_tokens(self._path(name)))

    def _matrix(self, name):
        return self._memo(("matrix", name), lambda: to_complex(self._tokens(name)))

    def check(self, request, record, round_records):
        check = request["check"]
        kind = check["kind"]
        expected = 0
        if kind == "conserved" and check["z_scale"] != 1.0:
            expected = 1
        elif kind == "verify":
            expected = 0 if self._memo(("laws", check["a"], check["b"]), lambda: laws_hold(
                self._matrix(check["a"]), self._matrix(check["b"]))) else 1
        if record["exit"] != expected:
            return True, None
        return False, getattr(self, f"_check_{kind}")(check, record, round_records)

    def _check_dense(self, check, record, _):
        spec = self._spec(check["spec"])
        ref = self._memo(("dense", check["spec"]), lambda: np.linalg.eigvalsh(
            hamiltonian(spec).toarray()))
        values = _csv_values(record["stdout"])
        scale = max(1.0, float(np.max(np.abs(ref))))
        if values.shape != ref.shape:
            return f"{values.size} eigenvalues, expected {ref.size}"
        if np.max(np.abs(values - ref)) > DENSE_RTOL * scale:
            return f"eigenvalues off by {np.max(np.abs(values - ref)):.3e}"
        if abs(values.sum()) > DENSE_RTOL * scale * values.size:
            return f"trace {values.sum():.3e} is not 0"
        return None

    def _check_lanczos(self, check, record, round_records):
        spec = self._spec(check["spec"])
        k = check["k"]
        ref = self._memo(("lanczos", check["spec"], k), lambda: lowest(
            hamiltonian(spec), spec["n_sites"], k))
        values = _csv_values(record["stdout"])
        scale = max(1.0, float(np.max(np.abs(ref))))
        if "same_as" in check:
            first = next(r for r in round_records if r["id"] == check["same_as"])
            if record["stdout"] != first["stdout"]:
                return f"not bitwise equal to {check['same_as']} with the same seed"
        if values.shape != ref.shape:
            return f"{values.size} eigenvalues, expected {k}"
        if np.max(np.abs(values - ref)) > LANCZOS_RTOL * scale:
            return f"eigenvalues off by {np.max(np.abs(values - ref)):.3e}"
        if check["triplet"] and np.ptp(values[1:4]) > LANCZOS_RTOL * scale:
            return f"triplet {values[1:4]} is not degenerate"
        return None

    def _check_conserved(self, check, record, _):
        spec = self._spec(check["spec"])
        rows = {row["name"].split(" commutator")[0]: row
                for row in json.loads(record["stdout"])["results"]}
        broken = "[H, S^2]" if check["z_scale"] != 1.0 else None
        for name, row in rows.items():
            if (row["residual"] >= row["tolerance"]) != (name == broken):
                return f"{name} residual {row['residual']:.3e} against {row['tolerance']:.1e}"
        if broken is not None:
            n = spec["n_sites"]
            ref = self._memo(("s2comm", check["spec"], check["z_scale"]), lambda: commutator_norm(
                hamiltonian(spec, check["z_scale"]), total_spin_squared(n)))
            got = rows[broken]["residual"]
            if abs(got - ref) > 1e-8 * ref:
                return f"[H, S^2] residual {got!r}, reference {ref!r}"
        return None

    def _check_verify(self, check, record, _):
        rows = json.loads(record["stdout"])["results"]
        bad = [r["name"] for r in rows if not r.get("diagnostic") and not r["passed"]]
        return f"exit 0 but {bad} failed" if bad else None

    def _check_kron(self, check, record, round_records):
        a, b = self._matrix(check["a"]), self._matrix(check["b"])
        out = self._tokens(record["out_file"])
        if out.shape != (a.shape[0] * b.shape[0], a.shape[1] * b.shape[1]):
            return f"product shape {out.shape}"
        product = self._matrix(record["out_file"])
        ref = np.kron(a, b)
        if not np.allclose(product, ref, rtol=KRON_RTOL, atol=KRON_RTOL * np.max(np.abs(ref))):
            return f"product differs from numpy.kron by {np.max(np.abs(product - ref)):.3e}"
        if "shuffle_of" in check:
            first = next(r for r in round_records if r["id"] == check["shuffle_of"])
            if not np.array_equal(shuffle(self._tokens(first["out_file"]), b.shape, a.shape), out):
                return "kron(b, a) is not the bitwise perfect shuffle of kron(a, b)"
        return None


def _csv_values(text: str) -> np.ndarray:
    lines = [ln for ln in text.splitlines() if ln and not ln.startswith("#")]
    if not lines or lines[0] != "index,eigenvalue":
        raise ValueError("spectrum output lacks the index,eigenvalue header")
    return np.array([float(ln.split(",")[1]) for ln in lines[1:]])
