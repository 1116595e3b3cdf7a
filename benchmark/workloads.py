"""Seeded input generator for the kronspin benchmark.

``build(workload, seed, workdir)`` writes the Hamiltonian spec JSON and
matrix-text files of one workload into ``workdir`` and returns the round: the
ordered list of requests the benchmark sends, each an argv for
``kronspin.cli.run`` plus the description of the check its answer must pass.
kronspin only ever sees the files; the checks are evaluated by
``reference.py``.  The same seed gives byte-identical files.

Sizes and the request mix are fixed per workload; the seed draws the coupling
strengths, the fields, the random graphs, the probe seeds and the matrix
entries.  Request costs therefore barely depend on the seed, which keeps
run-to-run spread low; where a cost would move with the values (the Lanczos
iteration count), the seed only scales a fixed input.  The first request of each round is a cheap one:
the set-up measurement answers it from a cold process.

Run standalone to inspect the inputs:

    python3 benchmark/workloads.py --workload dense-ed --seed 1 --out /tmp/x
"""

from __future__ import annotations

import argparse
import json
import os

import numpy as np

WORKLOADS = ("dense-ed", "matfree-ed", "kron-algebra")

# The counted-failure pair does not depend on the workload seed: it must fail
# identically in every run until check_property P7 compares relative residuals.
DOMINANT_PAIR_SEED = 20010
DOMINANT_SHIFT = 20.0


def _chain(n):
    return [(i, i + 1) for i in range(1, n)]


def _ring(n):
    return _chain(n) + [(1, n)]


def _complete(n):
    return [(i, j) for i in range(1, n) for j in range(i + 1, n + 1)]


def _random_graph(rng, n, m):
    pairs = _complete(n)
    pick = sorted(rng.choice(len(pairs), size=m, replace=False))
    return [pairs[p] for p in pick]


def _write_spec(workdir, name, n, mu_b0, edges, strengths):
    spec = {
        "n_sites": n,
        "mu_b0": float(mu_b0),
        "couplings": [{"i": i, "j": j, "J": float(J)} for (i, j), J in zip(edges, strengths)],
    }
    with open(os.path.join(workdir, name), "w", encoding="utf-8") as fh:
        json.dump(spec, fh, indent=1)
        fh.write("\n")
    return name


def _entry(z: complex) -> str:
    re, im = float(z.real), float(z.imag)
    return f"{re!r}{'-' if im < 0 else '+'}{abs(im)!r}i"


def _write_matrix(workdir, name, a):
    lines = [f"{a.shape[0]} {a.shape[1]}"]
    lines.extend(" ".join(_entry(z) for z in row) for row in a)
    with open(os.path.join(workdir, name), "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
    return name


def _well_conditioned(rng, d):
    """I + 0.2 G / sqrt(d) with complex Gaussian G: invertible with a small
    condition number, so every Kronecker law holds far inside 1e-10."""
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    return np.eye(d) + 0.2 * g / np.sqrt(d)


def _dense_ed(rng, workdir):
    scale = rng.uniform(0.5, 2.0)

    def spec(name, n, edges, signed=False):
        if signed:
            strengths = scale * rng.uniform(-1.0, 1.0, len(edges))
        else:
            strengths = scale * (1.0 + 0.2 * rng.uniform(-1.0, 1.0, len(edges)))
        return _write_spec(workdir, name, n, scale * rng.uniform(0.5, 1.5), edges, strengths)

    def spectrum(rid, path):
        return {"id": rid, "argv": ["spectrum", path], "check": {"kind": "dense", "spec": path}}

    def conserved(rid, path, z_scale=1.0):
        argv = ["conserved", path, "--json"]
        if z_scale != 1.0:
            argv += ["--debug-anisotropy", repr(z_scale)]
        return {"id": rid, "argv": argv,
                "check": {"kind": "conserved", "spec": path, "z_scale": z_scale}}

    return [
        spectrum("spectrum-chain-6", spec("chain6.json", 6, _chain(6))),
        spectrum("spectrum-ring-7", spec("ring7.json", 7, _ring(7))),
        spectrum("spectrum-complete-7", spec("complete7.json", 7, _complete(7))),
        spectrum("spectrum-randomJ-8", spec("random8.json", 8, _random_graph(rng, 8, 12), True)),
        spectrum("spectrum-ring-8", spec("ring8.json", 8, _ring(8))),
        spectrum("spectrum-complete-8", spec("complete8.json", 8, _complete(8))),
        conserved("conserved-chain-8", spec("cchain8.json", 8, _chain(8))),
        conserved("conserved-aniso-randomJ-8",
                  spec("crandom8.json", 8, _random_graph(rng, 8, 10), True), z_scale=2.0),
        conserved("conserved-ring-9", spec("cring9.json", 9, _ring(9))),
    ]


def _matfree_ed(rng, workdir):
    scale = rng.uniform(0.5, 2.0)

    def lanczos(rid, path, k, lanczos_seed, same_as=None):
        argv = ["spectrum", path, "--engine", "lanczos", "--k", str(k), "--seed", str(lanczos_seed)]
        check = {"kind": "lanczos", "spec": path, "k": k, "triplet": k == 4}
        if same_as is not None:
            check["same_as"] = same_as
        return {"id": rid, "argv": argv, "check": check}

    def conserved(rid, path):
        return {"id": rid, "argv": ["conserved", path, "--json", "--seed", str(rng.integers(1 << 30))],
                "check": {"kind": "conserved", "spec": path, "z_scale": 1.0}}

    def jittered(n, edges, name):
        strengths = scale * (1.0 + 0.2 * rng.uniform(-1.0, 1.0, len(edges)))
        return _write_spec(workdir, name, n, scale * rng.uniform(0.5, 1.5), edges, strengths)

    def uniform(n, edges, name, field):
        return _write_spec(workdir, name, n, scale * field, edges, [scale] * len(edges))

    # Lanczos specs are one fixed Hamiltonian times the seeded scale, and the
    # start seeds are fixed: the Krylov sequence, hence the matvec count, is
    # then the same for every workload seed (jittered couplings move it by
    # up to 15%).  The probe-path conserved requests always make 36 matvecs,
    # so their couplings are jittered.  mu_b0 = 0 on the even ring gives a
    # singlet ground state below a threefold triplet, so the k = 4 deflation
    # sweeps must recover every copy.
    ring14 = uniform(14, _ring(14), "ring14.json", 0.7)
    return [
        lanczos("lanczos-k1-chain-12", uniform(12, _chain(12), "chain12.json", 1.0), 1, 1),
        lanczos("lanczos-k4-ring-12", uniform(12, _ring(12), "ring12.json", 0.0), 4, 2),
        conserved("conserved-probe-chain-13", jittered(13, _chain(13), "chain13.json")),
        lanczos("lanczos-k1-ring-14", ring14, 1, 3),
        lanczos("lanczos-k1-ring-14-repeat", ring14, 1, 3, same_as="lanczos-k1-ring-14"),
        conserved("conserved-probe-ring-15", jittered(15, _ring(15), "ring15.json")),
        lanczos("lanczos-k1-chain-16", uniform(16, _chain(16), "chain16.json", 1.0), 1, 0),
    ]


def _kron_algebra(rng, workdir):
    requests = []
    pairs = []
    for d in (4, 8, 12, 16, 24):
        pairs.append((f"{d}", _well_conditioned(rng, d), _well_conditioned(rng, d)))
    rect_a = rng.standard_normal((6, 10)) + 1j * rng.standard_normal((6, 10))
    rect_b = rng.standard_normal((12, 5)) + 1j * rng.standard_normal((12, 5))
    pairs.insert(1, ("rect", rect_a, rect_b))
    for tag, a, b in pairs:
        fa = _write_matrix(workdir, f"a{tag}.txt", a)
        fb = _write_matrix(workdir, f"b{tag}.txt", b)
        ab, ba = f"kron-{tag}-ab", f"kron-{tag}-ba"
        requests.append({"id": ab, "argv": ["kron", fa, fb, "--out", f"{ab}.txt"],
                         "check": {"kind": "kron", "a": fa, "b": fb}})
        requests.append({"id": ba, "argv": ["kron", fb, fa, "--out", f"{ba}.txt"],
                         "check": {"kind": "kron", "a": fb, "b": fa, "shuffle_of": ab}})
    for d in (4, 8, 12, 16):
        requests.append({"id": f"verify-{d}", "argv": ["verify-properties", f"a{d}.txt", f"b{d}.txt", "--json"],
                         "check": {"kind": "verify", "a": f"a{d}.txt", "b": f"b{d}.txt"}})

    # Diagonally dominant pair with entries near 20: the mixed-product law
    # holds to rounding (relative residual ~1e-16) but its absolute Frobenius
    # residual exceeds the default 1e-10, so P7 is reported as FAIL.
    fixed = np.random.default_rng(DOMINANT_PAIR_SEED)
    dom = [fixed.standard_normal((16, 16)) + 1j * fixed.standard_normal((16, 16))
           + DOMINANT_SHIFT * np.eye(16) for _ in range(2)]
    fa = _write_matrix(workdir, "dominant_a16.txt", dom[0])
    fb = _write_matrix(workdir, "dominant_b16.txt", dom[1])
    requests.append({"id": "verify-dominant-16", "argv": ["verify-properties", fa, fb, "--json"],
                     "check": {"kind": "verify", "a": fa, "b": fb}})
    return requests


def build(workload: str, seed: int, workdir: str) -> list[dict]:
    """Write the workload's input files into workdir and return its round."""
    makers = {"dense-ed": _dense_ed, "matfree-ed": _matfree_ed, "kron-algebra": _kron_algebra}
    if workload not in makers:
        raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
    os.makedirs(workdir, exist_ok=True)
    return makers[workload](np.random.default_rng(seed), workdir)


def main() -> int:
    parser = argparse.ArgumentParser(description="Write one workload's seeded inputs.")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True, help="directory for the input files")
    args = parser.parse_args()
    requests = build(args.workload, args.seed, args.out)
    with open(os.path.join(args.out, "requests.json"), "w", encoding="utf-8") as fh:
        json.dump(requests, fh, indent=1)
    print(f"{len(requests)} requests written to {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
