"""In-memory spans around srlab's layer calls, installed from outside.

`Tracer.install` wraps the public functions and methods of each layer
(and the LU calls inside them) without touching the package source;
`Tracer.restore` puts the originals back. Spans stay in memory and are
reduced to per-layer totals when the run ends. Calls are assumed to come
from one thread, which holds for every benchmark workload (one ray each).

Spans of library layers (geometry, fem, solver, helmholtz, norms, the LU
calls and the artifact writer) are told apart from the orchestration
around them (import, config, the CLI handler, the experiment functions'
own code). Coverage counts only the former, so time that escapes every
layer wrapper lowers it.
"""
from __future__ import annotations

import functools
import sys
import time
from contextlib import contextmanager

LAYER_METRICS = (
    ("geometry.mesh_s", "s"),
    ("geometry.n_triangles", "count"),
    ("fem.build_space_s", "s"),
    ("fem.build_system_s", "s"),
    ("fem.n_vel", "count"),
    ("fem.n_pres", "count"),
    ("solver.factorize_s", "s"),
    ("solver.factorize_count", "count"),
    ("solver.lu_nnz", "count"),
    ("solver.solve_s", "s"),
    ("solver.solve_count", "count"),
    ("solver.solve_adjoint_s", "s"),
    ("solver.solve_adjoint_count", "count"),
    ("helmholtz.setup_s", "s"),
    ("helmholtz.basis_dim", "count"),
    ("helmholtz.project_s", "s"),
    ("helmholtz.project_count", "count"),
    ("norms.operator_norm_s", "s"),
    ("norms.operator_norm_self_s", "s"),
    ("norms.operator_norm_count", "count"),
    ("norms.eig_matvecs", "count"),
    ("norms.eig_unconverged", "count"),
    ("norms.eigsh_mass_lu_count", "count"),
    ("norms.eigsh_mass_lu_s", "s"),
    ("norms.input_gram_s", "s"),
    ("experiments.self_s", "s"),
    ("cli.write_s", "s"),
)

# counts that must repeat exactly between two traced runs of one seed
EXACT_COUNTS = (
    "solver.factorize_count",
    "solver.solve_count",
    "solver.solve_adjoint_count",
    "helmholtz.project_count",
    "norms.eig_matvecs",
    "solver.lu_nnz",
)


class Tracer:
    def __init__(self):
        # each span: [name, start, end, parent index, attrs, is a layer]
        self.spans = []
        self._stack = []
        self._restore = []

    @contextmanager
    def span(self, name, layer=False):
        parent = self._stack[-1] if self._stack else -1
        idx = len(self.spans)
        rec = [name, time.monotonic(), None, parent, {}, layer]
        self.spans.append(rec)
        self._stack.append(idx)
        try:
            yield rec[4]
        finally:
            rec[2] = time.monotonic()
            self._stack.pop()

    def _wrap(self, fn, name, after, layer):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with self.span(name, layer) as attrs:
                out = fn(*args, **kwargs)
                if after is not None:
                    after(attrs, args, out)
                return out

        return wrapper

    def patch_attr(self, owner, attr, name, after=None, layer=True):
        orig = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        setattr(owner, attr, self._wrap(orig, name, after, layer))
        self._restore.append((owner, attr, orig))

    def patch_function(self, fn, name, after=None, layer=True):
        """Wrap every binding of `fn` in the loaded srlab modules."""
        wrapped = self._wrap(fn, name, after, layer)
        for modname, mod in list(sys.modules.items()):
            if modname != "srlab" and not modname.startswith("srlab."):
                continue
            for attr, val in list(vars(mod).items()):
                if val is fn:
                    setattr(mod, attr, wrapped)
                    self._restore.append((mod, attr, fn))

    def install(self):
        import scipy.linalg
        import scipy.sparse.linalg
        from scipy.sparse.linalg._eigen.arpack import arpack

        from srlab import cli, experiments, fem, helmholtz, norms, solver

        def mesh_size(attrs, args, mesh):
            attrs["n_triangles"] = int(mesh.n_triangles)

        def space_size(attrs, args, space):
            attrs["n_vel"] = int(space.n_vel)
            attrs["n_pres"] = int(space.n_pres)

        def sparse_fill(attrs, args, lu):
            attrs["nnz"] = int(lu.L.nnz + lu.U.nnz)

        def dense_fill(attrs, args, lu):
            attrs["nnz"] = int(lu[0].size)

        def basis_dim(attrs, args, basis):
            attrs["dim"] = int(basis.dim)

        def eig_stats(attrs, args, res):
            attrs["iterations"] = int(res.iterations)
            attrs["unconverged"] = int(not res.converged)

        self.patch_function(cli.build_mesh, "geometry.mesh", mesh_size)
        self.patch_function(fem.build_space, "fem.build_space", space_size)
        self.patch_function(fem.build_system, "fem.build_system")
        for fn in (experiments.sweep_pressure_decay, experiments.sweep_pressure_dual):
            self.patch_function(fn, "experiments." + fn.__name__, layer=False)
        for fn in (experiments.write_sweep_csv, experiments.write_fit_json):
            self.patch_function(fn, "cli.write")
        Res = solver.ResolventOperator
        self.patch_attr(Res, "__init__", "solver.factorize")
        self.patch_attr(Res, "solve", "solver.solve")
        self.patch_attr(Res, "solve_adjoint", "solver.solve_adjoint")
        self.patch_attr(scipy.sparse.linalg, "splu", "lu.sparse", sparse_fill)
        self.patch_attr(scipy.linalg, "lu_factor", "lu.dense", dense_fill)
        for cls in (helmholtz.ImplicitSolenoidalProjector, helmholtz.HelmholtzProjector):
            self.patch_attr(cls, "__init__", "helmholtz.setup")
        self.patch_attr(helmholtz.ImplicitSolenoidalProjector, "project",
                        "helmholtz.project")
        self.patch_attr(helmholtz.HelmholtzProjector, "apply", "helmholtz.project")
        self.patch_function(helmholtz.solenoidal_basis, "helmholtz.setup", basis_dim)
        self.patch_function(norms.operator_norm, "norms.operator_norm", eig_stats)
        self.patch_function(norms._input_gram, "norms.input_gram")
        # ARPACK mode 2 factorizes M inside every eigsh call
        self.patch_attr(arpack.SpLuInv, "__init__", "norms.eigsh_mass_lu")

    def restore(self):
        while self._restore:
            owner, attr, orig = self._restore.pop()
            setattr(owner, attr, orig)

    def layer_metrics(self, launch: float, end: float) -> dict:
        """Per-layer totals over the run, plus the share of the wall time
        [launch, end] that library-layer spans cover."""
        dur = [s[2] - s[1] for s in self.spans]
        child = [0.0] * len(self.spans)
        for i, s in enumerate(self.spans):
            if s[3] >= 0:
                child[s[3]] += dur[i]
        total, count, self_t = {}, {}, {}
        attrs = {}
        for i, (name, _, _, parent, a, _) in enumerate(self.spans):
            total[name] = total.get(name, 0.0) + dur[i]
            count[name] = count.get(name, 0) + 1
            self_t[name] = self_t.get(name, 0.0) + dur[i] - child[i]
            for key, val in a.items():
                attrs[(name, key)] = attrs.get((name, key), 0) + val
        lu_nnz = sum(
            s[4].get("nnz", 0)
            for s in self.spans
            if s[3] >= 0 and self.spans[s[3]][0] == "solver.factorize"
        )
        experiments_self = sum(
            v for k, v in self_t.items() if k.startswith("experiments.")
        )
        # a layer span counts once, unless a layer span encloses it;
        # parents open before their children, so one pass suffices
        in_layer = []
        covered = 0.0
        for s in self.spans:
            outer = s[3] >= 0 and in_layer[s[3]]
            in_layer.append(s[5] or outer)
            if s[5] and not outer:
                covered += min(s[2], end) - max(s[1], launch)
        out = {
            "geometry.mesh_s": total.get("geometry.mesh", 0.0),
            "geometry.n_triangles": attrs.get(("geometry.mesh", "n_triangles"), 0),
            "fem.build_space_s": total.get("fem.build_space", 0.0),
            "fem.build_system_s": total.get("fem.build_system", 0.0),
            "fem.n_vel": attrs.get(("fem.build_space", "n_vel"), 0),
            "fem.n_pres": attrs.get(("fem.build_space", "n_pres"), 0),
            "solver.factorize_s": total.get("solver.factorize", 0.0),
            "solver.factorize_count": count.get("solver.factorize", 0),
            "solver.lu_nnz": lu_nnz,
            "solver.solve_s": total.get("solver.solve", 0.0),
            "solver.solve_count": count.get("solver.solve", 0),
            "solver.solve_adjoint_s": total.get("solver.solve_adjoint", 0.0),
            "solver.solve_adjoint_count": count.get("solver.solve_adjoint", 0),
            "helmholtz.setup_s": total.get("helmholtz.setup", 0.0),
            "helmholtz.basis_dim": attrs.get(("helmholtz.setup", "dim"), 0),
            "helmholtz.project_s": total.get("helmholtz.project", 0.0),
            "helmholtz.project_count": count.get("helmholtz.project", 0),
            "norms.operator_norm_s": total.get("norms.operator_norm", 0.0),
            "norms.operator_norm_self_s": self_t.get("norms.operator_norm", 0.0),
            "norms.operator_norm_count": count.get("norms.operator_norm", 0),
            "norms.eig_matvecs": attrs.get(("norms.operator_norm", "iterations"), 0),
            "norms.eig_unconverged": attrs.get(("norms.operator_norm", "unconverged"), 0),
            "norms.eigsh_mass_lu_count": count.get("norms.eigsh_mass_lu", 0),
            "norms.eigsh_mass_lu_s": total.get("norms.eigsh_mass_lu", 0.0),
            "norms.input_gram_s": total.get("norms.input_gram", 0.0),
            "experiments.self_s": experiments_self,
            "cli.write_s": total.get("cli.write", 0.0),
        }
        return {"layers": out, "coverage": covered / (end - launch)}
