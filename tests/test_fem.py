import threading

import numpy as np
import pytest

from srlab.fem import (
    BoundaryCondition,
    BoundaryG,
    DivergenceF,
    VolumeF,
    assemble_cross_term,
    assemble_divergence,
    assemble_gradient_coupling,
    assemble_gram,
    assemble_stiffness,
    build_space,
    build_system,
    load_vector,
)
from srlab.geometry import refine_uniform, regular_ngon, triangulate, unit_square


@pytest.fixture(scope="module")
def coarse_space():
    return build_space(triangulate(unit_square(), np.sqrt(2.0)))


@pytest.fixture(scope="module")
def fine_space():
    return build_space(refine_uniform(triangulate(unit_square(), np.sqrt(2.0))))


def interp_velocity(space, fx, fy):
    x, y = space.p2_coords[:, 0], space.p2_coords[:, 1]
    coeffs = np.zeros(space.n_vel)
    coeffs[0::2] = fx(x, y)
    coeffs[1::2] = fy(x, y)
    return coeffs


def test_space_caches_fill_once_across_threads(monkeypatch):
    from srlab import fem

    # a fresh space: nothing cached yet; more threads than cores, released
    # together
    space = build_space(triangulate(unit_square(), np.sqrt(2.0) / 4))
    rules, scatters = [], []
    triangle_rule, scatter = fem.triangle_rule, fem._scatter

    def slow_rule(degree):
        rules.append(degree)
        # hold the window in which another thread could fill the entry again
        threading.Event().wait(0.2)
        return triangle_rule(degree)

    def counted_scatter(*args):
        scatters.append(1)
        return scatter(*args)

    monkeypatch.setattr(fem, "triangle_rule", slow_rule)
    monkeypatch.setattr(fem, "_scatter", counted_scatter)
    n_threads = 4
    all_waiting = threading.Barrier(n_threads, timeout=10)
    results = []

    def work():
        all_waiting.wait()
        results.append((space.quad_data(8), fem._scalar_p2_matrices(space)))

    threads = [threading.Thread(target=work) for _ in range(n_threads)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=30)
    assert not any(t.is_alive() for t in threads)
    # one rule per degree (8 here, 4 for the P2 matrices); six scattered
    # blocks: mass, stiffness and the four gradient products
    assert sorted(rules) == [4, 8]
    assert len(scatters) == 6
    assert len(results) == n_threads
    assert all(q is results[0][0] and m is results[0][1] for q, m in results)


def test_dof_counts(coarse_space, fine_space):
    assert coarse_space.n_vertices == 4
    assert coarse_space.n_edges == 5
    assert coarse_space.n_vel == 18
    assert coarse_space.n_pres == 4
    assert fine_space.n_vertices == 9
    assert fine_space.n_edges == 16
    assert fine_space.n_vel == 50
    assert fine_space.n_pres == 9


def test_numbering_pinned(fine_space):
    # the artifacts are byte-identical only while this numbering holds:
    # refinement numbers midpoints by first appearance, the space numbers
    # its edges by sorted endpoints
    mesh = fine_space.mesh
    assert np.array_equal(
        mesh.nodes,
        [[0, 0], [1, 0], [1, 1], [0, 1], [0.5, 0], [1, 0.5], [0.5, 0.5], [0.5, 1], [0, 0.5]],
    )
    assert mesh.triangles.tolist() == [
        [0, 4, 6], [4, 1, 5], [6, 5, 2], [4, 5, 6],
        [0, 6, 8], [6, 2, 7], [8, 7, 3], [6, 7, 8],
    ]
    assert mesh.boundary_edges.tolist() == [
        [0, 4, 0], [4, 1, 0], [1, 5, 1], [5, 2, 1],
        [2, 7, 2], [7, 3, 2], [3, 8, 3], [8, 0, 3],
    ]
    assert fine_space.edges.tolist() == [
        [0, 4], [0, 6], [0, 8], [1, 4], [1, 5], [2, 5], [2, 6], [2, 7],
        [3, 7], [3, 8], [4, 5], [4, 6], [5, 6], [6, 7], [6, 8], [7, 8],
    ]
    assert fine_space.cells6.tolist() == [
        [0, 4, 6, 9, 20, 10], [4, 1, 5, 12, 13, 19], [6, 5, 2, 21, 14, 15],
        [4, 5, 6, 19, 21, 20], [0, 6, 8, 10, 23, 11], [6, 2, 7, 15, 16, 22],
        [8, 7, 3, 24, 17, 18], [6, 7, 8, 22, 24, 23],
    ]
    assert fine_space.boundary_mids.tolist() == [9, 12, 13, 14, 16, 17, 18, 11]
    # corner 0 lies on faces 0 and 3, the midpoint node 9 of edge (0, 4) on face 0
    table = fine_space.boundary_node_faces
    assert table[table[:, 0] == 0].tolist() == [[0, 0], [0, 3]]
    assert table[table[:, 0] == 9].tolist() == [[9, 0]]
    assert len(table) == 20 and np.array_equal(fine_space.boundary_nodes, np.unique(table[:, 0]))


def test_space_tables_match_loop_reference():
    # sorted-set edge numbering and per-triangle lookups, as loops
    mesh = triangulate(regular_ngon(7), 0.6)
    space = build_space(mesh)
    nv = mesh.n_nodes

    def key(a, b):
        return (min(int(a), int(b)), max(int(a), int(b)))

    sides = [[key(a, b) for a, b in zip(t, np.roll(t, -1))] for t in mesh.triangles]
    edges = sorted({e for tri in sides for e in tri})
    node = {e: nv + n for n, e in enumerate(edges)}
    assert space.edges.tolist() == [list(e) for e in edges]
    assert space.cells6.tolist() == [
        [*map(int, t), *(node[e] for e in tri)] for t, tri in zip(mesh.triangles, sides)
    ]
    pairs = set()
    for a, b, fid in mesh.boundary_edges.tolist():
        pairs |= {(a, fid), (b, fid), (node[key(a, b)], fid)}
    assert space.boundary_node_faces.tolist() == sorted(map(list, pairs))
    assert space.boundary_mids.tolist() == [node[key(a, b)] for a, b, _ in mesh.boundary_edges]


def test_boundary_normals(fine_space):
    for node in fine_space.boundary_nodes:
        n = fine_space.node_normal(int(node))
        assert abs(np.linalg.norm(n) - 1) < 1e-14
    # corner (0,0) of the unit square: bisector of (0,-1) and (-1,0)
    corner = int(np.argmin(np.sum(fine_space.p2_coords**2, axis=1)))
    assert np.allclose(fine_space.node_normal(corner), -np.sqrt(0.5) * np.ones(2))


def test_stiffness_mu_zero_is_component_laplacian(fine_space):
    A0 = assemble_stiffness(fine_space, 0.0)
    u = interp_velocity(fine_space, lambda x, y: x * y, lambda x, y: 0 * x)
    # int |grad(xy)|^2 over unit square = int x^2 + y^2 = 2/3
    assert u @ (A0 @ u) == pytest.approx(2.0 / 3.0, abs=1e-12)


def test_stiffness_shear_field(fine_space):
    u = interp_velocity(fine_space, lambda x, y: y, lambda x, y: 0 * x)
    for mu in (-0.9, -0.5, 0.0, 0.4, 0.9, 1.0):
        A = assemble_stiffness(fine_space, mu)
        assert u @ (A @ u) == pytest.approx(1.0, abs=1e-12)


def test_stiffness_constant_field(fine_space):
    u = interp_velocity(fine_space, lambda x, y: 1 + 0 * x, lambda x, y: 2 + 0 * x)
    A = assemble_stiffness(fine_space, 0.4)
    assert abs(u @ (A @ u)) < 1e-12


def test_stiffness_mu_range(fine_space):
    with pytest.raises(ValueError):
        assemble_stiffness(fine_space, -1.0)
    with pytest.raises(ValueError):
        assemble_stiffness(fine_space, 1.5)


def test_cross_term_consistency(fine_space):
    A0 = assemble_stiffness(fine_space, 0.0)
    D = assemble_cross_term(fine_space)
    for mu in (-0.5, 0.3, 0.9):
        A = assemble_stiffness(fine_space, mu)
        diff = (A - (A0 + mu * D)).tocoo()
        assert np.all(np.abs(diff.data) < 1e-12) if diff.nnz else True


def test_coercivity(fine_space):
    rng = np.random.default_rng(0)
    A0 = assemble_stiffness(fine_space, 0.0)
    D = assemble_cross_term(fine_space)
    for mu in (-0.9, -0.5, 0.0, 0.4, 0.9):
        A = A0 + mu * D
        for _ in range(40):
            x = rng.standard_normal(fine_space.n_vel)
            lhs = x @ (A @ x)
            rhs = (1 - abs(mu)) * (x @ (A0 @ x))
            assert lhs >= rhs - 1e-10 * (x @ x)


def test_divergence_matrix(fine_space):
    B = assemble_divergence(fine_space)
    const = interp_velocity(fine_space, lambda x, y: 1 + 0 * x, lambda x, y: 1 + 0 * x)
    assert np.max(np.abs(B @ const)) < 1e-13
    sol = interp_velocity(fine_space, lambda x, y: x, lambda x, y: -y)
    assert np.max(np.abs(B @ sol)) < 1e-13
    expand = interp_velocity(fine_space, lambda x, y: x, lambda x, y: y)
    assert np.sum(B @ expand) == pytest.approx(2.0, abs=1e-12)


def test_structural_zero(fine_space):
    # two dofs with disjoint supports never interact
    A = assemble_stiffness(fine_space, 0.3).tocsr()
    cells = fine_space.cells6
    support = {n: set() for n in range(fine_space.n_p2)}
    for e, cell in enumerate(cells):
        for n in cell:
            support[n].add(e)
    found = False
    for p in range(fine_space.n_p2):
        for q in range(p + 1, fine_space.n_p2):
            if not (support[p] & support[q]):
                assert A[2 * p, 2 * q] == 0.0
                found = True
                break
        if found:
            break
    assert found


def test_gram_kinds(fine_space):
    Mq = assemble_gram(fine_space, "pressure_mass")
    ones = np.ones(fine_space.n_pres)
    assert ones @ (Mq @ ones) == pytest.approx(1.0, abs=1e-13)
    Mv = assemble_gram(fine_space, "velocity_mass")
    u = interp_velocity(fine_space, lambda x, y: x, lambda x, y: 0 * x)
    assert u @ (Mv @ u) == pytest.approx(1.0 / 3.0, abs=1e-12)
    with pytest.raises(ValueError):
        assemble_gram(fine_space, "nope")


def test_h1_zero_elimination(fine_space):
    K10 = assemble_gram(fine_space, "H1_zero")
    d = fine_space.boundary_vel_dofs
    sub = K10[d][:, d].toarray()
    assert np.allclose(sub, np.eye(len(d)))
    rows = K10[d].toarray()
    rows[np.arange(len(d)), d] = 0.0
    assert np.max(np.abs(rows)) == 0.0


def test_interior_mask_is_the_read_only_complement_of_the_boundary(fine_space):
    mask = fine_space.interior_vel
    expect = np.ones(fine_space.n_vel, dtype=bool)
    expect[fine_space.boundary_vel_dofs] = False
    assert mask.dtype == bool and np.array_equal(mask, expect)
    with pytest.raises(ValueError):
        mask[0] = not mask[0]


def test_load_zero(fine_space):
    load = load_vector(fine_space, VolumeF(lambda p: np.zeros_like(p)))
    assert np.max(np.abs(load)) == 0.0


def test_load_divergence_identity(fine_space):
    # F = Id: -int Id : grad v = -int div v = -(B^T 1) paired entrywise
    B = assemble_divergence(fine_space)
    load = load_vector(
        fine_space, DivergenceF(lambda p: np.broadcast_to(np.eye(2), (len(p), 2, 2)))
    )
    ref = -B.T @ np.ones(fine_space.n_pres)
    assert np.max(np.abs(load - ref)) < 1e-12


def test_load_boundary_normal(fine_space):
    load = load_vector(
        fine_space,
        BoundaryG(lambda pts, fid: np.broadcast_to(
            fine_space.mesh.polygon.faces[fid].normal, (len(pts), 2)
        )),
    )
    u = 0.5 * interp_velocity(fine_space, lambda x, y: x, lambda x, y: y)
    # divergence theorem: int_bdry n.(x,y)/2 = int div (x,y)/2 = |Omega|
    assert np.real(u @ load) == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize(
    "part,field",
    [
        (VolumeF, lambda p: np.stack([p[:, 0], p[:, 1] ** 2], axis=-1)),
        (DivergenceF, lambda p: np.broadcast_to(np.eye(2), (len(p), 2, 2))),
        (BoundaryG, lambda pts, fid: np.cos(pts + fid)),
    ],
    ids=["volume", "divergence", "boundary"],
)
def test_load_takes_the_data_dtype(fine_space, part, field):
    load = load_vector(fine_space, part(field))
    assert load.dtype == np.float64
    complex_load = load_vector(
        fine_space, part(lambda *args: (1 + 2j) * np.asarray(field(*args)))
    )
    assert complex_load.dtype == np.complex128
    assert np.max(np.abs(complex_load - (1 + 2j) * load)) < 1e-14


def test_load_boundary_rejects_dirichlet(fine_space):
    with pytest.raises(ValueError):
        load_vector(
            fine_space,
            BoundaryG(lambda pts, fid: np.zeros((len(pts), 2))),
            BoundaryCondition("dirichlet"),
        )


def test_load_dirichlet_zeroes_boundary_rows(fine_space):
    load = load_vector(
        fine_space,
        VolumeF(lambda p: np.ones((len(p), 2))),
        BoundaryCondition("dirichlet"),
    )
    assert np.max(np.abs(load[fine_space.boundary_vel_dofs])) == 0.0


def test_gradient_coupling_vs_divergence(fine_space):
    # for a P1 potential vanishing on the boundary, C chi = -B^T chi
    C = assemble_gradient_coupling(fine_space)
    B = assemble_divergence(fine_space)
    chi = np.zeros(fine_space.n_pres)
    interior = np.setdiff1d(
        np.arange(fine_space.n_pres), fine_space.boundary_vertex_ids
    )
    chi[interior] = 1.7
    assert np.max(np.abs(C @ chi + B.T @ chi)) < 1e-12


def test_boundary_condition_validation():
    with pytest.raises(ValueError):
        BoundaryCondition("robin")


def test_build_system(fine_space):
    sys = build_system(fine_space, mu=0.3)
    D = assemble_cross_term(fine_space)
    assert (sys.A_mu - (sys.A0 + 0.3 * D)).nnz == 0 or np.max(
        np.abs((sys.A_mu - (sys.A0 + 0.3 * D)).data)
    ) < 1e-14
    for M in (sys.M_v, sys.M_q):
        d = (M - M.T).tocoo()
        assert np.max(np.abs(d.data)) < 1e-14 if d.nnz else True
        vals = np.linalg.eigvalsh(M.toarray())
        assert vals.min() > 0


@pytest.mark.parametrize("mu", [0.0, 0.3])
def test_build_system_assembles_the_cross_term_only_for_nonzero_mu(
    fine_space, monkeypatch, mu
):
    from srlab import fem

    calls = []
    cross_term = fem.assemble_cross_term

    def counted(space):
        calls.append(1)
        return cross_term(space)

    monkeypatch.setattr(fem, "assemble_cross_term", counted)
    sys = build_system(fine_space, mu=mu)
    assert len(calls) == (0 if mu == 0.0 else 1)
    assert (sys.A_mu != assemble_stiffness(fine_space, mu)).nnz == 0


def test_velocity_hessians(fine_space):
    u = interp_velocity(fine_space, lambda x, y: x**2, lambda x, y: x * y)
    H = fine_space.velocity_hessians(u)
    assert np.allclose(H[:, 0, 0, 0], 2.0)
    assert np.allclose(H[:, 0, 0, 1], 0.0)
    assert np.allclose(H[:, 1, 0, 1], 1.0)
    assert np.allclose(H[:, 1, 1, 0], 1.0)
