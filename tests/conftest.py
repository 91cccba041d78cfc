import pytest
import scipy.sparse.linalg as spla


@pytest.fixture
def unconverged_eigsh(monkeypatch):
    """Make every eigsh call report ARPACK non-convergence, carrying the
    eigenvalue it did compute, as a run that hits its iteration cap does."""
    eigsh = spla.eigsh

    def fake(*args, **kwargs):
        vals = eigsh(*args, **kwargs)
        raise spla.ArpackNoConvergence("ARPACK hit maxiter", vals, None)

    monkeypatch.setattr(spla, "eigsh", fake)
