from math import factorial

import numpy as np
import pytest

from facevol import SimplexSpec


def perturbed_regular(n: int, rng: np.random.Generator, spread: float = 0.1) -> SimplexSpec:
    """Random realizable spec: unit squared lengths jittered by +-spread."""
    dim = n * (n + 1) // 2
    return SimplexSpec.from_vector(n, (1.0 + rng.uniform(-spread, spread, dim)).tolist())


def coordinate_volume_sq(points: np.ndarray, face) -> float:
    """Independent oracle: squared volume from coordinates via the edge Gram matrix."""
    pts = np.asarray(points, dtype=float)[[v - 1 for v in face]]
    m = len(face) - 1
    if m == 0:
        return 1.0
    edges = pts[1:] - pts[0]
    gram = edges @ edges.T
    return float(np.linalg.det(gram)) / factorial(m) ** 2



@pytest.fixture
def eigvalsh_rows(monkeypatch):
    """Number of matrices in each np.linalg.eigvalsh call, in call order."""
    seen = []
    eigvalsh = np.linalg.eigvalsh

    def counting(a, *args, **kwargs):
        seen.append(int(np.prod(np.shape(a)[:-2])))
        return eigvalsh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvalsh", counting)
    return seen
