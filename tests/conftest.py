import os
from pathlib import Path

import numpy as np
import pytest

import mpsmat

# A Hadamard matrix of order 12, hard-coded so tests can exercise orders the
# built-in providers (Sylvester powers of two) do not reach.
_H12_ROWS = [
    "++++++++++++",
    "-+-+---+++-+",
    "-++-+---+++-",
    "--++-+---+++",
    "-+-++-+---++",
    "-++-++-+---+",
    "-+++-++-+---",
    "--+++-++-+--",
    "---+++-++-+-",
    "----+++-++-+",
    "-+---+++-++-",
    "--+---+++-++",
]


def sign_matrix(rows: list[str]) -> np.ndarray:
    return np.array([[1 if ch == "+" else -1 for ch in row] for row in rows],
                    dtype=np.int64)


@pytest.fixture(scope="session")
def hadamard12() -> np.ndarray:
    h = sign_matrix(_H12_ROWS)
    assert np.array_equal(h @ h.T, 12 * np.eye(12, dtype=np.int64))
    return h


def random_unitary(n: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-ish unitary via QR of a complex Gaussian matrix."""
    z = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    q, r = np.linalg.qr(z)
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))


def random_hermitian_unitary(n: int, m: int, rng: np.random.Generator) -> np.ndarray:
    """Independent generator: V diag(+1 x m, -1 x (n-m)) V* for Haar-ish V.

    Built straight from the spectral theorem, with no reference to the block
    parametrization it is used to test.
    """
    v = random_unitary(n, rng)
    eig = np.concatenate([np.ones(m), -np.ones(n - m)])
    s = (v * eig) @ v.conj().T
    return (s + s.conj().T) / 2


def raises_exactly(error: type, message: str, call) -> None:
    """``call()`` raises ``error`` itself, not a subclass, with ``message``."""
    with pytest.raises(error) as info:
        call()
    assert (type(info.value), str(info.value)) == (error, message)


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(20240817)


@pytest.fixture
def subprocess_env() -> dict:
    """Environment for a child interpreter that imports this mpsmat checkout."""
    src = str(Path(mpsmat.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return {**os.environ, "PYTHONPATH": path}
