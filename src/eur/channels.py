"""Qubit channels in Kraus form, and the acceleration-induced noise channel.

A channel is its Kraus operators K_j, which satisfy the trace-preservation
condition sum_j K_j^dag K_j = I, as one array of shape (K, ..., 2, 2):
operator j sits at index j of the first axis, and any axes in between
stack one channel per state of a stack of states. A list of K 2x2
matrices is accepted wherever a channel is. The Choi matrix uses the
unnormalized convention C = sum_ij |i><j| (x) E(|i><j|) with the channel
*input* index as the most significant subsystem, so tr C = 2 and tracing
out the channel output leaves the identity.
"""

import math

import numpy as np

from .linalg import (
    COMPLETENESS_ATOL,
    EIGENVALUE_FLOOR,
    KRAUS_WEIGHT_CUTOFF,
    _float_or_array,
    _hermitian_part,
    _real_or_complex,
)

R_MAX = math.pi / 4

# the qubit identity, which trace preservation compares with: built once, read-only
_IDENTITY = np.eye(2)
_IDENTITY.flags.writeable = False


def unruh_r(a, omega: float):
    """Mixing angle r in [0, pi/4] for a uniformly accelerated observer.

    `a` is the proper acceleration of the memory holder, >= 0: one value
    or an array of them; `omega` > 0 is the frequency of the detected
    Dirac field mode. Natural units (c = hbar = k_B = 1); only the ratio
    omega/a matters. Returns a float for one acceleration, otherwise an
    array of `a`'s shape.

    cos r = (1 + exp(-2 pi omega / a))^(-1/2), computed in the equivalent
    form r = atan(exp(-pi omega / a)): it is bounded by atan(1) == pi/4
    exactly, and keeps full relative precision at small r, where the
    arccosine of a number next to 1 loses it. The formula divides by the
    acceleration, so a = 0 is defined by its limit r = 0 (the identity
    channel); a -> infinity approaches r = pi/4. Monotonically increasing
    in a and decreasing in omega.

    Raises ValueError naming omega, or the first acceleration, that is
    not finite or out of range.
    """
    if not (math.isfinite(omega) and omega > 0.0):
        raise ValueError(f"mode frequency must be finite and > 0, got {omega}")
    a = np.asarray(a, dtype=float)
    valid = np.isfinite(a) & (a >= 0.0)
    if not valid.all():
        raise ValueError(f"acceleration must be finite and >= 0, got {a[~valid][0]}")
    # a at or next to 0 (-0.0 included) gives an exponent of -inf, so r = atan(0) = 0
    with np.errstate(over="ignore"):
        exponent = np.divide(-math.pi * omega, a, out=np.full(a.shape, -np.inf), where=a > 0.0)
    return _float_or_array(np.arctan(np.exp(exponent)))


def unruh_channel(r) -> np.ndarray:
    """Kraus pair of the fermionic acceleration channel at mixing angle r.

    K1 = [[cos r, 0], [0, 1]],  K2 = [[0, 0], [sin r, 0]]

    The channel leaks |0> toward |1> with probability sin^2 r and leaves
    |1> strictly invariant; at r = 0 it is the identity. `r` is one angle
    or an array of angles; the result has shape (2, *r.shape, 2, 2), so
    one angle gives (2, 2, 2) and N angles give the (2, N, 2, 2) stack
    that `apply_to_memory` takes, in float64.
    """
    r = np.asarray(r, dtype=float)
    inside = (r >= 0.0) & (r <= R_MAX)  # False for NaN
    if not inside.all():
        raise ValueError(f"r must lie in [0, pi/4], got {r[~inside][0]}")
    kraus = np.zeros((2, *r.shape, 2, 2))
    kraus[0, ..., 0, 0] = np.cos(r)
    kraus[0, ..., 1, 1] = 1.0
    kraus[1, ..., 1, 0] = np.sin(r)
    return kraus


def amplitude_damping(gamma: float) -> np.ndarray:
    """Standard amplitude-damping Kraus pair with decay probability gamma.

    E0 = [[1, 0], [0, sqrt(1-gamma)]],  E1 = [[0, sqrt(gamma)], [0, 0]]

    Decays |1> toward |0>; conjugating input and output by sigma_x turns
    it into the acceleration channel with gamma = sin^2 r.
    """
    if not 0.0 <= gamma <= 1.0:
        raise ValueError(f"gamma must lie in [0, 1], got {gamma}")
    return np.array([
        [[1.0, 0.0], [0.0, math.sqrt(1.0 - gamma)]],
        [[0.0, math.sqrt(gamma)], [0.0, 0.0]],
    ])


def _kraus_stack(channel) -> np.ndarray:
    """The Kraus operators as one array of shape (K, ..., 2, 2): float64
    when they are all real numbers, complex128 otherwise.

    Raises ValueError for an empty family, for an array of fewer than three
    axes (one bare operator, say), or for operators that are not 2x2.
    """
    try:
        kraus = _real_or_complex(channel)
    except ValueError:  # operators of unequal shapes do not stack
        shapes = [np.shape(k) for k in channel]
        raise ValueError(f"Kraus operators have shapes {shapes}, expected (2, 2)") from None
    if kraus.ndim > 0 and len(kraus) == 0:
        raise ValueError("channel has no Kraus operators")
    if kraus.ndim < 3:
        raise ValueError(f"channel has shape {kraus.shape}, expected (K, ..., 2, 2)")
    if kraus.shape[-2:] != (2, 2):
        raise ValueError(f"Kraus operator has shape {kraus.shape[1:]}, expected (2, 2)")
    return kraus


def validate_kraus(channel) -> None:
    """Raise ValueError unless the operators are finite and sum_j K_j^dag K_j = I
    within COMPLETENESS_ATOL. The operators are only read, and the
    identity they are compared with is built once, at import, read-only."""
    kraus = _kraus_stack(channel)
    if not np.isfinite(kraus).all():
        raise ValueError("Kraus family is not finite: it holds NaN or inf")
    total = (kraus.conj().swapaxes(-1, -2) @ kraus).sum(axis=0)
    deviation = float(abs(total - _IDENTITY).max())
    if not deviation <= COMPLETENESS_ATOL:
        raise ValueError(
            f"Kraus family is not trace preserving: max |sum K^dag K - I| = {deviation:.3e}"
        )


def apply(channel, rho: np.ndarray) -> np.ndarray:
    """Act with a Kraus channel on a single-qubit operator: sum_j K_j rho K_j^dag."""
    rho = _real_or_complex(rho)
    if rho.shape != (2, 2):
        raise ValueError(f"expected a 2x2 matrix, got shape {rho.shape}")
    kraus = _kraus_stack(channel)
    return (kraus @ rho @ kraus.conj().swapaxes(-1, -2)).sum(axis=0)


def apply_to_memory(channel, rho: np.ndarray) -> np.ndarray:
    """Act with a channel on the memory (least significant) half of a two-qubit state.

    Returns sum_j (I (x) K_j) rho (I (x) K_j^dag); the probed qubit's
    marginal is untouched. Kraus operators of shape (K, ..., 2, 2) and
    states of shape (..., 4, 4) broadcast against each other over the
    stack axes, so one call evolves a stack of states, a stack of
    channels, or both. One expression serves every shape, and each of its
    products is taken per 4x4 matrix, so a state shared by a stack of
    channels gets the bits that each channel gives it alone.

    When both the operators and the state are float64 (or other real
    numbers), every product runs in float64 and the result is float64;
    otherwise every product runs in complex128 and the result is
    complex128, with the bits it has when both inputs are complex.
    Neither input is written to. Stacks that do not broadcast raise
    ValueError naming both stack shapes.
    """
    rho = _real_or_complex(rho)
    if rho.shape[-2:] != (4, 4):
        raise ValueError(f"expected a 4x4 matrix, got shape {rho.shape}")
    kraus = _kraus_stack(channel)
    # I (x) K_j, with the stack axes padded so that K_j's align with rho's
    lifted = np.zeros(kraus.shape[:1] + (1,) * (rho.ndim - kraus.ndim + 1) + kraus.shape[1:-2]
                      + (4, 4), dtype=kraus.dtype)
    lifted[..., :2, :2] = lifted[..., 2:, 2:] = kraus.reshape(lifted.shape[:-2] + (2, 2))
    try:
        return (lifted @ rho @ lifted.conj().swapaxes(-1, -2)).sum(axis=0)
    except ValueError:  # the stacks do not broadcast: only the product can tell
        raise ValueError(f"channel stack {kraus.shape[1:-2]} does not broadcast against "
                         f"state stack {rho.shape[:-2]}") from None


def choi(channel) -> np.ndarray:
    """Choi matrix C = sum_ij |i><j| (x) E(|i><j|), input index first.

    tr C = 2 for a qubit channel; complete positivity shows up as C >= 0
    and trace preservation as tr_out C = I. C = sum_j |K_j>><<K_j| is one
    contraction of the vectorized operators, |K_j>>[2i + m] = K_j[m, i],
    and equals `apply_to_memory` of the channel on |phi><phi|,
    phi = sum_i |ii>, bit for bit. A (K, ..., 2, 2) stack of channels gives
    a (..., 4, 4) stack of Choi matrices, float64 for real operators and
    complex128 otherwise; C is a new array on every call.
    """
    kraus = _kraus_stack(channel)
    vec = kraus.swapaxes(-1, -2).reshape(kraus.shape[:-2] + (4,))
    return np.einsum("k...a,k...b->...ab", vec, vec.conj())


def kraus_from_choi(c: np.ndarray) -> np.ndarray:
    """Extract a Kraus family, shape (K, 2, 2), from a Choi matrix by eigendecomposition.

    Each eigenpair (lam, v) with lam > KRAUS_WEIGHT_CUTOFF becomes an
    operator via K[m, i] = sqrt(lam) * v[2*i + m] (input index i, output
    index m, matching the `choi` convention). Kraus families are unique
    only up to an isometric remixing, so two representations of the same
    channel must be compared on their action, not operator by operator.

    C is checked once, as the "Choi matrix", and solved as the Hermitian
    part the check returns. Then,
    in this order, ValueError is raised for an eigenvalue below
    EIGENVALUE_FLOOR (not completely positive), for no eigenvalue above
    KRAUS_WEIGHT_CUTOFF (no Kraus operators), and when C is not trace
    preserving: max |tr_out C - I| plus the summed |eigenvalue| dropped at
    the cutoff exceeds COMPLETENESS_ATOL. The family's sum K^dag K differs
    from (tr_out C)^T by at most that dropped weight, so the family passes
    `validate_kraus` up to roundoff and is not checked again. The family
    is complex even for a real C: a real eigensolver would pick another
    family of the same channel and move the last bits of its results.
    """
    c = np.asarray(c, dtype=complex)
    if c.shape != (4, 4):
        raise ValueError(f"expected a 4x4 Choi matrix, got shape {c.shape}")
    eigenvalues, eigenvectors = np.linalg.eigh(_hermitian_part(c, "Choi matrix"))
    values = eigenvalues.tolist()
    if values[0] < EIGENVALUE_FLOOR:
        raise ValueError(f"not completely positive: Choi eigenvalue {values[0]:.3e}")
    # the eigenvalues ascend, so those at or below the cutoff come first
    dropped = sum(value <= KRAUS_WEIGHT_CUTOFF for value in values)
    if dropped == len(values):
        raise ValueError("channel has no Kraus operators")
    marginal = c.reshape(2, 2, 2, 2).trace(axis1=1, axis2=3)
    deviation = float(abs(marginal - _IDENTITY).max()) + sum(abs(value) for value in values[:dropped])
    if not deviation <= COMPLETENESS_ATOL:
        raise ValueError(
            "Choi matrix is not trace preserving: "
            f"max |tr_out C - I| + dropped weight = {deviation:.3e}"
        )
    vectors = eigenvectors.T[dropped:].reshape(-1, 2, 2).swapaxes(-1, -2)
    return np.sqrt(eigenvalues[dropped:])[:, None, None] * vectors

