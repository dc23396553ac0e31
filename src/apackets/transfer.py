"""Enlarging one Jordan block (rho, a0, b0-2) -> (rho, a0, b0): the enlarged
parameter, the transported order, and the transported packet coordinates."""

from __future__ import annotations

from typing import Mapping, Sequence

from .core_types import CuspidalLabel, GroupType, MINUS, PLUS, check_sign
from .jordan import ArthurParameter, JordanBlock, good_parity
from .packets import (
    PSI_SIDE,
    PacketParams,
    TargetTriple,
    block_sign,
    check_constraint1,
    derive_prime_block,  # unused here, but perfbench/tracer.py wraps it in this module
    locate_pivot,
)


def check_target_parity(
    target: TargetTriple, group: GroupType, labels: Mapping[str, CuspidalLabel]
) -> None:
    """Raise unless the enlarged block (rho, a0, b0) is of good parity for
    ``group``: only such a block can be enlarged or ordered against."""
    if not good_parity(target.plus, group, labels):
        raise ValueError(f"target block {target.plus} is not of good parity")


def build_psi_plus(
    psi: ArthurParameter,
    target: TargetTriple,
    labels: Mapping[str, CuspidalLabel],
) -> ArthurParameter:
    """The parameter with one copy of the shrunken block enlarged to b0.

    For b0 = 2 the block (rho, a0, 2) is appended instead. The group's
    standard dimension grows by 2 * a0 * dim(rho); the dimension identity is
    re-checked against the enlarged group.
    """
    check_target_parity(target, psi.group, labels)
    dim = psi.standard_dim(labels)
    if dim != psi.group.rank_dim:
        raise ValueError(
            f"input parameter dimension {dim} does not match "
            f"group dimension {psi.group.rank_dim}"
        )

    blocks = list(psi.blocks)
    if target.prime is None:
        blocks.append(target.plus)
    else:
        try:
            idx = blocks.index(target.prime)
        except ValueError:
            raise ValueError(f"required block {target.prime} absent from the parameter") from None
        blocks[idx] = target.plus

    grown = GroupType(
        psi.group.kind,
        psi.group.rank_dim + 2 * target.a0 * labels[target.rho].dim,
        psi.group.epsilon,
    )
    return ArthurParameter(group=grown, blocks=tuple(blocks))


def transfer_params(t0: int, eta0: int, a0: int, b0: int) -> tuple[int, int]:
    """Packet coordinates of the enlarged block from those of the shrunken one.

    For b0 = 2 the inputs are ignored: the rule runs at the one pair of the
    empty shrunken block, t0 = 0 and eta0 = +. The sign is canonicalized to +
    whenever 2t reaches min(a0, b0), where the two signs name one member.
    """
    if a0 < 1 or b0 < 2:
        raise ValueError(f"need a0 >= 1 and b0 >= 2, got ({a0}, {b0})")
    if b0 == 2:
        t0, eta0 = 0, PLUS
    detail = check_constraint1(a0, b0 - 2, t0, eta0)
    if detail is not None:
        raise ValueError(detail)
    if b0 == a0 + 1:
        # Exceptional corner: the shrunken block has zeta' = +, the enlarged
        # one zeta = -, both with B = 1/2. At the top of the range (t0, +)
        # and (t0, -) name the same member, and the eta0 = - row applies.
        if eta0 == PLUS and 2 * t0 < b0 - 2:
            t_plus, eta_plus = t0 + 1, MINUS
        else:
            t_plus, eta_plus = t0, PLUS
    else:  # t grows by one exactly when the enlarged block has zeta = +, a0 >= b0
        t_plus, eta_plus = t0 + (1 if a0 >= b0 else 0), eta0
    if 2 * t_plus == min(a0, b0):
        eta_plus = PLUS
    return t_plus, eta_plus


def check_sign_identity(a0: int, b0: int, t0: int, eta0: int) -> bool:
    """Whether the block's sign-product factor is preserved by enlargement.

    The shrunken side contributes +1 when b0 = 2 (the empty block at (0, +)).
    """
    if b0 == 2:
        t0, eta0 = 0, PLUS
    left = block_sign(a0, b0 - 2, t0, eta0)
    t_plus, eta_plus = transfer_params(t0, eta0, a0, b0)
    right = block_sign(a0, b0, t_plus, eta_plus)
    return left == right


def apply_transfer(
    blocks: Sequence[JordanBlock],
    params: PacketParams,
    target: TargetTriple,
    insert_position: int | None = None,
) -> tuple[tuple[JordanBlock, ...], PacketParams, int]:
    """Transport an order together with its packet coordinates; also return
    the position of the enlarged block in the transported order.

    The enlarged block takes the pivot's place and the pivot's (t, eta) are
    recomputed; every other position keeps its block and coordinates. For
    b0 = 2 there is no place to take: ``insert_position`` must say where the
    fresh block and its coordinates go (otherwise this raises), and it is
    ignored for b0 > 2. Raises unless ``params`` cover the blocks and every
    eta is a sign.
    """
    params.check_covers(blocks)
    for eta in params.eta:
        check_sign(eta)
    order, t_list, eta_list = list(blocks), list(params.t), list(params.eta)
    if target.b0 == 2:
        if insert_position is None:
            raise ValueError(
                "b0 = 2 inserts a fresh block: an explicit insert_position is required"
            )
        if not 0 <= insert_position <= len(order):
            raise ValueError(
                f"insert_position {insert_position} outside [0, {len(order)}]"
            )
        pivot = insert_position
        # A placeholder for the empty shrunken block, at its one pair (0, +).
        order.insert(pivot, target.plus)
        t_list.insert(pivot, 0)
        eta_list.insert(pivot, PLUS)
    else:
        pivot = locate_pivot(order, target, PSI_SIDE)
        assert pivot is not None
    order[pivot] = target.plus
    t_list[pivot], eta_list[pivot] = transfer_params(
        t_list[pivot], eta_list[pivot], target.a0, target.b0
    )
    return tuple(order), PacketParams(t=tuple(t_list), eta=tuple(eta_list)), pivot
