"""Enlarging one Jordan block (rho, a0, b0-2) -> (rho, a0, b0): the enlarged
parameter, the transported order, and the transported packet coordinates."""

from __future__ import annotations

from typing import Mapping, Sequence

from .core_types import CuspidalLabel, GroupType, MINUS, PLUS
from .jordan import ArthurParameter, JordanBlock, good_parity
from .packets import (
    OrderedJord,
    PSI_SIDE,
    PacketParams,
    TargetTriple,
    _blocks_of,
    block_sign,
    check_constraint1,
    derive_prime_block,
    locate_pivot,
)

__all__ = [
    "TargetTriple",
    "derive_prime_block",
    "check_target_parity",
    "build_psi_plus",
    "transfer_params",
    "check_sign_identity",
    "induced_order",
    "apply_transfer",
]


def check_target_parity(
    target: TargetTriple, group: GroupType, labels: Mapping[str, CuspidalLabel]
) -> None:
    """Raise unless the enlarged block (rho, a0, b0) is of good parity for
    ``group``: only such a block can be enlarged or ordered against."""
    if not good_parity(target.plus_block(), group, labels):
        raise ValueError(f"target block {target.plus_block()} is not of good parity")


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
    if psi.standard_dim(labels) != psi.group.rank_dim:
        raise ValueError(
            f"input parameter dimension {psi.standard_dim(labels)} does not match "
            f"group dimension {psi.group.rank_dim}"
        )

    blocks = list(psi.blocks)
    prime = target.prime_block()
    if prime is None:
        blocks.append(target.plus_block())
    else:
        try:
            idx = blocks.index(prime)
        except ValueError:
            raise ValueError(f"required block {prime} absent from the parameter") from None
        blocks[idx] = target.plus_block()

    grown = GroupType(
        psi.group.kind,
        psi.group.rank_dim + 2 * target.a0 * labels[target.rho].dim,
        psi.group.epsilon,
    )
    return ArthurParameter(group=grown, blocks=tuple(blocks))


def transfer_params(t0: int, eta0: int, a0: int, b0: int) -> tuple[int, int]:
    """Packet coordinates of the enlarged block from those of the shrunken one.

    For b0 = 2 the inputs are ignored (the shrunken block does not exist;
    the defaults t0 = 0, eta0 = + apply). The sign is canonicalized to +
    whenever 2t reaches min(a0, b0), where the two signs name one member.
    """
    if a0 < 1 or b0 < 2:
        raise ValueError(f"need a0 >= 1 and b0 >= 2, got ({a0}, {b0})")
    if b0 == 2:
        zeta0 = PLUS if a0 >= b0 else MINUS
        t_plus = 1 if zeta0 == PLUS else 0
        eta_plus = PLUS
    else:
        detail = check_constraint1(a0, b0 - 2, t0, eta0)
        if detail is not None:
            raise ValueError(detail)
        if b0 == a0 + 1:
            # Exceptional corner: the shrunken block has zeta' = +, the
            # enlarged one zeta = -, both with B = 1/2.
            m_small = b0 - 2
            if 2 * t0 == m_small:
                # Top of the range: (t0, +) and (t0, -) name the same member;
                # the eta0 = - row applies.
                t_plus, eta_plus = t0, PLUS
            elif eta0 == PLUS:
                t_plus, eta_plus = t0 + 1, MINUS
            else:
                t_plus, eta_plus = t0, PLUS
        else:
            zeta0 = PLUS if a0 >= b0 else MINUS
            t_plus = t0 + 1 if zeta0 == PLUS else t0
            eta_plus = eta0
    if 2 * t_plus == min(a0, b0):
        eta_plus = PLUS
    return t_plus, eta_plus


def check_sign_identity(a0: int, b0: int, t0: int, eta0: int) -> bool:
    """Whether the block's sign-product factor is preserved by enlargement.

    The shrunken side contributes +1 when b0 = 2 (no block).
    """
    if b0 == 2:
        left = PLUS
    else:
        left = block_sign(a0, b0 - 2, t0, eta0)
    t_plus, eta_plus = transfer_params(t0, eta0, a0, b0)
    right = block_sign(a0, b0, t_plus, eta_plus)
    return left == right


def induced_order(
    ordered: OrderedJord | Sequence[JordanBlock],
    target: TargetTriple,
    insert_position: int | None = None,
) -> OrderedJord:
    """Order on the enlarged side: the enlarged block takes the pivot's place.

    For b0 = 2 there is no place to take and ``insert_position`` must say
    where the new block goes (otherwise this raises).
    """
    blocks = list(_blocks_of(ordered))
    if target.b0 == 2:
        if insert_position is None:
            raise ValueError(
                "b0 = 2 inserts a fresh block: an explicit insert_position is required"
            )
        if not 0 <= insert_position <= len(blocks):
            raise ValueError(
                f"insert_position {insert_position} outside [0, {len(blocks)}]"
            )
        blocks.insert(insert_position, target.plus_block())
    else:
        idx = locate_pivot(blocks, target, PSI_SIDE)
        assert idx is not None
        blocks[idx] = target.plus_block()
    return OrderedJord(tuple(blocks))


def apply_transfer(
    ordered: OrderedJord | Sequence[JordanBlock],
    params: PacketParams,
    target: TargetTriple,
    insert_position: int | None = None,
) -> tuple[OrderedJord, PacketParams]:
    """Transport an order together with its packet coordinates.

    All positions keep their (t, eta) except the pivot, whose coordinates
    are recomputed; for b0 = 2 the fresh block's coordinates are inserted at
    ``insert_position``.
    """
    blocks = _blocks_of(ordered)
    if len(params) != len(blocks):
        raise ValueError(
            f"params cover {len(params)} blocks, order has {len(blocks)}"
        )
    t_list, eta_list = list(params.t), list(params.eta)
    if target.b0 == 2:
        new_order = induced_order(blocks, target, insert_position)
        t_plus, eta_plus = transfer_params(0, PLUS, target.a0, 2)
        t_list.insert(insert_position, t_plus)
        eta_list.insert(insert_position, eta_plus)
    else:
        # induced_order's replacement, at the pivot index already found.
        idx = locate_pivot(blocks, target, PSI_SIDE)
        assert idx is not None
        t_list[idx], eta_list[idx] = transfer_params(
            t_list[idx], eta_list[idx], target.a0, target.b0
        )
        new_order = OrderedJord(blocks[:idx] + (target.plus_block(),) + blocks[idx + 1:])
    return new_order, PacketParams(t=tuple(t_list), eta=tuple(eta_list))
