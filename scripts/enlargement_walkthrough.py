#!/usr/bin/env python3
"""End-to-end walkthrough of one block enlargement.

Builds a small parameter, orders it canonically, reads off the pole order
of the normalization factor at the point attached to the enlarged block,
then transports the order and one set of packet coordinates through the
enlargement and prints every intermediate object.
"""

import argparse

from apackets.core_types import (
    CuspidalLabel,
    GroupKind,
    GroupType,
    Parity,
    PLUS,
    halfint_str,
    sign_str,
)
from apackets.jordan import ArthurParameter, JordanBlock
from apackets.lfactors import r_order
from apackets.packets import (
    PSI_PLUS_SIDE,
    PSI_SIDE,
    TargetTriple,
    canonical_order,
    enumerate_params,
    locate_pivot,
    validate_order,
)
from apackets.transfer import apply_transfer, build_psi_plus, check_sign_identity


def fmt_blocks(blocks) -> str:
    return "[" + ", ".join(f"({b.rho},{b.a},{b.b})" for b in blocks) + "]"


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--a0", type=int, default=4, help="pivot size a0 (default 4)")
    ap.add_argument("--b0", type=int, default=3, help="enlarged size b0 (default 3)")
    args = ap.parse_args()
    a0, b0 = args.a0, args.b0
    if b0 < 2:
        ap.error("--b0 must be >= 2")

    labels = {
        "r": CuspidalLabel(id="r", dim=1, self_dual=True, parity=Parity.ORTHOGONAL)
    }
    target = TargetTriple("r", a0, b0)

    # Companions live in the target's integrality class so the whole
    # parameter is of good parity for one group kind.
    if (a0 + b0) % 2 == 1:
        blocks = [JordanBlock(rho="r", a=2, b=1), JordanBlock(rho="r", a=2, b=3)]
    else:
        blocks = [JordanBlock(rho="r", a=1, b=1), JordanBlock(rho="r", a=2, b=2)]
    prime = target.prime_block()
    if prime is not None:
        blocks.append(prime)
    # One companion whose pole contributes to the normalization factor below.
    blocks.append(JordanBlock(rho="r", a=a0, b=b0 + 2))

    dim = sum(blk.a * blk.b for blk in blocks)
    kind = GroupKind.SO_ODD if (a0 + b0) % 2 == 1 else GroupKind.SP
    group = GroupType(kind, dim)
    psi = ArthurParameter(group, tuple(blocks))
    print(f"group: {group.kind.value}, standard dimension {dim}")
    print(f"blocks: {fmt_blocks(psi.blocks)}")
    print(f"target: {target}")

    ordered = canonical_order(psi.blocks, target, PSI_SIDE)
    violations = validate_order(ordered, target, PSI_SIDE)
    print(f"\ncanonical order: {fmt_blocks(ordered)}")
    print(f"order violations: {[v.code for v in violations] or 'none'}")

    s0_x2 = b0 - 1  # s0 = (b0 - 1) / 2
    print(f"\nnormalization-factor order for ({target.rho}, {a0}) at s0 = {halfint_str(s0_x2)}: "
          f"{r_order(psi, target.rho, a0, s0_x2)}")

    packet = enumerate_params(ordered, PLUS)
    print(f"\npacket size on the plus side: {len(packet)}")
    params = packet[0]
    print(f"chosen coordinates: t = {list(params.t)}, "
          f"eta = {[sign_str(e) for e in params.eta]}")

    psi_plus = build_psi_plus(psi, target, labels)
    print(f"\nenlarged blocks: {fmt_blocks(psi_plus.blocks)}")
    print(f"enlarged dimension: {psi_plus.group.rank_dim}")

    insert = None
    if prime is None:
        # The fresh block goes where the enlarged side's canonical order puts it.
        plus_order = canonical_order(psi_plus.blocks, target, PSI_PLUS_SIDE)
        insert = locate_pivot(plus_order, target, PSI_PLUS_SIDE)
    new_order, new_params = apply_transfer(ordered, params, target, insert_position=insert)
    print(f"\ntransported order: {fmt_blocks(new_order)}")
    print(f"transported coordinates: t = {list(new_params.t)}, "
          f"eta = {[sign_str(e) for e in new_params.eta]}")
    print(f"order violations on the enlarged side: "
          f"{[v.code for v in validate_order(new_order, target, PSI_PLUS_SIDE)] or 'none'}")

    if prime is not None:
        pivot_idx = locate_pivot(ordered, target, PSI_SIDE)
        t0, eta0 = params.t[pivot_idx], params.eta[pivot_idx]
        print(f"\nsign identity for the pivot (t0={t0}, eta0={sign_str(eta0)}): "
              f"{check_sign_identity(a0, b0, t0, eta0)}")


if __name__ == "__main__":
    main()
