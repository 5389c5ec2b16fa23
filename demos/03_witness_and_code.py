"""Witness maps, the defect's decay, and the 010 bit-code.

Builds kappa_m witness sets along the river, tabulates how the
neighboring-set defect falls with m against its proven ceiling, and
round-trips a witness set through the unary 11/010 code.
"""

from fractions import Fraction

from riverscape import (FreeGroup, RiverLandscape, ball, block_subset,
                        decode_witness, defect, defect_bound, encode_witness,
                        kappa)


def main():
    f2 = FreeGroup(2)
    river = RiverLandscape(f2)

    print("kappa_3(e):", kappa(river, (), 3))
    g = (1, 2)
    print(f"kappa_4({g}):", kappa(river, g, 4))

    win = ball(f2, 8)
    core = [w for w in win.vertices
            if len(w) <= 7 and river.height(w) <= 3]
    print(f"\nheight<=3 core vertices of B_8: {len(core)}")
    print(f"{'m':>4} {'mean defect':>12} {'max defect':>11} {'max bound':>10}")
    for m in (2, 5, 10, 20):
        defects = [
            defect(river, w, s, m) for w in core for s in f2.letters()
        ]
        mean = sum(defects, Fraction(0)) / len(defects)
        worst = max(defects)
        bound = max(defect_bound(river, w, m) for w in core)
        print(f"{m:>4} {float(mean):>12.4f} {float(worst):>11.4f} "
              f"{float(bound):>10.4f}")

    bits = encode_witness(river, (), 2)
    print(f"\ncode prefix for e, m<=2: {bits}")
    blocks = decode_witness(bits, river.height(()))
    for b in blocks:
        print(f"  block m={b.m}: index {b.index} -> recentred set "
              f"{sorted(block_subset(river, b))}")


if __name__ == "__main__":
    main()
