"""Three landscapes and their certified structure.

Prints the ternary height profile near zero, cross-checks the fractal
rule against it, verifies the four landscape axioms for the river on a
window, and reports sublevel-component sizes (the hilly certificate).
"""

from riverscape import (AnchorSet, FractalLandscape, FreeGroup,
                        IntegerGroup, RiverLandscape, ball, components_leq,
                        ternary_height, verify_axioms)


def main():
    print("ternary heights 0..40:")
    print("  ", [ternary_height(n) for n in range(41)])

    z = IntegerGroup()
    fractal = FractalLandscape(z, AnchorSet(z, (3, 30, 300)))
    agree = all(
        fractal.height(n) == ternary_height(n) for n in range(0, 101)
    )
    print(f"fractal (anchors 3, 30, 300) agrees with ternary on 0..100: "
          f"{agree}")

    win = ball(z, 1000)
    from riverscape import TernaryLandscape
    ternary = TernaryLandscape(z)
    for n in (1, 2):
        comp = components_leq(ternary, win, n)
        print(f"W^{n} components on [-1000,1000]: "
              f"max interior size {comp.max_interior_size}")

    f2 = FreeGroup(2)
    river = RiverLandscape(f2)
    win8 = ball(f2, 8)
    report = verify_axioms(river, win8)
    print(f"\nriver on B_8(F2): axioms pass = {report.passed}")
    print(f"  M (return to height 1): {report.constants.M}")
    print(f"  N (height-1 density):   {report.constants.N}")
    print(f"  S (visibility):         {report.constants.S}")
    print(f"  uncertified boundary readings skipped: {report.uncertified}")


if __name__ == "__main__":
    main()
