"""End-to-end doubling pipeline with an independent re-check.

Doubles the river (height-1 local set) and then the height-2 set on
B_8(F2), prints the resulting certificates and re-verification matrix,
and replays every certificate against the final snapshot, loaded once,
through the same verifier the pipeline runs on its own rows.  Each step
writes the binary code j + 1 of piece j at the piece's vertices, in
(p + q).bit_length() fresh even label channels.
"""

from riverscape import FreeGroup, RiverLandscape, ball, paradoxicalize_sequence
from riverscape.checking import check_certificate_dict, load_snapshot
from riverscape.patterns import center_height_local_set
from riverscape.snapshots import bundle_pipeline, final_snapshot


def height_target(heights):
    return lambda rule, win: center_height_local_set(
        rule, win, 1, heights, prefix_len=1
    )


def main():
    f2 = FreeGroup(2)
    win = ball(f2, 8)
    river = RiverLandscape(f2)

    result = paradoxicalize_sequence(
        river, [height_target({1}), height_target({2})], win
    )
    for i, (cert, report) in enumerate(
            zip(result.certificates, result.reports)):
        print(f"\nstep {i}: displacement K={cert.K}, pieces "
              f"p={cert.p}+q={cert.q}, piece codes 1..{cert.p + cert.q} "
              f"in channels {cert.channel_positions}, "
              f"core radius {cert.core_radius}, "
              f"verified={report.passed}")
    print("\nre-verification matrix (certificate a vs rule k):")
    for a, row in enumerate(result.matrix):
        cells = ["n/a " if e is None else ("pass" if e.passed else "FAIL")
                 for e in row]
        print(f"  cert {a}: {cells}")

    snapshot = load_snapshot(final_snapshot(result, win))
    for i, cert_obj in enumerate(bundle_pipeline(result)["certificates"]):
        report = check_certificate_dict(snapshot, cert_obj)
        print(f"independent snapshot check of certificate {i}: "
              f"{report.passed}")


if __name__ == "__main__":
    main()
